//! Property tests for the causal layer.
//!
//! Three families of laws:
//!
//! 1. **Vector-clock algebra** — `join` is commutative, associative and
//!    idempotent, and never loses information (the join dominates both
//!    operands).
//! 2. **Happens-before is a strict partial order** — over the annotations
//!    of real executions (random suite program × random seed): irreflexive,
//!    antisymmetric, transitive, and consistent with program order.
//! 3. **Replay stability** — recording a run and playing the log back
//!    yields a byte-identical trace and identical causal annotations.
//!
//! And one law of the annotated-trace format: every line the writer prints
//! parses back to the record that printed it.

use mtt_causal::{
    annotate_trace, check_annotated, check_annotated_header, check_annotated_record,
    happens_before, write_annotated, AnnotatedHeader, AnnotatedRecord, VectorClock,
    ANNOTATED_SCHEMA, ANNOTATED_VERSION,
};
use mtt_instrument::shared;
use mtt_json::Json;
use mtt_replay::{record, DivergencePolicy, PlaybackScheduler};
use mtt_runtime::{Execution, NoNoise, RandomScheduler};
use mtt_suite::SuiteProgram;
use mtt_trace::{Trace, TraceCollector};
use proptest::prelude::*;

fn clock(components: Vec<u32>) -> VectorClock {
    VectorClock::from_components(components)
}

/// One of the small catalog programs, chosen by index.
fn program(idx: usize) -> SuiteProgram {
    let all = [
        mtt_suite::small::lost_update(2, 2),
        mtt_suite::small::check_then_act(),
        mtt_suite::small::unguarded_wait(),
        mtt_suite::small::ab_ba(),
        mtt_suite::small::missed_signal(),
    ];
    all.into_iter().nth(idx % 5).expect("index in range")
}

/// Execute `program` once at `seed` and collect the raw trace.
fn run_trace(program: &SuiteProgram, seed: u64) -> Trace {
    let (sink, handle) = shared(TraceCollector::new());
    Execution::new(&program.program)
        .scheduler(Box::new(RandomScheduler::sticky(seed, 0.0)))
        .max_steps(20_000)
        .sink(Box::new(sink))
        .run();
    let mut guard = handle.lock().expect("collector poisoned");
    std::mem::take(&mut guard.trace)
}

/// The keys of the JSON object `line`, each once: none is printed twice.
fn keys_are_distinct(line: &str) -> bool {
    let Ok(Json::Obj(members)) = Json::parse(line) else {
        return false;
    };
    let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len() == members.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every line of a real execution's annotated trace parses back to the
    /// record that printed it, prints each key once and is exactly the
    /// text the expected record prints. Every third record carries a bug
    /// tag, so the flattened trace record's optional field is printed too.
    #[test]
    fn every_annotated_line_parses_back_to_its_record(idx in 0usize..5, seed in 0u64..500) {
        let p = program(idx);
        let mut trace = run_trace(&p, seed);
        trace.meta.program = p.name.to_string();
        for rec in trace.records.iter_mut().filter(|r| r.seq % 3 == 0) {
            rec.bug_tags = vec![format!("bug-{}", rec.seq % 2)];
        }
        let ann = annotate_trace(&trace);
        let mut out = Vec::new();
        write_annotated(&trace, &ann, &mut out).expect("in-memory write");
        let text = String::from_utf8(out).expect("NDJSON is UTF-8");
        prop_assert_eq!(check_annotated(&text), Ok(trace.records.len() as u64));

        let mut lines = text.lines();
        let header = lines.next().expect("a header line");
        let expected = AnnotatedHeader {
            schema: ANNOTATED_SCHEMA.to_string(),
            version: ANNOTATED_VERSION,
            first_failure: ann.first_failure,
            meta: trace.meta.clone(),
        };
        prop_assert_eq!(header, mtt_json::to_string(&expected));
        prop_assert!(keys_are_distinct(header), "{header}");
        prop_assert_eq!(check_annotated_header(header), Ok(expected));

        prop_assert_eq!(lines.clone().count(), trace.records.len());
        for ((line, rec), note) in lines.zip(&trace.records).zip(&ann.notes) {
            let expected = AnnotatedRecord {
                record: rec.clone(),
                clock: note.clock.components().to_vec(),
                hb_from: note.hb_from.clone(),
                first_failure: ann.first_failure == Some(rec.seq),
            };
            prop_assert_eq!(line, mtt_json::to_string(&expected));
            prop_assert!(keys_are_distinct(line), "{line}");
            prop_assert_eq!(check_annotated_record(line), Ok(expected));
        }
    }

    #[test]
    fn clock_join_is_commutative(a in proptest::collection::vec(0u32..40, 0..6),
                                 b in proptest::collection::vec(0u32..40, 0..6)) {
        let mut ab = clock(a.clone());
        ab.join(&clock(b.clone()));
        let mut ba = clock(b);
        ba.join(&clock(a));
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn clock_join_is_associative(a in proptest::collection::vec(0u32..40, 0..6),
                                 b in proptest::collection::vec(0u32..40, 0..6),
                                 c in proptest::collection::vec(0u32..40, 0..6)) {
        let mut left = clock(a.clone());
        left.join(&clock(b.clone()));
        left.join(&clock(c.clone()));
        let mut bc = clock(b);
        bc.join(&clock(c));
        let mut right = clock(a);
        right.join(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn clock_join_is_idempotent_and_dominating(
        a in proptest::collection::vec(0u32..40, 0..6),
        b in proptest::collection::vec(0u32..40, 0..6),
    ) {
        let mut aa = clock(a.clone());
        aa.join(&clock(a.clone()));
        prop_assert_eq!(&aa, &clock(a.clone()));
        let mut ab = clock(a.clone());
        ab.join(&clock(b.clone()));
        prop_assert!(clock(a).le(&ab), "join must dominate its left operand");
        prop_assert!(clock(b).le(&ab), "join must dominate its right operand");
    }

    #[test]
    fn happens_before_is_a_strict_partial_order(idx in 0usize..5, seed in 0u64..500) {
        let trace = run_trace(&program(idx), seed);
        let ann = annotate_trace(&trace);
        let notes = &ann.notes;
        prop_assert_eq!(notes.len(), trace.records.len());
        // Irreflexivity.
        for n in notes {
            prop_assert!(!happens_before(n, n), "seq {} before itself", n.seq);
        }
        // Antisymmetry over all pairs; transitivity over a bounded sample of
        // triples (full cubic scan is too slow for the larger traces).
        for a in notes {
            for b in notes {
                if a.seq != b.seq && happens_before(a, b) {
                    prop_assert!(
                        !happens_before(b, a),
                        "cycle between seq {} and {}", a.seq, b.seq
                    );
                }
            }
        }
        let stride = (notes.len() / 12).max(1);
        for a in notes.iter().step_by(stride) {
            for b in notes.iter().step_by(stride) {
                for c in notes.iter().step_by(stride) {
                    if happens_before(a, b) && happens_before(b, c) {
                        prop_assert!(
                            happens_before(a, c),
                            "transitivity broke at {} -> {} -> {}", a.seq, b.seq, c.seq
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn program_order_implies_happens_before(idx in 0usize..5, seed in 0u64..500) {
        let trace = run_trace(&program(idx), seed);
        let ann = annotate_trace(&trace);
        for (i, a) in ann.notes.iter().enumerate() {
            for b in ann.notes.iter().skip(i + 1) {
                if a.thread == b.thread {
                    prop_assert!(
                        happens_before(a, b),
                        "same-thread seq {} !-> seq {}", a.seq, b.seq
                    );
                }
            }
        }
    }

    #[test]
    fn hb_edges_point_at_earlier_cross_thread_events(idx in 0usize..5, seed in 0u64..500) {
        let trace = run_trace(&program(idx), seed);
        let ann = annotate_trace(&trace);
        for (i, note) in ann.notes.iter().enumerate() {
            for &src in &note.hb_from {
                prop_assert!(src < note.seq, "edge from the future at seq {}", note.seq);
                let source = &ann.notes[src as usize];
                prop_assert!(
                    happens_before(source, &ann.notes[i]),
                    "recorded edge {} -> {} is not a happens-before", src, note.seq
                );
            }
        }
    }

    #[test]
    fn replayed_trace_has_identical_annotations(idx in 0usize..5, seed in 0u64..200) {
        let p = program(idx);
        // Record.
        let (rec_sched, rec_noise, recorder) =
            record(p.name, seed, RandomScheduler::sticky(seed, 0.0), NoNoise);
        let (sink, handle) = shared(TraceCollector::new());
        Execution::new(&p.program)
            .scheduler(Box::new(rec_sched))
            .noise(Box::new(rec_noise))
            .max_steps(20_000)
            .sink(Box::new(sink))
            .run();
        let recorded = {
            let mut g = handle.lock().expect("collector poisoned");
            std::mem::take(&mut g.trace)
        };
        let log = recorder.take_log();
        // Play back.
        let playback = PlaybackScheduler::new(log, DivergencePolicy::Strict);
        let report = playback.report_handle();
        let (sink, handle) = shared(TraceCollector::new());
        Execution::new(&p.program)
            .scheduler(Box::new(playback))
            .max_steps(20_000)
            .sink(Box::new(sink))
            .run();
        let replayed = {
            let mut g = handle.lock().expect("collector poisoned");
            std::mem::take(&mut g.trace)
        };
        prop_assert!(report.lock().expect("report poisoned").is_clean());
        prop_assert_eq!(&recorded.records, &replayed.records);
        let a = annotate_trace(&recorded);
        let b = annotate_trace(&replayed);
        prop_assert_eq!(a.first_failure, b.first_failure);
        prop_assert_eq!(a.notes.len(), b.notes.len());
        for (x, y) in a.notes.iter().zip(&b.notes) {
            prop_assert_eq!(x.seq, y.seq);
            prop_assert_eq!(&x.clock, &y.clock);
            prop_assert_eq!(&x.hb_from, &y.hb_from);
        }
    }
}

// ---------------------------------------------------------------------------
// Trace-fingerprint laws: the fingerprint is a function of the Mazurkiewicz
// trace (the HB partial order up to reordering of independent operations),
// nothing else.

use mtt_causal::fingerprint_trace;
use mtt_instrument::Op;

/// Is the adjacent pair (a, b) independent for fingerprint purposes? We
/// deliberately use the *narrowest* sufficient condition — two plain
/// variable accesses from different threads that do not conflict — so the
/// property asserts invariance only where the dependence relation
/// guarantees it.
fn independent_plain_accesses(a: &mtt_trace::TraceRecord, b: &mtt_trace::TraceRecord) -> bool {
    if a.thread == b.thread {
        return false;
    }
    let plain = |op: &Op| matches!(op, Op::VarRead { .. } | Op::VarWrite { .. });
    if !plain(&a.op) || !plain(&b.op) {
        return false;
    }
    match (a.op.var(), b.op.var()) {
        (Some(va), Some(vb)) if va == vb => {
            // Same variable: independent only when both are reads.
            matches!(a.op, Op::VarRead { .. }) && matches!(b.op, Op::VarRead { .. })
        }
        _ => true,
    }
}

/// Is the adjacent pair (a, b) a conflicting (racing) access pair — same
/// variable, different threads, at least one write?
fn conflicting_accesses(a: &mtt_trace::TraceRecord, b: &mtt_trace::TraceRecord) -> bool {
    if a.thread == b.thread {
        return false;
    }
    let plain = |op: &Op| matches!(op, Op::VarRead { .. } | Op::VarWrite { .. });
    if !plain(&a.op) || !plain(&b.op) {
        return false;
    }
    match (a.op.var(), b.op.var()) {
        (Some(va), Some(vb)) if va == vb => {
            matches!(a.op, Op::VarWrite { .. }) || matches!(b.op, Op::VarWrite { .. })
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn permuting_independent_adjacent_ops_preserves_the_fingerprint(
        idx in 0usize..5,
        seed in 0u64..300,
    ) {
        let trace = run_trace(&program(idx), seed);
        let base = fingerprint_trace(&trace);
        let mut checked = 0usize;
        for i in 0..trace.records.len().saturating_sub(1) {
            if independent_plain_accesses(&trace.records[i], &trace.records[i + 1]) {
                let mut permuted = trace.clone();
                permuted.records.swap(i, i + 1);
                prop_assert_eq!(fingerprint_trace(&permuted), base);
                checked += 1;
            }
        }
        // Not every (program, seed) exposes an adjacent independent pair,
        // but across the sample space most do; when one exists it must be
        // invariant (asserted above).
        let _ = checked;
    }

    #[test]
    fn swapping_racing_adjacent_ops_changes_the_fingerprint(
        seed in 0u64..300,
    ) {
        // lost_update is two unlocked writers on one counter: racing
        // adjacent accesses abound.
        let trace = run_trace(&program(0), seed);
        let base = fingerprint_trace(&trace);
        for i in 0..trace.records.len().saturating_sub(1) {
            if conflicting_accesses(&trace.records[i], &trace.records[i + 1]) {
                let mut swapped = trace.clone();
                swapped.records.swap(i, i + 1);
                prop_assert!(fingerprint_trace(&swapped) != base);
            }
        }
    }

    #[test]
    fn fingerprint_ignores_values_seq_and_time(
        idx in 0usize..5,
        seed in 0u64..300,
    ) {
        let trace = run_trace(&program(idx), seed);
        let base = fingerprint_trace(&trace);
        let mut scrambled = trace.clone();
        for (k, r) in scrambled.records.iter_mut().enumerate() {
            r.seq = (r.seq + 1000) * 3;
            r.time += 17;
            match &mut r.op {
                Op::VarRead { value, .. } | Op::VarWrite { value, .. } => {
                    *value += 1 + k as i64;
                }
                Op::VarRmw { old, new, .. } => {
                    *old -= 5;
                    *new += 9;
                }
                _ => {}
            }
        }
        prop_assert_eq!(fingerprint_trace(&scrambled), base);
    }
}

#[test]
fn fingerprint_is_deterministic_across_concurrent_hashers() {
    // The E12 jobs-differential at the library level: hashing the same
    // trace from many threads at once must agree bit for bit with the
    // serial answer — the fingerprint is a pure function with no hidden
    // global state (no address-based hashing, no randomized seeds).
    for (idx, seed) in [(0usize, 7u64), (1, 11), (3, 42)] {
        let trace = std::sync::Arc::new(run_trace(&program(idx), seed));
        let serial = fingerprint_trace(&trace);
        for threads in [1, 2, 4, 8] {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let t = std::sync::Arc::clone(&trace);
                    std::thread::spawn(move || fingerprint_trace(&t))
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("hasher thread"), serial);
            }
        }
    }
}
