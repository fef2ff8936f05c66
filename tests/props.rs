//! Cross-crate property-based tests (proptest): invariants that must hold
//! for arbitrary inputs, not just the hand-picked cases.

use mtt::prelude::*;
use mtt::trace::{binary, json, Trace, TraceMeta, TraceRecord};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn arb_op() -> impl Strategy<Value = Op> {
    use mtt::instrument::{BarrierId, CondId, LockId, SemId, VarId};
    prop_oneof![
        (any::<u32>(), any::<i64>()).prop_map(|(v, x)| Op::VarRead {
            var: VarId(v % 64),
            value: x
        }),
        (any::<u32>(), any::<i64>()).prop_map(|(v, x)| Op::VarWrite {
            var: VarId(v % 64),
            value: x
        }),
        any::<u32>().prop_map(|l| Op::LockRequest {
            lock: LockId(l % 16)
        }),
        any::<u32>().prop_map(|l| Op::LockAcquire {
            lock: LockId(l % 16)
        }),
        any::<u32>().prop_map(|l| Op::LockRelease {
            lock: LockId(l % 16)
        }),
        any::<u32>().prop_map(|l| Op::LockTryFail {
            lock: LockId(l % 16)
        }),
        (any::<u32>(), any::<u32>()).prop_map(|(c, l)| Op::CondWait {
            cond: CondId(c % 8),
            lock: LockId(l % 16)
        }),
        (any::<u32>(), any::<u32>()).prop_map(|(c, l)| Op::CondWake {
            cond: CondId(c % 8),
            lock: LockId(l % 16)
        }),
        (any::<u32>(), any::<bool>()).prop_map(|(c, all)| Op::CondNotify {
            cond: CondId(c % 8),
            all
        }),
        any::<u32>().prop_map(|s| Op::SemAcquire { sem: SemId(s % 8) }),
        any::<u32>().prop_map(|s| Op::SemRelease { sem: SemId(s % 8) }),
        any::<u32>().prop_map(|b| Op::BarrierArrive {
            barrier: BarrierId(b % 4)
        }),
        any::<u32>().prop_map(|t| Op::Spawn {
            child: ThreadId(t % 32)
        }),
        any::<u32>().prop_map(|t| Op::Join {
            target: ThreadId(t % 32)
        }),
        Just(Op::ThreadStart),
        Just(Op::ThreadExit),
        Just(Op::Yield),
        any::<u32>().prop_map(|t| Op::Sleep { ticks: t % 1000 }),
        any::<u32>().prop_map(|l| Op::Point { label: l % 100 }),
        any::<u32>().prop_map(|l| Op::AssertFail { label: l % 100 }),
    ]
}

prop_compose! {
    fn arb_record()(
        seq in 0u64..1_000_000,
        time in 0u64..1_000_000,
        thread in 0u32..32,
        line in 1u32..500,
        op in arb_op(),
        locks in prop::collection::vec(0u32..16, 0..4),
        tagged in any::<bool>(),
    ) -> TraceRecord {
        TraceRecord {
            seq,
            time,
            thread,
            file: "prop.rs".to_string(),
            line,
            op,
            locks_held: locks,
            bug_tags: if tagged { vec!["prop-bug".into()] } else { vec![] },
        }
    }
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(arb_record(), 0..64).prop_map(|mut records| {
        // Codecs delta-encode seq/time: normalize to non-decreasing order
        // as real traces are.
        records.sort_by_key(|r| (r.seq, r.time));
        let mut t = Trace {
            meta: TraceMeta {
                program: "prop".into(),
                var_names: (0..64).map(|i| format!("v{i}")).collect(),
                ..Default::default()
            },
            records,
        };
        // Real traces have strictly increasing seq; enforce.
        for (i, r) in t.records.iter_mut().enumerate() {
            r.seq = i as u64;
        }
        t
    })
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both trace codecs are lossless for arbitrary well-formed traces.
    #[test]
    fn trace_codecs_roundtrip(trace in arb_trace()) {
        let j = json::to_string(&trace);
        let back = json::from_str(&j).expect("json parses");
        prop_assert_eq!(&back, &trace);

        let b = binary::encode(&trace);
        let back2 = binary::decode(&b).expect("binary decodes");
        prop_assert_eq!(&back2, &trace);
    }

    /// The binary codec never loses to JSON on size for real-shaped traces.
    #[test]
    fn binary_is_never_larger_for_nonempty(trace in arb_trace()) {
        prop_assume!(trace.len() >= 4);
        let j = json::to_string(&trace).len();
        let b = binary::encode(&trace).len();
        prop_assert!(b < j, "binary {} >= json {}", b, j);
    }

    /// Feeding a trace through a sink delivers exactly its records.
    #[test]
    fn feed_delivers_every_record(trace in arb_trace()) {
        let mut seen = 0u64;
        {
            let mut sink = |_: &Event| seen += 1;
            trace.feed(&mut sink);
        }
        prop_assert_eq!(seen as usize, trace.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Executions are deterministic: any (seed, structure) pair produces
    /// the identical outcome fingerprint twice.
    #[test]
    fn execution_determinism(
        seed in 0u64..5_000,
        threads in 2u32..5,
        increments in 1u32..4,
        stickiness in 0u32..2,
    ) {
        let build = || {
            let mut b = ProgramBuilder::new("prop_racy");
            let x = b.var("x", 0);
            let l = b.lock("l");
            b.entry(move |ctx| {
                let kids: Vec<ThreadId> = (0..threads)
                    .map(|i| ctx.spawn(format!("t{i}"), move |ctx| {
                        for k in 0..increments {
                            if (i + k) % 2 == 0 {
                                ctx.lock(l);
                                let v = ctx.read(x);
                                ctx.write(x, v + 1);
                                ctx.unlock(l);
                            } else {
                                let v = ctx.read(x);
                                ctx.write(x, v + 1);
                            }
                        }
                    }))
                    .collect();
                for k in kids { ctx.join(k); }
            });
            b.build()
        };
        let p = build();
        let s = f64::from(stickiness) * 0.9;
        let run = || Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::sticky(seed, s)))
            .run();
        let a = run();
        let b2 = run();
        prop_assert_eq!(a.fingerprint(), b2.fingerprint());
        // And the final counter is within the possible envelope.
        let x = a.var("x").unwrap();
        prop_assert!(x >= 1 && x <= i64::from(threads * increments));
    }

    /// Record → playback reproduces arbitrary seeded executions.
    #[test]
    fn replay_roundtrip_property(seed in 0u64..2_000) {
        let mut b = ProgramBuilder::new("prop_replay");
        let x = b.var("x", 0);
        b.entry(move |ctx| {
            let a = ctx.spawn("a", move |ctx| {
                let v = ctx.read(x);
                ctx.write(x, v + 1);
            });
            let c = ctx.spawn("b", move |ctx| {
                let v = ctx.read(x);
                ctx.write(x, v * 2 + 1);
            });
            ctx.join(a);
            ctx.join(c);
        });
        let p = b.build();
        let (sched, noise, handle) =
            record(p.name(), seed, RandomScheduler::new(seed), mtt::runtime::NoNoise);
        let original = Execution::new(&p)
            .scheduler(Box::new(sched))
            .noise(Box::new(noise))
            .run();
        let log = handle.take_log();
        let playback = PlaybackScheduler::new(log, DivergencePolicy::Strict);
        let replayed = Execution::new(&p).scheduler(Box::new(playback)).run();
        prop_assert_eq!(original.fingerprint(), replayed.fingerprint());
    }
}

// ---------------------------------------------------------------------
// One synchronization order under the race detector and the annotator
// ---------------------------------------------------------------------

use mtt::causal::{annotate_trace, concurrent};
use mtt::experiment::tracegen::{generate, TraceGenOptions};
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On a real execution, `VectorClockDetector` warns on exactly the
    /// variables with two conflicting plain accesses — a `VarRead` or
    /// `VarWrite` pair from different threads, at least one a write — that
    /// `HbAnnotator`'s notes leave concurrent. The detector ticks only at
    /// releases and the annotator at every event, so this holds only while
    /// both read one synchronization table.
    #[test]
    fn race_detector_warns_where_annotated_conflicts_are_concurrent(
        pick in any::<usize>(),
        seed in 0u64..1_000,
        stickiness in 0u32..=10,
    ) {
        let mut programs = mtt::suite::quick_set();
        programs.extend(mtt::suite::all());
        let program = &programs[pick % programs.len()];
        let stickiness = f64::from(stickiness) / 10.0;
        let opts = TraceGenOptions { seed, stickiness, max_steps: 20_000 };
        let trace = generate(program, &opts);

        let mut detector = VectorClockDetector::new();
        trace.feed(&mut detector);
        let warned: BTreeSet<u32> = detector.warnings.iter().map(|w| w.var.0).collect();

        let notes = annotate_trace(&trace).notes;
        let accesses: Vec<_> = trace
            .records
            .iter()
            .zip(&notes)
            .filter_map(|(r, n)| match r.op {
                Op::VarRead { var, .. } => Some((var.0, false, n)),
                Op::VarWrite { var, .. } => Some((var.0, true, n)),
                _ => None,
            })
            .collect();
        let mut racy = BTreeSet::new();
        for (i, &(var, writes, a)) in accesses.iter().enumerate() {
            if racy.contains(&var) {
                continue;
            }
            let conflict = accesses[i + 1..].iter().any(|&(v, w, b)| {
                v == var && (writes || w) && a.thread != b.thread && concurrent(a, b)
            });
            if conflict {
                racy.insert(var);
            }
        }
        prop_assert!(
            warned == racy,
            "{} seed {seed} sticky {stickiness}: detector warns on {warned:?}, annotator's concurrent conflicts on {racy:?}",
            program.name
        );
    }
}

// ---------------------------------------------------------------------
// Statistics invariants (the parallel campaign layer's merge algebra)
// ---------------------------------------------------------------------

use mtt::experiment::stats::{entropy, total_variation, Distribution, FindStats};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sharded FindStats merged in ANY permutation equal the serial
    /// aggregate — the algebraic core of the `--jobs` determinism claim.
    #[test]
    fn findstats_shard_merge_is_order_insensitive(
        outcomes in prop::collection::vec(any::<bool>(), 0..200),
        cuts in prop::collection::vec(any::<u16>(), 1..8),
        perm_seed in any::<u64>(),
    ) {
        // Serial aggregate.
        let mut serial = FindStats::default();
        for &o in &outcomes {
            serial.record(o);
        }
        // Cut the run sequence into shards at arbitrary points.
        let mut bounds: Vec<usize> = cuts
            .iter()
            .map(|&c| c as usize % (outcomes.len() + 1))
            .collect();
        bounds.push(0);
        bounds.push(outcomes.len());
        bounds.sort_unstable();
        let mut shards: Vec<FindStats> = bounds
            .windows(2)
            .map(|w| {
                let mut s = FindStats::default();
                for &o in &outcomes[w[0]..w[1]] {
                    s.record(o);
                }
                s
            })
            .collect();
        // Merge the shards in a seed-derived permutation (the order workers
        // happen to finish in is arbitrary).
        let mut order: Vec<usize> = (0..shards.len()).collect();
        let mut state = perm_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut merged = FindStats::default();
        for i in order {
            merged.merge(&std::mem::take(&mut shards[i]));
        }
        prop_assert_eq!(merged, serial);
    }

    /// Wilson bounds are a sane interval: 0 <= lo <= p-hat <= hi <= 1.
    #[test]
    fn wilson_bounds_bracket_the_point_estimate(
        runs in 0u64..10_000,
        hit_ppm in 0u64..=1_000_000,
    ) {
        let hits = (runs as f64 * (hit_ppm as f64 / 1e6)) as u64;
        let s = FindStats { hits, runs };
        let (lo, hi) = s.wilson95();
        let p = s.rate();
        prop_assert!((0.0..=1.0).contains(&lo), "lo={lo}");
        prop_assert!((0.0..=1.0).contains(&hi), "hi={hi}");
        prop_assert!(lo <= p + 1e-12, "lo={lo} > p={p}");
        prop_assert!(p <= hi + 1e-12, "p={p} > hi={hi}");
    }

    /// Distribution invariants: entropy is within [0, log2(support)], the
    /// distribution itself is invariant under record-order shuffles, and
    /// Distribution::merge agrees with recording everything serially.
    #[test]
    fn distribution_entropy_and_merge_invariants(
        raw in prop::collection::vec(0u8..6, 1..120),
        cut in any::<u16>(),
        perm_seed in any::<u64>(),
    ) {
        let sigs: Vec<String> = raw.iter().map(|s| format!("sig{s}")).collect();
        let mut serial = Distribution::new();
        for s in &sigs {
            serial.record(s.clone());
        }
        // Entropy bounds.
        let h = serial.entropy();
        let max_h = (serial.support() as f64).log2();
        prop_assert!(h >= -1e-12, "entropy {h} < 0");
        prop_assert!(h <= max_h + 1e-9, "entropy {h} > log2(support) {max_h}");
        prop_assert!((entropy(serial.counts.values().copied(), serial.total) - h).abs() < 1e-12);
        // Order-shuffle invariance.
        let mut shuffled_sigs = sigs.clone();
        let mut state = perm_seed | 1;
        for i in (1..shuffled_sigs.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled_sigs.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut shuffled = Distribution::new();
        for s in shuffled_sigs {
            shuffled.record(s);
        }
        prop_assert_eq!(&shuffled, &serial);
        // Two-shard merge equals the serial aggregate.
        let k = cut as usize % (sigs.len() + 1);
        let mut left = Distribution::new();
        let mut right = Distribution::new();
        for s in &sigs[..k] {
            left.record(s.clone());
        }
        for s in &sigs[k..] {
            right.record(s.clone());
        }
        left.merge(&right);
        prop_assert_eq!(&left, &serial);
    }

    /// RunMetrics::merge is likewise order-insensitive, including the
    /// min-semantics of `steps_to_first_bug` (Some beats None; smaller
    /// wins between Somes).
    #[test]
    fn run_metrics_merge_is_permutation_invariant(
        raw_runs in prop::collection::vec(
            (0u64..500, 0u64..50, any::<bool>(), 1u64..10_000),
            0..40,
        ),
        perm_seed in any::<u64>(),
    ) {
        use mtt::obs::MetricScalars;
        use mtt::telemetry::RunMetrics;

        let runs: Vec<(u64, u64, Option<u64>)> = raw_runs
            .into_iter()
            .map(|(e, c, has_bug, steps)| (e, c, has_bug.then_some(steps)))
            .collect();

        let mk = |&(events, contentions, first_bug): &(u64, u64, Option<u64>)| RunMetrics {
            scalars: MetricScalars {
                events,
                lock_contentions: contentions,
                steps_to_first_bug: first_bug,
                ..Default::default()
            },
            ..Default::default()
        };

        let mut serial = RunMetrics::default();
        for r in &runs {
            serial.merge(&mk(r));
        }

        let mut order: Vec<usize> = (0..runs.len()).collect();
        let mut state = perm_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut shuffled = RunMetrics::default();
        for i in order {
            shuffled.merge(&mk(&runs[i]));
        }
        prop_assert_eq!(shuffled, serial.clone());
        prop_assert_eq!(
            serial.scalars.steps_to_first_bug,
            runs.iter().filter_map(|r| r.2).min()
        );
    }

    /// Total variation distance is a metric-shaped quantity: within [0,1],
    /// symmetric, and zero between a distribution and itself.
    #[test]
    fn total_variation_is_metric_shaped(
        raw_a in prop::collection::vec(0u8..6, 0..80),
        raw_b in prop::collection::vec(0u8..6, 0..80),
    ) {
        let mut a = Distribution::new();
        for s in &raw_a {
            a.record(format!("sig{s}"));
        }
        let mut b = Distribution::new();
        for s in &raw_b {
            b.record(format!("sig{s}"));
        }
        let d = total_variation(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d), "tv={d}");
        prop_assert!((total_variation(&b, &a) - d).abs() < 1e-12, "asymmetric");
        prop_assert!(total_variation(&a, &a).abs() < 1e-12, "tv(a,a) != 0");
    }
}
