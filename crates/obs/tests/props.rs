//! Property tests for the flight recorder: a journal is written
//! concurrently by many workers, so the status fold must not depend on the
//! order records landed on disk — any interleaving of the same records
//! (including duplicated `done` cells from a resumed process) must fold to
//! the same summary. And every line the sink writes must parse back to the
//! record it was sent, and that record must print the line again.

use mtt_json::Json;
use mtt_obs::{
    check_journal_line, parse_journal, CampaignEnd, CampaignMeta, CellDone, CellStart, JobDone,
    JournalRecord, JournalSink, MetricScalars, StatusSummary,
};
use proptest::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Build a plausible journal for `cells` cells, `done` of them finished.
fn journal_records(cells: u64, done: u64, workers: u64, ended: bool) -> Vec<JournalRecord> {
    let mut recs = vec![JournalRecord::Campaign(CampaignMeta {
        label: "prop".into(),
        total_cells: cells,
        programs: 1,
        tools: 1,
        runs: cells,
        base_seed: 7,
        runtime: "test".into(),
        jobs: workers,
        telemetry: false,
    })];
    for i in 0..cells {
        recs.push(JournalRecord::Start(CellStart {
            cell: format!("{i:016x}"),
            program: "p".into(),
            tool: "t".into(),
            seed: 7 + i,
            run: i,
            t_us: i * 10,
        }));
    }
    for i in 0..done.min(cells) {
        recs.push(JournalRecord::Done(CellDone {
            cell: format!("{i:016x}"),
            program: "p".into(),
            tool: "t".into(),
            tool_spec: "t".into(),
            seed: 7 + i,
            run: i,
            outcome: "completed".into(),
            failed: i % 3 == 0,
            manifested: Vec::new(),
            events: 100 + i,
            sched_points: 10 + i,
            injections: 0,
            timed_out: i % 5 == 4,
            wall_us: 50 + i,
            t_us: 100 + i * 10,
            worker: i % workers.max(1),
            metrics: None,
            // Mix of shared classes and fingerprint-less (v1-style) cells
            // so the distinct-schedule union is exercised by both props.
            fingerprint: if i % 4 == 3 {
                None
            } else {
                Some(format!("{:032x}", i % 3))
            },
            // A sprinkling of native cells: the optional field must fold
            // exactly like its absence does.
            backend: (i % 6 == 5).then(|| "native".to_string()),
            result: None,
        }));
    }
    if ended {
        recs.push(JournalRecord::End(CampaignEnd {
            label: "prop".into(),
            completed: done.min(cells),
            t_us: cells * 20,
        }));
    }
    recs
}

/// Serialize records (in the given order) to NDJSON and fold a summary.
fn fold(records: &[JournalRecord]) -> StatusSummary {
    let text: String = records
        .iter()
        .map(|r| format!("{}\n", mtt_json::to_string(r)))
        .collect();
    let parsed = parse_journal(&text).expect("synthesized journal parses");
    StatusSummary::from_journal(&parsed)
}

/// Reorder `records` by the (stable-sorted) `keys` drawn by proptest —
/// the vendored proptest has no shuffle strategy, so a key vector stands
/// in for an arbitrary permutation.
fn permute(records: &[JournalRecord], keys: &[u64]) -> Vec<JournalRecord> {
    let mut tagged: Vec<(u64, usize)> = records
        .iter()
        .enumerate()
        .map(|(i, _)| (keys.get(i).copied().unwrap_or(0), i))
        .collect();
    tagged.sort();
    tagged.iter().map(|&(_, i)| records[i].clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn status_fold_is_permutation_invariant(
        cells in 1u64..24,
        done_frac in 0u64..=100,
        workers in 1u64..8,
        ended in any::<bool>(),
        keys in prop::collection::vec(any::<u64>(), 64),
    ) {
        let done = cells * done_frac / 100;
        let records = journal_records(cells, done, workers, ended && done == cells);
        let canonical = fold(&records);
        let shuffled = permute(&records, &keys);
        prop_assert_eq!(fold(&shuffled), canonical.clone());
        prop_assert_eq!(canonical.done, done);
        prop_assert_eq!(canonical.total, Some(cells));
    }

    #[test]
    fn duplicated_done_records_fold_like_singletons(
        cells in 1u64..16,
        keys in prop::collection::vec(any::<u64>(), 48),
    ) {
        // A resumed process re-lists nothing, but an operator may well
        // concatenate two journals; duplicate `done` cells must not double
        // count.
        let records = journal_records(cells, cells, 2, true);
        let mut doubled = records.clone();
        doubled.extend(
            records
                .iter()
                .filter(|r| matches!(r, JournalRecord::Done(_)))
                .cloned(),
        );
        let shuffled = permute(&doubled, &keys);
        prop_assert_eq!(fold(&shuffled), fold(&records));
    }
}

#[test]
fn summary_counts_failures_timeouts_and_in_flight() {
    let records = journal_records(10, 7, 2, false);
    let s = fold(&records);
    assert_eq!(s.total, Some(10));
    assert_eq!(s.done, 7);
    // i % 3 == 0 for i in 0..7 → {0, 3, 6}; i % 5 == 4 → {4}.
    assert_eq!(s.failed, 3);
    assert_eq!(s.timeouts, 1);
    assert_eq!(s.in_flight, 3);
    assert!(!s.complete);
    let rendered = s.render();
    assert!(rendered.contains("7/10"), "{rendered}");
}

/// Characters that take every branch of the string escaper.
const CHARS: [char; 16] = [
    'a',
    'Z',
    '7',
    ' ',
    '/',
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{8}',
    '\u{c}',
    '\u{1}',
    '\u{1f}',
    '\u{e9}',
    '\u{1f600}',
];

fn text(rng: &mut TestRng) -> String {
    let len = rng.next_u64() % 10;
    (0..len)
        .map(|_| CHARS[(rng.next_u64() % CHARS.len() as u64) as usize])
        .collect()
}

/// Zero, the largest `u64`, a small number or any number.
fn count(rng: &mut TestRng) -> u64 {
    match rng.next_u64() % 4 {
        0 => 0,
        1 => u64::MAX,
        2 => rng.next_u64() % 1000,
        _ => rng.next_u64(),
    }
}

fn coin(rng: &mut TestRng) -> bool {
    rng.next_u64().is_multiple_of(2)
}

fn scalars(rng: &mut TestRng) -> MetricScalars {
    MetricScalars {
        events: count(rng),
        sched_points: count(rng),
        context_switches: count(rng),
        forced_yields: count(rng),
        noise_injections: count(rng),
        spurious_wakeups: count(rng),
        lock_acquires: count(rng),
        lock_contentions: count(rng),
        waits: count(rng),
        notifies: count(rng),
        threads: count(rng),
        steps_to_first_bug: coin(rng).then(|| count(rng)),
    }
}

/// A `Json` value of any kind, as the parser gives it back: non-negative
/// integers are `UInt`, `Int` is negative, and floats are finite.
fn value(rng: &mut TestRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.next_u64() % kinds {
        0 => Json::Null,
        1 => Json::Bool(coin(rng)),
        2 => Json::UInt(count(rng)),
        3 => Json::Int(-1 - (rng.next_u64() >> 1) as i64),
        4 => Json::Float((rng.next_u64() % 20_000) as f64 / 8.0 - 1000.0),
        5 => Json::Str(text(rng)),
        6 => Json::Arr(
            (0..rng.next_u64() % 4)
                .map(|_| value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.next_u64() % 4)
                .map(|_| (text(rng), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A `done` record whose optional fields are each present or not.
fn done_record(rng: &mut TestRng) -> CellDone {
    CellDone {
        cell: text(rng),
        program: text(rng),
        tool: text(rng),
        tool_spec: text(rng),
        seed: count(rng),
        run: count(rng),
        outcome: text(rng),
        failed: coin(rng),
        manifested: (0..rng.next_u64() % 3).map(|_| text(rng)).collect(),
        events: count(rng),
        sched_points: count(rng),
        injections: count(rng),
        timed_out: coin(rng),
        wall_us: count(rng),
        t_us: count(rng),
        worker: count(rng),
        metrics: coin(rng).then(|| scalars(rng)),
        fingerprint: coin(rng).then(|| text(rng)),
        backend: coin(rng).then(|| text(rng)),
        // A `null` result reads back as absent, so the payload is an array.
        result: coin(rng).then(|| Json::Arr(vec![value(rng, 2)])),
    }
}

/// A journal record of any kind, the legacy `job` included.
fn record(rng: &mut TestRng) -> JournalRecord {
    match rng.next_u64() % 8 {
        0 => JournalRecord::Campaign(CampaignMeta {
            label: text(rng),
            total_cells: count(rng),
            programs: count(rng),
            tools: count(rng),
            runs: count(rng),
            base_seed: count(rng),
            runtime: text(rng),
            jobs: count(rng),
            telemetry: coin(rng),
        }),
        1 => JournalRecord::Start(CellStart {
            cell: text(rng),
            program: text(rng),
            tool: text(rng),
            seed: count(rng),
            run: count(rng),
            t_us: count(rng),
        }),
        2 => JournalRecord::End(CampaignEnd {
            label: text(rng),
            completed: count(rng),
            t_us: count(rng),
        }),
        3 => JournalRecord::Job(JobDone {
            index: count(rng),
            wall_us: count(rng),
            t_us: count(rng),
            worker: count(rng),
        }),
        _ => JournalRecord::Done(done_record(rng)),
    }
}

/// The record the sink wrote for `sent`: it stamps its own clock and
/// worker id, which `written` carries.
fn as_stamped(sent: &JournalRecord, written: &JournalRecord) -> JournalRecord {
    match (sent.clone(), written) {
        (JournalRecord::Start(s), JournalRecord::Start(w)) => {
            JournalRecord::Start(CellStart { t_us: w.t_us, ..s })
        }
        (JournalRecord::Done(d), JournalRecord::Done(w)) => JournalRecord::Done(CellDone {
            t_us: w.t_us,
            worker: w.worker,
            ..d
        }),
        (JournalRecord::End(e), JournalRecord::End(w)) => {
            JournalRecord::End(CampaignEnd { t_us: w.t_us, ..e })
        }
        (sent, _) => sent,
    }
}

/// A writer the test can read back while the sink owns it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_sink_line_parses_back_to_its_record(
        recs in prop::collection::vec(composed(record), 1..8),
    ) {
        let buf = SharedBuf::default();
        let sink = JournalSink::from_writer(buf.clone());
        let mut sent = Vec::new();
        for rec in recs {
            match &rec {
                JournalRecord::Campaign(m) => sink.campaign(m.clone()),
                JournalRecord::Start(s) => sink.start(s.clone()),
                JournalRecord::Done(d) => sink.done(d.clone()),
                JournalRecord::End(e) => sink.end(&e.label, e.completed),
                // Nothing writes `job` records any more.
                JournalRecord::Job(_) => continue,
            }
            sent.push(rec);
        }
        prop_assert!(sink.error().is_none());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        prop_assert!(text.ends_with('\n') || sent.is_empty());
        prop_assert_eq!(text.lines().count(), sent.len());
        for (line, sent) in text.lines().zip(&sent) {
            let written = check_journal_line(line);
            prop_assert!(written.is_ok(), "{line}: {written:?}");
            let written = written.unwrap();
            prop_assert_eq!(&written, &as_stamped(sent, &written));
            prop_assert_eq!(line, mtt_json::to_string(&written));
        }
    }
}
