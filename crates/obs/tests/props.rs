//! Property tests for the flight recorder: a journal is written
//! concurrently by many workers, so the status fold must not depend on the
//! order records landed on disk — any interleaving of the same records
//! (including duplicated `done` cells from a resumed process) must fold to
//! the same summary.

use mtt_json::ToJson;
use mtt_obs::{
    parse_journal, CampaignEnd, CampaignMeta, CellDone, CellStart, JournalRecord, StatusSummary,
};
use proptest::prelude::*;

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
        .map(|r| format!("{}\n", r.to_json().dump()))
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
