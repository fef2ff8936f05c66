//! Flight-recorder cost axes: journal records appended per second (every
//! campaign cell writes a `start` and a `done` line through one mutex, so
//! append throughput bounds how fine-grained journaling can be), the same
//! appends to a file (one `write(2)` per record on top), status
//! folds per second (the `mtt status`/`watch` read path), and the
//! per-cell overhead a journal adds to a real campaign.

use mtt_bench::Smoke;
use mtt_core::experiment::campaign::Campaign;
use mtt_core::experiment::jobpool::JobPool;
use mtt_core::obs::{content_address, CellDone, JournalSink, MetricScalars, StatusSummary};
use std::sync::Arc;

/// A `done` record shaped like a real E1 cell.
fn sample_done(i: u64) -> CellDone {
    CellDone {
        cell: content_address(
            "web_sessions",
            "sticky:0.9+noise=sleep:0.3:15",
            i,
            "0.1.0",
            "model",
        ),
        program: "web_sessions".into(),
        tool: "sleep-noise".into(),
        tool_spec: "sticky:0.9+noise=sleep:0.3:15".into(),
        seed: i,
        run: i,
        outcome: "completed".into(),
        failed: i.is_multiple_of(3),
        manifested: if i.is_multiple_of(3) {
            vec!["lost-update".into()]
        } else {
            Vec::new()
        },
        events: 4200 + i,
        sched_points: 900 + i,
        injections: 17,
        timed_out: false,
        wall_us: 1200 + i,
        t_us: 0,
        worker: i % 8,
        fingerprint: Some(format!("{:032x}", 0xc0ffee_u128 + u128::from(i))),
        backend: None,
        result: None,
        metrics: Some(MetricScalars {
            events: 4200 + i,
            sched_points: 900 + i,
            ..MetricScalars::default()
        }),
    }
}

/// A journal sink on a file in the temp directory, deleted on drop.
struct TempJournal {
    sink: JournalSink,
    path: std::path::PathBuf,
}

impl TempJournal {
    fn new() -> Self {
        let path =
            std::env::temp_dir().join(format!("mtt-bench-events-{}.ndjson", std::process::id()));
        let sink = JournalSink::to_file(&path, false).expect("temp journal opens");
        TempJournal { sink, path }
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A synthetic journal with `n` done records, as NDJSON text.
fn sample_journal(n: u64) -> String {
    let sink_buf = Arc::new(std::sync::Mutex::new(Vec::<u8>::new()));
    struct Buf(Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for Buf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let sink = JournalSink::from_writer(Buf(Arc::clone(&sink_buf)));
    sink.campaign(mtt_core::obs::CampaignMeta {
        label: "bench".into(),
        total_cells: n,
        ..Default::default()
    });
    for i in 0..n {
        sink.done(sample_done(i));
    }
    sink.end("bench", n);
    let buf = sink_buf.lock().unwrap();
    String::from_utf8(buf.clone()).expect("journal is UTF-8")
}

/// Throughput for the flight recorder, written to `BENCH_events.json`.
/// `events_per_sec` is journal records appended per wall-clock second
/// through the sink's mutex + flush path; `status_folds_per_sec` is
/// `mtt status` folds of a 256-record journal per second.
fn main() {
    let mut smoke = Smoke::new("events");

    // Serialization + flush through the sink mutex, the per-cell write cost
    // (the bound on journaling granularity).
    let sink = JournalSink::from_writer(std::io::sink());
    let mut i = 0u64;
    let append_ns = smoke.time("journal_append", 1024, || {
        i += 1;
        sink.done(sample_done(i));
    });

    // The same appends to a real file: adds the one `write(2)` per record.
    let file = TempJournal::new();
    smoke.time("journal_append_file", 1024, || {
        i += 1;
        file.sink.done(sample_done(i));
    });
    assert!(file.sink.error().is_none(), "temp journal write failed");
    drop(file);

    // The `mtt status`/`watch` read path: parse NDJSON, fold
    // permutation-invariantly.
    let text = sample_journal(256);
    let fold_ns = smoke.time("status_fold_256", 8, || {
        let parsed = mtt_core::obs::parse_journal(&text).expect("valid journal");
        StatusSummary::from_journal(&parsed)
    });

    smoke.figure("events_per_sec", 1_000_000_000 / append_ns.max(1));
    smoke.figure("status_folds_per_sec", 1_000_000_000 / fold_ns.max(1));

    // A real (tiny) campaign with and without a journal attached.
    let programs = || vec![mtt_core::suite::by_name("lost_update").expect("suite has lost_update")];
    let pool = JobPool::serial();
    smoke.time("campaign_bare", 16, || {
        let campaign = Campaign::standard(programs(), 2);
        campaign.run_full(&pool)
    });
    smoke.time("campaign_journaled", 16, || {
        let mut campaign = Campaign::standard(programs(), 2);
        campaign.journal = Some(Arc::new(JournalSink::from_writer(std::io::sink())));
        campaign.run_full(&pool)
    });
    smoke.write();
}
