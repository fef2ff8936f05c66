//! E2 (race-detector comparison on annotated traces) and E8 (the
//! on-line/off-line trade-off).
//!
//! §2.2: race detectors compete on detection ability and false alarms;
//! §4.1 promises that "race detection algorithms may be evaluated using the
//! traces without any work on the programs themselves". Here both detectors
//! consume the same annotated traces offline and are scored against the
//! suite's ground-truth racy-variable lists. E8 measures what the offline
//! route costs in storage (JSON vs compact binary) and what the online
//! route costs in run time.

use crate::jobpool::JobPool;
use crate::report::Table;
use crate::tracegen::{self, TraceGenOptions};
use mtt_instrument::shared;
use mtt_race::{score, DetectorScore, EraserLockset, VectorClockDetector};
use mtt_runtime::{Execution, RandomScheduler};
use mtt_suite::SuiteProgram;
use mtt_trace::{binary, json};
use std::time::{Duration, Instant};

/// Per-(program, detector) scoring over a set of traces.
#[derive(Clone, Debug)]
pub struct DetectorCell {
    /// Program name.
    pub program: String,
    /// Detector name.
    pub detector: &'static str,
    /// Aggregated score across traces.
    pub score: DetectorScore,
    /// Events processed.
    pub events: u64,
    /// Offline analysis time.
    pub analysis_time: Duration,
}

/// The E2 report.
#[derive(Clone, Debug, Default)]
pub struct DetectorReport {
    /// One cell per (program, detector).
    pub cells: Vec<DetectorCell>,
}

/// Run E2: for each program generate `traces_per_program` annotated traces,
/// feed both detectors, score against the ground truth. Trace generation
/// (the dominant cost) is sharded across a job pool. Detector scoring
/// itself stays serial per program, so the report is identical for any
/// worker count.
pub fn run_detector_eval_on(
    programs: &[SuiteProgram],
    traces_per_program: u64,
    pool: &JobPool,
) -> DetectorReport {
    let mut report = DetectorReport::default();
    for p in programs {
        let traces =
            tracegen::generate_many_on(p, &TraceGenOptions::default(), traces_per_program, pool);
        let table = p.program.var_table();

        // Union the warnings across traces per detector (a tool in practice
        // accumulates over a test session).
        let mut eraser_all = Vec::new();
        let mut vc_all = Vec::new();
        let mut events = 0u64;
        let t0 = Instant::now();
        for t in &traces {
            events += t.len() as u64;
            let mut eraser = EraserLockset::new();
            t.feed(&mut eraser);
            eraser_all.extend(eraser.warnings);
        }
        let eraser_time = t0.elapsed();
        let t1 = Instant::now();
        for t in &traces {
            let mut vc = VectorClockDetector::new();
            t.feed(&mut vc);
            vc_all.extend(vc.warnings);
        }
        let vc_time = t1.elapsed();

        let truth: Vec<&str> = p.racy_vars.clone();
        report.cells.push(DetectorCell {
            program: p.name.to_string(),
            detector: "eraser",
            score: score(&eraser_all, truth.iter().copied(), &table),
            events,
            analysis_time: eraser_time,
        });
        report.cells.push(DetectorCell {
            program: p.name.to_string(),
            detector: "vector-clock",
            score: score(&vc_all, truth.iter().copied(), &table),
            events,
            analysis_time: vc_time,
        });
    }
    report
}

impl DetectorReport {
    /// Render Table E2. Deterministic across job counts and machines; the
    /// wall-clock axis lives in [`DetectorReport::timing_table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E2: race detectors on annotated traces",
            &[
                "program",
                "detector",
                "tp",
                "fp",
                "missed",
                "precision",
                "recall",
                "false-alarm-rate",
                "events",
            ],
        );
        for c in &self.cells {
            t.row(&[
                c.program.clone(),
                c.detector.to_string(),
                c.score.true_positives.to_string(),
                c.score.false_positives.to_string(),
                c.score.missed.to_string(),
                format!("{:.2}", c.score.precision()),
                format!("{:.2}", c.score.recall()),
                format!("{:.2}", c.score.false_alarm_rate()),
                c.events.to_string(),
            ]);
        }
        t
    }

    /// Render the offline-analysis timing companion (not deterministic).
    pub fn timing_table(&self) -> Table {
        let mut t = Table::new(
            "E2 timing (not deterministic): offline analysis cost",
            &["program", "detector", "us"],
        );
        for c in &self.cells {
            t.row(&[
                c.program.clone(),
                c.detector.to_string(),
                c.analysis_time.as_micros().to_string(),
            ]);
        }
        t
    }

    /// Aggregate recall per detector across programs.
    pub fn mean_recall(&self, detector: &str) -> f64 {
        let cells: Vec<&DetectorCell> = self
            .cells
            .iter()
            .filter(|c| c.detector == detector)
            .collect();
        if cells.is_empty() {
            return 0.0;
        }
        cells.iter().map(|c| c.score.recall()).sum::<f64>() / cells.len() as f64
    }

    /// Total false positives per detector.
    pub fn total_false_positives(&self, detector: &str) -> usize {
        self.cells
            .iter()
            .filter(|c| c.detector == detector)
            .map(|c| c.score.false_positives)
            .sum()
    }
}

/// One row of the E8 trade-off report.
#[derive(Clone, Debug)]
pub struct TradeoffRow {
    /// Program name.
    pub program: String,
    /// Bare run (no instrumentation consumers) wall time.
    pub bare: Duration,
    /// Run with the online vector-clock detector attached.
    pub online: Duration,
    /// Trace record count.
    pub records: usize,
    /// JSON-lines encoding size.
    pub json_bytes: usize,
    /// Compact binary encoding size.
    pub binary_bytes: usize,
}

/// Run E8: online slowdown vs offline storage cost.
pub fn run_tradeoff_eval(programs: &[SuiteProgram], seed: u64) -> Vec<TradeoffRow> {
    let mut rows = Vec::new();
    for p in programs {
        // Bare run.
        let t0 = Instant::now();
        let _ = Execution::new(&p.program)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .max_steps(60_000)
            .run();
        let bare = t0.elapsed();
        // Online detection run.
        let (sink, _handle) = shared(VectorClockDetector::new());
        let t1 = Instant::now();
        let _ = Execution::new(&p.program)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .sink(Box::new(sink))
            .max_steps(60_000)
            .run();
        let online = t1.elapsed();
        // Offline storage cost.
        let trace = tracegen::generate(
            p,
            &TraceGenOptions {
                seed,
                ..Default::default()
            },
        );
        rows.push(TradeoffRow {
            program: p.name.to_string(),
            bare,
            online,
            records: trace.len(),
            json_bytes: json::to_string(&trace).len(),
            binary_bytes: binary::encode(&trace).len(),
        });
    }
    rows
}

/// Render Table E8.
pub fn tradeoff_table(rows: &[TradeoffRow]) -> Table {
    let mut t = Table::new(
        "E8: online overhead vs offline storage",
        &[
            "program",
            "bare us",
            "online us",
            "slowdown",
            "records",
            "json B",
            "binary B",
            "ratio",
        ],
    );
    for r in rows {
        let slowdown = if r.bare.as_nanos() == 0 {
            0.0
        } else {
            r.online.as_nanos() as f64 / r.bare.as_nanos() as f64
        };
        let ratio = if r.binary_bytes == 0 {
            0.0
        } else {
            r.json_bytes as f64 / r.binary_bytes as f64
        };
        t.row(&[
            r.program.clone(),
            r.bare.as_micros().to_string(),
            r.online.as_micros().to_string(),
            format!("{slowdown:.2}x"),
            r.records.to_string(),
            r.json_bytes.to_string(),
            r.binary_bytes.to_string(),
            format!("{ratio:.1}x"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detectors_scored_on_racy_and_clean_programs() {
        let programs = vec![
            mtt_suite::small::lost_update(2, 2),
            mtt_suite::small::missed_signal(), // no racy vars: clean ground truth
        ];
        let report = run_detector_eval_on(&programs, 5, &JobPool::serial());
        assert_eq!(report.cells.len(), 4);
        // Lockset must find the lost-update race in at least one trace.
        let eraser_lu = report
            .cells
            .iter()
            .find(|c| c.program == "lost_update" && c.detector == "eraser")
            .unwrap();
        assert_eq!(
            eraser_lu.score.true_positives, 1,
            "eraser must flag x: {:?}",
            eraser_lu.score
        );
        assert!(report.table().len() == 4);
        assert!(report.mean_recall("eraser") > 0.0);
    }

    #[test]
    fn tradeoff_rows_have_sane_shapes() {
        let programs = vec![mtt_suite::small::lost_update(2, 3)];
        let rows = run_tradeoff_eval(&programs, 3);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.records > 0);
        assert!(
            r.binary_bytes < r.json_bytes,
            "binary {} should beat json {}",
            r.binary_bytes,
            r.json_bytes
        );
        assert!(!tradeoff_table(&rows).is_empty());
    }
}
