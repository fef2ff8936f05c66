//! E2 (race-detector comparison on annotated traces) and E8 (the
//! on-line/off-line trade-off).
//!
//! §2.2: race detectors compete on detection ability and false alarms;
//! §4.1 promises that "race detection algorithms may be evaluated using the
//! traces without any work on the programs themselves". Here both detectors
//! consume the same annotated traces offline and are scored, through the
//! shared [`ClassScore`] kernel, against the suite's ground-truth
//! racy-variable lists. E8 measures what the offline route costs in storage
//! (JSON vs compact binary) and what the online route costs in run time.

use crate::campaign::STANDARD_MAX_STEPS;
use crate::jobpool::{cell_key, JobPool};
use crate::report::Table;
use crate::scoring::{ClassScore, Truth};
use crate::tracegen::{self, TraceGenOptions};
use mtt_instrument::{shared, EventSink, VarTable};
use mtt_race::{EraserLockset, RaceWarning, VectorClockDetector};
use mtt_runtime::{Execution, RandomScheduler};
use mtt_suite::SuiteProgram;
use mtt_trace::{binary, json, Trace};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// A race detector run offline over one trace, returning its warnings.
pub type Detect = fn(&Trace) -> Vec<RaceWarning>;

/// E2's detectors, by name.
pub const DETECTORS: [(&str, Detect); 2] = [
    ("eraser", |t| fed(t, EraserLockset::new()).warnings),
    ("vector-clock", |t| {
        fed(t, VectorClockDetector::new()).warnings
    }),
];

/// `sink` after it has read all of `trace`.
fn fed<S: EventSink>(trace: &Trace, mut sink: S) -> S {
    trace.feed(&mut sink);
    sink
}

/// Grade `warnings` against the variables documented as racy: one
/// `(warned, truth)` pair for each variable warned on or documented, so
/// duplicate warnings count once. `table` names the warnings' variables.
pub fn score_warnings(
    warnings: &[RaceWarning],
    racy_vars: &[&str],
    table: &VarTable,
) -> ClassScore {
    let warned: BTreeSet<&str> = warnings.iter().map(|w| table.name(w.var)).collect();
    let vars: BTreeSet<&str> = warned.iter().chain(racy_vars).copied().collect();
    let pairs = vars
        .into_iter()
        .map(|v| (warned.contains(v), Truth::of(racy_vars.contains(&v), true)));
    ClassScore::tally(pairs, false)
}

/// Per-(program, detector) scoring over a set of traces.
#[derive(Clone, Debug)]
pub struct DetectorCell {
    /// Program name.
    pub program: String,
    /// Detector name.
    pub detector: &'static str,
    /// The detector's score over the program's variables, its warnings
    /// unioned across traces.
    pub score: ClassScore,
    /// Events processed.
    pub events: u64,
}

/// The E2 report.
#[derive(Clone, Debug, Default)]
pub struct DetectorReport {
    /// One cell per (program, detector).
    pub cells: Vec<DetectorCell>,
}

/// Run E2: for each program generate `traces_per_program` annotated traces,
/// feed both detectors, score against the ground truth. Trace generation
/// (the dominant cost) runs as one cell space on a job pool, one cell per
/// (program, trace). Detector scoring itself stays serial per program, so
/// the report is identical for any worker count.
pub fn run_detector_eval_on(
    programs: &[SuiteProgram],
    traces_per_program: u64,
    pool: &JobPool,
) -> DetectorReport {
    let n = traces_per_program as usize;
    let base = TraceGenOptions::default();
    let opts = |i: usize| TraceGenOptions {
        seed: base.seed + (i % n) as u64,
        ..base.clone()
    };
    let spec = format!("sticky:{}", base.stickiness);
    let key = |i: usize| cell_key(programs[i / n].name, "trace", spec.clone(), opts(i).seed);
    let traces = pool.cells(programs.len() * n, key, |i| {
        tracegen::generate(&programs[i / n], &opts(i))
    });
    let mut report = DetectorReport::default();
    for (k, p) in programs.iter().enumerate() {
        let traces = &traces[k * n..(k + 1) * n];
        let table = p.program.var_table();
        let events = traces.iter().map(|t| t.len() as u64).sum();
        // Union the warnings across traces per detector (a tool in practice
        // accumulates over a test session).
        for (detector, detect) in DETECTORS {
            let warnings: Vec<RaceWarning> = traces.iter().flat_map(detect).collect();
            report.cells.push(DetectorCell {
                program: p.name.to_string(),
                detector,
                score: score_warnings(&warnings, &p.racy_vars, &table),
                events,
            });
        }
    }
    report
}

impl DetectorReport {
    /// Render Table E2: the score's cells, then the paper's false-alarm
    /// rate (`1 - precision`). Deterministic across job counts and
    /// machines.
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
            let mut row = vec![c.program.clone(), c.detector.to_string()];
            row.extend(c.score.cells(false));
            row.push(format!("{:.2}", 1.0 - c.score.precision));
            row.push(c.events.to_string());
            t.row(&row);
        }
        t
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
            .max_steps(STANDARD_MAX_STEPS)
            .run();
        let bare = t0.elapsed();
        // Online detection run.
        let (sink, _handle) = shared(VectorClockDetector::new());
        let t1 = Instant::now();
        let _ = Execution::new(&p.program)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .sink(Box::new(sink))
            .max_steps(STANDARD_MAX_STEPS)
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
            eraser_lu.score.tp, 1,
            "eraser must flag x: {:?}",
            eraser_lu.score
        );
        assert!(report.table().len() == 4);
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
