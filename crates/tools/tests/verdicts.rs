//! `EventSink::has_findings` is each detector's verdict: on real
//! executions of the benchmark's small programs it reports a finding
//! exactly when the detector's typed result is non-empty.

use mtt_deadlock::{LockOrderGraph, WaitsForMonitor};
use mtt_instrument::{shared, EventSink};
use mtt_race::{EraserLockset, VectorClockDetector};
use mtt_runtime::Execution;
use mtt_tools::ToolConfig;

/// Run every quick-set program on seeds 0–5 with a fresh `make()` attached,
/// checking the verdict against `typed` after each run. Both verdicts must
/// occur, so a method stuck at either answer fails.
fn check<S: EventSink + 'static>(name: &str, make: fn() -> S, typed: fn(&S) -> bool) {
    let tool = ToolConfig::from_spec_str("sticky:0.9+noise=mixed:0.2:20").unwrap();
    let (mut found, mut clean) = (0, 0);
    for p in mtt_suite::quick_set() {
        for seed in 0..6 {
            let (half, handle) = shared(make());
            let exec = tool.configure(Execution::new(&p.program), seed, 20_000);
            let _ = exec.sink(Box::new(half)).run();
            let detector = handle.lock().unwrap();
            let expected = typed(&detector);
            assert_eq!(
                detector.has_findings(),
                expected,
                "{name} on {} at seed {seed}",
                p.name
            );
            if expected {
                found += 1;
            } else {
                clean += 1;
            }
        }
    }
    assert!(
        found > 0 && clean > 0,
        "{name}: {found} runs with findings, {clean} without"
    );
}

#[test]
fn lockset_verdict_is_its_warnings() {
    check("lockset", EraserLockset::new, |d| !d.warnings.is_empty());
}

#[test]
fn happens_before_verdict_is_its_warnings() {
    check("hb", VectorClockDetector::new, |d| !d.warnings.is_empty());
}

#[test]
fn lock_order_verdict_is_its_potentials() {
    check("lockorder", LockOrderGraph::new, |d| {
        !d.potentials().is_empty()
    });
}

#[test]
fn waits_for_verdict_is_its_occurrences() {
    check("waitsfor", WaitsForMonitor::new, |d| {
        !d.occurrences.is_empty()
    });
}
