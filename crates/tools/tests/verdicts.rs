//! `EventSink::has_findings` is each detector's verdict: on real
//! executions of the benchmark's small programs it reports a finding
//! exactly when the detector's typed result is non-empty, read from the
//! detector itself or through the `Shared` and `FilteredSink` wrappers.

use mtt_deadlock::{LockOrderGraph, WaitsForMonitor};
use mtt_instrument::{shared, EventSink, FilteredSink, ResolvedFilter};
use mtt_race::{EraserLockset, VectorClockDetector};
use mtt_runtime::Execution;
use mtt_tools::ToolConfig;
use std::sync::Arc;

/// Run every quick-set program on seeds 0–5 with a fresh `make()` attached,
/// checking the verdict against `typed` after each run: the detector's own,
/// a `Shared` clone's, and a pass-all `FilteredSink`'s around it. Both
/// verdicts must occur, so a method stuck at either answer fails.
fn check<S: EventSink + 'static>(name: &str, make: fn() -> S, typed: fn(&S) -> bool) {
    let tool = ToolConfig::from_spec_str("sticky:0.9+noise=mixed:0.2:20").unwrap();
    let (mut found, mut clean) = (0, 0);
    for p in mtt_suite::quick_set() {
        for seed in 0..6 {
            let (half, handle) = shared(make());
            let clone = half.clone();
            let exec = tool.configure(Execution::new(&p.program), seed, 20_000);
            let _ = exec.sink(Box::new(half)).run();
            let through_shared = clone.has_findings();
            drop(clone);
            let Ok(detector) = Arc::try_unwrap(handle) else {
                panic!("the run kept a handle to {name}")
            };
            let filtered =
                FilteredSink::new(ResolvedFilter::pass_all(), detector.into_inner().unwrap());
            let expected = typed(filtered.inner());
            let verdicts = [
                filtered.inner().has_findings(),
                through_shared,
                filtered.has_findings(),
            ];
            assert_eq!(
                verdicts, [expected; 3],
                "{name} on {} at seed {seed}: own, shared, filtered",
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
