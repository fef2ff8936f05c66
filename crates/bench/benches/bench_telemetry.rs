//! Telemetry overhead: the cost of the metrics layer on one E1 slice.
//!
//! Two points matter. `off` is the plain campaign — telemetry disabled,
//! which must stay within noise of the pre-telemetry baseline (the enable
//! check is a single branch per run). `on` attaches the `TelemetrySink` to
//! every run and harvests per-run metrics, which is the honest price of a
//! profile pass.

use mtt_bench::{e1_slice, Smoke};
use mtt_core::experiment::campaign::Campaign;
use mtt_core::experiment::jobpool::JobPool;

fn main() {
    let mut smoke = Smoke::new("telemetry");
    let pool = JobPool::serial();
    let off = e1_slice(5);
    smoke.time("e1_100runs_telemetry_off", 8, || off.run_on(&pool));
    let on = Campaign {
        telemetry: true,
        ..e1_slice(5)
    };
    smoke.time("e1_100runs_telemetry_on", 8, || on.run_full(&pool));
}
