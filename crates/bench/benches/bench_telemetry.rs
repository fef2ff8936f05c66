//! Telemetry overhead: the cost of the metrics layer on one E1 slice.
//!
//! Two points matter. `off` is the plain campaign — telemetry disabled,
//! which must stay within noise of the pre-telemetry baseline (the enable
//! check is a single branch per run). `on` attaches the `TelemetrySink` to
//! every run and harvests per-run metrics, which is the honest price of a
//! profile pass.

use criterion::Criterion;
use mtt_bench::{e1_slice, quick_criterion};
use mtt_core::experiment::campaign::Campaign;
use mtt_core::experiment::jobpool::JobPool;

fn bench_campaign_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_overhead");
    let pool = JobPool::serial();
    let off = e1_slice(5);
    g.bench_function("e1_100runs_telemetry_off", |b| b.iter(|| off.run_on(&pool)));
    let on = Campaign {
        telemetry: true,
        ..e1_slice(5)
    };
    g.bench_function("e1_100runs_telemetry_on", |b| b.iter(|| on.run_full(&pool)));
    g.finish();
}

fn main() {
    let mut c = quick_criterion();
    bench_campaign_overhead(&mut c);
    c.final_summary();
}
