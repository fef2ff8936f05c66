//! E8's storage/throughput axis: trace encode/decode performance and size
//! for both codecs — "techniques compete in reducing and compressing the
//! information needed".

use mtt_bench::{workload, Smoke};
use mtt_core::instrument::shared;
use mtt_core::prelude::*;
use mtt_core::trace::{binary, json, Trace};

fn capture_trace() -> Trace {
    let p = workload(4, 40);
    let (sink, handle) = shared(TraceCollector::new());
    let _ = Execution::new(&p)
        .scheduler(Box::new(RandomScheduler::new(5)))
        .sink(Box::new(sink))
        .run();
    let mut guard = handle.lock().unwrap();
    std::mem::take(&mut guard.trace)
}

/// Time `f`, one pass over a trace of `records` records, and print the
/// records it handles per second at the median.
fn time_codec<R>(smoke: &mut Smoke, name: &str, iters: u32, records: usize, f: impl FnMut() -> R) {
    let ns = smoke.time(name, iters, f);
    println!(
        "{name}: {:.0} records/s",
        records as f64 * 1e9 / ns.max(1) as f64
    );
}

fn main() {
    let mut smoke = Smoke::new("trace");
    let trace = capture_trace();
    let records = trace.len();

    time_codec(&mut smoke, "json_encode", 8, records, || {
        json::to_string(&trace).len()
    });
    time_codec(&mut smoke, "binary_encode", 32, records, || {
        binary::encode(&trace).len()
    });

    let j = json::to_string(&trace);
    let bin = binary::encode(&trace);
    println!(
        "trace: {} records, json {} B, binary {} B ({:.1}x smaller)",
        records,
        j.len(),
        bin.len(),
        j.len() as f64 / bin.len() as f64
    );
    time_codec(&mut smoke, "json_decode", 2, records, || {
        json::from_str(&j).unwrap().len()
    });
    time_codec(&mut smoke, "binary_decode", 16, records, || {
        binary::decode(&bin).unwrap().len()
    });
    // Offline feeding throughput (trace -> detector).
    time_codec(&mut smoke, "feed_vector_clock", 16, records, || {
        let mut d = VectorClockDetector::new();
        trace.feed(&mut d);
        d.warning_count()
    });
}
