//! Shared helpers for the mtt benchmark harness: the standard workloads
//! and [`Smoke`], the one timing loop every bench target's results come
//! from and the one writer of the `BENCH_*.json` smoke files.

use mtt_core::experiment::campaign::Campaign;
use mtt_core::prelude::*;
use mtt_json::{json_struct, ToJson};
use std::hint::black_box;
use std::time::Instant;

/// The standard bench workload: `threads` workers, each doing `work`
/// lock-protected increments and `work` racy increments.
pub fn workload(threads: u32, work: u32) -> Program {
    let mut b = ProgramBuilder::new("bench_workload");
    let x = b.var("x", 0);
    let y = b.var("y", 0);
    let l = b.lock("l");
    b.entry(move |ctx| {
        let kids: Vec<ThreadId> = (0..threads)
            .map(|i| {
                ctx.spawn(format!("w{i}"), move |ctx| {
                    for _ in 0..work {
                        ctx.lock(l);
                        let v = ctx.read(x);
                        ctx.write(x, v + 1);
                        ctx.unlock(l);
                        let v = ctx.read(y);
                        ctx.write(y, v + 1);
                    }
                })
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    });
    b.build()
}

/// A slice of E1: two programs under the standard roster of ten tools,
/// `runs` runs per cell.
pub fn e1_slice(runs: u64) -> Campaign {
    Campaign::standard(
        vec![
            mtt_core::suite::small::lost_update(2, 2),
            mtt_core::suite::small::ab_ba(),
        ],
        runs,
    )
}

/// Loops per smoke figure: each figure is the median of this many loops,
/// so one slow loop on a busy machine cannot set it. With 13 loops the
/// median and both quartiles fall exactly on a loop.
const SMOKE_LOOPS: usize = 13;

/// Calls of a timed closure before its first loop.
const WARM_UP_CALLS: u32 = 4;

/// The timed results of one bench target, each printed as it is timed.
/// Five targets also write them to `BENCH_<name>.json` at the repository
/// root, which CI reads. Every file has one shape: `schema`
/// (`mtt-bench-<name>`), `version`, `loops`, the bench's headline figures
/// in the order they were added, and `results`, one entry per timed
/// closure with its median and quartile nanoseconds per call.
pub struct Smoke {
    name: &'static str,
    /// The headline figures, printed: a `,"key":value` member each.
    figures: String,
    results: Vec<SmokeResult>,
}

/// One timed closure's entry in a smoke file's `results`.
#[derive(Debug)]
struct SmokeResult {
    name: String,
    ns_per_iter: u64,
    ns_q1: u64,
    ns_q3: u64,
}

json_struct!(SmokeResult {
    name,
    ns_per_iter,
    ns_q1,
    ns_q3
});

impl Smoke {
    /// No results yet; [`Self::write`] names the file `BENCH_<name>.json`.
    pub fn new(name: &'static str) -> Self {
        Smoke {
            name,
            figures: String::new(),
            results: Vec::new(),
        }
    }

    /// Time `f`: a few warm-up calls, then 13 loops (`SMOKE_LOOPS`) of `iters`
    /// calls each. Records the loops' median nanoseconds per call under
    /// `result`, with their quartiles, prints them, and returns the median.
    pub fn time<R>(&mut self, result: &str, iters: u32, f: impl FnMut() -> R) -> u64 {
        self.time_quartiles(result, iters, f)[1]
    }

    /// [`Self::time`], returning the first quartile, the median and the
    /// third quartile of the loops' nanoseconds per call.
    pub fn time_quartiles<R>(
        &mut self,
        result: &str,
        iters: u32,
        mut f: impl FnMut() -> R,
    ) -> [u64; 3] {
        for _ in 0..WARM_UP_CALLS {
            black_box(f());
        }
        let mut per_call: Vec<u64> = (0..SMOKE_LOOPS)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                (start.elapsed().as_nanos() / u128::from(iters)) as u64
            })
            .collect();
        per_call.sort_unstable();
        let at = |q: usize| per_call[(SMOKE_LOOPS - 1) * q / 4];
        let (q1, median, q3) = (at(1), at(2), at(3));
        println!("smoke {result}: {median} ns/iter (quartiles {q1}..{q3}, {SMOKE_LOOPS} loops of {iters})");
        self.results.push(SmokeResult {
            name: result.to_string(),
            ns_per_iter: median,
            ns_q1: q1,
            ns_q3: q3,
        });
        [q1, median, q3]
    }

    /// Add the headline figure `key`, after those added before it.
    pub fn figure(&mut self, key: &str, value: impl ToJson) {
        self.figures.push(',');
        key.write_json(&mut self.figures);
        self.figures.push(':');
        value.write_json(&mut self.figures);
    }

    /// Write the file at the repository root; a failed write is a warning,
    /// not a failed bench.
    pub fn write(&self) {
        let path = format!(
            "{}/../../BENCH_{}.json",
            env!("CARGO_MANIFEST_DIR"),
            self.name
        );
        let mut text = mtt_json::to_string(self);
        text.push('\n');
        match std::fs::write(&path, text) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

/// The smoke file: `schema`, `version`, `loops`, the figures, `results`.
impl ToJson for Smoke {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"schema\":");
        format!("mtt-bench-{}", self.name).write_json(out);
        out.push_str(",\"version\":1,\"loops\":");
        SMOKE_LOOPS.write_json(out);
        out.push_str(&self.figures);
        out.push_str(",\"results\":");
        self.results.write_json(out);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtt_json::Json;

    #[test]
    fn smoke_file_has_the_shared_shape() {
        let mut smoke = Smoke::new("probe");
        let mut calls = 0u32;
        let ns = smoke.time("count", 3, || {
            calls += 1;
            // Each call costs more than the one before, so no two loops tie.
            (0..calls * 1000).fold(0, |acc, i| black_box(acc ^ i))
        });
        assert_eq!(calls, 4 + 13 * 3, "4 warm-up calls, then 13 loops of 3");
        smoke.figure("counts_per_sec", 1_000_000_000 / ns.max(1));

        let doc = Json::parse(&mtt_json::to_string(&smoke)).expect("a smoke file parses");
        let Json::Obj(fields) = &doc else {
            panic!("a smoke file is an object: {doc:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["schema", "version", "loops", "counts_per_sec", "results"]
        );
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("mtt-bench-probe")
        );
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("loops").and_then(Json::as_u64), Some(13));

        let results = doc.get("results").and_then(Json::as_arr).expect("results");
        assert_eq!(results.len(), 1);
        let Json::Obj(entry) = &results[0] else {
            panic!("a result is an object: {:?}", results[0]);
        };
        let keys: Vec<&str> = entry.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "ns_per_iter", "ns_q1", "ns_q3"]);
        let ns_at = |k| results[0].get(k).and_then(Json::as_u64).expect(k);
        assert_eq!(ns_at("ns_per_iter"), ns);
        assert!(ns_at("ns_q1") <= ns && ns <= ns_at("ns_q3"));
    }
}
