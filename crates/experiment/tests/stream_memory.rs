//! A telemetry campaign streams its run log: the heap it holds at its peak
//! does not grow with its run count, and `run_full` keeps exactly one line
//! per run.
//!
//! This is a binary of its own because the counting allocator is global to
//! the process, and it has one test so that nothing else allocates while a
//! campaign is measured. The allocator counts the live heap bytes of every
//! thread, the pool's workers included.

use mtt_experiment::campaign::{Campaign, ToolConfig};
use mtt_experiment::jobpool::JobPool;
use mtt_telemetry::RunLogWriter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their peak.
struct Counting;

/// Live heap bytes; a statistic, so every access is `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only two atomics, which neither allocate nor block.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many bytes more a campaign of 200 runs per cell may hold at its
/// peak than one of 20. Two workers' runs in flight at the peak vary it by
/// up to about 16 kB, and a few run-log lines may wait for an earlier run;
/// keeping every line would hold about 200 kB more.
const SLACK: usize = 32 * 1024;

/// A telemetry campaign over two programs and two tools.
fn campaign(runs: u64) -> Campaign {
    Campaign {
        programs: vec![
            mtt_suite::small::lost_update(2, 2),
            mtt_suite::small::ab_ba(),
        ],
        tools: vec![ToolConfig::baseline(), ToolConfig::with_spurious(0.05)],
        runs,
        base_seed: 7,
        max_steps: 20_000,
        telemetry: true,
        label: "stream-memory".into(),
        ..Campaign::standard(vec![], 0)
    }
}

/// The most heap `f` holds at once beyond what was live when it started.
fn peak_during(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    f();
    PEAK.load(Relaxed) - base
}

/// Stream `runs` runs per cell into a discarding writer three times;
/// return the smallest peak and the number of lines each pass wrote.
fn streamed(runs: u64) -> (usize, u64) {
    let campaign = campaign(runs);
    let pool = JobPool::new(2);
    let mut lines = 0;
    let peak = (0..3)
        .map(|_| {
            peak_during(|| {
                let mut w = RunLogWriter::new(std::io::sink());
                campaign.run_streaming(&pool, |line| w.write_record(&line).unwrap());
                lines = w.lines();
            })
        })
        .min()
        .expect("three passes");
    (peak, lines)
}

#[test]
fn a_streamed_run_log_holds_no_line_per_run() {
    // Warm up the process-wide tables (interned file names, name hashes),
    // which are built once and never freed.
    streamed(1);
    let (small, small_lines) = streamed(20);
    let (large, large_lines) = streamed(200);
    assert_eq!((small_lines, large_lines), (80, 800));
    assert!(
        large <= small + SLACK,
        "peak live heap: {large} B at 200 runs per cell, {small} B at 20"
    );

    let total = 4 * 200;
    let run = campaign(200).run_full(&JobPool::new(2));
    assert_eq!(run.run_log.len(), total);
    assert_eq!(run.run_log.capacity(), total, "reserved to the run count");
}
