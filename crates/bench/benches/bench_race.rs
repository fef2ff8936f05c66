//! E2's overhead axis: race-detector throughput in events/second —
//! "on-line race detection techniques compete in the performance overhead
//! they produce".

use mtt_bench::Smoke;
use mtt_core::instrument::{Event, EventSink, Loc, LockId, Op, ThreadId, VarId};
use mtt_core::prelude::*;
use std::sync::Arc;

/// Synthesize a realistic event stream: `n` events over `threads` threads,
/// `vars` variables, with a lock acquire/release pattern around half the
/// accesses.
fn synthetic_stream(n: usize, threads: u32, vars: u32) -> Vec<Event> {
    let mut out = Vec::with_capacity(n);
    let empty: Arc<[LockId]> = Arc::from(Vec::new());
    let with_lock: Arc<[LockId]> = Arc::from(vec![LockId(0)]);
    for i in 0..n {
        let t = ThreadId((i as u32) % threads);
        let v = VarId((i as u32 * 7) % vars);
        let (op, locks) = match i % 6 {
            0 => (Op::LockAcquire { lock: LockId(0) }, with_lock.clone()),
            1 => (
                Op::VarWrite {
                    var: v,
                    value: i as i64,
                },
                with_lock.clone(),
            ),
            2 => (Op::LockRelease { lock: LockId(0) }, empty.clone()),
            3 => (
                Op::VarRead {
                    var: v,
                    value: i as i64,
                },
                empty.clone(),
            ),
            4 => (
                Op::VarWrite {
                    var: v,
                    value: i as i64,
                },
                empty.clone(),
            ),
            _ => (Op::Yield, empty.clone()),
        };
        out.push(Event {
            seq: i as u64,
            time: i as u64,
            thread: t,
            loc: Loc::new("bench", (i % 97) as u32 + 1),
            op,
            locks_held: locks,
        });
    }
    out
}

/// One thread's stream in long epochs, for the FastTrack same-epoch fast
/// path: the thread takes a lock at the start of every 64 events and
/// releases it at the end (a release starts a new epoch), and in between
/// writes and reads 4 variables in turn. After the first write and the
/// first read of a variable in an epoch, every access to it takes the
/// fast path.
fn same_epoch_stream(n: usize) -> Vec<Event> {
    let held: Arc<[LockId]> = Arc::from(vec![LockId(0)]);
    (0..n)
        .map(|i| {
            let var = VarId((i % 4) as u32);
            let value = i as i64;
            let op = match i % 64 {
                0 => Op::LockAcquire { lock: LockId(0) },
                63 => Op::LockRelease { lock: LockId(0) },
                j if j / 4 % 2 == 0 => Op::VarWrite { var, value },
                _ => Op::VarRead { var, value },
            };
            Event {
                seq: i as u64,
                time: i as u64,
                thread: ThreadId(0),
                loc: Loc::new("bench", (i % 97) as u32 + 1),
                op,
                locks_held: held.clone(),
            }
        })
        .collect()
}

/// Events in each timed stream.
const EVENTS: usize = 20_000;

/// Time `f`, one detector pass over an `EVENTS`-event stream, and print
/// the events it handles per second at the median.
fn time_stream<R>(smoke: &mut Smoke, name: &str, f: impl FnMut() -> R) {
    let ns = smoke.time(name, 16, f);
    println!(
        "{name}: {:.0} events/s",
        EVENTS as f64 * 1e9 / ns.max(1) as f64
    );
}

fn main() {
    let mut smoke = Smoke::new("race");
    let stream = synthetic_stream(EVENTS, 8, 32);
    time_stream(&mut smoke, "eraser_20k_events", || {
        let mut d = EraserLockset::new();
        for ev in &stream {
            d.on_event(ev);
        }
        d.finish();
        d.warning_count()
    });
    time_stream(&mut smoke, "vector_clock_20k_events", || {
        let mut d = VectorClockDetector::new();
        for ev in &stream {
            d.on_event(ev);
        }
        d.finish();
        d.warning_count()
    });
    // The FastTrack fast path: one thread, long epochs. The bench fails if
    // the stream stops taking the fast path on at least half its accesses.
    let local = same_epoch_stream(EVENTS);
    let accesses = local.iter().filter(|ev| ev.op.var().is_some()).count() as u64;
    let mut d = VectorClockDetector::new();
    for ev in &local {
        d.on_event(ev);
    }
    assert!(
        2 * d.fast_path_hits >= accesses,
        "the fast-path stream took the fast path on {} of {accesses} accesses",
        d.fast_path_hits
    );
    println!(
        "vector_clock_fastpath_20k: {} of {accesses} accesses take the fast path",
        d.fast_path_hits
    );
    time_stream(&mut smoke, "vector_clock_fastpath_20k", || {
        let mut d = VectorClockDetector::new();
        for ev in &local {
            d.on_event(ev);
        }
        d.fast_path_hits
    });
}
