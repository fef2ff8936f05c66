//! Which OS threads model threads run on: the model engine runs them as
//! coroutines on the thread that called `Execution::run`, and the native
//! engine on OS threads reused across runs.
//!
//! The native engine's idle list of OS threads is process-wide, so no other
//! test in this binary may run native executions: they would take and add
//! threads. Model runs start no OS thread and take none from the list.

use mtt_runtime::{Execution, OutcomeKind, Program, ProgramBuilder, RuntimeBackend};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

type Seen = Arc<Mutex<HashSet<thread::ThreadId>>>;

fn record(seen: &Seen) {
    seen.lock().unwrap().insert(thread::current().id());
}

/// Four threads, each recording the OS thread it runs on. They meet at a
/// barrier, so all four are alive at once under either engine.
fn recorder(seen: &Seen) -> Program {
    let mut b = ProgramBuilder::new("recorder");
    let meet = b.barrier("meet", 4);
    let seen = Arc::clone(seen);
    b.entry(move |ctx| {
        let record = {
            let seen = Arc::clone(&seen);
            move |ctx: &mut mtt_runtime::ThreadCtx| {
                record(&seen);
                ctx.barrier_wait(meet);
            }
        };
        let kids: Vec<_> = (0..3)
            .map(|i| ctx.spawn(format!("w{i}"), record.clone()))
            .collect();
        record(ctx);
        for k in kids {
            ctx.join(k);
        }
    });
    b.build()
}

/// The main thread joins a child that panics; both record their OS thread.
fn panicker(seen: &Seen) -> Program {
    let mut b = ProgramBuilder::new("panicker");
    let seen = Arc::clone(seen);
    b.entry(move |ctx| {
        record(&seen);
        let seen = Arc::clone(&seen);
        let child = ctx.spawn("boom", move |ctx| {
            record(&seen);
            ctx.yield_now();
            panic!("child thread panics on purpose");
        });
        ctx.join(child);
    });
    b.build()
}

/// The main thread holds a lock and joins a child that waits for it; both
/// record their OS thread.
fn deadlocker(seen: &Seen) -> Program {
    let mut b = ProgramBuilder::new("deadlocker");
    let l = b.lock("l");
    let seen = Arc::clone(seen);
    b.entry(move |ctx| {
        record(&seen);
        ctx.lock(l);
        let seen = Arc::clone(&seen);
        let child = ctx.spawn("stuck", move |ctx| {
            record(&seen);
            ctx.lock(l)
        });
        ctx.join(child);
    });
    b.build()
}

fn run(p: &Program, backend: RuntimeBackend) -> OutcomeKind {
    Execution::new(p)
        .backend(backend)
        .wall_budget(Duration::from_secs(5))
        .run()
        .kind
}

/// Recorder, panicker, deadlocker, recorder: each run's outcome, with the
/// OS threads the first and the last recorder ran on, and those of all four.
fn four_runs(backend: RuntimeBackend) -> (Seen, Seen, Seen) {
    let (first, last, all): (Seen, Seen, Seen) = Default::default();
    let kind = run(&recorder(&first), backend);
    assert!(
        matches!(kind, OutcomeKind::Completed),
        "{backend}: {kind:?}"
    );
    let kind = run(&panicker(&all), backend);
    assert!(
        matches!(kind, OutcomeKind::ThreadPanic { .. }),
        "{backend}: {kind:?}"
    );
    let kind = run(&deadlocker(&all), backend);
    assert!(
        matches!(kind, OutcomeKind::Deadlock(_)),
        "{backend}: {kind:?}"
    );
    let kind = run(&recorder(&last), backend);
    assert!(
        matches!(kind, OutcomeKind::Completed),
        "{backend}: {kind:?}"
    );
    for seen in [&first, &last] {
        let ids = seen.lock().unwrap().clone();
        all.lock().unwrap().extend(ids);
    }
    (first, last, all)
}

#[test]
fn later_runs_reuse_the_os_threads_of_earlier_ones() {
    let backend = RuntimeBackend::Native;
    let (first, last, _) = four_runs(backend);
    let (first, last) = (first.lock().unwrap(), last.lock().unwrap());
    assert_eq!(first.len(), 4, "{backend}: one OS thread per live thread");
    assert!(
        last.is_subset(&first),
        "{backend}: the last run used OS threads the first did not"
    );
}

/// Where the model has a coroutine switch, every model thread runs on the
/// OS thread that called `Execution::run`, so a model run starts no OS
/// thread at all.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn model_runs_start_no_os_thread() {
    let (_, _, all) = four_runs(RuntimeBackend::Model);
    let all = all.lock().unwrap();
    let caller = HashSet::from([thread::current().id()]);
    assert_eq!(*all, caller, "a model thread ran on another OS thread");
}
