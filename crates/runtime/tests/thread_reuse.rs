//! Model threads run on reused OS threads, under both engines.
//!
//! The idle list of OS threads is process-wide, so this is the only test in
//! its binary: a test running beside it would take and add threads.

use mtt_runtime::{Execution, OutcomeKind, Program, ProgramBuilder, RuntimeBackend};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

type Seen = Arc<Mutex<HashSet<thread::ThreadId>>>;

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
                seen.lock().unwrap().insert(thread::current().id());
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

/// The main thread joins a child that panics.
fn panicker() -> Program {
    let mut b = ProgramBuilder::new("panicker");
    b.entry(|ctx| {
        let child = ctx.spawn("boom", |ctx| {
            ctx.yield_now();
            panic!("child thread panics on purpose");
        });
        ctx.join(child);
    });
    b.build()
}

/// The main thread holds a lock and joins a child that waits for it.
fn deadlocker() -> Program {
    let mut b = ProgramBuilder::new("deadlocker");
    let l = b.lock("l");
    b.entry(move |ctx| {
        ctx.lock(l);
        let child = ctx.spawn("stuck", move |ctx| ctx.lock(l));
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

#[test]
fn later_runs_reuse_the_os_threads_of_earlier_ones() {
    for backend in [RuntimeBackend::Model, RuntimeBackend::Native] {
        let first: Seen = Arc::default();
        let last: Seen = Arc::default();
        let kind = run(&recorder(&first), backend);
        assert!(
            matches!(kind, OutcomeKind::Completed),
            "{backend}: {kind:?}"
        );
        let kind = run(&panicker(), backend);
        assert!(
            matches!(kind, OutcomeKind::ThreadPanic { .. }),
            "{backend}: {kind:?}"
        );
        let kind = run(&deadlocker(), backend);
        assert!(
            matches!(kind, OutcomeKind::Deadlock(_)),
            "{backend}: {kind:?}"
        );
        let kind = run(&recorder(&last), backend);
        assert!(
            matches!(kind, OutcomeKind::Completed),
            "{backend}: {kind:?}"
        );
        let (first, last) = (first.lock().unwrap(), last.lock().unwrap());
        assert_eq!(first.len(), 4, "{backend}: one OS thread per live thread");
        assert!(
            last.is_subset(&first),
            "{backend}: the last run used OS threads the first did not"
        );
    }
}
