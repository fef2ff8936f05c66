//! Faults inside model threads, which the model engine runs as coroutines
//! on the caller's OS thread: a panic's backtrace, a stack overflow, and
//! ops made by a `Drop` while its thread unwinds (under both engines, which
//! must agree on the outcome wherever the model can decide it).
//!
//! A case that may kill its process runs in a child: this test binary
//! started again with [`CASE`] naming the case, which the ignored test
//! [`child`] runs. The parent gives each child a timeout, so a hang fails
//! the test instead of stalling it.

use mtt_runtime::{
    Execution, LockId, OutcomeKind, Program, ProgramBuilder, RandomScheduler, RuntimeBackend,
    ThreadCtx, ThreadId, VarId,
};
use std::hint::black_box;
use std::io::Read;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Names the case a child process runs; unset in the parent.
const CASE: &str = "MTT_COROUTINE_FAULT_CASE";

/// Longest a child may run.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Main takes a lock and then panics with `boom` while a guard owns it;
/// the guard's `Drop` unlocks it during the unwind. A child waits for the
/// lock, so the unlock readies another thread.
fn drop_unlocks() -> Program {
    struct Unlock<'a> {
        ctx: &'a mut ThreadCtx,
        lock: LockId,
    }
    impl Drop for Unlock<'_> {
        fn drop(&mut self) {
            self.ctx.unlock(self.lock);
        }
    }
    let mut b = ProgramBuilder::new("drop_unlocks");
    let x = b.var("x", 0);
    let l = b.lock("l");
    b.entry(move |ctx| {
        ctx.spawn("waiter", move |ctx| ctx.with_lock(l, |ctx| ctx.write(x, 2)));
        ctx.lock(l);
        let guard = Unlock { ctx, lock: l };
        guard.ctx.write(x, 1);
        panic!("boom");
    });
    b.build()
}

/// Main panics with `boom` while a guard whose `Drop` joins a child that
/// is still running: the join would block during the unwind.
fn drop_joins() -> Program {
    struct Join<'a> {
        ctx: &'a mut ThreadCtx,
        child: ThreadId,
    }
    impl Drop for Join<'_> {
        fn drop(&mut self) {
            self.ctx.join(self.child);
        }
    }
    let mut b = ProgramBuilder::new("drop_joins");
    let x = b.var("x", 0);
    b.entry(move |ctx| {
        let child = ctx.spawn("worker", move |ctx| {
            for i in 0..4 {
                ctx.write(x, i);
            }
        });
        let guard = Join { ctx, child };
        guard.ctx.write(x, 9);
        panic!("boom");
    });
    b.build()
}

/// A child takes a lock and holds it until main sets `release`; main waits
/// until the child holds it, then panics with `boom`. The guard's `Drop`
/// sets `release` and then takes the lock with `with_lock`. Under the model
/// the child cannot run during the unwind, so the lock is still held: the
/// `lock` gives up and the `unlock` after it is skipped. Natively the
/// `Drop` waits for the child to let go.
fn drop_takes_a_held_lock() -> Program {
    struct Relock<'a> {
        ctx: &'a mut ThreadCtx,
        lock: LockId,
        release: VarId,
        x: VarId,
    }
    impl Drop for Relock<'_> {
        fn drop(&mut self) {
            self.ctx.write(self.release, 1);
            let x = self.x;
            self.ctx.with_lock(self.lock, |ctx| ctx.write(x, 1));
        }
    }
    let mut b = ProgramBuilder::new("drop_takes_a_held_lock");
    let held = b.var("held", 0);
    let release = b.var("release", 0);
    let x = b.var("x", 0);
    let l = b.lock("l");
    b.entry(move |ctx| {
        ctx.spawn("holder", move |ctx| {
            ctx.lock(l);
            ctx.write(held, 1);
            while ctx.read(release) == 0 {
                ctx.yield_now();
            }
            ctx.unlock(l);
        });
        while ctx.read(held) == 0 {
            ctx.yield_now();
        }
        let _guard = Relock {
            ctx,
            lock: l,
            release,
            x,
        };
        panic!("boom");
    });
    b.build()
}

/// Main panics with `boom` while a guard whose `Drop` sets `go` and then
/// spins until a child, which waits for `go`, sets `done`. Under the model
/// the child cannot run during the unwind, so the `Drop` spins alone.
fn drop_spins() -> Program {
    struct Spin<'a> {
        ctx: &'a mut ThreadCtx,
        go: VarId,
        done: VarId,
    }
    impl Drop for Spin<'_> {
        fn drop(&mut self) {
            self.ctx.write(self.go, 1);
            while self.ctx.read(self.done) == 0 {
                self.ctx.yield_now();
            }
        }
    }
    let mut b = ProgramBuilder::new("drop_spins");
    let go = b.var("go", 0);
    let done = b.var("done", 0);
    b.entry(move |ctx| {
        ctx.spawn("setter", move |ctx| {
            while ctx.read(go) == 0 {
                ctx.yield_now();
            }
            ctx.write(done, 1);
        });
        let _guard = Spin { ctx, go, done };
        panic!("boom");
    });
    b.build()
}

/// Main holds a lock through a guard that unlocks it on `Drop`, and joins
/// a child that waits for the lock: the run deadlocks, and main unwinds
/// with the abort, unlocking as it goes.
fn drop_unlocks_after_abort() -> Program {
    struct Unlock<'a> {
        ctx: &'a mut ThreadCtx,
        lock: LockId,
    }
    impl Drop for Unlock<'_> {
        fn drop(&mut self) {
            self.ctx.unlock(self.lock);
        }
    }
    let mut b = ProgramBuilder::new("drop_unlocks_after_abort");
    let l = b.lock("l");
    b.entry(move |ctx| {
        ctx.lock(l);
        let guard = Unlock { ctx, lock: l };
        let child = guard.ctx.spawn("stuck", move |ctx| ctx.lock(l));
        guard.ctx.join(child);
    });
    b.build()
}

/// A child thread that recurses without bound.
fn overflows() -> Program {
    fn recurse(depth: u64) -> u64 {
        let frame = black_box([depth as u8; 1024]);
        let next: fn(u64) -> u64 = black_box(recurse);
        next(depth + 1).wrapping_add(u64::from(black_box(frame)[0]))
    }
    let mut b = ProgramBuilder::new("overflows");
    b.entry(|ctx| {
        let child = ctx.spawn("deep", |ctx| {
            ctx.yield_now();
            black_box(recurse(0));
        });
        ctx.join(child);
    });
    b.build()
}

/// A child thread that panics with `boom`.
fn panics() -> Program {
    let mut b = ProgramBuilder::new("panics");
    b.entry(|ctx| {
        let child = ctx.spawn("boom", |ctx| {
            ctx.yield_now();
            panic!("boom");
        });
        ctx.join(child);
    });
    b.build()
}

/// The step budget of [`drop_spins`]'s model run, kept small so that the
/// process gives up on the spinning `Drop` quickly.
const SPIN_STEPS: u64 = 1000;

fn outcome(p: &Program, seed: u64, backend: RuntimeBackend) -> OutcomeKind {
    Execution::new(p)
        .scheduler(Box::new(RandomScheduler::new(seed)))
        .backend(backend)
        .wall_budget(Duration::from_secs(5))
        .run()
        .kind
}

/// Is `kind` thread `thread`'s panic with the message `boom`?
fn is_boom(kind: &OutcomeKind, thread: u32) -> bool {
    match kind {
        OutcomeKind::ThreadPanic { thread: t, message } => {
            *t == ThreadId(thread) && message == "boom"
        }
        _ => false,
    }
}

/// The entry point of a child process: runs the case named by [`CASE`],
/// under the native engine if the name ends in `-native`. Ignored, so that
/// only a child, started with `--ignored`, runs it; a run of all ignored
/// tests, which names no case, finds nothing to do.
#[test]
#[ignore = "runs in a child process started by the other tests"]
fn child() {
    let Ok(named) = std::env::var(CASE) else {
        return;
    };
    let (case, backend) = match named.strip_suffix("-native") {
        Some(case) => (case, RuntimeBackend::Native),
        None => (named.as_str(), RuntimeBackend::Model),
    };
    let every_seed = |p: &Program, expect: &dyn Fn(&OutcomeKind) -> bool| {
        for seed in 0..50 {
            let kind = outcome(p, seed, backend);
            assert!(expect(&kind), "{backend}, seed {seed}: {kind:?}");
        }
    };
    match case {
        "panics" => {
            let kind = outcome(&panics(), 1, backend);
            assert!(is_boom(&kind, 1), "{kind:?}");
        }
        "overflows" => {
            let kind = outcome(&overflows(), 1, backend);
            panic!("the run survived unbounded recursion: {kind:?}");
        }
        "drop-joins" => every_seed(&drop_joins(), &|k| is_boom(k, 0)),
        "drop-takes-held-lock" => every_seed(&drop_takes_a_held_lock(), &|k| is_boom(k, 0)),
        "drop-unlocks-after-abort" => every_seed(&drop_unlocks_after_abort(), &|k| {
            matches!(k, OutcomeKind::Deadlock(_))
        }),
        "drop-spins" if backend == RuntimeBackend::Native => {
            let kind = outcome(&drop_spins(), 0, backend);
            assert!(is_boom(&kind, 0), "{kind:?}");
        }
        "drop-spins" => {
            let kind = Execution::new(&drop_spins())
                .max_steps(SPIN_STEPS)
                .run()
                .kind;
            panic!("the model let a `Drop` spin to the end: {kind:?}");
        }
        other => panic!("unknown case `{other}`"),
    }
    eprintln!("{}", passed(&named));
}

/// What a child prints once its case passed.
fn passed(case: &str) -> String {
    format!("case `{case}` passed")
}

/// Run `case` in a child process with `RUST_BACKTRACE` set to `backtrace`
/// (or unset), and core dumps off. Returns its exit status and stderr.
fn run_child(case: &str, backtrace: Option<&str>) -> (ExitStatus, String) {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new("sh");
    cmd.arg("-c")
        .arg(r#"ulimit -c 0; exec "$0" "$@""#)
        .arg(exe)
        .args(["--exact", "child", "--ignored", "--nocapture"])
        .arg("--test-threads=1")
        .env(CASE, case)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    match backtrace {
        Some(v) => cmd.env("RUST_BACKTRACE", v),
        None => cmd.env_remove("RUST_BACKTRACE"),
    };
    let mut child = cmd.spawn().expect("start the child");
    let mut pipe = child.stderr.take().expect("piped stderr");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = pipe.read_to_string(&mut s);
        s
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the child") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("case `{case}` still ran after {CHILD_TIMEOUT:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    (status, reader.join().expect("stderr reader"))
}

#[test]
fn a_panicking_thread_prints_its_backtrace() {
    for backtrace in ["1", "full"] {
        let (status, stderr) = run_child("panics", Some(backtrace));
        assert!(
            status.success(),
            "RUST_BACKTRACE={backtrace}: {status}\n{stderr}"
        );
        assert!(stderr.contains(&passed("panics")), "{stderr}");
        assert!(stderr.contains("boom"), "{stderr}");
        assert!(stderr.contains("stack backtrace:"), "{stderr}");
        // The walk reaches the bottom of the coroutine's stack and stops.
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert!(stderr.contains("trampoline"), "{stderr}");
    }
}

#[cfg(unix)]
#[test]
fn unbounded_recursion_dies_by_a_signal() {
    use std::os::unix::process::ExitStatusExt;
    let (status, stderr) = run_child("overflows", None);
    assert!(!status.success(), "{stderr}");
    // Inside a coroutine the guard page raises SIGSEGV; on an OS thread,
    // std reports the overflow and aborts.
    let expected = if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        11
    } else {
        6
    };
    assert_eq!(status.signal(), Some(expected), "{status}\n{stderr}");
}

/// Run `case` in a child under each engine; both must pass.
fn passes_under_both_engines(case: &str) {
    for case in [case.to_string(), format!("{case}-native")] {
        let (status, stderr) = run_child(&case, None);
        assert!(status.success(), "{case}: {status}\n{stderr}");
        assert!(stderr.contains(&passed(&case)), "{stderr}");
    }
}

#[test]
fn a_drop_that_would_block_while_unwinding_ends_the_run() {
    passes_under_both_engines("drop-joins");
}

#[test]
fn a_drop_may_take_a_lock_another_thread_holds_while_unwinding() {
    passes_under_both_engines("drop-takes-held-lock");
}

#[test]
fn a_drop_may_unlock_while_an_abort_unwinds() {
    passes_under_both_engines("drop-unlocks-after-abort");
}

/// Under the model, a `Drop` that spins while its thread unwinds spins
/// alone; its ops count against the step budget, and a whole budget past
/// it the process aborts with a message instead of hanging. Natively the
/// other thread runs and the `Drop` ends.
#[cfg(unix)]
#[test]
fn a_drop_that_spins_while_unwinding_stops_the_process() {
    use std::os::unix::process::ExitStatusExt;
    let (status, stderr) = run_child("drop-spins", None);
    assert_eq!(status.signal(), Some(6), "{status}\n{stderr}");
    assert!(
        stderr.contains("a `Drop` must not wait for other threads"),
        "{stderr}"
    );
    let (status, stderr) = run_child("drop-spins-native", None);
    assert!(status.success(), "{status}\n{stderr}");
    assert!(stderr.contains(&passed("drop-spins-native")), "{stderr}");
}

#[test]
fn a_drop_may_unlock_while_its_thread_unwinds() {
    for seed in 0..50 {
        let kind = outcome(&drop_unlocks(), seed, RuntimeBackend::Model);
        assert!(is_boom(&kind, 0), "seed {seed}: {kind:?}");
    }
}
