//! Integration tests for the native-threads backend.
//!
//! Native runs are genuinely nondeterministic, so these tests assert
//! *properties with tolerances* (outcome kinds, invariant final values,
//! bounded wall time), never byte-identical run output — that discipline
//! belongs to the model backend alone.

use mtt_instrument::{shared, CountingSink, Op, VecSink};
use mtt_runtime::{
    Execution, NoiseDecision, OutcomeKind, Program, ProgramBuilder, RuntimeBackend, ThreadId,
    WaitEdge,
};
use std::time::{Duration, Instant};

fn native(program: &Program) -> Execution<'_> {
    Execution::new(program)
        .backend(RuntimeBackend::Native)
        .wall_budget(Duration::from_secs(5))
}

/// Two threads increment a mutex-protected counter: must always total
/// exactly 2 × N under real threads, and never report a torn read.
#[test]
fn native_mutex_protects_critical_section() {
    let mut b = ProgramBuilder::new("native_guarded");
    let x = b.var_nonvolatile("x", 0);
    let l = b.lock("l");
    b.entry(move |ctx| {
        let mut kids = Vec::new();
        for i in 0..2 {
            kids.push(ctx.spawn(format!("inc{i}"), move |ctx| {
                for _ in 0..50 {
                    ctx.lock(l);
                    let v = ctx.read(x);
                    ctx.write(x, v + 1);
                    ctx.unlock(l);
                }
            }));
        }
        for k in kids {
            ctx.join(k);
        }
    });
    let p = b.build();
    let o = native(&p).run();
    assert!(o.ok(), "guarded counter must complete cleanly: {o:?}");
    assert_eq!(o.var("x"), Some(100));
    assert!(
        o.assert_failures.is_empty(),
        "synchronized accesses must never be flagged torn"
    );
}

/// The unguarded counter may or may not lose updates natively, but the
/// result must stay within the only physically possible range and the
/// outcome must be a completion.
#[test]
fn native_racy_counter_stays_in_range() {
    let mut b = ProgramBuilder::new("native_racy");
    let x = b.var_nonvolatile("x", 0);
    b.entry(move |ctx| {
        let mut kids = Vec::new();
        for i in 0..2 {
            kids.push(ctx.spawn(format!("inc{i}"), move |ctx| {
                for _ in 0..100 {
                    let v = ctx.read(x);
                    ctx.write(x, v + 1);
                }
            }));
        }
        for k in kids {
            ctx.join(k);
        }
    });
    let p = b.build();
    let o = native(&p).run();
    assert_eq!(o.kind.tag(), "completed");
    let x = o.var("x").unwrap();
    assert!((1..=200).contains(&x), "impossible final value {x}");
    // Any recorded failures must be torn-read reports, never asserts.
    for f in &o.assert_failures {
        assert!(f.label.starts_with("race:torn-read:"), "{}", f.label);
    }
}

/// The same event stream flows to sinks under both backends: same ops from
/// the same sites, global sequence strictly increasing.
#[test]
fn native_event_stream_reaches_sinks() {
    let mut b = ProgramBuilder::new("native_events");
    let x = b.var("x", 0);
    let l = b.lock("l");
    b.entry(move |ctx| {
        ctx.lock(l);
        ctx.write(x, 7);
        ctx.unlock(l);
        let v = ctx.read(x);
        ctx.check(v == 7, "x-is-7");
        ctx.point("done");
    });
    let p = b.build();
    let (events, events_handle) = shared(VecSink::new());
    let (counter, counter_handle) = shared(CountingSink::new());
    let o = native(&p)
        .sink(Box::new(events))
        .sink(Box::new(counter))
        .run();
    assert!(o.ok());
    let evs = events_handle.lock().unwrap().events.clone();
    assert!(evs.len() >= 7, "start/lock/write/unlock/read/point/exit");
    for w in evs.windows(2) {
        assert!(w[0].seq < w[1].seq, "seq must be strictly increasing");
    }
    let held_during_write = evs
        .iter()
        .find(|e| matches!(e.op, mtt_instrument::Op::VarWrite { .. }))
        .unwrap();
    assert_eq!(held_during_write.locks_held.len(), 1);
    assert_eq!(counter_handle.lock().unwrap().total, evs.len() as u64);
}

/// AB-BA lock ordering under real threads: the watchdog must end the run —
/// either Deadlock (the interleaving wedged and was diagnosed) or
/// Completed (one thread won both locks first). Nothing may hang past the
/// budget.
#[test]
fn native_ab_ba_never_hangs() {
    let mut b = ProgramBuilder::new("native_ab_ba");
    let a = b.lock("a");
    let l2 = b.lock("b");
    b.entry(move |ctx| {
        let t1 = ctx.spawn("ab", move |ctx| {
            ctx.lock(a);
            ctx.sleep(5);
            ctx.lock(l2);
            ctx.unlock(l2);
            ctx.unlock(a);
        });
        let t2 = ctx.spawn("ba", move |ctx| {
            ctx.lock(l2);
            ctx.sleep(5);
            ctx.lock(a);
            ctx.unlock(a);
            ctx.unlock(l2);
        });
        ctx.join(t1);
        ctx.join(t2);
    });
    let p = b.build();
    let started = Instant::now();
    let o = Execution::new(&p)
        .backend(RuntimeBackend::Native)
        .wall_budget(Duration::from_secs(3))
        .run();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "run must end within budget + grace"
    );
    assert!(
        matches!(o.kind.tag(), "deadlock" | "completed"),
        "unexpected outcome {:?}",
        o.kind
    );
    if o.deadlocked() {
        // The diagnostic must carry the same waits-for structure the model
        // engine reports.
        if let mtt_runtime::OutcomeKind::Deadlock(info) = &o.kind {
            assert!(info.is_cyclic(), "AB-BA wedge is a cyclic deadlock");
        }
    }
}

/// Run on the calling thread, making no op, for `time` of real time.
fn spin(time: Duration) {
    let start = Instant::now();
    while start.elapsed() < time {
        std::hint::spin_loop();
    }
}

/// Watchdog regression: a native thread that really runs far past the wall
/// budget (it spins in uninstrumented code for 1 s under a 200 ms budget)
/// is killed: the run reports StepLimit (the hang analogue) and returns
/// promptly. (A thread that only sleeps is no hang: the clock skips its
/// sleep, see `native_idle_sleep_skips_ahead`.)
#[test]
fn native_watchdog_kills_hung_run() {
    let mut b = ProgramBuilder::new("native_hang");
    b.entry(move |_| spin(Duration::from_secs(1)));
    let p = b.build();
    let started = Instant::now();
    let o = Execution::new(&p)
        .backend(RuntimeBackend::Native)
        .wall_budget(Duration::from_millis(200))
        .run();
    assert!(o.hung(), "budget exhaustion must map to StepLimit: {o:?}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "watchdog must end the run, took {:?}",
        started.elapsed()
    );
}

/// A run whose one thread only sleeps completes, as it does on the model:
/// no other thread can run, so the watchdog moves the clock to the sleep's
/// deadline instead of waiting out 1000 s.
#[test]
fn native_idle_sleep_skips_ahead() {
    let mut b = ProgramBuilder::new("native_idle_sleep");
    b.entry(move |ctx| ctx.sleep(10_000_000)); // 1000 s at 100 µs per tick
    let p = b.build();
    let started = Instant::now();
    let o = native(&p).run();
    assert!(o.ok(), "{o:?}");
    assert!(
        o.stats.virtual_time >= 1_000_000_000,
        "the clock read {} µs at the end",
        o.stats.virtual_time
    );
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "took {:?}",
        started.elapsed()
    );
}

/// The clock never jumps while a thread can run: a child that spins in
/// uninstrumented code for 30 ms is `Running` with no op the whole time,
/// so main's 1 s sleep runs in real time until the child exits. The
/// child's exit therefore comes before main's first event after the sleep,
/// and that event is at or past main's deadline.
#[test]
fn native_skip_waits_for_a_running_thread() {
    let mut b = ProgramBuilder::new("native_skip_waits");
    b.entry(move |ctx| {
        let child = ctx.spawn("spinner", |_| spin(Duration::from_millis(30)));
        ctx.sleep(10_000); // 1 s at 100 µs per tick
        ctx.point("woke");
        ctx.join(child);
    });
    let p = b.build();
    let (events, handle) = shared(VecSink::new());
    let o = native(&p).sink(Box::new(events)).run();
    assert!(o.ok(), "{o:?}");
    let evs = handle.lock().unwrap().events.clone();
    let main = ThreadId::MAIN;
    let sleep = evs
        .iter()
        .position(|e| e.thread == main && matches!(e.op, Op::Sleep { .. }))
        .expect("main sleeps");
    let deadline = evs[sleep].time + 10_000 * 100;
    let woke = sleep
        + 1
        + evs[sleep + 1..]
            .iter()
            .position(|e| e.thread == main)
            .expect("main wakes");
    let exit = evs
        .iter()
        .position(|e| e.thread == ThreadId(1) && e.op == Op::ThreadExit)
        .expect("the child exits");
    assert!(
        exit < woke,
        "main woke (event {woke}) before the running child exited (event {exit})"
    );
    assert!(
        evs[woke].time >= deadline,
        "main woke at {} µs, before its deadline at {deadline} µs",
        evs[woke].time
    );
}

/// A thread still asleep when the clock jumps wakes at its deadline by the
/// moved clock, not the time skipped later. Both children sleep while main
/// waits to join them, so the clock jumps 1 s to `first`'s deadline; `first`
/// then spins for 100 ms, and `second`, due 10 ms after `first`, must wake
/// while `first` still runs.
#[test]
fn native_jump_retimes_the_threads_still_asleep() {
    let mut b = ProgramBuilder::new("native_retime");
    b.entry(move |ctx| {
        let first = ctx.spawn("first", |ctx| {
            ctx.sleep(10_000); // 1 s at 100 µs per tick
            spin(Duration::from_millis(100));
        });
        let second = ctx.spawn("second", |ctx| {
            ctx.sleep(10_100);
            ctx.point("second woke");
        });
        ctx.join(first);
        ctx.join(second);
    });
    let p = b.build();
    let (events, handle) = shared(VecSink::new());
    let o = native(&p).sink(Box::new(events)).run();
    assert!(o.ok(), "{o:?}");
    let evs = handle.lock().unwrap().events.clone();
    let at = |thread: u32, pred: &dyn Fn(&Op) -> bool| {
        evs.iter()
            .position(|e| e.thread == ThreadId(thread) && pred(&e.op))
            .expect("the event happened")
    };
    let woke = at(2, &|op| matches!(op, Op::Point { .. }));
    let first_exit = at(1, &|op| *op == Op::ThreadExit);
    assert!(
        woke < first_exit,
        "the second sleeper woke (event {woke}) only after the first thread ran out \
         (event {first_exit})"
    );
}

/// Cond wait/notify across real threads, including the FIFO queue
/// bookkeeping shared with the model engine.
#[test]
fn native_cond_wait_notify_roundtrip() {
    let mut b = ProgramBuilder::new("native_cond");
    let ready = b.var("ready", 0);
    let l = b.lock("l");
    let c = b.cond("c");
    b.entry(move |ctx| {
        let w = ctx.spawn("waiter", move |ctx| {
            ctx.lock(l);
            while ctx.read(ready) == 0 {
                ctx.wait(c, l);
            }
            ctx.unlock(l);
        });
        ctx.lock(l);
        ctx.write(ready, 1);
        ctx.notify(c);
        ctx.unlock(l);
        ctx.join(w);
    });
    let p = b.build();
    let o = native(&p).run();
    assert!(o.ok(), "{o:?}");
}

/// Timed wait gives up on its own when nobody notifies, as soon as its
/// thread is the only one that could run: even a 1000 s wait returns at
/// once.
#[test]
fn native_timed_wait_times_out() {
    for ticks in [50, 10_000_000] {
        let mut b = ProgramBuilder::new("native_timed");
        let notified = b.var("notified", -1);
        let l = b.lock("l");
        let c = b.cond("c");
        b.entry(move |ctx| {
            ctx.lock(l);
            let got = ctx.timed_wait(c, l, ticks);
            ctx.unlock(l);
            ctx.write(notified, i64::from(got));
        });
        let p = b.build();
        let started = Instant::now();
        let o = native(&p).run();
        assert!(o.ok(), "{ticks} ticks: {o:?}");
        assert_eq!(o.var("notified"), Some(0), "{ticks} ticks");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{ticks} ticks took {:?}",
            started.elapsed()
        );
    }
}

/// Semaphores and barriers coordinate real threads.
#[test]
fn native_sem_and_barrier() {
    let mut b = ProgramBuilder::new("native_sem_barrier");
    let total = b.var("total", 0);
    let s = b.sem("s", 1);
    let bar = b.barrier("bar", 3);
    b.entry(move |ctx| {
        let mut kids = Vec::new();
        for i in 0..2 {
            kids.push(ctx.spawn(format!("w{i}"), move |ctx| {
                ctx.barrier_wait(bar);
                for _ in 0..10 {
                    ctx.sem_acquire(s);
                    let v = ctx.read(total);
                    ctx.write(total, v + 1);
                    ctx.sem_release(s);
                }
            }));
        }
        ctx.barrier_wait(bar);
        for k in kids {
            ctx.join(k);
        }
    });
    let p = b.build();
    let o = native(&p).run();
    assert!(o.ok(), "{o:?}");
    assert_eq!(o.var("total"), Some(20), "semaphore must serialize updates");
}

/// Model-API misuse is a ThreadPanic outcome under the native engine too.
#[test]
fn native_misuse_is_thread_panic() {
    let mut b = ProgramBuilder::new("native_misuse");
    let l = b.lock("l");
    b.entry(move |ctx| {
        ctx.unlock(l); // never held
    });
    let p = b.build();
    let o = native(&p).run();
    assert_eq!(o.kind.tag(), "panic");
}

/// Noise makers run natively (yields and real sleeps); the run still
/// completes and the injection counters tick. A noise sleep is skipped
/// like `ctx.sleep`: the step tail wakes the watchdog when it puts the
/// last thread that could run to sleep, so ten 10 s sleeps cost no real
/// time and the run is not killed.
#[test]
fn native_noise_maker_is_applied() {
    let mut b = ProgramBuilder::new("native_noise");
    let x = b.var("x", 0);
    b.entry(move |ctx| {
        for i in 0..20 {
            ctx.write(x, i);
        }
    });
    let p = b.build();
    let started = Instant::now();
    let o = native(&p)
        .noise(Box::new(|ev: &mtt_instrument::Event, _: &_| {
            if ev.seq.is_multiple_of(2) {
                NoiseDecision::Sleep(100_000)
            } else {
                NoiseDecision::Yield
            }
        }))
        .run();
    assert!(o.ok(), "{o:?}");
    assert!(o.stats.noise_injections > 0);
    assert!(o.stats.forced_yields > 0);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "took {:?}",
        started.elapsed()
    );
}

/// `ctx.random` must be interleaving- and backend-independent: the same
/// seed yields the same draws under model and native.
#[test]
fn native_program_randomness_matches_model() {
    fn program() -> Program {
        let mut b = ProgramBuilder::new("native_rng");
        let draw = b.var("draw", 0);
        b.entry(move |ctx| {
            let mut acc = 0i64;
            for _ in 0..8 {
                acc = acc * 10 + ctx.random(10) as i64;
            }
            ctx.write(draw, acc);
        });
        b.build()
    }
    let pm = program();
    let pn = program();
    let model = Execution::new(&pm).program_seed(42).run();
    let nat = Execution::new(&pn)
        .backend(RuntimeBackend::Native)
        .wall_budget(Duration::from_secs(5))
        .program_seed(42)
        .run();
    assert!(model.ok() && nat.ok());
    assert_eq!(model.var("draw"), nat.var("draw"));
}

/// Deadlock detection is event-driven: blocking wakes the watchdog, which
/// applies the model's deadlock rule at once rather than on a poll tick, and
/// reports the model's diagnostic.
#[test]
fn native_deadlock_is_detected_when_the_last_thread_blocks() {
    let mut b = ProgramBuilder::new("native_sem_wedge");
    let s = b.sem("s", 0);
    b.entry(move |ctx| {
        let t = ctx.spawn("acquirer", move |ctx| ctx.sem_acquire(s));
        ctx.join(t);
    });
    let p = b.build();
    let OutcomeKind::Deadlock(model) = Execution::new(&p).run().kind else {
        panic!("the model run must deadlock");
    };
    let t1 = ThreadId(1);
    assert_eq!(
        model.waiting,
        vec![
            (ThreadId::MAIN, WaitEdge::Join { target: t1 }),
            (t1, WaitEdge::Sem { sem: "s".into() }),
        ]
    );
    assert!(model.cycle.is_empty());
    let mut walls: Vec<Duration> = (0..21)
        .map(|_| {
            let o = native(&p).run();
            let OutcomeKind::Deadlock(info) = &o.kind else {
                panic!("native run must deadlock: {:?}", o.kind);
            };
            assert_eq!(info.waiting, model.waiting);
            assert_eq!(info.cycle, model.cycle);
            o.stats.wall
        })
        .collect();
    walls.sort();
    assert!(
        walls[10] < Duration::from_millis(5),
        "median native run took {:?}",
        walls[10]
    );
}
