//! Integration tests for the native-threads backend.
//!
//! Native runs are genuinely nondeterministic, so these tests assert
//! *properties with tolerances* (outcome kinds, invariant final values,
//! bounded wall time), never byte-identical run output — that discipline
//! belongs to the model backend alone.

use mtt_instrument::{shared, CountingSink, VecSink};
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

/// Watchdog regression: a native thread sleeping far past the wall budget
/// is killed, the run reports StepLimit (the hang analogue) and returns
/// promptly — it does not wait out the sleep.
#[test]
fn native_watchdog_kills_hung_run() {
    let mut b = ProgramBuilder::new("native_hang");
    b.entry(move |ctx| {
        ctx.sleep(10_000_000); // 1000s of wall time at 100µs/tick
    });
    let p = b.build();
    let started = Instant::now();
    let o = Execution::new(&p)
        .backend(RuntimeBackend::Native)
        .wall_budget(Duration::from_millis(200))
        .run();
    assert!(o.hung(), "budget exhaustion must map to StepLimit: {o:?}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "watchdog must interrupt the sleep, took {:?}",
        started.elapsed()
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

/// Timed wait gives up on its own when nobody notifies.
#[test]
fn native_timed_wait_times_out() {
    let mut b = ProgramBuilder::new("native_timed");
    let notified = b.var("notified", -1);
    let l = b.lock("l");
    let c = b.cond("c");
    b.entry(move |ctx| {
        ctx.lock(l);
        let got = ctx.timed_wait(c, l, 50); // 5ms of wall time
        ctx.unlock(l);
        ctx.write(notified, i64::from(got));
    });
    let p = b.build();
    let o = native(&p).run();
    assert!(o.ok(), "{o:?}");
    assert_eq!(o.var("notified"), Some(0));
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
/// completes and the injection counters tick.
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
    let o = native(&p)
        .noise(Box::new(|ev: &mtt_instrument::Event, _: &_| {
            if ev.seq.is_multiple_of(2) {
                NoiseDecision::Sleep(1)
            } else {
                NoiseDecision::Yield
            }
        }))
        .run();
    assert!(o.ok(), "{o:?}");
    assert!(o.stats.noise_injections > 0);
    assert!(o.stats.forced_yields > 0);
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
