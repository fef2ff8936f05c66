//! End-to-end semantics tests for the controlled runtime: every primitive,
//! every outcome kind, determinism, and the instrumentation hookup.

use mtt_instrument::{shared, CountingSink, EventSink, OpClass, VecSink};
use mtt_runtime::{
    Event, Execution, FifoScheduler, NoiseDecision, NoiseMaker, NoiseView, Op, Outcome,
    OutcomeKind, Program, ProgramBuilder, RandomScheduler, RoundRobinScheduler, RuntimeBackend,
    SchedView, Scheduler, ThreadId,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Two unsynchronized increments: the canonical lost-update race.
fn racy_counter(increments_per_thread: u32, threads: u32) -> Program {
    let mut b = ProgramBuilder::new("racy_counter");
    let x = b.var("x", 0);
    b.entry(move |ctx| {
        let kids: Vec<ThreadId> = (0..threads)
            .map(|i| {
                ctx.spawn(format!("inc{i}"), move |ctx| {
                    for _ in 0..increments_per_thread {
                        let v = ctx.read(x);
                        ctx.write(x, v + 1);
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

#[test]
fn fifo_scheduler_never_loses_updates() {
    // The deterministic "unit test" scheduler runs each thread to
    // completion: the race never fires (the paper's core motivation).
    for _ in 0..5 {
        let p = racy_counter(10, 3);
        let o = Execution::new(&p).scheduler(Box::new(FifoScheduler)).run();
        assert!(o.ok(), "{:?}", o.kind);
        assert_eq!(o.var("x"), Some(30));
    }
}

#[test]
fn round_robin_loses_updates() {
    // Maximal interleaving makes the lost update deterministic.
    let p = racy_counter(10, 3);
    let o = Execution::new(&p)
        .scheduler(Box::new(RoundRobinScheduler::new()))
        .run();
    assert!(o.ok());
    assert!(
        o.var("x").unwrap() < 30,
        "expected lost updates, got {:?}",
        o.var("x")
    );
}

#[test]
fn random_scheduling_finds_the_race_sometimes() {
    let mut lost = 0;
    for seed in 0..40 {
        let p = racy_counter(2, 2);
        let o = Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .run();
        if o.var("x").unwrap() < 4 {
            lost += 1;
        }
    }
    assert!(lost > 0, "race never manifested in 40 random runs");
    assert!(lost < 40, "race manifested in every run");
}

#[test]
fn rmw_is_atomic() {
    let mut b = ProgramBuilder::new("atomic_counter");
    let x = b.var("x", 0);
    b.entry(move |ctx| {
        let kids: Vec<ThreadId> = (0..3)
            .map(|i| {
                ctx.spawn(format!("inc{i}"), move |ctx| {
                    for _ in 0..10 {
                        ctx.rmw(x, |v| v + 1);
                    }
                })
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    });
    let p = b.build();
    for seed in 0..10 {
        let o = Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .run();
        assert_eq!(o.var("x"), Some(30), "rmw lost an update at seed {seed}");
    }
}

#[test]
fn mutex_protects_critical_section() {
    let mut b = ProgramBuilder::new("locked_counter");
    let x = b.var("x", 0);
    let l = b.lock("l");
    b.entry(move |ctx| {
        let kids: Vec<ThreadId> = (0..3)
            .map(|i| {
                ctx.spawn(format!("inc{i}"), move |ctx| {
                    for _ in 0..5 {
                        ctx.lock(l);
                        let v = ctx.read(x);
                        ctx.write(x, v + 1);
                        ctx.unlock(l);
                    }
                })
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    });
    let p = b.build();
    for seed in 0..10 {
        let o = Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .run();
        assert!(o.ok());
        assert_eq!(
            o.var("x"),
            Some(15),
            "lock failed to protect at seed {seed}"
        );
    }
}

fn ab_ba_program() -> Program {
    let mut b = ProgramBuilder::new("ab_ba");
    let a = b.lock("a");
    let l_b = b.lock("b");
    b.entry(move |ctx| {
        let t1 = ctx.spawn("t1", move |ctx| {
            ctx.lock(a);
            ctx.yield_now();
            ctx.lock(l_b);
            ctx.unlock(l_b);
            ctx.unlock(a);
        });
        let t2 = ctx.spawn("t2", move |ctx| {
            ctx.lock(l_b);
            ctx.yield_now();
            ctx.lock(a);
            ctx.unlock(a);
            ctx.unlock(l_b);
        });
        ctx.join(t1);
        ctx.join(t2);
    });
    b.build()
}

#[test]
fn ab_ba_deadlock_is_detected_under_interleaving() {
    // Round-robin forces the deadly interleaving deterministically, and
    // the cycle starts at its smallest thread on every run.
    let p = ab_ba_program();
    for _ in 0..50 {
        let o = Execution::new(&p)
            .scheduler(Box::new(RoundRobinScheduler::new()))
            .run();
        match &o.kind {
            OutcomeKind::Deadlock(info) => {
                assert!(info.is_cyclic(), "AB-BA must be a cyclic deadlock");
                assert_eq!(info.cycle, [ThreadId(1), ThreadId(2)]);
            }
            k => panic!("expected deadlock, got {k:?}"),
        }
    }
}

#[test]
fn ab_ba_completes_under_fifo() {
    let p = ab_ba_program();
    let o = Execution::new(&p).scheduler(Box::new(FifoScheduler)).run();
    assert!(
        o.ok(),
        "FIFO should serialize past the deadlock: {:?}",
        o.kind
    );
}

#[test]
fn cond_wait_notify_roundtrip() {
    let mut b = ProgramBuilder::new("pingpong");
    let flag = b.var("flag", 0);
    let done = b.var("done", 0);
    let l = b.lock("l");
    let c = b.cond("c");
    b.entry(move |ctx| {
        let waiter = ctx.spawn("waiter", move |ctx| {
            ctx.lock(l);
            while ctx.read(flag) == 0 {
                ctx.wait(c, l);
            }
            ctx.write(done, 1);
            ctx.unlock(l);
        });
        let setter = ctx.spawn("setter", move |ctx| {
            ctx.lock(l);
            ctx.write(flag, 1);
            ctx.notify(c);
            ctx.unlock(l);
        });
        ctx.join(waiter);
        ctx.join(setter);
    });
    let p = b.build();
    for seed in 0..20 {
        let o = Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .run();
        assert!(o.ok(), "seed {seed}: {:?}", o.kind);
        assert_eq!(o.var("done"), Some(1));
    }
}

#[test]
fn missed_signal_without_predicate_deadlocks() {
    // Classic bug: wait without re-checking a predicate + notify that can
    // happen first. Under an adversarial schedule the waiter sleeps forever.
    let mut b = ProgramBuilder::new("missed_signal");
    let l = b.lock("l");
    let c = b.cond("c");
    b.entry(move |ctx| {
        let waiter = ctx.spawn("waiter", move |ctx| {
            ctx.lock(l);
            ctx.wait(c, l); // BUG: no predicate loop
            ctx.unlock(l);
        });
        let notifier = ctx.spawn("notifier", move |ctx| {
            ctx.notify(c); // may fire before the wait
        });
        ctx.join(waiter);
        ctx.join(notifier);
    });
    let p = b.build();
    // FIFO runs the waiter... actually spawn order decides; scan seeds for
    // both behaviours.
    let mut deadlocks = 0;
    let mut completions = 0;
    for seed in 0..40 {
        let o = Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .run();
        match o.kind {
            OutcomeKind::Deadlock(ref info) => {
                assert!(!info.is_cyclic());
                deadlocks += 1;
            }
            OutcomeKind::Completed => completions += 1,
            ref k => panic!("unexpected outcome {k:?}"),
        }
    }
    assert!(deadlocks > 0, "missed signal never manifested");
    assert!(completions > 0, "signal was always missed");
}

#[test]
fn timed_wait_times_out() {
    let mut b = ProgramBuilder::new("timed");
    let got = b.var("notified", -1);
    let l = b.lock("l");
    let c = b.cond("c");
    b.entry(move |ctx| {
        ctx.lock(l);
        let notified = ctx.timed_wait(c, l, 10);
        ctx.write(got, i64::from(notified));
        ctx.unlock(l);
    });
    let p = b.build();
    let o = Execution::new(&p).run();
    assert!(o.ok(), "{:?}", o.kind);
    assert_eq!(o.var("notified"), Some(0), "nobody notifies: must time out");
    assert!(
        o.stats.virtual_time >= 10,
        "virtual time must have advanced"
    );
}

#[test]
fn notify_all_wakes_every_waiter() {
    let mut b = ProgramBuilder::new("broadcast");
    let go = b.var("go", 0);
    let woke = b.var("woke", 0);
    let l = b.lock("l");
    let c = b.cond("c");
    b.entry(move |ctx| {
        let kids: Vec<ThreadId> = (0..3)
            .map(|i| {
                ctx.spawn(format!("w{i}"), move |ctx| {
                    ctx.lock(l);
                    while ctx.read(go) == 0 {
                        ctx.wait(c, l);
                    }
                    let w = ctx.read(woke);
                    ctx.write(woke, w + 1);
                    ctx.unlock(l);
                })
            })
            .collect();
        ctx.sleep(5); // let waiters park
        ctx.lock(l);
        ctx.write(go, 1);
        ctx.notify_all(c);
        ctx.unlock(l);
        for k in kids {
            ctx.join(k);
        }
    });
    let p = b.build();
    for seed in 0..10 {
        let o = Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .run();
        assert!(o.ok(), "seed {seed}: {:?}", o.kind);
        assert_eq!(o.var("woke"), Some(3));
    }
}

#[test]
fn semaphore_bounds_concurrency() {
    let mut b = ProgramBuilder::new("sem");
    let inside = b.var("inside", 0);
    let max_seen = b.var("max_seen", 0);
    let s = b.sem("s", 2);
    b.entry(move |ctx| {
        let kids: Vec<ThreadId> = (0..5)
            .map(|i| {
                ctx.spawn(format!("t{i}"), move |ctx| {
                    ctx.sem_acquire(s);
                    let n = ctx.rmw(inside, |v| v + 1) + 1;
                    ctx.rmw(max_seen, |m| m.max(n));
                    ctx.yield_now();
                    ctx.rmw(inside, |v| v - 1);
                    ctx.sem_release(s);
                })
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    });
    let p = b.build();
    for seed in 0..15 {
        let o = Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .run();
        assert!(o.ok(), "seed {seed}: {:?}", o.kind);
        assert!(
            o.var("max_seen").unwrap() <= 2,
            "semaphore admitted {} threads",
            o.var("max_seen").unwrap()
        );
        assert_eq!(o.var("inside"), Some(0));
    }
}

#[test]
fn barrier_synchronizes_phases() {
    let mut b = ProgramBuilder::new("barrier");
    let phase1 = b.var("phase1", 0);
    let ok = b.var("ok", 0);
    let bar = b.barrier("bar", 3);
    b.entry(move |ctx| {
        let kids: Vec<ThreadId> = (0..3)
            .map(|i| {
                ctx.spawn(format!("t{i}"), move |ctx| {
                    ctx.rmw(phase1, |v| v + 1);
                    ctx.barrier_wait(bar);
                    // After the barrier every phase-1 increment is visible.
                    if ctx.read(phase1) == 3 {
                        ctx.rmw(ok, |v| v + 1);
                    }
                })
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    });
    let p = b.build();
    for seed in 0..15 {
        let o = Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .run();
        assert!(o.ok(), "seed {seed}: {:?}", o.kind);
        assert_eq!(o.var("ok"), Some(3), "seed {seed}");
    }
}

#[test]
fn try_lock_fails_without_blocking() {
    let mut b = ProgramBuilder::new("trylock");
    let failures = b.var("failures", 0);
    let l = b.lock("l");
    b.entry(move |ctx| {
        let holder = ctx.spawn("holder", move |ctx| {
            ctx.lock(l);
            ctx.sleep(10);
            ctx.unlock(l);
        });
        let trier = ctx.spawn("trier", move |ctx| {
            ctx.sleep(2); // let the holder take the lock
            if !ctx.try_lock(l) {
                let f = ctx.read(failures);
                ctx.write(failures, f + 1);
            } else {
                ctx.unlock(l);
            }
        });
        ctx.join(holder);
        ctx.join(trier);
    });
    let p = b.build();
    let o = Execution::new(&p).run();
    assert!(o.ok(), "{:?}", o.kind);
    assert_eq!(o.var("failures"), Some(1));
}

#[test]
fn step_limit_catches_model_livelock() {
    let mut b = ProgramBuilder::new("spin");
    let flag = b.var("flag", 0);
    b.entry(move |ctx| {
        while ctx.read(flag) == 0 {
            ctx.yield_now();
        }
    });
    let p = b.build();
    let o = Execution::new(&p).max_steps(500).run();
    assert!(o.hung(), "expected step-limit, got {:?}", o.kind);
}

#[test]
fn nonvolatile_stop_flag_hangs_volatile_terminates() {
    // The Java non-volatile stop-flag bug, in the model's visibility terms.
    let build = |volatile: bool| {
        let mut b = ProgramBuilder::new("stopflag");
        let flag = if volatile {
            b.var("flag", 0)
        } else {
            b.var_nonvolatile("flag", 0)
        };
        b.entry(move |ctx| {
            let worker = ctx.spawn("worker", move |ctx| {
                while ctx.read(flag) == 0 {
                    ctx.yield_now(); // no sync op: cache never flushed
                }
            });
            ctx.sleep(5); // ensure the worker caches the initial value first
            ctx.write(flag, 1);
            ctx.join(worker);
        });
        b.build()
    };
    let hung = Execution::new(&build(false))
        .scheduler(Box::new(RoundRobinScheduler::new()))
        .max_steps(2_000)
        .run();
    assert!(hung.hung(), "non-volatile flag must hang: {:?}", hung.kind);
    let fine = Execution::new(&build(true))
        .scheduler(Box::new(RoundRobinScheduler::new()))
        .max_steps(2_000)
        .run();
    assert!(fine.ok(), "volatile flag must terminate: {:?}", fine.kind);
}

#[test]
fn assertion_failures_are_recorded() {
    let mut b = ProgramBuilder::new("asserts");
    let x = b.var("x", 1);
    b.entry(move |ctx| {
        let v = ctx.read(x);
        ctx.check(v == 2, "x-should-be-two");
        ctx.check(v == 1, "x-is-one"); // passes, not recorded
    });
    let p = b.build();
    let o = Execution::new(&p).run();
    assert!(matches!(o.kind, OutcomeKind::Completed));
    assert_eq!(o.assert_failures.len(), 1);
    assert_eq!(o.assert_failures[0].label, "x-should-be-two");
    assert!(!o.ok());
}

#[test]
fn stop_on_assert_aborts_early() {
    let mut b = ProgramBuilder::new("stop_on_assert");
    let after = b.var("after", 0);
    b.entry(move |ctx| {
        ctx.check(false, "boom");
        ctx.write(after, 1); // unreachable when stopping on assert
    });
    let p = b.build();
    let o = Execution::new(&p).stop_on_assert(true).run();
    assert!(matches!(o.kind, OutcomeKind::AssertStop), "{:?}", o.kind);
    assert_eq!(o.var("after"), Some(0));
}

#[test]
fn model_misuse_is_a_thread_panic_outcome() {
    let mut b = ProgramBuilder::new("misuse");
    let l = b.lock("l");
    b.entry(move |ctx| {
        ctx.unlock(l); // never acquired
    });
    let p = b.build();
    let o = Execution::new(&p).run();
    match o.kind {
        OutcomeKind::ThreadPanic {
            thread,
            ref message,
        } => {
            assert_eq!(thread, ThreadId::MAIN);
            assert!(message.contains("does not hold"), "{message}");
        }
        ref k => panic!("expected ThreadPanic, got {k:?}"),
    }
}

#[test]
fn program_panic_is_captured() {
    let mut b = ProgramBuilder::new("panics");
    b.entry(|_ctx| panic!("intentional test panic"));
    let p = b.build();
    let o = Execution::new(&p).run();
    match o.kind {
        OutcomeKind::ThreadPanic { ref message, .. } => {
            assert!(message.contains("intentional test panic"));
        }
        ref k => panic!("expected ThreadPanic, got {k:?}"),
    }
}

#[test]
fn finish_order_is_reported() {
    let mut b = ProgramBuilder::new("order");
    b.entry(move |ctx| {
        let a = ctx.spawn("a", move |ctx| ctx.sleep(5));
        let c = ctx.spawn("b", move |ctx| ctx.sleep(1));
        ctx.join(a);
        ctx.join(c);
    });
    let p = b.build();
    let o = Execution::new(&p).run();
    assert!(o.ok());
    assert_eq!(o.finish_order.len(), 3);
    // main finishes last.
    assert_eq!(*o.finish_order.last().unwrap(), ThreadId::MAIN);
    assert_eq!(o.thread_names[0], "main");
}

#[test]
fn executions_are_deterministic_given_seed() {
    let p = racy_counter(5, 3);
    let run = |seed| {
        let (sink, handle) = shared(VecSink::new());
        let o = Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .sink(Box::new(sink))
            .run();
        let evs: Vec<(u64, u32)> = handle
            .lock()
            .unwrap()
            .events
            .iter()
            .map(|e| (e.seq, e.thread.0))
            .collect();
        (o.fingerprint(), evs)
    };
    for seed in [1u64, 7, 99] {
        let (f1, e1) = run(seed);
        let (f2, e2) = run(seed);
        assert_eq!(f1, f2, "fingerprint differs at seed {seed}");
        assert_eq!(e1, e2, "event stream differs at seed {seed}");
    }
}

#[test]
fn sinks_and_plans_see_filtered_events() {
    let p = racy_counter(3, 2);
    let (csink, chandle) = shared(CountingSink::new());
    let plan = mtt_instrument::InstrumentationPlan {
        ops: mtt_instrument::OpClassSet::of(&[OpClass::VarAccess]),
        ..Default::default()
    };
    let o = Execution::new(&p)
        .scheduler(Box::new(RandomScheduler::new(3)))
        .plan(plan)
        .sink(Box::new(csink))
        .run();
    assert!(o.ok());
    let c = chandle.lock().unwrap();
    assert!(c.total > 0);
    assert_eq!(c.total, c.class_count(OpClass::VarAccess));
    assert_eq!(c.class_count(OpClass::ThreadLife), 0);
    assert!(c.is_finished());
}

/// Records every call it receives into a log shared with other sinks,
/// tagged with its name, so a test can check the order across sinks.
struct LogSink {
    name: &'static str,
    log: Arc<Mutex<Vec<String>>>,
}

impl EventSink for LogSink {
    fn on_event(&mut self, ev: &Event) {
        let line = format!("{}:event:{}", self.name, ev.seq);
        self.log.lock().unwrap().push(line);
    }

    fn finish(&mut self) {
        let line = format!("{}:finish", self.name);
        self.log.lock().unwrap().push(line);
    }
}

#[test]
fn execution_delivers_each_event_to_every_sink_in_attachment_order() {
    let p = racy_counter(2, 2);
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut exec = Execution::new(&p).scheduler(Box::new(RandomScheduler::new(3)));
    for name in ["a", "b", "c"] {
        let log = Arc::clone(&log);
        exec = exec.sink(Box::new(LogSink { name, log }));
    }
    let o = exec.run();
    assert!(o.ok(), "{:?}", o.kind);

    // Each event reaches a, b and c before the next event starts, and
    // finish reaches every sink once, in the same order, after the last.
    let got = log.lock().unwrap().clone();
    let want: Vec<String> = (0..o.stats.events)
        .flat_map(|seq| ["a", "b", "c"].map(|name| format!("{name}:event:{seq}")))
        .chain(["a", "b", "c"].map(|name| format!("{name}:finish")))
        .collect();
    assert!(o.stats.events > 0);
    assert_eq!(got, want);
}

#[test]
fn noise_sleep_decisions_are_counted_and_disturb() {
    // A closure noise maker that sleeps at every var write.
    let p = racy_counter(3, 2);
    let noisy = |ev: &mtt_runtime::Event, _view: &mtt_runtime::NoiseView| match ev.op {
        Op::VarRead { .. } => NoiseDecision::Sleep(3),
        _ => NoiseDecision::None,
    };
    let o = Execution::new(&p)
        .scheduler(Box::new(FifoScheduler))
        .noise(Box::new(noisy))
        .run();
    assert!(o.ok(), "{:?}", o.kind);
    assert!(o.stats.noise_injections > 0);
    // Sleeping after every read hands the window to the other thread:
    // updates get lost even under FIFO.
    assert!(
        o.var("x").unwrap() < 6,
        "noise failed to expose the race: x = {:?}",
        o.var("x")
    );
}

#[test]
fn program_random_is_interleaving_independent() {
    let mut b = ProgramBuilder::new("rand");
    let r0 = b.var("r0", -1);
    b.entry(move |ctx| {
        let v = ctx.random(1000) as i64;
        ctx.write(r0, v);
    });
    let p = b.build();
    let a = Execution::new(&p).program_seed(5).run();
    let b2 = Execution::new(&p).program_seed(5).run();
    let c = Execution::new(&p).program_seed(6).run();
    assert_eq!(a.var("r0"), b2.var("r0"));
    assert_ne!(a.var("r0"), c.var("r0"), "different seeds should differ");
}

#[test]
fn stats_are_populated() {
    let p = racy_counter(2, 2);
    let o = Execution::new(&p).run();
    assert!(o.stats.events > 0);
    assert!(o.stats.sched_points > 0);
    assert_eq!(o.stats.threads, 3);
    assert_eq!(o.stats.scheduler_faults, 0);
    assert!(o.stats.wall.as_nanos() > 0);
}

#[test]
fn many_threads_stress() {
    let mut b = ProgramBuilder::new("stress");
    let x = b.var("x", 0);
    let l = b.lock("l");
    b.entry(move |ctx| {
        let kids: Vec<ThreadId> = (0..24)
            .map(|i| {
                ctx.spawn(format!("t{i}"), move |ctx| {
                    for _ in 0..5 {
                        ctx.lock(l);
                        let v = ctx.read(x);
                        ctx.write(x, v + 1);
                        ctx.unlock(l);
                    }
                })
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    });
    let p = b.build();
    let o = Execution::new(&p)
        .scheduler(Box::new(RandomScheduler::new(11)))
        .run();
    assert!(o.ok(), "{:?}", o.kind);
    assert_eq!(o.var("x"), Some(120));
}

#[test]
fn outcome_summary_is_informative() {
    let p = racy_counter(1, 1);
    let o: Outcome = Execution::new(&p).run();
    let s = o.summary();
    assert!(s.contains("racy_counter"));
    assert!(s.contains("x=1"));
}

#[test]
fn pct_scheduler_finds_the_race() {
    // PCT's guarantee in action: the depth-2 lost update is found within a
    // modest number of runs.
    let mut found = 0;
    for seed in 0..60 {
        let p = racy_counter(2, 2);
        let o = Execution::new(&p)
            .scheduler(Box::new(mtt_runtime::PctScheduler::new(seed, 2, 40)))
            .run();
        if o.var("x").unwrap() < 4 {
            found += 1;
        }
    }
    assert!(found > 0, "PCT never hit the depth-2 race in 60 runs");
}

#[test]
fn spurious_wakeups_break_unguarded_waits() {
    // A wait with no predicate loop: correct under notify-only semantics
    // in this specific program, broken the moment wakeups can be spurious.
    let mut b = ProgramBuilder::new("unguarded_wait");
    let ready = b.var("ready", 0);
    let observed = b.var("observed", -1);
    let l = b.lock("l");
    let c = b.cond("c");
    b.entry(move |ctx| {
        let waiter = ctx.spawn("waiter", move |ctx| {
            ctx.lock(l);
            ctx.wait(c, l); // BUG: no `while !ready` loop
            let r = ctx.read(ready);
            ctx.write(observed, r);
            ctx.check(r == 1, "ready-after-wait");
            ctx.unlock(l);
        });
        let producer = ctx.spawn("producer", move |ctx| {
            ctx.sleep(20);
            ctx.lock(l);
            ctx.write(ready, 1);
            ctx.notify(c);
            ctx.unlock(l);
        });
        ctx.join(waiter);
        ctx.join(producer);
    });
    let p = b.build();

    // Without spurious wakeups the program happens to work (or deadlocks if
    // the notify is missed — filter those runs out).
    let clean_runs = (0..20)
        .map(|seed| {
            Execution::new(&p)
                .scheduler(Box::new(RandomScheduler::new(seed)))
                .run()
        })
        .filter(|o| matches!(o.kind, OutcomeKind::Completed))
        .collect::<Vec<_>>();
    assert!(
        clean_runs.iter().all(|o| o.assert_failures.is_empty()),
        "without spurious wakeups the unguarded wait looks fine"
    );

    // With spurious wakeups the missing predicate loop is exposed.
    let mut exposed = false;
    for seed in 0..40 {
        let o = Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .program_seed(seed)
            .spurious_wakeups(0.10)
            .run();
        if o.assert_failures
            .iter()
            .any(|a| a.label == "ready-after-wait")
        {
            exposed = true;
            break;
        }
    }
    assert!(exposed, "spurious wakeups never exposed the unguarded wait");
}

#[test]
fn spurious_wakeups_do_not_break_guarded_waits() {
    // The guarded version must survive heavy spurious injection.
    let mut b = ProgramBuilder::new("guarded_wait");
    let ready = b.var("ready", 0);
    let l = b.lock("l");
    let c = b.cond("c");
    b.entry(move |ctx| {
        let waiter = ctx.spawn("waiter", move |ctx| {
            ctx.lock(l);
            while ctx.read(ready) == 0 {
                ctx.wait(c, l);
            }
            ctx.unlock(l);
        });
        let producer = ctx.spawn("producer", move |ctx| {
            ctx.sleep(10);
            ctx.lock(l);
            ctx.write(ready, 1);
            ctx.notify_all(c);
            ctx.unlock(l);
        });
        ctx.join(waiter);
        ctx.join(producer);
    });
    let p = b.build();
    for seed in 0..15 {
        let o = Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .program_seed(seed)
            .spurious_wakeups(0.25)
            .run();
        assert!(o.ok(), "seed {seed}: {:?}", o.kind);
    }
}

/// A scheduler, noise maker and sink in one, which sets its flag when
/// dropped.
struct Flagged(Arc<AtomicBool>);

impl Drop for Flagged {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

impl Scheduler for Flagged {
    fn pick(&mut self, view: &SchedView<'_>) -> ThreadId {
        FifoScheduler.pick(view)
    }
}

impl NoiseMaker for Flagged {
    fn decide(&mut self, _ev: &Event, _view: &NoiseView) -> NoiseDecision {
        NoiseDecision::None
    }
}

impl EventSink for Flagged {
    fn on_event(&mut self, _ev: &Event) {}
}

#[test]
fn tools_are_dropped_before_run_returns() {
    // Callers read a tool's totals when it is dropped, so the run must not
    // leave the last reference to its tools to one of its OS threads. That
    // thread lets go of the run a moment after the harness sees it leave,
    // so a single run rarely catches the race; a hundred do.
    for backend in [RuntimeBackend::Model, RuntimeBackend::Native].repeat(100) {
        let flags: [Arc<AtomicBool>; 3] = Default::default();
        let flag = |i: usize| Box::new(Flagged(Arc::clone(&flags[i])));
        let p = racy_counter(2, 3);
        let o = Execution::new(&p)
            .backend(backend)
            .scheduler(flag(0))
            .noise(flag(1))
            .sink(flag(2))
            .run();
        assert!(
            matches!(o.kind, OutcomeKind::Completed),
            "{backend}: {:?}",
            o.kind
        );
        for (f, tool) in flags.iter().zip(["scheduler", "noise maker", "sink"]) {
            assert!(
                f.load(Ordering::SeqCst),
                "{backend}: the {tool} outlived the run"
            );
        }
    }
}
