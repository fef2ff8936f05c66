//! Ready-made MiniProg sources with documented bugs.
//!
//! These are the MiniProg counterparts of the closure-based programs in
//! `mtt-suite`: the same bug classes, but in analyzable source form, so the
//! §3 workflow (analyze statically → prune instrumentation → test
//! dynamically) can be demonstrated end to end on one artifact.

/// Lost update: two incrementers go through a local temporary without a
/// lock; a checker thread asserts the sum once both are done. Bug: final
/// `x` can be 1. Static analysis flags `x` (shared, written, empty
/// lockset); dynamically the assertion fails on racy schedules.
pub const LOST_UPDATE: &str = r#"
program mp_lost_update {
    var x = 0;
    var done_a = 0;
    var done_b = 0;
    thread inc_a {
        local t;
        t = x;
        t = t + 1;
        x = t;
        done_a = 1;
    }
    thread inc_b {
        local t;
        t = x;
        t = t + 1;
        x = t;
        done_b = 1;
    }
    thread checker {
        local spins = 0;
        while ((done_a == 0 || done_b == 0) && spins < 300) {
            yield;
            spins = spins + 1;
        }
        if (done_a == 1 && done_b == 1) {
            assert x == 2 : "no-lost-update";
        }
    }
}
"#;

/// The fixed version of [`LOST_UPDATE`]: consistently locked increments.
/// Static analysis reports no race on `x`; the assertion always passes.
pub const LOST_UPDATE_FIXED: &str = r#"
program mp_lost_update_fixed {
    var x = 0;
    var done_a = 0;
    var done_b = 0;
    lock l;
    thread inc_a {
        lock (l) {
            local t;
            t = x;
            t = t + 1;
            x = t;
        }
        lock (l) { done_a = 1; }
    }
    thread inc_b {
        lock (l) {
            local t;
            t = x;
            t = t + 1;
            x = t;
        }
        lock (l) { done_b = 1; }
    }
    thread checker {
        local spins = 0;
        local a = 0;
        local b = 0;
        while ((a == 0 || b == 0) && spins < 300) {
            yield;
            spins = spins + 1;
            lock (l) { a = done_a; b = done_b; }
        }
        if (a == 1 && b == 1) {
            lock (l) {
                assert x == 2 : "no-lost-update";
            }
        }
    }
}
"#;

/// AB-BA deadlock with thread-private *global* scratch work around the
/// critical sections: the escape analysis proves `t1_work`/`t2_work`
/// thread-local, so the advised instrumentation plan drops their access
/// events — the paper's "only on access to variables touched by more than
/// one thread" optimization, measurable as event reduction in E7.
pub const ABBA: &str = r#"
program mp_abba {
    var done = 0;
    var t1_work = 0;
    var t2_work = 0;
    lock a;
    lock b;
    thread t1 {
        t1_work = t1_work + 1;
        t1_work = t1_work + 1;
        lock (a) {
            yield;
            lock (b) {
                done = done + 1;
            }
        }
        t1_work = t1_work + 1;
    }
    thread t2 {
        t2_work = t2_work + 1;
        t2_work = t2_work + 1;
        lock (b) {
            yield;
            lock (a) {
                done = done + 1;
            }
        }
        t2_work = t2_work + 1;
    }
}
"#;

/// Missed signal: the waiter does not re-check a predicate, the notifier
/// may fire first. Bug: deadlock (orphaned wait) on some schedules.
pub const MISSED_SIGNAL: &str = r#"
program mp_missed_signal {
    var posted = 0;
    lock l;
    cond c;
    thread waiter {
        acquire l;
        wait(c, l);
        posted = posted + 1;
        release l;
    }
    thread notifier {
        notify c;
    }
}
"#;

/// A correct guarded-wait producer/consumer pair (clean control program).
pub const GUARDED_WAIT: &str = r#"
program mp_guarded_wait {
    var ready = 0;
    var consumed = 0;
    lock l;
    cond c;
    thread consumer {
        acquire l;
        while (ready == 0) { wait(c, l); }
        consumed = 1;
        release l;
    }
    thread producer {
        lock (l) { ready = 1; notifyall c; }
    }
}
"#;

/// Check-then-act on a shared slot: both threads can see `slot == 0` and
/// both "create" — the double-creation atomicity violation. The assert
/// documents the intended invariant.
pub const CHECK_THEN_ACT: &str = r#"
program mp_check_then_act {
    var slot = 0;
    var creations = 0;
    var finished = 0;
    thread init * 2 {
        if (slot == 0) {
            yield;
            slot = 1;
            creations = creations + 1;
        }
        finished = finished + 1;
        if (finished == 2) {
            assert creations == 1 : "created-once";
        }
    }
}
"#;

/// Split-lock read-modify-write: every single access to `x` is under `l`
/// (no lockset race), but the increment spans *two* critical sections with
/// the lock released between them — the atomicity pass's home turf. The
/// checker asserts the invariant once both workers report done.
pub const SPLIT_UPDATE: &str = r#"
program mp_split_update {
    var x = 0;
    var done = 0;
    lock l;
    thread worker * 2 {
        local t;
        lock (l) {
            t = x;
        }
        t = t + 1;
        lock (l) {
            x = t;
        }
        lock (l) { done = done + 1; }
    }
    thread checker {
        local d = 0;
        local spins = 0;
        while (d < 2 && spins < 300) {
            yield;
            spins = spins + 1;
            lock (l) { d = done; }
        }
        if (d == 2) {
            lock (l) {
                assert x == 2 : "split-update-atomic";
            }
        }
    }
}
"#;

/// The Java non-volatile-flag idiom done wrong: the spinner's only exit is
/// observing `flag`, which is plain (non-volatile) — under the runtime's
/// weak-visibility model the cached 0 can spin forever. Lint L005; the
/// hang is the dynamic StaleRead manifestation.
pub const SPIN_FLAG: &str = r#"
program mp_spin_flag {
    var flag = 0;
    var data = 0;
    thread writer {
        data = 42;
        flag = 1;
    }
    thread spinner {
        local seen;
        while (flag == 0) { yield; }
        seen = data;
        assert seen == 42 : "published-data-visible";
    }
}
"#;

/// Sleep as synchronization: the consumer "waits long enough" for the
/// producer instead of synchronizing. Noise that delays the producer past
/// the consumer's nap flips the order. Lint L004.
pub const SLEEP_SYNC: &str = r#"
program mp_sleep_sync {
    var data = 0;
    thread producer {
        sleep 3;
        data = 7;
    }
    thread consumer {
        local v;
        sleep 5;
        v = data;
        assert v == 7 : "producer-won-the-race";
    }
}
"#;

/// Lock leaked on an early-out path: `risky` releases `l` only on the
/// else-branch, so whenever it observes `balance == 0` it exits still
/// holding the lock and `steady` blocks forever. Lint L003.
pub const LOCK_LEAK: &str = r#"
program mp_lock_leak {
    var balance = 0;
    var audited = 0;
    lock l;
    thread risky {
        acquire l;
        if (balance == 0) {
            audited = 1;
        } else {
            release l;
        }
    }
    thread steady {
        lock (l) { balance = balance + 2; }
    }
}
"#;

/// Notify aimed at the wrong condition variable: the waiter blocks on
/// `ready`, the starter signals `launch` — a typo-class bug. The waiter
/// hangs whenever it gets to its wait before `go` is set. Lint L002.
pub const NOTIFY_ORPHAN: &str = r#"
program mp_notify_orphan {
    var go = 0;
    lock l;
    cond ready;
    cond launch;
    thread waiter {
        acquire l;
        while (go == 0) { wait(ready, l); }
        release l;
    }
    thread starter {
        lock (l) { go = 1; notify launch; }
    }
}
"#;

/// The volatile-flag hand-off done right (clean control program): both
/// globals are volatile, so the spin is guaranteed to observe the write
/// and the static pipeline must stay silent — the false-alarm check.
pub const HANDOFF_CLEAN: &str = r#"
program mp_handoff_clean {
    volatile var flag = 0;
    volatile var data = 0;
    thread writer {
        data = 9;
        flag = 1;
    }
    thread reader {
        local seen;
        while (flag == 0) { yield; }
        seen = data;
        assert seen == 9 : "handoff-visible";
    }
}
"#;

/// Three-lock circular acquisition: each courier nests a different pair of
/// the locks `a`→`b`→`c`→`a`, so no two-lock comparison sees the problem —
/// only the full lock-order graph closes the cycle. Lint L006 (and the
/// D001 order warning); dynamically a circular deadlock.
pub const LOCK_CYCLE3: &str = r#"
program mp_lock_cycle3 {
    var n1 = 0;
    var n2 = 0;
    var n3 = 0;
    lock a;
    lock b;
    lock c;
    thread p1 {
        lock (a) {
            yield;
            lock (b) { n1 = n1 + 1; }
        }
    }
    thread p2 {
        lock (b) {
            yield;
            lock (c) { n2 = n2 + 1; }
        }
    }
    thread p3 {
        lock (c) {
            yield;
            lock (a) { n3 = n3 + 1; }
        }
    }
}
"#;

/// Lost notify: the signaller flips the (volatile, hence race-free) flag
/// and notifies **without holding the waiters' lock**, so the wakeup can
/// land in the window between the waiter's predicate check and its
/// `wait` — and is lost, leaving the waiter blocked forever. Lint L007;
/// the predicate loop keeps L001 quiet (the bug is on the notify side).
pub const LOST_NOTIFY: &str = r#"
program mp_lost_notify {
    volatile var go = 0;
    lock m;
    cond c;
    thread waiter {
        acquire m;
        while (go == 0) {
            wait(c, m);
        }
        release m;
    }
    thread signaller {
        go = 1;
        notify c;
    }
}
"#;

/// Clean control program for the L003 branch-correlation fix: the teller
/// releases `l` in the first `if`'s then-arm or the second `if`'s
/// else-arm, and the two conditions test the same untouched local — every
/// real path releases exactly once, but a path-insensitive may-held
/// analysis believes a leaky `then`+`then` path exists. Must stay
/// diagnostic-free.
pub const BRANCH_RELEASE: &str = r#"
program mp_branch_release {
    var paid = 0;
    lock l;
    thread teller {
        local fast = 1;
        acquire l;
        if (fast == 1) {
            paid = paid + 1;
            release l;
        } else {
            skip;
        }
        if (fast == 1) {
            skip;
        } else {
            release l;
        }
    }
    thread auditor {
        lock (l) { paid = paid + 1; }
    }
}
"#;

/// One catalog entry: a MiniProg source plus its documentation — free-form
/// bug tags and the dynamic bug classes (as `mtt_suite::BugClass` variant
/// names) the static pipeline is expected to predict. Empty `classes` =
/// intentionally clean program.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Program name (matches the `program` header).
    pub name: &'static str,
    /// MiniProg source.
    pub src: &'static str,
    /// Free-form bug tags documenting seeded defects.
    pub bug_tags: Vec<&'static str>,
    /// Bug classes the diagnostics should predict (`"DataRace"`, ...).
    pub classes: Vec<&'static str>,
}

/// The full sample catalog with per-class documentation.
pub fn catalog() -> Vec<Sample> {
    vec![
        Sample {
            name: "mp_lost_update",
            src: LOST_UPDATE,
            bug_tags: vec!["race-x"],
            classes: vec!["DataRace", "AtomicityViolation"],
        },
        Sample {
            name: "mp_lost_update_fixed",
            src: LOST_UPDATE_FIXED,
            bug_tags: vec![],
            classes: vec![],
        },
        Sample {
            name: "mp_abba",
            src: ABBA,
            bug_tags: vec!["deadlock-ab-ba"],
            classes: vec!["Deadlock"],
        },
        Sample {
            name: "mp_missed_signal",
            src: MISSED_SIGNAL,
            bug_tags: vec!["missed-signal"],
            classes: vec!["MissedSignal"],
        },
        Sample {
            name: "mp_guarded_wait",
            src: GUARDED_WAIT,
            bug_tags: vec![],
            classes: vec![],
        },
        Sample {
            name: "mp_check_then_act",
            src: CHECK_THEN_ACT,
            bug_tags: vec!["double-create"],
            classes: vec!["DataRace", "AtomicityViolation"],
        },
        Sample {
            name: "mp_split_update",
            src: SPLIT_UPDATE,
            bug_tags: vec!["split-critical-section"],
            classes: vec!["AtomicityViolation"],
        },
        Sample {
            name: "mp_spin_flag",
            src: SPIN_FLAG,
            bug_tags: vec!["nonvolatile-spin"],
            classes: vec!["DataRace", "StaleRead"],
        },
        Sample {
            name: "mp_sleep_sync",
            src: SLEEP_SYNC,
            bug_tags: vec!["sleep-ordering"],
            classes: vec!["DataRace", "OrderingViolation"],
        },
        Sample {
            name: "mp_lock_leak",
            src: LOCK_LEAK,
            bug_tags: vec!["leaked-lock"],
            classes: vec!["Deadlock"],
        },
        Sample {
            name: "mp_notify_orphan",
            src: NOTIFY_ORPHAN,
            bug_tags: vec!["wrong-cond-notify"],
            classes: vec!["WrongNotify"],
        },
        Sample {
            name: "mp_handoff_clean",
            src: HANDOFF_CLEAN,
            bug_tags: vec![],
            classes: vec![],
        },
        Sample {
            name: "mp_lock_cycle3",
            src: LOCK_CYCLE3,
            bug_tags: vec!["deadlock-cycle-3"],
            classes: vec!["Deadlock"],
        },
        Sample {
            name: "mp_lost_notify",
            src: LOST_NOTIFY,
            bug_tags: vec!["unlocked-notify"],
            classes: vec!["MissedSignal"],
        },
        Sample {
            name: "mp_branch_release",
            src: BRANCH_RELEASE,
            bug_tags: vec![],
            classes: vec![],
        },
    ]
}

/// Look a sample up by program name.
pub fn by_name(name: &str) -> Option<Sample> {
    catalog().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::parser::parse;

    #[test]
    fn all_samples_parse() {
        for s in catalog() {
            let p = parse(s.src).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(p.name, s.name);
            assert!(p.thread_instances() >= 1);
        }
    }

    #[test]
    fn static_analysis_flags_the_buggy_samples() {
        let lu = analyze(&parse(LOST_UPDATE).unwrap());
        assert!(!lu.races.is_empty(), "lost update must be flagged");
        let fixed = analyze(&parse(LOST_UPDATE_FIXED).unwrap());
        assert!(fixed.races.is_empty(), "fixed version must be clean");
        let abba = analyze(&parse(ABBA).unwrap());
        assert!(!abba.deadlocks.is_empty(), "AB-BA must be flagged");
        let gw = analyze(&parse(GUARDED_WAIT).unwrap());
        assert!(gw.deadlocks.is_empty());
    }

    #[test]
    fn abba_has_no_switch_filler_lines() {
        let r = analyze(&parse(ABBA).unwrap());
        assert!(
            !r.no_switch_lines.is_empty(),
            "the local-only filler lines must be classified no-switch"
        );
    }

    #[test]
    fn catalog_lists_every_sample_by_name() {
        let cat = catalog();
        assert_eq!(cat.len(), 15, "the full 15-program catalog");
        for s in &cat {
            assert_eq!(by_name(s.name).map(|found| found.src), Some(s.src));
        }
        assert!(by_name("no_such_program").is_none());
    }

    #[test]
    fn diagnostics_predict_exactly_the_documented_classes() {
        // The headline contract of the static pipeline: on every catalog
        // program the set of bug classes named by the diagnostics equals
        // the documented set — no false alarms on the clean programs, no
        // misses on the seeded ones.
        use std::collections::BTreeSet;
        for s in catalog() {
            let r = analyze(&parse(s.src).unwrap_or_else(|e| panic!("{}: {e}", s.name)));
            let got: BTreeSet<&str> = r
                .diagnostics
                .iter()
                .map(|d| d.bug_class.as_str())
                .filter(|c| !c.is_empty())
                .collect();
            let want: BTreeSet<&str> = s.classes.iter().copied().collect();
            assert_eq!(
                got, want,
                "{}: diagnostic classes {:?} != documented {:?}\n{:#?}",
                s.name, got, want, r.diagnostics
            );
        }
    }

    #[test]
    fn lint_pack_fires_on_its_designated_samples() {
        let codes = |src: &str| -> Vec<String> {
            analyze(&parse(src).unwrap())
                .diagnostics
                .iter()
                .map(|d| d.code.clone())
                .collect()
        };
        assert!(codes(MISSED_SIGNAL).iter().any(|c| c == "L001"));
        assert!(codes(NOTIFY_ORPHAN).iter().any(|c| c == "L002"));
        assert!(codes(LOCK_LEAK).iter().any(|c| c == "L003"));
        assert!(codes(SLEEP_SYNC).iter().any(|c| c == "L004"));
        assert!(codes(SPIN_FLAG).iter().any(|c| c == "L005"));
        assert!(codes(SPLIT_UPDATE).iter().any(|c| c == "A001"));
        assert!(codes(LOCK_CYCLE3).iter().any(|c| c == "L006"));
        assert!(codes(LOST_NOTIFY).iter().any(|c| c == "L007"));
        // The volatile hand-off is the false-positive control for L005/R001.
        assert!(codes(HANDOFF_CLEAN).is_empty());
        // And the correlated branch release is the control for L003.
        assert!(codes(BRANCH_RELEASE).is_empty());
    }
}
