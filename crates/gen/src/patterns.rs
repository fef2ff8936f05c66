//! The four pattern templates and their structural knobs.
//!
//! Each template is written as raw MiniProg token text (whitespace is
//! irrelevant — the caller canonicalizes through the printer) and is
//! co-designed with the static passes the same way the hand-written
//! catalog is: the buggy form exhibits exactly its pattern's bug
//! class(es), and the benign twin is diagnostic-free. The in-crate and
//! property tests pin both facts for every seed they visit.

use crate::{Mutation, Pattern};
use mtt_static::ast::{walk, MiniProg, StmtKind};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Hot-variable alias table (race / split-atomic patterns).
const HOT_VARS: [&str; 4] = ["x", "counter", "acct", "total"];
/// Lock-name alias table (lock-cycle pattern).
const LOCK_SETS: [[&str; 3]; 4] = [
    ["a", "b", "c"],
    ["la", "lb", "lc"],
    ["m1", "m2", "m3"],
    ["lo", "mid", "hi"],
];
/// Condition-variable alias table (lost-notify pattern).
const CONDS: [&str; 4] = ["c", "cv", "sig", "wake"];

/// Side-effect-free padding ops. Only local churn and scheduler hints —
/// never `sleep` (lint L004 territory) and never a shared access (which
/// would pollute benign twins with a real race).
const NOISE_POOL: [&str; 3] = ["nz = nz + 1;", "yield;", "nz = nz + 2;"];

/// One variant's structural knob draw. A buggy member and its benign
/// twin share the same knobs; only the guard discipline differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Knobs {
    /// Worker replicas (race/atom, 2–8), cycle length (dlock, 2–3), or
    /// waiter replicas (notif, 1–3).
    pub threads: u32,
    /// Index into the pattern's name-alias table (0 = canonical names).
    pub alias: usize,
    /// Race only: split the hot counter into two variables.
    pub split: bool,
    /// Number of noise ops (0–3) prepended to the mutating thread body.
    pub noise: u32,
    /// Left-rotation applied to the noise ops (0 when `noise < 2`).
    pub rot: u32,
}

impl Knobs {
    /// Draw a knob set for `pattern`. The draw order is part of the
    /// determinism contract: changing it changes every family.
    pub fn draw(pattern: Pattern, rng: &mut ChaCha8Rng) -> Knobs {
        let threads = match pattern {
            Pattern::Race | Pattern::SplitAtomic => rng.gen_range(2..9u32),
            Pattern::LockCycle => rng.gen_range(2..4u32),
            Pattern::LostNotify => rng.gen_range(1..4u32),
        };
        let alias = rng.gen_range(0..4u32) as usize;
        let split = matches!(pattern, Pattern::Race) && rng.gen_bool(0.25);
        let noise = rng.gen_range(0..4u32);
        let rot = if noise >= 2 {
            rng.gen_range(0..noise)
        } else {
            0
        };
        Knobs {
            threads,
            alias,
            split,
            noise,
            rot,
        }
    }

    /// The mutation record for a member built from these knobs.
    pub fn mutations(&self, pattern: Pattern, benign: bool) -> Vec<Mutation> {
        let mut v = Vec::new();
        match pattern {
            Pattern::Race | Pattern::SplitAtomic => {
                let guard = "l".to_string();
                v.push(match (pattern, benign) {
                    (_, true) => Mutation::GuardAdded { lock: guard },
                    (Pattern::Race, false) => Mutation::GuardRemoved { lock: guard },
                    (_, false) => Mutation::GuardSplit { lock: guard },
                });
                v.push(Mutation::ThreadCount {
                    threads: self.threads,
                });
                if self.alias != 0 {
                    v.push(Mutation::VarAliased {
                        from: HOT_VARS[0].to_string(),
                        to: HOT_VARS[self.alias].to_string(),
                    });
                }
                if self.split {
                    let hot = HOT_VARS[self.alias];
                    v.push(Mutation::VarSplit {
                        vars: vec![hot.to_string(), format!("{hot}2")],
                    });
                }
            }
            Pattern::LockCycle => {
                let locks: Vec<String> = LOCK_SETS[self.alias][..self.threads as usize]
                    .iter()
                    .map(|l| l.to_string())
                    .collect();
                v.push(if benign {
                    Mutation::OrderSorted { locks }
                } else {
                    Mutation::OrderCycled { locks }
                });
                v.push(Mutation::CycleLen {
                    locks: self.threads,
                });
                if self.alias != 0 {
                    v.push(Mutation::VarAliased {
                        from: LOCK_SETS[0][0].to_string(),
                        to: LOCK_SETS[self.alias][0].to_string(),
                    });
                }
            }
            Pattern::LostNotify => {
                let guard = "m".to_string();
                v.push(if benign {
                    Mutation::GuardAdded { lock: guard }
                } else {
                    Mutation::GuardRemoved { lock: guard }
                });
                v.push(Mutation::Waiters {
                    count: self.threads,
                });
                if self.alias != 0 {
                    v.push(Mutation::VarAliased {
                        from: CONDS[0].to_string(),
                        to: CONDS[self.alias].to_string(),
                    });
                }
            }
        }
        if self.noise > 0 {
            v.push(Mutation::NoiseOps { count: self.noise });
        }
        if self.rot > 0 {
            v.push(Mutation::OpsReordered { rotation: self.rot });
        }
        v
    }
}

/// The chosen noise ops after rotation, as raw statement text.
fn noise_lines(k: &Knobs) -> Vec<&'static str> {
    let mut v: Vec<&'static str> = NOISE_POOL[..k.noise as usize].to_vec();
    if !v.is_empty() {
        let r = k.rot as usize % v.len();
        v.rotate_left(r);
    }
    v
}

/// Emit the noise preamble (the `nz` local plus the rotated ops).
fn push_noise(b: &mut String, k: &Knobs) {
    if k.noise > 0 {
        b.push_str("local nz = 0;\n");
        for n in noise_lines(k) {
            b.push_str(n);
            b.push('\n');
        }
    }
}

/// Render the raw (pre-canonicalization) source of one member.
pub fn render(name: &str, pattern: Pattern, k: &Knobs, benign: bool) -> String {
    match pattern {
        Pattern::Race => race_src(name, k, benign),
        Pattern::LockCycle => lock_cycle_src(name, k, benign),
        Pattern::LostNotify => lost_notify_src(name, k, benign),
        Pattern::SplitAtomic => split_atomic_src(name, k, benign),
    }
}

/// Lost update: `threads` workers each run a read-modify-write on the
/// hot counter through a local temp; a checker spins (bounded, with a
/// lock-protected progress flag) and asserts the total. Buggy: the RMW
/// is unguarded (R001 data race; the compound update is also A001).
/// Benign: the whole RMW sits in one `lock (l)` block.
fn race_src(name: &str, k: &Knobs, benign: bool) -> String {
    let hot = HOT_VARS[k.alias];
    let hot2 = format!("{hot}2");
    let n = k.threads;
    let mut b = format!("program {name} {{\nvar {hot} = 0;\n");
    if k.split {
        b.push_str(&format!("var {hot2} = 0;\n"));
    }
    b.push_str("var done = 0;\nlock l;\n");

    b.push_str(&format!("thread worker * {n} {{\nlocal t;\n"));
    push_noise(&mut b, k);
    let rmw = |b: &mut String, v: &str| {
        b.push_str(&format!("t = {v};\nt = t + 1;\n{v} = t;\n"));
    };
    if benign {
        b.push_str("lock (l) {\n");
        rmw(&mut b, hot);
        if k.split {
            rmw(&mut b, &hot2);
        }
        b.push_str("}\n");
    } else {
        rmw(&mut b, hot);
        if k.split {
            rmw(&mut b, &hot2);
        }
    }
    b.push_str("lock (l) { done = done + 1; }\n}\n");

    b.push_str(&format!(
        "thread checker {{\nlocal d = 0;\nlocal spins = 0;\n\
         while (d < {n} && spins < 300) {{\nyield;\nspins = spins + 1;\n\
         lock (l) {{ d = done; }}\n}}\nif (d == {n}) {{\n"
    ));
    let asserts = {
        let mut a = format!("assert {hot} == {n} : \"no-lost-update\";\n");
        if k.split {
            a.push_str(&format!("assert {hot2} == {n} : \"no-lost-update\";\n"));
        }
        a
    };
    if benign {
        b.push_str(&format!("lock (l) {{\n{asserts}}}\n"));
    } else {
        b.push_str(&asserts);
    }
    b.push_str("}\n}\n}\n");
    b
}

/// Lock-cycle deadlock: `threads` threads each nest two of `threads`
/// locks with a `yield` in the window. Buggy: thread `i` acquires
/// `L[i]` then `L[i+1 mod n]` — a cycle (L006/D001, dynamically a real
/// deadlock). Benign: every thread acquires its pair in the global
/// sorted order, so the acquisition graph is acyclic. Each thread owns
/// a private global counter, which the escape analysis proves
/// thread-local — no race noise on top of the deadlock.
fn lock_cycle_src(name: &str, k: &Knobs, benign: bool) -> String {
    let n = k.threads as usize;
    let locks = &LOCK_SETS[k.alias][..n];
    let mut b = format!("program {name} {{\n");
    for i in 0..n {
        b.push_str(&format!("var n{i} = 0;\n"));
    }
    for l in locks {
        b.push_str(&format!("lock {l};\n"));
    }
    for i in 0..n {
        let j = (i + 1) % n;
        let (outer, inner) = if benign {
            (locks[i.min(j)], locks[i.max(j)])
        } else {
            (locks[i], locks[j])
        };
        b.push_str(&format!("thread p{i} {{\n"));
        push_noise(&mut b, k);
        b.push_str(&format!(
            "lock ({outer}) {{\nyield;\nlock ({inner}) {{ n{i} = n{i} + 1; }}\n}}\n}}\n"
        ));
    }
    b.push_str("}\n");
    b
}

/// Lost notify: waiters sit in a predicate loop on a volatile flag
/// (volatile keeps R001/L005 quiet — the injected bug is purely on the
/// signal side). Buggy: the signaller flips the flag and notifies
/// *without* the waiters' lock (L007) — the wakeup can land between a
/// waiter's predicate check and its `wait`, and is lost. Benign: flag
/// write and `notifyall` both under the lock.
fn lost_notify_src(name: &str, k: &Knobs, benign: bool) -> String {
    let cond = CONDS[k.alias];
    let w = k.threads;
    let mut b = format!(
        "program {name} {{\nvolatile var go = 0;\nlock m;\ncond {cond};\n\
         thread waiter * {w} {{\nacquire m;\nwhile (go == 0) {{\nwait({cond}, m);\n}}\n\
         release m;\n}}\nthread signaller {{\n"
    );
    push_noise(&mut b, k);
    if benign {
        b.push_str(&format!("lock (m) {{\ngo = 1;\nnotifyall {cond};\n}}\n"));
    } else {
        b.push_str(&format!("go = 1;\nnotifyall {cond};\n"));
    }
    b.push_str("}\n}\n");
    b
}

/// Split-lock atomicity violation: every single access to the hot
/// counter is under `l` (no lockset race), but the RMW spans *two*
/// critical sections with the lock released in between (A001). Benign:
/// one critical section covers the whole RMW.
fn split_atomic_src(name: &str, k: &Knobs, benign: bool) -> String {
    let hot = HOT_VARS[k.alias];
    let n = k.threads;
    let mut b = format!("program {name} {{\nvar {hot} = 0;\nvar done = 0;\nlock l;\n");
    b.push_str(&format!("thread worker * {n} {{\nlocal t;\n"));
    push_noise(&mut b, k);
    if benign {
        b.push_str(&format!(
            "lock (l) {{\nt = {hot};\nt = t + 1;\n{hot} = t;\n}}\n"
        ));
    } else {
        b.push_str(&format!(
            "lock (l) {{\nt = {hot};\n}}\nt = t + 1;\nlock (l) {{\n{hot} = t;\n}}\n"
        ));
    }
    b.push_str("lock (l) { done = done + 1; }\n}\n");
    b.push_str(&format!(
        "thread checker {{\nlocal d = 0;\nlocal spins = 0;\n\
         while (d < {n} && spins < 300) {{\nyield;\nspins = spins + 1;\n\
         lock (l) {{ d = done; }}\n}}\nif (d == {n}) {{\n\
         lock (l) {{\nassert {hot} == {n} : \"split-update-atomic\";\n}}\n}}\n}}\n}}\n"
    ));
    b
}

// ---------------------------------------------------------------------
// Manifest-line location
// ---------------------------------------------------------------------

/// Locate the bug-site lines of a buggy member in its canonical source:
/// the structural signature of each pattern, read back out of the
/// re-parsed AST so the recorded lines always match [`crate::GenProgram::src`].
pub fn manifest_lines(prog: &MiniProg, pattern: Pattern, k: &Knobs) -> Vec<u32> {
    let hot = HOT_VARS[k.alias];
    let hot2 = format!("{hot}2");
    let mut lines = Vec::new();
    for t in &prog.threads {
        walk(&t.body, &mut |s, locks, _| match (pattern, &s.kind) {
            // Unguarded writes to the hot counter(s).
            (Pattern::Race, StmtKind::Assign { target, .. })
                if locks.is_empty() && (*target == hot || *target == hot2) =>
            {
                lines.push(s.line)
            }
            // The inner acquisition of each nested pair.
            (Pattern::LockCycle, StmtKind::LockBlock { .. }) if locks.len() == 1 => {
                lines.push(s.line)
            }
            // The unlocked signal.
            (Pattern::LostNotify, StmtKind::Notify { .. }) if locks.is_empty() => {
                lines.push(s.line)
            }
            // The two halves of the split critical section: outer lock
            // blocks whose body assigns to or reads the hot counter.
            (Pattern::SplitAtomic, StmtKind::LockBlock { body, .. }) if locks.is_empty() => {
                let touches = body.iter().any(|inner| {
                    matches!(&inner.kind, StmtKind::Assign { target, value }
                        if *target == hot || value.reads().iter().any(|r| r == hot))
                });
                if touches {
                    lines.push(s.line);
                }
            }
            _ => {}
        });
    }
    lines.sort_unstable();
    lines.dedup();
    lines
}
