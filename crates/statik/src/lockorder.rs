//! The lock-order graph and the wait/notify matching pass.
//!
//! Nodes of the graph are **lock sites** — every `Acquire` node in every
//! thread's CFG, annotated with the locksets held there. Edges record the
//! order discipline the program actually follows: an edge `l1 → l2` exists
//! when some thread acquires `l2` while `l1` may already be held. Each
//! edge carries its contributing sites, the thread declarations that
//! realize it, the *effective* instance count (a `thread t * N` replica can
//! deadlock with itself), and the **gate set** — locks must-held at every
//! contributing acquisition of `l2`, minus `l1` and `l2`. (The dynamic
//! graph of `mtt-deadlock` gates an edge `a → b` by the locks the thread
//! acquired before `a` and still holds; each side keeps its own rule.)
//!
//! Cycle enumeration and gate intersection are `mtt_deadlock`'s
//! [`cycles`](mtt_deadlock::cycles) and
//! [`narrow_gate`](mtt_deadlock::narrow_gate), shared with the dynamic
//! analysis: cycles start at their smallest lock name, so the output is
//! independent of declaration order. A cycle is reported only when
//!
//! 1. at least two thread instances participate (two declarations, or one
//!    replicated declaration), and
//! 2. no **gate lock** is must-held around every edge — a common outer
//!    lock serializes the conflicting acquisitions and kills the cycle
//!    (the classic gate-lock false positive of naive lock-order analysis).
//!
//! Two consumers sit on top:
//!
//! * `analysis::analyze` keeps the surviving cycles as
//!   `AnalysisResult::deadlocks` and renders them as the D001 warnings;
//! * [`lints`] renders the same cycles as **L006** diagnostics anchored at
//!   the contributing acquisition sites, with per-edge evidence.
//!
//! The module also hosts the wait/notify matching pass, **L007
//! lost-notify**: a `notify c` executed while *not* holding the lock its
//! waiters pair with `c` can fire between a waiter's predicate check and
//! its `wait` — the signal lands on an empty wait set and is lost.

use crate::analysis::ThreadCtx;
use crate::ast::MiniProg;
use crate::cfg::NodeKind;
use crate::dataflow::LockSet;
use crate::diag::{Diagnostic, Severity};
use mtt_deadlock::narrow_gate;
use std::collections::{BTreeMap, BTreeSet};

/// One acquisition site: a node of the lock-order graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockSite {
    /// Owning thread declaration name.
    pub thread: String,
    /// Index of the owning declaration.
    pub thread_idx: usize,
    /// CFG node id of the `Acquire` within that thread.
    pub node: usize,
    /// The lock being acquired.
    pub lock: String,
    /// Source line of the acquisition.
    pub line: u32,
    /// Locks must-held on entry to the acquisition.
    pub held_must: LockSet,
    /// Locks may-held on entry to the acquisition.
    pub held_may: LockSet,
}

/// One edge `from → to`: `to` is acquired while `from` may be held.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LockEdge {
    /// Thread declarations realizing the edge.
    pub threads: BTreeSet<String>,
    /// Total thread instances across those declarations — the
    /// thread-reachability annotation (a single `* N` declaration with
    /// N ≥ 2 can realize both directions of a conflict by itself).
    pub effective_threads: u32,
    /// Locks must-held at *every* contributing acquisition, beyond the
    /// edge's own endpoints. `Some(∅)` = no common gate.
    pub gates: Option<LockSet>,
    /// Indices into [`LockOrderGraph::sites`] of the contributing
    /// acquisitions (the `to`-acquire sites).
    pub sites: Vec<usize>,
}

/// One enumerated acquisition-order cycle with its participation evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockCycle {
    /// The lock cycle, starting at its smallest lock name.
    pub locks: Vec<String>,
    /// Thread declarations contributing edges, sorted.
    pub threads: Vec<String>,
    /// Max effective instance count over the cycle's edges.
    pub effective_threads: u32,
    /// Locks must-held around *every* edge of the cycle (the gate set).
    pub gate: LockSet,
    /// Indices into [`LockOrderGraph::sites`] of every contributing
    /// acquisition around the cycle, sorted.
    pub sites: Vec<usize>,
}

impl LockCycle {
    /// Can at least two thread instances run the cycle's edges — two
    /// distinct declarations, or one declaration replicated?
    pub fn multi_threaded(&self) -> bool {
        self.threads.len() >= 2 || self.effective_threads >= 2
    }

    /// Is a gate lock must-held around every edge (suppressing the cycle)?
    pub fn gated(&self) -> bool {
        !self.gate.is_empty()
    }
}

/// The interprocedural (cross-thread) lock-order graph.
#[derive(Clone, Debug, Default)]
pub struct LockOrderGraph {
    /// Every acquisition site, in (thread, node) order.
    pub sites: Vec<LockSite>,
    /// Edges keyed `(from, to)`.
    pub edges: BTreeMap<(String, String), LockEdge>,
}

impl LockOrderGraph {
    /// Build the graph from the per-thread lockset fixpoints.
    pub fn build(threads: &[ThreadCtx]) -> Self {
        let mut g = LockOrderGraph::default();
        for (ti, td) in threads.iter().enumerate() {
            for n in td.cfg.ids() {
                if let NodeKind::Acquire(l2) = &td.cfg.nodes[n].kind {
                    let site_idx = g.sites.len();
                    g.sites.push(LockSite {
                        thread: td.name.clone(),
                        thread_idx: ti,
                        node: n,
                        lock: l2.clone(),
                        line: td.cfg.nodes[n].line,
                        held_must: td.must[n].clone(),
                        held_may: td.may[n].clone(),
                    });
                    for l1 in &td.may[n] {
                        if l1 == l2 {
                            continue;
                        }
                        let e = g.edges.entry((l1.clone(), l2.clone())).or_default();
                        e.threads.insert(td.name.clone());
                        e.effective_threads += td.count;
                        e.sites.push(site_idx);
                        let mut gate: LockSet = td.must[n].clone();
                        gate.remove(l1);
                        gate.remove(l2);
                        narrow_gate(&mut e.gates, gate);
                    }
                }
            }
        }
        g
    }

    /// Enumerate every elementary cycle through `mtt_deadlock::cycles`,
    /// the GoodLock rule the dynamic graph uses too: each cycle once,
    /// rotated to start at its smallest lock name, in ascending order. The
    /// result is independent of thread-declaration order (edges live in a
    /// name-keyed map).
    pub fn cycles(&self) -> Vec<LockCycle> {
        let names = self.edges.keys().map(|(a, b)| (a.as_str(), b.as_str()));
        mtt_deadlock::cycles(names)
            .into_iter()
            .map(|cycle| {
                let locks: Vec<String> = cycle.iter().map(|l| l.to_string()).collect();
                let mut threads: BTreeSet<String> = BTreeSet::new();
                let mut effective = 0u32;
                let mut gate = None;
                let mut sites: BTreeSet<usize> = BTreeSet::new();
                for (i, from) in locks.iter().enumerate() {
                    let to = &locks[(i + 1) % locks.len()];
                    let e = &self.edges[&(from.clone(), to.clone())];
                    threads.extend(e.threads.iter().cloned());
                    effective = effective.max(e.effective_threads);
                    sites.extend(e.sites.iter().copied());
                    narrow_gate(&mut gate, e.gates.clone().unwrap_or_default());
                }
                LockCycle {
                    locks,
                    threads: threads.into_iter().collect(),
                    effective_threads: effective,
                    gate: gate.unwrap_or_default(),
                    sites: sites.into_iter().collect(),
                }
            })
            .collect()
    }

    /// The cycles that survive suppression: multi-threaded and un-gated —
    /// the statically predicted deadlocks.
    pub fn deadlock_cycles(&self) -> Vec<LockCycle> {
        self.cycles()
            .into_iter()
            .filter(|c| c.multi_threaded() && !c.gated())
            .collect()
    }

    /// Smallest source line at which `lock` is acquired, if anywhere.
    pub fn acquire_line(&self, lock: &str) -> Option<u32> {
        self.sites
            .iter()
            .filter(|s| s.lock == lock && s.line > 0)
            .map(|s| s.line)
            .min()
    }
}

/// Render the surviving cycles as **L006** diagnostics, anchored at the
/// contributing acquisition sites with per-site evidence.
pub fn lints(prog_name: &str, graph: &LockOrderGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for cy in graph.deadlock_cycles() {
        let lines: Vec<u32> = cy
            .sites
            .iter()
            .map(|&i| graph.sites[i].line)
            .filter(|l| *l > 0)
            .collect();
        let anchor = lines.iter().copied().min().unwrap_or(0);
        let span = lines.iter().copied().max().unwrap_or(anchor);
        let mut d = Diagnostic::new(
            "L006",
            Severity::Warning,
            prog_name,
            anchor,
            format!(
                "locks {:?} form an acquisition-order cycle with no common gate",
                cy.locks
            ),
        )
        .span(span)
        .note(format!(
            "threads on the cycle: {:?} (effective instances: {})",
            cy.threads, cy.effective_threads
        ));
        for &i in &cy.sites {
            let s = &graph.sites[i];
            let held: Vec<&str> = s
                .held_may
                .iter()
                .filter(|h| h.as_str() != s.lock)
                .map(|h| h.as_str())
                .collect();
            d = d.note(format!(
                "`{}` acquired at line {} by thread `{}` while holding {:?}",
                s.lock, s.line, s.thread, held
            ));
        }
        out.push(d);
    }
    out
}

/// The wait/notify matching pass: **L007 lost-notify**.
///
/// For every condition variable that *is* waited on somewhere, each notify
/// site must hold (must-lockset) at least one of the locks the waiters
/// pair with the condition. A notify outside that lock can interleave
/// between a waiter's predicate check and its `wait` — the signal fires
/// while the wait set is empty and is lost, and the waiter blocks forever.
/// Conditions nobody waits on are L002's territory and are skipped here.
pub fn lost_notify(prog: &MiniProg, threads: &[ThreadCtx]) -> Vec<Diagnostic> {
    // cond -> sorted set of (paired lock, waiting thread, line).
    let mut waits: BTreeMap<&str, BTreeSet<(String, String, u32)>> = BTreeMap::new();
    for td in threads {
        for n in td.cfg.ids() {
            if let NodeKind::Wait { cond, lock } = &td.cfg.nodes[n].kind {
                waits.entry(cond.as_str()).or_default().insert((
                    lock.clone(),
                    td.name.clone(),
                    td.cfg.nodes[n].line,
                ));
            }
        }
    }
    let mut out = Vec::new();
    for td in threads {
        for n in td.cfg.ids() {
            let NodeKind::Notify { cond, .. } = &td.cfg.nodes[n].kind else {
                continue;
            };
            let Some(waiters) = waits.get(cond.as_str()) else {
                continue; // no waiter at all: L002, not L007
            };
            let waiter_locks: BTreeSet<&str> = waiters.iter().map(|(l, _, _)| l.as_str()).collect();
            let held = &td.must[n];
            if waiter_locks.iter().any(|l| held.contains(*l)) {
                continue;
            }
            let line = td.cfg.nodes[n].line;
            let mut d = Diagnostic::new(
                "L007",
                Severity::Warning,
                &prog.name,
                line,
                format!(
                    "`notify {cond}` in thread `{}` does not hold the lock its waiters \
                     pair with `{cond}`",
                    td.name
                ),
            );
            for (l, t, wl) in waiters {
                d = d.note(format!(
                    "thread `{t}` waits on `{cond}` with lock `{l}` at line {wl}; \
                     notifying without `{l}` can fire between the predicate check and \
                     the wait, and the signal is lost"
                ));
            }
            out.push(d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::parser::parse;

    fn codes(src: &str) -> Vec<String> {
        analyze(&parse(src).unwrap())
            .diagnostics
            .iter()
            .map(|d| d.code.clone())
            .collect()
    }

    fn graph_of(src: &str) -> LockOrderGraph {
        let prog = parse(src).unwrap();
        let threads: Vec<ThreadCtx> = prog.threads.iter().map(ThreadCtx::new).collect();
        LockOrderGraph::build(&threads)
    }

    #[test]
    fn sites_and_edges_are_annotated() {
        let g =
            graph_of("program p { lock a; lock b; thread t1 { lock (a) { lock (b) { skip; } } } }");
        assert_eq!(g.sites.len(), 2);
        let ab = &g.edges[&("a".to_string(), "b".to_string())];
        assert_eq!(ab.threads.len(), 1);
        assert_eq!(ab.effective_threads, 1);
        assert_eq!(ab.sites.len(), 1);
        let site = &g.sites[ab.sites[0]];
        assert_eq!(site.lock, "b");
        assert!(site.held_must.contains("a"));
        assert!(site.held_may.contains("a"));
    }

    #[test]
    fn two_lock_cycle_enumerated_once_canonically() {
        let g = graph_of(
            "program p { lock a; lock b; \
             thread t1 { lock (a) { lock (b) { skip; } } } \
             thread t2 { lock (b) { lock (a) { skip; } } } }",
        );
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert_eq!(cycles[0].locks, vec!["a".to_string(), "b".to_string()]);
        assert!(cycles[0].multi_threaded());
        assert!(!cycles[0].gated());
        assert_eq!(g.deadlock_cycles().len(), 1);
    }

    #[test]
    fn three_lock_cycle_found() {
        let g = graph_of(
            "program p { lock a; lock b; lock c; \
             thread t1 { lock (a) { lock (b) { skip; } } } \
             thread t2 { lock (b) { lock (c) { skip; } } } \
             thread t3 { lock (c) { lock (a) { skip; } } } }",
        );
        let dl = g.deadlock_cycles();
        assert_eq!(dl.len(), 1, "{dl:?}");
        assert_eq!(
            dl[0].locks,
            vec!["a".to_string(), "b".to_string(), "c".to_string()]
        );
        assert_eq!(dl[0].threads.len(), 3);
    }

    #[test]
    fn gate_lock_suppresses_cycle_but_enumeration_sees_it() {
        let g = graph_of(
            "program p { lock g; lock a; lock b; \
             thread t1 { lock (g) { lock (a) { lock (b) { skip; } } } } \
             thread t2 { lock (g) { lock (b) { lock (a) { skip; } } } } }",
        );
        let all: Vec<LockCycle> = g
            .cycles()
            .into_iter()
            .filter(|c| c.locks == vec!["a".to_string(), "b".to_string()])
            .collect();
        assert_eq!(all.len(), 1);
        assert!(all[0].gated(), "gate `g` recorded: {:?}", all[0].gate);
        assert!(g.deadlock_cycles().is_empty());
    }

    #[test]
    fn l006_fires_with_site_evidence() {
        let r = analyze(
            &parse(
                "program p { lock a; lock b; \
                 thread t1 { lock (a) { lock (b) { skip; } } } \
                 thread t2 { lock (b) { lock (a) { skip; } } } }",
            )
            .unwrap(),
        );
        let l006: Vec<_> = r.diagnostics.iter().filter(|d| d.code == "L006").collect();
        assert_eq!(l006.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(l006[0].bug_class, "Deadlock");
        assert!(l006[0].evidence.iter().any(|e| e.contains("while holding")));
        // D001 still present alongside: the analysis warning survives.
        assert!(r.diagnostics.iter().any(|d| d.code == "D001"));
    }

    #[test]
    fn l007_fires_for_unlocked_notify_with_real_waiter() {
        let c = codes(
            "program p { volatile var go; lock m; cond c; \
             thread w { acquire m; while (go == 0) { wait(c, m); } release m; } \
             thread s { go = 1; notify c; } }",
        );
        assert!(c.contains(&"L007".to_string()), "{c:?}");
        // The waiter uses a predicate loop, so L001 must stay silent.
        assert!(!c.contains(&"L001".to_string()), "{c:?}");
    }

    #[test]
    fn l007_silent_when_notify_holds_the_waiters_lock() {
        let c = codes(
            "program p { var go; lock m; cond c; \
             thread w { acquire m; while (go == 0) { wait(c, m); } release m; } \
             thread s { lock (m) { go = 1; notify c; } } }",
        );
        assert!(!c.contains(&"L007".to_string()), "{c:?}");
    }

    #[test]
    fn l007_silent_for_orphan_notify() {
        // No waiter on `launch`: L002's territory, not L007's.
        let c = codes(
            "program p { var go; lock m; cond ready; cond launch; \
             thread w { acquire m; while (go == 0) { wait(ready, m); } release m; } \
             thread s { go = 1; notify launch; } }",
        );
        assert!(!c.contains(&"L007".to_string()), "{c:?}");
        assert!(c.contains(&"L002".to_string()), "{c:?}");
    }
}
