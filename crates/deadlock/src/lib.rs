//! # mtt-deadlock — deadlock detection
//!
//! §2.2 of the paper: "Tools exist which can examine traces for evidence of
//! deadlock potentials. Specifically they look for cycles in lock graphs"
//! (citing Harrow's Visual Threads and Havelund's own GoodLock/JPaX work).
//! This crate provides both flavours:
//!
//! * [`LockOrderGraph`] — the GoodLock-style analysis: build the
//!   lock-acquisition-order graph (edge `a → b` when some thread acquires
//!   `b` while holding `a`) and report cycles as *deadlock potentials*,
//!   even in executions that completed without deadlocking. Two classic
//!   refinements reduce false alarms: cycles whose edges all come from a
//!   single thread are suppressed (a thread cannot deadlock with itself),
//!   and cycles protected by a common *gate lock* held around every
//!   acquisition are suppressed (the gate serializes the cycle).
//! * [`WaitsForMonitor`] — an online watchdog over `LockRequest`/
//!   `LockAcquire`/`LockRelease` events that reports the waits-for cycle at
//!   the moment an actual deadlock closes. (The model runtime also detects
//!   actual deadlock natively; the monitor exists so that *trace* consumers
//!   get the same signal offline.)
//!
//! Both are [`mtt_instrument::EventSink`]s: attach them to a live execution
//! or feed them a stored [`mtt_trace::Trace`].

use mtt_instrument::{Event, EventSink, Loc, LockId, Op, ThreadId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One deadlock-potential warning: a cycle in the lock-order graph.
#[derive(Clone, Debug)]
pub struct DeadlockPotential {
    /// The locks forming the cycle, in order (`cycle[i]` is held while
    /// acquiring `cycle[(i+1) % n]`).
    pub cycle: Vec<LockId>,
    /// Threads contributing edges to the cycle.
    pub threads: Vec<ThreadId>,
    /// A sample acquisition location per edge.
    pub edge_locs: Vec<Loc>,
}

/// Evidence for one lock-order edge `from → to`.
#[derive(Clone, Debug, Default)]
struct EdgeInfo {
    /// Threads that performed this nested acquisition.
    threads: BTreeSet<ThreadId>,
    /// Locks held (besides `from`) at *every* instance of the edge — gate
    /// candidates. `None` until the first instance.
    gates: Option<BTreeSet<LockId>>,
    /// Sample location of the inner acquisition.
    loc: Option<Loc>,
}

/// GoodLock-style lock-order-graph analyzer.
#[derive(Debug, Default)]
pub struct LockOrderGraph {
    /// Currently held locks per thread (reconstructed from events so the
    /// analyzer also works on traces that lack `locks_held` context).
    held: HashMap<ThreadId, Vec<LockId>>,
    edges: BTreeMap<(LockId, LockId), EdgeInfo>,
    /// Maximum cycle length searched (guards pathological graphs).
    pub max_cycle_len: usize,
}

impl LockOrderGraph {
    /// Fresh analyzer.
    pub fn new() -> Self {
        LockOrderGraph {
            max_cycle_len: 6,
            ..Default::default()
        }
    }

    /// Number of distinct lock-order edges observed.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Is the edge `from → to` present?
    pub fn has_edge(&self, from: LockId, to: LockId) -> bool {
        self.edges.contains_key(&(from, to))
    }

    /// Enumerate deadlock potentials: simple cycles in the lock-order graph
    /// that (a) involve at least two distinct threads and (b) have no
    /// common gate lock across all edges.
    pub fn potentials(&self) -> Vec<DeadlockPotential> {
        let locks: BTreeSet<LockId> = self.edges.keys().flat_map(|(a, b)| [*a, *b]).collect();
        let succ: BTreeMap<LockId, Vec<LockId>> = {
            let mut m: BTreeMap<LockId, Vec<LockId>> = BTreeMap::new();
            for (a, b) in self.edges.keys() {
                m.entry(*a).or_default().push(*b);
            }
            m
        };

        let mut found: Vec<Vec<LockId>> = Vec::new();
        // DFS from each lock; only keep cycles whose minimum element is the
        // start (canonical form — dedups rotations).
        for &start in &locks {
            let mut path = vec![start];
            self.dfs_cycles(start, start, &succ, &mut path, &mut found);
        }

        found
            .into_iter()
            .filter_map(|cycle| self.qualify(&cycle))
            .collect()
    }

    fn dfs_cycles(
        &self,
        start: LockId,
        cur: LockId,
        succ: &BTreeMap<LockId, Vec<LockId>>,
        path: &mut Vec<LockId>,
        found: &mut Vec<Vec<LockId>>,
    ) {
        if path.len() > self.max_cycle_len {
            return;
        }
        if let Some(nexts) = succ.get(&cur) {
            for &n in nexts {
                if n == start && path.len() >= 2 {
                    found.push(path.clone());
                } else if n > start && !path.contains(&n) {
                    // `n > start` keeps the smallest lock first: canonical.
                    path.push(n);
                    self.dfs_cycles(start, n, succ, path, found);
                    path.pop();
                }
            }
        }
    }

    /// Apply the single-thread and gate-lock suppressions; build the report.
    fn qualify(&self, cycle: &[LockId]) -> Option<DeadlockPotential> {
        let n = cycle.len();
        let mut threads: BTreeSet<ThreadId> = BTreeSet::new();
        let mut common_gates: Option<BTreeSet<LockId>> = None;
        let mut edge_locs = Vec::with_capacity(n);

        for i in 0..n {
            let e = self.edges.get(&(cycle[i], cycle[(i + 1) % n]))?;
            threads.extend(e.threads.iter().copied());
            edge_locs.push(e.loc.unwrap_or(Loc::SYNTHETIC));
            let gates = e.gates.clone().unwrap_or_default();
            common_gates = Some(match common_gates {
                None => gates,
                Some(mut acc) => {
                    acc.retain(|l| gates.contains(l));
                    acc
                }
            });
        }

        // Single-thread suppression: if only one thread ever takes these
        // edges (and every edge is that thread's), no inter-thread deadlock.
        if threads.len() < 2 {
            return None;
        }
        // Gate-lock suppression.
        if common_gates.as_ref().is_some_and(|g| !g.is_empty()) {
            return None;
        }
        Some(DeadlockPotential {
            cycle: cycle.to_vec(),
            threads: threads.into_iter().collect(),
            edge_locs,
        })
    }
}

impl EventSink for LockOrderGraph {
    fn on_event(&mut self, ev: &Event) {
        match ev.op {
            Op::LockAcquire { lock } => {
                let held = self.held.entry(ev.thread).or_default();
                let holding = held.clone();
                held.push(lock);
                for (i, &h) in holding.iter().enumerate() {
                    let gate_set: BTreeSet<LockId> = holding[..i].iter().copied().collect();
                    let e = self.edges.entry((h, lock)).or_default();
                    e.threads.insert(ev.thread);
                    e.loc.get_or_insert(ev.loc);
                    e.gates = Some(match e.gates.take() {
                        None => gate_set,
                        Some(mut acc) => {
                            acc.retain(|l| gate_set.contains(l));
                            acc
                        }
                    });
                }
            }
            Op::LockRelease { lock } => {
                if let Some(held) = self.held.get_mut(&ev.thread) {
                    held.retain(|l| *l != lock);
                }
            }
            // `wait` releases the lock, `wake` re-acquires it — but a wake
            // inside a wait re-establishes only the waited lock, creating
            // no new order edges; treat as release/acquire of that lock.
            Op::CondWait { lock, .. } => {
                if let Some(held) = self.held.get_mut(&ev.thread) {
                    held.retain(|l| *l != lock);
                }
            }
            Op::CondWake { lock, .. } => {
                self.held.entry(ev.thread).or_default().push(lock);
            }
            _ => {}
        }
    }

    fn has_findings(&self) -> bool {
        !self.potentials().is_empty()
    }
}

/// An actual-deadlock cycle observed by the online monitor.
#[derive(Clone, Debug)]
pub struct DeadlockOccurrence {
    /// Threads in the waits-for cycle.
    pub threads: Vec<ThreadId>,
    /// The lock each thread in the cycle is waiting for.
    pub waiting_for: Vec<LockId>,
}

/// Online waits-for monitor: reports the cycle the moment every thread in
/// it is waiting for a lock held by the next.
#[derive(Debug, Default)]
pub struct WaitsForMonitor {
    owner: HashMap<LockId, ThreadId>,
    waiting: HashMap<ThreadId, LockId>,
    /// Observed actual deadlocks (normally at most one per execution).
    pub occurrences: Vec<DeadlockOccurrence>,
}

impl WaitsForMonitor {
    /// Fresh monitor.
    pub fn new() -> Self {
        Self::default()
    }

    fn check_cycle(&mut self, start: ThreadId) {
        // Follow thread -> wanted lock -> owner chains.
        let mut path = vec![start];
        let mut cur = start;
        loop {
            let lock = match self.waiting.get(&cur) {
                Some(l) => *l,
                None => return,
            };
            let owner = match self.owner.get(&lock) {
                Some(o) => *o,
                None => return,
            };
            if owner == start {
                // Cycle closed.
                let waiting_for: Vec<LockId> = path.iter().map(|t| self.waiting[t]).collect();
                self.occurrences.push(DeadlockOccurrence {
                    threads: path,
                    waiting_for,
                });
                return;
            }
            if path.contains(&owner) {
                return; // cycle not through start; will be caught from there
            }
            path.push(owner);
            cur = owner;
        }
    }
}

impl EventSink for WaitsForMonitor {
    fn on_event(&mut self, ev: &Event) {
        match ev.op {
            Op::LockRequest { lock } => {
                self.waiting.insert(ev.thread, lock);
                self.check_cycle(ev.thread);
            }
            Op::LockAcquire { lock } => {
                self.waiting.remove(&ev.thread);
                self.owner.insert(lock, ev.thread);
            }
            Op::LockRelease { lock } => {
                self.owner.remove(&lock);
            }
            Op::CondWait { lock, .. } => {
                self.owner.remove(&lock);
            }
            Op::CondWake { lock, .. } => {
                self.owner.insert(lock, ev.thread);
            }
            _ => {}
        }
    }

    fn has_findings(&self) -> bool {
        !self.occurrences.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(seq: u64, thread: u32, op: Op) -> Event {
        Event {
            seq,
            time: seq,
            thread: ThreadId(thread),
            loc: Loc::new("d", seq as u32 + 1),
            op,
            locks_held: Arc::from(Vec::<LockId>::new()),
        }
    }

    fn acq(seq: u64, t: u32, l: u32) -> Event {
        ev(seq, t, Op::LockAcquire { lock: LockId(l) })
    }

    fn rel(seq: u64, t: u32, l: u32) -> Event {
        ev(seq, t, Op::LockRelease { lock: LockId(l) })
    }

    fn req(seq: u64, t: u32, l: u32) -> Event {
        ev(seq, t, Op::LockRequest { lock: LockId(l) })
    }

    #[test]
    fn ab_ba_potential_found_even_without_actual_deadlock() {
        let mut g = LockOrderGraph::new();
        // t0: a then b (completed fine).
        g.on_event(&acq(0, 0, 0));
        g.on_event(&acq(1, 0, 1));
        g.on_event(&rel(2, 0, 1));
        g.on_event(&rel(3, 0, 0));
        // Later t1: b then a (also completed fine).
        g.on_event(&acq(4, 1, 1));
        g.on_event(&acq(5, 1, 0));
        g.on_event(&rel(6, 1, 0));
        g.on_event(&rel(7, 1, 1));
        let pots = g.potentials();
        assert_eq!(pots.len(), 1, "one AB-BA cycle expected");
        assert_eq!(pots[0].cycle.len(), 2);
        assert_eq!(pots[0].threads.len(), 2);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(LockId(0), LockId(1)));
        assert!(g.has_edge(LockId(1), LockId(0)));
    }

    #[test]
    fn consistent_order_is_clean() {
        let mut g = LockOrderGraph::new();
        for t in 0..3u32 {
            let base = u64::from(t) * 4;
            g.on_event(&acq(base, t, 0));
            g.on_event(&acq(base + 1, t, 1));
            g.on_event(&rel(base + 2, t, 1));
            g.on_event(&rel(base + 3, t, 0));
        }
        assert!(g.potentials().is_empty());
    }

    #[test]
    fn single_thread_cycle_is_suppressed() {
        let mut g = LockOrderGraph::new();
        // One thread takes a→b and also b→a (sequentially; cannot deadlock).
        g.on_event(&acq(0, 0, 0));
        g.on_event(&acq(1, 0, 1));
        g.on_event(&rel(2, 0, 1));
        g.on_event(&rel(3, 0, 0));
        g.on_event(&acq(4, 0, 1));
        g.on_event(&acq(5, 0, 0));
        g.on_event(&rel(6, 0, 0));
        g.on_event(&rel(7, 0, 1));
        assert_eq!(g.edge_count(), 2);
        assert!(
            g.potentials().is_empty(),
            "single-thread cycles cannot deadlock"
        );
    }

    #[test]
    fn gate_lock_suppresses_cycle() {
        let mut g = LockOrderGraph::new();
        // Both threads take the gate g(2) around their opposite-order pairs.
        for (t, (first, second)) in [(0u32, (0u32, 1u32)), (1, (1, 0))] {
            let base = u64::from(t) * 6 + 100;
            g.on_event(&acq(base, t, 2)); // gate
            g.on_event(&acq(base + 1, t, first));
            g.on_event(&acq(base + 2, t, second));
            g.on_event(&rel(base + 3, t, second));
            g.on_event(&rel(base + 4, t, first));
            g.on_event(&rel(base + 5, t, 2));
        }
        assert!(
            g.potentials().is_empty(),
            "common gate lock serializes the cycle"
        );
    }

    #[test]
    fn three_way_cycle_detected() {
        let mut g = LockOrderGraph::new();
        // t0: a→b, t1: b→c, t2: c→a.
        let pairs = [(0u32, 0u32, 1u32), (1, 1, 2), (2, 2, 0)];
        for (t, x, y) in pairs {
            let base = u64::from(t) * 4 + 10;
            g.on_event(&acq(base, t, x));
            g.on_event(&acq(base + 1, t, y));
            g.on_event(&rel(base + 2, t, y));
            g.on_event(&rel(base + 3, t, x));
        }
        let pots = g.potentials();
        assert_eq!(pots.len(), 1);
        assert_eq!(pots[0].cycle.len(), 3);
        assert_eq!(pots[0].threads.len(), 3);
    }

    #[test]
    fn waits_for_monitor_catches_closing_cycle() {
        let mut m = WaitsForMonitor::new();
        m.on_event(&acq(0, 0, 0)); // t0 holds a
        m.on_event(&acq(1, 1, 1)); // t1 holds b
        m.on_event(&req(2, 0, 1)); // t0 wants b — no cycle yet
        assert!(m.occurrences.is_empty());
        m.on_event(&req(3, 1, 0)); // t1 wants a — cycle closes
        assert_eq!(m.occurrences.len(), 1);
        let occ = &m.occurrences[0];
        assert_eq!(occ.threads.len(), 2);
        assert!(occ.threads.contains(&ThreadId(0)));
        assert!(occ.threads.contains(&ThreadId(1)));
    }

    #[test]
    fn waits_for_monitor_ignores_resolved_waits() {
        let mut m = WaitsForMonitor::new();
        m.on_event(&acq(0, 0, 0));
        m.on_event(&req(1, 1, 0)); // t1 waits for t0 — no cycle
        m.on_event(&rel(2, 0, 0));
        m.on_event(&acq(3, 1, 0)); // wait resolved
        m.on_event(&rel(4, 1, 0));
        assert!(m.occurrences.is_empty());
    }

    #[test]
    fn three_thread_waits_for_cycle() {
        let mut m = WaitsForMonitor::new();
        m.on_event(&acq(0, 0, 0));
        m.on_event(&acq(1, 1, 1));
        m.on_event(&acq(2, 2, 2));
        m.on_event(&req(3, 0, 1));
        m.on_event(&req(4, 1, 2));
        assert!(m.occurrences.is_empty());
        m.on_event(&req(5, 2, 0));
        assert_eq!(m.occurrences.len(), 1);
        assert_eq!(m.occurrences[0].threads.len(), 3);
    }

    #[test]
    fn nested_gate_tracking_distinguishes_outer_locks() {
        let mut g = LockOrderGraph::new();
        // t0 takes a→b with gate; t1 takes b→a WITHOUT gate: the gate is
        // not common, so the cycle must be reported.
        g.on_event(&acq(0, 0, 2));
        g.on_event(&acq(1, 0, 0));
        g.on_event(&acq(2, 0, 1));
        g.on_event(&rel(3, 0, 1));
        g.on_event(&rel(4, 0, 0));
        g.on_event(&rel(5, 0, 2));
        g.on_event(&acq(6, 1, 1));
        g.on_event(&acq(7, 1, 0));
        g.on_event(&rel(8, 1, 0));
        g.on_event(&rel(9, 1, 1));
        assert_eq!(g.potentials().len(), 1);
    }
}
