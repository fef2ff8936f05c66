//! A reusable forward worklist/fixpoint engine for CFG dataflow analyses.
//!
//! Every static pass in this crate that walks a [`Cfg`] to a fixpoint —
//! must/may locksets and reaching definitions, each solved once per thread
//! in `ThreadCtx::new` — is an instance of the same scheme: a per-node
//! *fact*, a *transfer* function describing what one node does to the
//! fact, and a *join* describing how facts merge where control-flow paths
//! meet. [`solve`] runs the scheme to fixpoint with a deduplicating
//! worklist.
//!
//! The engine is forward-only (MiniProg needs nothing else) and treats
//! unreachable nodes as "no fact" (`None` in [`Solution::before`]), which
//! is the analysis-agnostic encoding of ⊤: a node no path reaches imposes
//! no constraint.

use crate::cfg::Cfg;
use std::collections::BTreeSet;
use std::collections::VecDeque;

/// One forward dataflow problem over a [`Cfg`].
pub trait Dataflow {
    /// The per-node fact. Equality drives fixpoint detection.
    type Fact: Clone + PartialEq;

    /// Fact holding on entry to the CFG's entry node.
    fn boundary(&self) -> Self::Fact;

    /// Fact after executing `node`, given the fact before it.
    fn transfer(&self, cfg: &Cfg, node: usize, before: &Self::Fact) -> Self::Fact;

    /// Merge two facts where paths join (must = intersection-like,
    /// may = union-like).
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;
}

/// Fixpoint solution of one [`Dataflow`] problem.
#[derive(Clone, Debug)]
pub struct Solution<F> {
    /// Fact on entry to each node; `None` for unreachable nodes.
    pub before: Vec<Option<F>>,
    /// Fact on exit of each node; `None` for unreachable nodes.
    pub after: Vec<Option<F>>,
    /// Node visits performed before the fixpoint stabilized (a measure of
    /// work, exposed for benchmarks and regression guards).
    pub iterations: u64,
}

impl<F: Clone + Default> Solution<F> {
    /// Entry fact of `node`, defaulted for unreachable nodes.
    pub fn before_or_default(&self, node: usize) -> F {
        self.before[node].clone().unwrap_or_default()
    }

    /// Entry facts for all nodes, defaulted where unreachable.
    pub fn before_all(&self) -> Vec<F> {
        self.before
            .iter()
            .map(|f| f.clone().unwrap_or_default())
            .collect()
    }
}

/// Run `analysis` over `cfg` to fixpoint.
pub fn solve<A: Dataflow>(cfg: &Cfg, analysis: &A) -> Solution<A::Fact> {
    let n = cfg.nodes.len();
    let mut before: Vec<Option<A::Fact>> = vec![None; n];
    let mut after: Vec<Option<A::Fact>> = vec![None; n];
    before[cfg.entry] = Some(analysis.boundary());

    let mut work: VecDeque<usize> = VecDeque::new();
    let mut queued = vec![false; n];
    work.push_back(cfg.entry);
    queued[cfg.entry] = true;

    let mut iterations = 0u64;
    while let Some(node) = work.pop_front() {
        queued[node] = false;
        iterations += 1;
        let input = before[node]
            .clone()
            .expect("only reached nodes are ever queued");
        let output = analysis.transfer(cfg, node, &input);
        let changed_out = after[node].as_ref() != Some(&output);
        after[node] = Some(output.clone());
        if !changed_out {
            continue;
        }
        for &succ in &cfg.succ[node] {
            let merged = match &before[succ] {
                None => output.clone(),
                Some(cur) => analysis.join(cur, &output),
            };
            if before[succ].as_ref() != Some(&merged) {
                before[succ] = Some(merged);
                if !queued[succ] {
                    work.push_back(succ);
                    queued[succ] = true;
                }
            }
        }
    }

    Solution {
        before,
        after,
        iterations,
    }
}

// ---------------------------------------------------------------------
// Lockset analyses: the first clients of the engine
// ---------------------------------------------------------------------

/// A set of lock names.
pub type LockSet = BTreeSet<String>;

/// Locks held on entry to each node. `must` selects the join: intersection
/// (held on *every* path) vs union (held on *some* path).
pub struct LocksHeld {
    /// Intersection join (must analysis) when true; union (may) otherwise.
    pub must: bool,
}

impl Dataflow for LocksHeld {
    type Fact = LockSet;

    fn boundary(&self) -> LockSet {
        LockSet::new()
    }

    fn transfer(&self, cfg: &Cfg, node: usize, before: &LockSet) -> LockSet {
        use crate::cfg::NodeKind;
        let mut set = before.clone();
        match &cfg.nodes[node].kind {
            NodeKind::Acquire(l) => {
                set.insert(l.clone());
            }
            NodeKind::Release(l) => {
                set.remove(l);
            }
            // A wait releases and re-acquires its lock: the held-set is
            // unchanged across the node.
            _ => {}
        }
        set
    }

    fn join(&self, a: &LockSet, b: &LockSet) -> LockSet {
        if self.must {
            a.intersection(b).cloned().collect()
        } else {
            a.union(b).cloned().collect()
        }
    }
}

/// Locks held on entry to every node (unreachable nodes get the empty set).
pub fn held_locks(cfg: &Cfg, must: bool) -> Vec<LockSet> {
    solve(cfg, &LocksHeld { must }).before_all()
}

// ---------------------------------------------------------------------
// Reaching definitions (the atomicity and independence passes)
// ---------------------------------------------------------------------

/// A definition: (variable name, defining node id).
pub type Defs = BTreeSet<(String, usize)>;

/// Which (local) definitions reach each node. Gen = the node's write,
/// kill = every other definition of the same name; join = union (a
/// definition reaches along *some* path).
pub struct ReachingDefs;

impl Dataflow for ReachingDefs {
    type Fact = Defs;

    fn boundary(&self) -> Defs {
        Defs::new()
    }

    fn transfer(&self, cfg: &Cfg, node: usize, before: &Defs) -> Defs {
        use crate::cfg::NodeKind;
        let mut set = before.clone();
        if let NodeKind::Compute { write: Some(w), .. } = &cfg.nodes[node].kind {
            set.retain(|(name, _)| name != w);
            set.insert((w.clone(), node));
        }
        set
    }

    fn join(&self, a: &Defs, b: &Defs) -> Defs {
        a.union(b).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use crate::cfg::NodeKind;
    use crate::parser::parse;

    fn cfg_of(src: &str) -> crate::cfg::Cfg {
        build_cfg(&parse(src).unwrap().threads[0])
    }

    #[test]
    fn diamond_must_join_is_intersection_may_is_union() {
        // A diamond CFG: the lock is acquired on only one branch, so at the
        // join it is MAY-held but not MUST-held. This is the regression
        // guard for the join direction: a union join in the must analysis
        // would wrongly bless the unlocked path.
        let c = cfg_of(
            "program p { var x; lock l; thread t { \
               if (x) { acquire l; } else { skip; } \
               x = 1; \
               if (x) { release l; } } }",
        );
        let must = held_locks(&c, true);
        let may = held_locks(&c, false);
        let write = c
            .ids()
            .find(|&i| {
                matches!(&c.nodes[i].kind, NodeKind::Compute { write: Some(w), .. } if w == "x")
            })
            .expect("the x = 1 node");
        assert!(
            must[write].is_empty(),
            "must-held at the diamond join must be the intersection (= empty), got {:?}",
            must[write]
        );
        assert_eq!(
            may[write],
            ["l".to_string()].into_iter().collect::<LockSet>(),
            "may-held at the diamond join must be the union"
        );
    }

    #[test]
    fn both_branches_acquiring_is_must_held() {
        let c = cfg_of(
            "program p { var x; lock l; thread t { \
               if (x) { acquire l; } else { acquire l; } \
               x = 1; release l; } }",
        );
        let must = held_locks(&c, true);
        let write = c
            .ids()
            .find(|&i| {
                matches!(&c.nodes[i].kind, NodeKind::Compute { write: Some(w), .. } if w == "x")
            })
            .unwrap();
        assert!(must[write].contains("l"));
    }

    #[test]
    fn loop_reaches_fixpoint_with_release_in_body() {
        // Acquire before a loop that releases and re-acquires: the loop
        // head sees {l} from outside and {l} from the back edge; the body
        // interior differs. The solver must terminate and be consistent.
        let c = cfg_of(
            "program p { var x; lock l; thread t { \
               acquire l; \
               while (x < 3) { release l; x = x + 1; acquire l; } \
               release l; } }",
        );
        let must = held_locks(&c, true);
        let may = held_locks(&c, false);
        for n in c.ids() {
            // must ⊆ may everywhere: the two analyses must be ordered.
            assert!(
                must[n].is_subset(&may[n]),
                "node {n}: must {:?} ⊄ may {:?}",
                must[n],
                may[n]
            );
        }
    }

    #[test]
    fn unreachable_nodes_have_no_fact() {
        // build_cfg never produces unreachable nodes (structured programs),
        // so hand-build a graph with a disconnected node to pin the
        // engine's unreachable = None contract.
        use crate::cfg::{Cfg, Node};
        let node = |kind: NodeKind| Node { line: 0, kind };
        let c = Cfg {
            nodes: vec![
                node(NodeKind::Entry),
                node(NodeKind::Exit),
                node(NodeKind::Acquire("l".into())),
            ],
            succ: vec![vec![1], vec![], vec![1]],
            entry: 0,
            exit: 1,
        };
        let sol = solve(&c, &LocksHeld { must: true });
        assert!(sol.before[2].is_none(), "disconnected node has no fact");
        assert_eq!(sol.before_or_default(2), LockSet::new());
        assert_eq!(sol.before[1], Some(LockSet::new()));
    }

    #[test]
    fn reaching_defs_kill_and_gen() {
        let c = cfg_of(
            "program p { var x; thread t { \
               local a = 1; \
               if (x) { a = 2; } \
               x = a; } }",
        );
        let sol = solve(&c, &ReachingDefs);
        let use_node = c
            .ids()
            .find(|&i| {
                matches!(&c.nodes[i].kind, NodeKind::Compute { write: Some(w), .. } if w == "x")
            })
            .unwrap();
        let defs = sol.before[use_node].clone().unwrap();
        let a_defs: Vec<usize> = defs
            .iter()
            .filter(|(n, _)| n == "a")
            .map(|(_, d)| *d)
            .collect();
        assert_eq!(
            a_defs.len(),
            2,
            "both the init and the branch redefinition reach the use: {defs:?}"
        );
    }

    #[test]
    fn straight_line_def_is_killed_by_redefinition() {
        let c = cfg_of("program p { var x; thread t { local a = 1; a = 2; x = a; } }");
        let sol = solve(&c, &ReachingDefs);
        let use_node = c
            .ids()
            .find(|&i| {
                matches!(&c.nodes[i].kind, NodeKind::Compute { write: Some(w), .. } if w == "x")
            })
            .unwrap();
        let defs = sol.before[use_node].clone().unwrap();
        assert_eq!(
            defs.iter().filter(|(n, _)| n == "a").count(),
            1,
            "the second assignment kills the first: {defs:?}"
        );
    }

    #[test]
    fn solver_iteration_count_is_bounded() {
        let c = cfg_of(
            "program p { var x; lock l; thread t { \
               while (x < 10) { lock (l) { x = x + 1; } } } }",
        );
        let sol = solve(&c, &LocksHeld { must: true });
        // Deduplicating worklist: a handful of sweeps, not quadratic blowup.
        assert!(
            sol.iterations < (c.nodes.len() as u64) * 4,
            "{} iterations for {} nodes",
            sol.iterations,
            c.nodes.len()
        );
    }
}
