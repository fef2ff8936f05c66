//! Properties of the lock-order graph and the static-independence oracle
//! on arbitrary programs:
//!
//! * `LockOrderGraph::build` is deterministic, and its edge/cycle sets are
//!   invariant under permutation of the thread declarations (edges live in
//!   a name-keyed map, cycles enumerate sorted lock names).
//! * `StaticIndependence` is symmetric, and never marks a pair of lines
//!   independent when both lines write the same shared variable from
//!   may-happen-in-parallel threads without a common must-held lock.

use mtt_static::{analyze, parse, print, LockOrderGraph, MiniProg, NodeKind, ThreadCtx};
use proptest::prelude::*;
use std::collections::BTreeSet;

mod proputil;
use proputil::arb_prog;

/// The per-thread dataflow contexts `analyze` feeds the graph builder.
fn ctxs(prog: &MiniProg) -> Vec<ThreadCtx> {
    prog.threads.iter().map(ThreadCtx::new).collect()
}

/// The order-independent view of a cycle (site indices shift when threads
/// are reordered; names, gates and instance counts must not).
fn cycle_key(c: &mtt_static::LockCycle) -> (Vec<String>, Vec<String>, u32, Vec<String>) {
    (
        c.locks.clone(),
        c.threads.clone(),
        c.effective_threads,
        c.gate.iter().cloned().collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lock_order_graph_is_deterministic(prog in arb_prog()) {
        let a = LockOrderGraph::build(&ctxs(&prog));
        let b = LockOrderGraph::build(&ctxs(&prog));
        prop_assert_eq!(&a.sites, &b.sites);
        prop_assert_eq!(&a.edges, &b.edges);
        prop_assert_eq!(a.cycles(), b.cycles());
        prop_assert_eq!(a.deadlock_cycles(), b.deadlock_cycles());
    }

    #[test]
    fn lock_order_graph_is_invariant_under_thread_permutation(prog in arb_prog()) {
        let forward = LockOrderGraph::build(&ctxs(&prog));
        let mut reversed_prog = prog.clone();
        reversed_prog.threads.reverse();
        let reversed = LockOrderGraph::build(&ctxs(&reversed_prog));

        // Edge sets agree on keys and on every order-independent
        // annotation (the contributing site indices legitimately shift).
        let keys: Vec<_> = forward.edges.keys().cloned().collect();
        let rkeys: Vec<_> = reversed.edges.keys().cloned().collect();
        prop_assert_eq!(keys, rkeys);
        for (k, e) in &forward.edges {
            let r = &reversed.edges[k];
            prop_assert_eq!(&e.threads, &r.threads);
            prop_assert_eq!(e.effective_threads, r.effective_threads);
            prop_assert_eq!(&e.gates, &r.gates);
            prop_assert_eq!(e.sites.len(), r.sites.len());
        }

        // Cycles agree modulo site indices, in the same canonical order.
        let fc: Vec<_> = forward.cycles().iter().map(cycle_key).collect();
        let mut rc: Vec<_> = reversed.cycles().iter().map(cycle_key).collect();
        rc.sort();
        let mut fc_sorted = fc;
        fc_sorted.sort();
        prop_assert_eq!(fc_sorted, rc);
    }

    #[test]
    fn independence_is_symmetric(prog in arb_prog()) {
        let canon = parse(&print(&prog)).expect("reprint parses");
        let r = analyze(&canon);
        let max_line = print(&canon).lines().count() as u32 + 1;
        for a in 0..=max_line {
            for b in a..=max_line {
                prop_assert_eq!(
                    r.independence.independent(a, b),
                    r.independence.independent(b, a)
                );
            }
        }
    }

    #[test]
    fn parallel_unguarded_writes_are_never_independent(prog in arb_prog()) {
        let canon = parse(&print(&prog)).expect("reprint parses");
        let r = analyze(&canon);
        let threads = ctxs(&canon);

        // Reconstruct every shared-variable write site: (line, thread
        // index, var, must-held locks).
        let mut writes: Vec<(u32, usize, String, BTreeSet<String>)> = Vec::new();
        for (ti, td) in threads.iter().enumerate() {
            for n in td.cfg.ids() {
                if let NodeKind::Compute { write: Some(v), .. } = &td.cfg.nodes[n].kind {
                    if r.shared_vars.contains(v) {
                        let held: BTreeSet<String> = td.must[n].iter().cloned().collect();
                        writes.push((td.cfg.nodes[n].line, ti, v.clone(), held));
                    }
                }
            }
        }

        // Two parallel writes to the same shared var with no common lock
        // must keep their lines dependent (the DPOR soundness condition).
        for (l1, t1, v1, m1) in &writes {
            for (l2, t2, v2, m2) in &writes {
                if v1 != v2 {
                    continue;
                }
                let parallel = t1 != t2 || canon.threads[*t1].count > 1;
                let common_lock = m1.intersection(m2).next().is_some();
                if parallel && !common_lock {
                    prop_assert!(
                        !r.independence.independent(*l1, *l2),
                        "lines {} and {} both write unguarded shared `{}` in parallel",
                        l1, l2, v1
                    );
                }
            }
        }
    }
}
