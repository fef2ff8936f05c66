//! The static-independence oracle: which source-line pairs commute.
//!
//! Partial-order reduction needs a *dependence* relation: two operations
//! are independent when executing them in either order from the same state
//! yields the same state, and neither disables the other. The explorer's
//! sleep sets ([`mtt_explore`]'s `sleep_sets` option) consume this oracle
//! through `StaticInfo::independent_line_pairs` — a claimed-independent
//! pair lets the explorer skip a commuted interleaving it has already
//! covered.
//!
//! Two ops commute when any of the three static arguments applies (for
//! accesses, exactly when `AccessSite::may_race` says no):
//!
//! 1. **non-MHP** — both belong to the same single-instance thread
//!    declaration, so they can never be two different threads' next
//!    operations (the flat MiniProg thread structure makes this exact);
//! 2. **common lock** — both run with a common must-held lock, so they can
//!    never be co-enabled and swapping never arises;
//! 3. **disjoint vars per reaching-defs** — the shared-variable footprints
//!    are disjoint (or overlap only in reads). Footprints are closed over
//!    local data flow with the [`crate::dataflow::ReachingDefs`] solution:
//!    a read of a local pulls in every shared variable whose value may
//!    reach it through local definitions, which only *grows* footprints
//!    and keeps the oracle conservative.
//!
//! Lock acquire/release operations are dependent with same-lock operations
//! (a release enables a blocked acquire) and independent of everything
//! else. Lines containing `wait`/`notify` are treated as opaque — they
//! block, wake and juggle their lock, so the oracle claims nothing about
//! them. Absence of a pair is always interpreted as "dependent", so an
//! empty oracle degrades the explorer to plain exploration, never to an
//! unsound one.

use crate::analysis::ThreadCtx;
use crate::cfg::NodeKind;
use crate::mhp::{overlap, AccessSite};
use std::collections::{BTreeMap, BTreeSet};

/// One abstract operation contributing to a line's footprint.
#[derive(Clone, Debug)]
enum Op {
    /// A shared-global access (direct, or tainted via reaching defs).
    Access(AccessSite),
    /// A lock acquire or release.
    Lock { name: String, thread: usize },
}

/// The computed independence relation over source lines.
#[derive(Clone, Debug, Default)]
pub struct StaticIndependence {
    /// Canonically-ordered `(min, max)` line pairs proven commuting.
    pairs: BTreeSet<(u32, u32)>,
    /// Lines the analysis covered (had any node).
    lines: BTreeSet<u32>,
}

impl StaticIndependence {
    /// Do every pair of operations on lines `a` and `b` commute?
    /// `false` when either line is unknown — the conservative default.
    pub fn independent(&self, a: u32, b: u32) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.pairs.contains(&key)
    }

    /// Lines the analysis has facts for.
    pub fn covered(&self, line: u32) -> bool {
        self.lines.contains(&line)
    }

    /// Number of proven-independent pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// No pairs proven?
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The pairs, sorted, in the `StaticInfo` export shape.
    pub fn pairs_vec(&self) -> Vec<(u32, u32)> {
        self.pairs.iter().copied().collect()
    }

    /// Compute the relation over the threads' accesses to `shared` globals.
    pub fn compute(threads: &[ThreadCtx], shared: &BTreeSet<String>) -> StaticIndependence {
        let counts: Vec<u32> = threads.iter().map(|t| t.count).collect();
        // Per line: ops, or opaque (wait/notify present).
        let mut line_ops: BTreeMap<u32, Vec<Op>> = BTreeMap::new();
        let mut opaque: BTreeSet<u32> = BTreeSet::new();

        for (ti, td) in threads.iter().enumerate() {
            // Close a node's reads over local definition chains: the set of
            // shared globals whose value may flow into the node.
            let resolve = |node: usize| -> BTreeSet<String> {
                let mut out = BTreeSet::new();
                let mut visited = BTreeSet::new();
                let mut stack = vec![node];
                while let Some(n) = stack.pop() {
                    if !visited.insert(n) {
                        continue;
                    }
                    for a in &td.accesses[n] {
                        if !a.write && shared.contains(&a.var) {
                            out.insert(a.var.clone());
                        }
                    }
                    let (reads, _) = td.cfg.nodes[n].kind.reads_and_write();
                    let Some(defs) = td.defs[n].as_ref() else {
                        continue;
                    };
                    for r in reads.iter().filter(|r| td.locals.contains(*r)) {
                        stack.extend(defs.iter().filter(|(name, _)| name == r).map(|(_, d)| *d));
                    }
                }
                out
            };
            for n in td.cfg.ids() {
                let node = &td.cfg.nodes[n];
                if node.line == 0 {
                    continue;
                }
                // Cover the line even when every op is filtered out (e.g. a
                // write to a provably-local variable): an empty footprint
                // commutes with everything, and only covered lines get pairs.
                let ops = line_ops.entry(node.line).or_default();
                let site = |var: String, write: bool| {
                    Op::Access(AccessSite {
                        thread: ti,
                        node: n,
                        var,
                        write,
                        line: node.line,
                        must: td.must[n].clone(),
                    })
                };
                ops.extend(resolve(n).into_iter().map(|var| site(var, false)));
                for a in &td.accesses[n] {
                    if a.write && shared.contains(&a.var) {
                        ops.push(site(a.var.clone(), true));
                    }
                }
                match &node.kind {
                    NodeKind::Acquire(l) | NodeKind::Release(l) => ops.push(Op::Lock {
                        name: l.clone(),
                        thread: ti,
                    }),
                    NodeKind::Wait { .. } | NodeKind::Notify { .. } => {
                        opaque.insert(node.line);
                    }
                    _ => {}
                }
            }
        }

        let commute = |a: &Op, b: &Op| -> bool {
            match (a, b) {
                (Op::Access(a), Op::Access(b)) => !a.may_race(b, &counts),
                (
                    Op::Lock {
                        name: la,
                        thread: ta,
                    },
                    Op::Lock {
                        name: lb,
                        thread: tb,
                    },
                ) => !overlap(&counts, *ta, *tb) || la != lb,
                (Op::Access(_), Op::Lock { .. }) | (Op::Lock { .. }, Op::Access(_)) => true,
            }
        };

        let mut out = StaticIndependence::default();
        let lines: Vec<u32> = line_ops.keys().copied().collect();
        out.lines = lines.iter().copied().collect();
        for (i, &a) in lines.iter().enumerate() {
            for &b in &lines[i..] {
                if opaque.contains(&a) || opaque.contains(&b) {
                    continue;
                }
                let oa = &line_ops[&a];
                let ob = &line_ops[&b];
                let all_commute = oa.iter().all(|x| ob.iter().all(|y| commute(x, y)));
                if all_commute {
                    out.pairs.insert((a, b));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::parser::parse;

    fn indep_of(src: &str) -> StaticIndependence {
        analyze(&parse(src).unwrap()).independence
    }

    #[test]
    fn disjoint_writes_are_independent_same_var_writes_are_not() {
        let r = indep_of(
            "program p { var x; var y; thread t1 {\nx = 1;\ny = 1;\n} thread t2 {\nx = 2;\n} }",
        );
        // line 2 (t1: x=1) vs line 5 (t2: x=2): same unguarded var, writes.
        assert!(!r.independent(2, 5));
        // line 3 (t1: y=1) vs line 5 (t2: x=2): disjoint vars.
        assert!(r.independent(3, 5));
        // y is not even shared (only t1 touches it) — footprint empty.
        assert!(r.independent(3, 3));
    }

    #[test]
    fn common_lock_makes_guarded_accesses_independent() {
        let r = indep_of(
            "program p { var x; lock l; \
             thread t1 {\nlock (l) {\nx = x + 1;\n}\n} \
             thread t2 {\nlock (l) {\nx = 2;\n}\n} }",
        );
        // Both increments run under `l`: never co-enabled.
        assert!(r.independent(3, 7));
        let unlocked =
            indep_of("program p { var x; thread t1 {\nx = x + 1;\n} thread t2 {\nx = 2;\n} }");
        assert!(!unlocked.independent(2, 5));
    }

    #[test]
    fn same_single_thread_lines_are_non_mhp_independent() {
        let r =
            indep_of("program p { var x; thread t1 {\nx = 1;\nx = 2;\n} thread t2 {\nx = 9;\n} }");
        // Within one single-instance declaration: never co-enabled.
        assert!(r.independent(2, 3));
        // Replicated: the same pair of lines conflicts with itself.
        let twin = indep_of("program p { var x; thread t * 2 {\nx = 1;\nx = 2;\n} }");
        assert!(!twin.independent(2, 3));
        assert!(!twin.independent(2, 2));
    }

    #[test]
    fn reaching_defs_taint_blocks_independence() {
        // t1's write to y carries x's value through local `t`; a swap with
        // t2's write to x changes which value lands in y.
        let r = indep_of(
            "program p { var x; var y; \
             thread t1 {\nlocal t;\nt = x;\ny = t;\n} \
             thread t2 {\nx = 5;\ny = y;\n} }",
        );
        // line 4 (y = t, tainted by x) vs line 6 (x = 5): dependent.
        assert!(!r.independent(4, 6));
    }

    #[test]
    fn wait_notify_lines_are_opaque() {
        let r = indep_of(
            "program p { var go; lock m; cond c; \
             thread w {\nacquire m;\nwait(c, m);\nrelease m;\n} \
             thread s {\nnotify c;\ngo = 1;\n} }",
        );
        assert!(!r.independent(3, 6), "wait line claims nothing");
        assert!(!r.independent(6, 6));
    }

    #[test]
    fn lock_ops_depend_on_same_lock_only() {
        let r = indep_of(
            "program p { lock a; lock b; \
             thread t1 {\nacquire a;\nrelease a;\n} \
             thread t2 {\nacquire b;\nrelease b;\n} \
             thread t3 {\nacquire a;\nrelease a;\n} }",
        );
        // a-ops vs b-ops: independent. a-ops (t1) vs a-ops (t3): dependent.
        assert!(r.independent(2, 5));
        assert!(!r.independent(2, 8));
    }

    #[test]
    fn unknown_lines_default_to_dependent() {
        let r = indep_of("program p { var x; thread t {\nx = 1;\n} thread u {\nx = 2;\n} }");
        assert!(!r.independent(2, 999));
        assert!(!r.independent(999, 1000));
    }

    #[test]
    fn exported_pairs_round_trip_through_static_info() {
        let res = analyze(
            &parse("program p { var x; var y; thread t1 {\nx = 1;\n} thread t2 {\ny = 1;\n} }")
                .unwrap(),
        );
        assert_eq!(
            res.info.independent_line_pairs,
            res.independence.pairs_vec()
        );
        assert!(res.info.lines_independent(2, 4));
        assert!(!res.info.lines_independent(2, 999));
    }
}
