//! May-happen-in-parallel analysis.
//!
//! MiniProg's thread structure is flat — every replica of every `thread`
//! declaration starts at program start and runs to completion, with no
//! dynamic spawn or join. Two statements may therefore execute in parallel
//! exactly when they belong to different thread *instances*: different
//! declarations always overlap, and a declaration replicated `* N` with
//! N ≥ 2 overlaps with itself. On top of that structural fact the pass
//! layers the must-lockset: two accesses whose must-held lock sets
//! intersect are serialized by that common lock even when their threads
//! overlap.
//!
//! The payoff is instrumentation advice sharper than escape analysis
//! alone: a shared variable whose every access is made under one common
//! lock escapes (it *is* touched by several threads) but its access sites
//! can never interleave, so the instrumentor may drop them and the
//! explorer need not branch there.
//!
//! `overlap` and `AccessSite::may_race` state these two rules once for
//! the crate: escape analysis and the atomicity pass's competing writers
//! ask `overlap`, and the independence oracle asks both.

use crate::analysis::ThreadCtx;
use crate::dataflow::LockSet;
use std::collections::{BTreeMap, BTreeSet};

/// Can an instance of thread declaration `a` run alongside an instance of
/// `b`? Different declarations always overlap; one declaration overlaps
/// itself only when replicated. `counts` holds each declaration's replica
/// count.
pub(crate) fn overlap(counts: &[u32], a: usize, b: usize) -> bool {
    a != b || counts[a] > 1
}

/// One static access to a shared global.
#[derive(Clone, Debug)]
pub struct AccessSite {
    /// Index of the owning thread declaration.
    pub thread: usize,
    /// CFG node id within that thread.
    pub node: usize,
    /// Accessed global.
    pub var: String,
    /// Write access? (reads conflict only with writes).
    pub write: bool,
    /// Source line.
    pub line: u32,
    /// Locks must-held at the access.
    pub must: LockSet,
}

impl AccessSite {
    /// Overlapping thread instances and no common must-held lock.
    fn parallel(&self, other: &AccessSite, counts: &[u32]) -> bool {
        overlap(counts, self.thread, other.thread) && self.must.is_disjoint(&other.must)
    }

    /// The same variable, at least one write.
    fn conflicts(&self, other: &AccessSite) -> bool {
        self.var == other.var && (self.write || other.write)
    }

    /// The may-race test: two conflicting accesses that may execute in
    /// parallel.
    pub(crate) fn may_race(&self, other: &AccessSite, counts: &[u32]) -> bool {
        self.conflicts(other) && self.parallel(other, counts)
    }
}

/// The computed MHP relation over shared-access sites.
#[derive(Clone, Debug, Default)]
pub struct MhpFacts {
    /// Every shared-global access site, in deterministic order.
    pub sites: Vec<AccessSite>,
    /// Replica count per thread declaration.
    counts: Vec<u32>,
    /// Per line: does any access on this line conflict, in parallel, with
    /// another access? Lines absent from the map carry no shared access.
    line_parallel: BTreeMap<u32, bool>,
}

impl MhpFacts {
    /// May sites `a` and `b` execute in parallel? Symmetric by
    /// construction: thread-overlap and lockset-disjointness both are.
    pub fn mhp(&self, a: usize, b: usize) -> bool {
        self.sites[a].parallel(&self.sites[b], &self.counts)
    }

    /// Do sites `a` and `b` touch the same variable with at least one
    /// write?
    pub fn conflicts(&self, a: usize, b: usize) -> bool {
        self.sites[a].conflicts(&self.sites[b])
    }

    /// Is some access on `line` part of a parallel conflict? `None` when
    /// the line carries no shared access at all.
    pub fn line_parallel(&self, line: u32) -> Option<bool> {
        self.line_parallel.get(&line).copied()
    }

    /// Variables with at least one parallel conflicting access pair — the
    /// "really racy in some interleaving" set the atomicity pass starts
    /// from.
    pub fn contended_vars(&self) -> Vec<String> {
        let mut out: BTreeSet<&String> = BTreeSet::new();
        for (i, site) in self.sites.iter().enumerate() {
            if self.sites[i + 1..]
                .iter()
                .any(|other| site.may_race(other, &self.counts))
            {
                out.insert(&site.var);
            }
        }
        out.into_iter().cloned().collect()
    }
}

/// Compute the MHP relation over every access to a `shared` global.
pub fn compute(threads: &[ThreadCtx], shared: &BTreeSet<String>) -> MhpFacts {
    let mut facts = MhpFacts {
        counts: threads.iter().map(|t| t.count).collect(),
        ..Default::default()
    };
    for (ti, td) in threads.iter().enumerate() {
        for (n, a) in td.global_accesses() {
            if shared.contains(&a.var) {
                facts.sites.push(AccessSite {
                    thread: ti,
                    node: n,
                    var: a.var.clone(),
                    write: a.write,
                    line: td.cfg.nodes[n].line,
                    must: td.must[n].clone(),
                });
            }
        }
    }
    // A site is parallel-relevant if it races with some other site; a line
    // inherits the OR over its sites.
    for (i, site) in facts.sites.iter().enumerate() {
        let mut others = facts.sites.iter().enumerate().filter(|&(j, _)| j != i);
        let parallel = others.any(|(_, other)| site.may_race(other, &facts.counts));
        *facts.line_parallel.entry(site.line).or_insert(false) |= parallel;
    }
    facts
}

#[cfg(test)]
mod tests {
    use crate::analysis::analyze;
    use crate::parser::parse;

    fn mhp_of(src: &str) -> super::MhpFacts {
        analyze(&parse(src).unwrap()).mhp
    }

    #[test]
    fn unlocked_writes_from_two_threads_are_parallel() {
        let m = mhp_of("program p { var x; thread t1 { x = 1; } thread t2 { x = 2; } }");
        assert_eq!(m.sites.len(), 2);
        assert!(m.mhp(0, 1));
        assert!(m.conflicts(0, 1));
        assert_eq!(m.contended_vars(), vec!["x".to_string()]);
    }

    #[test]
    fn common_lock_serializes_conflicting_accesses() {
        let m = mhp_of(
            "program p { var x; lock l; \
             thread t1 { lock (l) { x = 1; } } \
             thread t2 { lock (l) { x = x + 1; } } }",
        );
        for i in 0..m.sites.len() {
            for j in 0..m.sites.len() {
                if i != j {
                    assert!(!m.mhp(i, j), "sites {i},{j} serialized by `l`");
                }
            }
        }
        assert!(m.contended_vars().is_empty());
        for s in &m.sites {
            assert_eq!(m.line_parallel(s.line), Some(false));
        }
    }

    #[test]
    fn replicated_declaration_overlaps_itself_single_does_not() {
        let solo =
            mhp_of("program p { var x; var y; thread t { x = x + 1; } thread u { y = 1; } }");
        // x is accessed only by the single `t` instance: never parallel.
        assert!(solo.contended_vars().is_empty());
        let twin = mhp_of("program p { var x; thread t * 2 { x = x + 1; } }");
        assert_eq!(twin.contended_vars(), vec!["x".to_string()]);
    }

    #[test]
    fn relation_is_symmetric() {
        let m = mhp_of(
            "program p { var x; var y; lock l; \
             thread a { lock (l) { x = 1; } y = 1; } \
             thread b * 2 { x = x + 1; y = y + 1; } }",
        );
        for i in 0..m.sites.len() {
            for j in 0..m.sites.len() {
                assert_eq!(m.mhp(i, j), m.mhp(j, i), "mhp must be symmetric ({i},{j})");
            }
        }
    }

    #[test]
    fn read_only_sharing_has_no_conflicts() {
        let m = mhp_of(
            "program p { var x; var o1; var o2; thread t1 { o1 = x; } thread t2 { o2 = x; } }",
        );
        // x read by both (parallel), but with no write there is no conflict.
        assert!(m.contended_vars().is_empty());
    }
}
