//! Static-analysis facts, in the shape the instrumentor consumes.
//!
//! §3 of the paper describes two uses for information gleaned statically:
//! pick a *subset* of instrumentation points (e.g. only accesses to
//! variables that can be touched by more than one thread), or pass the
//! information *through* the instrumented call so the dynamic tool can use
//! it. [`StaticInfo`] supports both: [`crate::InstrumentationPlan`] can
//! restrict itself to variables/sites a `StaticInfo` marks as interesting,
//! and sinks can hold a copy to annotate their own output.
//!
//! Facts are keyed by *name* (variables) and [`Loc`] (sites) rather than by
//! runtime ids, because static analysis runs before any execution exists;
//! the plan resolves names to ids against the program's variable table at
//! execution start.

use crate::event::Loc;
use std::collections::BTreeMap;

/// Statically derived facts about one shared variable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarFacts {
    /// May the variable be accessed by more than one thread? Conservative:
    /// `true` when the analysis cannot prove thread-locality.
    pub shared: bool,
    /// May the variable be written at all (by any thread)?
    pub written: bool,
    /// Names of locks that are held at *every* statically-visible access.
    /// Empty means "no common lock" — the static-lockset race signal.
    pub guarded_by: Vec<String>,
}

mtt_json::json_struct!(VarFacts {
    shared,
    written,
    guarded_by,
});

/// Statically derived facts about one instrumentation site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteFacts {
    /// Does the site touch a variable the analysis considers shared?
    pub touches_shared: bool,
    /// Can a context switch at this site change observable behaviour?
    /// `false` for sites inside a no-switch region (purely thread-local
    /// computation), which noise makers and race detectors may skip.
    pub switch_relevant: bool,
    /// Number of distinct threads that can statically reach this site.
    pub reaching_threads: u32,
    /// May this site ever execute in parallel with a conflicting access to
    /// the same data? `false` only when a may-happen-in-parallel analysis
    /// proved the site serialized against every other access (e.g. all
    /// accesses share a lock, or only one thread instance can reach it).
    pub may_run_parallel: bool,
}

impl Default for SiteFacts {
    fn default() -> Self {
        // Absent analysis, every site must be assumed interesting.
        SiteFacts {
            touches_shared: true,
            switch_relevant: true,
            reaching_threads: u32::MAX,
            may_run_parallel: true,
        }
    }
}

mtt_json::json_struct!(SiteFacts {
    touches_shared,
    switch_relevant,
    reaching_threads,
    may_run_parallel,
});

/// The full bundle of facts a static analysis exports for one program.
///
/// This is the interchange type between `mtt-static` (producer) and
/// `mtt-instrument` / `mtt-noise` / `mtt-coverage` (consumers). An empty
/// `StaticInfo` (no facts) is always safe: consumers treat missing entries
/// conservatively.
#[derive(Clone, Debug, Default)]
pub struct StaticInfo {
    /// Per-variable facts, keyed by the variable's registered name.
    pub vars: BTreeMap<String, VarFacts>,
    /// Per-site facts.
    pub sites: BTreeMap<Loc, SiteFacts>,
    /// Source-line pairs proven to commute by an independence analysis,
    /// canonically ordered `(min, max)` and sorted. Consumed by sleep-set
    /// partial-order reduction; an absent pair always means "dependent",
    /// so the empty vector is the safe default.
    pub independent_line_pairs: Vec<(u32, u32)>,
}

mtt_json::json_struct!(StaticInfo {
    vars,
    sites,
    independent_line_pairs,
});

impl StaticInfo {
    /// True when no analysis results are present.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty() && self.sites.is_empty()
    }

    /// Is `name` known to be thread-local (provably not shared)?
    ///
    /// Returns `false` (i.e. "must assume shared") when no fact is recorded.
    pub fn is_provably_local(&self, name: &str) -> bool {
        self.vars.get(name).is_some_and(|f| !f.shared)
    }

    /// Names of variables the analysis says can be touched by more than one
    /// thread — the feasibility set the paper wants for coverage models
    /// ("static techniques could be used to evaluate which variables can be
    /// accessed by multiple threads").
    pub fn shared_var_names(&self) -> impl Iterator<Item = &str> {
        self.vars
            .iter()
            .filter(|(_, f)| f.shared)
            .map(|(n, _)| n.as_str())
    }

    /// Is instrumenting `loc` useful? `true` when unknown (conservative).
    /// A site is prunable when it is switch-irrelevant, touches nothing
    /// shared, or provably never runs in parallel with a conflicting access.
    pub fn site_relevant(&self, loc: &Loc) -> bool {
        self.sites
            .get(loc)
            .is_none_or(|f| f.switch_relevant && f.touches_shared && f.may_run_parallel)
    }

    /// Are the operations at lines `a` and `b` proven to commute?
    /// `false` when no fact is recorded — the conservative default.
    pub fn lines_independent(&self, a: u32, b: u32) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.independent_line_pairs.binary_search(&key).is_ok()
    }

    /// Merge facts from another analysis pass. Sharing/written flags are
    /// OR-ed (conservative union); guard sets are intersected; site facts
    /// are OR-ed on relevance. Independence pairs are intersected (a pair
    /// survives only if both passes proved it), with "no facts" treated as
    /// "defer to the other pass".
    pub fn merge(&mut self, other: &StaticInfo) {
        for (name, of) in &other.vars {
            let e = self.vars.entry(name.clone()).or_default();
            e.shared |= of.shared;
            e.written |= of.written;
            if e.guarded_by.is_empty() {
                e.guarded_by = of.guarded_by.clone();
            } else {
                e.guarded_by.retain(|l| of.guarded_by.contains(l));
            }
        }
        for (loc, of) in &other.sites {
            let e = self.sites.entry(*loc).or_insert_with(|| SiteFacts {
                touches_shared: false,
                switch_relevant: false,
                reaching_threads: 0,
                may_run_parallel: false,
            });
            e.touches_shared |= of.touches_shared;
            e.switch_relevant |= of.switch_relevant;
            e.reaching_threads = e.reaching_threads.max(of.reaching_threads);
            e.may_run_parallel |= of.may_run_parallel;
        }
        if self.independent_line_pairs.is_empty() {
            self.independent_line_pairs = other.independent_line_pairs.clone();
        } else if !other.independent_line_pairs.is_empty() {
            self.independent_line_pairs
                .retain(|p| other.independent_line_pairs.binary_search(p).is_ok());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_info_is_conservative() {
        let info = StaticInfo::default();
        assert!(info.is_empty());
        assert!(!info.is_provably_local("x"));
        assert!(info.site_relevant(&Loc::new("f", 1)));
    }

    #[test]
    fn shared_var_enumeration() {
        let mut info = StaticInfo::default();
        info.vars.insert(
            "shared_counter".into(),
            VarFacts {
                shared: true,
                written: true,
                guarded_by: vec![],
            },
        );
        info.vars.insert(
            "local_tmp".into(),
            VarFacts {
                shared: false,
                written: true,
                guarded_by: vec![],
            },
        );
        let shared: Vec<_> = info.shared_var_names().collect();
        assert_eq!(shared, vec!["shared_counter"]);
        assert!(info.is_provably_local("local_tmp"));
        assert!(!info.is_provably_local("shared_counter"));
    }

    #[test]
    fn irrelevant_site_is_skippable() {
        let mut info = StaticInfo::default();
        let loc = Loc::new("prog", 12);
        info.sites.insert(
            loc,
            SiteFacts {
                touches_shared: false,
                switch_relevant: false,
                reaching_threads: 1,
                may_run_parallel: true,
            },
        );
        assert!(!info.site_relevant(&loc));
        assert!(info.site_relevant(&Loc::new("prog", 13)));
    }

    #[test]
    fn merge_is_conservative_union() {
        let mut a = StaticInfo::default();
        a.vars.insert(
            "x".into(),
            VarFacts {
                shared: false,
                written: false,
                guarded_by: vec!["l1".into(), "l2".into()],
            },
        );
        let mut b = StaticInfo::default();
        b.vars.insert(
            "x".into(),
            VarFacts {
                shared: true,
                written: true,
                guarded_by: vec!["l2".into()],
            },
        );
        a.merge(&b);
        let f = &a.vars["x"];
        assert!(f.shared && f.written);
        assert_eq!(f.guarded_by, vec!["l2".to_string()]);
    }

    #[test]
    fn merge_site_facts_takes_max_relevance() {
        let loc = Loc::new("p", 3);
        let mut a = StaticInfo::default();
        a.sites.insert(
            loc,
            SiteFacts {
                touches_shared: false,
                switch_relevant: false,
                reaching_threads: 1,
                may_run_parallel: false,
            },
        );
        let mut b = StaticInfo::default();
        b.sites.insert(
            loc,
            SiteFacts {
                touches_shared: true,
                switch_relevant: true,
                reaching_threads: 2,
                may_run_parallel: true,
            },
        );
        a.merge(&b);
        assert!(a.site_relevant(&loc));
        assert_eq!(a.sites[&loc].reaching_threads, 2);
    }

    #[test]
    fn independence_lookup_is_symmetric_and_conservative() {
        let info = StaticInfo {
            independent_line_pairs: vec![(2, 5), (3, 3)],
            ..Default::default()
        };
        assert!(info.lines_independent(2, 5));
        assert!(info.lines_independent(5, 2));
        assert!(info.lines_independent(3, 3));
        assert!(!info.lines_independent(2, 3), "absent pair means dependent");
    }

    #[test]
    fn merge_intersects_independence_pairs() {
        let mut a = StaticInfo {
            independent_line_pairs: vec![(1, 2), (2, 5)],
            ..Default::default()
        };
        let b = StaticInfo {
            independent_line_pairs: vec![(2, 5), (7, 9)],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.independent_line_pairs, vec![(2, 5)]);

        // Empty defers to the other pass, in both directions.
        let mut c = StaticInfo::default();
        c.merge(&b);
        assert_eq!(c.independent_line_pairs, vec![(2, 5), (7, 9)]);
        let mut d = b.clone();
        d.merge(&StaticInfo::default());
        assert_eq!(d.independent_line_pairs, vec![(2, 5), (7, 9)]);
    }
}
