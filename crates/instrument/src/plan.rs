//! The instrumentor's open API: *what* to instrument.
//!
//! A bytecode instrumentor, as the paper describes it, has "a standard
//! interface that let the user tell it what type of instructions to
//! instrument, which variables, and where to instrument in terms of methods
//! and classes". [`InstrumentationPlan`] is that interface for the model
//! runtime: a declarative selection over operation classes, variables,
//! sites, and threads, optionally informed by [`StaticInfo`].
//!
//! Plans are written against variable *names* (static analysis does not know
//! runtime ids); before an execution starts the runtime resolves the plan
//! against its [`VarTable`] into a [`ResolvedFilter`], a dense-bitset
//! predicate cheap enough for the per-event hot path.

use crate::event::{Event, Loc, OpClass, ThreadId, VarId};
use crate::statics::StaticInfo;
use std::collections::BTreeSet;

/// A selection over a namable domain: everything, an allow-list, or a
/// deny-list.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum Select<T: Ord> {
    /// Select every element.
    #[default]
    All,
    /// Select only the listed elements.
    Only(BTreeSet<T>),
    /// Select everything but the listed elements.
    Except(BTreeSet<T>),
}

impl<T: Ord> Select<T> {
    /// Build an allow-list selection.
    pub fn only<I: IntoIterator<Item = T>>(items: I) -> Self {
        Select::Only(items.into_iter().collect())
    }

    /// Build a deny-list selection.
    pub fn except<I: IntoIterator<Item = T>>(items: I) -> Self {
        Select::Except(items.into_iter().collect())
    }

    /// Does the selection include `item`?
    pub fn includes(&self, item: &T) -> bool {
        match self {
            Select::All => true,
            Select::Only(set) => set.contains(item),
            Select::Except(set) => !set.contains(item),
        }
    }
}

/// A set of [`OpClass`]es stored as a bitmask.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct OpClassSet(u16);

impl OpClassSet {
    /// The empty set.
    pub const NONE: OpClassSet = OpClassSet(0);
    /// Every operation class.
    pub const ALL: OpClassSet = OpClassSet((1 << OpClass::ALL.len()) - 1);

    /// Set containing exactly the given classes.
    pub fn of(classes: &[OpClass]) -> Self {
        let mut mask = 0u16;
        for c in classes {
            mask |= 1 << c.bit();
        }
        OpClassSet(mask)
    }

    /// The classes relevant to synchronization-aware tools (everything but
    /// pure markers and delays).
    pub fn sync_and_access() -> Self {
        Self::of(&[
            OpClass::VarAccess,
            OpClass::Lock,
            OpClass::Cond,
            OpClass::Sem,
            OpClass::Barrier,
            OpClass::ThreadLife,
        ])
    }

    /// Insert a class.
    pub fn insert(&mut self, c: OpClass) {
        self.0 |= 1 << c.bit();
    }

    /// Remove a class.
    pub fn remove(&mut self, c: OpClass) {
        self.0 &= !(1 << c.bit());
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, c: OpClass) -> bool {
        self.0 & (1 << c.bit()) != 0
    }

    /// Number of classes in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no class is selected.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

impl Default for OpClassSet {
    fn default() -> Self {
        OpClassSet::ALL
    }
}

impl std::fmt::Debug for OpClassSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set()
            .entries(OpClass::ALL.iter().filter(|c| self.contains(**c)))
            .finish()
    }
}

/// The mapping from variable names to runtime ids for one program,
/// established when the program registers its shared variables.
#[derive(Clone, Debug, Default)]
pub struct VarTable {
    names: Vec<String>,
}

impl VarTable {
    /// Build from registered names in id order (index = `VarId`).
    pub fn new(names: Vec<String>) -> Self {
        VarTable { names }
    }

    /// Name of `var`, or `"?"` for unknown ids.
    pub fn name(&self, var: VarId) -> &str {
        self.names.get(var.index()).map_or("?", |s| s.as_str())
    }

    /// Id of the variable called `name`.
    pub fn id(&self, name: &str) -> Option<VarId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u32))
    }

    /// Number of registered variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no variable is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(VarId, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (VarId(i as u32), n.as_str()))
    }
}

/// Declarative instrumentation plan — the "open API" of the instrumentor.
#[derive(Clone, Debug, Default)]
pub struct InstrumentationPlan {
    /// Which operation classes produce events for the plan's sinks.
    pub ops: OpClassSet,
    /// Which variables (by registered name) are instrumented. Non-selected
    /// variables still execute correctly; their accesses just emit no event
    /// to the plan's consumers.
    pub vars: Select<String>,
    /// Which threads are instrumented.
    pub threads: Select<ThreadId>,
    /// Which sites are instrumented.
    pub sites: Select<Loc>,
    /// Static-analysis facts: accesses to provably thread-local variables
    /// and sites marked irrelevant are dropped. Empty facts prune nothing.
    pub static_info: StaticInfo,
}

impl InstrumentationPlan {
    /// Instrument everything (the default and the conservative choice).
    pub fn full() -> Self {
        Self::default()
    }

    /// Instrument only synchronization and shared-variable accesses — the
    /// footprint needed by race detectors and replay.
    pub fn sync_and_access() -> Self {
        InstrumentationPlan {
            ops: OpClassSet::sync_and_access(),
            ..Self::default()
        }
    }

    /// Full instrumentation pruned by a static analysis (§3 of the paper).
    pub fn advised(info: StaticInfo) -> Self {
        InstrumentationPlan {
            static_info: info,
            ..Self::default()
        }
    }

    /// Resolve the plan against a program's variable table into the dense
    /// filter evaluated per event.
    pub fn resolve(&self, vars: &VarTable) -> ResolvedFilter {
        let mut var_selected = vec![true; vars.len()];
        for (id, name) in vars.iter() {
            let mut sel = self.vars.includes(&name.to_string());
            if sel && self.static_info.is_provably_local(name) {
                sel = false;
            }
            var_selected[id.index()] = sel;
        }
        ResolvedFilter {
            ops: self.ops,
            var_selected,
            threads: self.threads.clone(),
            sites: self.sites.clone(),
            pruned_sites: self
                .static_info
                .sites
                .keys()
                .filter(|l| !self.static_info.site_relevant(l))
                .copied()
                .collect(),
        }
    }
}

/// A plan resolved against a concrete variable table; the per-event filter.
#[derive(Clone, Debug)]
pub struct ResolvedFilter {
    ops: OpClassSet,
    var_selected: Vec<bool>,
    threads: Select<ThreadId>,
    sites: Select<Loc>,
    pruned_sites: BTreeSet<Loc>,
}

impl ResolvedFilter {
    /// A filter that passes everything (used when no plan is configured).
    pub fn pass_all() -> Self {
        ResolvedFilter {
            ops: OpClassSet::ALL,
            var_selected: Vec::new(),
            threads: Select::All,
            sites: Select::All,
            pruned_sites: BTreeSet::new(),
        }
    }

    /// Should `ev` be delivered to sinks?
    pub fn selects(&self, ev: &Event) -> bool {
        if !self.ops.contains(ev.op.class()) {
            return false;
        }
        if let Some(var) = ev.op.var() {
            // Unregistered ids (beyond the table) stay conservative: selected.
            if let Some(&sel) = self.var_selected.get(var.index()) {
                if !sel {
                    return false;
                }
            }
        }
        if !self.threads.includes(&ev.thread) {
            return false;
        }
        if self.pruned_sites.contains(&ev.loc) {
            return false;
        }
        self.sites.includes(&ev.loc)
    }

    /// How many instrumentation *variables* the filter keeps, out of the
    /// table size — the reduction statistic experiment E7 reports.
    pub fn selected_var_count(&self) -> usize {
        self.var_selected.iter().filter(|&&s| s).count()
    }

    /// Number of sites pruned by static advice.
    pub fn pruned_site_count(&self) -> usize {
        self.pruned_sites.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LockId, Op};
    use crate::statics::{SiteFacts, VarFacts};
    use std::sync::Arc;

    fn ev(op: Op, thread: ThreadId, loc: Loc) -> Event {
        Event {
            seq: 0,
            time: 0,
            thread,
            loc,
            op,
            locks_held: Arc::from(Vec::<LockId>::new()),
        }
    }

    fn table() -> VarTable {
        VarTable::new(vec!["a".into(), "b".into(), "local".into()])
    }

    #[test]
    fn select_semantics() {
        let only = Select::only(["x".to_string()]);
        assert!(only.includes(&"x".to_string()));
        assert!(!only.includes(&"y".to_string()));
        let except = Select::except(["x".to_string()]);
        assert!(!except.includes(&"x".to_string()));
        assert!(except.includes(&"y".to_string()));
        assert!(Select::<String>::All.includes(&"anything".to_string()));
    }

    #[test]
    fn opclass_set_operations() {
        let mut s = OpClassSet::NONE;
        assert!(s.is_empty());
        s.insert(OpClass::Lock);
        s.insert(OpClass::VarAccess);
        assert_eq!(s.len(), 2);
        assert!(s.contains(OpClass::Lock));
        assert!(!s.contains(OpClass::Barrier));
        s.remove(OpClass::Lock);
        assert!(!s.contains(OpClass::Lock));
        assert_eq!(OpClassSet::ALL.len(), OpClass::ALL.len());
    }

    #[test]
    fn var_table_lookup_roundtrip() {
        let t = table();
        assert_eq!(t.id("b"), Some(VarId(1)));
        assert_eq!(t.name(VarId(1)), "b");
        assert_eq!(t.name(VarId(99)), "?");
        assert_eq!(t.id("nope"), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn full_plan_selects_everything() {
        let f = InstrumentationPlan::full().resolve(&table());
        let e = ev(
            Op::VarRead {
                var: VarId(0),
                value: 1,
            },
            ThreadId(2),
            Loc::new("f", 1),
        );
        assert!(f.selects(&e));
        assert_eq!(f.selected_var_count(), 3);
    }

    #[test]
    fn op_class_filtering() {
        let plan = InstrumentationPlan {
            ops: OpClassSet::of(&[OpClass::Lock]),
            ..Default::default()
        };
        let f = plan.resolve(&table());
        assert!(f.selects(&ev(
            Op::LockAcquire { lock: LockId(0) },
            ThreadId(0),
            Loc::new("f", 1)
        )));
        assert!(!f.selects(&ev(
            Op::VarRead {
                var: VarId(0),
                value: 0
            },
            ThreadId(0),
            Loc::new("f", 1)
        )));
    }

    #[test]
    fn var_name_filtering() {
        let plan = InstrumentationPlan {
            vars: Select::only(["a".to_string()]),
            ..Default::default()
        };
        let f = plan.resolve(&table());
        assert!(f.selects(&ev(
            Op::VarWrite {
                var: VarId(0),
                value: 0
            },
            ThreadId(0),
            Loc::new("f", 1)
        )));
        assert!(!f.selects(&ev(
            Op::VarWrite {
                var: VarId(1),
                value: 0
            },
            ThreadId(0),
            Loc::new("f", 1)
        )));
        assert_eq!(f.selected_var_count(), 1);
    }

    #[test]
    fn static_advice_prunes_local_vars_and_dead_sites() {
        let mut info = StaticInfo::default();
        info.vars.insert(
            "local".into(),
            VarFacts {
                shared: false,
                written: true,
                guarded_by: vec![],
            },
        );
        let dead = Loc::new("prog", 7);
        info.sites.insert(
            dead,
            SiteFacts {
                touches_shared: false,
                switch_relevant: false,
                reaching_threads: 1,
                may_run_parallel: true,
            },
        );
        let f = InstrumentationPlan::advised(info).resolve(&table());
        // "local" (VarId 2) pruned, "a"/"b" kept.
        assert_eq!(f.selected_var_count(), 2);
        assert!(!f.selects(&ev(
            Op::VarRead {
                var: VarId(2),
                value: 0
            },
            ThreadId(0),
            Loc::new("f", 1)
        )));
        // dead site pruned even for otherwise-selected ops.
        assert!(!f.selects(&ev(Op::Yield, ThreadId(0), dead)));
        assert_eq!(f.pruned_site_count(), 1);
    }

    #[test]
    fn thread_and_site_filtering() {
        let plan = InstrumentationPlan {
            threads: Select::only([ThreadId(1)]),
            sites: Select::except([Loc::new("skip", 3)]),
            ..Default::default()
        };
        let f = plan.resolve(&table());
        assert!(!f.selects(&ev(Op::Yield, ThreadId(0), Loc::new("x", 1))));
        assert!(f.selects(&ev(Op::Yield, ThreadId(1), Loc::new("x", 1))));
        assert!(!f.selects(&ev(Op::Yield, ThreadId(1), Loc::new("skip", 3))));
    }

    #[test]
    fn unregistered_var_id_is_conservatively_selected() {
        let plan = InstrumentationPlan {
            vars: Select::only(["a".to_string()]),
            ..Default::default()
        };
        let f = plan.resolve(&table());
        // VarId beyond the table (e.g. registered after resolve) passes.
        assert!(f.selects(&ev(
            Op::VarRead {
                var: VarId(42),
                value: 0
            },
            ThreadId(0),
            Loc::new("f", 1)
        )));
    }
}
