//! The static analyses: shared variables, static locksets, lock order,
//! no-switch sites — and their export as instrumentation advice.

use crate::ast::{MiniProg, ThreadDecl};
use crate::atomicity::{self, AtomicityViolation};
use crate::cfg::{build_cfg, Cfg, NodeKind};
use crate::dataflow::{held_locks, solve, Defs, LockSet, ReachingDefs};
use crate::diag::{self, Diagnostic};
use crate::independence::StaticIndependence;
use crate::lints;
use crate::lockorder::{self, LockCycle};
use crate::mhp::{self, MhpFacts};
use mtt_instrument::{intern_static, Loc, SiteFacts, StaticInfo, VarFacts};
use std::collections::{BTreeMap, BTreeSet};

/// A statically detected potential race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticRace {
    /// The unprotected shared variable.
    pub var: String,
    /// Threads that access it.
    pub threads: Vec<String>,
    /// Explanation.
    pub message: String,
}

/// Per-thread analysis context: the CFG, each node's global accesses and
/// the dataflow fixpoints, derived once and shared by every pass.
pub struct ThreadCtx {
    /// Declaration name.
    pub name: String,
    /// Replica count (`thread t * N`).
    pub count: u32,
    /// The thread's control-flow graph.
    pub cfg: Cfg,
    /// Locks must-held on entry to each node.
    pub must: Vec<LockSet>,
    /// Locks may-held on entry to each node.
    pub may: Vec<LockSet>,
    /// Names declared `local` in the body.
    pub locals: BTreeSet<String>,
    /// Per node: the globals it reads, in order, then the one it writes.
    /// These are the node's names minus this thread's locals; the parser
    /// rejects undeclared names, so every other name is a global.
    pub(crate) accesses: Vec<Vec<Access>>,
    /// Reaching definitions on entry to each node (`None` where no path
    /// reaches it).
    pub(crate) defs: Vec<Option<Defs>>,
}

/// One access of a CFG node to a global.
pub(crate) struct Access {
    pub(crate) var: String,
    pub(crate) write: bool,
}

impl ThreadCtx {
    /// Build the CFG of `decl`, its nodes' global accesses, and solve its
    /// lockset and reaching-definition fixpoints.
    pub fn new(decl: &ThreadDecl) -> ThreadCtx {
        let cfg = build_cfg(decl);
        let locals = decl.local_names();
        let accesses = cfg
            .nodes
            .iter()
            .map(|node| {
                let (reads, write) = node.kind.reads_and_write();
                let reads = reads.iter().map(|v| (v, false));
                reads
                    .chain(write.map(|v| (v, true)))
                    .filter(|(v, _)| !locals.contains(*v))
                    .map(|(v, write)| Access {
                        var: v.clone(),
                        write,
                    })
                    .collect()
            })
            .collect();
        ThreadCtx {
            name: decl.name.clone(),
            count: decl.count,
            must: held_locks(&cfg, true),
            may: held_locks(&cfg, false),
            defs: solve(&cfg, &ReachingDefs).before,
            locals,
            accesses,
            cfg,
        }
    }

    /// Every global access of the thread as `(node, access)`, in node
    /// order.
    pub(crate) fn global_accesses(&self) -> impl Iterator<Item = (usize, &Access)> {
        let per_node = self.accesses.iter().enumerate();
        per_node.flat_map(|(n, accesses)| accesses.iter().map(move |a| (n, a)))
    }
}

/// Everything the static pass produces.
#[derive(Clone, Debug, Default)]
pub struct AnalysisResult {
    /// Variables that may be touched by more than one thread.
    pub shared_vars: BTreeSet<String>,
    /// Locks guarding each shared variable at every access (empty set =
    /// the static-lockset race signal).
    pub guarded_by: BTreeMap<String, BTreeSet<String>>,
    /// Potential races.
    pub races: Vec<StaticRace>,
    /// Potential deadlocks: the lock-order cycles that survive
    /// suppression (see [`lockorder::LockOrderGraph::deadlock_cycles`]).
    pub deadlocks: Vec<LockCycle>,
    /// Source lines where no observable thread switch can matter
    /// (thread-local computation only) — the paper's "list of program
    /// statements from which there can be no thread switch".
    pub no_switch_lines: BTreeSet<u32>,
    /// The may-happen-in-parallel relation over shared-access sites.
    pub mhp: MhpFacts,
    /// Non-atomic compound regions: a lock gap between a read and the
    /// write that depends on it (see [`atomicity`]).
    pub atomicity: Vec<AtomicityViolation>,
    /// Every finding, unified: races, deadlocks, atomicity regions and
    /// lints as [`Diagnostic`]s, deduplicated and in source order.
    pub diagnostics: Vec<Diagnostic>,
    /// Which source-line pairs provably commute (the sleep-set DPOR fuel;
    /// also exported through [`StaticInfo::independent_line_pairs`]).
    pub independence: StaticIndependence,
    /// The advice bundle for the instrumentor.
    pub info: StaticInfo,
}

/// Run the full static pass.
pub fn analyze(prog: &MiniProg) -> AnalysisResult {
    let mut result = AnalysisResult::default();
    let file = intern_static(&prog.name);

    let threads: Vec<ThreadCtx> = prog.threads.iter().map(ThreadCtx::new).collect();
    let counts: Vec<u32> = threads.iter().map(|t| t.count).collect();

    // ------------------------------------------------------------------
    // Shared-variable (escape) analysis: a global escapes to "shared" when
    // two of its accesses can come from overlapping thread instances
    // (`mhp::overlap`). Precise for MiniProg (no pointers). Static
    // lockset: intersection of must-held sets over all accesses.
    // ------------------------------------------------------------------
    let all_locks: LockSet = prog.locks.iter().cloned().collect();
    // Per variable: the declarations that access it, and those that write it.
    let mut accessors: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    let mut writers: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    let mut guards: BTreeMap<String, LockSet> = BTreeMap::new();
    for (ti, td) in threads.iter().enumerate() {
        for (n, a) in td.global_accesses() {
            accessors.entry(&a.var).or_default().insert(ti);
            if a.write {
                writers.entry(&a.var).or_default().insert(ti);
            }
            let e = guards
                .entry(a.var.clone())
                .or_insert_with(|| all_locks.clone());
            *e = e.intersection(&td.must[n]).cloned().collect();
        }
    }
    for (var, decls) in &accessors {
        if decls
            .iter()
            .any(|&a| decls.iter().any(|&b| mhp::overlap(&counts, a, b)))
        {
            result.shared_vars.insert(var.to_string());
        }
    }
    let is_volatile = |v: &str| prog.globals.iter().any(|g| g.name == v && g.volatile);
    for var in &result.shared_vars {
        let guarded = guards.get(var).cloned().unwrap_or_default();
        // Volatile accesses are synchronization actions, not races (the
        // Java volatile-flag idiom must not be flagged).
        if guarded.is_empty() && writers.contains_key(var.as_str()) && !is_volatile(var) {
            let names: BTreeSet<&str> = accessors[var.as_str()]
                .iter()
                .map(|&t| threads[t].name.as_str())
                .collect();
            let threads_list: Vec<String> = names.into_iter().map(String::from).collect();
            result.races.push(StaticRace {
                var: var.clone(),
                threads: threads_list,
                message: format!(
                    "shared variable `{var}` is written with no consistently-held lock"
                ),
            });
        }
        result.guarded_by.insert(var.clone(), guarded);
    }

    // ------------------------------------------------------------------
    // May-happen-in-parallel: thread overlap structure × lock disjointness.
    // ------------------------------------------------------------------
    result.mhp = mhp::compute(&threads, &result.shared_vars);
    let contended = result.mhp.contended_vars();

    // ------------------------------------------------------------------
    // Atomicity: non-atomic compound regions, through the must-locksets.
    // ------------------------------------------------------------------
    let competing_writer = |v: &str, ti: usize| -> bool {
        writers
            .get(v)
            .is_some_and(|decls| decls.iter().any(|&d| mhp::overlap(&counts, d, ti)))
    };
    result.atomicity = atomicity::find_violations(
        &threads,
        &result.shared_vars,
        &guards,
        &contended,
        &competing_writer,
    );

    // ------------------------------------------------------------------
    // Lock-order graph: sites, annotated edges, canonical cycles with
    // gate suppression (see `lockorder`). The surviving cycles are the
    // D001 analysis warnings; `lockorder::lints` renders them as L006.
    // ------------------------------------------------------------------
    let lock_graph = lockorder::LockOrderGraph::build(&threads);
    result.deadlocks = lock_graph.deadlock_cycles();

    // ------------------------------------------------------------------
    // Site facts: which lines matter for instrumentation.
    // ------------------------------------------------------------------
    let mut line_relevant: BTreeMap<u32, bool> = BTreeMap::new();
    let mut line_threads: BTreeMap<u32, u32> = BTreeMap::new();
    let mut line_sync: BTreeMap<u32, bool> = BTreeMap::new();
    for td in &threads {
        for n in td.cfg.ids() {
            let node = &td.cfg.nodes[n];
            if node.line == 0 {
                continue;
            }
            let sync = matches!(
                node.kind,
                NodeKind::Acquire(_)
                    | NodeKind::Release(_)
                    | NodeKind::Wait { .. }
                    | NodeKind::Notify { .. }
            );
            let relevant = sync
                || td.accesses[n]
                    .iter()
                    .any(|a| result.shared_vars.contains(&a.var));
            *line_relevant.entry(node.line).or_insert(false) |= relevant;
            *line_sync.entry(node.line).or_insert(false) |= sync;
            *line_threads.entry(node.line).or_insert(0) += td.count;
        }
    }
    for (line, relevant) in &line_relevant {
        if !relevant {
            result.no_switch_lines.insert(*line);
        }
        // MHP refinement: a shared-access line whose every access is
        // serialized by a common lock cannot interleave — instrumentation
        // there buys nothing. Sync operations always stay instrumented
        // (lock-order and blocking analyses need them).
        let sync = line_sync.get(line).copied().unwrap_or(false);
        let parallel = sync || result.mhp.line_parallel(*line).unwrap_or(true);
        result.info.sites.insert(
            Loc::new(file, *line),
            SiteFacts {
                touches_shared: *relevant,
                switch_relevant: *relevant,
                reaching_threads: line_threads.get(line).copied().unwrap_or(0),
                may_run_parallel: parallel,
            },
        );
    }

    // ------------------------------------------------------------------
    // Export StaticInfo for the instrumentor.
    // ------------------------------------------------------------------
    for g in &prog.globals {
        let shared = result.shared_vars.contains(&g.name);
        result.info.vars.insert(
            g.name.clone(),
            VarFacts {
                shared,
                written: writers.contains_key(g.name.as_str()),
                guarded_by: result
                    .guarded_by
                    .get(&g.name)
                    .map(|s| s.iter().cloned().collect())
                    .unwrap_or_default(),
            },
        );
    }

    // ------------------------------------------------------------------
    // Unified diagnostics: every pass reports through one stream.
    // ------------------------------------------------------------------
    let mut diags: Vec<Diagnostic> = Vec::new();
    let access_line = |var: &str| -> u32 {
        let lines = threads.iter().flat_map(|td| {
            td.global_accesses()
                .filter(|(_, a)| a.var == var)
                .map(|(n, _)| td.cfg.nodes[n].line)
        });
        lines.filter(|l| *l > 0).min().unwrap_or(0)
    };
    for r in &result.races {
        diags.push(
            Diagnostic::new(
                "R001",
                diag::Severity::Warning,
                &prog.name,
                access_line(&r.var),
                r.message.clone(),
            )
            .note(format!("accessed by threads {:?}", r.threads))
            .note(format!(
                "locks held at every access: {:?} (empty = unprotected)",
                result.guarded_by.get(&r.var).cloned().unwrap_or_default()
            )),
        );
    }
    for d in &result.deadlocks {
        let line = d
            .locks
            .iter()
            .filter_map(|l| lock_graph.acquire_line(l))
            .min();
        diags.push(
            Diagnostic::new(
                "D001",
                diag::Severity::Warning,
                &prog.name,
                line.unwrap_or(0),
                format!("locks {:?} can be acquired in conflicting orders", d.locks),
            )
            .note(format!("threads on the cycle: {:?}", d.threads)),
        );
    }
    for a in &result.atomicity {
        let mut diag = Diagnostic::new(
            "A001",
            diag::Severity::Warning,
            &prog.name,
            a.read_line,
            format!(
                "{} on `{}` in thread `{}` is not atomic",
                a.kind, a.var, a.thread
            ),
        )
        .span(a.write_line);
        diag = match &a.lock {
            Some(l) => diag.note(format!(
                "`{l}` is released between the read (line {}) and the write (line {}): \
                 the region's mover string contains L…R and is not reducible",
                a.read_line, a.write_line
            )),
            None => diag.note(
                "no lock protects the region; a conflicting access can interleave \
                 between the read and the write"
                    .to_string(),
            ),
        };
        diags.push(diag);
    }
    let unguarded: BTreeSet<String> = result
        .shared_vars
        .iter()
        .filter(|v| result.guarded_by.get(*v).is_none_or(|g| g.is_empty()))
        .cloned()
        .collect();
    diags.extend(lints::run(&lints::LintCtx {
        prog,
        threads: &threads,
        shared: &result.shared_vars,
        unguarded: &unguarded,
    }));
    diags.extend(lockorder::lints(&prog.name, &lock_graph));
    diags.extend(lockorder::lost_notify(prog, &threads));
    diag::dedup_and_sort(&mut diags);
    result.diagnostics = diags;

    // ------------------------------------------------------------------
    // Static independence: which line pairs commute (sleep-set DPOR fuel).
    // ------------------------------------------------------------------
    result.independence = StaticIndependence::compute(&threads, &result.shared_vars);
    result.info.independent_line_pairs = result.independence.pairs_vec();

    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn analyze_src(src: &str) -> AnalysisResult {
        analyze(&parse(src).unwrap())
    }

    #[test]
    fn thread_local_globals_are_not_shared() {
        let r =
            analyze_src("program p { var a; var b; thread t1 { a = 1; } thread t2 { b = 2; } }");
        assert!(r.shared_vars.is_empty());
        assert!(r.races.is_empty());
        assert!(!r.info.vars["a"].shared);
    }

    #[test]
    fn two_thread_access_is_shared_and_racy_without_locks() {
        let r = analyze_src("program p { var x; thread t1 { x = 1; } thread t2 { x = 2; } }");
        assert!(r.shared_vars.contains("x"));
        assert_eq!(r.races.len(), 1);
        assert_eq!(r.races[0].var, "x");
        assert!(r.info.vars["x"].shared);
        assert!(r.info.vars["x"].written);
    }

    #[test]
    fn replicated_thread_alone_shares_its_globals() {
        let r = analyze_src("program p { var x; thread t * 2 { x = x + 1; } }");
        assert!(r.shared_vars.contains("x"));
        assert_eq!(r.races.len(), 1);
    }

    #[test]
    fn consistent_locking_suppresses_race() {
        let r = analyze_src(
            "program p { var x; lock l; thread t1 { lock (l) { x = 1; } } thread t2 { lock (l) { x = x + 1; } } }",
        );
        assert!(r.shared_vars.contains("x"));
        assert!(r.races.is_empty(), "{:?}", r.races);
        assert_eq!(
            r.guarded_by["x"],
            ["l".to_string()].into_iter().collect::<BTreeSet<_>>()
        );
        assert_eq!(r.info.vars["x"].guarded_by, vec!["l".to_string()]);
    }

    #[test]
    fn inconsistent_locking_is_a_race() {
        let r = analyze_src(
            "program p { var x; lock l; thread t1 { lock (l) { x = 1; } } thread t2 { x = 2; } }",
        );
        assert_eq!(r.races.len(), 1);
    }

    #[test]
    fn read_only_sharing_is_not_reported() {
        let r = analyze_src(
            "program p { var x; var out1; var out2; thread t1 { out1 = x; } thread t2 { out2 = x; } }",
        );
        assert!(r.shared_vars.contains("x"));
        assert!(r.races.is_empty(), "read-only sharing is benign");
    }

    #[test]
    fn must_analysis_requires_lock_on_all_paths() {
        // Lock held on only one branch of the access: not a consistent guard.
        let r = analyze_src(
            "program p { var x; var y; lock l; thread t1 { if (y) { acquire l; } x = 1; if (y) { release l; } } thread t2 { lock (l) { x = 2; } } }",
        );
        assert_eq!(r.races.len(), 1, "{:?}", r.races);
    }

    #[test]
    fn ab_ba_deadlock_detected() {
        let r = analyze_src(
            "program p { lock a; lock b; thread t1 { lock (a) { lock (b) { skip; } } } thread t2 { lock (b) { lock (a) { skip; } } } }",
        );
        assert_eq!(r.deadlocks.len(), 1, "{:?}", r.deadlocks);
        assert_eq!(r.deadlocks[0].locks.len(), 2);
        let d001: Vec<_> = r.diagnostics.iter().filter(|d| d.code == "D001").collect();
        assert_eq!(d001.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(
            d001[0].message,
            r#"locks ["a", "b"] can be acquired in conflicting orders"#
        );
    }

    #[test]
    fn consistent_order_no_deadlock() {
        let r = analyze_src(
            "program p { lock a; lock b; thread t1 { lock (a) { lock (b) { skip; } } } thread t2 { lock (a) { lock (b) { skip; } } } }",
        );
        assert!(r.deadlocks.is_empty());
    }

    #[test]
    fn gate_lock_suppresses_static_deadlock() {
        let r = analyze_src(
            "program p { lock g; lock a; lock b; thread t1 { lock (g) { lock (a) { lock (b) { skip; } } } } thread t2 { lock (g) { lock (b) { lock (a) { skip; } } } } }",
        );
        assert!(r.deadlocks.is_empty(), "{:?}", r.deadlocks);
    }

    #[test]
    fn single_thread_opposite_orders_not_a_deadlock() {
        let r = analyze_src(
            "program p { lock a; lock b; thread t1 { lock (a) { lock (b) { skip; } } lock (b) { lock (a) { skip; } } } }",
        );
        assert!(r.deadlocks.is_empty());
    }

    #[test]
    fn replicated_thread_can_deadlock_with_itself_reversed() {
        // One declaration, two replicas, opposite orders inside: cycle with
        // effective_threads >= 2 must be reported.
        let r = analyze_src(
            "program p { var c; lock a; lock b; thread t * 2 { if (c) { lock (a) { lock (b) { skip; } } } else { lock (b) { lock (a) { skip; } } } } }",
        );
        assert_eq!(r.deadlocks.len(), 1);
    }

    #[test]
    fn unreleased_lock_flagged() {
        let r = analyze_src("program p { lock l; thread t { acquire l; } }");
        let l003: Vec<_> = r.diagnostics.iter().filter(|d| d.code == "L003").collect();
        assert_eq!(l003.len(), 1, "{:?}", r.diagnostics);
        assert!(l003[0].message.contains("lock `l`"), "{}", l003[0].message);
    }

    #[test]
    fn no_switch_lines_are_local_computation() {
        let src = "program p { var x; thread t1 {\nlocal a = 1;\na = a + 1;\nx = a;\n} thread t2 { x = 0; } }";
        let r = analyze_src(src);
        // lines 2,3 are local-only; line 4 touches shared x.
        assert!(r.no_switch_lines.contains(&2));
        assert!(r.no_switch_lines.contains(&3));
        assert!(!r.no_switch_lines.contains(&4));
        let loc4 = Loc::new(intern_static("p"), 4);
        assert!(r.info.sites[&loc4].touches_shared);
    }

    #[test]
    fn locals_shadow_globals_in_analysis() {
        let r = analyze_src(
            "program p { var x; thread t1 { local x = 1; x = x + 1; } thread t2 { skip; } }",
        );
        assert!(
            !r.shared_vars.contains("x"),
            "shadowed global never actually accessed"
        );
    }

    #[test]
    fn replicated_threads_produce_one_diagnostic_per_site() {
        // `thread t * 3` is one declaration: the race and the atomicity
        // violation exist once, not once per instance — the dedup
        // regression for replicated declarations.
        let r = analyze_src("program p { var x; thread t * 3 { x = x + 1; } }");
        let codes: Vec<&str> = r.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(
            codes.iter().filter(|c| **c == "R001").count(),
            1,
            "one R001 for the single (variable, site) pair: {:?}",
            r.diagnostics
        );
        assert_eq!(
            codes.iter().filter(|c| **c == "A001").count(),
            1,
            "one A001 for the single unprotected RMW: {:?}",
            r.diagnostics
        );
        assert_eq!(r.diagnostics.len(), 2);
    }

    #[test]
    fn analysis_populates_mhp_and_atomicity_results() {
        let r = analyze_src(
            "program p { var x; lock l; thread a {\nlock (l) {\nx = x + 1;\n}\n} thread b {\nx = 2;\n} }",
        );
        // x is contended (b writes without the lock), so the sites conflict.
        assert!(r.mhp.contended_vars().contains(&"x".to_string()));
        // Every diagnostic carries a non-empty code and message.
        for d in &r.diagnostics {
            assert!(!d.code.is_empty() && !d.message.is_empty());
        }
    }
}
