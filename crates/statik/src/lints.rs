//! The concurrency lint pack: L001–L005.
//!
//! Each lint targets a bug *idiom* rather than a semantic property —
//! patterns the PADTAD-era tools flagged syntactically because they almost
//! always indicate a concurrency defect:
//!
//! * **L001** — `wait` outside a predicate loop: a waiter that does not
//!   re-check its condition misses wakeups that arrive early and is fooled
//!   by spurious ones.
//! * **L002** — `notify` on a condition nobody ever waits on: the signal
//!   lands nowhere, usually a misspelled or stale condition variable.
//! * **L003** — a lock acquired but not released on some path to thread
//!   exit: every later acquirer blocks forever.
//! * **L004** — `sleep` used as synchronization: ordering enforced by
//!   timing still allows the other thread to be late.
//! * **L005** — a spin loop whose only exit is observing another thread's
//!   write to a **non-volatile** variable: under weak visibility the
//!   stale cached value can spin forever.

use crate::analysis::ThreadCtx;
use crate::ast::{Expr, MiniProg, Stmt, StmtKind, ThreadDecl};
use crate::cfg::NodeKind;
use crate::diag::{Diagnostic, Severity};
use std::collections::BTreeSet;

/// Context the lints need from the surrounding analysis.
pub struct LintCtx<'a> {
    /// The program under analysis.
    pub prog: &'a MiniProg,
    /// Per-thread CFG + lockset context.
    pub threads: &'a [ThreadCtx],
    /// Shared (escaping) globals.
    pub shared: &'a BTreeSet<String>,
    /// Shared globals with an empty static lockset (racy by lockset).
    pub unguarded: &'a BTreeSet<String>,
}

/// Run every lint; diagnostics come back unsorted (the caller merges them
/// with the analysis passes' findings and dedups).
pub fn run(ctx: &LintCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    wait_outside_loop(ctx, &mut out);
    notify_without_waiter(ctx, &mut out);
    lock_leaks(ctx, &mut out);
    sleep_as_synchronization(ctx, &mut out);
    spin_on_nonvolatile(ctx, &mut out);
    out
}

fn walk<'a>(block: &'a [Stmt], in_loop: bool, f: &mut dyn FnMut(&'a Stmt, bool)) {
    for s in block {
        f(s, in_loop);
        match &s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                walk(then_branch, in_loop, f);
                walk(else_branch, in_loop, f);
            }
            StmtKind::While { body, .. } => walk(body, true, f),
            StmtKind::LockBlock { body, .. } => walk(body, in_loop, f),
            _ => {}
        }
    }
}

/// L001: a `wait` whose enclosing statement chain contains no loop.
fn wait_outside_loop(ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
    for t in &ctx.prog.threads {
        walk(&t.body, false, &mut |s, in_loop| {
            if let StmtKind::Wait { cond, .. } = &s.kind {
                if !in_loop {
                    out.push(
                        Diagnostic::new(
                            "L001",
                            Severity::Warning,
                            &ctx.prog.name,
                            s.line,
                            format!("`wait({cond}, ..)` is not guarded by a predicate loop"),
                        )
                        .note(format!(
                            "thread `{}` proceeds on any wakeup; a notify delivered before \
                             the wait, or a spurious wakeup, is silently lost",
                            t.name
                        )),
                    );
                }
            }
        });
    }
}

/// L002: a `notify` on a condition variable no thread ever waits on.
fn notify_without_waiter(ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
    let mut waited: BTreeSet<&str> = BTreeSet::new();
    for t in &ctx.prog.threads {
        walk(&t.body, false, &mut |s, _| {
            if let StmtKind::Wait { cond, .. } = &s.kind {
                waited.insert(cond.as_str());
            }
        });
    }
    for t in &ctx.prog.threads {
        walk(&t.body, false, &mut |s, _| {
            if let StmtKind::Notify { cond, .. } = &s.kind {
                if !waited.contains(cond.as_str()) {
                    out.push(
                        Diagnostic::new(
                            "L002",
                            Severity::Warning,
                            &ctx.prog.name,
                            s.line,
                            format!("notify on `{cond}`, but no thread ever waits on it"),
                        )
                        .note(format!(
                            "condition variables waited on in this program: {:?}",
                            waited.iter().collect::<Vec<_>>()
                        )),
                    );
                }
            }
        });
    }
}

/// One path's lock-balance state in [`released_on_every_path`].
#[derive(Clone)]
struct PathState {
    /// Acquire/release balance for the one lock under scrutiny.
    held: i64,
    /// Branch decisions already taken, replayed when a later condition is
    /// syntactically identical and none of its variables changed since.
    decisions: Vec<(Expr, bool)>,
}

/// Cap on simultaneously-tracked paths; exceeding it bails to `None`.
const MAX_PATHS: usize = 64;

/// Variables written anywhere in `block` (assignment targets and local
/// declarations), used to invalidate branch correlations across a loop.
fn writes_of(block: &[Stmt], out: &mut BTreeSet<String>) {
    walk(block, false, &mut |s, _| match &s.kind {
        StmtKind::Assign { target, .. } => {
            out.insert(target.clone());
        }
        StmtKind::Local { name, .. } => {
            out.insert(name.clone());
        }
        _ => {}
    });
}

fn run_paths(
    block: &[Stmt],
    mut states: Vec<PathState>,
    lock: &str,
    correlatable: &dyn Fn(&Expr) -> bool,
) -> Option<Vec<PathState>> {
    for s in block {
        match &s.kind {
            StmtKind::Acquire { lock: l } if l == lock => {
                for st in &mut states {
                    st.held += 1;
                }
            }
            StmtKind::Release { lock: l } if l == lock => {
                for st in &mut states {
                    st.held -= 1;
                    if st.held < 0 {
                        // Over-release: the runtime errors out here, so the
                        // path model no longer matches execution. Bail.
                        return None;
                    }
                }
            }
            StmtKind::LockBlock { lock: l, body } => {
                if l == lock {
                    for st in &mut states {
                        st.held += 1;
                    }
                }
                states = run_paths(body, states, lock, correlatable)?;
                if l == lock {
                    for st in &mut states {
                        st.held -= 1;
                        if st.held < 0 {
                            return None;
                        }
                    }
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let mut next = Vec::new();
                for st in states {
                    let decided = st
                        .decisions
                        .iter()
                        .find(|(c, _)| c == cond)
                        .map(|(_, taken)| *taken);
                    match decided {
                        Some(true) => {
                            next.extend(run_paths(then_branch, vec![st], lock, correlatable)?)
                        }
                        Some(false) => {
                            next.extend(run_paths(else_branch, vec![st], lock, correlatable)?)
                        }
                        None => {
                            let mut t = st.clone();
                            let mut e = st;
                            if correlatable(cond) {
                                t.decisions.push((cond.clone(), true));
                                e.decisions.push((cond.clone(), false));
                            }
                            next.extend(run_paths(then_branch, vec![t], lock, correlatable)?);
                            next.extend(run_paths(else_branch, vec![e], lock, correlatable)?);
                        }
                    }
                    if next.len() > MAX_PATHS {
                        return None;
                    }
                }
                states = next;
            }
            StmtKind::While { body, .. } => {
                // Any iteration count is balance-equivalent iff the body is
                // lock-neutral on every path; prove that with a fresh probe,
                // then model the loop as zero iterations.
                let probe = run_paths(
                    body,
                    vec![PathState {
                        held: 0,
                        decisions: Vec::new(),
                    }],
                    lock,
                    correlatable,
                )?;
                if probe.iter().any(|st| st.held != 0) {
                    return None;
                }
                let mut written = BTreeSet::new();
                writes_of(body, &mut written);
                for st in &mut states {
                    st.decisions
                        .retain(|(c, _)| c.reads().iter().all(|v| !written.contains(v)));
                }
            }
            StmtKind::Assign { target, .. } => {
                for st in &mut states {
                    st.decisions.retain(|(c, _)| !c.reads().contains(target));
                }
            }
            StmtKind::Local { name, .. } => {
                for st in &mut states {
                    st.decisions.retain(|(c, _)| !c.reads().contains(name));
                }
            }
            // `wait` releases and reacquires its lock: balance-neutral.
            _ => {}
        }
    }
    Some(states)
}

/// Branch-correlating path refinement for the lock-leak lint.
///
/// The may-held dataflow is path-insensitive, so a release split across two
/// `if`s over the same condition — `if (c) { release l; }` … `if (!taken)`
/// shapes — looks leaky even though every real path releases. This walker
/// enumerates paths through the AST, replaying a branch decision when a
/// later condition is syntactically identical, provided the condition reads
/// only variables other threads cannot touch and this thread has not
/// reassigned since (otherwise the two tests may genuinely disagree).
///
/// Returns `Some(every_path_releases)`, or `None` when the walk cannot
/// decide (path budget exhausted, lock-imbalanced loop body, over-release)
/// — callers then keep the path-insensitive verdict.
pub(crate) fn released_on_every_path(
    decl: &ThreadDecl,
    lock: &str,
    locals: &BTreeSet<String>,
    shared: &BTreeSet<String>,
) -> Option<bool> {
    let correlatable = |cond: &Expr| {
        cond.reads()
            .iter()
            .all(|v| locals.contains(v) || !shared.contains(v))
    };
    let finals = run_paths(
        &decl.body,
        vec![PathState {
            held: 0,
            decisions: Vec::new(),
        }],
        lock,
        &correlatable,
    )?;
    Some(finals.iter().all(|st| st.held == 0))
}

/// L003: a lock still held at thread exit — on every path (never released)
/// or only on some (a branch leaks it).
fn lock_leaks(ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
    for td in ctx.threads {
        let exit = td.cfg.exit;
        for lock in &td.may[exit] {
            let always = td.must[exit].contains(lock);
            // Path-insensitive "may be held" with correlated branches is the
            // classic false positive; re-check with the branch-replaying
            // walker before reporting.
            if !always {
                let decl = ctx.prog.threads.iter().find(|t| t.name == td.name);
                if let Some(decl) = decl {
                    if released_on_every_path(decl, lock, &td.locals, ctx.shared) == Some(true) {
                        continue;
                    }
                }
            }
            // Anchor at the last acquire of the leaked lock.
            let line = td
                .cfg
                .ids()
                .filter_map(|n| match &td.cfg.nodes[n].kind {
                    NodeKind::Acquire(l) if l == lock => Some(td.cfg.nodes[n].line),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            let how = if always {
                "is never released".to_string()
            } else {
                "is not released on some path".to_string()
            };
            out.push(
                Diagnostic::new(
                    "L003",
                    if always {
                        Severity::Error
                    } else {
                        Severity::Warning
                    },
                    &ctx.prog.name,
                    line,
                    format!("lock `{lock}` acquired by thread `{}` {how}", td.name),
                )
                .note(if always {
                    format!("`{lock}` is held on every path reaching thread exit")
                } else {
                    format!(
                        "`{lock}` is held on some path to thread exit but not all — \
                         a branch bypasses the release"
                    )
                }),
            );
        }
    }
}

/// L004: a `sleep` from which an access to an unguarded shared variable is
/// reachable — timing standing in for synchronization.
fn sleep_as_synchronization(ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
    for td in ctx.threads {
        let cfg = &td.cfg;
        for n in cfg.ids() {
            if !matches!(cfg.nodes[n].kind, NodeKind::Sleep) {
                continue;
            }
            // BFS forward from the sleep looking for an unguarded shared
            // access.
            let mut seen = vec![false; cfg.nodes.len()];
            let mut work = cfg.succ[n].clone();
            let mut hit: Option<(u32, String)> = None;
            while let Some(m) = work.pop() {
                if seen[m] {
                    continue;
                }
                seen[m] = true;
                let touched: Vec<&String> = match &cfg.nodes[m].kind {
                    NodeKind::Compute { reads, write } => {
                        reads.iter().chain(write.iter()).collect()
                    }
                    NodeKind::Branch { reads } | NodeKind::Assert { reads } => {
                        reads.iter().collect()
                    }
                    _ => Vec::new(),
                };
                if let Some(v) = touched
                    .iter()
                    .find(|v| !td.locals.contains(**v) && ctx.unguarded.contains(**v))
                {
                    hit = Some((cfg.nodes[m].line, (*v).clone()));
                    break;
                }
                work.extend(cfg.succ[m].iter().copied());
            }
            if let Some((line, var)) = hit {
                out.push(
                    Diagnostic::new(
                        "L004",
                        Severity::Info,
                        &ctx.prog.name,
                        cfg.nodes[n].line,
                        format!(
                            "`sleep` in thread `{}` orders an access to unguarded shared \
                             `{var}` by timing alone",
                            td.name
                        ),
                    )
                    .span(line)
                    .note(format!(
                        "the access at line {line} proceeds whether or not the other \
                         thread has run; use a lock/condition instead of a delay"
                    )),
                );
            }
        }
    }
}

/// L005: a loop whose *only* exit condition is another thread's write to a
/// non-volatile shared variable, with no visibility-refreshing operation
/// in condition or body.
fn spin_on_nonvolatile(ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
    // Vars written anywhere, per thread declaration.
    let writers = |v: &str| -> Vec<&str> {
        ctx.prog
            .threads
            .iter()
            .filter(|t| {
                let mut writes = false;
                walk(&t.body, false, &mut |s, _| {
                    if let StmtKind::Assign { target, .. } = &s.kind {
                        if target == v && !t.local_names().contains(v) {
                            writes = true;
                        }
                    }
                });
                writes
            })
            .map(|t| t.name.as_str())
            .collect()
    };
    for t in &ctx.prog.threads {
        let locals = t.local_names();
        walk(&t.body, false, &mut |s, _| {
            let StmtKind::While { cond, body } = &s.kind else {
                return;
            };
            let reads = cond.reads();
            // Exit must depend solely on shared state: no local in the
            // condition (a local counter bounds the loop by itself).
            if reads.is_empty() || reads.iter().any(|r| locals.contains(r)) {
                return;
            }
            let spin_vars: Vec<&String> = reads
                .iter()
                .filter(|r| {
                    ctx.prog
                        .globals
                        .iter()
                        .any(|g| &g.name == *r && !g.volatile && ctx.shared.contains(*r))
                })
                .collect();
            if spin_vars.is_empty() {
                return;
            }
            // Any sync operation in the body refreshes this thread's view.
            let mut refreshes = false;
            walk(body, true, &mut |b, _| {
                if matches!(
                    b.kind,
                    StmtKind::LockBlock { .. }
                        | StmtKind::Acquire { .. }
                        | StmtKind::Release { .. }
                        | StmtKind::Wait { .. }
                ) {
                    refreshes = true;
                }
            });
            if refreshes {
                return;
            }
            let var = spin_vars[0];
            let who = writers(var);
            let others: Vec<&str> = who.iter().copied().filter(|w| *w != t.name).collect();
            if others.is_empty() {
                return; // nobody else flips the flag; not a hand-off spin
            }
            out.push(
                Diagnostic::new(
                    "L005",
                    Severity::Warning,
                    &ctx.prog.name,
                    s.line,
                    format!(
                        "thread `{}` spins on non-volatile `{var}` with no \
                         synchronization in the loop",
                        t.name
                    ),
                )
                .note(format!(
                    "`{var}` is written by {others:?}; without `volatile` (or a lock in \
                     the loop) the spinning thread may never observe the write"
                )),
            );
        });
    }
}

// The lints are exercised end-to-end through `analysis::analyze` — see the
// lint tests in `analysis.rs` and the per-sample expectations in
// `samples.rs`.

#[cfg(test)]
mod tests {
    use crate::analysis::analyze;
    use crate::parser::parse;

    fn codes(src: &str) -> Vec<String> {
        analyze(&parse(src).unwrap())
            .diagnostics
            .iter()
            .map(|d| d.code.clone())
            .collect()
    }

    #[test]
    fn l001_fires_only_outside_a_loop() {
        let bare = codes(
            "program p { lock l; cond c; thread w { acquire l; wait(c, l); release l; } \
             thread n { notify c; } }",
        );
        assert!(bare.contains(&"L001".to_string()), "{bare:?}");
        let looped = codes(
            "program p { var go; lock l; cond c; \
             thread w { acquire l; while (go == 0) { wait(c, l); } release l; } \
             thread n { lock (l) { go = 1; notify c; } } }",
        );
        assert!(!looped.contains(&"L001".to_string()), "{looped:?}");
    }

    #[test]
    fn l002_fires_for_orphan_notify() {
        let c = codes(
            "program p { var go; lock l; cond a; cond b; \
             thread w { acquire l; while (go == 0) { wait(a, l); } release l; } \
             thread n { lock (l) { go = 1; notify b; } } }",
        );
        assert!(c.contains(&"L002".to_string()), "{c:?}");
        assert!(!c.contains(&"L001".to_string()), "{c:?}");
    }

    #[test]
    fn l003_distinguishes_some_path_from_every_path() {
        let r = analyze(
            &parse(
                "program p { var x; lock a; lock b; thread t { \
                   acquire a; \
                   acquire b; release b; \
                   if (x) { release a; } } }",
            )
            .unwrap(),
        );
        let leaks: Vec<_> = r.diagnostics.iter().filter(|d| d.code == "L003").collect();
        assert_eq!(leaks.len(), 1, "{leaks:?}");
        assert!(
            leaks[0].message.contains("some path"),
            "{}",
            leaks[0].message
        );

        let never = analyze(&parse("program p { lock l; thread t { acquire l; } }").unwrap());
        let leak = never
            .diagnostics
            .iter()
            .find(|d| d.code == "L003")
            .expect("never-released lock flagged");
        assert!(leak.message.contains("never released"));
        assert_eq!(leak.severity, crate::diag::Severity::Error);
    }

    #[test]
    fn l003_correlated_branch_release_is_not_a_leak() {
        // Release split across two ifs over the same unshared condition:
        // every real path releases exactly once, and the may-held dataflow's
        // "some path" verdict is refuted by the branch-replaying walker.
        let clean = analyze(
            &parse(
                "program p { lock l; thread t { \
                   local c = 1; \
                   acquire l; \
                   if (c == 1) { release l; } else { skip; } \
                   if (c == 1) { skip; } else { release l; } } }",
            )
            .unwrap(),
        );
        assert!(
            !clean.diagnostics.iter().any(|d| d.code == "L003"),
            "{:?}",
            clean.diagnostics
        );
        assert!(clean.unreleased.is_empty());

        // Reassigning the condition between the two tests breaks the
        // correlation, so the warning must come back.
        let dirty = analyze(
            &parse(
                "program p { lock l; thread t { \
                   local c = 1; \
                   acquire l; \
                   if (c == 1) { release l; } else { skip; } \
                   c = 0; \
                   if (c == 1) { skip; } else { release l; } } }",
            )
            .unwrap(),
        );
        assert!(dirty.diagnostics.iter().any(|d| d.code == "L003"));

        // So does another thread writing the condition variable.
        let shared = analyze(
            &parse(
                "program p { var x; lock l; \
                 thread t { \
                   acquire l; \
                   if (x == 0) { release l; } else { skip; } \
                   if (x == 0) { skip; } else { release l; } } \
                 thread u { x = 1; } }",
            )
            .unwrap(),
        );
        assert!(shared.diagnostics.iter().any(|d| d.code == "L003"));
    }

    #[test]
    fn l004_fires_for_sleep_ordered_access() {
        let c = codes(
            "program p { var data; var out; \
             thread w { data = 7; } \
             thread r { local v; sleep 10; v = data; out = v; } }",
        );
        assert!(c.contains(&"L004".to_string()), "{c:?}");
    }

    #[test]
    fn l004_silent_when_access_is_guarded() {
        let c = codes(
            "program p { var data; lock l; \
             thread w { lock (l) { data = 7; } } \
             thread r { local v; sleep 10; lock (l) { v = data; } } }",
        );
        assert!(!c.contains(&"L004".to_string()), "{c:?}");
    }

    #[test]
    fn l005_fires_for_plain_flag_spin_not_volatile() {
        let plain = codes(
            "program p { var flag; thread w { flag = 1; } \
             thread s { while (flag == 0) { yield; } } }",
        );
        assert!(plain.contains(&"L005".to_string()), "{plain:?}");
        let vol = codes(
            "program p { volatile var flag; thread w { flag = 1; } \
             thread s { while (flag == 0) { yield; } } }",
        );
        assert!(!vol.contains(&"L005".to_string()), "{vol:?}");
    }

    #[test]
    fn l005_exempts_bounded_polls_and_locked_rechecks() {
        // A local spin bound in the condition = self-limiting poll.
        let bounded = codes(
            "program p { var flag; thread w { flag = 1; } \
             thread s { local n = 0; while (flag == 0 && n < 10) { n = n + 1; } } }",
        );
        assert!(!bounded.contains(&"L005".to_string()), "{bounded:?}");
        // A lock inside the body refreshes visibility each iteration.
        let locked = codes(
            "program p { var flag; lock l; thread w { lock (l) { flag = 1; } } \
             thread s { local v = 0; while (v == 0) { lock (l) { v = flag; } } } }",
        );
        assert!(!locked.contains(&"L005".to_string()), "{locked:?}");
    }
}
