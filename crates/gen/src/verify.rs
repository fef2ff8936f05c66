//! Mutation-metadata consistency: every [`Mutation`] a member records
//! must be structurally visible in its emitted source. `guard_removed`
//! with the lock op still present, or `threads(4)` with a different
//! replica count, is a generator bug — the property tests run this
//! checker over every member of every family they visit.

use crate::{GenProgram, Mutation, Pattern};
use mtt_static::ast::{walk, MiniProg, StmtKind};
use mtt_static::{parse, print};
use std::collections::BTreeSet;

fn err(member: &GenProgram, msg: String) -> String {
    format!("{}: {msg}", member.name)
}

/// The hot variable a race/atom member mutates, recovered from its
/// mutation record (alias applied, canonical `x` otherwise).
fn hot_var(member: &GenProgram) -> String {
    member
        .mutations
        .iter()
        .find_map(|m| match m {
            Mutation::VarAliased { to, .. } => Some(to.clone()),
            _ => None,
        })
        .unwrap_or_else(|| "x".to_string())
}

/// All variables the member's RMW targets (`[hot]`, or both halves
/// under `var_split`).
fn hot_vars(member: &GenProgram) -> Vec<String> {
    for m in &member.mutations {
        if let Mutation::VarSplit { vars } = m {
            return vars.clone();
        }
    }
    vec![hot_var(member)]
}

/// Lines of every statement in the program.
fn all_lines(prog: &MiniProg) -> BTreeSet<u32> {
    let mut lines = BTreeSet::new();
    for t in &prog.threads {
        walk(&t.body, &mut |s, _, _| {
            lines.insert(s.line);
        });
    }
    lines
}

/// Nested-acquisition edges `(outer, inner)` across the whole program.
fn nesting_edges(prog: &MiniProg) -> BTreeSet<(String, String)> {
    let mut edges = BTreeSet::new();
    for t in &prog.threads {
        walk(&t.body, &mut |s, stack, _| {
            if let StmtKind::LockBlock { lock, .. } = &s.kind {
                for held in stack {
                    edges.insert((held.to_string(), lock.clone()));
                }
            }
        });
    }
    edges
}

/// Does the edge relation contain a directed cycle?
fn has_cycle(edges: &BTreeSet<(String, String)>) -> bool {
    let nodes: BTreeSet<&str> = edges
        .iter()
        .flat_map(|(a, b)| [a.as_str(), b.as_str()])
        .collect();
    // Tiny graphs (≤ 3 locks): repeated relaxation reachability.
    for start in &nodes {
        let mut reach: BTreeSet<&str> = BTreeSet::new();
        let mut frontier = vec![*start];
        while let Some(n) = frontier.pop() {
            for (a, b) in edges {
                if a == n && reach.insert(b) {
                    frontier.push(b);
                }
            }
        }
        if reach.contains(start) {
            return true;
        }
    }
    false
}

/// Check one generated member against its own metadata. Returns the
/// first inconsistency found.
pub fn check_member(member: &GenProgram) -> Result<(), String> {
    let prog =
        parse(&member.src).map_err(|e| err(member, format!("source does not parse: {e}")))?;
    if prog.name != member.name {
        return Err(err(
            member,
            format!("program header `{}` != member name", prog.name),
        ));
    }
    if print(&prog) != member.src {
        return Err(err(member, "source is not in printer normal form".into()));
    }

    // Ground truth basics.
    if member.truth.benign != member.truth.manifest_lines.is_empty() {
        return Err(err(
            member,
            format!(
                "benign={} but manifest_lines={:?}",
                member.truth.benign, member.truth.manifest_lines
            ),
        ));
    }
    let lines = all_lines(&prog);
    for l in &member.truth.manifest_lines {
        if !lines.contains(l) {
            return Err(err(
                member,
                format!("manifest line {l} does not exist in the source"),
            ));
        }
    }

    // Gather the facts the mutation checks need.
    let hots = hot_vars(member);
    let mut unguarded_hot_writes = 0usize;
    let mut guarded_hot_writes = 0usize;
    let mut unguarded_notifies = 0usize;
    let mut guarded_notifies = 0usize;
    let mut split_blocks = 0usize; // lock blocks whose body assigns a hot var or reads one into a temp
    let mut nz_locals = 0usize;
    for t in &prog.threads {
        walk(&t.body, &mut |s, stack, _| match &s.kind {
            StmtKind::Assign { target, .. } if hots.contains(target) => {
                if stack.is_empty() {
                    unguarded_hot_writes += 1;
                } else {
                    guarded_hot_writes += 1;
                }
            }
            StmtKind::Notify { .. } => {
                if stack.is_empty() {
                    unguarded_notifies += 1;
                } else {
                    guarded_notifies += 1;
                }
            }
            StmtKind::LockBlock { body, .. } if stack.is_empty() => {
                let touches = body.iter().any(|inner| {
                    matches!(&inner.kind, StmtKind::Assign { target, value } if hots.contains(target)
                        || matches!(value, mtt_static::ast::Expr::Var(v) if hots.contains(v)))
                });
                if touches {
                    split_blocks += 1;
                }
            }
            StmtKind::Local { name, .. } if name == "nz" => nz_locals += 1,
            _ => {}
        });
    }
    let edges = nesting_edges(&prog);

    let mut declared_noise = 0u32;
    let mut declared_reorder = None;
    for m in &member.mutations {
        match m {
            Mutation::GuardRemoved { .. } => match member.pattern {
                Pattern::Race => {
                    if unguarded_hot_writes == 0 {
                        return Err(err(
                            member,
                            "guard_removed but every hot-var write is locked".into(),
                        ));
                    }
                }
                Pattern::LostNotify => {
                    if unguarded_notifies == 0 {
                        return Err(err(member, "guard_removed but the notify is locked".into()));
                    }
                }
                _ => return Err(err(member, "guard_removed on the wrong pattern".into())),
            },
            Mutation::GuardAdded { .. } => match member.pattern {
                Pattern::Race | Pattern::SplitAtomic => {
                    if unguarded_hot_writes != 0 {
                        return Err(err(
                            member,
                            format!("guard_added but {unguarded_hot_writes} hot-var writes are unlocked"),
                        ));
                    }
                    if guarded_hot_writes == 0 {
                        return Err(err(
                            member,
                            "guard_added but no locked hot-var write".into(),
                        ));
                    }
                }
                Pattern::LostNotify => {
                    if unguarded_notifies != 0 || guarded_notifies == 0 {
                        return Err(err(member, "guard_added but the notify is unlocked".into()));
                    }
                }
                Pattern::LockCycle => {
                    return Err(err(member, "guard_added on the wrong pattern".into()))
                }
            },
            Mutation::GuardSplit { .. } => {
                if member.pattern != Pattern::SplitAtomic {
                    return Err(err(member, "guard_split on the wrong pattern".into()));
                }
                if unguarded_hot_writes != 0 {
                    return Err(err(
                        member,
                        "guard_split but a hot-var write is unlocked".into(),
                    ));
                }
                if split_blocks < 2 {
                    return Err(err(
                        member,
                        format!("guard_split but only {split_blocks} hot critical sections"),
                    ));
                }
            }
            Mutation::OrderCycled { .. } => {
                if !has_cycle(&edges) {
                    return Err(err(
                        member,
                        format!("order_cycled but acquisition edges {edges:?} are acyclic"),
                    ));
                }
            }
            Mutation::OrderSorted { .. } => {
                if has_cycle(&edges) {
                    return Err(err(
                        member,
                        format!("order_sorted but acquisition edges {edges:?} contain a cycle"),
                    ));
                }
            }
            Mutation::ThreadCount { threads } => {
                if !prog
                    .threads
                    .iter()
                    .any(|t| t.name == "worker" && t.count == *threads)
                {
                    return Err(err(
                        member,
                        format!("threads({threads}) but no such replica count"),
                    ));
                }
            }
            Mutation::Waiters { count } => {
                if !prog
                    .threads
                    .iter()
                    .any(|t| t.name == "waiter" && t.count == *count)
                {
                    return Err(err(
                        member,
                        format!("waiters({count}) but no such replica count"),
                    ));
                }
            }
            Mutation::CycleLen { locks } => {
                if prog.locks.len() != *locks as usize || prog.threads.len() != *locks as usize {
                    return Err(err(
                        member,
                        format!(
                            "cycle({locks}) but program has {} locks / {} threads",
                            prog.locks.len(),
                            prog.threads.len()
                        ),
                    ));
                }
            }
            Mutation::VarAliased { from, to } => {
                let known: BTreeSet<&str> = prog
                    .globals
                    .iter()
                    .map(|g| g.name.as_str())
                    .chain(prog.locks.iter().map(String::as_str))
                    .chain(prog.conds.iter().map(String::as_str))
                    .collect();
                if !known.contains(to.as_str()) {
                    return Err(err(member, format!("var_aliased to unknown name `{to}`")));
                }
                if from == to {
                    return Err(err(member, "var_aliased to the canonical name".into()));
                }
            }
            Mutation::VarSplit { vars } => {
                for v in vars {
                    if !prog.globals.iter().any(|g| g.name == *v) {
                        return Err(err(member, format!("var_split names missing global `{v}`")));
                    }
                }
            }
            Mutation::NoiseOps { count } => declared_noise = *count,
            Mutation::OpsReordered { rotation } => declared_reorder = Some(*rotation),
        }
    }

    if declared_noise > 0 && nz_locals == 0 {
        return Err(err(
            member,
            "noise_ops declared but no `nz` local emitted".into(),
        ));
    }
    if declared_noise == 0 && nz_locals != 0 {
        return Err(err(
            member,
            "`nz` noise local emitted without a noise_ops record".into(),
        ));
    }
    if let Some(r) = declared_reorder {
        if r == 0 || declared_noise < 2 {
            return Err(err(
                member,
                format!("ops_reordered({r}) needs at least 2 noise ops (have {declared_noise})"),
            ));
        }
    }
    Ok(())
}
