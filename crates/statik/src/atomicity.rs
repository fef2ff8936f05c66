//! Atomicity inference (A001): compound regions another thread can
//! interleave.
//!
//! The pass looks for *compound regions* that a programmer plainly meant
//! to be atomic — a read of shared `v` whose result flows (through local
//! temporaries or a branch) into a later write of `v` — and reports the
//! region when another thread instance can run between the read and the
//! dependent write:
//!
//! * **unguarded** regions (no lock is must-held at every access of `v`)
//!   over a variable with parallel conflicting accesses: any point inside
//!   can interleave (check-then-act, unprotected read-modify-write);
//! * **guarded** regions with a *lock gap*: a node on a path from the read
//!   to the write where the must-lockset holds none of `v`'s protecting
//!   locks, while another thread instance writes `v`. That is the classic
//!   "two small critical sections pretending to be one" bug, invisible to
//!   lockset race detectors because every single access *is* consistently
//!   locked. (In Lipton's reduction terms the gap is a release followed by
//!   a re-acquire, so the region is not reducible; the pass finds it
//!   through the must-locksets alone.)
//!
//! The reads and writes of `v` are the thread's global accesses, as
//! [`ThreadCtx`] lists them: a local that shadows `v` is not `v`.

use crate::analysis::ThreadCtx;
use crate::cfg::{Cfg, NodeKind};
use crate::dataflow::LockSet;
use std::collections::{BTreeMap, BTreeSet};

/// One non-atomic compound region.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct AtomicityViolation {
    /// The variable whose check/update spans the region.
    pub var: String,
    /// Thread declaration containing the region.
    pub thread: String,
    /// Line of the initiating read (or check).
    pub read_line: u32,
    /// Line of the dependent write.
    pub write_line: u32,
    /// The protecting lock released mid-region (`None` = region is
    /// entirely unguarded).
    pub lock: Option<String>,
    /// Short pattern name for evidence ("check-then-act",
    /// "split-lock read-modify-write", "unprotected read-modify-write").
    pub kind: &'static str,
}

/// Nodes reachable from `start` by one or more edges.
fn reachable_after(cfg: &Cfg, start: usize) -> Vec<bool> {
    let mut seen = vec![false; cfg.nodes.len()];
    let mut work: Vec<usize> = cfg.succ[start].clone();
    while let Some(n) = work.pop() {
        if !seen[n] {
            seen[n] = true;
            work.extend(cfg.succ[n].iter().copied());
        }
    }
    seen
}

/// Find non-atomic compound regions over the shared variables.
///
/// * `guards` — per shared variable, the locks must-held at *every* access
///   (the static-lockset result); empty set = unguarded.
/// * `contended` — variables with at least one MHP-parallel conflicting
///   access pair.
/// * `competing_writer` — answers whether some *other* thread instance
///   writes the variable (another declaration, or a replica of the same
///   declaration).
pub fn find_violations(
    threads: &[ThreadCtx],
    shared: &BTreeSet<String>,
    guards: &BTreeMap<String, LockSet>,
    contended: &[String],
    competing_writer: &dyn Fn(&str, usize) -> bool,
) -> Vec<AtomicityViolation> {
    let mut out: BTreeSet<AtomicityViolation> = BTreeSet::new();

    for (ti, td) in threads.iter().enumerate() {
        let cfg = &td.cfg;
        let reach_fwd: Vec<Vec<bool>> = cfg.ids().map(|n| reachable_after(cfg, n)).collect();

        for v in shared {
            let guard = guards.get(v).cloned().unwrap_or_default();
            let interleavable = if guard.is_empty() {
                contended.contains(v)
            } else {
                competing_writer(v, ti)
            };
            if !interleavable {
                continue;
            }
            // A node strictly inside a guarded region where no protecting
            // lock is held is the L…R gap that breaks reducibility.
            let is_gap = |g: usize| -> bool {
                guard.is_empty() || td.must[g].intersection(&guard).next().is_none()
            };
            let breakable = |d: usize, w: usize| -> bool {
                if guard.is_empty() {
                    // Even adjacent read/write nodes interleave: every
                    // event is a scheduling point.
                    return true;
                }
                cfg.ids()
                    .any(|g| g != d && g != w && reach_fwd[d][g] && reach_fwd[g][w] && is_gap(g))
            };

            // Does node `n` read (write) the global `v`? A local that
            // shadows `v` is not `v`.
            let touches = |n: usize, write: bool| {
                td.accesses[n]
                    .iter()
                    .any(|a| a.var == *v && a.write == write)
            };
            // Loads of `v` into a local, seeding the taint closure.
            let mut tainted: BTreeSet<(String, usize)> = BTreeSet::new();
            let mut load_of: BTreeMap<usize, usize> = BTreeMap::new(); // def node -> load node
            for n in cfg.ids() {
                if let (_, Some(t)) = cfg.nodes[n].kind.reads_and_write() {
                    if td.locals.contains(t) && touches(n, false) {
                        tainted.insert((t.clone(), n));
                        load_of.insert(n, n);
                    }
                }
            }
            // Propagate taint through local-to-local computation.
            loop {
                let mut grew = false;
                for n in cfg.ids() {
                    if let (reads, Some(m)) = cfg.nodes[n].kind.reads_and_write() {
                        if !td.locals.contains(m) || tainted.contains(&(m.clone(), n)) {
                            continue;
                        }
                        let Some(defs) = &td.defs[n] else {
                            continue;
                        };
                        let from_load = reads.iter().find_map(|r| {
                            defs.iter()
                                .find(|(name, d)| name == r && tainted.contains(&(r.clone(), *d)))
                                .map(|(_, d)| *d)
                        });
                        if let Some(d) = from_load {
                            tainted.insert((m.clone(), n));
                            let origin = load_of.get(&d).copied().unwrap_or(d);
                            load_of.insert(n, origin);
                            grew = true;
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
            let tainted_origin = |reads: &[String], n: usize| -> Option<usize> {
                let defs = td.defs[n].as_ref()?;
                reads.iter().find_map(|r| {
                    defs.iter()
                        .find(|(name, d)| name == r && tainted.contains(&(r.clone(), *d)))
                        .and_then(|(_, d)| load_of.get(d).copied())
                })
            };
            let mut report = |d: usize, w: usize, kind: &'static str| {
                if breakable(d, w) {
                    out.insert(AtomicityViolation {
                        var: v.clone(),
                        thread: td.name.clone(),
                        read_line: cfg.nodes[d].line,
                        write_line: cfg.nodes[w].line,
                        lock: guard.iter().next().cloned(),
                        kind,
                    });
                }
            };

            for w in cfg.ids() {
                let (reads, _) = cfg.nodes[w].kind.reads_and_write();
                if touches(w, true) {
                    // Dependent write: `v = f(t)` where `t` carries a prior
                    // read of `v`.
                    if touches(w, false) && guard.is_empty() {
                        // Single-statement `v = v + 1`: a read and a write
                        // with a window between their events.
                        report(w, w, "unprotected read-modify-write");
                    }
                    if let Some(d) = tainted_origin(reads, w) {
                        let kind = if guard.is_empty() {
                            "unprotected read-modify-write"
                        } else {
                            "split-lock read-modify-write"
                        };
                        report(d, w, kind);
                    }
                } else if matches!(cfg.nodes[w].kind, NodeKind::Branch { .. }) {
                    // Check: a branch on `v` (directly or via a tainted
                    // local) governing a later write of `v`.
                    let origin = if touches(w, false) {
                        Some(w)
                    } else {
                        tainted_origin(reads, w)
                    };
                    if let Some(d) = origin {
                        for w2 in cfg.ids() {
                            if w2 != w && reach_fwd[w][w2] && touches(w2, true) {
                                report(d, w2, "check-then-act");
                            }
                        }
                    }
                }
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::parser::parse;

    fn violations(src: &str) -> Vec<AtomicityViolation> {
        analyze(&parse(src).unwrap()).atomicity
    }

    #[test]
    fn unprotected_rmw_is_flagged() {
        let v = violations("program p { var x; thread t * 2 { x = x + 1; } }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].var, "x");
        assert_eq!(v[0].kind, "unprotected read-modify-write");
        assert_eq!(v[0].lock, None);
    }

    #[test]
    fn split_temp_rmw_is_flagged_with_read_and_write_lines() {
        let src = "program p { var x;\nthread a {\nlocal t;\nt = x;\nt = t + 1;\nx = t;\n}\nthread b { x = 5; } }";
        let v = violations(src);
        let split = v
            .iter()
            .find(|a| a.thread == "a")
            .expect("thread a region flagged");
        assert_eq!((split.read_line, split.write_line), (4, 6));
    }

    #[test]
    fn check_then_act_via_branch_is_flagged() {
        let v = violations("program p { var slot; thread t * 2 { if (slot == 0) { slot = 1; } } }");
        assert!(v.iter().any(|a| a.kind == "check-then-act"), "{v:?}");
    }

    #[test]
    fn split_lock_region_is_flagged_despite_consistent_locking() {
        // Every access is under `l` — no lockset race — yet the region is
        // not atomic: the L…R gap between the two critical sections.
        let v = violations(
            "program p { var x; lock l; thread t * 2 { \
               local c; \
               lock (l) { c = x; } \
               c = c + 1; \
               lock (l) { x = c; } } }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, "split-lock read-modify-write");
        assert_eq!(v[0].lock.as_deref(), Some("l"));
    }

    #[test]
    fn single_critical_section_is_atomic() {
        let v = violations(
            "program p { var x; lock l; thread t * 2 { \
               local c; \
               lock (l) { c = x; c = c + 1; x = c; } } }",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn guarded_rmw_single_statement_is_atomic() {
        let v = violations("program p { var x; lock l; thread t * 2 { lock (l) { x = x + 1; } } }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_local_that_shadows_a_global_is_not_the_global() {
        // Thread a updates only its local `x`: no region on the global.
        let src = "program shadow {\n  var x = 0;\n  thread a { local x = 1; x = x + 1; }\n  \
                   thread b { x = 2; }\n  thread c { x = 3; }\n}";
        let r = analyze(&parse(src).unwrap());
        assert!(r.atomicity.is_empty(), "{:?}", r.atomicity);
        let codes: Vec<(&str, u32)> = r
            .diagnostics
            .iter()
            .map(|d| (d.code.as_str(), d.line))
            .collect();
        assert_eq!(codes, [("R001", 4)]);
        assert!(r.no_switch_lines.contains(&3), "{:?}", r.no_switch_lines);
    }

    #[test]
    fn single_thread_region_has_no_violation() {
        // No competing instance: nothing can interleave with the region.
        let v = violations("program p { var x; thread t { x = x + 1; } }");
        assert!(v.is_empty(), "{v:?}");
    }
}
