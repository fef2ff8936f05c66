//! Per-thread control-flow graphs for MiniProg.
//!
//! Structured statements are lowered to atomic nodes: `lock (l) { … }`
//! becomes `Acquire(l) ; … ; Release(l)`, `if`/`while` become branch nodes
//! with explicit edges. Dataflow analyses (`crate::analysis`) run on this
//! graph.

use crate::ast::{Stmt, StmtKind, ThreadDecl};

/// What a CFG node does.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeKind {
    /// Function entry.
    Entry,
    /// Function exit.
    Exit,
    /// Straight-line computation: reads then optionally one write. Names
    /// are unresolved (may be locals; the analysis filters).
    Compute {
        /// Variables read, in order.
        reads: Vec<String>,
        /// Variable written, if any.
        write: Option<String>,
    },
    /// A branch decision reading the condition's variables.
    Branch {
        /// Variables read by the condition.
        reads: Vec<String>,
    },
    /// Control-flow join (no effect).
    Join,
    /// Acquire a lock.
    Acquire(String),
    /// Release a lock.
    Release(String),
    /// `wait(cond, lock)`.
    Wait {
        /// Condition.
        cond: String,
        /// Lock (released for the duration of the wait, re-held after).
        lock: String,
    },
    /// `notify`/`notifyall`.
    Notify {
        /// Condition.
        cond: String,
        /// Notify-all?
        all: bool,
    },
    /// `yield;`
    Yield,
    /// `sleep n;`
    Sleep,
    /// `assert e;` — reads only.
    Assert {
        /// Variables read by the asserted expression.
        reads: Vec<String>,
    },
    /// `skip;`
    Skip,
}

impl NodeKind {
    /// The names the node reads, in order, and the one it writes — raw,
    /// locals included. Empty for every node but compute, branch and
    /// assert.
    pub fn reads_and_write(&self) -> (&[String], Option<&String>) {
        match self {
            NodeKind::Compute { reads, write } => (reads, write.as_ref()),
            NodeKind::Branch { reads } | NodeKind::Assert { reads } => (reads, None),
            _ => (&[], None),
        }
    }
}

/// One CFG node.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// Source line (0 for synthetic entry/exit/join nodes).
    pub line: u32,
    /// Behaviour.
    pub kind: NodeKind,
}

/// A thread's control-flow graph.
#[derive(Clone, Debug, Default)]
pub struct Cfg {
    /// Nodes; index is the node id.
    pub nodes: Vec<Node>,
    /// Successor edges.
    pub succ: Vec<Vec<usize>>,
    /// Entry node id.
    pub entry: usize,
    /// Exit node id.
    pub exit: usize,
}

impl Cfg {
    fn add(&mut self, line: u32, kind: NodeKind) -> usize {
        self.nodes.push(Node { line, kind });
        self.succ.push(Vec::new());
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.succ[from].contains(&to) {
            self.succ[from].push(to);
        }
    }

    /// Predecessor lists (computed on demand).
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut p = vec![Vec::new(); self.nodes.len()];
        for (from, succs) in self.succ.iter().enumerate() {
            for &to in succs {
                p[to].push(from);
            }
        }
        p
    }

    /// Node ids in reverse-post-order-ish (plain index order is fine for
    /// the worklist analyses; provided for iteration convenience).
    pub fn ids(&self) -> impl Iterator<Item = usize> {
        0..self.nodes.len()
    }
}

/// Lower one statement sequence into `cfg`, chaining from `cur`; returns
/// the node the next statement should chain from.
fn lower_block(cfg: &mut Cfg, block: &[Stmt], mut cur: usize) -> usize {
    for s in block {
        cur = lower_stmt(cfg, s, cur);
    }
    cur
}

fn lower_stmt(cfg: &mut Cfg, s: &Stmt, cur: usize) -> usize {
    match &s.kind {
        StmtKind::Local { name, init } => {
            let reads = init.as_ref().map(|e| e.reads()).unwrap_or_default();
            let n = cfg.add(
                s.line,
                NodeKind::Compute {
                    reads,
                    write: Some(name.clone()),
                },
            );
            cfg.edge(cur, n);
            n
        }
        StmtKind::Assign { target, value } => {
            let n = cfg.add(
                s.line,
                NodeKind::Compute {
                    reads: value.reads(),
                    write: Some(target.clone()),
                },
            );
            cfg.edge(cur, n);
            n
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let b = cfg.add(
                s.line,
                NodeKind::Branch {
                    reads: cond.reads(),
                },
            );
            cfg.edge(cur, b);
            let t_end = lower_block(cfg, then_branch, b);
            let e_end = lower_block(cfg, else_branch, b);
            let j = cfg.add(0, NodeKind::Join);
            cfg.edge(t_end, j);
            cfg.edge(e_end, j);
            j
        }
        StmtKind::While { cond, body } => {
            let b = cfg.add(
                s.line,
                NodeKind::Branch {
                    reads: cond.reads(),
                },
            );
            cfg.edge(cur, b);
            let body_end = lower_block(cfg, body, b);
            cfg.edge(body_end, b);
            let j = cfg.add(0, NodeKind::Join);
            cfg.edge(b, j);
            j
        }
        StmtKind::LockBlock { lock, body } => {
            let a = cfg.add(s.line, NodeKind::Acquire(lock.clone()));
            cfg.edge(cur, a);
            let body_end = lower_block(cfg, body, a);
            let r = cfg.add(s.line, NodeKind::Release(lock.clone()));
            cfg.edge(body_end, r);
            r
        }
        StmtKind::Acquire { lock } => {
            let n = cfg.add(s.line, NodeKind::Acquire(lock.clone()));
            cfg.edge(cur, n);
            n
        }
        StmtKind::Release { lock } => {
            let n = cfg.add(s.line, NodeKind::Release(lock.clone()));
            cfg.edge(cur, n);
            n
        }
        StmtKind::Wait { cond, lock } => {
            let n = cfg.add(
                s.line,
                NodeKind::Wait {
                    cond: cond.clone(),
                    lock: lock.clone(),
                },
            );
            cfg.edge(cur, n);
            n
        }
        StmtKind::Notify { cond, all } => {
            let n = cfg.add(
                s.line,
                NodeKind::Notify {
                    cond: cond.clone(),
                    all: *all,
                },
            );
            cfg.edge(cur, n);
            n
        }
        StmtKind::Yield => {
            let n = cfg.add(s.line, NodeKind::Yield);
            cfg.edge(cur, n);
            n
        }
        StmtKind::Sleep { .. } => {
            let n = cfg.add(s.line, NodeKind::Sleep);
            cfg.edge(cur, n);
            n
        }
        StmtKind::Assert { cond, .. } => {
            let n = cfg.add(
                s.line,
                NodeKind::Assert {
                    reads: cond.reads(),
                },
            );
            cfg.edge(cur, n);
            n
        }
        StmtKind::Skip => {
            let n = cfg.add(s.line, NodeKind::Skip);
            cfg.edge(cur, n);
            n
        }
    }
}

/// Build the CFG of one thread declaration.
pub fn build_cfg(thread: &ThreadDecl) -> Cfg {
    let mut cfg = Cfg::default();
    let entry = cfg.add(0, NodeKind::Entry);
    cfg.entry = entry;
    let end = lower_block(&mut cfg, &thread.body, entry);
    let exit = cfg.add(0, NodeKind::Exit);
    cfg.edge(end, exit);
    cfg.exit = exit;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn cfg_of(src: &str) -> Cfg {
        let p = parse(src).unwrap();
        build_cfg(&p.threads[0])
    }

    #[test]
    fn straight_line_chain() {
        let c = cfg_of("program p { var x; thread t { x = 1; x = 2; } }");
        // entry -> compute -> compute -> exit
        assert_eq!(c.nodes.len(), 4);
        assert_eq!(c.succ[c.entry], vec![1]);
        assert_eq!(c.succ[1], vec![2]);
        assert_eq!(c.succ[2], vec![c.exit]);
    }

    #[test]
    fn lock_block_lowered_to_acquire_release() {
        let c = cfg_of("program p { var x; lock l; thread t { lock (l) { x = 1; } } }");
        let kinds: Vec<&NodeKind> = c.nodes.iter().map(|n| &n.kind).collect();
        assert!(matches!(kinds[1], NodeKind::Acquire(l) if l == "l"));
        assert!(matches!(kinds[3], NodeKind::Release(l) if l == "l"));
    }

    #[test]
    fn if_has_two_paths_to_join() {
        let c = cfg_of(
            "program p { var x; thread t { if (x > 0) { x = 1; } else { x = 2; } x = 3; } }",
        );
        let branch = c
            .ids()
            .find(|&i| matches!(c.nodes[i].kind, NodeKind::Branch { .. }))
            .unwrap();
        assert_eq!(c.succ[branch].len(), 2);
        let join = c
            .ids()
            .find(|&i| matches!(c.nodes[i].kind, NodeKind::Join))
            .unwrap();
        let preds = c.preds();
        assert_eq!(preds[join].len(), 2);
    }

    #[test]
    fn while_loops_back() {
        let c = cfg_of("program p { var x; thread t { while (x < 3) { x = x + 1; } } }");
        let branch = c
            .ids()
            .find(|&i| matches!(c.nodes[i].kind, NodeKind::Branch { .. }))
            .unwrap();
        // branch has body successor and join successor
        assert_eq!(c.succ[branch].len(), 2);
        // body node loops back to branch
        let body = c
            .ids()
            .find(|&i| matches!(c.nodes[i].kind, NodeKind::Compute { .. }))
            .unwrap();
        assert!(c.succ[body].contains(&branch));
    }

    #[test]
    fn empty_if_branch_still_joins() {
        let c = cfg_of("program p { var x; thread t { if (x) { } x = 1; } }");
        let join = c
            .ids()
            .find(|&i| matches!(c.nodes[i].kind, NodeKind::Join))
            .unwrap();
        let preds = c.preds();
        // Branch reaches the join both directly (empty then) and as the
        // empty else.
        assert!(!preds[join].is_empty());
    }
}
