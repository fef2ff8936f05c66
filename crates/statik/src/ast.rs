//! MiniProg abstract syntax.

use std::collections::BTreeSet;

/// A parsed MiniProg program.
#[derive(Clone, Debug, PartialEq)]
pub struct MiniProg {
    /// Program name (becomes the `Loc::file` of every event).
    pub name: String,
    /// Global shared variables.
    pub globals: Vec<GlobalDecl>,
    /// Declared mutexes.
    pub locks: Vec<String>,
    /// Declared condition variables.
    pub conds: Vec<String>,
    /// Thread declarations; all replicas of all threads start together.
    pub threads: Vec<ThreadDecl>,
}

impl MiniProg {
    /// Total number of model threads the program will start (excluding the
    /// coordinating main thread).
    pub fn thread_instances(&self) -> u32 {
        self.threads.iter().map(|t| t.count).sum()
    }

    /// Is `name` a declared global?
    pub fn is_global(&self, name: &str) -> bool {
        self.globals.iter().any(|g| g.name == name)
    }
}

/// One global variable declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct GlobalDecl {
    /// Variable name.
    pub name: String,
    /// Initial value.
    pub init: i64,
    /// `volatile var` vs plain `var`. Volatile globals are sequentially
    /// consistent; plain globals use the runtime's weak-visibility model.
    pub volatile: bool,
}

/// One thread declaration (`thread name * count { ... }`).
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadDecl {
    /// Thread (template) name.
    pub name: String,
    /// Number of replicas started (`* count`, default 1).
    pub count: u32,
    /// Body.
    pub body: Vec<Stmt>,
}

impl ThreadDecl {
    /// Names declared `local` anywhere in the body (flat scoping: a local
    /// shadows a same-named global for the whole thread).
    pub fn local_names(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        walk(&self.body, &mut |s, _, _| {
            if let StmtKind::Local { name, .. } = &s.kind {
                out.insert(name.clone());
            }
        });
        out
    }
}

/// Call `f` on every statement of `block` in source order, descending into
/// `if`, `while` and `lock` bodies. `f` also gets the names of the `lock`
/// blocks around the statement, outermost first, and whether a `while`
/// body encloses it.
pub fn walk<'a>(block: &'a [Stmt], f: &mut dyn FnMut(&'a Stmt, &[&'a str], bool)) {
    walk_in(block, &mut Vec::new(), false, f);
}

fn walk_in<'a>(
    block: &'a [Stmt],
    locks: &mut Vec<&'a str>,
    in_loop: bool,
    f: &mut dyn FnMut(&'a Stmt, &[&'a str], bool),
) {
    for s in block {
        f(s, locks, in_loop);
        match &s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                walk_in(then_branch, locks, in_loop, f);
                walk_in(else_branch, locks, in_loop, f);
            }
            StmtKind::While { body, .. } => walk_in(body, locks, true, f),
            StmtKind::LockBlock { lock, body } => {
                locks.push(lock);
                walk_in(body, locks, in_loop, f);
                locks.pop();
            }
            _ => {}
        }
    }
}

/// A statement with its source line.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    /// 1-based source line.
    pub line: u32,
    /// The statement proper.
    pub kind: StmtKind,
}

/// Statement kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum StmtKind {
    /// `local x;` or `local x = e;`
    Local {
        /// Local name.
        name: String,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// `x = e;` — assignment to a local or global.
    Assign {
        /// Target name (resolved local-first).
        target: String,
        /// Right-hand side.
        value: Expr,
    },
    /// `if (e) { ... } else { ... }`
    If {
        /// Condition (nonzero = true).
        cond: Expr,
        /// Then branch.
        then_branch: Vec<Stmt>,
        /// Else branch (empty when absent).
        else_branch: Vec<Stmt>,
    },
    /// `while (e) { ... }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `lock (l) { ... }` — the structured `synchronized` block.
    LockBlock {
        /// Lock name.
        lock: String,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `acquire l;`
    Acquire {
        /// Lock name.
        lock: String,
    },
    /// `release l;`
    Release {
        /// Lock name.
        lock: String,
    },
    /// `wait(c, l);`
    Wait {
        /// Condition name.
        cond: String,
        /// Lock name (must be held).
        lock: String,
    },
    /// `notify c;` / `notifyall c;`
    Notify {
        /// Condition name.
        cond: String,
        /// Notify-all?
        all: bool,
    },
    /// `yield;`
    Yield,
    /// `sleep n;`
    Sleep {
        /// Virtual ticks.
        ticks: u32,
    },
    /// `assert e : "label";`
    Assert {
        /// Checked expression (nonzero = pass).
        cond: Expr,
        /// Label reported on failure.
        label: String,
    },
    /// `skip;`
    Skip,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!0 == 1`).
    Not,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Variable reference (local or global; resolved by context).
    Var(String),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Collect variable names read by this expression, in evaluation order
    /// (left to right), into `out`.
    pub fn reads_into(&self, out: &mut Vec<String>) {
        match self {
            Expr::Int(_) => {}
            Expr::Var(n) => out.push(n.clone()),
            Expr::Unary { expr, .. } => expr.reads_into(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.reads_into(out);
                rhs.reads_into(out);
            }
        }
    }

    /// All variable names read.
    pub fn reads(&self) -> Vec<String> {
        let mut v = Vec::new();
        self.reads_into(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(n: &str) -> Expr {
        Expr::Var(n.into())
    }

    #[test]
    fn expr_reads_in_order() {
        let e = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(var("a")),
            rhs: Box::new(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(Expr::Binary {
                    op: BinOp::Mul,
                    lhs: Box::new(var("b")),
                    rhs: Box::new(var("a")),
                }),
            }),
        };
        assert_eq!(e.reads(), vec!["a", "b", "a"]);
        assert_eq!(Expr::Int(3).reads(), Vec::<String>::new());
    }

    #[test]
    fn local_collection_descends_into_blocks() {
        let t = ThreadDecl {
            name: "t".into(),
            count: 1,
            body: vec![
                Stmt {
                    line: 1,
                    kind: StmtKind::Local {
                        name: "a".into(),
                        init: None,
                    },
                },
                Stmt {
                    line: 2,
                    kind: StmtKind::While {
                        cond: Expr::Int(1),
                        body: vec![Stmt {
                            line: 3,
                            kind: StmtKind::Local {
                                name: "b".into(),
                                init: None,
                            },
                        }],
                    },
                },
            ],
        };
        let locals = t.local_names();
        assert!(locals.contains("a") && locals.contains("b"));
        assert_eq!(locals.len(), 2);
    }

    #[test]
    fn thread_instances_sums_replication() {
        let p = MiniProg {
            name: "p".into(),
            globals: vec![GlobalDecl {
                name: "x".into(),
                init: 0,
                volatile: true,
            }],
            locks: vec![],
            conds: vec![],
            threads: vec![
                ThreadDecl {
                    name: "a".into(),
                    count: 2,
                    body: vec![],
                },
                ThreadDecl {
                    name: "b".into(),
                    count: 3,
                    body: vec![],
                },
            ],
        };
        assert_eq!(p.thread_instances(), 5);
        assert!(p.is_global("x"));
        assert!(!p.is_global("y"));
    }
}
