//! MiniProg pretty-printer: AST → canonical source.
//!
//! Closes the front-end loop: `parse(print(ast)) == ast` is a property the
//! round-trip tests (and proptest in `tests/`) rely on, and tools that
//! transform MiniProg programs (e.g. a fault-injection pass) can emit valid
//! source.

use crate::ast::{BinOp, Expr, MiniProg, Stmt, StmtKind, UnOp};
use std::fmt::Write;

/// Render a program as parseable MiniProg source.
pub fn print(prog: &MiniProg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {} {{", prog.name);
    for g in &prog.globals {
        let vol = if g.volatile { "volatile " } else { "" };
        if g.init == 0 {
            let _ = writeln!(out, "    {vol}var {};", g.name);
        } else {
            let _ = writeln!(out, "    {vol}var {} = {};", g.name, g.init);
        }
    }
    for l in &prog.locks {
        let _ = writeln!(out, "    lock {l};");
    }
    for c in &prog.conds {
        let _ = writeln!(out, "    cond {c};");
    }
    for t in &prog.threads {
        if t.count == 1 {
            let _ = writeln!(out, "    thread {} {{", t.name);
        } else {
            let _ = writeln!(out, "    thread {} * {} {{", t.name, t.count);
        }
        print_block(&mut out, &t.body, 2);
        let _ = writeln!(out, "    }}");
    }
    out.push_str("}\n");
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_block(out: &mut String, block: &[Stmt], level: usize) {
    for s in block {
        print_stmt(out, s, level);
    }
}

fn print_stmt(out: &mut String, s: &Stmt, level: usize) {
    indent(out, level);
    match &s.kind {
        StmtKind::Local { name, init } => match init {
            Some(e) => {
                let _ = writeln!(out, "local {name} = {};", print_expr(e));
            }
            None => {
                let _ = writeln!(out, "local {name};");
            }
        },
        StmtKind::Assign { target, value } => {
            let _ = writeln!(out, "{target} = {};", print_expr(value));
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let _ = writeln!(out, "if ({}) {{", print_expr(cond));
            print_block(out, then_branch, level + 1);
            if else_branch.is_empty() {
                indent(out, level);
                out.push_str("}\n");
            } else {
                indent(out, level);
                out.push_str("} else {\n");
                print_block(out, else_branch, level + 1);
                indent(out, level);
                out.push_str("}\n");
            }
        }
        StmtKind::While { cond, body } => {
            let _ = writeln!(out, "while ({}) {{", print_expr(cond));
            print_block(out, body, level + 1);
            indent(out, level);
            out.push_str("}\n");
        }
        StmtKind::LockBlock { lock, body } => {
            let _ = writeln!(out, "lock ({lock}) {{");
            print_block(out, body, level + 1);
            indent(out, level);
            out.push_str("}\n");
        }
        StmtKind::Acquire { lock } => {
            let _ = writeln!(out, "acquire {lock};");
        }
        StmtKind::Release { lock } => {
            let _ = writeln!(out, "release {lock};");
        }
        StmtKind::Wait { cond, lock } => {
            let _ = writeln!(out, "wait({cond}, {lock});");
        }
        StmtKind::Notify { cond, all } => {
            let kw = if *all { "notifyall" } else { "notify" };
            let _ = writeln!(out, "{kw} {cond};");
        }
        StmtKind::Yield => out.push_str("yield;\n"),
        StmtKind::Sleep { ticks } => {
            let _ = writeln!(out, "sleep {ticks};");
        }
        StmtKind::Assert { cond, label } => {
            let _ = writeln!(out, "assert {} : \"{label}\";", print_expr(cond));
        }
        StmtKind::Skip => out.push_str("skip;\n"),
    }
}

/// Render an expression, fully parenthesized below the top level (canonical
/// and unambiguous, at the cost of some noise).
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Int(n) => {
            if *n < 0 {
                // The grammar has no negative literals; emit unary minus.
                format!("(-{})", n.unsigned_abs())
            } else {
                n.to_string()
            }
        }
        Expr::Var(v) => v.clone(),
        Expr::Unary { op, expr } => {
            let o = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
            };
            format!("({o}{})", print_expr(expr))
        }
        Expr::Binary { op, lhs, rhs } => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => "%",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => "&&",
                BinOp::Or => "||",
            };
            format!("({} {o} {})", print_expr(lhs), print_expr(rhs))
        }
    }
}

/// Normalize constant negation: `Neg(Int(n))` ≡ `Int(-n)`. The parser
/// folds `-LITERAL` into a literal, so structural comparison must too.
pub fn normalize_expr(e: &Expr) -> Expr {
    match e {
        Expr::Int(_) | Expr::Var(_) => e.clone(),
        Expr::Unary { op, expr } => {
            let inner = normalize_expr(expr);
            if let (UnOp::Neg, Expr::Int(n)) = (op, &inner) {
                Expr::Int(n.wrapping_neg())
            } else {
                Expr::Unary {
                    op: *op,
                    expr: Box::new(inner),
                }
            }
        }
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(normalize_expr(lhs)),
            rhs: Box::new(normalize_expr(rhs)),
        },
    }
}

/// Structural equality that ignores source lines (a reprint changes them)
/// and constant-negation spelling.
pub fn ast_eq_modulo_lines(a: &MiniProg, b: &MiniProg) -> bool {
    fn expr_eq(a: &Expr, b: &Expr) -> bool {
        normalize_expr(a) == normalize_expr(b)
    }
    fn opt_expr_eq(a: &Option<Expr>, b: &Option<Expr>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(x), Some(y)) => expr_eq(x, y),
            _ => false,
        }
    }
    fn stmts_eq(a: &[Stmt], b: &[Stmt]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| kind_eq(&x.kind, &y.kind))
    }
    fn kind_eq(a: &StmtKind, b: &StmtKind) -> bool {
        use StmtKind::*;
        match (a, b) {
            (Local { name: n1, init: i1 }, Local { name: n2, init: i2 }) => {
                n1 == n2 && opt_expr_eq(i1, i2)
            }
            (
                Assign {
                    target: t1,
                    value: v1,
                },
                Assign {
                    target: t2,
                    value: v2,
                },
            ) => t1 == t2 && expr_eq(v1, v2),
            (
                Assert {
                    cond: c1,
                    label: l1,
                },
                Assert {
                    cond: c2,
                    label: l2,
                },
            ) => expr_eq(c1, c2) && l1 == l2,
            (
                If {
                    cond: c1,
                    then_branch: t1,
                    else_branch: e1,
                },
                If {
                    cond: c2,
                    then_branch: t2,
                    else_branch: e2,
                },
            ) => expr_eq(c1, c2) && stmts_eq(t1, t2) && stmts_eq(e1, e2),
            (While { cond: c1, body: b1 }, While { cond: c2, body: b2 }) => {
                expr_eq(c1, c2) && stmts_eq(b1, b2)
            }
            (LockBlock { lock: l1, body: b1 }, LockBlock { lock: l2, body: b2 }) => {
                l1 == l2 && stmts_eq(b1, b2)
            }
            (x, y) => x == y,
        }
    }
    a.name == b.name
        && a.globals == b.globals
        && a.locks == b.locks
        && a.conds == b.conds
        && a.threads.len() == b.threads.len()
        && a.threads
            .iter()
            .zip(&b.threads)
            .all(|(x, y)| x.name == y.name && x.count == y.count && stmts_eq(&x.body, &y.body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::samples;

    #[test]
    fn all_samples_roundtrip() {
        for samples::Sample { name, src, .. } in samples::catalog() {
            let ast = parse(src).unwrap();
            let printed = print(&ast);
            let reparsed =
                parse(&printed).unwrap_or_else(|e| panic!("{name} reprint failed: {e}\n{printed}"));
            assert!(
                ast_eq_modulo_lines(&ast, &reparsed),
                "{name}: roundtrip changed the AST\n{printed}"
            );
        }
    }

    #[test]
    fn negative_literals_print_parseable() {
        let src = "program p { var x = -5; thread t { x = 0 - 7; } }";
        let ast = parse(src).unwrap();
        let printed = print(&ast);
        let reparsed = parse(&printed).unwrap();
        assert!(ast_eq_modulo_lines(&ast, &reparsed), "{printed}");
        assert!(printed.contains("var x = -5;"));
    }

    #[test]
    fn parenthesization_preserves_precedence() {
        let src = "program p { var x; thread t { x = 1 + 2 * 3 - (4 - 5); } }";
        let ast = parse(src).unwrap();
        let reparsed = parse(&print(&ast)).unwrap();
        assert!(ast_eq_modulo_lines(&ast, &reparsed));
    }

    #[test]
    fn compiled_reprint_behaves_identically() {
        // The printed program is not just syntactically equal: it runs the
        // same. Compare fingerprints over seeds.
        use crate::interp::compile;
        use mtt_runtime::{Execution, RandomScheduler};
        let ast = parse(samples::LOST_UPDATE).unwrap();
        let reparsed = parse(&print(&ast)).unwrap();
        let p1 = compile(&ast);
        let p2 = compile(&reparsed);
        for seed in 0..10 {
            let o1 = Execution::new(&p1)
                .scheduler(Box::new(RandomScheduler::new(seed)))
                .run();
            let o2 = Execution::new(&p2)
                .scheduler(Box::new(RandomScheduler::new(seed)))
                .run();
            assert_eq!(o1.final_vars, o2.final_vars, "seed {seed}");
            assert_eq!(
                o1.assert_failures.len(),
                o2.assert_failures.len(),
                "seed {seed}"
            );
        }
    }
}
