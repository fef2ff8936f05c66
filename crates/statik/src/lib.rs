//! # mtt-static — static analysis over a miniature concurrent language
//!
//! §2.1 of the paper assigns static analysis two roles: finding defects
//! directly (type systems and analyses for races and deadlocks) and
//! producing information other technologies consume — "a list of program
//! statements from which there can be no thread switch", escape information
//! ("which variables are thread-local and which may be shared ... used to
//! guide the placement of instrumentation"), and model construction.
//!
//! Static tools need a program *representation*; the Java benchmark would
//! analyze bytecode. Here the representation is **MiniProg**, a miniature
//! concurrent imperative language with globals, locks, condition variables
//! and statically-declared threads:
//!
//! ```text
//! program lost_update {
//!     var x = 0;
//!     lock l;
//!     thread incer * 2 {
//!         local t;
//!         t = x + 1;
//!         x = t;            // unprotected read-modify-write
//!     }
//! }
//! ```
//!
//! The crate provides:
//!
//! * [`parse`] — hand-written lexer + recursive-descent parser → [`MiniProg`].
//! * [`cfg`](mod@cfg) — per-thread control-flow graphs.
//! * [`analysis`] — shared-variable (escape) analysis, must-held static
//!   lockset analysis (race warnings), may-held lock-order analysis
//!   (deadlock warnings), and no-switch site classification, all exported
//!   as an [`mtt_instrument::StaticInfo`] for the instrumentor (§3's loop).
//! * [`interp`] — compiles a `MiniProg` into an executable
//!   [`mtt_runtime::Program`], so the very artifact that was analyzed
//!   statically is then tested dynamically: Figure 1's static→dynamic edge.
//! * [`printer`] — AST → canonical source (round-trips through [`parse`]).
//! * [`samples`] — ready-made MiniProg sources with documented bugs.

pub mod analysis;
pub mod ast;
pub mod atomicity;
pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod independence;
pub mod interp;
pub mod lexer;
pub mod lints;
pub mod lockorder;
pub mod mhp;
pub mod parser;
pub mod printer;
pub mod samples;

pub use analysis::{analyze, AnalysisResult, ThreadCtx};
pub use ast::{BinOp, Expr, GlobalDecl, MiniProg, Stmt, StmtKind, ThreadDecl, UnOp};
pub use atomicity::AtomicityViolation;
pub use cfg::{build_cfg, Cfg, NodeKind};
pub use dataflow::{held_locks, solve, Dataflow, LockSet, Solution};
pub use diag::{Diagnostic, Severity};
pub use independence::StaticIndependence;
pub use interp::compile;
pub use lockorder::{LockCycle, LockEdge, LockOrderGraph, LockSite};
pub use mhp::MhpFacts;
pub use parser::{parse, ParseError};
pub use printer::{ast_eq_modulo_lines, print};
