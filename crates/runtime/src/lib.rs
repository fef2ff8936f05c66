//! # mtt-runtime — the controlled model-concurrency runtime
//!
//! This crate is the substrate that stands in for "a JVM running an
//! instrumented multi-threaded Java program" in the PADTAD 2003 benchmark
//! proposal. Benchmark programs are ordinary Rust closures that perform all
//! shared-memory and synchronization operations through a [`ThreadCtx`]
//! handle; every such operation is a **scheduling point** at which
//!
//! 1. an [`mtt_instrument::Event`] is emitted to the configured sinks,
//! 2. the configured [`NoiseMaker`] may delay or preempt the thread, and
//! 3. the configured [`Scheduler`] chooses which model thread runs next.
//!
//! Exactly one model thread executes between scheduling points (each model
//! thread is a coroutine on the OS thread that runs the execution, and a
//! token-passing controller resumes only the scheduler's pick), so an
//! execution is a *sequentially consistent interleaving* fully determined by
//! the scheduler's decisions — the property that makes replay, noise
//! injection and systematic state-space exploration possible at all.
//!
//! Intentional concurrency bugs (data races, deadlocks, atomicity
//! violations, lost notifications) live in the **model**: a lost update is a
//! lost update of the model's variable store, a deadlock is a cycle in the
//! model's lock table. Safe Rust is never violated; this is the substitution
//! DESIGN.md §2 documents.
//!
//! ## Quick example
//!
//! ```
//! use mtt_runtime::{ProgramBuilder, Execution, RandomScheduler};
//!
//! let mut b = ProgramBuilder::new("two_increments");
//! let x = b.var("x", 0);
//! b.entry(move |ctx| {
//!     let mut kids = Vec::new();
//!     for i in 0..2 {
//!         kids.push(ctx.spawn(format!("inc{i}"), move |ctx| {
//!             let v = ctx.read(x);        // scheduling point
//!             ctx.write(x, v + 1);        // scheduling point
//!         }));
//!     }
//!     for k in kids {
//!         ctx.join(k);
//!     }
//! });
//! let program = b.build();
//! let outcome = Execution::new(&program)
//!     .scheduler(Box::new(RandomScheduler::new(7)))
//!     .run();
//! let x_final = outcome.var("x").unwrap();
//! assert!(x_final == 1 || x_final == 2); // 1 ⇔ the lost-update race fired
//! ```

#![deny(unsafe_code)]

/// The runtime's semantic version. Baked into every campaign cell's
/// content address (see `mtt-obs`), so cached results recorded by one
/// runtime version are never replayed by a build whose execution semantics
/// may differ.
pub const RUNTIME_VERSION: &str = env!("CARGO_PKG_VERSION");

pub mod backend;
#[allow(unsafe_code)]
mod coro;
pub mod ctx;
pub mod exec;
mod native;
pub mod noise;
pub mod outcome;
pub mod program;
pub mod scheduler;
mod state;

pub use backend::RuntimeBackend;
pub use ctx::ThreadCtx;
pub use exec::{Execution, ExecutionOptions};
pub use noise::{NoNoise, NoiseDecision, NoiseMaker, NoiseView};
pub use outcome::{AssertFailure, DeadlockInfo, ExecStats, Outcome, OutcomeKind, WaitEdge};
pub use program::{Program, ProgramBuilder};
pub use scheduler::{
    FifoScheduler, PctScheduler, RandomScheduler, RoundRobinScheduler, SchedView, Scheduler,
};

// Re-export the instrumentation vocabulary so program authors depend on one
// crate only.
pub use mtt_instrument::{BarrierId, CondId, Event, Loc, LockId, Op, SemId, ThreadId, VarId};
