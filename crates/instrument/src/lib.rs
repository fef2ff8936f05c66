//! # mtt-instrument — the instrumentation layer
//!
//! The 2003 PADTAD paper ("Benchmark and Framework for Encouraging Research
//! on Multi-Threaded Testing Tools", Havelund/Stoller/Ur) makes
//! *instrumentation* the enabling technology of the whole framework: every
//! dynamic technique — noise making, race detection, replay, coverage,
//! systematic exploration — consumes a stream of events produced at
//! instrumentation points, and the instrumentor must expose a **standard,
//! open interface** so that a researcher can replace one component and reuse
//! the rest.
//!
//! This crate is that interface, in Rust:
//!
//! * [`Event`] / [`Op`] / [`Loc`] — the record produced at every
//!   instrumentation point. It carries exactly the fields the paper
//!   specifies for its standard trace format: the program location, what was
//!   instrumented (operation kind), which variable was touched, the thread,
//!   whether the access is a read or a write, and the set of locks held.
//! * [`InstrumentationPlan`] — the knob set of a bytecode instrumentor
//!   (which operation kinds, variables, sites and threads to instrument),
//!   plus attached [`StaticInfo`] so static analyses can guide placement
//!   (§3 of the paper: "if the instrumentor is told some information by the
//!   static analyzer ... this can be used to decide on a subset of the
//!   points to be instrumented").
//! * [`EventSink`] — the callback interface every dynamic tool implements.
//!   Sinks count ([`CountingSink`]), buffer ([`VecSink`], [`RingSink`]) and
//!   can be filtered ([`FilteredSink`]); an execution delivers each event
//!   to every sink attached to it, in attachment order. A detector also
//!   gives its verdict through the provided method
//!   [`EventSink::has_findings`]: whether it reported a finding on the
//!   events it saw, read after `finish`, so a harness can score any
//!   detector without knowing its type (the default, `false`, suits sinks
//!   that report nothing).
//!
//! The crate is dependency-light on purpose: tools written against it do not
//! need the runtime, and offline tools can replay serialized traces through
//! the same sink interface.

pub mod event;
pub mod plan;
pub mod sink;
pub mod statics;

pub use event::{
    file_name, intern_file_id, intern_static, AccessKind, BarrierId, CondId, Event, Loc, LocKey,
    LockId, Op, OpClass, SemId, ThreadId, VarId,
};
pub use plan::{InstrumentationPlan, OpClassSet, ResolvedFilter, Select, VarTable};
pub use sink::{
    shared, CountingSink, EventSink, FilteredSink, NullSink, RingSink, Shared, VecSink,
};
pub use statics::{SiteFacts, StaticInfo, VarFacts};
