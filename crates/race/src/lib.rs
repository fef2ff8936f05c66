//! # mtt-race — data-race detectors
//!
//! §2.2 of the paper: race detectors "look, online or offline, for evidence
//! of existing races", and "the main problem of race detectors of all
//! breeds is that they produce too many false alarms". This crate provides
//! the two classic detector families so they can be compared on exactly the
//! axes the paper names — detection rate, false-alarm rate, and overhead:
//!
//! * [`EraserLockset`] — the lockset algorithm of Savage et al.'s Eraser
//!   (the paper's reference \[30\]): a variable must be consistently
//!   protected by at least one common lock. Sensitive (catches races that
//!   did not manifest in this interleaving) but prone to false alarms on
//!   programs synchronized without locks.
//! * [`VectorClockDetector`] — precise happens-before tracking with
//!   FastTrack-style epoch fast paths: reports only accesses genuinely
//!   unordered in the observed execution. No false alarms, but misses
//!   races the observed interleaving happened to order.
//!
//! Both implement [`mtt_instrument::EventSink`], so they run **online**
//! (attached to a live execution) and **offline** (fed a stored
//! [`mtt_trace::Trace`]) with the same code — the paper's on-line/off-line
//! duality.
//!
//! Experiment E2 (`mtt_experiment::detector_eval`) grades both detectors'
//! warnings against the ground truth carried by annotated traces, through
//! the scoring kernel every other tool is scored by.
//!
//! A third oracle, [`RaceCell`], serves the *native-threads* runtime
//! backend: it detects physically torn reads of a redundantly-stored value,
//! giving ground-truth evidence of a real race on real hardware — where
//! there is no serialized event stream to reason over.

pub mod lockset;
pub mod racecell;
pub mod vectorclock;
pub mod warning;

pub use lockset::EraserLockset;
pub use racecell::{RaceCell, Racey};
pub use vectorclock::{VectorClock, VectorClockDetector};
pub use warning::{AccessInfo, RaceWarning};
