//! # mtt-experiment — the prepared experiments
//!
//! §4 of the paper, component two: "The experiment part of the benchmark
//! contains prepared scripts with which programs such as race detection and
//! noise can be evaluated as to how frequently they uncover faults, and if
//! they raise false alarms. The analysis of the executions and statistics
//! on the performance of the technologies is also executed with a script.
//! This script produces a prepared evaluation report, which is easy to
//! understand. ... with the push of a button, it can be evaluated and
//! compared to alternative approaches."
//!
//! Each `*_eval` module is one such prepared experiment (the experiment ids
//! E1–E11 are indexed in DESIGN.md §6 and EXPERIMENTS.md); the `mtt` binary
//! is the push button. [`stats`] holds the shared statistical machinery
//! (Wilson confidence intervals, outcome-distribution measures),
//! [`scoring`] the one confusion-matrix kernel E7, E10 and E11 score tools
//! with, and [`report`] renders every experiment as aligned text tables
//! plus CSV.
//!
//! [`jobpool`] is the parallel execution layer: every experiment's run
//! matrix shards across `--jobs` workers, and because each run is a pure
//! function of its seed, the rendered reports are byte-identical at any
//! job count (the differential tests in `tests/` enforce this).

pub mod campaign;
pub mod cli_spec;
pub mod cloning;
pub mod coverage_eval;
pub mod detector_eval;
pub mod differential_eval;
pub mod explain;
pub mod explore_eval;
pub mod gen_eval;
pub mod jobpool;
pub mod multiout_eval;
pub mod profile;
pub mod replay_eval;
pub mod report;
pub mod saturation_eval;
pub mod scoreboard;
pub mod scoring;
pub mod static_eval;
pub mod stats;
pub mod tracegen;

pub use campaign::{Campaign, CampaignReport, CampaignRun, ToolConfig};
pub use explain::{explain_on, ExplainOptions, Explanation};
pub use jobpool::{JobPool, PoolStats};
pub use profile::{run_profile, ProfileOptions, ProfileReport, PROFILE_KEYS};
pub use report::Table;
pub use stats::{entropy, total_variation, Distribution, FindStats};
