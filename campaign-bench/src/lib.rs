//! # mtt-campaign-bench — end-to-end and per-layer benchmark of campaigns
//!
//! Four fixed workloads drive the public campaign API the `mtt e1` command
//! uses. The timed phase reports what a user of a campaign waits for, as
//! medians over repeated passes; a separate traced phase splits each run
//! into its layers with decorators installed through `ToolConfig`'s
//! factory fields. See `README.md` next to this crate's manifest for the
//! workloads, the metrics and how to run and compare them.

pub mod phases;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
