//! Live campaign status, computed from the journal alone.
//!
//! `mtt status DIR` / `mtt watch DIR` run in a *different process* from
//! the campaign they observe: everything here is derived from journal
//! records, never from in-process state. The summary is a
//! **permutation-invariant** function of the record *set* — `done` cells
//! dedup by content address, counters are sums/maxes, and ties break by
//! deterministic ordering — so the record order a parallel campaign
//! happened to write (or a resumed campaign appended) cannot change what
//! the observer reports. A proptest pins this.

use crate::journal::{JournalRecord, ParsedJournal};
use std::collections::{BTreeMap, BTreeSet};

/// What one pool worker contributed (wall-clock view).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerUse {
    /// Worker id as assigned by the journal sink.
    pub worker: u64,
    /// Cells/jobs this worker completed.
    pub cells: u64,
    /// Summed wall time inside those runs, microseconds.
    pub busy_us: u64,
}

/// The one-screen summary of a journal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusSummary {
    /// Campaign label (from the header; empty if the header is missing,
    /// e.g. a journal truncated before its first record).
    pub label: String,
    /// Grid size from the header, if one was seen.
    pub total: Option<u64>,
    /// Distinct completed cells (by content address); in a journal of an
    /// older build that holds only generic `job` records, distinct jobs.
    pub done: u64,
    /// Completed cells whose oracle judged the run failed.
    pub failed: u64,
    /// Completed cells that exceeded the per-run budget.
    pub timeouts: u64,
    /// Cells with a `start` but no `done` record (claimed, in flight —
    /// or lost to a crash).
    pub in_flight: u64,
    /// Distinct Mazurkiewicz-trace fingerprints across completed cells —
    /// the live count of genuinely distinct schedules the campaign has
    /// visited. 0 when no record carries a fingerprint (e.g. a v1
    /// journal). Set-union semantics, so record order cannot matter.
    pub distinct_schedules: u64,
    /// Whether a clean `end` marker was seen.
    pub complete: bool,
    /// Latest `t_us` across all records: elapsed time of the most recent
    /// writing process.
    pub elapsed_us: u64,
    /// Per-worker utilization, sorted by worker id.
    pub workers: Vec<WorkerUse>,
    /// Whether a half-written final record was discarded while reading.
    pub tail_discarded: bool,
}

impl StatusSummary {
    /// Fold a parsed journal into its summary. Record order never matters:
    /// see the module docs.
    pub fn from_journal(parsed: &ParsedJournal) -> StatusSummary {
        let mut label: Option<String> = None;
        let mut total: Option<u64> = None;
        let mut elapsed_us = 0u64;
        let mut complete = false;
        // Dedup by cell address (a legacy `job` record by its index); ties
        // resolved by the minimal (t_us, worker, wall_us) witness so any
        // arrival order folds to the same choice.
        type Witness = (u64, u64, u64, bool, bool);
        fn done(cells: &mut BTreeMap<String, Witness>, cell: String, witness: Witness) {
            let e = cells.entry(cell).or_insert(witness);
            if witness < *e {
                *e = witness;
            }
        }
        let mut done_cells = BTreeMap::new();
        let mut jobs = BTreeMap::new();
        let mut started: BTreeSet<String> = BTreeSet::new();
        let mut schedules: BTreeSet<String> = BTreeSet::new();
        for rec in &parsed.records {
            match rec {
                JournalRecord::Campaign(m) => {
                    let l = label.get_or_insert_with(|| m.label.clone());
                    if m.label < *l {
                        *l = m.label.clone();
                    }
                    total = Some(total.unwrap_or(0).max(m.total_cells));
                }
                JournalRecord::Start(s) => {
                    elapsed_us = elapsed_us.max(s.t_us);
                    started.insert(s.cell.clone());
                }
                JournalRecord::Done(d) => {
                    elapsed_us = elapsed_us.max(d.t_us);
                    if let Some(fp) = &d.fingerprint {
                        schedules.insert(fp.clone());
                    }
                    let witness = (d.t_us, d.worker, d.wall_us, d.failed, d.timed_out);
                    done(&mut done_cells, d.cell.clone(), witness);
                }
                JournalRecord::Job(j) => {
                    elapsed_us = elapsed_us.max(j.t_us);
                    let witness = (j.t_us, j.worker, j.wall_us, false, false);
                    done(&mut jobs, j.index.to_string(), witness);
                }
                JournalRecord::End(e) => {
                    elapsed_us = elapsed_us.max(e.t_us);
                    complete = true;
                    let l = label.get_or_insert_with(|| e.label.clone());
                    if e.label < *l {
                        *l = e.label.clone();
                    }
                }
            }
        }
        // Legacy `job` records stand for cells only in a journal without
        // `done` records: the cells a resumed run records supersede the
        // jobs an older build wrote.
        if done_cells.is_empty() {
            done_cells = jobs;
        }
        let mut workers: BTreeMap<u64, WorkerUse> = BTreeMap::new();
        let mut failed = 0u64;
        let mut timeouts = 0u64;
        for &(_, worker, wall_us, f, t) in done_cells.values() {
            failed += u64::from(f);
            timeouts += u64::from(t);
            let w = workers.entry(worker).or_insert(WorkerUse {
                worker,
                ..WorkerUse::default()
            });
            w.cells += 1;
            w.busy_us += wall_us;
        }
        let in_flight = started
            .iter()
            .filter(|cell| !done_cells.contains_key(*cell))
            .count() as u64;
        StatusSummary {
            label: label.unwrap_or_default(),
            total,
            done: done_cells.len() as u64,
            failed,
            timeouts,
            in_flight,
            distinct_schedules: schedules.len() as u64,
            complete,
            elapsed_us,
            workers: workers.into_values().collect(),
            tail_discarded: parsed.tail_discarded,
        }
    }

    /// Completed cells per second of the latest writing process.
    pub fn rate_per_sec(&self) -> f64 {
        let secs = self.elapsed_us as f64 / 1e6;
        if secs > 0.0 {
            self.done as f64 / secs
        } else {
            0.0
        }
    }

    /// Estimated seconds to completion at the observed rate; `None` when
    /// the grid size is unknown, the campaign is complete, or no cell has
    /// finished yet.
    pub fn eta_secs(&self) -> Option<f64> {
        let total = self.total?;
        if self.complete || self.done == 0 || total <= self.done {
            return None;
        }
        let rate = self.rate_per_sec();
        (rate > 0.0).then(|| (total - self.done) as f64 / rate)
    }

    /// Render the summary (the `mtt status` output for one journal).
    pub fn render(&self) -> String {
        let total = self
            .total
            .map_or_else(|| "?".to_string(), |t| t.to_string());
        let mut out = format!(
            "[{}] {}/{} cells  failed {}  timeouts {}",
            self.label, self.done, total, self.failed, self.timeouts
        );
        if self.in_flight > 0 {
            out.push_str(&format!("  in flight {}", self.in_flight));
        }
        if self.distinct_schedules > 0 {
            out.push_str(&format!("  distinct schedules {}", self.distinct_schedules));
        }
        if self.complete {
            out.push_str("  complete");
        }
        if self.tail_discarded {
            out.push_str("  (half-written final record discarded)");
        }
        out.push('\n');
        if !self.complete {
            let eta = self
                .eta_secs()
                .map_or_else(|| "?".to_string(), |s| format!("{s:.1}s"));
            out.push_str(&format!(
                "  elapsed {:.1}s  {:.1} cells/s  ETA {eta}\n",
                self.elapsed_us as f64 / 1e6,
                self.rate_per_sec()
            ));
        }
        for w in &self.workers {
            out.push_str(&format!(
                "  worker {}: {} cells  busy {} ms\n",
                w.worker,
                w.cells,
                w.busy_us / 1000
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{CampaignEnd, CampaignMeta, CellDone, CellStart};

    fn done(cell: &str, worker: u64, failed: bool) -> JournalRecord {
        JournalRecord::Done(CellDone {
            cell: cell.into(),
            failed,
            wall_us: 1000,
            t_us: 5000,
            worker,
            ..CellDone::default()
        })
    }

    fn journal(records: Vec<JournalRecord>) -> ParsedJournal {
        ParsedJournal {
            records,
            tail_discarded: false,
        }
    }

    #[test]
    fn summary_counts_progress_and_failures() {
        let s = StatusSummary::from_journal(&journal(vec![
            JournalRecord::Campaign(CampaignMeta {
                label: "e1".into(),
                total_cells: 4,
                ..CampaignMeta::default()
            }),
            JournalRecord::Start(CellStart {
                cell: "cc".into(),
                t_us: 6000,
                ..CellStart::default()
            }),
            done("aa", 0, true),
            done("bb", 1, false),
        ]));
        assert_eq!(s.label, "e1");
        assert_eq!((s.total, s.done, s.failed), (Some(4), 2, 1));
        assert_eq!(s.in_flight, 1);
        assert!(!s.complete);
        assert_eq!(s.elapsed_us, 6000);
        assert_eq!(s.workers.len(), 2);
        let r = s.render();
        assert!(r.contains("[e1] 2/4 cells"), "{r}");
        assert!(r.contains("failed 1"), "{r}");
        assert!(r.contains("in flight 1"), "{r}");
        assert!(r.contains("ETA"), "{r}");
    }

    #[test]
    fn duplicate_done_records_count_once() {
        // A resumed campaign may legitimately re-run a cell (e.g. the
        // first pass had no telemetry); the observer must not double-count.
        let s = StatusSummary::from_journal(&journal(vec![
            done("aa", 0, true),
            done("aa", 1, true),
            JournalRecord::End(CampaignEnd {
                label: "e1".into(),
                completed: 1,
                t_us: 9000,
            }),
        ]));
        assert_eq!((s.done, s.failed), (1, 1));
        assert!(s.complete);
        assert!(s.render().contains("complete"));
        assert!(s.eta_secs().is_none());
    }

    #[test]
    fn distinct_schedules_union_dedups_and_tolerates_missing() {
        let fp = |cell: &str, fp: Option<&str>| {
            JournalRecord::Done(CellDone {
                cell: cell.into(),
                fingerprint: fp.map(str::to_string),
                ..CellDone::default()
            })
        };
        let recs = vec![
            fp("aa", Some("0badc0de")),
            fp("bb", Some("0badc0de")), // same schedule, different cell
            fp("cc", Some("deadbeef")),
            fp("dd", None), // v1 record: no fingerprint
        ];
        let fwd = StatusSummary::from_journal(&journal(recs.clone()));
        assert_eq!(fwd.distinct_schedules, 2);
        assert!(
            fwd.render().contains("distinct schedules 2"),
            "{}",
            fwd.render()
        );
        let rev = StatusSummary::from_journal(&journal(recs.into_iter().rev().collect()));
        assert_eq!(fwd, rev);
        // No fingerprints at all: the column stays out of the render.
        let bare = StatusSummary::from_journal(&journal(vec![fp("aa", None)]));
        assert_eq!(bare.distinct_schedules, 0);
        assert!(!bare.render().contains("distinct schedules"));
    }

    #[test]
    fn summary_is_order_invariant_on_a_small_case() {
        let recs = vec![
            JournalRecord::Campaign(CampaignMeta {
                label: "e1".into(),
                total_cells: 3,
                ..CampaignMeta::default()
            }),
            done("aa", 0, false),
            done("bb", 1, true),
            done("aa", 1, false),
        ];
        let fwd = StatusSummary::from_journal(&journal(recs.clone()));
        let rev = StatusSummary::from_journal(&journal(recs.into_iter().rev().collect()));
        assert_eq!(fwd, rev);
    }
}
