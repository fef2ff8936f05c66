//! [`RunMetrics`]: the per-run telemetry record.
//!
//! One `RunMetrics` describes one execution: the event-derived counts a
//! [`TelemetrySink`](crate::TelemetrySink) accumulates plus the runtime's
//! own `ExecStats` counters (scheduling points, context switches, forced
//! yields, noise injections, spurious wakeups, steps to the first observed
//! failure). Every field is a deterministic function of the run's seed —
//! wall clock is deliberately absent; it lives in span timings and the
//! segregated timing tables instead.

use mtt_instrument::{Loc, LocKeyMap};
use mtt_obs::MetricScalars;
use mtt_runtime::ExecStats;

/// Deterministic telemetry of one run (or, after merging, of a cell or a
/// whole campaign — all fields aggregate permutation-invariantly).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// The run's counters: what its run-log line prints and its journal
    /// `done` record keeps.
    pub scalars: MetricScalars,
    /// Per-class event counts, indexed by `OpClass::bit()`.
    pub by_class: [u64; 8],
    /// Events per static program site (the hot-site profile), on the
    /// interned site keys: names are resolved only when a ranking is
    /// printed ([`RunMetrics::top_sites`]).
    pub sites: LocKeyMap<u64>,
    /// Contended lock encounters per site (the contention profile).
    pub contended_sites: LocKeyMap<u64>,
}

impl RunMetrics {
    /// Copy the runtime's counters into this record (the event-derived
    /// fields come from a [`TelemetrySink`](crate::TelemetrySink)).
    pub fn absorb_stats(&mut self, stats: &ExecStats) {
        self.scalars.merge(&MetricScalars {
            sched_points: stats.sched_points,
            context_switches: stats.context_switches,
            forced_yields: stats.forced_yields,
            noise_injections: stats.noise_injections,
            spurious_wakeups: stats.spurious_wakeups,
            threads: u64::from(stats.threads),
            steps_to_first_bug: stats.first_failure_step,
            ..MetricScalars::default()
        });
    }

    /// Fold another record into this one. Sums everywhere except
    /// `steps_to_first_bug`, which merges by minimum — all of it
    /// commutative and associative, so shard aggregates are
    /// permutation-invariant like the rest of the experiment statistics.
    pub fn merge(&mut self, other: &RunMetrics) {
        self.scalars.merge(&other.scalars);
        for (a, b) in self.by_class.iter_mut().zip(&other.by_class) {
            *a += b;
        }
        for (site, n) in &other.sites {
            *self.sites.entry(*site).or_insert(0) += n;
        }
        for (site, n) in &other.contended_sites {
            *self.contended_sites.entry(*site).or_insert(0) += n;
        }
    }

    /// Events at `loc`.
    pub fn events_at(&self, loc: Loc) -> u64 {
        self.sites.get(&loc.key()).copied().unwrap_or(0)
    }

    /// Contended lock encounters at `loc`.
    pub fn contentions_at(&self, loc: Loc) -> u64 {
        self.contended_sites.get(&loc.key()).copied().unwrap_or(0)
    }

    /// The `k` busiest sites, by event count then site order (total order,
    /// so the ranking is deterministic).
    pub fn top_sites(&self, k: usize) -> Vec<(Loc, u64)> {
        top(&self.sites, k)
    }

    /// The `k` most contended sites, ranked like [`RunMetrics::top_sites`].
    pub fn top_contended_sites(&self, k: usize) -> Vec<(Loc, u64)> {
        top(&self.contended_sites, k)
    }
}

/// The `k` largest counts of `sites` by count, then by the resolved
/// location's name and line: an order no process's interning order
/// affects.
fn top(sites: &LocKeyMap<u64>, k: usize) -> Vec<(Loc, u64)> {
    let mut v: Vec<(Loc, u64)> = sites.iter().map(|(key, n)| (key.loc(), *n)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(events: u64, first_bug: Option<u64>) -> RunMetrics {
        RunMetrics {
            scalars: MetricScalars {
                events,
                lock_acquires: events / 2,
                steps_to_first_bug: first_bug,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn merge_sums_and_takes_min_first_bug() {
        let mut a = metrics(10, Some(40));
        a.sites.insert(Loc::new("p", 1).key(), 3);
        let mut b = metrics(6, Some(12));
        b.sites.insert(Loc::new("p", 1).key(), 2);
        b.sites.insert(Loc::new("p", 2).key(), 9);
        a.merge(&b);
        assert_eq!(a.scalars.events, 16);
        assert_eq!(a.scalars.lock_acquires, 8);
        assert_eq!(a.scalars.steps_to_first_bug, Some(12));
        assert_eq!(a.events_at(Loc::new("p", 1)), 5);
        assert_eq!(a.events_at(Loc::new("p", 3)), 0);
        assert_eq!(a.top_sites(1), vec![(Loc::new("p", 2), 9)]);
    }

    #[test]
    fn merge_keeps_some_over_none() {
        let mut a = metrics(1, None);
        a.merge(&metrics(1, Some(7)));
        assert_eq!(a.scalars.steps_to_first_bug, Some(7));
        let mut b = metrics(1, Some(7));
        b.merge(&metrics(1, None));
        assert_eq!(b.scalars.steps_to_first_bug, Some(7));
    }

    #[test]
    fn absorb_stats_copies_runtime_counters() {
        let mut m = RunMetrics::default();
        let stats = ExecStats {
            sched_points: 100,
            context_switches: 40,
            forced_yields: 3,
            noise_injections: 5,
            spurious_wakeups: 1,
            threads: 4,
            first_failure_step: Some(60),
            ..Default::default()
        };
        m.absorb_stats(&stats);
        assert_eq!(m.scalars.sched_points, 100);
        assert_eq!(m.scalars.context_switches, 40);
        assert_eq!(m.scalars.threads, 4);
        assert_eq!(m.scalars.steps_to_first_bug, Some(60));
    }

    #[test]
    fn json_is_flat_and_omits_sites() {
        let mut m = metrics(3, None);
        m.sites.insert(Loc::new("p", 1).key(), 3);
        let record = crate::RunLogRecord {
            metrics: m.scalars,
            ..Default::default()
        };
        let s = mtt_json::to_string(&record);
        assert!(s.contains("\"events\":3"));
        assert!(s.contains("\"steps_to_first_bug\":null"));
        assert!(!s.contains("sites"));
        assert!(!s.contains("metrics"), "the counters print flat: {s}");
    }
}
