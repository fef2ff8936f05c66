//! Statistics shared by every prepared experiment.

use std::collections::BTreeMap;

/// Find-rate counter with Wilson-score confidence intervals.
///
/// The experiment question the paper poses is "not if a bug can be found
/// using the technology on a specific test but what is the *probability* of
/// that bug being found"; a binomial proportion with a proper interval is
/// the honest way to report it at modest run counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FindStats {
    /// Runs in which the bug (or any bug, per the caller's bookkeeping)
    /// manifested / was found.
    pub hits: u64,
    /// Total runs.
    pub runs: u64,
}

mtt_json::json_struct!(FindStats { hits, runs });

impl FindStats {
    /// Record one run.
    pub fn record(&mut self, hit: bool) {
        self.runs += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Fold another counter into this one. Merging is commutative and
    /// associative, so per-shard statistics from a parallel campaign can
    /// be combined in any order and still equal the serial aggregate
    /// (property-tested in `tests/props.rs`).
    pub fn merge(&mut self, other: &FindStats) {
        self.hits += other.hits;
        self.runs += other.runs;
    }

    /// Point estimate of the find probability.
    pub fn rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.hits as f64 / self.runs as f64
        }
    }

    /// 95% Wilson score interval `(low, high)`.
    pub fn wilson95(&self) -> (f64, f64) {
        if self.runs == 0 {
            return (0.0, 1.0);
        }
        let n = self.runs as f64;
        let p = self.rate();
        let z = 1.959_963_985; // 97.5th percentile of the normal
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * ((p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt());
        ((center - half).max(0.0), (center + half).min(1.0))
    }

    /// Render as `rate [low, high] (hits/runs)`.
    pub fn render(&self) -> String {
        let (lo, hi) = self.wilson95();
        format!(
            "{:.3} [{:.3},{:.3}] ({}/{})",
            self.rate(),
            lo,
            hi,
            self.hits,
            self.runs
        )
    }
}

/// An empirical distribution over outcome signatures — the measurement the
/// paper's §4.4 benchmark program exists for ("tools such as noise makers
/// can be compared as to the distribution of their results").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Distribution {
    /// Count per observed signature.
    pub counts: BTreeMap<String, u64>,
    /// Total observations.
    pub total: u64,
}

mtt_json::json_struct!(Distribution { counts, total });

impl Distribution {
    /// Empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, signature: impl Into<String>) {
        *self.counts.entry(signature.into()).or_insert(0) += 1;
        self.total += 1;
    }

    /// Fold another distribution into this one (order-insensitive, like
    /// [`FindStats::merge`]).
    pub fn merge(&mut self, other: &Distribution) {
        for (sig, n) in &other.counts {
            *self.counts.entry(sig.clone()).or_insert(0) += n;
        }
        self.total += other.total;
    }

    /// Number of distinct outcomes observed (the support size).
    pub fn support(&self) -> usize {
        self.counts.len()
    }

    /// Shannon entropy in bits.
    pub fn entropy(&self) -> f64 {
        entropy(self.counts.values().copied(), self.total)
    }

    /// Probability of one signature.
    pub fn p(&self, sig: &str) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            *self.counts.get(sig).unwrap_or(&0) as f64 / self.total as f64
        }
    }
}

/// Shannon entropy (bits) of a count vector.
pub fn entropy(counts: impl Iterator<Item = u64>, total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    counts
        .filter(|&c| c > 0)
        .map(|c| {
            let p = c as f64 / t;
            -p * p.log2()
        })
        .sum()
}

/// Total-variation distance between two distributions: ½ Σ |p − q|.
/// 0 = identical behaviour, 1 = disjoint supports.
pub fn total_variation(a: &Distribution, b: &Distribution) -> f64 {
    let keys: std::collections::BTreeSet<&String> =
        a.counts.keys().chain(b.counts.keys()).collect();
    0.5 * keys
        .into_iter()
        .map(|k| (a.p(k) - b.p(k)).abs())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_stats_rate_and_interval() {
        let mut s = FindStats::default();
        for i in 0..100 {
            s.record(i < 30);
        }
        assert_eq!(s.rate(), 0.3);
        let (lo, hi) = s.wilson95();
        assert!(lo < 0.3 && 0.3 < hi);
        assert!(lo > 0.2 && hi < 0.42, "interval too wide: [{lo},{hi}]");
        assert!(s.render().contains("30/100"));
    }

    #[test]
    fn wilson_handles_extremes() {
        let mut none = FindStats::default();
        for _ in 0..50 {
            none.record(false);
        }
        let (lo, hi) = none.wilson95();
        assert_eq!(lo, 0.0);
        assert!(hi < 0.12, "all-miss upper bound: {hi}");
        let mut all = FindStats::default();
        for _ in 0..50 {
            all.record(true);
        }
        let (lo2, hi2) = all.wilson95();
        assert!(lo2 > 0.88);
        assert_eq!(hi2, 1.0);
        assert_eq!(FindStats::default().wilson95(), (0.0, 1.0));
    }

    #[test]
    fn distribution_support_and_entropy() {
        let mut d = Distribution::new();
        for _ in 0..8 {
            d.record("a");
        }
        for _ in 0..8 {
            d.record("b");
        }
        assert_eq!(d.support(), 2);
        assert_eq!(d.total, 16);
        assert!((d.entropy() - 1.0).abs() < 1e-9, "uniform pair = 1 bit");
        assert_eq!(d.p("a"), 0.5);
        assert_eq!(d.p("zzz"), 0.0);
    }

    #[test]
    fn entropy_edge_cases() {
        assert_eq!(entropy([].into_iter(), 0), 0.0);
        assert_eq!(entropy([10u64].into_iter(), 10), 0.0, "point mass");
        let e4 = entropy([1u64, 1, 1, 1].into_iter(), 4);
        assert!((e4 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn total_variation_bounds() {
        let mut a = Distribution::new();
        let mut b = Distribution::new();
        for _ in 0..10 {
            a.record("x");
            b.record("x");
        }
        assert_eq!(total_variation(&a, &b), 0.0);
        let mut c = Distribution::new();
        for _ in 0..10 {
            c.record("y");
        }
        assert_eq!(total_variation(&a, &c), 1.0);
        let mut half = Distribution::new();
        for i in 0..10 {
            half.record(if i < 5 { "x" } else { "y" });
        }
        assert!((total_variation(&a, &half) - 0.5).abs() < 1e-9);
    }
}
