//! Order statistics and the repeat-and-summarise helper every number the
//! benchmark prints goes through, so no single unrepeated timing is ever
//! reported.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count),
/// as Python's `statistics.median` computes it. `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so a spread printed here matches an external check over the same
/// values. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of already sorted samples; 0 for
/// an empty slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `sum / n`, or 0 when nothing was counted.
pub fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median and quartiles of repeated measurements of one quantity.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Every sample, in measurement order.
    pub samples: Vec<f64>,
    /// Median sample.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
}

impl Summary {
    /// Summarise `samples`.
    pub fn of(samples: Vec<f64>) -> Summary {
        let (p25, p75) = quartiles(&samples);
        Summary {
            median: median(&samples),
            p25,
            p75,
            samples,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.p75 - self.p25) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// Run `f` `warmup` times untimed, then `repeats` times timed, and
/// summarise the timed wall-clock seconds. What `f` returns is dropped
/// outside the timed interval.
pub fn measure<T>(warmup: usize, repeats: usize, mut f: impl FnMut() -> T) -> Summary {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let samples = (0..repeats.max(1))
        .map(|_| {
            let t = Instant::now();
            let out = f();
            let dt = t.elapsed().as_secs_f64();
            drop(std::hint::black_box(out));
            dt
        })
        .collect();
    Summary::of(samples)
}

/// FNV-1a, 64-bit: the digest the correctness gate pins report CSVs with.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn measure_reports_every_repeat() {
        let mut calls = 0;
        let s = measure(2, 5, || calls += 1);
        assert_eq!(calls, 7);
        assert_eq!(s.samples.len(), 5);
        assert!(s.p25 <= s.median && s.median <= s.p75);
    }
}
