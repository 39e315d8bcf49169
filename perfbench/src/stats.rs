//! Order statistics over latency samples.

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 3] = [0.99, 0.95, 0.90];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q · n` samples at or below it.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q)])
}

/// Zero-based nearest-rank index of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Median of unsorted samples (nearest rank).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile_sorted(&sorted(samples), 0.5)
}

/// An ascending copy of `samples` (NaN-free input assumed).
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The highest of p99/p95/p90 that leaves at least [`TAIL_MIN_BEYOND`]
/// of `n` samples beyond it; `None` when even p90 leaves fewer.
#[must_use]
pub fn highest_tail_q(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| n > 0 && n - rank(n, q) > TAIL_MIN_BEYOND)
}

/// The tail a timing is reported with: `(percentile, value)` at
/// [`highest_tail_q`] of the sample count.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let q = highest_tail_q(samples.len())?;
    Some((q, percentile_sorted(&sorted(samples), q)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = sorted(&ramp(100));
        assert_eq!(percentile_sorted(&s, 0.5), Some(50.0));
        assert_eq!(percentile_sorted(&s, 0.99), Some(99.0));
        assert_eq!(percentile_sorted(&s, 1.0), Some(100.0));
        assert_eq!(percentile_sorted(&s, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        // 1000 samples: p99 sits at rank 990, leaving 10 beyond it.
        assert_eq!(tail(&ramp(1000)), Some((0.99, 990.0)));
        // 999 samples leave only 9 beyond p99, so p95 is reported.
        assert_eq!(highest_tail_q(999), Some(0.95));
        assert_eq!(tail(&ramp(999)), Some((0.95, 950.0)));
        // 150 samples: p95 leaves 7 beyond, p90 leaves 15.
        assert_eq!(tail(&ramp(150)), Some((0.90, 135.0)));
        // Too few samples for any candidate.
        assert_eq!(highest_tail_q(99), None);
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&[]), None);
    }
}
