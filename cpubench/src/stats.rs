//! Order statistics for per-operation samples.

/// Percentiles the tail rule may choose from, highest first.
const CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank position (1-based) of the `p`-th percentile among `n`
/// samples, in integer per-mille arithmetic so that e.g. p99.9 of 10 000
/// is exactly rank 9 990.
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest candidate percentile that still has at least ten samples
/// beyond it among `n`, or `None` when even the median has fewer.
///
/// A tail percentile read from fewer than ten samples beyond it is one or
/// two outliers, not a tail; this is why the benchmark reports p95 over
/// passes of a few hundred operations.
pub fn tail_percentile(n: usize) -> Option<f64> {
    CANDIDATES
        .into_iter()
        .find(|&p| n - rank(p, n).min(n) >= 10)
}

/// The `p`-th percentile of `samples` by nearest rank (sorts in place).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    samples[rank(p, samples.len()) - 1]
}

/// The median of `samples`, averaging the two middle values of an even
/// count (sorts in place).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_p95_for_one_campaign_pass() {
        // One pass of each campaign workload, minus its warm-up slot.
        assert_eq!(tail_percentile(318), Some(95.0));
        assert_eq!(tail_percentile(441), Some(95.0));
    }

    #[test]
    fn tail_rule_boundaries() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..5000 {
            let p = tail_percentile(n).expect("n >= 20 has a median");
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn percentiles_by_nearest_rank() {
        let mut xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 95.0), 190.0);
        assert_eq!(percentile(&mut xs, 50.0), 100.0);
        assert_eq!(median(&mut xs), 100.5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
