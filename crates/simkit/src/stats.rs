//! Online statistics used by the workload client and the benchmark reports.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use simkit::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; `0.0` with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample variance (`n − 1` denominator, the unbiased estimate a
    /// confidence interval needs); `0.0` with fewer than two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.mean = mean;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact percentile estimator over a retained sample (sorted on demand).
///
/// The benchmark keeps at most a few hundred thousand response times per
/// slot, so retaining the sample is cheap and avoids sketch error.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Percentiles {
    xs: Vec<f64>,
}

impl Percentiles {
    /// Creates an empty sample.
    pub fn new() -> Self {
        Percentiles { xs: Vec::new() }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.xs.push(x);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.xs.len()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by nearest-rank; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        if self.xs.is_empty() {
            return None;
        }
        let mut sorted = self.xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN observation"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }
}

/// Event-per-second meter over a window of simulated time.
///
/// # Example
///
/// ```
/// use simkit::{RateMeter, SimDuration, SimTime};
///
/// let mut m = RateMeter::start(SimTime::ZERO);
/// m.add(10);
/// let rate = m.rate_at(SimTime::ZERO + SimDuration::from_secs(5));
/// assert_eq!(rate, 2.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateMeter {
    start: SimTime,
    count: u64,
}

impl RateMeter {
    /// Starts counting at `start`.
    pub fn start(start: SimTime) -> Self {
        RateMeter { start, count: 0 }
    }

    /// Records `n` events.
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Total events recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Events per simulated second as of `now`; `0.0` if no time has passed.
    pub fn rate_at(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.start);
        if dt.is_zero() {
            0.0
        } else {
            self.count as f64 / dt.as_secs_f64()
        }
    }
}

/// Convenience: mean of a slice of durations, in milliseconds.
pub fn mean_millis(durs: &[SimDuration]) -> f64 {
    if durs.is_empty() {
        return 0.0;
    }
    durs.iter().map(|d| d.as_millis_f64()).sum::<f64>() / durs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn online_stats_small_case() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        xs[..37].iter().for_each(|&x| left.push(x));
        xs[37..].iter().for_each(|&x| right.push(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut p = Percentiles::new();
        for x in 1..=100 {
            p.push(x as f64);
        }
        assert_eq!(p.quantile(0.5), Some(50.0));
        assert_eq!(p.quantile(0.95), Some(95.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(Percentiles::new().quantile(0.5), None);
    }

    #[test]
    fn rate_meter_measures_rate() {
        let mut m = RateMeter::start(SimTime::from_secs(10));
        m.add(30);
        assert_eq!(m.rate_at(SimTime::from_secs(13)), 10.0);
        assert_eq!(m.rate_at(SimTime::from_secs(10)), 0.0);
        assert_eq!(m.count(), 30);
    }

    #[test]
    fn mean_millis_handles_empty() {
        assert_eq!(mean_millis(&[]), 0.0);
        let ds = [SimDuration::from_millis(2), SimDuration::from_millis(4)];
        assert_eq!(mean_millis(&ds), 3.0);
    }

    proptest! {
        #[test]
        fn prop_merge_matches_sequential(
            a in proptest::collection::vec(-100.0f64..100.0, 0..50),
            b in proptest::collection::vec(-100.0f64..100.0, 0..50),
        ) {
            let mut whole = OnlineStats::new();
            a.iter().chain(b.iter()).for_each(|&x| whole.push(x));
            let mut left = OnlineStats::new();
            a.iter().for_each(|&x| left.push(x));
            let mut right = OnlineStats::new();
            b.iter().for_each(|&x| right.push(x));
            left.merge(&right);
            prop_assert_eq!(left.count(), whole.count());
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
            prop_assert!((left.variance() - whole.variance()).abs() < 1e-6);
        }

        #[test]
        fn prop_quantile_is_an_observation(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
            q in 0.0f64..=1.0,
        ) {
            let mut p = Percentiles::new();
            xs.iter().for_each(|&x| p.push(x));
            let v = p.quantile(q).unwrap();
            prop_assert!(xs.contains(&v));
        }

        #[test]
        fn prop_mean_within_min_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let mut s = OnlineStats::new();
            xs.iter().for_each(|&x| s.push(x));
            prop_assert!(s.mean() >= s.min().unwrap() - 1e-9);
            prop_assert!(s.mean() <= s.max().unwrap() + 1e-9);
        }
    }
}
