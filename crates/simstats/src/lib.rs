//! `simstats` — deterministic statistics for fault-injection results.
//!
//! The paper argues representativeness from the small deviation across its
//! three campaign iterations (§4, "Average (all iter)" rows) but reports
//! bare means. This crate supplies the dispersion treatment those means
//! need before two runs can be *compared*:
//!
//! * [`t_interval`] — a 95 % Student-t confidence interval for plain
//!   per-iteration samples (SPCf, THRf, RTMf);
//! * [`bootstrap_ratio_ci`] — a percentile-bootstrap 95 % CI for
//!   ratio-of-sums metrics (ER%f, availability, activation rate), where a
//!   t interval on the per-iteration percentages would weight a 10-request
//!   iteration the same as a 10 000-request one;
//! * [`ConvergenceConfig`] — the early-stop rule: keep running iterations
//!   until every tier-1 metric's CI half-width falls below a target.
//!
//! Streaming moments come from [`simkit::OnlineStats`] (Welford's online
//! algorithm, mergeable); intervals use its sample variance.
//!
//! # Determinism
//!
//! Everything here is a pure function of its inputs. The bootstrap is the
//! only consumer of randomness and draws its resamples from a
//! [`simkit::SimRng`] seeded by the caller (conventionally
//! [`BOOTSTRAP_SEED`], offset per metric) — there is no clock, no OS
//! entropy, no thread dependence, so the same samples always yield the
//! same interval, bit for bit. That is what lets a resumed campaign replay
//! a journaled stop decision byte-identically.

use serde::{Deserialize, Serialize};
use simkit::{OnlineStats, SimRng};

/// Base seed for bootstrap resampling. Callers offset it with a small
/// per-metric tag (`BOOTSTRAP_SEED.wrapping_add(tag)`) so different
/// metrics of the same run draw independent resample streams while staying
/// fully reproducible.
pub const BOOTSTRAP_SEED: u64 = 0x5EED_B007;

/// Default number of bootstrap resamples. 200 keeps the percentile grid
/// fine enough for a 95 % interval while staying cheap next to a campaign.
pub const BOOTSTRAP_RESAMPLES: usize = 200;

/// A symmetric 95 % confidence interval: `mean ± half_width`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Ci {
    /// Point estimate.
    pub mean: f64,
    /// Half the interval's width (the `±` a report renders).
    pub half_width: f64,
}

impl Ci {
    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether two intervals overlap. Non-overlapping 95 % intervals are
    /// the report's CONFIRMED rule; overlap is WITHIN-NOISE.
    pub fn overlaps(&self, other: &Ci) -> bool {
        self.lo() <= other.hi() && other.lo() <= self.hi()
    }
}

/// Two-sided 95 % Student-t critical value `t_{0.975, df}`.
///
/// Exact table through 30 degrees of freedom, the standard coarse steps
/// beyond, and the normal limit 1.960 past 120 — more than enough
/// resolution for iteration counts a campaign will ever reach.
pub fn t_critical_975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

/// Streaming moments over a whole slice.
fn moments(samples: &[f64]) -> OnlineStats {
    let mut w = OnlineStats::new();
    for &x in samples {
        w.push(x);
    }
    w
}

/// 95 % Student-t confidence interval over plain samples.
///
/// `None` with fewer than 2 samples — one iteration carries no dispersion
/// information, and pretending otherwise (an infinite interval) would
/// poison serialized summaries.
pub fn t_interval(samples: &[f64]) -> Option<Ci> {
    let w = moments(samples);
    if w.count() < 2 {
        return None;
    }
    let se = w.sample_variance().sqrt() / (w.count() as f64).sqrt();
    Some(Ci {
        mean: w.mean(),
        half_width: t_critical_975(w.count() - 1) * se,
    })
}

/// Deterministic percentile-bootstrap 95 % CI for a ratio-of-sums
/// statistic `scale · Σnum / Σden` over per-unit `(num, den)` pairs.
///
/// Used for ER%f (`(errors, ops)`, scale 100), availability
/// (`(uptime, observed)`, scale 100) and activation rate
/// (`(activated, tracked)`, scale 100), where units contribute unequal
/// volume and a t interval over per-unit percentages would mis-weight
/// them. Resampling is seeded ([`SimRng::seed_from_u64`]) so the interval
/// is a pure function of `(pairs, scale, seed, resamples)`.
///
/// `None` with fewer than 2 pairs or a non-positive denominator total.
pub fn bootstrap_ratio_ci(
    pairs: &[(f64, f64)],
    scale: f64,
    seed: u64,
    resamples: usize,
) -> Option<Ci> {
    let n = pairs.len();
    if n < 2 || resamples == 0 {
        return None;
    }
    let (num, den) = pairs
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
    if den <= 0.0 {
        return None;
    }
    let point = scale * num / den;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut stats = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let (mut rn, mut rd) = (0.0, 0.0);
        for _ in 0..n {
            let (x, y) = pairs[rng.index(n)];
            rn += x;
            rd += y;
        }
        stats.push(if rd > 0.0 { scale * rn / rd } else { 0.0 });
    }
    stats.sort_by(|a, b| a.partial_cmp(b).expect("finite bootstrap statistics"));
    // Outward-rounded 2.5 % / 97.5 % percentile ranks (conservative).
    let lo = stats[(0.025 * (resamples - 1) as f64).floor() as usize];
    let hi = stats[(0.975 * (resamples - 1) as f64).ceil() as usize];
    Some(Ci {
        mean: point,
        half_width: (point - lo).max(hi - point).max(0.0),
    })
}

/// The convergence-based early-stop rule for iterated campaigns: run at
/// least `min_iters`, at most `max_iters`, and stop as soon as every
/// tier-1 metric's 95 % CI half-width is below `target_halfwidth_pct` —
/// *relative* to the mean for magnitude metrics (SPCf, THRf, RTMf),
/// *absolute* percentage points for metrics already on a 0–100 scale
/// (ER%f), where a relative rule would blow up near zero.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceConfig {
    /// The target, as a percentage: relative half-width for magnitude
    /// metrics, percentage points for percent metrics.
    pub target_halfwidth_pct: f64,
    /// Never stop before this many iterations (a CI needs at least 2).
    pub min_iters: u64,
    /// Hard iteration ceiling, converged or not.
    pub max_iters: u64,
}

impl Default for ConvergenceConfig {
    fn default() -> ConvergenceConfig {
        ConvergenceConfig {
            target_halfwidth_pct: 5.0,
            min_iters: 2,
            max_iters: 8,
        }
    }
}

impl ConvergenceConfig {
    /// Whether a magnitude metric's CI is tight enough: half-width within
    /// `target_halfwidth_pct` percent of `|mean|`. A missing CI never
    /// converges; a zero half-width always does.
    pub fn relative_ok(&self, ci: Option<&Ci>) -> bool {
        match ci {
            Some(ci) if ci.half_width == 0.0 => true,
            Some(ci) => ci.half_width <= self.target_halfwidth_pct / 100.0 * ci.mean.abs(),
            None => false,
        }
    }

    /// Whether a percent-scale metric's CI is tight enough: half-width
    /// within `target_halfwidth_pct` percentage points.
    pub fn absolute_ok(&self, ci: Option<&Ci>) -> bool {
        ci.is_some_and(|ci| ci.half_width <= self.target_halfwidth_pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_two_pass() {
        let xs = [3.0, 7.0, 7.0, 19.0, 24.0, 4.5];
        let w = moments(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.sample_variance() - var).abs() < 1e-9);
        assert_eq!(w.count(), 6);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
        let all = moments(&xs);
        let mut merged = moments(&xs[..3]);
        merged.merge(&moments(&xs[3..]));
        assert!((merged.mean() - all.mean()).abs() < 1e-12);
        assert!((merged.sample_variance() - all.sample_variance()).abs() < 1e-9);
        // Merging an empty accumulator is the identity, both ways (every
        // field, compared through its Debug rendering).
        let mut left = all.clone();
        left.merge(&OnlineStats::new());
        assert_eq!(format!("{left:?}"), format!("{all:?}"));
        let mut right = OnlineStats::new();
        right.merge(&all);
        assert_eq!(format!("{right:?}"), format!("{all:?}"));
    }

    #[test]
    fn t_table_is_monotonic_and_hits_known_values() {
        assert!((t_critical_975(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_975(2) - 4.303).abs() < 1e-9);
        assert!((t_critical_975(10) - 2.228).abs() < 1e-9);
        assert!((t_critical_975(1_000_000) - 1.960).abs() < 1e-9);
        let mut prev = t_critical_975(1);
        for df in 2..200 {
            let t = t_critical_975(df);
            assert!(t <= prev, "t table not non-increasing at df {df}");
            prev = t;
        }
    }

    #[test]
    fn t_interval_known_case() {
        // n = 3, mean 10, sd 1 → hw = 4.303 · 1/√3.
        let ci = t_interval(&[9.0, 10.0, 11.0]).unwrap();
        assert!((ci.mean - 10.0).abs() < 1e-12);
        assert!((ci.half_width - 4.303 / 3.0_f64.sqrt()).abs() < 1e-9);
        assert!(ci.lo() < 9.0 && ci.hi() > 11.0);
    }

    #[test]
    fn t_interval_needs_two_samples() {
        assert!(t_interval(&[]).is_none());
        assert!(t_interval(&[5.0]).is_none());
        // Zero-variance samples give a degenerate (zero-width) interval.
        let ci = t_interval(&[4.0, 4.0, 4.0]).unwrap();
        assert_eq!(ci.half_width, 0.0);
    }

    #[test]
    fn overlap_is_symmetric_and_correct() {
        let a = Ci {
            mean: 10.0,
            half_width: 1.0,
        };
        let b = Ci {
            mean: 11.5,
            half_width: 1.0,
        };
        let c = Ci {
            mean: 20.0,
            half_width: 1.0,
        };
        assert!(a.overlaps(&b) && b.overlaps(&a));
        assert!(!a.overlaps(&c) && !c.overlaps(&a));
        // Touching endpoints count as overlap (cannot be confirmed apart).
        let d = Ci {
            mean: 12.0,
            half_width: 1.0,
        };
        assert!(a.overlaps(&d));
    }

    #[test]
    fn bootstrap_is_deterministic_and_seed_sensitive() {
        let pairs: Vec<(f64, f64)> = (0..12)
            .map(|i| (f64::from(i % 3), 10.0 + f64::from(i)))
            .collect();
        let a = bootstrap_ratio_ci(&pairs, 100.0, BOOTSTRAP_SEED, 200).unwrap();
        let b = bootstrap_ratio_ci(&pairs, 100.0, BOOTSTRAP_SEED, 200).unwrap();
        assert_eq!(a, b, "same seed must reproduce the interval bit for bit");
        let c = bootstrap_ratio_ci(&pairs, 100.0, BOOTSTRAP_SEED.wrapping_add(1), 200).unwrap();
        assert!(
            (a.half_width - c.half_width).abs() > 0.0,
            "different seeds should draw different resamples"
        );
        // The point estimate is the ratio of sums, independent of the seed.
        assert_eq!(a.mean, c.mean);
    }

    #[test]
    fn bootstrap_zero_variance_has_zero_width() {
        let pairs = vec![(2.0, 10.0); 8];
        let ci = bootstrap_ratio_ci(&pairs, 100.0, BOOTSTRAP_SEED, 100).unwrap();
        assert_eq!(ci.mean, 20.0);
        assert_eq!(ci.half_width, 0.0);
    }

    #[test]
    fn bootstrap_degenerate_inputs_are_none() {
        assert!(bootstrap_ratio_ci(&[], 100.0, 1, 100).is_none());
        assert!(bootstrap_ratio_ci(&[(1.0, 2.0)], 100.0, 1, 100).is_none());
        assert!(bootstrap_ratio_ci(&[(0.0, 0.0), (0.0, 0.0)], 100.0, 1, 100).is_none());
        assert!(bootstrap_ratio_ci(&[(1.0, 2.0), (1.0, 3.0)], 100.0, 1, 0).is_none());
    }

    #[test]
    fn bootstrap_interval_brackets_the_point_estimate() {
        let pairs: Vec<(f64, f64)> = (0..20)
            .map(|i| (f64::from(i % 5), 40.0 + f64::from(i % 7)))
            .collect();
        let ci = bootstrap_ratio_ci(&pairs, 100.0, BOOTSTRAP_SEED, 300).unwrap();
        assert!(ci.half_width > 0.0);
        assert!(ci.lo() <= ci.mean && ci.mean <= ci.hi());
    }

    #[test]
    fn convergence_rules() {
        let conv = ConvergenceConfig {
            target_halfwidth_pct: 10.0,
            min_iters: 2,
            max_iters: 8,
        };
        let tight = Ci {
            mean: 100.0,
            half_width: 5.0,
        };
        let loose = Ci {
            mean: 100.0,
            half_width: 25.0,
        };
        assert!(conv.relative_ok(Some(&tight)));
        assert!(!conv.relative_ok(Some(&loose)));
        assert!(!conv.relative_ok(None));
        // Zero half-width converges even at zero mean.
        assert!(conv.relative_ok(Some(&Ci {
            mean: 0.0,
            half_width: 0.0,
        })));
        assert!(!conv.relative_ok(Some(&Ci {
            mean: 0.0,
            half_width: 0.1,
        })));
        // Absolute rule: percentage points, not relative.
        assert!(conv.absolute_ok(Some(&Ci {
            mean: 0.0,
            half_width: 8.0,
        })));
        assert!(!conv.absolute_ok(Some(&Ci {
            mean: 50.0,
            half_width: 12.0,
        })));
        assert!(!conv.absolute_ok(None));
    }

    #[test]
    fn ci_serializes_plainly() {
        let ci = Ci {
            mean: 12.5,
            half_width: 0.75,
        };
        let json = serde_json::to_string(&ci).unwrap();
        let back: Ci = serde_json::from_str(&json).unwrap();
        assert_eq!(ci, back);
    }
}
