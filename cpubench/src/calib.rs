//! Host-speed calibration for the gated timings.
//!
//! The benchmark host is a shared 2-vCPU VM whose CPU time per unit of work
//! swings by up to 70 % over tens of seconds as neighbours contend for the
//! shared caches: the program's CPU time moves with them, so raw CPU time
//! alone cannot compare two runs taken minutes apart. A fixed probe of the
//! benchmark's own — a random read-modify-write walk over an L2-sized
//! buffer, which shares no code with the program — is run after every
//! operation. Its CPU time tracks the same contention, and the operation's
//! CPU time is scaled by `NOMINAL / probe time`, reading as CPU time on the
//! host at its quiet speed. In a 240-second run of faultload generation cut
//! into 20-second windows, this cut the spread of throughput between
//! windows from 28 % to 5 % (one factor per 200-operation pass: 6 %). In an
//! earlier 200-second run, an ALU-only probe (the kind `perfgate`
//! calibrates with) left 13 % where this one left 7 %.

use std::hint::black_box;
use std::time::Duration;

use crate::clock::thread_timed;

/// Probe buffer: 256 KiB of `u64`, about one L2 cache.
const CELLS: usize = 1 << 15;
/// Read-modify-write steps per probe.
const STEPS: usize = 30_000;
/// Median CPU time of one probe on the reference host (2-vCPU Xeon VM at
/// 2.1 GHz) — the speed calibrated timings are expressed at.
const NOMINAL: Duration = Duration::from_micros(40);

/// `op` scaled to the nominal host speed, given the time of the probe run
/// right after it.
pub fn scale(op: Duration, probe: Duration) -> Duration {
    op.mul_f64(NOMINAL.as_secs_f64() / probe.as_secs_f64())
}

/// The calibration probe and the probe time accumulated since the last
/// [`Probe::take_factor`].
pub struct Probe {
    cells: Vec<u64>,
    spent: Duration,
    runs: u32,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            cells: vec![1; CELLS],
            spent: Duration::ZERO,
            runs: 0,
        }
    }
}

impl Probe {
    /// Runs the probe once; returns its thread-CPU time.
    pub fn run(&mut self) -> Duration {
        let (sum, t) = thread_timed(|| walk(&mut self.cells));
        black_box(sum);
        self.spent += t;
        self.runs += 1;
        t
    }

    /// The factor that converts CPU time measured since the last call into
    /// CPU time at the nominal host speed, and restarts the accumulation.
    ///
    /// # Panics
    ///
    /// Panics when the probe has not run since the last call.
    pub fn take_factor(&mut self) -> f64 {
        assert!(self.runs > 0, "calibration probe never ran");
        let mean = self.spent.as_secs_f64() / f64::from(self.runs);
        self.spent = Duration::ZERO;
        self.runs = 0;
        NOMINAL.as_secs_f64() / mean
    }
}

/// A deterministic pseudo-random walk that reads and rewrites one cell per
/// step. The index is masked, not divided: a division per step would make
/// the probe time the divider instead of the cache.
fn walk(cells: &mut [u64]) -> u64 {
    assert_eq!(cells.len(), CELLS, "probe buffer is one power-of-two block");
    let mut index = 1usize;
    let mut sum = 0u64;
    for _ in 0..STEPS {
        index = index
            .wrapping_mul(2_862_933_555_777_941_757)
            .wrapping_add(3_037_000_493)
            & (CELLS - 1);
        sum = sum.wrapping_add(cells[index]);
        cells[index] = sum;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_relative_to_the_nominal_probe_time() {
        let op = Duration::from_millis(3);
        assert_eq!(scale(op, NOMINAL), op);
        assert_eq!(scale(op, NOMINAL * 2), op / 2);
    }

    #[test]
    fn factor_is_nominal_over_mean_probe_time() {
        let mut probe = Probe::default();
        let t = probe.run() + probe.run();
        let factor = probe.take_factor();
        let expected = NOMINAL.as_secs_f64() / (t.as_secs_f64() / 2.0);
        assert!(
            (factor - expected).abs() < 1e-9 * expected,
            "{factor} vs {expected}"
        );
        assert_eq!(probe.runs, 0, "take_factor restarts the accumulation");
    }
}
