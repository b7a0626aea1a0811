//! One benchmark run: set-up, timed phase, output checks, result line.

use std::path::{Path, PathBuf};
use std::time::Duration;

use simkit::SimRng;
use simos::Edition;

use crate::calib::{self, Probe};
use crate::campaign::{self, Spec};
use crate::check::Checker;
use crate::clock::{peak_rss_kb, process_cpu, thread_cpu, Noise};
use crate::metrics::{Report, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, tail_percentile};
use crate::{gen, replay, Args, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// Operations per pass of `faultload-gen`: the fewest whose p95 the tail
/// rule accepts.
const GEN_PASS: usize = 200;

/// The benchmark's last output line and whether every check passed.
pub struct Line {
    pub json: String,
    pub correct: bool,
}

/// Scratch space for stores and journals inside the benchmark's own
/// directory, removed when the run ends.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: Workload) -> Result<WorkDir, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A path inside the work directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the shared parent too, unless another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The campaign seed of timed pass `pass`, derived from `--seed`. Every
/// pass draws fresh traffic: a slot's cost depends on the requests it
/// draws, and a run's percentiles should not hang on one draw.
pub fn campaign_seed(seed: u64, pass: u64) -> u64 {
    SimRng::derive(seed, &[0xca4a, pass]).next_u64()
}

/// Calibration probes run on each side of a set-up.
const SETUP_PROBES: usize = 20;

/// Runs `setup` [`SETUP_REPS`] times; returns the last result and the
/// median calibrated process-CPU seconds of one set-up.
fn timed_setup<T>(mut setup: impl FnMut(usize) -> Result<T, String>) -> Result<(T, f64), String> {
    let mut probe = Probe::default();
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        for _ in 0..SETUP_PROBES {
            probe.run();
        }
        let start = process_cpu();
        last = Some(setup(rep)?);
        let cpu = process_cpu() - start;
        for _ in 0..SETUP_PROBES {
            probe.run();
        }
        times.push(cpu.as_secs_f64() * probe.take_factor());
    }
    Ok((last.expect("at least one set-up"), median(&mut times)))
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Returns a description when the run cannot complete (set-up or program
/// failure); failed output checks are reported in the line instead.
pub fn run(args: &Args) -> Result<Line, String> {
    let noise = Noise::start();
    let work = WorkDir::create(args.workload)?;
    let mut checker = Checker::default();
    let mut report = Report::default();
    let spec = match args.workload {
        Workload::Table5W2k => Some(&campaign::TABLE5_W2K),
        Workload::ChurnXp => Some(&campaign::CHURN_XP),
        Workload::FaultloadGen => None,
    };
    match (spec, args.trace) {
        (Some(spec), false) => campaign_run(spec, args, &work, &mut checker, &mut report)?,
        (None, false) => gen_run(args, &mut checker, &mut report)?,
        (_, true) => replay::traced_run(spec, args, &work, &mut checker, &mut report)?,
    }
    eprintln!("{}", noise.report());
    report.correct = checker.failures().is_empty() && report.failed == 0;
    if !report.correct {
        for failure in checker.failures() {
            eprintln!("check failed: {failure}");
        }
        eprint!("digests computed by this run:\n{}", checker.seen());
    }
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    Ok(Line {
        json: report.to_json(catalogue),
        correct: report.correct,
    })
}

/// Per-pass measurements of a timed phase, calibrated to the nominal
/// host speed (see [`crate::calib`]).
#[derive(Default)]
struct Passes {
    /// Calibrated CPU time of every operation, in ms, over all passes.
    op_ms: Vec<f64>,
    /// Uncalibrated and calibrated CPU time of the operations.
    cpu: Duration,
    calibrated_s: f64,
    ops: usize,
    calibration: Vec<f64>,
}

impl Passes {
    /// Records one pass of `ops` completed operations in `cpu`, with its
    /// calibrated per-operation CPU samples in ms and the factor that
    /// calibrates the pass as a whole.
    fn push(&mut self, ops: usize, cpu: Duration, op_ms: &[f64], calibration: f64) {
        let n = op_ms.len();
        assert!(
            tail_percentile(n).is_some_and(|p| p >= 95.0),
            "a pass of {n} samples cannot support a p95"
        );
        self.op_ms.extend_from_slice(op_ms);
        self.cpu += cpu;
        self.calibrated_s += cpu.as_secs_f64() * calibration;
        self.ops += ops;
        self.calibration.push(calibration);
    }
}

/// End-to-end metrics shared by both kinds of workload.
fn finish(report: &mut Report, setup_s: f64, mut passes: Passes) {
    report.set("setup_s", setup_s);
    report.set("ops_per_s", passes.ops as f64 / passes.calibrated_s);
    report.set("op_ms_p50", percentile(&mut passes.op_ms, 50.0));
    report.set("op_ms_p95", percentile(&mut passes.op_ms, 95.0));
    let rss_kb = peak_rss_kb().unwrap_or(0);
    report.set("peak_rss_mb", rss_kb as f64 / 1024.0);
    let ok = report.attempted - report.failed.min(report.attempted);
    report.set(
        "ok_op_pct",
        100.0 * ok as f64 / report.attempted.max(1) as f64,
    );
    eprintln!(
        "{} passes, {} ops in {:.3} s CPU ({:.2} ops/s uncalibrated, median \
         calibration factor {:.3}); set-up median {setup_s:.4} s of {SETUP_REPS}",
        passes.calibration.len(),
        passes.ops,
        passes.cpu.as_secs_f64(),
        passes.ops as f64 / passes.cpu.as_secs_f64(),
        median(&mut passes.calibration),
    );
}

/// A campaign workload: whole passes over the profiled faultload until
/// `--seconds` of process CPU have been spent, then the default-seed check.
fn campaign_run(
    spec: &Spec,
    args: &Args,
    work: &WorkDir,
    checker: &mut Checker,
    report: &mut Report,
) -> Result<(), String> {
    let ((faultload, _stack), setup_s) =
        timed_setup(|rep| spec.setup(&work.join(&format!("store-{rep}"))))?;
    let journal = spec.journaled.then(|| work.join("timed.jsonl"));
    let budget = Duration::from_secs(args.seconds);
    let mut passes = Passes::default();
    while passes.cpu < budget || passes.calibration.is_empty() {
        let campaign = spec.campaign(campaign_seed(args.seed, passes.calibration.len() as u64));
        let pass = campaign::run_pass(&campaign, &faultload, journal.as_deref())?;
        report.attempted += faultload.len();
        report.failed += campaign::check_pass(&pass, None, faultload.len(), checker);
        passes.push(
            pass.result.slots.len(),
            pass.cpu,
            &pass.op_ms,
            pass.calibration,
        );
    }
    let (attempted, failed) = campaign::check_default(spec, &faultload, &work.0, checker)?;
    report.attempted += attempted;
    report.failed += failed;
    finish(report, setup_s, passes);
    Ok(())
}

/// The generation loop: passes of [`GEN_PASS`] operations until
/// `--seconds` of process CPU have been spent. An operation is one
/// generation of each edition, in seeded order: one edition's generation
/// costs about 70 % of the other's, and the median of that two-humped mix
/// would sit on the edge of one hump and jump between runs.
fn gen_run(args: &Args, checker: &mut Checker, report: &mut Report) -> Result<(), String> {
    let (inputs, setup_s) = timed_setup(|_| Ok(gen::prepare()))?;
    let budget = Duration::from_secs(args.seconds);
    let mut passes = Passes::default();
    let mut probe = Probe::default();
    let mut check = gen::GenCheck::default();
    let mut index = 0;
    while passes.cpu < budget || passes.calibration.is_empty() {
        let (mut op_ms, mut cpu, mut ops) = (Vec::with_capacity(GEN_PASS), Duration::ZERO, 0);
        let (mut raw, mut calibrated) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..GEN_PASS {
            let mut ok = true;
            let mut op = Duration::ZERO;
            for _ in 0..Edition::ALL.len() {
                let (edition, subset) = gen::plan(&inputs, args.seed, index);
                index += 1;
                let (start, thread_start) = (process_cpu(), thread_cpu());
                let generated = gen::generate(&inputs, edition, subset);
                op += thread_cpu() - thread_start;
                cpu += process_cpu() - start;
                ok &= match generated {
                    Ok((g, _)) => check.check(&g, checker),
                    Err(e) => checker.ensure(false, || e),
                };
            }
            let scaled = calib::scale(op, probe.run());
            op_ms.push(scaled.as_secs_f64() * 1e3);
            raw += op;
            calibrated += scaled;
            report.attempted += 1;
            if ok {
                ops += 1;
            } else {
                report.failed += 1;
            }
        }
        let calibration = calibrated.as_secs_f64() / raw.as_secs_f64();
        passes.push(ops, cpu, &op_ms, calibration);
    }
    finish(report, setup_s, passes);
    Ok(())
}
