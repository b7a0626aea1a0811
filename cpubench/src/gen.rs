//! G-SWFIT step 1 — faultload generation — as one benchmark operation.
//!
//! A generation compiles an edition's OS from source, builds a scanner from
//! the bundled `odc-classic` pack plus the example `chain-cleanup` pack,
//! scans the whole image and a sampled subset of the profiled functions,
//! and scores the whole-image scan against the compiler's construct map.

use std::time::Duration;

use simkit::SimRng;
use simos::Edition;
use swfit_core::{accuracy, FaultPack, Faultload, Scanner};

use crate::check::Checker;
use crate::clock::thread_timed;

/// The example user pack shipped with the repository.
const CHAIN_CLEANUP: &str = include_str!("../../packs/chain-cleanup.json");

/// Set-up shared by every generation: the profiled function subset of each
/// edition and the parsed user pack.
pub struct GenInputs {
    /// Profiled FIT subset per edition, in `Edition::ALL` order.
    profiled: Vec<Vec<String>>,
    pack: FaultPack,
}

/// Runs the profiling phase of both editions and parses the user pack.
///
/// # Panics
///
/// Panics if the bundled pack does not validate (it is covered by the
/// repository's pack tests).
pub fn prepare() -> GenInputs {
    GenInputs {
        profiled: Edition::ALL
            .iter()
            .map(|&ed| profiled_functions(ed))
            .collect(),
        pack: FaultPack::from_json(CHAIN_CLEANUP).expect("chain-cleanup pack validates"),
    }
}

impl GenInputs {
    /// The profiled FIT subset of `edition`.
    pub fn profiled(&self, edition: Edition) -> &[String] {
        let index = Edition::ALL.iter().position(|&e| e == edition);
        &self.profiled[index.expect("every edition is profiled")]
    }
}

/// The profiling phase of §2.4 with its defaults: the FIT subset the
/// benchmark's faultloads are restricted to.
pub fn profiled_functions(edition: Edition) -> Vec<String> {
    let cfg = depbench::ProfilePhaseConfig::default();
    depbench::profilephase::selected_functions(edition, &cfg)
}

/// Which edition and function subset generation `index` of a run uses:
/// editions alternate from a seeded start, and each profiled function is
/// kept with probability one half.
pub fn plan(inputs: &GenInputs, seed: u64, index: u64) -> (Edition, Vec<String>) {
    let mut rng = SimRng::derive(seed, &[0x6e6e, index]);
    let first = (SimRng::derive(seed, &[0x6e6e]).next_u64() % 2) as usize;
    let ed_index = (first + index as usize) % Edition::ALL.len();
    let subset = inputs.profiled[ed_index]
        .iter()
        .filter(|_| rng.chance(0.5))
        .cloned()
        .collect();
    (Edition::ALL[ed_index], subset)
}

/// What one generation produced.
pub struct Generation {
    pub edition: Edition,
    pub subset: Vec<String>,
    pub fingerprint: u64,
    pub whole: Faultload,
    pub subset_scan: Faultload,
    pub accuracy: accuracy::AccuracyReport,
}

/// Thread-CPU time of each step of one generation.
#[derive(Clone, Copy, Default)]
pub struct GenSpans {
    pub compile: Duration,
    pub scan_whole: Duration,
    pub scan_subset: Duration,
    pub accuracy: Duration,
}

/// Runs one generation.
///
/// # Errors
///
/// Returns a description when the OS source does not compile or the
/// scanner cannot be built.
pub fn generate(
    inputs: &GenInputs,
    edition: Edition,
    subset: Vec<String>,
) -> Result<(Generation, GenSpans), String> {
    let (program, compile) =
        thread_timed(|| minic::compile(edition.name(), &simos::source::os_source(edition)));
    let program = program.map_err(|e| format!("{edition} source does not compile: {e}"))?;
    let scanner = Scanner::builder()
        .classic()
        .pack(inputs.pack.clone())
        .build()
        .map_err(|e| format!("scanner does not build: {e}"))?;
    let image = program.image();
    let (whole, scan_whole) = thread_timed(|| scanner.scan_image(image));
    let (subset_scan, scan_subset) = thread_timed(|| scanner.scan_functions(image, &subset));
    let (accuracy, accuracy_time) =
        thread_timed(|| accuracy::measure(&whole, program.constructs()));
    Ok((
        Generation {
            edition,
            subset,
            fingerprint: image.fingerprint(),
            whole,
            subset_scan,
            accuracy,
        },
        GenSpans {
            compile,
            scan_whole,
            scan_subset,
            accuracy: accuracy_time,
        },
    ))
}

/// Checks generations: the image is the build campaigns boot, and the
/// subset scan equals the whole-image scan restricted to the subset. The
/// first whole-image faultload and accuracy report of each edition must
/// match the committed digests (both are seed-independent); later ones
/// must equal that first one.
#[derive(Default)]
pub struct GenCheck {
    verified: Vec<(Edition, Faultload, accuracy::AccuracyReport)>,
}

impl GenCheck {
    /// Checks one generation; returns whether every check held.
    pub fn check(&mut self, g: &Generation, checker: &mut Checker) -> bool {
        let ed = g.edition.name();
        let booted = simos::image_fingerprint(g.edition).ok();
        let mut ok = checker.ensure(booted == Some(g.fingerprint), || {
            format!("{ed}: compiled image fingerprint differs from the booted build")
        });
        let restricted = g.whole.restrict_to_functions(&g.subset);
        ok &= checker.ensure(restricted == g.subset_scan, || {
            format!("{ed}: subset scan differs from the restricted whole-image scan")
        });
        if let Some((_, whole, report)) = self.verified.iter().find(|v| v.0 == g.edition) {
            return ok
                & checker.ensure(*whole == g.whole && *report == g.accuracy, || {
                    format!("{ed}: generation differs from the run's first")
                });
        }
        let whole = g.whole.to_json().expect("faultload serializes");
        let report = serde_json::to_string(&g.accuracy).expect("accuracy report serializes");
        let verified = checker.digest(&format!("faultload-gen.{ed}.faultload"), whole.as_bytes())
            & checker.digest(&format!("faultload-gen.{ed}.accuracy"), report.as_bytes());
        if verified {
            self.verified
                .push((g.edition, g.whole.clone(), g.accuracy.clone()));
        }
        ok & verified
    }
}
