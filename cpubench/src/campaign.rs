//! G-SWFIT step 2 — the injection campaign — as benchmark workloads.
//!
//! An operation is one fault slot. A timed pass runs the whole profiled
//! faultload through `Campaign::run_injection_observed`, reading the
//! worker thread's CPU clock at the slot observer, so each sample covers
//! exactly one slot (plus its journal append on journaled workloads). The
//! observer also runs the calibration probe, outside every sample.

use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;

use depbench::{
    Campaign, CampaignConfig, CampaignResult, IntervalConfig, SlotOutcome, SlotWatchdogConfig,
};
use faultstore::{FaultStore, Journal, JournalHeader};
use simkit::SimDuration;
use simos::{Edition, Os, OsSnapshot};
use specweb::{FileSet, RequestGenerator};
use swfit_core::{Faultload, Scanner};
use webserver::{ServerKind, WebServer};

use crate::calib::{self, Probe};
use crate::check::Checker;
use crate::clock::{process_cpu, thread_cpu};

/// One campaign workload's inputs.
pub struct Spec {
    /// Workload name (also the digest prefix).
    pub name: &'static str,
    pub edition: Edition,
    pub server: ServerKind,
    /// Simulated length of each slot's measured interval.
    pub slot: SimDuration,
    /// Simulated fault-free warm-up before each injection.
    pub warmup: SimDuration,
    /// Scan through a fresh fault-map cache, journal every slot, and arm
    /// the slot watchdog (which runs the threaded executor).
    pub journaled: bool,
}

/// The paper's Table 5 cell: paper-default slots, untraced, inline
/// sequential executor, no store.
pub const TABLE5_W2K: Spec = Spec {
    name: "table5-w2k",
    edition: Edition::Nimbus2000,
    server: ServerKind::Wren,
    slot: SimDuration::from_millis(2000),
    warmup: SimDuration::from_millis(400),
    journaled: false,
};

/// Short slots on the larger image, with every slot journaled and
/// watched: per-slot fixed costs dominate.
pub const CHURN_XP: Spec = Spec {
    name: "churn-xp",
    edition: Edition::NimbusXp,
    server: ServerKind::Heron,
    slot: SimDuration::from_millis(100),
    warmup: SimDuration::ZERO,
    journaled: true,
};

/// The campaign seed the committed digests were recorded with — the
/// repository's default.
pub fn default_seed() -> u64 {
    CampaignConfig::default().seed
}

impl Spec {
    /// The workload's campaign configuration under `seed`.
    pub fn config(&self, seed: u64) -> CampaignConfig {
        CampaignConfig::builder()
            .interval(IntervalConfig {
                duration: self.slot,
                ..IntervalConfig::default()
            })
            .warmup(self.warmup)
            .seed(seed)
            .build()
    }

    /// The workload's campaign under `seed`.
    pub fn campaign(&self, seed: u64) -> Campaign {
        let campaign = Campaign::new(self.edition, self.server, self.config(seed));
        if self.journaled {
            campaign.with_watchdog(SlotWatchdogConfig::default())
        } else {
            campaign
        }
    }

    /// One set-up: the profiling phase, the scan (through a fresh
    /// fault-map cache under `store_root` on journaled workloads) and a
    /// worker stack, which also fills the process-wide compiled-image and
    /// file-set caches so timed passes start warm.
    ///
    /// # Errors
    ///
    /// Returns a description when the OS does not boot or the store fails.
    pub fn setup(&self, store_root: &Path) -> Result<(Faultload, Stack), String> {
        let profiled = crate::gen::profiled_functions(self.edition);
        let os = Os::boot(self.edition)?;
        let scanner = Scanner::standard();
        let faultload = if self.journaled {
            let store = FaultStore::open(store_root).map_err(|e| e.to_string())?;
            store
                .scan_functions(&scanner, os.program().image(), &profiled)
                .map_err(|e| e.to_string())?
        } else {
            scanner.scan_functions(os.program().image(), &profiled)
        };
        let stack = Stack::build(self, &self.config(default_seed()))?;
        Ok((faultload, stack))
    }
}

/// A worker stack built from public calls exactly as the campaign builds
/// its own: boot, populate the file set, start the server, checkpoint.
pub struct Stack {
    pub os: Os,
    pub template: RequestGenerator,
    pub snapshot: OsSnapshot,
    pub server: Box<dyn WebServer>,
}

impl Stack {
    /// Builds a stack for `spec` under `config`.
    ///
    /// # Errors
    ///
    /// Returns a description when the OS does not boot or the server does
    /// not start.
    pub fn build(spec: &Spec, config: &CampaignConfig) -> Result<Stack, String> {
        let mut os = Os::boot_with_budget(spec.edition, config.os_budget)?;
        let files = FileSet::populate(config.fileset, os.devices_mut());
        let mut server = spec.server.build();
        if !server.start(&mut os) {
            return Err(format!("{} does not start on a pristine OS", spec.server));
        }
        Ok(Stack {
            snapshot: os.snapshot(),
            os,
            template: RequestGenerator::new(files),
            server,
        })
    }
}

/// One timed pass over the faultload.
pub struct Pass {
    pub result: CampaignResult,
    /// Process CPU time of the pass, less the calibration probes.
    pub cpu: Duration,
    /// Converts this pass's CPU time to the nominal host speed: calibrated
    /// over uncalibrated slot time.
    pub calibration: f64,
    /// Calibrated per-slot CPU time in ms, from the second slot on (the
    /// first sample would include building the worker stack).
    pub op_ms: Vec<f64>,
    /// Slots missing from the journal.
    pub journal_failures: usize,
}

/// Consecutive observer readings on one thread.
#[derive(Default)]
struct ObserverClock {
    last: Option<(ThreadId, Duration)>,
    op_ms: Vec<f64>,
    journal_failures: usize,
    probe: Probe,
    probing: Duration,
    raw: Duration,
    calibrated: Duration,
}

/// Runs one pass of `campaign` over `faultload`, journaling every slot to
/// `journal` when given.
///
/// # Errors
///
/// Returns a description when the campaign or the journal cannot start.
pub fn run_pass(
    campaign: &Campaign,
    faultload: &Faultload,
    journal: Option<&Path>,
) -> Result<Pass, String> {
    let journal = match journal {
        Some(path) => Some(
            Journal::create(path, &JournalHeader::describe(campaign, faultload, 0))
                .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    let clock = Mutex::new(ObserverClock::default());
    let start = process_cpu();
    let result = campaign
        .run_injection_observed(faultload, 0, Vec::new(), &|slot, outcome: &SlotOutcome| {
            let appended = journal.as_ref().map(|j| j.record(slot, outcome).is_ok());
            let now = thread_cpu();
            let me = std::thread::current().id();
            let mut c = clock.lock().expect("observer clock lock");
            if appended == Some(false) {
                c.journal_failures += 1;
            }
            match c.last {
                // CPU clocks of different threads are not comparable.
                Some((thread, last)) if thread == me => {
                    let op = now - last;
                    let probe = c.probe.run();
                    let calibrated = calib::scale(op, probe);
                    c.op_ms.push(calibrated.as_secs_f64() * 1e3);
                    c.probing += probe;
                    c.raw += op;
                    c.calibrated += calibrated;
                }
                _ => {}
            }
            c.last = Some((me, thread_cpu()));
        })
        .map_err(|e| e.to_string())?;
    let elapsed = process_cpu() - start;
    let clock = clock.into_inner().expect("observer clock lock");
    // A journal must end up holding every slot, whatever `record` returned.
    let unjournaled = journal
        .as_ref()
        .map_or(0, |j| faultload.len() - j.recorded());
    Ok(Pass {
        result,
        cpu: elapsed.saturating_sub(clock.probing),
        calibration: clock.calibrated.as_secs_f64() / clock.raw.as_secs_f64(),
        op_ms: clock.op_ms,
        journal_failures: clock.journal_failures.max(unjournaled),
    })
}

/// Serialized form of every completed slot, for slot-by-slot comparison.
pub fn slot_json(result: &CampaignResult) -> Vec<String> {
    result
        .slots
        .iter()
        .map(|s| serde_json::to_string(s).expect("slot result serializes"))
        .collect()
}

/// Checks one pass of `slots` slots: no slot quarantined or unjournaled,
/// and, given a reference, every slot serialized exactly as in it (the
/// campaign is deterministic). Returns the number of failed slots.
pub fn check_pass(
    pass: &Pass,
    reference: Option<&[String]>,
    slots: usize,
    checker: &mut Checker,
) -> usize {
    let differing = reference.map_or(0, |reference| {
        let json = slot_json(&pass.result);
        (0..json.len().max(reference.len()))
            .filter(|&i| json.get(i) != reference.get(i))
            .count()
    });
    let failed = pass.result.quarantined.len() + pass.journal_failures + differing;
    checker.ensure(failed == 0, || {
        format!(
            "{} quarantined, {} unjournaled, {differing} differing from the reference",
            pass.result.quarantined.len(),
            pass.journal_failures
        )
    });
    failed.min(slots)
}

/// The output check at the committed inputs: one pass at the default seed,
/// its full result (and journal bytes) compared with the digests, plus the
/// profiled faultload itself. Returns (slots attempted, slots failed).
///
/// # Errors
///
/// Returns a description when the campaign cannot run.
pub fn check_default(
    spec: &Spec,
    faultload: &Faultload,
    work: &Path,
    checker: &mut Checker,
) -> Result<(usize, usize), String> {
    let fl_json = faultload.to_json().expect("faultload serializes");
    let mut failed = 0;
    if !checker.digest(&format!("{}.faultload", spec.name), fl_json.as_bytes()) {
        failed = faultload.len();
    }
    let journal = spec.journaled.then(|| work.join("check.jsonl"));
    let pass = run_pass(
        &spec.campaign(default_seed()),
        faultload,
        journal.as_deref(),
    )?;
    let result = serde_json::to_string(&pass.result).expect("campaign result serializes");
    let mut ok = checker.digest(&format!("{}.campaign", spec.name), result.as_bytes());
    if let Some(path) = &journal {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ok &= checker.digest(&format!("{}.journal", spec.name), &bytes);
    }
    if !ok {
        failed = faultload.len();
    }
    failed = failed.max(check_pass(&pass, None, faultload.len(), checker));
    Ok((faultload.len(), failed))
}
