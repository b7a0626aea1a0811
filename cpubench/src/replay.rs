//! The traced run: per-layer metrics, never mixed with the gated runs.
//!
//! Spans are recorded from the benchmark's own code, around public calls
//! into each layer. Each campaign slot is replayed step by step —
//! `Os::restore_snapshot` + `WebServer::clone_box`, `SimRng::derive(seed,
//! [iteration, slot])`, `depbench::interval::run_interval` for warm-up and
//! measurement, `Injector::inject`/`restore`, `Journal::record` — with a
//! delegating `WebServer` that times serve, start and failover. Every
//! replayed slot must serialize exactly as the campaign's own slot did.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::Duration;

use depbench::interval::run_interval;
use depbench::{IntervalConfig, SlotOutcome, SlotResult, TraceConfig};
use faultstore::{FaultStore, Journal, JournalHeader};
use simkit::SimRng;
use simos::{Edition, Os};
use swfit_core::{Faultload, Injector, Scanner};
use webserver::{Request, ServeResult, ServerState, ServerStats, WebServer};

use crate::campaign::{self, Spec, Stack};
use crate::check::Checker;
use crate::clock::{process_cpu, thread_timed};
use crate::gen::{self, GenInputs};
use crate::metrics::Report;
use crate::run::{campaign_seed, WorkDir};
use crate::stats::{median, percentile};
use crate::Args;

/// Generations timed by a campaign workload's traced run.
const GEN_PROBE: u64 = 40;
/// Generations timed by the `faultload-gen` traced run (one pass).
const GEN_PROBE_FULL: u64 = 200;
/// Repetitions of the boot, profiling-phase and fault-map-cache probes.
const PROBE_REPS: usize = 5;
/// `faultload-gen`'s traced run replays every eighth slot of the
/// `table5-w2k` faultload, so every layer has numbers on every workload.
const GEN_CAMPAIGN_STRIDE: usize = 8;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What the timing wrapper saw of the server layer.
#[derive(Default)]
struct ServeLog {
    serve_us: Vec<f64>,
    serve: Duration,
    /// OS API calls made while serving.
    calls: u64,
    /// VM instructions executed while serving (profiling pass only).
    instructions: u64,
    start: Duration,
    starts: u64,
    failover: Duration,
}

/// Delegates to the wrapped server, timing each entry point.
struct TimedServer {
    inner: Box<dyn WebServer>,
    log: Rc<RefCell<ServeLog>>,
    count_instructions: bool,
}

/// VM instructions executed so far (requires cost profiling).
fn executed(os: &Os) -> u64 {
    os.function_costs().iter().map(|(_, n)| n).sum()
}

impl WebServer for TimedServer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn state(&self) -> ServerState {
        self.inner.state()
    }

    fn start(&mut self, os: &mut Os) -> bool {
        let (ok, t) = thread_timed(|| self.inner.start(os));
        let mut log = self.log.borrow_mut();
        log.start += t;
        log.starts += 1;
        ok
    }

    fn serve(&mut self, os: &mut Os, req: &Request) -> ServeResult {
        let calls = os.calls_total();
        let instructions = if self.count_instructions {
            executed(os)
        } else {
            0
        };
        let (out, t) = thread_timed(|| self.inner.serve(os, req));
        let mut log = self.log.borrow_mut();
        log.serve_us.push(us(t));
        log.serve += t;
        log.calls += os.calls_total() - calls;
        if self.count_instructions {
            log.instructions += executed(os) - instructions;
        }
        out
    }

    fn prestart_spare(&mut self, os: &mut Os) -> bool {
        self.inner.prestart_spare(os)
    }

    fn failover(&mut self, os: &mut Os) -> bool {
        let (ok, t) = thread_timed(|| self.inner.failover(os));
        self.log.borrow_mut().failover += t;
        ok
    }

    fn stats(&self) -> ServerStats {
        self.inner.stats()
    }

    fn clone_box(&self) -> Box<dyn WebServer> {
        Box::new(TimedServer {
            inner: self.inner.clone_box(),
            log: Rc::clone(&self.log),
            count_instructions: self.count_instructions,
        })
    }
}

/// Spans of the replayed slots, summed over every replay pass.
#[derive(Default)]
struct SlotSpans {
    slots: usize,
    reset_us: Vec<f64>,
    warmup: Duration,
    measure: Duration,
    inject_undo: Duration,
    repairs: u64,
    record_us: Vec<f64>,
    record_bytes: u64,
}

/// Replays every slot of `faultload` on `stack`, comparing each with the
/// campaign's own serialized slot. Returns the number of slots that did
/// not reproduce.
#[allow(clippy::too_many_arguments)]
fn replay_pass(
    spec: &Spec,
    seed: u64,
    faultload: &Faultload,
    stack: &mut Stack,
    reference: &[String],
    journal: Option<&Journal>,
    log: &Rc<RefCell<ServeLog>>,
    spans: &mut SlotSpans,
) -> Result<usize, String> {
    let config = spec.config(seed);
    let warmup = IntervalConfig {
        duration: config.warmup,
        ..config.interval
    };
    // Cost profiling is on only for the instruction-counting pass.
    let count_instructions = !stack.os.function_costs().is_empty();
    let mut injector = Injector::new();
    let mut mismatches = 0;
    for (slot, fault) in faultload.faults.iter().enumerate() {
        let (server, reset) = thread_timed(|| {
            stack.os.restore_snapshot(&stack.snapshot);
            stack.server.clone_box()
        });
        let mut server = TimedServer {
            inner: server,
            log: Rc::clone(log),
            count_instructions,
        };
        let mut generator = stack.template.clone();
        let mut rng = SimRng::derive(seed, &[0, slot as u64]);
        let os = &mut stack.os;
        let (_, warm) =
            thread_timed(|| run_interval(os, &mut server, &mut generator, &mut rng, &warmup));
        let (injected, inject) = thread_timed(|| injector.inject(os.image_mut(), fault));
        injected.map_err(|e| format!("replay of {}: {e}", fault.id))?;
        let (out, measure) = thread_timed(|| {
            run_interval(os, &mut server, &mut generator, &mut rng, &config.interval)
        });
        let ((), undo) = thread_timed(|| injector.restore(os.image_mut()));
        let result = SlotResult {
            fault_id: fault.id.clone(),
            measures: out.measures,
            watchdog: out.watchdog,
            ended_dead: out.end_state != ServerState::Running,
            availability: out.availability,
            activation: None,
        };
        spans.slots += 1;
        spans.reset_us.push(us(reset));
        spans.warmup += warm;
        spans.measure += measure;
        spans.inject_undo += inject + undo;
        spans.repairs += result.availability.repairs;
        let json = serde_json::to_string(&result).expect("slot result serializes");
        if reference.get(slot) != Some(&json) {
            mismatches += 1;
        }
        if let Some(journal) = journal {
            record(journal, slot, result, spans)?;
        }
    }
    Ok(mismatches)
}

/// Appends one slot to `journal`, timing the append and its size.
fn record(
    journal: &Journal,
    slot: usize,
    result: SlotResult,
    spans: &mut SlotSpans,
) -> Result<(), String> {
    let len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let before = len(journal.path());
    let (appended, t) = thread_timed(|| journal.record(slot, &SlotOutcome::Done(result)));
    appended.map_err(|e| format!("journal append: {e}"))?;
    spans.record_us.push(us(t));
    spans.record_bytes += len(journal.path()) - before;
    Ok(())
}

/// Layer numbers of the generation probe.
#[derive(Default)]
struct GenLayers {
    compile_ms: Vec<f64>,
    scan_ms: Vec<f64>,
    accuracy_ms: Vec<f64>,
    faults: usize,
}

/// Times `n` generations: those of the `faultload-gen` loop when
/// `edition` is `None`, otherwise full-subset generations of `edition`.
fn gen_probe(
    inputs: &GenInputs,
    edition: Option<Edition>,
    seed: u64,
    n: u64,
    checker: &mut Checker,
    report: &mut Report,
) -> Result<GenLayers, String> {
    let mut spans = GenLayers::default();
    let mut check = gen::GenCheck::default();
    for i in 0..n {
        let (ed, subset) = match edition {
            Some(ed) => (ed, inputs.profiled(ed).to_vec()),
            None => gen::plan(inputs, seed, i),
        };
        let (g, t) = gen::generate(inputs, ed, subset)?;
        spans.compile_ms.push(ms(t.compile));
        spans.scan_ms.push(ms(t.scan_whole));
        spans.scan_ms.push(ms(t.scan_subset));
        spans.accuracy_ms.push(ms(t.accuracy));
        spans.faults += g.whole.len() + g.subset_scan.len();
        report.attempted += 1;
        if !check.check(&g, checker) {
            report.failed += 1;
        }
    }
    Ok(spans)
}

/// Median fault-map cache miss and hit times on fresh stores, checking
/// that the hit did not rescan and returned the same faultload.
fn cache_probe(
    edition: Edition,
    profiled: &[String],
    work: &WorkDir,
    checker: &mut Checker,
) -> Result<(f64, f64), String> {
    let os = Os::boot(edition)?;
    let scanner = Scanner::standard();
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    for rep in 0..PROBE_REPS {
        let store =
            FaultStore::open(work.join(&format!("cache-{rep}"))).map_err(|e| e.to_string())?;
        let scan = || store.scan_functions(&scanner, os.program().image(), profiled);
        let (first, t_miss) = thread_timed(scan);
        let scans = faultstore::scan_count();
        let (second, t_hit) = thread_timed(scan);
        let (first, second) = (
            first.map_err(|e| e.to_string())?,
            second.map_err(|e| e.to_string())?,
        );
        checker.ensure(faultstore::scan_count() == scans && first == second, || {
            "fault-map cache hit rescanned or returned a different faultload".to_string()
        });
        miss.push(ms(t_miss));
        hit.push(ms(t_hit));
    }
    Ok((median(&mut miss), median(&mut hit)))
}

/// Boots `PROBE_REPS` stacks; returns the median boot time (ms) and
/// server start time on the pristine OS (µs).
fn boot_probe(spec: &Spec) -> Result<(f64, f64), String> {
    let config = spec.config(campaign::default_seed());
    let (mut boot, mut start) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        let (os, t) = thread_timed(|| Os::boot_with_budget(spec.edition, config.os_budget));
        let mut os = os?;
        boot.push(ms(t));
        specweb::FileSet::populate(config.fileset, os.devices_mut());
        let mut server = spec.server.build();
        let (ok, t) = thread_timed(|| server.start(&mut os));
        if !ok {
            return Err(format!("{} does not start", spec.server));
        }
        start.push(us(t));
    }
    Ok((median(&mut boot), median(&mut start)))
}

/// Runs the traced measurements for a workload (`None` = `faultload-gen`).
///
/// # Errors
///
/// Returns a description when set-up or the program fails.
pub fn traced_run(
    workload: Option<&Spec>,
    args: &Args,
    work: &WorkDir,
    checker: &mut Checker,
    report: &mut Report,
) -> Result<(), String> {
    let inputs = gen::prepare();
    let g = match workload {
        Some(spec) => gen_probe(
            &inputs,
            Some(spec.edition),
            args.seed,
            GEN_PROBE,
            checker,
            report,
        )?,
        None => gen_probe(&inputs, None, args.seed, GEN_PROBE_FULL, checker, report)?,
    };
    report.set("minic.compile_ms", median(&mut g.compile_ms.clone()));
    report.set("core.scan_ms", median(&mut g.scan_ms.clone()));
    report.set("core.accuracy_ms", median(&mut g.accuracy_ms.clone()));
    report.set(
        "core.faults_per_scan",
        g.faults as f64 / g.scan_ms.len() as f64,
    );

    let spec = workload.unwrap_or(&campaign::TABLE5_W2K);
    let mut profile = Vec::new();
    for _ in 0..PROBE_REPS {
        let (_, t) = thread_timed(|| gen::profiled_functions(spec.edition));
        profile.push(ms(t));
    }
    report.set("depbench.profile_ms", median(&mut profile));
    let (mut faultload, mut stack) = spec.setup(&work.join("store"))?;
    let (miss, hit) = cache_probe(spec.edition, inputs.profiled(spec.edition), work, checker)?;
    report.set("faultstore.cache_miss_ms", miss);
    report.set("faultstore.cache_hit_ms", hit);
    let (boot, start) = boot_probe(spec)?;
    report.set("simos.boot_ms", boot);
    report.set("webserver.start_us", start);
    if workload.is_none() {
        faultload.faults = faultload
            .faults
            .into_iter()
            .step_by(GEN_CAMPAIGN_STRIDE)
            .collect();
    }
    campaign_layers(spec, args, &faultload, &mut stack, work, checker, report)
}

/// The campaign half of the traced run: untraced and recorder-traced
/// passes, then timed replays until `--seconds` of replay CPU, then one
/// instruction-counting replay.
fn campaign_layers(
    spec: &Spec,
    args: &Args,
    faultload: &Faultload,
    stack: &mut Stack,
    work: &WorkDir,
    checker: &mut Checker,
    report: &mut Report,
) -> Result<(), String> {
    let seed = campaign_seed(args.seed, 0);
    let campaign = spec.campaign(seed);
    let journal_path = spec.journaled.then(|| work.join("traced.jsonl"));
    let untraced = campaign::run_pass(&campaign, faultload, journal_path.as_deref())?;
    let reference = campaign::slot_json(&untraced.result);
    report.attempted += faultload.len();
    report.failed += campaign::check_pass(&untraced, None, faultload.len(), checker);

    let recorded = campaign::run_pass(
        &campaign.clone().with_trace(TraceConfig::default()),
        faultload,
        journal_path.as_deref(),
    )?;
    let mut stripped = recorded;
    for slot in &mut stripped.result.slots {
        slot.activation = None;
    }
    report.attempted += faultload.len();
    report.failed += campaign::check_pass(&stripped, Some(&reference), faultload.len(), checker);
    let overhead = |cpu: Duration| 100.0 * (cpu.as_secs_f64() / untraced.cpu.as_secs_f64() - 1.0);
    report.set("simtrace.recorder_overhead_pct", overhead(stripped.cpu));

    // Timed replays. A journaled workload journals inside the replayed
    // slot, as its campaign does; the others journal the campaign's
    // outcomes afterwards, so every workload has store-layer numbers.
    let log = Rc::new(RefCell::new(ServeLog::default()));
    let mut spans = SlotSpans::default();
    let reboots = simos::reboot_count();
    let mut pass_cpu = Vec::new();
    let mut mismatches = 0;
    while pass_cpu.iter().sum::<Duration>() < Duration::from_secs(args.seconds)
        || pass_cpu.is_empty()
    {
        let journal = match &journal_path {
            Some(path) => Some(new_journal(spec, seed, faultload, path)?),
            None => None,
        };
        let start = process_cpu();
        mismatches += replay_pass(
            spec,
            seed,
            faultload,
            stack,
            &reference,
            journal.as_ref(),
            &log,
            &mut spans,
        )?;
        pass_cpu.push(process_cpu() - start);
        report.attempted += faultload.len();
    }
    let passes = pass_cpu.len();
    let reboots = simos::reboot_count() - reboots;
    if journal_path.is_none() {
        let journal = new_journal(spec, seed, faultload, &work.join("probe.jsonl"))?;
        for (slot, result) in untraced.result.slots.iter().enumerate() {
            record(&journal, slot, result.clone(), &mut spans)?;
        }
    }
    report.failed += mismatches.min(report.attempted);
    checker.ensure(mismatches == 0, || {
        format!("{mismatches} replayed slots differ from the campaign's")
    });
    eprintln!(
        "replay: {} of {} slots reproduced over {passes} passes",
        spans.slots - mismatches,
        spans.slots
    );
    let mut cpus: Vec<f64> = pass_cpu.iter().map(Duration::as_secs_f64).collect();
    report.set(
        "trace.overhead_pct",
        100.0 * (median(&mut cpus) / untraced.cpu.as_secs_f64() - 1.0),
    );

    // Instruction counts: one more replay with VM cost profiling on (it
    // slows the VM, so it runs last and is never timed).
    let counted = Rc::new(RefCell::new(ServeLog::default()));
    stack.os.enable_cost_profiling();
    let mismatched = replay_pass(
        spec,
        seed,
        faultload,
        stack,
        &reference,
        None,
        &counted,
        &mut SlotSpans::default(),
    )?;
    checker.ensure(mismatched == 0, || {
        format!("{mismatched} profiled replay slots differ")
    });

    let log = log.borrow();
    let counted = counted.borrow();
    let slots = spans.slots as f64;
    let requests = log.serve_us.len() as f64;
    let count_requests = counted.serve_us.len() as f64;
    report.set(
        "mvm.instr_per_request",
        counted.instructions as f64 / count_requests,
    );
    report.set(
        "mvm.serve_ns_per_instr",
        log.serve.as_secs_f64() * 1e9 / (counted.instructions as f64 * passes as f64),
    );
    report.set("simos.calls_per_request", log.calls as f64 / requests);
    report.set("simos.reset_us", median(&mut spans.reset_us));
    report.set("simos.reboots_per_slot", reboots as f64 / slots);
    let mut serve_us = log.serve_us.clone();
    report.set("webserver.serve_us_p50", percentile(&mut serve_us, 50.0));
    report.set("webserver.serve_us_p95", percentile(&mut serve_us, 95.0));
    report.set("webserver.requests_per_slot", requests / slots);
    report.set("webserver.starts_per_slot", log.starts as f64 / slots);
    report.set("depbench.warmup_ms", ms(spans.warmup) / slots);
    report.set("depbench.measure_ms", ms(spans.measure) / slots);
    let children = log.serve + log.start + log.failover;
    report.set(
        "depbench.interval_self_ms",
        ms((spans.warmup + spans.measure).saturating_sub(children)) / slots,
    );
    report.set("depbench.repairs_per_slot", spans.repairs as f64 / slots);
    report.set("core.inject_undo_us", us(spans.inject_undo) / slots);
    let records = spans.record_us.len();
    report.set(
        "faultstore.record_us_p50",
        percentile(&mut spans.record_us, 50.0),
    );
    report.set(
        "faultstore.record_us_p95",
        percentile(&mut spans.record_us, 95.0),
    );
    report.set(
        "faultstore.record_bytes",
        spans.record_bytes as f64 / records as f64,
    );

    let slot_ms = |d: Duration| ms(d) / slots;
    eprintln!(
        "self time per slot (ms): reset {:.3}, inject+undo {:.3}, serve {:.3}, start {:.3}, \
         failover {:.3}, interval self {:.3}, journal {:.3}",
        spans.reset_us.iter().sum::<f64>() / 1e3 / slots,
        slot_ms(spans.inject_undo),
        slot_ms(log.serve),
        slot_ms(log.start),
        slot_ms(log.failover),
        slot_ms((spans.warmup + spans.measure).saturating_sub(children)),
        spans.record_us.iter().sum::<f64>() / 1e3 / records as f64,
    );
    Ok(())
}

/// A fresh journal for `faultload` under the workload's campaign.
fn new_journal(
    spec: &Spec,
    seed: u64,
    faultload: &Faultload,
    path: &Path,
) -> Result<Journal, String> {
    let header = JournalHeader::describe(&spec.campaign(seed), faultload, 0);
    Journal::create(path, &header).map_err(|e| e.to_string())
}
