//! The OS façade: boot, API dispatch, tracing and containment.
//!
//! One [`Os`] value is one booted OS instance: a compiled edition image, a
//! data memory holding the kernel structures, a VM, and the device store.
//! Benchmark targets call into it through [`Os::call`]; every call is
//! traced (function → count) for the profiling phase, and every abnormal
//! outcome is contained as an [`OsCallError`] instead of unwinding into the
//! caller — the benchmark target decides what a failed OS service does to
//! it, which is precisely the property the benchmark measures.

use std::collections::BTreeMap;
use std::fmt;

use minic::Program;
use mvm::{CallError, Memory, Trap, Vm, VmConfig};
use serde::{Deserialize, Serialize};
use simkit::SimTime;
use simtrace::{EventKind, Tracer};

use crate::api::OsApi;
use crate::device::DeviceStore;
use crate::source::{os_source, MEM_SIZE};

/// OS edition — the paper benchmarks Windows 2000 SP4 and Windows XP SP1;
/// these are their SimOS analogues.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Edition {
    /// Compact build (≈ Windows 2000 SP4).
    Nimbus2000,
    /// Larger, more defensive build (≈ Windows XP SP1).
    NimbusXp,
}

impl Edition {
    /// Both editions, campaign order.
    pub const ALL: [Edition; 2] = [Edition::Nimbus2000, Edition::NimbusXp];

    /// Short machine-friendly name (also the image name).
    pub fn name(self) -> &'static str {
        match self {
            Edition::Nimbus2000 => "nimbus-2000",
            Edition::NimbusXp => "nimbus-xp",
        }
    }

    /// The OS the edition stands in for.
    pub fn paper_analogue(self) -> &'static str {
        match self {
            Edition::Nimbus2000 => "Windows 2000 SP4",
            Edition::NimbusXp => "Windows XP SP1",
        }
    }
}

impl fmt::Display for Edition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Successful API call: the returned value plus its simulated cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallResult {
    /// The function's return value (statuses are negative, see OS source).
    pub value: i64,
    /// Simulated cost units (instructions executed + device transfer cost).
    pub cost: u64,
}

/// A contained abnormal outcome of an OS call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OsCallError {
    /// The OS code trapped (crash) or exhausted its budget (hang).
    Trap(Trap),
    /// Host-side failure (unknown symbol — indicates a build problem).
    Internal(String),
}

impl OsCallError {
    /// The trap, when the error is one.
    pub fn trap(&self) -> Option<Trap> {
        match self {
            OsCallError::Trap(t) => Some(*t),
            OsCallError::Internal(_) => None,
        }
    }

    /// True when the failure models a hang rather than a crash.
    pub fn is_hang(&self) -> bool {
        self.trap().is_some_and(Trap::is_hang)
    }
}

impl fmt::Display for OsCallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsCallError::Trap(t) => write!(f, "os call trapped: {t}"),
            OsCallError::Internal(m) => write!(f, "os internal error: {m}"),
        }
    }
}

impl std::error::Error for OsCallError {}

/// Number of `minic::compile` runs performed by [`Os`] boots in this
/// process — at most one per edition, thanks to the image cache.
static OS_COMPILES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Compiles an edition's OS source once per process and hands out the cached
/// [`Program`]. Booting an already-compiled edition clones the image instead
/// of re-running the compiler, which is what makes per-worker OS instances
/// in a parallel campaign affordable.
fn compiled_program(edition: Edition) -> Result<&'static Program, String> {
    use std::sync::OnceLock;
    static CACHE: [OnceLock<Result<Program, String>>; Edition::ALL.len()] =
        [OnceLock::new(), OnceLock::new()];
    let slot = match edition {
        Edition::Nimbus2000 => &CACHE[0],
        Edition::NimbusXp => &CACHE[1],
    };
    slot.get_or_init(|| {
        OS_COMPILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        minic::compile(edition.name(), &os_source(edition))
            .map_err(|e| format!("OS source does not compile: {e}"))
    })
    .as_ref()
    .map_err(String::clone)
}

/// How many times an [`Os`] boot has actually invoked the compiler in this
/// process. Bounded by the number of editions; lets tests verify that
/// repeated boots hit the image cache.
pub fn compile_count() -> u64 {
    OS_COMPILES.load(std::sync::atomic::Ordering::Relaxed)
}

/// Number of mid-run [`Os::reboot`]s performed in this process — lets tests
/// verify that a reboot-escalation recovery policy actually rebooted.
static OS_REBOOTS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many times [`Os::reboot`] has run in this process.
pub fn reboot_count() -> u64 {
    OS_REBOOTS.load(std::sync::atomic::Ordering::Relaxed)
}

/// The code-image fingerprint of an edition's pristine build — the key the
/// persistent fault-map cache and the campaign journal use to recognize "the
/// same OS build" across processes. Served from the per-edition compiled
/// image cache, so calling this is much cheaper than a full boot (no kernel
/// structure initialization runs).
///
/// # Errors
///
/// Returns a description when the edition's OS source does not compile
/// (which would be a bug, covered by tests).
pub fn image_fingerprint(edition: Edition) -> Result<u64, String> {
    Ok(compiled_program(edition)?.image().fingerprint())
}

/// A booted SimOS instance.
#[derive(Debug)]
pub struct Os {
    edition: Edition,
    program: Program,
    mem: Memory,
    vm: Vm,
    devices: DeviceStore,
    /// Pre-resolved code entry of each API function (`u32::MAX` when the
    /// symbol is not linked in this edition), indexed by `OsApi as usize`.
    /// Entries never move — injected patches replace words in place — so
    /// resolving once at boot removes the per-call symbol lookup from the
    /// serve hot path.
    api_entries: [u32; OsApi::ALL.len()],
    /// Per-API call tally, indexed by `OsApi as usize` (dense array rather
    /// than a map: this is bumped on every OS call).
    api_counts: [u64; OsApi::ALL.len()],
    calls_total: u64,
    tracer: Tracer,
    /// Reboots of *this* instance (the global [`reboot_count`] spans all
    /// instances and threads, so it cannot appear in deterministic traces).
    reboots: u64,
    /// Watchpoint hits already attributed to an earlier API call.
    watch_seen: u64,
    /// Virtual time the mutation site first executed, if it has.
    watch_first: Option<SimTime>,
}

/// A copy-on-write checkpoint of booted OS state, taken with
/// [`Os::snapshot`] and reinstated with [`Os::restore_snapshot`].
///
/// Holds the machine memory and the device store (whose file contents are
/// `Arc`-shared, so the clone here is cheap and stays cheap to restore).
/// The code image is deliberately *not* captured: the injector owns image
/// state via its `PatchSet` undo log, and a snapshot restore must not be
/// able to paper over a leaked patch — instead the image's code words are
/// recorded and compared at restore time.
#[derive(Clone, Debug)]
pub struct OsSnapshot {
    mem: Memory,
    devices: DeviceStore,
    image_words: Vec<u64>,
}

impl Os {
    /// Compiles the edition's source, boots kernel structures and returns a
    /// ready OS.
    ///
    /// # Errors
    ///
    /// Returns a compile/boot description on failure (which would be a bug
    /// in the embedded OS source, covered by tests).
    pub fn boot(edition: Edition) -> Result<Os, String> {
        Self::boot_with_budget(edition, VmConfig::default().budget)
    }

    /// [`Os::boot`] with an explicit per-call instruction budget (smaller
    /// budgets make hang detection faster in tests).
    ///
    /// # Errors
    ///
    /// See [`Os::boot`].
    pub fn boot_with_budget(edition: Edition, budget: u64) -> Result<Os, String> {
        let program = compiled_program(edition)?.clone();
        let mut api_entries = [u32::MAX; OsApi::ALL.len()];
        for api in OsApi::ALL {
            if let Some(f) = program.image().func(api.symbol()) {
                api_entries[api as usize] = f.entry;
            }
        }
        let mut os = Os {
            edition,
            program,
            mem: Memory::new(MEM_SIZE),
            vm: Vm::with_config(VmConfig {
                budget,
                ..VmConfig::default()
            }),
            devices: DeviceStore::new(),
            api_entries,
            api_counts: [0; OsApi::ALL.len()],
            calls_total: 0,
            tracer: Tracer::disabled(),
            reboots: 0,
            watch_seen: 0,
            watch_first: None,
        };
        os.reset_state()?;
        Ok(os)
    }

    /// Re-initializes kernel structures (fresh heap, tables, globals)
    /// without touching the code image — so an injected fault stays in
    /// place, but state corruption from previous activations is cleared.
    /// Models the rest interval between benchmark slots.
    ///
    /// # Errors
    ///
    /// Propagates a trap during boot as text (possible when a fault is
    /// injected into code the boot path shares).
    pub fn reset_state(&mut self) -> Result<(), String> {
        self.mem.clear();
        for &(addr, value) in self.program.global_inits() {
            self.mem
                .write(addr, value)
                .map_err(|e| format!("global init: {e}"))?;
        }
        self.vm
            .call(
                self.program.image(),
                &mut self.mem,
                &mut self.devices,
                "os_boot",
                &[],
            )
            .map_err(|e| format!("os_boot failed: {e}"))?;
        Ok(())
    }

    /// Reboots the machine mid-run: kernel structures are re-initialized
    /// exactly as in [`Os::reset_state`] (the code image — including any
    /// injected fault — and the device store survive, like disks across a
    /// real reboot), and the reboot is counted for [`reboot_count`]. This is
    /// the watchdog's escalation step when plain process restarts keep
    /// failing on poisoned kernel state.
    ///
    /// # Errors
    ///
    /// Propagates a trap during the boot path as text (possible when the
    /// injected fault sits in code the boot path shares).
    pub fn reboot(&mut self) -> Result<(), String> {
        OS_REBOOTS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.reboots += 1;
        if self.tracer.is_enabled() {
            self.tracer.emit(EventKind::Reboot {
                count: self.reboots,
            });
        }
        self.reset_state()
    }

    /// The booted edition.
    pub fn edition(&self) -> Edition {
        self.edition
    }

    /// The compiled OS program (image + ground-truth metadata).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Mutable image access — the injector's patch point.
    pub fn image_mut(&mut self) -> &mut mvm::CodeImage {
        self.program.image_mut()
    }

    /// The device store (to populate files).
    pub fn devices(&self) -> &DeviceStore {
        &self.devices
    }

    /// Mutable device store access.
    pub fn devices_mut(&mut self) -> &mut DeviceStore {
        &mut self.devices
    }

    /// Checkpoints the current machine state (memory + devices) for later
    /// [`Os::restore_snapshot`]. Device file contents are shared, not
    /// copied, so this is cheap even with a large populated file set.
    pub fn snapshot(&self) -> OsSnapshot {
        OsSnapshot {
            mem: self.mem.clone(),
            devices: self.devices.clone(),
            image_words: self.program.image().words().to_vec(),
        }
    }

    /// Reinstates a checkpoint taken by [`Os::snapshot`]: memory is copied
    /// back in one block and the device store rolls back to the
    /// checkpointed file set. This replaces the re-boot between campaign
    /// slots — restoring is equivalent to the deterministic boot + populate
    /// + start sequence the snapshot captured, at memcpy cost.
    ///
    /// Accumulated observability state (API counts, `Vm::total_executed`,
    /// reboot counters, tracer) is intentionally left alone, matching the
    /// previous re-boot flow where those also accumulated across slots.
    ///
    /// # Panics
    ///
    /// Panics if the code image's words differ from the snapshot's — that
    /// means an injected fault was not reverted, and silently continuing
    /// would corrupt every later slot. The check is an exact slice compare
    /// (a memcmp), not a hash, so it is both cheaper and collision-free.
    pub fn restore_snapshot(&mut self, snap: &OsSnapshot) {
        assert!(
            self.program.image().words() == snap.image_words.as_slice(),
            "restore_snapshot on a patched image: revert injected faults before slot reset"
        );
        self.mem.copy_from(&snap.mem);
        self.devices = snap.devices.clone();
    }

    /// Calls an OS API function.
    ///
    /// # Errors
    ///
    /// [`OsCallError::Trap`] when the (possibly mutated) OS code crashes or
    /// hangs; [`OsCallError::Internal`] when the symbol is missing.
    ///
    /// # Panics
    ///
    /// Panics when `args.len()` does not match the function arity — that is
    /// a caller bug, not a benchmark observation.
    pub fn call(&mut self, api: OsApi, args: &[i64]) -> Result<CallResult, OsCallError> {
        assert_eq!(
            args.len(),
            api.arity(),
            "{api} takes {} argument(s)",
            api.arity()
        );
        self.api_counts[api as usize] += 1;
        self.calls_total += 1;
        if self.tracer.is_enabled() {
            self.tracer.emit(EventKind::ApiEnter { api: api.symbol() });
        }
        let entry = self.api_entries[api as usize];
        let call_result = if entry == u32::MAX {
            Err(CallError::UnknownFunction(api.symbol().to_string()))
        } else {
            self.vm.call_entry(
                self.program.image(),
                &mut self.mem,
                &mut self.devices,
                entry,
                args,
            )
        };
        let result = match call_result {
            Ok(out) => {
                let device_cost = self.devices.take_cost();
                if device_cost > 0 && self.tracer.is_enabled() {
                    self.tracer.emit(EventKind::DeviceIo { cost: device_cost });
                }
                Ok(CallResult {
                    value: out.return_value,
                    cost: out.executed + device_cost,
                })
            }
            Err(CallError::Trap(t)) => {
                self.devices.take_cost();
                Err(OsCallError::Trap(t))
            }
            Err(CallError::UnknownFunction(n)) => {
                Err(OsCallError::Internal(format!("symbol `{n}` not linked")))
            }
        };
        self.observe_watch();
        if self.tracer.is_enabled() {
            let (ok, cost) = match &result {
                Ok(r) => (true, r.cost),
                Err(_) => (false, 0),
            };
            self.tracer.emit(EventKind::ApiExit {
                api: api.symbol(),
                ok,
                cost,
            });
        }
        result
    }

    /// Attributes new mutation-site executions to the call that just
    /// finished: stamps the first activation time and emits a `Watchpoint`
    /// event with the hit delta. Watchpoint hits accrued outside [`Os::call`]
    /// (e.g. during a reboot's boot path) surface at the next API call.
    fn observe_watch(&mut self) {
        if let Some(w) = self.vm.watchpoint() {
            if w.hits > self.watch_seen {
                let delta = w.hits - self.watch_seen;
                self.watch_seen = w.hits;
                if self.watch_first.is_none() {
                    self.watch_first = Some(self.tracer.now());
                }
                if self.tracer.is_enabled() {
                    self.tracer.emit(EventKind::Watchpoint {
                        pc: w.pc,
                        hits: delta,
                    });
                }
            }
        }
    }

    /// Installs the flight recorder this OS (and everything running on it)
    /// emits into. The default is [`Tracer::disabled`], which records
    /// nothing and costs one branch per would-be event.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed flight recorder (shared handle; cloning it is cheap).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Arms an execution watchpoint on `pc` — a fault's key instruction —
    /// resetting any previous activation observation. Hit deltas are
    /// observed at API-call granularity (see [`Os::activation`]).
    pub fn arm_activation_watch(&mut self, pc: u32) {
        self.vm.set_watchpoint(pc);
        self.watch_seen = 0;
        self.watch_first = None;
    }

    /// Disarms the activation watchpoint.
    pub fn clear_activation_watch(&mut self) {
        self.vm.clear_watchpoint();
        self.watch_seen = 0;
        self.watch_first = None;
    }

    /// The armed watchpoint's observation so far: total executions of the
    /// watched address and the virtual time of the first one (`None` until
    /// it executes). Returns `None` when no watchpoint is armed.
    pub fn activation(&self) -> Option<(u64, Option<SimTime>)> {
        self.vm.watchpoint().map(|w| (w.hits, self.watch_first))
    }

    /// Host-side write of a NUL-terminated string into OS memory (models a
    /// user-space buffer the caller owns).
    ///
    /// # Errors
    ///
    /// Returns a description when the buffer does not fit.
    pub fn poke_cstr(&mut self, addr: i64, s: &str) -> Result<(), String> {
        self.mem.write_cstr(addr, s).map_err(|e| e.to_string())
    }

    /// Host-side read of a NUL-terminated string from OS memory.
    ///
    /// # Errors
    ///
    /// Returns a description on out-of-bounds reads.
    pub fn peek_cstr(&self, addr: i64, max_len: usize) -> Result<String, String> {
        self.mem.read_cstr(addr, max_len).map_err(|e| e.to_string())
    }

    /// Host-side single-cell read.
    ///
    /// # Errors
    ///
    /// Returns a description on out-of-bounds access.
    pub fn peek(&self, addr: i64) -> Result<i64, String> {
        self.mem.read(addr).map_err(|e| e.to_string())
    }

    /// Host-side block read.
    ///
    /// # Errors
    ///
    /// Returns a description on out-of-bounds access.
    pub fn peek_block(&self, addr: i64, len: usize) -> Result<Vec<i64>, String> {
        self.mem.read_block(addr, len).map_err(|e| e.to_string())
    }

    /// Borrowed host-side block read — [`Os::peek_block`] without the copy,
    /// for hot consumers (the servers checksum every served chunk).
    ///
    /// # Errors
    ///
    /// Returns a description on out-of-bounds access.
    pub fn peek_cells(&self, addr: i64, len: usize) -> Result<&[i64], String> {
        self.mem.read_slice(addr, len).map_err(|e| e.to_string())
    }

    /// Host-side single-cell write.
    ///
    /// # Errors
    ///
    /// Returns a description on out-of-bounds access.
    pub fn poke(&mut self, addr: i64, value: i64) -> Result<(), String> {
        self.mem.write(addr, value).map_err(|e| e.to_string())
    }

    /// Enables per-address VM execution counting (offline cost studies).
    pub fn enable_cost_profiling(&mut self) {
        let len = self.program.image().len();
        self.vm.enable_profiling(len);
    }

    /// Instructions executed per linked function since
    /// [`Os::enable_cost_profiling`], sorted by function name. Empty when
    /// profiling is disabled.
    pub fn function_costs(&self) -> Vec<(String, u64)> {
        let Some(counts) = self.vm.profile() else {
            return Vec::new();
        };
        let mut out: Vec<(String, u64)> = self
            .program
            .image()
            .funcs()
            .iter()
            .map(|f| {
                let total: u64 = (f.entry..f.end)
                    .map(|a| counts.get(a as usize).copied().unwrap_or(0))
                    .sum();
                (f.name.clone(), total)
            })
            .collect();
        out.sort();
        out
    }

    /// Per-function call counts since the last [`Os::clear_api_counts`] —
    /// the raw material of the profiling phase. Functions that were never
    /// called have no entry (exactly as when this was the map's storage;
    /// internally the tally is a dense array bumped per call).
    pub fn api_counts(&self) -> BTreeMap<OsApi, u64> {
        OsApi::ALL
            .iter()
            .filter_map(|&api| {
                let n = self.api_counts[api as usize];
                (n > 0).then_some((api, n))
            })
            .collect()
    }

    /// Total API calls observed.
    pub fn calls_total(&self) -> u64 {
        self.calls_total
    }

    /// Resets the API trace.
    pub fn clear_api_counts(&mut self) {
        self.api_counts = [0; OsApi::ALL.len()];
        self.calls_total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_boots_reuse_the_compiled_image() {
        // Warm the cache for both editions, then boot repeatedly: the
        // process-wide compile count must never exceed one per edition, no
        // matter how many boots happen (or which test booted first).
        for edition in Edition::ALL {
            Os::boot(edition).expect("boots");
        }
        let after_warm = compile_count();
        for _ in 0..4 {
            for edition in Edition::ALL {
                Os::boot(edition).expect("boots");
            }
        }
        assert_eq!(compile_count(), after_warm, "a cached boot recompiled");
        assert!(after_warm as usize <= Edition::ALL.len());
    }

    #[test]
    fn image_fingerprint_matches_booted_image_without_booting() {
        for edition in Edition::ALL {
            let fp = image_fingerprint(edition).expect("compiles");
            let os = Os::boot(edition).expect("boots");
            assert_eq!(fp, os.program().image().fingerprint());
        }
        assert_ne!(
            image_fingerprint(Edition::Nimbus2000).unwrap(),
            image_fingerprint(Edition::NimbusXp).unwrap(),
            "editions are different builds"
        );
    }

    #[test]
    fn cached_boots_are_identical_to_each_other() {
        let a = Os::boot(Edition::Nimbus2000).expect("boots");
        let b = Os::boot(Edition::Nimbus2000).expect("boots");
        assert_eq!(a.program().image().words(), b.program().image().words());
    }

    fn booted() -> Os {
        let mut os = Os::boot(Edition::Nimbus2000).expect("boots");
        os.devices_mut()
            .add_file("/web/index.html", b"<html>hi</html>");
        os
    }

    /// Scratch area for test buffers, well away from kernel structures.
    const SCRATCH: i64 = 210_000;

    #[test]
    fn boot_both_editions() {
        for ed in Edition::ALL {
            let os = Os::boot(ed).expect("boots");
            assert_eq!(os.edition(), ed);
        }
    }

    #[test]
    fn snapshot_restore_rolls_back_memory_and_devices() {
        let mut os = booted();
        os.poke(SCRATCH, 7).unwrap();
        let snap = os.snapshot();

        // Diverge: scribble on memory, overwrite a file, create a file.
        os.poke(SCRATCH, -1).unwrap();
        os.poke(SCRATCH + 1, 99).unwrap();
        os.devices_mut().add_file("/web/index.html", b"changed");
        os.devices_mut().add_file("/web/new.html", b"x");

        os.restore_snapshot(&snap);
        assert_eq!(os.peek(SCRATCH).unwrap(), 7);
        assert_eq!(os.peek(SCRATCH + 1).unwrap(), 0);
        assert_eq!(
            os.devices().file("/web/index.html").map(<[i64]>::len),
            Some(b"<html>hi</html>".len())
        );
        assert!(os.devices().file("/web/new.html").is_none());
    }

    #[test]
    fn snapshot_restore_is_repeatable() {
        let mut os = booted();
        let snap = os.snapshot();
        for round in 0..3 {
            os.poke(SCRATCH, round).unwrap();
            os.devices_mut().add_file("/web/index.html", b"dirty");
            os.restore_snapshot(&snap);
            assert_eq!(os.peek(SCRATCH).unwrap(), 0, "round {round}");
            assert_eq!(
                os.devices().file_size("/web/index.html"),
                Some(b"<html>hi</html>".len()),
                "round {round}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "revert injected faults")]
    fn restore_snapshot_refuses_a_patched_image() {
        let mut os = booted();
        let snap = os.snapshot();
        let word = os.program().image().words()[0];
        os.image_mut()
            .apply(&[mvm::Patch {
                addr: 0,
                new_word: word ^ 1,
            }])
            .unwrap();
        os.restore_snapshot(&snap);
    }

    #[test]
    fn heap_alloc_and_free_roundtrip() {
        let mut os = booted();
        let p1 = os.call(OsApi::RtlAllocateHeap, &[100]).unwrap().value;
        let p2 = os.call(OsApi::RtlAllocateHeap, &[100]).unwrap().value;
        assert!(p1 > 0 && p2 > 0 && p1 != p2);
        // Blocks do not overlap.
        assert!((p1 - p2).abs() >= 100);
        assert_eq!(os.call(OsApi::RtlFreeHeap, &[p1]).unwrap().value, 0);
        assert_eq!(os.call(OsApi::RtlFreeHeap, &[p2]).unwrap().value, 0);
        // Double free is rejected (status, not crash).
        assert!(os.call(OsApi::RtlFreeHeap, &[p2]).unwrap().value < 0);
        // Bogus pointer rejected.
        assert!(os.call(OsApi::RtlFreeHeap, &[12345]).unwrap().value < 0);
        assert!(os.call(OsApi::RtlFreeHeap, &[0]).unwrap().value < 0);
    }

    #[test]
    fn heap_exhaustion_returns_null() {
        let mut os = booted();
        // Ask for more than the heap region holds.
        let p = os.call(OsApi::RtlAllocateHeap, &[1_000_000]).unwrap().value;
        assert_eq!(p, 0);
        assert_eq!(os.call(OsApi::RtlAllocateHeap, &[0]).unwrap().value, 0);
        assert_eq!(os.call(OsApi::RtlAllocateHeap, &[-5]).unwrap().value, 0);
    }

    #[test]
    fn path_conversion() {
        let mut os = booted();
        os.poke_cstr(SCRATCH, "C:\\web\\index.html").unwrap();
        let rc = os
            .call(OsApi::RtlDosPathToNative, &[SCRATCH, SCRATCH + 300])
            .unwrap()
            .value;
        assert_eq!(rc, 0);
        assert_eq!(os.peek_cstr(SCRATCH + 300, 256).unwrap(), "/web/index.html");
        // Forward slashes pass through.
        os.poke_cstr(SCRATCH, "C:/web/a.html").unwrap();
        os.call(OsApi::RtlDosPathToNative, &[SCRATCH, SCRATCH + 300])
            .unwrap();
        assert_eq!(os.peek_cstr(SCRATCH + 300, 256).unwrap(), "/web/a.html");
        // Invalid inputs are statuses, not crashes.
        assert!(
            os.call(OsApi::RtlDosPathToNative, &[0, SCRATCH + 300])
                .unwrap()
                .value
                < 0
        );
    }

    #[test]
    fn xp_collapses_duplicate_separators() {
        let mut os = Os::boot(Edition::NimbusXp).unwrap();
        os.poke_cstr(SCRATCH, "C://web//a.html").unwrap();
        os.call(OsApi::RtlDosPathToNative, &[SCRATCH, SCRATCH + 300])
            .unwrap();
        assert_eq!(os.peek_cstr(SCRATCH + 300, 256).unwrap(), "/web/a.html");
    }

    #[test]
    fn file_open_read_close() {
        let mut os = booted();
        os.poke_cstr(SCRATCH, "/web/index.html").unwrap();
        let h = os.call(OsApi::NtOpenFile, &[SCRATCH]).unwrap().value;
        assert!(h > 0);
        let buf = SCRATCH + 400;
        let n = os.call(OsApi::ReadFile, &[h, buf, 6]).unwrap().value;
        assert_eq!(n, 6);
        assert_eq!(os.peek_cstr(buf, 6).unwrap(), "<html>");
        // Sequential read continues at the file position.
        let n = os.call(OsApi::ReadFile, &[h, buf, 100]).unwrap().value;
        assert_eq!(n, 9); // "hi</html>"
        assert_eq!(os.call(OsApi::CloseHandle, &[h]).unwrap().value, 0);
        // Using the closed handle fails cleanly.
        assert!(os.call(OsApi::ReadFile, &[h, buf, 4]).unwrap().value < 0);
        assert!(os.call(OsApi::CloseHandle, &[h]).unwrap().value < 0);
    }

    #[test]
    fn set_file_pointer_seeks() {
        let mut os = booted();
        os.poke_cstr(SCRATCH, "/web/index.html").unwrap();
        let h = os.call(OsApi::NtOpenFile, &[SCRATCH]).unwrap().value;
        let old = os.call(OsApi::SetFilePointer, &[h, 6]).unwrap().value;
        assert_eq!(old, 0);
        let buf = SCRATCH + 400;
        os.call(OsApi::ReadFile, &[h, buf, 2]).unwrap();
        assert_eq!(os.peek_cstr(buf, 2).unwrap(), "hi");
    }

    #[test]
    fn create_and_write_file() {
        let mut os = booted();
        os.poke_cstr(SCRATCH, "/web/post.dat").unwrap();
        let h = os.call(OsApi::NtCreateFile, &[SCRATCH]).unwrap().value;
        assert!(h > 0);
        os.poke_cstr(SCRATCH + 400, "data").unwrap();
        let n = os
            .call(OsApi::WriteFile, &[h, SCRATCH + 400, 4])
            .unwrap()
            .value;
        assert_eq!(n, 4);
        os.call(OsApi::CloseHandle, &[h]).unwrap();
        assert_eq!(os.devices().file_size("/web/post.dat"), Some(4));
    }

    #[test]
    fn missing_file_is_a_status() {
        let mut os = booted();
        os.poke_cstr(SCRATCH, "/nope.html").unwrap();
        let h = os.call(OsApi::NtOpenFile, &[SCRATCH]).unwrap().value;
        assert!(h < 0);
    }

    #[test]
    fn critical_sections_nest() {
        let mut os = booted();
        let cs = crate::source::CS_REGION;
        assert_eq!(
            os.call(OsApi::RtlEnterCriticalSection, &[cs])
                .unwrap()
                .value,
            0
        );
        assert_eq!(
            os.call(OsApi::RtlEnterCriticalSection, &[cs])
                .unwrap()
                .value,
            0
        );
        assert_eq!(os.peek(cs).unwrap(), 2);
        os.call(OsApi::RtlLeaveCriticalSection, &[cs]).unwrap();
        os.call(OsApi::RtlLeaveCriticalSection, &[cs]).unwrap();
        assert_eq!(os.peek(cs).unwrap(), 0);
        // Leaving an unowned section is a status error.
        assert!(
            os.call(OsApi::RtlLeaveCriticalSection, &[cs])
                .unwrap()
                .value
                < 0
        );
    }

    #[test]
    fn corrupted_lock_hangs_and_is_contained() {
        let mut os = Os::boot_with_budget(Edition::Nimbus2000, 50_000).unwrap();
        let cs = crate::source::CS_REGION;
        // Corrupt the lock: count 1, owner someone else.
        os.poke(cs, 1).unwrap();
        os.poke(cs + 1, 77).unwrap();
        let err = os.call(OsApi::RtlEnterCriticalSection, &[cs]).unwrap_err();
        assert!(err.is_hang());
    }

    #[test]
    fn strings_and_unicode() {
        let mut os = booted();
        os.poke_cstr(SCRATCH, "hello").unwrap();
        let s = SCRATCH + 300;
        os.call(OsApi::RtlInitAnsiString, &[s, SCRATCH]).unwrap();
        assert_eq!(os.peek(s).unwrap(), 5);
        assert_eq!(os.peek(s + 2).unwrap(), SCRATCH);
        os.call(OsApi::RtlInitUnicodeString, &[s, SCRATCH]).unwrap();
        assert_eq!(os.peek(s).unwrap(), 10);
        let dst = SCRATCH + 500;
        let n = os
            .call(OsApi::RtlUnicodeToMultibyte, &[dst, SCRATCH, 100])
            .unwrap()
            .value;
        assert_eq!(n, 5);
        assert_eq!(os.peek_cstr(dst, 100).unwrap(), "hello");
    }

    #[test]
    fn free_unicode_string_releases_heap_buffer() {
        let mut os = booted();
        let buf = os.call(OsApi::RtlAllocateHeap, &[32]).unwrap().value;
        os.poke_cstr(buf, "abc").unwrap();
        let s = SCRATCH;
        os.call(OsApi::RtlInitUnicodeString, &[s, buf]).unwrap();
        assert_eq!(os.call(OsApi::RtlFreeUnicodeString, &[s]).unwrap().value, 0);
        assert_eq!(os.peek(s + 2).unwrap(), 0);
        // The buffer went back to the heap: the next alloc can reuse it.
        let again = os.call(OsApi::RtlAllocateHeap, &[32]).unwrap().value;
        assert!(again > 0);
    }

    #[test]
    fn virtual_memory_protection_table() {
        let mut os = booted();
        let old = os
            .call(OsApi::NtProtectVirtualMemory, &[70_000, 128, 4])
            .unwrap()
            .value;
        assert_eq!(old, 0);
        assert_eq!(
            os.call(OsApi::NtQueryVirtualMemory, &[70_000])
                .unwrap()
                .value,
            4
        );
        let old = os
            .call(OsApi::NtProtectVirtualMemory, &[70_000, 128, 2])
            .unwrap()
            .value;
        assert_eq!(old, 4);
        assert_eq!(
            os.call(OsApi::NtQueryVirtualMemory, &[99_999])
                .unwrap()
                .value,
            0
        );
    }

    #[test]
    fn api_trace_counts_calls() {
        let mut os = booted();
        os.call(OsApi::RtlAllocateHeap, &[8]).unwrap();
        os.call(OsApi::RtlAllocateHeap, &[8]).unwrap();
        os.call(OsApi::NtQueryVirtualMemory, &[0]).unwrap();
        assert_eq!(os.api_counts()[&OsApi::RtlAllocateHeap], 2);
        assert_eq!(os.calls_total(), 3);
        os.clear_api_counts();
        assert!(os.api_counts().is_empty());
        assert_eq!(os.calls_total(), 0);
    }

    #[test]
    fn reset_state_clears_corruption_keeps_files() {
        let mut os = booted();
        let p = os.call(OsApi::RtlAllocateHeap, &[64]).unwrap().value;
        assert!(p > 0);
        os.reset_state().unwrap();
        assert_eq!(os.devices().file_count(), 1);
        // Heap is fresh again.
        let p2 = os.call(OsApi::RtlAllocateHeap, &[64]).unwrap().value;
        assert_eq!(p, p2);
    }

    #[test]
    fn call_cost_scales_with_io_volume() {
        let mut os = booted();
        os.devices_mut().add_file("/big", &vec![7u8; 4000]);
        os.poke_cstr(SCRATCH, "/big").unwrap();
        let h = os.call(OsApi::NtOpenFile, &[SCRATCH]).unwrap().value;
        let small = os
            .call(OsApi::ReadFile, &[h, SCRATCH + 400, 10])
            .unwrap()
            .cost;
        let large = os
            .call(OsApi::ReadFile, &[h, SCRATCH + 400, 3000])
            .unwrap()
            .cost;
        assert!(large > small + 2000, "large {large} vs small {small}");
    }

    #[test]
    fn cost_profiling_attributes_instructions_to_functions() {
        let mut os = booted();
        os.enable_cost_profiling();
        os.call(OsApi::RtlAllocateHeap, &[32]).unwrap();
        let costs = os.function_costs();
        let alloc = costs
            .iter()
            .find(|(n, _)| n == "rtl_allocate_heap")
            .unwrap();
        assert!(alloc.1 > 10, "alloc cost {}", alloc.1);
        let never = costs.iter().find(|(n, _)| n == "nt_write_file").unwrap();
        assert_eq!(never.1, 0);
        // Total attribution is consistent with the call outcome.
        let total: u64 = costs.iter().map(|(_, c)| c).sum();
        assert!(total >= alloc.1);
    }

    #[test]
    fn registry_set_query_delete_enumerate() {
        let mut os = booted();
        os.poke_cstr(SCRATCH, "config/port").unwrap();
        assert_eq!(
            os.call(OsApi::NtSetValueKey, &[SCRATCH, 8080])
                .unwrap()
                .value,
            0
        );
        assert_eq!(
            os.call(OsApi::NtQueryValueKey, &[SCRATCH]).unwrap().value,
            8080
        );
        // Overwrite in place.
        os.call(OsApi::NtSetValueKey, &[SCRATCH, 9090]).unwrap();
        assert_eq!(
            os.call(OsApi::NtQueryValueKey, &[SCRATCH]).unwrap().value,
            9090
        );
        // Enumerate sees it.
        assert_eq!(
            os.call(OsApi::NtEnumerateValueKey, &[0]).unwrap().value,
            9090
        );
        // Delete, then the key misses.
        assert_eq!(
            os.call(OsApi::NtDeleteValueKey, &[SCRATCH]).unwrap().value,
            0
        );
        assert!(os.call(OsApi::NtQueryValueKey, &[SCRATCH]).unwrap().value < 0);
        assert!(os.call(OsApi::NtDeleteValueKey, &[SCRATCH]).unwrap().value < 0);
        // Invalid args are statuses.
        assert!(os.call(OsApi::NtQueryValueKey, &[0]).unwrap().value < 0);
        assert!(os.call(OsApi::NtEnumerateValueKey, &[-1]).unwrap().value < 0);
    }

    #[test]
    fn registry_distinct_keys_coexist() {
        let mut os = booted();
        for i in 0..10 {
            os.poke_cstr(SCRATCH, &format!("config/key{i}")).unwrap();
            os.call(OsApi::NtSetValueKey, &[SCRATCH, 100 + i]).unwrap();
        }
        for i in 0..10 {
            os.poke_cstr(SCRATCH, &format!("config/key{i}")).unwrap();
            assert_eq!(
                os.call(OsApi::NtQueryValueKey, &[SCRATCH]).unwrap().value,
                100 + i
            );
        }
    }

    #[test]
    fn registry_survives_until_reset() {
        let mut os = booted();
        os.poke_cstr(SCRATCH, "config/x").unwrap();
        os.call(OsApi::NtSetValueKey, &[SCRATCH, 7]).unwrap();
        os.reset_state().unwrap();
        os.poke_cstr(SCRATCH, "config/x").unwrap();
        assert!(os.call(OsApi::NtQueryValueKey, &[SCRATCH]).unwrap().value < 0);
    }

    #[test]
    #[should_panic(expected = "takes 1 argument")]
    fn arity_is_enforced() {
        let mut os = booted();
        let _ = os.call(OsApi::NtClose, &[1, 2]);
    }

    #[test]
    fn traced_calls_emit_paired_enter_exit_events() {
        let mut os = booted();
        os.set_tracer(Tracer::enabled(64));
        os.tracer().set_now(SimTime::from_micros(500));
        os.call(OsApi::RtlAllocateHeap, &[100]).unwrap();
        let trace = os.tracer().snapshot();
        assert_eq!(trace.len(), 2, "enter + exit:\n{}", trace.to_jsonl());
        match (&trace.events[0].kind, &trace.events[1].kind) {
            (
                EventKind::ApiEnter { api: a },
                EventKind::ApiExit {
                    api: b,
                    ok: true,
                    cost,
                },
            ) => {
                assert_eq!(*a, "rtl_allocate_heap");
                assert_eq!(*b, "rtl_allocate_heap");
                assert!(*cost > 0);
            }
            other => panic!("unexpected events: {other:?}"),
        }
        assert_eq!(trace.events[0].at, SimTime::from_micros(500));
    }

    #[test]
    fn untraced_calls_record_nothing() {
        let mut os = booted();
        os.call(OsApi::RtlAllocateHeap, &[100]).unwrap();
        assert!(!os.tracer().is_enabled());
        assert!(os.tracer().snapshot().is_empty());
    }

    #[test]
    fn activation_watch_observes_the_first_execution_time() {
        let mut os = booted();
        os.set_tracer(Tracer::enabled(64));
        let entry = os
            .program()
            .image()
            .func("rtl_allocate_heap")
            .expect("linked")
            .entry;
        os.arm_activation_watch(entry);
        assert_eq!(os.activation(), Some((0, None)));

        // An unrelated call does not activate the site.
        os.call(OsApi::NtClose, &[1]).unwrap();
        assert_eq!(os.activation(), Some((0, None)));

        os.tracer().set_now(SimTime::from_micros(1234));
        os.call(OsApi::RtlAllocateHeap, &[100]).unwrap();
        let (hits, first) = os.activation().expect("armed");
        assert!(hits > 0);
        assert_eq!(first, Some(SimTime::from_micros(1234)));

        // Later executions do not move the first-hit stamp, but do emit
        // further Watchpoint events with the new delta.
        os.tracer().set_now(SimTime::from_micros(9999));
        os.call(OsApi::RtlAllocateHeap, &[100]).unwrap();
        let (hits2, first2) = os.activation().expect("armed");
        assert!(hits2 > hits);
        assert_eq!(first2, Some(SimTime::from_micros(1234)));
        let trace = os.tracer().snapshot();
        let watchpoints = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Watchpoint { .. }))
            .count();
        assert_eq!(watchpoints, 2);

        os.clear_activation_watch();
        assert_eq!(os.activation(), None);
    }

    #[test]
    fn reboot_event_counts_per_instance() {
        let mut os = booted();
        os.set_tracer(Tracer::enabled(64));
        os.reboot().unwrap();
        os.reboot().unwrap();
        let counts: Vec<u64> = os
            .tracer()
            .snapshot()
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Reboot { count } => Some(count),
                _ => None,
            })
            .collect();
        assert_eq!(counts, vec![1, 2]);
    }
}
