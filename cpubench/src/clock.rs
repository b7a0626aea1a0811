//! Host CPU clocks and the per-run noise diagnostics.
//!
//! Every timing the benchmark reports is host CPU time: whole phases read
//! `CLOCK_PROCESS_CPUTIME_ID`, single operations read
//! `CLOCK_THREAD_CPUTIME_ID`. Neither `std` nor a vendored crate exposes
//! these clocks, so they are bound directly; `std` already links libc.

use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("cpubench reads Linux CPU-time clocks and /proc; build it on 64-bit Linux");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, enforced above) for the whole call, and both clock
    // ids are the kernel's fixed CPU-time clock constants.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Times `f` on the calling thread's CPU clock.
pub fn thread_timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = thread_cpu();
    let out = f();
    (out, thread_cpu() - start)
}

/// Aggregate steal ticks of all CPUs (`/proc/stat`, eighth `cpu` field):
/// time the hypervisor ran something else while this guest wanted a CPU.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Nanoseconds the main thread has waited on a run queue
/// (`/proc/self/schedstat`, second field).
fn runqueue_wait_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    stat.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process in kB (`VmHWM`).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Host-noise readings taken at the start of a run, to be differenced at
/// the end. They explain a noisy verdict (the host or the program?) and are
/// never gated.
pub struct Noise {
    wall: Instant,
    cpu: Duration,
    steal: Option<u64>,
    runqueue: Option<u64>,
}

impl Noise {
    /// Starts the noise window.
    pub fn start() -> Noise {
        Noise {
            wall: Instant::now(),
            cpu: process_cpu(),
            steal: steal_ticks(),
            runqueue: runqueue_wait_ns(),
        }
    }

    /// One human-readable line for standard error.
    pub fn report(&self) -> String {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = (process_cpu() - self.cpu).as_secs_f64();
        let delta = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (Some(a), Some(b)) => b.saturating_sub(a).to_string(),
            _ => "n/a".to_string(),
        };
        format!(
            "noise: wall {wall:.3} s, wall - cpu {:.3} s, steal {} ticks, \
             main-thread run-queue wait {} ns",
            wall - cpu,
            delta(self.steal, steal_ticks()),
            delta(self.runqueue, runqueue_wait_ns()),
        )
    }
}
