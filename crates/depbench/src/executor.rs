//! The parallel campaign engine: shards independent fault slots across
//! worker threads without changing any result bit.
//!
//! The paper's campaign (§3, Fig. 4) is a series of *independent* slots —
//! each one boots from pristine OS state, injects one fault, exercises the
//! server, and restores. Independence is what makes the campaign
//! parallelizable; two properties make the parallel run **bit-identical**
//! to the sequential one:
//!
//! 1. **Splittable seeding** — every slot derives its RNG from
//!    `(campaign seed, iteration, slot index)` via [`simkit::SimRng::derive`]
//!    instead of threading one mutable generator through the slot loop, so a
//!    slot's random stream does not depend on which slots ran before it or
//!    on which worker picked it up.
//! 2. **Order-independent merging** — workers deposit results into a
//!    reorder buffer keyed by slot index; the caller folds aggregates in
//!    slot order, so floating-point accumulation order is fixed.
//!
//! Scheduling is a work-stealing counter: workers race on a shared atomic
//! slot cursor and each takes the next unclaimed slot, so a slot whose fault
//! hangs the server (long watchdog waits) doesn't stall a statically
//! assigned shard. Each worker owns a full stack instance — booted OS,
//! server process, request generator — built once per worker; OS boots are
//! cheap because `simos` caches the compiled image per edition.
//!
//! [`run_slots`] runs an explicit worklist of slot indices (a resumed
//! campaign executes only the slots its journal does not already hold),
//! isolates each slot's panics, optionally enforces a per-slot wall-clock
//! watchdog, and streams results to an observer **in worklist order** as
//! the completed prefix grows — the hook the persistent campaign journal
//! (`faultstore`) uses to record progress crash-safely.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Reorder buffer shared by the workers: results parked by worklist
/// position, plus the first position whose result has not yet been
/// observed.
struct Reorder<R> {
    /// `out[pos]` holds worklist entry `pos`'s result once it finishes.
    out: Vec<Option<R>>,
    /// Next worklist position to hand to the observer (contiguous prefix
    /// bound).
    next: usize,
}

/// How one slot of a [`run_slots`] run ended.
#[derive(Clone, Debug)]
pub enum SlotRun<R> {
    /// The slot ran to completion.
    Done(R),
    /// The slot's code panicked; the panic was caught, the worker's state
    /// was discarded (rebuilt before its next slot), and the campaign went
    /// on. Carries the panic payload's message.
    Panicked(String),
    /// The slot exceeded its wall-clock budget and the watchdog cancelled
    /// it (the cancellation surfaces at the slot's next checkpoint). The
    /// worker's state was discarded like a panic.
    TimedOut {
        /// The budget the slot exceeded, in milliseconds.
        budget_ms: u64,
    },
}

/// The panic payload [`SlotToken::checkpoint`] throws when its slot has
/// been cancelled: lets the executor distinguish a watchdog kill from a
/// genuine harness panic when it catches the unwind.
struct TimeoutSentinel {
    budget_ms: u64,
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    /// The budget (ms) in force when the cancellation was issued; recorded
    /// so the quarantine entry can say what limit the slot exceeded.
    budget_ms: AtomicU64,
}

/// A cooperative cancellation token handed to every slot run under
/// [`run_slots`].
///
/// The watchdog cannot preempt a hung slot — the harness is a library, not
/// an OS — so cancellation is cooperative: the monitor flips the token, and
/// the slot dies at its next [`checkpoint`](SlotToken::checkpoint) (the
/// campaign checkpoints at slot phase boundaries, and its hang-prone loops
/// poll [`is_cancelled`](SlotToken::is_cancelled)). The default token
/// ([`SlotToken::never`]) is inert: checkpoints are a single branch.
#[derive(Clone, Debug, Default)]
pub struct SlotToken {
    inner: Option<Arc<TokenInner>>,
}

impl SlotToken {
    /// A token that is never cancelled (for unwatched runs).
    pub fn never() -> SlotToken {
        SlotToken { inner: None }
    }

    /// A live token the watchdog can cancel.
    fn armed() -> SlotToken {
        SlotToken {
            inner: Some(Arc::new(TokenInner::default())),
        }
    }

    /// Whether the watchdog has cancelled this slot. Hang-prone loops
    /// should poll this and bail (or call
    /// [`checkpoint`](SlotToken::checkpoint)) when it turns true.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.cancelled.load(Ordering::Relaxed))
    }

    /// Kills the slot (by unwinding with a typed sentinel the executor
    /// recognises) if the watchdog has cancelled it; otherwise a no-op.
    ///
    /// # Panics
    ///
    /// Deliberately, when cancelled — the unwind is caught by
    /// [`run_slots`]' guard and recorded as
    /// [`SlotRun::TimedOut`], never propagated to the caller.
    #[inline]
    pub fn checkpoint(&self) {
        if let Some(inner) = &self.inner {
            if inner.cancelled.load(Ordering::Relaxed) {
                // resume_unwind (not panic_any) skips the global panic
                // hook: a watchdog kill is an expected, handled event, not
                // something to print a panic banner for.
                std::panic::resume_unwind(Box::new(TimeoutSentinel {
                    budget_ms: inner.budget_ms.load(Ordering::Relaxed),
                }));
            }
        }
    }

    /// Marks the slot cancelled under `budget_ms` (watchdog side).
    fn cancel(&self, budget_ms: u64) {
        if let Some(inner) = &self.inner {
            inner.budget_ms.store(budget_ms, Ordering::Relaxed);
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }
}

/// Wall-clock budget policy for [`run_slots`]' per-slot watchdog.
///
/// The budget is *derived from observed slot times*: until a slot
/// completes, `initial` applies; afterwards the budget is
/// `max(min, multiplier × longest-completed-slot)` — a hung slot is one
/// that takes many times longer than the slowest slot that ever finished.
/// Timed-out slots are excluded from the observations so one hang cannot
/// ratchet the budget up for the next. The defaults are deliberately
/// generous (a watchdog that kills healthy slots corrupts the campaign;
/// one that fires late merely wastes minutes).
#[derive(Clone, Copy, Debug)]
pub struct SlotWatchdogConfig {
    /// Budget before any slot has completed.
    pub initial: Duration,
    /// Budget multiplier over the longest observed completed slot.
    pub multiplier: f64,
    /// Budget floor once observations exist.
    pub min: Duration,
    /// How often the monitor thread re-checks in-flight slots.
    pub poll: Duration,
}

impl Default for SlotWatchdogConfig {
    fn default() -> Self {
        SlotWatchdogConfig {
            initial: Duration::from_secs(120),
            multiplier: 8.0,
            min: Duration::from_secs(10),
            poll: Duration::from_millis(25),
        }
    }
}

impl SlotWatchdogConfig {
    /// A fixed-budget watchdog: every slot gets exactly `budget`,
    /// regardless of observed slot times (`--slot-budget-ms` on the CLI).
    pub fn fixed(budget: Duration) -> SlotWatchdogConfig {
        SlotWatchdogConfig {
            initial: budget,
            multiplier: 0.0,
            min: budget,
            poll: (budget / 4).clamp(Duration::from_millis(1), Duration::from_millis(5)),
        }
    }

    /// The budget in force given the longest completed slot observed so
    /// far (`0` = nothing completed yet), in milliseconds.
    pub fn budget_ms(&self, max_observed_ms: u64) -> u64 {
        if max_observed_ms == 0 {
            self.initial.as_millis() as u64
        } else {
            let scaled = (max_observed_ms as f64 * self.multiplier).ceil() as u64;
            scaled.max(self.min.as_millis() as u64)
        }
    }
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the slots named by `worklist` on up to `parallelism` worker
/// threads and returns one [`SlotRun`] per worklist entry, in worklist
/// order.
///
/// `worklist` names the slot indices to execute (ascending for a resumed
/// campaign: quarantined slots to re-attempt plus the un-run tail).
/// `make_worker` builds one worker's private state (it runs on the
/// worker's own thread, so the state type needs no `Send`); `run_slot`
/// executes one slot against that state. `observe(slot, &run)` fires
/// exactly once per worklist entry, **in worklist order**: workers park
/// out-of-order completions in a reorder buffer and drain the contiguous
/// prefix as it grows, so the observer sees exactly the records an
/// append-only journal can replay after a crash — a gap-free prefix. The
/// observer runs under the reorder lock: keep it short (serialize + append
/// + fsync is the intended use).
///
/// Each `run_slot` call runs under `catch_unwind`, so one panicking slot
/// is recorded as [`SlotRun::Panicked`] instead of killing the whole
/// campaign and throwing every other slot's work away. A panic poisons the
/// worker's private state along with the slot: the state is dropped and
/// `make_worker` builds a fresh one before the worker's next slot, so one
/// quarantined slot cannot contaminate later ones.
///
/// When `watchdog` is `Some`, a monitor thread polls every in-flight
/// slot's elapsed wall time against the budget the config derives from
/// observed slot times, and cancels overdue slots through their
/// [`SlotToken`]. A cancelled slot unwinds at its next checkpoint and is
/// recorded as [`SlotRun::TimedOut`] — quarantined exactly like a
/// panicking slot. With `watchdog = None`, tokens are inert.
///
/// A single worker with no watchdog runs everything inline on the
/// caller's thread; otherwise the slots are work-stolen by scoped threads.
///
/// # Panics
///
/// Panics from `make_worker` or `observe` propagate — a stack that cannot
/// even be built is a campaign-level bug, not a per-slot outcome. They are
/// re-raised after every worker has been joined and the watchdog monitor
/// stopped.
pub fn run_slots<T, R, MW, RS, OB>(
    parallelism: usize,
    worklist: &[usize],
    watchdog: Option<&SlotWatchdogConfig>,
    make_worker: MW,
    run_slot: RS,
    observe: OB,
) -> Vec<SlotRun<R>>
where
    MW: Fn() -> T + Sync,
    RS: Fn(&mut T, usize, &SlotToken) -> R + Sync,
    OB: Fn(usize, &SlotRun<R>) + Sync,
    R: Send,
{
    let run_guarded = |state: &mut Option<T>, slot: usize, token: &SlotToken| -> SlotRun<R> {
        let st = state.get_or_insert_with(&make_worker);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_slot(st, slot, token))) {
            Ok(r) => SlotRun::Done(r),
            Err(payload) => {
                // The slot died mid-flight: its worker state is suspect.
                *state = None;
                match payload.downcast::<TimeoutSentinel>() {
                    Ok(sentinel) => SlotRun::TimedOut {
                        budget_ms: sentinel.budget_ms,
                    },
                    Err(payload) => SlotRun::Panicked(panic_message(payload)),
                }
            }
        }
    };

    if worklist.is_empty() {
        return Vec::new();
    }
    let workers = parallelism.max(1).min(worklist.len());
    if workers == 1 && watchdog.is_none() {
        // Inline fast path: no watchdog means no monitor thread is needed,
        // so a sequential campaign never spawns at all.
        let mut state: Option<T> = None;
        return worklist
            .iter()
            .map(|&slot| {
                let r = run_guarded(&mut state, slot, &SlotToken::never());
                observe(slot, &r);
                r
            })
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let reorder = Mutex::new(Reorder {
        out: (0..worklist.len()).map(|_| None).collect(),
        next: 0,
    });
    // Watchdog state: what each worker is running right now, the longest
    // completed slot seen so far (ms), and the shutdown flag the monitor
    // polls. All inert when `watchdog` is None.
    let inflight: Vec<Mutex<Option<(Instant, SlotToken)>>> =
        (0..workers).map(|_| Mutex::new(None)).collect();
    let max_observed_ms = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let monitor = watchdog.map(|cfg| {
            let inflight = &inflight;
            let max_observed_ms = &max_observed_ms;
            let done = &done;
            scope.spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    let budget_ms = cfg.budget_ms(max_observed_ms.load(Ordering::Relaxed));
                    let budget = Duration::from_millis(budget_ms);
                    for slot_state in inflight {
                        let guard = slot_state.lock().expect("inflight lock");
                        if let Some((started, token)) = guard.as_ref() {
                            if started.elapsed() >= budget {
                                token.cancel(budget_ms);
                            }
                        }
                    }
                    std::thread::sleep(cfg.poll);
                }
            })
        });
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let run_guarded = &run_guarded;
                let observe = &observe;
                let cursor = &cursor;
                let reorder = &reorder;
                let inflight = &inflight;
                let max_observed_ms = &max_observed_ms;
                let watched = watchdog.is_some();
                scope.spawn(move || {
                    let mut state: Option<T> = None;
                    loop {
                        let pos = cursor.fetch_add(1, Ordering::Relaxed);
                        if pos >= worklist.len() {
                            break;
                        }
                        let token = if watched {
                            SlotToken::armed()
                        } else {
                            SlotToken::never()
                        };
                        let started = Instant::now();
                        *inflight[w].lock().expect("inflight lock") =
                            Some((started, token.clone()));
                        let r = run_guarded(&mut state, worklist[pos], &token);
                        *inflight[w].lock().expect("inflight lock") = None;
                        if !matches!(r, SlotRun::TimedOut { .. }) {
                            // Timed-out slots are excluded: their duration
                            // *is* the budget, and feeding it back would
                            // ratchet the budget upward after every hang.
                            let elapsed_ms = started.elapsed().as_millis() as u64;
                            max_observed_ms.fetch_max(elapsed_ms, Ordering::Relaxed);
                        }
                        // A poisoned buffer means another worker's observer
                        // panicked; that panic is re-raised below, so stop.
                        let Ok(mut buf) = reorder.lock() else { break };
                        buf.out[pos] = Some(r);
                        // Drain the contiguous completed prefix in order.
                        while buf.next < worklist.len() {
                            match buf.out[buf.next].as_ref() {
                                Some(done) => {
                                    observe(worklist[buf.next], done);
                                    buf.next += 1;
                                }
                                None => break,
                            }
                        }
                    }
                })
            })
            .collect();
        // Join every worker before raising anything, and stop the monitor
        // on every exit: a monitor left polling would keep the scope (and
        // so the caller) waiting forever on a worker's panic.
        let mut worker_panic = None;
        for h in handles {
            if let Err(payload) = h.join() {
                worker_panic.get_or_insert(payload);
            }
        }
        done.store(true, Ordering::SeqCst);
        if let Some(m) = monitor {
            m.join().expect("watchdog monitor panicked");
        }
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
    });
    let buf = reorder.into_inner().expect("reorder lock");
    debug_assert_eq!(buf.next, worklist.len(), "observer saw every slot");
    buf.out
        .into_iter()
        .map(|r| r.expect("every slot produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn upto(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    /// Unwraps a run in which every slot is expected to complete.
    fn done<R: std::fmt::Debug>(runs: Vec<SlotRun<R>>) -> Vec<R> {
        runs.into_iter()
            .map(|r| match r {
                SlotRun::Done(v) => v,
                other => panic!("slot did not complete: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn outputs_come_back_in_slot_order() {
        for parallelism in [1, 2, 4, 9] {
            let out = run_slots(
                parallelism,
                &upto(23),
                None,
                || (),
                |(), i, _| i * 3,
                |_, _| {},
            );
            assert_eq!(done(out), (0..23).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_slots_is_fine() {
        let out: Vec<SlotRun<usize>> = run_slots(4, &[], None, || (), |(), i, _| i, |_, _| {});
        assert!(out.is_empty());
    }

    #[test]
    fn worker_state_is_not_shared_between_workers() {
        // Each worker counts its own slots; totals must cover every slot
        // exactly once regardless of how the stealing interleaves.
        let totals = Mutex::new(Vec::new());
        let out = run_slots(
            3,
            &upto(50),
            None,
            || 0usize,
            |count, i, _| {
                *count += 1;
                totals.lock().unwrap().push(i);
                i
            },
            |_, _| {},
        );
        assert_eq!(done(out), upto(50));
        let mut seen = totals.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, upto(50));
    }

    #[test]
    fn parallel_matches_sequential_for_seeded_work() {
        // The determinism contract at executor level: slot output depends
        // only on the slot index (here via derive), not on worker identity
        // or on whether a watchdog is armed.
        let cfg = SlotWatchdogConfig::fixed(Duration::from_secs(60));
        let run = |parallelism, watchdog| {
            done(run_slots(
                parallelism,
                &upto(16),
                watchdog,
                || (),
                |(), i, _| simkit::SimRng::derive(99, &[0, i as u64]).next_u64(),
                |_, _| {},
            ))
        };
        assert_eq!(run(1, None), run(4, None));
        assert_eq!(run(1, None), run(2, Some(&cfg)));
    }

    #[test]
    fn observer_sees_every_slot_in_order() {
        for parallelism in [1, 2, 4, 7] {
            let seen = Mutex::new(Vec::new());
            let out = run_slots(
                parallelism,
                &upto(31),
                None,
                || (),
                |(), i, _| i * 2,
                |i, r| {
                    let SlotRun::Done(v) = r else {
                        panic!("slot {i} did not complete")
                    };
                    seen.lock().unwrap().push((i, *v));
                },
            );
            assert_eq!(done(out), (0..31).map(|i| i * 2).collect::<Vec<_>>());
            // In order, exactly once — never out of order, even when
            // work-stealing finishes later slots first.
            assert_eq!(
                seen.into_inner().unwrap(),
                (0..31).map(|i| (i, i * 2)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn start_offset_skips_completed_prefix() {
        // A resumed campaign's worklist leaves out the journaled prefix
        // (`5..12`), or holds quarantined slots to re-attempt plus the
        // un-run tail (the gapped list). Results and observations follow
        // the worklist, keyed by slot index.
        let tail: Vec<usize> = (5..12).collect();
        for worklist in [tail, vec![1, 4, 5, 9, 11]] {
            for parallelism in [1, 3] {
                let seen = Mutex::new(Vec::new());
                let out = run_slots(
                    parallelism,
                    &worklist,
                    None,
                    || (),
                    |(), i, _| i + 100,
                    |i, _| seen.lock().unwrap().push(i),
                );
                assert_eq!(
                    done(out),
                    worklist.iter().map(|i| i + 100).collect::<Vec<_>>()
                );
                assert_eq!(seen.into_inner().unwrap(), worklist);
            }
        }
    }

    #[test]
    fn start_at_or_past_the_end_runs_nothing() {
        // A resume whose journal already holds every slot has an empty
        // worklist: nothing is built, run or observed, watched or not.
        let cfg = SlotWatchdogConfig::fixed(Duration::from_secs(60));
        for watchdog in [None, Some(&cfg)] {
            let out: Vec<SlotRun<usize>> = run_slots(
                4,
                &[],
                watchdog,
                || panic!("no workers"),
                |(), i, _| i,
                |_, _| panic!("no slots"),
            );
            assert!(out.is_empty());
        }
    }

    #[test]
    fn watchdog_kills_hung_slot_and_campaign_continues() {
        let cfg = SlotWatchdogConfig::fixed(Duration::from_millis(40));
        for parallelism in [1, 3] {
            let seen = Mutex::new(Vec::new());
            let out = run_slots(
                parallelism,
                &upto(6),
                Some(&cfg),
                || (),
                |(), slot, token: &SlotToken| {
                    if slot == 2 {
                        // A hang the watchdog has to break: the slot only
                        // makes progress once cancelled.
                        while !token.is_cancelled() {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        token.checkpoint();
                        unreachable!("checkpoint unwinds after cancellation");
                    }
                    slot * 10
                },
                |slot, r| {
                    seen.lock()
                        .unwrap()
                        .push((slot, matches!(r, SlotRun::Done(_))))
                },
            );
            assert_eq!(out.len(), 6);
            for (slot, r) in out.iter().enumerate() {
                match r {
                    SlotRun::Done(v) if slot != 2 => assert_eq!(*v, slot * 10),
                    SlotRun::TimedOut { budget_ms } if slot == 2 => assert_eq!(*budget_ms, 40),
                    other => panic!("slot {slot} ended as {other:?}"),
                }
            }
            // The observer still sees every slot, in order, with only the
            // hung one non-Done.
            let seen = seen.into_inner().unwrap();
            assert_eq!(
                seen,
                (0..6).map(|s| (s, s != 2)).collect::<Vec<_>>(),
                "parallelism {parallelism}"
            );
        }
    }

    #[test]
    fn unwatched_tokens_are_inert_and_timeouts_do_not_ratchet_budget() {
        // watchdog = None: tokens never cancel, even for slow slots.
        let out = run_slots(
            2,
            &[0, 1, 2],
            None,
            || (),
            |(), slot, token: &SlotToken| {
                assert!(!token.is_cancelled());
                token.checkpoint(); // must be a no-op
                slot
            },
            |_, _| {},
        );
        assert_eq!(done(out), vec![0, 1, 2]);

        // Budget derivation: with no completions the initial budget rules;
        // afterwards it scales from the longest completed slot, floored.
        let cfg = SlotWatchdogConfig {
            initial: Duration::from_secs(120),
            multiplier: 8.0,
            min: Duration::from_secs(10),
            poll: Duration::from_millis(25),
        };
        assert_eq!(cfg.budget_ms(0), 120_000);
        assert_eq!(cfg.budget_ms(100), 10_000, "floor applies to small slots");
        assert_eq!(cfg.budget_ms(5_000), 40_000, "8x the slowest observed");
        let fixed = SlotWatchdogConfig::fixed(Duration::from_millis(500));
        assert_eq!(fixed.budget_ms(0), 500);
        assert_eq!(fixed.budget_ms(60_000), 500, "fixed budget never scales");
    }

    #[test]
    fn panicking_slot_is_quarantined_not_fatal() {
        for parallelism in [1, 4] {
            let out = run_slots(
                parallelism,
                &[0, 1, 2, 3],
                None,
                || (),
                |(), slot, _| {
                    assert!(slot != 2, "slot 2 panics");
                    slot
                },
                |_, _| {},
            );
            assert_eq!(out.len(), 4);
            assert!(matches!(&out[2], SlotRun::Panicked(m) if m.contains("slot 2")));
            for (slot, r) in out.iter().enumerate() {
                if slot != 2 {
                    assert!(matches!(r, SlotRun::Done(v) if *v == slot));
                }
            }
        }
    }

    #[test]
    fn worker_panics_propagate_with_the_watchdog_armed() {
        // A panic outside the per-slot guard (building the worker, or the
        // observer) must reach the caller even while the watchdog monitor
        // runs — never leave it polling and the caller blocked. The call
        // runs on a helper thread so a hang fails here instead of stalling
        // the suite.
        let cases: [(&str, bool); 2] = [("worker build fails", true), ("observer fails", false)];
        for (message, in_make_worker) in cases {
            for parallelism in [1, 2] {
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let cfg = SlotWatchdogConfig::fixed(Duration::from_secs(60));
                    let outcome = std::panic::catch_unwind(|| {
                        run_slots(
                            parallelism,
                            &[0, 1, 2, 3],
                            Some(&cfg),
                            || assert!(!in_make_worker, "{message}"),
                            |(), slot, _| slot,
                            |_, _| assert!(in_make_worker, "{message}"),
                        )
                    });
                    let _ = tx.send(outcome.map_err(panic_message));
                });
                let outcome = rx
                    .recv_timeout(Duration::from_secs(20))
                    .unwrap_or_else(|_| panic!("`{message}` left run_slots blocked"));
                let err = outcome.expect_err("the panic propagates to the caller");
                assert!(
                    err.contains(message),
                    "the original panic is re-raised, got `{err}`"
                );
            }
        }
    }
}
