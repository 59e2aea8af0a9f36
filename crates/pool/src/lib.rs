//! A small work-stealing thread pool shared across the GeoProof stack.
//!
//! Two very different workloads schedule through it: the audit engine
//! runs whole sessions as jobs (k sequential challenge rounds — the
//! protocol's timing only means something if the rounds of a session
//! stay ordered), and the POR streaming encoder fans chunk-groups of
//! CPU-bound encode work across workers. Both want the same shape: each
//! worker owns a deque seeded round-robin; when its own deque runs dry
//! it steals from the back of a sibling's, so a worker stuck behind slow
//! jobs sheds its backlog to idle ones.
//!
//! A third user, offline ledger re-verification, needs a different
//! shape: many independent chunks of work whose results must be folded
//! into one piece of state strictly in order (the chain, the checkpoint
//! accumulator, the first error). [`run_ordered`] serves it: workers
//! claim indices from one counter within a bounded window, and the
//! calling thread both works and consumes results in index order.
//!
//! This crate sits below `geoproof-core` so that `geoproof-por` (which
//! `core` depends on) can use the same pool; `core` re-exports it as
//! `geoproof_core::pool` for its existing callers.
//!
//! Dependency-free by necessity (no crossbeam in the build environment):
//! per-worker `parking_lot` mutex deques, which at session/chunk-group
//! granularity cost nothing measurable.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Cached handles into the global telemetry registry — resolved once so
/// the per-job path is a gated atomic op, never a registry lookup.
struct PoolMetrics {
    jobs: Arc<geoproof_obs::Counter>,
    steals: Arc<geoproof_obs::Counter>,
    depth: Arc<geoproof_obs::Gauge>,
}

fn metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        jobs: geoproof_obs::counter("pool_jobs_total"),
        steals: geoproof_obs::counter("pool_steals_total"),
        depth: geoproof_obs::gauge("pool_queue_depth"),
    })
}

/// One unit of work.
pub type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

/// What a pool run did — exposed so tests (and benches) can observe that
/// stealing actually happens under skew.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads used.
    pub workers: usize,
    /// Jobs executed.
    pub jobs: u64,
    /// Jobs a worker took from a sibling's deque.
    pub steals: u64,
}

/// Runs `jobs` to completion on `workers` threads with work stealing.
///
/// Jobs may borrow from the caller's stack (the pool is scoped); the call
/// returns when every job has finished. Zero workers is clamped to one,
/// and a worker count beyond the job count is clamped down to it — a
/// surplus worker can never run anything, but on an oversubscribed
/// machine its idle scan-and-sleep loop actively starves the workers
/// that do have jobs.
pub fn run_jobs<'env>(workers: usize, jobs: Vec<Job<'env>>) -> PoolStats {
    let total = jobs.len();
    let workers = workers.clamp(1, 256).min(total.max(1));
    let queues: Vec<Mutex<VecDeque<Job<'env>>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        queues[i % workers].lock().push_back(job);
    }
    let remaining = AtomicUsize::new(total);
    let steals = AtomicU64::new(0);
    let m = metrics();
    m.jobs.add(total as u64);
    m.depth.add(total as i64);

    // Counts a job as done even if it panics: without this, a panicking
    // job would leave `remaining` nonzero forever, the surviving workers
    // would spin, and `thread::scope` would never join (deadlock instead
    // of a propagated panic).
    struct DoneGuard<'a>(&'a AtomicUsize, &'static PoolMetrics);
    impl Drop for DoneGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::AcqRel);
            self.1.depth.dec();
        }
    }

    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let remaining = &remaining;
            let steals = &steals;
            scope.spawn(move || {
                let mut idle_rounds: u32 = 0;
                loop {
                    if remaining.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    // Own deque first (front: FIFO for cache-friendly order).
                    // The guard must drop before the steal scan below: a
                    // `lock().pop_front().or_else(steal)` chain keeps the
                    // own-queue guard alive for the whole statement, so two
                    // workers going empty together would each hold their own
                    // lock while trying the other's — an ABBA deadlock.
                    let mut job = queues[me].lock().pop_front();
                    if job.is_none() {
                        // Steal from a sibling's back, one lock at a time.
                        for delta in 1..queues.len() {
                            let victim = (me + delta) % queues.len();
                            if let Some(stolen) = queues[victim].lock().pop_back() {
                                steals.fetch_add(1, Ordering::Relaxed);
                                job = Some(stolen);
                                break;
                            }
                        }
                    }
                    match job {
                        Some(job) => {
                            idle_rounds = 0;
                            let guard = DoneGuard(remaining, m);
                            job();
                            drop(guard);
                        }
                        None => {
                            // Nothing runnable: yield briefly, then back
                            // off to sleeping so idle workers don't burn a
                            // core while the tail jobs finish elsewhere.
                            idle_rounds = idle_rounds.saturating_add(1);
                            if idle_rounds < 16 {
                                std::thread::yield_now();
                            } else {
                                std::thread::sleep(std::time::Duration::from_micros(
                                    100u64 << (idle_rounds - 16).min(6),
                                ));
                            }
                        }
                    }
                }
            });
        }
    });

    let stolen = steals.load(Ordering::Relaxed);
    m.steals.add(stolen);
    PoolStats {
        workers,
        jobs: total as u64,
        steals: stolen,
    }
}

/// Runs `work(i)` for every `i` in `0..n` on the calling thread plus
/// `workers − 1` scoped helpers, and hands each result to `consume` **on
/// the calling thread, in index order**.
///
/// * Indices are claimed in ascending order, and only while they lie
///   within `window` of the next index to consume — so at most `window`
///   results (running or finished) are ever unconsumed.
/// * When the next result is not ready, the caller claims and runs the
///   next index itself; it blocks only when every index in the window is
///   already running elsewhere. (A caller that merely waited would leave
///   a core idle whenever a helper is slow to be scheduled.)
/// * The first `Err` from `consume` stops new claims and is returned;
///   work already running finishes and its result is dropped.
/// * `n ≤ 1` or `workers ≤ 1` (or `window ≤ 1`) runs everything inline
///   and spawns nothing. A panic in `work` or `consume` propagates once
///   the helpers have stopped.
///
/// # Errors
///
/// The first error `consume` returns.
pub fn run_ordered<T: Send, E>(
    workers: usize,
    n: usize,
    window: usize,
    work: impl Fn(usize) -> T + Sync,
    mut consume: impl FnMut(usize, T) -> Result<(), E>,
) -> Result<(), E> {
    // A helper beyond the window (or the index count) could never hold a
    // claim, so it is not spawned.
    let window = window.min(n);
    let helpers = workers.min(window).saturating_sub(1);
    if helpers == 0 {
        for i in 0..n {
            consume(i, work(i))?;
        }
        return Ok(());
    }
    let shared = Ordered {
        state: std::sync::Mutex::new(OrderedState {
            next: 0,
            consumed: 0,
            done: (0..window).map(|_| None).collect(),
            stop: false,
        }),
        changed: std::sync::Condvar::new(),
    };
    std::thread::scope(|scope| {
        // Stops the helpers on every exit: done, `Err`, or a panic here
        // (including a failed spawn).
        let _stop = StopOnDrop {
            shared: &shared,
            always: true,
        };
        for _ in 0..helpers {
            let (shared, work) = (&shared, &work);
            scope.spawn(move || {
                // A panicking `work` must still release the caller.
                let _stop = StopOnDrop {
                    shared,
                    always: false,
                };
                while let Some(i) = shared.claim(n, window) {
                    let result = work(i);
                    shared.lock().done[i % window] = Some(result);
                    shared.changed.notify_all();
                }
            });
        }
        let mut state = shared.lock();
        for c in 0..n {
            let result = loop {
                if let Some(result) = state.done[c % window].take() {
                    break result;
                }
                if state.stop {
                    // A helper panicked; the scope re-raises it.
                    return Ok(());
                }
                if state.next < n && state.next < c + window {
                    let i = state.next;
                    state.next += 1;
                    drop(state);
                    let result = work(i);
                    state = shared.lock();
                    state.done[i % window] = Some(result);
                } else {
                    state = shared.wait(state);
                }
            };
            drop(state);
            consume(c, result)?;
            state = shared.lock();
            state.consumed = c + 1;
            shared.changed.notify_all();
        }
        Ok(())
    })
}

/// Shared state of one [`run_ordered`] call.
struct Ordered<T> {
    state: std::sync::Mutex<OrderedState<T>>,
    /// Signalled on every finished result, consumed index, and stop.
    changed: std::sync::Condvar,
}

struct OrderedState<T> {
    /// Next index to claim.
    next: usize,
    /// Next index to consume; claims stay below `consumed + window`.
    consumed: usize,
    /// Finished, unconsumed results; index `i` lives in slot `i % window`
    /// (the window keeps live indices distinct modulo its length).
    done: Vec<Option<T>>,
    /// No further claims: the caller returned, failed or panicked, or a
    /// helper panicked.
    stop: bool,
}

impl<T> Ordered<T> {
    // Nothing panics while holding the lock, so poisoning carries no
    // information here.
    fn lock(&self) -> std::sync::MutexGuard<'_, OrderedState<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn wait<'a>(
        &self,
        guard: std::sync::MutexGuard<'a, OrderedState<T>>,
    ) -> std::sync::MutexGuard<'a, OrderedState<T>> {
        self.changed
            .wait(guard)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A helper's next index, waiting while the window is full; `None`
    /// once everything is claimed or the run stopped.
    fn claim(&self, n: usize, window: usize) -> Option<usize> {
        let mut state = self.lock();
        loop {
            if state.stop || state.next >= n {
                return None;
            }
            if state.next < state.consumed + window {
                state.next += 1;
                return Some(state.next - 1);
            }
            state = self.wait(state);
        }
    }
}

/// Sets `stop` when dropped — always for the caller, and for a helper
/// only while it unwinds (a helper that simply ran out of claims must
/// not stop the caller).
struct StopOnDrop<'a, T> {
    shared: &'a Ordered<T>,
    always: bool,
}

impl<T> Drop for StopOnDrop<'_, T> {
    fn drop(&mut self) {
        if self.always || std::thread::panicking() {
            self.shared.lock().stop = true;
            self.shared.changed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_job_runs_exactly_once() {
        let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        let jobs: Vec<Job> = (0..100)
            .map(|i| {
                let hits = &hits;
                Box::new(move || {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }) as Job
            })
            .collect();
        let stats = run_jobs(4, jobs);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.jobs, 100);
        assert_eq!(stats.workers, 4);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let ran = AtomicU32::new(0);
        let jobs: Vec<Job> = (0..5)
            .map(|_| {
                let ran = &ran;
                Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                }) as Job
            })
            .collect();
        let stats = run_jobs(0, jobs);
        assert_eq!(ran.load(Ordering::Relaxed), 5);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn skewed_load_gets_stolen() {
        // Round-robin seeding puts all the slow jobs on worker 0 (indices
        // ≡ 0 mod 2 with 2 workers); worker 1 finishes its fast jobs and
        // must steal to keep the wall clock short.
        let jobs: Vec<Job> = (0..32)
            .map(|i| {
                Box::new(move || {
                    if i % 2 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                }) as Job
            })
            .collect();
        let stats = run_jobs(2, jobs);
        assert!(stats.steals > 0, "expected stealing under skew");
    }

    #[test]
    fn panicking_job_propagates_instead_of_deadlocking() {
        // Regression: a panicking job used to leave `remaining` stuck
        // above zero, spinning the other workers forever inside
        // thread::scope. Now the panic propagates and every other job
        // still runs.
        let ran = AtomicU32::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let jobs: Vec<Job> = (0..8)
                .map(|i| {
                    let ran = &ran;
                    Box::new(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        ran.fetch_add(1, Ordering::Relaxed);
                    }) as Job
                })
                .collect();
            run_jobs(2, jobs);
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_eq!(ran.load(Ordering::Relaxed), 7, "other jobs still ran");
    }

    #[test]
    fn concurrent_steal_scans_do_not_deadlock() {
        // Regression: the worker loop used to hold its own queue lock
        // across the steal scan (guard temporary lived to the end of the
        // `lock().pop_front().or_else(steal)` statement), so two workers
        // going empty together could each block on the other's queue —
        // an ABBA deadlock hit ~1–4% of encoder property-test runs on a
        // single-core host. Hammer the empty-queue/steal path and fail
        // via watchdog timeout instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for round in 0..300 {
                let jobs: Vec<Job> = (0..6).map(|_| Box::new(|| {}) as Job).collect();
                run_jobs(4, jobs);
                if round % 100 == 0 {
                    std::thread::yield_now();
                }
            }
            let _ = tx.send(());
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("pool deadlocked: steal scan held the worker's own queue lock");
    }

    #[test]
    fn empty_job_list_is_fine() {
        let stats = run_jobs(8, Vec::new());
        assert_eq!(stats.jobs, 0);
    }

    /// A few microseconds of index-dependent skew, so helpers and the
    /// caller finish out of order.
    fn jitter(i: usize) {
        if i % 3 == 0 {
            std::thread::sleep(std::time::Duration::from_micros(50 * (i % 7) as u64));
        }
    }

    #[test]
    fn ordered_results_arrive_in_index_order() {
        for workers in 1..=8 {
            for n in 0..=50 {
                for window in [1, 3, 2 * workers] {
                    let runs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                    let mut got = Vec::new();
                    let done = run_ordered(
                        workers,
                        n,
                        window,
                        |i| {
                            jitter(i);
                            runs[i].fetch_add(1, Ordering::Relaxed);
                            i * i
                        },
                        |i, sq| {
                            got.push((i, sq));
                            Ok::<(), ()>(())
                        },
                    );
                    assert_eq!(done, Ok(()));
                    let want: Vec<(usize, usize)> = (0..n).map(|i| (i, i * i)).collect();
                    assert_eq!(got, want, "workers {workers}, n {n}, window {window}");
                    assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
                }
            }
        }
    }

    #[test]
    fn unconsumed_results_never_exceed_the_window() {
        for (workers, window) in [(2, 2), (4, 3), (8, 5), (8, 16)] {
            let live = AtomicUsize::new(0);
            let high = AtomicUsize::new(0);
            run_ordered(
                workers,
                300,
                window,
                |i| {
                    // Counted from the claim, so running work counts too.
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    high.fetch_max(now, Ordering::SeqCst);
                    jitter(i);
                },
                |i, ()| {
                    if i % 5 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    live.fetch_sub(1, Ordering::SeqCst);
                    Ok::<(), ()>(())
                },
            )
            .expect("no errors");
            let high = high.load(Ordering::SeqCst);
            assert!(high <= window, "{high} unconsumed with window {window}");
        }
    }

    #[test]
    fn an_error_stops_claims_within_the_window() {
        for workers in [2, 3, 8] {
            for fail_at in [0, 1, 7, 40] {
                let window = 2 * workers;
                let highest = AtomicUsize::new(0);
                let mut consumed = Vec::new();
                let outcome = run_ordered(
                    workers,
                    1000,
                    window,
                    |i| {
                        highest.fetch_max(i, Ordering::SeqCst);
                        jitter(i);
                        i
                    },
                    |i, _| {
                        if i == fail_at {
                            return Err(i);
                        }
                        consumed.push(i);
                        Ok(())
                    },
                );
                assert_eq!(outcome, Err(fail_at));
                assert_eq!(consumed, (0..fail_at).collect::<Vec<_>>());
                let highest = highest.load(Ordering::SeqCst);
                assert!(
                    highest < fail_at + window,
                    "index {highest} worked after an error at {fail_at} (window {window})"
                );
            }
        }
    }

    #[test]
    fn ordered_panics_propagate_instead_of_deadlocking() {
        // A panic in `work` — on a helper or on the caller, whichever
        // claims the index — or in `consume` must surface as a panic of
        // the call, never leave the caller or a helper waiting forever.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for round in 0..40usize {
                let bad = round % 10;
                let work_panics = std::panic::catch_unwind(|| {
                    run_ordered(
                        4,
                        64,
                        8,
                        |i| {
                            jitter(i);
                            assert!(i != bad, "boom");
                        },
                        |_, ()| Ok::<(), ()>(()),
                    )
                });
                let consume_panics = std::panic::catch_unwind(|| {
                    run_ordered(4, 64, 8, jitter, |i, ()| {
                        assert!(i != bad, "boom");
                        Ok::<(), ()>(())
                    })
                });
                if work_panics.is_ok() || consume_panics.is_ok() {
                    let _ = tx.send(false);
                    return;
                }
            }
            let _ = tx.send(true);
        });
        let propagated = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("run_ordered deadlocked on a panic");
        assert!(propagated, "a panic was swallowed");
    }

    #[test]
    fn one_worker_or_one_index_runs_on_the_caller() {
        let caller = std::thread::current().id();
        for (workers, n) in [(1, 20), (8, 1), (1, 1)] {
            let mut seen = 0;
            run_ordered(
                workers,
                n,
                16,
                |_| std::thread::current().id(),
                |_, ran_on| {
                    assert_eq!(ran_on, caller, "workers {workers}, n {n}");
                    seen += 1;
                    Ok::<(), ()>(())
                },
            )
            .expect("no errors");
            assert_eq!(seen, n);
        }
    }

    #[test]
    fn jobs_may_borrow_caller_state() {
        let results = Mutex::new(Vec::new());
        let inputs = [1u32, 2, 3, 4, 5];
        let jobs: Vec<Job> = inputs
            .iter()
            .map(|&x| {
                let results = &results;
                Box::new(move || results.lock().push(x * x)) as Job
            })
            .collect();
        run_jobs(3, jobs);
        let mut got = results.into_inner();
        got.sort_unstable();
        assert_eq!(got, vec![1, 4, 9, 16, 25]);
    }
}
