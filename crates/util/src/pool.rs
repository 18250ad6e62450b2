//! A bounded worker pool over one process-lifetime crew of helper threads.
//!
//! The simulation and experiment layers fan out over independent jobs
//! (scenarios, sweep points, trials, shards). Spawning one OS thread per
//! job is wasteful and unbounded — a paper-scale sweep can easily queue
//! dozens of runs — so everything funnels through [`WorkerPool`]: at most
//! `workers` threads, jobs handed out by an atomic cursor, and results
//! returned **in job order** regardless of which thread finished when.
//! Determinism of the output therefore depends only on the jobs themselves
//! (which are seeded), never on scheduling.
//!
//! # The crew
//!
//! Every thread a batch runs on besides the caller's comes from one crew
//! of helper threads that lives as long as the process, shared by every
//! [`WorkerPool`] batch and by the CGBA kernel's range split (both go
//! through [`with_helpers`]). A caller claims idle helpers, up to the
//! width it asks for, hands each one a job that borrows the caller's
//! stack, works its own share on the calling thread, and returns only once
//! every claimed helper is done with its job — on unwind too. The crew
//! grows by a thread only when a claim finds no idle helper, so a steady
//! loop of batches starts no OS thread; a spawn the host refuses just
//! leaves the batch fewer helpers. A helper whose job panics stays in the
//! crew, and the panic fails that caller's batch instead.
//!
//! An idle helper spins for [`SPIN_LIMIT`] iterations (16–18 µs on a
//! 2-vCPU VM), then parks: a batch that follows at once finds it awake,
//! and between slots it takes no CPU from the process's other threads.
//!
//! Nested work needs no width rule of its own. While a thread works a
//! batch alongside claimed helpers — as the caller or as a helper — its
//! claims take only helpers that are idle and never grow the crew: the
//! batch's own threads already hold the cores. So a solve inside a pool
//! job finds no helper while its siblings are busy, and takes one that
//! finished early.
//!
//! The process-wide default worker count is configurable via
//! [`set_default_workers`] (the CLI's `--jobs N` flag ends up here); it
//! falls back to [`std::thread::available_parallelism`].
//!
//! # Examples
//!
//! ```
//! use eotora_util::pool::WorkerPool;
//!
//! let squares = WorkerPool::new(4).map(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, Thread};

/// Spin iterations a waiting thread burns before it yields (the CGBA
/// kernel's phase hand-off) or parks (an idle crew helper). On a 2-vCPU VM,
/// perfbench `paper_plain` (seed 1, 10 s runs, six rotations) read a
/// `decision_ms_p50` of 9.23–9.69 ms at `1 << 10`, 9.24–9.88 ms at
/// `1 << 7` and 9.37–9.84 ms at `1 << 14`; before the excluded-load probe
/// shortened each phase it read 14.8, 15.3–16.2 and 16.0–16.9 ms (long
/// pause loops get a vCPU descheduled).
pub const SPIN_LIMIT: u32 = 1 << 10;

/// Process-wide default worker count; 0 means "auto" (available
/// parallelism).
static DEFAULT_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// The crew's idle helpers, the most recently idle last. Its capacity
/// always covers the whole crew ([`Helper::spawn`] reserves it), so a
/// helper returning itself never allocates.
static IDLE: Mutex<Vec<Arc<Helper>>> = Mutex::new(Vec::new());

/// Helpers started so far: the crew's size.
static CREW: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread works a batch alongside claimed helpers, and
    /// for good on every crew helper: its claims take only idle helpers.
    static IN_BATCH: Cell<bool> = const { Cell::new(false) };
    /// Helpers this thread's claims may still get (see
    /// [`refuse_helpers_after`]).
    static HELPERS_LEFT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Sets the process-wide default worker count used by
/// [`WorkerPool::with_default`]. Passing 0 restores auto-detection.
pub fn set_default_workers(n: usize) {
    DEFAULT_WORKERS.store(n, Ordering::Relaxed);
}

/// The process-wide default worker count: the last value passed to
/// [`set_default_workers`], or the machine's available parallelism (at
/// least 1) when unset.
pub fn default_workers() -> usize {
    match DEFAULT_WORKERS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// Test seam: the calling thread's later claims get `n` helpers in all,
/// then act as if the host refused to start every further one, which is
/// the only way a claim outside a batch gets fewer helpers than it asked
/// for. `usize::MAX` lifts the limit.
#[doc(hidden)]
pub fn refuse_helpers_after(n: usize) {
    HELPERS_LEFT.set(n);
}

/// Runs `caller` on the calling thread while up to `helpers` crew helpers
/// each run `job(k)`, `k = 1, 2, …`, and returns `caller`'s result once
/// every claimed helper has returned from its job — also when `caller`
/// unwinds. `caller` gets the number of helpers claimed. A job that waits
/// on `caller` must be released by something `caller` drops, or the batch
/// never ends.
///
/// The claim takes idle helpers first, the most recently idle first, and
/// starts new ones for the rest only on a thread that is not working a
/// batch alongside helpers already (see the module docs). `caller` runs
/// with that mark set when it got a helper.
///
/// # Panics
///
/// Resumes the first panic a helper's job raised, once `caller` has
/// returned and every helper is done.
pub fn with_helpers<R>(
    helpers: usize,
    job: &(dyn Fn(usize) + Sync),
    caller: impl FnOnce(usize) -> R,
) -> R {
    let claimed = claim(helpers);
    if claimed.is_empty() {
        return caller(0);
    }
    let latch = Arc::new(Latch {
        pending: AtomicUsize::new(0),
        waiter: thread::current(),
        panic: Mutex::new(None),
    });
    let wait = WaitForHelpers(&latch);
    for (k, helper) in claimed.iter().enumerate() {
        latch.pending.fetch_add(1, Ordering::Relaxed);
        let task = Task { job, index: k + 1, latch: Arc::clone(&latch) };
        // SAFETY: `task` borrows `job`, which outlives this call. The
        // `wait` guard is armed before the first hand-off, and its drop —
        // on return or unwind — blocks until every helper posted to has
        // counted the latch down, which a helper does only once `job` has
        // returned and it no longer calls it. So no helper calls `job`
        // after `with_helpers` returns; `Task<'_>` and `Task<'static>`
        // differ in that lifetime only.
        helper.post(unsafe { std::mem::transmute::<Task<'_>, Task<'static>>(task) });
    }
    let out = {
        let _mark = BatchMark(IN_BATCH.replace(true));
        caller(claimed.len())
    };
    drop(wait);
    if let Some(payload) = latch.panic.lock().expect("batch panic slot poisoned").take() {
        panic::resume_unwind(payload);
    }
    out
}

/// Takes up to `want` helpers for one batch: idle ones first, then new
/// ones unless this thread works a batch already.
fn claim(want: usize) -> Vec<Arc<Helper>> {
    let left = HELPERS_LEFT.get();
    let want = want.min(left);
    let mut claimed = {
        let mut idle = IDLE.lock().expect("crew idle list poisoned");
        let keep = idle.len().saturating_sub(want);
        idle.split_off(keep)
    };
    if !IN_BATCH.get() {
        while claimed.len() < want {
            match Helper::spawn() {
                Ok(helper) => claimed.push(helper),
                Err(_) => break,
            }
        }
    }
    if left != usize::MAX {
        HELPERS_LEFT.set(left - claimed.len());
    }
    claimed
}

/// One crew thread and its one-job mailbox. Only the claimer holding the
/// helper posts to it, and only while the mailbox is empty.
struct Helper {
    /// The helper's thread, set by the claimer that started it before its
    /// first post.
    thread: OnceLock<Thread>,
    /// Raised (`Release`) after a task is stored, cleared by the helper on
    /// taking it (`Acquire`).
    posted: AtomicBool,
    task: Mutex<Option<Task<'static>>>,
}

/// A job handed to one helper: run `job(index)`, then count `latch` down.
/// The latch is shared, not borrowed, because the helper still touches it
/// after the count that releases the caller.
struct Task<'a> {
    job: &'a (dyn Fn(usize) + Sync),
    index: usize,
    latch: Arc<Latch>,
}

impl Helper {
    /// Starts a helper, parked until its first post. An error means the
    /// host refused the thread (e.g. a process or pids limit).
    fn spawn() -> std::io::Result<Arc<Self>> {
        let helper = Arc::new(Self {
            thread: OnceLock::new(),
            posted: AtomicBool::new(false),
            task: Mutex::new(None),
        });
        let serve = Arc::clone(&helper);
        // The handle is dropped: a helper never ends, and it hands every
        // panic of its jobs to the batch that posted the job.
        let handle =
            thread::Builder::new().name("eotora-crew".into()).spawn(move || serve.serve())?;
        helper.thread.set(handle.thread().clone()).expect("a helper starts once");
        CREW.fetch_add(1, Ordering::Relaxed);
        let mut idle = IDLE.lock().expect("crew idle list poisoned");
        let crew = CREW.load(Ordering::Relaxed);
        let room = crew.saturating_sub(idle.len());
        idle.reserve(room);
        Ok(helper)
    }

    fn post(&self, task: Task<'static>) {
        let previous = self.task.lock().expect("helper mailbox poisoned").replace(task);
        debug_assert!(previous.is_none(), "posted to a busy helper");
        self.posted.store(true, Ordering::Release);
        self.thread.get().expect("set before the first post").unpark();
    }

    /// The helper's loop: take a task, run it, rejoin the idle list, count
    /// the batch down. The helper rejoins first so that the batch's caller,
    /// once released, finds it idle at its next claim instead of starting
    /// another thread.
    fn serve(self: Arc<Self>) {
        IN_BATCH.set(true);
        loop {
            let Task { job, index, latch } = self.next_task();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(index)));
            IDLE.lock().expect("crew idle list poisoned").push(Arc::clone(&self));
            latch.finish(outcome.err());
        }
    }

    fn next_task(&self) -> Task<'static> {
        spin_then_park(|| self.posted.load(Ordering::Acquire));
        self.posted.store(false, Ordering::Relaxed);
        self.task.lock().expect("helper mailbox poisoned").take().expect("a posted task")
    }
}

/// Counts one batch's claimed helpers down to zero and keeps the first
/// panic one of them raised.
struct Latch {
    pending: AtomicUsize,
    waiter: Thread,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    /// A helper is done with its task. The `Release` decrement pairs with
    /// [`Latch::wait`]'s `Acquire` load: the job's writes happen before the
    /// caller returns.
    fn finish(&self, panic: Option<Box<dyn Any + Send>>) {
        if let Some(payload) = panic {
            self.panic.lock().expect("batch panic slot poisoned").get_or_insert(payload);
        }
        if self.pending.fetch_sub(1, Ordering::Release) == 1 {
            self.waiter.unpark();
        }
    }

    fn wait(&self) {
        spin_then_park(|| self.pending.load(Ordering::Acquire) == 0);
    }
}

/// Spins for [`SPIN_LIMIT`] iterations, then parks, until `ready()` holds.
/// Whoever makes it hold unparks the waiting thread.
fn spin_then_park(ready: impl Fn() -> bool) {
    let mut spins = 0;
    while !ready() {
        if spins < SPIN_LIMIT {
            spins += 1;
            std::hint::spin_loop();
        } else {
            thread::park();
        }
    }
}

/// Blocks until every helper of a batch has counted its latch down. It is
/// armed before the first hand-off, so the borrowed jobs outlive their
/// helpers however the batch's frame ends.
struct WaitForHelpers<'a>(&'a Latch);

impl Drop for WaitForHelpers<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// Restores the thread's previous batch mark.
struct BatchMark(bool);

impl Drop for BatchMark {
    fn drop(&mut self) {
        IN_BATCH.set(self.0);
    }
}

/// A fixed-width pool executing batches of independent jobs on the
/// calling thread and crew helpers.
///
/// A batch ([`map`](Self::map) / [`map_indexed`](Self::map_indexed)) runs
/// on the calling thread plus up to `workers − 1` claimed crew helpers
/// (see the module docs), and returns only once they are done, so jobs
/// borrow the surrounding stack naturally.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// Creates a pool running at most `workers` jobs concurrently
    /// (clamped up to 1).
    pub fn new(workers: usize) -> Self {
        Self { workers: workers.max(1) }
    }

    /// Creates a pool sized by [`default_workers`].
    pub fn with_default() -> Self {
        Self::new(default_workers())
    }

    /// The concurrency bound.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, returning results in item order.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.map_indexed(items.len(), |i| f(&items[i]))
    }

    /// Runs `jobs` indexed jobs, returning `f(0), f(1), …` in index order.
    ///
    /// At most `min(workers, jobs)` threads run: the calling thread and up
    /// to `min(workers, jobs) − 1` claimed crew helpers. Every width —
    /// including a single effective worker, which claims no helper — goes
    /// through the *same* claim-from-cursor / store-into-slot routine, so
    /// result ordering and collection mechanics are identical regardless
    /// of parallelism (the sharded solver's merge determinism relies on
    /// this). Threads claim indices from a shared atomic cursor, so an
    /// unlucky long job delays only itself.
    ///
    /// # Panics
    ///
    /// Panics if any job panics (a helper's panic is resumed once the
    /// batch is done).
    pub fn map_indexed<U, F>(&self, jobs: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let workers = self.workers.min(jobs);
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<U>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            let result = f(i);
            *slots[i].lock().expect("result slot poisoned") = Some(result);
        };
        if workers <= 1 {
            work();
        } else {
            with_helpers(workers - 1, &|_| work(), |_| work());
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every claimed job stores a result")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Barrier, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    use super::*;

    /// Held by every test that claims helpers, so a test that looks at
    /// which helper ran a job or at the crew's size sees no other test's
    /// claims.
    fn exclusive_crew() -> MutexGuard<'static, ()> {
        static CREW_TESTS: Mutex<()> = Mutex::new(());
        CREW_TESTS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until `done()` holds, for at most ten seconds.
    fn wait_until(done: impl Fn() -> bool) {
        let start = Instant::now();
        while !done() {
            assert!(start.elapsed() < Duration::from_secs(10), "timed out");
            thread::yield_now();
        }
    }

    #[test]
    fn results_come_back_in_job_order() {
        let _crew = exclusive_crew();
        let pool = WorkerPool::new(4);
        // Make early jobs the slowest so out-of-order completion is likely.
        let out = pool.map_indexed(16, |i| {
            std::thread::sleep(std::time::Duration::from_millis((16 - i as u64) / 4));
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn map_borrows_items_in_place() {
        let _crew = exclusive_crew();
        let items: Vec<String> = (0..8).map(|i| format!("job-{i}")).collect();
        let lens = WorkerPool::new(3).map(&items, |s| s.len());
        assert_eq!(lens, vec![5; 8]);
    }

    #[test]
    fn single_worker_is_serial_and_equivalent() {
        let _crew = exclusive_crew();
        let serial = WorkerPool::new(1).map_indexed(9, |i| i * i);
        let parallel = WorkerPool::new(8).map_indexed(9, |i| i * i);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_worker_count_produces_identical_ordering() {
        let _crew = exclusive_crew();
        // The serial (inline) and parallel paths share the same
        // cursor/slot routine; any width must return byte-identical
        // results in job order — the sharded merge depends on it.
        let reference: Vec<u64> = (0..33).map(|i| (i as u64).wrapping_mul(0x9E37_79B9)).collect();
        for workers in [1, 2, 3, 8, 64] {
            let out =
                WorkerPool::new(workers).map_indexed(33, |i| (i as u64).wrapping_mul(0x9E37_79B9));
            assert_eq!(out, reference, "workers = {workers}");
        }
        // jobs == 1 takes the inline path even on a wide pool.
        assert_eq!(WorkerPool::new(8).map_indexed(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
        assert_eq!(WorkerPool::new(0).map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn empty_batch_is_empty() {
        let out: Vec<usize> = WorkerPool::new(4).map_indexed(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_batch_returns_without_spawning_or_calling() {
        // jobs == 0 clamps the width to 0 → the inline path runs, the
        // cursor immediately exceeds the (empty) job range, and the
        // closure is never invoked. No thread::scope is entered.
        let calls = AtomicUsize::new(0);
        let out: Vec<usize> = WorkerPool::new(8).map_indexed(0, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert!(out.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let _crew = exclusive_crew();
        let out = WorkerPool::new(64).map_indexed(2, |i| i + 1);
        assert_eq!(out, vec![1, 2]);
    }

    /// A panic on a crew helper fails its batch and leaves the helper in
    /// the crew: the next batch claims it again and gets every result.
    #[test]
    fn a_helper_survives_a_panicking_job_and_serves_the_next_batch() {
        let _crew = exclusive_crew();
        let caller = thread::current().id();
        let helper = Mutex::new(None);
        let failed = panic::catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::new(2).map_indexed(2, |_| {
                if thread::current().id() == caller {
                    // Leave the other job to the helper.
                    wait_until(|| helper.lock().unwrap().is_some());
                    0
                } else {
                    *helper.lock().unwrap() = Some(thread::current().id());
                    panic!("job fault on a helper");
                }
            })
        }));
        let payload = failed.expect_err("the helper's panic must fail the batch");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job fault on a helper"));
        let helper = helper.into_inner().unwrap().expect("a helper ran a job");

        let ran_off_caller = AtomicBool::new(false);
        let out = WorkerPool::new(2).map_indexed(8, |i| {
            let me = thread::current().id();
            if me == caller {
                wait_until(|| ran_off_caller.load(Ordering::Acquire));
            } else {
                ran_off_caller.store(true, Ordering::Release);
            }
            (i * 3, me)
        });
        assert_eq!(
            out.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            (0..8).map(|i| i * 3).collect::<Vec<_>>()
        );
        assert!(out.iter().any(|&(_, id)| id == helper), "the next batch claimed another helper");
        assert!(out.iter().all(|&(_, id)| id == helper || id == caller));
    }

    /// A claim outside a batch gets the width it asks for, growing the
    /// crew as needed; claims made while working a batch alongside helpers
    /// take only idle helpers and never grow the crew.
    #[test]
    fn claims_inside_a_batch_never_grow_the_crew() {
        let _crew = exclusive_crew();
        assert_eq!(with_helpers(2, &|_| (), |claimed| claimed), 2);
        let crew = CREW.load(Ordering::Relaxed);
        let both = Barrier::new(2);
        let nested = WorkerPool::new(2).map_indexed(2, |_| {
            // One job on the caller, one on a helper, both in their jobs
            // while either claims.
            both.wait();
            let claimed = with_helpers(crew + 2, &|_| (), |claimed| claimed);
            both.wait();
            claimed
        });
        assert_eq!(CREW.load(Ordering::Relaxed), crew, "a nested claim started a thread");
        assert!(nested.iter().all(|&claimed| claimed < crew), "{nested:?} of {crew}");
        // The mark ends with the batch.
        assert!(!IN_BATCH.get());
    }

    #[test]
    fn refused_helpers_leave_the_jobs_to_the_caller() {
        let _crew = exclusive_crew();
        refuse_helpers_after(0);
        let caller = thread::current().id();
        let out = WorkerPool::new(4).map_indexed(6, |i| (i, thread::current().id() == caller));
        refuse_helpers_after(usize::MAX);
        assert_eq!(out, (0..6).map(|i| (i, true)).collect::<Vec<_>>());
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
