//! A bounded worker pool over scoped `std` threads.
//!
//! The simulation and experiment layers fan out over independent jobs
//! (scenarios, sweep points, trials). Spawning one OS thread per job is
//! wasteful and unbounded — a paper-scale sweep can easily queue dozens of
//! runs — so everything funnels through [`WorkerPool`]: at most `workers`
//! threads, jobs handed out by an atomic cursor, and results returned **in
//! job order** regardless of which worker finished when. Determinism of the
//! output therefore depends only on the jobs themselves (which are seeded),
//! never on scheduling.
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide default worker count; 0 means "auto" (available
/// parallelism).
static DEFAULT_WORKERS: AtomicUsize = AtomicUsize::new(0);

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

/// A fixed-width pool executing batches of independent jobs on scoped
/// threads.
///
/// The pool holds no threads between calls — each [`map`](Self::map) /
/// [`map_indexed`](Self::map_indexed) spawns at most `workers` scoped
/// threads for the duration of the batch and joins them before returning,
/// so borrows of the surrounding stack work naturally.
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
    /// At most `min(workers, jobs)` threads run. Every width — including a
    /// single effective worker, which executes inline on the calling thread
    /// without spawning — goes through the *same* claim-from-cursor /
    /// store-into-slot routine, so result ordering and collection mechanics
    /// are identical regardless of parallelism (the sharded solver's merge
    /// determinism relies on this). Workers claim indices from a shared
    /// atomic cursor, so an unlucky long job delays only itself.
    ///
    /// # Panics
    ///
    /// Panics if any job panics (the first panic is propagated after the
    /// batch is joined).
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
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                for handle in handles {
                    handle.join().expect("worker thread panicked");
                }
            });
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
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
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
        let items: Vec<String> = (0..8).map(|i| format!("job-{i}")).collect();
        let lens = WorkerPool::new(3).map(&items, |s| s.len());
        assert_eq!(lens, vec![5; 8]);
    }

    #[test]
    fn single_worker_is_serial_and_equivalent() {
        let serial = WorkerPool::new(1).map_indexed(9, |i| i * i);
        let parallel = WorkerPool::new(8).map_indexed(9, |i| i * i);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_worker_count_produces_identical_ordering() {
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
        let out = WorkerPool::new(64).map_indexed(2, |i| i + 1);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
