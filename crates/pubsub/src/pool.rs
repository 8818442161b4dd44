//! Persistent worker pool for spreading a matching batch over
//! threads.
//!
//! Workers are OS threads started *lazily* on the first multi-worker
//! batch, parked on a [`crossbeam`] channel job queue, and reused for
//! every subsequent batch (clones of a `MatchIndex` share one pool
//! through an `Arc`, so a broker's SRT and PRT snapshots do not
//! multiply threads). Spawning and joining scoped threads on every
//! batch cost more than the probe work they split.
//!
//! # Scoped semantics on a persistent pool
//!
//! [`WorkerPool::run`] hands workers a *lifetime-erased* pointer to
//! the caller's closure, which borrows batch-local state. Soundness
//! follows the same argument as `std::thread::scope`: `run` does not
//! return until every dispatched invocation has finished (a latch the
//! caller waits on even when unwinding), so the borrow outlives every
//! use. Worker panics are caught, recorded, and re-raised on the
//! caller once the batch is quiescent.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crossbeam::channel::{unbounded, Receiver, Sender};

/// A dispatched unit of [`WorkerPool::run`]: a lifetime-erased call of
/// the caller's closure with this job's slot index.
struct Job {
    call: unsafe fn(*const (), usize),
    ctx: *const (),
    slot: usize,
    latch: Arc<Latch>,
}

// SAFETY: `ctx` points into the stack frame of the `run` caller, which
// blocks on the job latch until the job has finished (including on
// unwind); the pointee is `Sync` (bounded in `run`), so sharing the
// pointer with a worker thread is sound.
unsafe impl Send for Job {}

/// Completion latch for one `run` fan-out.
struct Latch {
    left: Mutex<usize>,
    cv: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            left: Mutex::new(n),
            cv: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn done(&self, panicked: bool) {
        if panicked {
            self.panicked.store(true, Ordering::Relaxed);
        }
        let mut left = self.left.lock().unwrap_or_else(|p| p.into_inner());
        *left -= 1;
        if *left == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.left.lock().unwrap_or_else(|p| p.into_inner());
        while *left > 0 {
            left = self.cv.wait(left).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Observable pool counters (regression tests pin the lifecycle
/// contract — lazy start, no per-batch spawning — against these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads spawned over the pool's lifetime.
    pub workers_spawned: usize,
    /// `run` fan-outs dispatched over the pool's lifetime.
    pub runs: usize,
}

/// The persistent, lazily-started worker pool (module docs).
pub(crate) struct WorkerPool {
    queue: OnceLock<(Sender<Job>, Receiver<Job>)>,
    spawned: AtomicUsize,
    runs: AtomicUsize,
    /// Serializes worker spawning (the queue itself is lock-free for
    /// job dispatch).
    grow: Mutex<()>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers_spawned", &self.spawned.load(Ordering::Relaxed))
            .field("runs", &self.runs.load(Ordering::Relaxed))
            .finish()
    }
}

impl WorkerPool {
    /// An empty pool; no threads run until the first multi-worker
    /// batch.
    pub fn new() -> Self {
        WorkerPool {
            queue: OnceLock::new(),
            spawned: AtomicUsize::new(0),
            runs: AtomicUsize::new(0),
            grow: Mutex::new(()),
        }
    }

    /// Lifecycle counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers_spawned: self.spawned.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
        }
    }

    /// Runs `task(slot)` for every slot in `0..fanout`, slot 0 on the
    /// calling thread and the rest on pool workers, returning once all
    /// invocations have finished. `fanout <= 1` runs entirely inline
    /// and touches no thread machinery.
    ///
    /// Workers are spawned on first need and reused afterwards; a
    /// worker panic is re-raised here after the fan-out is quiescent.
    pub fn run<F>(&self, fanout: usize, task: &F)
    where
        F: Fn(usize) + Sync,
    {
        self.runs.fetch_add(1, Ordering::Relaxed);
        if fanout <= 1 {
            task(0);
            return;
        }
        let helpers = fanout - 1;
        self.ensure_workers(helpers);
        // unwrap: ensure_workers initialized the queue
        let (tx, _) = self.queue.get().unwrap();
        let latch = Arc::new(Latch::new(helpers));

        unsafe fn call<F: Fn(usize)>(ctx: *const (), slot: usize) {
            // SAFETY: see the `Job` Send rationale — the `run` caller
            // keeps `task` alive until the latch opens.
            unsafe { (*(ctx as *const F))(slot) }
        }
        /// Blocks on the latch even if `task(0)` unwinds below, so no
        /// worker can observe a dead `ctx`.
        struct WaitGuard<'a>(&'a Latch);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                self.0.wait();
            }
        }

        let guard = WaitGuard(&latch);
        for slot in 1..=helpers {
            let job = Job {
                call: call::<F>,
                ctx: task as *const F as *const (),
                slot,
                latch: Arc::clone(&latch),
            };
            // Workers never drop the receiver while the pool (and
            // thus the sender) is alive.
            if tx.send(job).is_err() {
                unreachable!("matching pool queue disconnected while the pool is alive");
            }
        }
        task(0);
        drop(guard);
        if latch.panicked.load(Ordering::Relaxed) {
            panic!("matching pool worker panicked");
        }
    }

    /// Makes at least `n` workers exist, starting the queue on first
    /// use.
    fn ensure_workers(&self, n: usize) {
        if self.spawned.load(Ordering::Acquire) >= n {
            return;
        }
        let _g = self.grow.lock().unwrap_or_else(|p| p.into_inner());
        let have = self.spawned.load(Ordering::Relaxed);
        if have >= n {
            return;
        }
        let (_, rx) = self.queue.get_or_init(unbounded);
        for i in have..n {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("transmob-match-{i}"))
                .spawn(move || worker_loop(rx))
                .expect("spawn matching pool worker");
        }
        self.spawned.store(n, Ordering::Release);
    }
}

/// Worker body: park on the queue, run jobs, report completion. Exits
/// when the pool (the last sender) is dropped.
fn worker_loop(rx: Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        let ok = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: the dispatching `run` call blocks until this job
            // reports done, keeping the pointee alive.
            unsafe { (job.call)(job.ctx, job.slot) }
        }))
        .is_ok();
        job.latch.done(!ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_fanout_spawns_nothing() {
        let pool = WorkerPool::new();
        let hits = AtomicUsize::new(0);
        pool.run(1, &|slot| {
            assert_eq!(slot, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(pool.stats().workers_spawned, 0);
        assert_eq!(pool.stats().runs, 1);
    }

    #[test]
    fn workers_are_reused_across_runs() {
        let pool = WorkerPool::new();
        for _ in 0..10 {
            let mask = AtomicUsize::new(0);
            pool.run(4, &|slot| {
                mask.fetch_or(1 << slot, Ordering::Relaxed);
            });
            assert_eq!(mask.load(Ordering::Relaxed), 0b1111, "all slots ran");
        }
        let stats = pool.stats();
        assert_eq!(stats.workers_spawned, 3, "workers spawned once, reused");
        assert_eq!(stats.runs, 10);
    }

    #[test]
    fn pool_grows_to_the_largest_fanout() {
        let pool = WorkerPool::new();
        pool.run(2, &|_| {});
        assert_eq!(pool.stats().workers_spawned, 1);
        pool.run(5, &|_| {});
        assert_eq!(pool.stats().workers_spawned, 4);
        pool.run(3, &|_| {});
        assert_eq!(
            pool.stats().workers_spawned,
            4,
            "never shrinks, never respawns"
        );
    }

    #[test]
    fn run_borrows_caller_state_mutably_through_sync_cells() {
        let pool = WorkerPool::new();
        let data: Vec<Mutex<usize>> = (0..8).map(Mutex::new).collect();
        pool.run(4, &|slot| {
            for cell in &data {
                let mut g = cell.lock().unwrap();
                *g += slot; // every slot touches every cell
            }
        });
        let total: usize = data.into_iter().map(|c| c.into_inner().unwrap()).sum();
        // initial 0+..+7 = 28, plus (0+1+2+3) added to each of 8 cells.
        assert_eq!(total, 28 + 6 * 8);
    }

    #[test]
    fn worker_panic_is_reraised_on_the_caller() {
        let pool = WorkerPool::new();
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, &|slot| {
                if slot == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err(), "panic must cross back to the caller");
        // The pool must remain usable after a worker panic.
        let ok = AtomicUsize::new(0);
        pool.run(3, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 3);
    }
}
