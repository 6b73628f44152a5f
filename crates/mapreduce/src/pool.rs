//! A persistent worker-thread pool.
//!
//! The seed engine spawned two batches of scoped threads for *every* job
//! (one for the map phase, one for the reduce phase). HaTen2 runs
//! thousands of small jobs per decomposition, so thread creation itself
//! became a measurable fixed cost per job — exactly the real-Hadoop
//! pathology the cost model charges `per_job_overhead_s` for, except paid
//! in host time. [`WorkerPool`] amortizes it: threads are spawned once,
//! lazily, on the first job a [`crate::Cluster`] runs, and parked on a
//! condition variable between phases.
//!
//! The pool exposes one primitive, [`WorkerPool::broadcast`]: run a
//! closure once per executor, concurrently, and return when all
//! invocations finish. The calling thread always acts as one of the
//! executors, so a pool of `N` workers serves `N + 1` executors, and a
//! pool of zero workers degrades to plain inline execution with no
//! synchronization at all — the fast path on single-core hosts.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn try_pop(&self) -> Option<Job> {
        self.queue.lock().expect("pool queue poisoned").pop_front()
    }
}

/// Countdown latch: `broadcast` waits on it until every dispatched
/// executor has finished (successfully or by panic).
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut n = self.remaining.lock().expect("latch poisoned");
        *n -= 1;
        if *n == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().expect("latch poisoned") == 0
    }

    fn wait(&self) {
        let mut n = self.remaining.lock().expect("latch poisoned");
        while *n > 0 {
            n = self.done.wait(n).expect("latch poisoned");
        }
    }
}

/// A fixed set of parked worker threads executing [`WorkerPool::broadcast`]
/// calls. Created once per [`crate::Cluster`] and reused by every job.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawn `workers` parked threads. Zero workers is valid and makes
    /// every [`WorkerPool::broadcast`] run inline on the caller.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        #[expect(
            clippy::disallowed_methods,
            reason = "the pool owns the engine's OS threads; everything else broadcasts to it"
        )]
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mr-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
        }
    }

    /// Number of pool threads (excluding the caller, which participates in
    /// every broadcast).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f(executor_index)` once per executor, concurrently, and return
    /// when all invocations have finished. The first `min(executors - 1,
    /// workers)` executors are dispatched to pool workers; the calling
    /// thread runs the rest (sequentially, if more than one). While
    /// waiting, the caller helps drain the queue, so a broadcast issued
    /// from *inside* a pool worker (nested jobs) cannot deadlock. If any
    /// invocation panics, the panic is re-raised on the caller after all
    /// executors finish.
    ///
    /// `f` may borrow caller-local state: no invocation of `f` outlives
    /// this call.
    // This function holds one of the workspace's two unsafe sites (the
    // lifetime transmute below; the other is `fill.rs`); the crate root
    // otherwise denies `unsafe_code`. Its invariant is exercised by
    // `tests/pool_stress.rs`, which hammers pool reuse, nesting,
    // borrowed state, and panics at maximum thread counts under this
    // exact entry point.
    #[allow(unsafe_code, reason = "the lifetime transmute; SAFETY below")]
    pub fn broadcast(&self, executors: usize, f: &(dyn Fn(usize) + Sync)) {
        let n = executors.max(1);
        let dispatched = (n - 1).min(self.workers);
        if dispatched == 0 {
            // Inline path: every executor runs sequentially on the caller.
            // Correct for any `f` that partitions work via a shared counter
            // (each invocation drains whatever work remains).
            for i in 0..n {
                f(i);
            }
            return;
        }

        // SAFETY: the transmute only erases the lifetime of `f`'s borrow
        // (`&'a dyn Fn(usize) + Sync` → `&'static`); pointee type, layout
        // and the `Sync` bound are unchanged. The erased reference is
        // sound because every dispatched use of `f_static` is over before
        // this function returns, which the following invariants guarantee:
        //
        // 1. Exactly `dispatched` closures capturing `f_static` are ever
        //    created, each counting `latch` (initialized to `dispatched`)
        //    down exactly once — *after* its call into `f_static` returns
        //    or panics (the `catch_unwind` cannot be skipped).
        // 2. This function does not return, and the caller's own panic is
        //    not resumed, before `latch.is_done()`: the help-first loop
        //    below runs to completion even when the caller's executor
        //    panicked (its payload is stashed and re-raised only after
        //    the latch drains).
        // 3. The queued closures are owned by this pool's queue and only
        //    ever executed, never leaked to another thread's storage: a
        //    worker (or the helping caller) pops a job and runs it to
        //    completion on its own stack, so no copy of `f_static`
        //    survives a job's `latch.count_down()`.
        //
        // Hence the apparent `'static` never outlives the real borrow of
        // `f`. `tests/pool_stress.rs` exercises this invariant under pool
        // reuse, nesting, borrowed stack state, panics, and maximum
        // thread counts.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let latch = Arc::new(Latch::new(dispatched));
        let first_panic: Arc<Mutex<Option<PanicPayload>>> = Arc::new(Mutex::new(None));

        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            for i in 0..dispatched {
                let latch = Arc::clone(&latch);
                let first_panic = Arc::clone(&first_panic);
                queue.push_back(Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| f_static(i)));
                    if let Err(payload) = result {
                        first_panic
                            .lock()
                            .expect("panic slot poisoned")
                            .get_or_insert(payload);
                    }
                    latch.count_down();
                }));
            }
        }
        // Waking every parked worker for a single queued job makes the
        // extra workers contend on the queue lock just to find it empty —
        // measurable on small broadcasts (a DAG scheduler dispatching one
        // ready job at a time). One job needs one worker.
        if dispatched == 1 {
            self.shared.available.notify_one();
        } else {
            self.shared.available.notify_all();
        }

        // The caller runs every executor not dispatched to the pool (all of
        // them beyond the first `dispatched` when the pool is smaller than
        // the broadcast). Catch its panic so unwinding cannot tear down the
        // borrowed state while workers still use it.
        let caller_result = catch_unwind(AssertUnwindSafe(|| {
            for i in dispatched..n {
                f(i);
            }
        }));

        // Help-first wait: drain queued jobs (ours or a concurrent
        // broadcast's) instead of blocking while work is available.
        while !latch.is_done() {
            match self.shared.try_pop() {
                Some(job) => job(),
                None => latch.wait(),
            }
        }

        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        let worker_panic = first_panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

/// The pool of one cluster, spawned on first use and shared (`Arc`) by the
/// [`crate::Cluster`] and its [`crate::Dfs`]: jobs and block-parallel
/// dataset I/O draw on the same `threads`, never on more.
#[derive(Debug)]
pub(crate) struct SharedPool {
    threads: usize,
    pool: OnceLock<WorkerPool>,
}

impl SharedPool {
    /// A pool serving `threads` executors, the caller included; nothing is
    /// spawned yet.
    pub(crate) fn new(threads: usize) -> Self {
        SharedPool {
            threads,
            pool: OnceLock::new(),
        }
    }

    /// Executors a full-width broadcast on this pool runs.
    pub(crate) fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// The pool itself: `threads - 1` workers, because the broadcasting
    /// thread always participates; with `threads <= 1` it is empty and
    /// broadcasts run inline.
    pub(crate) fn get(&self) -> &WorkerPool {
        self.pool
            .get_or_init(|| WorkerPool::new(self.threads.saturating_sub(1)))
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.available.wait(queue).expect("pool queue poisoned");
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Set the flag under the queue lock. A worker checks it while
        // holding that lock and keeps the lock until it is parked, so the
        // store cannot land between its check and its wait — where the
        // wake-up below would be lost and the join would never return.
        // A poisoned lock is still held by the guard inside the error.
        {
            let _queue = self.shared.queue.lock();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            // A worker can only panic if a job's panic escaped catch_unwind,
            // which broadcast prevents; ignore the result to keep Drop quiet.
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn broadcast_runs_every_executor() {
        for workers in [0, 1, 3] {
            let pool = WorkerPool::new(workers);
            let hits = AtomicUsize::new(0);
            pool.broadcast(4, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 4, "workers={workers}");
        }
    }

    #[test]
    fn broadcast_borrows_local_state() {
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..100).collect();
        let total = AtomicUsize::new(0);
        let next = AtomicUsize::new(0);
        pool.broadcast(3, &|_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= data.len() {
                break;
            }
            total.fetch_add(data[i] as usize, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn pool_is_reusable_across_broadcasts() {
        let pool = WorkerPool::new(2);
        for round in 0..50 {
            let hits = AtomicUsize::new(0);
            pool.broadcast(3, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 3, "round={round}");
        }
    }

    #[test]
    fn nested_broadcast_does_not_deadlock() {
        let pool = WorkerPool::new(1);
        let inner_hits = AtomicUsize::new(0);
        pool.broadcast(2, &|_| {
            pool.broadcast(2, &|_| {
                inner_hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(3, &|i| {
                if i == 0 {
                    panic!("boom from worker");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives the panic and stays usable.
        let hits = AtomicUsize::new(0);
        pool.broadcast(3, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn caller_panic_waits_for_workers() {
        let pool = WorkerPool::new(2);
        let data = [1u64, 2, 3];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(3, &|i| {
                if i == 2 {
                    // The caller's executor panics while workers still
                    // read `data`; broadcast must not unwind past `data`
                    // until they finish.
                    panic!("boom from caller");
                }
                assert_eq!(data.iter().sum::<u64>(), 6);
            });
        }));
        assert!(result.is_err());
    }
}
