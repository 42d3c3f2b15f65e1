//! Work-stealing thread pool for the screening hot paths.
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** There are two data-parallel primitives, and both
//!    hand each job a disjoint contiguous band of one buffer, so pooled
//!    execution is bit-identical to serial execution regardless of thread
//!    count or interleaving. [`Pool::parallel_rows`] cuts the caller's
//!    buffer into row bands; [`Pool::parallel_map`] cuts a buffer of
//!    pre-allocated result slots the same way and returns them in index
//!    order.
//! 2. **Safe slices.** Bands are carved with `chunks_mut`, so jobs only
//!    ever hold `&mut` slices. The crate's one raw operation is the
//!    lifetime erasure that lets a queued job borrow the caller's stack
//!    (`scope.rs`).
//! 3. **No blocked waiters.** Threads that wait for work to finish
//!    (the caller of a parallel primitive, or a worker executing a nested
//!    one) *help*: they pull queued jobs and run them instead of blocking.
//!    This makes nested parallelism deadlock-free by construction.
//! 4. **Zero heavy dependencies.** Built on `std::thread` plus the
//!    crossbeam deque types (injector + per-worker LIFO deques with
//!    stealers).
//!
//! A pool of `n` threads means *total* parallelism `n`: it spawns `n - 1`
//! workers and the submitting thread is the n-th lane. `Pool::new(1)` spawns
//! nothing and every primitive degenerates to the serial loop.
//!
//! ## Pool selection
//!
//! Hot paths call [`current`], which resolves to the pool installed on this
//! thread by [`Pool::install`], else the process-global pool ([`global`]),
//! whose size comes from `DFPOOL_THREADS` (default:
//! `std::thread::available_parallelism`). Worker threads run with their own
//! pool pre-installed, so nested primitives reuse it. Code that hands work
//! to raw `std::thread`s (rank simulations, loader workers) captures
//! `current()` and re-`install`s it inside each spawned thread.
//!
//! ## Determinism contract
//!
//! Callers may rely on the following, for any thread count and any
//! scheduling interleaving:
//!
//! * [`Pool::parallel_map`] returns results in item-index order;
//! * [`Pool::parallel_rows`] hands each row band to exactly one job, so a
//!   per-row computation is bit-identical to the serial loop;
//! * band boundaries, and [`Pool::lanes`] which kernels size them by, are
//!   scheduling only: they decide which job writes a row, never the
//!   order in which a row's value is computed.
//!
//! `tests/parallel_determinism.rs` at the workspace root locks serial ==
//! 2/4/8-thread execution bit-exactly for every hot path built on these
//! primitives.
//!
//! ## Environment variables
//!
//! * `DFPOOL_THREADS` — total parallelism of the process-global pool
//!   (default: `std::thread::available_parallelism`); values < 1 clamp
//!   to 1.
//! * `DFTRACE` — when set to `1`/`true`/`on`, the pool records telemetry
//!   through `dftrace`: `pool.queue_wait_us` and `pool.run_us` histograms
//!   per job, `pool.jobs` / `pool.steal.deque` / `pool.steal.injector`
//!   counters, and per-lane `pool.lane.*.busy_ns` counters from which
//!   per-thread utilization is derived. Tracing is write-only telemetry:
//!   it never changes scheduling or results (see `dftrace`'s determinism
//!   contract).

#![warn(missing_docs)]

mod latch;
mod scope;

use crossbeam::deque::{Injector, Stealer, Worker};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A unit of queued work. Jobs are `'static` at the queue boundary; scoped
/// lifetimes are erased (and re-guaranteed by completion latches) in
/// [`scope`].
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// Pool installed on this thread by `Pool::install` (or worker startup).
    static CURRENT: RefCell<Option<Pool>> = const { RefCell::new(None) };
    /// Set inside workers: (owning pool id, worker index).
    static WORKER: RefCell<Option<(usize, usize)>> = const { RefCell::new(None) };
}

struct Shared {
    id: usize,
    threads: usize,
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    /// Pending-job signal for parked workers.
    idle_mutex: Mutex<()>,
    idle_cv: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Takes one queued job: own deque first (LIFO, cache-warm), then the
    /// injector, then steals from other workers.
    fn find_job(&self, local: Option<&Worker<Job>>, self_index: Option<usize>) -> Option<Job> {
        if let Some(w) = local {
            if let Some(job) = w.pop() {
                return Some(job);
            }
        }
        loop {
            let steal = self.injector.steal();
            if let crossbeam::deque::Steal::Success(job) = steal {
                dftrace::counter_add("pool.steal.injector", 1);
                return Some(job);
            }
            if !steal.is_retry() {
                break;
            }
        }
        for (i, s) in self.stealers.iter().enumerate() {
            if Some(i) == self_index {
                continue;
            }
            loop {
                let steal = s.steal();
                if let crossbeam::deque::Steal::Success(job) = steal {
                    dftrace::counter_add("pool.steal.deque", 1);
                    return Some(job);
                }
                if !steal.is_retry() {
                    break;
                }
            }
        }
        None
    }

    fn notify(&self) {
        let _g = self.idle_mutex.lock().unwrap_or_else(|p| p.into_inner());
        self.idle_cv.notify_all();
    }
}

/// A work-stealing thread pool. Cheap to clone (shared handle); the worker
/// threads shut down when the last handle drops.
#[derive(Clone)]
pub struct Pool {
    shared: Arc<Shared>,
    /// Join handles live in a separate Arc so `Pool` clones stay cheap and
    /// the drop of the last handle can join the workers.
    workers: Arc<WorkerHandles>,
}

struct WorkerHandles {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for WorkerHandles {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.notify();
        for h in self.handles.lock().unwrap_or_else(|p| p.into_inner()).drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("threads", &self.shared.threads).finish()
    }
}

impl Pool {
    /// Creates a pool with total parallelism `threads` (>= 1): `threads - 1`
    /// workers plus the submitting thread.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let worker_deques: Vec<Worker<Job>> =
            (0..threads - 1).map(|_| Worker::new_lifo()).collect();
        let stealers = worker_deques.iter().map(Worker::stealer).collect();
        let shared = Arc::new(Shared {
            id,
            threads,
            injector: Injector::new(),
            stealers,
            idle_mutex: Mutex::new(()),
            idle_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let pool = Pool {
            shared: Arc::clone(&shared),
            workers: Arc::new(WorkerHandles {
                shared: Arc::clone(&shared),
                handles: Mutex::new(Vec::new()),
            }),
        };
        let mut handles = Vec::with_capacity(threads - 1);
        for (index, deque) in worker_deques.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let pool_for_worker = pool.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("dfpool-{id}-{index}"))
                    .spawn(move || worker_main(shared, deque, index, pool_for_worker))
                    .expect("spawn pool worker"),
            );
        }
        *pool.workers.handles.lock().unwrap_or_else(|p| p.into_inner()) = handles;
        pool
    }

    /// Total parallelism (worker threads + the submitting thread).
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Lanes a kernel of uniform work can usefully fan out to:
    /// `min(threads, host CPUs)`. A pool configured with more threads than
    /// the host has cores gains nothing from extra bands of uniform work,
    /// it only pays scheduling overhead. Purely a performance hint — band
    /// boundaries never affect results — so consulting host topology keeps
    /// runs bit-identical across machines.
    pub fn lanes(&self) -> usize {
        self.threads().min(host_parallelism())
    }

    /// Runs `f` with this pool installed as the thread's current pool, so
    /// every `dfpool`-aware hot path inside `f` uses it.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(self.clone()));
        struct Restore(Option<Pool>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        let _restore = Restore(prev);
        f()
    }

    pub(crate) fn push_job(&self, job: Job) {
        // Telemetry wrapping happens at the queue boundary so queue-wait
        // (push -> execution start) and run time are both visible; with
        // tracing off the job is enqueued untouched.
        let job = if dftrace::enabled() { instrumented_job(job) } else { job };
        // From inside one of this pool's workers, push to its own LIFO
        // deque (depth-first, cache-warm); otherwise through the injector.
        let local = WORKER.with(|w| *w.borrow());
        match local {
            Some((pool_id, _)) if pool_id == self.shared.id => {
                LOCAL_DEQUE.with(|d| {
                    let d = d.borrow();
                    match d.as_ref() {
                        Some(w) => w.push(job),
                        None => self.shared.injector.push(job),
                    }
                });
            }
            _ => self.shared.injector.push(job),
        }
        self.shared.notify();
    }

    /// Runs queued jobs until `done()`; never blocks while work remains.
    pub(crate) fn help_until(&self, done: &dyn Fn() -> bool) {
        let self_index =
            WORKER.with(|w| w.borrow().and_then(|(pid, i)| (pid == self.shared.id).then_some(i)));
        while !done() {
            let job = LOCAL_DEQUE.with(|d| {
                let d = d.borrow();
                let local = if self_index.is_some() { d.as_ref() } else { None };
                self.shared.find_job(local, self_index)
            });
            match job {
                Some(job) => job(),
                None => {
                    // Nothing runnable: our outstanding jobs are being
                    // executed elsewhere. Park briefly; the timeout guards
                    // against a wakeup racing the final decrement.
                    let g = self.shared.idle_mutex.lock().unwrap_or_else(|p| p.into_inner());
                    if done() {
                        return;
                    }
                    let _ = self.shared.idle_cv.wait_timeout(g, Duration::from_micros(100));
                }
            }
        }
    }

    pub(crate) fn wake_waiters(&self) {
        self.shared.notify();
    }

    // -----------------------------------------------------------------
    // Parallel primitives
    // -----------------------------------------------------------------

    /// Runs `f` with a [`scope::Scope`] in which non-`'static` jobs can be
    /// spawned; returns after every spawned job has finished. The first
    /// job panic (or a panic in `f`) resumes on the caller.
    pub(crate) fn scoped<'env, R>(&self, f: impl FnOnce(&scope::Scope<'_, 'env>) -> R) -> R {
        scope::run_scoped(self, f)
    }

    /// Maps `f` over `0..len` into a `Vec` whose order is by index —
    /// deterministic regardless of scheduling. The result slots are cut
    /// into bands of at least `min_chunk` items, as by
    /// [`Pool::parallel_rows`] with one slot per row.
    pub fn parallel_map<T, F>(&self, len: usize, min_chunk: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads() == 1 {
            return (0..len).map(f).collect();
        }
        let mut slots: Vec<Option<T>> = Vec::with_capacity(len);
        slots.resize_with(len, || None);
        self.parallel_rows(&mut slots, 1, min_chunk, |first, band| {
            for (i, slot) in band.iter_mut().enumerate() {
                *slot = Some(f(first + i));
            }
        });
        slots.into_iter().map(|s| s.expect("slot filled by its band")).collect()
    }

    /// Splits a flat `rows * row_len` buffer into contiguous row bands and
    /// runs `f(first_row, band)` on each in parallel. Each row is written
    /// by exactly one job, so results are identical to the serial loop
    /// whenever `f`'s per-row work is order-independent across rows.
    ///
    /// Every band but the last has `max(rows.div_ceil(4 * threads),
    /// min_rows)` rows, so a caller that passes a `min_rows` at least that
    /// large chooses the bands exactly. A single band (or a one-thread
    /// pool) runs inline on the calling thread without touching the queues.
    pub fn parallel_rows<T, F>(&self, data: &mut [T], row_len: usize, min_rows: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if row_len == 0 || data.is_empty() {
            return;
        }
        assert_eq!(data.len() % row_len, 0, "buffer not a whole number of rows");
        let rows = data.len() / row_len;
        let band = band_rows(rows, min_rows, self.threads());
        if self.threads() == 1 || band >= rows {
            f(0, data);
            return;
        }
        self.scoped(|s| {
            for (i, chunk) in data.chunks_mut(band * row_len).enumerate() {
                let f = &f;
                s.spawn(move || f(i * band, chunk));
            }
        });
    }
}

/// Wraps a job with `dftrace` telemetry: queue-wait and run-time
/// histograms, a job counter, and per-lane busy time (the lane is resolved
/// at execution time — `workerN` inside a pool worker, `caller` on a
/// submitting/helping thread). Only built when tracing is enabled.
fn instrumented_job(job: Job) -> Job {
    let queued = std::time::Instant::now();
    Box::new(move || {
        dftrace::observe_duration("pool.queue_wait_us", queued.elapsed());
        let run0 = std::time::Instant::now();
        job();
        let run = run0.elapsed();
        dftrace::observe_duration("pool.run_us", run);
        dftrace::counter_add("pool.jobs", 1);
        let busy_ns = run.as_nanos().min(u64::MAX as u128) as u64;
        match WORKER.with(|w| *w.borrow()) {
            Some((_, index)) => {
                dftrace::counter_add(&format!("pool.lane.worker{index}.busy_ns"), busy_ns)
            }
            None => dftrace::counter_add("pool.lane.caller.busy_ns", busy_ns),
        }
    })
}

/// Rows per band, balancing grain (`min_rows`) against one-band-per-lane
/// splitting; at most `4 * threads` bands for cheap stealing without
/// queue flooding.
fn band_rows(rows: usize, min_rows: usize, threads: usize) -> usize {
    let target_bands = threads.saturating_mul(4).max(1);
    rows.div_ceil(target_bands).max(min_rows.max(1))
}

thread_local! {
    /// The worker's own LIFO deque, reachable from nested `push_job` calls.
    static LOCAL_DEQUE: RefCell<Option<Worker<Job>>> = const { RefCell::new(None) };
}

fn worker_main(shared: Arc<Shared>, deque: Worker<Job>, index: usize, pool: Pool) {
    WORKER.with(|w| *w.borrow_mut() = Some((shared.id, index)));
    LOCAL_DEQUE.with(|d| *d.borrow_mut() = Some(deque));
    // Nested primitives inside jobs resolve `current()` to this pool.
    pool.install(|| loop {
        let job = LOCAL_DEQUE.with(|d| shared.find_job(d.borrow().as_ref(), Some(index)));
        match job {
            Some(job) => {
                // A panicking job must not kill the worker; the panic is
                // captured and re-thrown at the scope that spawned it.
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Park until notified. `push_job` notifies under the same
                // mutex, but `find_job` ran outside it, so a job pushed in
                // that window could slip past the notify — the timeout is
                // the backstop for that race, not a polling interval. It is
                // deliberately long: on small hosts a short poll makes every
                // idle worker wake at kHz rates and steal cycles from the
                // thread doing actual work.
                let g = shared.idle_mutex.lock().unwrap_or_else(|p| p.into_inner());
                let _ = shared.idle_cv.wait_timeout(g, Duration::from_millis(50));
            }
        }
    });
    LOCAL_DEQUE.with(|d| *d.borrow_mut() = None);
    WORKER.with(|w| *w.borrow_mut() = None);
}

// ---------------------------------------------------------------------
// Global / current pool
// ---------------------------------------------------------------------

/// Reads `DFPOOL_THREADS` (>= 1) or falls back to the machine parallelism.
fn default_threads() -> usize {
    if let Ok(v) = std::env::var("DFPOOL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The process-global pool, sized on first use from `DFPOOL_THREADS` (or
/// available parallelism when unset).
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

/// The pool hot paths should use: the innermost [`Pool::install`]ed pool on
/// this thread, else the global one.
pub fn current() -> Pool {
    CURRENT.with(|c| c.borrow().clone()).unwrap_or_else(|| global().clone())
}

/// A one-lane pool: every primitive runs the plain serial loop.
pub fn serial() -> Pool {
    Pool::new(1)
}

/// CPUs visible to this process (cached after the first call; 1 when the
/// query fails); read only through [`Pool::lanes`].
fn host_parallelism() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{mpsc, Barrier};

    #[test]
    fn parallel_map_matches_serial_for_all_thread_counts() {
        let expected: Vec<u64> = (0..1000u64).map(|i| i * i + 1).collect();
        for threads in [1, 2, 3, 4, 8] {
            let pool = Pool::new(threads);
            let got = pool.parallel_map(1000, 1, |i| (i as u64) * (i as u64) + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn scoped_borrows_stack_data() {
        let pool = Pool::new(4);
        let data = vec![1u64, 2, 3, 4, 5];
        let total = AtomicU64::new(0);
        pool.scoped(|s| {
            for v in &data {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(*v, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn job_panic_resumes_on_caller() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.scoped(|s| {
                    s.spawn(|| panic!("boom-from-job"));
                    s.spawn(|| {}); // healthy sibling still completes
                });
            }));
            let payload = caught.expect_err("panic should propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "boom-from-job", "threads={threads}");
        }
    }

    /// A job that panics inside `parallel_map` reaches the caller, and the
    /// pool keeps all four lanes. Four one-item bands that each wait on one
    /// shared barrier occupy all four lanes at once, so the item chosen to
    /// panic — the first past the barrier off the calling thread — panics
    /// on a worker; afterwards the same four-band barrier can only release
    /// if every lane is still there. The body runs under a watchdog so a
    /// lost lane fails instead of hanging the test.
    #[test]
    fn panicking_job_loses_no_lane() {
        let (done, finished) = mpsc::channel();
        let body = std::thread::spawn(move || {
            let pool = Pool::new(4);
            let caller = std::thread::current().id();
            let barrier = Barrier::new(4);
            let armed = AtomicBool::new(true);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.parallel_map(4, 1, |i| {
                    barrier.wait();
                    let on_worker = std::thread::current().id() != caller;
                    if on_worker && armed.swap(false, Ordering::SeqCst) {
                        panic!("boom-on-a-worker");
                    }
                    i
                })
            }));
            let payload = caught.expect_err("panic should reach the caller");
            assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom-on-a-worker"));

            let mut rows = vec![0usize; 4];
            pool.parallel_rows(&mut rows, 1, 1, |first, band| {
                barrier.wait();
                band[0] = first + 1;
            });
            done.send(rows).expect("watchdog still listening");
        });
        match finished.recv_timeout(Duration::from_secs(30)) {
            Ok(rows) => assert_eq!(rows, vec![1, 2, 3, 4]),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("pool lost a lane: the four-band barrier never released")
            }
            // The body panicked; joining below re-raises its panic.
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
        }
        if let Err(panic) = body.join() {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn nested_parallelism_completes() {
        let pool = Pool::new(4);
        let out = pool.parallel_map(8, 1, |i| {
            // Nested primitive on the same pool from inside a job.
            current().parallel_map(16, 1, |j| (i * j) as u64).into_iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..8).map(|i| (0..16).map(|j| (i * j) as u64).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn install_overrides_current() {
        let pool = Pool::new(2);
        let inside = pool.install(|| current().threads());
        assert_eq!(inside, 2);
        // Workers resolve current() to their own pool.
        let via_worker = pool.install(|| current().parallel_map(4, 1, |_| current().threads()));
        assert!(via_worker.iter().all(|&t| t == 2));
    }

    #[test]
    fn lanes_are_bounded_by_threads_and_host() {
        assert_eq!(Pool::new(1).lanes(), 1);
        assert_eq!(Pool::new(64).lanes(), 64.min(host_parallelism()));
    }

    #[test]
    fn parallel_rows_band_decomposition_is_exact() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let row_len = 7;
            let rows = 23;
            let mut data = vec![0u64; rows * row_len];
            pool.parallel_rows(&mut data, row_len, 2, |first_row, band| {
                for (r, row) in band.chunks_mut(row_len).enumerate() {
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = ((first_row + r) * 100 + c) as u64;
                    }
                }
            });
            for r in 0..rows {
                for c in 0..row_len {
                    assert_eq!(data[r * row_len + c], (r * 100 + c) as u64, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn serial_pool_spawns_no_threads_and_runs_inline() {
        let pool = serial();
        assert_eq!(pool.threads(), 1);
        let tid = std::thread::current().id();
        let ran_on = pool.parallel_map(3, 1, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|&t| t == tid));
    }
}
