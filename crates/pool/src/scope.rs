//! Scoped (non-`'static`) job spawning.
//!
//! The crate's one raw operation lives here: a spawned closure may
//! borrow from the caller's stack (`'env`), but the pool's queues hold
//! `'static` jobs, so the lifetime is erased with a transmute. Soundness
//! rests on a single invariant, enforced by [`run_scoped`]'s wait guard:
//! **the scope does not return — even by unwinding — until its latch says
//! every spawned job has finished.** Borrowed data therefore strictly
//! outlives every job that references it.

use crate::latch::CountLatch;
use crate::{Job, Pool};
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

struct ScopeState {
    latch: CountLatch,
    /// First panic payload from any job; re-thrown when the scope closes.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn store_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// Spawn handle passed to the closure of [`Pool::scoped`]. Jobs may borrow
/// anything that outlives the `scoped` call (`'env`).
pub(crate) struct Scope<'pool, 'env> {
    pool: &'pool Pool,
    state: Arc<ScopeState>,
    /// Invariant over 'env, like std's scoped threads.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Queues `f` on the pool. On a one-lane pool it runs inline, so the
    /// serial fallback has identical semantics (including panic capture).
    pub(crate) fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if self.pool.threads() == 1 {
            if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
                self.state.store_panic(p);
            }
            return;
        }
        self.state.latch.increment();
        let state = Arc::clone(&self.state);
        let pool = self.pool.clone();
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
                state.store_panic(p);
            }
            if state.latch.decrement() {
                pool.wake_waiters();
            }
        });
        // SAFETY: lifetime erasure. run_scoped's wait guard keeps the
        // 'env frame alive until this job's latch decrement, so the
        // borrows inside `job` never dangle. Fat-pointer layout of
        // Box<dyn FnOnce> is lifetime-independent.
        let job: Job = unsafe { std::mem::transmute(job) };
        self.pool.push_job(job);
    }
}

pub(crate) fn run_scoped<'pool, 'env, R>(
    pool: &'pool Pool,
    f: impl FnOnce(&Scope<'pool, 'env>) -> R,
) -> R {
    let scope: Scope<'pool, 'env> = Scope {
        pool,
        state: Arc::new(ScopeState { latch: CountLatch::new(), panic: Mutex::new(None) }),
        _env: PhantomData,
    };

    /// Waits for all spawned jobs on drop — the normal path *and* the
    /// unwind path when `f` itself panics (the soundness invariant).
    struct WaitGuard<'a> {
        pool: &'a Pool,
        state: &'a ScopeState,
    }
    impl Drop for WaitGuard<'_> {
        fn drop(&mut self) {
            let state = self.state;
            self.pool.help_until(&|| state.latch.is_zero());
        }
    }

    let result = {
        let _guard = WaitGuard { pool, state: &scope.state };
        f(&scope)
        // _guard drops here: helps until every spawned job completed.
    };

    let first_panic = scope.state.panic.lock().unwrap_or_else(|p| p.into_inner()).take();
    if let Some(p) = first_panic {
        resume_unwind(p);
    }
    result
}
