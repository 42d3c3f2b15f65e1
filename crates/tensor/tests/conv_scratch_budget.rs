//! Scratch-arena budget of the conv3d forward at the production conv1
//! shape — the regression test that nobody re-materializes the
//! `[spatial × C·k³]` column matrix (32.8 MB for this call when forward
//! lowered through im2col).
//!
//! The trace toggle and counters are process-global, so this file holds
//! exactly one test.

use dfpool::Pool;
use dftensor::ops::conv3d_forward;
use dftensor::rng::rng;
use dftensor::Tensor;

#[test]
fn conv1_forward_scratch_is_small_and_reused() {
    let mut r = rng(24);
    let x = Tensor::randn(&[2, 19, 12, 12, 12], &mut r);
    let w = Tensor::randn(&[8, 19, 5, 5, 5], &mut r);
    // One lane: every checkout happens on this thread, so the second call
    // cannot land on a pool worker whose arena is still cold.
    Pool::new(1).install(|| {
        dftrace::set_enabled(true);
        let traced_call = || {
            dftrace::reset();
            conv3d_forward(&x, &w, 2);
            let t = dftrace::snapshot();
            (t.counter("tensor.scratch.misses"), t.counter("tensor.scratch.grow_bytes"))
        };
        let (first_misses, first_grown) = traced_call();
        let second = traced_call();
        dftrace::set_enabled(false);
        assert!(first_misses > 0, "first call must have grown the cold arena");
        assert!(first_grown < 4 << 20, "first call grew the arena by {first_grown} bytes");
        assert_eq!(second, (0, 0), "second call must run entirely from the warm arena");
    });
}
