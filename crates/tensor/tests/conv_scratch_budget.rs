//! Scratch-arena budget of the conv3d forward at the production conv1
//! shape, on both of its paths: a dense input through the implicit GEMM —
//! the regression test that nobody re-materializes the `[spatial × C·k³]`
//! column matrix (27.6 MB for this call when forward lowered through
//! im2col) — and a voxel-sparse input through the scatter.
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
    let dense = Tensor::randn(&[2, 16, 12, 12, 12], &mut r);
    // One voxel in 40 holds a value, as in a voxelized pose.
    let mut sparse = Tensor::zeros(dense.shape());
    for (i, v) in sparse.data_mut().iter_mut().enumerate().filter(|(i, _)| i % 40 == 7) {
        *v = 0.5 + (i % 7) as f32;
    }
    let w = Tensor::randn(&[8, 16, 5, 5, 5], &mut r);
    // One lane: every checkout happens on this thread, so the second call
    // cannot land on a pool worker whose arena is still cold.
    Pool::new(1).install(|| {
        dftrace::set_enabled(true);
        let traced_call = |x: &Tensor| {
            dftrace::reset();
            conv3d_forward(x, &w, 2);
            let t = dftrace::snapshot();
            (
                t.counter("tensor.scratch.misses"),
                t.counter("tensor.scratch.grow_bytes"),
                t.counter("tensor.conv3d.batched_gemms"),
            )
        };
        let dense_first = traced_call(&dense);
        let dense_second = traced_call(&dense);
        let sparse_first = traced_call(&sparse);
        let sparse_second = traced_call(&sparse);
        dftrace::set_enabled(false);
        assert!(dense_first.0 > 0, "first call must have grown the cold arena");
        for (first, second, gemms, input) in
            [(dense_first, dense_second, 1, "dense"), (sparse_first, sparse_second, 0, "sparse")]
        {
            assert!(first.1 < 4 << 20, "{input}: first call grew the arena by {} bytes", first.1);
            assert_eq!(first.2, gemms, "{input}: GEMMs issued");
            assert_eq!(
                (second.0, second.1),
                (0, 0),
                "{input}: second call must run entirely from the warm arena"
            );
        }
    });
}
