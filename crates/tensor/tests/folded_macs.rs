//! `tensor.gemm.folded_macs` against `tensor.gemm.macs`: every MAC is
//! folded in a dense matmul, and fewer than `m·n·k` in a conv3d forward
//! over a mostly empty grid, whose packer skips the empty taps.
//!
//! The trace toggle and counters are process-global, so this file holds
//! exactly one test.

use dfpool::Pool;
use dftensor::ops::conv3d_forward;
use dftensor::rng::rng;
use dftensor::Tensor;

#[test]
fn folded_macs_equal_macs_when_dense_and_fall_below_on_a_sparse_conv() {
    let mut r = rng(31);
    let a = Tensor::randn(&[37, 300], &mut r);
    let b = Tensor::randn(&[300, 21], &mut r);
    let mut x = Tensor::zeros(&[2, 2, 6, 6, 6]);
    x.data_mut()[100] = 1.5;
    x.data_mut()[700] = -0.25;
    let w = Tensor::randn(&[3, 2, 3, 3, 3], &mut r);
    Pool::new(1).install(|| {
        dftrace::set_enabled(true);
        let traced = |f: &dyn Fn()| {
            dftrace::reset();
            f();
            let t = dftrace::snapshot();
            (t.counter("tensor.gemm.folded_macs"), t.counter("tensor.gemm.macs"))
        };
        let dense = traced(&|| {
            a.matmul(&b);
        });
        let sparse = traced(&|| {
            conv3d_forward(&x, &w, 1);
        });
        dftrace::set_enabled(false);
        assert_eq!(dense, (37 * 300 * 21, 37 * 300 * 21), "dense matmul (folded, macs)");
        let (folded, macs) = sparse;
        assert_eq!(macs, 2 * 216 * 3 * 54, "conv macs keep their m·n·k meaning");
        assert!(0 < folded && folded < macs, "sparse conv folded {folded} of {macs} MACs");
    });
}
