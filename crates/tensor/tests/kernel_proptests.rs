//! Differential bit-exactness tests for the blocked GEMM and the
//! GEMM-lowered conv3d kernels against the naive reference oracle in
//! [`dftensor::ops::reference`].
//!
//! Every comparison here is `to_bits()` equality — no tolerances. The
//! optimized kernels promise the *same floats* as the reference (single
//! ascending-k accumulator per output element), and the same floats again
//! under any pool thread count **and any micro-kernel edition**: each case
//! runs the full cross of [`microkernel::available_paths`] (scalar always;
//! SSE2/AVX or NEON when built with `--features simd`) × 1/2/4/8-thread
//! pools. Shapes are drawn to cross the blocking boundaries: `k` spans
//! multiple KC=256 blocks, `m`/`n` straddle the MR=4 / NR=8 register tiles
//! and the MC=64 row block, and conv shapes include pads larger than the
//! kernel (receptive fields entirely inside the zero padding). Conv stride
//! is fixed at 1 by design (the paper's 3D-CNN pools instead of striding),
//! so stride is not a parameter.

use dfpool::Pool;
use dftensor::ops::microkernel;
use dftensor::ops::{conv3d_backward_input, conv3d_backward_weight, conv3d_forward, reference};
use dftensor::rng::rng;
use dftensor::Tensor;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Shared pools so the hundreds of proptest cases don't spawn threads each.
fn pool(threads: usize) -> &'static Pool {
    static POOLS: OnceLock<Vec<Pool>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| [1usize, 2, 4, 8].into_iter().map(Pool::new).collect());
    match threads {
        1 => &pools[0],
        2 => &pools[1],
        4 => &pools[2],
        _ => &pools[3],
    }
}

/// Collects a tensor's exact bit pattern.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Asserts `f` produces the reference bits for every available micro-kernel
/// edition on 1/2/4/8-thread pools. `with_forced` pins the edition on the
/// calling thread; `gemm` resolves it once at entry and carries it into the
/// pool jobs, so the forced edition covers the row-band jobs too.
fn assert_matches_reference(want: &Tensor, f: impl Fn() -> Tensor) -> Result<(), TestCaseError> {
    for path in microkernel::available_paths() {
        for threads in [1usize, 2, 4, 8] {
            let got = pool(threads).install(|| microkernel::with_forced(path, &f));
            prop_assert_eq!(
                bits(&got),
                bits(want),
                "{} edition on a {}-thread pool differs from reference",
                path.label(),
                threads
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked GEMM == naive triple loop, bitwise, for all three layout
    /// variants, serial and pooled. `k` up to 600 crosses two KC blocks.
    #[test]
    fn gemm_variants_match_reference_bitwise(
        seed in 0u64..1000,
        m in 1usize..70,
        k in 1usize..600,
        n in 1usize..40,
    ) {
        let mut r = rng(seed);
        let a = Tensor::randn(&[m, k], &mut r);
        let b = Tensor::randn(&[k, n], &mut r);
        let at = Tensor::randn(&[k, m], &mut r);
        let bt = Tensor::randn(&[n, k], &mut r);

        assert_matches_reference(&reference::matmul(&a, &b), || a.matmul(&b))?;
        assert_matches_reference(&reference::matmul_tn(&at, &b), || at.matmul_tn(&b))?;
        assert_matches_reference(&reference::matmul_nt(&a, &bt), || a.matmul_nt(&bt))?;
    }

    /// GEMM handles zeros exactly: the dense path has no zero-skip, and
    /// adding the `±0.0` products must not flip any bit.
    #[test]
    fn gemm_with_zero_entries_matches_reference_bitwise(
        seed in 0u64..1000,
        m in 1usize..20,
        k in 1usize..50,
        n in 1usize..20,
    ) {
        let mut r = rng(seed);
        let mut a = Tensor::randn(&[m, k], &mut r);
        let b = Tensor::randn(&[k, n], &mut r);
        // Zero every third element, half of them negative zero.
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        assert_matches_reference(&reference::matmul(&a, &b), || a.matmul(&b))?;
    }

    /// GEMM-lowered conv3d forward == reference, bitwise, over random
    /// shapes and pads (including pad > kernel), serial and pooled.
    #[test]
    fn conv3d_forward_matches_reference_bitwise(
        seed in 0u64..1000,
        bn in 1usize..3,
        c in 1usize..4,
        o in 1usize..5,
        d in 1usize..7,
        h in 1usize..7,
        w in 1usize..7,
        kd in 1usize..4,
        kh in 1usize..4,
        kw in 1usize..4,
        pad in 0usize..3,
    ) {
        prop_assume!(kd <= d + 2 * pad && kh <= h + 2 * pad && kw <= w + 2 * pad);
        let mut r = rng(seed);
        let x = Tensor::randn(&[bn, c, d, h, w], &mut r);
        let wt = Tensor::randn(&[o, c, kd, kh, kw], &mut r);
        let want = reference::conv3d_forward(&x, &wt, pad);
        assert_matches_reference(&want, || conv3d_forward(&x, &wt, pad))?;
    }

    /// conv3d backward passes (input + weight gradients) == reference,
    /// bitwise, serial and pooled.
    #[test]
    fn conv3d_backward_matches_reference_bitwise(
        seed in 0u64..1000,
        bn in 1usize..3,
        c in 1usize..4,
        o in 1usize..5,
        d in 1usize..6,
        h in 1usize..6,
        w in 1usize..6,
        kd in 1usize..4,
        kh in 1usize..4,
        kw in 1usize..4,
        pad in 0usize..3,
    ) {
        prop_assume!(kd <= d + 2 * pad && kh <= h + 2 * pad && kw <= w + 2 * pad);
        let mut r = rng(seed);
        let x = Tensor::randn(&[bn, c, d, h, w], &mut r);
        let wt = Tensor::randn(&[o, c, kd, kh, kw], &mut r);
        let y = reference::conv3d_forward(&x, &wt, pad);
        let gout = Tensor::randn(y.shape(), &mut r);

        let want_gx = reference::conv3d_backward_input(&gout, &wt, x.shape(), pad);
        assert_matches_reference(&want_gx, || {
            conv3d_backward_input(&gout, &wt, x.shape(), pad)
        })?;

        let want_gw = reference::conv3d_backward_weight(&gout, &x, wt.shape(), pad);
        assert_matches_reference(&want_gw, || {
            conv3d_backward_weight(&gout, &x, wt.shape(), pad)
        })?;
    }
}

/// One fixed large case crossing every blocking boundary at once
/// (k > 2·KC, m > MC, n not a multiple of NR) — kept outside proptest so a
/// regression names a deterministic failure.
#[test]
fn gemm_blocking_boundaries_fixed_case() {
    let mut r = rng(1234);
    let a = Tensor::randn(&[97, 531], &mut r);
    let b = Tensor::randn(&[531, 37], &mut r);
    let want = reference::matmul(&a, &b);
    for path in microkernel::available_paths() {
        for threads in [1usize, 2, 4, 8] {
            let got = pool(threads).install(|| microkernel::with_forced(path, || a.matmul(&b)));
            assert_eq!(bits(&got), bits(&want), "{} threads {threads}", path.label());
        }
    }
}

/// Production-size GEMMs above the serial cutoff, so on any host with two
/// or more CPUs the 2/4/8-thread pools take the row-band path: the conv1
/// forward of a batch-4 micro-batch (`m = 2048, k = 2000, n = 4`), and a
/// ragged `m = 1537` whose last band is short and ends mid MR panel.
#[test]
fn gemm_row_bands_at_production_shapes_match_reference_bitwise() {
    let mut r = rng(2048);
    for m in [2048usize, 1537] {
        let a = Tensor::randn(&[m, 2000], &mut r);
        let b = Tensor::randn(&[2000, 4], &mut r);
        let want = reference::matmul(&a, &b);
        for path in microkernel::available_paths() {
            for threads in [1usize, 2, 4, 8] {
                let got = pool(threads).install(|| microkernel::with_forced(path, || a.matmul(&b)));
                assert_eq!(bits(&got), bits(&want), "m={m} {} threads {threads}", path.label());
            }
        }
    }
}

/// Every MR×NR remainder edge: `m` around the MR=4 register tile, `n`
/// around one and two NR=8 panels, `k` straddling the KC=256 block. These
/// shapes exercise the partial-tile tails of each micro-kernel edition,
/// where a lane-count bug would first show.
#[test]
fn gemm_register_tile_remainders_match_reference_bitwise() {
    let mut r = rng(777);
    for m in [1usize, 3, 4, 5, 8, 9] {
        for n in [1usize, 7, 8, 9, 15, 16, 17] {
            for k in [1usize, 2, 255, 256, 257] {
                let a = Tensor::randn(&[m, k], &mut r);
                let b = Tensor::randn(&[k, n], &mut r);
                let want = reference::matmul(&a, &b);
                for path in microkernel::available_paths() {
                    let got = microkernel::with_forced(path, || a.matmul(&b));
                    assert_eq!(bits(&got), bits(&want), "{} m={m} n={n} k={k}", path.label());
                }
            }
        }
    }
}

/// Conv case large enough that the batched backward lowerings split the
/// batch into multiple column-matrix chunks (per-sample footprint ≈ 3.0M
/// floats against the 8M-element budget → chunks of 2 + 1 samples, a ragged
/// tail; forward writes no column matrix and runs it as one GEMM). Locks
/// the accumulate-across-chunks fold against the single-fold reference,
/// bitwise, serial and pooled.
#[test]
fn conv3d_multi_chunk_batches_match_reference_bitwise() {
    let mut r = rng(9876);
    let x = Tensor::randn(&[3, 14, 20, 20, 20], &mut r);
    let w = Tensor::randn(&[2, 14, 3, 3, 3], &mut r);
    let pad = 1;
    let want = reference::conv3d_forward(&x, &w, pad);
    let gout = Tensor::randn(want.shape(), &mut r);
    let want_gx = reference::conv3d_backward_input(&gout, &w, x.shape(), pad);
    let want_gw = reference::conv3d_backward_weight(&gout, &x, w.shape(), pad);
    for threads in [1usize, 4] {
        let y = pool(threads).install(|| conv3d_forward(&x, &w, pad));
        assert_eq!(bits(&y), bits(&want), "forward threads {threads}");
        let gx = pool(threads).install(|| conv3d_backward_input(&gout, &w, x.shape(), pad));
        assert_eq!(bits(&gx), bits(&want_gx), "gx threads {threads}");
        let gw = pool(threads).install(|| conv3d_backward_weight(&gout, &x, w.shape(), pad));
        assert_eq!(bits(&gw), bits(&want_gw), "gw threads {threads}");
    }
}

/// Fixed conv case with asymmetric spatial dims and kernel.
#[test]
fn conv3d_asymmetric_fixed_case() {
    let mut r = rng(4321);
    let x = Tensor::randn(&[2, 3, 6, 4, 5], &mut r);
    let w = Tensor::randn(&[4, 3, 3, 1, 2], &mut r);
    for pad in 0..=1 {
        let want = reference::conv3d_forward(&x, &w, pad);
        let y = pool(4).install(|| conv3d_forward(&x, &w, pad));
        assert_eq!(bits(&y), bits(&want), "pad {pad}");
        let gout = Tensor::randn(want.shape(), &mut r);
        let want_gx = reference::conv3d_backward_input(&gout, &w, x.shape(), pad);
        let want_gw = reference::conv3d_backward_weight(&gout, &x, w.shape(), pad);
        let gx = pool(4).install(|| conv3d_backward_input(&gout, &w, x.shape(), pad));
        let gw = pool(4).install(|| conv3d_backward_weight(&gout, &x, w.shape(), pad));
        assert_eq!(bits(&gx), bits(&want_gx), "gx pad {pad}");
        assert_eq!(bits(&gw), bits(&want_gw), "gw pad {pad}");
    }
}

/// One fixed conv case crossing every boundary of the gather packers at
/// once, bitwise against the reference for forward and weight gradient, on
/// every micro-kernel edition × 1/2/4-thread pools — then again with every
/// third input element `±0.0` (padding taps are `+0.0`; real zeros of
/// either sign must fold identically). With `pad 2`: `kdim = 625 > 2·KC`
/// (KC blocks start mid tap-run), `ow = 6` (MR = 4 panels straddle padded
/// x-rows), `3·216` rows (a panel straddles a sample boundary, `m > MC`,
/// a ragged last panel), `o = 9 > NR`. With `pad 0`: `ow = 2`, so no panel
/// is ever contiguous.
#[test]
fn conv3d_gather_packers_fixed_case() {
    let mut r = rng(2424);
    let mut x = Tensor::randn(&[3, 5, 6, 6, 6], &mut r);
    let w = Tensor::randn(&[9, 5, 5, 5, 5], &mut r);
    for zeroed in [false, true] {
        if zeroed {
            for (i, v) in x.data_mut().iter_mut().enumerate().filter(|(i, _)| i % 3 == 0) {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        for pad in [2usize, 0] {
            let want = reference::conv3d_forward(&x, &w, pad);
            let gout = Tensor::randn(want.shape(), &mut r);
            let want_gw = reference::conv3d_backward_weight(&gout, &x, w.shape(), pad);
            for path in microkernel::available_paths() {
                for threads in [1usize, 2, 4] {
                    let (y, gw) = pool(threads).install(|| {
                        microkernel::with_forced(path, || {
                            (
                                conv3d_forward(&x, &w, pad),
                                conv3d_backward_weight(&gout, &x, w.shape(), pad),
                            )
                        })
                    });
                    let case =
                        format!("pad {pad} zeroed {zeroed} {} threads {threads}", path.label());
                    assert_eq!(bits(&y), bits(&want), "forward {case}");
                    assert_eq!(bits(&gw), bits(&want_gw), "gw {case}");
                }
            }
        }
    }
}
