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
//!
//! The conv3d forward scatters an input with at most one nonzero element
//! in 8 and runs the implicit GEMM on anything denser, so it also runs
//! over sparse grids (blobs in a zero grid) and over inputs whose density
//! is swept across that cutoff, with `±0.0`, denormals, NaN and ±inf among
//! the values and non-finite weights.

use dfpool::Pool;
use dftensor::ops::microkernel;
use dftensor::ops::{conv3d_backward_input, conv3d_backward_weight, conv3d_forward, reference};
use dftensor::rng::rng;
use dftensor::Tensor;
use proptest::prelude::*;
use rand::Rng;
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

/// Bits with every NaN mapped to one pattern: NaN payloads and signs are
/// not specified by IEEE-754 arithmetic, NaN positions are.
fn nan_bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// Asserts `f` produces the reference bits, NaN positions included, for
/// every available micro-kernel edition on 1/2/4/8-thread pools.
fn assert_matches_reference_nan(
    want: &Tensor,
    f: impl Fn() -> Tensor,
) -> Result<(), TestCaseError> {
    for path in microkernel::available_paths() {
        for threads in [1usize, 2, 4, 8] {
            let got = pool(threads).install(|| microkernel::with_forced(path, &f));
            prop_assert_eq!(
                nan_bits(&got),
                nan_bits(want),
                "{} edition on a {}-thread pool differs from reference",
                path.label(),
                threads
            );
        }
    }
    Ok(())
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

    /// conv3d forward over sparse grids == reference, NaN positions
    /// included: blobs in a zero grid holding `±0.0`, denormals and — in
    /// some cases — NaN/±inf, against weights that are non-finite in some
    /// cases. `kw = 1` and non-cubic kernels are in range.
    #[test]
    fn conv3d_forward_on_sparse_grids_matches_reference(
        seed in 0u64..1000,
        bn in 1usize..3,
        c in 1usize..4,
        o in 1usize..5,
        d in 1usize..7,
        h in 1usize..7,
        w in 1usize..9,
        kd in 1usize..4,
        kh in 1usize..4,
        kw in 1usize..4,
        pad in 0usize..3,
        non_finite in 0u8..4,
    ) {
        prop_assume!(kd <= d + 2 * pad && kh <= h + 2 * pad && kw <= w + 2 * pad);
        // Bit 0: non-finite values in x; bit 1: a non-finite weight.
        let x = sparse_grid(seed, [bn, c, d, h, w], non_finite & 1 == 1);
        let mut wt = Tensor::randn(&[o, c, kd, kh, kw], &mut rng(seed + 1));
        if non_finite & 2 == 2 {
            let i = seed as usize % wt.numel();
            wt.data_mut()[i] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][seed as usize % 3];
        }
        let want = reference::conv3d_forward(&x, &wt, pad);
        assert_matches_reference_nan(&want, || conv3d_forward(&x, &wt, pad))?;
    }

    /// The forward scatters an input with at most one nonzero in 8 and
    /// packs anything denser into the GEMM. Sweep the nonzero count across
    /// that cutoff — none, one below it, exactly at it, one above it, all —
    /// with `±0.0` filling the rest, denormals among the nonzeros and, in
    /// some cases, NaN/±inf in x or a non-finite weight. Either side of the
    /// cutoff returns the reference's bits, NaN positions included.
    #[test]
    fn conv3d_forward_across_the_scatter_cutoff_matches_reference(
        seed in 0u64..1000,
        bn in 1usize..3,
        c in 1usize..4,
        o in 1usize..5,
        d in 2usize..6,
        h in 2usize..6,
        w in 2usize..7,
        kd in 1usize..4,
        kh in 1usize..4,
        kw in 1usize..4,
        pad in 0usize..3,
        level in 0usize..5,
        non_finite in 0u8..4,
    ) {
        prop_assume!(kd <= d + 2 * pad && kh <= h + 2 * pad && kw <= w + 2 * pad);
        let shape = [bn, c, d, h, w];
        let numel: usize = shape.iter().product();
        let at = numel / 8;
        let nonzero = [0, at.saturating_sub(1), at, at + 1, numel][level];
        // Bit 0: non-finite values in x; bit 1: a non-finite weight.
        let x = grid_with_nonzeros(seed, shape, nonzero, non_finite & 1 == 1);
        prop_assert_eq!(x.data().iter().filter(|&&v| v != 0.0).count(), nonzero);
        let mut wt = Tensor::randn(&[o, c, kd, kh, kw], &mut rng(seed + 1));
        if non_finite & 2 == 2 {
            let i = seed as usize % wt.numel();
            wt.data_mut()[i] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][seed as usize % 3];
        }
        let want = reference::conv3d_forward(&x, &wt, pad);
        assert_matches_reference_nan(&want, || conv3d_forward(&x, &wt, pad))?;
    }
}

/// A grid with exactly `nonzero` nonzero elements at random positions and
/// `±0.0` everywhere else. About a quarter of the nonzeros are denormals
/// and, with `non_finite`, about a sixth are NaN or ±inf.
fn grid_with_nonzeros(seed: u64, shape: [usize; 5], nonzero: usize, non_finite: bool) -> Tensor {
    let mut r = rng(seed ^ 0xc0ff);
    let numel = shape.iter().product::<usize>();
    let mut data: Vec<f32> = (0..numel).map(|_| if r.gen_bool(0.5) { 0.0 } else { -0.0 }).collect();
    // A partial Fisher–Yates shuffle picks the positions.
    let mut at: Vec<usize> = (0..numel).collect();
    for i in 0..nonzero {
        at.swap(i, r.gen_range(i..numel));
        let sign = if r.gen_bool(0.5) { 1.0 } else { -1.0 };
        data[at[i]] = match r.gen_range(0..12) {
            0..=2 => sign * f32::MIN_POSITIVE / r.gen_range(2.0f32..64.0),
            3 if non_finite => f32::NAN,
            4 if non_finite => sign * f32::INFINITY,
            _ => sign * r.gen_range(0.25f32..2.0),
        };
    }
    Tensor::from_vec(data, &shape)
}

/// A zero grid with a few random blobs — what a voxelized pose looks like
/// — whose values include `±0.0` and denormals and, with `non_finite`,
/// NaN and ±inf. Some blobs hold only denormals, so a skipped denormal
/// product would change an output.
fn sparse_grid(seed: u64, shape: [usize; 5], non_finite: bool) -> Tensor {
    let mut r = rng(seed ^ 0x5eed);
    let [_, _, d, h, w] = shape;
    let mut x = Tensor::zeros(&shape);
    let data = x.data_mut();
    for _ in 0..r.gen_range(0..4) {
        let scale = if r.gen_bool(0.3) { f32::MIN_POSITIVE / 16.0 } else { 1.0 };
        let (plane, z0, y0, x0) = (
            r.gen_range(0..shape[0] * shape[1]),
            r.gen_range(0..d),
            r.gen_range(0..h),
            r.gen_range(0..w),
        );
        for z in z0..(z0 + 2).min(d) {
            for y in y0..(y0 + 2).min(h) {
                for xx in x0..(x0 + 3).min(w) {
                    data[((plane * d + z) * h + y) * w + xx] = match r.gen_range(0..20) {
                        0 => -0.0,
                        1 => f32::MIN_POSITIVE / 8.0,
                        2 => -f32::MIN_POSITIVE / 2.0,
                        3 if non_finite => f32::NAN,
                        4 if non_finite => f32::INFINITY,
                        5 if non_finite => f32::NEG_INFINITY,
                        _ => r.gen_range(-2.0f32..2.0) * scale,
                    };
                }
            }
        }
    }
    x
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

/// Asserts the conv3d forward of `x` with `w` matches the reference on
/// every edition × 1/2/4-thread pools, NaN positions included.
fn assert_conv_forward_matches(x: &Tensor, w: &Tensor, pad: usize, case: &str) {
    let want = reference::conv3d_forward(x, w, pad);
    for path in microkernel::available_paths() {
        for threads in [1usize, 2, 4] {
            let got = pool(threads)
                .install(|| microkernel::with_forced(path, || conv3d_forward(x, w, pad)));
            assert_eq!(
                nan_bits(&got),
                nan_bits(&want),
                "{case}: {} threads {threads}",
                path.label()
            );
        }
    }
}

/// `kw = 1` with no padding: a padded line is exactly one output line, so
/// an MR panel of neighbours in `xpad` wraps from one line's end into the
/// next, and the scatter reaches one output per voxel along x. One voxel
/// at the start of two lines in three puts the 3- and 5-wide grids above
/// the scatter cutoff (GEMM) and the 6-wide one below it (scatter).
#[test]
fn conv3d_forward_kw1_panels_wrapping_lines() {
    for (w, kd, kh) in [(3usize, 1usize, 1usize), (3, 2, 2), (5, 1, 3), (6, 3, 1)] {
        let mut x = Tensor::zeros(&[2, 2, 4, 5, w]);
        for (line, row) in x.data_mut().chunks_exact_mut(w).enumerate() {
            if line % 3 != 2 {
                row[0] = 1.0 + line as f32;
            }
        }
        let wt = Tensor::randn(&[3, 2, kd, kh, 1], &mut rng(w as u64));
        assert_conv_forward_matches(&x, &wt, 0, &format!("w={w} kd={kd} kh={kh}"));
    }
}

/// Sparse grids taller or wider than 64 voxels, which the scatter walks:
/// its per-axis tap ranges clip at both ends of a long axis, and one kernel
/// (66 tall) is nearly as tall as its grid. Nonzero voxels straddle
/// y = 64 and 128; one case has lines wider than 64 voxels instead.
#[test]
fn conv3d_forward_grids_taller_or_wider_than_64_voxels() {
    for (h, w, kh, kw, pad) in [
        (70usize, 5usize, 5usize, 3usize, 1usize),
        (62, 4, 3, 2, 2),
        (130, 3, 2, 1, 0),
        (67, 3, 66, 1, 0),
        (3, 70, 2, 5, 1),
    ] {
        let mut x = Tensor::zeros(&[1, 2, 3, h, w]);
        for (line, row) in x.data_mut().chunks_exact_mut(w).enumerate() {
            let y = line % h;
            if [61usize, 63, 64, 65, 127, 128].contains(&y) || (h < 8 && line % 2 == 0) {
                row[(line * 7) % w] = (line as f32 - 7.5) / 3.0;
            }
        }
        let wt = Tensor::randn(&[3, 2, 2, kh, kw], &mut rng(h as u64));
        assert_conv_forward_matches(
            &x,
            &wt,
            pad,
            &format!("h={h} w={w} kh={kh} kw={kw} pad={pad}"),
        );
    }
}

/// A non-finite weight makes `0.0 · w` NaN, so no zero product may be
/// skipped: one NaN or ±inf weight against a mostly empty grid puts NaN
/// exactly where the reference has it.
#[test]
fn conv3d_forward_non_finite_weights() {
    let x = sparse_grid(77, [2, 3, 6, 5, 7], false);
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut wt = Tensor::randn(&[4, 3, 3, 2, 3], &mut rng(78));
        wt.data_mut()[40] = bad;
        assert_conv_forward_matches(&x, &wt, 1, &format!("weight {bad}"));
    }
}
