//! The MR×NR register-tile fold at the heart of the packed GEMM, in
//! scalar and (behind the `simd` feature) explicit-SIMD editions.
//!
//! Every edition computes the **same fold**: for each of the MR tile rows,
//! one accumulator lane per column, advanced over k in ascending order with
//! a plain multiply followed by a plain add. The SIMD paths vectorize
//! *across the NR columns* — lanes of one vector are distinct output
//! elements — so no float operation is reordered, fused or reassociated
//! relative to the scalar loop: `_mm256_mul_ps`/`_mm256_add_ps` (and the
//! SSE2/NEON equivalents) are lane-wise IEEE-754 correctly-rounded
//! operations, bit-identical to the scalar `mul`/`add` pair. FMA is
//! deliberately never used — a fused `a*b+c` rounds once instead of twice
//! and would break the bitwise contract with
//! [`crate::ops::reference`].
//!
//! ## Dispatch
//!
//! [`detected`] probes the host once (AVX via `is_x86_feature_detected!`,
//! SSE2 as the x86_64 baseline, NEON as the aarch64 baseline) and is
//! compiled to [`Path::Scalar`] when the `simd` feature is off, so the
//! scalar edition is always present and always the fallback. Tests and
//! benches pin a specific edition with [`with_forced`]; the override is
//! thread-local and read once at GEMM entry (then captured into the pool
//! jobs), so concurrent tests forcing different paths never race.

use std::sync::OnceLock;

/// Register-tile rows (micro-kernel height). C tiles are MR-aligned.
pub const MR: usize = 4;
/// Register-tile columns (micro-kernel width): one 8-lane AVX vector, or
/// two 4-lane SSE2/NEON vectors.
pub const NR: usize = 8;

/// One edition of the register-tile fold. All variants exist on every
/// platform so call sites can match exhaustively; `sanitize` maps a
/// variant the current build/host cannot execute back to [`Path::Scalar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Plain scalar loop — always available, the reference edition.
    Scalar,
    /// x86_64 SSE2 (baseline on that arch): two 4-lane vectors per row.
    Sse2,
    /// x86_64 AVX (runtime-detected): one 8-lane vector per row.
    Avx,
    /// x86_64 AVX-512F (runtime-detected): one 16-lane vector per row
    /// spanning two B panels (see `fold_pair`).
    Avx512,
    /// aarch64 NEON (baseline on that arch): two 4-lane vectors per row.
    Neon,
}

impl Path {
    /// Short lowercase label (`scalar`, `sse2`, `avx`, `avx512`, `neon`)
    /// for reports.
    pub fn label(self) -> &'static str {
        match self {
            Path::Scalar => "scalar",
            Path::Sse2 => "sse2",
            Path::Avx => "avx",
            Path::Avx512 => "avx512",
            Path::Neon => "neon",
        }
    }
}

/// The widest edition this build can execute on this host. Without the
/// `simd` feature this is always [`Path::Scalar`].
pub fn detected() -> Path {
    static DETECTED: OnceLock<Path> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn detect() -> Path {
    if std::arch::is_x86_feature_detected!("avx512f") {
        Path::Avx512
    } else if std::arch::is_x86_feature_detected!("avx") {
        Path::Avx
    } else {
        // SSE2 is part of the x86_64 baseline; no runtime probe needed.
        Path::Sse2
    }
}

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
fn detect() -> Path {
    // NEON is part of the aarch64 baseline.
    Path::Neon
}

#[cfg(not(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn detect() -> Path {
    Path::Scalar
}

/// Every edition executable by this build on this host, scalar first.
/// Differential tests iterate this to prove SIMD == scalar == reference.
pub fn available_paths() -> Vec<Path> {
    let mut paths = vec![Path::Scalar];
    match detected() {
        Path::Scalar => {}
        // Each x86 tier implies the narrower ones: exercise every width.
        Path::Avx => paths.extend([Path::Sse2, Path::Avx]),
        Path::Avx512 => paths.extend([Path::Sse2, Path::Avx, Path::Avx512]),
        p => paths.push(p),
    }
    paths
}

/// Clamps a requested path to what this build/host can execute.
fn sanitize(p: Path) -> Path {
    let widest = detected();
    match (p, widest) {
        (Path::Scalar, _) => Path::Scalar,
        (Path::Sse2, Path::Sse2 | Path::Avx | Path::Avx512) => Path::Sse2,
        (Path::Avx, Path::Avx | Path::Avx512) => Path::Avx,
        (Path::Avx512, Path::Avx512) => Path::Avx512,
        (Path::Neon, Path::Neon) => Path::Neon,
        _ => Path::Scalar,
    }
}

thread_local! {
    /// Per-thread override installed by [`with_forced`].
    static FORCED: std::cell::Cell<Option<Path>> = const { std::cell::Cell::new(None) };
}

/// The edition the next GEMM call on this thread will use: the
/// [`with_forced`] override if one is installed, else [`detected`].
pub fn resolve() -> Path {
    sanitize(forced().unwrap_or_else(detected))
}

/// The [`with_forced`] override on this thread, before clamping. `math`
/// maps it onto its own slice bodies, which probe the host without the
/// `simd` feature.
pub(crate) fn forced() -> Option<Path> {
    FORCED.with(|f| f.get())
}

/// Runs `f` with the micro-kernel edition pinned to `path` on this thread
/// (clamped to what the build/host supports). GEMM reads the override once
/// at entry and threads it through its pool jobs, so the pin applies to
/// pooled execution too, and concurrent threads can pin different editions
/// without racing.
pub fn with_forced<R>(path: Path, f: impl FnOnce() -> R) -> R {
    let prev = FORCED.with(|c| c.replace(Some(path)));
    struct Restore(Option<Path>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Advances the MR×NR accumulator tile over one KC block: for each k step
/// `p`, `acc[r][c] += ap[p*MR + r] * bp[p*NR + c]`, in ascending-`p` order.
/// `ap`/`bp` are the packed A/B panels (`kcb*MR` / `kcb*NR` long).
#[inline]
pub(crate) fn fold(path: Path, acc: &mut [[f32; NR]; MR], ap: &[f32], bp: &[f32]) {
    debug_assert_eq!(ap.len() / MR, bp.len() / NR);
    match path {
        Path::Scalar => fold_scalar(acc, ap, bp),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `resolve`/`sanitize` only yield these paths when the
        // host supports them (SSE2 is baseline, AVX runtime-detected).
        Path::Sse2 => unsafe { fold_sse2(acc, ap, bp) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // A lone NR-wide panel can't fill a 16-lane vector; the AVX-512
        // edition handles remainders with the (always-available-there)
        // 8-lane AVX fold and spends its width in `fold_pair`.
        Path::Avx | Path::Avx512 => unsafe { fold_avx(acc, ap, bp) },
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        // SAFETY: NEON is part of the aarch64 baseline.
        Path::Neon => unsafe { fold_neon(acc, ap, bp) },
        #[allow(unreachable_patterns)] // editions compiled out of this build
        _ => fold_scalar(acc, ap, bp),
    }
}

/// True when `path` has a dedicated two-panel fold: wider vectors
/// (AVX-512 spans both panels with one 16-lane register per row) or more
/// independent accumulator chains than one NR panel can feed (AVX: 8
/// chains cover the 4-cycle add latency that 4 chains leave exposed).
/// SSE2 and NEON already run 8 chains per single panel, and the scalar
/// edition is whatever the compiler makes of the plain loop — pairing
/// buys neither anything.
#[inline]
pub(crate) fn folds_pairs(path: Path) -> bool {
    matches!(path, Path::Avx | Path::Avx512)
}

/// Advances an MR × 2·NR accumulator tile over one KC block, reading two
/// adjacent packed B panels: for each k step `p`,
/// `acc[r][c] += ap[p*MR + r] * bp01[p*NR + c mod NR]` with columns
/// `0..NR` from `bp0` and `NR..2·NR` from `bp1`, in ascending-`p` order.
/// Exactly the fold [`fold`] performs on each panel separately — every
/// output element keeps its own lane and its own ascending-k chain — just
/// scheduled to feed wider registers / more chains per instruction.
#[inline]
pub(crate) fn fold_pair(
    path: Path,
    acc: &mut [[f32; 2 * NR]; MR],
    ap: &[f32],
    bp0: &[f32],
    bp1: &[f32],
) {
    match path {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `resolve`/`sanitize` only yield these paths when the
        // host supports them.
        Path::Avx => unsafe { fold_pair_avx(acc, ap, bp0, bp1) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Path::Avx512 => unsafe { fold_pair_avx512(acc, ap, bp0, bp1) },
        // Editions without a paired kernel (and builds that compiled the
        // SIMD ones out): run the two panels through the single fold.
        _ => {
            let mut half = [[0.0f32; NR]; MR];
            for (bp, off) in [(bp0, 0), (bp1, NR)] {
                for (h, a) in half.iter_mut().zip(acc.iter()) {
                    h.copy_from_slice(&a[off..off + NR]);
                }
                fold(path, &mut half, ap, bp);
                for (h, a) in half.iter().zip(acc.iter_mut()) {
                    a[off..off + NR].copy_from_slice(h);
                }
            }
        }
    }
}

/// The reference edition: plain nested loops, ascending k.
fn fold_scalar(acc: &mut [[f32; NR]; MR], ap: &[f32], bp: &[f32]) {
    for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = arow[r];
            for (cc, x) in accr.iter_mut().enumerate() {
                *x += av * brow[cc];
            }
        }
    }
}

/// AVX edition: one 8-lane register per accumulator row (NR == 8), rows
/// held in registers across the whole KC block.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx")]
unsafe fn fold_avx(acc: &mut [[f32; NR]; MR], ap: &[f32], bp: &[f32]) {
    use core::arch::x86_64::*;
    debug_assert_eq!(NR, 8);
    let mut c0 = _mm256_loadu_ps(acc[0].as_ptr());
    let mut c1 = _mm256_loadu_ps(acc[1].as_ptr());
    let mut c2 = _mm256_loadu_ps(acc[2].as_ptr());
    let mut c3 = _mm256_loadu_ps(acc[3].as_ptr());
    let k = bp.len() / NR;
    for p in 0..k {
        let b = _mm256_loadu_ps(bp.as_ptr().add(p * NR));
        let a = ap.as_ptr().add(p * MR);
        // mul then add, kept as two correctly-rounded ops (never FMA).
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(*a), b));
        c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(*a.add(1)), b));
        c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(*a.add(2)), b));
        c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(*a.add(3)), b));
    }
    _mm256_storeu_ps(acc[0].as_mut_ptr(), c0);
    _mm256_storeu_ps(acc[1].as_mut_ptr(), c1);
    _mm256_storeu_ps(acc[2].as_mut_ptr(), c2);
    _mm256_storeu_ps(acc[3].as_mut_ptr(), c3);
}

/// Paired AVX edition: two 8-lane registers per accumulator row (8
/// independent add chains — enough to hide the 4-cycle `vaddps` latency
/// that the 4 chains of the single-panel kernel leave exposed).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx")]
unsafe fn fold_pair_avx(acc: &mut [[f32; 2 * NR]; MR], ap: &[f32], bp0: &[f32], bp1: &[f32]) {
    use core::arch::x86_64::*;
    let mut c = [[_mm256_setzero_ps(); 2]; MR];
    for (cr, accr) in c.iter_mut().zip(acc.iter()) {
        cr[0] = _mm256_loadu_ps(accr.as_ptr());
        cr[1] = _mm256_loadu_ps(accr.as_ptr().add(NR));
    }
    let k = bp0.len() / NR;
    for p in 0..k {
        let b0 = _mm256_loadu_ps(bp0.as_ptr().add(p * NR));
        let b1 = _mm256_loadu_ps(bp1.as_ptr().add(p * NR));
        let a = ap.as_ptr().add(p * MR);
        for (r, cr) in c.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*a.add(r));
            // mul then add, two correctly-rounded ops (never FMA).
            cr[0] = _mm256_add_ps(cr[0], _mm256_mul_ps(av, b0));
            cr[1] = _mm256_add_ps(cr[1], _mm256_mul_ps(av, b1));
        }
    }
    for (cr, accr) in c.iter().zip(acc.iter_mut()) {
        _mm256_storeu_ps(accr.as_mut_ptr(), cr[0]);
        _mm256_storeu_ps(accr.as_mut_ptr().add(NR), cr[1]);
    }
}

/// AVX-512F edition: one 16-lane register per accumulator row spanning
/// both panels, so each port micro-op carries twice the lanes of the AVX
/// kernel. The two B panels are not contiguous in the pack, so each k step
/// joins two 8-lane loads with a bit-preserving `vinsertf64x4` (AVX-512F;
/// `vinsertf32x8` would need DQ). Lane-wise `vmulps`/`vaddps` on zmm are
/// the same correctly-rounded operations as everywhere else.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
unsafe fn fold_pair_avx512(acc: &mut [[f32; 2 * NR]; MR], ap: &[f32], bp0: &[f32], bp1: &[f32]) {
    use core::arch::x86_64::*;
    let mut c = [_mm512_setzero_ps(); MR];
    for (cr, accr) in c.iter_mut().zip(acc.iter()) {
        *cr = _mm512_loadu_ps(accr.as_ptr());
    }
    let k = bp0.len() / NR;
    for p in 0..k {
        let b0 = _mm256_loadu_ps(bp0.as_ptr().add(p * NR));
        let b1 = _mm256_loadu_ps(bp1.as_ptr().add(p * NR));
        let b = _mm512_castpd_ps(_mm512_insertf64x4(
            _mm512_castps_pd(_mm512_castps256_ps512(b0)),
            _mm256_castps_pd(b1),
            1,
        ));
        let a = ap.as_ptr().add(p * MR);
        for (r, cr) in c.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*a.add(r));
            // mul then add, two correctly-rounded ops (never FMA).
            *cr = _mm512_add_ps(*cr, _mm512_mul_ps(av, b));
        }
    }
    for (cr, accr) in c.iter().zip(acc.iter_mut()) {
        _mm512_storeu_ps(accr.as_mut_ptr(), *cr);
    }
}

/// SSE2 edition: two 4-lane registers per accumulator row.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "sse2")]
unsafe fn fold_sse2(acc: &mut [[f32; NR]; MR], ap: &[f32], bp: &[f32]) {
    use core::arch::x86_64::*;
    debug_assert_eq!(NR, 8);
    let mut lo = [_mm_setzero_ps(); MR];
    let mut hi = [_mm_setzero_ps(); MR];
    for r in 0..MR {
        lo[r] = _mm_loadu_ps(acc[r].as_ptr());
        hi[r] = _mm_loadu_ps(acc[r].as_ptr().add(4));
    }
    let k = bp.len() / NR;
    for p in 0..k {
        let blo = _mm_loadu_ps(bp.as_ptr().add(p * NR));
        let bhi = _mm_loadu_ps(bp.as_ptr().add(p * NR + 4));
        let a = ap.as_ptr().add(p * MR);
        for r in 0..MR {
            let av = _mm_set1_ps(*a.add(r));
            lo[r] = _mm_add_ps(lo[r], _mm_mul_ps(av, blo));
            hi[r] = _mm_add_ps(hi[r], _mm_mul_ps(av, bhi));
        }
    }
    for r in 0..MR {
        _mm_storeu_ps(acc[r].as_mut_ptr(), lo[r]);
        _mm_storeu_ps(acc[r].as_mut_ptr().add(4), hi[r]);
    }
}

/// NEON edition: two 4-lane registers per accumulator row.
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
#[target_feature(enable = "neon")]
unsafe fn fold_neon(acc: &mut [[f32; NR]; MR], ap: &[f32], bp: &[f32]) {
    use core::arch::aarch64::*;
    debug_assert_eq!(NR, 8);
    let mut lo = [vdupq_n_f32(0.0); MR];
    let mut hi = [vdupq_n_f32(0.0); MR];
    for r in 0..MR {
        lo[r] = vld1q_f32(acc[r].as_ptr());
        hi[r] = vld1q_f32(acc[r].as_ptr().add(4));
    }
    let k = bp.len() / NR;
    for p in 0..k {
        let blo = vld1q_f32(bp.as_ptr().add(p * NR));
        let bhi = vld1q_f32(bp.as_ptr().add(p * NR + 4));
        let a = ap.as_ptr().add(p * MR);
        for r in 0..MR {
            let av = vdupq_n_f32(*a.add(r));
            // vmulq + vaddq, never vfmaq: two roundings, like scalar.
            lo[r] = vaddq_f32(lo[r], vmulq_f32(av, blo));
            hi[r] = vaddq_f32(hi[r], vmulq_f32(av, bhi));
        }
    }
    for r in 0..MR {
        vst1q_f32(acc[r].as_mut_ptr(), lo[r]);
        vst1q_f32(acc[r].as_mut_ptr().add(4), hi[r]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{normal, rng};

    fn random_panels(k: usize, seed: u64) -> (Vec<f32>, Vec<f32>, [[f32; NR]; MR]) {
        let mut r = rng(seed);
        let ap: Vec<f32> = (0..k * MR).map(|_| normal(&mut r) as f32).collect();
        let bp: Vec<f32> = (0..k * NR).map(|_| normal(&mut r) as f32).collect();
        let mut acc = [[0.0f32; NR]; MR];
        for row in acc.iter_mut() {
            for v in row.iter_mut() {
                *v = normal(&mut r) as f32;
            }
        }
        (ap, bp, acc)
    }

    #[test]
    fn every_available_path_matches_scalar_bitwise() {
        for k in [0usize, 1, 7, 64, 256] {
            let (ap, bp, acc0) = random_panels(k, 42 + k as u64);
            let mut want = acc0;
            fold_scalar(&mut want, &ap, &bp);
            for path in available_paths() {
                let mut got = acc0;
                fold(path, &mut got, &ap, &bp);
                for r in 0..MR {
                    for c in 0..NR {
                        assert_eq!(
                            got[r][c].to_bits(),
                            want[r][c].to_bits(),
                            "path {:?} k {k} elem ({r},{c})",
                            path
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn paired_fold_matches_two_single_folds_bitwise() {
        for k in [0usize, 1, 7, 64, 256] {
            let mut r = rng(900 + k as u64);
            let ap: Vec<f32> = (0..k * MR).map(|_| normal(&mut r) as f32).collect();
            let bp0: Vec<f32> = (0..k * NR).map(|_| normal(&mut r) as f32).collect();
            let bp1: Vec<f32> = (0..k * NR).map(|_| normal(&mut r) as f32).collect();
            let mut acc0 = [[0.0f32; 2 * NR]; MR];
            for row in acc0.iter_mut() {
                for v in row.iter_mut() {
                    *v = normal(&mut r) as f32;
                }
            }
            // Oracle: the scalar fold over each half separately.
            let mut want = acc0;
            fold_pair(Path::Scalar, &mut want, &ap, &bp0, &bp1);
            for path in available_paths() {
                let mut got = acc0;
                fold_pair(path, &mut got, &ap, &bp0, &bp1);
                for r in 0..MR {
                    for c in 0..2 * NR {
                        assert_eq!(
                            got[r][c].to_bits(),
                            want[r][c].to_bits(),
                            "path {:?} k {k} elem ({r},{c})",
                            path
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forced_path_is_thread_local_and_restored() {
        assert_eq!(resolve(), detected());
        with_forced(Path::Scalar, || {
            assert_eq!(resolve(), Path::Scalar);
            // A different thread sees the unforced default.
            let other = std::thread::spawn(|| resolve() == detected());
            assert!(other.join().expect("probe thread"));
        });
        assert_eq!(resolve(), detected());
    }

    #[test]
    fn unavailable_paths_sanitize_to_scalar() {
        // Forcing an edition from another architecture must not crash.
        let foreign = if cfg!(target_arch = "x86_64") { Path::Neon } else { Path::Avx };
        with_forced(foreign, || {
            assert_eq!(resolve(), Path::Scalar);
        });
    }
}
