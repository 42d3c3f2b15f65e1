//! Transcendental functions the workspace owns instead of importing from
//! the host's libm.
//!
//! Today that is [`tanh`], the SG-CNN head's activation: a branch-free
//! port of the fdlibm single-precision `tanhf` / `expm1f` pair
//! (`s_tanhf.c`, `s_expm1f.c`). That is the algorithm glibc 2.36 exports as
//! its one `tanhf` (a plain symbol, not an ifunc, so every x86_64 CPU runs
//! it), and every pinned fusion digest was computed with it, so moving the
//! call here moves no bit. [`crate::ops::reference::tanhf`] keeps the plain
//! transliteration as the oracle. Every edition of [`tanh_inplace`] matches
//! it on all 2³² inputs, NaN payloads included (the `#[ignore]`d
//! `tanh_every_f32_*` tests; CI runs the one against the oracle).
//!
//! `exp`, `expf`, `log`, `cos` and `sincos` still come from the host libm:
//! glibc dispatches them at load time to FMA variants on CPUs that have
//! FMA, so no single plain port reproduces the bits the digests hold.
//!
//! ## Branch-free form
//!
//! Every lane computes every argument reduction and every result case of
//! the scalar code, then selects among them, so the per-element body has
//! no control flow and vectorizes. The selections keep each case's exact
//! operation sequence; the results of cases a lane does not select are
//! discarded. Shifts and exponent adds are written in wrapping form, so
//! those discarded lanes cannot trip debug overflow checks, and the one
//! float-to-integer conversion goes through the float format, because the
//! saturating `as` does not vectorize. Rust never contracts a multiply
//! and an add into an FMA, so the bits do not depend on the target
//! features a loop is compiled with.
//!
//! ## Editions
//!
//! [`tanh_inplace`] reads [`resolve`](crate::ops::microkernel::resolve)
//! once per call. Where that yields
//! [`Path::Avx512`](crate::ops::microkernel::Path::Avx512) the slice loop
//! is compiled under `#[target_feature(enable = "avx512f")]` and
//! vectorizes 16 lanes wide; every other edition runs the same loop
//! compiled for the baseline target.
//!
//! ## Origin
//!
//! ```text
//! Conversion to float by Ian Lance Taylor, Cygnus Support, ian@cygnus.com.
//!
//! ====================================================
//! Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//!
//! Developed at SunPro, a Sun Microsystems, Inc. business.
//! Permission to use, copy, modify, and distribute this
//! software is freely granted, provided that this notice
//! is preserved.
//! ====================================================
//! ```

pub(crate) const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
pub(crate) const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
pub(crate) const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// `expm1f`'s rational-approximation coefficients.
pub(crate) const Q1: f32 = f32::from_bits(0xbd08_8889);
pub(crate) const Q2: f32 = f32::from_bits(0x3ad0_0d01);
pub(crate) const Q3: f32 = f32::from_bits(0xb8a6_70cd);
pub(crate) const Q4: f32 = f32::from_bits(0x3686_7e54);
pub(crate) const Q5: f32 = f32::from_bits(0xb457_edbb);

/// Hyperbolic tangent, bit-identical to fdlibm `tanhf` for every input.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    // |x| >= 1: 1 - 2/(expm1(2|x|) + 2); below: -t/(t + 2), t = expm1(-2|x|).
    let big = ix >= 0x3f80_0000;
    let two_ax = 2.0 * f32::from_bits(ix);
    let em1 = expm1(if big { two_ax } else { -two_ax });
    let q = (if big { 2.0 } else { -em1 }) / (em1 + 2.0);
    // |x| >= 22 (and ±inf) rounds to ±1: fdlibm's `1 - 1e-30`.
    let z = if ix >= 0x41b0_0000 {
        1.0
    } else if big {
        1.0 - q
    } else {
        q
    };
    let signed = if jx >> 31 != 0 { -z } else { z };
    if ix < 0x2400_0000 {
        // |x| < 2^-55, ±0 included.
        x * (1.0 + x)
    } else if ix > 0x7f80_0000 {
        // NaN, payload and sign kept.
        x + x
    } else {
        signed
    }
}

/// fdlibm `expm1f` over the arguments [`tanh`] passes it:
/// `(-2, -2^-54] ∪ [2, 44)`. Exact for every finite `x` in
/// `(-27·ln2, 88.72)`; outside that the scalar code's saturation and
/// overflow cases are not reproduced.
#[inline(always)]
fn expm1(x: f32) -> f32 {
    let bits = x.to_bits();
    let hx = bits & 0x7fff_ffff;
    let neg = bits >> 31 != 0;
    // x = k·ln2 + r with |r| <= ln2/2: k = 0 for |x| <= ln2/2, ±1 below
    // 1.5·ln2, rounded otherwise. k = 0 leaves `hi - lo` == x and c == 0
    // bit for bit, and k = ±1 gives the scalar code's `x ∓ LN2_HI` and
    // `±LN2_LO`, so one reduction serves every case.
    let k_round = trunc_to_i32(INVLN2 * x + if neg { -0.5 } else { 0.5 });
    let k = if hx <= 0x3eb1_7218 {
        0
    } else if hx < 0x3f85_1592 {
        if neg {
            -1
        } else {
            1
        }
    } else {
        k_round
    };
    let t = k as f32;
    let hi = x - t * LN2_HI;
    let lo = t * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let tt = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - tt) / (6.0 - r * tt));
    let k0 = r - (r * e - hxs);
    let e = r * (e - c) - c - hxs;
    let km1 = 0.5 * (r - e) - 0.5;
    let kp1 = if r < -0.25 { -2.0 * (e - (r + 0.5)) } else { 1.0 + 2.0 * (r - e) };
    // Multiplies by 2^k through the exponent field.
    let scale = (k as u32) << 23;
    let exp_k = |y: f32| f32::from_bits(y.to_bits().wrapping_add(scale));
    let wide = exp_k(1.0 - (e - r)) - 1.0;
    let mid = exp_k(f32::from_bits(0x3f80_0000 - 0x0100_0000u32.wrapping_shr(k as u32)) - (e - r));
    let top = exp_k((r - (e + f32::from_bits(0x7fu32.wrapping_sub(k as u32) << 23))) + 1.0);
    let y = if k == 0 {
        k0
    } else if k == -1 {
        km1
    } else if k == 1 {
        kp1
    } else if k <= -2 || k > 56 {
        wide
    } else if k < 23 {
        mid
    } else {
        top
    };
    // |x| < 2^-25: expm1(x) rounds to x.
    if hx < 0x3300_0000 {
        x
    } else {
        y
    }
}

/// `v as i32` (truncation toward zero) for `|v| < 2^22`, the only range a
/// selected lane reaches; other lanes get an unspecified value. `as` is a
/// saturating conversion, which the compiler does not vectorize, so this
/// rounds through the float format instead: adding 1.5·2^23 leaves `v`
/// rounded to the nearest integer `n` in the low mantissa bits, and `n` is
/// stepped back toward zero where rounding went away from it.
#[inline(always)]
fn trunc_to_i32(v: f32) -> i32 {
    const MAGIC: f32 = 12_582_912.0; // 1.5·2^23
    let rounded = v + MAGIC;
    let n = (rounded.to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32);
    let nf = rounded - MAGIC;
    if v < 0.0 {
        if nf < v {
            n.wrapping_add(1)
        } else {
            n
        }
    } else if nf > v {
        n.wrapping_sub(1)
    } else {
        n
    }
}

/// Replaces every element of `xs` with its [`tanh`], on the edition
/// [`resolve`](crate::ops::microkernel::resolve) picks for this thread.
pub fn tanh_inplace(xs: &mut [f32]) {
    let _s = dftrace::span("tensor.tanh");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if crate::ops::microkernel::resolve() == crate::ops::microkernel::Path::Avx512 {
        // SAFETY: `resolve` yields `Avx512` only when
        // `is_x86_feature_detected!("avx512f")` held on this host
        // (`microkernel::detected`, clamped by its `sanitize`).
        return unsafe { tanh_slice_avx512(xs) };
    }
    tanh_slice(xs);
}

#[inline(always)]
fn tanh_slice(xs: &mut [f32]) {
    for x in xs {
        *x = tanh(*x);
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn tanh_slice_avx512(xs: &mut [f32]) {
    tanh_slice(xs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{microkernel, reference};

    /// The values every edition must reproduce, paired with their inputs.
    fn check_editions(inputs: &[f32], want: impl Fn(f32) -> f32) -> usize {
        let expected: Vec<u32> = inputs.iter().map(|&x| want(x).to_bits()).collect();
        let mut mismatches = 0;
        for path in microkernel::available_paths() {
            let mut got = inputs.to_vec();
            microkernel::with_forced(path, || tanh_inplace(&mut got));
            for ((&x, g), &w) in inputs.iter().zip(&got).zip(&expected) {
                if g.to_bits() != w {
                    if mismatches < 8 {
                        eprintln!(
                            "{}: tanh({x:e} = {:#010x}) = {:#010x}, want {w:#010x}",
                            path.label(),
                            x.to_bits(),
                            g.to_bits()
                        );
                    }
                    mismatches += 1;
                }
            }
        }
        mismatches
    }

    #[test]
    fn tanh_editions_match_reference_on_strided_and_edge_inputs() {
        // Bit patterns at a prime stride cover every exponent and sign.
        let mut bits: Vec<u32> = (0..=u32::MAX).step_by(65_521).collect();
        // Denser over |x| in [0.25, 2), where expm1's argument reduction
        // switches between its k = 0, k = ±1 and rounded cases.
        bits.extend((0x3e80_0000..0x4000_0000u32).step_by(61));
        // ±512 ulps around every constant the port compares against, taken
        // both as x and as the 2|x| handed to expm1.
        for c in [
            0x2400_0000u32,
            0x3300_0000,
            0x3eb1_7218,
            0x3f85_1592,
            0x3f80_0000,
            0x4195_b844,
            0x41b0_0000,
            0x7f80_0000,
        ] {
            for d in 0..=1024u32 {
                let b = c - 512 + d;
                bits.push(b);
                // Halving a normal float takes one off its exponent field.
                bits.push(b - 0x0080_0000);
            }
        }
        // ±0, subnormals, ±inf, NaNs with payloads.
        bits.extend([0, 1, 2, 0x0000_ffff, 0x007f_ffff, 0x0080_0000, 0x7f80_0000]);
        bits.extend([0x7fc0_0000, 0x7fc0_1234, 0x7f80_0001, 0x7fbf_ffff, 0x7fff_ffff]);
        let signed: Vec<u32> = bits.iter().map(|b| b ^ 0x8000_0000).collect();
        bits.extend(signed);
        let inputs: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
        assert_eq!(check_editions(&inputs, reference::tanhf), 0);
    }

    #[test]
    fn tanh_of_specials() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(30.0), 1.0);
        let nan = f32::from_bits(0xffc0_1234);
        assert_eq!(tanh(nan).to_bits(), 0xffc0_1234);
    }

    /// Runs `want` against every edition over all 2³² inputs, split across
    /// a few threads; returns the mismatch count.
    fn exhaustive(want: fn(f32) -> f32) -> usize {
        const CHUNK: u64 = 1 << 20;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4) as u64;
        let chunks = (1u64 << 32) / CHUNK;
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    s.spawn(move || {
                        (w..chunks)
                            .step_by(threads as usize)
                            .map(|ci| {
                                let inputs: Vec<f32> = (ci * CHUNK..(ci + 1) * CHUNK)
                                    .map(|b| f32::from_bits(b as u32))
                                    .collect();
                                check_editions(&inputs, want)
                            })
                            .sum::<usize>()
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join().expect("exhaustive tanh worker")).sum()
        })
    }

    #[test]
    #[ignore = "all 2^32 inputs; run in release"]
    fn tanh_every_f32_matches_reference() {
        assert_eq!(exhaustive(reference::tanhf), 0);
    }

    #[test]
    #[ignore = "all 2^32 inputs against the host libm; holds where libm's tanhf is fdlibm's"]
    fn tanh_every_f32_matches_host_libm() {
        assert_eq!(exhaustive(f32::tanh), 0);
    }
}
