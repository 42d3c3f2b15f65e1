//! Transcendental functions the workspace owns instead of importing from
//! the host's libm.
//!
//! - [`tanh`], the SG-CNN head's activation: a branch-free port of the
//!   fdlibm single-precision `tanhf` / `expm1f` pair (`s_tanhf.c`,
//!   `s_expm1f.c`). That is the algorithm glibc 2.36 exports as its one
//!   `tanhf` (a plain symbol, not an ifunc, so every x86_64 CPU runs it),
//!   and every pinned fusion digest was computed with it.
//!   [`crate::ops::reference::tanhf`] keeps the plain transliteration as
//!   the oracle. Every body of [`tanh_inplace`] matches it on all 2³²
//!   inputs, NaN payloads included (the `#[ignore]`d `tanh_every_f32_*`
//!   tests; CI runs the one against the oracle).
//! - [`exp`], the Vina scorer's Gaussians: a branch-free port of glibc
//!   2.36's `exp` (`sysdeps/ieee754/dbl-64/e_exp.c`, 128-entry table,
//!   degree-5 polynomial) in the form glibc's ifunc picks on CPUs with FMA
//!   and AVX2 (`__exp_fma`, built with `-mfma -mavx2`). That build
//!   contracts four multiply-adds, and so does the port, with explicit
//!   `mul_add`s: `kd = fma(x, InvLn2N, Shift)`,
//!   `r = fma(kd, NegLn2loN, fma(kd, NegLn2hiN, x))`,
//!   `tmp = fma(r²·r², fma(r, C5, C4), fma(r², fma(r, C3, C2), tail + r))`
//!   and the result `fma(scale, tmp, scale)`; in the special case for
//!   |x| ≥ 512, only the `k > 0` branch's `scale + scale·tmp` is fused.
//!   The contractions were read off the host's `__exp_fma` with `objdump`.
//!   The constants and the 256-entry table are glibc's `__exp_data`, read
//!   from the host's `libm.so.6` (glibc 2.36-9+deb12u14, file offset
//!   `0xaab20`) and written here as hex. Every pinned dock, voxel and
//!   screen digest was computed with that `exp`.
//!   [`crate::ops::reference::exp`] is the plain transliteration with the
//!   same `mul_add`s. Every body of [`exp_inplace`] matches it on ±512 ulps
//!   around each threshold plus specials (tier-1) and on 10⁹ random inputs
//!   (`#[ignore]`d `exp_matches_reference_on_1e9_inputs`, run in CI), and
//!   matched the host's `f64::exp` (glibc 2.36-9+deb12u14, AVX-512 host) on
//!   10⁸ random inputs plus the same windows with 0 mismatches
//!   (`#[ignore]`d `exp_matches_host_libm`, which holds only where libm is
//!   that glibc on an FMA host).
//!
//! `expf`, `log`, `cos` and `sincos` still come from the host libm, and so
//! do the scalar `exp` call sites (the Metropolis test, the screen's ligand
//! score, the voxelizer and `sigmoid`): a scalar [`exp`] compiled for the
//! baseline target turns each `mul_add` into a call to libm's `fma` and
//! runs slower than libm's own `exp`.
//!
//! ## Branch-free form
//!
//! Every lane computes every argument reduction and every result case of
//! the scalar code, then selects among them, so the per-element body has
//! no control flow and vectorizes. The selections keep each case's exact
//! operation sequence; the results of cases a lane does not select are
//! discarded. Shifts and exponent adds are written in wrapping form, so
//! those discarded lanes cannot trip debug overflow checks, and no
//! float-to-integer conversion uses `as`, because the saturating `as` does
//! not vectorize. Rust never contracts a multiply and an add into an FMA
//! on its own and `mul_add` always rounds once, so the bits do not depend
//! on the target features a loop is compiled with.
//!
//! ## Bodies
//!
//! [`tanh_inplace`] and [`exp_inplace`] share one dispatch. Their slice
//! loop is one source compiled three times: under
//! `#[target_feature(enable = "avx512f,avx2,fma")]`, under `"avx2,fma"`,
//! and for the baseline target, where `mul_add` is a call to a correctly
//! rounded `fma` (the same bits, only slower). The host is probed once with
//! `is_x86_feature_detected!`, whether or not the `simd` feature is on, and
//! each call runs the widest body it has. A
//! [`with_forced`](crate::ops::microkernel::with_forced) pin selects a
//! body for tests and benches: `Avx512` the first, `Avx` the second, any
//! other path the baseline, each clamped to what the host can run
//! ([`body_paths`] lists one pin per runnable body).
//!
//! `exp_inplace` first checks, in one vectorized pass, whether every
//! element lies in the hot range |x| ∈ [2⁻⁵⁴, 512). If so, the loop runs
//! only the reduction, the polynomial and the scaling, and skips the
//! special cases' selects, which cost as much again.
//!
//! ## Origin
//!
//! `tanh`:
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
//!
//! `exp` (glibc's `e_exp.c` and `e_exp_data.c`, from ARM's
//! optimized-routines):
//!
//! ```text
//! Copyright (C) 2018-2022 Free Software Foundation, Inc.
//! The GNU C Library is free software; you can redistribute it and/or
//! modify it under the terms of the GNU Lesser General Public
//! License as published by the Free Software Foundation; either
//! version 2.1 of the License, or (at your option) any later version.
//! ```

use crate::ops::microkernel::{self, Path};
use std::sync::OnceLock;

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

/// `__exp_data.invln2N`: N/ln2 with N = 128 table entries per octave.
pub(crate) const INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652b_82fe);
/// `__exp_data.negln2hiN` / `negln2loN`: −ln2/N split in two.
pub(crate) const NEG_LN2_HI_N: f64 = f64::from_bits(0xbf76_2e42_fefa_0000);
pub(crate) const NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0c_f79a_bc9e_3b3a);
/// `__exp_data.shift`: 1.5·2^52, rounds `x·N/ln2` to an integer `k` held
/// in the low mantissa bits.
pub(crate) const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `__exp_data.poly`: exp(r) − 1 − r ≈ r²·(C2 + r·C3) + r⁴·(C4 + r·C5).
pub(crate) const C2: f64 = f64::from_bits(0x3fdf_ffff_ffff_fdbd);
pub(crate) const C3: f64 = f64::from_bits(0x3fc5_5555_5555_543c);
pub(crate) const C4: f64 = f64::from_bits(0x3fa5_5555_cf17_2b91);
pub(crate) const C5: f64 = f64::from_bits(0x3f81_1111_67a4_d017);
/// `__exp_data.tab`: for `i` in 0..128, `tab[2i]` is the tail and
/// `tab[2i + 1]` the bits of 2^(i/128) less `i << 45`, so that adding
/// `k << 45` yields the scale 2^(k/128) for any `k` with `k % 128 == i`.
#[rustfmt::skip]
pub(crate) static EXP_TAB: [u64; 256] = [
    0x0000_0000_0000_0000, 0x3ff0_0000_0000_0000, 0x3c9b_3b4f_1a88_bf6e, 0x3fef_f63d_a9fb_3335,
    0xbc71_6013_9cd8_dc5d, 0x3fef_ec9a_3e77_8061, 0xbc90_5e7a_1087_66d1, 0x3fef_e315_e86e_7f85,
    0x3c8c_d252_3567_f613, 0x3fef_d9b0_d315_8574, 0xbc8b_ce80_23f9_8efa, 0x3fef_d06b_29dd_f6de,
    0x3c60_f74e_61e6_c861, 0x3fef_c745_1875_9bc8, 0x3c90_a3e4_5b33_d399, 0x3fef_be3e_cac6_f383,
    0x3c97_9aa6_5d83_7b6d, 0x3fef_b558_6cf9_890f, 0x3c8e_b51a_92fd_effc, 0x3fef_ac92_2b72_47f7,
    0x3c3e_be3d_702f_9cd1, 0x3fef_a3ec_32d3_d1a2, 0xbc6a_0334_8990_6e0b, 0x3fef_9b66_affe_d31b,
    0xbc95_5652_2a2f_bd0e, 0x3fef_9301_d012_5b51, 0xbc50_80ef_8c4e_ea55, 0x3fef_8abd_c06c_31cc,
    0xbc91_c923_b9d5_f416, 0x3fef_829a_aea9_2de0, 0x3c80_d3e3_e95c_55af, 0x3fef_7a98_c8a5_8e51,
    0xbc80_1b15_eaa5_9348, 0x3fef_72b8_3c7d_517b, 0xbc8f_1ff0_55de_323d, 0x3fef_6af9_388c_8dea,
    0x3c8b_898c_3f13_53bf, 0x3fef_635b_eb6f_cb75, 0xbc96_d99c_7611_eb26, 0x3fef_5be0_8404_5cd4,
    0x3c9a_ecf7_3e3a_2f60, 0x3fef_5487_3168_b9aa, 0xbc8f_e782_cb86_389d, 0x3fef_4d50_22fc_d91d,
    0x3c8a_6f41_44a6_c38d, 0x3fef_463b_8862_8cd6, 0x3c80_7a05_b0e4_047d, 0x3fef_3f49_917d_dc96,
    0x3c96_8efd_e3a8_a894, 0x3fef_387a_6e75_6238, 0x3c87_5e18_f274_487d, 0x3fef_31ce_4fb2_a63f,
    0x3c80_472b_981f_e7f2, 0x3fef_2b45_65e2_7cdd, 0xbc96_b87b_3f71_085e, 0x3fef_24df_e1f5_6381,
    0x3c82_f7e1_6d09_ab31, 0x3fef_1e9d_f51f_dee1, 0xbc3d_219b_1a6f_bffa, 0x3fef_187f_d0da_d990,
    0x3c8b_3782_720c_0ab4, 0x3fef_1285_a6e4_030b, 0x3c6e_1492_89ce_cb8f, 0x3fef_0caf_a93e_2f56,
    0x3c83_4d75_4db0_abb6, 0x3fef_06fe_0a31_b715, 0x3c86_4201_e2ac_744c, 0x3fef_0170_fc4c_d831,
    0x3c8f_dd39_5dd3_f84a, 0x3fee_fc08_b264_16ff, 0xbc86_a380_3b8e_5b04, 0x3fee_f6c5_5f92_9ff1,
    0xbc92_4aed_cc4b_5068, 0x3fee_f1a7_373a_a9cb, 0xbc99_07f8_1b51_2d8e, 0x3fee_ecae_6d05_d866,
    0xbc71_d1e8_3e94_36d2, 0x3fee_e7db_34e5_9ff7, 0xbc99_1919_b3ce_1b15, 0x3fee_e32d_c313_a8e5,
    0x3c85_9f48_a72a_4c6d, 0x3fee_dea6_4c12_3422, 0xbc93_1260_7a28_698a, 0x3fee_da45_04ac_801c,
    0xbc58_a78f_4817_895b, 0x3fee_d60a_21f7_2e2a, 0xbc7c_2c9b_6749_9a1b, 0x3fee_d1f5_d950_a897,
    0x3c43_63ed_60c2_ac11, 0x3fee_ce08_6061_892d, 0x3c96_6609_3b06_64ef, 0x3fee_ca41_ed1d_0057,
    0x3c6e_cce1_daa1_0379, 0x3fee_c6a2_b5c1_3cd0, 0x3c93_ff8e_3f0f_1230, 0x3fee_c32a_f0d7_d3de,
    0x3c76_90ce_bb7a_afb0, 0x3fee_bfda_d536_2a27, 0x3c93_1dbd_eb54_e077, 0x3fee_bcb2_99fd_dd0d,
    0xbc8f_9434_0071_a38e, 0x3fee_b9b2_769d_2ca7, 0xbc87_decc_dc93_a349, 0x3fee_b6da_a2cf_6642,
    0xbc78_dec6_bd0f_385f, 0x3fee_b42b_569d_4f82, 0xbc86_1246_ec7b_5cf6, 0x3fee_b1a4_ca5d_920f,
    0x3c93_3505_18fd_d78e, 0x3fee_af47_36b5_27da, 0x3c7b_98b7_2f8a_9b05, 0x3fee_ad12_d497_c7fd,
    0x3c90_63e1_e21c_5409, 0x3fee_ab07_dd48_5429, 0x3c34_c785_5019_c6ea, 0x3fee_a926_8a59_46b7,
    0x3c94_32e6_2b64_c035, 0x3fee_a76f_15ad_2148, 0xbc8c_e44a_6199_769f, 0x3fee_a5e1_b976_dc09,
    0xbc8c_33c5_3bef_4da8, 0x3fee_a47e_b03a_5585, 0xbc84_5378_892b_e9ae, 0x3fee_a346_34cc_c320,
    0xbc93_cedd_7856_5858, 0x3fee_a238_8255_2225, 0x3c57_10aa_807e_1964, 0x3fee_a155_d44c_a973,
    0xbc93_b3ef_bf5e_2228, 0x3fee_a09e_667f_3bcd, 0xbc6a_12ad_8734_b982, 0x3fee_a012_750b_dabf,
    0xbc63_67ef_b86d_a9ee, 0x3fee_9fb2_3c65_1a2f, 0xbc80_dc3d_54e0_8851, 0x3fee_9f7d_f951_9484,
    0xbc78_1f64_7e5a_3ecf, 0x3fee_9f75_e8ec_5f74, 0xbc86_ee4a_c08b_7db0, 0x3fee_9f9a_48a5_8174,
    0xbc86_1932_1e55_e68a, 0x3fee_9feb_5642_67c9, 0x3c90_9ccb_5e09_d4d3, 0x3fee_a069_4fde_5d3f,
    0xbc7b_32dc_b94d_a51d, 0x3fee_a114_73eb_0187, 0x3c94_ecfd_5467_c06b, 0x3fee_a1ed_0130_c132,
    0x3c65_ebe1_abd6_6c55, 0x3fee_a2f3_36cf_4e62, 0xbc88_a1c5_2fb3_cf42, 0x3fee_a427_543e_1a12,
    0xbc93_69b6_f13b_3734, 0x3fee_a589_994c_ce13, 0xbc80_5e84_3a19_ff1e, 0x3fee_a71a_4623_c7ad,
    0xbc94_d450_d872_576e, 0x3fee_a8d9_9b44_92ed, 0x3c90_ad67_5b0e_8a00, 0x3fee_aac7_d98a_6699,
    0x3c8d_b72f_c1f0_eab4, 0x3fee_ace5_422a_a0db, 0xbc65_b660_9cc5_e7ff, 0x3fee_af32_16b5_448c,
    0x3c7b_f683_59f3_5f44, 0x3fee_b1ae_9915_7736, 0xbc93_091f_a71e_3d83, 0x3fee_b45b_0b91_ffc6,
    0xbc5d_a9b8_8b6c_1e29, 0x3fee_b737_b0cd_c5e5, 0xbc6c_23f9_7c90_b959, 0x3fee_ba44_cbc8_520f,
    0xbc92_4343_22f4_f9aa, 0x3fee_bd82_9fde_4e50, 0xbc85_ca6c_d766_8e4b, 0x3fee_c0f1_70ca_07ba,
    0x3c71_affc_2b91_ce27, 0x3fee_c491_82a3_f090, 0x3c6d_d235_e10a_73bb, 0x3fee_c863_19e3_2323,
    0xbc87_c504_2262_2263, 0x3fee_cc66_7b5d_e565, 0x3c8b_1c86_e3e2_31d5, 0x3fee_d09b_ec4a_2d33,
    0xbc91_bbd1_d3bc_bb15, 0x3fee_d503_b23e_255d, 0x3c90_cc31_9cee_31d2, 0x3fee_d99e_1330_b358,
    0x3c84_6984_6e73_5ab3, 0x3fee_de6b_5579_fdbf, 0xbc82_dfcd_978e_9db4, 0x3fee_e36b_bfd3_f37a,
    0x3c8c_1a77_92cb_3387, 0x3fee_e89f_995a_d3ad, 0xbc90_7b8f_4ad1_d9fa, 0x3fee_ee07_298d_b666,
    0xbc55_c3d9_56dc_aeba, 0x3fee_f3a2_b84f_15fb, 0xbc90_a40e_3da6_f640, 0x3fee_f972_8de5_593a,
    0xbc68_d6f4_38ad_9334, 0x3fee_ff76_f2fb_5e47, 0xbc91_eee2_6b58_8a35, 0x3fef_05b0_30a1_064a,
    0x3c74_ffd7_0a5f_ddcd, 0x3fef_0c1e_904b_c1d2, 0xbc91_bdfb_fa92_98ac, 0x3fef_12c2_5bd7_1e09,
    0x3c73_6eae_30af_0cb3, 0x3fef_199b_dd85_529c, 0x3c8e_e332_5c9f_fd94, 0x3fef_20ab_5fff_d07a,
    0x3c84_e08f_d109_59ac, 0x3fef_27f1_2e57_d14b, 0x3c63_cdaf_384e_1a67, 0x3fef_2f6d_9406_e7b5,
    0x3c67_6b2c_6c92_1968, 0x3fef_3720_dcef_9069, 0xbc80_8a18_83cc_b5d2, 0x3fef_3f0b_555d_c3fa,
    0xbc8f_ad5d_3fff_fa6f, 0x3fef_472d_4a07_897c, 0xbc90_0dae_3875_a949, 0x3fef_4f87_080d_89f2,
    0x3c74_a385_a63d_07a7, 0x3fef_5818_dcfb_a487, 0xbc82_919e_2040_220f, 0x3fef_60e3_16c9_8398,
    0x3c8e_5a50_d5c1_92ac, 0x3fef_69e6_03db_3285, 0x3c84_3a59_ac01_6b4b, 0x3fef_7321_f301_b460,
    0xbc82_d521_07b4_3e1f, 0x3fef_7c97_337b_9b5f, 0xbc89_2ab9_3b47_0dc9, 0x3fef_8646_14f5_a129,
    0x3c74_b604_603a_88d3, 0x3fef_902e_e78b_3ff6, 0x3c83_c5ec_519d_7271, 0x3fef_9a51_fbc7_4c83,
    0xbc8f_f712_8fd3_91f0, 0x3fef_a4af_a2a4_90da, 0xbc8d_ae98_e223_747d, 0x3fef_af48_2d8e_67f1,
    0x3c8e_c3bc_41aa_2008, 0x3fef_ba1b_ee61_5a27, 0x3c84_2b94_c3a9_eb32, 0x3fef_c52b_376b_ba97,
    0x3c8a_64a9_31d1_85ee, 0x3fef_d076_5b6e_4540, 0xbc8e_37ba_e43b_e3ed, 0x3fef_dbfd_ad9c_be14,
    0x3c77_893b_4d91_cd9d, 0x3fef_e7c1_819e_90d8, 0x3c53_05c1_4160_cc89, 0x3fef_f3c2_2b8f_71f1,
];
/// 2^1009 and 2^−1022, the special case's rescaling factors.
pub(crate) const P1009: f64 = f64::from_bits(0x7f00_0000_0000_0000);
pub(crate) const PM1022: f64 = f64::from_bits(0x0010_0000_0000_0000);

/// e^x, bit-identical to glibc 2.36's FMA `exp` for every input.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    let bits = x.to_bits();
    let abstop = (bits >> 52) & 0x7ff;
    let (tmp, sbits, ki) = exp_reduce(x);
    let scale = f64::from_bits(sbits);
    let hot = scale.mul_add(tmp, scale);

    // |x| in [512, 1024): scale's exponent may have left the normal range,
    // so glibc's `specialcase` rescales. k > 0 may overflow to inf.
    let s_up = f64::from_bits(sbits.wrapping_sub(1009 << 52));
    let up = P1009 * s_up.mul_add(tmp, s_up);
    // k < 0: below 1.0 the result is rounded once more before it is scaled
    // into the subnormal range, to avoid double rounding.
    let s_down = f64::from_bits(sbits.wrapping_add(1022 << 52));
    let st = s_down * tmp;
    let y = s_down + st;
    let hi = 1.0 + y;
    let lo = 1.0 - hi + y + (s_down - y + st);
    let rounded = (hi + lo) - 1.0;
    // glibc writes a zero here as +0.0 (only downward rounding could give
    // -0.0).
    let rounded = if rounded == 0.0 { 0.0 } else { rounded };
    let down = PM1022 * if y < 1.0 { rounded } else { y };
    let large = if ki & 0x8000_0000 == 0 { up } else { down };

    // |x| < 2^-54 (±0 and subnormals included): 1 + x.
    let tiny = 1.0 + x;
    // |x| >= 1024, ±inf and NaN: NaN propagates as `1 + x`, -inf and
    // finite underflows give +0.0, +inf and finite overflows +inf.
    let huge = if abstop == 0x7ff && bits != f64::NEG_INFINITY.to_bits() {
        tiny
    } else if bits >> 63 != 0 {
        0.0
    } else {
        f64::INFINITY
    };
    if exp_is_hot(x) {
        hot
    } else if abstop < 0x3c9 {
        tiny
    } else if abstop == 0x408 {
        large
    } else {
        huge
    }
}

/// |x| in [2^-54, 512): the range where [`exp`] is its reduction, the
/// polynomial and one scaling, with no special case.
#[inline(always)]
fn exp_is_hot(x: f64) -> bool {
    ((x.to_bits() >> 52) & 0x7ff).wrapping_sub(0x3c9) < 0x408 - 0x3c9
}

/// [`exp`] over the hot range; other inputs give unspecified values.
#[inline(always)]
fn exp_hot(x: f64) -> f64 {
    let (tmp, sbits, _) = exp_reduce(x);
    let scale = f64::from_bits(sbits);
    scale.mul_add(tmp, scale)
}

/// glibc's argument reduction and polynomial: e^x ≈ scale·(1 + tmp).
/// Returns `tmp`, the bits of `scale` and the reduction's `ki`.
#[inline(always)]
fn exp_reduce(x: f64) -> (f64, u64, u64) {
    // x = k·ln2/N + r with |r| <= ln2/2N; k sits in kd's low mantissa bits.
    let kd_shifted = x.mul_add(INV_LN2_N, SHIFT);
    let ki = kd_shifted.to_bits();
    let kd = kd_shifted - SHIFT;
    let r = kd.mul_add(NEG_LN2_LO_N, kd.mul_add(NEG_LN2_HI_N, x));
    // 2^(k/N) ≈ scale·(1 + tail).
    let i = (ki & 0x7f) as usize;
    let tail = f64::from_bits(EXP_TAB[2 * i]);
    let sbits = EXP_TAB[2 * i + 1].wrapping_add(ki << 45);
    let r2 = r * r;
    let tmp = (r2 * r2).mul_add(r.mul_add(C5, C4), r2.mul_add(r.mul_add(C3, C2), tail + r));
    (tmp, sbits, ki)
}

/// Replaces every element of `xs` with its [`exp`], on the body this
/// thread resolves to (see [Bodies](self#bodies)).
pub fn exp_inplace(xs: &mut [f64]) {
    map_inplace::<Exp>(xs);
}

/// Replaces every element of `xs` with its [`tanh`], on the body this
/// thread resolves to (see [Bodies](self#bodies)).
pub fn tanh_inplace(xs: &mut [f32]) {
    let _s = dftrace::span("tensor.tanh");
    map_inplace::<Tanh>(xs);
}

/// A slice loop the shared dispatch compiles once per body. A trait
/// rather than a closure argument, so every call is static and
/// `#[inline(always)]` reaches the element function through each body.
trait SliceMap {
    type T;
    fn map(xs: &mut [Self::T]);
}

struct Exp;
impl SliceMap for Exp {
    type T = f64;
    /// One vectorized pass decides whether every element is in the hot
    /// range (the Vina Gaussians' arguments always are, bar exact zeros);
    /// if so the special cases' selects, more than half the cost per
    /// element, are skipped.
    #[inline(always)]
    fn map(xs: &mut [f64]) {
        if xs.iter().fold(true, |all, &x| all & exp_is_hot(x)) {
            for x in xs {
                *x = exp_hot(*x);
            }
        } else {
            for x in xs {
                *x = exp(*x);
            }
        }
    }
}

struct Tanh;
impl SliceMap for Tanh {
    type T = f32;
    #[inline(always)]
    fn map(xs: &mut [f32]) {
        for x in xs {
            *x = tanh(*x);
        }
    }
}

/// One compilation of the shared slice loop, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Body {
    Baseline,
    Avx2Fma,
    Avx512Fma,
}

/// The widest body this host can execute, probed once.
fn host_body() -> Body {
    static HOST: OnceLock<Body> = OnceLock::new();
    *HOST.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") && has!("fma") {
                return if has!("avx512f") { Body::Avx512Fma } else { Body::Avx2Fma };
            }
        }
        Body::Baseline
    })
}

/// The body a call on this thread runs: the host's widest, or the one a
/// [`with_forced`](microkernel::with_forced) pin names, clamped to the host.
fn body() -> Body {
    let pinned = match microkernel::forced() {
        None => return host_body(),
        Some(Path::Avx512) => Body::Avx512Fma,
        Some(Path::Avx) => Body::Avx2Fma,
        Some(_) => Body::Baseline,
    };
    pinned.min(host_body())
}

/// One [`with_forced`](microkernel::with_forced) pin per body this host
/// can execute, baseline first: `Scalar`, then `Avx` and `Avx512` where
/// the host has AVX2 + FMA and AVX-512F + FMA. Differential tests and
/// benches iterate it; unlike
/// [`available_paths`](microkernel::available_paths) it does not depend on
/// the `simd` feature.
pub fn body_paths() -> Vec<Path> {
    [(Path::Scalar, Body::Baseline), (Path::Avx, Body::Avx2Fma), (Path::Avx512, Body::Avx512Fma)]
        .into_iter()
        .filter(|&(_, b)| b <= host_body())
        .map(|(p, _)| p)
        .collect()
}

fn map_inplace<F: SliceMap>(xs: &mut [F::T]) {
    match body() {
        // SAFETY: `body` never yields a body wider than `host_body`, which
        // probed these features on this host.
        #[cfg(target_arch = "x86_64")]
        Body::Avx512Fma => unsafe { map_avx512::<F>(xs) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Body::Avx2Fma => unsafe { map_avx2::<F>(xs) },
        _ => F::map(xs),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn map_avx512<F: SliceMap>(xs: &mut [F::T]) {
    F::map(xs);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn map_avx2<F: SliceMap>(xs: &mut [F::T]) {
    F::map(xs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{microkernel, reference};

    /// Runs `apply` on `inputs` under every body this host can execute and
    /// counts the elements whose bits differ from `want`'s.
    fn mismatches<T: Copy + std::fmt::LowerExp>(
        inputs: &[T],
        apply: fn(&mut [T]),
        want: impl Fn(T) -> T,
        bits: fn(T) -> u64,
    ) -> usize {
        let expected: Vec<u64> = inputs.iter().map(|&x| bits(want(x))).collect();
        let mut count = 0;
        for path in body_paths() {
            let mut got = inputs.to_vec();
            microkernel::with_forced(path, || apply(&mut got));
            for ((&x, &g), &w) in inputs.iter().zip(&got).zip(&expected) {
                if bits(g) != w {
                    if count < 8 {
                        eprintln!(
                            "{}: f({x:e} = {:#x}) = {:#x}, want {w:#x}",
                            path.label(),
                            bits(x),
                            bits(g)
                        );
                    }
                    count += 1;
                }
            }
        }
        count
    }

    fn check_editions(inputs: &[f32], want: impl Fn(f32) -> f32) -> usize {
        mismatches(inputs, tanh_inplace, want, |v| u64::from(v.to_bits()))
    }

    /// `exp_inplace` over `inputs` as one slice, which runs the select
    /// path wherever one input is outside the hot range, and then over the
    /// hot-range inputs alone, which runs the fast path.
    fn check_exp(inputs: &[f64], want: impl Fn(f64) -> f64) -> usize {
        let hot: Vec<f64> = inputs.iter().copied().filter(|&x| exp_is_hot(x)).collect();
        mismatches(inputs, exp_inplace, &want, f64::to_bits)
            + mismatches(&hot, exp_inplace, want, f64::to_bits)
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

    /// Runs `check` over chunks `0..chunks`, split across a few threads;
    /// returns the summed mismatch count.
    fn chunked(chunks: u64, check: impl Fn(u64) -> usize + Sync) -> usize {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4) as u64;
        let check = &check;
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    s.spawn(move || (w..chunks).step_by(threads as usize).map(check).sum::<usize>())
                })
                .collect();
            workers.into_iter().map(|h| h.join().expect("chunk worker")).sum()
        })
    }

    /// Runs `want` against every body over all 2³² inputs; returns the
    /// mismatch count.
    fn exhaustive(want: fn(f32) -> f32) -> usize {
        const CHUNK: u64 = 1 << 20;
        chunked((1u64 << 32) / CHUNK, |ci| {
            let inputs: Vec<f32> =
                (ci * CHUNK..(ci + 1) * CHUNK).map(|b| f32::from_bits(b as u32)).collect();
            check_editions(&inputs, want)
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

    /// Bit patterns ±512 ulps around every threshold `exp` compares
    /// against or crosses, both signs, plus ±0, subnormals, ±inf and NaNs
    /// with payloads.
    fn exp_edge_inputs() -> Vec<f64> {
        let mut bits: Vec<u64> = Vec::new();
        for c in [
            0x3c90_0000_0000_0000u64, // 2^-54: the tiny-|x| branch
            0x4080_0000_0000_0000,    // 512: the special case
            0x4090_0000_0000_0000,    // 1024: overflow / underflow
            0x4086_2e42_fefa_39ef,    // 709.78: the result overflows
            0x4086_232b_dd7a_bcd2,    // 708.40: the result goes subnormal (as -x)
            0x4087_4910_d52d_3051,    // 745.13: the result underflows to 0 (as -x)
            0x7ff0_0000_0000_0000,    // inf
        ] {
            for d in 0..=1024u64 {
                bits.push(c - 512 + d);
            }
        }
        bits.extend([0, 1, 2, 0x000f_ffff_ffff_ffff, 0x0010_0000_0000_0000]);
        bits.extend([0x7ff8_0000_0000_0000, 0x7ff8_0000_0000_1234, 0x7ff0_0000_0000_0001]);
        bits.extend([0x7ff7_ffff_ffff_ffff, 0x7fff_ffff_ffff_ffff]);
        let signed: Vec<u64> = bits.iter().map(|b| b ^ (1 << 63)).collect();
        bits.extend(signed);
        bits.into_iter().map(f64::from_bits).collect()
    }

    /// `n` inputs from `seed`: the first half uniform on [-300, 0] (the
    /// Gaussians' range and beyond), the second half random bit patterns.
    fn exp_random_inputs(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|i| {
                let u = next();
                if i < n / 2 {
                    -300.0 * ((u >> 11) as f64 / (1u64 << 53) as f64)
                } else {
                    f64::from_bits(u)
                }
            })
            .collect()
    }

    #[test]
    fn exp_bodies_match_reference_on_edge_and_random_inputs() {
        let mut inputs = exp_edge_inputs();
        inputs.extend(exp_random_inputs(1, 1 << 16));
        // Bit patterns at an odd stride near 2^48 cover every exponent and
        // sign.
        inputs.extend((0..=u64::MAX).step_by((1 << 48) - 59).map(f64::from_bits));
        assert_eq!(check_exp(&inputs, reference::exp), 0);
    }

    #[test]
    fn exp_of_specials() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(1.0), std::f64::consts::E);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp(710.0), f64::INFINITY);
        assert_eq!(exp(-746.0).to_bits(), 0);
        // -745.1 is 2^-1074 = the smallest subnormal.
        assert_eq!(exp(-745.1).to_bits(), 1);
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        assert_eq!(exp(nan).to_bits(), 0x7ff8_0000_0000_1234);
    }

    /// Runs `want` against every body on the edge windows plus `chunks`
    /// chunks of 2^20 random inputs; returns the mismatch count.
    fn exp_random(chunks: u64, want: fn(f64) -> f64) -> usize {
        check_exp(&exp_edge_inputs(), want)
            + chunked(chunks, |ci| check_exp(&exp_random_inputs(ci + 2, 1 << 20), want))
    }

    #[test]
    #[ignore = "10^9 random inputs; run in release"]
    fn exp_matches_reference_on_1e9_inputs() {
        assert_eq!(exp_random(954, reference::exp), 0);
    }

    #[test]
    #[ignore = "10^8 random inputs against the host libm; holds where libm is glibc 2.36's FMA exp"]
    fn exp_matches_host_libm() {
        assert_eq!(exp_random(96, f64::exp), 0);
    }
}
