//! Naive reference kernels — the bit-exactness oracle for the blocked GEMM
//! and the GEMM-lowered conv3d passes.
//!
//! These are the kernels the optimized layer must match **bitwise**, not
//! approximately: every output element is a single `f32` accumulator folded
//! in ascending-k order with plain `mul` + `add`, where the k axis of a
//! convolution is `(ic, fz, fy, fx)` and out-of-bounds (zero-padding) taps
//! contribute an explicit `0.0` term. Adding a `±0.0` product never changes
//! a finite accumulator that started at `+0.0`, so these folds are also
//! bit-identical to loops that skip the padding taps entirely — but writing
//! the zeros out makes the contract (and its equivalence to the GEMM
//! lowering in `ops::gemm`) explicit.
//!
//! Used by the kernel proptests (`crates/tensor/tests/kernel_proptests.rs`)
//! and as the "naive" side of `dfbench`'s `kernel_bench`. Nothing on a hot
//! path calls these.
//!
//! [`tanhf`] (with its `expm1f`) is the same kind of oracle for
//! [`crate::math::tanh`]: a plain transliteration of fdlibm's `s_tanhf.c`
//! and `s_expm1f.c`, branches and all, which the branch-free editions must
//! match bit for bit. [`exp`] is the oracle for [`crate::math::exp`]: glibc
//! 2.36's `e_exp.c`, branches and all, with the multiply-adds its FMA build
//! fuses written as `mul_add`. Their origin notices are kept in
//! [`crate::math`].

use crate::math::{
    C2, C3, C4, C5, EXP_TAB, INVLN2, INV_LN2_N, LN2_HI, LN2_LO, NEG_LN2_HI_N, NEG_LN2_LO_N, P1009,
    PM1022, Q1, Q2, Q3, Q4, Q5, SHIFT,
};
use crate::tensor::Tensor;

/// `[m,k] x [k,n] -> [m,n]`, triple loop, ascending-k accumulation.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "reference matmul inner dims differ");
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += ad[i * k + p] * bd[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// `a^T x b` for `a: [k,m]`, `b: [k,n]` -> `[m,n]`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "reference matmul_tn inner dims differ");
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += ad[p * m + i] * bd[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// `a x b^T` for `a: [m,k]`, `b: [n,k]` -> `[m,n]`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "reference matmul_nt inner dims differ");
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += ad[i * k + p] * bd[j * k + p];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

fn dims5(s: &[usize]) -> (usize, usize, usize, usize, usize) {
    assert_eq!(s.len(), 5, "expected rank-5 shape, got {s:?}");
    (s[0], s[1], s[2], s[3], s[4])
}

fn out_dim(input: usize, k: usize, pad: usize) -> usize {
    input + 2 * pad + 1 - k
}

/// Direct-form conv3d forward (no bias): input `[N,C,D,H,W]`, kernel
/// `[O,C,kd,kh,kw]`, stride 1, symmetric zero padding. Each output element
/// folds its `C·kd·kh·kw` taps in `(ic, fz, fy, fx)` order.
pub fn conv3d_forward(x: &Tensor, w: &Tensor, pad: usize) -> Tensor {
    let (n, c, d, h, wd) = dims5(x.shape());
    let (o, cw, kd, kh, kw) = dims5(w.shape());
    assert_eq!(c, cw, "reference conv3d channel mismatch");
    let (od, oh, ow) = (out_dim(d, kd, pad), out_dim(h, kh, pad), out_dim(wd, kw, pad));
    let mut out = Tensor::zeros(&[n, o, od, oh, ow]);
    let (xd, wdta) = (x.data(), w.data());
    let ipad = pad as isize;
    let spatial = od * oh * ow;
    let odata = out.data_mut();
    for bn in 0..n {
        for oc in 0..o {
            let oblock = &mut odata[(bn * o + oc) * spatial..(bn * o + oc + 1) * spatial];
            for zd in 0..od {
                for yh in 0..oh {
                    for xw in 0..ow {
                        let mut acc = 0.0f32;
                        for ic in 0..c {
                            let wbase = (oc * c + ic) * kd * kh * kw;
                            let xbase = (bn * c + ic) * d * h * wd;
                            for fz in 0..kd {
                                let iz = zd as isize + fz as isize - ipad;
                                for fy in 0..kh {
                                    let iy = yh as isize + fy as isize - ipad;
                                    for fx in 0..kw {
                                        let ix = xw as isize + fx as isize - ipad;
                                        let xv = tap(xd, xbase, iz, iy, ix, d, h, wd);
                                        let wi = wbase + (fz * kh + fy) * kw + fx;
                                        acc += xv * wdta[wi];
                                    }
                                }
                            }
                        }
                        oblock[(zd * oh + yh) * ow + xw] = acc;
                    }
                }
            }
        }
    }
    out
}

/// Gradient w.r.t. the conv3d input. For each `(bn, ic)` channel the
/// contributions arrive in `(spatial position s, fz, fy, fx)` order, and the
/// per-tap value is itself a fold over `oc` ascending — mirroring the
/// GEMM-then-col2im lowering.
pub fn conv3d_backward_input(gout: &Tensor, w: &Tensor, xshape: &[usize], pad: usize) -> Tensor {
    let (n, c, d, h, wd) = dims5(xshape);
    let (o, _, kd, kh, kw) = dims5(w.shape());
    let (_, _, od, oh, ow) = dims5(gout.shape());
    let mut gx = Tensor::zeros(xshape);
    let (gd, wdta) = (gout.data(), w.data());
    let ipad = pad as isize;
    let in_spatial = d * h * wd;
    let spatial = od * oh * ow;
    let gxd = gx.data_mut();
    for bn in 0..n {
        for ic in 0..c {
            let gxblock = &mut gxd[(bn * c + ic) * in_spatial..(bn * c + ic + 1) * in_spatial];
            for s in 0..spatial {
                let (zd, yh, xw) = (s / (oh * ow), (s / ow) % oh, s % ow);
                for fz in 0..kd {
                    let iz = zd as isize + fz as isize - ipad;
                    if iz < 0 || iz >= d as isize {
                        continue;
                    }
                    for fy in 0..kh {
                        let iy = yh as isize + fy as isize - ipad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for fx in 0..kw {
                            let ix = xw as isize + fx as isize - ipad;
                            if ix < 0 || ix >= wd as isize {
                                continue;
                            }
                            let mut g = 0.0f32;
                            for oc in 0..o {
                                let wi = ((oc * c + ic) * kd + fz) * kh * kw + fy * kw + fx;
                                g += gd[(bn * o + oc) * spatial + s] * wdta[wi];
                            }
                            let xi = (iz as usize) * h * wd + (iy as usize) * wd + ix as usize;
                            gxblock[xi] += g;
                        }
                    }
                }
            }
        }
    }
    gx
}

/// Gradient w.r.t. the conv3d kernel. Each kernel element folds its
/// contributions over `(bn, spatial position)` ascending, with padding taps
/// contributing explicit zeros.
pub fn conv3d_backward_weight(gout: &Tensor, x: &Tensor, wshape: &[usize], pad: usize) -> Tensor {
    let (n, c, d, h, wd) = dims5(x.shape());
    let (o, _, kd, kh, kw) = dims5(wshape);
    let (_, _, od, oh, ow) = dims5(gout.shape());
    let mut gw = Tensor::zeros(wshape);
    let (gd, xd) = (gout.data(), x.data());
    let ipad = pad as isize;
    let spatial = od * oh * ow;
    let gwd = gw.data_mut();
    for oc in 0..o {
        for ic in 0..c {
            for fz in 0..kd {
                for fy in 0..kh {
                    for fx in 0..kw {
                        let mut acc = 0.0f32;
                        for bn in 0..n {
                            let xbase = (bn * c + ic) * d * h * wd;
                            for s in 0..spatial {
                                let (zd, yh, xw) = (s / (oh * ow), (s / ow) % oh, s % ow);
                                let iz = zd as isize + fz as isize - ipad;
                                let iy = yh as isize + fy as isize - ipad;
                                let ix = xw as isize + fx as isize - ipad;
                                let xv = tap(xd, xbase, iz, iy, ix, d, h, wd);
                                acc += gd[(bn * o + oc) * spatial + s] * xv;
                            }
                        }
                        gwd[((oc * c + ic) * kd + fz) * kh * kw + fy * kw + fx] = acc;
                    }
                }
            }
        }
    }
    gw
}

/// Input tap with explicit zero padding.
#[inline]
#[allow(clippy::too_many_arguments)] // three coordinates + three bounds; mirrors the conv loop nest
fn tap(
    xd: &[f32],
    xbase: usize,
    iz: isize,
    iy: isize,
    ix: isize,
    d: usize,
    h: usize,
    wd: usize,
) -> f32 {
    if iz < 0 || iz >= d as isize || iy < 0 || iy >= h as isize || ix < 0 || ix >= wd as isize {
        0.0
    } else {
        xd[xbase + (iz as usize) * h * wd + (iy as usize) * wd + ix as usize]
    }
}

/// fdlibm `expm1f` (`s_expm1f.c`), transliterated.
fn expm1f(mut x: f32) -> f32 {
    let mut hx = x.to_bits();
    let xsb = hx & 0x8000_0000;
    hx &= 0x7fff_ffff;
    // Filter out huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        if hx >= 0x42b1_7218 {
            if hx > 0x7f80_0000 {
                return x + x;
            }
            if hx == 0x7f80_0000 {
                return if xsb == 0 { x } else { -1.0 };
            }
            // Overflow threshold 8.8721679688e+01.
            if x > f32::from_bits(0x42b1_7180) {
                return f32::INFINITY;
            }
        }
        if xsb != 0 {
            // 1e-30 - 1 rounds to -1.
            return -1.0;
        }
    }
    // Argument reduction.
    let (k, c): (i32, f32);
    if hx > 0x3eb1_7218 {
        let (hi, lo);
        if hx < 0x3f85_1592 {
            if xsb == 0 {
                hi = x - LN2_HI;
                lo = LN2_LO;
                k = 1;
            } else {
                hi = x + LN2_HI;
                lo = -LN2_LO;
                k = -1;
            }
        } else {
            k = (INVLN2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
            let t = k as f32;
            hi = x - t * LN2_HI;
            lo = t * LN2_LO;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25.
        let t = 1.0e30 + x;
        return x - (t - (1.0e30 + x));
    } else {
        k = 0;
        c = 0.0;
    }
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let mut e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    e = x * (e - c) - c;
    e -= hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 { -2.0 * (e - (x + 0.5)) } else { 1.0 + 2.0 * (x - e) };
    }
    let exp_k = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    if k <= -2 || k > 56 {
        return exp_k(1.0 - (e - x)) - 1.0;
    }
    if k < 23 {
        exp_k(f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)) - (e - x))
    } else {
        exp_k((x - (e + f32::from_bits(((0x7f - k) as u32) << 23))) + 1.0)
    }
}

/// fdlibm `tanhf` (`s_tanhf.c`), transliterated.
pub fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    // tanh(±inf) = ±1, tanh(NaN) = NaN.
    if ix >= 0x7f80_0000 {
        return if jx >= 0 { 1.0 / x + 1.0 } else { 1.0 / x - 1.0 };
    }
    let z = if ix < 0x41b0_0000 {
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2^-55.
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            1.0 - 2.0 / (expm1f(2.0 * x.abs()) + 2.0)
        } else {
            let t = expm1f(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        // |x| >= 22: 1 - 1e-30 rounds to 1.
        1.0
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// glibc 2.36 `exp` (`e_exp.c`) as its FMA build computes it, transliterated.
pub fn exp(x: f64) -> f64 {
    let mut abstop = (x.to_bits() >> 52) & 0x7ff;
    if abstop.wrapping_sub(0x3c9) >= 0x408 - 0x3c9 {
        if abstop < 0x3c9 {
            // |x| < 2^-54.
            return 1.0 + x;
        }
        if abstop >= 0x409 {
            if x.to_bits() == f64::NEG_INFINITY.to_bits() {
                return 0.0;
            }
            if abstop >= 0x7ff {
                return 1.0 + x;
            }
            return if x.to_bits() >> 63 != 0 { 0.0 } else { f64::INFINITY };
        }
        // |x| in [512, 1024): handled by the special case below.
        abstop = 0;
    }
    let kd = x.mul_add(INV_LN2_N, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = kd.mul_add(NEG_LN2_LO_N, kd.mul_add(NEG_LN2_HI_N, x));
    let idx = 2 * (ki % 128) as usize;
    let top = ki << 45;
    let tail = f64::from_bits(EXP_TAB[idx]);
    let sbits = EXP_TAB[idx + 1].wrapping_add(top);
    let r2 = r * r;
    let tmp = (r2 * r2).mul_add(r.mul_add(C5, C4), r2.mul_add(r.mul_add(C3, C2), tail + r));
    if abstop == 0 {
        return exp_specialcase(tmp, sbits, ki);
    }
    let scale = f64::from_bits(sbits);
    scale.mul_add(tmp, scale)
}

/// `e_exp.c`'s `specialcase`. gcc fuses `scale + scale * tmp` in the
/// `k > 0` branch only: the `k < 0` branch reuses `scale * tmp`.
fn exp_specialcase(tmp: f64, sbits: u64, ki: u64) -> f64 {
    if ki & 0x8000_0000 == 0 {
        let scale = f64::from_bits(sbits.wrapping_sub(1009 << 52));
        return P1009 * scale.mul_add(tmp, scale);
    }
    let scale = f64::from_bits(sbits.wrapping_add(1022 << 52));
    let st = scale * tmp;
    let mut y = scale + st;
    if y < 1.0 {
        let lo = scale - y + st;
        let hi = 1.0 + y;
        let lo = 1.0 - hi + y + lo;
        y = (hi + lo) - 1.0;
        if y == 0.0 {
            y = 0.0;
        }
    }
    PM1022 * y
}
