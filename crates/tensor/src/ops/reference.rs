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
