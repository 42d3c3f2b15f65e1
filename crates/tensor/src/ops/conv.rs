//! 3-D convolution for the voxelized protein–ligand representation.
//!
//! Layout follows PyTorch: input `[N, C, D, H, W]`, kernel
//! `[O, C, kd, kh, kw]`, bias `[O]`. Stride is fixed at 1 (the paper's
//! 3D-CNN downsamples with max-pooling, not strided convs); zero padding is
//! configurable so `pad = k/2` gives "same" spatial dims for odd kernels.
//!
//! Every pass computes the fold of [`crate::ops::reference`]: each output
//! element is one `f32` accumulator that starts at `+0.0` and adds its
//! products in ascending `k = (ic, fz, fy, fx)` with plain `mul` + `add`.
//! Every pass is **batched**: a micro-batch of compounds costs one pass per
//! layer, not one per compound.
//!
//! ## Dense inputs: implicit GEMM
//!
//! The forward over a dense input and both gradients are lowered onto the
//! packed GEMM in `ops::gemm`. The forward and the weight gradient never
//! write the column matrix `colT[(bn, s), (ic, fz, fy, fx)]` of the
//! textbook im2col lowering. They make one zero-padded copy
//! `xpad[N, C, D+2p, H+2p, W+2p]` of the input (padding is an explicit
//! `+0.0`), in which
//!
//! ```text
//! colT[i, k] = xpad[off(i) + koff(k)]
//! off(bn, zd, yh, xw)  = bn·C·psp + (zd·Hp + yh)·Wp + xw      (row table)
//! koff(ic, fz, fy, fx) = ic·psp   + (fz·Hp + fy)·Wp + fx      (tap table)
//! ```
//!
//! with `psp = Dp·Hp·Wp`, and hand `ops::gemm::gemm_with` an A packer
//! ([`Cols::pack`]) that gathers each `MC × KC` block of `MR`-row panels
//! straight from `xpad` through the two tables ([`Offsets`], filled per
//! block into stack arrays): one `MR`-wide contiguous copy per k step when
//! a panel's rows are neighbours in `xpad`, element by element otherwise
//! (x-row ends, sample boundaries, the zero-filled tail).
//!
//! * **forward** — `outT = colT · Wᵀ`: A rows walk the row table, k the
//!   tap table; the spatial-major product is transposed per sample into
//!   the `[O, spatial]` tensor layout.
//! * **backward-weight** — `gWᵀ = colTᵀ · goutT`: the same packer with the
//!   tables swapped (A rows walk taps, k walks `(bn, s)`), against the
//!   stacked spatial-major gradient; the ascending-k fold visits `(bn, s)`
//!   in exactly the reference order, and the product is transposed into
//!   `[O, C·kd·kh·kw]`.
//! * **backward-input** — `gcolT = goutT · Wmat` recovers per-tap input
//!   gradients (this one *is* a column matrix, so the batch runs in chunks
//!   of whole samples bounded by [`COL_CHUNK_ELEMS`]), scattered back by a
//!   per-sample col2im pass that walks spatial positions in ascending
//!   order per input channel.
//!
//! The gathered panels are byte-for-byte what packing a materialized
//! `colT` produces, so the micro-kernel sees the same operands and keeps
//! the reference's fold.
//!
//! ## Sparse inputs: scatter
//!
//! conv1 reads the featurizer's voxel grid, in which each atom deposits
//! into a few voxels of two of the 16 channels: nearly every packed column
//! would be zero. So the forward counts its input's nonzeros (`v != 0.0`,
//! so NaN and denormals count). When at most one in [`SCATTER_SPARSITY`]
//! is nonzero and every weight is finite, it iterates the voxels instead
//! of the grid ([`scatter_forward`]). The weights are transposed once to
//! `[ic, tap, O]`. For each sample and input channel, each nonzero voxel,
//! in ascending position, adds `v · W[ic, tap, :]` into the O-wide row of
//! every output it reaches, in a spatial-major accumulator. Per axis, the
//! taps that land inside the output form one range, found once per voxel;
//! with the taps stored in reverse, a voxel's x taps on one `(fz, fy)` line
//! are one contiguous run of weights and of accumulator rows. No padded
//! copy is made. The accumulator is transposed into `[O, spatial]` like the
//! GEMM's product.
//!
//! **Why the scatter keeps every bit.** Fix one output and one channel.
//! Each voxel adds at most one product to it, and the voxel a tap reads is
//! the output's position plus `(fz, fy, fx) − pad`, so ascending voxel
//! position is ascending `(fz, fy, fx)`: the accumulator still adds its
//! products in ascending k, each a plain multiply then a plain add, from
//! `+0.0`. It omits only the products of zero voxels and of padding taps,
//! each `±0.0 · w` with `w` finite, so `±0.0`. Omitting them changes no
//! bit. An accumulator that starts at `+0.0` is never `-0.0`: a
//! round-to-nearest sum is `-0.0` only when both addends are, and
//! `x + (-x)` is `+0.0`. Adding `±0.0` to any value but `-0.0`, NaN and
//! ±inf included, returns that value. So every add the scatter performs
//! sees the operand the full fold sees at the same point. The finiteness
//! clause matters: `0 · inf` is NaN. A non-finite weight therefore sends
//! the forward to the GEMM, which folds every product by construction.
//!
//! Either path returns the reference's bits, so the cutoff moves time but
//! never a result. All three passes are bit-identical to
//! [`crate::ops::reference`] across pool thread counts **and** batch sizes
//! (locked by the kernel proptests and `tests/parallel_determinism.rs`).
//! Scratch buffers come from the thread-local [`crate::scratch`] arena, so
//! steady-state training and `dfserve` micro-batches do not allocate here.

use crate::graph::{Graph, VarId};
use crate::ops::gemm::{gemm, gemm_with, pack_b, Layout, KC, MC, MR};
use crate::scratch::{self, Slot};
use crate::tensor::Tensor;
use std::ops::Range;

/// Spatial output size for one dimension.
fn out_dim(input: usize, k: usize, pad: usize) -> usize {
    input + 2 * pad + 1 - k
}

/// The forward scatters an input with at most one nonzero element in
/// `SCATTER_SPARSITY` and packs anything denser into the GEMM. Both paths
/// return the same bits, so this moves time only. On the fusion models'
/// conv inputs the gap is wide: voxel grids are at most 7.4% nonzero, and
/// the activations every later conv reads are at least 41.7% nonzero.
const SCATTER_SPARSITY: usize = 8;

/// Below this many moved elements the col2im pass runs inline on the
/// calling thread — it is memcpy-bound, so tiny grids lose more to band
/// hand-off than the copy costs.
const PAR_COPY_CUTOFF_ELEMS: usize = 1 << 20;

/// Ceiling (in f32 elements, ~32 MiB) on the stacked per-tap gradient
/// matrix one input-gradient GEMM produces; batches whose `spatial × kdim`
/// footprint exceeds it are processed in chunks of whole samples (at least
/// one). Keeps the thread-local scratch arena bounded. The other two
/// passes write no such matrix and run the whole batch in one pass.
const COL_CHUNK_ELEMS: usize = 8 << 20;

/// Number of whole samples per batched-GEMM chunk for a per-sample
/// column-matrix footprint of `per_sample` elements.
fn chunk_samples(n: usize, per_sample: usize) -> usize {
    (COL_CHUNK_ELEMS / per_sample.max(1)).clamp(1, n.max(1))
}

/// Static conv geometry shared by the packers, the scatter and the col2im
/// pass.
#[derive(Clone, Copy)]
struct Geom {
    c: usize,
    d: usize,
    h: usize,
    w: usize,
    kd: usize,
    kh: usize,
    kw: usize,
    od: usize,
    oh: usize,
    ow: usize,
    pad: usize,
}

impl Geom {
    /// Contraction length: `C·kd·kh·kw`, ordered `(ic, fz, fy, fx)`.
    fn kdim(&self) -> usize {
        self.c * self.kd * self.kh * self.kw
    }
    /// Output spatial volume `od·oh·ow`.
    fn spatial(&self) -> usize {
        self.od * self.oh * self.ow
    }
    /// Input spatial volume `d·h·w`.
    fn in_spatial(&self) -> usize {
        self.d * self.h * self.w
    }
    /// Padded input dims `(Dp, Hp, Wp)`.
    fn padded(&self) -> (usize, usize, usize) {
        (self.d + 2 * self.pad, self.h + 2 * self.pad, self.w + 2 * self.pad)
    }
    /// Padded volume of one sample, `C·psp`.
    fn padded_sample(&self) -> usize {
        let (dp, hp, wp) = self.padded();
        self.c * dp * hp * wp
    }
    /// `off(i)` over stacked output positions `i = (bn, zd, yh, xw)`.
    fn rows(&self) -> Offsets {
        let (_, hp, wp) = self.padded();
        Offsets { dims: [self.od, self.oh, self.ow], strides: [self.padded_sample(), hp * wp, wp] }
    }
    /// `koff(k)` over taps `k = (ic, fz, fy, fx)`.
    fn taps(&self) -> Offsets {
        let (dp, hp, wp) = self.padded();
        Offsets { dims: [self.kd, self.kh, self.kw], strides: [dp * hp * wp, hp * wp, wp] }
    }
    /// Decomposes a flat output spatial index into `(zd, yh, xw)`.
    fn unflatten(&self, s: usize) -> (usize, usize, usize) {
        (s / (self.oh * self.ow), (s / self.ow) % self.oh, s % self.ow)
    }
}

/// A mixed-radix index → `xpad` offset table: index `i` has digits
/// `(q, a, b, c)` over `[_, dims[0], dims[1], dims[2]]` and maps to
/// `q·strides[0] + a·strides[1] + b·strides[2] + c`. [`Geom::rows`] and
/// [`Geom::taps`] are the two instances (module doc).
struct Offsets {
    dims: [usize; 3],
    strides: [usize; 3],
}

impl Offsets {
    /// `out[j]` = offset of index `start + j`; one decode per innermost
    /// run, so a block may start anywhere.
    fn fill(&self, start: usize, out: &mut [usize]) {
        let [d1, d2, d3] = self.dims;
        let mut j = 0;
        while j < out.len() {
            let (c, t) = ((start + j) % d3, (start + j) / d3);
            let (b, t) = (t % d2, t / d2);
            let base =
                t / d1 * self.strides[0] + t % d1 * self.strides[1] + b * self.strides[2] + c;
            let run = (d3 - c).min(out.len() - j);
            for (dj, o) in out[j..j + run].iter_mut().enumerate() {
                *o = base + dj;
            }
            j += run;
        }
    }
}

/// Writes the zero-padded copy of `x[N, C, D, H, W]` into
/// `xpad[N, C, Dp, Hp, Wp]`, every element (arena contents are stale).
fn pad_input(xpad: &mut [f32], x: &[f32], g: Geom) {
    let (dp, hp, wp) = g.padded();
    xpad.fill(0.0);
    for (q, plane) in x.chunks_exact(g.h * g.w).enumerate() {
        let base = (((q / g.d * dp + q % g.d + g.pad) * hp) + g.pad) * wp + g.pad;
        for (y, row) in plane.chunks_exact(g.w).enumerate() {
            xpad[base + y * wp..base + y * wp + g.w].copy_from_slice(row);
        }
    }
}

/// `colT` (`lanes` = row table, `ks` = tap table) or `colTᵀ` (swapped) as
/// a GEMM A operand that exists only as packed panels.
struct Cols<'a> {
    xpad: &'a [f32],
    lanes: Offsets,
    ks: Offsets,
}

impl Cols<'_> {
    /// Rows `row0..row0+mcb` × k range `pc..pc+kcb`, gathered from `xpad`
    /// into `ops::gemm::pack_a`'s panel layout.
    fn pack(&self, row0: usize, mcb: usize, pc: usize, kcb: usize, apack: &mut [f32]) {
        let (mut lanes, mut ks) = ([0; MC], [0; KC]);
        self.lanes.fill(row0, &mut lanes[..mcb]);
        self.ks.fill(pc, &mut ks[..kcb]);
        for (panel, l) in apack.chunks_exact_mut(kcb * MR).zip(lanes[..mcb].chunks(MR)) {
            let steps = panel.chunks_exact_mut(MR).zip(&ks);
            // Offsets strictly ascend along either table, so the span
            // test says all MR lanes are neighbours in `xpad`.
            if l.len() == MR && l[MR - 1] - l[0] == MR - 1 {
                for (dst, &k) in steps {
                    dst.copy_from_slice(&self.xpad[l[0] + k..l[0] + k + MR]);
                }
            } else {
                for (dst, &k) in steps {
                    for (r, d) in dst.iter_mut().enumerate() {
                        *d = l.get(r).map_or(0.0, |&lane| self.xpad[lane + k]);
                    }
                }
            }
        }
    }
}

/// The two column-matrix GEMMs over the batch `x[n, C, D, H, W]`, `colT`
/// never written: forward (`transposed == false`) is `colT · bᵀ` with
/// `b = W[o, kdim]`, the weight gradient (`true`) is `colTᵀ · b` with
/// `b = goutT[(bn, s), o]`. Either `[m, o]` product lands in `dst`
/// transposed — per sample into `[o, spatial]`, resp. whole into
/// `[o, kdim]`.
fn cols_gemm(x: &[f32], n: usize, g: Geom, transposed: bool, b: &[f32], o: usize, dst: &mut [f32]) {
    let (rows, kdim) = (n * g.spatial(), g.kdim());
    let (m, k, lanes, ks, layout, block) = if transposed {
        (kdim, rows, g.taps(), g.rows(), Layout::Nn, kdim)
    } else {
        (rows, kdim, g.rows(), g.taps(), Layout::Nt, g.spatial())
    };
    dftrace::counter_add("tensor.conv3d.batched_gemms", 1);
    scratch::with(Slot::PaddedInput, n * g.padded_sample(), |xpad| {
        {
            let _s = dftrace::span("tensor.conv3d.pad");
            pad_input(xpad, x, g);
        }
        let cols = Cols { xpad, lanes, ks };
        scratch::with(Slot::GemmOut, m * o, |prod| {
            let pack_a =
                |row0, mcb, pc, kcb, apack: &mut [f32]| cols.pack(row0, mcb, pc, kcb, apack);
            gemm_with(m, k, o, prod, |bpack| pack_b(layout, b, k, o, bpack), &pack_a);
            transpose_blocks(prod, dst, block, o);
        });
    });
}

/// The forward over a sparse batch `x[n, C, D, H, W]` with finite weights
/// `w[o, kdim]`, written into `dst` as `[n, o, spatial]`: every nonzero
/// voxel, in ascending position per sample and channel, adds its products
/// into the outputs it reaches (module doc).
fn scatter_forward(x: &[f32], n: usize, g: Geom, w: &[f32], o: usize, dst: &mut [f32]) {
    let _s = dftrace::span("tensor.conv3d.scatter");
    let (kdim, taps, sp) = (g.kdim(), g.kd * g.kh * g.kw, g.spatial());
    scratch::with(Slot::PackB, kdim * o, |wt| {
        // wt[ic, t', oc] = w[oc, ic, t] with the taps of each channel
        // reversed, t' = taps - 1 - t: along x, ascending t' then meets
        // ascending outputs, so one voxel's run of x taps on one (fz, fy)
        // line is one contiguous span of `wt` and of the accumulator.
        for (oc, row) in w.chunks_exact(kdim).enumerate() {
            for (k, &v) in row.iter().enumerate() {
                wt[(k / taps * taps + taps - 1 - k % taps) * o + oc] = v;
            }
        }
        scratch::with(Slot::GemmOut, n * sp * o, |acc| {
            acc.fill(0.0);
            let samples = x.chunks_exact(g.c * g.in_spatial()).zip(acc.chunks_exact_mut(sp * o));
            for (xs, out) in samples {
                let channels = xs.chunks_exact(g.in_spatial()).zip(wt.chunks_exact(taps * o));
                for (xc, wc) in channels {
                    for (i, &v) in xc.iter().enumerate().filter(|&(_, &v)| v != 0.0) {
                        // Padded position of the voxel, and its taps per axis;
                        // taps `fxs` reach outputs `x0..x0 + nx` along x.
                        let (z, y, xp) =
                            (i / (g.h * g.w) + g.pad, i / g.w % g.h + g.pad, i % g.w + g.pad);
                        let (fys, fxs) = (reach(y, g.oh, g.kh), reach(xp, g.ow, g.kw));
                        let (x0, nx) = (xp + 1 - fxs.end, fxs.len());
                        for fz in reach(z, g.od, g.kd) {
                            for fy in fys.clone() {
                                let s = ((z - fz) * g.oh + y - fy) * g.ow + x0;
                                let t = taps - ((fz * g.kh + fy) * g.kw + fxs.end);
                                let run = out[s * o..(s + nx) * o].iter_mut();
                                for (a, &wv) in run.zip(&wc[t * o..(t + nx) * o]) {
                                    *a += v * wv;
                                }
                            }
                        }
                    }
                }
            }
            transpose_blocks(acc, dst, sp, o);
        });
    });
}

/// The taps `f < k` along one axis that carry padded input position `p`
/// to an output `p - f` inside `0..out`.
fn reach(p: usize, out: usize, k: usize) -> Range<usize> {
    (p + 1).saturating_sub(out)..(p + 1).min(k)
}

/// `dst[j, i] = src[i, j]` within each consecutive `[rows, cols]` block —
/// the `[O, spatial]` tensor layout ⇄ the spatial-major GEMM layout.
fn transpose_blocks(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    let _s = dftrace::span("tensor.conv3d.unpack");
    for (sb, db) in src.chunks_exact(rows * cols).zip(dst.chunks_exact_mut(rows * cols)) {
        for (i, srow) in sb.chunks_exact(cols).enumerate() {
            for (j, &v) in srow.iter().enumerate() {
                db[j * rows + i] = v;
            }
        }
    }
}

/// Scatters `gcolT[spatial, kdim]` back into one batch element of the input
/// gradient (`gxb = gx[bn]`, `[C, D, H, W]`). Parallel over input channels;
/// within a channel, contributions land in `(s, fz, fy, fx)` order — the
/// accumulation order the reference kernel defines.
fn col2im_add(gxb: &mut [f32], gcolt: &[f32], g: Geom) {
    let in_sp = g.in_spatial();
    let ksz = g.kd * g.kh * g.kw;
    let pool = dfpool::current();
    let lanes = pool.lanes();
    let min_rows =
        if g.spatial() * g.kdim() < PAR_COPY_CUTOFF_ELEMS { g.c } else { g.c.div_ceil(lanes) };
    pool.parallel_rows(gxb, in_sp, min_rows, |first, band| {
        for (dc, gxc) in band.chunks_mut(in_sp).enumerate() {
            let ic = first + dc;
            for s in 0..g.spatial() {
                let (zd, yh, xw) = g.unflatten(s);
                let row = &gcolt[s * g.kdim() + ic * ksz..s * g.kdim() + (ic + 1) * ksz];
                let ix0 = xw as isize - g.pad as isize;
                let lo = ((-ix0).max(0) as usize).min(g.kw);
                let hi = ((g.w as isize - ix0).max(0) as usize).min(g.kw);
                let mut kk = 0;
                for fz in 0..g.kd {
                    let iz = zd as isize + fz as isize - g.pad as isize;
                    if iz < 0 || iz >= g.d as isize {
                        kk += g.kh * g.kw;
                        continue;
                    }
                    let zoff = (iz as usize) * g.h * g.w;
                    for fy in 0..g.kh {
                        let iy = yh as isize + fy as isize - g.pad as isize;
                        let src = &row[kk..kk + g.kw];
                        kk += g.kw;
                        if iy < 0 || iy >= g.h as isize || lo >= hi {
                            continue;
                        }
                        let base = zoff + (iy as usize) * g.w + (ix0 + lo as isize) as usize;
                        for (dstv, &v) in gxc[base..base + (hi - lo)].iter_mut().zip(&src[lo..hi]) {
                            *dstv += v;
                        }
                    }
                }
            }
        }
    });
}

/// Forward convolution (no bias): input `[N,C,D,H,W]`, kernel
/// `[O,C,kd,kh,kw]`, stride 1 — a scatter over a sparse input, the implicit
/// GEMM otherwise (module doc). Public so the kernel proptests and
/// `dfbench` can drive it directly against [`crate::ops::reference`];
/// model code goes through [`Graph::conv3d`].
pub fn conv3d_forward(x: &Tensor, w: &Tensor, pad: usize) -> Tensor {
    let _t = dftrace::span("tensor.conv3d.fwd");
    let (n, c, d, h, wd) = dims5(x.shape());
    let (o, cw, kd, kh, kw) = dims5(w.shape());
    assert_eq!(c, cw, "conv3d channel mismatch: input {c}, kernel {cw}");
    let (od, oh, ow) = (out_dim(d, kd, pad), out_dim(h, kh, pad), out_dim(wd, kw, pad));
    let g = Geom { c, d, h, w: wd, kd, kh, kw, od, oh, ow, pad };
    let mut out = Tensor::zeros(&[n, o, od, oh, ow]);
    let (xd, wts) = (x.data(), w.data());
    let nonzero = xd.iter().filter(|&&v| v != 0.0).count();
    if nonzero * SCATTER_SPARSITY <= xd.len() && wts.iter().all(|v| v.is_finite()) {
        scatter_forward(xd, n, g, wts, o, out.data_mut());
    } else {
        // outT[(bn,s), oc] = Σ_k colT[(bn,s), k] · W[oc, k] — one GEMM for
        // the whole batch, spatial-major so it tiles over the (large)
        // stacked spatial axis, not O.
        cols_gemm(xd, n, g, false, wts, o, out.data_mut());
    }
    out
}

/// Gradient w.r.t. the input: GEMM to per-tap gradients, then col2im.
pub fn conv3d_backward_input(gout: &Tensor, w: &Tensor, xshape: &[usize], pad: usize) -> Tensor {
    let _t = dftrace::span("tensor.conv3d.bwd_input");
    let (n, c, d, h, wd) = dims5(xshape);
    let (o, _, kd, kh, kw) = dims5(w.shape());
    let (_, _, od, oh, ow) = dims5(gout.shape());
    let g = Geom { c, d, h, w: wd, kd, kh, kw, od, oh, ow, pad };
    let (kdim, s_sp, in_sp) = (g.kdim(), g.spatial(), g.in_spatial());
    let mut gx = Tensor::zeros(xshape);
    let gd = gout.data();
    let wdta = w.data();
    let bc_max = chunk_samples(n, s_sp * kdim);
    let mut b0 = 0;
    while b0 < n {
        let bc = bc_max.min(n - b0);
        dftrace::counter_add("tensor.conv3d.batched_gemms", 1);
        scratch::with(Slot::GradT, bc * s_sp * o, |goutt| {
            // Each gout[bn] from [O, spatial] to spatial-major.
            transpose_blocks(&gd[b0 * o * s_sp..(b0 + bc) * o * s_sp], goutt, o, s_sp);
            scratch::with(Slot::GemmOut, bc * s_sp * kdim, |gcolt| {
                // gcolT[(bn,s), k] = Σ_oc goutT[(bn,s), oc] · W[oc, k] —
                // one GEMM per chunk.
                gemm(Layout::Nn, bc * s_sp, o, kdim, goutt, wdta, gcolt);
                let _s = dftrace::span("tensor.conv3d.col2im");
                for db in 0..bc {
                    let bn = b0 + db;
                    col2im_add(
                        &mut gx.data_mut()[bn * c * in_sp..(bn + 1) * c * in_sp],
                        &gcolt[db * s_sp * kdim..(db + 1) * s_sp * kdim],
                        g,
                    );
                }
            });
        });
        b0 += bc;
    }
    gx
}

/// Gradient w.r.t. the kernel: `colTᵀ · goutT` over the whole batch.
pub fn conv3d_backward_weight(gout: &Tensor, x: &Tensor, wshape: &[usize], pad: usize) -> Tensor {
    let _t = dftrace::span("tensor.conv3d.bwd_weight");
    let (n, c, d, h, wd) = dims5(x.shape());
    let (o, _, kd, kh, kw) = dims5(wshape);
    let (_, _, od, oh, ow) = dims5(gout.shape());
    let g = Geom { c, d, h, w: wd, kd, kh, kw, od, oh, ow, pad };
    let mut gw = Tensor::zeros(wshape);
    scratch::with(Slot::GradT, gout.data().len(), |goutt| {
        // Spatial-major transpose of gout, the dense B operand below.
        transpose_blocks(gout.data(), goutt, o, g.spatial());
        // gWᵀ[k, oc] = Σ_{(bn,s)} colT[(bn,s), k] · goutT[(bn,s), oc]: one
        // GEMM whose ascending-k fold walks (bn, s) in exactly the order of
        // the one big contraction the reference performs.
        cols_gemm(x.data(), n, g, true, goutt, o, gw.data_mut());
    });
    gw
}

fn dims5(s: &[usize]) -> (usize, usize, usize, usize, usize) {
    assert_eq!(s.len(), 5, "expected rank-5 shape, got {s:?}");
    (s[0], s[1], s[2], s[3], s[4])
}

impl Graph {
    /// 3-D convolution with stride 1 and symmetric zero padding, plus a
    /// per-output-channel bias.
    pub fn conv3d(&mut self, x: VarId, w: VarId, b: VarId, pad: usize) -> VarId {
        let out = conv3d_forward(self.value(x), self.value(w), pad);
        let (n_out, o, od, oh, ow) = dims5(out.shape());
        // Add bias per output channel.
        let bt = self.value(b);
        assert_eq!(bt.shape(), &[o], "conv3d bias must be [out_channels]");
        let mut out_b = out;
        {
            let spatial = od * oh * ow;
            let data = out_b.data_mut();
            for bn in 0..n_out {
                for oc in 0..o {
                    let bval = bt.data()[oc];
                    let base = (bn * o + oc) * spatial;
                    for v in &mut data[base..base + spatial] {
                        *v += bval;
                    }
                }
            }
        }
        let wshape = self.value(w).shape().to_vec();
        let xshape = self.value(x).shape().to_vec();
        self.push_op(
            vec![x, w, b],
            out_b,
            Box::new(move |ctx| {
                let gx = conv3d_backward_input(ctx.grad, ctx.parents[1], &xshape, pad);
                let gw = conv3d_backward_weight(ctx.grad, ctx.parents[0], &wshape, pad);
                let (n, o, od, oh, ow) = dims5(ctx.grad.shape());
                let spatial = od * oh * ow;
                let mut gb = Tensor::zeros(&[o]);
                for bn in 0..n {
                    for oc in 0..o {
                        let base = (bn * o + oc) * spatial;
                        let s: f32 = ctx.grad.data()[base..base + spatial].iter().sum();
                        gb.data_mut()[oc] += s;
                    }
                }
                vec![gx, gw, gb]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::GradCheck;
    use crate::rng::rng;

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1x1 kernel with weight 1 and zero bias is the identity.
        let mut g = Graph::new();
        let mut r = rng(1);
        let x = Tensor::randn(&[1, 1, 3, 3, 3], &mut r);
        let xv = g.input(x.clone());
        let w = g.input(Tensor::ones(&[1, 1, 1, 1, 1]));
        let b = g.input(Tensor::zeros(&[1]));
        let y = g.conv3d(xv, w, b, 0);
        assert!(g.value(y).allclose(&x, 1e-6));
    }

    #[test]
    fn shapes_with_padding() {
        let mut g = Graph::new();
        let mut r = rng(2);
        let x = g.input(Tensor::randn(&[2, 3, 5, 5, 5], &mut r));
        let w = g.input(Tensor::randn(&[4, 3, 3, 3, 3], &mut r));
        let b = g.input(Tensor::zeros(&[4]));
        let same = g.conv3d(x, w, b, 1);
        assert_eq!(g.value(same).shape(), &[2, 4, 5, 5, 5]);
        let valid = g.conv3d(x, w, b, 0);
        assert_eq!(g.value(valid).shape(), &[2, 4, 3, 3, 3]);
    }

    #[test]
    fn hand_computed_sum_kernel() {
        // All-ones 3³ kernel on an all-ones 3³ input without padding sums
        // every voxel: 27.
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[1, 1, 3, 3, 3]));
        let w = g.input(Tensor::ones(&[1, 1, 3, 3, 3]));
        let b = g.input(Tensor::zeros(&[1]));
        let y = g.conv3d(x, w, b, 0);
        assert_eq!(g.value(y).shape(), &[1, 1, 1, 1, 1]);
        assert!((g.value(y).item() - 27.0).abs() < 1e-5);
    }

    #[test]
    fn grad_conv3d() {
        let mut r = rng(3);
        let x = Tensor::randn(&[1, 2, 3, 3, 3], &mut r);
        let w = Tensor::randn(&[2, 2, 2, 2, 2], &mut r).scale(0.5);
        let b = Tensor::randn(&[2], &mut r);
        GradCheck { eps: 1e-2, tol: 5e-2 }
            .check(&[x, w, b], |g, v| {
                let y = g.conv3d(v[0], v[1], v[2], 1);
                let y = g.square(y);
                g.mean_all(y)
            })
            .unwrap();
    }

    #[test]
    fn forward_matches_reference_bitwise() {
        let mut r = rng(7);
        let x = Tensor::randn(&[2, 3, 5, 4, 6], &mut r);
        let w = Tensor::randn(&[4, 3, 3, 2, 3], &mut r);
        for pad in 0..=2 {
            let got = conv3d_forward(&x, &w, pad);
            let want = crate::ops::reference::conv3d_forward(&x, &w, pad);
            assert_eq!(got.data(), want.data(), "pad {pad}");
        }
    }

    #[test]
    fn backward_matches_reference_bitwise() {
        let mut r = rng(8);
        let x = Tensor::randn(&[2, 2, 5, 5, 5], &mut r);
        let w = Tensor::randn(&[3, 2, 3, 3, 3], &mut r);
        let pad = 1;
        let y = conv3d_forward(&x, &w, pad);
        let gout = Tensor::randn(y.shape(), &mut r);
        let gx = conv3d_backward_input(&gout, &w, x.shape(), pad);
        let gw = conv3d_backward_weight(&gout, &x, w.shape(), pad);
        let gx_ref = crate::ops::reference::conv3d_backward_input(&gout, &w, x.shape(), pad);
        let gw_ref = crate::ops::reference::conv3d_backward_weight(&gout, &x, w.shape(), pad);
        assert_eq!(gx.data(), gx_ref.data());
        assert_eq!(gw.data(), gw_ref.data());
    }
}
