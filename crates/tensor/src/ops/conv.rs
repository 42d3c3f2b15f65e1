//! 3-D convolution for the voxelized protein–ligand representation.
//!
//! Layout follows PyTorch: input `[N, C, D, H, W]`, kernel
//! `[O, C, kd, kh, kw]`, bias `[O]`. Stride is fixed at 1 (the paper's
//! 3D-CNN downsamples with max-pooling, not strided convs); zero padding is
//! configurable so `pad = k/2` gives "same" spatial dims for odd kernels.
//!
//! All three passes are lowered onto the packed GEMM in `ops::gemm` with
//! the contraction (K) axis ordered `(ic, fz, fy, fx)`, and are
//! **batched**: a micro-batch of compounds costs one GEMM per layer, not
//! one per compound. Forward and the weight gradient never write the
//! column matrix `colT[(bn, s), (ic, fz, fy, fx)]` of the textbook im2col
//! lowering. They make one zero-padded copy `xpad[N, C, D+2p, H+2p, W+2p]`
//! of the input (padding is an explicit `+0.0`), in which
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
//!   the `[O, spatial]` tensor layout. Its packer ([`OccupiedCols`])
//!   gathers only the taps that read an occupied voxel — see below.
//! * **backward-weight** — `gWᵀ = colTᵀ · goutT`: the dense packer with the
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
//! ## Skipping empty voxels in the forward
//!
//! A voxelized pose is mostly empty: each atom deposits into a few voxels
//! of two of the 16 channels, so ~94% of conv1's packed A columns are zero
//! in every row of their panel. `pad_input` also writes an occupancy bit
//! per padded voxel — set unless the value is `±0.0`, so NaN and denormals
//! count — laid out as one bit string along y per padded `(plane, x)`
//! column, 64 voxels to a word. The forward widens it along x by
//! `kw + MR - 1` columns ([`dilate`]), so a column's bit covers every tap
//! a panel of rows starting there can read on that line.
//!
//! The k axis of a block is a sequence of *tap runs*: one `(ic, fz, fy)`
//! row of `kw` taps, which reads one padded x-line per A row. The packer
//! ([`OccupiedCols`]) decodes the block's runs once. The `kh` runs of one
//! `(ic, fz)` group read consecutive lines of one plane, so per panel one
//! AND on one widened column answers all of them — at the panel's first
//! row when its rows are neighbours on one padded line, else row by row.
//! It then gathers only the runs that hit, merged into ranges, with the
//! dense packer's copy loop, and reports those ranges as the panel's
//! spans, so `gemm_with` folds nothing else. Every skipped product is
//! `±0.0 · w`, which the GEMM's fold may omit without changing a bit while
//! `w` is finite; if any weight is NaN or ±inf, every bit of the widened
//! occupancy is set, so every run hits. There is one forward path for
//! every layer and shape: no density threshold and no dense fallback, and
//! columns taller than 64 voxels take more words.
//!
//! The gathered spans are byte-for-byte what packing a materialized
//! `colT` produces, so the micro-kernel sees the same operands and every
//! output element keeps its single ascending-k accumulator: all three
//! passes are bit-identical to [`crate::ops::reference`], across pool
//! thread counts **and** batch sizes (locked by the kernel proptests and
//! `tests/parallel_determinism.rs`). Scratch buffers come from the
//! thread-local [`crate::scratch`] arena, so steady-state training and
//! `dfserve` micro-batches do not allocate here.

use crate::graph::{Graph, VarId};
use crate::ops::gemm::{gemm, gemm_with, pack_b, Layout, Spans, KC, MC, MR};
use crate::scratch::{self, Slot};
use crate::tensor::Tensor;

/// Spatial output size for one dimension.
fn out_dim(input: usize, k: usize, pad: usize) -> usize {
    input + 2 * pad + 1 - k
}

/// Below this many moved elements the col2im pass runs inline on the
/// calling thread — it is memcpy-bound, so tiny grids lose more to band
/// hand-off than the copy costs.
const PAR_COPY_CUTOFF_ELEMS: usize = 1 << 20;

/// Ceiling (in f32 elements, ~32 MiB) on the stacked per-tap gradient
/// matrix one input-gradient GEMM produces; batches whose `spatial × kdim`
/// footprint exceeds it are processed in chunks of whole samples (at least
/// one). Keeps the thread-local scratch arena bounded. The other two
/// passes write no such matrix and run the whole batch as one GEMM.
const COL_CHUNK_ELEMS: usize = 8 << 20;

/// Number of whole samples per batched-GEMM chunk for a per-sample
/// column-matrix footprint of `per_sample` elements.
fn chunk_samples(n: usize, per_sample: usize) -> usize {
    (COL_CHUNK_ELEMS / per_sample.max(1)).clamp(1, n.max(1))
}

/// Static conv geometry shared by the packers and the col2im pass.
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
    /// Padded x-columns `(plane, x)` of one sample, `C·Dp·Wp`.
    fn padded_columns(&self) -> usize {
        let (dp, _, wp) = self.padded();
        self.c * dp * wp
    }
    /// Occupancy words per padded x-column: one bit per voxel along y.
    fn column_words(&self) -> usize {
        self.padded().1.div_ceil(64)
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
/// `xpad[N, C, Dp, Hp, Wp]`, and its occupancy into `occ`: for padded
/// plane `P = (bn·C + ic)·Dp + z` and column `x`, bit `y % 64` of word
/// `(P·Wp + x)·yw + y / 64` is set iff `xpad` at `(P, y, x)` is not `±0.0`
/// (`yw` words per column). Every element of both is written (arena
/// contents are stale).
fn pad_input(xpad: &mut [f32], occ: &mut [u64], x: &[f32], g: Geom) {
    let (dp, hp, wp) = g.padded();
    let yw = g.column_words();
    xpad.fill(0.0);
    occ.fill(0);
    for (q, plane) in x.chunks_exact(g.h * g.w).enumerate() {
        let p = q / g.d * dp + q % g.d + g.pad;
        let columns = &mut occ[(p * wp + g.pad) * yw..(p * wp + g.pad + g.w) * yw];
        for (y, row) in plane.chunks_exact(g.w).enumerate() {
            let at = (p * hp + g.pad + y) * wp + g.pad;
            xpad[at..at + g.w].copy_from_slice(row);
            let (word, bit) = ((g.pad + y) / 64, (g.pad + y) % 64);
            for (column, &v) in columns.chunks_exact_mut(yw).zip(row) {
                // `!=` is false for ±0.0 only: NaN and denormals count.
                column[word] |= u64::from(v != 0.0) << bit;
            }
        }
    }
}

/// Widens the occupancy in place (`wp` columns of `yw` words per plane)
/// so that column `x` holds the union of columns `x..x + width`.
fn dilate(occ: &mut [u64], wp: usize, yw: usize, width: usize) {
    for plane in occ.chunks_exact_mut(wp * yw) {
        let mut covered = 1;
        while covered < width {
            let shift = covered.min(width - covered);
            // Ascending, each word reads one `shift` columns further on,
            // which this pass has not rewritten yet.
            for i in 0..wp.saturating_sub(shift) * yw {
                plane[i] |= plane[i + shift * yw];
            }
            covered += shift;
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
    /// Rows `row0..row0+mcb` × k range `pc..pc+kcb`, every column, as
    /// `ops::gemm::gemm_with`'s A block.
    fn pack(
        &self,
        row0: usize,
        mcb: usize,
        pc: usize,
        kcb: usize,
        apack: &mut [f32],
        spans: &mut Spans,
    ) {
        let (mut lanes, mut ks) = ([0; MC], [0; KC]);
        self.lanes.fill(row0, &mut lanes[..mcb]);
        self.ks.fill(pc, &mut ks[..kcb]);
        for (panel, l) in apack.chunks_exact_mut(kcb * MR).zip(lanes[..mcb].chunks(MR)) {
            gather(self.xpad, panel, l, &ks[..kcb]);
        }
        spans.dense(mcb.div_ceil(MR), kcb);
    }
}

/// Gathers one panel's k steps `ks` from `xpad` into `dst`
/// (`ops::gemm`'s panel layout), for the panel's lanes `l` (zero past
/// `l.len()`).
fn gather(xpad: &[f32], dst: &mut [f32], l: &[usize], ks: &[usize]) {
    let steps = dst.chunks_exact_mut(MR).zip(ks);
    // Offsets strictly ascend along either table, so the span
    // test says all MR lanes are neighbours in `xpad`.
    if l.len() == MR && l[MR - 1] - l[0] == MR - 1 {
        for (dst, &k) in steps {
            dst.copy_from_slice(&xpad[l[0] + k..l[0] + k + MR]);
        }
    } else {
        for (dst, &k) in steps {
            for (r, d) in dst.iter_mut().enumerate() {
                *d = l.get(r).map_or(0.0, |&lane| xpad[lane + k]);
            }
        }
    }
}

/// The forward's `colT`, packed with only the taps that read an occupied
/// voxel: the k axis is a sequence of *tap runs*, one `(ic, fz, fy)` row
/// of `kw` taps each, and a run reads one padded x-line per A row. A panel
/// packs and reports only the runs that hit an occupied voxel of some row
/// (merged into ranges); every tap of a missed run reads `±0.0` for every
/// row, which `gemm_with` may skip while the weights are finite.
struct OccupiedCols<'a> {
    xpad: &'a [f32],
    /// Occupancy of `xpad` widened along x by `kw + MR - 1` (see
    /// [`dilate`]): bit `y` of column `x` covers every tap of every run
    /// that a panel of rows starting at `(y, x)` reads on line `y`. All
    /// ones when a weight is NaN or ±inf, since `0.0 · w` is then not a
    /// zero.
    reach: &'a [u64],
    g: Geom,
}

impl OccupiedCols<'_> {
    fn pack(
        &self,
        row0: usize,
        mcb: usize,
        pc: usize,
        kcb: usize,
        apack: &mut [f32],
        spans: &mut Spans,
    ) {
        let Geom { c, kd, kh, kw, od, oh, ow, .. } = self.g;
        let (dp, hp, wp) = self.g.padded();
        let yw = self.g.column_words();

        // The block's rows: output position `(bn, zd, yh, xw)` reads its
        // window from padded plane `bn·C·Dp + zd`, line `yh`, column `xw`
        // on; `lanes` holds its `xpad` offset.
        let mut lanes = [0; MC];
        let mut at = [(0, 0, 0); MC];
        let (mut xw, t) = (row0 % ow, row0 / ow);
        let (mut yh, t) = (t % oh, t / oh);
        let (mut zd, mut bn) = (t % od, t / od);
        for (lane, at) in lanes[..mcb].iter_mut().zip(&mut at) {
            let plane = bn * c * dp + zd;
            (*lane, *at) = ((plane * hp + yh) * wp + xw, (plane, yh, xw));
            xw += 1;
            if xw == ow {
                (xw, yh) = (0, yh + 1);
                if yh == oh {
                    (yh, zd) = (0, zd + 1);
                    if zd == od {
                        (zd, bn) = (0, bn + 1);
                    }
                }
            }
        }

        // The block's runs: run `j` is tap row `t0 + j` = `(ic, fz, fy)`,
        // at block columns `column(j)..column(j + 1)`. Decoding them once
        // fills the tap table the gather reads.
        let (t0, f) = (pc / kw, pc % kw);
        let runs = (f + kcb).div_ceil(kw);
        let column = |j: usize| (j * kw).saturating_sub(f).min(kcb);
        let mut ks = [0; KC];
        let (mut fy, mut fz, mut ic) = (t0 % kh, t0 / kh % kd, t0 / (kh * kd));
        for j in 0..runs {
            let (lo, hi) = (column(j), column(j + 1));
            let tap = ((ic * dp + fz) * hp + fy) * wp + lo + f - j * kw;
            for (k, o) in ks[lo..hi].iter_mut().zip(tap..) {
                *k = o;
            }
            fy += 1;
            if fy == kh {
                (fy, fz) = (0, fz + 1);
                if fz == kd {
                    (fz, ic) = (0, ic + 1);
                }
            }
        }

        // Bit `j` of a panel's `hits` says run `j` reads an occupied voxel
        // for some row. The runs of one `(ic, fz)` group read `kh`
        // consecutive lines of one plane, so one AND on a column of
        // `reach` answers all of them: at the panel's first row when all
        // MR rows lie on one output line, else at every row. (With
        // `kw = 1` a panel's rows are neighbours in `xpad` even across a
        // line end, so contiguity alone would not do; a lone row's probe
        // reads MR - 1 voxels too far, which only packs zeros.)
        let (g0, g1, fy0) = (t0 / kh, (t0 + runs - 1) / kh, t0 % kh);
        let mut hits = [[0u64; KC / 64]; MC / MR];
        for ((l, at), hit) in lanes[..mcb].chunks(MR).zip(at.chunks(MR)).zip(&mut hits) {
            let one_line = l.len() == MR && at[0].2 + MR <= ow;
            for &(plane, y, x) in if one_line { &at[..1] } else { &at[..l.len()] } {
                let mut bits = BitWriter { out: hit, word: 0, acc: 0, used: 0 };
                let (mut fz, mut ic, mut from) = (g0 % kd, g0 / kd, fy0);
                for _ in g0..=g1 {
                    let col = ((plane + ic * dp + fz) * wp + x) * yw;
                    let col = &self.reach[col..col + yw];
                    while from < kh {
                        let n = (kh - from).min(64);
                        bits.push(bit_range(col, y + from, n), n);
                        from += n;
                    }
                    from = 0;
                    fz += 1;
                    if fz == kd {
                        (fz, ic) = (0, ic + 1);
                    }
                }
                bits.finish();
            }
        }

        // Gather each panel's hit runs, merged into column ranges.
        let blocks = apack.chunks_exact_mut(kcb * MR).zip(lanes[..mcb].chunks(MR));
        for ((panel, l), hit) in blocks.zip(&hits) {
            for (a, b) in set_intervals(hit, runs) {
                let (lo, hi) = (column(a), column(b));
                gather(self.xpad, &mut panel[lo * MR..hi * MR], l, &ks[lo..hi]);
                spans.push(lo, hi);
            }
            spans.end_panel();
        }
    }
}

/// Bits `lo..lo + n` (`1 ≤ n ≤ 64`) of the bit string `words` (bit `i` is
/// bit `i % 64` of word `i / 64`), as the low `n` bits.
fn bit_range(words: &[u64], lo: usize, n: usize) -> u64 {
    let (w, s) = (lo / 64, lo % 64);
    let mut v = words[w] >> s;
    if s + n > 64 {
        v |= words[w + 1] << (64 - s);
    }
    v & (u64::MAX >> (64 - n))
}

/// ORs fields of bits into a bit string one after another, low bits
/// first; bits past the string's end are dropped.
struct BitWriter<'a> {
    out: &'a mut [u64],
    word: usize,
    acc: u64,
    /// Bits of `acc` in use, below 64.
    used: usize,
}

impl BitWriter<'_> {
    /// Appends the low `n` bits of `v` (`1 ≤ n ≤ 64`, no higher bits set).
    fn push(&mut self, v: u64, n: usize) {
        self.acc |= v << self.used;
        if self.used + n < 64 {
            self.used += n;
            return;
        }
        self.flush();
        self.acc = if self.used == 0 { 0 } else { v >> (64 - self.used) };
        self.used = self.used + n - 64;
    }

    fn flush(&mut self) {
        if let Some(word) = self.out.get_mut(self.word) {
            *word |= self.acc;
        }
        self.word += 1;
    }

    fn finish(mut self) {
        if self.used > 0 {
            self.flush();
        }
    }
}

/// The maximal intervals `a..b` of set bits among the first `len` bits of
/// `bits` (bit `j` is bit `j % 64` of word `j / 64`), ascending.
fn set_intervals(bits: &[u64], len: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    // First index ≥ `from` (or `len`) whose bit equals `set`.
    let next = move |from: usize, set: bool| {
        let mut j = from;
        while j < len {
            let word = if set { bits[j / 64] } else { !bits[j / 64] };
            let word = word >> (j % 64);
            if word != 0 {
                return (j + word.trailing_zeros() as usize).min(len);
            }
            j = (j / 64 + 1) * 64;
        }
        len
    };
    let mut j = 0;
    std::iter::from_fn(move || {
        let a = next(j, true);
        (a < len).then(|| {
            j = next(a, false);
            (a, j)
        })
    })
}

/// The two column-matrix GEMMs over the batch `x[n, C, D, H, W]`, `colT`
/// never written: forward (`transposed == false`) is `colT · bᵀ` with
/// `b = W[o, kdim]`, packed by [`OccupiedCols`]; the weight gradient
/// (`true`) is `colTᵀ · b` with `b = goutT[(bn, s), o]`, packed densely.
/// Either `[m, o]` product lands in `dst` transposed — per sample into
/// `[o, spatial]`, resp. whole into `[o, kdim]`.
fn cols_gemm(x: &[f32], n: usize, g: Geom, transposed: bool, b: &[f32], o: usize, dst: &mut [f32]) {
    let (rows, kdim) = (n * g.spatial(), g.kdim());
    let (m, k, layout, block) = if transposed {
        (kdim, rows, Layout::Nn, kdim)
    } else {
        (rows, kdim, Layout::Nt, g.spatial())
    };
    dftrace::counter_add("tensor.conv3d.batched_gemms", 1);
    let (wp, yw) = (g.padded().2, g.column_words());
    scratch::with(Slot::PaddedInput, n * g.padded_sample(), |xpad| {
        scratch::with_words(n * g.padded_columns() * yw, |occ| {
            {
                let _s = dftrace::span("tensor.conv3d.pad");
                pad_input(xpad, occ, x, g);
            }
            scratch::with(Slot::GemmOut, m * o, |prod| {
                let pack_b = |bpack: &mut [f32]| pack_b(layout, b, k, o, bpack);
                if transposed {
                    let cols = Cols { xpad, lanes: g.taps(), ks: g.rows() };
                    let pack_a = |row0, mcb, pc, kcb, apack: &mut [f32], spans: &mut Spans| {
                        cols.pack(row0, mcb, pc, kcb, apack, spans)
                    };
                    gemm_with(m, k, o, prod, pack_b, &pack_a);
                } else {
                    if b.iter().all(|w| w.is_finite()) {
                        dilate(occ, wp, yw, g.kw + MR - 1);
                    } else {
                        occ.fill(!0);
                    }
                    let fwd = OccupiedCols { xpad, reach: occ, g };
                    let pack_a = |row0, mcb, pc, kcb, apack: &mut [f32], spans: &mut Spans| {
                        fwd.pack(row0, mcb, pc, kcb, apack, spans)
                    };
                    gemm_with(m, k, o, prod, pack_b, &pack_a);
                }
                transpose_blocks(prod, dst, block, o);
            });
        });
    });
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

/// GEMM-lowered forward convolution (no bias): input `[N,C,D,H,W]`,
/// kernel `[O,C,kd,kh,kw]`, stride 1. Public so the kernel proptests and
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
    // outT[(bn,s), oc] = Σ_k colT[(bn,s), k] · W[oc, k] — one GEMM for the
    // whole batch, spatial-major so it tiles over the (large) stacked
    // spatial axis, not O.
    cols_gemm(x.data(), n, g, false, w.data(), o, out.data_mut());
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
