//! Packed, cache-blocked f32 GEMM — the single dense kernel behind
//! [`crate::tensor::Tensor::matmul`] and the GEMM-lowered conv3d passes.
//!
//! Structure (classic three-loop blocking, BLIS-style):
//!
//! * B is packed **once per call** on the calling thread into NR-wide
//!   column panels, k-major, zero-padded to a whole panel
//!   ([`crate::scratch::Slot::PackB`]).
//! * C is cut into MR-aligned **row bands** (`dfpool::Pool::parallel_rows`),
//!   each spanning all `n` columns; each band walks KC-deep k blocks in
//!   ascending order, packs MC×KC A panels on the worker thread
//!   ([`crate::scratch::Slot::PackA`]) and runs an MR×NR register-tile
//!   micro-kernel ([`crate::ops::microkernel`]) — scalar or explicit-SIMD,
//!   chosen once per call.
//!
//! Neither operand has to exist as a matrix: [`gemm_with`] is the one
//! driver and takes the two *packers* — whatever fills the B panels once
//! and an `MC × KC` block of A panels (with their [`Spans`]) on demand.
//! [`gemm`] passes the dense [`pack_b`]/[`pack_a`] over stored slices; conv3d passes packers that
//! gather straight from a zero-padded voxel grid (`ops::conv`), so its
//! column matrix is never written. The band loop, the micro-kernel and the
//! fold cannot tell the difference: they only ever see packed panels.
//!
//! There is at most one band per usable lane (`dfpool::Pool::lanes`), each
//! at least [`BAND_MIN_MACS`] of work and one MR panel tall. Rows are the
//! only split: a band reuses every packed B panel, and every pooled GEMM
//! that the benchmark workloads, fusion training and `kernel_bench` issue
//! has at least 216 rows, enough to feed every lane. Below
//! [`SERIAL_CUTOFF_MACS`], or when only one lane is usable (single-thread
//! pool, or a host with fewer cores than the pool has threads), the kernel
//! runs **inline on the calling thread without touching the pool at all**
//! — the pooled path has zero structural overhead over serial, which is
//! what the `kernel_bench` pooled-regression guard measures.
//! `tensor.gemm.pooled_calls` counts the banded calls.
//!
//! ## Determinism contract
//!
//! Every output element is produced by a **single accumulator folded over k
//! in ascending order** with plain `mul` + `add` (no FMA contraction, no
//! reassociation) — in every micro-kernel edition; see
//! [`crate::ops::microkernel`] for why the SIMD folds are bit-identical.
//! KC blocking preserves the bit pattern because the micro-kernel reloads
//! the partial C tile and continues the same fold; row bands only
//! partition *disjoint* output rows. A GEMM is therefore
//! bit-identical to the naive triple loop in [`crate::ops::reference`],
//! across any pool thread count and any micro-kernel edition — locked by
//! `tests/parallel_determinism.rs` and the kernel proptests.
//!
//! ## Skipping columns the packer proves zero
//!
//! The A packer also reports, per MR panel of its block, ascending k
//! [`Spans`]: every column outside them is `±0.0` in all of that panel's
//! rows, and its products with `op(B)` are finite. Those columns are
//! neither packed nor folded — the band loop calls the unchanged
//! micro-kernel fold once per span, on the matching slice of the packed B
//! panel. This is bit-neutral. Each accumulator starts at `+0.0` and folds
//! ascending k, so it is never `-0.0`: a round-to-nearest sum is `-0.0`
//! only when both addends are, and `x + (-x)` is `+0.0`. Adding a `±0.0`
//! product to any value but `-0.0` returns that value unchanged, NaN and
//! ±inf included. So omitting such a product leaves every later step of
//! the fold with the same operand, and the skipped fold ends on the bits
//! of the full one. The finiteness
//! clause matters: `0.0 · inf` is NaN, so a packer may only skip columns
//! whose B entries are finite. A panel with no span in the first KC block
//! still stores its `+0.0` start, so later blocks continue from it.
//!
//! [`gemm`] reports one full span per panel; conv3d's forward packer
//! reports the taps whose voxels hold an atom (`ops::conv`).
//! `tensor.gemm.macs` keeps counting `m·n·k`; `tensor.gemm.folded_macs`
//! counts what was actually folded.

use crate::ops::microkernel::{self, Path};
use crate::scratch::{self, Slot};

pub(crate) use crate::ops::microkernel::{MR, NR};

/// k-dimension cache block: `KC × NR` B panel ≈ 8 KiB stays L1-resident.
pub const KC: usize = 256;
/// Row cache block: `MC × KC` A pack ≈ 64 KiB stays L2-resident.
pub const MC: usize = 64;

/// Most spans one panel of a block can hold: reported spans are merged
/// when they touch, so two of them are at least one column apart.
const PANEL_SPANS: usize = KC.div_ceil(2);

/// The k spans an A packer reports for one `MC × KC` block (block-local
/// columns, see [`gemm_with`]): per MR panel, in panel order, ascending
/// `[lo, hi)` ranges outside which every entry of the panel is `±0.0`.
/// Touching ranges merge, so a panel holds at most `KC / 2` of them.
pub struct Spans {
    ranges: [[u16; 2]; MC / MR * PANEL_SPANS],
    /// `ends[ip]`: one past panel `ip`'s last range in `ranges`.
    ends: [usize; MC / MR],
    len: usize,
    panels: usize,
}

impl Spans {
    fn new() -> Self {
        Spans { ranges: [[0; 2]; MC / MR * PANEL_SPANS], ends: [0; MC / MR], len: 0, panels: 0 }
    }

    /// Adds `lo..hi` to the panel being reported; it must start at or
    /// after the panel's previous span ends.
    pub fn push(&mut self, lo: usize, hi: usize) {
        let first = self.panels.checked_sub(1).map_or(0, |ip| self.ends[ip]);
        assert!(lo < hi && hi <= KC, "span {lo}..{hi} outside a KC block");
        match self.ranges[first..self.len].last_mut() {
            Some(last) if usize::from(last[1]) == lo => last[1] = hi as u16,
            last => {
                assert!(last.is_none_or(|l| usize::from(l[1]) < lo), "spans must ascend");
                self.ranges[self.len] = [lo as u16, hi as u16];
                self.len += 1;
            }
        }
    }

    /// Closes the panel being reported; the next `push` starts the next one.
    pub fn end_panel(&mut self) {
        self.ends[self.panels] = self.len;
        self.panels += 1;
    }

    /// One full `0..kcb` span for each of `panels` panels.
    pub fn dense(&mut self, panels: usize, kcb: usize) {
        for _ in 0..panels {
            self.push(0, kcb);
            self.end_panel();
        }
    }

    /// Panel `ip`'s spans as `(lo, hi)`.
    fn of(&self, ip: usize) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
        let first = ip.checked_sub(1).map_or(0, |p| self.ends[p]);
        self.ranges[first..self.ends[ip]].iter().map(|r| (usize::from(r[0]), usize::from(r[1])))
    }

    fn clear(&mut self) {
        self.len = 0;
        self.panels = 0;
    }
}

/// GEMMs below this many multiply-adds run inline on the calling thread
/// even when a pool is installed: at small sizes the band hand-off costs
/// more than it buys (a pooled 160³ matmul measured slower than serial).
/// 160³ ≈ 4.1 M MACs sits under this; 512³ is ~16× over it.
const SERIAL_CUTOFF_MACS: usize = 8 << 20;

/// Minimum multiply-adds per row band above the cutoff, so bands stay
/// coarse enough to amortize scheduling.
const BAND_MIN_MACS: usize = 2 << 20;

/// Operand layouts. `m/k/n` below are always the *logical* GEMM dims:
/// `C[m,n] = op(A)[m,k] · op(B)[k,n]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// `A[m,k] · B[k,n]`
    Nn,
    /// `Aᵀ` with `A[k,m]` stored row-major: `C = Aᵀ · B`
    Tn,
    /// `Bᵀ` with `B[n,k]` stored row-major: `C = A · Bᵀ`
    Nt,
}

/// `C[m,n] = op(A) · op(B)`, overwriting `c`; `a`/`b` are row-major in
/// their *stored* shapes (see [`Layout`]).
pub(crate) fn gemm(
    layout: Layout,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm: A length");
    assert_eq!(b.len(), k * n, "gemm: B length");
    let dense_a = |row0, mcb: usize, pc, kcb, apack: &mut [f32], spans: &mut Spans| {
        pack_a(layout, a, m, k, row0, mcb, pc, kcb, apack);
        spans.dense(mcb.div_ceil(MR), kcb);
    };
    gemm_with(m, k, n, c, |bpack| pack_b(layout, b, k, n, bpack), &dense_a);
}

/// `C[m,n] = A · B`, overwriting `c`, over operands that are *produced*
/// instead of stored — the one GEMM driver.
///
/// `pack_b(bpack)` fills all of packed B once, on the calling thread:
/// `bpack[(jp·k + p)·NR + j] = B[p, jp·NR + j]`, zero past column `n`.
///
/// `pack_a(row0, mcb, pc, kcb, apack, spans)` packs one block — rows
/// `row0..row0+mcb`, columns `pc..pc+kcb` — into `mcb.div_ceil(MR)`
/// MR-row panels, k-major within a panel:
/// `apack[(ip·kcb + pp)·MR + r] = A[row0 + ip·MR + r, pc + pp]`, zero in
/// rows past `mcb`. For each panel in order it reports through `spans`
/// the block-local columns `pp` it packed ([`Spans::push`], then
/// [`Spans::end_panel`]); only those are written and folded. Every column
/// it leaves out must be `±0.0` in all of the panel's rows and have finite
/// B entries (the module doc says why that keeps the dense result's bits).
/// It is called from the band jobs, possibly on several lanes at once.
pub fn gemm_with(
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
    pack_b: impl FnOnce(&mut [f32]),
    pack_a: &(impl Fn(usize, usize, usize, usize, &mut [f32], &mut Spans) + Sync),
) {
    assert_eq!(c.len(), m * n, "gemm: C length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    dftrace::counter_add("tensor.gemm.calls", 1);
    dftrace::counter_add("tensor.gemm.macs", (m * n * k) as u64);
    // The micro-kernel edition is resolved once per call, on the calling
    // thread (so a per-thread test override is honored), then captured
    // into the band jobs so every lane computes with the same edition.
    let path = microkernel::resolve();
    match path {
        Path::Scalar => dftrace::counter_add("tensor.gemm.scalar_calls", 1),
        _ => dftrace::counter_add("tensor.gemm.simd_calls", 1),
    }

    let n_panels = n.div_ceil(NR);
    scratch::with(Slot::PackB, n_panels * k * NR, |bpack| {
        {
            let _s = dftrace::span("tensor.gemm.pack_b");
            pack_b(bpack);
        }
        let pool = dfpool::current();
        let bands = row_bands(m, k, n, pool.lanes());
        let _s = dftrace::span("tensor.gemm.compute");
        let bpack: &[f32] = bpack;
        if bands == 1 {
            // One usable lane (or too small to split): run on the calling
            // thread without involving the pool — bit- and cost-identical
            // to the serial path.
            band_job(path, pack_a, bpack, k, n, 0, c);
            return;
        }
        dftrace::counter_add("tensor.gemm.pooled_calls", 1);
        // At least `m / bands` rows, which is at least `parallel_rows`'
        // own grain, so every band but the last is exactly `min_rows`
        // rows and starts on an MR panel.
        let min_rows = m.div_ceil(bands).div_ceil(MR) * MR;
        pool.parallel_rows(c, n, min_rows, |first_row, band| {
            band_job(path, pack_a, bpack, k, n, first_row, band);
        });
    });
}

/// How many row bands to cut C into: 1 (run inline) below
/// [`SERIAL_CUTOFF_MACS`] or with one usable lane, else at most one per
/// lane, each at least [`BAND_MIN_MACS`] and one MR panel.
fn row_bands(m: usize, k: usize, n: usize, lanes: usize) -> usize {
    let macs = m * n * k;
    if lanes == 1 || macs < SERIAL_CUTOFF_MACS {
        return 1;
    }
    lanes.min(macs / BAND_MIN_MACS).min(m.div_ceil(MR))
}

/// Packs all of `op(B)` into NR-column panels, k-major within a panel:
/// `bpack[(jp*k + p)*NR + c] = op(B)[p, jp*NR + c]`, zero beyond column n.
pub(crate) fn pack_b(layout: Layout, b: &[f32], k: usize, n: usize, bpack: &mut [f32]) {
    let n_panels = n.div_ceil(NR);
    match layout {
        // B stored [k, n] row-major.
        Layout::Nn | Layout::Tn => {
            for jp in 0..n_panels {
                let j0 = jp * NR;
                let nr = (n - j0).min(NR);
                let panel = &mut bpack[jp * k * NR..(jp + 1) * k * NR];
                for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
                    let src = &b[p * n + j0..p * n + j0 + nr];
                    dst[..nr].copy_from_slice(src);
                    dst[nr..].fill(0.0);
                }
            }
        }
        // B stored [n, k] row-major; op(B)[p, j] = b[j*k + p].
        Layout::Nt => {
            for jp in 0..n_panels {
                let j0 = jp * NR;
                let nr = (n - j0).min(NR);
                let panel = &mut bpack[jp * k * NR..(jp + 1) * k * NR];
                for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
                    for (c, d) in dst.iter_mut().enumerate() {
                        *d = if c < nr { b[(j0 + c) * k + p] } else { 0.0 };
                    }
                }
            }
        }
    }
}

/// Packs an `mcb × kcb` block of `op(A)` (rows `row0..row0+mcb`, k range
/// `pc..pc+kcb`) into MR-row panels, k-major within a panel:
/// `apack[(ip*kcb + pp)*MR + r] = op(A)[row0 + ip*MR + r, pc + pp]`,
/// zero-padded past `mcb` rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a(
    layout: Layout,
    a: &[f32],
    m: usize,
    k: usize,
    row0: usize,
    mcb: usize,
    pc: usize,
    kcb: usize,
    apack: &mut [f32],
) {
    let m_panels = mcb.div_ceil(MR);
    match layout {
        // A stored [m, k] row-major; op(A)[i, p] = a[i*k + p].
        Layout::Nn | Layout::Nt => {
            for ip in 0..m_panels {
                let panel = &mut apack[ip * kcb * MR..(ip + 1) * kcb * MR];
                for r in 0..MR {
                    let i = row0 + ip * MR + r;
                    if ip * MR + r < mcb {
                        let src = &a[i * k + pc..i * k + pc + kcb];
                        for (pp, &v) in src.iter().enumerate() {
                            panel[pp * MR + r] = v;
                        }
                    } else {
                        for pp in 0..kcb {
                            panel[pp * MR + r] = 0.0;
                        }
                    }
                }
            }
        }
        // A stored [k, m] row-major; op(A)[i, p] = a[p*m + i].
        Layout::Tn => {
            for ip in 0..m_panels {
                let i0 = row0 + ip * MR;
                let valid = (mcb - ip * MR).min(MR);
                let panel = &mut apack[ip * kcb * MR..(ip + 1) * kcb * MR];
                for (pp, dst) in panel.chunks_exact_mut(MR).enumerate() {
                    let src = &a[(pc + pp) * m + i0..(pc + pp) * m + i0 + valid];
                    dst[..valid].copy_from_slice(src);
                    dst[valid..].fill(0.0);
                }
            }
        }
    }
}

/// One row band `c` (rows `first_row..`, all `n` columns): all KC blocks
/// (ascending), all MC blocks, all register tiles, each folded over its
/// panel's spans only.
fn band_job(
    path: Path,
    pack_a: &impl Fn(usize, usize, usize, usize, &mut [f32], &mut Spans),
    bpack: &[f32],
    k: usize,
    n: usize,
    first_row: usize,
    c: &mut [f32],
) {
    let rows = c.len() / n;
    let n_panels = n.div_ceil(NR);
    let paired = microkernel::folds_pairs(path);
    let mut spans = Spans::new();
    // Row-columns folded (each against all `n` columns of B).
    let mut folded = 0;
    let mut pc = 0;
    while pc < k {
        let kcb = (k - pc).min(KC);
        // First KC block initializes each element's fold; later blocks
        // continue it.
        let load_c = pc > 0;
        let mut ic = 0;
        while ic < rows {
            let mcb = (rows - ic).min(MC);
            let m_panels = mcb.div_ceil(MR);
            scratch::with(Slot::PackA, m_panels * kcb * MR, |apack| {
                {
                    let _s = dftrace::span("tensor.gemm.pack_a");
                    spans.clear();
                    pack_a(first_row + ic, mcb, pc, kcb, apack, &mut spans);
                    assert_eq!(spans.panels, m_panels, "packer reported spans for too few panels");
                }
                let _s = dftrace::span("tensor.gemm.kernel");
                for ip in 0..m_panels {
                    let mr = (mcb - ip * MR).min(MR);
                    let ps = spans.of(ip);
                    let width: usize = ps.clone().map(|(lo, hi)| hi - lo).sum();
                    // Nothing to fold into C's partial sums — but the first
                    // block still stores the fold's `+0.0` start.
                    if width == 0 && load_c {
                        continue;
                    }
                    folded += width * mr;
                    let ap = &apack[ip * kcb * MR..(ip + 1) * kcb * MR];
                    let row0 = ic + ip * MR;
                    // The panel's `mr` rows of C.
                    let cp = &mut c[row0 * n..(row0 + mr) * n];
                    let mut jp = 0;
                    while jp < n_panels {
                        let col0 = jp * NR;
                        // Wide editions take two full panels per call (16
                        // output columns); remainders and narrow editions
                        // go one panel at a time. Either way each output
                        // element keeps its own ascending-k fold.
                        if paired && col0 + 2 * NR <= n {
                            let bp0 = &bpack[(jp * k + pc) * NR..(jp * k + pc + kcb) * NR];
                            let jq = jp + 1;
                            let bp1 = &bpack[(jq * k + pc) * NR..(jq * k + pc + kcb) * NR];
                            micro_kernel_pair(path, ap, bp0, bp1, ps.clone(), cp, n, col0, load_c);
                            jp += 2;
                            continue;
                        }
                        let nr = (n - col0).min(NR);
                        let bp = &bpack[(jp * k + pc) * NR..(jp * k + pc + kcb) * NR];
                        micro_kernel(path, ap, bp, ps.clone(), cp, n, col0, nr, load_c);
                        jp += 1;
                    }
                }
            });
            ic += mcb;
        }
        pc += kcb;
    }
    dftrace::counter_add("tensor.gemm.folded_macs", (folded * n) as u64);
}

/// MR×NR register tile: `C_tile (+)= A_panel · B_panel` over the spans of
/// one KC block, k ascending. `c` holds the panel's valid rows (row stride
/// `n`); the full padded tile is computed (padded lanes are zeros) but only
/// the valid rows × `nr` columns from `col0` are loaded and stored.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_kernel(
    path: Path,
    ap: &[f32],
    bp: &[f32],
    spans: impl Iterator<Item = (usize, usize)>,
    c: &mut [f32],
    n: usize,
    col0: usize,
    nr: usize,
    load_c: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if load_c {
        for (accr, crow) in acc.iter_mut().zip(c.chunks_exact(n)) {
            accr[..nr].copy_from_slice(&crow[col0..col0 + nr]);
        }
    }
    for (lo, hi) in spans {
        microkernel::fold(path, &mut acc, &ap[lo * MR..hi * MR], &bp[lo * NR..hi * NR]);
    }
    for (accr, crow) in acc.iter().zip(c.chunks_exact_mut(n)) {
        crow[col0..col0 + nr].copy_from_slice(&accr[..nr]);
    }
}

/// MR × 2·NR register tile over two adjacent full-width B panels — the
/// wide-edition fast path (see [`microkernel::folds_pairs`]). All 2·NR
/// columns are valid by the caller's bounds check, so loads/stores cover
/// the whole strip for the panel's valid rows.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_kernel_pair(
    path: Path,
    ap: &[f32],
    bp0: &[f32],
    bp1: &[f32],
    spans: impl Iterator<Item = (usize, usize)>,
    c: &mut [f32],
    n: usize,
    col0: usize,
    load_c: bool,
) {
    let mut acc = [[0.0f32; 2 * NR]; MR];
    if load_c {
        for (accr, crow) in acc.iter_mut().zip(c.chunks_exact(n)) {
            accr.copy_from_slice(&crow[col0..col0 + 2 * NR]);
        }
    }
    for (lo, hi) in spans {
        let (b0, b1) = (&bp0[lo * NR..hi * NR], &bp1[lo * NR..hi * NR]);
        microkernel::fold_pair(path, &mut acc, &ap[lo * MR..hi * MR], b0, b1);
    }
    for (accr, crow) in acc.iter().zip(c.chunks_exact_mut(n)) {
        crow[col0..col0 + 2 * NR].copy_from_slice(accr);
    }
}
