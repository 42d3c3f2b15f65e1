//! Naive-vs-GEMM dense-kernel benchmark, as JSON.
//!
//! Runs the blocked GEMM / GEMM-lowered conv3d kernels against the naive
//! reference oracle (`dftensor::ops::reference`) on matmul 160/512,
//! conv3d 12/24-cube fwd+bwd and the forward-only production conv1 shape —
//! once over a dense random grid, once over real voxelized poses — across
//! pools of 1, 2, 4 and 8 threads, and writes `BENCH_kernels.json`
//! at the repo root. Besides wall-clock it records `bit_exact`: the
//! optimized result compared `to_bits()` against the reference at every
//! thread count — the determinism contract, not a tolerance check.
//!
//! Each row also reports `gmacs_per_s`, its single-thread multiply-adds
//! per second: `tensor_matmul_512` is the micro-kernel's practical peak and
//! the conv rows are read against it (achieved vs peak).
//!
//! Two speedups are reported per kernel:
//!
//! * `speedup_vs_naive` — reference time / single-thread GEMM time: the
//!   algorithmic win from packing + blocking, independent of core count.
//! * `pooled_speedup` per thread count — single-thread GEMM time / pooled
//!   time. Small kernels (matmul 160) sit under the GEMM's serial cutoff
//!   and run the identical inline path at any pool size, so this ratio
//!   must hover at 1.0 — the old small-matmul pool regression is the bug
//!   this guards against. Honest numbers on the current host; `host_cpus`
//!   bounds what pooled runs can win.
//!
//! ```sh
//! cargo run --release -p dfbench --bin kernel_bench            # full
//! cargo run --release -p dfbench --bin kernel_bench -- --smoke # CI mode
//! ```
//!
//! The thread ladder is measured **interleaved**: every rep times all four
//! pool sizes back-to-back before the next rep, so slow clock drift or
//! host steal lands on every ladder rung equally instead of biasing
//! whichever thread count happened to run last. (Sequential ladders made
//! the 24-cube pooled ratio wander ±10% on a loaded host.)
//!
//! A `simd` section compares the forced-scalar micro-kernel against the
//! auto-detected edition (AVX/SSE2/NEON under `--features simd`) on the
//! large matmul, and checks every available edition against the same bits.
//!
//! `--smoke` uses fewer reps and asserts the contract: all kernels
//! bit-exact across editions and thread counts, no pooled regression on
//! any kernel at any thread count (floor 0.9 for timer noise — this now
//! covers the conv3d 24-cube that used to drift), conv3d 12-cube at least
//! 1.5× over naive (full runs on this class of host measure well above
//! 2×), the SIMD edition at least 2× over scalar on matmul 512 when one is
//! active, the dense forward-only conv1 row at no less than 0.25× matmul
//! 512's MAC/s, the real-voxel conv1 row folding at most a third of its
//! `m·n·k` MACs (`folded_fraction`, a count, not a timing), and — when
//! `DFTRACE=1` — warm scratch-arena reuse.

use dfchem::featurize::{voxelize, VoxelConfig};
use dfchem::genmol::{Compound, Library};
use dfchem::pocket::{BindingPocket, TargetSite};
use dffusion::workflow::WorkflowConfig;
use dfhts::{PoseSource, SyntheticPoseSource};
use dfpool::Pool;
use dftensor::ops::microkernel;
use dftensor::ops::{conv3d_backward_input, conv3d_backward_weight, conv3d_forward, reference};
use dftensor::rng::rng;
use dftensor::Tensor;
use serde::Serialize;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// conv1 of the `WorkflowConfig::small` fusion model at the rescoring
/// job's batch size: `[10, C, 12³]` input, `[8, C, 5³]` kernel, pad 2,
/// with `C = VoxelConfig::NUM_CHANNELS`.
const CONV1_BATCH: usize = 10;
const CONV1_FILTERS: usize = 8;

/// The forward-only production-shape row over a dense random grid, which
/// the smoke run holds against `tensor_matmul_512`.
fn conv1_dense_name() -> String {
    format!("tensor_conv3d_fwd_{}x8_k5_12cube_b10", VoxelConfig::NUM_CHANNELS)
}

/// The same conv1 over real voxelized poses.
fn conv1_voxels_name() -> String {
    format!("tensor_conv3d_fwd_{}x8_k5_12cube_b10_voxels", VoxelConfig::NUM_CHANNELS)
}

#[derive(Serialize)]
struct RunReport {
    threads: usize,
    ms: f64,
    /// Single-thread GEMM time / this time (1.0 = no pooled regression).
    pooled_speedup: f64,
}

#[derive(Serialize)]
struct KernelReport {
    name: String,
    /// Naive reference kernel, single thread (ms).
    naive_ms: f64,
    /// Blocked GEMM path, single thread (ms).
    gemm_serial_ms: f64,
    /// naive_ms / gemm_serial_ms — the algorithmic improvement.
    speedup_vs_naive: f64,
    /// Achieved single-thread rate: the kernel's multiply-adds /
    /// gemm_serial_ms, in 1e9 MAC/s. `tensor_matmul_512` is the
    /// micro-kernel's practical peak the conv rows are read against.
    gmacs_per_s: f64,
    /// Optimized output matched the reference `to_bits()` at every thread
    /// count.
    bit_exact: bool,
    /// `tensor.gemm.folded_macs / tensor.gemm.macs` over one optimized
    /// call: the share of the GEMM's multiply-adds actually folded (below
    /// 1.0 where the packer skips zero columns).
    folded_fraction: f64,
    runs: Vec<RunReport>,
}

/// Forced-scalar vs auto-detected micro-kernel edition on the large
/// matmul, plus a bitwise cross-check of every available edition.
#[derive(Serialize)]
struct SimdReport {
    /// Micro-kernel edition the build auto-selects ("scalar" when built
    /// without `--features simd`).
    active_path: String,
    /// Every available edition produced identical bits on matmul 512.
    paths_bit_exact: bool,
    /// Forced-scalar single-thread time (ms).
    scalar_ms: f64,
    /// Auto-detected-edition single-thread time (ms).
    active_ms: f64,
    /// scalar_ms / active_ms (1.0 when the active edition is scalar).
    speedup: f64,
}

#[derive(Serialize)]
struct Baseline {
    host_cpus: usize,
    thread_counts: Vec<usize>,
    simd: SimdReport,
    kernels: Vec<KernelReport>,
}

/// Best-of-`reps` wall-clock (ms) of `f` on `pool`. The minimum, not the
/// median: on shared hosts external CPU steal only ever adds time, so the
/// fastest rep is the least-contaminated estimate of the kernel's cost and
/// keeps the pooled-regression guard from tripping on scheduler noise.
fn measure(pool: &Pool, reps: usize, f: &dyn Fn()) -> f64 {
    pool.install(f); // warmup
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            pool.install(f);
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Benchmarks one kernel: reference once (serial), then the optimized
/// kernel across the thread ladder with the ladder interleaved per rep —
/// each rep times 1/2/4/8 threads back-to-back so drift cannot bias one
/// rung — and a bitwise comparison at each thread count.
fn bench_kernel(
    name: &str,
    macs: usize,
    naive_reps: usize,
    reps: usize,
    naive: &dyn Fn() -> Vec<u32>,
    opt: &dyn Fn() -> Vec<u32>,
) -> KernelReport {
    let pools: Vec<Pool> = THREAD_COUNTS.iter().map(|&t| Pool::new(t)).collect();
    let want = pools[0].install(naive);
    let naive_ms = measure(&pools[0], naive_reps, &|| {
        black_box(naive());
    });
    // Bitwise check doubles as the per-pool warmup.
    let bit_exact = pools.iter().all(|pool| pool.install(opt) == want);
    let folded_fraction = folded_fraction(&pools[0], opt);
    let mut best = [f64::INFINITY; THREAD_COUNTS.len()];
    for _ in 0..reps.max(1) {
        for (i, pool) in pools.iter().enumerate() {
            let t = Instant::now();
            pool.install(|| {
                black_box(opt());
            });
            best[i] = best[i].min(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let gemm_serial_ms = best[0];
    let mut runs = Vec::new();
    for (i, &threads) in THREAD_COUNTS.iter().enumerate() {
        let ms = best[i];
        let pooled_speedup = if ms > 0.0 { gemm_serial_ms / ms } else { 1.0 };
        eprintln!("  {name} @ {threads} threads: {ms:.2} ms (pooled speedup {pooled_speedup:.2})");
        runs.push(RunReport { threads, ms, pooled_speedup });
    }
    let speedup_vs_naive = if gemm_serial_ms > 0.0 { naive_ms / gemm_serial_ms } else { 1.0 };
    let gmacs_per_s = if gemm_serial_ms > 0.0 { macs as f64 / gemm_serial_ms / 1e6 } else { 0.0 };
    eprintln!("  {name}: naive {naive_ms:.2} ms, gemm {gemm_serial_ms:.2} ms ({speedup_vs_naive:.2}x, {gmacs_per_s:.2} GMAC/s), bit_exact {bit_exact}, folded {folded_fraction:.3}");
    KernelReport {
        name: name.to_string(),
        naive_ms,
        gemm_serial_ms,
        speedup_vs_naive,
        gmacs_per_s,
        bit_exact,
        folded_fraction,
        runs,
    }
}

/// `tensor.gemm.folded_macs / tensor.gemm.macs` over one call of `opt`,
/// traced for that call alone (tracing is left as it was found).
fn folded_fraction(pool: &Pool, opt: &dyn Fn() -> Vec<u32>) -> f64 {
    let was = dftrace::enabled();
    dftrace::set_enabled(true);
    let counts = || {
        let t = dftrace::snapshot();
        [t.counter("tensor.gemm.folded_macs"), t.counter("tensor.gemm.macs")]
    };
    let before = counts();
    pool.install(opt);
    let after = counts();
    dftrace::set_enabled(was);
    (after[0] - before[0]) as f64 / (after[1] - before[1]).max(1) as f64
}

/// Times the forced-scalar micro-kernel against the auto-detected edition
/// on a `[dim,dim]` matmul (single thread, reps interleaved) and bit-checks
/// every available edition against scalar.
fn simd_report(dim: usize, reps: usize) -> SimdReport {
    let mut r = rng(dim as u64 + 1);
    let a = Tensor::randn(&[dim, dim], &mut r);
    let b = Tensor::randn(&[dim, dim], &mut r);
    let serial = Pool::new(1);
    let active = microkernel::detected();
    let want = serial
        .install(|| microkernel::with_forced(microkernel::Path::Scalar, || bits(&a.matmul(&b))));
    let paths_bit_exact = microkernel::available_paths().into_iter().all(|path| {
        serial.install(|| microkernel::with_forced(path, || bits(&a.matmul(&b)))) == want
    });
    let (mut scalar_ms, mut active_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        for (forced, slot) in
            [(microkernel::Path::Scalar, &mut scalar_ms), (active, &mut active_ms)]
        {
            let t = Instant::now();
            serial.install(|| {
                microkernel::with_forced(forced, || {
                    black_box(a.matmul(&b));
                })
            });
            *slot = slot.min(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let speedup = if active_ms > 0.0 { scalar_ms / active_ms } else { 1.0 };
    eprintln!(
        "  simd matmul_{dim}: scalar {scalar_ms:.2} ms, {} {active_ms:.2} ms ({speedup:.2}x), editions bit_exact {paths_bit_exact}",
        active.label()
    );
    SimdReport {
        active_path: active.label().to_string(),
        paths_bit_exact,
        scalar_ms,
        active_ms,
        speedup,
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A matmul workload over `[dim,dim]` squares.
fn matmul_kernel(name: &str, dim: usize, naive_reps: usize, reps: usize) -> KernelReport {
    let mut r = rng(dim as u64);
    let a = Tensor::randn(&[dim, dim], &mut r);
    let b = Tensor::randn(&[dim, dim], &mut r);
    bench_kernel(
        name,
        dim * dim * dim,
        naive_reps,
        reps,
        &|| bits(&reference::matmul(&a, &b)),
        &|| bits(&a.matmul(&b)),
    )
}

/// Multiply-adds of one stride-1 conv3d pass (forward, or either gradient):
/// every output element folds `C·kd·kh·kw` taps.
fn conv_macs(xshape: [usize; 5], wshape: [usize; 5], pad: usize) -> usize {
    let out: usize = (2..5).map(|i| xshape[i] + 2 * pad + 1 - wshape[i]).product();
    xshape[0] * out * wshape.iter().product::<usize>()
}

/// Forward-only conv3d at a production shape — what inference (the
/// Figure-3 rescoring job, `dfserve`) runs, where the fwd+bwd rows mix in
/// two gradient passes no scorer executes.
fn conv_fwd_kernel(
    name: &str,
    x: &Tensor,
    wshape: [usize; 5],
    pad: usize,
    naive_reps: usize,
    reps: usize,
) -> KernelReport {
    let xshape: [usize; 5] = x.shape().try_into().expect("rank-5 input");
    let w = Tensor::randn(&wshape, &mut rng(xshape[4] as u64 + 1));
    bench_kernel(
        name,
        conv_macs(xshape, wshape, pad),
        naive_reps,
        reps,
        &|| bits(&reference::conv3d_forward(x, &w, pad)),
        &|| bits(&conv3d_forward(x, &w, pad)),
    )
}

/// `[CONV1_BATCH, C, D, H, W]` voxel grids of real poses, as the rescoring
/// job makes them: one Chembl compound's synthetic poses in the Spike1
/// pocket, voxelized with the `WorkflowConfig::small` grid.
fn voxelized_poses() -> Tensor {
    let voxel = WorkflowConfig::small(0).voxel;
    let pocket = BindingPocket::generate(TargetSite::Spike1, 7);
    let compound = Compound::materialize(Library::Chembl, 0, 7);
    let poses =
        SyntheticPoseSource { poses_per_compound: CONV1_BATCH }.poses(&compound, &pocket, 7);
    let data: Vec<f32> =
        poses.iter().flat_map(|p| voxelize(&voxel, p, &pocket).into_vec()).collect();
    let mut shape = vec![CONV1_BATCH];
    shape.extend(voxel.shape());
    Tensor::from_vec(data, &shape)
}

/// A conv3d fwd + bwd-input + bwd-weight workload on a cubic grid.
fn conv_kernel(
    name: &str,
    xshape: [usize; 5],
    wshape: [usize; 5],
    pad: usize,
    naive_reps: usize,
    reps: usize,
) -> KernelReport {
    let mut r = rng(xshape[4] as u64);
    let x = Tensor::randn(&xshape, &mut r);
    let w = Tensor::randn(&wshape, &mut r);
    let gout = {
        let y = reference::conv3d_forward(&x, &w, pad);
        Tensor::randn(y.shape(), &mut r)
    };
    let all = |fwd: &Tensor, gx: &Tensor, gw: &Tensor| {
        let mut out = bits(fwd);
        out.extend(bits(gx));
        out.extend(bits(gw));
        out
    };
    bench_kernel(
        name,
        3 * conv_macs(xshape, wshape, pad),
        naive_reps,
        reps,
        &|| {
            all(
                &reference::conv3d_forward(&x, &w, pad),
                &reference::conv3d_backward_input(&gout, &w, x.shape(), pad),
                &reference::conv3d_backward_weight(&gout, &x, w.shape(), pad),
            )
        },
        &|| {
            all(
                &conv3d_forward(&x, &w, pad),
                &conv3d_backward_input(&gout, &w, x.shape(), pad),
                &conv3d_backward_weight(&gout, &x, w.shape(), pad),
            )
        },
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("== dense-kernel baseline ({host_cpus} host CPUs, smoke: {smoke}) ==");

    // (naive_reps, reps): smoke trades precision for CI time; matmul 160 is
    // the regression guard, so it keeps the most reps either way.
    let (mm_small, mm_large, cv) = if smoke { (7, 3, 3) } else { (15, 7, 15) };
    let channels = VoxelConfig::NUM_CHANNELS;
    let conv1_xshape = [CONV1_BATCH, channels, 12, 12, 12];
    let conv1_wshape = [CONV1_FILTERS, channels, 5, 5, 5];

    let kernels = vec![
        matmul_kernel("tensor_matmul_160", 160, mm_small, mm_small),
        matmul_kernel("tensor_matmul_512", 512, if smoke { 1 } else { 3 }, mm_large),
        conv_kernel("tensor_conv3d_12cube_fwd_bwd", [2, 8, 12, 12, 12], [8, 8, 3, 3, 3], 1, cv, cv),
        conv_kernel(
            "tensor_conv3d_24cube_fwd_bwd",
            [1, 8, 24, 24, 24],
            [8, 8, 3, 3, 3],
            1,
            if smoke { 1 } else { 3 },
            cv,
        ),
        conv_fwd_kernel(
            &conv1_dense_name(),
            &Tensor::randn(&conv1_xshape, &mut rng(12)),
            conv1_wshape,
            2,
            if smoke { 1 } else { 3 },
            cv,
        ),
        conv_fwd_kernel(
            &conv1_voxels_name(),
            &voxelized_poses(),
            conv1_wshape,
            2,
            if smoke { 1 } else { 3 },
            cv,
        ),
    ];

    let simd = simd_report(512, if smoke { 3 } else { 5 });
    let baseline = Baseline { host_cpus, thread_counts: THREAD_COUNTS.to_vec(), simd, kernels };
    let json = serde_json::to_string_pretty(&baseline).expect("serialize baseline");
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    std::fs::write(&out, &json).expect("write BENCH_kernels.json");
    eprintln!("wrote {}", out.display());
    println!("{json}");

    if smoke {
        for k in &baseline.kernels {
            assert!(k.bit_exact, "{}: optimized kernel diverged from the reference bits", k.name);
            // Every kernel, every thread count: pooled must never lose to
            // serial beyond timer noise. Small kernels run the identical
            // inline path, large ones partition into row bands; neither
            // has any business being slower than one thread.
            for run in &k.runs {
                assert!(
                    run.pooled_speedup >= 0.9,
                    "{} regressed under the pool: {:.2}x at {} threads",
                    k.name,
                    run.pooled_speedup,
                    run.threads
                );
            }
        }
        assert!(baseline.simd.paths_bit_exact, "micro-kernel editions disagree on matmul 512 bits");
        if baseline.simd.active_path != "scalar" {
            assert!(
                baseline.simd.speedup >= 2.0,
                "{} edition only {:.2}x over scalar on matmul 512",
                baseline.simd.active_path,
                baseline.simd.speedup
            );
        }
        let cv12 =
            baseline.kernels.iter().find(|k| k.name == "tensor_conv3d_12cube_fwd_bwd").unwrap();
        assert!(
            cv12.speedup_vs_naive >= 1.5,
            "conv3d 12-cube GEMM lowering lost its edge over naive: {:.2}x",
            cv12.speedup_vs_naive
        );
        // Achieved vs peak, as a ratio of two kernels timed in this process
        // so host speed cancels: conv1 does 8 MACs per packed A element
        // where the square matmul does 512, so it cannot reach 1.0, but a
        // lowering that materializes a column matrix sits near 0.13.
        let rate = |name: &str| {
            baseline.kernels.iter().find(|k| k.name == name).expect("kernel row").gmacs_per_s
        };
        let dense = conv1_dense_name();
        let share = rate(&dense) / rate("tensor_matmul_512");
        assert!(
            share >= 0.25,
            "{dense} reaches only {share:.2} of matmul_512's MAC/s (floor 0.25)"
        );
        // Skipping the empty voxels is a count, not a timing: at most a
        // third of conv1's MACs on real poses are folded.
        let voxels = conv1_voxels_name();
        let row = baseline.kernels.iter().find(|k| k.name == voxels).expect("voxel row");
        assert!(
            3.0 * row.folded_fraction <= 1.0,
            "{voxels} folds {:.3} of its MACs (ceiling 1/3)",
            row.folded_fraction
        );
        if dftrace::enabled() {
            let trace = dftrace::snapshot();
            assert!(
                trace.counter("tensor.scratch.hits") > 0,
                "scratch arena never reused a buffer across kernel calls"
            );
            assert!(trace.counter("tensor.gemm.calls") > 0, "no GEMM calls traced");
            eprintln!(
                "smoke: scratch {} hits / {} misses, {} gemm calls",
                trace.counter("tensor.scratch.hits"),
                trace.counter("tensor.scratch.misses"),
                trace.counter("tensor.gemm.calls"),
            );
        }
        eprintln!("smoke assertions passed");
    }
}
