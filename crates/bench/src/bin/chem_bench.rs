//! Ligand-screening front-end benchmark, as JSON.
//!
//! Streams a generated compound library through `dfchem`'s
//! `filter → fingerprint → score` pipeline (`dfchem::screen`) across pools
//! of 1, 2, 4 and 8 threads and writes `BENCH_chem.json` at the repo root:
//! a compounds/sec ladder, the funnel split (evaluated → passed filter →
//! fingerprinted → hits), the per-rule rejection tally of the ZINC
//! druglike gate, and `bit_identical` — an FNV-1a digest over every
//! surviving record (index, violation mask, fingerprint words, score
//! bits) compared across all thread counts. The digest is the determinism
//! contract: pooled screens must reproduce the serial stream bit for bit.
//!
//! ```sh
//! cargo run --release -p dfbench --bin chem_bench            # full: 1M compounds
//! cargo run --release -p dfbench --bin chem_bench -- --smoke # CI mode
//! ```
//!
//! Memory stays bounded by `chunk_size` regardless of library size — the
//! full run pushes a million compounds through 16 Ki-compound chunks and
//! retains only the running tally, the digest and a small top-k list.
//!
//! The thread ladder is measured **interleaved** (like `kernel_bench`):
//! every rep times all four pool sizes back-to-back so clock drift and
//! host steal land on every rung equally.
//!
//! `--smoke` shrinks the library and asserts the contract: digests
//! bit-identical across thread counts, no pooled rung below 0.9x of the
//! serial screen (timer-noise floor), a funnel that actually narrows, and
//! — when `DFTRACE=1` — the `chem.filter.*` / `chem.fp.*` counters and
//! per-stage chunk histograms.

use dfchem::genmol::Library;
use dfchem::screen::{screen_library_with, FunnelStats, RankedCompound, ScreenConfig};
use dfpool::Pool;
use dftensor::hash::{fnv1a64_update, FNV_OFFSET};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[derive(Serialize)]
struct LaneRun {
    threads: usize,
    ms: f64,
    compounds_per_sec: f64,
    /// Single-thread screen time / this time (1.0 = no pooled regression).
    pooled_speedup: f64,
    /// FNV-1a digest over the surviving record stream at this lane count.
    digest: String,
}

#[derive(Serialize)]
struct RuleRejection {
    rule: String,
    rejected: u64,
}

#[derive(Serialize)]
struct ChemBench {
    host_cpus: usize,
    thread_counts: Vec<usize>,
    library: String,
    num_compounds: u64,
    /// Compounds per streamed chunk — the peak-memory bound.
    chunk_size: usize,
    filter: String,
    /// Survivor streams carried identical bits at every thread count.
    bit_identical: bool,
    funnel: FunnelStats,
    filter_pass_rate: f64,
    hit_rate: f64,
    /// Per-rule rejection counts of the drug-likeness gate (a compound
    /// can violate several rules; `rejected` counts it once per rule).
    rejections: Vec<RuleRejection>,
    /// Best-scoring survivors (ligand-only pseudo-affinity, most negative
    /// first).
    top: Vec<RankedCompound>,
    runs: Vec<LaneRun>,
}

/// One full streaming screen on the current pool: returns the funnel, the
/// tally, a digest over every surviving record, and the running top-k.
fn run_screen(
    cfg: &ScreenConfig,
) -> (FunnelStats, dfchem::RejectionTally, u64, Vec<RankedCompound>) {
    let mut digest = FNV_OFFSET;
    let mut top: Vec<RankedCompound> = Vec::new();
    let (funnel, tally) = screen_library_with(cfg, |r| {
        digest = fnv1a64_update(digest, &r.index.to_le_bytes());
        digest = fnv1a64_update(digest, &r.verdict.violations.to_le_bytes());
        for w in r.fingerprint.words() {
            digest = fnv1a64_update(digest, &w.to_le_bytes());
        }
        digest = fnv1a64_update(digest, &r.score.to_bits().to_le_bytes());
        top.push(RankedCompound { index: r.index, score: r.score });
        if top.len() >= cfg.top_k * 2 {
            rank_truncate(&mut top, cfg.top_k);
        }
    });
    rank_truncate(&mut top, cfg.top_k);
    (funnel, tally, digest, top)
}

fn rank_truncate(top: &mut Vec<RankedCompound>, k: usize) {
    top.sort_by(|a, b| {
        a.score.partial_cmp(&b.score).expect("finite scores").then(a.index.cmp(&b.index))
    });
    top.truncate(k);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("== ligand-screening baseline ({host_cpus} host CPUs, smoke: {smoke}) ==");

    let (num_compounds, chunk_size, reps) =
        if smoke { (30_000u64, 4_096usize, 3usize) } else { (1_000_000, 16_384, 1) };
    let mut cfg = ScreenConfig::new(Library::Chembl, num_compounds, 2021);
    cfg.chunk_size = chunk_size;
    cfg.top_k = 16;

    let pools: Vec<Pool> = THREAD_COUNTS.iter().map(|&t| Pool::new(t)).collect();

    // Interleaved thread ladder: every rep times all pool sizes
    // back-to-back (keep the minimum — external steal only adds time).
    // Every timed run also yields the record-stream digest, so the
    // determinism cross-check costs no extra screens.
    let mut best = [f64::INFINITY; THREAD_COUNTS.len()];
    let mut digests = [0u64; THREAD_COUNTS.len()];
    let mut serial = None;
    for rep in 0..reps.max(1) {
        for (i, pool) in pools.iter().enumerate() {
            let t = Instant::now();
            let out = pool.install(|| run_screen(&cfg));
            best[i] = best[i].min(t.elapsed().as_secs_f64() * 1e3);
            if rep == 0 {
                digests[i] = out.2;
            } else {
                assert_eq!(digests[i], out.2, "screen digest unstable across reps");
            }
            if rep == 0 && i == 0 {
                serial = Some(out);
            }
        }
    }
    let (funnel, tally, want_digest, top) = serial.expect("serial rung always runs");
    let bit_identical = digests.iter().all(|&d| d == want_digest);

    let serial_ms = best[0];
    let mut runs = Vec::new();
    for (i, &threads) in THREAD_COUNTS.iter().enumerate() {
        let ms = best[i];
        let compounds_per_sec = dftrace::rate::per_sec(num_compounds as f64, ms / 1e3);
        let pooled_speedup = if ms > 0.0 { serial_ms / ms } else { 1.0 };
        eprintln!(
            "  screen @ {threads} threads: {ms:.1} ms ({compounds_per_sec:.0} compounds/s, \
             pooled speedup {pooled_speedup:.2})"
        );
        runs.push(LaneRun {
            threads,
            ms,
            compounds_per_sec,
            pooled_speedup,
            digest: format!("{:016x}", digests[i]),
        });
    }
    eprintln!(
        "  funnel: {} evaluated -> {} passed ({:.1}%) -> {} hits ({:.2}%), bit_identical {}",
        funnel.evaluated,
        funnel.passed_filter,
        100.0 * funnel.filter_pass_rate(),
        funnel.hits,
        100.0 * funnel.hit_rate(),
        bit_identical,
    );

    let rejections = cfg
        .filter
        .rules
        .iter()
        .zip(&tally.per_rule)
        .map(|(rule, &rejected)| RuleRejection { rule: rule.label(), rejected })
        .collect();

    let report = ChemBench {
        host_cpus,
        thread_counts: THREAD_COUNTS.to_vec(),
        library: format!("{:?}", cfg.library),
        num_compounds,
        chunk_size,
        filter: cfg.filter.name.clone(),
        bit_identical,
        funnel,
        filter_pass_rate: funnel.filter_pass_rate(),
        hit_rate: funnel.hit_rate(),
        rejections,
        top,
        runs,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize chem baseline");
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_chem.json");
    std::fs::write(&out, &json).expect("write BENCH_chem.json");
    eprintln!("wrote {}", out.display());
    println!("{json}");

    if smoke {
        assert!(report.bit_identical, "pooled screens diverged from the serial record stream");
        for run in &report.runs {
            assert!(
                run.pooled_speedup >= 0.9,
                "screen regressed under the pool: {:.2}x at {} threads",
                run.pooled_speedup,
                run.threads
            );
        }
        assert_eq!(report.funnel.evaluated, num_compounds);
        assert_eq!(report.funnel.passed_filter, report.funnel.fingerprinted);
        assert!(
            report.funnel.passed_filter > 0 && report.funnel.passed_filter < num_compounds,
            "the druglike gate must narrow the funnel without closing it"
        );
        assert!(!report.top.is_empty(), "the screen must rank some survivors");
        if dftrace::enabled() {
            let trace = dftrace::snapshot();
            assert!(trace.counter("chem.filter.evaluated") > 0, "no filter telemetry");
            assert!(trace.counter("chem.fp.computed") > 0, "no fingerprint telemetry");
            assert_eq!(
                trace.counter("chem.filter.passed") + trace.counter("chem.filter.rejected"),
                trace.counter("chem.filter.evaluated"),
                "filter counters must partition the evaluated stream"
            );
            for h in ["chem.filter.chunk_us", "chem.fp.chunk_us"] {
                assert!(
                    trace.histograms.iter().any(|x| x.name == h),
                    "missing per-stage histogram {h}"
                );
            }
            eprintln!(
                "smoke: {} evaluated, {} fingerprints, {} hits traced",
                trace.counter("chem.filter.evaluated"),
                trace.counter("chem.fp.computed"),
                trace.counter("chem.screen.hits"),
            );
        }
        eprintln!("smoke assertions passed");
    }
}
