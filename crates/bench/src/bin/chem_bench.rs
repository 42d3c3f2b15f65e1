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
//!
//! The `featurize` section times the per-compound front end — the three
//! `Compound::materialize*` forms and `build_graph` — best of 3 over 4
//! libraries × 500 compounds, with an FNV-1a digest over every relaxed
//! coordinate.
//! `--smoke` pins that digest and asserts `materialize` costs at most
//! `MAX_RELAX_RATIO` × `materialize_topology`: both timings come from one
//! process, so host speed cancels, and a per-pair hash probe or
//! per-iteration allocation back in the relaxation loop fails it.

use dfchem::featurize::{build_graph, GraphConfig};
use dfchem::genmol::{Compound, Library};
use dfchem::mol::Molecule;
use dfchem::pocket::{BindingPocket, TargetSite};
use dfchem::screen::{screen_library_with, FunnelStats, RankedCompound, ScreenConfig};
use dfpool::Pool;
use dftensor::hash::{fnv1a64_update, FNV_OFFSET};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Campaign and pocket seed of every section.
const SEED: u64 = 2021;
/// Compounds per library in the featurize section.
const FEATURIZE_PER_LIBRARY: u64 = 500;
/// Timed passes per featurize form; the best is kept.
const FEATURIZE_REPS: usize = 3;
/// Smoke bound on `materialize_us / materialize_topology_us`.
const MAX_RELAX_RATIO: f64 = 3.0;
/// `relaxed_digest` of the 4 × 500 relaxed conformers at `SEED`.
const RELAXED_DIGEST: u64 = 0xa124_6f70_e889_4fbc;

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

/// Per-compound featurization costs (µs, best of `FEATURIZE_REPS`).
#[derive(Serialize)]
struct FeaturizeCosts {
    compounds: usize,
    materialize_us: f64,
    materialize_topology_us: f64,
    materialize_graph_only_us: f64,
    /// One centred, relaxed compound against the Spike1 pocket.
    build_graph_us: f64,
    /// `materialize_us / materialize_topology_us`: what relaxation and
    /// charges add on top of placing atoms.
    relax_ratio: f64,
    /// FNV-1a over every relaxed coordinate's bits, in compound order.
    relaxed_digest: String,
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
    featurize: FeaturizeCosts,
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

/// Times one pass and folds its wall time, in µs per compound, into
/// `best`; the output is returned, so it is dropped off the clock.
fn time_pass<T>(best: &mut f64, compounds: usize, pass: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = pass();
    *best = best.min(t.elapsed().as_secs_f64() * 1e6 / compounds as f64);
    out
}

fn featurize_costs() -> FeaturizeCosts {
    let ids: Vec<(Library, u64)> = Library::ALL
        .iter()
        .flat_map(|&lib| (0..FEATURIZE_PER_LIBRARY).map(move |i| (lib, i)))
        .collect();
    let n = ids.len();
    let forms: [fn(Library, u64, u64) -> Compound; 3] =
        [Compound::materialize, Compound::materialize_topology, Compound::materialize_graph_only];
    // Interleaved like the thread ladder: every rep times the three forms
    // back to back, so host steal lands on each and the smoke's ratio
    // compares like with like.
    let mut best = [f64::INFINITY; 3];
    let mut relaxed = Vec::new();
    for _ in 0..FEATURIZE_REPS {
        for (slot, make) in forms.iter().enumerate() {
            let out = time_pass(&mut best[slot], n, || {
                ids.iter().map(|&(lib, i)| make(lib, i, SEED)).collect::<Vec<_>>()
            });
            if slot == 0 {
                relaxed = out;
            }
        }
    }
    let [materialize_us, materialize_topology_us, materialize_graph_only_us] = best;

    let mut digest = FNV_OFFSET;
    for a in relaxed.iter().flat_map(|c| &c.mol.atoms) {
        for v in [a.pos.x, a.pos.y, a.pos.z] {
            digest = fnv1a64_update(digest, &v.to_bits().to_le_bytes());
        }
    }
    let centred: Vec<Molecule> = relaxed
        .into_iter()
        .map(|c| {
            let mut m = c.mol;
            let centroid = m.centroid();
            m.translate(centroid.scale(-1.0));
            m
        })
        .collect();
    let pocket = BindingPocket::generate(TargetSite::Spike1, SEED);
    let cfg = GraphConfig::default();
    let mut build_graph_us = f64::INFINITY;
    for _ in 0..FEATURIZE_REPS {
        time_pass(&mut build_graph_us, n, || {
            centred.iter().map(|m| build_graph(&cfg, m, &pocket)).collect::<Vec<_>>()
        });
    }
    FeaturizeCosts {
        compounds: n,
        materialize_us,
        materialize_topology_us,
        materialize_graph_only_us,
        build_graph_us,
        relax_ratio: materialize_us / materialize_topology_us,
        relaxed_digest: format!("{digest:016x}"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("== ligand-screening baseline ({host_cpus} host CPUs, smoke: {smoke}) ==");

    let (num_compounds, chunk_size, reps) =
        if smoke { (30_000u64, 4_096usize, 3usize) } else { (1_000_000, 16_384, 1) };
    let mut cfg = ScreenConfig::new(Library::Chembl, num_compounds, SEED);
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

    let featurize = featurize_costs();
    eprintln!(
        "  featurize ({} compounds, best of {FEATURIZE_REPS}): materialize {:.1} us, topology \
         {:.1} us (ratio {:.2}x), graph-only {:.1} us, build_graph {:.1} us, relaxed digest {}",
        featurize.compounds,
        featurize.materialize_us,
        featurize.materialize_topology_us,
        featurize.relax_ratio,
        featurize.materialize_graph_only_us,
        featurize.build_graph_us,
        featurize.relaxed_digest,
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
        featurize,
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
        assert_eq!(
            report.featurize.relaxed_digest,
            format!("{RELAXED_DIGEST:016x}"),
            "relaxed conformers drifted"
        );
        assert!(
            report.featurize.relax_ratio <= MAX_RELAX_RATIO,
            "materialize costs {:.2}x materialize_topology (bound {MAX_RELAX_RATIO}x): \
             relaxation got expensive again",
            report.featurize.relax_ratio
        );
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
