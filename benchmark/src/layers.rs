//! The traced run: every workload's layer decomposition on a small sample
//! of operations, timed from outside.
//!
//! Each workload's sample goes through its real entry point and then,
//! serially on one lane, through the public calls that entry point makes
//! (`workloads::*::trace`). A layer's time is the self time of its spans.
//! All four workloads are decomposed in every traced run — the layers are
//! the same crates whichever workload was asked for — and the workload
//! named on the command line additionally gets the pool and tracing
//! samples, which need fresh processes with `DFPOOL_THREADS` / `DFTRACE`
//! set.

use crate::host::{self, Host};
use crate::report::{Metrics, RunResult, PER_LAYER};
use crate::run::WORKLOADS;
use crate::spans::{NameTotal, Recorder};
use crate::stats::Better;
use crate::workloads::funnel_campaign::{self, FunnelCampaign};
use crate::workloads::library_screen::{self, LibraryScreen};
use crate::workloads::pose_rescore::{self, PoseRescore};
use crate::workloads::serve_zipf::{self, ServeZipf};
use crate::workloads::{Timed, Workload};
use dfchem::genmol::Library;
use dfhts::{run_campaign_with, JobSpec, SchedulerConfig, TaskClass};
use std::time::Instant;

/// The operation every workload's sample is: the first timed operation of
/// an end-to-end run on the same seed.
const SAMPLE_OP: u64 = 1;
/// Requests in the serving sample (after the usual warm-up).
const SERVE_SAMPLE: usize = 1500;
/// Jobs in the scheduler-only campaign.
const NULL_JOBS: u64 = 2000;
/// Decomposed leaves must cover this share of every decomposed pass.
const MIN_LEAF_COVERAGE: f64 = 0.90;

/// Operations a pool/tracing sample process times, per workload.
fn sample_ops(workload: &str) -> usize {
    match workload {
        FunnelCampaign::NAME => 1,
        ServeZipf::NAME => SERVE_SAMPLE,
        _ => 3,
    }
}

/// Scheduler cost alone: a campaign of filter-class jobs whose runner does
/// nothing (RAPTOR's dispatch overhead). Returns µs per job, dispatches,
/// bundled jobs and the filter lane's busy share.
fn null_dispatch(lanes: usize) -> (f64, u64, u64, f64) {
    let specs: Vec<JobSpec> = (0..NULL_JOBS)
        .map(|i| JobSpec {
            job_id: i,
            target: funnel_campaign::TARGET,
            library: Library::Chembl,
            first_compound: i,
            num_compounds: 1,
            campaign_seed: 0,
            class: TaskClass::Filter,
            attempt: 0,
        })
        .collect();
    let sched = SchedulerConfig { max_parallel_jobs: lanes, ..SchedulerConfig::default() };
    let report = run_campaign_with(&sched, specs, &|spec: &JobSpec| {
        Ok(funnel_campaign::job_output(spec.job_id, Vec::new()))
    });
    let wall = report.wall_time.as_secs_f64();
    let busy = report.lanes[TaskClass::Filter.lane()].busy.as_secs_f64();
    (
        wall * 1e6 / NULL_JOBS as f64,
        report.dispatches(),
        report.bundled_jobs(),
        busy / (lanes as f64 * wall),
    )
}

/// Runs `ops` operations of `workload` in a fresh process of this
/// executable and returns the wall seconds of its timed section.
fn sample_process(
    workload: &str,
    seed: u64,
    lanes: usize,
    ops: usize,
    dftrace: bool,
) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["sample", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--lanes", &lanes.to_string(), "--ops", &ops.to_string()])
        .env("DFPOOL_THREADS", lanes.to_string())
        .env_remove("DFTRACE");
    if dftrace {
        cmd.env("DFTRACE", "1");
    }
    let out = cmd.output().map_err(|e| format!("starting a {workload} sample: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("wall_s="))
        .and_then(|v| v.parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| {
            format!(
                "{workload} sample at {lanes} lanes failed: {stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
}

/// The `sample` subcommand: build (no warm-up), run `ops` operations,
/// print the timed wall.
pub fn sample(workload: &str, seed: u64, lanes: usize, ops: usize) -> Result<bool, String> {
    fn timed<W: Workload>(seed: u64, lanes: usize, ops: usize) -> Result<Timed, String> {
        Ok(W::build(seed, lanes, &W::FROZEN)?.run(ops))
    }
    let timed = match workload {
        LibraryScreen::NAME => timed::<LibraryScreen>(seed, lanes, ops),
        PoseRescore::NAME => timed::<PoseRescore>(seed, lanes, ops),
        FunnelCampaign::NAME => timed::<FunnelCampaign>(seed, lanes, ops),
        ServeZipf::NAME => timed::<ServeZipf>(seed, lanes, ops),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    println!("wall_s={}", timed.wall().as_secs_f64());
    Ok(true)
}

/// Walls of the fresh-process samples a traced run takes.
struct Samples {
    /// Operations per sample of the named workload.
    ops: usize,
    /// One funnel pass on one lane; also the funnel's one-lane entry wall.
    funnel_serial_s: f64,
    /// The named workload on `nproc` lanes, on one lane, and on `nproc`
    /// lanes with `DFTRACE=1`.
    all_s: f64,
    one_s: f64,
    traced_s: f64,
}

/// Fresh processes: the funnel's one-lane entry needs a one-lane *global*
/// pool (its scheduler workers use it), and so do the named workload's
/// pool and tracing samples. Those are each taken twice, alternating,
/// keeping the faster: the differences looked for are a few per cent, and
/// one process that shares a disturbed second with another tenant is off
/// by tens.
fn fresh_process_samples(selected: &str, seed: u64, lanes: usize) -> Result<Samples, String> {
    let funnel_serial_s = sample_process(FunnelCampaign::NAME, seed, 1, 1, false)?;
    let ops = sample_ops(selected);
    let funnel_selected = selected == FunnelCampaign::NAME;
    let (mut all_s, mut traced_s) = (f64::MAX, f64::MAX);
    // The funnel's one-lane sample is the slowest of all; it is not repeated.
    let mut one_s = if funnel_selected { funnel_serial_s } else { f64::MAX };
    for _ in 0..2 {
        all_s = all_s.min(sample_process(selected, seed, lanes, ops, false)?);
        traced_s = traced_s.min(sample_process(selected, seed, lanes, ops, true)?);
        if !funnel_selected {
            one_s = one_s.min(sample_process(selected, seed, 1, ops, false)?);
        }
    }
    Ok(Samples { ops, funnel_serial_s, all_s, one_s, traced_s })
}

/// The traced run of `selected` on `seed`; prints every per-layer metric.
pub fn traced(selected: &str, seed: u64) -> Result<bool, String> {
    if !WORKLOADS.contains(&selected) {
        return Err(format!("unknown workload {selected:?}; the workloads are {WORKLOADS:?}"));
    }
    let host = Host::detect();
    println!("{}", host.line());
    let lanes = host.nproc;
    let started = Instant::now();

    let mut rec = Recorder::new();
    let screen = library_screen::trace(&mut rec, seed, SAMPLE_OP, lanes)?;
    let rescore = pose_rescore::trace(&mut rec, seed, SAMPLE_OP, lanes)?;
    let funnel = funnel_campaign::trace(&mut rec, seed, SAMPLE_OP, lanes)?;
    let serve = serve_zipf::trace(&mut rec, seed, lanes, SERVE_SAMPLE)?;
    let (null_us, dispatches, bundled, filter_busy) = null_dispatch(lanes);
    let samples = fresh_process_samples(selected, seed, lanes)?;

    let totals = rec.totals();
    let total = |name: &str| -> Result<NameTotal, String> {
        totals.get(name).copied().ok_or_else(|| format!("no span named {name} was recorded"))
    };
    let mut m = Metrics::default();
    for name in [
        "chem.materialize_topology",
        "chem.descriptors",
        "chem.filter_apply",
        "chem.fingerprint",
        "chem.ligand_score",
        "chem.materialize_full",
        "chem.build_graph",
        "chem.voxelize",
        "fusion.forward_b10",
        "fusion.forward_b4",
        "fusion.sg_head",
        "dock.search",
        "dock.vina_score",
        "surrogate.featurize",
        "surrogate.predict",
        "serve.router.home_shard",
    ] {
        m.set(&format!("{name}_us"), total(name)?.us_per_item());
    }
    // Per call, not per record: one rank file, one manifest frame.
    for name in ["hts.h5lite.write", "hts.checkpoint.append"] {
        let t = total(name)?;
        m.set(&format!("{name}_us"), t.self_ns as f64 / 1e3 / t.calls as f64);
    }
    m.set("chem.filter_pass_ratio", screen.filter_pass_ratio);
    m.set("tensor.gemm_macs_per_pose", rescore.gemm_macs_per_pose);
    m.set("tensor.gemm_calls_per_pose", rescore.gemm_calls_per_pose);
    m.set("surrogate.train_s", funnel.train_s);
    m.set("hts.job.startup_us", rescore.startup_us);
    m.set("hts.job.evaluate_us", rescore.evaluate_us);
    m.set("hts.job.output_us", rescore.output_us);
    m.set("hts.job.overhead_us", rescore.overhead_us);
    m.set("hts.sched.null_dispatch_us", null_us);
    m.set("hts.sched.dispatches", dispatches as f64);
    m.set("hts.sched.bundled_jobs", bundled as f64);
    m.set("hts.sched.lane_busy_share.filter", filter_busy);
    m.set("hts.sched.lane_busy_share.surrogate", funnel.surrogate_busy_share);
    m.set("hts.sched.lane_busy_share.dock", funnel.dock_busy_share);
    m.set("hts.sched.lane_busy_share.rescore", funnel.rescore_busy_share);
    let pass = &funnel.entry;
    m.set("funnel.prefilter_s", pass.prefilter.as_secs_f64());
    m.set("funnel.active_s", pass.active.as_secs_f64());
    m.set("funnel.rescore_s", pass.rescore.as_secs_f64());
    m.set("funnel.merge_s", pass.merge.as_secs_f64());
    m.set("funnel.in", pass.entered as f64);
    m.set("funnel.passed_filter", pass.passed_filter as f64);
    m.set("funnel.docked", pass.docked as f64);
    m.set("funnel.rescored", pass.rescored as f64);
    m.set("funnel.hits_out", pass.hits.len() as f64);
    m.set("serve.submit_us_p50", serve.submit_us_p50);
    m.set("serve.advance_us_p50", serve.advance_us_p50);
    m.set("serve.score_cache_hit_ratio", serve.score_cache_hit_ratio);
    m.set("serve.feature_cache_hit_ratio", serve.feature_cache_hit_ratio);
    m.set("serve.batch_size_mean", serve.batch_size_mean);
    for (tier, share) in dfserve::Tier::ALL.iter().zip(serve.tier_share) {
        m.set(&format!("serve.tier_share.{}", tier.tag()), share);
    }
    m.set("serve.shed_share", serve.shed_share);
    m.set("serve.score_alias_share", serve.aliased_share);
    m.set("serve.router.balance", serve.router_balance);
    m.set("serve.virtual_to_wall_ratio", serve.virtual_to_wall_ratio);
    m.set("pool.parallel_efficiency", samples.one_s / (lanes as f64 * samples.all_s));
    m.set("trace.overhead_share", (samples.traced_s - samples.all_s) / samples.all_s);

    // (workload, decomposed pass, entry point on one lane), seconds.
    let passes = [
        (LibraryScreen::NAME, screen.decomposed_s, screen.entry_serial_s),
        (PoseRescore::NAME, rescore.decomposed_s, rescore.entry_serial_s),
        (FunnelCampaign::NAME, funnel.decomposed_s, samples.funnel_serial_s),
        (ServeZipf::NAME, serve.decomposed_s, serve.entry_s),
    ];
    let mut covered = true;
    for (name, decomposed_s, entry_s) in passes {
        let (_, coverage) = rec.leaf_coverage(&format!("decomposed.{name}"));
        covered &= coverage >= MIN_LEAF_COVERAGE;
        m.set(&format!("trace.leaf_coverage.{name}"), coverage);
        m.set(&format!("trace.decomposed_to_entry.{name}"), decomposed_s / entry_s);
    }
    let missing: Vec<&str> =
        PER_LAYER.iter().map(|l| l.name).filter(|n| !m.0.contains_key(*n)).collect();
    if !missing.is_empty() {
        return Err(format!("per-layer metrics not measured: {missing:?}"));
    }

    std::fs::create_dir_all(host::out_dir()).map_err(|e| format!("benchmark/out: {e}"))?;
    let path = host::out_dir().join(format!("trace-{selected}.json"));
    let header = format!("\"workload\":\"{selected}\",\"seed\":{seed},\"nproc\":{lanes}");
    rec.write_json(&path, &header).map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "traced: {selected} seed={seed} spans={} trace={} wall_s={:.1}",
        rec.spans().len(),
        path.display(),
        started.elapsed().as_secs_f64()
    );
    println!(
        "  pool.parallel_efficiency and trace.overhead_share are of {selected} ({} operations \
         per sample); on {lanes} cores the efficiency is a regression check, not a scaling result",
        samples.ops
    );
    print_layer_shares(&rec);
    for layer in PER_LAYER {
        let wish = if layer.better == Better::Lower { "lower" } else { "higher" };
        let metric = &m.0[layer.name];
        println!("  {:<44} {:>16.4} {:<6} {wish} is better", layer.name, metric.value, metric.unit);
    }
    if !covered {
        println!(
            "  FAILED: decomposed leaves cover less than {MIN_LEAF_COVERAGE} of a decomposed pass"
        );
    }
    let result = RunResult {
        correct: covered,
        attempted: WORKLOADS.len() as u64,
        failed: u64::from(!covered),
        metrics: m.0,
    };
    println!("{}", result.to_json_line());
    Ok(result.correct)
}

/// Prints how each workload's decomposed pass splits across layers: a
/// span's layer is the part of its name before the first dot, and what no
/// leaf covers is the benchmark's own glue.
fn print_layer_shares(rec: &Recorder) {
    const LAYERS: [&str; 6] = ["chem", "fusion", "dock", "surrogate", "hts", "serve"];
    for workload in WORKLOADS {
        let root = format!("decomposed.{workload}");
        let (root_ns, _) = rec.leaf_coverage(&root);
        let totals = rec.totals_under(&root);
        let shares: Vec<String> = LAYERS
            .iter()
            .map(|layer| {
                let prefix = format!("{layer}.");
                let ns: u64 = totals
                    .iter()
                    .filter(|(n, _)| n.starts_with(&prefix))
                    .map(|(_, t)| t.self_ns)
                    .sum();
                format!("{layer}={:.3}", ns as f64 / root_ns.max(1) as f64)
            })
            .collect();
        println!("  {workload}: layer shares of the decomposed pass: {}", shares.join(" "));
    }
}
