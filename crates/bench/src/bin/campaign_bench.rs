//! Heterogeneous campaign-scheduler benchmark, as JSON.
//!
//! Exercises the task-class scheduler (`dfhts::scheduler`) the way the
//! paper's campaign driver does — a funnel-shaped mix of filter,
//! surrogate, dock and rescore jobs pulled from weighted class lanes —
//! and writes `BENCH_campaign.json` at the repo root:
//!
//! * a strong-scaling ladder (1/2/4/8 workers) over a 10M+-pose
//!   heterogeneous campaign, with per-class lane accounting
//!   (dispatches, bundles, peak occupancy, busy time);
//! * bundled vs unbundled dispatch on a flood of short filter jobs —
//!   the amortization the bundler buys when per-job work is smaller
//!   than per-dispatch overhead;
//! * bounded vs unbounded lane occupancy under `lane_capacity`
//!   backpressure (the prefilter→dock seam: a fast upstream class must
//!   not flood a slow downstream lane's queue);
//! * the discrete-event heterogeneous campaign simulation
//!   ([`dfhts::simulate`]) against the dock-only paper shape.
//!
//! ```sh
//! cargo run --release -p dfbench --bin campaign_bench            # full: 15M poses
//! cargo run --release -p dfbench --bin campaign_bench -- --smoke # CI mode
//! ```
//!
//! Jobs are scripted: a deterministic spin proportional to
//! [`JobSpec::est_cost`] stands in for real scoring, so the bench
//! isolates *scheduler* behaviour (dispatch, bundling, lane fairness,
//! backpressure) from kernel throughput. Wall-clock speedups across the
//! worker ladder are recorded but **not** asserted: on a single-CPU host
//! every rung sits near 1.0 and that is the honest number
//! (`host_cpus` is recorded alongside).
//!
//! `--smoke` shrinks the campaign and asserts the contract: every job
//! completes at every worker count, pose totals conserved, bundling
//! strictly reduces dispatches and is no slower than unbundled dispatch
//! (best-of-3), bounded lanes never exceed `lane_capacity`, and — when
//! `DFTRACE=1` — the `hts.sched.*` counters are live.

use dfhts::job::{JobError, JobOutput, JobSpec, JobTiming, TaskClass};
use dfhts::scheduler::{run_campaign_with, CampaignReport, LaneStats, SchedulerConfig};
use dfhts::simulate::{simulate_campaign, CampaignSim};
use dftensor::hash::{FNV_OFFSET, FNV_PRIME};
use serde::Serialize;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Synthetic poses per compound — the scripted stand-in for the docking
/// ensemble, so pose totals are exact and conserved.
const POSES_PER_COMPOUND: u64 = 100;

/// The funnel-shaped class mix, per 20 jobs: mostly cheap filter work,
/// a dock core, surrogate and rescore trickles (mirrors
/// `CampaignSim::heterogeneous_shape`'s 55/15/20/10).
fn class_of(i: u64) -> TaskClass {
    match i % 20 {
        0..=10 => TaskClass::Filter,
        11..=13 => TaskClass::Surrogate,
        14..=17 => TaskClass::Dock,
        _ => TaskClass::Rescore,
    }
}

fn mixed_specs(num_jobs: u64, compounds_per_job: u64, seed: u64) -> Vec<JobSpec> {
    use dfchem::genmol::Library;
    use dfchem::pocket::TargetSite;
    (0..num_jobs)
        .map(|j| JobSpec {
            job_id: j,
            target: TargetSite::ALL[(j % TargetSite::ALL.len() as u64) as usize],
            library: Library::EnamineVirtual,
            first_compound: j * compounds_per_job,
            num_compounds: compounds_per_job,
            campaign_seed: seed,
            class: class_of(j),
            attempt: 0,
        })
        .collect()
}

/// Deterministic FNV-1a spin: the scripted job "work".
fn spin(iters: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for i in 0..iters {
        h ^= i;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn scripted_output(spec: &JobSpec, evaluate: Duration) -> JobOutput {
    JobOutput {
        job_id: spec.job_id,
        records: Vec::new(),
        files: Vec::new(),
        faults: Vec::new(),
        write_retries: 0,
        timing: JobTiming {
            startup: Duration::ZERO,
            evaluate,
            output: Duration::ZERO,
            poses_evaluated: (spec.num_compounds * POSES_PER_COMPOUND) as usize,
        },
    }
}

/// Runs the mixed campaign once: each job spins proportionally to its
/// estimated cost (`work_scale` hash folds per cost unit).
fn run_mixed(sched: &SchedulerConfig, specs: &[JobSpec], work_scale: u64) -> CampaignReport {
    run_campaign_with(sched, specs.to_vec(), &|spec: &JobSpec| -> Result<JobOutput, JobError> {
        let t = Instant::now();
        black_box(spin((spec.est_cost() as u64).saturating_mul(work_scale)));
        Ok(scripted_output(spec, t.elapsed()))
    })
}

#[derive(Serialize)]
struct LaneRow {
    class: String,
    dispatches: u64,
    jobs_dispatched: u64,
    bundles: u64,
    bundled_jobs: u64,
    peak_occupancy: usize,
    completed: u64,
    busy_ms: f64,
}

impl From<&LaneStats> for LaneRow {
    fn from(l: &LaneStats) -> Self {
        LaneRow {
            class: l.class.name().to_string(),
            dispatches: l.dispatches,
            jobs_dispatched: l.jobs_dispatched,
            bundles: l.bundles,
            bundled_jobs: l.bundled_jobs,
            peak_occupancy: l.peak_occupancy,
            completed: l.completed,
            busy_ms: l.busy.as_secs_f64() * 1e3,
        }
    }
}

#[derive(Serialize)]
struct ScalingRun {
    workers: usize,
    ms: f64,
    poses: usize,
    poses_per_sec: f64,
    dispatches: u64,
    bundled_jobs: u64,
    /// 1-worker time / this time. Near 1.0 on a single-CPU host — recorded,
    /// never asserted.
    speedup_vs_serial: f64,
}

#[derive(Serialize)]
struct DispatchReport {
    /// Short filter-class jobs flooded through one worker.
    jobs: u64,
    bundle_max: usize,
    bundled_ms: f64,
    unbundled_ms: f64,
    bundled_dispatches: u64,
    unbundled_dispatches: u64,
    /// Unbundled dispatches / bundled dispatches (≫1 = amortized).
    dispatch_amortization: f64,
    /// Unbundled time / bundled time (≥1 = bundling no slower).
    bundling_speedup: f64,
}

#[derive(Serialize)]
struct LanePeak {
    class: String,
    bounded: usize,
    unbounded: usize,
}

#[derive(Serialize)]
struct BackpressureReport {
    lane_capacity: usize,
    peaks: Vec<LanePeak>,
}

#[derive(Serialize)]
struct ClassJobs {
    class: String,
    jobs: u64,
}

#[derive(Serialize)]
struct SimReport {
    total_poses: u64,
    jobs_completed: u64,
    jobs_rescheduled: u64,
    wall_hours: f64,
    /// Dock-only paper shape at the same pose count — the heterogeneous
    /// funnel must finish faster.
    dock_only_wall_hours: f64,
    mean_poses_per_sec: f64,
    per_class_jobs: Vec<ClassJobs>,
}

#[derive(Serialize)]
struct CampaignBench {
    host_cpus: usize,
    smoke: bool,
    worker_counts: Vec<usize>,
    total_jobs: u64,
    /// Poses evaluated per scaling rung (conserved across worker counts).
    total_poses: usize,
    scaling: Vec<ScalingRun>,
    /// Per-class lane accounting of the 1-worker rung.
    lanes: Vec<LaneRow>,
    dispatch: DispatchReport,
    backpressure: BackpressureReport,
    sim: SimReport,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("== heterogeneous campaign scheduler ({host_cpus} host CPUs, smoke: {smoke}) ==");

    // -------- strong-scaling ladder over the heterogeneous mix --------
    // Full: 1500 jobs × 100 compounds × 100 poses = 15 M poses per rung.
    let (num_jobs, compounds_per_job, work_scale) =
        if smoke { (240u64, 20u64, 4u64) } else { (1_500, 100, 24) };
    let specs = mixed_specs(num_jobs, compounds_per_job, 2021);
    let want_poses = (num_jobs * compounds_per_job * POSES_PER_COMPOUND) as usize;

    let mut scaling = Vec::new();
    let mut lanes: Vec<LaneRow> = Vec::new();
    let mut serial_ms = 0.0f64;
    for &workers in &WORKER_COUNTS {
        // Cost cap above the filter-class job cost (compounds × weight 1)
        // so the funnel's cheap majority rides in bundles while dock jobs
        // keep dedicated dispatches.
        let sched = SchedulerConfig {
            max_parallel_jobs: workers,
            bundle_cost_cap: compounds_per_job as f64 + 1.0,
            ..SchedulerConfig::default()
        };
        let t = Instant::now();
        let report = run_mixed(&sched, &specs, work_scale);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(report.outputs.len() as u64, num_jobs, "jobs lost at {workers} workers");
        assert!(report.abandoned.is_empty(), "scripted jobs never fail");
        assert_eq!(report.total_poses(), want_poses, "poses not conserved at {workers} workers");
        if workers == 1 {
            serial_ms = ms;
            lanes = report.lanes.iter().map(LaneRow::from).collect();
        }
        let run = ScalingRun {
            workers,
            ms,
            poses: report.total_poses(),
            poses_per_sec: dftrace::rate::per_sec(report.total_poses() as f64, ms / 1e3),
            dispatches: report.dispatches(),
            bundled_jobs: report.bundled_jobs(),
            speedup_vs_serial: if ms > 0.0 { serial_ms / ms } else { 1.0 },
        };
        eprintln!(
            "  campaign @ {workers} workers: {:.1} ms ({:.0} poses/s, {} dispatches, {} bundled)",
            run.ms, run.poses_per_sec, run.dispatches, run.bundled_jobs
        );
        scaling.push(run);
    }

    // -------- bundled vs unbundled dispatch on short filter jobs --------
    // Zero-work jobs: wall-clock is pure dispatch overhead, which
    // bundling amortizes `bundle_max`-fold on the claim path.
    let (flood_jobs, bundle_max, reps) =
        if smoke { (4_000u64, 32usize, 3) } else { (20_000, 32, 3) };
    let flood: Vec<JobSpec> = (0..flood_jobs)
        .map(|j| JobSpec {
            job_id: j,
            first_compound: j * 4,
            num_compounds: 4,
            class: TaskClass::Filter,
            ..specs[0].clone()
        })
        .collect();
    let bundled_cfg =
        SchedulerConfig { max_parallel_jobs: 1, bundle_max, ..SchedulerConfig::default() };
    let unbundled_cfg = SchedulerConfig { bundle_max: 1, ..bundled_cfg };
    let noop = |spec: &JobSpec| -> Result<JobOutput, JobError> {
        Ok(scripted_output(spec, Duration::ZERO))
    };
    // Interleaved best-of-N: external steal only adds time.
    let (mut bundled_ms, mut unbundled_ms) = (f64::INFINITY, f64::INFINITY);
    let (mut bundled_disp, mut unbundled_disp) = (0u64, 0u64);
    for _ in 0..reps {
        let t = Instant::now();
        let r = run_campaign_with(&bundled_cfg, flood.clone(), &noop);
        bundled_ms = bundled_ms.min(t.elapsed().as_secs_f64() * 1e3);
        bundled_disp = r.dispatches();
        assert_eq!(r.outputs.len() as u64, flood_jobs);
        let t = Instant::now();
        let r = run_campaign_with(&unbundled_cfg, flood.clone(), &noop);
        unbundled_ms = unbundled_ms.min(t.elapsed().as_secs_f64() * 1e3);
        unbundled_disp = r.dispatches();
        assert_eq!(r.outputs.len() as u64, flood_jobs);
    }
    let dispatch = DispatchReport {
        jobs: flood_jobs,
        bundle_max,
        bundled_ms,
        unbundled_ms,
        bundled_dispatches: bundled_disp,
        unbundled_dispatches: unbundled_disp,
        dispatch_amortization: unbundled_disp as f64 / bundled_disp.max(1) as f64,
        bundling_speedup: if bundled_ms > 0.0 { unbundled_ms / bundled_ms } else { 1.0 },
    };
    eprintln!(
        "  dispatch: {} jobs — bundled {:.1} ms / {} dispatches, unbundled {:.1} ms / {} \
         dispatches ({:.1}x amortized, {:.2}x faster)",
        flood_jobs,
        bundled_ms,
        bundled_disp,
        unbundled_ms,
        unbundled_disp,
        dispatch.dispatch_amortization,
        dispatch.bundling_speedup,
    );

    // -------- lane-capacity backpressure --------
    let cap = 64usize;
    let bounded_cfg =
        SchedulerConfig { max_parallel_jobs: 2, lane_capacity: cap, ..SchedulerConfig::default() };
    let unbounded_cfg = SchedulerConfig { lane_capacity: 0, ..bounded_cfg };
    let bounded = run_mixed(&bounded_cfg, &specs, 1);
    let unbounded = run_mixed(&unbounded_cfg, &specs, 1);
    let peaks: Vec<LanePeak> = bounded
        .lanes
        .iter()
        .zip(&unbounded.lanes)
        .map(|(b, u)| LanePeak {
            class: b.class.name().to_string(),
            bounded: b.peak_occupancy,
            unbounded: u.peak_occupancy,
        })
        .collect();
    for p in &peaks {
        eprintln!(
            "  backpressure[{}]: peak occupancy {} bounded (cap {cap}) vs {} unbounded",
            p.class, p.bounded, p.unbounded
        );
    }
    let backpressure = BackpressureReport { lane_capacity: cap, peaks };

    // -------- discrete-event heterogeneous campaign simulation --------
    let mut het = CampaignSim::heterogeneous_shape();
    het.total_poses = if smoke { 50_000_000 } else { 500_000_000 };
    let het_r = simulate_campaign(&het);
    let mut dock = CampaignSim::paper_shape();
    dock.total_poses = het.total_poses;
    let dock_r = simulate_campaign(&dock);
    let sim = SimReport {
        total_poses: het_r.total_poses,
        jobs_completed: het_r.jobs_completed,
        jobs_rescheduled: het_r.jobs_rescheduled,
        wall_hours: het_r.wall_hours,
        dock_only_wall_hours: dock_r.wall_hours,
        mean_poses_per_sec: het_r.mean_poses_per_sec,
        per_class_jobs: TaskClass::ALL
            .iter()
            .map(|c| ClassJobs {
                class: c.name().to_string(),
                jobs: het_r.per_class_jobs[c.lane()],
            })
            .collect(),
    };
    eprintln!(
        "  sim: {} poses in {:.1} h heterogeneous vs {:.1} h dock-only ({} jobs, {} rescheduled)",
        sim.total_poses,
        sim.wall_hours,
        sim.dock_only_wall_hours,
        sim.jobs_completed,
        sim.jobs_rescheduled
    );

    let report = CampaignBench {
        host_cpus,
        smoke,
        worker_counts: WORKER_COUNTS.to_vec(),
        total_jobs: num_jobs,
        total_poses: want_poses,
        scaling,
        lanes,
        dispatch,
        backpressure,
        sim,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize campaign bench");
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json");
    std::fs::write(&out, &json).expect("write BENCH_campaign.json");
    eprintln!("wrote {}", out.display());
    println!("{json}");

    if !smoke {
        assert!(report.total_poses >= 10_000_000, "full campaign must push 10M+ poses per rung");
    }
    if smoke {
        // Lane accounting partitions the job set.
        assert_eq!(report.lanes.iter().map(|l| l.completed).sum::<u64>(), num_jobs);
        for l in &report.lanes {
            assert!(l.completed > 0, "class {} never scheduled", l.class);
            assert_eq!(l.jobs_dispatched, l.completed, "no scripted job retries");
        }
        // Bundling must amortize dispatch: strictly fewer dispatches, and
        // no slower than per-job dispatch on pure-overhead jobs.
        assert!(
            report.dispatch.bundled_dispatches < report.dispatch.unbundled_dispatches,
            "bundling did not reduce dispatches: {} vs {}",
            report.dispatch.bundled_dispatches,
            report.dispatch.unbundled_dispatches
        );
        assert!(
            report.dispatch.bundling_speedup >= 1.0,
            "bundled dispatch slower than unbundled: {:.2}x",
            report.dispatch.bundling_speedup
        );
        // The backpressure bound holds on every lane (no retries here, so
        // the admitted queue never exceeds the capacity exactly).
        for p in &report.backpressure.peaks {
            assert!(p.bounded <= cap, "lane {} breached capacity: {} > {cap}", p.class, p.bounded);
        }
        // The simulated heterogeneous funnel beats dock-only wall time.
        assert!(report.sim.wall_hours < report.sim.dock_only_wall_hours);
        for c in &report.sim.per_class_jobs {
            assert!(c.jobs > 0, "sim drew no {} jobs", c.class);
        }
        if dftrace::enabled() {
            let trace = dftrace::snapshot();
            assert!(trace.counter("hts.sched.dispatches") > 0, "no scheduler telemetry");
            assert!(trace.counter("hts.sched.bundled_jobs") > 0, "no bundling telemetry");
            assert!(trace.counter("hts.sched.lane.filter.dispatched") > 0, "no per-lane telemetry");
            eprintln!(
                "smoke: {} dispatches, {} bundles, {} bundled jobs traced",
                trace.counter("hts.sched.dispatches"),
                trace.counter("hts.sched.bundles"),
                trace.counter("hts.sched.bundled_jobs"),
            );
        }
        eprintln!("smoke assertions passed");
    }
}
