//! End-to-end traced run: exercises every instrumented stage — tensor
//! matmul/conv3d, pool scheduling, batch featurization, MC docking, the
//! train loop and a multi-job HTS campaign — and writes the merged
//! telemetry to `RUN_TRACE.json` at the repo root (schema in
//! `docs/OBSERVABILITY.md`), plus the human-readable report to stdout.
//!
//! ```sh
//! DFTRACE=1 cargo run --release -p dfbench --bin trace_report
//! ```
//!
//! Tracing is forced on if `DFTRACE` is unset, so the bin works either
//! way; production code paths stay dark unless `DFTRACE=1` is exported.

use dfchem::featurize::{build_graph_batch, voxelize_batch, GraphConfig, VoxelConfig};
use dfchem::genmol::{generate_molecule, Library, MolGenConfig};
use dfchem::mol::Molecule;
use dfchem::pocket::{BindingPocket, TargetSite};
use dfdata::loader::{DataLoader, LoaderConfig};
use dfdata::pdbbind::{PdbBind, PdbBindConfig};
use dfdock::search::{dock, DockConfig};
use dffusion::{train, Cnn3d, Cnn3dConfig, TrainConfig};
use dfhts::fault::FaultConfig;
use dfhts::job::{JobConfig, JobSpec, SyntheticPoseSource, TaskClass};
use dfhts::prefilter::{run_prefilter, PrefilterConfig};
use dfhts::scheduler::{resume_campaign, run_campaign, SchedulerConfig};
use dfhts::scorer::VinaScorerFactory;
use dfhts::throughput::LassenModel;
use dftensor::params::ParamStore;
use std::path::PathBuf;
use std::sync::Arc;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() {
    if std::env::var("DFTRACE").is_err() {
        println!("DFTRACE not set; forcing tracing on for this run.");
        dftrace::set_enabled(true);
    }
    assert!(dftrace::enabled(), "tracing must be on for trace_report (set DFTRACE=1)");
    dftrace::reset();
    // Run the workload on a real multi-lane pool even on small hosts, so the
    // pool scheduling telemetry (queue wait, steals, lane utilization) is
    // exercised rather than the inline single-lane fast path.
    dfpool::Pool::new(4).install(run);
}

fn run() {
    let seed = 42;

    // --- chem + hts: the ligand-only prefilter ring of the funnel ---
    println!("Prefiltering a compound library (filter -> fingerprint -> score)...");
    let pre = PrefilterConfig::new(Library::Chembl, 8_000, seed, 128);
    let picked = run_prefilter(&pre);
    println!(
        "  {} evaluated -> {} passed filter -> {} selected",
        picked.funnel.evaluated,
        picked.funnel.passed_filter,
        picked.shortlist.len()
    );

    // --- chem + tensor + pool: batch featurization ---
    println!("Featurizing a compound batch...");
    let ligands: Vec<Molecule> = (0..16)
        .map(|i| {
            generate_molecule(
                &MolGenConfig { min_heavy: 8, max_heavy: 16, ..Default::default() },
                "trace",
                i,
            )
        })
        .collect();
    let refs: Vec<&Molecule> = ligands.iter().collect();
    let pocket = BindingPocket::generate(TargetSite::Protease1, seed);
    let voxel = VoxelConfig { grid_dim: 8, resolution: 2.0 };
    let _grids = voxelize_batch(&voxel, &refs, &pocket);
    let _graphs = build_graph_batch(&GraphConfig::default(), &refs, &pocket);

    // --- dock: MC pose search ---
    println!("Docking...");
    let dcfg = DockConfig { mc_restarts: 8, mc_steps: 120, ..DockConfig::default() };
    let _poses = dock(&dcfg, &ligands[0], &pocket, seed);

    // --- core + tensor: train loop (conv3d fwd/bwd, matmul, optimizer) ---
    println!("Training a small 3D-CNN...");
    let ds = Arc::new(PdbBind::generate(&PdbBindConfig::tiny(), 13));
    let n = ds.entries.len();
    let lcfg = LoaderConfig {
        batch_size: 6,
        num_workers: 2,
        voxel,
        graph: GraphConfig::default(),
        ..Default::default()
    };
    let train_l = DataLoader::new(Arc::clone(&ds), (0..n * 3 / 4).collect(), lcfg.clone());
    let val_l = DataLoader::new(
        Arc::clone(&ds),
        (n * 3 / 4..n).collect(),
        LoaderConfig { shuffle: false, ..lcfg },
    );
    let mut ps = ParamStore::new();
    let ccfg = Cnn3dConfig {
        conv_filters_1: 4,
        conv_filters_2: 6,
        num_dense_nodes: 12,
        flip_augment: false,
        ..Cnn3dConfig::table3()
    };
    let mut model = Cnn3d::new(&ccfg, &voxel, &mut ps, "cnn", 3);
    let hist = train(
        &mut model,
        &mut ps,
        &train_l,
        &val_l,
        &TrainConfig { epochs: 2, learning_rate: 1e-3, ..Default::default() },
    );
    println!("  best val MSE {:.3}", hist.best_val_mse);

    // --- hts: a small campaign (jobs, ranks, allgather, output) ---
    println!("Running a 4-job HTS campaign...");
    let dir = std::env::temp_dir().join(format!("dftrace_report_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create campaign output dir");
    let jcfg = JobConfig {
        nodes: 2,
        ranks_per_node: 2,
        batch_size: 8,
        output_dir: dir.clone(),
        faults: FaultConfig::default(),
    };
    let specs: Vec<JobSpec> = (0..4)
        .map(|j| JobSpec {
            job_id: j,
            target: TargetSite::Spike1,
            library: Library::EnamineVirtual,
            first_compound: j * 8,
            num_compounds: 8,
            campaign_seed: seed,
            class: TaskClass::Dock,
            attempt: 0,
        })
        .collect();
    let report = run_campaign(
        &SchedulerConfig { max_parallel_jobs: 2, max_attempts: 3, ..Default::default() },
        &jcfg,
        specs,
        &VinaScorerFactory,
        &SyntheticPoseSource { poses_per_compound: 4 },
    );
    std::fs::remove_dir_all(&dir).ok();
    println!("  {} poses across {} jobs", report.total_poses(), report.outputs.len());

    // --- hts: checkpointed campaign + resume (manifest, backoff, retries) ---
    println!("Running a checkpointed campaign and resuming it...");
    let ckpt_dir = std::env::temp_dir().join(format!("dftrace_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint campaign dir");
    let ckpt_cfg = JobConfig {
        output_dir: ckpt_dir.clone(),
        // Mild faults so the retry/backoff and write-retry paths light up.
        faults: FaultConfig {
            p_node_failure: 0.3,
            p_broken_pipe: 0.3,
            seed: 11,
            ..Default::default()
        },
        ..jcfg
    };
    let ckpt_specs = || -> Vec<JobSpec> {
        (0..4)
            .map(|j| JobSpec {
                job_id: j,
                target: TargetSite::Spike2,
                library: Library::EnamineVirtual,
                first_compound: j * 8,
                num_compounds: 8,
                campaign_seed: seed,
                class: TaskClass::Dock,
                attempt: 0,
            })
            .collect()
    };
    let manifest = ckpt_dir.join("campaign.dfcp");
    let sched = SchedulerConfig { max_parallel_jobs: 2, max_attempts: 5, ..Default::default() };
    let first = resume_campaign(
        &sched,
        &ckpt_cfg,
        ckpt_specs(),
        &VinaScorerFactory,
        &SyntheticPoseSource { poses_per_compound: 4 },
        &manifest,
    )
    .expect("checkpointed campaign");
    // Second invocation restores every job from the journal; this drives
    // the hts.jobs_resumed gauge and hts.resume_skipped counter.
    let second = resume_campaign(
        &sched,
        &ckpt_cfg,
        ckpt_specs(),
        &VinaScorerFactory,
        &SyntheticPoseSource { poses_per_compound: 4 },
        &manifest,
    )
    .expect("resumed campaign");
    assert_eq!(second.jobs_resumed, first.outputs.len() + first.abandoned.len());
    std::fs::remove_dir_all(&ckpt_dir).ok();
    println!(
        "  {} jobs journaled, {} restored on resume, {} failed attempts retried",
        first.outputs.len() + first.abandoned.len(),
        second.jobs_resumed,
        first.failed_attempts,
    );

    // --- export ---
    let trace = dftrace::snapshot();
    let out = repo_root().join("RUN_TRACE.json");
    std::fs::write(&out, trace.to_json()).expect("write RUN_TRACE.json");
    println!("\n{}", trace.render());

    // Dense-kernel time split: where a GEMM-lowered call spends its time.
    // Each stage is summed across every parent path (train fwd/bwd,
    // featurization, serving) via the leaf-segment helper.
    println!("kernel time split (all GEMM-lowered calls):");
    let stages = [
        ("pack A panels", "tensor.gemm.pack_a"),
        ("pack B panels", "tensor.gemm.pack_b"),
        ("gemm compute", "tensor.gemm.compute"),
        ("micro-kernel", "tensor.gemm.kernel"),
        ("pad input", "tensor.conv3d.pad"),
        ("col2im", "tensor.conv3d.col2im"),
        ("unpack/transpose", "tensor.conv3d.unpack"),
    ];
    for (label, leaf) in stages {
        let (count, total_us) = trace.sum_spans_with_leaf(leaf);
        println!("  {label:<18} {leaf:<26} n={count:<6} total {total_us}us");
    }
    println!(
        "  scratch arena: {} hits / {} misses, {} bytes grown; {} gemm calls, {} MACs",
        trace.counter("tensor.scratch.hits"),
        trace.counter("tensor.scratch.misses"),
        trace.counter("tensor.scratch.grow_bytes"),
        trace.counter("tensor.gemm.calls"),
        trace.counter("tensor.gemm.macs"),
    );
    assert!(trace.counter("tensor.gemm.calls") > 0, "no GEMM telemetry recorded");
    println!();

    // Screening-funnel split: how the ligand-only front-end narrowed the
    // stream before any docking work (stages in docs/CHEMISTRY.md).
    println!("screening funnel (ligand-only front-end):");
    let funnel_rows = [
        ("evaluated", "chem.filter.evaluated"),
        ("passed filter", "chem.filter.passed"),
        ("rejected", "chem.filter.rejected"),
        ("fingerprinted", "chem.fp.computed"),
        ("scored hits", "chem.screen.hits"),
        ("prefilter selected", "hts.prefilter.selected"),
    ];
    for (label, counter) in funnel_rows {
        println!("  {label:<20} {counter:<26} {}", trace.counter(counter));
    }
    for h in ["chem.filter.chunk_us", "chem.fp.chunk_us"] {
        if let Some(hist) = trace.histograms.iter().find(|x| x.name == h) {
            println!(
                "  {h}: n={} p50={}us p99={}us",
                hist.count,
                hist.percentile(0.50),
                hist.percentile(0.99)
            );
        }
    }
    assert!(
        trace.counter("chem.filter.evaluated") >= trace.counter("chem.fp.computed"),
        "the funnel can only narrow"
    );
    println!();

    // Derived rates, through the same dftrace::rate implementation the
    // Table 7 model uses.
    let poses = trace.counter("hts.poses") as f64;
    let campaign_secs = trace.span("hts.campaign").map(|s| s.total_us as f64 / 1e6).unwrap_or(0.0);
    let ppc = LassenModel::default().poses_per_compound as f64;
    println!("derived:");
    println!("  poses/s      {:.1}", dftrace::rate::per_sec(poses, campaign_secs));
    println!("  compounds/s  {:.1}", dftrace::rate::compounds_per_sec(poses, ppc, campaign_secs));
    println!("\nwrote {}", out.display());

    for stage in ["tensor.", "pool.", "dock.", "train.", "hts.", "chem."] {
        let seen = trace.spans.iter().any(|s| s.path.contains(stage))
            || trace.counters.iter().any(|c| c.name.starts_with(stage))
            || trace.histograms.iter().any(|h| h.name.starts_with(stage));
        assert!(seen, "no telemetry recorded for stage {stage}");
    }
}
