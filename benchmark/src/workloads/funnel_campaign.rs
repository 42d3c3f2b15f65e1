//! `funnel_campaign`: library in → ranked hits out. One operation is one
//! full pass through every stage of the funnel, the real scheduler and a
//! fresh checkpoint manifest.

use super::{
    fold_digest, library_screen, scaled_ops, timed_operations, Checks, Operation, Timed, Workload,
    DIGEST_SEED,
};
use crate::gen::{op_seed, WARMUP_OP};
use crate::host::Scratch;
use crate::spans::Recorder;
use dfchem::featurize::{build_graph, voxelize, MolGraph};
use dfchem::genmol::{Compound, CompoundId, Library};
use dfchem::mol::Molecule;
use dfchem::pocket::{BindingPocket, TargetSite};
use dfdock::{dock, vina_score, DockConfig};
use dffusion::score_batch_fusion;
use dfhts::checkpoint::summarize;
use dfhts::job::JobTiming;
use dfhts::{
    coalesce_ranges, load_manifest, run_active_campaign, run_campaign, run_campaign_with,
    run_prefilter, ActiveLearningConfig, CampaignReport, CheckpointWriter, DockingPoseSource,
    EpochState, FaultConfig, FusionScorerFactory, H5Error, H5Writer, JobConfig, JobOutput, JobSpec,
    ManifestEntry, ScoreRecord, TaskClass, VinaScorerFactory,
};
use dfpool::Pool;
use dfserve::ModelSpec;
use dfsurrogate::{featurize_compound, train, LabeledExample, SurrogateConfig, TrainConfig};
use dftensor::params::ParamStore;
use dftensor::rng::derive_seed;
use dftensor::Tensor;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Shape of one funnel pass.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Compounds entering the rule prefilter.
    pub library: u64,
    /// Library prefix the active-learning stage ranks and docks from.
    pub active: u64,
    /// Active-learning epochs.
    pub epochs: u64,
    /// Share of the prefix docked per epoch.
    pub dock_fraction: f64,
    /// Best docked compounds carried into fusion rescoring.
    pub rescore_top: usize,
}

pub const FROZEN_OPS: usize = 6;
pub const MIN_OPS: usize = 6;

pub const TARGET: TargetSite = TargetSite::Spike1;
/// First job id of a stage this benchmark schedules itself; above every id
/// the active-learning stage hands out for the epochs run here.
const STAGE_JOB_BASE: u64 = 900_000_000;

/// One ranked hit: a docked compound with its best fusion and Vina scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    pub index: u64,
    /// Best (highest pK) fusion score over the compound's poses.
    pub fusion: f64,
    /// Best (lowest) Vina score from the docking stage.
    pub vina: f64,
}

/// Wall time of each stage and the compounds that crossed each seam.
#[derive(Debug)]
pub struct PassReport {
    pub prefilter: Duration,
    pub active: Duration,
    pub rescore: Duration,
    pub merge: Duration,
    pub entered: u64,
    pub passed_filter: u64,
    pub docked: u64,
    pub rescored: u64,
    pub hits: Vec<Hit>,
    /// `ranking_digest` of the active-learning stage's final ranking.
    pub ranking_digest: u64,
    /// The rescore stage's scheduler report (lane accounting, outputs).
    pub rescore_campaign: CampaignReport,
}

pub struct FunnelCampaign {
    env: Env,
    warmup_digest: u64,
}

/// What every pass of one run shares.
struct Env {
    pool: Pool,
    seed: u64,
    lanes: usize,
    sizes: Sizes,
    rescorer: FusionScorerFactory,
    scratch: Scratch,
}

pub fn active_config(campaign_seed: u64, lanes: usize, sizes: &Sizes) -> ActiveLearningConfig {
    let mut cfg = ActiveLearningConfig::tiny(Library::Chembl, sizes.active, campaign_seed);
    cfg.target = TARGET;
    cfg.epochs = sizes.epochs;
    cfg.dock_fraction = sizes.dock_fraction;
    cfg.explore_fraction = 0.0;
    cfg.surrogate = SurrogateConfig::tiny(campaign_seed);
    cfg.sched.max_parallel_jobs = lanes;
    cfg
}

/// Every job in the funnel runs one rank; parallelism comes from the
/// scheduler's workers.
pub fn job_config(dir: &Path) -> JobConfig {
    JobConfig {
        nodes: 1,
        ranks_per_node: 1,
        batch_size: 56,
        output_dir: dir.to_path_buf(),
        faults: FaultConfig::default(),
    }
}

/// The `ModelSpec::tiny` fusion scorer of the rescore stage.
pub fn tiny_fusion_factory(seed: u64) -> FusionScorerFactory {
    let spec = ModelSpec::tiny(seed);
    let (model, params) = spec.build();
    FusionScorerFactory { model, params, voxel: spec.voxel, graph: spec.graph, batch_size: 56 }
}

/// Contiguous-range jobs of `class` over the selected compounds, split the
/// way both funnels split a shortlist (`coalesce_ranges`).
pub fn range_specs(
    campaign_seed: u64,
    selected: Vec<u64>,
    max_per_job: u64,
    class: TaskClass,
) -> Vec<JobSpec> {
    coalesce_ranges(selected, max_per_job)
        .into_iter()
        .enumerate()
        .map(|(i, (first_compound, num_compounds))| JobSpec {
            job_id: STAGE_JOB_BASE + i as u64,
            target: TARGET,
            library: Library::Chembl,
            first_compound,
            num_compounds,
            campaign_seed,
            class,
            attempt: 0,
        })
        .collect()
}

/// Best fusion score per rescored compound joined with its Vina score,
/// strongest fusion prediction first.
pub fn merge_hits(rescore: &CampaignReport, vina: &[(u64, f64)]) -> Vec<Hit> {
    let mut hits: Vec<Hit> =
        vina.iter().map(|&(index, vina)| Hit { index, fusion: f64::NEG_INFINITY, vina }).collect();
    for rec in rescore.outputs.iter().flat_map(|o| &o.records) {
        if let Some(h) = hits.iter_mut().find(|h| h.index == rec.compound.index) {
            h.fusion = h.fusion.max(rec.score);
        }
    }
    hits.sort_by(|a, b| {
        b.fusion
            .partial_cmp(&a.fusion)
            .expect("fusion scores are finite")
            .then(a.index.cmp(&b.index))
    });
    hits
}

pub fn hits_digest(hits: &[Hit]) -> u64 {
    hits.iter().fold(DIGEST_SEED, |h, hit| {
        let h = dfserve::fnv1a64_update(h, &hit.index.to_le_bytes());
        let h = dfserve::fnv1a64_update(h, &hit.fusion.to_bits().to_le_bytes());
        dfserve::fnv1a64_update(h, &hit.vina.to_bits().to_le_bytes())
    })
}

/// Digest of one pass: the active stage's full ranking and the hit list.
pub fn pass_digest(r: &PassReport) -> u64 {
    fold_digest(r.ranking_digest, hits_digest(&r.hits))
}

/// The prefilter stage: the `library_screen` block shape over the whole
/// funnel library.
pub fn prefilter_config(campaign_seed: u64, sizes: &Sizes) -> dfhts::PrefilterConfig {
    let block =
        library_screen::Sizes { block: sizes.library, ..library_screen::LibraryScreen::FROZEN };
    library_screen::config_for(campaign_seed, &block)
}

/// One full pass on the installed pool, into the empty directory `dir`.
pub fn pass(
    campaign_seed: u64,
    lanes: usize,
    sizes: &Sizes,
    rescorer: &FusionScorerFactory,
    dir: &Path,
) -> Result<PassReport, String> {
    let t = Instant::now();
    let pre = run_prefilter(&prefilter_config(campaign_seed, sizes));
    let prefilter = t.elapsed();

    let t = Instant::now();
    let cfg = active_config(campaign_seed, lanes, sizes);
    let jobs = job_config(dir);
    let docker = DockingPoseSource(DockConfig::default());
    let report =
        run_active_campaign(&cfg, &jobs, &VinaScorerFactory, &docker, dir.join("manifest.dfcp"))
            .map_err(|e| format!("active campaign: {e}"))?;
    let active = t.elapsed();

    // The final ranking carries true Vina scores for docked compounds and
    // surrogate predictions for the rest; keep the best docked ones.
    let t = Instant::now();
    let vina: Vec<(u64, f64)> = report
        .ranking
        .iter()
        .filter(|r| report.docked.binary_search(&r.index).is_ok())
        .take(sizes.rescore_top)
        .map(|r| (r.index, r.score))
        .collect();
    let specs = range_specs(
        campaign_seed,
        vina.iter().map(|&(i, _)| i).collect(),
        cfg.max_compounds_per_dock_job,
        TaskClass::Rescore,
    );
    let rescore_campaign = run_campaign(&cfg.sched, &jobs, specs, rescorer, &docker);
    let rescore = t.elapsed();

    let t = Instant::now();
    let hits = merge_hits(&rescore_campaign, &vina);
    let merge = t.elapsed();

    Ok(PassReport {
        prefilter,
        active,
        rescore,
        merge,
        entered: pre.funnel.evaluated,
        passed_filter: pre.funnel.passed_filter,
        docked: report.docked.len() as u64,
        rescored: rescore_campaign.total_poses() as u64,
        hits,
        ranking_digest: report.ranking_digest,
        rescore_campaign,
    })
}

/// The conservation chain of one pass.
pub fn check_pass(checks: &mut Checks, op: u64, lanes: usize, sizes: &Sizes, r: &PassReport) {
    let budget = active_config(0, lanes, sizes).epoch_budget() as u64;
    let top = sizes.rescore_top as u64;
    let poses = DockConfig::default().num_poses as u64;
    checks.require(r.entered == sizes.library && r.entered >= r.passed_filter, || {
        format!("op {op}: {} entered, {} passed the filter", r.entered, r.passed_filter)
    });
    checks.require(r.docked == sizes.epochs * budget, || {
        format!("op {op}: docked {} != {} epochs x {budget}", r.docked, sizes.epochs)
    });
    checks.require(
        r.rescore_campaign.abandoned.is_empty() && (top..=top * poses).contains(&r.rescored),
        || format!("op {op}: rescored {} poses for {top} compounds", r.rescored),
    );
    checks.require(
        r.hits.len() == sizes.rescore_top && r.hits.iter().all(|h| h.fusion.is_finite()),
        || format!("op {op}: {} hits out, want {top}, all rescored", r.hits.len()),
    );
}

impl Env {
    /// Runs pass `op` into a fresh directory and returns it with its wall
    /// time (directory set-up and removal excluded).
    fn pass_into(&self, op: u64) -> (Result<PassReport, String>, Duration) {
        let dir = match self.scratch.subdir(&format!("pass{op}")) {
            Ok(dir) => dir,
            Err(e) => return (Err(format!("pass directory: {e}")), Duration::ZERO),
        };
        let t = Instant::now();
        let report = self.pool.install(|| {
            pass(op_seed(self.seed, op), self.lanes, &self.sizes, &self.rescorer, &dir)
        });
        let wall = t.elapsed();
        // Rank files and manifest are not read again; keep the scratch small.
        let _ = std::fs::remove_dir_all(&dir);
        (report, wall)
    }
}

impl Workload for FunnelCampaign {
    const NAME: &'static str = "funnel_campaign";
    const UNIT: &'static str = "compounds";
    const WHY: &'static str = "every layer works and none dominates: prefilter, surrogate \
        passes, docking, fusion rescoring, scheduler and manifest, so one layer's gain is diluted";

    type Sizes = Sizes;
    const FROZEN: Sizes =
        Sizes { library: 8000, active: 500, epochs: 2, dock_fraction: 0.08, rescore_top: 20 };

    fn ops_for(seconds: u64) -> usize {
        scaled_ops(FROZEN_OPS, MIN_OPS, seconds)
    }

    fn build(seed: u64, lanes: usize, sizes: &Sizes) -> Result<Self, String> {
        let env = Env {
            pool: Pool::new(lanes),
            seed,
            lanes,
            sizes: *sizes,
            rescorer: tiny_fusion_factory(seed),
            scratch: Scratch::create(Self::NAME).map_err(|e| format!("scratch dir: {e}"))?,
        };
        Ok(FunnelCampaign { env, warmup_digest: 0 })
    }

    fn warm_up(&mut self) -> Result<(), String> {
        let warmup = self.env.pass_into(WARMUP_OP).0?;
        let mut checks = Checks::default();
        check_pass(&mut checks, WARMUP_OP, self.env.lanes, &self.env.sizes, &warmup);
        self.warmup_digest = pass_digest(&warmup);
        checks.problems.first().map_or(Ok(()), |p| Err(format!("warm-up: {p}")))
    }

    fn warmup_digest(&self) -> u64 {
        self.warmup_digest
    }

    fn run(&mut self, ops: usize) -> Timed {
        let env = &self.env;
        timed_operations(ops, env.lanes, |op, checks| {
            let (report, wall) = env.pass_into(op);
            let outcome = report.map(|r| {
                check_pass(checks, op, env.lanes, &env.sizes, &r);
                (r.entered, pass_digest(&r))
            });
            Operation { wall, outcome }
        })
    }
}

/// What the traced pass of this workload measured besides its spans.
pub struct Traced {
    /// The entry-point pass (stage walls, conservation counts).
    pub entry: PassReport,
    pub decomposed_s: f64,
    /// One retrain of the surrogate at the final labeled-pool size.
    pub train_s: f64,
    /// `LaneStats::busy` ÷ (workers × campaign wall) of the surrogate,
    /// dock and rescore lanes.
    pub surrogate_busy_share: f64,
    pub dock_busy_share: f64,
    pub rescore_busy_share: f64,
}

fn busy_share(report: &CampaignReport, class: TaskClass, workers: usize) -> f64 {
    report.lanes[class.lane()].busy.as_secs_f64()
        / (workers as f64 * report.wall_time.as_secs_f64())
}

/// Traced pass over one operation: the entry point on `lanes` lanes into a
/// directory that is kept, so the decomposed pass can replay the docked
/// sets its manifest journaled.
pub fn trace(rec: &mut Recorder, seed: u64, op: u64, lanes: usize) -> Result<Traced, String> {
    let sizes = FunnelCampaign::FROZEN;
    let this = FunnelCampaign::build(seed, lanes, &sizes)?;
    let env = &this.env;
    let campaign_seed = op_seed(seed, op);
    let dir = env.scratch.subdir("trace-entry").map_err(|e| e.to_string())?;
    let entry = rec.span("entry.funnel_campaign", op, |rec| {
        rec.call("funnel.pass", op, sizes.library, || {
            env.pool.install(|| pass(campaign_seed, lanes, &sizes, &env.rescorer, &dir))
        })
    })?;
    let docked_per_epoch: Vec<Vec<u64>> = load_manifest(dir.join("manifest.dfcp"))
        .map_err(|e| format!("reading the pass's manifest: {e}"))?
        .entries
        .into_iter()
        .filter_map(|e| match e {
            ManifestEntry::Epoch { state } => Some(state.docked),
            _ => None,
        })
        .collect();

    let out = env.scratch.subdir("trace-decomposed").map_err(|e| e.to_string())?;
    let serial = Pool::new(1);
    let t = Instant::now();
    let train_s = rec.span("decomposed.funnel_campaign", op, |rec| {
        serial.install(|| {
            decompose_pass(
                rec,
                campaign_seed,
                op,
                &sizes,
                &env.rescorer,
                &docked_per_epoch,
                &entry,
                &out,
            )
        })
    })?;
    let decomposed_s = t.elapsed().as_secs_f64();

    // The active stage's scheduler report is not returned to the caller,
    // so its two lanes are measured on the same jobs run through the
    // public scheduler entry points.
    let cfg = active_config(campaign_seed, lanes, &sizes);
    let probe_dir = env.scratch.subdir("trace-lanes").map_err(|e| e.to_string())?;
    let docker = DockingPoseSource(DockConfig::default());
    let dock_specs = dock_specs(&cfg, &docked_per_epoch[0]);
    let dock_report = env.pool.install(|| {
        run_campaign(&cfg.sched, &job_config(&probe_dir), dock_specs, &VinaScorerFactory, &docker)
    });
    let (model, params) = cfg.surrogate.build();
    let surrogate_report = env.pool.install(|| {
        run_campaign_with(&cfg.sched, surrogate_specs(&cfg), &|spec: &JobSpec| {
            let rows: Vec<Vec<f32>> = (spec.first_compound
                ..spec.first_compound + spec.num_compounds)
                .map(|i| {
                    featurize_compound(
                        &cfg.surrogate.fingerprint,
                        spec.library,
                        i,
                        spec.campaign_seed,
                    )
                    .1
                })
                .collect();
            let records = model
                .predict(&params, &rows)
                .iter()
                .enumerate()
                .map(|(k, &s)| ScoreRecord {
                    compound: CompoundId {
                        library: spec.library,
                        index: spec.first_compound + k as u64,
                    },
                    target: spec.target,
                    pose_rank: 0,
                    score: f64::from(s),
                })
                .collect();
            Ok(job_output(spec.job_id, records))
        })
    });
    Ok(Traced {
        decomposed_s,
        train_s,
        surrogate_busy_share: busy_share(&surrogate_report, TaskClass::Surrogate, lanes),
        dock_busy_share: busy_share(&dock_report, TaskClass::Dock, lanes),
        rescore_busy_share: busy_share(&entry.rescore_campaign, TaskClass::Rescore, lanes),
        entry,
    })
}

pub fn job_output(job_id: u64, records: Vec<ScoreRecord>) -> JobOutput {
    let timing = JobTiming {
        startup: Duration::ZERO,
        evaluate: Duration::ZERO,
        output: Duration::ZERO,
        poses_evaluated: records.len(),
    };
    JobOutput { job_id, records, files: Vec::new(), faults: Vec::new(), write_retries: 0, timing }
}

/// The dock-class jobs the active stage makes of one epoch's shortlist.
fn dock_specs(cfg: &ActiveLearningConfig, shortlist: &[u64]) -> Vec<JobSpec> {
    let cap = cfg.max_compounds_per_dock_job;
    range_specs(cfg.campaign_seed, shortlist.to_vec(), cap, TaskClass::Dock)
}

/// The surrogate-class jobs of one whole-library surrogate pass.
fn surrogate_specs(cfg: &ActiveLearningConfig) -> Vec<JobSpec> {
    let per_job = cfg.compounds_per_surrogate_job;
    (0..cfg.num_compounds.div_ceil(per_job))
        .map(|j| JobSpec {
            job_id: j,
            target: cfg.target,
            library: cfg.library,
            first_compound: j * per_job,
            num_compounds: per_job.min(cfg.num_compounds - j * per_job),
            campaign_seed: cfg.campaign_seed,
            class: TaskClass::Surrogate,
            attempt: 0,
        })
        .collect()
}

/// Docks one job's compounds the way `run_job` does with a
/// `DockingPoseSource`: pocket once per job, then per compound materialize
/// and dock under the job's pose seed. Returns each compound's poses.
fn decompose_docking(
    rec: &mut Recorder,
    op: u64,
    spec: &JobSpec,
) -> (BindingPocket, Vec<(CompoundId, Vec<Molecule>)>) {
    let pocket = rec.call("chem.pocket_generate", op, 1, || {
        BindingPocket::generate(spec.target, spec.campaign_seed)
    });
    let docked = (spec.first_compound..spec.first_compound + spec.num_compounds)
        .map(|index| {
            let compound = rec.call("chem.materialize_full", op, 1, || {
                Compound::materialize(spec.library, index, spec.campaign_seed)
            });
            let seed = derive_seed(spec.campaign_seed, 0x9053 ^ index);
            let poses = rec.call("dock.search", op, 1, || {
                dock(&DockConfig::default(), &compound.mol, &pocket, seed)
            });
            (compound.id, poses.into_iter().map(|p| p.ligand).collect())
        })
        .collect();
    (pocket, docked)
}

/// Writes one job's records as its single rank file and journals the job,
/// as the scheduler does for every completed job.
fn decompose_job_output(
    rec: &mut Recorder,
    op: u64,
    spec: &JobSpec,
    records: Vec<ScoreRecord>,
    dir: &Path,
    journal: &mut CheckpointWriter,
) -> Result<(), String> {
    let path = dir.join(format!("job{:09}.dfh5", spec.job_id));
    let file = rec
        .call("hts.h5lite.write_job", op, records.len() as u64, || {
            let mut w = H5Writer::create_atomic(&path)?;
            w.write_chunk("predictions", &records)?;
            w.finish()
        })
        .map_err(|e: H5Error| format!("rank file: {e:?}"))?;
    let mut output = job_output(spec.job_id, records);
    output.files.push(file);
    let entry = ManifestEntry::Completed { spec: spec.clone(), summary: summarize(&output) };
    rec.call("hts.checkpoint.append", op, 1, || journal.append(&entry))
        .map_err(|e| format!("manifest append: {e}"))
}

/// The pass, decomposed into public calls, serially. The docked sets come
/// from the entry pass's manifest; everything else is recomputed, and the
/// recomputed selection and scores must equal the entry pass's. Returns
/// the wall seconds of the last surrogate retrain.
#[allow(clippy::too_many_arguments)]
fn decompose_pass(
    rec: &mut Recorder,
    campaign_seed: u64,
    op: u64,
    sizes: &Sizes,
    rescorer: &FusionScorerFactory,
    docked_per_epoch: &[Vec<u64>],
    entry: &PassReport,
    dir: &Path,
) -> Result<f64, String> {
    let cfg = active_config(campaign_seed, 1, sizes);
    let mismatch =
        |what: &str| format!("funnel_campaign: decomposed {what} differs from the entry pass");
    if docked_per_epoch.len() as u64 != sizes.epochs {
        return Err(mismatch("epoch count"));
    }

    rec.span("funnel.prefilter", op, |rec| {
        library_screen::decompose_block(rec, &prefilter_config(campaign_seed, sizes), op)
    });

    let mut journal =
        CheckpointWriter::create(dir.join("manifest.dfcp")).map_err(|e| e.to_string())?;
    let (model, mut params) = cfg.surrogate.build();
    let mut best_vina: BTreeMap<u64, f64> = BTreeMap::new();
    let mut labeled: Vec<LabeledExample> = Vec::new();
    let mut train_s = 0.0;
    let surrogate_pass = |rec: &mut Recorder, params: &ParamStore| -> Vec<f64> {
        rec.span("active.surrogate_pass", op, |rec| {
            let mut preds = Vec::with_capacity(cfg.num_compounds as usize);
            for spec in surrogate_specs(&cfg) {
                let rows: Vec<Vec<f32>> = (spec.first_compound
                    ..spec.first_compound + spec.num_compounds)
                    .map(|i| {
                        rec.call("surrogate.featurize", op, 1, || {
                            featurize_compound(
                                &cfg.surrogate.fingerprint,
                                cfg.library,
                                i,
                                campaign_seed,
                            )
                            .1
                        })
                    })
                    .collect();
                let scores = rec.call("surrogate.predict", op, rows.len() as u64, || {
                    model.predict(params, &rows)
                });
                preds.extend(scores.iter().map(|&s| f64::from(s)));
            }
            preds
        })
    };

    rec.span("funnel.active", op, |rec| -> Result<(), String> {
        for (epoch, shortlist) in docked_per_epoch.iter().enumerate() {
            let preds = surrogate_pass(rec, &params);
            // Selection is glue, not a layer — but it must pick what the
            // entry pass journaled, or this pass is not the same work.
            let mut order: Vec<u64> =
                (0..cfg.num_compounds).filter(|i| !best_vina.contains_key(i)).collect();
            order.sort_by(|&a, &b| {
                (preds[a as usize], a).partial_cmp(&(preds[b as usize], b)).expect("finite")
            });
            let mut picked: Vec<u64> = order.into_iter().take(cfg.epoch_budget()).collect();
            picked.sort_unstable();
            if &picked != shortlist {
                return Err(mismatch("epoch shortlist"));
            }
            rec.span("active.dock", op, |rec| -> Result<(), String> {
                for spec in dock_specs(&cfg, shortlist) {
                    let (pocket, docked) = decompose_docking(rec, op, &spec);
                    let mut records = Vec::new();
                    for (id, poses) in &docked {
                        let scores = rec.call("dock.vina_score", op, poses.len() as u64, || {
                            poses.iter().map(|p| vina_score(p, &pocket).total).collect::<Vec<f64>>()
                        });
                        let best = scores.iter().copied().fold(f64::INFINITY, f64::min);
                        best_vina.insert(id.index, best);
                        records.extend(scores.iter().enumerate().map(|(rank, &score)| {
                            ScoreRecord {
                                compound: *id,
                                target: spec.target,
                                pose_rank: rank as u16,
                                score,
                            }
                        }));
                    }
                    decompose_job_output(rec, op, &spec, records, dir, &mut journal)?;
                }
                Ok(())
            })?;
            for &i in shortlist {
                let features = rec.call("surrogate.featurize", op, 1, || {
                    featurize_compound(&cfg.surrogate.fingerprint, cfg.library, i, campaign_seed).1
                });
                labeled.push(LabeledExample { index: i, features, label: best_vina[&i] as f32 });
            }
            labeled.sort_by_key(|ex| ex.index);
            let (_, mut fresh) = cfg.surrogate.build();
            let tcfg = TrainConfig {
                seed: derive_seed(cfg.train.seed, epoch as u64),
                ..cfg.train.clone()
            };
            let t = Instant::now();
            rec.call("surrogate.train", op, 1, || train(&model, &mut fresh, &tcfg, &labeled));
            train_s = t.elapsed().as_secs_f64();
            params = fresh;
            let state = EpochState {
                epoch: epoch as u64,
                generation: epoch as u64 + 1,
                snapshot_hash: 0,
                labeled: labeled.len() as u64,
                docked: shortlist.clone(),
            };
            rec.call("hts.checkpoint.append", op, 1, || {
                journal.append(&ManifestEntry::Epoch { state })
            })
            .map_err(|e| format!("manifest append: {e}"))?;
        }
        surrogate_pass(rec, &params);
        Ok(())
    })?;

    let top: Vec<u64> = entry.hits.iter().map(|h| h.index).collect();
    if entry
        .hits
        .iter()
        .any(|h| best_vina.get(&h.index).map(|v| v.to_bits()) != Some(h.vina.to_bits()))
    {
        return Err(mismatch("Vina score of a hit"));
    }
    let mut best_fusion: BTreeMap<u64, f64> = BTreeMap::new();
    rec.span("funnel.rescore", op, |rec| -> Result<(), String> {
        let mut model = rescorer.model.clone();
        let cap = cfg.max_compounds_per_dock_job;
        for spec in range_specs(campaign_seed, top.clone(), cap, TaskClass::Rescore) {
            let (pocket, docked) = decompose_docking(rec, op, &spec);
            let mut records = Vec::new();
            for (id, poses) in &docked {
                let voxels: Vec<Tensor> = poses
                    .iter()
                    .map(|p| {
                        rec.call("chem.voxelize", op, 1, || voxelize(&rescorer.voxel, p, &pocket))
                    })
                    .collect();
                let graphs: Vec<MolGraph> = poses
                    .iter()
                    .map(|p| {
                        rec.call("chem.build_graph", op, 1, || {
                            build_graph(&rescorer.graph, p, &pocket)
                        })
                    })
                    .collect();
                let scores = rec.call("fusion.forward_tiny", op, poses.len() as u64, || {
                    score_batch_fusion(
                        &mut model,
                        &rescorer.params,
                        &voxels.iter().collect::<Vec<_>>(),
                        &graphs.iter().collect::<Vec<_>>(),
                    )
                });
                let best = scores.iter().map(|&s| f64::from(s)).fold(f64::NEG_INFINITY, f64::max);
                best_fusion.insert(id.index, best);
                records.extend(scores.iter().enumerate().map(|(rank, &s)| ScoreRecord {
                    compound: *id,
                    target: spec.target,
                    pose_rank: rank as u16,
                    score: f64::from(s),
                }));
            }
            decompose_job_output(rec, op, &spec, records, dir, &mut journal)?;
        }
        Ok(())
    })?;
    if entry
        .hits
        .iter()
        .any(|h| best_fusion.get(&h.index).map(|v| v.to_bits()) != Some(h.fusion.to_bits()))
    {
        return Err(mismatch("fusion score of a hit"));
    }
    Ok(train_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes =
        Sizes { library: 300, active: 30, epochs: 2, dock_fraction: 0.2, rescore_top: 4 };

    #[test]
    fn a_second_seed_gives_other_inputs_and_passes_every_check() {
        let mut digests = Vec::new();
        for seed in [11, 12, 11] {
            let mut w = FunnelCampaign::setup(seed, 2, &SMALL).unwrap();
            let timed = w.run(1);
            assert!(timed.checks.problems.is_empty(), "{:?}", timed.checks.problems);
            assert_eq!((timed.attempted, timed.units(), timed.checks.failed_ops), (1, 300, 0));
            digests.push((w.warmup_digest(), timed.digest));
        }
        assert_eq!(digests[0], digests[2], "two passes on one seed give one digest");
        assert_ne!(digests[0].0, digests[1].0);
        assert_ne!(digests[0].1, digests[1].1);
    }

    #[test]
    fn a_broken_conservation_chain_fails_the_pass() {
        let w = FunnelCampaign::build(11, 2, &SMALL).unwrap();
        let mut report = w.env.pass_into(1).0.unwrap();
        let mut checks = Checks::default();
        check_pass(&mut checks, 1, 2, &SMALL, &report);
        assert!(checks.problems.is_empty(), "{:?}", checks.problems);
        report.docked -= 1;
        report.hits.pop();
        check_pass(&mut checks, 1, 2, &SMALL, &report);
        assert_eq!(checks.problems.len(), 2);
    }
}
