//! Active-learning campaign driver: the surrogate-in-the-loop funnel.
//!
//! The paper's funnel is static — filter, dock, rescore, each stage
//! budgeted up front. This driver closes the loop instead: a cheap
//! fingerprint-MLP surrogate (`dfsurrogate`) ranks the whole library,
//! the top slice of that ranking is routed into real docking jobs, the
//! newly docked poses become training labels, and the retrained surrogate
//! is hot-swapped in for the next epoch's ranking. Each epoch the
//! surrogate gets better exactly where the campaign is spending its
//! docking budget, which is what makes a 10% budget recover most of the
//! true top binders (`surrogate_bench` quantifies this as enrichment
//! factor and hit-recall@k).
//!
//! ## One epoch
//!
//! 1. **Surrogate pass.** The library is scored by the *published*
//!    surrogate generation, dispatched as [`TaskClass::Surrogate`] jobs
//!    through the heterogeneous scheduler — the pass rides the surrogate
//!    stride lane, bundles (32-compound jobs cost 64 ≤ the bundle cap)
//!    and respects lane backpressure like any other campaign stage. The
//!    pass is cheap and bit-deterministic given the weights, so it is
//!    *not* journaled; a resumed driver recomputes it.
//! 2. **Selection.** Compounds are ranked (prediction ascending, index
//!    tiebreak); the best `dock_fraction` of the library not yet docked
//!    becomes the epoch's shortlist, minus an `explore_fraction` wedge
//!    filled by a seeded hash ranking over the remainder so the labeled
//!    pool is not purely top-slice biased.
//! 3. **Dock.** The shortlist coalesces into contiguous dock-class jobs
//!    via the same [`coalesce_ranges`] splitter the prefilter uses, and
//!    runs under [`resume_campaign`] against the campaign's checkpoint
//!    manifest — node failures retry, completed jobs journal, and a
//!    killed driver re-docks nothing.
//! 4. **Label + retrain.** Each docked compound contributes one label
//!    (its best pose score); the surrogate retrains **from scratch** on
//!    the cumulative pool under an epoch-derived seed (fine-tuning would
//!    make the final weights depend on the crash/retrain history;
//!    from-scratch training is a pure function of the pool).
//! 5. **Hot-swap + journal.** The new weights publish through the
//!    [`SurrogateRegistry`] and the epoch's cheap-but-order-sensitive
//!    state (generation, snapshot hash, docked set, pool size) journals
//!    as a [`ManifestEntry::Epoch`] marker in the same manifest.
//!
//! ## Crash/resume contract
//!
//! Expensive state (docked poses) is journaled per job by the scheduler;
//! cheap state (surrogate passes, rankings, training) is recomputed on
//! resume and **asserted** against the journaled epoch markers — a
//! resumed campaign that would diverge from its pre-crash self fails
//! loudly with [`CheckpointError::Restore`] instead of silently
//! re-ranking. The final report's ranking digest is therefore
//! bit-identical whether the driver ran straight through or was killed
//! and resumed at any point, including between retrain and hot-swap
//! (the fault-matrix suite drives exactly that seam).

use crate::checkpoint::{CheckpointError, CheckpointWriter, EpochState, ManifestEntry};
use crate::h5lite::ScoreRecord;
use crate::job::{JobConfig, JobError, JobOutput, JobSpec, JobTiming, PoseSource, TaskClass};
use crate::prefilter::coalesce_ranges;
use crate::scheduler::{resume_campaign, run_campaign_with, SchedulerConfig};
use crate::scorer::ScorerFactory;
use dfchem::genmol::{CompoundId, Library};
use dfchem::pocket::TargetSite;
use dfchem::screen::RankedCompound;
use dfsurrogate::{
    featurize_compound, snapshot_hash, train, LabeledExample, SurrogateConfig, SurrogateMlp,
    SurrogateRegistry, TrainConfig, TrainReport,
};
use dftensor::hash::fnv1a64;
use dftensor::rng::derive_seed;
use std::path::Path;
use std::time::Duration;

/// Job-id block per epoch: surrogate passes take `epoch * EPOCH_STRIDE +
/// i`, dock jobs `epoch * EPOCH_STRIDE + DOCK_ID_OFFSET + i`, and the
/// final re-rank pass uses the block after the last epoch. Ids never
/// collide across epochs or stages as long as a single stage stays under
/// `DOCK_ID_OFFSET` jobs — far beyond any realistic epoch.
const EPOCH_STRIDE: u64 = 1_000_000;
/// Offset of the dock-job id block within an epoch's id block.
const DOCK_ID_OFFSET: u64 = 500_000;

/// Configuration of an active-learning screening campaign.
#[derive(Debug, Clone)]
pub struct ActiveLearningConfig {
    /// Library to screen.
    pub library: Library,
    /// Library size (indices `0..num_compounds`).
    pub num_compounds: u64,
    /// Campaign seed: compounds, pockets and poses materialize under it.
    pub campaign_seed: u64,
    /// Target pocket every dock job scores against.
    pub target: TargetSite,
    /// Active-learning epochs (each: rank → dock top slice → retrain).
    pub epochs: u64,
    /// Fraction of the library docked **per epoch** (the per-epoch
    /// budget); total docking budget ≈ `epochs × dock_fraction`.
    pub dock_fraction: f64,
    /// Fraction of each epoch's budget spent on *exploration*: compounds
    /// drawn by a seeded hash ranking over the not-yet-docked remainder
    /// instead of the surrogate's top slice (epsilon-greedy). Pure
    /// exploitation trains every retrain on a top-slice-biased pool and
    /// the tail ranking collapses; a small random wedge keeps the labeled
    /// pool covering the full score range. `0.0` = pure exploitation.
    pub explore_fraction: f64,
    /// Surrogate architecture + featurization + init seed.
    pub surrogate: SurrogateConfig,
    /// Surrogate training hyper-parameters; the shuffle seed is re-derived
    /// per epoch (`derive_seed(train.seed, epoch)`).
    pub train: TrainConfig,
    /// Compounds per surrogate-pass job. The default (32) makes each job
    /// estimate at 64 cost units — exactly the scheduler's default bundle
    /// cap — so surrogate passes bundle.
    pub compounds_per_surrogate_job: u64,
    /// Cap on compounds per dock job (0 = unbounded); shortlist runs are
    /// split balanced at this cap via [`coalesce_ranges`].
    pub max_compounds_per_dock_job: u64,
    /// Scheduler shape shared by the surrogate and dock stages.
    pub sched: SchedulerConfig,
}

impl ActiveLearningConfig {
    /// A small deterministic configuration for tests and benches: a tiny
    /// surrogate, 2 epochs, 1/8 of the library docked per epoch.
    pub fn tiny(library: Library, num_compounds: u64, campaign_seed: u64) -> ActiveLearningConfig {
        ActiveLearningConfig {
            library,
            num_compounds,
            campaign_seed,
            target: TargetSite::Spike1,
            epochs: 2,
            dock_fraction: 0.125,
            explore_fraction: 0.25,
            surrogate: SurrogateConfig::tiny(campaign_seed),
            train: TrainConfig { epochs: 12, ..TrainConfig::default() },
            compounds_per_surrogate_job: 32,
            max_compounds_per_dock_job: 8,
            sched: SchedulerConfig::default(),
        }
    }

    /// Per-epoch docking budget in compounds (at least 1).
    pub fn epoch_budget(&self) -> usize {
        ((self.num_compounds as f64 * self.dock_fraction).ceil() as usize).max(1)
    }
}

/// One epoch's outcome.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Surrogate generation published by this epoch's hot-swap.
    pub generation: u64,
    /// `snapshot_hash` of the published weights.
    pub snapshot_hash: u64,
    /// Compounds this epoch routed into docking.
    pub docked: usize,
    /// Cumulative labeled-pool size after this epoch.
    pub pool_size: usize,
    /// Training accounting of the epoch's from-scratch retrain.
    pub train: TrainReport,
    /// Dock jobs restored from the manifest instead of re-run.
    pub dock_jobs_resumed: usize,
    /// Whether a journaled epoch marker existed and was verified.
    pub verified_against_journal: bool,
}

/// The campaign's final outcome.
#[derive(Debug)]
pub struct ActiveCampaignReport {
    /// Per-epoch accounting, in epoch order.
    pub epochs: Vec<EpochReport>,
    /// Final ranking over the whole library, strongest (most negative)
    /// first: docked compounds carry their true best pose score,
    /// undocked ones the final surrogate's prediction.
    pub ranking: Vec<RankedCompound>,
    /// Every docked compound index, ascending.
    pub docked: Vec<u64>,
    /// Generation of the surrogate that produced the final re-rank.
    pub final_generation: u64,
    /// FNV-1a digest over the final ranking's `(index, score bits)`
    /// stream — the single number two runs must agree on bit for bit.
    pub ranking_digest: u64,
    /// Worker dispatches that pulled surrogate jobs, across all passes.
    pub surrogate_dispatches: u64,
    /// Surrogate jobs that rode in multi-job bundles, across all passes.
    pub surrogate_bundled_jobs: u64,
}

/// Where [`run_active_campaign_aborting`] kills the driver, for
/// crash/resume testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortPoint {
    /// Run to completion.
    None,
    /// Return early after the given epoch's retrain but **before** its
    /// hot-swap and epoch journal entry — the narrowest recovery seam:
    /// the epoch's dock jobs are journaled, its weights are not.
    BeforePublish {
        /// The epoch whose publish is skipped.
        epoch: u64,
    },
}

/// Digest of a ranking: FNV-1a over each entry's index and exact score
/// bits, in rank order.
pub fn ranking_digest(ranking: &[RankedCompound]) -> u64 {
    let mut bytes = Vec::with_capacity(ranking.len() * 16);
    for r in ranking {
        bytes.extend_from_slice(&r.index.to_le_bytes());
        bytes.extend_from_slice(&r.score.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Runs (or resumes) an active-learning campaign against the checkpoint
/// manifest at `manifest_path`. See the module docs for the loop and the
/// crash/resume contract.
pub fn run_active_campaign(
    cfg: &ActiveLearningConfig,
    job_cfg: &JobConfig,
    factory: &dyn ScorerFactory,
    source: &dyn PoseSource,
    manifest_path: impl AsRef<Path>,
) -> Result<ActiveCampaignReport, CheckpointError> {
    run_active_campaign_aborting(cfg, job_cfg, factory, source, manifest_path, AbortPoint::None)
        .map(|r| r.expect("AbortPoint::None always completes"))
}

/// [`run_active_campaign`] with an injected crash point. Returns
/// `Ok(None)` when the abort fired (the "killed driver" outcome) and
/// `Ok(Some(report))` on completion.
pub fn run_active_campaign_aborting(
    cfg: &ActiveLearningConfig,
    job_cfg: &JobConfig,
    factory: &dyn ScorerFactory,
    source: &dyn PoseSource,
    manifest_path: impl AsRef<Path>,
    abort: AbortPoint,
) -> Result<Option<ActiveCampaignReport>, CheckpointError> {
    let _span = dftrace::span("hts.active.campaign");
    let manifest_path = manifest_path.as_ref();
    assert!(cfg.num_compounds > 0, "cannot screen an empty library");
    assert!(cfg.dock_fraction > 0.0 && cfg.dock_fraction <= 1.0, "dock_fraction must be in (0, 1]");
    assert!((0.0..=1.0).contains(&cfg.explore_fraction), "explore_fraction must be in [0, 1]");

    // Journaled epoch markers from a previous (crashed) driver, if any.
    let journaled_epochs: Vec<EpochState> = if manifest_path.exists() {
        crate::checkpoint::load_manifest(manifest_path)?
            .entries
            .into_iter()
            .filter_map(|e| match e {
                ManifestEntry::Epoch { state } => Some(state),
                _ => None,
            })
            .collect()
    } else {
        Vec::new()
    };

    let registry = SurrogateRegistry::new(cfg.surrogate.clone());
    // The MLP structure is fixed per campaign; only its weights change.
    let (model, _) = cfg.surrogate.build();
    let mut labeled: Vec<LabeledExample> = Vec::new();
    let mut docked_all: Vec<u64> = Vec::new();
    let mut true_label: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    let mut epoch_reports: Vec<EpochReport> = Vec::new();
    let mut surrogate_dispatches = 0u64;
    let mut surrogate_bundled_jobs = 0u64;

    for epoch in 0..cfg.epochs {
        // 1. Surrogate pass over the whole library under the published
        //    generation (epoch 0 ranks with the untrained init — that is
        //    the cold-start baseline active learning improves on).
        let (preds, lane) = surrogate_pass(cfg, &model, &registry, epoch * EPOCH_STRIDE);
        surrogate_dispatches += lane.0;
        surrogate_bundled_jobs += lane.1;

        // 2. Selection: split the epoch budget between exploitation (the
        //    best-predicted compounds not yet docked, prediction ascending,
        //    index as the tiebreak) and exploration (a seeded hash ranking
        //    over the remainder, so the labeled pool keeps covering the
        //    full score range).
        let budget = cfg.epoch_budget();
        let explore_n = ((budget as f64 * cfg.explore_fraction).round() as usize).min(budget);
        let exploit_n = budget - explore_n;
        let mut order: Vec<u64> =
            (0..cfg.num_compounds).filter(|i| !true_label.contains_key(i)).collect();
        order.sort_by(|&a, &b| {
            preds[a as usize]
                .partial_cmp(&preds[b as usize])
                .expect("surrogate predictions are finite")
                .then(a.cmp(&b))
        });
        let mut shortlist: Vec<u64> = order.iter().copied().take(exploit_n).collect();
        if explore_n > 0 && order.len() > exploit_n {
            let salt = derive_seed(cfg.campaign_seed, 0xE890_1027 ^ epoch);
            let mut rest: Vec<u64> = order[exploit_n..].to_vec();
            rest.sort_by_key(|&i| {
                let mut bytes = [0u8; 16];
                bytes[..8].copy_from_slice(&salt.to_le_bytes());
                bytes[8..].copy_from_slice(&i.to_le_bytes());
                (fnv1a64(&bytes), i)
            });
            shortlist.extend(rest.into_iter().take(explore_n));
        }
        shortlist.sort_unstable();
        dftrace::counter_add("hts.active.selected", shortlist.len() as u64);

        // 3. Dock the shortlist through the journaled scheduler. The
        //    shared splitter keeps job shapes identical to what a
        //    prefilter shortlist would produce.
        let dock_specs: Vec<JobSpec> =
            coalesce_ranges(shortlist.clone(), cfg.max_compounds_per_dock_job)
                .into_iter()
                .enumerate()
                .map(|(i, (first_compound, num_compounds))| JobSpec {
                    job_id: epoch * EPOCH_STRIDE + DOCK_ID_OFFSET + i as u64,
                    target: cfg.target,
                    library: cfg.library,
                    first_compound,
                    num_compounds,
                    campaign_seed: cfg.campaign_seed,
                    class: TaskClass::Dock,
                    attempt: 0,
                })
                .collect();
        let dock =
            resume_campaign(&cfg.sched, job_cfg, dock_specs, factory, source, manifest_path)?;
        if !dock.abandoned.is_empty() {
            return Err(CheckpointError::Restore(format!(
                "epoch {epoch}: {} dock jobs exhausted their attempts; the labeled pool \
                 would be incomplete",
                dock.abandoned.len()
            )));
        }

        // 4. Labels: best (lowest) pose score per newly docked compound,
        //    appended in index order so the pool is a pure function of
        //    the docked set.
        for out in &dock.outputs {
            for rec in &out.records {
                let entry = true_label.entry(rec.compound.index).or_insert(f64::INFINITY);
                *entry = entry.min(rec.score);
            }
        }
        for &i in &shortlist {
            let label = *true_label.get(&i).expect("docked compound has at least one pose");
            let (_, features) =
                featurize_compound(&cfg.surrogate.fingerprint, cfg.library, i, cfg.campaign_seed);
            labeled.push(LabeledExample { index: i, features, label: label as f32 });
        }
        labeled.sort_by_key(|ex| ex.index);
        docked_all.extend_from_slice(&shortlist);
        dftrace::counter_add("hts.active.docked", shortlist.len() as u64);
        dftrace::gauge_set("hts.active.pool", labeled.len() as f64);

        // 5. Retrain from scratch on the cumulative pool, then hot-swap.
        let (_, mut ps) = cfg.surrogate.build();
        let tcfg = TrainConfig { seed: derive_seed(cfg.train.seed, epoch), ..cfg.train.clone() };
        let train_report = train(&model, &mut ps, &tcfg, &labeled);
        let snap = ps.snapshot();
        let hash = snapshot_hash(&snap);

        if abort == (AbortPoint::BeforePublish { epoch }) {
            // The injected driver kill: dock jobs are journaled, the
            // retrained weights are not — they die with this process.
            dftrace::counter_add("hts.active.aborted", 1);
            return Ok(None);
        }

        let generation =
            registry.publish(&snap).map_err(|e| CheckpointError::Restore(e.to_string()))?;
        let state = EpochState {
            epoch,
            generation,
            snapshot_hash: hash,
            labeled: labeled.len() as u64,
            docked: shortlist.clone(),
        };

        // A resumed driver must land exactly where the crashed one did:
        // the recomputed epoch is checked against its journaled marker.
        let verified = match journaled_epochs.iter().find(|s| s.epoch == epoch) {
            Some(prev) => {
                if *prev != state {
                    return Err(CheckpointError::Restore(format!(
                        "epoch {epoch} diverged from its journaled marker: recomputed \
                         {state:?}, journal says {prev:?}"
                    )));
                }
                true
            }
            None => {
                let (mut writer, _) = CheckpointWriter::open_or_create(manifest_path)?;
                writer.append(&ManifestEntry::Epoch { state })?;
                false
            }
        };
        dftrace::counter_add("hts.active.epochs", 1);
        epoch_reports.push(EpochReport {
            epoch,
            generation,
            snapshot_hash: hash,
            docked: shortlist.len(),
            pool_size: labeled.len(),
            train: train_report,
            dock_jobs_resumed: dock.jobs_resumed,
            verified_against_journal: verified,
        });
    }

    // Final re-rank under the last published generation: true scores for
    // docked compounds, predictions for the rest.
    let (preds, lane) = surrogate_pass(cfg, &model, &registry, cfg.epochs * EPOCH_STRIDE);
    surrogate_dispatches += lane.0;
    surrogate_bundled_jobs += lane.1;
    let mut ranking: Vec<RankedCompound> = (0..cfg.num_compounds)
        .map(|i| RankedCompound {
            index: i,
            score: true_label.get(&i).copied().unwrap_or(preds[i as usize]),
        })
        .collect();
    ranking.sort_by(|a, b| {
        a.score.partial_cmp(&b.score).expect("scores are finite").then(a.index.cmp(&b.index))
    });
    docked_all.sort_unstable();
    let digest = ranking_digest(&ranking);
    dftrace::gauge_set("hts.active.ranking_digest", digest as f64);

    Ok(Some(ActiveCampaignReport {
        epochs: epoch_reports,
        ranking,
        docked: docked_all,
        final_generation: registry.current().generation,
        ranking_digest: digest,
        surrogate_dispatches,
        surrogate_bundled_jobs,
    }))
}

/// One surrogate pass over the whole library as scheduler-dispatched
/// [`TaskClass::Surrogate`] jobs under the registry's live generation.
/// Returns the per-compound predictions (indexed by compound) and the
/// surrogate lane's `(dispatches, bundled_jobs)` for the pass.
fn surrogate_pass(
    cfg: &ActiveLearningConfig,
    model: &SurrogateMlp,
    registry: &SurrogateRegistry,
    first_job_id: u64,
) -> (Vec<f64>, (u64, u64)) {
    let _span = dftrace::span("hts.active.surrogate_pass");
    let live = registry.current();
    let per_job = cfg.compounds_per_surrogate_job.max(1);
    let specs: Vec<JobSpec> = (0..cfg.num_compounds.div_ceil(per_job))
        .map(|j| JobSpec {
            job_id: first_job_id + j,
            target: cfg.target,
            library: cfg.library,
            first_compound: j * per_job,
            num_compounds: per_job.min(cfg.num_compounds - j * per_job),
            campaign_seed: cfg.campaign_seed,
            class: TaskClass::Surrogate,
            attempt: 0,
        })
        .collect();
    let runner = |spec: &JobSpec| -> Result<JobOutput, JobError> {
        let indices: Vec<u64> =
            (spec.first_compound..spec.first_compound + spec.num_compounds).collect();
        let rows: Vec<Vec<f32>> = indices
            .iter()
            .map(|&i| {
                featurize_compound(&cfg.surrogate.fingerprint, spec.library, i, spec.campaign_seed)
                    .1
            })
            .collect();
        let scores = model.predict(&live.params, &rows);
        let records: Vec<ScoreRecord> = indices
            .iter()
            .zip(&scores)
            .map(|(&index, &score)| ScoreRecord {
                compound: CompoundId { library: spec.library, index },
                target: spec.target,
                pose_rank: 0,
                score: f64::from(score),
            })
            .collect();
        let n = records.len();
        Ok(JobOutput {
            job_id: spec.job_id,
            records,
            files: Vec::new(),
            faults: Vec::new(),
            write_retries: 0,
            timing: JobTiming {
                startup: Duration::ZERO,
                evaluate: Duration::ZERO,
                output: Duration::ZERO,
                poses_evaluated: n,
            },
        })
    };
    let report = run_campaign_with(&cfg.sched, specs, &runner);
    debug_assert!(report.abandoned.is_empty(), "surrogate jobs never fail");
    let mut preds = vec![0.0f64; cfg.num_compounds as usize];
    for out in &report.outputs {
        for rec in &out.records {
            preds[rec.compound.index as usize] = rec.score;
        }
    }
    let lane = &report.lanes[TaskClass::Surrogate.lane()];
    dftrace::counter_add("hts.active.surrogate_scored", cfg.num_compounds);
    (preds, (lane.dispatches, lane.bundled_jobs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::job::SyntheticPoseSource;
    use crate::scorer::VinaScorerFactory;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dfactive_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn tiny_cfg() -> ActiveLearningConfig {
        let mut cfg = ActiveLearningConfig::tiny(Library::Chembl, 48, 21);
        cfg.train.epochs = 6;
        cfg
    }

    fn job_cfg(dir: PathBuf) -> JobConfig {
        JobConfig {
            nodes: 1,
            ranks_per_node: 2,
            batch_size: 4,
            output_dir: dir,
            faults: FaultConfig::default(),
        }
    }

    #[test]
    fn campaign_runs_epochs_and_ranks_the_whole_library() {
        let dir = tmpdir("basic");
        let cfg = tiny_cfg();
        let report = run_active_campaign(
            &cfg,
            &job_cfg(dir.clone()),
            &VinaScorerFactory,
            &SyntheticPoseSource { poses_per_compound: 2 },
            dir.join("campaign.dfcp"),
        )
        .unwrap();
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.docked.len(), 2 * cfg.epoch_budget());
        assert_eq!(report.ranking.len(), 48, "the final ranking covers the library");
        assert_eq!(report.final_generation, 2, "one hot-swap per epoch");
        for (e, ep) in report.epochs.iter().enumerate() {
            assert_eq!(ep.epoch, e as u64);
            assert_eq!(ep.generation, e as u64 + 1);
            assert_eq!(ep.docked, cfg.epoch_budget());
            assert!(!ep.verified_against_journal, "a fresh run journals, it does not verify");
        }
        // Epoch 1's pool doubles epoch 0's: the budget is disjoint.
        assert_eq!(report.epochs[1].pool_size, 2 * report.epochs[0].pool_size);
        // The ranking is sorted ascending with the index tiebreak.
        for w in report.ranking.windows(2) {
            assert!((w[0].score, w[0].index) <= (w[1].score, w[1].index));
        }
        // Surrogate passes rode the surrogate lane in bundles.
        assert!(report.surrogate_dispatches > 0);
        assert!(
            report.surrogate_bundled_jobs > 0,
            "32-compound surrogate jobs must bundle under the recalibrated cost weight"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn identical_campaigns_produce_identical_digests() {
        let d1 = tmpdir("det1");
        let d2 = tmpdir("det2");
        let cfg = tiny_cfg();
        let run = |dir: &PathBuf| {
            run_active_campaign(
                &cfg,
                &job_cfg(dir.clone()),
                &VinaScorerFactory,
                &SyntheticPoseSource { poses_per_compound: 2 },
                dir.join("campaign.dfcp"),
            )
            .unwrap()
        };
        let a = run(&d1);
        let b = run(&d2);
        assert_eq!(a.ranking_digest, b.ranking_digest);
        assert_eq!(a.ranking, b.ranking);
        assert_eq!(
            a.epochs.iter().map(|e| e.snapshot_hash).collect::<Vec<_>>(),
            b.epochs.iter().map(|e| e.snapshot_hash).collect::<Vec<_>>(),
            "per-epoch weights must agree bit for bit"
        );
        std::fs::remove_dir_all(d1).ok();
        std::fs::remove_dir_all(d2).ok();
    }

    #[test]
    fn crash_before_publish_resumes_bit_identically() {
        let clean_dir = tmpdir("crash_clean");
        let crash_dir = tmpdir("crash_crash");
        let cfg = tiny_cfg();
        let source = SyntheticPoseSource { poses_per_compound: 2 };

        let clean = run_active_campaign(
            &cfg,
            &job_cfg(clean_dir.clone()),
            &VinaScorerFactory,
            &source,
            clean_dir.join("campaign.dfcp"),
        )
        .unwrap();

        // Killed between epoch 1's retrain and its hot-swap: epoch 0 is
        // journaled (marker + dock jobs), epoch 1's dock jobs are
        // journaled but its weights never published.
        let manifest = crash_dir.join("campaign.dfcp");
        let aborted = run_active_campaign_aborting(
            &cfg,
            &job_cfg(crash_dir.clone()),
            &VinaScorerFactory,
            &source,
            &manifest,
            AbortPoint::BeforePublish { epoch: 1 },
        )
        .unwrap();
        assert!(aborted.is_none(), "the injected kill fired");

        let resumed = run_active_campaign(
            &cfg,
            &job_cfg(crash_dir.clone()),
            &VinaScorerFactory,
            &source,
            &manifest,
        )
        .unwrap();
        assert_eq!(resumed.ranking_digest, clean.ranking_digest);
        assert_eq!(resumed.ranking, clean.ranking);
        assert!(
            resumed.epochs[0].verified_against_journal,
            "epoch 0 must be checked against its journaled marker"
        );
        assert!(
            resumed.epochs.iter().any(|e| e.dock_jobs_resumed > 0),
            "journaled dock jobs must restore instead of re-running"
        );
        std::fs::remove_dir_all(clean_dir).ok();
        std::fs::remove_dir_all(crash_dir).ok();
    }
}
