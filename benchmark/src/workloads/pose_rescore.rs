//! `pose_rescore`: the paper's Figure-3 job — one `dfhts::run_job` of
//! fusion rescoring per operation, rank threads, allgather and fsynced
//! rank files included.

use super::{scaled_ops, timed_operations, Checks, Operation, Timed, Workload, DIGEST_SEED};
use crate::gen::{op_seed, WARMUP_OP};
use crate::host::Scratch;
use crate::spans::Recorder;
use dfchem::featurize::{build_graph, voxelize, MolGraph};
use dfchem::genmol::{Compound, Library};
use dfchem::pocket::{BindingPocket, TargetSite};
use dffusion::workflow::WorkflowConfig;
use dffusion::{score_batch_fusion, score_batch_sg_head, FusionModel};
use dfhts::{
    read_dir, run_job, FaultConfig, FusionScorerFactory, H5Error, H5Writer, JobConfig, JobOutput,
    JobSpec, PoseSource, ScoreRecord, SyntheticPoseSource, TaskClass,
};
use dfpool::Pool;
use dftensor::params::ParamStore;
use dftensor::rng::derive_seed;
use dftensor::Tensor;
use std::time::{Duration, Instant};

/// Shape of one rescoring job.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Compounds per job.
    pub compounds: u64,
    /// Synthetic poses per compound.
    pub poses: usize,
    /// Poses per inference batch (the paper's 56).
    pub batch: usize,
}

pub const FROZEN_OPS: usize = 20;
pub const MIN_OPS: usize = 15;

/// Target every job scores against.
pub const TARGET: TargetSite = TargetSite::Spike1;

pub struct PoseRescore {
    pool: Pool,
    seed: u64,
    lanes: usize,
    sizes: Sizes,
    factory: FusionScorerFactory,
    scratch: Scratch,
    warmup: Vec<ScoreRecord>,
}

/// The fusion scorer over the `WorkflowConfig::small` model shapes (12³
/// voxels) with seeded, untrained weights: inference cost does not depend
/// on what the weights are.
pub fn small_fusion_factory(seed: u64, batch: usize) -> FusionScorerFactory {
    let wf = WorkflowConfig::small(seed);
    let mut params = ParamStore::new();
    let model =
        FusionModel::new(&wf.coherent, &wf.sgcnn, &wf.cnn3d, &wf.voxel, &mut params, wf.seed);
    FusionScorerFactory {
        model,
        params,
        voxel: wf.voxel,
        graph: wf.sgcnn.graph_config(),
        batch_size: batch,
    }
}

pub fn spec(seed: u64, op: u64, sizes: &Sizes) -> JobSpec {
    JobSpec {
        job_id: op,
        target: TARGET,
        library: Library::Chembl,
        first_compound: 0,
        num_compounds: sizes.compounds,
        campaign_seed: op_seed(seed, op),
        class: TaskClass::Rescore,
        attempt: 0,
    }
}

pub fn job_config(dir: std::path::PathBuf, lanes: usize, sizes: &Sizes) -> JobConfig {
    JobConfig {
        nodes: 1,
        ranks_per_node: lanes,
        batch_size: sizes.batch,
        output_dir: dir,
        faults: FaultConfig::default(),
    }
}

/// Canonical record order: by compound, then pose.
fn canonical(mut records: Vec<ScoreRecord>) -> Vec<ScoreRecord> {
    records.sort_by_key(|r| (r.compound.index, r.pose_rank));
    records
}

/// Digest over a job's records in canonical order.
pub fn records_digest(records: &[ScoreRecord]) -> u64 {
    let mut h = DIGEST_SEED;
    for r in canonical(records.to_vec()) {
        h = dfserve::fnv1a64_update(h, &r.compound.index.to_le_bytes());
        h = dfserve::fnv1a64_update(h, &r.pose_rank.to_le_bytes());
        h = dfserve::fnv1a64_update(h, &r.score.to_bits().to_le_bytes());
    }
    h
}

/// The poses `run_job` scores for compound `index` of `spec`, featurized:
/// the job derives each compound's pose seed as
/// `derive_seed(campaign_seed, 0x9053 ^ index)`.
pub fn featurized_poses(
    factory: &FusionScorerFactory,
    source: &dyn PoseSource,
    spec: &JobSpec,
    pocket: &BindingPocket,
    index: u64,
) -> (Vec<Tensor>, Vec<MolGraph>) {
    let compound = Compound::materialize(spec.library, index, spec.campaign_seed);
    let poses = source.poses(&compound, pocket, derive_seed(spec.campaign_seed, 0x9053 ^ index));
    let voxels = poses.iter().map(|p| voxelize(&factory.voxel, p, pocket)).collect();
    let graphs = poses.iter().map(|p| build_graph(&factory.graph, p, pocket)).collect();
    (voxels, graphs)
}

impl PoseRescore {
    /// Records = compounds × poses, and the rank files hold the same
    /// records the job returned.
    fn check_job(&self, checks: &mut Checks, op: u64, out: &JobOutput, dir: &std::path::Path) {
        let want = self.sizes.compounds as usize * self.sizes.poses;
        checks.require(out.records.len() == want, || {
            format!("op {op}: {} records, want {want}", out.records.len())
        });
        match read_dir(dir) {
            Ok(on_disk) => checks
                .require(canonical(on_disk) == canonical(out.records.clone()), || {
                    format!("op {op}: rank files disagree with the returned records")
                }),
            Err(e) => checks.require(false, || format!("op {op}: reading rank files: {e:?}")),
        }
    }

    /// The warm-up job's scores must bit-equal `score_batch_fusion` called
    /// directly on the same poses, one batch per compound as the job does.
    fn check_against_direct_scoring(&self, spec: &JobSpec) -> Result<(), String> {
        let source = SyntheticPoseSource { poses_per_compound: self.sizes.poses };
        let pocket = BindingPocket::generate(spec.target, spec.campaign_seed);
        let mut model = self.factory.model.clone();
        for index in 0..spec.num_compounds {
            let (voxels, graphs) = featurized_poses(&self.factory, &source, spec, &pocket, index);
            let direct = score_batch_fusion(
                &mut model,
                &self.factory.params,
                &voxels.iter().collect::<Vec<_>>(),
                &graphs.iter().collect::<Vec<_>>(),
            );
            let from_job =
                self.warmup.iter().filter(|r| r.compound.index == index).map(|r| r.score.to_bits());
            if !from_job.eq(direct.iter().map(|&s| f64::from(s).to_bits())) {
                return Err(format!("warm-up: compound {index} differs from direct scoring"));
            }
        }
        Ok(())
    }
}

impl Workload for PoseRescore {
    const NAME: &'static str = "pose_rescore";
    const UNIT: &'static str = "poses";
    const WHY: &'static str = "the Figure-3 job: dffusion forward on dftensor GEMM/conv3d \
        dominates, batch 10, no cache, no docking; rank threads and fsynced rank files ride along";

    type Sizes = Sizes;
    const FROZEN: Sizes = Sizes { compounds: 10, poses: 10, batch: 56 };

    fn ops_for(seconds: u64) -> usize {
        scaled_ops(FROZEN_OPS, MIN_OPS, seconds)
    }

    fn build(seed: u64, lanes: usize, sizes: &Sizes) -> Result<Self, String> {
        Ok(PoseRescore {
            pool: Pool::new(lanes),
            seed,
            lanes,
            sizes: *sizes,
            factory: small_fusion_factory(seed, sizes.batch),
            scratch: Scratch::create(Self::NAME).map_err(|e| format!("scratch dir: {e}"))?,
            warmup: Vec::new(),
        })
    }

    fn warm_up(&mut self) -> Result<(), String> {
        let spec = spec(self.seed, WARMUP_OP, &self.sizes);
        let mut checks = Checks::default();
        self.warmup = canonical(self.job(&spec, &mut checks).0?.records);
        if let Some(p) = checks.problems.first() {
            return Err(format!("warm-up: {p}"));
        }
        self.pool.install(|| self.check_against_direct_scoring(&spec))
    }

    fn warmup_digest(&self) -> u64 {
        records_digest(&self.warmup)
    }

    fn run(&mut self, ops: usize) -> Timed {
        timed_operations(ops, self.lanes, |op, checks| {
            let (out, wall) = self.job(&spec(self.seed, op, &self.sizes), checks);
            let outcome = out.map(|o| (o.records.len() as u64, records_digest(&o.records)));
            Operation { wall, outcome }
        })
    }
}

impl PoseRescore {
    /// Runs one job into its own fresh directory (made before the clock
    /// starts) and checks it (after the clock); returns it with its wall.
    fn job(&self, spec: &JobSpec, checks: &mut Checks) -> (Result<JobOutput, String>, Duration) {
        let dir = match self.scratch.subdir(&format!("job{}", spec.job_id)) {
            Ok(dir) => dir,
            Err(e) => return (Err(format!("job directory: {e}")), Duration::ZERO),
        };
        let cfg = job_config(dir.clone(), self.lanes, &self.sizes);
        let source = SyntheticPoseSource { poses_per_compound: self.sizes.poses };
        let t = Instant::now();
        let out = self.pool.install(|| run_job(&cfg, spec, &self.factory, &source));
        let wall = t.elapsed();
        if let Ok(out) = &out {
            self.check_job(checks, spec.job_id, out, &dir);
        }
        (out.map_err(|e| e.to_string()), wall)
    }
}

/// What the traced pass of this workload measured besides its spans.
pub struct Traced {
    pub entry_serial_s: f64,
    pub decomposed_s: f64,
    /// The `JobTiming` phases `run_job` itself reports, microseconds.
    pub startup_us: f64,
    pub evaluate_us: f64,
    pub output_us: f64,
    /// One-lane `run_job` wall minus the featurize + forward pieces timed
    /// on the same poses in the decomposed pass: pocket, pose source, rank
    /// threads, allgather, rank files.
    pub overhead_us: f64,
    /// Exact, from the `tensor.gemm.*` counters of one traced job.
    pub gemm_macs_per_pose: f64,
    pub gemm_calls_per_pose: f64,
}

/// Rounds of (one-lane job, decomposed pass) behind `hts.job.overhead_us`.
const OVERHEAD_ROUNDS: usize = 3;

/// Traced pass over one operation.
pub fn trace(rec: &mut Recorder, seed: u64, op: u64, lanes: usize) -> Result<Traced, String> {
    let sizes = PoseRescore::FROZEN;
    let this = PoseRescore::build(seed, lanes, &sizes)?;
    let spec = spec(seed, op, &sizes);
    let source = SyntheticPoseSource { poses_per_compound: sizes.poses };
    let poses = (sizes.compounds as usize * sizes.poses) as u64;
    let job = |tag: &str, lanes: usize| -> Result<JobOutput, String> {
        let dir = this.scratch.subdir(&format!("trace-{tag}")).map_err(|e| e.to_string())?;
        let cfg = job_config(dir, lanes, &sizes);
        Pool::new(lanes)
            .install(|| run_job(&cfg, &spec, &this.factory, &source))
            .map_err(|e| e.to_string())
    };

    let entry = rec.span("entry.pose_rescore", op, |rec| {
        rec.call("hts.run_job", op, poses, || job("entry", lanes))
    })?;

    // One job with the workspace's own tracing on, for its exact counters.
    dftrace::reset();
    dftrace::set_enabled(true);
    let counted = job("counted", lanes);
    let counters = dftrace::snapshot();
    dftrace::set_enabled(false);
    counted?;

    let t = Instant::now();
    let entry_serial = job("serial", 1)?;
    let entry_serial_s = t.elapsed().as_secs_f64();

    let serial = Pool::new(1);
    let t = Instant::now();
    let (direct, graphs) = rec.span("decomposed.pose_rescore", op, |rec| {
        serial.install(|| decompose_job(rec, &this, &spec, &source))
    })?;
    let decomposed_s = t.elapsed().as_secs_f64();
    // Not part of the job: the SG-CNN head alone on the same graphs, the
    // degraded tier `dfserve` falls back to.
    rec.span("probe.sg_head", op, |rec| {
        let mut model = this.factory.model.clone();
        for batch in &graphs {
            rec.call("fusion.sg_head", op, batch.len() as u64, || {
                serial.install(|| {
                    score_batch_sg_head(
                        &mut model,
                        &this.factory.params,
                        &batch.iter().collect::<Vec<_>>(),
                    )
                })
            });
        }
    });
    if records_digest(&direct) != records_digest(&entry.records)
        || records_digest(&direct) != records_digest(&entry_serial.records)
    {
        return Err("pose_rescore: decomposed pass and entry point disagree".into());
    }

    // The overhead is a difference of two walls of about a second each, so
    // both are taken as the fastest of a few alternating rounds; one round
    // alone is off by more than the overhead whenever the host is shared.
    let pieces_ns = |rec: &Recorder| -> u64 {
        let totals = rec.totals_under("decomposed.pose_rescore");
        ["chem.materialize_full", "chem.voxelize", "chem.build_graph", "fusion.forward_b10"]
            .iter()
            .map(|name| totals.get(name).map_or(0, |t| t.self_ns))
            .sum()
    };
    let (mut quiet_entry_s, mut quiet_pieces_ns) = (entry_serial_s, pieces_ns(rec));
    for _ in 1..OVERHEAD_ROUNDS {
        let t = Instant::now();
        job("serial", 1)?;
        quiet_entry_s = quiet_entry_s.min(t.elapsed().as_secs_f64());
        let mut again = Recorder::new();
        again.span("decomposed.pose_rescore", op, |rec| {
            serial.install(|| decompose_job(rec, &this, &spec, &source))
        })?;
        quiet_pieces_ns = quiet_pieces_ns.min(pieces_ns(&again));
    }
    let timing = entry.timing;
    Ok(Traced {
        entry_serial_s,
        decomposed_s,
        startup_us: timing.startup.as_secs_f64() * 1e6,
        evaluate_us: timing.evaluate.as_secs_f64() * 1e6,
        output_us: timing.output.as_secs_f64() * 1e6,
        overhead_us: quiet_entry_s * 1e6 - quiet_pieces_ns as f64 / 1e3,
        gemm_macs_per_pose: counters.counter("tensor.gemm.macs") as f64 / poses as f64,
        gemm_calls_per_pose: counters.counter("tensor.gemm.calls") as f64 / poses as f64,
    })
}

/// The job, decomposed into the public calls `run_job` makes, serially:
/// pocket, then per compound materialize → poses → voxelize + build graph
/// per pose → one fusion forward over the compound's poses, then one
/// atomic rank file for all records. Returns the records and each
/// compound's graphs.
fn decompose_job(
    rec: &mut Recorder,
    this: &PoseRescore,
    spec: &JobSpec,
    source: &dyn PoseSource,
) -> Result<(Vec<ScoreRecord>, Vec<Vec<MolGraph>>), String> {
    let op = spec.job_id;
    let f = &this.factory;
    let mut all_graphs = Vec::new();
    let pocket = rec.call("chem.pocket_generate", op, 1, || {
        BindingPocket::generate(spec.target, spec.campaign_seed)
    });
    let mut model = f.model.clone();
    let mut records = Vec::new();
    for index in spec.first_compound..spec.first_compound + spec.num_compounds {
        let compound = rec.call("chem.materialize_full", op, 1, || {
            Compound::materialize(spec.library, index, spec.campaign_seed)
        });
        let seed = derive_seed(spec.campaign_seed, 0x9053 ^ index);
        let poses = rec.call("hts.pose_source", op, 1, || source.poses(&compound, &pocket, seed));
        let voxels: Vec<Tensor> = poses
            .iter()
            .map(|p| rec.call("chem.voxelize", op, 1, || voxelize(&f.voxel, p, &pocket)))
            .collect();
        let graphs: Vec<MolGraph> = poses
            .iter()
            .map(|p| rec.call("chem.build_graph", op, 1, || build_graph(&f.graph, p, &pocket)))
            .collect();
        let scores = rec.call("fusion.forward_b10", op, poses.len() as u64, || {
            score_batch_fusion(
                &mut model,
                &f.params,
                &voxels.iter().collect::<Vec<_>>(),
                &graphs.iter().collect::<Vec<_>>(),
            )
        });
        records.extend(scores.iter().enumerate().map(|(rank, &s)| ScoreRecord {
            compound: compound.id,
            target: spec.target,
            pose_rank: rank as u16,
            score: f64::from(s),
        }));
        all_graphs.push(graphs);
    }
    let dir = this.scratch.subdir("trace-decomposed").map_err(|e| e.to_string())?;
    rec.call("hts.h5lite.write", op, records.len() as u64, || {
        let mut w = H5Writer::create_atomic(dir.join("rank00.dfh5"))?;
        w.write_chunk("predictions", &records)?;
        w.finish()
    })
    .map_err(|e: H5Error| format!("rank file: {e:?}"))?;
    Ok((records, all_graphs))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes = Sizes { compounds: 3, poses: 2, batch: 56 };

    #[test]
    fn a_second_seed_gives_other_inputs_and_passes_every_check() {
        let mut digests = Vec::new();
        for seed in [11, 12, 11] {
            // `setup` also holds the warm-up job to direct scoring.
            let mut w = PoseRescore::setup(seed, 2, &SMALL).unwrap();
            let timed = w.run(2);
            assert!(timed.checks.problems.is_empty(), "{:?}", timed.checks.problems);
            assert_eq!((timed.attempted, timed.units(), timed.checks.failed_ops), (2, 12, 0));
            digests.push((w.warmup_digest(), timed.digest));
        }
        assert_eq!(digests[0], digests[2]);
        assert_ne!(digests[0].0, digests[1].0);
        assert_ne!(digests[0].1, digests[1].1);
    }
}
