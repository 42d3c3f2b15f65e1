//! Batched-vs-sequential equivalence for fusion inference.
//!
//! The serving path amortizes cost by stacking micro-batches into one
//! forward pass per layer. That optimization must be invisible in the
//! output: every comparison here is `to_bits()` equality, because the
//! batched lowering folds each sample's accumulators in exactly the same
//! order as a single-sample forward (batch rows only add GEMM rows; they
//! never enter another row's fold). The conv3d forward also skips the taps
//! that read empty voxels, so its bits are checked against the dense
//! reference on real voxel grids of every target.

use dfchem::featurize::{build_graph, voxelize, GraphConfig, MolGraph, VoxelConfig};
use dfchem::genmol::{generate_molecule, Compound, CompoundId, Library, MolGenConfig};
use dfchem::pocket::{BindingPocket, TargetSite};
use dffusion::workflow::WorkflowConfig;
use dffusion::{
    score_batch_fusion, Cnn3dConfig, FusionConfig, FusionKind, FusionModel, SgCnnConfig,
};
use dfhts::{PoseSource, SyntheticPoseSource};
use dfserve::{ScoreRequest, ScoreService, ServeConfig, SubmitOutcome};
use dftensor::ops::{conv3d_forward, reference};
use dftensor::params::ParamStore;
use dftensor::rng::rng;
use dftensor::Tensor;

fn tiny_model() -> (FusionModel, ParamStore, VoxelConfig) {
    let voxel = VoxelConfig { grid_dim: 8, resolution: 2.0 };
    let sg = SgCnnConfig {
        covalent_gather_width: 6,
        noncovalent_gather_width: 8,
        covalent_k: 1,
        noncovalent_k: 1,
        ..SgCnnConfig::table2()
    };
    let cnn = Cnn3dConfig {
        conv_filters_1: 4,
        conv_filters_2: 6,
        num_dense_nodes: 8,
        ..Cnn3dConfig::table3()
    };
    let cfg = FusionConfig { num_dense_nodes: 8, ..FusionConfig::small(FusionKind::Coherent) };
    let mut ps = ParamStore::new();
    let m = FusionModel::new(&cfg, &sg, &cnn, &voxel, &mut ps, 17);
    (m, ps, voxel)
}

fn featurized(n: usize, voxel: &VoxelConfig) -> (Vec<Tensor>, Vec<MolGraph>) {
    let pocket = BindingPocket::generate(TargetSite::Spike1, 3);
    let mut voxels = Vec::new();
    let mut graphs = Vec::new();
    for i in 0..n {
        let mut lig = generate_molecule(
            &MolGenConfig { min_heavy: 6, max_heavy: 9, ..Default::default() },
            "m",
            i as u64,
        );
        let c = lig.centroid();
        lig.translate(c.scale(-1.0));
        voxels.push(voxelize(voxel, &lig, &pocket));
        graphs.push(build_graph(&GraphConfig::default(), &lig, &pocket));
    }
    (voxels, graphs)
}

/// Every batch size from 1 up to one past the serving default (max_batch=4,
/// so 5 exercises a ragged tail) yields, per sample, the same bits as a
/// one-sample forward of that compound alone.
#[test]
fn batched_scores_are_bit_identical_to_singles_for_all_batch_sizes() {
    let (mut m, ps, voxel) = tiny_model();
    let (voxels, graphs) = featurized(5, &voxel);
    let singles: Vec<f32> =
        (0..5).map(|i| score_batch_fusion(&mut m, &ps, &[&voxels[i]], &[&graphs[i]])[0]).collect();
    for size in 1..=5usize {
        let vrefs: Vec<&Tensor> = voxels[..size].iter().collect();
        let grefs: Vec<&MolGraph> = graphs[..size].iter().collect();
        let batched = score_batch_fusion(&mut m, &ps, &vrefs, &grefs);
        assert_eq!(batched.len(), size);
        for (i, (&b, &s)) in batched.iter().zip(&singles[..size]).enumerate() {
            assert_eq!(
                b.to_bits(),
                s.to_bits(),
                "batch size {size} sample {i}: batched {b} vs single {s}"
            );
        }
    }
}

/// A sample's score does not depend on which other compounds share its
/// micro-batch: reversing the batch only reverses the output order.
#[test]
fn batch_composition_does_not_leak_between_samples() {
    let (mut m, ps, voxel) = tiny_model();
    let (voxels, graphs) = featurized(4, &voxel);
    let fwd: Vec<&Tensor> = voxels.iter().collect();
    let gfwd: Vec<&MolGraph> = graphs.iter().collect();
    let rev: Vec<&Tensor> = voxels.iter().rev().collect();
    let grev: Vec<&MolGraph> = graphs.iter().rev().collect();
    let a = score_batch_fusion(&mut m, &ps, &fwd, &gfwd);
    let b = score_batch_fusion(&mut m, &ps, &rev, &grev);
    let rebits: Vec<u32> = b.iter().rev().map(|v| v.to_bits()).collect();
    let abits: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
    assert_eq!(abits, rebits);
}

fn request(i: u64) -> ScoreRequest {
    ScoreRequest {
        id: i,
        compound: CompoundId { library: Library::ALL[(i % 4) as usize], index: i },
        target: TargetSite::ALL[(i % 4) as usize],
    }
}

/// Drives two services over the same request stream — one forced to
/// single-item batches, one batching up to 4 — and checks the scores are
/// bit-identical per request while the batched service provably coalesced.
#[test]
fn service_micro_batches_score_identically_to_sequential_service() {
    let run = |max_batch: usize| {
        let mut cfg = ServeConfig::tiny(90);
        cfg.batcher.max_batch = max_batch;
        let mut svc = ScoreService::with_fresh_registry(cfg);
        // Submit everything up front so the batcher actually has a queue
        // to coalesce, then drain to completion.
        let mut responses = Vec::new();
        for i in 0..10u64 {
            match svc.submit(i + 1, request(i)) {
                SubmitOutcome::Completed(r) => responses.push(r),
                SubmitOutcome::Enqueued(_) => {}
                SubmitOutcome::Shed { .. } => panic!("tiny load must not shed"),
            }
        }
        responses.extend(svc.flush(1_000_000));
        let stats = svc.stats();
        let mut scores: Vec<(u64, u32)> =
            responses.iter().map(|r| (r.request_id, r.score.to_bits())).collect();
        scores.sort_unstable();
        (scores, stats)
    };
    let (seq_scores, seq_stats) = run(1);
    let (bat_scores, bat_stats) = run(4);
    assert_eq!(seq_scores.len(), 10);
    assert_eq!(
        seq_scores, bat_scores,
        "micro-batched service must reproduce sequential scores bit-for-bit"
    );
    assert!(
        bat_stats.batches < seq_stats.batches,
        "batched service must coalesce: {} vs {} batches",
        bat_stats.batches,
        seq_stats.batches
    );
}

/// conv1 of the `WorkflowConfig::small` model (5³ kernel, pad 2) over the
/// voxel grids of synthetic poses in each of the four targets' pockets:
/// the forward, which folds only the taps that read an occupied voxel,
/// returns the dense reference's bits.
#[test]
fn conv1_forward_on_voxelized_poses_matches_the_reference_for_every_target() {
    let voxel = WorkflowConfig::small(0).voxel;
    let w = Tensor::randn(&[8, VoxelConfig::NUM_CHANNELS, 5, 5, 5], &mut rng(5));
    let mut shape = vec![2];
    shape.extend(voxel.shape());
    for (i, target) in TargetSite::ALL.into_iter().enumerate() {
        let pocket = BindingPocket::generate(target, 3);
        let compound = Compound::materialize(Library::Chembl, i as u64, 3);
        let poses = SyntheticPoseSource { poses_per_compound: 2 }.poses(&compound, &pocket, 9);
        let grids = poses.iter().flat_map(|p| voxelize(&voxel, p, &pocket).into_vec()).collect();
        let x = Tensor::from_vec(grids, &shape);
        assert!(x.data().iter().any(|&v| v != 0.0), "{target:?}: empty grids test nothing");
        let got: Vec<u32> = conv3d_forward(&x, &w, 2).data().iter().map(|v| v.to_bits()).collect();
        let want = reference::conv3d_forward(&x, &w, 2);
        let want: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{target:?}");
    }
}
