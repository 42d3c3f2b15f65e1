//! Monte-Carlo pose search (the CDT3Docking stage).
//!
//! Mirrors Vina's search strategy at reduced scale: several independent
//! Monte-Carlo chains (the paper runs 8 per compound) propose rigid-body
//! translations/rotations with simulated-annealing acceptance; the best
//! poses across chains are deduplicated by RMSD and the top `num_poses`
//! (≤ 10, as in ConveyorLC) are returned, ranked by score.

use crate::vina::{VinaPocket, VinaScratch};
use dfchem::geom::{Rotation, Vec3};
use dfchem::mol::Molecule;
use dfchem::pocket::BindingPocket;
use dfchem::rmsd::rmsd;
use dftensor::rng::{derive_seed, normal_with, rng, uniform};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Docking search configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DockConfig {
    /// Independent Monte-Carlo chains (paper: 8 per compound).
    pub mc_restarts: usize,
    /// Steps per chain.
    pub mc_steps: usize,
    /// Maximum poses returned (ConveyorLC keeps up to 10).
    pub num_poses: usize,
    /// Minimum RMSD between two kept poses.
    pub pose_rmsd_dedup: f64,
    /// Starting Metropolis temperature (annealed to ~0 linearly).
    pub start_temperature: f64,
}

impl Default for DockConfig {
    fn default() -> Self {
        Self {
            mc_restarts: 8,
            mc_steps: 120,
            num_poses: 10,
            pose_rmsd_dedup: 1.0,
            start_temperature: 1.2,
        }
    }
}

/// One docked pose: the posed conformer and its Vina score.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pose {
    pub ligand: Molecule,
    /// Vina score (more negative = stronger).
    pub vina: f64,
    /// Rank among this compound's kept poses (0 = best).
    pub rank: usize,
}

/// Docks a ligand into a pocket, returning up to `num_poses` poses ordered
/// best-first. Deterministic given the seed.
pub fn dock(cfg: &DockConfig, ligand: &Molecule, pocket: &BindingPocket, seed: u64) -> Vec<Pose> {
    let _t = dftrace::span("dock.search");
    dftrace::counter_add("dock.compounds", 1);
    // Each chain owns an RNG derived from (seed, chain) and never touches
    // shared state, so the chains fan out over the current pool; collecting
    // by chain index keeps `candidates` bit-identical to the serial loop.
    let num_rotors = ligand.num_rotatable_bonds();
    let scorer = VinaPocket::new(pocket);
    let candidates: Vec<(Molecule, f64)> =
        dfpool::current().parallel_map(cfg.mc_restarts, 1, |chain| {
            run_chain(cfg, ligand, num_rotors, pocket, &scorer, seed, chain)
        });
    // Rank and deduplicate by RMSD.
    let mut candidates = candidates;
    candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut kept: Vec<Pose> = Vec::new();
    for (mol, score) in candidates {
        if kept.len() >= cfg.num_poses {
            break;
        }
        let dup = kept.iter().any(|k| rmsd(&k.ligand, &mol) < cfg.pose_rmsd_dedup);
        if !dup {
            kept.push(Pose { ligand: mol, vina: score, rank: kept.len() });
        }
    }
    kept
}

/// Runs one annealed Monte-Carlo chain and returns its best pose + score.
fn run_chain(
    cfg: &DockConfig,
    ligand: &Molecule,
    num_rotors: usize,
    pocket: &BindingPocket,
    scorer: &VinaPocket,
    seed: u64,
    chain: usize,
) -> (Molecule, f64) {
    // Chains run as pool jobs, so this span lands on the executing worker's
    // shard; steps/s = dock.mc.steps / the dock.mc_chain span total.
    let _t = dftrace::span("dock.mc_chain");
    let mut accepts: u64 = 0;
    let mut r = rng(derive_seed(seed, chain as u64));
    // Random initial placement inside the cavity.
    let mut pose = ligand.clone();
    let c = pose.centroid();
    pose.translate(c.scale(-1.0));
    pose.rotate_about_centroid(&random_rotation(&mut r));
    let jitter = Vec3::new(
        normal_with(&mut r, 0.0, pocket.radius * 0.25),
        normal_with(&mut r, 0.0, pocket.radius * 0.25),
        normal_with(&mut r, 0.0, pocket.radius * 0.25),
    );
    pose.translate(jitter);

    let mut scratch = VinaScratch::default();
    let mut best = pose.clone();
    let mut best_score = scorer.score(&best, num_rotors, &mut scratch).total;
    let mut cur = pose;
    let mut cur_score = best_score;
    for step in 0..cfg.mc_steps {
        let t = cfg.start_temperature * (1.0 - step as f64 / cfg.mc_steps as f64) + 1e-3;
        let mut next = cur.clone();
        // Rigid-body proposal.
        next.translate(Vec3::new(
            normal_with(&mut r, 0.0, 0.45),
            normal_with(&mut r, 0.0, 0.45),
            normal_with(&mut r, 0.0, 0.45),
        ));
        next.rotate_about_centroid(&Rotation::about_axis(
            random_axis(&mut r),
            normal_with(&mut r, 0.0, 0.30),
        ));
        // Keep the ligand inside the search box.
        if next.centroid().norm() > pocket.radius {
            continue;
        }
        let next_score = scorer.score(&next, num_rotors, &mut scratch).total;
        let accept =
            next_score < cur_score || r.gen::<f64>() < ((cur_score - next_score) / t).exp();
        if accept {
            accepts += 1;
            cur = next;
            cur_score = next_score;
            if cur_score < best_score {
                best = cur.clone();
                best_score = cur_score;
            }
        }
    }
    dftrace::counter_add("dock.mc.steps", cfg.mc_steps as u64);
    dftrace::counter_add("dock.mc.accepts", accepts);
    (best, best_score)
}

fn random_axis(r: &mut impl Rng) -> Vec3 {
    Vec3::new(normal_with(r, 0.0, 1.0), normal_with(r, 0.0, 1.0), normal_with(r, 0.0, 1.0))
        .normalized()
}

fn random_rotation(r: &mut impl Rng) -> Rotation {
    Rotation::about_axis(random_axis(r), uniform(r, 0.0, std::f64::consts::TAU))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vina::vina_score;
    use dfchem::genmol::{generate_molecule, MolGenConfig};
    use dfchem::pocket::TargetSite;

    fn small_cfg() -> DockConfig {
        DockConfig { mc_restarts: 4, mc_steps: 40, ..DockConfig::default() }
    }

    fn test_ligand(seed: u64) -> Molecule {
        generate_molecule(
            &MolGenConfig { min_heavy: 8, max_heavy: 14, ..MolGenConfig::default() },
            "lig",
            seed,
        )
    }

    #[test]
    fn docking_is_deterministic() {
        let lig = test_ligand(1);
        let pocket = BindingPocket::generate(TargetSite::Spike1, 1);
        let a = dock(&small_cfg(), &lig, &pocket, 99);
        let b = dock(&small_cfg(), &lig, &pocket, 99);
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.vina, pb.vina);
            assert_eq!(pa.ligand, pb.ligand);
        }
    }

    #[test]
    fn poses_are_ranked_best_first_and_deduplicated() {
        let lig = test_ligand(2);
        let pocket = BindingPocket::generate(TargetSite::Protease1, 2);
        let poses = dock(&small_cfg(), &lig, &pocket, 7);
        assert!(!poses.is_empty());
        assert!(poses.len() <= 10);
        for w in poses.windows(2) {
            assert!(w[0].vina <= w[1].vina, "poses must be sorted by score");
            assert!(rmsd(&w[0].ligand, &w[1].ligand) >= 1.0, "poses must be distinct");
        }
        for (i, p) in poses.iter().enumerate() {
            assert_eq!(p.rank, i);
        }
    }

    #[test]
    fn search_improves_over_random_placement() {
        let lig = test_ligand(3);
        let pocket = BindingPocket::generate(TargetSite::Protease1, 3);
        // Random placement baseline: centre the ligand, no optimization.
        let mut centred = lig.clone();
        let c = centred.centroid();
        centred.translate(c.scale(-1.0));
        let baseline = vina_score(&centred, &pocket).total;
        let best = dock(&small_cfg(), &lig, &pocket, 11)[0].vina;
        assert!(best < baseline, "MC search ({best:.3}) must beat baseline ({baseline:.3})");
    }

    #[test]
    fn poses_stay_inside_the_pocket() {
        let lig = test_ligand(4);
        let pocket = BindingPocket::generate(TargetSite::Spike2, 4);
        for p in dock(&small_cfg(), &lig, &pocket, 5) {
            assert!(p.ligand.centroid().norm() <= pocket.radius + 1e-9);
        }
    }

    #[test]
    fn internal_geometry_is_preserved() {
        // Rigid docking must not distort the conformer.
        let lig = test_ligand(5);
        let pocket = BindingPocket::generate(TargetSite::Spike1, 5);
        let poses = dock(&small_cfg(), &lig, &pocket, 3);
        let d_orig = lig.atoms[0].pos.dist(lig.atoms[1].pos);
        for p in &poses {
            let d = p.ligand.atoms[0].pos.dist(p.ligand.atoms[1].pos);
            assert!((d - d_orig).abs() < 1e-9);
        }
    }
}
