//! Flexible-ligand docking: torsion sampling around rotatable bonds.
//!
//! AutoDock Vina's search space is the ligand's rigid-body pose *plus* its
//! torsion angles (that is why its score carries a rotor penalty). The
//! base [`crate::search`] module samples rigid poses only; this module
//! adds the torsional degrees of freedom: rotatable bonds are detected
//! (single-order bridge bonds between non-terminal heavy atoms), each
//! proposal perturbs a random torsion by rotating the smaller side of the
//! molecule about the bond axis, and the Monte-Carlo loop anneals over the
//! joint space.

use crate::search::{DockConfig, Pose};
use crate::vina::{VinaPocket, VinaScratch};
use dfchem::geom::{Rotation, Vec3};
use dfchem::mol::Molecule;
use dfchem::pocket::BindingPocket;
use dfchem::rmsd::rmsd;
use dftensor::rng::{derive_seed, normal_with, rng, uniform};
use rand::Rng;

/// A rotatable bond with the atom set on its smaller side.
#[derive(Debug, Clone)]
pub struct Torsion {
    /// Bond endpoints (axis a → b).
    pub a: usize,
    pub b: usize,
    /// Atoms rotated when this torsion turns (the side containing `b`,
    /// excluding `b` itself is included — every atom downstream of the
    /// bond on `b`'s side).
    pub moving: Vec<usize>,
}

/// Finds the ligand's torsions: for every rotatable bond, the moving set
/// is the smaller connected component obtained by deleting the bond.
pub fn find_torsions(mol: &Molecule) -> Vec<Torsion> {
    let bridges = mol.bridge_bonds();
    let degrees = mol.degrees();
    let mut torsions = Vec::new();
    for (bi, bond) in mol.bonds.iter().enumerate() {
        let rotatable = bridges[bi]
            && bond.order == dfchem::mol::BondOrder::Single
            && degrees[bond.a] > 1
            && degrees[bond.b] > 1;
        if !rotatable {
            continue;
        }
        // Component containing `b` when the bond is removed.
        let side_b = component_without_bond(mol, bond.a, bond.b);
        let side_a: Vec<usize> = (0..mol.num_atoms()).filter(|i| !side_b.contains(i)).collect();
        let (a, b, moving) = if side_b.len() <= side_a.len() {
            (bond.a, bond.b, side_b)
        } else {
            (bond.b, bond.a, side_a)
        };
        torsions.push(Torsion { a, b, moving });
    }
    torsions
}

/// BFS from `from`, never crossing the (from, other) bond; returns the
/// reachable set (which contains `from`).
fn component_without_bond(mol: &Molecule, other: usize, from: usize) -> Vec<usize> {
    let adj = mol.adjacency();
    let mut seen = vec![false; mol.num_atoms()];
    seen[from] = true;
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if u == from && v == other {
                continue; // the deleted bond
            }
            if !seen[v] {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    (0..mol.num_atoms()).filter(|&i| seen[i]).collect()
}

/// Rotates a torsion's moving set by `angle` about the bond axis, in place.
pub fn apply_torsion(mol: &mut Molecule, torsion: &Torsion, angle: f64) {
    let pivot = mol.atoms[torsion.a].pos;
    let axis = mol.atoms[torsion.b].pos.sub(pivot).normalized();
    let rot = Rotation::about_axis(axis, angle);
    for &i in &torsion.moving {
        if i == torsion.a {
            continue; // the pivot end never moves
        }
        let rel = mol.atoms[i].pos.sub(pivot);
        mol.atoms[i].pos = rot.apply(rel).add(pivot);
    }
}

/// Internal steric self-clash penalty: flexible proposals can fold the
/// ligand onto itself, which the intermolecular Vina score cannot see.
fn self_clash(mol: &Molecule) -> f64 {
    let bonded: std::collections::HashSet<(usize, usize)> =
        mol.bonds.iter().map(|b| (b.a, b.b)).collect();
    let mut penalty = 0.0;
    for i in 0..mol.num_atoms() {
        for j in (i + 1)..mol.num_atoms() {
            if bonded.contains(&(i, j)) {
                continue;
            }
            let min_d =
                0.7 * (mol.atoms[i].element.vdw_radius() + mol.atoms[j].element.vdw_radius());
            let d = mol.atoms[i].pos.dist(mol.atoms[j].pos);
            if d < min_d {
                let overlap = min_d - d;
                penalty += overlap * overlap;
            }
        }
    }
    penalty
}

/// Flexible docking: Monte-Carlo over rigid pose + torsions.
///
/// Returns up to `cfg.num_poses` poses ranked by Vina score, like
/// [`crate::search::dock`] — the conformer may differ from the input.
pub fn dock_flexible(
    cfg: &DockConfig,
    ligand: &Molecule,
    pocket: &BindingPocket,
    seed: u64,
) -> Vec<Pose> {
    let torsions = find_torsions(ligand);
    let num_rotors = ligand.num_rotatable_bonds();
    let scorer = VinaPocket::new(pocket);
    let mut scratch = VinaScratch::default();
    let mut candidates: Vec<(Molecule, f64)> = Vec::with_capacity(cfg.mc_restarts);
    for chain in 0..cfg.mc_restarts {
        let mut r = rng(derive_seed(seed, 0xF1E ^ chain as u64));
        let mut cur = ligand.clone();
        let c = cur.centroid();
        cur.translate(c.scale(-1.0));
        cur.rotate_about_centroid(&Rotation::about_axis(
            random_axis(&mut r),
            uniform(&mut r, 0.0, std::f64::consts::TAU),
        ));
        let mut score_of =
            |m: &Molecule| scorer.score(m, num_rotors, &mut scratch).total + 0.3 * self_clash(m);
        let mut cur_score = score_of(&cur);
        let mut best = cur.clone();
        let mut best_score = cur_score;

        for step in 0..cfg.mc_steps {
            let t = cfg.start_temperature * (1.0 - step as f64 / cfg.mc_steps as f64) + 1e-3;
            let mut next = cur.clone();
            // Mixed proposal: 50% rigid, 50% torsional (when any exist).
            if torsions.is_empty() || r.gen::<bool>() {
                next.translate(Vec3::new(
                    normal_with(&mut r, 0.0, 0.45),
                    normal_with(&mut r, 0.0, 0.45),
                    normal_with(&mut r, 0.0, 0.45),
                ));
                next.rotate_about_centroid(&Rotation::about_axis(
                    random_axis(&mut r),
                    normal_with(&mut r, 0.0, 0.30),
                ));
            } else {
                let torsion = &torsions[r.gen_range(0..torsions.len())];
                apply_torsion(&mut next, torsion, normal_with(&mut r, 0.0, 0.6));
            }
            if next.centroid().norm() > pocket.radius {
                continue;
            }
            let next_score = score_of(&next);
            if next_score < cur_score || r.gen::<f64>() < ((cur_score - next_score) / t).exp() {
                cur = next;
                cur_score = next_score;
                if cur_score < best_score {
                    best = cur.clone();
                    best_score = cur_score;
                }
            }
        }
        // Report the pure intermolecular score for comparability.
        candidates.push((best.clone(), scorer.score(&best, num_rotors, &mut scratch).total));
    }

    candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut kept: Vec<Pose> = Vec::new();
    for (mol, score) in candidates {
        if kept.len() >= cfg.num_poses {
            break;
        }
        if !kept.iter().any(|k| rmsd(&k.ligand, &mol) < cfg.pose_rmsd_dedup) {
            kept.push(Pose { ligand: mol, vina: score, rank: kept.len() });
        }
    }
    kept
}

fn random_axis(r: &mut impl Rng) -> Vec3 {
    Vec3::new(normal_with(r, 0.0, 1.0), normal_with(r, 0.0, 1.0), normal_with(r, 0.0, 1.0))
        .normalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfchem::element::Element;
    use dfchem::genmol::{generate_molecule, MolGenConfig};
    use dfchem::mol::{Atom, BondOrder};
    use dfchem::pocket::TargetSite;

    fn butane_like() -> Molecule {
        let mut m = Molecule::new("butane");
        for i in 0..4 {
            m.add_atom(Atom::new(Element::C, Vec3::new(i as f64 * 1.5, 0.0, 0.0)));
        }
        for i in 1..4 {
            m.add_bond(i - 1, i, BondOrder::Single);
        }
        m
    }

    #[test]
    fn torsion_detection_matches_rotor_count() {
        let m = butane_like();
        let torsions = find_torsions(&m);
        assert_eq!(torsions.len(), m.num_rotatable_bonds());
        assert_eq!(torsions.len(), 1);
        // The moving side of the single torsion is the smaller half.
        assert!(torsions[0].moving.len() <= 2);
    }

    #[test]
    fn apply_torsion_preserves_bond_lengths() {
        let mut m = butane_like();
        let torsions = find_torsions(&m);
        let before: Vec<f64> =
            m.bonds.iter().map(|b| m.atoms[b.a].pos.dist(m.atoms[b.b].pos)).collect();
        apply_torsion(&mut m, &torsions[0], 1.2);
        let after: Vec<f64> =
            m.bonds.iter().map(|b| m.atoms[b.a].pos.dist(m.atoms[b.b].pos)).collect();
        for (x, y) in before.iter().zip(&after) {
            assert!((x - y).abs() < 1e-9, "bond length changed: {x} -> {y}");
        }
    }

    #[test]
    fn apply_torsion_moves_only_the_moving_side() {
        let mut m = butane_like();
        let torsions = find_torsions(&m);
        let t = torsions[0].clone();
        let orig = m.clone();
        apply_torsion(&mut m, &t, 0.9);
        for i in 0..m.num_atoms() {
            let moved = m.atoms[i].pos.dist(orig.atoms[i].pos) > 1e-9;
            let expected = t.moving.contains(&i) && i != t.a;
            // Atoms on the axis may be in `moving` but sit on the rotation
            // axis; only off-axis moving atoms must move.
            if moved {
                assert!(expected, "atom {i} moved but is not on the moving side");
            }
        }
    }

    #[test]
    fn flexible_docking_finds_poses_at_least_as_good_as_rigid() {
        let pocket = BindingPocket::generate(TargetSite::Spike1, 4);
        let lig = generate_molecule(
            &MolGenConfig { min_heavy: 10, max_heavy: 14, ..Default::default() },
            "m",
            4,
        );
        let rigid_cfg = DockConfig { mc_restarts: 3, mc_steps: 60, ..Default::default() };
        let rigid = crate::search::dock(&rigid_cfg, &lig, &pocket, 9)[0].vina;
        // The joint pose+torsion space is larger, so give the flexible
        // search a correspondingly larger budget (half its proposals are
        // torsional).
        let flex_cfg = DockConfig { mc_restarts: 3, mc_steps: 180, ..Default::default() };
        let flex = dock_flexible(&flex_cfg, &lig, &pocket, 9)[0].vina;
        assert!(
            flex < rigid + 0.5,
            "flexible ({flex:.3}) should be competitive with rigid ({rigid:.3})"
        );
    }

    #[test]
    fn flexible_docking_is_deterministic() {
        let pocket = BindingPocket::generate(TargetSite::Spike2, 5);
        let lig = generate_molecule(&MolGenConfig::default(), "m", 5);
        let cfg = DockConfig { mc_restarts: 2, mc_steps: 30, ..Default::default() };
        let a = dock_flexible(&cfg, &lig, &pocket, 3);
        let b = dock_flexible(&cfg, &lig, &pocket, 3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.vina, y.vina);
        }
    }

    #[test]
    fn self_clash_penalizes_folded_conformers() {
        let mut m = butane_like();
        assert_eq!(self_clash(&m), 0.0);
        // Fold atom 3 onto atom 0.
        m.atoms[3].pos = m.atoms[0].pos.add(Vec3::new(0.3, 0.0, 0.0));
        assert!(self_clash(&m) > 0.0);
    }

    #[test]
    fn rings_contribute_no_torsions() {
        let mut ring = Molecule::new("ring");
        for k in 0..6 {
            ring.add_atom(Atom::new(Element::C, Vec3::new(k as f64, 0.0, 0.0)));
        }
        for k in 1..6 {
            ring.add_bond(k - 1, k, BondOrder::Single);
        }
        ring.add_bond(0, 5, BondOrder::Single);
        assert!(find_torsions(&ring).is_empty());
    }
}
