//! AutoDock-Vina-style empirical scoring function.
//!
//! Re-implements the functional form of Trott & Olson 2010: two attractive
//! Gaussian steric terms, a quadratic repulsion, a piecewise-linear
//! hydrophobic term and a piecewise-linear hydrogen-bond term, all over the
//! *surface distance* (centre distance minus vdW radii), divided by a
//! rotor-count penalty. More negative is a stronger predicted binder, as in
//! Vina (kcal/mol-like units).

use dfchem::element::Element;
use dfchem::mol::Molecule;
use dfchem::pocket::BindingPocket;
use dftensor::math::exp_inplace;

/// Interaction cutoff in Å (Vina's default grid reach).
pub const CUTOFF: f64 = 8.0;

/// Term weights from the Vina paper.
pub const W_GAUSS1: f64 = -0.035579;
pub const W_GAUSS2: f64 = -0.005156;
pub const W_REPULSION: f64 = 0.840245;
pub const W_HYDROPHOBIC: f64 = -0.035069;
pub const W_HBOND: f64 = -0.587439;
/// Rotor penalty weight in the 1/(1 + w·N_rot) normalization.
pub const W_ROT: f64 = 0.05846;

/// Per-term breakdown of a Vina score.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VinaScore {
    pub gauss1: f64,
    pub gauss2: f64,
    pub repulsion: f64,
    pub hydrophobic: f64,
    pub hbond: f64,
    /// Number of rotatable bonds used in the normalization.
    pub num_rotors: usize,
    /// Final weighted, rotor-normalized score (more negative = stronger).
    pub total: f64,
}

/// Scores one ligand pose against the pocket.
pub fn vina_score(ligand: &Molecule, pocket: &BindingPocket) -> VinaScore {
    VinaPocket::new(pocket).score(ligand, ligand.num_rotatable_bonds(), &mut VinaScratch::default())
}

/// The pocket side of the pair terms as struct-of-arrays, built once per
/// pocket and shared read-only by every pose scored against it.
pub(crate) struct VinaPocket {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    vdw: Vec<f64>,
    /// [`HYDROPHOBIC`] | [`DONOR`] | [`ACCEPTOR`] bits per atom.
    kind: Vec<u8>,
}

/// Bits of an atom's kind.
const HYDROPHOBIC: u8 = 1;
const DONOR: u8 = 2;
const ACCEPTOR: u8 = 4;

fn kind(e: Element) -> u8 {
    let bit = |on: bool, bit: u8| if on { bit } else { 0 };
    bit(e.is_hydrophobic(), HYDROPHOBIC)
        | bit(e.is_hbond_donor(), DONOR)
        | bit(e.is_hbond_acceptor(), ACCEPTOR)
}

/// Buffers one scorer reuses across calls, so a score allocates nothing
/// once they have grown to the largest pose it has seen.
#[derive(Default)]
pub(crate) struct VinaScratch {
    /// One ligand atom's centre distance to every pocket atom.
    dist: Vec<f64>,
    /// Every pair inside [`CUTOFF`], ligand-atom-major and in pocket order
    /// within an atom: its pocket atom and surface distance.
    pocket_atom: Vec<u32>,
    surface: Vec<f64>,
    /// Where each ligand atom's pairs end in `pocket_atom` / `surface`.
    atom_end: Vec<usize>,
    /// Both Gaussians' arguments, then values: `gauss1` for every kept
    /// pair, followed by `gauss2`.
    gauss: Vec<f64>,
}

impl VinaPocket {
    pub(crate) fn new(pocket: &BindingPocket) -> Self {
        let atoms = &pocket.atoms;
        Self {
            x: atoms.iter().map(|a| a.pos.x).collect(),
            y: atoms.iter().map(|a| a.pos.y).collect(),
            z: atoms.iter().map(|a| a.pos.z).collect(),
            vdw: atoms.iter().map(|a| a.element.vdw_radius()).collect(),
            kind: atoms.iter().map(|a| kind(a.element)).collect(),
        }
    }

    /// Scores `ligand` with its rotatable-bond count supplied by the
    /// caller: the rigid-body search scores hundreds of poses of one bond
    /// graph, and the count (a bridge walk) depends on the graph alone.
    ///
    /// Bit for bit the pairwise double loop over (ligand atom, pocket
    /// atom). Per ligand atom, the distances to every pocket atom are one
    /// pass, in `Vec3::dist`'s operation order, and the pairs with
    /// `!(d > CUTOFF)` are compacted in pocket order (a NaN distance stays
    /// in, as in the loop). Both Gaussians of every kept pair then run
    /// through one [`exp_inplace`], and the five sums fold sequentially in
    /// pair order. A term the loop skips is a selected +0.0: every term is
    /// ≥ +0.0 or NaN and every sum starts at +0.0, so adding it moves no
    /// bit.
    pub(crate) fn score(
        &self,
        ligand: &Molecule,
        num_rotors: usize,
        scratch: &mut VinaScratch,
    ) -> VinaScore {
        let n = self.x.len();
        let VinaScratch { dist, pocket_atom, surface, atom_end, gauss } = scratch;
        dist.resize(n, 0.0);
        pocket_atom.resize(n * ligand.atoms.len(), 0);
        surface.resize(n * ligand.atoms.len(), 0.0);
        atom_end.clear();
        // Slices, so the loops below keep their bounds in registers.
        let (dist, pocket_atom, all_surface) =
            (&mut dist[..], &mut pocket_atom[..], &mut surface[..]);
        let mut kept = 0;
        for la in &ligand.atoms {
            let p = la.pos;
            for (((d, &x), &y), &z) in dist.iter_mut().zip(&self.x).zip(&self.y).zip(&self.z) {
                let (dx, dy, dz) = (p.x - x, p.y - y, p.z - z);
                *d = (dx * dx + dy * dy + dz * dz).sqrt();
            }
            let radius = la.element.vdw_radius();
            // Branch-free: every pocket atom is written at `kept`, which
            // only advances past the pairs inside the cut-off.
            for (j, (&d, &vdw)) in dist.iter().zip(&self.vdw).enumerate() {
                pocket_atom[kept] = j as u32;
                // Surface distance.
                all_surface[kept] = d - (radius + vdw);
                // `!(d > CUTOFF)` rather than `d <= CUTOFF`: a NaN stays in.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let inside = !(d > CUTOFF);
                kept += usize::from(inside);
            }
            atom_end.push(kept);
        }

        let surface = &all_surface[..kept];
        gauss.clear();
        gauss.reserve(2 * kept);
        gauss.extend(surface.iter().map(|&ds| -(ds / 0.5).powi(2)));
        gauss.extend(surface.iter().map(|&ds| -((ds - 3.0) / 2.0).powi(2)));
        exp_inplace(gauss);
        let (gauss1, gauss2) = gauss.split_at(kept);

        let mut s = VinaScore { num_rotors, ..Default::default() };
        let mut start = 0;
        for (la, &end) in ligand.atoms.iter().zip(atom_end.iter()) {
            // The pocket kinds this atom scores each optional term with.
            let k = kind(la.element);
            let hydrophobic = k & HYDROPHOBIC;
            let hbond = if k & DONOR != 0 { ACCEPTOR } else { 0 }
                | if k & ACCEPTOR != 0 { DONOR } else { 0 };
            for i in start..end {
                let (ds, pk) = (surface[i], self.kind[pocket_atom[i] as usize]);
                s.gauss1 += gauss1[i];
                s.gauss2 += gauss2[i];
                s.repulsion += if ds < 0.0 { ds * ds } else { 0.0 };
                s.hydrophobic += if pk & hydrophobic != 0 { slope_step(ds, 0.5, 1.5) } else { 0.0 };
                s.hbond += if pk & hbond != 0 { slope_step(ds, -0.7, 0.0) } else { 0.0 };
            }
            start = end;
        }
        let raw = W_GAUSS1 * s.gauss1
            + W_GAUSS2 * s.gauss2
            + W_REPULSION * s.repulsion
            + W_HYDROPHOBIC * s.hydrophobic
            + W_HBOND * s.hbond;
        s.total = raw / (1.0 + W_ROT * s.num_rotors as f64);
        s
    }
}

/// Affinity-only entry point for the serving degradation ladder: the full
/// per-term breakdown is skipped in the response, only the rotor-normalized
/// total survives. The empirical score needs no featurization, no weights
/// and no batching, which is why it is the last scoring tier before
/// requests are shed outright.
pub fn vina_affinity(ligand: &Molecule, pocket: &BindingPocket) -> f64 {
    let _t = dftrace::span("dock.vina_affinity");
    vina_score(ligand, pocket).total
}

/// 1 below `lo`, 0 above `hi`, linear in between.
fn slope_step(x: f64, lo: f64, hi: f64) -> f64 {
    if x <= lo {
        1.0
    } else if x >= hi {
        0.0
    } else {
        (hi - x) / (hi - lo)
    }
}

/// The pairwise double loop [`VinaPocket::score`] replaced: the oracle it
/// must match bit for bit.
#[cfg(test)]
fn vina_score_reference(ligand: &Molecule, pocket: &BindingPocket) -> VinaScore {
    let mut s = VinaScore { num_rotors: ligand.num_rotatable_bonds(), ..Default::default() };
    for la in &ligand.atoms {
        for pa in &pocket.atoms {
            let d = la.pos.dist(pa.pos);
            if d > CUTOFF {
                continue;
            }
            // Surface distance.
            let ds = d - (la.element.vdw_radius() + pa.element.vdw_radius());
            s.gauss1 += (-(ds / 0.5).powi(2)).exp();
            s.gauss2 += (-((ds - 3.0) / 2.0).powi(2)).exp();
            if ds < 0.0 {
                s.repulsion += ds * ds;
            }
            if la.element.is_hydrophobic() && pa.element.is_hydrophobic() {
                s.hydrophobic += slope_step(ds, 0.5, 1.5);
            }
            let donor_acceptor = (la.element.is_hbond_donor() && pa.element.is_hbond_acceptor())
                || (la.element.is_hbond_acceptor() && pa.element.is_hbond_donor());
            if donor_acceptor {
                s.hbond += slope_step(ds, -0.7, 0.0);
            }
        }
    }
    let raw = W_GAUSS1 * s.gauss1
        + W_GAUSS2 * s.gauss2
        + W_REPULSION * s.repulsion
        + W_HYDROPHOBIC * s.hydrophobic
        + W_HBOND * s.hbond;
    s.total = raw / (1.0 + W_ROT * s.num_rotors as f64);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfchem::genmol::{generate_molecule, MolGenConfig};
    use dfchem::geom::{Rotation, Vec3};
    use dfchem::mol::Atom;
    use dfchem::pocket::TargetSite;
    use dftensor::math::body_paths;
    use dftensor::ops::microkernel::with_forced;
    use proptest::prelude::*;

    /// Scores `ligand` under every `exp` body this host can run and checks
    /// all five terms and the total against the reference loop, bit for bit.
    fn assert_matches_reference(ligand: &Molecule, pocket: &BindingPocket) {
        let want = vina_score_reference(ligand, pocket);
        let bits = |s: &VinaScore| {
            [s.gauss1, s.gauss2, s.repulsion, s.hydrophobic, s.hbond, s.total].map(f64::to_bits)
        };
        for path in body_paths() {
            let got = with_forced(path, || vina_score(ligand, pocket));
            assert_eq!(got.num_rotors, want.num_rotors);
            assert_eq!(bits(&got), bits(&want), "{}: {got:?} != {want:?}", path.label());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn soa_scorer_matches_the_pairwise_loop_on_random_poses(
            target in 0..4usize,
            pocket_seed in 0..1_000u64,
            ligand_seed in 0..1_000u64,
            dx in -4.0..4.0f64,
            dy in -4.0..4.0f64,
            dz in -4.0..4.0f64,
            angle in 0.0..std::f64::consts::TAU,
        ) {
            let pocket = BindingPocket::generate(TargetSite::ALL[target], pocket_seed);
            let mut ligand = generate_molecule(
                &MolGenConfig { min_heavy: 8, max_heavy: 30, ..MolGenConfig::default() },
                "lig",
                ligand_seed,
            );
            let c = ligand.centroid();
            ligand.translate(c.scale(-1.0));
            let axis = Vec3::new(1.0, 2.0, 3.0).normalized();
            ligand.rotate_about_centroid(&Rotation::about_axis(axis, angle));
            ligand.translate(Vec3::new(dx, dy, dz));
            assert_matches_reference(&ligand, &pocket);
        }
    }

    #[test]
    fn soa_scorer_matches_the_pairwise_loop_on_corners() {
        let (rc, ro) = (Element::C.vdw_radius(), Element::O.vdw_radius());
        // ds == 0 (C–C) and ds == 3 (C–O): the Gaussians' arguments are
        // -0.0, so `exp` takes its tiny-|x| branch.
        let (touch, ds3) = (2.0 * rc, 3.0 + (rc + ro));
        assert_eq!(touch - (rc + rc), 0.0);
        assert_eq!(ds3 - (rc + ro), 3.0);
        let above = f64::from_bits(CUTOFF.to_bits() + 1);
        let pocket = pocket_with(
            [CUTOFF, above, touch, 0.0]
                .iter()
                .map(|&x| Atom::new(Element::C, Vec3::new(x, 0.0, 0.0)))
                .chain([
                    Atom::new(Element::O, Vec3::new(0.0, 0.0, ds3)),
                    Atom::new(Element::N, Vec3::new(0.0, 1.0, 0.0)),
                ])
                .collect(),
        );
        assert_eq!(Vec3::ZERO.dist(Vec3::new(CUTOFF, 0.0, 0.0)), CUTOFF);
        assert_eq!(Vec3::ZERO.dist(Vec3::new(0.0, 0.0, ds3)), ds3);
        // One ligand atom at the origin (coincident with a pocket atom) sees
        // every corner; an O adds an H-bond pair.
        let mut ligand = probe(Element::C, Vec3::ZERO);
        ligand.add_atom(Atom::new(Element::O, Vec3::new(0.0, 2.5, 0.0)));
        assert_matches_reference(&ligand, &pocket);
        // A NaN coordinate keeps its pairs (NaN > CUTOFF is false) and
        // poisons every sum identically.
        ligand.atoms[1].pos.y = f64::NAN;
        let s = vina_score(&ligand, &pocket);
        assert!(s.total.is_nan());
        assert_matches_reference(&ligand, &pocket);
    }

    fn pocket_with(atoms: Vec<Atom>) -> BindingPocket {
        BindingPocket {
            target: TargetSite::Spike1,
            atoms,
            radius: 5.0,
            entrance: Vec3::new(0.0, 0.0, 1.0),
        }
    }

    fn probe(e: Element, pos: Vec3) -> Molecule {
        let mut m = Molecule::new("p");
        m.add_atom(Atom::new(e, pos));
        m
    }

    #[test]
    fn slope_step_shape() {
        assert_eq!(slope_step(-1.0, 0.5, 1.5), 1.0);
        assert_eq!(slope_step(2.0, 0.5, 1.5), 0.0);
        assert!((slope_step(1.0, 0.5, 1.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distant_atoms_score_zero() {
        let lig = probe(Element::C, Vec3::new(0.0, 0.0, 0.0));
        let pocket = pocket_with(vec![Atom::new(Element::C, Vec3::new(50.0, 0.0, 0.0))]);
        let s = vina_score(&lig, &pocket);
        assert_eq!(s.total, 0.0);
    }

    #[test]
    fn contact_at_vdw_surface_is_favourable() {
        // Two carbons touching at their vdW radii: gauss1 peaks, no
        // repulsion, hydrophobic bonus — total must be negative.
        let d = 2.0 * Element::C.vdw_radius();
        let lig = probe(Element::C, Vec3::ZERO);
        let pocket = pocket_with(vec![Atom::new(Element::C, Vec3::new(d, 0.0, 0.0))]);
        let s = vina_score(&lig, &pocket);
        assert!(s.repulsion == 0.0);
        assert!(s.hydrophobic > 0.9);
        assert!(s.total < 0.0, "favourable contact must score negative, got {}", s.total);
    }

    #[test]
    fn steric_clash_is_penalized() {
        let lig = probe(Element::C, Vec3::ZERO);
        let near = pocket_with(vec![Atom::new(Element::C, Vec3::new(1.0, 0.0, 0.0))]);
        let s = vina_score(&lig, &near);
        assert!(s.repulsion > 0.0);
        assert!(s.total > 0.0, "hard clash should be unfavourable, got {}", s.total);
    }

    #[test]
    fn hbond_pairs_score_better_than_apolar_at_contact() {
        let d = Element::O.vdw_radius() + Element::N.vdw_radius() - 0.4;
        let polar = vina_score(
            &probe(Element::O, Vec3::ZERO),
            &pocket_with(vec![Atom::new(Element::N, Vec3::new(d, 0.0, 0.0))]),
        );
        let apolar_d = 2.0 * Element::C.vdw_radius() - 0.4;
        let apolar = vina_score(
            &probe(Element::C, Vec3::ZERO),
            &pocket_with(vec![Atom::new(Element::C, Vec3::new(apolar_d, 0.0, 0.0))]),
        );
        assert!(polar.hbond > 0.5);
        assert!(polar.total < apolar.total, "H-bond should dominate hydrophobic contact");
    }

    #[test]
    fn rotor_penalty_shrinks_score_magnitude() {
        // Same interactions, one molecule with rotors: |score| decreases.
        let mut rigid = Molecule::new("rigid");
        rigid.add_atom(Atom::new(Element::C, Vec3::ZERO));
        let mut flexible = Molecule::new("flex");
        // A 4-carbon chain has one rotatable bond.
        for i in 0..4 {
            flexible.add_atom(Atom::new(Element::C, Vec3::new(i as f64 * 1.5, 10.0, 0.0)));
        }
        for i in 1..4 {
            flexible.add_bond(i - 1, i, dfchem::mol::BondOrder::Single);
        }
        // Put one additional probe atom of `flexible` at the contact point.
        flexible.atoms[0].pos = Vec3::ZERO;
        let d = 2.0 * Element::C.vdw_radius();
        let pocket = pocket_with(vec![Atom::new(Element::C, Vec3::new(d, 0.0, 0.0))]);
        let s_r = vina_score(&rigid, &pocket);
        let s_f = vina_score(&flexible, &pocket);
        assert_eq!(s_f.num_rotors, 1);
        assert!(s_f.total.abs() < s_r.total.abs());
    }
}
