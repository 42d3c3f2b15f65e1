//! AutoDock-Vina-style empirical scoring function.
//!
//! Re-implements the functional form of Trott & Olson 2010: two attractive
//! Gaussian steric terms, a quadratic repulsion, a piecewise-linear
//! hydrophobic term and a piecewise-linear hydrogen-bond term, all over the
//! *surface distance* (centre distance minus vdW radii), divided by a
//! rotor-count penalty. More negative is a stronger predicted binder, as in
//! Vina (kcal/mol-like units).

use dfchem::mol::Molecule;
use dfchem::pocket::BindingPocket;

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
    vina_score_with_rotors(ligand, pocket, ligand.num_rotatable_bonds())
}

/// [`vina_score`] with the ligand's rotatable-bond count supplied by the
/// caller: the rigid-body search scores hundreds of poses of one bond
/// graph, and the count (a bridge walk) depends on the graph alone.
pub(crate) fn vina_score_with_rotors(
    ligand: &Molecule,
    pocket: &BindingPocket,
    num_rotors: usize,
) -> VinaScore {
    let mut s = VinaScore { num_rotors, ..Default::default() };
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

#[cfg(test)]
mod tests {
    use super::*;
    use dfchem::element::Element;
    use dfchem::geom::Vec3;
    use dfchem::mol::Atom;
    use dfchem::pocket::TargetSite;

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
