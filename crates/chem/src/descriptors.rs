//! Molecular descriptors: the whole-molecule properties the screening
//! pipeline filters and analyses on (the paper's campaign fed predictions
//! into downstream "pharmacokinetic and safety" evaluation, §4.2 — these
//! are the standard descriptors such tooling consumes).

use crate::element::Element;
use crate::mol::{BondOrder, Molecule};
use serde::{Deserialize, Serialize};

/// A bundle of standard descriptors for one molecule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Descriptors {
    /// Molecular weight in Daltons.
    pub molecular_weight: f64,
    /// Non-hydrogen atom count.
    pub heavy_atoms: usize,
    /// Carbon atom count (the ZINC rules require ≥ 3).
    pub carbons: usize,
    /// Rotatable bonds under the Vina torsion convention.
    pub rotatable_bonds: usize,
    /// Rotatable bonds under the strict (amide-excluding) convention the
    /// ZINC druglike rules use; see
    /// [`Molecule::num_rotatable_bonds_strict`].
    pub rotatable_bonds_strict: usize,
    /// Heavy-atom bonds that are not strict rotors (ZINC caps these
    /// at 50).
    pub rigid_bonds: usize,
    /// Hydrogen-bond donors (heavy-atom convention).
    pub hbond_donors: usize,
    /// Hydrogen-bond acceptors.
    pub hbond_acceptors: usize,
    /// Crude cLogP-style lipophilicity.
    pub logp: f64,
    /// Topological polar surface area estimate (Å²): per-polar-atom
    /// contributions in the spirit of Ertl's TPSA.
    pub tpsa: f64,
    /// Number of independent rings (cyclomatic number of the bond graph).
    pub ring_count: usize,
    /// Fraction of sp³-like carbons (degree-4-capable carbons with only
    /// single bonds) — the Fsp3 medicinal-chemistry descriptor.
    pub fsp3: f64,
    /// Radius of gyration of the conformer (Å).
    pub radius_of_gyration: f64,
}

impl Descriptors {
    /// Computes every descriptor for a molecule.
    pub fn compute(mol: &Molecule) -> Descriptors {
        let graph = mol.graph_counts();
        Descriptors {
            molecular_weight: mol.molecular_weight(),
            heavy_atoms: mol.num_heavy_atoms(),
            carbons: mol.num_carbons(),
            rotatable_bonds: graph.rotatable_bonds,
            rotatable_bonds_strict: graph.rotatable_bonds_strict,
            rigid_bonds: mol.num_heavy_bonds().saturating_sub(graph.rotatable_bonds_strict),
            hbond_donors: mol.num_hbond_donors(),
            hbond_acceptors: mol.num_hbond_acceptors(),
            logp: mol.logp_estimate(),
            tpsa: tpsa_estimate(mol),
            ring_count: cyclomatic_number(mol, graph.components),
            fsp3: fsp3(mol),
            radius_of_gyration: mol.radius_of_gyration(),
        }
    }

    /// Lipinski-style rule-of-five violations (adapted to implicit-H
    /// molecules; see `Compound::is_drug_like` for the pipeline's gate).
    pub fn lipinski_violations(&self) -> usize {
        let mut v = 0;
        if self.molecular_weight > 500.0 {
            v += 1;
        }
        if self.logp > 5.0 {
            v += 1;
        }
        if self.hbond_donors > 5 {
            v += 1;
        }
        if self.hbond_acceptors > 10 {
            v += 1;
        }
        v
    }

    /// Veber's oral-bioavailability criteria: ≤10 rotatable bonds and
    /// TPSA ≤ 140 Å².
    pub fn passes_veber(&self) -> bool {
        self.rotatable_bonds <= 10 && self.tpsa <= 140.0
    }

    /// Non-carbon heavy atoms per carbon (the ZINC rules cap this
    /// at 2.0). Defined as `+∞` for carbon-free molecules so a max-bound
    /// rule rejects them rather than dividing by zero.
    pub fn hetero_carbon_ratio(&self) -> f64 {
        if self.carbons == 0 {
            f64::INFINITY
        } else {
            (self.heavy_atoms - self.carbons) as f64 / self.carbons as f64
        }
    }
}

/// Number of independent cycles: |E| - |V| + components (here 1, since
/// generated molecules are connected; disconnected inputs count per
/// component).
pub fn ring_count(mol: &Molecule) -> usize {
    cyclomatic_number(mol, mol.graph_counts().components)
}

fn cyclomatic_number(mol: &Molecule, components: usize) -> usize {
    (mol.bonds.len() + components).saturating_sub(mol.num_atoms())
}

/// TPSA-style polar surface area: fixed per-atom contributions for polar
/// atoms, modulated by bonding environment (double-bonded O contributes
/// like a carbonyl).
pub fn tpsa_estimate(mol: &Molecule) -> f64 {
    let mut total = 0.0;
    for (i, atom) in mol.atoms.iter().enumerate() {
        let has_double =
            mol.bonds.iter().any(|b| (b.a == i || b.b == i) && b.order == BondOrder::Double);
        total += match atom.element {
            Element::O => {
                if has_double {
                    17.1 // carbonyl-like
                } else {
                    20.2 // ether/hydroxyl-like
                }
            }
            Element::N => {
                if has_double {
                    12.4
                } else {
                    26.0 // amine-like (implicit Hs)
                }
            }
            Element::S => 25.3,
            Element::P => 13.6,
            _ => 0.0,
        };
    }
    total
}

/// Fraction of saturated carbons among all carbons.
pub fn fsp3(mol: &Molecule) -> f64 {
    let mut carbons = 0usize;
    let mut sp3 = 0usize;
    for (i, atom) in mol.atoms.iter().enumerate() {
        if atom.element != Element::C {
            continue;
        }
        carbons += 1;
        let saturated =
            mol.bonds.iter().filter(|b| b.a == i || b.b == i).all(|b| b.order == BondOrder::Single);
        if saturated {
            sp3 += 1;
        }
    }
    if carbons == 0 {
        0.0
    } else {
        sp3 as f64 / carbons as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genmol::{generate_molecule, MolGenConfig};
    use crate::geom::Vec3;
    use crate::mol::Atom;

    fn chain(n: usize) -> Molecule {
        let mut m = Molecule::new("chain");
        for i in 0..n {
            m.add_atom(Atom::new(Element::C, Vec3::new(i as f64 * 1.5, 0.0, 0.0)));
        }
        for i in 1..n {
            m.add_bond(i - 1, i, BondOrder::Single);
        }
        m
    }

    #[test]
    fn ring_count_basics() {
        assert_eq!(ring_count(&chain(5)), 0);
        let mut ring = chain(6);
        ring.add_bond(0, 5, BondOrder::Single);
        assert_eq!(ring_count(&ring), 1);
        // Fused bicyclic: add a chord.
        ring.add_bond(0, 3, BondOrder::Single);
        assert_eq!(ring_count(&ring), 2);
    }

    #[test]
    fn tpsa_counts_polar_atoms_only() {
        let m = chain(4);
        assert_eq!(tpsa_estimate(&m), 0.0);
        let mut polar = chain(3);
        let o = polar.add_atom(Atom::new(Element::O, Vec3::new(0.0, 1.3, 0.0)));
        polar.add_bond(0, o, BondOrder::Double);
        let carbonyl = tpsa_estimate(&polar);
        assert!((carbonyl - 17.1).abs() < 1e-9);
        // Single-bonded O contributes more (hydroxyl-like).
        let mut alcohol = chain(3);
        let o2 = alcohol.add_atom(Atom::new(Element::O, Vec3::new(0.0, 1.3, 0.0)));
        alcohol.add_bond(0, o2, BondOrder::Single);
        assert!(tpsa_estimate(&alcohol) > carbonyl);
    }

    #[test]
    fn fsp3_distinguishes_saturation() {
        let m = chain(4);
        assert_eq!(fsp3(&m), 1.0);
        let mut unsat = chain(4);
        unsat.bonds[0].order = BondOrder::Double;
        assert_eq!(fsp3(&unsat), 0.5, "two of four carbons touch the double bond");
    }

    #[test]
    fn descriptor_bundle_is_consistent_with_molecule_methods() {
        let m = generate_molecule(&MolGenConfig::default(), "m", 13);
        let d = Descriptors::compute(&m);
        assert_eq!(d.heavy_atoms, m.num_heavy_atoms());
        assert_eq!(d.rotatable_bonds, m.num_rotatable_bonds());
        assert!((d.molecular_weight - m.molecular_weight()).abs() < 1e-9);
        assert!(d.tpsa >= 0.0);
        assert!((0.0..=1.0).contains(&d.fsp3));
    }

    #[test]
    fn lipinski_and_veber_gates() {
        let d = Descriptors {
            molecular_weight: 650.0,
            heavy_atoms: 40,
            carbons: 30,
            rotatable_bonds: 12,
            rotatable_bonds_strict: 11,
            rigid_bonds: 30,
            hbond_donors: 6,
            hbond_acceptors: 11,
            logp: 5.5,
            tpsa: 150.0,
            ring_count: 3,
            fsp3: 0.4,
            radius_of_gyration: 5.0,
        };
        assert_eq!(d.lipinski_violations(), 4);
        assert!(!d.passes_veber());
        let ok = Descriptors {
            molecular_weight: 350.0,
            rotatable_bonds: 5,
            hbond_donors: 2,
            hbond_acceptors: 5,
            logp: 2.5,
            tpsa: 80.0,
            ..d
        };
        assert_eq!(ok.lipinski_violations(), 0);
        assert!(ok.passes_veber());
    }

    #[test]
    fn zero_heavy_atom_molecules_have_defined_descriptors() {
        // An empty molecule and an all-hydrogen molecule are pathological
        // inputs the filter engine must reject, not crash on.
        for m in [Molecule::new("void"), {
            let mut h2 = Molecule::new("h2");
            let a = h2.add_atom(Atom::new(Element::H, Vec3::ZERO));
            let b = h2.add_atom(Atom::new(Element::H, Vec3::new(0.7, 0.0, 0.0)));
            h2.add_bond(a, b, BondOrder::Single);
            h2
        }] {
            let d = Descriptors::compute(&m);
            assert_eq!(d.heavy_atoms, 0);
            assert_eq!(d.carbons, 0);
            assert_eq!(d.rotatable_bonds, 0);
            assert_eq!(d.rigid_bonds, 0);
            assert_eq!(d.fsp3, 0.0);
            assert!(d.hetero_carbon_ratio().is_infinite(), "carbon-free ratio is +inf");
        }
    }

    #[test]
    fn disconnected_fragments_accumulate_descriptors() {
        // A two-fragment input (e.g. a salt pair): ring count, rotors and
        // rigid bonds accumulate per component, no panics.
        let mut m = chain(6);
        m.add_bond(0, 5, BondOrder::Single); // ring fragment
        let base = m.num_atoms();
        for i in 0..4 {
            m.add_atom(Atom::new(Element::C, Vec3::new(i as f64 * 1.5, 20.0, 0.0)));
        }
        for i in 1..4 {
            m.add_bond(base + i - 1, base + i, BondOrder::Single);
        }
        assert!(!m.is_connected());
        let d = Descriptors::compute(&m);
        assert_eq!(d.ring_count, 1);
        assert_eq!(d.rotatable_bonds, 1, "one rotor in the chain fragment");
        assert_eq!(d.rigid_bonds, 8, "6 ring bonds + 2 terminal chain bonds");
        assert_eq!(d.heavy_atoms, 10);
    }

    #[test]
    fn strict_rotors_never_exceed_vina_rotors() {
        for seed in 0..25 {
            let m = generate_molecule(&MolGenConfig::default(), "m", seed);
            let d = Descriptors::compute(&m);
            assert!(d.rotatable_bonds_strict <= d.rotatable_bonds, "seed {seed}");
            assert_eq!(d.rigid_bonds + d.rotatable_bonds_strict, m.num_heavy_bonds());
        }
    }

    #[test]
    fn generated_libraries_have_reasonable_descriptor_ranges() {
        for seed in 0..15 {
            let m = generate_molecule(&MolGenConfig::default(), "m", seed);
            let d = Descriptors::compute(&m);
            assert!(d.molecular_weight > 50.0 && d.molecular_weight < 800.0);
            assert!(d.radius_of_gyration > 1.0 && d.radius_of_gyration < 12.0);
            assert!(d.ring_count <= 8);
        }
    }
}
