//! Molecules: atoms, bonds, conformers and the descriptors the screening
//! pipeline filters on.

use crate::element::Element;
use crate::geom::{Rotation, Vec3};
use serde::{Deserialize, Serialize};

/// One atom of a molecule or pocket.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Atom {
    /// Chemical element.
    pub element: Element,
    /// Conformer position (Å).
    pub pos: Vec3,
    /// Gasteiger-lite partial charge in elementary-charge units.
    pub partial_charge: f64,
}

impl Atom {
    /// An uncharged atom of `element` at `pos`.
    pub fn new(element: Element, pos: Vec3) -> Self {
        Self { element, pos, partial_charge: 0.0 }
    }
}

/// Covalent bond order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BondOrder {
    /// Single bond.
    Single,
    /// Double bond.
    Double,
    /// Triple bond.
    Triple,
}

impl BondOrder {
    /// Valence units the bond consumes on each endpoint.
    pub fn valence(self) -> usize {
        match self {
            BondOrder::Single => 1,
            BondOrder::Double => 2,
            BondOrder::Triple => 3,
        }
    }
}

/// A covalent bond between atom indices `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bond {
    /// Lower endpoint atom index.
    pub a: usize,
    /// Higher endpoint atom index.
    pub b: usize,
    /// Covalent bond order.
    pub order: BondOrder,
}

/// A small molecule with one 3-D conformer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Molecule {
    /// Compound identifier (library:index for generated compounds).
    pub name: String,
    /// Atoms with one 3-D conformer.
    pub atoms: Vec<Atom>,
    /// Covalent bonds between atom indices.
    pub bonds: Vec<Bond>,
}

/// What one walk of the bond graph yields for the descriptors; see
/// [`Molecule::graph_counts`].
pub(crate) struct GraphCounts {
    /// [`Molecule::num_rotatable_bonds`].
    pub(crate) rotatable_bonds: usize,
    /// [`Molecule::num_rotatable_bonds_strict`].
    pub(crate) rotatable_bonds_strict: usize,
    /// Connected components of the bond graph.
    pub(crate) components: usize,
}

impl Molecule {
    /// Creates an empty named molecule.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), atoms: Vec::new(), bonds: Vec::new() }
    }

    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Number of non-hydrogen atoms.
    pub fn num_heavy_atoms(&self) -> usize {
        self.atoms.iter().filter(|a| a.element != Element::H).count()
    }

    /// Adds an atom, returning its index.
    pub fn add_atom(&mut self, atom: Atom) -> usize {
        self.atoms.push(atom);
        self.atoms.len() - 1
    }

    /// Adds a bond (indices are normalized so `a < b`); panics on
    /// out-of-range or self bonds.
    pub fn add_bond(&mut self, a: usize, b: usize, order: BondOrder) {
        assert!(a != b, "self-bond on atom {a}");
        assert!(a < self.atoms.len() && b < self.atoms.len(), "bond index out of range");
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        self.bonds.push(Bond { a, b, order });
    }

    /// Molecular weight in Daltons.
    pub fn molecular_weight(&self) -> f64 {
        self.atoms.iter().map(|a| a.element.mass()).sum()
    }

    /// Geometric centroid of all atoms.
    pub fn centroid(&self) -> Vec3 {
        if self.atoms.is_empty() {
            return Vec3::ZERO;
        }
        let mut c = Vec3::ZERO;
        for a in &self.atoms {
            c = c.add(a.pos);
        }
        c.scale(1.0 / self.atoms.len() as f64)
    }

    /// Radius of gyration (spread of the conformer).
    pub fn radius_of_gyration(&self) -> f64 {
        if self.atoms.is_empty() {
            return 0.0;
        }
        let c = self.centroid();
        let s: f64 = self.atoms.iter().map(|a| a.pos.dist2(c)).sum();
        (s / self.atoms.len() as f64).sqrt()
    }

    /// Translates every atom by `delta`.
    pub fn translate(&mut self, delta: Vec3) {
        for a in &mut self.atoms {
            a.pos = a.pos.add(delta);
        }
    }

    /// Rotates the conformer about its centroid.
    pub fn rotate_about_centroid(&mut self, rot: &Rotation) {
        let c = self.centroid();
        for a in &mut self.atoms {
            a.pos = rot.apply(a.pos.sub(c)).add(c);
        }
    }

    /// Per-atom degree (number of bonds touching each atom).
    pub fn degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.atoms.len()];
        for b in &self.bonds {
            d[b.a] += 1;
            d[b.b] += 1;
        }
        d
    }

    /// Valence units already consumed per atom.
    pub fn used_valence(&self) -> Vec<usize> {
        let mut v = vec![0usize; self.atoms.len()];
        for b in &self.bonds {
            v[b.a] += b.order.valence();
            v[b.b] += b.order.valence();
        }
        v
    }

    /// Adjacency list over bonds.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.atoms.len()];
        for b in &self.bonds {
            adj[b.a].push(b.b);
            adj[b.b].push(b.a);
        }
        adj
    }

    /// True when the bond graph is a single connected component.
    pub fn is_connected(&self) -> bool {
        if self.atoms.is_empty() {
            return true;
        }
        let adj = self.adjacency();
        let mut seen = vec![false; self.atoms.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(i) = stack.pop() {
            for &j in &adj[i] {
                if !seen[j] {
                    seen[j] = true;
                    count += 1;
                    stack.push(j);
                }
            }
        }
        count == self.atoms.len()
    }

    /// Marks which bonds are bridges (removal disconnects the graph), via
    /// Tarjan's low-link algorithm. Bonds inside rings are not bridges.
    pub fn bridge_bonds(&self) -> Vec<bool> {
        self.bridges_and_components().0
    }

    /// [`Molecule::bridge_bonds`] plus the number of connected components
    /// its depth-first walk started (one DFS root each).
    fn bridges_and_components(&self) -> (Vec<bool>, usize) {
        let n = self.atoms.len();
        let adj: Vec<Vec<(usize, usize)>> = {
            let mut a = vec![Vec::new(); n];
            for (bi, b) in self.bonds.iter().enumerate() {
                a[b.a].push((b.b, bi));
                a[b.b].push((b.a, bi));
            }
            a
        };
        let mut disc = vec![usize::MAX; n];
        let mut low = vec![usize::MAX; n];
        let mut is_bridge = vec![false; self.bonds.len()];
        let mut timer = 0usize;
        let mut components = 0usize;
        // Iterative DFS to avoid recursion limits on long chains.
        for start in 0..n {
            if disc[start] != usize::MAX {
                continue;
            }
            components += 1;
            // stack entries: (node, parent_edge, neighbor cursor)
            let mut stack: Vec<(usize, usize, usize)> = vec![(start, usize::MAX, 0)];
            disc[start] = timer;
            low[start] = timer;
            timer += 1;
            while let Some(&(u, pe, cursor)) = stack.last() {
                if cursor < adj[u].len() {
                    stack.last_mut().expect("non-empty").2 += 1;
                    let (v, ei) = adj[u][cursor];
                    if ei == pe {
                        continue;
                    }
                    if disc[v] == usize::MAX {
                        disc[v] = timer;
                        low[v] = timer;
                        timer += 1;
                        stack.push((v, ei, 0));
                    } else {
                        low[u] = low[u].min(disc[v]);
                    }
                } else {
                    stack.pop();
                    if let Some(&(p, _, _)) = stack.last() {
                        low[p] = low[p].min(low[u]);
                        if low[u] > disc[p] {
                            is_bridge[pe] = true;
                        }
                    }
                }
            }
        }
        (is_bridge, components)
    }

    /// Per-atom heavy degree: bonds to non-hydrogen neighbours only. For
    /// implicit-hydrogen molecules (the generator convention) this equals
    /// [`Molecule::degrees`]; with explicit hydrogens it is what terminal-
    /// atom tests must use (a methyl carbon bonded to three H atoms is
    /// still terminal).
    pub fn heavy_degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.atoms.len()];
        for b in &self.bonds {
            if self.atoms[b.a].element != Element::H && self.atoms[b.b].element != Element::H {
                d[b.a] += 1;
                d[b.b] += 1;
            }
        }
        d
    }

    /// Number of carbon atoms.
    pub fn num_carbons(&self) -> usize {
        self.atoms.iter().filter(|a| a.element == Element::C).count()
    }

    /// Number of bonds whose endpoints are both heavy atoms.
    pub fn num_heavy_bonds(&self) -> usize {
        self.bonds
            .iter()
            .filter(|b| {
                self.atoms[b.a].element != Element::H && self.atoms[b.b].element != Element::H
            })
            .count()
    }

    /// Rotatable bonds: single-order bridges whose endpoints are both
    /// non-terminal heavy atoms — the definition Vina's torsion-count
    /// penalty uses. Ring bonds are never rotatable (they are not
    /// bridges), which is how rings — aromatic or saturated — are
    /// perceived here: by cycle membership, not bond orders. Terminality
    /// uses the **heavy** degree, so explicit hydrogens cannot promote a
    /// terminal methyl into a rotor.
    pub fn num_rotatable_bonds(&self) -> usize {
        self.graph_counts().rotatable_bonds
    }

    /// Strict rotatable-bond count: [`Molecule::num_rotatable_bonds`]
    /// minus amide-like C–N single bonds (the carbon carries a
    /// double-bonded oxygen), matching the convention the ZINC druglike
    /// rules and RDKit's strict pattern use. Kept separate from the Vina
    /// definition so docking torsion penalties are unaffected.
    pub fn num_rotatable_bonds_strict(&self) -> usize {
        self.graph_counts().rotatable_bonds_strict
    }

    /// Both rotor conventions and the component count from one bridge walk
    /// and one heavy-degree pass, for callers that want more than one of
    /// them (`Descriptors::compute`).
    pub(crate) fn graph_counts(&self) -> GraphCounts {
        let (bridges, components) = self.bridges_and_components();
        let degrees = self.heavy_degrees();
        // Carbons that carry a double-bonded oxygen (carbonyl-like).
        let mut carbonyl_c = vec![false; self.atoms.len()];
        for b in &self.bonds {
            if b.order == BondOrder::Double {
                let (ea, eb) = (self.atoms[b.a].element, self.atoms[b.b].element);
                if ea == Element::C && eb == Element::O {
                    carbonyl_c[b.a] = true;
                }
                if eb == Element::C && ea == Element::O {
                    carbonyl_c[b.b] = true;
                }
            }
        }
        let amide_like = |a: usize, b: usize| {
            let (ea, eb) = (self.atoms[a].element, self.atoms[b].element);
            (ea == Element::C && carbonyl_c[a] && eb == Element::N)
                || (eb == Element::C && carbonyl_c[b] && ea == Element::N)
        };
        let mut counts = GraphCounts { rotatable_bonds: 0, rotatable_bonds_strict: 0, components };
        for (i, b) in self.bonds.iter().enumerate() {
            if bridges[i]
                && b.order == BondOrder::Single
                && degrees[b.a] > 1
                && degrees[b.b] > 1
                && self.atoms[b.a].element != Element::H
                && self.atoms[b.b].element != Element::H
            {
                counts.rotatable_bonds += 1;
                if !amide_like(b.a, b.b) {
                    counts.rotatable_bonds_strict += 1;
                }
            }
        }
        counts
    }

    /// Crude cLogP-style lipophilicity descriptor: hydrophobic atoms add,
    /// polar atoms subtract. Used by the drug-likeness filters and the
    /// assay simulator's solubility confounder.
    pub fn logp_estimate(&self) -> f64 {
        self.atoms
            .iter()
            .map(|a| match a.element {
                Element::C => 0.36,
                Element::S => 0.25,
                Element::F | Element::Cl | Element::Br | Element::I => 0.55,
                Element::N => -0.60,
                Element::O => -0.70,
                Element::P => -0.40,
                Element::H => 0.0,
            })
            .sum()
    }

    /// Count of hydrogen-bond donors (heavy-atom convention).
    pub fn num_hbond_donors(&self) -> usize {
        self.atoms.iter().filter(|a| a.element.is_hbond_donor()).count()
    }

    /// Count of hydrogen-bond acceptors.
    pub fn num_hbond_acceptors(&self) -> usize {
        self.atoms.iter().filter(|a| a.element.is_hbond_acceptor()).count()
    }

    /// Assigns Gasteiger-lite partial charges: each bond shifts charge from
    /// the less to the more electronegative endpoint proportionally to the
    /// electronegativity difference.
    pub fn assign_partial_charges(&mut self) {
        for a in &mut self.atoms {
            a.partial_charge = 0.0;
        }
        for b in &self.bonds {
            let ea = self.atoms[b.a].element.electronegativity();
            let eb = self.atoms[b.b].element.electronegativity();
            let shift = 0.08 * (eb - ea) * b.order.valence() as f64;
            self.atoms[b.a].partial_charge += shift;
            self.atoms[b.b].partial_charge -= shift;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn ring(n: usize) -> Molecule {
        let mut m = chain(n);
        m.add_bond(0, n - 1, BondOrder::Single);
        m
    }

    #[test]
    fn weight_and_centroid() {
        let m = chain(3);
        assert!((m.molecular_weight() - 3.0 * 12.011).abs() < 1e-9);
        assert!((m.centroid().x - 1.5).abs() < 1e-12);
    }

    #[test]
    fn translate_and_rotate_preserve_internal_geometry() {
        let mut m = chain(4);
        let d01 = m.atoms[0].pos.dist(m.atoms[1].pos);
        m.translate(Vec3::new(3.0, -2.0, 1.0));
        m.rotate_about_centroid(&Rotation::about_axis(Vec3::new(0.0, 1.0, 1.0), 0.7));
        assert!((m.atoms[0].pos.dist(m.atoms[1].pos) - d01).abs() < 1e-10);
    }

    #[test]
    fn chain_bonds_are_bridges_ring_bonds_are_not() {
        let c = chain(5);
        assert!(c.bridge_bonds().iter().all(|&b| b));
        let r = ring(6);
        assert!(r.bridge_bonds().iter().all(|&b| !b));
    }

    #[test]
    fn ring_with_tail_mixes_bridges() {
        let mut m = ring(5);
        let t = m.add_atom(Atom::new(Element::C, Vec3::new(10.0, 0.0, 0.0)));
        m.add_bond(0, t, BondOrder::Single);
        let bridges = m.bridge_bonds();
        assert!(bridges[m.bonds.len() - 1], "tail bond must be a bridge");
        assert_eq!(bridges.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn rotatable_bond_counting() {
        // Butane-like chain C-C-C-C: the middle bond is rotatable, the
        // terminal ones are not (degree-1 endpoints).
        let m = chain(4);
        assert_eq!(m.num_rotatable_bonds(), 1);
        // A pure ring has none.
        assert_eq!(ring(6).num_rotatable_bonds(), 0);
    }

    #[test]
    fn explicit_hydrogens_do_not_create_rotors() {
        // Ethane with explicit hydrogens: C(H3)-C(H3). Both carbons have
        // full degree 4 but heavy degree 1, so the C-C bond is terminal.
        let mut m = Molecule::new("ethane");
        let c0 = m.add_atom(Atom::new(Element::C, Vec3::ZERO));
        let c1 = m.add_atom(Atom::new(Element::C, Vec3::new(1.5, 0.0, 0.0)));
        m.add_bond(c0, c1, BondOrder::Single);
        for i in 0..3 {
            let h = m.add_atom(Atom::new(Element::H, Vec3::new(-0.5, i as f64, 0.0)));
            m.add_bond(c0, h, BondOrder::Single);
            let h = m.add_atom(Atom::new(Element::H, Vec3::new(2.0, i as f64, 0.0)));
            m.add_bond(c1, h, BondOrder::Single);
        }
        assert_eq!(m.degrees()[c0], 4);
        assert_eq!(m.heavy_degrees()[c0], 1);
        assert_eq!(m.num_rotatable_bonds(), 0, "terminal methyls are not rotors");
        assert_eq!(m.num_heavy_bonds(), 1);
    }

    #[test]
    fn aromatic_ring_bonds_are_not_rotatable() {
        // Benzene-like alternating ring with an ethyl tail:
        // ring perception is cycle membership, not bond order, so none of
        // the ring bonds count; the two tail bonds give one rotor.
        let mut m = chain(6);
        m.add_bond(0, 5, BondOrder::Single);
        for bi in [0usize, 2, 4] {
            m.bonds[bi].order = BondOrder::Double;
        }
        let t0 = m.add_atom(Atom::new(Element::C, Vec3::new(9.0, 0.0, 0.0)));
        m.add_bond(0, t0, BondOrder::Single);
        let t1 = m.add_atom(Atom::new(Element::C, Vec3::new(10.5, 0.0, 0.0)));
        m.add_bond(t0, t1, BondOrder::Single);
        assert_eq!(m.num_rotatable_bonds(), 1, "only the ring-to-ethyl bond rotates");
        assert_eq!(m.num_rotatable_bonds_strict(), 1);
    }

    #[test]
    fn amide_bonds_are_excluded_from_strict_rotors() {
        // CH3-C(=O)-N(H)-CH3 backbone (implicit H): the C-N bond next to
        // the carbonyl is a rotor under the Vina definition but not under
        // the strict (ZINC/RDKit) one.
        let mut m = Molecule::new("amide");
        let c0 = m.add_atom(Atom::new(Element::C, Vec3::new(0.0, 0.0, 0.0)));
        let c1 = m.add_atom(Atom::new(Element::C, Vec3::new(1.5, 0.0, 0.0)));
        let o = m.add_atom(Atom::new(Element::O, Vec3::new(1.5, 1.2, 0.0)));
        let n = m.add_atom(Atom::new(Element::N, Vec3::new(3.0, 0.0, 0.0)));
        let c2 = m.add_atom(Atom::new(Element::C, Vec3::new(4.5, 0.0, 0.0)));
        m.add_bond(c0, c1, BondOrder::Single);
        m.add_bond(c1, o, BondOrder::Double);
        m.add_bond(c1, n, BondOrder::Single);
        m.add_bond(n, c2, BondOrder::Single);
        assert_eq!(m.num_rotatable_bonds(), 1, "vina counts the amide C-N");
        assert_eq!(m.num_rotatable_bonds_strict(), 0, "strict excludes the amide C-N");
    }

    #[test]
    fn disconnected_fragments_count_rotors_per_fragment() {
        // Two butane fragments: one rotor each, bridges computed per
        // component.
        let mut m = chain(4);
        let base = m.num_atoms();
        for i in 0..4 {
            m.add_atom(Atom::new(Element::C, Vec3::new(i as f64 * 1.5, 10.0, 0.0)));
        }
        for i in 1..4 {
            m.add_bond(base + i - 1, base + i, BondOrder::Single);
        }
        assert!(!m.is_connected());
        assert_eq!(m.num_rotatable_bonds(), 2);
    }

    #[test]
    fn connectivity() {
        let mut m = chain(3);
        assert!(m.is_connected());
        m.add_atom(Atom::new(Element::O, Vec3::new(99.0, 0.0, 0.0)));
        assert!(!m.is_connected());
    }

    #[test]
    fn partial_charges_are_conservative_and_polar() {
        let mut m = Molecule::new("co");
        let c = m.add_atom(Atom::new(Element::C, Vec3::ZERO));
        let o = m.add_atom(Atom::new(Element::O, Vec3::new(1.4, 0.0, 0.0)));
        m.add_bond(c, o, BondOrder::Single);
        m.assign_partial_charges();
        let total: f64 = m.atoms.iter().map(|a| a.partial_charge).sum();
        assert!(total.abs() < 1e-12, "charge must be conserved");
        assert!(m.atoms[o].partial_charge < 0.0, "oxygen pulls charge");
        assert!(m.atoms[c].partial_charge > 0.0);
    }

    #[test]
    #[should_panic(expected = "self-bond")]
    fn self_bonds_rejected() {
        let mut m = chain(2);
        m.add_bond(1, 1, BondOrder::Single);
    }
}
