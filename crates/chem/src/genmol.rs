//! Synthetic drug-like molecule generation.
//!
//! The paper screens >500 M compounds drawn from four public libraries
//! (ZINC "world-approved 2018", ChEMBL, eMolecules, Enamine's virtual
//! drug-like set). We cannot ship those libraries, so this module generates
//! molecules with the same *statistical* role: valence-correct bond graphs,
//! embedded 3-D conformers, Gasteiger-lite charges, and per-library
//! property distributions (size, heteroatom content, ring density). Every
//! compound is a pure function of `(library, index)`, so a "500-million
//! compound library" exists lazily without storage.

use crate::element::Element;
use crate::geom::Vec3;
use crate::mol::{Atom, BondOrder, Molecule};
use dftensor::rng::{derive_seed, normal_with, rng};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Tunables for the random molecule builder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MolGenConfig {
    /// Inclusive heavy-atom count range.
    pub min_heavy: usize,
    /// Inclusive heavy-atom count upper bound.
    pub max_heavy: usize,
    /// Probability a new atom is a heteroatom (N/O/S/P).
    pub hetero_frac: f64,
    /// Probability a new atom is a halogen (terminal).
    pub halogen_frac: f64,
    /// Probability of attempting each candidate ring closure.
    pub ring_closure_prob: f64,
    /// Probability of upgrading an eligible single bond to a double bond.
    pub double_bond_prob: f64,
    /// Probability of branching (attaching to a random earlier atom rather
    /// than the previous one).
    pub branch_prob: f64,
}

impl Default for MolGenConfig {
    fn default() -> Self {
        Self {
            min_heavy: 10,
            max_heavy: 34,
            hetero_frac: 0.24,
            halogen_frac: 0.04,
            ring_closure_prob: 0.35,
            double_bond_prob: 0.20,
            branch_prob: 0.35,
        }
    }
}

/// Samples a heavy-atom element according to the config fractions.
fn sample_element(cfg: &MolGenConfig, r: &mut StdRng) -> Element {
    let u: f64 = r.gen();
    if u < cfg.halogen_frac {
        *dftensor::rng::choose(r, &[Element::F, Element::Cl, Element::Br, Element::I])
    } else if u < cfg.halogen_frac + cfg.hetero_frac {
        // N and O dominate; S and P are rarer.
        let v: f64 = r.gen();
        if v < 0.42 {
            Element::N
        } else if v < 0.84 {
            Element::O
        } else if v < 0.95 {
            Element::S
        } else {
            Element::P
        }
    } else {
        Element::C
    }
}

/// Builds a random, valence-correct, connected molecule with an embedded
/// 3-D conformer. Deterministic given the seed.
pub fn generate_molecule(cfg: &MolGenConfig, name: impl Into<String>, seed: u64) -> Molecule {
    let mut m = generate_topology(cfg, name, seed);
    // 4. Relax the conformer and assign charges.
    relax_conformer(&mut m, 60);
    m.assign_partial_charges();
    m
}

/// Builds the same molecule as [`generate_molecule`] but stops after the
/// topology is fixed: no conformer relaxation, no partial charges.
///
/// The skipped steps consume no randomness and never alter the bond
/// graph, so the topology (atoms, bonds, orders, rings) is bit-identical
/// to the fully materialized molecule's — only coordinates and charges
/// differ. Consumers that read the unrelaxed conformer (the surrogate's
/// radius-of-gyration channel, the screen's survivor pass) use this
/// path, since conformer relaxation is O(atoms²·iterations) and more
/// than half of generation cost; consumers that read no coordinate at
/// all use [`generate_graph_only`].
pub fn generate_topology(cfg: &MolGenConfig, name: impl Into<String>, seed: u64) -> Molecule {
    generate_with(cfg, name.into(), seed, place_next_to)
}

/// Builds the bond graph of [`generate_topology`] — the same atoms'
/// elements, the same bonds in the same order — without placing a single
/// atom: every `pos` is [`Vec3::ZERO`].
///
/// # The stream contract
///
/// The generator draws from one `StdRng` for everything: atom count,
/// elements, attachment points, coordinates, ring closures, double bonds.
/// Two facts make skipping the coordinates safe:
///
/// * **A placement consumes a fixed number of words.** Placing one atom
///   draws one bond-length normal plus three normals for each of
///   `PLACEMENT_CANDIDATES` (12) directions, 37 normals in all, and a
///   Box–Muller normal is two `next_u64` words whatever its value: 74
///   words (`PLACEMENT_WORDS`), independent of the molecule.
/// * **Coordinates never feed back into topology.** No attachment, ring
///   closure or bond-order decision reads `pos`.
///
/// So the graph-only form advances the generator by `PLACEMENT_WORDS`
/// where the positional form would place an atom; every later draw sees
/// the identical stream and the bond graph is bit-equal. Use it wherever
/// nothing reads coordinates (rule filters, circular fingerprints,
/// routing keys); `radius_of_gyration` of the result is 0.
pub fn generate_graph_only(cfg: &MolGenConfig, name: impl Into<String>, seed: u64) -> Molecule {
    generate_with(cfg, name.into(), seed, skip_placement)
}

/// Widest atom the generator can build: no element bonds to more than
/// four neighbours (`Element::max_valence`, locked by a test).
const MAX_DEGREE: usize = 4;

/// Integer bookkeeping of the growing bond graph, updated as each bond is
/// added so no generation loop rebuilds valences or adjacency from
/// `Molecule::bonds`. Lives for one `generate_with` call.
struct BondGraph {
    /// Valence units each atom still has free.
    spare: Vec<usize>,
    /// Neighbour count per atom (`<= MAX_DEGREE`).
    degree: Vec<usize>,
    /// Neighbours per atom; the first `degree[i]` entries are live.
    neighbours: Vec<[usize; MAX_DEGREE]>,
    /// Graph distances left by the last [`BondGraph::measure_from`].
    dist: Vec<usize>,
    /// BFS scratch of [`BondGraph::measure_from`].
    queue: Vec<usize>,
}

impl BondGraph {
    fn with_capacity(n: usize) -> BondGraph {
        BondGraph {
            spare: Vec::with_capacity(n),
            degree: Vec::with_capacity(n),
            neighbours: Vec::with_capacity(n),
            dist: Vec::with_capacity(n),
            queue: Vec::with_capacity(n),
        }
    }

    fn add_atom(&mut self, elem: Element) {
        self.spare.push(elem.max_valence());
        self.degree.push(0);
        self.neighbours.push([0; MAX_DEGREE]);
    }

    /// Records a new single bond `a`–`b`.
    fn add_single_bond(&mut self, a: usize, b: usize) {
        for (u, v) in [(a, b), (b, a)] {
            self.spare[u] -= 1;
            self.neighbours[u][self.degree[u]] = v;
            self.degree[u] += 1;
        }
    }

    /// Fills `dist` with the graph distance from `from` to every atom
    /// within `max` bonds (`usize::MAX` beyond).
    fn measure_from(&mut self, from: usize, max: usize) {
        self.dist.clear();
        self.dist.resize(self.spare.len(), usize::MAX);
        self.dist[from] = 0;
        self.queue.clear();
        self.queue.push(from);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            if self.dist[u] == max {
                continue;
            }
            for &v in &self.neighbours[u][..self.degree[u]] {
                if self.dist[v] == usize::MAX {
                    self.dist[v] = self.dist[u] + 1;
                    self.queue.push(v);
                }
            }
        }
    }
}

/// The one generator body. `place` is called where a new atom needs
/// coordinates: [`place_next_to`] for the positional form,
/// [`skip_placement`] for the graph-only one.
fn generate_with(
    cfg: &MolGenConfig,
    name: String,
    seed: u64,
    place: impl Fn(&Molecule, usize, Element, &mut StdRng) -> Vec3,
) -> Molecule {
    let mut r = rng(seed);
    let n_heavy = r.gen_range(cfg.min_heavy..=cfg.max_heavy);
    let mut m = Molecule::new(name);
    m.atoms.reserve(n_heavy);
    m.bonds.reserve(n_heavy + n_heavy / 6);
    let mut g = BondGraph::with_capacity(n_heavy);
    // Attachment candidates while growing, ring partners afterwards.
    let mut picks: Vec<usize> = Vec::with_capacity(n_heavy);

    // 1. Grow a tree of heavy atoms.
    m.add_atom(Atom::new(Element::C, Vec3::ZERO));
    g.add_atom(Element::C);
    while m.num_atoms() < n_heavy {
        let elem = sample_element(cfg, &mut r);
        // Pick an attachment point with spare valence.
        picks.clear();
        picks.extend((0..m.num_atoms()).filter(|&i| g.spare[i] > 0));
        if picks.is_empty() {
            break; // fully saturated (tiny molecules only)
        }
        let parent = if r.gen::<f64>() < cfg.branch_prob || m.num_atoms() == 1 {
            picks[r.gen_range(0..picks.len())]
        } else {
            // Prefer extending from the most recent attachable atom to make
            // chain-like backbones.
            *picks.last().expect("non-empty")
        };
        let pos = place(&m, parent, elem, &mut r);
        let idx = m.add_atom(Atom::new(elem, pos));
        g.add_atom(elem);
        m.add_bond(parent, idx, BondOrder::Single);
        g.add_single_bond(parent, idx);
    }

    // 2. Ring closures between atoms `RING_CLOSURE_SPAN` bonds apart.
    close_rings(cfg, &mut m, &mut g, &mut picks, &mut r);

    // 3. Upgrade some eligible bonds to double bonds.
    add_double_bonds(cfg, &mut m, &mut g.spare, &mut r);
    m
}

/// Random directions [`place_next_to`] tries per atom.
const PLACEMENT_CANDIDATES: usize = 12;

/// `next_u64` words one placement draws: a bond-length normal plus three
/// normals per candidate direction, two words per Box–Muller normal.
const PLACEMENT_WORDS: usize = 2 * (1 + 3 * PLACEMENT_CANDIDATES);

/// Places a new atom bonded to `parent`, choosing among random directions
/// the one furthest from existing atoms.
fn place_next_to(m: &Molecule, parent: usize, elem: Element, r: &mut StdRng) -> Vec3 {
    let p = m.atoms[parent].pos;
    let bond_len = m.atoms[parent].element.covalent_radius()
        + elem.covalent_radius()
        + normal_with(r, 0.0, 0.02);
    let mut best = p.add(Vec3::new(bond_len, 0.0, 0.0));
    let mut best_score = f64::NEG_INFINITY;
    for _ in 0..PLACEMENT_CANDIDATES {
        let dir =
            Vec3::new(normal_with(r, 0.0, 1.0), normal_with(r, 0.0, 1.0), normal_with(r, 0.0, 1.0))
                .normalized();
        let cand = p.add(dir.scale(bond_len));
        let min_d = m
            .atoms
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != parent)
            .map(|(_, a)| a.pos.dist(cand))
            .fold(f64::INFINITY, f64::min);
        if min_d > best_score {
            best_score = min_d;
            best = cand;
        }
    }
    best
}

/// The graph-only stand-in for [`place_next_to`]: leaves `r` exactly where
/// a placement would and places nothing.
fn skip_placement(_m: &Molecule, _parent: usize, _elem: Element, r: &mut StdRng) -> Vec3 {
    for _ in 0..PLACEMENT_WORDS {
        r.next_u64();
    }
    Vec3::ZERO
}

/// Graph distances a ring closure may span: 4..=6 bonds closes 5- to
/// 7-membered rings.
const RING_CLOSURE_SPAN: std::ops::RangeInclusive<usize> = 4..=6;

fn close_rings(
    cfg: &MolGenConfig,
    m: &mut Molecule,
    g: &mut BondGraph,
    partners: &mut Vec<usize>,
    r: &mut StdRng,
) {
    let max_rings = (m.num_atoms() / 6).max(1);
    let mut rings = 0usize;
    for a in 0..m.num_atoms() {
        if rings >= max_rings {
            break;
        }
        if g.spare[a] == 0 || m.atoms[a].element.is_halogen() {
            continue;
        }
        g.measure_from(a, *RING_CLOSURE_SPAN.end());
        partners.clear();
        partners.extend((a + 1..m.num_atoms()).filter(|&b| {
            RING_CLOSURE_SPAN.contains(&g.dist[b])
                && g.spare[b] > 0
                && m.atoms[b].element != Element::H
                && !m.atoms[b].element.is_halogen()
        }));
        if partners.is_empty() || r.gen::<f64>() >= cfg.ring_closure_prob {
            continue;
        }
        let b = partners[r.gen_range(0..partners.len())];
        m.add_bond(a, b, BondOrder::Single);
        g.add_single_bond(a, b);
        rings += 1;
    }
}

fn add_double_bonds(cfg: &MolGenConfig, m: &mut Molecule, spare: &mut [usize], r: &mut StdRng) {
    for bond in &mut m.bonds {
        if r.gen::<f64>() >= cfg.double_bond_prob {
            continue;
        }
        if bond.order == BondOrder::Single && spare[bond.a] > 0 && spare[bond.b] > 0 {
            bond.order = BondOrder::Double;
            spare[bond.a] -= 1;
            spare[bond.b] -= 1;
        }
    }
}

/// Simple force-field relaxation: harmonic bonds plus soft steric
/// repulsion between non-bonded pairs.
///
/// Each iteration sums every force in one fixed order — the bond springs
/// in bond-list order, then the non-bonded pairs `(i, j)`, `i < j`, row by
/// row — and only then moves the atoms. A pair skips the steric term only
/// when a bond is stored as exactly `(i, j)`, so a bond stored high→low
/// does not exclude its pair. Both rules are kept for bit-identity with
/// every conformer generated before.
pub fn relax_conformer(m: &mut Molecule, iterations: usize) {
    let n = m.num_atoms();
    if n < 2 {
        return;
    }
    let mut bonded = vec![false; n * n];
    for b in &m.bonds {
        bonded[b.a * n + b.b] = true;
    }
    let ideal: Vec<f64> = m
        .bonds
        .iter()
        .map(|b| m.atoms[b.a].element.covalent_radius() + m.atoms[b.b].element.covalent_radius())
        .collect();
    let vdw: Vec<f64> = m.atoms.iter().map(|a| a.element.vdw_radius()).collect();
    let mut pos: Vec<Vec3> = m.atoms.iter().map(|a| a.pos).collect();
    let mut force = vec![Vec3::ZERO; n];
    let step = 0.12;
    for _ in 0..iterations {
        force.fill(Vec3::ZERO);
        // Bond springs.
        for (b, &ideal) in m.bonds.iter().zip(&ideal) {
            let d = pos[b.b].sub(pos[b.a]);
            let len = d.norm().max(1e-6);
            let f = d.scale((len - ideal) / len);
            force[b.a] = force[b.a].add(f);
            force[b.b] = force[b.b].sub(f);
        }
        // Steric repulsion for non-bonded pairs that clash.
        for i in 0..n {
            for j in (i + 1)..n {
                if bonded[i * n + j] {
                    continue;
                }
                let min_d = 0.8 * (vdw[i] + vdw[j]) * 0.5 + 1.0;
                let d = pos[j].sub(pos[i]);
                let len = d.norm().max(1e-6);
                if len < min_d {
                    let f = d.scale((min_d - len) / len * 0.5);
                    force[i] = force[i].sub(f);
                    force[j] = force[j].add(f);
                }
            }
        }
        for (p, f) in pos.iter_mut().zip(&force) {
            *p = p.add(f.scale(step));
        }
    }
    for (a, p) in m.atoms.iter_mut().zip(pos) {
        a.pos = p;
    }
}

/// The four public compound sources the campaign drew from (§4 of the
/// paper), with scaled-down nominal sizes for local experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Library {
    /// ZINC-derived FDA/world-approved drugs (small, curated set).
    ZincWorldApproved,
    /// ChEMBL bioactive compounds.
    Chembl,
    /// eMolecules purchasable compounds.
    EMolecules,
    /// Enamine synthetically-feasible virtual compounds (the bulk).
    EnamineVirtual,
}

impl Library {
    /// All four screening libraries.
    pub const ALL: [Library; 4] =
        [Library::ZincWorldApproved, Library::Chembl, Library::EMolecules, Library::EnamineVirtual];

    /// The real-world library size the paper quotes (compounds).
    pub fn nominal_size(self) -> u64 {
        match self {
            Library::ZincWorldApproved => 5_800,
            Library::Chembl => 1_500_000,
            Library::EMolecules => 18_000_000,
            Library::EnamineVirtual => 480_000_000,
        }
    }

    /// Short identifier used in compound names and output files.
    pub fn tag(self) -> &'static str {
        match self {
            Library::ZincWorldApproved => "zinc",
            Library::Chembl => "chembl",
            Library::EMolecules => "emol",
            Library::EnamineVirtual => "enamine",
        }
    }

    /// Per-library generator distributions: approved drugs are mid-sized
    /// and balanced, ChEMBL skews larger and more polar, eMolecules runs
    /// smaller with more halogens, Enamine's virtual set is simple and
    /// chain-like (synthetic feasibility).
    pub fn gen_config(self) -> MolGenConfig {
        match self {
            Library::ZincWorldApproved => MolGenConfig {
                min_heavy: 14,
                max_heavy: 36,
                hetero_frac: 0.28,
                halogen_frac: 0.03,
                ring_closure_prob: 0.45,
                double_bond_prob: 0.25,
                branch_prob: 0.40,
            },
            Library::Chembl => MolGenConfig {
                min_heavy: 16,
                max_heavy: 40,
                hetero_frac: 0.30,
                halogen_frac: 0.04,
                ring_closure_prob: 0.40,
                double_bond_prob: 0.22,
                branch_prob: 0.38,
            },
            Library::EMolecules => MolGenConfig {
                min_heavy: 9,
                max_heavy: 28,
                hetero_frac: 0.22,
                halogen_frac: 0.08,
                ring_closure_prob: 0.30,
                double_bond_prob: 0.18,
                branch_prob: 0.32,
            },
            Library::EnamineVirtual => MolGenConfig {
                min_heavy: 10,
                max_heavy: 26,
                hetero_frac: 0.20,
                halogen_frac: 0.05,
                ring_closure_prob: 0.22,
                double_bond_prob: 0.15,
                branch_prob: 0.28,
            },
        }
    }

    /// Seed stream offset so libraries never collide.
    fn stream(self) -> u64 {
        match self {
            Library::ZincWorldApproved => 0x10_0000_0000,
            Library::Chembl => 0x20_0000_0000,
            Library::EMolecules => 0x30_0000_0000,
            Library::EnamineVirtual => 0x40_0000_0000,
        }
    }
}

/// Stable identifier of a compound within a library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CompoundId {
    /// Source library.
    pub library: Library,
    /// Zero-based index within the library stream.
    pub index: u64,
}

impl std::fmt::Display for CompoundId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{:09}", self.library.tag(), self.index)
    }
}

/// A screenable compound: id plus generated structure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Compound {
    /// Stable identifier within the campaign.
    pub id: CompoundId,
    /// The materialized molecule with one conformer.
    pub mol: Molecule,
}

impl Compound {
    /// Builds compound `index` of `library` with `generate`, seeded from
    /// the campaign seed and the library's stream.
    fn build(
        library: Library,
        index: u64,
        campaign_seed: u64,
        generate: impl FnOnce(&MolGenConfig, String, u64) -> Molecule,
    ) -> Compound {
        let id = CompoundId { library, index };
        let seed = derive_seed(campaign_seed, library.stream() ^ index);
        Compound { id, mol: generate(&library.gen_config(), id.to_string(), seed) }
    }

    /// Deterministically materializes compound `index` of a library under a
    /// campaign seed.
    pub fn materialize(library: Library, index: u64, campaign_seed: u64) -> Compound {
        Compound::build(library, index, campaign_seed, generate_molecule)
    }

    /// Materializes the compound's topology only (see
    /// [`generate_topology`]): identical bond graph to
    /// [`Compound::materialize`], but with the unrelaxed conformer and no
    /// partial charges, at under half the cost. The only descriptor
    /// that differs is the geometric `radius_of_gyration`, which no filter
    /// rule or ligand score consumes (the surrogate featurizer does read
    /// it, from this form).
    pub fn materialize_topology(library: Library, index: u64, campaign_seed: u64) -> Compound {
        Compound::build(library, index, campaign_seed, generate_topology)
    }

    /// Materializes the compound's bond graph only (see
    /// [`generate_graph_only`]): name, elements and bonds bit-equal to
    /// [`Compound::materialize_topology`], every `pos` left at
    /// [`Vec3::ZERO`]. Cheaper again, because placing atoms is most of
    /// what topology generation costs; the right form for rule filters,
    /// circular fingerprints and routing keys, which read no coordinate.
    /// Anything that reads the conformer (`radius_of_gyration`,
    /// featurizers, docking) must use one of the positional forms.
    pub fn materialize_graph_only(library: Library, index: u64, campaign_seed: u64) -> Compound {
        Compound::build(library, index, campaign_seed, generate_graph_only)
    }

    /// The compound's LinNot (SMILES-like) structure string.
    pub fn linnot(&self) -> String {
        crate::linnot::write_linnot(&self.mol)
    }

    /// Lipinski-style drug-likeness check used by ligand preparation
    /// (CDT2Ligand) to drop pathological structures. Thresholds are adapted
    /// to implicit-hydrogen molecules, where every N/O counts as a
    /// potential donor (heavy-atom convention), so the donor/acceptor caps
    /// sit above the classical rule-of-five values.
    pub fn is_drug_like(&self) -> bool {
        self.mol.molecular_weight() <= 620.0
            && self.mol.logp_estimate() <= 7.0
            && self.mol.num_hbond_donors() <= 9
            && self.mol.num_hbond_acceptors() <= 14
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_molecule(&MolGenConfig::default(), "m", 42);
        let b = generate_molecule(&MolGenConfig::default(), "m", 42);
        assert_eq!(a, b);
        let c = generate_molecule(&MolGenConfig::default(), "m", 43);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_molecules_are_valid() {
        for seed in 0..40 {
            let m = generate_molecule(&MolGenConfig::default(), format!("m{seed}"), seed);
            assert!(m.is_connected(), "seed {seed} disconnected");
            let used = m.used_valence();
            for (i, a) in m.atoms.iter().enumerate() {
                assert!(
                    used[i] <= a.element.max_valence(),
                    "seed {seed} atom {i} ({:?}) over-valent: {} > {}",
                    a.element,
                    used[i],
                    a.element.max_valence()
                );
            }
            let total_charge: f64 = m.atoms.iter().map(|a| a.partial_charge).sum();
            assert!(total_charge.abs() < 1e-9, "charge not conserved");
        }
    }

    #[test]
    fn conformers_have_no_severe_clashes() {
        for seed in 0..20 {
            let m = generate_molecule(&MolGenConfig::default(), "m", seed);
            let bonded: std::collections::HashSet<(usize, usize)> =
                m.bonds.iter().map(|b| (b.a, b.b)).collect();
            for i in 0..m.num_atoms() {
                for j in (i + 1)..m.num_atoms() {
                    if bonded.contains(&(i, j)) {
                        continue;
                    }
                    let d = m.atoms[i].pos.dist(m.atoms[j].pos);
                    assert!(d > 0.7, "seed {seed}: atoms {i},{j} overlap at {d:.2} Å");
                }
            }
        }
    }

    #[test]
    fn library_distributions_differ() {
        let mean_heavy = |lib: Library| -> f64 {
            (0..30)
                .map(|i| Compound::materialize(lib, i, 7).mol.num_heavy_atoms() as f64)
                .sum::<f64>()
                / 30.0
        };
        let chembl = mean_heavy(Library::Chembl);
        let enamine = mean_heavy(Library::EnamineVirtual);
        assert!(
            chembl > enamine,
            "ChEMBL ({chembl:.1}) should be larger than Enamine ({enamine:.1})"
        );
    }

    #[test]
    fn compound_ids_are_stable_and_unique() {
        let a = Compound::materialize(Library::Chembl, 5, 1);
        let b = Compound::materialize(Library::Chembl, 5, 1);
        assert_eq!(a.mol, b.mol);
        let c = Compound::materialize(Library::EMolecules, 5, 1);
        assert_ne!(a.mol, c.mol, "same index in different libraries must differ");
        assert_eq!(a.id.to_string(), "chembl-000000005");
    }

    #[test]
    fn compounds_expose_linnot() {
        let c = Compound::materialize(Library::Chembl, 3, 9);
        let s = c.linnot();
        assert!(!s.is_empty());
        let back = crate::linnot::parse_linnot(&s).unwrap();
        assert!(crate::linnot::same_graph(&c.mol, &back));
    }

    #[test]
    fn topology_materialization_matches_the_full_path() {
        use crate::descriptors::Descriptors;
        use crate::fingerprint::{Fingerprint, FingerprintConfig};
        let cfg = FingerprintConfig::default();
        for i in 0..12u64 {
            let full = Compound::materialize(Library::Chembl, i, 7);
            let topo = Compound::materialize_topology(Library::Chembl, i, 7);
            assert_eq!(full.id, topo.id);
            // Identical bond graph: every topological consumer sees the
            // same molecule.
            assert!(crate::linnot::same_graph(&full.mol, &topo.mol));
            // Every descriptor except the radius of gyration (the one
            // geometric descriptor, unused by filters and scoring) must
            // match bit for bit.
            let mut df = Descriptors::compute(&full.mol);
            let dt = Descriptors::compute(&topo.mol);
            df.radius_of_gyration = dt.radius_of_gyration;
            assert_eq!(df, dt, "topological descriptors must not depend on relaxation");
            let fa = Fingerprint::compute(&cfg, &full.mol);
            let fb = Fingerprint::compute(&cfg, &topo.mol);
            assert_eq!(fa.words(), fb.words(), "fingerprints are topological");
        }
    }

    #[test]
    fn graph_only_materialization_has_the_same_bond_graph() {
        for lib in Library::ALL {
            for campaign_seed in [7, 2021] {
                for i in 0..500 {
                    let topo = Compound::materialize_topology(lib, i, campaign_seed);
                    let graph = Compound::materialize_graph_only(lib, i, campaign_seed);
                    let at = format!("{} under seed {campaign_seed}", topo.id);
                    assert_eq!(graph.id, topo.id);
                    assert_eq!(graph.mol.name, topo.mol.name, "{at}");
                    assert_eq!(graph.mol.bonds, topo.mol.bonds, "{at}");
                    assert_eq!(graph.mol.num_atoms(), topo.mol.num_atoms(), "{at}");
                    for (g, t) in graph.mol.atoms.iter().zip(&topo.mol.atoms) {
                        assert_eq!(g.element, t.element, "{at}");
                        assert_eq!(g.pos, Vec3::ZERO, "{at}: graph-only atoms are not placed");
                    }
                }
            }
        }
    }

    /// The stream contract of [`generate_graph_only`]: skipping a
    /// placement leaves the generator exactly where placing would.
    #[test]
    fn skipping_a_placement_consumes_the_words_a_placement_draws() {
        for n in [1usize, 2, 30] {
            let mut m = Molecule::new("m");
            for i in 0..n {
                m.add_atom(Atom::new(Element::C, Vec3::new(1.5 * i as f64, 0.3 * i as f64, 0.0)));
            }
            let mut placed = rng(n as u64);
            let mut skipped = placed.clone();
            place_next_to(&m, n - 1, Element::N, &mut placed);
            assert_eq!(skip_placement(&m, n - 1, Element::N, &mut skipped), Vec3::ZERO);
            assert_eq!(placed.next_u64(), skipped.next_u64(), "{n}-atom molecule");
        }
    }

    #[test]
    fn no_element_outgrows_the_neighbour_table() {
        let widest = Element::ALL.iter().map(|e| e.max_valence()).max();
        assert_eq!(widest, Some(MAX_DEGREE));
    }

    /// Folds every generated bit of a molecule — element, conformer
    /// coordinates, partial charge and the full bond list — into `h`.
    fn fold_molecule(mut h: u64, m: &Molecule) -> u64 {
        use dftensor::hash::fnv1a64_update;
        for a in &m.atoms {
            h = fnv1a64_update(h, &[a.element.atomic_number()]);
            for v in [a.pos.x, a.pos.y, a.pos.z, a.partial_charge] {
                h = fnv1a64_update(h, &v.to_bits().to_le_bytes());
            }
        }
        for b in &m.bonds {
            h = fnv1a64_update(h, &(b.a as u64).to_le_bytes());
            h = fnv1a64_update(h, &(b.b as u64).to_le_bytes());
            h = fnv1a64_update(h, &[b.order.valence() as u8]);
        }
        h
    }

    /// Pinned from the generator as it stood before its loops kept
    /// valences and adjacency incrementally: the rewrite must not move one
    /// bit of any element, coordinate, charge or bond.
    #[test]
    fn generated_molecules_match_the_golden_digests() {
        let mut topology = dftensor::hash::FNV_OFFSET;
        let mut relaxed = dftensor::hash::FNV_OFFSET;
        for lib in Library::ALL {
            for i in 0..500 {
                topology =
                    fold_molecule(topology, &Compound::materialize_topology(lib, i, 2021).mol);
            }
            for i in 0..50 {
                relaxed = fold_molecule(relaxed, &Compound::materialize(lib, i, 2021).mol);
            }
        }
        assert_eq!(topology, 0x8ae6_7848_44ef_066c, "materialize_topology drifted");
        assert_eq!(relaxed, 0x7b00_047a_637b_ec27, "materialize drifted");
    }

    /// [`relax_conformer`] as it stood before its bonded-pair set became a
    /// bitmap and its force vector one reused buffer: the oracle the
    /// hash-free form must match bit for bit.
    fn relax_conformer_reference(m: &mut Molecule, iterations: usize) {
        let n = m.num_atoms();
        if n < 2 {
            return;
        }
        let bonded: std::collections::HashSet<(usize, usize)> =
            m.bonds.iter().map(|b| (b.a, b.b)).collect();
        let ideal: Vec<f64> = m
            .bonds
            .iter()
            .map(|b| {
                m.atoms[b.a].element.covalent_radius() + m.atoms[b.b].element.covalent_radius()
            })
            .collect();
        let step = 0.12;
        for _ in 0..iterations {
            let mut force = vec![Vec3::ZERO; n];
            // Bond springs.
            for (bi, b) in m.bonds.iter().enumerate() {
                let d = m.atoms[b.b].pos.sub(m.atoms[b.a].pos);
                let len = d.norm().max(1e-6);
                let f = d.scale((len - ideal[bi]) / len);
                force[b.a] = force[b.a].add(f);
                force[b.b] = force[b.b].sub(f);
            }
            // Steric repulsion for non-bonded pairs that clash.
            for i in 0..n {
                for j in (i + 1)..n {
                    if bonded.contains(&(i, j)) {
                        continue;
                    }
                    let min_d = 0.8
                        * (m.atoms[i].element.vdw_radius() + m.atoms[j].element.vdw_radius())
                        * 0.5
                        + 1.0;
                    let d = m.atoms[j].pos.sub(m.atoms[i].pos);
                    let len = d.norm().max(1e-6);
                    if len < min_d {
                        let f = d.scale((min_d - len) / len * 0.5);
                        force[i] = force[i].sub(f);
                        force[j] = force[j].add(f);
                    }
                }
            }
            for (a, f) in m.atoms.iter_mut().zip(&force) {
                a.pos = a.pos.add(f.scale(step));
            }
        }
    }

    fn position_bits(m: &Molecule) -> Vec<[u64; 3]> {
        m.atoms.iter().map(|a| [a.pos.x.to_bits(), a.pos.y.to_bits(), a.pos.z.to_bits()]).collect()
    }

    /// Relaxes `m` for 0, 1, 10 and 60 iterations with both forms and
    /// compares every coordinate bit.
    fn assert_relaxes_like_the_reference(m: &Molecule, at: &str) {
        for iterations in [0, 1, 10, 60] {
            let (mut got, mut want) = (m.clone(), m.clone());
            relax_conformer(&mut got, iterations);
            relax_conformer_reference(&mut want, iterations);
            assert_eq!(position_bits(&got), position_bits(&want), "{at}, {iterations} iterations");
        }
    }

    #[test]
    fn relaxation_is_bit_identical_to_the_hashed_reference() {
        for lib in Library::ALL {
            for i in 0..200 {
                let c = Compound::materialize_topology(lib, i, 2021);
                assert_relaxes_like_the_reference(&c.mol, &c.id.to_string());
            }
        }
    }

    /// The corners the generator never produces: a bond stored high→low
    /// (which, by the directional rule, still feels the steric term), a
    /// duplicated bond (two springs), and two atoms at one point (the
    /// `max(1e-6)` guard).
    #[test]
    fn relaxation_matches_the_reference_on_hand_built_corners() {
        use crate::mol::Bond;
        let chain = |bonds: &[(usize, usize)], last: Vec3| {
            let mut m = Molecule::new("corner");
            for (i, e) in [Element::C, Element::N, Element::O].into_iter().enumerate() {
                m.add_atom(Atom::new(e, Vec3::new(1.45 * i as f64, 0.2 * i as f64, 0.0)));
            }
            m.add_atom(Atom::new(Element::C, last));
            m.bonds = bonds.iter().map(|&(a, b)| Bond { a, b, order: BondOrder::Single }).collect();
            m
        };
        let off_axis = Vec3::new(1.0, 1.3, 0.4);
        let forward = chain(&[(0, 1), (1, 2), (2, 3)], off_axis);
        let backward = chain(&[(1, 0), (1, 2), (2, 3)], off_axis);
        let duplicated = chain(&[(0, 1), (1, 2), (1, 2), (2, 3)], off_axis);
        let coincident = chain(&[(0, 1), (1, 2)], Vec3::new(2.9, 0.4, 0.0));
        for (m, at) in [
            (&forward, "low→high"),
            (&backward, "high→low"),
            (&duplicated, "duplicated bond"),
            (&coincident, "coincident atoms"),
        ] {
            assert_relaxes_like_the_reference(m, at);
        }
        let (mut f, mut b) = (forward, backward);
        relax_conformer(&mut f, 1);
        relax_conformer(&mut b, 1);
        assert_ne!(position_bits(&f), position_bits(&b), "a high→low bond must not exclude");
    }

    #[test]
    fn most_compounds_are_drug_like() {
        let frac = (0..50)
            .filter(|&i| Compound::materialize(Library::ZincWorldApproved, i, 3).is_drug_like())
            .count() as f64
            / 50.0;
        assert!(frac > 0.7, "drug-like fraction {frac}");
    }
}
