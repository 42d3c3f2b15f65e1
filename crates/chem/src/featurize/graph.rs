//! Spatial-graph featurization of a protein–ligand complex for the SG-CNN
//! head (PotentialNet-style).
//!
//! Nodes are the ligand atoms plus every pocket atom within the
//! non-covalent neighbour threshold of any ligand atom. Two edge types are
//! built, matching Table 1's search space:
//!
//! * **covalent** edges — the ligand's bonds plus pocket-atom pairs closer
//!   than the covalent threshold, capped at K nearest per node;
//! * **non-covalent** edges — any pair within the non-covalent threshold
//!   that is not covalently linked, capped at K nearest per node.
//!
//! Capping keeps each node's K nearest candidates; a tie in distance goes
//! to the candidate whose pair came first (ligand bonds in bond order, then
//! pairs `(i, j)`, `i < j`, row by row), exactly as a stable sort by
//! distance truncated to K. A pair survives if either endpoint keeps it.

use crate::element::Element;
use crate::geom::Vec3;
use crate::mol::Molecule;
use crate::pocket::BindingPocket;
use dftensor::Tensor;
use serde::{Deserialize, Serialize};

/// Edge-construction hyper-parameters (rows "Non-covalent / Covalent K" and
/// "Neighbor Threshold" of Table 1).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GraphConfig {
    /// Max covalent neighbours per node.
    pub covalent_k: usize,
    /// Max non-covalent neighbours per node.
    pub noncovalent_k: usize,
    /// Covalent distance threshold in Å.
    pub covalent_threshold: f64,
    /// Non-covalent distance threshold in Å.
    pub noncovalent_threshold: f64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        // The optimized SG-CNN values from Table 2.
        Self {
            covalent_k: 6,
            noncovalent_k: 3,
            covalent_threshold: 2.24,
            noncovalent_threshold: 5.22,
        }
    }
}

/// Number of per-node features: one-hot element class, partial charge,
/// scaled vdW radius, hydrophobic/donor/acceptor flags, is-ligand flag.
pub const NODE_FEATURES: usize = Element::NUM_CLASSES + 6;

/// A featurized protein–ligand graph.
#[derive(Debug, Clone)]
pub struct MolGraph {
    /// `[num_nodes, NODE_FEATURES]` node feature matrix.
    pub node_feats: Tensor,
    /// Directed covalent edges (both directions present).
    pub covalent_edges: Vec<(usize, usize)>,
    /// Per-edge distances (Å) aligned with `covalent_edges`.
    pub covalent_dists: Vec<f64>,
    /// Directed non-covalent edges (both directions present).
    pub noncovalent_edges: Vec<(usize, usize)>,
    /// Per-edge distances (Å) aligned with `noncovalent_edges`.
    pub noncovalent_dists: Vec<f64>,
    /// True for ligand nodes (the SG-CNN gathers over these only).
    pub ligand_mask: Vec<bool>,
}

impl MolGraph {
    /// Total nodes (ligand + pocket) in the graph.
    pub fn num_nodes(&self) -> usize {
        self.ligand_mask.len()
    }

    /// Nodes flagged as ligand atoms.
    pub fn num_ligand_nodes(&self) -> usize {
        self.ligand_mask.iter().filter(|&&l| l).count()
    }

    /// Appends a canonical, platform-independent byte encoding of this
    /// featurization to `out`: shape, node-feature bits, both edge lists
    /// with their distances, and the ligand mask, all little-endian with
    /// floats as raw bits. Two graphs serialize identically **iff** their
    /// featurized content is identical, which is what makes the serving
    /// cache content-addressed (keys are a hash of these bytes, not of the
    /// request that produced them).
    pub fn canonical_bytes(&self, out: &mut Vec<u8>) {
        for &d in self.node_feats.shape() {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &v in self.node_feats.data() {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        for (edges, dists) in [
            (&self.covalent_edges, &self.covalent_dists),
            (&self.noncovalent_edges, &self.noncovalent_dists),
        ] {
            out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
            for &(a, b) in edges.iter() {
                out.extend_from_slice(&(a as u64).to_le_bytes());
                out.extend_from_slice(&(b as u64).to_le_bytes());
            }
            for &d in dists.iter() {
                out.extend_from_slice(&d.to_bits().to_le_bytes());
            }
        }
        for &l in &self.ligand_mask {
            out.push(l as u8);
        }
    }
}

struct Node {
    pos: Vec3,
    element: Element,
    charge: f64,
    is_ligand: bool,
}

/// Builds the spatial graph for one pose.
pub fn build_graph(cfg: &GraphConfig, ligand: &Molecule, pocket: &BindingPocket) -> MolGraph {
    assert!(
        cfg.covalent_threshold < cfg.noncovalent_threshold,
        "covalent threshold must be below non-covalent threshold"
    );
    // Collect nodes: all ligand atoms, then relevant pocket atoms.
    let mut nodes: Vec<Node> = ligand
        .atoms
        .iter()
        .map(|a| Node { pos: a.pos, element: a.element, charge: a.partial_charge, is_ligand: true })
        .collect();
    let nl = nodes.len();
    for pa in &pocket.atoms {
        let near =
            ligand.atoms.iter().any(|la| la.pos.dist(pa.pos) <= cfg.noncovalent_threshold + 1.0);
        if near {
            nodes.push(Node {
                pos: pa.pos,
                element: pa.element,
                charge: pa.partial_charge,
                is_ligand: false,
            });
        }
    }
    let n = nodes.len();

    // Node features.
    let mut feats = Tensor::zeros(&[n, NODE_FEATURES]);
    for (i, node) in nodes.iter().enumerate() {
        let row = &mut feats.data_mut()[i * NODE_FEATURES..(i + 1) * NODE_FEATURES];
        row[node.element.channel_class()] = 1.0;
        let base = Element::NUM_CLASSES;
        row[base] = node.charge as f32;
        row[base + 1] = (node.element.vdw_radius() / 2.0) as f32;
        row[base + 2] = node.element.is_hydrophobic() as u8 as f32;
        row[base + 3] = node.element.is_hbond_donor() as u8 as f32;
        row[base + 4] = node.element.is_hbond_acceptor() as u8 as f32;
        row[base + 5] = node.is_ligand as u8 as f32;
    }

    // Covalent adjacency: ligand bonds are authoritative; pocket pairs use
    // the distance threshold.
    let mut covalent_pairs: Vec<(usize, usize, f64)> =
        ligand.bonds.iter().map(|b| (b.a, b.b, nodes[b.a].pos.dist(nodes[b.b].pos))).collect();
    for i in nl..n {
        for j in (i + 1)..n {
            let d = nodes[i].pos.dist(nodes[j].pos);
            if d <= cfg.covalent_threshold {
                covalent_pairs.push((i, j, d));
            }
        }
    }
    let (covalent_edges, covalent_dists) =
        cap_and_direct(&covalent_pairs, n, cfg.covalent_k, &nodes);
    let mut covalent = vec![false; n * n];
    for &(a, b) in &covalent_edges {
        covalent[a * n + b] = true;
    }

    // Non-covalent pairs: any two nodes within threshold, not covalently
    // linked. Cross ligand–pocket contacts are what carries the binding
    // signal; close intra-molecular contacts are retained as in PotentialNet.
    let mut noncovalent_pairs: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if covalent[i * n + j] {
                continue;
            }
            let d = nodes[i].pos.dist(nodes[j].pos);
            if d <= cfg.noncovalent_threshold {
                noncovalent_pairs.push((i, j, d));
            }
        }
    }
    let (noncovalent_edges, noncovalent_dists) =
        cap_and_direct(&noncovalent_pairs, n, cfg.noncovalent_k, &nodes);

    MolGraph {
        node_feats: feats,
        covalent_edges,
        covalent_dists,
        noncovalent_edges,
        noncovalent_dists,
        ligand_mask: nodes.iter().map(|nd| nd.is_ligand).collect(),
    }
}

/// Keeps at most `k` nearest undirected partners per node, then emits both
/// directions of every surviving pair along with the edge distances.
fn cap_and_direct(
    pairs: &[(usize, usize, f64)],
    n: usize,
    k: usize,
    nodes: &[Node],
) -> (Vec<(usize, usize)>, Vec<f64>) {
    // Node `a`'s nearest partners so far in `nearest[a * k..][..len[a]]`;
    // a candidate goes after every kept one at its distance.
    let mut nearest = vec![(0.0, 0); n * k];
    let mut len = vec![0; n];
    for &(a, b, d) in pairs {
        for (node, partner) in [(a, b), (b, a)] {
            let list = &mut nearest[node * k..(node + 1) * k];
            let at = list[..len[node]].partition_point(|&(kept, _)| kept <= d);
            if at < k {
                len[node] = (len[node] + 1).min(k);
                list[at..len[node]].rotate_right(1);
                list[at] = (d, partner);
            }
        }
    }
    // A pair survives if either endpoint keeps it (PyG-style kNN graphs are
    // directed; we symmetrize to keep message passing bidirectional).
    let mut kept: Vec<(usize, usize)> = Vec::with_capacity(len.iter().sum());
    for (a, &count) in len.iter().enumerate() {
        for &(_, b) in &nearest[a * k..a * k + count] {
            kept.push((a.min(b), a.max(b)));
        }
    }
    kept.sort_unstable();
    kept.dedup();
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(kept.len() * 2);
    for (a, b) in kept {
        edges.push((a, b));
        edges.push((b, a));
    }
    edges.sort_unstable();
    let dists = edges.iter().map(|&(a, b)| nodes[a].pos.dist(nodes[b].pos)).collect();
    (edges, dists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genmol::{generate_molecule, MolGenConfig};
    use crate::mol::{Atom, BondOrder};
    use crate::pocket::TargetSite;

    fn small_ligand() -> Molecule {
        let mut m = Molecule::new("lig");
        m.add_atom(Atom::new(Element::C, Vec3::new(0.0, 0.0, 0.0)));
        m.add_atom(Atom::new(Element::N, Vec3::new(1.4, 0.0, 0.0)));
        m.add_atom(Atom::new(Element::O, Vec3::new(2.8, 0.0, 0.0)));
        m.add_bond(0, 1, BondOrder::Single);
        m.add_bond(1, 2, BondOrder::Single);
        m
    }

    fn empty_pocket() -> BindingPocket {
        BindingPocket {
            target: TargetSite::Spike1,
            atoms: vec![],
            radius: 5.0,
            entrance: Vec3::new(0.0, 0.0, 1.0),
        }
    }

    #[test]
    fn ligand_bonds_become_covalent_edges() {
        let g = build_graph(&GraphConfig::default(), &small_ligand(), &empty_pocket());
        assert_eq!(g.num_nodes(), 3);
        assert!(g.covalent_edges.contains(&(0, 1)));
        assert!(g.covalent_edges.contains(&(1, 0)));
        assert!(g.covalent_edges.contains(&(1, 2)));
        // Atoms 0 and 2 are 2.8 Å apart: not covalent, but non-covalent.
        assert!(!g.covalent_edges.contains(&(0, 2)));
        assert!(g.noncovalent_edges.contains(&(0, 2)));
    }

    #[test]
    fn pocket_nodes_are_distance_filtered() {
        let mut pocket = empty_pocket();
        pocket.atoms.push(Atom::new(Element::O, Vec3::new(0.0, 3.0, 0.0))); // near
        pocket.atoms.push(Atom::new(Element::O, Vec3::new(0.0, 50.0, 0.0))); // far
        let g = build_graph(&GraphConfig::default(), &small_ligand(), &pocket);
        assert_eq!(g.num_nodes(), 4, "only the near pocket atom joins the graph");
        assert_eq!(g.num_ligand_nodes(), 3);
        assert!(!g.ligand_mask[3]);
    }

    #[test]
    fn node_features_have_documented_layout() {
        let g = build_graph(&GraphConfig::default(), &small_ligand(), &empty_pocket());
        assert_eq!(g.node_feats.shape(), &[3, NODE_FEATURES]);
        // Node 0 is carbon: one-hot class 0, hydrophobic, ligand flag set.
        let row = g.node_feats.row(0);
        assert_eq!(row[Element::C.channel_class()], 1.0);
        assert_eq!(row[Element::NUM_CLASSES + 2], 1.0, "hydrophobic");
        assert_eq!(row[NODE_FEATURES - 1], 1.0, "is_ligand");
    }

    #[test]
    fn k_capping_bounds_degree() {
        let cfg = GraphConfig { noncovalent_k: 2, ..GraphConfig::default() };
        let lig = generate_molecule(&MolGenConfig::default(), "m", 5);
        let pocket = BindingPocket::generate(TargetSite::Protease1, 5);
        let g = build_graph(&cfg, &lig, &pocket);
        // Undirected degree from the capped side can still exceed k when a
        // neighbour keeps the edge, but the *kept-list* construction bounds
        // the total edge count by n * k pairs.
        assert!(g.noncovalent_edges.len() <= g.num_nodes() * cfg.noncovalent_k * 2);
        // Every edge is mirrored.
        for &(a, b) in &g.noncovalent_edges {
            assert!(g.noncovalent_edges.contains(&(b, a)));
        }
    }

    #[test]
    fn realistic_complex_produces_contacts() {
        let mut lig = generate_molecule(&MolGenConfig::default(), "m", 9);
        // Centre the ligand in the pocket cavity.
        let c = lig.centroid();
        lig.translate(c.scale(-1.0));
        let pocket = BindingPocket::generate(TargetSite::Spike1, 9);
        let g = build_graph(&GraphConfig::default(), &lig, &pocket);
        assert!(g.num_nodes() > lig.num_atoms(), "pocket atoms should join");
        assert!(!g.noncovalent_edges.is_empty());
    }

    /// Pinned from `build_graph` as it stood before its pair sets became
    /// bitmaps and its per-node candidate lists one flat buffer: not one
    /// node feature, edge or distance bit may move.
    #[test]
    fn built_graphs_match_the_golden_digest() {
        use crate::genmol::{Compound, Library};
        use dftensor::hash::{fnv1a64_update, FNV_OFFSET};
        let mut h = FNV_OFFSET;
        let mut bytes = Vec::new();
        for target in TargetSite::ALL {
            let pocket = BindingPocket::generate(target, 2021);
            for lib in Library::ALL {
                for i in 0..50 {
                    let mut lig = Compound::materialize(lib, i, 2021).mol;
                    let c = lig.centroid();
                    lig.translate(c.scale(-1.0));
                    bytes.clear();
                    build_graph(&GraphConfig::default(), &lig, &pocket).canonical_bytes(&mut bytes);
                    h = fnv1a64_update(h, &bytes);
                }
            }
        }
        assert_eq!(h, 0x05e8_0610_62ea_7974, "build_graph drifted");
    }

    /// `cap_and_direct` as it stood before its per-node lists became one
    /// flat buffer: a stable sort by distance, truncated to `k`.
    fn cap_and_direct_reference(
        pairs: &[(usize, usize, f64)],
        n: usize,
        k: usize,
        nodes: &[Node],
    ) -> (Vec<(usize, usize)>, Vec<f64>) {
        let mut per_node: Vec<Vec<(f64, usize)>> = vec![Vec::new(); n];
        for &(a, b, d) in pairs {
            per_node[a].push((d, b));
            per_node[b].push((d, a));
        }
        for lst in &mut per_node {
            lst.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal));
            lst.truncate(k);
        }
        let mut kept: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
        for (a, lst) in per_node.iter().enumerate() {
            for &(_, b) in lst {
                kept.insert((a.min(b), a.max(b)));
            }
        }
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(kept.len() * 2);
        for (a, b) in kept {
            edges.push((a, b));
            edges.push((b, a));
        }
        edges.sort_unstable();
        let dists = edges.iter().map(|&(a, b)| nodes[a].pos.dist(nodes[b].pos)).collect();
        (edges, dists)
    }

    fn carbon_nodes(n: usize) -> Vec<Node> {
        (0..n)
            .map(|i| Node {
                pos: Vec3::new(i as f64, (i * i % 7) as f64, 0.5),
                element: Element::C,
                charge: 0.0,
                is_ligand: true,
            })
            .collect()
    }

    /// Node 0 has five equidistant candidates, listed out of index order;
    /// each of them has three nearer partners of its own, so only node 0's
    /// tie-break decides which `0–j` edges survive: the first `k` listed.
    #[test]
    fn capping_breaks_distance_ties_by_pair_order() {
        let ties = [3, 1, 5, 2, 4];
        let mut pairs = Vec::new();
        for (t, &j) in ties.iter().enumerate() {
            for p in 0..3 {
                pairs.push((j, 6 + 3 * (j - 1) + p, 0.5));
            }
            // Alternate the stored direction of node 0's pairs.
            pairs.push(if t % 2 == 0 { (0, j, 1.0) } else { (j, 0, 1.0) });
        }
        let nodes = carbon_nodes(21);
        for k in 1..=3 {
            let got = cap_and_direct(&pairs, nodes.len(), k, &nodes);
            assert_eq!(got, cap_and_direct_reference(&pairs, nodes.len(), k, &nodes), "k = {k}");
            let mut want: Vec<usize> = ties[..k].to_vec();
            want.sort_unstable();
            let from_0: Vec<usize> =
                got.0.iter().filter(|&&(a, _)| a == 0).map(|&(_, b)| b).collect();
            assert_eq!(from_0, want, "k = {k}");
        }
    }

    /// Random candidate lists drawn from three distances, so most
    /// comparisons are ties, at every `k` from 0 to 4.
    #[test]
    fn capping_matches_the_sort_based_reference() {
        use rand::Rng;
        let n = 12usize;
        let nodes = carbon_nodes(n);
        let mut r = dftensor::rng::rng(26);
        for _ in 0..200 {
            let pairs: Vec<(usize, usize, f64)> = (0..r.gen_range(0..40))
                .map(|_| (r.gen_range(0..n), r.gen_range(0..n), r.gen_range(1..=3) as f64))
                .filter(|&(a, b, _)| a != b)
                .collect();
            for k in 0..=4 {
                assert_eq!(
                    cap_and_direct(&pairs, nodes.len(), k, &nodes),
                    cap_and_direct_reference(&pairs, nodes.len(), k, &nodes),
                    "k = {k}, pairs {pairs:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "below non-covalent")]
    fn threshold_ordering_is_validated() {
        let cfg = GraphConfig {
            covalent_threshold: 6.0,
            noncovalent_threshold: 3.0,
            ..GraphConfig::default()
        };
        build_graph(&cfg, &small_ligand(), &empty_pocket());
    }
}
