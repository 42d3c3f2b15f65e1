//! ECFP-style circular fingerprints for ligand-only screening.
//!
//! The fingerprint is a folded bitset over iterated atom-environment
//! hashes, in the spirit of extended-connectivity fingerprints (Rogers &
//! Hahn 2010) as used by the ligand-based DNN screen of arXiv:2004.00979:
//!
//! 1. every heavy atom gets an initial **invariant** hashed from its
//!    element, heavy-atom degree, consumed valence, attached explicit
//!    hydrogens, ring membership and halogen flag;
//! 2. for each radius round, an atom's invariant is re-hashed together
//!    with the (bond-order, neighbour-invariant) pairs of its heavy
//!    neighbours, sorted so the hash is independent of bond insertion
//!    order;
//! 3. every invariant from every round sets bit `invariant % bits` in a
//!    folded bitset stored as little-endian `u64` words.
//!
//! Everything is integer arithmetic over a fixed 64-bit FNV-1a hash, so a
//! fingerprint is a pure function of the bond graph: bit-identical across
//! platforms, thread counts and runs. Differences vs. RDKit's Morgan
//! fingerprints (no duplicate-environment deduplication, no chirality,
//! heavy-atom hydrogen convention) are documented in `docs/CHEMISTRY.md`.

use crate::element::Element;
use crate::mol::Molecule;
use dftensor::hash::{FNV_OFFSET, FNV_PRIME};
use serde::{Deserialize, Serialize};

/// Folds one `u64` into an FNV-1a running hash, byte by byte.
fn fnv_mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hashes a slice of `u64` values with FNV-1a.
fn fnv_hash(values: &[u64]) -> u64 {
    values.iter().fold(FNV_OFFSET, |h, &v| fnv_mix(h, v))
}

/// Tunables of the circular fingerprint.
///
/// `radius` counts neighbourhood-expansion rounds (radius 2 hashes
/// environments up to 2 bonds away, the ECFP4 convention); `bits` is the
/// folded width and must be a non-zero multiple of 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FingerprintConfig {
    /// Neighbourhood-expansion rounds (ECFP diameter = 2 × radius).
    pub radius: usize,
    /// Folded width in bits; must be a non-zero multiple of 64.
    pub bits: usize,
}

impl Default for FingerprintConfig {
    fn default() -> Self {
        // ECFP4-equivalent radius at the common 2048-bit fold.
        FingerprintConfig { radius: 2, bits: 2048 }
    }
}

impl FingerprintConfig {
    /// Panics unless the configuration is usable (see field docs).
    pub fn validate(&self) {
        assert!(
            self.bits > 0 && self.bits.is_multiple_of(64),
            "bits must be a non-zero multiple of 64"
        );
        assert!(self.radius <= 16, "radius {} is unreasonably large", self.radius);
    }
}

/// A folded circular fingerprint: `bits` bits packed into `u64` words
/// (bit `i` lives at word `i / 64`, bit `i % 64`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    bits: usize,
    words: Vec<u64>,
}

impl Fingerprint {
    /// The all-zero fingerprint of the given width.
    pub fn empty(bits: usize) -> Fingerprint {
        assert!(bits > 0 && bits.is_multiple_of(64), "bits must be a non-zero multiple of 64");
        Fingerprint { bits, words: vec![0; bits / 64] }
    }

    /// Computes the circular fingerprint of a molecule's bond graph.
    ///
    /// Hydrogen atoms never become environment centres: they fold into
    /// their heavy neighbour's invariant as an explicit-H count, so a
    /// molecule reads the same whether its hydrogens are implicit (the
    /// generator convention) or explicit (hand-built test molecules).
    pub fn compute(cfg: &FingerprintConfig, mol: &Molecule) -> Fingerprint {
        cfg.validate();
        let mut fp = Fingerprint::empty(cfg.bits);
        let n = mol.num_atoms();
        if n == 0 {
            return fp;
        }

        // Heavy-only adjacency with bond orders, plus per-atom explicit-H
        // counts and ring membership (an atom is in a ring iff one of its
        // bonds is not a bridge).
        let bridges = mol.bridge_bonds();
        let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        let mut h_count = vec![0u64; n];
        let mut in_ring = vec![false; n];
        for (bi, b) in mol.bonds.iter().enumerate() {
            let (ea, eb) = (mol.atoms[b.a].element, mol.atoms[b.b].element);
            if ea == Element::H {
                h_count[b.b] += 1;
            } else if eb == Element::H {
                h_count[b.a] += 1;
            } else {
                adj[b.a].push((b.b, b.order.valence() as u64));
                adj[b.b].push((b.a, b.order.valence() as u64));
                if !bridges[bi] {
                    in_ring[b.a] = true;
                    in_ring[b.b] = true;
                }
            }
        }

        // Round-0 invariants: the atom's own typed environment.
        let used_valence = mol.used_valence();
        let mut inv: Vec<u64> = (0..n)
            .map(|i| {
                let e = mol.atoms[i].element;
                fnv_hash(&[
                    e.atomic_number() as u64,
                    adj[i].len() as u64,
                    used_valence[i] as u64,
                    h_count[i],
                    in_ring[i] as u64,
                    e.is_halogen() as u64,
                ])
            })
            .collect();
        for (i, &v) in inv.iter().enumerate() {
            if mol.atoms[i].element != Element::H {
                fp.set_bit((v % cfg.bits as u64) as usize);
            }
        }

        // Neighbourhood-expansion rounds.
        let mut scratch: Vec<(u64, u64)> = Vec::new();
        for round in 1..=cfg.radius {
            let mut next = inv.clone();
            for i in 0..n {
                if mol.atoms[i].element == Element::H {
                    continue;
                }
                scratch.clear();
                scratch.extend(adj[i].iter().map(|&(j, order)| (order, inv[j])));
                // Sort so the environment hash is independent of the order
                // bonds were added to the molecule.
                scratch.sort_unstable();
                let mut h = fnv_mix(fnv_mix(FNV_OFFSET, round as u64), inv[i]);
                for &(order, nb) in &scratch {
                    h = fnv_mix(fnv_mix(h, order), nb);
                }
                next[i] = h;
                fp.set_bit((h % cfg.bits as u64) as usize);
            }
            inv = next;
        }
        fp
    }

    /// Width of the fingerprint in bits.
    pub fn num_bits(&self) -> usize {
        self.bits
    }

    /// The packed little-endian words backing the bitset.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Sets one bit.
    fn set_bit(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Reads one bit.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.bits, "bit {i} out of range for {}-bit fingerprint", self.bits);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Fraction of set bits (0 when the fingerprint is empty).
    pub fn density(&self) -> f64 {
        self.count_ones() as f64 / self.bits as f64
    }

    /// Tanimoto (Jaccard) similarity: |a ∧ b| / |a ∨ b|, in `[0, 1]`.
    ///
    /// Two all-zero fingerprints compare as 0 (the RDKit convention for
    /// empty bit vectors). Panics when the widths differ.
    pub fn tanimoto(&self, other: &Fingerprint) -> f64 {
        assert_eq!(self.bits, other.bits, "fingerprint widths differ");
        let mut inter = 0u32;
        let mut union = 0u32;
        for (a, b) in self.words.iter().zip(&other.words) {
            inter += (a & b).count_ones();
            union += (a | b).count_ones();
        }
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Appends a canonical little-endian byte encoding (width, then words)
    /// to `out`, for content digests and bit-identity checks.
    pub fn canonical_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.bits as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genmol::{Compound, Library};
    use crate::geom::Vec3;
    use crate::mol::{Atom, BondOrder};

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
    fn deterministic_and_conformer_independent() {
        let cfg = FingerprintConfig::default();
        let mut a = Compound::materialize(Library::Chembl, 3, 7).mol;
        let fa = Fingerprint::compute(&cfg, &a);
        assert_eq!(fa, Fingerprint::compute(&cfg, &a));
        // The fingerprint reads the bond graph, not the conformer.
        a.translate(Vec3::new(5.0, -2.0, 1.0));
        assert_eq!(fa, Fingerprint::compute(&cfg, &a));
    }

    #[test]
    fn different_graphs_differ() {
        let cfg = FingerprintConfig::default();
        let a = Fingerprint::compute(&cfg, &chain(6));
        let mut ring = chain(6);
        ring.add_bond(0, 5, BondOrder::Single);
        let b = Fingerprint::compute(&cfg, &ring);
        assert_ne!(a, b, "ring closure must change the fingerprint");
    }

    #[test]
    fn self_similarity_is_one_and_empty_is_zero() {
        let cfg = FingerprintConfig::default();
        let f = Fingerprint::compute(&cfg, &chain(8));
        assert_eq!(f.tanimoto(&f), 1.0);
        let empty = Fingerprint::empty(cfg.bits);
        assert_eq!(empty.tanimoto(&empty), 0.0, "empty vs empty is 0 by convention");
        assert_eq!(f.tanimoto(&empty), 0.0);
    }

    #[test]
    fn similar_molecules_score_higher_than_dissimilar() {
        let cfg = FingerprintConfig::default();
        let base = Fingerprint::compute(&cfg, &chain(12));
        let close = Fingerprint::compute(&cfg, &chain(13));
        let mut polar = chain(12);
        for i in (0..12).step_by(2) {
            polar.atoms[i].element = Element::O;
        }
        let far = Fingerprint::compute(&cfg, &polar);
        assert!(base.tanimoto(&close) > base.tanimoto(&far));
    }

    #[test]
    fn explicit_hydrogens_fold_into_heavy_invariants() {
        let cfg = FingerprintConfig::default();
        let implicit = chain(3);
        let mut explicit = chain(3);
        let h = explicit.add_atom(Atom::new(Element::H, Vec3::new(0.0, 1.0, 0.0)));
        explicit.add_bond(0, h, BondOrder::Single);
        let fi = Fingerprint::compute(&cfg, &implicit);
        let fe = Fingerprint::compute(&cfg, &explicit);
        // The H changes its neighbour's environment but never becomes an
        // environment centre of its own.
        assert_ne!(fi, fe);
        let lone_h = {
            let mut m = Molecule::new("h");
            m.add_atom(Atom::new(Element::H, Vec3::ZERO));
            m
        };
        assert_eq!(Fingerprint::compute(&cfg, &lone_h).count_ones(), 0);
    }

    #[test]
    fn zero_atom_molecule_is_empty() {
        let f = Fingerprint::compute(&FingerprintConfig::default(), &Molecule::new("void"));
        assert_eq!(f.count_ones(), 0);
        assert_eq!(f.num_bits(), 2048);
    }

    #[test]
    fn folding_width_bounds_bits() {
        let cfg = FingerprintConfig { radius: 2, bits: 64 };
        let f = Fingerprint::compute(&cfg, &Compound::materialize(Library::Chembl, 9, 1).mol);
        assert_eq!(f.words().len(), 1);
        assert!(f.count_ones() as usize <= 64);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn invalid_width_is_rejected() {
        Fingerprint::compute(&FingerprintConfig { radius: 2, bits: 100 }, &chain(3));
    }

    #[test]
    fn canonical_bytes_round_trip_width_and_words() {
        let f = Fingerprint::compute(&FingerprintConfig::default(), &chain(5));
        let mut bytes = Vec::new();
        f.canonical_bytes(&mut bytes);
        assert_eq!(bytes.len(), 8 + f.words().len() * 8);
        assert_eq!(u64::from_le_bytes(bytes[0..8].try_into().unwrap()), 2048);
    }
}
