//! The fingerprint-MLP regressor and its featurization.
//!
//! The input is the raw ECFP bitset ([`dfchem::Fingerprint`]) expanded to
//! a 0/1 `f32` row plus [`DESCRIPTOR_CHANNELS`] normalized whole-molecule
//! descriptor channels (size, rotors, H-bond counts, lipophilicity — the
//! quantities the physics scoring terms actually integrate over, which
//! substructure presence bits encode poorly); the network is one or two
//! ReLU hidden layers plus a linear head, all plain [`Linear`] layers on
//! the `dftensor` autodiff graph, so inference is two or three GEMMs per
//! batch. Predictions are on the docking-score scale the model was
//! trained against (kcal/mol, lower = stronger binder).
//!
//! Determinism: weights initialize from a seeded RNG in fixed layer
//! order, batches are assembled row-by-row in input order, and the GEMM
//! kernels underneath are bit-identical at any `dfpool` lane count — so
//! the same config and inputs produce the same bits everywhere.

use dfchem::genmol::{Compound, Library};
use dfchem::{Descriptors, Fingerprint, FingerprintConfig};
use dftensor::hash::fnv1a64;
use dftensor::nn::Linear;
use dftensor::params::{ParamSnapshot, ParamStore};
use dftensor::serialize::encode_snapshot;
use dftensor::{Graph, Tensor};
use serde::{Deserialize, Serialize};

/// Descriptor channels appended after the fingerprint bits in every
/// feature row (see [`descriptor_row`] for the exact layout).
pub const DESCRIPTOR_CHANNELS: usize = 12;

/// Architecture + featurization + init seed of a surrogate model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SurrogateConfig {
    /// ECFP featurization; the MLP input width is `fingerprint.bits`
    /// plus [`DESCRIPTOR_CHANNELS`].
    pub fingerprint: FingerprintConfig,
    /// First hidden-layer width.
    pub hidden: usize,
    /// Second hidden-layer width (0 = single hidden layer).
    pub hidden2: usize,
    /// Rows per inference micro-batch.
    pub batch: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            fingerprint: FingerprintConfig::default(),
            hidden: 64,
            hidden2: 16,
            batch: 64,
            seed: 0,
        }
    }
}

impl SurrogateConfig {
    /// A small deterministic configuration for tests and benches.
    pub fn tiny(seed: u64) -> SurrogateConfig {
        SurrogateConfig {
            fingerprint: FingerprintConfig { radius: 2, bits: 512 },
            hidden: 16,
            hidden2: 0,
            batch: 32,
            seed,
        }
    }

    /// Builds the MLP and a freshly initialized parameter store.
    /// Layers are created in fixed order from a seeded RNG, so two builds
    /// of the same config are bit-identical (and a published snapshot
    /// restores into any build of the same config).
    pub fn build(&self) -> (SurrogateMlp, ParamStore) {
        self.fingerprint.validate();
        assert!(self.hidden > 0, "surrogate needs at least one hidden layer");
        let mut ps = ParamStore::new();
        let mut rng = dftensor::rng::rng(self.seed);
        let in_dim = self.fingerprint.bits + DESCRIPTOR_CHANNELS;
        let l1 = Linear::new(&mut ps, "surrogate.l1", in_dim, self.hidden, &mut rng);
        let (l2, head_in) = if self.hidden2 > 0 {
            (
                Some(Linear::new(&mut ps, "surrogate.l2", self.hidden, self.hidden2, &mut rng)),
                self.hidden2,
            )
        } else {
            (None, self.hidden)
        };
        let head = Linear::new(&mut ps, "surrogate.head", head_in, 1, &mut rng);
        (SurrogateMlp { l1, l2, head, batch: self.batch.max(1) }, ps)
    }
}

/// The fingerprint-MLP regressor (layer handles into a [`ParamStore`]).
#[derive(Debug, Clone)]
pub struct SurrogateMlp {
    /// First hidden layer (`bits → hidden`).
    pub l1: Linear,
    /// Optional second hidden layer (`hidden → hidden2`).
    pub l2: Option<Linear>,
    /// Linear output head (`→ 1`).
    pub head: Linear,
    /// Rows per inference micro-batch.
    pub batch: usize,
}

impl SurrogateMlp {
    /// Input width (fingerprint bits + [`DESCRIPTOR_CHANNELS`]).
    pub fn in_dim(&self) -> usize {
        self.l1.in_dim
    }

    /// Forward pass over a `[batch, bits]` input node; returns the
    /// `[batch, 1]` prediction node.
    pub fn forward(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        x: dftensor::graph::VarId,
        frozen: bool,
    ) -> dftensor::graph::VarId {
        let mut h = self.l1.forward(g, ps, x, frozen);
        h = g.relu(h);
        if let Some(l2) = &self.l2 {
            h = l2.forward(g, ps, h, frozen);
            h = g.relu(h);
        }
        self.head.forward(g, ps, h, frozen)
    }

    /// Predicts a score for every feature row (frozen weights), batched
    /// at [`SurrogateMlp::batch`] rows per GEMM. Bit-identical at any
    /// lane count and for any chunking of the input.
    pub fn predict(&self, ps: &ParamStore, rows: &[Vec<f32>]) -> Vec<f32> {
        let _span = dftrace::span("surrogate.predict");
        let d = self.in_dim();
        let mut out = Vec::with_capacity(rows.len());
        for chunk in rows.chunks(self.batch) {
            let mut flat = Vec::with_capacity(chunk.len() * d);
            for row in chunk {
                assert_eq!(row.len(), d, "feature row width must match the model input");
                flat.extend_from_slice(row);
            }
            let mut g = Graph::new();
            let x = g.input(Tensor::from_vec(flat, &[chunk.len(), d]));
            let pred = self.forward(&mut g, ps, x, true);
            out.extend_from_slice(g.value(pred).data());
        }
        dftrace::counter_add("surrogate.predicted", rows.len() as u64);
        out
    }
}

/// Expands a fingerprint bitset into the MLP's 0/1 `f32` input row.
pub fn featurize(fp: &Fingerprint) -> Vec<f32> {
    let mut row = vec![0.0f32; fp.num_bits()];
    for (w, word) in fp.words().iter().enumerate() {
        let mut bits = *word;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            row[w * 64 + b] = 1.0;
            bits &= bits - 1;
        }
    }
    row
}

/// The [`DESCRIPTOR_CHANNELS`] normalized descriptor channels appended
/// after the fingerprint bits: molecular weight, heavy atoms, carbons,
/// rotatable bonds, H-bond donors, H-bond acceptors, logP, TPSA, ring
/// count, Fsp³, the Vina rotor-normalization factor `1/(1 + w_rot·N_rot)`
/// (the score divides by exactly this, so handing it to the MLP saves it
/// from learning a reciprocal), and the conformer's radius of gyration
/// (the one geometric channel: molecular extent drives how many pocket
/// contacts the best placement can make). Each channel is scaled by a
/// fixed drug-like upper bound so it lands near the same [0, 1] range as
/// the bits.
pub fn descriptor_row(d: &Descriptors) -> [f32; DESCRIPTOR_CHANNELS] {
    [
        (d.molecular_weight / 500.0) as f32,
        d.heavy_atoms as f32 / 50.0,
        d.carbons as f32 / 40.0,
        d.rotatable_bonds as f32 / 15.0,
        d.hbond_donors as f32 / 6.0,
        d.hbond_acceptors as f32 / 12.0,
        (d.logp / 6.0) as f32,
        (d.tpsa / 150.0) as f32,
        d.ring_count as f32 / 7.0,
        d.fsp3 as f32,
        (1.0 / (1.0 + dfdock_w_rot() * d.rotatable_bonds as f64)) as f32,
        (d.radius_of_gyration / 8.0) as f32,
    ]
}

/// Vina's rotor penalty weight (`dfdock::vina::W_ROT`), duplicated here
/// so the surrogate crate does not depend on the dock crate for one
/// constant; pinned by a cross-crate test in `dfhts`.
fn dfdock_w_rot() -> f64 {
    0.05846
}

/// Materializes compound `index`, fingerprints it (fingerprints and all
/// but one descriptor read topology only; radius of gyration reads the
/// deterministic conformer) and returns the content hash of the
/// canonical fingerprint bytes plus the feature row (0/1 bits followed
/// by the [`descriptor_row`] channels).
pub fn featurize_compound(
    cfg: &FingerprintConfig,
    library: Library,
    index: u64,
    campaign_seed: u64,
) -> (u64, Vec<f32>) {
    let compound = Compound::materialize_topology(library, index, campaign_seed);
    let fp = Fingerprint::compute(cfg, &compound.mol);
    dftrace::counter_add("surrogate.featurized", 1);
    let mut row = featurize(&fp);
    row.extend_from_slice(&descriptor_row(&Descriptors::compute(&compound.mol)));
    (fingerprint_content_hash(&fp), row)
}

/// fnv1a64 digest of a fingerprint's canonical bytes — the
/// content-addressed half of the surrogate score-cache key (the other
/// half is the snapshot generation).
pub fn fingerprint_content_hash(fp: &Fingerprint) -> u64 {
    let mut bytes = Vec::new();
    fp.canonical_bytes(&mut bytes);
    fnv1a64(&bytes)
}

/// fnv1a64 digest of a snapshot's DFWT encoding — the identity of a set
/// of trained weights, journaled per epoch by the active-learning driver.
pub fn snapshot_hash(snap: &ParamSnapshot) -> u64 {
    fnv1a64(&encode_snapshot(snap))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, bits: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                let mut r = vec![0.0; bits];
                for (j, slot) in r.iter_mut().enumerate() {
                    if (i * 31 + j * 7) % 13 == 0 {
                        *slot = 1.0;
                    }
                }
                r
            })
            .collect()
    }

    #[test]
    fn two_builds_of_the_same_config_are_bit_identical() {
        let cfg = SurrogateConfig::tiny(9);
        let (m1, p1) = cfg.build();
        let (m2, p2) = cfg.build();
        let x = rows(5, m1.in_dim());
        assert_eq!(m1.predict(&p1, &x), m2.predict(&p2, &x));
        // A different seed changes the weights (and so the predictions).
        let (m3, p3) = SurrogateConfig::tiny(10).build();
        assert_ne!(m1.predict(&p1, &x), m3.predict(&p3, &x));
    }

    #[test]
    fn prediction_is_chunking_and_lane_invariant() {
        let cfg = SurrogateConfig::tiny(3);
        let (model, ps) = cfg.build();
        let x = rows(17, model.in_dim());
        let whole = model.predict(&ps, &x);
        assert_eq!(whole.len(), 17);
        let mut narrow = model.clone();
        narrow.batch = 3;
        assert_eq!(narrow.predict(&ps, &x), whole, "chunking must not change bits");
        let pooled = dfpool::Pool::new(4).install(|| model.predict(&ps, &x));
        assert_eq!(pooled, whole, "lane count must not change bits");
    }

    #[test]
    fn featurize_matches_the_bit_accessor() {
        let cfg = FingerprintConfig { radius: 2, bits: 256 };
        let compound = Compound::materialize_topology(Library::Chembl, 42, 7);
        let fp = Fingerprint::compute(&cfg, &compound.mol);
        let row = featurize(&fp);
        assert_eq!(row.len(), 256);
        for (i, &v) in row.iter().enumerate() {
            assert_eq!(v == 1.0, fp.bit(i), "bit {i}");
        }
        assert_eq!(row.iter().filter(|&&v| v == 1.0).count() as u32, fp.count_ones());
    }

    #[test]
    fn content_hash_distinguishes_compounds_and_snapshot_hash_weights() {
        let fpc = FingerprintConfig { radius: 2, bits: 256 };
        let (h1, _) = featurize_compound(&fpc, Library::Chembl, 1, 7);
        let (h2, _) = featurize_compound(&fpc, Library::Chembl, 2, 7);
        assert_ne!(h1, h2);
        let (h1b, _) = featurize_compound(&fpc, Library::Chembl, 1, 7);
        assert_eq!(h1, h1b);

        let cfg = SurrogateConfig::tiny(1);
        let (_, ps_a) = cfg.build();
        let (_, ps_b) = SurrogateConfig::tiny(2).build();
        assert_ne!(snapshot_hash(&ps_a.snapshot()), snapshot_hash(&ps_b.snapshot()));
        assert_eq!(snapshot_hash(&ps_a.snapshot()), snapshot_hash(&ps_a.snapshot()));
    }
}
