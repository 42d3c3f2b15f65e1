//! Spatial Graph CNN (PotentialNet-style gated graph network).
//!
//! Architecture per §3.3.1: structurally the PotentialNet of Feinberg et
//! al., built on gated graph sequence networks — a covalent propagation
//! stage, a non-covalent propagation stage, a gated gather over ligand
//! nodes, and a dense head whose widths are derived from the non-covalent
//! gather width (reduced by 1.5, then by 2).
//!
//! Each propagation stage runs `K` GRU steps where the message to a node is
//! the sum of a learned linear map of its neighbours' states over that
//! stage's edge type.

use crate::batch_graph::BatchedGraph;
use crate::config::SgCnnConfig;
use dfchem::featurize::NODE_FEATURES;
use dftensor::graph::{Graph, VarId};
use dftensor::nn::Linear;
use dftensor::params::ParamStore;
use dftensor::rng::rng;
use rand::rngs::StdRng;

/// Number of radial-basis features encoding each edge's distance.
///
/// Binary adjacency alone cannot express *how close* a contact is — the
/// information FAST encodes through distance-binned edge types. Each edge
/// distance is expanded over Gaussian bases so the message function can
/// weight interactions by separation.
pub const EDGE_RBF: usize = 4;

/// RBF centres (Å) spanning the covalent-to-non-covalent range.
const RBF_CENTERS: [f64; EDGE_RBF] = [1.5, 2.5, 4.0, 5.5];
const RBF_SIGMA: f64 = 1.0;

/// Expands edge distances into an `[E, EDGE_RBF]` feature tensor.
fn edge_rbf_tensor(dists: &[f64]) -> dftensor::Tensor {
    let mut t = dftensor::Tensor::zeros(&[dists.len(), EDGE_RBF]);
    for (e, &d) in dists.iter().enumerate() {
        for (k, &c) in RBF_CENTERS.iter().enumerate() {
            let z = (d - c) / RBF_SIGMA;
            t.data_mut()[e * EDGE_RBF + k] = (-0.5 * z * z).exp() as f32;
        }
    }
    t
}

/// One GRU-gated propagation stage over a fixed edge type.
#[derive(Debug, Clone)]
struct PropagationStage {
    /// Message transform applied to neighbour states.
    msg: Linear,
    /// GRU gates (update, reset, candidate), each over [message | state].
    gru_z: Linear,
    gru_r: Linear,
    gru_h: Linear,
    steps: usize,
    width: usize,
}

impl PropagationStage {
    fn new(ps: &mut ParamStore, name: &str, width: usize, steps: usize, r: &mut StdRng) -> Self {
        Self {
            // The message sees the neighbour state plus the edge's RBF
            // distance encoding.
            msg: Linear::new(ps, &format!("{name}.msg"), width + EDGE_RBF, width, r),
            gru_z: Linear::new(ps, &format!("{name}.gru_z"), 2 * width, width, r),
            gru_r: Linear::new(ps, &format!("{name}.gru_r"), 2 * width, width, r),
            gru_h: Linear::new(ps, &format!("{name}.gru_h"), 2 * width, width, r),
            steps,
            width,
        }
    }

    /// Runs `steps` rounds of message passing, returning the new states.
    #[allow(clippy::too_many_arguments)]
    fn forward(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        mut h: VarId,
        edges: &[(usize, usize)],
        dists: &[f64],
        num_nodes: usize,
        frozen: bool,
    ) -> VarId {
        let (src, dst) = BatchedGraph::edge_endpoints(edges);
        debug_assert_eq!(src.len(), dists.len(), "edge/distance length mismatch");
        // Edge features are constants for the whole stage.
        let edge_feats = if src.is_empty() { None } else { Some(g.input(edge_rbf_tensor(dists))) };
        for _ in 0..self.steps {
            // Message: sum over incoming edges of W_msg · [h_src | rbf(d)].
            let m = if src.is_empty() {
                // No edges: zero message of the right shape.
                let zeros = dftensor::Tensor::zeros(&[num_nodes, self.width]);
                g.input(zeros)
            } else {
                let gathered = g.index_select_rows(h, &src);
                let with_edge = g.concat_cols(&[gathered, edge_feats.expect("edges exist")]);
                let messages = self.msg.forward(g, ps, with_edge, frozen);
                g.segment_sum(messages, &dst, num_nodes)
            };
            // GRU update.
            let mh = g.concat_cols(&[m, h]);
            let z_lin = self.gru_z.forward(g, ps, mh, frozen);
            let z = g.sigmoid(z_lin);
            let r_lin = self.gru_r.forward(g, ps, mh, frozen);
            let r = g.sigmoid(r_lin);
            let rh = g.mul(r, h);
            let mrh = g.concat_cols(&[m, rh]);
            let cand_lin = self.gru_h.forward(g, ps, mrh, frozen);
            let cand = g.tanh(cand_lin);
            // h' = (1 - z) ⊙ h + z ⊙ cand
            let one_minus_z = {
                let neg = g.neg(z);
                g.add_scalar(neg, 1.0)
            };
            let keep = g.mul(one_minus_z, h);
            let update = g.mul(z, cand);
            h = g.add(keep, update);
        }
        h
    }
}

/// The SG-CNN model: parameters live in an external [`ParamStore`].
#[derive(Debug, Clone)]
pub struct SgCnn {
    pub config: SgCnnConfig,
    embed_cov: Linear,
    covalent: PropagationStage,
    embed_noncov: Linear,
    noncovalent: PropagationStage,
    gate: Linear,
    transform: Linear,
    dense1: Linear,
    dense2: Linear,
    out: Linear,
    dropout_rng: StdRng,
}

/// Output of an SG-CNN forward pass.
pub struct SgCnnOutput {
    /// `[B, 1]` affinity predictions.
    pub pred: VarId,
    /// `[B, noncovalent_gather_width]` gathered latent (input to fusion;
    /// the paper extracts Layer^{N-3}).
    pub latent: VarId,
}

impl SgCnn {
    /// Builds the model, registering parameters under `prefix` in `ps`.
    pub fn new(cfg: &SgCnnConfig, ps: &mut ParamStore, prefix: &str, seed: u64) -> Self {
        let mut r = rng(seed);
        let cov_w = cfg.covalent_gather_width;
        let non_w = cfg.noncovalent_gather_width;
        let (w1, w2) = cfg.dense_widths();
        Self {
            config: cfg.clone(),
            embed_cov: Linear::new(
                ps,
                &format!("{prefix}.embed_cov"),
                NODE_FEATURES,
                cov_w,
                &mut r,
            ),
            covalent: PropagationStage::new(
                ps,
                &format!("{prefix}.cov"),
                cov_w,
                cfg.covalent_k,
                &mut r,
            ),
            embed_noncov: Linear::new(
                ps,
                &format!("{prefix}.embed_noncov"),
                cov_w + NODE_FEATURES,
                non_w,
                &mut r,
            ),
            noncovalent: PropagationStage::new(
                ps,
                &format!("{prefix}.noncov"),
                non_w,
                cfg.noncovalent_k,
                &mut r,
            ),
            gate: Linear::new(ps, &format!("{prefix}.gate"), non_w + NODE_FEATURES, non_w, &mut r),
            transform: Linear::new(ps, &format!("{prefix}.transform"), non_w, non_w, &mut r),
            dense1: Linear::new(ps, &format!("{prefix}.dense1"), non_w, w1, &mut r),
            dense2: Linear::new(ps, &format!("{prefix}.dense2"), w1, w2, &mut r),
            out: Linear::new(ps, &format!("{prefix}.out"), w2, 1, &mut r),
            dropout_rng: rng(dftensor::rng::derive_seed(seed, 0xD0)),
        }
    }

    /// Forward pass over a batched graph. `frozen` stops gradients into
    /// this model's parameters (used by Late/Mid-level fusion).
    pub fn forward(
        &mut self,
        g: &mut Graph,
        ps: &ParamStore,
        batch: &BatchedGraph,
        _train: bool,
        frozen: bool,
    ) -> SgCnnOutput {
        let n = batch.num_nodes();
        let x = g.input(batch.node_feats.clone());

        // Covalent stage.
        let h0 = self.embed_cov.forward(g, ps, x, frozen);
        let h0 = g.tanh(h0);
        let h_cov = self.covalent.forward(
            g,
            ps,
            h0,
            &batch.covalent_edges,
            &batch.covalent_dists,
            n,
            frozen,
        );

        // Non-covalent stage sees the covalent summary plus raw features.
        let hx = g.concat_cols(&[h_cov, x]);
        let h1 = self.embed_noncov.forward(g, ps, hx, frozen);
        let h1 = g.tanh(h1);
        let h_non = self.noncovalent.forward(
            g,
            ps,
            h1,
            &batch.noncovalent_edges,
            &batch.noncovalent_dists,
            n,
            frozen,
        );

        // Gated gather over ligand nodes only.
        let hx2 = g.concat_cols(&[h_non, x]);
        let gate_lin = self.gate.forward(g, ps, hx2, frozen);
        let gate = g.sigmoid(gate_lin);
        let trans_lin = self.transform.forward(g, ps, h_non, frozen);
        let trans = g.tanh(trans_lin);
        let gated = g.mul(gate, trans);
        // Zero out pocket nodes, then segment-sum per graph.
        let mask: Vec<f32> = batch.ligand_mask.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
        let width = self.config.noncovalent_gather_width;
        let mut mask_t = dftensor::Tensor::zeros(&[n, width]);
        for (i, &mv) in mask.iter().enumerate() {
            for v in &mut mask_t.data_mut()[i * width..(i + 1) * width] {
                *v = mv;
            }
        }
        let mask_v = g.input(mask_t);
        let ligand_only = g.mul(gated, mask_v);
        let latent = g.segment_sum(ligand_only, &batch.node_graph, batch.num_graphs);

        // Dense head.
        let d1 = self.dense1.forward(g, ps, latent, frozen);
        let d1 = g.relu(d1);
        let d2 = self.dense2.forward(g, ps, d1, frozen);
        let d2 = g.relu(d2);
        let pred = self.out.forward(g, ps, d2, frozen);
        SgCnnOutput { pred, latent }
    }

    /// Width of the latent vector exposed to fusion.
    pub fn latent_width(&self) -> usize {
        self.config.noncovalent_gather_width
    }

    /// Initializes the output bias (e.g. to the training-label mean) so
    /// optimization starts near the label scale instead of zero.
    pub fn set_output_bias(&self, ps: &mut ParamStore, value: f32) {
        ps.value_mut(self.out.b).data_mut()[0] = value;
    }

    /// Internal dropout RNG accessor (kept for API symmetry with the
    /// 3D-CNN; the SG-CNN search space fixes dropout at 0, Table 1).
    pub fn dropout_rng(&mut self) -> &mut StdRng {
        &mut self.dropout_rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfchem::featurize::{build_graph, GraphConfig};
    use dfchem::genmol::{generate_molecule, MolGenConfig};
    use dfchem::pocket::{BindingPocket, TargetSite};

    fn tiny_batch(n_graphs: usize) -> BatchedGraph {
        let pocket = BindingPocket::generate(TargetSite::Spike1, 1);
        let graphs: Vec<_> = (0..n_graphs)
            .map(|i| {
                let mut lig = generate_molecule(
                    &MolGenConfig { min_heavy: 6, max_heavy: 10, ..Default::default() },
                    "m",
                    i as u64,
                );
                let c = lig.centroid();
                lig.translate(c.scale(-1.0));
                build_graph(&GraphConfig::default(), &lig, &pocket)
            })
            .collect();
        BatchedGraph::from_graphs(&graphs)
    }

    fn tiny_model() -> (SgCnn, ParamStore) {
        let mut ps = ParamStore::new();
        let cfg = SgCnnConfig {
            covalent_gather_width: 6,
            noncovalent_gather_width: 10,
            covalent_k: 2,
            noncovalent_k: 1,
            ..SgCnnConfig::table2()
        };
        let model = SgCnn::new(&cfg, &mut ps, "sg", 3);
        (model, ps)
    }

    #[test]
    fn forward_shapes() {
        let (mut model, ps) = tiny_model();
        let batch = tiny_batch(3);
        let mut g = Graph::new();
        let out = model.forward(&mut g, &ps, &batch, false, false);
        assert_eq!(g.value(out.pred).shape(), &[3, 1]);
        assert_eq!(g.value(out.latent).shape(), &[3, 10]);
    }

    #[test]
    fn per_graph_predictions_are_independent_of_batching() {
        let (mut model, ps) = tiny_model();
        let batch3 = tiny_batch(3);
        let mut g = Graph::new();
        let out3 = model.forward(&mut g, &ps, &batch3, false, false);
        let preds3 = g.value(out3.pred).clone();
        // Singleton batches must reproduce each prediction bit for bit.
        for i in 0..3 {
            let pocket = BindingPocket::generate(TargetSite::Spike1, 1);
            let mut lig = generate_molecule(
                &MolGenConfig { min_heavy: 6, max_heavy: 10, ..Default::default() },
                "m",
                i as u64,
            );
            let c = lig.centroid();
            lig.translate(c.scale(-1.0));
            let single =
                BatchedGraph::from_graphs(&[build_graph(&GraphConfig::default(), &lig, &pocket)]);
            let mut g1 = Graph::new();
            let out1 = model.forward(&mut g1, &ps, &single, false, false);
            let p = g1.value(out1.pred).item();
            assert_eq!(
                p.to_bits(),
                preds3.data()[i].to_bits(),
                "graph {i}: batched {} vs single {p}",
                preds3.data()[i]
            );
        }
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let (mut model, mut ps) = tiny_model();
        let batch = tiny_batch(2);
        let mut g = Graph::new();
        let out = model.forward(&mut g, &ps, &batch, true, false);
        let target = g.input(dftensor::Tensor::zeros(&[2, 1]));
        let loss = g.mse_loss(out.pred, target);
        ps.zero_grad();
        g.backward(loss).accumulate_into(&mut ps);
        let mut dead = Vec::new();
        for (id, e) in ps.iter() {
            if e.grad.norm() == 0.0 {
                dead.push(ps.name(id).to_string());
            }
        }
        assert!(dead.is_empty(), "parameters with zero grad: {dead:?}");
    }

    #[test]
    fn frozen_forward_accumulates_nothing() {
        let (mut model, mut ps) = tiny_model();
        let batch = tiny_batch(2);
        let mut g = Graph::new();
        let out = model.forward(&mut g, &ps, &batch, true, true);
        let target = g.input(dftensor::Tensor::zeros(&[2, 1]));
        let loss = g.mse_loss(out.pred, target);
        ps.zero_grad();
        g.backward(loss).accumulate_into(&mut ps);
        for (_, e) in ps.iter() {
            assert_eq!(e.grad.norm(), 0.0);
        }
    }

    #[test]
    fn training_reduces_loss_on_tiny_problem() {
        let (mut model, mut ps) = tiny_model();
        let batch = tiny_batch(4);
        let target = dftensor::Tensor::from_vec(vec![4.0, 6.0, 8.0, 5.0], &[4, 1]);
        let mut opt = dftensor::optim::Adam::new(5e-3);
        use dftensor::optim::Optimizer;
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let mut g = Graph::new();
            let out = model.forward(&mut g, &ps, &batch, true, false);
            let t = g.input(target.clone());
            let loss = g.mse_loss(out.pred, t);
            last = g.value(loss).item();
            first.get_or_insert(last);
            ps.zero_grad();
            g.backward(loss).accumulate_into(&mut ps);
            opt.step(&mut ps);
        }
        assert!(last < first.unwrap() * 0.5, "loss {last} vs initial {}", first.unwrap());
    }
}
