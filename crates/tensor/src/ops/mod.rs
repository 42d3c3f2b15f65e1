//! Differentiable operations, implemented as inherent methods on
//! [`crate::graph::Graph`].
//!
//! Each sub-module contributes one family of ops; all follow the same
//! pattern: compute the forward value eagerly, then push a node whose
//! backward closure maps the output gradient to parent gradients.

mod conv;
mod elementwise;
pub(crate) mod gemm;
mod linalg;
mod loss;
pub mod microkernel;
mod norm;
mod pool;
pub mod reference;
mod segment;

pub use conv::{conv3d_backward_input, conv3d_backward_weight, conv3d_forward};
pub use gemm::{gemm_with, Spans, KC, MC};
pub use norm::BatchNormOut;

use crate::graph::{Graph, VarId};
use crate::tensor::Tensor;

/// Finite-difference gradient checker used by unit and property tests.
///
/// Builds the graph twice per perturbed element and compares the central
/// difference against the analytic gradient from [`Graph::backward`]. Only
/// meaningful for deterministic graph builders (no dropout).
pub struct GradCheck {
    /// Perturbation size.
    pub eps: f32,
    /// Maximum allowed absolute error between analytic and numeric grads.
    pub tol: f32,
}

impl Default for GradCheck {
    fn default() -> Self {
        Self { eps: 1e-2, tol: 2e-2 }
    }
}

impl GradCheck {
    /// Checks gradients of a scalar-valued graph builder w.r.t. every
    /// element of every input tensor.
    pub fn check(
        &self,
        inputs: &[Tensor],
        build: impl Fn(&mut Graph, &[VarId]) -> VarId,
    ) -> Result<(), String> {
        // Analytic gradients.
        let mut g = Graph::new();
        let vars: Vec<VarId> = inputs.iter().map(|t| g.input(t.clone())).collect();
        let loss = build(&mut g, &vars);
        if g.value(loss).numel() != 1 {
            return Err("gradcheck builder must return a scalar".into());
        }
        let grads = g.backward(loss);
        let analytic: Vec<Tensor> = vars
            .iter()
            .map(|&v| grads.grad(v).cloned().unwrap_or_else(|| Tensor::zeros(g.value(v).shape())))
            .collect();

        // Numeric gradients by central differences.
        for (ti, t) in inputs.iter().enumerate() {
            for ei in 0..t.numel() {
                let eval = |delta: f32| -> f32 {
                    let mut perturbed: Vec<Tensor> = inputs.to_vec();
                    perturbed[ti].clone_from(t);
                    perturbed[ti].data_mut()[ei] += delta;
                    let mut g2 = Graph::new();
                    let vs: Vec<VarId> = perturbed.iter().map(|p| g2.input(p.clone())).collect();
                    let l = build(&mut g2, &vs);
                    g2.value(l).item()
                };
                let numeric = (eval(self.eps) - eval(-self.eps)) / (2.0 * self.eps);
                let got = analytic[ti].data()[ei];
                if (numeric - got).abs() > self.tol {
                    return Err(format!(
                        "grad mismatch input {ti} elem {ei}: analytic {got}, numeric {numeric}"
                    ));
                }
            }
        }
        Ok(())
    }
}
