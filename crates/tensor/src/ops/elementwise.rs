//! Elementwise and shape-preserving differentiable ops.

use crate::graph::{Graph, VarId};
use crate::math;
use crate::tensor::Tensor;
use rand::Rng;

/// SELU constants from Klambauer et al. 2017 ("Self-Normalizing Neural
/// Networks"), the activation the paper's optimization selected for both
/// fusion models (Tables 4 and 5).
pub const SELU_ALPHA: f32 = 1.673_263_2;
pub const SELU_SCALE: f32 = 1.050_701;

impl Graph {
    /// Elementwise addition of two same-shape tensors.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).add(self.value(b));
        self.push_op(vec![a, b], v, Box::new(|ctx| vec![ctx.grad.clone(), ctx.grad.clone()]))
    }

    /// Elementwise subtraction `a - b`.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).sub(self.value(b));
        self.push_op(vec![a, b], v, Box::new(|ctx| vec![ctx.grad.clone(), ctx.grad.scale(-1.0)]))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).mul(self.value(b));
        self.push_op(
            vec![a, b],
            v,
            Box::new(|ctx| vec![ctx.grad.mul(ctx.parents[1]), ctx.grad.mul(ctx.parents[0])]),
        )
    }

    /// Multiplies by a compile-time scalar.
    pub fn scale(&mut self, a: VarId, s: f32) -> VarId {
        let v = self.value(a).scale(s);
        self.push_op(vec![a], v, Box::new(move |ctx| vec![ctx.grad.scale(s)]))
    }

    /// Adds a compile-time scalar.
    pub fn add_scalar(&mut self, a: VarId, s: f32) -> VarId {
        let v = self.value(a).add_scalar(s);
        self.push_op(vec![a], v, Box::new(|ctx| vec![ctx.grad.clone()]))
    }

    /// Negation.
    pub fn neg(&mut self, a: VarId) -> VarId {
        self.scale(a, -1.0)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| x * x);
        self.push_op(
            vec![a],
            v,
            Box::new(|ctx| vec![ctx.grad.zip(ctx.parents[0], |g, x| 2.0 * g * x)]),
        )
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push_op(
            vec![a],
            v,
            Box::new(|ctx| {
                vec![ctx.grad.zip(ctx.parents[0], |g, x| if x > 0.0 { g } else { 0.0 })]
            }),
        )
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: VarId, slope: f32) -> VarId {
        let v = self.value(a).map(|x| if x > 0.0 { x } else { slope * x });
        self.push_op(
            vec![a],
            v,
            Box::new(move |ctx| {
                vec![ctx.grad.zip(ctx.parents[0], |g, x| if x > 0.0 { g } else { slope * g })]
            }),
        )
    }

    /// SELU activation (Klambauer et al. 2017).
    pub fn selu(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| {
            if x > 0.0 {
                SELU_SCALE * x
            } else {
                SELU_SCALE * SELU_ALPHA * (x.exp() - 1.0)
            }
        });
        self.push_op(
            vec![a],
            v,
            Box::new(|ctx| {
                // d/dx = scale for x > 0; scale*alpha*exp(x) = out + scale*alpha otherwise.
                let deriv = ctx.out.zip(ctx.parents[0], |o, x| {
                    if x > 0.0 {
                        SELU_SCALE
                    } else {
                        o + SELU_SCALE * SELU_ALPHA
                    }
                });
                vec![ctx.grad.mul(&deriv)]
            }),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push_op(
            vec![a],
            v,
            Box::new(|ctx| vec![ctx.grad.zip(ctx.out, |g, y| g * y * (1.0 - y))]),
        )
    }

    /// Hyperbolic tangent ([`crate::math::tanh`]).
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let mut v = self.value(a).clone();
        math::tanh_inplace(v.data_mut());
        self.push_op(
            vec![a],
            v,
            Box::new(|ctx| vec![ctx.grad.zip(ctx.out, |g, y| g * (1.0 - y * y))]),
        )
    }

    /// Mean over all elements, producing a scalar.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let n = self.value(a).numel().max(1);
        let v = Tensor::scalar(self.value(a).mean());
        self.push_op(
            vec![a],
            v,
            Box::new(move |ctx| {
                let g = ctx.grad.item() / n as f32;
                vec![Tensor::full(ctx.parents[0].shape(), g)]
            }),
        )
    }

    /// Sum over all elements, producing a scalar.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let v = Tensor::scalar(self.value(a).sum());
        self.push_op(
            vec![a],
            v,
            Box::new(|ctx| vec![Tensor::full(ctx.parents[0].shape(), ctx.grad.item())]),
        )
    }

    /// Adds a 1-D bias of length `n` to a tensor whose last dimension is `n`
    /// (broadcast over all leading dimensions).
    pub fn add_bias(&mut self, x: VarId, b: VarId) -> VarId {
        let xt = self.value(x);
        let bt = self.value(b);
        let n = *xt.shape().last().expect("add_bias needs rank >= 1");
        assert_eq!(
            bt.shape(),
            &[n],
            "bias shape {:?} incompatible with input {:?}",
            bt.shape(),
            xt.shape()
        );
        let mut out = xt.clone();
        // `chunks_exact(0)` panics; an empty last dimension has nothing to add.
        if n > 0 {
            for row in out.data_mut().chunks_exact_mut(n) {
                for (v, &bv) in row.iter_mut().zip(bt.data()) {
                    *v += bv;
                }
            }
        }
        self.push_op(
            vec![x, b],
            out,
            Box::new(move |ctx| {
                // Each bias gradient sums its column over rows, ascending.
                let mut db = Tensor::zeros(&[n]);
                if n > 0 {
                    for row in ctx.grad.data().chunks_exact(n) {
                        for (d, &g) in db.data_mut().iter_mut().zip(row) {
                            *d += g;
                        }
                    }
                }
                vec![ctx.grad.clone(), db]
            }),
        )
    }

    /// Column-wise concatenation of rank-2 tensors with equal row counts.
    pub fn concat_cols(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "concat_cols on empty list");
        let m = self.value(parts[0]).shape()[0];
        let widths: Vec<usize> = parts
            .iter()
            .map(|&p| {
                let s = self.value(p).shape();
                assert_eq!(s.len(), 2, "concat_cols requires rank-2 inputs, got {s:?}");
                assert_eq!(s[0], m, "concat_cols row mismatch");
                s[1]
            })
            .collect();
        let total: usize = widths.iter().sum();
        let mut out = Tensor::zeros(&[m, total]);
        {
            let od = out.data_mut();
            let mut col = 0usize;
            for (&p, &w) in parts.iter().zip(&widths) {
                let pd = self.value(p).data();
                for r in 0..m {
                    od[r * total + col..r * total + col + w]
                        .copy_from_slice(&pd[r * w..(r + 1) * w]);
                }
                col += w;
            }
        }
        let widths_c = widths.clone();
        self.push_op(
            parts.to_vec(),
            out,
            Box::new(move |ctx| {
                let gd = ctx.grad.data();
                let mut grads = Vec::with_capacity(widths_c.len());
                let mut col = 0usize;
                for &w in &widths_c {
                    let mut g = Tensor::zeros(&[m, w]);
                    for r in 0..m {
                        g.data_mut()[r * w..(r + 1) * w]
                            .copy_from_slice(&gd[r * total + col..r * total + col + w]);
                    }
                    grads.push(g);
                    col += w;
                }
                grads
            }),
        )
    }

    /// Row-wise concatenation of rank-2 tensors with equal column counts.
    pub fn concat_rows(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "concat_rows on empty list");
        let n = self.value(parts[0]).shape()[1];
        let heights: Vec<usize> = parts
            .iter()
            .map(|&p| {
                let s = self.value(p).shape();
                assert_eq!(s.len(), 2, "concat_rows requires rank-2 inputs");
                assert_eq!(s[1], n, "concat_rows col mismatch");
                s[0]
            })
            .collect();
        let total: usize = heights.iter().sum();
        let mut data = Vec::with_capacity(total * n);
        for &p in parts {
            data.extend_from_slice(self.value(p).data());
        }
        let heights_c = heights.clone();
        self.push_op(
            parts.to_vec(),
            Tensor::from_vec(data, &[total, n]),
            Box::new(move |ctx| {
                let gd = ctx.grad.data();
                let mut grads = Vec::with_capacity(heights_c.len());
                let mut row = 0usize;
                for &h in &heights_c {
                    grads.push(Tensor::from_vec(gd[row * n..(row + h) * n].to_vec(), &[h, n]));
                    row += h;
                }
                grads
            }),
        )
    }

    /// Extracts columns `[start, start+len)` of a rank-2 tensor.
    pub fn slice_cols(&mut self, x: VarId, start: usize, len: usize) -> VarId {
        let xt = self.value(x);
        assert_eq!(xt.rank(), 2, "slice_cols requires rank 2");
        let (m, n) = (xt.shape()[0], xt.shape()[1]);
        assert!(start + len <= n, "slice_cols out of range");
        let mut out = Tensor::zeros(&[m, len]);
        for r in 0..m {
            out.data_mut()[r * len..(r + 1) * len]
                .copy_from_slice(&xt.data()[r * n + start..r * n + start + len]);
        }
        self.push_op(
            vec![x],
            out,
            Box::new(move |ctx| {
                let mut g = Tensor::zeros(&[m, n]);
                for r in 0..m {
                    g.data_mut()[r * n + start..r * n + start + len]
                        .copy_from_slice(&ctx.grad.data()[r * len..(r + 1) * len]);
                }
                vec![g]
            }),
        )
    }

    /// Differentiable reshape.
    pub fn reshape(&mut self, x: VarId, shape: &[usize]) -> VarId {
        let v = self.value(x).reshape(shape);
        let orig = self.value(x).shape().to_vec();
        self.push_op(vec![x], v, Box::new(move |ctx| vec![ctx.grad.reshape(&orig)]))
    }

    /// Inverted dropout: during training zeroes each element with
    /// probability `rate` and scales survivors by `1/(1-rate)`; identity in
    /// eval mode. The mask is sampled from the supplied RNG so training runs
    /// remain reproducible.
    pub fn dropout(&mut self, x: VarId, rate: f32, train: bool, rng: &mut impl Rng) -> VarId {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0,1), got {rate}");
        if !train || rate == 0.0 {
            // Identity node keeps the tape structure uniform.
            let v = self.value(x).clone();
            return self.push_op(vec![x], v, Box::new(|ctx| vec![ctx.grad.clone()]));
        }
        let keep = 1.0 - rate;
        let mask: Vec<f32> = (0..self.value(x).numel())
            .map(|_| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 })
            .collect();
        let mask_t = Tensor::from_vec(mask, self.value(x).shape());
        let v = self.value(x).mul(&mask_t);
        self.push_op(vec![x], v, Box::new(move |ctx| vec![ctx.grad.mul(&mask_t)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::GradCheck;
    use crate::rng::rng;

    #[test]
    fn grad_add_sub_mul() {
        let mut r = rng(1);
        let a = Tensor::randn(&[3, 2], &mut r);
        let b = Tensor::randn(&[3, 2], &mut r);
        GradCheck::default()
            .check(&[a.clone(), b.clone()], |g, v| {
                let s = g.add(v[0], v[1]);
                let d = g.sub(s, v[1]);
                let m = g.mul(d, v[1]);
                g.sum_all(m)
            })
            .unwrap();
    }

    #[test]
    fn grad_activations() {
        let mut r = rng(2);
        let x = Tensor::rand_uniform(&[10], -2.0, 2.0, &mut r);
        for act in ["relu", "lrelu", "selu", "sigmoid", "tanh"] {
            GradCheck { eps: 1e-2, tol: 3e-2 }
                .check(std::slice::from_ref(&x), |g, v| {
                    let y = match act {
                        "relu" => g.relu(v[0]),
                        "lrelu" => g.leaky_relu(v[0], 0.1),
                        "selu" => g.selu(v[0]),
                        "sigmoid" => g.sigmoid(v[0]),
                        _ => g.tanh(v[0]),
                    };
                    g.sum_all(y)
                })
                .unwrap_or_else(|e| panic!("{act}: {e}"));
        }
    }

    #[test]
    fn selu_matches_reference_values() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_slice(&[1.0, 0.0, -1.0]));
        let y = g.selu(x);
        let v = g.value(y).data();
        assert!((v[0] - SELU_SCALE).abs() < 1e-5);
        assert!(v[1].abs() < 1e-6);
        let expect = SELU_SCALE * SELU_ALPHA * ((-1.0f32).exp() - 1.0);
        assert!((v[2] - expect).abs() < 1e-5);
    }

    #[test]
    fn grad_bias_and_mean() {
        let mut r = rng(3);
        let x = Tensor::randn(&[4, 3], &mut r);
        let b = Tensor::randn(&[3], &mut r);
        GradCheck::default()
            .check(&[x, b], |g, v| {
                let y = g.add_bias(v[0], v[1]);
                g.mean_all(y)
            })
            .unwrap();
    }

    #[test]
    fn add_bias_broadcasts_over_every_leading_dimension() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 2, 3]));
        let b = g.input(Tensor::from_slice(&[10.0, 20.0, 30.0]));
        let y = g.add_bias(x, b);
        assert_eq!(g.value(y).shape(), &[2, 2, 3]);
        let want: Vec<f32> = (0..12).map(|v| v as f32 + [10.0, 20.0, 30.0][v % 3]).collect();
        assert_eq!(g.value(y).data(), want.as_slice());
        let s = g.sum_all(y);
        let grads = g.backward(s);
        assert_eq!(grads.grad(b).expect("bias grad").data(), &[4.0, 4.0, 4.0]);
    }

    #[test]
    fn add_bias_with_one_column() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]));
        let b = g.input(Tensor::from_slice(&[0.5]));
        let y = g.add_bias(x, b);
        assert_eq!(g.value(y).data(), &[1.5, 2.5, 3.5]);
        let s = g.sum_all(y);
        let grads = g.backward(s);
        assert_eq!(grads.grad(b).expect("bias grad").data(), &[3.0]);
    }

    #[test]
    fn add_bias_on_an_empty_last_dimension_is_empty() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(&[4, 0]));
        let b = g.input(Tensor::zeros(&[0]));
        let y = g.add_bias(x, b);
        assert_eq!(g.value(y).shape(), &[4, 0]);
        assert!(g.value(y).data().is_empty());
        let s = g.sum_all(y);
        let grads = g.backward(s);
        assert!(grads.grad(b).expect("bias grad").data().is_empty());
    }

    #[test]
    fn concat_cols_layout() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]));
        let b = g.input(Tensor::from_vec(vec![5., 6.], &[2, 1]));
        let c = g.concat_cols(&[a, b]);
        assert_eq!(g.value(c).shape(), &[2, 3]);
        assert_eq!(g.value(c).data(), &[1., 2., 5., 3., 4., 6.]);
    }

    #[test]
    fn grad_concat_and_slice() {
        let mut r = rng(4);
        let a = Tensor::randn(&[2, 3], &mut r);
        let b = Tensor::randn(&[2, 2], &mut r);
        GradCheck::default()
            .check(&[a, b], |g, v| {
                let c = g.concat_cols(&[v[0], v[1]]);
                let s = g.slice_cols(c, 1, 3);
                let sq = g.square(s);
                g.sum_all(sq)
            })
            .unwrap();
    }

    #[test]
    fn concat_rows_stacks() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(vec![1., 2.], &[1, 2]));
        let b = g.input(Tensor::from_vec(vec![3., 4., 5., 6.], &[2, 2]));
        let c = g.concat_rows(&[a, b]);
        assert_eq!(g.value(c).shape(), &[3, 2]);
        assert_eq!(g.value(c).data(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn dropout_eval_is_identity_train_scales() {
        let mut r = rng(5);
        let x = Tensor::ones(&[1000]);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let eval = g.dropout(xv, 0.5, false, &mut r);
        assert!(g.value(eval).allclose(&x, 0.0));
        let train = g.dropout(xv, 0.5, true, &mut r);
        // Expectation preserved: mean stays near 1.
        assert!((g.value(train).mean() - 1.0).abs() < 0.15);
        // Surviving entries are scaled by 2.
        assert!(g.value(train).data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }
}
