//! Dense, row-major `f32` tensor used throughout the workspace.
//!
//! This is the substrate that replaces PyTorch's `torch.Tensor` for the
//! reproduction: contiguous storage, explicit shapes, and the raw numeric
//! kernels (elementwise maths, matmul, reductions) that the autodiff layer
//! in [`crate::graph`] builds on.

use crate::ops::gemm::{gemm, Layout};
use crate::rng::normal;
use crate::shape::{assert_same_shape, flat_index, numel, strides};
use rand::Rng;

/// A dense, row-major tensor of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{} values])", self.data.len())
        }
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from raw data and a shape; lengths must agree.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(shape),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self { data, shape: shape.to_vec() }
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(v: f32) -> Self {
        Self { data: vec![v], shape: vec![] }
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self { data: data.to_vec(), shape: vec![data.len()] }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self { data: vec![0.0; numel(shape)], shape: shape.to_vec() }
    }

    /// Creates a one-filled tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a constant-filled tensor.
    pub fn full(shape: &[usize], v: f32) -> Self {
        Self { data: vec![v; numel(shape)], shape: shape.to_vec() }
    }

    /// Creates a tensor of i.i.d. standard-normal samples.
    pub fn randn(shape: &[usize], rng: &mut impl Rng) -> Self {
        let data = (0..numel(shape)).map(|_| normal(rng) as f32).collect();
        Self { data, shape: shape.to_vec() }
    }

    /// Creates a tensor of uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let data = (0..numel(shape)).map(|_| lo + (hi - lo) * rng.gen::<f32>()).collect();
        Self { data, shape: shape.to_vec() }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Tensor rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access by multi-index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[flat_index(&self.shape, idx)]
    }

    /// Mutable element access by multi-index.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = flat_index(&self.shape, idx);
        &mut self.data[off]
    }

    /// The single value of a scalar or one-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() requires exactly one element, shape {:?}",
            self.shape
        );
        self.data[0]
    }

    /// Row-major strides.
    pub fn strides(&self) -> Vec<usize> {
        strides(&self.shape)
    }

    // ------------------------------------------------------------------
    // Shape manipulation (contiguous, so these are cheap/metadata-only)
    // ------------------------------------------------------------------

    /// Reinterprets the tensor with a new shape of identical element count.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            numel(shape),
            self.data.len(),
            "cannot reshape {:?} ({} elems) to {:?}",
            self.shape,
            self.data.len(),
            shape
        );
        Tensor { data: self.data.clone(), shape: shape.to_vec() }
    }

    /// Flattens to 1-D.
    pub fn flatten(&self) -> Tensor {
        self.reshape(&[self.data.len()])
    }

    /// Transposes a 2-D tensor.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose2 requires rank 2, got {:?}", self.shape);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Elementwise maths
    // ------------------------------------------------------------------

    /// Applies a function to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { data: self.data.iter().map(|&x| f(x)).collect(), shape: self.shape.clone() }
    }

    /// Applies a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shape tensors elementwise.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_same_shape(&self.shape, &other.shape, "zip");
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise multiplication.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise division.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a / b)
    }

    /// Adds `other * scale` into `self` in place (axpy).
    pub fn add_scaled_inplace(&mut self, other: &Tensor, scale: f32) {
        assert_same_shape(&self.shape, &other.shape, "add_scaled_inplace");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (accumulated in f64 for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.sum() / self.data.len() as f32
    }

    /// Maximum element; NaNs are ignored unless all values are NaN.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        (self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>()).sqrt() as f32
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix multiplication of two rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// Lowered onto the packed, cache-blocked GEMM in `ops::gemm` (see its
    /// module docs for the blocking scheme and the accumulation-order
    /// contract). The dense path multiplies every element — there is no
    /// zero-skip; sparse gather/scatter lives in `ops::segment`, which never
    /// routes through matmul.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let _t = dftrace::span("tensor.matmul");
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2, got {:?}", self.shape);
        assert_eq!(other.rank(), 2, "matmul rhs must be rank 2, got {:?}", other.shape);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims differ: {:?} x {:?}", self.shape, other.shape);
        let mut out = vec![0.0f32; m * n];
        gemm(Layout::Nn, m, k, n, &self.data, &other.data, &mut out);
        Tensor { data: out, shape: vec![m, n] }
    }

    /// `self^T x other` without materializing the transpose: for
    /// `self: [k,m]`, `other: [k,n]` yields `[m,n]`. Same GEMM core as
    /// [`Tensor::matmul`]; the transpose is absorbed into the A-panel pack.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let _t = dftrace::span("tensor.matmul_tn");
        assert_eq!(self.rank(), 2);
        assert_eq!(other.rank(), 2);
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_tn inner dims differ: {:?} x {:?}", self.shape, other.shape);
        let mut out = vec![0.0f32; m * n];
        gemm(Layout::Tn, m, k, n, &self.data, &other.data, &mut out);
        Tensor { data: out, shape: vec![m, n] }
    }

    /// `self x other^T`: for `self: [m,k]`, `other: [n,k]` yields `[m,n]`.
    /// Same GEMM core as [`Tensor::matmul`]; the transpose is absorbed into
    /// the B-panel pack.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let _t = dftrace::span("tensor.matmul_nt");
        assert_eq!(self.rank(), 2);
        assert_eq!(other.rank(), 2);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_nt inner dims differ: {:?} x {:?}", self.shape, other.shape);
        let mut out = vec![0.0f32; m * n];
        gemm(Layout::Nt, m, k, n, &self.data, &other.data, &mut out);
        Tensor { data: out, shape: vec![m, n] }
    }

    /// Row slice of a rank-2 tensor.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires rank 2");
        let n = self.shape[1];
        &self.data[i * n..(i + 1) * n]
    }

    /// Checks approximate equality within an absolute tolerance.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol || (a.is_nan() && b.is_nan()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn construction_checks_length() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1., 2., 3.]);
        let b = Tensor::from_slice(&[4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).data(), &[4., 10., 18.]);
        assert_eq!(b.div(&a).data(), &[4., 2.5, 2.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
        assert_eq!(a.add_scalar(1.0).data(), &[2., 3., 4.]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1., -2., 3., 4.]);
        assert_eq!(t.sum(), 6.0);
        assert_eq!(t.mean(), 1.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), -2.0);
        assert!((t.norm() - (30.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::from_vec(vec![7., 8., 9., 10., 11., 12.], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_variants_agree() {
        let mut r = rng(11);
        let a = Tensor::randn(&[4, 6], &mut r);
        let b = Tensor::randn(&[6, 5], &mut r);
        let base = a.matmul(&b);
        let tn = a.transpose2().matmul_tn(&b);
        let nt = a.matmul_nt(&b.transpose2());
        assert!(base.allclose(&tn, 1e-4));
        assert!(base.allclose(&nt, 1e-4));
    }

    #[test]
    fn transpose_round_trip() {
        let mut r = rng(5);
        let a = Tensor::randn(&[3, 7], &mut r);
        assert!(a.transpose2().transpose2().allclose(&a, 0.0));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1., 2., 3., 4.]);
        let r = t.reshape(&[2, 2]);
        assert_eq!(r.at(&[1, 0]), 3.0);
        assert_eq!(r.flatten().data(), t.data());
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[3]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }
}
