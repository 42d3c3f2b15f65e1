//! `dftensor` — the deep-learning substrate for the Deep Fusion
//! reproduction.
//!
//! A small, deterministic, CPU-only replacement for the slice of PyTorch the
//! SC'21 paper depends on:
//!
//! * dense `f32` [`Tensor`]s with the raw kernels (matmul, conv3d, pooling,
//!   segment gather/scatter) the fusion models need,
//! * a tape-based reverse-mode autodiff [`Graph`],
//! * layer building blocks in [`nn`] (Linear, Conv3d, BatchNorm, Dropout),
//! * the optimizer family from the paper's Table 1 in [`optim`],
//! * [`math`], the transcendentals the workspace owns instead of taking
//!   from the host libm (today `tanh`, a bit-exact port of fdlibm's),
//! * seeded randomness helpers in [`rng`] and the one FNV-1a [`hash`], both
//!   shared by the whole workspace,
//! * [`HotSwap`], the generation-stamped weight store serving tiers read.
//!
//! Design notes: a `Graph` is built per forward pass; parameters live in a
//! [`ParamStore`] and are injected either trainable or frozen, which is how
//! the Late/Mid-level (frozen heads) vs. Coherent (end-to-end) fusion
//! variants are expressed with one code path.

pub mod graph;
pub mod hash;
pub mod hotswap;
pub mod init;
pub mod math;
pub mod nn;
pub mod ops;
pub mod optim;
pub mod params;
pub mod rng;
pub mod scratch;
pub mod serialize;
pub mod shape;
pub mod tensor;

pub use graph::{BackCtx, Gradients, Graph, VarId};
pub use hotswap::{Architecture, Generation, HotSwap};
pub use nn::{Activation, BatchNorm, Conv3d, Dropout, Linear};
pub use ops::{BatchNormOut, GradCheck};
pub use optim::{Adadelta, Adam, AdamW, Optimizer, OptimizerKind, RmsProp, Sgd};
pub use params::{ParamId, ParamSnapshot, ParamStore};
pub use serialize::{load_params, save_params, CheckpointError};
pub use tensor::Tensor;
