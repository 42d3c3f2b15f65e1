//! `dfsurrogate` — a fingerprint-MLP docking surrogate.
//!
//! The paper's funnel only becomes tractable at the multi-million-compound
//! scale if a cheap learned model triages the library before full docking
//! (Clyde et al., arXiv:2106.07036 prefilter ~100x more compounds than the
//! docking pipeline can afford). This crate is that tier: a small
//! multi-layer perceptron over `dfchem` ECFP bitsets, trained against the
//! Vina/MM-GBSA scores the dock crate produces, cheap enough to score an
//! entire library between docking waves.
//!
//! * [`model`] — the regressor itself: [`SurrogateConfig`] builds a 1–2
//!   hidden-layer MLP ([`SurrogateMlp`]) on `dftensor`'s autodiff graph;
//!   [`featurize`] expands a [`Fingerprint`](dfchem::Fingerprint) bitset
//!   into the 0/1 input row; prediction is batched GEMM, bit-identical at
//!   any `dfpool` lane count.
//! * [`train`](mod@train) — deterministic minibatch SGD/Adam over a labeled pool:
//!   fixed seeded shuffles, serial optimizer steps, so the same pool and
//!   seed reproduce the same weights bit-for-bit with tracing on or off.
//! * [`registry`] — generation-stamped hot-swap of trained weights, the
//!   same [`dftensor::HotSwap`] store as `dfserve`'s snapshot registry:
//!   publishing a [`ParamSnapshot`](dftensor::params::ParamSnapshot)
//!   validates it against a freshly built store and bumps the generation
//!   that content-addressed score-cache keys mix in.
//!
//! The active-learning campaign driver that closes the loop — surrogate
//! rank, dock the top slice, retrain, hot-swap — lives in
//! `dfhts::active`; the serving-side degradation tier lives in `dfserve`.
//! `docs/SURROGATE.md` documents the model, the loop and the enrichment
//! metrics used to evaluate it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod registry;
pub mod train;

pub use model::{
    descriptor_row, featurize, featurize_compound, fingerprint_content_hash, snapshot_hash,
    SurrogateConfig, SurrogateMlp, DESCRIPTOR_CHANNELS,
};
pub use registry::SurrogateRegistry;
pub use train::{train, LabeledExample, TrainConfig, TrainReport};
