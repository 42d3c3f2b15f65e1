//! Request/response types and the virtual time base.
//!
//! The service never reads a wall clock: every timestamp is a **virtual
//! tick** supplied by the caller (the traffic simulator during tests and
//! benches, a monotonic µs counter in the threaded front-end). One tick is
//! defined as one virtual microsecond, so latency histograms recorded in
//! ticks read directly against the wall-clock µs conventions of `dftrace`.

use dfchem::genmol::CompoundId;
use dfchem::pocket::TargetSite;
use serde::{Deserialize, Serialize};

/// Virtual time, in ticks (one tick = one virtual microsecond).
pub type Ticks = u64;

/// Ticks per virtual second.
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// One score request: which compound against which target pocket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScoreRequest {
    /// Caller-assigned id, echoed in the response.
    pub id: u64,
    /// The compound to score (materialized deterministically from its id).
    pub compound: CompoundId,
    /// The target pocket to score against.
    pub target: TargetSite,
}

/// The degradation ladder's scoring tiers, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Full fusion model: 3D-CNN + SG-CNN + fusion layers.
    FullFusion,
    /// SG-CNN head only (no voxelization, no 3D convolution).
    SgHead,
    /// Fingerprint-MLP docking surrogate (`dfsurrogate`): topology-only
    /// featurization, two or three tiny GEMMs, no pocket geometry. Sits
    /// between the learned model lanes and the physics fallback.
    Surrogate,
    /// Vina empirical score (no featurization, no weights).
    Vina,
    /// Ligand-only desirability score (no pocket at all): descriptors +
    /// fingerprint via `dfchem::ligand_score`. The deepest non-shed rung.
    LigandOnly,
}

impl Tier {
    /// All scoring tiers, best first.
    pub const ALL: [Tier; 5] =
        [Tier::FullFusion, Tier::SgHead, Tier::Surrogate, Tier::Vina, Tier::LigandOnly];

    /// Short identifier used in metric names and reports.
    pub fn tag(self) -> &'static str {
        match self {
            Tier::FullFusion => "full",
            Tier::SgHead => "sg_head",
            Tier::Surrogate => "surrogate",
            Tier::Vina => "vina",
            Tier::LigandOnly => "ligand_only",
        }
    }
}

/// A completed scoring, with its virtual-time accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoreResponse {
    /// Echo of [`ScoreRequest::id`].
    pub request_id: u64,
    /// Echo of the scored compound.
    pub compound: CompoundId,
    /// Echo of the target.
    pub target: TargetSite,
    /// Predicted binding affinity (tier-dependent scale).
    pub score: f32,
    /// Which ladder tier produced the score.
    pub tier: Tier,
    /// True when the score came out of the content-addressed cache.
    pub cache_hit: bool,
    /// Model-snapshot generation that produced the score (0 = initial
    /// weights; Vina responses echo the generation current at admission;
    /// surrogate responses carry the *surrogate* registry's generation).
    pub generation: u64,
    /// Tick at which the request was admitted.
    pub admitted_at: Ticks,
    /// Tick at which its micro-batch began executing.
    pub started_at: Ticks,
    /// Tick at which the score became available.
    pub completed_at: Ticks,
}

impl ScoreResponse {
    /// Admission → batch start (ticks).
    pub fn queue_wait(&self) -> Ticks {
        self.started_at.saturating_sub(self.admitted_at)
    }

    /// Admission → completion (ticks).
    pub fn e2e(&self) -> Ticks {
        self.completed_at.saturating_sub(self.admitted_at)
    }
}

/// What [`crate::ScoreService::submit`] did with a request.
#[derive(Debug, Clone)]
pub enum SubmitOutcome {
    /// Answered immediately: a score-cache hit, or one of the inline
    /// tiers (surrogate, Vina, ligand-only).
    Completed(ScoreResponse),
    /// Queued into a micro-batch at the given tier; the response surfaces
    /// from a later [`crate::ScoreService::advance`].
    Enqueued(Tier),
    /// Load-shed: every queue past its bound. `depth` is the queue depth
    /// that triggered the shed.
    Shed {
        /// Queue depth observed at admission.
        depth: usize,
    },
}
