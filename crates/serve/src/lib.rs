//! dfserve: online fusion-model scoring as a deterministic service.
//!
//! The screening pipeline scores compounds in huge offline campaigns; this
//! crate serves the same trained [`FusionModel`](dffusion::FusionModel)
//! *online* — score requests (compound + target pocket) arrive one at a
//! time and are answered with dynamically-formed micro-batches. The design
//! constraints mirror the rest of the workspace:
//!
//! * **Deterministic.** The service core is a virtual-clock state machine
//!   ([`ScoreService`]): timestamps are caller-supplied ticks, batching
//!   and shedding are pure functions of the admission sequence, and model
//!   compute rides `dfpool`'s bit-deterministic primitives. Same seed ⇒
//!   bit-identical scores and shed decisions at any worker count, with
//!   tracing on or off.
//! * **Bounded.** Admission runs a degradation ladder
//!   ([`AdmissionController`]): full fusion while the queue is shallow,
//!   the SG-CNN head alone as depth builds, the Vina empirical score near
//!   saturation, and a hard shed at `queue_capacity` — queue growth is
//!   bounded by construction.
//! * **Cached.** Scores and featurizations live in content-addressed LRU
//!   caches ([`LruCache`]): keys are fnv1a64 digests of canonical
//!   featurization bytes mixed with the scoring tier and the live weight
//!   generation, so a hot-swap ([`SnapshotRegistry::publish`])
//!   invalidates stale scores by missing instead of flushing.
//! * **Observable.** Queue waits, end-to-end latencies and batch sizes
//!   flow into `dftrace` histograms; admissions, sheds, per-tier
//!   completions and cache traffic into counters — all write-only, so
//!   traced and untraced runs stay bit-identical.
//!
//! * **Sharded.** [`Fleet`] replicates the state machine N ways behind a
//!   deterministic consistent-hash router ([`router`]): canonical
//!   compound bytes hash onto a virtual-node ring, each shard keeps its
//!   own caches (still invalidated by the shared snapshot generations),
//!   a down shard fails over to its ring successors under the offline
//!   scheduler's deterministic retry/backoff, and per-shard depth
//!   watermarks feed the ladder so a hot shard degrades before it sheds.
//!
//! Offered load for tests and benches comes from the seeded traffic
//! simulator in [`sim`]: open-loop Poisson arrivals (overload shape,
//! optionally Zipf-skewed popularity, single-instance or fleet-wide with
//! a shard-failure fault plan) and closed-loop think-time clients
//! (nominal shape), both on the virtual clock. A wall-clock threaded
//! front-end ([`spawn_server`]) wraps the state machine behind a bounded
//! channel for interactive use.

#![warn(missing_docs)]

pub mod admission;
pub mod batcher;
pub mod cache;
pub mod fleet;
pub mod registry;
pub mod request;
pub mod router;
pub mod service;
pub mod sim;

pub use admission::{AdmissionController, Decision, LadderConfig};
pub use batcher::{BatcherConfig, ClosedBatch, MicroBatcher};
pub use cache::{CacheStats, LruCache};
pub use dftensor::hash::{fnv1a64, fnv1a64_update};
pub use fleet::{Fleet, FleetConfig, FleetOutcome, FleetStats};
pub use registry::{Generation, ModelSpec, SnapshotRegistry};
pub use request::{ScoreRequest, ScoreResponse, SubmitOutcome, Ticks, Tier, TICKS_PER_SEC};
pub use router::{routing_key, HashRing, KeyCache, WatermarkConfig, DEFAULT_VNODES};
pub use service::{
    spawn_server, CostModel, ScoreService, ServeConfig, ServerHandle, ServiceStats, TimedRequest,
};
pub use sim::{
    run_closed_loop, run_fleet_open_loop, run_open_loop, FaultEvent, FaultPlan, FleetSimReport,
    SimReport, TrafficConfig, ZipfConfig,
};
