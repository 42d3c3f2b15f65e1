//! The scoring service: admission, micro-batching, caching, degradation
//! and virtual-time execution, all in one deterministic state machine.
//!
//! [`ScoreService`] is single-owner and synchronous: callers feed it
//! `(tick, request)` pairs via [`ScoreService::submit`] and pump completed
//! responses out with [`ScoreService::advance`]. All queueing, batching
//! and shedding behavior is a pure function of that admission sequence —
//! the wall clock never enters the picture, which is what lets the
//! determinism-lock tests demand bit-identical scores *and* identical shed
//! decisions across worker-thread counts and trace on/off.
//!
//! Server occupancy is modeled with a virtual cost model: each executed
//! batch occupies the single virtual server for `base + n·per_item` ticks
//! starting at `max(closed_at, busy_until)`. Items in flight count toward
//! the ladder's queue depth until their batch's completion tick is
//! reached, so overload shows up as depth, depth drives the degradation
//! ladder, and the hard `queue_capacity` bound keeps growth bounded by
//! construction.
//!
//! The wall-clock threaded front-end ([`spawn_server`]) wraps this state
//! machine behind a bounded channel served by a dedicated dispatcher
//! thread; intra-batch model compute runs on a `dfpool` pool, whose
//! deterministic `parallel_map` keeps scores independent of worker count.

use crate::admission::{AdmissionController, Decision, LadderConfig};
use crate::batcher::{BatcherConfig, ClosedBatch, MicroBatcher};
use crate::cache::{CacheStats, LruCache};
use crate::registry::{Generation, ModelSpec, SnapshotRegistry};
use crate::request::{ScoreRequest, ScoreResponse, SubmitOutcome, Ticks, Tier};
use dfchem::featurize::{build_graph, voxelize, MolGraph};
use dfchem::genmol::Compound;
use dfchem::pocket::{BindingPocket, TargetSite};
use dffusion::{score_batch_fusion, score_batch_sg_head, FusionModel};
use dfsurrogate::{SurrogateConfig, SurrogateMlp, SurrogateRegistry};
use dftensor::hash::{fnv1a64, fnv1a64_update};
use dftensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Virtual execution costs, in ticks, of each scoring path.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostModel {
    /// Fixed cost of launching a full-fusion batch.
    pub full_base: Ticks,
    /// Per-item cost inside a full-fusion batch.
    pub full_per_item: Ticks,
    /// Fixed cost of launching an SG-head batch.
    pub sg_base: Ticks,
    /// Per-item cost inside an SG-head batch.
    pub sg_per_item: Ticks,
    /// Cost of one surrogate evaluation (topology materialization +
    /// fingerprint + MLP forward for a single compound, no pocket — and no
    /// batch amortization, unlike `sg_per_item`). Runs inline like Vina
    /// and occupies its ladder band until its completion tick.
    pub surrogate_cost: Ticks,
    /// Cost of one Vina evaluation. Vina runs beside the model server
    /// (its response returns inline), but each evaluation counts toward
    /// queue depth until its completion tick — the fallback band has
    /// finite capacity too, which is what makes the shed bound reachable.
    pub vina_cost: Ticks,
    /// Cost of one ligand-only evaluation (descriptors + fingerprint, no
    /// pocket). Runs inline like Vina and occupies the deepest non-shed
    /// band of the ladder until its completion tick.
    pub ligand_cost: Ticks,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            full_base: 2_000,
            full_per_item: 800,
            sg_base: 400,
            sg_per_item: 150,
            surrogate_cost: 300,
            vina_cost: 1_000,
            ligand_cost: 500,
        }
    }
}

/// Full service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Model architecture + featurization + initial weights.
    pub spec: ModelSpec,
    /// Surrogate-tier architecture + featurization + init seed.
    pub surrogate: SurrogateConfig,
    /// Micro-batch close policy (shared by both model lanes).
    pub batcher: BatcherConfig,
    /// Degradation-ladder depth thresholds.
    pub ladder: LadderConfig,
    /// Virtual execution costs.
    pub cost: CostModel,
    /// Capacity of the featurization cache (entries).
    pub feature_cache: usize,
    /// Capacity of the score cache (entries).
    pub score_cache: usize,
    /// Campaign seed: pockets and compounds materialize under it.
    pub campaign_seed: u64,
}

impl ServeConfig {
    /// A small deterministic configuration for tests and benches.
    pub fn tiny(campaign_seed: u64) -> ServeConfig {
        ServeConfig {
            spec: ModelSpec::tiny(campaign_seed),
            surrogate: SurrogateConfig::tiny(campaign_seed),
            batcher: BatcherConfig { max_batch: 4, max_wait: 2_000 },
            ladder: LadderConfig {
                full_max_depth: 8,
                sg_max_depth: 16,
                surrogate_max_depth: 18,
                vina_max_depth: 20,
                queue_capacity: 24,
            },
            cost: CostModel::default(),
            feature_cache: 64,
            score_cache: 256,
            campaign_seed,
        }
    }
}

/// Monotonic service-level accounting.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Requests admitted at any tier.
    pub admitted: u64,
    /// Requests shed at the capacity bound.
    pub shed: u64,
    /// Completions per tier, indexed like [`Tier::ALL`].
    pub per_tier: [u64; 5],
    /// Responses produced (cache hits included).
    pub completed: u64,
    /// Score-cache hits answered at submit time.
    pub submit_hits: u64,
    /// Model batches executed.
    pub batches: u64,
    /// Registry hot-swaps observed by the executor.
    pub swaps_observed: u64,
}

impl ServiceStats {
    /// shed / (admitted + shed); 0 when nothing arrived.
    pub fn shed_rate(&self) -> f64 {
        dftrace::rate::mean(self.shed as f64, (self.admitted + self.shed) as f64)
    }
}

/// What sits in a model lane waiting for its micro-batch to close.
#[derive(Debug, Clone)]
struct QueuedItem {
    id: u64,
    compound: dfchem::genmol::CompoundId,
    target: TargetSite,
    /// fnv1a64 of the canonical featurization bytes.
    content_hash: u64,
    graph: Arc<MolGraph>,
    /// Present only on the full-fusion lane.
    voxel: Option<Arc<Tensor>>,
}

/// A batch the virtual server has started but not yet completed.
#[derive(Debug)]
struct Inflight {
    completes_at: Ticks,
    responses: Vec<ScoreResponse>,
}

/// Featurization-cache entry: the expensive artifacts for one
/// (compound, target) pair plus the content digest of the graph.
#[derive(Debug, Clone)]
struct Features {
    graph: Arc<MolGraph>,
    voxel: Option<Arc<Tensor>>,
    content_hash: u64,
}

/// The deterministic scoring service.
pub struct ScoreService {
    cfg: ServeConfig,
    registry: Arc<SnapshotRegistry>,
    /// Hot-swap registry of the surrogate tier's weights (its generation
    /// is mixed into the surrogate score-cache keys).
    surrogate: Arc<SurrogateRegistry>,
    model: FusionModel,
    /// Structure the surrogate registry's weights plug into.
    surrogate_model: SurrogateMlp,
    admission: AdmissionController,
    full_lane: MicroBatcher<QueuedItem>,
    sg_lane: MicroBatcher<QueuedItem>,
    /// (compound, target) identity → featurization artifacts.
    feature_cache: LruCache<Features>,
    /// (content hash, tier, generation) → score.
    score_cache: LruCache<f32>,
    /// Pockets for each [`TargetSite::ALL`] entry, generated once.
    pockets: Vec<BindingPocket>,
    now: Ticks,
    busy_until: Ticks,
    inflight: VecDeque<Inflight>,
    /// Per [`INLINE_TIERS`] row: completion ticks of evaluations still
    /// occupying that tier's ladder band (responses were already returned
    /// inline; these only hold queue depth until they retire).
    inline_inflight: [VecDeque<Ticks>; INLINE_TIERS.len()],
    ready: VecDeque<ScoreResponse>,
    last_generation: u64,
    stats: ServiceStats,
}

impl ScoreService {
    /// Builds the service around a shared snapshot registry (the
    /// surrogate tier gets a private registry at generation 0; use
    /// [`ScoreService::with_registries`] to share one with a campaign).
    pub fn new(cfg: ServeConfig, registry: Arc<SnapshotRegistry>) -> ScoreService {
        let surrogate = Arc::new(SurrogateRegistry::new(cfg.surrogate.clone()));
        ScoreService::with_registries(cfg, registry, surrogate)
    }

    /// Builds the service around shared fusion *and* surrogate registries
    /// — the campaign's active-learning driver publishes retrained
    /// surrogate weights into the latter and this service picks them up
    /// on the next surrogate-tier evaluation.
    pub fn with_registries(
        cfg: ServeConfig,
        registry: Arc<SnapshotRegistry>,
        surrogate: Arc<SurrogateRegistry>,
    ) -> ScoreService {
        let (model, _) = registry.arch().build();
        let (surrogate_model, _) = surrogate.arch().build();
        let pockets = TargetSite::ALL
            .iter()
            .map(|&t| BindingPocket::generate(t, cfg.campaign_seed))
            .collect();
        let last_generation = registry.current().generation;
        ScoreService {
            admission: AdmissionController::new(cfg.ladder),
            full_lane: MicroBatcher::new(cfg.batcher),
            sg_lane: MicroBatcher::new(cfg.batcher),
            feature_cache: LruCache::new(cfg.feature_cache),
            score_cache: LruCache::new(cfg.score_cache),
            pockets,
            now: 0,
            busy_until: 0,
            inflight: VecDeque::new(),
            inline_inflight: Default::default(),
            ready: VecDeque::new(),
            last_generation,
            stats: ServiceStats::default(),
            model,
            surrogate_model,
            registry,
            surrogate,
            cfg,
        }
    }

    /// Convenience constructor: a private registry at generation 0.
    pub fn with_fresh_registry(cfg: ServeConfig) -> ScoreService {
        let registry = Arc::new(SnapshotRegistry::new(cfg.spec.clone()));
        ScoreService::new(cfg, registry)
    }

    /// The registry this service scores against (publish here to hot-swap).
    pub fn registry(&self) -> &Arc<SnapshotRegistry> {
        &self.registry
    }

    /// The surrogate-tier registry (publish retrained surrogate weights
    /// here to hot-swap; the new generation re-keys the score cache).
    pub fn surrogate_registry(&self) -> &Arc<SurrogateRegistry> {
        &self.surrogate
    }

    /// Accounting so far.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Featurization-cache accounting.
    pub fn feature_cache_stats(&self) -> CacheStats {
        self.feature_cache.stats()
    }

    /// Score-cache accounting.
    pub fn score_cache_stats(&self) -> CacheStats {
        self.score_cache.stats()
    }

    /// Queue depth the admission controller sees: lane backlogs plus
    /// everything in flight on the virtual server, plus inline-tier
    /// evaluations still occupying their ladder bands.
    pub fn depth(&self) -> usize {
        let inflight: usize = self.inflight.iter().map(|b| b.responses.len()).sum();
        let inline: usize = self.inline_inflight.iter().map(VecDeque::len).sum();
        self.full_lane.len() + self.sg_lane.len() + inflight + inline
    }

    /// The current virtual tick (the latest tick the service has seen).
    pub fn now(&self) -> Ticks {
        self.now
    }

    /// The next virtual tick at which a batch closes or an in-flight
    /// batch completes, or `None` when no responses are pending. (Inline-tier
    /// band occupancy is not an event: those responses return inline.)
    pub fn next_event(&self) -> Option<Ticks> {
        let mut next: Option<Ticks> = None;
        let mut consider = |t: Option<Ticks>| {
            if let Some(t) = t {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        consider(self.full_lane.next_close_at());
        consider(self.sg_lane.next_close_at());
        consider(self.inflight.front().map(|b| b.completes_at));
        next
    }

    /// Advances virtual time to `now` (monotonic), closing due batches,
    /// executing them on the virtual server and retiring completions.
    /// Returns every response whose completion tick has been reached.
    pub fn advance(&mut self, now: Ticks) -> Vec<ScoreResponse> {
        self.tick(now);
        self.drain_ready()
    }

    /// Submits one request at tick `now`. Cache hits and the inline tiers
    /// (surrogate, Vina, ligand-only) complete at once; model tiers enqueue
    /// into their lane. Shed requests get nothing but the outcome.
    pub fn submit(&mut self, now: Ticks, req: ScoreRequest) -> SubmitOutcome {
        self.submit_with_bias(now, req, 0)
    }

    /// [`ScoreService::submit`] with a router-supplied admission **bias**
    /// (`router::WatermarkConfig`): tier selection sees `depth + bias`
    /// (clamped below the shed bound), the shed decision sees the true
    /// depth — a hot shard degrades earlier but never sheds earlier.
    pub fn submit_with_bias(
        &mut self,
        now: Ticks,
        req: ScoreRequest,
        bias: usize,
    ) -> SubmitOutcome {
        self.tick(now);
        let depth = self.depth();
        dftrace::gauge_set("serve.queue_depth", depth as f64);
        let decision = self.admission.decide_biased(depth, bias);
        let tier = match decision {
            Decision::Shed => {
                self.stats.shed += 1;
                dftrace::counter_add("serve.shed", 1);
                return SubmitOutcome::Shed { depth };
            }
            Decision::Admit(tier) => tier,
        };
        self.stats.admitted += 1;
        dftrace::counter_add("serve.admitted", 1);
        let live = self.registry.current();
        if let Some(row) = INLINE_TIERS.iter().position(|r| r.tier == tier) {
            return SubmitOutcome::Completed(self.submit_inline(row, now, req, live));
        }
        let generation = live.generation;

        let features = self.featurize(req.compound, req.target, tier);
        let key = score_key(features.content_hash, tier, generation);
        if let Some(&score) = self.score_cache.get(key) {
            self.stats.submit_hits += 1;
            let resp = ScoreResponse {
                request_id: req.id,
                compound: req.compound,
                target: req.target,
                score,
                tier,
                cache_hit: true,
                generation,
                admitted_at: now,
                started_at: now,
                completed_at: now,
            };
            self.complete(&resp);
            return SubmitOutcome::Completed(resp);
        }

        let item = QueuedItem {
            id: req.id,
            compound: req.compound,
            target: req.target,
            content_hash: features.content_hash,
            graph: features.graph,
            voxel: if tier == Tier::FullFusion { features.voxel } else { None },
        };
        match tier {
            Tier::FullFusion => self.full_lane.push(now, item),
            Tier::SgHead => self.sg_lane.push(now, item),
            Tier::Surrogate | Tier::Vina | Tier::LigandOnly => {
                unreachable!("inline tiers handled above")
            }
        }
        SubmitOutcome::Enqueued(tier)
    }

    /// The one inline-tier path: probe the score cache under the row's key,
    /// score on a miss, and answer at once — a hit at `now`, a miss at
    /// `now + cost`, holding one unit of the tier's ladder band until then.
    fn submit_inline(
        &mut self,
        row: usize,
        now: Ticks,
        req: ScoreRequest,
        fusion: Generation,
    ) -> ScoreResponse {
        let spec = &INLINE_TIERS[row];
        let (key, live, features) = (spec.key)(self, &req, fusion);
        let cached = self.score_cache.get(key).copied();
        let score = cached.unwrap_or_else(|| (spec.score)(self, &req, &live, features));
        let mut completed_at = now;
        if cached.is_none() {
            self.record_insert_score(key, score);
            completed_at += (spec.cost)(&self.cfg.cost);
            self.inline_inflight[row].push_back(completed_at);
        }
        let resp = ScoreResponse {
            request_id: req.id,
            compound: req.compound,
            target: req.target,
            score,
            tier: spec.tier,
            cache_hit: cached.is_some(),
            generation: live.generation,
            admitted_at: now,
            started_at: now,
            completed_at,
        };
        self.complete(&resp);
        resp
    }

    /// Force-closes both lanes at tick `now` (end-of-run drain) and runs
    /// virtual time forward until every in-flight batch has completed.
    /// Returns the remaining responses.
    pub fn flush(&mut self, now: Ticks) -> Vec<ScoreResponse> {
        self.tick(now);
        for batch in self.full_lane.flush(self.now) {
            self.execute(Tier::FullFusion, batch);
        }
        for batch in self.sg_lane.flush(self.now) {
            self.execute(Tier::SgHead, batch);
        }
        let drain_to = self
            .inflight
            .back()
            .map(|b| b.completes_at)
            .into_iter()
            .chain(self.inline_inflight.iter().filter_map(|band| band.back().copied()))
            .max()
            .unwrap_or(self.now);
        self.tick(drain_to.max(self.now));
        debug_assert!(
            self.inflight.is_empty()
                && self.inline_inflight.iter().all(VecDeque::is_empty)
                && self.full_lane.is_empty()
                && self.sg_lane.is_empty()
        );
        self.drain_ready()
    }

    /// Moves virtual time forward, executing everything due on the way.
    fn tick(&mut self, now: Ticks) {
        assert!(now >= self.now, "virtual time must be monotonic: {} < {}", now, self.now);
        self.now = now;
        // Retire inline evaluations whose band occupancy has lapsed.
        for band in &mut self.inline_inflight {
            while band.front().is_some_and(|&t| t <= now) {
                band.pop_front();
            }
        }
        loop {
            // Retire in-flight batches that have completed by `now`.
            while self.inflight.front().is_some_and(|b| b.completes_at <= self.now) {
                let done = self.inflight.pop_front().expect("front checked");
                for resp in done.responses {
                    self.complete(&resp);
                    self.ready.push_back(resp);
                }
            }
            // Close the earliest due batch across both lanes; full lane
            // wins ties so the tie-break is deterministic by construction.
            let full_due = self.full_lane.next_close_at().filter(|&t| t <= self.now);
            let sg_due = self.sg_lane.next_close_at().filter(|&t| t <= self.now);
            let (tier, lane) = match (full_due, sg_due) {
                (Some(f), Some(s)) if s < f => (Tier::SgHead, &mut self.sg_lane),
                (Some(_), _) => (Tier::FullFusion, &mut self.full_lane),
                (None, Some(_)) => (Tier::SgHead, &mut self.sg_lane),
                (None, None) => break,
            };
            let batch = lane.take_due(self.now).expect("close time was due");
            self.execute(tier, batch);
        }
    }

    /// Runs one closed batch on the virtual server: real model compute
    /// now, virtual completion at `max(closed_at, busy_until) + cost`.
    fn execute(&mut self, tier: Tier, batch: ClosedBatch<QueuedItem>) {
        let n = batch.items.len();
        debug_assert!(n > 0, "lanes never close empty batches");
        let cost = match tier {
            Tier::FullFusion => self.cfg.cost.full_base + n as u64 * self.cfg.cost.full_per_item,
            Tier::SgHead => self.cfg.cost.sg_base + n as u64 * self.cfg.cost.sg_per_item,
            Tier::Surrogate | Tier::Vina | Tier::LigandOnly => {
                unreachable!("inline tiers never occupy the server")
            }
        };
        let started_at = batch.closed_at.max(self.busy_until);
        let completes_at = started_at + cost;
        self.busy_until = completes_at;
        self.stats.batches += 1;
        dftrace::counter_add("serve.batches", 1);
        dftrace::observe_us("serve.batch_size", n as u64);

        // Pick up the live generation; an observed change is a hot-swap.
        let live = self.registry.current();
        if live.generation != self.last_generation {
            self.stats.swaps_observed += 1;
            self.last_generation = live.generation;
        }

        // Exec-time cache pass: identical content admitted twice before the
        // first copy finished computes only once.
        let _span = dftrace::span("serve.batch_exec");
        let mut scores: Vec<Option<f32>> = Vec::with_capacity(n);
        let mut miss_idx: Vec<usize> = Vec::new();
        for (i, (_, item)) in batch.items.iter().enumerate() {
            let key = score_key(item.content_hash, tier, live.generation);
            match self.score_cache.get(key).copied() {
                Some(s) => scores.push(Some(s)),
                None => {
                    scores.push(None);
                    miss_idx.push(i);
                }
            }
        }
        if !miss_idx.is_empty() {
            let computed = match tier {
                Tier::FullFusion => {
                    let voxels: Vec<&Tensor> = miss_idx
                        .iter()
                        .map(|&i| {
                            batch.items[i].1.voxel.as_deref().expect("full lane carries voxels")
                        })
                        .collect();
                    let graphs: Vec<&MolGraph> =
                        miss_idx.iter().map(|&i| &*batch.items[i].1.graph).collect();
                    score_batch_fusion(&mut self.model, &live.params, &voxels, &graphs)
                }
                Tier::SgHead => {
                    let graphs: Vec<&MolGraph> =
                        miss_idx.iter().map(|&i| &*batch.items[i].1.graph).collect();
                    score_batch_sg_head(&mut self.model, &live.params, &graphs)
                }
                Tier::Surrogate | Tier::Vina | Tier::LigandOnly => unreachable!(),
            };
            for (&i, &s) in miss_idx.iter().zip(computed.iter()) {
                scores[i] = Some(s);
                let key = score_key(batch.items[i].1.content_hash, tier, live.generation);
                self.record_insert_score(key, s);
            }
        }

        let responses = batch
            .items
            .iter()
            .zip(scores)
            .map(|((admitted_at, item), score)| ScoreResponse {
                request_id: item.id,
                compound: item.compound,
                target: item.target,
                score: score.expect("every item scored"),
                tier,
                cache_hit: false,
                generation: live.generation,
                admitted_at: *admitted_at,
                started_at,
                completed_at: completes_at,
            })
            .collect();
        self.inflight.push_back(Inflight { completes_at, responses });
        debug_assert!(
            self.inflight
                .iter()
                .zip(self.inflight.iter().skip(1))
                .all(|(a, b)| a.completes_at <= b.completes_at),
            "single-server completion order is FIFO"
        );
    }

    /// Records one finished response into stats and trace.
    fn complete(&mut self, resp: &ScoreResponse) {
        self.stats.completed += 1;
        let tier = tier_index(resp.tier);
        self.stats.per_tier[tier] += 1;
        dftrace::counter_add(TIER_COUNTERS[tier], 1);
        dftrace::observe_us("serve.queue_wait_vus", resp.queue_wait());
        dftrace::observe_us("serve.e2e_vus", resp.e2e());
    }

    fn drain_ready(&mut self) -> Vec<ScoreResponse> {
        self.ready.drain(..).collect()
    }

    fn record_insert_score(&mut self, key: u64, score: f32) {
        if self.score_cache.insert(key, score).is_some() {
            dftrace::counter_add("serve.cache.score.evictions", 1);
        }
    }

    fn materialize(&self, id: dfchem::genmol::CompoundId) -> Compound {
        let _span = dftrace::span("serve.featurize.materialize");
        let mut c = Compound::materialize(id.library, id.index, self.cfg.campaign_seed);
        // Ligand prep: center on the pocket origin before featurization,
        // matching the training-time convention.
        let centroid = c.mol.centroid();
        c.mol.translate(centroid.scale(-1.0));
        c
    }

    /// Featurizes (or cache-hits) one (compound, target) pair. SG-head
    /// requests skip voxelization; if the pair was first seen by the SG
    /// lane, a later full-fusion request upgrades the entry in place.
    fn featurize(
        &mut self,
        id: dfchem::genmol::CompoundId,
        target: TargetSite,
        tier: Tier,
    ) -> Features {
        let need_voxel = tier == Tier::FullFusion;
        let key = feature_key(id, target);
        if let Some(f) = self.feature_cache.get(key) {
            if !need_voxel || f.voxel.is_some() {
                return f.clone();
            }
        }
        let had_graph = self.feature_cache.peek(key).map(|f| (f.graph.clone(), f.content_hash));
        let _span = dftrace::span("serve.featurize");
        let pocket = &self.pockets[target_index(target)];
        let (graph, content_hash, compound) = match had_graph {
            Some((g, h)) => (g, h, None),
            None => {
                let compound = self.materialize(id);
                let _span = dftrace::span("serve.featurize.graph");
                let g = build_graph(&self.cfg.spec.graph, &compound.mol, pocket);
                let mut bytes = Vec::new();
                g.canonical_bytes(&mut bytes);
                (Arc::new(g), fnv1a64(&bytes), Some(compound))
            }
        };
        let voxel = if need_voxel {
            let compound = compound.unwrap_or_else(|| self.materialize(id));
            let _span = dftrace::span("serve.featurize.voxel");
            Some(Arc::new(voxelize(&self.cfg.spec.voxel, &compound.mol, pocket)))
        } else {
            None
        };
        let features = Features { graph, voxel, content_hash };
        if self.feature_cache.insert(key, features.clone()).is_some() {
            dftrace::counter_add("serve.cache.feature.evictions", 1);
        }
        features
    }

    /// Scores one (compound, target) pair at `tier` directly — no caches,
    /// no lanes, no virtual server, always against the live generation.
    /// This is the bit-identity oracle for the fleet determinism locks:
    /// every response a fleet (or single instance) produces must carry
    /// exactly these bits, because batched inference equals a batch of
    /// singles bit-exactly and cache entries are only ever the stored
    /// result of this same computation.
    pub fn reference_score(
        &mut self,
        compound: dfchem::genmol::CompoundId,
        target: TargetSite,
        tier: Tier,
    ) -> f32 {
        let pocket = &self.pockets[target_index(target)];
        match tier {
            Tier::FullFusion | Tier::SgHead => {
                let c = {
                    let mut c = Compound::materialize(
                        compound.library,
                        compound.index,
                        self.cfg.campaign_seed,
                    );
                    let centroid = c.mol.centroid();
                    c.mol.translate(centroid.scale(-1.0));
                    c
                };
                let graph = build_graph(&self.cfg.spec.graph, &c.mol, pocket);
                let live = self.registry.current();
                if tier == Tier::FullFusion {
                    let voxel = voxelize(&self.cfg.spec.voxel, &c.mol, pocket);
                    score_batch_fusion(&mut self.model, &live.params, &[&voxel], &[&graph])[0]
                } else {
                    score_batch_sg_head(&mut self.model, &live.params, &[&graph])[0]
                }
            }
            Tier::Surrogate => {
                let live = self.surrogate.current();
                let (_, row) = dfsurrogate::featurize_compound(
                    &self.surrogate.arch().fingerprint,
                    compound.library,
                    compound.index,
                    self.cfg.campaign_seed,
                );
                self.surrogate_model.predict(&live.params, &[row])[0]
            }
            Tier::Vina => {
                let mut c =
                    Compound::materialize(compound.library, compound.index, self.cfg.campaign_seed);
                let centroid = c.mol.centroid();
                c.mol.translate(centroid.scale(-1.0));
                dfdock::vina_affinity(&c.mol, pocket) as f32
            }
            Tier::LigandOnly => {
                let c = Compound::materialize_topology(
                    compound.library,
                    compound.index,
                    self.cfg.campaign_seed,
                );
                let d = dfchem::Descriptors::compute(&c.mol);
                let fp =
                    dfchem::Fingerprint::compute(&dfchem::FingerprintConfig::default(), &c.mol);
                dfchem::ligand_score(&d, &fp) as f32
            }
        }
    }
}

/// What an inline tier's key derivation yields: the score-cache key, the
/// generation the response echoes and — when deriving a content-addressed
/// key already paid for it — the feature row, carried to the miss path.
type InlineKey = (u64, Generation, Vec<f32>);

/// One inline tier: what varies between the tiers answered at submit time,
/// beside the model server. A new one is a row of [`INLINE_TIERS`] (plus
/// its [`Tier`] variant, ladder band and cost field).
struct InlineTier {
    tier: Tier,
    /// Derives the key; tiers with no weights of their own echo `fusion`,
    /// the live fusion generation.
    key: fn(&ScoreService, &ScoreRequest, fusion: Generation) -> InlineKey,
    /// Miss-time score under that generation and feature row.
    score: fn(&ScoreService, &ScoreRequest, &Generation, Vec<f32>) -> f32,
    /// Ticks a miss occupies the tier's ladder band.
    cost: fn(&CostModel) -> Ticks,
}

const INLINE_TIERS: [InlineTier; 3] = [
    // Learned fallback: fingerprint + MLP forward, no pocket geometry. The
    // key is content-addressed (the canonical fingerprint bytes) mixed with
    // the *surrogate* registry's generation, so a retrain hot-swap
    // invalidates stale surrogate scores by missing.
    InlineTier {
        tier: Tier::Surrogate,
        key: |svc, req, _| {
            let live = svc.surrogate.current();
            let (content_hash, row) = dfsurrogate::featurize_compound(
                &svc.surrogate.arch().fingerprint,
                req.compound.library,
                req.compound.index,
                svc.cfg.campaign_seed,
            );
            (score_key(content_hash, Tier::Surrogate, live.generation), live, row)
        },
        score: |svc, _, live, row| svc.surrogate_model.predict(&live.params, &[row])[0],
        cost: |cost| cost.surrogate_cost,
    },
    // Physics fallback: no featurization, no weights. Identity-addressed
    // key (the molecule is a pure function of its id, so identity equals
    // content here).
    InlineTier {
        tier: Tier::Vina,
        key: |_, req, fusion| (vina_key(req), fusion, Vec::new()),
        score: |svc, req, _, _| {
            let compound = svc.materialize(req.compound);
            dfdock::vina_affinity(&compound.mol, &svc.pockets[target_index(req.target)]) as f32
        },
        cost: |cost| cost.vina_cost,
    },
    // Target-free fallback: descriptors + fingerprint only. The key ignores
    // the target, so a compound scored for one pocket answers ligand-only
    // requests against any pocket.
    InlineTier {
        tier: Tier::LigandOnly,
        key: |_, req, fusion| (ligand_key(req.compound), fusion, Vec::new()),
        score: |svc, req, _, _| {
            // Topology-only materialization: descriptors and fingerprints
            // never read coordinates or charges, and skipping conformer
            // relaxation keeps this tier cheap enough to absorb overload
            // bursts.
            let id = req.compound;
            let c = Compound::materialize_topology(id.library, id.index, svc.cfg.campaign_seed);
            let d = dfchem::Descriptors::compute(&c.mol);
            let fp = dfchem::Fingerprint::compute(&dfchem::FingerprintConfig::default(), &c.mol);
            dfchem::ligand_score(&d, &fp) as f32
        },
        cost: |cost| cost.ligand_cost,
    },
];

/// Index of a tier in [`Tier::ALL`]-shaped arrays.
fn tier_index(tier: Tier) -> usize {
    Tier::ALL.iter().position(|&t| t == tier).expect("Tier::ALL covers every variant")
}

/// Per-tier completion counter names, indexed like [`Tier::ALL`].
const TIER_COUNTERS: [&str; Tier::ALL.len()] = [
    "serve.tier.full",
    "serve.tier.sg_head",
    "serve.tier.surrogate",
    "serve.tier.vina",
    "serve.tier.ligand_only",
];

/// Index of a target in [`TargetSite::ALL`] (pocket array order).
fn target_index(target: TargetSite) -> usize {
    TargetSite::ALL.iter().position(|&t| t == target).expect("TargetSite::ALL covers every variant")
}

/// Identity key of a (compound, target) pair for the featurization cache.
fn feature_key(id: dfchem::genmol::CompoundId, target: TargetSite) -> u64 {
    let mut h = fnv1a64(id.library.tag().as_bytes());
    h = fnv1a64_update(h, &id.index.to_le_bytes());
    fnv1a64_update(h, &(target_index(target) as u64).to_le_bytes())
}

/// Score-cache key: content digest mixed with tier and weight generation,
/// so hot-swaps invalidate by missing instead of flushing.
fn score_key(content_hash: u64, tier: Tier, generation: u64) -> u64 {
    let mut h = fnv1a64_update(content_hash, tier.tag().as_bytes());
    h = fnv1a64_update(h, &generation.to_le_bytes());
    h
}

/// Identity key of a Vina-tier evaluation (featurization is bypassed).
fn vina_key(req: &ScoreRequest) -> u64 {
    fnv1a64_update(feature_key(req.compound, req.target), b"vina")
}

/// Identity key of a ligand-only evaluation: compound only — the score is
/// target-independent, so it is shared across pockets.
fn ligand_key(id: dfchem::genmol::CompoundId) -> u64 {
    let mut h = fnv1a64(id.library.tag().as_bytes());
    h = fnv1a64_update(h, &id.index.to_le_bytes());
    fnv1a64_update(h, b"ligand_only")
}

/// A request paired with the virtual tick it arrived at (threaded
/// front-end envelope).
#[derive(Debug, Clone, Copy)]
pub struct TimedRequest {
    /// Virtual arrival tick.
    pub at: Ticks,
    /// The request itself.
    pub request: ScoreRequest,
}

/// Handle to a running threaded front-end.
pub struct ServerHandle {
    /// Submit side: send `(tick, request)` envelopes. Bounded — senders
    /// block when the dispatcher falls behind (backpressure).
    pub requests: std::sync::mpsc::SyncSender<TimedRequest>,
    /// Outcome side: one [`SubmitOutcome`] per envelope, in order, with
    /// completed batch responses interleaved as they retire.
    pub completions: std::sync::mpsc::Receiver<ScoreResponse>,
    join: std::thread::JoinHandle<ServiceStats>,
}

impl ServerHandle {
    /// Closes the request side, drains the service and joins the
    /// dispatcher, returning its final accounting.
    pub fn shutdown(self) -> ServiceStats {
        drop(self.requests);
        self.join.join().expect("dispatcher panicked")
    }
}

/// Spawns the thread-based front-end: a dedicated dispatcher owns the
/// [`ScoreService`] state machine and pulls [`TimedRequest`] envelopes
/// from a bounded channel of depth `channel_bound` (senders block when it
/// fills — backpressure, not unbounded growth). Completed responses are
/// pushed to the returned receiver. Intra-batch compute inherits whatever
/// `dfpool` pool the dispatcher thread is installed into.
pub fn spawn_server(
    cfg: ServeConfig,
    registry: Arc<SnapshotRegistry>,
    channel_bound: usize,
    worker_threads: usize,
) -> ServerHandle {
    let (req_tx, req_rx) = std::sync::mpsc::sync_channel::<TimedRequest>(channel_bound);
    let (resp_tx, resp_rx) = std::sync::mpsc::channel::<ScoreResponse>();
    let join = std::thread::Builder::new()
        .name("dfserve-dispatch".into())
        .spawn(move || {
            let pool = dfpool::Pool::new(worker_threads);
            pool.install(|| {
                let mut svc = ScoreService::new(cfg, registry);
                let mut clock: Ticks = 0;
                while let Ok(env) = req_rx.recv() {
                    // Envelope ticks must be monotone; clamp stragglers so
                    // a misbehaving producer cannot wind time backwards.
                    clock = clock.max(env.at);
                    for resp in svc.advance(clock) {
                        let _ = resp_tx.send(resp);
                    }
                    match svc.submit(clock, env.request) {
                        SubmitOutcome::Completed(resp) => {
                            let _ = resp_tx.send(resp);
                        }
                        SubmitOutcome::Enqueued(_) | SubmitOutcome::Shed { .. } => {}
                    }
                }
                let end = svc.next_event().map_or(clock, |t| t.max(clock));
                for resp in svc.flush(end) {
                    let _ = resp_tx.send(resp);
                }
                svc.stats()
            })
        })
        .expect("spawn dispatcher");
    ServerHandle { requests: req_tx, completions: resp_rx, join }
}
