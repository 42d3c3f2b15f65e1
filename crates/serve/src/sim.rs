//! Deterministic traffic simulator: seeded arrivals on the virtual clock.
//!
//! Two load shapes, both pure functions of their seed:
//!
//! * **Open loop** — requests arrive on an exponential (Poisson-process)
//!   interarrival schedule regardless of how the service is doing. This is
//!   the overload generator: shrink the mean interarrival below the
//!   service rate and the degradation ladder must engage.
//! * **Closed loop** — a fixed population of clients, each submitting,
//!   (virtually) waiting for its response, thinking, then submitting
//!   again. Offered load self-limits, which is the nominal-traffic shape.
//!
//! No wall time anywhere: interarrival draws come from a seeded
//! `StdRng`, timestamps are virtual ticks, and percentiles in the report
//! are exact (computed from the full latency vectors, not histogram
//! buckets), so a report is bit-reproducible across machines, worker
//! counts and trace on/off.

use crate::fleet::{Fleet, FleetOutcome};
use crate::request::{ScoreRequest, ScoreResponse, SubmitOutcome, Ticks, Tier, TICKS_PER_SEC};
use crate::service::ScoreService;
use dfchem::genmol::{CompoundId, Library};
use dfchem::pocket::TargetSite;
use dftensor::hash::{fnv1a64, fnv1a64_update};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Seeded Zipf(s) popularity over a compound pool: rank `k` (0-based) is
/// drawn with probability proportional to `1/(k+1)^exponent`. Exponent 0
/// is uniform; ~1.0 is classic web-trace skew; >1 concentrates hard on a
/// few hot keys. Replaces the two-bucket hot/cold mix when present on
/// [`TrafficConfig::zipf`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ZipfConfig {
    /// Compound pool size (ranks `0..compounds`).
    pub compounds: u64,
    /// Skew exponent `s >= 0`.
    pub exponent: f64,
}

/// Shape of the simulated request population.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Seed for the arrival process and compound choices.
    pub seed: u64,
    /// Total requests to issue.
    pub requests: usize,
    /// Size of the "hot" compound pool (drawn with `hot_fraction`).
    pub hot_compounds: u64,
    /// Size of the "cold" compound pool.
    pub cold_compounds: u64,
    /// Probability a request draws from the hot pool (cache pressure dial).
    pub hot_fraction: f64,
    /// When set, compound popularity follows Zipf(`exponent`) over
    /// `compounds` ranks instead of the two-bucket mix. `None` (the
    /// default, and what configs serialized before this field existed
    /// decode to) keeps the two-bucket draw sequence bit-identical.
    pub zipf: Option<ZipfConfig>,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0xD15EA5E,
            requests: 200,
            hot_compounds: 12,
            cold_compounds: 600,
            hot_fraction: 0.5,
            zipf: None,
        }
    }
}

/// Inverse-CDF Zipf sampler: one uniform draw walks a precomputed
/// cumulative weight table by binary search. Built once per run.
#[derive(Debug, Clone)]
struct ZipfSampler {
    /// `cumulative[k]` = sum of weights of ranks `0..=k`.
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    fn new(cfg: ZipfConfig) -> ZipfSampler {
        let n = cfg.compounds.max(1) as usize;
        assert!(cfg.exponent >= 0.0, "Zipf exponent must be non-negative");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(cfg.exponent);
            cumulative.push(total);
        }
        ZipfSampler { cumulative }
    }

    fn draw(&self, rng: &mut StdRng) -> u64 {
        let total = *self.cumulative.last().expect("at least one rank");
        let u: f64 = rng.gen::<f64>() * total;
        self.cumulative.partition_point(|&c| c < u).min(self.cumulative.len() - 1) as u64
    }
}

/// Prepared popularity generator: either the legacy two-bucket mix
/// (draw-for-draw identical to the pre-Zipf implementation) or a Zipf
/// sampler.
#[derive(Debug, Clone)]
enum Popularity {
    TwoBucket { hot: u64, cold: u64, hot_fraction: f64 },
    Zipf(ZipfSampler),
}

impl Popularity {
    fn prepare(cfg: &TrafficConfig) -> Popularity {
        match cfg.zipf {
            Some(z) => Popularity::Zipf(ZipfSampler::new(z)),
            None => Popularity::TwoBucket {
                hot: cfg.hot_compounds.max(1),
                cold: cfg.cold_compounds.max(1),
                hot_fraction: cfg.hot_fraction,
            },
        }
    }

    /// Draws a compound index. The two-bucket arm performs exactly the
    /// RNG calls of the original implementation (`gen_bool` then one
    /// `gen_range`), so pre-Zipf configs replay bit-identically.
    fn draw(&self, rng: &mut StdRng) -> u64 {
        match self {
            Popularity::TwoBucket { hot, cold, hot_fraction } => {
                if rng.gen_bool(*hot_fraction) {
                    rng.gen_range(0..*hot)
                } else {
                    hot + rng.gen_range(0..*cold)
                }
            }
            Popularity::Zipf(sampler) => sampler.draw(rng),
        }
    }
}

/// What one simulation run produced, with exact (not bucketed) latency
/// percentiles over the completed responses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Requests issued (admitted + shed).
    pub issued: u64,
    /// Responses completed (inline + batched).
    pub completed: u64,
    /// Requests shed.
    pub shed: u64,
    /// shed / issued.
    pub shed_rate: f64,
    /// Completions per tier, [`Tier::ALL`] order.
    pub per_tier: [u64; 5],
    /// Responses answered from the score cache.
    pub cache_hits: u64,
    /// Virtual tick of the last completion.
    pub makespan_ticks: Ticks,
    /// Completions per virtual second.
    pub throughput_per_vsec: f64,
    /// Exact queue-wait percentiles in ticks: [p50, p95, p99].
    pub queue_wait_ticks: [Ticks; 3],
    /// Exact end-to-end percentiles in ticks: [p50, p95, p99].
    pub e2e_ticks: [Ticks; 3],
}

/// Exact percentile (nearest-rank) of an unsorted sample.
fn exact_percentile(sorted: &[Ticks], q: f64) -> Ticks {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn build_report(issued: u64, shed: u64, responses: &[ScoreResponse]) -> SimReport {
    let mut per_tier = [0u64; 5];
    let mut cache_hits = 0u64;
    let mut queue_waits: Vec<Ticks> = Vec::with_capacity(responses.len());
    let mut e2es: Vec<Ticks> = Vec::with_capacity(responses.len());
    let mut makespan: Ticks = 0;
    for r in responses {
        let t = Tier::ALL.iter().position(|&t| t == r.tier).expect("known tier");
        per_tier[t] += 1;
        cache_hits += r.cache_hit as u64;
        queue_waits.push(r.queue_wait());
        e2es.push(r.e2e());
        makespan = makespan.max(r.completed_at);
    }
    queue_waits.sort_unstable();
    e2es.sort_unstable();
    let virtual_secs = makespan as f64 / TICKS_PER_SEC as f64;
    SimReport {
        issued,
        completed: responses.len() as u64,
        shed,
        shed_rate: dftrace::rate::mean(shed as f64, issued as f64),
        per_tier,
        cache_hits,
        makespan_ticks: makespan,
        throughput_per_vsec: dftrace::rate::per_sec(responses.len() as f64, virtual_secs),
        queue_wait_ticks: [
            exact_percentile(&queue_waits, 0.50),
            exact_percentile(&queue_waits, 0.95),
            exact_percentile(&queue_waits, 0.99),
        ],
        e2e_ticks: [
            exact_percentile(&e2es, 0.50),
            exact_percentile(&e2es, 0.95),
            exact_percentile(&e2es, 0.99),
        ],
    }
}

/// Draws the next request: compound index from the prepared popularity
/// generator (two-bucket hot/cold or Zipf), uniform library and target.
/// Two-bucket pools keep indices disjoint so `hot_fraction` directly
/// controls the achievable cache hit rate.
fn next_request(rng: &mut StdRng, pop: &Popularity, id: u64) -> ScoreRequest {
    let index = pop.draw(rng);
    let library = Library::ALL[rng.gen_range(0..Library::ALL.len())];
    let target = TargetSite::ALL[rng.gen_range(0..TargetSite::ALL.len())];
    ScoreRequest { id, compound: CompoundId { library, index }, target }
}

/// Exponential interarrival draw (at least one tick so time advances).
fn exp_interarrival(rng: &mut StdRng, mean_ticks: f64) -> Ticks {
    let u: f64 = rng.gen();
    ((-(1.0_f64 - u).ln()) * mean_ticks).ceil().max(1.0) as Ticks
}

/// Open-loop run: Poisson arrivals with the given mean interarrival time
/// (ticks), oblivious to service state. Returns the report and every
/// completed response in completion order.
pub fn run_open_loop(
    svc: &mut ScoreService,
    cfg: &TrafficConfig,
    mean_interarrival_ticks: f64,
) -> (SimReport, Vec<ScoreResponse>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pop = Popularity::prepare(cfg);
    let mut responses: Vec<ScoreResponse> = Vec::with_capacity(cfg.requests);
    let mut shed = 0u64;
    let mut t: Ticks = 0;
    for i in 0..cfg.requests {
        t += exp_interarrival(&mut rng, mean_interarrival_ticks);
        responses.extend(svc.advance(t));
        let req = next_request(&mut rng, &pop, i as u64);
        match svc.submit(t, req) {
            SubmitOutcome::Completed(r) => responses.push(r),
            SubmitOutcome::Enqueued(_) => {}
            SubmitOutcome::Shed { .. } => shed += 1,
        }
    }
    responses.extend(svc.flush(t));
    (build_report(cfg.requests as u64, shed, &responses), responses)
}

/// Closed-loop run: `clients` virtual clients, each waiting for its
/// response and then thinking `think_ticks` before the next submission.
/// Returns the report and every completed response in completion order.
pub fn run_closed_loop(
    svc: &mut ScoreService,
    cfg: &TrafficConfig,
    clients: usize,
    think_ticks: Ticks,
) -> (SimReport, Vec<ScoreResponse>) {
    assert!(clients >= 1, "closed loop needs at least one client");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pop = Popularity::prepare(cfg);
    let mut responses: Vec<ScoreResponse> = Vec::with_capacity(cfg.requests);
    let mut shed = 0u64;
    // Min-heap of (arrival tick, client); the client id breaks tick ties
    // deterministically.
    let mut arrivals = std::collections::BinaryHeap::new();
    for c in 0..clients {
        // Stagger initial arrivals so clients do not start in lockstep.
        let t0 = exp_interarrival(&mut rng, think_ticks.max(1) as f64);
        arrivals.push(std::cmp::Reverse((t0, c as u64)));
    }
    let mut outstanding: HashMap<u64, u64> = HashMap::new();
    let mut issued = 0u64;

    let handle =
        |resps: Vec<ScoreResponse>,
         responses: &mut Vec<ScoreResponse>,
         outstanding: &mut HashMap<u64, u64>,
         arrivals: &mut std::collections::BinaryHeap<std::cmp::Reverse<(Ticks, u64)>>| {
            for r in resps {
                if let Some(client) = outstanding.remove(&r.request_id) {
                    arrivals.push(std::cmp::Reverse((r.completed_at + think_ticks, client)));
                }
                responses.push(r);
            }
        };

    while issued < cfg.requests as u64 {
        match arrivals.pop() {
            Some(std::cmp::Reverse((at, client))) => {
                // A retired response can schedule an arrival earlier than
                // the tick the service has already reached; clamp forward.
                let at = at.max(svc.now());
                let done = svc.advance(at);
                handle(done, &mut responses, &mut outstanding, &mut arrivals);
                let req = next_request(&mut rng, &pop, issued);
                issued += 1;
                match svc.submit(at, req) {
                    SubmitOutcome::Completed(r) => {
                        arrivals.push(std::cmp::Reverse((r.completed_at + think_ticks, client)));
                        responses.push(r);
                    }
                    SubmitOutcome::Enqueued(_) => {
                        outstanding.insert(req.id, client);
                    }
                    SubmitOutcome::Shed { .. } => {
                        shed += 1;
                        // Shed clients back off one think time and retry.
                        arrivals.push(std::cmp::Reverse((at + think_ticks, client)));
                    }
                }
            }
            None => {
                // Every client is blocked on an enqueued request: run the
                // service forward event by event (an event may be a batch
                // *close*, which releases nobody yet — `next_event` then
                // strictly increases until a completion surfaces, so this
                // branch always makes progress).
                let t = svc.next_event().expect("blocked clients imply pending service work");
                let done = svc.advance(t.max(svc.now()));
                handle(done, &mut responses, &mut outstanding, &mut arrivals);
            }
        }
    }
    let tail = svc.flush(svc.now());
    handle(tail, &mut responses, &mut outstanding, &mut arrivals);
    (build_report(issued, shed, &responses), responses)
}

/// One replica liveness flip in a [`FaultPlan`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Virtual tick the flip takes effect (applied before the first
    /// arrival at or past this tick).
    pub at: Ticks,
    /// Replica to flip.
    pub replica: u32,
    /// `true` restores the replica, `false` kills it.
    pub up: bool,
}

/// A deterministic shard-failure schedule for [`run_fleet_open_loop`]:
/// kill/restore events on the virtual clock, applied in `(at, replica)`
/// order interleaved with the arrival process.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled liveness flips.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Kill `replica` at `kill_at`, restore it at `restore_at`.
    pub fn kill_restore(replica: u32, kill_at: Ticks, restore_at: Ticks) -> FaultPlan {
        assert!(kill_at < restore_at, "restore must follow the kill");
        FaultPlan {
            events: vec![
                FaultEvent { at: kill_at, replica, up: false },
                FaultEvent { at: restore_at, replica, up: true },
            ],
        }
    }
}

/// What one fleet simulation produced: the single-instance report shape
/// plus router-level accounting and the determinism digest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetSimReport {
    /// Latency/throughput/tier accounting over the merged response
    /// stream (its `shed` counts ladder sheds *and* failover sheds).
    pub base: SimReport,
    /// Configured replicas.
    pub replicas: usize,
    /// Failover re-issues scheduled.
    pub reissues: u64,
    /// Requests dropped after exhausting the re-issue budget.
    pub failover_shed: u64,
    /// Responses lost to replica kills.
    pub lost_in_flight: u64,
    /// Submits the watermark bias degraded to a cheaper tier.
    pub degraded: u64,
    /// Submits delivered per shard (re-issues included).
    pub per_shard_routed: Vec<u64>,
    /// Home-key assignments per shard (the balance signal).
    pub per_shard_home: Vec<u64>,
    /// max/mean of `per_shard_home` (1.0 = perfectly balanced).
    pub balance_max_over_mean: f64,
    /// fnv1a64 over the merged response stream — `(request_id, score
    /// bits, tier, completed_at)` in `(completed_at, request_id)` order.
    /// Equal digests ⇒ bit-identical responses; the fleet determinism
    /// locks compare it across router thread counts and replica layouts.
    pub score_digest: u64,
}

/// Digest of a response stream already in merged order.
fn score_digest(responses: &[ScoreResponse]) -> u64 {
    let mut h = fnv1a64(b"serve.fleet/digest");
    for r in responses {
        h = fnv1a64_update(h, &r.request_id.to_le_bytes());
        h = fnv1a64_update(h, &r.score.to_bits().to_le_bytes());
        h = fnv1a64_update(h, r.tier.tag().as_bytes());
        h = fnv1a64_update(h, &r.completed_at.to_le_bytes());
    }
    h
}

/// Open-loop run against a [`Fleet`]: the same Poisson arrival process as
/// [`run_open_loop`] (bit-identical arrival ticks and request sequence
/// for the same `cfg`), with `faults` applied on the virtual clock.
/// Expects a fresh fleet (the report reads its cumulative router stats).
/// Returns the report and the responses merged across shards in
/// `(completed_at, request_id)` order.
pub fn run_fleet_open_loop(
    fleet: &mut Fleet,
    cfg: &TrafficConfig,
    mean_interarrival_ticks: f64,
    faults: &FaultPlan,
) -> (FleetSimReport, Vec<ScoreResponse>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pop = Popularity::prepare(cfg);
    let mut events = faults.events.clone();
    events.sort_by_key(|e| (e.at, e.replica, e.up));
    let mut next_event = 0usize;
    let apply = |fleet: &mut Fleet, upto: Ticks, next_event: &mut usize| {
        while *next_event < events.len() && events[*next_event].at <= upto {
            let e = events[*next_event];
            *next_event += 1;
            if e.up {
                fleet.restore(e.replica);
            } else {
                fleet.kill(e.replica);
            }
        }
    };
    let mut responses: Vec<ScoreResponse> = Vec::with_capacity(cfg.requests);
    let mut ladder_shed = 0u64;
    let mut t: Ticks = 0;
    for i in 0..cfg.requests {
        t += exp_interarrival(&mut rng, mean_interarrival_ticks);
        apply(fleet, t, &mut next_event);
        responses.extend(fleet.advance(t));
        let req = next_request(&mut rng, &pop, i as u64);
        match fleet.submit(t, req) {
            FleetOutcome::Completed(r) => responses.push(r),
            FleetOutcome::Enqueued { .. } | FleetOutcome::Deferred { .. } => {}
            FleetOutcome::Shed { .. } => ladder_shed += 1,
        }
    }
    // Apply any trailing fault events (e.g. a restore scheduled past the
    // last arrival) so the drain sees the final topology.
    apply(fleet, Ticks::MAX, &mut next_event);
    responses.extend(fleet.flush(t));
    responses.sort_by_key(|r| (r.completed_at, r.request_id));

    let stats = fleet.stats().clone();
    // `ladder_shed` counted sheds returned synchronously by submit;
    // re-issued requests that hit a ladder shed or exhausted the failover
    // budget surface only in the router stats. `stats.shed` covers every
    // ladder shed (synchronous ones included), so total = stats.shed +
    // failover sheds.
    debug_assert!(stats.shed >= ladder_shed);
    let shed_total = stats.shed + stats.failover_shed;
    let base = build_report(cfg.requests as u64, shed_total, &responses);
    let mean_home =
        stats.per_shard_home.iter().sum::<u64>() as f64 / stats.per_shard_home.len() as f64;
    let max_home = stats.per_shard_home.iter().copied().max().unwrap_or(0) as f64;
    let report = FleetSimReport {
        base,
        replicas: fleet.len(),
        reissues: stats.reissues,
        failover_shed: stats.failover_shed,
        lost_in_flight: stats.lost_in_flight,
        degraded: stats.degraded,
        per_shard_routed: stats.per_shard_routed,
        per_shard_home: stats.per_shard_home,
        balance_max_over_mean: if mean_home > 0.0 { max_home / mean_home } else { 1.0 },
        score_digest: score_digest(&responses),
    };
    (report, responses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;

    #[test]
    fn exact_percentiles_nearest_rank() {
        let v: Vec<Ticks> = (1..=100).collect();
        assert_eq!(exact_percentile(&v, 0.50), 50);
        assert_eq!(exact_percentile(&v, 0.95), 95);
        assert_eq!(exact_percentile(&v, 0.99), 99);
        assert_eq!(exact_percentile(&[7], 0.99), 7);
        assert_eq!(exact_percentile(&[], 0.5), 0);
    }

    #[test]
    fn open_loop_under_light_load_sheds_nothing() {
        let mut svc = ScoreService::with_fresh_registry(ServeConfig::tiny(11));
        let cfg = TrafficConfig { requests: 40, ..TrafficConfig::default() };
        let (report, responses) = run_open_loop(&mut svc, &cfg, 8_000.0);
        assert_eq!(report.issued, 40);
        assert_eq!(report.shed, 0);
        assert_eq!(report.completed, 40);
        assert_eq!(responses.len(), 40);
        assert!(report.per_tier[0] > 0, "light load should run full fusion");
        assert!(report.throughput_per_vsec > 0.0);
    }

    #[test]
    fn two_bucket_draws_match_the_legacy_sequence() {
        // The pre-Zipf implementation drew gen_bool(hot_fraction) then one
        // gen_range per request; the refactor must keep configs without
        // `zipf` replaying that exact RNG sequence.
        let cfg = TrafficConfig::default();
        let pop = Popularity::prepare(&cfg);
        let mut rng_new = StdRng::seed_from_u64(99);
        let mut rng_legacy = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let new = pop.draw(&mut rng_new);
            let legacy = if rng_legacy.gen_bool(cfg.hot_fraction) {
                rng_legacy.gen_range(0..cfg.hot_compounds.max(1))
            } else {
                cfg.hot_compounds.max(1) + rng_legacy.gen_range(0..cfg.cold_compounds.max(1))
            };
            assert_eq!(new, legacy);
        }
    }

    #[test]
    fn traffic_config_without_zipf_field_still_decodes() {
        // Configs serialized before the `zipf` field existed must decode
        // (missing field -> None) and keep two-bucket behavior.
        let legacy = r#"{"seed":7,"requests":10,"hot_compounds":3,"cold_compounds":9,
                         "hot_fraction":0.25}"#;
        let cfg: TrafficConfig = serde_json::from_str(legacy).expect("legacy config decodes");
        assert_eq!(cfg.seed, 7);
        assert!(cfg.zipf.is_none());
    }

    #[test]
    fn zipf_sampler_is_seeded_skewed_and_in_range() {
        let cfg = ZipfConfig { compounds: 100, exponent: 1.2 };
        let sampler = ZipfSampler::new(cfg);
        let draw_seq = |seed: u64| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..2_000).map(|_| sampler.draw(&mut rng)).collect()
        };
        let a = draw_seq(42);
        assert_eq!(a, draw_seq(42), "same seed must replay the same ranks");
        assert!(a.iter().all(|&k| k < 100), "ranks stay inside the pool");
        let count = |k: u64| a.iter().filter(|&&x| x == k).count();
        assert!(
            count(0) > 10 * count(50).max(1) / 2,
            "rank 0 must dominate deep ranks under s=1.2 (got {} vs {})",
            count(0),
            count(50)
        );
    }

    #[test]
    fn fleet_open_loop_one_replica_matches_single_instance() {
        use crate::fleet::FleetConfig;
        let cfg = TrafficConfig { requests: 60, ..TrafficConfig::default() };
        let mut fleet = Fleet::new(FleetConfig::tiny(21, 1));
        let (fleet_report, fleet_responses) =
            run_fleet_open_loop(&mut fleet, &cfg, 2_000.0, &FaultPlan::none());
        let mut svc = ScoreService::with_registries(
            ServeConfig::tiny(21),
            fleet.registry().clone(),
            fleet.surrogate_registry().clone(),
        );
        let (single_report, mut single_responses) = run_open_loop(&mut svc, &cfg, 2_000.0);
        single_responses.sort_by_key(|r| (r.completed_at, r.request_id));
        assert_eq!(fleet_responses, single_responses);
        assert_eq!(fleet_report.base.shed, single_report.shed);
        assert_eq!(fleet_report.score_digest, score_digest(&single_responses));
    }

    #[test]
    fn fleet_open_loop_with_faults_stays_accounted() {
        use crate::fleet::FleetConfig;
        let cfg = TrafficConfig { requests: 120, ..TrafficConfig::default() };
        let mut fleet = Fleet::new(FleetConfig::tiny(22, 3));
        let faults = FaultPlan::kill_restore(1, 20_000, 90_000);
        let (report, responses) = run_fleet_open_loop(&mut fleet, &cfg, 1_500.0, &faults);
        // Every issued request is accounted for: completed, shed (ladder
        // or failover) or lost to the kill.
        assert_eq!(
            report.base.completed + report.base.shed + report.lost_in_flight,
            report.base.issued
        );
        assert_eq!(responses.len() as u64, report.base.completed);
        // Replaying the same seed and fault plan is bit-identical.
        let mut fleet2 = Fleet::new(FleetConfig::tiny(22, 3));
        let (report2, _) = run_fleet_open_loop(&mut fleet2, &cfg, 1_500.0, &faults);
        assert_eq!(report.score_digest, report2.score_digest);
        assert_eq!(report.reissues, report2.reissues);
        assert_eq!(report.failover_shed, report2.failover_shed);
    }

    #[test]
    fn closed_loop_completes_every_issued_request() {
        let mut svc = ScoreService::with_fresh_registry(ServeConfig::tiny(12));
        let cfg = TrafficConfig { requests: 30, ..TrafficConfig::default() };
        let (report, responses) = run_closed_loop(&mut svc, &cfg, 4, 3_000);
        assert_eq!(report.issued, 30);
        assert_eq!(report.completed + report.shed, 30);
        assert_eq!(responses.len() as u64, report.completed);
        // Closed-loop offered load self-limits: no shedding at 4 clients.
        assert_eq!(report.shed, 0);
    }
}
