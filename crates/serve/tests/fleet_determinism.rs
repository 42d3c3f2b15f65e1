//! The fleet determinism locks.
//!
//! Four contracts, mirroring (and extending) the single-instance lock in
//! `determinism.rs`:
//!
//! 1. **Replay** — one Zipf-skewed overload profile with a shard-failure
//!    fault matrix and watermark admission, replayed under every
//!    combination of router thread count (1, 2, 4) and tracing (off,
//!    on), must produce bit-identical scores, tiers, timestamps, shed
//!    decisions, failover counts and per-shard routing.
//! 2. **Single-instance equivalence** — a 1-replica fleet (watermark
//!    off, no faults) is byte-for-byte the plain `ScoreService` under
//!    the same traffic.
//! 3. **Score bit-identity** — every fleet response under faults carries
//!    exactly the bits of `ScoreService::reference_score` (the
//!    cache-free, batch-free oracle): sharding, batch composition,
//!    caching and failover may change *when* and *where* a score is
//!    computed, never its value.
//! 4. **Fleet-wide hot-swap** — publishing a new weight generation into
//!    the shared registry re-keys every shard's score cache at once.
//!
//! Serial `#[test]`s where `dftrace::set_enabled` (global) is toggled.

use dfserve::{
    run_fleet_open_loop, run_open_loop, FaultEvent, FaultPlan, Fleet, FleetConfig, ScoreService,
    ServeConfig, SubmitOutcome, Tier, TrafficConfig, WatermarkConfig, ZipfConfig,
};

/// Skewed overload traffic: Zipf(1.1) over 500 compounds, arrivals fast
/// enough to queue, degrade, and exercise failover under the fault plan.
fn traffic() -> TrafficConfig {
    TrafficConfig {
        seed: 5,
        requests: 300,
        zipf: Some(ZipfConfig { compounds: 500, exponent: 1.1 }),
        ..TrafficConfig::default()
    }
}

fn fleet_config() -> FleetConfig {
    let mut cfg = FleetConfig::tiny(31, 4);
    cfg.watermark = WatermarkConfig { degrade_depth: 10, bias_per_excess: 2 };
    cfg
}

/// Overlapping kill/restore windows on two replicas.
fn faults() -> FaultPlan {
    FaultPlan {
        events: vec![
            FaultEvent { at: 6_000, replica: 2, up: false },
            FaultEvent { at: 12_000, replica: 0, up: false },
            FaultEvent { at: 20_000, replica: 2, up: true },
            FaultEvent { at: 28_000, replica: 0, up: true },
        ],
    }
}

/// Everything observable about one fleet replay, bit-exact.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    /// (request id, tier tag, score bits, admitted, completed, cache hit)
    /// in merged `(completed_at, request_id)` order.
    responses: Vec<(u64, &'static str, u32, u64, u64, bool)>,
    score_digest: u64,
    reissues: u64,
    failover_shed: u64,
    lost_in_flight: u64,
    degraded: u64,
    shed: u64,
    per_shard_routed: Vec<u64>,
    per_shard_home: Vec<u64>,
}

fn replay() -> Fingerprint {
    let mut fleet = Fleet::new(fleet_config());
    let (report, responses) = run_fleet_open_loop(&mut fleet, &traffic(), 120.0, &faults());
    Fingerprint {
        responses: responses
            .iter()
            .map(|r| {
                (
                    r.request_id,
                    r.tier.tag(),
                    r.score.to_bits(),
                    r.admitted_at,
                    r.completed_at,
                    r.cache_hit,
                )
            })
            .collect(),
        score_digest: report.score_digest,
        reissues: report.reissues,
        failover_shed: report.failover_shed,
        lost_in_flight: report.lost_in_flight,
        degraded: report.degraded,
        shed: report.base.shed,
        per_shard_routed: report.per_shard_routed,
        per_shard_home: report.per_shard_home,
    }
}

#[test]
fn fleet_replay_is_bit_identical_across_threads_and_tracing() {
    let trace_was_on = dftrace::enabled();
    let baseline = dfpool::Pool::new(1).install(replay);
    // The profile must actually exercise the interesting paths.
    assert!(baseline.reissues > 0, "fault plan never triggered failover");
    assert!(baseline.lost_in_flight > 0, "kills never caught work in flight");
    assert!(baseline.degraded > 0, "watermark never degraded a tier");
    assert!(baseline.responses.len() > 100);
    for threads in [1usize, 2, 4] {
        for trace in [false, true] {
            dftrace::set_enabled(trace);
            let run = dfpool::Pool::new(threads).install(replay);
            assert_eq!(run, baseline, "fleet replay diverged at {threads} threads, trace={trace}");
        }
    }
    dftrace::set_enabled(trace_was_on);
}

#[test]
fn one_replica_fleet_equals_single_instance_under_overload() {
    let cfg = TrafficConfig { seed: 9, requests: 200, ..TrafficConfig::default() };
    let mut fleet = Fleet::new(FleetConfig::tiny(41, 1));
    let (fleet_report, fleet_responses) =
        run_fleet_open_loop(&mut fleet, &cfg, 100.0, &FaultPlan::none());
    let mut single = ScoreService::with_registries(
        ServeConfig::tiny(41),
        fleet.registry().clone(),
        fleet.surrogate_registry().clone(),
    );
    let (single_report, mut single_responses) = run_open_loop(&mut single, &cfg, 100.0);
    single_responses.sort_by_key(|r| (r.completed_at, r.request_id));
    assert!(single_report.shed > 0, "overload profile must shed");
    assert_eq!(fleet_responses, single_responses, "fleet(1) must equal the plain service");
    assert_eq!(fleet_report.base.shed, single_report.shed);
    assert_eq!(fleet_report.base.per_tier, single_report.per_tier);
}

#[test]
fn fleet_scores_under_faults_match_the_reference_oracle() {
    let mut fleet = Fleet::new(fleet_config());
    let (_, responses) = run_fleet_open_loop(&mut fleet, &traffic(), 120.0, &faults());
    // A cache-free oracle sharing the fleet's registries (generation 0
    // throughout: no hot-swaps in this profile).
    let mut oracle = ScoreService::with_registries(
        ServeConfig::tiny(31),
        fleet.registry().clone(),
        fleet.surrogate_registry().clone(),
    );
    let mut checked = std::collections::HashSet::new();
    for r in &responses {
        // Each distinct (compound, target, tier) computes once.
        if checked.insert((r.compound, r.target, r.tier)) {
            let expect = oracle.reference_score(r.compound, r.target, r.tier);
            assert_eq!(
                r.score.to_bits(),
                expect.to_bits(),
                "response {} (tier {}) diverged from the reference oracle",
                r.request_id,
                r.tier.tag()
            );
        }
    }
    assert!(checked.len() > 50, "oracle check must cover a meaningful population");
}

#[test]
fn hot_swap_rekeys_every_shard_at_once() {
    let mut fleet = Fleet::new(FleetConfig::tiny(51, 3));
    // Warm two shards with full-fusion scores at generation 0.
    let reqs: Vec<_> = (0..3u64)
        .map(|i| dfserve::ScoreRequest {
            id: i,
            compound: dfchem::genmol::CompoundId {
                library: dfchem::genmol::Library::ALL[i as usize % 2],
                index: i,
            },
            target: dfchem::pocket::TargetSite::Protease1,
        })
        .collect();
    let mut first = Vec::new();
    for (i, &r) in reqs.iter().enumerate() {
        let _ = fleet.submit(i as u64 * 10_000, r);
    }
    first.extend(fleet.flush(100_000));
    assert_eq!(first.len(), reqs.len());
    assert!(first.iter().all(|r| r.generation == 0 && r.tier == Tier::FullFusion));

    // Publish perturbed weights into the shared registry.
    let registry = fleet.registry().clone();
    let (_, mut ps) = registry.arch().build();
    for (_, entry) in ps.iter_mut() {
        entry.value.map_inplace(|w| w + 0.05);
    }
    assert_eq!(registry.publish(&ps.snapshot()).expect("valid"), 1);

    // Resubmit the same requests: every shard must miss (generation 1 in
    // the key) and produce a different score.
    let t0 = 200_000u64;
    for (i, &r) in reqs.iter().enumerate() {
        match fleet.submit(t0 + i as u64 * 10_000, r) {
            dfserve::FleetOutcome::Enqueued { .. } => {}
            other => panic!("expected a cache miss enqueue after the swap, got {other:?}"),
        }
    }
    let swapped = fleet.flush(400_000);
    assert_eq!(swapped.len(), reqs.len());
    for (new, old) in swapped.iter().zip(first.iter()) {
        assert_eq!(new.generation, 1);
        assert!(!new.cache_hit);
        assert_ne!(new.score.to_bits(), old.score.to_bits(), "new weights, new score");
    }
}

/// The plain single-service path still works with `submit` delegating to
/// `submit_with_bias` (regression guard for the satellite refactor).
#[test]
fn plain_submit_is_submit_with_zero_bias() {
    let mut a = ScoreService::with_fresh_registry(ServeConfig::tiny(61));
    let mut b = ScoreService::with_fresh_registry(ServeConfig::tiny(61));
    for i in 0..30u64 {
        let req = dfserve::ScoreRequest {
            id: i,
            compound: dfchem::genmol::CompoundId {
                library: dfchem::genmol::Library::ALL[0],
                index: i % 5,
            },
            target: dfchem::pocket::TargetSite::Spike1,
        };
        let t = i * 300;
        let ra = a.submit(t, req);
        let rb = b.submit_with_bias(t, req, 0);
        match (ra, rb) {
            (SubmitOutcome::Completed(x), SubmitOutcome::Completed(y)) => assert_eq!(x, y),
            (SubmitOutcome::Enqueued(x), SubmitOutcome::Enqueued(y)) => assert_eq!(x, y),
            (SubmitOutcome::Shed { depth: x }, SubmitOutcome::Shed { depth: y }) => {
                assert_eq!(x, y)
            }
            (x, y) => panic!("outcomes diverged: {x:?} vs {y:?}"),
        }
    }
    let fa = a.flush(30 * 300);
    let fb = b.flush(30 * 300);
    assert_eq!(fa, fb);
}
