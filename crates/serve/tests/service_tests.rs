//! Service-level behavior tests: the degradation ladder under overload,
//! weight hot-swaps, and the threaded front-end.

use dfchem::genmol::{CompoundId, Library};
use dfchem::pocket::TargetSite;
use dfserve::{
    spawn_server, ScoreRequest, ScoreService, ServeConfig, SubmitOutcome, Tier, TimedRequest,
};
use std::sync::Arc;

fn request(i: u64) -> ScoreRequest {
    ScoreRequest {
        id: i,
        compound: CompoundId { library: Library::ALL[(i % 4) as usize], index: i },
        target: TargetSite::ALL[(i % 4) as usize],
    }
}

#[test]
fn overload_degrades_through_the_ladder_without_unbounded_growth() {
    let cfg = ServeConfig::tiny(31);
    let capacity = cfg.ladder.queue_capacity;
    let mut svc = ScoreService::with_fresh_registry(cfg);
    // Requests every 100 ticks against a service that needs ~1000 ticks
    // per item: a 10x overload.
    let mut enqueued_tiers = Vec::new();
    let mut shed = 0u64;
    let mut responses = Vec::new();
    for i in 0..120u64 {
        let t = 100 * (i + 1);
        responses.extend(svc.advance(t));
        match svc.submit(t, request(i)) {
            SubmitOutcome::Completed(r) => responses.push(r),
            SubmitOutcome::Enqueued(tier) => enqueued_tiers.push(tier),
            SubmitOutcome::Shed { depth } => {
                shed += 1;
                assert!(depth >= capacity, "shed below the capacity bound");
            }
        }
        // The hard bound: depth never exceeds queue_capacity, ever.
        assert!(
            svc.depth() <= capacity,
            "queue depth {} exceeded capacity {} at t={}",
            svc.depth(),
            capacity,
            t
        );
    }
    responses.extend(svc.flush(100 * 121));

    // The ladder actually engaged: every tier produced completions and
    // the capacity bound actually shed.
    let stats = svc.stats();
    assert!(shed > 0, "10x overload must shed");
    assert_eq!(stats.shed, shed);
    for (i, tier) in Tier::ALL.iter().enumerate() {
        assert!(stats.per_tier[i] > 0, "tier {} never completed under overload", tier.tag());
    }
    // Everything admitted was answered exactly once after the drain.
    assert_eq!(stats.admitted, 120 - shed);
    assert_eq!(responses.len() as u64, stats.admitted);
    assert_eq!(svc.depth(), 0, "flush must fully drain the service");
    assert!(svc.next_event().is_none());
}

#[test]
fn hot_swap_changes_scores_and_invalidates_cached_entries() {
    let mut svc = ScoreService::with_fresh_registry(ServeConfig::tiny(32));
    let req = request(0);

    // Score once at generation 0 (lightly loaded: full-fusion tier).
    assert!(matches!(svc.submit(1_000, req), SubmitOutcome::Enqueued(Tier::FullFusion)));
    let first = svc.flush(10_000).pop().expect("one response");
    assert_eq!(first.generation, 0);
    assert!(!first.cache_hit);

    // Same request again: served from the score cache, same generation.
    let cached = match svc.submit(20_000, req) {
        SubmitOutcome::Completed(r) => r,
        other => panic!("expected inline cache hit, got {other:?}"),
    };
    assert!(cached.cache_hit);
    assert_eq!(cached.score.to_bits(), first.score.to_bits());

    // Publish perturbed weights: every parameter shifted by +0.05.
    let registry = Arc::clone(svc.registry());
    let (_, mut ps) = registry.arch().build();
    for (_, entry) in ps.iter_mut() {
        entry.value.map_inplace(|w| w + 0.05);
    }
    assert_eq!(registry.publish(&ps.snapshot()).expect("valid"), 1);

    // Same request after the swap: cache key now carries generation 1, so
    // the old score misses and the new weights produce a new score.
    assert!(matches!(svc.submit(30_000, req), SubmitOutcome::Enqueued(Tier::FullFusion)));
    let swapped = svc.flush(40_000).pop().expect("one response");
    assert_eq!(swapped.generation, 1);
    assert!(!swapped.cache_hit, "generation bump must invalidate");
    assert_ne!(
        swapped.score.to_bits(),
        first.score.to_bits(),
        "perturbed weights must change the score"
    );
    assert_eq!(svc.stats().swaps_observed, 1);
}

#[test]
fn threaded_front_end_answers_every_request() {
    let cfg = ServeConfig::tiny(33);
    let registry = Arc::new(dfserve::SnapshotRegistry::new(cfg.spec.clone()));
    let handle = spawn_server(cfg, registry, 8, 2);
    for i in 0..12u64 {
        // Light load: arrivals every 8000 virtual µs.
        handle
            .requests
            .send(TimedRequest { at: 8_000 * (i + 1), request: request(i) })
            .expect("dispatcher alive");
    }
    let stats = handle.shutdown();
    assert_eq!(stats.admitted, 12);
    assert_eq!(stats.shed, 0, "light load must not shed");
    assert_eq!(stats.completed, 12);
}

#[test]
fn surrogate_then_vina_complete_inline_when_model_lanes_saturate() {
    let cfg = ServeConfig::tiny(34);
    let sg_max = cfg.ladder.sg_max_depth;
    let surrogate_max = cfg.ladder.surrogate_max_depth;
    let vina_max = cfg.ladder.vina_max_depth;
    let mut svc = ScoreService::with_fresh_registry(cfg);
    // Pack the lanes at a single tick so depth climbs past the SG band
    // and through the surrogate band, stopping at the vina band's
    // ceiling. Inline completions must arrive in band order: surrogate
    // first, vina after.
    let mut inline_tiers = Vec::new();
    for i in 0..vina_max as u64 {
        if let SubmitOutcome::Completed(r) = svc.submit(5, request(i)) {
            assert!(
                r.tier == Tier::Surrogate || r.tier == Tier::Vina,
                "only surrogate and vina complete inline here, got {:?}",
                r.tier
            );
            assert!(r.completed_at > r.admitted_at);
            inline_tiers.push(r.tier);
        }
    }
    let surrogate_count = inline_tiers.iter().filter(|&&t| t == Tier::Surrogate).count();
    let vina_count = inline_tiers.iter().filter(|&&t| t == Tier::Vina).count();
    assert_eq!(
        surrogate_count,
        surrogate_max - sg_max,
        "the surrogate band is exactly [sg_max_depth, surrogate_max_depth)"
    );
    assert_eq!(
        vina_count,
        vina_max - surrogate_max,
        "the vina band is exactly [surrogate_max_depth, vina_max_depth)"
    );
    let first_vina = inline_tiers.iter().position(|&t| t == Tier::Vina).expect("vina engaged");
    assert!(
        inline_tiers[..first_vina].iter().all(|&t| t == Tier::Surrogate),
        "a single-tick burst walks the ladder in band order"
    );
    svc.flush(1_000_000);
    assert_eq!(svc.depth(), 0);
}

#[test]
fn ligand_only_tier_engages_between_vina_and_shed() {
    let cfg = ServeConfig::tiny(35);
    let vina_max = cfg.ladder.vina_max_depth;
    let capacity = cfg.ladder.queue_capacity;
    let mut svc = ScoreService::with_fresh_registry(cfg);
    // Pack everything at one tick: depth climbs through every band and
    // the tail of the burst must land in the ligand-only band, then shed.
    let mut ligand = Vec::new();
    let mut shed = 0u64;
    for i in 0..(capacity as u64 + 4) {
        match svc.submit(5, request(i)) {
            SubmitOutcome::Completed(r) if r.tier == Tier::LigandOnly => ligand.push(r),
            SubmitOutcome::Shed { depth } => {
                shed += 1;
                assert!(depth >= capacity);
            }
            _ => {}
        }
    }
    assert_eq!(
        ligand.len(),
        capacity - vina_max,
        "the ligand band is exactly [vina_max_depth, queue_capacity)"
    );
    assert_eq!(shed, 4, "past the capacity bound every request sheds");
    for r in &ligand {
        assert!(r.completed_at > r.admitted_at, "inline evaluation still takes virtual time");
        assert!(r.score.is_finite());
        assert!((-12.5..=-2.9).contains(&(r.score as f64)), "ligand score {} out of band", r.score);
    }
    svc.flush(1_000_000);
    assert_eq!(svc.depth(), 0);
}

#[test]
fn inline_tiers_share_one_timing_caching_and_rekeying_contract() {
    let cfg = ServeConfig::tiny(36);
    let (ladder, cost) = (cfg.ladder, cfg.cost);
    // The inline-tier table as a caller sees it: the admission bias that
    // lands an idle service in the tier's band, the cost of a miss, whether
    // the cache key ignores the target, and whether the surrogate registry
    // stamps it.
    let table = [
        (Tier::Surrogate, ladder.sg_max_depth, cost.surrogate_cost, true, true),
        (Tier::Vina, ladder.surrogate_max_depth, cost.vina_cost, false, false),
        (Tier::LigandOnly, ladder.vina_max_depth, cost.ligand_cost, true, false),
    ];
    for (tier, bias, miss_cost, target_free, surrogate_stamped) in table {
        let mut svc = ScoreService::with_fresh_registry(cfg.clone());
        let mut next_id = 0u64;
        let mut ask = |svc: &mut ScoreService, now: u64, target: TargetSite| {
            next_id += 1;
            let req = ScoreRequest { id: next_id, target, ..request(2) };
            match svc.submit_with_bias(now, req, bias) {
                SubmitOutcome::Completed(r) => {
                    assert_eq!((r.tier, r.admitted_at, r.started_at), (tier, now, now));
                    r
                }
                other => panic!("{tier:?} must answer inline, got {other:?}"),
            }
        };
        let (home, other) = (TargetSite::ALL[2], TargetSite::ALL[3]);

        // A miss completes at now + cost and holds one unit of depth until
        // exactly that tick.
        let miss = ask(&mut svc, 1_000, home);
        assert!(!miss.cache_hit, "{tier:?}: first sight is a miss");
        assert_eq!(miss.completed_at, 1_000 + miss_cost, "{tier:?}");
        assert_eq!(svc.depth(), 1, "{tier:?}: a miss occupies its band");
        assert!(svc.next_event().is_none(), "{tier:?}: band occupancy is not an event");
        assert!(svc.advance(miss.completed_at - 1).is_empty());
        assert_eq!(svc.depth(), 1, "{tier:?}: still occupied one tick early");
        assert!(svc.advance(miss.completed_at).is_empty());
        assert_eq!(svc.depth(), 0, "{tier:?}: retired at its completion tick");

        // A repeat completes at now from the cache and holds nothing.
        let hit = ask(&mut svc, 10_000, home);
        assert!(hit.cache_hit, "{tier:?}: a repeat is a hit");
        assert_eq!(hit.completed_at, 10_000, "{tier:?}");
        assert_eq!(hit.score.to_bits(), miss.score.to_bits(), "{tier:?}");
        assert_eq!(svc.depth(), 0, "{tier:?}: a hit occupies nothing");

        // Same compound, another pocket.
        let across = ask(&mut svc, 20_000, other);
        assert_eq!(across.cache_hit, target_free, "{tier:?}: hit across targets");
        if target_free {
            assert_eq!(across.score.to_bits(), miss.score.to_bits(), "{tier:?}");
        }
        assert_eq!(svc.depth(), usize::from(!target_free));

        // A fusion publish re-keys no inline tier; the tiers without
        // weights of their own echo the new fusion generation.
        let fusion = Arc::clone(svc.registry());
        let (_, mut ps) = fusion.arch().build();
        ps.iter_mut().for_each(|(_, e)| e.value.map_inplace(|w| w + 0.05));
        assert_eq!(fusion.publish(&ps.snapshot()).expect("valid"), 1);
        let after_fusion = ask(&mut svc, 30_000, home);
        assert!(after_fusion.cache_hit, "{tier:?}: fusion publish must not re-key");
        assert_eq!(after_fusion.generation, u64::from(!surrogate_stamped), "{tier:?}");

        // A surrogate publish re-keys the surrogate tier only.
        let surrogate = Arc::clone(svc.surrogate_registry());
        let (_, mut ps) = surrogate.arch().build();
        ps.iter_mut().for_each(|(_, e)| e.value.map_inplace(|w| w + 0.05));
        assert_eq!(surrogate.publish(&ps.snapshot()).expect("valid"), 1);
        let after_surrogate = ask(&mut svc, 40_000, home);
        assert_eq!(after_surrogate.cache_hit, !surrogate_stamped, "{tier:?}: surrogate publish");
        assert_eq!(after_surrogate.generation, 1, "{tier:?}");
        if surrogate_stamped {
            assert_ne!(after_surrogate.score.to_bits(), miss.score.to_bits());
            assert_eq!(after_surrogate.completed_at, 40_000 + miss_cost);
        }
        assert_eq!(
            svc.reference_score(after_surrogate.compound, home, tier),
            after_surrogate.score
        );

        svc.flush(1_000_000);
        assert_eq!(svc.depth(), 0);
    }
}
