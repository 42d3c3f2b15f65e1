//! The featurize span's children: a feature miss records where its time
//! went (materialize, spatial graph, voxel grid), and a warm request
//! records none of it.
//!
//! Kept alone in its test binary: `dftrace` state is process-global, so
//! another test featurizing concurrently would add to the counts.

use dfchem::genmol::{CompoundId, Library};
use dfchem::pocket::TargetSite;
use dfserve::{ScoreRequest, ScoreService, ServeConfig, SubmitOutcome, Tier};
use std::sync::Arc;

const CHILDREN: [&str; 3] =
    ["serve.featurize.materialize", "serve.featurize.graph", "serve.featurize.voxel"];

/// Calls of each child span (under any parent path) and of `serve.featurize`.
fn featurize_counts() -> ([u64; 3], u64) {
    let trace = dftrace::snapshot();
    (
        CHILDREN.map(|c| trace.sum_spans_with_leaf(c).0),
        trace.sum_spans_with_leaf("serve.featurize").0,
    )
}

#[test]
fn a_cold_full_fusion_request_records_each_featurize_child_once() {
    let trace_was_on = dftrace::enabled();
    dftrace::set_enabled(true);
    dftrace::reset();
    let mut svc = ScoreService::with_fresh_registry(ServeConfig::tiny(37));
    let req = ScoreRequest {
        id: 0,
        compound: CompoundId { library: Library::Chembl, index: 11 },
        target: TargetSite::Protease1,
    };

    assert!(matches!(svc.submit(1_000, req), SubmitOutcome::Enqueued(Tier::FullFusion)));
    let cold = svc.flush(10_000).pop().expect("one response");
    assert!(!cold.cache_hit);
    assert_eq!(featurize_counts(), ([1, 1, 1], 1), "a cold miss featurizes once");

    // Warm, twice over: a score-cache hit, then (after a weight publish
    // re-keys the score) a model run on cached features.
    dftrace::reset();
    assert!(matches!(svc.submit(20_000, req), SubmitOutcome::Completed(r) if r.cache_hit));
    let registry = Arc::clone(svc.registry());
    let (_, mut ps) = registry.arch().build();
    ps.iter_mut().for_each(|(_, e)| e.value.map_inplace(|w| w + 0.05));
    assert_eq!(registry.publish(&ps.snapshot()).expect("valid"), 1);
    assert!(matches!(svc.submit(30_000, req), SubmitOutcome::Enqueued(Tier::FullFusion)));
    let rescored = svc.flush(40_000).pop().expect("one response");
    assert_eq!(rescored.generation, 1);
    assert_eq!(featurize_counts(), ([0, 0, 0], 0), "warm requests featurize nothing");

    dftrace::set_enabled(trace_was_on);
}
