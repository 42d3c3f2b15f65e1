//! The metric tables (the same names, units, directions and bounds
//! `BENCHMARK.json` declares — a unit test holds the two together) and the
//! result line every run ends with.

use crate::stats::Better;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "throughput_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "latency_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "latency_tail_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// A per-layer metric, reported by traced runs; it has no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// Times are serial self times per item; `count` and `ratio` metrics are
/// exact (they repeat bit for bit on a seed) unless they divide two times.
pub const PER_LAYER: &[PerLayer] = &[
    lower("chem.materialize_topology_us", "us"),
    lower("chem.descriptors_us", "us"),
    lower("chem.filter_apply_us", "us"),
    lower("chem.fingerprint_us", "us"),
    lower("chem.ligand_score_us", "us"),
    higher("chem.filter_pass_ratio", "ratio"),
    lower("chem.materialize_full_us", "us"),
    lower("chem.build_graph_us", "us"),
    lower("chem.voxelize_us", "us"),
    lower("fusion.forward_b10_us", "us"),
    lower("fusion.forward_b4_us", "us"),
    lower("fusion.sg_head_us", "us"),
    lower("tensor.gemm_macs_per_pose", "count"),
    lower("tensor.gemm_calls_per_pose", "count"),
    lower("dock.search_us", "us"),
    lower("dock.vina_score_us", "us"),
    lower("surrogate.featurize_us", "us"),
    lower("surrogate.predict_us", "us"),
    lower("surrogate.train_s", "s"),
    lower("hts.job.startup_us", "us"),
    lower("hts.job.evaluate_us", "us"),
    lower("hts.job.output_us", "us"),
    lower("hts.job.overhead_us", "us"),
    lower("hts.h5lite.write_us", "us"),
    lower("hts.checkpoint.append_us", "us"),
    lower("hts.sched.null_dispatch_us", "us"),
    lower("hts.sched.dispatches", "count"),
    higher("hts.sched.bundled_jobs", "count"),
    higher("hts.sched.lane_busy_share.filter", "ratio"),
    higher("hts.sched.lane_busy_share.surrogate", "ratio"),
    higher("hts.sched.lane_busy_share.dock", "ratio"),
    higher("hts.sched.lane_busy_share.rescore", "ratio"),
    lower("funnel.prefilter_s", "s"),
    lower("funnel.active_s", "s"),
    lower("funnel.rescore_s", "s"),
    lower("funnel.merge_s", "s"),
    higher("funnel.in", "count"),
    higher("funnel.passed_filter", "count"),
    higher("funnel.docked", "count"),
    higher("funnel.rescored", "count"),
    higher("funnel.hits_out", "count"),
    lower("serve.submit_us_p50", "us"),
    lower("serve.advance_us_p50", "us"),
    lower("serve.router.home_shard_us", "us"),
    higher("serve.score_cache_hit_ratio", "ratio"),
    higher("serve.feature_cache_hit_ratio", "ratio"),
    higher("serve.batch_size_mean", "count"),
    higher("serve.tier_share.full", "ratio"),
    lower("serve.tier_share.sg_head", "ratio"),
    lower("serve.tier_share.surrogate", "ratio"),
    lower("serve.tier_share.vina", "ratio"),
    lower("serve.tier_share.ligand_only", "ratio"),
    lower("serve.shed_share", "ratio"),
    lower("serve.score_alias_share", "ratio"),
    lower("serve.router.balance", "ratio"),
    higher("serve.virtual_to_wall_ratio", "ratio"),
    higher("pool.parallel_efficiency", "ratio"),
    lower("trace.overhead_share", "ratio"),
    higher("trace.leaf_coverage.library_screen", "ratio"),
    higher("trace.leaf_coverage.pose_rescore", "ratio"),
    higher("trace.leaf_coverage.funnel_campaign", "ratio"),
    higher("trace.leaf_coverage.serve_zipf", "ratio"),
    higher("trace.decomposed_to_entry.library_screen", "ratio"),
    higher("trace.decomposed_to_entry.pose_rescore", "ratio"),
    higher("trace.decomposed_to_entry.funnel_campaign", "ratio"),
    higher("trace.decomposed_to_entry.serve_zipf", "ratio"),
];

/// One reported value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// The last line of a run's standard output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

impl RunResult {
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("a result is always serializable")
    }
}

/// Metrics under construction. Only declared metrics can be set, each
/// with the unit its table row declares.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
            .find(|(declared, _)| *declared == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"))
            .1;
        self.0.insert(name.to_string(), Metric { value, unit: unit.to_string() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::funnel_campaign::FunnelCampaign;
    use crate::workloads::library_screen::LibraryScreen;
    use crate::workloads::pose_rescore::PoseRescore;
    use crate::workloads::serve_zipf::ServeZipf;
    use crate::workloads::{Workload, FROZEN_SECONDS};

    #[derive(Deserialize)]
    struct Row {
        name: String,
        unit: Option<String>,
        better: Option<String>,
        bound: Option<f64>,
        why: Option<String>,
    }

    #[derive(Deserialize)]
    struct Manifest {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Row>,
        end_to_end: Vec<Row>,
        per_layer: Vec<Row>,
    }

    fn direction(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `BENCHMARK.json` is what the driver reads and these tables are what
    /// the program prints; they must say the same thing.
    #[test]
    fn benchmark_json_declares_exactly_what_the_program_reports() {
        let m: Manifest = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(m.paths, ["benchmark"]);
        assert!(m.command.iter().any(|a| a == "benchmark/Cargo.toml"));
        assert_eq!(m.run_seconds, FROZEN_SECONDS);

        let declared: Vec<(&str, &str)> =
            m.workloads.iter().map(|w| (w.name.as_str(), w.why.as_deref().unwrap())).collect();
        let why = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
        let reported = [
            (LibraryScreen::NAME, why(LibraryScreen::WHY)),
            (PoseRescore::NAME, why(PoseRescore::WHY)),
            (FunnelCampaign::NAME, why(FunnelCampaign::WHY)),
            (ServeZipf::NAME, why(ServeZipf::WHY)),
        ];
        assert_eq!(declared.len(), reported.len());
        for ((name, text), (want_name, want_text)) in declared.iter().zip(&reported) {
            assert_eq!((name, *text), (want_name, want_text.as_str()));
            assert!(text.len() <= 200, "{name}: why is {} characters", text.len());
        }

        assert_eq!(m.end_to_end.len(), END_TO_END.len());
        for (row, e) in m.end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(row.name, e.name);
            assert_eq!(row.unit.as_deref(), Some(e.unit));
            assert_eq!(row.better.as_deref(), Some(direction(e.better)));
            assert_eq!(row.bound, Some(e.bound));
            assert!(e.bound <= 0.25);
        }
        assert_eq!(m.per_layer.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (row, l) in m.per_layer.iter().zip(PER_LAYER) {
            assert_eq!(row.name, l.name);
            assert_eq!(row.unit.as_deref(), Some(l.unit));
            assert_eq!(row.better.as_deref(), Some(direction(l.better)));
            assert_eq!(row.bound, None);
        }
    }
}
