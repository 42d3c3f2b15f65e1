//! Streaming `filter → fingerprint → score` pipeline over generated
//! compound libraries.
//!
//! The pipeline walks a library in bounded-memory chunks. Each chunk is
//! processed in two pooled passes and folded into the running
//! [`FunnelStats`]/[`RejectionTally`] serially in index order:
//!
//! 1. **Every compound, no coordinates.** The bond graph only
//!    ([`Compound::materialize_graph_only`]) → descriptors → rule filter.
//!    No rule reads a coordinate, and most compounds stop here, so no atom
//!    is placed for them.
//! 2. **Survivors only, with coordinates.** The positional topology
//!    ([`Compound::materialize_topology`]) → fingerprint → ligand score,
//!    plus the one descriptor that reads the conformer,
//!    `radius_of_gyration`, which replaces the placeholder pass 1 left.
//!
//! The two materialization forms build bit-equal bond graphs (see
//! [`crate::genmol::generate_graph_only`]), so every record equals the one
//! computed from the positional form alone. Because
//! [`dfpool::Pool::parallel_map`] returns results in item order and the
//! folds are serial left-to-right, every output (records, tallies, top-k
//! ranking) is bit-identical at any lane count; the `chem_bench` binary
//! asserts this across 1/2/4/8 lanes.
//!
//! No pocket, grid, or docking pose is involved anywhere here: this is
//! the cheap outermost ring of the screening funnel (see
//! `docs/CHEMISTRY.md`), used when no target structure is available and
//! as the triage stage ahead of surrogate/docking/fusion scoring.

use crate::descriptors::Descriptors;
use crate::filter::{RejectionTally, RuleFilter, Verdict};
use crate::fingerprint::{Fingerprint, FingerprintConfig};
use crate::genmol::{Compound, Library};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Configuration for one streaming library screen.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScreenConfig {
    /// Library to stream.
    pub library: Library,
    /// Number of compounds to screen (indices `0..num_compounds`).
    pub num_compounds: u64,
    /// Campaign seed forwarded to compound materialization.
    pub campaign_seed: u64,
    /// Drug-likeness gate applied before any fingerprint work.
    pub filter: RuleFilter,
    /// Fingerprint parameters for survivors.
    pub fingerprint: FingerprintConfig,
    /// Compounds per chunk; bounds peak memory (descriptor pass holds one
    /// `Descriptors` per chunk item, fingerprint pass one fingerprint per
    /// surviving item).
    pub chunk_size: usize,
    /// Scores at or below this threshold count as funnel hits.
    pub hit_threshold: f64,
    /// Ranked compounds to retain in the outcome (0 keeps none).
    pub top_k: usize,
}

impl ScreenConfig {
    /// A ZINC-druglike screen over `num_compounds` ChEMBL-like compounds
    /// with default fingerprints and a 16 Ki-compound chunk.
    pub fn new(library: Library, num_compounds: u64, campaign_seed: u64) -> ScreenConfig {
        ScreenConfig {
            library,
            num_compounds,
            campaign_seed,
            filter: RuleFilter::zinc_druglike(),
            fingerprint: FingerprintConfig::default(),
            chunk_size: 16_384,
            hit_threshold: -9.0,
            top_k: 64,
        }
    }

    /// Validates chunk size and fingerprint parameters; panics on
    /// malformed fingerprint widths (see [`FingerprintConfig::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.chunk_size == 0 {
            return Err("chunk_size must be non-zero".into());
        }
        self.fingerprint.validate();
        Ok(())
    }
}

/// One surviving compound as seen by the streaming sink, in index order.
#[derive(Debug, Clone)]
pub struct ScreenRecord {
    /// Compound index within the library stream.
    pub index: u64,
    /// Filter verdict (always `passed` for records reaching the sink).
    pub verdict: Verdict,
    /// Physico-chemical descriptors.
    pub descriptors: Descriptors,
    /// Folded circular fingerprint.
    pub fingerprint: Fingerprint,
    /// Ligand-only pseudo-affinity (kcal/mol-like, more negative is
    /// better).
    pub score: f64,
}

/// Counts for each stage of the ligand-only funnel.
///
/// Named `FunnelStats` (not `FunnelReport`) to stay distinct from the
/// campaign-level `dfhts::enrichment::FunnelReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FunnelStats {
    /// Compounds materialized and run through the rule filter.
    pub evaluated: u64,
    /// Compounds that passed the drug-likeness gate.
    pub passed_filter: u64,
    /// Compounds fingerprinted and scored (equals `passed_filter`).
    pub fingerprinted: u64,
    /// Scored compounds at or below the hit threshold.
    pub hits: u64,
    /// Chunks streamed.
    pub chunks: u64,
}

impl FunnelStats {
    /// Folds the counts of another funnel (e.g. a later chunk) into this
    /// one.
    pub fn merge(&mut self, other: &FunnelStats) {
        self.evaluated += other.evaluated;
        self.passed_filter += other.passed_filter;
        self.fingerprinted += other.fingerprinted;
        self.hits += other.hits;
        self.chunks += other.chunks;
    }

    /// Filter pass rate, 0 when nothing was evaluated.
    pub fn filter_pass_rate(&self) -> f64 {
        dftrace::rate::mean(self.passed_filter as f64, self.evaluated as f64)
    }

    /// Hit rate among scored compounds, 0 when nothing was scored.
    pub fn hit_rate(&self) -> f64 {
        dftrace::rate::mean(self.hits as f64, self.fingerprinted as f64)
    }
}

/// A ranked survivor retained in the outcome's top-k list.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankedCompound {
    /// Compound index within the library stream.
    pub index: u64,
    /// Ligand-only pseudo-affinity.
    pub score: f64,
}

/// Aggregated result of a streaming screen.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScreenOutcome {
    /// Per-stage funnel counts.
    pub funnel: FunnelStats,
    /// Per-rule rejection accounting for the configured filter.
    pub tally: RejectionTally,
    /// Best `top_k` survivors, most negative score first, index as the
    /// deterministic tiebreak.
    pub top: Vec<RankedCompound>,
}

/// Deterministic ligand-only desirability score mapped to a
/// pseudo-affinity in roughly `(-12, -3)` kcal/mol.
///
/// A weighted product-free sum of Gaussian desirability terms over the
/// descriptors (centred on oral-drug medians: MW 380, logP 2.5, TPSA 80,
/// 5 rotors, Fsp³ 0.5) plus a fingerprint-density term rewarding
/// substructural richness near the ~12 % density typical of druglike
/// ECFPs. Pure `f64` arithmetic on per-compound inputs, so the score is
/// bit-identical regardless of chunking or lane count.
pub fn ligand_score(d: &Descriptors, fp: &Fingerprint) -> f64 {
    fn gauss(x: f64, mu: f64, sigma: f64) -> f64 {
        let z = (x - mu) / sigma;
        (-0.5 * z * z).exp()
    }
    let desirability = 0.30 * gauss(d.molecular_weight, 380.0, 120.0)
        + 0.20 * gauss(d.logp, 2.5, 1.8)
        + 0.15 * gauss(d.tpsa, 80.0, 40.0)
        + 0.15 * gauss(d.rotatable_bonds as f64, 5.0, 3.0)
        + 0.10 * gauss(d.fsp3, 0.5, 0.25)
        + 0.10 * (1.0 - (fp.density() - 0.12).abs().min(1.0));
    -3.0 - 9.0 * desirability
}

/// Streams the configured library through `filter → fingerprint → score`,
/// invoking `sink` for every surviving compound in ascending index order.
///
/// Runs on the current [`dfpool`] pool. Peak memory is bounded by
/// `chunk_size` (descriptor pass) plus the surviving fraction of one
/// chunk (fingerprint pass). Molecules are never retained across items:
/// pass 1 builds each compound's bond graph without coordinates, and
/// pass 2 rematerializes only the survivors, this time with the unrelaxed
/// conformer, which is where each record's `radius_of_gyration` is read.
/// Descriptors and verdicts are carried from pass 1, not recomputed.
pub fn screen_library_with(
    cfg: &ScreenConfig,
    mut sink: impl FnMut(&ScreenRecord),
) -> (FunnelStats, RejectionTally) {
    cfg.validate().expect("invalid screen config");
    let _span = dftrace::span("chem.screen");
    let pool = dfpool::current();
    let mut funnel = FunnelStats::default();
    let mut tally = RejectionTally::for_filter(&cfg.filter);

    let mut start = 0u64;
    while start < cfg.num_compounds {
        let len = (cfg.num_compounds - start).min(cfg.chunk_size as u64) as usize;

        // Pass 1: bond graph + descriptors + rule filter. Nothing here
        // reads a coordinate (the radius of gyration comes out 0 and is
        // replaced in pass 2).
        let t0 = Instant::now();
        let verdicts: Vec<(Descriptors, Verdict)> = pool.parallel_map(len, 256, |i| {
            let c =
                Compound::materialize_graph_only(cfg.library, start + i as u64, cfg.campaign_seed);
            let d = Descriptors::compute(&c.mol);
            let v = cfg.filter.apply(&d);
            (d, v)
        });
        dftrace::observe_us("chem.filter.chunk_us", t0.elapsed().as_micros() as u64);

        let survivors: Vec<usize> = (0..len).filter(|&i| verdicts[i].1.passed).collect();

        // Pass 2: rematerialize survivors with coordinates; fingerprint
        // and score them and read the conformer's radius of gyration.
        let t1 = Instant::now();
        let scored: Vec<(Fingerprint, f64, f64)> = pool.parallel_map(survivors.len(), 64, |si| {
            let i = survivors[si];
            let c =
                Compound::materialize_topology(cfg.library, start + i as u64, cfg.campaign_seed);
            let fp = Fingerprint::compute(&cfg.fingerprint, &c.mol);
            let score = ligand_score(&verdicts[i].0, &fp);
            (fp, score, c.mol.radius_of_gyration())
        });
        dftrace::observe_us("chem.fp.chunk_us", t1.elapsed().as_micros() as u64);

        // Serial index-order fold: deterministic regardless of lanes.
        let mut chunk_hits = 0u64;
        for (&i, (fingerprint, score, radius_of_gyration)) in survivors.iter().zip(scored) {
            if score <= cfg.hit_threshold {
                chunk_hits += 1;
            }
            let record = ScreenRecord {
                index: start + i as u64,
                verdict: verdicts[i].1,
                descriptors: Descriptors { radius_of_gyration, ..verdicts[i].0 },
                fingerprint,
                score,
            };
            sink(&record);
        }
        for (_, v) in &verdicts {
            tally.record(v);
        }

        funnel.evaluated += len as u64;
        funnel.passed_filter += survivors.len() as u64;
        funnel.fingerprinted += survivors.len() as u64;
        funnel.hits += chunk_hits;
        funnel.chunks += 1;

        dftrace::counter_add("chem.filter.evaluated", len as u64);
        dftrace::counter_add("chem.filter.passed", survivors.len() as u64);
        dftrace::counter_add("chem.filter.rejected", (len - survivors.len()) as u64);
        dftrace::counter_add("chem.fp.computed", survivors.len() as u64);
        dftrace::counter_add("chem.screen.hits", chunk_hits);
        dftrace::counter_add("chem.screen.chunks", 1);

        start += len as u64;
    }
    (funnel, tally)
}

/// Streams the library and aggregates the outcome: funnel counts,
/// per-rule rejection tally, and the deterministic top-k ranking.
pub fn screen_library(cfg: &ScreenConfig) -> ScreenOutcome {
    let mut top: Vec<RankedCompound> = Vec::with_capacity(cfg.top_k.saturating_mul(2));
    let (funnel, tally) = screen_library_with(cfg, |r| {
        if cfg.top_k == 0 {
            return;
        }
        top.push(RankedCompound { index: r.index, score: r.score });
        if top.len() >= cfg.top_k * 2 {
            rank_truncate(&mut top, cfg.top_k);
        }
    });
    rank_truncate(&mut top, cfg.top_k);
    ScreenOutcome { funnel, tally, top }
}

/// Sorts by (score ascending, index ascending) and truncates to `k`.
fn rank_truncate(top: &mut Vec<RankedCompound>, k: usize) {
    top.sort_by(|a, b| {
        a.score.partial_cmp(&b.score).expect("scores are finite").then(a.index.cmp(&b.index))
    });
    top.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ScreenConfig {
        let mut cfg = ScreenConfig::new(Library::Chembl, 400, 11);
        cfg.chunk_size = 64;
        cfg.top_k = 10;
        cfg
    }

    #[test]
    fn funnel_counts_are_consistent() {
        let out = screen_library(&tiny_config());
        assert_eq!(out.funnel.evaluated, 400);
        assert_eq!(out.funnel.passed_filter, out.funnel.fingerprinted);
        assert!(out.funnel.hits <= out.funnel.fingerprinted);
        assert_eq!(out.funnel.chunks, 7, "400 compounds / 64-chunk = 7 chunks");
        assert_eq!(out.tally.evaluated, 400);
        assert_eq!(out.tally.passed, out.funnel.passed_filter);
        assert!(out.funnel.passed_filter > 0, "a druglike generator should pass some compounds");
        assert!(out.funnel.passed_filter < 400, "the ZINC gate should reject some compounds");
    }

    #[test]
    fn chunk_size_does_not_change_results() {
        let a = screen_library(&tiny_config());
        let mut cfg = tiny_config();
        cfg.chunk_size = 13; // ragged chunks
        let b = screen_library(&cfg);
        assert_eq!(a.funnel.evaluated, b.funnel.evaluated);
        assert_eq!(a.funnel.passed_filter, b.funnel.passed_filter);
        assert_eq!(a.funnel.hits, b.funnel.hits);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.top, b.top);
        assert_ne!(a.funnel.chunks, b.funnel.chunks, "only the chunk count may differ");
    }

    #[test]
    fn pooled_screen_is_bit_identical_to_serial() {
        let cfg = tiny_config();
        let serial = dfpool::Pool::new(1).install(|| screen_library(&cfg));
        for lanes in [2usize, 4] {
            let pooled = dfpool::Pool::new(lanes).install(|| screen_library(&cfg));
            assert_eq!(serial.tally, pooled.tally, "{lanes}-lane tally drifted");
            assert_eq!(serial.top, pooled.top, "{lanes}-lane ranking drifted");
            assert_eq!(serial.funnel, pooled.funnel, "{lanes}-lane funnel drifted");
        }
    }

    #[test]
    fn sink_sees_survivors_in_index_order_with_scores_in_band() {
        let mut last = None;
        let cfg = tiny_config();
        let (funnel, _) = screen_library_with(&cfg, |r| {
            assert!(r.verdict.passed);
            assert!(r.score > -12.5 && r.score < -2.9, "score {} outside band", r.score);
            assert!(r.fingerprint.count_ones() > 0, "survivors have non-empty fingerprints");
            if let Some(prev) = last {
                assert!(r.index > prev, "sink must run in ascending index order");
            }
            last = Some(r.index);
        });
        assert_eq!(funnel.fingerprinted, funnel.passed_filter);
    }

    /// Everything a record carries, floats as bit patterns.
    type RecordBits = (u64, Verdict, [u64; 13], Vec<u64>, u64);

    fn record_bits(r: &ScreenRecord) -> RecordBits {
        let d = &r.descriptors;
        let descriptors = [
            d.molecular_weight.to_bits(),
            d.heavy_atoms as u64,
            d.carbons as u64,
            d.rotatable_bonds as u64,
            d.rotatable_bonds_strict as u64,
            d.rigid_bonds as u64,
            d.hbond_donors as u64,
            d.hbond_acceptors as u64,
            d.logp.to_bits(),
            d.tpsa.to_bits(),
            d.ring_count as u64,
            d.fsp3.to_bits(),
            d.radius_of_gyration.to_bits(),
        ];
        (r.index, r.verdict, descriptors, r.fingerprint.words().to_vec(), r.score.to_bits())
    }

    /// The screen builds pass 1 from the coordinate-free bond graph; its
    /// record stream must equal the one built compound by compound from
    /// the positional topology alone.
    #[test]
    fn record_stream_equals_the_per_compound_public_calls() {
        let mut cfg = ScreenConfig::new(Library::Chembl, 700, 2021);
        let mut records = Vec::new();
        let mut tally = RejectionTally::for_filter(&cfg.filter);
        let mut funnel = FunnelStats::default();
        for index in 0..cfg.num_compounds {
            let c = Compound::materialize_topology(cfg.library, index, cfg.campaign_seed);
            let descriptors = Descriptors::compute(&c.mol);
            let verdict = cfg.filter.apply(&descriptors);
            tally.record(&verdict);
            funnel.evaluated += 1;
            if !verdict.passed {
                continue;
            }
            let fingerprint = Fingerprint::compute(&cfg.fingerprint, &c.mol);
            let score = ligand_score(&descriptors, &fingerprint);
            funnel.passed_filter += 1;
            funnel.fingerprinted += 1;
            funnel.hits += u64::from(score <= cfg.hit_threshold);
            records.push(record_bits(&ScreenRecord {
                index,
                verdict,
                descriptors,
                fingerprint,
                score,
            }));
        }
        assert!(records.len() > 100 && records.len() < 600, "{} survivors", records.len());

        for chunk_size in [64usize, 257] {
            cfg.chunk_size = chunk_size;
            funnel.chunks = cfg.num_compounds.div_ceil(chunk_size as u64);
            for lanes in [1usize, 2, 4] {
                let mut streamed = Vec::new();
                let (f, t) = dfpool::Pool::new(lanes)
                    .install(|| screen_library_with(&cfg, |r| streamed.push(record_bits(r))));
                let at = format!("chunk {chunk_size}, {lanes} lanes");
                assert_eq!(streamed, records, "{at}");
                assert_eq!(t, tally, "{at}");
                assert_eq!(f, funnel, "{at}");
            }
        }
    }

    #[test]
    fn top_k_is_sorted_best_first_and_bounded() {
        let out = screen_library(&tiny_config());
        assert!(out.top.len() <= 10);
        assert!(!out.top.is_empty());
        for w in out.top.windows(2) {
            assert!(
                w[0].score < w[1].score || (w[0].score == w[1].score && w[0].index < w[1].index),
                "ranking must be (score, index)-ordered"
            );
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = tiny_config();
        cfg.chunk_size = 0;
        assert!(cfg.validate().is_err());
    }
}
