//! `library_screen`: the ligand-only front of the funnel, one
//! `dfhts::run_prefilter` block per operation.

use super::{scaled_ops, timed_operations, Checks, Operation, Timed, Workload};
use crate::gen::{op_seed, WARMUP_OP};
use crate::spans::Recorder;
use dfchem::genmol::{Compound, Library};
use dfchem::{ligand_score, Descriptors, Fingerprint, RankedCompound};
use dfhts::{ranking_digest, run_prefilter, PrefilterConfig, PrefilterOutcome};
use dfpool::Pool;
use std::time::Instant;

/// Shape of one prefilter block.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Compounds per block (one operation).
    pub block: u64,
    /// Ranked survivors kept per block.
    pub select: usize,
    /// Compounds per streaming chunk inside the block.
    pub chunk: usize,
}

/// Operations per [`super::FROZEN_SECONDS`] of timed work.
pub const FROZEN_OPS: usize = 20;
/// Never time fewer operations than this.
pub const MIN_OPS: usize = 15;

pub struct LibraryScreen {
    pool: Pool,
    seed: u64,
    sizes: Sizes,
    warmup_digest: u64,
}

/// The prefilter configuration of operation `op`: ZINC-druglike rules and
/// default fingerprints over a ChEMBL-like block materialized from the
/// operation's own seed.
pub fn config(seed: u64, op: u64, sizes: &Sizes) -> PrefilterConfig {
    config_for(op_seed(seed, op), sizes)
}

/// [`config`] under an already-derived campaign seed.
pub fn config_for(campaign_seed: u64, sizes: &Sizes) -> PrefilterConfig {
    let mut cfg = PrefilterConfig::new(Library::Chembl, sizes.block, campaign_seed, sizes.select);
    cfg.screen.chunk_size = sizes.chunk;
    cfg
}

/// Funnel and tally conservation of one block.
fn check_block(checks: &mut Checks, op: u64, sizes: &Sizes, out: &PrefilterOutcome) {
    let (f, t) = (&out.funnel, &out.tally);
    checks.require(f.evaluated == sizes.block && t.evaluated == sizes.block, || {
        format!("op {op}: evaluated {} / tallied {} of {}", f.evaluated, t.evaluated, sizes.block)
    });
    checks.require(
        f.passed_filter == f.fingerprinted
            && t.passed == f.passed_filter
            && t.passed + t.rejected == t.evaluated
            && f.hits <= f.fingerprinted,
        || format!("op {op}: funnel {f:?} and tally {t:?} do not conserve compounds"),
    );
    checks.require(f.chunks == sizes.block.div_ceil(sizes.chunk as u64), || {
        format!("op {op}: {} chunks for a block of {}", f.chunks, sizes.block)
    });
    let expected_len = sizes.select.min(f.passed_filter as usize);
    let ranked =
        out.shortlist.windows(2).all(|w| (w[0].score, w[0].index) <= (w[1].score, w[1].index));
    checks.require(out.shortlist.len() == expected_len && ranked, || {
        format!(
            "op {op}: shortlist of {} (want {expected_len}), ranked={ranked}",
            out.shortlist.len()
        )
    });
}

/// Bit equality of two outcomes of the same block.
fn same_outcome(a: &PrefilterOutcome, b: &PrefilterOutcome) -> bool {
    a.funnel == b.funnel
        && a.tally.per_rule == b.tally.per_rule
        && ranking_digest(&a.shortlist) == ranking_digest(&b.shortlist)
        && a.shortlist.len() == b.shortlist.len()
}

impl Workload for LibraryScreen {
    const NAME: &'static str = "library_screen";
    const UNIT: &'static str = "compounds";
    const WHY: &'static str = "ligand-only triage: dfchem topology, descriptors, rules and \
        fingerprints do all the work; tensor, dock and serve code is bypassed";

    type Sizes = Sizes;
    const FROZEN: Sizes = Sizes { block: 8192, select: 256, chunk: 4096 };

    fn ops_for(seconds: u64) -> usize {
        scaled_ops(FROZEN_OPS, MIN_OPS, seconds)
    }

    fn build(seed: u64, lanes: usize, sizes: &Sizes) -> Result<Self, String> {
        Ok(LibraryScreen { pool: Pool::new(lanes), seed, sizes: *sizes, warmup_digest: 0 })
    }

    fn warm_up(&mut self) -> Result<(), String> {
        let cfg = config(self.seed, WARMUP_OP, &self.sizes);
        let warmup = self.pool.install(|| run_prefilter(&cfg));
        // The oracle: the same block on one lane must give the same bits.
        if self.pool.threads() > 1 {
            let serial = Pool::new(1).install(|| run_prefilter(&cfg));
            if !same_outcome(&warmup, &serial) {
                return Err("warm-up block differs between one lane and all lanes".into());
            }
        }
        let mut checks = Checks::default();
        check_block(&mut checks, WARMUP_OP, &self.sizes, &warmup);
        self.warmup_digest = ranking_digest(&warmup.shortlist);
        checks.problems.first().map_or(Ok(()), |p| Err(format!("warm-up: {p}")))
    }

    fn warmup_digest(&self) -> u64 {
        self.warmup_digest
    }

    fn run(&mut self, ops: usize) -> Timed {
        timed_operations(ops, self.pool.threads(), |op, checks| {
            let cfg = config(self.seed, op, &self.sizes);
            let t = Instant::now();
            let out = self.pool.install(|| run_prefilter(&cfg));
            let wall = t.elapsed();
            check_block(checks, op, &self.sizes, &out);
            Operation { wall, outcome: Ok((out.funnel.evaluated, ranking_digest(&out.shortlist))) }
        })
    }
}

/// The same block, decomposed into the public `dfchem` calls
/// `screen_library` makes, serially: per compound materialize → descriptors
/// → rule filter, then for each survivor rematerialize → fingerprint →
/// ligand score, then rank. Returns the ranked shortlist, which must equal
/// the entry point's.
pub fn decompose_block(rec: &mut Recorder, cfg: &PrefilterConfig, op: u64) -> Vec<RankedCompound> {
    let s = &cfg.screen;
    let materialize = |rec: &mut Recorder, index: u64| {
        rec.call("chem.materialize_topology", op, 1, || {
            Compound::materialize_topology(s.library, index, s.campaign_seed)
        })
    };
    let mut ranked = Vec::new();
    for index in 0..s.num_compounds {
        let c = materialize(rec, index);
        let d = rec.call("chem.descriptors", op, 1, || Descriptors::compute(&c.mol));
        if !rec.call("chem.filter_apply", op, 1, || s.filter.apply(&d)).passed {
            continue;
        }
        let c = materialize(rec, index);
        let fp =
            rec.call("chem.fingerprint", op, 1, || Fingerprint::compute(&s.fingerprint, &c.mol));
        let score = rec.call("chem.ligand_score", op, 1, || ligand_score(&d, &fp));
        ranked.push(RankedCompound { index, score });
    }
    ranked.sort_by(|a, b| (a.score, a.index).partial_cmp(&(b.score, b.index)).expect("finite"));
    ranked.truncate(cfg.select);
    ranked
}

/// What the traced pass of this workload measured besides its spans.
pub struct Traced {
    /// Entry-point wall on one lane, for the decomposed ÷ entry ratio.
    pub entry_serial_s: f64,
    pub decomposed_s: f64,
    /// Exact: compounds that passed the rule filter ÷ compounds evaluated.
    pub filter_pass_ratio: f64,
}

/// Traced pass over one operation: the entry point on `lanes` lanes and on
/// one, then the decomposed pass on one lane.
pub fn trace(rec: &mut Recorder, seed: u64, op: u64, lanes: usize) -> Result<Traced, String> {
    let sizes = LibraryScreen::FROZEN;
    let cfg = config(seed, op, &sizes);
    let entry = rec.span("entry.library_screen", op, |rec| {
        rec.call("hts.run_prefilter", op, sizes.block, || {
            Pool::new(lanes).install(|| run_prefilter(&cfg))
        })
    });
    let serial = Pool::new(1);
    let t = Instant::now();
    let entry_serial = serial.install(|| run_prefilter(&cfg));
    let entry_serial_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let shortlist = rec.span("decomposed.library_screen", op, |rec| {
        serial.install(|| decompose_block(rec, &cfg, op))
    });
    let decomposed_s = t.elapsed().as_secs_f64();
    if ranking_digest(&shortlist) != ranking_digest(&entry.shortlist)
        || !same_outcome(&entry, &entry_serial)
    {
        return Err("library_screen: decomposed pass and entry point disagree".into());
    }
    Ok(Traced {
        entry_serial_s,
        decomposed_s,
        filter_pass_ratio: entry.funnel.passed_filter as f64 / entry.funnel.evaluated as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes = Sizes { block: 600, select: 32, chunk: 256 };

    #[test]
    fn a_second_seed_gives_other_inputs_and_passes_every_check() {
        let mut digests = Vec::new();
        for seed in [11, 12, 11] {
            let mut w = LibraryScreen::setup(seed, 2, &SMALL).unwrap();
            let timed = w.run(3);
            assert!(timed.checks.problems.is_empty(), "{:?}", timed.checks.problems);
            assert_eq!((timed.attempted, timed.units(), timed.checks.failed_ops), (3, 1800, 0));
            assert_eq!(timed.blocks.len(), 3);
            digests.push((w.warmup_digest(), timed.digest));
        }
        assert_eq!(digests[0], digests[2], "same seed, same outputs");
        assert_ne!(digests[0].0, digests[1].0, "another seed, another warm-up block");
        assert_ne!(digests[0].1, digests[1].1, "another seed, other timed blocks");
    }

    #[test]
    fn a_violated_conservation_law_fails_the_operation() {
        let cfg = config(11, 1, &SMALL);
        let mut out = run_prefilter(&cfg);
        out.funnel.passed_filter += 1;
        let mut checks = Checks::default();
        check_block(&mut checks, 1, &SMALL, &out);
        checks.end_op();
        assert_eq!(checks.failed_ops, 1);
        assert!(!checks.problems.is_empty());
    }

    #[test]
    fn the_decomposed_block_equals_the_entry_point() {
        let cfg = config(11, 1, &SMALL);
        let mut rec = Recorder::new();
        let shortlist =
            rec.span("decomposed.library_screen", 1, |rec| decompose_block(rec, &cfg, 1));
        assert_eq!(ranking_digest(&shortlist), ranking_digest(&run_prefilter(&cfg).shortlist));
        let totals = rec.totals();
        assert_eq!(totals["chem.descriptors"].calls, SMALL.block);
        assert_eq!(
            totals["chem.materialize_topology"].calls,
            SMALL.block + totals["chem.fingerprint"].calls
        );
    }
}
