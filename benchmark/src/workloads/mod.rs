//! The four workloads. Each is a sequence of *operations* on inputs made
//! from the run's seed; the timed section reports per-operation wall times
//! and totals, never one reading of a wall clock.

pub mod funnel_campaign;
pub mod library_screen;
pub mod pose_rescore;
pub mod serve_zipf;

use crate::reference;
use std::time::Duration;

/// Seconds of timed work the frozen operation counts were tuned for; it is
/// also `run_seconds` in `BENCHMARK.json`.
pub const FROZEN_SECONDS: u64 = 12;

/// Operation count for a timed section of `seconds`: the frozen count
/// scaled in proportion, never below the workload's floor. For a given
/// `--seconds` the count — and so the inputs — is the same on every host
/// and every commit.
pub fn scaled_ops(frozen: usize, floor: usize, seconds: u64) -> usize {
    let scaled = (frozen as u64 * seconds).div_ceil(FROZEN_SECONDS) as usize;
    scaled.max(floor)
}

/// Collects violated checks. A violated check fails the operation it
/// belongs to; the run then reports `correct: false` and exits non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    pub failed_ops: u64,
    pub problems: Vec<String>,
    op_failed: bool,
}

impl Checks {
    /// Records `what` as a problem of the current operation unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
            self.op_failed = true;
        }
    }

    /// Closes the current operation, counting it as failed if any of its
    /// checks was violated.
    pub fn end_op(&mut self) {
        if std::mem::take(&mut self.op_failed) {
            self.failed_ops += 1;
        }
    }
}

/// One stretch of the timed section with its own wall clock: one
/// operation, or (for `serve_zipf`) a block of consecutive requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Wall microseconds of the stretch.
    pub wall_us: f64,
    /// Units (compounds, poses, requests) it completed.
    pub units: u64,
    /// Median and tail latency of the operations inside it; both equal
    /// `wall_us` when the stretch is a single operation.
    pub p50_us: f64,
    pub tail_us: f64,
}

impl Block {
    /// The block of a workload whose operations are timed one by one.
    pub fn operation(wall: Duration, units: u64) -> Block {
        let wall_us = wall.as_secs_f64() * 1e6;
        Block { wall_us, units, p50_us: wall_us, tail_us: wall_us }
    }
}

/// What one timed section produced.
#[derive(Debug)]
pub struct Timed {
    /// The section's blocks, in order.
    pub blocks: Vec<Block>,
    /// `reference::measure_ms` samples taken between blocks (never inside
    /// one): before every operation and after the last, or for
    /// `serve_zipf` at every fifth block boundary.
    pub reference_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Digest over every operation's output, in operation order.
    pub digest: u64,
    pub checks: Checks,
}

impl Timed {
    /// Wall time of the timed section: its blocks, without the reference
    /// samples and the checks between them.
    pub fn wall(&self) -> Duration {
        Duration::from_secs_f64(self.blocks.iter().map(|b| b.wall_us).sum::<f64>() / 1e6)
    }

    /// Units (compounds, poses, requests) the blocks completed.
    pub fn units(&self) -> u64 {
        self.blocks.iter().map(|b| b.units).sum()
    }
}

/// What one operation of a workload that times its operations one by one
/// hands back: its wall time, and the units it completed with the digest of
/// its output — or why it failed.
pub struct Operation {
    pub wall: Duration,
    pub outcome: Result<(u64, u64), String>,
}

/// The timed section of such a workload: operations `1..=ops`, a host
/// reference sample before each and after the last, each operation's
/// checks closed before the next begins.
pub fn timed_operations(
    ops: usize,
    lanes: usize,
    mut operation: impl FnMut(u64, &mut Checks) -> Operation,
) -> Timed {
    let mut timed = Timed {
        blocks: Vec::with_capacity(ops),
        reference_ms: Vec::with_capacity(ops + 1),
        attempted: ops as u64,
        digest: DIGEST_SEED,
        checks: Checks::default(),
    };
    for op in 1..=ops as u64 {
        timed.reference_ms.push(reference::measure_ms(lanes));
        let done = operation(op, &mut timed.checks);
        let units = match done.outcome {
            Ok((units, digest)) => {
                timed.digest = fold_digest(timed.digest, digest);
                units
            }
            Err(why) => {
                timed.checks.require(false, || format!("op {op}: {why}"));
                0
            }
        };
        timed.blocks.push(Block::operation(done.wall, units));
        timed.checks.end_op();
    }
    timed.reference_ms.push(reference::measure_ms(lanes));
    timed
}

/// One workload: deterministic set-up from a seed, then a timed section.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// What `throughput_per_s` counts.
    const UNIT: &'static str;
    /// One line for `BENCHMARK.json` and the README: why this workload.
    const WHY: &'static str;

    /// The shape of one operation.
    type Sizes;
    /// The sizes every reported number is measured at.
    const FROZEN: Self::Sizes;

    /// Operations in a timed section of `seconds`.
    fn ops_for(seconds: u64) -> usize;

    /// Builds everything the timed section needs — pool, models, inputs,
    /// scratch directory — without running an operation. `lanes` sizes the
    /// pool, the job's ranks and the scheduler's workers alike.
    fn build(seed: u64, lanes: usize, sizes: &Self::Sizes) -> Result<Self, String>;

    /// Runs the untimed full-size warm-up operation and checks it against
    /// the workload's correctness oracle.
    fn warm_up(&mut self) -> Result<(), String>;

    /// Set-up as `setup_s` times it: [`build`](Self::build), then
    /// [`warm_up`](Self::warm_up).
    fn setup(seed: u64, lanes: usize, sizes: &Self::Sizes) -> Result<Self, String> {
        let mut built = Self::build(seed, lanes, sizes)?;
        built.warm_up()?;
        Ok(built)
    }

    /// Digest of the warm-up operation's output (0 before any warm-up).
    fn warmup_digest(&self) -> u64;

    /// Runs `ops` operations, timing each, then verifies what they
    /// produced (verification is outside the timed wall).
    fn run(&mut self, ops: usize) -> Timed;
}

/// Folds one operation's digest into the running section digest.
pub fn fold_digest(acc: u64, op_digest: u64) -> u64 {
    dfserve::fnv1a64_update(acc, &op_digest.to_le_bytes())
}

/// Starting value of a section digest (the FNV-1a offset basis).
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
