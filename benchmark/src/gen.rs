//! Workload inputs, all derived from `--seed`.
//!
//! Every operation gets its own seed (`derive_seed(seed, op)`), and the
//! workspace materializes compounds and pockets *from* that seed, so no two
//! operations of a run — and no two runs on different seeds — share an
//! input. A memo keyed on inputs therefore cannot turn the timed section
//! into cache hits.
//!
//! The serving trace is the one input generated here in full: Poisson
//! arrivals on the virtual clock and Zipf-popular compounds crossed with a
//! uniform library and a uniform target.

use dfchem::genmol::{CompoundId, Library};
use dfchem::pocket::TargetSite;
use dfserve::{ScoreRequest, Ticks};
use dftensor::rng::{derive_seed, rng, uniform};
use rand::rngs::StdRng;

/// Stream index of the untimed warm-up operation; timed operation `i`
/// (0-based) uses stream `i + 1`.
pub const WARMUP_OP: u64 = 0;

/// Seed of operation `op` (see [`WARMUP_OP`]) of a run on `seed`.
pub fn op_seed(seed: u64, op: u64) -> u64 {
    derive_seed(seed, op)
}

/// Inverse-CDF Zipf(s) sampler over ranks `0..n`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        assert!(n >= 1 && exponent >= 0.0, "Zipf needs a rank and a non-negative exponent");
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|k| {
                total += ((k + 1) as f64).powf(-exponent);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// Maps a uniform draw `u` in `[0, 1)` to a rank.
    pub fn rank(&self, u: f64) -> usize {
        let total = *self.cumulative.last().expect("at least one rank");
        self.cumulative.partition_point(|&c| c < u * total).min(self.cumulative.len() - 1)
    }
}

/// Shape of the serving traffic.
#[derive(Debug, Clone, Copy)]
pub struct TraceShape {
    /// Compound ranks the Zipf popularity runs over.
    pub compounds: usize,
    /// Zipf exponent.
    pub zipf_exponent: f64,
    /// Mean of the exponential inter-arrival gap, in virtual ticks.
    pub mean_interarrival_ticks: f64,
}

/// One request with the virtual tick it arrives at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub at: Ticks,
    pub request: ScoreRequest,
}

/// The open-loop trace, generated on demand so the warm-up and the timed
/// section are consecutive stretches of one arrival process. Arrival
/// ticks are a Poisson process (exponential gaps, at least one tick so the
/// clock strictly advances); request ids run from 0 in arrival order.
pub struct ServeTrace {
    zipf: Zipf,
    rng: StdRng,
    mean_gap: f64,
    at: Ticks,
    next_id: u64,
}

impl ServeTrace {
    pub fn new(seed: u64, shape: &TraceShape) -> ServeTrace {
        ServeTrace {
            zipf: Zipf::new(shape.compounds, shape.zipf_exponent),
            rng: rng(derive_seed(seed, 0x5E17E)),
            mean_gap: shape.mean_interarrival_ticks,
            at: 0,
            next_id: 0,
        }
    }

    /// The next `n` arrivals.
    pub fn take(&mut self, n: usize) -> Vec<Arrival> {
        (0..n)
            .map(|_| {
                let r = &mut self.rng;
                let gap = -self.mean_gap * (1.0 - uniform(r, 0.0, 1.0)).ln();
                self.at += (gap as Ticks).max(1);
                let index = self.zipf.rank(uniform(r, 0.0, 1.0)) as u64;
                let library = Library::ALL[(uniform(r, 0.0, 4.0) as usize).min(3)];
                let target = TargetSite::ALL[(uniform(r, 0.0, 4.0) as usize).min(3)];
                let id = self.next_id;
                self.next_id += 1;
                let request = ScoreRequest { id, compound: CompoundId { library, index }, target };
                Arrival { at: self.at, request }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: TraceShape =
        TraceShape { compounds: 2000, zipf_exponent: 1.1, mean_interarrival_ticks: 1500.0 };
    const REQUESTS: usize = 4000;

    fn serve_trace(seed: u64, shape: &TraceShape) -> Vec<Arrival> {
        ServeTrace::new(seed, shape).take(REQUESTS)
    }

    #[test]
    fn operation_seeds_never_repeat_within_or_across_runs() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in [1u64, 2, 3] {
            for op in 0..64 {
                assert!(seen.insert(op_seed(seed, op)), "seed {seed} op {op} repeats");
            }
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks_and_stays_in_range() {
        let z = Zipf::new(2000, 1.1);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999_999), 1999);
        let mut r = rng(9);
        let draws: Vec<usize> = (0..20_000).map(|_| z.rank(uniform(&mut r, 0.0, 1.0))).collect();
        let top10 = draws.iter().filter(|&&k| k < 10).count() as f64 / draws.len() as f64;
        // Zipf(1.1) over 2000 ranks puts ~44 % of the mass on the top ten.
        assert!((0.40..0.48).contains(&top10), "top-10 share {top10}");
        // Exponent 0 is uniform.
        assert_eq!(Zipf::new(4, 0.0).rank(0.5), 1);
    }

    #[test]
    fn arrivals_are_poisson_on_a_strictly_increasing_clock() {
        let trace = serve_trace(7, &SHAPE);
        assert_eq!(trace.len(), REQUESTS);
        assert!(trace.windows(2).all(|w| w[0].at < w[1].at));
        assert!(trace.iter().enumerate().all(|(i, a)| a.request.id == i as u64));
        let mean_gap = trace.last().unwrap().at as f64 / trace.len() as f64;
        assert!((1400.0..1600.0).contains(&mean_gap), "mean gap {mean_gap}");
    }

    #[test]
    fn libraries_and_targets_are_uniform() {
        let trace = serve_trace(7, &SHAPE);
        for lib in Library::ALL {
            let share = trace.iter().filter(|a| a.request.compound.library == lib).count() as f64
                / trace.len() as f64;
            assert!((0.22..0.28).contains(&share), "{lib:?} share {share}");
        }
        for target in TargetSite::ALL {
            let share = trace.iter().filter(|a| a.request.target == target).count() as f64
                / trace.len() as f64;
            assert!((0.22..0.28).contains(&share), "{target:?} share {share}");
        }
    }

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        assert_eq!(serve_trace(7, &SHAPE), serve_trace(7, &SHAPE));
        // Taking the trace in two stretches continues one arrival process.
        let mut g = ServeTrace::new(7, &SHAPE);
        let (head, tail) = (g.take(1000), g.take(REQUESTS - 1000));
        assert_eq!([head, tail].concat(), serve_trace(7, &SHAPE));
        let (a, b) = (serve_trace(7, &SHAPE), serve_trace(8, &SHAPE));
        let same = a.iter().zip(&b).filter(|(x, y)| x.request == y.request).count();
        assert!(same < REQUESTS / 10, "{same} of {} requests coincide", REQUESTS);
    }
}
