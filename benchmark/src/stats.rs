//! Order statistics for the benchmark's own numbers.
//!
//! Two conventions live here and must not be mixed up. Latency samples of
//! one run use **nearest-rank** percentiles (the value reported was really
//! observed). Run-to-run comparison (`dfperf aa`) uses the quartiles of
//! Python's `statistics.quantiles(values, n=4)`, because that is what the
//! benchmark contract's acceptance check computes over ten runs.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a statistic could not be computed.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// No samples at all.
    Empty,
    /// The percentile is outside `(0, 100]`.
    BadPercentile(f64),
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the requested rank.
    TailUnsupported { samples: usize, percentile: f64, beyond: usize },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples"),
            StatsError::BadPercentile(p) => write!(f, "percentile {p} is outside (0, 100]"),
            StatsError::TailUnsupported { samples, percentile, beyond } => write!(
                f,
                "p{percentile} of {samples} samples leaves {beyond} beyond it; \
                 {MIN_BEYOND} are required"
            ),
        }
    }
}

/// Sorts a copy of `samples` ascending. Samples are wall times and exact
/// counts, never NaN.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` per cent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, StatsError> {
    if sorted.is_empty() {
        return Err(StatsError::Empty);
    }
    if !(p > 0.0 && p <= 100.0) {
        return Err(StatsError::BadPercentile(p));
    }
    Ok(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// Nearest-rank median.
pub fn median(sorted: &[f64]) -> Result<f64, StatsError> {
    percentile(sorted, 50.0)
}

/// A tail percentile, refused unless at least [`MIN_BEYOND`] samples lie
/// strictly beyond its rank: p95 of 24 samples is an error, not a number.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Result<f64, StatsError> {
    let value = percentile(sorted, p)?;
    let beyond = sorted.len() - nearest_rank(sorted.len(), p);
    if beyond < MIN_BEYOND {
        return Err(StatsError::TailUnsupported { samples: sorted.len(), percentile: p, beyond });
    }
    Ok(value)
}

/// The highest percentile of `n` samples that still has [`MIN_BEYOND`]
/// samples beyond it, or `None` when not even the median has.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    (n >= 2 * MIN_BEYOND).then(|| 100.0 * (n - MIN_BEYOND) as f64 / n as f64)
}

/// The tail to report for a latency sample: percentile `want` when the
/// sample supports it, else the highest percentile it does support, else
/// none. Returns the percentile used with its value.
pub fn supported_tail(sorted: &[f64], want: f64) -> Option<(f64, f64)> {
    let p = highest_supported_percentile(sorted.len())?.min(want);
    tail_percentile(sorted, p).ok().map(|v| (p, v))
}

/// Mean of the smallest quarter (rounded up) of `values`.
///
/// Interference from other tenants of a shared host is one-sided — it
/// only ever makes an operation slower — and comes in stretches of
/// seconds, so the median of a run is itself a noisy number. The fastest
/// quarter of a run's operations is what the code does when the host lets
/// it; averaging a quarter rather than taking the minimum keeps one lucky
/// (or easy-input) operation from deciding the figure.
pub fn quiet_quarter_mean(values: &[f64]) -> Result<f64, StatsError> {
    if values.is_empty() {
        return Err(StatsError::Empty);
    }
    let v = sorted(values);
    let quarter = &v[..v.len().div_ceil(4)];
    Ok(quarter.iter().sum::<f64>() / quarter.len() as f64)
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default *exclusive* method) gives them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the contract bounds.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// By how much `candidate` is worse than `baseline`, as a share of
/// `baseline` (negative when it is better).
pub fn worsening(baseline: f64, candidate: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (candidate - baseline) / baseline.abs(),
        Better::Higher => (baseline - candidate) / baseline.abs(),
    }
}

/// Exact metrics (counts, ratios of counts) are compared by equality: any
/// difference between two runs of the same inputs is a behaviour change.
pub fn exact_equal(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_return_observed_values() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Ok(50.0));
        assert_eq!(percentile(&v, 95.0), Ok(95.0));
        assert_eq!(percentile(&v, 100.0), Ok(100.0));
        assert_eq!(percentile(&v, 0.5), Ok(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Ok(7.0));
        assert_eq!(median(&ramp(6)), Ok(3.0));
        assert_eq!(median(&ramp(7)), Ok(4.0));
    }

    #[test]
    fn malformed_requests_are_errors() {
        assert_eq!(percentile(&[], 50.0), Err(StatsError::Empty));
        assert_eq!(percentile(&[1.0], 0.0), Err(StatsError::BadPercentile(0.0)));
        assert_eq!(percentile(&[1.0], 101.0), Err(StatsError::BadPercentile(101.0)));
    }

    #[test]
    fn p95_of_24_samples_is_an_error_not_a_number() {
        let err = tail_percentile(&ramp(24), 95.0).unwrap_err();
        assert_eq!(err, StatsError::TailUnsupported { samples: 24, percentile: 95.0, beyond: 1 });
        // 200 samples is the first size whose p95 has ten beyond it.
        assert!(tail_percentile(&ramp(199), 95.0).is_err());
        assert_eq!(tail_percentile(&ramp(200), 95.0), Ok(190.0));
    }

    #[test]
    fn highest_supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        let p = highest_supported_percentile(28).unwrap();
        let v = ramp(28);
        assert_eq!(tail_percentile(&v, p), Ok(18.0));
        assert!(tail_percentile(&v, p + 1.0).is_err());
    }

    #[test]
    fn supported_tail_prefers_the_wanted_percentile_then_falls_back_then_gives_up() {
        assert_eq!(supported_tail(&ramp(8000), 95.0), Some((95.0, 7600.0)));
        assert_eq!(supported_tail(&ramp(250), 95.0), Some((95.0, 238.0)));
        let (p, v) = supported_tail(&ramp(28), 95.0).unwrap();
        assert!((p - 64.2857).abs() < 1e-3);
        assert_eq!(v, 18.0);
        assert_eq!(supported_tail(&ramp(6), 95.0), None);
    }

    #[test]
    fn quiet_quarter_ignores_the_disturbed_three_quarters() {
        // 28 operations: 7 quiet ones near 500, 21 disturbed ones up to 4x.
        let mut ops: Vec<f64> = (0..7).map(|i| 500.0 + i as f64).collect();
        ops.extend((0..21).map(|i| 700.0 + 60.0 * i as f64));
        assert_eq!(quiet_quarter_mean(&ops), Ok(503.0));
        // Six operations: the fastest two.
        assert_eq!(quiet_quarter_mean(&[9.0, 4.0, 7.0, 5.0, 8.0, 6.0]), Ok(4.5));
        assert_eq!(quiet_quarter_mean(&[3.0]), Ok(3.0));
        assert_eq!(quiet_quarter_mean(&[]), Err(StatsError::Empty));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&ramp(10)), Some(1.0));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 106.0, Better::Lower) - 0.06).abs() < 1e-12);
        assert!((worsening(100.0, 94.0, Better::Higher) - 0.06).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, Better::Lower) < 0.0);
    }

    #[test]
    fn exact_metrics_compare_by_equality() {
        assert!(exact_equal(0.375, 0.375));
        assert!(!exact_equal(0.375, 0.375 + f64::EPSILON));
    }
}
