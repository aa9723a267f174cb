//! Order statistics: percentiles of op latencies within a run, and the
//! quartile spread of a metric across runs.

/// Sort a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0 < p <= 100) of an ascending slice by the
/// nearest-rank rule: the smallest value with at least `p` percent of
/// the samples at or below it. An actual sample, never an interpolation,
/// so a latency that was reported was also observed.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile with at least ten samples beyond it, and
/// its value: with fewer samples above it a tail percentile is the
/// reading of a handful of ops. `None` below 20 samples, where even the
/// median has fewer than ten above it.
pub fn tail(sorted: &[f64]) -> Option<(u32, f64)> {
    let n = sorted.len();
    (50..=99u32)
        .rev()
        .find(|&p| {
            let rank = (p as f64 / 100.0 * n as f64).ceil() as usize;
            n >= rank + 10
        })
        .map(|p| (p, percentile(sorted, p as f64)))
}

/// Median of an ascending slice (mean of the middle two when even).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile of an ascending slice, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// because that is the rule the driver applies to this benchmark's runs.
/// `None` below two samples.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(sorted: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(sorted)?;
    let m = median(sorted);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_is_nearest_rank() {
        assert_eq!(percentile(&ramp(10), 90.0), 9.0);
        assert_eq!(percentile(&ramp(10), 50.0), 5.0);
        assert_eq!(percentile(&ramp(16), 90.0), 15.0, "ceil(14.4) = 15th of 16");
        assert_eq!(percentile(&ramp(1), 90.0), 1.0);
        assert_eq!(percentile(&ramp(3), 100.0), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&ramp(19)), None, "19 samples: nine above the median");
        assert_eq!(tail(&ramp(20)), Some((50, 10.0)));
        // 100 samples: p90 has exactly ten beyond it, p91 only nine.
        assert_eq!(tail(&ramp(100)), Some((90, 90.0)));
        // 1000 samples: p99 has ten beyond it.
        assert_eq!(tail(&ramp(1000)), Some((99, 990.0)));
        assert_eq!(tail(&ramp(132)).map(|t| t.0), Some(92), "ceil(.92*132)=122, ten beyond");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1..8], n=4) == [2.25, 4.5, 6.75]
        assert_eq!(quartiles(&ramp(8)), Some((2.25, 6.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&ramp(10)), 5.5);
        assert_eq!(spread(&ramp(10)), Some(1.0));
    }
}
