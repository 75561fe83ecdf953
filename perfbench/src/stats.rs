//! The benchmark's own statistics: medians, the percentile rule,
//! throughput, failure share and trace coverage.
//!
//! Every end-to-end op timing is a median taken with [`p50`]; `setup_s`
//! is a mean of set-ups. A percentile, the median included, is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it, so no
//! timing rests on a handful of ops.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The fewest samples whose median has [`MIN_BEYOND`] beyond it; every
/// timed phase runs at least this many ops.
pub const MIN_OPS: usize = 2 * MIN_BEYOND;

/// Median of `values` (mean of the two middle values for an even
/// count), for per-layer figures, which carry no bound. `None` for an
/// empty slice or any non-finite value.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean of `values`; `None` for an empty slice or any
/// non-finite value.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// 1-based nearest rank of the `q` percentile among `n >= 1` samples.
/// The epsilon keeps `0.9 × 100` at rank 90 despite float rounding.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Number of samples lying strictly beyond the nearest-rank `q`
/// percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The nearest-rank `q` percentile, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (e.g. a p90 needs at least 100
/// samples).
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "percentile {q} outside [0, 1)");
    if values.iter().any(|v| !v.is_finite()) || beyond(values.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), q) - 1])
}

/// The median under the percentile rule: `None` below [`MIN_OPS`]
/// samples.
pub fn p50(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The highest of the usual tail percentiles (p99.9, p99, p95, p90)
/// that [`percentile`] will report for `values`, as `(q, value)`.
pub fn highest_tail(values: &[f64]) -> Option<(f64, f64)> {
    [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find_map(|q| percentile(values, q).map(|v| (q, v)))
}

/// Work completed per second of timed wall time.
pub fn throughput(work: f64, wall_s: f64) -> Option<f64> {
    (wall_s > 0.0 && work.is_finite()).then(|| work / wall_s)
}

/// Share of attempted operations that failed.
pub fn failure_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    failed as f64 / attempted as f64
}

/// Replayed stage time divided by the real op's wall time in the same
/// run: near 1 when the replay covers the real path, above 1 when the
/// real path got faster than its replay (the replay drifted), below 1
/// when the replay misses part of the op.
pub fn coverage(stage_sum_s: f64, real_wall_s: f64) -> Option<f64> {
    (real_wall_s > 0.0 && stage_sum_s.is_finite()).then(|| stage_sum_s / real_wall_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[11.0, 12.0, 13.0, 12.0]), Some(12.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, f64::INFINITY]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        // The median is a percentile like any other: 20 samples put
        // exactly ten beyond it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 0.5), None);
    }

    #[test]
    fn p50_needs_min_ops_samples() {
        assert_eq!(beyond(MIN_OPS, 0.5), MIN_BEYOND);
        assert!(beyond(MIN_OPS - 1, 0.5) < MIN_BEYOND);
        let v: Vec<f64> = (1..=MIN_OPS).rev().map(|i| i as f64).collect();
        assert_eq!(p50(&v), Some(10.0));
        assert_eq!(p50(&v[1..]), None);
        assert_eq!(p50(&[]), None);
    }

    #[test]
    fn highest_tail_picks_the_highest_supported_percentile() {
        let v = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        assert_eq!(highest_tail(&v(50)), None);
        assert_eq!(highest_tail(&v(100)), Some((0.9, 90.0)));
        assert_eq!(highest_tail(&v(250)), Some((0.95, 238.0)));
        assert_eq!(highest_tail(&v(1000)), Some((0.99, 990.0)));
        assert_eq!(highest_tail(&v(10_000)), Some((0.999, 9990.0)));
    }

    #[test]
    fn throughput_is_work_over_timed_wall() {
        assert_eq!(throughput(12.0, 4.0), Some(3.0));
        assert_eq!(throughput(1.376, 0.5), Some(2.752));
        assert_eq!(throughput(5.0, 0.0), None);
    }

    #[test]
    fn failure_share_counts_against_attempts() {
        assert_eq!(failure_share(0, 40), 0.0);
        assert_eq!(failure_share(3, 12), 0.25);
        // Nothing attempted is a total failure, never a clean run.
        assert_eq!(failure_share(0, 0), 1.0);
    }

    #[test]
    fn coverage_is_stage_sum_over_real_wall() {
        assert_eq!(coverage(0.95, 1.0), Some(0.95));
        assert_eq!(coverage(3.0, 2.0), Some(1.5));
        assert_eq!(coverage(1.0, 0.0), None);
    }
}
