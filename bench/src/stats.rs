//! Order statistics over per-operation samples and per-run values.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct` % of
/// the samples at or below it. `NaN` for an empty slice.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank_of(v.len(), pct) - 1]
}

/// Share of a run's groups (%) taken as undisturbed. A run is cut into
/// groups of equal work and each end-to-end timing is read at the quartile
/// of the groups on the fast side: whatever else the shared host is doing
/// can only slow a group down, never speed it up, so the fast quartile
/// repeats from run to run where the median follows the host's load.
pub const CALM_PCT: f64 = 25.0;

/// A throughput read off the calm quartile of the groups' throughputs.
pub fn calm_high(per_group: &[f64]) -> f64 {
    percentile(per_group, 100.0 - CALM_PCT)
}

/// A latency read off the calm quartile of the groups' latencies.
pub fn calm_low(per_group: &[f64]) -> f64 {
    percentile(per_group, CALM_PCT)
}

/// The `pct` percentile of each non-empty group's samples, then the calm
/// quartile of those: a median or tail figure that disturbed groups cannot
/// move. `NaN` if every group is empty.
pub fn calm_percentile(groups: &[Vec<f64>], pct: f64) -> f64 {
    let per_group: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| percentile(g, pct))
        .collect();
    calm_low(&per_group)
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank_of(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `pct` percentile's
/// rank. A percentile is reported as a tail figure only when this is at
/// least [`MIN_BEYOND`]; with fewer, it is a handful of outliers.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank_of(n, pct)
    }
}

/// Samples that must lie beyond a percentile for it to be trusted.
pub const MIN_BEYOND: usize = 10;

/// First quartile, median and third quartile by the exclusive method —
/// what Python's `statistics.quantiles(values, n=4)` returns, so the
/// spreads printed here are the ones the pipeline computes. Needs two
/// values; with fewer, all three are the single value (or `NaN`).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped into the data.
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(2), at(3))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread a bound is judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn calm_quartile_ignores_disturbed_groups() {
        let calm: Vec<f64> = (1..=20).map(f64::from).collect();
        let disturbed: Vec<f64> = calm.iter().map(|v| v * 10.0).collect();
        // Five of eight groups disturbed: the median group is a slow one,
        // the calm quartile is not.
        let mut groups = vec![disturbed; 5];
        groups.extend(vec![calm; 3]);
        groups.push(Vec::new());
        assert_eq!(calm_percentile(&groups, 90.0), 18.0);
        assert_eq!(calm_percentile(&groups, 50.0), 10.0);
        // Pooled, the disturbed groups own the median and the tail.
        assert_eq!(percentile(&groups.concat(), 50.0), 40.0);
        assert!(calm_percentile(&[Vec::new()], 90.0).is_nan());
        // Throughputs are read from the other side.
        let per_group = [50.0, 100.0, 52.0, 98.0, 51.0, 99.0, 49.0, 97.0];
        assert_eq!(calm_high(&per_group), 98.0);
        assert_eq!(calm_low(&per_group), 50.0);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 samples sits at rank 190: exactly ten beyond.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert!(samples_beyond(200, 95.0) >= MIN_BEYOND);
        // One sample fewer and p95 is no longer supported; p90 still is.
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert!(samples_beyond(199, 90.0) >= MIN_BEYOND);
        // p80 of 66 training steps leaves 13 beyond; p90 only 6.
        assert_eq!(samples_beyond(66, 80.0), 13);
        assert_eq!(samples_beyond(66, 90.0), 6);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
