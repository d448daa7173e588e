//! Order statistics shared by every metric the benchmark reports.

/// The value at `per_mille` tenths of a percent of `sorted` (ascending),
/// by the index rule the repository's BENCH files use:
/// `sorted[(n - 1) * p / 1000]`, rounding the index down. `None` when
/// `sorted` is empty.
pub fn percentile(sorted: &[f64], per_mille: usize) -> Option<f64> {
    assert!(
        per_mille <= 1000,
        "percentile {per_mille}/1000 out of range"
    );
    let last = sorted.len().checked_sub(1)?;
    Some(sorted[last * per_mille / 1000])
}

/// The highest of p99.9, p99, p90, p80 and p50 (in tenths of a percent)
/// that leaves at least ten of `n` samples beyond it, so a tail is never
/// read off one or two outliers. `None` when even p50 leaves fewer than
/// ten (fewer than 20 samples).
pub fn tail_per_mille(n: usize) -> Option<usize> {
    [999, 990, 900, 800, 500]
        .into_iter()
        .find(|&p| n * (1000 - p) >= 10 * 1000)
}

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method), so the spreads this crate prints match the ones an external
/// check computes. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the bounds in `BENCHMARK.json` are judged against. `None` for fewer
/// than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_is_none() {
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(percentile(&[], 990), None);
    }

    #[test]
    fn percentile_index_rounds_down() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        // (10 - 1) * p / 1000, floored.
        assert_eq!(percentile(&v, 500), Some(4.0));
        assert_eq!(percentile(&v, 900), Some(8.0));
        assert_eq!(percentile(&v, 990), Some(8.0));
        assert_eq!(percentile(&v, 1000), Some(9.0));
        assert_eq!(percentile(&[7.0], 990), Some(7.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(55), Some(800));
        assert_eq!(tail_per_mille(169), Some(900));
        assert_eq!(tail_per_mille(2000), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
