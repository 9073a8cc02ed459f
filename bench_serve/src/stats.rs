//! Order statistics over latency samples.

/// Samples a percentile must leave beyond it before it is reported: a
/// p99 over fewer than 1,000 samples would rest on fewer than ten of them.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `sorted` (ascending): the smallest
/// sample with at least `q · n` samples at or below it. `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `values` (the mean of the middle two for an even count);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
    }

    #[test]
    fn refuses_without_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), None, "p99 of 100 leaves 1 beyond");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), Some(990.0));
        assert_eq!(quantile(&v[..999], 0.99), None, "990 of 999 leaves 9");
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
