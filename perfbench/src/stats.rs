//! Order statistics over latency samples.

/// Nearest-rank percentile `p` (0–100) of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (for an even count, the mean of the two middle samples).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it: `(percentile, value, samples beyond)`. `None` when
/// even the median has fewer than ten samples above it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64, usize)> {
    let n = xs.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0].iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let beyond = n.saturating_sub(rank);
        (beyond >= 10).then(|| (p, percentile(xs, p), beyond))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0, 10)));
        let few: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(tail(&few), Some((50.0, 13.0, 12)));
        assert_eq!(tail(&few[..19]), None);
    }
}
