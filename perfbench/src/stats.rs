//! Order statistics for reported timings.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; otherwise the tail it claims to describe is a handful of
//! outliers and moves from run to run.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `0.0..=1.0`) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = rank_of(sorted.len(), p);
    Some(sorted[rank - 1])
}

/// Median (nearest-rank 50th percentile, averaging the two middle samples
/// of an even-sized set).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank_of(n: usize, p: f64) -> usize {
    ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank_of(n, p)
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Least-squares slope of `ys` against `xs` (zero for fewer than two points
/// or a degenerate x range).
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mx = xs[..n].iter().sum::<f64>() / n as f64;
    let my = ys[..n].iter().sum::<f64>() / n as f64;
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..n {
        num += (xs[i] - mx) * (ys[i] - my);
        den += (xs[i] - mx) * (xs[i] - mx);
    }
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
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(tail_is_supported(1000, 0.99));
        assert!(!tail_is_supported(999, 0.99));
        assert!(tail_is_supported(20, 0.5));
        assert!(!tail_is_supported(19, 0.5));
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn slope_of_a_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        assert!((slope(&xs, &ys) - 2.0).abs() < 1e-12);
        assert_eq!(slope(&[1.0], &[1.0]), 0.0);
        assert_eq!(slope(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
    }
}
