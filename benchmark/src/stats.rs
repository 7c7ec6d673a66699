//! Order statistics and the within-run noise measure.

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 · n)` (1-based). `p` in (0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    // The small slack keeps 99.9 % of 10 000 at rank 9 990, not one above
    // it because 99.9 has no exact binary form.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The percentile levels a tail may be reported at, highest first.
const TAIL_LEVELS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The highest level in [`TAIL_LEVELS`] that still has at least ten
/// samples beyond its nearest-rank position, or `None` when even p90 does
/// not (fewer than 100 samples).
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
}

/// A latency sample summarised as the issue asks: median, the supported
/// tail, and how many samples stand behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(level, value)` of the highest supported tail percentile.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(values: &mut [f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    Some(Summary {
        n: values.len(),
        p50: percentile(values, 50.0),
        tail: tail_level(values.len()).map(|p| (p, percentile(values, p))),
    })
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(max − min) / median`: the spread of a throughput across the three
/// segments of one run, printed as within-run noise.
pub fn rel_spread(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = median(values);
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    if m == 0.0 {
        0.0
    } else {
        (max - min) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_an_observed_value() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_level(0), None);
        assert_eq!(tail_level(99), None);
        // n = 100: rank(p90) = 90, ten beyond. rank(p95) = 95, five beyond.
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(199), Some(90.0));
        assert_eq!(tail_level(200), Some(95.0));
        assert_eq!(tail_level(999), Some(95.0));
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(tail_level(9_999), Some(99.0));
        assert_eq!(tail_level(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_count_median_and_supported_tail() {
        let mut v = ramp(1000);
        v.reverse();
        let s = summarize(&mut v).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (1000, 500.0, Some((99.0, 990.0))));
        assert_eq!(summarize(&mut []), None);
        assert_eq!(summarize(&mut [3.0, 1.0, 2.0]).unwrap().tail, None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((rel_spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(rel_spread(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(rel_spread(&[]), 0.0);
    }
}
