//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark prints are
//! the spreads anyone recomputing them from the report gets.

/// Median, first and third quartile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `values` (any order). An empty set summarises to NaN.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (q1, median, q3) = match n {
            0 => (f64::NAN, f64::NAN, f64::NAN),
            1 => (sorted[0], sorted[0], sorted[0]),
            _ => (
                exclusive_quantile(&sorted, 1),
                exclusive_quantile(&sorted, 2),
                exclusive_quantile(&sorted, 3),
            ),
        };
        Summary { median, q1, q3, n }
    }

    /// Interquartile distance as a share of the median (0 for a single
    /// sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// The `i`-th of the three quartile cut points of `sorted` (at least two
/// values), interpolated exactly as Python's exclusive method does.
fn exclusive_quantile(sorted: &[f64], i: usize) -> f64 {
    let len = sorted.len();
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of ascending `sorted`
/// samples, with the number of samples strictly beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// Samples a tail percentile needs beyond it before it is reported
/// (choosing-metrics: the highest percentile with at least ten samples
/// beyond it).
pub const MIN_BEYOND: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let one = Summary::of(&[3.0]);
        assert_eq!(
            (one.q1, one.median, one.q3, one.spread()),
            (3.0, 3.0, 3.0, 0.0)
        );
        assert!(Summary::of(&[]).median.is_nan());
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(Summary::of(&[1.0, 2.0, 3.0, 4.0]).spread(), 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank_and_counts_the_tail() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), Some((500.0, 500)));
        assert_eq!(percentile(&sorted, 0.99), Some((990.0, 10)));
        assert_eq!(percentile(&sorted, 1.0), Some((1000.0, 0)));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let beyond = |n: usize| {
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            percentile(&sorted, 0.99).unwrap().1
        };
        assert!(beyond(1000) >= MIN_BEYOND);
        assert!(beyond(999) < MIN_BEYOND, "999 samples leave 9 beyond p99");
        assert!(beyond(5000) >= MIN_BEYOND);
        assert!(beyond(100) < MIN_BEYOND);
    }
}
