//! Summary statistics for latency samples.

/// A latency percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in (0, 1].
    pub quantile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The median of `values` (the lower middle for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(sorted.len() - 1) / 2]
}

/// The mean of `values`; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `quantile` of `values`, lowered to the highest percentile that still
/// has at least `min_beyond` samples above it when the samples are too few
/// to support the requested one. The value at 0-based rank `r` of the
/// sorted samples is the `(r + 1) / n` percentile and has `n - 1 - r`
/// samples beyond it.
pub fn tail(values: &[f64], quantile: f64, min_beyond: usize) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            quantile,
            value: 0.0,
            samples: 0,
        };
    }
    let wanted = ((quantile * n as f64).ceil() as usize).clamp(1, n) - 1;
    let supported = n.saturating_sub(min_beyond + 1);
    let rank = wanted.min(supported);
    Tail {
        quantile: (rank + 1) as f64 / n as f64,
        value: sorted[rank],
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_with_enough_samples_is_the_plain_percentile() {
        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&values, 0.99, 10);
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.quantile, 0.99);
        assert_eq!(t.samples, 2000);
    }

    #[test]
    fn p99_falls_back_to_the_highest_supported_percentile() {
        // 500 samples: p99 would leave only 5 beyond it, so the helper
        // reports rank 489, which has exactly 10 samples above it.
        let values: Vec<f64> = (1..=500).rev().map(f64::from).collect();
        let t = tail(&values, 0.99, 10);
        assert_eq!(t.value, 490.0);
        assert_eq!(t.quantile, 490.0 / 500.0);
        let beyond = values.iter().filter(|v| **v > t.value).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn exactly_enough_samples_keeps_p99() {
        // n = 1100: rank 1088 is p99 and has 11 beyond it.
        let values: Vec<f64> = (0..1100).map(f64::from).collect();
        let t = tail(&values, 0.99, 10);
        assert_eq!(t.value, 1088.0);
        assert_eq!(t.quantile, 0.99);
    }

    #[test]
    fn tiny_and_empty_inputs() {
        assert_eq!(tail(&[], 0.99, 10).samples, 0);
        let t = tail(&[3.0, 1.0, 2.0], 0.99, 10);
        assert_eq!(t.value, 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
