//! Order statistics over timing samples.

use flowmark_core::stats::percentile;

/// Linear-interpolated quantile `q` in `[0, 1]` of an unsorted sample;
/// 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or(0.0)
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(q, value)`; `None` below 22 samples, where that percentile would not
/// lie above the median and the median is all the
/// sample supports.
pub fn supported_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 22 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - 11; // ten samples lie strictly beyond this one
    Some((idx as f64 / (n - 1) as f64, v[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(supported_tail(&few).is_none());
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        let (q, v) = supported_tail(&many).unwrap();
        assert_eq!(v, 189.0);
        assert!((q - 0.95).abs() < 0.001);
    }
}
