//! Summary statistics of measured samples: exact quantiles and ratios.

use std::time::Duration;

/// The exact `q`-quantile (`0 ≤ q ≤ 1`) of `samples`: linear
/// interpolation between the order statistics around rank `q·(n−1)`.
/// Zero for no samples (a layer that did no work).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when `den` is 0 (a ratio over no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert!((median(&xs) - 50.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quantiles_keep_every_digit() {
        // A log2-bucket histogram reports all of these as 0.512 or 1.024.
        let ms = [0.93, 0.61, 0.77, 0.70, 0.63];
        assert!((median(&ms) - 0.70).abs() < 1e-12);
        assert!((quantile(&ms, 0.75) - 0.77).abs() < 1e-12);
        assert!((quantile(&ms, 0.99) - 0.9236).abs() < 1e-12);
    }
}
