//! Order statistics over per-pass samples.

/// Median of `xs` (0 when empty).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `0..=1` of `xs` (0 when empty).
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Interquartile range of `xs` as a share of its median (0 with fewer than
/// two samples or a zero median).
#[must_use]
pub fn relative_iqr(xs: &[f64]) -> f64 {
    let m = median(xs);
    if xs.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert!((relative_iqr(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 2.0 / 3.0).abs() < 1e-12);
    }
}
