//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated between
/// the two nearest ranks; `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor();
    let frac = pos - lo;
    // `pos` lies in [0, last], so both ranks are in bounds.
    #[allow(clippy::cast_possible_truncation)]
    let lo = lo as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The median of `values` (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (`0.0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or `0.0` when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&v) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&v, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&[7.0], 0.95) - 7.0).abs() < 1e-12);
        assert!(quantile(&[], 0.5).abs() < 1e-12);
        assert!((mean(&v) - 2.5).abs() < 1e-12);
        assert!(ratio(1.0, 0.0).abs() < 1e-12);
    }
}
