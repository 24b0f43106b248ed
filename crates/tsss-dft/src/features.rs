//! DFT feature extraction — the dimensionality-reduction step of the paper's
//! indexing pipeline (§7).
//!
//! A window of length `n` (already SE-transformed, hence zero-mean) is
//! mapped to the real/imaginary parts of its first `f_c` non-DC unitary DFT
//! coefficients, giving a `2·f_c`-dimensional feature point. The DC
//! coefficient is skipped because the SE-transformation has already zeroed
//! it — keeping it would waste an index dimension on a coordinate that is
//! identically 0.
//!
//! Each kept coefficient is scaled by `√2`, exploiting conjugate symmetry of
//! real-signal spectra: bins `k` and `n−k` carry identical energy, so
//! counting bin `k` twice still **underestimates** the true distance (the
//! classic F-index tightening). Formally, for real `x`, `y` and
//! `f_c ≤ ⌊(n−1)/2⌋`:
//!
//! ```text
//! 2·Σ_{k=1..f_c} |X_k − Y_k|²  ≤  Σ_{k≠0} |X_k − Y_k|²  ≤  ‖x − y‖²
//! ```
//!
//! so feature-space distances lower-bound SE-space distances — the
//! no-false-dismissal guarantee — while pruning ~2× more volume than the
//! unscaled embedding. The map is linear, so scaling lines stay lines
//! through the origin and Theorem 2's machinery applies unchanged in feature
//! space.

use crate::fft::fft_real;

/// Maps length-`n` windows to `2·f_c`-dimensional DFT feature points.
///
/// ```
/// use tsss_dft::FeatureExtractor;
/// let fx = FeatureExtractor::new(128, 3); // the paper's setting
/// assert_eq!(fx.feature_dim(), 6);
/// let window = vec![0.5; 128]; // constant (zero after SE) → zero features
/// assert!(fx.extract(&window).iter().all(|v| v.abs() < 1e-12));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureExtractor {
    window_len: usize,
    fc: usize,
}

impl FeatureExtractor {
    /// Creates an extractor for windows of length `window_len` keeping `fc`
    /// complex coefficients (the paper's setting is `fc = 3`).
    ///
    /// # Panics
    /// Panics unless `1 ≤ fc ≤ ⌊(window_len − 1)/2⌋` — the range for which
    /// the √2-boosted embedding provably lower-bounds (see module docs).
    pub fn new(window_len: usize, fc: usize) -> Self {
        assert!(fc >= 1, "need at least one Fourier coefficient");
        assert!(
            2 * fc < window_len,
            "fc = {fc} too large for window length {window_len}: need 2·fc + 1 ≤ n"
        );
        Self { window_len, fc }
    }

    /// Window length `n` this extractor accepts.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Number of complex coefficients kept.
    pub fn fc(&self) -> usize {
        self.fc
    }

    /// Dimension of the produced feature points (`2·f_c`).
    pub fn feature_dim(&self) -> usize {
        2 * self.fc
    }

    /// Extracts the feature point of `window`.
    ///
    /// # Panics
    /// Panics when `window.len() != window_len`.
    pub fn extract(&self, window: &[f64]) -> Vec<f64> {
        assert_eq!(
            window.len(),
            self.window_len,
            "window length mismatch: extractor built for {}, got {}",
            self.window_len,
            window.len()
        );
        let spectrum = fft_real(window);
        let boost = std::f64::consts::SQRT_2;
        let mut out = Vec::with_capacity(self.feature_dim());
        for z in &spectrum[1..=self.fc] {
            out.push(boost * z.re);
            out.push(boost * z.im);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    fn se(x: &[f64]) -> Vec<f64> {
        let m = x.iter().sum::<f64>() / x.len() as f64;
        x.iter().map(|v| v - m).collect()
    }

    #[test]
    fn feature_dim_is_twice_fc() {
        let fe = FeatureExtractor::new(128, 3);
        assert_eq!(fe.feature_dim(), 6);
        assert_eq!(fe.window_len(), 128);
        assert_eq!(fe.fc(), 3);
        assert_eq!(fe.extract(&vec![0.0; 128]).len(), 6);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_fc_is_rejected() {
        let _ = FeatureExtractor::new(8, 4); // need 2·4+1 = 9 > 8
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_fc_is_rejected() {
        let _ = FeatureExtractor::new(8, 0);
    }

    #[test]
    #[should_panic(expected = "window length mismatch")]
    fn wrong_window_length_is_rejected() {
        FeatureExtractor::new(16, 3).extract(&[0.0; 8]);
    }

    #[test]
    fn extraction_is_linear() {
        let fe = FeatureExtractor::new(32, 3);
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.7).sin()).collect();
        let y: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).cos() * 2.0).collect();
        let combo: Vec<f64> = x.iter().zip(&y).map(|(a, b)| 1.5 * a - 2.0 * b).collect();
        let lhs = fe.extract(&combo);
        let fx = fe.extract(&x);
        let fy = fe.extract(&y);
        for i in 0..lhs.len() {
            assert!((lhs[i] - (1.5 * fx[i] - 2.0 * fy[i])).abs() < 1e-10);
        }
    }

    #[test]
    fn feature_distance_lower_bounds_window_distance() {
        // Deterministic pseudo-random windows; the contraction property must
        // hold for every pair.
        let fe = FeatureExtractor::new(64, 3);
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 20.0 - 10.0
        };
        for _ in 0..50 {
            let x: Vec<f64> = (0..64).map(|_| next()).collect();
            let y: Vec<f64> = (0..64).map(|_| next()).collect();
            let (xs, ys) = (se(&x), se(&y));
            let d_feat = dist(&fe.extract(&xs), &fe.extract(&ys));
            let d_full = dist(&xs, &ys);
            assert!(
                d_feat <= d_full + 1e-9,
                "contraction violated: {d_feat} > {d_full}"
            );
        }
    }

    #[test]
    fn smooth_signals_concentrate_energy_in_few_coefficients() {
        // The premise of the paper's choice fc = 3 (citing [2]): low-frequency
        // signals keep most energy in the first coefficients.
        let n = 128;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * std::f64::consts::PI * t).sin()
                    + 0.5 * (2.0 * std::f64::consts::PI * 2.0 * t).cos()
            })
            .collect();
        let xs = se(&x);
        let fe = FeatureExtractor::new(n, 3);
        let feat = fe.extract(&xs);
        let feat_energy: f64 = feat.iter().map(|v| v * v).sum();
        let full_energy: f64 = xs.iter().map(|v| v * v).sum();
        assert!(
            feat_energy > 0.99 * full_energy,
            "kept {feat_energy} of {full_energy}"
        );
    }

    #[test]
    fn dc_is_ignored_shifted_windows_share_features_after_se() {
        let fe = FeatureExtractor::new(16, 3);
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.9).sin() * 3.0).collect();
        let shifted: Vec<f64> = x.iter().map(|v| v + 42.0).collect();
        let fx = fe.extract(&se(&x));
        let fs = fe.extract(&se(&shifted));
        for (a, b) in fx.iter().zip(&fs) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn scaled_window_scales_features() {
        // Crucial for the SE-line geometry: features(t·u) = t·features(u).
        let fe = FeatureExtractor::new(16, 2);
        let u: Vec<f64> = (0..16).map(|i| ((i * i) % 11) as f64 - 5.0).collect();
        let us = se(&u);
        let fu = fe.extract(&us);
        for t in [-3.0, -0.5, 0.0, 0.25, 7.0] {
            let scaled: Vec<f64> = us.iter().map(|v| t * v).collect();
            let fs = fe.extract(&scaled);
            for (a, b) in fs.iter().zip(&fu) {
                assert!((a - t * b).abs() < 1e-9);
            }
        }
    }
}
