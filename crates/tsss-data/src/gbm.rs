//! Geometric-Brownian-motion stock-market simulator.
//!
//! The paper's data set — 1000 Hong Kong stocks, ~650 000 daily closing
//! prices — is proprietary, so we synthesise its statistical stand-in:
//!
//! * each stock follows GBM: `log S_{t+1} − log S_t = μ − σ²/2 + σ·Z_t`,
//!   giving the log-normal step distribution of daily closes;
//! * the innovations share a **market factor**:
//!   `Z_t = β·M_t + √(1 − β²)·ξ_t` with `M_t` common across stocks — real
//!   equity markets co-move, and this correlation is what makes
//!   SE-transformed windows of different stocks cluster, driving the R*-tree
//!   overlap regime the paper's experiments (and its bounding-sphere
//!   finding) live in;
//! * initial prices are spread over two orders of magnitude so the *shift*
//!   and *scale* invariance of the similarity model genuinely matters.
//!
//! Gaussian variates come from the Box–Muller transform in [`tsss_rand`]
//! (no external RNG crates — the workspace builds offline).

use tsss_rand::Rng;

use crate::series::Series;

/// Configuration of the market simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketConfig {
    /// Number of stocks (paper: 1000).
    pub companies: usize,
    /// Observations per stock (paper: ~650 over 16 months).
    pub days: usize,
    /// Annualised drift (applied per step after scaling by `1/252`).
    pub annual_drift: f64,
    /// Annualised volatility (scaled by `√(1/252)` per step).
    pub annual_volatility: f64,
    /// Correlation loading on the market factor, `0 ≤ β < 1`.
    pub market_beta: f64,
    /// RNG seed — the whole data set is a pure function of this config.
    pub seed: u64,
}

impl Default for MarketConfig {
    fn default() -> Self {
        Self {
            companies: 1000,
            days: 650,
            annual_drift: 0.08,
            annual_volatility: 0.35,
            market_beta: 0.55,
            seed: 0x7555_1999, // PODS '99
        }
    }
}

impl MarketConfig {
    /// The paper-scale data set: 1000 stocks × 650 days = 650 000 values.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A reduced configuration for fast tests and examples.
    pub fn small(companies: usize, days: usize, seed: u64) -> Self {
        Self {
            companies,
            days,
            seed,
            ..Self::default()
        }
    }
}

/// Deterministic pseudo-random market generator.
#[derive(Debug)]
pub struct MarketSimulator {
    cfg: MarketConfig,
}

impl MarketSimulator {
    /// Creates a simulator for the given configuration.
    ///
    /// # Panics
    /// Panics on non-sensical configurations (zero sizes, β outside
    /// `[0, 1)`, non-positive volatility).
    pub fn new(cfg: MarketConfig) -> Self {
        assert!(cfg.companies > 0, "need at least one company");
        assert!(cfg.days > 1, "need at least two observations");
        assert!(
            (0.0..1.0).contains(&cfg.market_beta),
            "market beta must be in [0, 1)"
        );
        assert!(cfg.annual_volatility > 0.0, "volatility must be positive");
        Self { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MarketConfig {
        &self.cfg
    }

    /// Generates the full market: `companies` series of `days` values each.
    pub fn generate(&self) -> Vec<Series> {
        let cfg = &self.cfg;
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let dt = 1.0 / 252.0;
        let step_drift = (cfg.annual_drift - 0.5 * cfg.annual_volatility.powi(2)) * dt;
        let step_vol = cfg.annual_volatility * dt.sqrt();
        let beta = cfg.market_beta;
        let idio = (1.0 - beta * beta).sqrt();

        // Market factor path, shared by all stocks.
        let market: Vec<f64> = (0..cfg.days - 1).map(|_| rng.normal()).collect();

        let mut out = Vec::with_capacity(cfg.companies);
        for c in 0..cfg.companies {
            // Initial prices spread over ~2 orders of magnitude (HK$ 1–150),
            // log-uniformly.
            let s0 = 1.0 * (150.0f64 / 1.0).powf(rng.f64());
            let mut values = Vec::with_capacity(cfg.days);
            let mut log_price = s0.ln();
            values.push(s0);
            for m in &market {
                let z = beta * m + idio * rng.normal();
                log_price += step_drift + step_vol * z;
                values.push(log_price.exp());
            }
            out.push(Series::new(format!("HK{c:04}"), values));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = MarketSimulator::new(MarketConfig::small(5, 50, 42)).generate();
        let b = MarketSimulator::new(MarketConfig::small(5, 50, 42)).generate();
        assert_eq!(a, b);
        let c = MarketSimulator::new(MarketConfig::small(5, 50, 43)).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn shapes_match_the_config() {
        let series = MarketSimulator::new(MarketConfig::small(7, 30, 1)).generate();
        assert_eq!(series.len(), 7);
        for s in &series {
            assert_eq!(s.len(), 30);
        }
    }

    #[test]
    fn paper_config_yields_650k_values() {
        let cfg = MarketConfig::paper();
        assert_eq!(cfg.companies * cfg.days, 650_000);
    }

    #[test]
    fn prices_stay_positive() {
        let series = MarketSimulator::new(MarketConfig::small(20, 300, 7)).generate();
        for s in &series {
            assert!(
                s.values.iter().all(|&v| v > 0.0),
                "{} went non-positive",
                s.name
            );
        }
    }

    #[test]
    fn initial_prices_span_a_wide_range() {
        let series = MarketSimulator::new(MarketConfig::small(200, 2, 11)).generate();
        let min = series
            .iter()
            .map(|s| s.values[0])
            .fold(f64::INFINITY, f64::min);
        let max = series
            .iter()
            .map(|s| s.values[0])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max / min > 20.0, "price spread too narrow: {min}..{max}");
    }

    #[test]
    fn daily_log_returns_have_plausible_scale() {
        let cfg = MarketConfig::small(10, 500, 3);
        let expect_vol = cfg.annual_volatility * (1.0f64 / 252.0).sqrt();
        let series = MarketSimulator::new(cfg).generate();
        let mut rets = Vec::new();
        for s in &series {
            for w in s.values.windows(2) {
                rets.push((w[1] / w[0]).ln());
            }
        }
        let mean = rets.iter().sum::<f64>() / rets.len() as f64;
        let var = rets.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / rets.len() as f64;
        let vol = var.sqrt();
        assert!(
            (vol / expect_vol - 1.0).abs() < 0.15,
            "volatility {vol} vs configured {expect_vol}"
        );
    }

    #[test]
    fn stocks_are_positively_correlated_through_the_market_factor() {
        let series = MarketSimulator::new(MarketConfig::small(40, 400, 5)).generate();
        let rets: Vec<Vec<f64>> = series
            .iter()
            .map(|s| s.values.windows(2).map(|w| (w[1] / w[0]).ln()).collect())
            .collect();
        let corr = |a: &[f64], b: &[f64]| -> f64 {
            let n = a.len() as f64;
            let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
            let cov = a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - ma) * (y - mb))
                .sum::<f64>();
            let va = a.iter().map(|x| (x - ma) * (x - ma)).sum::<f64>();
            let vb = b.iter().map(|y| (y - mb) * (y - mb)).sum::<f64>();
            cov / (va * vb).sqrt()
        };
        let mut acc = 0.0;
        let mut cnt = 0;
        for i in 0..10 {
            for j in i + 1..10 {
                acc += corr(&rets[i], &rets[j]);
                cnt += 1;
            }
        }
        let avg = acc / cnt as f64;
        // β = 0.55 ⇒ pairwise correlation ≈ β² ≈ 0.30.
        assert!(avg > 0.15 && avg < 0.5, "average correlation {avg}");
    }

    #[test]
    #[should_panic(expected = "market beta")]
    fn invalid_beta_rejected() {
        let mut cfg = MarketConfig::small(2, 10, 0);
        cfg.market_beta = 1.0;
        let _ = MarketSimulator::new(cfg);
    }
}
