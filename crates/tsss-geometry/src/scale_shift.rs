//! The scale-shift transformation `F_{a,b}` and the closed-form optimal fit
//! of paper §3 and §5.2.
//!
//! Definition 1 of the paper: `u ~ε v` iff there exist `a, b ∈ ℝ` with
//! `‖F_{a,b}(u) − v‖₂ ≤ ε`, where `F_{a,b}(u) = a·u + b·N`. The minimum of
//! `‖a·u + b·N − v‖` over all `(a, b)` is a tiny least-squares problem whose
//! solution the paper derives geometrically (§5.2):
//!
//! ```text
//! a = (T_se(u) · T_se(v)) / ‖T_se(u)‖²           (in the SE-Plane)
//! b = ((v − a·u) · N) / ‖N‖²                      (back in ℝⁿ)
//! ```
//!
//! [`optimal_scale_shift`] computes `(a, b)` and the attained distance in one
//! pass (O(n), no allocation), and [`min_scale_shift_distance`] returns just
//! the distance — it equals `LLD(Line_sa(u), Line_sh(v))` by Theorem 1, a
//! fact the property tests exercise.

use crate::vector::{mean, norm_sq, sum_and_dot, sum_dot_normsq_lanes};
use crate::DimensionMismatch;

/// A concrete scale-shift transformation `F_{a,b}(x) = a·x + b·N`.
///
/// This is the object reported to the user for each match: *how* the query
/// maps onto the matched subsequence (paper §6, post-processing step).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleShift {
    /// Scaling factor `a`.
    pub a: f64,
    /// Shifting offset `b`.
    pub b: f64,
}

impl ScaleShift {
    /// The identity transformation (`a = 1`, `b = 0`).
    pub const IDENTITY: Self = Self { a: 1.0, b: 0.0 };

    /// Applies `F_{a,b}` to `x`, returning `a·x + b·N`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        x.iter().map(|v| self.a * v + self.b).collect()
    }

    /// The inverse transformation, if `a ≠ 0`: `F⁻¹(y) = (y − b·N)/a`.
    ///
    /// Returns `None` for the non-invertible `a = 0` case (which maps every
    /// sequence to the constant `b·N`).
    pub fn inverse(&self) -> Option<Self> {
        // analyze::allow(float-eq): exact-zero test — `a` is non-invertible only when literally 0.0; any tiny non-zero scale still divides to a finite inverse.
        if self.a == 0.0 {
            None
        } else {
            Some(Self {
                a: 1.0 / self.a,
                b: -self.b / self.a,
            })
        }
    }

    /// Composition: `(self ∘ other)(x) = self.apply(other.apply(x))`.
    ///
    /// Scale-shift transformations form a monoid under composition (a group
    /// when `a ≠ 0`); the Figure 1 example of the paper (B scaled by 0.5 then
    /// shifted by 20 gives C) is a composition check in the tests.
    pub fn compose(&self, other: &Self) -> Self {
        Self {
            a: self.a * other.a,
            b: self.a * other.b + self.b,
        }
    }
}

/// Result of fitting the best scale-shift transformation of one sequence
/// onto another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleShiftFit {
    /// The optimal transformation.
    pub transform: ScaleShift,
    /// The attained distance `‖F_{a,b}(u) − v‖₂` — by Theorem 1 this equals
    /// `LLD(Line_sa(u), Line_sh(v))`, the minimum possible dissimilarity.
    pub distance: f64,
}

/// Relative variance threshold below which a sequence counts as constant for
/// fitting purposes (see [`is_numerically_constant`]).
const CONSTANT_REL_TOL: f64 = 1e-24;

/// True when `u` is numerically constant — zero fluctuation relative to its
/// magnitude, so its SE-transformation vanishes and its SE-line degenerates
/// to the origin.
///
/// This is *the* degeneracy test [`optimal_scale_shift`] applies, exposed so
/// search layers can branch to a shift-only query plan and stay consistent
/// with verification.
pub fn is_numerically_constant(u: &[f64]) -> bool {
    if u.is_empty() {
        return true;
    }
    let n = u.len() as f64;
    let mu = mean(u);
    let uu = norm_sq(u);
    let ucuc = (uu - n * mu * mu).max(0.0);
    ucuc <= CONSTANT_REL_TOL * uu.max(1e-300)
}

/// Relative slack applied to the algebraic distance bound inside
/// [`QueryFit::fit_within`], scaled by the *uncentered* moment magnitudes so
/// it stays sound even when the centred quantities suffer catastrophic
/// cancellation. The true floating-point error of the bound — evaluation
/// error of the algebraic identity plus the reassociation error of the
/// lane-chunked screening kernel — is on the order of
/// `n·ε_mach ≈ 1e-13` of those magnitudes, so `1e-9` leaves four orders of
/// magnitude of safety; candidates inside the slack fall through to the
/// exact sequential fit.
const SCREEN_REL_TOL: f64 = 1e-9;

/// Query-side state of the closed-form scale-shift fit, hoisted out of the
/// per-candidate loop.
///
/// [`optimal_scale_shift`] recomputes `mean(u)` and `‖u‖²` for every call
/// even though the verify stage fits *one* query against thousands of
/// candidate windows. `QueryFit` computes the query moments once; each
/// [`fit`](Self::fit) then needs a single fused pass over the candidate
/// (plus the exact residual pass), and [`fit_within`](Self::fit_within)
/// screens certain false alarms with *only* the fused pass.
///
/// Bit-exactness contract: for any `u`/`v`, `QueryFit::new(u).fit(v)` equals
/// `optimal_scale_shift(u, v)` bit for bit — every accumulator adds the same
/// terms in the same order (see `tests/kernel_oracle.rs`).
#[derive(Debug, Clone, Copy)]
pub struct QueryFit<'a> {
    u: &'a [f64],
    n: f64,
    mu: f64,
    uu: f64,
    ucuc: f64,
    degenerate: bool,
}

impl<'a> QueryFit<'a> {
    /// Precomputes the query moments `n`, `ū`, `‖uc‖²` and the degeneracy
    /// flag (the same relative-variance test as [`is_numerically_constant`]).
    pub fn new(u: &'a [f64]) -> Self {
        let n = u.len() as f64;
        let mu = mean(u);
        let uu = norm_sq(u);
        let ucuc = (uu - n * mu * mu).max(0.0);
        let degenerate = ucuc <= CONSTANT_REL_TOL * uu.max(1e-300);
        Self {
            u,
            n,
            mu,
            uu,
            ucuc,
            degenerate,
        }
    }

    /// The query this fit was built over.
    #[must_use]
    pub fn query(&self) -> &'a [f64] {
        self.u
    }

    /// The optimal fit of the query onto `v` — bit-identical to
    /// [`optimal_scale_shift`]`(self.query(), v)`, in two passes over `v`
    /// instead of three.
    ///
    /// # Errors
    /// Returns [`DimensionMismatch`] when `v` differs in length.
    pub fn fit(&self, v: &[f64]) -> Result<ScaleShiftFit, DimensionMismatch> {
        if self.u.len() != v.len() {
            return Err(DimensionMismatch {
                left: self.u.len(),
                right: v.len(),
            });
        }
        if self.u.is_empty() {
            return Ok(ScaleShiftFit {
                transform: ScaleShift::IDENTITY,
                distance: 0.0,
            });
        }
        // One fused pass: Σv and u·v share the read of v. Each accumulator
        // matches its standalone kernel bit for bit.
        let (sv, suv) = sum_and_dot(self.u, v);
        let mv = sv / self.n;
        if self.degenerate {
            return Ok(self.degenerate_fit(v, mv));
        }
        let ucvc = suv - self.n * self.mu * mv;
        let a = ucvc / self.ucuc;
        let b = mv - a * self.mu;
        Ok(self.residual_fit(v, a, b))
    }

    /// Like [`fit`](Self::fit), but screens candidates whose distance
    /// *certainly* exceeds `epsilon` using one fused, lane-chunked
    /// (vectorisable) moment pass: returns `Ok(None)` for those, skipping
    /// the exact fit entirely.
    ///
    /// The screen is conservative. The algebraic identity
    /// `distance² = ‖vc‖² − a·(uc·vc)` is exact in real arithmetic but loses
    /// precision to cancellation, and the screening pass additionally
    /// reassociates its sums for speed; a candidate is rejected only when
    /// the algebraic value beats `epsilon²` by more than `SCREEN_REL_TOL`
    /// of the participating moment magnitudes, which dwarfs both error
    /// sources. Borderline candidates (and any NaN poisoning of the bound)
    /// fall through to the exact sequential fit, so every `Some(fit)` is
    /// bit-identical to [`fit`](Self::fit) and every `None` is a candidate
    /// [`fit`](Self::fit) would have reported with `distance > epsilon`.
    ///
    /// # Errors
    /// Returns [`DimensionMismatch`] when `v` differs in length.
    pub fn fit_within(
        &self,
        v: &[f64],
        epsilon: f64,
    ) -> Result<Option<ScaleShiftFit>, DimensionMismatch> {
        if self.u.len() != v.len() {
            return Err(DimensionMismatch {
                left: self.u.len(),
                right: v.len(),
            });
        }
        if self.u.is_empty() {
            return Ok(Some(ScaleShiftFit {
                transform: ScaleShift::IDENTITY,
                distance: 0.0,
            }));
        }
        let (sv, suv, svv) = sum_dot_normsq_lanes(self.u, v);
        let mv = sv / self.n;
        // ‖vc‖² = ‖v‖² − n·v̄²; scale_vc bounds the magnitudes whose
        // cancellation (and lane reassociation) the slack must absorb.
        let nmv2 = self.n * mv * mv;
        let vcvc = svv - nmv2;
        let scale_vc = svv.abs() + nmv2.abs();
        let screened_out = if self.degenerate {
            // a = 0 ⇒ distance² = ‖vc‖² exactly.
            vcvc - SCREEN_REL_TOL * scale_vc > epsilon * epsilon
        } else {
            let ucvc = suv - self.n * self.mu * mv;
            let a = ucvc / self.ucuc;
            let fitted = a * ucvc;
            let d2_alg = vcvc - fitted;
            let margin = SCREEN_REL_TOL * (scale_vc + fitted.abs());
            // NaN anywhere makes the comparison false — fall through to exact.
            d2_alg - margin > epsilon * epsilon
        };
        if screened_out {
            return Ok(None);
        }
        // Survivors take the exact sequential path, so accepted fits carry
        // the same bits as a plain `fit` call.
        self.fit(v).map(Some)
    }

    /// Sliding-window screen: like [`fit_within`](Self::fit_within), but the
    /// window's sum and sum-of-squares arrive as *prefix-array endpoint
    /// pairs* maintained by the caller (`p1 = (Σ before, Σ through)` over the
    /// raw values, `p2` the same over their squares), so the only O(n) work
    /// per candidate is a single lane-chunked dot product. This is the
    /// sequential-scan fast path, where stride-1 windows overlap almost
    /// entirely and per-window moment passes would recompute the same sums
    /// thousands of times.
    ///
    /// Soundness under the extra error sources is bought with a wider
    /// (still `O(1)`) margin: prefix differencing loses up to `ε_mach` of the
    /// *endpoint* magnitudes (which can dwarf the window's own moments), and
    /// the dot reassociates, with `Σ|uᵢvᵢ| ≤ √(‖u‖²·‖v‖²)` bounding its term
    /// magnitude by Cauchy–Schwarz. The margin scales with all of those, so
    /// the same guarantee holds: every `Some(fit)` is bit-identical to
    /// [`fit`](Self::fit), every `None` has true `distance > epsilon`.
    ///
    /// # Errors
    /// Returns [`DimensionMismatch`] when `v` differs in length.
    pub fn fit_within_sliding(
        &self,
        v: &[f64],
        epsilon: f64,
        p1: (f64, f64),
        p2: (f64, f64),
    ) -> Result<Option<ScaleShiftFit>, DimensionMismatch> {
        if self.u.len() != v.len() {
            return Err(DimensionMismatch {
                left: self.u.len(),
                right: v.len(),
            });
        }
        if self.u.is_empty() {
            return Ok(Some(ScaleShiftFit {
                transform: ScaleShift::IDENTITY,
                distance: 0.0,
            }));
        }
        let (lo1, hi1) = p1;
        let (lo2, hi2) = p2;
        let sv = hi1 - lo1;
        let svv = hi2 - lo2;
        let mv = sv / self.n;
        // Magnitude bounds for the error terms: `m1 ≥ |mv|` up to the same
        // relative error, `scale_p2` bounds what prefix differencing can
        // lose from `svv`.
        let m1 = (hi1.abs() + lo1.abs()) / self.n;
        let scale_p2 = hi2.abs() + lo2.abs();
        let nmv2 = self.n * mv * mv;
        let vcvc = svv - nmv2;
        let scale_vc = scale_p2 + self.n * m1 * m1;
        let screened_out = if self.degenerate {
            vcvc - SCREEN_REL_TOL * scale_vc > epsilon * epsilon
        } else {
            let suv = crate::vector::dot_lanes(self.u, v);
            let ucvc = suv - self.n * self.mu * mv;
            let a = ucvc / self.ucuc;
            let fitted = a * ucvc;
            let d2_alg = vcvc - fitted;
            // Cauchy–Schwarz bound on the dot's term magnitude; NaN anywhere
            // makes the final comparison false — fall through to exact.
            let ucvc_mag = (self.uu * scale_p2).sqrt() + self.n * self.mu.abs() * m1;
            let margin = SCREEN_REL_TOL * (scale_vc + a.abs() * ucvc_mag + fitted.abs());
            d2_alg - margin > epsilon * epsilon
        };
        if screened_out {
            return Ok(None);
        }
        self.fit(v).map(Some)
    }

    /// Shift-only arm: `a = 0`, `b = mean(v)`, distance `‖vc‖` via the exact
    /// residual sum (bit-identical to [`optimal_scale_shift`]).
    fn degenerate_fit(&self, v: &[f64], mv: f64) -> ScaleShiftFit {
        let resid: f64 = v.iter().map(|y| (y - mv) * (y - mv)).sum();
        ScaleShiftFit {
            transform: ScaleShift { a: 0.0, b: mv },
            distance: resid.sqrt(),
        }
    }

    /// Exact residual pass for a fixed `(a, b)` — the cancellation-free
    /// distance evaluation (bit-identical to [`optimal_scale_shift`]).
    fn residual_fit(&self, v: &[f64], a: f64, b: f64) -> ScaleShiftFit {
        let dist_sq: f64 = self
            .u
            .iter()
            .zip(v)
            .map(|(x, y)| {
                let r = a * x + b - y;
                r * r
            })
            .sum();
        ScaleShiftFit {
            transform: ScaleShift { a, b },
            distance: dist_sq.sqrt(),
        }
    }
}

/// Computes the optimal `(a, b)` minimising `‖a·u + b·N − v‖₂` together with
/// the attained distance, in a single O(n) pass (paper §5.2).
///
/// Derivation (all in terms of means and centred dot products): writing
/// `ū = mean(u)`, `uc = u − ū·N` (the SE-transformation of `u`, see
/// [`crate::se`]) and likewise for `v`,
///
/// ```text
/// a = (uc · vc) / ‖uc‖²,    b = v̄ − a·ū,
/// distance² = ‖vc‖² − a²·‖uc‖².
/// ```
///
/// Degenerate case: when `u` is (numerically) constant, its SE-transformation
/// vanishes and *any* `a` is optimal; we canonically return `a = 0`,
/// `b = mean(v)`, with distance `‖vc‖`.
///
/// ```
/// use tsss_geometry::scale_shift::optimal_scale_shift;
/// // Sequences A and B of the paper's Figure 1: B = 2·A exactly.
/// let a = [5.0, 10.0, 6.0, 12.0, 4.0];
/// let b = [10.0, 20.0, 12.0, 24.0, 8.0];
/// let fit = optimal_scale_shift(&a, &b).unwrap();
/// assert!((fit.transform.a - 2.0).abs() < 1e-12);
/// assert!(fit.transform.b.abs() < 1e-9);
/// assert!(fit.distance < 1e-6);
/// ```
///
/// # Errors
/// Returns [`DimensionMismatch`] when the sequences differ in length.
pub fn optimal_scale_shift(u: &[f64], v: &[f64]) -> Result<ScaleShiftFit, DimensionMismatch> {
    // Centred second moments computed without materialising uc/vc
    // (uc·vc = u·v − n·ū·v̄ ; ‖uc‖² = ‖u‖² − n·ū²), then the exact residual
    // pass for the distance — the algebraic identity
    // distance² = ‖vc‖² − a²·‖uc‖² suffers catastrophic cancellation for
    // near-exact matches. All of that lives in `QueryFit`, which hoists the
    // query-side moments for callers fitting one query against many windows;
    // this one-shot entry point is the same computation, bit for bit.
    QueryFit::new(u).fit(v)
}

/// The minimum dissimilarity `min_{a,b} ‖a·u + b·N − v‖₂`.
///
/// By Theorem 1 / Corollary 1 this is *the* distance of the paper's
/// similarity model: `u ~ε v` iff `min_scale_shift_distance(u, v) ≤ ε`.
///
/// # Errors
/// Returns [`DimensionMismatch`] when the sequences differ in length.
pub fn min_scale_shift_distance(u: &[f64], v: &[f64]) -> Result<f64, DimensionMismatch> {
    optimal_scale_shift(u, v).map(|fit| fit.distance)
}

/// Convenience predicate for Definition 1: `u ~ε v`.
///
/// # Errors
/// Returns [`DimensionMismatch`] when the sequences differ in length.
pub fn similar(u: &[f64], v: &[f64], epsilon: f64) -> Result<bool, DimensionMismatch> {
    Ok(min_scale_shift_distance(u, v)? <= epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::{lld, Line};
    use crate::vector::dist;

    const A: [f64; 5] = [5.0, 10.0, 6.0, 12.0, 4.0];
    const B: [f64; 5] = [10.0, 20.0, 12.0, 24.0, 8.0];
    const C: [f64; 5] = [25.0, 30.0, 26.0, 32.0, 24.0];

    #[test]
    fn apply_matches_definition() {
        let f = ScaleShift { a: 2.0, b: 0.0 };
        assert_eq!(f.apply(&A), B.to_vec());
        let g = ScaleShift { a: 1.0, b: 20.0 };
        assert_eq!(g.apply(&A), C.to_vec());
    }

    #[test]
    fn paper_figure1_composition_b_to_c() {
        // "if B is scaled down by 0.5 and then shifted up by 20 units, it
        // becomes C" — shift ∘ scale.
        let scale = ScaleShift { a: 0.5, b: 0.0 };
        let shift = ScaleShift { a: 1.0, b: 20.0 };
        let f = shift.compose(&scale);
        assert_eq!(f.apply(&B), C.to_vec());
    }

    #[test]
    fn inverse_roundtrips() {
        let f = ScaleShift { a: 2.5, b: -7.0 };
        let inv = f.inverse().unwrap();
        let x = A.to_vec();
        let back = inv.apply(&f.apply(&x));
        for (orig, b) in x.iter().zip(&back) {
            assert!((orig - b).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_of_zero_scale_is_none() {
        assert!(ScaleShift { a: 0.0, b: 1.0 }.inverse().is_none());
    }

    #[test]
    fn compose_is_function_composition() {
        let f = ScaleShift { a: 2.0, b: 1.0 };
        let g = ScaleShift { a: -3.0, b: 4.0 };
        let fg = f.compose(&g);
        let x = [1.0, 5.0, -2.0];
        assert_eq!(fg.apply(&x), f.apply(&g.apply(&x)));
    }

    #[test]
    fn optimal_fit_recovers_exact_transformations() {
        // A → B is exactly a = 2, b = 0.
        let fit = optimal_scale_shift(&A, &B).unwrap();
        assert!((fit.transform.a - 2.0).abs() < 1e-12);
        assert!(fit.transform.b.abs() < 1e-10);
        assert!(fit.distance < 1e-6);

        // A → C is exactly a = 1, b = 20.
        let fit = optimal_scale_shift(&A, &C).unwrap();
        assert!((fit.transform.a - 1.0).abs() < 1e-12);
        assert!((fit.transform.b - 20.0).abs() < 1e-10);
        assert!(fit.distance < 1e-6);

        // B → C is exactly a = 0.5, b = 20.
        let fit = optimal_scale_shift(&B, &C).unwrap();
        assert!((fit.transform.a - 0.5).abs() < 1e-12);
        assert!((fit.transform.b - 20.0).abs() < 1e-10);
        assert!(fit.distance < 1e-6);
    }

    #[test]
    fn fit_distance_is_achieved_by_the_transform() {
        let u = [1.0, -2.0, 3.5, 0.0, 7.0];
        let v = [2.0, 2.0, -1.0, 4.0, 0.5];
        let fit = optimal_scale_shift(&u, &v).unwrap();
        let transformed = fit.transform.apply(&u);
        assert!((dist(&transformed, &v) - fit.distance).abs() < 1e-10);
    }

    #[test]
    fn fit_distance_equals_lld_theorem1() {
        let u = [1.0, -2.0, 3.5, 0.0, 7.0];
        let v = [2.0, 2.0, -1.0, 4.0, 0.5];
        let fit = optimal_scale_shift(&u, &v).unwrap();
        let geometric = lld(&Line::scaling(&u), &Line::shifting(&v));
        assert!((fit.distance - geometric).abs() < 1e-9);
    }

    #[test]
    fn fit_is_at_least_as_good_as_random_transforms() {
        let u = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let v = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0];
        let fit = optimal_scale_shift(&u, &v).unwrap();
        for &(a, b) in &[
            (0.0, 0.0),
            (1.0, 0.0),
            (0.5, 3.0),
            (-2.0, 10.0),
            (3.3, -4.4),
        ] {
            let d = dist(&ScaleShift { a, b }.apply(&u), &v);
            assert!(fit.distance <= d + 1e-10, "({a},{b}) beat the optimum");
        }
    }

    #[test]
    fn constant_query_degenerates_to_mean_shift() {
        let u = [4.0; 6];
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let fit = optimal_scale_shift(&u, &v).unwrap();
        assert_eq!(fit.transform.a, 0.0);
        assert!((fit.transform.b - 3.5).abs() < 1e-12);
        // Distance = norm of centred v.
        let expect = v.iter().map(|x| (x - 3.5) * (x - 3.5)).sum::<f64>().sqrt();
        assert!((fit.distance - expect).abs() < 1e-10);
    }

    #[test]
    fn empty_sequences_are_trivially_similar() {
        let fit = optimal_scale_shift(&[], &[]).unwrap();
        assert_eq!(fit.distance, 0.0);
    }

    #[test]
    fn mismatched_lengths_error() {
        assert!(optimal_scale_shift(&[1.0], &[1.0, 2.0]).is_err());
        assert!(min_scale_shift_distance(&[1.0], &[1.0, 2.0]).is_err());
        assert!(similar(&[1.0], &[1.0, 2.0], 1.0).is_err());
    }

    #[test]
    fn similar_predicate_thresholds_correctly() {
        assert!(similar(&A, &B, 1e-9).unwrap());
        let far = [0.0, 100.0, -30.0, 55.0, 2.0];
        let d = min_scale_shift_distance(&A, &far).unwrap();
        assert!(!similar(&A, &far, d - 1e-6).unwrap());
        assert!(similar(&A, &far, d + 1e-6).unwrap());
    }

    #[test]
    fn query_fit_is_bit_identical_to_one_shot() {
        let mut rng = tsss_rand::Rng::seed_from_u64(0xF17_B175);
        for n in [1usize, 2, 3, 7, 8, 64, 129] {
            let u = rng.f64_vec(n, -1e3, 1e3);
            let qf = QueryFit::new(&u);
            for _ in 0..8 {
                let v = rng.f64_vec(n, -1e3, 1e3);
                let one_shot = optimal_scale_shift(&u, &v).unwrap();
                let hoisted = qf.fit(&v).unwrap();
                assert_eq!(
                    hoisted.transform.a.to_bits(),
                    one_shot.transform.a.to_bits()
                );
                assert_eq!(
                    hoisted.transform.b.to_bits(),
                    one_shot.transform.b.to_bits()
                );
                assert_eq!(hoisted.distance.to_bits(), one_shot.distance.to_bits());
            }
        }
    }

    #[test]
    fn fit_within_is_sound_and_exact_on_accept() {
        // Soundness: every Some is bit-identical to the full fit; every None
        // really is a candidate whose exact distance exceeds epsilon.
        let mut rng = tsss_rand::Rng::seed_from_u64(0x05C1_2EE4);
        let mut screened = 0usize;
        let mut accepted = 0usize;
        for n in [3usize, 16, 128] {
            let u = rng.f64_vec(n, -50.0, 50.0);
            let qf = QueryFit::new(&u);
            for round in 0..32 {
                // Mix of near-fits and far candidates around each epsilon.
                let v = if round % 3 == 0 {
                    let mut v: Vec<f64> = u.iter().map(|x| 1.7 * x - 4.0).collect();
                    for y in &mut v {
                        *y += rng.f64_range(-0.5, 0.5);
                    }
                    v
                } else {
                    rng.f64_vec(n, -50.0, 50.0)
                };
                for eps in [0.0, 0.1, 2.0, 40.0, 1e6] {
                    let exact = qf.fit(&v).unwrap();
                    match qf.fit_within(&v, eps).unwrap() {
                        Some(fit) => {
                            accepted += 1;
                            assert_eq!(fit.distance.to_bits(), exact.distance.to_bits());
                            assert_eq!(fit.transform.a.to_bits(), exact.transform.a.to_bits());
                            assert_eq!(fit.transform.b.to_bits(), exact.transform.b.to_bits());
                        }
                        None => {
                            screened += 1;
                            assert!(
                                exact.distance > eps,
                                "screened a true match: d={} eps={eps}",
                                exact.distance
                            );
                        }
                    }
                }
            }
        }
        // The screen must actually fire on far candidates and actually pass
        // generous epsilons, or it is vacuous.
        assert!(screened > 50, "screen never fires ({screened})");
        assert!(accepted > 50, "screen rejects everything ({accepted})");
    }

    #[test]
    fn fit_within_sliding_is_sound_and_exact_on_accept() {
        // The sliding screen consumes prefix-array endpoints the way the
        // sequential-scan verifier maintains them: build a long series, run
        // every stride-1 window through the screen, and hold it to the same
        // contract as `fit_within` — accepted fits bit-identical to `fit`,
        // screened windows truly farther than epsilon.
        let mut rng = tsss_rand::Rng::seed_from_u64(0x511D_1234 ^ 0xA5A5);
        let mut screened = 0usize;
        let mut accepted = 0usize;
        for n in [3usize, 16, 128] {
            let u = rng.f64_vec(n, -50.0, 50.0);
            let qf = QueryFit::new(&u);
            // A series with matching stretches planted among noise, plus a
            // large offset so the prefix sums dwarf per-window moments (the
            // error regime the wider margin must absorb).
            let mut series = rng.f64_vec(6 * n, -50.0, 50.0);
            for (i, y) in series.iter_mut().enumerate() {
                *y += 1e4;
                if (i / n) % 2 == 1 {
                    *y = 1.7 * u[i % n] - 4.0 + 1e4;
                }
            }
            let mut p1 = vec![0.0f64];
            let mut p2 = vec![0.0f64];
            for &y in &series {
                p1.push(p1.last().copied().unwrap() + y);
                p2.push(p2.last().copied().unwrap() + y * y);
            }
            for off in 0..=series.len() - n {
                let v = &series[off..off + n];
                for eps in [0.1, 40.0, 1e6] {
                    let exact = qf.fit(v).unwrap();
                    let got = qf
                        .fit_within_sliding(v, eps, (p1[off], p1[off + n]), (p2[off], p2[off + n]))
                        .unwrap();
                    match got {
                        Some(fit) => {
                            accepted += 1;
                            assert_eq!(fit.distance.to_bits(), exact.distance.to_bits());
                            assert_eq!(fit.transform.a.to_bits(), exact.transform.a.to_bits());
                            assert_eq!(fit.transform.b.to_bits(), exact.transform.b.to_bits());
                        }
                        None => {
                            screened += 1;
                            assert!(
                                exact.distance > eps,
                                "sliding screen dropped a true match: d={} eps={eps} off={off}",
                                exact.distance
                            );
                        }
                    }
                }
            }
        }
        assert!(screened > 100, "sliding screen never fires ({screened})");
        assert!(
            accepted > 100,
            "sliding screen rejects everything ({accepted})"
        );
    }

    #[test]
    fn fit_within_sliding_on_degenerate_and_mismatched_input() {
        let u = vec![5.0; 16];
        let qf = QueryFit::new(&u);
        let v: Vec<f64> = (0..16).map(f64::from).collect();
        let p1: Vec<f64> = std::iter::once(0.0)
            .chain(v.iter().scan(0.0, |s, y| {
                *s += y;
                Some(*s)
            }))
            .collect();
        let p2: Vec<f64> = std::iter::once(0.0)
            .chain(v.iter().scan(0.0, |s, y| {
                *s += y * y;
                Some(*s)
            }))
            .collect();
        let exact = qf.fit(&v).unwrap();
        assert_eq!(exact.transform.a, 0.0, "a constant query fits shift-only");
        // Generous epsilon: accepted, bit-identical, shift-only.
        let fit = qf
            .fit_within_sliding(&v, 1e9, (p1[0], p1[16]), (p2[0], p2[16]))
            .unwrap()
            .unwrap();
        assert_eq!(fit.transform.a, 0.0);
        assert_eq!(fit.distance.to_bits(), exact.distance.to_bits());
        // Tiny epsilon: screened (the window is far from constant).
        assert!(qf
            .fit_within_sliding(&v, 1e-6, (p1[0], p1[16]), (p2[0], p2[16]))
            .unwrap()
            .is_none());
        // Length mismatch is the typed error.
        assert!(qf
            .fit_within_sliding(&v[..8], 1.0, (0.0, 0.0), (0.0, 0.0))
            .is_err());
    }

    #[test]
    fn fit_within_on_degenerate_query() {
        let u = [4.0; 6];
        let qf = QueryFit::new(&u);
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(qf.fit(&v).unwrap().transform.a, 0.0, "shift-only");
        let exact = optimal_scale_shift(&u, &v).unwrap();
        // Tight epsilon: certainly screened.
        assert!(qf.fit_within(&v, 1e-3).unwrap().is_none());
        // Generous epsilon: bit-identical degenerate fit.
        let fit = qf.fit_within(&v, 100.0).unwrap().unwrap();
        assert_eq!(fit.distance.to_bits(), exact.distance.to_bits());
        assert_eq!(fit.transform.a, 0.0);
        assert_eq!(fit.transform.b.to_bits(), exact.transform.b.to_bits());
    }

    #[test]
    fn fit_within_mean_dominated_cancellation_stays_sound() {
        // ‖v‖² ≈ n·v̄² here, so the centred moment ‖vc‖² loses most of its
        // bits to cancellation — the screen slack must scale with the
        // *uncentered* magnitudes or it would mis-certify these.
        let mut rng = tsss_rand::Rng::seed_from_u64(0xCAFE_D00D);
        let u = rng.f64_vec(64, -1.0, 1.0);
        let qf = QueryFit::new(&u);
        for _ in 0..64 {
            let mut v = vec![1.0e6; 64];
            for y in &mut v {
                *y += rng.f64_range(-1e-3, 1e-3);
            }
            let exact = qf.fit(&v).unwrap();
            for eps in [exact.distance * 0.99, exact.distance * 1.01] {
                match qf.fit_within(&v, eps).unwrap() {
                    Some(fit) => assert_eq!(fit.distance.to_bits(), exact.distance.to_bits()),
                    None => assert!(exact.distance > eps),
                }
            }
        }
    }

    #[test]
    fn query_fit_empty_and_mismatch() {
        let qf = QueryFit::new(&[]);
        let fit = qf.fit(&[]).unwrap();
        assert_eq!(fit.distance, 0.0);
        assert!(qf.fit_within(&[], 0.0).unwrap().is_some());
        let qf = QueryFit::new(&[1.0, 2.0]);
        assert!(qf.fit(&[1.0]).is_err());
        assert!(qf.fit_within(&[1.0], 1.0).is_err());
        assert_eq!(qf.query(), &[1.0, 2.0]);
    }

    #[test]
    fn similarity_is_not_symmetric_in_general() {
        // F maps u onto v; the reverse direction has its own optimum. The
        // *distances* differ in general (the relation ~ε is directional).
        let u = [0.0, 0.0, 0.0, 1.0];
        let v = [5.0, 5.0, 5.0, 100.0];
        let duv = min_scale_shift_distance(&u, &v).unwrap();
        let dvu = min_scale_shift_distance(&v, &u).unwrap();
        assert!(duv < 1e-9); // u scales up onto v exactly
        assert!(dvu < 1e-9); // and v scales down onto u exactly (a = 1/95 ≠ 0)
                             // An asymmetric example: u constant, v not.
        let u = [1.0, 1.0, 1.0];
        let v = [0.0, 1.0, 2.0];
        let duv = min_scale_shift_distance(&u, &v).unwrap();
        let dvu = min_scale_shift_distance(&v, &u).unwrap();
        assert!(duv > 1.0); // constant cannot reach a sloped sequence
        assert!(dvu < 1e-9); // sloped flattens onto constant with a = 0
    }
}
