//! Dense-vector primitives on `&[f64]` slices.
//!
//! The paper (§3–§4) identifies time sequences, points and position vectors
//! in ℝⁿ; every higher-level construct in this workspace reduces to the
//! handful of kernels below. They are written over plain slices so the hot
//! paths of the R*-tree search and the sequential-scan baseline never
//! allocate.
//!
//! All binary kernels `debug_assert!` equal lengths; release builds rely on
//! the callers (which validate once at the API boundary) so the inner loops
//! stay branch-free.

/// Dot product `u · v = Σ uᵢ·vᵢ` (paper §4, property 1).
#[inline]
pub fn dot(u: &[f64], v: &[f64]) -> f64 {
    debug_assert_eq!(u.len(), v.len());
    u.iter().zip(v).map(|(a, b)| a * b).sum()
}

/// Squared Euclidean norm `‖u‖² = u · u`.
#[inline]
pub fn norm_sq(u: &[f64]) -> f64 {
    dot(u, u)
}

/// Euclidean norm `‖u‖` (paper §4, property 2).
#[inline]
pub fn norm(u: &[f64]) -> f64 {
    norm_sq(u).sqrt()
}

/// Squared Euclidean distance `‖u − v‖²`.
#[inline]
pub fn dist_sq(u: &[f64], v: &[f64]) -> f64 {
    debug_assert_eq!(u.len(), v.len());
    u.iter().zip(v).map(|(a, b)| (a - b) * (a - b)).sum()
}

/// Euclidean distance `‖u − v‖` = the `D₂` metric of paper §1.
#[inline]
pub fn dist(u: &[f64], v: &[f64]) -> f64 {
    dist_sq(u, v).sqrt()
}

/// The `L_p` distance `D_p(u, v) = (Σ |uᵢ−vᵢ|^p)^{1/p}` of paper §1.
///
/// The engine itself only uses `p = 2`, but the metric family is part of the
/// paper's problem statement, so it is provided for completeness (and for
/// users who want to post-filter matches under a different norm).
///
/// `p` must be ≥ 1 for this to be a metric; values in `(0, 1)` still compute
/// the formal expression. `p = f64::INFINITY` yields the Chebyshev distance.
// Exact comparison dispatches callers asking for literally L2/L1 to the
// specialised kernels; see the analyze::allow markers below.
#[allow(clippy::float_cmp)]
pub fn lp_dist(u: &[f64], v: &[f64], p: f64) -> f64 {
    debug_assert_eq!(u.len(), v.len());
    assert!(p > 0.0, "L_p distance requires p > 0, got {p}");
    if p.is_infinite() {
        return u
            .iter()
            .zip(v)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
    }
    // analyze::allow(float-eq): dispatch on the caller's literal parameter — callers asking for exactly L2/L1 get the specialised kernels; nearby values correctly take the general path.
    if p == 2.0 {
        return dist(u, v);
    }
    // analyze::allow(float-eq): see above.
    if p == 1.0 {
        return u.iter().zip(v).map(|(a, b)| (a - b).abs()).sum();
    }
    u.iter()
        .zip(v)
        .map(|(a, b)| (a - b).abs().powf(p))
        .sum::<f64>()
        .powf(1.0 / p)
}

/// Fused single-pass `(Σ vᵢ, Σ uᵢ·vᵢ)`.
///
/// The two accumulators are independent and each adds its terms in index
/// order, so the results are bit-identical to a separate `sum` over `v` and
/// [`dot`]`(u, v)` (`std`'s `Sum<f64>` is an in-order fold) — but the fused
/// loop reads `v` once instead of twice. This is the verify-stage kernel for
/// the z-normalized model, where every candidate needs the full fit.
#[inline]
pub fn sum_and_dot(u: &[f64], v: &[f64]) -> (f64, f64) {
    debug_assert_eq!(u.len(), v.len());
    let mut s = 0.0;
    let mut d = 0.0;
    for (x, y) in u.iter().zip(v) {
        s += y;
        d += x * y;
    }
    (s, d)
}

/// Fused single-pass `(Σ vᵢ, Σ uᵢ·vᵢ, Σ vᵢ²)`.
///
/// Like [`sum_and_dot`] with a third independent accumulator for `‖v‖²`;
/// each is bit-identical to its standalone kernel. One read of `v` yields
/// every moment the closed-form scale-shift fit needs. The verify stage's
/// screen runs [`sum_dot_normsq_lanes`]; this sequential kernel is the
/// reference that one is tested against.
#[inline]
pub fn sum_dot_normsq(u: &[f64], v: &[f64]) -> (f64, f64, f64) {
    debug_assert_eq!(u.len(), v.len());
    let mut s = 0.0;
    let mut d = 0.0;
    let mut q = 0.0;
    for (x, y) in u.iter().zip(v) {
        s += y;
        d += x * y;
        q += y * y;
    }
    (s, d, q)
}

/// Lane-chunked dot product for *screening* passes: eight independent
/// accumulator lanes, deterministic but **not** bit-identical to [`dot`]
/// (reassociation error `≈ n·ε_mach` of `Σ|uᵢ·vᵢ|`). Exact consumers use
/// [`dot`]; screening bounds carry an explicit margin for this error.
pub fn dot_lanes(u: &[f64], v: &[f64]) -> f64 {
    debug_assert_eq!(u.len(), v.len());
    const LANES: usize = 8;
    let split = u.len() - u.len() % LANES;
    let (u_body, u_tail) = u.split_at(split);
    let (v_body, v_tail) = v.split_at(split);
    let mut d = [0.0f64; LANES];
    for (a, b) in u_body.chunks_exact(LANES).zip(v_body.chunks_exact(LANES)) {
        for ((x, y), dl) in a.iter().zip(b).zip(&mut d) {
            *dl += x * y;
        }
    }
    let mut dt: f64 = d.iter().sum();
    for (x, y) in u_tail.iter().zip(v_tail) {
        dt += x * y;
    }
    dt
}

/// Lane-chunked variant of [`sum_dot_normsq`] for *screening* passes: eight
/// independent accumulator lanes break the sequential-addition latency chain
/// and leave the loop free for the compiler to vectorise.
///
/// Deterministic (the association is fixed) but **not** bit-identical to the
/// sequential kernel — the results differ by ordinary reassociation error,
/// bounded by `≈ n·ε_mach` of the accumulated term magnitudes. Callers that
/// need exact bits (the verification fit itself) use the sequential kernels;
/// this one exists for bounds that carry an explicit error margin, like
/// [`QueryFit::fit_within`](crate::scale_shift::QueryFit::fit_within).
pub fn sum_dot_normsq_lanes(u: &[f64], v: &[f64]) -> (f64, f64, f64) {
    debug_assert_eq!(u.len(), v.len());
    const LANES: usize = 8;
    let split = u.len() - u.len() % LANES;
    let (u_body, u_tail) = u.split_at(split);
    let (v_body, v_tail) = v.split_at(split);
    let mut s = [0.0f64; LANES];
    let mut d = [0.0f64; LANES];
    let mut q = [0.0f64; LANES];
    for (a, b) in u_body.chunks_exact(LANES).zip(v_body.chunks_exact(LANES)) {
        for (((x, y), sl), (dl, ql)) in a.iter().zip(b).zip(&mut s).zip(d.iter_mut().zip(&mut q)) {
            *sl += *y;
            *dl += x * y;
            *ql += y * y;
        }
    }
    let (mut st, mut dt, mut qt) = (0.0, 0.0, 0.0);
    for (sl, (dl, ql)) in s.iter().zip(d.iter().zip(&q)) {
        st += sl;
        dt += dl;
        qt += ql;
    }
    for (x, y) in u_tail.iter().zip(v_tail) {
        st += y;
        dt += x * y;
        qt += y * y;
    }
    (st, dt, qt)
}

/// Arithmetic mean of the components, `(Σ uᵢ)/n`; `0.0` for the empty slice.
///
/// The mean is exactly the coordinate of `u` along the shifting vector `N`
/// divided by `‖N‖²`·n — removing it is the SE-transformation (see
/// [`crate::se`]).
#[inline]
pub fn mean(u: &[f64]) -> f64 {
    if u.is_empty() {
        0.0
    } else {
        u.iter().sum::<f64>() / u.len() as f64
    }
}

/// `out ← u − v`.
#[inline]
pub fn sub(u: &[f64], v: &[f64], out: &mut [f64]) {
    debug_assert_eq!(u.len(), v.len());
    debug_assert_eq!(u.len(), out.len());
    for ((o, a), b) in out.iter_mut().zip(u).zip(v) {
        *o = a - b;
    }
}

/// True when every component of `u` differs from the matching component of
/// `v` by at most `tol` (absolute).
pub fn approx_eq(u: &[f64], v: &[f64], tol: f64) -> bool {
    u.len() == v.len() && u.iter().zip(v).all(|(a, b)| (a - b).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_hand_computation() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_of_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm_of_unit_axes() {
        assert_eq!(norm(&[1.0, 0.0, 0.0]), 1.0);
        assert_eq!(norm(&[0.0, -3.0, 4.0]), 5.0);
    }

    #[test]
    fn dist_is_symmetric_and_zero_on_self() {
        let u = [5.0, 10.0, 6.0, 12.0, 4.0];
        let v = [10.0, 20.0, 12.0, 24.0, 8.0];
        assert_eq!(dist(&u, &v), dist(&v, &u));
        assert_eq!(dist(&u, &u), 0.0);
    }

    #[test]
    fn lp_one_is_manhattan() {
        assert_eq!(lp_dist(&[0.0, 0.0], &[3.0, -4.0], 1.0), 7.0);
    }

    #[test]
    fn lp_two_matches_euclidean() {
        let u = [1.0, 2.0, -1.0];
        let v = [0.5, -2.0, 3.0];
        assert!((lp_dist(&u, &v, 2.0) - dist(&u, &v)).abs() < 1e-12);
    }

    #[test]
    fn lp_infinity_is_chebyshev() {
        assert_eq!(lp_dist(&[0.0, 0.0], &[3.0, -4.0], f64::INFINITY), 4.0);
    }

    #[test]
    fn lp_three_hand_checked() {
        // (|1|^3 + |2|^3)^(1/3) = 9^(1/3)
        let d = lp_dist(&[0.0, 0.0], &[1.0, 2.0], 3.0);
        assert!((d - 9f64.powf(1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires p > 0")]
    fn lp_rejects_nonpositive_p() {
        lp_dist(&[1.0], &[2.0], 0.0);
    }

    #[test]
    fn mean_of_paper_example_a() {
        // Sequence A from paper Figure 1.
        assert_eq!(mean(&[5.0, 10.0, 6.0, 12.0, 4.0]), 7.4);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn sub_and_scale_and_shift() {
        let mut out = [0.0; 2];
        sub(&[5.0, 7.0], &[2.0, 3.0], &mut out);
        assert_eq!(out, [3.0, 4.0]);
    }

    #[test]
    fn fused_kernels_are_bit_identical_to_separate_passes() {
        // Awkward magnitudes on purpose: bit-identity must hold exactly, not
        // merely to within rounding.
        let u: Vec<f64> = (0..129)
            .map(|i| (f64::from(i) * 0.7).sin() * 1e3 + 1.0 / (f64::from(i) + 3.0))
            .collect();
        let v: Vec<f64> = (0..129)
            .map(|i| (f64::from(i) * 1.3).cos() * 1e-3 + f64::from(i))
            .collect();
        let (s2, d2) = sum_and_dot(&u, &v);
        let (s3, d3, q3) = sum_dot_normsq(&u, &v);
        let s_ref: f64 = v.iter().sum();
        assert_eq!(s2.to_bits(), s_ref.to_bits());
        assert_eq!(s3.to_bits(), s_ref.to_bits());
        assert_eq!(d2.to_bits(), dot(&u, &v).to_bits());
        assert_eq!(d3.to_bits(), dot(&u, &v).to_bits());
        assert_eq!(q3.to_bits(), norm_sq(&v).to_bits());
    }

    #[test]
    fn fused_kernels_on_empty_slices() {
        assert_eq!(sum_and_dot(&[], &[]), (0.0, 0.0));
        assert_eq!(sum_dot_normsq(&[], &[]), (0.0, 0.0, 0.0));
        assert_eq!(sum_dot_normsq_lanes(&[], &[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn lane_kernel_is_deterministic_and_close_to_sequential() {
        // Every length class: below one lane block, exact multiples, and
        // ragged tails.
        for len in [0usize, 1, 3, 7, 8, 9, 16, 40, 129] {
            let u: Vec<f64> = (0..len)
                .map(|i| (i as f64 * 0.7).sin() * 1e4 + 0.25)
                .collect();
            let v: Vec<f64> = (0..len)
                .map(|i| (i as f64 * 1.3).cos() * 3.0 - 1e2)
                .collect();
            let seq = sum_dot_normsq(&u, &v);
            let lanes = sum_dot_normsq_lanes(&u, &v);
            assert_eq!(
                lanes,
                sum_dot_normsq_lanes(&u, &v),
                "lane kernel must be deterministic (len {len})"
            );
            // Reassociation error only: far inside n·ε_mach of the term
            // magnitudes (the screening margin is 1e-9 of those).
            let mag: f64 = v.iter().map(|y| y.abs()).sum::<f64>() + 1.0;
            for (a, b) in [(seq.0, lanes.0), (seq.1, lanes.1), (seq.2, lanes.2)] {
                assert!(
                    (a - b).abs() <= 1e-11 * mag * mag,
                    "len {len}: sequential {a} vs lanes {b}"
                );
            }
        }
    }

    #[test]
    fn approx_eq_tolerates_within_tol_only() {
        assert!(approx_eq(&[1.0, 2.0], &[1.0 + 1e-9, 2.0 - 1e-9], 1e-8));
        assert!(!approx_eq(&[1.0, 2.0], &[1.1, 2.0], 1e-8));
        assert!(!approx_eq(&[1.0], &[1.0, 2.0], 1.0));
    }
}
