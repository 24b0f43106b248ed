//! Node-split algorithms: Guttman's linear and quadratic splits \[22\] and
//! the R*-tree topological split \[16\].
//!
//! All three operate on a parallel pair `(items, mbrs)` — the overflowing
//! node's entries and their bounding rectangles — and return the index sets
//! of the two groups. Working on indices keeps the algorithms agnostic to
//! whether the entries are data points or child rectangles.

// analyze::allow-file(index): the split kernels permute `0..mbrs.len()` — every index vector (the sorted orders, seeds, groups) is built from that range, and the `total >= 2 * min_entries` asserts keep every cut point inside it.

// analyze::allow-file(panic): the `expect`s unwrap loop results that are `Some` whenever the asserted `total >= 2 * min_entries` precondition holds (dist_count >= 1, at least one axis/pair); they are restatements of the documented `# Panics` contract, not runtime conditions.

use tsss_geometry::Mbr;

/// Outcome of a split: indices of the entries assigned to each group.
/// Both groups respect the `m` lower bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitGroups {
    /// Indices (into the original entry slice) of group one.
    pub first: Vec<usize>,
    /// Indices of group two.
    pub second: Vec<usize>,
}

fn mbr_of_group(mbrs: &[Mbr], group: &[usize]) -> Mbr {
    let mut it = group.iter();
    let mut acc = mbrs[*it.next().expect("group is non-empty")].clone();
    for &i in it {
        acc.extend_mbr(&mbrs[i]);
    }
    acc
}

/// R*-tree split (Beckmann et al. §4.2):
/// 1. **ChooseSplitAxis** — for every axis, sort entries by lower then by
///    upper boundary and sum the margins of all legal distributions; pick
///    the axis with the least total margin.
/// 2. **ChooseSplitIndex** — along that axis, pick the distribution with the
///    least overlap between the two groups' MBRs, breaking ties by least
///    total area.
///
/// `min_entries` is the tree's `m`; every candidate distribution puts at
/// least `m` entries in each group. Each sorted order is swept once from
/// each end, so a split costs O(d²·M), not O(d²·M²).
pub fn rstar_split(mbrs: &[Mbr], min_entries: usize) -> SplitGroups {
    let total = mbrs.len();
    assert!(total >= 2 * min_entries, "not enough entries to split");
    let dim = mbrs[0].dim();

    // For each axis consider two sort orders (by low, by high); a
    // "distribution" k assigns the first (m − 1 + k) entries of the sorted
    // order to group one, k = 1 ..= M − 2m + 2.
    let mut best_axis_margin = f64::INFINITY;
    let mut best_axis: Option<[SweptOrder; 2]> = None;
    for axis in 0..dim {
        let swept = sorted_orders(mbrs, axis).map(|order| {
            let boxes = cut_boxes(mbrs, &order, min_entries);
            (order, boxes)
        });
        let mut margin_sum = 0.0;
        for (_, boxes) in &swept {
            for (g1, g2) in boxes {
                margin_sum += g1.margin() + g2.margin();
            }
        }
        if margin_sum < best_axis_margin {
            best_axis_margin = margin_sum;
            best_axis = Some(swept);
        }
    }
    let swept = best_axis.expect("at least one axis");

    // ChooseSplitIndex on the winning axis.
    let mut best: Option<(f64, f64, &[usize], usize)> = None;
    for (order, boxes) in &swept {
        for (k, (g1, g2)) in boxes.iter().enumerate() {
            let overlap = g1.overlap(g2);
            let area = g1.volume() + g2.volume();
            let better = match &best {
                None => true,
                Some((bo, ba, _, _)) => {
                    overlap < *bo - 1e-12 || ((overlap - *bo).abs() <= 1e-12 && area < *ba)
                }
            };
            if better {
                best = Some((overlap, area, order.as_slice(), min_entries + k));
            }
        }
    }
    let (_, _, order, cut) = best.expect("at least one distribution");
    SplitGroups {
        first: order[..cut].to_vec(),
        second: order[cut..].to_vec(),
    }
}

/// A sorted order of entry indices, with both groups' boxes at each of its
/// legal cuts ([`cut_boxes`]).
type SweptOrder = (Vec<usize>, Vec<(Mbr, Mbr)>);

/// The entry indices sorted along `axis` by lower then upper boundary, and
/// by upper then lower boundary — the two orders ChooseSplitAxis scans.
fn sorted_orders(mbrs: &[Mbr], axis: usize) -> [Vec<usize>; 2] {
    let bounds: Vec<[f64; 2]> = mbrs
        .iter()
        .map(|m| [m.low()[axis], m.high()[axis]])
        .collect();
    [0, 1].map(|primary| {
        let mut order: Vec<usize> = (0..mbrs.len()).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (bounds[a], bounds[b]);
            a[primary]
                .partial_cmp(&b[primary])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    a[1 - primary]
                        .partial_cmp(&b[1 - primary])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
        });
        order
    })
}

/// Both groups' boxes at every legal cut of `order`: element `k` bounds
/// `order[..m + k]` and `order[m + k..]`, for `m = min_entries`.
///
/// One forward sweep grows group one's box entry by entry and one backward
/// sweep grows group two's, O(d) per entry, each step allocating only the
/// box it keeps. Each box is bit for bit the left-to-right `extend_mbr`
/// fold over its group: the forward sweep continues that fold, and the
/// backward sweep puts each earlier entry in front (`earlier ∪ rest`), so
/// on equal bounds (`-0.0` against `0.0`) the earlier entry's value stays,
/// as it does in the fold (`<=`/`>=`).
fn cut_boxes(mbrs: &[Mbr], order: &[usize], min_entries: usize) -> Vec<(Mbr, Mbr)> {
    let last_cut = order.len() - min_entries;
    let between = &order[min_entries..last_cut];

    let mut firsts = Vec::with_capacity(between.len() + 1);
    let mut acc = mbr_of_group(mbrs, &order[..min_entries]);
    for &i in between {
        let next = acc.union(&mbrs[i]);
        firsts.push(std::mem::replace(&mut acc, next));
    }
    firsts.push(acc);

    let mut seconds = Vec::with_capacity(between.len() + 1);
    let mut acc = mbr_of_group(mbrs, &order[last_cut..]);
    for &i in between.iter().rev() {
        let next = mbrs[i].union(&acc);
        seconds.push(std::mem::replace(&mut acc, next));
    }
    seconds.push(acc);
    seconds.reverse();

    firsts.into_iter().zip(seconds).collect()
}

/// Guttman's **quadratic** split: pick the pair of entries that would waste
/// the most area together as seeds, then repeatedly assign the entry with
/// the greatest preference for one group.
// Exact float equality implements Guttman's tie-breaks: "equal goodness"
// means the identical computed value, not a neighbourhood of it.
#[allow(clippy::float_cmp)]
pub fn quadratic_split(mbrs: &[Mbr], min_entries: usize) -> SplitGroups {
    let total = mbrs.len();
    assert!(total >= 2 * min_entries, "not enough entries to split");

    // PickSeeds: maximise d = area(J) − area(E1) − area(E2).
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for (i, mi) in mbrs.iter().enumerate() {
        for (j, mj) in mbrs.iter().enumerate().skip(i + 1) {
            let j_area = mi.union(mj).volume();
            let d = j_area - mi.volume() - mj.volume();
            if d > worst {
                worst = d;
                seed_a = i;
                seed_b = j;
            }
        }
    }

    let mut first = vec![seed_a];
    let mut second = vec![seed_b];
    let mut mbr1 = mbrs[seed_a].clone();
    let mut mbr2 = mbrs[seed_b].clone();
    let mut remaining: Vec<usize> = (0..total).filter(|&i| i != seed_a && i != seed_b).collect();

    while !remaining.is_empty() {
        // If one group must take everything left to reach m, do so.
        if first.len() + remaining.len() == min_entries {
            first.append(&mut remaining);
            break;
        }
        if second.len() + remaining.len() == min_entries {
            second.append(&mut remaining);
            break;
        }
        // PickNext: entry with maximum |d1 − d2|.
        let (mut pick_pos, mut pick_pref) = (0, f64::NEG_INFINITY);
        let mut pick_d = (0.0, 0.0);
        for (pos, &i) in remaining.iter().enumerate() {
            let d1 = mbr1.enlargement_for(&mbrs[i]);
            let d2 = mbr2.enlargement_for(&mbrs[i]);
            let pref = (d1 - d2).abs();
            if pref > pick_pref {
                pick_pref = pref;
                pick_pos = pos;
                pick_d = (d1, d2);
            }
        }
        let chosen = remaining.swap_remove(pick_pos);
        // Assign to the group needing least enlargement; ties → smaller
        // area, then fewer entries (Guttman's tie-breaks).
        let to_first = if pick_d.0 < pick_d.1 {
            true
        } else if pick_d.1 < pick_d.0 {
            false
        } else if mbr1.volume() != mbr2.volume() {
            mbr1.volume() < mbr2.volume()
        } else {
            first.len() <= second.len()
        };
        if to_first {
            first.push(chosen);
            mbr1.extend_mbr(&mbrs[chosen]);
        } else {
            second.push(chosen);
            mbr2.extend_mbr(&mbrs[chosen]);
        }
    }
    SplitGroups { first, second }
}

/// Guttman's **linear** split: seeds are the pair with the greatest
/// normalised separation along any axis; the rest are assigned by least
/// enlargement in arbitrary order.
// See `quadratic_split`: exact equality is the tie-break.
#[allow(clippy::float_cmp)]
pub fn linear_split(mbrs: &[Mbr], min_entries: usize) -> SplitGroups {
    let total = mbrs.len();
    assert!(total >= 2 * min_entries, "not enough entries to split");
    let dim = mbrs[0].dim();

    // LinearPickSeeds.
    let (mut seed_a, mut seed_b, mut best_sep) = (0, 1, f64::NEG_INFINITY);
    for axis in 0..dim {
        // Entry with the highest low side and entry with the lowest high side.
        let (mut hi_low_i, mut hi_low) = (0, f64::NEG_INFINITY);
        let (mut lo_high_i, mut lo_high) = (0, f64::INFINITY);
        let (mut axis_min, mut axis_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, m) in mbrs.iter().enumerate() {
            let (l, h) = (m.low()[axis], m.high()[axis]);
            if l > hi_low {
                hi_low = l;
                hi_low_i = i;
            }
            if h < lo_high {
                lo_high = h;
                lo_high_i = i;
            }
            axis_min = axis_min.min(l);
            axis_max = axis_max.max(h);
        }
        if hi_low_i == lo_high_i {
            continue; // cannot seed with one entry
        }
        let width = (axis_max - axis_min).max(1e-300);
        let sep = (hi_low - lo_high) / width;
        if sep > best_sep {
            best_sep = sep;
            seed_a = hi_low_i;
            seed_b = lo_high_i;
        }
    }
    if seed_a == seed_b {
        // Fully degenerate (all boxes identical): arbitrary seeds.
        seed_a = 0;
        seed_b = 1;
    }

    let mut first = vec![seed_a];
    let mut second = vec![seed_b];
    let mut mbr1 = mbrs[seed_a].clone();
    let mut mbr2 = mbrs[seed_b].clone();
    for (i, m) in mbrs.iter().enumerate() {
        if i == seed_a || i == seed_b {
            continue;
        }
        // m-guarantee: if one group needs every unassigned entry, give it
        // everything from here on.
        let unassigned = total - first.len() - second.len();
        if first.len() + unassigned == min_entries {
            first.push(i);
            mbr1.extend_mbr(m);
            continue;
        }
        if second.len() + unassigned == min_entries {
            second.push(i);
            mbr2.extend_mbr(m);
            continue;
        }
        let d1 = mbr1.enlargement_for(m);
        let d2 = mbr2.enlargement_for(m);
        let to_first = if d1 != d2 {
            d1 < d2
        } else if mbr1.volume() != mbr2.volume() {
            mbr1.volume() < mbr2.volume()
        } else {
            first.len() <= second.len()
        };
        if to_first {
            first.push(i);
            mbr1.extend_mbr(m);
        } else {
            second.push(i);
            mbr2.extend_mbr(m);
        }
    }

    // Enforce the m lower bound by moving the entries that least hurt.
    rebalance_to_min(&mut first, &mut second, mbrs, min_entries);
    SplitGroups { first, second }
}

/// Moves entries from the larger group to the smaller until both meet the
/// `m` bound, choosing moves that least enlarge the receiving MBR.
fn rebalance_to_min(
    first: &mut Vec<usize>,
    second: &mut Vec<usize>,
    mbrs: &[Mbr],
    min_entries: usize,
) {
    loop {
        let (src, dst): (&mut Vec<usize>, &mut Vec<usize>) = if first.len() < min_entries {
            (second, first)
        } else if second.len() < min_entries {
            (first, second)
        } else {
            return;
        };
        let dst_mbr = mbr_of_group(mbrs, dst);
        let (mut best_pos, mut best_cost) = (0, f64::INFINITY);
        for (pos, &i) in src.iter().enumerate() {
            let cost = dst_mbr.enlargement_for(&mbrs[i]);
            if cost < best_cost {
                best_cost = cost;
                best_pos = pos;
            }
        }
        let moved = src.swap_remove(best_pos);
        dst.push(moved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsss_rand::Rng;

    /// The R* split as it was before the sweep: every cut's two boxes are
    /// folded from scratch, O(d²·M²). Kept as the reference the sweep must
    /// reproduce group for group.
    fn reference_rstar_split(mbrs: &[Mbr], min_entries: usize) -> SplitGroups {
        let total = mbrs.len();
        assert!(total >= 2 * min_entries, "not enough entries to split");
        let dim = mbrs[0].dim();
        let dist_count = total - 2 * min_entries + 1;

        let mut best_axis_margin = f64::INFINITY;
        let mut best_axis_orders: Option<[Vec<usize>; 2]> = None;
        for axis in 0..dim {
            let mut by_low: Vec<usize> = (0..total).collect();
            by_low.sort_by(|&a, &b| {
                mbrs[a].low()[axis]
                    .partial_cmp(&mbrs[b].low()[axis])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| {
                        mbrs[a].high()[axis]
                            .partial_cmp(&mbrs[b].high()[axis])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
            });
            let mut by_high: Vec<usize> = (0..total).collect();
            by_high.sort_by(|&a, &b| {
                mbrs[a].high()[axis]
                    .partial_cmp(&mbrs[b].high()[axis])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| {
                        mbrs[a].low()[axis]
                            .partial_cmp(&mbrs[b].low()[axis])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
            });
            let mut margin_sum = 0.0;
            for order in [&by_low, &by_high] {
                for k in 0..dist_count {
                    let cut = min_entries + k;
                    let g1 = mbr_of_group(mbrs, &order[..cut]);
                    let g2 = mbr_of_group(mbrs, &order[cut..]);
                    margin_sum += g1.margin() + g2.margin();
                }
            }
            if margin_sum < best_axis_margin {
                best_axis_margin = margin_sum;
                best_axis_orders = Some([by_low, by_high]);
            }
        }
        let orders = best_axis_orders.unwrap();

        let mut best: Option<(f64, f64, Vec<usize>, Vec<usize>)> = None;
        for order in &orders {
            for k in 0..dist_count {
                let cut = min_entries + k;
                let g1 = mbr_of_group(mbrs, &order[..cut]);
                let g2 = mbr_of_group(mbrs, &order[cut..]);
                let overlap = g1.overlap(&g2);
                let area = g1.volume() + g2.volume();
                let better = match &best {
                    None => true,
                    Some((bo, ba, _, _)) => {
                        overlap < *bo - 1e-12 || ((overlap - *bo).abs() <= 1e-12 && area < *ba)
                    }
                };
                if better {
                    best = Some((overlap, area, order[..cut].to_vec(), order[cut..].to_vec()));
                }
            }
        }
        let (_, _, first, second) = best.unwrap();
        SplitGroups { first, second }
    }

    /// A coordinate drawn from a small grid, so that equal bounds (and
    /// `-0.0` against `0.0`) are common, or from a continuous range.
    fn coordinate(rng: &mut Rng, gridded: bool) -> f64 {
        if !gridded {
            return rng.f64_range(-50.0, 50.0);
        }
        match rng.usize_below(6) {
            0 => -0.0,
            1 => 0.0,
            k => (k as f64 - 3.0) * 0.5,
        }
    }

    #[test]
    fn the_sweep_returns_the_reference_groups() {
        let mut rng = Rng::seed_from_u64(0x5917_5EE9);
        let mut signed_zero_ties = 0;
        for case in 0..400 {
            let dim = 1 + rng.usize_below(6);
            let min = 2 + rng.usize_below(8);
            let total = 2 * min + rng.usize_below(3 * min);
            let gridded = case % 2 == 0;
            let points = case % 3 != 2;
            let mbrs: Vec<Mbr> = (0..total)
                .map(|_| {
                    let a: Vec<f64> = (0..dim).map(|_| coordinate(&mut rng, gridded)).collect();
                    if points {
                        return Mbr::point(&a);
                    }
                    let b: Vec<f64> = (0..dim).map(|_| coordinate(&mut rng, gridded)).collect();
                    let mut m = Mbr::point(&a);
                    m.extend_point(&b);
                    m
                })
                .collect();
            signed_zero_ties += usize::from(
                mbrs.iter()
                    .any(|m| m.low().iter().any(|x| x.to_bits() == (-0.0f64).to_bits()))
                    && mbrs
                        .iter()
                        .any(|m| m.low().iter().any(|x| x.to_bits() == 0)),
            );
            assert_eq!(
                rstar_split(&mbrs, min),
                reference_rstar_split(&mbrs, min),
                "case {case}: dim {dim}, m {min}, {total} entries"
            );
        }
        assert!(signed_zero_ties > 50, "the cases must mix -0.0 and 0.0");
    }

    #[test]
    fn the_sweep_keeps_the_earlier_signed_zero_on_ties() {
        // Two groups whose bounds tie at zero with opposite signs: each cut's
        // boxes must carry the sign the left-to-right fold keeps.
        let coords = [0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 0.0, 2.0];
        let mbrs: Vec<Mbr> = coords.iter().map(|&x| Mbr::point(&[x, -x])).collect();
        let order: Vec<usize> = (0..mbrs.len()).collect();
        for (k, (g1, g2)) in cut_boxes(&mbrs, &order, 2).iter().enumerate() {
            let cut = 2 + k;
            let want1 = mbr_of_group(&mbrs, &order[..cut]);
            let want2 = mbr_of_group(&mbrs, &order[cut..]);
            let bits = |m: &Mbr| -> Vec<u64> {
                m.low()
                    .iter()
                    .chain(m.high())
                    .map(|x| x.to_bits())
                    .collect()
            };
            assert_eq!(bits(g1), bits(&want1), "group one at cut {cut}");
            assert_eq!(bits(g2), bits(&want2), "group two at cut {cut}");
        }
        assert_eq!(rstar_split(&mbrs, 2), reference_rstar_split(&mbrs, 2));
    }

    fn point_mbrs(points: &[[f64; 2]]) -> Vec<Mbr> {
        points.iter().map(|p| Mbr::point(p)).collect()
    }

    fn check_valid(groups: &SplitGroups, total: usize, m: usize) {
        let mut seen = vec![false; total];
        for &i in groups.first.iter().chain(&groups.second) {
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "missing index");
        assert!(groups.first.len() >= m, "group one below m");
        assert!(groups.second.len() >= m, "group two below m");
    }

    fn two_clusters() -> Vec<Mbr> {
        let mut pts = vec![];
        for i in 0..5 {
            pts.push([i as f64 * 0.1, i as f64 * 0.1]);
        }
        for i in 0..5 {
            pts.push([100.0 + i as f64 * 0.1, 100.0 + i as f64 * 0.1]);
        }
        point_mbrs(&pts)
    }

    #[test]
    fn rstar_separates_obvious_clusters() {
        let mbrs = two_clusters();
        let g = rstar_split(&mbrs, 2);
        check_valid(&g, 10, 2);
        let low: Vec<usize> = (0..5).collect();
        let mut f = g.first.clone();
        f.sort_unstable();
        let mut s = g.second.clone();
        s.sort_unstable();
        assert!(f == low || s == low, "clusters were mixed: {g:?}");
    }

    #[test]
    fn quadratic_separates_obvious_clusters() {
        let mbrs = two_clusters();
        let g = quadratic_split(&mbrs, 2);
        check_valid(&g, 10, 2);
        let low: Vec<usize> = (0..5).collect();
        let mut f = g.first.clone();
        f.sort_unstable();
        let mut s = g.second.clone();
        s.sort_unstable();
        assert!(f == low || s == low, "clusters were mixed: {g:?}");
    }

    #[test]
    fn linear_separates_obvious_clusters() {
        let mbrs = two_clusters();
        let g = linear_split(&mbrs, 2);
        check_valid(&g, 10, 2);
    }

    #[test]
    fn all_policies_respect_m_on_degenerate_input() {
        // All identical points — the worst case for seed picking.
        let mbrs: Vec<Mbr> = (0..9).map(|_| Mbr::point(&[1.0, 1.0, 1.0])).collect();
        for (name, g) in [
            ("rstar", rstar_split(&mbrs, 4)),
            ("quadratic", quadratic_split(&mbrs, 4)),
            ("linear", linear_split(&mbrs, 4)),
        ] {
            check_valid(&g, 9, 4);
            let _ = name;
        }
    }

    #[test]
    fn splits_work_on_rectangles_not_just_points() {
        let mbrs: Vec<Mbr> = (0..8)
            .map(|i| {
                let base = if i < 4 { 0.0 } else { 50.0 };
                Mbr::new(
                    vec![base + i as f64, base],
                    vec![base + i as f64 + 2.0, base + 3.0],
                )
                .unwrap()
            })
            .collect();
        for g in [
            rstar_split(&mbrs, 3),
            quadratic_split(&mbrs, 3),
            linear_split(&mbrs, 3),
        ] {
            check_valid(&g, 8, 3);
        }
    }

    #[test]
    fn rstar_prefers_low_overlap_distributions() {
        // A line of points: splitting in the middle has zero overlap.
        let mbrs: Vec<Mbr> = (0..10).map(|i| Mbr::point(&[i as f64, 0.0])).collect();
        let g = rstar_split(&mbrs, 3);
        let m1 = g
            .first
            .iter()
            .map(|&i| mbrs[i].clone())
            .reduce(|a, b| a.union(&b))
            .unwrap();
        let m2 = g
            .second
            .iter()
            .map(|&i| mbrs[i].clone())
            .reduce(|a, b| a.union(&b))
            .unwrap();
        assert_eq!(m1.overlap(&m2), 0.0);
    }

    #[test]
    fn minimum_sized_split_is_exact_halves() {
        // total = 2m exactly: each group must be exactly m.
        let mbrs: Vec<Mbr> = (0..8)
            .map(|i| Mbr::point(&[i as f64, -(i as f64)]))
            .collect();
        for g in [
            rstar_split(&mbrs, 4),
            quadratic_split(&mbrs, 4),
            linear_split(&mbrs, 4),
        ] {
            assert_eq!(g.first.len(), 4);
            assert_eq!(g.second.len(), 4);
            check_valid(&g, 8, 4);
        }
    }
}
