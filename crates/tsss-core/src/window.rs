//! Sliding-window extraction (the paper's pre-processing step, following
//! the ST-index \[2\]).
//!
//! A window of length `n` slides over each data sequence one value at a
//! time, extracting every subsequence. Each window is identified by its
//! [`SubseqId`](crate::SubseqId).

/// The window offsets of a series of length `series_len`: every `offset`
/// with `offset + window_len <= series_len`.
pub fn window_offsets(series_len: usize, window_len: usize) -> std::ops::Range<usize> {
    match series_len.checked_sub(window_len) {
        Some(last) => 0..last + 1,
        None => 0..0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_one_covers_every_offset() {
        let offs: Vec<usize> = window_offsets(10, 4).collect();
        assert_eq!(offs, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn exact_fit_yields_one_window() {
        assert_eq!(window_offsets(4, 4).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn too_short_series_yields_nothing() {
        assert_eq!(window_offsets(3, 4).count(), 0);
        assert_eq!(window_offsets(0, 1).count(), 0);
    }

    #[test]
    fn paper_scale_window_count() {
        // 1000 series × 650 values, window 128:
        // 650 − 128 + 1 = 523 windows per series.
        let total: usize = (0..1000).map(|_| window_offsets(650, 128).count()).sum();
        assert_eq!(total, 523_000);
    }
}
