//! Sliding-window extraction (the paper's pre-processing step, following
//! the ST-index \[2\]).
//!
//! A window of length `n` slides over each data sequence with a configurable
//! stride (the paper uses stride 1, extracting every subsequence). Each
//! window is identified by its [`SubseqId`](crate::SubseqId).

/// Iterator over the window offsets of a series of length `series_len`.
///
/// Yields `offset` values such that `offset + window_len <= series_len`,
/// stepping by `stride`.
pub fn window_offsets(
    series_len: usize,
    window_len: usize,
    stride: usize,
) -> impl Iterator<Item = usize> {
    assert!(stride >= 1, "stride must be at least 1");
    let last = series_len.checked_sub(window_len);
    WindowOffsets {
        next: 0,
        last,
        stride,
    }
}

struct WindowOffsets {
    next: usize,
    last: Option<usize>,
    stride: usize,
}

impl Iterator for WindowOffsets {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        let last = self.last?;
        if self.next > last {
            return None;
        }
        let cur = self.next;
        self.next += self.stride;
        Some(cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.last {
            None => (0, Some(0)),
            Some(last) => {
                if self.next > last {
                    (0, Some(0))
                } else {
                    let n = (last - self.next) / self.stride + 1;
                    (n, Some(n))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_one_covers_every_offset() {
        let offs: Vec<usize> = window_offsets(10, 4, 1).collect();
        assert_eq!(offs, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn larger_strides_skip() {
        let offs: Vec<usize> = window_offsets(10, 4, 3).collect();
        assert_eq!(offs, vec![0, 3, 6]);
    }

    #[test]
    fn exact_fit_yields_one_window() {
        assert_eq!(window_offsets(4, 4, 1).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn too_short_series_yields_nothing() {
        assert_eq!(window_offsets(3, 4, 1).count(), 0);
        assert_eq!(window_offsets(0, 1, 1).count(), 0);
    }

    #[test]
    fn size_hint_is_exact() {
        let it = window_offsets(100, 10, 7);
        let (lo, hi) = it.size_hint();
        let n = it.count();
        assert_eq!(lo, n);
        assert_eq!(hi, Some(n));
    }

    #[test]
    fn paper_scale_window_count() {
        // 1000 series × 650 values, window 128, stride 1:
        // 650 − 128 + 1 = 523 windows per series.
        let total: usize = (0..1000).map(|_| window_offsets(650, 128, 1).count()).sum();
        assert_eq!(total, 523_000);
    }
}
