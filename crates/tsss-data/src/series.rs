//! The time-series container shared across the workspace.

/// A named time series — one company's price history in the paper's setting.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Human-readable identifier (e.g. `"HK0005"`).
    pub name: String,
    /// The ordered observations.
    pub values: Vec<f64>,
}

impl Series {
    /// Creates a series.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            values,
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series has no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The subsequence starting at `offset` with length `len`, or `None`
    /// when it would run off the end.
    pub fn window(&self, offset: usize, len: usize) -> Option<&[f64]> {
        let end = offset.checked_add(len)?;
        self.values.get(offset..end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_extracts_the_right_slice() {
        let s = Series::new("x", vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.window(1, 3), Some(&[2.0, 3.0, 4.0][..]));
        assert_eq!(s.window(3, 2), Some(&[4.0, 5.0][..]));
        assert_eq!(s.window(3, 3), None);
        assert_eq!(s.window(usize::MAX, 2), None);
    }

    #[test]
    fn accessors() {
        let s = Series::new("y", vec![]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        let t = Series::new("z", vec![0.0; 7]);
        assert_eq!(t.len(), 7);
    }
}
