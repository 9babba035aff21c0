//! Train/validation/test splits over snapshot indices.
//!
//! The paper uses the DCRNN default split everywhere: 70 % train,
//! 10 % validation, 20 % test, taken *chronologically* (shuffling across
//! the split boundary would leak future data into training).

/// Fractions of the snapshot sequence assigned to each split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitRatios {
    /// Training fraction.
    pub train: f64,
    /// Validation fraction.
    pub val: f64,
    /// Test fraction.
    pub test: f64,
}

impl Default for SplitRatios {
    fn default() -> Self {
        // The DCRNN/paper default (§3.1).
        SplitRatios {
            train: 0.7,
            val: 0.1,
            test: 0.2,
        }
    }
}

/// Index ranges for the three splits over `n` snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitIndices {
    /// Training snapshot ids `[0, train_end)`.
    pub train: std::ops::Range<usize>,
    /// Validation snapshot ids.
    pub val: std::ops::Range<usize>,
    /// Test snapshot ids.
    pub test: std::ops::Range<usize>,
}

impl SplitRatios {
    /// Chronological split of `n` snapshots.
    pub fn split(&self, n: usize) -> SplitIndices {
        assert!(
            (self.train + self.val + self.test - 1.0).abs() < 1e-9,
            "split ratios must sum to 1"
        );
        let train_end = (n as f64 * self.train).round() as usize;
        let val_end = (n as f64 * (self.train + self.val)).round() as usize;
        SplitIndices {
            train: 0..train_end.min(n),
            val: train_end.min(n)..val_end.min(n),
            test: val_end.min(n)..n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_70_10_20() {
        let s = SplitRatios::default().split(100);
        assert_eq!(s.train, 0..70);
        assert_eq!(s.val, 70..80);
        assert_eq!(s.test, 80..100);
    }

    #[test]
    fn splits_are_disjoint_and_cover() {
        let s = SplitRatios::default().split(523);
        assert_eq!(s.train.end, s.val.start);
        assert_eq!(s.val.end, s.test.start);
        assert_eq!(s.test.end, 523);
        assert_eq!(s.train.len() + s.val.len() + s.test.len(), 523);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_ratios_panic() {
        SplitRatios {
            train: 0.5,
            val: 0.1,
            test: 0.1,
        }
        .split(10);
    }
}
