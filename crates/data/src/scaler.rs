//! Z-score standardization fitted on the training split (Algorithm 1,
//! lines 16–20): `x' = (x − μ) / σ` with μ, σ computed from `x_train` only,
//! so no information leaks from validation/test into the normalizer.
//!
//! Statistics are **per feature** (the trailing dimension): traffic signals
//! carry a `[0,1)` time-of-day channel alongside the speed channel, and one
//! scalar mean/std over the whole `[E, N, F]` view would let the tod column
//! contaminate the speed statistics. The public [`StandardScaler::mean`] /
//! [`StandardScaler::std`] fields are the **target channel** (feature 0)
//! statistics — the ones every original-unit metric conversion needs, since
//! forecast targets are feature 0 of the label window.

use st_tensor::{ops as t, Tensor};

/// Mean/std standardizer with per-feature statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    /// Fitted mean of the target channel (feature 0).
    pub mean: f32,
    /// Fitted standard deviation of the target channel (lower-bounded away
    /// from zero).
    pub std: f32,
    /// Per-feature `(mean, std)` along the trailing dimension. A single
    /// entry acts as a scalar scaler over every feature (the pre-tod
    /// behavior, still exact for one-feature signals).
    feature_stats: Vec<(f32, f32)>,
}

impl StandardScaler {
    /// Fit on a tensor (typically the training portion of the signal).
    ///
    /// For tensors of rank ≥ 2 the trailing dimension is treated as the
    /// feature axis and each feature gets its own statistics; rank-0/1
    /// tensors are a single feature.
    pub fn fit(train: &Tensor) -> Self {
        let features = if train.rank() >= 2 {
            *train.dims().last().expect("rank >= 2")
        } else {
            1
        };
        if features <= 1 {
            let mean = t::mean_all(train);
            let std = t::std_all(train).max(1e-6);
            return StandardScaler {
                mean,
                std,
                feature_stats: vec![(mean, std)],
            };
        }
        // Per-feature statistics with the same f32 accumulation order as
        // `ops::mean_all` / `ops::std_all`, so fitting on an augmented
        // signal recovers the bit-exact single-feature statistics.
        let data = train.to_vec();
        let rows = (data.len() / features).max(1);
        let feature_stats: Vec<(f32, f32)> = (0..features)
            .map(|f| {
                let col = || data.iter().skip(f).step_by(features);
                let mean = col().sum::<f32>() / rows as f32;
                let var = col().map(|x| (x - mean).powi(2)).sum::<f32>() / rows as f32;
                (mean, var.sqrt().max(1e-6))
            })
            .collect();
        StandardScaler {
            mean: feature_stats[0].0,
            std: feature_stats[0].1,
            feature_stats,
        }
    }

    /// Identity scaler (useful for already-normalized signals).
    pub fn identity() -> Self {
        StandardScaler {
            mean: 0.0,
            std: 1.0,
            feature_stats: vec![(0.0, 1.0)],
        }
    }

    /// Build from explicit per-feature `(mean, std)` pairs (feature 0 is
    /// the target channel).
    pub fn from_feature_stats(feature_stats: Vec<(f32, f32)>) -> Self {
        assert!(!feature_stats.is_empty(), "need at least one feature");
        StandardScaler {
            mean: feature_stats[0].0,
            std: feature_stats[0].1,
            feature_stats,
        }
    }

    /// The per-feature `(mean, std)` pairs.
    pub fn feature_stats(&self) -> &[(f32, f32)] {
        &self.feature_stats
    }

    /// Number of features this scaler was fitted over.
    pub fn num_features(&self) -> usize {
        self.feature_stats.len()
    }

    /// True when one statistic applies to every feature.
    fn is_scalar(&self) -> bool {
        self.feature_stats.len() == 1
    }

    fn check_features(&self, x: &Tensor, what: &str) {
        let f = if x.rank() >= 2 {
            *x.dims().last().expect("rank >= 2")
        } else {
            1
        };
        assert_eq!(
            f,
            self.feature_stats.len(),
            "{what}: tensor has {f} trailing features but scaler was fitted on {}",
            self.feature_stats.len()
        );
    }

    /// Standardize.
    pub fn transform(&self, x: &Tensor) -> Tensor {
        if self.is_scalar() {
            return t::mul_scalar(&t::add_scalar(x, -self.mean), 1.0 / self.std);
        }
        self.check_features(x, "transform");
        self.map_per_feature(x, |v, (m, s)| (v - m) / s)
    }

    /// Undo standardization (used to report MAE in original units).
    pub fn inverse(&self, x: &Tensor) -> Tensor {
        if self.is_scalar() {
            return t::add_scalar(&t::mul_scalar(x, self.std), self.mean);
        }
        self.check_features(x, "inverse");
        self.map_per_feature(x, |v, (m, s)| v * s + m)
    }

    /// Map a scalar **target-channel** value back to original units.
    pub fn inverse_scalar(&self, v: f32) -> f32 {
        v * self.std + self.mean
    }

    fn map_per_feature(&self, x: &Tensor, f: impl Fn(f32, (f32, f32)) -> f32) -> Tensor {
        let features = self.feature_stats.len();
        let mut data = x.to_vec();
        for row in data.chunks_exact_mut(features) {
            for (v, &stats) in row.iter_mut().zip(&self.feature_stats) {
                *v = f(*v, stats);
            }
        }
        Tensor::from_vec(data, x.dims()).expect("same numel")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_transform_standardizes() {
        let x = Tensor::from_slice(&[2.0, 4.0, 6.0, 8.0]);
        let s = StandardScaler::fit(&x);
        assert!((s.mean - 5.0).abs() < 1e-6);
        let z = s.transform(&x);
        assert!(t::mean_all(&z).abs() < 1e-6);
        assert!((t::std_all(&z) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn inverse_roundtrips() {
        let x = Tensor::from_slice(&[1.0, 5.0, 9.0]);
        let s = StandardScaler::fit(&x);
        let back = s.inverse(&s.transform(&x));
        assert!(back.allclose(&x, 1e-5));
    }

    #[test]
    fn constant_signal_does_not_divide_by_zero() {
        let x = Tensor::from_slice(&[3.0, 3.0, 3.0]);
        let s = StandardScaler::fit(&x);
        let z = s.transform(&x);
        assert!(z.to_vec().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn identity_is_noop() {
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let s = StandardScaler::identity();
        assert_eq!(s.transform(&x).to_vec(), x.to_vec());
    }

    #[test]
    fn tod_channel_does_not_contaminate_speed_stats() {
        // A two-feature [E, N, 2] signal: feature 0 is "speed", feature 1 a
        // [0,1) time-of-day phase. The fitted target-channel stats must
        // match a speed-only fit exactly.
        let speeds = [60.0f32, 62.0, 58.0, 64.0, 61.0, 55.0];
        let mut data = Vec::new();
        for (i, &v) in speeds.iter().enumerate() {
            data.push(v);
            data.push((i % 4) as f32 / 4.0); // tod channel
        }
        let x = Tensor::from_vec(data, [3, 2, 2]).unwrap();
        let speed_only = Tensor::from_slice(&speeds).reshape([3, 2, 1]).unwrap();
        let s = StandardScaler::fit(&x);
        let reference = StandardScaler::fit(&speed_only);
        assert_eq!(s.mean.to_bits(), reference.mean.to_bits());
        assert_eq!(s.std.to_bits(), reference.std.to_bits());
        assert_eq!(s.num_features(), 2);
        // And each channel is independently standardized to mean 0 / std 1.
        let z = s.transform(&x);
        let zv = z.to_vec();
        let (mut m0, mut m1) = (0.0f64, 0.0f64);
        for row in zv.chunks_exact(2) {
            m0 += row[0] as f64;
            m1 += row[1] as f64;
        }
        assert!((m0 / 6.0).abs() < 1e-6);
        assert!((m1 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn per_feature_inverse_roundtrips() {
        let x = Tensor::from_vec(
            vec![60.0, 0.0, 70.0, 0.25, 50.0, 0.5, 65.0, 0.75],
            [4, 1, 2],
        )
        .unwrap();
        let s = StandardScaler::fit(&x);
        let back = s.inverse(&s.transform(&x));
        assert!(back.allclose(&x, 1e-4));
    }

    #[test]
    #[should_panic(expected = "trailing features")]
    fn feature_count_mismatch_is_loud() {
        let x = Tensor::zeros([4, 2, 2]);
        let s = StandardScaler::fit(&x);
        let wrong = Tensor::zeros([4, 2, 3]);
        s.transform(&wrong);
    }
}
