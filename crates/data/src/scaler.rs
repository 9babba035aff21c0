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

use crate::storage::RowStore;
use st_tensor::{ops as t, Tensor};
use std::ops::Range;

/// Scalars per block of a streamed fit: 64 KiB of `f32`, small enough that
/// the allocator recycles one block's buffer for the next.
const FIT_BLOCK_SCALARS: usize = 1 << 14;

/// Trailing-dimension feature count of a `dims`-shaped array (1 below rank 2).
fn features_of(dims: &[usize]) -> usize {
    match dims {
        [_, .., features] => (*features).max(1),
        _ => 1,
    }
}

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

/// Per-feature `Σ term(x, feature)` over consecutive blocks of whole rows,
/// plus the rows seen. Each feature's `f32` sum is carried across blocks in
/// element order — the accumulation order (and so the bits) of
/// `ops::mean_all` / `ops::std_all` over the whole column, however the rows
/// are blocked.
fn column_sums(
    features: usize,
    blocks: impl Iterator<Item = Tensor>,
    term: impl Fn(f32, usize) -> f32,
) -> (Vec<f32>, usize) {
    // What `Iterator::sum::<f32>` starts from.
    let mut sums = vec![[0.0f32; 0].iter().sum::<f32>(); features];
    let mut rows = 0usize;
    for block in blocks {
        let block = block.contiguous();
        let data = block.as_slice().expect("contiguous");
        rows += data.len() / features;
        for (f, sum) in sums.iter_mut().enumerate() {
            let column = data.iter().skip(f).step_by(features);
            *sum = column.fold(*sum, |acc, &x| acc + term(x, f));
        }
    }
    (sums, rows)
}

impl StandardScaler {
    /// Fit on a tensor (typically the training portion of the signal).
    ///
    /// For tensors of rank ≥ 2 the trailing dimension is treated as the
    /// feature axis and each feature gets its own statistics; rank-0/1
    /// tensors are a single feature.
    pub fn fit(train: &Tensor) -> Self {
        Self::fit_blocks(features_of(train.dims()), || std::iter::once(train.clone()))
    }

    /// [`StandardScaler::fit`] on rows `rows` of a store, read a bounded
    /// block at a time: a chunked training prefix is never held whole. Same
    /// bits as fitting the materialized range.
    pub fn fit_rows(store: &impl RowStore, rows: Range<usize>) -> Self {
        let step = (FIT_BLOCK_SCALARS / store.row_width()).max(1);
        Self::fit_blocks(features_of(store.dims()), || {
            rows.clone().step_by(step).map(|start| {
                let end = (start + step).min(rows.end);
                store.read_rows_quoted(start..end).0
            })
        })
    }

    /// The two-pass fit — per-feature mean, then per-feature variance about
    /// it — over the blocks `blocks()` yields, in order, once per pass.
    fn fit_blocks<I: Iterator<Item = Tensor>>(features: usize, blocks: impl Fn() -> I) -> Self {
        let (sums, rows) = column_sums(features, blocks(), |x, _| x);
        if rows == 0 {
            return Self::from_feature_stats(vec![(0.0, 1e-6); features]);
        }
        let means: Vec<f32> = sums.iter().map(|s| s / rows as f32).collect();
        let (squares, _) = column_sums(features, blocks(), |x, f| (x - means[f]).powi(2));
        let stds = squares.iter().map(|q| (q / rows as f32).sqrt().max(1e-6));
        Self::from_feature_stats(means.iter().copied().zip(stds).collect())
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
        let f = features_of(x.dims());
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
        self.map_per_feature(x.clone(), |v, (m, s)| (v - m) / s)
    }

    /// [`StandardScaler::transform`] of a tensor the caller gives up: a
    /// contiguous one that nothing else holds is standardized where it
    /// lies, without a copy.
    pub fn transform_owned(&self, x: Tensor) -> Tensor {
        if self.is_scalar() {
            return self.transform(&x);
        }
        self.check_features(&x, "transform");
        self.map_per_feature(x, |v, (m, s)| (v - m) / s)
    }

    /// Undo standardization (used to report MAE in original units).
    pub fn inverse(&self, x: &Tensor) -> Tensor {
        if self.is_scalar() {
            return t::add_scalar(&t::mul_scalar(x, self.std), self.mean);
        }
        self.check_features(x, "inverse");
        self.map_per_feature(x.clone(), |v, (m, s)| v * s + m)
    }

    /// Map a scalar **target-channel** value back to original units.
    pub fn inverse_scalar(&self, v: f32) -> f32 {
        v * self.std + self.mean
    }

    /// `f` over every element of `x` with its feature's statistics, in
    /// `x`'s buffer when nothing else holds it (else in a contiguous copy).
    fn map_per_feature(&self, mut x: Tensor, f: impl Fn(f32, (f32, f32)) -> f32) -> Tensor {
        let features = self.feature_stats.len();
        for row in x.make_mut_contiguous().chunks_exact_mut(features) {
            for (v, &stats) in row.iter_mut().zip(&self.feature_stats) {
                *v = f(*v, stats);
            }
        }
        x
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
    fn transform_owned_matches_transform_in_place() {
        let data: Vec<f32> = (0..12).map(|i| (i * i) as f32 * 0.37).collect();
        let x = Tensor::from_vec(data, [3, 2, 2]).unwrap();
        let s = StandardScaler::fit(&x);
        let want = s.transform(&x).to_vec();
        let unique = Tensor::from_vec(x.to_vec(), [3, 2, 2]).unwrap();
        let ptr = unique.as_slice().unwrap().as_ptr();
        let z = s.transform_owned(unique);
        assert_eq!(z.as_slice().unwrap().as_ptr(), ptr, "no copy");
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&z.to_vec()), bits(&want));
        // A tensor someone else holds is copied, and left as it was.
        let shared = x.clone();
        assert_eq!(bits(&s.transform_owned(shared).to_vec()), bits(&want));
        assert_eq!(x.to_vec()[5], 25.0 * 0.37);
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
    fn one_feature_fit_has_the_bits_of_mean_all_and_std_all() {
        let x = Tensor::from_vec(
            (0..999).map(|i| (i as f32 * 0.37).sin()).collect(),
            [333, 3, 1],
        )
        .unwrap();
        let s = StandardScaler::fit(&x);
        assert_eq!(s.mean.to_bits(), t::mean_all(&x).to_bits());
        assert_eq!(s.std.to_bits(), t::std_all(&x).to_bits());
    }

    #[test]
    fn streamed_fit_is_bit_identical_to_fitting_the_materialized_prefix() {
        use crate::storage::{ChunkedSpec, SignalStorage, StorageSpec};
        // 300 scalars a row: a block is 54 rows, so 500 rows are 10 blocks.
        let vals = (0..700 * 300).map(|i| ((i * 7919) % 1013) as f32 * 0.25 - 90.0);
        let data = Tensor::from_vec(vals.collect(), [700, 150, 2]).unwrap();
        let stores = [
            StorageSpec::InMemory,
            StorageSpec::Chunked(ChunkedSpec::new(64)),
        ]
        .map(|spec| SignalStorage::from_tensor_spec(data.clone(), spec));
        for rows in [0..500usize, 0..700, 0..54, 0..1, 0..0] {
            let want = StandardScaler::fit(&data.narrow(0, rows.start, rows.len()).unwrap());
            for store in &stores {
                let got = StandardScaler::fit_rows(store, rows.clone());
                assert_eq!(got.num_features(), 2);
                for (g, w) in got.feature_stats().iter().zip(want.feature_stats()) {
                    assert_eq!(g.0.to_bits(), w.0.to_bits(), "{rows:?} {:?}", store.spec());
                    assert_eq!(g.1.to_bits(), w.1.to_bits(), "{rows:?} {:?}", store.spec());
                }
            }
        }
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
