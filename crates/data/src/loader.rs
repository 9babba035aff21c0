//! Minibatch iteration over snapshot indices.
//!
//! [`Batcher`] is the standard loader: shuffled index order, last partial
//! batch kept. [`PaddedBatcher`] mimics the *original DCRNN* dataloader,
//! which (a) keeps an extra full copy of the dataset and (b) pads the final
//! batch by duplicating samples so every batch has identical size — the
//! behavior §3.2 identifies as the source of DCRNN's extra ~100 GB of
//! host memory versus PGT-DCRNN.

use st_tensor::random::permutation;

/// Yields index slices of size ≤ `batch_size` over `n` samples.
#[derive(Debug, Clone)]
pub struct Batcher {
    indices: Vec<usize>,
    batch_size: usize,
}

impl Batcher {
    /// Sequential (unshuffled) batcher over `indices`.
    pub fn sequential(indices: Vec<usize>, batch_size: usize) -> Self {
        assert!(batch_size > 0);
        Batcher {
            indices,
            batch_size,
        }
    }

    /// Shuffled batcher: a seeded permutation of `indices` per epoch.
    ///
    /// The permutation is applied in place by walking its cycles (the perm
    /// vector doubles as the visited scratch), so no second copy of the
    /// index vector is ever allocated.
    pub fn shuffled(mut indices: Vec<usize>, batch_size: usize, seed: u64, epoch: u64) -> Self {
        let mut perm = permutation(indices.len(), seed, epoch);
        let n = perm.len();
        // Realize out[i] = in[perm[i]] cycle by cycle: each swap deposits the
        // element destined for slot `x` while carrying `in[x]` onward along
        // the cycle; `perm[x] = n` marks slots already finalized.
        for i in 0..n {
            if perm[i] >= n {
                continue;
            }
            let mut x = i;
            loop {
                let next = perm[x];
                perm[x] = n;
                if next == i {
                    break;
                }
                indices.swap(x, next);
                x = next;
            }
        }
        Batcher {
            indices,
            batch_size,
        }
    }

    /// The batches, in order.
    pub fn batches(&self) -> impl Iterator<Item = &[usize]> {
        self.indices.chunks(self.batch_size)
    }

    /// Number of batches (last may be partial).
    pub fn num_batches(&self) -> usize {
        self.indices.len().div_ceil(self.batch_size)
    }

    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// DCRNN-style padded loader: duplicates trailing samples so every batch is
/// exactly `batch_size` long. Reports how many bytes of duplication that
/// implies (the memory-accounting hook for Table 2 / Fig 2).
#[derive(Debug, Clone)]
pub struct PaddedBatcher {
    inner: Batcher,
    padding: usize,
}

impl PaddedBatcher {
    /// Pad `indices` to a multiple of `batch_size` by repeating the final
    /// sample (as `np.repeat(x[-1:], ...)` does in the reference loader).
    pub fn new(mut indices: Vec<usize>, batch_size: usize, seed: u64, epoch: u64) -> Self {
        assert!(batch_size > 0);
        let rem = indices.len() % batch_size;
        let padding = if rem == 0 { 0 } else { batch_size - rem };
        if let Some(&last) = indices.last() {
            for _ in 0..padding {
                indices.push(last);
            }
        }
        let inner = Batcher::shuffled(indices, batch_size, seed, epoch);
        PaddedBatcher { inner, padding }
    }

    /// The padded batches — all exactly `batch_size` long.
    pub fn batches(&self) -> impl Iterator<Item = &[usize]> {
        self.inner.batches()
    }

    /// Number of synthetic (duplicated) samples appended.
    pub fn padding(&self) -> usize {
        self.padding
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_batches_cover_in_order() {
        let b = Batcher::sequential((0..7).collect(), 3);
        let batches: Vec<Vec<usize>> = b.batches().map(|s| s.to_vec()).collect();
        assert_eq!(batches, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
        assert_eq!(b.num_batches(), 3);
    }

    #[test]
    fn shuffled_is_permutation_and_epoch_varies() {
        let b1 = Batcher::shuffled((0..100).collect(), 10, 42, 0);
        let b2 = Batcher::shuffled((0..100).collect(), 10, 42, 0);
        let b3 = Batcher::shuffled((0..100).collect(), 10, 42, 1);
        let flat = |b: &Batcher| -> Vec<usize> { b.batches().flatten().copied().collect() };
        assert_eq!(flat(&b1), flat(&b2));
        assert_ne!(flat(&b1), flat(&b3));
        let mut sorted = flat(&b1);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn in_place_shuffle_matches_mapped_copy() {
        // The cycle-walking in-place application must equal the obvious
        // out[i] = in[perm[i]] map — including over non-identity inputs
        // (distributed ranks shuffle their own stripe of global indices).
        for (n, seed, epoch) in [(1usize, 3u64, 0u64), (2, 3, 1), (17, 9, 4), (100, 42, 7)] {
            let input: Vec<usize> = (0..n).map(|i| 1000 + 3 * i).collect();
            let b = Batcher::shuffled(input.clone(), 8, seed, epoch);
            let perm = permutation(n, seed, epoch);
            let want: Vec<usize> = perm.iter().map(|&p| input[p]).collect();
            let got: Vec<usize> = b.batches().flatten().copied().collect();
            assert_eq!(got, want, "n={n} seed={seed} epoch={epoch}");
        }
    }

    #[test]
    fn padded_batches_all_full() {
        let p = PaddedBatcher::new((0..10).collect(), 4, 7, 0);
        assert_eq!(p.padding(), 2);
        assert!(p.batches().all(|b| b.len() == 4));
        let total: usize = p.batches().map(<[usize]>::len).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn padded_no_padding_when_divisible() {
        let p = PaddedBatcher::new((0..8).collect(), 4, 7, 0);
        assert_eq!(p.padding(), 0);
    }
}
