//! Minibatch iteration over snapshot indices.
//!
//! [`Batcher`] is the one loader: shuffled index order, last partial batch
//! kept. The *original DCRNN* loader's padded duplication (§3.2's extra
//! ~100 GB of host memory) is priced, not run: see
//! `pgt_index::memory_model::LoaderVariant::DcrnnPadded`.

use st_tensor::random::permutation;

/// Yields index slices of size ≤ `batch_size` over `n` samples.
#[derive(Debug, Clone)]
pub struct Batcher {
    indices: Vec<usize>,
    batch_size: usize,
}

impl Batcher {
    /// Shuffled batcher: a seeded permutation of `indices` per epoch. A
    /// `batch_size` of 0 means 1, as everywhere a training run batches.
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
            batch_size: batch_size.max(1),
        }
    }

    /// The batches, in order.
    pub fn batches(&self) -> impl Iterator<Item = &[usize]> {
        self.indices.chunks(self.batch_size)
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
