//! Weighted directed adjacency matrices for sensor networks.
//!
//! The paper (§2.1) builds the weighted adjacency from sensor coordinates:
//! pairwise distances pass through a Gaussian kernel
//! `w_ij = exp(-d_ij² / σ²)` and weights below a threshold `κ` are dropped —
//! the construction introduced by DCRNN (Li et al. 2018) and reused by PGT.
//! Thresholding leaves road networks 0.1–5 % dense, so the matrix is stored
//! as a [`Csr`]: memory and every derived operator are `O(E)`, not `O(N²)`.

use std::sync::{Arc, OnceLock};

use crate::csr::Csr;

/// Shared weight storage: the non-zero weights plus a lazily-computed
/// content fingerprint used to short-circuit topology comparisons.
#[derive(Debug)]
struct Weights {
    /// Square, exact zeros never stored, columns ascending within a row —
    /// so equal matrices have equal storage.
    csr: Csr,
    fingerprint: OnceLock<u64>,
}

impl Weights {
    /// FNV-1a over every row's length, columns and weight bits, computed
    /// once per buffer.
    fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut word = |x: u64| {
                for b in x.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            for r in 0..self.csr.shape().0 {
                let (cols, values) = self.csr.row_slices(r);
                word(cols.len() as u64);
                cols.iter().for_each(|&c| word(c as u64));
                values.iter().for_each(|&w| word(u64::from(w.to_bits())));
            }
            h
        })
    }
}

/// A weighted directed `N×N` adjacency matrix, stored sparsely.
///
/// Only non-zero weights are kept (CSR, columns ascending), so a graph of
/// `E` edges costs `O(N + E)` memory whatever `N` is. Weight storage is
/// behind an [`Arc`]: clones share the buffer, so a timeline of `T` entries
/// that reuses one topology costs one matrix, and
/// [`Adjacency::same_topology`] answers in O(1) for shared or
/// already-fingerprinted buffers.
#[derive(Debug, Clone)]
pub struct Adjacency {
    weights: Arc<Weights>,
}

impl Adjacency {
    /// Wrap a square CSR whose rows are ascending and hold no exact zero
    /// (what [`Csr::from_dense`] and [`Csr::from_triplets`] produce).
    pub(crate) fn from_csr(csr: Csr) -> Self {
        debug_assert_eq!(csr.shape().0, csr.shape().1, "adjacency must be square");
        Adjacency {
            weights: Arc::new(Weights {
                csr,
                fingerprint: OnceLock::new(),
            }),
        }
    }

    /// Build from a row-major `n×n` weight buffer (exact zeros are "no
    /// edge" and are not stored).
    pub fn from_dense(n: usize, weights: Vec<f32>) -> Self {
        assert_eq!(weights.len(), n * n, "adjacency must be n*n");
        Adjacency::from_csr(Csr::from_dense(n, n, &weights))
    }

    /// Build from directed `(i, j, weight)` edges in any order; duplicate
    /// `(i, j)` entries sum and exact-zero results are "no edge".
    pub fn from_edges(n: usize, edges: &[(usize, usize, f32)]) -> Self {
        Adjacency::from_csr(Csr::from_triplets(n, n, edges))
    }

    /// Gaussian-kernel adjacency from 2-D sensor coordinates.
    ///
    /// `sigma` defaults to the std-dev of the distance distribution when
    /// `None`, matching the DCRNN preprocessing script; weights below
    /// `threshold` are zeroed. `O(N²)` time (every pair is a candidate
    /// edge), `O(E)` memory.
    pub fn from_coordinates(coords: &[(f32, f32)], sigma: Option<f32>, threshold: f32) -> Self {
        let n = coords.len();
        let dist = |i: usize, j: usize| {
            let dx = coords[i].0 - coords[j].0;
            let dy = coords[i].1 - coords[j].1;
            (dx * dx + dy * dy).sqrt()
        };
        let all_pairs = || (0..n).flat_map(|i| (0..n).map(move |j| (i, j)));
        let sigma = sigma.unwrap_or_else(|| {
            let count = (n * n) as f32;
            let mean = all_pairs().map(|(i, j)| dist(i, j)).sum::<f32>() / count;
            let var = all_pairs()
                .map(|(i, j)| (dist(i, j) - mean).powi(2))
                .sum::<f32>()
                / count;
            var.sqrt().max(1e-6)
        });
        let s2 = sigma * sigma;
        let edges: Vec<(usize, usize, f32)> = all_pairs()
            .filter_map(|(i, j)| {
                let d = dist(i, j);
                let w = (-d * d / s2).exp();
                if w < threshold {
                    None
                } else {
                    Some((i, j, w))
                }
            })
            .collect();
        Adjacency::from_edges(n, &edges)
    }

    /// Whether two adjacencies have identical weights, cheaply.
    ///
    /// Checks shared storage first (`Arc` pointer equality — the common
    /// case for frozen-topology timelines), then the cached FNV
    /// fingerprint, and only falls back to a full `O(E)` compare on a
    /// fingerprint collision.
    pub fn same_topology(&self, other: &Adjacency) -> bool {
        if self.num_nodes() != other.num_nodes() {
            return false;
        }
        if Arc::ptr_eq(&self.weights, &other.weights) {
            return true;
        }
        self.weights.fingerprint() == other.weights.fingerprint()
            && self.weights.csr == other.weights.csr
    }

    /// The stored matrix.
    pub(crate) fn csr(&self) -> &Csr {
        &self.weights.csr
    }

    /// Number of graph nodes.
    pub fn num_nodes(&self) -> usize {
        self.csr().shape().0
    }

    /// Weight of edge `i → j` (`0.0` when absent) — a binary search of row
    /// `i`. Walk [`Adjacency::row`] instead of calling this over all pairs.
    pub fn weight(&self, i: usize, j: usize) -> f32 {
        let (cols, values) = self.csr().row_slices(i);
        cols.binary_search(&j).map_or(0.0, |at| values[at])
    }

    /// The out-edges of node `i` as `(j, weight)` pairs, `j` ascending.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.csr().row(i)
    }

    /// Number of non-zero directed edges.
    pub fn num_edges(&self) -> usize {
        self.csr().nnz()
    }

    /// The row-major `n×n` weight buffer — `O(N²)`, for tests only.
    pub fn to_dense(&self) -> Vec<f32> {
        let n = self.num_nodes();
        let mut dense = vec![0.0f32; n * n];
        for i in 0..n {
            for (j, w) in self.row(i) {
                dense[i * n + j] = w;
            }
        }
        dense
    }

    /// Out-degree (row sum) of each node.
    pub fn out_degrees(&self) -> Vec<f32> {
        (0..self.num_nodes())
            .map(|i| self.row(i).fold(0.0, |sum, (_, w)| sum + w))
            .collect()
    }

    /// Transpose (reverse all edges).
    pub fn transpose(&self) -> Adjacency {
        Adjacency::from_csr(self.csr().transpose())
    }

    /// Make the adjacency symmetric by averaging with its transpose.
    pub fn symmetrized(&self) -> Adjacency {
        let mut edges = Vec::with_capacity(2 * self.num_edges());
        self.zip_transpose(|i, j, w, back| edges.push((i, j, 0.5 * (w + back))));
        Adjacency::from_edges(self.num_nodes(), &edges)
    }

    /// Visit every `(i, j)` where `w(i, j)` or `w(j, i)` is stored, with
    /// both weights (`0.0` for the absent one), `i` then `j` ascending.
    pub(crate) fn zip_transpose(&self, mut visit: impl FnMut(usize, usize, f32, f32)) {
        let t = self.csr().transpose();
        for i in 0..self.num_nodes() {
            merge_ascending(self.row(i), t.row(i), |j, w, back| visit(i, j, w, back));
        }
    }
}

/// Merge two `(index, weight)` sequences, each ascending by index: visit
/// every index either holds, ascending, with both weights (`0.0` for the
/// side that lacks it).
pub(crate) fn merge_ascending(
    a: impl Iterator<Item = (usize, f32)>,
    b: impl Iterator<Item = (usize, f32)>,
    mut visit: impl FnMut(usize, f32, f32),
) {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    loop {
        let at = match (a.peek(), b.peek()) {
            (Some(&(x, _)), Some(&(y, _))) => x.min(y),
            (Some(&(x, _)), None) | (None, Some(&(x, _))) => x,
            (None, None) => break,
        };
        let wa = a.next_if(|&(x, _)| x == at).map_or(0.0, |(_, w)| w);
        let wb = b.next_if(|&(y, _)| y == at).map_or(0.0, |(_, w)| w);
        visit(at, wa, wb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_kernel_properties() {
        let coords = vec![(0.0, 0.0), (1.0, 0.0), (10.0, 0.0)];
        let adj = Adjacency::from_coordinates(&coords, Some(2.0), 0.01);
        // Self-distance 0 → weight 1.
        assert!((adj.weight(0, 0) - 1.0).abs() < 1e-6);
        // Closer pairs have higher weight.
        assert!(adj.weight(0, 1) > adj.weight(0, 2));
        // Distance 10 with sigma 2 → weight e^{-25} ≈ 0, thresholded away.
        assert_eq!(adj.weight(0, 2), 0.0);
    }

    #[test]
    fn auto_sigma_is_positive_and_produces_edges() {
        let coords: Vec<(f32, f32)> = (0..10).map(|i| (i as f32, 0.0)).collect();
        let adj = Adjacency::from_coordinates(&coords, None, 0.1);
        assert!(adj.num_edges() >= 10, "at least the self-loops survive");
    }

    #[test]
    fn transpose_reverses_edges() {
        let adj = Adjacency::from_dense(2, vec![0.0, 1.0, 0.0, 0.0]);
        let t = adj.transpose();
        assert_eq!(t.weight(1, 0), 1.0);
        assert_eq!(t.weight(0, 1), 0.0);
    }

    #[test]
    fn symmetrize_averages() {
        let adj = Adjacency::from_dense(2, vec![0.0, 2.0, 0.0, 0.0]);
        let s = adj.symmetrized();
        assert_eq!(s.weight(0, 1), 1.0);
        assert_eq!(s.weight(1, 0), 1.0);
    }

    #[test]
    fn same_topology_shares_and_compares() {
        let a = Adjacency::from_dense(2, vec![1.0, 2.0, 3.0, 4.0]);
        let clone = a.clone(); // shared Arc — pointer-equality fast path
        assert!(a.same_topology(&clone));
        let rebuilt = Adjacency::from_dense(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert!(
            a.same_topology(&rebuilt),
            "equal contents, distinct buffers"
        );
        let other = Adjacency::from_dense(2, vec![1.0, 2.0, 3.0, 5.0]);
        assert!(!a.same_topology(&other));
        let smaller = Adjacency::from_dense(1, vec![1.0]);
        assert!(!a.same_topology(&smaller));
    }

    #[test]
    fn only_non_zeros_are_stored_whatever_the_constructor() {
        let dense = vec![0.0, 2.0, -0.0, 0.5, 0.0, 0.0, 0.0, 1.0, 3.0];
        let a = Adjacency::from_dense(3, dense.clone());
        assert_eq!(a.num_edges(), 4);
        assert_eq!(a.row(0).collect::<Vec<_>>(), vec![(1, 2.0)]);
        assert_eq!(a.row(2).collect::<Vec<_>>(), vec![(1, 1.0), (2, 3.0)]);
        assert_eq!(a.weight(1, 2), 0.0, "absent edges read as zero");
        assert_eq!(a.to_dense(), dense, "-0.0 == 0.0");
        // Any edge order, duplicates summed, cancelled pairs dropped.
        let edges = [
            (2, 2, 3.0),
            (0, 1, 1.5),
            (1, 0, 0.5),
            (2, 0, 1.0),
            (0, 1, 0.5),
            (2, 1, 1.0),
            (2, 0, -1.0),
        ];
        assert!(a.same_topology(&Adjacency::from_edges(3, &edges)));
    }

    #[test]
    fn degrees_sum_rows() {
        let adj = Adjacency::from_dense(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(adj.out_degrees(), vec![3.0, 7.0]);
    }
}
