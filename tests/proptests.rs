//! Property-based tests (proptest) on the core invariants:
//! index-batching ≡ sliding-window materialization for arbitrary shapes,
//! shuffle-stripe partition laws, CSR algebra, and the memory formulas.

use pgt_i::core::IndexDataset;
use pgt_i::data::preprocess::{materialized_bytes, materialized_xy, num_snapshots};
use pgt_i::data::signal::StaticGraphTemporalSignal;
use pgt_i::data::splits::SplitRatios;
use pgt_i::dist::shuffle::{contiguous_partition, global_stripe};
use pgt_i::graph::transition::{random_walk, reverse_random_walk};
use pgt_i::graph::{diffusion_supports, Adjacency, Csr};
use pgt_i::tensor::Tensor;
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_signal() -> impl Strategy<Value = (StaticGraphTemporalSignal, usize)> {
    // entries 14..60, nodes 1..6, features 1..3, horizon 2..5 with
    // entries > 2*horizon so at least one snapshot exists.
    (2usize..5).prop_flat_map(|horizon| {
        (
            (2 * horizon + 2)..60usize,
            1usize..6,
            1usize..3,
            any::<u32>(),
        )
            .prop_map(move |(entries, nodes, features, seed)| {
                let mut vals = Vec::with_capacity(entries * nodes * features);
                let mut state = seed as u64 | 1;
                for _ in 0..entries * nodes * features {
                    // xorshift for cheap deterministic data
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    vals.push((state % 1000) as f32 / 100.0);
                }
                let adj = Adjacency::from_dense(nodes, vec![1.0; nodes * nodes]);
                let data = Tensor::from_vec(vals, [entries, nodes, features]).unwrap();
                (StaticGraphTemporalSignal::new(data, adj), horizon)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every index-batching snapshot equals its Algorithm-1 counterpart,
    /// for arbitrary entries/nodes/features/horizon.
    #[test]
    fn index_equals_materialized((sig, horizon) in arb_signal()) {
        let out = materialized_xy(&sig, horizon, SplitRatios::default());
        let ds = IndexDataset::from_signal(&sig, horizon, SplitRatios::default(), None);
        prop_assert_eq!(ds.num_snapshots(), out.x.dim(0));
        for i in 0..ds.num_snapshots() {
            let (x, y) = ds.snapshot(i);
            let xi = ds.scaler().inverse(&x);
            let yi = ds.scaler().inverse(&y);
            let xm = out.scaler.inverse(&out.x.select(0, i).unwrap());
            let ym = out.scaler.inverse(&out.y.select(0, i).unwrap());
            prop_assert!(xi.allclose(&xm, 1e-3), "x snapshot {} differs", i);
            prop_assert!(yi.allclose(&ym, 1e-3), "y snapshot {} differs", i);
        }
    }

    /// eq. (1) always equals the true materialized byte count.
    #[test]
    fn eq1_matches_materialization((sig, horizon) in arb_signal()) {
        let out = materialized_xy(&sig, horizon, SplitRatios::default());
        let actual = ((out.x.numel() + out.y.numel()) * 8) as u64;
        let formula = materialized_bytes(
            sig.entries(),
            horizon,
            sig.num_nodes(),
            sig.num_features(),
            8,
        );
        prop_assert_eq!(actual, formula);
    }

    /// Batch assembly equals per-snapshot assembly for arbitrary id sets.
    #[test]
    fn batch_equals_snapshots(
        (sig, horizon) in arb_signal(),
        picks in proptest::collection::vec(0usize..1000, 1..6),
    ) {
        let ds = IndexDataset::from_signal(&sig, horizon, SplitRatios::default(), None);
        let n = ds.num_snapshots();
        let ids: Vec<usize> = picks.into_iter().map(|p| p % n).collect();
        let (bx, by) = ds.batch(&ids);
        for (row, &i) in ids.iter().enumerate() {
            let (x, y) = ds.snapshot(i);
            prop_assert_eq!(bx.select(0, row).unwrap().to_vec(), x.to_vec());
            prop_assert_eq!(by.select(0, row).unwrap().to_vec(), y.to_vec());
        }
    }

    /// Global-stripe shuffling: stripes are disjoint, ragged by at most
    /// one (the first n % world ranks take the extra), inside bounds, and
    /// cover **all** n samples — no dropped permutation tail.
    #[test]
    fn global_stripes_partition(
        n in 8usize..500,
        world in 1usize..9,
        seed in any::<u64>(),
        epoch in 0u64..50,
    ) {
        let mut seen = HashSet::new();
        for rank in 0..world {
            let stripe = global_stripe(n, world, rank, seed, epoch);
            prop_assert_eq!(stripe.len(), contiguous_partition(n, world, rank).len());
            for idx in stripe {
                prop_assert!(idx < n);
                prop_assert!(seen.insert(idx), "duplicate {}", idx);
            }
        }
        prop_assert_eq!(seen.len(), n);
    }

    /// Contiguous partitions tile the range exactly.
    #[test]
    fn partitions_tile(n in 1usize..1000, world in 1usize..17) {
        let mut cursor = 0usize;
        for rank in 0..world {
            let part = contiguous_partition(n, world, rank);
            prop_assert_eq!(part.start, cursor.min(n));
            cursor = part.end;
        }
        prop_assert_eq!(cursor, n);
    }

    /// CSR: dense→sparse→dense roundtrip and spmm ≡ dense matmul.
    #[test]
    fn csr_roundtrip_and_spmm(
        rows in 1usize..8,
        cols in 1usize..8,
        inner in 1usize..5,
        seed in any::<u32>(),
    ) {
        let mut state = seed as u64 | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(3) { 0.0 } else { (state % 100) as f32 / 10.0 }
        };
        let dense: Vec<f32> = (0..rows * cols).map(|_| next()).collect();
        let m = Csr::from_dense(rows, cols, &dense);
        prop_assert_eq!(m.to_dense().to_vec(), dense.clone());

        let x: Vec<f32> = (0..cols * inner).map(|_| next()).collect();
        let xt = Tensor::from_vec(x, [cols, inner]).unwrap();
        let sparse = m.spmm(&xt).unwrap();
        let dense_t = Tensor::from_vec(dense, [rows, cols]).unwrap();
        let reference = pgt_i::tensor::ops::matmul(&dense_t, &xt).unwrap();
        prop_assert!(sparse.allclose(&reference, 1e-4));
    }

    /// Diffusion supports from sparse powers are bit-identical to the dense
    /// route they replaced (each power a CSR × dense product refolded to
    /// CSR), on random directed weighted graphs at K = 1–4.
    #[test]
    fn sparse_diffusion_powers_equal_the_dense_route(
        n in 1usize..10,
        k in 1usize..5,
        seed in any::<u32>(),
    ) {
        let mut state = seed as u64 | 1;
        let weights: Vec<f32> = (0..n * n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(3) { (state % 97 + 1) as f32 / 13.0 } else { 0.0 }
            })
            .collect();
        let adj = Adjacency::from_dense(n, weights);
        let sparse = diffusion_supports(&adj, k);
        let dense = dense_route_supports(&adj, k);
        prop_assert_eq!(sparse.len(), dense.len());
        for (i, (s, d)) in sparse.iter().zip(&dense).enumerate() {
            prop_assert_eq!(csr_bits(s), csr_bits(d), "n {} K {} support {}", n, k, i);
        }
    }

    /// num_snapshots formula: consistent with window enumeration.
    #[test]
    fn snapshot_count_formula(entries in 1usize..200, horizon in 1usize..12) {
        let s = num_snapshots(entries, horizon);
        // Count valid window starts directly: x needs [i, i+h), y needs
        // [i+h, i+2h), so i + 2h must not exceed the series.
        let direct = (0..entries)
            .filter(|&i| i + 2 * horizon <= entries)
            .count();
        prop_assert_eq!(s, direct, "formula vs direct window enumeration");
    }
}

/// `diffusion_supports` as it was before sparse powers: each power a CSR ×
/// dense product with an N×N intermediate, refolded to CSR.
fn dense_route_supports(adj: &Adjacency, k: usize) -> Vec<Csr> {
    let n = adj.num_nodes();
    let mut supports = vec![Csr::identity(n)];
    if k == 1 {
        return supports;
    }
    for base in [random_walk(adj), reverse_random_walk(adj)] {
        let mut power = base.clone();
        supports.push(base.clone());
        for _ in 2..k {
            let dense = power.spmm(&base.to_dense()).unwrap();
            power = Csr::from_dense(n, n, &dense.to_vec());
            supports.push(power.clone());
        }
    }
    supports
}

/// Every stored entry as `(row, col, value bits)`, in storage order.
fn csr_bits(m: &Csr) -> Vec<(usize, usize, u32)> {
    (0..m.shape().0)
        .flat_map(|r| m.row(r).map(move |(c, v)| (r, c, v.to_bits())))
        .collect()
}
