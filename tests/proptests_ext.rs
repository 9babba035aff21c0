//! Property-based tests for the §7 extension subsystems: graph
//! partitioning laws, checkpoint round-trips, the common-round collective
//! guard, data-distribution policies, and prefetch exposure algebra.

use pgt_i::autograd::{Checkpoint, Param, StateDict};
use pgt_i::dist::datasvc::PartitionPolicy;
use pgt_i::dist::shuffle::{common_rounds, contiguous_partition, range_overlap};
use pgt_i::graph::partition::{
    halo_nodes, GraphDelta, HaloCostModel, IncrementalConfig, IncrementalPartitioner, Partitioning,
    SparseGraph,
};
use pgt_i::graph::Adjacency;
use pgt_i::tensor::Tensor;
use proptest::prelude::*;
use std::collections::HashSet;

/// Random sparse adjacency over `n` nodes (ring + random chords so the
/// graph stays connected).
fn arb_adjacency() -> impl Strategy<Value = Adjacency> {
    (4usize..20, any::<u64>()).prop_map(|(n, seed)| {
        let mut w = vec![0.0f32; n * n];
        for i in 0..n {
            w[i * n + (i + 1) % n] = 1.0;
            w[((i + 1) % n) * n + i] = 1.0;
        }
        let mut state = seed | 1;
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let i = (state % n as u64) as usize;
            let j = ((state >> 16) % n as u64) as usize;
            if i != j {
                w[i * n + j] = 1.0;
            }
        }
        Adjacency::from_dense(n, w)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every partitioner must produce a disjoint cover of all nodes.
    #[test]
    fn partitioners_cover_disjointly(adj in arb_adjacency(), k in 1usize..5) {
        let n = adj.num_nodes();
        let k = k.min(n);
        for p in [
            Partitioning::contiguous(n, k),
            Partitioning::greedy_bfs(&adj, k),
            Partitioning::multilevel(&adj, k),
        ] {
            let mut seen = HashSet::new();
            for part in 0..k {
                for node in p.part_nodes(part) {
                    prop_assert!(seen.insert(node), "node {node} assigned twice");
                }
            }
            prop_assert_eq!(seen.len(), n, "all nodes covered");
        }
    }

    /// Multilevel output is a valid **balanced** partition: all nodes
    /// covered exactly once, no empty part, and every part within the
    /// 1.15 balance tolerance of `⌈n/k⌉` (the rebalance step's cap).
    #[test]
    fn multilevel_is_a_valid_balanced_partition(adj in arb_adjacency(), k in 2usize..6) {
        let n = adj.num_nodes();
        let k = k.min(n);
        let p = Partitioning::multilevel(&adj, k);
        prop_assert_eq!(p.num_parts(), k);
        let sizes = p.part_sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), n, "all nodes covered");
        prop_assert!(sizes.iter().all(|&s| s > 0), "no empty part: {:?}", sizes);
        let cap = ((n.div_ceil(k) as f64) * 1.15).ceil() as usize;
        prop_assert!(
            sizes.iter().all(|&s| s <= cap.max(n.div_ceil(k))),
            "sizes {:?} exceed cap {} (n={}, k={})", sizes, cap, n, k
        );
    }

    /// Refinement is monotone in the halo-cost score: the refinement core
    /// multilevel runs at every level, reached here through the
    /// incremental repair, never scores worse than the partition it starts
    /// from — an unrefined region growing or multilevel's own output. A
    /// delta re-setting every edge to its weight leaves the graph as it is
    /// and marks every node dirty, so the repair is a pure refinement.
    #[test]
    fn multilevel_refinement_never_worsens_halo_cost(adj in arb_adjacency(), k in 2usize..6) {
        let k = k.min(adj.num_nodes());
        let graph = SparseGraph::from_adjacency(&adj);
        let edges: Vec<(usize, usize, f32)> = (0..graph.num_nodes())
            .flat_map(|u| graph.neighbors(u).iter().map(move |&(v, w)| (u, v, w)))
            .filter(|&(u, v, _)| u < v)
            .collect();
        let touch_all = GraphDelta { added_nodes: 0, edges };
        let cost = HaloCostModel::new(12, 2);
        let cfg = IncrementalConfig { cost, ..IncrementalConfig::default() };
        for start in [Partitioning::greedy_bfs(&adj, k), Partitioning::multilevel(&adj, k)] {
            let mut inc = IncrementalPartitioner::seed(graph.clone(), &start, cfg);
            let stats = inc.apply_delta(&touch_all);
            let refined = inc.partitioning();
            prop_assert!(!stats.rebuilt, "a pure refinement never drifts");
            prop_assert!(
                cost.halo_bytes(&adj, &refined) <= cost.halo_bytes(&adj, &start),
                "refined {} > unrefined {}",
                cost.halo_bytes(&adj, &refined),
                cost.halo_bytes(&adj, &start)
            );
        }
    }

    /// The halo cost model is consistent with its own pieces: bytes =
    /// cut_neighbors × (2h − 1) × row_bytes, zero only when nothing is
    /// cut, and monotone in the horizon.
    #[test]
    fn halo_cost_model_algebra(adj in arb_adjacency(), k in 2usize..5, h in 1usize..13) {
        let p = Partitioning::greedy_bfs(&adj, k.min(adj.num_nodes()));
        let cost = HaloCostModel::new(h, 2);
        let bytes = cost.halo_bytes(&adj, &p);
        let replicas = p.cut_neighbors(&adj) as u64;
        prop_assert_eq!(bytes, replicas * (2 * h as u64 - 1) * 8);
        prop_assert_eq!(bytes == 0, replicas == 0);
        let deeper = HaloCostModel::new(h + 1, 2);
        prop_assert!(deeper.halo_bytes(&adj, &p) >= bytes, "monotone in horizon");
    }

    /// The cut fraction is a fraction, and a 1-way "partitioning" cuts
    /// nothing.
    #[test]
    fn cut_fraction_bounds(adj in arb_adjacency(), k in 2usize..5) {
        let n = adj.num_nodes();
        let p = Partitioning::greedy_bfs(&adj, k.min(n));
        let f = p.cut_fraction(&adj);
        prop_assert!((0.0..=1.0).contains(&f), "cut fraction {f}");
        let whole = Partitioning::contiguous(n, 1);
        prop_assert_eq!(whole.cut_fraction(&adj), 0.0);
    }

    /// Halos are monotone in depth, disjoint from the owned set, and the
    /// full-graph owned set has an empty halo.
    #[test]
    fn halo_laws(adj in arb_adjacency(), depth in 0usize..4) {
        let n = adj.num_nodes();
        let owned: Vec<usize> = (0..n / 2).collect();
        let h_d = halo_nodes(&adj, &owned, depth);
        let h_d1 = halo_nodes(&adj, &owned, depth + 1);
        prop_assert!(h_d.len() <= h_d1.len(), "halo monotone in depth");
        prop_assert!(h_d.iter().all(|x| !owned.contains(x)));
        let all: Vec<usize> = (0..n).collect();
        prop_assert!(halo_nodes(&adj, &all, depth).is_empty());
    }

    /// `common_rounds` dominates every rank's own batch count (no rank can
    /// run out of collectives) and is tight (some rank needs all rounds).
    #[test]
    fn common_rounds_dominates_and_is_tight(
        n in 1usize..500, world in 1usize..9, batch in 1usize..17
    ) {
        let per_rank: Vec<usize> =
            (0..world).map(|r| contiguous_partition(n, world, r).len()).collect();
        let rounds = common_rounds(per_rank.clone(), batch);
        for &samples in &per_rank {
            prop_assert!(samples.div_ceil(batch) <= rounds);
        }
        prop_assert!(per_rank.iter().any(|&s| s.div_ceil(batch) == rounds));
    }

    /// Range overlap is symmetric, bounded by both lengths, and exact on
    /// nested ranges.
    #[test]
    fn range_overlap_laws(a in 0usize..50, b in 0usize..50, c in 0usize..50, d in 0usize..50) {
        let r1 = a.min(b)..a.max(b);
        let r2 = c.min(d)..c.max(d);
        let o = range_overlap(&r1, &r2);
        prop_assert_eq!(o, range_overlap(&r2, &r1), "symmetric");
        prop_assert!(o <= r1.len() && o <= r2.len());
        let brute = r1.clone().filter(|x| r2.contains(x)).count();
        prop_assert_eq!(o, brute, "matches brute force");
    }

    /// Every ownership policy assigns every row to a valid rank, and the
    /// contiguous policy matches `contiguous_partition`.
    #[test]
    fn ownership_policies_are_total(rows in 1usize..200, world in 1usize..9) {
        for policy in [PartitionPolicy::Contiguous, PartitionPolicy::Strided] {
            for idx in 0..rows {
                let o = policy.owner_of(idx, rows, world);
                prop_assert!(o < world);
            }
        }
        for rank in 0..world {
            for idx in contiguous_partition(rows, world, rank) {
                prop_assert_eq!(
                    PartitionPolicy::Contiguous.owner_of(idx, rows, world),
                    rank
                );
            }
        }
    }

    /// State dicts round-trip bit-exactly through the binary format for
    /// arbitrary shapes and names.
    #[test]
    fn checkpoint_roundtrip(
        dims in proptest::collection::vec(1usize..5, 1..4),
        seed in any::<u64>(),
        epoch in any::<u64>(),
    ) {
        let numel: usize = dims.iter().product();
        let mut state = seed | 1;
        let vals: Vec<f32> = (0..numel)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f32::from_bits((state as u32 & 0x3f7f_ffff) | 0x3f00_0000) // finite, sane
            })
            .collect();
        let t = Tensor::from_vec(vals.clone(), dims.clone()).unwrap();
        let p = Param::new("w", t);
        let opt = pgt_i::autograd::optim::Adam::new(vec![p.clone()], 0.01);
        let ck = Checkpoint::capture(&[p], &opt, epoch);
        let restored = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        prop_assert_eq!(restored.epoch, epoch);
        let rt = restored.model.get("0.w").unwrap();
        prop_assert_eq!(rt.to_vec(), vals);
        prop_assert_eq!(rt.dims(), &dims[..]);
    }

    /// Arbitrary state dicts reject truncation at any point (never panic,
    /// never accept).
    #[test]
    fn truncated_checkpoints_rejected(cut_frac in 0.1f64..0.98) {
        let mut d = StateDict::new();
        d.insert("a", Tensor::ones([3, 2]));
        d.insert("b", Tensor::zeros([5]));
        let bytes = d.to_bytes();
        let cut = ((bytes.len() as f64 * cut_frac) as usize).max(1).min(bytes.len() - 1);
        prop_assert!(StateDict::from_bytes(&bytes[..cut]).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pipelined engine's determinism invariant: bucketed gradient
    /// all-reduce (any byte cap, any firing order, any missing-grad
    /// pattern, any world size) equals the flat rank-order mean
    /// **bit-for-bit** — an element-wise rank-order mean cannot observe
    /// how the flat buffer was split. The flat side is plain arithmetic
    /// over the gradients each rank held, not a second production path.
    #[test]
    fn bucketed_all_reduce_equals_flat(
        shapes in proptest::collection::vec(1usize..24, 1..6),
        cap_words in 1usize..64,
        world in 2usize..5,
        missing in any::<u64>(),
        seed in any::<u32>(),
    ) {
        use pgt_i::dist::launch::run_workers;
        use pgt_i::dist::topology::ClusterTopology;
        use pgt_i::dist::GradBuckets;

        let shapes = shapes.clone();
        let out = run_workers(world, ClusterTopology::polaris(), move |mut ctx| {
            let rank = ctx.rank();
            let ps: Vec<Param> = shapes
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    let p = Param::new(format!("p.{i}"), Tensor::zeros([n]));
                    // Deterministic rank-dependent grads; one bit of
                    // `missing` decides whether this rank skips this
                    // param (an exhausted rank meeting the collective).
                    if missing >> ((rank * shapes.len() + i) % 64) & 1 == 0 {
                        let vals: Vec<f32> = (0..n)
                            .map(|j| {
                                let h = (seed as u64)
                                    .wrapping_mul(6364136223846793005)
                                    .wrapping_add((rank * 7919 + i * 131 + j) as u64);
                                ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
                            })
                            .collect();
                        p.set_grad(Some(Tensor::from_vec(vals, [n]).unwrap()));
                    }
                    p
                })
                .collect();
            // This rank's contribution, flattened; a missing grad is zeros.
            let local: Vec<f32> = ps
                .iter()
                .flat_map(|p| p.grad().map_or(vec![0.0; p.numel()], |g| g.to_vec()))
                .collect();

            let mut rev = ps.clone();
            rev.reverse();
            let mut buckets = GradBuckets::new(rev, cap_words * 4);
            for i in 0..buckets.num_buckets() {
                buckets.reduce_bucket_quoted(i, &mut ctx.comm);
            }
            let reduced: Vec<u32> = ps
                .iter()
                .flat_map(|p| p.grad().expect("all params synced").to_vec())
                .map(f32::to_bits)
                .collect();
            (local, reduced)
        });
        // The flat reference: sum the ranks' contributions in rank order
        // from zero, then divide by the world size.
        let flat: Vec<u32> = (0..out[0].0.len())
            .map(|j| {
                let sum = out.iter().fold(0.0f32, |acc, (local, _)| acc + local[j]);
                (sum / world as f32).to_bits()
            })
            .collect();
        for (rank, (_, bucketed)) in out.into_iter().enumerate() {
            prop_assert_eq!(
                &flat, &bucketed,
                "rank {} diverged (cap {} B, world {})", rank, cap_words * 4, world
            );
        }
    }
}
