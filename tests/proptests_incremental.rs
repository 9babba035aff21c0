//! Property-based tests for incremental dirty-boundary re-partitioning:
//! empty deltas are bit-identical no-ops, repairs hold balance and exact
//! cut state across arbitrary mutation sequences, and the drift invariant
//! bounds modeled halo bytes.

use pgt_i::graph::partition::incremental::{
    GraphDelta, IncrementalConfig, IncrementalPartitioner, SparseGraph,
};
use proptest::prelude::*;
use proptest::strategy::Just;

/// An arbitrary sparse graph: `n` nodes, a connected ring backbone (so
/// region growing always covers), plus random chords.
fn arb_graph() -> impl Strategy<Value = SparseGraph> {
    (6usize..28, any::<u64>()).prop_map(|(n, seed)| {
        let mut edges: Vec<(usize, usize, f32)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        let mut state = seed | 1;
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state % n as u64) as usize;
            let v = ((state >> 17) % n as u64) as usize;
            if u != v {
                edges.push((u, v, 0.5 + (state % 4) as f32 * 0.5));
            }
        }
        SparseGraph::from_edges(n, &edges)
    })
}

/// An arbitrary mutation sequence over a graph that starts at `n` nodes:
/// each delta mixes edge updates (add / reweight / remove) with occasional
/// node arrivals, and may reference its own arrivals.
fn arb_deltas(n: usize) -> impl Strategy<Value = Vec<GraphDelta>> {
    proptest::collection::vec(
        (
            0usize..2, // nodes arriving with this delta
            proptest::collection::vec((any::<u32>(), 0usize..3), 1..8),
        ),
        1..6,
    )
    .prop_map(move |raw| {
        let mut nodes = n;
        raw.into_iter()
            .map(|(added, ops)| {
                let reach = nodes + added;
                let edges = ops
                    .into_iter()
                    .filter_map(|(pick, kind)| {
                        let u = pick as usize % reach;
                        let v = (pick as usize / reach) % reach;
                        let w = [0.0, 0.75, 1.5][kind];
                        (u != v).then_some((u, v, w))
                    })
                    .collect();
                nodes += added;
                GraphDelta {
                    added_nodes: added,
                    edges,
                }
            })
            .collect()
    })
}

/// A graph plus a mutation sequence sized to it.
fn arb_graph_and_deltas() -> impl Strategy<Value = (SparseGraph, Vec<GraphDelta>)> {
    arb_graph().prop_flat_map(|g| {
        let n = g.num_nodes();
        (Just(g), arb_deltas(n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An empty delta is a bit-identical no-op: assignment, cut state,
    /// and modeled halo bytes all unchanged, and nothing is rebuilt.
    #[test]
    fn empty_delta_is_identity(g in arb_graph(), k in 2usize..5) {
        let mut inc = IncrementalPartitioner::partition_fresh(
            g, k, IncrementalConfig::default(),
        );
        let before_assignment = inc.assignment().to_vec();
        let before_halo = inc.halo_bytes();
        let stats = inc.apply_delta(&GraphDelta::default());
        prop_assert!(!stats.rebuilt);
        prop_assert_eq!(stats.moves, 0);
        prop_assert_eq!(stats.dirty_nodes, 0);
        prop_assert_eq!(inc.assignment(), &before_assignment[..]);
        prop_assert_eq!(inc.halo_bytes(), before_halo);
    }

    /// Across arbitrary mutation sequences the repair keeps (a) every part
    /// within the configured balance cap, (b) the incrementally-maintained
    /// cut state exactly equal to a dense recompute, and (c) modeled halo
    /// bytes within `(1 + drift) ×` the last full solve — the drift
    /// invariant the fallback enforces.
    #[test]
    fn repair_holds_balance_cut_state_and_drift(
        (g, deltas) in arb_graph_and_deltas(),
        k in 2usize..5,
    ) {
        let cfg = IncrementalConfig::default();
        let mut inc = IncrementalPartitioner::partition_fresh(g, k, cfg);
        for delta in &deltas {
            inc.apply_delta(delta);
            let n = inc.graph().num_nodes();
            let per = n.div_ceil(k);
            let cap = per.max((cfg.balance * per as f64).ceil() as usize);
            for (p, &size) in inc.part_sizes().iter().enumerate() {
                prop_assert!(
                    size <= cap,
                    "part {} holds {} nodes, cap {}", p, size, cap
                );
            }
            prop_assert_eq!(
                inc.cut_neighbors(),
                inc.partitioning()
                    .cut_neighbors(&inc.graph().to_adjacency()),
                "incremental cut state must match a dense recompute"
            );
            let bound = ((1.0 + cfg.drift) * inc.baseline_halo_bytes() as f64).ceil() as u64;
            prop_assert!(
                inc.halo_bytes() <= bound,
                "halo {} exceeds drift bound {}", inc.halo_bytes(), bound
            );
        }
    }

    /// Zero drift forces a rebuild on *any* degradation past the last full
    /// solve, so repaired halo bytes track a from-scratch solve of the
    /// current graph within the default 10% drift allowance — the
    /// acceptance bound `bench/`'s `graph_repartition` checks at city
    /// scale, plus a one-cut-neighbor allowance — at 6–28 nodes a single
    /// boundary node can exceed 10% of total halo on its own. (Exact
    /// equality is not guaranteed: the baseline is the last full solve,
    /// and edge *removals* can make a fresh solve cheaper than any
    /// bounded local repair.)
    #[test]
    fn zero_drift_tracks_from_scratch_quality(
        (g, deltas) in arb_graph_and_deltas(),
        k in 2usize..5,
    ) {
        let cfg = IncrementalConfig { drift: 0.0, ..IncrementalConfig::default() };
        let unit = cfg.cost.reads_per_cut_neighbor() * cfg.cost.row_bytes;
        let mut inc = IncrementalPartitioner::partition_fresh(g, k, cfg);
        for delta in &deltas {
            let stats = inc.apply_delta(delta);
            let fresh = IncrementalPartitioner::partition_fresh(
                inc.graph().clone(), k, cfg,
            );
            let bound = (1.10 * fresh.halo_bytes() as f64).ceil() as u64 + unit;
            prop_assert!(
                stats.halo_bytes <= bound,
                "drift-0 repair halo {} exceeds 1.10 × from-scratch {} + one cut neighbor",
                stats.halo_bytes, fresh.halo_bytes()
            );
        }
    }
}
