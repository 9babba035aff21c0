//! The undirected topology every partitioner runs on, and incremental
//! dirty-boundary re-partitioning for dynamic graphs.
//!
//! Re-running the full multilevel partitioner on **every** graph mutation
//! is fine at 325 sensors, a wall at the 10⁵–10⁶-node city scale.
//! Following DGC's
//! partitioning-by-chunks observation (dynamic partitions should be
//! *repaired* locally around the mutated region, not rebuilt), this module
//! maintains a partitioning **incrementally**:
//!
//! - [`SparseGraph`] — undirected weighted adjacency lists: the one
//!   topology type of the partitioning layer (region growing, multilevel
//!   coarsening, halo expansion and every cut metric read it), built from
//!   a directed [`Adjacency`] in `O(E)` or mutated in place;
//! - [`GraphDelta`] — one mutation batch: edge weight changes (including
//!   removals) plus node arrivals;
//! - [`IncrementalPartitioner`] — holds the current assignment plus
//!   incrementally-maintained cut state (per-node part-contact counts,
//!   per-part sizes, the global cut-neighbor count), restricts KL/FM
//!   refinement to the **dirty boundary region** (mutated endpoints plus
//!   their `halo_depth`-hop halo), prices every candidate move directly in
//!   [`HaloCostModel`] units, and falls back to a full from-scratch solve
//!   only when modeled halo bytes drift past [`IncrementalConfig::drift`]
//!   versus the last full solve. A dirty node's moves are all priced in
//!   one walk over its neighbors, and a later pass looks again only at
//!   nodes within two hops of a move: nothing else can have changed.
//!
//! Cut state is exact at all times: `cut_neighbors()` returns in O(1) the
//! same count `Partitioning::cut_neighbors` recomputes in O(E) — a
//! property-tested invariant.

use super::cut_state::CutState;
use super::{
    balance_cap, grow_regions, halo_nodes, trivial_assignment, HaloCostModel, Partitioning, BALANCE,
};
use crate::adjacency::{merge_ascending, Adjacency};
use std::borrow::Cow;

/// An undirected weighted graph stored as adjacency lists — the topology
/// every partitioning routine runs on, at any scale (`O(N + E)` memory).
///
/// Each undirected edge `{u, v}` appears in both endpoints' lists with the
/// same weight; self-loops are rejected. Weights are non-negative, and a
/// weight of exactly `0.0` means "no edge". Region growing, BFS and
/// refinement break ties in list order, so the order is part of the
/// contract: [`SparseGraph::from_adjacency`] yields ascending lists,
/// [`SparseGraph::from_edges`] insertion order, and a removal swaps the
/// last neighbor into the vacated slot.
#[derive(Debug, Clone, Default)]
pub struct SparseGraph {
    adj: Vec<Vec<(usize, f32)>>,
    edges: usize,
}

impl SparseGraph {
    /// An edgeless graph over `n` nodes.
    pub fn new(n: usize) -> Self {
        SparseGraph::from_lists(vec![Vec::new(); n])
    }

    /// Adopt symmetric neighbor lists as they are.
    pub(super) fn from_lists(adj: Vec<Vec<(usize, f32)>>) -> Self {
        let edges = adj.iter().map(Vec::len).sum::<usize>() / 2;
        SparseGraph { adj, edges }
    }

    /// The undirected view of a directed adjacency, in `O(E)`: nodes `i`
    /// and `j` are linked with weight `w(i,j) + w(j,i)` when that sum is
    /// finite and positive — the one edge rule of the partitioning layer
    /// (a negative, cancelling, `NaN` or infinite sum is "no edge").
    /// Self-loops are dropped; every neighbor list is ascending.
    pub fn from_adjacency(a: &Adjacency) -> Self {
        let mut adj = vec![Vec::new(); a.num_nodes()];
        a.zip_transpose(|i, j, w, back| {
            let sum = w + back;
            if i != j && sum.is_finite() && sum > 0.0 {
                adj[i].push((j, sum));
            }
        });
        SparseGraph::from_lists(adj)
    }

    /// Build from an undirected edge list; duplicate `{u, v}` entries sum.
    pub fn from_edges(n: usize, edges: &[(usize, usize, f32)]) -> Self {
        let mut g = SparseGraph::new(n);
        for &(u, v, w) in edges {
            let prev = g.edge_weight(u, v);
            g.set_edge(u, v, prev + w);
        }
        g
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges with non-zero weight.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// The `(neighbor, weight)` list of node `u`.
    pub fn neighbors(&self, u: usize) -> &[(usize, f32)] {
        &self.adj[u]
    }

    /// Degree (number of incident undirected edges) of node `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// The weight of undirected edge `{u, v}` (0.0 when absent).
    pub fn edge_weight(&self, u: usize, v: usize) -> f32 {
        self.adj[u]
            .iter()
            .find(|&&(x, _)| x == v)
            .map_or(0.0, |&(_, w)| w)
    }

    /// Set the weight of undirected edge `{u, v}` (`0.0` removes it) and
    /// return the previous weight. Weights must be finite and `>= 0`.
    pub fn set_edge(&mut self, u: usize, v: usize, w: f32) -> f32 {
        assert!(u != v, "self-loops are not supported");
        assert!(
            w.is_finite() && w >= 0.0,
            "edge weight must be finite and non-negative"
        );
        let prev = self.half_set(u, v, w);
        let back = self.half_set(v, u, w);
        debug_assert_eq!(prev.to_bits(), back.to_bits(), "lists out of sync");
        if prev == 0.0 && w > 0.0 {
            self.edges += 1;
        } else if prev > 0.0 && w == 0.0 {
            self.edges -= 1;
        }
        prev
    }

    /// Append `count` isolated nodes (ids `num_nodes()..`).
    pub fn add_nodes(&mut self, count: usize) {
        self.adj.resize_with(self.adj.len() + count, Vec::new);
    }

    /// The directed [`Adjacency`] carrying every undirected weight in both
    /// directions, in `O(E log E)`.
    pub fn to_adjacency(&self) -> Adjacency {
        let edges: Vec<(usize, usize, f32)> = self
            .adj
            .iter()
            .enumerate()
            .flat_map(|(u, list)| list.iter().map(move |&(v, w)| (u, v, w)))
            .collect();
        Adjacency::from_edges(self.num_nodes(), &edges)
    }

    /// Update one endpoint's list; returns the previous weight.
    fn half_set(&mut self, u: usize, v: usize, w: f32) -> f32 {
        let list = &mut self.adj[u];
        match list.iter().position(|&(x, _)| x == v) {
            Some(i) => {
                let prev = list[i].1;
                if w > 0.0 {
                    list[i].1 = w;
                } else {
                    list.swap_remove(i);
                }
                prev
            }
            None => {
                if w > 0.0 {
                    list.push((v, w));
                }
                0.0
            }
        }
    }
}

/// A graph already in list form is used as it is.
impl<'a> From<&'a SparseGraph> for Cow<'a, SparseGraph> {
    fn from(g: &'a SparseGraph) -> Self {
        Cow::Borrowed(g)
    }
}

/// A directed adjacency is viewed through [`SparseGraph::from_adjacency`],
/// once per call of whatever takes it.
impl<'a> From<&'a Adjacency> for Cow<'a, SparseGraph> {
    fn from(a: &'a Adjacency) -> Self {
        Cow::Owned(SparseGraph::from_adjacency(a))
    }
}

/// One batch of graph mutations: node arrivals plus undirected edge
/// weight updates. New nodes take ids `num_nodes()..num_nodes() +
/// added_nodes` and may be referenced by this delta's own edges; a weight
/// of `0.0` removes the edge. Node departures are modeled as isolating a
/// node (removing all its incident edges).
#[derive(Debug, Clone, Default)]
pub struct GraphDelta {
    /// Nodes appended to the graph by this delta.
    pub added_nodes: usize,
    /// Undirected edge updates `(u, v, new_weight)`; `0.0` removes.
    pub edges: Vec<(usize, usize, f32)>,
}

impl GraphDelta {
    /// True when the delta mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.added_nodes == 0 && self.edges.is_empty()
    }

    /// The edge delta between two same-sized adjacencies, in the undirected
    /// convention of [`SparseGraph::from_adjacency`], ordered by `(i, j)`
    /// with `i < j` — how a pair of consecutive snapshots becomes a
    /// repairable mutation. `O(E)`.
    pub fn between(prev: &Adjacency, cur: &Adjacency) -> GraphDelta {
        let n = prev.num_nodes();
        assert_eq!(n, cur.num_nodes(), "adjacencies must match in size");
        let (prev, cur) = (
            SparseGraph::from_adjacency(prev),
            SparseGraph::from_adjacency(cur),
        );
        // Fresh views have ascending lists: merge them row by row.
        fn upper(g: &SparseGraph, i: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
            g.adj[i].iter().copied().filter(move |&(j, _)| j > i)
        }
        let mut edges = Vec::new();
        for i in 0..n {
            merge_ascending(upper(&prev, i), upper(&cur, i), |j, was, now| {
                if was != now {
                    edges.push((i, j, now));
                }
            });
        }
        GraphDelta {
            added_nodes: 0,
            edges,
        }
    }
}

/// Knobs of the [`IncrementalPartitioner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalConfig {
    /// Rebuild from scratch once modeled halo bytes exceed
    /// `(1 + drift) ×` the last full solve's halo bytes.
    pub drift: f64,
    /// Hops of halo around mutated endpoints swept into the dirty
    /// refinement region.
    pub halo_depth: usize,
    /// Balance tolerance: no part may exceed `balance × ⌈n/k⌉` nodes —
    /// by default the cap [`Partitioning::multilevel`] enforces.
    pub balance: f64,
    /// The halo cost model halo bytes are priced by.
    pub cost: HaloCostModel,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            drift: 0.10,
            halo_depth: 2,
            balance: BALANCE,
            cost: HaloCostModel::default(),
        }
    }
}

impl IncrementalConfig {
    /// Defaults with the cost model tuned to a forecast `horizon` over
    /// `features` f32 features per node.
    pub fn for_horizon(horizon: usize, features: usize) -> Self {
        IncrementalConfig {
            cost: HaloCostModel::new(horizon.max(1), features.max(1)),
            ..Default::default()
        }
    }
}

/// What one [`IncrementalPartitioner::apply_delta`] call did.
#[derive(Debug, Clone, Copy)]
pub struct RepairStats {
    /// Nodes in the dirty refinement region (mutated endpoints + halo).
    pub dirty_nodes: usize,
    /// Boundary moves the restricted refinement applied.
    pub moves: usize,
    /// Whether quality drift forced a full from-scratch rebuild.
    pub rebuilt: bool,
    /// Modeled halo bytes after the repair (or rebuild).
    pub halo_bytes: u64,
}

/// A partitioning maintained incrementally across graph mutations.
///
/// Holds the current graph and assignment plus exact cut state — per-node
/// *part contact* counts (how many of a node's neighbors live in each
/// part), per-part sizes, and the global cut-neighbor count — all updated
/// in O(degree) per mutation, so [`IncrementalPartitioner::halo_bytes`]
/// is O(1) where `Partitioning::cut_neighbors` rescans every edge. That
/// state is the partitioning layer's one refinement core, the same one
/// [`Partitioning::multilevel`] refines every level with.
///
/// ```
/// use st_graph::partition::incremental::{
///     GraphDelta, IncrementalConfig, IncrementalPartitioner, SparseGraph,
/// };
///
/// // A 6-node path split in half, repaired after an edge arrives. The
/// // new edge closes a cycle, so the cut genuinely doubles — a generous
/// // drift keeps the repair local instead of falling back to a rebuild.
/// let g = SparseGraph::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)]);
/// let cfg = IncrementalConfig { drift: 2.0, ..IncrementalConfig::default() };
/// let mut inc = IncrementalPartitioner::partition_fresh(g, 2, cfg);
/// let before = inc.halo_bytes();
/// let stats = inc.apply_delta(&GraphDelta { added_nodes: 0, edges: vec![(0, 5, 2.0)] });
/// assert!(!stats.rebuilt && stats.halo_bytes >= before);
/// assert_eq!(inc.cut_neighbors(), inc.partitioning().cut_neighbors(inc.graph()));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalPartitioner {
    state: CutState,
    cfg: IncrementalConfig,
    /// Halo bytes of the last full solve — the drift-fallback baseline.
    baseline_halo: u64,
}

impl IncrementalPartitioner {
    /// Adopt an existing partitioning (e.g. a dense multilevel solve of
    /// the same graph) as the maintained state; the drift baseline is the
    /// seeded partitioning's own halo bytes. The partitioning must cover
    /// the graph (one part per node).
    pub fn seed(graph: SparseGraph, partitioning: &Partitioning, cfg: IncrementalConfig) -> Self {
        let assignment = partitioning.assignment().to_vec();
        let state = CutState::new(graph, assignment, Vec::new(), partitioning.num_parts());
        Self::solved(state, cfg)
    }

    /// Full from-scratch solve on the sparse graph: farthest-first seeded
    /// region growing under the balance cap, then halo-priced boundary
    /// refinement — the rebuild path the drift fallback takes, and the
    /// "from-scratch" baseline `bench/`'s `graph_repartition` workload
    /// compares repair quality against. Deterministic (no RNG).
    pub fn partition_fresh(graph: SparseGraph, k: usize, cfg: IncrementalConfig) -> Self {
        let n = graph.num_nodes();
        if let Some(assignment) = trivial_assignment(n, k) {
            return Self::solved(CutState::new(graph, assignment, Vec::new(), k), cfg);
        }
        let cap = balance_cap(n, k, cfg.balance);
        let assignment = grow_regions(&graph, &vec![1; n], k, cap, 0);
        let mut state = CutState::new(graph, assignment, Vec::new(), k);
        let all: Vec<usize> = (0..n).collect();
        state.refine(&all, cap);
        Self::solved(state, cfg)
    }

    /// Adopt `state` as a full solve: its halo bytes become the baseline.
    fn solved(state: CutState, cfg: IncrementalConfig) -> Self {
        let mut s = IncrementalPartitioner {
            state,
            cfg,
            baseline_halo: 0,
        };
        s.baseline_halo = s.halo_bytes();
        s
    }

    /// Apply one mutation batch: update the graph and cut state, place
    /// arriving nodes, refine the dirty boundary region, and fall back to
    /// a full rebuild if modeled halo bytes drifted past the threshold.
    ///
    /// An empty delta is a guaranteed no-op: the assignment is returned
    /// bit-identical (property-tested).
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> RepairStats {
        let prev_nodes = self.state.graph().num_nodes();
        // Arrivals start in the lightest part so this delta's own edges
        // have well-defined endpoints; dirty refinement re-homes them.
        for _ in 0..delta.added_nodes {
            self.state.add_node();
        }
        let n = self.state.graph().num_nodes();
        let mut dirty: Vec<usize> = (prev_nodes..n).collect();
        for &(u, v, w) in &delta.edges {
            self.state.set_edge(u, v, w);
            dirty.push(u);
            dirty.push(v);
        }
        dirty.sort_unstable();
        dirty.dedup();
        // The active set: mutated endpoints plus their halo, ascending.
        let mut active = halo_nodes(self.state.graph(), &dirty, self.cfg.halo_depth);
        active.extend_from_slice(&dirty);
        active.sort_unstable();
        let k = self.num_parts();
        let moves = self
            .state
            .refine(&active, balance_cap(n, k, self.cfg.balance));
        let mut rebuilt = false;
        if self.halo_bytes() as f64 > (1.0 + self.cfg.drift) * self.baseline_halo as f64 {
            let graph = std::mem::take(&mut self.state).into_graph();
            *self = Self::partition_fresh(graph, k, self.cfg);
            rebuilt = true;
        }
        RepairStats {
            dirty_nodes: active.len(),
            moves,
            rebuilt,
            halo_bytes: self.halo_bytes(),
        }
    }

    /// The maintained graph.
    pub fn graph(&self) -> &SparseGraph {
        self.state.graph()
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.state.num_parts()
    }

    /// The current assignment slice.
    pub fn assignment(&self) -> &[usize] {
        self.state.assignment()
    }

    /// Sizes of every part (maintained, O(k) to clone).
    pub fn part_sizes(&self) -> Vec<usize> {
        self.state.part_counts().to_vec()
    }

    /// The current cut-neighbor count — O(1), maintained incrementally;
    /// equals `Partitioning::cut_neighbors` recomputed from scratch.
    pub fn cut_neighbors(&self) -> usize {
        self.state.cut()
    }

    /// Modeled halo bytes of the current partitioning — O(1).
    pub fn halo_bytes(&self) -> u64 {
        self.cut_neighbors() as u64
            * self.cfg.cost.reads_per_cut_neighbor()
            * self.cfg.cost.row_bytes
    }

    /// Halo bytes of the last full solve (the drift-fallback baseline).
    pub fn baseline_halo_bytes(&self) -> u64 {
        self.baseline_halo
    }

    /// The configuration in force.
    pub fn config(&self) -> &IncrementalConfig {
        &self.cfg
    }

    /// Snapshot the current assignment as a [`Partitioning`].
    pub fn partitioning(&self) -> Partitioning {
        Partitioning::from_assignment(self.assignment().to_vec(), self.num_parts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{city_grid, random_geometric};

    fn path(n: usize) -> SparseGraph {
        let edges: Vec<(usize, usize, f32)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        SparseGraph::from_edges(n, &edges)
    }

    #[test]
    fn sparse_graph_edge_bookkeeping() {
        let mut g = SparseGraph::new(4);
        assert_eq!(g.set_edge(0, 1, 2.0), 0.0);
        assert_eq!(g.set_edge(1, 0, 3.0), 2.0, "undirected: same edge");
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), 3.0);
        assert_eq!(g.set_edge(0, 1, 0.0), 3.0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        g.add_nodes(2);
        assert_eq!(g.num_nodes(), 6);
    }

    #[test]
    fn from_adjacency_lists_ascend_and_sum_both_directions() {
        // Refinement, BFS and region growing break ties in list order.
        let net = random_geometric(24, 8.0, 3);
        let g = SparseGraph::from_adjacency(&net.adjacency);
        for u in 0..24 {
            assert!(g.neighbors(u).windows(2).all(|w| w[0].0 < w[1].0), "{u}");
            for v in 0..24 {
                let sum = net.adjacency.weight(u, v) + net.adjacency.weight(v, u);
                let want = if v != u && sum > 0.0 { sum } else { 0.0 };
                assert_eq!(g.edge_weight(u, v).to_bits(), want.to_bits(), "{u}-{v}");
            }
        }
        let links: usize = (0..24).map(|u| g.degree(u)).sum();
        assert_eq!(g.num_edges() * 2, links);
        // A one-directional edge links both ends; its round trip is symmetric.
        let one_way = Adjacency::from_edges(3, &[(2, 0, 0.5), (1, 1, 9.0)]);
        let g = SparseGraph::from_adjacency(&one_way);
        assert_eq!(g.neighbors(0), &[(2, 0.5)]);
        assert_eq!(g.degree(1), 0, "self-loops are dropped");
        let back = g.to_adjacency();
        assert_eq!((back.weight(0, 2), back.weight(2, 0)), (0.5, 0.5));
    }

    #[test]
    fn cut_state_is_exact_after_seeding() {
        let net = city_grid(5, 6, 7);
        let p = Partitioning::multilevel(&net.adjacency, 3);
        let g = SparseGraph::from_adjacency(&net.adjacency);
        let inc = IncrementalPartitioner::seed(g, &p, IncrementalConfig::default());
        assert_eq!(inc.cut_neighbors(), p.cut_neighbors(&net.adjacency));
        assert_eq!(inc.part_sizes(), p.part_sizes());
    }

    #[test]
    fn empty_delta_is_a_bit_identical_noop() {
        let net = city_grid(4, 5, 9);
        let p = Partitioning::multilevel(&net.adjacency, 2);
        let g = SparseGraph::from_adjacency(&net.adjacency);
        let mut inc = IncrementalPartitioner::seed(g, &p, IncrementalConfig::default());
        let before = inc.assignment().to_vec();
        let stats = inc.apply_delta(&GraphDelta::default());
        assert_eq!(inc.assignment(), &before[..]);
        assert_eq!(stats.moves, 0);
        assert_eq!(stats.dirty_nodes, 0);
        assert!(!stats.rebuilt);
    }

    #[test]
    fn arrivals_are_rehomed_next_to_their_neighbors() {
        // Two 4-cliques, parts = components. A new node attached to the
        // second clique must end up in the second clique's part.
        let mut edges = Vec::new();
        for a in 0..4usize {
            for b in (a + 1)..4 {
                edges.push((a, b, 1.0));
                edges.push((a + 4, b + 4, 1.0));
            }
        }
        let g = SparseGraph::from_edges(8, &edges);
        let p = Partitioning::from_assignment(vec![0, 0, 0, 0, 1, 1, 1, 1], 2);
        let mut inc = IncrementalPartitioner::seed(g, &p, IncrementalConfig::default());
        assert_eq!(inc.cut_neighbors(), 0);
        let stats = inc.apply_delta(&GraphDelta {
            added_nodes: 1,
            edges: vec![(8, 4, 1.0), (8, 5, 1.0)],
        });
        assert_eq!(inc.assignment()[8], 1, "arrival joins its neighbors");
        assert_eq!(inc.cut_neighbors(), 0, "repair restores a clean cut");
        assert!(!stats.rebuilt);
    }

    #[test]
    fn quality_drift_triggers_a_full_rebuild() {
        // Start from a pathological partitioning (odd/even stripes over a
        // path) with zero drift tolerance: any mutation's repair cannot
        // reach the baseline recorded at seed time... so force the
        // baseline low by seeding fresh, then wire the graph adversarially
        // until halo blows past (1 + drift) x baseline.
        let g = path(24);
        let mut inc = IncrementalPartitioner::partition_fresh(
            g,
            2,
            IncrementalConfig {
                drift: 0.0,
                halo_depth: 0, // cripple repair so drift must trigger
                ..Default::default()
            },
        );
        let baseline = inc.baseline_halo_bytes();
        assert!(baseline > 0);
        // Cross-wire far ends: halo strictly grows, repair (depth 0 halo,
        // endpoints only) cannot fully recover, fallback must fire
        // eventually.
        let mut rebuilt = false;
        for i in 0..8 {
            let stats = inc.apply_delta(&GraphDelta {
                added_nodes: 0,
                edges: vec![(i, 23 - i, 1.0)],
            });
            rebuilt |= stats.rebuilt;
        }
        assert!(rebuilt, "drift fallback never fired");
        assert_eq!(
            inc.baseline_halo_bytes(),
            inc.halo_bytes(),
            "rebuild resets the baseline"
        );
    }

    #[test]
    fn fresh_solve_is_balanced_and_covers() {
        let net = city_grid(8, 8, 5);
        let g = SparseGraph::from_adjacency(&net.adjacency);
        for k in [2usize, 4, 7] {
            let inc =
                IncrementalPartitioner::partition_fresh(g.clone(), k, IncrementalConfig::default());
            let sizes = inc.part_sizes();
            assert_eq!(sizes.iter().sum::<usize>(), 64, "k={k}");
            assert!(sizes.iter().all(|&s| s > 0), "k={k}: {sizes:?}");
            let cap = balance_cap(64, k, inc.config().balance);
            assert!(sizes.iter().all(|&s| s <= cap), "k={k}: {sizes:?}");
        }
        // Degenerate shapes.
        let one =
            IncrementalPartitioner::partition_fresh(g.clone(), 1, IncrementalConfig::default());
        assert_eq!(one.cut_neighbors(), 0);
        let many = IncrementalPartitioner::partition_fresh(g, 100, IncrementalConfig::default());
        assert_eq!(many.part_sizes().iter().sum::<usize>(), 64);
    }

    #[test]
    fn edge_churn_keeps_cut_state_exact() {
        let net = random_geometric(30, 9.0, 11);
        let g = SparseGraph::from_adjacency(&net.adjacency);
        let mut inc = IncrementalPartitioner::partition_fresh(g, 3, IncrementalConfig::default());
        // A handful of removals, weight changes, and insertions.
        let deltas = [
            GraphDelta {
                added_nodes: 0,
                edges: vec![(0, 7, 1.5), (3, 21, 0.0), (5, 29, 0.4)],
            },
            GraphDelta {
                added_nodes: 1,
                edges: vec![(30, 2, 1.0), (30, 14, 1.0), (0, 7, 0.0)],
            },
        ];
        for d in &deltas {
            inc.apply_delta(d);
            let recomputed = inc
                .partitioning()
                .cut_neighbors(&inc.graph().to_adjacency());
            assert_eq!(inc.cut_neighbors(), recomputed);
        }
    }

    #[test]
    fn delta_between_adjacencies_roundtrips() {
        let a = random_geometric(16, 6.0, 2).adjacency;
        let mut w = a.to_dense();
        w[3 * 16 + 5] = 9.0; // mutate one directed edge
        w[7 * 16 + 1] = 0.0;
        w[16 + 7] = 0.0;
        let b = Adjacency::from_dense(16, w);
        let d = GraphDelta::between(&a, &b);
        let mut g = SparseGraph::from_adjacency(&a);
        for &(u, v, wt) in &d.edges {
            g.set_edge(u, v, wt);
        }
        let target = SparseGraph::from_adjacency(&b);
        for u in 0..16 {
            let mut got: Vec<(usize, u32)> = g
                .neighbors(u)
                .iter()
                .map(|&(v, w)| (v, w.to_bits()))
                .collect();
            let mut want: Vec<(usize, u32)> = target
                .neighbors(u)
                .iter()
                .map(|&(v, w)| (v, w.to_bits()))
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "node {u}");
        }
    }
}
