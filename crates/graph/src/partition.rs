//! Graph partitioning (paper §7 future work).
//!
//! The paper's conclusion proposes "the integration of index-batching with
//! graph partitioning, potentially yielding further speedups at a potential
//! cost to accuracy" — the approach of Mallick et al. \[37\], who train one
//! DCRNN per spatial partition. This module provides the graph side of that
//! integration: partitioners, cut-quality metrics, and halo-augmented
//! induced subgraphs. The training-side integration lives in
//! `pgt-index::partitioned`.
//!
//! Every routine that walks the topology — region growing, coarsening,
//! halo expansion, cut counting — runs on one type, the undirected
//! [`SparseGraph`], in `O(E)`. Entry points take
//! `impl Into<Cow<SparseGraph>>`: a `&SparseGraph` is used as it is, and a
//! directed `&Adjacency` is viewed through [`SparseGraph::from_adjacency`]
//! once per call. Only the metrics that sum *directed* weights
//! ([`Partitioning::edge_cut_weight`], induced subgraphs) read the
//! [`Adjacency`] itself.
//!
//! Four partitioners cover the design space:
//! - [`Partitioning::contiguous`] — index blocks; the trivial baseline.
//! - [`Partitioning::coordinate_bisection`] — recursive coordinate
//!   bisection over sensor positions (spatially compact, well balanced);
//!   sensor networks embed in the plane, so geometry is a strong proxy for
//!   the Gaussian-kernel edge structure.
//! - [`Partitioning::greedy_bfs`] — seeded region growing over the actual
//!   weighted edges (topology-aware, fast, but jagged where regions
//!   collide).
//! - [`Partitioning::multilevel`] — METIS-flavored multilevel scheme:
//!   heavy-edge-matching coarsening, seeded initial partitions on the
//!   coarsest graph, then uncoarsening with balance-constrained greedy
//!   KL/FM boundary refinement. The quality partitioner; the partitioned
//!   training example splits with it.
//!
//! Quality is scored by [`HaloCostModel`], which converts a partitioning's
//! *cut neighbors* into the modeled bytes the distributed planes actually
//! pay (`cut_neighbors × (2·horizon − 1) × row_bytes`) — the objective
//! every refinement minimizes, rather than raw edge cut. There is one
//! refinement core: the contact-count state the
//! [`IncrementalPartitioner`] maintains, which the multilevel scheme also
//! builds at every level.

use crate::adjacency::Adjacency;
use cut_state::CutState;
use std::borrow::Cow;
use std::collections::VecDeque;

mod cut_state;
pub mod incremental;

pub use incremental::{
    GraphDelta, IncrementalConfig, IncrementalPartitioner, RepairStats, SparseGraph,
};

/// An assignment of every graph node to one of `k` parts.
#[derive(Debug, Clone)]
pub struct Partitioning {
    assignment: Vec<usize>,
    k: usize,
}

impl Partitioning {
    /// Wrap an explicit assignment (must reference parts `< k` only).
    pub fn from_assignment(assignment: Vec<usize>, k: usize) -> Self {
        assert!(k > 0, "need at least one part");
        assert!(
            assignment.iter().all(|&p| p < k),
            "assignment references a part >= k"
        );
        Partitioning { assignment, k }
    }

    /// Contiguous index blocks: nodes `[i·n/k, (i+1)·n/k)` form part `i`.
    pub fn contiguous(n: usize, k: usize) -> Self {
        assert!(k > 0 && k <= n, "need 0 < k <= n");
        let per = n.div_ceil(k);
        let assignment = (0..n).map(|i| (i / per).min(k - 1)).collect();
        Partitioning { assignment, k }
    }

    /// Recursive coordinate bisection: repeatedly split along the widest
    /// spatial axis at a rank proportional to the part counts. Produces
    /// spatially compact, near-perfectly balanced parts.
    pub fn coordinate_bisection(coords: &[(f32, f32)], k: usize) -> Self {
        assert!(k > 0 && k <= coords.len(), "need 0 < k <= n");
        let mut assignment = vec![0usize; coords.len()];
        let mut ids: Vec<usize> = (0..coords.len()).collect();
        rcb(coords, &mut ids, k, 0, &mut assignment);
        Partitioning { assignment, k }
    }

    /// Seeded BFS region growing over the undirected edges of `graph` (a
    /// `&SparseGraph`, or a `&Adjacency` viewed as one): `k` seeds are
    /// spread greedily (farthest-first over hop distance), then regions
    /// claim unassigned neighbors round-robin, capped at `⌈n/k⌉` nodes.
    /// Stranded nodes (disconnected from every capped region) fall back to
    /// the smallest part.
    ///
    /// Disconnected graphs are supported: unreachable nodes rank as
    /// "farthest of all" during seed spreading, so every component gets a
    /// seed before any component gets two. When `k > n` the first `n`
    /// parts hold one node each and the remaining parts are **empty** —
    /// callers that build per-part workers must tolerate empty parts
    /// (`pgt_index::partitioned` skips them).
    ///
    /// ```
    /// use st_graph::{generators, Partitioning};
    ///
    /// let net = generators::highway_corridor(12, 1, 7);
    /// let p = Partitioning::greedy_bfs(&net.adjacency, 3);
    /// assert_eq!(p.num_parts(), 3);
    /// // Every node is assigned to exactly one part.
    /// assert_eq!(p.part_sizes().iter().sum::<usize>(), 12);
    /// // Region growing respects the ⌈n/k⌉ cap up to stranded fallbacks.
    /// assert!(p.part_sizes().iter().all(|&s| s > 0));
    /// ```
    pub fn greedy_bfs<'a>(graph: impl Into<Cow<'a, SparseGraph>>, k: usize) -> Self {
        let graph = graph.into();
        let n = graph.num_nodes();
        assert!(k > 0, "need at least one part");
        if k > n {
            // One node per part; parts n..k stay empty (documented above).
            return Partitioning {
                assignment: (0..n).collect(),
                k,
            };
        }
        let assignment = grow_regions(&graph, &vec![1; n], k, n.div_ceil(k), 0);
        Partitioning { assignment, k }
    }

    /// Multilevel partitioning: coarsen by heavy-edge matching (pairs
    /// contract, edge and node weights sum) down to `max(32, 4k)` nodes,
    /// keep the best of four seeded region-growings on the coarsest graph
    /// by cut neighbors, then at every level, coarsest first, load the
    /// projected assignment into the refinement core the
    /// [`IncrementalPartitioner`] maintains: shed over-cap parts by best
    /// halo gain, then refine by strictly positive halo gain, under a
    /// `1.15 × ⌈n/k⌉` weight cap and never emptying a part.
    ///
    /// Like [`Partitioning::greedy_bfs`], `k > n` yields one node per part
    /// with the remaining parts empty, and disconnected graphs are
    /// handled by seeding every component.
    ///
    /// ```
    /// use st_graph::partition::{HaloCostModel, Partitioning};
    /// use st_graph::generators;
    ///
    /// let net = generators::highway_corridor(24, 1, 7);
    /// let ml = Partitioning::multilevel(&net.adjacency, 4);
    /// let greedy = Partitioning::greedy_bfs(&net.adjacency, 4);
    ///
    /// // Valid balanced partition: all nodes covered, no empty part.
    /// assert_eq!(ml.part_sizes().iter().sum::<usize>(), 24);
    /// assert!(ml.part_sizes().iter().all(|&s| s > 0));
    ///
    /// // Modeled halo traffic never loses to the greedy baseline.
    /// let cost = HaloCostModel::new(12, 2);
    /// assert!(cost.halo_bytes(&net.adjacency, &ml)
    ///     <= cost.halo_bytes(&net.adjacency, &greedy));
    /// ```
    pub fn multilevel<'a>(graph: impl Into<Cow<'a, SparseGraph>>, k: usize) -> Self {
        let graph = graph.into();
        let n = graph.num_nodes();
        if let Some(assignment) = trivial_assignment(n, k) {
            return Partitioning { assignment, k };
        }

        // --- 1. Coarsen by heavy-edge matching. -------------------------
        let mut levels = vec![CoarseGraph {
            graph: graph.into_owned(),
            node_weight: vec![1; n],
            fine_to_coarse: Vec::new(),
        }];
        loop {
            let cur = levels.last().unwrap();
            if cur.len() <= COARSEST.max(4 * k) {
                break;
            }
            let coarse = cur.contract_heavy_edge_matching();
            if coarse.len() as f64 > cur.len() as f64 * 0.95 {
                break; // matching stopped shrinking the graph
            }
            levels.push(coarse);
        }

        // --- 2. Seeded initial partitions on the coarsest graph. --------
        let cap = balance_cap(n, k, BALANCE);
        let coarsest = levels.pop().expect("the finest level is a level");
        let mut state = (0..INITIAL_SEEDS)
            .map(|seed| {
                // Prime stride: distinct starts for every candidate unless
                // the level size is a multiple of 7919.
                let start = (seed * 7919) % coarsest.len();
                let cand = grow_regions(&coarsest.graph, &coarsest.node_weight, k, cap, start);
                let weights = coarsest.node_weight.clone();
                CutState::new(coarsest.graph.clone(), cand, weights, k)
            })
            .min_by_key(CutState::cut)
            .expect("at least one seed");
        let mut to_coarser = coarsest.fine_to_coarse;

        // --- 3. Uncoarsen: rebalance and refine every level. ------------
        loop {
            state.rebalance(cap);
            let all: Vec<usize> = (0..state.assignment().len()).collect();
            state.refine(&all, cap);
            let Some(finer) = levels.pop() else {
                break;
            };
            let coarse = state.into_assignment();
            let assignment = to_coarser.iter().map(|&c| coarse[c]).collect();
            to_coarser = finer.fine_to_coarse;
            state = CutState::new(finer.graph, assignment, finer.node_weight, k);
        }
        Partitioning {
            assignment: state.into_assignment(),
            k,
        }
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.k
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.assignment.len()
    }

    /// The part of node `i`.
    pub fn part_of(&self, i: usize) -> usize {
        self.assignment[i]
    }

    /// The full assignment slice.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Node ids owned by part `p`, ascending.
    pub fn part_nodes(&self, p: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == p).then_some(i))
            .collect()
    }

    /// Node ids of **every** part in one O(n) pass — use this instead of
    /// calling [`Partitioning::part_nodes`] in a loop over parts, which
    /// rescans the assignment `k` times (O(n·k)). Each inner list is
    /// ascending, exactly as `part_nodes` returns it (equivalence-tested).
    pub fn nodes_by_part(&self) -> Vec<Vec<usize>> {
        let mut by_part: Vec<Vec<usize>> = vec![Vec::new(); self.k];
        for (i, &p) in self.assignment.iter().enumerate() {
            by_part[p].push(i);
        }
        by_part
    }

    /// Sizes of every part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &a in &self.assignment {
            sizes[a] += 1;
        }
        sizes
    }

    /// Load imbalance: `max part size / (n / k)` (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let sizes = self.part_sizes();
        let max = *sizes.iter().max().unwrap_or(&0) as f64;
        max / (self.num_nodes() as f64 / self.k as f64)
    }

    /// Total weight of edges whose endpoints live in different parts.
    pub fn edge_cut_weight(&self, adj: &Adjacency) -> f64 {
        let mut cut = 0.0f64;
        for i in 0..adj.num_nodes() {
            for (j, w) in adj.row(i) {
                if w > 0.0 && self.assignment[i] != self.assignment[j] {
                    cut += w as f64;
                }
            }
        }
        cut
    }

    /// Total **cut neighbors** across parts: `Σ_p |halo₁(p)|`, the number
    /// of (node, foreign part) adjacency pairs — each one a node some part
    /// must replicate as depth-1 halo. This is the count the distributed
    /// planes pay `2·horizon − 1` reads per ([`HaloCostModel`]), which is
    /// why the multilevel refinement minimizes it instead of raw edge cut:
    /// many light cut edges into the *same* neighbor cost one replica,
    /// while one cut edge per distinct neighbor costs a replica each.
    pub fn cut_neighbors<'a>(&self, graph: impl Into<Cow<'a, SparseGraph>>) -> usize {
        let g = graph.into();
        assert_eq!(g.num_nodes(), self.num_nodes(), "graph/partition mismatch");
        let mut count = 0usize;
        let mut seen = vec![usize::MAX; self.k];
        for v in 0..g.num_nodes() {
            // v is replicated once into every foreign part it touches;
            // `seen[p] == v` marks the parts already counted for v.
            for &(u, _) in g.neighbors(v) {
                let p = self.assignment[u];
                if p != self.assignment[v] && seen[p] != v {
                    seen[p] = v;
                    count += 1;
                }
            }
        }
        count
    }

    /// Fraction of (weighted) edges cut by the partitioning.
    pub fn cut_fraction(&self, adj: &Adjacency) -> f64 {
        let mut total = 0.0f64;
        for i in 0..adj.num_nodes() {
            for (j, w) in adj.row(i) {
                if w > 0.0 && i != j {
                    total += w as f64;
                }
            }
        }
        if total == 0.0 {
            0.0
        } else {
            self.edge_cut_weight(adj) / total
        }
    }

    /// The halo-augmented induced subgraph of every part: owned nodes
    /// first, then halo nodes within `halo_depth` hops (the neighbors
    /// partition-boundary diffusion convolutions need — depth should be ≥
    /// the model's diffusion steps K). Owned-node lists come from one
    /// [`Partitioning::nodes_by_part`] pass and every halo from one
    /// undirected view of `adj`: `O(k·N + E)` overall.
    pub fn subgraphs(&self, adj: &Adjacency, halo_depth: usize) -> Vec<Subgraph> {
        let topology = SparseGraph::from_adjacency(adj);
        self.nodes_by_part()
            .into_iter()
            .enumerate()
            .map(|(part, mut nodes)| {
                let owned_count = nodes.len();
                nodes.extend(halo_nodes(&topology, &nodes, halo_depth));
                Subgraph {
                    part,
                    owned_count,
                    adjacency: induced_subgraph(adj, &nodes),
                    global_ids: nodes,
                }
            })
            .collect()
    }

    /// Replication factor: `Σ_p |owned_p ∪ halo_p| / n` — how much node
    /// (and therefore feature) duplication the partitioned layout pays.
    pub fn replication_factor<'a>(
        &self,
        graph: impl Into<Cow<'a, SparseGraph>>,
        halo_depth: usize,
    ) -> f64 {
        let g = graph.into();
        let total: usize = self
            .nodes_by_part()
            .iter()
            .map(|owned| owned.len() + halo_nodes(&*g, owned, halo_depth).len())
            .sum();
        total as f64 / self.num_nodes() as f64
    }
}

/// One part's halo-augmented induced subgraph.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// Which part this is.
    pub part: usize,
    /// The first `owned_count` entries of `global_ids` are owned; the rest
    /// are halo (read-only context for boundary convolutions).
    pub owned_count: usize,
    /// Local id → global node id.
    pub global_ids: Vec<usize>,
    /// Induced weighted adjacency over `global_ids` (local indexing).
    pub adjacency: Adjacency,
}

impl Subgraph {
    /// Number of local nodes (owned + halo).
    pub fn num_nodes(&self) -> usize {
        self.global_ids.len()
    }

    /// Number of halo nodes.
    pub fn halo_count(&self) -> usize {
        self.global_ids.len() - self.owned_count
    }

    /// Owned global ids.
    pub fn owned_global_ids(&self) -> &[usize] {
        &self.global_ids[..self.owned_count]
    }
}

/// Models the halo traffic a partitioning exposes during distributed
/// training/serving: every cut neighbor (a node some part must replicate)
/// costs `2·horizon − 1` entry reads — the window span both the
/// partitioned trainer and the generalized mode's entry halo pay per
/// boundary — of `row_bytes` each.
///
/// This is the objective [`Partitioning::multilevel`] refines toward and
/// the score `repro partition` sweeps, because edge-cut
/// *weight* is the wrong proxy: a part that cuts ten light edges into one
/// neighbor replicates one row, while one that cuts one edge each into ten
/// neighbors replicates ten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloCostModel {
    /// Forecast horizon `h`: each cut neighbor's row is read for the
    /// `2·h − 1` entries every training window spans.
    pub horizon: usize,
    /// Bytes per (node, entry) feature row (`features × 4` for f32).
    pub row_bytes: u64,
}

impl HaloCostModel {
    /// Cost model for a `horizon`-step forecast over `features` f32
    /// features per node.
    pub fn new(horizon: usize, features: usize) -> Self {
        HaloCostModel {
            horizon,
            row_bytes: (features * 4) as u64,
        }
    }

    /// Entry reads per cut neighbor: `2·horizon − 1` (input window plus
    /// label window, sharing the boundary entry).
    pub fn reads_per_cut_neighbor(&self) -> u64 {
        (2 * self.horizon).saturating_sub(1) as u64
    }

    /// Modeled halo bytes of `p` over `graph`:
    /// `cut_neighbors × (2·horizon − 1) × row_bytes`.
    pub fn halo_bytes<'a>(&self, graph: impl Into<Cow<'a, SparseGraph>>, p: &Partitioning) -> u64 {
        p.cut_neighbors(graph) as u64 * self.reads_per_cut_neighbor() * self.row_bytes
    }
}

impl Default for HaloCostModel {
    /// A 12-step horizon (the paper's standard forecast length) over one
    /// f32 feature.
    fn default() -> Self {
        HaloCostModel::new(12, 1)
    }
}

/// Multilevel's balance tolerance, and [`IncrementalConfig`]'s default.
const BALANCE: f64 = 1.15;
/// Multilevel coarsening stops at this many nodes (never below `4·k`).
const COARSEST: usize = 32;
/// Seeded initial-partition candidates tried on the coarsest graph.
const INITIAL_SEEDS: usize = 4;

/// A partitioner named as a value, for sweeps that compare algorithms
/// (`repro partition`): one tag per algorithm, run via
/// [`PartitionerKind::partition`]. Consumers that split a graph take the
/// resulting [`Partitioning`] as an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionerKind {
    /// Contiguous index blocks (the trivial baseline).
    Contiguous,
    /// Recursive coordinate bisection (requires sensor coordinates; falls
    /// back to [`PartitionerKind::GreedyBfs`] without them).
    CoordinateBisection,
    /// Seeded BFS region growing over the weighted edges.
    GreedyBfs,
    /// The multilevel partitioner — the quality default.
    Multilevel,
}

impl PartitionerKind {
    /// Run the chosen partitioner over `adj` (and `coords` when the
    /// algorithm is geometric).
    pub fn partition(
        &self,
        adj: &Adjacency,
        coords: Option<&[(f32, f32)]>,
        k: usize,
    ) -> Partitioning {
        match self {
            PartitionerKind::Contiguous => Partitioning::contiguous(adj.num_nodes(), k),
            PartitionerKind::CoordinateBisection => match coords {
                Some(c) => Partitioning::coordinate_bisection(c, k),
                None => Partitioning::greedy_bfs(adj, k),
            },
            PartitionerKind::GreedyBfs => Partitioning::greedy_bfs(adj, k),
            PartitionerKind::Multilevel => Partitioning::multilevel(adj, k),
        }
    }
}

/// One coarsening level: its undirected graph (summed edge weights), the
/// number of finest-level nodes each node stands for, and the map from
/// the finer level's nodes to this one's (empty at the finest level).
struct CoarseGraph {
    graph: SparseGraph,
    node_weight: Vec<usize>,
    fine_to_coarse: Vec<usize>,
}

impl CoarseGraph {
    fn len(&self) -> usize {
        self.node_weight.len()
    }

    /// Heavy-edge matching + contraction: each unmatched node pairs with
    /// its heaviest unmatched neighbor; pairs (and leftover singletons)
    /// become the next level's nodes.
    fn contract_heavy_edge_matching(&self) -> CoarseGraph {
        let n = self.len();
        let mut mate = vec![usize::MAX; n];
        for u in 0..n {
            if mate[u] != usize::MAX {
                continue;
            }
            let heaviest = self
                .graph
                .neighbors(u)
                .iter()
                .filter(|&&(v, _)| mate[v] == usize::MAX && v != u)
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
            match heaviest {
                Some(&(v, _)) => {
                    mate[u] = v;
                    mate[v] = u;
                }
                None => mate[u] = u,
            }
        }
        // Coarse ids in discovery order keep the contraction deterministic.
        let mut coarse_of = vec![usize::MAX; n];
        let mut next = 0usize;
        for u in 0..n {
            if coarse_of[u] == usize::MAX {
                coarse_of[u] = next;
                let m = mate[u];
                if m != u && m != usize::MAX {
                    coarse_of[m] = next;
                }
                next += 1;
            }
        }
        let mut node_weight = vec![0usize; next];
        let mut maps: Vec<std::collections::BTreeMap<usize, f64>> = vec![Default::default(); next];
        for u in 0..n {
            let cu = coarse_of[u];
            node_weight[cu] += self.node_weight[u];
            for &(v, w) in self.graph.neighbors(u) {
                let cv = coarse_of[v];
                if cu != cv {
                    // Each undirected fine edge is visited from both ends;
                    // halve so coarse weights equal the summed fine weights.
                    *maps[cu].entry(cv).or_insert(0.0) += w as f64 / 2.0;
                }
            }
        }
        let lists = maps
            .into_iter()
            .map(|m| m.into_iter().map(|(v, w)| (v, w as f32)).collect())
            .collect();
        CoarseGraph {
            graph: SparseGraph::from_lists(lists),
            node_weight,
            fine_to_coarse: coarse_of,
        }
    }
}

/// The assignment when there is nothing to refine — one node per part
/// when `k >= n` (parts `n..k` empty), everything in part 0 when `k == 1`
/// — or `None`.
fn trivial_assignment(n: usize, k: usize) -> Option<Vec<usize>> {
    assert!(k > 0, "need at least one part");
    match k {
        1 => Some(vec![0; n]),
        _ if k >= n => Some((0..n).collect()),
        _ => None,
    }
}

/// The multilevel balance cap: `balance × ⌈n/k⌉` nodes, never below
/// `⌈n/k⌉` (a cap under perfect balance would be unsatisfiable).
fn balance_cap(n: usize, k: usize, balance: f64) -> usize {
    let per = n.div_ceil(k);
    ((per as f64 * balance).ceil() as usize).max(per)
}

/// Seeded region growing — the one grower behind
/// [`Partitioning::greedy_bfs`], the multilevel initial partitions (over a
/// coarse level's accumulated node weights) and
/// [`IncrementalPartitioner::partition_fresh`]: `k` seeds are spread
/// farthest-first over hop distance from `start`, regions claim unassigned
/// neighbors round-robin in list order while their weight stays within
/// `cap`, and stranded nodes (cut off from every region with room) fall
/// back to the lightest part. Unreachable nodes rank farthest of all, so
/// every component gets a seed before any gets two. Deterministic.
fn grow_regions(
    g: &SparseGraph,
    node_weight: &[usize],
    k: usize,
    cap: usize,
    start: usize,
) -> Vec<usize> {
    let n = g.num_nodes();
    let mut seeds = vec![start];
    let mut dist = hop_distances(g, start);
    while seeds.len() < k.min(n) {
        let next = (0..n)
            .filter(|i| !seeds.contains(i))
            .max_by_key(|&i| dist[i])
            .expect("k <= n leaves a candidate");
        seeds.push(next);
        let d2 = hop_distances(g, next);
        for i in 0..n {
            dist[i] = dist[i].min(d2[i]);
        }
    }
    let mut assignment = vec![usize::MAX; n];
    let mut weight = vec![0usize; k];
    let mut frontiers: Vec<VecDeque<usize>> = seeds.iter().map(|&s| VecDeque::from([s])).collect();
    frontiers.resize(k, VecDeque::new());
    for (p, &s) in seeds.iter().enumerate() {
        assignment[s] = p;
        weight[p] = node_weight[s];
    }
    let mut progress = true;
    while progress {
        progress = false;
        for p in 0..k {
            if weight[p] >= cap {
                continue;
            }
            while let Some(u) = frontiers[p].pop_front() {
                let mut claimed = false;
                for &(v, _) in g.neighbors(u) {
                    if assignment[v] == usize::MAX && weight[p] + node_weight[v] <= cap {
                        assignment[v] = p;
                        weight[p] += node_weight[v];
                        frontiers[p].push_back(v);
                        claimed = true;
                        progress = true;
                        if weight[p] >= cap {
                            break;
                        }
                    }
                }
                if claimed {
                    // Revisit u later: it may still have unassigned
                    // neighbors once other regions hit their caps.
                    frontiers[p].push_back(u);
                    break;
                }
            }
        }
    }
    for (u, a) in assignment.iter_mut().enumerate() {
        if *a == usize::MAX {
            let p = (0..k).min_by_key(|&p| weight[p]).unwrap();
            *a = p;
            weight[p] += node_weight[u];
        }
    }
    assignment
}

/// Hop distance from `src` to every node (`usize::MAX` when unreachable).
fn hop_distances(g: &SparseGraph, src: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.num_nodes()];
    dist[src] = 0;
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        for &(v, _) in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// Nodes within `depth` hops of `owned` that are not themselves owned,
/// ascending. Depth 0 returns an empty halo; depths saturate at 254 hops.
pub fn halo_nodes<'a>(
    graph: impl Into<Cow<'a, SparseGraph>>,
    owned: &[usize],
    depth: usize,
) -> Vec<usize> {
    if owned.is_empty() || depth == 0 {
        return Vec::new();
    }
    let g = graph.into();
    // One byte per node (`u8::MAX` = unseen): a repair expands a few
    // thousand dirty nodes of a 10⁵-node graph, so this array is the cost.
    let depth = depth.min(usize::from(u8::MAX) - 1) as u8;
    let mut level = vec![u8::MAX; g.num_nodes()];
    let mut q: VecDeque<usize> = VecDeque::new();
    for &o in owned {
        level[o] = 0;
        q.push_back(o);
    }
    let mut halo = Vec::new();
    while let Some(u) = q.pop_front() {
        if level[u] >= depth {
            continue;
        }
        for &(v, _) in g.neighbors(u) {
            if level[v] == u8::MAX {
                level[v] = level[u] + 1;
                halo.push(v);
                q.push_back(v);
            }
        }
    }
    halo.sort_unstable();
    halo
}

/// The induced weighted adjacency over the distinct `nodes` (local
/// indexing follows the order of `nodes`), in `O(N + E_induced)`.
pub fn induced_subgraph(adj: &Adjacency, nodes: &[usize]) -> Adjacency {
    let mut local = vec![usize::MAX; adj.num_nodes()];
    for (li, &gi) in nodes.iter().enumerate() {
        assert_eq!(local[gi], usize::MAX, "node {gi} listed twice");
        local[gi] = li;
    }
    let mut edges = Vec::new();
    for (li, &gi) in nodes.iter().enumerate() {
        edges.extend(
            adj.row(gi)
                .filter(|&(gj, _)| local[gj] != usize::MAX)
                .map(|(gj, w)| (li, local[gj], w)),
        );
    }
    Adjacency::from_edges(nodes.len(), &edges)
}

/// Recursive coordinate bisection helper: assign `ids` to `k` parts
/// starting at part id `base`, splitting along the widest axis.
fn rcb(coords: &[(f32, f32)], ids: &mut [usize], k: usize, base: usize, assignment: &mut [usize]) {
    if k == 1 {
        for &i in ids.iter() {
            assignment[i] = base;
        }
        return;
    }
    // Widest axis of this subset.
    let (mut min_x, mut max_x, mut min_y, mut max_y) = (
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::INFINITY,
        f32::NEG_INFINITY,
    );
    for &i in ids.iter() {
        let (x, y) = coords[i];
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    let by_x = (max_x - min_x) >= (max_y - min_y);
    ids.sort_unstable_by(|&a, &b| {
        let ka = if by_x { coords[a].0 } else { coords[a].1 };
        let kb = if by_x { coords[b].0 } else { coords[b].1 };
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
    });
    let k_left = k / 2;
    let k_right = k - k_left;
    // Split proportionally so odd part counts stay balanced.
    let cut = ids.len() * k_left / k;
    let (left, right) = ids.split_at_mut(cut);
    rcb(coords, left, k_left, base, assignment);
    rcb(coords, right, k_right, base + k_left, assignment);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{highway_corridor, random_geometric};

    fn net() -> crate::generators::SensorNetwork {
        random_geometric(40, 10.0, 7)
    }

    #[test]
    fn contiguous_covers_and_balances() {
        let p = Partitioning::contiguous(10, 3);
        assert_eq!(p.part_sizes(), vec![4, 4, 2]);
        let all: Vec<usize> = (0..3).flat_map(|k| p.part_nodes(k)).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nodes_by_part_matches_per_part_scans() {
        let n = net();
        let p = Partitioning::multilevel(&n.adjacency, 4);
        let by_part = p.nodes_by_part();
        assert_eq!(by_part.len(), 4);
        for (k, owned) in by_part.iter().enumerate() {
            assert_eq!(owned, &p.part_nodes(k), "one-pass grouping, part {k}");
        }
    }

    #[test]
    fn every_partitioner_applies_the_one_edge_rule() {
        // Regression: `w(i,j) + w(j,i)` must be finite and positive to
        // link i and j. A cancelling pair (1-2) used to be an edge for
        // greedy_bfs but not for multilevel, and an infinite sum (3-4)
        // reached an assert inside `SparseGraph`.
        let n = 12;
        let mut w = vec![0.0f32; n * n];
        for i in 0..n - 1 {
            w[i * n + i + 1] = 1.0;
            w[(i + 1) * n + i] = 1.0;
        }
        let clean = {
            let mut c = w.clone();
            for (i, j) in [(1, 2), (2, 1), (3, 4), (4, 3), (6, 7), (7, 6)] {
                c[i * n + j] = 0.0;
            }
            Adjacency::from_dense(n, c)
        };
        w[2 * n + 1] = -1.0;
        w[3 * n + 4] = f32::INFINITY;
        w[6 * n + 7] = f32::NAN;
        let odd = Adjacency::from_dense(n, w);

        let topology = SparseGraph::from_adjacency(&odd);
        assert_eq!(topology.num_edges(), 8, "three of eleven links are no edge");
        let coords: Vec<(f32, f32)> = (0..n).map(|i| (i as f32, 0.0)).collect();
        for k in [2usize, 3, 4] {
            for kind in [
                PartitionerKind::Contiguous,
                PartitionerKind::CoordinateBisection,
                PartitionerKind::GreedyBfs,
                PartitionerKind::Multilevel,
            ] {
                let got = kind.partition(&odd, Some(&coords), k);
                let want = kind.partition(&clean, Some(&coords), k);
                assert_eq!(got.assignment(), want.assignment(), "{kind:?} k={k}");
                assert_eq!(got.cut_neighbors(&odd), want.cut_neighbors(&clean));
            }
            let fresh = |g| IncrementalPartitioner::partition_fresh(g, k, Default::default());
            assert_eq!(
                fresh(topology.clone()).assignment(),
                fresh(SparseGraph::from_adjacency(&clean)).assignment(),
                "partition_fresh k={k}"
            );
        }
        assert!(GraphDelta::between(&odd, &clean).is_empty());
    }

    #[test]
    fn rcb_is_balanced_and_spatially_compact() {
        let n = net();
        let p = Partitioning::coordinate_bisection(&n.coords, 4);
        assert!(p.imbalance() <= 1.11, "imbalance {}", p.imbalance());
        // Spatial compactness: RCB must cut fewer weighted edges than an
        // arbitrary contiguous-index split of the same node set.
        let naive = Partitioning::contiguous(n.num_nodes(), 4);
        assert!(
            p.edge_cut_weight(&n.adjacency) <= naive.edge_cut_weight(&n.adjacency),
            "rcb {} vs naive {}",
            p.edge_cut_weight(&n.adjacency),
            naive.edge_cut_weight(&n.adjacency)
        );
    }

    #[test]
    fn rcb_handles_non_power_of_two() {
        let n = net();
        let p = Partitioning::coordinate_bisection(&n.coords, 3);
        assert_eq!(p.num_parts(), 3);
        assert!(p.part_sizes().iter().all(|&s| s > 0));
        assert!(p.imbalance() <= 1.2, "imbalance {}", p.imbalance());
    }

    #[test]
    fn greedy_bfs_covers_all_nodes() {
        let n = net();
        let p = Partitioning::greedy_bfs(&n.adjacency, 4);
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 40);
        assert!(
            p.part_sizes().iter().all(|&s| s > 0),
            "{:?}",
            p.part_sizes()
        );
        assert!(p.imbalance() <= 1.6, "imbalance {}", p.imbalance());
    }

    #[test]
    fn corridor_bfs_cut_is_small() {
        // A 1-D corridor partitioned into k consecutive regions should cut
        // only the few edges spanning region boundaries.
        let n = highway_corridor(30, 1, 3);
        let p = Partitioning::greedy_bfs(&n.adjacency, 3);
        assert!(
            p.cut_fraction(&n.adjacency) < 0.35,
            "cut fraction {}",
            p.cut_fraction(&n.adjacency)
        );
    }

    #[test]
    fn halo_depth_zero_is_empty_and_grows_with_depth() {
        let n = net();
        let p = Partitioning::coordinate_bisection(&n.coords, 4);
        let owned = p.part_nodes(0);
        assert!(halo_nodes(&n.adjacency, &owned, 0).is_empty());
        let h1 = halo_nodes(&n.adjacency, &owned, 1);
        let h2 = halo_nodes(&n.adjacency, &owned, 2);
        assert!(h1.len() <= h2.len());
        // Halo never contains owned nodes.
        assert!(h1.iter().all(|h| !owned.contains(h)));
    }

    #[test]
    fn subgraph_orders_owned_first_and_keeps_weights() {
        let n = net();
        let p = Partitioning::coordinate_bisection(&n.coords, 2);
        let sub = p.subgraphs(&n.adjacency, 1).swap_remove(1);
        assert_eq!(&sub.global_ids[..sub.owned_count], &p.part_nodes(1)[..]);
        // Induced weights match the global adjacency.
        for (li, &gi) in sub.global_ids.iter().enumerate() {
            for (lj, &gj) in sub.global_ids.iter().enumerate() {
                assert_eq!(sub.adjacency.weight(li, lj), n.adjacency.weight(gi, gj));
            }
        }
    }

    #[test]
    fn replication_factor_at_least_one() {
        let n = net();
        let p = Partitioning::coordinate_bisection(&n.coords, 4);
        let r0 = p.replication_factor(&n.adjacency, 0);
        let r2 = p.replication_factor(&n.adjacency, 2);
        assert!((r0 - 1.0).abs() < 1e-9, "no halo ⇒ no replication");
        assert!(r2 > 1.0, "halo implies replication: {r2}");
    }

    /// Two 4-cliques with no edges between them.
    fn disconnected_adjacency() -> Adjacency {
        let n = 8;
        let mut w = vec![0.0f32; n * n];
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    w[a * n + b] = 1.0;
                    w[(a + 4) * n + (b + 4)] = 1.0;
                }
            }
        }
        Adjacency::from_dense(n, w)
    }

    #[test]
    fn greedy_bfs_covers_disconnected_graphs() {
        // Regression: farthest-first seeding must give every component a
        // seed, and stranded-node fallback must cover the rest — no node
        // left unassigned, no panic.
        let adj = disconnected_adjacency();
        for k in [2usize, 3, 5] {
            let p = Partitioning::greedy_bfs(&adj, k);
            assert_eq!(p.part_sizes().iter().sum::<usize>(), 8, "k={k}");
            assert!(p.part_sizes().iter().all(|&s| s > 0), "k={k}");
        }
        // k = 2 splits exactly along the component boundary.
        let p = Partitioning::greedy_bfs(&adj, 2);
        assert_eq!(p.edge_cut_weight(&adj), 0.0, "components need no cut");
    }

    #[test]
    fn greedy_bfs_k_beyond_n_leaves_empty_parts() {
        // Regression: k > n must not panic — the first n parts get one
        // node each and the rest stay empty (documented behavior that
        // run_partitioned tolerates).
        let adj = disconnected_adjacency();
        let p = Partitioning::greedy_bfs(&adj, 11);
        assert_eq!(p.num_parts(), 11);
        let sizes = p.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert_eq!(sizes.iter().filter(|&&s| s == 0).count(), 3);
        // Empty parts produce empty (but valid) subgraphs.
        let sub = p.subgraphs(&adj, 1).swap_remove(10);
        assert_eq!(sub.num_nodes(), 0);
        assert_eq!(sub.halo_count(), 0);
    }

    #[test]
    fn multilevel_handles_disconnected_and_k_beyond_n() {
        let adj = disconnected_adjacency();
        let p = Partitioning::multilevel(&adj, 2);
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 8);
        assert_eq!(p.edge_cut_weight(&adj), 0.0, "components need no cut");
        let p = Partitioning::multilevel(&adj, 9);
        assert_eq!(p.num_parts(), 9);
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 8);
    }

    #[test]
    fn multilevel_is_balanced_and_beats_greedy_on_corridors() {
        let net = highway_corridor(64, 2, 3);
        let cost = HaloCostModel::new(12, 2);
        for k in [2usize, 4, 8] {
            let ml = Partitioning::multilevel(&net.adjacency, k);
            assert_eq!(ml.part_sizes().iter().sum::<usize>(), 64, "k={k}");
            assert!(ml.part_sizes().iter().all(|&s| s > 0), "k={k}");
            assert!(ml.imbalance() <= 1.3, "k={k} imbalance {}", ml.imbalance());
            let greedy = Partitioning::greedy_bfs(&net.adjacency, k);
            assert!(
                cost.halo_bytes(&net.adjacency, &ml) <= cost.halo_bytes(&net.adjacency, &greedy),
                "k={k}: multilevel must not lose to greedy"
            );
        }
    }

    #[test]
    fn refinement_never_worsens_the_halo_score() {
        let cost = HaloCostModel::new(12, 1);
        let (n, k) = (48, 4);
        let cap = balance_cap(n, k, BALANCE);
        let all: Vec<usize> = (0..n).collect();
        for seed in [1u64, 5, 9] {
            let net = random_geometric(n, 10.0, seed);
            let graph = SparseGraph::from_adjacency(&net.adjacency);
            let score = |a: &[usize]| {
                cost.halo_bytes(
                    &net.adjacency,
                    &Partitioning::from_assignment(a.to_vec(), k),
                )
            };
            // The balanced, unrefined region growing multilevel's finest
            // level would start from, and multilevel's own output.
            let mut grown = CutState::new(
                graph.clone(),
                grow_regions(&graph, &vec![1; n], k, cap, 0),
                Vec::new(),
                k,
            );
            grown.rebalance(cap);
            let ml = Partitioning::multilevel(&net.adjacency, k);
            let solved = CutState::new(graph, ml.assignment().to_vec(), Vec::new(), k);
            for mut state in [grown, solved] {
                let unrefined = score(state.assignment());
                state.refine(&all, cap);
                assert!(
                    score(state.assignment()) <= unrefined,
                    "seed {seed}: refinement must be monotone in halo score"
                );
            }
        }
    }

    #[test]
    fn cut_neighbors_counts_replicas_not_weight() {
        // A path 0-1-2-3 split [0,1] | [2,3]: one cut edge, each side
        // replicates one neighbor → 2 cut neighbors.
        let mut w = vec![0.0f32; 16];
        for i in 0..3 {
            w[i * 4 + i + 1] = 5.0; // heavy weights must not matter
            w[(i + 1) * 4 + i] = 5.0;
        }
        let adj = Adjacency::from_dense(4, w);
        let p = Partitioning::from_assignment(vec![0, 0, 1, 1], 2);
        assert_eq!(p.cut_neighbors(&adj), 2);
        let cost = HaloCostModel::new(3, 2);
        // 2 replicas × (2·3 − 1) reads × 8 bytes.
        assert_eq!(cost.halo_bytes(&adj, &p), 2 * 5 * 8);
        // One part: nothing is replicated.
        let whole = Partitioning::from_assignment(vec![0; 4], 1);
        assert_eq!(whole.cut_neighbors(&adj), 0);
    }

    #[test]
    fn explicit_assignment_validates() {
        let p = Partitioning::from_assignment(vec![0, 1, 1, 0], 2);
        assert_eq!(p.part_nodes(0), vec![0, 3]);
        assert_eq!(p.part_nodes(1), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "part >= k")]
    fn out_of_range_assignment_panics() {
        Partitioning::from_assignment(vec![0, 2], 2);
    }
}
