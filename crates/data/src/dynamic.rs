//! Dynamic graph with temporal signal — the paper's §7 future-work
//! extension ("we plan to extend PGT-I to support additional spatiotemporal
//! data structures such as dynamic graphs with temporal signal").
//!
//! The structure follows PGT's `DynamicGraphTemporalSignal`: node features
//! evolve *and* the edge weights evolve, one adjacency per time step.
//! Index-batching generalizes directly: snapshots remain index-addressed
//! windows into the single feature array, and the per-step adjacencies are
//! themselves index-addressed (no duplication across overlapping windows).

use crate::signal::StaticGraphTemporalSignal;
use st_graph::Adjacency;
use st_tensor::Tensor;
use std::collections::BTreeMap;

/// A graph whose features *and* topology evolve over time.
#[derive(Debug, Clone)]
pub struct DynamicGraphTemporalSignal {
    /// Node features `[entries, nodes, features]`.
    pub data: Tensor,
    /// One weighted adjacency per time step (length = entries).
    pub adjacencies: Vec<Adjacency>,
}

impl DynamicGraphTemporalSignal {
    /// Construct, validating shapes.
    pub fn new(data: Tensor, adjacencies: Vec<Adjacency>) -> Self {
        assert_eq!(data.rank(), 3, "signal must be [entries, nodes, features]");
        assert_eq!(
            data.dim(0),
            adjacencies.len(),
            "need one adjacency per entry"
        );
        for (t, adj) in adjacencies.iter().enumerate() {
            assert_eq!(
                adj.num_nodes(),
                data.dim(1),
                "adjacency at t={t} has wrong node count"
            );
        }
        DynamicGraphTemporalSignal { data, adjacencies }
    }

    /// Number of time entries.
    pub fn entries(&self) -> usize {
        self.data.dim(0)
    }

    /// Number of graph nodes.
    pub fn num_nodes(&self) -> usize {
        self.data.dim(1)
    }

    /// Number of node features.
    pub fn num_features(&self) -> usize {
        self.data.dim(2)
    }

    /// The adjacency at time `t` (index-addressed, never copied).
    pub fn adjacency_at(&self, t: usize) -> &Adjacency {
        &self.adjacencies[t]
    }

    /// An index-batching window: feature views `(x, y)` plus the *borrowed*
    /// adjacency sequence for the x window — the dynamic-graph analogue of
    /// `IndexDataset::snapshot`.
    pub fn window(&self, start: usize, horizon: usize) -> (Tensor, Tensor, &[Adjacency]) {
        let x = self
            .data
            .narrow(0, start, horizon)
            .expect("window in range");
        let y = self
            .data
            .narrow(0, start + horizon, horizon)
            .expect("label window in range");
        (x, y, &self.adjacencies[start..start + horizon])
    }

    /// Number of valid windows for `horizon`.
    pub fn num_windows(&self, horizon: usize) -> usize {
        crate::preprocess::num_snapshots(self.entries(), horizon)
    }

    /// Freeze the topology at `t` into a static-graph signal (for models
    /// that require a fixed support set).
    pub fn frozen_at(&self, t: usize) -> StaticGraphTemporalSignal {
        StaticGraphTemporalSignal::new(self.data.clone(), self.adjacencies[t].clone())
    }

    /// Bytes of an index-batching layout for this structure: one feature
    /// copy + per-step sparse adjacencies + window indices. Contrast with a
    /// materializing layout, which would duplicate both features *and*
    /// adjacency references `horizon`-fold.
    pub fn index_layout_bytes(&self, horizon: usize, elem_bytes: usize) -> u64 {
        let features = (self.data.numel() * elem_bytes) as u64;
        let adj: u64 = self
            .adjacencies
            .iter()
            .map(|a| (a.num_edges() * (elem_bytes + 2 * 8)) as u64)
            .sum();
        features + adj + self.num_windows(horizon) as u64 * 8
    }
}

/// Generate a synthetic dynamic-topology traffic network: a base corridor
/// whose edge weights are modulated per step (incidents closing lanes).
pub fn synthetic_dynamic_traffic(
    nodes: usize,
    entries: usize,
    seed: u64,
) -> DynamicGraphTemporalSignal {
    use rand::Rng;
    use rand::SeedableRng;
    let net = st_graph::generators::highway_corridor(nodes, 1, seed);
    let base = synthetic_base_signal(&net, entries, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1A);
    let n = nodes;
    let mut adjacencies = Vec::with_capacity(entries);
    // Directed edges in row-major order, so an incident drawn as a flat
    // matrix position is a binary search away.
    let mut edges: Vec<(usize, usize, f32)> = (0..n)
        .flat_map(|i| net.adjacency.row(i).map(move |(j, w)| (i, j, w)))
        .collect();
    for _ in 0..entries {
        // Occasionally degrade a random edge (incident) and slowly recover.
        for (_, _, w) in edges.iter_mut() {
            *w = (*w * 1.02).min(1.0);
        }
        if rng.gen_bool(0.05) {
            let e = rng.gen_range(0..n * n);
            if let Ok(at) = edges.binary_search_by_key(&(e / n, e % n), |&(i, j, _)| (i, j)) {
                edges[at].2 *= 0.2;
            }
        }
        adjacencies.push(Adjacency::from_edges(n, &edges));
    }
    DynamicGraphTemporalSignal::new(base, adjacencies)
}

/// Materialize a dynamic signal from a base adjacency plus a
/// streamed-mutation delta chain (see `st_graph::generators::mutation_stream`).
///
/// Entry 0 is `base`; entry `t` applies `deltas[t-1]` on top of entry
/// `t-1`, writing each `(u, v, w)` to both directions. Empty deltas
/// *clone* the previous entry, so frozen stretches share one weight
/// buffer and [`Adjacency::same_topology`] is O(1) there.
/// The signal tensor has a fixed node count, so deltas must not add nodes.
pub fn dynamic_signal_from_deltas(
    base: &Adjacency,
    deltas: &[st_graph::partition::incremental::GraphDelta],
    data: Tensor,
) -> DynamicGraphTemporalSignal {
    assert_eq!(
        data.dim(0),
        deltas.len() + 1,
        "need entries = deltas + 1 (entry 0 is the base topology)"
    );
    let n = base.num_nodes();
    let mut adjacencies = Vec::with_capacity(deltas.len() + 1);
    adjacencies.push(base.clone());
    for delta in deltas {
        assert_eq!(
            delta.added_nodes, 0,
            "dynamic signals have a fixed node count"
        );
        let prev = adjacencies.last().expect("entry 0 pushed above");
        if delta.is_empty() {
            adjacencies.push(prev.clone());
            continue;
        }
        // Later writes win, within the delta and over the previous entry.
        let mut writes: BTreeMap<(usize, usize), f32> = BTreeMap::new();
        for &(u, v, w) in &delta.edges {
            writes.insert((u, v), w);
            writes.insert((v, u), w);
        }
        let kept = (0..n)
            .flat_map(|i| prev.row(i).map(move |(j, w)| (i, j, w)))
            .filter(|&(i, j, _)| !writes.contains_key(&(i, j)));
        let edges: Vec<(usize, usize, f32)> = kept
            .chain(writes.iter().map(|(&(i, j), &w)| (i, j, w)))
            .collect();
        adjacencies.push(Adjacency::from_edges(n, &edges));
    }
    DynamicGraphTemporalSignal::new(data, adjacencies)
}

fn synthetic_base_signal(
    net: &st_graph::generators::SensorNetwork,
    entries: usize,
    seed: u64,
) -> Tensor {
    let sig = crate::synthetic::traffic::generate(net, entries, 288, seed);
    sig.storage.to_tensor()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_share_adjacency_storage() {
        let d = synthetic_dynamic_traffic(6, 30, 3);
        let (x, y, adjs) = d.window(4, 3);
        assert_eq!(x.dims(), &[3, 6, 1]);
        assert_eq!(y.dims(), &[3, 6, 1]);
        assert_eq!(adjs.len(), 3);
        assert!(x.shares_storage(&d.data), "features stay zero-copy");
        // Adjacency slice borrows the per-step list (pointer identity).
        assert!(std::ptr::eq(&d.adjacencies[4], &adjs[0]));
    }

    #[test]
    fn topology_actually_evolves() {
        let d = synthetic_dynamic_traffic(8, 100, 9);
        assert!(
            !d.adjacency_at(0).same_topology(d.adjacency_at(99)),
            "edge weights must change over time"
        );
    }

    #[test]
    fn window_count_matches_static_formula() {
        let d = synthetic_dynamic_traffic(4, 25, 1);
        assert_eq!(d.num_windows(3), 25 - 5);
    }

    #[test]
    fn frozen_signal_is_trainable_shape() {
        let d = synthetic_dynamic_traffic(5, 40, 2);
        let frozen = d.frozen_at(0);
        assert_eq!(frozen.entries(), 40);
        assert_eq!(frozen.num_nodes(), 5);
    }

    #[test]
    fn index_layout_grows_linearly_not_with_horizon() {
        let d = synthetic_dynamic_traffic(5, 60, 4);
        let h4 = d.index_layout_bytes(4, 8);
        let h12 = d.index_layout_bytes(12, 8);
        // Bigger horizon means *fewer* windows, so the layout shrinks
        // slightly — the defining contrast with eq. (1) growth.
        assert!(h12 <= h4);
    }

    #[test]
    fn delta_signal_applies_chain_and_shares_frozen_entries() {
        use st_graph::partition::incremental::GraphDelta;
        let net = st_graph::generators::highway_corridor(4, 1, 1);
        let deltas = vec![
            GraphDelta {
                added_nodes: 0,
                edges: vec![(0, 3, 0.9)],
            },
            GraphDelta {
                added_nodes: 0,
                edges: vec![],
            },
        ];
        let data = Tensor::zeros([3, 4, 1]);
        let d = dynamic_signal_from_deltas(&net.adjacency, &deltas, data);
        assert_eq!(d.entries(), 3);
        assert_eq!(d.adjacency_at(1).weight(0, 3), 0.9);
        assert_eq!(d.adjacency_at(1).weight(3, 0), 0.9, "both directions");
        // The empty delta clones entry 1 — shared storage, O(1) compare.
        assert!(d.adjacency_at(2).same_topology(d.adjacency_at(1)));
        assert!(!d.adjacency_at(0).same_topology(d.adjacency_at(1)));
    }

    #[test]
    #[should_panic(expected = "one adjacency per entry")]
    fn mismatched_lengths_panic() {
        let net = st_graph::generators::highway_corridor(3, 1, 1);
        let data = Tensor::zeros([5, 3, 1]);
        DynamicGraphTemporalSignal::new(data, vec![net.adjacency]);
    }
}
