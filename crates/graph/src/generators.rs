//! Synthetic sensor-network generators.
//!
//! The paper's datasets are sensor networks over real road systems (PeMS,
//! METR-LA), counties (Chickenpox-Hungary) or wind farms (Windmill). We
//! cannot ship those feeds, so we generate networks with the same structural
//! character: a **highway corridor** generator (sensors strung along noisy
//! polylines, like loop detectors on freeways) and a **random geometric**
//! generator (spatially clustered nodes, like counties/windmills). Both are
//! fully seeded for reproducibility.

use crate::adjacency::Adjacency;
use crate::partition::incremental::{GraphDelta, SparseGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated sensor network: coordinates plus weighted adjacency.
#[derive(Debug, Clone)]
pub struct SensorNetwork {
    /// Sensor coordinates in an abstract 2-D plane.
    pub coords: Vec<(f32, f32)>,
    /// Gaussian-kernel weighted adjacency over the coordinates.
    pub adjacency: Adjacency,
}

impl SensorNetwork {
    /// Number of sensors.
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }
}

/// Sensors placed along `lanes` noisy horizontal corridors — a caricature of
/// freeway loop-detector networks like PeMS. Neighboring sensors along a
/// corridor end up strongly connected; corridors interact weakly.
pub fn highway_corridor(n: usize, lanes: usize, seed: u64) -> SensorNetwork {
    assert!(n > 0 && lanes > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let per_lane = n.div_ceil(lanes);
    let mut coords = Vec::with_capacity(n);
    for lane in 0..lanes {
        let y0 = lane as f32 * 5.0;
        for i in 0..per_lane {
            if coords.len() == n {
                break;
            }
            let x = i as f32 + rng.gen_range(-0.2..0.2);
            let y = y0 + rng.gen_range(-0.5..0.5);
            coords.push((x, y));
        }
    }
    let adjacency = Adjacency::from_coordinates(&coords, Some(2.0), 0.05);
    SensorNetwork { coords, adjacency }
}

/// Uniformly random sensors in a square with Gaussian-kernel connectivity —
/// a caricature of county/wind-farm layouts.
pub fn random_geometric(n: usize, extent: f32, seed: u64) -> SensorNetwork {
    assert!(n > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let coords: Vec<(f32, f32)> = (0..n)
        .map(|_| (rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)))
        .collect();
    // Sigma scaled to the typical nearest-neighbor distance so the graph
    // stays sparse as n grows.
    let sigma = extent / (n as f32).sqrt() * 2.0;
    let adjacency = Adjacency::from_coordinates(&coords, Some(sigma), 0.05);
    SensorNetwork { coords, adjacency }
}

/// Sensors on a jittered `rows × cols` lattice — a caricature of urban
/// arterial grids (city block detectors), the topology where partition
/// boundaries cost the most because every interior node has four strong
/// neighbors.
pub fn city_grid(rows: usize, cols: usize, seed: u64) -> SensorNetwork {
    let coords = grid_coords(rows, cols, seed);
    let adjacency = Adjacency::from_coordinates(&coords, Some(1.0), 0.2);
    SensorNetwork { coords, adjacency }
}

/// Row-major lattice positions, each jittered by up to ±0.15 per axis.
fn grid_coords(rows: usize, cols: usize, seed: u64) -> Vec<(f32, f32)> {
    assert!(rows > 0 && cols > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            coords.push((
                c as f32 + rng.gen_range(-0.15..0.15),
                r as f32 + rng.gen_range(-0.15..0.15),
            ));
        }
    }
    coords
}

/// A scale-free (Barabási–Albert preferential-attachment) network: each
/// new node attaches `m` edges to existing nodes with probability
/// proportional to their degree. Hubs emerge, so edge-cut-oblivious
/// partitioners that slice through a hub replicate it everywhere — the
/// adversarial case for the halo cost model. Coordinates are random (the
/// topology, unlike the geometric generators, is not planar).
pub fn scale_free(n: usize, m: usize, seed: u64) -> SensorNetwork {
    let net = scale_free_sparse(n, m, seed);
    SensorNetwork {
        adjacency: net.graph.to_adjacency(),
        coords: net.coords,
    }
}

/// A generated sensor network in adjacency-list form — the mutable
/// representation the dynamic (10⁵–10⁶ node) workloads stream deltas into.
#[derive(Debug, Clone)]
pub struct SparseNetwork {
    /// Sensor coordinates in an abstract 2-D plane.
    pub coords: Vec<(f32, f32)>,
    /// Undirected weighted adjacency lists over the coordinates.
    pub graph: SparseGraph,
}

impl SparseNetwork {
    /// Number of sensors.
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }
}

/// [`city_grid`] in `O(N)` time: the same jittered `rows × cols` lattice
/// with Gaussian-kernel weights (`σ = 1`, threshold 0.2), but only the
/// 4-neighbor lattice pairs are candidate edges (and there are no
/// self-loops), where [`city_grid`] weighs all `N²` pairs — city-block
/// topology at city scale.
pub fn city_grid_sparse(rows: usize, cols: usize, seed: u64) -> SparseNetwork {
    let coords = grid_coords(rows, cols, seed);
    let n = rows * cols;
    let mut edges = Vec::with_capacity(2 * n);
    let push = |edges: &mut Vec<(usize, usize, f32)>, u: usize, v: usize| {
        let (dx, dy) = (coords[u].0 - coords[v].0, coords[u].1 - coords[v].1);
        let w = (-(dx * dx + dy * dy)).exp();
        if w >= 0.2 {
            edges.push((u, v, w));
        }
    };
    for r in 0..rows {
        for c in 0..cols {
            let u = r * cols + c;
            if c + 1 < cols {
                push(&mut edges, u, u + 1);
            }
            if r + 1 < rows {
                push(&mut edges, u, u + cols);
            }
        }
    }
    let graph = SparseGraph::from_edges(n, &edges);
    SparseNetwork { coords, graph }
}

/// The Barabási–Albert preferential-attachment process behind
/// [`scale_free`], in adjacency-list form.
pub fn scale_free_sparse(n: usize, m: usize, seed: u64) -> SparseNetwork {
    assert!(n > m && m > 0, "need n > m >= 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n * m);
    // Seed clique over the first m+1 nodes so early attachments connect.
    for i in 0..=m {
        for j in (i + 1)..=m {
            edges.push((i, j, 1.0));
        }
    }
    // Degree-weighted target list: node i appears once per incident edge.
    let mut targets: Vec<usize> = (0..=m).collect();
    for u in (m + 1)..n {
        let mut chosen = Vec::with_capacity(m);
        while chosen.len() < m {
            let v = targets[rng.gen_range(0..targets.len())];
            if v != u && !chosen.contains(&v) {
                chosen.push(v);
            }
        }
        for &v in &chosen {
            edges.push((u, v, 1.0));
            targets.push(u);
            targets.push(v);
        }
    }
    let coords: Vec<(f32, f32)> = (0..n)
        .map(|_| (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
        .collect();
    let graph = SparseGraph::from_edges(n, &edges);
    SparseNetwork { coords, graph }
}

/// How much a dynamic workload mutates per timeline entry.
#[derive(Debug, Clone, Copy)]
pub struct MutationConfig {
    /// Edge-churn operations per entry (each removes, reweights, or adds
    /// one edge around a random node).
    pub edge_churn: usize,
    /// New nodes arriving per entry.
    pub node_arrivals: usize,
    /// Edges each arriving node attaches to existing nodes.
    pub attach_edges: usize,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            edge_churn: 16,
            node_arrivals: 0,
            attach_edges: 2,
        }
    }
}

/// Generate a streamed-mutation workload: `entries - 1` seeded
/// [`GraphDelta`]s evolving `net` one timeline entry at a time.
///
/// Each entry applies [`MutationConfig::edge_churn`] local operations —
/// half remove or halve a random incident edge, half add a 2-hop shortcut
/// (falling back to a random endpoint when no 2-hop candidate exists) —
/// then lands [`MutationConfig::node_arrivals`] new nodes, each attaching
/// uniformly at random. Deltas chain: delta `t` is relative to the graph
/// after deltas `0..t` have been applied.
pub fn mutation_stream(
    net: &SparseNetwork,
    entries: usize,
    cfg: MutationConfig,
    seed: u64,
) -> Vec<GraphDelta> {
    assert!(entries > 0, "a timeline has at least one entry");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = net.graph.clone();
    let mut deltas = Vec::with_capacity(entries - 1);
    for _ in 1..entries {
        let mut delta = GraphDelta {
            added_nodes: cfg.node_arrivals,
            edges: Vec::new(),
        };
        for _ in 0..cfg.edge_churn {
            let n = g.num_nodes();
            let u = rng.gen_range(0..n);
            if rng.gen_bool(0.5) {
                // Decay: remove or halve one incident edge of `u`.
                let deg = g.degree(u);
                if deg == 0 {
                    continue;
                }
                let (v, w) = g.neighbors(u)[rng.gen_range(0..deg)];
                let w = if rng.gen_bool(0.5) { 0.0 } else { 0.5 * w };
                g.set_edge(u, v, w);
                delta.edges.push((u, v, w));
            } else {
                // Growth: shortcut `u` to a 2-hop neighbor if one exists,
                // otherwise to a random distinct node.
                let two_hop = g
                    .neighbors(u)
                    .first()
                    .and_then(|&(v, _)| {
                        g.neighbors(v)
                            .iter()
                            .map(|&(x, _)| x)
                            .find(|&x| x != u && g.edge_weight(u, x) == 0.0)
                    })
                    .or_else(|| {
                        let x = rng.gen_range(0..n);
                        (x != u).then_some(x)
                    });
                if let Some(x) = two_hop {
                    g.set_edge(u, x, 1.0);
                    delta.edges.push((u, x, 1.0));
                }
            }
        }
        let first_new = g.num_nodes();
        g.add_nodes(cfg.node_arrivals);
        for u in first_new..g.num_nodes() {
            for _ in 0..cfg.attach_edges {
                let v = rng.gen_range(0..first_new);
                g.set_edge(u, v, 1.0);
                delta.edges.push((u, v, 1.0));
            }
        }
        deltas.push(delta);
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corridor_has_requested_size_and_is_seeded() {
        let a = highway_corridor(50, 2, 7);
        let b = highway_corridor(50, 2, 7);
        assert_eq!(a.num_nodes(), 50);
        assert_eq!(a.coords, b.coords, "same seed, same network");
        let c = highway_corridor(50, 2, 8);
        assert_ne!(a.coords, c.coords, "different seed, different network");
    }

    #[test]
    fn corridor_neighbors_are_connected() {
        let net = highway_corridor(20, 1, 3);
        // Adjacent sensors on the same lane are ~1 unit apart -> strong edge.
        let w = net.adjacency.weight(0, 1);
        assert!(w > 0.5, "adjacent corridor sensors weakly connected: {w}");
    }

    #[test]
    fn geometric_network_is_sparse_for_large_n() {
        let net = random_geometric(200, 100.0, 5);
        let density = net.adjacency.num_edges() as f32 / (200.0 * 200.0);
        assert!(density < 0.2, "density {density} too high");
        // But not empty (self loops at minimum).
        assert!(net.adjacency.num_edges() >= 200);
    }

    #[test]
    fn grid_is_seeded_and_lattice_connected() {
        let a = city_grid(4, 5, 3);
        let b = city_grid(4, 5, 3);
        assert_eq!(a.num_nodes(), 20);
        assert_eq!(a.coords, b.coords, "same seed, same grid");
        // Horizontal and vertical lattice neighbors are strongly connected.
        assert!(a.adjacency.weight(0, 1) > 0.3, "row neighbor");
        assert!(a.adjacency.weight(0, 5) > 0.3, "column neighbor");
    }

    #[test]
    fn scale_free_has_hubs() {
        let net = scale_free(60, 2, 9);
        assert_eq!(net.num_nodes(), 60);
        let mut degrees: Vec<usize> = (0..60)
            .map(|i| {
                (0..60)
                    .filter(|&j| net.adjacency.weight(i, j) > 0.0)
                    .count()
            })
            .collect();
        degrees.sort_unstable();
        // Preferential attachment: the max degree dwarfs the median.
        assert!(
            degrees[59] >= 2 * degrees[30],
            "no hub: max {} median {}",
            degrees[59],
            degrees[30]
        );
        // Every node has at least m = 2 edges (attachment or seed clique).
        assert!(degrees[0] >= 2);
    }

    #[test]
    fn sparse_grid_matches_lattice_structure() {
        let net = city_grid_sparse(4, 5, 3);
        assert_eq!(net.num_nodes(), 20);
        let again = city_grid_sparse(4, 5, 3);
        assert_eq!(net.coords, again.coords, "same seed, same grid");
        // Interior nodes have exactly their 4 lattice neighbors.
        assert_eq!(net.graph.degree(6), 4);
        assert!(net.graph.edge_weight(0, 1) > 0.2, "row neighbor");
        assert!(net.graph.edge_weight(0, 5) > 0.2, "column neighbor");
        assert_eq!(net.graph.edge_weight(0, 6), 0.0, "no diagonal edges");
    }

    #[test]
    fn sparse_scale_free_has_hubs_and_min_degree() {
        let net = scale_free_sparse(300, 2, 9);
        assert_eq!(net.num_nodes(), 300);
        let mut degrees: Vec<usize> = (0..300).map(|i| net.graph.degree(i)).collect();
        degrees.sort_unstable();
        assert!(
            degrees[299] >= 2 * degrees[150],
            "no hub: max {} median {}",
            degrees[299],
            degrees[150]
        );
        assert!(degrees[0] >= 2, "every node attaches m = 2 edges");
    }

    #[test]
    fn mutation_stream_is_seeded_and_chains() {
        let net = city_grid_sparse(8, 8, 1);
        let cfg = MutationConfig {
            edge_churn: 6,
            node_arrivals: 1,
            attach_edges: 2,
        };
        let a = mutation_stream(&net, 5, cfg, 42);
        let b = mutation_stream(&net, 5, cfg, 42);
        assert_eq!(a.len(), 4, "entries - 1 deltas");
        for (da, db) in a.iter().zip(&b) {
            assert_eq!(da.added_nodes, db.added_nodes);
            assert_eq!(da.edges, db.edges, "same seed, same stream");
        }
        // Replaying the chain keeps every edge endpoint in bounds.
        let mut g = net.graph.clone();
        for d in &a {
            let before = g.num_nodes();
            g.add_nodes(d.added_nodes);
            for &(u, v, w) in &d.edges {
                assert!(u < g.num_nodes() && v < g.num_nodes());
                g.set_edge(u, v, w);
            }
            assert_eq!(g.num_nodes(), before + d.added_nodes);
        }
        assert_eq!(g.num_nodes(), 64 + 4);
    }

    #[test]
    fn geometric_network_within_extent() {
        let net = random_geometric(50, 10.0, 9);
        assert!(net
            .coords
            .iter()
            .all(|&(x, y)| (0.0..10.0).contains(&x) && (0.0..10.0).contains(&y)));
    }
}
