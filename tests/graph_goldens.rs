//! `st_graph` goldens.
//!
//! FNV-1a digests of everything the graph layer hands to the rest of the
//! system — partition assignments, `Csr` supports, halo subgraphs, cut
//! metrics, delta order, the dynamic generators' per-entry adjacencies and
//! one incremental repair trajectory — recorded at commit `985aeb7`, when
//! `Adjacency` still stored a dense `N×N` buffer and the partitioners came
//! in dense/sparse pairs. They are read only through API that does not
//! depend on the storage (`weight(i, j)`, `assignment()`, `Csr::row`), so
//! a change of graph store is correct when this file passes unchanged.
//!
//! The `*/multilevel` assignment rows and the multilevel `SUBGRAPHS` rows
//! were re-pinned once, when multilevel moved onto the refinement core
//! `IncrementalPartitioner` maintains; every other row, the
//! `*/partition_fresh` rows and the repair trajectory included, is as
//! recorded at `985aeb7`. The trajectory's `chain200/` rows were added
//! later, recorded on the code of `4792d50`, before a repair priced each
//! node in one sweep and skipped settled nodes.

use pgt_i::data::dynamic::{dynamic_signal_from_deltas, synthetic_dynamic_traffic};
use pgt_i::graph::generators::{
    city_grid, highway_corridor, mutation_stream, random_geometric, scale_free, scale_free_sparse,
    MutationConfig,
};
use pgt_i::graph::transition::scaled_laplacian;
use pgt_i::graph::{
    diffusion_supports, sym_norm_adjacency, Adjacency, Csr, GraphDelta, IncrementalConfig,
    IncrementalPartitioner, Partitioning, SparseGraph,
};
use pgt_i::tensor::Tensor;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn ids(&mut self, ids: &[usize]) {
        self.word(ids.len() as u64);
        for &i in ids {
            self.word(i as u64);
        }
    }

    /// Every `(i, j)` weight, row-major — the storage-independent view.
    fn adjacency(&mut self, adj: &Adjacency) {
        let n = adj.num_nodes();
        self.word(n as u64);
        for i in 0..n {
            for j in 0..n {
                self.word(u64::from(adj.weight(i, j).to_bits()));
            }
        }
    }

    /// Shape, then per row its length and `(column, value bits)` pairs:
    /// row pointers, column indices and values all move the digest.
    fn csr(&mut self, m: &Csr) {
        let (rows, cols) = m.shape();
        self.word(rows as u64);
        self.word(cols as u64);
        for r in 0..rows {
            self.word(m.row(r).count() as u64);
            for (c, v) in m.row(r) {
                self.word(c as u64);
                self.word(u64::from(v.to_bits()));
            }
        }
    }
}

/// Compare a computed `(label, digest)` table with the recorded one; on a
/// mismatch print the computed table in source form.
fn assert_table(what: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gl, gd), (wl, wd))| gl == wl && gd == wd);
    if !same {
        for (label, digest) in got {
            eprintln!("    (\"{label}\", {digest:#018x}),");
        }
        panic!("{what}: digests moved (computed table printed above)");
    }
}

/// Two 4-cliques with no edge between them.
fn disconnected() -> Adjacency {
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

/// A directed, asymmetric graph: a random-geometric adjacency with a
/// deterministic subset of directed entries removed or rescaled.
fn directed(n: usize, seed: u64) -> Adjacency {
    let base = random_geometric(n, 8.0, seed).adjacency;
    let mut w = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            w[i * n + j] = match (i * 7 + j * 3) % 5 {
                0 => 0.0,
                1 => 0.5 * base.weight(i, j),
                _ => base.weight(i, j),
            };
        }
    }
    Adjacency::from_dense(n, w)
}

/// A graph every partitioner is pinned on, with the coordinates of the
/// generated ones.
struct Fixture {
    name: &'static str,
    adj: Adjacency,
    coords: Option<Vec<(f32, f32)>>,
}

fn graphs() -> Vec<Fixture> {
    let mut out: Vec<Fixture> = [
        ("corridor", highway_corridor(96, 2, 3)),
        ("geometric", random_geometric(80, 10.0, 7)),
        ("grid", city_grid(9, 10, 5)),
        ("scale_free", scale_free(120, 3, 9)),
    ]
    .into_iter()
    .map(|(name, net)| Fixture {
        name,
        adj: net.adjacency,
        coords: Some(net.coords),
    })
    .collect();
    out.push(Fixture {
        name: "disconnected",
        adj: disconnected(),
        coords: None,
    });
    out
}

const KS: [usize; 4] = [2, 3, 4, 8];

#[test]
fn partition_assignments() {
    let mut got = Vec::new();
    for Fixture { name, adj, coords } in graphs() {
        let n = adj.num_nodes();
        let mut rows: Vec<(&str, Fnv)> = vec![
            ("contiguous", Fnv::new()),
            ("greedy_bfs", Fnv::new()),
            ("multilevel", Fnv::new()),
            ("partition_fresh", Fnv::new()),
        ];
        let mut rcb = Fnv::new();
        for k in KS {
            rows[0]
                .1
                .ids(Partitioning::contiguous(n, k.min(n)).assignment());
            rows[1]
                .1
                .ids(Partitioning::greedy_bfs(&adj, k).assignment());
            rows[2]
                .1
                .ids(Partitioning::multilevel(&adj, k).assignment());
            let fresh = IncrementalPartitioner::partition_fresh(
                SparseGraph::from_adjacency(&adj),
                k,
                IncrementalConfig::default(),
            );
            rows[3].1.ids(fresh.assignment());
            if let Some(c) = &coords {
                rcb.ids(Partitioning::coordinate_bisection(c, k).assignment());
            }
        }
        for (algo, h) in rows {
            got.push((format!("{name}/{algo}"), h.0));
        }
        if coords.is_some() {
            got.push((format!("{name}/coordinate_bisection"), rcb.0));
        }
    }
    assert_table("partition assignments", &got, &ASSIGNMENTS);
}

const ASSIGNMENTS: [(&str, u64); 24] = [
    ("corridor/contiguous", 0x60cebdf262849625),
    ("corridor/greedy_bfs", 0xfdd19c356c8527a5),
    ("corridor/multilevel", 0xd574d3a4cf35a725),
    ("corridor/partition_fresh", 0xa5cb3300ef430ce3),
    ("corridor/coordinate_bisection", 0xe669d130a7f23625),
    ("geometric/contiguous", 0x422e43879a2a9ea4),
    ("geometric/greedy_bfs", 0xa50128a87c5599e6),
    ("geometric/multilevel", 0x9f5695d2575ba461),
    ("geometric/partition_fresh", 0xaf0825506e7572a6),
    ("geometric/coordinate_bisection", 0x7dd9b56117531186),
    ("grid/contiguous", 0x889e09bd448e9744),
    ("grid/greedy_bfs", 0x1b4a21ff286b1305),
    ("grid/multilevel", 0xe7762c49340ff1c3),
    ("grid/partition_fresh", 0xdc819bb21e3fd0c4),
    ("grid/coordinate_bisection", 0xd465d50aa466ab42),
    ("scale_free/contiguous", 0xad0919e9bc4dbaa5),
    ("scale_free/greedy_bfs", 0xd6d9860ccf6fde65),
    ("scale_free/multilevel", 0xa91262001e194322),
    ("scale_free/partition_fresh", 0x0e827fbdad046d61),
    ("scale_free/coordinate_bisection", 0xfb6df632d52edf85),
    ("disconnected/contiguous", 0xf12d96d77cdf61a4),
    ("disconnected/greedy_bfs", 0x483b3a3049c75884),
    ("disconnected/multilevel", 0x953d17885529eca6),
    ("disconnected/partition_fresh", 0x953d17885529eca6),
];

#[test]
fn transition_operators() {
    let mut got = Vec::new();
    for (name, adj) in [
        ("symmetric", highway_corridor(40, 2, 3).adjacency),
        ("directed", directed(30, 4)),
    ] {
        for k in [2usize, 3] {
            let mut h = Fnv::new();
            for s in diffusion_supports(&adj, k) {
                h.csr(&s);
            }
            got.push((format!("{name}/diffusion_supports_k{k}"), h.0));
        }
        let mut h = Fnv::new();
        h.csr(&sym_norm_adjacency(&adj));
        got.push((format!("{name}/sym_norm_adjacency"), h.0));
        let mut h = Fnv::new();
        h.csr(&scaled_laplacian(&adj));
        got.push((format!("{name}/scaled_laplacian"), h.0));
    }
    assert_table("transition operators", &got, &OPERATORS);
}

const OPERATORS: [(&str, u64); 8] = [
    ("symmetric/diffusion_supports_k2", 0x44e52a544ee07881),
    ("symmetric/diffusion_supports_k3", 0x8f85fd6e32815391),
    ("symmetric/sym_norm_adjacency", 0x3be275a5010f09e4),
    ("symmetric/scaled_laplacian", 0x23443f83a212e9e4),
    ("directed/diffusion_supports_k2", 0x0bcdb49e8cca3bf5),
    ("directed/diffusion_supports_k3", 0x58c9fe8764177793),
    ("directed/sym_norm_adjacency", 0xa72a1aba5959c20f),
    ("directed/scaled_laplacian", 0x9fcdd65f046bb50f),
];

#[test]
fn subgraphs_cut_metrics_and_delta_order() {
    let mut got = Vec::new();
    for Fixture { name, adj, .. } in graphs() {
        let p = Partitioning::multilevel(&adj, 3);
        let mut h = Fnv::new();
        for depth in 0..=2 {
            for sub in p.subgraphs(&adj, depth) {
                h.word(sub.part as u64);
                h.word(sub.owned_count as u64);
                h.ids(&sub.global_ids);
                h.adjacency(&sub.adjacency);
            }
        }
        got.push((format!("{name}/subgraphs"), h.0));
        got.push((
            format!("{name}/edge_cut_weight"),
            p.edge_cut_weight(&adj).to_bits(),
        ));
        got.push((
            format!("{name}/cut_fraction"),
            p.cut_fraction(&adj).to_bits(),
        ));
        let mut h = Fnv::new();
        for depth in 0..=2 {
            h.word(p.replication_factor(&adj, depth).to_bits());
        }
        got.push((format!("{name}/replication_factor"), h.0));
    }
    // Delta order: a symmetric graph against a directed edit of itself.
    let (a, b) = (random_geometric(30, 8.0, 4).adjacency, directed(30, 4));
    let mut h = Fnv::new();
    for (u, v, w) in GraphDelta::between(&a, &b).edges {
        h.word(u as u64);
        h.word(v as u64);
        h.word(u64::from(w.to_bits()));
    }
    got.push(("delta_between".to_string(), h.0));
    assert_table("subgraphs and cut metrics", &got, &SUBGRAPHS);
}

const SUBGRAPHS: [(&str, u64); 21] = [
    ("corridor/subgraphs", 0x8e162adfbd8d5012),
    ("corridor/edge_cut_weight", 0x401d668f78000000),
    ("corridor/cut_fraction", 0x3fa0c1d49ea7f0e4),
    ("corridor/replication_factor", 0xb67b6a4ea81a6fc6),
    ("geometric/subgraphs", 0x0e40e74833ca565e),
    ("geometric/edge_cut_weight", 0x406a485ce1d00000),
    ("geometric/cut_fraction", 0x3fd0d021eb2115a9),
    ("geometric/replication_factor", 0x86fbf5e2dc44970c),
    ("grid/subgraphs", 0x4fd301d5e3638857),
    ("grid/edge_cut_weight", 0x402776168d000000),
    ("grid/cut_fraction", 0x3fb7d54a5762c479),
    ("grid/replication_factor", 0xb279ed9e6ba08226),
    ("scale_free/subgraphs", 0xacd88ad956e777b5),
    ("scale_free/edge_cut_weight", 0x4072800000000000),
    ("scale_free/cut_fraction", 0x3fdac1ced329f189),
    ("scale_free/replication_factor", 0xd62a1810c2a7edb5),
    ("disconnected/subgraphs", 0x26096ec269498180),
    ("disconnected/edge_cut_weight", 0x4018000000000000),
    ("disconnected/cut_fraction", 0x3fd0000000000000),
    ("disconnected/replication_factor", 0x22117d7f7d62fee8),
    ("delta_between", 0x89c307b531043336),
];

#[test]
fn generated_adjacencies() {
    let mut got = Vec::new();
    let mut h = Fnv::new();
    for adj in &synthetic_dynamic_traffic(12, 120, 9).adjacencies {
        h.adjacency(adj);
    }
    got.push(("synthetic_dynamic_traffic".to_string(), h.0));

    let net = pgt_i::graph::generators::city_grid_sparse(5, 6, 2);
    let cfg = MutationConfig {
        edge_churn: 5,
        node_arrivals: 0,
        attach_edges: 0,
    };
    let mut deltas = mutation_stream(&net, 9, cfg, 13);
    deltas[3] = GraphDelta::default(); // a frozen stretch shares its entry
    let data = Tensor::zeros([deltas.len() + 1, 30, 1]);
    let signal = dynamic_signal_from_deltas(&net.graph.to_adjacency(), &deltas, data);
    assert!(signal.adjacencies[4].same_topology(&signal.adjacencies[3]));
    let mut h = Fnv::new();
    for adj in &signal.adjacencies {
        h.adjacency(adj);
    }
    got.push(("dynamic_signal_from_deltas".to_string(), h.0));

    // The dense and the sparse scale-free generator draw the same graph.
    let (dense, sparse) = (scale_free(90, 3, 21), scale_free_sparse(90, 3, 21));
    assert_eq!(dense.coords, sparse.coords);
    for i in 0..90 {
        for j in 0..90 {
            let w = if i == j {
                0.0
            } else {
                sparse.graph.edge_weight(i, j)
            };
            assert_eq!(dense.adjacency.weight(i, j).to_bits(), w.to_bits());
        }
    }
    let mut h = Fnv::new();
    h.adjacency(&dense.adjacency);
    got.push(("scale_free".to_string(), h.0));
    let mut h = Fnv::new();
    h.adjacency(&city_grid(5, 6, 2).adjacency);
    got.push(("city_grid".to_string(), h.0));
    let mut h = Fnv::new();
    h.adjacency(&net.graph.to_adjacency());
    got.push(("city_grid_sparse".to_string(), h.0));
    assert_table("generated adjacencies", &got, &GENERATED);
}

const GENERATED: [(&str, u64); 5] = [
    ("synthetic_dynamic_traffic", 0x013ba0e98733a5eb),
    ("dynamic_signal_from_deltas", 0x56500cd56f639b3b),
    ("scale_free", 0xed76fa85e380853f),
    ("city_grid", 0x77154a759e56838b),
    ("city_grid_sparse", 0xd4c426961c53806b),
];

/// The deterministic stand-in for `bench/`'s `graph_repartition`, whose own
/// counters depend on how many repairs fit its time box: a fresh solve of a
/// scale-free graph, then a chain of churn-and-arrival deltas — once under
/// the workload's own knobs and once with no drift allowance and no dirty
/// halo, so the rebuild path is on the record too. The stream is drawn
/// from one sequential generator, so its first 40 deltas are the original
/// short chain: its rows are taken there, and the `chain200/` rows at the
/// end. The 200-delta chain grows the graph by a fifth and runs many
/// multi-pass repairs and, without the drift allowance, repeated rebuilds.
#[test]
fn incremental_repair_trajectory() {
    const SHORT: usize = 40;
    const LONG: usize = 200;
    let net = scale_free_sparse(4000, 3, 2025);
    let cfg = MutationConfig {
        edge_churn: 64,
        node_arrivals: 4,
        attach_edges: 2,
    };
    let deltas = mutation_stream(&net, LONG + 1, cfg, 2025);
    assert_eq!(deltas.len(), LONG);
    let (mut got, mut long) = (Vec::new(), Vec::new());
    for (label, drift, halo_depth) in [("bench", 0.10, 1), ("no_drift", 0.0, 0)] {
        let mut inc = IncrementalPartitioner::partition_fresh(
            net.graph.clone(),
            8,
            IncrementalConfig {
                drift,
                halo_depth,
                ..IncrementalConfig::for_horizon(12, 2)
            },
        );
        let mut fresh = Fnv::new();
        fresh.ids(inc.assignment());
        fresh.word(inc.halo_bytes());
        got.push((format!("{label}/fresh_solve"), fresh.0));
        let mut stats = Fnv::new();
        let (mut moves, mut rebuilds) = (0, 0);
        for (i, d) in deltas.iter().enumerate() {
            let s = inc.apply_delta(d);
            moves += s.moves;
            rebuilds += usize::from(s.rebuilt);
            stats.word(s.dirty_nodes as u64);
            stats.word(s.moves as u64);
            stats.word(u64::from(s.rebuilt));
            stats.word(s.halo_bytes);
            let (rows, label) = match i + 1 {
                SHORT => (&mut got, label.to_string()),
                LONG => (&mut long, format!("chain{LONG}/{label}")),
                _ => continue,
            };
            assert!(moves > 0, "{label}: the chain must exercise the repair");
            assert_eq!(rebuilds > 0, drift == 0.0, "{label}: {rebuilds} rebuilds");
            let mut last = Fnv::new();
            last.ids(inc.assignment());
            last.word(inc.cut_neighbors() as u64);
            rows.push((format!("{label}/repair_stats"), stats.0));
            rows.push((format!("{label}/final_assignment"), last.0));
        }
    }
    got.extend(long);
    assert_table("incremental repair trajectory", &got, &TRAJECTORY);
}

const TRAJECTORY: [(&str, u64); 10] = [
    ("bench/fresh_solve", 0x1d61acf10354d2a1),
    ("bench/repair_stats", 0x076f155dc0158547),
    ("bench/final_assignment", 0xd0e7a6337cfe2971),
    ("no_drift/fresh_solve", 0x1d61acf10354d2a1),
    ("no_drift/repair_stats", 0x2db432ca2937ddec),
    ("no_drift/final_assignment", 0xb28b26266a7ad470),
    ("chain200/bench/repair_stats", 0xd54d6f72223750c2),
    ("chain200/bench/final_assignment", 0x25e9c66974dcbed6),
    ("chain200/no_drift/repair_stats", 0x79ac1cfeb0fef96b),
    ("chain200/no_drift/final_assignment", 0x55a0018e45dc0998),
];
