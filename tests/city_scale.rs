//! The graph layer at city scale (ROADMAP item 5's gate, tier-1 half).
//!
//! A 25,600-node street grid goes through everything partitioned training
//! asks of `st_graph` — partition, halo subgraphs, per-part diffusion
//! supports, the three split metrics — in `O(E)` memory. As a dense `N×N`
//! `f32` matrix the adjacency alone would be 2.6 GB. This file is its own
//! test binary so that the peak-RSS bound below is about this run only.
//!
//! The second test judges the partitioner on the same grid over seeds
//! 1–8: every seed balanced, never worse than region growing, and within
//! 1.25× of the best seed's cut. Multilevel once refined with an `O(N)`
//! scan per move, and four of these seeds took 10–27 s in release for a
//! cut 6–13× its best seed's; on the shared refinement core each seed
//! takes milliseconds. The bounds are counts, so no wall clock is asserted.

use pgt_i::graph::generators::city_grid_sparse;
use pgt_i::graph::{
    diffusion_supports, HaloCostModel, IncrementalConfig, IncrementalPartitioner, PartitionerKind,
    Partitioning,
};

/// Peak resident set of this process in MB (Linux; `None` elsewhere).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[test]
fn a_city_grid_is_partitioned_and_priced_in_edge_proportional_memory() {
    const SIDE: usize = 160;
    const K: usize = 8;
    const HORIZON: usize = 2;
    let n = SIDE * SIDE;
    let net = city_grid_sparse(SIDE, SIDE, 2);
    let adj = net.graph.to_adjacency();
    assert_eq!(adj.num_nodes(), n);
    assert_eq!(adj.num_edges(), 2 * net.graph.num_edges());

    let parts = PartitionerKind::Multilevel.partition(&adj, None, K);
    let sizes = parts.part_sizes();
    assert_eq!(sizes.iter().sum::<usize>(), n, "every node is assigned");
    assert!(sizes.iter().all(|&s| s > 0), "no empty part: {sizes:?}");
    assert!(parts.imbalance() <= 1.15 + 1e-9, "balance cap: {sizes:?}");

    let subgraphs = parts.subgraphs(&adj, 2);
    let mut owned = vec![false; n];
    for sub in &subgraphs {
        for &g in sub.owned_global_ids() {
            assert!(
                !std::mem::replace(&mut owned[g], true),
                "node {g} owned twice"
            );
        }
        assert!(sub.halo_count() > 0, "a cut grid part has a halo");
        // Per-part supports: identity, forward and reverse random walk.
        let supports = diffusion_supports(&sub.adjacency, 2);
        assert_eq!(supports.len(), 3);
        assert!(supports
            .iter()
            .all(|s| s.shape() == (sub.num_nodes(), sub.num_nodes())));
    }
    assert!(owned.iter().all(|&o| o), "the parts cover the grid");

    let cost = HaloCostModel::new(HORIZON, 1);
    let halo_bytes = cost.halo_bytes(&adj, &parts);
    let seeded = IncrementalPartitioner::seed(
        net.graph.clone(),
        &parts,
        IncrementalConfig::for_horizon(HORIZON, 1),
    );
    assert_eq!(halo_bytes, seeded.halo_bytes(), "one cut count, two routes");
    assert!(halo_bytes > 0);
    let cut = parts.cut_fraction(&adj);
    assert!(
        cut > 0.0 && cut < 0.05,
        "8 compact parts cut few streets: {cut}"
    );
    let local: usize = subgraphs.iter().map(|s| s.num_nodes()).sum();
    let replication = parts.replication_factor(&adj, 2);
    assert_eq!(replication, local as f64 / n as f64);
    assert!(replication > 1.0 && replication < 1.2, "{replication}");

    if let Some(mb) = peak_rss_mb() {
        assert!(mb < 512.0, "peak RSS {mb:.0} MB (dense storage: 2,621 MB)");
    }
}

/// Per-seed wall time is printed, never asserted:
/// `cargo test -q --release --test city_scale multilevel -- --nocapture`.
#[test]
fn multilevel_is_balanced_and_close_to_its_best_on_every_seed() {
    let cuts: Vec<(u64, usize)> = (1..=8)
        .map(|seed| {
            let g = city_grid_sparse(160, 160, seed).graph;
            let started = std::time::Instant::now();
            let p = Partitioning::multilevel(&g, 8);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let cut = p.cut_neighbors(&g);
            println!("seed {seed}: multilevel {ms:.1} ms, {cut} cut neighbours");
            assert!(p.part_sizes().iter().all(|&s| s > 0), "seed {seed}");
            assert!(
                p.imbalance() <= 1.15 + 1e-9,
                "seed {seed}: {:?}",
                p.part_sizes()
            );
            let greedy = Partitioning::greedy_bfs(&g, 8).cut_neighbors(&g);
            assert!(
                cut <= greedy,
                "seed {seed}: cut {cut} > region growing's {greedy}"
            );
            (seed, cut)
        })
        .collect();
    let best = cuts.iter().map(|&(_, c)| c).min().unwrap();
    for (seed, cut) in cuts {
        assert!(
            4 * cut <= 5 * best,
            "seed {seed}: cut {cut} > 1.25 × the best seed's {best}"
        );
    }
}
