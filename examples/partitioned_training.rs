//! Partitioned training example (paper §7 future work).
//!
//! Trains one PGT-DCRNN per spatial partition of a synthetic highway
//! corridor, each partition using index-batching on its node-subset
//! signal — the "index-batching × graph partitioning" integration the
//! paper's conclusion proposes. Partitions come from the multilevel
//! partitioner (`DESIGN.md` §6), and each split is priced by the halo
//! cost model before training. Prints the accuracy/memory/critical-path
//! trade-off against whole-graph training, then runs the same pipeline for
//! one epoch on a 102,400-node street grid — the scale the graph store has
//! to carry (a dense `N×N` `f32` adjacency of it would be 41.9 GB).
//!
//! Run with: `cargo run --release --example partitioned_training`
//! (`PGT_SMOKE=1` shrinks the corridor workload for CI; the city-scale
//! stanza runs in both modes.)

use pgt_index::dist_index::DistConfig;
use pgt_index::partitioned::run_partitioned;
use st_data::synthetic;
use st_graph::Partitioning;

fn main() {
    let smoke = std::env::var("PGT_SMOKE").is_ok();
    // A freeway corridor with five-minute readings.
    let (nodes, entries, epochs) = if smoke { (16, 160, 2) } else { (28, 300, 4) };
    let net = st_graph::generators::highway_corridor(nodes, 1, 7);
    let sig = synthetic::traffic::generate(&net, entries, 288, 7);
    let horizon = 4;
    println!(
        "corridor: {} sensors, {} entries, horizon {horizon}\n",
        sig.num_nodes(),
        sig.entries()
    );

    for parts in [1usize, 2, 4] {
        let split = Partitioning::multilevel(&sig.adjacency, parts);
        let r = run_partitioned(&sig, &split, 8, &DistConfig::new(parts, epochs, horizon));
        println!(
            "k={parts}: val MAE {:.4} | edge cut {:.1}% | modeled halo {} B | \
             replication {:.2}x | critical path {:.0}% of whole-graph FLOPs | \
             max worker mem {} B",
            r.combined_val_mae,
            r.cut_fraction * 100.0,
            r.modeled_halo_bytes,
            r.replication_factor,
            r.parallel_flops_fraction * 100.0,
            r.max_resident_bytes,
        );
        for p in &r.parts {
            println!(
                "    part {}: {} owned + {} halo nodes, val MAE {:.4}",
                p.part, p.owned, p.halo, p.val_mae
            );
        }
    }
    println!(
        "\nPartitioning buys parallel speedup and smaller per-worker memory at a \
         measurable accuracy cost — exactly the trade-off PGT-I avoids by keeping \
         graphs whole (§4), and the reason §7 leaves the hybrid as future work. \
         The multilevel partitioner minimizes the modeled halo bytes every cut \
         neighbor costs (2·horizon − 1 reads per boundary row)."
    );
    city_scale();
}

/// One epoch of 8-way partitioned training on `city_grid_sparse(320, 320)`:
/// partition, halo subgraphs, per-part supports and signals, one model per
/// part. Fails when the process ever held 2 GB or more (Linux).
fn city_scale() {
    let started = std::time::Instant::now();
    let grid = st_graph::generators::city_grid_sparse(320, 320, 7);
    let net = st_graph::SensorNetwork {
        adjacency: grid.graph.to_adjacency(),
        coords: grid.coords,
    };
    let sig = synthetic::traffic::generate(&net, 16, 288, 7);
    let mut cfg = DistConfig::new(8, 1, 2);
    cfg.batch_per_worker = 4;
    let r = run_partitioned(&sig, &Partitioning::multilevel(&sig.adjacency, 8), 8, &cfg);
    let wall = started.elapsed().as_secs_f64();
    let peak_mb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0);
    println!(
        "\ncity grid: {} sensors, {} directed edges, k=8, horizon 2, 16 entries, 1 epoch: \
         {wall:.1} s wall | peak RSS {} | val MAE {:.4} | edge cut {:.2}% | \
         modeled halo {} B | replication {:.3}x | max worker mem {} B",
        sig.num_nodes(),
        sig.adjacency.num_edges(),
        peak_mb.map_or("n/a".to_string(), |mb| format!("{mb:.0} MB")),
        r.combined_val_mae,
        r.cut_fraction * 100.0,
        r.modeled_halo_bytes,
        r.replication_factor,
        r.max_resident_bytes,
    );
    assert!(r.combined_val_mae.is_finite());
    assert!(
        peak_mb.is_none_or(|mb| mb < 2048.0),
        "city-scale run peaked at {peak_mb:?} MB"
    );
}
