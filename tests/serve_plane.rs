//! The production serving plane, end to end: multi-tenant hot-swap with
//! bit-identity to a cold deploy, atomic `Arc` semantics for in-flight
//! workloads, live ingest gating servability, and typed rejections where
//! a panic used to be reachable.

use pgt_i::autograd::checkpoint::CheckpointError;
use pgt_i::autograd::Module;
use pgt_i::data::scaler::StandardScaler;
use pgt_i::graph::{diffusion_supports, generators};
use pgt_i::models::{ModelConfig, PgtDcrnn, Support};
use pgt_i::serve::{
    BatchedServer, ModelSnapshot, Query, ServeConfig, ServeError, ShedReason, SnapshotError,
    SnapshotRegistry, Tick,
};
use pgt_i::tensor::Tensor;

const NODES: usize = 8;
const HORIZON: usize = 3;

fn model_config() -> ModelConfig {
    ModelConfig {
        input_dim: 1,
        output_dim: 1,
        hidden: 4,
        num_nodes: NODES,
        horizon: HORIZON,
        diffusion_steps: 2,
        layers: 1,
    }
}

/// A (toy) trained snapshot; different seeds stand in for "before" and
/// "after retrain" parameter sets.
fn snapshot(adjacency: &pgt_i::graph::Adjacency, seed: u64) -> ModelSnapshot {
    let cfg = model_config();
    let supports = Support::wrap_all(diffusion_supports(adjacency, cfg.diffusion_steps));
    let trained = PgtDcrnn::new(cfg.clone(), &supports, seed);
    ModelSnapshot::capture(cfg, StandardScaler::identity(), None, &trained.params(), 1)
}

fn corridor() -> pgt_i::graph::Adjacency {
    generators::highway_corridor(NODES, 1, 5).adjacency
}

fn history(rows: usize) -> Tensor {
    Tensor::arange(rows * NODES)
        .reshape([rows, NODES, 1])
        .unwrap()
}

/// Per-node ticks completing stream rows `from..to`, round-robin by row.
fn live_rows(server: &mut BatchedServer, from: usize, to: usize) {
    for t in from..to {
        for node in 0..NODES {
            let completed = server
                .admit_tick(&Tick {
                    node,
                    t,
                    values: vec![(t * NODES + node) as f32 * 0.5],
                })
                .expect("in-order tick");
            assert_eq!(completed, usize::from(node == NODES - 1));
        }
    }
}

fn workload(n: usize, lo_end: usize, hi_end: usize) -> Vec<Query> {
    (0..n)
        .map(|i| Query {
            id: i,
            node: i % NODES,
            window_end: lo_end + i % (hi_end - lo_end + 1),
            arrival_secs: i as f64 * 1e-6,
        })
        .collect()
}

fn assert_bitwise_equal(a: &pgt_i::serve::ServeReport, b: &pgt_i::serve::ServeReport) {
    assert_eq!(a.results.len(), b.results.len());
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(ra.id, rb.id);
        assert_eq!(ra.window_end, rb.window_end);
        for (va, vb) in ra.forecast_std.iter().zip(&rb.forecast_std) {
            assert_eq!(va.to_bits(), vb.to_bits(), "query {}", ra.id);
        }
    }
}

#[test]
fn hot_swap_is_bit_identical_to_a_fresh_deploy_and_in_flight_work_finishes_on_a() {
    let adj = corridor();
    let snap_a = snapshot(&adj, 7);
    let snap_b = snapshot(&adj, 19);
    let cfg = ServeConfig::new(2, 12);
    let queries = workload(32, 18, 24);

    // Tenant deployed on A, live rows 20..24 arriving as per-node ticks.
    let registry = SnapshotRegistry::new();
    registry
        .register(
            "city",
            BatchedServer::with_history(snap_a.clone(), adj.clone(), &history(20), cfg.clone()),
        )
        .unwrap();
    for t in 20..24 {
        for node in 0..NODES {
            registry
                .admit_tick(
                    "city",
                    &Tick {
                        node,
                        t,
                        values: vec![(t * NODES + node) as f32 * 0.5],
                    },
                )
                .unwrap();
        }
    }

    // A mid-workload hot reload: grab the serving Arc first (a workload
    // in flight), then swap the model to B.
    let in_flight = registry.get("city").unwrap();
    let retired = registry.swap_snapshot("city", snap_b.clone()).unwrap();
    assert!(std::sync::Arc::ptr_eq(&in_flight, &retired));

    // Post-swap serving is bitwise a server constructed fresh from B
    // over the same history + ticks.
    let mut fresh_b = BatchedServer::with_history(snap_b, adj.clone(), &history(20), cfg.clone());
    live_rows(&mut fresh_b, 20, 24);
    let post_swap = registry.serve("city", &queries).unwrap();
    assert!(post_swap.rejections.is_empty());
    assert_bitwise_equal(&post_swap, &fresh_b.serve(&queries));

    // The in-flight Arc still serves A's forwards — no torn reads.
    let mut fresh_a = BatchedServer::with_history(snap_a, adj, &history(20), cfg);
    live_rows(&mut fresh_a, 20, 24);
    let on_a = in_flight.serve(&queries);
    assert_bitwise_equal(&on_a, &fresh_a.serve(&queries));

    // And A ≠ B (the swap actually changed the model).
    let a0 = &on_a.results[0].forecast_std;
    let b0 = &post_swap.results[0].forecast_std;
    assert!(
        a0.iter().zip(b0).any(|(x, y)| x.to_bits() != y.to_bits()),
        "distinct snapshots must produce distinct forecasts"
    );
}

#[test]
fn swap_snapshot_rejects_incompatible_snapshots_typed() {
    let adj = corridor();
    let registry = SnapshotRegistry::new();
    registry
        .register(
            "city",
            BatchedServer::with_history(snapshot(&adj, 7), adj.clone(), &history(20), {
                let mut c = ServeConfig::new(1, 12);
                c.capacity = HORIZON; // tightest legal ring
                c
            }),
        )
        .unwrap();

    // Different graph size.
    let other = generators::highway_corridor(NODES + 2, 1, 5).adjacency;
    let big_cfg = ModelConfig {
        num_nodes: NODES + 2,
        ..model_config()
    };
    let supports = Support::wrap_all(diffusion_supports(&other, 2));
    let big = PgtDcrnn::new(big_cfg.clone(), &supports, 3);
    let bad_nodes =
        ModelSnapshot::capture(big_cfg, StandardScaler::identity(), None, &big.params(), 1);
    assert!(matches!(
        registry.swap_snapshot("city", bad_nodes).unwrap_err(),
        ServeError::GraphMismatch {
            snapshot_nodes: 10,
            graph_nodes: NODES
        }
    ));

    // Different scaler than the live ring was standardized with.
    let mut bad_scaler = snapshot(&adj, 7);
    bad_scaler.scaler = StandardScaler::from_feature_stats(vec![(3.0, 2.0)]);
    assert_eq!(
        registry.swap_snapshot("city", bad_scaler).unwrap_err(),
        ServeError::ScalerMismatch
    );

    // Horizon the ring cannot hold.
    let wide_cfg = ModelConfig {
        horizon: HORIZON + 1,
        ..model_config()
    };
    let supports = Support::wrap_all(diffusion_supports(&adj, 2));
    let wide = PgtDcrnn::new(wide_cfg.clone(), &supports, 3);
    let bad_horizon = ModelSnapshot::capture(
        wide_cfg,
        StandardScaler::identity(),
        None,
        &wide.params(),
        1,
    );
    assert_eq!(
        registry.swap_snapshot("city", bad_horizon).unwrap_err(),
        ServeError::CapacityTooSmall {
            capacity: HORIZON,
            horizon: HORIZON + 1
        }
    );

    // The failed swaps left the tenant serving (ring of 3 over 20 rows:
    // only window_end == 20 is still retained).
    assert!(registry
        .serve("city", &workload(4, 20, 20))
        .unwrap()
        .rejections
        .is_empty());
}

#[test]
fn a_snapshot_whose_params_do_not_fit_its_config_never_swaps_in() {
    // A hidden-8 config over hidden-4 parameters: every check against the
    // deployment passes (nodes, features, scaler, horizon), and only a
    // restore finds the mismatch. The swap must refuse it typed — not
    // accept it and let the next call panic inside a shard thread.
    let adj = corridor();
    let registry = SnapshotRegistry::new();
    let cfg = ServeConfig::new(2, 12);
    registry
        .register(
            "city",
            BatchedServer::with_history(snapshot(&adj, 7), adj.clone(), &history(20), cfg.clone()),
        )
        .unwrap();
    let queries = workload(8, 18, 20);
    let before = registry.serve("city", &queries).unwrap();

    let mut misfit = snapshot(&adj, 19);
    misfit.config.hidden = 8;
    let held = registry.get("city").unwrap();
    assert!(matches!(
        registry.swap_snapshot("city", misfit).unwrap_err(),
        ServeError::Snapshot(SnapshotError::State(CheckpointError::ShapeMismatch { .. }))
    ));
    assert!(
        std::sync::Arc::ptr_eq(&held, &registry.get("city").unwrap()),
        "the tenant is untouched"
    );
    let after = registry.serve("city", &queries).unwrap();
    assert!(after.rejections.is_empty());
    assert_bitwise_equal(&before, &after);
}

/// Configs that cannot be built from, crafted into snapshot bytes: K = 0
/// (no diffusion supports exist; building them asserts) and a hidden width
/// of 2⁴⁰ (the model shell's allocation aborts). Each is refused typed
/// before anything is built from its config, under the registry's write
/// lock, and the tenant keeps serving the model it had.
#[test]
fn a_snapshot_config_that_cannot_be_built_is_refused_before_building() {
    let adj = corridor();
    let registry = SnapshotRegistry::new();
    let cfg = ServeConfig::new(2, 12);
    registry
        .register(
            "city",
            BatchedServer::with_history(snapshot(&adj, 7), adj.clone(), &history(20), cfg),
        )
        .unwrap();
    let queries = workload(8, 18, 20);
    let before = registry.serve("city", &queries).unwrap();
    let held = registry.get("city").unwrap();
    let crafted: [fn(&mut ModelConfig); 2] = [|c| c.diffusion_steps = 0, |c| c.hidden = 1 << 40];
    for craft in crafted {
        let mut snap = snapshot(&adj, 19);
        craft(&mut snap.config);
        let snap = ModelSnapshot::from_bytes(&snap.to_bytes()).expect("well-formed bytes");
        let err = registry.swap_snapshot("city", snap).unwrap_err();
        assert!(matches!(err, ServeError::Snapshot(_)), "{err}");
        assert!(std::sync::Arc::ptr_eq(
            &held,
            &registry.get("city").unwrap()
        ));
        let after = registry.serve("city", &queries).unwrap();
        assert!(after.rejections.is_empty());
        assert_bitwise_equal(&before, &after);
    }
}

#[test]
fn evicted_windows_reject_typed_through_the_full_serve_path() {
    let adj = corridor();
    // Ring of 6 over 20 rows of history: rows < 14 are gone.
    let mut server =
        BatchedServer::with_history(snapshot(&adj, 7), adj, &history(20), ServeConfig::new(2, 6));
    let queries = vec![
        Query {
            id: 0,
            node: 0,
            window_end: 20,
            arrival_secs: 0.0,
        },
        Query {
            id: 1,
            node: 1,
            window_end: 10, // evicted
            arrival_secs: 1e-6,
        },
    ];
    let report = server.serve(&queries);
    assert_eq!(report.results.len(), 1);
    assert_eq!(report.rejections.len(), 1);
    assert_eq!(report.rejections[0].id, 1);
    assert!(matches!(
        report.rejections[0].reason,
        ShedReason::WindowEvicted {
            window_end: 10,
            oldest_retained: 14
        }
    ));
    // The reference path agrees, as a typed error.
    let model = server.build_model();
    assert!(matches!(
        server.predict_windows_with(&model, &[10]).unwrap_err(),
        ServeError::WindowEvicted { window_end: 10, .. }
    ));
    // Live ingest moves the eviction boundary forward: window_end 17
    // ([14, 17)) is servable now but falls off once row 20 arrives.
    assert!(server.predict_windows_with(&model, &[17]).is_ok());
    live_rows(&mut server, 20, 21);
    assert!(matches!(
        server.predict_windows_with(&model, &[17]).unwrap_err(),
        ServeError::WindowEvicted {
            oldest_retained: 15,
            ..
        }
    ));
}

#[test]
fn a_query_is_servable_only_after_every_node_passes_its_watermark() {
    let adj = corridor();
    let mut server = BatchedServer::with_history(
        snapshot(&adj, 7),
        adj,
        &history(20),
        ServeConfig::new(1, 12),
    );
    let probe = Query {
        id: 9,
        node: 2,
        window_end: 21,
        arrival_secs: 0.0,
    };
    // Every node but the last delivers row 20: the row is staged, not
    // admitted, and the query stays unservable.
    for node in 0..NODES - 1 {
        server
            .admit_tick(&Tick {
                node,
                t: 20,
                values: vec![1.0],
            })
            .unwrap();
    }
    assert_eq!(server.ingest().staged_rows(), 1);
    assert_eq!(server.ingest().frontier(), 20);
    let report = server.serve(&[probe]);
    assert!(matches!(
        report.rejections[0].reason,
        ShedReason::NotYetServable {
            window_end: 21,
            admitted: 20
        }
    ));
    // The straggler delivers; the watermark frontier moves; servable.
    server
        .admit_tick(&Tick {
            node: NODES - 1,
            t: 20,
            values: vec![1.0],
        })
        .unwrap();
    assert_eq!(server.ingest().frontier(), 21);
    let report = server.serve(&[probe]);
    assert_eq!(report.results.len(), 1);
    assert_eq!(report.results[0].id, 9);
}

#[test]
fn tenants_are_isolated_and_each_serves_its_own_model() {
    let adj = corridor();
    let registry = SnapshotRegistry::new();
    let cfg = ServeConfig::new(1, 12);
    registry
        .register(
            "alpha",
            BatchedServer::with_history(snapshot(&adj, 7), adj.clone(), &history(20), cfg.clone()),
        )
        .unwrap();
    registry
        .register(
            "beta",
            BatchedServer::with_history(snapshot(&adj, 19), adj.clone(), &history(20), cfg.clone()),
        )
        .unwrap();
    assert_eq!(
        registry.tenants(),
        vec!["alpha".to_string(), "beta".to_string()]
    );

    let queries = workload(8, 18, 20);
    let a = registry.serve("alpha", &queries).unwrap();
    let b = registry.serve("beta", &queries).unwrap();
    // Same windows, different parameters: forecasts differ…
    assert!(a
        .results
        .iter()
        .zip(&b.results)
        .any(|(x, y)| x.forecast_std[0].to_bits() != y.forecast_std[0].to_bits()));
    // …and ticks to one tenant do not move the other's frontier.
    registry
        .admit_tick(
            "alpha",
            &Tick {
                node: 0,
                t: 20,
                values: vec![0.0],
            },
        )
        .unwrap();
    assert_eq!(registry.get("alpha").unwrap().ingest().watermark(0), 21);
    assert_eq!(registry.get("beta").unwrap().ingest().watermark(0), 20);
}

#[test]
fn a_query_naming_an_unknown_node_is_rejected_typed_not_panicked() {
    // `serve` used to `assert!(q.node < nodes)`: one bad query in a
    // stream took the caller down. It is a pre-routing rejection now, and
    // its neighbours are served exactly once.
    let adj = corridor();
    let cfg = ServeConfig::new(2, 12);
    let server =
        BatchedServer::with_history(snapshot(&adj, 7), adj.clone(), &history(20), cfg.clone());
    let mut queries = workload(6, 18, 20);
    queries[2].node = NODES; // first index past the snapshot
    queries[4].node = usize::MAX;
    let check = |report: &pgt_i::serve::ServeReport| {
        assert_eq!(report.results.len(), 4);
        assert_eq!(report.rejections.len(), 2);
        let mut seen: Vec<usize> = report.results.iter().map(|r| r.id).collect();
        seen.extend(report.rejections.iter().map(|r| r.id));
        seen.sort_unstable();
        assert_eq!(seen, (0..6).collect::<Vec<_>>(), "exactly-once placement");
        assert_eq!(report.rejections[0].id, 2);
        assert_eq!(
            report.rejections[0].reason,
            ShedReason::UnknownNode {
                node: NODES,
                nodes: NODES
            }
        );
        assert_eq!(
            report.rejections[1].reason,
            ShedReason::UnknownNode {
                node: usize::MAX,
                nodes: NODES
            }
        );
        assert!((report.shed_rate - 2.0 / 6.0).abs() < 1e-12);
    };
    let direct = server.serve(&queries);
    check(&direct);

    let registry = SnapshotRegistry::new();
    registry.register("alpha", server).unwrap();
    let via_registry = registry.serve("alpha", &queries).unwrap();
    check(&via_registry);
    // The bad queries changed nothing for the good ones.
    assert_bitwise_equal(&direct, &via_registry);
    let clean: Vec<Query> = queries.iter().filter(|q| q.node < NODES).copied().collect();
    assert_bitwise_equal(&direct, &registry.serve("alpha", &clean).unwrap());
}
