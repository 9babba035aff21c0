//! Partition-parallel batched serving.
//!
//! DistTGL's serving-side lesson, transplanted: partition the graph **once**
//! and let each shard statically own its nodes' queries — never repartition
//! per request. [`BatchedServer`] routes every [`Query`] to the shard that
//! owns its node ([`st_graph::Partitioning::part_of`]), and the shards run
//! concurrently under [`st_dist::run_workers`], each draining its own
//! micro-batch schedule — [`crate::slo::admit_and_coalesce`], the
//! SLO-gated [`crate::queue::coalesce`] (inert gates by default; see
//! [`ServeConfig::slo`]).
//!
//! Every shard restores the **same** full-model replica from the
//! [`ModelSnapshot`] (restored replicas are bit-identical — the snapshot
//! tests pin it), so a served forecast is bitwise the value the trainer's
//! own evaluation forward would produce, no matter which shard computed it.
//! What a shard does *not* own is the signal: the rows of each request
//! window belonging to other shards' nodes are halo reads, charged to the
//! traffic ledger in bytes and to the simulated clock via
//! [`st_device::CostModel::micro_batch_secs`] — the same
//! physically-local-but-modeled-remote idiom the training data planes use.
//!
//! Time is simulated, numerics are real: arrival times drive the
//! micro-batch schedule and the per-shard timeline (an
//! [`st_device::SimClock`] + [`st_device::OverlapLedger`] pair replaying
//! MSPipe-style deadline streams: a batch's halo fetch is in flight from
//! its dispatch and overlaps the tail of the previous batch's compute),
//! producing modeled p50/p99/p999 latencies and throughput, while the
//! forwards themselves are real tape-free computations
//! ([`st_models::Seq2Seq::forward_inference`]).

use std::collections::HashMap;

use crate::error::ServeError;
use crate::ingest::{IngestError, StreamIngest, Tick};
use crate::queue::{PendingRequest, QueueConfig};
use crate::slo::{admit_and_coalesce, BatchCost, ShedReason, SloConfig};
use crate::snapshot::ModelSnapshot;
use crate::window::RollingWindow;
use st_data::storage::SignalStorage;
use st_device::{OverlapLedger, SimClock};
use st_dist::launch::run_workers;
use st_dist::topology::ClusterTopology;
use st_graph::{Adjacency, PartitionerKind, Partitioning};
use st_models::{PgtDcrnn, Seq2Seq};
use st_tensor::Tensor;

/// Serving deployment knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of partition-parallel shards.
    pub shards: usize,
    /// Micro-batching policy each shard's queue runs.
    pub queue: QueueConfig,
    /// Ring capacity of the rolling signal buffer (maximum window reach).
    pub capacity: usize,
    /// Cluster topology the shards are modeled on.
    pub topology: ClusterTopology,
    /// The partitioner the one-time routing split runs — the same choice
    /// the training planes take via `DistConfig`. Defaults to the
    /// multilevel partitioner, which minimizes the modeled halo bytes
    /// ([`st_graph::HaloCostModel`]) every cross-shard window read pays.
    pub partitioner: PartitionerKind,
    /// Compute backend each shard selects before its first forward
    /// ([`st_tensor::backend::set_backend`]). Backends are bitwise
    /// identical — served forecasts stay bit-equal to the trainer's
    /// forward either way; only inference wall time moves. Defaults to the
    /// process-wide choice ([`st_tensor::backend::active_backend`]:
    /// `ST_BACKEND`, or an earlier `set_backend`), so a deployment that
    /// does not set this field leaves the process's backend alone.
    pub backend: st_tensor::backend::BackendKind,
    /// Per-tenant SLO the default [`BatchedServer::serve`] path enforces.
    /// Defaults to [`SloConfig::unbounded`] — never sheds, bit-identical
    /// to pre-SLO serving.
    pub slo: SloConfig,
    /// Cache each distinct window's standardized target-channel forecast
    /// for the duration of a [`BatchedServer::serve`] call, so repeat
    /// windows across micro-batches skip their forward (and its modeled
    /// halo fetch + compute). Safe because per-window forwards are
    /// batch-composition-invariant bitwise (pinned by the round-trip
    /// tests). Defaults to `false` — every batch pays its forward, the
    /// pre-cache behavior the serve benchmarks pin.
    pub forecast_cache: bool,
    /// Live-ingest skew bound: a fast sensor may run at most this many
    /// rows ahead of the slowest ([`crate::StreamIngest`]). Defaults to
    /// the ring capacity — staging beyond a full ring is pathological.
    pub max_skew: usize,
}

impl ServeConfig {
    /// A deployment of `shards` shards with default queue and a
    /// `capacity`-deep rolling buffer.
    pub fn new(shards: usize, capacity: usize) -> Self {
        ServeConfig {
            shards,
            queue: QueueConfig::default(),
            capacity,
            topology: ClusterTopology::polaris(),
            partitioner: PartitionerKind::Multilevel,
            backend: st_tensor::backend::active_backend(),
            slo: SloConfig::unbounded(),
            forecast_cache: false,
            max_skew: capacity.max(1),
        }
    }
}

/// One forecast request: "what happens at `node` after stream time
/// `window_end`?"
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// Caller-side request id (echoed back on the result).
    pub id: usize,
    /// The node whose forecast is requested; decides the owning shard.
    pub node: usize,
    /// Input window end, exclusive stream time (the window is the
    /// `horizon` most recent readings before it).
    pub window_end: usize,
    /// Modeled arrival time, seconds.
    pub arrival_secs: f64,
}

/// One answered query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The caller-side id from the [`Query`].
    pub id: usize,
    /// The queried node.
    pub node: usize,
    /// The shard that served it.
    pub shard: usize,
    /// The input window end served.
    pub window_end: usize,
    /// Standardized target-channel forecast, one value per horizon step —
    /// bitwise the trainer-side forward's output for this window/node.
    pub forecast_std: Vec<f32>,
    /// The forecast in original units (scaler-inverted target channel).
    pub forecast: Vec<f32>,
    /// Modeled completion − arrival.
    pub latency_secs: f64,
    /// Distinct windows in the micro-batch that served this query.
    pub batch_windows: usize,
}

/// One rejected query: the typed refusal the serving plane hands back in
/// place of a result — either admission control shed it
/// ([`ShedReason::QueueFull`] / [`ShedReason::DeadlineUnmeetable`]), its
/// window is not servable against the live ring
/// ([`ShedReason::WindowEvicted`] / [`ShedReason::NotYetServable`]), or it
/// names a node the snapshot does not have ([`ShedReason::UnknownNode`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rejection {
    /// The caller-side id from the [`Query`].
    pub id: usize,
    /// The queried node.
    pub node: usize,
    /// The shard that owns (and refused) the query; 0 for an
    /// [`ShedReason::UnknownNode`], which no shard owns.
    pub shard: usize,
    /// The requested window end.
    pub window_end: usize,
    /// Why it was rejected.
    pub reason: ShedReason,
}

/// Per-shard serving statistics.
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Nodes this shard owns.
    pub owned_nodes: usize,
    /// Requests routed here (servable windows; pre-routing rejections
    /// excluded).
    pub requests: usize,
    /// Requests this shard's admission control shed.
    pub shed: usize,
    /// Micro-batches dispatched.
    pub batches: usize,
    /// Distinct windows answered from the forecast cache instead of a
    /// forward (always 0 with [`ServeConfig::forecast_cache`] off).
    pub cache_hits: usize,
    /// Halo-read bytes charged to the ledger.
    pub halo_bytes: u64,
    /// Modeled forward-compute seconds.
    pub compute_secs: f64,
    /// Modeled *exposed* halo-fetch seconds (the part the deadline
    /// streams could not hide behind compute).
    pub comm_secs: f64,
    /// Modeled seconds this shard was busy (exposed fetch + compute).
    pub busy_secs: f64,
    /// Completion time of this shard's last batch (0 when idle).
    pub finish_secs: f64,
}

impl ShardStats {
    /// Fraction of `[0, makespan]` this shard spent busy.
    pub fn utilization(&self, makespan_secs: f64) -> f64 {
        if makespan_secs > 0.0 {
            self.busy_secs / makespan_secs
        } else {
            0.0
        }
    }
}

/// Outcome of one [`BatchedServer::serve`] call.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// All answered queries, in submission order (the position each query
    /// held in the `serve` input slice).
    pub results: Vec<QueryResult>,
    /// All rejected queries, in submission order. Every submitted query
    /// lands in exactly one of `results` / `rejections`.
    pub rejections: Vec<Rejection>,
    /// Per-shard statistics.
    pub shards: Vec<ShardStats>,
    /// Median modeled latency, seconds (served requests only).
    pub p50_latency_secs: f64,
    /// 99th-percentile modeled latency, seconds.
    pub p99_latency_secs: f64,
    /// 99.9th-percentile modeled latency, seconds.
    pub p999_latency_secs: f64,
    /// Fraction of submitted queries rejected (shed + unservable).
    pub shed_rate: f64,
    /// Modeled makespan: the last completion across shards.
    pub makespan_secs: f64,
    /// Requests served per modeled second.
    pub requests_per_sec: f64,
    /// Total halo-read bytes across shards (the data-plane ledger).
    pub halo_bytes: u64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A snapshot-backed, partition-parallel batched inference server.
///
/// Holds the deployment's static state — the trained [`ModelSnapshot`],
/// the graph and its one-time [`Partitioning`], the rolling signal
/// buffer, and the live-ingest front. [`BatchedServer::serve`] is the
/// request path; [`BatchedServer::admit_tick`] is the data path.
#[derive(Debug, Clone)]
pub struct BatchedServer {
    snapshot: ModelSnapshot,
    adjacency: Adjacency,
    partitioning: Partitioning,
    window: RollingWindow,
    ingest: StreamIngest,
    cfg: ServeConfig,
}

impl BatchedServer {
    /// Deploy a snapshot over `adjacency` with an empty signal buffer.
    /// The graph is partitioned once, here, by
    /// [`ServeConfig::partitioner`] (multilevel by default); queries are
    /// routed against this static assignment forever after.
    pub fn new(snapshot: ModelSnapshot, adjacency: Adjacency, cfg: ServeConfig) -> Self {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert_eq!(
            snapshot.config.num_nodes,
            adjacency.num_nodes(),
            "snapshot was trained on a different graph"
        );
        assert!(
            cfg.capacity >= snapshot.config.horizon,
            "ring capacity {} cannot hold a horizon-{} window",
            cfg.capacity,
            snapshot.config.horizon
        );
        let partitioning =
            cfg.partitioner
                .partition(&adjacency, None, cfg.shards, snapshot.config.horizon);
        let window = RollingWindow::new(
            cfg.capacity,
            snapshot.config.num_nodes,
            snapshot.config.input_dim,
            snapshot.scaler.clone(),
        );
        let ingest = StreamIngest::new(
            snapshot.config.num_nodes,
            snapshot.config.input_dim,
            cfg.max_skew.max(1),
        );
        BatchedServer {
            snapshot,
            adjacency,
            partitioning,
            window,
            ingest,
            cfg,
        }
    }

    /// Deploy with the buffer pre-seeded from an **already-standardized**
    /// `[E, N, F]` history (e.g. the training `IndexDataset`'s single
    /// copy), so served windows are bit-identical to training windows. The
    /// ring takes the history's last `capacity` rows and its stream time.
    pub fn with_history(
        snapshot: ModelSnapshot,
        adjacency: Adjacency,
        history: &Tensor,
        cfg: ServeConfig,
    ) -> Self {
        let mut server = BatchedServer::new(snapshot, adjacency, cfg);
        server.window = RollingWindow::from_standardized_history(
            &SignalStorage::InMemory(history.contiguous()),
            server.cfg.capacity,
            server.snapshot.scaler.clone(),
        );
        server.reset_ingest();
        server
    }

    /// Re-anchor the ingest front at the ring's current stream time (all
    /// seeded rows were admitted wholesale).
    fn reset_ingest(&mut self) {
        self.ingest = StreamIngest::with_start(
            self.window.num_nodes(),
            self.window.num_features(),
            self.cfg.max_skew.max(1),
            self.window.len(),
        );
    }

    /// Redeploy with a **new model snapshot** over the live state: the
    /// ring, ingest watermarks, graph and config carry over; the routing
    /// partitioning is recomputed for the new horizon exactly as a cold
    /// deploy would, so the swapped-in server's forwards are bit-identical
    /// to a server constructed fresh from the new snapshot over the same
    /// history. The hot-reload building block behind
    /// [`crate::SnapshotRegistry::swap_snapshot`].
    pub fn with_snapshot(&self, snapshot: ModelSnapshot) -> Result<BatchedServer, ServeError> {
        if snapshot.config.num_nodes != self.adjacency.num_nodes() {
            return Err(ServeError::GraphMismatch {
                snapshot_nodes: snapshot.config.num_nodes,
                graph_nodes: self.adjacency.num_nodes(),
            });
        }
        if snapshot.config.input_dim != self.window.num_features() {
            return Err(ServeError::FeatureMismatch {
                snapshot_features: snapshot.config.input_dim,
                window_features: self.window.num_features(),
            });
        }
        if snapshot.scaler != *self.window.scaler() {
            return Err(ServeError::ScalerMismatch);
        }
        if self.cfg.capacity < snapshot.config.horizon {
            return Err(ServeError::CapacityTooSmall {
                capacity: self.cfg.capacity,
                horizon: snapshot.config.horizon,
            });
        }
        let partitioning = self.cfg.partitioner.partition(
            &self.adjacency,
            None,
            self.cfg.shards,
            snapshot.config.horizon,
        );
        Ok(BatchedServer {
            snapshot,
            adjacency: self.adjacency.clone(),
            partitioning,
            window: self.window.clone(),
            ingest: self.ingest.clone(),
            cfg: self.cfg.clone(),
        })
    }

    /// Admit one whole reading in original units (`[N, F]`); it is
    /// standardized with the snapshot's scaler on entry. Fails with
    /// [`IngestError::PartialRowsInFlight`] if per-node ticks have
    /// staged a partial row — the two admission paths cannot interleave
    /// mid-row.
    pub fn admit(&mut self, reading: &Tensor) -> Result<(), IngestError> {
        self.ingest.note_full_row()?;
        self.window.admit(reading);
        Ok(())
    }

    /// Push one live per-node tick (original units) through the ingest
    /// watermarks; rows completed by this tick are admitted to the ring
    /// in stream order. Returns how many rows the tick completed.
    pub fn admit_tick(&mut self, tick: &Tick) -> Result<usize, IngestError> {
        let rows = self.ingest.push(tick)?;
        let n = rows.len();
        for row in &rows {
            self.window.admit(row);
        }
        Ok(n)
    }

    /// The rolling signal buffer.
    pub fn window(&self) -> &RollingWindow {
        &self.window
    }

    /// The live-ingest front (per-node watermarks and staged rows).
    pub fn ingest(&self) -> &StreamIngest {
        &self.ingest
    }

    /// The deployed snapshot.
    pub fn snapshot(&self) -> &ModelSnapshot {
        &self.snapshot
    }

    /// The deployment configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The static query-routing partitioning.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The shard that owns `node`'s queries.
    pub fn owner_of(&self, node: usize) -> usize {
        self.partitioning.part_of(node)
    }

    /// Restore the served model replica from the snapshot. Expensive (full
    /// parameter restore + diffusion-support construction): build once and
    /// reuse across [`BatchedServer::predict_windows_with`] calls.
    pub fn build_model(&self) -> PgtDcrnn {
        self.snapshot
            .build_pgt_dcrnn(&self.adjacency)
            .expect("snapshot matches its own config")
    }

    /// Tape-free batched forward over the buffered windows ending at
    /// `ends`: returns the standardized `[B, horizon, N, 1]` prediction —
    /// bitwise what the trainer's evaluation forward produces on the same
    /// windows. The single-shard reference path the round-trip tests pin.
    /// Convenience wrapper that rebuilds the replica each call; loops
    /// should [`BatchedServer::build_model`] once and use
    /// [`BatchedServer::predict_windows_with`].
    pub fn predict_windows(&self, ends: &[usize]) -> Result<Tensor, ServeError> {
        self.predict_windows_with(&self.build_model(), ends)
    }

    /// [`BatchedServer::predict_windows`] against a replica built earlier
    /// with [`BatchedServer::build_model`].
    pub fn predict_windows_with(
        &self,
        model: &PgtDcrnn,
        ends: &[usize],
    ) -> Result<Tensor, ServeError> {
        let x = self.window.batch(ends, self.snapshot.config.horizon)?;
        Ok(model.forward_inference(&x))
    }

    /// Serve a stream of queries under the deployment's configured SLO
    /// ([`ServeConfig::slo`]; unbounded — never shedding — by default).
    pub fn serve(&self, queries: &[Query]) -> ServeReport {
        self.serve_slo(queries, &self.cfg.slo.clone())
    }

    /// Serve a stream of queries (sorted by arrival) under an explicit
    /// SLO: route each to its owning shard, run SLO admission control
    /// over each shard's micro-batch queue, and replay the admitted
    /// schedule as batched tape-free forwards concurrently across
    /// shards. Unknown nodes and unservable windows (evicted / not yet
    /// ingested) are rejected before routing; every query lands in exactly
    /// one of [`ServeReport::results`] / [`ServeReport::rejections`].
    pub fn serve_slo(&self, queries: &[Query], slo: &SloConfig) -> ServeReport {
        let horizon = self.snapshot.config.horizon;
        let nodes = self.snapshot.config.num_nodes;
        let features = self.snapshot.config.input_dim;

        // Pre-routing servability: a node the snapshot does not have or a
        // window the ring cannot produce is a typed rejection, not a panic
        // in the caller or in a worker thread.
        let mut pre_rejected: Vec<(usize, Rejection)> = Vec::new();
        // Static routing: shard r sees only its owned nodes' servable
        // requests, in arrival order (`PendingRequest::id` is the index
        // into `queries`).
        let mut routed = vec![Vec::new(); self.cfg.shards];
        for (idx, q) in queries.iter().enumerate() {
            // The owning shard (0 by convention for a node no shard owns)
            // and, if the query cannot be served, why.
            let (shard, refusal) = if q.node >= nodes {
                let reason = ShedReason::UnknownNode {
                    node: q.node,
                    nodes,
                };
                (0, Some(reason))
            } else {
                let refusal = match self.window.window_status(q.window_end, horizon) {
                    Ok(()) => None,
                    Err(ServeError::WindowEvicted {
                        window_end,
                        oldest_retained,
                        ..
                    }) => Some(ShedReason::WindowEvicted {
                        window_end,
                        oldest_retained,
                    }),
                    Err(ServeError::NotYetServable {
                        window_end,
                        admitted,
                    }) => Some(ShedReason::NotYetServable {
                        window_end,
                        admitted,
                    }),
                    // `window_status` can also say `BadHorizon`, but the
                    // horizon passed above is the snapshot's own, not the
                    // query's: unreachable from caller input.
                    Err(other) => panic!("unservable query {}: {other}", q.id),
                };
                (self.owner_of(q.node), refusal)
            };
            match refusal {
                None => routed[shard].push(PendingRequest {
                    id: idx,
                    arrival_secs: q.arrival_secs,
                    window_end: q.window_end,
                }),
                Some(reason) => pre_rejected.push((
                    idx,
                    Rejection {
                        id: q.id,
                        node: q.node,
                        shard,
                        window_end: q.window_end,
                        reason,
                    },
                )),
            }
        }

        let per_shard = run_workers(self.cfg.shards, self.cfg.topology, |ctx| {
            let shard = ctx.rank();
            // Each shard thread selects the deployment's compute backend
            // before any forward runs (bitwise-identical either way).
            st_tensor::backend::set_backend(self.cfg.backend);
            let cost = ctx.comm.hub().cost_model().clone();
            // Every shard restores the same bit-identical replica.
            let model = self
                .snapshot
                .build_pgt_dcrnn(&self.adjacency)
                .expect("snapshot matches its own config");
            let owned = self.partitioning.part_nodes(shard).len();
            let halo_row_bytes = (horizon * (nodes - owned) * features * 4) as u64;

            // Admission control prices batches through the same
            // CostModel::micro_batch_secs the executor below charges.
            let schedule = admit_and_coalesce(
                &routed[shard],
                &self.cfg.queue,
                slo,
                &BatchCost {
                    halo_bytes_per_window: halo_row_bytes,
                    flops_per_window: model.flops_per_forward(1),
                    cost: cost.clone(),
                },
            );
            let rejections: Vec<(usize, Rejection)> = schedule
                .rejections
                .iter()
                .map(|s| {
                    let q = &queries[s.id];
                    (
                        s.id,
                        Rejection {
                            id: q.id,
                            node: q.node,
                            shard,
                            window_end: q.window_end,
                            reason: s.reason,
                        },
                    )
                })
                .collect();

            let mut results = Vec::with_capacity(routed[shard].len());
            let mut stats = ShardStats {
                shard,
                owned_nodes: owned,
                requests: routed[shard].len(),
                shed: rejections.len(),
                batches: 0,
                cache_hits: 0,
                halo_bytes: 0,
                compute_secs: 0.0,
                comm_secs: 0.0,
                busy_secs: 0.0,
                finish_secs: 0.0,
            };
            // The shard's modeled timeline. A batch occupies it from
            // max(previous completion, dispatch); its halo fetch is a
            // deadline stream in flight since dispatch, so only the part
            // not hidden behind the previous batch's compute is charged.
            let tl = SimClock::new();
            let mut ledger = OverlapLedger::new();
            // Standardized target-channel planes ([horizon × N] each) of
            // windows already forwarded this call.
            let mut cache: HashMap<usize, Vec<f32>> = HashMap::new();
            for batch in &schedule.batches {
                let uncached: Vec<usize> = batch
                    .windows
                    .iter()
                    .copied()
                    .filter(|w| !cache.contains_key(w))
                    .collect();
                stats.cache_hits += batch.windows.len() - uncached.len();
                tl.sync_to(batch.dispatch_secs);
                let mut fresh: HashMap<usize, Vec<f32>> = HashMap::new();
                if !uncached.is_empty() {
                    let halo_bytes = uncached.len() as u64 * halo_row_bytes;
                    let (fetch_secs, compute_secs) =
                        cost.micro_batch_secs(halo_bytes, model.flops_per_forward(uncached.len()));
                    let charged_before = ledger.charged_secs();
                    let sid =
                        ledger.begin_at(batch.dispatch_secs + fetch_secs, batch.dispatch_secs);
                    ledger.wait(sid, &tl);
                    let exposed = ledger.charged_secs() - charged_before;
                    let x = self
                        .window
                        .batch(&uncached, horizon)
                        .expect("servability pre-checked before routing");
                    let pred = model.forward_inference(&x);
                    tl.advance_compute(compute_secs);
                    ctx.clock.advance_comm(exposed);
                    ctx.clock.advance_compute(compute_secs);
                    stats.halo_bytes += halo_bytes;
                    stats.busy_secs += exposed + compute_secs;
                    for (j, &w) in uncached.iter().enumerate() {
                        let mut plane = vec![0.0f32; horizon * nodes];
                        for t in 0..horizon {
                            for node in 0..nodes {
                                plane[t * nodes + node] = pred.at(&[j, t, node, 0]);
                            }
                        }
                        fresh.insert(w, plane);
                    }
                }
                let done = tl.now();
                stats.batches += 1;
                stats.finish_secs = done;
                for (&idx, &slot) in batch.requests.iter().zip(&batch.window_of) {
                    let q = &queries[idx];
                    let w = batch.windows[slot];
                    let plane = fresh
                        .get(&w)
                        .or_else(|| cache.get(&w))
                        .expect("every batch window is fresh or cached");
                    let forecast_std: Vec<f32> =
                        (0..horizon).map(|t| plane[t * nodes + q.node]).collect();
                    let forecast = forecast_std
                        .iter()
                        .map(|&v| self.snapshot.scaler.inverse_scalar(v))
                        .collect();
                    results.push((
                        idx,
                        QueryResult {
                            id: q.id,
                            node: q.node,
                            shard,
                            window_end: q.window_end,
                            forecast_std,
                            forecast,
                            latency_secs: done - q.arrival_secs,
                            batch_windows: batch.windows.len(),
                        },
                    ));
                }
                if self.cfg.forecast_cache {
                    cache.extend(fresh);
                }
            }
            stats.compute_secs = ctx.clock.compute_secs();
            stats.comm_secs = ctx.clock.comm_secs();
            (results, rejections, stats)
        });

        let mut indexed = Vec::with_capacity(queries.len());
        let mut rejected = pre_rejected;
        let mut shards = Vec::with_capacity(self.cfg.shards);
        for (r, rej, s) in per_shard {
            indexed.extend(r);
            rejected.extend(rej);
            shards.push(s);
        }
        // Submission order (the internal routing index), not the
        // caller-side id — ids need not be unique or monotone.
        indexed.sort_by_key(|(idx, _)| *idx);
        rejected.sort_by_key(|(idx, _)| *idx);
        let results: Vec<QueryResult> = indexed.into_iter().map(|(_, r)| r).collect();
        let rejections: Vec<Rejection> = rejected.into_iter().map(|(_, r)| r).collect();
        let mut latencies: Vec<f64> = results.iter().map(|r| r.latency_secs).collect();
        latencies.sort_by(f64::total_cmp);
        let makespan = shards.iter().map(|s| s.finish_secs).fold(0.0, f64::max);
        ServeReport {
            p50_latency_secs: percentile(&latencies, 0.5),
            p99_latency_secs: percentile(&latencies, 0.99),
            p999_latency_secs: percentile(&latencies, 0.999),
            shed_rate: if queries.is_empty() {
                0.0
            } else {
                rejections.len() as f64 / queries.len() as f64
            },
            makespan_secs: makespan,
            requests_per_sec: if makespan > 0.0 {
                results.len() as f64 / makespan
            } else {
                0.0
            },
            halo_bytes: shards.iter().map(|s| s.halo_bytes).sum(),
            results,
            rejections,
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_autograd::Module;
    use st_data::scaler::StandardScaler;
    use st_models::{ModelConfig, PgtDcrnn, Support};

    fn deployment(shards: usize) -> (BatchedServer, Tensor) {
        let net = st_graph::generators::highway_corridor(8, 1, 5);
        let cfg = ModelConfig {
            input_dim: 1,
            output_dim: 1,
            hidden: 4,
            num_nodes: 8,
            horizon: 3,
            diffusion_steps: 2,
            layers: 1,
        };
        let supports = Support::wrap_all(st_graph::diffusion_supports(&net.adjacency, 2));
        let trained = PgtDcrnn::new(cfg.clone(), &supports, 7);
        let snap =
            ModelSnapshot::capture(cfg, StandardScaler::identity(), None, &trained.params(), 1);
        let history = Tensor::arange(20 * 8).reshape([20, 8, 1]).unwrap();
        let server = BatchedServer::with_history(
            snap,
            net.adjacency.clone(),
            &history,
            ServeConfig::new(shards, 20),
        );
        (server, history)
    }

    fn burst(n: usize, nodes: usize) -> Vec<Query> {
        (0..n)
            .map(|i| Query {
                id: 100 + i,
                node: i % nodes,
                window_end: 10 + (i % 8),
                arrival_secs: i as f64 * 1e-6,
            })
            .collect()
    }

    #[test]
    fn sharded_results_match_the_single_shard_reference() {
        let queries = burst(24, 8);
        let (single, _) = deployment(1);
        let (sharded, _) = deployment(2);
        let a = single.serve(&queries);
        let b = sharded.serve(&queries);
        assert_eq!(a.results.len(), 24);
        assert_eq!(b.results.len(), 24);
        assert!(a.rejections.is_empty() && b.rejections.is_empty());
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra.id, rb.id);
            // Bit-identical replicas + identical windows ⇒ identical
            // forecasts, regardless of shard count or batch grouping.
            for (va, vb) in ra.forecast_std.iter().zip(&rb.forecast_std) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }

    #[test]
    fn served_forecasts_match_predict_windows() {
        let (server, _) = deployment(2);
        let queries = burst(16, 8);
        let report = server.serve(&queries);
        let model = server.build_model();
        for r in &report.results {
            let pred = server
                .predict_windows_with(&model, &[r.window_end])
                .unwrap();
            for (t, &v) in r.forecast_std.iter().enumerate() {
                assert_eq!(v.to_bits(), pred.at(&[0, t, r.node, 0]).to_bits());
            }
        }
    }

    #[test]
    fn single_shard_has_no_halo_traffic() {
        let (server, _) = deployment(1);
        let report = server.serve(&burst(8, 8));
        assert_eq!(report.halo_bytes, 0, "one shard owns every row");
        assert!(report.p50_latency_secs > 0.0);
        assert!(report.p99_latency_secs >= report.p50_latency_secs);
        assert!(report.p999_latency_secs >= report.p99_latency_secs);
    }

    #[test]
    fn sharding_charges_halo_reads_and_routes_by_owner() {
        let (server, _) = deployment(2);
        let queries = burst(16, 8);
        let report = server.serve(&queries);
        assert!(report.halo_bytes > 0, "2 shards must exchange halo rows");
        for r in &report.results {
            assert_eq!(r.shard, server.owner_of(r.node), "static routing");
        }
        let total: usize = report.shards.iter().map(|s| s.requests).sum();
        assert_eq!(total, 16);
        for s in &report.shards {
            assert!(s.utilization(report.makespan_secs) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn original_units_apply_the_scaler() {
        let (mut server, _) = deployment(1);
        // Swap in a non-trivial scaler and re-admit standardized history.
        let scaler = StandardScaler::from_feature_stats(vec![(50.0, 5.0)]);
        server.snapshot.scaler = scaler.clone();
        let report = server.serve(&burst(4, 8));
        for r in &report.results {
            for (std, orig) in r.forecast_std.iter().zip(&r.forecast) {
                assert_eq!(orig.to_bits(), (std * 5.0 + 50.0).to_bits());
            }
        }
    }

    #[test]
    fn latencies_respect_the_busy_chain() {
        // One shard, queue of 1: every request is its own batch, so each
        // completion waits for the previous one — latencies must be
        // non-decreasing for a burst arriving (almost) together.
        let (server, _) = deployment(1);
        let mut cfgd = server.cfg.clone();
        cfgd.queue = QueueConfig {
            max_batch: 1,
            max_delay_secs: 0.0,
        };
        let server = BatchedServer {
            cfg: cfgd,
            ..server
        };
        let queries = burst(6, 8);
        let report = server.serve(&queries);
        for pair in report.results.windows(2) {
            assert!(
                pair[1].latency_secs >= pair[0].latency_secs - 1e-5,
                "queueing delay accumulates across a burst"
            );
        }
    }

    #[test]
    fn unservable_windows_are_rejected_not_panicked() {
        let (server, _) = deployment(1);
        let mut queries = burst(4, 8);
        queries[1].window_end = 1; // reaches below the ring? no — evicted once > cap admitted
        queries[1].window_end = 2; // horizon 3: end < h ⇒ evicted
        queries[2].window_end = 99; // far future ⇒ not yet servable
        let report = server.serve(&queries);
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.rejections.len(), 2);
        assert!((report.shed_rate - 0.5).abs() < 1e-12);
        assert!(matches!(
            report.rejections[0].reason,
            ShedReason::WindowEvicted { window_end: 2, .. }
        ));
        assert!(matches!(
            report.rejections[1].reason,
            ShedReason::NotYetServable {
                window_end: 99,
                admitted: 20
            }
        ));
        // Ids echo the caller's, and every query landed somewhere.
        assert_eq!(report.rejections[0].id, 101);
        assert_eq!(report.rejections[1].id, 102);
    }

    #[test]
    fn overload_with_slo_sheds_and_improves_tail_latency() {
        let (server, _) = deployment(1);
        // A hard burst into a per-request queue: the busy chain stacks up.
        let mut cfgd = server.cfg.clone();
        cfgd.queue = QueueConfig {
            max_batch: 1,
            max_delay_secs: 0.0,
        };
        let server = BatchedServer {
            cfg: cfgd,
            ..server
        };
        // Arrivals effectively simultaneous relative to per-batch service
        // time, so the busy chain stacks 64 deep without shedding.
        let mut queries = burst(64, 8);
        for (i, q) in queries.iter_mut().enumerate() {
            q.arrival_secs = i as f64 * 1e-12;
        }
        let unbounded = server.serve_slo(&queries, &SloConfig::unbounded());
        assert!(unbounded.rejections.is_empty());
        assert!(unbounded.p50_latency_secs > 0.0);
        let slo = SloConfig {
            deadline_secs: unbounded.p50_latency_secs,
            max_queue_depth: usize::MAX,
        };
        let bounded = server.serve_slo(&queries, &slo);
        assert!(bounded.shed_rate > 0.0, "overload must shed");
        assert!(
            bounded.p99_latency_secs < unbounded.p99_latency_secs,
            "admission control must strictly improve the served tail: {} vs {}",
            bounded.p99_latency_secs,
            unbounded.p99_latency_secs
        );
        let placed = bounded.results.len() + bounded.rejections.len();
        assert_eq!(placed, queries.len(), "no silent loss");
        for s in &bounded.shards {
            assert_eq!(s.shed, bounded.rejections.len());
        }
    }

    #[test]
    fn forecast_cache_is_bitwise_transparent() {
        let (server, _) = deployment(2);
        let mut cfgc = server.cfg.clone();
        cfgc.forecast_cache = true;
        let cached = BatchedServer {
            cfg: cfgc,
            ..server.clone()
        };
        // Repeat windows across many batches: the cache path must answer
        // bitwise what the forward path answers.
        let mut queries = burst(48, 8);
        for (i, q) in queries.iter_mut().enumerate() {
            q.window_end = 12 + (i % 3);
            q.arrival_secs = i as f64 * 0.5; // far apart: one batch each
        }
        let plain = server.serve(&queries);
        let fast = cached.serve(&queries);
        assert_eq!(plain.results.len(), fast.results.len());
        for (a, b) in plain.results.iter().zip(&fast.results) {
            for (va, vb) in a.forecast_std.iter().zip(&b.forecast_std) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
        let hits: usize = fast.shards.iter().map(|s| s.cache_hits).sum();
        assert!(hits > 0, "repeat windows must hit the cache");
        assert!(
            fast.halo_bytes < plain.halo_bytes,
            "cached windows skip halo"
        );
        assert_eq!(
            plain.shards.iter().map(|s| s.cache_hits).sum::<usize>(),
            0,
            "cache off by default"
        );
    }

    #[test]
    fn live_ticks_extend_servability() {
        let (mut server, _) = deployment(1);
        let report = server.serve(&[Query {
            id: 0,
            node: 0,
            window_end: 21,
            arrival_secs: 0.0,
        }]);
        assert_eq!(report.rejections.len(), 1, "row 20 not ingested yet");
        for node in 0..8 {
            server
                .admit_tick(&Tick {
                    node,
                    t: 20,
                    values: vec![0.25],
                })
                .unwrap();
        }
        assert_eq!(server.window().len(), 21);
        let report = server.serve(&[Query {
            id: 0,
            node: 0,
            window_end: 21,
            arrival_secs: 0.0,
        }]);
        assert_eq!(report.results.len(), 1, "tick completion unlocked it");
    }
}
