//! Window-parallel batched serving.
//!
//! PGT-I spreads work over the *temporal index*: a worker builds the
//! windows it was given from one shared signal. [`BatchedServer`] serves
//! the same way. The deployment builds the graph's diffusion supports
//! once, at deploy; every shard restores the **same** full-model replica
//! from the [`ModelSnapshot`] over them ([`BatchedServer::build_model`])
//! and reads the same full-N [`RollingWindow`], so
//! the unit of work is a window, not a node. A call's distinct servable
//! windows go round-robin to the shards in first-seen order (window counts
//! per shard differ by at most 1); each window is forwarded by exactly one
//! shard and scattered to every query that asked about it. The shards run
//! concurrently under [`st_dist::run_workers`], each draining its own
//! micro-batch schedule — [`crate::slo::admit_and_coalesce`], the one
//! scheduler (inert SLO gates by default; see [`ServeConfig::slo`]).
//!
//! Restored replicas are bit-identical (the snapshot tests pin it), so a
//! served forecast is bitwise the value the trainer's own evaluation
//! forward would produce, no matter which shard computed it.
//!
//! The forward itself is not split by space. PGT-DCRNN's receptive field
//! grows by 2K hops per step (two diffusion convolutions per DCGRU cell):
//! 48 hops at K = 2, h = 12, which covers the whole benchmark graph, so an
//! exact spatial halo would save little (DESIGN.md §5).
//!
//! Time is simulated, numerics are real: arrival times drive the
//! micro-batch schedule and each shard's modeled timeline (a batch starts
//! at max(previous completion, dispatch) and runs for its
//! [`st_device::CostModel::micro_batch_secs`] compute quote), producing
//! modeled p50/p99/p999 latencies and throughput, while the forwards
//! themselves are real tape-free computations
//! ([`st_models::Seq2Seq::forward_inference`]).

use std::collections::HashMap;

use crate::error::ServeError;
use crate::ingest::{IngestError, StreamIngest, Tick};
use crate::queue::{PendingRequest, QueueConfig};
use crate::slo::{admit_and_coalesce, BatchCost, ShedReason, SloConfig};
use crate::snapshot::ModelSnapshot;
use crate::window::RollingWindow;
use st_data::storage::SignalStorage;
use st_dist::launch::run_workers;
use st_dist::topology::ClusterTopology;
use st_graph::{diffusion_supports, Adjacency, Partitioning};
use st_models::{PgtDcrnn, Seq2Seq, Support};
use st_tensor::Tensor;

/// Serving deployment knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of window-parallel shards.
    pub shards: usize,
    /// Micro-batching policy each shard's queue runs.
    pub queue: QueueConfig,
    /// Ring capacity of the rolling signal buffer (maximum window reach).
    pub capacity: usize,
    /// Cluster topology the shards are modeled on.
    pub topology: ClusterTopology,
    /// Compute backend each shard selects before its first forward
    /// ([`st_tensor::backend::set_backend`]). Backends are bitwise
    /// identical — served forecasts stay bit-equal to the trainer's
    /// forward either way; only inference wall time moves. Defaults to the
    /// process-wide choice ([`st_tensor::backend::active_backend`]:
    /// `ST_BACKEND`, or an earlier `set_backend`), so a deployment that
    /// does not set this field leaves the process's backend alone.
    pub backend: st_tensor::backend::BackendKind,
    /// The deployment's SLO, which every [`BatchedServer::serve`] call
    /// enforces (a different SLO is a different deployment). Defaults to
    /// [`SloConfig::unbounded`] — never sheds, bit-identical to pre-SLO
    /// serving.
    pub slo: SloConfig,
    /// Cache each distinct window's standardized target-channel forecast
    /// for the duration of a [`BatchedServer::serve`] call, so repeat
    /// windows across micro-batches skip their forward (and its modeled
    /// compute). Safe because per-window forwards are batch-composition-
    /// invariant bitwise (pinned by the round-trip tests). Defaults to
    /// `false` — every batch pays its forward, the pre-cache behavior the
    /// serve benchmarks pin.
    pub forecast_cache: bool,
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
            backend: st_tensor::backend::active_backend(),
            slo: SloConfig::unbounded(),
            forecast_cache: false,
        }
    }
}

/// One forecast request: "what happens at `node` after stream time
/// `window_end`?"
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// Caller-side request id (echoed back on the result).
    pub id: usize,
    /// The node whose forecast is requested.
    pub node: usize,
    /// Input window end, exclusive stream time (the window is the
    /// `horizon` most recent readings before it); decides the shard.
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
/// ([`ShedReason::WindowEvicted`] / [`ShedReason::NotYetServable`]), it
/// names a node the snapshot does not have ([`ShedReason::UnknownNode`]),
/// or it arrived out of order ([`ShedReason::OutOfOrder`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rejection {
    /// The caller-side id from the [`Query`].
    pub id: usize,
    /// The queried node.
    pub node: usize,
    /// The shard whose admission control refused the query; 0 for a
    /// query rejected before routing (out of order, unknown node,
    /// unservable window).
    pub shard: usize,
    /// The requested window end.
    pub window_end: usize,
    /// Why it was rejected.
    pub reason: ShedReason,
}

/// Per-shard serving statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Inert: this shard's block of a contiguous node split, which no
    /// longer routes anything. Kept for callers that predate window
    /// routing.
    #[doc(hidden)]
    pub owned_nodes: usize,
    /// Requests routed here (the queries of this shard's windows;
    /// pre-routing rejections excluded).
    pub requests: usize,
    /// Requests this shard's admission control shed.
    pub shed: usize,
    /// Micro-batches dispatched.
    pub batches: usize,
    /// Window forwards this shard ran (cache hits excluded).
    pub windows_forwarded: usize,
    /// Distinct windows answered from the forecast cache instead of a
    /// forward (always 0 with [`ServeConfig::forecast_cache`] off).
    pub cache_hits: usize,
    /// Inert: always 0, since every shard reads the same full ring. Kept
    /// for callers that predate window routing.
    #[doc(hidden)]
    pub halo_bytes: u64,
    /// Modeled forward-compute seconds this shard was busy.
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
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A snapshot-backed, window-parallel batched inference server.
///
/// Holds the deployment's static state — the trained [`ModelSnapshot`],
/// the graph and its diffusion supports (built once, at deploy), the
/// rolling signal buffer, and the live-ingest front. Each job has one
/// path: [`BatchedServer::serve`] is the request path (under
/// [`ServeConfig::slo`]), [`BatchedServer::admit_tick`] the data path, and
/// [`BatchedServer::build_model`] the only way to a model replica.
#[derive(Debug, Clone)]
pub struct BatchedServer {
    snapshot: ModelSnapshot,
    adjacency: Adjacency,
    /// The graph's diffusion supports for the snapshot's K; every replica
    /// shares these `Arc`s.
    supports: Vec<Support>,
    /// Backs only the inert [`BatchedServer::owner_of`] /
    /// [`BatchedServer::partitioning`]; routing never reads it.
    partitioning: Partitioning,
    window: RollingWindow,
    ingest: StreamIngest,
    cfg: ServeConfig,
}

impl BatchedServer {
    /// Deploy a snapshot over `adjacency` with an empty signal buffer. The
    /// graph's diffusion supports are built here, once, and one replica is
    /// restored to check that the snapshot's parameters fit its config.
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
        let supports = Support::wrap_all(diffusion_supports(
            &adjacency,
            snapshot.config.diffusion_steps,
        ));
        if let Err(e) = snapshot.build_pgt_dcrnn(&supports) {
            panic!("snapshot does not fit its own config: {e}");
        }
        // Balanced contiguous node blocks, valid for more shards than nodes.
        let n = snapshot.config.num_nodes;
        let partitioning =
            Partitioning::from_assignment((0..n).map(|i| i * cfg.shards / n).collect(), cfg.shards);
        let window = RollingWindow::new(
            cfg.capacity,
            snapshot.config.num_nodes,
            snapshot.config.input_dim,
            snapshot.scaler.clone(),
        );
        // Live-ingest skew bound: a fast sensor may run at most a full
        // ring ahead of the slowest — staging beyond that is pathological.
        let ingest = StreamIngest::new(
            snapshot.config.num_nodes,
            snapshot.config.input_dim,
            cfg.capacity.max(1),
        );
        BatchedServer {
            snapshot,
            adjacency,
            supports,
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
            self.cfg.capacity.max(1),
            self.window.len(),
        );
    }

    /// Redeploy with a **new model snapshot** over the live state: the
    /// ring, ingest watermarks, graph and config carry over, so the
    /// swapped-in server's forwards are bit-identical to a server
    /// constructed fresh from the new snapshot over the same history.
    /// The supports carry over too (the same `Arc`s) unless the snapshot
    /// changes K, which builds them fresh. One replica is restored up
    /// front: a state dict that does not fit the snapshot's own config is
    /// [`ServeError::Snapshot`]. The hot-reload building block behind
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
        let supports = if snapshot.config.diffusion_steps == self.snapshot.config.diffusion_steps {
            self.supports.clone()
        } else {
            Support::wrap_all(diffusion_supports(
                &self.adjacency,
                snapshot.config.diffusion_steps,
            ))
        };
        snapshot
            .build_pgt_dcrnn(&supports)
            .map_err(ServeError::Snapshot)?;
        Ok(BatchedServer {
            snapshot,
            adjacency: self.adjacency.clone(),
            supports,
            partitioning: self.partitioning.clone(),
            window: self.window.clone(),
            ingest: self.ingest.clone(),
            cfg: self.cfg.clone(),
        })
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

    /// Inert: a contiguous node split that no longer routes anything.
    /// Kept for callers that predate window routing.
    #[doc(hidden)]
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Inert: `node`'s block in [`BatchedServer::partitioning`], not the
    /// shard that serves it. Kept for callers that predate window routing.
    #[doc(hidden)]
    pub fn owner_of(&self, node: usize) -> usize {
        self.partitioning.part_of(node)
    }

    /// The deployment's diffusion supports, built once at deploy and
    /// shared by every replica [`BatchedServer::build_model`] restores.
    pub fn supports(&self) -> &[Support] {
        &self.supports
    }

    /// Restore the served model replica from the snapshot over the
    /// deployment's supports (a parameter restore; no graph-sized work):
    /// the one way to a replica, which every shard of a call takes.
    pub fn build_model(&self) -> PgtDcrnn {
        // Deploy and swap restored this snapshot over these supports
        // already, so the restore cannot fail here.
        self.snapshot
            .build_pgt_dcrnn(&self.supports)
            .expect("the snapshot was restored once at deploy")
    }

    /// Tape-free batched forward over the buffered windows ending at
    /// `ends`, on a replica from [`BatchedServer::build_model`]: returns
    /// the standardized `[B, horizon, N, 1]` prediction — bitwise what the
    /// trainer's evaluation forward produces on the same windows. The
    /// single-shard reference path the round-trip tests pin.
    pub fn predict_windows_with(
        &self,
        model: &PgtDcrnn,
        ends: &[usize],
    ) -> Result<Tensor, ServeError> {
        let x = self.window.batch(ends, self.snapshot.config.horizon)?;
        Ok(model.forward_inference(&x))
    }

    /// Serve a stream of queries (sorted by arrival) under the
    /// deployment's SLO ([`ServeConfig::slo`]; unbounded — never shedding —
    /// by default): route each to the shard its window was dealt to, run
    /// SLO admission control over each shard's micro-batch queue, and
    /// replay the admitted schedule as batched tape-free forwards
    /// concurrently across shards. A query that arrives before an earlier
    /// one (or at NaN), an unknown node and an unservable window (evicted /
    /// not yet ingested) are rejected before routing; every query lands in
    /// exactly one of [`ServeReport::results`] /
    /// [`ServeReport::rejections`].
    pub fn serve(&self, queries: &[Query]) -> ServeReport {
        let horizon = self.snapshot.config.horizon;
        let nodes = self.snapshot.config.num_nodes;

        // Pre-routing servability: an arrival earlier than the call's
        // latest, a node the snapshot does not have or a window the ring
        // cannot produce is a typed rejection, not a panic in the caller
        // or in a worker thread.
        let mut pre_rejected: Vec<(usize, Rejection)> = Vec::new();
        let mut latest = f64::NEG_INFINITY;
        // Window routing: the call's distinct servable windows are dealt
        // round-robin to shards in first-seen order, and shard r sees its
        // windows' requests in arrival order (`PendingRequest::id` is the
        // index into `queries`).
        let mut shard_of: HashMap<usize, usize> = HashMap::new();
        let mut routed = vec![Vec::new(); self.cfg.shards];
        for (idx, q) in queries.iter().enumerate() {
            // False for a NaN arrival too.
            let in_order = q.arrival_secs >= latest;
            let refusal = if !in_order {
                Some(ShedReason::OutOfOrder {
                    arrival_secs: q.arrival_secs,
                    latest_secs: latest,
                })
            } else if q.node >= nodes {
                Some(ShedReason::UnknownNode {
                    node: q.node,
                    nodes,
                })
            } else {
                match self.window.window_status(q.window_end, horizon) {
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
                }
            };
            if in_order {
                latest = q.arrival_secs;
            }
            match refusal {
                None => {
                    let next = shard_of.len() % self.cfg.shards;
                    let shard = *shard_of.entry(q.window_end).or_insert(next);
                    routed[shard].push(PendingRequest {
                        id: idx,
                        arrival_secs: q.arrival_secs,
                        window_end: q.window_end,
                    });
                }
                Some(reason) => pre_rejected.push((
                    idx,
                    Rejection {
                        id: q.id,
                        node: q.node,
                        shard: 0,
                        window_end: q.window_end,
                        reason,
                    },
                )),
            }
        }

        let per_shard = run_workers(self.cfg.shards, self.cfg.topology, |ctx| {
            let shard = ctx.rank();
            let mut stats = ShardStats {
                shard,
                owned_nodes: self.partitioning.part_nodes(shard).len(),
                requests: routed[shard].len(),
                ..ShardStats::default()
            };
            let mut results = Vec::with_capacity(routed[shard].len());
            if routed[shard].is_empty() {
                return (results, Vec::new(), stats);
            }
            // Each shard thread selects the deployment's compute backend
            // before any forward runs (bitwise-identical either way).
            st_tensor::backend::set_backend(self.cfg.backend);
            let cost = ctx.comm.hub().cost_model().clone();
            // Every shard restores the same bit-identical replica.
            let model = self.build_model();

            // Admission control prices batches through the same
            // CostModel::micro_batch_secs the executor below charges.
            let schedule = admit_and_coalesce(
                &routed[shard],
                &self.cfg.queue,
                &self.cfg.slo,
                &BatchCost {
                    halo_bytes_per_window: 0,
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
            stats.shed = rejections.len();

            // The shard's modeled timeline: a batch occupies it from
            // max(previous completion, dispatch) for its compute quote.
            let mut busy_until = 0.0f64;
            // Standardized target-channel planes ([horizon × N] each) of
            // the windows this batch forwarded, kept across batches when
            // the forecast cache is on.
            let mut planes: HashMap<usize, Vec<f32>> = HashMap::new();
            for batch in &schedule.batches {
                let uncached: Vec<usize> = batch
                    .windows
                    .iter()
                    .copied()
                    .filter(|w| !planes.contains_key(w))
                    .collect();
                stats.cache_hits += batch.windows.len() - uncached.len();
                busy_until = busy_until.max(batch.dispatch_secs);
                if !uncached.is_empty() {
                    let (_, compute_secs) =
                        cost.micro_batch_secs(0, model.flops_per_forward(uncached.len()));
                    let x = self
                        .window
                        .batch(&uncached, horizon)
                        .expect("servability pre-checked before routing");
                    // [B, horizon, N, out]: window j's target channel is
                    // every `out`-th value of its contiguous block.
                    let pred = model.forward_inference(&x).contiguous();
                    let out = pred.dim(3);
                    let per_window = horizon * nodes * out;
                    let values = pred.as_slice().expect("contiguous");
                    for (block, &w) in values.chunks_exact(per_window).zip(&uncached) {
                        planes.insert(w, block.iter().step_by(out).copied().collect());
                    }
                    busy_until += compute_secs;
                    stats.busy_secs += compute_secs;
                    stats.windows_forwarded += uncached.len();
                }
                stats.batches += 1;
                stats.finish_secs = busy_until;
                for (&idx, &slot) in batch.requests.iter().zip(&batch.window_of) {
                    let q = &queries[idx];
                    let plane = &planes[&batch.windows[slot]];
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
                            latency_secs: busy_until - q.arrival_secs,
                            batch_windows: batch.windows.len(),
                        },
                    ));
                }
                if !self.cfg.forecast_cache {
                    planes.clear();
                }
            }
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
        assert!(report.p50_latency_secs > 0.0);
        assert!(report.p99_latency_secs >= report.p50_latency_secs);
        assert!(report.p999_latency_secs >= report.p99_latency_secs);
    }

    #[test]
    fn routes_each_distinct_window_to_one_shard() {
        let (server, _) = deployment(2);
        // 16 queries over 8 distinct windows, all in one batch per shard.
        let queries = burst(16, 8);
        let report = server.serve(&queries);
        assert_eq!(report.results.len(), 16);
        let mut served_by: HashMap<usize, usize> = HashMap::new();
        for r in &report.results {
            let shard = *served_by.entry(r.window_end).or_insert(r.shard);
            assert_eq!(shard, r.shard, "window {} on two shards", r.window_end);
        }
        assert_eq!(served_by.len(), 8);
        let forwarded: Vec<usize> = report.shards.iter().map(|s| s.windows_forwarded).collect();
        assert_eq!(forwarded, vec![4, 4], "8 windows dealt round-robin");
        let total: usize = report.shards.iter().map(|s| s.requests).sum();
        assert_eq!(total, 16);
        for s in &report.shards {
            assert_eq!(s.halo_bytes, 0, "every shard reads the full ring");
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
    fn out_of_order_arrivals_are_rejected_not_panicked() {
        let (server, _) = deployment(1);
        let [first, second] = [0, 1].map(|i| Query {
            id: 100 + i,
            node: i,
            window_end: 10 + i,
            arrival_secs: 0.5,
        });
        let alone = server.serve(&[second]);
        for early in [1.0, f64::NAN] {
            let report = server.serve(&[
                Query {
                    arrival_secs: early,
                    ..first
                },
                second,
            ]);
            assert_eq!(report.results.len() + report.rejections.len(), 2);
            let rejected = &report.rejections[0];
            match (early.is_nan(), rejected.reason) {
                // 0.5 follows 1.0: the second query is out of order.
                (
                    false,
                    ShedReason::OutOfOrder {
                        arrival_secs,
                        latest_secs,
                    },
                ) => {
                    assert_eq!((rejected.id, arrival_secs, latest_secs), (101, 0.5, 1.0));
                    assert_eq!(report.results[0].id, 100);
                }
                // A NaN arrival is out of order itself and moves nothing:
                // the second query is served as if it came alone.
                (true, ShedReason::OutOfOrder { arrival_secs, .. }) => {
                    assert!(arrival_secs.is_nan() && rejected.id == 100);
                    let (a, b) = (&report.results[0], &alone.results[0]);
                    assert_eq!(a.id, 101);
                    assert_eq!(a.latency_secs, b.latency_secs);
                    assert_eq!(a.forecast_std, b.forecast_std);
                }
                (_, other) => panic!("arrival {early}: expected OutOfOrder, got {other:?}"),
            }
        }
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
        let unbounded = server.serve(&queries);
        assert!(unbounded.rejections.is_empty());
        assert!(unbounded.p50_latency_secs > 0.0);
        // One deployment per SLO.
        let mut cfgs = server.cfg.clone();
        cfgs.slo = SloConfig {
            deadline_secs: unbounded.p50_latency_secs,
            max_queue_depth: usize::MAX,
        };
        let bounded = BatchedServer {
            cfg: cfgs,
            ..server
        }
        .serve(&queries);
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
        let forwarded =
            |r: &ServeReport| r.shards.iter().map(|s| s.windows_forwarded).sum::<usize>();
        assert_eq!(forwarded(&plain), 48, "one batch, one forward per query");
        assert_eq!(forwarded(&fast), 3, "each of 3 windows forwarded once");
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
