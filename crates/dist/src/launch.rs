//! Worker launch and barrier-synchronized collectives.
//!
//! [`run_workers`] spawns one OS thread per rank; each gets a [`WorkerCtx`]
//! holding a [`Comm`] (rank + shared [`CommHub`]) and its own
//! [`SimClock`]. Collectives exchange payloads through the hub under a
//! reusable barrier and combine them **in rank order**, so results are
//! bit-identical regardless of thread scheduling — the invariant that lets
//! the simulated clock model stragglers without perturbing numerics
//! (`tests/distributed.rs::straggler_noise_never_leaks_into_numerics`).
//!
//! There is one all-reduce, [`Comm::all_reduce`]`(buf, op, timing)`: one
//! gather-and-sum-in-rank-order loop whose [`Timing`] argument picks the
//! clock policy. `Charge` synchronizes simulated clocks to the latest rank
//! (barrier semantics: nobody leaves an all-reduce before the slowest
//! arrives) and charges the modeled ring time from
//! [`CostModel::allreduce`]; `Quote` hands those seconds to the caller's
//! overlap scheduler; `Async` skips the rendezvous too and returns the
//! instant the result is available. [`Comm::broadcast`],
//! [`Comm::barrier`] and [`Comm::all_gather_scalar`] always rendezvous
//! and charge.

use crate::topology::ClusterTopology;
use st_device::{CostModel, SimClock};
use st_tensor::par;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

/// One rank's posted payload: `(simulated now, payload)`. Payloads are
/// shared, so a reader takes pointers under the hub lock and reads the
/// slices outside it — nothing is copied per reader.
type Slot = Option<(f64, Arc<[f32]>)>;

/// How [`Comm::all_reduce`] combines the ranks' buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum, accumulated in rank order.
    Sum,
    /// The rank-order sum divided by the world size.
    Mean,
}

/// What [`Comm::all_reduce`] does with the collective's modeled time. The
/// numerics and the ledger bytes are the same under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// Rendezvous with the slowest rank and charge the ring's wire
    /// seconds to this rank's clock. Returns the seconds charged.
    Charge,
    /// Rendezvous, but return the wire seconds instead of charging them —
    /// mirroring the data planes' quoted fetches, so an overlap scheduler
    /// decides whether the time hides behind compute or is paid exposed.
    Quote,
    /// Neither rendezvous nor charge (the bounded-staleness engine's
    /// non-blocking form): return the absolute modeled instant at which
    /// the result is *available* — `t_slowest + wire` — for an
    /// [`st_device::OverlapLedger::begin_at`] deadline stream.
    Async,
}

/// Shared state for one `run_workers` world: payload slots, a reusable
/// barrier, the cost model, and the cross-rank traffic ledger.
pub struct CommHub {
    world: usize,
    topology: ClusterTopology,
    cost: CostModel,
    /// One payload slot per rank.
    slots: Mutex<Vec<Slot>>,
    barrier: Barrier,
    /// Total collective payload bytes moved across all ranks.
    bytes: AtomicU64,
}

impl CommHub {
    /// Hub for `world` ranks on `topology`, with Polaris cost constants.
    pub fn new(world: usize, topology: ClusterTopology) -> Self {
        assert!(world > 0, "world must be positive");
        CommHub {
            world,
            topology,
            cost: CostModel::default(),
            slots: Mutex::new(vec![None; world]),
            barrier: Barrier::new(world),
            bytes: AtomicU64::new(0),
        }
    }

    /// Number of ranks.
    pub fn world(&self) -> usize {
        self.world
    }

    /// The cluster topology.
    pub fn topology(&self) -> ClusterTopology {
        self.topology
    }

    /// The cost model all collectives charge against.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Total collective payload bytes moved so far (all ranks).
    pub fn bytes_moved(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn lock_slots(&self) -> MutexGuard<'_, Vec<Slot>> {
        self.slots
            .lock()
            .expect("a rank panicked while holding the hub")
    }
}

/// One rank's handle on the collective hub.
pub struct Comm {
    rank: usize,
    hub: Arc<CommHub>,
    clock: SimClock,
}

impl Comm {
    /// This rank's index in `[0, world)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The shared hub (cost model, topology, byte ledger).
    pub fn hub(&self) -> &CommHub {
        &self.hub
    }

    /// Exchange `payload` with every rank; returns all payloads in rank
    /// order. The building block for every collective below. Synchronizes
    /// simulated clocks to the slowest rank.
    fn exchange(&mut self, payload: Arc<[f32]>) -> Vec<Arc<[f32]>> {
        let (t_max, all) = self.exchange_unsynced(payload);
        self.clock.sync_to(t_max);
        all
    }

    /// [`Comm::exchange`] without the closing clock rendezvous: returns
    /// `(t_max, payloads)` where `t_max` is the slowest participating
    /// rank's simulated time. The bounded-staleness path builds on this —
    /// the payloads are combined eagerly (numerics never wait), while the
    /// caller decides when, if ever, its clock observes `t_max`.
    fn exchange_unsynced(&mut self, payload: Arc<[f32]>) -> (f64, Vec<Arc<[f32]>>) {
        if self.hub.world == 1 {
            return (self.clock.now(), vec![payload]);
        }
        {
            let mut slots = self.hub.lock_slots();
            slots[self.rank] = Some((self.clock.now(), payload));
        }
        // Everyone has written.
        self.hub.barrier.wait();
        let mut t_max = 0.0_f64;
        let all: Vec<Arc<[f32]>> = {
            let slots = self.hub.lock_slots();
            slots
                .iter()
                .map(|s| {
                    let (t, payload) = s.as_ref().expect("slot filled");
                    t_max = t_max.max(*t);
                    Arc::clone(payload)
                })
                .collect()
        };
        // Everyone has read; only now may a rank start the next collective
        // (its slot write would otherwise race a slow reader).
        self.hub.barrier.wait();
        (t_max, all)
    }

    /// Record `bytes` on the shared traffic ledger. Rank 0 posts the whole
    /// collective's volume **before** the payload exchange, so the exchange
    /// barriers order the write ahead of any rank's post-collective
    /// `bytes_moved` read (posting after the exchange raced those reads).
    fn ledger_collective(&self, bytes: u64) {
        if self.rank == 0 {
            self.hub.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Modeled seconds of a ring all-reduce of `payload_elems` f32 per
    /// rank, **not** charged to any clock.
    fn quote_allreduce(&self, payload_elems: usize) -> f64 {
        let world = self.hub.world;
        if world == 1 {
            return 0.0;
        }
        let bytes = (payload_elems * 4) as u64;
        self.hub
            .cost
            .allreduce(bytes, world, self.hub.topology.gpus_per_node)
    }

    /// Charge `secs` of modeled collective time to this rank's clock.
    fn charge(&self, secs: f64) {
        if secs > 0.0 {
            self.clock.advance_comm(secs);
        }
    }

    /// Ring all-reduce ledger volume for `payload_elems` f32 per rank.
    fn allreduce_ledger_bytes(&self, payload_elems: usize) -> u64 {
        let world = self.hub.world as u64;
        if world == 1 {
            return 0;
        }
        2 * (world - 1) * (payload_elems * 4) as u64
    }

    /// The one all-reduce: combine `buf` across ranks in place (`op`),
    /// deterministically — the sum is accumulated in rank order on every
    /// rank — with the ring's bytes on the ledger before the exchange.
    /// `timing` decides what happens to the modeled seconds and what the
    /// returned number means; see [`Timing`].
    pub fn all_reduce(&mut self, buf: &mut [f32], op: ReduceOp, timing: Timing) -> f64 {
        let n = buf.len();
        self.ledger_collective(self.allreduce_ledger_bytes(n));
        let (t_max, all) = self.exchange_unsynced(Arc::from(&*buf));
        if timing != Timing::Async {
            self.clock.sync_to(t_max);
        }
        buf.fill(0.0);
        for contribution in &all {
            assert_eq!(contribution.len(), n, "all-reduce length mismatch");
            for (acc, v) in buf.iter_mut().zip(contribution.iter()) {
                *acc += v;
            }
        }
        if op == ReduceOp::Mean {
            let world = self.hub.world as f32;
            for v in buf.iter_mut() {
                *v /= world;
            }
        }
        let secs = self.quote_allreduce(n);
        match timing {
            Timing::Charge => {
                self.charge(secs);
                secs
            }
            Timing::Quote => secs,
            Timing::Async => t_max + secs,
        }
    }

    /// Gather one scalar from every rank, in rank order.
    pub fn all_gather_scalar(&mut self, v: f32) -> Vec<f32> {
        self.ledger_collective(self.allreduce_ledger_bytes(1));
        let all = self.exchange(Arc::from([v]));
        self.charge(self.quote_allreduce(1));
        all.iter().map(|p| p[0]).collect()
    }

    /// Overwrite `buf` with rank 0's copy on every rank.
    pub fn broadcast(&mut self, buf: &mut [f32]) {
        let world = self.hub.world;
        if world == 1 {
            return;
        }
        let n = buf.len();
        let bytes = (n * 4) as u64;
        // Tree broadcast: everyone receives one copy from upstream.
        self.ledger_collective((world as u64 - 1) * bytes);
        let all = self.exchange(Arc::from(&*buf));
        assert_eq!(all[0].len(), n, "broadcast length mismatch");
        buf.copy_from_slice(&all[0]);
        let hops = (world as f64).log2().ceil();
        let secs = hops * (self.hub.cost.network_latency + bytes as f64 / self.hub.cost.network_bw);
        self.clock.advance_comm(secs);
    }

    /// Barrier: rendezvous and synchronize simulated clocks.
    pub fn barrier(&mut self) {
        let _ = self.exchange(Arc::from([]));
    }
}

/// Per-worker context handed to the `run_workers` closure. The thread it is
/// handed to already runs at the rank's intra-op width (see
/// [`run_workers`]).
pub struct WorkerCtx {
    /// Collective communicator bound to this rank.
    pub comm: Comm,
    /// This worker's simulated clock (shared with `comm`, which charges
    /// collective time onto it).
    pub clock: SimClock,
}

impl WorkerCtx {
    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Total ranks in this run.
    pub fn world(&self) -> usize {
        self.comm.hub().world()
    }
}

/// Spawn `world` worker threads, run `f(ctx)` on each, and return the
/// results **in rank order**. Panics in any worker propagate.
///
/// The closure is shared (`Fn + Sync`) and may borrow from the caller;
/// results only need `Send`.
///
/// **Width contract.** The ranks share their caller's intra-op thread
/// budget instead of each taking the whole machine: every rank thread runs
/// `f` at [`st_tensor::par::width`] = `max(1, caller's width / world)` —
/// from an unbudgeted thread that is `max(1, num_threads() / world)`, the
/// paper's one worker per device with a fixed share of the host. The width
/// is derived, never configured; it changes how kernels are chunked and
/// never a result bit. `world == 1` runs on the calling thread and keeps
/// its width, and the caller's own width is unchanged on return.
pub fn run_workers<F, R>(world: usize, topology: ClusterTopology, f: F) -> Vec<R>
where
    F: Fn(WorkerCtx) -> R + Sync,
    R: Send,
{
    assert!(world > 0, "world must be positive");
    if world == 1 {
        // Fast path: no thread spawn for single-rank runs.
        return vec![run_single(topology, f)];
    }
    let hub = Arc::new(CommHub::new(world, topology));
    let width = par::width() / world;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..world)
            .map(|rank| {
                let hub = Arc::clone(&hub);
                let f = &f;
                scope.spawn(move || {
                    let clock = SimClock::new();
                    let comm = Comm {
                        rank,
                        hub,
                        clock: clock.clone(),
                    };
                    par::with_width(width, || f(WorkerCtx { comm, clock }))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Run `f` as a one-rank world **on the calling thread**. Collectives are
/// free no-ops, so this is the inline path for single-worker consumers
/// that still speak the engine's `WorkerCtx` protocol — unlike
/// [`run_workers`] it needs neither `Sync` on the closure nor `Send` on
/// the result, so non-`Send` state (models hold `Rc` parameters) can be
/// built inside and handed back.
pub fn run_single<F, R>(topology: ClusterTopology, f: F) -> R
where
    F: FnOnce(WorkerCtx) -> R,
{
    let hub = Arc::new(CommHub::new(1, topology));
    let clock = SimClock::new();
    let comm = Comm {
        rank: 0,
        hub,
        clock: clock.clone(),
    };
    f(WorkerCtx { comm, clock })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_rank_order() {
        let out = run_workers(4, ClusterTopology::polaris(), |ctx| ctx.rank());
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sum_all_reduce_is_exact_and_symmetric() {
        let out = run_workers(3, ClusterTopology::polaris(), |mut ctx| {
            let mut buf = vec![ctx.rank() as f32, 1.0];
            ctx.comm.all_reduce(&mut buf, ReduceOp::Sum, Timing::Charge);
            buf
        });
        for r in out {
            assert_eq!(r, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn all_gather_scalar_orders_by_rank() {
        let out = run_workers(3, ClusterTopology::polaris(), |mut ctx| {
            ctx.comm.all_gather_scalar(10.0 * ctx.rank() as f32)
        });
        for r in out {
            assert_eq!(r, vec![0.0, 10.0, 20.0]);
        }
    }

    #[test]
    fn broadcast_imposes_rank0_values() {
        let out = run_workers(3, ClusterTopology::polaris(), |mut ctx| {
            let mut buf = vec![ctx.rank() as f32; 4];
            ctx.comm.broadcast(&mut buf);
            buf
        });
        for r in out {
            assert_eq!(r, vec![0.0; 4]);
        }
    }

    #[test]
    fn collectives_charge_time_and_bytes() {
        let out = run_workers(2, ClusterTopology::polaris(), |mut ctx| {
            let mut buf = vec![1.0f32; 1024];
            ctx.comm
                .all_reduce(&mut buf, ReduceOp::Mean, Timing::Charge);
            (ctx.clock.comm_secs(), ctx.comm.hub().bytes_moved())
        });
        for (comm_secs, bytes) in out {
            assert!(comm_secs > 0.0);
            // 2(world-1) × 4 KiB payload = 8 KiB on the ledger.
            assert_eq!(bytes, 2 * 1024 * 4);
        }
    }

    #[test]
    fn quoted_all_reduce_matches_charging_variant_except_the_clock() {
        let out = run_workers(2, ClusterTopology::polaris(), |mut ctx| {
            let mut charged = vec![ctx.rank() as f32 + 1.0; 16];
            let mut quoted = charged.clone();
            ctx.comm
                .all_reduce(&mut charged, ReduceOp::Mean, Timing::Charge);
            let charged_secs = ctx.clock.comm_secs();
            let quote = ctx
                .comm
                .all_reduce(&mut quoted, ReduceOp::Mean, Timing::Quote);
            (charged, quoted, charged_secs, quote, ctx.clock.comm_secs())
        });
        for (charged, quoted, charged_secs, quote, after) in out {
            assert_eq!(charged, quoted, "identical numerics");
            assert!(charged_secs > 0.0);
            assert!((quote - charged_secs).abs() < 1e-12, "same modeled time");
            assert_eq!(after, charged_secs, "quote did not touch the clock");
        }
    }

    #[test]
    fn async_all_reduce_matches_sync_numerics_without_rendezvous() {
        let out = run_workers(3, ClusterTopology::polaris(), |mut ctx| {
            // Skew the clocks so the rendezvous would be visible.
            ctx.clock.advance_compute(ctx.rank() as f64);
            let mut sync_buf = vec![ctx.rank() as f32 + 1.0; 16];
            let mut async_buf = sync_buf.clone();
            let before = ctx.clock.now();
            let ready_at = ctx
                .comm
                .all_reduce(&mut async_buf, ReduceOp::Mean, Timing::Async);
            let after = ctx.clock.now();
            ctx.comm
                .all_reduce(&mut sync_buf, ReduceOp::Mean, Timing::Charge);
            (sync_buf, async_buf, before, after, ready_at)
        });
        for (sync_buf, async_buf, before, after, ready_at) in out {
            assert_eq!(sync_buf, async_buf, "identical rank-order mean");
            assert_eq!(before, after, "async variant never moves the clock");
            // Result is available strictly after the slowest rank (t=2.0)
            // contributed plus the ring's wire time.
            assert!(ready_at > 2.0, "ready_at = {ready_at}");
        }
    }

    #[test]
    fn single_rank_async_all_reduce_is_immediately_ready() {
        let out = run_workers(1, ClusterTopology::polaris(), |mut ctx| {
            ctx.clock.advance_compute(1.5);
            let mut buf = vec![4.0f32; 4];
            let ready_at = ctx.comm.all_reduce(&mut buf, ReduceOp::Mean, Timing::Async);
            (buf, ready_at, ctx.clock.now())
        });
        let (buf, ready_at, now) = &out[0];
        assert_eq!(*buf, vec![4.0f32; 4]);
        assert_eq!(*ready_at, *now, "no peers, no wire: ready now");
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let out = run_workers(1, ClusterTopology::polaris(), |mut ctx| {
            let mut buf = vec![2.0f32; 8];
            ctx.comm
                .all_reduce(&mut buf, ReduceOp::Mean, Timing::Charge);
            (buf, ctx.clock.comm_secs(), ctx.comm.hub().bytes_moved())
        });
        let (buf, secs, bytes) = &out[0];
        assert_eq!(*buf, vec![2.0f32; 8]);
        assert_eq!(*secs, 0.0);
        assert_eq!(*bytes, 0);
    }

    #[test]
    fn run_single_supports_non_send_results() {
        // The inline path exists so single-rank callers can hand back
        // non-Send state (e.g. Rc-parameterized models).
        let out = run_single(ClusterTopology::polaris(), |mut ctx| {
            let mut buf = vec![3.0f32; 2];
            ctx.comm
                .all_reduce(&mut buf, ReduceOp::Mean, Timing::Charge);
            std::rc::Rc::new((buf, ctx.rank()))
        });
        assert_eq!(*out, (vec![3.0, 3.0], 0));
    }

    #[test]
    fn clocks_sync_to_the_slowest_rank() {
        let out = run_workers(3, ClusterTopology::polaris(), |mut ctx| {
            ctx.clock.advance_compute(ctx.rank() as f64);
            ctx.comm.barrier();
            ctx.clock.now()
        });
        // All ranks leave the barrier at (at least) the slowest rank's time.
        for now in out {
            assert!(now >= 2.0, "now = {now}");
        }
    }
}
