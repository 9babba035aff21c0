//! SLO-driven admission control and load shedding on the micro-batch queue.
//!
//! [`crate::queue::coalesce`] batches everything it is given; under
//! sustained overload that drives the busy chain — and with it every
//! later request's latency — unboundedly high. [`admit_and_coalesce`]
//! wraps the same coalescing state machine with two admission gates,
//! evaluated at each arrival *before* the request joins a batch:
//!
//! 1. **Bounded queue depth** — requests admitted but not yet complete
//!    (open-batch members plus dispatched work whose modeled completion
//!    is still in the future) may not exceed
//!    [`SloConfig::max_queue_depth`]; excess arrivals shed
//!    [`ShedReason::QueueFull`].
//! 2. **Deadline-aware shedding** — the batch the request would join is
//!    priced through [`BatchCost`] (the same
//!    [`st_device::CostModel::micro_batch_secs`] call the shard executor
//!    charges): the batched forward, started no earlier than the shard is
//!    free. If the modeled completion at the batch's *latest* possible
//!    dispatch (its timer deadline) would land past
//!    `arrival + deadline_secs`, the request is shed
//!    [`ShedReason::DeadlineUnmeetable`] instead of being queued only to
//!    blow its SLO.
//!
//! Shedding never mutates queue state: the schedule after a rejection is
//! exactly the schedule of the stream without that request, and every
//! shed request gets an explicit typed [`Shed`] record — no silent loss.
//! With [`SloConfig::unbounded`] both gates are inert and the schedule
//! is bit-for-bit the plain [`crate::queue::coalesce`] schedule (pinned
//! by test and proptest).

use std::collections::VecDeque;

use st_device::CostModel;

use crate::queue::{MicroBatch, OpenBatch, PendingRequest, QueueConfig};

/// Per-tenant service-level objective knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Maximum modeled seconds between a request's arrival and its
    /// batch's completion before admission control sheds it.
    /// `f64::INFINITY` disables deadline shedding.
    pub deadline_secs: f64,
    /// Maximum requests admitted-but-incomplete per shard queue;
    /// arrivals beyond it shed [`ShedReason::QueueFull`].
    /// `usize::MAX` disables the depth bound.
    pub max_queue_depth: usize,
}

impl SloConfig {
    /// No SLO: never shed. [`admit_and_coalesce`] degenerates to
    /// [`crate::queue::coalesce`].
    pub fn unbounded() -> Self {
        SloConfig {
            deadline_secs: f64::INFINITY,
            max_queue_depth: usize::MAX,
        }
    }
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig::unbounded()
    }
}

/// Why admission control shed a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedReason {
    /// The shard's queue already held [`SloConfig::max_queue_depth`]
    /// admitted-but-incomplete requests at this arrival.
    QueueFull {
        /// Queue depth observed at the arrival.
        depth: usize,
    },
    /// The modeled completion of the batch this request would join lands
    /// past the request's SLO deadline.
    DeadlineUnmeetable {
        /// Modeled completion time (absolute, seconds) the admission
        /// estimator priced for this request.
        modeled_completion_secs: f64,
        /// The absolute deadline (`arrival + deadline_secs`) it missed.
        deadline_secs: f64,
    },
    /// The requested window reaches below the ring's retained rows —
    /// live ingest evicted them (server-side pre-routing check).
    WindowEvicted {
        /// The requested exclusive window end.
        window_end: usize,
        /// Oldest stream row the ring still holds.
        oldest_retained: usize,
    },
    /// The requested window ends past the fully-admitted frontier: some
    /// node it reads has not passed its watermark yet (server-side
    /// pre-routing check). Retry once ingest catches up.
    NotYetServable {
        /// The requested exclusive window end.
        window_end: usize,
        /// Rows admitted so far.
        admitted: usize,
    },
    /// The query names a node the snapshot does not have (server-side
    /// pre-routing check: no shard owns it).
    UnknownNode {
        /// The queried node.
        node: usize,
        /// Nodes in the served snapshot.
        nodes: usize,
    },
}

/// One shed request: the typed rejection admission control hands back in
/// place of a result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shed {
    /// Caller-side id from the [`PendingRequest`].
    pub id: usize,
    /// Why it was shed.
    pub reason: ShedReason,
}

/// Outcome of [`admit_and_coalesce`]: the dispatchable schedule for the
/// admitted requests plus a typed rejection per shed request.
#[derive(Debug, Clone)]
pub struct SloSchedule {
    /// Micro-batches over the admitted requests, in dispatch order.
    pub batches: Vec<MicroBatch>,
    /// Shed requests, in arrival order.
    pub rejections: Vec<Shed>,
}

/// The admission estimator's pricing of one shard's micro-batches: the
/// per-window forward FLOPs, priced through the deployment [`CostModel`].
/// Scheduler and executor price through the **same**
/// [`CostModel::micro_batch_secs`] call, so a request is shed exactly
/// when the model that would serve it says its SLO cannot be met.
#[derive(Debug, Clone)]
pub struct BatchCost {
    /// Remote bytes one distinct window's read costs, fetched from
    /// dispatch. The server passes 0: every shard reads the full ring.
    /// Kept for callers that price a remote read themselves.
    #[doc(hidden)]
    pub halo_bytes_per_window: u64,
    /// Forward FLOPs one distinct window adds to a batch (the model's
    /// `flops_per_forward` is linear in batch size).
    pub flops_per_window: f64,
    /// The deployment cost model.
    pub cost: CostModel,
}

impl BatchCost {
    /// Modeled `(fetch, compute)` seconds for a batch of `windows`
    /// distinct windows.
    pub fn batch_secs(&self, windows: usize) -> (f64, f64) {
        self.cost.micro_batch_secs(
            self.halo_bytes_per_window * windows as u64,
            self.flops_per_window * windows as f64,
        )
    }

    /// Modeled completion of a `windows`-window batch dispatched at
    /// `dispatch_secs` on a shard busy until `busy_secs`: any remote fetch
    /// streams from dispatch and overlaps the tail of the previous
    /// batch's compute, so the forward starts at
    /// `max(busy, dispatch + fetch)` — with no fetch, the executor's own
    /// `max(busy, dispatch) + compute` timeline.
    pub fn completion(&self, busy_secs: f64, dispatch_secs: f64, windows: usize) -> f64 {
        let (fetch, compute) = self.batch_secs(windows);
        busy_secs.max(dispatch_secs + fetch) + compute
    }
}

/// Dispatch the batch: price its completion, extend the busy chain, and
/// record one in-flight completion per member request for the depth
/// ledger. Completions are monotone across dispatches (each starts no
/// earlier than the previous finished), keeping the ledger sorted.
fn dispatch(b: &MicroBatch, busy: f64, cost: &BatchCost, in_system: &mut VecDeque<f64>) -> f64 {
    let done = cost.completion(busy, b.dispatch_secs, b.windows.len());
    for _ in &b.requests {
        in_system.push_back(done);
    }
    done
}

/// [`crate::queue::coalesce`] with SLO admission control: coalesce
/// arrival-ordered requests into micro-batches, shedding arrivals that
/// would overflow the queue or miss their deadline.
///
/// Panics if arrivals are not non-decreasing, `max_batch == 0`,
/// `max_delay_secs < 0`, or `deadline_secs <= 0` (an unmeetable-by-
/// construction SLO is a config error, not traffic).
pub fn admit_and_coalesce(
    requests: &[PendingRequest],
    queue: &QueueConfig,
    slo: &SloConfig,
    cost: &BatchCost,
) -> SloSchedule {
    assert!(slo.deadline_secs > 0.0, "deadline must be positive");
    assert!(
        slo.max_queue_depth >= 1,
        "queue depth bound must admit work"
    );
    let mut open = OpenBatch::new(queue);
    let mut batches = Vec::new();
    let mut rejections = Vec::new();
    // Busy chain over modeled time, mirrored from the shard executor.
    let mut busy = 0.0f64;
    // Modeled completions of dispatched-but-unfinished requests,
    // ascending; the depth ledger.
    let mut in_system: VecDeque<f64> = VecDeque::new();
    for r in requests {
        if let Some(b) = open.flush_due(r.arrival_secs) {
            busy = dispatch(&b, busy, cost, &mut in_system);
            batches.push(b);
        }
        // Retire work whose modeled completion has passed.
        while in_system.front().is_some_and(|&d| d <= r.arrival_secs) {
            in_system.pop_front();
        }
        // Gate 1: bounded queue depth.
        let depth = in_system.len() + open.waiting();
        if depth >= slo.max_queue_depth {
            rejections.push(Shed {
                id: r.id,
                reason: ShedReason::QueueFull { depth },
            });
            continue;
        }
        // Gate 2: price the batch this request would join at its latest
        // possible dispatch.
        let (dispatch_est, windows_est) = open.quote_join(r);
        let modeled_completion_secs = cost.completion(busy, dispatch_est, windows_est);
        let slo_deadline = r.arrival_secs + slo.deadline_secs;
        if modeled_completion_secs > slo_deadline {
            rejections.push(Shed {
                id: r.id,
                reason: ShedReason::DeadlineUnmeetable {
                    modeled_completion_secs,
                    deadline_secs: slo_deadline,
                },
            });
            continue;
        }
        if let Some(b) = open.join(r) {
            busy = dispatch(&b, busy, cost, &mut in_system);
            batches.push(b);
        }
    }
    // The last open batch dispatches after every arrival: nothing is left
    // to price against it.
    batches.extend(open.finish());
    SloSchedule {
        batches,
        rejections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::coalesce;

    fn req(id: usize, at: f64, window: usize) -> PendingRequest {
        PendingRequest {
            id,
            arrival_secs: at,
            window_end: window,
        }
    }

    /// A cost where each window's forward takes exactly one modeled
    /// second.
    fn second_per_window() -> BatchCost {
        let cost = CostModel::polaris();
        BatchCost {
            halo_bytes_per_window: 0,
            flops_per_window: cost.gpu_flops,
            cost,
        }
    }

    #[test]
    fn unbounded_slo_reduces_to_plain_coalesce() {
        let queue = QueueConfig {
            max_batch: 3,
            max_delay_secs: 0.5,
        };
        let rs: Vec<PendingRequest> = (0..17)
            .map(|i| req(i, i as f64 * 0.21, 10 + i % 4))
            .collect();
        let plain = coalesce(&rs, &queue);
        let slo = admit_and_coalesce(&rs, &queue, &SloConfig::unbounded(), &second_per_window());
        assert!(slo.rejections.is_empty());
        assert_eq!(slo.batches.len(), plain.len());
        for (a, b) in slo.batches.iter().zip(&plain) {
            assert_eq!(a.dispatch_secs, b.dispatch_secs);
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.windows, b.windows);
            assert_eq!(a.window_of, b.window_of);
        }
    }

    #[test]
    fn queue_depth_bound_sheds_the_overflow() {
        let queue = QueueConfig {
            max_batch: 1,
            max_delay_secs: 0.0,
        };
        let slo = SloConfig {
            deadline_secs: f64::INFINITY,
            max_queue_depth: 2,
        };
        // Four requests in a burst, each a 1 s forward: the first two are
        // admitted (depth 0, then 1); the third and fourth see a full
        // queue — their admitted predecessors complete at t = 1 and 2.
        let rs = [
            req(0, 0.0, 10),
            req(1, 1e-4, 11),
            req(2, 2e-4, 12),
            req(3, 3e-4, 13),
        ];
        let out = admit_and_coalesce(&rs, &queue, &slo, &second_per_window());
        assert_eq!(out.batches.len(), 2);
        assert_eq!(
            out.rejections,
            vec![
                Shed {
                    id: 2,
                    reason: ShedReason::QueueFull { depth: 2 }
                },
                Shed {
                    id: 3,
                    reason: ShedReason::QueueFull { depth: 2 }
                },
            ]
        );
        // Once the modeled completions pass, depth frees up again.
        let mut rs2 = rs.to_vec();
        rs2.push(req(4, 2.5, 14));
        let out2 = admit_and_coalesce(&rs2, &queue, &slo, &second_per_window());
        assert_eq!(out2.batches.len(), 3, "late arrival finds room");
        assert_eq!(out2.rejections.len(), 2);
    }

    #[test]
    fn unmeetable_deadlines_shed_instead_of_queueing() {
        let queue = QueueConfig {
            max_batch: 8,
            max_delay_secs: 0.0,
        };
        let slo = SloConfig {
            deadline_secs: 0.5, // a 1 s forward can never meet 0.5 s
            max_queue_depth: usize::MAX,
        };
        let rs = [req(0, 0.0, 10), req(1, 0.1, 11)];
        let out = admit_and_coalesce(&rs, &queue, &slo, &second_per_window());
        assert!(out.batches.is_empty(), "nothing admissible");
        assert_eq!(out.rejections.len(), 2);
        for s in &out.rejections {
            match s.reason {
                ShedReason::DeadlineUnmeetable {
                    modeled_completion_secs,
                    deadline_secs,
                } => assert!(modeled_completion_secs > deadline_secs),
                other => panic!("expected DeadlineUnmeetable, got {other:?}"),
            }
        }
    }

    #[test]
    fn shedding_leaves_no_trace_in_the_schedule() {
        let queue = QueueConfig {
            max_batch: 2,
            max_delay_secs: 0.2,
        };
        let slo = SloConfig {
            deadline_secs: 1.4,
            max_queue_depth: usize::MAX,
        };
        // Request 1's deadline is unmeetable behind request 0's second of
        // compute; the rest of the schedule must be exactly the schedule
        // of the stream without it.
        let rs = [req(0, 0.0, 10), req(1, 0.05, 11), req(2, 2.5, 12)];
        let out = admit_and_coalesce(&rs, &queue, &slo, &second_per_window());
        assert_eq!(out.rejections.len(), 1);
        assert_eq!(out.rejections[0].id, 1);
        let without: Vec<PendingRequest> = vec![rs[0], rs[2]];
        let reference = admit_and_coalesce(&without, &queue, &slo, &second_per_window());
        assert!(reference.rejections.is_empty());
        assert_eq!(out.batches.len(), reference.batches.len());
        for (a, b) in out.batches.iter().zip(&reference.batches) {
            assert_eq!(a.dispatch_secs, b.dispatch_secs);
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.windows, b.windows);
        }
    }

    #[test]
    fn every_request_lands_in_exactly_one_place() {
        let queue = QueueConfig {
            max_batch: 3,
            max_delay_secs: 0.05,
        };
        let slo = SloConfig {
            deadline_secs: 2.5,
            max_queue_depth: 3,
        };
        let rs: Vec<PendingRequest> = (0..40)
            .map(|i| req(i, i as f64 * 0.07, 20 + i % 6))
            .collect();
        let out = admit_and_coalesce(&rs, &queue, &slo, &second_per_window());
        let mut seen = vec![0usize; rs.len()];
        for b in &out.batches {
            assert!(b.windows.len() <= queue.max_batch);
            for &id in &b.requests {
                seen[id] += 1;
            }
        }
        for s in &out.rejections {
            seen[s.id] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "partition: {seen:?}");
    }

    #[test]
    fn duplicate_window_joins_are_priced_without_a_new_slot() {
        let queue = QueueConfig {
            max_batch: 8,
            max_delay_secs: 0.1,
        };
        // Deadline fits a 1-window batch at its timer but not a 2-window
        // batch: a duplicate-window request is still admissible, a
        // distinct-window one is shed.
        let slo = SloConfig {
            deadline_secs: 1.2,
            max_queue_depth: usize::MAX,
        };
        let rs = [req(0, 0.0, 10), req(1, 0.02, 10), req(2, 0.04, 11)];
        let out = admit_and_coalesce(&rs, &queue, &slo, &second_per_window());
        assert_eq!(out.batches.len(), 1);
        assert_eq!(out.batches[0].requests, vec![0, 1]);
        assert_eq!(out.batches[0].windows, vec![10]);
        assert_eq!(out.rejections.len(), 1);
        assert_eq!(out.rejections[0].id, 2);
    }
}
