//! Micro-batching: coalesce concurrent forecast requests into batched
//! forward passes.
//!
//! Serving traffic arrives one request at a time, but the model amortizes
//! per-launch fixed costs (kernel latency, halo round-trips) across a
//! batch. The queue runs the standard micro-batching policy over *modeled*
//! time: an open batch dispatches when it holds `max_batch` distinct
//! windows (full — dispatched the instant the filling request arrives) or
//! when its oldest request has waited `max_delay_secs` (timer — dispatched
//! at the deadline; a request arriving exactly at the deadline still
//! joins). Requests for the **same** window share one batch slot: the
//! forward computes each distinct window once no matter how many users
//! asked about it.
//!
//! This module holds the policy's types and its state machine; one
//! function runs it, [`crate::slo::admit_and_coalesce`], which with
//! [`crate::slo::SloConfig::unbounded`] runs the plain policy. It is pure —
//! arrival times in, dispatch schedule out — so the policy is deterministic
//! and unit-testable; the sharded server replays the schedule against its
//! simulated clock.

/// Micro-batching policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// Maximum distinct request windows per batched forward.
    pub max_batch: usize,
    /// Maximum modeled seconds the oldest request may wait before its
    /// batch dispatches anyway.
    pub max_delay_secs: f64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            max_batch: 32,
            max_delay_secs: 5e-3,
        }
    }
}

/// One enqueued forecast request.
#[derive(Debug, Clone, Copy)]
pub struct PendingRequest {
    /// Caller-side id (index into the submitter's request list).
    pub id: usize,
    /// Modeled arrival time, seconds.
    pub arrival_secs: f64,
    /// Input window end (exclusive stream time).
    pub window_end: usize,
}

/// One coalesced batch: the requests it answers and the distinct windows
/// its single forward pass must compute.
#[derive(Debug, Clone)]
pub struct MicroBatch {
    /// Modeled dispatch time, seconds.
    pub dispatch_secs: f64,
    /// Request ids answered by this batch, in arrival order.
    pub requests: Vec<usize>,
    /// Distinct window ends, in first-seen order; `window_of[i]` indexes
    /// into this for request `i` of `requests`.
    pub windows: Vec<usize>,
    /// Per-request index into `windows`.
    pub window_of: Vec<usize>,
}

/// The open-batch state machine [`crate::slo::admit_and_coalesce`] drives,
/// one arrival at a time: [`OpenBatch::flush_due`] → admission gates →
/// [`OpenBatch::join`], then [`OpenBatch::finish`] when the stream ends.
pub(crate) struct OpenBatch {
    cfg: QueueConfig,
    open: Option<MicroBatch>,
    /// When the open batch's timer fires (∞ while none is open).
    deadline: f64,
}

impl OpenBatch {
    pub(crate) fn new(cfg: &QueueConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.max_delay_secs >= 0.0, "max_delay must be non-negative");
        OpenBatch {
            cfg: *cfg,
            open: None,
            deadline: f64::INFINITY,
        }
    }

    /// Observe an arrival at `at`, no earlier than the last one observed:
    /// if the open batch's timer fired before it, the batch dispatches at
    /// its deadline and is returned.
    pub(crate) fn flush_due(&mut self, at: f64) -> Option<MicroBatch> {
        let due = self.open.take_if(|_| at > self.deadline);
        if due.is_some() {
            self.deadline = f64::INFINITY;
        }
        due
    }

    /// Requests waiting in the open batch.
    pub(crate) fn waiting(&self) -> usize {
        self.open.as_ref().map_or(0, |b| b.requests.len())
    }

    /// The batch `r` would join, as `(latest dispatch, distinct windows)`:
    /// the open batch at its timer with `r`'s window added (a duplicate
    /// window adds no slot), or a fresh one opened by `r`.
    pub(crate) fn quote_join(&self, r: &PendingRequest) -> (f64, usize) {
        match &self.open {
            Some(b) => {
                let extra = usize::from(!b.windows.contains(&r.window_end));
                (self.deadline, b.windows.len() + extra)
            }
            None => (r.arrival_secs + self.cfg.max_delay_secs, 1),
        }
    }

    /// Add `r` to the open batch (opening one, timer started at `r`'s
    /// arrival, if none is). Requests for the same window share a slot. A
    /// batch this fills dispatches immediately, at the arrival that filled
    /// it, and is returned.
    pub(crate) fn join(&mut self, r: &PendingRequest) -> Option<MicroBatch> {
        let b = self.open.get_or_insert_with(|| {
            self.deadline = r.arrival_secs + self.cfg.max_delay_secs;
            MicroBatch {
                dispatch_secs: self.deadline,
                requests: Vec::new(),
                windows: Vec::new(),
                window_of: Vec::new(),
            }
        });
        let slot = match b.windows.iter().position(|&w| w == r.window_end) {
            Some(s) => s,
            None => {
                b.windows.push(r.window_end);
                b.windows.len() - 1
            }
        };
        b.requests.push(r.id);
        b.window_of.push(slot);
        if b.windows.len() < self.cfg.max_batch {
            return None;
        }
        self.deadline = f64::INFINITY;
        let mut full = self.open.take().expect("just inserted");
        full.dispatch_secs = r.arrival_secs;
        Some(full)
    }

    /// The stream ended; the last open batch waits out its timer.
    pub(crate) fn finish(self) -> Option<MicroBatch> {
        self.open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{admit_and_coalesce, BatchCost, ShedReason, SloConfig};
    use st_device::CostModel;

    /// The plain policy: the one scheduler with its SLO gates inert.
    fn schedule(requests: &[PendingRequest], cfg: &QueueConfig) -> Vec<MicroBatch> {
        let cost = BatchCost {
            halo_bytes_per_window: 0,
            flops_per_window: 1e9,
            cost: CostModel::polaris(),
        };
        let out = admit_and_coalesce(requests, cfg, &SloConfig::unbounded(), &cost);
        assert!(out.rejections.is_empty(), "an unbounded SLO sheds nothing");
        out.batches
    }

    fn req(id: usize, at: f64, window: usize) -> PendingRequest {
        PendingRequest {
            id,
            arrival_secs: at,
            window_end: window,
        }
    }

    #[test]
    fn full_batches_dispatch_at_the_filling_arrival() {
        let cfg = QueueConfig {
            max_batch: 2,
            max_delay_secs: 10.0,
        };
        let rs = [req(0, 0.0, 10), req(1, 0.5, 11), req(2, 0.6, 12)];
        let bs = schedule(&rs, &cfg);
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0].requests, vec![0, 1]);
        assert_eq!(bs[0].dispatch_secs, 0.5, "dispatched when filled");
        // The trailing partial batch waits out its timer.
        assert_eq!(bs[1].requests, vec![2]);
        assert_eq!(bs[1].dispatch_secs, 0.6 + 10.0);
    }

    #[test]
    fn timer_flushes_a_stale_batch() {
        let cfg = QueueConfig {
            max_batch: 8,
            max_delay_secs: 1.0,
        };
        let rs = [req(0, 0.0, 10), req(1, 0.2, 11), req(2, 5.0, 12)];
        let bs = schedule(&rs, &cfg);
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0].requests, vec![0, 1]);
        assert_eq!(bs[0].dispatch_secs, 1.0, "timer fires at open + delay");
        assert_eq!(bs[1].requests, vec![2]);
    }

    #[test]
    fn duplicate_windows_share_a_slot() {
        let cfg = QueueConfig {
            max_batch: 2,
            max_delay_secs: 1.0,
        };
        // Three users ask about window 10 — one forward slot, max_batch
        // counts distinct windows so the batch is NOT full yet.
        let rs = [req(0, 0.0, 10), req(1, 0.1, 10), req(2, 0.2, 10)];
        let bs = schedule(&rs, &cfg);
        assert_eq!(bs.len(), 1);
        assert_eq!(bs[0].windows, vec![10]);
        assert_eq!(bs[0].requests, vec![0, 1, 2]);
        assert_eq!(bs[0].window_of, vec![0, 0, 0]);
    }

    #[test]
    fn arrival_exactly_at_deadline_joins_the_batch() {
        let cfg = QueueConfig {
            max_batch: 8,
            max_delay_secs: 1.0,
        };
        let rs = [req(0, 0.0, 10), req(1, 1.0, 11)];
        let bs = schedule(&rs, &cfg);
        assert_eq!(bs.len(), 1, "t == deadline is still in time");
    }

    #[test]
    fn max_batch_one_degenerates_to_per_request_dispatch() {
        let cfg = QueueConfig {
            max_batch: 1,
            max_delay_secs: 9.0,
        };
        let rs = [req(0, 0.0, 10), req(1, 0.5, 10), req(2, 0.7, 11)];
        let bs = schedule(&rs, &cfg);
        assert_eq!(bs.len(), 3);
        for (b, r) in bs.iter().zip(&rs) {
            assert_eq!(b.dispatch_secs, r.arrival_secs, "no coalescing delay");
        }
    }

    #[test]
    fn unsorted_arrivals_are_rejected() {
        let cost = BatchCost {
            halo_bytes_per_window: 0,
            flops_per_window: 1e9,
            cost: CostModel::polaris(),
        };
        let cfg = QueueConfig::default();
        let slo = SloConfig::unbounded();
        // A decreasing arrival, then a NaN one: each is shed with the
        // latest in-order arrival before it, and neither moves the queue.
        let rs = [
            req(0, 1.0, 10),
            req(1, 0.5, 11),
            req(2, f64::NAN, 12),
            req(3, 1.5, 12),
        ];
        let out = admit_and_coalesce(&rs, &cfg, &slo, &cost);
        assert_eq!(out.rejections.len(), 2);
        assert_eq!(out.rejections[0].id, 1);
        assert_eq!(
            out.rejections[0].reason,
            ShedReason::OutOfOrder {
                arrival_secs: 0.5,
                latest_secs: 1.0
            }
        );
        assert_eq!(out.rejections[1].id, 2);
        assert!(matches!(
            out.rejections[1].reason,
            ShedReason::OutOfOrder { arrival_secs, latest_secs }
                if arrival_secs.is_nan() && latest_secs == 1.0
        ));
        let kept = schedule(&[req(0, 1.0, 10), req(3, 1.5, 12)], &cfg);
        assert_eq!(out.batches.len(), kept.len());
        for (got, want) in out.batches.iter().zip(&kept) {
            assert_eq!(got.requests, want.requests);
            assert_eq!(got.dispatch_secs, want.dispatch_secs);
        }
        // The first arrival is checked against −∞; a NaN is still shed.
        let out = admit_and_coalesce(&[req(0, f64::NAN, 10)], &cfg, &slo, &cost);
        assert!(out.batches.is_empty());
        assert!(matches!(
            out.rejections[0].reason,
            ShedReason::OutOfOrder { latest_secs, .. } if latest_secs == f64::NEG_INFINITY
        ));
    }

    #[test]
    fn empty_stream_yields_no_batches() {
        assert!(schedule(&[], &QueueConfig::default()).is_empty());
    }
}
