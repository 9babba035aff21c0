//! The bounded-staleness window over in-flight gradient collectives.
//!
//! MSPipe-style bounded staleness (PAPERS.md) relaxes the synchronous
//! step barrier by a bound stated in steps: a gradient collective issued
//! at step `t` is applied at step `t + s`, never earlier and never later,
//! so its wire time hides behind the next `s` steps of compute. `s = 0`
//! is the synchronous path: every collective lands in the step that
//! issued it, bitwise identical to the flat reduce.
//!
//! [`StalenessWindow`] queues `(bucket, step, payload, stream)` launches
//! in FIFO order and lands the queue front once its age reaches the
//! bound. Each landing waits on its deadline stream on the rank's
//! [`SimClock`], so the clock prices the wire — hidden behind the compute
//! since the launch, or exposed as a fence stall when the modeled arrival
//! is still ahead of the clock — but arrival decides nothing.
//!
//! Determinism: when a gradient lands is a function of the step count
//! alone, so the schedule depends on `(DistConfig, seed)` and no clock.
//! Every rank lands the same buckets at the same steps, and DDP replicas
//! stay bit-equal at any `s`. DESIGN.md §4 spells out the timing model.

use st_device::{SimClock, StreamId};
use std::collections::VecDeque;

/// One in-flight averaged gradient awaiting application.
struct Pending {
    bucket: usize,
    step: u64,
    stream: StreamId,
    payload: Vec<f32>,
}

/// FIFO window of in-flight gradient collectives under a staleness bound.
/// See the module docs for the landing rule.
pub struct StalenessWindow {
    bound: u64,
    pending: VecDeque<Pending>,
    /// Recycled payload buffers — steady state allocates nothing.
    pool: Vec<Vec<f32>>,
    fence_stalls: u64,
}

impl StalenessWindow {
    /// A window landing each gradient `bound` steps after it is issued
    /// (`0` = synchronous: everything lands in its own step).
    pub fn new(bound: usize) -> Self {
        StalenessWindow {
            bound: bound as u64,
            pending: VecDeque::new(),
            pool: Vec::new(),
            fence_stalls: 0,
        }
    }

    /// The configured staleness bound `s`.
    pub fn bound(&self) -> usize {
        self.bound as usize
    }

    /// Number of launched-but-unapplied gradients.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Landings whose stream had not yet arrived: the rank's clock waited
    /// out the rest of the wire (an observation; it decides nothing).
    pub fn fence_stalls(&self) -> u64 {
        self.fence_stalls
    }

    /// A cleared payload buffer, recycled from an earlier settle when one
    /// is available.
    pub fn payload_buf(&mut self) -> Vec<f32> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Enqueue bucket `bucket`'s averaged `payload`, issued at `step`,
    /// whose arrival is tracked by `stream` (an
    /// [`SimClock::begin_at`] deadline stream).
    pub fn launch(&mut self, bucket: usize, step: u64, payload: Vec<f32>, stream: StreamId) {
        self.pending.push_back(Pending {
            bucket,
            step,
            stream,
            payload,
        });
    }

    /// Land, in FIFO order, every pending gradient whose age at `step` has
    /// reached the bound. Each landing waits on its stream (the clock
    /// charges whatever gap compute did not hide; a stream not yet arrived
    /// counts as a fence stall) and calls `apply(bucket, payload)`.
    /// Returns how many landed.
    pub fn settle(
        &mut self,
        step: u64,
        clock: &mut SimClock,
        mut apply: impl FnMut(usize, &[f32]),
    ) -> usize {
        let mut applied = 0;
        while let Some(front) = self.pending.front() {
            if step.saturating_sub(front.step) < self.bound {
                break;
            }
            let p = self.pending.pop_front().expect("front exists");
            if !clock.ready(p.stream) {
                self.fence_stalls += 1;
            }
            clock.wait(p.stream);
            apply(p.bucket, &p.payload);
            self.pool.push(p.payload);
            applied += 1;
        }
        applied
    }

    /// Land **everything** still in flight, whatever its age (epoch
    /// boundary: the epoch's optimizer state must not leak pending
    /// gradients into the metric reductions or the next epoch's shuffle).
    /// Returns how many landed.
    pub fn flush(&mut self, clock: &mut SimClock, apply: impl FnMut(usize, &[f32])) -> usize {
        self.settle(u64::MAX, clock, apply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a window through `launches` of (step, ready_at) pairs with a
    /// compute advance per step, recording (bucket, launch step, settle
    /// step) triples.
    fn drive(bound: usize, steps: u64, ready_delay: f64, step_secs: f64) -> Vec<(u64, u64)> {
        let mut clock = SimClock::new();
        let mut w = StalenessWindow::new(bound);
        let mut settled = Vec::new();
        for step in 0..steps {
            clock.advance_compute(step_secs);
            let ready_at = clock.now() + ready_delay;
            let stream = clock.begin_at(ready_at);
            let buf = w.payload_buf();
            w.launch(step as usize, step, buf, stream);
            let mut hits = Vec::new();
            w.settle(step, &mut clock, |bucket, _| {
                hits.push(bucket as u64);
            });
            settled.extend(hits.into_iter().map(|launch| (launch, step)));
        }
        w.flush(&mut clock, |_, _| {});
        assert_eq!(w.in_flight(), 0);
        settled
    }

    #[test]
    fn bound_zero_settles_every_step_in_step() {
        let settled = drive(0, 6, 10.0, 1.0);
        assert_eq!(settled.len(), 6);
        for (launch, settle) in settled {
            assert_eq!(launch, settle, "s = 0 is synchronous");
        }
    }

    #[test]
    fn slow_arrivals_defer_until_the_bound_forces_them() {
        // Arrival 10 s out, steps 1 s apart: nothing arrives on time, so
        // every settle is a forced fence exactly `bound` steps late.
        let settled = drive(2, 8, 10.0, 1.0);
        for (launch, settle) in settled {
            assert_eq!(settle - launch, 2, "forced at the bound");
        }
    }

    #[test]
    fn fast_arrivals_settle_without_fences() {
        // Arrival already in the past: nothing stalls, yet every gradient
        // still waits out its full `bound` steps.
        let mut clock = SimClock::new();
        let mut w = StalenessWindow::new(3);
        let mut settled = Vec::new();
        for step in 0..5u64 {
            clock.advance_compute(1.0);
            let stream = clock.begin_at(clock.now() - 0.5);
            let buf = w.payload_buf();
            w.launch(step as usize, step, buf, stream);
            w.settle(step, &mut clock, |b, _| settled.push((b, step)));
        }
        assert_eq!(settled, vec![(0, 3), (1, 4)], "landed at age exactly 3");
        assert_eq!(w.in_flight(), 3, "the rest wait for their age");
        assert_eq!(w.fence_stalls(), 0, "everything arrived on its own");
    }

    #[test]
    fn fifo_order_is_preserved_under_mixed_arrivals() {
        let mut clock = SimClock::new();
        let mut w = StalenessWindow::new(1);
        // Step 0: slow stream. Step 1: instant stream. Neither lands
        // before its age reaches the bound, and the slow one lands first.
        clock.advance_compute(1.0);
        let slow = clock.begin_at(clock.now() + 100.0);
        let buf = w.payload_buf();
        w.launch(7, 0, buf, slow);
        let mut order = Vec::new();
        w.settle(0, &mut clock, |b, _| order.push(b));
        assert!(order.is_empty(), "age 0 < bound");
        clock.advance_compute(1.0);
        let fast = clock.begin_at(clock.now());
        let buf = w.payload_buf();
        w.launch(9, 1, buf, fast);
        w.settle(1, &mut clock, |b, _| order.push(b));
        assert_eq!(order, vec![7], "the slow one lands at age 1, fenced");
        assert_eq!(w.fence_stalls(), 1);
        w.settle(2, &mut clock, |b, _| order.push(b));
        assert_eq!(order, vec![7, 9], "the arrived one still waits for age 1");
        assert_eq!(w.fence_stalls(), 1, "and lands without a stall");
    }

    #[test]
    fn payload_buffers_recycle() {
        let mut clock = SimClock::new();
        let mut w = StalenessWindow::new(0);
        let mut buf = w.payload_buf();
        buf.extend_from_slice(&[1.0, 2.0]);
        let s = clock.begin_at(0.0);
        w.launch(0, 0, buf, s);
        w.settle(0, &mut clock, |_, p| assert_eq!(p, [1.0, 2.0]));
        let recycled = w.payload_buf();
        assert!(recycled.is_empty(), "recycled buffer comes back cleared");
        assert!(recycled.capacity() >= 2, "and keeps its allocation");
    }
}
