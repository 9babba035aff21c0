//! A simulated clock for paper-scale runtime projection.
//!
//! Real training in this repo runs on scaled-down data; the paper's minutes
//! at Polaris scale are *projected* by accumulating modeled op costs (from
//! [`crate::costmodel::CostModel`]) onto a [`SimClock`]. Each worker owns a
//! clock; collective operations synchronize clocks to the maximum, mirroring
//! how a barrier or all-reduce holds every rank until the slowest arrives.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Accumulates simulated seconds, optionally split by category.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    inner: Arc<Mutex<ClockInner>>,
}

#[derive(Debug)]
struct ClockInner {
    now: f64,
    compute: f64,
    communication: f64,
    /// Multiplier applied to every compute advance — the straggler
    /// injection knob. 1.0 models a healthy rank; >1.0 a slow one.
    compute_scale: f64,
}

impl Default for ClockInner {
    fn default() -> Self {
        ClockInner {
            now: 0.0,
            compute: 0.0,
            communication: 0.0,
            compute_scale: 1.0,
        }
    }
}

impl SimClock {
    /// Fresh clock at t = 0.
    pub fn new() -> Self {
        SimClock::default()
    }

    fn lock(&self) -> MutexGuard<'_, ClockInner> {
        // Every update leaves the totals valid, so a guard poisoned by a
        // panicking holder is recovered (DESIGN.md §7).
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.lock().now
    }

    /// Advance by `secs` of compute time, scaled by the straggler knob
    /// ([`SimClock::set_compute_scale`]). The default scale is 1.0, so
    /// un-skewed clocks charge exactly `secs`.
    pub fn advance_compute(&self, secs: f64) {
        let mut i = self.lock();
        let scaled = secs * i.compute_scale;
        i.now += scaled;
        i.compute += scaled;
    }

    /// Set the straggler compute multiplier (≥ 0; 1.0 = healthy rank).
    /// Timing only — the scale shapes this clock's modeled seconds and can
    /// never touch numerics directly (DESIGN.md §2); under bounded
    /// staleness the *engine* may consult modeled arrival times, which is
    /// the documented, deterministic relaxation of that invariant.
    pub fn set_compute_scale(&self, scale: f64) {
        self.lock().compute_scale = scale.max(0.0);
    }

    /// The current straggler compute multiplier.
    pub fn compute_scale(&self) -> f64 {
        self.lock().compute_scale
    }

    /// Advance by `secs` of communication time.
    pub fn advance_comm(&self, secs: f64) {
        let mut i = self.lock();
        i.now += secs;
        i.communication += secs;
    }

    /// Total compute seconds.
    pub fn compute_secs(&self) -> f64 {
        self.lock().compute
    }

    /// Total communication seconds.
    pub fn comm_secs(&self) -> f64 {
        self.lock().communication
    }

    /// Jump forward to `t` if it is in the future (barrier semantics: a rank
    /// waiting on a collective idles until the slowest rank arrives). The
    /// waiting time is charged to communication.
    pub fn sync_to(&self, t: f64) {
        let mut i = self.lock();
        if t > i.now {
            i.communication += t - i.now;
            i.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_by_category() {
        let c = SimClock::new();
        c.advance_compute(1.0);
        c.advance_comm(2.0);
        assert_eq!(c.now(), 3.0);
        assert_eq!(c.compute_secs(), 1.0);
        assert_eq!(c.comm_secs(), 2.0);
    }

    #[test]
    fn sync_to_only_moves_forward() {
        let c = SimClock::new();
        c.advance_compute(5.0);
        c.sync_to(3.0);
        assert_eq!(c.now(), 5.0, "never rewinds");
        c.sync_to(8.0);
        assert_eq!(c.now(), 8.0);
        assert_eq!(c.comm_secs(), 3.0, "waiting charged to communication");
    }

    #[test]
    fn compute_scale_slows_compute_only() {
        let c = SimClock::new();
        c.set_compute_scale(1.5);
        c.advance_compute(2.0);
        c.advance_comm(1.0);
        assert_eq!(c.compute_secs(), 3.0, "compute scaled by the knob");
        assert_eq!(c.comm_secs(), 1.0, "comm unaffected");
        assert_eq!(c.now(), 4.0);
        c.set_compute_scale(1.0);
        c.advance_compute(1.0);
        assert_eq!(c.compute_secs(), 4.0, "scale is live-settable");
    }
}
