//! A simulated clock for paper-scale runtime projection.
//!
//! Real training in this repo runs on scaled-down data; the paper's minutes
//! at Polaris scale are *projected* by accumulating modeled op costs (from
//! [`crate::costmodel::CostModel`]) onto a [`SimClock`]. Each rank owns one
//! clock (its `st_dist::Comm` holds it); collective operations synchronize
//! clocks to the maximum, mirroring how a barrier or all-reduce holds every
//! rank until the slowest arrives. A clock prices time and nothing else: no
//! training decision reads one (DESIGN.md §2), so its rates can move every
//! modeled second without moving a bit.
//!
//! The clock also carries the rank's concurrent communication **streams**
//! — a one-time setup read (the generalized mode's halo), the
//! double-buffered next-batch fetch and the in-flight gradient-bucket
//! collectives. Seconds are *quoted* when a transfer is issued (bytes go on
//! whatever ledger owns them at that moment), compute seconds *credit* the
//! in-flight streams, and whatever compute never hid is *charged* as
//! communication when a consumer blocks on the stream. Streams share one
//! modeled interconnect, so a second of compute hides at most one second of
//! communication in total: credit drains streams in issue (FIFO) order.
//!
//! Streams come in two flavors:
//!
//! - **credit streams** ([`SimClock::begin`]) carry a relative quote that
//!   compute credits drain — the prefetch/bucket-overlap model;
//! - **deadline streams** ([`SimClock::begin_at`]) complete at an absolute
//!   modeled instant (a collective's cross-rank `ready_at`) — the
//!   bounded-staleness model, where the clock advancing past the deadline
//!   is what hides the transfer, and a wait before the deadline is a
//!   *fence stall* charged as the remaining gap.

/// Handle for one in-flight stream on a [`SimClock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamId(u64);

/// One in-flight stream's accounting state.
#[derive(Debug)]
struct Stream {
    id: u64,
    /// Seconds of the original quote not yet hidden (credit streams drain
    /// this via [`SimClock::credit`]; deadline streams keep the full quote
    /// here and split it hidden/charged at wait time).
    exposed: f64,
    /// Absolute completion instant for deadline streams; `None` for
    /// credit streams.
    deadline: Option<f64>,
}

/// One rank's simulated seconds, split by category, plus its in-flight
/// communication streams. See the module docs for the quote/credit/settle
/// protocol.
#[derive(Debug, Default)]
pub struct SimClock {
    now: f64,
    compute: f64,
    communication: f64,
    /// In-flight streams in issue order.
    streams: Vec<Stream>,
    next_id: u64,
    hidden: f64,
    charged: f64,
}

impl SimClock {
    /// Fresh clock at t = 0 with nothing in flight.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance by `secs` of compute time.
    pub fn advance_compute(&mut self, secs: f64) {
        self.now += secs;
        self.compute += secs;
    }

    /// Advance by `secs` of communication time.
    pub fn advance_comm(&mut self, secs: f64) {
        self.now += secs;
        self.communication += secs;
    }

    /// Total compute seconds.
    pub fn compute_secs(&self) -> f64 {
        self.compute
    }

    /// Total communication seconds.
    pub fn comm_secs(&self) -> f64 {
        self.communication
    }

    /// Jump forward to `t` if it is in the future (barrier semantics: a rank
    /// waiting on a collective idles until the slowest rank arrives). The
    /// waiting time is charged to communication.
    pub fn sync_to(&mut self, t: f64) {
        if t > self.now {
            self.communication += t - self.now;
            self.now = t;
        }
    }

    /// Issue a quoted transfer of `secs` modeled seconds. The payload is
    /// the caller's business (it already exists — simulation assembles
    /// eagerly); the clock tracks only the not-yet-hidden time.
    pub fn begin(&mut self, secs: f64) -> StreamId {
        self.issue(secs.max(0.0), None)
    }

    /// Issue a transfer that completes at the absolute modeled instant
    /// `ready_at` (the exposed quote is `ready_at − now`, clamped at zero).
    /// Unlike credit streams, compute credits do not drain a deadline
    /// stream — the clock advancing past the deadline is what hides it;
    /// see [`SimClock::wait`].
    pub fn begin_at(&mut self, ready_at: f64) -> StreamId {
        self.issue((ready_at - self.now).max(0.0), Some(ready_at))
    }

    fn issue(&mut self, exposed: f64, deadline: Option<f64>) -> StreamId {
        let id = self.next_id;
        self.next_id += 1;
        self.streams.push(Stream {
            id,
            exposed,
            deadline,
        });
        StreamId(id)
    }

    /// Whether `id` has completed by now: a deadline stream is ready once
    /// the clock reaches its deadline; a credit stream once its quote is
    /// fully drained. Unknown (already settled) ids are ready.
    pub fn ready(&self, id: StreamId) -> bool {
        match self.streams.iter().find(|s| s.id == id.0) {
            Some(s) => match s.deadline {
                Some(d) => self.now >= d,
                None => s.exposed <= 0.0,
            },
            None => true,
        }
    }

    /// Credit `secs` of concurrent compute against the in-flight streams,
    /// draining them in issue order (the interconnect is one resource: a
    /// compute second hides at most one comm second across all streams).
    /// Deadline streams are skipped — their completion is pinned to an
    /// absolute instant, not to accumulated compute.
    pub fn credit(&mut self, mut secs: f64) {
        for s in self.streams.iter_mut() {
            if secs <= 0.0 {
                break;
            }
            if s.deadline.is_some() {
                continue;
            }
            let hide = s.exposed.min(secs);
            s.exposed -= hide;
            secs -= hide;
            self.hidden += hide;
        }
    }

    /// Block on one stream and retire it. A credit stream charges its
    /// undrained remainder as communication. A deadline stream charges the
    /// gap from now to its deadline (zero once the clock has moved past it
    /// — the stream completed *while* the rank was computing) and books the
    /// rest of its quote as hidden. Panics on an unknown (already settled)
    /// id — a settled stream's payload was already consumed once.
    pub fn wait(&mut self, id: StreamId) {
        let pos = self
            .streams
            .iter()
            .position(|s| s.id == id.0)
            .expect("stream already settled");
        let s = self.streams.remove(pos);
        let charge = match s.deadline {
            Some(deadline) => (deadline - self.now).max(0.0).min(s.exposed),
            None => s.exposed,
        };
        if charge > 0.0 {
            self.advance_comm(charge);
            self.charged += charge;
        }
        if s.deadline.is_some() {
            self.hidden += s.exposed - charge;
        }
    }

    /// Settle every in-flight stream (end of run: whatever compute never
    /// hid is still owed), in issue order.
    pub fn wait_all(&mut self) {
        while let Some(s) = self.streams.first() {
            let id = StreamId(s.id);
            self.wait(id);
        }
    }

    /// Number of streams currently in flight.
    pub fn in_flight(&self) -> usize {
        self.streams.len()
    }

    /// Total comm seconds hidden behind compute so far.
    pub fn hidden_secs(&self) -> f64 {
        self.hidden
    }

    /// Total exposed stream seconds charged so far.
    pub fn charged_secs(&self) -> f64 {
        self.charged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_by_category() {
        let mut c = SimClock::new();
        c.advance_compute(1.0);
        c.advance_comm(2.0);
        assert_eq!(c.now(), 3.0);
        assert_eq!(c.compute_secs(), 1.0);
        assert_eq!(c.comm_secs(), 2.0);
    }

    #[test]
    fn sync_to_only_moves_forward() {
        let mut c = SimClock::new();
        c.advance_compute(5.0);
        c.sync_to(3.0);
        assert_eq!(c.now(), 5.0, "never rewinds");
        c.sync_to(8.0);
        assert_eq!(c.now(), 8.0);
        assert_eq!(c.comm_secs(), 3.0, "waiting charged to communication");
    }

    #[test]
    fn fully_credited_stream_charges_nothing() {
        let mut c = SimClock::new();
        let s = c.begin(2.0);
        c.credit(5.0);
        c.wait(s);
        assert_eq!(c.comm_secs(), 0.0);
        assert_eq!(c.hidden_secs(), 2.0);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn uncredited_remainder_is_charged_on_wait() {
        let mut c = SimClock::new();
        let s = c.begin(3.0);
        c.credit(1.0);
        c.wait(s);
        assert_eq!(c.comm_secs(), 2.0);
        assert_eq!(c.hidden_secs(), 1.0);
        assert_eq!(c.charged_secs(), 2.0);
    }

    #[test]
    fn credit_drains_streams_in_issue_order() {
        // One compute second hides at most one comm second in total: the
        // earlier stream absorbs the credit first.
        let mut c = SimClock::new();
        let a = c.begin(2.0);
        let b = c.begin(2.0);
        c.credit(3.0);
        c.wait(a);
        assert_eq!(c.comm_secs(), 0.0, "first stream fully hidden");
        c.wait(b);
        assert_eq!(c.comm_secs(), 1.0, "second got the leftover credit");
    }

    #[test]
    fn wait_all_settles_everything_owed() {
        let mut c = SimClock::new();
        c.begin(1.5);
        c.begin(0.5);
        c.credit(1.0);
        assert_eq!(c.in_flight(), 2);
        c.wait_all();
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.comm_secs(), 1.0);
        assert_eq!(c.hidden_secs() + c.charged_secs(), 2.0);
    }

    #[test]
    fn zero_second_streams_are_free() {
        let mut c = SimClock::new();
        let s = c.begin(0.0);
        c.wait(s);
        assert_eq!(c.comm_secs(), 0.0);
    }

    #[test]
    fn deadline_stream_charges_the_gap_to_its_deadline() {
        // A fence before the deadline pays exactly the remaining gap.
        let mut c = SimClock::new();
        c.advance_compute(1.0);
        let s = c.begin_at(4.0); // 3 s quote
        assert!(!c.ready(s));
        c.advance_compute(1.0); // now = 2.0
        c.wait(s);
        assert_eq!(c.now(), 4.0, "fence lands exactly on the deadline");
        assert_eq!(c.charged_secs(), 2.0, "gap charged");
        assert_eq!(c.hidden_secs(), 1.0, "compute-elapsed share hidden");
    }

    #[test]
    fn deadline_stream_passed_by_the_clock_is_free() {
        let mut c = SimClock::new();
        let s = c.begin_at(2.0);
        c.advance_compute(5.0); // rank computed past the deadline
        assert!(c.ready(s));
        c.wait(s);
        assert_eq!(c.comm_secs(), 0.0, "nothing left to pay");
        assert_eq!(c.hidden_secs(), 2.0, "entire quote hidden by compute");
    }

    #[test]
    fn credit_never_drains_deadline_streams() {
        let mut c = SimClock::new();
        let d = c.begin_at(3.0);
        let s = c.begin(1.0);
        c.credit(10.0);
        assert!(c.ready(s), "credit stream fully drained");
        assert!(!c.ready(d), "deadline pinned to the clock");
        c.wait(d);
        assert_eq!(c.comm_secs(), 3.0, "deadline gap still owed in full");
    }

    #[test]
    fn settled_ids_report_ready() {
        let mut c = SimClock::new();
        let s = c.begin(1.0);
        c.wait(s);
        assert!(c.ready(s));
    }

    #[test]
    fn wait_all_settles_deadline_streams_in_order() {
        let mut c = SimClock::new();
        c.begin_at(1.0);
        c.begin_at(3.0);
        c.wait_all();
        // First fence moves the clock to 1.0 (charging 1.0); the second
        // charges only the remaining 2.0 — fences never double-pay.
        assert_eq!(c.now(), 3.0);
        assert_eq!(c.charged_secs(), 3.0);
        assert_eq!(c.hidden_secs(), 1.0, "second quote partly elapsed");
    }

    #[test]
    #[should_panic(expected = "stream already settled")]
    fn double_wait_is_loud() {
        let mut c = SimClock::new();
        let s = c.begin(1.0);
        c.wait(s);
        c.wait(s);
    }
}
