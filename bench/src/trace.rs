//! In-memory spans recorded by the benchmark around calls into each layer,
//! self-time accounting, and Chrome-trace export.
//!
//! Spans live in plain vectors until the run ends. Each rank (or the one
//! driver thread) owns a [`Recorder`]; recorders share one [`Instant`]
//! origin so their spans line up on one time axis.

use crate::json::Value;
use std::time::Instant;

/// One timed call (or one benchmark-side grouping of calls).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `fetch_batch`.
    pub name: &'static str,
    /// The crate the call lands in; [`GROUP`] for a span the benchmark
    /// draws around several calls (a step, a round) rather than one call.
    pub layer: &'static str,
    /// Engine rank or serve client; 0 for single-threaded workloads.
    pub rank: u32,
    /// Shared by all spans of one step / call / batch / repair.
    pub op: u64,
    /// Index (within the same recorder) of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Layer label of grouping spans: time the benchmark can see passing but
/// cannot attribute to a call it made.
pub const GROUP: &str = "bench";

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records one thread's spans against a shared origin.
pub struct Recorder {
    origin: Instant,
    rank: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, rank: u32) -> Self {
        Recorder {
            origin,
            rank,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u64,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            rank: self.rank,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }
}

/// Run `f` inside a span of `rec` when a recorder is present (the traced
/// half of a run) and bare when it is not (the timed half).
pub fn spanned<R>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    layer: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> R {
    let idx = rec.as_mut().map(|r| r.begin(name, layer, op, None));
    let out = f();
    if let (Some(r), Some(i)) = (rec.as_mut(), idx) {
        r.end(i);
    }
    out
}

/// Self time of every span of one recorder: its duration minus the part of
/// its interval that its direct children cover (overlapping children are
/// counted once; a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Nanoseconds of one recorder that lie inside calls the benchmark made:
/// the summed self time of its non-[`GROUP`] spans. Divided by the traced
/// region's wall time this is the trace's coverage; what is left is time
/// inside the program between those calls.
pub fn attributed_ns(spans: &[Span]) -> u64 {
    self_times(spans)
        .iter()
        .zip(spans)
        .filter(|(_, s)| s.layer != GROUP)
        .map(|(t, _)| *t)
        .sum()
}

/// Chrome-trace (`chrome://tracing`, Perfetto) JSON: one complete event per
/// span, the layer as category, the rank as thread.
pub fn chrome_trace(recorders: &[&[Span]]) -> Value {
    let mut events = Vec::new();
    for spans in recorders {
        for (i, s) in spans.iter().enumerate() {
            events.push(Value::obj(vec![
                ("name", Value::str(s.name)),
                ("cat", Value::str(s.layer)),
                ("ph", Value::str("X")),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Value::Num(0.0)),
                ("tid", Value::Num(f64::from(s.rank))),
                (
                    "args",
                    Value::obj(vec![
                        ("id", Value::Num(i as f64)),
                        ("op", Value::Num(s.op as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                    ]),
                ),
            ]));
        }
    }
    Value::obj(vec![
        ("displayTimeUnit", Value::str("ms")),
        ("traceEvents", Value::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64, layer: &'static str) -> Span {
        Span {
            name: "s",
            layer,
            rank: 0,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(None, 0, 100, GROUP),  // step
            span(Some(0), 10, 30, "a"), // sibling 1
            span(Some(0), 40, 90, "b"), // sibling 2
            span(Some(2), 50, 60, "c"), // nested in sibling 2
            span(None, 200, 250, "d"),  // unrelated root
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10, 50]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(None, 0, 100, GROUP),
            span(Some(0), 10, 60, "a"),
            span(Some(0), 40, 80, "a"),  // overlaps the first by 20
            span(Some(0), 90, 150, "a"), // overhangs the parent by 50
        ];
        // Covered: [10, 80) and [90, 100) = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn only_real_calls_are_attributed() {
        let spans = vec![
            span(None, 0, 100, GROUP),
            span(Some(0), 0, 25, "a"),
            span(Some(0), 50, 75, "b"),
        ];
        assert_eq!(attributed_ns(&spans), 50);
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let spans = vec![
            span(None, 1_000, 3_000, "a"),
            span(Some(0), 1_500, 2_000, "b"),
        ];
        let doc = chrome_trace(&[&spans]);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
