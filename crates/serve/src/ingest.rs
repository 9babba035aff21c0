//! Live streaming ingest: append-only per-node tick streams feeding the
//! rolling ring through per-node watermarks.
//!
//! Production readings do not arrive as complete `[N, F]` rows — each
//! sensor (node) reports on its own schedule. [`StreamIngest`] accepts one
//! [`Tick`] at a time (one node's reading for one stream instant), stages
//! partial rows, and releases a row to the ring only once **every** node
//! has delivered it. The release frontier is the minimum per-node
//! watermark, so admission into [`crate::RollingWindow`] is monotone by
//! construction and a query is servable exactly when all the nodes it
//! reads have passed its `window_end`.
//!
//! Two typed guard rails keep an open stream healthy:
//!
//! - **per-node monotonicity** — a node's stream is append-only; a tick
//!   that is not the node's next expected instant is rejected
//!   ([`IngestError::OutOfOrder`]) without perturbing any state;
//! - **bounded skew** — a fast node may run at most `max_skew` rows ahead
//!   of the slowest node ([`IngestError::SkewBound`]), bounding the
//!   staging buffer the way a bounded queue bounds admission: a dead
//!   sensor stalls the frontier instead of ballooning memory.

use st_tensor::Tensor;
use std::collections::VecDeque;

/// One node's reading for one stream instant, in **original units**.
#[derive(Debug, Clone, PartialEq)]
pub struct Tick {
    /// The reporting node.
    pub node: usize,
    /// Stream time of the reading (must be the node's next expected
    /// instant — per-node streams are append-only).
    pub t: usize,
    /// The node's feature vector at `t` (`features` scalars).
    pub values: Vec<f32>,
}

/// Why a tick was rejected. Rejections never mutate ingest state — the
/// stream stays exactly where it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The tick names a node outside the deployment's graph.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the deployment.
        nodes: usize,
    },
    /// The tick's feature vector has the wrong length.
    BadFeatureCount {
        /// Length delivered.
        got: usize,
        /// Length the signal schema requires.
        want: usize,
    },
    /// The tick is not the node's next expected instant (duplicate,
    /// regression, or gap — per-node streams are append-only).
    OutOfOrder {
        /// The reporting node.
        node: usize,
        /// Stream time delivered.
        t: usize,
        /// The node's watermark (next expected instant).
        expected: usize,
    },
    /// Admitting the tick would let its node run more than `max_skew`
    /// rows ahead of the slowest node.
    SkewBound {
        /// The reporting node.
        node: usize,
        /// Stream time delivered.
        t: usize,
        /// The current admission frontier (fully-admitted rows).
        frontier: usize,
        /// The configured skew bound.
        max_skew: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::NodeOutOfRange { node, nodes } => {
                write!(f, "tick names node {node} of a {nodes}-node deployment")
            }
            IngestError::BadFeatureCount { got, want } => {
                write!(f, "tick carries {got} features, schema wants {want}")
            }
            IngestError::OutOfOrder { node, t, expected } => write!(
                f,
                "node {node} delivered t={t}, watermark expects t={expected}"
            ),
            IngestError::SkewBound {
                node,
                t,
                frontier,
                max_skew,
            } => write!(
                f,
                "node {node} at t={t} would run more than {max_skew} rows \
                 ahead of the frontier {frontier}"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// One staged (not yet complete) stream row.
#[derive(Debug, Clone)]
struct StagedRow {
    /// Row-major `[nodes, features]` scratch, original units.
    data: Vec<f32>,
    /// Nodes that have delivered this row.
    filled: usize,
}

/// Per-node watermark tracking and partial-row staging for an append-only
/// tick stream. Completed rows come back out in stream order, ready for
/// [`crate::RollingWindow::admit`].
#[derive(Debug, Clone)]
pub struct StreamIngest {
    nodes: usize,
    features: usize,
    max_skew: usize,
    /// `watermarks[n]` = the next stream instant node `n` must deliver
    /// (it has delivered everything before it). Monotone non-decreasing.
    watermarks: Vec<usize>,
    /// Rows `frontier .. frontier + staged.len()`, oldest first.
    staged: VecDeque<StagedRow>,
    /// Rows fully delivered and released, `== min(watermarks)`.
    frontier: usize,
}

impl StreamIngest {
    /// An ingest front for `nodes × features` readings starting at stream
    /// time 0, allowing any node to run at most `max_skew` rows ahead of
    /// the slowest (`max_skew ≥ 1`).
    pub fn new(nodes: usize, features: usize, max_skew: usize) -> Self {
        StreamIngest::with_start(nodes, features, max_skew, 0)
    }

    /// [`StreamIngest::new`], but the stream resumes at absolute time
    /// `start` — the seeded-history case, where rows `0..start` were
    /// admitted wholesale before going live.
    pub fn with_start(nodes: usize, features: usize, max_skew: usize, start: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(features > 0, "need at least one feature");
        assert!(max_skew >= 1, "max_skew must be at least 1");
        StreamIngest {
            nodes,
            features,
            max_skew,
            watermarks: vec![start; nodes],
            staged: VecDeque::new(),
            frontier: start,
        }
    }

    /// Node `n`'s watermark: it has delivered every instant before this.
    pub fn watermark(&self, node: usize) -> usize {
        self.watermarks[node]
    }

    /// The admission frontier: rows `< frontier` are fully delivered (the
    /// minimum watermark). Only these rows are servable.
    pub fn frontier(&self) -> usize {
        self.frontier
    }

    /// Rows staged beyond the frontier, waiting on slower nodes.
    pub fn staged_rows(&self) -> usize {
        self.staged.len()
    }

    /// The configured skew bound.
    pub fn max_skew(&self) -> usize {
        self.max_skew
    }

    /// Ingest one tick. On success returns the stream rows the tick
    /// **completed** (usually none or one; in original units, `[N, F]`
    /// each, oldest first) — admit them to the ring in order. A rejected
    /// tick leaves every watermark and staged row untouched.
    pub fn push(&mut self, tick: &Tick) -> Result<Vec<Tensor>, IngestError> {
        if tick.node >= self.nodes {
            return Err(IngestError::NodeOutOfRange {
                node: tick.node,
                nodes: self.nodes,
            });
        }
        if tick.values.len() != self.features {
            return Err(IngestError::BadFeatureCount {
                got: tick.values.len(),
                want: self.features,
            });
        }
        let expected = self.watermarks[tick.node];
        if tick.t != expected {
            return Err(IngestError::OutOfOrder {
                node: tick.node,
                t: tick.t,
                expected,
            });
        }
        if tick.t >= self.frontier.saturating_add(self.max_skew) {
            return Err(IngestError::SkewBound {
                node: tick.node,
                t: tick.t,
                frontier: self.frontier,
                max_skew: self.max_skew,
            });
        }

        // Stage the reading.
        let idx = tick.t - self.frontier;
        while self.staged.len() <= idx {
            self.staged.push_back(StagedRow {
                data: vec![0.0; self.nodes * self.features],
                filled: 0,
            });
        }
        let row = &mut self.staged[idx];
        let at = tick.node * self.features;
        row.data[at..at + self.features].copy_from_slice(&tick.values);
        row.filled += 1;
        self.watermarks[tick.node] = tick.t + 1;

        // Release every complete row at the front (monotone admission:
        // a row can only complete once all before it are complete, since
        // per-node streams are sequential).
        let mut released = Vec::new();
        while self.staged.front().is_some_and(|r| r.filled == self.nodes) {
            let r = self.staged.pop_front().expect("front exists");
            self.frontier += 1;
            released
                .push(Tensor::from_vec(r.data, [self.nodes, self.features]).expect("row numel"));
        }
        // Checked where the frontier moves, not on every tick: an O(N)
        // scan per tick makes a debug build's ingest quadratic in N.
        debug_assert!(
            released.is_empty()
                || self.frontier == *self.watermarks.iter().min().expect("nonempty"),
            "frontier must equal the minimum watermark"
        );
        Ok(released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(node: usize, t: usize, v: f32) -> Tick {
        Tick {
            node,
            t,
            values: vec![v],
        }
    }

    #[test]
    fn rows_release_only_when_every_node_delivered() {
        let mut ing = StreamIngest::new(3, 1, 4);
        assert!(ing.push(&tick(0, 0, 1.0)).unwrap().is_empty());
        assert!(ing.push(&tick(2, 0, 3.0)).unwrap().is_empty());
        assert_eq!(ing.frontier(), 0, "node 1 still owes t=0");
        let out = ing.push(&tick(1, 0, 2.0)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_vec(), vec![1.0, 2.0, 3.0]);
        assert_eq!(ing.frontier(), 1);
    }

    #[test]
    fn a_lagging_node_holds_back_a_cascade() {
        let mut ing = StreamIngest::new(2, 1, 4);
        // Node 0 races ahead three rows; nothing releases.
        for t in 0..3 {
            assert!(ing.push(&tick(0, t, t as f32)).unwrap().is_empty());
        }
        assert_eq!(ing.staged_rows(), 3);
        // Node 1 delivers t=0,1: exactly those two rows cascade out.
        let out = ing.push(&tick(1, 0, 10.0)).unwrap();
        assert_eq!(out.len(), 1);
        let out = ing.push(&tick(1, 1, 11.0)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_vec(), vec![1.0, 11.0]);
        assert_eq!(ing.frontier(), 2);
    }

    #[test]
    fn out_of_order_and_duplicate_ticks_are_typed_rejections() {
        let mut ing = StreamIngest::new(2, 1, 4);
        ing.push(&tick(0, 0, 1.0)).unwrap();
        assert_eq!(
            ing.push(&tick(0, 0, 9.0)).unwrap_err(),
            IngestError::OutOfOrder {
                node: 0,
                t: 0,
                expected: 1
            },
            "duplicate"
        );
        assert_eq!(
            ing.push(&tick(0, 5, 9.0)).unwrap_err(),
            IngestError::OutOfOrder {
                node: 0,
                t: 5,
                expected: 1
            },
            "gap"
        );
        // State untouched by the rejections.
        assert_eq!(ing.watermark(0), 1);
        assert_eq!(ing.staged_rows(), 1);
    }

    #[test]
    fn skew_bound_rejects_a_runaway_node() {
        let mut ing = StreamIngest::new(2, 1, 2);
        ing.push(&tick(0, 0, 0.0)).unwrap();
        ing.push(&tick(0, 1, 1.0)).unwrap();
        let err = ing.push(&tick(0, 2, 2.0)).unwrap_err();
        assert_eq!(
            err,
            IngestError::SkewBound {
                node: 0,
                t: 2,
                frontier: 0,
                max_skew: 2
            }
        );
        // The slow node catching up re-opens the window.
        ing.push(&tick(1, 0, 9.0)).unwrap();
        assert!(ing.push(&tick(0, 2, 2.0)).is_ok());
    }

    #[test]
    fn schema_violations_are_typed() {
        let mut ing = StreamIngest::new(2, 2, 4);
        assert_eq!(
            ing.push(&Tick {
                node: 7,
                t: 0,
                values: vec![0.0; 2]
            })
            .unwrap_err(),
            IngestError::NodeOutOfRange { node: 7, nodes: 2 }
        );
        assert_eq!(
            ing.push(&Tick {
                node: 0,
                t: 0,
                values: vec![0.0; 3]
            })
            .unwrap_err(),
            IngestError::BadFeatureCount { got: 3, want: 2 }
        );
    }
}
