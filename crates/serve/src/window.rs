//! The rolling index window: index-batching for a live stream.
//!
//! Training-side index-batching (§4.1) keeps **one** standardized signal
//! copy and reconstructs every sliding-window sample as a zero-copy view.
//! [`RollingWindow`] is the inference analogue: one `[capacity, N, F]` ring
//! of the most recent readings, where any in-buffer request window is
//! served as an index-addressed `narrow` view — no per-query window
//! materialization, ever.
//!
//! The ring stores each admitted row **twice**, at slots `t % cap` and
//! `t % cap + cap` of a `[2·cap, N, F]` tensor. That doubling makes every
//! window of length `h ≤ cap` a *contiguous* row run regardless of where
//! the ring's write head sits, which is what keeps window reads zero-copy
//! (a wrap-around window in a single-copy ring would need a gather).

use crate::error::ServeError;
use st_data::scaler::StandardScaler;
use st_data::storage::{RowStore, SignalStorage};
use st_tensor::Tensor;

/// A rolling, standardized `[E, N, F]` signal buffer with zero-copy window
/// views.
#[derive(Debug, Clone)]
pub struct RollingWindow {
    /// `[2·cap, N, F]`; row `t` lives at `t % cap` and `t % cap + cap`.
    buf: Tensor,
    cap: usize,
    nodes: usize,
    features: usize,
    /// Total readings admitted since construction (monotonic stream time).
    admitted: usize,
    scaler: StandardScaler,
}

impl RollingWindow {
    /// An empty buffer holding up to `capacity` readings of `[nodes,
    /// features]` each, standardized on admission with `scaler`.
    pub fn new(capacity: usize, nodes: usize, features: usize, scaler: StandardScaler) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        RollingWindow {
            buf: Tensor::zeros([2 * capacity, nodes, features]),
            cap: capacity,
            nodes,
            features,
            admitted: 0,
            scaler,
        }
    }

    /// Seed a buffer from an **already-standardized** `[E, N, F]` history
    /// (e.g. an `IndexDataset`'s single copy, on either storage backend),
    /// so subsequent windows are bit-identical to training windows. Only
    /// the final `capacity` rows are read — a full replay would overwrite
    /// every earlier one in the ring anyway — so an out-of-core history
    /// seeds the buffer touching at most `ceil(capacity / chunk_entries) +
    /// 1` chunks.
    pub fn from_standardized_history(
        history: &SignalStorage,
        capacity: usize,
        scaler: StandardScaler,
    ) -> Self {
        let dims = history.dims();
        assert_eq!(dims.len(), 3, "history must be [E, N, F]");
        let entries = dims[0];
        let mut w = RollingWindow::new(capacity, dims[1], dims[2], scaler);
        let start = entries.saturating_sub(capacity);
        // The ring indexes rows by monotonic stream time; skipping the
        // overwritten prefix must keep `admitted` identical to a full
        // replay so window ids line up with training snapshot ids.
        w.admitted = start;
        let (rows, _) = history.read_rows_quoted(start..entries);
        let src = rows.as_slice().expect("a row range is contiguous");
        let row = w.nodes * w.features;
        for t in 0..(entries - start) {
            w.admit_standardized(&src[t * row..(t + 1) * row]);
        }
        w
    }

    /// Admit one reading in **original units**, `[nodes, features]`; it is
    /// standardized with the fitted scaler before entering the ring.
    pub fn admit(&mut self, reading: &Tensor) {
        assert_eq!(
            reading.dims(),
            &[self.nodes, self.features],
            "reading must be [nodes, features]"
        );
        let std = self.scaler.transform(reading).contiguous();
        self.admit_standardized(std.as_slice().expect("contiguous"));
    }

    /// Admit one already-standardized reading (row-major `nodes × features`
    /// scalars).
    pub fn admit_standardized(&mut self, row: &[f32]) {
        let stride = self.nodes * self.features;
        assert_eq!(row.len(), stride, "row must be nodes × features scalars");
        let slot = self.admitted % self.cap;
        let buf = self.buf.make_mut_contiguous();
        buf[slot * stride..(slot + 1) * stride].copy_from_slice(row);
        let hi = (slot + self.cap) * stride;
        buf[hi..hi + stride].copy_from_slice(row);
        self.admitted += 1;
    }

    /// Total readings admitted so far (stream time).
    pub fn len(&self) -> usize {
        self.admitted
    }

    /// True before any reading has been admitted.
    pub fn is_empty(&self) -> bool {
        self.admitted == 0
    }

    /// Ring capacity (maximum window reach into the past).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Feature count.
    pub fn num_features(&self) -> usize {
        self.features
    }

    /// The admission scaler.
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// Oldest stream row the ring still retains (rows before it were
    /// evicted by newer admissions).
    pub fn oldest_retained(&self) -> usize {
        self.admitted.saturating_sub(self.cap)
    }

    /// Classify the window `[end − h, end)`: `Ok(())` when it is fully
    /// buffered, otherwise the **typed** reason it is not —
    /// [`ServeError::WindowEvicted`] when live ingest already overwrote
    /// part of it (or it reaches before stream time 0),
    /// [`ServeError::NotYetServable`] when some node it reads has not
    /// passed its watermark, and [`ServeError::BadHorizon`] when no ingest
    /// state could ever satisfy it.
    pub fn window_status(&self, end: usize, h: usize) -> Result<(), ServeError> {
        if h == 0 || h > self.cap {
            return Err(ServeError::BadHorizon {
                horizon: h,
                capacity: self.cap,
            });
        }
        if end > self.admitted {
            return Err(ServeError::NotYetServable {
                window_end: end,
                admitted: self.admitted,
            });
        }
        if end < h || end - h < self.oldest_retained() {
            return Err(ServeError::WindowEvicted {
                window_end: end,
                horizon: h,
                oldest_retained: self.oldest_retained(),
            });
        }
        Ok(())
    }

    /// True when the window `[end − h, end)` is still fully buffered.
    pub fn contains_window(&self, end: usize, h: usize) -> bool {
        self.window_status(end, h).is_ok()
    }

    /// The standardized window `[end − h, end)` as a **zero-copy**
    /// `[h, N, F]` view of the ring. `end` is exclusive stream time; a
    /// window that was evicted, never admitted, or malformed comes back as
    /// the typed [`ServeError`] — never a panic (an out-of-range view was
    /// reachable here once live ingest started evicting rows).
    pub fn window(&self, end: usize, h: usize) -> Result<Tensor, ServeError> {
        self.window_status(end, h)?;
        let start = (end - h) % self.cap;
        Ok(self.buf.narrow(0, start, h).expect("doubled ring in range"))
    }

    /// Assemble `[B, h, N, F]` from window end times — the serving twin of
    /// `IndexDataset::batch` (one contiguous memcpy per window). Fails
    /// with the first offending window's typed status.
    pub fn batch(&self, ends: &[usize], h: usize) -> Result<Tensor, ServeError> {
        let stride = self.nodes * self.features;
        let mut out = Vec::with_capacity(ends.len() * h * stride);
        let src = self.buf.as_slice().expect("ring is contiguous");
        for &end in ends {
            self.window_status(end, h)?;
            let start = ((end - h) % self.cap) * stride;
            out.extend_from_slice(&src[start..start + h * stride]);
        }
        Ok(Tensor::from_vec(out, [ends.len(), h, self.nodes, self.features]).expect("batch numel"))
    }

    /// Assert the structural ring invariants — every retained row is
    /// stored **twice** (slots `t % cap` and `t % cap + cap` hold
    /// bit-identical copies, the property that keeps wrap-around windows
    /// contiguous) and every retained window agrees with
    /// [`RollingWindow::window_status`]. The ingest proptests drive this
    /// after arbitrary tick interleavings; it is cheap enough to call in
    /// debug assertions.
    pub fn assert_ring_invariants(&self) {
        let stride = self.nodes * self.features;
        let src = self.buf.as_slice().expect("ring is contiguous");
        let filled = self.admitted.min(self.cap);
        for t in self.admitted - filled..self.admitted {
            let slot = t % self.cap;
            let lo = &src[slot * stride..(slot + 1) * stride];
            let hi = &src[(slot + self.cap) * stride..(slot + self.cap + 1) * stride];
            assert!(
                lo.iter().zip(hi).all(|(a, b)| a.to_bits() == b.to_bits()),
                "doubled-row contiguity broken at stream row {t} (slot {slot})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arange_rows(e: usize, n: usize, f: usize) -> Tensor {
        Tensor::arange(e * n * f).reshape([e, n, f]).unwrap()
    }

    fn seeded(hist: &Tensor, capacity: usize) -> RollingWindow {
        RollingWindow::from_standardized_history(
            &SignalStorage::InMemory(hist.clone()),
            capacity,
            StandardScaler::identity(),
        )
    }

    /// The seeder's definition: every history row admitted in order.
    fn replayed(hist: &Tensor, capacity: usize) -> RollingWindow {
        let mut w = RollingWindow::new(
            capacity,
            hist.dim(1),
            hist.dim(2),
            StandardScaler::identity(),
        );
        let row = hist.dim(1) * hist.dim(2);
        for r in hist.to_vec().chunks_exact(row) {
            w.admit_standardized(r);
        }
        w
    }

    #[test]
    fn windows_match_source_rows_across_wraparound() {
        let hist = arange_rows(50, 3, 2);
        let w = seeded(&hist, 16);
        assert_eq!(w.len(), 50);
        // Any window within the last 16 rows reproduces the source exactly,
        // including ones that straddle the ring's wrap point.
        for end in [50usize, 47, 40, 50 - 16 + 4] {
            let h = 4;
            let got = w.window(end, h).unwrap();
            let want = hist.narrow(0, end - h, h).unwrap();
            assert_eq!(got.to_vec(), want.to_vec(), "window ending at {end}");
        }
        w.assert_ring_invariants();
    }

    #[test]
    fn storage_history_matches_dense_history_bitwise() {
        use st_data::storage::{ChunkedSpec, StorageSpec};
        // Seeding reads only the ring's rows; whatever the history's length
        // and backend it must equal a full replay in stream time, ring
        // contents and every servable window.
        for (entries, capacity) in [(37usize, 10usize), (7, 10), (10_000, 16)] {
            let hist = arange_rows(entries, 3, 2);
            let full = replayed(&hist, capacity);
            let specs = [1usize, 4, 7, 64]
                .map(|chunk| StorageSpec::Chunked(ChunkedSpec::new(chunk)))
                .into_iter()
                .chain([StorageSpec::InMemory]);
            for spec in specs {
                let store = SignalStorage::from_tensor_spec(hist.clone(), spec);
                let w = RollingWindow::from_standardized_history(
                    &store,
                    capacity,
                    StandardScaler::identity(),
                );
                assert_eq!(w.len(), full.len(), "{entries} rows, {spec:?}");
                assert_eq!(w.oldest_retained(), full.oldest_retained());
                assert_eq!(w.buf.to_vec(), full.buf.to_vec(), "ring, {spec:?}");
                w.assert_ring_invariants();
                for end in 0..=entries + 1 {
                    for h in [1usize, 6, capacity] {
                        assert_eq!(w.window_status(end, h), full.window_status(end, h));
                        if let Ok(got) = w.window(end, h) {
                            let want = hist.narrow(0, end - h, h).unwrap();
                            assert_eq!(got.to_vec(), want.to_vec(), "window {end}-{h}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn window_views_are_zero_copy() {
        let hist = arange_rows(20, 2, 1);
        let w = seeded(&hist, 8);
        let v = w.window(20, 5).unwrap();
        assert!(v.shares_storage(&w.buf), "window must alias the ring");
        let v2 = w.window(17, 3).unwrap();
        assert!(v2.shares_storage(&v));
    }

    #[test]
    fn batch_matches_individual_windows() {
        let hist = arange_rows(30, 2, 2);
        let w = seeded(&hist, 12);
        let ends = [30usize, 25, 22];
        let b = w.batch(&ends, 3).unwrap();
        assert_eq!(b.dims(), &[3, 3, 2, 2]);
        for (row, &end) in ends.iter().enumerate() {
            assert_eq!(
                b.select(0, row).unwrap().to_vec(),
                w.window(end, 3).unwrap().to_vec()
            );
        }
    }

    #[test]
    fn admission_standardizes_with_the_scaler() {
        let scaler = StandardScaler::from_feature_stats(vec![(10.0, 2.0)]);
        let mut w = RollingWindow::new(4, 2, 1, scaler);
        w.admit(&Tensor::from_vec(vec![12.0, 8.0], [2, 1]).unwrap());
        let v = w.window(1, 1).unwrap();
        assert_eq!(v.to_vec(), vec![1.0, -1.0]); // (x - 10) / 2
    }

    #[test]
    fn evicted_windows_come_back_typed() {
        let hist = arange_rows(20, 1, 1);
        let w = seeded(&hist, 8);
        // Rows [2, 6) fell out of the 8-row ring long ago — a typed
        // eviction, never a panic or an out-of-range view.
        assert_eq!(
            w.window(6, 4).unwrap_err(),
            ServeError::WindowEvicted {
                window_end: 6,
                horizon: 4,
                oldest_retained: 12
            }
        );
        // A batch fails on its first evicted member.
        assert!(matches!(
            w.batch(&[20, 6], 4).unwrap_err(),
            ServeError::WindowEvicted { window_end: 6, .. }
        ));
    }

    #[test]
    fn future_windows_come_back_typed() {
        let hist = arange_rows(10, 1, 1);
        let w = seeded(&hist, 8);
        assert_eq!(
            w.window(11, 4).unwrap_err(),
            ServeError::NotYetServable {
                window_end: 11,
                admitted: 10
            }
        );
    }

    #[test]
    fn malformed_horizons_come_back_typed() {
        let hist = arange_rows(10, 1, 1);
        let w = seeded(&hist, 8);
        assert_eq!(
            w.window(10, 0).unwrap_err(),
            ServeError::BadHorizon {
                horizon: 0,
                capacity: 8
            }
        );
        assert_eq!(
            w.window(10, 9).unwrap_err(),
            ServeError::BadHorizon {
                horizon: 9,
                capacity: 8
            }
        );
        // A window reaching before stream time 0 never existed: eviction.
        assert!(matches!(
            w.window(3, 4).unwrap_err(),
            ServeError::WindowEvicted { .. }
        ));
    }

    #[test]
    fn contains_window_boundaries() {
        let hist = arange_rows(20, 1, 1);
        let w = seeded(&hist, 8);
        assert!(w.contains_window(20, 8)); // the full ring
        assert!(w.contains_window(13, 1)); // oldest surviving row
        assert!(!w.contains_window(12, 1)); // just evicted
        assert!(!w.contains_window(20, 9)); // longer than capacity
        assert!(!w.contains_window(3, 4)); // end < h
    }
}
