//! Paper-scale memory accounting: the analytic sizes (eq. (2) and the
//! Fig.-3 growth stages here; eq. (1) is `st_data::preprocess::materialized_bytes`)
//! and the one replay type the three pipelines run on.
//!
//! A [`Replay`] executes a pipeline's allocation sequence at the paper's
//! full shapes against modeled host and device pools: every buffer the
//! reference code would create is accounted, and OOMs where the real node
//! ran out, without touching RAM. The standard, index-batching and
//! GPU-index-batching replays produce Table 2's host peaks, Figs 2 and 6
//! and Table 4's memory columns.

use st_data::datasets::DatasetSpec;
use st_data::preprocess::num_snapshots;
use st_device::memory::{AllocError, MemPool};
use st_device::GIB;

/// Paper eq. (2): bytes resident under index-batching — one data copy plus
/// one (8-byte) index per snapshot.
pub fn index_batching_bytes(
    entries: usize,
    horizon: usize,
    nodes: usize,
    features: usize,
    elem_bytes: usize,
) -> u64 {
    (entries * nodes * features * elem_bytes) as u64 + (num_snapshots(entries, horizon) as u64) * 8
}

/// The Fig.-3 data-growth stages for a dataset (float64 byte counts):
/// raw file → stage 1 (time-of-day augmentation) → stage 2 (SWA snapshots,
/// x only) → stage 3 (x and y train/val/test sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrowthStages {
    /// Raw file bytes.
    pub raw: u64,
    /// After stage 1: the augmented array.
    pub stage1: u64,
    /// After stage 2: all x snapshots materialized.
    pub stage2: u64,
    /// After stage 3: x and y (the eq.-1 total).
    pub stage3: u64,
}

/// Compute the growth stages for `spec` at `elem_bytes` per element.
pub fn growth_stages(spec: &DatasetSpec, elem_bytes: usize) -> GrowthStages {
    let s = num_snapshots(spec.entries, spec.horizon) as u64;
    let raw = spec.raw_bytes(elem_bytes);
    let stage1 = (spec.entries * spec.nodes * spec.aug_features * elem_bytes) as u64;
    let stage2 = s * (spec.horizon * spec.nodes * spec.aug_features * elem_bytes) as u64;
    let stage3 = 2 * stage2;
    GrowthStages {
        raw,
        stage1,
        stage2,
        stage3,
    }
}

/// Which of a replay's two pools an allocation draws from.
enum Pool {
    Host,
    Device,
}

/// One pipeline replayed at paper scale: a host pool ("host") and a device
/// pool ("gpu0"), the host's bytes in use sampled against normalized
/// progress (the x-axis of Figs 2 and 6), the steady state of a pipeline
/// that reaches training, and the point of its first OOM.
#[derive(Debug)]
pub struct Replay {
    host: MemPool,
    device: MemPool,
    samples: Vec<(f64, u64)>,
    steady: Option<u64>,
    oom: Option<(f64, AllocError)>,
}

impl Replay {
    /// Run `pipeline` on empty pools of `host` and `device` bytes, to its
    /// end or to its first OOM.
    pub fn run(
        host: u64,
        device: u64,
        pipeline: impl FnOnce(&mut Replay) -> Result<(), AllocError>,
    ) -> Replay {
        let mut replay = Replay {
            host: MemPool::new("host", host),
            device: MemPool::new("gpu0", device),
            samples: Vec::new(),
            steady: None,
            oom: None,
        };
        // The OOM that stops a pipeline is already recorded by `alloc`.
        let _ = pipeline(&mut replay);
        replay
    }

    /// Account `bytes` on `pool` at `progress`, then sample the host. A
    /// refused request is recorded as the OOM point and returned.
    fn alloc(&mut self, pool: Pool, bytes: u64, progress: f64) -> Result<(), AllocError> {
        let target = match pool {
            Pool::Host => &mut self.host,
            Pool::Device => &mut self.device,
        };
        if let Err(e) = target.alloc(bytes) {
            self.oom = Some((progress, e.clone()));
            return Err(e);
        }
        self.sample(progress);
        Ok(())
    }

    /// Return `bytes` to the host pool (no pipeline frees device memory).
    fn free(&mut self, bytes: u64) {
        self.host.free(bytes);
    }

    fn sample(&mut self, progress: f64) {
        self.samples.push((progress, self.host.in_use()));
    }

    /// Training is reached: the host bytes in use are the steady state,
    /// sampled at `from + step·i` for i = 1..=5.
    fn train(&mut self, from: f64, step: f64) {
        self.steady = Some(self.host.in_use());
        for i in 1..=5 {
            self.sample(from + step * i as f64);
        }
    }

    /// Host bytes in use against progress ∈ [0, 1], up to the OOM point.
    pub fn samples(&self) -> &[(f64, u64)] {
        &self.samples
    }

    /// Host high-water mark.
    pub fn peak_host(&self) -> u64 {
        self.host.peak()
    }

    /// Device high-water mark (0 for a pipeline that never uses it).
    pub fn peak_device(&self) -> u64 {
        self.device.peak()
    }

    /// Host bytes resident through training; `None` when the pipeline
    /// crashed before it.
    pub fn steady_host(&self) -> Option<u64> {
        self.steady
    }

    /// Progress and error of the OOM that stopped the pipeline, if any.
    pub fn oom(&self) -> Option<&(f64, AllocError)> {
        self.oom.as_ref()
    }
}

/// Which loader duplication the standard pipeline models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoaderVariant {
    /// PGT-DCRNN: standard batcher, no extra dataset copy.
    Pgt,
    /// Original DCRNN: padded loader holding one more full copy of x and y.
    DcrnnPadded,
}

/// The standard (Algorithm 1) preprocessing at full `spec` scale, in the
/// allocation order of `generate_train_val_test` from the DCRNN reference
/// scripts and PGT's port of it:
///
/// 1. load the raw array; 2. build the time-of-day-augmented array
///    (stage 1 of Fig 3); 3. append every `x` and `y` window to Python
///    lists (stage 2); 4. `np.stack` each list — a second full copy while
///    the lists are still referenced; 5. standardize `x` and `y` (each
///    creates a temporary); 6. only then do the list references die.
///    The DCRNN variant additionally keeps the padded loader's duplicate
///    copy of all splits (stage 3 / §3.2).
///
/// `elem_bytes` is 8 for the paper's float64 pipeline.
pub fn standard_replay(
    r: &mut Replay,
    spec: &DatasetSpec,
    variant: LoaderVariant,
    elem_bytes: usize,
) -> Result<(), AllocError> {
    let g = growth_stages(spec, elem_bytes);
    let (raw, aug, xy_half) = (g.raw, g.stage1, g.stage2); // xy_half: one of x or y

    r.alloc(Pool::Host, raw, 0.02)?; // 1. load the raw file
    r.alloc(Pool::Host, aug, 0.05)?; // 2. stage 1, raw still alive
    r.free(raw); // raw array dropped after augmentation
    r.sample(0.06);

    // 3. Stage 2: the x/y window lists grow incrementally; a few
    //    intermediate samples show the ramp.
    for step in 1..=4u64 {
        let frac = step as f64 / 4.0;
        r.alloc(Pool::Host, xy_half / 4, 0.06 + 0.10 * frac)?; // x list quarter
        r.alloc(Pool::Host, xy_half / 4, 0.06 + 0.10 * frac + 0.02)?; // y list quarter
    }

    // 4. np.stack(x): full second copy of x while the list is referenced;
    //    then np.stack(y).
    r.alloc(Pool::Host, xy_half, 0.30)?;
    r.alloc(Pool::Host, xy_half, 0.34)?;

    // Stage 3 / loader: the original DCRNN workflow constructs its padded
    // loader (one more full copy of every split of x and y) while the
    // preprocessing locals — the window lists — are still referenced,
    // which is why its peak exceeds PGT's by a full x+y copy (§3.2).
    if variant == LoaderVariant::DcrnnPadded {
        r.alloc(Pool::Host, 2 * xy_half, 0.36)?;
    }

    // 5. Standardization: `(x - mu) / sigma` materializes a temporary the
    //    size of x, then rebinds (old stacked x freed); same for y.
    r.alloc(Pool::Host, xy_half, 0.38)?;
    r.free(xy_half);
    r.sample(0.40);
    r.alloc(Pool::Host, xy_half, 0.42)?;
    r.free(xy_half);
    r.sample(0.44);

    // 6. Preprocessing scope ends: the window lists die; x and y stacks
    //    (and, for DCRNN, the padded loader copy) remain.
    r.free(2 * xy_half);
    r.sample(0.46);
    r.train(0.5, 0.1);
    Ok(())
}

/// **CPU index-batching** preprocessing at full scale (Fig. 6's
/// `PGT-index-batching` curve, Table 4's CPU column): load raw → build
/// augmented array → standardize (temporary) while the raw array is still
/// referenced → steady state = augmented copy + indices.
pub fn index_replay(
    r: &mut Replay,
    spec: &DatasetSpec,
    elem_bytes: usize,
) -> Result<(), AllocError> {
    let g = growth_stages(spec, elem_bytes);
    let (raw, aug) = (g.raw, g.stage1);
    let idx = num_snapshots(spec.entries, spec.horizon) as u64 * 8;

    r.alloc(Pool::Host, raw, 0.02)?; // load raw file
    r.alloc(Pool::Host, aug, 0.04)?; // stage 1: augmented array
    r.alloc(Pool::Host, aug, 0.06)?; // standardize: (x-µ)/σ temporary
    r.free(raw + aug); // raw + temp die together at scope end
    r.alloc(Pool::Host, idx, 0.08)?; // the index array (eq. 2's second term)
    r.sample(0.10);
    r.train(0.1, 0.18);
    Ok(())
}

/// **GPU-index-batching** (§4.1, Table 4's GPU column): the raw file is
/// streamed in chunks into the augmented host array (the raw array is
/// never fully resident), one consolidated transfer moves it to the
/// device, and standardization happens in place on the GPU. The device
/// also holds 1 GiB of model, optimizer and batch slabs.
pub fn gpu_index_replay(
    r: &mut Replay,
    spec: &DatasetSpec,
    elem_bytes: usize,
) -> Result<(), AllocError> {
    let g = growth_stages(spec, elem_bytes);
    let aug = g.stage1;
    let idx = num_snapshots(spec.entries, spec.horizon) as u64 * 8;
    let chunk = (g.raw / 16).max(1); // streamed read buffer

    r.alloc(Pool::Host, chunk, 0.01)?; // streaming read buffer
    r.alloc(Pool::Host, aug, 0.03)?; // augmented array assembled chunk by chunk
    r.free(chunk);
    r.alloc(Pool::Device, aug, 0.05)?; // one consolidated host→device transfer
    r.free(aug); // host copy dropped after the transfer
    r.sample(0.06);
    r.alloc(Pool::Device, idx, 0.07)?;
    r.alloc(Pool::Device, GIB, 0.09)?; // model, optimizer, batch slabs
    r.train(0.1, 0.18);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::datasets::DatasetKind;
    use st_data::preprocess::materialized_bytes;

    fn polaris(pipeline: impl FnOnce(&mut Replay) -> Result<(), AllocError>) -> Replay {
        Replay::run(512 * GIB, 40 * GIB, pipeline)
    }

    fn standard(kind: DatasetKind, variant: LoaderVariant) -> Replay {
        polaris(|r| standard_replay(r, &DatasetSpec::get(kind), variant, 8))
    }

    fn gib(bytes: u64) -> f64 {
        bytes as f64 / GIB as f64
    }

    #[test]
    fn samples_track_pool_usage() {
        let r = Replay::run(1000, 100, |r| {
            r.sample(0.0);
            r.alloc(Pool::Host, 600, 0.5)?;
            r.alloc(Pool::Device, 50, 0.6)?;
            r.free(100);
            r.sample(0.7);
            r.train(0.7, 0.1);
            Ok(())
        });
        let mut expected = vec![(0.0, 0), (0.5, 600), (0.6, 600), (0.7, 500)];
        expected.extend((1..=5).map(|i| (0.7 + 0.1 * i as f64, 500)));
        assert_eq!(
            r.samples(),
            expected.as_slice(),
            "device allocs sample the host"
        );
        assert_eq!((r.peak_host(), r.peak_device()), (600, 50));
        assert_eq!(r.steady_host(), Some(500));
        assert!(r.oom().is_none());
    }

    #[test]
    fn oom_marker() {
        let r = Replay::run(1000, 100, |r| {
            r.alloc(Pool::Host, 600, 0.5)?;
            r.alloc(Pool::Device, 50, 0.6)?;
            r.free(100);
            r.sample(0.7);
            r.alloc(Pool::Device, 60, 0.8)?;
            r.alloc(Pool::Host, 1, 0.9)
        });
        assert_eq!(r.samples(), &[(0.5, 600), (0.6, 600), (0.7, 500)]);
        assert_eq!((r.peak_host(), r.peak_device()), (600, 50));
        let (at, err) = r.oom().expect("the device is full");
        assert_eq!(*at, 0.8);
        assert_eq!(
            (err.requested, err.in_use, err.pool.as_str()),
            (60, 50, "gpu0")
        );
        assert_eq!(r.steady_host(), None, "no steady state after an OOM");
    }

    #[test]
    fn eq2_is_tiny_next_to_eq1() {
        let spec = DatasetSpec::get(DatasetKind::Pems);
        let eq1 = materialized_bytes(spec.entries, spec.horizon, spec.nodes, 2, 8);
        let eq2 = index_batching_bytes(spec.entries, spec.horizon, spec.nodes, 2, 8);
        assert!(eq1 as f64 / eq2 as f64 > 20.0, "eq1/eq2 = {}", eq1 / eq2);
    }

    #[test]
    fn growth_stages_for_pems_all_la_match_fig3() {
        let spec = DatasetSpec::get(DatasetKind::PemsAllLa);
        let g = growth_stages(&spec, 8);
        assert!((gib(g.raw) - 2.12).abs() < 0.02, "raw {}", gib(g.raw));
        assert!(
            (gib(g.stage1) - 4.25).abs() < 0.05,
            "stage1 {}",
            gib(g.stage1)
        );
        assert!(
            (gib(g.stage2) - 51.04).abs() < 0.2,
            "stage2 {}",
            gib(g.stage2)
        );
        assert!(
            (gib(g.stage3) - 102.08).abs() < 0.4,
            "stage3 {}",
            gib(g.stage3)
        );
    }

    #[test]
    fn pems_all_la_pgt_peak_matches_table2() {
        // Paper Table 2: PGT-DCRNN peaks at 259.84 GB on PeMS-All-LA.
        let r = standard(DatasetKind::PemsAllLa, LoaderVariant::Pgt);
        assert!(r.oom().is_none(), "PeMS-All-LA must fit in 512 GB");
        let peak = gib(r.peak_host());
        assert!(
            (peak - 259.84).abs() / 259.84 < 0.03,
            "peak {peak} GiB vs paper 259.84 GB"
        );
    }

    #[test]
    fn pems_all_la_dcrnn_peak_matches_table2() {
        // Paper Table 2: original DCRNN peaks at 371.25 GB.
        let r = standard(DatasetKind::PemsAllLa, LoaderVariant::DcrnnPadded);
        assert!(r.oom().is_none());
        let peak = gib(r.peak_host());
        assert!(
            (peak - 371.25).abs() / 371.25 < 0.05,
            "peak {peak} GiB vs paper 371.25 GB"
        );
    }

    #[test]
    fn pems_ooms_for_both_variants() {
        // Fig 2: both implementations crash on full PeMS before training.
        for variant in [LoaderVariant::Pgt, LoaderVariant::DcrnnPadded] {
            let r = standard(DatasetKind::Pems, variant);
            let (_, err) = r.oom().expect("PeMS must OOM");
            assert_eq!(err.capacity, 512 * GIB, "{variant:?}");
        }
    }

    #[test]
    fn small_datasets_fit_comfortably() {
        let r = standard(DatasetKind::ChickenpoxHungary, LoaderVariant::Pgt);
        assert!(r.oom().is_none());
        assert!(r.peak_host() < GIB, "chickenpox stays under 1 GiB");
    }

    #[test]
    fn steady_state_is_xy_only_for_pgt() {
        let r = standard(DatasetKind::PemsBay, LoaderVariant::Pgt);
        let spec = DatasetSpec::get(DatasetKind::PemsBay);
        let (e, h, n, f) = (spec.entries, spec.horizon, spec.nodes, spec.aug_features);
        let expected = materialized_bytes(e, h, n, f, 8) + (e * n * f * 8) as u64;
        assert_eq!(r.steady_host(), Some(expected));
    }

    #[test]
    fn index_replay_pems_peak_matches_fig6() {
        // Fig 6 / §5.1: index-batching peaks at ~46 GB on PeMS and never
        // approaches the 512 GB limit. Table 3's "45.75 GB" and Table 4's
        // 45.84 GB are the same quantity.
        let spec = DatasetSpec::get(DatasetKind::Pems);
        let r = polaris(|r| index_replay(r, &spec, 8));
        assert!(r.oom().is_none());
        let peak = gib(r.peak_host());
        assert!(
            (peak - 45.84).abs() / 45.84 < 0.05,
            "peak {peak} GiB vs paper ≈45.8 GB"
        );
        // Steady state: one augmented copy + indices (eq. 2).
        let eq2 = index_batching_bytes(spec.entries, spec.horizon, spec.nodes, 2, 8);
        assert_eq!(r.steady_host(), Some(eq2));
        assert_eq!(r.peak_device(), 0);
    }

    #[test]
    fn gpu_index_replay_matches_table4() {
        // Table 4: GPU-index-batching: CPU 18.20 GB, GPU 18.60 GB.
        let r = polaris(|r| gpu_index_replay(r, &DatasetSpec::get(DatasetKind::Pems), 8));
        assert!(r.oom().is_none());
        let (host_peak, dev_peak) = (gib(r.peak_host()), gib(r.peak_device()));
        assert!(
            (host_peak - 18.20).abs() / 18.20 < 0.05,
            "host peak {host_peak} vs paper 18.20"
        );
        assert!(
            (dev_peak - 18.60).abs() / 18.60 < 0.05,
            "device peak {dev_peak} vs paper 18.60"
        );
    }

    #[test]
    fn gpu_index_ooms_on_dataset_bigger_than_device() {
        // §4.1: "not suitable for datasets that exceed GPU memory capacity".
        // A hypothetical 4× PeMS would blow the 40 GB A100.
        let mut spec = DatasetSpec::get(DatasetKind::Pems);
        spec.nodes *= 4;
        let r = polaris(|r| gpu_index_replay(r, &spec, 8));
        let (_, err) = r.oom().expect("4x PeMS must not fit on a 40 GB device");
        assert_eq!(err.pool, "gpu0");
    }

    #[test]
    fn cpu_index_fits_on_commodity_hardware() {
        // §5.1: index-batching "enables training on large datasets even on
        // commodity devices" — PeMS under a 64 GB workstation budget.
        let spec = DatasetSpec::get(DatasetKind::Pems);
        let r = Replay::run(64 * GIB, 0, |r| index_replay(r, &spec, 8));
        assert!(r.oom().is_none(), "PeMS + index-batching must fit in 64 GB");
    }
}
