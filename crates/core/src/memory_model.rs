//! Analytic memory models: eq. (1), eq. (2), the Fig.-3 growth stages, and
//! paper-scale virtual replays for index-batching and GPU-index-batching
//! (the standard-pipeline replay lives in `st_data::replay`).

use st_data::datasets::DatasetSpec;
use st_data::preprocess::num_snapshots;
use st_device::memory::{AllocError, MemPool};
use st_device::profiler::MemTimeline;

/// Paper eq. (1): bytes of the standard pipeline's materialized x+y arrays.
pub fn standard_preprocess_bytes(
    entries: usize,
    horizon: usize,
    nodes: usize,
    features: usize,
    elem_bytes: usize,
) -> u64 {
    st_data::preprocess::materialized_bytes(entries, horizon, nodes, features, elem_bytes)
}

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

/// Outcome of an index-batching virtual replay.
#[derive(Debug, Clone)]
pub struct IndexReplayReport {
    /// Peak host bytes.
    pub peak_host: u64,
    /// Steady host bytes during training.
    pub steady_host: u64,
    /// Peak device bytes (0 for the CPU variant).
    pub peak_device: u64,
    /// OOM, if any pool was exceeded.
    pub oom: Option<AllocError>,
}

/// Virtual replay of **CPU index-batching** preprocessing at full scale
/// (Fig. 6's `PGT-index-batching` curve, Table 4's CPU column):
/// load raw → build augmented array → standardize (temporary) while the
/// raw array is still referenced → steady state = augmented copy + indices.
pub fn index_replay(
    spec: &DatasetSpec,
    host: &MemPool,
    timeline: &mut MemTimeline,
    elem_bytes: usize,
) -> IndexReplayReport {
    let eb = elem_bytes as u64;
    let raw = spec.raw_bytes(elem_bytes);
    let aug = (spec.entries * spec.nodes * spec.aug_features) as u64 * eb;
    let idx = num_snapshots(spec.entries, spec.horizon) as u64 * 8;

    macro_rules! try_alloc {
        ($pool:expr, $bytes:expr, $p:expr) => {
            if let Err(e) = $pool.alloc_untracked($bytes) {
                timeline.mark_oom($p);
                return IndexReplayReport {
                    peak_host: host.peak(),
                    steady_host: 0,
                    peak_device: 0,
                    oom: Some(e),
                };
            }
            timeline.sample($p, host);
        };
    }

    try_alloc!(host, raw, 0.02); // load raw file
    try_alloc!(host, aug, 0.04); // stage 1: augmented array
    try_alloc!(host, aug, 0.06); // standardize: (x-µ)/σ temporary
    host.free(raw + aug); // raw + temp die together at scope end
    try_alloc!(host, idx, 0.08); // the index array (eq. 2's second term)
    timeline.sample(0.10, host);
    let steady = host.in_use();
    for i in 1..=5 {
        timeline.sample(0.1 + 0.18 * i as f64, host);
    }
    IndexReplayReport {
        peak_host: host.peak(),
        steady_host: steady,
        peak_device: 0,
        oom: None,
    }
}

/// Virtual replay of **GPU-index-batching** (§4.1, Table 4's GPU column):
/// the raw file is streamed in chunks into the augmented host array (the
/// raw array is never fully resident), one consolidated transfer moves it
/// to the device, and standardization happens in place on the GPU.
/// `model_overhead` adds the model + batch working set to the device pool.
pub fn gpu_index_replay(
    spec: &DatasetSpec,
    host: &MemPool,
    device: &MemPool,
    timeline: &mut MemTimeline,
    elem_bytes: usize,
    model_overhead: u64,
) -> IndexReplayReport {
    let eb = elem_bytes as u64;
    let aug = (spec.entries * spec.nodes * spec.aug_features) as u64 * eb;
    let idx = num_snapshots(spec.entries, spec.horizon) as u64 * 8;
    let chunk = (spec.raw_bytes(elem_bytes) / 16).max(1); // streamed read buffer

    macro_rules! try_alloc {
        ($pool:expr, $bytes:expr, $p:expr) => {
            if let Err(e) = $pool.alloc_untracked($bytes) {
                timeline.mark_oom($p);
                return IndexReplayReport {
                    peak_host: host.peak(),
                    steady_host: host.in_use(),
                    peak_device: device.peak(),
                    oom: Some(e),
                };
            }
            timeline.sample($p, host);
        };
    }

    try_alloc!(host, chunk, 0.01); // streaming read buffer
    try_alloc!(host, aug, 0.03); // augmented array assembled chunk by chunk
    host.free(chunk);
    // One consolidated host→device transfer.
    try_alloc!(device, aug, 0.05);
    host.free(aug); // host copy dropped after the transfer
    timeline.sample(0.06, host);
    try_alloc!(device, idx, 0.07);
    try_alloc!(device, model_overhead, 0.09); // model, optimizer, batch slabs
    let steady = host.in_use();
    for i in 1..=5 {
        timeline.sample(0.1 + 0.18 * i as f64, host);
    }
    IndexReplayReport {
        peak_host: host.peak(),
        steady_host: steady,
        peak_device: device.peak(),
        oom: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::datasets::DatasetKind;
    use st_device::GIB;

    #[test]
    fn eq2_is_tiny_next_to_eq1() {
        let spec = DatasetSpec::get(DatasetKind::Pems);
        let eq1 = standard_preprocess_bytes(spec.entries, spec.horizon, spec.nodes, 2, 8);
        let eq2 = index_batching_bytes(spec.entries, spec.horizon, spec.nodes, 2, 8);
        assert!(eq1 as f64 / eq2 as f64 > 20.0, "eq1/eq2 = {}", eq1 / eq2);
    }

    #[test]
    fn growth_stages_for_pems_all_la_match_fig3() {
        let spec = DatasetSpec::get(DatasetKind::PemsAllLa);
        let g = growth_stages(&spec, 8);
        let gib = |b: u64| b as f64 / GIB as f64;
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
    fn index_replay_pems_peak_matches_fig6() {
        // Fig 6 / §5.1: index-batching peaks at ~46 GB on PeMS and never
        // approaches the 512 GB limit. Table 3's "45.75 GB" and Table 4's
        // 45.84 GB are the same quantity.
        let spec = DatasetSpec::get(DatasetKind::Pems);
        let host = MemPool::new("host", 512 * GIB);
        let mut tl = MemTimeline::new("index");
        let r = index_replay(&spec, &host, &mut tl, 8);
        assert!(r.oom.is_none());
        let peak = r.peak_host as f64 / GIB as f64;
        assert!(
            (peak - 45.84).abs() / 45.84 < 0.05,
            "peak {peak} GiB vs paper ≈45.8 GB"
        );
        // Steady state: one augmented copy + indices (eq. 2).
        let eq2 = index_batching_bytes(spec.entries, spec.horizon, spec.nodes, 2, 8);
        assert_eq!(r.steady_host, eq2);
    }

    #[test]
    fn gpu_index_replay_matches_table4() {
        // Table 4: GPU-index-batching: CPU 18.20 GB, GPU 18.60 GB.
        let spec = DatasetSpec::get(DatasetKind::Pems);
        let host = MemPool::new("host", 512 * GIB);
        let device = MemPool::new("gpu0", 40 * GIB);
        let mut tl = MemTimeline::new("gpu-index");
        let r = gpu_index_replay(&spec, &host, &device, &mut tl, 8, GIB);
        assert!(r.oom.is_none());
        let host_peak = r.peak_host as f64 / GIB as f64;
        let dev_peak = r.peak_device as f64 / GIB as f64;
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
        let host = MemPool::new("host", 512 * GIB);
        let device = MemPool::new("gpu0", 40 * GIB);
        let mut tl = MemTimeline::new("gpu-index-4x");
        let r = gpu_index_replay(&spec, &host, &device, &mut tl, 8, GIB);
        assert!(r.oom.is_some(), "4x PeMS must not fit on a 40 GB device");
    }

    #[test]
    fn cpu_index_fits_on_commodity_hardware() {
        // §5.1: index-batching "enables training on large datasets even on
        // commodity devices" — PeMS under a 64 GB workstation budget.
        let spec = DatasetSpec::get(DatasetKind::Pems);
        let host = MemPool::new("workstation", 64 * GIB);
        let mut tl = MemTimeline::new("commodity");
        let r = index_replay(&spec, &host, &mut tl, 8);
        assert!(r.oom.is_none(), "PeMS + index-batching must fit in 64 GB");
    }
}
