//! Paper-scale *virtual replay* of the standard preprocessing pipeline.
//!
//! Reproducing Figs 2 and 6 requires running the full-scale PeMS workflow —
//! 419.46 GB of materialized arrays — which no test machine has. The replay
//! executes the exact allocation sequence of the reference implementation
//! against a [`MemPool`] in virtual mode: every buffer the Python code would
//! create is accounted (and OOMs when the 512 GB host capacity is exceeded)
//! without touching RAM.
//!
//! Allocation order mirrors `generate_train_val_test` from the DCRNN
//! reference scripts and PGT's port of it:
//!
//! 1. load the raw array; 2. build the time-of-day-augmented array
//!    (stage 1 of Fig 3); 3. append every `x` and `y` window to Python
//!    lists (stage 2); 4. `np.stack` each list — a second full copy while
//!    the lists are still referenced; 5. standardize `x` and `y` (each
//!    creates a temporary); 6. only then do the list references die.
//!    The DCRNN variant additionally keeps the padded loader's duplicate
//!    copy of all splits (stage 3 / §3.2).

use crate::datasets::DatasetSpec;
use crate::preprocess::num_snapshots;
use st_device::memory::{AllocError, MemPool};
use st_device::profiler::MemTimeline;

/// Which loader duplication to model on top of the shared pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoaderVariant {
    /// PGT-DCRNN: standard batcher, no extra dataset copy.
    Pgt,
    /// Original DCRNN: padded loader holding one more full copy of x and y.
    DcrnnPadded,
}

/// Outcome of a virtual replay.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Peak bytes observed (up to the OOM point if one occurred).
    pub peak_bytes: u64,
    /// Bytes resident once training steady-state is reached (0 if OOM).
    pub steady_bytes: u64,
    /// The OOM error, if the pipeline crashed.
    pub oom: Option<AllocError>,
}

/// Replay the standard (Algorithm 1) preprocessing at full `spec` scale.
///
/// `elem_bytes` is 8 for the paper's float64 pipeline. Timeline samples are
/// recorded at each stage boundary so Figs 2/6 can be re-plotted.
pub fn standard_replay(
    spec: &DatasetSpec,
    variant: LoaderVariant,
    pool: &MemPool,
    timeline: &mut MemTimeline,
    elem_bytes: usize,
) -> ReplayReport {
    let e = spec.entries as u64;
    let n = spec.nodes as u64;
    let f_raw = spec.raw_features as u64;
    let f = spec.aug_features as u64;
    let h = spec.horizon as u64;
    let s = num_snapshots(spec.entries, spec.horizon) as u64;
    let eb = elem_bytes as u64;

    let raw = e * n * f_raw * eb;
    let aug = e * n * f * eb;
    let xy_half = s * h * n * f * eb; // one of x or y, materialized

    let peak = |pool: &MemPool| pool.peak();
    macro_rules! try_alloc {
        ($bytes:expr, $progress:expr) => {
            match pool.alloc_untracked($bytes) {
                Ok(()) => {
                    timeline.sample($progress, pool);
                }
                Err(err) => {
                    timeline.mark_oom($progress);
                    return ReplayReport {
                        peak_bytes: peak(pool),
                        steady_bytes: 0,
                        oom: Some(err),
                    };
                }
            }
        };
    }

    // 1. Load raw file into memory.
    try_alloc!(raw, 0.02);
    // 2. Stage 1: time-of-day augmentation (new array, raw still alive).
    try_alloc!(aug, 0.05);
    pool.free(raw); // raw array dropped after augmentation
    timeline.sample(0.06, pool);

    // 3. Stage 2: the x/y window lists grow incrementally. Sample a few
    //    intermediate points so the timeline shows the ramp.
    for step in 1..=4u64 {
        let frac = step as f64 / 4.0;
        try_alloc!(xy_half / 4, 0.06 + 0.10 * frac); // x list quarter
        try_alloc!(xy_half / 4, 0.06 + 0.10 * frac + 0.02); // y list quarter
    }

    // 4. np.stack(x): full second copy of x while the list is referenced;
    //    then np.stack(y).
    try_alloc!(xy_half, 0.30);
    try_alloc!(xy_half, 0.34);

    // Stage 3 / loader: the original DCRNN workflow constructs its padded
    // loader (one more full copy of every split of x and y) while the
    // preprocessing locals — the window lists — are still referenced,
    // which is why its peak exceeds PGT's by a full x+y copy (§3.2).
    if variant == LoaderVariant::DcrnnPadded {
        try_alloc!(2 * xy_half, 0.36);
    }

    // 5. Standardization: `(x - mu) / sigma` materializes a temporary the
    //    size of x, then rebinds (old stacked x freed); same for y.
    try_alloc!(xy_half, 0.38);
    pool.free(xy_half);
    timeline.sample(0.40, pool);
    try_alloc!(xy_half, 0.42);
    pool.free(xy_half);
    timeline.sample(0.44, pool);

    // 6. Preprocessing scope ends: the window lists die; x and y stacks
    //    (and, for DCRNN, the padded loader copy) remain.
    pool.free(2 * xy_half); // x list + y list
    timeline.sample(0.46, pool);

    // Steady state through training (progress 0.5 → 1.0).
    let steady = pool.in_use();
    for i in 1..=5 {
        timeline.sample(0.5 + 0.1 * i as f64, pool);
    }
    ReplayReport {
        peak_bytes: pool.peak(),
        steady_bytes: steady,
        oom: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;
    use st_device::GIB;

    fn run(kind: DatasetKind, variant: LoaderVariant) -> (ReplayReport, MemTimeline) {
        let spec = DatasetSpec::get(kind);
        let pool = MemPool::new("host", 512 * GIB);
        let mut tl = MemTimeline::new(spec.name);
        let report = standard_replay(&spec, variant, &pool, &mut tl, 8);
        (report, tl)
    }

    #[test]
    fn pems_all_la_pgt_peak_matches_table2() {
        // Paper Table 2: PGT-DCRNN peaks at 259.84 GB on PeMS-All-LA.
        let (report, tl) = run(DatasetKind::PemsAllLa, LoaderVariant::Pgt);
        assert!(report.oom.is_none(), "PeMS-All-LA must fit in 512 GB");
        let peak_gib = report.peak_bytes as f64 / GIB as f64;
        assert!(
            (peak_gib - 259.84).abs() / 259.84 < 0.03,
            "peak {peak_gib} GiB vs paper 259.84 GB"
        );
        assert!(tl.oom_at().is_none());
    }

    #[test]
    fn pems_all_la_dcrnn_peak_matches_table2() {
        // Paper Table 2: original DCRNN peaks at 371.25 GB.
        let (report, _) = run(DatasetKind::PemsAllLa, LoaderVariant::DcrnnPadded);
        assert!(report.oom.is_none());
        let peak_gib = report.peak_bytes as f64 / GIB as f64;
        assert!(
            (peak_gib - 371.25).abs() / 371.25 < 0.05,
            "peak {peak_gib} GiB vs paper 371.25 GB"
        );
    }

    #[test]
    fn pems_ooms_for_both_variants() {
        // Fig 2: both implementations crash on full PeMS before training.
        for variant in [LoaderVariant::Pgt, LoaderVariant::DcrnnPadded] {
            let (report, tl) = run(DatasetKind::Pems, variant);
            assert!(report.oom.is_some(), "{variant:?} must OOM on PeMS");
            assert!(tl.oom_at().is_some());
            let err = report.oom.unwrap();
            assert_eq!(err.capacity, 512 * GIB);
        }
    }

    #[test]
    fn small_datasets_fit_comfortably() {
        let (report, _) = run(DatasetKind::ChickenpoxHungary, LoaderVariant::Pgt);
        assert!(report.oom.is_none());
        assert!(report.peak_bytes < GIB, "chickenpox stays under 1 GiB");
    }

    #[test]
    fn steady_state_is_xy_only_for_pgt() {
        let (report, _) = run(DatasetKind::PemsBay, LoaderVariant::Pgt);
        let spec = DatasetSpec::get(DatasetKind::PemsBay);
        let expected = crate::preprocess::materialized_bytes(
            spec.entries,
            spec.horizon,
            spec.nodes,
            spec.aug_features,
            8,
        ) + spec.entries as u64 * spec.nodes as u64 * spec.aug_features as u64 * 8;
        assert_eq!(report.steady_bytes, expected);
    }
}
