//! Integration tests pinning the paper's memory results (the quantities we
//! expect to match *exactly*, per DESIGN.md §7).

use pgt_i::core::memory_model::{
    gpu_index_replay, growth_stages, index_batching_bytes, index_replay,
};
use pgt_i::core::standard_preprocess_bytes;
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::replay::{standard_replay, LoaderVariant};
use pgt_i::device::memory::MemPool;
use pgt_i::device::profiler::MemTimeline;
use pgt_i::device::GIB;

fn gib(bytes: u64) -> f64 {
    bytes as f64 / GIB as f64
}

#[test]
fn table1_after_sizes_within_two_percent() {
    let expected: [(DatasetKind, f64); 4] = [
        (DatasetKind::MetrLa, 2.54 * GIB as f64),
        (DatasetKind::PemsBay, 6.05 * GIB as f64),
        (DatasetKind::PemsAllLa, 102.08 * GIB as f64),
        (DatasetKind::Pems, 419.46 * GIB as f64),
    ];
    for (kind, want) in expected {
        let s = DatasetSpec::get(kind);
        let got =
            standard_preprocess_bytes(s.entries, s.horizon, s.nodes, s.aug_features, 8) as f64;
        assert!(
            (got - want).abs() / want < 0.02,
            "{}: {got} vs paper {want}",
            s.name
        );
    }
}

#[test]
fn paper_headline_89_percent_reduction() {
    let s = DatasetSpec::get(DatasetKind::Pems);
    let eq1 = standard_preprocess_bytes(s.entries, s.horizon, s.nodes, s.aug_features, 8);
    let eq2 = index_batching_bytes(s.entries, s.horizon, s.nodes, s.aug_features, 8);
    assert!(1.0 - eq2 as f64 / eq1 as f64 > 0.89);
}

#[test]
fn fig2_oom_matrix() {
    // (dataset, expect_oom): PeMS-All-LA fits, PeMS crashes, both variants.
    for (kind, expect_oom) in [(DatasetKind::PemsAllLa, false), (DatasetKind::Pems, true)] {
        for variant in [LoaderVariant::Pgt, LoaderVariant::DcrnnPadded] {
            let spec = DatasetSpec::get(kind);
            let pool = MemPool::new("host", 512 * GIB);
            let mut tl = MemTimeline::new("t");
            let r = standard_replay(&spec, variant, &pool, &mut tl, 8);
            assert_eq!(
                r.oom.is_some(),
                expect_oom,
                "{:?} on {}: oom={:?}",
                variant,
                spec.name,
                r.oom
            );
        }
    }
}

#[test]
fn table2_host_peaks() {
    let spec = DatasetSpec::get(DatasetKind::PemsAllLa);
    let peak = |variant| {
        let pool = MemPool::new("host", 512 * GIB);
        let mut tl = MemTimeline::new("t");
        standard_replay(&spec, variant, &pool, &mut tl, 8).peak_bytes
    };
    let pgt = gib(peak(LoaderVariant::Pgt));
    let dcrnn = gib(peak(LoaderVariant::DcrnnPadded));
    assert!((pgt - 259.84).abs() / 259.84 < 0.03, "PGT peak {pgt}");
    assert!((dcrnn - 371.25).abs() / 371.25 < 0.05, "DCRNN peak {dcrnn}");
    assert!(dcrnn > pgt, "the padded loader must cost extra memory");
}

#[test]
fn fig6_and_table4_memory_points() {
    let spec = DatasetSpec::get(DatasetKind::Pems);
    let host = MemPool::new("host", 512 * GIB);
    let mut tl = MemTimeline::new("idx");
    let idx = index_replay(&spec, &host, &mut tl, 8);
    assert!(idx.oom.is_none());
    assert!(
        (gib(idx.peak_host) - 45.84).abs() < 3.0,
        "{}",
        gib(idx.peak_host)
    );

    let host = MemPool::new("host", 512 * GIB);
    let dev = MemPool::new("gpu", 40 * GIB);
    let mut tl = MemTimeline::new("gidx");
    let gidx = gpu_index_replay(&spec, &host, &dev, &mut tl, 8, GIB);
    assert!(gidx.oom.is_none());
    assert!(
        (gib(gidx.peak_host) - 18.20).abs() < 1.5,
        "{}",
        gib(gidx.peak_host)
    );
    assert!(
        (gib(gidx.peak_device) - 18.60).abs() < 1.5,
        "{}",
        gib(gidx.peak_device)
    );
    // §7 conclusion: 60.30% host-memory reduction from GPU-index-batching.
    let reduction = 1.0 - gidx.peak_host as f64 / idx.peak_host as f64;
    assert!(
        (reduction - 0.603).abs() < 0.05,
        "host reduction {reduction}"
    );
}

#[test]
fn fig3_stage_monotonicity_for_all_datasets() {
    for spec in DatasetSpec::all() {
        let g = growth_stages(&spec, 8);
        assert!(g.raw <= g.stage1, "{}", spec.name);
        assert!(g.stage1 < g.stage2, "{}", spec.name);
        assert_eq!(g.stage3, 2 * g.stage2, "{}", spec.name);
        // eq. (1) equals the stage-3 total.
        assert_eq!(
            g.stage3,
            standard_preprocess_bytes(spec.entries, spec.horizon, spec.nodes, spec.aug_features, 8),
            "{}",
            spec.name
        );
    }
}
