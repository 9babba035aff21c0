//! Integration tests pinning the paper's memory results (the quantities we
//! expect to match *exactly*, per DESIGN.md §7).

use pgt_i::core::memory_model::{
    gpu_index_replay, growth_stages, index_batching_bytes, index_replay, standard_replay,
    LoaderVariant, Replay,
};
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::preprocess::materialized_bytes;
use pgt_i::device::memory::AllocError;
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
        let got = materialized_bytes(s.entries, s.horizon, s.nodes, s.aug_features, 8) as f64;
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
    let eq1 = materialized_bytes(s.entries, s.horizon, s.nodes, s.aug_features, 8);
    let eq2 = index_batching_bytes(s.entries, s.horizon, s.nodes, s.aug_features, 8);
    assert!(1.0 - eq2 as f64 / eq1 as f64 > 0.89);
}

#[test]
fn fig2_oom_matrix() {
    // (dataset, expect_oom): PeMS-All-LA fits, PeMS crashes, both variants.
    for (kind, expect_oom) in [(DatasetKind::PemsAllLa, false), (DatasetKind::Pems, true)] {
        for variant in [LoaderVariant::Pgt, LoaderVariant::DcrnnPadded] {
            let spec = DatasetSpec::get(kind);
            let r = polaris(|r| standard_replay(r, &spec, variant, 8));
            assert_eq!(
                r.oom().is_some(),
                expect_oom,
                "{:?} on {}: oom={:?}",
                variant,
                spec.name,
                r.oom()
            );
        }
    }
}

#[test]
fn table2_host_peaks() {
    let spec = DatasetSpec::get(DatasetKind::PemsAllLa);
    let peak = |variant| polaris(|r| standard_replay(r, &spec, variant, 8)).peak_host();
    let pgt = gib(peak(LoaderVariant::Pgt));
    let dcrnn = gib(peak(LoaderVariant::DcrnnPadded));
    assert!((pgt - 259.84).abs() / 259.84 < 0.03, "PGT peak {pgt}");
    assert!((dcrnn - 371.25).abs() / 371.25 < 0.05, "DCRNN peak {dcrnn}");
    assert!(dcrnn > pgt, "the padded loader must cost extra memory");
}

#[test]
fn fig6_and_table4_memory_points() {
    let spec = DatasetSpec::get(DatasetKind::Pems);
    let idx = polaris(|r| index_replay(r, &spec, 8));
    assert!(idx.oom().is_none());
    assert!(
        (gib(idx.peak_host()) - 45.84).abs() < 3.0,
        "{}",
        gib(idx.peak_host())
    );

    let gidx = polaris(|r| gpu_index_replay(r, &spec, 8));
    assert!(gidx.oom().is_none());
    assert!(
        (gib(gidx.peak_host()) - 18.20).abs() < 1.5,
        "{}",
        gib(gidx.peak_host())
    );
    assert!(
        (gib(gidx.peak_device()) - 18.60).abs() < 1.5,
        "{}",
        gib(gidx.peak_device())
    );
    // §7 conclusion: 60.30% host-memory reduction from GPU-index-batching.
    let reduction = 1.0 - gidx.peak_host() as f64 / idx.peak_host() as f64;
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
            materialized_bytes(spec.entries, spec.horizon, spec.nodes, spec.aug_features, 8),
            "{}",
            spec.name
        );
    }
}

/// A replay on the Polaris pools: a 512 GiB host and a 40 GiB GPU.
fn polaris(pipeline: impl FnOnce(&mut Replay) -> Result<(), AllocError>) -> Replay {
    Replay::run(512 * GIB, 40 * GIB, pipeline)
}

/// Every replay behind Table 2, Figs 2 and 6 and Table 4, plus the
/// commodity-host, 4×-node and planner-shape cases, in source form.
fn pinned_replays() -> String {
    let all_la = DatasetSpec::get(DatasetKind::PemsAllLa);
    let pems = DatasetSpec::get(DatasetKind::Pems);
    let mut pems_4x = pems.clone();
    pems_4x.nodes *= 4;
    // `memory_planner -- 105120 5432 2 12`: PeMS-All-LA with twice its
    // sensors, where the standard pipeline runs out of the 512 GiB host.
    let mut all_la_2x = all_la.clone();
    all_la_2x.nodes *= 2;
    let (pgt, dcrnn) = (LoaderVariant::Pgt, LoaderVariant::DcrnnPadded);
    let runs = [
        (
            "standard/pgt/PeMS-All-LA",
            polaris(|r| standard_replay(r, &all_la, pgt, 8)),
        ),
        (
            "standard/dcrnn/PeMS-All-LA",
            polaris(|r| standard_replay(r, &all_la, dcrnn, 8)),
        ),
        (
            "standard/pgt/PeMS",
            polaris(|r| standard_replay(r, &pems, pgt, 8)),
        ),
        (
            "standard/dcrnn/PeMS",
            polaris(|r| standard_replay(r, &pems, dcrnn, 8)),
        ),
        (
            "standard/pgt/PeMS-All-LA-2x",
            polaris(|r| standard_replay(r, &all_la_2x, pgt, 8)),
        ),
        ("index/PeMS/512GiB", polaris(|r| index_replay(r, &pems, 8))),
        (
            "index/PeMS/64GiB",
            Replay::run(64 * GIB, 40 * GIB, |r| index_replay(r, &pems, 8)),
        ),
        ("gpu-index/PeMS", polaris(|r| gpu_index_replay(r, &pems, 8))),
        (
            "gpu-index/PeMS-4x",
            polaris(|r| gpu_index_replay(r, &pems_4x, 8)),
        ),
    ];
    let mut out = String::new();
    for (name, r) in runs {
        out += &format!("{name}\n");
        for &(progress, bytes) in r.samples() {
            out += &format!("  sample {:#018x} {bytes}\n", progress.to_bits());
        }
        out += &format!(
            "  peaks host {} device {}\n",
            r.peak_host(),
            r.peak_device()
        );
        if let Some(steady) = r.steady_host() {
            out += &format!("  steady {steady}\n");
        }
        if let Some((at, e)) = r.oom() {
            out += &format!(
                "  oom at {:#018x} requested {} in_use {} capacity {} pool {}\n",
                at.to_bits(),
                e.requested,
                e.in_use,
                e.capacity,
                e.pool
            );
        }
    }
    out
}

/// Every replay sample, peak, steady state and OOM point, bit for bit.
/// Recorded by the replay code of commit 227befd, before the three
/// replays became one type; on a mismatch the assertion prints the
/// computed table.
#[test]
fn replay_golden() {
    let got = pinned_replays();
    assert!(got == REPLAY_GOLDEN, "computed table:\n{got}");
}

const REPLAY_GOLDEN: &str = "\
standard/pgt/PeMS-All-LA
  sample 0x3f947ae147ae147b 2284047360
  sample 0x3fa999999999999a 6852142080
  sample 0x3faeb851eb851eb8 4568094720
  sample 0x3fb5c28f5c28f5c2 18269380416
  sample 0x3fbae147ae147ae1 31970666112
  sample 0x3fbc28f5c28f5c29 45671951808
  sample 0x3fc0a3d70a3d70a4 59373237504
  sample 0x3fc147ae147ae148 73074523200
  sample 0x3fc3d70a3d70a3d7 86775808896
  sample 0x3fc47ae147ae147b 100477094592
  sample 0x3fc70a3d70a3d70a 114178380288
  sample 0x3fd3333333333333 168983523072
  sample 0x3fd5c28f5c28f5c3 223788665856
  sample 0x3fd851eb851eb852 278593808640
  sample 0x3fd999999999999a 223788665856
  sample 0x3fdae147ae147ae1 278593808640
  sample 0x3fdc28f5c28f5c29 223788665856
  sample 0x3fdd70a3d70a3d71 114178380288
  sample 0x3fe3333333333333 114178380288
  sample 0x3fe6666666666666 114178380288
  sample 0x3fe999999999999a 114178380288
  sample 0x3feccccccccccccd 114178380288
  sample 0x3ff0000000000000 114178380288
  peaks host 278593808640 device 0
  steady 114178380288
standard/dcrnn/PeMS-All-LA
  sample 0x3f947ae147ae147b 2284047360
  sample 0x3fa999999999999a 6852142080
  sample 0x3faeb851eb851eb8 4568094720
  sample 0x3fb5c28f5c28f5c2 18269380416
  sample 0x3fbae147ae147ae1 31970666112
  sample 0x3fbc28f5c28f5c29 45671951808
  sample 0x3fc0a3d70a3d70a4 59373237504
  sample 0x3fc147ae147ae148 73074523200
  sample 0x3fc3d70a3d70a3d7 86775808896
  sample 0x3fc47ae147ae147b 100477094592
  sample 0x3fc70a3d70a3d70a 114178380288
  sample 0x3fd3333333333333 168983523072
  sample 0x3fd5c28f5c28f5c3 223788665856
  sample 0x3fd70a3d70a3d70a 333398951424
  sample 0x3fd851eb851eb852 388204094208
  sample 0x3fd999999999999a 333398951424
  sample 0x3fdae147ae147ae1 388204094208
  sample 0x3fdc28f5c28f5c29 333398951424
  sample 0x3fdd70a3d70a3d71 223788665856
  sample 0x3fe3333333333333 223788665856
  sample 0x3fe6666666666666 223788665856
  sample 0x3fe999999999999a 223788665856
  sample 0x3feccccccccccccd 223788665856
  sample 0x3ff0000000000000 223788665856
  peaks host 388204094208 device 0
  steady 223788665856
standard/pgt/PeMS
  sample 0x3f947ae147ae147b 9385113600
  sample 0x3fa999999999999a 28155340800
  sample 0x3faeb851eb851eb8 18770227200
  sample 0x3fb5c28f5c28f5c2 75068588160
  sample 0x3fbae147ae147ae1 131366949120
  sample 0x3fbc28f5c28f5c29 187665310080
  sample 0x3fc0a3d70a3d70a4 243963671040
  sample 0x3fc147ae147ae148 300262032000
  sample 0x3fc3d70a3d70a3d7 356560392960
  sample 0x3fc47ae147ae147b 412858753920
  sample 0x3fc70a3d70a3d70a 469157114880
  peaks host 469157114880 device 0
  oom at 0x3fd3333333333333 requested 225193443840 in_use 469157114880 capacity 549755813888 pool host
standard/dcrnn/PeMS
  sample 0x3f947ae147ae147b 9385113600
  sample 0x3fa999999999999a 28155340800
  sample 0x3faeb851eb851eb8 18770227200
  sample 0x3fb5c28f5c28f5c2 75068588160
  sample 0x3fbae147ae147ae1 131366949120
  sample 0x3fbc28f5c28f5c29 187665310080
  sample 0x3fc0a3d70a3d70a4 243963671040
  sample 0x3fc147ae147ae148 300262032000
  sample 0x3fc3d70a3d70a3d7 356560392960
  sample 0x3fc47ae147ae147b 412858753920
  sample 0x3fc70a3d70a3d70a 469157114880
  peaks host 469157114880 device 0
  oom at 0x3fd3333333333333 requested 225193443840 in_use 469157114880 capacity 549755813888 pool host
standard/pgt/PeMS-All-LA-2x
  sample 0x3f947ae147ae147b 4568094720
  sample 0x3fa999999999999a 13704284160
  sample 0x3faeb851eb851eb8 9136189440
  sample 0x3fb5c28f5c28f5c2 36538760832
  sample 0x3fbae147ae147ae1 63941332224
  sample 0x3fbc28f5c28f5c29 91343903616
  sample 0x3fc0a3d70a3d70a4 118746475008
  sample 0x3fc147ae147ae148 146149046400
  sample 0x3fc3d70a3d70a3d7 173551617792
  sample 0x3fc47ae147ae147b 200954189184
  sample 0x3fc70a3d70a3d70a 228356760576
  sample 0x3fd3333333333333 337967046144
  sample 0x3fd5c28f5c28f5c3 447577331712
  peaks host 447577331712 device 0
  oom at 0x3fd851eb851eb852 requested 109610285568 in_use 447577331712 capacity 549755813888 pool host
index/PeMS/512GiB
  sample 0x3f947ae147ae147b 9385113600
  sample 0x3fa47ae147ae147b 28155340800
  sample 0x3faeb851eb851eb8 46925568000
  sample 0x3fb47ae147ae147b 18771067976
  sample 0x3fb999999999999a 18771067976
  sample 0x3fd1eb851eb851ec 18771067976
  sample 0x3fdd70a3d70a3d70 18771067976
  sample 0x3fe47ae147ae147b 18771067976
  sample 0x3fea3d70a3d70a3d 18771067976
  sample 0x3fefffffffffffff 18771067976
  peaks host 46925568000 device 0
  steady 18771067976
index/PeMS/64GiB
  sample 0x3f947ae147ae147b 9385113600
  sample 0x3fa47ae147ae147b 28155340800
  sample 0x3faeb851eb851eb8 46925568000
  sample 0x3fb47ae147ae147b 18771067976
  sample 0x3fb999999999999a 18771067976
  sample 0x3fd1eb851eb851ec 18771067976
  sample 0x3fdd70a3d70a3d70 18771067976
  sample 0x3fe47ae147ae147b 18771067976
  sample 0x3fea3d70a3d70a3d 18771067976
  sample 0x3fefffffffffffff 18771067976
  peaks host 46925568000 device 0
  steady 18771067976
gpu-index/PeMS
  sample 0x3f847ae147ae147b 586569600
  sample 0x3f9eb851eb851eb8 19356796800
  sample 0x3fa999999999999a 18770227200
  sample 0x3faeb851eb851eb8 0
  sample 0x3fb1eb851eb851ec 0
  sample 0x3fb70a3d70a3d70a 0
  sample 0x3fd1eb851eb851ec 0
  sample 0x3fdd70a3d70a3d70 0
  sample 0x3fe47ae147ae147b 0
  sample 0x3fea3d70a3d70a3d 0
  sample 0x3fefffffffffffff 0
  peaks host 19356796800 device 19844809800
  steady 0
gpu-index/PeMS-4x
  sample 0x3f847ae147ae147b 2346278400
  sample 0x3f9eb851eb851eb8 77427187200
  peaks host 77427187200 device 0
  oom at 0x3fa999999999999a requested 75080908800 in_use 0 capacity 42949672960 pool gpu0
";
