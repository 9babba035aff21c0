//! The dataset registry: the paper's Table-1 shapes, exactly.
//!
//! Each [`DatasetSpec`] carries the *full-scale* shape (used for analytic
//! byte accounting and paper-scale projections) plus a `scale` knob that
//! shrinks nodes/entries proportionally for measured runs on small machines.
//! Horizons are the standard settings from the papers the datasets come
//! from (DCRNN uses 12 × 5-minute steps for traffic; PGT's chickenpox
//! example uses 4 weekly steps; windmill uses 8 hourly steps) — these are
//! the values under which eq. (1) reproduces Table 1's post-preprocessing
//! sizes.

/// Which benchmark dataset a spec describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Chickenpox-Hungary: weekly county-level case counts.
    ChickenpoxHungary,
    /// Windmill-Large: hourly energy output of wind turbines.
    WindmillLarge,
    /// METR-LA: LA highway loop-detector speeds.
    MetrLa,
    /// PeMS-BAY: Bay Area loop-detector speeds.
    PemsBay,
    /// PeMS-All-LA: all LA-area PeMS sensors.
    PemsAllLa,
    /// PeMS: the full California PeMS network (the paper's headline case).
    Pems,
}

/// Application domain (drives which synthetic generator is used).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Disease-spread case counts.
    Epidemiological,
    /// Energy production.
    Energy,
    /// Road-traffic speeds.
    Traffic,
}

/// Full description of a dataset's shape and preprocessing settings.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Which benchmark this mirrors.
    pub kind: DatasetKind,
    /// Display name matching the paper.
    pub name: &'static str,
    /// Application domain.
    pub domain: Domain,
    /// Description of node features (Table 1's "Features" column).
    pub feature_desc: &'static str,
    /// Graph nodes at full scale.
    pub nodes: usize,
    /// Time entries at full scale.
    pub entries: usize,
    /// Features in the raw file (before the time-of-day augmentation).
    pub raw_features: usize,
    /// Features after preprocessing stage 1 (traffic datasets gain a
    /// time-of-day column; others do not).
    pub aug_features: usize,
    /// Forecast horizon (window length) in time steps.
    pub horizon: usize,
    /// Entries per diurnal/weekly cycle (drives the time feature and the
    /// synthetic generators' periodicity).
    pub period: usize,
    /// Default training batch size from the paper's evaluation (§5).
    pub batch_size: usize,
}

impl DatasetSpec {
    /// Look up the full-scale spec for a benchmark.
    pub fn get(kind: DatasetKind) -> DatasetSpec {
        match kind {
            DatasetKind::ChickenpoxHungary => DatasetSpec {
                kind,
                name: "Chickenpox-Hungary",
                domain: Domain::Epidemiological,
                feature_desc: "case count",
                nodes: 20,
                entries: 522,
                raw_features: 1,
                aug_features: 1,
                horizon: 4,
                period: 52,
                batch_size: 4,
            },
            DatasetKind::WindmillLarge => DatasetSpec {
                kind,
                name: "Windmill-Large",
                domain: Domain::Energy,
                feature_desc: "hourly energy output",
                nodes: 319,
                entries: 17_472,
                raw_features: 1,
                aug_features: 1,
                horizon: 8,
                period: 24,
                batch_size: 64,
            },
            DatasetKind::MetrLa => DatasetSpec {
                kind,
                name: "METR-LA",
                domain: Domain::Traffic,
                feature_desc: "speed, day of week",
                nodes: 207,
                entries: 34_272,
                raw_features: 1,
                aug_features: 2,
                horizon: 12,
                period: 288, // 5-minute intervals: 288 per day
                batch_size: 64,
            },
            DatasetKind::PemsBay => DatasetSpec {
                kind,
                name: "PeMS-BAY",
                domain: Domain::Traffic,
                feature_desc: "speed, day of week",
                nodes: 325,
                entries: 52_105,
                raw_features: 1,
                aug_features: 2,
                horizon: 12,
                period: 288,
                batch_size: 64,
            },
            DatasetKind::PemsAllLa => DatasetSpec {
                kind,
                name: "PeMS-All-LA",
                domain: Domain::Traffic,
                feature_desc: "speed, day of week",
                nodes: 2_716,
                entries: 105_120,
                raw_features: 1,
                aug_features: 2,
                horizon: 12,
                period: 288,
                batch_size: 64,
            },
            DatasetKind::Pems => DatasetSpec {
                kind,
                name: "PeMS",
                domain: Domain::Traffic,
                feature_desc: "speed, day of week",
                nodes: 11_160,
                entries: 105_120,
                raw_features: 1,
                aug_features: 2,
                horizon: 12,
                period: 288,
                batch_size: 64,
            },
        }
    }

    /// All six benchmarks in Table 1's (ascending-size) order.
    pub fn all() -> Vec<DatasetSpec> {
        [
            DatasetKind::ChickenpoxHungary,
            DatasetKind::WindmillLarge,
            DatasetKind::MetrLa,
            DatasetKind::PemsBay,
            DatasetKind::PemsAllLa,
            DatasetKind::Pems,
        ]
        .into_iter()
        .map(DatasetSpec::get)
        .collect()
    }

    /// Raw-file size in bytes at `elem_bytes` per element (8 for the
    /// paper's float64 Table 1).
    pub fn raw_bytes(&self, elem_bytes: usize) -> u64 {
        (self.entries * self.nodes * self.raw_features * elem_bytes) as u64
    }

    /// Number of sliding-window snapshots this dataset yields:
    /// `entries − (2·horizon − 1)`.
    pub fn num_snapshots(&self) -> usize {
        self.entries.saturating_sub(2 * self.horizon - 1)
    }

    /// A proportionally scaled copy for measured runs: `scale` ∈ (0, 1]
    /// shrinks nodes and entries (keeping at least a few windows' worth).
    pub fn scaled(&self, scale: f64) -> DatasetSpec {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let mut s = self.clone();
        s.nodes = ((self.nodes as f64 * scale).round() as usize).max(4);
        let min_entries = 6 * self.horizon + 2;
        s.entries = ((self.entries as f64 * scale).round() as usize).max(min_entries);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1's "Size Before Preprocessing" column, float64. The paper
    /// mixes binary and decimal units across rows; we assert against raw
    /// bytes within 3% of the printed values interpreted in the closest
    /// unit convention.
    #[test]
    fn raw_sizes_match_table1() {
        let cases: [(DatasetKind, f64); 6] = [
            (DatasetKind::ChickenpoxHungary, 83.36e3 * 1.024), // ~83.36 KB
            (DatasetKind::WindmillLarge, 44.59e6 * 1.048),     // ~44.59 MB
            (DatasetKind::MetrLa, 54.39 * 1024.0 * 1024.0),
            (DatasetKind::PemsBay, 129.62 * 1024.0 * 1024.0),
            (DatasetKind::PemsAllLa, 2.12 * f64::powi(1024.0, 3)),
            (DatasetKind::Pems, 8.71 * f64::powi(1024.0, 3)),
        ];
        for (kind, expect) in cases {
            let spec = DatasetSpec::get(kind);
            let got = spec.raw_bytes(8) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.05, "{}: got {got}, table {expect}", spec.name);
        }
    }

    #[test]
    fn snapshot_counts() {
        let pems = DatasetSpec::get(DatasetKind::Pems);
        assert_eq!(pems.num_snapshots(), 105_120 - 23);
        let cp = DatasetSpec::get(DatasetKind::ChickenpoxHungary);
        assert_eq!(cp.num_snapshots(), 522 - 7);
    }

    #[test]
    fn traffic_gains_time_feature_others_do_not() {
        assert_eq!(DatasetSpec::get(DatasetKind::Pems).aug_features, 2);
        assert_eq!(DatasetSpec::get(DatasetKind::WindmillLarge).aug_features, 1);
    }

    #[test]
    fn scaled_preserves_minimums() {
        let s = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.01);
        assert!(s.nodes >= 4);
        assert!(s.entries >= 6 * s.horizon + 2);
        let big = DatasetSpec::get(DatasetKind::Pems).scaled(0.01);
        assert_eq!(big.nodes, 112);
        assert_eq!(big.entries, 1051);
    }

    #[test]
    fn all_lists_six_in_order() {
        let all = DatasetSpec::all();
        assert_eq!(all.len(), 6);
        assert!(all
            .windows(2)
            .all(|w| w[0].raw_bytes(8) <= w[1].raw_bytes(8)));
    }
}
