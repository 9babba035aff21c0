//! What one `repro` run shares: the meaning of smoke mode and the fixtures
//! more than one experiment reads.

use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

use pgt_index::memory_model::{gpu_index_replay, index_replay, IndexReplayReport};
use pgt_index::workflow::pgt_dcrnn_factory;
use pgt_index::IndexDataset;
use st_data::datasets::{DatasetKind, DatasetSpec};
use st_data::replay::{standard_replay, LoaderVariant, ReplayReport};
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::SplitRatios;
use st_data::synthetic;
use st_device::memory::MemPool;
use st_device::profiler::MemTimeline;
use st_device::GIB;
use st_models::Seq2Seq;

use crate::SEED;

/// A Table-1 dataset shrunk to fit this host, with its seeded synthetic signal.
pub(crate) struct Scaled {
    /// The scaled shape.
    pub(crate) spec: DatasetSpec,
    /// `synthetic::generate(&spec, SEED)`.
    pub(crate) sig: StaticGraphTemporalSignal,
}

/// One virtual replay at paper shapes against the Polaris pools (512 GiB
/// host, 40 GiB GPU, float64): its report and the timeline it drew.
pub(crate) struct Replay<R> {
    /// Peaks, steady state and the OOM verdict.
    pub(crate) report: R,
    /// Memory against progress, for the figures.
    pub(crate) timeline: MemTimeline,
}

/// The six paper-shape replays Table 2, Fig 2, Fig 6 and Table 4 read.
pub(crate) struct Replays {
    standard: Vec<(DatasetKind, LoaderVariant, Replay<ReplayReport>)>,
    /// CPU index-batching on full PeMS.
    pub(crate) index: Replay<IndexReplayReport>,
    /// GPU-index-batching on full PeMS.
    pub(crate) gpu_index: Replay<IndexReplayReport>,
}

impl Replays {
    fn new() -> Self {
        let host = || MemPool::new("host", 512 * GIB);
        let mut standard = Vec::new();
        for kind in [DatasetKind::PemsAllLa, DatasetKind::Pems] {
            for variant in [LoaderVariant::DcrnnPadded, LoaderVariant::Pgt] {
                let spec = DatasetSpec::get(kind);
                let mut timeline = MemTimeline::new(format!("{variant:?}-{}", spec.name));
                let report = standard_replay(&spec, variant, &host(), &mut timeline, 8);
                standard.push((kind, variant, Replay { report, timeline }));
            }
        }
        let pems = DatasetSpec::get(DatasetKind::Pems);
        let mut timeline = MemTimeline::new("index");
        let report = index_replay(&pems, &host(), &mut timeline, 8);
        let index = Replay { report, timeline };
        let device = MemPool::new("gpu0", 40 * GIB);
        let mut timeline = MemTimeline::new("gpu-index");
        let report = gpu_index_replay(&pems, &host(), &device, &mut timeline, 8, GIB);
        Replays {
            standard,
            index,
            gpu_index: Replay { report, timeline },
        }
    }

    /// The Algorithm-1 pipeline on PeMS-All-LA or PeMS under either loader.
    pub(crate) fn standard(
        &self,
        kind: DatasetKind,
        variant: LoaderVariant,
    ) -> &Replay<ReplayReport> {
        let found = self
            .standard
            .iter()
            .find(|(k, v, _)| (*k, *v) == (kind, variant));
        &found.expect("replayed for PeMS-All-LA and PeMS only").2
    }
}

/// How far a mode shrinks the measured runs: one row per mode, so smoke is
/// the same reduction for every experiment.
pub(crate) struct Scale {
    /// "full" or "smoke".
    pub(crate) mode: &'static str,
    /// Dataset fraction for single-GPU measured runs.
    pub(crate) measure_scale: f64,
    /// Epochs for single-GPU measured runs (the paper uses 100 for Table 3
    /// and 30 at PeMS scale; these shrink with the data so convergence
    /// behavior is still visible).
    pub(crate) measure_epochs: usize,
    /// Seeds a single-GPU result is averaged over (the paper averages 10 runs).
    pub(crate) seeds: &'static [u64],
    /// Dataset fraction for multi-worker runs.
    pub(crate) dist_scale: f64,
    /// Epochs for multi-worker learning runs.
    pub(crate) dist_epochs: usize,
    /// Epochs for the modeled sweeps, which move simulated time only.
    pub(crate) sweep_epochs: usize,
    /// Cap on the worker counts of a learning sweep.
    pub(crate) max_world: usize,
}

const FULL: Scale = Scale {
    mode: "full",
    measure_scale: 0.02,
    measure_epochs: 12,
    seeds: &[1, 2, 3],
    dist_scale: 0.012,
    dist_epochs: 4,
    sweep_epochs: 2,
    max_world: usize::MAX,
};

/// Seconds for the whole suite, within the two cores of a CI host.
const SMOKE: Scale = Scale {
    mode: "smoke",
    measure_scale: 0.008,
    measure_epochs: 3,
    seeds: &[1],
    dist_scale: 0.004,
    dist_epochs: 2,
    sweep_epochs: 1,
    max_world: 2,
};

/// One run's context, handed to every experiment.
pub struct Ctx {
    /// CI smoke mode; sweep grids that only one experiment has branch on it.
    pub(crate) smoke: bool,
    /// What the mode runs.
    pub(crate) scale: Scale,
    scaled: RefCell<Vec<(DatasetKind, f64, Rc<Scaled>)>>,
    replays: OnceCell<Replays>,
}

impl Ctx {
    /// A context for one run.
    pub fn new(smoke: bool) -> Self {
        Ctx {
            smoke,
            scale: if smoke { SMOKE } else { FULL },
            scaled: RefCell::default(),
            replays: OnceCell::new(),
        }
    }

    /// Worker counts for a learning sweep, capped at the mode's `max_world`.
    pub(crate) fn worlds(&self, full: &[usize]) -> Vec<usize> {
        let mut worlds: Vec<usize> = full.iter().map(|&w| w.min(self.scale.max_world)).collect();
        worlds.dedup();
        worlds
    }

    /// `kind` at `scale` with its synthetic signal, generated once per run.
    pub(crate) fn scaled(&self, kind: DatasetKind, scale: f64) -> Rc<Scaled> {
        let mut cache = self.scaled.borrow_mut();
        if let Some((_, _, hit)) = cache.iter().find(|(k, s, _)| (*k, *s) == (kind, scale)) {
            return hit.clone();
        }
        let spec = DatasetSpec::get(kind).scaled(scale);
        let sig = synthetic::generate(&spec, SEED);
        let made = Rc::new(Scaled { spec, sig });
        cache.push((kind, scale, made.clone()));
        made
    }

    /// The paper-shape virtual replays, run once per run.
    pub(crate) fn replays(&self) -> &Replays {
        self.replays.get_or_init(Replays::new)
    }
}

/// The PGT-DCRNN (hidden 8) that baseline DDP trains. Its data plane hands
/// the factory no dataset view, so `workflow::pgt_dcrnn_factory` (which
/// serves every other runner) is given an index view of the same signal.
pub(crate) fn ddp_model(
    sig: &StaticGraphTemporalSignal,
    time_period: Option<usize>,
    horizon: usize,
) -> Box<dyn Seq2Seq> {
    let view = IndexDataset::from_signal(sig, horizon, SplitRatios::default(), time_period);
    pgt_dcrnn_factory(sig, horizon, 8, SEED)(&view)
}
