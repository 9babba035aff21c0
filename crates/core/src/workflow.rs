//! End-to-end convenience entry points used by the examples and harness.

use crate::dist_index::DistConfig;
use crate::engine::EngineReport;
use crate::index_batching::IndexDataset;
use crate::trainer::{BatchSource, MaterializedDataset, Trainer};
use st_data::datasets::{DatasetKind, DatasetSpec, Domain};
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::SplitRatios;
use st_data::synthetic;
use st_graph::diffusion_supports;
use st_models::{ModelConfig, PgtDcrnn, Seq2Seq, Support};

/// Which batching pipeline to use for a single-GPU run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batching {
    /// Algorithm-1 materialized arrays (the PGT baseline).
    Standard,
    /// Index-batching (this paper).
    Index,
}

/// A fully-prepared single-GPU experiment: model + data + trainer.
pub struct SingleGpuRun {
    /// The generated signal.
    pub signal: StaticGraphTemporalSignal,
    /// The dataset spec the signal was generated from.
    pub spec: DatasetSpec,
    /// The model under training.
    pub model: PgtDcrnn,
    /// The batch source (standard or index).
    pub source: Box<dyn BatchSource>,
    /// Which batching was selected.
    pub batching: Batching,
}

/// Time-of-day period for datasets that get the augmentation.
pub fn time_period(spec: &DatasetSpec) -> Option<usize> {
    match spec.domain {
        Domain::Traffic => Some(spec.period),
        _ => None,
    }
}

/// Prepare a single-GPU experiment on a scaled benchmark dataset.
pub fn prepare_single_gpu(
    kind: DatasetKind,
    scale: f64,
    batching: Batching,
    hidden: usize,
    seed: u64,
) -> SingleGpuRun {
    let spec = DatasetSpec::get(kind).scaled(scale);
    let signal = synthetic::generate(&spec, seed);
    let period = time_period(&spec);
    let supports = Support::wrap_all(diffusion_supports(&signal.adjacency, 2));
    let features = spec.raw_features + usize::from(period.is_some());
    let cfg = ModelConfig {
        input_dim: features,
        output_dim: 1,
        hidden,
        num_nodes: spec.nodes,
        horizon: spec.horizon,
        diffusion_steps: 2,
        layers: 1,
    };
    let model = PgtDcrnn::new(cfg, &supports, seed);
    let source: Box<dyn BatchSource> = match batching {
        Batching::Index => Box::new(IndexDataset::from_signal(
            &signal,
            spec.horizon,
            SplitRatios::default(),
            period,
        )),
        Batching::Standard => {
            let augmented = match period {
                Some(p) => signal.with_time_feature(p),
                None => signal.clone(),
            };
            Box::new(MaterializedDataset::new(
                st_data::preprocess::materialized_xy(
                    &augmented,
                    spec.horizon,
                    SplitRatios::default(),
                ),
            ))
        }
    };
    SingleGpuRun {
        signal,
        spec,
        model,
        source,
        batching,
    }
}

impl SingleGpuRun {
    /// Train with the given epoch/batch settings (shuffle seed 42).
    pub fn train(&self, epochs: usize, batch_size: usize, lr: f32) -> EngineReport {
        let mut cfg = DistConfig::new(1, epochs, self.spec.horizon);
        cfg.batch_per_worker = batch_size;
        cfg.lr = lr;
        Trainer::new(cfg).train(&self.model, self.source.as_ref())
    }

    /// Evaluate test-set MAE (original units), in batches of 32.
    pub fn test_mae(&self) -> f32 {
        let mut cfg = DistConfig::new(1, 0, self.spec.horizon);
        cfg.batch_per_worker = 32;
        Trainer::new(cfg).evaluate(
            &self.model,
            self.source.as_ref(),
            self.source.splits().test.clone(),
        )
    }
}

/// Build a PGT-DCRNN factory closure for the distributed runners, deriving
/// the model from the per-worker dataset view.
pub fn pgt_dcrnn_factory(
    signal: &StaticGraphTemporalSignal,
    horizon: usize,
    hidden: usize,
    seed: u64,
) -> impl Fn(&IndexDataset) -> Box<dyn Seq2Seq> + Sync + '_ {
    move |ds: &IndexDataset| {
        let supports = Support::wrap_all(diffusion_supports(&signal.adjacency, 2));
        let cfg = ModelConfig {
            input_dim: ds.num_features(),
            output_dim: 1,
            hidden,
            num_nodes: ds.num_nodes(),
            horizon,
            diffusion_steps: 2,
            layers: 1,
        };
        Box::new(PgtDcrnn::new(cfg, &supports, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_and_train_both_batchings() {
        for batching in [Batching::Index, Batching::Standard] {
            let run = prepare_single_gpu(DatasetKind::ChickenpoxHungary, 0.3, batching, 8, 7);
            let h = run.train(2, 8, 0.01);
            assert_eq!(h.epochs.len(), 2, "{batching:?}");
            assert!(h.epochs[1].train_loss.is_finite());
            assert!(run.test_mae().is_finite());
        }
    }

    #[test]
    fn both_batchings_learn_equally_well() {
        // Fig 5's claim at miniature scale: equivalent convergence.
        let index = prepare_single_gpu(DatasetKind::ChickenpoxHungary, 0.3, Batching::Index, 8, 7)
            .train(5, 8, 0.01);
        let std = prepare_single_gpu(
            DatasetKind::ChickenpoxHungary,
            0.3,
            Batching::Standard,
            8,
            7,
        )
        .train(5, 8, 0.01);
        let (i, s) = (index.best_val_mae(), std.best_val_mae());
        assert!(
            (i - s).abs() < 0.25 * i.max(s),
            "index {i} vs standard {s} val MAE"
        );
    }

    #[test]
    fn traffic_datasets_get_time_feature() {
        let run = prepare_single_gpu(DatasetKind::PemsBay, 0.01, Batching::Index, 8, 3);
        // Input dim 2 = speed + time-of-day.
        let (x, _) = run.source.get_batch(&[0]);
        assert_eq!(x.dims()[3], 2);
    }
}
