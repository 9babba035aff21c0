//! Model snapshots: the versioned on-disk handoff from training to serving.
//!
//! A [`ModelSnapshot`] bundles everything a serving process needs to answer
//! queries in original units: the trained parameters (as the same
//! `StateDict` the engine's checkpoints capture), the [`ModelConfig`] to
//! rebuild the architecture, the fitted per-feature [`StandardScaler`], and
//! split metadata (time-of-day period, trained epochs). The binary layout
//! is magic-tagged, versioned, and trailed by an FNV-1a checksum so a
//! truncated or bit-flipped file fails loudly at load time — never with
//! silently wrong forecasts.

use st_autograd::checkpoint::{Checkpoint, CheckpointError, StateDict};
use st_autograd::module::{Module, Param};
use st_data::scaler::StandardScaler;
use st_models::{ModelConfig, PgtDcrnn, Support};
use st_tensor::le::{self, Reader, Truncated};

/// Format magic (8 bytes) — bumped on breaking layout changes.
const MAGIC: &[u8; 8] = b"PGTSNAP1";

/// Current format version.
const VERSION: u32 = 1;

/// Errors surfaced by snapshot encode/decode/restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Buffer does not start with the snapshot magic.
    BadMagic,
    /// Format version this build does not understand.
    BadVersion(u32),
    /// Buffer ended mid-record.
    Truncated,
    /// Checksum mismatch: the payload was corrupted.
    Corrupt {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the payload.
        actual: u64,
    },
    /// The parameter state-dict failed to decode, or does not fit the
    /// config.
    State(CheckpointError),
    /// The config describes no model.
    BadConfig(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a PGTSNAP1 snapshot"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt { stored, actual } => write!(
                f,
                "snapshot corrupt: stored checksum {stored:#018x} != computed {actual:#018x}"
            ),
            SnapshotError::State(e) => write!(f, "snapshot state: {e}"),
            SnapshotError::BadConfig(why) => write!(f, "snapshot config: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<Truncated> for SnapshotError {
    fn from(_: Truncated) -> Self {
        SnapshotError::Truncated
    }
}

impl From<CheckpointError> for SnapshotError {
    fn from(e: CheckpointError) -> Self {
        SnapshotError::State(e)
    }
}

/// FNV-1a 64 over a byte slice (integrity check, not cryptographic).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A trained model ready to serve: parameters + architecture + normalizer.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    /// Architecture hyperparameters (rebuilds the model shell).
    pub config: ModelConfig,
    /// The scaler fitted on the training split (per-feature statistics).
    pub scaler: StandardScaler,
    /// Time-of-day augmentation period the training pipeline used, if any.
    pub time_period: Option<usize>,
    /// Epochs the captured parameters were trained for.
    pub trained_epochs: u64,
    /// Trained parameters (position-prefixed names, like engine
    /// checkpoints).
    pub params: StateDict,
}

impl ModelSnapshot {
    /// Capture a snapshot from live parameters.
    pub fn capture(
        config: ModelConfig,
        scaler: StandardScaler,
        time_period: Option<usize>,
        params: &[Param],
        trained_epochs: u64,
    ) -> Self {
        ModelSnapshot {
            config,
            scaler,
            time_period,
            trained_epochs,
            params: StateDict::from_params(params),
        }
    }

    /// Build a snapshot from an engine training [`Checkpoint`] (the bytes
    /// `EngineOptions::capture_checkpoint` hands back): the checkpoint's
    /// model section becomes the served parameters and its epoch marker the
    /// training-progress stamp. Optimizer moments are deliberately dropped
    /// — serving never steps.
    pub fn from_checkpoint(
        ck: &Checkpoint,
        config: ModelConfig,
        scaler: StandardScaler,
        time_period: Option<usize>,
    ) -> Self {
        ModelSnapshot {
            config,
            scaler,
            time_period,
            trained_epochs: ck.epoch,
            params: ck.model.clone(),
        }
    }

    /// Check, before anything is built from the config, that the state dict
    /// holds exactly the entries [`PgtDcrnn::new`] gives it: per gate a
    /// `[(2K − 1)·(in + hidden), hidden]` weight (one row block per
    /// diffusion support) and a bias, then the output projection.
    /// Allocates nothing config-sized. `diffusion_steps = 0` is
    /// [`SnapshotError::BadConfig`].
    pub(crate) fn check_params(&self) -> Result<(), SnapshotError> {
        let c = &self.config;
        if c.diffusion_steps == 0 {
            return Err(SnapshotError::BadConfig("diffusion_steps is 0"));
        }
        // Saturating: an overflowing dimension matches no decoded tensor.
        let supports = c.diffusion_steps.saturating_mul(2) - 1;
        let rows = supports.saturating_mul(c.input_dim.saturating_add(c.hidden));
        let gate = |g| {
            [
                (format!("cell.{g}.w"), vec![rows, c.hidden]),
                (format!("cell.{g}.b"), vec![c.hidden]),
            ]
        };
        let out = [
            ("out.w".into(), vec![c.hidden, c.output_dim]),
            ("out.b".into(), vec![c.output_dim]),
        ];
        let params = ["r", "u", "c"].into_iter().flat_map(gate).chain(out);
        let expected = params
            .enumerate()
            .map(|(i, (name, dims))| (format!("{i}.pgt.{name}"), dims));
        Ok(self.params.check_fits(expected)?)
    }

    /// Rebuild a ready-to-serve PGT-DCRNN: check the parameters against
    /// the stored config, construct the shell from it over `supports` (the
    /// graph's diffusion supports for this config's K, built once by the
    /// caller and shared), then overwrite every parameter with the trained
    /// values. The init seed is irrelevant — all parameters are replaced —
    /// so restored replicas are bit-identical across shards.
    pub fn build_pgt_dcrnn(&self, supports: &[Support]) -> Result<PgtDcrnn, SnapshotError> {
        self.check_params()?;
        let model = PgtDcrnn::new(self.config.clone(), supports, 0);
        self.params.apply_to_params(&model.params())?;
        Ok(model)
    }

    /// Serialize to the versioned, checksummed binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let params = self.params.to_bytes();
        let mut buf = Vec::with_capacity(params.len() + 128);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        for v in [
            self.config.input_dim,
            self.config.output_dim,
            self.config.hidden,
            self.config.num_nodes,
            self.config.horizon,
            self.config.diffusion_steps,
            self.config.layers,
            self.time_period.unwrap_or(0),
        ] {
            buf.extend_from_slice(&(v as u64).to_le_bytes());
        }
        buf.extend_from_slice(&self.trained_epochs.to_le_bytes());
        let stats = self.scaler.feature_stats();
        let count = u32::try_from(stats.len()).expect("feature count fits the u32 field");
        buf.extend_from_slice(&count.to_le_bytes());
        for &(m, s) in stats {
            buf.extend_from_slice(&m.to_le_bytes());
            buf.extend_from_slice(&s.to_le_bytes());
        }
        buf.extend_from_slice(&(params.len() as u64).to_le_bytes());
        buf.extend_from_slice(&params);
        let checksum = fnv1a(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Deserialize, verifying magic, version, and checksum.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, SnapshotError> {
        // Checksum covers everything before the trailing u64.
        let mut file = Reader::new(buf);
        let payload = file.take(buf.len().saturating_sub(8))?;
        let mut r = Reader::new(payload);
        if r.take(MAGIC.len()) != Ok(MAGIC) {
            return Err(SnapshotError::BadMagic);
        }
        let stored = file.u64()?;
        let actual = fnv1a(payload);
        if stored != actual {
            return Err(SnapshotError::Corrupt { stored, actual });
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let config = ModelConfig {
            input_dim: r.size()?,
            output_dim: r.size()?,
            hidden: r.size()?,
            num_nodes: r.size()?,
            horizon: r.size()?,
            diffusion_steps: r.size()?,
            layers: r.size()?,
        };
        let time_period = Some(r.size()?).filter(|&p| p != 0);
        let trained_epochs = r.u64()?;
        let count = r.u32()? as usize;
        if count == 0 {
            return Err(SnapshotError::Truncated);
        }
        let stats = r.f32s(le::numel(&[count, 2])?)?;
        let scaler = StandardScaler::from_feature_stats(
            stats.chunks_exact(2).map(|p| (p[0], p[1])).collect(),
        );
        let params_len = r.size()?;
        let params = StateDict::from_bytes(r.take(params_len)?)?;
        Ok(ModelSnapshot {
            config,
            scaler,
            time_period,
            trained_epochs,
            params,
        })
    }

    /// Write to a file.
    ///
    /// Round-trips bit-exactly through [`ModelSnapshot::load`]:
    ///
    /// ```
    /// use st_autograd::module::Param;
    /// use st_data::scaler::StandardScaler;
    /// use st_models::ModelConfig;
    /// use st_serve::ModelSnapshot;
    /// use st_tensor::Tensor;
    ///
    /// let config = ModelConfig {
    ///     input_dim: 1, output_dim: 1, hidden: 2, num_nodes: 4,
    ///     horizon: 3, diffusion_steps: 2, layers: 1,
    /// };
    /// let params = vec![Param::new("w", Tensor::arange(4))];
    /// let snap = ModelSnapshot::capture(
    ///     config, StandardScaler::identity(), None, &params, 5);
    ///
    /// let path = std::env::temp_dir().join("pgt_snapshot_doctest.bin");
    /// snap.save(&path)?;
    /// let loaded = ModelSnapshot::load(&path)?;
    /// assert_eq!(loaded.trained_epochs, 5);
    /// assert_eq!(loaded.params.to_bytes(), snap.params.to_bytes());
    /// # std::fs::remove_file(&path).ok();
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Read from a file, verifying integrity (the checksum and layout
    /// checks of `ModelSnapshot::from_bytes` surface as
    /// [`std::io::ErrorKind::InvalidData`]):
    ///
    /// ```
    /// use st_serve::ModelSnapshot;
    ///
    /// let path = std::env::temp_dir().join("pgt_snapshot_doctest_bad.bin");
    /// std::fs::write(&path, b"not a snapshot")?;
    /// let err = ModelSnapshot::load(&path).unwrap_err();
    /// assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    /// # std::fs::remove_file(&path).ok();
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let data = std::fs::read(path)?;
        ModelSnapshot::from_bytes(&data)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::diffusion_supports;
    use st_tensor::Tensor;

    fn toy_snapshot() -> ModelSnapshot {
        let params = vec![
            Param::new(
                "w",
                Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], [2, 2]).unwrap(),
            ),
            Param::new("b", Tensor::from_slice(&[0.25])),
        ];
        ModelSnapshot::capture(
            ModelConfig::small(7, 2, 4),
            StandardScaler::from_feature_stats(vec![(60.0, 9.5), (0.5, 0.29)]),
            Some(288),
            &params,
            5,
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = toy_snapshot();
        let back = ModelSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back.config.num_nodes, 7);
        assert_eq!(back.config.horizon, 4);
        assert_eq!(back.time_period, Some(288));
        assert_eq!(back.trained_epochs, 5);
        assert_eq!(back.scaler, snap.scaler);
        assert_eq!(back.params.len(), 2);
        for (name, t) in snap.params.iter() {
            assert_eq!(back.params.get(name).unwrap().to_vec(), t.to_vec());
        }
    }

    #[test]
    fn bit_flip_fails_checksum() {
        let snap = toy_snapshot();
        let mut bytes = snap.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            ModelSnapshot::from_bytes(&bytes),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncation_and_garbage_are_loud() {
        let snap = toy_snapshot();
        let bytes = snap.to_bytes();
        // Truncation invalidates the trailing checksum.
        assert!(ModelSnapshot::from_bytes(&bytes[..bytes.len() - 5]).is_err());
        assert!(matches!(
            ModelSnapshot::from_bytes(b"definitely not a snapshot file"),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn file_roundtrip() {
        let snap = toy_snapshot();
        let dir = std::env::temp_dir().join("pgt_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.snap");
        snap.save(&path).unwrap();
        let loaded = ModelSnapshot::load(&path).unwrap();
        assert_eq!(loaded.trained_epochs, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restored_replicas_are_bit_identical() {
        // Two independent rebuilds from one snapshot must agree parameter
        // by parameter — the invariant sharded serving relies on.
        let net = st_graph::generators::highway_corridor(7, 1, 3);
        let supports = Support::wrap_all(diffusion_supports(&net.adjacency, 2));
        let cfg = ModelConfig::small(7, 2, 4);
        let trained = PgtDcrnn::new(cfg.clone(), &supports, 99);
        let snap =
            ModelSnapshot::capture(cfg, StandardScaler::identity(), None, &trained.params(), 1);
        let a = snap.build_pgt_dcrnn(&supports).unwrap();
        let b = snap.build_pgt_dcrnn(&supports).unwrap();
        for ((pa, pb), pt) in a
            .params()
            .iter()
            .zip(b.params().iter())
            .zip(trained.params().iter())
        {
            assert_eq!(pa.value().to_vec(), pb.value().to_vec());
            assert_eq!(pa.value().to_vec(), pt.value().to_vec());
        }
    }

    /// `check_params` derives the parameter list without building a model:
    /// it must accept every real model's parameters exactly, at K = 1
    /// (one support) and above, and refuse them under another config.
    #[test]
    fn check_params_accepts_exactly_the_models_parameters() {
        let net = st_graph::generators::highway_corridor(7, 1, 3);
        for k in 1..=3 {
            let supports = Support::wrap_all(diffusion_supports(&net.adjacency, k));
            let cfg = ModelConfig {
                diffusion_steps: k,
                hidden: 3,
                output_dim: 2,
                ..ModelConfig::small(7, 2, 4)
            };
            let params = PgtDcrnn::new(cfg.clone(), &supports, 5).params();
            let snap = ModelSnapshot::capture(cfg, StandardScaler::identity(), None, &params, 1);
            assert_eq!(snap.check_params(), Ok(()), "K = {k}");
            for tamper in [
                |c: &mut ModelConfig| c.diffusion_steps += 1,
                |c: &mut ModelConfig| c.hidden += 1,
                |c: &mut ModelConfig| c.output_dim = 1,
                |c: &mut ModelConfig| c.diffusion_steps = 0,
            ] {
                let mut bad = snap.clone();
                tamper(&mut bad.config);
                assert!(bad.check_params().is_err(), "K = {k}: {:?}", bad.config);
            }
            let mut extra = snap.clone();
            extra.params.insert("8.stray", Tensor::zeros([1]));
            assert!(matches!(
                extra.check_params(),
                Err(SnapshotError::State(CheckpointError::MissingEntry(_)))
            ));
        }
    }

    #[test]
    fn wrong_architecture_rejects_params() {
        let snap = toy_snapshot();
        let net = st_graph::generators::highway_corridor(7, 1, 3);
        let supports = Support::wrap_all(diffusion_supports(&net.adjacency, 2));
        // Tamper the config so shapes no longer line up with the stored
        // state dict (toy params aren't a real DCRNN state dict anyway).
        assert!(snap.build_pgt_dcrnn(&supports).is_err());
    }
}
