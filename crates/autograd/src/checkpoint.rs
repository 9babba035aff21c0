//! Checkpointing: binary state dicts for models and optimizers.
//!
//! Long distributed runs need resumable state: the paper's 30-epoch PeMS
//! runs burn hundreds of node-minutes, and a production integration of
//! PGT-I must survive job preemption. This module provides a compact,
//! versioned binary format for parameter tensors and Adam moments
//! (little-endian, decoded through [`st_tensor::le`]), with strict
//! name/shape checking on restore — loading a Chickenpox checkpoint into a
//! PeMS model fails loudly, not silently.
//!
//! In DDP settings only rank 0 writes the checkpoint (replicas are
//! bit-identical by construction); every rank restores the same file, which
//! preserves the replica-equality invariant.

use crate::module::Param;
use crate::optim::Adam;
use st_tensor::le::{self, Reader, Truncated};
use st_tensor::Tensor;
use std::collections::BTreeMap;

/// Format magic (8 bytes) — bumped on breaking layout changes.
const MAGIC: &[u8; 8] = b"PGTCKPT1";

/// Errors surfaced by checkpoint encode/decode/restore.
#[derive(Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Buffer does not start with the expected magic/version.
    BadMagic,
    /// Buffer ended mid-record.
    Truncated,
    /// A stored string was not valid UTF-8.
    BadString,
    /// Restore target is missing an entry the checkpoint has, or vice versa.
    MissingEntry(String),
    /// Entry exists but with a different shape.
    ShapeMismatch {
        /// Entry name.
        name: String,
        /// Shape in the checkpoint.
        stored: Vec<usize>,
        /// Shape in the live model.
        expected: Vec<usize>,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a PGTCKPT1 checkpoint"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadString => write!(f, "invalid UTF-8 in checkpoint"),
            CheckpointError::MissingEntry(n) => write!(f, "missing entry: {n}"),
            CheckpointError::ShapeMismatch {
                name,
                stored,
                expected,
            } => write!(
                f,
                "shape mismatch for {name}: checkpoint {stored:?} vs model {expected:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<Truncated> for CheckpointError {
    fn from(_: Truncated) -> Self {
        CheckpointError::Truncated
    }
}

/// Consume the format magic from the front of `r`.
fn expect_magic(r: &mut Reader<'_>) -> Result<(), CheckpointError> {
    match r.take(MAGIC.len()) {
        Ok(magic) if magic == MAGIC => Ok(()),
        _ => Err(CheckpointError::BadMagic),
    }
}

/// An ordered name → tensor map (the PyTorch `state_dict` analogue).
#[derive(Debug, Clone, Default)]
pub struct StateDict {
    entries: BTreeMap<String, Tensor>,
}

impl StateDict {
    /// Empty dict.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (replacing) an entry.
    pub fn insert(&mut self, name: impl Into<String>, value: Tensor) {
        self.entries.insert(name.into(), value.contiguous());
    }

    /// Look up an entry.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries.get(name)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Tensor)> {
        self.entries.iter()
    }

    /// Capture a parameter list. Names are prefixed with the parameter's
    /// position (`"3.gru_w"`) so repeated layer names stay unique and
    /// ordering mismatches are caught on restore.
    pub fn from_params(params: &[Param]) -> Self {
        let mut d = StateDict::new();
        for (i, p) in params.iter().enumerate() {
            d.insert(format!("{i}.{}", p.name()), p.value());
        }
        d
    }

    /// Restore into a parameter list (strict: same count, names, shapes).
    pub fn apply_to_params(&self, params: &[Param]) -> Result<(), CheckpointError> {
        for (i, p) in params.iter().enumerate() {
            let key = format!("{i}.{}", p.name());
            let stored = self
                .entries
                .get(&key)
                .ok_or_else(|| CheckpointError::MissingEntry(key.clone()))?;
            if stored.dims() != p.value().dims() {
                return Err(CheckpointError::ShapeMismatch {
                    name: key,
                    stored: stored.dims().to_vec(),
                    expected: p.value().dims().to_vec(),
                });
            }
        }
        if self.entries.len() != params.len() {
            let live: std::collections::BTreeSet<String> = params
                .iter()
                .enumerate()
                .map(|(i, p)| format!("{i}.{}", p.name()))
                .collect();
            let extra = self
                .entries
                .keys()
                .find(|k| !live.contains(*k))
                .cloned()
                .unwrap_or_default();
            return Err(CheckpointError::MissingEntry(format!(
                "checkpoint entry {extra} has no matching parameter"
            )));
        }
        for (i, p) in params.iter().enumerate() {
            let key = format!("{i}.{}", p.name());
            p.set_value(self.entries[&key].clone());
        }
        Ok(())
    }

    /// Capture Adam state (`t` plus first/second moments per parameter).
    pub fn from_adam(opt: &Adam) -> Self {
        let (t, m, v) = opt.export_state();
        let mut d = StateDict::new();
        d.insert("adam.t", Tensor::scalar(t as f32));
        for (i, mt) in m.iter().enumerate() {
            if let Some(mt) = mt {
                d.insert(format!("adam.m.{i}"), mt.clone());
            }
        }
        for (i, vt) in v.iter().enumerate() {
            if let Some(vt) = vt {
                d.insert(format!("adam.v.{i}"), vt.clone());
            }
        }
        d
    }

    /// Restore Adam state captured by [`StateDict::from_adam`].
    pub fn apply_to_adam(&self, opt: &mut Adam) -> Result<(), CheckpointError> {
        let t = self
            .entries
            .get("adam.t")
            .ok_or_else(|| CheckpointError::MissingEntry("adam.t".into()))?
            .item() as u64;
        let n = opt.num_params();
        let mut m = vec![None; n];
        let mut v = vec![None; n];
        for i in 0..n {
            m[i] = self.entries.get(&format!("adam.m.{i}")).cloned();
            v[i] = self.entries.get(&format!("adam.v.{i}")).cloned();
        }
        opt.import_state(t, m, v);
        Ok(())
    }

    /// Serialize to the binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        let count = u32::try_from(self.entries.len()).expect("entry count fits the u32 field");
        buf.extend_from_slice(&count.to_le_bytes());
        for (name, tensor) in &self.entries {
            let name_len = u16::try_from(name.len()).expect("entry name fits the u16 field");
            buf.extend_from_slice(&name_len.to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
            buf.push(u8::try_from(tensor.rank()).expect("rank fits the u8 field"));
            for &d in tensor.dims() {
                buf.extend_from_slice(&(d as u64).to_le_bytes());
            }
            let values = tensor.as_slice().expect("entries are stored contiguous");
            buf.reserve(values.len() * 4);
            for v in values {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf
    }

    /// Deserialize from the binary format.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(buf);
        expect_magic(&mut r)?;
        let count = r.u32()?;
        let mut d = StateDict::new();
        for _ in 0..count {
            let name_len = usize::from(r.u16()?);
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|_| CheckpointError::BadString)?
                .to_string();
            let rank = r.u8()?;
            // Grows one extent per successful 8-byte read, never by `rank`.
            let dims = (0..rank).map(|_| r.size()).collect::<Result<Vec<_>, _>>()?;
            let data = r.f32s(le::numel(&dims)?)?;
            let tensor = Tensor::from_vec(data, dims).map_err(|_| CheckpointError::Truncated)?;
            d.entries.insert(name, tensor);
        }
        Ok(d)
    }
}

/// A full training checkpoint: model + optimizer + progress marker.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    /// Model parameters.
    pub model: StateDict,
    /// Optimizer state (empty when not captured).
    pub optimizer: StateDict,
    /// Next epoch to run.
    pub epoch: u64,
}

impl Checkpoint {
    /// Capture model + Adam + progress.
    pub fn capture(params: &[Param], opt: &Adam, epoch: u64) -> Self {
        Checkpoint {
            model: StateDict::from_params(params),
            optimizer: StateDict::from_adam(opt),
            epoch,
        }
    }

    /// Restore into model + Adam; returns the next epoch to run.
    pub fn restore(&self, params: &[Param], opt: &mut Adam) -> Result<u64, CheckpointError> {
        self.model.apply_to_params(params)?;
        self.optimizer.apply_to_adam(opt)?;
        Ok(self.epoch)
    }

    /// Serialize (sections are length-prefixed state dicts).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        for section in [self.model.to_bytes(), self.optimizer.to_bytes()] {
            buf.extend_from_slice(&(section.len() as u64).to_le_bytes());
            buf.extend_from_slice(&section);
        }
        buf
    }

    /// Deserialize.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(buf);
        expect_magic(&mut r)?;
        let epoch = r.u64()?;
        let mut section = || -> Result<StateDict, CheckpointError> {
            let len = r.size()?;
            StateDict::from_bytes(r.take(len)?)
        };
        Ok(Checkpoint {
            model: section()?,
            optimizer: section()?,
            epoch,
        })
    }

    /// Write to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Read from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let data = std::fs::read(path)?;
        Checkpoint::from_bytes(&data)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Optimizer;

    fn params() -> Vec<Param> {
        vec![
            Param::new(
                "w",
                Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap(),
            ),
            Param::new("b", Tensor::from_slice(&[0.5, -0.5])),
        ]
    }

    #[test]
    fn state_dict_roundtrips_bitwise() {
        let ps = params();
        let d = StateDict::from_params(&ps);
        let restored = StateDict::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(d.len(), restored.len());
        for (name, t) in d.iter() {
            assert_eq!(t.to_vec(), restored.get(name).unwrap().to_vec(), "{name}");
            assert_eq!(t.dims(), restored.get(name).unwrap().dims(), "{name}");
        }
    }

    #[test]
    fn apply_restores_values() {
        let ps = params();
        let d = StateDict::from_params(&ps);
        // Perturb, then restore.
        ps[0].set_value(Tensor::zeros([2, 2]));
        d.apply_to_params(&ps).unwrap();
        assert_eq!(ps[0].value().to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn shape_mismatch_is_loud() {
        let ps = params();
        let d = StateDict::from_params(&ps);
        let other = vec![
            Param::new("w", Tensor::zeros([3, 2])),
            Param::new("b", Tensor::zeros([2])),
        ];
        match d.apply_to_params(&other) {
            Err(CheckpointError::ShapeMismatch { name, .. }) => assert_eq!(name, "0.w"),
            r => panic!("expected shape mismatch, got {r:?}"),
        }
    }

    #[test]
    fn missing_entry_is_loud() {
        let ps = params();
        let d = StateDict::from_params(&ps);
        let other = vec![Param::new("x", Tensor::zeros([2, 2]))];
        assert!(matches!(
            d.apply_to_params(&other),
            Err(CheckpointError::MissingEntry(_))
        ));
    }

    #[test]
    fn corrupt_buffers_are_rejected() {
        assert_eq!(
            StateDict::from_bytes(b"not a checkpoint").unwrap_err(),
            CheckpointError::BadMagic
        );
        let ps = params();
        let good = StateDict::from_params(&ps).to_bytes();
        let truncated = &good[..good.len() - 3];
        assert_eq!(
            StateDict::from_bytes(truncated).unwrap_err(),
            CheckpointError::Truncated
        );
        // One entry "w" whose extents overflow `usize`. Unchecked, the
        // 40-byte file's [2⁶³+1, 2] wraps to the two floats present and is
        // accepted under a shape claiming 2⁶⁴+2 elements; the 24-byte
        // file's [2⁶²] wraps `numel · 4` to the zero bytes present.
        let entry = |dims: &[u64], floats: usize| {
            let mut b = MAGIC.to_vec();
            b.extend_from_slice(&1u32.to_le_bytes());
            b.extend_from_slice(&1u16.to_le_bytes());
            b.push(b'w');
            b.push(dims.len() as u8);
            b.extend(dims.iter().flat_map(|d| d.to_le_bytes()));
            b.resize(b.len() + floats * 4, 0);
            b
        };
        for (crafted, len) in [
            (entry(&[(1 << 63) + 1, 2], 2), 40),
            (entry(&[1 << 62], 0), 24),
        ] {
            assert_eq!(crafted.len(), len);
            assert_eq!(
                StateDict::from_bytes(&crafted).unwrap_err(),
                CheckpointError::Truncated
            );
        }
    }

    #[test]
    fn full_checkpoint_resumes_adam_exactly() {
        // Train a tiny quadratic for 3 steps, checkpoint, train 2 more;
        // resuming from the checkpoint must reproduce those 2 steps exactly
        // (same Adam moments ⇒ same trajectory).
        let run = |resume_from: Option<&Checkpoint>| -> (Vec<f32>, Checkpoint) {
            let p = Param::new("w", Tensor::from_slice(&[4.0, -3.0]));
            let mut opt = Adam::new(vec![p.clone()], 0.1);
            let mut start = 0;
            if let Some(ck) = resume_from {
                start = ck.restore(std::slice::from_ref(&p), &mut opt).unwrap();
            }
            for _ in start..5 {
                // d/dw (w²/2) = w
                opt.zero_grad();
                p.set_grad(Some(p.value()));
                opt.step();
            }
            (p.value().to_vec(), Checkpoint::capture(&[p], &opt, 3))
        };
        // Uninterrupted run.
        let (direct, _) = run(None);
        // Interrupted: run 3 steps, capture, then resume.
        let p = Param::new("w", Tensor::from_slice(&[4.0, -3.0]));
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        for _ in 0..3 {
            opt.zero_grad();
            p.set_grad(Some(p.value()));
            opt.step();
        }
        let ck = Checkpoint::capture(&[p], &opt, 3);
        let bytes = ck.to_bytes();
        let ck2 = Checkpoint::from_bytes(&bytes).unwrap();
        let (resumed, _) = run(Some(&ck2));
        assert_eq!(direct, resumed, "resume must be bit-exact");
    }

    #[test]
    fn checkpoint_file_roundtrip() {
        let ps = params();
        let opt = Adam::new(ps.clone(), 0.01);
        let ck = Checkpoint::capture(&ps, &opt, 7);
        let dir = std::env::temp_dir().join("pgt_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        ck.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.epoch, 7);
        assert_eq!(loaded.model.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scalar_entries_roundtrip() {
        let mut d = StateDict::new();
        d.insert("t", Tensor::scalar(42.0));
        let r = StateDict::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(r.get("t").unwrap().item(), 42.0);
    }
}
