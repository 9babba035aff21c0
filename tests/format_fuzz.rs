//! Mutation tests over the two binary formats — `PGTCKPT1` state dicts
//! and checkpoints, and `PGTSNAP1` snapshots.
//!
//! Exhaustive and deterministic: every proper prefix, every single-bit flip
//! and every size field overwritten with a set of hostile values, for one
//! small valid encoding of each format. A decoder passes when it returns —
//! `Err` of its typed error, or a value that re-encodes to no more bytes
//! than it was given (it cannot have sized anything by a count the input
//! does not back). A panic fails the test; an allocation sized by a wrapped
//! or unchecked count aborts the test binary, which is the gate. CI runs
//! this file in both profiles: overflow panics in debug and wraps in
//! release, so a parser is only checked when both have run it.

use pgt_i::autograd::checkpoint::{Checkpoint, StateDict};
use pgt_i::autograd::module::Param;
use pgt_i::autograd::optim::Adam;
use pgt_i::data::scaler::StandardScaler;
use pgt_i::models::ModelConfig;
use pgt_i::serve::ModelSnapshot;
use pgt_i::tensor::le::Reader;
use pgt_i::tensor::Tensor;

/// Values written over every size field, truncated to the field's width.
const HOSTILE: [u64; 8] = [
    0,
    1,
    1 << 16,
    1 << 31,
    (1 << 32) - 1,
    1 << 62,
    (1 << 63) + 1,
    u64::MAX,
];

/// One format under test.
struct Format {
    name: &'static str,
    /// A valid encoding.
    valid: Vec<u8>,
    /// Decode, check the value's shapes against its storage and re-encode
    /// it; the error is the typed error's text.
    decode: fn(&[u8]) -> Result<Vec<u8>, String>,
    /// `(offset, width)` of every count / length / extent field in `valid`.
    fields: Vec<(usize, usize)>,
    /// Whether the last eight bytes are an FNV-1a trailer over the rest,
    /// which a field mutation must recompute to reach the body.
    sealed: bool,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn state_dict() -> StateDict {
    let mut d = StateDict::new();
    d.insert("t", Tensor::scalar(3.0));
    d.insert("bias", Tensor::from_slice(&[0.5, -1.25, 2.0]));
    d.insert("w", Tensor::arange(12).reshape([2, 3, 2]).unwrap());
    d
}

fn checkpoint() -> Checkpoint {
    let params = vec![
        Param::new("w", Tensor::arange(4).reshape([2, 2]).unwrap()),
        Param::new("b", Tensor::from_slice(&[0.25, -0.75])),
    ];
    let mut opt = Adam::new(params.clone(), 0.01);
    opt.import_state(
        2,
        vec![Some(Tensor::ones([2, 2])), Some(Tensor::ones([2]))],
        vec![Some(Tensor::ones([2, 2])), Some(Tensor::ones([2]))],
    );
    Checkpoint::capture(&params, &opt, 7)
}

fn snapshot() -> ModelSnapshot {
    ModelSnapshot {
        config: ModelConfig::small(7, 2, 4),
        scaler: StandardScaler::from_feature_stats(vec![(60.0, 9.5), (0.5, 0.29)]),
        time_period: Some(288),
        trained_epochs: 5,
        params: state_dict(),
    }
}

/// Every decoded tensor holds exactly the elements its shape claims. The
/// claim is multiplied out in `u128`: a product that wrapped in `usize`
/// and so "matched" the few floats present is the defect being hunted.
fn honest(dict: &StateDict) {
    for (name, t) in dict.iter() {
        let claimed = t
            .dims()
            .iter()
            .fold(1u128, |n, &d| n.saturating_mul(d as u128));
        assert_eq!(claimed, t.to_vec().len() as u128, "{name}: {:?}", t.dims());
    }
}

fn decode_dict(b: &[u8]) -> Result<Vec<u8>, String> {
    let dict = StateDict::from_bytes(b).map_err(|e| e.to_string())?;
    honest(&dict);
    Ok(dict.to_bytes())
}

fn decode_checkpoint(b: &[u8]) -> Result<Vec<u8>, String> {
    let ck = Checkpoint::from_bytes(b).map_err(|e| e.to_string())?;
    honest(&ck.model);
    honest(&ck.optimizer);
    Ok(ck.to_bytes())
}

fn decode_snapshot(b: &[u8]) -> Result<Vec<u8>, String> {
    let snap = ModelSnapshot::from_bytes(b).map_err(|e| e.to_string())?;
    honest(&snap.params);
    Ok(snap.to_bytes())
}

/// Size fields of a valid state dict that starts `base` bytes into its
/// file: entry count, then per entry name length, rank and extents.
fn dict_fields(dict: &[u8], base: usize) -> Vec<(usize, usize)> {
    let mut r = Reader::new(dict);
    let mut fields = Vec::new();
    let mut field = |r: &Reader, width| fields.push((base + dict.len() - r.remaining(), width));
    r.take(8).unwrap();
    field(&r, 4);
    for _ in 0..r.u32().unwrap() {
        field(&r, 2);
        let name_len = r.u16().unwrap();
        r.take(name_len.into()).unwrap();
        field(&r, 1);
        let mut numel = 1;
        for _ in 0..r.u8().unwrap() {
            field(&r, 8);
            numel *= r.size().unwrap();
        }
        r.f32s(numel).unwrap();
    }
    assert_eq!(r.remaining(), 0, "the walk covers the whole dict");
    fields
}

fn formats() -> Vec<Format> {
    let dict = state_dict().to_bytes();
    let dict_format = Format {
        name: "PGTCKPT1 state dict",
        fields: dict_fields(&dict, 0),
        valid: dict.clone(),
        decode: decode_dict,
        sealed: false,
    };

    // magic 8 | epoch 8 | model length 8 | model | optimizer length 8 | optimizer
    let ck = checkpoint();
    let (model, optimizer) = (ck.model.to_bytes(), ck.optimizer.to_bytes());
    let mut fields = vec![(16, 8), (24 + model.len(), 8)];
    fields.extend(dict_fields(&model, 24));
    fields.extend(dict_fields(&optimizer, 32 + model.len()));
    let checkpoint_format = Format {
        name: "PGTCKPT1 checkpoint",
        valid: ck.to_bytes(),
        decode: decode_checkpoint,
        fields,
        sealed: false,
    };

    // magic 8 | version 4 | 7 config extents + time period, 8 each | epochs 8
    // | feature count 4 | (mean, std) 8 each | params length 8 | params | fnv 8
    let stats_at = 8 + 4 + 8 * 8 + 8;
    let params_at = stats_at + 4 + 2 * 8;
    let mut fields: Vec<(usize, usize)> = (0..8).map(|i| (12 + 8 * i, 8)).collect();
    fields.extend([(stats_at, 4), (params_at, 8)]);
    fields.extend(dict_fields(&dict, params_at + 8));
    let snapshot_format = Format {
        name: "PGTSNAP1 snapshot",
        valid: snapshot().to_bytes(),
        decode: decode_snapshot,
        fields,
        sealed: true,
    };

    vec![dict_format, checkpoint_format, snapshot_format]
}

impl Format {
    /// Decode `bytes`; an accepted value must fit in what it was decoded
    /// from.
    fn check(&self, bytes: &[u8], what: std::fmt::Arguments<'_>) -> Result<(), String> {
        let reencoded = (self.decode)(bytes)?;
        assert!(
            reencoded.len() <= bytes.len(),
            "{}: {what} decoded to a value of {} bytes from {} bytes of input",
            self.name,
            reencoded.len(),
            bytes.len()
        );
        Ok(())
    }
}

#[test]
fn valid_encodings_round_trip_and_the_field_tables_point_at_sizes() {
    for f in formats() {
        assert_eq!((f.decode)(&f.valid).as_ref(), Ok(&f.valid), "{}", f.name);
        assert!(
            f.valid.len() < 400,
            "{}: keep the exhaustive loops small",
            f.name
        );
        for &(at, width) in &f.fields {
            // Every table entry holds a small number in the valid file: a
            // misplaced offset would land on float bits or a name.
            let mut word = [0u8; 8];
            word[..width].copy_from_slice(&f.valid[at..at + width]);
            let value = u64::from_le_bytes(word);
            assert!(value <= 400, "{}: field at {at} holds {value}", f.name);
        }
    }
}

#[test]
fn every_proper_prefix_is_a_typed_error() {
    for f in formats() {
        for k in 0..f.valid.len() {
            let result = f.check(&f.valid[..k], format_args!("prefix {k}"));
            assert!(
                result.is_err(),
                "{}: prefix of {k} bytes was accepted",
                f.name
            );
        }
    }
}

#[test]
fn every_single_bit_flip_is_an_error_or_a_value_that_fits() {
    for f in formats() {
        let mut bytes = f.valid.clone();
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            let result = f.check(&bytes, format_args!("bit {bit} flipped"));
            // FNV-1a's steps are bijections of its state, so no single
            // flipped bit survives the trailer.
            assert!(
                !(f.sealed && result.is_ok()),
                "{}: bit {bit} flipped and the checksum held",
                f.name
            );
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

#[test]
fn every_size_field_survives_hostile_values() {
    for f in formats() {
        for &(at, width) in &f.fields {
            for value in HOSTILE {
                let mut bytes = f.valid.clone();
                bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                if f.sealed {
                    let body = bytes.len() - 8;
                    let trailer = fnv1a(&bytes[..body]);
                    bytes[body..].copy_from_slice(&trailer.to_le_bytes());
                }
                // Err or a fitting value: both are fine, a panic or an
                // abort is not.
                let _ = f.check(&bytes, format_args!("field at {at} set to {value:#x}"));
            }
        }
    }
}
