//! Pinned bytes of the two binary formats other builds must keep reading:
//! `PGTCKPT1` (state dicts and checkpoints) and `PGTSNAP1` (model
//! snapshots). Each fixture is built from literal values — no RNG, no
//! optimizer arithmetic — and its encoding is held to a length and an
//! FNV-1a digest recorded at `c8bf885`, before the parsers were rewritten.
//! A mismatch means a file written by an older build no longer loads: that
//! is a format bump (new magic), never a constant to re-paste.

use pgt_i::autograd::checkpoint::{Checkpoint, StateDict};
use pgt_i::autograd::module::Param;
use pgt_i::autograd::optim::Adam;
use pgt_i::data::scaler::StandardScaler;
use pgt_i::models::ModelConfig;
use pgt_i::serve::ModelSnapshot;
use pgt_i::tensor::Tensor;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A rank-0, a rank-1 and a rank-3 entry, with values that exercise sign,
/// a subnormal and non-trivial mantissas.
fn fixed_state_dict() -> StateDict {
    let mut d = StateDict::new();
    d.insert("scalar", Tensor::scalar(-0.375));
    d.insert("bias", Tensor::from_slice(&[0.5, -1.25, 1.0e-40]));
    let cube: Vec<f32> = (0..12).map(|i| (i as f32 - 5.5) / 3.0).collect();
    d.insert("gru.w", Tensor::from_vec(cube, [2, 3, 2]).unwrap());
    d
}

fn fixed_checkpoint() -> Checkpoint {
    let params = vec![
        Param::new(
            "w",
            Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], [2, 2]).unwrap(),
        ),
        Param::new("b", Tensor::from_slice(&[0.25, -0.75])),
    ];
    let mut opt = Adam::new(params.clone(), 0.01);
    // Moments are imported, not stepped to: the pin is on the encoder.
    opt.import_state(
        3,
        vec![
            Some(Tensor::from_vec(vec![0.1, -0.2, 0.3, -0.4], [2, 2]).unwrap()),
            Some(Tensor::from_slice(&[0.05, -0.06])),
        ],
        vec![
            Some(Tensor::from_vec(vec![0.01, 0.04, 0.09, 0.16], [2, 2]).unwrap()),
            Some(Tensor::from_slice(&[0.0025, 0.0036])),
        ],
    );
    Checkpoint::capture(&params, &opt, 7)
}

fn fixed_snapshot() -> ModelSnapshot {
    ModelSnapshot {
        config: ModelConfig {
            input_dim: 2,
            output_dim: 1,
            hidden: 16,
            num_nodes: 7,
            horizon: 4,
            diffusion_steps: 2,
            layers: 2,
        },
        scaler: StandardScaler::from_feature_stats(vec![(60.0, 9.5), (0.5, 0.29)]),
        time_period: Some(288),
        trained_epochs: 5,
        params: fixed_state_dict(),
    }
}

#[test]
fn pgtckpt1_and_pgtsnap1_bytes_are_the_ones_recorded_at_c8bf885() {
    let dict = fixed_state_dict().to_bytes();
    let ckpt = fixed_checkpoint().to_bytes();
    let snap = fixed_snapshot().to_bytes();
    let got = [
        ("state dict", dict.len(), fnv1a(&dict)),
        ("checkpoint", ckpt.len(), fnv1a(&ckpt)),
        ("snapshot", snap.len(), fnv1a(&snap)),
    ];
    let pinned = [
        ("state dict", 132usize, 0x13bee140ddf3b1eau64),
        ("checkpoint", 269, 0x4136ffba54aa2811),
        ("snapshot", 252, 0x7009d5e35d07cc92),
    ];
    assert!(
        got == pinned,
        "an encoding moved; computed:\n{}",
        got.map(|(what, len, h)| format!("    (\"{what}\", {len}, {h:#018x}),\n"))
            .concat()
    );
    // The snapshot's own trailer is the same function over its body.
    let (body, trailer) = snap.split_at(snap.len() - 8);
    assert_eq!(trailer, fnv1a(body).to_le_bytes());
}
