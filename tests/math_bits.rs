//! `st_tensor::math` bit for bit: the slice kernels equal the scalar ports
//! on every length and on every special input, and the ports' outputs hash
//! to the values the host libm gave before the ports existed.
//!
//! The three exhaustive sweeps are `#[ignore]`d; run them in release:
//!
//! ```sh
//! cargo test -q --release --test math_bits -- --ignored --nocapture
//! ```
//!
//! `simd_equals_scalar_port_on_every_input` is a gate on any host, and
//! `max_ulp_error_against_f64` checks the accuracy DESIGN §8 states.
//! `scalar_port_equals_host_libm_on_every_input` shows where the bits come
//! from; it holds for glibc 2.28–2.40 on an x86-64 host with FMA (glibc
//! 2.41 replaced `tanhf` with a correctly rounded one).

use st_tensor::math;

type Scalar = fn(f32) -> f32;

/// Each slice kernel with the scalar port it must equal.
type Pair = (&'static str, fn(&mut [f32]), Scalar);

const FUNCS: [Pair; 3] = [
    ("exp", math::exp_in_place, math::expf),
    ("tanh", math::tanh_in_place, math::tanhf),
    ("sigmoid", math::sigmoid_in_place, math::sigmoid),
];

/// Applies `kernel` to `xs` inside a guarded buffer and checks each output
/// against `scalar` and the guard for stray writes.
fn check(name: &str, kernel: fn(&mut [f32]), scalar: fn(f32) -> f32, xs: &[f32]) {
    const GUARD: f32 = 1234.5;
    let mut buf = xs.to_vec();
    buf.extend([GUARD; 17]);
    kernel(&mut buf[..xs.len()]);
    for (i, (&x, y)) in xs.iter().zip(&buf).enumerate() {
        let want = scalar(x);
        assert_eq!(
            y.to_bits(),
            want.to_bits(),
            "{name}({x:e} = {:#010x}) at {i} of {}: kernel {:#010x}, port {:#010x}",
            x.to_bits(),
            xs.len(),
            y.to_bits(),
            want.to_bits()
        );
    }
    assert!(
        buf[xs.len()..].iter().all(|&g| g == GUARD),
        "{name}: wrote past the slice"
    );
}

/// Bit patterns whose outputs take a special branch or sit next to one.
fn special_inputs() -> Vec<f32> {
    let mut bits: Vec<u32> = vec![
        0x0000_0000, // +0
        0x8000_0000, // −0
        0x7f80_0000, // +∞
        0xff80_0000, // −∞
        0x7fc0_0000, // quiet NaN
        0x7fc1_2345, // quiet NaN with a payload
        0x7f80_0001, // signalling NaN
        0x7fa0_0000, // signalling NaN with a payload
        0xffc0_0000, // negative quiet NaN
        0xff80_0001, // negative signalling NaN
        0x0000_0001, // smallest subnormal
        0x8000_0001,
        0x007f_ffff, // largest subnormal
        0x807f_ffff,
        0x0080_0000, // smallest normal
        0x7f7f_ffff, // largest finite
        0xff7f_ffff,
    ];
    // Branch thresholds of tanhf (|x| < 2^-55, |x| >= 1, |x| < 22) and of
    // the expm1f it calls (|2x| > 0.5·ln2, |2x| < 1.5·ln2, |2x| < 2^-25),
    // as |x| and as the |x| whose double is the threshold; then expf's
    // (|x| >= 88, overflow, underflow).
    let expm1 = [0x3eb1_7218u32, 0x3f85_1592, 0x3300_0000, 0x4195_b844];
    let thresholds = [
        0x2400_0000u32,
        0x3f80_0000,
        0x41b0_0000,
        0x42b0_0000,
        0x42b1_7217,
    ]
    .into_iter()
    .chain(expm1)
    .chain(expm1.map(|b| b - 0x0080_0000));
    for t in thresholds {
        for b in [t - 1, t, t + 1] {
            bits.extend([b, b | 0x8000_0000]);
        }
    }
    bits.extend([0xc2cf_f1b3, 0xc2cf_f1b4, 0xc2cf_f1b5]);
    bits.into_iter().map(f32::from_bits).collect()
}

/// Deterministic values spread over the gate range and past every fast
/// range, from an LCG over bit patterns and over `[-30, 30]`.
fn mixed_inputs(n: usize, seed: u32) -> Vec<f32> {
    let mut s = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
    (0..n)
        .map(|i| {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            if i % 3 == 0 {
                f32::from_bits(s)
            } else {
                (s >> 8) as f32 / (1u32 << 24) as f32 * 60.0 - 30.0
            }
        })
        .collect()
}

#[test]
fn slice_kernels_equal_scalar_ports_for_every_length() {
    let specials = special_inputs();
    for (name, kernel, scalar) in FUNCS {
        for len in 0..=70 {
            check(name, kernel, scalar, &mixed_inputs(len, len as u32));
            // A special value in every lane position of a ragged slice.
            let xs: Vec<f32> = (0..len)
                .map(|i| specials[(i * 7 + len) % specials.len()])
                .collect();
            check(name, kernel, scalar, &xs);
        }
    }
}

#[test]
fn special_inputs_take_the_scalar_port() {
    let specials = special_inputs();
    for (name, kernel, scalar) in FUNCS {
        // Alone in a register, and in every offset of a full one.
        for &x in &specials {
            check(name, kernel, scalar, &[x]);
        }
        for off in 0..16 {
            let mut xs = mixed_inputs(off, 7);
            xs.extend(&specials);
            check(name, kernel, scalar, &xs);
        }
    }
}

#[test]
fn scalar_ports_keep_their_special_values() {
    let nan_bits = |x: f32| x.to_bits();
    assert_eq!(math::expf(0.0), 1.0);
    assert_eq!(math::expf(f32::NEG_INFINITY), 0.0);
    assert_eq!(math::expf(f32::INFINITY), f32::INFINITY);
    assert_eq!(math::expf(89.0), f32::INFINITY);
    assert_eq!(math::expf(-104.0), 0.0);
    assert_eq!(math::tanhf(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(math::tanhf(30.0), 1.0);
    assert_eq!(math::tanhf(f32::NEG_INFINITY), -1.0);
    assert_eq!(math::sigmoid(-0.0), 0.5);
    assert_eq!(math::sigmoid(-200.0), 0.0);
    assert_eq!(math::sigmoid(200.0), 1.0);
    // NaN inputs come back quieted with their sign and payload.
    for f in [math::expf, math::tanhf, math::sigmoid] {
        assert_eq!(nan_bits(f(f32::from_bits(0x7f80_0001))), 0x7fc0_0001);
        assert_eq!(nan_bits(f(f32::from_bits(0xffc1_2345))), 0xffc1_2345);
    }
}

/// FNV-1a over the little-endian output bits of every 4099th bit pattern.
fn strided_hash(f: fn(f32) -> f32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in (0..=u32::MAX).step_by(4099) {
        for b in f(f32::from_bits(i)).to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Recorded from glibc 2.36's `expf` and `tanhf` (and the sigmoid composed
/// from that `expf`) before the ports replaced them: a port edit that moves
/// any sampled bit fails here on every host.
#[test]
fn strided_sweep_matches_pinned_hashes() {
    assert_eq!(strided_hash(math::expf), 0xfd94_9e0a_46fb_b207, "exp");
    assert_eq!(strided_hash(math::tanhf), 0xf9b8_c6a9_7656_4d6b, "tanh");
    assert_eq!(
        strided_hash(math::sigmoid),
        0x4bae_d362_6c8a_2e3f,
        "sigmoid"
    );
}

/// GELU and its derivative as per-element formulas over the scalar
/// `tanhf`, in the expression and operand order the tensor ops use.
fn gelu_scalar(x: f32) -> (f32, f32) {
    const C: f32 = 0.797_884_6;
    let th = math::tanhf(C * (x + 0.044715 * x * x * x));
    let sech2 = 1.0 - th * th;
    let dy = 0.5 * (1.0 + th) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x);
    (0.5 * x * (1.0 + th), dy)
}

/// `ops::gelu` runs its inner tanh on the slice kernel; forward and
/// gradient must still equal the per-element formula bit for bit.
#[test]
fn gelu_and_its_gradient_equal_the_scalar_formula() {
    use pgt_i::autograd::{ops, Tape};
    let mut xs = special_inputs();
    xs.extend((0..=u32::MAX).step_by(4099).map(f32::from_bits));
    let tape = Tape::new();
    let x = tape.leaf(st_tensor::Tensor::from_slice(&xs));
    let y = ops::gelu(&x);
    let grads = tape.backward(&ops::sum_all(&y));
    let ys = y.value().to_vec();
    let gs = grads.get(&x).expect("x feeds y").to_vec();
    for (i, &x) in xs.iter().enumerate() {
        let (want_y, want_dy) = gelu_scalar(x);
        // The seed gradient is 1, and the chain rule multiplies by it.
        let want_g = 1.0 * want_dy;
        assert_eq!(
            (ys[i].to_bits(), gs[i].to_bits()),
            (want_y.to_bits(), want_g.to_bits()),
            "gelu at {x:e} = {:#010x}",
            x.to_bits()
        );
    }
}

/// Runs `body` on every bit pattern in blocks of 2^16, the blocks dealt
/// round-robin to one worker per available core, and returns each block's
/// result.
fn exhaustive<T: Send>(body: impl Fn(&[f32], &mut [f32]) -> T + Sync) -> Vec<T> {
    const BLOCK: u64 = 1 << 16;
    let blocks = (1u64 << 32) / BLOCK;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let body = &body;
                s.spawn(move || {
                    let mut xs = vec![0.0f32; BLOCK as usize];
                    let mut ys = vec![0.0f32; BLOCK as usize];
                    let mut out = Vec::new();
                    for blk in (w..blocks).step_by(workers as usize) {
                        for (j, x) in xs.iter_mut().enumerate() {
                            *x = f32::from_bits((blk * BLOCK + j as u64) as u32);
                        }
                        out.push(body(&xs, &mut ys));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker"))
            .collect()
    })
}

fn mismatches(xs: &[f32], ys: &[f32], f: impl Fn(f32) -> f32) -> usize {
    xs.iter()
        .zip(ys)
        .filter(|(&x, y)| f(x).to_bits() != y.to_bits())
        .count()
}

#[test]
#[ignore = "exhaustive over 2^32 inputs; run with --release"]
fn simd_equals_scalar_port_on_every_input() {
    for (name, kernel, scalar) in FUNCS {
        let t0 = std::time::Instant::now();
        let bad: usize = exhaustive(|xs, ys| {
            ys.copy_from_slice(xs);
            kernel(ys);
            mismatches(xs, ys, scalar)
        })
        .into_iter()
        .sum();
        println!(
            "{name}: kernel vs port, {bad} mismatches in {:.1} s",
            t0.elapsed().as_secs_f64()
        );
        assert_eq!(bad, 0, "{name}");
    }
}

#[test]
#[ignore = "exhaustive over 2^32 inputs, and a property of the host libm; run with --release"]
fn scalar_port_equals_host_libm_on_every_input() {
    fn libm_sigmoid(x: f32) -> f32 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }
    let pairs: [(&str, Scalar, Scalar); 3] = [
        ("exp", math::expf, f32::exp),
        ("tanh", math::tanhf, f32::tanh),
        ("sigmoid", math::sigmoid, libm_sigmoid),
    ];
    for (name, port, libm) in pairs {
        let t0 = std::time::Instant::now();
        let bad: usize = exhaustive(|xs, ys| {
            for (y, &x) in ys.iter_mut().zip(xs) {
                *y = libm(x);
            }
            mismatches(xs, ys, port)
        })
        .into_iter()
        .sum();
        println!(
            "{name}: port vs libm, {bad} mismatches in {:.1} s",
            t0.elapsed().as_secs_f64()
        );
        assert_eq!(bad, 0, "{name}");
    }
}

/// `|y − exact|` in units in the last place of the `f32` binade holding
/// `exact` (subnormal spacing below the normal range).
fn ulp_error(y: f32, exact: f64) -> f64 {
    let binade = ((exact.abs().to_bits() >> 52) & 0x7ff) as i32 - 1023;
    (f64::from(y) - exact).abs() / 2f64.powi((binade - 23).max(-149))
}

/// The accuracy DESIGN §8 states, against the `f64` functions, over every
/// input whose exact value is finite in `f32` (an overflow must give +∞).
#[test]
#[ignore = "exhaustive over 2^32 inputs; run with --release"]
fn max_ulp_error_against_f64() {
    fn sigmoid64(x: f64) -> f64 {
        1.0 / (1.0 + (-x).exp())
    }
    type Exact = fn(f64) -> f64;
    let funcs: [(&str, Scalar, Exact, f64); 3] = [
        ("exp", math::expf, f64::exp, 0.502),
        ("tanh", math::tanhf, f64::tanh, 2.19),
        ("sigmoid", math::sigmoid, sigmoid64, 2.41),
    ];
    for (name, port, exact, bound) in funcs {
        let t0 = std::time::Instant::now();
        let worst = exhaustive(|xs, _| {
            let mut worst = (0.0f64, 0.0f32);
            for &x in xs.iter().filter(|x| !x.is_nan()) {
                let (y, e) = (port(x), exact(f64::from(x)));
                if e.abs() > f64::from(f32::MAX) {
                    assert_eq!(y, e.signum() as f32 * f32::INFINITY, "{name}({x:e})");
                    continue;
                }
                let err = ulp_error(y, e);
                if err > worst.0 {
                    worst = (err, x);
                }
            }
            worst
        })
        .into_iter()
        .fold((0.0, 0.0), |a, b| if b.0 > a.0 { b } else { a });
        println!(
            "{name}: max {:.4} ulp at {:e} in {:.1} s",
            worst.0,
            worst.1,
            t0.elapsed().as_secs_f64()
        );
        assert!(
            worst.0 <= bound,
            "{name}: {:.4} ulp at {:e}",
            worst.0,
            worst.1
        );
    }
}
