//! The workspace's `f32` transcendentals: the one `exp`, `tanh` and logistic
//! sigmoid that `st_tensor` and `st_autograd` evaluate, as scalar ports
//! ([`expf`], [`tanhf`], [`sigmoid`]) and slice kernels
//! ([`exp_in_place`], [`tanh_in_place`], [`sigmoid_in_place`]) that give
//! the same bits.
//!
//! The scalar ports are the algorithms glibc runs on an x86-64 host with
//! FMA, transcribed operation for operation, so their outputs equal the
//! host libm's on every one of the 2³² inputs (glibc 2.28–2.40; glibc 2.41
//! replaced `tanhf` and `expm1f` with correctly rounded code):
//!
//! - [`expf`] is Arm's optimized-routines `expf` (Copyright (c) 2017-2018,
//!   Arm Limited; MIT), which glibc ≥ 2.28 ships and runs as its FMA ifunc
//!   variant: a 32-entry table of `2^(i/32)` and a cubic in `f64`. The five
//!   fused multiply-adds that compiler contracted into that variant are
//!   spelled `f64::mul_add` here, because they are part of the function's
//!   bits. `mul_add` is correctly rounded on every target (a software `fma`
//!   where the CPU has none), so the port agrees on any host.
//! - [`tanhf`] and its `expm1f` are Sun fdlibm's float code as glibc ≤ 2.40
//!   ships it, with the five-term `expm1f` polynomial.
//!
//! Every inexact constant is written as its bit pattern: a decimal
//! transcription of a hex coefficient can round to a neighbouring value.
//!
//! The slice kernels run the same IEEE operations in the same order,
//! sixteen lanes per AVX-512 register when the build target has `avx512f`
//! (the `avx512` submodule), and send each lane outside the fast range
//! through the scalar port: a non-finite `x` or `|x| ≥ 88` for `exp` and
//! the sigmoid, `|x| < 2⁻⁵⁵` or `|x| ≥ 22` (and non-finite) for `tanh`.
//! Other targets run the scalar port per element.

// The fdlibm functions below carry Sun's notice, as the license asks:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
//
// Conversion to float by Ian Lance Taylor, Cygnus Support, ian@cygnus.com.

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512;

/// `expf`'s table: `T[i]` = the bits of `2^(i/32)` rounded to `f64`, minus
/// `i << 47`, so that adding `k << 47` for `k ≡ i (mod 32)` scales it by
/// `2^⌊k/32⌋`.
const EXP_TABLE: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `32 / ln 2` (`0x1.71547652b82fep+5`).
const EXP_INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// `0x1.8p+52`: adding it rounds a small `f64` to an integer in the low
/// mantissa bits.
const EXP_SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// The cubic for `2^(r/32)`, highest degree first.
const EXP_C: [f64; 3] = [
    f64::from_bits(0x3ebc6af84b912394),
    f64::from_bits(0x3f2ebfce50fac4f3),
    f64::from_bits(0x3f962e42ff0c52d6),
];
/// `expf`'s special-case gate: `top12(88.0)`, the top twelve bits of `|x|`.
const EXP_TOP12_88: u32 = 0x42b;
/// Largest `x` whose `exp` is finite (`0x1.62e42ep6`, ≈ 88.72).
const EXP_OFLOW: f32 = f32::from_bits(0x42b17217);
/// Below this (`-0x1.9fe368p6`, ≈ −103.97) `exp` rounds to zero.
const EXP_UFLOW: f32 = f32::from_bits(0xc2cff1b4);

/// `e^x`, bit-equal to glibc's FMA `expf`.
pub fn expf(x: f32) -> f32 {
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    if abstop >= EXP_TOP12_88 {
        // |x| >= 88 or x is NaN.
        if x.to_bits() == f32::NEG_INFINITY.to_bits() {
            return 0.0;
        }
        if abstop >= 0x7f8 {
            return x + x;
        }
        if x > EXP_OFLOW {
            return f32::INFINITY;
        }
        if x < EXP_UFLOW {
            return 0.0;
        }
    }
    let xd = f64::from(x);
    // x·32/ln2 = k + r with r in [−1/2, 1/2] and an integer k, rounded
    // ties-to-even through the shift.
    let kd = EXP_INV_LN2_N.mul_add(xd, EXP_SHIFT);
    let ki = kd.to_bits();
    let kd = kd - EXP_SHIFT;
    let r = EXP_INV_LN2_N.mul_add(xd, -kd);
    // exp(x) = 2^(k/32) · 2^(r/32) ≈ s · (C0·r³ + C1·r² + C2·r + 1).
    let s = f64::from_bits(EXP_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = EXP_C[0].mul_add(r, EXP_C[1]);
    let r2 = r * r;
    let y = EXP_C[2].mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// Logistic sigmoid, numerically stable in both tails: `1 / (1 + e^−x)` for
/// `x ≥ 0`, `e^x / (1 + e^x)` below.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + expf(-x))
    } else {
        let e = expf(x);
        e / (1.0 + e)
    }
}

const TINY: f32 = f32::from_bits(0x0da24260); // 1.0e-30
const HUGE: f32 = f32::from_bits(0x7149f2ca); // 1.0e+30

const EXPM1_O_THRESHOLD: f32 = f32::from_bits(0x42b17180);
const EXPM1_LN2_HI: f32 = f32::from_bits(0x3f317180);
const EXPM1_LN2_LO: f32 = f32::from_bits(0x3717f7d1);
const EXPM1_INV_LN2: f32 = f32::from_bits(0x3fb8aa3b);
/// The scaled coefficients `Q1..Q5` of `expm1f`'s rational approximation.
const EXPM1_Q: [f32; 5] = [
    f32::from_bits(0xbd088889),
    f32::from_bits(0x3ad00d01),
    f32::from_bits(0xb8a670cd),
    f32::from_bits(0x36867e54),
    f32::from_bits(0xb457edbb),
];

/// `e^x − 1`, fdlibm's `expm1f`.
fn expm1f(x: f32) -> f32 {
    let bits = x.to_bits();
    let neg = bits & 0x8000_0000 != 0;
    let hx = bits & 0x7fff_ffff;

    // Filter out huge and non-finite arguments.
    if hx >= 0x4195b844 {
        // |x| >= 27·ln2
        if hx >= 0x42b17218 {
            // |x| >= 88.721...
            if hx > 0x7f80_0000 {
                return x + x; // NaN
            }
            if hx == 0x7f80_0000 {
                return if neg { -1.0 } else { x };
            }
            if x > EXPM1_O_THRESHOLD {
                return HUGE * HUGE; // overflow
            }
        }
        if neg {
            return TINY - 1.0; // x < −27·ln2: −1
        }
    }

    // Argument reduction.
    let (x, c, k) = if hx > 0x3eb17218 {
        // |x| > 0.5·ln2
        let (hi, lo, k) = if hx < 0x3f851592 {
            // and |x| < 1.5·ln2
            if neg {
                (x + EXPM1_LN2_HI, -EXPM1_LN2_LO, -1)
            } else {
                (x - EXPM1_LN2_HI, EXPM1_LN2_LO, 1)
            }
        } else {
            let k = (EXPM1_INV_LN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * EXPM1_LN2_HI, t * EXPM1_LN2_LO, k) // t·ln2_hi is exact here
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < 0x3300_0000 {
        return x; // |x| < 2^-25
    } else {
        (x, 0.0, 0)
    };

    // x is now in the primary range.
    let [q1, q2, q3, q4, q5] = EXPM1_Q;
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs); // c is 0
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > 56 {
        // exp(x) − 1 is accurate enough.
        let y = 1.0 - (e - x);
        let y = if k == 128 {
            y * 2.0 * f32::from_bits(0x7f00_0000) // 0x1p127
        } else {
            add_exponent(y, k)
        };
        return y - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 − 2^−k
        add_exponent(t - (e - x), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^−k
        add_exponent((x - (e + t)) + 1.0, k)
    }
}

/// `y · 2^k` by adding `k` to the exponent field, as fdlibm's
/// `SET_FLOAT_WORD(y, i + (k << 23))` does.
#[inline]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}

/// Hyperbolic tangent, fdlibm's `tanhf`.
pub fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if jx >= 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x; // ±0
        }
        if ix < 0x2400_0000 {
            return x * (1.0 + x); // |x| < 2^-55: tanh(small) = small
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1f(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1f(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY // |x| >= 22: ±1
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// `v[i] = expf(v[i])` for every element.
pub fn exp_in_place(v: &mut [f32]) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    avx512::exp_in_place(v);
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    v.iter_mut().for_each(|x| *x = expf(*x));
}

/// `v[i] = sigmoid(v[i])` for every element.
pub fn sigmoid_in_place(v: &mut [f32]) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    avx512::sigmoid_in_place(v);
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    v.iter_mut().for_each(|x| *x = sigmoid(*x));
}

/// `v[i] = tanhf(v[i])` for every element.
pub fn tanh_in_place(v: &mut [f32]) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    avx512::tanh_in_place(v);
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    v.iter_mut().for_each(|x| *x = tanhf(*x));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where the bits come from, not a gate: fdlibm's `expm1f` is glibc's
    /// through 2.40 (2.41 ships a correctly rounded one). `tanhf` reaches
    /// only part of its domain, so the whole of it is swept here.
    #[test]
    #[ignore = "exhaustive; checks the host libm, which only glibc 2.28-2.40 matches"]
    fn expm1f_equals_host_libm_on_every_input() {
        let bad = (0..=u32::MAX)
            .map(f32::from_bits)
            .filter(|x| expm1f(*x).to_bits() != x.exp_m1().to_bits())
            .count();
        assert_eq!(bad, 0);
    }
}
