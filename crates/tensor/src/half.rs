//! Minimal IEEE-754 binary16 conversion.
//!
//! The `F16` wire codec (`st_dist::wire`) quantizes f32 payloads to half
//! precision. The container has no `half` crate, so the two conversions
//! live here in the common tensor substrate: straightforward,
//! deterministic, round-to-nearest-even on encode — no table lookups, no
//! platform intrinsics, so results are bit-identical everywhere.

/// Convert an `f32` to IEEE binary16 bits (round-to-nearest-even).
///
/// Out-of-range magnitudes saturate to ±infinity; NaN payload bits collapse
/// to a canonical quiet NaN.
pub fn f32_to_f16_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN.
        return if mant == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7e00
        };
    }
    // Re-bias 127 -> 15.
    let unbiased = exp - 127;
    if unbiased >= 16 {
        // Overflow: saturate to infinity.
        return sign | 0x7c00;
    }
    if unbiased >= -14 {
        // Normal half. 13 mantissa bits are dropped; round to nearest even.
        let mut out = (((unbiased + 15) as u32) << 10) | (mant >> 13);
        let round_bits = mant & 0x1fff;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (out & 1) == 1) {
            out += 1; // may carry into the exponent — that is correct rounding
        }
        return sign | out as u16;
    }
    if unbiased >= -25 {
        // Subnormal half: shift the implicit leading 1 into the mantissa.
        let full = mant | 0x0080_0000;
        let shift = (-14 - unbiased + 13) as u32;
        let mut out = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let half_ulp = 1u32 << (shift - 1);
        if rem > half_ulp || (rem == half_ulp && (out & 1) == 1) {
            out += 1;
        }
        return sign | out as u16;
    }
    // Underflow to signed zero.
    sign
}

/// Convert IEEE binary16 bits back to `f32` (exact — every half value is
/// representable in single precision).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal half: value = m · 2^-24. Renormalize around the
            // highest set bit h: exp32 = 127 + (h - 24), mantissa shifts
            // up into the 23-bit field.
            let h = 31 - m.leading_zeros();
            let exp32 = 103 + h;
            let mant32 = (m << (23 - h)) & 0x007f_ffff;
            sign | (exp32 << 23) | mant32
        }
        (0x1f, 0) => sign | 0x7f80_0000,
        (0x1f, _) => sign | 0x7fc0_0000,
        (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// Round-trip an `f32` through binary16 (the value a half-precision payload
/// decodes to).
pub fn f16_round_trip(v: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_round_trip_bitwise() {
        for v in [
            0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 1024.0, 0.25, -65504.0, 65504.0,
        ] {
            assert_eq!(f16_round_trip(v).to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn relative_error_is_half_precision() {
        // Normal range: relative error bounded by 2^-11.
        for i in 1..2000 {
            let v = i as f32 * 0.037 - 31.0;
            if v == 0.0 {
                continue;
            }
            let r = f16_round_trip(v);
            assert!(
                ((r - v) / v).abs() <= 1.0 / 2048.0,
                "{v} -> {r} rel err too big"
            );
        }
    }

    #[test]
    fn saturation_and_specials() {
        assert_eq!(f16_round_trip(1e9), f32::INFINITY);
        assert_eq!(f16_round_trip(-1e9), f32::NEG_INFINITY);
        assert_eq!(f16_round_trip(f32::INFINITY), f32::INFINITY);
        assert!(f16_round_trip(f32::NAN).is_nan());
        // Tiny values flush through the subnormal range, not straight to 0.
        let sub = f16_round_trip(1e-5);
        assert!(sub > 0.0 && (sub - 1e-5).abs() / 1e-5 < 0.05);
        assert_eq!(f16_round_trip(1e-12), 0.0);
    }

    #[test]
    fn round_to_nearest_even_carries() {
        // 2049.0 is exactly between half-representable 2048 and 2050; ties
        // go to even (2048). 2051 rounds up to 2052.
        assert_eq!(f16_round_trip(2049.0), 2048.0);
        assert_eq!(f16_round_trip(2051.0), 2052.0);
    }
}
