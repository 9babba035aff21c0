//! Helpers shared by the golden test binaries.

use pgt_i::autograd::Module;

/// FNV-1a over every parameter's f32 bits (little-endian), in
/// `Module::params` order — a compact fingerprint of a trained model.
pub fn param_digest(model: &dyn Module) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in model.params() {
        for v in p.value().to_vec() {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}
