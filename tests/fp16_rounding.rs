//! The lane kernels' 8-wide binary16 rounders against the scalar oracle
//! `round_f16`, bit for bit, on a structured sweep of every place rounding
//! can go wrong. The exhaustive 2^32 sweep is an ignored test in
//! `trtsim-kernels` (`cargo test --release -p trtsim-kernels -- --ignored`).

use trtsim::kernels::lanes::{round8, round8_acc, round8_portable};
use trtsim::util::f16::round_f16;

/// Checks both `round8` bodies (F16C where the build has it, and the
/// portable one) on 8 bit patterns at a time, and the accumulation rounder
/// `round8_acc` on every pattern but NaNs other than the default NaN
/// `0xffc0_0000` (the only NaN an accumulation loop can form).
fn check(bits: &[u32]) {
    for c in bits.chunks(8) {
        let mut v = [0.0f32; 8];
        for (lane, &b) in v.iter_mut().zip(c) {
            *lane = f32::from_bits(b);
        }
        for (name, got) in [
            ("round8", round8(v)),
            ("portable", round8_portable(v)),
            ("acc", round8_acc(v)),
        ] {
            for l in 0..8 {
                if name == "acc" && v[l].is_nan() && v[l].to_bits() != 0xffc0_0000 {
                    continue;
                }
                let want = round_f16(v[l]);
                assert_eq!(
                    got[l].to_bits(),
                    want.to_bits(),
                    "{name}({:#010x} = {:e}) = {:e}, want {want:e}",
                    v[l].to_bits(),
                    v[l],
                    got[l]
                );
            }
        }
    }
}

#[test]
fn round8_matches_round_f16_on_structured_sweep() {
    let mut bits = Vec::new();
    for sign in [0u32, 0x8000_0000] {
        for exp in 0u32..=255 {
            let e = sign | exp << 23;
            // Halfway points (and ±1 ulp) at every rounding position:
            // position 13 for binary16 normals, higher ones for its
            // subnormals, lower ones for f32 subnormals and NaN payloads.
            for sh in 1..=23u32 {
                let half = 1u32 << (sh - 1);
                for k in [0u32, 1, 2, 3, 0x3fe, 0x3ff, u32::MAX] {
                    let m = (k << sh) | half;
                    for m in [m, m.wrapping_sub(1), m.wrapping_add(1)] {
                        bits.push(e | (m & 0x007f_ffff));
                    }
                }
            }
            // ±0 and subnormals (exp 0), ±inf and NaNs (exp 255) included.
            bits.extend([e, e | 1, e | 0x007f_ffff]);
        }
    }
    // The overflow boundary: 65504 is the largest binary16, 65520 the
    // halfway point that rounds up to infinity.
    for v in [65_504.0f32, 65_519.0, 65_520.0, 65_536.0, 32_768.0] {
        bits.extend([v.to_bits(), (-v).to_bits()]);
    }
    // Signalling and quiet NaNs with assorted payloads.
    bits.extend([
        0x7f80_0001,
        0xffbf_ffff,
        0x7fc0_0000,
        0xffc0_1234,
        0xffc0_0000,
    ]);
    check(&bits);
}
