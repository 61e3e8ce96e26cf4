//! 8×8 block transforms: forward/inverse DCT-II, zig-zag scan and
//! quantisation — the kernel of the MJPEG-lite codec.

/// Zig-zag scan order of an 8×8 block (row-major indices).
pub const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// The JPEG Annex K luminance quantisation table.
pub const QTABLE_LUMA: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55, 14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62, 18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113,
    92, 49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
];

/// Scales the base quantisation table by a JPEG-style quality factor
/// (1 = worst, 100 = best).
///
/// # Panics
///
/// Panics if `quality` is 0 or > 100.
pub fn scaled_qtable(quality: u8) -> [u16; 64] {
    assert!((1..=100).contains(&quality), "quality must be 1..=100");
    let scale: u32 = if quality < 50 {
        5000 / quality as u32
    } else {
        200 - 2 * quality as u32
    };
    let mut out = [0u16; 64];
    for (o, q) in out.iter_mut().zip(QTABLE_LUMA.iter()) {
        *o = (((*q as u32) * scale + 50) / 100).clamp(1, 255) as u16;
    }
    out
}

/// Basis table: `BASIS[u][x] = c(u) · cos((2x+1)·u·π/16) / 2`, so a 1-D
/// DCT is a plain matrix product and the 2-D transform is two separable
/// passes (row then column) — 4× fewer multiplies than the direct form.
fn basis() -> &'static [[f32; 8]; 8] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f32; 8]; 8]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[0f32; 8]; 8];
        for (u, row) in t.iter_mut().enumerate() {
            let cu = if u == 0 {
                std::f32::consts::FRAC_1_SQRT_2
            } else {
                1.0
            };
            for (x, v) in row.iter_mut().enumerate() {
                *v = 0.5 * cu * ((2 * x + 1) as f32 * u as f32 * std::f32::consts::PI / 16.0).cos();
            }
        }
        t
    })
}

/// Forward 8×8 DCT-II on a block of samples (level-shifted by −128), row
/// major in, row major out. Separable row/column implementation.
pub fn fdct8x8(pixels: &[u8; 64]) -> [f32; 64] {
    let b = basis();
    let mut rows = [0f32; 64];
    // 1-D DCT along each row.
    for r in 0..8 {
        for u in 0..8 {
            let mut s = 0f32;
            for x in 0..8 {
                s += (pixels[r * 8 + x] as f32 - 128.0) * b[u][x];
            }
            rows[r * 8 + u] = s;
        }
    }
    // 1-D DCT along each column.
    let mut out = [0f32; 64];
    for c in 0..8 {
        for u in 0..8 {
            let mut s = 0f32;
            for y in 0..8 {
                s += rows[y * 8 + c] * b[u][y];
            }
            out[u * 8 + c] = s;
        }
    }
    out
}

/// Inverse 8×8 DCT (IDCT), producing level-shifted-back pixel samples.
/// Separable row/column implementation.
pub fn idct8x8(coeffs: &[f32; 64]) -> [u8; 64] {
    let b = basis();
    // Inverse along columns first.
    let mut cols = [0f32; 64];
    for c in 0..8 {
        for y in 0..8 {
            let mut s = 0f32;
            for u in 0..8 {
                s += coeffs[u * 8 + c] * b[u][y];
            }
            cols[y * 8 + c] = s;
        }
    }
    // Inverse along rows.
    let mut out = [0u8; 64];
    for r in 0..8 {
        for x in 0..8 {
            let mut s = 0f32;
            for u in 0..8 {
                s += cols[r * 8 + u] * b[u][x];
            }
            out[r * 8 + x] = pixel(s);
        }
    }
    out
}

/// `(s + 128.0).round().clamp(0.0, 255.0) as u8` without the libm call.
/// The bounds are integers, so clamping first and rounding second gives
/// the same value; on `[0, 255]` the truncation is exact and the rounding
/// is one compare of the fraction. NaN is 0 either way.
fn pixel(s: f32) -> u8 {
    let v = (s + 128.0).clamp(0.0, 255.0);
    let t = v as u8;
    t + (v - t as f32 >= 0.5) as u8
}

/// `x.round() as i16` (half away from zero, saturating, NaN to 0) without
/// the libm call. Clamping to ±65 536 first changes no result, as every
/// value past ±32 768 saturates, and keeps the truncation to `i32` and the
/// fraction exact; the `i32` result is clamped to the `i16` range before
/// the cast, which would wrap rather than saturate.
fn round_i16(x: f32) -> i16 {
    let c = x.clamp(-65_536.0, 65_536.0);
    let t = c as i32;
    let f = c - t as f32;
    let r = t + (f >= 0.5) as i32 - (f <= -0.5) as i32;
    r.clamp(i16::MIN.into(), i16::MAX.into()) as i16
}

/// Quantises DCT coefficients and emits them in zig-zag order.
pub fn quantize_zigzag(coeffs: &[f32; 64], qtable: &[u16; 64]) -> [i16; 64] {
    let mut natural = [0i16; 64];
    for ((slot, c), q) in natural.iter_mut().zip(coeffs).zip(qtable) {
        *slot = round_i16(c / *q as f32);
    }
    ZIGZAG.map(|zz| natural[zz])
}

/// Dequantises zig-zag coefficients back into a row-major block.
pub fn dequantize_zigzag(q: &[i16; 64], qtable: &[u16; 64]) -> [f32; 64] {
    let mut out = [0f32; 64];
    for (i, zz) in ZIGZAG.iter().enumerate() {
        out[*zz] = q[i] as f32 * qtable[*zz] as f32;
    }
    out
}

/// The libm-rounding quantiser the rewrite replaced, kept as the oracle the
/// encoders' bitstreams are checked against.
#[cfg(test)]
pub(crate) mod reference {
    use super::ZIGZAG;

    pub(crate) fn quantize_zigzag(coeffs: &[f32; 64], qtable: &[u16; 64]) -> [i16; 64] {
        let mut out = [0i16; 64];
        for (zz, slot) in ZIGZAG.iter().zip(out.iter_mut()) {
            *slot = (coeffs[*zz] / qtable[*zz] as f32).round() as i16;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for z in ZIGZAG {
            assert!(!seen[z], "duplicate index {z}");
            seen[z] = true;
        }
        assert!(seen.iter().all(|s| *s));
        // First few entries follow the classic pattern.
        assert_eq!(&ZIGZAG[..6], &[0, 1, 8, 16, 9, 2]);
    }

    #[test]
    fn flat_block_has_only_dc() {
        let block = [100u8; 64];
        let coeffs = fdct8x8(&block);
        assert!(
            (coeffs[0] - (100.0 - 128.0) * 8.0).abs() < 0.01,
            "DC = 8·mean shift"
        );
        for (i, c) in coeffs.iter().enumerate().skip(1) {
            assert!(c.abs() < 1e-3, "AC coefficient {i} should vanish: {c}");
        }
    }

    #[test]
    fn dct_idct_roundtrip_is_near_lossless() {
        let mut block = [0u8; 64];
        for (i, p) in block.iter_mut().enumerate() {
            *p = ((i * 7 + 13) % 256) as u8;
        }
        let rec = idct8x8(&fdct8x8(&block));
        for (a, b) in block.iter().zip(rec.iter()) {
            assert!((*a as i16 - *b as i16).abs() <= 1, "{a} vs {b}");
        }
    }

    #[test]
    fn quantization_roundtrip_bounded_error() {
        let mut block = [0u8; 64];
        for (i, p) in block.iter_mut().enumerate() {
            *p = (128.0 + 80.0 * ((i as f32) * 0.37).sin()) as u8;
        }
        let qtable = scaled_qtable(75);
        let q = quantize_zigzag(&fdct8x8(&block), &qtable);
        let rec = idct8x8(&dequantize_zigzag(&q, &qtable));
        // Mean absolute error stays small at quality 75.
        let mae: f32 = block
            .iter()
            .zip(rec.iter())
            .map(|(a, b)| (*a as f32 - *b as f32).abs())
            .sum::<f32>()
            / 64.0;
        assert!(mae < 6.0, "MAE {mae}");
    }

    #[test]
    fn higher_quality_means_finer_tables() {
        let q30 = scaled_qtable(30);
        let q90 = scaled_qtable(90);
        assert!(q90.iter().zip(q30.iter()).all(|(h, l)| h <= l));
        // Quality 50 is the identity scaling.
        assert_eq!(scaled_qtable(50), QTABLE_LUMA);
    }

    #[test]
    #[should_panic(expected = "quality must be")]
    fn quality_zero_rejected() {
        let _ = scaled_qtable(0);
    }

    #[test]
    fn quantized_blocks_are_sparse() {
        // Quantisation zeroes most high-frequency coefficients — that's
        // what makes the RLE entropy stage effective.
        let mut block = [0u8; 64];
        for (i, p) in block.iter_mut().enumerate() {
            *p = (128 + (i as i32 % 5) - 2) as u8; // gentle texture
        }
        let q = quantize_zigzag(&fdct8x8(&block), &scaled_qtable(75));
        let zeros = q.iter().filter(|c| **c == 0).count();
        assert!(zeros > 48, "only {zeros}/64 zeros");
    }

    /// Seeded f32 bit patterns over every exponent, then the edges the
    /// rounding rewrites have to get right.
    fn rounding_inputs() -> impl Iterator<Item = f32> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let patterns = (0..1_000_000).map(move |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f32::from_bits((x >> 32) as u32)
        });
        // Dense over the range the kernels produce.
        let dense = (0..200_000).map(|i| i as f32 * 0.005_3 - 530.0);
        let special = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
        ]
        .into_iter()
        .chain([f32::from_bits(0x7fc0_0001)]); // a NaN with a payload
        let ties = (0..=1u32 << 23).flat_map(|k| {
            let k = k as f32;
            [k + 0.5, k - 0.5, -k + 0.5, -k - 0.5]
        });
        let saturation = [
            65_536.0f32,
            -65_536.0,
            32_767.5,
            -32_767.5,
            -32_768.5,
            32_766.5,
        ]
        .into_iter()
        .flat_map(|edge| {
            let bits = edge.to_bits();
            [edge, f32::from_bits(bits + 1), f32::from_bits(bits - 1)]
        });
        // Pixel ties: s + 128 = k ± 0.5 around and inside [0, 255].
        let pixel_ties = (-140..=400).flat_map(|k| [k as f32 - 127.5, k as f32 - 128.5]);
        patterns
            .chain(dense)
            .chain(special)
            .chain(ties)
            .chain(saturation)
            .chain(pixel_ties)
    }

    #[test]
    fn rounding_without_libm_matches_round_then_cast() {
        for x in rounding_inputs() {
            assert_eq!(round_i16(x), x.round() as i16, "round_i16({x:e})");
            assert_eq!(
                pixel(x),
                (x + 128.0).round().clamp(0.0, 255.0) as u8,
                "pixel({x:e})"
            );
        }
    }

    #[test]
    fn quantiser_matches_the_libm_reference() {
        let mut x = 7u64;
        for quality in [1, 10, 50, 90, 100] {
            let qtable = scaled_qtable(quality);
            for _ in 0..2_000 {
                let mut block = [0u8; 64];
                for p in block.iter_mut() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *p = x as u8;
                }
                let coeffs = fdct8x8(&block);
                assert_eq!(
                    quantize_zigzag(&coeffs, &qtable),
                    reference::quantize_zigzag(&coeffs, &qtable)
                );
            }
        }
    }
}
