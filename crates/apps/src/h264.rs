//! The H.264-lite intra encoder (with a verifying decoder).
//!
//! The paper's third application is an H.264 encoder (results summarised
//! only; §4.2–4.3). We rebuild the intra-frame path from scratch:
//! 16×16 macroblocks with DC / vertical / horizontal intra prediction from
//! *reconstructed* neighbours, the H.264 4×4 integer core transform,
//! flat quantisation derived from a QP, a 4×4 zig-zag scan and Exp-Golomb
//! entropy coding (CAVLC-lite). The encoder contains the standard
//! reconstruction loop, so prediction never drifts from what a decoder
//! sees — the bundled decoder round-trips the stream and is used by the
//! tests to verify it.

use crate::bitio::{BitReader, BitWriter, BitstreamExhausted};
use crate::video::Frame;
use std::fmt;

const MAGIC: u16 = 0x4831; // "H1"
const MB: usize = 16;

/// Default QP used by the experiments (mid-range fidelity).
pub const DEFAULT_QP: u8 = 28;

/// 4×4 zig-zag scan order.
const ZIGZAG4: [usize; 16] = [0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15];

/// H.264 forward core transform matrix.
const CF: [[i32; 4]; 4] = [[1, 1, 1, 1], [2, 1, -1, -2], [1, -1, -1, 1], [1, -2, 2, -1]];
/// Row norms² of `CF` (used to fold the orthonormalisation into quant).
const NORM2: [f64; 4] = [4.0, 10.0, 4.0, 10.0];
/// `400 / (NORM2[i]·NORM2[j])`, an integer for every `(i, j)`: the scale
/// that makes `400·X` of [`inv4x4`] an exact integer.
const SCALE400: [i32; 16] = [25, 10, 25, 10, 10, 4, 10, 4, 25, 10, 25, 10, 10, 4, 10, 4];

/// Intra 16×16 prediction modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredMode {
    /// Mean of available neighbours (128 when none).
    Dc,
    /// Copy the reconstructed row above.
    Vertical,
    /// Copy the reconstructed column to the left.
    Horizontal,
}

impl PredMode {
    fn code(self) -> u64 {
        match self {
            PredMode::Dc => 0,
            PredMode::Vertical => 1,
            PredMode::Horizontal => 2,
        }
    }

    fn from_code(c: u64) -> Option<Self> {
        match c {
            0 => Some(PredMode::Dc),
            1 => Some(PredMode::Vertical),
            2 => Some(PredMode::Horizontal),
            _ => None,
        }
    }
}

/// Decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H264Error {
    /// Stream does not start with the H.264-lite magic.
    BadMagic,
    /// Header fields are invalid.
    BadHeader,
    /// Bitstream ended prematurely or is inconsistent.
    Truncated,
}

impl fmt::Display for H264Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H264Error::BadMagic => write!(f, "not an H.264-lite stream"),
            H264Error::BadHeader => write!(f, "invalid H.264-lite header"),
            H264Error::Truncated => write!(f, "truncated H.264-lite stream"),
        }
    }
}

impl std::error::Error for H264Error {}

impl From<BitstreamExhausted> for H264Error {
    fn from(_: BitstreamExhausted) -> Self {
        H264Error::Truncated
    }
}

/// Quantisation step for a QP (standard `0.625 · 2^(QP/6)` law).
fn qstep(qp: u8) -> f64 {
    0.625 * 2f64.powf(qp as f64 / 6.0)
}

/// Forward 4×4 core transform: `W = C·X·Cᵀ`.
fn fwd4x4(x: &[i32; 16]) -> [i32; 16] {
    let mut tmp = [0i32; 16];
    for i in 0..4 {
        for j in 0..4 {
            let mut s = 0;
            for k in 0..4 {
                s += CF[i][k] * x[k * 4 + j];
            }
            tmp[i * 4 + j] = s;
        }
    }
    let mut out = [0i32; 16];
    for i in 0..4 {
        for j in 0..4 {
            let mut s = 0;
            for k in 0..4 {
                s += tmp[i * 4 + k] * CF[j][k];
            }
            out[i * 4 + j] = s;
        }
    }
    out
}

/// Inverse of [`fwd4x4`]: `X = Cᵀ·(D·W·D)·C` with `D = diag(1/‖row‖²)`.
fn inv4x4(w: &[i32; 16]) -> [i32; 16] {
    let mut scaled = [0f64; 16];
    for i in 0..4 {
        for j in 0..4 {
            scaled[i * 4 + j] = w[i * 4 + j] as f64 / (NORM2[i] * NORM2[j]);
        }
    }
    let mut tmp = [0f64; 16];
    for i in 0..4 {
        for j in 0..4 {
            let mut s = 0.0;
            for k in 0..4 {
                s += CF[k][i] as f64 * scaled[k * 4 + j];
            }
            tmp[i * 4 + j] = s;
        }
    }
    let mut out = [0i32; 16];
    for i in 0..4 {
        for j in 0..4 {
            let mut s = 0.0;
            for k in 0..4 {
                s += tmp[i * 4 + k] * CF[k][j] as f64;
            }
            out[i * 4 + j] = s.round() as i32;
        }
    }
    out
}

/// [`inv4x4`] in integers: `400·X = Cᵀ·(S ∘ W)·C` with `S` =
/// [`SCALE400`], rounded half away from zero by an exact integer rule.
///
/// Exact for |w| ≤ 2²¹: |400·X| ≤ 6·6·25·|w| < 2³¹. On the one input
/// where the two forms can part, an exact tie (some |400·X| ≡ 200 mod
/// 400), the block falls back to the f64 form. Everywhere else the f64
/// form's error (below 10⁻⁶ at |w| ≤ 2²¹) is far inside the 1/400 gap to
/// a tie, so both round the same way. The encoder's dequantised
/// coefficients stay below 10 400.
fn inv4x4_exact(w: &[i32; 16]) -> [i32; 16] {
    let v = inv4x4_times400(w);
    if v.iter().any(|v| v.abs() % 400 == 200) {
        return inv4x4(w);
    }
    v.map(|v| {
        let r = v % 400;
        v / 400 + i32::from(r > 200) - i32::from(r < -200)
    })
}

/// `400·X` of [`inv4x4`], exactly.
fn inv4x4_times400(w: &[i32; 16]) -> [i32; 16] {
    let mut tmp = [0i32; 16];
    for i in 0..4 {
        for j in 0..4 {
            let mut s = 0;
            for k in 0..4 {
                s += CF[k][i] * w[k * 4 + j] * SCALE400[k * 4 + j];
            }
            tmp[i * 4 + j] = s;
        }
    }
    let mut out = [0i32; 16];
    for i in 0..4 {
        for j in 0..4 {
            let mut s = 0;
            for k in 0..4 {
                s += tmp[i * 4 + k] * CF[k][j];
            }
            out[i * 4 + j] = s;
        }
    }
    out
}

/// Position-dependent quantiser divisor folding in the transform norms.
fn qdiv(i: usize, j: usize, qp: u8) -> f64 {
    qstep(qp) * (NORM2[i] * NORM2[j]).sqrt()
}

/// The 16 divisors of [`qdiv`] for one QP, in block order.
fn qdivs(qp: u8) -> [f64; 16] {
    std::array::from_fn(|k| qdiv(k / 4, k % 4, qp))
}

/// `x.round() as i32` without the libm call: truncate, then step away
/// from zero when the fraction reaches one half.
///
/// Exact for |x| < 2³¹, where the truncation is exact and so is the
/// fraction `x − t`. The encoder's quantised levels stay below 3 700
/// (|w| ≤ 255·6·6 = 9 180 over a divisor of at least 2.5) and its
/// dequantised coefficients below 10 400.
#[inline]
fn round_i32(x: f64) -> i32 {
    let t = x as i32;
    let f = x - f64::from(t);
    t + i32::from(f >= 0.5) - i32::from(f <= -0.5)
}

/// The encoder's quantiser: each coefficient over its [`qdivs`] divisor,
/// rounded by [`round_i32`].
fn quantise(w: &[i32; 16], divs: &[f64; 16]) -> [i32; 16] {
    std::array::from_fn(|k| round_i32(f64::from(w[k]) / divs[k]))
}

/// The encoder's dequantiser: [`dequant`] over precomputed divisors, with
/// [`round_i32`] for the rounding.
fn dequantise(z: &[i32; 16], divs: &[f64; 16]) -> [i32; 16] {
    std::array::from_fn(|k| round_i32(f64::from(z[k]) * divs[k]))
}

/// The decoder's dequantiser, in f64 with libm rounding: its levels come
/// off the wire, unbounded.
fn dequant(z: &[i32; 16], qp: u8) -> [i32; 16] {
    let mut out = [0i32; 16];
    for i in 0..4 {
        for j in 0..4 {
            out[i * 4 + j] = (z[i * 4 + j] as f64 * qdiv(i, j, qp)).round() as i32;
        }
    }
    out
}

/// Computes the 16×16 prediction for a macroblock from reconstructed
/// neighbours.
fn predict(recon: &[u8], width: usize, mbx: usize, mby: usize, mode: PredMode) -> [u8; 256] {
    let x0 = mbx * MB;
    let y0 = mby * MB;
    let top: Option<[u8; MB]> =
        (mby > 0).then(|| std::array::from_fn(|dx| recon[(y0 - 1) * width + x0 + dx]));
    let left: Option<[u8; MB]> =
        (mbx > 0).then(|| std::array::from_fn(|dy| recon[(y0 + dy) * width + x0 - 1]));

    let mut out = [0u8; 256];
    match mode {
        PredMode::Dc => {
            let mut sum = 0u32;
            let mut n = 0u32;
            if let Some(t) = &top {
                sum += t.iter().map(|p| *p as u32).sum::<u32>();
                n += MB as u32;
            }
            if let Some(l) = &left {
                sum += l.iter().map(|p| *p as u32).sum::<u32>();
                n += MB as u32;
            }
            let dc = (sum + n / 2).checked_div(n).map_or(128, |v| v as u8);
            out.fill(dc);
        }
        PredMode::Vertical => {
            let t = top.unwrap_or([128; MB]);
            for dy in 0..MB {
                out[dy * MB..(dy + 1) * MB].copy_from_slice(&t);
            }
        }
        PredMode::Horizontal => {
            let l = left.unwrap_or([128; MB]);
            for dy in 0..MB {
                for dx in 0..MB {
                    out[dy * MB + dx] = l[dy];
                }
            }
        }
    }
    out
}

/// Encodes a frame as an H.264-lite intra bitstream.
///
/// # Panics
///
/// Panics if the frame dimensions are not multiples of 16 or `qp > 51`.
pub fn encode(frame: &Frame, qp: u8) -> Vec<u8> {
    assert!(qp <= 51, "QP must be 0..=51");
    assert!(
        frame.width.is_multiple_of(MB) && frame.height.is_multiple_of(MB),
        "frame dimensions must be multiples of 16"
    );
    let (width, height) = (frame.width, frame.height);
    let mut w = BitWriter::new();
    w.put_bits(MAGIC as u64, 16);
    w.put_bits(width as u64, 16);
    w.put_bits(height as u64, 16);
    w.put_bits(qp as u64, 8);

    let divs = qdivs(qp);
    let mut recon = vec![0u8; width * height];
    for mby in 0..height / MB {
        for mbx in 0..width / MB {
            // Mode decision by SAD against the source.
            let mut best: Option<(PredMode, u64, [u8; 256])> = None;
            for mode in [PredMode::Dc, PredMode::Vertical, PredMode::Horizontal] {
                let pred = predict(&recon, width, mbx, mby, mode);
                let mut sad = 0u64;
                for dy in 0..MB {
                    for dx in 0..MB {
                        let s = frame.at(mbx * MB + dx, mby * MB + dy) as i64;
                        let p = pred[dy * MB + dx] as i64;
                        sad += (s - p).unsigned_abs();
                    }
                }
                if best.as_ref().is_none_or(|(_, b, _)| sad < *b) {
                    best = Some((mode, sad, pred));
                }
            }
            let (mode, _, pred) = best.expect("three candidate modes");
            w.put_ue(mode.code());

            // Residual: 16 4×4 blocks, transform + quant + entropy, with
            // in-loop reconstruction.
            for by in 0..4 {
                for bx in 0..4 {
                    let mut x = [0i32; 16];
                    for dy in 0..4 {
                        for dx in 0..4 {
                            let px = mbx * MB + bx * 4 + dx;
                            let py = mby * MB + by * 4 + dy;
                            let p = pred[(by * 4 + dy) * MB + bx * 4 + dx];
                            x[dy * 4 + dx] = frame.at(px, py) as i32 - p as i32;
                        }
                    }
                    let z = quantise(&fwd4x4(&x), &divs);
                    // Entropy: zig-zag RLE, flag + ue(run) + se(level), EOB;
                    // the loop visits the nonzero levels only.
                    let mut nonzero = ZIGZAG4
                        .iter()
                        .enumerate()
                        .fold(0u32, |m, (k, &zi)| m | u32::from(z[zi] != 0) << k);
                    let mut next = 0;
                    while nonzero != 0 {
                        let k = nonzero.trailing_zeros() as usize;
                        w.put_run_level((k - next) as u64, z[ZIGZAG4[k]].into());
                        next = k + 1;
                        nonzero &= nonzero - 1;
                    }
                    w.put_bit(false);
                    // Reconstruct exactly as a decoder would, but only the
                    // blocks on the macroblock's last row or column: `predict`
                    // reads nothing else of `recon`.
                    if by == 3 || bx == 3 {
                        let r = inv4x4_exact(&dequantise(&z, &divs));
                        for dy in 0..4 {
                            for dx in 0..4 {
                                let px = mbx * MB + bx * 4 + dx;
                                let py = mby * MB + by * 4 + dy;
                                let p = pred[(by * 4 + dy) * MB + bx * 4 + dx] as i32;
                                recon[py * width + px] = (p + r[dy * 4 + dx]).clamp(0, 255) as u8;
                            }
                        }
                    }
                }
            }
        }
    }
    w.into_bytes()
}

/// Decodes an H.264-lite stream (verification counterpart of [`encode`]).
///
/// # Errors
///
/// [`H264Error`] on malformed input.
pub fn decode(data: &[u8]) -> Result<Frame, H264Error> {
    let mut r = BitReader::new(data);
    if r.get_bits(16)? as u16 != MAGIC {
        return Err(H264Error::BadMagic);
    }
    let width = r.get_bits(16)? as usize;
    let height = r.get_bits(16)? as usize;
    let qp = r.get_bits(8)? as u8;
    if width == 0
        || height == 0
        || !width.is_multiple_of(MB)
        || !height.is_multiple_of(MB)
        || qp > 51
    {
        return Err(H264Error::BadHeader);
    }

    let mut recon = vec![0u8; width * height];
    for mby in 0..height / MB {
        for mbx in 0..width / MB {
            let mode = PredMode::from_code(r.get_ue()?).ok_or(H264Error::Truncated)?;
            let pred = predict(&recon, width, mbx, mby, mode);
            for by in 0..4 {
                for bx in 0..4 {
                    let mut z = [0i32; 16];
                    let mut idx = 0usize;
                    while r.get_bit()? {
                        idx += r.get_ue()? as usize;
                        if idx >= 16 {
                            return Err(H264Error::Truncated);
                        }
                        z[ZIGZAG4[idx]] = r.get_se()? as i32;
                        idx += 1;
                    }
                    let res = inv4x4(&dequant(&z, qp));
                    for dy in 0..4 {
                        for dx in 0..4 {
                            let px = mbx * MB + bx * 4 + dx;
                            let py = mby * MB + by * 4 + dy;
                            let p = pred[(by * 4 + dy) * MB + bx * 4 + dx] as i32;
                            recon[py * width + px] = (p + res[dy * 4 + dx]).clamp(0, 255) as u8;
                        }
                    }
                }
            }
        }
    }
    Ok(Frame::from_pixels(width, height, recon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::VideoSource;

    /// The quantiser the encoder replaced with [`quantise`]: `qdiv` per
    /// coefficient and libm rounding.
    fn quant(w: &[i32; 16], qp: u8) -> [i32; 16] {
        let mut out = [0i32; 16];
        for i in 0..4 {
            for j in 0..4 {
                out[i * 4 + j] = (w[i * 4 + j] as f64 / qdiv(i, j, qp)).round() as i32;
            }
        }
        out
    }

    /// The encoder the rewrite replaced, with a per-coefficient entropy
    /// loop, the per-bit writer, the f64 quantiser and inverse transform
    /// with libm rounding, and all 16 blocks reconstructed: the oracle for
    /// [`encode`].
    fn reference_encode(frame: &Frame, qp: u8) -> Vec<u8> {
        let (width, height) = (frame.width, frame.height);
        let mut w = crate::bitio::reference::BitWriter::new();
        w.put_bits(MAGIC as u64, 16);
        w.put_bits(width as u64, 16);
        w.put_bits(height as u64, 16);
        w.put_bits(qp as u64, 8);
        let mut recon = vec![0u8; width * height];
        for mby in 0..height / MB {
            for mbx in 0..width / MB {
                let mut best: Option<(PredMode, u64, [u8; 256])> = None;
                for mode in [PredMode::Dc, PredMode::Vertical, PredMode::Horizontal] {
                    let pred = predict(&recon, width, mbx, mby, mode);
                    let mut sad = 0u64;
                    for dy in 0..MB {
                        for dx in 0..MB {
                            let s = frame.at(mbx * MB + dx, mby * MB + dy) as i64;
                            let p = pred[dy * MB + dx] as i64;
                            sad += (s - p).unsigned_abs();
                        }
                    }
                    if best.as_ref().is_none_or(|(_, b, _)| sad < *b) {
                        best = Some((mode, sad, pred));
                    }
                }
                let (mode, _, pred) = best.expect("three candidate modes");
                w.put_ue(mode.code());
                for by in 0..4 {
                    for bx in 0..4 {
                        let mut x = [0i32; 16];
                        for dy in 0..4 {
                            for dx in 0..4 {
                                let px = mbx * MB + bx * 4 + dx;
                                let py = mby * MB + by * 4 + dy;
                                let p = pred[(by * 4 + dy) * MB + bx * 4 + dx];
                                x[dy * 4 + dx] = frame.at(px, py) as i32 - p as i32;
                            }
                        }
                        let z = quant(&fwd4x4(&x), qp);
                        let mut run = 0u64;
                        for &zi in ZIGZAG4.iter() {
                            let level = z[zi];
                            if level == 0 {
                                run += 1;
                            } else {
                                w.put_bit(true);
                                w.put_ue(run);
                                w.put_se(level as i64);
                                run = 0;
                            }
                        }
                        w.put_bit(false);
                        let r = inv4x4(&dequant(&z, qp));
                        for dy in 0..4 {
                            for dx in 0..4 {
                                let px = mbx * MB + bx * 4 + dx;
                                let py = mby * MB + by * 4 + dy;
                                let p = pred[(by * 4 + dy) * MB + bx * 4 + dx] as i32;
                                recon[py * width + px] = (p + r[dy * 4 + dx]).clamp(0, 255) as u8;
                            }
                        }
                    }
                }
            }
        }
        w.into_bytes()
    }

    /// Strong vertical and horizontal structure, so the mode decision
    /// picks different modes across macroblocks.
    fn mode_exercising_frame() -> Frame {
        let mut pixels = vec![0u8; 320 * 240];
        for y in 0..240 {
            for x in 0..320 {
                pixels[y * 320 + x] = if x < 160 {
                    (y % 256) as u8
                } else {
                    (x % 256) as u8
                };
            }
        }
        Frame::from_pixels(320, 240, pixels)
    }

    #[test]
    fn encoder_matches_the_reference_bit_for_bit() {
        for qp in [0, 12, 28, 40, 51] {
            let frame = mode_exercising_frame();
            assert_eq!(encode(&frame, qp), reference_encode(&frame, qp), "QP {qp}");
            for seed in 1..=8 {
                let video = VideoSource::new(seed);
                for n in 0..4 {
                    let frame = video.frame(n);
                    assert_eq!(
                        encode(&frame, qp),
                        reference_encode(&frame, qp),
                        "seed {seed}, frame {n}, QP {qp}"
                    );
                }
            }
        }
    }

    #[test]
    fn round_i32_matches_libm_round() {
        let mut rng = rtft_kpn::SplitMix64::seed_from_u64(0x4264);
        for i in 0..1_000_000 {
            // Half in the encoder's proven range, half over all of |x| < 2³¹.
            let span = if i % 2 == 0 { 3_700.0 } else { 2_147_483_647.0 };
            let x = (rng.next_f64() * 2.0 - 1.0) * span;
            assert_eq!(round_i32(x), x.round() as i32, "{x}");
        }
        for k in -3_700..=3_700 {
            for x in [k as f64 - 0.5, k as f64 + 0.5, k as f64] {
                for x in [x, x.next_down(), x.next_up()] {
                    assert_eq!(round_i32(x), x.round() as i32, "{x}");
                }
            }
        }
        assert_eq!(round_i32(0.0), 0);
        assert_eq!(round_i32(-0.0), 0);
    }

    #[test]
    fn integer_inverse_transform_matches_f64() {
        let mut rng = rtft_kpn::SplitMix64::seed_from_u64(0x1D47);
        for _ in 0..1_000_000 {
            let w: [i32; 16] =
                std::array::from_fn(|_| (rng.next_u64() % (2 << 16) + 1) as i32 - (1 << 16) - 1);
            assert_eq!(inv4x4_exact(&w), inv4x4(&w), "{w:?}");
        }
        // Blocks with coefficients in one scale class only, so 400·X is a
        // multiple of 25, 10 or 4 and exact ties (|400·X| ≡ 200 mod 400)
        // are common: the f64 fallback is taken, and agrees.
        let mut ties = 0;
        for class in [25, 10, 4] {
            for _ in 0..20_000 {
                let w: [i32; 16] = std::array::from_fn(|k| {
                    let v = (rng.next_u64() % 601) as i32 - 300;
                    if SCALE400[k] == class {
                        v
                    } else {
                        0
                    }
                });
                if inv4x4_times400(&w).iter().any(|v| v.abs() % 400 == 200) {
                    ties += 1;
                }
                assert_eq!(inv4x4_exact(&w), inv4x4(&w), "{w:?}");
            }
        }
        assert!(ties > 5_000, "only {ties} tie blocks");
        // The smallest tie: a lone DC of 8 puts X = 0.5 everywhere.
        let mut w = [0; 16];
        w[0] = 8;
        assert_eq!(inv4x4_times400(&w), [200; 16]);
        assert_eq!(inv4x4_exact(&w), inv4x4(&w));
    }

    #[test]
    fn transform_roundtrip_is_exact() {
        let mut x = [0i32; 16];
        for (i, v) in x.iter_mut().enumerate() {
            *v = (i as i32 * 13 % 61) - 30;
        }
        assert_eq!(inv4x4(&fwd4x4(&x)), x, "C is orthogonal up to row norms");
    }

    #[test]
    fn qstep_follows_standard_law() {
        // QP+6 doubles the step.
        assert!((qstep(34) / qstep(28) - 2.0).abs() < 1e-9);
        assert!((qstep(0) - 0.625).abs() < 1e-9);
    }

    #[test]
    fn encode_decode_roundtrip_bounded_error() {
        let frame = VideoSource::new(1).frame(0);
        let bits = encode(&frame, 28);
        let decoded = decode(&bits).expect("valid stream");
        let mae = frame.mae(&decoded);
        assert!(mae < 4.0, "MAE {mae} at QP 28");
    }

    #[test]
    fn encoder_reconstruction_matches_decoder() {
        // The in-loop reconstruction must equal the decoder output exactly,
        // or intra prediction would drift.
        let frame = VideoSource::new(6).frame(2);
        let bits = encode(&frame, 36);
        let a = decode(&bits).unwrap();
        let bits2 = encode(&a, 36);
        // Re-encoding the decoded frame at the same QP is near-idempotent —
        // a weak but effective drift check.
        let b = decode(&bits2).unwrap();
        assert!(a.mae(&b) < 2.0);
    }

    #[test]
    fn qp_trades_size_for_error() {
        let frame = VideoSource::new(2).frame(1);
        let fine = encode(&frame, 16);
        let coarse = encode(&frame, 40);
        assert!(fine.len() > coarse.len());
        let mae_fine = frame.mae(&decode(&fine).unwrap());
        let mae_coarse = frame.mae(&decode(&coarse).unwrap());
        assert!(mae_fine < mae_coarse);
    }

    #[test]
    fn encoding_is_determinate() {
        let frame = VideoSource::new(8).frame(4);
        assert_eq!(encode(&frame, 28), encode(&frame, 28));
    }

    #[test]
    fn compresses_the_synthetic_video() {
        let frame = VideoSource::new(1).frame(0);
        let bits = encode(&frame, DEFAULT_QP);
        assert!(bits.len() < frame.pixels.len() / 2, "{} bytes", bits.len());
    }

    #[test]
    fn prediction_modes_are_all_exercised() {
        let frame = mode_exercising_frame();
        let bits = encode(&frame, 28);
        let decoded = decode(&bits).unwrap();
        assert!(frame.mae(&decoded) < 3.0);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(&[0u8; 16]).unwrap_err(), H264Error::BadMagic);
    }

    #[test]
    fn truncated_rejected() {
        let frame = VideoSource::new(1).frame(0);
        let bits = encode(&frame, 28);
        assert_eq!(decode(&bits[..40]).unwrap_err(), H264Error::Truncated);
    }

    #[test]
    #[should_panic(expected = "QP must be")]
    fn qp_out_of_range_rejected() {
        let _ = encode(&VideoSource::new(1).frame(0), 52);
    }
}
