//! The MJPEG-lite codec.
//!
//! A from-scratch motion-JPEG-style intra-frame codec: per 8×8 block a
//! forward DCT, JPEG-table quantisation, zig-zag scan, DPCM-coded DC and
//! run-length + Exp-Golomb coded AC coefficients. It is not bit-compatible
//! with JFIF (no external test vectors are available offline) but performs
//! the same computation per token, compresses the synthetic 320×240 frames
//! to roughly the paper's ~10 KB encoded size, and is **determinate**: the
//! encoded bytes are a pure function of the input frame, which is what the
//! paper's fault-tolerance framework requires of its replicas.

use crate::bitio::{BitReader, BitWriter, BitstreamExhausted};
use crate::dct::{dequantize_zigzag, fdct8x8, idct8x8, quantize_zigzag, scaled_qtable};
use crate::video::Frame;
use std::fmt;

/// Magic tag opening every MJPEG-lite bitstream.
const MAGIC: u16 = 0x4D4C; // "ML"

/// Default quality used by the experiments: compresses the synthetic video
/// to ≈10 KB per 320×240 frame, matching the paper's token size.
pub const DEFAULT_QUALITY: u8 = 50;

/// Decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MjpegError {
    /// Stream does not start with the MJPEG-lite magic.
    BadMagic,
    /// Width/height/quality fields are invalid.
    BadHeader,
    /// Bitstream ended prematurely.
    Truncated,
}

impl fmt::Display for MjpegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MjpegError::BadMagic => write!(f, "not an MJPEG-lite stream"),
            MjpegError::BadHeader => write!(f, "invalid MJPEG-lite header"),
            MjpegError::Truncated => write!(f, "truncated MJPEG-lite stream"),
        }
    }
}

impl std::error::Error for MjpegError {}

impl From<BitstreamExhausted> for MjpegError {
    fn from(_: BitstreamExhausted) -> Self {
        MjpegError::Truncated
    }
}

/// Encodes a frame at the given quality (1–100).
///
/// # Panics
///
/// Panics if `quality` is outside `1..=100` or the frame dimensions are
/// not multiples of 8.
pub fn encode(frame: &Frame, quality: u8) -> Vec<u8> {
    assert!(
        frame.width.is_multiple_of(8) && frame.height.is_multiple_of(8),
        "frame dimensions must be multiples of 8"
    );
    let qtable = scaled_qtable(quality);
    let mut w = BitWriter::new();
    w.put_bits(MAGIC as u64, 16);
    w.put_bits(frame.width as u64, 16);
    w.put_bits(frame.height as u64, 16);
    w.put_bits(quality as u64, 8);

    let mut prev_dc: i16 = 0;
    for by in (0..frame.height).step_by(8) {
        for bx in (0..frame.width).step_by(8) {
            let mut block = [0u8; 64];
            for (y, row) in block.chunks_exact_mut(8).enumerate() {
                let start = (by + y) * frame.width + bx;
                row.copy_from_slice(&frame.pixels[start..start + 8]);
            }
            let q = quantize_zigzag(&fdct8x8(&block), &qtable);
            // DPCM-coded DC.
            w.put_se((q[0] - prev_dc) as i64);
            prev_dc = q[0];
            // RLE-coded AC: (run of zeros, level)*, terminated by EOB. The
            // loop visits the nonzero levels only, lowest index first.
            let mut nonzero = q[1..]
                .iter()
                .enumerate()
                .fold(0u64, |m, (i, &level)| m | u64::from(level != 0) << (i + 1));
            let mut next = 1;
            while nonzero != 0 {
                let i = nonzero.trailing_zeros() as usize;
                w.put_run_level((i - next) as u64, q[i].into());
                next = i + 1;
                nonzero &= nonzero - 1;
            }
            w.put_bit(false); // EOB
        }
    }
    w.into_bytes()
}

/// Decodes an MJPEG-lite stream back into a frame.
///
/// # Errors
///
/// [`MjpegError`] on malformed or truncated input.
pub fn decode(data: &[u8]) -> Result<Frame, MjpegError> {
    let mut r = BitReader::new(data);
    if r.get_bits(16)? as u16 != MAGIC {
        return Err(MjpegError::BadMagic);
    }
    let width = r.get_bits(16)? as usize;
    let height = r.get_bits(16)? as usize;
    let quality = r.get_bits(8)? as u8;
    if width == 0 || height == 0 || !width.is_multiple_of(8) || !height.is_multiple_of(8) {
        return Err(MjpegError::BadHeader);
    }
    if !(1..=100).contains(&quality) {
        return Err(MjpegError::BadHeader);
    }
    let qtable = scaled_qtable(quality);
    let mut pixels = vec![0u8; width * height];

    let mut prev_dc: i16 = 0;
    for by in (0..height).step_by(8) {
        for bx in (0..width).step_by(8) {
            let mut q = [0i16; 64];
            prev_dc = prev_dc.wrapping_add(r.get_se()? as i16);
            q[0] = prev_dc;
            let mut idx = 1usize;
            while r.get_bit()? {
                let run = r.get_ue()? as usize;
                let level = r.get_se()? as i16;
                // A corrupted run length can be anything up to `u64::MAX`.
                idx = idx.saturating_add(run);
                if idx >= 64 {
                    return Err(MjpegError::Truncated);
                }
                q[idx] = level;
                idx += 1;
            }
            let block = idct8x8(&dequantize_zigzag(&q, &qtable));
            for y in 0..8 {
                for x in 0..8 {
                    pixels[(by + y) * width + bx + x] = block[y * 8 + x];
                }
            }
        }
    }
    Ok(Frame::from_pixels(width, height, pixels))
}

/// Splits an encoded frame into `parts` roughly equal byte slices — the
/// `splitstream` stage of the paper's MJPEG pipeline (Fig. 2). Parts carry
/// a 4-byte length prefix so `merge_parts` can reassemble exactly.
pub fn split_stream(data: &[u8], parts: usize) -> Vec<Vec<u8>> {
    assert!(parts > 0, "need at least one part");
    let chunk = data.len().div_ceil(parts);
    (0..parts)
        .map(|i| {
            let start = (i * chunk).min(data.len());
            let end = ((i + 1) * chunk).min(data.len());
            let body = &data[start..end];
            let mut out = Vec::with_capacity(4 + body.len());
            out.extend_from_slice(&(body.len() as u32).to_le_bytes());
            out.extend_from_slice(body);
            out
        })
        .collect()
}

/// Reassembles the parts produced by [`split_stream`] — the `mergeframe`
/// counterpart stage.
///
/// # Errors
///
/// Returns [`MjpegError::Truncated`] if any part is shorter than its
/// length prefix promises.
pub fn merge_parts(parts: &[Vec<u8>]) -> Result<Vec<u8>, MjpegError> {
    let mut out = Vec::new();
    for p in parts {
        if p.len() < 4 {
            return Err(MjpegError::Truncated);
        }
        let len = u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
        if p.len() < 4 + len {
            return Err(MjpegError::Truncated);
        }
        out.extend_from_slice(&p[4..4 + len]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::VideoSource;

    /// The per-coefficient encoder the rewrite replaced, on the per-bit
    /// writer and the libm quantiser: the oracle for [`encode`].
    fn reference_encode(frame: &Frame, quality: u8) -> Vec<u8> {
        use crate::bitio::reference::BitWriter;
        use crate::dct::reference::quantize_zigzag;
        let qtable = scaled_qtable(quality);
        let mut w = BitWriter::new();
        w.put_bits(MAGIC as u64, 16);
        w.put_bits(frame.width as u64, 16);
        w.put_bits(frame.height as u64, 16);
        w.put_bits(quality as u64, 8);
        let mut prev_dc: i16 = 0;
        for by in (0..frame.height).step_by(8) {
            for bx in (0..frame.width).step_by(8) {
                let mut block = [0u8; 64];
                for y in 0..8 {
                    for x in 0..8 {
                        block[y * 8 + x] = frame.at(bx + x, by + y);
                    }
                }
                let q = quantize_zigzag(&fdct8x8(&block), &qtable);
                w.put_se((q[0] - prev_dc) as i64);
                prev_dc = q[0];
                let mut run = 0u64;
                for &level in &q[1..] {
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
            }
        }
        w.into_bytes()
    }

    #[test]
    fn encoder_matches_the_reference_bit_for_bit() {
        for quality in [1, 10, 50, 90, 100] {
            for seed in 1..=8 {
                let video = VideoSource::new(seed);
                for n in 0..4 {
                    let frame = video.frame(n);
                    assert_eq!(
                        encode(&frame, quality),
                        reference_encode(&frame, quality),
                        "seed {seed}, frame {n}, quality {quality}"
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip_preserves_content_within_quantization_error() {
        let frame = VideoSource::new(1).frame(0);
        let encoded = encode(&frame, 75);
        let decoded = decode(&encoded).expect("valid stream");
        assert_eq!((decoded.width, decoded.height), (frame.width, frame.height));
        let mae = frame.mae(&decoded);
        assert!(mae < 6.0, "MAE {mae} too high for quality 75");
    }

    #[test]
    fn encoded_size_matches_paper_token() {
        // The paper's encoded frame token is ~10 KB for 320x240.
        let frame = VideoSource::new(1).frame(3);
        let encoded = encode(&frame, DEFAULT_QUALITY);
        assert!(
            (4_000..20_000).contains(&encoded.len()),
            "encoded size {} far from the paper's ~10 KB",
            encoded.len()
        );
    }

    #[test]
    fn encoding_is_determinate() {
        // Two replicas encode the same frame to identical bytes — the
        // foundation of the duplicate-pair logic.
        let frame = VideoSource::new(5).frame(11);
        assert_eq!(encode(&frame, 50), encode(&frame, 50));
    }

    #[test]
    fn quality_trades_size_for_error() {
        let frame = VideoSource::new(2).frame(0);
        let lo = encode(&frame, 20);
        let hi = encode(&frame, 90);
        assert!(hi.len() > lo.len(), "higher quality must cost bits");
        let mae_lo = frame.mae(&decode(&lo).unwrap());
        let mae_hi = frame.mae(&decode(&hi).unwrap());
        assert!(mae_hi < mae_lo, "higher quality must reduce error");
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(&[0u8; 32]).unwrap_err(), MjpegError::BadMagic);
    }

    #[test]
    fn truncated_stream_rejected() {
        let frame = VideoSource::new(1).frame(0);
        let encoded = encode(&frame, 50);
        let err = decode(&encoded[..encoded.len() / 2]).unwrap_err();
        assert_eq!(err, MjpegError::Truncated);
    }

    #[test]
    fn split_merge_roundtrip() {
        let frame = VideoSource::new(1).frame(2);
        let encoded = encode(&frame, 50);
        for parts in [1usize, 2, 3, 7] {
            let split = split_stream(&encoded, parts);
            assert_eq!(split.len(), parts);
            let merged = merge_parts(&split).expect("merge");
            assert_eq!(merged, encoded, "parts={parts}");
        }
    }

    #[test]
    fn split_empty_stream() {
        let split = split_stream(&[], 2);
        assert_eq!(merge_parts(&split).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn merge_rejects_corrupt_part() {
        let bad = vec![vec![9, 0, 0, 0, 1]]; // promises 9 bytes, has 1
        assert_eq!(merge_parts(&bad).unwrap_err(), MjpegError::Truncated);
    }

    #[test]
    fn full_pipeline_split_decode_merge() {
        // The shape of the paper's decoder replica: split the encoded
        // stream, ship the halves, merge, decode.
        let frame = VideoSource::new(4).frame(9);
        let encoded = encode(&frame, 60);
        let halves = split_stream(&encoded, 2);
        let merged = merge_parts(&halves).unwrap();
        let decoded = decode(&merged).unwrap();
        assert!(frame.mae(&decoded) < 7.0);
        assert_eq!(decoded.pixels.len(), 76_800);
    }
}
