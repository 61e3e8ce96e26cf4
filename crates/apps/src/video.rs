//! Synthetic video workloads.
//!
//! The paper's MJPEG experiments decode 320×240 frames (76.8 KB decoded,
//! ~10 KB encoded, ~30 fps). Picture content is irrelevant to the
//! framework — only sizes and rates matter — so we synthesise greyscale
//! frames with enough structure (moving gradients plus deterministic
//! texture) that the codec does real work and compresses to roughly the
//! paper's encoded size.

use rtft_kpn::Bytes;

/// Frame width used throughout the experiments.
pub const FRAME_WIDTH: usize = 320;
/// Frame height used throughout the experiments.
pub const FRAME_HEIGHT: usize = 240;
/// Bytes per decoded greyscale frame (the paper's 76.8 KB token).
pub const FRAME_BYTES: usize = FRAME_WIDTH * FRAME_HEIGHT;

/// A greyscale frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Pixel width.
    pub width: usize,
    /// Pixel height.
    pub height: usize,
    /// Row-major luma samples.
    pub pixels: Vec<u8>,
}

impl Frame {
    /// A frame from raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height`.
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<u8>) -> Self {
        assert_eq!(pixels.len(), width * height, "pixel count mismatch");
        Frame {
            width,
            height,
            pixels,
        }
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, x: usize, y: usize) -> u8 {
        self.pixels[y * self.width + x]
    }

    /// The frame as an owned byte buffer.
    pub fn into_bytes(self) -> Bytes {
        Bytes::from(self.pixels)
    }

    /// Mean absolute pixel difference to another frame.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    pub fn mae(&self, other: &Frame) -> f64 {
        assert_eq!((self.width, self.height), (other.width, other.height));
        let sum: u64 = self
            .pixels
            .iter()
            .zip(other.pixels.iter())
            .map(|(a, b)| (*a as i16 - *b as i16).unsigned_abs() as u64)
            .sum();
        sum as f64 / self.pixels.len() as f64
    }
}

/// Deterministic synthetic video: a diagonally drifting gradient with a
/// moving bright disc and mild texture. Frame `n` is a pure function of
/// `(seed, n)`.
#[derive(Debug, Clone, Copy)]
pub struct VideoSource {
    seed: u64,
}

impl VideoSource {
    /// A source with the given seed.
    pub fn new(seed: u64) -> Self {
        VideoSource { seed }
    }

    /// Generates frame `n` at the experiment geometry.
    pub fn frame(&self, n: u64) -> Frame {
        let mut pixels = vec![0u8; FRAME_BYTES];
        let phase = (self.seed % 251) as i64 + n as i64 * 3;
        let (cx, cy) = (
            60 + (n as i64 * 5 + phase) % (FRAME_WIDTH as i64 - 120),
            60 + (n as i64 * 3) % (FRAME_HEIGHT as i64 - 120),
        );
        for y in 0..FRAME_HEIGHT {
            for x in 0..FRAME_WIDTH {
                let grad = ((x as i64 + y as i64 + phase) / 4) % 200;
                let dx = x as i64 - cx;
                let dy = y as i64 - cy;
                let disc = if dx * dx + dy * dy < 1600 { 55 } else { 0 };
                // Deterministic mid/high-frequency texture (hash noise plus
                // a fine checker modulation) so the codec output lands near
                // the paper's ~10 KB encoded frame instead of compressing
                // a flat gradient to nothing.
                let h = (x as u64)
                    .wrapping_mul(0x9e37_79b9)
                    .wrapping_add((y as u64).wrapping_mul(0x85eb_ca6b))
                    .wrapping_add(self.seed)
                    .wrapping_mul(0xc2b2_ae35);
                let noise = ((h >> 24) % 31) as i64 - 15;
                let checker = if (x / 2 + y / 2) % 2 == 0 { 6 } else { -6 };
                pixels[y * FRAME_WIDTH + x] =
                    (grad + disc + noise + checker + 20).clamp(0, 255) as u8;
            }
        }
        Frame::from_pixels(FRAME_WIDTH, FRAME_HEIGHT, pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_geometry_matches_paper() {
        let f = VideoSource::new(1).frame(0);
        assert_eq!(f.pixels.len(), 76_800, "76.8 KB decoded token");
    }

    #[test]
    fn frames_are_deterministic() {
        let a = VideoSource::new(9).frame(5);
        let b = VideoSource::new(9).frame(5);
        assert_eq!(a, b);
    }

    #[test]
    fn consecutive_frames_differ() {
        let src = VideoSource::new(9);
        assert_ne!(src.frame(0), src.frame(1), "motion must be present");
        assert!(src.frame(0).mae(&src.frame(1)) > 0.1);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(VideoSource::new(1).frame(0), VideoSource::new(2).frame(0));
    }

    #[test]
    fn frames_use_wide_dynamic_range() {
        let f = VideoSource::new(3).frame(7);
        let min = f.pixels.iter().min().unwrap();
        let max = f.pixels.iter().max().unwrap();
        assert!(
            max - min > 100,
            "range {min}..{max} too flat to exercise the codec"
        );
    }

    #[test]
    fn mae_of_identical_frames_is_zero() {
        let f = VideoSource::new(3).frame(0);
        assert_eq!(f.mae(&f), 0.0);
    }

    #[test]
    #[should_panic(expected = "pixel count mismatch")]
    fn bad_geometry_rejected() {
        let _ = Frame::from_pixels(10, 10, vec![0; 99]);
    }
}
