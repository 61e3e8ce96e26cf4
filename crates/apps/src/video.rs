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
        self.render(&self.texture(), n)
    }

    /// Frames `0..count`, built one at a time as the iterator is advanced.
    /// The texture is computed once for all of them.
    pub fn frames(&self, count: u64) -> impl Iterator<Item = Frame> {
        let (src, texture) = (*self, self.texture());
        (0..count).map(move |n| src.render(&texture, n))
    }

    /// The part of every frame that does not move: deterministic
    /// mid/high-frequency texture (hash noise plus a fine checker
    /// modulation), so the codec output lands near the paper's ~10 KB
    /// encoded frame instead of compressing a flat gradient to nothing.
    /// The hash of `(x, y)` is `(x·A + y·B + seed)·C`, so along a row it
    /// steps by `A·C`.
    fn texture(&self) -> Vec<i8> {
        const A: u64 = 0x9e37_79b9;
        const B: u64 = 0x85eb_ca6b;
        const C: u64 = 0xc2b2_ae35;
        let mut texture = vec![0i8; FRAME_BYTES];
        for (y, row) in texture.chunks_exact_mut(FRAME_WIDTH).enumerate() {
            let mut h = (y as u64)
                .wrapping_mul(B)
                .wrapping_add(self.seed)
                .wrapping_mul(C);
            for (x, t) in row.iter_mut().enumerate() {
                let noise = ((h >> 24) % 31) as i8 - 15;
                let checker = if (x / 2 + y / 2) % 2 == 0 { 6 } else { -6 };
                *t = noise + checker;
                h = h.wrapping_add(A.wrapping_mul(C));
            }
        }
        texture
    }

    /// Frame `n`: a diagonally drifting gradient and a moving bright disc
    /// over `texture`.
    fn render(&self, texture: &[i8], n: u64) -> Frame {
        let mut pixels = vec![0u8; FRAME_BYTES];
        let phase = (self.seed % 251) as i64 + n as i64 * 3;
        let (cx, cy) = (
            60 + (n as i64 * 5 + phase) % (FRAME_WIDTH as i64 - 120),
            60 + (n as i64 * 3) % (FRAME_HEIGHT as i64 - 120),
        );
        // The gradient at (x, y) is `((x + y + phase) / 4) % 200`, so it
        // depends on `x + y` only: row `y` is `strip[y..y + FRAME_WIDTH]`.
        let strip: Vec<i32> = (0..(FRAME_WIDTH + FRAME_HEIGHT - 1) as i64)
            .map(|k| (phase.wrapping_add(k) / 4 % 200) as i32)
            .collect();
        let rows = pixels
            .chunks_exact_mut(FRAME_WIDTH)
            .zip(texture.chunks_exact(FRAME_WIDTH));
        for (y, (row, texture)) in rows.enumerate() {
            let grads = &strip[y..y + FRAME_WIDTH];
            // |dx|, |dy| < 500: the disc test fits in i32.
            let dy = (y as i64 - cy) as i32;
            for (x, ((p, &t), &grad)) in row.iter_mut().zip(texture).zip(grads).enumerate() {
                let dx = x as i32 - cx as i32;
                let disc = if dx * dx + dy * dy < 1600 { 55 } else { 0 };
                *p = (grad + disc + i32::from(t) + 20).clamp(0, 255) as u8;
            }
        }
        Frame::from_pixels(FRAME_WIDTH, FRAME_HEIGHT, pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-pixel formula the texture-once rewrite replaced.
    fn reference_frame(seed: u64, n: u64) -> Frame {
        let mut pixels = vec![0u8; FRAME_BYTES];
        let phase = (seed % 251) as i64 + n as i64 * 3;
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
                let h = (x as u64)
                    .wrapping_mul(0x9e37_79b9)
                    .wrapping_add((y as u64).wrapping_mul(0x85eb_ca6b))
                    .wrapping_add(seed)
                    .wrapping_mul(0xc2b2_ae35);
                let noise = ((h >> 24) % 31) as i64 - 15;
                let checker = if (x / 2 + y / 2) % 2 == 0 { 6 } else { -6 };
                pixels[y * FRAME_WIDTH + x] =
                    (grad + disc + noise + checker + 20).clamp(0, 255) as u8;
            }
        }
        Frame::from_pixels(FRAME_WIDTH, FRAME_HEIGHT, pixels)
    }

    #[test]
    fn frames_match_the_per_pixel_formula() {
        for seed in [0, 250, 251, 1 << 40, u64::MAX] {
            let src = VideoSource::new(seed);
            for (n, frame) in (0..).zip(src.frames(4)) {
                let reference = reference_frame(seed, n);
                assert!(frame == reference, "frames(4), seed {seed}, frame {n}");
                assert!(src.frame(n) == reference, "frame({n}), seed {seed}");
            }
            // Indices past `i64::MAX` read as negative: so may the phase be.
            for n in [u64::MAX, u64::MAX - 99] {
                assert!(src.frame(n) == reference_frame(seed, n), "frame({n})");
            }
        }
    }

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
