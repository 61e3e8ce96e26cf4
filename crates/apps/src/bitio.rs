//! Bit-level I/O and Exp-Golomb coding, shared by the MJPEG-lite and
//! H.264-lite entropy coders.

/// MSB-first bit writer.
///
/// Bits collect in a 64-bit accumulator and move into `bytes` a whole
/// 32-bit word at a time, so a symbol of up to 32 bits costs one shift-or.
/// The bytes are those of writing one bit at a time.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// The last `pending` bits written, in its low bits; higher bits are
    /// already in `bytes`.
    acc: u64,
    /// Bits held in `acc` and not yet in `bytes` (0–31).
    pending: u32,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the lowest `count ≤ 32` bits of `value`, MSB first.
    fn push(&mut self, value: u64, count: u32) {
        debug_assert!(count <= 32);
        self.acc = (self.acc << count) | (value & ((1u64 << count) - 1));
        self.pending += count;
        if self.pending >= 32 {
            self.pending -= 32;
            let word = (self.acc >> self.pending) as u32;
            self.bytes.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Appends the lowest `count` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn put_bits(&mut self, value: u64, count: u8) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        let count = u32::from(count);
        if count > 32 {
            self.push(value >> 32, count - 32);
            self.push(value, 32);
        } else {
            self.push(value, count);
        }
    }

    /// Appends a single bit.
    pub fn put_bit(&mut self, bit: bool) {
        self.push(bit as u64, 1);
    }

    /// Unsigned Exp-Golomb code (`ue(v)` in H.264 parlance).
    pub fn put_ue(&mut self, v: u64) {
        let code = v + 1;
        let len = 64 - code.leading_zeros(); // bit length of code
        if len <= 16 {
            // Leading zeros and code in one write.
            self.push(code, 2 * len - 1);
        } else {
            self.put_bits(0, len as u8 - 1);
            self.put_bits(code, len as u8);
        }
    }

    /// Signed Exp-Golomb code (`se(v)`): 0, 1, −1, 2, −2, …
    pub fn put_se(&mut self, v: i64) {
        self.put_ue(se_mapped(v));
    }

    /// One run-length symbol of the entropy coders: a set flag bit,
    /// `ue(run)` and `se(level)`. The three codes go in as one write when
    /// they fit in 32 bits, as three otherwise; the bytes are the same.
    pub fn put_run_level(&mut self, run: u64, level: i64) {
        let run_code = run + 1;
        let level_code = se_mapped(level) + 1;
        let run_len = 64 - run_code.leading_zeros();
        let level_len = 64 - level_code.leading_zeros();
        let total = 2 * (run_len + level_len) - 1;
        if total <= 32 {
            let level_bits = 2 * level_len - 1;
            let value = (1 << (total - 1)) | (run_code << level_bits) | level_code;
            self.push(value, total);
        } else {
            self.put_bit(true);
            self.put_ue(run);
            self.put_se(level);
        }
    }

    /// Finishes the stream (zero-padding the final byte) and returns the
    /// bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.pending > 0 {
            let word = ((self.acc << (32 - self.pending)) as u32).to_be_bytes();
            self.bytes
                .extend_from_slice(&word[..self.pending.div_ceil(8) as usize]);
        }
        self.bytes
    }
}

/// The `ue` argument `se(v)` codes: 0, 1, −1, 2, −2, … → 0, 1, 2, 3, 4, …
fn se_mapped(v: i64) -> u64 {
    if v > 0 {
        (v as u64) * 2 - 1
    } else {
        (-v as u64) * 2
    }
}

/// MSB-first bit reader over a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize, // absolute bit position
}

/// Error from reading past the end of a bitstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitstreamExhausted;

impl std::fmt::Display for BitstreamExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bitstream exhausted")
    }
}

impl std::error::Error for BitstreamExhausted {}

impl<'a> BitReader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads `count` bits, MSB first.
    ///
    /// # Errors
    ///
    /// [`BitstreamExhausted`] past the end of input.
    pub fn get_bits(&mut self, count: u8) -> Result<u64, BitstreamExhausted> {
        let mut out = 0u64;
        for _ in 0..count {
            let byte = self.pos / 8;
            if byte >= self.bytes.len() {
                return Err(BitstreamExhausted);
            }
            let bit = (self.bytes[byte] >> (7 - (self.pos % 8))) & 1;
            out = (out << 1) | bit as u64;
            self.pos += 1;
        }
        Ok(out)
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// [`BitstreamExhausted`] past the end of input.
    pub fn get_bit(&mut self) -> Result<bool, BitstreamExhausted> {
        Ok(self.get_bits(1)? == 1)
    }

    /// Reads an unsigned Exp-Golomb code.
    ///
    /// # Errors
    ///
    /// [`BitstreamExhausted`] past the end of input.
    pub fn get_ue(&mut self) -> Result<u64, BitstreamExhausted> {
        let mut zeros = 0u8;
        while !self.get_bit()? {
            zeros += 1;
            if zeros > 63 {
                return Err(BitstreamExhausted);
            }
        }
        let rest = self.get_bits(zeros)?;
        Ok(((1u64 << zeros) | rest) - 1)
    }

    /// Reads a signed Exp-Golomb code.
    ///
    /// # Errors
    ///
    /// [`BitstreamExhausted`] past the end of input.
    pub fn get_se(&mut self) -> Result<i64, BitstreamExhausted> {
        let v = self.get_ue()?;
        Ok(if v % 2 == 1 {
            (v.div_ceil(2)) as i64
        } else {
            -((v / 2) as i64)
        })
    }
}

/// The one-bit-at-a-time writer the accumulator replaced, kept as the
/// oracle the encoders' bitstreams are checked against.
#[cfg(test)]
pub(crate) mod reference {
    /// MSB-first bit writer, one bit per step.
    #[derive(Debug, Default)]
    pub(crate) struct BitWriter {
        bytes: Vec<u8>,
        /// Bits already used in the final byte (0–7).
        bit_pos: u8,
    }

    impl BitWriter {
        pub(crate) fn new() -> Self {
            Self::default()
        }

        pub(crate) fn put_bits(&mut self, value: u64, count: u8) {
            assert!(count <= 64, "cannot write more than 64 bits at once");
            for i in (0..count).rev() {
                let bit = ((value >> i) & 1) as u8;
                if self.bit_pos == 0 {
                    self.bytes.push(0);
                }
                let last = self.bytes.last_mut().expect("byte pushed");
                *last |= bit << (7 - self.bit_pos);
                self.bit_pos = (self.bit_pos + 1) % 8;
            }
        }

        pub(crate) fn put_bit(&mut self, bit: bool) {
            self.put_bits(bit as u64, 1);
        }

        pub(crate) fn put_ue(&mut self, v: u64) {
            let code = v + 1;
            let len = 64 - code.leading_zeros() as u8;
            self.put_bits(0, len - 1);
            self.put_bits(code, len);
        }

        pub(crate) fn put_se(&mut self, v: i64) {
            let mapped = if v > 0 {
                (v as u64) * 2 - 1
            } else {
                (-v as u64) * 2
            };
            self.put_ue(mapped);
        }

        pub(crate) fn into_bytes(self) -> Vec<u8> {
            self.bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.put_bits(0xDEAD, 16);
        w.put_bit(true);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(3).unwrap(), 0b101);
        assert_eq!(r.get_bits(16).unwrap(), 0xDEAD);
        assert!(r.get_bit().unwrap());
    }

    #[test]
    fn ue_roundtrip_exhaustive_small() {
        for v in 0..1000u64 {
            let mut w = BitWriter::new();
            w.put_ue(v);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.get_ue().unwrap(), v);
        }
    }

    #[test]
    fn se_roundtrip() {
        for v in -500i64..=500 {
            let mut w = BitWriter::new();
            w.put_se(v);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.get_se().unwrap(), v, "v={v}");
        }
    }

    #[test]
    fn ue_known_codewords() {
        // Classic table: 0 → "1", 1 → "010", 2 → "011", 3 → "00100".
        // Each code fits one byte, so the bits used in it are its length.
        let encode = |v: u64| {
            let mut w = BitWriter::new();
            w.put_ue(v);
            (w.pending, w.into_bytes())
        };
        assert_eq!(encode(0), (1, vec![0b1000_0000]));
        assert_eq!(encode(1), (3, vec![0b0100_0000]));
        assert_eq!(encode(2), (3, vec![0b0110_0000]));
        assert_eq!(encode(3), (5, vec![0b0010_0000]));
    }

    #[test]
    fn exhaustion_is_reported() {
        let bytes = [0u8; 1];
        let mut r = BitReader::new(&bytes);
        assert!(r.get_bits(8).is_ok());
        assert_eq!(r.get_bit(), Err(BitstreamExhausted));
        // All-zero stream never terminates a ue() prefix.
        let mut r2 = BitReader::new(&bytes);
        assert!(r2.get_ue().is_err());
    }

    /// Levels around every power of two up to 2²⁰, and all small ones.
    fn levels() -> impl Iterator<Item = i64> {
        let edges = (9..=20).flat_map(|k| {
            let p = 1i64 << k;
            [p - 1, p, p + 1].into_iter().flat_map(|v| [v, -v])
        });
        (-300..=300).chain(edges)
    }

    #[test]
    fn run_level_symbols_match_flag_ue_se_across_the_32_bit_fallback() {
        for prefix in 0..8u8 {
            let mut fast = BitWriter::new();
            let mut per_bit = reference::BitWriter::new();
            fast.put_bits(0b1011_0101, prefix);
            per_bit.put_bits(0b1011_0101, prefix);
            for run in 0..=63u64 {
                for level in levels() {
                    fast.put_run_level(run, level);
                    per_bit.put_bit(true);
                    per_bit.put_ue(run);
                    per_bit.put_se(level);
                }
            }
            assert_eq!(fast.into_bytes(), per_bit.into_bytes(), "prefix {prefix}");
        }
        // Run 63 and level 2²⁰ take 57 bits: the three-write path.
        let mut w = BitWriter::new();
        w.put_run_level(63, 1 << 20);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(r.get_bit().unwrap());
        assert_eq!(r.get_ue().unwrap(), 63);
        assert_eq!(r.get_se().unwrap(), 1 << 20);
    }

    #[test]
    fn accumulator_writes_the_bytes_of_the_per_bit_writer() {
        let mut fast = BitWriter::new();
        let mut per_bit = reference::BitWriter::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for count in (0..=64u8).cycle().take(2_000) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            fast.put_bits(x, count);
            per_bit.put_bits(x, count);
            let v = x >> (x % 64);
            fast.put_ue(v.min(u64::MAX - 1));
            per_bit.put_ue(v.min(u64::MAX - 1));
            fast.put_se((x as i64) >> (x % 63 + 1));
            per_bit.put_se((x as i64) >> (x % 63 + 1));
        }
        for k in 0..64 {
            let p = 1u64 << k;
            for v in [p - 1, p, p.saturating_add(1)] {
                fast.put_ue(v.min(u64::MAX - 1));
                per_bit.put_ue(v.min(u64::MAX - 1));
            }
        }
        assert_eq!(fast.into_bytes(), per_bit.into_bytes());
    }
}
