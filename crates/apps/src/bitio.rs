//! Bit-level I/O and Exp-Golomb coding, shared by the MJPEG-lite and
//! H.264-lite entropy coders.

/// MSB-first bit writer.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the final byte (0–7).
    bit_pos: u8,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the lowest `count` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn put_bits(&mut self, value: u64, count: u8) {
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

    /// Appends a single bit.
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(bit as u64, 1);
    }

    /// Unsigned Exp-Golomb code (`ue(v)` in H.264 parlance).
    pub fn put_ue(&mut self, v: u64) {
        let code = v + 1;
        let len = 64 - code.leading_zeros() as u8; // bit length of code
        self.put_bits(0, len - 1); // leading zeros
        self.put_bits(code, len);
    }

    /// Signed Exp-Golomb code (`se(v)`): 0, 1, −1, 2, −2, …
    pub fn put_se(&mut self, v: i64) {
        let mapped = if v > 0 {
            (v as u64) * 2 - 1
        } else {
            (-v as u64) * 2
        };
        self.put_ue(mapped);
    }

    /// Finishes the stream (zero-padding the final byte) and returns the
    /// bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
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
            (w.bit_pos, w.into_bytes())
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
}
