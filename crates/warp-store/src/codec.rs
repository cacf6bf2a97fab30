//! A small self-describing binary codec and a CRC32 implementation.
//!
//! The workspace's `serde` is an offline shim with no wire format, so the
//! storage subsystem defines its own primitives: fixed-width little-endian
//! integers, and length-prefixed strings, byte blobs and sequences.
//! `warp-core` builds its record and checkpoint encodings from these
//! primitives through `warp_core::wire`, where each persisted type states
//! its layout once.

/// A decode failure: the bytes did not match the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decoding.
pub type CodecResult<T> = Result<T, CodecError>;

/// Serializes values into a byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Creates an empty encoder with room for `capacity` bytes, for callers
    /// that know the encoded size and want the buffer allocated once.
    pub fn with_capacity(capacity: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an f64 as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes a sequence: a u32 count, then each element.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        for item in items {
            f(self, item);
        }
    }
}

/// Deserializes values from a byte buffer.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over the given bytes.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fails unless every byte has been consumed (trailing garbage would
    /// mean the reader and writer disagree about the format).
    pub fn finish(&self) -> CodecResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "needed {n} bytes, only {} remain",
                self.remaining()
            )));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is an error.
    pub fn bool(&mut self) -> CodecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> CodecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> CodecResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> CodecResult<i64> {
        Ok(self.u64()? as i64)
    }

    /// Reads an f64 from its bit pattern.
    pub fn f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte blob as a slice of the input.
    pub fn slice(&mut self) -> CodecResult<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> CodecResult<Vec<u8>> {
        Ok(self.slice()?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> CodecResult<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes).map_err(|e| CodecError(format!("invalid UTF-8 string: {e}")))
    }

    /// Reads a sequence written by [`Encoder::seq`].
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> CodecResult<T>,
    ) -> CodecResult<Vec<T>> {
        let n = self.u32()? as usize;
        // Guard against a corrupt count larger than the remaining bytes
        // (each element takes at least one byte).
        if n > self.remaining() {
            return Err(CodecError(format!(
                "sequence count {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

/// The standard CRC-32 (IEEE 802.3) byte table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The slicing-by-8 tables: `CRC_SLICES[k][b]` is the CRC state that byte
/// `b` becomes after `k` further zero bytes, so eight input bytes fold into
/// the state with eight independent lookups instead of a chain of eight
/// dependent ones. Row 0 is [`CRC_TABLE`]; same polynomial, same checksums.
const CRC_SLICES: [[u32; 256]; 8] = {
    let mut slices = [CRC_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
};

/// Computes the CRC-32 (IEEE) checksum of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// A streaming CRC-32 (IEEE) state, for checksumming data that is built
/// in pieces — the record frame writer hashes `kind` and `payload` without
/// first concatenating them into a scratch `Vec`.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = CRC_SLICES[7][(lo & 0xFF) as usize]
                ^ CRC_SLICES[6][((lo >> 8) & 0xFF) as usize]
                ^ CRC_SLICES[5][((lo >> 16) & 0xFF) as usize]
                ^ CRC_SLICES[4][(lo >> 24) as usize]
                ^ CRC_SLICES[3][w[4] as usize]
                ^ CRC_SLICES[2][w[5] as usize]
                ^ CRC_SLICES[1][w[6] as usize]
                ^ CRC_SLICES[0][w[7] as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.bool(true);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.i64(-42);
        e.f64(1.5);
        e.str("héllo");
        e.bytes(&[1, 2, 3]);
        e.seq(&[10i64, 20, 30], |e, v| e.i64(*v));
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), 1.5);
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.seq(|d| d.i64()).unwrap(), vec![10, 20, 30]);
        d.finish().unwrap();
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut e = Encoder::new();
        e.str("a long enough string");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..bytes.len() - 1]);
        assert!(d.str().is_err());
        // A corrupt sequence count cannot cause a huge allocation.
        let mut e = Encoder::new();
        e.u32(u32::MAX);
        let bytes = e.into_bytes();
        assert!(Decoder::new(&bytes).seq(|d| d.u8()).is_err());
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut e = Encoder::new();
        e.u8(1);
        e.u8(2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        d.u8().unwrap();
        assert!(d.finish().is_err());
        d.u8().unwrap();
        d.finish().unwrap();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"warp"), crc32(b"warq"));
    }

    #[test]
    fn streaming_crc_matches_one_shot() {
        let data = b"123456789";
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), crc32(data), "split at {split}");
        }
        assert_eq!(Crc32::default().finish(), 0);
    }

    /// The byte-at-a-time CRC-32 the slicing kernel replaced, kept as the
    /// reference it must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// A deterministic byte stream (xorshift64*), so failures reproduce.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn slicing_equals_bytewise_at_every_short_length_and_alignment() {
        let buf = noise(7, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn slicing_equals_bytewise_on_long_random_inputs() {
        let buf = noise(11, 1 << 20);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        let lens = noise(13, 3 * 24);
        for triple in lens.chunks_exact(3) {
            let len = u32::from_le_bytes([triple[0], triple[1], triple[2], 0]) as usize % buf.len();
            let start = (buf.len() - len) / 3;
            let data = &buf[start..start + len];
            assert_eq!(crc32(data), crc32_bytewise(data), "len {len}");
        }
    }

    #[test]
    fn streamed_slicing_equals_bytewise_under_every_split() {
        let data = noise(17, 41);
        let expected = crc32_bytewise(&data);
        for a in 0..=data.len() {
            for b in a..=data.len() {
                let mut crc = Crc32::new();
                crc.update(&data[..a]);
                crc.update(&data[a..b]);
                crc.update(&data[b..]);
                assert_eq!(crc.finish(), expected, "splits at {a} and {b}");
            }
        }
    }
}
