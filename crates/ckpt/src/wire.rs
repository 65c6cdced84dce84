//! Minimal binary wire format for checkpoint images.
//!
//! The build environment is offline (no `serde`), so the image format is a
//! small hand-rolled little-endian encoding: fixed-width integers, `f64`
//! as IEEE-754 bits (bit-exact round trips — restored clocks compare equal
//! to captured ones), and length-prefixed sequences. Map-valued fields are
//! written sorted by key so the same image always serializes to the same
//! bytes; `Checkpoint` round-trip tests rely on that determinism.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher.
///
/// FNV-1a is a strict byte chain (xor then multiply), so independent
/// digests cannot be combined after the fact — but the chain *can* be fed
/// incrementally: a member list's content id hashes its words one by one
/// without first laying them out as bytes.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Feeds `bytes` into the chain.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Current digest. The hasher may keep being fed afterwards.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64-bit digest — the image head checksum and every chunk's
/// content address.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.digest()
}

/// A sink for wire-format writes.
///
/// Implementors provide [`Wr::raw`]; every scalar encoding is defined once in
/// the provided methods, so the growable encoders ([`Enc`], `Vec<u8>`) and
/// the byte counter ([`CountEnc`]) are guaranteed to lay out bytes
/// identically. That shared layout is what lets the image encoder size its
/// output exactly before writing it.
pub trait Wr {
    /// Writes raw bytes with no length prefix (header assembly only).
    fn raw(&mut self, v: &[u8]);

    /// Writes one byte.
    fn u8(&mut self, v: u8) {
        self.raw(&[v]);
    }

    /// Writes a `u32`, little-endian.
    fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes an `i64` (two's-complement bits, little-endian).
    fn i64(&mut self, v: i64) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round trip).
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed byte string.
    fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.raw(v);
    }
}

/// Append-only growable encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Consumes the encoder, yielding the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Wr for Enc {
    fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

impl Wr for Vec<u8> {
    fn raw(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

/// Write sink that only counts bytes — used to pre-size buffers by running
/// the same encode code that will later fill them.
#[derive(Debug, Default)]
pub struct CountEnc {
    n: usize,
}

impl CountEnc {
    /// Zeroed counter.
    pub fn new() -> Self {
        CountEnc::default()
    }

    /// Bytes that would have been written.
    pub fn count(&self) -> usize {
        self.n
    }
}

impl Wr for CountEnc {
    fn raw(&mut self, v: &[u8]) {
        self.n += v.len();
    }
}

/// Cursor-style decoder over a byte slice. Every read is bounds-checked;
/// failures carry a static description of the field that went missing.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// A decode failure: the field that could not be read.
pub type DecodeError = &'static str;

impl<'a> Dec<'a> {
    /// Decoder over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes (a span whose length was read separately).
    pub fn take(&mut self, n: usize, what: DecodeError) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(what);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: DecodeError) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: DecodeError) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: DecodeError) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self, what: DecodeError) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`); rejects values that overflow the
    /// platform's `usize`.
    pub fn usize(&mut self, what: DecodeError) -> Result<usize, DecodeError> {
        usize::try_from(self.u64(what)?).map_err(|_| what)
    }

    /// Reads a sequence length and sanity-bounds it against the remaining
    /// buffer (each element needs at least one byte), so a corrupted length
    /// cannot trigger a huge allocation.
    pub fn seq_len(&mut self, what: DecodeError) -> Result<usize, DecodeError> {
        let n = self.usize(what)?;
        if n > self.remaining() {
            return Err(what);
        }
        Ok(n)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self, what: DecodeError) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self, what: DecodeError) -> Result<&'a [u8], DecodeError> {
        let n = self.usize(what)?;
        self.take(n, what)
    }

    /// Whether every byte has been consumed (trailing garbage detection).
    pub fn finished(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.i64(-42);
        e.f64(1.5e-300);
        e.bytes(b"payload");
        let buf = e.into_bytes();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8("a").unwrap(), 7);
        assert_eq!(d.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64("c").unwrap(), u64::MAX - 3);
        assert_eq!(d.i64("d").unwrap(), -42);
        assert_eq!(d.f64("e").unwrap(), 1.5e-300);
        assert_eq!(d.bytes("f").unwrap(), b"payload");
        assert!(d.finished());
    }

    #[test]
    fn truncated_reads_fail_with_field_name() {
        let mut e = Enc::new();
        e.u32(1);
        let buf = e.into_bytes();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u64("the field"), Err("the field"));
    }

    #[test]
    fn corrupt_length_is_bounded() {
        let mut e = Enc::new();
        e.usize(usize::MAX / 2);
        let buf = e.into_bytes();
        let mut d = Dec::new(&buf);
        assert!(d.seq_len("len").is_err(), "oversized length must fail");
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }

    #[test]
    fn streaming_fnv_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Fnv1a::new();
        for chunk in data.chunks(5) {
            h.update(chunk);
        }
        assert_eq!(h.digest(), fnv1a64(data));
    }

    fn write_sample<W: Wr>(w: &mut W) {
        w.u8(9);
        w.u32(123_456);
        w.u64(u64::MAX / 7);
        w.i64(-7);
        w.usize(42);
        w.f64(-0.25);
        w.bytes(b"abc");
        w.raw(&[1, 2, 3]);
    }

    #[test]
    fn all_writers_lay_out_identical_bytes() {
        let mut e = Enc::new();
        write_sample(&mut e);
        let reference = e.into_bytes();

        let mut v: Vec<u8> = Vec::new();
        write_sample(&mut v);
        assert_eq!(v, reference);

        let mut c = CountEnc::new();
        write_sample(&mut c);
        assert_eq!(c.count(), reference.len());
    }
}
