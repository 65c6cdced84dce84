//! Minimal binary wire format for checkpoint images.
//!
//! The build environment is offline (no `serde`), so the image format is a
//! small hand-rolled little-endian encoding. Counts, ranks, sequence
//! numbers, ids and lengths — almost all far below 2¹⁴ — are varints
//! ([`Wr::var`]: unsigned LEB128, one to ten bytes; [`Wr::ivar`]: zigzag
//! for signed values), and so are `usize` and the length prefix of
//! [`Wr::bytes`]. Hashes, group ids and the fixed header words stay
//! fixed-width little-endian, and `f64` is its IEEE-754 bits (bit-exact
//! round trips — restored clocks compare equal to captured ones).
//!
//! The decoder accepts only a varint's canonical (shortest) form: no
//! overlong encoding, nothing past ten bytes, no bit beyond the 64th. So
//! every value has exactly one byte form, which a content-addressed chunk
//! needs: equal state must hash to one address. Map-valued fields are
//! written sorted by key so the same image always serializes to the same
//! bytes; `Checkpoint` round-trip tests rely on that determinism.

/// Longest varint: ⌈64 / 7⌉ bytes.
const MAX_VARINT_LEN: usize = 10;

/// Bytes [`Wr::var`] writes for `v`.
pub fn var_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

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

/// A map hasher for keys the codec computes itself — allocation
/// addresses, chunk addresses, short outputs: each 8-byte word of the key
/// costs one 64×64→128-bit multiply, its halves folded, instead of FNV's
/// eight byte rounds or SipHash's. The fold keeps the high bits of the
/// product, so aligned addresses (low bits all zero) still spread over
/// the buckets. Not for keys an adversary picks.
#[derive(Default)]
pub(crate) struct FoldHasher(u64);

impl std::hash::Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    fn write_u64(&mut self, v: u64) {
        let p = u128::from(self.0 ^ v) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ (p >> 64) as u64;
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A map keyed by the codec's own values, hashed by [`FoldHasher`].
pub(crate) type FoldMap<K, V> =
    std::collections::HashMap<K, V, std::hash::BuildHasherDefault<FoldHasher>>;

/// A set of the codec's own values, hashed by [`FoldHasher`].
pub(crate) type FoldSet<K> =
    std::collections::HashSet<K, std::hash::BuildHasherDefault<FoldHasher>>;

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
/// the provided methods, so the growable encoder (`Vec<u8>`) and the byte
/// counter ([`CountEnc`]) are guaranteed to lay out bytes identically.
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

    /// Writes a `u64` as an unsigned LEB128 varint: seven bits a byte,
    /// low bits first, the top bit set on every byte but the last.
    fn var(&mut self, mut v: u64) {
        let mut buf = [0u8; MAX_VARINT_LEN];
        let mut n = 0;
        while v >= 0x80 {
            buf[n] = v as u8 | 0x80;
            v >>= 7;
            n += 1;
        }
        buf[n] = v as u8;
        self.raw(&buf[..=n]);
    }

    /// Writes an `i64` as a zigzag varint, so small magnitudes of either
    /// sign stay short.
    fn ivar(&mut self, v: i64) {
        self.var(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes a `usize` as a varint.
    fn usize(&mut self, v: usize) {
        self.var(v as u64);
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

impl Wr for Vec<u8> {
    fn raw(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

/// Write sink that only counts bytes, running the same encode code that
/// writes them: `Checkpoint::serialized_len`'s head, and fields for the
/// wire fuzzers' byte-range helpers. It sizes no encoder's buffer.
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

    /// Reads a varint written by [`Wr::var`]. Only the canonical form is
    /// accepted: a truncated varint, one longer than ten bytes, a tenth
    /// byte carrying bits past the 64th, or a final `0x00` byte after the
    /// first (an overlong encoding) is an error.
    pub fn var(&mut self, what: DecodeError) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        for i in 0..MAX_VARINT_LEN {
            let b = self.u8(what)?;
            if i == MAX_VARINT_LEN - 1 && b > 1 {
                return Err(what);
            }
            v |= u64::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err(what);
                }
                return Ok(v);
            }
        }
        Err(what)
    }

    /// Reads a zigzag varint written by [`Wr::ivar`].
    pub fn ivar(&mut self, what: DecodeError) -> Result<i64, DecodeError> {
        let v = self.var(what)?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// Reads a varint `usize`; rejects values that overflow the platform's
    /// `usize`.
    pub fn usize(&mut self, what: DecodeError) -> Result<usize, DecodeError> {
        usize::try_from(self.var(what)?).map_err(|_| what)
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
        let mut e: Vec<u8> = Vec::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.ivar(-42);
        e.usize(77);
        e.f64(1.5e-300);
        e.bytes(b"payload");
        let buf = e;
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8("a").unwrap(), 7);
        assert_eq!(d.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64("c").unwrap(), u64::MAX - 3);
        assert_eq!(d.ivar("d").unwrap(), -42);
        assert_eq!(d.usize("u").unwrap(), 77);
        assert_eq!(d.f64("e").unwrap(), 1.5e-300);
        assert_eq!(d.bytes("f").unwrap(), b"payload");
        assert!(d.finished());
    }

    #[test]
    fn truncated_reads_fail_with_field_name() {
        let mut e: Vec<u8> = Vec::new();
        e.u32(1);
        let buf = e;
        let mut d = Dec::new(&buf);
        assert_eq!(d.u64("the field"), Err("the field"));
    }

    #[test]
    fn corrupt_length_is_bounded() {
        let mut e: Vec<u8> = Vec::new();
        e.usize(usize::MAX / 2);
        let buf = e;
        let mut d = Dec::new(&buf);
        assert!(d.seq_len("len").is_err(), "oversized length must fail");
    }

    fn var_bytes(v: u64) -> Vec<u8> {
        let mut e: Vec<u8> = Vec::new();
        e.var(v);
        e
    }

    #[test]
    fn varints_round_trip_at_the_width_edges() {
        for (v, width) in [
            (0, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (1 << 63, 10),
            (u64::MAX, 10),
        ] {
            let bytes = var_bytes(v);
            assert_eq!(bytes.len(), width, "{v}");
            assert_eq!(var_len(v), width, "{v}");
            let mut d = Dec::new(&bytes);
            assert_eq!(d.var("v"), Ok(v));
            assert!(d.finished());
        }
        assert_eq!(var_bytes(0), [0x00]);
        assert_eq!(var_bytes(128), [0x80, 0x01]);
        assert_eq!(var_bytes(u64::MAX)[9], 0x01);
    }

    #[test]
    fn zigzag_round_trips_at_the_extremes() {
        for (v, width) in [
            (0i64, 1),
            (-1, 1),
            (1, 1),
            (-64, 1),
            (64, 2),
            (i64::MIN, 10),
            (i64::MAX, 10),
        ] {
            let mut e: Vec<u8> = Vec::new();
            e.ivar(v);
            let bytes = e;
            assert_eq!(bytes.len(), width, "{v}");
            let mut d = Dec::new(&bytes);
            assert_eq!(d.ivar("v"), Ok(v));
            assert!(d.finished());
        }
    }

    #[test]
    fn non_canonical_varints_are_refused() {
        let refused = |bytes: &[u8]| Dec::new(bytes).var("v") == Err("v");
        // Overlong: a zero byte after the first, however the value reads.
        assert!(refused(&[0x80, 0x00]));
        assert!(refused(&[0xFF, 0x80, 0x00]));
        // Eleven bytes: no 64-bit value needs them.
        let mut eleven = [0x80u8; 11];
        eleven[10] = 0x01;
        assert!(refused(&eleven));
        // A tenth byte carrying bits past the 64th.
        let mut overflow = var_bytes(u64::MAX);
        overflow[9] = 0x02;
        assert!(refused(&overflow));
        overflow[9] = 0x81;
        assert!(refused(&overflow));
        // Truncated mid-varint, and empty.
        assert!(refused(&[0x80]));
        assert!(refused(&var_bytes(1 << 40)[..3]));
        assert!(refused(&[]));
        // A zigzag read refuses the same malformed forms.
        assert_eq!(Dec::new(&[0x80, 0x00]).ivar("i"), Err("i"));
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
        w.usize(42);
        w.var(300);
        w.var(u64::MAX);
        w.ivar(-65);
        w.ivar(i64::MIN);
        w.f64(-0.25);
        w.bytes(b"abc");
        w.raw(&[1, 2, 3]);
    }

    #[test]
    fn all_writers_lay_out_identical_bytes() {
        let mut reference: Vec<u8> = Vec::new();
        write_sample(&mut reference);
        let mut c = CountEnc::new();
        write_sample(&mut c);
        assert_eq!(c.count(), reference.len());
    }
}
