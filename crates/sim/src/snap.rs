//! Checkpoint serialization: a tiny deterministic binary codec.
//!
//! Service-mode checkpoints (see `inrpp::service`) log the calls that
//! drove a session and are replayed on resume; session fingerprints
//! hash the session spec. Both need bytes that are a deterministic
//! function of the value, so the codec is hand-rolled rather than pulled
//! from a serialization framework: every encoder writes a fixed
//! little-endian layout and `f64` travels as its IEEE-754 bit pattern
//! ([`f64::to_bits`]). No schema evolution is attempted — the checkpoint
//! envelope's magic names the one layout a build reads.
//!
//! [`Snap`] is for values a checkpoint replay decodes: it is
//! implemented here for sequences and [`SimTime`], and next to their
//! definitions for the logged calls and transfers. A session
//! fingerprint only encodes, so it writes its fields directly.

use std::fmt;

use crate::time::SimTime;

/// Error decoding a checkpoint byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before the value was complete.
    UnexpectedEof {
        /// Byte offset at which more input was required.
        at: usize,
    },
    /// A decoded value violated an invariant of the target type.
    Corrupt(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof { at } => {
                write!(f, "checkpoint stream truncated at byte {at}")
            }
            SnapError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only encoder for [`Snap`] values.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor-style decoder over a checkpoint byte stream.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Start decoding from the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes left to decode.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof { at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one raw byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Read a `usize` encoded as a `u64`.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt("usize out of range"))
    }

    /// Read a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.get_usize()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| SnapError::Corrupt("invalid UTF-8"))
    }

    /// Assert the whole stream was consumed.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes after checkpoint"))
        }
    }
}

/// A value that can round-trip through the checkpoint codec.
///
/// The contract is exact: `decode(encode(v)) == v` for every reachable
/// `v`, where equality is observational (bit-level for floats).
pub trait Snap: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut SnapWriter);
    /// Decode one value from the cursor.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snap for SimTime {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_nanos());
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SimTime::from_nanos(r.get_u64()?))
    }
}

/// Most bytes a decoder reserves up front from a length prefix. A
/// longer sequence grows as its elements decode, and each element
/// consumes input, so a corrupt prefix cannot reserve memory the stream
/// does not back.
const MAX_PREALLOC_BYTES: usize = 64 * 1024;

/// Up-front capacity for `n` elements of `T`, within
/// [`MAX_PREALLOC_BYTES`].
fn prealloc<T>(n: usize) -> usize {
    n.min(MAX_PREALLOC_BYTES / std::mem::size_of::<T>().max(1))
}

impl<T: Snap> Snap for Vec<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_usize()?;
        // Guard allocation against a corrupt length prefix: every element
        // costs at least one byte, so `n` can never exceed the remainder.
        if n > r.remaining() {
            return Err(SnapError::Corrupt("sequence length exceeds stream"));
        }
        let mut out = Vec::with_capacity(prealloc::<T>(n));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// FNV-1a over an encoded value: the fingerprint primitive checkpoints
/// use to pin the run specification a state blob belongs to.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = SnapWriter::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::decode(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        assert_eq!(&back, v);
    }

    fn times(n: u64) -> Vec<SimTime> {
        (0..n).map(|i| SimTime::from_nanos(i * 1_000_003)).collect()
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_u32(42);
        w.put_u64(u64::MAX);
        w.put_usize(usize::MAX);
        w.put_str("calendar");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8(), Ok(7));
        assert_eq!(r.get_u32(), Ok(42));
        assert_eq!(r.get_u64(), Ok(u64::MAX));
        assert_eq!(r.get_usize(), Ok(usize::MAX));
        assert_eq!(r.get_str(), Ok("calendar"));
        r.finish().expect("fully consumed");
        roundtrip(&SimTime::from_nanos(123_456_789));
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        // an `f64` is written as its bit pattern, which reads back exactly
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            let mut w = SnapWriter::new();
            w.put_f64(v);
            let bytes = w.into_bytes();
            let back = f64::from_bits(SnapReader::new(&bytes).get_u64().unwrap());
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&times(3));
        roundtrip(&Vec::<SimTime>::new());
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let mut w = SnapWriter::new();
        times(3).encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(Vec::<SimTime>::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_length_prefix_is_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // absurd element count
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(Vec::<SimTime>::decode(&mut r).is_err());
    }

    #[test]
    fn length_prefixes_reserve_within_the_budget() {
        // A prefix the stream seems to back (one byte per element) but
        // whose elements are large in memory reserves only the budget.
        type Wide = [u64; 512];
        assert_eq!(prealloc::<u8>(10), 10);
        assert!(prealloc::<Wide>(1 << 30) * std::mem::size_of::<Wide>() <= MAX_PREALLOC_BYTES);
        assert_eq!(prealloc::<()>(usize::MAX), MAX_PREALLOC_BYTES);
        // the capped reservation still decodes sequences of any length
        roundtrip(&times(20_000));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        w.put_u8(0xFF);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let _ = r.get_u64().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        assert_eq!(fingerprint(b"abc"), fingerprint(b"abc"));
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abd"));
        assert_ne!(fingerprint(b""), 0);
    }
}
