//! Checkpoint serialization: a tiny deterministic binary codec.
//!
//! Service-mode checkpoints (see `inrpp::service`) must restore a run
//! **bit-identically**, so the codec is hand-rolled rather than pulled
//! from a serialization framework: every encoder writes a fixed
//! little-endian layout, `f64` travels as its IEEE-754 bit pattern
//! ([`f64::to_bits`]), and unordered containers are encoded in sorted
//! key order so the byte stream itself is a deterministic function of
//! the value. No schema evolution is attempted — a checkpoint is only
//! meaningful to the build that wrote it, which the engine-level
//! fingerprints enforce.
//!
//! The [`Snap`] trait is implemented here for the std building blocks
//! and the crate's own time types; richer simulation state implements
//! it next to its definition (private fields stay private).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;

use crate::time::{SimDuration, SimTime};

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

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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

    /// Write a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
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

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
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

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool byte out of range")),
        }
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
/// `v`, where equality is observational (bit-level for floats). Types
/// whose in-memory layout is order-sensitive (heaps, hash maps) encode
/// a canonical ordering and rebuild from it.
pub trait Snap: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut SnapWriter);
    /// Decode one value from the cursor.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! snap_int {
    ($t:ty) => {
        impl Snap for $t {
            fn encode(&self, w: &mut SnapWriter) {
                w.put_u64(*self as u64);
            }
            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let v = r.get_u64()?;
                <$t>::try_from(v).map_err(|_| SnapError::Corrupt("integer out of range"))
            }
        }
    };
}

snap_int!(u8);
snap_int!(u16);
snap_int!(u32);
snap_int!(usize);

impl Snap for u64 {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u64()
    }
}

impl Snap for i64 {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.get_u64()? as i64)
    }
}

impl Snap for f64 {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_f64()
    }
}

impl Snap for bool {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_bool(*self);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_bool()
    }
}

impl Snap for String {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.get_str()?.to_owned())
    }
}

impl Snap for SimTime {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_nanos());
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SimTime::from_nanos(r.get_u64()?))
    }
}

impl Snap for SimDuration {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_nanos());
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SimDuration::from_nanos(r.get_u64()?))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn encode(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(SnapError::Corrupt("Option tag out of range")),
        }
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

impl<T: Snap> Snap for VecDeque<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Vec::<T>::decode(r)?.into())
    }
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_usize()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_usize()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord + Hash, V: Snap> Snap for HashMap<K, V> {
    /// Hash maps encode in ascending key order so the byte stream is
    /// independent of insertion history and hasher state.
    fn encode(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort();
        for k in keys {
            k.encode(w);
            self[k].encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_usize()?;
        let mut out = HashMap::with_capacity(prealloc::<(K, V)>(n.min(r.remaining())));
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
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

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u64);
        roundtrip(&u64::MAX);
        roundtrip(&42u32);
        roundtrip(&usize::MAX);
        roundtrip(&(-7i64));
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&String::from("calendar"));
        roundtrip(&SimTime::from_nanos(123_456_789));
        roundtrip(&SimDuration::MAX);
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            let mut w = SnapWriter::new();
            v.encode(&mut w);
            let bytes = w.into_bytes();
            let back = f64::decode(&mut SnapReader::new(&bytes)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&Vec::<u64>::new());
        roundtrip(&Some(9u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&VecDeque::from(vec![5u32, 6, 7]));
        roundtrip(&BTreeSet::from([3u64, 1, 2]));
        roundtrip(&BTreeMap::from([(1u64, 2.5f64), (9, -0.0)]));
        roundtrip(&(1u64, 2.0f64, String::from("x")));
    }

    #[test]
    fn hashmap_encoding_is_canonical() {
        // Two maps with identical contents but different insertion order
        // must encode to identical bytes.
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for i in 0..64u64 {
            a.insert(i, i as f64);
        }
        for i in (0..64u64).rev() {
            b.insert(i, i as f64);
        }
        let (mut wa, mut wb) = (SnapWriter::new(), SnapWriter::new());
        a.encode(&mut wa);
        b.encode(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
        roundtrip(&a);
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(Vec::<u64>::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_length_prefix_is_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // absurd element count
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(Vec::<u64>::decode(&mut r).is_err());
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
        roundtrip(&(0..20_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        w.put_u8(0xFF);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let _ = u64::decode(&mut r).unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        assert_eq!(fingerprint(b"abc"), fingerprint(b"abc"));
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abd"));
        assert_ne!(fingerprint(b""), 0);
    }
}
