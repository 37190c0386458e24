//! Hand-rolled binary codec shared by checkpoints and the wire.
//!
//! Two consumers with the same needs meet here: the distributed
//! protocol's messages (whose figure of merit is exact *bytes*
//! communicated, Theorem 4.7) and the checkpoint/restore layer (whose
//! figure of merit is byte-identical round trips). The format is
//! little-endian and length-prefixed, with no schema evolution inside a
//! value — versioning lives in the checkpoint header and both ends of
//! the wire run the same binary.
//!
//! Canonicality matters for checkpoints: encoders must emit collections
//! in a deterministic order (the snapshot builders sort by key), so that
//! encode → decode → encode is the identity on bytes — property-tested
//! in `tests/checkpoint_determinism.rs`.
//!
//! These traits lived in `sbc-distributed::wire` before checkpoints
//! existed; they moved down the dependency stack so `sbc-streaming` can
//! encode its own state, and `wire` re-exports them unchanged.

use sbc_geometry::{CellId, Point};

/// Types serializable to the binary format.
pub trait Encode {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Appends the encodings of `items` back to back — the body of a
    /// `Vec<Self>` after its length. Fixed-width integers override it
    /// with one pass over the slice; the bytes are the same as encoding
    /// each item in turn.
    fn encode_slice(items: &[Self], buf: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(buf);
        }
    }
}

/// Types deserializable from the binary format.
pub trait Decode: Sized {
    /// Reads one value, advancing `cursor`. Returns `None` on malformed
    /// input (truncation, bad tags).
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self>;

    /// Reads `len` values back to back — the inverse of
    /// [`Encode::encode_slice`]. The caller has already bounded `len` by
    /// the remaining bytes. Fixed-width integers override it with one
    /// bounds check and one pass.
    fn decode_vec(buf: &[u8], cursor: &mut usize, len: usize) -> Option<Vec<Self>> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(Self::decode(buf, cursor)?);
        }
        Some(out)
    }
}

/// Encodes a value into a fresh buffer.
///
/// Hidden from the documented surface: callers outside the workspace
/// should speak the framed protocols built on top (checkpoints, the
/// distributed wire, `sbc::api`), not raw unversioned values.
#[doc(hidden)]
pub fn to_bytes<T: Encode>(v: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    v.encode(&mut buf);
    buf
}

/// Decodes a value from a full buffer, requiring all bytes be consumed.
///
/// Hidden from the documented surface for the same reason as
/// [`to_bytes`].
#[doc(hidden)]
pub fn from_bytes<T: Decode>(buf: &[u8]) -> Option<T> {
    let mut cursor = 0;
    let v = T::decode(buf, &mut cursor)?;
    (cursor == buf.len()).then_some(v)
}

macro_rules! int_impl {
    ($t:ty) => {
        impl Encode for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            fn encode_slice(items: &[Self], buf: &mut Vec<u8>) {
                const N: usize = std::mem::size_of::<$t>();
                let start = buf.len();
                buf.resize(start + std::mem::size_of_val(items), 0);
                for (out, x) in buf[start..].chunks_exact_mut(N).zip(items) {
                    out.copy_from_slice(&x.to_le_bytes());
                }
            }
        }
        impl Decode for $t {
            fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
                const N: usize = std::mem::size_of::<$t>();
                let bytes = buf.get(*cursor..*cursor + N)?;
                *cursor += N;
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }

            fn decode_vec(buf: &[u8], cursor: &mut usize, len: usize) -> Option<Vec<Self>> {
                const N: usize = std::mem::size_of::<$t>();
                let bytes = buf.get(*cursor..)?.get(..len.checked_mul(N)?)?;
                *cursor += bytes.len();
                Some(
                    bytes
                        .chunks_exact(N)
                        .map(|c| <$t>::from_le_bytes(c.try_into().expect("N-byte chunk")))
                        .collect(),
                )
            }
        }
    };
}

int_impl!(u8);
int_impl!(u16);
int_impl!(u32);
int_impl!(u64);
int_impl!(u128);
int_impl!(i32);
int_impl!(i64);

impl Encode for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
}
impl Decode for usize {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(u64::decode(buf, cursor)? as usize)
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u8).encode(buf);
    }
}
impl Decode for bool {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        match u8::decode(buf, cursor)? {
            0 => Some(false),
            1 => Some(true),
            _ => None, // non-canonical bool would break byte identity
        }
    }
}

impl Encode for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.to_bits().encode(buf);
    }
}
impl Decode for f64 {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(f64::from_bits(u64::decode(buf, cursor)?))
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
}
impl Decode for String {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        let len = usize::decode(buf, cursor)?;
        let bytes = buf.get(*cursor..*cursor + len)?;
        *cursor += len;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_slice().encode(buf);
    }
}
impl<T: Encode> Encode for [T] {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        T::encode_slice(self, buf);
    }
}
impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        let len = usize::decode(buf, cursor)?;
        // Sanity: refuse lengths that cannot fit in the remaining bytes
        // (each element takes ≥ 1 byte).
        if len > buf.len().saturating_sub(*cursor) {
            return None;
        }
        T::decode_vec(buf, cursor, len)
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        for item in self {
            item.encode(buf);
        }
    }
}
impl<T: Decode + Copy + Default, const N: usize> Decode for [T; N] {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::decode(buf, cursor)?;
        }
        Some(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => 0u8.encode(buf),
            Some(v) => {
                1u8.encode(buf);
                v.encode(buf);
            }
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        match u8::decode(buf, cursor)? {
            0 => Some(None),
            1 => Some(Some(T::decode(buf, cursor)?)),
            _ => None,
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some((A::decode(buf, cursor)?, B::decode(buf, cursor)?))
    }
}

impl Encode for Point {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.coords().encode(buf);
    }
}
impl Decode for Point {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        let coords: Vec<u32> = Vec::decode(buf, cursor)?;
        (!coords.is_empty() && coords.iter().all(|&c| c >= 1)).then(|| Point::from_raw(coords))
    }
}

impl Encode for CellId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.level.encode(buf);
        self.coords.encode(buf);
    }
}
impl Decode for CellId {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(CellId {
            level: i32::decode(buf, cursor)?,
            coords: Vec::decode(buf, cursor)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(42u64);
        roundtrip(-7i64);
        roundtrip(3.25f64);
        roundtrip(u128::MAX - 3);
        roundtrip(true);
        roundtrip([1u64, 2, 3, 4]);
        roundtrip("hello κόσμε".to_string());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Option::<u64>::None);
        roundtrip(Some(9u64));
    }

    #[test]
    fn geometry_roundtrips() {
        roundtrip(Point::new(vec![1, 2, 300]));
        roundtrip(CellId {
            level: -1,
            coords: vec![0, 0],
        });
        roundtrip(CellId {
            level: 7,
            coords: vec![12, -3, 99],
        });
    }

    /// The one-pass slice paths write exactly the bytes of encoding each
    /// element in turn, and read them back.
    #[test]
    fn slice_fast_path_matches_per_element_bytes() {
        fn check<T: Encode + Decode + PartialEq + std::fmt::Debug>(items: Vec<T>) {
            let mut slow = Vec::new();
            items.len().encode(&mut slow);
            for x in &items {
                x.encode(&mut slow);
            }
            assert_eq!(to_bytes(&items), slow);
            assert_eq!(from_bytes::<Vec<T>>(&slow), Some(items));
        }
        check((0..=255u8).collect());
        check(vec![7u32, u32::MAX, 0]);
        check(vec![-3i64, i64::MIN, 9]);
        check(vec![u128::MAX - 1, 5]);
        check(vec![vec![1u8, 2], vec![], vec![3]]);
        check(Vec::<u16>::new());
        let short = to_bytes(&vec![1u32, 2, 3]);
        assert!(from_bytes::<Vec<u32>>(&short[..short.len() - 1]).is_none());
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        assert!(from_bytes::<Vec<u64>>(&bytes[..bytes.len() - 1]).is_none());
        // Trailing garbage also rejected.
        let mut bytes2 = bytes.clone();
        bytes2.push(0);
        assert!(from_bytes::<Vec<u64>>(&bytes2).is_none());
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut buf = Vec::new();
        (u64::MAX).encode(&mut buf); // absurd vec length
        assert!(from_bytes::<Vec<u64>>(&buf).is_none());
    }

    #[test]
    fn non_canonical_bool_rejected() {
        assert!(from_bytes::<bool>(&[2u8]).is_none());
    }

    #[test]
    fn decoded_point_validates_coordinates() {
        // A zero coordinate must be rejected, not panic.
        let mut buf = Vec::new();
        vec![0u32, 5].encode(&mut buf);
        assert!(from_bytes::<Point>(&buf).is_none());
    }
}
