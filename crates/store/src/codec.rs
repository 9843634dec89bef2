//! Byte-level encoding: the order-preserving [`StoreKey`], the
//! [`ByteReader`] cursor, and the [`Codec`] trait application updates
//! implement to become persistable.
//!
//! Everything here is deliberately boring: fixed-width big-endian
//! integers, explicit field order, no self-description. The WAL record
//! framing (length + CRC) is [`crate::DiskStore`]'s; this module only
//! defines payload bytes. Payload compatibility is *within one run* —
//! a store directory is owned by a single build of the system, so no
//! versioning machinery is carried.

/// A 10-byte, order-preserving key: `(primary, secondary)` encoded
/// big-endian so **byte order equals logical order**. The simulator maps
/// its Lamport timestamps here (`primary` = Lamport counter,
/// `secondary` = node id tiebreak), which makes a key-order scan of a
/// store exactly the paper's serial order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreKey {
    /// High-order component (the Lamport counter, for the simulator).
    pub primary: u64,
    /// Low-order tiebreak (the node id, for the simulator).
    pub secondary: u16,
}

/// Encoded width of a [`StoreKey`] in bytes.
pub const KEY_BYTES: usize = 10;

impl StoreKey {
    /// A key from its two components.
    pub fn new(primary: u64, secondary: u16) -> Self {
        StoreKey { primary, secondary }
    }

    /// The 10-byte big-endian encoding; `a < b` iff `a.bytes() <
    /// b.bytes()` lexicographically.
    pub fn to_bytes(self) -> [u8; KEY_BYTES] {
        let mut out = [0u8; KEY_BYTES];
        out[..8].copy_from_slice(&self.primary.to_be_bytes());
        out[8..].copy_from_slice(&self.secondary.to_be_bytes());
        out
    }

    /// Decodes the 10-byte encoding.
    pub fn from_bytes(b: &[u8; KEY_BYTES]) -> Self {
        let mut hi = [0u8; 8];
        hi.copy_from_slice(&b[..8]);
        let mut lo = [0u8; 2];
        lo.copy_from_slice(&b[8..]);
        StoreKey {
            primary: u64::from_be_bytes(hi),
            secondary: u16::from_be_bytes(lo),
        }
    }
}

/// A bounds-checked cursor over a byte slice. All reads return
/// `None` past the end instead of panicking, so decoding a corrupt or
/// truncated payload degrades to a decode failure the caller reports.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor consumed the whole slice.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.bytes(2).map(|b| u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .map(|b| u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

/// What a type must provide to live in a [`crate::Store`]:
/// write itself to bytes, read itself back. Implementations must
/// round-trip (`decode(encode(x)) == Some(x)`) and fail cleanly
/// (`None`) on any input they did not produce.
///
/// The five SHARD applications implement this for their update enums in
/// `shard-apps`; the simulator's durable layer requires
/// `A::Update: Codec` only on the durable entry points, so apps without
/// an implementation keep working in-memory.
pub trait Codec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the cursor, advancing it past the bytes
    /// consumed. `None` on malformed input.
    fn decode(r: &mut ByteReader<'_>) -> Option<Self>;

    /// Convenience: the encoding as a fresh vector.
    fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Convenience: decodes a value that must occupy `buf` exactly.
    fn from_slice(buf: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.is_done() {
            Some(v)
        } else {
            None
        }
    }
}

macro_rules! int_codec {
    ($($t:ty => $get:ident),*) => {$(
        impl Codec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
            fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
                r.$get()
            }
        }
    )*};
}

int_codec!(u8 => u8, u16 => u16, u32 => u32, u64 => u64);

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let n = r.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_order_matches_byte_order() {
        let keys = [
            StoreKey::new(0, 0),
            StoreKey::new(0, 1),
            StoreKey::new(1, 0),
            StoreKey::new(1, 65535),
            StoreKey::new(2, 3),
            StoreKey::new(u64::MAX, 7),
        ];
        for a in &keys {
            for b in &keys {
                assert_eq!(a.cmp(b), a.to_bytes().cmp(&b.to_bytes()), "{a:?} vs {b:?}");
                assert_eq!(StoreKey::from_bytes(&a.to_bytes()), *a);
            }
        }
    }

    #[test]
    fn reader_refuses_overrun() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u16(), Some(0x0102));
        assert_eq!(r.u32(), None);
        assert_eq!(r.u8(), Some(3));
        assert!(r.is_done());
    }

    #[test]
    fn int_codecs_round_trip() {
        for v in [0u64, 1, 0xdead_beef_0102_0304, u64::MAX] {
            assert_eq!(u64::from_slice(&v.to_vec()), Some(v));
        }
        assert_eq!(u32::from_slice(&7u32.to_vec()), Some(7));
        assert_eq!(
            u32::from_slice(&7u64.to_vec()),
            None,
            "trailing bytes rejected"
        );
    }
}
