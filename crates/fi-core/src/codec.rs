//! The one byte writer behind every canonical encoding in this crate.
//!
//! Consensus bytes — the op, receipt and event encodings that op digests,
//! receipt roots and block hashes commit to ([`crate::ops::Op::encode`],
//! [`crate::ops::Receipt::encode`], [`crate::types::ProtocolEvent::encode`],
//! [`crate::engine::EngineError::encode`]), the HAMT leaves of the state
//! maps, and the `FISNAPSH` / `FIDELTA1` snapshot payloads — are all
//! written through [`Enc`]. One rule for every field: fixed-width
//! integers big-endian, a [`Hash256`] as its 32 raw bytes, an `Option`
//! as a presence byte (0 / 1) followed by the value when present, and a
//! byte string or a list as a `u64` length followed by its items. An enum
//! writes a one-byte variant tag (its declaration index) and then its
//! fields in declaration order.
//!
//! Nothing here derives from `Debug` or `Display`: a renamed field, a
//! reordered derive or a std formatting change cannot move a byte.

use fi_crypto::Hash256;

/// Appends fields to a byte buffer in the canonical layout (module docs).
#[derive(Debug, Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty writer with room for `capacity` bytes.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The bytes written so far.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The finished encoding.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes copied verbatim, with no length prefix (fixed-size fields).
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.raw(&v.to_be_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.raw(&v.to_be_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.raw(&v.to_be_bytes());
    }

    pub(crate) fn u128(&mut self, v: u128) {
        self.raw(&v.to_be_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.raw(&v.to_be_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// A length or count, written as a `u64`.
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn hash(&mut self, h: &Hash256) {
        self.raw(h.as_bytes());
    }

    /// A length-prefixed byte string.
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.raw(b);
    }

    pub(crate) fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_big_endian_and_prefixed() {
        let mut e = Enc::with_capacity(0);
        e.u8(0xAB);
        e.u16(0x0102);
        e.u32(3);
        e.u64(4);
        e.u128(5);
        e.i64(-1);
        e.bool(true);
        e.opt_u64(None);
        e.opt_u64(Some(6));
        e.bytes(b"hi");
        e.hash(&Hash256::from_bytes([7; 32]));
        let mut want = vec![0xAB, 1, 2, 0, 0, 0, 3];
        want.extend_from_slice(&4u64.to_be_bytes());
        want.extend_from_slice(&5u128.to_be_bytes());
        want.extend_from_slice(&[0xFF; 8]);
        want.extend_from_slice(&[1, 0, 1]);
        want.extend_from_slice(&6u64.to_be_bytes());
        want.extend_from_slice(&2u64.to_be_bytes());
        want.extend_from_slice(b"hi");
        want.extend_from_slice(&[7; 32]);
        assert_eq!(e.as_bytes(), want.as_slice());
        assert_eq!(e.into_bytes(), want);
    }
}
