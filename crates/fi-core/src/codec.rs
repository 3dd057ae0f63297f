//! The one byte writer and the one bounded reader behind every canonical
//! encoding in this crate.
//!
//! Consensus bytes — the op, receipt and event encodings that op digests,
//! receipt roots and block hashes commit to ([`crate::ops::Op::encode`],
//! [`crate::ops::Receipt::encode`], [`crate::types::ProtocolEvent::encode`],
//! [`crate::engine::EngineError::encode`]), the HAMT leaves of the state
//! maps, and the `FISNAPSH` / `FIDELTA1` snapshot payloads — are all
//! written through [`Enc`], and every one read back is read through
//! [`Dec`]. One rule for every field: fixed-width
//! integers big-endian, a [`Hash256`] as its 32 raw bytes, an `Option`
//! as a presence byte (0 / 1) followed by the value when present, and a
//! byte string or a list as a `u64` length followed by its items. An enum
//! writes a one-byte variant tag (its declaration index) and then its
//! fields in declaration order.
//!
//! Nothing here derives from `Debug` or `Display`: a renamed field, a
//! reordered derive or a std formatting change cannot move a byte.

use fi_crypto::Hash256;
use fi_store::StoreError;

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

/// Why untrusted bytes do not decode. Converts into
/// [`SnapshotError`](crate::engine::SnapshotError) variant for variant,
/// and into [`StoreError::Corrupt`] for a state leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecError {
    /// A field runs past the end of the bytes.
    Truncated,
    /// A field holds bytes no encoder writes: an unknown tag, rows out of
    /// order, a broken invariant.
    Malformed(&'static str),
}

impl From<DecError> for StoreError {
    fn from(e: DecError) -> Self {
        StoreError::Corrupt(match e {
            DecError::Truncated => "truncated state leaf",
            DecError::Malformed(what) => what,
        })
    }
}

/// Reads fields back in the canonical layout (module docs) from untrusted
/// bytes. Every read is bounds-checked, and no length prefix can size an
/// allocation past the bytes that are left.
#[derive(Debug)]
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    /// Whether every byte has been read.
    pub(crate) fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Runs `read` and returns its value with the bytes it consumed.
    pub(crate) fn with_bytes<T, E>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<(T, &'a [u8]), E> {
        let start = self.pos;
        let value = read(self)?;
        Ok((value, &self.bytes[start..self.pos]))
    }

    /// The next `n` bytes, verbatim.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecError> {
        if n > self.bytes.len() - self.pos {
            return Err(DecError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], DecError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DecError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    pub(crate) fn u128(&mut self) -> Result<u128, DecError> {
        Ok(u128::from_be_bytes(self.array()?))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, DecError> {
        Ok(i64::from_be_bytes(self.array()?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, DecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, DecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecError::Malformed("boolean tag")),
        }
    }

    /// A length or count that sizes what follows: bounded by the bytes
    /// left (every encoded item is at least one byte), so a corrupt
    /// length cannot size a huge allocation.
    pub(crate) fn len(&mut self) -> Result<usize, DecError> {
        let n = self.u64()?;
        if n > (self.bytes.len() - self.pos) as u64 {
            return Err(DecError::Truncated);
        }
        Ok(n as usize)
    }

    pub(crate) fn hash(&mut self) -> Result<Hash256, DecError> {
        Ok(Hash256::from_bytes(self.array()?))
    }

    /// A length-prefixed byte string.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], DecError> {
        let n = self.len()?;
        self.take(n)
    }

    pub(crate) fn opt_u64(&mut self) -> Result<Option<u64>, DecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(DecError::Malformed("option tag")),
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

    #[test]
    fn dec_reads_back_what_enc_writes_and_bounds_every_read() {
        let mut e = Enc::with_capacity(0);
        e.u8(0xAB);
        e.u32(3);
        e.u64(4);
        e.u128(5);
        e.i64(-1);
        e.f64(0.5);
        e.bool(true);
        e.opt_u64(None);
        e.opt_u64(Some(6));
        e.bytes(b"hi");
        e.hash(&Hash256::from_bytes([7; 32]));
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8(), Ok(0xAB));
        assert_eq!(d.u32(), Ok(3));
        let (wide, raw) = d
            .with_bytes(|d| Ok::<_, DecError>((d.u64()?, d.u128()?)))
            .unwrap();
        assert_eq!(wide, (4, 5));
        assert_eq!(raw, &bytes[5..29]);
        assert_eq!(d.i64(), Ok(-1));
        assert_eq!(d.f64(), Ok(0.5));
        assert_eq!(d.bool(), Ok(true));
        assert_eq!(d.opt_u64(), Ok(None));
        assert_eq!(d.opt_u64(), Ok(Some(6)));
        assert_eq!(d.bytes(), Ok(&b"hi"[..]));
        assert!(!d.done());
        assert_eq!(d.hash(), Ok(Hash256::from_bytes([7; 32])));
        assert!(d.done());
        assert_eq!(d.u8(), Err(DecError::Truncated));

        // Tags outside the encoding and lengths past the end are refused.
        assert_eq!(
            Dec::new(&[2]).bool(),
            Err(DecError::Malformed("boolean tag"))
        );
        assert_eq!(
            Dec::new(&[2]).opt_u64(),
            Err(DecError::Malformed("option tag"))
        );
        let long = [&9u64.to_be_bytes()[..], b"short"].concat();
        assert_eq!(Dec::new(&long).bytes(), Err(DecError::Truncated));
        assert_eq!(Dec::new(&[1, 2, 3]).u32(), Err(DecError::Truncated));
        assert_eq!(
            StoreError::from(DecError::Truncated),
            StoreError::Corrupt("truncated state leaf")
        );
    }
}
