//! The content-addressed block space: immutable byte blocks keyed by
//! their SHA-256 hash, with an in-memory and a disk-backed implementation.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use fi_crypto::{sha256, Hash256};

/// Typed failures of the store layer. Corrupted or truncated bytes —
/// whether a damaged disk log or adversarial HAMT nodes handed to a
/// decoder — always surface as one of these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A block referenced by hash is not present in the store (a broken
    /// link: the map root points at nodes the store never received).
    NotFound(Hash256),
    /// An I/O failure of the disk backend (message from [`std::io::Error`],
    /// kept as a string so the error stays `Clone`/`Eq`).
    Io(String),
    /// Bytes that violate a structural invariant: a truncated node, an
    /// unsorted bucket, a link cycle, a block whose bytes don't match the
    /// hash it is filed under.
    Corrupt(&'static str),
    /// An inclusion proof that does not verify against the claimed root:
    /// a broken hash chain, a missing key, extra or missing path nodes.
    Proof(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(h) => write!(f, "block {} not found", h.to_hex()),
            StoreError::Io(msg) => write!(f, "store I/O failure: {msg}"),
            StoreError::Corrupt(what) => write!(f, "corrupt store block: {what}"),
            StoreError::Proof(what) => write!(f, "state proof rejected: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// The address of a block: the SHA-256 hash of its bytes. Every
/// [`Blockstore::put`] files bytes under exactly this key, so a block can
/// never be silently substituted — readers re-derive the address.
pub fn block_hash(bytes: &[u8]) -> Hash256 {
    sha256(bytes)
}

/// An abstract content-addressed block space.
///
/// Blocks are immutable and keyed by [`block_hash`] of their bytes, which
/// gives every implementation the same three properties: writes are
/// idempotent (putting the same bytes twice is a no-op), sharing a store
/// between readers and writers is race-free (no block is ever mutated),
/// and the *choice of backend is invisible to consensus* — a map flushed
/// into any store produces the same root hash.
pub trait Blockstore: Send + Sync + std::fmt::Debug {
    /// The block filed under `hash`, or `None` if absent.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure; [`StoreError::Corrupt`] when
    /// the backend detects its copy no longer matches the hash.
    fn get(&self, hash: &Hash256) -> Result<Option<Arc<[u8]>>, StoreError>;

    /// Files `bytes` under their [`block_hash`] and returns that hash.
    /// Idempotent: re-putting existing bytes is a cheap no-op.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure.
    fn put(&self, bytes: &[u8]) -> Result<Hash256, StoreError>;

    /// Whether a block with this hash is present.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure.
    fn has(&self, hash: &Hash256) -> Result<bool, StoreError> {
        Ok(self.get(hash)?.is_some())
    }
}

/// Forwarding impl so `Arc<dyn Blockstore>` (how the engine holds its
/// store) satisfies `&dyn Blockstore` parameters directly.
impl<T: Blockstore + ?Sized> Blockstore for Arc<T> {
    fn get(&self, hash: &Hash256) -> Result<Option<Arc<[u8]>>, StoreError> {
        (**self).get(hash)
    }

    fn put(&self, bytes: &[u8]) -> Result<Hash256, StoreError> {
        (**self).put(bytes)
    }

    fn has(&self, hash: &Hash256) -> Result<bool, StoreError> {
        (**self).has(hash)
    }
}

/// A heap-backed [`Blockstore`]: a hash → bytes table behind an `RwLock`.
///
/// The default backend. Blocks are handed out as cheap [`Arc`] clones, so
/// concurrent readers never copy block bytes.
#[derive(Debug, Default)]
pub struct MemoryBlockstore {
    blocks: RwLock<HashMap<Hash256, Arc<[u8]>>>,
}

impl MemoryBlockstore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct blocks held.
    pub fn len(&self) -> usize {
        self.blocks.read().expect("store lock").len()
    }

    /// Whether the store holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes across all blocks (for benchmarks and tests).
    pub fn total_bytes(&self) -> u64 {
        self.blocks
            .read()
            .expect("store lock")
            .values()
            .map(|b| b.len() as u64)
            .sum()
    }
}

impl Blockstore for MemoryBlockstore {
    fn get(&self, hash: &Hash256) -> Result<Option<Arc<[u8]>>, StoreError> {
        Ok(self.blocks.read().expect("store lock").get(hash).cloned())
    }

    fn put(&self, bytes: &[u8]) -> Result<Hash256, StoreError> {
        let hash = block_hash(bytes);
        self.blocks
            .write()
            .expect("store lock")
            .entry(hash)
            .or_insert_with(|| bytes.into());
        Ok(hash)
    }

    fn has(&self, hash: &Hash256) -> Result<bool, StoreError> {
        Ok(self.blocks.read().expect("store lock").contains_key(hash))
    }
}

/// One record in the disk log: `[hash 32B][len u32 BE][bytes]`.
const REC_HEADER: usize = 32 + 4;

/// A disk-backed [`Blockstore`]: an append-only log file plus an
/// in-memory hash → offset index.
///
/// The layout is deliberately minimal — this is the "state spills past
/// RAM and survives the process" backend, not a database. Each block is
/// appended as `[hash][len][bytes]`; [`DiskBlockstore::open`] rebuilds
/// the index by scanning the log, validating every record header, and
/// truncating a torn tail write (anything after the last complete record)
/// rather than failing. Reads verify the bytes against their hash, so a
/// bit flip on disk surfaces as [`StoreError::Corrupt`] instead of
/// silently feeding a decoder.
///
/// All I/O is positional — reads at the indexed offset, appends at the
/// offset the store itself tracks — so there is no file cursor for a
/// failed call to leave in the wrong place.
#[derive(Debug)]
pub struct DiskBlockstore {
    /// The append-only log.
    file: File,
    /// Where the next record goes: the end of the last complete record.
    /// Appends serialize on this lock; a failed one leaves it where it was.
    end: Mutex<u64>,
    /// hash → (payload offset, payload length).
    index: RwLock<HashMap<Hash256, (u64, u32)>>,
    path: PathBuf,
}

impl DiskBlockstore {
    /// Opens (or creates) the log at `path` and rebuilds the index.
    ///
    /// A torn final record — a crash mid-append — is truncated away; any
    /// earlier structural damage is reported as [`StoreError::Corrupt`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, [`StoreError::Corrupt`]
    /// when an interior record header is malformed.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = file.metadata()?.len();
        let mut data = Vec::with_capacity(len as usize);
        file.read_to_end(&mut data)?;

        let mut index = HashMap::new();
        let mut pos = 0usize;
        let mut valid_end = 0u64;
        while pos + REC_HEADER <= data.len() {
            let hash = Hash256::from_bytes(data[pos..pos + 32].try_into().expect("32 bytes"));
            let blen =
                u32::from_be_bytes(data[pos + 32..pos + 36].try_into().expect("4 bytes")) as usize;
            let payload_start = pos + REC_HEADER;
            if payload_start + blen > data.len() {
                break; // torn tail: truncate below
            }
            let payload = &data[payload_start..payload_start + blen];
            if block_hash(payload) != hash {
                // Interior records are sealed by every later append; a
                // mismatch is real corruption, not a torn write.
                return Err(StoreError::Corrupt("disk record bytes mismatch its hash"));
            }
            index.insert(hash, (payload_start as u64, blen as u32));
            pos = payload_start + blen;
            valid_end = pos as u64;
        }
        if valid_end < len {
            file.set_len(valid_end)?;
        }
        Ok(DiskBlockstore {
            file,
            end: Mutex::new(valid_end),
            index: RwLock::new(index),
            path,
        })
    }

    /// Called when a read the index promised has failed: if the log has
    /// been cut short behind this handle, forgets the records that are no
    /// longer complete and truncates the torn tail — what
    /// [`DiskBlockstore::open`] would do — so the next append lands on a
    /// record boundary instead of past a hole.
    fn drop_torn_tail(&self) -> Result<(), StoreError> {
        let mut end = self.end.lock().expect("store lock");
        let len = self.file.metadata()?.len();
        if len < *end {
            let mut index = self.index.write().expect("store lock");
            index.retain(|_, &mut (offset, blen)| offset + u64::from(blen) <= len);
            *end = index
                .values()
                .map(|&(offset, blen)| offset + u64::from(blen))
                .max()
                .unwrap_or(0);
            self.file.set_len(*end)?;
        }
        Ok(())
    }

    /// The log file backing this store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of distinct blocks held.
    pub fn len(&self) -> usize {
        self.index.read().expect("store lock").len()
    }

    /// Whether the store holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Blockstore for DiskBlockstore {
    fn get(&self, hash: &Hash256) -> Result<Option<Arc<[u8]>>, StoreError> {
        let Some(&(offset, len)) = self.index.read().expect("store lock").get(hash) else {
            return Ok(None);
        };
        // Read into the allocation that is handed out: no second copy.
        let mut block: Arc<[u8]> = std::iter::repeat_n(0u8, len as usize).collect();
        let buf = Arc::get_mut(&mut block).expect("not shared yet");
        if let Err(e) = self.file.read_exact_at(buf, offset) {
            self.drop_torn_tail()?;
            return Err(e.into());
        }
        if block_hash(buf) != *hash {
            return Err(StoreError::Corrupt("disk block bytes mismatch its hash"));
        }
        Ok(Some(block))
    }

    fn put(&self, bytes: &[u8]) -> Result<Hash256, StoreError> {
        let hash = block_hash(bytes);
        if self.index.read().expect("store lock").contains_key(&hash) {
            return Ok(hash);
        }
        let mut end = self.end.lock().expect("store lock");
        // Re-check under the append lock: a racing put may have landed.
        if self.index.read().expect("store lock").contains_key(&hash) {
            return Ok(hash);
        }
        let mut rec = Vec::with_capacity(REC_HEADER + bytes.len());
        rec.extend_from_slice(hash.as_bytes());
        rec.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        rec.extend_from_slice(bytes);
        if let Err(e) = self.file.write_all_at(&rec, *end) {
            // Cut off whatever part of the record made it out, so the log
            // still ends on a record boundary.
            let _ = self.file.set_len(*end);
            return Err(e.into());
        }
        self.index
            .write()
            .expect("store lock")
            .insert(hash, (*end + REC_HEADER as u64, bytes.len() as u32));
        *end += rec.len() as u64;
        Ok(hash)
    }

    fn has(&self, hash: &Hash256) -> Result<bool, StoreError> {
        Ok(self.index.read().expect("store lock").contains_key(hash))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique scratch log path (no tempfile crate in the build image).
    fn scratch(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "fi-store-test-{}-{}-{}.log",
            std::process::id(),
            tag,
            n
        ))
    }

    struct DropFile(PathBuf);
    impl Drop for DropFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn memory_store_roundtrip_and_idempotence() {
        let store = MemoryBlockstore::new();
        assert!(store.is_empty());
        let h = store.put(b"hello").unwrap();
        assert_eq!(h, block_hash(b"hello"));
        assert_eq!(store.put(b"hello").unwrap(), h);
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_bytes(), 5);
        assert_eq!(store.get(&h).unwrap().as_deref(), Some(&b"hello"[..]));
        assert!(store.has(&h).unwrap());
        assert!(!store.has(&block_hash(b"other")).unwrap());
        assert!(store.get(&block_hash(b"other")).unwrap().is_none());
    }

    #[test]
    fn disk_store_roundtrip_and_reopen() {
        let path = scratch("reopen");
        let _guard = DropFile(path.clone());
        let blocks: Vec<Vec<u8>> = (0u32..50)
            .map(|i| vec![i as u8; (i as usize) + 1])
            .collect();
        let mut hashes = Vec::new();
        {
            let store = DiskBlockstore::open(&path).unwrap();
            for b in &blocks {
                hashes.push(store.put(b).unwrap());
                // Idempotent re-put must not grow the log.
                store.put(b).unwrap();
            }
            assert_eq!(store.len(), blocks.len());
        }
        // Reopen rebuilds the index from the log alone.
        let store = DiskBlockstore::open(&path).unwrap();
        assert_eq!(store.len(), blocks.len());
        assert_eq!(store.path(), path.as_path());
        for (h, b) in hashes.iter().zip(&blocks) {
            assert_eq!(store.get(h).unwrap().as_deref(), Some(b.as_slice()));
        }
        // Writes still append correctly after a reopen.
        let h = store.put(b"post-reopen").unwrap();
        assert_eq!(store.get(&h).unwrap().as_deref(), Some(&b"post-reopen"[..]));
    }

    #[test]
    fn disk_store_truncates_torn_tail() {
        let path = scratch("torn");
        let _guard = DropFile(path.clone());
        let h1;
        {
            let store = DiskBlockstore::open(&path).unwrap();
            h1 = store.put(b"complete record").unwrap();
            store.put(b"the victim").unwrap();
        }
        // Chop mid-way through the second record, simulating a crash.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 4).unwrap();
        drop(file);

        let store = DiskBlockstore::open(&path).unwrap();
        assert_eq!(store.len(), 1, "torn tail record dropped");
        assert_eq!(
            store.get(&h1).unwrap().as_deref(),
            Some(&b"complete record"[..])
        );
        // The torn bytes are gone from disk; appending works again.
        let h3 = store.put(b"after recovery").unwrap();
        drop(store);
        let store = DiskBlockstore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(
            store.get(&h3).unwrap().as_deref(),
            Some(&b"after recovery"[..])
        );
    }

    /// A read that fails must not move where the next append goes. Cut
    /// the log short behind a live handle (the only way to make a read
    /// fail on a healthy disk), then put: every record that was still
    /// complete survives, and the new one lands where a reopen finds it.
    #[test]
    fn disk_store_failed_read_does_not_misplace_the_next_append() {
        let path = scratch("failed-read");
        let _guard = DropFile(path.clone());
        let blocks: Vec<Vec<u8>> = (0u8..6).map(|i| vec![i; 40 + i as usize]).collect();
        let store = DiskBlockstore::open(&path).unwrap();
        let hashes: Vec<Hash256> = blocks.iter().map(|b| store.put(b).unwrap()).collect();

        // Chop the log in the middle of record 3's payload: records 0..3
        // stay complete, 3 is torn, 4 and 5 are gone.
        let cut = (0..3).map(|i| REC_HEADER + blocks[i].len()).sum::<usize>() + REC_HEADER + 7;
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut as u64).unwrap();
        drop(file);

        assert!(matches!(store.get(&hashes[5]), Err(StoreError::Io(_))));
        // The records the log no longer holds are forgotten, not dangling.
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(&hashes[4]).unwrap(), None);
        let fresh = store.put(b"written after the failed read").unwrap();
        assert_eq!(
            store.get(&fresh).unwrap().as_deref(),
            Some(&b"written after the failed read"[..])
        );
        drop(store);

        let store = DiskBlockstore::open(&path).unwrap();
        assert_eq!(store.len(), 4);
        for (h, b) in hashes.iter().zip(&blocks).take(3) {
            assert_eq!(store.get(h).unwrap().as_deref(), Some(b.as_slice()));
        }
        assert_eq!(
            store.get(&fresh).unwrap().as_deref(),
            Some(&b"written after the failed read"[..])
        );
    }

    #[test]
    fn disk_store_detects_bit_flips() {
        let path = scratch("flip");
        let _guard = DropFile(path.clone());
        let h;
        {
            let store = DiskBlockstore::open(&path).unwrap();
            h = store.put(b"precious bytes").unwrap();
        }
        // Flip one payload bit on disk.
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x01;
        std::fs::write(&path, &data).unwrap();

        // A full reopen scan refuses the interior corruption...
        assert_eq!(
            DiskBlockstore::open(&path).unwrap_err(),
            StoreError::Corrupt("disk record bytes mismatch its hash")
        );
        // ...and a live handle's read path re-verifies too: rebuild a
        // store whose index predates the flip by writing the clean bytes
        // back, opening, then flipping behind its back.
        data[last] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let store = DiskBlockstore::open(&path).unwrap();
        data[last] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        assert_eq!(
            store.get(&h).unwrap_err(),
            StoreError::Corrupt("disk block bytes mismatch its hash")
        );
    }
}
