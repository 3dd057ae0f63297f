//! The counting blockstore the harness hands to `Engine::new_with_store`:
//! every `get`/`put` of the `fi-store` layer is counted here, from outside
//! the program.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use fi_crypto::Hash256;
use fi_store::{Blockstore, DiskBlockstore, MemoryBlockstore, StoreError};

#[derive(Debug)]
enum Backend {
    Memory(MemoryBlockstore),
    Disk(DiskBlockstore),
}

/// Call, byte and (traced runs only, estimated from a sample) time totals
/// of one store.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreCounts {
    pub put_calls: u64,
    pub put_bytes: u64,
    pub put_ns: u64,
    pub get_calls: u64,
    pub get_bytes: u64,
    pub get_ns: u64,
}

impl StoreCounts {
    /// The counts accumulated since `earlier`.
    pub fn since(&self, earlier: &StoreCounts) -> StoreCounts {
        StoreCounts {
            put_calls: self.put_calls - earlier.put_calls,
            put_bytes: self.put_bytes - earlier.put_bytes,
            put_ns: self.put_ns - earlier.put_ns,
            get_calls: self.get_calls - earlier.get_calls,
            get_bytes: self.get_bytes - earlier.get_bytes,
            get_ns: self.get_ns - earlier.get_ns,
        }
    }
}

/// One call in this many is timed in a traced run.
pub const TIMED_EVERY: u64 = 16;

/// A [`Blockstore`] that forwards to a memory or disk backend and counts.
///
/// Calls and bytes are always counted (a relaxed atomic add each — the
/// counters publish nothing else). Only when `timed`, and then only every
/// [`TIMED_EVERY`]th call, is a call timed: a clock read costs most of a
/// microsecond on the microVMs this runs on, and a pinned read makes
/// several `get`s. The reported times are the sampled times scaled up.
#[derive(Debug)]
pub struct CountingStore {
    backend: Backend,
    timed: bool,
    put_calls: AtomicU64,
    put_bytes: AtomicU64,
    put_ns: AtomicU64,
    get_calls: AtomicU64,
    get_bytes: AtomicU64,
    get_ns: AtomicU64,
}

impl CountingStore {
    fn new(backend: Backend, timed: bool) -> Arc<Self> {
        Arc::new(CountingStore {
            backend,
            timed,
            put_calls: AtomicU64::new(0),
            put_bytes: AtomicU64::new(0),
            put_ns: AtomicU64::new(0),
            get_calls: AtomicU64::new(0),
            get_bytes: AtomicU64::new(0),
            get_ns: AtomicU64::new(0),
        })
    }

    pub fn memory(timed: bool) -> Arc<Self> {
        Self::new(Backend::Memory(MemoryBlockstore::new()), timed)
    }

    /// A store on a fresh append-only log at `path`; the log is removed
    /// again when the store is dropped.
    ///
    /// # Errors
    ///
    /// The store layer's error if the log cannot be created.
    pub fn disk(path: PathBuf, timed: bool) -> Result<Arc<Self>, StoreError> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let _ = std::fs::remove_file(&path);
        Ok(Self::new(Backend::Disk(DiskBlockstore::open(path)?), timed))
    }

    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            Backend::Memory(_) => "memory",
            Backend::Disk(_) => "disk",
        }
    }

    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            put_calls: self.put_calls.load(Relaxed),
            put_bytes: self.put_bytes.load(Relaxed),
            put_ns: self.put_ns.load(Relaxed),
            get_calls: self.get_calls.load(Relaxed),
            get_bytes: self.get_bytes.load(Relaxed),
            get_ns: self.get_ns.load(Relaxed),
        }
    }

    /// Distinct blocks held.
    pub fn blocks(&self) -> u64 {
        match &self.backend {
            Backend::Memory(m) => m.len() as u64,
            Backend::Disk(d) => d.len() as u64,
        }
    }

    /// Bytes held: payload bytes in memory, log size on disk.
    pub fn stored_bytes(&self) -> u64 {
        match &self.backend {
            Backend::Memory(m) => m.total_bytes(),
            Backend::Disk(d) => std::fs::metadata(d.path()).map_or(0, |m| m.len()),
        }
    }

    fn sampled(&self, call: u64) -> bool {
        self.timed && call.is_multiple_of(TIMED_EVERY)
    }

    fn inner(&self) -> &dyn Blockstore {
        match &self.backend {
            Backend::Memory(m) => m,
            Backend::Disk(d) => d,
        }
    }
}

impl Blockstore for CountingStore {
    fn get(&self, hash: &Hash256) -> Result<Option<Arc<[u8]>>, StoreError> {
        let call = self.get_calls.fetch_add(1, Relaxed);
        let start = self.sampled(call).then(Instant::now);
        let result = self.inner().get(hash);
        if let Some(start) = start {
            let ns = start.elapsed().as_nanos() as u64;
            self.get_ns.fetch_add(ns * TIMED_EVERY, Relaxed);
        }
        if let Ok(Some(bytes)) = &result {
            self.get_bytes.fetch_add(bytes.len() as u64, Relaxed);
        }
        result
    }

    fn put(&self, bytes: &[u8]) -> Result<Hash256, StoreError> {
        let call = self.put_calls.fetch_add(1, Relaxed);
        let start = self.sampled(call).then(Instant::now);
        let result = self.inner().put(bytes);
        if let Some(start) = start {
            let ns = start.elapsed().as_nanos() as u64;
            self.put_ns.fetch_add(ns * TIMED_EVERY, Relaxed);
        }
        self.put_bytes.fetch_add(bytes.len() as u64, Relaxed);
        result
    }

    fn has(&self, hash: &Hash256) -> Result<bool, StoreError> {
        self.inner().has(hash)
    }
}

impl Drop for CountingStore {
    fn drop(&mut self) {
        if let Backend::Disk(d) = &self.backend {
            let _ = std::fs::remove_file(d.path());
        }
    }
}
