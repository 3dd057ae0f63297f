//! The sharded per-file rows of the engine.
//!
//! `Auto_CheckProof` audits are independent per (file, replica) — the
//! paper's scalability claim rests on it — so the per-file rows live in
//! a [`Shard`]: the file descriptors, the allocation table rows, the
//! discard reasons, and the shard's slice of the engine counters.
//! [`ShardedState`] routes by `FileId % shards`; since file ids come from
//! one global counter, shard `s` of `n` owns exactly the strided ids
//! `s, s + n, s + 2n, …` — the population stays balanced and the id
//! sequence (hence every op digest and receipt) is identical at every
//! shard count.
//!
//! Everything else — the chain, the ledger, sectors and their capacity
//! sampler, the protocol `DetRng`, the one `Auto_*` task wheel — stays in
//! [`Engine`](super::Engine). Shards never touch each other, which is what
//! lets the audit verify and plan phases and the batch-ingest staging
//! phase (`engine/batch.rs`) read them in parallel, and the audit commit
//! write its deferred `cntdown` updates shard by shard in parallel.

use crate::types::{AllocEntry, FileDescriptor, FileId, RemovalReason};

use super::statemap::TrackedMap;
use super::EngineStats;

/// Per-file engine state for one file-id stride.
#[derive(Debug, Clone)]
pub(super) struct Shard {
    /// Live file descriptors owned by this shard. Dirty-tracked: the keys
    /// touched since the last state-root sync feed the files HAMT.
    pub(super) files: TrackedMap<FileId, FileDescriptor>,
    /// Allocation table rows `(file, replica index)` for this shard's files.
    pub(super) alloc: TrackedMap<(FileId, u32), AllocEntry>,
    /// Pending removal reasons for this shard's files.
    pub(super) discard_reasons: TrackedMap<FileId, RemovalReason>,
    /// This shard's slice of the engine counters (merged by
    /// [`Engine::stats`](super::Engine::stats)).
    pub(super) stats: EngineStats,
}

impl Shard {
    pub(super) fn new() -> Self {
        Shard {
            files: TrackedMap::new(),
            alloc: TrackedMap::new(),
            discard_reasons: TrackedMap::new(),
            stats: EngineStats::default(),
        }
    }
}

/// The engine's per-file rows, partitioned by `FileId % shards`.
#[derive(Debug, Clone)]
pub(super) struct ShardedState {
    pub(super) shards: Vec<Shard>,
}

impl ShardedState {
    /// Creates `count` empty shards (validated ≥ 1 by `ProtocolParams`).
    pub(super) fn new(count: usize) -> Self {
        assert!(count >= 1, "shard count must be positive");
        ShardedState {
            shards: (0..count).map(|_| Shard::new()).collect(),
        }
    }

    /// Copies `base`'s file, allocation and discard rows into these shards
    /// — empty so far — routed by *this* shard count, none marked dirty:
    /// for an engine whose state tries already commit to every one of them
    /// (a delta restore starts from its base's tries). Stats are not
    /// rows and stay as they are.
    pub(super) fn copy_rows_clean(&mut self, base: &ShardedState) {
        // Same routing: each map is cloned whole, which copies the hash
        // table as it lies instead of re-hashing every row into a new one.
        if self.shards.len() == base.shards.len() {
            for (shard, from) in self.shards.iter_mut().zip(&base.shards) {
                shard.files = from.files.clone_clean();
                shard.alloc = from.alloc.clone_clean();
                shard.discard_reasons = from.discard_reasons.clone_clean();
            }
            return;
        }
        for from in &base.shards {
            for (&id, desc) in from.files.iter() {
                self.shard_mut(id).files.insert_clean(id, desc.clone());
            }
            for (&(file, index), entry) in from.alloc.iter() {
                let alloc = &mut self.shard_mut(file).alloc;
                alloc.insert_clean((file, index), entry.clone());
            }
            for (&id, &reason) in from.discard_reasons.iter() {
                self.shard_mut(id).discard_reasons.insert_clean(id, reason);
            }
        }
    }

    /// The route-by-file-id invariant: everything about `file` lives in
    /// shard `file % shards`, forever (files never migrate between shards).
    #[inline]
    pub(super) fn shard_of(&self, file: FileId) -> usize {
        (file.0 % self.shards.len() as u64) as usize
    }

    #[inline]
    pub(super) fn shard(&self, file: FileId) -> &Shard {
        &self.shards[self.shard_of(file)]
    }

    #[inline]
    pub(super) fn shard_mut(&mut self, file: FileId) -> &mut Shard {
        let idx = self.shard_of(file);
        &mut self.shards[idx]
    }

    // ------------------------------------------------------------------
    // File descriptors
    // ------------------------------------------------------------------

    pub(super) fn file(&self, file: FileId) -> Option<&FileDescriptor> {
        self.shard(file).files.get(&file)
    }

    pub(super) fn file_mut(&mut self, file: FileId) -> Option<&mut FileDescriptor> {
        self.shard_mut(file).files.get_mut(&file)
    }

    pub(super) fn insert_file(&mut self, desc: FileDescriptor) {
        let id = desc.id;
        self.shard_mut(id).files.insert(id, desc);
    }

    pub(super) fn remove_file(&mut self, file: FileId) -> Option<FileDescriptor> {
        self.shard_mut(file).files.remove(&file)
    }

    pub(super) fn files_len(&self) -> usize {
        self.shards.iter().map(|s| s.files.len()).sum()
    }

    /// Live file ids across all shards, sorted.
    pub(super) fn file_ids(&self) -> Vec<FileId> {
        let mut ids: Vec<FileId> = self
            .shards
            .iter()
            .flat_map(|s| s.files.keys().copied())
            .collect();
        ids.sort_unstable();
        ids
    }

    // ------------------------------------------------------------------
    // Allocation table
    // ------------------------------------------------------------------

    pub(super) fn entry(&self, file: FileId, index: u32) -> Option<&AllocEntry> {
        self.shard(file).alloc.get(&(file, index))
    }

    pub(super) fn entry_mut(&mut self, file: FileId, index: u32) -> Option<&mut AllocEntry> {
        self.shard_mut(file).alloc.get_mut(&(file, index))
    }

    pub(super) fn insert_entry(&mut self, file: FileId, index: u32, entry: AllocEntry) {
        self.shard_mut(file).alloc.insert((file, index), entry);
    }

    pub(super) fn remove_entry(&mut self, file: FileId, index: u32) -> Option<AllocEntry> {
        self.shard_mut(file).alloc.remove(&(file, index))
    }

    /// Iterates every allocation row across all shards (shard order —
    /// callers that need a deterministic order sort the collected rows).
    pub(super) fn alloc_iter(&self) -> impl Iterator<Item = (&(FileId, u32), &AllocEntry)> {
        self.shards.iter().flat_map(|s| s.alloc.iter())
    }

    // ------------------------------------------------------------------
    // Discard reasons
    // ------------------------------------------------------------------

    pub(super) fn set_discard_reason(&mut self, file: FileId, reason: RemovalReason) {
        self.shard_mut(file).discard_reasons.insert(file, reason);
    }

    pub(super) fn take_discard_reason(&mut self, file: FileId) -> Option<RemovalReason> {
        self.shard_mut(file).discard_reasons.remove(&file)
    }
}
