//! The read surface over engine state: [`StateView`], [`PinnedState`],
//! and [`StateProof`].
//!
//! Consumers that only *read* protocol state — simulation harnesses,
//! node RPC, benchmarks — go through the [`StateView`] trait instead of
//! reaching into the engine's in-memory layout. Two implementations:
//!
//! * [`Engine`] itself — reads the live tracked maps; always current.
//! * [`PinnedState`] — reads the content-addressed state HAMTs at a
//!   pinned [`StateRoots`], so a historical version stays readable after
//!   the live engine has moved on (the blockstore is append-only;
//!   nothing is overwritten).
//!
//! [`StateProof`] is the light-client piece: a proof that one file
//! descriptor is committed by a given `state_root`, verifiable with no
//! store and no engine — just the proof bytes and the trusted root.
//!
//! The trait returns owned values, not references: a pinned view decodes
//! leaves out of the store on demand and has nothing to borrow from.
//! Methods that can fail on a store (`PinnedState`'s) have inherent
//! `try_*` forms returning [`enum@Error`]; the trait impl maps failures to
//! `None`/empty, which keeps the trait ergonomic for the common
//! in-memory case.

use std::sync::Arc;

use fi_crypto::Hash256;
use fi_store::{Blockstore, Hamt, StoreError};

use crate::drep::CrAccounting;
use crate::error::Error;
use crate::types::{AllocEntry, FileDescriptor, FileId, ProtocolEvent, Sector, SectorId};

use super::statemap::{self, StateHeader, StateRoots};
use super::{Engine, EngineError};

/// Read-only access to consensus-visible protocol state.
///
/// Everything here except [`StateView::events`] is consensus-visible:
/// committed by `state_root`, identical across shard counts, ingest
/// widths and store backends. `events` is diagnostic — a live engine's
/// pending event buffer — and is empty on pinned views.
pub trait StateView {
    /// The descriptor of a live file, if present.
    fn file(&self, id: FileId) -> Option<FileDescriptor>;

    /// A sector's record, if present.
    fn sector(&self, id: SectorId) -> Option<Sector>;

    /// The allocation row for `(file, index)`, if present.
    fn alloc_entry(&self, file: FileId, index: u32) -> Option<AllocEntry>;

    /// A sector's DRep (duplicated-replica) accounting, if present.
    fn cr_accounting(&self, id: SectorId) -> Option<CrAccounting>;

    /// All live file ids, sorted ascending.
    fn file_ids(&self) -> Vec<FileId>;

    /// All sector ids, sorted ascending.
    fn sector_ids(&self) -> Vec<SectorId>;

    /// The pending protocol events, **without** consuming them
    /// (diagnostic — not part of the state commitment; empty for pinned
    /// views). The consuming form is [`Engine::take_events`].
    fn events(&self) -> Vec<ProtocolEvent>;
}

impl StateView for Engine {
    fn file(&self, id: FileId) -> Option<FileDescriptor> {
        self.shards.file(id).cloned()
    }

    fn sector(&self, id: SectorId) -> Option<Sector> {
        self.sectors.get(&id).cloned()
    }

    fn alloc_entry(&self, file: FileId, index: u32) -> Option<AllocEntry> {
        self.shards.entry(file, index).cloned()
    }

    fn cr_accounting(&self, id: SectorId) -> Option<CrAccounting> {
        self.cr.get(&id).cloned()
    }

    fn file_ids(&self) -> Vec<FileId> {
        self.shards.file_ids()
    }

    fn sector_ids(&self) -> Vec<SectorId> {
        let mut ids: Vec<SectorId> = self.sectors.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn events(&self) -> Vec<ProtocolEvent> {
        self.events.clone()
    }
}

impl Engine {
    /// Pins the current state for historical reads: persists the current
    /// version and returns a [`PinnedState`] over this engine's blockstore
    /// at its [`StateRoots`]. The pin stays readable as the live engine
    /// mutates — the store is content-addressed and append-only.
    ///
    /// # Panics
    ///
    /// As [`Engine::state_roots`]: on backing-store write failure.
    pub fn pin_state(&self) -> PinnedState {
        PinnedState {
            store: Arc::clone(&self.store),
            roots: self.state_roots(),
        }
    }

    /// Proves that `file`'s descriptor is committed by the current
    /// [`Engine::state_root`]. The proof verifies offline against the
    /// root alone — see [`StateProof::verify`].
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownFile`] (as [`variant@Error::Engine`]) when the
    /// file does not exist; store failures as [`variant@Error::Store`].
    ///
    /// # Panics
    ///
    /// As [`Engine::state_roots`]: on backing-store write failure.
    pub fn prove_file(&self, file: FileId) -> Result<StateProof, Error> {
        let roots = self.state_roots();
        let path = Hamt::prove(self.store.as_ref(), roots.files, &statemap::key_file(file))?
            .ok_or(EngineError::UnknownFile(file))?;
        Ok(StateProof {
            header: self.state_header(),
            map_roots: roots.map_roots(),
            file,
            path,
        })
    }
}

/// A read-only view over the state HAMTs at a pinned [`StateRoots`] —
/// the historical reader behind [`StateView`].
///
/// Obtained from [`Engine::pin_state`], or constructed directly from any
/// blockstore holding the referenced nodes (e.g. one restored from a
/// delta snapshot).
#[derive(Debug, Clone)]
pub struct PinnedState {
    store: Arc<dyn Blockstore>,
    roots: StateRoots,
}

impl PinnedState {
    /// A pinned view of `roots` over `store`. The store must hold every
    /// node reachable from the five map roots; missing nodes surface as
    /// [`StoreError::NotFound`] on access, not here.
    pub fn new(store: Arc<dyn Blockstore>, roots: StateRoots) -> Self {
        PinnedState { store, roots }
    }

    /// The pinned roots.
    pub fn roots(&self) -> &StateRoots {
        &self.roots
    }

    /// Fallible form of [`StateView::file`].
    ///
    /// # Errors
    ///
    /// Store failures and corrupt leaf bytes as [`variant@Error::Store`].
    pub fn try_file(&self, id: FileId) -> Result<Option<FileDescriptor>, Error> {
        self.leaf(
            self.roots.files,
            &statemap::key_file(id),
            statemap::dec_file,
        )
    }

    /// Fallible form of [`StateView::sector`].
    ///
    /// # Errors
    ///
    /// Store failures and corrupt leaf bytes as [`variant@Error::Store`].
    pub fn try_sector(&self, id: SectorId) -> Result<Option<Sector>, Error> {
        self.leaf(
            self.roots.sectors,
            &statemap::key_sector(id),
            statemap::dec_sector,
        )
    }

    /// Fallible form of [`StateView::alloc_entry`].
    ///
    /// # Errors
    ///
    /// Store failures and corrupt leaf bytes as [`variant@Error::Store`].
    pub fn try_alloc_entry(&self, file: FileId, index: u32) -> Result<Option<AllocEntry>, Error> {
        self.leaf(
            self.roots.alloc,
            &statemap::key_alloc(file, index),
            statemap::dec_alloc_entry,
        )
    }

    /// Fallible form of [`StateView::cr_accounting`].
    ///
    /// # Errors
    ///
    /// Store failures and corrupt leaf bytes as [`variant@Error::Store`].
    pub fn try_cr_accounting(&self, id: SectorId) -> Result<Option<CrAccounting>, Error> {
        self.leaf(self.roots.cr, &statemap::key_sector(id), statemap::dec_cr)
    }

    /// Fallible form of [`StateView::file_ids`].
    ///
    /// # Errors
    ///
    /// Store failures and corrupt nodes/keys as [`variant@Error::Store`].
    pub fn try_file_ids(&self) -> Result<Vec<FileId>, Error> {
        Ok(self.walk_u64_keys(self.roots.files)?.map(FileId).collect())
    }

    /// Fallible form of [`StateView::sector_ids`].
    ///
    /// # Errors
    ///
    /// Store failures and corrupt nodes/keys as [`variant@Error::Store`].
    pub fn try_sector_ids(&self) -> Result<Vec<SectorId>, Error> {
        Ok(self
            .walk_u64_keys(self.roots.sectors)?
            .map(SectorId)
            .collect())
    }

    /// Reads and decodes one leaf out of the map rooted at `root`.
    fn leaf<T>(
        &self,
        root: Hash256,
        key: &[u8],
        dec: impl FnOnce(&[u8]) -> Result<T, StoreError>,
    ) -> Result<Option<T>, Error> {
        Hamt::load(root)
            .get(self.store.as_ref(), key)?
            .map(|bytes| dec(&bytes))
            .transpose()
            .map_err(Error::from)
    }

    /// Collects the 8-byte big-endian keys of the map rooted at `root`,
    /// sorted ascending.
    fn walk_u64_keys(&self, root: Hash256) -> Result<impl Iterator<Item = u64>, Error> {
        let mut ids = Vec::new();
        let mut malformed = false;
        Hamt::load(root).walk(
            self.store.as_ref(),
            &mut |key, _| match <[u8; 8]>::try_from(key) {
                Ok(k) => ids.push(u64::from_be_bytes(k)),
                Err(_) => malformed = true,
            },
        )?;
        if malformed {
            return Err(StoreError::Corrupt("state map key width").into());
        }
        ids.sort_unstable();
        Ok(ids.into_iter())
    }
}

impl StateView for PinnedState {
    fn file(&self, id: FileId) -> Option<FileDescriptor> {
        self.try_file(id).ok().flatten()
    }

    fn sector(&self, id: SectorId) -> Option<Sector> {
        self.try_sector(id).ok().flatten()
    }

    fn alloc_entry(&self, file: FileId, index: u32) -> Option<AllocEntry> {
        self.try_alloc_entry(file, index).ok().flatten()
    }

    fn cr_accounting(&self, id: SectorId) -> Option<CrAccounting> {
        self.try_cr_accounting(id).ok().flatten()
    }

    fn file_ids(&self) -> Vec<FileId> {
        self.try_file_ids().unwrap_or_default()
    }

    fn sector_ids(&self) -> Vec<SectorId> {
        self.try_sector_ids().unwrap_or_default()
    }

    /// Always empty: events are a live engine's pending buffer, not part
    /// of the committed state.
    fn events(&self) -> Vec<ProtocolEvent> {
        Vec::new()
    }
}

/// A light-client inclusion proof: one file descriptor, proven against a
/// trusted `state_root` with no store and no engine.
///
/// Produced by [`Engine::prove_file`]; checked by [`StateProof::verify`].
/// The proof carries the scalar [`StateHeader`], the five map roots, and
/// the HAMT node path from the files root down to the leaf bucket — the
/// verifier recomputes `state_root` from the header and roots, then
/// checks the hash chain down to the descriptor bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateProof {
    /// The scalar fields of the committed state.
    pub header: StateHeader,
    /// The five map roots in canonical fold order
    /// ([`StateRoots::map_roots`]).
    pub map_roots: [Hash256; 5],
    /// The file the proof speaks for.
    pub file: FileId,
    /// Raw HAMT node bytes from the files root to the leaf bucket.
    pub path: Vec<Vec<u8>>,
}

impl StateProof {
    /// Verifies the proof against `trusted_root` and returns the proven
    /// descriptor.
    ///
    /// Checks, in order: the header and map roots fold to
    /// `trusted_root`; the node path hash-chains from the files root to
    /// a bucket holding the key; the leaf bytes decode to a descriptor
    /// whose id matches [`StateProof::file`]. Any tampering — with the
    /// header, a root, a path node, or the leaf — fails one of those
    /// checks with a typed error.
    ///
    /// # Errors
    ///
    /// [`StoreError::Proof`] (as [`variant@Error::Store`]) on commitment or
    /// path mismatches; [`StoreError::Corrupt`] on undecodable bytes.
    pub fn verify(&self, trusted_root: Hash256) -> Result<FileDescriptor, Error> {
        let folded =
            statemap::fold_state_root(&self.header, statemap::fold_maps_root(&self.map_roots));
        if folded != trusted_root {
            return Err(
                StoreError::Proof("header and roots do not fold to the trusted root").into(),
            );
        }
        let leaf = Hamt::verify_proof(
            self.map_roots[0],
            &statemap::key_file(self.file),
            &self.path,
        )?;
        let desc = statemap::dec_file(&leaf)?;
        if desc.id != self.file {
            return Err(StoreError::Proof("leaf descriptor id mismatch").into());
        }
        Ok(desc)
    }
}
