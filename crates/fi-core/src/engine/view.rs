//! The read surface over engine state: [`StateView`], [`PinnedState`],
//! and [`StateProof`].
//!
//! Consumers that only *read* protocol state — simulation harnesses,
//! node RPC, benchmarks — go through the [`StateView`] trait instead of
//! reaching into the engine's in-memory layout. Two implementations:
//!
//! * [`Engine`] itself — reads the live tracked maps; always current.
//! * [`PinnedState`] — holds the five state HAMTs at one version, so a
//!   historical version stays readable after the live engine has moved
//!   on. A pin taken from an engine ([`Engine::pin_state`]) shares the
//!   engine's own trie nodes in memory — the engine copies a shared node
//!   before writing to it, so the pin never sees a later version and
//!   never reads the store; a pin made from bare roots
//!   ([`PinnedState::new`]) loads nodes from the blockstore as reads
//!   reach them (the store is append-only; nothing is overwritten).
//!
//! [`StateProof`] is the light-client piece: a proof that one file
//! descriptor is committed by a given `state_root`, verifiable with no
//! store and no engine — just the proof bytes and the trusted root.
//!
//! The trait returns owned values, not references: a pinned view decodes
//! each leaf out of its trie bucket on demand and has no decoded value to
//! borrow from. Methods that can fail on a store (`PinnedState`'s) have inherent
//! `try_*` forms returning [`enum@Error`]; the trait impl maps failures to
//! `None`/empty, which keeps the trait ergonomic for the common
//! in-memory case.

use std::sync::Arc;

use fi_crypto::Hash256;
use fi_store::{Blockstore, Hamt, StoreError};

use crate::drep::CrAccounting;
use crate::error::Error;
use crate::types::{AllocEntry, FileDescriptor, FileId, ProtocolEvent, Sector, SectorId};

use super::statemap::{self, StateHeader, StateMaps, StateRoots};
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
        self.files.get(&id).cloned()
    }

    fn sector(&self, id: SectorId) -> Option<Sector> {
        self.sectors.get(&id).cloned()
    }

    fn alloc_entry(&self, file: FileId, index: u32) -> Option<AllocEntry> {
        self.alloc.get(&(file, index)).cloned()
    }

    fn cr_accounting(&self, id: SectorId) -> Option<CrAccounting> {
        self.cr.get(&id).cloned()
    }

    fn file_ids(&self) -> Vec<FileId> {
        let mut ids: Vec<FileId> = self.files.keys().copied().collect();
        ids.sort_unstable();
        ids
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
    /// version ([`Engine::state_roots`]) and returns a [`PinnedState`]
    /// holding O(1) clones of this engine's five state tries at it. Reads
    /// through the pin walk those nodes in memory; the pin stays at its
    /// version as the live engine mutates, because the engine copies a
    /// node the pin still shares before writing to it (and writes in
    /// place again once the pin is dropped).
    ///
    /// # Panics
    ///
    /// As [`Engine::state_roots`]: on backing-store write failure.
    pub fn pin_state(&self) -> PinnedState {
        let (roots, maps) = self.commit_state_locked(true);
        PinnedState {
            store: Arc::clone(&self.store),
            roots,
            maps: maps.clone(),
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
        // The live trie is the committed version while the lock is held:
        // the path is encoded from its nodes, byte for byte what the
        // store holds under `roots.files`.
        let (roots, maps) = self.commit_state_locked(true);
        let path = maps
            .files
            .prove(self.store.as_ref(), &statemap::key_file(file))?
            .ok_or(EngineError::UnknownFile(file))?;
        Ok(StateProof {
            header: self.state_header(),
            map_roots: roots.map_roots(),
            file,
            path,
        })
    }
}

/// Every `(file, index, sector)` replica transfer currently awaiting its
/// provider's `File_Confirm`, across all live files in `(file, index)`
/// order.
///
/// The read-only sweep a client or provider drives its confirm batches
/// from: the `fi-sim` scenario harness over its engine, the `fi-node`
/// client over its replayed follower engine.
pub fn pending_confirm_candidates(engine: &Engine) -> Vec<(FileId, u32, SectorId)> {
    engine
        .file_ids()
        .into_iter()
        .flat_map(|f| {
            engine
                .pending_confirms(f)
                .into_iter()
                .map(move |(i, s)| (f, i, s))
        })
        .collect()
}

/// Every `(file, index, sector)` replica currently held by a sector (i.e.
/// provable this cycle), across all live files in `(file, index)` order.
///
/// The proof-sweep counterpart of [`pending_confirm_candidates`]: callers
/// filter by provider behaviour (skip lazy or dark providers) and wrap the
/// survivors into `File_Prove` ops.
pub fn held_replica_candidates(engine: &Engine) -> Vec<(FileId, u32, SectorId)> {
    engine
        .file_ids()
        .into_iter()
        .flat_map(|f| {
            let cp = engine.file(f).map(|d| d.cp).unwrap_or(0);
            (0..cp).map(move |i| (f, i))
        })
        .filter_map(|(f, i)| {
            let e = engine.alloc_entry(f, i)?;
            Some((f, i, e.prev?))
        })
        .collect()
}

/// A read-only view of the five state HAMTs at one [`StateRoots`] — the
/// historical reader behind [`StateView`].
///
/// Obtained from [`Engine::pin_state`] (the tries share the engine's
/// nodes in memory), or constructed directly from any blockstore holding
/// the referenced nodes (e.g. one restored from a delta snapshot; nodes
/// are read from the store as lookups reach them). Either way every read
/// is the same trie walk, and clones are O(1).
#[derive(Debug, Clone)]
pub struct PinnedState {
    store: Arc<dyn Blockstore>,
    roots: StateRoots,
    /// The tries at `roots`.
    maps: StateMaps,
}

impl PinnedState {
    /// A pinned view of `roots` over `store`. The store must hold every
    /// node reachable from the five map roots; missing nodes surface as
    /// [`StoreError::NotFound`] on access, not here.
    pub fn new(store: Arc<dyn Blockstore>, roots: StateRoots) -> Self {
        let maps = StateMaps {
            files: Hamt::load(roots.files),
            alloc: Hamt::load(roots.alloc),
            discard: Hamt::load(roots.discard),
            sectors: Hamt::load(roots.sectors),
            cr: Hamt::load(roots.cr),
        };
        PinnedState { store, roots, maps }
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
            &self.maps.files,
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
            &self.maps.sectors,
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
            &self.maps.alloc,
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
        self.leaf(&self.maps.cr, &statemap::key_sector(id), statemap::dec_cr)
    }

    /// Fallible form of [`StateView::file_ids`].
    ///
    /// # Errors
    ///
    /// Store failures and corrupt nodes/keys as [`variant@Error::Store`].
    pub fn try_file_ids(&self) -> Result<Vec<FileId>, Error> {
        Ok(self.walk_u64_keys(&self.maps.files)?.map(FileId).collect())
    }

    /// Fallible form of [`StateView::sector_ids`].
    ///
    /// # Errors
    ///
    /// Store failures and corrupt nodes/keys as [`variant@Error::Store`].
    pub fn try_sector_ids(&self) -> Result<Vec<SectorId>, Error> {
        Ok(self
            .walk_u64_keys(&self.maps.sectors)?
            .map(SectorId)
            .collect())
    }

    /// Reads and decodes one leaf out of `trie`.
    fn leaf<T>(
        &self,
        trie: &Hamt,
        key: &[u8],
        dec: impl FnOnce(&[u8]) -> Result<T, StoreError>,
    ) -> Result<Option<T>, Error> {
        trie.get(self.store.as_ref(), key)?
            .map(|bytes| dec(&bytes))
            .transpose()
            .map_err(Error::from)
    }

    /// Collects the 8-byte big-endian keys of `trie`, sorted ascending.
    fn walk_u64_keys(&self, trie: &Hamt) -> Result<impl Iterator<Item = u64>, Error> {
        let mut ids = Vec::new();
        let mut malformed = false;
        trie.walk(
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

#[cfg(test)]
mod tests {
    use fi_chain::account::{AccountId, TokenAmount};
    use fi_crypto::sha256;

    use super::*;
    use crate::params::ProtocolParams;

    #[test]
    fn candidate_queries_follow_confirms_and_check_alloc() {
        let params = ProtocolParams {
            k: 3,
            delay_per_size: 6,
            ..ProtocolParams::default()
        };
        let k = params.k;
        let mut e = Engine::new(params).unwrap();
        let (provider, client) = (AccountId(100), AccountId(200));
        e.fund(provider, TokenAmount(1_000_000_000));
        e.fund(client, TokenAmount(100_000_000));
        for _ in 0..4 {
            e.sector_register(provider, 640).unwrap();
        }
        let min_value = e.params().min_value;
        let files: Vec<FileId> = [b"a", b"b"]
            .iter()
            .map(|seed| e.file_add(client, 16, min_value, sha256(*seed)).unwrap())
            .collect();

        // Registered, not yet confirmed: k transfers per file, none held.
        let pending = pending_confirm_candidates(&e);
        let keys: Vec<(FileId, u32)> = pending.iter().map(|&(f, i, _)| (f, i)).collect();
        let expected: Vec<(FileId, u32)> = files
            .iter()
            .flat_map(|&f| (0..k).map(move |i| (f, i)))
            .collect();
        assert_eq!(keys, expected);
        assert!(held_replica_candidates(&e).is_empty());

        // Confirm every transfer, then let Auto_CheckAlloc finalise them.
        assert_eq!(e.honest_providers_act(), (pending.len() as u64, 0));
        e.advance_to(e.now() + e.params().transfer_window(16));
        assert!(pending_confirm_candidates(&e).is_empty());
        assert_eq!(held_replica_candidates(&e), pending);
    }
}
