//! The bridge between the engine's in-memory hot-path state and its
//! content-addressed Merkle commitment (DESIGN.md §15).
//!
//! Three pieces:
//!
//! * [`TrackedMap`] — a `HashMap` wrapper that records which keys were
//!   touched by mutation. The engine's request handlers and audit tasks
//!   keep their O(1) map accesses (dirty marking from `&mut self` is
//!   lock-free); the dirty sets are drained only when a commitment is
//!   needed.
//! * leaf codecs — deterministic big-endian encodings of the five
//!   consensus-visible value types (file descriptors, alloc rows,
//!   discard reasons, sectors, DRep accounting), the byte language of
//!   the HAMT leaves, of [`StateProof`](super::StateProof) payloads and
//!   of the snapshot's map tables.
//! * [`StateMaps`] / [`CommitCell`] — the five engine-level HAMTs (one
//!   per logical map) behind a mutex, so
//!   [`Engine::state_root`](super::Engine::state_root) can sync dirty
//!   keys and commit from `&self`.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::ops::Index;
use std::sync::Mutex;

use fi_chain::account::{AccountId, TokenAmount};
use fi_chain::tasks::Time;
use fi_crypto::{keyed_hash, Hash256};
use fi_store::{Blockstore, Hamt, StoreError};

use crate::codec::{Dec, DecError, Enc};
use crate::drep::CrAccounting;
use crate::types::{
    AllocEntry, AllocState, FileDescriptor, FileId, FileState, RemovalReason, Sector, SectorId,
    SectorState,
};

// ----------------------------------------------------------------------
// TrackedMap
// ----------------------------------------------------------------------

/// A `HashMap` that remembers which keys mutation has touched since the
/// last [`TrackedMap::take_dirty`].
///
/// The method set is deliberately the minimal one the engine uses — in
/// particular there is no `values_mut`/`iter_mut`, which could mutate
/// entries without marking them dirty. `get_mut` conservatively marks the
/// key dirty whether or not the caller writes through the reference.
///
/// The dirty set lives behind a `Mutex` only so it can be *drained* from
/// `&self`: [`Engine::state_root`](super::Engine::state_root) commits
/// through a shared reference. Every marking happens through `&mut self`
/// via the lock-free `Mutex::get_mut`, so the hot path never contends.
#[derive(Debug)]
pub(super) struct TrackedMap<K, V> {
    map: HashMap<K, V>,
    dirty: Mutex<HashSet<K>>,
}

impl<K, V> Default for TrackedMap<K, V> {
    fn default() -> Self {
        TrackedMap {
            map: HashMap::new(),
            dirty: Mutex::new(HashSet::new()),
        }
    }
}

impl<K: Eq + Hash + Copy, V> TrackedMap<K, V> {
    #[inline]
    fn mark(&mut self, key: K) {
        self.dirty.get_mut().expect("dirty set lock").insert(key);
    }

    #[inline]
    pub(super) fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    #[inline]
    pub(super) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if self.map.contains_key(key) {
            self.mark(*key);
        }
        self.map.get_mut(key)
    }

    pub(super) fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.mark(key);
        self.map.insert(key, value)
    }

    /// Adds an entry the owner's commitment already covers: not marked.
    pub(super) fn insert_clean(&mut self, key: K, value: V) {
        self.map.insert(key, value);
    }

    pub(super) fn remove(&mut self, key: &K) -> Option<V> {
        let removed = self.map.remove(key);
        if removed.is_some() {
            self.mark(*key);
        }
        removed
    }

    /// Inserts `value` under `key`, or removes `key` when it is `None`.
    pub(super) fn set(&mut self, key: K, value: Option<V>) {
        match value {
            Some(value) => drop(self.insert(key, value)),
            None => drop(self.remove(&key)),
        }
    }

    #[inline]
    pub(super) fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    #[inline]
    pub(super) fn len(&self) -> usize {
        self.map.len()
    }

    pub(super) fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }

    pub(super) fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values()
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter()
    }

    /// Drains the dirty-key set (callable from `&self`; the state-root
    /// sync is the only consumer).
    pub(super) fn take_dirty(&self) -> Vec<K> {
        let mut dirty = self.dirty.lock().expect("dirty set lock");
        // Draining walks the set's whole capacity — the largest commit
        // ever made — even when it holds nothing.
        if dirty.is_empty() {
            return Vec::new();
        }
        dirty.drain().collect()
    }
}

impl<K: Eq + Hash + Copy, V> Index<&K> for TrackedMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        &self.map[key]
    }
}

impl<K: Eq + Hash + Copy, V: Clone> TrackedMap<K, V> {
    /// A copy with no key marked dirty, for an owner whose commitment
    /// already covers every entry (a plain clone carries the dirty set).
    pub(super) fn clone_clean(&self) -> Self {
        TrackedMap {
            map: self.map.clone(),
            dirty: Mutex::default(),
        }
    }
}

impl<K: Eq + Hash + Copy + Clone, V: Clone> Clone for TrackedMap<K, V> {
    fn clone(&self) -> Self {
        TrackedMap {
            map: self.map.clone(),
            dirty: Mutex::new(self.dirty.lock().expect("dirty set lock").clone()),
        }
    }
}

// ----------------------------------------------------------------------
// Leaf codecs
// ----------------------------------------------------------------------
//
// Each leaf type has a stream codec (`put_*` into an `Enc`, `get_*` out of
// a `Dec`), which the snapshot tables use too, and whole-leaf wrappers
// (`enc_*` / `dec_*`) for the tries. Decoders are defensive: HAMT leaves
// read from a store, carried in a proof or shipped in a snapshot are
// untrusted bytes, and a decoder accepts only bytes its encoder writes.

/// HAMT key of a file-keyed map entry.
pub(super) fn key_file(id: FileId) -> [u8; 8] {
    id.0.to_be_bytes()
}

/// HAMT key of an allocation row.
pub(super) fn key_alloc(file: FileId, index: u32) -> [u8; 12] {
    let mut k = [0u8; 12];
    k[..8].copy_from_slice(&file.0.to_be_bytes());
    k[8..].copy_from_slice(&index.to_be_bytes());
    k
}

/// HAMT key of a sector-keyed map entry.
pub(super) fn key_sector(id: SectorId) -> [u8; 8] {
    id.0.to_be_bytes()
}

/// The id in an untrusted file- or sector-keyed map key ([`key_file`] /
/// [`key_sector`] undone); `what` names the map in the error.
pub(super) fn dec_key_id(key: &[u8], what: &'static str) -> Result<u64, DecError> {
    let key: [u8; 8] = key.try_into().map_err(|_| DecError::Malformed(what))?;
    Ok(u64::from_be_bytes(key))
}

/// [`key_alloc`] undone, for an untrusted key.
pub(super) fn dec_key_alloc(key: &[u8]) -> Result<(FileId, u32), DecError> {
    let key: [u8; 12] = key
        .try_into()
        .map_err(|_| DecError::Malformed("alloc key width"))?;
    let file = u64::from_be_bytes(key[..8].try_into().expect("8B"));
    let index = u32::from_be_bytes(key[8..].try_into().expect("4B"));
    Ok((FileId(file), index))
}

/// One whole leaf of `capacity` bytes, written by `put`.
fn leaf(capacity: usize, put: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc::with_capacity(capacity);
    put(&mut e);
    e.into_bytes()
}

/// One whole leaf read by `get`: bytes left over are corrupt.
fn whole<'a, T>(
    bytes: &'a [u8],
    get: fn(&mut Dec<'a>) -> Result<T, DecError>,
) -> Result<T, StoreError> {
    let mut d = Dec::new(bytes);
    let value = get(&mut d)?;
    if !d.done() {
        return Err(StoreError::Corrupt("trailing bytes in state leaf"));
    }
    Ok(value)
}

pub(super) fn put_file(e: &mut Enc, f: &FileDescriptor) {
    e.u64(f.id.0);
    e.u64(f.owner.0);
    e.u64(f.size);
    e.u128(f.value.0);
    e.hash(&f.merkle_root);
    e.u32(f.cp);
    e.i64(f.cntdown);
    e.u8(match f.state {
        FileState::Allocating => 0,
        FileState::Normal => 1,
        FileState::Discarded => 2,
    });
}

pub(super) fn get_file(d: &mut Dec<'_>) -> Result<FileDescriptor, DecError> {
    Ok(FileDescriptor {
        id: FileId(d.u64()?),
        owner: AccountId(d.u64()?),
        size: d.u64()?,
        value: TokenAmount(d.u128()?),
        merkle_root: d.hash()?,
        cp: d.u32()?,
        cntdown: d.i64()?,
        state: match d.u8()? {
            0 => FileState::Allocating,
            1 => FileState::Normal,
            2 => FileState::Discarded,
            _ => return Err(DecError::Malformed("file state tag")),
        },
    })
}

pub(super) fn enc_file(f: &FileDescriptor) -> Vec<u8> {
    leaf(85, |e| put_file(e, f))
}

pub(super) fn dec_file(bytes: &[u8]) -> Result<FileDescriptor, StoreError> {
    whole(bytes, get_file)
}

pub(super) fn put_alloc_entry(e: &mut Enc, entry: &AllocEntry) {
    e.opt_u64(entry.prev.map(|s| s.0));
    e.opt_u64(entry.next.map(|s| s.0));
    e.opt_u64(entry.last);
    e.u8(match entry.state {
        AllocState::Alloc => 0,
        AllocState::Confirm => 1,
        AllocState::Normal => 2,
        AllocState::Corrupted => 3,
    });
}

pub(super) fn get_alloc_entry(d: &mut Dec<'_>) -> Result<AllocEntry, DecError> {
    Ok(AllocEntry {
        prev: d.opt_u64()?.map(SectorId),
        next: d.opt_u64()?.map(SectorId),
        last: d.opt_u64()?,
        state: match d.u8()? {
            0 => AllocState::Alloc,
            1 => AllocState::Confirm,
            2 => AllocState::Normal,
            3 => AllocState::Corrupted,
            _ => return Err(DecError::Malformed("alloc state tag")),
        },
    })
}

pub(super) fn enc_alloc_entry(entry: &AllocEntry) -> Vec<u8> {
    leaf(28, |e| put_alloc_entry(e, entry))
}

pub(super) fn dec_alloc_entry(bytes: &[u8]) -> Result<AllocEntry, StoreError> {
    whole(bytes, get_alloc_entry)
}

pub(super) fn put_reason(e: &mut Enc, r: RemovalReason) {
    e.u8(r.tag());
}

pub(super) fn get_reason(d: &mut Dec<'_>) -> Result<RemovalReason, DecError> {
    Ok(match d.u8()? {
        0 => RemovalReason::ClientDiscard,
        1 => RemovalReason::InsufficientFunds,
        2 => RemovalReason::UploadFailed,
        3 => RemovalReason::Lost,
        _ => return Err(DecError::Malformed("removal reason tag")),
    })
}

pub(super) fn enc_reason(r: RemovalReason) -> Vec<u8> {
    leaf(1, |e| put_reason(e, r))
}

pub(super) fn dec_reason(bytes: &[u8]) -> Result<RemovalReason, StoreError> {
    whole(bytes, get_reason)
}

pub(super) fn put_sector(e: &mut Enc, s: &Sector) {
    e.u64(s.id.0);
    e.u64(s.owner.0);
    e.u64(s.capacity);
    e.u64(s.free_cap);
    e.u8(match s.state {
        SectorState::Normal => 0,
        SectorState::Disabled => 1,
        SectorState::Corrupted => 2,
    });
    e.u128(s.deposit.0);
    e.u32(s.replica_count);
    e.bool(s.physically_failed);
}

pub(super) fn get_sector(d: &mut Dec<'_>) -> Result<Sector, DecError> {
    Ok(Sector {
        id: SectorId(d.u64()?),
        owner: AccountId(d.u64()?),
        capacity: d.u64()?,
        free_cap: d.u64()?,
        state: match d.u8()? {
            0 => SectorState::Normal,
            1 => SectorState::Disabled,
            2 => SectorState::Corrupted,
            _ => return Err(DecError::Malformed("sector state tag")),
        },
        deposit: TokenAmount(d.u128()?),
        replica_count: d.u32()?,
        physically_failed: d.bool()?,
    })
}

pub(super) fn enc_sector(s: &Sector) -> Vec<u8> {
    leaf(54, |e| put_sector(e, s))
}

pub(super) fn dec_sector(bytes: &[u8]) -> Result<Sector, StoreError> {
    whole(bytes, get_sector)
}

pub(super) fn put_cr(e: &mut Enc, acct: &CrAccounting) {
    let (capacity, cr_size, file_bytes, regenerated, discarded) = acct.snapshot_parts();
    for v in [capacity, cr_size, file_bytes, regenerated, discarded] {
        e.u64(v);
    }
}

pub(super) fn get_cr(d: &mut Dec<'_>) -> Result<CrAccounting, DecError> {
    let parts = (d.u64()?, d.u64()?, d.u64()?, d.u64()?, d.u64()?);
    CrAccounting::from_parts(parts).map_err(DecError::Malformed)
}

pub(super) fn enc_cr(acct: &CrAccounting) -> Vec<u8> {
    leaf(40, |e| put_cr(e, acct))
}

pub(super) fn dec_cr(bytes: &[u8]) -> Result<CrAccounting, StoreError> {
    whole(bytes, get_cr)
}

// ----------------------------------------------------------------------
// The commitment maps
// ----------------------------------------------------------------------

/// The scalar fields [`Engine::state_root`](super::Engine::state_root)
/// commits to alongside the map commitment — everything a
/// [`StateProof`](super::StateProof) must carry to let a verifier
/// recompute the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateHeader {
    /// Consensus time.
    pub now: Time,
    /// Live file count.
    pub files_len: u64,
    /// Live sector count.
    pub sectors_len: u64,
    /// Total token supply.
    pub total_supply: u128,
    /// Internal event/task counter.
    pub op_counter: u64,
    /// Ops applied since genesis.
    pub ops_applied: u64,
    /// Global task schedule sequence.
    pub task_seq: u64,
    /// The audit-digest fold.
    pub audit_root: Hash256,
}

/// The five per-map HAMT roots the state commitment folds over, plus the
/// resulting `state_root` — the base-version identity a delta snapshot
/// records and a [`PinnedState`](super::PinnedState) reads through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateRoots {
    /// `state_root()` at the moment the roots were taken.
    pub state_root: Hash256,
    /// File descriptors (`FileId → FileDescriptor`).
    pub files: Hash256,
    /// Allocation rows (`(FileId, index) → AllocEntry`).
    pub alloc: Hash256,
    /// Pending discard reasons (`FileId → RemovalReason`).
    pub discard: Hash256,
    /// Sectors (`SectorId → Sector`).
    pub sectors: Hash256,
    /// DRep accounting (`SectorId → CrAccounting`).
    pub cr: Hash256,
}

impl StateRoots {
    /// The map roots in canonical fold order.
    pub fn map_roots(&self) -> [Hash256; 5] {
        [self.files, self.alloc, self.discard, self.sectors, self.cr]
    }
}

/// Folds the five map roots into the single map commitment.
pub(super) fn fold_maps_root(roots: &[Hash256; 5]) -> Hash256 {
    keyed_hash(
        "fileinsurer/state-maps",
        &[
            roots[0].as_bytes(),
            roots[1].as_bytes(),
            roots[2].as_bytes(),
            roots[3].as_bytes(),
            roots[4].as_bytes(),
        ],
    )
}

/// Folds the scalar header and the map commitment into `state_root` —
/// the one function both the live engine and proof verifiers use.
pub(super) fn fold_state_root(header: &StateHeader, maps_root: Hash256) -> Hash256 {
    keyed_hash(
        "fileinsurer/state",
        &[
            &header.now.to_be_bytes(),
            &header.files_len.to_be_bytes(),
            &header.sectors_len.to_be_bytes(),
            &header.total_supply.to_be_bytes(),
            &header.op_counter.to_be_bytes(),
            &header.ops_applied.to_be_bytes(),
            &header.task_seq.to_be_bytes(),
            header.audit_root.as_bytes(),
            maps_root.as_bytes(),
        ],
    )
}

/// The five engine-level HAMTs, one per state map (DESIGN.md §15).
#[derive(Debug, Clone, Default)]
pub(super) struct StateMaps {
    pub(super) files: Hamt,
    pub(super) alloc: Hamt,
    pub(super) discard: Hamt,
    pub(super) sectors: Hamt,
    pub(super) cr: Hamt,
}

impl StateMaps {
    /// The five tries in fold order ([`StateRoots::map_roots`]).
    pub(super) fn tries(&self) -> [&Hamt; 5] {
        [
            &self.files,
            &self.alloc,
            &self.discard,
            &self.sectors,
            &self.cr,
        ]
    }

    /// Commits all five maps and returns their roots in fold order. With
    /// a store, also persists the committed version into it
    /// ([`Hamt::flush`]); without, only hashes ([`Hamt::commit`]).
    pub(super) fn seal(
        &mut self,
        store: Option<&dyn Blockstore>,
    ) -> Result<[Hash256; 5], StoreError> {
        let seal = |trie: &mut Hamt| match store {
            Some(store) => trie.flush(store),
            None => Ok(trie.commit()),
        };
        Ok([
            seal(&mut self.files)?,
            seal(&mut self.alloc)?,
            seal(&mut self.discard)?,
            seal(&mut self.sectors)?,
            seal(&mut self.cr)?,
        ])
    }
}

/// [`StateMaps`] behind a mutex, so the commitment can be synced and
/// sealed from `&Engine` (the state root is read in contexts that only
/// hold a shared borrow). Never contended: the engine is externally
/// synchronized for mutation, and parallel phases never touch the cell.
#[derive(Debug, Default)]
pub(super) struct CommitCell(Mutex<StateMaps>);

impl CommitCell {
    /// A cell over tries that already commit to their owner's maps.
    pub(super) fn with_maps(maps: StateMaps) -> Self {
        CommitCell(Mutex::new(maps))
    }

    pub(super) fn lock(&self) -> std::sync::MutexGuard<'_, StateMaps> {
        self.0.lock().expect("state commitment lock")
    }
}

impl Clone for CommitCell {
    fn clone(&self) -> Self {
        CommitCell(Mutex::new(self.lock().clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_map_marks_mutations() {
        let mut m: TrackedMap<u64, String> = TrackedMap::default();
        assert!(m.take_dirty().is_empty());
        m.insert(1, "a".into());
        m.insert(2, "b".into());
        let mut d = m.take_dirty();
        d.sort_unstable();
        assert_eq!(d, vec![1, 2]);
        assert!(m.take_dirty().is_empty(), "drained");

        // Reads don't mark.
        assert_eq!(m.get(&1).map(String::as_str), Some("a"));
        assert!(m.contains_key(&2));
        assert_eq!(m.len(), 2);
        assert_eq!(m[&1], "a");
        assert!(m.take_dirty().is_empty());

        // get_mut marks (even without a write), remove marks only hits.
        m.get_mut(&1).unwrap().push('x');
        assert!(m.get_mut(&99).is_none());
        m.remove(&2);
        m.remove(&98);
        let mut d = m.take_dirty();
        d.sort_unstable();
        assert_eq!(d, vec![1, 2]);

        // Clones carry their own dirty set.
        m.insert(5, "e".into());
        let clone = m.clone();
        let mut clean = m.clone_clean();
        assert_eq!(clone.take_dirty(), vec![5]);
        assert_eq!(m.take_dirty(), vec![5]);
        // A clean copy has the entries and none of the marks.
        clean.insert_clean(6, "f".into());
        assert_eq!((clean.len(), clean[&6].as_str()), (m.len() + 1, "f"));
        assert!(clean.take_dirty().is_empty());
    }

    #[test]
    fn leaf_codecs_roundtrip_and_reject_damage() {
        let desc = FileDescriptor {
            id: FileId(7),
            owner: AccountId(42),
            size: 1234,
            value: TokenAmount(5_000_000),
            merkle_root: fi_crypto::sha256(b"content"),
            cp: 5,
            cntdown: -3,
            state: FileState::Normal,
        };
        let bytes = enc_file(&desc);
        let back = dec_file(&bytes).unwrap();
        assert_eq!(format!("{desc:?}"), format!("{back:?}"));
        assert!(dec_file(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(dec_file(&extra).is_err());
        let mut bad_tag = bytes.clone();
        *bad_tag.last_mut().unwrap() = 9;
        assert!(dec_file(&bad_tag).is_err());

        let entry = AllocEntry {
            prev: Some(SectorId(3)),
            next: None,
            last: Some(99),
            state: AllocState::Confirm,
        };
        let bytes = enc_alloc_entry(&entry);
        let back = dec_alloc_entry(&bytes).unwrap();
        assert_eq!(format!("{entry:?}"), format!("{back:?}"));
        assert!(dec_alloc_entry(&bytes[..2]).is_err());

        for reason in [
            RemovalReason::ClientDiscard,
            RemovalReason::InsufficientFunds,
            RemovalReason::UploadFailed,
            RemovalReason::Lost,
        ] {
            assert_eq!(dec_reason(&enc_reason(reason)).unwrap(), reason);
        }
        assert!(dec_reason(&[7]).is_err());
        assert!(dec_reason(&[]).is_err());

        let sector = Sector {
            id: SectorId(11),
            owner: AccountId(9),
            capacity: 640,
            free_cap: 320,
            state: SectorState::Disabled,
            deposit: TokenAmount(77),
            replica_count: 4,
            physically_failed: true,
        };
        let bytes = enc_sector(&sector);
        let back = dec_sector(&bytes).unwrap();
        assert_eq!(format!("{sector:?}"), format!("{back:?}"));
        let mut bad_bool = bytes.clone();
        *bad_bool.last_mut().unwrap() = 2;
        assert!(dec_sector(&bad_bool).is_err());

        let cr = CrAccounting::from_parts((100, 10, 40, 3, 5)).unwrap();
        let bytes = enc_cr(&cr);
        assert_eq!(
            dec_cr(&bytes).unwrap().snapshot_parts(),
            cr.snapshot_parts()
        );
        // Constructor invariants are enforced on decode too.
        let bad = enc_cr(&cr)
            .iter()
            .enumerate()
            .map(|(i, &b)| if i < 8 { 0 } else { b })
            .collect::<Vec<_>>();
        assert!(dec_cr(&bad).is_err(), "cr_size > capacity rejected");

        // Canonical bytes only, over random rows of every type: a snapshot
        // keeps the bytes it was given as trie leaves, so any bytes a
        // decoder accepts must be the ones its encoder writes.
        let mut rng = fi_crypto::DetRng::from_seed_label(11, "leaf-codecs");
        let sector_id = |rng: &mut fi_crypto::DetRng| match rng.below(2) {
            0 => None,
            _ => Some(SectorId(rng.next_u64())),
        };
        for _ in 0..16 {
            let desc = FileDescriptor {
                id: FileId(rng.next_u64()),
                owner: AccountId(rng.next_u64()),
                size: rng.next_u64(),
                value: TokenAmount(u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())),
                merkle_root: fi_crypto::sha256(&rng.next_u64().to_be_bytes()),
                cp: rng.next_u32(),
                cntdown: rng.next_u64() as i64,
                state: [
                    FileState::Allocating,
                    FileState::Normal,
                    FileState::Discarded,
                ][rng.index(3)],
            };
            assert_canonical(&enc_file(&desc), dec_file, enc_file);
            let entry = AllocEntry {
                prev: sector_id(&mut rng),
                next: sector_id(&mut rng),
                last: sector_id(&mut rng).map(|s| s.0),
                state: [
                    AllocState::Alloc,
                    AllocState::Confirm,
                    AllocState::Normal,
                    AllocState::Corrupted,
                ][rng.index(4)],
            };
            assert_canonical(&enc_alloc_entry(&entry), dec_alloc_entry, enc_alloc_entry);
            let reason = dec_reason(&[rng.below(4) as u8]).unwrap();
            assert_canonical(&enc_reason(reason), dec_reason, |r| enc_reason(*r));
            let capacity = rng.next_u64();
            let sector = Sector {
                id: SectorId(rng.next_u64()),
                owner: AccountId(rng.next_u64()),
                capacity,
                free_cap: rng.below(capacity),
                state: [
                    SectorState::Normal,
                    SectorState::Disabled,
                    SectorState::Corrupted,
                ][rng.index(3)],
                deposit: TokenAmount(u128::from(rng.next_u64())),
                replica_count: rng.next_u32(),
                physically_failed: rng.below(2) == 1,
            };
            assert_canonical(&enc_sector(&sector), dec_sector, enc_sector);
            let cr_size = 1 + rng.below(capacity);
            let parts = (
                capacity,
                cr_size,
                rng.below(capacity),
                rng.next_u64(),
                rng.next_u64(),
            );
            let cr = CrAccounting::from_parts(parts).unwrap();
            assert_canonical(&enc_cr(&cr), dec_cr, enc_cr);
        }
    }

    /// `leaf` decodes to a value that encodes back to it, and so does
    /// every truncation or single-bit flip of it that decodes at all.
    fn assert_canonical<T>(
        leaf: &[u8],
        dec: fn(&[u8]) -> Result<T, StoreError>,
        enc: impl Fn(&T) -> Vec<u8>,
    ) {
        assert_eq!(enc(&dec(leaf).expect("an honest leaf decodes")), leaf);
        let flips = (0..leaf.len() * 8).map(|bit| {
            let mut flipped = leaf.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            flipped
        });
        let cuts = (0..leaf.len()).map(|len| leaf[..len].to_vec());
        for damaged in cuts.chain(flips) {
            if let Ok(value) = dec(&damaged) {
                assert_eq!(enc(&value), damaged, "accepted non-canonical bytes");
            }
        }
    }

    #[test]
    fn key_encodings_are_disjoint_and_ordered() {
        assert_eq!(key_file(FileId(0x0102)), 0x0102u64.to_be_bytes());
        let k = key_alloc(FileId(1), 2);
        assert_eq!(&k[..8], &1u64.to_be_bytes());
        assert_eq!(&k[8..], &2u32.to_be_bytes());
        assert_eq!(key_sector(SectorId(5)), 5u64.to_be_bytes());
        // And back, with typed errors for keys of the wrong width.
        assert_eq!(dec_key_id(&key_file(FileId(0x0102)), "w"), Ok(0x0102));
        assert_eq!(dec_key_alloc(&k), Ok((FileId(1), 2)));
        assert_eq!(dec_key_id(&k, "w"), Err(DecError::Malformed("w")));
        assert!(dec_key_alloc(&k[..8]).is_err());
    }
}
