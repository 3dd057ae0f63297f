//! A DRep sector with materialized sealed content (paper §III-D, Fig. 2).
//!
//! The engine keeps only [`CrAccounting`] per sector. [`MaterializedSector`]
//! drives the same accounting with real sealed Capacity Replicas and file
//! replicas from `fi-porep`, to demonstrate at small scale that every byte
//! of claimed space is provable (the `drep_lifecycle` example).

use std::collections::HashMap;

use fi_core::drep::CrAccounting;
use fi_crypto::Hash256;
use fi_porep::{CapacityReplica, SealedReplica};

/// A sector with *materialized* sealed content: real CRs and real file
/// replicas, able to answer PoSt challenges for every committed root.
///
/// Used at small scale (tests, examples); the engine keeps only
/// [`CrAccounting`] per sector.
#[derive(Debug)]
pub struct MaterializedSector {
    /// Tag deriving CR replica ids (unique per sector).
    sector_tag: Hash256,
    /// Size of one CR (the accounting's granularity).
    cr_size: u64,
    accounting: CrAccounting,
    /// Live CRs by slot.
    crs: HashMap<u32, CapacityReplica>,
    /// Next never-used CR slot.
    next_slot: u32,
    /// Stored file replicas keyed by an opaque handle.
    files: HashMap<u64, SealedReplica>,
    next_handle: u64,
}

impl MaterializedSector {
    /// Registers the sector: capacity fully covered by fresh CRs.
    ///
    /// # Panics
    ///
    /// Panics if `cr_size` is zero or exceeds `capacity`.
    pub fn register(sector_tag: Hash256, capacity: u64, cr_size: u64) -> Self {
        let accounting = CrAccounting::new(capacity, cr_size);
        let mut crs = HashMap::new();
        for slot in 0..accounting.cr_count() as u32 {
            crs.insert(
                slot,
                CapacityReplica::generate(&sector_tag, slot, cr_size as usize),
            );
        }
        let next_slot = accounting.cr_count() as u32;
        MaterializedSector {
            sector_tag,
            cr_size,
            accounting,
            crs,
            next_slot,
            files: HashMap::new(),
            next_handle: 0,
        }
    }

    /// The bookkeeping view.
    pub fn accounting(&self) -> &CrAccounting {
        &self.accounting
    }

    /// Commitments of all live CRs (registered on chain at setup; §III-D).
    pub fn cr_commitments(&self) -> Vec<Hash256> {
        let mut slots: Vec<_> = self.crs.keys().copied().collect();
        slots.sort_unstable();
        slots.iter().map(|s| self.crs[s].comm_r()).collect()
    }

    /// Stores a sealed file replica, discarding CRs as needed. Returns an
    /// opaque handle for later removal.
    ///
    /// # Panics
    ///
    /// Panics if the replica does not fit in the free space.
    pub fn store_file(&mut self, replica: SealedReplica) -> u64 {
        let size = replica.original_len() as u64;
        let dropped = self.accounting.add_file(size);
        // Discard the highest-numbered CRs first (Fig. 2(b)).
        for _ in 0..dropped {
            let &max_slot = self.crs.keys().max().expect("CRs available to drop");
            self.crs.remove(&max_slot);
        }
        let handle = self.next_handle;
        self.next_handle += 1;
        self.files.insert(handle, replica);
        handle
    }

    /// Removes a file replica by handle, regenerating CRs into the freed
    /// space (Fig. 2(c)). Returns the replica.
    ///
    /// # Panics
    ///
    /// Panics if the handle is unknown.
    pub fn remove_file(&mut self, handle: u64) -> SealedReplica {
        let replica = self.files.remove(&handle).expect("unknown file handle");
        let regen = self.accounting.remove_file(replica.original_len() as u64);
        for _ in 0..regen {
            // Regeneration reuses fresh slots; commitments are deterministic
            // per (sector_tag, slot) so re-verification is unnecessary for
            // previously seen slots and cheap for new ones.
            let slot = self.next_slot;
            self.next_slot += 1;
            self.crs.insert(
                slot,
                CapacityReplica::generate(&self.sector_tag, slot, self.cr_size as usize),
            );
        }
        replica
    }

    /// A stored file replica by handle.
    pub fn file(&self, handle: u64) -> Option<&SealedReplica> {
        self.files.get(&handle)
    }

    /// All live CRs.
    pub fn crs(&self) -> impl Iterator<Item = &CapacityReplica> {
        self.crs.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_crypto::sha256;
    use fi_porep::post::{derive_challenges, WindowPost};
    use fi_porep::seal::ReplicaId;

    #[test]
    fn materialized_sector_serves_posts_for_all_content() {
        let tag = sha256(b"mat-sector");
        let mut sector = MaterializedSector::register(tag, 640, 64);
        assert_eq!(sector.cr_commitments().len(), 10);

        // Store a file replica.
        let data = vec![9u8; 100];
        let rid = ReplicaId::derive(&sha256(b"f"), &tag, 0);
        let replica = SealedReplica::seal(&data, rid);
        let handle = sector.store_file(replica);
        assert_eq!(sector.accounting().cr_count(), 8); // 540 free -> 8 CRs
        assert!(sector.accounting().invariant_holds());

        // Every live CR answers challenges.
        let beacon = sha256(b"b1");
        for cr in sector.crs() {
            let ch = derive_challenges(&beacon, &cr.comm_r(), 2, cr.replica().chunk_count());
            let post = WindowPost::respond(cr.replica(), &ch);
            assert!(post.verify(&cr.comm_r(), &ch));
        }
        // And so does the file replica.
        let file = sector.file(handle).unwrap();
        let ch = derive_challenges(&beacon, &file.comm_r(), 2, file.chunk_count());
        assert!(WindowPost::respond(file, &ch).verify(&file.comm_r(), &ch));

        // Removing the file regenerates CRs deterministically.
        let removed = sector.remove_file(handle);
        assert_eq!(removed.unseal(), data);
        assert_eq!(sector.accounting().cr_count(), 10);
    }

    #[test]
    fn regenerated_crs_do_not_collide_with_live_ones() {
        let tag = sha256(b"regen-sector");
        let mut sector = MaterializedSector::register(tag, 300, 100);
        let rid = ReplicaId::derive(&sha256(b"g"), &tag, 0);
        let h1 = sector.store_file(SealedReplica::seal(&[1u8; 150], rid));
        sector.remove_file(h1);
        let roots = sector.cr_commitments();
        let unique: std::collections::HashSet<_> = roots.iter().collect();
        assert_eq!(unique.len(), roots.len(), "all CR commitments distinct");
    }
}
