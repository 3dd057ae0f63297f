//! Dynamic Replication (DRep): Capacity-Replica accounting per sector.
//!
//! Paper §III-D and Fig. 2: a sector is registered *full of Capacity
//! Replicas* (CRs — sealings of zeros). As files arrive, CRs are discarded
//! to make room; as files leave, CRs are **regenerated** (cheaply, from
//! nothing, because their raw data is zeros and their commitments were
//! verified at registration). The invariant maintained is:
//!
//! > "The sector is requested to contain as many CRs as possible while
//! > storing files. Therefore, the unsealed space of a sector is smaller
//! > than the size of a CR."
//!
//! [`CrAccounting`] is the O(1) bookkeeping the protocol engine keeps for
//! every sector (no crypto executed); the umbrella crate's
//! `materialized::MaterializedSector` seals real CRs over it.

/// O(1) Capacity-Replica bookkeeping for one sector.
///
/// # Example
///
/// ```
/// use fi_core::drep::CrAccounting;
/// let mut acct = CrAccounting::new(600, 100); // capacity 600, CR size 100
/// assert_eq!(acct.cr_count(), 6);             // Fig. 2(a)
/// acct.add_file(250);
/// assert_eq!(acct.cr_count(), 3);             // 350 free -> 3 CRs + 50 unsealed
/// acct.remove_file(250);
/// assert_eq!(acct.cr_count(), 6);             // Fig. 2(c): CRs regenerated
/// assert!(acct.unsealed() < 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrAccounting {
    capacity: u64,
    cr_size: u64,
    file_bytes: u64,
    /// Cumulative CRs regenerated (Fig. 2(c) events) — a cost metric for
    /// the DRep-vs-naive ablation.
    regenerated: u64,
    /// Cumulative CRs discarded to admit files.
    discarded: u64,
}

impl CrAccounting {
    /// A freshly registered sector: filled with CRs.
    ///
    /// # Panics
    ///
    /// Panics if `cr_size == 0` or `cr_size > capacity`.
    pub fn new(capacity: u64, cr_size: u64) -> Self {
        assert!(cr_size > 0 && cr_size <= capacity, "invalid CR size");
        CrAccounting {
            capacity,
            cr_size,
            file_bytes: 0,
            regenerated: 0,
            discarded: 0,
        }
    }

    /// Current number of whole CRs held.
    pub fn cr_count(&self) -> u64 {
        (self.capacity - self.file_bytes) / self.cr_size
    }

    /// Unsealed (neither file nor CR) space; always `< cr_size`.
    pub fn unsealed(&self) -> u64 {
        (self.capacity - self.file_bytes) % self.cr_size
    }

    /// Bytes occupied by file replicas.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Free capacity from the allocator's point of view.
    pub fn free(&self) -> u64 {
        self.capacity - self.file_bytes
    }

    /// Total CRs regenerated over this sector's life.
    pub fn total_regenerated(&self) -> u64 {
        self.regenerated
    }

    /// Total CRs discarded over this sector's life.
    pub fn total_discarded(&self) -> u64 {
        self.discarded
    }

    /// Admits a file of `size`, discarding as few CRs as needed. Returns
    /// the number of CRs discarded.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds the free capacity — the allocator must
    /// check `free()` first (the engine does; Fig. 4's `while` loop).
    pub fn add_file(&mut self, size: u64) -> u64 {
        assert!(size <= self.free(), "sector overfull");
        let before = self.cr_count();
        self.file_bytes += size;
        let dropped = before - self.cr_count();
        self.discarded += dropped;
        dropped
    }

    /// Releases a file of `size`, regenerating CRs into the freed space.
    /// Returns the number of CRs regenerated.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds the current file bytes.
    pub fn remove_file(&mut self, size: u64) -> u64 {
        assert!(size <= self.file_bytes, "removing more than stored");
        let before = self.cr_count();
        self.file_bytes -= size;
        let regen = self.cr_count() - before;
        self.regenerated += regen;
        regen
    }

    /// The DRep invariant (§III-D): unsealed space strictly below one CR.
    pub fn invariant_holds(&self) -> bool {
        self.unsealed() < self.cr_size
    }

    /// The raw accounting fields for snapshots:
    /// `(capacity, cr_size, file_bytes, regenerated, discarded)`.
    pub fn snapshot_parts(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.capacity,
            self.cr_size,
            self.file_bytes,
            self.regenerated,
            self.discarded,
        )
    }

    /// Rebuilds accounting from [`CrAccounting::snapshot_parts`] output.
    ///
    /// # Errors
    ///
    /// Returns a description when the fields violate the constructor
    /// invariants (`0 < cr_size ≤ capacity`, `file_bytes ≤ capacity`).
    pub fn from_parts(parts: (u64, u64, u64, u64, u64)) -> Result<Self, &'static str> {
        let (capacity, cr_size, file_bytes, regenerated, discarded) = parts;
        if cr_size == 0 || cr_size > capacity {
            return Err("CR size must be positive and at most the capacity");
        }
        if file_bytes > capacity {
            return Err("stored file bytes exceed the sector capacity");
        }
        Ok(CrAccounting {
            capacity,
            cr_size,
            file_bytes,
            regenerated,
            discarded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_lifecycle() {
        // Fig. 2: six CRs -> files displace CRs -> removal regenerates CR3.
        let mut acct = CrAccounting::new(600, 100);
        assert_eq!(acct.cr_count(), 6);
        assert_eq!(acct.unsealed(), 0);

        // (b): files totalling 370 leave 230 free = 2 CRs + 30 unsealed.
        acct.add_file(200);
        acct.add_file(170);
        assert_eq!(acct.cr_count(), 2);
        assert_eq!(acct.unsealed(), 30);
        assert!(acct.invariant_holds());

        // (c): dropping the 170 file frees 400 = 4 CRs + 0 unsealed.
        acct.remove_file(170);
        assert_eq!(acct.cr_count(), 4);
        assert_eq!(acct.total_regenerated(), 2);
        assert!(acct.invariant_holds());
    }

    #[test]
    fn invariant_under_random_churn() {
        let mut acct = CrAccounting::new(10_000, 64);
        let mut stored: Vec<u64> = Vec::new();
        let mut rng = fi_crypto::DetRng::from_seed_label(31, "churn");
        for _ in 0..2000 {
            if rng.bernoulli(0.6) {
                let size = 1 + rng.below(300);
                if size <= acct.free() {
                    acct.add_file(size);
                    stored.push(size);
                }
            } else if !stored.is_empty() {
                let idx = rng.index(stored.len());
                let size = stored.swap_remove(idx);
                acct.remove_file(size);
            }
            assert!(acct.invariant_holds());
            assert_eq!(
                acct.file_bytes(),
                stored.iter().sum::<u64>(),
                "accounting drift"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sector overfull")]
    fn overfull_rejected() {
        let mut acct = CrAccounting::new(100, 10);
        acct.add_file(101);
    }
}
