//! Allocation bookkeeping: capacity-weighted sector sampling with the
//! Fig. 4 collision-retry loop, reservation accounting and rollback,
//! drained-sector removal, corrupted-sector voiding, full file removal,
//! and the §VI-B Poisson swap-in that keeps the allocation distribution
//! i.i.d. capacity-proportional as sectors join.

use crate::types::{AllocState, FileId, ProtocolEvent, RemovalReason, SectorId, SectorState};

use super::{Engine, Task, DEPOSIT_ESCROW};

impl Engine {
    /// Samples a sector with at least `size` free capacity, re-sampling up
    /// to the collision retry limit.
    pub(super) fn sample_sector_with_space(&mut self, size: u64) -> Option<SectorId> {
        let mut rng = self.rng.clone();
        let mut result = None;
        for _ in 0..=self.params.collision_retry_limit {
            let Some(&candidate) = self.sampler.sample(&mut rng) else {
                break;
            };
            let ok = self
                .sectors
                .get(&candidate)
                .map(|s| s.free_cap >= size)
                .unwrap_or(false);
            if ok {
                result = Some(candidate);
                break;
            }
            // No file exists yet at sampling time, so the collision is a
            // global (unattributed) counter.
            self.stats.add_collisions += 1;
        }
        self.rng = rng;
        result
    }

    pub(super) fn reserve(&mut self, sector: SectorId, size: u64) {
        let s = self.sectors.get_mut(&sector).expect("sector exists");
        debug_assert!(s.free_cap >= size, "reservation exceeds free space");
        s.free_cap -= size;
        s.replica_count += 1;
        self.cr
            .get_mut(&sector)
            .expect("cr accounting")
            .add_file(size);
    }

    pub(super) fn release_reservation(&mut self, sector: SectorId, size: u64) {
        if let Some(s) = self.sectors.get_mut(&sector) {
            if s.state == SectorState::Corrupted {
                return;
            }
            s.free_cap += size;
            s.replica_count -= 1;
            self.cr
                .get_mut(&sector)
                .expect("cr accounting")
                .remove_file(size);
            self.maybe_remove_drained(sector);
        }
    }

    pub(super) fn release_reservation_indexed(
        &mut self,
        sector: SectorId,
        file: FileId,
        index: u32,
        size: u64,
    ) {
        if let Some(set) = self.sector_replicas.get_mut(&sector) {
            set.remove(&(file, index));
        }
        self.release_reservation(sector, size);
    }

    /// Releases a stored replica (same as a reservation plus index upkeep).
    pub(super) fn release_replica(
        &mut self,
        sector: SectorId,
        file: FileId,
        index: u32,
        size: u64,
    ) {
        self.release_reservation_indexed(sector, file, index, size);
    }

    /// Removes a drained disabled sector and refunds its deposit.
    pub(super) fn maybe_remove_drained(&mut self, sector: SectorId) {
        let remove = self
            .sectors
            .get(&sector)
            .map(|s| s.state == SectorState::Disabled && s.replica_count == 0)
            .unwrap_or(false);
        if remove {
            let s = self.sectors.remove(&sector).expect("checked");
            self.cr.remove(&sector);
            self.sector_replicas.remove(&sector);
            self.ledger
                .transfer(DEPOSIT_ESCROW, s.owner, s.deposit)
                .expect("escrow covers deposit");
            self.log(ProtocolEvent::SectorRemoved {
                sector,
                refunded: s.deposit,
            });
        }
    }

    /// Resolves every allocation entry touching a newly corrupted sector.
    pub(super) fn void_sector_content(&mut self, sector: SectorId) {
        let touched: Vec<(FileId, u32)> = self
            .sector_replicas
            .get(&sector)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default();
        let now = self.now();
        for (file, index) in touched {
            let size = self.files.get(&file).map(|f| f.size).unwrap_or(0);
            let Some(e) = self.alloc.get(&(file, index)) else {
                continue;
            };
            let (prev, next, state) = (e.prev, e.next, e.state);
            let incoming = next == Some(sector);
            let holding = prev == Some(sector);

            if incoming && holding {
                // Self-move inside the corrupted sector: everything gone.
                let e = self.alloc.get_mut(&(file, index)).expect("entry");
                e.state = AllocState::Corrupted;
                e.next = None;
                continue;
            }
            if incoming {
                // Reservation on the dead sector; the replica (if any)
                // still lives at prev.
                let e = self.alloc.get_mut(&(file, index)).expect("entry");
                e.next = None;
                if prev.is_some() && state != AllocState::Corrupted {
                    e.state = AllocState::Normal; // revert the move
                } else if prev.is_none() {
                    e.state = AllocState::Corrupted; // initial placement died
                }
                continue;
            }
            if holding {
                match state {
                    AllocState::Normal => {
                        let e = self.alloc.get_mut(&(file, index)).expect("entry");
                        e.state = AllocState::Corrupted;
                    }
                    AllocState::Alloc => {
                        // Mid-refresh, source destroyed before handoff: the
                        // pending copy at `next` is unverified raw space —
                        // release it and mark the replica lost.
                        if let Some(n) = next {
                            self.release_reservation_indexed(n, file, index, size);
                        }
                        let e = self.alloc.get_mut(&(file, index)).expect("entry");
                        e.next = None;
                        e.state = AllocState::Corrupted;
                    }
                    AllocState::Confirm => {
                        // The new sector already confirmed holding the
                        // replica: finalise the move early.
                        let e = self.alloc.get_mut(&(file, index)).expect("entry");
                        e.prev = next;
                        e.next = None;
                        e.last = Some(now);
                        e.state = AllocState::Normal;
                        self.stats.refreshes_completed += 1;
                    }
                    AllocState::Corrupted => {}
                }
            }
        }
        self.sector_replicas.remove(&sector);
    }

    /// Removes a file and releases everything it holds.
    pub(super) fn remove_file_completely(&mut self, file: FileId, reason: RemovalReason) {
        let Some(desc) = self.files.remove(&file) else {
            return;
        };
        self.discard_reasons.remove(&file);
        for i in 0..desc.cp {
            let Some(e) = self.alloc.remove(&(file, i)) else {
                continue;
            };
            match e.state {
                AllocState::Normal => {
                    if let Some(s) = e.prev {
                        self.release_replica(s, file, i, desc.size);
                    }
                }
                AllocState::Alloc | AllocState::Confirm => {
                    if let Some(s) = e.next {
                        self.release_reservation_indexed(s, file, i, desc.size);
                    }
                    if let Some(s) = e.prev {
                        self.release_replica(s, file, i, desc.size);
                    }
                }
                AllocState::Corrupted => {}
            }
        }
        self.log(ProtocolEvent::FileRemoved { file, reason });
    }

    /// §VI-B swap-in: move a Poisson-distributed number of existing
    /// replicas into a freshly registered sector so the allocation
    /// distribution stays i.i.d. capacity-proportional.
    pub(super) fn poisson_swap_in(&mut self, sector: SectorId) {
        let capacity = self.sectors[&sector].capacity;
        let total: u64 = self.sampler.total_weight();
        if total == 0 {
            return;
        }
        // Count replicas currently placed (Normal entries only).
        let placed: Vec<(FileId, u32)> = {
            let mut v: Vec<_> = self
                .alloc
                .iter()
                .filter(|(_, e)| e.state == AllocState::Normal)
                .map(|(&k, _)| k)
                .collect();
            v.sort_unstable();
            v
        };
        if placed.is_empty() {
            return;
        }
        let mean = placed.len() as f64 * capacity as f64 / total as f64;
        let count = (self.rng.sample_poisson(mean) as usize).min(placed.len());
        if count == 0 {
            return;
        }
        let chosen = self.rng.sample_distinct(placed.len(), count);
        for idx in chosen {
            let (file, i) = placed[idx];
            self.forced_refresh_to(file, i, sector);
        }
    }

    /// Starts a refresh of `(file, index)` targeted at `sector` (used by
    /// the §VI-B swap-in; ordinary refreshes sample their target).
    fn forced_refresh_to(&mut self, file: FileId, index: u32, sector: SectorId) {
        let Some(desc) = self.files.get(&file) else {
            return;
        };
        let size = desc.size;
        let ok = self.alloc.get(&(file, index)).map(|e| e.state) == Some(AllocState::Normal)
            && self
                .sectors
                .get(&sector)
                .map(|s| s.state == SectorState::Normal && s.free_cap >= size)
                .unwrap_or(false);
        if !ok {
            return;
        }
        self.reserve(sector, size);
        self.sector_replicas
            .get_mut(&sector)
            .expect("sector index")
            .insert((file, index));
        let e = self.alloc.get_mut(&(file, index)).expect("entry");
        let from = e.prev;
        e.next = Some(sector);
        e.state = AllocState::Alloc;
        let deadline = self.now() + self.params.transfer_window(size);
        self.schedule_task(deadline, Task::CheckRefresh(file, index));
        self.stats.refreshes_started += 1;
        self.log(ProtocolEvent::ReplicaSwap {
            file,
            index,
            from,
            to: sector,
        });
    }
}
