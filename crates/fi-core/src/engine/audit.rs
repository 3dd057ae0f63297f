//! The `Auto_*` consensus tasks (Figs. 7–9) and the punishment machinery:
//! `Auto_CheckAlloc`, `Auto_CheckProof`, `Auto_Refresh`,
//! `Auto_CheckRefresh`, rent distribution, deposit confiscation, and the
//! adversarial fault-injection ops.
//!
//! These are *not* transactions: they run by consensus when
//! [`Engine::advance_to`] moves time past their deadline, which is exactly
//! why the op log stays replayable — the same `AdvanceTo` op deterministically
//! re-executes the same task sequence.
//!
//! `Auto_CheckProof` is split in two phases. The **verify** phase
//! ([`Engine::verify_bucket`]) cryptographically checks the storage proofs
//! on record for a popped bucket — a modeled Merkle path walk per audited
//! replica, the simulated WindowPoSt verification cost. It reads only the
//! audited file's rows and the parameters, so contiguous ranges of a
//! bucket's audit tasks verify concurrently on scoped threads
//! (`pool::fan_out`). The **commit** phase (the `auto_*` handlers below) then
//! runs every task of the bucket in the pending list's `(time,
//! schedule-seq)` pop order, folding each audit digest into the engine's
//! `audit_root` before applying rent, punishments and refreshes. It is the
//! paper's `Auto_CheckProof` loop (Fig. 8) as written: one task at a time,
//! on the calling thread, so the result cannot depend on how many threads
//! verified.
//!
//! Inside one range, [`verify_audits`] batches the work: every audited
//! replica becomes a *lane*, and all lanes walk their authentication paths
//! in lockstep through the fused path-walk kernel
//! ([`fi_crypto::KeyedDomain::walk_paths`], shared with `File_Prove`
//! staging through [`walk_replicas`]). A single path walk is an inherently
//! sequential hash chain, but independent paths are not — the walker
//! carries 16 (AVX-512) lanes, or 2 interleaved SHA-NI streams, through
//! all their levels in registers. Ranges of every size take this path;
//! the per-task walk on plain [`fi_crypto::keyed_hash`] (`verify_check_proof`) is the
//! test oracle the differential test pins it against bit for bit.

use fi_chain::account::TokenAmount;
use fi_chain::tasks::Time;
use fi_crypto::{cached_domain, DetRng, Hash256, KeyedDomain};

use crate::types::{
    AllocState, FileId, FileState, ProtocolEvent, RemovalReason, SectorId, SectorState,
};

use super::pool::fan_out;
use super::{
    Engine, SeqTask, Task, COMPENSATION_POOL, DEPOSIT_ESCROW, PARALLEL_FANOUT_MIN_ITEMS, RENT_POOL,
    TRAFFIC_ESCROW,
};

/// The read-only verdict of auditing one `Auto_CheckProof` task: a
/// commitment over every verified replica proof, later folded into the
/// engine's `audit_root` by the commit phase, plus how many replicas were
/// checked (surfaced as `EngineStats::proofs_audited`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct ProofAudit {
    /// Fold of the per-replica verification digests, in replica order.
    pub(super) digest: Hash256,
    /// Replicas whose proof-on-record was verified.
    pub(super) replicas_checked: u64,
}

impl Engine {
    // ------------------------------------------------------------------
    // Verify phase (read-only, parallel across audit tasks)
    // ------------------------------------------------------------------

    /// Audits every `Auto_CheckProof` task in a popped bucket, one verdict
    /// per audit task, in bucket order. Audits are independent per (file,
    /// replica), so a large bucket, with the parallel paths on, splits its
    /// audit tasks into contiguous ranges verified in parallel.
    pub(super) fn verify_bucket(&self, bucket: &[(Time, SeqTask)], now: Time) -> Vec<ProofAudit> {
        let files: Vec<FileId> = bucket
            .iter()
            .filter_map(|(_, (_, t))| t.audited())
            .collect();
        let parallel = self.params.shards > 1 && files.len() >= PARALLEL_FANOUT_MIN_ITEMS;
        let path_len = self.params.audit_path_len;
        fan_out(self.pool_for(parallel), files, |files| {
            verify_audits(self, &files, now, path_len)
        })
    }

    // ------------------------------------------------------------------
    // Adversary / fault injection
    // ------------------------------------------------------------------

    /// Injects a *silent* physical failure: the provider can no longer
    /// produce storage proofs; the network discovers it via the
    /// `ProofDeadline` machinery (the realistic path).
    ///
    /// # Panics
    ///
    /// Panics on unknown sector.
    pub fn fail_sector_silently(&mut self, sector: SectorId) {
        self.apply(crate::ops::Op::FailSector { sector })
            .expect("fault injection is infallible");
    }

    pub(super) fn fail_sector_op(&mut self, sector: SectorId) {
        self.sectors
            .get_mut(&sector)
            .expect("unknown sector")
            .physically_failed = true;
        self.op_counter += 1;
    }

    /// Corrupts a sector *with immediate detection*: deposit confiscated,
    /// replicas voided, mid-refresh transfers resolved (used by
    /// experiments that don't simulate the proof timeline).
    ///
    /// # Panics
    ///
    /// Panics on unknown sector.
    pub fn corrupt_sector_now(&mut self, sector: SectorId) {
        self.apply(crate::ops::Op::CorruptSector { sector })
            .expect("fault injection is infallible");
    }

    pub(super) fn corrupt_sector_op(&mut self, sector: SectorId) {
        let s = self.sectors.get_mut(&sector).expect("unknown sector");
        if s.state == SectorState::Corrupted {
            return;
        }
        s.state = SectorState::Corrupted;
        s.physically_failed = true;
        let confiscated = s.deposit;
        s.deposit = TokenAmount::ZERO;
        self.sampler.remove(&sector);
        self.ledger
            .transfer(DEPOSIT_ESCROW, COMPENSATION_POOL, confiscated)
            .expect("deposit escrow covers pledged deposits");
        self.stats.sectors_corrupted += 1;
        self.log(ProtocolEvent::SectorCorrupted {
            sector,
            confiscated,
        });
        self.void_sector_content(sector);
        self.op_counter += 1;
    }

    // ------------------------------------------------------------------
    // Auto tasks (the sequential commit phase)
    // ------------------------------------------------------------------

    /// `Auto_CheckAlloc` (Fig. 7).
    pub(super) fn auto_check_alloc(&mut self, file: FileId) {
        let Some(desc) = self.files.get(&file) else {
            return;
        };
        let cp = desc.cp;
        let owner = desc.owner;
        let size = desc.size;

        // First pass: all entries must be Confirm or Corrupted.
        let all_ok = (0..cp).all(|i| {
            matches!(
                self.alloc.get(&(file, i)).map(|e| e.state),
                Some(AllocState::Confirm) | Some(AllocState::Corrupted)
            )
        });
        if !all_ok {
            // Upload failed: refund outstanding traffic escrow for
            // unconfirmed replicas, release reservations, drop the file.
            let unconfirmed = (0..cp)
                .filter(|&i| self.alloc.get(&(file, i)).map(|e| e.state) == Some(AllocState::Alloc))
                .count() as u128;
            let refund = TokenAmount(self.params.traffic_fee(size).0 * unconfirmed);
            self.ledger.transfer_up_to(TRAFFIC_ESCROW, owner, refund);
            self.remove_file_completely(file, RemovalReason::UploadFailed);
            return;
        }

        // Second pass: finalise.
        let now = self.now();
        for i in 0..cp {
            let e = self.alloc.get_mut(&(file, i)).expect("entry exists");
            match e.state {
                AllocState::Confirm => {
                    e.prev = e.next.take();
                    e.last = Some(now);
                    e.state = AllocState::Normal;
                }
                AllocState::Corrupted => {
                    e.prev = None;
                    e.next = None;
                    e.last = None;
                }
                _ => unreachable!("checked above"),
            }
        }
        let avg_refresh = self.params.avg_refresh;
        let cntdown = Self::sample_cntdown(&mut self.rng, avg_refresh);
        let desc = self.files.get_mut(&file).expect("file exists");
        // A discard issued during the transfer window (File_Discard, or the
        // file_add_segmented rollback) must survive finalisation: keep the
        // state so the first Auto_CheckProof removes the file instead of it
        // silently reviving as Normal.
        if desc.state != FileState::Discarded {
            desc.state = FileState::Normal;
        }
        desc.cntdown = cntdown;
        self.schedule_task(now + self.params.proof_cycle, Task::CheckProof(file));
        self.log(ProtocolEvent::FileStored { file });
    }

    /// `Auto_CheckProof` (Fig. 8) — the commit half. The cryptographic
    /// verification of the proofs on record already happened in the
    /// read-only phase; its digest arrives as `audit` and is folded into
    /// the engine's audit root first, so the root pins the parallel
    /// verification results in canonical order.
    pub(super) fn auto_check_proof(&mut self, file: FileId, audit: Option<ProofAudit>) {
        if let Some(a) = &audit {
            self.audit_root =
                audit_root_domain().hash(&[self.audit_root.as_bytes(), a.digest.as_bytes()]);
            self.stats.proofs_audited += a.replicas_checked;
        }
        let Some(desc) = self.files.get(&file) else {
            return;
        };
        let owner = desc.owner;
        let size = desc.size;
        let cp = desc.cp;
        let now = self.now();

        // 1. Charge the next cycle (rent + prepaid gas) or force-discard.
        if desc.state == FileState::Normal {
            let cost = self.params.cycle_cost(size, cp);
            if self.ledger.balance(owner) < cost {
                let desc = self.files.get_mut(&file).expect("file exists");
                desc.state = FileState::Discarded;
                self.discard_reasons
                    .insert(file, RemovalReason::InsufficientFunds);
            } else {
                let rent = TokenAmount(self.params.unit_rent.0 * size as u128 * cp as u128);
                let gas = cost - rent;
                self.ledger
                    .transfer(owner, RENT_POOL, rent)
                    .expect("balance checked");
                self.ledger.burn(owner, gas).expect("balance checked");
            }
        }

        // 2. Late-proof checks per entry.
        for i in 0..cp {
            let Some(e) = self.alloc.get(&(file, i)) else {
                continue;
            };
            if e.state == AllocState::Corrupted {
                continue;
            }
            let Some(holder) = e.prev else { continue };
            let holder_corrupted = self
                .sectors
                .get(&holder)
                .map(|s| s.state == SectorState::Corrupted)
                .unwrap_or(true);
            if holder_corrupted {
                continue;
            }
            let last = e.last.unwrap_or(0);
            if now >= last + self.params.proof_deadline {
                self.confiscate_and_corrupt(holder);
            } else if now >= last + self.params.proof_due {
                self.punish(holder);
            }
        }

        // 3. Removal / loss / reschedule.
        let state = self.files.get(&file).map(|f| f.state);
        if state == Some(FileState::Discarded) {
            let reason = self
                .discard_reasons
                .remove(&file)
                .unwrap_or(RemovalReason::ClientDiscard);
            self.remove_file_completely(file, reason);
            return;
        }
        let all_corrupted = (0..cp)
            .all(|i| self.alloc.get(&(file, i)).map(|e| e.state) == Some(AllocState::Corrupted));
        if all_corrupted {
            self.compensate_loss(file);
            return;
        }
        self.schedule_task(now + self.params.proof_cycle, Task::CheckProof(file));
        let desc = self.files.get_mut(&file).expect("file exists");
        desc.cntdown -= 1;
        if desc.cntdown <= 0 {
            let i = self.rng.below(cp as u64) as u32; // RandomIndex(f)
            self.auto_refresh(file, i);
        }
    }

    /// `Auto_Refresh` (Fig. 9).
    pub(super) fn auto_refresh(&mut self, file: FileId, index: u32) {
        let Some(desc) = self.files.get(&file) else {
            return;
        };
        let size = desc.size;
        let entry_state = self.alloc.get(&(file, index)).map(|e| e.state);
        if entry_state != Some(AllocState::Normal) {
            // The chosen replica is corrupted or already mid-move; re-arm.
            let avg = self.params.avg_refresh;
            let cntdown = Self::sample_cntdown(&mut self.rng, avg);
            if let Some(d) = self.files.get_mut(&file) {
                d.cntdown = cntdown;
            }
            return;
        }

        let target = {
            let mut rng = self.rng.clone();
            let choice = self.sampler.sample(&mut rng).copied();
            self.rng = rng;
            choice
        };
        let fits = target
            .and_then(|s| self.sectors.get(&s))
            .map(|s| s.free_cap >= size)
            .unwrap_or(false);
        if !fits {
            // Collision — "almost never happens" (Fig. 9 else-branch).
            self.stats.refresh_collisions += 1;
            self.log(ProtocolEvent::RefreshCollision { file, index });
            let avg = self.params.avg_refresh;
            let cntdown = Self::sample_cntdown(&mut self.rng, avg);
            if let Some(d) = self.files.get_mut(&file) {
                d.cntdown = cntdown;
            }
            return;
        }
        let target = target.expect("fits implies some");
        self.reserve(target, size);
        self.sector_replicas
            .get_mut(&target)
            .expect("sector index")
            .insert((file, index));
        let e = self.alloc.get_mut(&(file, index)).expect("entry exists");
        let from = e.prev;
        e.next = Some(target);
        e.state = AllocState::Alloc;
        let deadline = self.now() + self.params.transfer_window(size);
        self.schedule_task(deadline, Task::CheckRefresh(file, index));
        self.stats.refreshes_started += 1;
        self.log(ProtocolEvent::ReplicaSwap {
            file,
            index,
            from,
            to: target,
        });
    }

    /// `Auto_CheckRefresh` (Fig. 9).
    pub(super) fn auto_check_refresh(&mut self, file: FileId, index: u32) {
        let Some(desc) = self.files.get(&file) else {
            return;
        };
        let size = desc.size;
        let cp = desc.cp;
        let avg = self.params.avg_refresh;
        let now = self.now();
        let Some(entry) = self.alloc.get(&(file, index)) else {
            return;
        };
        let (state, prev, next) = (entry.state, entry.prev, entry.next);

        match state {
            AllocState::Confirm => {
                // Transfer succeeded: release the old holder, flip over.
                let e = self.alloc.get_mut(&(file, index)).expect("entry");
                e.prev = next;
                e.next = None;
                e.last = Some(now);
                e.state = AllocState::Normal;
                if let Some(old_sector) = prev {
                    if prev == next {
                        // Self-move: free the transient second copy but keep
                        // the replica's membership in the sector index.
                        self.release_reservation(old_sector, size);
                    } else {
                        self.release_replica(old_sector, file, index, size);
                    }
                }
                self.stats.refreshes_completed += 1;
                let cntdown = Self::sample_cntdown(&mut self.rng, avg);
                if let Some(d) = self.files.get_mut(&file) {
                    d.cntdown = cntdown;
                }
            }
            AllocState::Alloc => {
                // Not confirmed in time: punish the tardy target and every
                // current holder (Fig. 9: "punish entry.next; for j ∈ [f.cp]
                // punish allocTable[f,j].prev"), then retry the refresh.
                if let Some(t) = next {
                    self.punish(t);
                    self.release_reservation_indexed(t, file, index, size);
                }
                let e = self.alloc.get_mut(&(file, index)).expect("entry");
                e.next = None;
                e.state = AllocState::Normal;
                let mut holders = Vec::new();
                for j in 0..cp {
                    if let Some(other) = self.alloc.get(&(file, j)) {
                        if other.state != AllocState::Corrupted {
                            if let Some(h) = other.prev {
                                holders.push(h);
                            }
                        }
                    }
                }
                for h in holders {
                    self.punish(h);
                }
                self.auto_refresh(file, index);
            }
            // Resolved by corruption handling in the meantime.
            AllocState::Normal | AllocState::Corrupted => {}
        }
    }

    /// Rent distribution at period end (§IV-A.2): pro rata capacity over
    /// sectors functioning this period.
    pub(super) fn auto_distribute_rent(&mut self) {
        let pool = self.ledger.balance(RENT_POOL);
        let live: Vec<(SectorId, fi_chain::account::AccountId, u64)> = {
            let mut v: Vec<_> = self
                .sectors
                .values()
                .filter(|s| s.state != SectorState::Corrupted)
                .map(|s| (s.id, s.owner, s.capacity))
                .collect();
            v.sort_unstable_by_key(|(id, _, _)| *id);
            v
        };
        let total_capacity: u64 = live.iter().map(|(_, _, c)| c).sum();
        let mut paid = TokenAmount::ZERO;
        if !pool.is_zero() && total_capacity > 0 {
            for (_, owner, capacity) in &live {
                let share = pool.mul_ratio(*capacity as u128, total_capacity as u128);
                if !share.is_zero() {
                    self.ledger
                        .transfer(RENT_POOL, *owner, share)
                        .expect("pool covers shares");
                    paid += share;
                }
            }
        }
        self.log(ProtocolEvent::RentDistributed { total: paid });
        let next = self.now() + self.rent_period();
        self.schedule_task(next, Task::DistributeRent);
    }

    // ------------------------------------------------------------------
    // Punishment & compensation
    // ------------------------------------------------------------------

    pub(super) fn sample_cntdown(rng: &mut DetRng, avg_refresh: f64) -> i64 {
        (rng.sample_exp(avg_refresh).ceil() as i64).max(1)
    }

    pub(super) fn punish(&mut self, sector: SectorId) {
        let Some(s) = self.sectors.get_mut(&sector) else {
            return;
        };
        if s.state == SectorState::Corrupted {
            return;
        }
        let amount = self.params.punishment(s.deposit).min(s.deposit);
        if amount.is_zero() {
            return;
        }
        s.deposit = s.deposit - amount;
        self.ledger
            .transfer(DEPOSIT_ESCROW, COMPENSATION_POOL, amount)
            .expect("escrow covers punishment");
        self.stats.punishments += 1;
        self.log(ProtocolEvent::ProviderPunished { sector, amount });
    }

    /// Deadline miss: confiscate the whole deposit and void the sector.
    pub(super) fn confiscate_and_corrupt(&mut self, sector: SectorId) {
        let Some(s) = self.sectors.get_mut(&sector) else {
            return;
        };
        if s.state == SectorState::Corrupted {
            return;
        }
        s.state = SectorState::Corrupted;
        s.physically_failed = true;
        let confiscated = s.deposit;
        s.deposit = TokenAmount::ZERO;
        self.sampler.remove(&sector);
        self.ledger
            .transfer(DEPOSIT_ESCROW, COMPENSATION_POOL, confiscated)
            .expect("escrow covers deposit");
        self.stats.sectors_corrupted += 1;
        self.log(ProtocolEvent::SectorCorrupted {
            sector,
            confiscated,
        });
        self.void_sector_content(sector);
    }

    /// Full compensation on loss (Fig. 8, §IV-B).
    pub(super) fn compensate_loss(&mut self, file: FileId) {
        let Some(desc) = self.files.get(&file) else {
            return;
        };
        let owner = desc.owner;
        let value = desc.value;
        let paid = self.ledger.transfer_up_to(COMPENSATION_POOL, owner, value);
        let stats = &mut self.stats;
        stats.files_lost += 1;
        stats.value_lost += value;
        stats.compensation_paid += paid;
        stats.compensation_shortfall += value - paid;
        self.log(ProtocolEvent::FileLost {
            file,
            value,
            compensated: paid,
        });
        self.remove_file_completely(file, RemovalReason::Lost);
    }
}

cached_domain!(fn audit_task_domain, "fileinsurer/audit-task");
cached_domain!(fn audit_leaf_domain, "fileinsurer/audit-leaf");
cached_domain!(fn audit_node_domain, "fileinsurer/audit-node");
cached_domain!(fn audit_fold_domain, "fileinsurer/audit-fold");
cached_domain!(fn audit_root_domain, "fileinsurer/audit-root");

/// One replica whose modeled proof is to be checked: the file's Merkle
/// commitment, the big-endian replica index, and a big-endian tag — the
/// timestamp of the proof on record when `Auto_CheckProof` audits, the
/// holding sector when `File_Prove` submits.
pub(super) type ReplicaLane = (Hash256, [u8; 4], [u8; 8]);

/// Messages hashed per `hash_many` sweep — the audit tasks' base
/// digests and the replicas' challenged leaves. A sweep's message and
/// block buffers (~250 B a lane) then stay cache-resident, where the
/// multi-lane kernels beat one SHA-NI stream; at 4 096 lanes they lost to
/// it. The path walk itself needs no tiling — it holds a register group
/// of lanes at a time.
const LEAF_TILE: usize = 256;

/// `domain.hash_many` over one message per item, `LEAF_TILE` items per
/// sweep: the digests of `parts(item)` for every item, in item order.
fn hash_tiled<'a, T, const N: usize>(
    domain: &KeyedDomain,
    items: &'a [T],
    parts: impl Fn(&'a T) -> [&'a [u8]; N],
) -> Vec<Hash256> {
    let mut digests = Vec::with_capacity(items.len());
    for tile in items.chunks(LEAF_TILE) {
        let lanes: Vec<[&[u8]; N]> = tile.iter().map(&parts).collect();
        let refs: Vec<&[&[u8]]> = lanes.iter().map(|l| l.as_slice()).collect();
        digests.extend(domain.hash_many(&refs));
    }
    digests
}

/// The modeled WindowPoSt verification, one lane per replica: derive each
/// challenged leaf — `leaf_domain` over the lane's commitment, index and
/// tag, and `now` — then walk every lane up a `path_len`-node
/// authentication path under `node_domain`, all lanes in lockstep. Returns
/// the walked node of each lane, in lane order. Pure.
pub(super) fn walk_replicas(
    leaf_domain: &KeyedDomain,
    node_domain: &KeyedDomain,
    replicas: &[ReplicaLane],
    now: Time,
    path_len: u32,
) -> Vec<Hash256> {
    let now_be = now.to_be_bytes();
    let mut nodes = hash_tiled(leaf_domain, replicas, |(root, index_be, tag_be)| {
        [root.as_bytes(), index_be, tag_be, &now_be]
    });
    node_domain.walk_paths(&mut nodes, path_len);
    nodes
}

/// Verifies the storage proofs on record for the audited `files`, one
/// verdict per file, in order. Pure: it reads the files' descriptors and
/// allocation rows, nothing else.
///
/// For each replica with a proof on record (a `last` timestamp and a
/// non-corrupted entry) the challenged leaf is derived from the file's
/// Merkle commitment and the proof timestamp and walked up a
/// `path_len`-node authentication path; the walked nodes fold in replica
/// order into one per-task commitment. All replicas of `files` walk as
/// lockstep lanes ([`walk_replicas`]).
fn verify_audits(engine: &Engine, files: &[FileId], now: Time, path_len: u32) -> Vec<ProofAudit> {
    let now_be = now.to_be_bytes();

    // Phase 0: the per-task base digest, one lane per audit task.
    let file_bes: Vec<[u8; 8]> = files.iter().map(|f| f.0.to_be_bytes()).collect();
    let mut digests = hash_tiled(audit_task_domain(), &file_bes, |fb| [fb, &now_be]);

    // Phase 1: collect one lane per replica with a proof on record,
    // task-major so the phase-3 folds replay each task's replicas in
    // replica order — the exact fold sequence of the per-task walk.
    let mut replicas_checked = vec![0u64; files.len()];
    let mut lane_tasks: Vec<usize> = Vec::new();
    let mut lanes: Vec<ReplicaLane> = Vec::new();
    for (t, &file) in files.iter().enumerate() {
        let Some(desc) = engine.files.get(&file) else {
            continue;
        };
        for i in 0..desc.cp {
            let Some(e) = engine.alloc.get(&(file, i)) else {
                continue;
            };
            if e.state == AllocState::Corrupted {
                continue;
            }
            let Some(last) = e.last else { continue };
            lane_tasks.push(t);
            lanes.push((desc.merkle_root, i.to_be_bytes(), last.to_be_bytes()));
            replicas_checked[t] += 1;
        }
    }

    // Phase 2: leaf derivation plus the lockstep authentication-path walk.
    let nodes = walk_replicas(
        audit_leaf_domain(),
        audit_node_domain(),
        &lanes,
        now,
        path_len,
    );

    // Phase 3: fold each walked node into its task digest, in lane order.
    let fold = audit_fold_domain();
    for (&t, node) in lane_tasks.iter().zip(&nodes) {
        digests[t] = fold.hash(&[digests[t].as_bytes(), node.as_bytes()]);
    }
    digests
        .into_iter()
        .zip(replicas_checked)
        .map(|(digest, replicas_checked)| ProofAudit {
            digest,
            replicas_checked,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProtocolParams;
    use crate::types::{AllocEntry, FileDescriptor, FileState};
    use fi_chain::account::AccountId;
    use fi_crypto::keyed_hash;

    /// The differential oracle: the modeled WindowPoSt verification for one
    /// file, walked one replica at a time on plain [`keyed_hash`]. For each
    /// replica with a proof on record (a `last` timestamp and a
    /// non-corrupted entry), derive the challenged leaf from the file's
    /// Merkle commitment and the proof timestamp, then walk a
    /// `path_len`-node authentication path. The digests fold in replica
    /// order into one per-task commitment.
    fn verify_check_proof(engine: &Engine, file: FileId, now: Time, path_len: u32) -> ProofAudit {
        let mut digest = keyed_hash(
            "fileinsurer/audit-task",
            &[&file.0.to_be_bytes(), &now.to_be_bytes()],
        );
        let mut replicas_checked = 0u64;
        let Some(desc) = engine.files.get(&file) else {
            return ProofAudit {
                digest,
                replicas_checked,
            };
        };
        for i in 0..desc.cp {
            let Some(e) = engine.alloc.get(&(file, i)) else {
                continue;
            };
            if e.state == AllocState::Corrupted {
                continue;
            }
            let Some(last) = e.last else { continue };
            let mut node = keyed_hash(
                "fileinsurer/audit-leaf",
                &[
                    desc.merkle_root.as_bytes(),
                    &i.to_be_bytes(),
                    &last.to_be_bytes(),
                    &now.to_be_bytes(),
                ],
            );
            for level in 0..path_len {
                node = keyed_hash(
                    "fileinsurer/audit-node",
                    &[node.as_bytes(), &level.to_be_bytes()],
                );
            }
            digest = keyed_hash(
                "fileinsurer/audit-fold",
                &[digest.as_bytes(), node.as_bytes()],
            );
            replicas_checked += 1;
        }
        ProofAudit {
            digest,
            replicas_checked,
        }
    }

    /// An engine holding `files` synthetic descriptors mixing replica
    /// counts and entry states: normal proofs on record, never-proved,
    /// corrupted, and mid-transfer rows — every skip branch of the
    /// verifier.
    fn synthetic_engine(files: u64) -> Engine {
        let mut engine = Engine::new(ProtocolParams::default()).expect("valid params");
        for f in 0..files {
            let file = FileId(f);
            let cp = 1 + (f % 4) as u32;
            engine.files.insert(
                file,
                FileDescriptor {
                    id: file,
                    owner: AccountId(1),
                    size: 4,
                    value: TokenAmount(1_000),
                    merkle_root: keyed_hash("test/root", &[&f.to_be_bytes()]),
                    cp,
                    cntdown: 3,
                    state: FileState::Normal,
                },
            );
            for i in 0..cp {
                let entry = match (f + i as u64) % 4 {
                    0 => AllocEntry {
                        prev: Some(SectorId(1)),
                        next: None,
                        last: Some(10 + f),
                        state: AllocState::Normal,
                    },
                    1 => AllocEntry {
                        prev: Some(SectorId(1)),
                        next: None,
                        last: None,
                        state: AllocState::Normal,
                    },
                    2 => AllocEntry {
                        prev: Some(SectorId(1)),
                        next: None,
                        last: Some(5),
                        state: AllocState::Corrupted,
                    },
                    _ => AllocEntry {
                        prev: None,
                        next: Some(SectorId(2)),
                        last: Some(7 + f),
                        state: AllocState::Alloc,
                    },
                };
                engine.alloc.insert((file, i), entry);
            }
        }
        engine
    }

    #[test]
    fn batched_verify_slice_matches_reference() {
        let engine = synthetic_engine(40);
        let now: Time = 1_000;
        let path_len = 16;
        let whole: Vec<Task> = (0..40u64)
            .map(|f| match f % 5 {
                // Non-audit tasks interleave and get no verdict.
                4 => Task::CheckRefresh(FileId(f), 0),
                // One audited file that does not exist.
                _ if f == 33 => Task::CheckProof(FileId(f + 100)),
                _ => Task::CheckProof(FileId(f)),
            })
            .collect();
        // Every range size takes the lane walk: the empty range, one task,
        // and each lane count up to a few register groups.
        for size in 0..=whole.len() {
            let files: Vec<FileId> = whole[..size].iter().filter_map(Task::audited).collect();
            let got = verify_audits(&engine, &files, now, path_len);
            assert_eq!(got.len(), files.len());
            for (slot, (&f, audit)) in files.iter().zip(&got).enumerate() {
                assert_eq!(
                    audit,
                    &verify_check_proof(&engine, f, now, path_len),
                    "size {size} slot {slot}"
                );
            }
        }
    }

    /// Enough tasks and replicas to cross several `LEAF_TILE` sweeps in
    /// both hashed phases: exactly `3 · LEAF_TILE + 1` replica lanes (the
    /// last tile holds one) over more than `2 · LEAF_TILE` audit tasks.
    #[test]
    fn tiled_verify_matches_reference_across_tiles() {
        let engine = synthetic_engine(4 * LEAF_TILE as u64);
        let (now, path_len) = (5_000, 8);
        let lanes = |f: FileId| verify_check_proof(&engine, f, now, path_len).replicas_checked;
        let mut files = Vec::new();
        let mut total = 0;
        for f in (0..4 * LEAF_TILE as u64).map(FileId) {
            let n = lanes(f);
            if total + n <= 3 * LEAF_TILE as u64 + 1 {
                files.push(f);
                total += n;
            }
        }
        assert_eq!(total, 3 * LEAF_TILE as u64 + 1);
        assert!(files.len() > 2 * LEAF_TILE, "{} tasks", files.len());
        let got = verify_audits(&engine, &files, now, path_len);
        let want: Vec<ProofAudit> = files
            .iter()
            .map(|&f| verify_check_proof(&engine, f, now, path_len))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn small_slice_reference_path_matches_batch_output_shape() {
        // A task's verdict does not depend on which other tasks share its
        // range, i.e. on which lanes its replicas walk in.
        let engine = synthetic_engine(8);
        let now: Time = 77;
        let small = [FileId(2), FileId(5)];
        let large: Vec<FileId> = (0..8).map(FileId).collect();
        let small_out = verify_audits(&engine, &small, now, 8);
        let large_out = verify_audits(&engine, &large, now, 8);
        assert_eq!(small_out[0], large_out[2]);
        assert_eq!(small_out[1], large_out[5]);
    }
}
