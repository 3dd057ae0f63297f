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
//! task's shard (files + alloc rows) and the parameters, so a bucket's
//! slices verify concurrently on the engine's persistent worker pool. The
//! **commit** phase (the `auto_*` handlers below) then runs in canonical
//! `(time, schedule-seq)` order, folding each audit digest into the
//! engine's `audit_root` before applying rent, punishments and refreshes —
//! bit-identical to a 1-shard engine.
//!
//! On large multi-shard buckets the commit phase itself is parallelized
//! ([`Engine::commit_bucket_batched`]): a read-only **plan** phase fans
//! the `Auto_CheckProof` tasks across the pool, classifying each as a
//! *fast* plan (the steady-state rent-charge/punish/reschedule path, with
//! every consulted sector recorded) or a *sequential* fallback
//! (discards, confiscations, losses, refresh draws — anything touching
//! rng or cross-shard money). The serial walk then applies fast plans
//! directly when their footprints are disjoint from everything mutated
//! earlier in the bucket — `read_sectors ∩ mutated_sectors = ∅`, the
//! file untouched, and the owner's balance re-checked exactly — and
//! re-executes everything else through the frozen sequential reference.
//! Per-shard `cntdown` write batches are deferred and flushed through the
//! pool (before any sequential fallback, and at bucket end), so the
//! file-table writes of a mostly-fast bucket land concurrently. The
//! differential tests in `tests/parallel_commit.rs` pin both strategies
//! to bit-identical `state_root`/`audit_root`/event streams.
//!
//! Inside one slice, [`verify_slice`] batches the work: every audited
//! replica becomes a *lane*, and all lanes walk their authentication paths
//! in lockstep through the fused path-walk kernel
//! ([`fi_crypto::KeyedDomain::walk_paths`], shared with `File_Prove`
//! staging through [`walk_replicas`]). A single path walk is an inherently
//! sequential hash chain, but independent paths are not — the walker
//! carries 16 (AVX-512) lanes, or 2 interleaved SHA-NI streams, through
//! all their levels in registers. Slices of every size take this path;
//! the per-task walk on plain [`fi_crypto::keyed_hash`] (`verify_check_proof`) is the
//! test oracle the differential test pins it against bit for bit.

use std::collections::HashSet;

use fi_chain::account::{AccountId, Ledger, TokenAmount};
use fi_chain::tasks::Time;
use fi_crypto::{cached_domain, DetRng, Hash256, KeyedDomain};

use crate::params::ProtocolParams;
use crate::types::{
    AllocState, FileId, FileState, ProtocolEvent, RemovalReason, Sector, SectorId, SectorState,
};

use super::pool::JobBatch;
use super::shard::{Shard, ShardSlice, ShardedState};
use super::statemap::TrackedMap;
use super::{
    Engine, Task, COMPENSATION_POOL, DEPOSIT_ESCROW, PARALLEL_FANOUT_MIN_ITEMS, RENT_POOL,
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
    // Verify phase (read-only, parallel across shards)
    // ------------------------------------------------------------------

    /// Audits every `Auto_CheckProof` task in a popped bucket, one verdict
    /// slot per popped task (non-audit tasks get `None`). Each shard's
    /// slice touches only that shard's state, so large buckets fan out
    /// across the persistent worker pool.
    pub(super) fn verify_bucket(
        &self,
        slices: &[ShardSlice],
        now: Time,
    ) -> Vec<Vec<Option<ProofAudit>>> {
        let path_len = self.params.audit_path_len;
        let shards = &self.shards.shards;
        // Count audit tasks only when fan-out is even possible: the
        // single-shard engine (the default) skips this per-bucket scan on
        // the hot `advance_to` path.
        let audit_tasks = || -> usize {
            slices
                .iter()
                .map(|slice| {
                    slice
                        .iter()
                        .filter(|(_, (_, task))| matches!(task, Task::CheckProof(_)))
                        .count()
                })
                .sum()
        };
        if shards.len() > 1 && audit_tasks() >= PARALLEL_FANOUT_MIN_ITEMS {
            // Shards are chunked over at most the pool's worker count — a
            // 256-shard engine on a 4-core host gets 4 jobs of 64 shards
            // each, not 256 one-audit jobs. Chunks are contiguous and
            // rejoined in order, so the output is the same per-shard Vec
            // the inline path produces.
            let pairs: Vec<(&Shard, &ShardSlice)> = shards.iter().zip(slices.iter()).collect();
            let pool = self.pool();
            let workers = pool.workers().clamp(1, pairs.len());
            let chunk_len = pairs.len().div_ceil(workers);
            let chunks: Vec<&[(&Shard, &ShardSlice)]> = pairs.chunks(chunk_len).collect();
            let mut chunk_out: Vec<Vec<Vec<Option<ProofAudit>>>> =
                chunks.iter().map(|_| Vec::new()).collect();
            let jobs: JobBatch<'_> = chunks
                .into_iter()
                .zip(chunk_out.iter_mut())
                .map(|(group, slot)| {
                    Box::new(move || {
                        *slot = group
                            .iter()
                            .map(|(shard, slice)| verify_slice(shard, slice, now, path_len))
                            .collect();
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(jobs);
            chunk_out.into_iter().flatten().collect()
        } else {
            shards
                .iter()
                .zip(slices.iter())
                .map(|(shard, slice)| verify_slice(shard, slice, now, path_len))
                .collect()
        }
    }

    // ------------------------------------------------------------------
    // Batched commit phase (plan in parallel, apply validated)
    // ------------------------------------------------------------------

    /// Commits a merged, canonically ordered bucket through the batched
    /// strategy: a read-only plan phase fans the `Auto_CheckProof` tasks
    /// across the worker pool, then a serial walk applies each task in
    /// the exact `(time, schedule-seq)` order the sequential fold uses —
    /// via its fast plan when still valid, via [`Engine::execute`]
    /// otherwise. Bit-identical to folding the same bucket sequentially:
    /// fast plans draw no rng, log the same events in the same order, and
    /// fall back whenever anything they read was mutated earlier in the
    /// bucket.
    ///
    /// The disjointness rule guarding a fast apply:
    ///
    /// * `read_sectors ∩ mutated_sectors = ∅` — every sector the plan
    ///   consulted (each entry's holder, for the punish/confiscate
    ///   decisions) is untouched by earlier punishments, confiscations and
    ///   fallback footprints;
    /// * the plan's file is not in `mutated_files` — no earlier fallback
    ///   ran a task of the same file (`Auto_CheckRefresh` mutates entry
    ///   states, `last` stamps and `cntdown` of its file);
    /// * the owner's balance still covers the cycle cost — re-checked
    ///   exactly at apply time, so cross-file money movement (same owner,
    ///   rent distribution, compensation) can never smuggle a stale
    ///   insolvency decision through.
    ///
    /// Corrupted-sector cascades (`void_sector_content`) are covered by
    /// the first rule: a victim file's plan recorded the corrupted holder
    /// in `read_sectors`, and the confiscating task's footprint put that
    /// sector into `mutated_sectors`. The remaining cascade mutations
    /// (reverting an in-flight move whose *target* died) touch only
    /// `next`/state fields the plan's decisions don't depend on.
    ///
    /// Fast applies defer their `cntdown` decrements into per-shard write
    /// batches, flushed through the pool before any sequential fallback
    /// (which must see the sequential file table) and at bucket end.
    pub(super) fn commit_bucket_batched(
        &mut self,
        now: Time,
        batch: Vec<(Time, u64, Task, Option<ProofAudit>)>,
    ) {
        let plans = self.plan_bucket(now, &batch);
        let shard_count = self.shards.shards.len();
        let mut pending: Vec<Vec<(FileId, i64)>> = vec![Vec::new(); shard_count];
        let mut mutated_sectors: HashSet<SectorId> = HashSet::new();
        let mut mutated_files: HashSet<FileId> = HashSet::new();
        for ((_, _, task, audit), plan) in batch.into_iter().zip(plans) {
            let fast = plan
                .as_ref()
                .is_some_and(|p| self.plan_valid(p, &mutated_sectors, &mutated_files));
            if fast {
                let plan = plan.expect("checked above");
                self.apply_check_proof_plan(now, plan, audit, &mut mutated_sectors, &mut pending);
            } else {
                self.flush_cntdown_writes(&mut pending);
                note_fallback_footprint(
                    &self.shards,
                    &task,
                    &mut mutated_sectors,
                    &mut mutated_files,
                );
                self.execute(task, audit);
            }
        }
        self.flush_cntdown_writes(&mut pending);
    }

    /// The read-only plan phase: one [`CheckProofPlan`] per
    /// `Auto_CheckProof` task (other tasks get `None`), computed across
    /// the worker pool. Each plan touches only its file's shard, the
    /// sector table, the ledger and the parameters — all immutable here.
    fn plan_bucket(
        &self,
        now: Time,
        batch: &[(Time, u64, Task, Option<ProofAudit>)],
    ) -> Vec<Option<CheckProofPlan>> {
        let mut plans: Vec<Option<CheckProofPlan>> = batch.iter().map(|_| None).collect();
        let audits: Vec<usize> = batch
            .iter()
            .enumerate()
            .filter_map(|(i, (_, _, task, _))| matches!(task, Task::CheckProof(_)).then_some(i))
            .collect();
        if audits.is_empty() {
            return plans;
        }
        let pool = self.pool();
        let workers = pool.workers().clamp(1, audits.len());
        let chunk_len = audits.len().div_ceil(workers);
        let shards = &self.shards;
        let sectors = &self.sectors;
        let ledger = &self.ledger;
        let params = &self.params;

        let chunks: Vec<&[usize]> = audits.chunks(chunk_len).collect();
        let mut chunk_out: Vec<Vec<(usize, CheckProofPlan)>> =
            chunks.iter().map(|_| Vec::new()).collect();
        let jobs: JobBatch<'_> = chunks
            .into_iter()
            .zip(chunk_out.iter_mut())
            .map(|(idxs, slot)| {
                Box::new(move || {
                    *slot = idxs
                        .iter()
                        .map(|&i| {
                            let Task::CheckProof(f) = batch[i].2 else {
                                unreachable!("filtered to CheckProof above")
                            };
                            let plan =
                                plan_check_proof(shards.shard(f), sectors, ledger, params, f, now);
                            (i, plan)
                        })
                        .collect();
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(jobs);
        for chunk in chunk_out {
            for (i, plan) in chunk {
                plans[i] = Some(plan);
            }
        }
        plans
    }

    /// Whether a plan's assumptions still hold at its turn in the serial
    /// walk (the disjointness rule; see [`Engine::commit_bucket_batched`]).
    fn plan_valid(
        &self,
        plan: &CheckProofPlan,
        mutated_sectors: &HashSet<SectorId>,
        mutated_files: &HashSet<FileId>,
    ) -> bool {
        if mutated_files.contains(&plan.file) {
            return false;
        }
        if plan
            .read_sectors
            .iter()
            .any(|s| mutated_sectors.contains(s))
        {
            return false;
        }
        match &plan.kind {
            PlanKind::MissingFile => true,
            PlanKind::Fast { owner, cost, .. } => self.ledger.balance(*owner) >= *cost,
            PlanKind::Sequential => false,
        }
    }

    /// Applies one validated fast plan — the exact effect sequence of
    /// [`Engine::auto_check_proof`] on its steady-state path, with the
    /// `cntdown` write deferred into its shard's batch.
    fn apply_check_proof_plan(
        &mut self,
        now: Time,
        plan: CheckProofPlan,
        audit: Option<ProofAudit>,
        mutated_sectors: &mut HashSet<SectorId>,
        pending: &mut [Vec<(FileId, i64)>],
    ) {
        let file = plan.file;
        if let Some(a) = &audit {
            self.audit_root =
                audit_root_domain().hash(&[self.audit_root.as_bytes(), a.digest.as_bytes()]);
            self.shards.shard_mut(file).stats.proofs_audited += a.replicas_checked;
        }
        match plan.kind {
            PlanKind::MissingFile => {}
            PlanKind::Fast {
                owner,
                rent,
                gas,
                punish,
                new_cntdown,
                ..
            } => {
                self.ledger
                    .transfer(owner, RENT_POOL, rent)
                    .expect("balance re-checked by plan_valid");
                self.ledger.burn(owner, gas).expect("balance re-checked");
                for holder in punish {
                    self.punish(holder);
                    mutated_sectors.insert(holder);
                }
                self.schedule_task(now + self.params.proof_cycle, Task::CheckProof(file));
                pending[self.shards.shard_of(file)].push((file, new_cntdown));
            }
            PlanKind::Sequential => unreachable!("plan_valid rejects Sequential"),
        }
        // `execute`'s per-task increment.
        self.op_counter += 1;
    }

    /// Flushes the deferred per-shard `cntdown` write batches — through
    /// the pool when large enough to pay for the dispatch (each job owns
    /// one shard's file table, so the writes are disjoint by
    /// construction), inline otherwise.
    fn flush_cntdown_writes(&mut self, pending: &mut [Vec<(FileId, i64)>]) {
        let total: usize = pending.iter().map(Vec::len).sum();
        if total == 0 {
            return;
        }
        if total >= PARALLEL_FANOUT_MIN_ITEMS {
            let pool = self.pool();
            let mut jobs: JobBatch<'_> = Vec::new();
            for (shard, writes) in self.shards.shards.iter_mut().zip(pending.iter_mut()) {
                if writes.is_empty() {
                    continue;
                }
                let writes = std::mem::take(writes);
                jobs.push(Box::new(move || {
                    for (file, cntdown) in writes {
                        shard
                            .files
                            .get_mut(&file)
                            .expect("deferred cntdown write targets a live file")
                            .cntdown = cntdown;
                    }
                }));
            }
            pool.run(jobs);
        } else {
            for (idx, writes) in pending.iter_mut().enumerate() {
                for (file, cntdown) in std::mem::take(writes) {
                    self.shards.shards[idx]
                        .files
                        .get_mut(&file)
                        .expect("deferred cntdown write targets a live file")
                        .cntdown = cntdown;
                }
            }
        }
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
        self.stats_global.sectors_corrupted += 1;
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
        let Some(desc) = self.shards.file(file) else {
            return;
        };
        let cp = desc.cp;
        let owner = desc.owner;
        let size = desc.size;

        // First pass: all entries must be Confirm or Corrupted.
        let all_ok = (0..cp).all(|i| {
            matches!(
                self.shards.entry(file, i).map(|e| e.state),
                Some(AllocState::Confirm) | Some(AllocState::Corrupted)
            )
        });
        if !all_ok {
            // Upload failed: refund outstanding traffic escrow for
            // unconfirmed replicas, release reservations, drop the file.
            let unconfirmed = (0..cp)
                .filter(|&i| self.shards.entry(file, i).map(|e| e.state) == Some(AllocState::Alloc))
                .count() as u128;
            let refund = TokenAmount(self.params.traffic_fee(size).0 * unconfirmed);
            self.ledger.transfer_up_to(TRAFFIC_ESCROW, owner, refund);
            self.remove_file_completely(file, RemovalReason::UploadFailed);
            return;
        }

        // Second pass: finalise.
        let now = self.now();
        for i in 0..cp {
            let e = self.shards.entry_mut(file, i).expect("entry exists");
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
        let desc = self.shards.file_mut(file).expect("file exists");
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
            self.shards.shard_mut(file).stats.proofs_audited += a.replicas_checked;
        }
        let Some(desc) = self.shards.file(file) else {
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
                let desc = self.shards.file_mut(file).expect("file exists");
                desc.state = FileState::Discarded;
                self.shards
                    .set_discard_reason(file, RemovalReason::InsufficientFunds);
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
            let Some(e) = self.shards.entry(file, i) else {
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
        let state = self.shards.file(file).map(|f| f.state);
        if state == Some(FileState::Discarded) {
            let reason = self
                .shards
                .take_discard_reason(file)
                .unwrap_or(RemovalReason::ClientDiscard);
            self.remove_file_completely(file, reason);
            return;
        }
        let all_corrupted = (0..cp)
            .all(|i| self.shards.entry(file, i).map(|e| e.state) == Some(AllocState::Corrupted));
        if all_corrupted {
            self.compensate_loss(file);
            return;
        }
        self.schedule_task(now + self.params.proof_cycle, Task::CheckProof(file));
        let desc = self.shards.file_mut(file).expect("file exists");
        desc.cntdown -= 1;
        if desc.cntdown <= 0 {
            let i = self.rng.below(cp as u64) as u32; // RandomIndex(f)
            self.auto_refresh(file, i);
        }
    }

    /// `Auto_Refresh` (Fig. 9).
    pub(super) fn auto_refresh(&mut self, file: FileId, index: u32) {
        let Some(desc) = self.shards.file(file) else {
            return;
        };
        let size = desc.size;
        let entry_state = self.shards.entry(file, index).map(|e| e.state);
        if entry_state != Some(AllocState::Normal) {
            // The chosen replica is corrupted or already mid-move; re-arm.
            let avg = self.params.avg_refresh;
            let cntdown = Self::sample_cntdown(&mut self.rng, avg);
            if let Some(d) = self.shards.file_mut(file) {
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
            self.shards.shard_mut(file).stats.refresh_collisions += 1;
            self.log(ProtocolEvent::RefreshCollision { file, index });
            let avg = self.params.avg_refresh;
            let cntdown = Self::sample_cntdown(&mut self.rng, avg);
            if let Some(d) = self.shards.file_mut(file) {
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
        let e = self.shards.entry_mut(file, index).expect("entry exists");
        let from = e.prev;
        e.next = Some(target);
        e.state = AllocState::Alloc;
        let deadline = self.now() + self.params.transfer_window(size);
        self.schedule_task(deadline, Task::CheckRefresh(file, index));
        self.shards.shard_mut(file).stats.refreshes_started += 1;
        self.log(ProtocolEvent::ReplicaSwap {
            file,
            index,
            from,
            to: target,
        });
    }

    /// `Auto_CheckRefresh` (Fig. 9).
    pub(super) fn auto_check_refresh(&mut self, file: FileId, index: u32) {
        let Some(desc) = self.shards.file(file) else {
            return;
        };
        let size = desc.size;
        let cp = desc.cp;
        let avg = self.params.avg_refresh;
        let now = self.now();
        let Some(entry) = self.shards.entry(file, index) else {
            return;
        };
        let (state, prev, next) = (entry.state, entry.prev, entry.next);

        match state {
            AllocState::Confirm => {
                // Transfer succeeded: release the old holder, flip over.
                let e = self.shards.entry_mut(file, index).expect("entry");
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
                self.shards.shard_mut(file).stats.refreshes_completed += 1;
                let cntdown = Self::sample_cntdown(&mut self.rng, avg);
                if let Some(d) = self.shards.file_mut(file) {
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
                let e = self.shards.entry_mut(file, index).expect("entry");
                e.next = None;
                e.state = AllocState::Normal;
                let mut holders = Vec::new();
                for j in 0..cp {
                    if let Some(other) = self.shards.entry(file, j) {
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
        self.stats_global.punishments += 1;
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
        self.stats_global.sectors_corrupted += 1;
        self.log(ProtocolEvent::SectorCorrupted {
            sector,
            confiscated,
        });
        self.void_sector_content(sector);
    }

    /// Full compensation on loss (Fig. 8, §IV-B).
    pub(super) fn compensate_loss(&mut self, file: FileId) {
        let Some(desc) = self.shards.file(file) else {
            return;
        };
        let owner = desc.owner;
        let value = desc.value;
        let paid = self.ledger.transfer_up_to(COMPENSATION_POOL, owner, value);
        let stats = &mut self.shards.shard_mut(file).stats;
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

/// The read-only classification of one `Auto_CheckProof` task, computed
/// in parallel by [`Engine::plan_bucket`] and applied (or discarded) by
/// the serial walk in [`Engine::commit_bucket_batched`].
struct CheckProofPlan {
    file: FileId,
    kind: PlanKind,
    /// Every sector whose state the plan consulted (each non-corrupted
    /// entry's holder): the plan is invalid once any of them is mutated
    /// earlier in the bucket.
    read_sectors: Vec<SectorId>,
}

enum PlanKind {
    /// No descriptor: the commit is a no-op beyond the audit fold.
    MissingFile,
    /// The steady-state path — charge rent + prepaid gas, punish the
    /// recorded late holders in entry order, reschedule, decrement
    /// `cntdown` (still positive, so no refresh draw). Draws no rng.
    Fast {
        owner: AccountId,
        /// Full cycle cost, re-checked against the live balance at apply.
        cost: TokenAmount,
        rent: TokenAmount,
        gas: TokenAmount,
        /// Holders past `proof_due`, in entry order (duplicates kept:
        /// sequential punishment recomputes on the reduced deposit).
        punish: Vec<SectorId>,
        new_cntdown: i64,
    },
    /// Anything else — insolvency discard, deadline confiscation, full
    /// loss, refresh draw, non-Normal file state — re-executes through
    /// the frozen sequential reference.
    Sequential,
}

/// Mirrors the read path of [`Engine::auto_check_proof`] without mutating
/// anything, recording every consulted sector. Pure in the engine state
/// it is handed, so a bucket's plans compute concurrently.
fn plan_check_proof(
    shard: &Shard,
    sectors: &TrackedMap<SectorId, Sector>,
    ledger: &Ledger,
    params: &ProtocolParams,
    file: FileId,
    now: Time,
) -> CheckProofPlan {
    let mut read_sectors: Vec<SectorId> = Vec::new();
    let Some(desc) = shard.files.get(&file) else {
        return CheckProofPlan {
            file,
            kind: PlanKind::MissingFile,
            read_sectors,
        };
    };
    let sequential = |read_sectors| CheckProofPlan {
        file,
        kind: PlanKind::Sequential,
        read_sectors,
    };
    if desc.state != FileState::Normal {
        return sequential(read_sectors);
    }
    let cost = params.cycle_cost(desc.size, desc.cp);
    if ledger.balance(desc.owner) < cost {
        // Insolvency discard: removal and refunds go sequential.
        return sequential(read_sectors);
    }
    let rent = TokenAmount(params.unit_rent.0 * desc.size as u128 * desc.cp as u128);
    let gas = cost - rent;

    let mut punish: Vec<SectorId> = Vec::new();
    for i in 0..desc.cp {
        let Some(e) = shard.alloc.get(&(file, i)) else {
            continue;
        };
        if e.state == AllocState::Corrupted {
            continue;
        }
        let Some(holder) = e.prev else { continue };
        read_sectors.push(holder);
        let holder_corrupted = sectors
            .get(&holder)
            .map(|s| s.state == SectorState::Corrupted)
            .unwrap_or(true);
        if holder_corrupted {
            continue;
        }
        let last = e.last.unwrap_or(0);
        if now >= last + params.proof_deadline {
            // Confiscation cascades through void_sector_content.
            return sequential(read_sectors);
        } else if now >= last + params.proof_due {
            punish.push(holder);
        }
    }

    let all_corrupted = (0..desc.cp)
        .all(|i| shard.alloc.get(&(file, i)).map(|e| e.state) == Some(AllocState::Corrupted));
    if all_corrupted {
        // Compensation + removal go sequential.
        return sequential(read_sectors);
    }
    let new_cntdown = desc.cntdown - 1;
    if new_cntdown <= 0 {
        // The refresh draw consumes rng; keep the whole task sequential.
        return sequential(read_sectors);
    }
    CheckProofPlan {
        file,
        kind: PlanKind::Fast {
            owner: desc.owner,
            cost,
            rent,
            gas,
            punish,
            new_cntdown,
        },
        read_sectors,
    }
}

/// Records what a sequential fallback may mutate, *before* it runs: its
/// file (entry states, `last` stamps, `cntdown`, possibly removal) and
/// every sector its entries reference (punishments, confiscations and
/// their `void_sector_content` cascades, replica releases, drained-sector
/// removal all start from an entry's `prev`/`next`). `DistributeRent`
/// moves pool money to sector owners only — fast plans re-check the one
/// balance they depend on exactly, so it needs no footprint.
fn note_fallback_footprint(
    shards: &ShardedState,
    task: &Task,
    mutated_sectors: &mut HashSet<SectorId>,
    mutated_files: &mut HashSet<FileId>,
) {
    let file = match task {
        Task::CheckAlloc(f) | Task::CheckProof(f) | Task::CheckRefresh(f, _) => *f,
        Task::DistributeRent => return,
    };
    mutated_files.insert(file);
    let shard = shards.shard(file);
    if let Some(desc) = shard.files.get(&file) {
        for i in 0..desc.cp {
            if let Some(e) = shard.alloc.get(&(file, i)) {
                if let Some(s) = e.prev {
                    mutated_sectors.insert(s);
                }
                if let Some(s) = e.next {
                    mutated_sectors.insert(s);
                }
            }
        }
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

/// Lanes whose leaves are derived per `hash_many` sweep: bounds the
/// sweep's message and block buffers (~250 B a lane) to about 1 MiB however
/// many replicas a slice audits. The walk itself needs no tiling — it holds
/// a register group of lanes at a time.
const LEAF_TILE: usize = 4096;

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
    let mut nodes: Vec<Hash256> = Vec::with_capacity(replicas.len());
    for tile in replicas.chunks(LEAF_TILE) {
        let leaf_lanes: Vec<[&[u8]; 4]> = tile
            .iter()
            .map(|(root, index_be, tag_be)| {
                [
                    root.as_bytes().as_slice(),
                    index_be.as_slice(),
                    tag_be.as_slice(),
                    now_be.as_slice(),
                ]
            })
            .collect();
        let leaf_refs: Vec<&[&[u8]]> = leaf_lanes.iter().map(|l| l.as_slice()).collect();
        nodes.extend(leaf_domain.hash_many(&leaf_refs));
    }
    node_domain.walk_paths(&mut nodes, path_len);
    nodes
}

/// Verifies the storage proofs on record for every `Auto_CheckProof` task
/// in one shard's slice. Pure and shard-local: it reads the shard's file
/// descriptors and allocation rows, nothing else.
///
/// For each replica with a proof on record (a `last` timestamp and a
/// non-corrupted entry) the challenged leaf is derived from the file's
/// Merkle commitment and the proof timestamp and walked up a
/// `path_len`-node authentication path; the walked nodes fold in replica
/// order into one per-task commitment. All replicas of the slice walk as
/// lockstep lanes ([`walk_replicas`]).
fn verify_slice(
    shard: &Shard,
    slice: &ShardSlice,
    now: Time,
    path_len: u32,
) -> Vec<Option<ProofAudit>> {
    let tasks: Vec<(usize, FileId)> = slice
        .iter()
        .enumerate()
        .filter_map(|(slot, (_, (_, task)))| match task {
            Task::CheckProof(f) => Some((slot, *f)),
            _ => None,
        })
        .collect();
    let mut out: Vec<Option<ProofAudit>> = vec![None; slice.len()];
    let now_be = now.to_be_bytes();

    // Phase 0: the per-task base digest, one lane per audit task.
    let file_bes: Vec<[u8; 8]> = tasks.iter().map(|(_, f)| f.0.to_be_bytes()).collect();
    let task_lanes: Vec<[&[u8]; 2]> = file_bes
        .iter()
        .map(|fb| [fb.as_slice(), now_be.as_slice()])
        .collect();
    let task_refs: Vec<&[&[u8]]> = task_lanes.iter().map(|l| l.as_slice()).collect();
    let mut digests = audit_task_domain().hash_many(&task_refs);

    // Phase 1: collect one lane per replica with a proof on record,
    // task-major so the phase-3 folds replay each task's replicas in
    // replica order — the exact fold sequence of the per-task walk.
    let mut replicas_checked = vec![0u64; tasks.len()];
    let mut lane_tasks: Vec<usize> = Vec::new();
    let mut lanes: Vec<ReplicaLane> = Vec::new();
    for (t, &(_, file)) in tasks.iter().enumerate() {
        let Some(desc) = shard.files.get(&file) else {
            continue;
        };
        for i in 0..desc.cp {
            let Some(e) = shard.alloc.get(&(file, i)) else {
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
    for (t, &(slot, _)) in tasks.iter().enumerate() {
        out[slot] = Some(ProofAudit {
            digest: digests[t],
            replicas_checked: replicas_checked[t],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AllocEntry, FileDescriptor, FileState};
    use fi_chain::account::AccountId;
    use fi_chain::tasks::SchedulerKind;
    use fi_crypto::keyed_hash;

    /// The differential oracle: the modeled WindowPoSt verification for one
    /// file, walked one replica at a time on plain [`keyed_hash`]. For each
    /// replica with a proof on record (a `last` timestamp and a
    /// non-corrupted entry), derive the challenged leaf from the file's
    /// Merkle commitment and the proof timestamp, then walk a
    /// `path_len`-node authentication path. The digests fold in replica
    /// order into one per-task commitment.
    fn verify_check_proof(shard: &Shard, file: FileId, now: Time, path_len: u32) -> ProofAudit {
        let mut digest = keyed_hash(
            "fileinsurer/audit-task",
            &[&file.0.to_be_bytes(), &now.to_be_bytes()],
        );
        let mut replicas_checked = 0u64;
        let Some(desc) = shard.files.get(&file) else {
            return ProofAudit {
                digest,
                replicas_checked,
            };
        };
        for i in 0..desc.cp {
            let Some(e) = shard.alloc.get(&(file, i)) else {
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

    /// A shard with `files` synthetic descriptors mixing replica counts and
    /// entry states: normal proofs on record, never-proved, corrupted, and
    /// mid-transfer rows — every skip branch of the verifier.
    fn synthetic_shard(files: u64) -> Shard {
        let mut shard = Shard::new(SchedulerKind::Wheel, 1);
        for f in 0..files {
            let file = FileId(f);
            let cp = 1 + (f % 4) as u32;
            shard.files.insert(
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
                shard.alloc.insert((file, i), entry);
            }
        }
        shard
    }

    #[test]
    fn batched_verify_slice_matches_reference() {
        let shard = synthetic_shard(40);
        let now: Time = 1_000;
        let path_len = 16;
        let whole: ShardSlice = (0..40u64)
            .map(|f| {
                let task = match f % 5 {
                    // Non-audit tasks interleave and must stay `None`.
                    4 => Task::CheckRefresh(FileId(f), 0),
                    // One audited file that does not exist in the shard.
                    _ if f == 33 => Task::CheckProof(FileId(f + 100)),
                    _ => Task::CheckProof(FileId(f)),
                };
                (now, (f, task))
            })
            .collect();
        // Every slice size takes the lane walk: the empty slice, one task,
        // and each lane count up to a few register groups.
        for size in 0..=whole.len() {
            let slice: ShardSlice = whole[..size].to_vec();
            let got = verify_slice(&shard, &slice, now, path_len);
            assert_eq!(got.len(), slice.len());
            for (slot, (_, (_, task))) in slice.iter().enumerate() {
                match task {
                    Task::CheckProof(f) => assert_eq!(
                        got[slot].as_ref(),
                        Some(&verify_check_proof(&shard, *f, now, path_len)),
                        "size {size} slot {slot}"
                    ),
                    _ => assert!(got[slot].is_none(), "size {size} slot {slot}"),
                }
            }
        }
    }

    #[test]
    fn small_slice_reference_path_matches_batch_output_shape() {
        // A task's verdict does not depend on which other tasks share its
        // slice, i.e. on which lanes its replicas walk in.
        let shard = synthetic_shard(8);
        let now: Time = 77;
        let small: ShardSlice = vec![
            (now, (0, Task::CheckProof(FileId(2)))),
            (now, (1, Task::CheckProof(FileId(5)))),
        ];
        let large: ShardSlice = (0..8u64)
            .map(|f| (now, (f, Task::CheckProof(FileId(f)))))
            .collect();
        let small_out = verify_slice(&shard, &small, now, 8);
        let large_out = verify_slice(&shard, &large, now, 8);
        assert_eq!(small_out[0], large_out[2]);
        assert_eq!(small_out[1], large_out[5]);
    }
}
