//! Client/provider request handlers (Figs. 4–6): sector registration and
//! disabling, and file add/confirm/prove/get/discard.
//!
//! Each public method is a thin wrapper that constructs the corresponding
//! [`Op`] and routes it through [`Engine::apply`]; the `*_op` methods hold
//! the actual state transitions and are reached only via dispatch.

use fi_chain::account::{AccountId, TokenAmount};
use fi_chain::gas::Op as GasOp;
use fi_crypto::Hash256;

use crate::ops::{Op, Receipt};
use crate::params::ParamError;
use crate::types::{
    AllocEntry, AllocState, FileDescriptor, FileId, FileState, ProtocolEvent, RemovalReason,
    Sector, SectorId, SectorState,
};

use super::batch::{prove_lane, prove_root_domain, walk_proofs};
use super::{Engine, EngineError, Task, DEPOSIT_ESCROW, TRAFFIC_ESCROW};

impl Engine {
    // ------------------------------------------------------------------
    // Simulation conveniences
    // ------------------------------------------------------------------

    /// Mints tokens into an account (simulation funding).
    ///
    /// # Panics
    ///
    /// Panics if the mint overflows the token supply.
    pub fn fund(&mut self, account: AccountId, amount: TokenAmount) {
        self.apply(Op::Fund { account, amount })
            .expect("mint overflows the token supply");
    }

    /// Burns tokens from an account (simulation counterpart of [`Engine::fund`],
    /// e.g. to model a client going broke).
    ///
    /// # Panics
    ///
    /// Panics if the account lacks the balance.
    pub fn burn_for_test(&mut self, account: AccountId, amount: TokenAmount) {
        self.apply(Op::Burn { account, amount })
            .expect("burn_for_test within balance");
    }

    /// Replica placements awaiting a `File_Confirm`, as
    /// `(index, target sector)` pairs — what an honest provider would
    /// confirm next for `file`.
    pub fn pending_confirms(&self, file: FileId) -> Vec<(u32, SectorId)> {
        let Some(desc) = self.files.get(&file) else {
            return Vec::new();
        };
        (0..desc.cp)
            .filter_map(|i| {
                let e = self.alloc.get(&(file, i))?;
                if e.state == AllocState::Alloc {
                    e.next.map(|s| (i, s))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Simulates every honest provider: confirms all pending placements on
    /// non-failed sectors and submits storage proofs for all held replicas.
    /// Returns `(confirms, proofs)` counts.
    pub fn honest_providers_act(&mut self) -> (u64, u64) {
        let mut confirms = 0u64;
        let mut proofs = 0u64;
        // Confirms.
        let pending: Vec<(FileId, u32, SectorId)> = self
            .alloc
            .iter()
            .filter(|(_, e)| e.state == AllocState::Alloc)
            .filter_map(|(&(f, i), e)| e.next.map(|s| (f, i, s)))
            .collect();
        let mut ordered = pending;
        ordered.sort_unstable();
        for (f, i, s) in ordered {
            let Some(sector) = self.sectors.get(&s) else {
                continue;
            };
            if sector.physically_failed {
                continue;
            }
            let owner = sector.owner;
            if self.file_confirm(owner, f, i, s).is_ok() {
                confirms += 1;
            }
        }
        // Proofs.
        let held: Vec<(FileId, u32, SectorId)> = self
            .alloc
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e.state,
                    AllocState::Normal | AllocState::Alloc | AllocState::Confirm
                )
            })
            .filter_map(|(&(f, i), e)| e.prev.map(|s| (f, i, s)))
            .collect();
        let mut ordered = held;
        ordered.sort_unstable();
        for (f, i, s) in ordered {
            let Some(sector) = self.sectors.get(&s) else {
                continue;
            };
            if sector.physically_failed || sector.state == SectorState::Corrupted {
                continue;
            }
            let owner = sector.owner;
            if self.file_prove(owner, f, i, s).is_ok() {
                proofs += 1;
            }
        }
        (confirms, proofs)
    }

    // ------------------------------------------------------------------
    // Sector requests (Fig. 6)
    // ------------------------------------------------------------------

    /// `Sector_Register`: pledges the deposit and registers a sector filled
    /// with Capacity Replicas.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Param`] — capacity not a multiple of `minCapacity`,
    ///   or so large that the sampled capacities would overflow a `u64` or
    ///   the deposit a token amount;
    /// * [`EngineError::InsufficientFunds`] — owner cannot cover deposit.
    pub fn sector_register(
        &mut self,
        owner: AccountId,
        capacity: u64,
    ) -> Result<SectorId, EngineError> {
        match self.apply(Op::SectorRegister { owner, capacity })? {
            Receipt::SectorRegistered { sector } => Ok(sector),
            other => unreachable!("SectorRegister yields SectorRegistered, got {other:?}"),
        }
    }

    pub(super) fn sector_register_op(
        &mut self,
        owner: AccountId,
        capacity: u64,
    ) -> Result<SectorId, EngineError> {
        self.params.validate_capacity(capacity)?;
        // The sampler sums the capacities of sampled sectors in a `u64`.
        if self.sampler.total_weight().checked_add(capacity).is_none() {
            return Err(ParamError::OutOfRange {
                what: "total sector capacity",
            }
            .into());
        }
        let deposit = self.params.sector_deposit(capacity)?;
        self.charge_gas(owner, &[GasOp::RequestBase, GasOp::SectorAdmin])?;
        self.ledger
            .transfer(owner, DEPOSIT_ESCROW, deposit)
            .map_err(|_| EngineError::InsufficientFunds)?;
        let id = SectorId(self.next_sector_id);
        self.next_sector_id += 1;
        self.sectors.insert(
            id,
            Sector {
                owner,
                id,
                capacity,
                free_cap: capacity,
                state: SectorState::Normal,
                deposit,
                replica_count: 0,
                physically_failed: false,
            },
        );
        self.cr.insert(
            id,
            crate::drep::CrAccounting::new(capacity, self.params.min_capacity),
        );
        self.sampler.insert(id, capacity);
        self.sector_replicas
            .insert(id, std::collections::BTreeSet::new());
        self.log(ProtocolEvent::SectorRegistered {
            sector: id,
            owner,
            deposit,
        });
        if self.params.poisson_rebalance {
            self.poisson_swap_in(id);
        }
        Ok(id)
    }

    /// `Sector_Disable`: the sector stops accepting new files and drains
    /// via refreshes; the deposit returns once it is empty.
    ///
    /// # Errors
    ///
    /// * [`EngineError::UnknownSector`] / [`EngineError::NotOwner`];
    /// * [`EngineError::InvalidState`] if already disabled or corrupted.
    pub fn sector_disable(
        &mut self,
        caller: AccountId,
        sector: SectorId,
    ) -> Result<(), EngineError> {
        self.apply(Op::SectorDisable { caller, sector }).map(|_| ())
    }

    pub(super) fn sector_disable_op(
        &mut self,
        caller: AccountId,
        sector: SectorId,
    ) -> Result<(), EngineError> {
        self.charge_gas(caller, &[GasOp::RequestBase, GasOp::SectorAdmin])?;
        let s = self
            .sectors
            .get_mut(&sector)
            .ok_or(EngineError::UnknownSector(sector))?;
        if s.owner != caller {
            return Err(EngineError::NotOwner);
        }
        if s.state != SectorState::Normal {
            return Err(EngineError::InvalidState("sector not in normal state"));
        }
        s.state = SectorState::Disabled;
        self.sampler.remove(&sector);
        self.log(ProtocolEvent::SectorDisabled { sector });
        self.op_counter += 1;
        self.maybe_remove_drained(sector);
        Ok(())
    }

    // ------------------------------------------------------------------
    // File requests (Figs. 4–5)
    // ------------------------------------------------------------------

    /// `File_Add`: samples `cp = k·value/minValue` capacity-weighted
    /// sectors, reserves space, escrows traffic fees, and schedules
    /// `Auto_CheckAlloc` after the transfer window.
    ///
    /// # Errors
    ///
    /// * [`EngineError::FileTooLarge`] — must be erasure-segmented (§VI-C);
    /// * [`EngineError::Param`] — value not a multiple of `minValue`;
    /// * [`EngineError::NoCapacity`] — sampling kept hitting full sectors;
    /// * [`EngineError::InsufficientFunds`] — traffic-fee escrow failed.
    pub fn file_add(
        &mut self,
        client: AccountId,
        size: u64,
        value: TokenAmount,
        merkle_root: Hash256,
    ) -> Result<FileId, EngineError> {
        match self.apply(Op::FileAdd {
            client,
            size,
            value,
            merkle_root,
        })? {
            Receipt::FileAdded { file, .. } => Ok(file),
            other => unreachable!("FileAdd yields FileAdded, got {other:?}"),
        }
    }

    pub(super) fn file_add_op(
        &mut self,
        client: AccountId,
        size: u64,
        value: TokenAmount,
        merkle_root: Hash256,
    ) -> Result<(FileId, u32), EngineError> {
        if size == 0 {
            return Err(EngineError::InvalidState("file size must be positive"));
        }
        if size > self.params.size_limit {
            return Err(EngineError::FileTooLarge {
                size,
                limit: self.params.size_limit,
            });
        }
        let cp = self.params.backup_count(value)?;
        self.charge_gas(
            client,
            &[GasOp::RequestBase, GasOp::AllocWrite, GasOp::TaskSchedule],
        )?;

        // Escrow traffic fees for all replicas up front (§IV-A.1: committed
        // before transmission).
        let escrow = TokenAmount(self.params.traffic_fee(size).0 * cp as u128);
        self.ledger
            .transfer(client, TRAFFIC_ESCROW, escrow)
            .map_err(|_| EngineError::InsufficientFunds)?;

        // Sample cp sectors i.i.d. proportional to capacity, re-sampling on
        // insufficient free space (Fig. 4's "almost never happens" loop).
        let mut targets = Vec::with_capacity(cp as usize);
        for _ in 0..cp {
            match self.sample_sector_with_space(size) {
                Some(s) => {
                    // Reserve immediately so later draws see reduced space.
                    self.reserve(s, size);
                    targets.push(s);
                }
                None => {
                    // Roll back reservations and the escrow.
                    for &s in &targets {
                        self.release_reservation(s, size);
                    }
                    self.ledger
                        .transfer(TRAFFIC_ESCROW, client, escrow)
                        .expect("escrow refund");
                    return Err(EngineError::NoCapacity);
                }
            }
        }

        // Ids come from one global counter, so the id sequence (hence
        // every op and receipt digest) is the same at every configuration.
        let id = FileId(self.next_file_id);
        self.next_file_id += 1;
        self.files.insert(
            id,
            FileDescriptor {
                id,
                owner: client,
                size,
                value,
                merkle_root,
                cp,
                cntdown: -1,
                state: FileState::Allocating,
            },
        );
        for (i, &s) in targets.iter().enumerate() {
            self.alloc.insert((id, i as u32), AllocEntry::allocating(s));
            self.sector_replicas
                .get_mut(&s)
                .expect("sector index")
                .insert((id, i as u32));
        }
        let deadline = self.now() + self.params.transfer_window(size);
        self.schedule_task(deadline, Task::CheckAlloc(id));
        self.log(ProtocolEvent::FileAdded { file: id, cp });
        Ok((id, cp))
    }

    /// `File_Discard`: marks the file for removal at its next
    /// `Auto_CheckProof` (Fig. 4).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownFile`] / [`EngineError::NotOwner`].
    pub fn file_discard(&mut self, caller: AccountId, file: FileId) -> Result<(), EngineError> {
        self.apply(Op::FileDiscard { caller, file }).map(|_| ())
    }

    pub(super) fn file_discard_op(
        &mut self,
        caller: AccountId,
        file: FileId,
    ) -> Result<(), EngineError> {
        self.charge_gas(caller, &[GasOp::RequestBase])?;
        let f = self
            .files
            .get(&file)
            .ok_or(EngineError::UnknownFile(file))?;
        if f.owner != caller {
            return Err(EngineError::NotOwner);
        }
        self.force_discard_op(file);
        self.op_counter += 1;
        Ok(())
    }

    /// `ForceDiscard`, the consensus-side rollback discard (§VI-C): no
    /// ownership check, no gas, nothing on an unknown file.
    pub(super) fn force_discard_op(&mut self, file: FileId) {
        if let Some(desc) = self.files.get_mut(&file) {
            desc.state = FileState::Discarded;
            self.discard_reasons
                .insert(file, RemovalReason::ClientDiscard);
        }
    }

    /// `File_Confirm` (Fig. 5): the provider of the target sector
    /// acknowledges receiving replica `index` of `file`; the traffic fee
    /// for this replica is released to the provider.
    ///
    /// # Errors
    ///
    /// Ownership/state violations per Fig. 5's checks.
    pub fn file_confirm(
        &mut self,
        caller: AccountId,
        file: FileId,
        index: u32,
        sector: SectorId,
    ) -> Result<(), EngineError> {
        self.apply(Op::FileConfirm {
            caller,
            file,
            index,
            sector,
        })
        .map(|_| ())
    }

    pub(super) fn file_confirm_op(
        &mut self,
        caller: AccountId,
        file: FileId,
        index: u32,
        sector: SectorId,
    ) -> Result<(), EngineError> {
        self.charge_gas(caller, &[GasOp::RequestBase, GasOp::AllocRead])?;
        let s = self
            .sectors
            .get(&sector)
            .ok_or(EngineError::UnknownSector(sector))?;
        if s.owner != caller {
            return Err(EngineError::NotOwner);
        }
        let size = self
            .files
            .get(&file)
            .ok_or(EngineError::UnknownFile(file))?
            .size;
        let e = self
            .alloc
            .get(&(file, index))
            .ok_or(EngineError::UnknownFile(file))?;
        if e.next != Some(sector) || e.state != AllocState::Alloc {
            return Err(EngineError::InvalidState(
                "allocation is not awaiting this sector's confirm",
            ));
        }
        let entry = self.alloc.get_mut(&(file, index)).expect("checked above");
        entry.state = AllocState::Confirm;
        let fee = self.params.traffic_fee(size);
        self.ledger.transfer_up_to(TRAFFIC_ESCROW, caller, fee);
        self.op_counter += 1;
        Ok(())
    }

    /// `File_Prove` (Fig. 5): records a storage proof for replica `index`
    /// held by `sector`. The proof itself is the simulated WindowPoSt —
    /// a modeled `audit_path_len`-node Merkle authentication walk whose
    /// digest folds into the engine's audit root — and it is accepted iff
    /// the sector still physically holds its content.
    ///
    /// # Errors
    ///
    /// Ownership/state violations, or [`EngineError::InvalidState`] when
    /// the sector's content is physically gone (a real prover could not
    /// produce a valid proof).
    pub fn file_prove(
        &mut self,
        caller: AccountId,
        file: FileId,
        index: u32,
        sector: SectorId,
    ) -> Result<(), EngineError> {
        self.apply(Op::FileProve {
            caller,
            file,
            index,
            sector,
        })
        .map(|_| ())
    }

    /// `walked` is the proof walk when a batch's hashing pass already took
    /// it; `None` walks the one lane here.
    pub(super) fn file_prove_op(
        &mut self,
        caller: AccountId,
        file: FileId,
        index: u32,
        sector: SectorId,
        walked: Option<Hash256>,
    ) -> Result<(), EngineError> {
        self.charge_gas(caller, &[GasOp::RequestBase, GasOp::ProofVerify])?;
        let s = self
            .sectors
            .get(&sector)
            .ok_or(EngineError::UnknownSector(sector))?;
        if s.owner != caller {
            return Err(EngineError::NotOwner);
        }
        if s.physically_failed || s.state == SectorState::Corrupted {
            return Err(EngineError::InvalidState("sector cannot produce proofs"));
        }
        let e = self
            .alloc
            .get(&(file, index))
            .ok_or(EngineError::UnknownFile(file))?;
        if e.prev != Some(sector) {
            return Err(EngineError::InvalidState(
                "sector does not hold this replica",
            ));
        }
        let now = self.now();
        let digest = walked.unwrap_or_else(|| {
            let merkle_root = self
                .files
                .get(&file)
                .expect("allocation entries never outlive their descriptor")
                .merkle_root;
            let lane = prove_lane(merkle_root, index, sector);
            walk_proofs(&[lane], now, self.params.audit_path_len)[0]
        });
        let entry = self.alloc.get_mut(&(file, index)).expect("checked above");
        entry.last = Some(now);
        self.stats.proofs_accepted += 1;
        self.audit_root =
            prove_root_domain().hash(&[self.audit_root.as_bytes(), digest.as_bytes()]);
        self.op_counter += 1;
        Ok(())
    }

    /// `File_Get`: returns the live holders of `file` — the retrieval
    /// market then proceeds off-chain (§III-E).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownFile`] for unknown ids.
    pub fn file_get(
        &mut self,
        caller: AccountId,
        file: FileId,
    ) -> Result<Vec<(SectorId, AccountId)>, EngineError> {
        match self.apply(Op::FileGet { caller, file })? {
            Receipt::Holders { holders } => Ok(holders),
            other => unreachable!("FileGet yields Holders, got {other:?}"),
        }
    }

    pub(super) fn file_get_op(
        &mut self,
        caller: AccountId,
        file: FileId,
    ) -> Result<Vec<(SectorId, AccountId)>, EngineError> {
        self.charge_gas(caller, &[GasOp::RequestBase, GasOp::AllocRead])?;
        let f = self
            .files
            .get(&file)
            .ok_or(EngineError::UnknownFile(file))?;
        let holders = (0..f.cp)
            .filter_map(|i| self.alloc.get(&(file, i)))
            .filter(|e| matches!(e.state, AllocState::Normal | AllocState::Alloc))
            .filter_map(|e| {
                let sid = e.prev?;
                let s = self.sectors.get(&sid)?;
                let live = s.state != SectorState::Corrupted && !s.physically_failed;
                live.then_some((sid, s.owner))
            })
            .collect();
        Ok(holders)
    }
}
