//! The pipelined batch-ingest path: staged execution of shard-local ops.
//!
//! [`Engine::apply_batch`](super::Engine::apply_batch) splits a block's op
//! batch into **segments** of consecutive *shard-local* ops (`File_Confirm`,
//! `File_Prove`, `File_Get`, `File_Discard`, `ForceDiscard` — ops that read
//! and write only their own file's rows, plus the ledger) separated by
//! **barrier** ops (everything else: sector admin, `File_Add`'s
//! sampler/rng draws, funds, fault injection, `AdvanceTo`). Each segment is
//! staged concurrently — its ops grouped by `FileId % width`, one group per
//! worker of the engine's fan-out — and then committed sequentially in the
//! original submission order, so consensus state is bit-identical to
//! feeding the same ops one by one through `Engine::apply`.
//!
//! Determinism rests on three pillars:
//!
//! 1. **Single executor.** [`stage_shard_local`] is the *only*
//!    implementation of the five shard-local ops; the sequential dispatch
//!    path runs the same function against live state and applies its
//!    effects immediately. There is no second copy of the op semantics
//!    that could drift.
//! 2. **File isolation.** A staging worker executes its group's ops in
//!    submission order against a [`FileOverlay`] (the engine's rows +
//!    the group's staged writes), while reading global state — sectors,
//!    params, gas prices, consensus time — immutably. No shard-local op
//!    writes any of those, or any row but its own file's, so the only
//!    data flow between files inside a segment is through the ledger.
//! 3. **Ledger validation at commit.** Staged balance checks are
//!    *assumptions* against the pre-segment ledger. The commit phase
//!    replays each op's [`LedgerStep`] program against the live ledger
//!    first; if any assumed outcome flips (an earlier op in the segment
//!    drained or credited an account past a threshold), the staged result
//!    is discarded, the op re-executes sequentially, and its file is
//!    marked stale for the rest of the segment (the file's later staged
//!    results read the discarded writes). The fallback is the normal
//!    sequential path, so even the pathological interleavings are
//!    bit-identical — they just don't get the speedup.
//!
//! The expensive parts of ingest — the modeled `File_Prove` WindowPoSt
//! verification (`audit_path_len` Merkle nodes per proof, folded into the
//! engine's audit root in commit order) and the canonical op/receipt
//! digests — all happen in the parallel phase. The verification is
//! *deferred within* that phase: executing a `File_Prove` only records the
//! replica to check, and once a worker has executed all its ops
//! [`verify_staged_proofs`] walks every recorded replica as one batch of
//! lockstep lanes and patches the digests in. That is order-safe because
//! the digest feeds nothing but the commit-time audit-root fold: no check,
//! receipt, row write or ledger step of any op reads it.

use std::collections::HashMap;

use fi_chain::account::{AccountId, Ledger, TokenAmount};
use fi_chain::gas::{GasSchedule, Op as GasOp};
use fi_chain::tasks::Time;
use fi_crypto::{cached_domain, Hash256};

use crate::ops::{Op, Receipt};
use crate::params::ProtocolParams;
use crate::types::{
    AllocEntry, AllocState, FileDescriptor, FileId, FileState, RemovalReason, Sector, SectorId,
    SectorState,
};

use super::audit::{walk_replicas, ReplicaLane};
use super::pool::fan_out;
use super::statemap::TrackedMap;
use super::{Engine, EngineError, TRAFFIC_ESCROW};

/// The file a shard-local op targets, or `None` for barrier ops. This is
/// the batch classifier: ops with a target stage concurrently, grouped by
/// it; everything else serializes the pipeline.
pub(super) fn shard_local_file(op: &Op) -> Option<FileId> {
    match op {
        Op::FileConfirm { file, .. }
        | Op::FileProve { file, .. }
        | Op::FileGet { file, .. }
        | Op::FileDiscard { file, .. }
        | Op::ForceDiscard { file } => Some(*file),
        Op::SectorRegister { .. }
        | Op::SectorDisable { .. }
        | Op::FileAdd { .. }
        | Op::Fund { .. }
        | Op::Burn { .. }
        | Op::FailSector { .. }
        | Op::CorruptSector { .. }
        | Op::AdvanceTo { .. } => None,
    }
}

/// One recorded ledger operation of a staged op, in execution order.
/// Balance-dependent steps carry the outcome the staging phase *assumed*;
/// the commit phase replays the program and falls back to sequential
/// execution when any assumption no longer holds.
#[derive(Debug, Clone)]
pub(super) enum LedgerStep {
    /// A gas burn. `assumed_ok` is the balance check's staged outcome
    /// (`false` = the op failed with `InsufficientFunds` here and recorded
    /// no further steps).
    Burn {
        /// Account debited.
        account: AccountId,
        /// Fee burned.
        amount: TokenAmount,
        /// Whether the staging phase saw sufficient balance.
        assumed_ok: bool,
    },
    /// A best-effort transfer (`Ledger::transfer_up_to`). Infallible, and
    /// no shard-local op observes the moved amount, so it carries no
    /// assumption — the commit replay computes the actual amount.
    TransferUpTo {
        /// Source account.
        from: AccountId,
        /// Destination account.
        to: AccountId,
        /// Upper bound on the amount moved.
        cap: TokenAmount,
    },
}

/// One staged mutation of the target file's rows. Writes carry whole
/// cloned objects: the overlay the executor read from already contains
/// every earlier same-segment write, so replacement at commit time is
/// exact.
#[derive(Debug, Clone)]
pub(super) enum RowWrite {
    /// Replace an allocation entry.
    Entry {
        /// Target file.
        file: FileId,
        /// Replica index.
        index: u32,
        /// The new entry value.
        entry: AllocEntry,
    },
    /// Replace a file descriptor.
    File {
        /// The new descriptor value (keyed by `desc.id`).
        desc: FileDescriptor,
    },
    /// Record a pending removal reason.
    DiscardReason {
        /// Target file.
        file: FileId,
        /// Why it is being removed.
        reason: RemovalReason,
    },
    /// Bump the engine's `proofs_accepted` counter.
    ProofAccepted,
}

/// The audit-root contribution of an accepted `File_Prove`.
#[derive(Debug, Clone)]
pub(super) enum ProofFold {
    /// The op passed every check; the replica's modeled proof still has to
    /// be walked ([`verify_staged_proofs`]).
    Unverified(ReplicaLane),
    /// The verification digest.
    Verified(Hash256),
}

/// Everything one shard-local op does, staged: the typed outcome, the
/// ledger program, the row writes, the audit-root fold of a verified
/// proof, and the op-counter increment. Applying these to live state (in
/// submission order, after the ledger program revalidates) reproduces the
/// sequential execution bit for bit.
#[derive(Debug, Clone)]
pub(super) struct StagedEffects {
    /// The typed result the op returns.
    pub(super) outcome: Result<Receipt, EngineError>,
    /// Ledger operations in execution order.
    pub(super) ledger: Vec<LedgerStep>,
    /// Row mutations in execution order.
    pub(super) writes: Vec<RowWrite>,
    /// The proof of an accepted `File_Prove`: verified before the effects
    /// leave the staging phase, then folded into the engine's audit root at
    /// commit (in submission order — the fold is part of the state root,
    /// which pins the parallel verification results).
    pub(super) audit_fold: Option<ProofFold>,
    /// `Engine::op_counter` increment.
    pub(super) op_counter_inc: u64,
}

impl StagedEffects {
    fn fail(sim: LedgerSim<'_>, err: EngineError) -> Self {
        StagedEffects {
            outcome: Err(err),
            ledger: sim.steps,
            writes: Vec::new(),
            audit_fold: None,
            op_counter_inc: 0,
        }
    }
}

/// A staged op ready for commit: the effects plus the canonical digests
/// (both computed in the parallel phase — `Op::digest` formats and hashes
/// the whole op, a meaningful share of ingest cost).
#[derive(Debug, Clone)]
pub(super) struct StagedOp {
    /// Canonical digest of the op (block batch commitment).
    pub(super) op_digest: Hash256,
    /// Digest of the staged outcome (receipt root commitment).
    pub(super) receipt_digest: Hash256,
    /// The staged effects.
    pub(super) effects: StagedEffects,
}

/// The immutable global context a staging worker reads: parameters, gas
/// prices, the sector table, the pre-segment ledger, and consensus time.
/// No shard-local op writes any of these, which is what makes the segment
/// staging sound.
pub(super) struct OpCtx<'a> {
    pub(super) params: &'a ProtocolParams,
    pub(super) gas: &'a GasSchedule,
    pub(super) sectors: &'a TrackedMap<SectorId, Sector>,
    pub(super) ledger: &'a Ledger,
    pub(super) now: Time,
}

/// A read view of the file rows: the engine's descriptors and allocation
/// rows plus every staged write of earlier same-segment ops in this
/// overlay's group, so in-segment dependencies (a second confirm of the
/// same replica, a prove after a discard) resolve exactly as they would
/// sequentially.
pub(super) struct FileOverlay<'a> {
    base_files: &'a TrackedMap<FileId, FileDescriptor>,
    base_alloc: &'a TrackedMap<(FileId, u32), AllocEntry>,
    files: HashMap<FileId, FileDescriptor>,
    entries: HashMap<(FileId, u32), AllocEntry>,
}

impl<'a> FileOverlay<'a> {
    pub(super) fn new(
        base_files: &'a TrackedMap<FileId, FileDescriptor>,
        base_alloc: &'a TrackedMap<(FileId, u32), AllocEntry>,
    ) -> Self {
        FileOverlay {
            base_files,
            base_alloc,
            files: HashMap::new(),
            entries: HashMap::new(),
        }
    }

    fn file(&self, file: FileId) -> Option<&FileDescriptor> {
        self.files.get(&file).or_else(|| self.base_files.get(&file))
    }

    fn entry(&self, file: FileId, index: u32) -> Option<&AllocEntry> {
        self.entries
            .get(&(file, index))
            .or_else(|| self.base_alloc.get(&(file, index)))
    }

    /// Mirrors a staged write into the overlay so later ops in the same
    /// segment read it. Discard reasons and stats are write-only for
    /// shard-local ops, so only files and entries need overlaying.
    pub(super) fn note_write(&mut self, write: &RowWrite) {
        match write {
            RowWrite::Entry { file, index, entry } => {
                self.entries.insert((*file, *index), entry.clone());
            }
            RowWrite::File { desc } => {
                self.files.insert(desc.id, desc.clone());
            }
            RowWrite::DiscardReason { .. } | RowWrite::ProofAccepted => {}
        }
    }
}

/// A tiny account→balance overlay for simulating one op's ledger program:
/// an op touches at most a handful of accounts, so a linear-scan `Vec`
/// beats a hash map on both allocation and lookup — this sits on the
/// sequential dispatch path of every shard-local op.
#[derive(Default)]
struct BalanceScratch(Vec<(AccountId, TokenAmount)>);

impl BalanceScratch {
    fn get(&self, base: &Ledger, account: AccountId) -> TokenAmount {
        self.0
            .iter()
            .find(|(a, _)| *a == account)
            .map(|(_, b)| *b)
            .unwrap_or_else(|| base.balance(account))
    }

    fn set(&mut self, account: AccountId, balance: TokenAmount) {
        match self.0.iter_mut().find(|(a, _)| *a == account) {
            Some(slot) => slot.1 = balance,
            None => self.0.push((account, balance)),
        }
    }
}

/// A per-op ledger simulation over the frozen pre-segment ledger: records
/// the op's [`LedgerStep`] program while tracking hypothetical balances so
/// multi-step ops (gas burn then fee release) stay internally consistent.
struct LedgerSim<'a> {
    base: &'a Ledger,
    local: BalanceScratch,
    steps: Vec<LedgerStep>,
}

impl<'a> LedgerSim<'a> {
    fn new(base: &'a Ledger) -> Self {
        LedgerSim {
            base,
            local: BalanceScratch::default(),
            steps: Vec::new(),
        }
    }

    fn balance(&self, account: AccountId) -> TokenAmount {
        self.local.get(self.base, account)
    }

    /// Records a burn; returns whether it (hypothetically) succeeded.
    fn burn(&mut self, account: AccountId, amount: TokenAmount) -> bool {
        let balance = self.balance(account);
        let ok = balance >= amount;
        self.steps.push(LedgerStep::Burn {
            account,
            amount,
            assumed_ok: ok,
        });
        if ok {
            self.local.set(account, balance - amount);
        }
        ok
    }

    /// Records a best-effort transfer and applies it hypothetically.
    fn transfer_up_to(&mut self, from: AccountId, to: AccountId, cap: TokenAmount) {
        self.steps.push(LedgerStep::TransferUpTo { from, to, cap });
        let from_balance = self.balance(from);
        let moved = from_balance.min(cap);
        self.local.set(from, from_balance - moved);
        let to_balance = self.balance(to);
        self.local.set(to, to_balance + moved);
    }

    /// The staged counterpart of `Engine::charge_gas`.
    fn charge_gas(&mut self, gas: &GasSchedule, account: AccountId, ops: &[GasOp]) -> bool {
        let total: u64 = ops.iter().map(|&op| gas.price(op)).sum();
        self.burn(account, gas.to_tokens(total))
    }
}

/// Replays a staged op's ledger program against the live ledger *without
/// mutating it*: returns `true` iff every balance-dependent step resolves
/// exactly as the staging phase assumed. `false` means an earlier op in
/// the segment moved money in a way this op's outcome depends on — the
/// caller must discard the staged result and re-execute sequentially.
pub(super) fn ledger_steps_match(ledger: &Ledger, steps: &[LedgerStep]) -> bool {
    let mut local = BalanceScratch::default();
    for step in steps {
        match step {
            LedgerStep::Burn {
                account,
                amount,
                assumed_ok,
            } => {
                let b = local.get(ledger, *account);
                let ok = b >= *amount;
                if ok != *assumed_ok {
                    return false;
                }
                if ok {
                    local.set(*account, b - *amount);
                }
            }
            LedgerStep::TransferUpTo { from, to, cap } => {
                let from_balance = local.get(ledger, *from);
                let moved = from_balance.min(*cap);
                local.set(*from, from_balance - moved);
                let to_balance = local.get(ledger, *to);
                local.set(*to, to_balance + moved);
            }
        }
    }
    true
}

cached_domain!(fn prove_leaf_domain, "fileinsurer/prove-leaf");
cached_domain!(fn prove_node_domain, "fileinsurer/prove-node");
cached_domain!(pub(super) fn prove_root_domain, "fileinsurer/prove-root");

/// Runs the modeled WindowPoSt verification of every accepted `File_Prove`
/// among `staged`, all of them as one batch of lockstep lanes: each leaf is
/// derived from the file's Merkle commitment, the replica index, the
/// holding sector and the proof time, then walked up an
/// `audit_path_len`-node authentication path. Pure — the digests are folded
/// into the engine's audit root in commit order, so the state root pins
/// every parallel verification bit-for-bit.
pub(super) fn verify_staged_proofs<'a>(
    staged: impl IntoIterator<Item = &'a mut StagedEffects>,
    ctx: &OpCtx<'_>,
) {
    let mut folds: Vec<&mut ProofFold> = Vec::new();
    let mut lanes: Vec<ReplicaLane> = Vec::new();
    for fold in staged.into_iter().filter_map(|e| e.audit_fold.as_mut()) {
        if let ProofFold::Unverified(lane) = fold {
            lanes.push(*lane);
            folds.push(fold);
        }
    }
    let digests = walk_replicas(
        prove_leaf_domain(),
        prove_node_domain(),
        &lanes,
        ctx.now,
        ctx.params.audit_path_len,
    );
    for (fold, digest) in folds.into_iter().zip(digests) {
        *fold = ProofFold::Verified(digest);
    }
}

/// Executes one shard-local op against a file-row view and the frozen
/// global context, producing staged effects. This is the single
/// implementation of the five ops' semantics: the sequential dispatch path
/// runs it against the live rows and applies the effects immediately; the
/// batch path runs
/// it in a staging worker and commits later. Either caller finishes with
/// [`verify_staged_proofs`] over everything it staged.
pub(super) fn stage_shard_local(op: &Op, ctx: &OpCtx<'_>, view: &FileOverlay<'_>) -> StagedEffects {
    match op {
        Op::FileConfirm {
            caller,
            file,
            index,
            sector,
        } => stage_file_confirm(ctx, view, *caller, *file, *index, *sector),
        Op::FileProve {
            caller,
            file,
            index,
            sector,
        } => stage_file_prove(ctx, view, *caller, *file, *index, *sector),
        Op::FileGet { caller, file } => stage_file_get(ctx, view, *caller, *file),
        Op::FileDiscard { caller, file } => stage_file_discard(ctx, view, *caller, *file),
        Op::ForceDiscard { file } => stage_force_discard(view, *file),
        other => unreachable!("{} is not a shard-local op", other.kind()),
    }
}

/// `File_Confirm` (Fig. 5): the provider of the target sector acknowledges
/// receiving the replica; the traffic fee for it is released.
fn stage_file_confirm(
    ctx: &OpCtx<'_>,
    view: &FileOverlay<'_>,
    caller: AccountId,
    file: FileId,
    index: u32,
    sector: SectorId,
) -> StagedEffects {
    let mut sim = LedgerSim::new(ctx.ledger);
    if !sim.charge_gas(ctx.gas, caller, &[GasOp::RequestBase, GasOp::AllocRead]) {
        return StagedEffects::fail(sim, EngineError::InsufficientFunds);
    }
    let Some(s) = ctx.sectors.get(&sector) else {
        return StagedEffects::fail(sim, EngineError::UnknownSector(sector));
    };
    if s.owner != caller {
        return StagedEffects::fail(sim, EngineError::NotOwner);
    }
    let Some(size) = view.file(file).map(|f| f.size) else {
        return StagedEffects::fail(sim, EngineError::UnknownFile(file));
    };
    let Some(e) = view.entry(file, index) else {
        return StagedEffects::fail(sim, EngineError::UnknownFile(file));
    };
    if e.next != Some(sector) || e.state != AllocState::Alloc {
        return StagedEffects::fail(
            sim,
            EngineError::InvalidState("allocation is not awaiting this sector's confirm"),
        );
    }
    let mut entry = e.clone();
    entry.state = AllocState::Confirm;
    let fee = ctx.params.traffic_fee(size);
    sim.transfer_up_to(TRAFFIC_ESCROW, caller, fee);
    StagedEffects {
        outcome: Ok(Receipt::Confirmed { file, index }),
        ledger: sim.steps,
        writes: vec![RowWrite::Entry { file, index, entry }],
        audit_fold: None,
        op_counter_inc: 1,
    }
}

/// `File_Prove` (Fig. 5): accept the storage proof for a held replica and
/// record its timestamp. The modeled verification is left to
/// [`verify_staged_proofs`]; its digest is folded into the engine's audit
/// root at commit.
fn stage_file_prove(
    ctx: &OpCtx<'_>,
    view: &FileOverlay<'_>,
    caller: AccountId,
    file: FileId,
    index: u32,
    sector: SectorId,
) -> StagedEffects {
    let mut sim = LedgerSim::new(ctx.ledger);
    if !sim.charge_gas(ctx.gas, caller, &[GasOp::RequestBase, GasOp::ProofVerify]) {
        return StagedEffects::fail(sim, EngineError::InsufficientFunds);
    }
    let Some(s) = ctx.sectors.get(&sector) else {
        return StagedEffects::fail(sim, EngineError::UnknownSector(sector));
    };
    if s.owner != caller {
        return StagedEffects::fail(sim, EngineError::NotOwner);
    }
    if s.physically_failed || s.state == SectorState::Corrupted {
        return StagedEffects::fail(
            sim,
            EngineError::InvalidState("sector cannot produce proofs"),
        );
    }
    let Some(e) = view.entry(file, index) else {
        return StagedEffects::fail(sim, EngineError::UnknownFile(file));
    };
    if e.prev != Some(sector) {
        return StagedEffects::fail(
            sim,
            EngineError::InvalidState("sector does not hold this replica"),
        );
    }
    let merkle_root = view
        .file(file)
        .map(|f| f.merkle_root)
        .expect("allocation entries never outlive their descriptor");
    let mut entry = e.clone();
    entry.last = Some(ctx.now);
    StagedEffects {
        outcome: Ok(Receipt::Proved { file, index }),
        ledger: sim.steps,
        writes: vec![
            RowWrite::Entry { file, index, entry },
            RowWrite::ProofAccepted,
        ],
        audit_fold: Some(ProofFold::Unverified((
            merkle_root,
            index.to_be_bytes(),
            sector.0.to_be_bytes(),
        ))),
        op_counter_inc: 1,
    }
}

/// `File_Get` (§III-E): gas-charged live-holder lookup.
fn stage_file_get(
    ctx: &OpCtx<'_>,
    view: &FileOverlay<'_>,
    caller: AccountId,
    file: FileId,
) -> StagedEffects {
    let mut sim = LedgerSim::new(ctx.ledger);
    if !sim.charge_gas(ctx.gas, caller, &[GasOp::RequestBase, GasOp::AllocRead]) {
        return StagedEffects::fail(sim, EngineError::InsufficientFunds);
    }
    let Some(f) = view.file(file) else {
        return StagedEffects::fail(sim, EngineError::UnknownFile(file));
    };
    let mut holders = Vec::new();
    for i in 0..f.cp {
        if let Some(e) = view.entry(file, i) {
            if e.state == AllocState::Normal || e.state == AllocState::Alloc {
                if let Some(sid) = e.prev {
                    if let Some(s) = ctx.sectors.get(&sid) {
                        if s.state != SectorState::Corrupted && !s.physically_failed {
                            holders.push((sid, s.owner));
                        }
                    }
                }
            }
        }
    }
    StagedEffects {
        outcome: Ok(Receipt::Holders { holders }),
        ledger: sim.steps,
        writes: Vec::new(),
        audit_fold: None,
        op_counter_inc: 0,
    }
}

/// `File_Discard` (Fig. 4): the owner marks the file for removal at its
/// next `Auto_CheckProof`.
fn stage_file_discard(
    ctx: &OpCtx<'_>,
    view: &FileOverlay<'_>,
    caller: AccountId,
    file: FileId,
) -> StagedEffects {
    let mut sim = LedgerSim::new(ctx.ledger);
    if !sim.charge_gas(ctx.gas, caller, &[GasOp::RequestBase]) {
        return StagedEffects::fail(sim, EngineError::InsufficientFunds);
    }
    let Some(f) = view.file(file) else {
        return StagedEffects::fail(sim, EngineError::UnknownFile(file));
    };
    if f.owner != caller {
        return StagedEffects::fail(sim, EngineError::NotOwner);
    }
    let mut desc = f.clone();
    desc.state = FileState::Discarded;
    StagedEffects {
        outcome: Ok(Receipt::Discarded { file }),
        ledger: sim.steps,
        writes: vec![
            RowWrite::File { desc },
            RowWrite::DiscardReason {
                file,
                reason: RemovalReason::ClientDiscard,
            },
        ],
        audit_fold: None,
        op_counter_inc: 1,
    }
}

/// Consensus-side rollback discard (§VI-C): no ownership check, no gas.
fn stage_force_discard(view: &FileOverlay<'_>, file: FileId) -> StagedEffects {
    let writes = match view.file(file) {
        Some(f) => {
            let mut desc = f.clone();
            desc.state = FileState::Discarded;
            vec![
                RowWrite::File { desc },
                RowWrite::DiscardReason {
                    file,
                    reason: RemovalReason::ClientDiscard,
                },
            ]
        }
        None => Vec::new(),
    };
    StagedEffects {
        outcome: Ok(Receipt::Discarded { file }),
        ledger: Vec::new(),
        writes,
        audit_fold: None,
        op_counter_inc: 0,
    }
}

impl Engine {
    /// Stages one shard-local op against *live* state (empty overlay, live
    /// ledger). In this single-op setting every ledger assumption holds by
    /// construction, so the staged effects are exact.
    pub(super) fn stage_vs_live(&self, op: &Op) -> StagedEffects {
        let ctx = OpCtx {
            params: &self.params,
            gas: &self.gas,
            sectors: &self.sectors,
            ledger: &self.ledger,
            now: self.chain.now(),
        };
        let view = FileOverlay::new(&self.files, &self.alloc);
        let mut effects = stage_shard_local(op, &ctx, &view);
        verify_staged_proofs([&mut effects], &ctx);
        effects
    }

    /// The sequential execution of a shard-local op — dispatch routes the
    /// five ops here. Staging against live state plus an immediate commit
    /// is exactly the pre-pipeline handler semantics.
    pub(super) fn apply_shard_local(&mut self, op: &Op) -> Result<Receipt, EngineError> {
        let effects = self.stage_vs_live(op);
        debug_assert!(
            ledger_steps_match(&self.ledger, &effects.ledger),
            "live staging cannot mis-assume balances"
        );
        self.apply_effects(effects)
    }

    /// Applies staged effects to live state: the ledger program (with
    /// assumptions already revalidated by the caller), the row writes,
    /// the audit-root fold, the op counter. Returns the staged outcome.
    pub(super) fn apply_effects(&mut self, effects: StagedEffects) -> Result<Receipt, EngineError> {
        for step in &effects.ledger {
            match step {
                LedgerStep::Burn {
                    account,
                    amount,
                    assumed_ok,
                } => {
                    if *assumed_ok {
                        self.ledger
                            .burn(*account, *amount)
                            .expect("commit replay validated the balance");
                    }
                    // An assumed-failed burn mutates nothing, exactly like
                    // the sequential path's rejected `Ledger::burn`.
                }
                LedgerStep::TransferUpTo { from, to, cap } => {
                    self.ledger.transfer_up_to(*from, *to, *cap);
                }
            }
        }
        for write in effects.writes {
            match write {
                RowWrite::Entry { file, index, entry } => {
                    self.alloc.insert((file, index), entry);
                }
                RowWrite::File { desc } => {
                    self.files.insert(desc.id, desc);
                }
                RowWrite::DiscardReason { file, reason } => {
                    self.discard_reasons.insert(file, reason);
                }
                RowWrite::ProofAccepted => {
                    self.stats.proofs_accepted += 1;
                }
            }
        }
        match effects.audit_fold {
            Some(ProofFold::Verified(digest)) => {
                self.audit_root =
                    prove_root_domain().hash(&[self.audit_root.as_bytes(), digest.as_bytes()]);
            }
            Some(ProofFold::Unverified(_)) => {
                unreachable!("staged proofs are verified before their effects are handed back")
            }
            None => {}
        }
        self.op_counter += effects.op_counter_inc;
        effects.outcome
    }

    /// Stages a segment of shard-local ops concurrently: ops are grouped by
    /// `FileId % width` over the fan-out's width, one group per worker, and
    /// each worker executes its group's ops in submission order against
    /// one [`FileOverlay`]. Pure with respect to the engine — all effects
    /// are returned, none applied.
    ///
    /// `digests`, when given, holds `ops`' canonical digests; otherwise
    /// each worker hashes its own share.
    pub(super) fn stage_segment(&self, ops: &[Op], digests: Option<&[Hash256]>) -> Vec<StagedOp> {
        let width = self.pool_for(true);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); width];
        for (i, op) in ops.iter().enumerate() {
            let file = shard_local_file(op).expect("segment holds shard-local ops");
            groups[(file.0 % width as u64) as usize].push(i);
        }
        groups.retain(|group| !group.is_empty());
        let ctx = &OpCtx {
            params: &self.params,
            gas: &self.gas,
            sectors: &self.sectors,
            ledger: &self.ledger,
            now: self.chain.now(),
        };
        let (files, alloc) = (&self.files, &self.alloc);
        let staged = fan_out(width, groups, |groups| {
            let mut staged: Vec<(usize, Hash256, StagedEffects)> = Vec::new();
            for group in groups {
                let mut view = FileOverlay::new(files, alloc);
                for i in group {
                    let effects = stage_shard_local(&ops[i], ctx, &view);
                    for write in &effects.writes {
                        view.note_write(write);
                    }
                    let receipt_digest = match &effects.outcome {
                        Ok(receipt) => receipt.digest(),
                        Err(err) => Receipt::error_digest(err),
                    };
                    staged.push((i, receipt_digest, effects));
                }
            }
            verify_staged_proofs(staged.iter_mut().map(|(_, _, effects)| effects), ctx);
            staged
                .into_iter()
                .map(|(i, receipt_digest, effects)| {
                    // The caller's digest, or hashed here, in parallel
                    // across workers.
                    let op_digest = digests.map_or_else(|| ops[i].digest(), |known| known[i]);
                    let staged = StagedOp {
                        op_digest,
                        receipt_digest,
                        effects,
                    };
                    (i, staged)
                })
                .collect()
        });

        let mut out: Vec<Option<StagedOp>> = ops.iter().map(|_| None).collect();
        for (i, staged) in staged {
            out[i] = Some(staged);
        }
        out.into_iter()
            .map(|staged| staged.expect("every segment op staged exactly once"))
            .collect()
    }
}
