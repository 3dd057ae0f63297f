//! The FileInsurer protocol engine: the consensus state machine of §IV,
//! organized as a typed transaction processor.
//!
//! Every state transition is an [`Op`] applied through the
//! single front door [`Engine::apply`], which returns a typed
//! [`Receipt`], commits the `(op, receipt)` pair into
//! the open block's batch, and appends the op to a replayable log
//! ([`Engine::op_log`], [`Engine::replay`]). The familiar method API
//! ([`Engine::file_add`], [`Engine::sector_register`], …) survives as thin
//! wrappers that construct ops.
//!
//! The engine is split by concern:
//!
//! * [`mod@self`] — dispatch, time advancement, gas, the op log,
//!   checkpoints;
//! * `shard` — the sharded per-file core: file descriptors, allocation
//!   rows, discard reasons, per-shard task wheels and stats, routed by
//!   `FileId % shards` (ids are allocated from one global counter, so
//!   shard `s` owns the strided ids `s, s + n, s + 2n, …`);
//! * `lifecycle` — client/provider requests (Figs. 4–6): add, confirm,
//!   prove, get, discard, sector admin, segmented uploads;
//! * `audit` — the `Auto_*` consensus tasks (Figs. 7–9): `CheckAlloc`,
//!   `CheckProof`, `Refresh`, `CheckRefresh`, rent distribution,
//!   punishment and confiscation, fault injection;
//! * `alloc` — allocation bookkeeping: weighted sampling with collision
//!   retry, reservations and rollback, sector draining, the §VI-B Poisson
//!   swap-in.
//!
//! `Auto_` tasks execute from per-shard epoch-bucketed wheels
//! ([`fi_chain::tasks::TaskWheel`]) when [`Engine::advance_to`] moves time
//! past their deadline. Each due bucket runs in two phases: a read-only
//! **verify** phase (the modeled Merkle storage-proof checks of
//! `Auto_CheckProof`, fanned out across the persistent worker pool in
//! `pool` — audits are independent per (file, replica), the heart of the
//! paper's scalability claim) and a **commit** phase that merges the
//! per-shard slices back into global `(time, schedule-seq)` order and
//! applies rent, punishments and refreshes — batched through per-shard
//! write plans on large multi-shard buckets, sequentially otherwise, with
//! bit-identical results either way. The merge key is
//! shard-count-invariant, so consensus state is bit-identical whether the
//! engine runs 1 shard or 8 (see DESIGN.md §9 and §14).
//!
//! Money flows exactly as §IV-A/§IV-B prescribe:
//!
//! * **deposits** — pledged at `Sector_Register` into a deposit escrow;
//!   refunded on safe exit; confiscated into the compensation pool when a
//!   sector misses `ProofDeadline` or is corrupted;
//! * **storage rent + prepaid gas** — deducted from the client every
//!   `ProofCycle` by `Auto_CheckProof`; rent accumulates in a pool paid out
//!   to live sectors pro rata capacity each rent period; the gas share is
//!   burned (consensus space);
//! * **traffic fees** — escrowed at `File_Add`, released to each provider
//!   upon `File_Confirm`;
//! * **compensation** — on loss of all replicas, the client receives the
//!   declared file value from confiscated deposits (Fig. 8).

mod alloc;
mod audit;
mod batch;
mod lifecycle;
mod pool;
mod shard;
mod snapshot;
mod statemap;
mod view;

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, MutexGuard, OnceLock};
use std::time::Instant;

use fi_chain::account::{AccountId, Ledger, TokenAmount};
use fi_chain::block::{BlockChain, ChainEvent};
use fi_chain::gas::{GasSchedule, Op as GasOp};
use fi_chain::log::SharedLog;
use fi_chain::tasks::Time;
use fi_crypto::{DetRng, Hash256};
use fi_store::{Blockstore, DiskBlockstore, Hamt, MemoryBlockstore};

use crate::codec::Enc;
use crate::drep::CrAccounting;
use crate::ops::{Op, OpRecord, Receipt};
use crate::params::{ParamError, ProtocolParams};
use crate::sampler::WeightedSampler;
use crate::segment::SegmentedFile;
use crate::types::{FileId, ProtocolEvent, Sector, SectorId};

use self::audit::ProofAudit;
use self::batch::{ledger_steps_match, shard_local_file};
use self::lifecycle::FileAddPrestage;
use self::pool::{JobBatch, PoolHandle, WorkerPool};
use self::shard::ShardedState;
use self::statemap::{CommitCell, StateMaps, TrackedMap};

pub use self::snapshot::SnapshotError;
pub use self::statemap::{StateHeader, StateRoots};
pub use self::view::{PinnedState, StateProof, StateView};

/// Deposit escrow: holds pledged sector deposits.
pub const DEPOSIT_ESCROW: AccountId = AccountId(1);
/// Compensation pool: confiscated deposits awaiting payout.
pub const COMPENSATION_POOL: AccountId = AccountId(2);
/// Rent pool: rent accrued during the current period.
pub const RENT_POOL: AccountId = AccountId(3);
/// Traffic-fee escrow: prepaid transfer fees awaiting confirms.
pub const TRAFFIC_ESCROW: AccountId = AccountId(4);

/// Fewest dirty keys in one state commit worth fanning out over the
/// pool. A key costs one to three microseconds of node hashing, and
/// getting parked workers running on another core takes the better part
/// of a millisecond on the 2-vCPU VMs this is benchmarked on: measured
/// there, commits of about 600 keys gain nothing from two workers, and
/// commits of 4 096 to 200 000 keys run 1.7x faster. Below the floor a
/// commit stays inline, and an engine that only ever makes small commits
/// never spawns a pool for them.
const COMMIT_FANOUT_MIN_DIRTY_KEYS: usize = 2048;

/// Fewest items (shard-local ops of an ingest segment, `Auto_CheckProof`
/// tasks of a due bucket, deferred `cntdown` writes) worth handing to the
/// worker pool; below it the work runs inline on the calling thread. The
/// outcome is bit-identical either way (`tests/parallel_commit.rs`,
/// `tests/batch_ingest.rs`): the floor only decides when dispatch pays.
const PARALLEL_FANOUT_MIN_ITEMS: usize = 64;

/// Errors returned by engine request handlers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Unknown file id.
    UnknownFile(FileId),
    /// Unknown sector id.
    UnknownSector(SectorId),
    /// The caller does not own the object it is operating on.
    NotOwner,
    /// The object is in the wrong state for the request.
    InvalidState(&'static str),
    /// Parameter/argument validation failed.
    Param(ParamError),
    /// The caller cannot cover a required payment.
    InsufficientFunds,
    /// No sector with enough free space could be sampled
    /// (`collision_retry_limit` exceeded — "almost never happens").
    NoCapacity,
    /// File exceeds `sizeLimit`; segment it first (§VI-C, [`crate::segment`]).
    FileTooLarge {
        /// Requested size.
        size: u64,
        /// The configured `sizeLimit`.
        limit: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownFile(id) => write!(f, "unknown {id}"),
            EngineError::UnknownSector(id) => write!(f, "unknown {id}"),
            EngineError::NotOwner => write!(f, "caller does not own the target"),
            EngineError::InvalidState(what) => write!(f, "invalid state: {what}"),
            EngineError::Param(e) => write!(f, "{e}"),
            EngineError::InsufficientFunds => write!(f, "insufficient funds"),
            EngineError::NoCapacity => write!(f, "no sector with sufficient free space"),
            EngineError::FileTooLarge { size, limit } => {
                write!(
                    f,
                    "file size {size} exceeds sizeLimit {limit}; erasure-segment it"
                )
            }
        }
    }
}

impl EngineError {
    /// The error's canonical bytes, which [`Receipt::error_digest`]
    /// commits to (DESIGN.md §7): a variant tag (`UnknownFile` = 0 through
    /// `FileTooLarge` = 7), then the fields — ids and sizes as `u64`, a
    /// `&'static str` reason as a length-prefixed UTF-8 string, and a
    /// [`ParamError`] as its own tag (`NotAMultiple` = 0, `OutOfRange`
    /// = 1) followed by its fields (`u128` values). Never the `Display`
    /// text.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(48);
        match self {
            EngineError::UnknownFile(id) => {
                e.u8(0);
                e.u64(id.0);
            }
            EngineError::UnknownSector(id) => {
                e.u8(1);
                e.u64(id.0);
            }
            EngineError::NotOwner => e.u8(2),
            EngineError::InvalidState(what) => {
                e.u8(3);
                e.bytes(what.as_bytes());
            }
            EngineError::Param(err) => {
                e.u8(4);
                match err {
                    ParamError::NotAMultiple { what, value, of } => {
                        e.u8(0);
                        e.bytes(what.as_bytes());
                        e.u128(*value);
                        e.u128(*of);
                    }
                    ParamError::OutOfRange { what } => {
                        e.u8(1);
                        e.bytes(what.as_bytes());
                    }
                }
            }
            EngineError::InsufficientFunds => e.u8(5),
            EngineError::NoCapacity => e.u8(6),
            EngineError::FileTooLarge { size, limit } => {
                e.u8(7);
                e.u64(*size);
                e.u64(*limit);
            }
        }
        e.into_bytes()
    }
}

impl std::error::Error for EngineError {}

impl From<ParamError> for EngineError {
    fn from(e: ParamError) -> Self {
        EngineError::Param(e)
    }
}

/// The result of [`Engine::file_add_segmented`]: the per-segment file ids
/// (data segments first, parity after — index `i` stores segment `i`) plus
/// the segmentation plan with the encoded flat buffer.
#[derive(Debug, Clone)]
pub struct SegmentedUpload {
    /// One file id per segment, in segment order.
    pub files: Vec<FileId>,
    /// The §VI-C plan: flat segment buffer, per-segment value, geometry.
    pub segmented: SegmentedFile,
}

/// Consensus-scheduled tasks (the `Auto_` protocols).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Task {
    CheckAlloc(FileId),
    CheckProof(FileId),
    CheckRefresh(FileId, u32),
    DistributeRent,
}

/// Counters exposed for experiments and tests.
///
/// The engine keeps one instance per shard (for file-attributable
/// counters) plus one global instance (for sector-attributable counters
/// incremented outside any file context); [`Engine::stats`] returns the
/// [`EngineStats::merge`] of all of them, which equals what a 1-shard
/// engine counts on the same workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// `File_Add` sampling retries that hit an over-full sector.
    pub add_collisions: u64,
    /// `Auto_Refresh` attempts aborted because the target lacked space.
    pub refresh_collisions: u64,
    /// Refresh transfers started.
    pub refreshes_started: u64,
    /// Refresh transfers completed.
    pub refreshes_completed: u64,
    /// Storage proofs accepted.
    pub proofs_accepted: u64,
    /// Late-proof / failed-transfer punishments applied.
    pub punishments: u64,
    /// Sectors corrupted (deadline misses + injected corruption).
    pub sectors_corrupted: u64,
    /// Files lost (all replicas destroyed).
    pub files_lost: u64,
    /// Total declared value of lost files.
    pub value_lost: TokenAmount,
    /// Compensation actually paid out.
    pub compensation_paid: TokenAmount,
    /// Compensation shortfall (pool ran dry) — must stay zero in any run
    /// within Theorem 4's deposit regime.
    pub compensation_shortfall: TokenAmount,
    /// Replica storage proofs cryptographically checked by
    /// `Auto_CheckProof`'s read-only verify phase.
    pub proofs_audited: u64,
    /// Ingest segments staged through the parallel pipeline
    /// (`Engine::apply_batch`). Execution-strategy counter, not a
    /// consensus one — see [`EngineStats::consensus`].
    pub batches_staged_parallel: u64,
    /// Staged ingest segments in which at least one op's ledger
    /// assumptions failed commit-time revalidation and re-executed
    /// sequentially. Makes the fallback path observable instead of
    /// silent. Execution-strategy counter — see
    /// [`EngineStats::consensus`].
    pub batches_fell_back_sequential: u64,
    /// Due audit buckets committed through the parallel per-shard
    /// write-batch path instead of the sequential fold.
    /// Execution-strategy counter — see [`EngineStats::consensus`].
    pub audit_commit_batches: u64,
}

impl EngineStats {
    /// Accumulates `other` into `self`, field by field. Counters are
    /// disjoint across shards (every increment happens on exactly one
    /// shard, or on the engine's global instance), so merging the
    /// per-shard stats reproduces the unsharded totals exactly.
    pub fn merge(&mut self, other: &EngineStats) {
        // Exhaustive destructuring (no `..`): adding a field to
        // EngineStats without merging it is a compile error, not a
        // silently under-reported counter at shards > 1.
        let EngineStats {
            add_collisions,
            refresh_collisions,
            refreshes_started,
            refreshes_completed,
            proofs_accepted,
            punishments,
            sectors_corrupted,
            files_lost,
            value_lost,
            compensation_paid,
            compensation_shortfall,
            proofs_audited,
            batches_staged_parallel,
            batches_fell_back_sequential,
            audit_commit_batches,
        } = other;
        self.add_collisions += add_collisions;
        self.refresh_collisions += refresh_collisions;
        self.refreshes_started += refreshes_started;
        self.refreshes_completed += refreshes_completed;
        self.proofs_accepted += proofs_accepted;
        self.punishments += punishments;
        self.sectors_corrupted += sectors_corrupted;
        self.files_lost += files_lost;
        self.value_lost += *value_lost;
        self.compensation_paid += *compensation_paid;
        self.compensation_shortfall += *compensation_shortfall;
        self.proofs_audited += proofs_audited;
        self.batches_staged_parallel += batches_staged_parallel;
        self.batches_fell_back_sequential += batches_fell_back_sequential;
        self.audit_commit_batches += audit_commit_batches;
    }

    /// This stats object with the execution-strategy counters zeroed,
    /// leaving only the consensus-observable counters.
    ///
    /// The strategy counters (`batches_staged_parallel`,
    /// `batches_fell_back_sequential`, `audit_commit_batches`) record
    /// *which code path* ran, and legitimately differ across
    /// `(shards, ingest_threads)` configurations and between op-by-op
    /// `apply` and `apply_batch` — while the state they produce is
    /// bit-identical. Differential tests comparing engines across
    /// configurations compare `a.stats().consensus()`, not raw stats.
    pub fn consensus(&self) -> EngineStats {
        EngineStats {
            batches_staged_parallel: 0,
            batches_fell_back_sequential: 0,
            audit_commit_batches: 0,
            ..self.clone()
        }
    }
}

/// Cumulative wall-clock seconds the engine spent in its four measured
/// parallel-path phases, accumulated across calls. Observability only:
/// never part of consensus state, snapshots, or replay (a restored or
/// replayed engine starts from zero).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Batch-ingest staging: concurrent shard-overlay execution plus the
    /// barrier `File_Add` prestaging riding in the same pool run.
    pub stage_s: f64,
    /// Batch-ingest commit: in-order ledger revalidation and effect
    /// application (including sequential fallbacks).
    pub commit_s: f64,
    /// Audit verify: the read-only storage-proof checks of a due bucket.
    pub verify_s: f64,
    /// Audit commit: the canonical-order fold plus rent/punishment/
    /// reschedule application and per-shard write-batch flushes.
    pub fold_s: f64,
}

/// The FileInsurer consensus engine.
///
/// # Cloning
///
/// `Engine::clone` copies **live state** — the ledger, the tracked maps,
/// the sampler, the task wheels — and *shares* everything immutable: the
/// sealed blocks and the op log live in [`SharedLog`]s (a clone copies a
/// pointer and an open tail of fewer than 64 items), the blockstore, the
/// committed HAMT nodes and the worker pool sit behind `Arc`. A clone
/// therefore costs the same at height 20 000 as at height 1, and a
/// verifier can afford one per block. The one thing that still grows
/// with use is the [`StateView::events`] buffer: a long-lived holder
/// drains it with [`Engine::take_events`] (a node's chain tracker does,
/// after every block).
///
/// # Example
///
/// ```
/// use fi_core::engine::{Engine, StateView};
/// use fi_core::params::ProtocolParams;
/// use fi_chain::account::{AccountId, TokenAmount};
///
/// let mut params = ProtocolParams::default();
/// params.k = 2; // 2 replicas per minValue file in this tiny demo
/// let mut engine = Engine::new(params).unwrap();
///
/// let provider = AccountId(100);
/// let client = AccountId(200);
/// engine.fund(provider, TokenAmount(1_000_000_000));
/// engine.fund(client, TokenAmount(1_000_000));
///
/// let sector = engine.sector_register(provider, 640).unwrap();
/// let root = fi_crypto::sha256(b"my file");
/// let file = engine
///     .file_add(client, 10, engine.params().min_value, root)
///     .unwrap();
///
/// // The provider confirms both replicas, then time advances past the
/// // transfer window and Auto_CheckAlloc finalises the placement.
/// for (idx, s) in engine.pending_confirms(file) {
///     assert_eq!(s, sector);
///     engine.file_confirm(provider, file, idx, s).unwrap();
/// }
/// let deadline = engine.now() + engine.params().transfer_window(10);
/// engine.advance_to(deadline);
/// assert!(engine.file(file).is_some());
///
/// // Every action above went through the typed op layer:
/// assert!(engine.op_log().iter().any(|r| r.op.kind() == "op.file_add"));
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    params: ProtocolParams,
    chain: BlockChain,
    ledger: Ledger,
    gas: GasSchedule,
    /// The per-file core, partitioned by `FileId % shards`: descriptors,
    /// allocation rows, discard reasons, task wheels, per-shard stats.
    shards: ShardedState,
    sectors: TrackedMap<SectorId, Sector>,
    cr: TrackedMap<SectorId, CrAccounting>,
    /// `(file, index)` pairs touching each sector (as holder or as
    /// reservation target). Kept consistent with the shards' alloc tables.
    sector_replicas: HashMap<SectorId, BTreeSet<(FileId, u32)>>,
    sampler: WeightedSampler<SectorId>,
    rng: DetRng,
    next_file_id: u64,
    next_sector_id: u64,
    events: Vec<ProtocolEvent>,
    /// Sector-attributable counters with no file context; merged with the
    /// per-shard stats by [`Engine::stats`].
    stats_global: EngineStats,
    op_counter: u64,
    /// Total ops ever applied — survives [`Engine::checkpoint`] op-log
    /// truncation, so it (not `op_log.len()`) feeds `seq` and the state
    /// root.
    ops_applied: u64,
    /// Global schedule sequence — the shard-count-invariant merge key for
    /// the commit phase (assigned in apply order).
    task_seq: u64,
    /// Running commitment over every verification digest — the
    /// `Auto_CheckProof` verify-phase digests and the `File_Prove`
    /// modeled-WindowPoSt digests — folded in commit order. Part of the
    /// state root: asserting root equality across shard counts and
    /// ingest paths pins the parallel verification results bit-for-bit.
    audit_root: Hash256,
    /// Applied-op records since the last checkpoint: immutable history in
    /// a [`SharedLog`], shared (not copied) by every clone.
    op_log: SharedLog<OpRecord>,
    last_checkpoint: Option<Checkpoint>,
    /// Lazily spawned persistent worker pool backing every parallel phase
    /// (ingest staging, audit verify fan-out, audit write-batch flushes).
    /// Shared across engine clones; never part of consensus state or
    /// snapshots.
    pool: PoolHandle,
    /// Per-phase wall-time accumulators ([`Engine::phase_times`]).
    /// Observability only.
    phase: PhaseTimes,
    /// The content-addressed blockstore backing the state commitment.
    /// Shared across engine clones (content addressing makes sharing
    /// harmless: blocks are immutable and keyed by their own hash), and
    /// *never* part of consensus: any backend yields the same roots.
    store: Arc<dyn Blockstore>,
    /// The five state HAMTs ([`statemap::StateMaps`]), synced from the
    /// tracked maps' dirty keys on every [`Engine::state_root`] (hashed)
    /// or [`Engine::state_roots`] (hashed and persisted).
    commit: CommitCell,
}

/// A compact commitment to engine state at a block height, taken by
/// [`Engine::checkpoint`] when the op log is truncated. A later
/// [`Engine::replay_from`] validates its base engine against this before
/// replaying the post-checkpoint suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Chain height at the checkpoint.
    pub height: u64,
    /// Consensus time at the checkpoint.
    pub at: Time,
    /// `state_root()` at the checkpoint.
    pub state_root: Hash256,
    /// Ops applied up to the checkpoint (the `seq` of the next op).
    pub ops_applied: u64,
}

impl Engine {
    /// Creates an engine with validated parameters at time 0, on the
    /// default blockstore: in-memory, unless the `FI_TEST_STORE=disk`
    /// environment variable selects the process-shared disk backend (the
    /// CI store axis — the backend is deployment configuration, never
    /// consensus; see [`Engine::new_with_store`]).
    ///
    /// # Errors
    ///
    /// Returns the first violated parameter constraint.
    pub fn new(params: ProtocolParams) -> Result<Self, ParamError> {
        Engine::new_with_store(params, default_store())
    }

    /// [`Engine::new`] on an explicit [`Blockstore`]. The backend choice
    /// is invisible to consensus — an engine on a disk store produces
    /// bit-identical roots, receipts and block hashes to one on a memory
    /// store (asserted by the `(store × shards × threads)` differential
    /// matrix in `tests/state_commitment.rs`).
    ///
    /// # Errors
    ///
    /// Returns the first violated parameter constraint.
    pub fn new_with_store(
        params: ProtocolParams,
        store: Arc<dyn Blockstore>,
    ) -> Result<Self, ParamError> {
        params.validate()?;
        let chain = BlockChain::new(params.seed, params.block_interval);
        let rng = chain.beacon().rng_at(0, "fileinsurer/engine");
        let mut engine = Engine {
            chain,
            ledger: Ledger::new(),
            gas: GasSchedule::default(),
            shards: ShardedState::new(params.shards, params.scheduler, params.block_interval),
            sectors: TrackedMap::new(),
            cr: TrackedMap::new(),
            sector_replicas: HashMap::new(),
            sampler: WeightedSampler::new(),
            rng,
            next_file_id: 0,
            next_sector_id: 0,
            events: Vec::new(),
            stats_global: EngineStats::default(),
            op_counter: 0,
            ops_applied: 0,
            task_seq: 0,
            audit_root: Hash256::ZERO,
            op_log: SharedLog::new(),
            last_checkpoint: None,
            pool: PoolHandle::new(),
            phase: PhaseTimes::default(),
            store,
            commit: CommitCell::new(),
            params,
        };
        let period = engine.rent_period();
        engine.schedule_task(period, Task::DistributeRent);
        Ok(engine)
    }

    /// The content-addressed blockstore backing the state commitment.
    /// Shared by every clone of this engine; a [`PinnedState`] reading one
    /// of this engine's historical roots borrows the same store.
    pub fn store(&self) -> &Arc<dyn Blockstore> {
        &self.store
    }

    // ------------------------------------------------------------------
    // The typed transaction layer
    // ------------------------------------------------------------------

    /// Applies one typed protocol op — the single front door for every
    /// state transition. The op and its receipt are committed into the
    /// open block's batch and the op is appended to the replayable log,
    /// whether it succeeded or not (failed requests still burn gas).
    ///
    /// # Errors
    ///
    /// The same errors the corresponding request handler reports (see each
    /// [`Op`] variant's wrapper method).
    pub fn apply(&mut self, op: Op) -> Result<Receipt, EngineError> {
        let op_digest = op.digest();
        self.apply_prehashed(op, op_digest, None)
    }

    /// [`Engine::apply`] for a caller that already holds the op's
    /// canonical digest — a node hashes every op of a block it is handed
    /// to identify the block, and must not pay for that hash again on each
    /// replay. `digest` MUST be `op.digest()` (checked in debug builds),
    /// or the block commitment diverges from every other replica's.
    ///
    /// # Errors
    ///
    /// As [`Engine::apply`].
    pub fn apply_digested(&mut self, op: Op, digest: Hash256) -> Result<Receipt, EngineError> {
        debug_assert_eq!(digest, op.digest(), "digest of another op");
        self.apply_prehashed(op, digest, None)
    }

    /// [`Engine::apply`] with the op's canonical digest precomputed — by
    /// the caller ([`Engine::apply_digested`],
    /// [`Engine::apply_batch_digested`]) or by [`Engine::apply_batch`];
    /// the digest MUST be `op.digest()` or the block commitment diverges
    /// from replay. `prestage` optionally carries a `File_Add`'s
    /// precomputed pure half (validation, fees, geometry) — the pipelined
    /// batch path computes it concurrently with segment staging; `None`
    /// computes it inline through the identical pure function.
    fn apply_prehashed(
        &mut self,
        op: Op,
        op_digest: Hash256,
        prestage: Option<FileAddPrestage>,
    ) -> Result<Receipt, EngineError> {
        let at = self.now();
        let result = self.dispatch(&op, prestage);
        let receipt_digest = match &result {
            Ok(receipt) => receipt.digest(),
            Err(err) => Receipt::error_digest(err),
        };
        self.chain.log_op(op_digest, receipt_digest);
        self.op_log.push(OpRecord {
            seq: self.ops_applied,
            at,
            op,
            ok: result.is_ok(),
        });
        self.ops_applied += 1;
        result
    }

    fn dispatch(
        &mut self,
        op: &Op,
        prestage: Option<FileAddPrestage>,
    ) -> Result<Receipt, EngineError> {
        match op {
            Op::SectorRegister { owner, capacity } => self
                .sector_register_op(*owner, *capacity)
                .map(|sector| Receipt::SectorRegistered { sector }),
            Op::SectorDisable { caller, sector } => self
                .sector_disable_op(*caller, *sector)
                .map(|()| Receipt::SectorDisabled { sector: *sector }),
            Op::FileAdd {
                client,
                size,
                value,
                merkle_root,
            } => {
                // One pure function computes the prestage on both paths:
                // pipelined batches hand it in, sequential dispatch
                // computes it here — bit-identical by construction.
                let pre = prestage.unwrap_or_else(|| {
                    FileAddPrestage::compute(&self.params, &self.gas, *size, *value)
                });
                self.file_add_op(*client, *size, *value, *merkle_root, pre)
                    .map(|(file, cp)| Receipt::FileAdded { file, cp })
            }
            // The five shard-local ops share one staged executor with the
            // batch-ingest path (`engine/batch.rs`): sequential dispatch is
            // staging against live state plus an immediate commit.
            Op::FileConfirm { .. }
            | Op::FileProve { .. }
            | Op::FileGet { .. }
            | Op::FileDiscard { .. }
            | Op::ForceDiscard { .. } => self.apply_shard_local(op),
            Op::Fund { account, amount } => {
                self.ledger.mint(*account, *amount);
                Ok(Receipt::Balance {
                    account: *account,
                    balance: self.ledger.balance(*account),
                })
            }
            Op::Burn { account, amount } => {
                self.ledger
                    .burn(*account, *amount)
                    .map_err(|_| EngineError::InsufficientFunds)?;
                Ok(Receipt::Balance {
                    account: *account,
                    balance: self.ledger.balance(*account),
                })
            }
            Op::FailSector { sector } => {
                self.fail_sector_op(*sector);
                Ok(Receipt::Faulted { sector: *sector })
            }
            Op::CorruptSector { sector } => {
                self.corrupt_sector_op(*sector);
                Ok(Receipt::Faulted { sector: *sector })
            }
            Op::AdvanceTo { target } => {
                self.advance_to_op(*target);
                Ok(Receipt::TimeAdvanced {
                    now: self.now(),
                    height: self.chain.height(),
                })
            }
        }
    }

    /// Applies a whole block batch of ops through the pipelined ingest
    /// path, returning one result per op in submission order.
    ///
    /// The batch is split into segments of consecutive **shard-local** ops
    /// (`File_Confirm` / `File_Prove` / `File_Get` / `File_Discard` /
    /// `ForceDiscard`) separated by **barrier** ops (sector admin,
    /// `File_Add`, funds, fault injection, `AdvanceTo` — anything touching
    /// global state beyond the ledger). Segments of at least 64 ops on a
    /// multi-shard, multi-thread engine are *staged* concurrently — up to
    /// [`ProtocolParams::ingest_threads`] scoped workers, one shard's ops
    /// per overlay — and then *committed* sequentially in submission
    /// order; smaller segments and barriers go through [`Engine::apply`]
    /// directly.
    ///
    /// Consensus state after `apply_batch(ops)` is **bit-identical** to
    /// `for op in ops { engine.apply(op); }` at every
    /// `(shards, ingest_threads)` combination: same state root, same
    /// receipts, same block hashes, same op log (see DESIGN.md §10 and the
    /// randomized equivalence tests in `tests/batch_ingest.rs`).
    pub fn apply_batch(&mut self, ops: Vec<Op>) -> Vec<Result<Receipt, EngineError>> {
        self.apply_batch_with(ops, None)
    }

    /// [`Engine::apply_batch`] for a caller that already holds every op's
    /// canonical digest (`digests[i]` MUST be `ops[i].digest()`, checked in
    /// debug builds) — the batch form of [`Engine::apply_digested`].
    ///
    /// # Panics
    ///
    /// Panics if `digests.len() != ops.len()`.
    pub fn apply_batch_digested(
        &mut self,
        ops: Vec<Op>,
        digests: &[Hash256],
    ) -> Vec<Result<Receipt, EngineError>> {
        assert_eq!(digests.len(), ops.len(), "one digest per op");
        debug_assert!(
            ops.iter().zip(digests).all(|(op, d)| op.digest() == *d),
            "digest of another op"
        );
        self.apply_batch_with(ops, Some(digests))
    }

    fn apply_batch_with(
        &mut self,
        ops: Vec<Op>,
        digests: Option<&[Hash256]>,
    ) -> Vec<Result<Receipt, EngineError>> {
        // The segments' op digests are taken inside the staging workers,
        // and the barriers' `File_Add` prestages ride along in the same
        // pool runs.
        let mut results = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < ops.len() {
            // A (possibly empty) run of shard-local ops …
            let seg_start = i;
            while i < ops.len() && shard_local_file(&ops[i]).is_some() {
                i += 1;
            }
            let seg_end = i;
            // … followed by the (possibly empty) barrier run that ends it.
            let bar_start = i;
            while i < ops.len() && shard_local_file(&ops[i]).is_none() {
                i += 1;
            }
            let bar_end = i;
            // Staging the segment also prestages the upcoming barriers'
            // `File_Add` pure halves, concurrently with the shard workers.
            let mut prestages = self.commit_segment(
                &ops[seg_start..seg_end],
                digests.map(|d| &d[seg_start..seg_end]),
                &ops[bar_start..bar_end],
                &mut results,
            );
            for (k, op) in ops[bar_start..bar_end].iter().enumerate() {
                let digest = match digests {
                    Some(d) => d[bar_start + k],
                    None => op.digest(),
                };
                let pre = prestages.get_mut(k).and_then(Option::take);
                results.push(self.apply_prehashed(op.clone(), digest, pre));
            }
        }
        results
    }

    /// Drains one pipeline segment: stages it in parallel when large
    /// enough to pay for the fan-out, then commits in submission order.
    /// Ops whose staged ledger assumptions no longer hold — or that target
    /// a shard already invalidated this segment — re-execute sequentially,
    /// which preserves bit-identical semantics in every interleaving.
    ///
    /// Returns the prestaged pure halves of the `File_Add` ops among
    /// `upcoming_barriers` (computed inside the staging pool run, i.e.
    /// concurrently with the shard workers), one slot per barrier op;
    /// empty when the segment committed sequentially — the dispatcher then
    /// computes each prestage inline through the same pure function.
    ///
    /// `digests`, when given, holds the segment ops' canonical digests
    /// (nothing is hashed again); otherwise they are computed here.
    fn commit_segment(
        &mut self,
        segment: &[Op],
        digests: Option<&[Hash256]>,
        upcoming_barriers: &[Op],
        results: &mut Vec<Result<Receipt, EngineError>>,
    ) -> Vec<Option<FileAddPrestage>> {
        if segment.is_empty() && upcoming_barriers.is_empty() {
            return Vec::new();
        }
        if segment.len() < PARALLEL_FANOUT_MIN_ITEMS
            || self.params.ingest_threads <= 1
            || self.shards.shards.len() <= 1
        {
            for (i, op) in segment.iter().enumerate() {
                results.push(match digests {
                    Some(d) => self.apply_prehashed(op.clone(), d[i], None),
                    None => self.apply(op.clone()),
                });
            }
            return Vec::new();
        }
        let stage_start = Instant::now();
        let (staged, prestages) = self.stage_segment(segment, digests, upcoming_barriers);
        self.phase.stage_s += stage_start.elapsed().as_secs_f64();
        self.stats_global.batches_staged_parallel += 1;

        let commit_start = Instant::now();
        let mut dirty = vec![false; self.shards.shards.len()];
        let mut fell_back = false;
        for (op, staged_op) in segment.iter().zip(staged) {
            let file = shard_local_file(op).expect("segment holds shard-local ops");
            let shard_idx = self.shards.shard_of(file);
            if !dirty[shard_idx] && ledger_steps_match(&self.ledger, &staged_op.effects.ledger) {
                let at = self.now();
                let outcome = self.apply_effects(shard_idx, staged_op.effects);
                self.chain
                    .log_op(staged_op.op_digest, staged_op.receipt_digest);
                self.op_log.push(OpRecord {
                    seq: self.ops_applied,
                    at,
                    op: op.clone(),
                    ok: outcome.is_ok(),
                });
                self.ops_applied += 1;
                results.push(outcome);
            } else {
                // A same-segment op moved money past a threshold this op's
                // staging assumed; its overlay (and every later staged op
                // on this shard) is stale. Fall back to sequential apply.
                dirty[shard_idx] = true;
                fell_back = true;
                results.push(self.apply_prehashed(op.clone(), staged_op.op_digest, None));
            }
        }
        if fell_back {
            self.stats_global.batches_fell_back_sequential += 1;
        }
        self.phase.commit_s += commit_start.elapsed().as_secs_f64();
        prestages
    }

    /// The op log: every applied op in order, successes and failures
    /// alike. A [`SharedLog`]: clones of this engine share it by pointer.
    pub fn op_log(&self) -> &SharedLog<OpRecord> {
        &self.op_log
    }

    /// Rebuilds an engine by replaying an op log against fresh state. With
    /// the same `params`, the result matches the original engine exactly —
    /// same `state_root()`, same block hashes at every height (the replay
    /// determinism tests assert this over random workloads).
    ///
    /// # Errors
    ///
    /// Returns the first violated parameter constraint. Individual op
    /// failures are *expected* to recur (failed ops are logged too); in
    /// debug builds a divergence between logged and replayed outcomes
    /// panics.
    pub fn replay<'a>(
        params: ProtocolParams,
        log: impl IntoIterator<Item = &'a OpRecord>,
    ) -> Result<Engine, ParamError> {
        let mut engine = Engine::new(params)?;
        engine.replay_records(log);
        Ok(engine)
    }

    /// Bounds op-log growth: records a [`Checkpoint`] of the current
    /// state (height, time, state root, ops applied) and truncates the op
    /// log. `state_root()` is unchanged by checkpointing — it commits to
    /// [`Checkpoint::ops_applied`], not the log length — so checkpoints
    /// are invisible to consensus.
    ///
    /// The checkpointed version is persisted ([`Engine::state_roots`]): it
    /// is what a restart recovers to, with the post-checkpoint op log
    /// replayed on top.
    ///
    /// To later reconstruct state past the checkpoint, keep a clone of
    /// the engine (or a restored snapshot) from this moment and feed it
    /// to [`Engine::replay_from`] together with the post-checkpoint log.
    ///
    /// # Panics
    ///
    /// As [`Engine::state_roots`]: on backing-store write failure.
    pub fn checkpoint(&mut self) -> Checkpoint {
        let cp = Checkpoint {
            height: self.chain.height(),
            at: self.now(),
            state_root: self.state_roots().state_root,
            ops_applied: self.ops_applied,
        };
        self.op_log.clear();
        self.last_checkpoint = Some(cp.clone());
        cp
    }

    /// The most recent [`Engine::checkpoint`], if any.
    pub fn last_checkpoint(&self) -> Option<&Checkpoint> {
        self.last_checkpoint.as_ref()
    }

    /// Rebuilds an engine from a checkpoint base instead of genesis: clones
    /// `base` (an engine snapshot taken at the checkpoint), verifies it
    /// against the checkpoint commitment, and replays the post-checkpoint
    /// `log` suffix. With the suffix an engine logged after
    /// [`Engine::checkpoint`], the result matches that engine exactly —
    /// same `state_root()`, same chain head (the replay-from-checkpoint
    /// determinism test asserts this over random workloads).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidState`] when `base` does not match the
    /// checkpoint (wrong state root, height, or op count).
    pub fn replay_from<'a>(
        base: &Engine,
        checkpoint: &Checkpoint,
        log: impl IntoIterator<Item = &'a OpRecord>,
    ) -> Result<Engine, EngineError> {
        if base.state_root() != checkpoint.state_root
            || base.chain.height() != checkpoint.height
            || base.ops_applied != checkpoint.ops_applied
        {
            return Err(EngineError::InvalidState(
                "base engine does not match the checkpoint commitment",
            ));
        }
        let mut engine = base.clone();
        // Mirror the truncation the checkpointing engine performed, so the
        // rebuilt op log equals the original's post-checkpoint log.
        engine.op_log.clear();
        engine.last_checkpoint = Some(checkpoint.clone());
        engine.replay_records(log);
        Ok(engine)
    }

    fn replay_records<'a>(&mut self, log: impl IntoIterator<Item = &'a OpRecord>) {
        for record in log {
            let outcome = self.apply(record.op.clone());
            debug_assert_eq!(
                outcome.is_ok(),
                record.ok,
                "replay diverged at op #{} ({})",
                record.seq,
                record.op.kind()
            );
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current consensus time.
    pub fn now(&self) -> Time {
        self.chain.now()
    }

    /// The protocol parameters.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// The token ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The underlying chain.
    pub fn chain(&self) -> &BlockChain {
        &self.chain
    }

    /// Counters for tests and experiments: the merge of the engine's
    /// global (sector-attributable) counters with every shard's slice.
    /// The merged totals are identical at every shard count.
    pub fn stats(&self) -> EngineStats {
        let mut merged = self.stats_global.clone();
        for shard in &self.shards.shards {
            merged.merge(&shard.stats);
        }
        merged
    }

    /// The configured shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.shards.len()
    }

    // State reads — file / sector / alloc_entry / cr_accounting /
    // file_ids / sector_ids / events — live on the [`StateView`] impl,
    // the one read surface shared with the root-pinned historical reader.

    /// Scheduled `Auto_*` tasks across all shard wheels.
    pub fn pending_task_count(&self) -> usize {
        self.shards.pending_len()
    }

    /// Removes and returns the logged protocol events, leaving the log
    /// empty — the single consuming counterpart of the non-destructive
    /// [`StateView::events`] read.
    pub fn take_events(&mut self) -> Vec<ProtocolEvent> {
        std::mem::take(&mut self.events)
    }

    /// Sum of deposits currently pledged by live sectors.
    pub fn total_pledged_deposits(&self) -> TokenAmount {
        self.sectors.values().map(|s| s.deposit).sum()
    }

    /// The audit-root commitment: the canonical-order fold of every
    /// `Auto_CheckProof` verification digest (also folded into
    /// [`Engine::state_root`]). Identical across shard counts, ingest
    /// widths and commit strategies.
    pub fn audit_root(&self) -> Hash256 {
        self.audit_root
    }

    /// A Merkle commitment over the engine state, folded into sealed
    /// blocks: the scalar [`StateHeader`] fields plus the fold of the five
    /// state-map HAMT roots (files, alloc rows, discard reasons, sectors,
    /// DRep accounting) — a root you can prove membership against
    /// ([`Engine::prove_file`]) and read historical state through
    /// ([`Engine::pin_state`]).
    ///
    /// Every input is shard-count-invariant: the maps are committed at
    /// engine level (never per shard), their HAMT layout is canonical
    /// (history-independent), the audit root is folded in canonical commit
    /// order, and the counters follow global apply order. So engines
    /// differing only in `ProtocolParams::shards`, ingest width or store
    /// backend produce identical roots — asserted by the
    /// `(store × shards × threads)` differential matrix. Checkpoint
    /// truncation is likewise invisible: the root commits to the monotonic
    /// ops-applied counter, not the op log's length.
    ///
    /// Naming the root only hashes: nothing is written to the blockstore
    /// (so this cannot fail on store I/O). The calls that hand out a
    /// version to *read* — [`Engine::state_roots`] and everything built on
    /// it — persist it.
    pub fn state_root(&self) -> Hash256 {
        self.commit_state(false).state_root
    }

    /// The scalar fields [`Engine::state_root`] commits to alongside the
    /// map commitment (what a [`StateProof`] carries).
    pub fn state_header(&self) -> StateHeader {
        StateHeader {
            now: self.chain.now(),
            files_len: self.shards.files_len() as u64,
            sectors_len: self.sectors.len() as u64,
            total_supply: self.ledger.total_supply().0,
            op_counter: self.op_counter,
            ops_applied: self.ops_applied,
            task_seq: self.task_seq,
            audit_root: self.audit_root,
        }
    }

    /// The current per-map HAMT roots plus the resulting
    /// [`Engine::state_root`] — the base identity for
    /// [`Engine::snapshot_delta`] and the pin for [`PinnedState`].
    ///
    /// This is the call that **persists**: it puts into the blockstore
    /// every node reachable from the returned roots that the store does
    /// not hold yet, so the version can be pinned, proven and diffed.
    /// [`Engine::checkpoint`], [`Engine::pin_state`],
    /// [`Engine::prove_file`] and the delta-snapshot calls all come
    /// through here; versions nobody names this way are never written.
    ///
    /// # Panics
    ///
    /// Panics if the backing blockstore fails to persist HAMT nodes (disk
    /// I/O failure): a version that was promised readable is not.
    pub fn state_roots(&self) -> StateRoots {
        self.commit_state(true)
    }

    /// Syncs the state maps, seals them — persisting the version when
    /// `persist` — and folds the roots with the header.
    fn commit_state(&self, persist: bool) -> StateRoots {
        self.commit_state_locked(persist).0
    }

    /// [`Engine::commit_state`], handing back the commit lock with the
    /// roots: the tries under it are exactly the version the roots name,
    /// for the callers that go on to read it (pins, proofs, deltas).
    fn commit_state_locked(&self, persist: bool) -> (StateRoots, MutexGuard<'_, StateMaps>) {
        let mut maps = self.commit.lock();
        let map_roots = self.sync_commitment(&mut maps, persist);
        let state_root =
            statemap::fold_state_root(&self.state_header(), statemap::fold_maps_root(&map_roots));
        let roots = StateRoots {
            state_root,
            files: map_roots[0],
            alloc: map_roots[1],
            discard: map_roots[2],
            sectors: map_roots[3],
            cr: map_roots[4],
        };
        (roots, maps)
    }

    /// Drains every tracked map's dirty keys into the five state HAMTs,
    /// commits them — hash-only, or into the blockstore when `persist` —
    /// and returns the map roots in canonical fold order. Keys are applied
    /// in drain order — the HAMT layout is history-independent, so any
    /// order yields the same roots.
    ///
    /// The dirty top-level subtrees of the five tries are independent, so
    /// a large enough commit hashes them as one batch on the worker pool
    /// before the five root nodes are sealed here. Whether to is decided
    /// from the commit's own shape — the roots are the same either way.
    fn sync_commitment(&self, maps: &mut StateMaps, persist: bool) -> [Hash256; 5] {
        let store = self.store.as_ref();
        let mut dirty_keys = 0usize;
        // The engine's tries are built in memory and never unloaded, so
        // `set`/`delete` find every node resident and never read the store.
        // A node a live pin still shares is copied before it is written.
        let mut put = |trie: &mut Hamt, key: &[u8], leaf: Option<Vec<u8>>| {
            let ok = "state trie nodes are resident";
            match leaf {
                Some(bytes) => trie.set(store, key, &bytes).expect(ok),
                None => drop(trie.delete(store, key).expect(ok)),
            }
            dirty_keys += 1;
        };
        for shard in &self.shards.shards {
            for id in shard.files.take_dirty() {
                let leaf = shard.files.get(&id).map(statemap::enc_file);
                put(&mut maps.files, &statemap::key_file(id), leaf);
            }
            for (file, index) in shard.alloc.take_dirty() {
                let leaf = shard.alloc.get(&(file, index));
                let leaf = leaf.map(statemap::enc_alloc_entry);
                put(&mut maps.alloc, &statemap::key_alloc(file, index), leaf);
            }
            for id in shard.discard_reasons.take_dirty() {
                let leaf = shard.discard_reasons.get(&id);
                let leaf = leaf.map(|r| statemap::enc_reason(*r));
                put(&mut maps.discard, &statemap::key_file(id), leaf);
            }
        }
        for id in self.sectors.take_dirty() {
            let leaf = self.sectors.get(&id).map(statemap::enc_sector);
            put(&mut maps.sectors, &statemap::key_sector(id), leaf);
        }
        for id in self.cr.take_dirty() {
            let leaf = self.cr.get(&id).map(statemap::enc_cr);
            put(&mut maps.cr, &statemap::key_sector(id), leaf);
        }

        if dirty_keys >= COMMIT_FANOUT_MIN_DIRTY_KEYS && self.pool_width() >= 2 {
            let subtrees = maps.dirty_subtrees();
            if subtrees.len() >= 2 {
                let jobs: JobBatch<'_> = subtrees
                    .into_iter()
                    .map(|subtree| Box::new(move || subtree.commit()) as _)
                    .collect();
                self.pool().run(jobs);
            }
        }
        maps.seal(persist.then_some(store))
            .expect("state store write")
    }

    /// Replaces the gas fee schedule (e.g. [`GasSchedule::free`] for
    /// experiments isolating protocol money flows from gas noise).
    ///
    /// This is deployment configuration, not a transaction: it is not
    /// logged, so replays of an engine with a non-default schedule must
    /// set the same schedule before feeding the log.
    pub fn set_gas_schedule(&mut self, schedule: GasSchedule) {
        self.gas = schedule;
    }

    // ------------------------------------------------------------------
    // Time
    // ------------------------------------------------------------------

    /// Advances consensus time to `target`, executing every `Auto_*` task
    /// that falls due, in timestamp order.
    ///
    /// # Panics
    ///
    /// Panics if `target` is in the past.
    pub fn advance_to(&mut self, target: Time) {
        self.apply(Op::AdvanceTo { target })
            .expect("AdvanceTo is infallible");
    }

    /// Advances by one block interval.
    pub fn tick(&mut self) {
        self.advance_to(self.now() + self.params.block_interval);
    }

    pub(super) fn advance_to_op(&mut self, target: Time) {
        assert!(target >= self.now(), "time cannot rewind");
        while let Some(t) = self.shards.next_task_time() {
            if t > target {
                break;
            }
            self.advance_chain(t);
            self.run_due_bucket(t);
        }
        self.advance_chain(target);
    }

    /// Moves chain time to `t`. Only a sealed block folds the state root
    /// in, so an advance inside the open block's interval computes none.
    fn advance_chain(&mut self, t: Time) {
        let root = if self.chain.seals_block_by(t) {
            self.state_root()
        } else {
            Hash256::ZERO
        };
        self.chain.advance_time(t, root);
    }

    /// Executes every task due at `now` in two phases:
    ///
    /// 1. **verify** — the read-only `Auto_CheckProof` storage-proof
    ///    checks, computed per shard over its popped slice (each touches
    ///    only that shard's files/alloc rows), fanned out across the
    ///    persistent worker pool when the bucket is large enough to pay
    ///    for the dispatch;
    /// 2. **commit** — the per-shard slices merged back into global
    ///    `(time, schedule-seq)` order — exactly the order a single
    ///    unsharded wheel pops — and applied in that order: large buckets
    ///    on multi-shard engines go through the batched commit path
    ///    (per-shard write batches planned on the pool, applied with
    ///    validated fast paths; see `audit.rs`), everything else through
    ///    the sequential reference fold. Audit digests fold into
    ///    `audit_root`, then punishments, rent, refreshes and reschedules
    ///    run as in the unsharded engine.
    ///
    /// Both phases are deterministic and shard-count-invariant (the
    /// commit-strategy gate reads only consensus state, never the host's
    /// core count), so the resulting state is bit-identical for any
    /// `ProtocolParams::shards` and either commit strategy.
    fn run_due_bucket(&mut self, now: Time) {
        let slices = self.shards.pop_due(now);
        let verify_start = Instant::now();
        let audits = self.verify_bucket(&slices, now);
        self.phase.verify_s += verify_start.elapsed().as_secs_f64();

        let mut batch: Vec<(Time, u64, Task, Option<ProofAudit>)> = Vec::new();
        for (slice, shard_audits) in slices.into_iter().zip(audits) {
            for ((time, (seq, task)), audit) in slice.into_iter().zip(shard_audits) {
                batch.push((time, seq, task, audit));
            }
        }
        batch.sort_by_key(|&(time, seq, _, _)| (time, seq));

        let fold_start = Instant::now();
        let check_proofs = batch
            .iter()
            .filter(|(_, _, task, _)| matches!(task, Task::CheckProof(_)))
            .count();
        if self.shards.shards.len() > 1 && check_proofs >= PARALLEL_FANOUT_MIN_ITEMS {
            self.commit_bucket_batched(now, batch);
            self.stats_global.audit_commit_batches += 1;
        } else {
            for (_, _, task, audit) in batch {
                self.execute(task, audit);
            }
        }
        self.phase.fold_s += fold_start.elapsed().as_secs_f64();
    }

    fn execute(&mut self, task: Task, audit: Option<ProofAudit>) {
        match task {
            Task::CheckAlloc(f) => self.auto_check_alloc(f),
            Task::CheckProof(f) => self.auto_check_proof(f, audit),
            Task::CheckRefresh(f, i) => self.auto_check_refresh(f, i),
            Task::DistributeRent => self.auto_distribute_rent(),
        }
        self.op_counter += 1;
    }

    // ------------------------------------------------------------------
    // Shared internals
    // ------------------------------------------------------------------

    /// The engine's persistent worker pool, spawned on first use and
    /// shared across engine clones. Sized to the larger of the host's
    /// available parallelism and the configured ingest width, so neither
    /// the staging nor the audit fan-out ever starves for workers.
    pub(super) fn pool(&self) -> Arc<WorkerPool> {
        self.pool.get(self.pool_width())
    }

    /// The worker count [`Engine::pool`] spawns with — known without
    /// spawning, so a phase can tell whether fanning out could help.
    fn pool_width(&self) -> usize {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        cores.max(self.params.ingest_threads)
    }

    /// Cumulative wall-time spent in each engine phase since construction
    /// (or the last [`Engine::reset_phase_times`]). Observability only:
    /// not consensus state, not snapshotted, not compared by replay.
    pub fn phase_times(&self) -> PhaseTimes {
        self.phase
    }

    /// Zeroes the per-phase wall-time accumulators.
    pub fn reset_phase_times(&mut self) {
        self.phase = PhaseTimes::default();
    }

    /// Schedules an `Auto_*` task on its shard's wheel, tagging it with
    /// the global schedule sequence number that later reconstructs the
    /// canonical commit order.
    pub(super) fn schedule_task(&mut self, time: Time, task: Task) {
        let seq = self.task_seq;
        self.task_seq += 1;
        self.shards.schedule(seq, time, task);
    }

    pub(super) fn rent_period(&self) -> Time {
        self.params.proof_cycle * self.params.rent_period_cycles as Time
    }

    pub(super) fn log(&mut self, event: ProtocolEvent) {
        self.chain
            .log(ChainEvent::new(event.kind(), event.encode()));
        self.events.push(event);
        self.op_counter += 1;
    }

    pub(super) fn charge_gas(
        &mut self,
        account: AccountId,
        ops: &[GasOp],
    ) -> Result<(), EngineError> {
        let gas: u64 = ops.iter().map(|&op| self.gas.price(op)).sum();
        let fee = self.gas.to_tokens(gas);
        self.ledger
            .burn(account, fee)
            .map_err(|_| EngineError::InsufficientFunds)
    }
}

/// The blockstore [`Engine::new`] uses: in-memory, unless
/// `FI_TEST_STORE=disk` selects one process-shared disk log in the temp
/// directory (the CI store axis; content addressing makes sharing one log
/// across every engine in the process harmless). Unusable values — or a
/// disk log that fails to open — fall back to memory, mirroring how
/// `FI_TEST_SHARDS` treats bad input.
fn default_store() -> Arc<dyn Blockstore> {
    static DISK: OnceLock<Option<Arc<DiskBlockstore>>> = OnceLock::new();
    let want_disk = std::env::var("FI_TEST_STORE").is_ok_and(|v| v.trim() == "disk");
    if want_disk {
        let shared = DISK.get_or_init(|| {
            let path = std::env::temp_dir().join(format!("fi-state-{}.log", std::process::id()));
            DiskBlockstore::open(path).ok().map(Arc::new)
        });
        if let Some(store) = shared {
            return Arc::clone(store) as Arc<dyn Blockstore>;
        }
    }
    Arc::new(MemoryBlockstore::new())
}
