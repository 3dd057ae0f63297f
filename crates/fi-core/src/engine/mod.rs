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
//!   checkpoints, and the engine's tables: the per-file rows (file
//!   descriptors, allocation rows, discard reasons), sectors, DRep
//!   accounting and the counters;
//! * `lifecycle` — client/provider requests (Figs. 4–6): add, confirm,
//!   prove, get, discard, sector admin, segmented uploads;
//! * `batch` — staged execution of the per-file ops of a block batch;
//! * `audit` — the `Auto_*` consensus tasks (Figs. 7–9): `CheckAlloc`,
//!   `CheckProof`, `Refresh`, `CheckRefresh`, rent distribution,
//!   punishment and confiscation, fault injection;
//! * `alloc` — allocation bookkeeping: weighted sampling with collision
//!   retry, reservations and rollback, sector draining, the §VI-B Poisson
//!   swap-in.
//!
//! `Auto_` tasks wait on the engine's one pending list, an epoch-bucketed
//! wheel ([`fi_chain::tasks::TaskWheel`]), and execute when
//! [`Engine::advance_to`] moves time past their deadline. A due bucket
//! pops in `(time, schedule order)` and runs in two phases: a read-only
//! **verify** phase (the modeled Merkle storage-proof checks of
//! `Auto_CheckProof`, fanned out on scoped threads by `pool::fan_out` —
//! audits are independent per (file, replica), the heart of the
//! paper's scalability claim) and a **commit** phase that applies rent,
//! punishments and refreshes one task at a time in pop order (see
//! DESIGN.md §9).
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
mod snapshot;
mod statemap;
mod view;

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, MutexGuard, OnceLock};
use std::time::Instant;

use fi_chain::account::{AccountId, Ledger, TokenAmount};
use fi_chain::block::{BlockChain, ChainEvent};
use fi_chain::gas::{GasSchedule, Op as GasOp};
use fi_chain::log::SharedLog;
use fi_chain::tasks::{Scheduler, Time};
use fi_crypto::{DetRng, Hash256};
use fi_store::{Blockstore, DiskBlockstore, Emit, Hamt, MemoryBlockstore, Merge};

use crate::codec::Enc;
use crate::drep::CrAccounting;
use crate::ops::{Op, OpRecord, Receipt};
use crate::params::{ParamError, ProtocolParams};
use crate::sampler::WeightedSampler;
use crate::segment::SegmentedFile;
use crate::types::{
    AllocEntry, FileDescriptor, FileId, ProtocolEvent, RemovalReason, Sector, SectorId,
};

use self::audit::ProofAudit;
use self::batch::{ledger_steps_match, shard_local_file};
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

/// Fewest dirty keys in one state commit worth fanning out. A key costs
/// one to three microseconds of node hashing, and on the 2-vCPU VMs this
/// is benchmarked on a scoped worker spawns and joins in about 25 µs
/// (p99 under 150 µs), so the spawn is not what the floor guards: commits
/// of 4 096 to 200 000 keys run 1.7x faster on two workers. The floor
/// guards tail latency. At a 128-key floor, `ingest_mix`'s block commits
/// of about 550 keys fanned out; over 8 alternating pairs its
/// `step_ms_p50` fell in all 8, but its median `step_ms_p95` rose from
/// 10.4 to 13.2 ms (+27 %). Below the floor a commit stays inline and
/// spawns no thread.
const COMMIT_FANOUT_MIN_DIRTY_KEYS: usize = 2048;

/// Fewest items (shard-local ops of an ingest segment, `Auto_CheckProof`
/// tasks of a due bucket) worth fanning out;
/// below it the work runs inline on the calling thread. The outcome is
/// bit-identical either way (`tests/parallel_commit.rs`,
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

impl Task {
    /// The file an `Auto_CheckProof` task audits; `None` for the others.
    pub(super) fn audited(&self) -> Option<FileId> {
        match self {
            Task::CheckProof(file) => Some(*file),
            _ => None,
        }
    }
}

/// A task tagged with its schedule sequence number: the order it was
/// scheduled in, which snapshots carry so a restore re-schedules in the
/// same order.
pub(super) type SeqTask = (u64, Task);

/// Counters exposed for experiments and tests, one instance per engine.
/// Its consensus counters ([`EngineStats::consensus`]) are the same at
/// every `ProtocolParams::shards` and ingest width.
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
    /// Always zero: every due audit bucket commits through the one
    /// sequential fold. The field stays because the `FISNAPSH` stats
    /// record carries it (an older snapshot may restore a non-zero
    /// count); it goes with the next format bump.
    pub audit_commit_batches: u64,
}

impl EngineStats {
    /// This stats object with the execution-strategy counters zeroed,
    /// leaving only the consensus-observable counters.
    ///
    /// The strategy counters (`batches_staged_parallel`,
    /// `batches_fell_back_sequential`) record *which ingest path* ran,
    /// and legitimately differ across `(shards, ingest_threads)`
    /// configurations and between op-by-op `apply` and `apply_batch` —
    /// while the state they produce is bit-identical. The retired
    /// `audit_commit_batches` is zeroed with them. Differential tests
    /// comparing engines across configurations compare
    /// `a.stats().consensus()`, not raw stats.
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
    /// Batch-ingest staging: concurrent execution over per-group overlays.
    pub stage_s: f64,
    /// Batch-ingest commit: in-order ledger revalidation and effect
    /// application (including sequential fallbacks).
    pub commit_s: f64,
    /// Audit verify: the read-only storage-proof checks of a due bucket.
    pub verify_s: f64,
    /// Audit commit: the canonical-order fold plus rent/punishment/
    /// reschedule application.
    pub fold_s: f64,
}

/// The FileInsurer consensus engine.
///
/// # Cloning
///
/// `Engine::clone` copies **live state** — the ledger, the tracked maps,
/// the sampler, the task wheel — and *shares* everything immutable: the
/// sealed blocks and the op log live in [`SharedLog`]s (a clone copies a
/// pointer and an open tail of fewer than 64 items), the blockstore, the
/// committed HAMT nodes sit behind `Arc`. A clone
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
    /// Live file descriptors. Like every table below, dirty-tracked: the
    /// keys touched since the last state commit feed its trie.
    files: TrackedMap<FileId, FileDescriptor>,
    /// Allocation table rows, keyed `(file, replica index)`.
    alloc: TrackedMap<(FileId, u32), AllocEntry>,
    /// Pending removal reasons of discarded files.
    discard_reasons: TrackedMap<FileId, RemovalReason>,
    /// The pending list of every scheduled `Auto_*` task (Fig. 1).
    pending: Scheduler<SeqTask>,
    sectors: TrackedMap<SectorId, Sector>,
    cr: TrackedMap<SectorId, CrAccounting>,
    /// `(file, index)` pairs touching each sector (as holder or as
    /// reservation target). Kept consistent with the alloc table.
    sector_replicas: HashMap<SectorId, BTreeSet<(FileId, u32)>>,
    sampler: WeightedSampler<SectorId>,
    rng: DetRng,
    next_file_id: u64,
    next_sector_id: u64,
    events: Vec<ProtocolEvent>,
    stats: EngineStats,
    op_counter: u64,
    /// Total ops ever applied — survives [`Engine::checkpoint`] op-log
    /// truncation, so it (not `op_log.len()`) feeds `seq` and the state
    /// root.
    ops_applied: u64,
    /// The schedule sequence number the next task gets (assigned in
    /// apply order).
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
            files: TrackedMap::new(),
            alloc: TrackedMap::new(),
            discard_reasons: TrackedMap::new(),
            pending: Scheduler::new(params.scheduler, params.block_interval),
            sectors: TrackedMap::new(),
            cr: TrackedMap::new(),
            sector_replicas: HashMap::new(),
            sampler: WeightedSampler::new(),
            rng,
            next_file_id: 0,
            next_sector_id: 0,
            events: Vec::new(),
            stats: EngineStats::default(),
            op_counter: 0,
            ops_applied: 0,
            task_seq: 0,
            audit_root: Hash256::ZERO,
            op_log: SharedLog::new(),
            last_checkpoint: None,
            phase: PhaseTimes::default(),
            store,
            commit: CommitCell::default(),
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
        self.apply_prehashed(op, op_digest)
    }

    /// [`Engine::apply`] with the op's canonical digest precomputed — by
    /// the caller ([`Engine::apply_batch_digested`]) or by
    /// [`Engine::apply_batch`]; the digest MUST be `op.digest()` or the
    /// block commitment diverges from replay.
    fn apply_prehashed(&mut self, op: Op, op_digest: Hash256) -> Result<Receipt, EngineError> {
        let at = self.now();
        let result = self.dispatch(&op);
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

    fn dispatch(&mut self, op: &Op) -> Result<Receipt, EngineError> {
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
            } => self
                .file_add_op(*client, *size, *value, *merkle_root)
                .map(|(file, cp)| Receipt::FileAdded { file, cp }),
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
    /// global state beyond the ledger). Segments of at least 64 ops, with
    /// the parallel paths on ([`ProtocolParams::shards`] and
    /// [`ProtocolParams::ingest_threads`] both above one), are *staged*
    /// concurrently on scoped threads — ops grouped by target file, one
    /// overlay per group — and then *committed* sequentially in
    /// submission order; smaller segments and barriers go through
    /// [`Engine::apply`] directly.
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
    /// debug builds). A node hashes every op of a block it is handed to
    /// identify the block, and must not pay for that hash again on replay.
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
        // The segments' op digests are taken inside the staging workers.
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
            self.commit_segment(
                &ops[seg_start..seg_end],
                digests.map(|d| &d[seg_start..seg_end]),
                &mut results,
            );
            for (k, op) in ops[bar_start..bar_end].iter().enumerate() {
                let digest = match digests {
                    Some(d) => d[bar_start + k],
                    None => op.digest(),
                };
                results.push(self.apply_prehashed(op.clone(), digest));
            }
        }
        results
    }

    /// Drains one pipeline segment: stages it in parallel when large
    /// enough to pay for the fan-out, then commits in submission order.
    /// Ops whose staged ledger assumptions no longer hold — or that target
    /// a file already invalidated this segment — re-execute sequentially,
    /// which preserves bit-identical semantics in every interleaving.
    ///
    /// `digests`, when given, holds the segment ops' canonical digests
    /// (nothing is hashed again); otherwise they are computed here.
    fn commit_segment(
        &mut self,
        segment: &[Op],
        digests: Option<&[Hash256]>,
        results: &mut Vec<Result<Receipt, EngineError>>,
    ) {
        if segment.len() < PARALLEL_FANOUT_MIN_ITEMS
            || self.params.ingest_threads <= 1
            || self.params.shards <= 1
        {
            for (i, op) in segment.iter().enumerate() {
                results.push(match digests {
                    Some(d) => self.apply_prehashed(op.clone(), d[i]),
                    None => self.apply(op.clone()),
                });
            }
            return;
        }
        let stage_start = Instant::now();
        let staged = self.stage_segment(segment, digests);
        self.phase.stage_s += stage_start.elapsed().as_secs_f64();
        self.stats.batches_staged_parallel += 1;

        let commit_start = Instant::now();
        // Files whose staged results went stale. A shard-local op reads
        // and writes only its own file's rows, so a fallback on one file
        // leaves every other file's staged results exact.
        let mut stale: HashSet<FileId> = HashSet::new();
        for (op, staged_op) in segment.iter().zip(staged) {
            let file = shard_local_file(op).expect("segment holds shard-local ops");
            let fresh = !stale.contains(&file);
            if fresh && ledger_steps_match(&self.ledger, &staged_op.effects.ledger) {
                let at = self.now();
                let outcome = self.apply_effects(staged_op.effects);
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
                // staging assumed; its staged writes (and every later
                // staged op on this file) are stale. Fall back to
                // sequential apply.
                stale.insert(file);
                results.push(self.apply_prehashed(op.clone(), staged_op.op_digest));
            }
        }
        if !stale.is_empty() {
            self.stats.batches_fell_back_sequential += 1;
        }
        self.phase.commit_s += commit_start.elapsed().as_secs_f64();
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

    /// Counters for tests and experiments.
    pub fn stats(&self) -> EngineStats {
        self.stats.clone()
    }

    // State reads — file / sector / alloc_entry / cr_accounting /
    // file_ids / sector_ids / events — live on the [`StateView`] impl,
    // the one read surface shared with the root-pinned historical reader.

    /// Scheduled `Auto_*` tasks.
    pub fn pending_task_count(&self) -> usize {
        self.pending.len()
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
    /// [`Engine::state_root`]). Identical across shard counts and
    /// ingest widths.
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
    /// Every input is independent of the execution strategy: the HAMT
    /// layout is canonical (history-independent), the audit root is folded
    /// in canonical commit order, and the counters follow global apply
    /// order. So engines differing only in `ProtocolParams::shards`,
    /// ingest width or store backend produce identical roots — asserted by
    /// the `(store × shards × threads)` differential matrix. Checkpoint
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
            files_len: self.files.len() as u64,
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

    /// Merges every tracked map's dirty keys into the five state HAMTs,
    /// commits them — hash-only, or into the blockstore when `persist` —
    /// and returns the map roots in canonical fold order.
    ///
    /// Only the drain of the dirty ids runs here. Reading and encoding
    /// the leaves, hashing the keys and merging them run inside the
    /// merges ([`Hamt::merge`]): one job per top-level group, run by one
    /// [`pool::run`] on scoped threads when the commit is large enough,
    /// and inline otherwise. Whether to is decided from the commit's own shape — the
    /// roots are the same either way. The engine's tries are built in
    /// memory and never unloaded, so a merge never reads the store; a node
    /// a live pin still shares is copied before it is written.
    fn sync_commitment(&self, maps: &mut StateMaps, persist: bool) -> [Hash256; 5] {
        use statemap::*;
        let store = self.store.as_ref();
        let (alloc_key, reason) = (|(f, i)| key_alloc(f, i), |r: &_| enc_reason(*r));
        let (files, alloc, discard) = (&self.files, &self.alloc, &self.discard_reasons);
        let (sectors, cr) = (&self.sectors, &self.cr);
        let mut merges = [
            merge_dirty(&mut maps.files, store, files, key_file, enc_file),
            merge_dirty(&mut maps.alloc, store, alloc, alloc_key, enc_alloc_entry),
            merge_dirty(&mut maps.discard, store, discard, key_file, reason),
            merge_dirty(&mut maps.sectors, store, sectors, key_sector, enc_sector),
            merge_dirty(&mut maps.cr, store, cr, key_sector, enc_cr),
        ];
        let dirty_keys: usize = merges.iter().flatten().map(Merge::changes).sum();
        let width = self.pool_for(dirty_keys >= COMMIT_FANOUT_MIN_DIRTY_KEYS);
        if width >= 2 {
            let jobs = merges.iter_mut().flatten().flat_map(Merge::jobs);
            pool::run(width, jobs.collect());
        }
        for merge in merges.into_iter().flatten() {
            merge.finish().expect("state trie nodes are resident");
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
        while let Some(t) = self.pending.next_time() {
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

    /// Executes every task due at `now`, in the order the pending list
    /// pops them — `(time, schedule-seq)` — in two phases:
    ///
    /// 1. **verify** — the read-only `Auto_CheckProof` storage-proof
    ///    checks, fanned out on scoped threads when the parallel paths are
    ///    on and the bucket is large enough to pay for the dispatch;
    /// 2. **commit** — every task through [`Engine::execute`], in pop
    ///    order, on the calling thread: audit digests fold into
    ///    `audit_root`, then punishments, rent, refreshes and reschedules
    ///    run.
    ///
    /// Only the verify phase fans out, and its verdicts come back in
    /// bucket order, so the resulting state is bit-identical for any
    /// `ProtocolParams::shards` and any host core count.
    fn run_due_bucket(&mut self, now: Time) {
        let bucket = self.pending.pop_due(now);
        let verify_start = Instant::now();
        let audits = self.verify_bucket(&bucket, now);
        self.phase.verify_s += verify_start.elapsed().as_secs_f64();

        let fold_start = Instant::now();
        let mut audits = audits.into_iter();
        for (_, (_, task)) in bucket {
            let audit = task
                .audited()
                .map(|_| audits.next().expect("one verdict per audit task"));
            self.execute(task, audit);
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

    /// The width a phase hands to [`pool::fan_out`] or [`pool::run`]: when
    /// the phase's own gate says `parallel`, the larger of the host's
    /// available parallelism and the configured ingest width, so neither
    /// the staging nor the audit fan-out ever starves for workers; 1, to
    /// run inline, otherwise.
    pub(super) fn pool_for(&self, parallel: bool) -> usize {
        if parallel {
            pool::cores().max(self.params.ingest_threads)
        } else {
            1
        }
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

    /// Schedules an `Auto_*` task on the pending list, tagged with its
    /// schedule sequence number.
    pub(super) fn schedule_task(&mut self, time: Time, task: Task) {
        let seq = self.task_seq;
        self.task_seq += 1;
        self.pending.schedule(time, (seq, task));
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

/// One map's share of a state commit: drains the dirty keys of `rows` and
/// starts merging them into `trie`, unless there are none. The merge's
/// jobs look each key's row up and encode it with `leaf`; a key whose row
/// is gone is deleted.
fn merge_dirty<'a, K, V, const N: usize>(
    trie: &'a mut Hamt,
    store: &'a dyn Blockstore,
    rows: &'a TrackedMap<K, V>,
    key: fn(K) -> [u8; N],
    leaf: fn(&V) -> Vec<u8>,
) -> Option<Merge<'a>>
where
    K: Eq + std::hash::Hash + Copy + Send + Sync + 'a,
    V: Send + Sync + 'a,
{
    let dirty = rows.take_dirty();
    let read = move |&id: &K, emit: &mut Emit<'_>| {
        emit(&key(id), rows.get(&id).map(leaf).as_deref());
    };
    let merge = (!dirty.is_empty()).then(|| trie.merge(store, dirty, read));
    merge.map(|merge| merge.expect("state trie nodes are resident"))
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
