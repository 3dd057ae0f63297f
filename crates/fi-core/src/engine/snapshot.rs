//! Durable engine snapshots: a versioned, self-hashed, deterministic byte
//! encoding of the full consensus state.
//!
//! [`Engine::snapshot_save`] serializes everything a node needs to resume
//! consensus from this exact moment: parameters, the chain head (height,
//! head hash, the open block's events and op batch — the beacon re-derives
//! from the seed), the ledger, every shard's files / allocation rows /
//! discard reasons / pending tasks / stats, the sector tables, the
//! capacity sampler's exact slot layout, the protocol rng's mid-stream
//! state, and the global counters the state root commits to.
//! [`Engine::snapshot_restore`] rebuilds a live engine from those bytes;
//! together with [`Engine::replay_from`] this replaces the "keep a live
//! clone at the checkpoint" pattern with bytes on disk (DESIGN.md §10).
//!
//! Two things are deliberately **not** part of a snapshot:
//!
//! * history — the truncated op log and sealed block bodies (a restored
//!   chain's [`fi_chain::BlockChain::blocks`] holds only post-restore
//!   seals, verified against the restored head); snapshots capture state,
//!   checkpointed op logs capture history;
//! * deployment configuration — the gas schedule (like
//!   [`Engine::replay`], restoring an engine that ran a non-default
//!   schedule requires setting the same schedule afterwards) and the
//!   drained [`Engine::events`] accessor log.
//!
//! Wire format (all integers big-endian):
//!
//! ```text
//! magic   8 bytes  b"FISNAPSH"
//! version u16      currently 4 (1 predates the PR 5 node/mempool params,
//!                  2 predates the PR 6 tombstone-retention param,
//!                  3 predates the PR 8 audit-batch stats)
//! payload ...      field-by-field engine state (see encode())
//! hash    32 bytes sha256 over magic ‖ version ‖ payload
//! ```
//!
//! The trailing self-hash makes corruption detection unconditional:
//! truncation, bit flips and trailing garbage all surface as typed
//! [`SnapshotError`]s before any field is interpreted.
//!
//! ## Incremental snapshots (`FIDELTA1`)
//!
//! [`Engine::snapshot_delta`] writes a second format under the same
//! envelope discipline (`b"FIDELTA1"`, version, self-hash): the base and
//! new `state_root`s, the five new map roots, the full non-map sections
//! (identical byte language to FISNAPSH via shared helpers), and then —
//! instead of the five map tables — only the content-addressed HAMT
//! nodes *new since the base roots*. A holder of the base state applies
//! it with [`Engine::snapshot_restore_delta`], which verifies every
//! node block against its id and cross-checks the reassembled engine's
//! `state_root` against the recorded one (DESIGN.md §15).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use fi_chain::account::{AccountId, Ledger, TokenAmount};
use fi_chain::block::{BlockChain, ChainEvent};
use fi_chain::gas::GasSchedule;
use fi_chain::tasks::{SchedulerKind, Time};
use fi_crypto::{sha256, DetRng, DetRngState, Hash256};
use fi_store::{Hamt, StoreError};

use crate::params::{ParamError, ProtocolParams};
use crate::sampler::WeightedSampler;
use crate::types::{
    AllocEntry, AllocState, FileDescriptor, FileId, FileState, RemovalReason, Sector, SectorId,
    SectorState,
};

use crate::error::Error;

use super::shard::ShardedState;
use super::statemap::{self, CommitCell, StateRoots, TrackedMap};
use super::{Checkpoint, Engine, EngineStats, Task};

const MAGIC: &[u8; 8] = b"FISNAPSH";
const VERSION: u16 = 4;
/// Incremental-snapshot envelope: same self-hash discipline as FISNAPSH,
/// its own magic and version lineage.
const DELTA_MAGIC: &[u8; 8] = b"FIDELTA1";
const DELTA_VERSION: u16 = 1;
const HASH_LEN: usize = 32;

/// Typed failures of [`Engine::snapshot_restore`]. Corrupted or
/// incompatible bytes always surface as one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte string is shorter than the fixed envelope (magic, version,
    /// self-hash) or a field ran past the payload end.
    Truncated,
    /// The leading magic bytes are not a FileInsurer snapshot's.
    BadMagic,
    /// The self-hash does not match — the payload was corrupted in
    /// storage or transit.
    CorruptPayload,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion(u16),
    /// The envelope is intact but a decoded field violates a structural
    /// invariant (unknown enum tag, inconsistent table, …).
    Malformed(&'static str),
    /// The decoded protocol parameters fail validation.
    InvalidParams(ParamError),
    /// Well-formed payload followed by extra bytes.
    TrailingBytes,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot bytes truncated"),
            SnapshotError::BadMagic => write!(f, "not a FileInsurer snapshot (bad magic)"),
            SnapshotError::CorruptPayload => {
                write!(f, "snapshot self-hash mismatch (corrupted payload)")
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::InvalidParams(e) => write!(f, "snapshot parameters invalid: {e}"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot payload"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<ParamError> for SnapshotError {
    fn from(e: ParamError) -> Self {
        SnapshotError::InvalidParams(e)
    }
}

// ----------------------------------------------------------------------
// Byte codec
// ----------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc::with_header(MAGIC, VERSION)
    }

    fn with_header(magic: &[u8; 8], version: u16) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(magic);
        buf.extend_from_slice(&version.to_be_bytes());
        Enc { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn hash(&mut self, h: &Hash256) {
        self.buf.extend_from_slice(h.as_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Seals the snapshot: appends the self-hash over everything so far.
    fn finish(mut self) -> Vec<u8> {
        let digest = sha256(&self.buf);
        self.buf.extend_from_slice(digest.as_bytes());
        self.buf
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_be_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("boolean tag")),
        }
    }

    /// A length prefix used to size a following allocation: bounded by the
    /// bytes actually remaining so corrupt lengths cannot trigger huge
    /// allocations (each encoded element is at least one byte).
    fn len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        if n as usize > self.bytes.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        Ok(n as usize)
    }

    fn hash(&mut self) -> Result<Hash256, SnapshotError> {
        Ok(Hash256::from_bytes(self.take(32)?.try_into().unwrap()))
    }

    fn bytes_vec(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(SnapshotError::Malformed("option tag")),
        }
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ----------------------------------------------------------------------
// Field encoders
// ----------------------------------------------------------------------

fn enc_params(e: &mut Enc, p: &ProtocolParams) {
    e.u64(p.min_capacity);
    e.u128(p.min_value.0);
    e.u32(p.k);
    e.u64(p.cap_para);
    e.u64(p.gamma_deposit_ppm);
    e.u64(p.proof_cycle);
    e.u64(p.proof_due);
    e.u64(p.proof_deadline);
    e.f64(p.avg_refresh);
    e.u64(p.delay_per_size);
    e.u128(p.unit_rent.0);
    e.u128(p.traffic_fee_per_size.0);
    e.u128(p.gas_prepay_per_cycle.0);
    e.u32(p.rent_period_cycles);
    e.u64(p.size_limit);
    e.u64(p.punish_ppm);
    e.u32(p.collision_retry_limit);
    e.bool(p.poisson_rebalance);
    e.u64(p.seed);
    e.u64(p.block_interval);
    e.u8(match p.scheduler {
        SchedulerKind::Wheel => 0,
        SchedulerKind::BTree => 1,
    });
    e.usize(p.shards);
    e.u32(p.audit_path_len);
    e.usize(p.ingest_threads);
    e.usize(p.mempool_cap);
    e.u64(p.block_gas_limit);
    e.usize(p.block_ops_limit);
    e.u64(p.tombstone_retention_blocks);
}

fn dec_params(d: &mut Dec<'_>) -> Result<ProtocolParams, SnapshotError> {
    Ok(ProtocolParams {
        min_capacity: d.u64()?,
        min_value: TokenAmount(d.u128()?),
        k: d.u32()?,
        cap_para: d.u64()?,
        gamma_deposit_ppm: d.u64()?,
        proof_cycle: d.u64()?,
        proof_due: d.u64()?,
        proof_deadline: d.u64()?,
        avg_refresh: d.f64()?,
        delay_per_size: d.u64()?,
        unit_rent: TokenAmount(d.u128()?),
        traffic_fee_per_size: TokenAmount(d.u128()?),
        gas_prepay_per_cycle: TokenAmount(d.u128()?),
        rent_period_cycles: d.u32()?,
        size_limit: d.u64()?,
        punish_ppm: d.u64()?,
        collision_retry_limit: d.u32()?,
        poisson_rebalance: d.bool()?,
        seed: d.u64()?,
        block_interval: d.u64()?,
        scheduler: match d.u8()? {
            0 => SchedulerKind::Wheel,
            1 => SchedulerKind::BTree,
            _ => return Err(SnapshotError::Malformed("scheduler kind tag")),
        },
        shards: d.u64()? as usize,
        audit_path_len: d.u32()?,
        ingest_threads: d.u64()? as usize,
        mempool_cap: d.u64()? as usize,
        block_gas_limit: d.u64()?,
        block_ops_limit: d.u64()? as usize,
        tombstone_retention_blocks: d.u64()?,
    })
}

fn enc_stats(e: &mut Enc, s: &EngineStats) {
    e.u64(s.add_collisions);
    e.u64(s.refresh_collisions);
    e.u64(s.refreshes_started);
    e.u64(s.refreshes_completed);
    e.u64(s.proofs_accepted);
    e.u64(s.punishments);
    e.u64(s.sectors_corrupted);
    e.u64(s.files_lost);
    e.u128(s.value_lost.0);
    e.u128(s.compensation_paid.0);
    e.u128(s.compensation_shortfall.0);
    e.u64(s.proofs_audited);
    e.u64(s.batches_staged_parallel);
    e.u64(s.batches_fell_back_sequential);
    e.u64(s.audit_commit_batches);
}

fn dec_stats(d: &mut Dec<'_>) -> Result<EngineStats, SnapshotError> {
    Ok(EngineStats {
        add_collisions: d.u64()?,
        refresh_collisions: d.u64()?,
        refreshes_started: d.u64()?,
        refreshes_completed: d.u64()?,
        proofs_accepted: d.u64()?,
        punishments: d.u64()?,
        sectors_corrupted: d.u64()?,
        files_lost: d.u64()?,
        value_lost: TokenAmount(d.u128()?),
        compensation_paid: TokenAmount(d.u128()?),
        compensation_shortfall: TokenAmount(d.u128()?),
        proofs_audited: d.u64()?,
        batches_staged_parallel: d.u64()?,
        batches_fell_back_sequential: d.u64()?,
        audit_commit_batches: d.u64()?,
    })
}

fn enc_task(e: &mut Enc, task: &Task) {
    match task {
        Task::CheckAlloc(f) => {
            e.u8(0);
            e.u64(f.0);
        }
        Task::CheckProof(f) => {
            e.u8(1);
            e.u64(f.0);
        }
        Task::CheckRefresh(f, i) => {
            e.u8(2);
            e.u64(f.0);
            e.u32(*i);
        }
        Task::DistributeRent => e.u8(3),
    }
}

fn dec_task(d: &mut Dec<'_>) -> Result<Task, SnapshotError> {
    Ok(match d.u8()? {
        0 => Task::CheckAlloc(FileId(d.u64()?)),
        1 => Task::CheckProof(FileId(d.u64()?)),
        2 => Task::CheckRefresh(FileId(d.u64()?), d.u32()?),
        3 => Task::DistributeRent,
        _ => return Err(SnapshotError::Malformed("task tag")),
    })
}

// ----------------------------------------------------------------------
// Section helpers — shared by the full (FISNAPSH) and delta (FIDELTA1)
// formats. Each pair writes/reads exactly the bytes the full format
// always wrote, so extracting them keeps FISNAPSH byte-stable.
// ----------------------------------------------------------------------

/// Checks a snapshot envelope (magic, trailing self-hash, version) and
/// returns a decoder positioned at the start of the payload.
fn open_envelope<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u16,
) -> Result<Dec<'a>, SnapshotError> {
    if bytes.len() < magic.len() + 2 + HASH_LEN {
        return Err(SnapshotError::Truncated);
    }
    if &bytes[..magic.len()] != magic {
        return Err(SnapshotError::BadMagic);
    }
    let (body, tail) = bytes.split_at(bytes.len() - HASH_LEN);
    if sha256(body).as_bytes() != tail {
        return Err(SnapshotError::CorruptPayload);
    }
    let got = u16::from_be_bytes(bytes[8..10].try_into().unwrap());
    if got != version {
        return Err(SnapshotError::UnsupportedVersion(got));
    }
    Ok(Dec {
        bytes: &body[magic.len() + 2..],
        pos: 0,
    })
}

fn enc_chain(e: &mut Enc, chain: &BlockChain) {
    e.u64(chain.now());
    e.u64(chain.height());
    e.hash(&chain.head_hash());
    let open_events = chain.open_events();
    e.usize(open_events.len());
    for ev in open_events {
        e.bytes(ev.kind.as_bytes());
        e.bytes(&ev.payload);
    }
    let open_ops = chain.open_ops();
    e.usize(open_ops.len());
    for (op, receipt) in open_ops {
        e.hash(op);
        e.hash(receipt);
    }
}

fn dec_chain(d: &mut Dec<'_>, params: &ProtocolParams) -> Result<BlockChain, SnapshotError> {
    let now = d.u64()?;
    let height = d.u64()?;
    let head_hash = d.hash()?;
    // checked_mul, not saturating: a height whose sealed boundary
    // doesn't even fit Time is malformed regardless of `now`.
    let sealed_boundary =
        height
            .checked_mul(params.block_interval)
            .ok_or(SnapshotError::Malformed(
                "chain height overflows the time range",
            ))?;
    if now < sealed_boundary {
        return Err(SnapshotError::Malformed(
            "chain time precedes the last sealed boundary",
        ));
    }
    let n_events = d.len()?;
    let mut open_events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let kind = String::from_utf8(d.bytes_vec()?)
            .map_err(|_| SnapshotError::Malformed("event kind not UTF-8"))?;
        let payload = d.bytes_vec()?;
        open_events.push(ChainEvent::new(kind, payload));
    }
    let n_ops = d.len()?;
    let mut open_ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        open_ops.push((d.hash()?, d.hash()?));
    }
    Ok(BlockChain::restore(
        params.seed,
        params.block_interval,
        now,
        height,
        head_hash,
        open_events,
        open_ops,
    ))
}

fn enc_ledger(e: &mut Enc, ledger: &Ledger) {
    // Non-zero balances, canonical account order.
    let mut balances: Vec<(AccountId, TokenAmount)> = ledger.iter().collect();
    balances.sort_unstable_by_key(|(a, _)| *a);
    e.usize(balances.len());
    for (account, amount) in balances {
        e.u64(account.0);
        e.u128(amount.0);
    }
    e.u128(ledger.total_supply().0);
    e.u128(ledger.total_burned().0);
}

fn dec_ledger(d: &mut Dec<'_>) -> Result<Ledger, SnapshotError> {
    let n_balances = d.len()?;
    let mut balances = Vec::with_capacity(n_balances);
    for _ in 0..n_balances {
        balances.push((AccountId(d.u64()?), TokenAmount(d.u128()?)));
    }
    let total_supply = TokenAmount(d.u128()?);
    let total_burned = TokenAmount(d.u128()?);
    Ledger::restore(balances, total_supply, total_burned).map_err(SnapshotError::Malformed)
}

/// The global counters and commitments section.
struct Counters {
    next_file_id: u64,
    next_sector_id: u64,
    op_counter: u64,
    ops_applied: u64,
    task_seq: u64,
    audit_root: Hash256,
}

fn enc_counters(e: &mut Enc, engine: &Engine) {
    e.u64(engine.next_file_id);
    e.u64(engine.next_sector_id);
    e.u64(engine.op_counter);
    e.u64(engine.ops_applied);
    e.u64(engine.task_seq);
    e.hash(&engine.audit_root);
}

fn dec_counters(d: &mut Dec<'_>) -> Result<Counters, SnapshotError> {
    Ok(Counters {
        next_file_id: d.u64()?,
        next_sector_id: d.u64()?,
        op_counter: d.u64()?,
        ops_applied: d.u64()?,
        task_seq: d.u64()?,
        audit_root: d.hash()?,
    })
}

fn enc_all_stats(e: &mut Enc, global: &EngineStats, shards: &ShardedState) {
    // The global instance, then one per shard in shard order.
    enc_stats(e, global);
    e.usize(shards.shards.len());
    for shard in &shards.shards {
        enc_stats(e, &shard.stats);
    }
}

fn dec_all_stats(
    d: &mut Dec<'_>,
    expected_shards: usize,
) -> Result<(EngineStats, Vec<EngineStats>), SnapshotError> {
    let global = dec_stats(d)?;
    let n_shard_stats = d.len()?;
    if n_shard_stats != expected_shards {
        return Err(SnapshotError::Malformed(
            "per-shard stats count does not match the shard parameter",
        ));
    }
    let mut shard_stats = Vec::with_capacity(n_shard_stats);
    for _ in 0..n_shard_stats {
        shard_stats.push(dec_stats(d)?);
    }
    Ok((global, shard_stats))
}

fn enc_tasks(e: &mut Enc, shards: &ShardedState) {
    // Pending Auto_* tasks, canonically ordered by (time, seq). Tasks
    // are scheduled with a monotonic global sequence, so re-scheduling
    // in this order reproduces every wheel's pop order exactly.
    let mut tasks: Vec<(Time, u64, &Task)> = shards
        .shards
        .iter()
        .flat_map(|s| {
            s.pending
                .iter()
                .map(|(time, (seq, task))| (time, *seq, task))
        })
        .collect();
    tasks.sort_unstable_by_key(|&(time, seq, _)| (time, seq));
    e.usize(tasks.len());
    for (time, seq, task) in tasks {
        e.u64(time);
        e.u64(seq);
        enc_task(e, task);
    }
}

fn dec_tasks(
    d: &mut Dec<'_>,
    task_seq: u64,
    shards: &mut ShardedState,
) -> Result<(), SnapshotError> {
    let n_tasks = d.len()?;
    let mut last_key = None;
    for _ in 0..n_tasks {
        let time = d.u64()?;
        let seq = d.u64()?;
        if last_key.is_some_and(|k| k >= (time, seq)) {
            return Err(SnapshotError::Malformed("tasks out of canonical order"));
        }
        last_key = Some((time, seq));
        if seq >= task_seq {
            return Err(SnapshotError::Malformed("task seq above the seq counter"));
        }
        let task = dec_task(d)?;
        shards.schedule(seq, time, task);
    }
    Ok(())
}

fn enc_replicas(e: &mut Enc, sector_replicas: &HashMap<SectorId, BTreeSet<(FileId, u32)>>) {
    // Sorted; BTreeSet iterates sorted already.
    let mut replicas: Vec<(SectorId, &BTreeSet<(FileId, u32)>)> =
        sector_replicas.iter().map(|(id, set)| (*id, set)).collect();
    replicas.sort_unstable_by_key(|(id, _)| *id);
    e.usize(replicas.len());
    for (id, set) in replicas {
        e.u64(id.0);
        e.usize(set.len());
        for &(file, index) in set {
            e.u64(file.0);
            e.u32(index);
        }
    }
}

/// Decodes the replica index. Sector existence is checked by the caller
/// (the sector table may come from a different section or a state map).
type ReplicaIndex = HashMap<SectorId, BTreeSet<(FileId, u32)>>;

fn dec_replicas(d: &mut Dec<'_>) -> Result<ReplicaIndex, SnapshotError> {
    let n_replicas = d.len()?;
    let mut sector_replicas = HashMap::with_capacity(n_replicas);
    for _ in 0..n_replicas {
        let id = SectorId(d.u64()?);
        let n = d.len()?;
        let mut set = BTreeSet::new();
        for _ in 0..n {
            set.insert((FileId(d.u64()?), d.u32()?));
        }
        sector_replicas.insert(id, set);
    }
    Ok(sector_replicas)
}

fn enc_sampler(e: &mut Enc, sampler: &WeightedSampler<SectorId>) {
    // Exact slot layout (see WeightedSampler::snapshot_parts).
    let (slots, free_slots, tree_len) = sampler.snapshot_parts();
    e.usize(slots.len());
    for (key, weight) in slots {
        e.opt_u64(key.map(|s| s.0));
        e.u64(weight);
    }
    e.usize(free_slots.len());
    for slot in free_slots {
        e.usize(slot);
    }
    e.usize(tree_len);
}

fn dec_sampler(d: &mut Dec<'_>) -> Result<WeightedSampler<SectorId>, SnapshotError> {
    let n_slots = d.len()?;
    let mut slots = Vec::with_capacity(n_slots);
    for _ in 0..n_slots {
        let key = d.opt_u64()?.map(SectorId);
        let weight = d.u64()?;
        slots.push((key, weight));
    }
    let n_free = d.len()?;
    let mut free_slots = Vec::with_capacity(n_free);
    for _ in 0..n_free {
        free_slots.push(d.u64()? as usize);
    }
    let tree_len = d.u64()? as usize;
    if tree_len > n_slots.saturating_mul(4).max(2) {
        return Err(SnapshotError::Malformed("sampler tree oversized"));
    }
    WeightedSampler::from_parts(slots, free_slots, tree_len).map_err(SnapshotError::Malformed)
}

fn enc_rng(e: &mut Enc, rng: &DetRng) {
    // Protocol rng, mid-stream.
    let rng = rng.state();
    for w in rng.key {
        e.u32(w);
    }
    for w in rng.nonce {
        e.u32(w);
    }
    e.u32(rng.counter);
    e.buf.extend_from_slice(&rng.buf);
    e.u8(rng.offset);
    match rng.gauss_spare {
        Some(v) => {
            e.u8(1);
            e.f64(v);
        }
        None => e.u8(0),
    }
}

fn dec_rng(d: &mut Dec<'_>) -> Result<DetRng, SnapshotError> {
    let mut key = [0u32; 8];
    for w in &mut key {
        *w = d.u32()?;
    }
    let mut nonce = [0u32; 3];
    for w in &mut nonce {
        *w = d.u32()?;
    }
    let counter = d.u32()?;
    let buf: [u8; 64] = d
        .take(64)?
        .try_into()
        .expect("take returns exactly 64 bytes");
    let offset = d.u8()?;
    if offset > 64 {
        return Err(SnapshotError::Malformed("rng offset beyond its buffer"));
    }
    let gauss_spare = match d.u8()? {
        0 => None,
        1 => Some(d.f64()?),
        _ => return Err(SnapshotError::Malformed("rng spare tag")),
    };
    Ok(DetRng::from_state(DetRngState {
        key,
        nonce,
        counter,
        buf,
        offset,
        gauss_spare,
    }))
}

fn enc_checkpoint(e: &mut Enc, checkpoint: &Option<Checkpoint>) {
    match checkpoint {
        Some(cp) => {
            e.u8(1);
            e.u64(cp.height);
            e.u64(cp.at);
            e.hash(&cp.state_root);
            e.u64(cp.ops_applied);
        }
        None => e.u8(0),
    }
}

fn dec_checkpoint(d: &mut Dec<'_>) -> Result<Option<Checkpoint>, SnapshotError> {
    Ok(match d.u8()? {
        0 => None,
        1 => Some(Checkpoint {
            height: d.u64()?,
            at: d.u64()?,
            state_root: d.hash()?,
            ops_applied: d.u64()?,
        }),
        _ => return Err(SnapshotError::Malformed("checkpoint tag")),
    })
}

impl Engine {
    /// Serializes the engine's complete consensus state into the versioned,
    /// self-hashed snapshot format (see the module docs for what is and
    /// isn't included). The encoding is deterministic: equal engine states
    /// produce byte-identical snapshots, whatever the shard count or hash
    /// map iteration order.
    pub fn snapshot_save(&self) -> Vec<u8> {
        let mut e = Enc::new();

        enc_params(&mut e, &self.params);
        enc_chain(&mut e, &self.chain);
        enc_ledger(&mut e, &self.ledger);
        enc_counters(&mut e, self);
        enc_all_stats(&mut e, &self.stats_global, &self.shards);

        // Files (sorted by id; the shard routing re-derives on restore).
        let mut files: Vec<&FileDescriptor> = self
            .shards
            .shards
            .iter()
            .flat_map(|s| s.files.values())
            .collect();
        files.sort_unstable_by_key(|f| f.id);
        e.usize(files.len());
        for f in files {
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

        // Allocation table (sorted by (file, index)).
        let mut alloc: Vec<(&(FileId, u32), &AllocEntry)> = self.shards.alloc_iter().collect();
        alloc.sort_unstable_by_key(|(k, _)| **k);
        e.usize(alloc.len());
        for (&(file, index), entry) in alloc {
            e.u64(file.0);
            e.u32(index);
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

        // Discard reasons (sorted by file).
        let mut reasons: Vec<(FileId, RemovalReason)> = self
            .shards
            .shards
            .iter()
            .flat_map(|s| s.discard_reasons.iter().map(|(f, r)| (*f, *r)))
            .collect();
        reasons.sort_unstable_by_key(|(f, _)| *f);
        e.usize(reasons.len());
        for (file, reason) in reasons {
            e.u64(file.0);
            e.u8(match reason {
                RemovalReason::ClientDiscard => 0,
                RemovalReason::InsufficientFunds => 1,
                RemovalReason::UploadFailed => 2,
                RemovalReason::Lost => 3,
            });
        }

        enc_tasks(&mut e, &self.shards);

        // Sectors (sorted by id).
        let mut sectors: Vec<&Sector> = self.sectors.values().collect();
        sectors.sort_unstable_by_key(|s| s.id);
        e.usize(sectors.len());
        for s in sectors {
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

        // DRep accounting (sorted by sector id).
        type CrParts = (u64, u64, u64, u64, u64);
        let mut cr: Vec<(SectorId, CrParts)> = self
            .cr
            .iter()
            .map(|(id, acct)| (*id, acct.snapshot_parts()))
            .collect();
        cr.sort_unstable_by_key(|(id, _)| *id);
        e.usize(cr.len());
        for (id, (capacity, cr_size, file_bytes, regenerated, discarded)) in cr {
            e.u64(id.0);
            e.u64(capacity);
            e.u64(cr_size);
            e.u64(file_bytes);
            e.u64(regenerated);
            e.u64(discarded);
        }

        enc_replicas(&mut e, &self.sector_replicas);
        enc_sampler(&mut e, &self.sampler);
        enc_rng(&mut e, &self.rng);
        enc_checkpoint(&mut e, &self.last_checkpoint);

        e.finish()
    }

    /// Rebuilds an engine from [`Engine::snapshot_save`] bytes.
    ///
    /// The restored engine reproduces the saved engine's `state_root()`
    /// and — fed the same subsequent ops — every later receipt and block
    /// hash exactly (asserted by the snapshot durability tests). Its op
    /// log starts empty and its chain holds no pre-snapshot block bodies;
    /// pair snapshots with [`Engine::checkpoint`] /
    /// [`Engine::replay_from`] to reconstruct state past the snapshot
    /// point from a persisted log suffix.
    ///
    /// # Errors
    ///
    /// A typed [`SnapshotError`] for anything wrong with the bytes:
    /// truncation, foreign magic, bit flips (self-hash mismatch), a
    /// version this build doesn't read, malformed fields, or invalid
    /// parameters. Never panics on untrusted input.
    pub fn snapshot_restore(bytes: &[u8]) -> Result<Engine, SnapshotError> {
        let mut d = open_envelope(bytes, MAGIC, VERSION)?;

        let params = dec_params(&mut d)?;
        params.validate()?;
        let chain = dec_chain(&mut d, &params)?;
        let ledger = dec_ledger(&mut d)?;
        let counters = dec_counters(&mut d)?;
        let Counters {
            next_file_id,
            next_sector_id,
            op_counter,
            ops_applied,
            task_seq,
            audit_root,
        } = counters;
        let (stats_global, shard_stats) = dec_all_stats(&mut d, params.shards)?;

        let mut shards = ShardedState::new(params.shards, params.scheduler, params.block_interval);
        for (shard, stats) in shards.shards.iter_mut().zip(shard_stats) {
            shard.stats = stats;
        }

        // Files.
        let n_files = d.len()?;
        for _ in 0..n_files {
            let id = FileId(d.u64()?);
            let desc = FileDescriptor {
                id,
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
                    _ => return Err(SnapshotError::Malformed("file state tag")),
                },
            };
            if id.0 >= next_file_id {
                return Err(SnapshotError::Malformed("file id above the id counter"));
            }
            shards.insert_file(desc);
        }

        // Allocation table.
        let n_alloc = d.len()?;
        for _ in 0..n_alloc {
            let file = FileId(d.u64()?);
            let index = d.u32()?;
            let entry = AllocEntry {
                prev: d.opt_u64()?.map(SectorId),
                next: d.opt_u64()?.map(SectorId),
                last: d.opt_u64()?,
                state: match d.u8()? {
                    0 => AllocState::Alloc,
                    1 => AllocState::Confirm,
                    2 => AllocState::Normal,
                    3 => AllocState::Corrupted,
                    _ => return Err(SnapshotError::Malformed("alloc state tag")),
                },
            };
            if shards.file(file).is_none() {
                return Err(SnapshotError::Malformed("allocation row without a file"));
            }
            shards.insert_entry(file, index, entry);
        }

        // Discard reasons.
        let n_reasons = d.len()?;
        for _ in 0..n_reasons {
            let file = FileId(d.u64()?);
            let reason = match d.u8()? {
                0 => RemovalReason::ClientDiscard,
                1 => RemovalReason::InsufficientFunds,
                2 => RemovalReason::UploadFailed,
                3 => RemovalReason::Lost,
                _ => return Err(SnapshotError::Malformed("removal reason tag")),
            };
            shards.set_discard_reason(file, reason);
        }

        // Pending tasks (already in canonical (time, seq) order).
        dec_tasks(&mut d, task_seq, &mut shards)?;

        // Sectors.
        let n_sectors = d.len()?;
        // A TrackedMap insert marks the key dirty, so the first
        // state_root after restore rebuilds the full HAMT commitment
        // (canonical layout ⇒ roots identical to the snapshotted engine's).
        let mut sectors = TrackedMap::new();
        for _ in 0..n_sectors {
            let id = SectorId(d.u64()?);
            let sector = Sector {
                owner: AccountId(d.u64()?),
                id,
                capacity: d.u64()?,
                free_cap: d.u64()?,
                state: match d.u8()? {
                    0 => SectorState::Normal,
                    1 => SectorState::Disabled,
                    2 => SectorState::Corrupted,
                    _ => return Err(SnapshotError::Malformed("sector state tag")),
                },
                deposit: TokenAmount(d.u128()?),
                replica_count: d.u32()?,
                physically_failed: d.bool()?,
            };
            if id.0 >= next_sector_id {
                return Err(SnapshotError::Malformed("sector id above the id counter"));
            }
            if sector.free_cap > sector.capacity {
                return Err(SnapshotError::Malformed("sector free_cap above capacity"));
            }
            if sectors.insert(id, sector).is_some() {
                return Err(SnapshotError::Malformed("duplicate sector id"));
            }
        }

        // DRep accounting.
        let n_cr = d.len()?;
        let mut cr = TrackedMap::new();
        for _ in 0..n_cr {
            let id = SectorId(d.u64()?);
            let parts = (d.u64()?, d.u64()?, d.u64()?, d.u64()?, d.u64()?);
            let acct =
                crate::drep::CrAccounting::from_parts(parts).map_err(SnapshotError::Malformed)?;
            if !sectors.contains_key(&id) {
                return Err(SnapshotError::Malformed("CR accounting without a sector"));
            }
            cr.insert(id, acct);
        }

        // Sector replica index.
        let sector_replicas = dec_replicas(&mut d)?;
        for id in sector_replicas.keys() {
            if !sectors.contains_key(id) {
                return Err(SnapshotError::Malformed("replica index without a sector"));
            }
        }

        let sampler = dec_sampler(&mut d)?;
        let rng = dec_rng(&mut d)?;
        let last_checkpoint = dec_checkpoint(&mut d)?;

        if !d.done() {
            return Err(SnapshotError::TrailingBytes);
        }

        Ok(Engine {
            params,
            chain,
            ledger,
            gas: GasSchedule::default(),
            shards,
            sectors,
            cr,
            sector_replicas,
            sampler,
            rng,
            next_file_id,
            next_sector_id,
            events: Vec::new(),
            stats_global,
            op_counter,
            ops_applied,
            task_seq,
            audit_root,
            op_log: Default::default(),
            last_checkpoint,
            pool: super::pool::PoolHandle::new(),
            phase: super::PhaseTimes::default(),
            store: super::default_store(),
            commit: CommitCell::new(),
        })
    }

    /// Serializes an **incremental** snapshot against `base`: the full
    /// non-map state (chain, ledger, counters, stats, tasks, replica
    /// index, sampler, rng, checkpoint — these don't deduplicate well and
    /// are small), plus, for each of the five state maps, only the HAMT
    /// nodes that are new since the base roots
    /// ([`fi_store::Hamt::diff_new_nodes`]). A reader holding the base
    /// state can reconstruct the full new state:
    /// [`Engine::snapshot_restore_delta`].
    ///
    /// `base` is typically a previously returned [`Engine::state_roots`]
    /// of this engine (or of an engine sharing its blockstore — e.g. one
    /// restored from the matching full snapshot).
    ///
    /// Deterministic like [`Engine::snapshot_save`]: equal (state, base)
    /// pairs produce byte-identical deltas.
    ///
    /// # Errors
    ///
    /// [`variant@Error::Store`] when a base node the diff needs — one on a
    /// path that changed since `base` — is not in this engine's blockstore
    /// (an unrelated or pruned base), or on store I/O failure.
    ///
    /// # Panics
    ///
    /// As [`Engine::state_roots`]: on backing-store write failure while
    /// syncing the current commitment.
    pub fn snapshot_delta(&self, base: &StateRoots) -> Result<Vec<u8>, Error> {
        let (roots, maps) = self.commit_state_locked(true);
        let mut e = Enc::with_header(DELTA_MAGIC, DELTA_VERSION);

        // Identity: which base this delta applies to, and what it yields.
        e.hash(&base.state_root);
        e.hash(&roots.state_root);
        for root in roots.map_roots() {
            e.hash(&root);
        }

        // Full non-map sections, in FISNAPSH order.
        enc_params(&mut e, &self.params);
        enc_chain(&mut e, &self.chain);
        enc_ledger(&mut e, &self.ledger);
        enc_counters(&mut e, self);
        enc_all_stats(&mut e, &self.stats_global, &self.shards);
        enc_tasks(&mut e, &self.shards);
        enc_replicas(&mut e, &self.sector_replicas);
        enc_sampler(&mut e, &self.sampler);
        enc_rng(&mut e, &self.rng);
        enc_checkpoint(&mut e, &self.last_checkpoint);

        // Per-map node deltas: exactly the blocks a holder of the base
        // trees is missing. The new side is the live tries, in memory;
        // the base side is read from the store along the changed paths.
        let store = self.store.as_ref();
        for (new, base_root) in maps.tries().into_iter().zip(base.map_roots()) {
            let nodes = new.diff_new_nodes(store, &Hamt::load(base_root))?;
            e.usize(nodes.len());
            for (hash, bytes) in nodes {
                e.hash(&hash);
                e.bytes(&bytes);
            }
        }

        Ok(e.finish())
    }

    /// Rebuilds an engine from [`Engine::snapshot_delta`] bytes plus the
    /// `base` engine the delta was taken against.
    ///
    /// The delta's node blocks are verified (each must hash to its
    /// recorded block id) and added to the base's blockstore; the five
    /// state maps are then read back out of the trees at the delta's new
    /// roots, and the result is cross-checked end-to-end: the restored
    /// engine must reproduce the delta's recorded `state_root`
    /// bit-for-bit, or restore fails. `base + delta` is therefore
    /// equivalent to restoring a full snapshot of the new state —
    /// asserted by the state-commitment differential suite.
    ///
    /// The restored engine shares the base's blockstore (content
    /// addressing makes that harmless) but is otherwise independent.
    ///
    /// # Errors
    ///
    /// [`variant@Error::Snapshot`] for anything wrong with the bytes
    /// (truncation, magic, self-hash, version, malformed fields, a base
    /// root that doesn't match `base`, or a final state-root mismatch);
    /// [`variant@Error::Store`] when the combined store still can't resolve
    /// the new trees or a leaf fails to decode.
    ///
    /// # Panics
    ///
    /// As [`Engine::state_roots`]: on backing-store write failure while
    /// persisting the base's version, which the delta's nodes link into.
    pub fn snapshot_restore_delta(bytes: &[u8], base: &Engine) -> Result<Engine, Error> {
        let mut d = open_envelope(bytes, DELTA_MAGIC, DELTA_VERSION)?;

        let base_root = d.hash().map_err(Error::Snapshot)?;
        let base_roots = base.state_roots();
        if base_roots.state_root != base_root {
            return Err(SnapshotError::Malformed("delta base does not match this engine").into());
        }
        let new_state_root = d.hash().map_err(Error::Snapshot)?;
        let mut map_roots = [Hash256::from_bytes([0; 32]); 5];
        for root in &mut map_roots {
            *root = d.hash().map_err(Error::Snapshot)?;
        }

        // Non-map sections.
        let params = dec_params(&mut d).map_err(Error::Snapshot)?;
        params.validate().map_err(SnapshotError::from)?;
        let chain = dec_chain(&mut d, &params)?;
        let ledger = dec_ledger(&mut d)?;
        let counters = dec_counters(&mut d)?;
        let (stats_global, shard_stats) = dec_all_stats(&mut d, params.shards)?;
        let mut shards = ShardedState::new(params.shards, params.scheduler, params.block_interval);
        for (shard, stats) in shards.shards.iter_mut().zip(shard_stats) {
            shard.stats = stats;
        }
        dec_tasks(&mut d, counters.task_seq, &mut shards)?;
        let sector_replicas = dec_replicas(&mut d)?;
        let sampler = dec_sampler(&mut d)?;
        let rng = dec_rng(&mut d)?;
        let last_checkpoint = dec_checkpoint(&mut d)?;

        // Node blocks: verify each against its recorded id, then make it
        // resident. After this, the new trees are fully readable from the
        // shared store (base nodes + delta nodes).
        let store = Arc::clone(&base.store);
        for _ in 0..5 {
            let n_nodes = d.len()?;
            for _ in 0..n_nodes {
                let want = d.hash()?;
                let node = d.bytes_vec()?;
                if store.put(&node)? != want {
                    return Err(
                        SnapshotError::Malformed("delta node bytes mismatch their id").into(),
                    );
                }
            }
        }
        if !d.done() {
            return Err(SnapshotError::TrailingBytes.into());
        }

        // Read the five maps back out of the trees. TrackedMap inserts
        // mark every key dirty, so the restored engine's first
        // state_root rebuilds its own commitment from scratch — which the
        // final cross-check below then compares against the recorded root.
        let s = store.as_ref();
        type KvList = Vec<(Vec<u8>, Vec<u8>)>;
        let entries = |root: Hash256| -> Result<KvList, StoreError> {
            let mut kvs = Vec::new();
            Hamt::load(root).walk(s, &mut |k, v| kvs.push((k.to_vec(), v.to_vec())))?;
            Ok(kvs)
        };

        for (key, value) in entries(map_roots[0])? {
            let desc = statemap::dec_file(&value)?;
            if key != statemap::key_file(desc.id) {
                return Err(StoreError::Corrupt("file leaf under a foreign key").into());
            }
            if desc.id.0 >= counters.next_file_id {
                return Err(SnapshotError::Malformed("file id above the id counter").into());
            }
            shards.insert_file(desc);
        }
        for (key, value) in entries(map_roots[1])? {
            let entry = statemap::dec_alloc_entry(&value)?;
            let key: [u8; 12] = key
                .try_into()
                .map_err(|_| StoreError::Corrupt("alloc key width"))?;
            let file = FileId(u64::from_be_bytes(key[..8].try_into().expect("8B")));
            let index = u32::from_be_bytes(key[8..].try_into().expect("4B"));
            if shards.file(file).is_none() {
                return Err(SnapshotError::Malformed("allocation row without a file").into());
            }
            shards.insert_entry(file, index, entry);
        }
        for (key, value) in entries(map_roots[2])? {
            let reason = statemap::dec_reason(&value)?;
            let key: [u8; 8] = key
                .try_into()
                .map_err(|_| StoreError::Corrupt("discard key width"))?;
            shards.set_discard_reason(FileId(u64::from_be_bytes(key)), reason);
        }
        let mut sectors = TrackedMap::new();
        for (key, value) in entries(map_roots[3])? {
            let sector = statemap::dec_sector(&value)?;
            if key != statemap::key_sector(sector.id) {
                return Err(StoreError::Corrupt("sector leaf under a foreign key").into());
            }
            if sector.id.0 >= counters.next_sector_id {
                return Err(SnapshotError::Malformed("sector id above the id counter").into());
            }
            if sector.free_cap > sector.capacity {
                return Err(SnapshotError::Malformed("sector free_cap above capacity").into());
            }
            sectors.insert(sector.id, sector);
        }
        let mut cr = TrackedMap::new();
        for (key, value) in entries(map_roots[4])? {
            let acct = statemap::dec_cr(&value)?;
            let key: [u8; 8] = key
                .try_into()
                .map_err(|_| StoreError::Corrupt("cr key width"))?;
            let id = SectorId(u64::from_be_bytes(key));
            if !sectors.contains_key(&id) {
                return Err(SnapshotError::Malformed("CR accounting without a sector").into());
            }
            cr.insert(id, acct);
        }
        for id in sector_replicas.keys() {
            if !sectors.contains_key(id) {
                return Err(SnapshotError::Malformed("replica index without a sector").into());
            }
        }

        let engine = Engine {
            params,
            chain,
            ledger,
            gas: GasSchedule::default(),
            shards,
            sectors,
            cr,
            sector_replicas,
            sampler,
            rng,
            next_file_id: counters.next_file_id,
            next_sector_id: counters.next_sector_id,
            events: Vec::new(),
            stats_global,
            op_counter: counters.op_counter,
            ops_applied: counters.ops_applied,
            task_seq: counters.task_seq,
            audit_root: counters.audit_root,
            op_log: Default::default(),
            last_checkpoint,
            pool: super::pool::PoolHandle::new(),
            phase: super::PhaseTimes::default(),
            store,
            commit: CommitCell::new(),
        };

        // End-to-end commitment check: the reassembled engine must fold
        // to exactly the state root the delta promised.
        if engine.state_root() != new_state_root {
            return Err(SnapshotError::Malformed("restored state root mismatch").into());
        }
        Ok(engine)
    }
}
