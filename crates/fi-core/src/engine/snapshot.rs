//! Durable engine snapshots: a versioned, self-hashed, deterministic byte
//! encoding of the full consensus state.
//!
//! [`Engine::snapshot_save`] serializes everything a node needs to resume
//! consensus from this exact moment: parameters, the chain head (height,
//! head hash, the open block's events and op batch — the beacon re-derives
//! from the seed), the ledger, the stats, every file, allocation row and
//! discard reason, the pending tasks, the sector tables, the capacity
//! sampler's exact slot layout, the protocol rng's mid-stream state, and
//! the global counters the state root commits to.
//! [`Engine::snapshot_restore`] rebuilds a live engine from those bytes;
//! together with [`Engine::replay_from`] this replaces the "keep a live
//! clone at the checkpoint" pattern with bytes on disk (DESIGN.md §10).
//!
//! Two things are deliberately **not** part of a snapshot:
//!
//! * history — the truncated op log and the last sealed block's header
//!   (a restored chain's [`fi_chain::BlockChain::last_block`] is `None`
//!   until it seals); snapshots capture state, checkpointed op logs
//!   capture history;
//! * deployment configuration — the gas schedule (like
//!   [`Engine::replay`], restoring an engine that ran a non-default
//!   schedule requires setting the same schedule afterwards) and the
//!   drained [`Engine::events`] accessor log.
//!
//! Wire format (all integers big-endian):
//!
//! ```text
//! magic   8 bytes  b"FISNAPSH"
//! version u16      currently 6 (1 predates the node/mempool params,
//!                  2 the tombstone-retention param, 3 the audit-batch
//!                  stats; 4 carries the open block's event payloads and
//!                  op digests in the old `Debug`-text encoding; 5 one
//!                  stats record per shard after a global one)
//! payload ...      the sections, in the order `snapshot_save` writes them
//! hash    32 bytes sha256 over magic ‖ version ‖ payload
//! ```
//!
//! Every keyed section — the ledger, the five map tables, the pending
//! tasks, the replica index — is a row count and then its rows in
//! strictly ascending key order; a restore refuses a key out of order or
//! repeated. A map table's rows are the state tries' own bytes (the leaf
//! codecs of `statemap`): a file or sector row is its leaf, which opens
//! with its 8-byte key; an alloc, discard or CR row is key ‖ leaf. A
//! restore builds each trie from those slices as they stand.
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
//! node block against its id, patches a copy-on-write copy of the base
//! with the pairs the new nodes change, and checks the patched engine's
//! own `state_root` against the recorded one (DESIGN.md §15).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use fi_chain::account::{AccountId, Ledger, TokenAmount};
use fi_chain::block::{BlockChain, ChainEvent};
use fi_chain::gas::GasSchedule;
use fi_chain::tasks::{Scheduler, SchedulerKind};
use fi_crypto::{sha256, DetRng, DetRngState, Hash256};
use fi_store::{Blockstore, Hamt};

use crate::codec::{Dec, DecError, Enc};
use crate::drep::CrAccounting;
use crate::params::{ParamError, ProtocolParams};
use crate::sampler::WeightedSampler;
use crate::types::{AllocEntry, FileDescriptor, FileId, RemovalReason, Sector, SectorId};

use crate::error::Error;

use super::statemap::{self, CommitCell, StateMaps, StateRoots, TrackedMap};
use super::{Checkpoint, Engine, EngineStats, SeqTask, Task};

const MAGIC: &[u8; 8] = b"FISNAPSH";
const VERSION: u16 = 6;
/// Incremental-snapshot envelope: same self-hash discipline as FISNAPSH,
/// its own magic and version lineage (1 carried the open block in the
/// old `Debug`-text encoding, like FISNAPSH 4; 2 a stats record per
/// shard, like FISNAPSH 5).
const DELTA_MAGIC: &[u8; 8] = b"FIDELTA1";
const DELTA_VERSION: u16 = 3;
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

impl From<DecError> for SnapshotError {
    fn from(e: DecError) -> Self {
        match e {
            DecError::Truncated => SnapshotError::Truncated,
            DecError::Malformed(what) => SnapshotError::Malformed(what),
        }
    }
}

// ----------------------------------------------------------------------
// Envelope (fields go through the shared `codec::Enc` and `codec::Dec`)
// ----------------------------------------------------------------------

/// A writer positioned after a snapshot envelope's magic and version.
fn envelope(magic: &[u8; 8], version: u16) -> Enc {
    let mut e = Enc::with_capacity(4096);
    e.raw(magic);
    e.u16(version);
    e
}

/// Seals a snapshot: appends the self-hash over everything written.
fn seal(mut e: Enc) -> Vec<u8> {
    let digest = sha256(e.as_bytes());
    e.hash(&digest);
    e.into_bytes()
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
    Ok(Dec::new(&body[magic.len() + 2..]))
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
    let open_boundary = sealed_boundary.checked_add(params.block_interval);
    if now < sealed_boundary || open_boundary.is_some_and(|open| now > open) {
        return Err(SnapshotError::Malformed(
            "chain time outside the open block's interval",
        ));
    }
    let n_events = d.len()?;
    let mut open_events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let kind = String::from_utf8(d.bytes()?.to_vec())
            .map_err(|_| SnapshotError::Malformed("event kind not UTF-8"))?;
        open_events.push(ChainEvent::new(kind, d.bytes()?.to_vec()));
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
    put_sorted(e, ledger.iter().collect(), |e, account, amount| {
        e.u64(account.0);
        e.u128(amount.0);
    });
    e.u128(ledger.total_supply().0);
    e.u128(ledger.total_burned().0);
}

fn dec_ledger(d: &mut Dec<'_>) -> Result<Ledger, SnapshotError> {
    let balances = get_sorted(d, "ledger accounts out of order or duplicated", |d| {
        Ok((AccountId(d.u64()?), TokenAmount(d.u128()?)))
    })?;
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

impl Counters {
    /// The checks a file row passes in either restore: it sits under its
    /// own key, and the id counter has issued its id.
    fn check_file(&self, key: &[u8], desc: FileDescriptor) -> Result<FileDescriptor, DecError> {
        if key != statemap::key_file(desc.id) {
            return Err(DecError::Malformed("file leaf under a foreign key"));
        }
        if desc.id.0 >= self.next_file_id {
            return Err(DecError::Malformed("file id above the id counter"));
        }
        Ok(desc)
    }

    /// [`Counters::check_file`] for a sector row, whose free capacity
    /// must also fit in its capacity.
    fn check_sector(&self, key: &[u8], sector: Sector) -> Result<Sector, DecError> {
        if key != statemap::key_sector(sector.id) {
            return Err(DecError::Malformed("sector leaf under a foreign key"));
        }
        if sector.id.0 >= self.next_sector_id {
            return Err(DecError::Malformed("sector id above the id counter"));
        }
        if sector.free_cap > sector.capacity {
            return Err(DecError::Malformed("sector free_cap above capacity"));
        }
        Ok(sector)
    }
}

/// The checks across maps both restores make once every row is in:
/// each allocation row has its file, each sector exactly one CR row, each
/// replica set its sector, and each sector the sampler can draw a replica
/// set (a corrupted sector has left both).
fn check_links(engine: &Engine) -> Result<(), SnapshotError> {
    let (files, alloc, sectors, cr) = (&engine.files, &engine.alloc, &engine.sectors, &engine.cr);
    let (sector_replicas, sampler) = (&engine.sector_replicas, &engine.sampler);
    if alloc.keys().any(|(file, _)| !files.contains_key(file)) {
        return Err(SnapshotError::Malformed("allocation row without a file"));
    }
    if cr.keys().any(|id| !sectors.contains_key(id)) {
        return Err(SnapshotError::Malformed("CR accounting without a sector"));
    }
    if sectors.keys().any(|id| !cr.contains_key(id)) {
        return Err(SnapshotError::Malformed("sector without CR accounting"));
    }
    if sector_replicas.keys().any(|id| !sectors.contains_key(id)) {
        return Err(SnapshotError::Malformed("replica index without a sector"));
    }
    if sampler
        .iter()
        .any(|(id, weight)| weight > 0 && !sector_replicas.contains_key(id))
    {
        return Err(SnapshotError::Malformed(
            "sampled sector without a replica set",
        ));
    }
    Ok(())
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

fn enc_tasks(e: &mut Enc, pending: &Scheduler<SeqTask>) {
    // Pending Auto_* tasks, canonically ordered by (time, seq). Tasks
    // are scheduled with a monotonic sequence, so re-scheduling in this
    // order reproduces the pending list's pop order exactly.
    let tasks = pending
        .iter()
        .map(|(time, (seq, task))| ((time, *seq), task));
    put_sorted(e, tasks.collect(), |e, (time, seq), task| {
        e.u64(time);
        e.u64(seq);
        enc_task(e, task);
    });
}

/// The pending list `params` lays out, holding the section's tasks. A
/// task due before the chain's `now` would rewind the chain when it
/// runs, so none is.
fn dec_tasks(
    d: &mut Dec<'_>,
    params: &ProtocolParams,
    chain: &BlockChain,
    task_seq: u64,
) -> Result<Scheduler<SeqTask>, SnapshotError> {
    let tasks = get_sorted(d, "tasks out of canonical order", |d| {
        Ok(((d.u64()?, d.u64()?), dec_task(d)?))
    })?;
    let mut pending = Scheduler::new(params.scheduler, params.block_interval);
    for ((time, seq), task) in tasks {
        if seq >= task_seq {
            return Err(SnapshotError::Malformed("task seq above the seq counter"));
        }
        if time < chain.now() {
            return Err(SnapshotError::Malformed("task due before the chain's time"));
        }
        pending.schedule(time, (seq, task));
    }
    Ok(pending)
}

fn enc_replicas(e: &mut Enc, sector_replicas: &ReplicaIndex) {
    put_sorted(e, sector_replicas.iter().collect(), |e, id, set| {
        e.u64(id.0);
        // A BTreeSet iterates sorted.
        e.usize(set.len());
        for &(file, index) in set {
            e.u64(file.0);
            e.u32(index);
        }
    });
}

/// Decodes the replica index. Sector existence is checked by the caller
/// (the sector table may come from a different section or a state map).
type ReplicaIndex = HashMap<SectorId, BTreeSet<(FileId, u32)>>;

fn dec_replicas(d: &mut Dec<'_>) -> Result<ReplicaIndex, SnapshotError> {
    let index = get_sorted(d, "replica index out of order or duplicated", |d| {
        let id = SectorId(d.u64()?);
        let set = get_sorted(d, "replica set out of order or duplicated", |d| {
            Ok(((FileId(d.u64()?), d.u32()?), ()))
        })?;
        Ok((id, set.into_iter().map(|(pair, ())| pair).collect()))
    })?;
    Ok(index.into_iter().collect())
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
    e.raw(&rng.buf);
    e.u8(rng.offset);
    e.opt_u64(rng.gauss_spare.map(f64::to_bits));
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
    let buf = d.array::<64>()?;
    let offset = d.u8()?;
    if offset > 64 {
        return Err(SnapshotError::Malformed("rng offset beyond its buffer"));
    }
    let gauss_spare = d.opt_u64()?.map(f64::from_bits);
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

/// Writes a sorted section: the row count, then each row through `put`,
/// in ascending key order.
fn put_sorted<K: Ord + Copy, V>(e: &mut Enc, mut rows: Vec<(K, V)>, put: impl Fn(&mut Enc, K, V)) {
    rows.sort_unstable_by_key(|(key, _)| *key);
    e.usize(rows.len());
    for (key, value) in rows {
        put(e, key, value);
    }
}

/// Reads a section [`put_sorted`] wrote, each row through `row`. Keys
/// must strictly ascend — a repeated key would otherwise overwrite the
/// earlier entry without a trace; `what` names the section.
fn get_sorted<'a, K: Ord + Copy, V>(
    d: &mut Dec<'a>,
    what: &'static str,
    mut row: impl FnMut(&mut Dec<'a>) -> Result<(K, V), SnapshotError>,
) -> Result<Vec<(K, V)>, SnapshotError> {
    let n_rows = d.len()?;
    let mut rows: Vec<(K, V)> = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let (key, value) = row(d)?;
        if rows.last().is_some_and(|&(last, _)| last >= key) {
            return Err(SnapshotError::Malformed(what));
        }
        rows.push((key, value));
    }
    Ok(rows)
}

/// Reads one map table and returns the committed trie of its rows.
/// `row` decodes a row into the flat maps and returns its key and leaf,
/// both slices of the snapshot: no leaf is re-encoded.
fn table<'a>(
    d: &mut Dec<'a>,
    what: &'static str,
    row: impl FnMut(&mut Dec<'a>) -> Result<(&'a [u8], &'a [u8]), SnapshotError>,
) -> Result<Hamt, SnapshotError> {
    // The keys strictly ascend, so none repeats.
    let pairs = get_sorted(d, what, row)?;
    Hamt::from_pairs(pairs).map_err(|_| SnapshotError::Malformed("state map key repeated"))
}

/// Reads a delta's five per-map node lists, checks every block against
/// the id it was shipped under, and puts it into `store`.
fn put_delta_nodes(d: &mut Dec<'_>, store: &dyn Blockstore) -> Result<(), Error> {
    for _ in 0..5 {
        let n_nodes = d.len()?;
        for _ in 0..n_nodes {
            let want = d.hash()?;
            if store.put(d.bytes()?)? != want {
                return Err(SnapshotError::Malformed("delta node bytes mismatch their id").into());
            }
        }
    }
    Ok(())
}

/// An engine's five row tables.
#[derive(Default)]
struct Rows {
    files: TrackedMap<FileId, FileDescriptor>,
    alloc: TrackedMap<(FileId, u32), AllocEntry>,
    discard_reasons: TrackedMap<FileId, RemovalReason>,
    sectors: TrackedMap<SectorId, Sector>,
    cr: TrackedMap<SectorId, CrAccounting>,
}

/// The sections both formats carry besides the map rows, decoded.
struct Sections {
    params: ProtocolParams,
    chain: BlockChain,
    ledger: Ledger,
    counters: Counters,
    stats: EngineStats,
    pending: Scheduler<SeqTask>,
    sector_replicas: ReplicaIndex,
    sampler: WeightedSampler<SectorId>,
    rng: DetRng,
    last_checkpoint: Option<Checkpoint>,
}

impl Sections {
    /// Decodes the sections in the order both formats write them.
    /// `tables` reads what a format puts among them: it runs before the
    /// pending tasks (`before_tasks`) and after them.
    fn decode<'a>(
        d: &mut Dec<'a>,
        mut tables: impl FnMut(&mut Dec<'a>, &Counters, bool) -> Result<(), SnapshotError>,
    ) -> Result<Sections, SnapshotError> {
        let params = dec_params(d)?;
        params.validate()?;
        let chain = dec_chain(d, &params)?;
        let ledger = dec_ledger(d)?;
        let counters = dec_counters(d)?;
        let stats = dec_stats(d)?;
        tables(d, &counters, true)?;
        let pending = dec_tasks(d, &params, &chain, counters.task_seq)?;
        tables(d, &counters, false)?;
        Ok(Sections {
            params,
            chain,
            ledger,
            counters,
            stats,
            pending,
            sector_replicas: dec_replicas(d)?,
            sampler: dec_sampler(d)?,
            rng: dec_rng(d)?,
            last_checkpoint: dec_checkpoint(d)?,
        })
    }

    /// The engine of these sections, `rows` and their committed tries
    /// `maps`, on `store`, if it passes [`check_links`]. Gas schedule,
    /// event log, op log and phase times start fresh.
    fn into_engine(
        self,
        rows: Rows,
        store: Arc<dyn Blockstore>,
        maps: StateMaps,
    ) -> Result<Engine, SnapshotError> {
        let counters = &self.counters;
        let engine = Engine {
            params: self.params,
            chain: self.chain,
            ledger: self.ledger,
            gas: GasSchedule::default(),
            files: rows.files,
            alloc: rows.alloc,
            discard_reasons: rows.discard_reasons,
            pending: self.pending,
            sectors: rows.sectors,
            cr: rows.cr,
            sector_replicas: self.sector_replicas,
            sampler: self.sampler,
            rng: self.rng,
            next_file_id: counters.next_file_id,
            next_sector_id: counters.next_sector_id,
            events: Vec::new(),
            stats: self.stats,
            op_counter: counters.op_counter,
            ops_applied: counters.ops_applied,
            task_seq: counters.task_seq,
            audit_root: counters.audit_root,
            op_log: Default::default(),
            last_checkpoint: self.last_checkpoint,
            phase: super::PhaseTimes::default(),
            store,
            commit: CommitCell::with_maps(maps),
        };
        check_links(&engine)?;
        Ok(engine)
    }
}

impl Engine {
    /// Serializes the engine's complete consensus state into the versioned,
    /// self-hashed snapshot format (see the module docs for what is and
    /// isn't included). The encoding is deterministic: equal engine states
    /// produce byte-identical snapshots, whatever the hash map iteration
    /// order.
    pub fn snapshot_save(&self) -> Vec<u8> {
        let mut e = envelope(MAGIC, VERSION);

        enc_params(&mut e, &self.params);
        enc_chain(&mut e, &self.chain);
        enc_ledger(&mut e, &self.ledger);
        enc_counters(&mut e, self);
        enc_stats(&mut e, &self.stats);

        // The five map tables (module docs).
        put_sorted(&mut e, self.files.iter().collect(), |e, _, f| {
            statemap::put_file(e, f);
        });
        put_sorted(&mut e, self.alloc.iter().collect(), |e, key, entry| {
            e.raw(&statemap::key_alloc(key.0, key.1));
            statemap::put_alloc_entry(e, entry);
        });
        let reasons = self.discard_reasons.iter().collect();
        put_sorted(&mut e, reasons, |e, &file, &reason| {
            e.raw(&statemap::key_file(file));
            statemap::put_reason(e, reason);
        });
        enc_tasks(&mut e, &self.pending);
        put_sorted(&mut e, self.sectors.iter().collect(), |e, _, s| {
            statemap::put_sector(e, s);
        });
        put_sorted(&mut e, self.cr.iter().collect(), |e, &id, acct| {
            e.raw(&statemap::key_sector(id));
            statemap::put_cr(e, acct);
        });

        enc_replicas(&mut e, &self.sector_replicas);
        enc_sampler(&mut e, &self.sampler);
        enc_rng(&mut e, &self.rng);
        enc_checkpoint(&mut e, &self.last_checkpoint);

        seal(e)
    }

    /// Rebuilds an engine from [`Engine::snapshot_save`] bytes.
    ///
    /// The returned engine's commitment is already built: the five state
    /// tries are built bottom-up from the map tables as they are decoded
    /// ([`fi_store::Hamt::from_pairs`]), committed (hashed; nothing is
    /// written to its blockstore) and clean, so its first `state_root()`
    /// hashes nothing. The layout is canonical, so they are the tries the
    /// saved engine had, node for node.
    ///
    /// The restored engine reproduces the saved engine's `state_root()`
    /// and — fed the same subsequent ops — every later receipt and block
    /// hash exactly (asserted by the snapshot durability tests). Its op
    /// log starts empty and its chain holds no block header until it seals;
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

        // The five map tables: files, alloc and discard reasons before the
        // pending tasks, sectors and CR after. Each row goes into its flat
        // map clean, and its key and leaf into the pairs its map's trie is
        // built from, so the engine comes back committed with nothing
        // dirty. A file or sector row is its leaf, which opens with its
        // 8-byte key; an alloc, discard or CR row is key ‖ leaf.
        let (mut rows, mut maps) = (Rows::default(), StateMaps::default());
        let sections = Sections::decode(&mut d, |d, counters, before_tasks| {
            if before_tasks {
                maps.files = table(d, "file ids out of order or duplicated", |d| {
                    let (desc, leaf) = d.with_bytes(statemap::get_file)?;
                    let desc = counters.check_file(&leaf[..8], desc)?;
                    rows.files.insert_clean(desc.id, desc);
                    Ok((&leaf[..8], leaf))
                })?;
                maps.alloc = table(d, "allocation rows out of order or duplicated", |d| {
                    let key = d.take(12)?;
                    let (file, index) = statemap::dec_key_alloc(key)?;
                    let (entry, leaf) = d.with_bytes(statemap::get_alloc_entry)?;
                    rows.alloc.insert_clean((file, index), entry);
                    Ok((key, leaf))
                })?;
                maps.discard = table(d, "discard reasons out of order or duplicated", |d| {
                    let key = d.take(8)?;
                    let file = FileId(statemap::dec_key_id(key, "discard key width")?);
                    let (reason, leaf) = d.with_bytes(statemap::get_reason)?;
                    rows.discard_reasons.insert_clean(file, reason);
                    Ok((key, leaf))
                })?;
            } else {
                maps.sectors = table(d, "sector ids out of order or duplicated", |d| {
                    let (sector, leaf) = d.with_bytes(statemap::get_sector)?;
                    let sector = counters.check_sector(&leaf[..8], sector)?;
                    rows.sectors.insert_clean(sector.id, sector);
                    Ok((&leaf[..8], leaf))
                })?;
                maps.cr = table(d, "CR rows out of order or duplicated", |d| {
                    let key = d.take(8)?;
                    let id = SectorId(statemap::dec_key_id(key, "cr key width")?);
                    let (acct, leaf) = d.with_bytes(statemap::get_cr)?;
                    rows.cr.insert_clean(id, acct);
                    Ok((key, leaf))
                })?;
            }
            Ok(())
        })?;
        if !d.done() {
            return Err(SnapshotError::TrailingBytes);
        }
        sections.into_engine(rows, super::default_store(), maps)
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
        let mut e = envelope(DELTA_MAGIC, DELTA_VERSION);

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
        enc_stats(&mut e, &self.stats);
        enc_tasks(&mut e, &self.pending);
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

        Ok(seal(e))
    }

    /// Rebuilds an engine from [`Engine::snapshot_delta`] bytes plus the
    /// `base` engine the delta was taken against, for the cost of the
    /// change: the result *starts as the base* and is patched.
    ///
    /// It takes O(1) copy-on-write clones of the base's five committed
    /// tries and a copy of its flat file / alloc / discard / sector / CR
    /// rows, and
    /// everything else — parameters, chain, ledger, counters, stats,
    /// tasks, replica index, sampler, rng, checkpoint — from the delta;
    /// gas schedule, event log, op log and phase times start fresh, as
    /// after [`Engine::snapshot_restore`]. The delta's node blocks are
    /// verified (each must hash to its recorded id) and put into the
    /// base's blockstore; [`fi_store::Hamt::diff_keys`] then descends the
    /// delta's new roots against the base's tries, reading exactly the
    /// shipped nodes, and every changed, added or removed pair goes
    /// through the leaf decoders into the copied rows — which marks
    /// exactly those keys dirty.
    ///
    /// The end-to-end check is the restored engine's own `state_root()`:
    /// its ordinary incremental commit writes the dirty keys into the
    /// shared tries with `Hamt::merge`, so the tries it hashes
    /// are the canonical ones of its rows whatever shape the shipped
    /// nodes had, and that root — and each of the five map roots — must
    /// equal what the delta recorded, or restore fails. A delta that is
    /// truncated, mis-routed, non-canonical, short of a node or lying in
    /// a leaf cannot pass it, so `base + delta` is equivalent to
    /// restoring a full snapshot of the new state in every byte —
    /// asserted by the state-commitment differential suite.
    ///
    /// `base` is left as it was (its tries are shared, never written) and
    /// nothing of it is persisted: its root is learned by hashing alone,
    /// which for a base fresh from [`Engine::snapshot_restore`] — built
    /// committed — hashes nothing. The restored engine shares
    /// the base's blockstore (content addressing makes that harmless) but
    /// is otherwise independent.
    ///
    /// # Errors
    ///
    /// [`variant@Error::Snapshot`] for anything wrong with the bytes
    /// (truncation, magic, self-hash, version, malformed fields, a base
    /// root that doesn't match `base`, or a final root mismatch);
    /// [`variant@Error::Store`] when a node of a changed path is neither
    /// shipped nor in the store, is linked twice, or a leaf fails to
    /// decode.
    pub fn snapshot_restore_delta(bytes: &[u8], base: &Engine) -> Result<Engine, Error> {
        let mut d = open_envelope(bytes, DELTA_MAGIC, DELTA_VERSION)?;

        let base_root = d.hash()?;
        let (base_roots, base_maps) = base.commit_state_locked(false);
        if base_roots.state_root != base_root {
            return Err(SnapshotError::Malformed("delta base does not match this engine").into());
        }
        let maps = base_maps.clone();
        drop(base_maps);
        let new_state_root = d.hash()?;
        let mut map_roots = [Hash256::from_bytes([0; 32]); 5];
        for root in &mut map_roots {
            *root = d.hash()?;
        }

        // Non-map sections.
        let sections = Sections::decode(&mut d, |_, _, _| Ok(()))?;
        let counters = &sections.counters;

        // The new tries are the base's nodes plus the shipped ones.
        let store = Arc::clone(&base.store);
        put_delta_nodes(&mut d, store.as_ref())?;
        if !d.done() {
            return Err(SnapshotError::TrailingBytes.into());
        }

        // The map rows: the base's, then every pair the new tries say
        // differs. Only those keys are marked dirty, so the root check at
        // the end is an incremental commit over the shared tries.
        let mut rows = Rows {
            files: base.files.clone_clean(),
            alloc: base.alloc.clone_clean(),
            discard_reasons: base.discard_reasons.clone_clean(),
            sectors: base.sectors.clone_clean(),
            cr: base.cr.clone_clean(),
        };
        let changes =
            |map: usize| Hamt::load(map_roots[map]).diff_keys(store.as_ref(), maps.tries()[map]);

        for (key, leaf) in changes(0)? {
            let id = FileId(statemap::dec_key_id(&key, "file key width")?);
            let desc = match leaf {
                Some(leaf) => Some(counters.check_file(&key, statemap::dec_file(&leaf)?)?),
                None => None,
            };
            rows.files.set(id, desc);
        }
        for (key, leaf) in changes(1)? {
            let entry = leaf.map(|leaf| statemap::dec_alloc_entry(&leaf));
            rows.alloc
                .set(statemap::dec_key_alloc(&key)?, entry.transpose()?);
        }
        for (key, leaf) in changes(2)? {
            let file = FileId(statemap::dec_key_id(&key, "discard key width")?);
            let reason = leaf.map(|leaf| statemap::dec_reason(&leaf));
            rows.discard_reasons.set(file, reason.transpose()?);
        }
        for (key, leaf) in changes(3)? {
            let id = SectorId(statemap::dec_key_id(&key, "sector key width")?);
            let sector = match leaf {
                Some(leaf) => Some(counters.check_sector(&key, statemap::dec_sector(&leaf)?)?),
                None => None,
            };
            rows.sectors.set(id, sector);
        }
        for (key, leaf) in changes(4)? {
            let id = SectorId(statemap::dec_key_id(&key, "cr key width")?);
            rows.cr
                .set(id, leaf.map(|leaf| statemap::dec_cr(&leaf)).transpose()?);
        }
        let engine = sections.into_engine(rows, store, maps)?;

        // End-to-end commitment check: the patched engine's own commit —
        // canonical tries of its rows — must fold to exactly the roots the
        // delta promised.
        let roots = engine.commit_state(false);
        if roots.state_root != new_state_root || roots.map_roots() != map_roots {
            return Err(SnapshotError::Malformed("restored state root mismatch").into());
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_store::{MemoryBlockstore, StoreError};

    const CLIENT: AccountId = AccountId(900);
    const PROVIDER: AccountId = AccountId(700);

    fn add_confirmed(engine: &mut Engine, ids: std::ops::Range<u64>) {
        for i in ids {
            let root = sha256(&i.to_be_bytes());
            let min_value = engine.params().min_value;
            let file = engine.file_add(CLIENT, 1, min_value, root).expect("add");
            for (index, sector) in engine.pending_confirms(file) {
                engine
                    .file_confirm(PROVIDER, file, index, sector)
                    .expect("confirm");
            }
        }
    }

    /// An engine on a memory store of its own with six sectors, `files`
    /// confirmed files and one pending discard: a row in every table.
    /// Deterministic, so two calls build the same state on two stores.
    fn engine_with(files: u64) -> Engine {
        let params = ProtocolParams {
            k: 3,
            ..ProtocolParams::default()
        };
        let mut engine =
            Engine::new_with_store(params, Arc::new(MemoryBlockstore::new())).expect("params");
        engine.fund(CLIENT, TokenAmount(u128::MAX / 4));
        engine.fund(PROVIDER, TokenAmount(u128::MAX / 4));
        for _ in 0..6 {
            engine.sector_register(PROVIDER, 640_000).expect("register");
        }
        add_confirmed(&mut engine, 0..files);
        engine.file_discard(CLIENT, FileId(0)).expect("discard");
        engine
    }

    /// The keyed sections of a full snapshot, in payload order: each is a
    /// row count, then rows in strictly ascending key order.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Rows {
        Ledger,
        Files,
        Alloc,
        Discard,
        Sectors,
        Cr,
        Replicas,
        /// The pairs of the replica index's first sector.
        ReplicaSet,
    }

    /// Reads one row of `rows` through the shared decoders.
    fn skip_row(d: &mut Dec<'_>, rows: Rows) -> Result<(), DecError> {
        match rows {
            Rows::Ledger => {
                d.u64()?;
                d.u128()?;
            }
            Rows::Files => {
                statemap::get_file(d)?;
            }
            Rows::Alloc => {
                statemap::dec_key_alloc(d.take(12)?)?;
                statemap::get_alloc_entry(d)?;
            }
            Rows::Discard => {
                statemap::dec_key_id(d.take(8)?, "discard key")?;
                statemap::get_reason(d)?;
            }
            Rows::Sectors => {
                statemap::get_sector(d)?;
            }
            Rows::Cr => {
                statemap::dec_key_id(d.take(8)?, "cr key")?;
                statemap::get_cr(d)?;
            }
            Rows::Replicas => {
                d.u64()?;
                for _ in 0..d.len()? {
                    skip_row(d, Rows::ReplicaSet)?;
                }
            }
            Rows::ReplicaSet => {
                d.u64()?;
                d.u32()?;
            }
        }
        Ok(())
    }

    /// Reads a full snapshot's payload up to the row count of `rows`.
    fn skip_to(d: &mut Dec<'_>, rows: Rows) {
        let params = dec_params(d).expect("params");
        let chain = dec_chain(d, &params).expect("chain");
        if rows == Rows::Ledger {
            return;
        }
        dec_ledger(d).expect("ledger");
        let counters = dec_counters(d).expect("counters");
        dec_stats(d).expect("stats");
        for table in [
            Rows::Files,
            Rows::Alloc,
            Rows::Discard,
            Rows::Sectors,
            Rows::Cr,
        ] {
            if table == rows {
                return;
            }
            for _ in 0..d.len().expect("row count") {
                skip_row(d, table).expect("row");
            }
            if table == Rows::Discard {
                dec_tasks(d, &params, &chain, counters.task_seq).expect("tasks");
            }
        }
        if rows == Rows::ReplicaSet {
            d.len().expect("sector count");
            d.u64().expect("first sector");
        }
    }

    /// `snapshot` re-sealed with its first row of `rows` repeated `times`
    /// times (0 drops it) and the row count changed to match.
    fn with_first_row(snapshot: &[u8], rows: Rows, times: usize) -> Vec<u8> {
        let body = &snapshot[..snapshot.len() - HASH_LEN];
        let (head, payload) = body.split_at(MAGIC.len() + 2);
        let mut d = Dec::new(payload);
        let ((), before) = d
            .with_bytes(|d| {
                skip_to(d, rows);
                Ok::<_, DecError>(())
            })
            .unwrap();
        let n = d.len().expect("row count");
        assert!(n >= 1, "{rows:?} is empty");
        let ((), row) = d.with_bytes(|d| skip_row(d, rows)).expect("first row");

        let mut out = [head, before].concat();
        out.extend_from_slice(&((n + times - 1) as u64).to_be_bytes());
        out.extend_from_slice(&row.repeat(times));
        out.extend_from_slice(&payload[before.len() + 8 + row.len()..]);
        let seal = sha256(&out);
        out.extend_from_slice(seal.as_bytes());
        out
    }

    /// `snapshot` re-sealed with the first row of `rows` written twice and
    /// the row count raised to match.
    fn with_first_row_twice(snapshot: &[u8], rows: Rows) -> Vec<u8> {
        with_first_row(snapshot, rows, 2)
    }

    /// `snapshot` re-sealed without the first row of `rows` and the row
    /// count lowered to match.
    fn without_first_row(snapshot: &[u8], rows: Rows) -> Vec<u8> {
        with_first_row(snapshot, rows, 0)
    }

    #[test]
    fn restore_rejects_a_repeated_row_in_every_table() {
        let snapshot = engine_with(12).snapshot_save();
        Engine::snapshot_restore(&snapshot).expect("the honest snapshot restores");
        let cases = [
            (Rows::Ledger, "ledger accounts out of order or duplicated"),
            (Rows::Files, "file ids out of order or duplicated"),
            (Rows::Alloc, "allocation rows out of order or duplicated"),
            (Rows::Discard, "discard reasons out of order or duplicated"),
            (Rows::Sectors, "sector ids out of order or duplicated"),
            (Rows::Cr, "CR rows out of order or duplicated"),
            (Rows::Replicas, "replica index out of order or duplicated"),
            (Rows::ReplicaSet, "replica set out of order or duplicated"),
        ];
        for (rows, what) in cases {
            assert_eq!(
                Engine::snapshot_restore(&with_first_row_twice(&snapshot, rows)).err(),
                Some(SnapshotError::Malformed(what)),
                "{rows:?}"
            );
        }
    }

    /// Every sector needs a CR row (a `File_Add` placing a replica on it
    /// reserves its capacity there) and, while the sampler can draw it, a
    /// replica set (the placement is indexed there). Restore rejects a
    /// snapshot missing either rather than panic on the first `File_Add`.
    #[test]
    fn restore_rejects_a_sector_without_its_cr_row_or_replica_set() {
        let snapshot = engine_with(12).snapshot_save();
        let cases = [
            (Rows::Cr, "sector without CR accounting"),
            (Rows::Replicas, "sampled sector without a replica set"),
        ];
        for (rows, what) in cases {
            assert_eq!(
                Engine::snapshot_restore(&without_first_row(&snapshot, rows)).err(),
                Some(SnapshotError::Malformed(what)),
                "{rows:?}"
            );
        }
    }

    /// Restoring a task due before the chain's time would rewind the
    /// chain on the first `advance_to`. Snapshots come from peers, so
    /// restore rejects one.
    #[test]
    fn restore_rejects_a_task_due_before_the_chain_time() {
        let mut engine = engine_with(12);
        engine.advance_to(5);
        let snapshot = engine.snapshot_save();
        let body = &snapshot[..snapshot.len() - HASH_LEN];
        let payload = &body[MAGIC.len() + 2..];
        let mut d = Dec::new(payload);
        let ((), before) = d
            .with_bytes(|d| {
                // The pending tasks follow the discard table.
                skip_to(d, Rows::Discard);
                for _ in 0..d.len()? {
                    skip_row(d, Rows::Discard)?;
                }
                Ok::<_, DecError>(())
            })
            .unwrap();
        assert!(d.len().expect("task count") >= 1);
        assert!(d.u64().expect("first task's time") > engine.now());

        // The first task, the earliest, moved to time 0: still sorted.
        let mut stale = body.to_vec();
        let at = MAGIC.len() + 2 + before.len() + 8;
        stale[at..at + 8].copy_from_slice(&0u64.to_be_bytes());
        let seal = sha256(&stale);
        stale.extend_from_slice(seal.as_bytes());
        assert_eq!(
            Engine::snapshot_restore(&stale).err(),
            Some(SnapshotError::Malformed("task due before the chain's time"))
        );
    }

    /// Time past the open block's boundary is a block that never sealed:
    /// the next `advance_to` would have to rewind to seal it. Restore
    /// rejects such a snapshot.
    #[test]
    fn restore_rejects_a_chain_time_past_the_open_boundary() {
        let mut engine = engine_with(12);
        engine.advance_to(25);
        let snapshot = engine.snapshot_save();
        let body = &snapshot[..snapshot.len() - HASH_LEN];
        let mut d = Dec::new(&body[MAGIC.len() + 2..]);
        let (_, params) = d.with_bytes(dec_params).expect("params");
        assert_eq!(d.u64().expect("chain time"), 25);
        assert_eq!(d.u64().expect("chain height"), 2);

        // Height 1 leaves the boundary at 20 unsealed behind time 25.
        let mut stale = body.to_vec();
        let at = MAGIC.len() + 2 + params.len() + 8;
        stale[at..at + 8].copy_from_slice(&1u64.to_be_bytes());
        let seal = sha256(&stale);
        stale.extend_from_slice(seal.as_bytes());
        assert_eq!(
            Engine::snapshot_restore(&stale).err(),
            Some(SnapshotError::Malformed(
                "chain time outside the open block's interval"
            ))
        );
    }

    /// A blockstore that counts every call reaching it.
    #[derive(Debug)]
    struct CountingStore {
        inner: Box<dyn Blockstore>,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl CountingStore {
        fn calls(&self) -> usize {
            self.calls.load(std::sync::atomic::Ordering::Relaxed)
        }

        fn count(&self) {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl Blockstore for CountingStore {
        fn get(&self, hash: &Hash256) -> Result<Option<Arc<[u8]>>, StoreError> {
            self.count();
            self.inner.get(hash)
        }

        fn put(&self, bytes: &[u8]) -> Result<Hash256, StoreError> {
            self.count();
            self.inner.put(bytes)
        }
    }

    /// A full restore hands back an engine whose commitment is built:
    /// all five tries carry their roots, no flat map holds a dirty key,
    /// and its first `state_root()` — the saver's — reaches no store.
    #[test]
    fn a_restored_engine_is_committed_and_clean() {
        let saver = engine_with(300);
        let log = std::env::temp_dir().join(format!("fi-restore-clean-{}.log", std::process::id()));
        for disk in [false, true] {
            let mut restored = Engine::snapshot_restore(&saver.snapshot_save()).expect("restore");
            assert!(restored
                .commit
                .lock()
                .tries()
                .iter()
                .all(|trie| trie.root_hash().is_some()));
            assert!(restored.files.take_dirty().is_empty());
            assert!(restored.alloc.take_dirty().is_empty());
            assert!(restored.discard_reasons.take_dirty().is_empty());
            assert!(restored.sectors.take_dirty().is_empty());
            assert!(restored.cr.take_dirty().is_empty());

            let inner: Box<dyn Blockstore> = match disk {
                true => Box::new(fi_store::DiskBlockstore::open(&log).expect("disk store")),
                false => Box::new(MemoryBlockstore::new()),
            };
            let store = Arc::new(CountingStore {
                inner,
                calls: Default::default(),
            });
            restored.store = Arc::clone(&store) as Arc<dyn Blockstore>;
            assert_eq!(restored.state_root(), saver.state_root(), "disk={disk}");
            assert_eq!(store.calls(), 0, "disk={disk}");
        }
        let _ = std::fs::remove_file(log);
    }

    /// A trie node's slots as its block spells them (`fi_store::hamt`'s
    /// canonical encoding), for building blocks no honest trie has.
    #[derive(Debug, Clone)]
    enum RawSlot {
        Bucket(Vec<(Vec<u8>, Vec<u8>)>),
        Child(Hash256),
    }

    fn parse_node(block: &[u8]) -> Vec<(u32, RawSlot)> {
        let mut d = Dec::new(block);
        let bitmap = d.u32().expect("bitmap");
        let field = |d: &mut Dec<'_>| {
            let len = d.u32().expect("length") as usize;
            d.take(len).expect("field").to_vec()
        };
        let slots = (0..32).filter(|nib| bitmap & (1 << nib) != 0).map(|nib| {
            let slot = match d.u8().expect("tag") {
                0 => {
                    let pairs = d.u32().expect("pair count");
                    RawSlot::Bucket((0..pairs).map(|_| (field(&mut d), field(&mut d))).collect())
                }
                _ => RawSlot::Child(d.hash().expect("child hash")),
            };
            (nib, slot)
        });
        let slots = slots.collect();
        assert!(d.done(), "trailing node bytes");
        slots
    }

    fn encode_node(slots: &[(u32, RawSlot)]) -> Vec<u8> {
        let bitmap = slots.iter().fold(0u32, |bits, (nib, _)| bits | 1 << nib);
        let mut out = bitmap.to_be_bytes().to_vec();
        for (_, slot) in slots {
            match slot {
                RawSlot::Bucket(pairs) => {
                    out.push(0);
                    out.extend_from_slice(&(pairs.len() as u32).to_be_bytes());
                    for field in pairs.iter().flat_map(|(k, v)| [k, v]) {
                        out.extend_from_slice(&(field.len() as u32).to_be_bytes());
                        out.extend_from_slice(field);
                    }
                }
                RawSlot::Child(hash) => {
                    out.push(1);
                    out.extend_from_slice(hash.as_bytes());
                }
            }
        }
        out
    }

    /// A `FIDELTA1` taken apart, to be put back together wrong.
    struct Delta {
        base_root: Hash256,
        map_roots: [Hash256; 5],
        /// The non-map sections, verbatim.
        sections: Vec<u8>,
        nodes: [Vec<(Hash256, Vec<u8>)>; 5],
    }

    impl Delta {
        fn open(bytes: &[u8]) -> Delta {
            let mut d = open_envelope(bytes, DELTA_MAGIC, DELTA_VERSION).expect("envelope");
            let base_root = d.hash().expect("base root");
            d.hash().expect("new root");
            let map_roots = [(); 5].map(|()| d.hash().expect("map root"));
            let ((), sections) = d
                .with_bytes(|d| {
                    let params = dec_params(d)?;
                    let chain = dec_chain(d, &params)?;
                    dec_ledger(d)?;
                    let counters = dec_counters(d)?;
                    dec_stats(d)?;
                    dec_tasks(d, &params, &chain, counters.task_seq)?;
                    dec_replicas(d)?;
                    dec_sampler(d)?;
                    dec_rng(d)?;
                    dec_checkpoint(d).map(drop)
                })
                .expect("non-map sections");
            let sections = sections.to_vec();
            let nodes = [(); 5].map(|()| {
                let n = d.len().expect("node count");
                (0..n)
                    .map(|_| (d.hash().expect("id"), d.bytes().expect("block").to_vec()))
                    .collect()
            });
            assert!(d.done());
            Delta {
                base_root,
                map_roots,
                sections,
                nodes,
            }
        }

        /// A valid envelope around the parts as they now are, recording
        /// the state root their map roots fold to under `header`.
        fn seal(&self, header: &statemap::StateHeader) -> Vec<u8> {
            let mut e = envelope(DELTA_MAGIC, DELTA_VERSION);
            e.hash(&self.base_root);
            let maps_root = statemap::fold_maps_root(&self.map_roots);
            e.hash(&statemap::fold_state_root(header, maps_root));
            for root in &self.map_roots {
                e.hash(root);
            }
            e.raw(&self.sections);
            for nodes in &self.nodes {
                e.usize(nodes.len());
                for (hash, block) in nodes {
                    e.hash(hash);
                    e.bytes(block);
                }
            }
            seal(e)
        }

        /// Swaps the block of node `old` of the files map for `block` and
        /// re-hashes every id above it, up to the map root.
        fn replace_node(&mut self, old: Hash256, block: Vec<u8>) {
            let new = sha256(&block);
            let files = &mut self.nodes[0];
            let at = files.iter().position(|(hash, _)| *hash == old);
            files[at.expect("a shipped node")] = (new, block);
            if self.map_roots[0] == old {
                self.map_roots[0] = new;
                return;
            }
            let links_old = |slot: &(u32, RawSlot)| matches!(slot.1, RawSlot::Child(h) if h == old);
            let (parent, mut slots) = files
                .iter()
                .map(|(hash, block)| (*hash, parse_node(block)))
                .find(|(_, slots)| slots.iter().any(links_old))
                .expect("a changed node's parent is shipped");
            for slot in slots.iter_mut().filter(|slot| links_old(slot)) {
                slot.1 = RawSlot::Child(new);
            }
            self.replace_node(parent, encode_node(&slots));
        }
    }

    /// Deltas no honest engine writes, each under a valid envelope hash
    /// and with every node id matching its bytes: restore answers each
    /// with a typed error.
    #[test]
    fn hostile_deltas_fail_with_typed_errors() {
        let base = engine_with(300);
        let mut server = engine_with(300);
        let base_roots = server.state_roots();
        assert_eq!(base.state_root(), base_roots.state_root);
        add_confirmed(&mut server, 300..400);
        let header = server.state_header();
        let honest = server.snapshot_delta(&base_roots).expect("delta");
        assert_eq!(
            Delta::open(&honest).seal(&header),
            honest,
            "the scaffolding"
        );

        let shipped = |delta: &Delta| -> Vec<(Hash256, Vec<(u32, RawSlot)>)> {
            let nodes = delta.nodes[0].iter();
            nodes
                .map(|(hash, block)| (*hash, parse_node(block)))
                .collect()
        };
        let is_leaf_node = |slots: &[(u32, RawSlot)]| {
            slots
                .iter()
                .all(|(_, slot)| matches!(slot, RawSlot::Bucket(_)))
        };
        let restore = |delta: &Delta| Engine::snapshot_restore_delta(&delta.seal(&header), &base);

        // (a) One referenced node left out. First: every restore leaves the
        // nodes it was shipped in the base's store.
        let mut delta = Delta::open(&honest);
        let (missing, _) = delta.nodes[0].pop().expect("files nodes");
        assert_eq!(
            restore(&delta).err(),
            Some(Error::Store(StoreError::NotFound(missing)))
        );

        // (b) A pair moved into a slot its key hash does not route to.
        let mut delta = Delta::open(&honest);
        let (hash, mut slots) = shipped(&delta)
            .into_iter()
            .find(|(hash, slots)| *hash != delta.map_roots[0] && is_leaf_node(slots))
            .expect("a shipped leaf node");
        let free = (0..32).find(|nib| slots.iter().all(|(at, _)| at != nib));
        let free = free.expect("a sparse node has a free slot");
        let RawSlot::Bucket(pairs) = &mut slots[0].1 else {
            unreachable!("a leaf node");
        };
        let moved = pairs.pop().expect("no bucket is empty");
        if pairs.is_empty() {
            slots.remove(0);
        }
        slots.push((free, RawSlot::Bucket(vec![moved])));
        slots.sort_by_key(|(nib, _)| *nib);
        delta.replace_node(hash, encode_node(&slots));
        assert!(matches!(
            restore(&delta),
            Err(Error::Snapshot(SnapshotError::Malformed(_)))
        ));

        // (c) One child linked from two slots.
        let mut delta = Delta::open(&honest);
        let root = delta.map_roots[0];
        let mut slots = parse_node(&delta.nodes[0][0].1);
        assert_eq!(delta.nodes[0][0].0, root, "parents first");
        let is_shipped = |hash: &Hash256| delta.nodes[0].iter().any(|(h, _)| h == hash);
        let children: Vec<usize> = (0..slots.len())
            .filter(|&i| matches!(&slots[i].1, RawSlot::Child(h) if is_shipped(h)))
            .collect();
        assert!(children.len() >= 2, "a hundred adds change many subtrees");
        slots[children[1]].1 = slots[children[0]].1.clone();
        delta.replace_node(root, encode_node(&slots));
        assert_eq!(
            restore(&delta).err(),
            Some(Error::Store(StoreError::Corrupt("trie node linked twice")))
        );

        // (d) A bucket of four or more pairs where a child is due.
        let mut delta = Delta::open(&honest);
        let (hash, slots) = shipped(&delta)
            .into_iter()
            .find(|(hash, slots)| *hash != delta.map_roots[0] && is_leaf_node(slots))
            .expect("a shipped leaf node");
        let mut pairs: Vec<_> = slots
            .into_iter()
            .flat_map(|(_, slot)| match slot {
                RawSlot::Bucket(pairs) => pairs,
                RawSlot::Child(_) => unreachable!("a leaf node"),
            })
            .collect();
        assert!(pairs.len() >= 4, "a child holds more than a bucket may");
        pairs.sort();
        let mut root_slots = parse_node(&delta.nodes[0][0].1);
        let link = root_slots
            .iter_mut()
            .find(|(_, slot)| matches!(slot, RawSlot::Child(h) if *h == hash));
        link.expect("the files trie is two levels deep").1 = RawSlot::Bucket(pairs);
        delta.replace_node(delta.map_roots[0], encode_node(&root_slots));
        assert_eq!(
            restore(&delta).err(),
            Some(Error::Snapshot(SnapshotError::Malformed(
                "restored state root mismatch"
            )))
        );

        // The honest delta still applies after all that.
        let restored = Engine::snapshot_restore_delta(&honest, &base).expect("honest delta");
        assert_eq!(restored.state_root(), server.state_root());
    }
}
