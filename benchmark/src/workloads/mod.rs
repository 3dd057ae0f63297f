//! The four workloads and what they share: the plan a run is sized from,
//! the result of one measured pass, and the engine fill used by two of
//! them.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use fi_chain::account::{AccountId, TokenAmount};
use fi_core::engine::{Engine, EngineStats, PhaseTimes};
use fi_core::ops::{Op, Receipt};
use fi_core::params::ProtocolParams;
use fi_core::types::{FileId, SectorId};
use fi_store::Blockstore;

use crate::store::{CountingStore, StoreCounts};
use crate::trace::Tracer;

pub mod audit_cycle;
pub mod ingest_mix;
pub mod node_cluster;
pub mod state_sync;

/// What a run is sized from. The seed reaches the program only through the
/// generated inputs (op streams, `ProtocolParams::seed`, the world seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub seed: u64,
    /// Requested measuring time. Each workload turns it into a fixed
    /// amount of work (blocks, cycles, rounds, slots) calibrated on the
    /// 2-core container, so the same seed and seconds always produce the
    /// same ops and the same roots.
    pub seconds: u64,
}

/// Layer values a workload reads off the program's public counters.
pub type Given = BTreeMap<&'static str, f64>;

/// Work counts a pass produced, for the layer replays.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayCounts {
    /// Scheduled tasks that come due within one cycle of the pass.
    pub pending_tasks: u64,
    /// Distinct deadlines those tasks spread over.
    pub deadlines: u64,
    /// Steps that popped tasks, and tasks popped per such step.
    pub pop_steps: u64,
    pub tasks_per_pop: u64,
    /// Capacity-weighted sector draws (`File_Add` replicas placed).
    pub sampler_draws: u64,
    /// Keys in the state maps, commits, and keys dirtied per commit.
    pub map_keys: u64,
    pub commits: u64,
    pub dirty_per_commit: u64,
    /// Modeled storage proofs walked (`proofs_audited + proofs_accepted`)
    /// and nodes per walk.
    pub path_walks: u64,
    pub path_len: u64,
    /// Transactions admitted to and selected from one validator's mempool.
    pub mempool_txs: u64,
}

/// One measured pass over a prepared workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time of the measured section.
    pub wall_s: f64,
    /// Latency of every step (block, audit cycle, round, sweep period).
    pub steps_ms: Vec<f64>,
    /// The workload's unit of user work per wall second.
    pub ops_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Roots and counts that must repeat exactly for the same plan.
    pub fingerprint: String,
    /// End-to-end metrics only this workload has (untraced passes).
    pub home: Given,
    /// Per-layer values read off public counters (traced passes).
    pub given: Given,
    pub replay: ReplayCounts,
    /// `(shards, ingest_threads)` of the engines the workload ran.
    pub engine_cell: (usize, usize),
    pub store_backend: &'static str,
}

/// A workload after set-up, ready for one measured pass.
pub trait Prepared {
    /// A digest of the prepared state: repeated set-ups of one plan must
    /// agree on it.
    fn fingerprint(&self) -> String;

    /// Runs the measured section.
    ///
    /// # Errors
    ///
    /// A description of the first failed output check or health gate.
    fn measure(self: Box<Self>, tracer: &mut Tracer) -> Result<Pass, String>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestMix,
    AuditCycle,
    StateSync,
    NodeCluster,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IngestMix,
        Workload::AuditCycle,
        Workload::StateSync,
        Workload::NodeCluster,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestMix => "ingest_mix",
            Workload::AuditCycle => "audit_cycle",
            Workload::StateSync => "state_sync",
            Workload::NodeCluster => "node_cluster",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds and prefills the workload. `timed_store` turns on the
    /// counting store's clock reads (traced passes only).
    ///
    /// # Errors
    ///
    /// A description of what could not be prepared.
    pub fn setup(self, plan: Plan, timed_store: bool) -> Result<Box<dyn Prepared>, String> {
        Ok(match self {
            Workload::IngestMix => Box::new(ingest_mix::setup(
                &ingest_mix::Shape::default(),
                plan,
                timed_store,
            )?),
            Workload::AuditCycle => Box::new(audit_cycle::setup(
                &audit_cycle::Shape::default(),
                plan,
                timed_store,
            )?),
            Workload::StateSync => Box::new(state_sync::setup(
                &state_sync::Shape::default(),
                plan,
                timed_store,
            )?),
            Workload::NodeCluster => {
                Box::new(node_cluster::setup(&node_cluster::Shape::default(), plan)?)
            }
        })
    }
}

/// `benchmark/out`, where traces and the disk blockstore's log go — inside
/// the checkout wherever the binary is started from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub const CLIENT: AccountId = AccountId(900);

/// Funding that never runs dry yet leaves `u128` headroom for the supply.
pub const DEEP_POCKETS: TokenAmount = TokenAmount(u128::MAX / 1024);

/// Applies `ops` as one batch and folds the outcomes into the pass
/// counters; returns the receipts for the caller to react to.
pub fn apply_counted(
    engine: &mut Engine,
    ops: Vec<Op>,
    attempted: &mut u64,
    failed: &mut u64,
) -> Vec<Option<Receipt>> {
    *attempted += ops.len() as u64;
    engine
        .apply_batch(ops)
        .into_iter()
        .map(|result| {
            if result.is_err() {
                *failed += 1;
            }
            result.ok()
        })
        .collect()
}

/// The `File_Confirm`s an honest provider sends for `file`'s placements.
pub fn confirms_for(
    engine: &Engine,
    file: FileId,
    owner_of: impl Fn(SectorId) -> AccountId,
) -> impl Iterator<Item = Op> {
    engine
        .pending_confirms(file)
        .into_iter()
        .map(move |(index, sector)| Op::FileConfirm {
            caller: owner_of(sector),
            file,
            index,
            sector,
        })
}

/// A `File_Add` whose Merkle root is derived from the run seed and a
/// per-run counter, so no two runs with different seeds share content.
pub fn file_add(seed: u64, counter: u64, size: u64, value: TokenAmount) -> Op {
    let mut preimage = [0u8; 16];
    preimage[..8].copy_from_slice(&seed.to_be_bytes());
    preimage[8..].copy_from_slice(&counter.to_be_bytes());
    Op::FileAdd {
        client: CLIENT,
        size,
        value,
        merkle_root: fi_crypto::sha256(&preimage),
    }
}

/// The batch-regime fill shared by `audit_cycle` and `state_sync`:
/// `files` size-1, single-replica files all added at time 0 by one
/// provider over 64 sectors, so every `Auto_CheckProof` lands in one
/// bucket per proof cycle.
pub struct BatchFill {
    pub engine: Engine,
    pub store: Arc<CountingStore>,
    pub provider: AccountId,
    /// Next `file_add` counter.
    pub next_counter: u64,
}

pub const BATCH_CYCLE: u64 = 1_000;
const BATCH_SECTORS: u64 = 64;
/// Ops per submitted block in the batch regime.
pub const BATCH_BLOCK_OPS: usize = 4_096;

pub fn batch_fill(
    files: u64,
    headroom_files: u64,
    shards: usize,
    ingest_threads: usize,
    seed: u64,
    store: Arc<CountingStore>,
) -> Result<BatchFill, String> {
    let params = ProtocolParams {
        k: 1,
        proof_cycle: BATCH_CYCLE,
        proof_due: 2 * BATCH_CYCLE,
        proof_deadline: 4 * BATCH_CYCLE,
        // No refresh fires inside a run: a moved replica would need a
        // provider to chase it, which is not what these workloads measure.
        avg_refresh: 1e9,
        delay_per_size: 1,
        shards,
        ingest_threads,
        audit_path_len: 64,
        seed,
        ..ProtocolParams::default()
    };
    let min_value = params.min_value;
    let provider = AccountId(700);
    let mut engine = Engine::new_with_store(params, Arc::clone(&store) as Arc<dyn Blockstore>)
        .map_err(|e| format!("batch fill parameters: {e}"))?;
    engine.fund(provider, DEEP_POCKETS);
    engine.fund(CLIENT, DEEP_POCKETS);
    let per_sector = (2 * (files + headroom_files) / BATCH_SECTORS).div_ceil(64) * 64;
    for _ in 0..BATCH_SECTORS {
        engine
            .sector_register(provider, per_sector)
            .map_err(|e| format!("sector registration: {e}"))?;
    }
    let (mut attempted, mut failed) = (0, 0);
    let mut next = 0u64;
    while next < files {
        let upto = (next + BATCH_BLOCK_OPS as u64).min(files);
        let adds = (next..upto)
            .map(|c| file_add(seed, c, 1, min_value))
            .collect();
        let receipts = apply_counted(&mut engine, adds, &mut attempted, &mut failed);
        let confirms: Vec<Op> = receipts
            .into_iter()
            .flatten()
            .filter_map(|r| match r {
                Receipt::FileAdded { file, .. } => Some(file),
                _ => None,
            })
            .flat_map(|file| confirms_for(&engine, file, |_| provider).collect::<Vec<_>>())
            .collect();
        apply_counted(&mut engine, confirms, &mut attempted, &mut failed);
        next = upto;
    }
    // One bucket of `Auto_CheckAlloc`s finalises every placement, and
    // reaching the block interval seals the block holding the fill's ops
    // (an open block's op digests ride along in every snapshot).
    engine.advance_to(engine.now() + engine.params().block_interval);
    if failed > 0 || engine.state_header().files_len != files {
        return Err(format!(
            "batch fill: {failed} of {attempted} ops failed, {} of {files} files live",
            engine.state_header().files_len
        ));
    }
    Ok(BatchFill {
        engine,
        store,
        provider,
        next_counter: files,
    })
}

/// The engine-side per-layer values every engine workload reports:
/// phase times and strategy counters over the measured section, and the
/// store traffic it caused.
pub fn engine_given(
    engine: &Engine,
    stats_before: &EngineStats,
    store: &CountingStore,
    store_before: &StoreCounts,
    live_files: u64,
) -> Given {
    let stats = engine.stats();
    let PhaseTimes {
        stage_s,
        commit_s,
        verify_s,
        fold_s,
    } = engine.phase_times();
    let traffic = store.counts().since(store_before);
    let count = |now: u64, before: u64| (now - before) as f64;
    Given::from([
        ("engine.phase.stage_ms", stage_s * 1e3),
        ("engine.phase.commit_ms", commit_s * 1e3),
        ("engine.phase.verify_ms", verify_s * 1e3),
        ("engine.phase.fold_ms", fold_s * 1e3),
        (
            "engine.stats.batches_staged_parallel",
            count(
                stats.batches_staged_parallel,
                stats_before.batches_staged_parallel,
            ),
        ),
        (
            "engine.stats.batches_fell_back_sequential",
            count(
                stats.batches_fell_back_sequential,
                stats_before.batches_fell_back_sequential,
            ),
        ),
        (
            "engine.stats.proofs_accepted",
            count(stats.proofs_accepted, stats_before.proofs_accepted),
        ),
        (
            "engine.stats.proofs_audited",
            count(stats.proofs_audited, stats_before.proofs_audited),
        ),
        (
            "engine.stats.audit_commit_batches",
            count(
                stats.audit_commit_batches,
                stats_before.audit_commit_batches,
            ),
        ),
        (
            "engine.stats.punishments",
            count(stats.punishments, stats_before.punishments),
        ),
        (
            "engine.stats.add_collisions",
            count(stats.add_collisions, stats_before.add_collisions),
        ),
        ("engine.pending_tasks", engine.pending_task_count() as f64),
        ("store.put_calls", traffic.put_calls as f64),
        ("store.put_bytes", traffic.put_bytes as f64),
        ("store.put_ms", traffic.put_ns as f64 / 1e6),
        ("store.get_calls", traffic.get_calls as f64),
        ("store.get_bytes", traffic.get_bytes as f64),
        ("store.get_ms", traffic.get_ns as f64 / 1e6),
        ("store.blocks", store.blocks() as f64),
        (
            "store.bytes_per_live_file",
            store.stored_bytes() as f64 / live_files.max(1) as f64,
        ),
    ])
}
