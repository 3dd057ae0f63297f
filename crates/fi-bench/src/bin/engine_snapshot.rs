//! Writes a `BENCH_engine.json` op-layer throughput snapshot: `Engine::apply`
//! ops/sec and `advance_to` cost at 1k/10k/100k live files, measured
//! like-for-like under the epoch-bucketed [`fi_chain::tasks::TaskWheel`]
//! and the pre-refactor per-file `BTreeMap` scheduler
//! ([`fi_chain::tasks::PendingList`]).
//!
//! Usage: `cargo run --release -p fi-bench --bin engine_snapshot [out.json]`
//!
//! The workload is the per-file scheduling regime the refactor targets:
//! one file added per tick over a proof cycle of `n` ticks, so every one
//! of the `n` live files carries its own distinct `Auto_CheckProof`
//! timestamp. Two `advance_to` measurements per scale:
//!
//! * **full engine** — one whole `ProofCycle` advance: every file's
//!   `Auto_CheckProof` executes (rent, late checks, reschedule), so the
//!   scheduler's share is diluted by protocol work;
//! * **scheduler churn** — the same task population (`n` tasks, one per
//!   timestamp across the cycle) popped in engine order (`next_time` →
//!   `pop_due`) and rescheduled one cycle out, three cycles long, against
//!   the bare scheduler. This isolates the scheduling cost the full-engine
//!   number dilutes and is what the ≥3x acceptance bar applies to.
//!
//! Both engines must agree on every state root — asserted, which doubles
//! as a wheel-vs-BTreeMap consensus-equivalence test at 100k-file scale.
//!
//! A third section measures the **sharded audit pipeline**: 100k files
//! whose `Auto_CheckProof`s land in one wheel bucket (the batch regime a
//! real chain sees — many ops per block), advanced through a full proof
//! cycle at 1, 4 and 8 shards. The verify phase (modeled Merkle storage
//! proof checks) fans out across the persistent worker pool; the commit
//! phase runs through the batched per-shard write path (planned fast
//! applies plus deferred cntdown flushes) whenever the bucket crosses the
//! threshold. All engines must agree on the state *and audit* roots — the
//! 100k-file instance of the sharding equivalence tests — and on hosts
//! with ≥ 4 cores the 8-shard engine must complete the full-cycle
//! `advance_to` ≥ 4x faster than the 1-shard engine (the CI acceptance
//! bar; on smaller hosts the number is recorded but not gated, since a
//! 1-core box has no parallelism to win).
//!
//! A fourth section measures the **pipelined batch ingest**: 50k
//! `File_Prove` ops (each a modeled WindowPoSt verification) fed through
//! the op-by-op `Engine::apply` loop versus one `Engine::apply_batch`
//! call, at every `(shards, ingest_threads)` configuration in
//! `INGEST_CONFIGS`. State roots and block hashes must agree between both
//! paths and across configurations, and on ≥ 4-core hosts the 8-shard /
//! 4-thread batch path must ingest ≥ 4x faster than the sequential loop
//! (CI-gated; recorded only on smaller hosts).
//!
//! A fifth axis records the **multi-lane SHA-256** work: every sharded
//! advance is the median of three fresh-engine runs, shard counts are
//! asserted noise-neutral (≤ 2x median spread) on 1-core hosts, the
//! 1-shard advance is re-run with the backend forced to the frozen scalar
//! reference (state root asserted bit-identical; ≥ 3x speedup gated when
//! a SIMD backend is detected), and a `hash` section captures raw
//! `digest_many` MB/s plus lockstep Merkle authentication-path
//! verification rates, scalar vs best detected backend.
//!
//! A sixth (`parallel`) section records the end-to-end parallel engine:
//! the same 100k-file one-bucket full-cycle advance at `(1 shard, 1
//! thread)` vs `(8 shards, 4 threads)`, with the per-phase wall-clock
//! breakdown ([`Engine::phase_times`]: stage / commit / verify / fold)
//! and the `audit_commit_batches` strategy counter for each cell. State
//! and audit roots are asserted bit-identical, and on ≥ 4-core hosts the
//! 8x4 cell must clear a ≥ 4x full-cycle speedup over 1x1.
//!
//! A seventh (`store`) section measures the content-addressed state
//! commitment (DESIGN.md §15): a 100k-file fill with the five HAMT state
//! trees on the in-memory versus the append-only disk blockstore, plus
//! both snapshot transports — the full `FISNAPSH` save/restore and the
//! incremental `FIDELTA1` delta cut against a base 1k files back. State
//! roots are asserted bit-identical across backends and after both
//! round-trips, and the delta must be strictly smaller than the full
//! snapshot it replaces.

use std::time::Instant;

use fi_chain::account::{AccountId, TokenAmount};
use fi_chain::tasks::{Scheduler, SchedulerKind};
use fi_core::engine::{Engine, StateView};
use fi_core::ops::Op;
use fi_core::params::ProtocolParams;
use fi_crypto::merkle::{MerklePathBatch, MerkleProof, MerkleTree};
use fi_crypto::sha256::{self, Backend};

const PROVIDER: AccountId = AccountId(42);
const CLIENT: AccountId = AccountId(43);
const SECTORS: u64 = 64;
/// The shard counts every sharded section measures (and asserts consensus
/// equality across) — the single source for both the audit-pipeline and
/// the batch-ingest geometry.
const SHARD_COUNTS: [usize; 3] = [1, 4, 8];
/// Live files in the sharded-audit batch regime.
const SHARD_N: u64 = 100_000;
/// Ops per measured ingest batch.
const INGEST_N: u64 = 50_000;
/// The `(shards, ingest_threads)` ingest configurations, sequential-apply
/// baseline first; the last entry is the CI-gated one.
const INGEST_CONFIGS: [(usize, usize); 3] = [(1, 1), (SHARD_COUNTS[2], 1), (SHARD_COUNTS[2], 4)];

/// One tick per file: `n` files spread over a cycle of `n` ticks gives
/// every file a distinct deadline (at least 1k ticks so the protocol's
/// relative windows stay sane at small scales).
fn proof_cycle_for(n: u64) -> u64 {
    n.max(1_000)
}

fn bench_params(n: u64, kind: SchedulerKind) -> ProtocolParams {
    let cycle = proof_cycle_for(n);
    ProtocolParams {
        // One replica per file: the scheduling layer is what varies with
        // scale here, not replica fan-out.
        k: 1,
        proof_cycle: cycle,
        proof_due: 2 * cycle,
        proof_deadline: 4 * cycle,
        // Refreshes are rare enough to not fire within the measured cycle
        // (identical on both sides either way, but this keeps the numbers
        // about scheduling + proof accounting).
        avg_refresh: 1_000_000.0,
        delay_per_size: 1,
        scheduler: kind,
        // The wheel-vs-btree sections measure scheduling, not sharding:
        // pin one shard regardless of any FI_TEST_SHARDS in the env.
        shards: 1,
        ..ProtocolParams::default()
    }
}

struct EngineRun {
    ops_per_sec: f64,
    /// Seconds for `advance_to(now + ProofCycle)` over `n` live files.
    advance_s: f64,
    state_root: fi_crypto::Hash256,
}

/// Builds an engine with `n` live files, one added (and confirmed) per
/// tick so every `Auto_CheckProof` lands on its own timestamp, then
/// measures a whole-cycle `advance_to`. All actions go through the public
/// wrappers, i.e. through `Engine::apply` — ops/sec is counted off the op
/// log itself.
fn run_engine(n: u64, kind: SchedulerKind) -> EngineRun {
    let params = bench_params(n, kind);
    let cycle = params.proof_cycle;
    let min_value = params.min_value;
    let mut engine = Engine::new(params).expect("valid parameters");
    engine.fund(PROVIDER, TokenAmount(u128::MAX / 4));
    engine.fund(CLIENT, TokenAmount(u128::MAX / 4));
    // Capacity for n size-1 files plus slack, multiple of minCapacity.
    let per_sector = (2 * n / SECTORS).div_ceil(64).max(1) * 64;
    for _ in 0..SECTORS {
        engine
            .sector_register(PROVIDER, per_sector)
            .expect("register sector");
    }

    let ops_before = engine.op_log().len();
    let t_add = Instant::now();
    for i in 0..n {
        let root = fi_crypto::sha256(&i.to_be_bytes());
        let file = engine
            .file_add(CLIENT, 1, min_value, root)
            .expect("file add");
        for (index, sector) in engine.pending_confirms(file) {
            engine
                .file_confirm(PROVIDER, file, index, sector)
                .expect("confirm");
        }
        engine.advance_to(engine.now() + 1);
    }
    // Let the trailing CheckAllocs finalise so every file is live.
    engine.advance_to(engine.now() + 2);
    let applied = (engine.op_log().len() - ops_before) as u64;
    let ops_per_sec = applied as f64 / t_add.elapsed().as_secs_f64();
    assert_eq!(engine.file_ids().len() as u64, n, "all files live");

    // The measured advance: one full proof cycle, n CheckProofs on n
    // distinct timestamps.
    let target = engine.now() + cycle;
    let t_adv = Instant::now();
    engine.advance_to(target);
    let advance_s = t_adv.elapsed().as_secs_f64();
    assert_eq!(engine.file_ids().len() as u64, n, "no file lost mid-bench");

    EngineRun {
        ops_per_sec,
        advance_s,
        state_root: engine.state_root(),
    }
}

/// The scheduler-isolated trace: the same task population the engine run
/// carries — `n` per-file tasks, one per timestamp across a `cycle`-tick
/// proof cycle — popped in engine order (`next_time` → `pop_due`) and
/// rescheduled one cycle out, for `cycles` cycles. Exactly the churn
/// `advance_to` inflicts on the pending list, minus protocol work.
fn run_scheduler_churn(n: u64, kind: SchedulerKind, cycles: u64) -> f64 {
    let spread = proof_cycle_for(n); // one task per timestamp, like the engine
    let mut sched: Scheduler<u64> = Scheduler::new(kind, 10);
    for i in 0..n {
        sched.schedule(i % spread, i);
    }
    let t = Instant::now();
    let mut popped_total = 0u64;
    for c in 1..=cycles {
        let target = c * spread - 1; // covers timestamps [(c-1)·spread, c·spread)
        while let Some(ts) = sched.next_time() {
            if ts > target {
                break;
            }
            for (time, task) in sched.pop_due(ts) {
                sched.schedule(time + spread, task);
                popped_total += 1;
            }
        }
    }
    let elapsed = t.elapsed().as_secs_f64();
    assert_eq!(popped_total, n * cycles, "every task fires every cycle");
    elapsed
}

/// One sharded-audit measurement: a full-cycle `advance_to` over `n`
/// files whose `Auto_CheckProof`s share a single wheel bucket.
struct ShardedRun {
    shards: usize,
    threads: usize,
    /// Seconds for the measured one-bucket proof-cycle advance.
    advance_s: f64,
    state_root: fi_crypto::Hash256,
    audit_root: fi_crypto::Hash256,
    proofs_audited: u64,
    /// Per-phase wall-clock breakdown of the last sampled advance.
    phase: fi_core::engine::PhaseTimes,
    /// Batched-commit buckets during one sampled advance (> 0 exactly
    /// when the engine is sharded — the bucket is far past threshold).
    audit_commit_batches: u64,
}

/// Builds the batch regime: `n` size-1 files all added (and confirmed) at
/// time 0, so every `Auto_CheckProof` lands on the same timestamp — one
/// bucket of `n` audit tasks per proof cycle — and every file can carry a
/// same-bucket `File_Prove`. Shared by the sharded-audit and batch-ingest
/// sections, parameterized on the two performance knobs.
fn batch_engine(n: u64, shards: usize, ingest_threads: usize) -> Engine {
    let cycle = 1_000;
    let params = ProtocolParams {
        k: 1,
        proof_cycle: cycle,
        proof_due: 2 * cycle,
        proof_deadline: 4 * cycle,
        avg_refresh: 1_000_000.0,
        delay_per_size: 1,
        shards,
        ingest_threads,
        // A WindowPoSt-scale verification: 64 path nodes per replica —
        // the read-only work the shards verify (audit) and stage (ingest)
        // concurrently. At this depth the parallel phase dominates the
        // measured time, so by Amdahl the 8-shard runs clear their 2x bars
        // with margin even on a shared 4-vCPU runner
        // (ideal 4-way speedup ≈ 1/(0.05 + 0.95/4) ≈ 3.5x).
        audit_path_len: 64,
        ..ProtocolParams::default()
    };
    let min_value = params.min_value;
    let mut engine = Engine::new(params).expect("valid parameters");
    engine.fund(PROVIDER, TokenAmount(u128::MAX / 4));
    engine.fund(CLIENT, TokenAmount(u128::MAX / 4));
    let per_sector = (2 * n / SECTORS).div_ceil(64).max(1) * 64;
    for _ in 0..SECTORS {
        engine
            .sector_register(PROVIDER, per_sector)
            .expect("register sector");
    }
    for i in 0..n {
        let root = fi_crypto::sha256(&i.to_be_bytes());
        let file = engine
            .file_add(CLIENT, 1, min_value, root)
            .expect("file add");
        for (index, sector) in engine.pending_confirms(file) {
            engine
                .file_confirm(PROVIDER, file, index, sector)
                .expect("confirm");
        }
    }
    // One bucket of n CheckAllocs finalises every placement.
    engine.advance_to(engine.now() + 2);
    assert_eq!(engine.file_ids().len() as u64, n, "all files live");
    engine
}

/// Median of three samples — single measurements on a shared host carry
/// ±20% noise, which is more than the shard-count differences measured
/// below.
fn median3(mut sample: impl FnMut() -> f64) -> f64 {
    let mut xs: Vec<f64> = (0..3).map(|_| sample()).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[1]
}

/// One sharded-audit measurement over a [`batch_engine`]: a full-cycle
/// `advance_to` whose single bucket holds every file's `Auto_CheckProof`.
/// The advance is sampled three times on fresh engines (median reported),
/// and every repetition must land on the same state root.
fn run_sharded_audit(n: u64, shards: usize, threads: usize) -> ShardedRun {
    let cycle = 1_000;
    let mut state_root = None;
    let mut audit_root = None;
    let mut proofs_audited = 0u64;
    let mut phase = fi_core::engine::PhaseTimes::default();
    let mut audit_commit_batches = 0u64;
    let advance_s = median3(|| {
        let mut engine = batch_engine(n, shards, threads);
        // The measured advance: one bucket of n CheckProofs — verify fans
        // out across the pool, commit merges back into canonical order
        // (through the batched per-shard write path when sharded).
        let audited_before = engine.stats().proofs_audited;
        let batches_before = engine.stats().audit_commit_batches;
        engine.reset_phase_times();
        let target = engine.now() + cycle;
        let t_adv = Instant::now();
        engine.advance_to(target);
        let elapsed = t_adv.elapsed().as_secs_f64();
        proofs_audited = engine.stats().proofs_audited - audited_before;
        assert_eq!(proofs_audited, n, "every live replica audited once");
        phase = engine.phase_times();
        audit_commit_batches = engine.stats().audit_commit_batches - batches_before;
        assert_eq!(
            audit_commit_batches > 0,
            shards > 1,
            "the batched commit path engages exactly on sharded engines"
        );
        let root = engine.state_root();
        assert!(
            state_root.is_none() || state_root == Some(root),
            "advance_to must be deterministic across repetitions"
        );
        state_root = Some(root);
        audit_root = Some(engine.audit_root());
        elapsed
    });

    ShardedRun {
        shards,
        threads,
        advance_s,
        state_root: state_root.expect("three repetitions ran"),
        audit_root: audit_root.expect("three repetitions ran"),
        proofs_audited,
        phase,
        audit_commit_batches,
    }
}

/// Multi-lane SHA-256 microbenchmarks: bulk `digest_many` throughput and
/// lockstep Merkle-path verification rate, frozen scalar reference vs the
/// best detected backend. Digests are asserted identical between the two
/// before anything is timed.
struct HashMicro {
    backends: Vec<&'static str>,
    best: &'static str,
    scalar_mb_s: f64,
    best_mb_s: f64,
    scalar_paths_s: f64,
    best_paths_s: f64,
}

fn run_hash_micro() -> HashMicro {
    const LANES: usize = 8_192;
    const MSG_LEN: usize = 1_024;
    const PATHS: usize = 4_096;
    let best = sha256::active_backend();

    let buf: Vec<u8> = (0..LANES * MSG_LEN).map(|i| (i % 251) as u8).collect();
    let msgs: Vec<&[u8]> = buf.chunks(MSG_LEN).collect();
    let mb = buf.len() as f64 / (1024.0 * 1024.0);
    assert_eq!(
        sha256::digest_many_with(Backend::Scalar, &msgs),
        sha256::digest_many_with(best, &msgs),
        "scalar and {} digests diverged",
        best.name()
    );
    let mb_s = |backend: Backend| {
        mb / median3(|| {
            let t = Instant::now();
            std::hint::black_box(sha256::digest_many_with(backend, &msgs));
            t.elapsed().as_secs_f64()
        })
    };

    let payloads: Vec<Vec<u8>> = (0..PATHS)
        .map(|i| (i as u64).to_be_bytes().repeat(8))
        .collect();
    let payload_refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    let tree = MerkleTree::from_leaves(payloads.iter());
    let root = tree.root();
    let proofs: Vec<MerkleProof> = (0..PATHS)
        .map(|i| tree.prove(i).expect("leaf proven"))
        .collect();
    let paths_s = |backend: Backend| {
        PATHS as f64
            / median3(|| {
                let t = Instant::now();
                let leaves = fi_crypto::merkle::leaf_hash_many_with(backend, &payload_refs);
                let mut batch = MerklePathBatch::new();
                for (proof, leaf) in proofs.iter().zip(leaves) {
                    batch.push(proof, leaf, root);
                }
                let verdicts = batch.verify_with(backend);
                assert!(verdicts.into_iter().all(|ok| ok), "honest proofs verify");
                t.elapsed().as_secs_f64()
            })
    };

    HashMicro {
        backends: sha256::available_backends()
            .iter()
            .map(|b| b.name())
            .collect(),
        best: best.name(),
        scalar_mb_s: mb_s(Backend::Scalar),
        best_mb_s: mb_s(best),
        scalar_paths_s: paths_s(Backend::Scalar),
        best_paths_s: paths_s(best),
    }
}

/// One batch-ingest measurement: the same `File_Prove` batch through the
/// sequential `apply` loop and through the pipelined `apply_batch` path on
/// clones of one [`batch_engine`].
struct IngestRun {
    shards: usize,
    threads: usize,
    /// Seconds for the op-by-op `apply` loop.
    apply_s: f64,
    /// Seconds for the single `apply_batch` call.
    batch_s: f64,
    state_root: fi_crypto::Hash256,
}

/// Builds the batch regime at `(shards, threads)`, constructs one
/// `File_Prove` op per live file (a single ≥-threshold shard-local
/// segment), and measures both ingest paths. Their state roots must agree
/// — the bench doubles as the at-scale instance of the batch-ingest
/// equivalence tests.
fn run_ingest(n: u64, shards: usize, threads: usize) -> IngestRun {
    let engine = batch_engine(n, shards, threads);
    let ops: Vec<Op> = engine
        .file_ids()
        .into_iter()
        .map(|f| {
            let sector = engine
                .alloc_entry(f, 0)
                .and_then(|e| e.prev)
                .expect("live replica has a holder");
            Op::FileProve {
                caller: PROVIDER,
                file: f,
                index: 0,
                sector,
            }
        })
        .collect();

    let mut sequential = engine.clone();
    let seq_ops = ops.clone();
    let t_apply = Instant::now();
    for op in seq_ops {
        sequential.apply(op).expect("prove accepted");
    }
    let apply_s = t_apply.elapsed().as_secs_f64();

    let mut batched = engine;
    let t_batch = Instant::now();
    let results = batched.apply_batch(ops);
    let batch_s = t_batch.elapsed().as_secs_f64();
    assert!(
        results.iter().all(|r| r.is_ok()),
        "every prove in the batch accepted"
    );
    assert_eq!(
        sequential.state_root(),
        batched.state_root(),
        "apply vs apply_batch diverged at {shards} shards / {threads} threads"
    );
    assert_eq!(
        sequential.chain().head_hash(),
        batched.chain().head_hash(),
        "block hashes diverged at {shards} shards / {threads} threads"
    );

    IngestRun {
        shards,
        threads,
        apply_s,
        batch_s,
        state_root: batched.state_root(),
    }
}

/// One blockstore-backend measurement (DESIGN.md §15): fill `STORE_N`
/// files with the state commitment on the given backend, then measure the
/// snapshot transports — the full `FISNAPSH` save/restore and the
/// `FIDELTA1` delta against a base `STORE_DELTA_GAP` files back.
struct StoreRun {
    backend: &'static str,
    fill_s: f64,
    commit_s: f64,
    full_bytes: usize,
    full_save_s: f64,
    full_restore_s: f64,
    delta_bytes: usize,
    delta_save_s: f64,
    delta_restore_s: f64,
    state_root: fi_crypto::Hash256,
}

/// Live files in the blockstore fill (the delta base).
const STORE_N: u64 = 100_000;
/// Files added on top of the base before the delta is cut.
const STORE_DELTA_GAP: u64 = 1_000;

fn run_store(disk: bool) -> StoreRun {
    use fi_store::{Blockstore, DiskBlockstore, MemoryBlockstore};

    let scratch = std::env::temp_dir().join(format!(
        "fi-bench-store-{}-{}.log",
        std::process::id(),
        if disk { "disk" } else { "memory" }
    ));
    let (backend, store): (&'static str, std::sync::Arc<dyn Blockstore>) = if disk {
        let _ = std::fs::remove_file(&scratch);
        (
            "disk",
            std::sync::Arc::new(DiskBlockstore::open(&scratch).expect("open disk store")),
        )
    } else {
        ("memory", std::sync::Arc::new(MemoryBlockstore::new()))
    };

    let cycle = 1_000;
    let params = ProtocolParams {
        k: 1,
        proof_cycle: cycle,
        proof_due: 2 * cycle,
        proof_deadline: 4 * cycle,
        avg_refresh: 1_000_000.0,
        delay_per_size: 1,
        ..ProtocolParams::default()
    };
    let min_value = params.min_value;
    let mut engine = Engine::new_with_store(params, store).expect("valid parameters");
    engine.fund(PROVIDER, TokenAmount(u128::MAX / 4));
    engine.fund(CLIENT, TokenAmount(u128::MAX / 4));
    let total = STORE_N + STORE_DELTA_GAP;
    let per_sector = (2 * total / SECTORS).div_ceil(64).max(1) * 64;
    for _ in 0..SECTORS {
        engine
            .sector_register(PROVIDER, per_sector)
            .expect("register sector");
    }
    let fill = |engine: &mut Engine, ids: std::ops::Range<u64>| {
        for i in ids {
            let root = fi_crypto::sha256(&i.to_be_bytes());
            let file = engine
                .file_add(CLIENT, 1, min_value, root)
                .expect("file add");
            for (index, sector) in engine.pending_confirms(file) {
                engine
                    .file_confirm(PROVIDER, file, index, sector)
                    .expect("confirm");
            }
        }
    };
    let t_fill = Instant::now();
    fill(&mut engine, 0..STORE_N);
    engine.advance_to(engine.now() + 2);
    let fill_s = t_fill.elapsed().as_secs_f64();

    // The commitment flush: drain every dirty key into the five HAMTs and
    // fold the root (this is where the backend's write path is paid).
    let t_commit = Instant::now();
    let base_roots = engine.state_roots();
    let commit_s = t_commit.elapsed().as_secs_f64();
    let full_base = engine.snapshot_save();

    // A small change on top of the base, then both transports. (No
    // proof-cycle advance: that touches every cntdown and would dirty the
    // whole files tree — deltas measure the incremental regime.)
    fill(&mut engine, STORE_N..total);
    engine.advance_to(engine.now() + 2);

    let t_delta = Instant::now();
    let delta = engine.snapshot_delta(&base_roots).expect("delta save");
    let delta_save_s = t_delta.elapsed().as_secs_f64();

    let t_full = Instant::now();
    let full = engine.snapshot_save();
    let full_save_s = t_full.elapsed().as_secs_f64();

    let t_restore = Instant::now();
    let via_full = Engine::snapshot_restore(&full).expect("full restore");
    let full_restore_s = t_restore.elapsed().as_secs_f64();

    let base = Engine::snapshot_restore(&full_base).expect("base restore");
    let t_delta_restore = Instant::now();
    let via_delta = Engine::snapshot_restore_delta(&delta, &base).expect("delta restore");
    let delta_restore_s = t_delta_restore.elapsed().as_secs_f64();

    let state_root = engine.state_root();
    assert_eq!(via_full.state_root(), state_root, "full round-trip root");
    assert_eq!(via_delta.state_root(), state_root, "delta round-trip root");
    assert!(
        delta.len() < full.len(),
        "{backend}: delta ({}) must undercut the full snapshot ({})",
        delta.len(),
        full.len()
    );
    if disk {
        let _ = std::fs::remove_file(&scratch);
    }

    StoreRun {
        backend,
        fill_s,
        commit_s,
        full_bytes: full.len(),
        full_save_s,
        full_restore_s,
        delta_bytes: delta.len(),
        delta_save_s,
        delta_restore_s,
        state_root,
    }
}

struct ScaleResult {
    n: u64,
    wheel: EngineRun,
    btree: EngineRun,
    churn_wheel_s: f64,
    churn_btree_s: f64,
}

impl ScaleResult {
    fn advance_speedup(&self) -> f64 {
        self.btree.advance_s / self.wheel.advance_s
    }

    fn churn_speedup(&self) -> f64 {
        self.churn_btree_s / self.churn_wheel_s
    }

    fn json(&self) -> String {
        format!(
            "    {{\"live_files\": {}, \"apply_ops_per_sec_wheel\": {:.0}, \"apply_ops_per_sec_btree\": {:.0}, \
             \"advance_full_cycle_ms_wheel\": {:.3}, \"advance_full_cycle_ms_btree\": {:.3}, \"advance_full_cycle_speedup\": {:.2}, \
             \"scheduler_churn_ms_wheel\": {:.3}, \"scheduler_churn_ms_btree\": {:.3}, \"scheduler_churn_speedup\": {:.2}}}",
            self.n,
            self.wheel.ops_per_sec,
            self.btree.ops_per_sec,
            self.wheel.advance_s * 1e3,
            self.btree.advance_s * 1e3,
            self.advance_speedup(),
            self.churn_wheel_s * 1e3,
            self.churn_btree_s * 1e3,
            self.churn_speedup(),
        )
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".into());

    let mut results = Vec::new();
    for n in [1_000u64, 10_000, 100_000] {
        let wheel = run_engine(n, SchedulerKind::Wheel);
        let btree = run_engine(n, SchedulerKind::BTree);
        assert_eq!(
            wheel.state_root, btree.state_root,
            "wheel and BTreeMap schedulers must drive identical consensus at n={n}"
        );
        // Median of three for the bare-scheduler churn (it's fast).
        let med = |kind: SchedulerKind| -> f64 {
            let mut xs: Vec<f64> = (0..3).map(|_| run_scheduler_churn(n, kind, 3)).collect();
            xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            xs[1]
        };
        let churn_wheel_s = med(SchedulerKind::Wheel);
        let churn_btree_s = med(SchedulerKind::BTree);
        let r = ScaleResult {
            n,
            wheel,
            btree,
            churn_wheel_s,
            churn_btree_s,
        };
        println!(
            "n={n}: apply {:.0} ops/s, advance_to full-cycle {:.1} ms (wheel) vs {:.1} ms (btree) = {:.2}x, scheduler churn {:.2}x",
            r.wheel.ops_per_sec,
            r.wheel.advance_s * 1e3,
            r.btree.advance_s * 1e3,
            r.advance_speedup(),
            r.churn_speedup()
        );
        results.push(r);
    }

    // ------------------------------------------------------------------
    // Sharded audit pipeline: SHARD_N files, one CheckProof bucket, every
    // shard count in SHARD_COUNTS. State roots must be identical — the
    // 100k-file instance of the sharding equivalence tests.
    // ------------------------------------------------------------------
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let sharded: Vec<ShardedRun> = SHARD_COUNTS
        .iter()
        .map(|&s| run_sharded_audit(SHARD_N, s, 1))
        .collect();
    for run in &sharded[1..] {
        assert_eq!(
            run.state_root, sharded[0].state_root,
            "{}-shard engine diverged from the 1-shard engine at n={SHARD_N}",
            run.shards
        );
        assert_eq!(
            run.audit_root, sharded[0].audit_root,
            "{}-shard audit root diverged from the 1-shard engine at n={SHARD_N}",
            run.shards
        );
    }
    let sharded_speedup = sharded[0].advance_s / sharded.last().expect("runs").advance_s;
    for run in &sharded {
        println!(
            "sharded audit n={SHARD_N}: shards={} advance_to full-cycle {:.1} ms ({} proofs audited)",
            run.shards,
            run.advance_s * 1e3,
            run.proofs_audited
        );
    }
    println!(
        "sharded audit speedup 8v1: {sharded_speedup:.2}x (available parallelism: {parallelism})"
    );

    // Shard-count neutrality on serial hosts: with the batched multi-lane
    // verify, per-bucket overhead (slice scans, lane collection, the
    // one-worker scope) must not make shard count matter on 1 core —
    // medians across shard counts have to stay within 2x of each other.
    let shard_spread = {
        let max = sharded.iter().map(|r| r.advance_s).fold(f64::MIN, f64::max);
        let min = sharded.iter().map(|r| r.advance_s).fold(f64::MAX, f64::min);
        max / min
    };
    println!("sharded audit shard-count spread (max/min median advance): {shard_spread:.2}x");
    if parallelism == 1 {
        assert!(
            shard_spread <= 2.0,
            "shard count must be noise-neutral on a 1-core host (<= 2x spread); got {shard_spread:.2}x"
        );
    }

    // Scalar-vs-SIMD: the same 1-shard full-cycle advance with SHA-256
    // forced onto the frozen scalar reference. The state root must be
    // bit-identical, and on hosts with a SIMD backend the batched verify
    // pipeline must win >= 3x.
    let best_backend = sha256::active_backend();
    sha256::force_backend(Some(Backend::Scalar));
    let scalar_run = run_sharded_audit(SHARD_N, 1, 1);
    sha256::force_backend(None);
    assert_eq!(
        scalar_run.state_root,
        sharded[0].state_root,
        "scalar SHA-256 backend diverged from {} at n={SHARD_N}",
        best_backend.name()
    );
    let simd_speedup = scalar_run.advance_s / sharded[0].advance_s;
    println!(
        "sharded audit scalar-SHA advance {:.1} ms vs {} {:.1} ms = {simd_speedup:.2}x",
        scalar_run.advance_s * 1e3,
        best_backend.name(),
        sharded[0].advance_s * 1e3,
    );
    if best_backend != Backend::Scalar {
        assert!(
            simd_speedup >= 3.0,
            "batched {} audit pipeline speedup {simd_speedup:.2}x over scalar fell below the 3x acceptance bar",
            best_backend.name()
        );
    }

    // ------------------------------------------------------------------
    // End-to-end parallel engine: the full-cycle advance at the widest
    // configuration (8 shards, 4 ingest threads — verify fan-out, batched
    // audit commit, per-shard write flushes all engaged) against the
    // sequential 1x1 cell, with the per-phase breakdown for both.
    // ------------------------------------------------------------------
    let parallel_run = run_sharded_audit(SHARD_N, SHARD_COUNTS[2], 4);
    assert_eq!(
        parallel_run.state_root, sharded[0].state_root,
        "8-shard/4-thread engine diverged from the 1x1 engine at n={SHARD_N}"
    );
    assert_eq!(
        parallel_run.audit_root, sharded[0].audit_root,
        "8-shard/4-thread audit root diverged from the 1x1 engine at n={SHARD_N}"
    );
    let parallel_speedup = sharded[0].advance_s / parallel_run.advance_s;
    let parallel_cells = [&sharded[0], &parallel_run];
    for run in parallel_cells {
        println!(
            "parallel n={SHARD_N}: shards={} threads={} advance {:.1} ms \
             (verify {:.1} ms, fold {:.1} ms, {} commit batches)",
            run.shards,
            run.threads,
            run.advance_s * 1e3,
            run.phase.verify_s * 1e3,
            run.phase.fold_s * 1e3,
            run.audit_commit_batches,
        );
    }
    println!(
        "parallel full-cycle speedup 8x4 vs 1x1: {parallel_speedup:.2}x (available parallelism: {parallelism})"
    );

    // ------------------------------------------------------------------
    // Multi-lane SHA-256 microbenchmarks: raw digest_many throughput and
    // lockstep Merkle-path verification, scalar vs best detected backend.
    // ------------------------------------------------------------------
    let hash = run_hash_micro();
    println!(
        "hash micro: digest_many {:.0} MB/s (scalar) vs {:.0} MB/s ({}) = {:.2}x; \
         merkle paths {:.0}/s (scalar) vs {:.0}/s ({}) = {:.2}x [backends: {}]",
        hash.scalar_mb_s,
        hash.best_mb_s,
        hash.best,
        hash.best_mb_s / hash.scalar_mb_s,
        hash.scalar_paths_s,
        hash.best_paths_s,
        hash.best,
        hash.best_paths_s / hash.scalar_paths_s,
        hash.backends.join(", "),
    );

    // ------------------------------------------------------------------
    // Blockstore backends: the 100k-file fill and both snapshot
    // transports on the in-memory and append-only disk stores
    // (DESIGN.md §15). Roots must be backend-identical — the blockstore
    // is deployment configuration, not consensus input.
    // ------------------------------------------------------------------
    let store_runs = [run_store(false), run_store(true)];
    assert_eq!(
        store_runs[0].state_root, store_runs[1].state_root,
        "state root must not depend on the blockstore backend"
    );
    for r in &store_runs {
        println!(
            "store {}: fill {:.0} ms, commit {:.0} ms, full {:.1} KiB (save {:.1} ms, restore {:.1} ms), \
             delta {:.1} KiB (save {:.1} ms, restore {:.1} ms)",
            r.backend,
            r.fill_s * 1e3,
            r.commit_s * 1e3,
            r.full_bytes as f64 / 1024.0,
            r.full_save_s * 1e3,
            r.full_restore_s * 1e3,
            r.delta_bytes as f64 / 1024.0,
            r.delta_save_s * 1e3,
            r.delta_restore_s * 1e3,
        );
    }

    let store_rows: Vec<String> = store_runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"backend\": \"{}\", \"live_files\": {STORE_N}, \"delta_gap_files\": {STORE_DELTA_GAP}, \
                 \"fill_ms\": {:.3}, \"commit_ms\": {:.3}, \"full_snapshot_bytes\": {}, \"full_save_ms\": {:.3}, \
                 \"full_restore_ms\": {:.3}, \"delta_bytes\": {}, \"delta_save_ms\": {:.3}, \
                 \"delta_restore_ms\": {:.3}, \"delta_over_full_bytes\": {:.4}}}",
                r.backend,
                r.fill_s * 1e3,
                r.commit_s * 1e3,
                r.full_bytes,
                r.full_save_s * 1e3,
                r.full_restore_s * 1e3,
                r.delta_bytes,
                r.delta_save_s * 1e3,
                r.delta_restore_s * 1e3,
                r.delta_bytes as f64 / r.full_bytes as f64,
            )
        })
        .collect();

    let sharded_rows: Vec<String> = sharded
        .iter()
        .map(|r| {
            format!(
                "    {{\"shards\": {}, \"advance_full_cycle_ms\": {:.3}, \"proofs_audited\": {}, \"speedup_vs_1_shard\": {:.2}}}",
                r.shards,
                r.advance_s * 1e3,
                r.proofs_audited,
                sharded[0].advance_s / r.advance_s
            )
        })
        .collect();

    let parallel_rows: Vec<String> = parallel_cells
        .iter()
        .map(|r| {
            format!(
                "    {{\"shards\": {}, \"ingest_threads\": {}, \"advance_full_cycle_ms\": {:.3}, \
                 \"phase_verify_ms\": {:.3}, \"phase_fold_ms\": {:.3}, \"audit_commit_batches\": {}}}",
                r.shards,
                r.threads,
                r.advance_s * 1e3,
                r.phase.verify_s * 1e3,
                r.phase.fold_s * 1e3,
                r.audit_commit_batches,
            )
        })
        .collect();

    // ------------------------------------------------------------------
    // Batch ingest: INGEST_N File_Prove ops (each a modeled WindowPoSt
    // verification) through `apply` vs `apply_batch` at every
    // INGEST_CONFIGS combination. All roots must agree — sequential vs
    // pipelined at each config, and across shard/thread counts.
    // ------------------------------------------------------------------
    let ingest: Vec<IngestRun> = INGEST_CONFIGS
        .iter()
        .map(|&(shards, threads)| run_ingest(INGEST_N, shards, threads))
        .collect();
    for run in &ingest[1..] {
        assert_eq!(
            run.state_root, ingest[0].state_root,
            "({} shards, {} threads) ingest diverged from the baseline",
            run.shards, run.threads
        );
    }
    let gated = ingest.last().expect("configs measured");
    let ingest_speedup = gated.apply_s / gated.batch_s;
    for run in &ingest {
        println!(
            "ingest n={INGEST_N}: shards={} threads={} apply {:.1} ms vs apply_batch {:.1} ms = {:.2}x ({:.0} ops/s batched)",
            run.shards,
            run.threads,
            run.apply_s * 1e3,
            run.batch_s * 1e3,
            run.apply_s / run.batch_s,
            INGEST_N as f64 / run.batch_s,
        );
    }
    println!(
        "batch ingest speedup at {} shards/{} threads: {ingest_speedup:.2}x (available parallelism: {parallelism})",
        gated.shards, gated.threads
    );

    let ingest_rows: Vec<String> = ingest
        .iter()
        .map(|r| {
            format!(
                "    {{\"shards\": {}, \"ingest_threads\": {}, \"ops\": {}, \"apply_ms\": {:.3}, \"apply_batch_ms\": {:.3}, \"batch_ops_per_sec\": {:.0}, \"speedup\": {:.2}}}",
                r.shards,
                r.threads,
                INGEST_N,
                r.apply_s * 1e3,
                r.batch_s * 1e3,
                INGEST_N as f64 / r.batch_s,
                r.apply_s / r.batch_s,
            )
        })
        .collect();

    let rows: Vec<String> = results.iter().map(ScaleResult::json).collect();
    // One string, not an array: the snapshot's set of JSON paths must not
    // depend on how many backends the runner's CPU has.
    let backend_list = hash.backends.join(",");
    let json = format!(
        "{{\n  \"suite\": \"fi-core op-layer throughput: Engine::apply + advance_to, epoch wheel vs BTreeMap pending list, sharded audit pipeline, pipelined batch ingest, multi-lane SHA-256\",\n  \
           \"unit_note\": \"per-file regime: n live files, one Auto_CheckProof per timestamp across an n-tick proof cycle; advance_full_cycle = one ProofCycle advance executing every file's Auto_CheckProof (protocol work included); scheduler_churn = same task population against the bare scheduler (3 cycles, median of 3 runs) — the isolated like-for-like scheduling cost\",\n  \
           \"available_parallelism\": {parallelism},\n  \
           \"results\": [\n{}\n  ],\n  \
           \"sharded_audit\": {{\n    \"note\": \"batch regime: 100k size-1 files, every Auto_CheckProof in one wheel bucket; advance = one full proof cycle (batched multi-lane Merkle verify at audit_path_len 64 + batched per-shard audit commit when sharded), median of 3 fresh-engine runs per shard count; state and audit roots asserted identical across shard counts and vs the forced-scalar run; shard count is asserted noise-neutral (<= 2x median spread) on 1-core hosts, the >=4x 8v1 bar is gated when >=4 cores are available, and the >=3x scalar-vs-SIMD bar is gated when a SIMD backend is detected\",\n    \"available_parallelism\": {parallelism},\n    \"sha_backend\": \"{}\",\n    \"shard_spread_max_over_min\": {:.2},\n    \"scalar_sha_advance_full_cycle_ms\": {:.3},\n    \"simd_speedup_vs_scalar\": {:.2},\n    \"runs\": [\n{}\n    ]\n  }},\n  \
           \"hash\": {{\n    \"note\": \"multi-lane SHA-256 micro: digest_many over 8192 x 1KiB messages (MB/s) and lockstep Merkle authentication-path verification over 4096 proofs against a 4096-leaf tree (paths/s), frozen scalar reference vs best detected backend, median of 3; digests asserted identical before timing\",\n    \"backends_available\": \"{backend_list}\",\n    \"best_backend\": \"{}\",\n    \"digest_many_scalar_mb_s\": {:.1},\n    \"digest_many_best_mb_s\": {:.1},\n    \"digest_many_speedup\": {:.2},\n    \"merkle_paths_scalar_per_sec\": {:.0},\n    \"merkle_paths_best_per_sec\": {:.0},\n    \"merkle_paths_speedup\": {:.2}\n  }},\n  \
           \"ingest\": {{\n    \"note\": \"batch ingest: 50k File_Prove ops (modeled WindowPoSt verification, audit_path_len 64) as one shard-local segment; apply = op-by-op sequential loop, apply_batch = parallel staging + sequential in-order commit; state roots and block hashes asserted identical between both paths and across all configs; the >=4x bar on the last (8-shard/4-thread) row is gated when >=4 cores are available\",\n    \"available_parallelism\": {parallelism},\n    \"runs\": [\n{}\n    ]\n  }},\n  \
           \"parallel\": {{\n    \"note\": \"end-to-end parallel engine: the 100k-file one-bucket full-cycle advance at (1 shard, 1 ingest thread) vs (8 shards, 4 ingest threads) on the persistent worker pool — verify fan-out plus batched per-shard audit commit; phase_* are Engine::phase_times wall-clock ms for one sampled advance; state and audit roots asserted bit-identical between the cells; the >=4x speedup bar is gated when >=4 cores are available\",\n    \"available_parallelism\": {parallelism},\n    \"speedup_8x4_vs_1x1\": {parallel_speedup:.2},\n    \"runs\": [\n{}\n    ]\n  }},\n  \
           \"store\": {{\n    \"note\": \"content-addressed state commitment (DESIGN.md \\u00a715): 100k size-1 files filled with the five HAMT state trees on each blockstore backend; commit = the state_roots() flush that drains every dirty key and folds the root; full = FISNAPSH save/restore, delta = FIDELTA1 against a base 1k files back (only the trie nodes on changed paths ship); state roots asserted bit-identical across backends and after both round-trips, and the delta asserted strictly smaller than the full snapshot\",\n    \"roots_identical\": true,\n    \"runs\": [\n{}\n    ]\n  }}\n}}\n",
        rows.join(",\n"),
        best_backend.name(),
        shard_spread,
        scalar_run.advance_s * 1e3,
        simd_speedup,
        sharded_rows.join(",\n"),
        hash.best,
        hash.scalar_mb_s,
        hash.best_mb_s,
        hash.best_mb_s / hash.scalar_mb_s,
        hash.scalar_paths_s,
        hash.best_paths_s,
        hash.best_paths_s / hash.scalar_paths_s,
        ingest_rows.join(",\n"),
        parallel_rows.join(",\n"),
        store_rows.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    println!("wrote {out_path}");

    // Acceptance bar: at 100k live files the epoch wheel must beat the
    // pre-refactor per-file BTreeMap scheduler by >= 3x like-for-like.
    let top = results.last().expect("scales measured");
    let churn = top.churn_speedup();
    assert!(
        churn >= 3.0,
        "scheduler churn speedup {churn:.2}x at {}k files fell below the 3x acceptance bar",
        top.n / 1_000
    );

    // Acceptance bar: the 8-shard engine must finish the full-cycle
    // advance >= 4x faster than the 1-shard engine at 100k files (the bar
    // tightened from 2x once the audit commit fold joined the verify
    // fan-out on the worker pool). Parallelism needs real cores to win,
    // so the bar applies where CI runs (>= 4 cores); elsewhere the
    // measurement is recorded above.
    if parallelism >= 4 {
        assert!(
            sharded_speedup >= 4.0,
            "sharded audit speedup {sharded_speedup:.2}x at 8 shards fell below the 4x acceptance bar"
        );
    } else {
        println!(
            "note: {parallelism} core(s) available — the >=4x sharded-audit bar is gated on >=4-core hosts (CI)"
        );
    }

    // Acceptance bar: pipelined batch ingest at 8 shards / 4 ingest
    // threads must beat the op-by-op apply loop >= 4x on the same batch
    // (tightened from 2x with the persistent pool replacing per-segment
    // thread spawns). Like the audit bar, it needs real cores; elsewhere
    // the measurement is recorded above (available_parallelism makes
    // 1-core runs self-explanatory).
    if parallelism >= 4 {
        assert!(
            ingest_speedup >= 4.0,
            "batch ingest speedup {ingest_speedup:.2}x at {} shards/{} threads fell below the 4x acceptance bar",
            gated.shards,
            gated.threads
        );
    } else {
        println!(
            "note: {parallelism} core(s) available — the >=4x batch-ingest bar is gated on >=4-core hosts (CI)"
        );
    }

    // Acceptance bar: the fully parallel cell (8 shards, 4 ingest
    // threads, verify fan-out + batched audit commit) must complete the
    // full-cycle advance >= 4x faster than the sequential 1x1 cell on
    // >= 4-core hosts; on smaller hosts the cells are still asserted
    // bit-identical above and the numbers recorded.
    if parallelism >= 4 {
        assert!(
            parallel_speedup >= 4.0,
            "parallel full-cycle speedup {parallel_speedup:.2}x at 8 shards/4 threads fell below the 4x acceptance bar"
        );
    } else {
        println!(
            "note: {parallelism} core(s) available — the >=4x parallel full-cycle bar is gated on >=4-core hosts (CI)"
        );
    }
}
