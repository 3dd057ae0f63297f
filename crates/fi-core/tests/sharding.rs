//! Parallel-vs-sequential consensus equivalence: an engine with
//! `ProtocolParams::shards > 1`, which turns on the parallel audit verify
//! and staged ingest paths, must be *bit-identical* to the 1-shard
//! engine, which runs them sequentially — same state roots, same chain
//! head, same stats — because every parallel phase is pure and the
//! commit runs in the one wheel's `(time, schedule-seq)` pop order
//! (DESIGN.md §9).
//!
//! Randomized workloads with faults, refreshes, punishments and losses
//! cover the protocol surface at test-friendly scale.

use fi_chain::account::{AccountId, TokenAmount};
use fi_core::engine::{Engine, EngineError, StateView};
use fi_core::params::ProtocolParams;
use fi_core::types::SectorState;
use fi_crypto::sha256::{self, sha256};
use fi_crypto::DetRng;

const CLIENT: AccountId = AccountId(900);
const PROVIDERS: [AccountId; 3] = [AccountId(700), AccountId(701), AccountId(702)];

fn sharded_params(shards: usize) -> ProtocolParams {
    ProtocolParams {
        k: 3,
        delay_per_size: 6,
        avg_refresh: 6.0,
        shards,
        ..ProtocolParams::default()
    }
}

/// Drives the identical randomized workload (adds, confirms, proofs,
/// discards, faults, time advances) through an engine — every stochastic
/// choice comes from the caller's seed, not the engine, so two engines
/// differing only in shard count receive byte-identical op sequences.
fn drive_random_workload(engine: &mut Engine, seed: u64, steps: u64) {
    let mut rng = DetRng::from_seed_label(seed, "sharding-workload");
    engine.fund(CLIENT, TokenAmount(500_000_000));
    for p in PROVIDERS {
        engine.fund(p, TokenAmount(1_000_000_000_000));
        for _ in 0..2 {
            engine
                .sector_register(p, 640 * (1 + rng.below(3)))
                .expect("registration");
        }
    }
    for step in 0..steps {
        match rng.below(10) {
            0..=3 => {
                let size = 1 + rng.below(40);
                let root = sha256(&(seed ^ step).to_be_bytes());
                let _ = engine.file_add(CLIENT, size, engine.params().min_value, root);
            }
            4..=6 => {
                engine.honest_providers_act();
            }
            7 => {
                let ids = engine.file_ids();
                if !ids.is_empty() {
                    let f = ids[(rng.below(ids.len() as u64)) as usize];
                    let _ = engine.file_discard(CLIENT, f);
                }
            }
            8 => {
                let ids = engine.sector_ids();
                if !ids.is_empty() {
                    let s = ids[(rng.below(ids.len() as u64)) as usize];
                    if engine.sector(s).map(|x| x.state) == Some(SectorState::Normal) {
                        if rng.below(2) == 0 {
                            engine.fail_sector_silently(s);
                        } else {
                            engine.corrupt_sector_now(s);
                        }
                    }
                }
            }
            _ => {
                engine.advance_to(engine.now() + 10 + rng.below(150));
            }
        }
    }
    engine.honest_providers_act();
    engine.advance_to(engine.now() + engine.params().proof_cycle * 3);
}

fn assert_consensus_identical(a: &Engine, b: &Engine) {
    assert_eq!(
        a.state_root(),
        b.state_root(),
        "state roots diverged between {} and {} shards",
        a.params().shards,
        b.params().shards
    );
    assert_eq!(a.audit_root(), b.audit_root(), "audit roots diverged");
    assert_eq!(a.chain().head_hash(), b.chain().head_hash());
    // Execution-strategy counters (parallel staging and its fallbacks)
    // legitimately differ with the shard count; consensus state and
    // protocol counters must not.
    assert_eq!(a.stats().consensus(), b.stats().consensus());
    assert_eq!(a.file_ids(), b.file_ids());
    assert_eq!(a.sector_ids(), b.sector_ids());
    assert_eq!(a.ledger().total_supply(), b.ledger().total_supply());
    assert_eq!(a.pending_task_count(), b.pending_task_count());
}

/// The tentpole invariant: randomized workloads produce bit-identical
/// consensus state at 1, 4 and 8 shards.
#[test]
fn random_workloads_identical_across_shard_counts() {
    for seed in [3u64, 21, 77] {
        let mut baseline = Engine::new(sharded_params(1)).expect("valid params");
        drive_random_workload(&mut baseline, seed, 60);
        assert!(
            baseline.stats().punishments > 0 || baseline.stats().files_lost > 0,
            "seed {seed}: workload too tame to exercise the audit paths"
        );
        for shards in [4usize, 8] {
            let mut sharded = Engine::new(sharded_params(shards)).expect("valid params");
            drive_random_workload(&mut sharded, seed, 60);
            assert_consensus_identical(&baseline, &sharded);
        }
    }
}

/// A bucket big enough to cross the parallel-verify threshold (64
/// `Auto_CheckProof` tasks on one timestamp) must still produce identical
/// state: the pool fan-out is semantically invisible, and so is the
/// SHA-256 backend that walks the audit paths.
#[test]
fn large_same_timestamp_bucket_parallel_verify_is_identical() {
    let run = |shards: usize| -> Engine {
        let params = ProtocolParams {
            k: 2,
            shards,
            ..ProtocolParams::default()
        };
        let mut engine = Engine::new(params).expect("valid params");
        let provider = AccountId(100);
        engine.fund(provider, TokenAmount(u128::MAX / 4));
        engine.fund(CLIENT, TokenAmount(u128::MAX / 4));
        for _ in 0..8 {
            engine.sector_register(provider, 6400).expect("register");
        }
        // 200 size-1 files added at the same instant: one CheckAlloc
        // bucket, then one 200-task CheckProof bucket per cycle.
        for i in 0..200u64 {
            let root = sha256(&i.to_be_bytes());
            let f = engine
                .file_add(CLIENT, 1, engine.params().min_value, root)
                .expect("add");
            for (idx, s) in engine.pending_confirms(f) {
                engine.file_confirm(provider, f, idx, s).expect("confirm");
            }
        }
        for _ in 0..3 {
            engine.honest_providers_act();
            engine.advance_to(engine.now() + engine.params().proof_cycle);
        }
        engine
    };
    let one = run(1);
    assert_eq!(one.file_ids().len(), 200);
    assert!(
        one.stats().proofs_audited >= 400,
        "verify phase must audit replica proofs: {:?}",
        one.stats()
    );
    for shards in [4usize, 8] {
        assert_consensus_identical(&one, &run(shards));
    }
    // The override is process-wide; tests running alongside observe it
    // harmlessly, since every backend produces identical digests.
    for &backend in sha256::available_backends() {
        sha256::force_backend(Some(backend));
        let forced = run(8);
        sha256::force_backend(None);
        assert_consensus_identical(&one, &forced);
    }
}

/// `shards = 1` runs every phase sequentially: the audit verify phase
/// runs inline and still audits and counts.
#[test]
fn single_shard_degenerates_to_unsharded_behavior() {
    let mut engine = Engine::new(sharded_params(1)).expect("valid params");
    drive_random_workload(&mut engine, 5, 40);
    // Everything still routes: files live, tasks pending, stats counted.
    assert!(engine.pending_task_count() > 0);
    let stats = engine.stats();
    assert!(stats.proofs_accepted > 0);
    assert!(stats.proofs_audited > 0, "audits run at one shard too");
}

/// Strided id allocation: ids come from one global counter, so no two
/// files ever collide on an id, and the `FileId % n` groups batch staging
/// cuts a segment into stay balanced.
#[test]
fn strided_file_ids_never_collide_and_stay_balanced() {
    let params = ProtocolParams {
        k: 2,
        shards: 5,
        ..ProtocolParams::default()
    };
    let mut engine = Engine::new(params).expect("valid params");
    let provider = AccountId(100);
    engine.fund(provider, TokenAmount(u128::MAX / 4));
    engine.fund(CLIENT, TokenAmount(u128::MAX / 4));
    for _ in 0..4 {
        engine.sector_register(provider, 6400).expect("register");
    }
    let mut ids = Vec::new();
    for i in 0..103u64 {
        let root = sha256(&i.to_be_bytes());
        ids.push(
            engine
                .file_add(CLIENT, 1, engine.params().min_value, root)
                .expect("add"),
        );
    }
    let unique: std::collections::HashSet<_> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "file ids must never collide");
    // Consecutive allocations walk the groups round-robin, so per-group
    // counts differ by at most one.
    let mut per_shard = [0u64; 5];
    for f in &ids {
        per_shard[(f.0 % 5) as usize] += 1;
    }
    let (min, max) = (
        *per_shard.iter().min().unwrap(),
        *per_shard.iter().max().unwrap(),
    );
    assert!(max - min <= 1, "stride imbalance: {per_shard:?}");
}

/// Ops targeting a removed file return the same typed error no matter
/// which shard the id routes to or how many shards the engine runs.
#[test]
fn removed_file_errors_identical_across_shard_counts() {
    let removed_file_errors = |shards: usize| -> Vec<EngineError> {
        let params = ProtocolParams {
            k: 2,
            shards,
            ..ProtocolParams::default()
        };
        let mut engine = Engine::new(params).expect("valid params");
        let provider = AccountId(100);
        engine.fund(provider, TokenAmount(1_000_000_000));
        engine.fund(CLIENT, TokenAmount(1_000_000));
        let sector = engine.sector_register(provider, 640).expect("register");
        // A handful of files so the probed ids land on different shards.
        let mut files = Vec::new();
        for i in 0..6u64 {
            let root = sha256(&i.to_be_bytes());
            let f = engine
                .file_add(CLIENT, 1, engine.params().min_value, root)
                .expect("add");
            for (idx, s) in engine.pending_confirms(f) {
                engine.file_confirm(provider, f, idx, s).expect("confirm");
            }
            files.push(f);
        }
        engine.advance_to(engine.now() + engine.params().transfer_window(1) + 1);
        for &f in &files {
            engine.file_discard(CLIENT, f).expect("discard");
        }
        // The next CheckProof removes them all.
        engine.advance_to(engine.now() + engine.params().proof_cycle * 2);
        assert!(engine.file_ids().is_empty(), "files must be removed");
        let mut errors = Vec::new();
        for &f in &files {
            errors.push(engine.file_get(CLIENT, f).unwrap_err());
            errors.push(engine.file_discard(CLIENT, f).unwrap_err());
            errors.push(engine.file_confirm(provider, f, 0, sector).unwrap_err());
            errors.push(engine.file_prove(provider, f, 0, sector).unwrap_err());
        }
        errors
    };
    let baseline = removed_file_errors(1);
    for err in &baseline {
        assert!(
            matches!(err, EngineError::UnknownFile(_)),
            "expected UnknownFile, got {err:?}"
        );
    }
    for shards in [4usize, 8] {
        assert_eq!(
            baseline,
            removed_file_errors(shards),
            "typed errors diverged at {shards} shards"
        );
    }
}
