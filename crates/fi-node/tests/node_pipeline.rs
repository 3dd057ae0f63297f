//! End-to-end node-pipeline tests: mempool → beacon-rotated proposers →
//! `apply_batch` → sealed blocks over a lossy, jittery `fi-net` world →
//! fork-choice adoption on every node.
//!
//! The acceptance bar this file carries: a cluster of rotating validators
//! stays bit-identical (`state_root`, head hash and receipt root at the
//! final height) across ≥200 slots under nonzero loss and jitter, with
//! leadership actually spread across the set; and a watcher that
//! cold-starts mid-run from a validator's on-demand snapshot converges to
//! the same root. What used to be this file's divergence-only checks
//! (competing histories under different randomness) now *converge*: the
//! fork-choice resolves every race to one chain per run.
//!
//! `FI_NODE_TEST_SEED` (CI's loss/jitter seed matrix) offsets every world
//! seed, so each CI cell exercises a different loss/reorder pattern.

use fi_chain::account::{AccountId, TokenAmount};
use fi_chain::gas::GasSchedule;
use fi_core::engine::{Engine, StateView};
use fi_core::ops::Op;
use fi_core::params::ProtocolParams;
use fi_net::link::LinkModel;
use fi_node::{
    build_cluster, cluster_horizon, genesis_engine, run_cluster, AdmitError, ClusterConfig,
    Mempool, Tx, WorkloadConfig,
};

/// Base seed, offset by the CI matrix's `FI_NODE_TEST_SEED`.
fn seed(base: u64) -> u64 {
    let offset = std::env::var("FI_NODE_TEST_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    base + 1_000 * offset
}

/// A lossy, jittery link fast enough that blocks land within a slot or
/// two (confirm windows stay satisfiable while reordering still happens).
fn chaos_link(loss: f64) -> LinkModel {
    LinkModel {
        base_latency: 5,
        ticks_per_byte: 0.001,
        max_jitter: 8,
        loss,
    }
}

fn chaos_cluster(base_seed: u64, slots: u64, loss: f64) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(seed(base_seed), slots);
    // Generous transfer windows: the client's replica view lags the chain
    // by network latency, so confirms land several slots after the add.
    cfg.params.delay_per_size = 25;
    cfg.link = chaos_link(loss);
    cfg
}

/// Asserts every validator (and optionally the watcher) ended on one
/// bit-identical chain, returning the agreed `(height, state_root)`.
fn assert_converged(reports: &fi_node::ClusterReports) -> (u64, fi_crypto::Hash256) {
    let reference = reports.validators[0].borrow();
    let height = reference.final_height;
    let root = reference.final_state_root.expect("validator 0 finished");
    let head = reference.final_head.expect("validator 0 has a head");
    let receipts = reference.final_receipt_root;
    drop(reference);
    for (i, report) in reports.validators.iter().enumerate() {
        let report = report.borrow();
        assert_eq!(report.final_height, height, "validator {i} height");
        assert_eq!(report.final_head, Some(head), "validator {i} head hash");
        assert_eq!(
            report.final_state_root,
            Some(root),
            "validator {i} state root"
        );
        assert_eq!(
            report.final_receipt_root, receipts,
            "validator {i} receipt root"
        );
    }
    (height, root)
}

#[test]
fn rotating_validators_stay_bit_identical_across_200_slots_under_loss() {
    let slots = 220;
    let cfg = chaos_cluster(0xB10C, slots, 0.12);
    let (world, reports) = run_cluster(&cfg);

    assert!(
        world.messages_lost() > 0,
        "the link actually dropped messages"
    );
    let (height, root) = assert_converged(&reports);
    assert!(
        height >= slots - 5,
        "nearly every slot filled: height {height} of {slots}"
    );

    // Leadership genuinely rotated: several validators proposed, and
    // together they produced at least one block per adopted height.
    let proposed: Vec<u64> = reports
        .validators
        .iter()
        .map(|r| r.borrow().blocks_proposed)
        .collect();
    assert!(
        proposed.iter().filter(|&&p| p > 0).count() >= 2,
        "proposals spread across validators: {proposed:?}"
    );
    assert!(proposed.iter().sum::<u64>() >= height);

    // The workload driver's replica reached the same state.
    let client = reports.client.borrow();
    assert!(client.txs_submitted > slots, "the workload actually ran");
    assert_eq!(client.final_height, height, "client replica height");
    assert_eq!(
        client.final_state_root,
        Some(root),
        "client replica state root"
    );
}

#[test]
fn replay_modes_agree_per_height() {
    // ClusterConfig::small mixes one apply_batch replayer among op-by-op
    // validators: convergence across them transitively proves
    // apply-vs-apply_batch equality on every adopted block, heavy loss,
    // retransmits and duplicate deliveries included.
    let cfg = chaos_cluster(0xA11B, 60, 0.2);
    let (world, reports) = run_cluster(&cfg);
    let (height, _root) = assert_converged(&reports);
    assert!(height >= 50, "production survived 20% loss: {height}");
    assert!(world.messages_lost() > 0);
}

#[test]
fn cold_start_watcher_converges_from_snapshot() {
    let slots = 200;
    let mut cfg = chaos_cluster(0x1013, slots, 0.1);
    cfg.cold_join_at = Some(slots / 2 * cfg.params.block_interval);
    let (_world, reports) = run_cluster(&cfg);

    let (height, root) = assert_converged(&reports);
    let serves: u64 = reports
        .validators
        .iter()
        .map(|r| r.borrow().joins_served)
        .sum();
    assert!(serves >= 1, "some validator served the join");

    let watcher = reports.watcher.as_ref().expect("watcher configured");
    let watcher = watcher.borrow();
    let joined_at = watcher.joined_at_height.expect("watcher synced");
    assert!(
        joined_at >= 1 && joined_at < slots,
        "joined mid-run at height {joined_at}"
    );
    assert_eq!(watcher.final_height, height, "watcher caught up");
    assert_eq!(
        watcher.final_state_root,
        Some(root),
        "watcher converged to the cluster root"
    );
    assert_eq!(
        watcher.blocks_proposed, 0,
        "a watcher never proposes (the schedule does not rank it)"
    );
}

#[test]
fn head_engines_hold_no_events_and_report_their_work() {
    // `Engine::events` is a buffer for whoever drains it, and nothing in a
    // node does: left alone it grew — and was cloned with the engine — for
    // the life of the validator. Stepped slot by slot over 300 slots, with
    // the delta-updated report fields checked at every pause.
    let slots = 300;
    let mut cfg = chaos_cluster(0xE7E7, slots, 0.1);
    cfg.cold_join_at = Some(slots / 2 * cfg.params.block_interval);
    cfg.record_op_log = true;
    let (mut world, reports) = build_cluster(&cfg);
    let nodes = || reports.validators.iter().chain(&reports.watcher);
    for slot in 1..=slots + 40 {
        world.run_until((slot * cfg.params.block_interval).min(cluster_horizon(&cfg)));
        for report in nodes() {
            let report = report.borrow();
            assert_eq!(report.engine_events_held, 0, "events at slot {slot}");
            // The spine in the report is the adopted chain, whenever the
            // world is paused.
            if let Some(&(height, hash)) = report.final_chain.last() {
                assert_eq!(
                    (height, Some(hash)),
                    (report.final_height, report.final_head)
                );
            }
            assert!(report
                .final_chain
                .windows(2)
                .all(|pair| pair[1].0 == pair[0].0 + 1));
        }
    }
    let (height, root) = assert_converged(&reports);
    assert!(height >= slots - 10);
    for report in &reports.validators {
        let report = report.borrow();
        let work = report.work;
        assert!(
            work.blocks_replayed >= height,
            "every adopted block replayed"
        );
        assert!(work.ops_digested > work.blocks_replayed);
        assert!(work.engine_clones > 0 && work.fork_choice_steps > 0);
        // A validator that never checkpointed for a joiner holds the whole
        // log: the deltas added up to the run. (Debug builds also assert
        // the report's log equals the head engine's on every head change.)
        if report.snapshots_taken == 0 {
            let replayed = Engine::replay(cfg.params.clone(), &report.final_op_log).expect("valid");
            assert_eq!(replayed.state_root(), root);
        }
    }
}

#[test]
fn same_seed_runs_reproduce_identical_consensus() {
    let run = || {
        let cfg = chaos_cluster(0xDE7, 50, 0.15);
        let (_world, reports) = run_cluster(&cfg);
        let v0 = reports.validators[0].borrow();
        (
            v0.heads.clone(),
            v0.final_state_root,
            v0.final_chain.clone(),
        )
    };
    assert_eq!(run(), run());
}

/// `shards` and `ingest_threads` are performance settings, never
/// consensus ones: the same cluster run at every cell of {1, 8} × {1, 4}
/// adopts the same `(height, block hash)` history (DESIGN.md §9–10).
#[test]
fn cluster_history_is_identical_across_shards_and_threads() {
    let slots = 120;
    let run = |shards: usize, threads: usize| {
        let mut cfg = chaos_cluster(0xBE9C4, slots, 0.1);
        cfg.params.shards = shards;
        cfg.params.ingest_threads = threads;
        cfg.workload = WorkloadConfig {
            max_files: 120,
            get_prob: 0.5,
            ..WorkloadConfig::default()
        };
        let (_world, reports) = run_cluster(&cfg);
        let (height, _root) = assert_converged(&reports);
        assert!(
            height >= slots - 10,
            "({shards},{threads}): chain stalled at {height} of {slots}"
        );
        let chain = reports.validators[0].borrow().final_chain.clone();
        chain
    };
    let reference = run(1, 1);
    for (shards, threads) in [(1, 4), (8, 1), (8, 4)] {
        assert_eq!(
            run(shards, threads),
            reference,
            "({shards},{threads}) history diverged from (1,1)"
        );
    }
}

#[test]
fn different_seeds_diverge_across_runs_but_converge_within_each() {
    // The PR 5 version of this test could only show different seeds
    // producing different histories; with rotation and fork-choice the
    // interesting half is that *within* every run, whatever races the
    // randomness produces resolve to one chain on every node.
    let run = |base: u64| {
        let cfg = chaos_cluster(base, 50, 0.15);
        let (_world, reports) = run_cluster(&cfg);
        let (_height, root) = assert_converged(&reports);
        root
    };
    let a = run(0x5EED_0001);
    let b = run(0x5EED_0002);
    // Different beacons rotate different leaders over different losses…
    assert_ne!(a, b, "independent seeds diverge in history");
    // …while assert_converged above proved each run resolved via
    // fork-choice to a single bit-identical chain.
}

#[test]
fn replaying_the_op_log_reproduces_the_networked_run() {
    // The whole networked run is just an op sequence: replaying one
    // validator's head-engine log (genesis included; no watcher, so no
    // join-serving checkpoint truncates it) on a fresh engine reproduces
    // the final consensus state.
    let mut cfg = chaos_cluster(0x4EB1A4, 40, 0.1);
    cfg.record_op_log = true;
    let (_world, reports) = run_cluster(&cfg);
    let (_height, root) = assert_converged(&reports);
    let v0 = reports.validators[0].borrow();
    let replayed = Engine::replay(cfg.params.clone(), &v0.final_op_log).expect("params valid");
    assert_eq!(replayed.state_root(), root);
    // And an independently rebuilt genesis is the same starting point the
    // whole cluster shared.
    let (genesis, _) = genesis_engine(&cfg.params, &cfg.providers, cfg.client);
    assert_eq!(
        genesis.state_root(),
        Engine::replay(
            cfg.params.clone(),
            &v0.final_op_log[..genesis.op_log().len()]
        )
        .expect("params valid")
        .state_root()
    );
}

// ----------------------------------------------------------------------
// Mempool ↔ engine edge cases (the admission-vs-commit satellite).
// ----------------------------------------------------------------------

const PROVIDER: AccountId = AccountId(50);
const SPENDER: AccountId = AccountId(60);

/// An engine + mempool pair in the parallel-ingest configuration, with a
/// provider sector and a funded spender holding `n` live files.
fn ingest_fixture(n: u64) -> (Engine, Mempool, Vec<fi_core::types::FileId>) {
    let params = ProtocolParams {
        k: 1,
        shards: 8,
        ingest_threads: 4,
        ..ProtocolParams::default()
    };
    let mut engine = Engine::new(params.clone()).expect("valid params");
    engine.fund(PROVIDER, TokenAmount(1_000_000_000));
    engine.fund(SPENDER, TokenAmount(1_000_000_000));
    let capacity = (2 * n).div_ceil(64).max(1) * 64;
    engine.sector_register(PROVIDER, capacity).expect("sector");
    let mut files = Vec::new();
    for i in 0..n {
        let file = engine
            .file_add(
                SPENDER,
                1,
                params.min_value,
                fi_crypto::sha256(format!("edge-{i}").as_bytes()),
            )
            .expect("file added");
        for (idx, s) in engine.pending_confirms(file) {
            engine
                .file_confirm(PROVIDER, file, idx, s)
                .expect("confirm");
        }
        files.push(file);
    }
    engine.advance_to(engine.now() + 2);
    assert_eq!(engine.file_ids().len() as u64, n);
    let mempool = Mempool::new(params, GasSchedule::default());
    (engine, mempool, files)
}

#[test]
fn mid_block_insolvency_falls_back_like_sequential_apply() {
    let (engine, mut mempool, files) = ingest_fixture(100);

    // 100 gas-charged File_Get reads pass admission against the current
    // balance…
    for (nonce, &file) in files.iter().enumerate() {
        mempool
            .admit(
                Tx {
                    from: SPENDER,
                    nonce: nonce as u64,
                    fee: TokenAmount(1),
                    op: Op::FileGet {
                        caller: SPENDER,
                        file,
                    },
                },
                engine.ledger(),
            )
            .expect("admission against the funded balance");
    }

    // …then the account is drained on-chain before the block commits:
    // admission was a snapshot-in-time heuristic, commit is authoritative.
    let mut proposer_engine = engine.clone();
    proposer_engine.burn_for_test(SPENDER, proposer_engine.ledger().balance(SPENDER));

    let (txs, _gas) = mempool.select_block();
    assert_eq!(txs.len(), 100);
    let mut ops: Vec<Op> = txs.into_iter().map(|tx| tx.op).collect();
    ops.push(Op::AdvanceTo {
        target: proposer_engine.now() + proposer_engine.params().block_interval,
    });

    // The staged parallel ingest (≥64-op shard-local segment at 8 shards /
    // 4 threads) must fall back exactly like the sequential path.
    let mut sequential = proposer_engine.clone();
    for op in ops.clone() {
        let _ = sequential.apply(op);
    }
    let results = proposer_engine.apply_batch(ops);
    let failed = results.iter().filter(|r| r.is_err()).count();
    assert_eq!(failed, 100, "every drained read failed at commit");
    assert_eq!(proposer_engine.state_root(), sequential.state_root());
    assert_eq!(
        proposer_engine.chain().head_hash(),
        sequential.chain().head_hash()
    );
    assert_eq!(proposer_engine.op_log(), sequential.op_log());
}

#[test]
fn insolvency_at_admission_rejects_what_commit_would_reject() {
    let (mut engine, mut mempool, files) = ingest_fixture(1);
    let file = files[0];
    engine.burn_for_test(SPENDER, engine.ledger().balance(SPENDER));
    // Now the same submission is refused up front.
    let err = mempool
        .admit(
            Tx {
                from: SPENDER,
                nonce: 0,
                fee: TokenAmount(1),
                op: Op::FileGet {
                    caller: SPENDER,
                    file,
                },
            },
            engine.ledger(),
        )
        .unwrap_err();
    assert!(matches!(err, AdmitError::InsufficientFunds { .. }));
    assert_eq!(mempool.stats().rejected_funds, 1);
}

#[test]
fn duplicate_op_rejected_in_pool_but_committed_duplicate_fails_on_chain() {
    let (mut engine, mut mempool, _files) = ingest_fixture(1);
    // A fresh add so there is a pending confirm to duplicate.
    let file = engine
        .file_add(
            SPENDER,
            1,
            engine.params().min_value,
            fi_crypto::sha256(b"dup"),
        )
        .expect("added");
    let (index, sector) = engine.pending_confirms(file)[0];
    let confirm = Op::FileConfirm {
        caller: PROVIDER,
        file,
        index,
        sector,
    };
    let tx = |nonce| Tx {
        from: PROVIDER,
        nonce,
        fee: TokenAmount(1),
        op: confirm.clone(),
    };
    mempool.admit(tx(0), engine.ledger()).expect("first admit");
    // While queued, the identical op is a pool-level duplicate.
    assert_eq!(
        mempool.admit(tx(1), engine.ledger()),
        Err(AdmitError::DuplicateOp)
    );
    let (txs, _) = mempool.select_block();
    assert_eq!(txs.len(), 1);
    assert!(engine.apply(txs[0].op.clone()).is_ok());
    // Once committed the pool no longer knows it: the duplicate admits
    // (under a fresh nonce — the rejected submission burned nonce 1) —
    // and fails at commit like any stale request, burning its gas.
    mempool.admit(tx(2), engine.ledger()).expect("re-admitted");
    let (txs, _) = mempool.select_block();
    let result = engine.apply(txs[0].op.clone());
    assert!(result.is_err(), "double confirm rejected by the engine");
    assert!(!engine.op_log().last().expect("logged").ok);
}
