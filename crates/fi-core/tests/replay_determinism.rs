//! Op-log replay determinism: a random workload driven through the typed
//! transaction layer, replayed from the log into a fresh engine, must
//! reproduce the same `state_root()` at every block — the property that
//! makes the op log the canonical ledger history.

use fi_chain::account::{AccountId, TokenAmount};
use fi_chain::tasks::SchedulerKind;
use fi_core::engine::{
    Engine, EngineError, StateHeader, StateView, COMPENSATION_POOL, DEPOSIT_ESCROW, RENT_POOL,
    TRAFFIC_ESCROW,
};
use fi_core::ops::Op;
use fi_core::params::{ParamError, ProtocolParams};
use fi_core::types::{SectorId, SectorState};
use fi_crypto::{sha256, DetRng};

const CLIENT: AccountId = AccountId(900);
const PROVIDERS: [AccountId; 3] = [AccountId(700), AccountId(701), AccountId(702)];

fn random_workload(seed: u64, params: &ProtocolParams) -> Engine {
    let mut engine = Engine::new(params.clone()).expect("valid params");
    let mut rng = DetRng::from_seed_label(seed, "replay-workload");
    engine.fund(CLIENT, TokenAmount(500_000_000));
    for p in PROVIDERS {
        engine.fund(p, TokenAmount(1_000_000_000_000));
        for _ in 0..2 {
            engine
                .sector_register(p, 640 * (1 + rng.below(3)))
                .expect("registration");
        }
    }
    for step in 0..60u64 {
        match rng.below(10) {
            0..=3 => {
                // File adds (sometimes unaffordable sizes → failed op,
                // which must also replay identically).
                let size = 1 + rng.below(40);
                let root = sha256(&(seed ^ step).to_be_bytes());
                let _ = engine.file_add(CLIENT, size, engine.params().min_value, root);
            }
            4..=6 => {
                engine.honest_providers_act();
            }
            7 => {
                // Discard a random live file (or fail on a bogus id).
                let ids = engine.file_ids();
                if !ids.is_empty() {
                    let f = ids[(rng.below(ids.len() as u64)) as usize];
                    let _ = engine.file_discard(CLIENT, f);
                }
            }
            8 => {
                // Fault injection.
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
    engine
}

fn assert_replay_matches(original: &Engine, params: ProtocolParams) {
    let replayed = Engine::replay(params, original.op_log()).expect("params valid");
    // Same state root, height and chain head — the head hash folds in
    // every sealed block's parent, state root, event digests, op batch and
    // receipt root, so equal heads are equal histories.
    assert_eq!(replayed.state_root(), original.state_root());
    assert_eq!(replayed.chain().height(), original.chain().height());
    assert_eq!(replayed.chain().head_hash(), original.chain().head_hash());
    assert_eq!(
        replayed.chain().last_block(),
        original.chain().last_block(),
        "last block header"
    );
    // Observable protocol outcomes match too.
    assert_eq!(replayed.stats(), original.stats());
    assert_eq!(replayed.file_ids(), original.file_ids());
    assert_eq!(replayed.sector_ids(), original.sector_ids());
    assert_eq!(
        replayed.ledger().total_supply(),
        original.ledger().total_supply()
    );
}

#[test]
fn random_workloads_replay_to_identical_chains() {
    for seed in [1u64, 7, 42] {
        let params = ProtocolParams {
            k: 3,
            delay_per_size: 6,
            avg_refresh: 6.0,
            ..ProtocolParams::default()
        };
        let engine = random_workload(seed, &params);
        assert!(
            engine.op_log().iter().any(|r| !r.ok),
            "seed {seed}: workload should include failed ops (they replay too)"
        );
        assert_replay_matches(&engine, params);
    }
}

#[test]
fn replay_is_scheduler_agnostic() {
    // Per-interval and per-tick buckets execute tasks identically, so a
    // log recorded under one width replays to the same chain under the
    // other.
    let wheel_params = ProtocolParams {
        k: 3,
        delay_per_size: 6,
        scheduler: SchedulerKind::Wheel,
        ..ProtocolParams::default()
    };
    let btree_params = ProtocolParams {
        scheduler: SchedulerKind::BTree,
        ..wheel_params.clone()
    };
    let engine = random_workload(99, &wheel_params);
    assert_replay_matches(&engine, btree_params);
}

/// Checkpoint + truncate bounds op-log growth without losing replayability:
/// a snapshot taken at the checkpoint plus the post-checkpoint log suffix
/// rebuilds the exact engine — state root, chain head, stats — and the
/// checkpoint itself is invisible to consensus (roots commit to the
/// monotonic op counter, not the log length).
#[test]
fn replay_from_checkpoint_is_deterministic() {
    for seed in [4u64, 19] {
        let params = ProtocolParams {
            k: 3,
            delay_per_size: 6,
            avg_refresh: 6.0,
            ..ProtocolParams::default()
        };
        // Build the first half of the workload, snapshot + checkpoint.
        let mut engine = random_workload(seed, &params);
        let pre_truncate_root = engine.state_root();
        let log_before = engine.op_log().len();
        assert!(log_before > 0);
        let base = engine.clone();
        let cp = engine.checkpoint();
        assert!(engine.op_log().is_empty(), "checkpoint truncates the log");
        assert_eq!(engine.last_checkpoint(), Some(&cp));
        assert_eq!(
            engine.state_root(),
            pre_truncate_root,
            "truncation must not change consensus state"
        );
        assert_eq!(cp.state_root, pre_truncate_root);
        assert_eq!(cp.ops_applied, log_before as u64);

        // Second half: more traffic, faults, time.
        let mut rng = DetRng::from_seed_label(seed, "checkpoint-tail");
        for step in 0..30u64 {
            match rng.below(4) {
                0 => {
                    let root = sha256(&(seed ^ (1 << 32) ^ step).to_be_bytes());
                    let _ =
                        engine.file_add(CLIENT, 1 + rng.below(20), engine.params().min_value, root);
                }
                1 => {
                    engine.honest_providers_act();
                }
                _ => engine.advance_to(engine.now() + 10 + rng.below(100)),
            }
        }
        // Post-checkpoint records continue the global seq numbering.
        assert_eq!(engine.op_log()[0].seq, cp.ops_applied);

        // Replay from the checkpoint base: identical engine.
        let replayed = Engine::replay_from(&base, &cp, engine.op_log()).expect("base matches");
        assert_eq!(replayed.state_root(), engine.state_root());
        assert_eq!(replayed.chain().head_hash(), engine.chain().head_hash());
        assert_eq!(replayed.stats(), engine.stats());
        assert_eq!(replayed.file_ids(), engine.file_ids());
        assert_eq!(replayed.op_log(), engine.op_log());

        // A non-matching base is rejected, not silently replayed.
        let mut wrong = base.clone();
        wrong.tick();
        assert!(Engine::replay_from(&wrong, &cp, engine.op_log()).is_err());
    }
}

/// No op a hostile block can carry panics the engine: a rewinding
/// `AdvanceTo`, `FailSector` / `CorruptSector` of an unknown sector and a
/// `Fund` whose mint overflows the supply each return a typed error before
/// any write — every map root, the ledger and the clock stay as they were,
/// only the applied-op count moves — and the failed ops replay from the
/// log like any other.
#[test]
fn hostile_ops_fail_without_writing_and_replay() {
    let params = ProtocolParams {
        k: 3,
        delay_per_size: 6,
        ..ProtocolParams::default()
    };
    let mut engine = random_workload(5, &params);
    let unknown = SectorId(u64::MAX);
    let cases = [
        (
            Op::AdvanceTo {
                target: engine.now() - 1,
            },
            EngineError::InvalidState("time cannot rewind"),
        ),
        (
            Op::AdvanceTo { target: u64::MAX },
            EngineError::InvalidState(
                "time within one block interval of the end of the time range",
            ),
        ),
        (
            Op::FailSector { sector: unknown },
            EngineError::UnknownSector(unknown),
        ),
        (
            Op::CorruptSector { sector: unknown },
            EngineError::UnknownSector(unknown),
        ),
        (
            Op::Fund {
                account: CLIENT,
                amount: TokenAmount(u128::MAX),
            },
            EngineError::InvalidState("mint overflows the token supply"),
        ),
    ];
    let accounts = [
        CLIENT,
        DEPOSIT_ESCROW,
        COMPENSATION_POOL,
        RENT_POOL,
        TRAFFIC_ESCROW,
    ];
    let balances = |e: &Engine| accounts.map(|a| e.ledger().balance(a));
    for (op, err) in cases {
        let kind = op.kind();
        let (roots, header) = (engine.state_roots(), engine.state_header());
        let before = balances(&engine);
        assert_eq!(engine.apply(op), Err(err), "{kind}");
        assert_eq!(
            engine.state_roots().map_roots(),
            roots.map_roots(),
            "{kind}: map roots"
        );
        let ops_applied = header.ops_applied + 1;
        assert_eq!(
            engine.state_header(),
            StateHeader {
                ops_applied,
                ..header
            },
            "{kind}: clock, supply and counters"
        );
        assert_eq!(balances(&engine), before, "{kind}: balances");
    }
    assert_replay_matches(&engine, params);
}

/// Two sectors of the largest capacity a `u64` holds would sum past the
/// sampler's `u64` total. The second registration fails with a typed
/// error before any write — no gas, no deposit, no sector — and replays
/// from the log like any other failed op.
#[test]
fn oversized_sector_capacity_fails_without_writing_and_replays() {
    let params = ProtocolParams::default();
    let mut engine = Engine::new(params.clone()).expect("valid params");
    let owner = PROVIDERS[0];
    let huge = u64::MAX - u64::MAX % params.min_capacity;
    engine.fund(owner, TokenAmount(u128::MAX / 2));
    let first = engine.sector_register(owner, huge).expect("one fits");

    let (roots, header) = (engine.state_roots(), engine.state_header());
    let balances = |e: &Engine| [owner, DEPOSIT_ESCROW].map(|a| e.ledger().balance(a));
    let before = balances(&engine);
    assert_eq!(
        engine.sector_register(owner, huge),
        Err(EngineError::Param(ParamError::OutOfRange {
            what: "total sector capacity"
        }))
    );
    assert_eq!(engine.state_roots().map_roots(), roots.map_roots());
    assert_eq!(
        engine.state_header(),
        StateHeader {
            ops_applied: header.ops_applied + 1,
            ..header
        }
    );
    assert_eq!(balances(&engine), before);
    assert_eq!(engine.sector_ids(), vec![first]);
    assert!(!engine.op_log().last().expect("logged").ok);

    // The failed op's receipt seals into the next block.
    engine.advance_to(engine.now() + params.block_interval);
    assert_replay_matches(&engine, params);
}

#[test]
fn upload_rollback_is_replayable() {
    // A client that registers several files and then rolls them back
    // issues consensus-side ForceDiscard ops (the §VI-C segmented upload
    // does this on a mid-way failure); the log must capture them so replay
    // reproduces the rolled-back state.
    let params = ProtocolParams {
        k: 2,
        ..ProtocolParams::default()
    };
    let mut engine = Engine::new(params.clone()).unwrap();
    let provider = AccountId(100);
    engine.fund(provider, TokenAmount(1_000_000_000));
    engine.sector_register(provider, 640).unwrap();
    engine.fund(CLIENT, TokenAmount(1_000_000));
    let value = engine.params().min_value;
    let files: Vec<_> = (0..4u8)
        .map(|i| engine.file_add(CLIENT, 16, value, sha256(&[i])).unwrap())
        .collect();
    for &file in &files {
        engine.apply(Op::ForceDiscard { file }).unwrap();
    }
    assert!(
        engine
            .op_log()
            .iter()
            .any(|r| r.op.kind() == "op.force_discard"),
        "rollback must be logged as ops"
    );
    engine.advance_to(engine.now() + 500);
    assert_replay_matches(&engine, params);
}

/// History is shared, never copied: a clone's op records are the
/// original's, whatever the height, its chain is the original's head, and
/// either side keeps sealing without disturbing the other.
#[test]
fn clones_share_history_and_diverge_independently() {
    let params = ProtocolParams {
        k: 3,
        delay_per_size: 6,
        avg_refresh: 6.0,
        ..ProtocolParams::default()
    };
    let mut original = random_workload(5, &params);
    let interval = params.block_interval;
    while original.chain().height() < 200 {
        original.advance_to(original.now() + interval);
    }
    let mut fork = original.clone();
    let sealed = original.chain().height();
    let head = original.chain().head_hash();
    assert_eq!(fork.chain().height(), sealed);
    assert_eq!(fork.chain().head_hash(), head);
    assert_eq!(fork.chain().last_block(), original.chain().last_block());
    assert_eq!(fork.op_log(), original.op_log());
    let history = original.op_log().clone();
    let logged = history.len();

    // Diverge: different ops on each side, across several seals.
    original.fund(CLIENT, TokenAmount(1));
    fork.fund(CLIENT, TokenAmount(2));
    original.advance_to(original.now() + 3 * interval);
    fork.advance_to(fork.now() + 5 * interval);
    assert_eq!(original.chain().height(), sealed + 3);
    assert_eq!(fork.chain().height(), sealed + 5);
    assert_ne!(original.chain().head_hash(), fork.chain().head_hash());
    assert_eq!(original.op_log().len(), logged + 2);
    assert_eq!(fork.op_log().len(), logged + 2);
    for engine in [&original, &fork] {
        // Neither side's shared op history moved…
        assert!(engine.op_log().iter().take(logged).eq(history.iter()));
        assert_ne!(engine.chain().head_hash(), head);
        // …and both replay, to the same head, from their own logs.
        assert_replay_matches(engine, params.clone());
    }
}
