//! Batch-ingest consensus equivalence: `Engine::apply_batch` must be
//! **bit-identical** to feeding the same ops one by one through
//! `Engine::apply` — same per-op results, same state root, audit root and
//! chain head, same open-block op/receipt digests and events, same op
//! log — at every `(shards, ingest_threads)` combination. Both paths run
//! every op once, in order, through the same handler; what the batch path
//! adds is one pass (parallel for a large batch with `shards > 1`) that
//! takes every op digest, and the walk of every `File_Prove` before the
//! batch's first `AdvanceTo`, from pre-batch state and hands them in.
//! These tests pin that the hand-in lands each digest on its own op,
//! whatever an earlier op of the batch did.

use fi_chain::account::{AccountId, TokenAmount};
use fi_core::engine::{Engine, EngineError, StateView};
use fi_core::ops::{Op, Receipt};
use fi_core::params::ProtocolParams;
use fi_core::types::{AllocState, FileId};
use fi_crypto::{sha256, DetRng};

const CLIENT: AccountId = AccountId(900);
const PROVIDER: AccountId = AccountId(700);
/// An account funded with a shoestring balance to force mid-batch
/// insufficient-funds flips inside one hashed batch.
const PAUPER: AccountId = AccountId(901);

fn params(shards: usize, ingest_threads: usize) -> ProtocolParams {
    ProtocolParams {
        k: 2,
        delay_per_size: 6,
        shards,
        ingest_threads,
        ..ProtocolParams::default()
    }
}

/// Builds an engine with `n` live (confirmed, finalized) size-1 files and
/// plenty of sector capacity. Deterministic: two engines built with the
/// same parameters are consensus-identical afterwards.
fn engine_with_files(p: ProtocolParams, n: u64) -> Engine {
    let min_value = p.min_value;
    let mut engine = Engine::new(p).expect("valid params");
    engine.fund(PROVIDER, TokenAmount(u128::MAX / 4));
    engine.fund(CLIENT, TokenAmount(u128::MAX / 4));
    for _ in 0..8 {
        engine
            .sector_register(PROVIDER, (4 * n).div_ceil(64).max(1) * 64)
            .expect("register");
    }
    for i in 0..n {
        let root = sha256(&i.to_be_bytes());
        let f = engine
            .file_add(CLIENT, 1, min_value, root)
            .expect("file add");
        for (idx, s) in engine.pending_confirms(f) {
            engine.file_confirm(PROVIDER, f, idx, s).expect("confirm");
        }
    }
    // One CheckAlloc bucket finalises every placement.
    engine.advance_to(engine.now() + engine.params().transfer_window(1) + 1);
    assert_eq!(engine.file_ids().len() as u64, n, "all files live");
    engine
}

/// Builds a mixed op batch from the engine's current state: large runs of
/// per-file ops (proves, gets, confirms-that-fail, discards), salted with
/// deliberate error cases and interleaved with funds, adds and two time
/// advances. After the first advance come proves the hashing pass must
/// leave to their handlers: proves of pre-batch files at the new time,
/// and of a file added, confirmed and finalised inside the batch.
/// Deterministic given the seed, and state-identical engines produce
/// identical batches.
fn build_batch(engine: &Engine, seed: u64) -> Vec<Op> {
    let mut rng = DetRng::from_seed_label(seed, "batch-ingest");
    let mut ops = Vec::new();
    let files = engine.file_ids();
    // Every held replica proves once — the bulk per-file run.
    for &f in &files {
        let cp = engine.file(f).map(|d| d.cp).unwrap_or(0);
        for i in 0..cp {
            if let Some(s) = engine.alloc_entry(f, i).and_then(|e| e.prev) {
                let caller = engine.sector(s).map(|x| x.owner).unwrap_or(PROVIDER);
                ops.push(Op::FileProve {
                    caller,
                    file: f,
                    index: i,
                    sector: s,
                });
            }
        }
    }
    // Error cases: stale confirms, wrong-owner proves, unknown files.
    for &f in files.iter().take(20) {
        ops.push(Op::FileConfirm {
            caller: PROVIDER,
            file: f,
            index: 0,
            sector: engine.sector_ids()[0],
        });
        ops.push(Op::FileProve {
            caller: CLIENT, // not the sector owner
            file: f,
            index: 0,
            sector: engine.sector_ids()[0],
        });
    }
    ops.push(Op::FileGet {
        caller: CLIENT,
        file: fi_core::types::FileId(u64::MAX / 2),
    });
    // Reads spread over the shards.
    for _ in 0..80 {
        let f = files[rng.below(files.len() as u64) as usize];
        ops.push(Op::FileGet {
            caller: CLIENT,
            file: f,
        });
    }
    // New funds plus fresh file adds in the middle — including an
    // oversized one that must fail validation and a zero-size one —
    // exercising `File_Add` (success and both error shapes) mid-batch.
    ops.push(Op::Fund {
        account: CLIENT,
        amount: TokenAmount(1_000_000),
    });
    for j in 0..4u64 {
        ops.push(Op::FileAdd {
            client: CLIENT,
            size: 1 + j % 2,
            value: engine.params().min_value,
            merkle_root: sha256(&(seed ^ j).to_be_bytes()),
        });
    }
    ops.push(Op::FileAdd {
        client: CLIENT,
        size: engine.params().size_limit + 1,
        value: engine.params().min_value,
        merkle_root: sha256(b"too-big"),
    });
    ops.push(Op::FileAdd {
        client: CLIENT,
        size: 0,
        value: engine.params().min_value,
        merkle_root: sha256(b"empty"),
    });
    // The first new file's confirms, an advance past its transfer window
    // that finalises it, then proves of it and of pre-batch replicas at
    // the new time. A scratch clone runs the batch so far to learn the
    // new file's id and placements.
    let mut sim = engine.clone();
    let added = ops
        .iter()
        .filter_map(|op| match sim.apply(op.clone()) {
            Ok(Receipt::FileAdded { file, .. }) => Some(file),
            _ => None,
        })
        .collect::<Vec<_>>()[0];
    let confirmed_from = ops.len();
    for (index, sector) in sim.pending_confirms(added) {
        let caller = sim.sector(sector).expect("allocated sector").owner;
        ops.push(Op::FileConfirm {
            caller,
            file: added,
            index,
            sector,
        });
    }
    ops.push(Op::AdvanceTo {
        target: engine.now() + engine.params().transfer_window(1) + 1,
    });
    for op in &ops[confirmed_from..] {
        sim.apply(op.clone()).expect("confirms and advance succeed");
    }
    let late_proves: Vec<Op> = ops
        .iter()
        .filter(|op| matches!(op, Op::FileProve { caller, .. } if *caller == PROVIDER))
        .take(30)
        .cloned()
        .collect();
    for index in 0..sim.file(added).expect("finalised in the batch").cp {
        let sector = sim.alloc_entry(added, index).and_then(|e| e.prev);
        let sector = sector.expect("a confirmed replica");
        let prove = Op::FileProve {
            caller: sim.sector(sector).expect("holding sector").owner,
            file: added,
            index,
            sector,
        };
        sim.apply(prove.clone()).expect("the new file proves");
        ops.push(prove);
    }
    ops.extend(late_proves);
    // More gets and a few discards.
    for _ in 0..70 {
        let f = files[rng.below(files.len() as u64) as usize];
        ops.push(Op::FileGet {
            caller: CLIENT,
            file: f,
        });
    }
    for &f in files.iter().skip(files.len() - 5) {
        ops.push(Op::FileDiscard {
            caller: CLIENT,
            file: f,
        });
        ops.push(Op::ForceDiscard { file: f }); // idempotent re-discard
    }
    // A last advance so Auto_* tasks execute too.
    ops.push(Op::AdvanceTo {
        target: sim.now() + engine.params().proof_cycle,
    });
    ops
}

fn assert_bit_identical(a: &Engine, b: &Engine, what: &str) {
    assert_eq!(a.state_root(), b.state_root(), "{what}: state roots");
    assert_eq!(a.audit_root(), b.audit_root(), "{what}: audit roots");
    // The open block's batch and events are not in the state root yet;
    // they fold into the next sealed block's hash.
    assert_eq!(
        a.chain().open_ops(),
        b.chain().open_ops(),
        "{what}: open-block op and receipt digests"
    );
    assert_eq!(
        a.chain().open_events(),
        b.chain().open_events(),
        "{what}: open-block events"
    );
    assert_eq!(
        a.chain().head_hash(),
        b.chain().head_hash(),
        "{what}: heads"
    );
    // Strategy counters (how the work was executed) legitimately differ
    // across configurations; everything consensus must not.
    assert_eq!(
        a.stats().consensus(),
        b.stats().consensus(),
        "{what}: stats"
    );
    assert_eq!(a.op_log(), b.op_log(), "{what}: op logs");
    assert_eq!(
        a.ledger().total_supply(),
        b.ledger().total_supply(),
        "{what}: supply"
    );
}

/// The tentpole invariant: randomized mixed batches through `apply_batch`
/// reproduce the single-threaded `apply` path bit for bit at every
/// `(shards, ingest_threads)` combination — including the configurations
/// where the hashing pass actually fans out (every `shards > 1` cell).
#[test]
fn apply_batch_is_bit_identical_to_sequential_apply() {
    for seed in [7u64, 42] {
        // The sequential reference: 1 shard, 1 thread, op-by-op apply.
        let mut reference = engine_with_files(params(1, 1), 120);
        let ops = build_batch(&reference, seed);
        let ref_results: Vec<bool> = ops
            .iter()
            .map(|op| reference.apply(op.clone()).is_ok())
            .collect();
        assert!(
            ref_results.iter().any(|ok| !ok) && ref_results.iter().any(|ok| *ok),
            "seed {seed}: batch must mix successes and failures"
        );
        for (shards, threads) in [(1, 4), (4, 1), (4, 4), (8, 1), (8, 4)] {
            let mut batched = engine_with_files(params(shards, threads), 120);
            let ops = build_batch(&batched, seed);
            let results = batched.apply_batch(ops);
            assert_eq!(
                ref_results,
                results.iter().map(|r| r.is_ok()).collect::<Vec<_>>(),
                "seed {seed}: outcomes diverged at {shards} shards / {threads} threads"
            );
            assert_bit_identical(
                &reference,
                &batched,
                &format!("seed {seed}, {shards} shards / {threads} threads"),
            );
            // The strategy counter tells the truth about which path ran:
            // the hashing pass of this 500-op batch fans out exactly on
            // the multi-shard configurations.
            let parallel_capable = shards > 1;
            assert_eq!(
                batched.stats().batches_staged_parallel > 0,
                parallel_capable,
                "seed {seed}: hashing strategy at {shards} shards / {threads} threads"
            );
            assert_eq!(reference.stats().batches_staged_parallel, 0);
        }
    }
}

/// Same engine configuration, chunked differently: applying the batch as
/// one call, in small chunks, or op-by-op must agree — how a block is cut
/// into batches is an internal detail.
#[test]
fn batch_chunking_is_invisible() {
    let build = || engine_with_files(params(8, 4), 100);
    let mut whole = build();
    let ops = build_batch(&whole, 11);
    whole.apply_batch(ops);

    let mut chunked = build();
    let ops = build_batch(&chunked, 11);
    for chunk in ops.chunks(17) {
        chunked.apply_batch(chunk.to_vec());
    }
    assert_bit_identical(&whole, &chunked, "chunked");

    let mut one_by_one = build();
    let ops = build_batch(&one_by_one, 11);
    for op in ops {
        let _ = one_by_one.apply(op);
    }
    assert_bit_identical(&whole, &one_by_one, "op-by-op");
}

/// Insolvency inside one batch: a caller whose balance covers only part
/// of a big op run. The account drains mid-batch and the later ops fail
/// with `InsufficientFunds`, exactly as op by op: each op's gas check
/// reads the live ledger its predecessors left, whatever the hashing pass
/// read before the batch ran.
#[test]
fn mid_batch_insolvency_matches_sequential_apply() {
    let gets_affordable = 10u128;
    let get_fee = 11u128; // RequestBase (10) + AllocRead (1) at default prices
    let build = |shards, threads| {
        let mut e = engine_with_files(params(shards, threads), 100);
        e.fund(PAUPER, TokenAmount(gets_affordable * get_fee));
        e
    };
    let ops_for = |e: &Engine| -> Vec<Op> {
        e.file_ids()
            .into_iter()
            .map(|f| Op::FileGet {
                caller: PAUPER,
                file: f,
            })
            .collect()
    };

    let mut reference = build(1, 1);
    let ops = ops_for(&reference);
    let ref_results: Vec<bool> = ops
        .iter()
        .map(|op| reference.apply(op.clone()).is_ok())
        .collect();
    assert_eq!(
        ref_results.iter().filter(|ok| **ok).count() as u128,
        gets_affordable,
        "exactly the affordable prefix succeeds"
    );

    for (shards, threads) in [(4, 4), (8, 4)] {
        let mut batched = build(shards, threads);
        let ops = ops_for(&batched);
        let results = batched.apply_batch(ops);
        assert_eq!(
            ref_results,
            results.iter().map(|r| r.is_ok()).collect::<Vec<_>>(),
            "insolvency outcomes diverged at {shards} shards / {threads} threads"
        );
        assert_bit_identical(&reference, &batched, "insolvency flip");
        assert_eq!(
            batched.ledger().balance(PAUPER),
            TokenAmount(0),
            "the pauper account drained exactly"
        );
    }
}

/// A same-file chain across an insolvency flip. In one hashed batch the
/// pauper's `File_Get` drains its balance, so its `File_Confirm` of a
/// replica swapped into its sector (op A, on file `f`) fails with
/// `InsufficientFunds` and writes nothing. A solvent client's later
/// `File_Get` on `f` must then still list the replica's old holder: it
/// reads the row A left unconfirmed, not the one A would have written
/// had the pre-batch balance held. Results, open-block receipts and
/// events, state and head all match op-by-op `apply`.
#[test]
fn later_ops_on_a_file_read_what_a_failed_op_left() {
    let fee = 11u128; // RequestBase (10) + AllocRead (1): a get or a confirm
    let build = || {
        let p = ProtocolParams {
            poisson_rebalance: true,
            ..params(4, 4)
        };
        let mut e = engine_with_files(p, 100);
        e.fund(PAUPER, TokenAmount(u128::MAX / 8));
        // The swap-in moves a Poisson share of the placed replicas here.
        let sector = e.sector_register(PAUPER, 256).expect("register");
        let spare = e.ledger().balance(PAUPER) - TokenAmount(fee);
        e.apply(Op::Burn {
            account: PAUPER,
            amount: spare,
        })
        .expect("burn");
        (e, sector)
    };
    let ops_for = |e: &Engine, sector| -> Vec<Op> {
        let files = e.file_ids();
        let (f, index) = files
            .iter()
            .find_map(|&f| {
                let swapped = |i: &u32| {
                    e.alloc_entry(f, *i).is_some_and(|entry| {
                        entry.state == AllocState::Alloc
                            && entry.next == Some(sector)
                            && entry.prev.is_some()
                    })
                };
                (0..2).find(swapped).map(|i| (f, i))
            })
            .expect("a replica swapped into the pauper's sector");
        let others: Vec<FileId> = files.into_iter().filter(|&g| g != f).collect();
        let get = |caller, file| Op::FileGet { caller, file };
        let mut ops = vec![
            get(PAUPER, others[0]),
            Op::FileConfirm {
                caller: PAUPER,
                file: f,
                index,
                sector,
            },
            get(CLIENT, f),
        ];
        ops.extend(others.iter().map(|&g| get(CLIENT, g)));
        ops
    };

    let (mut reference, sector) = build();
    let ops = ops_for(&reference, sector);
    assert!(ops.len() >= 64, "a batch past the fan-out threshold");
    let ref_results: Vec<_> = ops.iter().map(|op| reference.apply(op.clone())).collect();
    assert_eq!(
        ref_results[1],
        Err(EngineError::InsufficientFunds),
        "the confirm is unaffordable"
    );

    let (mut batched, sector) = build();
    let ops = ops_for(&batched, sector);
    let results = batched.apply_batch(ops);
    assert_eq!(ref_results, results, "per-op results");
    assert_bit_identical(&reference, &batched, "same-file chain");
    assert_eq!(batched.stats().batches_staged_parallel, 1);
}

/// Funds, adds and time advances inside a batch: state after a batch
/// interleaving them with per-file runs equals the sequential execution,
/// and the op log records every op in submission order with
/// monotonically increasing sequence numbers.
#[test]
fn barriers_preserve_submission_order_in_the_op_log() {
    let mut engine = engine_with_files(params(8, 4), 80);
    let ops = build_batch(&engine, 3);
    let n = ops.len();
    let before = engine.op_log().len();
    engine.apply_batch(ops);
    let log = engine.op_log();
    assert_eq!(log.len(), before + n, "every batch op logged");
    for pair in log.to_vec().windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1, "seq gap in op log");
    }
    // Replay the whole log: the batch path commits replay-compatible records.
    let replayed = Engine::replay(engine.params().clone(), engine.op_log()).expect("valid params");
    assert_eq!(replayed.state_root(), engine.state_root());
    assert_eq!(replayed.chain().head_hash(), engine.chain().head_hash());
}

/// A caller that already holds the ops' digests (a node hashed them to
/// identify the block) commits the identical batch without hashing again,
/// through the hashing pass inline and fanned out (either way it then
/// walks proofs only); the one-by-one `apply` loop is the oracle.
#[test]
fn caller_supplied_digests_commit_the_same_batch() {
    for (shards, threads) in [(1, 1), (8, 4)] {
        let base = engine_with_files(params(shards, threads), 80);
        let ops = build_batch(&base, 5);
        let digests: Vec<_> = ops.iter().map(Op::digest).collect();

        let mut hashed = base.clone();
        let expect = hashed.apply_batch(ops.clone());
        let mut batch = base.clone();
        assert_eq!(batch.apply_batch_digested(ops.clone(), &digests), expect);
        let mut one_by_one = base.clone();
        let results: Vec<_> = ops.iter().map(|op| one_by_one.apply(op.clone())).collect();
        assert_eq!(results, expect);
        let what = format!("{shards}x{threads}");
        assert_bit_identical(&batch, &hashed, &what);
        assert_bit_identical(&one_by_one, &hashed, &what);
    }
}

/// `File_Prove` walks are taken ahead of execution: the hashing pass walks
/// every prove of a batch whose file exists, as one lane batch per
/// chunk, before any op of the batch runs, and the handler folds the
/// digest only if the op then passes every check. One batch that
/// interleaves accepted proofs with everything a digest could be
/// misattributed across — rejected proofs (wrong sector, unknown file, a
/// caller that runs out of gas mid-batch, a replica confirmed earlier in
/// the batch), confirms, and discards of files proved earlier in the
/// batch and proved again after — must commit exactly as the one-by-one
/// `apply` loop does: same receipts, `audit_root` (which folds the
/// digests in commit order), `state_root` and block hashes.
#[test]
fn deferred_proof_digests_land_on_their_own_ops() {
    /// A second provider, burned down to a few proofs' worth of gas.
    const THIN: AccountId = AccountId(701);
    let proofs_affordable = 9u128;
    let prove_fee = 60u128; // RequestBase (10) + ProofVerify (50) at default prices
    let build = |shards, threads| {
        let p = params(shards, threads);
        let min_value = p.min_value;
        let mut e = Engine::new(p).expect("valid params");
        for provider in [PROVIDER, THIN] {
            e.fund(provider, TokenAmount(u128::MAX / 4));
            for _ in 0..4 {
                e.sector_register(provider, 256).expect("register");
            }
        }
        e.fund(CLIENT, TokenAmount(u128::MAX / 4));
        let confirm_all = |e: &mut Engine, f: FileId| {
            for (idx, s) in e.pending_confirms(f) {
                let owner = e.sector(s).expect("allocated sector").owner;
                e.file_confirm(owner, f, idx, s).expect("confirm");
            }
        };
        for i in 0..120u64 {
            let f = e
                .file_add(CLIENT, 1, min_value, sha256(&i.to_be_bytes()))
                .expect("file add");
            confirm_all(&mut e, f);
        }
        e.advance_to(e.now() + e.params().transfer_window(1) + 1);
        // Three more files, allocated but not yet confirmed.
        for i in 120..123u64 {
            e.file_add(CLIENT, 1, min_value, sha256(&i.to_be_bytes()))
                .expect("file add");
        }
        let spare = e.ledger().balance(THIN).0 - proofs_affordable * prove_fee;
        e.apply(Op::Burn {
            account: THIN,
            amount: TokenAmount(spare),
        })
        .expect("burn");
        e
    };
    let ops_for = |e: &Engine| -> Vec<Op> {
        let sectors = e.sector_ids();
        let mut ops = Vec::new();
        // Newest first, so the confirms land before THIN runs dry.
        for (n, f) in e.file_ids().into_iter().rev().enumerate() {
            let pending = e.pending_confirms(f);
            for &(index, sector) in &pending {
                // An accepted confirm, then a proof of the replica it just
                // confirmed: rejected, the sector does not hold it yet.
                let caller = e.sector(sector).expect("allocated sector").owner;
                ops.push(Op::FileConfirm {
                    caller,
                    file: f,
                    index,
                    sector,
                });
                ops.push(Op::FileProve {
                    caller,
                    file: f,
                    index,
                    sector,
                });
            }
            if !pending.is_empty() {
                continue;
            }
            let cp = e.file(f).map(|d| d.cp).unwrap_or(0);
            let held: Vec<(u32, _)> = (0..cp)
                .filter_map(|i| Some((i, e.alloc_entry(f, i)?.prev?)))
                .collect();
            for &(index, sector) in &held {
                let caller = e.sector(sector).expect("holding sector").owner;
                ops.push(Op::FileProve {
                    caller,
                    file: f,
                    index,
                    sector,
                });
                if n % 7 == 0 {
                    // Wrong sector: another one of the same owner's.
                    let other = sectors
                        .iter()
                        .copied()
                        .find(|&s| s != sector && e.sector(s).is_some_and(|x| x.owner == caller))
                        .expect("each provider owns four sectors");
                    ops.push(Op::FileProve {
                        caller,
                        file: f,
                        index,
                        sector: other,
                    });
                }
            }
            if n % 11 == 0 {
                ops.push(Op::FileProve {
                    caller: PROVIDER,
                    file: FileId(u64::MAX / 2 + n as u64),
                    index: 0,
                    sector: sectors[0],
                });
            }
            if n % 13 == 0 {
                // Discard a file proved just above, then prove it again.
                ops.push(Op::FileDiscard {
                    caller: CLIENT,
                    file: f,
                });
                let (index, sector) = held[0];
                ops.push(Op::FileProve {
                    caller: e.sector(sector).expect("holding sector").owner,
                    file: f,
                    index,
                    sector,
                });
            }
        }
        ops
    };

    let mut reference = build(1, 1);
    let ops = ops_for(&reference);
    let expect: Vec<_> = ops.iter().map(|op| reference.apply(op.clone())).collect();
    let count =
        |pred: fn(&Result<Receipt, EngineError>) -> bool| expect.iter().filter(|r| pred(r)).count();
    assert!(count(|r| matches!(r, Ok(Receipt::Proved { .. }))) > 64);
    assert_eq!(count(|r| matches!(r, Ok(Receipt::Confirmed { .. }))), 6);
    assert!(count(|r| matches!(r, Ok(Receipt::Discarded { .. }))) >= 9);
    assert!(count(|r| matches!(r, Err(EngineError::InvalidState(_)))) >= 20);
    assert!(count(|r| matches!(r, Err(EngineError::UnknownFile(_)))) >= 10);
    assert!(count(|r| matches!(r, Err(EngineError::InsufficientFunds))) >= 20);

    for (shards, threads) in [(1, 1), (4, 2), (8, 4)] {
        let mut batched = build(shards, threads);
        let ops = ops_for(&batched);
        assert_eq!(batched.apply_batch(ops), expect, "{shards}x{threads}");
        let what = format!("deferred proofs, {shards}x{threads}");
        assert_bit_identical(&reference, &batched, &what);
        if shards > 1 {
            assert!(
                batched.stats().batches_staged_parallel > 0,
                "{what}: hashed"
            );
        }
    }
}
