//! Snapshot durability: `snapshot_save` → `snapshot_restore` must
//! reproduce the live engine's consensus state exactly — same state root,
//! same future receipts and block hashes — across shard counts, and
//! corrupted bytes (truncated, bit-flipped, wrong version, foreign) must
//! surface as typed `SnapshotError`s, never panics. Together with
//! `Engine::checkpoint` / `Engine::replay_from`, snapshots replace the
//! keep-a-live-clone pattern with bytes on disk.

use fi_chain::account::{AccountId, TokenAmount};
use fi_core::engine::{Engine, EngineError, SnapshotError, StateView};
use fi_core::ops::Op;
use fi_core::params::ProtocolParams;
use fi_core::types::SectorState;
use fi_crypto::{sha256, DetRng};

const CLIENT: AccountId = AccountId(900);
const PROVIDERS: [AccountId; 3] = [AccountId(700), AccountId(701), AccountId(702)];

fn snap_params(shards: usize) -> ProtocolParams {
    ProtocolParams {
        k: 3,
        delay_per_size: 6,
        avg_refresh: 6.0,
        shards,
        ..ProtocolParams::default()
    }
}

/// The same randomized protocol workload the sharding tests use: adds,
/// confirms, proofs, discards, faults, refreshes, punishments, losses —
/// everything a snapshot has to carry.
fn drive_workload(engine: &mut Engine, seed: u64, steps: u64) {
    let mut rng = DetRng::from_seed_label(seed, "snapshot-workload");
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
}

/// Drives both engines through the same post-restore future and asserts
/// every consensus observable stays aligned: state roots, sealed block
/// hashes, stats, files.
fn assert_future_identical(live: &mut Engine, restored: &mut Engine, seed: u64) {
    assert_eq!(live.state_root(), restored.state_root(), "roots at restore");
    drive_workload(live, seed, 30);
    drive_workload(restored, seed, 30);
    assert_eq!(live.state_root(), restored.state_root(), "future roots");
    assert_eq!(
        live.chain().head_hash(),
        restored.chain().head_hash(),
        "future chain heads"
    );
    assert_eq!(live.stats(), restored.stats(), "future stats");
    assert_eq!(live.file_ids(), restored.file_ids(), "future files");
    assert_eq!(
        live.chain().last_block(),
        restored.chain().last_block(),
        "last block header"
    );
}

/// Round trip at several shard counts: the restored engine carries the
/// exact consensus state and behaves identically forever after.
#[test]
fn snapshot_round_trip_preserves_state_root_across_shard_counts() {
    for shards in [1usize, 4, 8] {
        let mut live = Engine::new(snap_params(shards)).expect("valid params");
        drive_workload(&mut live, 17, 60);
        let bytes = live.snapshot_save();
        let mut restored = Engine::snapshot_restore(&bytes).expect("restore succeeds");
        assert_eq!(restored.params().shards, shards);
        assert_future_identical(&mut live, &mut restored, 18);
    }
}

/// The encoding is canonical: saving twice — or saving the restored
/// engine — produces byte-identical snapshots.
#[test]
fn snapshot_encoding_is_deterministic() {
    let mut live = Engine::new(snap_params(4)).expect("valid params");
    drive_workload(&mut live, 23, 50);
    let a = live.snapshot_save();
    let b = live.snapshot_save();
    assert_eq!(a, b, "same state, same bytes");
    let restored = Engine::snapshot_restore(&a).expect("restore succeeds");
    assert_eq!(a, restored.snapshot_save(), "restore then save is identity");
}

/// The durable checkpoint flow the snapshot layer exists for: checkpoint
/// (truncating the op log), persist the snapshot bytes, keep logging ops,
/// then rebuild from bytes + checkpoint + log suffix via `replay_from` —
/// reproducing the live engine's state root and subsequent block hashes.
#[test]
fn snapshot_plus_replay_from_reconstructs_past_the_checkpoint() {
    let mut live = Engine::new(snap_params(4)).expect("valid params");
    drive_workload(&mut live, 29, 50);
    let checkpoint = live.checkpoint();
    let bytes = live.snapshot_save();

    // Life goes on after the checkpoint; the op log accumulates the suffix.
    drive_workload(&mut live, 31, 40);
    let suffix = live.op_log().to_vec();
    assert!(!suffix.is_empty(), "post-checkpoint ops logged");

    let base = Engine::snapshot_restore(&bytes).expect("restore succeeds");
    let rebuilt = Engine::replay_from(&base, &checkpoint, &suffix).expect("base matches");
    assert_eq!(rebuilt.state_root(), live.state_root());
    assert_eq!(rebuilt.chain().head_hash(), live.chain().head_hash());
    assert_eq!(rebuilt.stats(), live.stats());

    // A base that doesn't match the checkpoint is rejected.
    let mut stale = Engine::snapshot_restore(&bytes).expect("restore succeeds");
    stale.advance_to(stale.now() + 1);
    assert!(Engine::replay_from(&stale, &checkpoint, &suffix).is_err());
}

/// Truncation at every prefix length must yield a typed error — the
/// self-hash makes any missing tail detectable before field decoding.
#[test]
fn truncated_snapshots_fail_with_typed_errors() {
    let mut live = Engine::new(snap_params(2)).expect("valid params");
    drive_workload(&mut live, 41, 25);
    let bytes = live.snapshot_save();
    // A sweep of truncation points incl. inside magic, version, payload.
    for cut in [
        0,
        5,
        9,
        10,
        41,
        bytes.len() / 2,
        bytes.len() - 33,
        bytes.len() - 1,
    ] {
        let err = Engine::snapshot_restore(&bytes[..cut]).expect_err("truncated must fail");
        assert!(
            matches!(
                err,
                SnapshotError::Truncated | SnapshotError::CorruptPayload
            ),
            "cut at {cut}: unexpected {err:?}"
        );
    }
}

/// Any single flipped bit must be caught by the self-hash (or the magic
/// check when the flip hits the magic bytes).
#[test]
fn bit_flipped_snapshots_fail_with_typed_errors() {
    let mut live = Engine::new(snap_params(2)).expect("valid params");
    drive_workload(&mut live, 43, 25);
    let bytes = live.snapshot_save();
    let mut rng = DetRng::from_seed_label(44, "bitflip");
    for _ in 0..200 {
        let byte = rng.below(bytes.len() as u64) as usize;
        let bit = rng.below(8) as u8;
        let mut corrupted = bytes.clone();
        corrupted[byte] ^= 1 << bit;
        let err = Engine::snapshot_restore(&corrupted).expect_err("flip must fail");
        assert!(
            matches!(err, SnapshotError::CorruptPayload | SnapshotError::BadMagic),
            "flip at byte {byte} bit {bit}: unexpected {err:?}"
        );
    }
}

/// Version bumps (with a recomputed self-hash, i.e. a well-formed snapshot
/// from a different format era), foreign magic, and trailing garbage each
/// map to their own typed error.
#[test]
fn wrong_version_foreign_magic_and_trailing_bytes_are_typed() {
    let mut live = Engine::new(snap_params(2)).expect("valid params");
    drive_workload(&mut live, 47, 25);
    let bytes = live.snapshot_save();

    // Bump the version past the current format (v3 — v1 predates the
    // PR 5 node/mempool params, v2 the PR 6 tombstone-retention param)
    // and re-seal with a fresh self-hash.
    let mut wrong_version = bytes.clone();
    wrong_version[8..10].copy_from_slice(&99u16.to_be_bytes());
    let body_len = wrong_version.len() - 32;
    let digest = fi_crypto::sha256(&wrong_version[..body_len]);
    wrong_version[body_len..].copy_from_slice(digest.as_bytes());
    assert_eq!(
        Engine::snapshot_restore(&wrong_version).expect_err("wrong version"),
        SnapshotError::UnsupportedVersion(99)
    );
    // A v1 snapshot (the pre-node-params layout) is likewise refused at
    // the version gate rather than mis-decoded.
    let mut old_version = bytes.clone();
    old_version[8..10].copy_from_slice(&1u16.to_be_bytes());
    let digest = fi_crypto::sha256(&old_version[..body_len]);
    old_version[body_len..].copy_from_slice(digest.as_bytes());
    assert_eq!(
        Engine::snapshot_restore(&old_version).expect_err("old version"),
        SnapshotError::UnsupportedVersion(1)
    );

    // Foreign magic.
    let mut foreign = bytes.clone();
    foreign[..8].copy_from_slice(b"NOTFISNP");
    assert_eq!(
        Engine::snapshot_restore(&foreign).expect_err("foreign magic"),
        SnapshotError::BadMagic
    );

    // Trailing garbage breaks the self-hash (the hash must be the tail).
    let mut trailing = bytes.clone();
    trailing.extend_from_slice(b"garbage");
    assert_eq!(
        Engine::snapshot_restore(&trailing).expect_err("trailing bytes"),
        SnapshotError::CorruptPayload
    );

    // And the pristine bytes still restore.
    assert!(Engine::snapshot_restore(&bytes).is_ok());
}

/// `bytes` with its version field set to `version` and a fresh self-hash.
fn resealed_as(bytes: &[u8], version: u16) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[8..10].copy_from_slice(&version.to_be_bytes());
    let body_len = out.len() - 32;
    let digest = sha256(&out[..body_len]);
    out[body_len..].copy_from_slice(digest.as_bytes());
    out
}

/// A base engine, then a full snapshot and a delta against that base of
/// the same later state, with an open block to carry.
fn current_full_and_delta() -> (Engine, Vec<u8>, Vec<u8>) {
    let mut live = Engine::new(snap_params(2)).expect("valid params");
    drive_workload(&mut live, 53, 25);
    let base = Engine::snapshot_restore(&live.snapshot_save()).expect("restore");
    let base_roots = live.state_roots();
    drive_workload(&mut live, 54, 10);
    let full = live.snapshot_save();
    let delta = live.snapshot_delta(&base_roots).expect("delta");
    assert!(
        !live.chain().open_ops().is_empty(),
        "the open block is carried"
    );
    (base, full, delta)
}

/// Resealed as full version `full_version` and delta version
/// `delta_version`, the current bytes fail at the version gate; as they
/// are, they restore.
fn assert_versions_refused(full_version: u16, delta_version: u16) {
    let (base, full, delta) = current_full_and_delta();
    assert_eq!(
        Engine::snapshot_restore(&resealed_as(&full, full_version)).expect_err("old full"),
        SnapshotError::UnsupportedVersion(full_version)
    );
    match Engine::snapshot_restore_delta(&resealed_as(&delta, delta_version), &base) {
        Err(fi_core::Error::Snapshot(err)) => {
            assert_eq!(err, SnapshotError::UnsupportedVersion(delta_version))
        }
        Err(other) => panic!("delta v{delta_version}: unexpected {other:?}"),
        Ok(_) => panic!("delta v{delta_version} restored"),
    }
    assert!(Engine::snapshot_restore(&full).is_ok());
    assert!(Engine::snapshot_restore_delta(&delta, &base).is_ok());
}

/// Full snapshot 4 and delta 1 carried the open block's event payloads
/// and op digests in the old `Debug`-text encoding; a node must refuse
/// them at the version gate rather than seal blocks from them.
#[test]
fn snapshots_from_the_debug_text_encoding_are_refused() {
    assert_versions_refused(4, 1);
}

/// Full snapshot 5 and delta 2 carried a global stats record plus one
/// per shard; a node must refuse them rather than read one record's
/// counters as the next section.
#[test]
fn snapshots_with_per_shard_stats_are_refused() {
    assert_versions_refused(5, 2);
}

/// The sha256 of one full snapshot and of one delta of a fixed engine.
/// Any change to either byte layout moves these and must come with a
/// `FISNAPSH` / `FIDELTA1` version bump.
#[test]
fn snapshot_bytes_match_their_golden_digests() {
    // The snapshot encodes the parameters, so the ingest width is pinned
    // too: the CI thread axis (`FI_TEST_INGEST_THREADS`) must not change
    // which engine this is.
    let params = ProtocolParams {
        ingest_threads: 1,
        ..snap_params(2)
    };
    let mut live = Engine::new(params).expect("valid params");
    drive_workload(&mut live, 59, 40);
    let base_roots = live.state_roots();
    drive_workload(&mut live, 60, 15);
    let full = live.snapshot_save();
    let delta = live.snapshot_delta(&base_roots).expect("delta");
    assert_eq!(
        sha256(&full).to_hex(),
        "114043228d9e03bb504e5b0645348fc71145b1b94a4df68ad7770ac8c05a02a0",
        "FISNAPSH bytes"
    );
    assert_eq!(
        sha256(&delta).to_hex(),
        "301d99f169b31a336316e03d14e52c531419a98f4f67b4b0fc3f26d77c0ceeb8",
        "FIDELTA1 bytes"
    );
}

/// A chain restored at the top of the time range, where the next block
/// boundary does not fit a `u64`, refuses an advance to the end of the
/// range with a typed error before any write; one restored a block lower
/// still seals up to one block interval below the end. A chain at height 0
/// whose one task sits just below the end of the range, as a hostile peer
/// could send it, restores and keeps the task pending.
#[test]
fn advances_near_the_end_of_the_time_range_fail_typed() {
    let params = ProtocolParams::default();
    let interval = params.block_interval;
    let fresh = Engine::new(params.clone()).expect("valid params");
    let snapshot = fresh.snapshot_save();
    let body = &snapshot[..snapshot.len() - 32];
    // The chain section opens with its time, height and head hash.
    let head = fresh.chain().head_hash();
    let chain = [&0u64.to_be_bytes()[..], &0u64.to_be_bytes(), head.as_ref()].concat();
    let at = body
        .windows(chain.len())
        .position(|w| w == chain)
        .expect("chain section");
    // Its one task, the first rent distribution, moves to the end of the
    // range: a snapshot holds no task due before its chain's time.
    let rent_at = params.proof_cycle * u64::from(params.rent_period_cycles);
    let task = [1u64, rent_at, 0].map(u64::to_be_bytes).concat();
    let tasks: Vec<usize> = (at..body.len() - task.len())
        .filter(|&i| body[i..i + task.len()] == task)
        .collect();
    assert_eq!(tasks.len(), 1, "one pending task");
    let restored = |height: u64, task_at: u64| {
        let mut patched = body.to_vec();
        patched[tasks[0] + 8..tasks[0] + 16].copy_from_slice(&task_at.to_be_bytes());
        patched[at..at + 8].copy_from_slice(&(height * interval).to_be_bytes());
        patched[at + 8..at + 16].copy_from_slice(&height.to_be_bytes());
        let seal = sha256(&patched);
        patched.extend_from_slice(seal.as_bytes());
        Engine::snapshot_restore(&patched).expect("restores")
    };
    let restored_at = |height: u64| restored(height, u64::MAX);

    let mut hostile = restored(0, u64::MAX - 1);
    assert_eq!(hostile.pending_task_count(), 1);
    hostile.advance_to(interval);
    assert_eq!(hostile.chain().height(), 1);
    assert_eq!(hostile.pending_task_count(), 1);

    let refused = Err(EngineError::InvalidState(
        "time within one block interval of the end of the time range",
    ));

    let top = u64::MAX / interval;
    let mut last = restored_at(top);
    let (now, roots) = (last.now(), last.state_roots());
    assert_eq!(last.apply(Op::AdvanceTo { target: u64::MAX }), refused);
    assert_eq!((last.now(), last.chain().height()), (now, top));
    assert_eq!(last.chain().head_hash(), head);
    assert_eq!(last.state_roots().map_roots(), roots.map_roots());

    let mut below = restored_at(top - 2);
    below.advance_to(u64::MAX - interval);
    assert_eq!(below.chain().height(), top - 1);
    assert_eq!(
        below.chain().last_block().map(|b| b.height),
        Some(top - 1),
        "a restored chain reports the block it sealed"
    );
    let target = u64::MAX - interval + 1;
    assert_eq!(below.apply(Op::AdvanceTo { target }), refused);
}
