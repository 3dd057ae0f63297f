//! Parallel audit-commit consensus equivalence: a due `Auto_CheckProof`
//! bucket big enough to cross the batched-commit threshold is planned in
//! parallel and committed through validated fast plans (DESIGN.md §14) — and the result must be **bit-identical** to the
//! sequential canonical-order fold at every `(shards, ingest_threads)`
//! combination: same state root, same audit root, same chain head, same
//! consensus stats.
//!
//! Each scenario stresses a different corner of the disjointness rule:
//! the all-fast steady state, punishment bursts where many tasks touch
//! the same sector (and therefore must serialize), a mid-bucket
//! insolvency flip that invalidates pre-planned fast applies, and a
//! corruption cascade that forces sequential fallbacks with refresh rng
//! draws. The `audit_commit_batches` strategy counter pins down which
//! path actually ran.

use fi_chain::account::{AccountId, TokenAmount};
use fi_core::engine::{Engine, StateView};
use fi_core::params::ProtocolParams;
use fi_core::types::SectorState;
use fi_crypto::{sha256, DetRng};

const CLIENT: AccountId = AccountId(900);
const PROVIDER: AccountId = AccountId(700);

fn params(shards: usize, ingest_threads: usize) -> ProtocolParams {
    ProtocolParams {
        k: 2,
        delay_per_size: 6,
        shards,
        ingest_threads,
        ..ProtocolParams::default()
    }
}

/// Builds an engine with `n` live (confirmed, finalized) size-1 files
/// spread over `sectors` sectors. All files are added at the same
/// instant, so every subsequent `Auto_CheckProof` cycle pops as one
/// `n`-task bucket — past the batched-commit threshold for `n ≥ 64`.
fn engine_with_files(p: ProtocolParams, n: u64, sectors: usize) -> Engine {
    let min_value = p.min_value;
    let mut engine = Engine::new(p).expect("valid params");
    engine.fund(PROVIDER, TokenAmount(u128::MAX / 4));
    engine.fund(CLIENT, TokenAmount(u128::MAX / 4));
    for _ in 0..sectors {
        engine.sector_register(PROVIDER, 6400).expect("register");
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
    engine.advance_to(engine.now() + engine.params().transfer_window(1) + 1);
    assert_eq!(engine.file_ids().len() as u64, n, "all files live");
    engine
}

fn assert_bit_identical(a: &Engine, b: &Engine, what: &str) {
    assert_eq!(a.state_root(), b.state_root(), "{what}: state roots");
    assert_eq!(a.audit_root(), b.audit_root(), "{what}: audit roots");
    assert_eq!(
        a.chain().head_hash(),
        b.chain().head_hash(),
        "{what}: chain heads"
    );
    assert_eq!(
        a.stats().consensus(),
        b.stats().consensus(),
        "{what}: consensus stats"
    );
    assert_eq!(a.file_ids(), b.file_ids(), "{what}: file ids");
    assert_eq!(a.sector_ids(), b.sector_ids(), "{what}: sector ids");
    assert_eq!(
        a.ledger().total_supply(),
        b.ledger().total_supply(),
        "{what}: supply"
    );
    assert_eq!(
        a.pending_task_count(),
        b.pending_task_count(),
        "{what}: tasks"
    );
}

/// Runs one scenario at the sequential reference configuration and at
/// every parallel cell of the `(shards, ingest_threads) ∈ {1,8}×{1,4}`
/// matrix, asserts bit-identity throughout, and checks the batched
/// commit path engaged exactly on the sharded engines (every scenario
/// drives at least one ≥64-task `Auto_CheckProof` bucket). Returns the
/// reference engine for scenario-specific assertions.
fn run_matrix(build: impl Fn(usize, usize) -> Engine, what: &str) -> Engine {
    let reference = build(1, 1);
    assert_eq!(
        reference.stats().audit_commit_batches,
        0,
        "{what}: the 1-shard reference must use the sequential fold"
    );
    for (shards, threads) in [(1usize, 4usize), (8, 1), (8, 4)] {
        let engine = build(shards, threads);
        assert_bit_identical(
            &reference,
            &engine,
            &format!("{what} at {shards} shards / {threads} threads"),
        );
        assert_eq!(
            engine.stats().audit_commit_batches > 0,
            shards > 1,
            "{what}: batched commit engages exactly on sharded engines \
             ({shards} shards / {threads} threads)"
        );
    }
    reference
}

/// Steady state: every provider proves every cycle, so every plan is a
/// fast plan (rent transfer + gas burn, zero rng, no sector mutations)
/// and the whole bucket commits without a single sequential fallback.
#[test]
fn honest_steady_state_commits_batched_and_identically() {
    let reference = run_matrix(
        |shards, threads| {
            let mut e = engine_with_files(params(shards, threads), 120, 8);
            for _ in 0..3 {
                e.honest_providers_act();
                e.advance_to(e.now() + e.params().proof_cycle);
            }
            e
        },
        "steady state",
    );
    let stats = reference.stats();
    assert!(stats.proofs_audited >= 240, "audits ran: {stats:?}");
    assert_eq!(stats.punishments, 0, "honest run must not punish");
    assert_eq!(reference.file_ids().len(), 120, "no file may be lost");
}

/// Punishment burst on shared sectors: nobody proves, and the replicas
/// of 80 files crowd onto 4 sectors — so inside one due bucket many
/// `CheckProof` tasks punish the *same* sector. The first fast apply
/// that slashes a sector adds it to the mutated set; every later task
/// reading that sector must abandon its plan and serialize. Later
/// cycles cross the proof deadline and cascade into corruption.
#[test]
fn shared_sector_punishments_serialize_identically() {
    let reference = run_matrix(
        |shards, threads| {
            let mut e = engine_with_files(params(shards, threads), 80, 4);
            // No proofs at all: advance five cycles, crossing proof_due
            // (punish) and then proof_deadline (corrupt + losses).
            e.advance_to(e.now() + e.params().proof_cycle * 5);
            e
        },
        "shared-sector punishments",
    );
    let stats = reference.stats();
    // Pigeonhole: more punishments than sectors means at least one
    // sector was punished by two tasks of the same bucket.
    assert!(
        stats.punishments > reference.sector_ids().len() as u64 + 4,
        "punishments must pile onto shared sectors: {stats:?}"
    );
    assert!(
        stats.sectors_corrupted > 0 && stats.files_lost > 0,
        "the deadline cycle must cascade: {stats:?}"
    );
}

/// Mid-bucket insolvency flip: after one paid cycle the client is
/// drained down to 10½ files' worth of cycle cost. The plan phase —
/// reading the pre-bucket ledger — marks every task fast, but the live
/// balance recheck at apply time flips once ten fast applies have
/// drained the account: the remaining tasks must fall back to the
/// sequential executor, which discards the files as insolvent.
#[test]
fn mid_bucket_insolvency_flip_is_identical() {
    let reference = run_matrix(
        |shards, threads| {
            let mut e = engine_with_files(params(shards, threads), 80, 8);
            e.honest_providers_act();
            e.advance_to(e.now() + e.params().proof_cycle);
            let cp = e.file(e.file_ids()[0]).map(|d| d.cp).unwrap_or(2);
            let cost = e.params().cycle_cost(1, cp).0;
            let keep = cost * 10 + cost / 2;
            let balance = e.ledger().balance(CLIENT).0;
            e.burn_for_test(CLIENT, TokenAmount(balance - keep));
            e.honest_providers_act();
            e.advance_to(e.now() + e.params().proof_cycle);
            e
        },
        "insolvency flip",
    );
    let live = reference.file_ids().len();
    assert!(
        live < 80 && live > 0,
        "the flip must discard exactly the unaffordable tail, kept {live}"
    );
    assert_eq!(
        reference.ledger().balance(CLIENT).0 / reference.params().cycle_cost(1, 2).0,
        0,
        "the client account must be drained below one cycle cost"
    );
}

/// Corruption cascade with refresh draws: randomly injected sector
/// faults force sequential fallbacks (void_sector_content, refresh
/// scheduling, compensation) inside otherwise-batched buckets, across
/// several cycles of honest proving.
#[test]
fn corruption_cascade_is_identical() {
    for seed in [9u64, 31] {
        let reference = run_matrix(
            |shards, threads| {
                let mut e = engine_with_files(params(shards, threads), 80, 8);
                let mut rng = DetRng::from_seed_label(seed, "parallel-commit-cascade");
                let ids = e.sector_ids();
                for _ in 0..3 {
                    let s = ids[rng.below(ids.len() as u64) as usize];
                    if e.sector(s).map(|x| x.state) == Some(SectorState::Normal) {
                        if rng.below(2) == 0 {
                            e.fail_sector_silently(s);
                        } else {
                            e.corrupt_sector_now(s);
                        }
                    }
                }
                for _ in 0..5 {
                    e.honest_providers_act();
                    e.advance_to(e.now() + e.params().proof_cycle);
                }
                e
            },
            &format!("corruption cascade (seed {seed})"),
        );
        let stats = reference.stats();
        assert!(
            stats.sectors_corrupted > 0,
            "seed {seed}: faults must land: {stats:?}"
        );
        assert!(
            stats.proofs_audited > 0,
            "seed {seed}: honest replicas still audited: {stats:?}"
        );
    }
}
