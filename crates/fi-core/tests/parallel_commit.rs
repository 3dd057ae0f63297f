//! Audit-cycle consensus equivalence across verify fan-out widths: a due
//! `Auto_CheckProof` bucket of at least 64 tasks verifies on scoped
//! threads when `ProtocolParams::shards > 1` — `max(cores,
//! ingest_threads)` of them — and then commits one task at a time in pop
//! order. The result must be **bit-identical** at every `(shards,
//! ingest_threads)` combination: same state root, same audit root, same
//! chain head, same consensus stats. (The scenarios submit single ops, so
//! staged ingest is pinned elsewhere: `tests/batch_ingest.rs`.)
//!
//! Each scenario drives the commit through a different corner of the
//! protocol behind the fanned-out verify: the honest steady state,
//! punishment bursts where many tasks of one bucket slash the same
//! sector, a mid-bucket insolvency flip that discards the unaffordable
//! tail, and a corruption cascade with refresh rng draws and
//! compensation.

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
/// `n`-task bucket — past the verify fan-out threshold for `n ≥ 64`.
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
/// every other cell of the `(shards, ingest_threads) ∈ {1,8}×{1,4}`
/// matrix and asserts bit-identity throughout. Every scenario drives at
/// least one ≥64-task `Auto_CheckProof` bucket, so the sharded cells
/// verify it on the fan-out. Returns the reference engine for
/// scenario-specific assertions.
fn run_matrix(build: impl Fn(usize, usize) -> Engine, what: &str) -> Engine {
    let reference = build(1, 1);
    for (shards, threads) in [(1usize, 4usize), (8, 1), (8, 4)] {
        let engine = build(shards, threads);
        assert_bit_identical(
            &reference,
            &engine,
            &format!("{what} at {shards} shards / {threads} threads"),
        );
    }
    reference
}

/// Steady state: every provider proves every cycle, so every task of the
/// bucket charges rent and gas, draws no rng and mutates no sector.
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
/// `CheckProof` tasks punish the *same* sector, each on the deposit the
/// previous one left. Later cycles cross the proof deadline and cascade
/// into corruption.
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
/// drained down to 10½ files' worth of cycle cost. The first ten tasks
/// of the next bucket pay; the balance then falls short, and every
/// later task discards its file as insolvent.
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
/// faults void sector content, schedule refreshes and pay compensation
/// inside otherwise-honest buckets, across several cycles of proving.
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
