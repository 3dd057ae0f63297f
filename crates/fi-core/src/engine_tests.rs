//! Engine behaviour tests: one scenario per protocol rule of Figs. 4–9,
//! plus cross-cutting invariants (space accounting, money conservation).

use fi_chain::account::{AccountId, TokenAmount};
use fi_crypto::sha256;

use crate::engine::{Engine, EngineError, StateView, COMPENSATION_POOL, DEPOSIT_ESCROW};
use crate::params::ProtocolParams;
use crate::types::{AllocState, FileState, ProtocolEvent, RemovalReason, SectorState};
use crate::{FileId, SectorId};

const PROVIDER: AccountId = AccountId(100);
const PROVIDER2: AccountId = AccountId(101);
const CLIENT: AccountId = AccountId(200);

/// Test parameters: k=3 replicas per minValue file, generous windows.
fn test_params() -> ProtocolParams {
    ProtocolParams {
        k: 3,
        delay_per_size: 6,
        avg_refresh: 8.0,
        ..ProtocolParams::default()
    }
}

fn engine_with(params: ProtocolParams) -> Engine {
    let mut e = Engine::new(params).unwrap();
    e.fund(PROVIDER, TokenAmount(1_000_000_000));
    e.fund(PROVIDER2, TokenAmount(1_000_000_000));
    e.fund(CLIENT, TokenAmount(100_000_000));
    e
}

fn engine() -> Engine {
    engine_with(test_params())
}

/// Advances to `until`, letting honest providers confirm and prove every
/// 50 ticks (inside every transfer window and proof-due window).
fn run_honest(e: &mut Engine, until: u64) {
    while e.now() < until {
        e.honest_providers_act();
        let next = (e.now() + 50).min(until);
        e.advance_to(next);
    }
    e.honest_providers_act();
}

/// Checks the space-accounting invariants the engine must preserve:
/// per-sector `free_cap`/`replica_count` equal the allocation table's view,
/// and DRep unsealed space stays below one CR.
fn check_space_invariants(e: &Engine) {
    for sid in e.sector_ids() {
        let sector = e.sector(sid).unwrap();
        if sector.state == SectorState::Corrupted {
            continue;
        }
        let mut used = 0u64;
        let mut count = 0u32;
        for f in e.file_ids() {
            let desc = e.file(f).unwrap();
            for i in 0..desc.cp {
                let entry = e.alloc_entry(f, i).unwrap();
                let holds = entry.prev == Some(sid)
                    && matches!(
                        entry.state,
                        AllocState::Normal | AllocState::Alloc | AllocState::Confirm
                    );
                let reserved = entry.next == Some(sid)
                    && matches!(entry.state, AllocState::Alloc | AllocState::Confirm);
                if holds {
                    used += desc.size;
                    count += 1;
                }
                if reserved {
                    used += desc.size;
                    count += 1;
                }
            }
        }
        assert_eq!(sector.used(), used, "{sid} used-space drift");
        assert_eq!(sector.replica_count, count, "{sid} replica-count drift");
        let cr = e.cr_accounting(sid).unwrap();
        assert!(cr.invariant_holds(), "{sid} DRep invariant");
        assert_eq!(cr.free(), sector.free_cap, "{sid} CR accounting drift");
    }
}

fn add_one_file(e: &mut Engine, size: u64) -> FileId {
    let value = e.params().min_value;
    let f = e
        .file_add(CLIENT, size, value, sha256(b"test file"))
        .unwrap();
    e.honest_providers_act();
    let deadline = e.now() + e.params().transfer_window(size);
    e.advance_to(deadline);
    f
}

// ---------------------------------------------------------------------
// Sector lifecycle
// ---------------------------------------------------------------------

#[test]
fn register_pledges_deposit_into_escrow() {
    let mut e = engine();
    let before = e.ledger().balance(PROVIDER);
    let sid = e.sector_register(PROVIDER, 640).unwrap();
    let deposit = e.params().sector_deposit(640).unwrap();
    assert_eq!(e.sector(sid).unwrap().deposit, deposit);
    assert_eq!(e.ledger().balance(DEPOSIT_ESCROW), deposit);
    assert!(e.ledger().balance(PROVIDER) < before - deposit); // deposit + gas
    check_space_invariants(&e);
}

#[test]
fn register_rejects_bad_capacity_and_poverty() {
    let mut e = engine();
    assert!(matches!(
        e.sector_register(PROVIDER, 100),
        Err(EngineError::Param(_))
    ));
    let poor = AccountId(999);
    e.fund(poor, TokenAmount(1_000)); // covers gas, not deposit
    assert_eq!(
        e.sector_register(poor, 640),
        Err(EngineError::InsufficientFunds)
    );
}

#[test]
fn disable_empty_sector_removes_and_refunds() {
    let mut e = engine();
    let sid = e.sector_register(PROVIDER, 640).unwrap();
    let deposit = e.params().sector_deposit(640).unwrap();
    let before = e.ledger().balance(PROVIDER);
    e.sector_disable(PROVIDER, sid).unwrap();
    assert!(e.sector(sid).is_none(), "empty sector removed at once");
    // Balance: deposit returned minus the disable request's gas.
    let gas = TokenAmount(35);
    assert_eq!(e.ledger().balance(PROVIDER), before + deposit - gas);
    assert!(e
        .events()
        .iter()
        .any(|ev| matches!(ev, ProtocolEvent::SectorRemoved { .. })));
}

#[test]
fn disable_requires_ownership() {
    let mut e = engine();
    let sid = e.sector_register(PROVIDER, 640).unwrap();
    assert_eq!(e.sector_disable(PROVIDER2, sid), Err(EngineError::NotOwner));
    assert_eq!(
        e.sector_disable(PROVIDER, SectorId(99)),
        Err(EngineError::UnknownSector(SectorId(99)))
    );
}

// ---------------------------------------------------------------------
// File add / confirm / CheckAlloc
// ---------------------------------------------------------------------

#[test]
fn file_add_happy_path_stores_file() {
    let mut e = engine();
    e.sector_register(PROVIDER, 640).unwrap();
    e.sector_register(PROVIDER2, 640).unwrap();
    let f = add_one_file(&mut e, 16);
    let desc = e.file(f).unwrap();
    assert_eq!(desc.state, FileState::Normal);
    assert_eq!(desc.cp, 3);
    assert!(desc.cntdown >= 1, "cntdown armed");
    for i in 0..3 {
        let entry = e.alloc_entry(f, i).unwrap();
        assert_eq!(entry.state, AllocState::Normal);
        assert!(entry.prev.is_some());
        assert!(entry.next.is_none());
    }
    assert!(e
        .events()
        .iter()
        .any(|ev| matches!(ev, ProtocolEvent::FileStored { file } if *file == f)));
    check_space_invariants(&e);
}

#[test]
fn file_add_validation_errors() {
    let mut e = engine();
    e.sector_register(PROVIDER, 640).unwrap();
    let root = sha256(b"x");
    assert!(matches!(
        e.file_add(CLIENT, 0, TokenAmount(1_000), root),
        Err(EngineError::InvalidState(_))
    ));
    assert!(matches!(
        e.file_add(CLIENT, 33, TokenAmount(1_000), root),
        Err(EngineError::FileTooLarge {
            size: 33,
            limit: 32
        })
    ));
    assert!(matches!(
        e.file_add(CLIENT, 16, TokenAmount(1_500), root),
        Err(EngineError::Param(_))
    ));
}

#[test]
fn unconfirmed_upload_fails_and_refunds_traffic_fee() {
    let mut e = engine();
    e.sector_register(PROVIDER, 640).unwrap();
    let before = e.ledger().balance(CLIENT);
    let f = e
        .file_add(CLIENT, 16, TokenAmount(1_000), sha256(b"ghost"))
        .unwrap();
    // Nobody confirms; the transfer window expires.
    e.advance_to(e.now() + e.params().transfer_window(16));
    assert!(e.file(f).is_none());
    assert!(e.events().iter().any(|ev| matches!(
        ev,
        ProtocolEvent::FileRemoved { file, reason: RemovalReason::UploadFailed } if *file == f
    )));
    // Traffic escrow fully refunded; only gas was spent.
    let gas_spent = before - e.ledger().balance(CLIENT);
    assert!(gas_spent.0 < 100, "only gas burned, got {gas_spent}");
    check_space_invariants(&e);
}

#[test]
fn partial_confirms_also_fail_upload() {
    let mut e = engine();
    e.sector_register(PROVIDER, 640).unwrap();
    let f = e
        .file_add(CLIENT, 16, TokenAmount(1_000), sha256(b"partial"))
        .unwrap();
    // Confirm only the first replica.
    let pending = e.pending_confirms(f);
    let (idx, sid) = pending[0];
    e.file_confirm(PROVIDER, f, idx, sid).unwrap();
    e.advance_to(e.now() + e.params().transfer_window(16));
    assert!(e.file(f).is_none());
    check_space_invariants(&e);
}

#[test]
fn confirm_checks_ownership_and_state() {
    let mut e = engine();
    e.sector_register(PROVIDER, 640).unwrap();
    let f = e
        .file_add(CLIENT, 16, TokenAmount(1_000), sha256(b"c"))
        .unwrap();
    let (idx, sid) = e.pending_confirms(f)[0];
    assert_eq!(
        e.file_confirm(PROVIDER2, f, idx, sid),
        Err(EngineError::NotOwner)
    );
    e.file_confirm(PROVIDER, f, idx, sid).unwrap();
    // Double confirm rejected.
    assert!(matches!(
        e.file_confirm(PROVIDER, f, idx, sid),
        Err(EngineError::InvalidState(_))
    ));
}

#[test]
fn traffic_fee_flows_to_provider_on_confirm() {
    let mut e = engine();
    e.sector_register(PROVIDER, 1280).unwrap();
    let before = e.ledger().balance(PROVIDER);
    let f = e
        .file_add(CLIENT, 16, TokenAmount(1_000), sha256(b"fee"))
        .unwrap();
    let confirms = e.pending_confirms(f);
    assert_eq!(confirms.len(), 3);
    for (idx, sid) in confirms {
        e.file_confirm(PROVIDER, f, idx, sid).unwrap();
    }
    let fee = e.params().traffic_fee(16);
    let gained = e.ledger().balance(PROVIDER) + TokenAmount(3 * 11) - before; // gas back-of-envelope
    assert!(
        gained >= TokenAmount(3 * fee.0),
        "provider earned traffic fees: {gained}"
    );
}

// ---------------------------------------------------------------------
// Rent, proofs, discard
// ---------------------------------------------------------------------

#[test]
fn rent_charged_each_cycle_and_distributed() {
    let mut e = engine();
    // Zero gas so provider balances show pure rent + traffic-fee flows.
    e.set_gas_schedule(fi_chain::gas::GasSchedule::free());
    e.sector_register(PROVIDER, 640).unwrap();
    e.sector_register(PROVIDER2, 1280).unwrap();
    let f = add_one_file(&mut e, 16);
    let client_before = e.ledger().balance(CLIENT);
    let p1_before = e.ledger().balance(PROVIDER);
    let p2_before = e.ledger().balance(PROVIDER2);

    // Run one full rent period of honest proving.
    let period = e.params().proof_cycle * e.params().rent_period_cycles as u64;
    let until = e.now() + period + 10;
    run_honest(&mut e, until);

    assert!(e.file(f).is_some(), "file survives under honest proving");
    assert!(
        e.ledger().balance(CLIENT) < client_before,
        "client pays rent"
    );
    assert!(e
        .events()
        .iter()
        .any(|ev| matches!(ev, ProtocolEvent::RentDistributed { total } if !total.is_zero())));
    let p1_gain = e.ledger().balance(PROVIDER).saturating_sub(p1_before);
    let p2_gain = e.ledger().balance(PROVIDER2).saturating_sub(p2_before);
    // PROVIDER2 has 2x capacity => roughly 2x rent (gas noise aside).
    assert!(
        p2_gain > p1_gain,
        "rent pro rata capacity: {p1_gain} vs {p2_gain}"
    );
    check_space_invariants(&e);
}

#[test]
fn discard_removes_file_at_next_check_proof() {
    let mut e = engine();
    e.sector_register(PROVIDER, 640).unwrap();
    let f = add_one_file(&mut e, 16);
    e.file_discard(CLIENT, f).unwrap();
    assert_eq!(e.file(f).unwrap().state, FileState::Discarded);
    let until = e.now() + e.params().proof_cycle + 10;
    run_honest(&mut e, until);
    assert!(e.file(f).is_none());
    assert!(e.events().iter().any(|ev| matches!(
        ev,
        ProtocolEvent::FileRemoved { file, reason: RemovalReason::ClientDiscard } if *file == f
    )));
    check_space_invariants(&e);
}

#[test]
fn discard_requires_owner() {
    let mut e = engine();
    e.sector_register(PROVIDER, 640).unwrap();
    let f = add_one_file(&mut e, 16);
    assert_eq!(e.file_discard(PROVIDER, f), Err(EngineError::NotOwner));
}

#[test]
fn broke_client_file_auto_discarded() {
    let mut e = engine();
    e.sector_register(PROVIDER, 640).unwrap();
    let f = add_one_file(&mut e, 16);
    // Drain the client to below one cycle's cost (Fig. 8: "does not have
    // enough tokens to pay the cost for the next cycle").
    let balance = e.ledger().balance(CLIENT);
    e.burn_for_test(CLIENT, balance - TokenAmount(10));
    let until = e.now() + 2 * e.params().proof_cycle + 10;
    run_honest(&mut e, until);
    assert!(e.file(f).is_none());
    assert!(e.events().iter().any(|ev| matches!(
        ev,
        ProtocolEvent::FileRemoved { file, reason: RemovalReason::InsufficientFunds } if *file == f
    )));
}

// ---------------------------------------------------------------------
// Punishment, corruption, compensation
// ---------------------------------------------------------------------

#[test]
fn silent_failure_confiscates_deposit_and_compensates_loss() {
    let mut e = engine();
    let s1 = e.sector_register(PROVIDER, 640).unwrap();
    let s2 = e.sector_register(PROVIDER2, 640).unwrap();
    let f = add_one_file(&mut e, 16);
    let value = e.file(f).unwrap().value;
    let client_before = e.ledger().balance(CLIENT);

    // Both providers go dark: proofs stop.
    e.fail_sector_silently(s1);
    e.fail_sector_silently(s2);

    // After ProofDeadline the sectors are corrupted and the file is lost.
    let horizon = e.now() + e.params().proof_deadline + 2 * e.params().proof_cycle;
    e.advance_to(horizon);

    assert_eq!(e.sector(s1).unwrap().state, SectorState::Corrupted);
    assert_eq!(e.sector(s2).unwrap().state, SectorState::Corrupted);
    assert!(e.file(f).is_none());
    assert_eq!(e.stats().files_lost, 1);
    assert_eq!(e.stats().compensation_shortfall, TokenAmount::ZERO);

    // Full compensation: the client's balance recovered the file value
    // minus the rent paid before death.
    let client_after = e.ledger().balance(CLIENT);
    assert!(
        client_after + TokenAmount(1_000) > client_before + value,
        "client compensated {value}: {client_before} -> {client_after}"
    );
    // Confiscated deposits exceed the payout (deposit ratio >> loss).
    assert!(e.ledger().balance(COMPENSATION_POOL) > TokenAmount::ZERO);
}

#[test]
fn late_proofs_punished_before_deadline() {
    let mut e = engine();
    let s1 = e.sector_register(PROVIDER, 640).unwrap();
    let f = add_one_file(&mut e, 16);
    let deposit_before = e.sector(s1).unwrap().deposit;

    // Provider proves nothing for a window past ProofDue but short of
    // ProofDeadline: 2 cycles < t < 4 cycles.
    e.advance_to(e.now() + 3 * e.params().proof_cycle);
    assert!(e.stats().punishments > 0, "late proof punished");
    let s = e.sector(s1).unwrap();
    assert_eq!(s.state, SectorState::Normal, "not yet corrupted");
    assert!(s.deposit < deposit_before, "deposit docked");
    assert!(e.file(f).is_some(), "file still alive");
}

#[test]
fn one_surviving_replica_keeps_file_alive() {
    let mut e = engine();
    let mut params_sectors = Vec::new();
    for _ in 0..3 {
        params_sectors.push(e.sector_register(PROVIDER, 640).unwrap());
    }
    let f = add_one_file(&mut e, 16);
    // Corrupt every sector except one that holds a replica.
    let holder: Vec<SectorId> = (0..3)
        .filter_map(|i| e.alloc_entry(f, i).unwrap().prev)
        .collect();
    let survivor = holder[0];
    for sid in e.sector_ids() {
        if sid != survivor {
            e.corrupt_sector_now(sid);
        }
    }
    let until = e.now() + 3 * e.params().proof_cycle;
    run_honest(&mut e, until);
    assert!(e.file(f).is_some(), "file survives on one replica");
    assert_eq!(e.stats().files_lost, 0);
    check_space_invariants(&e);
}

#[test]
fn corrupt_sector_now_resolves_mid_refresh_confirm() {
    // A replica mid-refresh whose source dies after the target confirmed
    // must finalise at the target (no loss).
    let mut e = engine_with(ProtocolParams {
        k: 1,
        avg_refresh: 1.0, // refresh at every proof cycle
        delay_per_size: 6,
        ..ProtocolParams::default()
    });
    let _s1 = e.sector_register(PROVIDER, 640).unwrap();
    let s2 = e.sector_register(PROVIDER2, 640).unwrap();
    let f = add_one_file(&mut e, 16);
    // Drive to the first refresh start (cntdown=1 fires at first cycle).
    let mut saw_swap = false;
    for _ in 0..40 {
        e.honest_providers_act();
        e.advance_to(e.now() + 25);
        let entry = e.alloc_entry(f, 0).unwrap();
        if entry.state == AllocState::Confirm && entry.prev != entry.next {
            // Target confirmed (a genuine cross-sector move); kill the
            // source before CheckRefresh completes the swap.
            let source = entry.prev.unwrap();
            let target = entry.next.unwrap();
            e.corrupt_sector_now(source);
            let entry = e.alloc_entry(f, 0).unwrap();
            assert_eq!(entry.state, AllocState::Normal);
            assert_eq!(entry.prev, Some(target));
            saw_swap = true;
            break;
        }
    }
    assert!(saw_swap, "never caught a mid-refresh confirm");
    assert!(e.file(f).is_some());
    let _ = s2;
}

// ---------------------------------------------------------------------
// Refresh dynamics
// ---------------------------------------------------------------------

#[test]
fn refreshes_move_replicas_over_time() {
    let mut e = engine_with(ProtocolParams {
        k: 3,
        avg_refresh: 2.0,
        delay_per_size: 6,
        ..ProtocolParams::default()
    });
    for _ in 0..4 {
        e.sector_register(PROVIDER, 640).unwrap();
    }
    let f = add_one_file(&mut e, 16);
    let until = e.now() + 30 * e.params().proof_cycle;
    run_honest(&mut e, until);
    assert!(e.file(f).is_some(), "file alive under honest churn");
    assert!(
        e.stats().refreshes_completed > 0,
        "refreshes ran: {:?}",
        e.stats()
    );
    check_space_invariants(&e);
}

#[test]
fn failed_refresh_punishes_and_retries() {
    let mut e = engine_with(ProtocolParams {
        k: 1,
        avg_refresh: 1.0,
        delay_per_size: 6,
        ..ProtocolParams::default()
    });
    let _s1 = e.sector_register(PROVIDER, 640).unwrap();
    let _s2 = e.sector_register(PROVIDER2, 640).unwrap();
    let f = add_one_file(&mut e, 16);
    // Providers confirm nothing after the initial placement and never
    // prove; but keep the file alive by proving only (no confirms):
    // simulate by advancing exactly one cycle at a time and proving
    // manually for the holder.
    let mut punished = false;
    for _ in 0..10 {
        // Prove for current holder to avoid deadline corruption.
        let entry = e.alloc_entry(f, 0).unwrap().clone();
        if let Some(holder) = entry.prev {
            let owner = e.sector(holder).map(|s| s.owner);
            if let Some(o) = owner {
                let _ = e.file_prove(o, f, 0, holder);
            }
        }
        e.advance_to(e.now() + e.params().proof_cycle);
        if e.stats().punishments > 0 {
            punished = true;
            break;
        }
    }
    assert!(punished, "unconfirmed refresh must punish");
    assert!(e.file(f).is_some());
}

#[test]
fn disabled_sector_drains_and_refunds() {
    let mut e = engine_with(ProtocolParams {
        k: 2,
        avg_refresh: 1.5,
        delay_per_size: 6,
        ..ProtocolParams::default()
    });
    let s1 = e.sector_register(PROVIDER, 640).unwrap();
    let s2 = e.sector_register(PROVIDER2, 640).unwrap();
    let s3 = e.sector_register(PROVIDER2, 640).unwrap();
    let f = add_one_file(&mut e, 16);

    // Disable s1; refreshes must eventually move its replicas elsewhere.
    e.sector_disable(PROVIDER, s1).unwrap();
    let provider_before = e.ledger().balance(PROVIDER);
    let until = e.now() + 80 * e.params().proof_cycle;
    run_honest(&mut e, until);

    assert!(e.file(f).is_some());
    assert!(
        e.sector(s1).is_none(),
        "disabled sector drained and removed"
    );
    assert!(
        e.ledger().balance(PROVIDER) > provider_before,
        "deposit refunded"
    );
    let _ = (s2, s3);
    check_space_invariants(&e);
}

// ---------------------------------------------------------------------
// Retrieval, capacity exhaustion, Poisson swap-in
// ---------------------------------------------------------------------

#[test]
fn file_get_lists_live_holders() {
    let mut e = engine();
    let s1 = e.sector_register(PROVIDER, 640).unwrap();
    let f = add_one_file(&mut e, 16);
    let holders = e.file_get(CLIENT, f).unwrap();
    assert_eq!(holders.len(), 3);
    assert!(holders
        .iter()
        .all(|&(sid, owner)| sid == s1 && owner == PROVIDER));
    e.corrupt_sector_now(s1);
    let holders = e.file_get(CLIENT, f).unwrap();
    assert!(holders.is_empty());
    assert!(matches!(
        e.file_get(CLIENT, FileId(404)),
        Err(EngineError::UnknownFile(_))
    ));
}

#[test]
fn capacity_exhaustion_returns_no_capacity() {
    let mut e = engine_with(ProtocolParams {
        k: 1,
        ..test_params()
    });
    e.sector_register(PROVIDER, 64).unwrap();
    // Fill the single 64-unit sector with two 32-unit files.
    add_one_file(&mut e, 32);
    add_one_file(&mut e, 32);
    let err = e
        .file_add(CLIENT, 32, TokenAmount(1_000), sha256(b"overflow"))
        .unwrap_err();
    assert_eq!(err, EngineError::NoCapacity);
    assert!(e.stats().add_collisions > 0);
    // The escrow was refunded.
    check_space_invariants(&e);
}

#[test]
fn poisson_swap_in_targets_new_sector() {
    let mut e = engine_with(ProtocolParams {
        k: 4,
        poisson_rebalance: true,
        delay_per_size: 6,
        ..ProtocolParams::default()
    });
    e.sector_register(PROVIDER, 640).unwrap();
    for _ in 0..8 {
        add_one_file(&mut e, 16);
    }
    let swaps_before = e.stats().refreshes_started;
    // A big new sector should attract a Poisson(≈ replicas × share) number
    // of swap-ins; with share 2/3 and 32 replicas the chance of zero is
    // negligible.
    e.sector_register(PROVIDER2, 1280).unwrap();
    assert!(
        e.stats().refreshes_started > swaps_before,
        "swap-ins started on register"
    );
    let until = e.now() + 200;
    run_honest(&mut e, until);
    check_space_invariants(&e);
}

// ---------------------------------------------------------------------
// Money conservation
// ---------------------------------------------------------------------

#[test]
fn ledger_conserves_through_full_scenario() {
    let mut e = engine_with(ProtocolParams {
        k: 2,
        avg_refresh: 2.0,
        delay_per_size: 6,
        ..ProtocolParams::default()
    });
    let s1 = e.sector_register(PROVIDER, 640).unwrap();
    let _s2 = e.sector_register(PROVIDER2, 640).unwrap();
    let f1 = add_one_file(&mut e, 16);
    let _f2 = add_one_file(&mut e, 8);
    let until = e.now() + 5 * e.params().proof_cycle;
    run_honest(&mut e, until);
    e.file_discard(CLIENT, f1).unwrap();
    e.corrupt_sector_now(s1);
    let until = e.now() + 10 * e.params().proof_cycle;
    run_honest(&mut e, until);

    assert!(e.ledger().audit(), "balances sum to supply");
    // Everything minted is either held, burned (gas), or still in supply:
    // audit() already checks supply = Σ balances; additionally no negative
    // flows occurred (all asserts inside the engine held).
    check_space_invariants(&e);
}

#[test]
fn state_root_changes_with_activity() {
    let mut e = engine();
    let r0 = e.state_root();
    e.sector_register(PROVIDER, 640).unwrap();
    let r1 = e.state_root();
    assert_ne!(r0, r1);
    let e2 = engine();
    assert_eq!(e2.state_root(), r0, "deterministic initial state");
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut e = engine_with(ProtocolParams {
            k: 3,
            avg_refresh: 3.0,
            delay_per_size: 6,
            ..ProtocolParams::default()
        });
        e.sector_register(PROVIDER, 640).unwrap();
        e.sector_register(PROVIDER2, 1280).unwrap();
        add_one_file(&mut e, 16);
        add_one_file(&mut e, 8);
        run_honest(&mut e, 2_000);
        (e.state_root(), e.stats(), e.events().len())
    };
    assert_eq!(run(), run(), "same seed, same trajectory");
}

#[test]
fn discard_during_transfer_window_survives_check_alloc() {
    // A discard issued while the upload is still Allocating must not be
    // clobbered back to Normal when Auto_CheckAlloc finalises confirmed
    // replicas; the file must be removed at the first Auto_CheckProof.
    let mut e = engine();
    e.sector_register(PROVIDER, 640).unwrap();
    let root = sha256(b"discard-mid-transfer");
    let file = e.file_add(CLIENT, 16, TokenAmount(1_000), root).unwrap();
    e.file_discard(CLIENT, file).unwrap();
    // Providers confirm anyway (they don't see the discard).
    let window = e.params().transfer_window(16);
    run_honest(&mut e, window + 1);
    assert_ne!(
        e.file(file).map(|d| d.state),
        Some(FileState::Normal),
        "discard was clobbered back to Normal by Auto_CheckAlloc"
    );
    // The next proof cycle removes it entirely.
    let until = e.now() + e.params().proof_cycle + 1;
    run_honest(&mut e, until);
    assert!(e.file(file).is_none(), "discarded file must be removed");
}
