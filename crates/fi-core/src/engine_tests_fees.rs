//! Engine tests: fee mechanics, gas, error paths, and edge dynamics that
//! the scenario-level tests don't isolate.

use fi_chain::account::{AccountId, TokenAmount};
use fi_chain::gas::GasSchedule;
use fi_crypto::sha256;

use crate::engine::{Engine, EngineError, StateView, RENT_POOL, TRAFFIC_ESCROW};
use crate::params::ProtocolParams;
use crate::types::ProtocolEvent;
use crate::FileId;

const PROVIDER: AccountId = AccountId(100);
const CLIENT: AccountId = AccountId(200);

fn free_gas_engine(k: u32) -> Engine {
    let params = ProtocolParams {
        k,
        delay_per_size: 6,
        avg_refresh: 1e9, // no spontaneous refreshes unless wanted
        ..ProtocolParams::default()
    };
    let mut e = Engine::new(params).unwrap();
    e.set_gas_schedule(GasSchedule::free());
    e.fund(PROVIDER, TokenAmount(1_000_000_000));
    e.fund(CLIENT, TokenAmount(100_000_000));
    e
}

fn stored_file(e: &mut Engine, size: u64) -> FileId {
    let f = e
        .file_add(CLIENT, size, e.params().min_value, sha256(b"fee test"))
        .unwrap();
    e.honest_providers_act();
    let deadline = e.now() + e.params().transfer_window(size);
    e.advance_to(deadline);
    assert!(e.file(f).is_some());
    f
}

#[test]
fn cycle_cost_is_exactly_rent_plus_prepaid_gas() {
    let mut e = free_gas_engine(2);
    e.sector_register(PROVIDER, 640).unwrap();
    let f = stored_file(&mut e, 10);
    let before = e.ledger().balance(CLIENT);
    let rent_pool_before = e.ledger().balance(RENT_POOL);

    // One CheckProof fires.
    e.honest_providers_act();
    e.advance_to(e.now() + e.params().proof_cycle);

    let desc_cost = e.params().cycle_cost(10, e.file(f).unwrap().cp);
    assert_eq!(e.ledger().balance(CLIENT), before - desc_cost);
    // The rent share sits in the pool; the prepaid gas share was burned.
    let rent = TokenAmount(e.params().unit_rent.0 * 10 * 2);
    assert_eq!(e.ledger().balance(RENT_POOL), rent_pool_before + rent);
}

#[test]
fn traffic_escrow_zeroes_out_after_all_confirms() {
    let mut e = free_gas_engine(3);
    e.sector_register(PROVIDER, 640).unwrap();
    let f = e
        .file_add(CLIENT, 8, TokenAmount(1_000), sha256(b"escrow"))
        .unwrap();
    let escrow = e.ledger().balance(TRAFFIC_ESCROW);
    assert_eq!(escrow, TokenAmount(8 * 3)); // fee per size × cp
    for (i, s) in e.pending_confirms(f) {
        e.file_confirm(PROVIDER, f, i, s).unwrap();
    }
    assert_eq!(e.ledger().balance(TRAFFIC_ESCROW), TokenAmount::ZERO);
    assert_eq!(
        e.ledger().balance(PROVIDER),
        TokenAmount(1_000_000_000) - e.params().sector_deposit(640).unwrap() + TokenAmount(24)
    );
}

#[test]
fn gas_charged_even_on_failed_requests() {
    // With the default (non-free) schedule, a rejected request still burns
    // its gas — consensus space was consumed (§IV-A.3).
    let params = ProtocolParams::default();
    let mut e = Engine::new(params).unwrap();
    e.fund(CLIENT, TokenAmount(1_000));
    let before = e.ledger().balance(CLIENT);
    let err = e.file_discard(CLIENT, FileId(404)).unwrap_err();
    assert_eq!(err, EngineError::UnknownFile(FileId(404)));
    assert!(e.ledger().balance(CLIENT) < before, "gas burned on failure");
}

#[test]
fn broke_caller_cannot_even_submit() {
    let params = ProtocolParams::default();
    let mut e = Engine::new(params).unwrap();
    let pauper = AccountId(999);
    assert_eq!(
        e.file_discard(pauper, FileId(0)).unwrap_err(),
        EngineError::InsufficientFunds
    );
}

#[test]
fn prove_error_paths() {
    let mut e = free_gas_engine(2);
    let s = e.sector_register(PROVIDER, 640).unwrap();
    let f = stored_file(&mut e, 8);

    // Wrong owner.
    let stranger = AccountId(101);
    e.fund(stranger, TokenAmount(1_000_000));
    assert_eq!(
        e.file_prove(stranger, f, 0, s).unwrap_err(),
        EngineError::NotOwner
    );
    // Unknown sector.
    assert!(matches!(
        e.file_prove(PROVIDER, f, 0, crate::SectorId(77)),
        Err(EngineError::UnknownSector(_))
    ));
    // Physically failed sector can't prove.
    e.fail_sector_silently(s);
    assert!(matches!(
        e.file_prove(PROVIDER, f, 0, s),
        Err(EngineError::InvalidState(_))
    ));
}

#[test]
fn confirm_unknown_file_or_entry_rejected() {
    let mut e = free_gas_engine(2);
    let s = e.sector_register(PROVIDER, 640).unwrap();
    assert!(matches!(
        e.file_confirm(PROVIDER, FileId(5), 0, s),
        Err(EngineError::UnknownFile(_))
    ));
    let f = stored_file(&mut e, 8);
    // Entry index out of range behaves as unknown.
    assert!(matches!(
        e.file_confirm(PROVIDER, f, 9, s),
        Err(EngineError::UnknownFile(_))
    ));
}

#[test]
fn file_added_event_carries_replica_count() {
    let mut e = free_gas_engine(4);
    e.sector_register(PROVIDER, 1280).unwrap();
    let f = e
        .file_add(CLIENT, 8, TokenAmount(2_000), sha256(b"cp event"))
        .unwrap();
    // value = 2 × minValue ⇒ cp = 2k = 8.
    assert!(e.events().iter().any(|ev| matches!(
        ev,
        ProtocolEvent::FileAdded { file, cp: 8 } if *file == f
    )));
}

#[test]
fn add_collisions_counted_but_placement_succeeds() {
    // One nearly full sector plus one empty: sampling hits the full one
    // sometimes (counting collisions) but always lands eventually.
    let mut e = free_gas_engine(1);
    e.sector_register(PROVIDER, 64).unwrap();
    e.sector_register(PROVIDER, 640).unwrap();
    stored_file(&mut e, 32);
    stored_file(&mut e, 32); // the small sector is now full
    for _ in 0..20 {
        stored_file(&mut e, 32);
    }
    assert!(
        e.stats().add_collisions > 0,
        "some draws must have hit the full sector: {:?}",
        e.stats()
    );
    // All files placed despite collisions.
    assert_eq!(e.file_ids().len(), 22);
}

#[test]
fn refresh_collision_rearms_countdown() {
    // Two sectors exactly fitting the existing replicas: any refresh
    // target lacks space, so Auto_Refresh takes the else-branch.
    let params = ProtocolParams {
        k: 2,
        delay_per_size: 6,
        avg_refresh: 1.0, // refresh at every cycle
        size_limit: 64,   // allow the 33-unit file used below
        ..ProtocolParams::default()
    };
    let mut e = Engine::new(params).unwrap();
    e.set_gas_schedule(GasSchedule::free());
    e.fund(PROVIDER, TokenAmount(1_000_000_000));
    e.fund(CLIENT, TokenAmount(100_000_000));
    e.sector_register(PROVIDER, 64).unwrap();
    e.sector_register(PROVIDER, 64).unwrap();
    let f = stored_file(&mut e, 33); // 33 > 64-33 ⇒ no sector can take a second copy
    for _ in 0..6 {
        e.honest_providers_act();
        e.advance_to(e.now() + e.params().proof_cycle);
    }
    assert!(e.stats().refresh_collisions > 0, "{:?}", e.stats());
    assert!(e
        .events()
        .iter()
        .any(|ev| matches!(ev, ProtocolEvent::RefreshCollision { file, .. } if *file == f)),);
    assert!(e.file(f).is_some(), "collision is harmless");
}

#[test]
fn rent_distribution_excludes_corrupted_sectors() {
    let mut e = free_gas_engine(2);
    let s1 = e.sector_register(PROVIDER, 640).unwrap();
    let other = AccountId(101);
    e.fund(other, TokenAmount(1_000_000_000));
    let s2 = e.sector_register(other, 640).unwrap();
    stored_file(&mut e, 10);

    e.corrupt_sector_now(s1);
    let provider_after_corruption = e.ledger().balance(PROVIDER);

    // Run a full rent period.
    let period = e.params().proof_cycle * e.params().rent_period_cycles as u64;
    for _ in 0..=e.params().rent_period_cycles {
        e.honest_providers_act();
        e.advance_to(e.now() + e.params().proof_cycle);
    }
    let _ = period;
    assert_eq!(
        e.ledger().balance(PROVIDER),
        provider_after_corruption,
        "corrupted sector earns no rent"
    );
    assert!(
        e.ledger().balance(other)
            > TokenAmount(1_000_000_000) - e.params().sector_deposit(640).unwrap(),
        "surviving sector collects the rent"
    );
    let _ = s2;
}

#[test]
fn no_capacity_when_no_sectors_at_all() {
    let mut e = free_gas_engine(1);
    assert_eq!(
        e.file_add(CLIENT, 8, TokenAmount(1_000), sha256(b"void"))
            .unwrap_err(),
        EngineError::NoCapacity
    );
    // Escrow fully refunded.
    assert_eq!(e.ledger().balance(TRAFFIC_ESCROW), TokenAmount::ZERO);
    assert_eq!(e.ledger().balance(CLIENT), TokenAmount(100_000_000));
}

#[test]
fn pending_confirms_empty_cases() {
    let mut e = free_gas_engine(2);
    assert!(e.pending_confirms(FileId(3)).is_empty());
    e.sector_register(PROVIDER, 640).unwrap();
    let f = stored_file(&mut e, 8);
    assert!(e.pending_confirms(f).is_empty(), "already confirmed");
}

#[test]
fn alloc_entries_cleaned_up_after_removal() {
    let mut e = free_gas_engine(2);
    e.sector_register(PROVIDER, 640).unwrap();
    let f = stored_file(&mut e, 8);
    e.file_discard(CLIENT, f).unwrap();
    e.honest_providers_act();
    e.advance_to(e.now() + e.params().proof_cycle);
    assert!(e.file(f).is_none());
    assert!(e.alloc_entry(f, 0).is_none());
    assert!(e.alloc_entry(f, 1).is_none());
    // Space returned.
    let sector = e.sector(e.sector_ids()[0]).unwrap();
    assert_eq!(sector.free_cap, sector.capacity);
    assert_eq!(sector.replica_count, 0);
}
