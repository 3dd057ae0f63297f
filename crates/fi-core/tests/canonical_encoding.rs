//! The canonical binary encodings of ops, receipts, events and errors —
//! the bytes op digests, receipt roots and block hashes commit to.
//!
//! Every variant's encoding is pinned byte for byte, so renaming a field,
//! reordering a derive or changing std formatting cannot fork the chain
//! unnoticed; a `DetRng` property test checks that distinct values never
//! share an encoding; and every `Hash256` or `TokenAmount` field is shown
//! to be bound in full (the `Debug`-text encoding these replace printed
//! only the first 6 bytes of a `Hash256`).

use std::collections::HashMap;
use std::fmt::Debug;

use fi_chain::account::{AccountId, TokenAmount};
use fi_chain::block::{BlockChain, ChainEvent};
use fi_core::engine::{Engine, EngineError, StateView};
use fi_core::params::{ParamError, ProtocolParams};
use fi_core::types::{FileId, ProtocolEvent, RemovalReason, SectorId};
use fi_core::{Op, Receipt};
use fi_crypto::{keyed_hash, sha256, DetRng, Hash256};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Asserts `encoded` equals a golden hex string (spaces are for reading).
fn pinned(encoded: Vec<u8>, golden: &str, what: &dyn Debug) {
    let golden: String = golden.split_whitespace().collect();
    assert_eq!(hex(&encoded), golden, "{what:?}");
}

/// A root whose bytes are 0, 1, …, 31.
fn counting_root() -> Hash256 {
    Hash256::from_bytes(std::array::from_fn(|i| i as u8))
}

#[test]
fn op_encodings_are_pinned() {
    let cases = [
        (
            Op::SectorRegister {
                owner: AccountId(7),
                capacity: 640,
            },
            "00 0000000000000007 0000000000000280",
        ),
        (
            Op::SectorDisable {
                caller: AccountId(7),
                sector: SectorId(3),
            },
            "01 0000000000000007 0000000000000003",
        ),
        (
            Op::FileAdd {
                client: AccountId(9),
                size: 16,
                value: TokenAmount(1_000_000),
                merkle_root: counting_root(),
            },
            "02 0000000000000009 0000000000000010 000000000000000000000000000f4240
             000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        ),
        (
            Op::FileConfirm {
                caller: AccountId(7),
                file: FileId(5),
                index: 2,
                sector: SectorId(3),
            },
            "03 0000000000000007 0000000000000005 00000002 0000000000000003",
        ),
        (
            Op::FileProve {
                caller: AccountId(7),
                file: FileId(5),
                index: 2,
                sector: SectorId(3),
            },
            "04 0000000000000007 0000000000000005 00000002 0000000000000003",
        ),
        (
            Op::FileGet {
                caller: AccountId(9),
                file: FileId(5),
            },
            "05 0000000000000009 0000000000000005",
        ),
        (
            Op::FileDiscard {
                caller: AccountId(9),
                file: FileId(5),
            },
            "06 0000000000000009 0000000000000005",
        ),
        (Op::ForceDiscard { file: FileId(5) }, "07 0000000000000005"),
        (
            Op::Fund {
                account: AccountId(9),
                amount: TokenAmount(0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10),
            },
            "08 0000000000000009 0102030405060708090a0b0c0d0e0f10",
        ),
        (
            Op::Burn {
                account: AccountId(9),
                amount: TokenAmount(1),
            },
            "09 0000000000000009 00000000000000000000000000000001",
        ),
        (
            Op::FailSector {
                sector: SectorId(3),
            },
            "0a 0000000000000003",
        ),
        (
            Op::CorruptSector {
                sector: SectorId(3),
            },
            "0b 0000000000000003",
        ),
        (Op::AdvanceTo { target: 0x1234 }, "0c 0000000000001234"),
    ];
    for (op, golden) in cases {
        pinned(op.encode(), golden, &op);
        assert_eq!(
            op.digest(),
            keyed_hash("fileinsurer/op", &[&op.encode()]),
            "{op:?}"
        );
    }
}

#[test]
fn receipt_encodings_are_pinned() {
    let cases = [
        (
            Receipt::SectorRegistered {
                sector: SectorId(3),
            },
            "00 0000000000000003",
        ),
        (
            Receipt::SectorDisabled {
                sector: SectorId(3),
            },
            "01 0000000000000003",
        ),
        (
            Receipt::FileAdded {
                file: FileId(5),
                cp: 3,
            },
            "02 0000000000000005 00000003",
        ),
        (
            Receipt::Confirmed {
                file: FileId(5),
                index: 2,
            },
            "03 0000000000000005 00000002",
        ),
        (
            Receipt::Proved {
                file: FileId(5),
                index: 2,
            },
            "04 0000000000000005 00000002",
        ),
        (
            Receipt::Holders {
                holders: vec![(SectorId(3), AccountId(7)), (SectorId(4), AccountId(8))],
            },
            "05 0000000000000002 0000000000000003 0000000000000007
             0000000000000004 0000000000000008",
        ),
        (Receipt::Holders { holders: vec![] }, "05 0000000000000000"),
        (
            Receipt::Discarded { file: FileId(5) },
            "06 0000000000000005",
        ),
        (
            Receipt::Balance {
                account: AccountId(9),
                balance: TokenAmount(1_000_000),
            },
            "07 0000000000000009 000000000000000000000000000f4240",
        ),
        (
            Receipt::Faulted {
                sector: SectorId(3),
            },
            "08 0000000000000003",
        ),
        (
            Receipt::TimeAdvanced {
                now: 100,
                height: 10,
            },
            "09 0000000000000064 000000000000000a",
        ),
    ];
    for (receipt, golden) in cases {
        pinned(receipt.encode(), golden, &receipt);
        assert_eq!(
            receipt.digest(),
            keyed_hash("fileinsurer/receipt", &[&receipt.encode()]),
            "{receipt:?}"
        );
    }
}

#[test]
fn event_encodings_are_pinned() {
    let cases = [
        (
            ProtocolEvent::SectorRegistered {
                sector: SectorId(3),
                owner: AccountId(7),
                deposit: TokenAmount(0x10),
            },
            "00 0000000000000003 0000000000000007 00000000000000000000000000000010",
        ),
        (
            ProtocolEvent::SectorDisabled {
                sector: SectorId(3),
            },
            "01 0000000000000003",
        ),
        (
            ProtocolEvent::SectorRemoved {
                sector: SectorId(3),
                refunded: TokenAmount(0x10),
            },
            "02 0000000000000003 00000000000000000000000000000010",
        ),
        (
            ProtocolEvent::SectorCorrupted {
                sector: SectorId(3),
                confiscated: TokenAmount(0x20),
            },
            "03 0000000000000003 00000000000000000000000000000020",
        ),
        (
            ProtocolEvent::ProviderPunished {
                sector: SectorId(3),
                amount: TokenAmount(0x30),
            },
            "04 0000000000000003 00000000000000000000000000000030",
        ),
        (
            ProtocolEvent::FileAdded {
                file: FileId(5),
                cp: 3,
            },
            "05 0000000000000005 00000003",
        ),
        (
            ProtocolEvent::FileStored { file: FileId(5) },
            "06 0000000000000005",
        ),
        (
            ProtocolEvent::FileRemoved {
                file: FileId(5),
                reason: RemovalReason::Lost,
            },
            "07 0000000000000005 03",
        ),
        (
            ProtocolEvent::FileLost {
                file: FileId(5),
                value: TokenAmount(0x40),
                compensated: TokenAmount(0x41),
            },
            "08 0000000000000005 00000000000000000000000000000040
             00000000000000000000000000000041",
        ),
        (
            ProtocolEvent::ReplicaSwap {
                file: FileId(5),
                index: 2,
                from: Some(SectorId(3)),
                to: SectorId(4),
            },
            "09 0000000000000005 00000002 01 0000000000000003 0000000000000004",
        ),
        (
            ProtocolEvent::ReplicaSwap {
                file: FileId(5),
                index: 2,
                from: None,
                to: SectorId(4),
            },
            "09 0000000000000005 00000002 00 0000000000000004",
        ),
        (
            ProtocolEvent::RefreshCollision {
                file: FileId(5),
                index: 2,
            },
            "0a 0000000000000005 00000002",
        ),
        (
            ProtocolEvent::RentDistributed {
                total: TokenAmount(0x50),
            },
            "0b 00000000000000000000000000000050",
        ),
    ];
    for (event, golden) in cases {
        pinned(event.encode(), golden, &event);
    }
    // The reason codes are the declaration indices.
    for (reason, code) in [
        (RemovalReason::ClientDiscard, 0u8),
        (RemovalReason::InsufficientFunds, 1),
        (RemovalReason::UploadFailed, 2),
        (RemovalReason::Lost, 3),
    ] {
        let bytes = ProtocolEvent::FileRemoved {
            file: FileId(0),
            reason,
        }
        .encode();
        assert_eq!(bytes.last(), Some(&code), "{reason:?}");
    }
}

#[test]
fn error_encodings_are_pinned() {
    let cases = [
        (EngineError::UnknownFile(FileId(5)), "00 0000000000000005"),
        (
            EngineError::UnknownSector(SectorId(3)),
            "01 0000000000000003",
        ),
        (EngineError::NotOwner, "02"),
        (
            EngineError::InvalidState("gone"),
            "03 0000000000000004 676f6e65",
        ),
        (
            EngineError::Param(ParamError::NotAMultiple {
                what: "k",
                value: 5,
                of: 2,
            }),
            "04 00 0000000000000001 6b 00000000000000000000000000000005
             00000000000000000000000000000002",
        ),
        (
            EngineError::Param(ParamError::OutOfRange { what: "k" }),
            "04 01 0000000000000001 6b",
        ),
        (EngineError::InsufficientFunds, "05"),
        (EngineError::NoCapacity, "06"),
        (
            EngineError::FileTooLarge {
                size: 0x100,
                limit: 0x40,
            },
            "07 0000000000000100 0000000000000040",
        ),
    ];
    for (err, golden) in cases {
        pinned(err.encode(), golden, &err);
        assert_eq!(
            Receipt::error_digest(&err),
            keyed_hash("fileinsurer/receipt-err", &[&err.encode()]),
            "{err:?}"
        );
    }
}

/// The engine logs every protocol event into the open block as its
/// canonical encoding, under its kind tag.
#[test]
fn the_chain_logs_each_event_as_its_encoding() {
    let mut engine = Engine::new(ProtocolParams::default()).expect("valid params");
    let provider = AccountId(100);
    let client = AccountId(200);
    engine.fund(provider, TokenAmount(10_000_000_000));
    engine.fund(client, TokenAmount(10_000_000));
    engine.sector_register(provider, 640).expect("register");
    engine.sector_register(provider, 640).expect("register");
    let min_value = engine.params().min_value;
    engine
        .file_add(client, 16, min_value, sha256(b"logged"))
        .expect("add");
    let events = engine.events();
    let logged = engine.chain().open_events();
    assert!(!events.is_empty());
    assert_eq!(logged.len(), events.len());
    for (chain_event, event) in logged.iter().zip(&events) {
        assert_eq!(chain_event.kind, event.kind());
        assert_eq!(chain_event.payload, event.encode(), "{event:?}");
    }
}

// ----------------------------------------------------------------------
// Binding: every byte of every hash and amount field is committed
// ----------------------------------------------------------------------

/// `value` with one byte of its big-endian form flipped.
fn flip_amount(value: TokenAmount, byte: usize) -> TokenAmount {
    TokenAmount(value.0 ^ (1u128 << (8 * (15 - byte))))
}

fn flip_root(root: Hash256, byte: usize) -> Hash256 {
    let mut bytes = *root.as_bytes();
    bytes[byte] ^= 1;
    Hash256::from_bytes(bytes)
}

/// The head after sealing one block holding `payload` as its only event.
fn head_with_event(kind: &str, payload: Vec<u8>) -> Hash256 {
    let mut chain = BlockChain::new(1, 10);
    chain.log(ChainEvent::new(kind, payload));
    chain.advance_time(10);
    chain.seal(Hash256::ZERO);
    chain.head_hash()
}

/// Two `File_Add`s whose Merkle roots differ only in byte 31 are distinct
/// requests, and so are roots differing in any other single byte.
#[test]
fn file_add_digests_bind_all_32_root_bytes() {
    let add = |merkle_root| Op::FileAdd {
        client: AccountId(1),
        size: 4,
        value: TokenAmount(1_000),
        merkle_root,
    };
    let base = add(counting_root());
    for byte in 0..32 {
        let other = add(flip_root(counting_root(), byte));
        assert_ne!(base.digest(), other.digest(), "root byte {byte}");
    }
}

#[test]
fn every_hash_and_amount_field_is_bound() {
    let amount = TokenAmount(0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10);
    for byte in 0..16 {
        let flipped = flip_amount(amount, byte);
        let op_pairs = [
            (
                Op::FileAdd {
                    client: AccountId(1),
                    size: 4,
                    value: amount,
                    merkle_root: counting_root(),
                },
                Op::FileAdd {
                    client: AccountId(1),
                    size: 4,
                    value: flipped,
                    merkle_root: counting_root(),
                },
            ),
            (
                Op::Fund {
                    account: AccountId(1),
                    amount,
                },
                Op::Fund {
                    account: AccountId(1),
                    amount: flipped,
                },
            ),
            (
                Op::Burn {
                    account: AccountId(1),
                    amount,
                },
                Op::Burn {
                    account: AccountId(1),
                    amount: flipped,
                },
            ),
        ];
        for (a, b) in op_pairs {
            assert_ne!(a.digest(), b.digest(), "{a:?} byte {byte}");
        }
        let receipt = |balance| Receipt::Balance {
            account: AccountId(1),
            balance,
        };
        assert_ne!(receipt(amount).digest(), receipt(flipped).digest());

        let sector = SectorId(3);
        let event_pairs = [
            (
                ProtocolEvent::SectorRegistered {
                    sector,
                    owner: AccountId(1),
                    deposit: amount,
                },
                ProtocolEvent::SectorRegistered {
                    sector,
                    owner: AccountId(1),
                    deposit: flipped,
                },
            ),
            (
                ProtocolEvent::SectorRemoved {
                    sector,
                    refunded: amount,
                },
                ProtocolEvent::SectorRemoved {
                    sector,
                    refunded: flipped,
                },
            ),
            (
                ProtocolEvent::SectorCorrupted {
                    sector,
                    confiscated: amount,
                },
                ProtocolEvent::SectorCorrupted {
                    sector,
                    confiscated: flipped,
                },
            ),
            (
                ProtocolEvent::ProviderPunished { sector, amount },
                ProtocolEvent::ProviderPunished {
                    sector,
                    amount: flipped,
                },
            ),
            (
                ProtocolEvent::FileLost {
                    file: FileId(5),
                    value: amount,
                    compensated: amount,
                },
                ProtocolEvent::FileLost {
                    file: FileId(5),
                    value: flipped,
                    compensated: amount,
                },
            ),
            (
                ProtocolEvent::FileLost {
                    file: FileId(5),
                    value: amount,
                    compensated: amount,
                },
                ProtocolEvent::FileLost {
                    file: FileId(5),
                    value: amount,
                    compensated: flipped,
                },
            ),
            (
                ProtocolEvent::RentDistributed { total: amount },
                ProtocolEvent::RentDistributed { total: flipped },
            ),
        ];
        for (a, b) in event_pairs {
            assert_ne!(
                head_with_event(a.kind(), a.encode()),
                head_with_event(b.kind(), b.encode()),
                "{a:?} byte {byte}"
            );
        }
    }
}

// ----------------------------------------------------------------------
// Property: distinct values never share an encoding
// ----------------------------------------------------------------------

/// A field value from a small pool of near-collisions plus extremes, so
/// generated values often differ in exactly one field by a little.
fn small(rng: &mut DetRng) -> u64 {
    match rng.below(6) {
        0 => u64::MAX,
        1 => 1 << 32,
        2 => rng.next_u64(),
        _ => rng.below(3),
    }
}

fn amount(rng: &mut DetRng) -> TokenAmount {
    match rng.below(4) {
        0 => TokenAmount(u128::MAX),
        1 => TokenAmount(u128::from(rng.next_u64()) << 64),
        _ => TokenAmount(u128::from(small(rng))),
    }
}

fn root(rng: &mut DetRng) -> Hash256 {
    let mut bytes = [0u8; 32];
    bytes[rng.index(32)] = rng.below(3) as u8;
    Hash256::from_bytes(bytes)
}

fn gen_op(rng: &mut DetRng) -> Op {
    let (a, f, s) = (
        AccountId(small(rng)),
        FileId(small(rng)),
        SectorId(small(rng)),
    );
    let index = small(rng) as u32;
    match rng.below(13) {
        0 => Op::SectorRegister {
            owner: a,
            capacity: small(rng),
        },
        1 => Op::SectorDisable {
            caller: a,
            sector: s,
        },
        2 => Op::FileAdd {
            client: a,
            size: small(rng),
            value: amount(rng),
            merkle_root: root(rng),
        },
        3 => Op::FileConfirm {
            caller: a,
            file: f,
            index,
            sector: s,
        },
        4 => Op::FileProve {
            caller: a,
            file: f,
            index,
            sector: s,
        },
        5 => Op::FileGet { caller: a, file: f },
        6 => Op::FileDiscard { caller: a, file: f },
        7 => Op::ForceDiscard { file: f },
        8 => Op::Fund {
            account: a,
            amount: amount(rng),
        },
        9 => Op::Burn {
            account: a,
            amount: amount(rng),
        },
        10 => Op::FailSector { sector: s },
        11 => Op::CorruptSector { sector: s },
        _ => Op::AdvanceTo { target: small(rng) },
    }
}

fn gen_receipt(rng: &mut DetRng) -> Receipt {
    let (f, s) = (FileId(small(rng)), SectorId(small(rng)));
    let index = small(rng) as u32;
    match rng.below(10) {
        0 => Receipt::SectorRegistered { sector: s },
        1 => Receipt::SectorDisabled { sector: s },
        2 => Receipt::FileAdded { file: f, cp: index },
        3 => Receipt::Confirmed { file: f, index },
        4 => Receipt::Proved { file: f, index },
        5 => Receipt::Holders {
            holders: (0..rng.below(4))
                .map(|_| (SectorId(small(rng)), AccountId(small(rng))))
                .collect(),
        },
        6 => Receipt::Discarded { file: f },
        7 => Receipt::Balance {
            account: AccountId(small(rng)),
            balance: amount(rng),
        },
        8 => Receipt::Faulted { sector: s },
        _ => Receipt::TimeAdvanced {
            now: small(rng),
            height: small(rng),
        },
    }
}

fn gen_event(rng: &mut DetRng) -> ProtocolEvent {
    let (f, s) = (FileId(small(rng)), SectorId(small(rng)));
    let index = small(rng) as u32;
    match rng.below(12) {
        0 => ProtocolEvent::SectorRegistered {
            sector: s,
            owner: AccountId(small(rng)),
            deposit: amount(rng),
        },
        1 => ProtocolEvent::SectorDisabled { sector: s },
        2 => ProtocolEvent::SectorRemoved {
            sector: s,
            refunded: amount(rng),
        },
        3 => ProtocolEvent::SectorCorrupted {
            sector: s,
            confiscated: amount(rng),
        },
        4 => ProtocolEvent::ProviderPunished {
            sector: s,
            amount: amount(rng),
        },
        5 => ProtocolEvent::FileAdded { file: f, cp: index },
        6 => ProtocolEvent::FileStored { file: f },
        7 => ProtocolEvent::FileRemoved {
            file: f,
            reason: [
                RemovalReason::ClientDiscard,
                RemovalReason::InsufficientFunds,
                RemovalReason::UploadFailed,
                RemovalReason::Lost,
            ][rng.index(4)],
        },
        8 => ProtocolEvent::FileLost {
            file: f,
            value: amount(rng),
            compensated: amount(rng),
        },
        9 => ProtocolEvent::ReplicaSwap {
            file: f,
            index,
            from: (rng.below(2) == 0).then_some(SectorId(small(rng))),
            to: s,
        },
        10 => ProtocolEvent::RefreshCollision { file: f, index },
        _ => ProtocolEvent::RentDistributed { total: amount(rng) },
    }
}

fn gen_error(rng: &mut DetRng) -> EngineError {
    const WHATS: [&str; 3] = ["", "k", "kk"];
    let what = WHATS[rng.index(3)];
    match rng.below(9) {
        0 => EngineError::UnknownFile(FileId(small(rng))),
        1 => EngineError::UnknownSector(SectorId(small(rng))),
        2 => EngineError::NotOwner,
        3 => EngineError::InvalidState(what),
        4 => EngineError::Param(ParamError::NotAMultiple {
            what,
            value: amount(rng).0,
            of: amount(rng).0,
        }),
        5 => EngineError::Param(ParamError::OutOfRange { what }),
        6 => EngineError::InsufficientFunds,
        7 => EngineError::NoCapacity,
        _ => EngineError::FileTooLarge {
            size: small(rng),
            limit: small(rng),
        },
    }
}

/// Draws `n` values and checks that equal encodings come only from equal
/// values; returns how many distinct values were seen.
fn assert_injective<T: PartialEq + Debug>(
    n: usize,
    rng: &mut DetRng,
    generate: fn(&mut DetRng) -> T,
    encode: fn(&T) -> Vec<u8>,
) -> usize {
    let mut seen: HashMap<Vec<u8>, T> = HashMap::new();
    for _ in 0..n {
        let value = generate(rng);
        let bytes = encode(&value);
        match seen.get(&bytes) {
            Some(earlier) => assert_eq!(*earlier, value, "one encoding, two values"),
            None => {
                seen.insert(bytes, value);
            }
        }
    }
    seen.len()
}

#[test]
fn distinct_values_have_distinct_encodings() {
    let mut rng = DetRng::from_seed_label(28, "canonical-encoding");
    let n = 20_000;
    // Many repeats (so equal values are exercised too) and many distinct
    // values differing in a single field.
    let ops = assert_injective(n, &mut rng, gen_op, Op::encode);
    let receipts = assert_injective(n, &mut rng, gen_receipt, Receipt::encode);
    let events = assert_injective(n, &mut rng, gen_event, ProtocolEvent::encode);
    let errors = assert_injective(n, &mut rng, gen_error, EngineError::encode);
    for (what, distinct) in [
        ("ops", ops),
        ("receipts", receipts),
        ("events", events),
        ("errors", errors),
    ] {
        assert!(distinct > n / 20 && distinct < n, "{what}: {distinct}");
    }
    // An op's digest is a function of its encoding alone: equal bytes,
    // equal digests, across variants that share a field layout.
    let confirm = Op::FileConfirm {
        caller: AccountId(1),
        file: FileId(2),
        index: 3,
        sector: SectorId(4),
    };
    let prove = Op::FileProve {
        caller: AccountId(1),
        file: FileId(2),
        index: 3,
        sector: SectorId(4),
    };
    assert_eq!(confirm.encode()[1..], prove.encode()[1..]);
    assert_ne!(confirm.digest(), prove.digest(), "the tag tells them apart");
}
