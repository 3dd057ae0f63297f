//! Cross-crate randomized property tests: the invariants the system rests
//! on, under arbitrary (seeded, deterministic) inputs.
//!
//! The seed version of this suite used `proptest`; the build environment has
//! no registry access, so each property is now driven by the workspace's own
//! `DetRng` over many seeded cases — same invariants, reproducible failures
//! (the failing seed is in the assertion message).

use fi_chain::account::{AccountId, Ledger, TokenAmount};
use fi_core::engine::StateView;
use fi_core::params::ProtocolParams;
use fi_core::sampler::WeightedSampler;
use fi_crypto::merkle::MerkleTree;
use fi_crypto::DetRng;
use fi_erasure::reference::RefReedSolomon;
use fi_erasure::ReedSolomon;
use fi_ipfs::dag::{dag_cids, export_bytes, import_bytes};
use fi_porep::seal::{ReplicaId, SealedReplica};
use fi_store::{block_hash, Blockstore, MemoryBlockstore};
use fileinsurer::segment::{reassemble_file, segment_file};

fn random_bytes(rng: &mut DetRng, max_len: u64) -> Vec<u8> {
    let len = rng.below(max_len + 1) as usize;
    (0..len).map(|_| rng.below(256) as u8).collect()
}

/// Merkle proofs verify exactly for their own (index, payload) pair.
#[test]
fn merkle_proofs_sound_and_complete() {
    for seed in 0..64u64 {
        let mut rng = DetRng::from_seed_label(seed, "prop-merkle");
        let n = 1 + rng.below(40) as usize;
        let leaves: Vec<Vec<u8>> = (0..n).map(|_| random_bytes(&mut rng, 31)).collect();
        let tree = MerkleTree::from_leaves(leaves.iter());
        let idx = rng.index(n);
        let proof = tree.prove(idx).unwrap();
        assert!(proof.verify(&tree.root(), &leaves[idx]), "seed {seed}");
        // Tampered payload fails (a different byte string at the same
        // index cannot share the leaf hash).
        let mut tampered = leaves[idx].clone();
        tampered.push(0xFF);
        assert!(!proof.verify(&tree.root(), &tampered), "seed {seed}");
    }
}

/// Reed–Solomon: decode ∘ encode = identity for every erasure pattern
/// within the parity budget — and the fast path agrees with the frozen
/// scalar reference end to end.
#[test]
fn reed_solomon_round_trip() {
    for seed in 0..64u64 {
        let mut rng = DetRng::from_seed_label(seed, "prop-rs");
        let payload = random_bytes(&mut rng, 300);
        let data = 1 + rng.below(7) as usize;
        let parity = 1 + rng.below(7) as usize;
        let rs = ReedSolomon::new(data, parity).unwrap();
        let shards = rs.encode_bytes(&payload);
        assert_eq!(
            shards,
            RefReedSolomon::new(data, parity).encode_bytes(&payload),
            "seed {seed}: fast encode diverges from scalar reference"
        );
        let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        // Drop up to `parity` shards selected by random bits.
        let pattern = rng.next_u64();
        let mut dropped = 0;
        for (i, slot) in received.iter_mut().enumerate() {
            if dropped < parity && (pattern >> i) & 1 == 1 {
                *slot = None;
                dropped += 1;
            }
        }
        let recovered = rs.decode_bytes(&received, payload.len()).unwrap();
        assert_eq!(recovered, payload, "seed {seed}");
    }
}

/// Sealing is a bijection: unseal(seal(x)) = x; distinct replica ids give
/// distinct sealings.
#[test]
fn seal_unseal_bijection() {
    for seed in 0..64u64 {
        let mut rng = DetRng::from_seed_label(seed, "prop-seal");
        let payload = random_bytes(&mut rng, 500);
        let salt_a = rng.next_u64() as u32;
        let salt_b = rng.next_u64() as u32;
        let comm = fi_crypto::sha256(&payload);
        let tag = fi_crypto::sha256(b"prop-sector");
        let rid_a = ReplicaId::derive(&comm, &tag, salt_a);
        let rep_a = SealedReplica::seal(&payload, rid_a);
        assert_eq!(rep_a.unseal(), payload, "seed {seed}");
        if salt_a != salt_b && !payload.is_empty() {
            let rid_b = ReplicaId::derive(&comm, &tag, salt_b);
            let rep_b = SealedReplica::seal(&payload, rid_b);
            assert_ne!(rep_a.comm_r(), rep_b.comm_r(), "seed {seed}");
        }
    }
}

/// The ledger conserves tokens under arbitrary operation sequences.
#[test]
fn ledger_conservation() {
    for seed in 0..64u64 {
        let mut rng = DetRng::from_seed_label(seed, "prop-ledger");
        let mut ledger = Ledger::new();
        let mut minted: u128 = 0;
        let mut burned: u128 = 0;
        for _ in 0..rng.below(100) {
            let op = rng.below(4);
            let from = AccountId(rng.below(8));
            let to = AccountId(rng.below(8));
            let amount = TokenAmount(rng.below(1000) as u128);
            match op {
                0 => {
                    ledger.mint(from, amount);
                    minted += amount.0;
                }
                1 => {
                    if ledger.burn(from, amount).is_ok() {
                        burned += amount.0;
                    }
                }
                2 => {
                    let _ = ledger.transfer(from, to, amount);
                }
                _ => {
                    let moved = ledger.transfer_up_to(from, to, amount);
                    assert!(moved <= amount, "seed {seed}");
                }
            }
            assert!(ledger.audit(), "seed {seed}");
        }
        assert_eq!(ledger.total_supply().0, minted - burned, "seed {seed}");
        assert_eq!(ledger.total_burned().0, burned, "seed {seed}");
    }
}

/// The weighted sampler returns only live keys and tracks total weight
/// through inserts and removals.
#[test]
fn sampler_respects_membership() {
    for seed in 0..64u64 {
        let mut rng = DetRng::from_seed_label(seed, "prop-sampler-setup");
        let mut sampler = WeightedSampler::new();
        let mut live = std::collections::HashMap::new();
        for _ in 0..1 + rng.below(60) {
            let key = rng.below(50) as u32;
            let weight = 1 + rng.below(99);
            sampler.insert(key, weight);
            live.insert(key, weight);
        }
        for _ in 0..rng.below(30) {
            let key = rng.below(50) as u32;
            sampler.remove(&key);
            live.remove(&key);
        }
        assert_eq!(sampler.len(), live.len(), "seed {seed}");
        let expect_total: u64 = live.values().sum();
        assert_eq!(sampler.total_weight(), expect_total, "seed {seed}");
        let mut draw_rng = DetRng::from_seed_label(seed, "prop-sampler");
        for _ in 0..50 {
            match sampler.sample(&mut draw_rng) {
                Some(k) => assert!(live.contains_key(k), "seed {seed}"),
                None => assert!(live.is_empty(), "seed {seed}"),
            }
        }
    }
}

/// DAG import/export round-trips for arbitrary payloads and chunk sizes.
#[test]
fn dag_round_trip() {
    for seed in 0..32u64 {
        let mut rng = DetRng::from_seed_label(seed, "prop-dag");
        let payload = random_bytes(&mut rng, 5000);
        let chunk = 1 + rng.below(599) as usize;
        let store = MemoryBlockstore::new();
        let root = import_bytes(&store, &payload, chunk).unwrap();
        assert_eq!(export_bytes(&store, root).unwrap(), payload, "seed {seed}");
        for cid in dag_cids(&store, root).unwrap() {
            let block = store.get(&cid).unwrap().unwrap();
            assert_eq!(block_hash(&block), cid, "seed {seed}");
        }
    }
}

/// §VI-C segmentation: the insured payout of any lost half covers the
/// declared value, and reassembly works from any surviving half.
#[test]
fn segmentation_insurance_invariant() {
    for seed in 0..64u64 {
        let mut rng = DetRng::from_seed_label(seed, "prop-segment");
        let params = ProtocolParams {
            size_limit: 32,
            ..ProtocolParams::default()
        };
        let payload_len = 33 + rng.below(368) as usize;
        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        let value = TokenAmount(params.min_value.0 * (1 + rng.below(19) as u128));
        let seg = segment_file(&payload, value, &params).unwrap();
        let n = seg.segment_count();
        let half = n / 2;
        // Payout when lost (≥ half the segments gone) covers the value.
        assert!(half as u128 * seg.segment_value.0 >= value.0, "seed {seed}");
        // Drop exactly `half` segments chosen at random.
        let mut received: Vec<Option<&[u8]>> = seg.segments().map(Some).collect();
        let mut dropped = 0;
        while dropped < half {
            let idx = rng.index(n);
            if received[idx].is_some() {
                received[idx] = None;
                dropped += 1;
            }
        }
        let recovered = reassemble_file(&seg, &received).unwrap();
        assert_eq!(recovered, payload, "seed {seed}");
    }
}

/// Engine-level property: random request interleavings never break space
/// accounting, money conservation, or compensation completeness.
#[test]
fn engine_random_interleavings_hold_invariants() {
    use fi_core::engine::Engine;

    for seed in 0..8u64 {
        let params = ProtocolParams {
            k: 2,
            delay_per_size: 4,
            avg_refresh: 3.0,
            seed,
            ..ProtocolParams::default()
        };
        let mut engine = Engine::new(params).unwrap();
        let client = AccountId(900);
        engine.fund(client, TokenAmount(1_000_000_000));
        let mut rng = DetRng::from_seed_label(seed, "interleave");
        let mut sectors = Vec::new();
        let mut files: Vec<fi_core::FileId> = Vec::new();
        for step in 0..120 {
            match rng.below(10) {
                0 | 1 => {
                    let provider = AccountId(100 + rng.below(5));
                    engine.fund(provider, TokenAmount(10_000_000));
                    if let Ok(s) = engine.sector_register(provider, 640) {
                        sectors.push(s);
                    }
                }
                2..=4 => {
                    let root = fi_crypto::sha256(&(step as u64).to_le_bytes());
                    if let Ok(f) =
                        engine.file_add(client, 1 + rng.below(16), TokenAmount(1_000), root)
                    {
                        files.push(f);
                    }
                }
                5 => {
                    if !files.is_empty() {
                        let f = files[rng.index(files.len())];
                        let _ = engine.file_discard(client, f);
                    }
                }
                6 => {
                    if !sectors.is_empty() {
                        let s = sectors[rng.index(sectors.len())];
                        if let Some(sector) = engine.sector(s) {
                            let owner = sector.owner;
                            let _ = engine.sector_disable(owner, s);
                        }
                    }
                }
                7 => {
                    if !sectors.is_empty() && rng.bernoulli(0.3) {
                        let s = sectors[rng.index(sectors.len())];
                        if engine.sector(s).is_some() {
                            engine.corrupt_sector_now(s);
                        }
                    }
                }
                _ => {
                    engine.honest_providers_act();
                    engine.advance_to(engine.now() + 25 + rng.below(100));
                }
            }
        }
        // Settle outstanding cycles and audit.
        for _ in 0..5 {
            engine.honest_providers_act();
            engine.advance_to(engine.now() + engine.params().proof_cycle);
        }
        assert!(engine.ledger().audit(), "seed {seed}: conservation broken");
        assert_eq!(
            engine.stats().compensation_shortfall,
            TokenAmount::ZERO,
            "seed {seed}: shortfall"
        );
    }
}
