//! Integration: FileInsurer on top of IPFS (§II-A, §VI-F) — on-chain
//! metadata, off-chain bytes.
//!
//! The engine stores *locations and commitments*; the actual bytes live in
//! providers' block stores as Merkle DAGs, discoverable through the DHT
//! and fetched via BitSwap. This test drives both layers and checks they
//! agree.

use fi_chain::account::{AccountId, TokenAmount};
use fi_core::engine::{Engine, StateView};
use fi_core::params::ProtocolParams;
use fi_crypto::sha256;
use fi_ipfs::bitswap::fetch_dag;
use fi_ipfs::dag::{export_bytes, import_bytes};
use fi_ipfs::dht::{node_id, Dht};
use fi_porep::post::{derive_challenges, WindowPost};
use fi_porep::seal::{commit_data, PorepProof, ReplicaId, SealedReplica};
use fi_store::MemoryBlockstore;

const CLIENT: AccountId = AccountId(900);
const PROVIDER_A: AccountId = AccountId(100);
const PROVIDER_B: AccountId = AccountId(101);

#[test]
fn end_to_end_store_prove_retrieve() {
    // --- on-chain layer -------------------------------------------------
    let params = ProtocolParams {
        k: 2,
        delay_per_size: 4,
        ..ProtocolParams::default()
    };
    let mut engine = Engine::new(params).unwrap();
    engine.fund(CLIENT, TokenAmount(100_000_000));
    engine.fund(PROVIDER_A, TokenAmount(1_000_000_000));
    engine.fund(PROVIDER_B, TokenAmount(1_000_000_000));
    let s_a = engine.sector_register(PROVIDER_A, 640).unwrap();
    let s_b = engine.sector_register(PROVIDER_B, 640).unwrap();

    // The file: committed on chain by its content commitment.
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8).collect();
    let comm_d = commit_data(&payload);
    let file = engine
        .file_add(CLIENT, 16, TokenAmount(1_000), comm_d)
        .unwrap();

    // --- off-chain layer: providers seal and store real bytes -----------
    // Each confirmed replica is a unique PoRep sealing bound to its sector.
    let mut replicas = Vec::new();
    for (idx, sector) in engine.pending_confirms(file) {
        let owner = engine.sector(sector).unwrap().owner;
        let tag = sha256(format!("{sector}").as_bytes());
        let rid = ReplicaId::derive(&comm_d, &tag, idx);
        let (replica, proof) = PorepProof::create(&payload, rid);
        assert!(proof.verify(), "sealing proof valid");
        assert_eq!(proof.comm_d, comm_d, "bound to the on-chain commitment");
        engine.file_confirm(owner, file, idx, sector).unwrap();
        replicas.push((sector, replica));
    }
    engine.advance_to(engine.now() + 64);
    assert!(engine.file(file).is_some(), "file stored on chain");

    // --- WindowPoSt against the chain beacon -----------------------------
    let beacon = engine.chain().current_beacon_value();
    for (_, replica) in &replicas {
        let ch = derive_challenges(&beacon, &replica.comm_r(), 4, replica.chunk_count());
        let post = WindowPost::respond(replica, &ch);
        assert!(post.verify(&replica.comm_r(), &ch));
    }
    // And the chain records the proofs.
    engine.honest_providers_act();
    assert!(engine.stats().proofs_accepted >= 2);

    // --- retrieval market: DHT + BitSwap ---------------------------------
    // Providers unseal and serve the raw file as a Merkle DAG.
    let (store_a, store_b) = (MemoryBlockstore::new(), MemoryBlockstore::new());
    let unsealed = replicas[0].1.unseal();
    assert_eq!(unsealed, payload, "unsealing recovers the file");
    let root_cid = import_bytes(&store_a, &unsealed, 512).unwrap();
    assert_eq!(
        import_bytes(&store_b, &replicas[1].1.unseal(), 512),
        Ok(root_cid)
    );

    let mut dht = Dht::new(8, 3);
    for i in 0..32 {
        dht.join(node_id(i));
    }
    dht.provide(node_id(1), root_cid);
    dht.provide(node_id(2), root_cid);

    // The client asks the chain who holds the file, then the DHT, then
    // fetches.
    let holders = engine.file_get(CLIENT, file).unwrap();
    assert_eq!(holders.len(), 2);
    assert!(holders.iter().any(|&(s, _)| s == s_a || s == s_b));

    let found = dht.find_providers(node_id(30), root_cid);
    assert_eq!(found.providers.len(), 2);

    let client_store = MemoryBlockstore::new();
    let stats = fetch_dag(&client_store, &[&store_a, &store_b], root_cid).unwrap();
    assert!(stats.corrupt_blocks == 0);
    assert_eq!(export_bytes(&client_store, root_cid).unwrap(), payload);
}

#[test]
fn sybil_provider_cannot_reuse_one_replica_for_two_sectors() {
    // The DRep Sybil-resistance argument, end to end: replicas for
    // different sectors have different commitments, and a PoSt response
    // computed from the wrong sealing does not verify.
    let payload = vec![7u8; 2048];
    let comm_d = commit_data(&payload);
    let tag_a = sha256(b"sector-a");
    let tag_b = sha256(b"sector-b");
    let rid_a = ReplicaId::derive(&comm_d, &tag_a, 0);
    let rid_b = ReplicaId::derive(&comm_d, &tag_b, 0);
    let rep_a = SealedReplica::seal(&payload, rid_a);
    let rep_b = SealedReplica::seal(&payload, rid_b);
    assert_ne!(rep_a.comm_r(), rep_b.comm_r());

    // The cheater stores only replica A but registered commitment B.
    let beacon = sha256(b"challenge-round");
    let ch = derive_challenges(&beacon, &rep_b.comm_r(), 6, rep_b.chunk_count());
    let forged = WindowPost::respond(&rep_a, &ch);
    assert!(
        !forged.verify(&rep_b.comm_r(), &ch),
        "one physical copy cannot answer for two replica commitments"
    );
}
