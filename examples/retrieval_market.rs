//! The retrieval path: IPFS addressing + DHT discovery + BitSwap fetch
//! (paper §II-A, §III-E, §VI-F).
//!
//! Run with `cargo run --example retrieval_market`.
//!
//! FileInsurer stores *locations* on chain; the bytes flow off-chain
//! through the IPFS machinery. This example imports a file into two
//! providers' block stores as a Merkle DAG, announces them in a Kademlia
//! DHT, and has a client discover providers and fetch the DAG block by
//! block with integrity verification.

use fi_ipfs::bitswap::fetch_dag;
use fi_ipfs::dag::{dag_cids, export_bytes, import_bytes};
use fi_ipfs::dht::{node_id, Dht};
use fi_store::MemoryBlockstore;

fn main() {
    // A 64 KiB file chunked into 1 KiB leaves.
    let payload: Vec<u8> = (0..65_536u32).map(|i| (i % 253) as u8).collect();

    // Two providers hold the full DAG: the same bytes import to the same
    // root CID.
    let (provider_a, provider_b) = (MemoryBlockstore::new(), MemoryBlockstore::new());
    let root = import_bytes(&provider_a, &payload, 1024).expect("a memory store never fails");
    assert_eq!(import_bytes(&provider_b, &payload, 1024), Ok(root));
    let block_count = dag_cids(&provider_a, root).unwrap().len();
    println!(
        "imported file: {} bytes -> {} dag blocks, root CID {}",
        payload.len(),
        block_count,
        &root.to_hex()[..16]
    );

    // A 64-node DHT; providers announce the root CID.
    let mut dht = Dht::new(16, 3);
    for i in 0..64 {
        dht.join(node_id(i));
    }
    let node_a = node_id(7);
    let node_b = node_id(23);
    dht.provide(node_a, root);
    dht.provide(node_b, root);
    println!("providers announced the CID from nodes 7 and 23");

    // The client resolves providers through the DHT.
    let client_node = node_id(55);
    let found = dht.find_providers(client_node, root);
    println!(
        "client lookup: found {} providers in {} hops (network of {} nodes)",
        found.providers.len(),
        found.hops,
        dht.len()
    );
    assert_eq!(found.providers.len(), 2);

    // BitSwap fetch with per-block verification.
    let client_store = MemoryBlockstore::new();
    let stats = fetch_dag(&client_store, &[&provider_a, &provider_b], root)
        .expect("providers hold the full dag");
    println!(
        "bitswap: received {} blocks / {} bytes ({} duplicates, {} corrupt)",
        stats.blocks_received, stats.bytes_received, stats.duplicate_blocks, stats.corrupt_blocks
    );

    let recovered = export_bytes(&client_store, root).unwrap();
    assert_eq!(recovered, payload);
    println!("file reassembled and verified against the root CID — retrieval complete.");

    // Churn: one provider leaves; the record disappears with it.
    dht.leave(node_a);
    let after = dht.find_providers(client_node, root);
    println!(
        "after provider churn: {} provider(s) remain discoverable",
        after.providers.len()
    );
    assert_eq!(after.providers.len(), 1);
}
