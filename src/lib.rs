//! # FileInsurer — a scalable and reliable decentralized file storage
//! protocol (ICDCS 2022 reproduction)
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`fi_core`] | the FileInsurer state machine: engine, sampler, DRep accounting |
//! | [`fi_chain`] | ledger, gas, blocks, consensus pending list |
//! | [`fi_crypto`] | SHA-256, Merkle trees, ChaCha20 DetRng, random beacon |
//! | [`fi_porep`] | simulated PoRep / Capacity Replicas / WindowPoSt |
//! | [`fi_erasure`] | GF(2^8) + Reed–Solomon erasure codes |
//! | [`fi_ipfs`] | Merkle DAG, IPFS paths, Kademlia DHT, BitSwap over the `fi_store` block space |
//! | [`fi_net`] | discrete-event network simulator |
//! | [`fi_node`] | networked block production: mempool, proposer, follower replay |
//! | [`fi_baselines`] | Filecoin / Storj / Sia / Arweave comparison models |
//! | [`fi_analysis`] | Theorems 1–4 bounds, probability helpers, statistics |
//! | [`fi_sim`] | experiment harness for every paper table & figure |
//!
//! and holds the client-side extensions built on the public engine API:
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`segment`] | §VI-C | erasure-coded large-file segmentation over `File_Add` / `File_Get` |
//! | [`subnet`] | §VI-D | value-level subnetworks, one engine per level |
//! | [`reputation`] | §VII (future work) | softmax provider reputation prototype |
//! | [`materialized`] | §III-D, Fig. 2 | a DRep sector with real sealed CRs |
//!
//! ## Quickstart
//!
//! ```
//! use fileinsurer::prelude::*;
//!
//! let mut params = ProtocolParams::default();
//! params.k = 3;
//! let mut net = Engine::new(params).unwrap();
//!
//! let provider = AccountId(100);
//! let client = AccountId(200);
//! net.fund(provider, TokenAmount(10_000_000_000));
//! net.fund(client, TokenAmount(10_000_000));
//!
//! net.sector_register(provider, 640).unwrap();
//! let file = net
//!     .file_add(client, 16, net.params().min_value, sha256(b"hello dsn"))
//!     .unwrap();
//! net.honest_providers_act();
//! net.advance_to(net.now() + 16);
//! assert!(net.file(file).is_some());
//! ```

#![forbid(unsafe_code)]

pub use fi_analysis as analysis;
pub use fi_baselines as baselines;
pub use fi_chain as chain;
pub use fi_core as core;
pub use fi_crypto as crypto;
pub use fi_erasure as erasure;
pub use fi_ipfs as ipfs;
pub use fi_net as net;
pub use fi_node as node;
pub use fi_porep as porep;
pub use fi_sim as sim;

pub mod materialized;
pub mod reputation;
pub mod segment;
pub mod subnet;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use fi_chain::account::{AccountId, Ledger, TokenAmount};
    pub use fi_chain::tasks::Time;
    pub use fi_core::engine::{Engine, PinnedState, StateProof, StateView};
    pub use fi_core::params::ProtocolParams;
    pub use fi_core::types::{FileId, ProtocolEvent, RemovalReason, SectorId, SectorState};
    pub use fi_crypto::{sha256, DetRng, Hash256};
}
