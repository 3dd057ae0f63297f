//! # fi-core — the FileInsurer protocol
//!
//! This crate implements the primary contribution of *"FileInsurer: A
//! Scalable and Reliable Protocol for Decentralized File Storage in
//! Blockchain"* (Chen, Lu, Cheng — ICDCS 2022): a blockchain-based
//! Decentralized Storage Network in which
//!
//! * replica locations are **random** (capacity-proportional, i.i.d.) and
//!   **refreshed** over time, giving provable robustness (Theorem 3), and
//! * storage providers pledge **deposits** that fully compensate clients
//!   for lost files (Theorem 4), at a deposit ratio below 0.5%.
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`params`] | Table I, §IV | protocol constants & derived formulas |
//! | [`types`] | Fig. 1 | sectors, file descriptors, allocation entries, events |
//! | [`ops`] | Figs. 4–6 | the typed transaction layer: `Op`, `Receipt`, op log |
//! | [`sampler`] | Table I (`RandomSector`) | Fenwick-tree weighted sampling |
//! | [`drep`] | §III-D, Fig. 2 | Dynamic Replication / Capacity Replicas |
//! | [`engine`] | §IV, Figs. 4–9 | the consensus state machine (`Engine::apply`) |
//!
//! The client-side extensions built on the public engine API — §VI-C
//! segmentation, §VI-D subnets, the §VII reputation prototype and the
//! materialized DRep sector — live in the umbrella `fileinsurer` crate.
//!
//! ## Quickstart
//!
//! ```
//! use fi_core::engine::{Engine, StateView};
//! use fi_core::params::ProtocolParams;
//! use fi_chain::account::{AccountId, TokenAmount};
//! use fi_crypto::sha256;
//!
//! let mut params = ProtocolParams::default();
//! params.k = 3;
//! let mut net = Engine::new(params).unwrap();
//!
//! // A provider rents out two sectors; a client stores a file.
//! let provider = AccountId(100);
//! let client = AccountId(200);
//! net.fund(provider, TokenAmount(10_000_000_000));
//! net.fund(client, TokenAmount(10_000_000));
//! net.sector_register(provider, 640).unwrap();
//! net.sector_register(provider, 640).unwrap();
//!
//! let file = net
//!     .file_add(client, 16, net.params().min_value, sha256(b"quick"))
//!     .unwrap();
//! net.honest_providers_act();                 // providers confirm receipt
//! net.advance_to(net.now() + 16);             // Auto_CheckAlloc fires
//! assert!(net.events().iter().any(|e| matches!(
//!     e,
//!     fi_core::types::ProtocolEvent::FileStored { .. }
//! )));
//! # let _ = file;
//! ```

#![forbid(unsafe_code)]

mod codec;
pub mod drep;
pub mod engine;
pub mod error;
pub mod ops;
pub mod params;
pub mod sampler;
pub mod types;

#[cfg(test)]
mod engine_tests;
#[cfg(test)]
mod engine_tests_fees;

pub use engine::{Engine, EngineError, EngineStats, PinnedState, StateProof, StateView};
pub use error::Error;
pub use ops::{Op, OpRecord, Receipt};
pub use params::{ParamError, ProtocolParams};
pub use sampler::WeightedSampler;
pub use types::{
    AllocEntry, AllocState, FileDescriptor, FileId, FileState, ProtocolEvent, RemovalReason,
    Sector, SectorId, SectorState,
};
