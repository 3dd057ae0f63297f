//! IPFS-like substrate: Merkle DAGs, IPFS paths, a Kademlia-style DHT,
//! and a BitSwap-style block exchange.
//!
//! Paper §II-A and §VI-F: FileInsurer *"can run in the top layer of the
//! InterPlanetary File System"* — file hashes and locations live on chain,
//! DHTs and Merkle DAGs let anyone address files through IPFS paths, and
//! retrieval happens through BitSwap. This crate provides those pieces as
//! an in-process simulation. Blocks live in any [`fi_store::Blockstore`],
//! the one content-addressed block space the engine's state tries use too
//! (CID = SHA-256 of the block):
//!
//! * [`dag`] — Merkle-DAG file chunking: import a byte stream into linked
//!   blocks, export it back, verify integrity from the root CID alone;
//! * [`path`] — directory blocks and `/ipfs/<cid>/a/b` path resolution;
//! * [`dht`] — Kademlia routing: XOR metric, k-buckets, iterative lookup,
//!   provider records (`provide`/`find_providers`);
//! * [`bitswap`] — want-list block exchange between simulated peers, with
//!   per-session transfer statistics.
//!
//! # Example: store a file, retrieve it from another peer
//!
//! ```
//! use fi_ipfs::dag::{import_bytes, export_bytes};
//! use fi_ipfs::bitswap::fetch_dag;
//! use fi_store::MemoryBlockstore;
//!
//! let provider = MemoryBlockstore::new();
//! let data = vec![42u8; 10_000];
//! let root = import_bytes(&provider, &data, 1024).unwrap();
//!
//! // A fresh peer fetches the whole DAG block by block.
//! let client = MemoryBlockstore::new();
//! let stats = fetch_dag(&client, &[&provider], root).unwrap();
//! assert!(stats.blocks_received > 0);
//! assert_eq!(export_bytes(&client, root).unwrap(), data);
//! ```

#![forbid(unsafe_code)]

pub mod bitswap;
pub mod dag;
pub mod dht;
pub mod path;

pub use bitswap::{fetch_dag, BitswapError, BitswapStats};
pub use dag::{export_bytes, import_bytes, Cid, DagError, DagNode};
pub use dht::{Dht, NodeId};
pub use path::{resolve_path, Directory, PathError};
