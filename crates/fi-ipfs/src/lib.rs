//! IPFS-like substrate: content addressing, Merkle DAGs, a Kademlia-style
//! DHT, and a BitSwap-style block exchange.
//!
//! Paper §II-A and §VI-F: FileInsurer *"can run in the top layer of the
//! InterPlanetary File System"* — file hashes and locations live on chain,
//! DHTs and Merkle DAGs let anyone address files through IPFS paths, and
//! retrieval happens through BitSwap. This crate provides those pieces as
//! an in-process simulation:
//!
//! * [`store`] — content-addressed block store (CID = SHA-256 of the block);
//! * [`dag`] — Merkle-DAG file chunking: import a byte stream into linked
//!   blocks, export it back, verify integrity from the root CID alone;
//! * [`dht`] — Kademlia routing: XOR metric, k-buckets, iterative lookup,
//!   provider records (`provide`/`find_providers`);
//! * [`bitswap`] — want-list block exchange between simulated peers, with
//!   per-session transfer statistics.
//!
//! # Example: store a file, retrieve it from another peer
//!
//! ```
//! use fi_ipfs::dag::{import_bytes, export_bytes};
//! use fi_ipfs::store::BlockStore;
//! use fi_ipfs::bitswap::fetch_dag;
//!
//! let mut provider = BlockStore::new();
//! let data = vec![42u8; 10_000];
//! let root = import_bytes(&mut provider, &data, 1024);
//!
//! // A fresh peer fetches the whole DAG block by block.
//! let mut client = BlockStore::new();
//! let stats = fetch_dag(&mut client, &[&provider], root).unwrap();
//! assert!(stats.blocks_received > 0);
//! assert_eq!(export_bytes(&client, root).unwrap(), data);
//! ```

#![forbid(unsafe_code)]

pub mod bitswap;
pub mod dag;
pub mod dht;
pub mod path;
pub mod store;

pub use bitswap::{fetch_dag, BitswapError, BitswapStats};
pub use dag::{export_bytes, import_bytes, DagError, DagNode};
pub use dht::{Dht, NodeId};
pub use path::{resolve_path, Directory, PathError};
pub use store::{BlockStore, Cid};
