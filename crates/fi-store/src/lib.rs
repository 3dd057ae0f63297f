//! # fi-store — content-addressed blockstore + persistent HAMT maps
//!
//! The storage substrate behind the engine's Merkle-ized state (DESIGN.md
//! §15). Two layers:
//!
//! * [`Blockstore`] — an abstract content-addressed block space: immutable
//!   byte blocks keyed by their SHA-256 hash. [`MemoryBlockstore`] keeps
//!   blocks on the heap; [`DiskBlockstore`] appends them to a log file so
//!   state can spill past RAM and survive the process.
//! * [`Hamt`] — a copy-on-write hash-array-mapped trie persisted as
//!   blockstore nodes: an untyped `bytes → bytes` map whose root hash is a
//!   cryptographic commitment to its full contents. The node layout is
//!   **canonical** (history-independent): two maps holding the same
//!   key-value pairs have bit-identical roots no matter the insert/delete
//!   order that produced them — which is what lets engines with different
//!   shard counts, ingest widths and store backends agree on one root.
//!   Naming a root ([`Hamt::commit`]) only hashes; [`Hamt::flush`] also
//!   writes the named version's nodes, so a store holds exactly the
//!   versions somebody asked to read. Because the shape depends only on
//!   the pairs, a batch of changes is merged in one descent per top-level
//!   group, as jobs a caller may run on threads of its own
//!   ([`Hamt::merge`]), and a whole map built bottom-up and committed in
//!   one pass ([`Hamt::from_pairs`]).
//!
//! Because blocks are keyed by their own hash, structural sharing is free:
//! a map mutation re-writes only the path from the changed leaf to the
//! root (`O(log n)` new nodes), the rest is shared with the previous
//! version. That makes three things cheap by construction:
//!
//! * **time travel** — any flushed root pins a readable historical map,
//!   and a clone of a live map *is* a pin: it shares the nodes in memory
//!   and stays at its version while the original is written to;
//! * **incremental snapshots** — the delta between two versions is just
//!   the set of nodes reachable from the new root but not the old one,
//!   found by walking the two in lockstep and skipping every subtree
//!   whose hashes agree ([`Hamt::diff_new_nodes`]); the receiver turns
//!   those nodes into the changed key-value pairs by the same walk
//!   against the version it holds ([`Hamt::diff_keys`]);
//! * **inclusion proofs** — the node path from root to leaf proves one
//!   key's value against the root hash ([`Hamt::prove`] /
//!   [`Hamt::verify_proof`]) without shipping the map.
//!
//! Reads, proofs and diffs share one rule: a node that is resident is
//! used where it is, and only a link that was never loaded goes to the
//! store.
//!
//! Everything decodes defensively: truncated, bit-flipped or
//! cycle-forming node bytes surface as typed [`StoreError`]s, never a
//! panic or an infinite loop, and no walk visits a stored node twice.
//!
//! ```
//! use fi_store::{Blockstore, Hamt, MemoryBlockstore};
//!
//! let store = MemoryBlockstore::new();
//! let mut map = Hamt::new();
//! map.set(&store, b"alice", b"7").unwrap();
//! map.set(&store, b"bob", b"3").unwrap();
//! let root = map.flush(&store).unwrap();
//!
//! // The map proves a single entry out of the nodes it holds in memory;
//! // any later reader can pin the root and get the same bytes out of
//! // the store.
//! let proof = map.prove(&store, b"alice").unwrap().unwrap();
//! assert_eq!(Hamt::verify_proof(root, b"alice", &proof).unwrap(), b"7");
//! let pinned = Hamt::load(root);
//! assert_eq!(pinned.prove(&store, b"alice").unwrap(), Some(proof));
//! ```

#![forbid(unsafe_code)]

mod blockstore;
mod hamt;

pub use blockstore::{block_hash, Blockstore, DiskBlockstore, MemoryBlockstore, StoreError};
pub use hamt::{Emit, Hamt, Merge};
