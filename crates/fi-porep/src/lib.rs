//! Simulated Proof-of-Replication (PoRep), Capacity Replicas, and
//! Proof-of-Spacetime (PoSt) for the FileInsurer reproduction.
//!
//! # What the real system does
//!
//! In Filecoin (and FileInsurer, which reuses the machinery — paper §II-B,
//! §III-D), a storage provider *seals* data `D` into a replica `R = seal(D,
//! ek)` under an encryption key; sealing is deliberately slow and
//! sequential, while `unseal` recovers `D`. The provider commits to the
//! replica with a Merkle root `comm_r` and proves, via SNARK, that `comm_r`
//! really is a sealing of the data behind `comm_d`. Afterwards,
//! **WindowPoSt** repeatedly proves the replica is still held, by answering
//! beacon-derived chunk challenges with Merkle inclusion proofs.
//!
//! # What we simulate, and why it is faithful
//!
//! A real PoRep needs a SNARK proving stack and hours of sealing per sector
//! — irrelevant to every claim this reproduction measures. We keep the
//! *protocol-visible* behaviour:
//!
//! * sealing is a **keyed, invertible transform** (ChaCha20 stream cipher
//!   keyed by `(replica_id)`), so each `(file, sector, key)` triple yields a
//!   unique replica — Sybil resistance: one stored copy cannot answer
//!   challenges for two replica commitments;
//! * `comm_r`/`comm_d` are binding Merkle commitments; tampering with any
//!   chunk breaks verification;
//! * the SNARK is replaced by re-execution ([`seal::PorepProof::verify`]):
//!   same accept/reject behaviour, different (modelled, not incurred) cost —
//!   see [`cost::CostModel`];
//! * **Capacity Replicas** (paper §III-D, Fig. 2) are sealings of all-zero
//!   data; they are regenerable from nothing but the key, exactly the
//!   property DRep exploits (*"the provider can recover it by PoRep.setup
//!   because the raw data of a CR are zeros"*);
//! * **WindowPoSt** answers per-cycle beacon challenges with inclusion
//!   proofs over the sealed replica ([`post`]).
//!
//! # Example
//!
//! ```
//! use fi_porep::seal::{ReplicaId, SealedReplica};
//! use fi_porep::post::{derive_challenges, WindowPost};
//! use fi_crypto::sha256;
//!
//! let data = b"file payload".to_vec();
//! let rid = ReplicaId::derive(&sha256(b"file"), &sha256(b"sector-7"), 0);
//! let replica = SealedReplica::seal(&data, rid);
//! assert_eq!(replica.unseal(), data);
//!
//! // Prove continued storage against a beacon value:
//! let beacon = sha256(b"round-42");
//! let challenges = derive_challenges(&beacon, &replica.comm_r(), 4, replica.chunk_count());
//! let proof = WindowPost::respond(&replica, &challenges);
//! assert!(proof.verify(&replica.comm_r(), &challenges));
//! ```

#![forbid(unsafe_code)]

pub mod capacity;
pub mod cost;
pub mod post;
pub mod seal;

pub use capacity::CapacityReplica;
pub use cost::CostModel;
pub use post::{derive_challenges, WindowPost};
pub use seal::{PorepProof, ReplicaId, SealedReplica};
