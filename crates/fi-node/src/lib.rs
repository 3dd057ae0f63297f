//! The networked node layer: mempool → rotating proposers → fork-choice,
//! with fault-injection-grade recovery over `fi-net`.
//!
//! PR 5 proved *one* fixed proposer's blocks replay bit-identically on
//! followers; this crate now closes the robustness loop the paper's §V
//! claims live on — leaderless-in-the-limit block production that
//! survives crashes, partitions and equivocation:
//!
//! * [`mempool`] — deterministic admission (nonce, duplicate, funds,
//!   capacity) and fee-ordered, gas-bounded block selection, with
//!   **bounded tombstones** ([`fi_core::params::ProtocolParams::
//!   tombstone_retention_blocks`]) and cross-proposer reconciliation via
//!   [`Mempool::observe_committed`];
//! * [`schedule`] — beacon-driven proposer rotation:
//!   [`ProposerSchedule`] derives the identical leader + fallback order
//!   for every slot on every node from
//!   [`fi_crypto::RandomBeacon::permutation`];
//! * [`chain`] — the [`ChainTracker`] block tree: verify-then-prefer
//!   adoption, deterministic fork-choice (height, then schedule
//!   priority), equivocation conviction with gossiped evidence;
//! * [`node`] — the unified [`Validator`] process: slot-timer proposal
//!   with the skip rule, anti-entropy status exchange, cold-join serving;
//! * [`client`] — a chain-watching workload driver deriving realistic
//!   adds/confirms/proves/gets/discards (and deliberately lazy
//!   providers) from its replicated view;
//! * [`cluster`] — assembly of all of the above into one deterministic
//!   [`fi_net::World`], ready for crash/partition schedules.
//!
//! Consensus safety in one sentence: a block is nothing but an ordered op
//! list, the engine is a deterministic function of applied ops, and the
//! fork-choice picks the same branch on every node given the same block
//! set — so surviving nodes of any crash/partition schedule reconverge to
//! bit-identical roots once anti-entropy delivers the blocks (asserted by
//! `tests/node_pipeline.rs` and `tests/fault_recovery.rs`; DESIGN.md §12).

#![forbid(unsafe_code)]

pub mod chain;
pub mod chaos;
pub mod client;
pub mod cluster;
pub mod mempool;
pub mod node;
pub mod schedule;

pub use chain::{
    ChainTracker, EquivocationEvidence, InsertOutcome, RejectReason, SealedBlock, TrackerWork,
};
pub use chaos::{cluster_for_spec, run_chaos, schedule_fault_script, ChaosOutcome, FaultSchedule};
pub use client::{ClientDriver, ClientReport, WorkloadConfig};
pub use cluster::{
    build_cluster, cluster_horizon, genesis_engine, run_cluster, ClusterConfig, ClusterReports,
};
pub use mempool::{AdmitError, Mempool, MempoolStats, Tx};
pub use node::{ConsensusConfig, NodeMsg, NodeStart, Validator, ValidatorReport};
pub use schedule::ProposerSchedule;
