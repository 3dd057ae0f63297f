//! Minimal deterministic blockchain substrate.
//!
//! FileInsurer "could be an independent blockchain or a decentralized
//! application parasitic on existing blockchains" (paper §III). Its state —
//! the allocation table, the pending list, deposits, rent, compensation —
//! lives *in consensus*. This crate provides exactly the consensus-side
//! machinery the protocol consumes, with consensus security **assumed** as
//! in the paper (§V-A: "the issue of consensus security is not the target
//! of this paper"):
//!
//! * [`account`] — token ledger with conservation-checked mint/burn/transfer
//!   and escrow sub-accounts (deposits, rent pool, prepaid gas);
//! * [`gas`] — gas metering with a fee schedule, including the *prepaid*
//!   gas FileInsurer requires for `Auto_*` tasks (§IV-A.3);
//! * [`tasks`] — the pending list (`time → [task]`, Fig. 1), a sparse map
//!   of occupied epoch buckets, executed automatically when block time
//!   reaches each entry;
//! * [`block`] — block production: height, timestamp, event log, state
//!   commitment, and a per-height random beacon;
//! * [`log`] — the persistent append-only log the applied-op records are
//!   kept in, so clones share it.
//!
//! The chain is single-producer and deterministic: every honest replica of
//! the simulation derives identical state. That is precisely the abstraction
//! level of the paper's analysis.
//!
//! # Example
//!
//! ```
//! use fi_chain::account::{AccountId, Ledger, TokenAmount};
//!
//! let mut ledger = Ledger::new();
//! let alice = AccountId(1);
//! let bob = AccountId(2);
//! ledger.mint(alice, TokenAmount(1_000));
//! ledger.transfer(alice, bob, TokenAmount(250)).unwrap();
//! assert_eq!(ledger.balance(bob), TokenAmount(250));
//! assert_eq!(ledger.total_supply(), TokenAmount(1_000));
//! ```

#![forbid(unsafe_code)]

pub mod account;
pub mod block;
pub mod gas;
pub mod log;
pub mod tasks;

pub use account::{AccountId, Ledger, LedgerError, TokenAmount};
pub use block::{Block, BlockChain, ChainEvent};
pub use gas::{GasError, GasMeter, GasSchedule, Op};
pub use log::SharedLog;
pub use tasks::{Scheduler, SchedulerKind};
