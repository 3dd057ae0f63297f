//! The typed transaction layer: every state transition of the FileInsurer
//! ledger is an [`Op`], applied through [`crate::engine::Engine::apply`],
//! answered with a [`Receipt`], and appended to a replayable op log.
//!
//! The paper presents the protocol as a family of on-chain request handlers
//! (Figs. 4–6) plus consensus-automatic tasks (Figs. 7–9). This module
//! makes the request side explicit and first-class, the way a DSN ledger
//! organizes its history as a log of typed storage operations:
//!
//! | Variant | Paper | Semantics |
//! |---|---|---|
//! | [`Op::SectorRegister`] | Fig. 6 `Sector_Register` | pledge deposit, add capacity |
//! | [`Op::SectorDisable`] | Fig. 6 `Sector_Disable` | drain sector, refund on empty |
//! | [`Op::FileAdd`] | Fig. 4 `File_Add` | sample `cp` sectors, escrow fees |
//! | [`Op::FileConfirm`] | Fig. 5 `File_Confirm` | provider acks a replica transfer |
//! | [`Op::FileProve`] | Fig. 5 `File_Prove` | storage proof for a held replica |
//! | [`Op::FileGet`] | §III-E `File_Get` | list live holders (gas-charged read) |
//! | [`Op::FileDiscard`] | Fig. 4 `File_Discard` | owner marks file for removal |
//! | [`Op::ForceDiscard`] | §VI-C rollback | consensus-side discard, no gas |
//! | [`Op::Fund`] / [`Op::Burn`] | — | simulation mint/burn |
//! | [`Op::FailSector`] / [`Op::CorruptSector`] | §V fault model | adversarial injection |
//! | [`Op::AdvanceTo`] | Fig. 1 pending list | move consensus time, run `Auto_*` tasks |
//!
//! The `Auto_*` tasks themselves are *not* ops: they are deterministic
//! consequences of `AdvanceTo` (the network executes them by consensus, no
//! transaction exists for them). That is exactly what makes the log
//! replayable: [`crate::engine::Engine::replay`] feeds the same ops to a
//! fresh engine and reproduces the same `state_root()` block by block.
//!
//! Ops arrive one at a time through `apply` or as whole block batches
//! through [`crate::engine::Engine::apply_batch`], which takes the
//! batch's op digests and proof walks in one pass, then executes every op
//! in order; either path commits the identical op log.

use fi_chain::account::{AccountId, TokenAmount};
use fi_chain::tasks::Time;
use fi_crypto::{cached_domain, Hash256};

use crate::codec::Enc;
use crate::types::{FileId, SectorId};

/// A typed protocol transaction — the single entry point into the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `Sector_Register` (Fig. 6): `owner` pledges the deposit for a sector
    /// of `capacity` size units.
    SectorRegister {
        /// Provider account paying the deposit.
        owner: AccountId,
        /// Sector capacity (multiple of `minCapacity`).
        capacity: u64,
    },
    /// `Sector_Disable` (Fig. 6): stop accepting files; drain and refund.
    SectorDisable {
        /// Must be the sector owner.
        caller: AccountId,
        /// Sector to disable.
        sector: SectorId,
    },
    /// `File_Add` (Fig. 4): store a file with `cp = k·value/minValue`
    /// replicas at capacity-weighted random sectors.
    FileAdd {
        /// Client account paying fees and rent.
        client: AccountId,
        /// File size (≤ `sizeLimit`).
        size: u64,
        /// Declared value (multiple of `minValue`).
        value: TokenAmount,
        /// Merkle commitment to the content.
        merkle_root: Hash256,
    },
    /// `File_Confirm` (Fig. 5): the target sector's provider acknowledges
    /// receiving replica `index`; the traffic fee is released.
    FileConfirm {
        /// Must own `sector`.
        caller: AccountId,
        /// File being transferred.
        file: FileId,
        /// Replica index.
        index: u32,
        /// Receiving sector.
        sector: SectorId,
    },
    /// `File_Prove` (Fig. 5): a storage proof for replica `index` held by
    /// `sector`.
    FileProve {
        /// Must own `sector`.
        caller: AccountId,
        /// File proven.
        file: FileId,
        /// Replica index.
        index: u32,
        /// Holding sector.
        sector: SectorId,
    },
    /// `File_Get` (§III-E): gas-charged holder lookup; retrieval proceeds
    /// off-chain.
    FileGet {
        /// Account charged for the read.
        caller: AccountId,
        /// File requested.
        file: FileId,
    },
    /// `File_Discard` (Fig. 4): the owner marks the file for removal at its
    /// next `Auto_CheckProof`.
    FileDiscard {
        /// Must be the file owner.
        caller: AccountId,
        /// File to discard.
        file: FileId,
    },
    /// Consensus-side discard used by the §VI-C segmented-upload rollback:
    /// marks the file discarded without charging gas (the usual trigger is
    /// the client running out of funds mid-upload, so a gas-charging
    /// discard would fail for the same reason and orphan the segments).
    ForceDiscard {
        /// File to mark discarded.
        file: FileId,
    },
    /// Simulation funding: mints tokens into an account.
    Fund {
        /// Receiving account.
        account: AccountId,
        /// Minted amount.
        amount: TokenAmount,
    },
    /// Simulation burn (e.g. to model a client going broke).
    Burn {
        /// Account debited.
        account: AccountId,
        /// Burned amount.
        amount: TokenAmount,
    },
    /// Fault injection: silent physical failure — the sector can no longer
    /// produce proofs; the network discovers it via `ProofDeadline`.
    FailSector {
        /// Failing sector.
        sector: SectorId,
    },
    /// Fault injection with immediate detection: confiscate the deposit and
    /// void the sector's replicas right away.
    CorruptSector {
        /// Corrupted sector.
        sector: SectorId,
    },
    /// Advances consensus time, sealing blocks and executing every due
    /// `Auto_*` task (Fig. 1's pending list) on the way.
    AdvanceTo {
        /// Target consensus time: at least the current time, and more
        /// than one block interval below `Time::MAX`.
        target: Time,
    },
}

impl Op {
    /// Short kind tag (stable, used in logs and events).
    pub fn kind(&self) -> &'static str {
        match self {
            Op::SectorRegister { .. } => "op.sector_register",
            Op::SectorDisable { .. } => "op.sector_disable",
            Op::FileAdd { .. } => "op.file_add",
            Op::FileConfirm { .. } => "op.file_confirm",
            Op::FileProve { .. } => "op.file_prove",
            Op::FileGet { .. } => "op.file_get",
            Op::FileDiscard { .. } => "op.file_discard",
            Op::ForceDiscard { .. } => "op.force_discard",
            Op::Fund { .. } => "op.fund",
            Op::Burn { .. } => "op.burn",
            Op::FailSector { .. } => "op.fail_sector",
            Op::CorruptSector { .. } => "op.corrupt_sector",
            Op::AdvanceTo { .. } => "op.advance_to",
        }
    }

    /// The op's canonical bytes (DESIGN.md §7): a one-byte variant tag —
    /// the declaration index, `SectorRegister` = 0 through `AdvanceTo` =
    /// 12 — then every field big-endian in declaration order: account,
    /// file and sector ids, sizes and `Time` as `u64`, replica indices as
    /// `u32`, `TokenAmount`s as `u128`, `merkle_root` as all 32 bytes.
    /// [`Op::digest`] hashes exactly these bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(65);
        match *self {
            Op::SectorRegister { owner, capacity } => {
                e.u8(0);
                e.u64(owner.0);
                e.u64(capacity);
            }
            Op::SectorDisable { caller, sector } => {
                e.u8(1);
                e.u64(caller.0);
                e.u64(sector.0);
            }
            Op::FileAdd {
                client,
                size,
                value,
                merkle_root,
            } => {
                e.u8(2);
                e.u64(client.0);
                e.u64(size);
                e.u128(value.0);
                e.hash(&merkle_root);
            }
            Op::FileConfirm {
                caller,
                file,
                index,
                sector,
            } => {
                e.u8(3);
                e.u64(caller.0);
                e.u64(file.0);
                e.u32(index);
                e.u64(sector.0);
            }
            Op::FileProve {
                caller,
                file,
                index,
                sector,
            } => {
                e.u8(4);
                e.u64(caller.0);
                e.u64(file.0);
                e.u32(index);
                e.u64(sector.0);
            }
            Op::FileGet { caller, file } => {
                e.u8(5);
                e.u64(caller.0);
                e.u64(file.0);
            }
            Op::FileDiscard { caller, file } => {
                e.u8(6);
                e.u64(caller.0);
                e.u64(file.0);
            }
            Op::ForceDiscard { file } => {
                e.u8(7);
                e.u64(file.0);
            }
            Op::Fund { account, amount } => {
                e.u8(8);
                e.u64(account.0);
                e.u128(amount.0);
            }
            Op::Burn { account, amount } => {
                e.u8(9);
                e.u64(account.0);
                e.u128(amount.0);
            }
            Op::FailSector { sector } => {
                e.u8(10);
                e.u64(sector.0);
            }
            Op::CorruptSector { sector } => {
                e.u8(11);
                e.u64(sector.0);
            }
            Op::AdvanceTo { target } => {
                e.u8(12);
                e.u64(target);
            }
        }
        e.into_bytes()
    }

    /// Canonical digest of the op, committed into the containing block's
    /// op batch: the `"fileinsurer/op"` keyed hash of [`Op::encode`].
    pub fn digest(&self) -> Hash256 {
        op_domain().hash(&[&self.encode()])
    }
}

cached_domain!(fn op_domain, "fileinsurer/op");
cached_domain!(fn receipt_domain, "fileinsurer/receipt");
cached_domain!(fn receipt_err_domain, "fileinsurer/receipt-err");

/// The typed result of a successfully applied [`Op`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receipt {
    /// A sector was registered.
    SectorRegistered {
        /// The new sector's id.
        sector: SectorId,
    },
    /// A sector was disabled (drain started or completed).
    SectorDisabled {
        /// The disabled sector.
        sector: SectorId,
    },
    /// A file was accepted and its replicas allocated.
    FileAdded {
        /// The new file's id.
        file: FileId,
        /// Number of replicas allocated.
        cp: u32,
    },
    /// A replica transfer was confirmed.
    Confirmed {
        /// File whose replica was confirmed.
        file: FileId,
        /// Replica index.
        index: u32,
    },
    /// A storage proof was accepted.
    Proved {
        /// File proven.
        file: FileId,
        /// Replica index.
        index: u32,
    },
    /// Live holders of a file, in replica-index order.
    Holders {
        /// `(sector, owner)` pairs currently able to serve the file.
        holders: Vec<(SectorId, AccountId)>,
    },
    /// A file was marked for discard (client- or consensus-initiated).
    Discarded {
        /// The file marked.
        file: FileId,
    },
    /// Tokens were minted or burned.
    Balance {
        /// Account affected.
        account: AccountId,
        /// Resulting balance.
        balance: TokenAmount,
    },
    /// A fault was injected into a sector.
    Faulted {
        /// The sector affected.
        sector: SectorId,
    },
    /// Consensus time advanced.
    TimeAdvanced {
        /// The new consensus time.
        now: Time,
        /// Chain height after the advance.
        height: u64,
    },
}

impl Receipt {
    /// The receipt's canonical bytes (DESIGN.md §7), laid out like
    /// [`Op::encode`]: a variant tag (`SectorRegistered` = 0 through
    /// `TimeAdvanced` = 9), then the fields big-endian in declaration
    /// order; `Holders` writes its pair count as a `u64`, then each
    /// `(sector, owner)` pair.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(25);
        match self {
            Receipt::SectorRegistered { sector } => {
                e.u8(0);
                e.u64(sector.0);
            }
            Receipt::SectorDisabled { sector } => {
                e.u8(1);
                e.u64(sector.0);
            }
            Receipt::FileAdded { file, cp } => {
                e.u8(2);
                e.u64(file.0);
                e.u32(*cp);
            }
            Receipt::Confirmed { file, index } => {
                e.u8(3);
                e.u64(file.0);
                e.u32(*index);
            }
            Receipt::Proved { file, index } => {
                e.u8(4);
                e.u64(file.0);
                e.u32(*index);
            }
            Receipt::Holders { holders } => {
                e.u8(5);
                e.usize(holders.len());
                for (sector, owner) in holders {
                    e.u64(sector.0);
                    e.u64(owner.0);
                }
            }
            Receipt::Discarded { file } => {
                e.u8(6);
                e.u64(file.0);
            }
            Receipt::Balance { account, balance } => {
                e.u8(7);
                e.u64(account.0);
                e.u128(balance.0);
            }
            Receipt::Faulted { sector } => {
                e.u8(8);
                e.u64(sector.0);
            }
            Receipt::TimeAdvanced { now, height } => {
                e.u8(9);
                e.u64(*now);
                e.u64(*height);
            }
        }
        e.into_bytes()
    }

    /// Canonical digest of the receipt, folded into the block's
    /// `receipt_root`: the `"fileinsurer/receipt"` keyed hash of
    /// [`Receipt::encode`].
    pub fn digest(&self) -> Hash256 {
        receipt_domain().hash(&[&self.encode()])
    }

    /// Digest recorded for a *failed* op (failed requests still burn gas
    /// and occupy the batch, so their outcome is committed too): the
    /// `"fileinsurer/receipt-err"` keyed hash of
    /// [`EngineError::encode`](crate::engine::EngineError::encode).
    pub fn error_digest(err: &crate::engine::EngineError) -> Hash256 {
        receipt_err_domain().hash(&[&err.encode()])
    }
}

/// One entry of the engine's op log: the op, when it was applied, and
/// whether it succeeded. The log is the ledger's transaction history —
/// [`crate::engine::Engine::replay`] reproduces the full engine state from
/// it deterministically, and [`crate::engine::Engine::replay_from`] does
/// the same from a [`crate::engine::Checkpoint`] base after the log has
/// been truncated by [`crate::engine::Engine::checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Global op sequence number (0-based, monotonic across the engine's
    /// whole history — checkpoint truncation does not reset it, so a
    /// truncated log's first record carries the checkpoint's
    /// `ops_applied`).
    pub seq: u64,
    /// Consensus time when the op was applied (before any time advance the
    /// op itself performs).
    pub at: Time,
    /// The op.
    pub op: Op,
    /// Whether the op succeeded. Failed ops still mutate state (gas burns)
    /// and are replayed; replay asserts the outcome matches.
    pub ok: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_digests_distinguish_ops() {
        let a = Op::FileAdd {
            client: AccountId(1),
            size: 4,
            value: TokenAmount(1_000),
            merkle_root: Hash256::ZERO,
        };
        let b = Op::FileAdd {
            client: AccountId(2),
            size: 4,
            value: TokenAmount(1_000),
            merkle_root: Hash256::ZERO,
        };
        assert_eq!(a.kind(), "op.file_add");
        assert_ne!(a.digest(), b.digest(), "payload is committed");
        assert_eq!(a.digest(), a.clone().digest(), "digest is deterministic");
    }

    #[test]
    fn receipt_digests_distinguish_outcomes() {
        let ok = Receipt::FileAdded {
            file: FileId(0),
            cp: 3,
        };
        let other = Receipt::FileAdded {
            file: FileId(1),
            cp: 3,
        };
        assert_ne!(ok.digest(), other.digest());
        let err = Receipt::error_digest(&crate::engine::EngineError::NotOwner);
        assert_ne!(ok.digest(), err);
    }
}
