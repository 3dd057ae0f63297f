//! Core data structures of FileInsurer (paper Fig. 1): sectors, file
//! descriptors, allocation entries, and the typed protocol event log.

use fi_chain::account::{AccountId, TokenAmount};
use fi_chain::tasks::Time;
use fi_crypto::Hash256;

use crate::codec::Enc;

/// Identifies a stored file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// Identifies a registered sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SectorId(pub u64);

impl std::fmt::Display for SectorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sector#{}", self.0)
    }
}

/// Sector lifecycle state (Fig. 1: `normal` | `disable`, plus the terminal
/// corruption state from Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectorState {
    /// Accepting new files.
    Normal,
    /// No longer accepts files; drains as refreshes move content away
    /// (`Sector_Disable`, §III-C.2).
    Disabled,
    /// Any bit lost — deposit confiscated, all replicas void (§III-B.1).
    Corrupted,
}

/// A registered sector (Fig. 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sector {
    /// The provider who owns the sector.
    pub owner: AccountId,
    /// Unique id.
    pub id: SectorId,
    /// Total capacity in size units (multiple of `minCapacity`).
    pub capacity: u64,
    /// Remaining free capacity (reservations included).
    pub free_cap: u64,
    /// Lifecycle state.
    pub state: SectorState,
    /// Deposit currently pledged (decreases with punishments).
    pub deposit: TokenAmount,
    /// Number of replicas currently stored or reserved here.
    pub replica_count: u32,
    /// Physically failed (test/adversary injection): the owner can no
    /// longer produce storage proofs from this sector.
    pub physically_failed: bool,
}

impl Sector {
    /// Used capacity (capacity − freeCap).
    pub fn used(&self) -> u64 {
        self.capacity - self.free_cap
    }
}

/// File lifecycle state (Fig. 1: `normal` | `discard`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileState {
    /// Pending `Auto_CheckAlloc` — replicas are being placed.
    Allocating,
    /// Stored and continuously proven.
    Normal,
    /// Marked for removal at the next `Auto_CheckProof`.
    Discarded,
}

/// A file descriptor (Fig. 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileDescriptor {
    /// Unique id.
    pub id: FileId,
    /// The client who pays for and owns the file.
    pub owner: AccountId,
    /// Size in size units.
    pub size: u64,
    /// Declared value (drives replica count and compensation; §IV-B).
    pub value: TokenAmount,
    /// Merkle root of the content.
    pub merkle_root: Hash256,
    /// `f.cp`: number of replicas (`k · value / minValue`).
    pub cp: u32,
    /// Proof cycles until the next location refresh (`cntdown`,
    /// exponentially distributed with mean `AvgRefresh`).
    pub cntdown: i64,
    /// Lifecycle state.
    pub state: FileState,
}

/// Allocation entry state (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocState {
    /// Being (re)allocated: `next` set, waiting for the provider's confirm.
    Alloc,
    /// Confirmed by the `next` sector, not yet finalised by the check task.
    Confirm,
    /// Stored in `prev`, proving regularly.
    Normal,
    /// The holding sector is corrupted.
    Corrupted,
}

/// One entry of the allocation table: the placement of replica `index` of a
/// file (Fig. 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocEntry {
    /// Sector currently storing the replica (`prev`).
    pub prev: Option<SectorId>,
    /// Sector the replica is moving to (`next`).
    pub next: Option<SectorId>,
    /// Time of the last accepted storage proof (`last`; `None` = never).
    pub last: Option<Time>,
    /// Entry state.
    pub state: AllocState,
}

impl AllocEntry {
    /// A fresh entry targeting `next` (the `File_Add` / `Auto_Refresh`
    /// initial state).
    pub fn allocating(next: SectorId) -> Self {
        AllocEntry {
            prev: None,
            next: Some(next),
            last: None,
            state: AllocState::Alloc,
        }
    }
}

/// Why a file was removed from the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovalReason {
    /// Client asked for discard (`File_Discard`).
    ClientDiscard,
    /// Client could not pay the next cycle (Fig. 8).
    InsufficientFunds,
    /// Upload failed: not all sectors confirmed by `Auto_CheckAlloc`.
    UploadFailed,
    /// All replicas destroyed — compensated (Fig. 8).
    Lost,
}

impl RemovalReason {
    /// The reason's one-byte code in every canonical encoding (state
    /// leaves, snapshots, events): the declaration index.
    pub(crate) fn tag(self) -> u8 {
        match self {
            RemovalReason::ClientDiscard => 0,
            RemovalReason::InsufficientFunds => 1,
            RemovalReason::UploadFailed => 2,
            RemovalReason::Lost => 3,
        }
    }
}

/// Typed protocol events; mirrored into the chain event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// A sector was registered with a pledged deposit.
    SectorRegistered {
        /// New sector.
        sector: SectorId,
        /// Owner account.
        owner: AccountId,
        /// Pledged deposit.
        deposit: TokenAmount,
    },
    /// A sector was disabled and is draining.
    SectorDisabled {
        /// The sector.
        sector: SectorId,
    },
    /// A drained sector left the network; deposit returned.
    SectorRemoved {
        /// The sector.
        sector: SectorId,
        /// Deposit refunded to the owner.
        refunded: TokenAmount,
    },
    /// A sector was marked corrupted; deposit confiscated (Fig. 8).
    SectorCorrupted {
        /// The sector.
        sector: SectorId,
        /// Confiscated deposit moved to the compensation pool.
        confiscated: TokenAmount,
    },
    /// A provider was punished for a late proof or failed transfer.
    ProviderPunished {
        /// Punished sector.
        sector: SectorId,
        /// Amount moved from its deposit to the compensation pool.
        amount: TokenAmount,
    },
    /// A file-add request was accepted; replicas are being placed.
    FileAdded {
        /// The file.
        file: FileId,
        /// Number of replicas being placed.
        cp: u32,
    },
    /// `Auto_CheckAlloc` confirmed full placement.
    FileStored {
        /// The file.
        file: FileId,
    },
    /// A file left the network.
    FileRemoved {
        /// The file.
        file: FileId,
        /// Why.
        reason: RemovalReason,
    },
    /// All replicas of a file were destroyed; the owner was compensated
    /// from confiscated deposits (§IV-B).
    FileLost {
        /// The file.
        file: FileId,
        /// Declared value.
        value: TokenAmount,
        /// Amount actually paid (equals `value` unless the pool ran dry).
        compensated: TokenAmount,
    },
    /// A replica is being moved between sectors (`Auto_Refresh`).
    ReplicaSwap {
        /// The file.
        file: FileId,
        /// Replica index.
        index: u32,
        /// Source sector (`None` for initial placement).
        from: Option<SectorId>,
        /// Destination sector.
        to: SectorId,
    },
    /// `Auto_Refresh` hit a collision (target lacked space) and re-armed.
    RefreshCollision {
        /// The file.
        file: FileId,
        /// Replica index.
        index: u32,
    },
    /// Rent was distributed to providers for a period (§IV-A.2).
    RentDistributed {
        /// Total paid out this period.
        total: TokenAmount,
    },
}

impl ProtocolEvent {
    /// Short tag for the chain log.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolEvent::SectorRegistered { .. } => "sector.registered",
            ProtocolEvent::SectorDisabled { .. } => "sector.disabled",
            ProtocolEvent::SectorRemoved { .. } => "sector.removed",
            ProtocolEvent::SectorCorrupted { .. } => "sector.corrupted",
            ProtocolEvent::ProviderPunished { .. } => "provider.punished",
            ProtocolEvent::FileAdded { .. } => "file.added",
            ProtocolEvent::FileStored { .. } => "file.stored",
            ProtocolEvent::FileRemoved { .. } => "file.removed",
            ProtocolEvent::FileLost { .. } => "file.lost",
            ProtocolEvent::ReplicaSwap { .. } => "replica.swap",
            ProtocolEvent::RefreshCollision { .. } => "refresh.collision",
            ProtocolEvent::RentDistributed { .. } => "rent.distributed",
        }
    }

    /// The event's canonical bytes — the `ChainEvent` payload its block
    /// hash commits to (DESIGN.md §7): a variant tag (`SectorRegistered`
    /// = 0 through `RentDistributed` = 11), then every field big-endian
    /// in declaration order: ids as `u64`, `TokenAmount`s as `u128`,
    /// `cp` and replica indices as `u32`, a [`RemovalReason`] as its
    /// one-byte code (declaration index), and `ReplicaSwap::from` as a
    /// presence byte followed by the sector id when present.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(41);
        match *self {
            ProtocolEvent::SectorRegistered {
                sector,
                owner,
                deposit,
            } => {
                e.u8(0);
                e.u64(sector.0);
                e.u64(owner.0);
                e.u128(deposit.0);
            }
            ProtocolEvent::SectorDisabled { sector } => {
                e.u8(1);
                e.u64(sector.0);
            }
            ProtocolEvent::SectorRemoved { sector, refunded } => {
                e.u8(2);
                e.u64(sector.0);
                e.u128(refunded.0);
            }
            ProtocolEvent::SectorCorrupted {
                sector,
                confiscated,
            } => {
                e.u8(3);
                e.u64(sector.0);
                e.u128(confiscated.0);
            }
            ProtocolEvent::ProviderPunished { sector, amount } => {
                e.u8(4);
                e.u64(sector.0);
                e.u128(amount.0);
            }
            ProtocolEvent::FileAdded { file, cp } => {
                e.u8(5);
                e.u64(file.0);
                e.u32(cp);
            }
            ProtocolEvent::FileStored { file } => {
                e.u8(6);
                e.u64(file.0);
            }
            ProtocolEvent::FileRemoved { file, reason } => {
                e.u8(7);
                e.u64(file.0);
                e.u8(reason.tag());
            }
            ProtocolEvent::FileLost {
                file,
                value,
                compensated,
            } => {
                e.u8(8);
                e.u64(file.0);
                e.u128(value.0);
                e.u128(compensated.0);
            }
            ProtocolEvent::ReplicaSwap {
                file,
                index,
                from,
                to,
            } => {
                e.u8(9);
                e.u64(file.0);
                e.u32(index);
                e.opt_u64(from.map(|s| s.0));
                e.u64(to.0);
            }
            ProtocolEvent::RefreshCollision { file, index } => {
                e.u8(10);
                e.u64(file.0);
                e.u32(index);
            }
            ProtocolEvent::RentDistributed { total } => {
                e.u8(11);
                e.u128(total.0);
            }
        }
        e.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sector_used_accounting() {
        let s = Sector {
            owner: AccountId(20),
            id: SectorId(1),
            capacity: 100,
            free_cap: 60,
            state: SectorState::Normal,
            deposit: TokenAmount(10),
            replica_count: 2,
            physically_failed: false,
        };
        assert_eq!(s.used(), 40);
    }

    #[test]
    fn alloc_entry_initial_state() {
        let e = AllocEntry::allocating(SectorId(3));
        assert_eq!(e.state, AllocState::Alloc);
        assert_eq!(e.next, Some(SectorId(3)));
        assert_eq!(e.prev, None);
        assert_eq!(e.last, None);
    }

    #[test]
    fn event_kinds_unique() {
        let events = [
            ProtocolEvent::FileStored { file: FileId(1) }.kind(),
            ProtocolEvent::FileAdded {
                file: FileId(1),
                cp: 1,
            }
            .kind(),
            ProtocolEvent::SectorDisabled {
                sector: SectorId(1),
            }
            .kind(),
            ProtocolEvent::RentDistributed {
                total: TokenAmount(1),
            }
            .kind(),
        ];
        let set: std::collections::HashSet<_> = events.iter().collect();
        assert_eq!(set.len(), events.len());
    }

    #[test]
    fn display_impls() {
        assert_eq!(FileId(7).to_string(), "file#7");
        assert_eq!(SectorId(9).to_string(), "sector#9");
    }
}
