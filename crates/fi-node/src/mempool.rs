//! The deterministic mempool: typed transactions, admission control, and
//! fee-ordered, gas-bounded block selection.
//!
//! The paper specifies the on-chain handlers (Figs. 4–6) but not how
//! requests reach them; a real deployment puts a mempool in front of the
//! consensus state machine (Filecoin's actors stack has the same
//! boundary). This module supplies that front end for the node layer:
//!
//! * **admission** ([`Mempool::admit`]) — cheap, node-local pre-checks:
//!   per-account nonce sequencing, duplicate-op rejection, a balance
//!   heuristic against the node's current ledger view, and a capacity cap
//!   ([`ProtocolParams::mempool_cap`]). Admission is *advisory*: the
//!   engine's commit path re-validates everything, and an op that passes
//!   admission can still fail at commit (e.g. the account went broke
//!   mid-block, and the op's gas check reads the drained ledger);
//! * **selection** ([`Mempool::select_block`]) — drains the highest-fee
//!   admissible transactions into a block, respecting per-account nonce
//!   order and stopping at [`ProtocolParams::block_gas_limit`] /
//!   [`ProtocolParams::block_ops_limit`], with gas costs taken from the
//!   [`fi_chain::gas`] schedule's declared upper bounds (§III-B.4).
//!
//! Everything is deterministic: accounts iterate in id order, ties in fee
//! break by arrival sequence, and no wall clock is consulted — two nodes
//! fed the same submissions in the same order build the same blocks.
//!
//! Under proposer rotation the pool also **follows the chain**:
//! [`Mempool::observe_committed`] drops transactions another proposer
//! committed and advances the account frontiers, and the rejection
//! tombstones are bounded by [`ProtocolParams::tombstone_retention_blocks`]
//! — after that many blocks a stalled frontier steps over the aged
//! tombstone (or gap) instead of waiting forever for a nonce that will
//! never arrive.

use std::collections::{BTreeMap, HashMap, HashSet};

use fi_chain::account::{AccountId, Ledger, TokenAmount};
use fi_chain::gas::{GasSchedule, Op as GasOp};
use fi_core::ops::Op;
use fi_core::params::ProtocolParams;
use fi_crypto::Hash256;

/// A signed-transaction stand-in: who submits, replay protection, a
/// priority fee, and the protocol op itself.
///
/// The simulation does not model signatures; `from` is trusted the way
/// the engine trusts its `caller` arguments. The nonce is mempool-layer
/// replay protection (per-account, strictly increasing), not part of
/// consensus: the op alone is what a sealed block carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tx {
    /// Submitting account (pays fees; must match the op's caller for
    /// caller-checked ops).
    pub from: AccountId,
    /// Per-account sequence number; selection is strictly in nonce order.
    pub nonce: u64,
    /// Priority fee used for ordering only (the simulation does not charge
    /// it — gas burns happen inside the engine).
    pub fee: TokenAmount,
    /// The protocol operation to commit.
    pub op: Op,
}

impl Tx {
    /// Approximate wire size of the transaction, for link-delay modeling.
    pub fn wire_bytes(&self) -> u64 {
        128
    }
}

/// Why a submission was rejected at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The op is not a client-submittable request. Only the paper's
    /// Figs. 4–6 handlers (`Sector_Register`/`Disable`, `File_Add`/
    /// `Confirm`/`Prove`/`Get`/`Discard`) may enter through the mempool:
    /// `AdvanceTo` moves consensus time (the proposer's job), and `Fund`/
    /// `Burn`/`ForceDiscard`/`FailSector`/`CorruptSector` are
    /// simulation- or consensus-side ops with **no caller field** — the
    /// engine commits them without an ownership check, so admitting them
    /// would let any client mint tokens or destroy others' sectors.
    ConsensusOnly,
    /// The nonce was already selected into a block (or is below the
    /// account's next selectable nonce).
    StaleNonce {
        /// The smallest admissible nonce for the account.
        expected_at_least: u64,
        /// The submitted nonce.
        got: u64,
    },
    /// A queued transaction already occupies this nonce.
    NonceOccupied {
        /// The contested nonce.
        nonce: u64,
    },
    /// An identical op (same digest) is already queued.
    DuplicateOp,
    /// The account cannot cover its queued transactions plus this one
    /// under the admission cost heuristic.
    InsufficientFunds {
        /// Current ledger balance of the account.
        balance: TokenAmount,
        /// Estimated total cost of the account's queue including this tx.
        required: TokenAmount,
    },
    /// The mempool is at [`ProtocolParams::mempool_cap`].
    MempoolFull {
        /// The configured cap.
        cap: usize,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::ConsensusOnly => write!(f, "op is not client-submittable"),
            AdmitError::StaleNonce {
                expected_at_least,
                got,
            } => write!(f, "stale nonce {got} (expected >= {expected_at_least})"),
            AdmitError::NonceOccupied { nonce } => write!(f, "nonce {nonce} already queued"),
            AdmitError::DuplicateOp => write!(f, "identical op already queued"),
            AdmitError::InsufficientFunds { balance, required } => {
                write!(f, "balance {balance:?} below estimated cost {required:?}")
            }
            AdmitError::MempoolFull { cap } => write!(f, "mempool at capacity {cap}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Admission/selection counters for reports and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Transactions accepted into the pool.
    pub admitted: u64,
    /// Rejections: stale or occupied nonce.
    pub rejected_nonce: u64,
    /// Rejections: duplicate op digest.
    pub rejected_duplicate: u64,
    /// Rejections: admission funds heuristic.
    pub rejected_funds: u64,
    /// Rejections: pool at capacity.
    pub rejected_full: u64,
    /// Rejections: consensus-internal op.
    pub rejected_consensus_only: u64,
    /// Transactions selected into blocks.
    pub selected: u64,
    /// Queued transactions removed because a committed block already
    /// carried their op (committed via this or another proposer).
    pub observed_committed: u64,
    /// Tombstones folded away because they aged past the retention window
    /// while the frontier was stalled below them.
    pub tombstones_expired: u64,
    /// Frontier jumps over aged gaps (nonces never seen by this pool,
    /// presumed committed elsewhere or lost by the client).
    pub gaps_jumped: u64,
}

#[derive(Debug, Clone)]
struct QueuedTx {
    tx: Tx,
    /// `tx.op.digest()`, computed once at admission.
    digest: Hash256,
    arrival: u64,
    gas_bound: u64,
    cost: TokenAmount,
    /// Pool height when admitted — lets a gapped queue age out (the
    /// missing lower nonces were committed through another node's pool or
    /// lost for good).
    admitted_height: u64,
}

#[derive(Debug, Clone, Default)]
struct AccountQueue {
    /// Next selectable nonce; admission rejects anything below it.
    next_nonce: u64,
    /// Summed admission-cost estimates of the queued transactions.
    pending_cost: TokenAmount,
    txs: BTreeMap<u64, QueuedTx>,
    /// Nonces consumed by *rejected* submissions, keyed to the pool height
    /// that burned them. The submitter burned the nonce client-side (it
    /// cannot un-send), so selection must treat it as spent or the
    /// account's queue would gap forever behind it. Only content
    /// rejections (duplicate, funds, capacity, non-client op) tombstone;
    /// nonce rejections are retransmit duplicates of a live or spent
    /// nonce and must not. The set is bounded:
    /// [`ProtocolParams::tombstone_retention_blocks`] blocks after birth a
    /// tombstone stalling the frontier is folded away.
    tombstones: BTreeMap<u64, u64>,
}

impl AccountQueue {
    /// Folds tombstones at the selection frontier into `next_nonce`.
    ///
    /// This is the **only** way a tombstone leaves the map — always by
    /// advancing the frontier past it, never by forgetting it — which is
    /// what keeps eviction from re-opening the burned-nonce gap: a nonce
    /// once tombstoned can never become selectable again.
    fn normalize(&mut self) {
        while self.tombstones.remove(&self.next_nonce).is_some() {
            self.next_nonce += 1;
        }
    }
}

/// The deterministic transaction pool in front of a proposer's engine.
#[derive(Debug)]
pub struct Mempool {
    params: ProtocolParams,
    gas: GasSchedule,
    /// `BTreeMap`, not `HashMap`: selection iterates accounts, and the
    /// block it builds must not depend on hash order.
    accounts: BTreeMap<AccountId, AccountQueue>,
    /// Digest → (account, nonce) of every queued transaction, so
    /// [`Mempool::observe_committed`] can drop a tx another proposer
    /// committed without scanning the queues.
    queued_digests: HashMap<Hash256, (AccountId, u64)>,
    len: usize,
    arrivals: u64,
    /// Highest chain height observed via [`Mempool::observe_committed`];
    /// the clock tombstone retention is measured against.
    height: u64,
    stats: MempoolStats,
}

/// Whether `op` may enter through the mempool: exactly the paper's
/// client/provider request handlers (Figs. 4–6). Everything else is
/// consensus- or simulation-side — see [`AdmitError::ConsensusOnly`].
pub fn client_submittable(op: &Op) -> bool {
    matches!(
        op,
        Op::SectorRegister { .. }
            | Op::SectorDisable { .. }
            | Op::FileAdd { .. }
            | Op::FileConfirm { .. }
            | Op::FileProve { .. }
            | Op::FileGet { .. }
            | Op::FileDiscard { .. }
    )
}

/// Upper bound, in gas units, of committing `op` — the planning cost the
/// proposer charges against [`ProtocolParams::block_gas_limit`] during
/// block selection.
///
/// Derived from the same [`GasSchedule`] the engine charges with, using
/// each handler's worst-case op mix (cf. [`GasSchedule::check_proof_bound`]
/// for the pending-list analogue). `File_Get`'s holder scan depends on the
/// file's replica count, unknown at selection time; it is bounded by `k`
/// reads (exact for `minValue` files, the common case). Bounds are
/// defined for every variant so callers can price arbitrary batches, but
/// only [`client_submittable`] ops ever reach block selection.
pub fn gas_bound(params: &ProtocolParams, gas: &GasSchedule, op: &Op) -> u64 {
    let p = |o: GasOp| gas.price(o);
    match op {
        Op::SectorRegister { .. } | Op::SectorDisable { .. } => {
            p(GasOp::RequestBase) + p(GasOp::SectorAdmin) + p(GasOp::Transfer)
        }
        Op::FileAdd { value, .. } => {
            // cp allocation writes; an invalid value fails at commit, so
            // bound it by k (one minValue multiple) in that case.
            let cp = params.backup_count(*value).unwrap_or(params.k) as u64;
            p(GasOp::RequestBase)
                + p(GasOp::Transfer)
                + cp * p(GasOp::AllocWrite)
                + p(GasOp::TaskSchedule)
        }
        Op::FileConfirm { .. } => {
            p(GasOp::RequestBase) + p(GasOp::AllocRead) + p(GasOp::AllocWrite) + p(GasOp::Transfer)
        }
        Op::FileProve { .. } => p(GasOp::RequestBase) + p(GasOp::AllocRead) + p(GasOp::ProofVerify),
        Op::FileGet { .. } => p(GasOp::RequestBase) + params.k as u64 * p(GasOp::AllocRead),
        Op::FileDiscard { .. } | Op::ForceDiscard { .. } => {
            p(GasOp::RequestBase) + p(GasOp::AllocWrite)
        }
        Op::Fund { .. } | Op::Burn { .. } => p(GasOp::Transfer),
        Op::FailSector { .. } | Op::CorruptSector { .. } => p(GasOp::SectorAdmin),
        Op::AdvanceTo { .. } => p(GasOp::TaskExecute),
    }
}

impl Mempool {
    /// An empty pool enforcing `params`' caps and pricing selection with
    /// `gas` (must match the engine's schedule for the gas bounds to mean
    /// anything).
    pub fn new(params: ProtocolParams, gas: GasSchedule) -> Self {
        Mempool {
            params,
            gas,
            accounts: BTreeMap::new(),
            queued_digests: HashMap::new(),
            len: 0,
            arrivals: 0,
            height: 0,
            stats: MempoolStats::default(),
        }
    }

    /// Queued transactions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Admission/selection counters.
    pub fn stats(&self) -> &MempoolStats {
        &self.stats
    }

    /// The estimated token cost admission reserves for `tx`: the gas-bound
    /// fee plus op-specific escrows the commit will move (the traffic-fee
    /// escrow for `File_Add`). A heuristic —
    /// rent charged later by `Auto_CheckProof` is deliberately not
    /// front-counted — so commit-time insolvency remains possible; the
    /// engine's in-order execution fails the op then.
    fn admission_cost(&self, tx: &Tx, bound: u64) -> TokenAmount {
        let mut cost = self.gas.to_tokens(bound);
        if let Op::FileAdd { size, value, .. } = &tx.op {
            let cp = self.params.backup_count(*value).unwrap_or(self.params.k);
            cost += TokenAmount(self.params.traffic_fee(*size).0 * cp as u128);
        }
        cost
    }

    /// Marks `nonce` spent after a content rejection: the submitter
    /// cannot un-send it, so leaving it unspent would gap the account's
    /// queue forever (selection only ever drains `next_nonce`). Nonces
    /// below the frontier or occupied by a live transaction are
    /// retransmit duplicates and are left alone.
    fn consume_nonce(&mut self, from: AccountId, nonce: u64) {
        let height = self.height;
        let queue = self.accounts.entry(from).or_default();
        if nonce >= queue.next_nonce && !queue.txs.contains_key(&nonce) {
            queue.tombstones.insert(nonce, height);
            queue.normalize();
        }
    }

    /// Admits one transaction, or says exactly why not.
    ///
    /// `ledger` is the node's current view (the proposer's engine ledger):
    /// the funds check compares the account balance against the estimated
    /// cost of everything it already has queued plus this submission.
    ///
    /// # Errors
    ///
    /// See [`AdmitError`]; every rejection also bumps the matching
    /// [`MempoolStats`] counter.
    pub fn admit(&mut self, tx: Tx, ledger: &Ledger) -> Result<(), AdmitError> {
        if !client_submittable(&tx.op) {
            self.stats.rejected_consensus_only += 1;
            self.consume_nonce(tx.from, tx.nonce);
            return Err(AdmitError::ConsensusOnly);
        }
        if self.len >= self.params.mempool_cap {
            self.stats.rejected_full += 1;
            self.consume_nonce(tx.from, tx.nonce);
            return Err(AdmitError::MempoolFull {
                cap: self.params.mempool_cap,
            });
        }
        let (next_nonce, occupied, pending_cost) = {
            let queue = self.accounts.entry(tx.from).or_default();
            (
                queue.next_nonce,
                queue.txs.contains_key(&tx.nonce),
                queue.pending_cost,
            )
        };
        if tx.nonce < next_nonce {
            self.stats.rejected_nonce += 1;
            return Err(AdmitError::StaleNonce {
                expected_at_least: next_nonce,
                got: tx.nonce,
            });
        }
        if occupied {
            self.stats.rejected_nonce += 1;
            return Err(AdmitError::NonceOccupied { nonce: tx.nonce });
        }
        let digest = tx.op.digest();
        if self.queued_digests.contains_key(&digest) {
            self.stats.rejected_duplicate += 1;
            self.consume_nonce(tx.from, tx.nonce);
            return Err(AdmitError::DuplicateOp);
        }
        let bound = gas_bound(&self.params, &self.gas, &tx.op);
        let cost = self.admission_cost(&tx, bound);
        let required = pending_cost + cost;
        let balance = ledger.balance(tx.from);
        if balance < required {
            self.stats.rejected_funds += 1;
            self.consume_nonce(tx.from, tx.nonce);
            return Err(AdmitError::InsufficientFunds { balance, required });
        }
        let (from, nonce) = (tx.from, tx.nonce);
        let queue = self.accounts.get_mut(&from).expect("entry created");
        queue.pending_cost = required;
        queue.txs.insert(
            nonce,
            QueuedTx {
                tx,
                digest,
                arrival: self.arrivals,
                gas_bound: bound,
                cost,
                admitted_height: self.height,
            },
        );
        self.queued_digests.insert(digest, (from, nonce));
        self.arrivals += 1;
        self.len += 1;
        self.stats.admitted += 1;
        Ok(())
    }

    /// Drains the next block's transactions: highest fee first (ties by
    /// arrival), per-account strictly in nonce order, stopping at the
    /// block gas and op-count limits. An account whose next transaction
    /// does not fit in the remaining gas is skipped for this block — its
    /// later nonces can never jump the queue.
    ///
    /// Returns the selected transactions in selection order together with
    /// their summed gas bound.
    pub fn select_block(&mut self) -> (Vec<Tx>, u64) {
        let mut picked = Vec::new();
        let mut gas_used = 0u64;
        let mut blocked: HashSet<AccountId> = HashSet::new();
        while picked.len() < self.params.block_ops_limit {
            // The best admissible head: each account contributes only its
            // next-nonce transaction.
            let mut best: Option<(TokenAmount, u64, AccountId)> = None;
            for (&account, queue) in &self.accounts {
                if blocked.contains(&account) {
                    continue;
                }
                let Some(head) = queue.txs.get(&queue.next_nonce) else {
                    continue;
                };
                let better = match best {
                    None => true,
                    // Highest fee wins; earliest arrival breaks ties.
                    Some((fee, arrival, _)) => {
                        head.tx.fee > fee || (head.tx.fee == fee && head.arrival < arrival)
                    }
                };
                if better {
                    best = Some((head.tx.fee, head.arrival, account));
                }
            }
            let Some((_, _, account)) = best else { break };
            let queue = self.accounts.get_mut(&account).expect("account exists");
            let head = queue.txs.get(&queue.next_nonce).expect("head exists");
            if gas_used + head.gas_bound > self.params.block_gas_limit {
                // Doesn't fit: the account sits this block out (nonce
                // order forbids selecting a later tx instead).
                blocked.insert(account);
                continue;
            }
            let head = queue.txs.remove(&queue.next_nonce).expect("head exists");
            queue.next_nonce += 1;
            queue.normalize(); // step over nonces burned by rejections
            queue.pending_cost = queue.pending_cost.saturating_sub(head.cost);
            gas_used += head.gas_bound;
            self.queued_digests.remove(&head.digest);
            self.len -= 1;
            self.stats.selected += 1;
            picked.push(head.tx);
        }
        (picked, gas_used)
    }

    /// Highest chain height this pool has observed.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Rejection tombstones currently held across all accounts. Bounded:
    /// any tombstone stalling a frontier is folded within
    /// [`ProtocolParams::tombstone_retention_blocks`] observed blocks.
    pub fn tombstone_count(&self) -> usize {
        self.accounts.values().map(|q| q.tombstones.len()).sum()
    }

    /// Digests of the queued transactions' ops, in no particular order.
    pub fn queued_digests(&self) -> impl Iterator<Item = &Hash256> {
        self.queued_digests.keys()
    }

    /// Follows the chain: call with the op digests and height of every
    /// adopted block (own proposals *and* blocks adopted from other
    /// proposers). It takes digests, not ops: the node's tracker computed
    /// them when it hashed the block, and nothing here needs more.
    ///
    /// Transactions whose op a committed block already carries are dropped
    /// from the pool and their nonces folded into the frontier — without
    /// this, a tx committed through another proposer's pool would sit here
    /// forever, stalling the account's later nonces. Afterwards, frontiers
    /// stalled on items older than
    /// [`ProtocolParams::tombstone_retention_blocks`] step over the aged
    /// gap (see `evict_expired`), which is what bounds the tombstone set.
    pub fn observe_committed(&mut self, digests: &[Hash256], height: u64) {
        self.height = self.height.max(height);
        for digest in digests {
            let Some((from, nonce)) = self.queued_digests.remove(digest) else {
                continue;
            };
            let queue = self.accounts.get_mut(&from).expect("indexed account");
            if let Some(q) = queue.txs.remove(&nonce) {
                queue.pending_cost = queue.pending_cost.saturating_sub(q.cost);
                self.len -= 1;
                self.stats.observed_committed += 1;
            }
            // The nonce is spent on-chain; mark it so the frontier folds
            // past it exactly like a rejection-burned nonce.
            if nonce >= queue.next_nonce {
                queue.tombstones.insert(nonce, self.height);
            }
            queue.normalize();
        }
        self.evict_expired();
    }

    /// Steps stalled account frontiers over items older than
    /// [`ProtocolParams::tombstone_retention_blocks`].
    ///
    /// Eviction only ever *advances* the frontier — a tombstone is folded
    /// by jumping `next_nonce` past it, never by forgetting it while the
    /// frontier is still below — so a burned nonce can never become
    /// admissible again (the PR 5 gap stays closed). Jumping over nonces
    /// this pool never saw un-wedges accounts whose lower nonces were
    /// committed through another proposer's pool or lost by the client.
    fn evict_expired(&mut self) {
        let retention = self.params.tombstone_retention_blocks;
        let height = self.height;
        let (mut expired, mut jumped) = (0u64, 0u64);
        for queue in self.accounts.values_mut() {
            loop {
                queue.normalize();
                if queue.txs.contains_key(&queue.next_nonce) {
                    break; // head selectable — nothing stalls
                }
                // The lowest item above the frontier is what the account
                // is waiting behind: a burned tombstone or a gapped tx.
                let tomb = queue.tombstones.iter().next().map(|(&n, &b)| (n, b, true));
                let gapped = queue
                    .txs
                    .iter()
                    .next()
                    .map(|(&n, q)| (n, q.admitted_height, false));
                let (nonce, born, is_tomb) = match (tomb, gapped) {
                    (None, None) => break, // idle account
                    (Some(t), None) => t,
                    (None, Some(q)) => q,
                    (Some(t), Some(q)) => {
                        if t.0 < q.0 {
                            t
                        } else {
                            q
                        }
                    }
                };
                if height.saturating_sub(born) < retention {
                    break; // still within the retention window
                }
                // Aged out: the nonces in the gap below are never coming.
                // Advance the frontier *to* the item — a tombstone then
                // folds via normalize, a queued tx becomes selectable.
                queue.next_nonce = nonce;
                jumped += 1;
                if is_tomb {
                    expired += 1;
                }
            }
        }
        self.stats.tombstones_expired += expired;
        self.stats.gaps_jumped += jumped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_crypto::sha256;

    const A: AccountId = AccountId(10);
    const B: AccountId = AccountId(11);

    fn pool(cap: usize, gas_limit: u64, ops_limit: usize) -> Mempool {
        let params = ProtocolParams {
            mempool_cap: cap,
            block_gas_limit: gas_limit,
            block_ops_limit: ops_limit,
            ..ProtocolParams::default()
        };
        Mempool::new(params, GasSchedule::default())
    }

    fn rich_ledger() -> Ledger {
        let mut ledger = Ledger::new();
        ledger.mint(A, TokenAmount(1_000_000_000));
        ledger.mint(B, TokenAmount(1_000_000_000));
        ledger
    }

    fn prove_tx(from: AccountId, nonce: u64, fee: u128, tag: u64) -> Tx {
        Tx {
            from,
            nonce,
            fee: TokenAmount(fee),
            op: Op::FileProve {
                caller: from,
                file: fi_core::types::FileId(tag),
                index: 0,
                sector: fi_core::types::SectorId(0),
            },
        }
    }

    #[test]
    fn fee_ordering_with_arrival_tiebreak() {
        let mut pool = pool(100, 1_000_000, 100);
        let ledger = rich_ledger();
        pool.admit(prove_tx(A, 0, 5, 1), &ledger).unwrap();
        pool.admit(prove_tx(B, 0, 9, 2), &ledger).unwrap();
        pool.admit(prove_tx(A, 1, 9, 3), &ledger).unwrap();
        let (block, _) = pool.select_block();
        // B's fee-9 arrived before A's fee-9 could become A's head (A's
        // head is the fee-5 nonce 0), so order is: B(9), then A(5), A(9).
        let tags: Vec<u64> = block
            .iter()
            .map(|t| match t.op {
                Op::FileProve { file, .. } => file.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![2, 1, 3]);
        assert!(pool.is_empty());
    }

    #[test]
    fn nonce_order_never_violated_by_fees() {
        let mut pool = pool(100, 1_000_000, 100);
        let ledger = rich_ledger();
        pool.admit(prove_tx(A, 0, 1, 1), &ledger).unwrap();
        pool.admit(prove_tx(A, 1, 1_000, 2), &ledger).unwrap();
        let (block, _) = pool.select_block();
        let nonces: Vec<u64> = block.iter().map(|t| t.nonce).collect();
        assert_eq!(nonces, vec![0, 1], "high fee cannot jump the nonce queue");
    }

    #[test]
    fn out_of_order_admission_waits_for_the_gap() {
        let mut pool = pool(100, 1_000_000, 100);
        let ledger = rich_ledger();
        // Nonce 1 arrives first (jitter): admissible, but not selectable
        // until nonce 0 shows up.
        pool.admit(prove_tx(A, 1, 5, 2), &ledger).unwrap();
        let (block, _) = pool.select_block();
        assert!(block.is_empty(), "gapped account contributes nothing");
        pool.admit(prove_tx(A, 0, 5, 1), &ledger).unwrap();
        let (block, _) = pool.select_block();
        assert_eq!(block.len(), 2);
        assert_eq!(block[0].nonce, 0);
    }

    #[test]
    fn duplicate_and_replayed_nonces_rejected() {
        let mut pool = pool(100, 1_000_000, 100);
        let ledger = rich_ledger();
        let tx = prove_tx(A, 0, 5, 1);
        pool.admit(tx.clone(), &ledger).unwrap();
        // Same op, different nonce: duplicate digest.
        assert_eq!(
            pool.admit(
                Tx {
                    nonce: 1,
                    ..tx.clone()
                },
                &ledger
            ),
            Err(AdmitError::DuplicateOp)
        );
        // Different op, same nonce: occupied.
        assert_eq!(
            pool.admit(prove_tx(A, 0, 5, 99), &ledger),
            Err(AdmitError::NonceOccupied { nonce: 0 })
        );
        pool.select_block();
        // After selection the nonce is spent — and the duplicate's
        // rejection above burned nonce 1 (the submitter cannot un-send
        // it), so the frontier sits at 2.
        assert_eq!(
            pool.admit(prove_tx(A, 0, 5, 98), &ledger),
            Err(AdmitError::StaleNonce {
                expected_at_least: 2,
                got: 0
            })
        );
        // But the identical op may be resubmitted under the next nonce
        // once no longer queued (recurring proofs work this way).
        pool.admit(Tx { nonce: 2, ..tx }, &ledger).unwrap();
    }

    #[test]
    fn funds_checked_against_whole_queue() {
        let mut pool = pool(100, 1_000_000, 100);
        let mut ledger = Ledger::new();
        let per_tx = {
            let params = ProtocolParams::default();
            let gas = GasSchedule::default();
            let bound = gas_bound(&params, &gas, &prove_tx(A, 0, 1, 0).op);
            gas.to_tokens(bound)
        };
        ledger.mint(A, TokenAmount(per_tx.0 * 2));
        pool.admit(prove_tx(A, 0, 1, 1), &ledger).unwrap();
        pool.admit(prove_tx(A, 1, 1, 2), &ledger).unwrap();
        let err = pool.admit(prove_tx(A, 2, 1, 3), &ledger).unwrap_err();
        assert!(
            matches!(err, AdmitError::InsufficientFunds { .. }),
            "third tx exceeds the balance: {err:?}"
        );
        assert_eq!(pool.stats().rejected_funds, 1);
    }

    #[test]
    fn file_add_admission_counts_traffic_escrow() {
        let mut pool = pool(100, 1_000_000, 100);
        let params = ProtocolParams::default();
        let mut ledger = Ledger::new();
        let tx = Tx {
            from: A,
            nonce: 0,
            fee: TokenAmount(1),
            op: Op::FileAdd {
                client: A,
                size: 10,
                value: params.min_value,
                merkle_root: sha256(b"f"),
            },
        };
        // Gas alone would pass, but the k-replica traffic escrow dominates.
        ledger.mint(A, TokenAmount(100));
        assert!(matches!(
            pool.admit(tx.clone(), &ledger),
            Err(AdmitError::InsufficientFunds { .. })
        ));
        // The rejection burned nonce 0; once funded, the client re-signs
        // under its next nonce.
        ledger.mint(A, TokenAmount(10_000_000));
        pool.admit(Tx { nonce: 1, ..tx }, &ledger).unwrap();
    }

    /// Two `File_Add`s for contents whose Merkle roots differ only in the
    /// last byte are two requests: the op digest binds all 32 bytes, so
    /// the second is not mistaken for a duplicate of the first.
    #[test]
    fn file_adds_differing_in_the_last_root_byte_are_not_duplicates() {
        let mut pool = pool(100, 1_000_000, 100);
        let ledger = rich_ledger();
        let add = |nonce, last: u8| {
            let mut root = [0x5a; 32];
            root[31] = last;
            Tx {
                from: A,
                nonce,
                fee: TokenAmount(1),
                op: Op::FileAdd {
                    client: A,
                    size: 10,
                    value: ProtocolParams::default().min_value,
                    merkle_root: Hash256::from_bytes(root),
                },
            }
        };
        pool.admit(add(0, 1), &ledger).unwrap();
        pool.admit(add(1, 2), &ledger).unwrap();
        assert_eq!(pool.stats().admitted, 2);
        assert_eq!(pool.stats().rejected_duplicate, 0);
        assert_eq!(pool.select_block().0.len(), 2);
    }

    #[test]
    fn block_gas_limit_boundary() {
        let gas = GasSchedule::default();
        let params = ProtocolParams::default();
        let per_tx = gas_bound(&params, &gas, &prove_tx(A, 0, 1, 0).op);
        // Limit fits exactly three proves: the third fills the block to
        // the boundary, the fourth must wait.
        let mut pool = pool(100, per_tx * 3, 100);
        let ledger = rich_ledger();
        for nonce in 0..4 {
            pool.admit(prove_tx(A, nonce, 1, nonce), &ledger).unwrap();
        }
        let (block, used) = pool.select_block();
        assert_eq!(block.len(), 3, "exact fill selected");
        assert_eq!(used, per_tx * 3, "gas bound reached exactly");
        assert_eq!(pool.len(), 1);
        let (rest, _) = pool.select_block();
        assert_eq!(rest.len(), 1, "the overflow tx heads the next block");
    }

    #[test]
    fn gas_blocked_account_does_not_block_others() {
        let gas = GasSchedule::default();
        let params = ProtocolParams::default();
        let prove_cost = gas_bound(&params, &gas, &prove_tx(A, 0, 1, 0).op);
        let add_op = Op::FileAdd {
            client: A,
            size: 1,
            value: params.min_value,
            merkle_root: sha256(b"big"),
        };
        let add_cost = gas_bound(&params, &gas, &add_op);
        assert!(add_cost > prove_cost, "k-replica add dominates a prove");
        // Room for the prove but not the add.
        let mut pool = pool(100, prove_cost + add_cost / 2, 100);
        let ledger = rich_ledger();
        pool.admit(
            Tx {
                from: A,
                nonce: 0,
                fee: TokenAmount(100), // highest fee, but doesn't fit
                op: add_op,
            },
            &ledger,
        )
        .unwrap();
        pool.admit(prove_tx(B, 0, 1, 7), &ledger).unwrap();
        let (block, _) = pool.select_block();
        assert_eq!(block.len(), 1);
        assert_eq!(block[0].from, B, "B's fitting tx selected around A's");
        assert_eq!(pool.len(), 1, "A's oversized tx still queued");
    }

    #[test]
    fn cap_and_consensus_only_rejections() {
        let mut pool = pool(2, 1_000_000, 100);
        let ledger = rich_ledger();
        pool.admit(prove_tx(A, 0, 1, 1), &ledger).unwrap();
        pool.admit(prove_tx(A, 1, 1, 2), &ledger).unwrap();
        assert_eq!(
            pool.admit(prove_tx(A, 2, 1, 3), &ledger),
            Err(AdmitError::MempoolFull { cap: 2 })
        );
        assert_eq!(
            pool.admit(
                Tx {
                    from: A,
                    nonce: 2,
                    fee: TokenAmount(1),
                    op: Op::AdvanceTo { target: 1_000 },
                },
                &ledger
            ),
            Err(AdmitError::ConsensusOnly)
        );
        assert_eq!(pool.stats().rejected_full, 1);
        assert_eq!(pool.stats().rejected_consensus_only, 1);
    }

    #[test]
    fn non_client_ops_rejected_whoever_submits_them() {
        // Fund/Burn/ForceDiscard/FailSector/CorruptSector carry no caller
        // field the engine could check — admitting them would let any
        // client mint tokens or destroy other providers' sectors.
        let mut pool = pool(100, 1_000_000, 100);
        let ledger = rich_ledger();
        let attacks = [
            Op::Fund {
                account: A,
                amount: TokenAmount(u128::MAX / 2),
            },
            Op::Burn {
                account: B,
                amount: TokenAmount(1),
            },
            Op::ForceDiscard {
                file: fi_core::types::FileId(0),
            },
            Op::FailSector {
                sector: fi_core::types::SectorId(0),
            },
            Op::CorruptSector {
                sector: fi_core::types::SectorId(0),
            },
            Op::AdvanceTo { target: 1_000 },
        ];
        for (nonce, op) in attacks.into_iter().enumerate() {
            assert_eq!(
                pool.admit(
                    Tx {
                        from: A,
                        nonce: nonce as u64,
                        fee: TokenAmount(1_000_000),
                        op,
                    },
                    &ledger
                ),
                Err(AdmitError::ConsensusOnly)
            );
        }
        assert_eq!(pool.stats().rejected_consensus_only, 6);
        // The burned nonces do not stall the account: a legitimate tx at
        // the next nonce is admitted and selectable immediately.
        pool.admit(prove_tx(A, 6, 1, 1), &ledger).unwrap();
        let (block, _) = pool.select_block();
        assert_eq!(block.len(), 1);
        assert_eq!(block[0].nonce, 6);
    }

    #[test]
    fn rejection_burned_nonces_never_stall_the_account() {
        let mut pool = pool(100, 1_000_000, 100);
        let mut ledger = Ledger::new();
        let per_tx = {
            let params = ProtocolParams::default();
            let gas = GasSchedule::default();
            gas.to_tokens(gas_bound(&params, &gas, &prove_tx(A, 0, 1, 0).op))
        };
        ledger.mint(A, TokenAmount(per_tx.0 * 2));
        // nonce 0 admitted, nonce 1 rejected (funds), then the account is
        // topped up and nonce 2 admitted: selection must not wait forever
        // on the burned nonce 1.
        pool.admit(prove_tx(A, 0, 1, 1), &ledger).unwrap();
        pool.admit(prove_tx(A, 1, 1, 2), &ledger).unwrap();
        assert!(matches!(
            pool.admit(prove_tx(A, 2, 1, 3), &ledger),
            Err(AdmitError::InsufficientFunds { .. })
        ));
        ledger.mint(A, TokenAmount(per_tx.0 * 4));
        pool.admit(prove_tx(A, 3, 1, 4), &ledger).unwrap();
        let (block, _) = pool.select_block();
        let nonces: Vec<u64> = block.iter().map(|t| t.nonce).collect();
        assert_eq!(nonces, vec![0, 1, 3], "burned nonce 2 stepped over");
        assert!(pool.is_empty());
        // Tombstones ahead of queued txs unblock in admission too: a
        // duplicate burns nonce 4 while nonce 5 is queued behind it.
        pool.admit(prove_tx(A, 5, 1, 6), &ledger).unwrap();
        let dup = prove_tx(A, 4, 1, 6); // same op digest as nonce 5's
        assert_eq!(pool.admit(dup, &ledger), Err(AdmitError::DuplicateOp));
        let (block, _) = pool.select_block();
        let nonces: Vec<u64> = block.iter().map(|t| t.nonce).collect();
        assert_eq!(nonces, vec![5], "queued tx behind the tombstone drains");
    }

    #[test]
    fn ops_limit_bounds_block_size() {
        let mut pool = pool(100, 1_000_000_000, 5);
        let ledger = rich_ledger();
        for nonce in 0..20 {
            pool.admit(prove_tx(A, nonce, 1, nonce), &ledger).unwrap();
        }
        let (block, _) = pool.select_block();
        assert_eq!(block.len(), 5);
        assert_eq!(pool.len(), 15);
    }

    fn pool_with_retention(retention: u64) -> Mempool {
        let params = ProtocolParams {
            mempool_cap: 100,
            block_gas_limit: 1_000_000,
            block_ops_limit: 100,
            tombstone_retention_blocks: retention,
            ..ProtocolParams::default()
        };
        Mempool::new(params, GasSchedule::default())
    }

    #[test]
    fn tombstone_eviction_never_reopens_the_burned_nonce_gap() {
        let mut pool = pool_with_retention(4);
        let ledger = rich_ledger();
        // Queue a tx at nonce 4, then burn nonce 3 with a duplicate of its
        // op: tombstone at 3, queued tx at 4, frontier stalled at 0 behind
        // the never-seen nonces 0..=2.
        pool.admit(prove_tx(A, 4, 1, 9), &ledger).unwrap();
        assert_eq!(
            pool.admit(prove_tx(A, 3, 1, 9), &ledger),
            Err(AdmitError::DuplicateOp)
        );
        assert_eq!(pool.tombstone_count(), 1);
        // Young: within the retention window nothing is evicted and the
        // account contributes nothing.
        pool.observe_committed(&[], 3);
        assert_eq!(pool.tombstone_count(), 1);
        let (block, _) = pool.select_block();
        assert!(block.is_empty(), "gap still within retention");
        // Aged: the frontier steps over the gap and the tombstone — by
        // advancing past them, never by re-opening them.
        pool.observe_committed(&[], 4);
        assert_eq!(pool.tombstone_count(), 0, "stalling tombstone folded");
        assert!(pool.stats().tombstones_expired >= 1);
        let (block, _) = pool.select_block();
        assert_eq!(
            block.iter().map(|t| t.nonce).collect::<Vec<_>>(),
            vec![4],
            "queued tx behind the aged gap drains"
        );
        // The burned nonce can never come back: a fresh submission at the
        // evicted tombstone's nonce (or anywhere in the jumped gap) is
        // stale, not admissible.
        assert_eq!(
            pool.admit(prove_tx(A, 3, 1, 50), &ledger),
            Err(AdmitError::StaleNonce {
                expected_at_least: 5,
                got: 3
            })
        );
        assert_eq!(
            pool.admit(prove_tx(A, 0, 1, 51), &ledger),
            Err(AdmitError::StaleNonce {
                expected_at_least: 5,
                got: 0
            })
        );
    }

    #[test]
    fn observe_committed_drops_foreign_committed_txs() {
        let mut pool = pool_with_retention(32);
        let ledger = rich_ledger();
        let tx0 = prove_tx(A, 0, 1, 1);
        let tx1 = prove_tx(A, 1, 1, 2);
        pool.admit(tx0.clone(), &ledger).unwrap();
        pool.admit(tx1, &ledger).unwrap();
        // Another proposer's block carries tx0's op: the pool drops it and
        // advances the frontier so nonce 1 is immediately selectable.
        pool.observe_committed(&[tx0.op.digest()], 1);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.stats().observed_committed, 1);
        assert_eq!(pool.height(), 1);
        let (block, _) = pool.select_block();
        assert_eq!(block.iter().map(|t| t.nonce).collect::<Vec<_>>(), vec![1]);
        // The committed tx cannot be replayed: its digest is free again
        // (recurring proofs re-use ops) but the nonce is spent.
        assert_eq!(
            pool.admit(tx0, &ledger),
            Err(AdmitError::StaleNonce {
                expected_at_least: 2,
                got: 0
            })
        );
    }

    #[test]
    fn aged_gap_jump_unwedges_foreign_nonce_holes() {
        let mut pool = pool_with_retention(4);
        let ledger = rich_ledger();
        // A's nonces 0 and 1 went through another validator's pool; we
        // only ever saw nonce 2. Without eviction it would stall forever.
        pool.admit(prove_tx(A, 2, 1, 7), &ledger).unwrap();
        pool.observe_committed(&[], 3);
        let (block, _) = pool.select_block();
        assert!(block.is_empty(), "hole younger than retention");
        pool.observe_committed(&[], 4);
        assert!(pool.stats().gaps_jumped >= 1);
        let (block, _) = pool.select_block();
        assert_eq!(block.iter().map(|t| t.nonce).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn selection_is_deterministic() {
        let build = || {
            let mut pool = pool(100, 1_000_000, 100);
            let ledger = rich_ledger();
            for nonce in 0..10 {
                pool.admit(prove_tx(A, nonce, (nonce % 3) as u128, nonce), &ledger)
                    .unwrap();
                pool.admit(
                    prove_tx(B, nonce, (nonce % 4) as u128, 100 + nonce),
                    &ledger,
                )
                .unwrap();
            }
            let (block, gas) = pool.select_block();
            (block, gas)
        };
        assert_eq!(build(), build());
    }
}
