//! The workload driver: a chain-watching client/provider wallet.
//!
//! A [`ClientDriver`] keeps a full [`ChainTracker`] replica fed by the
//! validators' gossiped blocks — forks, equivocation bans and reorgs
//! included — and derives its next transactions from the adopted head,
//! exactly the way the `fi-sim` scenario harness derives provider actions
//! from engine state: pending replica transfers become `File_Confirm`
//! submissions ([`pending_confirm_candidates`]), held replicas become
//! periodic `File_Prove`s ([`held_replica_candidates`]), and the client
//! account mixes in `File_Add`s, gas-charged `File_Get` reads and
//! occasional discards. Submissions round-robin across the validator set over the
//! lossy link with bounded retransmit; whichever validator admits a tx
//! forwards it to the slot's scheduled leader, so blocks are realistic
//! mixes of confirms, proofs, gets and discards plus `File_Add`s and
//! `AdvanceTo`s no matter who proposes.
//!
//! Two kinds of deliberately awkward traffic fall out: the replica view
//! lags the chain, so the driver re-submits already-committed confirms
//! (rejected as duplicates or failing at commit); and providers listed in
//! [`WorkloadConfig::lazy_providers`] never submit proofs, so their
//! replicas miss audits and get slashed — the §V lazy-provider scenario,
//! driven through the real pipeline.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use fi_chain::account::{AccountId, TokenAmount};
use fi_core::engine::{held_replica_candidates, pending_confirm_candidates, Engine, StateView};
use fi_core::ops::Op;
use fi_core::types::SectorId;
use fi_crypto::{sha256, DetRng, Hash256};
use fi_net::sim::SimTime;
use fi_net::world::{Ctx, NodeIdx, Process, Retransmitter, RetryEvent};

use crate::chain::{ChainTracker, InsertOutcome};
use crate::node::{NodeMsg, RETX_TAG_BASE, TAG_SYNC};
use crate::schedule::ProposerSchedule;

/// Shape of the generated workload.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Submit a `File_Add` every this many slots (0 disables adds).
    pub add_every_slots: u64,
    /// Stop adding after this many files.
    pub max_files: u64,
    /// Size of each added file.
    pub file_size: u64,
    /// Sweep `File_Prove`s every this many slots (match the proof cycle).
    pub prove_every_slots: u64,
    /// Per-slot probability of a `File_Get` on a random live file.
    pub get_prob: f64,
    /// Per-slot probability of discarding a random live file.
    pub discard_prob: f64,
    /// Provider accounts that never submit proofs: their held replicas
    /// fail audits and are force-discarded — the paper's lazy providers.
    pub lazy_providers: Vec<AccountId>,
}

/// Slots before the driver may re-submit an identical op (see
/// [`ClientDriver`]'s dedup field): longer than the view lag plus a
/// round-trip, shorter than a proof cycle so recurring proofs re-admit.
pub const DEDUP_WINDOW_SLOTS: u64 = 8;

/// Distinct validators a submission is tried against before the driver
/// gives up on it (each try spends a full retransmit budget). Covers the
/// whole validator set of the chaos scenarios, so a submission survives
/// any single crash-or-partition pattern that leaves one reachable.
pub const SUBMIT_FAILOVERS: u32 = 5;

/// Retransmit attempts per validator before failing over. Deliberately
/// short: an unreachable home validator should be abandoned within a few
/// slots, because confirms and proofs are deadline-sensitive on-chain.
pub const SUBMIT_ATTEMPTS: u32 = 4;

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            add_every_slots: 2,
            max_files: 40,
            file_size: 4,
            prove_every_slots: 10,
            get_prob: 0.3,
            discard_prob: 0.02,
            lazy_providers: Vec::new(),
        }
    }
}

/// What the driver submitted and saw, readable after a run.
#[derive(Debug, Default)]
pub struct ClientReport {
    /// Transactions submitted (first transmissions, not retries).
    pub txs_submitted: u64,
    /// Submissions whose retransmit budget ran out unacknowledged.
    pub txs_given_up: u64,
    /// Blocks attached to the replica chain view.
    pub blocks_applied: u64,
    /// Reorgs the replica view went through.
    pub reorgs_observed: u64,
    /// Final replica head height.
    pub final_height: u64,
    /// Final replica head block hash.
    pub final_head: Option<Hash256>,
    /// Final replica state root.
    pub final_state_root: Option<Hash256>,
}

/// The chain-watching workload generator.
pub struct ClientDriver {
    tracker: ChainTracker,
    validators: Vec<NodeIdx>,
    sync_every: SimTime,
    retx: Retransmitter<NodeMsg>,
    /// Provider account owning each sector (from the shared genesis).
    sector_owner: HashMap<SectorId, AccountId>,
    client: AccountId,
    lazy: HashSet<AccountId>,
    nonces: HashMap<AccountId, u64>,
    /// Op digests submitted recently (digest → submission slot). A
    /// duplicate submission is rejected at admission and spends its nonce
    /// as a mempool tombstone — harmless for liveness, but pure waste —
    /// so the driver only re-submits an identical op after
    /// [`DEDUP_WINDOW_SLOTS`], by which time its earlier copy has either
    /// committed (and left every pool) or been dropped.
    recent: HashMap<Hash256, u64>,
    /// In-flight submissions by retransmit key: the transaction and how
    /// many validators have been tried, so an exhausted submission fails
    /// over to the next validator instead of dying with an unreachable
    /// one (crashed or partitioned away).
    in_flight: HashMap<u64, (crate::mempool::Tx, u32)>,
    next_key: u64,
    /// Sticky home validator per account (index into `validators`) —
    /// rotated on retransmit exhaustion (see [`SUBMIT_FAILOVERS`]).
    homes: HashMap<AccountId, usize>,
    sync_cursor: usize,
    /// Last time a `BlockRequest` went out — at most one per
    /// `sync_every`, since each can trigger a batch push whose orphans
    /// would otherwise trigger more requests.
    last_request: SimTime,
    last_acted_slot: u64,
    rng: DetRng,
    workload: WorkloadConfig,
    files_added: u64,
    report: Rc<RefCell<ClientReport>>,
}

impl ClientDriver {
    /// A driver watching every validator in `schedule`, acting for
    /// `client` and every provider in `sector_owner`, over its own
    /// `genesis` replica.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        genesis: Engine,
        schedule: ProposerSchedule,
        sector_owner: HashMap<SectorId, AccountId>,
        client: AccountId,
        seed: u64,
        sync_every: SimTime,
        workload: WorkloadConfig,
        report: Rc<RefCell<ClientReport>>,
    ) -> Self {
        let interval = genesis.params().block_interval;
        let validators = schedule.validators().to_vec();
        let lazy = workload.lazy_providers.iter().copied().collect();
        ClientDriver {
            tracker: ChainTracker::new(genesis, schedule),
            validators,
            sync_every: sync_every.max(2),
            retx: Retransmitter::new(interval.max(2), SUBMIT_ATTEMPTS, RETX_TAG_BASE),
            sector_owner,
            client,
            lazy,
            nonces: HashMap::new(),
            recent: HashMap::new(),
            in_flight: HashMap::new(),
            next_key: 1,
            homes: HashMap::new(),
            sync_cursor: 0,
            last_request: 0,
            last_acted_slot: 0,
            rng: DetRng::from_seed_label(seed, "fi-node/client"),
            workload,
            files_added: 0,
            report,
        }
    }

    /// Submits `op` unless an identical one is still inside the dedup
    /// window (a duplicate would be rejected at admission, wasting the
    /// nonce — see the `recent` field). Each account has a sticky *home*
    /// validator so its nonce stream arrives contiguously at one pool
    /// (the admitting validator forwards to the others); scattering the
    /// stream round-robin would leave a gap in every pool whenever one
    /// forward is lost, stalling the account behind gap-aging timeouts.
    fn submit(&mut self, ctx: &mut Ctx<'_, NodeMsg>, slot: u64, from: AccountId, op: Op) {
        let digest = op.digest();
        if let Some(&at) = self.recent.get(&digest) {
            if slot.saturating_sub(at) < DEDUP_WINDOW_SLOTS {
                return;
            }
        }
        self.recent.insert(digest, slot);
        let nonce = self.nonces.entry(from).or_insert(0);
        let tx = crate::mempool::Tx {
            from,
            nonce: *nonce,
            fee: TokenAmount(1 + self.rng.below(1_000) as u128),
            op,
        };
        *nonce += 1;
        self.report.borrow_mut().txs_submitted += 1;
        self.send_submission(ctx, tx, 0);
    }

    /// Sends (or re-sends, on failover) a submission to the sender
    /// account's current home validator, tracking it for exhaustion
    /// handling.
    fn send_submission(&mut self, ctx: &mut Ctx<'_, NodeMsg>, tx: crate::mempool::Tx, tries: u32) {
        let key = self.next_key;
        self.next_key += 1;
        let home = *self
            .homes
            .entry(tx.from)
            .or_insert(tx.from.0 as usize % self.validators.len());
        let target = self.validators[home % self.validators.len()];
        let bytes = tx.wire_bytes();
        self.in_flight.insert(key, (tx.clone(), tries));
        self.retx
            .send(ctx, target, key, NodeMsg::SubmitTx { key, tx }, bytes);
    }

    /// Derives this slot's submissions from the freshly-adopted head.
    fn act(&mut self, ctx: &mut Ctx<'_, NodeMsg>, slot: u64) {
        // New files from the client account.
        if self.workload.add_every_slots > 0
            && slot.is_multiple_of(self.workload.add_every_slots)
            && self.files_added < self.workload.max_files
        {
            self.files_added += 1;
            let op = Op::FileAdd {
                client: self.client,
                size: self.workload.file_size,
                value: self.tracker.engine().params().min_value,
                merkle_root: sha256(format!("node-file-{slot}-{}", self.files_added).as_bytes()),
            };
            self.submit(ctx, slot, self.client, op);
        }
        // Confirm every transfer the replica still shows pending. Some of
        // these are already committed on-chain (the view lags); those fail
        // admission as duplicates or fail at commit — realistic traffic.
        let confirms: Vec<(AccountId, Op)> = pending_confirm_candidates(self.tracker.engine())
            .into_iter()
            .filter_map(|(f, i, s)| {
                let owner = *self.sector_owner.get(&s)?;
                Some((
                    owner,
                    Op::FileConfirm {
                        caller: owner,
                        file: f,
                        index: i,
                        sector: s,
                    },
                ))
            })
            .collect();
        for (owner, op) in confirms {
            self.submit(ctx, slot, owner, op);
        }
        // Periodic proofs for everything held — except by lazy providers,
        // whose silence the audit cycle punishes.
        if self.workload.prove_every_slots > 0
            && slot.is_multiple_of(self.workload.prove_every_slots)
        {
            let proofs: Vec<(AccountId, Op)> = held_replica_candidates(self.tracker.engine())
                .into_iter()
                .filter_map(|(f, i, s)| {
                    let owner = *self.sector_owner.get(&s)?;
                    if self.lazy.contains(&owner) {
                        return None;
                    }
                    Some((
                        owner,
                        Op::FileProve {
                            caller: owner,
                            file: f,
                            index: i,
                            sector: s,
                        },
                    ))
                })
                .collect();
            for (owner, op) in proofs {
                self.submit(ctx, slot, owner, op);
            }
        }
        // Occasional reads and discards on random live files.
        let live = self.tracker.engine().file_ids();
        if !live.is_empty() {
            if self.rng.bernoulli(self.workload.get_prob) {
                let file = live[self.rng.index(live.len())];
                self.submit(
                    ctx,
                    slot,
                    self.client,
                    Op::FileGet {
                        caller: self.client,
                        file,
                    },
                );
            }
            if live.len() > 4 && self.rng.bernoulli(self.workload.discard_prob) {
                let file = live[self.rng.index(live.len())];
                self.submit(
                    ctx,
                    slot,
                    self.client,
                    Op::FileDiscard {
                        caller: self.client,
                        file,
                    },
                );
            }
        }
    }

    /// Asks `peer` for the blocks the replica is missing, rate-limited to
    /// one request per sync interval. Like the validator's, the request
    /// carries a best-chain locator so the peer serves from just above the
    /// common ancestor even when the canonical chain diverges below this
    /// replica's own height (post-partition reorgs).
    fn request_blocks(&mut self, ctx: &mut Ctx<'_, NodeMsg>, peer: NodeIdx) {
        let now = ctx.now();
        if now < self.last_request + self.sync_every {
            return;
        }
        self.last_request = now;
        let locator = self.tracker.locator();
        let bytes = 24 + 32 * locator.len() as u64;
        ctx.send(peer, NodeMsg::BlockRequest { locator }, bytes);
    }

    /// Acts once per newly-adopted head slot (reorgs to a sibling of the
    /// same or lower slot change state but trigger no new workload — the
    /// next taller head does).
    fn act_if_advanced(&mut self, ctx: &mut Ctx<'_, NodeMsg>) {
        let head_slot = self.tracker.head_slot();
        if head_slot <= self.last_acted_slot {
            return;
        }
        self.last_acted_slot = head_slot;
        // Bound the dedup memory: anything past the window can go.
        self.recent
            .retain(|_, &mut at| head_slot.saturating_sub(at) < DEDUP_WINDOW_SLOTS);
        self.act(ctx, head_slot);
    }

    /// The replica engine at the adopted head, for post-run inspection.
    pub fn replica(&self) -> &Engine {
        self.tracker.engine()
    }

    /// The full chain view, for post-run inspection.
    pub fn tracker(&self) -> &ChainTracker {
        &self.tracker
    }
}

impl Process<NodeMsg> for ClientDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NodeMsg>) {
        ctx.set_timer(self.sync_every, TAG_SYNC);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NodeMsg>, from: NodeIdx, msg: NodeMsg) {
        match msg {
            NodeMsg::Block { key, block } => {
                if key != 0 {
                    ctx.send(from, NodeMsg::BlockAck { key }, 24);
                }
                let reorgs_before = self.tracker.reorgs();
                match self.tracker.insert(block) {
                    InsertOutcome::Attached { .. } => {
                        let mut report = self.report.borrow_mut();
                        report.blocks_applied += 1;
                        report.reorgs_observed += self.tracker.reorgs() - reorgs_before;
                        report.final_height = self.tracker.head_height();
                        report.final_head = Some(self.tracker.head());
                        report.final_state_root = Some(self.tracker.engine().state_root());
                        drop(report);
                        self.act_if_advanced(ctx);
                    }
                    InsertOutcome::Orphaned { .. } => {
                        self.request_blocks(ctx, from);
                    }
                    _ => {}
                }
            }
            NodeMsg::TxAck { key } => {
                self.retx.ack(key);
                self.in_flight.remove(&key);
            }
            NodeMsg::Status { height, .. } if height > self.tracker.head_height() => {
                self.request_blocks(ctx, from);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NodeMsg>, tag: u64) {
        if tag == TAG_SYNC {
            let target = self.validators[self.sync_cursor % self.validators.len()];
            self.sync_cursor += 1;
            ctx.send(
                target,
                NodeMsg::Status {
                    height: self.tracker.head_height(),
                    head: self.tracker.head(),
                },
                48,
            );
            ctx.set_timer(self.sync_every, TAG_SYNC);
            return;
        }
        if let Some(RetryEvent::Exhausted { key, .. }) = self.retx.handle_timer(ctx, tag) {
            // The targeted validator stayed unreachable through the whole
            // retry budget (crashed or partitioned away): fail over to
            // the next one rather than losing the transaction — a dropped
            // proof submission can cost an honest provider its sector.
            match self.in_flight.remove(&key) {
                Some((tx, tries)) if tries + 1 < SUBMIT_FAILOVERS => {
                    // Move the whole account to the next validator, so
                    // its subsequent submissions don't queue up behind
                    // the same unreachable home.
                    let n = self.validators.len();
                    let home = self.homes.entry(tx.from).or_insert(tx.from.0 as usize % n);
                    *home = (*home + 1) % n;
                    self.send_submission(ctx, tx, tries + 1);
                }
                _ => {
                    self.report.borrow_mut().txs_given_up += 1;
                }
            }
        }
    }
}
