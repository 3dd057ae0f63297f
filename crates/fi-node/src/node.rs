//! The unified node role: beacon-rotated proposer, verifying replica, and
//! anti-entropy peer in one process.
//!
//! PR 5's fixed proposer/follower split is gone. Every [`Validator`] runs
//! the same code:
//!
//! * **rotation** — the leader for a slot is position 0 of
//!   [`ProposerSchedule::order`]; fallback rank `r` arms its proposal
//!   timer `r` skip-timeouts later and only speaks if the chain has not
//!   filled the slot yet. A crashed or partitioned leader therefore costs
//!   one timeout, not liveness (DESIGN.md §12);
//! * **fork-choice** — every received block goes through
//!   [`ChainTracker::insert`]: verify-then-prefer, schedule-priority
//!   tie-breaks, equivocation conviction. When conviction produces new
//!   [`EquivocationEvidence`](crate::chain::EquivocationEvidence), the
//!   convicting node gossips the block pair so every peer reaches the
//!   same verdict;
//! * **mempool** — admitted submissions are forwarded once to the other
//!   validators, so whichever of them leads an upcoming slot can include
//!   the transaction ([`Mempool::observe_committed`] reconciles every
//!   pool with whatever branch wins);
//! * **anti-entropy** — a periodic [`NodeMsg::Status`] exchange pushes
//!   best-chain blocks to lagging peers, which is what re-converges nodes
//!   after crashes, partitions, and lost broadcasts;
//! * **cold join** — a node started with [`NodeStart::ColdJoin`] syncs a
//!   snapshot + checkpoint from a validator
//!   ([`Engine::snapshot_restore`] + [`Engine::replay_from`]) and then
//!   behaves like any other replica anchored at the sync point.
//!
//! A node outside the validator set (the schedule never ranks it) is a
//! **watcher**: same process, it just never proposes — the cluster uses
//! one as the cold joiner and the workload driver embeds the same tracker.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use fi_chain::gas::GasSchedule;
use fi_core::engine::{Checkpoint, Engine, StateView};
use fi_core::ops::{Op, OpRecord};
use fi_crypto::Hash256;
use fi_net::sim::SimTime;
use fi_net::world::{Ctx, NodeIdx, Process, Retransmitter, RetryEvent};

use crate::chain::{ChainTracker, InsertOutcome, SealedBlock, TrackerWork};
use crate::mempool::{Mempool, Tx};
use crate::schedule::ProposerSchedule;

/// Timer tag: periodic anti-entropy status exchange.
pub const TAG_SYNC: u64 = 1;
/// Timer tag: a cold-start node's wake-up.
pub const TAG_WAKE: u64 = 2;
/// Timer tag: a joining node re-sends its unanswered `JoinRequest`.
pub const TAG_JOIN_RETRY: u64 = 3;
/// First timer tag of the per-slot proposal alarms: slot `s` fires tag
/// `TAG_SLOT_BASE + s`.
pub const TAG_SLOT_BASE: u64 = 1 << 16;
/// First timer tag owned by a node's [`Retransmitter`]; all protocol tags
/// stay below it.
pub const RETX_TAG_BASE: u64 = 1 << 48;

/// Blocks pushed per anti-entropy exchange (the next exchange continues).
pub(crate) const SYNC_BATCH: usize = 16;

/// Consecutive orphaned receipts after which a cold joiner concludes its
/// synced anchor fell off the canonical chain and re-joins from scratch
/// (a snapshot is served at the *current* head, which a later reorg can
/// abandon — genesis nodes never wedge this way, their anchor is
/// genesis).
const STUCK_ORPHANS: u32 = 32;

/// Every message of the node protocol.
#[derive(Debug, Clone)]
pub enum NodeMsg {
    /// Client → validator: submit a transaction. `key` is the client's
    /// retransmit key, echoed in the ack.
    SubmitTx {
        /// Sender-chosen retransmit key.
        key: u64,
        /// The transaction.
        tx: Tx,
    },
    /// Validator → client: the submission was received (admitted *or*
    /// rejected — the ack only stops the client's retransmit timer).
    TxAck {
        /// The submission's key.
        key: u64,
    },
    /// Validator → validator: an admitted submission, forwarded once so
    /// upcoming leaders hold it too. Never acked, never re-forwarded.
    ForwardTx {
        /// The transaction.
        tx: Tx,
    },
    /// A sealed block. `key != 0` is a retransmitted proposal broadcast
    /// expecting a [`NodeMsg::BlockAck`]; `key == 0` is single-shot
    /// gossip/anti-entropy.
    Block {
        /// Retransmit key, 0 for unacked pushes.
        key: u64,
        /// The block.
        block: SealedBlock,
    },
    /// Block received (possibly a duplicate).
    BlockAck {
        /// The acknowledged key.
        key: u64,
    },
    /// Anti-entropy: my best chain is `height` ending at block `head`.
    Status {
        /// Sender's head height.
        height: u64,
        /// Sender's head block hash.
        head: Hash256,
    },
    /// Push me your best-chain blocks above the highest locator entry we
    /// share (the requester's divergence point from your perspective).
    BlockRequest {
        /// The requester's best-chain locator, newest first — dense near
        /// its head, exponentially sparser toward the anchor.
        locator: Vec<Hash256>,
    },
    /// Cold-start node → validator: send me your state.
    JoinRequest,
    /// Validator → joiner: durable snapshot bytes, the checkpoint they
    /// commit to, a (possibly empty) op-log suffix, and the block-tree
    /// anchor coordinates of the synced head.
    SnapshotReply {
        /// `Engine::snapshot_save` bytes at the checkpoint.
        snapshot: Vec<u8>,
        /// The checkpoint the snapshot was taken at.
        checkpoint: Checkpoint,
        /// Ops applied after the checkpoint.
        suffix: Vec<OpRecord>,
        /// Hash of the head block the state corresponds to.
        head: Hash256,
        /// Height of that head.
        height: u64,
        /// Slot of that head.
        slot: u64,
    },
}

/// Node-local consensus timing (shared by every node of a cluster; not
/// part of [`fi_core::params::ProtocolParams`] because it never touches
/// state — only when nodes speak).
#[derive(Debug, Clone)]
pub struct ConsensusConfig {
    /// Virtual ticks per slot; slot `s` opens at `s × block_interval`
    /// and its block's `AdvanceTo` barrier targets exactly that time.
    pub block_interval: SimTime,
    /// Extra wait per fallback rank before it proposes into a slot the
    /// scheduled leader left empty.
    pub skip_timeout: SimTime,
    /// Ticks between anti-entropy status exchanges.
    pub sync_every: SimTime,
    /// Slots after which validators stop proposing (sync continues).
    pub slots_total: u64,
    /// Keep the full op log on the head engine (disables the join-serving
    /// checkpoint truncation side effect mattering — used by the replay
    /// test).
    pub record_op_log: bool,
    /// Ticks between join-request retries while syncing.
    pub join_retry: SimTime,
}

impl ConsensusConfig {
    /// Timing defaults matched to [`ClusterConfig::small`]
    /// (interval 30, one-third skip timeout, sync twice per slot).
    ///
    /// [`ClusterConfig::small`]: crate::cluster::ClusterConfig::small
    pub fn with_interval(block_interval: SimTime, slots_total: u64) -> Self {
        ConsensusConfig {
            block_interval,
            skip_timeout: (block_interval / 3).max(2),
            sync_every: (block_interval / 2).max(2),
            slots_total,
            record_op_log: false,
            join_retry: 20,
        }
    }
}

/// How a node comes to life.
pub enum NodeStart {
    /// Online from genesis with its own copy of the genesis engine.
    Genesis(Box<Engine>),
    /// Offline until `wake_at`, then syncs from a validator's snapshot.
    ColdJoin {
        /// Virtual time at which the node boots and requests state.
        wake_at: SimTime,
    },
}

/// What a node did, readable after a run (the world owns the boxed
/// processes, so results surface through shared handles).
#[derive(Debug, Default)]
pub struct ValidatorReport {
    /// Blocks this node sealed as a slot leader or fallback.
    pub blocks_proposed: u64,
    /// Head adoption log: `(time, height, head block hash)` every time
    /// fork-choice moved this node's head — the raw series the
    /// recovery-latency metrics are computed from.
    pub heads: Vec<(SimTime, u64, Hash256)>,
    /// Head switches that abandoned previously-adopted blocks.
    pub reorgs: u64,
    /// Equivocation convictions this node recorded.
    pub equivocations_seen: u64,
    /// Blocks banned because replay contradicted their claimed roots.
    pub verify_failures: u64,
    /// Proposal broadcasts whose retransmit budget ran out unacked.
    pub blocks_given_up: u64,
    /// Join requests answered with a snapshot.
    pub joins_served: u64,
    /// Snapshots taken (on-demand, serving joins).
    pub snapshots_taken: u64,
    /// Crash/restart cycles survived.
    pub restarts: u64,
    /// Consensus-side injections this node included in its own proposals
    /// (a losing sibling's inclusions count too; cluster-wide the sum is
    /// therefore ≥ the injection list length once all are committed).
    pub injections_included: u64,
    /// For a cold joiner: the height its snapshot sync covered.
    pub joined_at_height: Option<u64>,
    /// Final head height.
    pub final_height: u64,
    /// Final head slot.
    pub final_slot: u64,
    /// Final head block hash.
    pub final_head: Option<Hash256>,
    /// `(height, hash)` of every block on the final adopted chain above
    /// the node's anchor, oldest first — the canonical spine
    /// [`crate::chaos::heights_to_reconvergence`] measures against.
    /// Kept current on every head change by truncating at the fork point
    /// and appending the adopted blocks; it is also the chain the node's
    /// mempool has been reconciled with.
    pub final_chain: Vec<(u64, Hash256)>,
    /// Final engine state root.
    pub final_state_root: Option<Hash256>,
    /// Live files in the final engine state (the §V scenarios assert the
    /// workload + fault injections actually shaped state).
    pub final_files: u64,
    /// Receipt root of the final sealed engine block.
    pub final_receipt_root: Option<Hash256>,
    /// Batches whose hashing pass the head engine fanned out.
    /// Execution-strategy counter: replaying followers may
    /// report different values than the proposer without any consensus
    /// divergence (see `EngineStats::consensus`).
    pub batches_staged_parallel: u64,
    /// Full op log of the head engine (only when
    /// [`ConsensusConfig::record_op_log`]) — like `final_chain`, moved by
    /// truncate-at-fork + append on every head change.
    pub final_op_log: Vec<OpRecord>,
    /// The node's mempool counters (updated on every head change).
    pub final_mempool: Option<crate::mempool::MempoolStats>,
    /// What the node's chain tracker has done so far, as counts
    /// ([`ChainTracker::work`]).
    pub work: TrackerWork,
    /// Protocol events buffered on the head engine. Zero: the tracker
    /// drains them after every block it applies.
    pub engine_events_held: u64,
}

/// The unified node process. See the module docs.
pub struct Validator {
    me: NodeIdx,
    schedule: ProposerSchedule,
    cfg: ConsensusConfig,
    /// Absent until a cold joiner has synced.
    tracker: Option<ChainTracker>,
    mempool: Option<Mempool>,
    /// Peers proposals are broadcast to (with retransmit + ack).
    broadcast: Vec<NodeIdx>,
    /// Peers the periodic status exchange rotates over.
    sync_targets: Vec<NodeIdx>,
    /// Consensus-side op injections: `(slot, op, op digest)` — included by
    /// whichever node leads the first slot `>= slot` (deduped through the
    /// chain by digest).
    injections: Vec<(u64, Op, Hash256)>,
    retx: Retransmitter<NodeMsg>,
    next_key: u64,
    proposed_slots: HashSet<u64>,
    sync_cursor: usize,
    join_cursor: usize,
    evidence_gossiped: usize,
    /// Last time a `BlockRequest` went out — at most one per
    /// `sync_every`, or orphaned push batches would each trigger a
    /// request that triggers a bigger push batch (a message explosion).
    last_block_request: SimTime,
    /// Consecutive orphaned receipts (see [`STUCK_ORPHANS`]).
    orphan_streak: u32,
    cold_joiner: bool,
    /// Whether the periodic `TAG_SYNC` chain is armed (it survives a
    /// tracker reset but not a crash).
    sync_armed: bool,
    /// Last head recorded in the report (dedup for the adoption log).
    last_head: Option<Hash256>,
    start: Option<NodeStart>,
    report: Rc<RefCell<ValidatorReport>>,
}

impl Validator {
    /// A node `me` over `schedule`. `broadcast` receives its sealed
    /// proposals (retransmitted until acked); `sync_targets` are the
    /// peers its anti-entropy rotates over (and, for a cold joiner, the
    /// validators it requests a snapshot from).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: NodeIdx,
        start: NodeStart,
        schedule: ProposerSchedule,
        cfg: ConsensusConfig,
        broadcast: Vec<NodeIdx>,
        sync_targets: Vec<NodeIdx>,
        injections: Vec<(u64, Op)>,
        report: Rc<RefCell<ValidatorReport>>,
    ) -> Self {
        let (tracker, mempool) = match &start {
            NodeStart::Genesis(engine) => (
                Some(ChainTracker::new((**engine).clone(), schedule.clone())),
                Some(Mempool::new(
                    engine.params().clone(),
                    GasSchedule::default(),
                )),
            ),
            NodeStart::ColdJoin { .. } => (None, None),
        };
        let cold_joiner = matches!(&start, NodeStart::ColdJoin { .. });
        let retry = cfg.skip_timeout.max(2);
        Validator {
            me,
            schedule,
            cfg,
            tracker,
            mempool,
            broadcast,
            sync_targets,
            injections: injections
                .into_iter()
                .map(|(slot, op)| {
                    let digest = op.digest();
                    (slot, op, digest)
                })
                .collect(),
            retx: Retransmitter::new(retry, 24, RETX_TAG_BASE),
            next_key: 1,
            proposed_slots: HashSet::new(),
            sync_cursor: 0,
            join_cursor: 0,
            evidence_gossiped: 0,
            last_block_request: 0,
            orphan_streak: 0,
            cold_joiner,
            sync_armed: false,
            last_head: None,
            start: Some(start),
            report,
        }
    }

    /// The node's verified chain view (absent until a cold joiner has
    /// synced).
    pub fn tracker(&self) -> Option<&ChainTracker> {
        self.tracker.as_ref()
    }

    /// Arms the proposal alarm for every future slot where the schedule
    /// ranks this node: slot `s` at rank `r` fires at
    /// `s × interval + r × skip_timeout`.
    fn arm_slot_timers(&mut self, ctx: &mut Ctx<'_, NodeMsg>) {
        let now = ctx.now();
        for slot in 1..=self.cfg.slots_total {
            let Some(rank) = self.schedule.rank_of(slot, self.me) else {
                continue;
            };
            let at = slot * self.cfg.block_interval + rank as u64 * self.cfg.skip_timeout;
            if at > now {
                ctx.set_timer(at - now, TAG_SLOT_BASE + slot);
            }
        }
    }

    /// Slot alarm: propose iff the chain has not filled the slot and this
    /// node has not already sealed it on an abandoned branch (sealing it
    /// again would be equivocation).
    fn maybe_propose(&mut self, ctx: &mut Ctx<'_, NodeMsg>, slot: u64) {
        let Some(tracker) = self.tracker.as_mut() else {
            return;
        };
        if self.proposed_slots.contains(&slot) || tracker.head_slot() >= slot {
            return;
        }
        let Some(rank) = self.schedule.rank_of(slot, self.me) else {
            return;
        };
        let mempool = self.mempool.as_mut().expect("tracker implies mempool");
        let mut ops: Vec<Op> = Vec::new();
        // Due consensus-side injections, deduped through the adopted
        // chain (a rotating peer may have injected them already).
        let mut injected = 0;
        for (due_slot, op, digest) in &self.injections {
            if *due_slot <= slot && !tracker.op_committed(digest) {
                ops.push(op.clone());
                injected += 1;
            }
        }
        self.report.borrow_mut().injections_included += injected;
        let (txs, _gas) = mempool.select_block();
        ops.extend(txs.into_iter().map(|tx| tx.op));
        ops.push(Op::AdvanceTo {
            target: slot * self.cfg.block_interval,
        });
        let block = tracker.seal_block(slot, rank as u32, self.me, ops);
        self.proposed_slots.insert(slot);
        self.report.borrow_mut().blocks_proposed += 1;
        self.after_head_change(ctx);
        let bytes = block.wire_bytes();
        for &peer in &self.broadcast.clone() {
            let key = self.next_key;
            self.next_key += 1;
            self.retx.send(
                ctx,
                peer,
                key,
                NodeMsg::Block {
                    key,
                    block: block.clone(),
                },
                bytes,
            );
        }
    }

    /// Reconciles the mempool and the report after fork-choice possibly
    /// moved the head. Idempotent: does nothing when the head is
    /// unchanged since the last call. Everything here is a delta from the
    /// fork point — `report.final_chain` is the chain last reconciled
    /// with, so the blocks to observe are the ones above the prefix it
    /// shares with the tracker's best chain.
    fn after_head_change(&mut self, ctx: &mut Ctx<'_, NodeMsg>) {
        let Some(tracker) = self.tracker.as_ref() else {
            return;
        };
        if self.last_head == Some(tracker.head()) {
            return;
        }
        self.last_head = Some(tracker.head());
        let mut report = self.report.borrow_mut();
        let chain = tracker.best_chain();
        let anchor_height = tracker.head_height() - chain.len() as u64;
        let mut kept = report.final_chain.len().min(chain.len());
        while kept > 0 && report.final_chain[kept - 1].1 != chain[kept - 1] {
            kept -= 1;
        }
        let digests_at = |i: usize| tracker.op_digests(&chain[i]).expect("best-chain block");
        if let Some(mempool) = self.mempool.as_mut() {
            if kept < report.final_chain.len() {
                // A reorg also drops every queued tx whose op a block of
                // the *kept* prefix commits (a recurring proof re-admitted
                // after its earlier copy committed) — what re-observing
                // the whole branch used to do. Those blocks are found
                // through the tracker's committed-op index instead of by
                // walking the chain; re-observing any other kept block
                // would change nothing.
                let fork_height = anchor_height + kept as u64;
                let mut stale: Vec<u64> = mempool
                    .queued_digests()
                    .filter_map(|digest| tracker.committed_height(digest))
                    .filter(|&height| height <= fork_height)
                    .collect();
                stale.sort_unstable();
                stale.dedup();
                for height in stale {
                    let at = (height - anchor_height - 1) as usize;
                    mempool.observe_committed(digests_at(at), height);
                }
            }
            for i in kept..chain.len() {
                mempool.observe_committed(digests_at(i), anchor_height + 1 + i as u64);
            }
        }
        report.final_chain.truncate(kept);
        report
            .final_chain
            .extend((anchor_height + 1 + kept as u64..).zip(chain[kept..].iter().copied()));
        if self.cfg.record_op_log {
            // Every op of an adopted block is one record at the end of the
            // head engine's log; the records below the fork are already in
            // the report. When they are not (a checkpoint, or a restart
            // from an engine with another log base, moved the log's
            // start), copy the log whole.
            let log = tracker.engine().op_log();
            let adopted: usize = (kept..chain.len()).map(|i| digests_at(i).len()).sum();
            match log.len().checked_sub(adopted) {
                Some(shared)
                    if report.final_op_log.len() >= shared
                        && (shared == 0 || report.final_op_log[0].seq == log[0].seq) =>
                {
                    report.final_op_log.truncate(shared);
                    report.final_op_log.extend(log.iter_from(shared).cloned());
                }
                _ => report.final_op_log = log.to_vec(),
            }
            debug_assert!(report.final_op_log.iter().eq(log.iter()));
        }
        report
            .heads
            .push((ctx.now(), tracker.head_height(), tracker.head()));
        report.reorgs = tracker.reorgs();
        report.verify_failures = tracker.verify_failures();
        report.final_height = tracker.head_height();
        report.final_slot = tracker.head_slot();
        report.final_head = Some(tracker.head());
        report.final_state_root = Some(tracker.engine().state_root());
        report.final_files = tracker.engine().file_ids().len() as u64;
        report.final_receipt_root = tracker
            .engine()
            .chain()
            .last_block()
            .map(|b| b.receipt_root);
        let stats = tracker.engine().stats();
        report.batches_staged_parallel = stats.batches_staged_parallel;
        report.work = tracker.work();
        report.engine_events_held = tracker.engine().events().len() as u64;
        if let Some(mempool) = self.mempool.as_ref() {
            report.final_mempool = Some(mempool.stats().clone());
        }
    }

    /// Gossips any newly-recorded equivocation evidence: both conflicting
    /// blocks, single-shot, to every broadcast peer — each peer's own
    /// tracker reaches the same conviction from the pair.
    fn gossip_evidence(&mut self, ctx: &mut Ctx<'_, NodeMsg>) {
        let Some(tracker) = self.tracker.as_ref() else {
            return;
        };
        let fresh: Vec<(SealedBlock, SealedBlock)> = tracker.evidence()[self.evidence_gossiped..]
            .iter()
            .map(|ev| (ev.first.clone(), ev.second.clone()))
            .collect();
        self.evidence_gossiped += fresh.len();
        for (first, second) in fresh {
            for &peer in &self.broadcast {
                ctx.send(
                    peer,
                    NodeMsg::Block {
                        key: 0,
                        block: first.clone(),
                    },
                    first.wire_bytes(),
                );
                ctx.send(
                    peer,
                    NodeMsg::Block {
                        key: 0,
                        block: second.clone(),
                    },
                    second.wire_bytes(),
                );
            }
        }
    }

    /// One anti-entropy tick: tell the next peer (round-robin) where this
    /// node's head is.
    fn sync_tick(&mut self, ctx: &mut Ctx<'_, NodeMsg>) {
        let Some(tracker) = self.tracker.as_ref() else {
            return;
        };
        if self.sync_targets.is_empty() {
            return;
        }
        let peer = self.sync_targets[self.sync_cursor % self.sync_targets.len()];
        self.sync_cursor += 1;
        ctx.send(
            peer,
            NodeMsg::Status {
                height: tracker.head_height(),
                head: tracker.head(),
            },
            40,
        );
    }

    /// Pushes up to [`SYNC_BATCH`] best-chain blocks above `above` to
    /// `peer`, single-shot (the next status exchange continues).
    fn push_blocks(&mut self, ctx: &mut Ctx<'_, NodeMsg>, peer: NodeIdx, above: u64) {
        let Some(tracker) = self.tracker.as_ref() else {
            return;
        };
        for block in tracker.blocks_above(above, SYNC_BATCH) {
            let bytes = block.wire_bytes();
            ctx.send(peer, NodeMsg::Block { key: 0, block }, bytes);
        }
    }

    /// Asks `peer` for the blocks this node is missing — rate-limited to
    /// one request per `sync_every`, since every request can trigger a
    /// [`SYNC_BATCH`]-sized push.
    ///
    /// The request carries a best-chain locator instead of a bare height:
    /// after a partition heals, the canonical chain diverges *below* this
    /// node's head, so "blocks above my head" would orphan forever. The
    /// peer finds the highest shared locator entry and serves from there,
    /// so one round trip always lands just above the common ancestor and
    /// the orphan pool reconnects everything.
    fn request_blocks(&mut self, ctx: &mut Ctx<'_, NodeMsg>, peer: NodeIdx) {
        let now = ctx.now();
        if now < self.last_block_request + self.cfg.sync_every {
            return;
        }
        self.last_block_request = now;
        let Some(tracker) = self.tracker.as_ref() else {
            return;
        };
        let locator = tracker.locator();
        let bytes = 24 + 32 * locator.len() as u64;
        ctx.send(peer, NodeMsg::BlockRequest { locator }, bytes);
    }

    /// Drops the synced state and starts the join protocol over — the
    /// escape hatch for a cold joiner whose snapshot anchor was reorged
    /// off the canonical chain.
    fn rejoin(&mut self, ctx: &mut Ctx<'_, NodeMsg>) {
        self.tracker = None;
        self.mempool = None;
        self.orphan_streak = 0;
        self.last_head = None;
        ctx.set_timer(1, TAG_JOIN_RETRY);
    }

    fn on_block(
        &mut self,
        ctx: &mut Ctx<'_, NodeMsg>,
        from: NodeIdx,
        key: u64,
        block: SealedBlock,
    ) {
        if key != 0 {
            ctx.send(from, NodeMsg::BlockAck { key }, 24);
        }
        let Some(tracker) = self.tracker.as_mut() else {
            return; // still syncing; anti-entropy will redeliver
        };
        let outcome = tracker.insert(block);
        match outcome {
            InsertOutcome::Attached { head_changed, .. } => {
                self.orphan_streak = 0;
                if head_changed {
                    self.after_head_change(ctx);
                }
            }
            InsertOutcome::Orphaned { .. } => {
                self.orphan_streak += 1;
                if self.cold_joiner && self.orphan_streak > STUCK_ORPHANS {
                    self.rejoin(ctx);
                    return;
                }
                self.request_blocks(ctx, from);
            }
            InsertOutcome::Equivocation { .. } => {
                self.report.borrow_mut().equivocations_seen += 1;
                // Conviction may have reorged the head away from the
                // equivocator's blocks.
                self.after_head_change(ctx);
                self.gossip_evidence(ctx);
            }
            InsertOutcome::AlreadyKnown | InsertOutcome::Rejected(_) => {
                self.orphan_streak = 0;
            }
        }
    }

    fn serve_join(&mut self, ctx: &mut Ctx<'_, NodeMsg>, from: NodeIdx) {
        let Some(tracker) = self.tracker.as_mut() else {
            return;
        };
        let (snapshot, checkpoint) = tracker.snapshot_head();
        let head = tracker.head();
        let height = tracker.head_height();
        let slot = tracker.head_slot();
        let bytes = snapshot.len() as u64 + 128;
        ctx.send(
            from,
            NodeMsg::SnapshotReply {
                snapshot,
                checkpoint,
                suffix: Vec::new(),
                head,
                height,
                slot,
            },
            bytes,
        );
        let mut report = self.report.borrow_mut();
        report.joins_served += 1;
        report.snapshots_taken += 1;
        drop(report);
        // Future proposals flow to the joiner like to any peer.
        if !self.broadcast.contains(&from) {
            self.broadcast.push(from);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn complete_join(
        &mut self,
        ctx: &mut Ctx<'_, NodeMsg>,
        snapshot: Vec<u8>,
        checkpoint: Checkpoint,
        suffix: Vec<OpRecord>,
        head: Hash256,
        height: u64,
        slot: u64,
    ) {
        if self.tracker.is_some() {
            return; // duplicate reply
        }
        let restored = Engine::snapshot_restore(&snapshot).expect("validator snapshot restores");
        let engine = Engine::replay_from(&restored, &checkpoint, &suffix)
            .expect("suffix replays onto the snapshot");
        self.mempool = Some(Mempool::new(
            engine.params().clone(),
            GasSchedule::default(),
        ));
        self.tracker = Some(ChainTracker::from_sync(
            engine,
            self.schedule.clone(),
            head,
            height,
            slot,
        ));
        self.report.borrow_mut().joined_at_height = Some(height);
        self.after_head_change(ctx);
        if !self.sync_armed {
            self.sync_armed = true;
            ctx.set_timer(self.cfg.sync_every, TAG_SYNC);
        }
        self.arm_slot_timers(ctx);
    }
}

impl Process<NodeMsg> for Validator {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NodeMsg>) {
        match self.start.take().expect("started once") {
            NodeStart::Genesis(_) => {
                // Tracker and mempool were built in `new`.
                self.arm_slot_timers(ctx);
                self.sync_armed = true;
                ctx.set_timer(self.cfg.sync_every, TAG_SYNC);
            }
            NodeStart::ColdJoin { wake_at } => {
                ctx.set_timer(wake_at.max(1), TAG_WAKE);
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, NodeMsg>) {
        // State survived the crash; every timer did not. In-flight
        // retransmissions are abandoned (their acks would be stale) and
        // all future alarms re-armed.
        self.retx.abandon_all();
        self.report.borrow_mut().restarts += 1;
        if self.tracker.is_some() {
            self.arm_slot_timers(ctx);
            self.sync_armed = true;
            ctx.set_timer(self.cfg.sync_every, TAG_SYNC);
        } else {
            self.sync_armed = false;
            ctx.set_timer(1, TAG_JOIN_RETRY);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NodeMsg>, from: NodeIdx, msg: NodeMsg) {
        match msg {
            NodeMsg::SubmitTx { key, tx } => {
                ctx.send(from, NodeMsg::TxAck { key }, 24);
                let Some(tracker) = self.tracker.as_ref() else {
                    return;
                };
                let Some(mempool) = self.mempool.as_mut() else {
                    return;
                };
                if mempool.admit(tx.clone(), tracker.engine().ledger()).is_ok() {
                    // Forward once so upcoming leaders hold it too.
                    let bytes = tx.wire_bytes();
                    for &peer in &self.sync_targets {
                        ctx.send(peer, NodeMsg::ForwardTx { tx: tx.clone() }, bytes);
                    }
                }
            }
            NodeMsg::ForwardTx { tx } => {
                if let (Some(tracker), Some(mempool)) =
                    (self.tracker.as_ref(), self.mempool.as_mut())
                {
                    let _ = mempool.admit(tx, tracker.engine().ledger());
                }
            }
            NodeMsg::Block { key, block } => self.on_block(ctx, from, key, block),
            NodeMsg::BlockAck { key } => {
                self.retx.ack(key);
            }
            NodeMsg::Status { height, head } => {
                let Some(tracker) = self.tracker.as_ref() else {
                    return;
                };
                let (my_height, my_head) = (tracker.head_height(), tracker.head());
                if height < my_height {
                    self.push_blocks(ctx, from, height);
                } else if height > my_height {
                    // Invite a push.
                    ctx.send(
                        from,
                        NodeMsg::Status {
                            height: my_height,
                            head: my_head,
                        },
                        40,
                    );
                } else if head != my_head && my_height > 0 {
                    // Same height, different branch: show them ours;
                    // fork-choice on both ends settles the winner.
                    self.push_blocks(ctx, from, my_height.saturating_sub(1));
                }
            }
            NodeMsg::BlockRequest { locator } => {
                let above = self
                    .tracker
                    .as_ref()
                    .map_or(0, |tracker| tracker.fork_point(&locator));
                self.push_blocks(ctx, from, above);
            }
            NodeMsg::JoinRequest => self.serve_join(ctx, from),
            NodeMsg::SnapshotReply {
                snapshot,
                checkpoint,
                suffix,
                head,
                height,
                slot,
            } => self.complete_join(ctx, snapshot, checkpoint, suffix, head, height, slot),
            NodeMsg::TxAck { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NodeMsg>, tag: u64) {
        if tag == TAG_SYNC {
            self.sync_tick(ctx);
            ctx.set_timer(self.cfg.sync_every, TAG_SYNC);
            return;
        }
        if tag == TAG_WAKE || tag == TAG_JOIN_RETRY {
            if self.tracker.is_none() {
                // Request (or re-request) state until a snapshot lands;
                // the request itself can be lost, so keep a plain retry
                // timer, rotating over the validators.
                if !self.sync_targets.is_empty() {
                    let target = self.sync_targets[self.join_cursor % self.sync_targets.len()];
                    self.join_cursor += 1;
                    ctx.send(target, NodeMsg::JoinRequest, 24);
                }
                ctx.set_timer(self.cfg.join_retry, TAG_JOIN_RETRY);
            }
            return;
        }
        if (TAG_SLOT_BASE..RETX_TAG_BASE).contains(&tag) {
            self.maybe_propose(ctx, tag - TAG_SLOT_BASE);
            return;
        }
        if let Some(RetryEvent::Exhausted { .. }) = self.retx.handle_timer(ctx, tag) {
            self.report.borrow_mut().blocks_given_up += 1;
        }
    }
}
