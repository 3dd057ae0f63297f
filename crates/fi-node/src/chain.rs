//! The block tree and deterministic fork-choice every node runs.
//!
//! Under proposer rotation ([`crate::schedule`]) several blocks can exist
//! for one slot (a skipped leader's fallback raced it back online) and
//! blocks arrive late, out of order, or never. [`ChainTracker`] turns that
//! into a deterministic head:
//!
//! * **block tree** — every structurally valid block attaches under its
//!   parent; blocks whose parent is unknown wait in a bounded orphan pool
//!   until it arrives (the node layer fetches it);
//! * **verify-then-prefer** — a branch is only adopted after replaying its
//!   blocks on a clone of the engine and checking the proposer's claimed
//!   `state_root` / head hash / receipt root; a block that fails
//!   verification is banned, never adopted, and fork-choice recomputes
//!   without it;
//! * **fork-choice** — the best tip maximizes height; ties resolve at the
//!   earliest divergence by the smallest `(rank, slot, hash)` — the
//!   schedule's priority order — so every node picks the identical winner
//!   regardless of arrival order;
//! * **equivocation** — two different blocks from the same proposer for
//!   the same slot are proof of misbehavior: the pair is recorded as
//!   [`EquivocationEvidence`], both blocks (and every other block by the
//!   equivocator) are discarded from fork-choice, and future blocks by
//!   that proposer are rejected outright. The ban set is a function of
//!   the evidence alone, so nodes that learn it in any order agree.
//!
//! # What a block costs
//!
//! A validator pays for the block it is handed and for the depth of the
//! reorg it causes, never for the height of the chain (DESIGN.md §12,
//! "Cost model of the block tree"; [`TrackerWork`] counts it):
//!
//! * every op is **digested once**, by the pass that hashes the block; the
//!   digest list stays next to the block in this node's tree and feeds the
//!   engine replay, the committed-op multiset and the mempool. It never
//!   rides inside a [`SealedBlock`] — each node hashes what it is handed;
//! * the best chain is a **height-indexed spine**, moved by
//!   truncate-at-fork + extend; a newly attached block (and the orphans it
//!   drains) is compared against the head by walking back only to their
//!   common ancestor. Only what prunes the tree — a conviction or a
//!   verification ban — rescans it;
//! * adoption replays only the new branch, from the head engine or the
//!   deepest cached engine on it (`ENGINE_CACHE` recent states); a reorg
//!   deeper than the cache rebuilds from the anchor engine once;
//! * an engine's chain keeps only its last block header and its clones
//!   share the op log ([`fi_chain::log::SharedLog`]); the tracker drains
//!   protocol events after every block it applies, so a clone costs
//!   O(live state) at any height.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use fi_core::engine::{Checkpoint, Engine};
use fi_core::ops::Op;
use fi_crypto::{sha256, Hash256};
use fi_net::world::NodeIdx;

use crate::schedule::ProposerSchedule;

/// Buffered parent-less blocks across all branches; beyond this, new
/// orphans are dropped (anti-entropy re-delivers them).
const ORPHAN_CAP: usize = 1024;

/// A block as broadcast on the wire: its slot-schedule coordinates, chain
/// position, the exact op sequence committed, and the proposer's claimed
/// post-state for verify-then-prefer.
#[derive(Debug, Clone)]
pub struct SealedBlock {
    /// The rotation slot this block fills.
    pub slot: u64,
    /// The proposer's rank in the slot's schedule (0 = scheduled leader).
    pub rank: u32,
    /// The proposing node.
    pub proposer: NodeIdx,
    /// Chain height (parent height + 1).
    pub height: u64,
    /// Hash of the parent block (the tracker's anchor hash at height 1).
    pub parent: Hash256,
    /// The committed ops in order (mempool selection plus the slot's
    /// trailing `AdvanceTo` barrier).
    pub ops: Vec<Op>,
    /// `Engine::state_root()` the proposer claims after the batch.
    pub state_root: Hash256,
    /// Engine chain head hash the proposer claims after the batch.
    pub head_hash: Hash256,
    /// Receipt root of the engine block this batch sealed.
    pub receipt_root: Hash256,
}

impl SealedBlock {
    /// The block's identity: a hash over the header and the op digests.
    pub fn hash(&self) -> Hash256 {
        self.hash_over(&self.op_digests())
    }

    /// `Op::digest` of every op, in order.
    pub fn op_digests(&self) -> Vec<Hash256> {
        digest_ops(&self.ops)
    }

    /// [`Self::hash`] given [`Self::op_digests`] — the tracker computes
    /// the digests once and keeps them.
    pub fn hash_over(&self, op_digests: &[Hash256]) -> Hash256 {
        debug_assert_eq!(op_digests.len(), self.ops.len());
        let mut buf = Vec::with_capacity(160 + op_digests.len() * 32);
        buf.extend_from_slice(b"fi-node/block");
        buf.extend_from_slice(&self.slot.to_be_bytes());
        buf.extend_from_slice(&self.rank.to_be_bytes());
        buf.extend_from_slice(&(self.proposer as u64).to_be_bytes());
        buf.extend_from_slice(&self.height.to_be_bytes());
        buf.extend_from_slice(self.parent.as_ref());
        buf.extend_from_slice(self.state_root.as_ref());
        buf.extend_from_slice(self.head_hash.as_ref());
        buf.extend_from_slice(self.receipt_root.as_ref());
        for digest in op_digests {
            buf.extend_from_slice(digest.as_ref());
        }
        sha256(&buf)
    }

    /// Approximate wire size, for link-delay modeling.
    pub fn wire_bytes(&self) -> u64 {
        196 + self.ops.len() as u64 * 80
    }
}

/// Proof that a proposer sealed two different blocks for one slot.
#[derive(Debug, Clone)]
pub struct EquivocationEvidence {
    /// The slot both blocks claim.
    pub slot: u64,
    /// The misbehaving proposer.
    pub proposer: NodeIdx,
    /// The block seen first (already in the tree).
    pub first: SealedBlock,
    /// The conflicting block.
    pub second: SealedBlock,
}

/// Why [`ChainTracker::insert`] refused a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The proposer is not the schedule's leader for `(slot, rank)`, or
    /// the rank is beyond the schedule's fallback depth.
    NotScheduled,
    /// Height or slot does not extend the parent (`height != parent+1`,
    /// or `slot <= parent.slot`).
    BadLineage,
    /// The proposer was caught equivocating earlier.
    BannedProposer,
    /// The exact block was banned (equivocation pair member, or it failed
    /// verification during an earlier adoption attempt).
    BannedBlock,
    /// The block is at or below the tracker's anchor height (stale, or
    /// predates a cold joiner's sync point).
    BelowAnchor,
}

/// What [`ChainTracker::insert`] did with a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Attached to the tree. `head_changed` says whether fork-choice moved
    /// the head (here or via drained orphans); `reorged` whether the move
    /// abandoned previously-adopted blocks.
    Attached {
        /// The head moved.
        head_changed: bool,
        /// The move rolled back previously-adopted blocks.
        reorged: bool,
    },
    /// Already in the tree (duplicate delivery).
    AlreadyKnown,
    /// Parent unknown; buffered. The caller should fetch `missing_parent`.
    Orphaned {
        /// The parent hash nobody has shown us yet.
        missing_parent: Hash256,
    },
    /// The block convicted its proposer of equivocation; evidence was
    /// recorded (see [`ChainTracker::evidence`]) and the proposer's
    /// blocks discarded.
    Equivocation {
        /// The slot with two conflicting blocks.
        slot: u64,
        /// The convicted proposer.
        proposer: NodeIdx,
    },
    /// Structurally invalid; not retained.
    Rejected(RejectReason),
}

/// What the tracker has done so far, as counts — deterministic for a given
/// block sequence, so tests assert cost scaling on them instead of on wall
/// clocks. Each is O(block + reorg depth) per inserted or sealed block,
/// whatever the chain height.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackerWork {
    /// Ops digested: exactly one per op of every block handed to
    /// [`ChainTracker::insert`] or [`ChainTracker::seal_block`].
    pub ops_digested: u64,
    /// Block-tree nodes fork-choice visited: walks from a new block back
    /// to the best chain, tie-break walks to a common ancestor, and the
    /// whole-tree rescans after a conviction or a verification ban.
    pub fork_choice_steps: u64,
    /// Blocks applied to an engine (own seals, adoptions, reorg replays).
    pub blocks_replayed: u64,
    /// `Engine::clone` calls.
    pub engine_clones: u64,
}

/// A block in this node's tree, with the op digests the node computed when
/// it hashed the block (the cache is the node's own: it is never sent).
struct TreeBlock {
    block: SealedBlock,
    digests: Vec<Hash256>,
}

/// The per-node block tree + fork-choice + verified head engine. See the
/// module docs for what each operation costs.
pub struct ChainTracker {
    schedule: ProposerSchedule,
    /// Engine at the anchor, kept pristine for reorg rebuilds.
    base: Engine,
    anchor: Hash256,
    anchor_height: u64,
    anchor_slot: u64,
    blocks: HashMap<Hash256, TreeBlock>,
    children: HashMap<Hash256, Vec<Hash256>>,
    /// parent hash → `(hash, block)` waiting for it.
    orphans: BTreeMap<Hash256, Vec<(Hash256, TreeBlock)>>,
    orphan_count: usize,
    /// `(slot, proposer)` → first block hash seen, for equivocation
    /// detection.
    seen: HashMap<(u64, NodeIdx), Hash256>,
    banned_blocks: HashSet<Hash256>,
    banned_proposers: HashSet<NodeIdx>,
    evidence: Vec<EquivocationEvidence>,
    /// Engine replayed through the current head.
    engine: Engine,
    /// The best chain above the anchor, oldest first: `spine[i]` is the
    /// block at height `anchor_height + 1 + i`, the last entry is the
    /// head. Never holds a banned block.
    spine: Vec<Hash256>,
    head_slot: u64,
    /// Op digest → `(lowest height, occurrences)` along the best chain —
    /// a multiset (one op can be committed by several blocks), kept by
    /// removing the abandoned blocks' digests and adding the adopted ones.
    /// Occurrences leave from the top of the chain, so the lowest height
    /// stays valid while any remain.
    committed: HashMap<Hash256, (u64, u32)>,
    /// `(hash, height, engine)`: verified engines at recently-applied
    /// blocks other than the head (capped FIFO). Fallback proposers
    /// routinely race the slot leader, so sibling reorgs are the common
    /// case — restarting them from the fork point instead of the anchor
    /// keeps adoption O(reorg depth), not O(chain length).
    recent_engines: VecDeque<(Hash256, u64, Engine)>,
    reorgs: u64,
    verify_failures: u64,
    work: TrackerWork,
}

/// Entries kept in [`ChainTracker::recent_engines`]: deep enough for
/// every sibling race and short skip-rule forks; deeper reorgs (a healed
/// partition's divergence) pay the anchor rebuild once.
const ENGINE_CACHE: usize = 8;

impl ChainTracker {
    /// A tracker rooted at `genesis` (height 0, slot 0).
    pub fn new(genesis: Engine, schedule: ProposerSchedule) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(b"fi-node/genesis-anchor");
        buf.extend_from_slice(genesis.state_root().as_ref());
        let anchor = sha256(&buf);
        ChainTracker::anchored(genesis, schedule, anchor, 0, 0)
    }

    /// A tracker for a cold joiner: `engine` is the synced state whose
    /// head block hashes to `head` at `height` / `slot`. Blocks at or
    /// below the anchor are rejected — the joiner trusts its sync point.
    pub fn from_sync(
        engine: Engine,
        schedule: ProposerSchedule,
        head: Hash256,
        height: u64,
        slot: u64,
    ) -> Self {
        ChainTracker::anchored(engine, schedule, head, height, slot)
    }

    fn anchored(
        engine: Engine,
        schedule: ProposerSchedule,
        anchor: Hash256,
        anchor_height: u64,
        anchor_slot: u64,
    ) -> Self {
        ChainTracker {
            schedule,
            base: engine.clone(),
            anchor,
            anchor_height,
            anchor_slot,
            blocks: HashMap::new(),
            children: HashMap::new(),
            orphans: BTreeMap::new(),
            orphan_count: 0,
            seen: HashMap::new(),
            banned_blocks: HashSet::new(),
            banned_proposers: HashSet::new(),
            evidence: Vec::new(),
            engine,
            spine: Vec::new(),
            head_slot: anchor_slot,
            committed: HashMap::new(),
            recent_engines: VecDeque::new(),
            reorgs: 0,
            verify_failures: 0,
            work: TrackerWork::default(),
        }
    }

    /// The rotation schedule this tracker validates against.
    pub fn schedule(&self) -> &ProposerSchedule {
        &self.schedule
    }

    /// The engine replayed through the current head. Its protocol-event
    /// buffer is empty: the tracker drains it after every block (the
    /// events are committed through the engine chain's blocks).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Current head block hash (the anchor hash before any block).
    pub fn head(&self) -> Hash256 {
        self.spine.last().copied().unwrap_or(self.anchor)
    }

    /// Current head height.
    pub fn head_height(&self) -> u64 {
        self.anchor_height + self.spine.len() as u64
    }

    /// Slot of the current head block.
    pub fn head_slot(&self) -> u64 {
        self.head_slot
    }

    /// Recorded equivocation proofs, in detection order.
    pub fn evidence(&self) -> &[EquivocationEvidence] {
        &self.evidence
    }

    /// Proposers convicted of equivocation.
    pub fn banned_proposers(&self) -> &HashSet<NodeIdx> {
        &self.banned_proposers
    }

    /// Head switches that abandoned previously-adopted blocks.
    pub fn reorgs(&self) -> u64 {
        self.reorgs
    }

    /// Blocks banned because replay contradicted their claimed roots.
    pub fn verify_failures(&self) -> u64 {
        self.verify_failures
    }

    /// The work counters so far.
    pub fn work(&self) -> TrackerWork {
        self.work
    }

    /// A block by hash, if known.
    pub fn block(&self, hash: &Hash256) -> Option<&SealedBlock> {
        self.blocks.get(hash).map(|tb| &tb.block)
    }

    /// The op digests of a known block, in op order — computed once, when
    /// this node hashed the block.
    pub fn op_digests(&self, hash: &Hash256) -> Option<&[Hash256]> {
        self.blocks.get(hash).map(|tb| tb.digests.as_slice())
    }

    /// `true` when `digest` is an op committed on the current head path
    /// (used to dedup consensus-side injections across rotating
    /// proposers).
    pub fn op_committed(&self, digest: &Hash256) -> bool {
        self.committed.contains_key(digest)
    }

    /// Height of the lowest best-chain block that commits `digest`.
    pub fn committed_height(&self, digest: &Hash256) -> Option<u64> {
        self.committed.get(digest).map(|&(height, _)| height)
    }

    /// Hashes of the best chain above the anchor, oldest first (the last
    /// entry is the head; the first sits at `head_height() + 1 - len`).
    pub fn best_chain(&self) -> &[Hash256] {
        &self.spine
    }

    /// `true` when `hash` is the best-chain block at `height`.
    fn on_best_chain(&self, hash: &Hash256, height: u64) -> bool {
        height > self.anchor_height
            && self.spine.get((height - self.anchor_height - 1) as usize) == Some(hash)
    }

    /// The current best chain above `height`, oldest first, at most
    /// `limit` blocks — what anti-entropy pushes to a lagging peer.
    pub fn blocks_above(&self, height: u64, limit: usize) -> Vec<SealedBlock> {
        let start = height.saturating_sub(self.anchor_height) as usize;
        self.spine
            .iter()
            .skip(start)
            .take(limit)
            .map(|hash| self.blocks[hash].block.clone())
            .collect()
    }

    /// `(height, hash)` of every best-chain block above the anchor,
    /// oldest first — the canonical spine recovery-latency metrics are
    /// computed against.
    pub fn chain_ids(&self) -> Vec<(u64, Hash256)> {
        (self.anchor_height + 1..)
            .zip(self.spine.iter().copied())
            .collect()
    }

    /// Best-chain block locator, newest first: the last 8 hashes densely,
    /// then exponentially sparser back toward the anchor. A sync peer
    /// finds the highest hash it shares ([`Self::fork_point`]) and serves
    /// blocks from there — one round trip locates the divergence point no
    /// matter how deep it is.
    pub fn locator(&self) -> Vec<Hash256> {
        let ids = &self.spine;
        let mut locator = Vec::new();
        let mut step = 1usize;
        let mut back = 0usize;
        while back < ids.len() {
            locator.push(ids[ids.len() - 1 - back]);
            if locator.len() >= 8 {
                step *= 2;
            }
            back += step;
        }
        if let Some(&oldest) = ids.first() {
            if locator.last() != Some(&oldest) {
                locator.push(oldest);
            }
        }
        locator
    }

    /// Height of the highest locator entry on this node's best chain —
    /// the serving floor for a [`Self::locator`]-carrying block request.
    /// Falls back to 0 when nothing matches (serve everything we have).
    pub fn fork_point(&self, locator: &[Hash256]) -> u64 {
        locator
            .iter()
            .filter_map(|hash| {
                let height = self.blocks.get(hash)?.block.height;
                self.on_best_chain(hash, height).then_some(height)
            })
            .max()
            .unwrap_or(0)
    }

    /// Checkpoints the head engine (truncating its op log, keeping memory
    /// bounded) and saves a durable snapshot — the artifact cold joiners
    /// sync from.
    pub fn snapshot_head(&mut self) -> (Vec<u8>, Checkpoint) {
        let checkpoint = self.engine.checkpoint();
        (self.engine.snapshot_save(), checkpoint)
    }

    /// Seals the node's own block for `(slot, rank)` on top of the current
    /// head: applies `ops` to the head engine, records the resulting
    /// roots, and adopts the block as the new head. The caller must be
    /// the schedule's `(slot, rank)` leader and must not have sealed this
    /// slot before (that would be equivocation).
    pub fn seal_block(
        &mut self,
        slot: u64,
        rank: u32,
        proposer: NodeIdx,
        ops: Vec<Op>,
    ) -> SealedBlock {
        debug_assert_eq!(self.schedule.leader(slot, rank as usize), Some(proposer));
        debug_assert!(
            !self.seen.contains_key(&(slot, proposer)),
            "own equivocation"
        );
        debug_assert!(slot > self.head_slot, "slot already filled on this branch");
        let digests = digest_ops(&ops);
        self.work.ops_digested += digests.len() as u64;
        let parent = self.head();
        if parent != self.anchor {
            // Our own block may lose to a fallback sibling; keep the
            // parent state so that reorg stays cheap.
            let at_parent = self.engine.clone();
            self.work.engine_clones += 1;
            self.cache_engine_at(parent, self.head_height(), at_parent);
        }
        apply_block(&mut self.engine, &ops, &digests);
        self.work.blocks_replayed += 1;
        let block = SealedBlock {
            slot,
            rank,
            proposer,
            height: self.head_height() + 1,
            parent,
            ops,
            state_root: self.engine.state_root(),
            head_hash: self.engine.chain().head_hash(),
            receipt_root: last_receipt_root(&self.engine),
        };
        let hash = block.hash_over(&digests);
        for digest in &digests {
            commit_digest(&mut self.committed, *digest, block.height);
        }
        self.attach(
            hash,
            TreeBlock {
                block: block.clone(),
                digests,
            },
        );
        // Strictly taller than every other tip, so fork-choice has
        // nothing to decide.
        self.spine.push(hash);
        self.head_slot = slot;
        block
    }

    /// Feeds one received block through validation, the tree, and
    /// fork-choice. See [`InsertOutcome`].
    pub fn insert(&mut self, block: SealedBlock) -> InsertOutcome {
        // The one pass over the ops: their digests identify the block and
        // are kept for everything downstream.
        let digests = block.op_digests();
        self.work.ops_digested += digests.len() as u64;
        let hash = block.hash_over(&digests);
        if self.blocks.contains_key(&hash) {
            return InsertOutcome::AlreadyKnown;
        }
        if self.banned_blocks.contains(&hash) {
            return InsertOutcome::Rejected(RejectReason::BannedBlock);
        }
        if let Some(reason) = self.structural_reject(&block) {
            return InsertOutcome::Rejected(reason);
        }
        if let Some(first) = self.equivocation_by(&block, hash) {
            let (slot, proposer) = (block.slot, block.proposer);
            self.convict(first, hash, block);
            let tip = self.scan_best_tip();
            let _ = self.move_head(tip);
            return InsertOutcome::Equivocation { slot, proposer };
        }
        let Some((parent_height, parent_slot)) = self.parent_info(&block.parent) else {
            let missing_parent = block.parent;
            if self.orphan_count < ORPHAN_CAP {
                let waiting = self.orphans.entry(missing_parent).or_default();
                if !waiting.iter().any(|(h, _)| *h == hash) {
                    waiting.push((hash, TreeBlock { block, digests }));
                    self.orphan_count += 1;
                }
            }
            return InsertOutcome::Orphaned { missing_parent };
        };
        if block.height != parent_height + 1 || block.slot <= parent_slot {
            return InsertOutcome::Rejected(RejectReason::BadLineage);
        }
        self.attach(hash, TreeBlock { block, digests });
        let (attached, convicted) = self.drain_orphans(hash);
        let tip = if convicted {
            self.scan_best_tip()
        } else {
            self.best_of_new(&attached)
        };
        let (head_changed, reorged) = self.move_head(tip);
        InsertOutcome::Attached {
            head_changed,
            reorged,
        }
    }

    fn structural_reject(&self, b: &SealedBlock) -> Option<RejectReason> {
        if b.height <= self.anchor_height {
            return Some(RejectReason::BelowAnchor);
        }
        if self.banned_proposers.contains(&b.proposer) {
            return Some(RejectReason::BannedProposer);
        }
        if self.schedule.leader(b.slot, b.rank as usize) != Some(b.proposer) {
            return Some(RejectReason::NotScheduled);
        }
        None
    }

    fn parent_info(&self, parent: &Hash256) -> Option<(u64, u64)> {
        if *parent == self.anchor {
            return Some((self.anchor_height, self.anchor_slot));
        }
        self.blocks
            .get(parent)
            .map(|tb| (tb.block.height, tb.block.slot))
    }

    /// The first block seen for `block`'s `(slot, proposer)`, if `block`
    /// is a different one — a conflicting pair.
    fn equivocation_by(&self, block: &SealedBlock, hash: Hash256) -> Option<Hash256> {
        let first = *self.seen.get(&(block.slot, block.proposer))?;
        (first != hash).then_some(first)
    }

    /// Records evidence and discards the equivocator: both conflicting
    /// blocks, every other tree block by the proposer, and all their
    /// future blocks. The resulting ban set depends only on the evidence
    /// and the blocks known — not on arrival order — so converged peers
    /// agree on the surviving chain.
    fn convict(&mut self, first: Hash256, second_hash: Hash256, second: SealedBlock) {
        let proposer = second.proposer;
        self.banned_blocks.insert(first);
        self.banned_blocks.insert(second_hash);
        self.banned_proposers.insert(proposer);
        let theirs: Vec<Hash256> = self
            .blocks
            .iter()
            .filter(|(_, tb)| tb.block.proposer == proposer)
            .map(|(&h, _)| h)
            .collect();
        self.banned_blocks.extend(theirs);
        // Orphans by (or waiting under) the equivocator's blocks resolve
        // through the ban checks when drained; drop their direct buffer.
        let mut removed = 0;
        for waiting in self.orphans.values_mut() {
            let before = waiting.len();
            waiting.retain(|(_, tb)| tb.block.proposer != proposer);
            removed += before - waiting.len();
        }
        self.orphan_count -= removed;
        self.orphans.retain(|_, v| !v.is_empty());
        self.evidence.push(EquivocationEvidence {
            slot: second.slot,
            proposer,
            first: self.blocks[&first].block.clone(),
            second,
        });
    }

    /// Remembers `engine` as the verified state at `hash` (capped; oldest
    /// entries fall out — see [`ENGINE_CACHE`]).
    fn cache_engine_at(&mut self, hash: Hash256, height: u64, engine: Engine) {
        if self.recent_engines.iter().any(|(h, ..)| *h == hash) {
            return;
        }
        if self.recent_engines.len() >= ENGINE_CACHE {
            self.recent_engines.pop_front();
        }
        self.recent_engines.push_back((hash, height, engine));
    }

    fn attach(&mut self, hash: Hash256, tb: TreeBlock) {
        self.seen.insert((tb.block.slot, tb.block.proposer), hash);
        self.children.entry(tb.block.parent).or_default().push(hash);
        self.blocks.insert(hash, tb);
    }

    /// Attaches every orphan transitively unblocked by the just-attached
    /// `root`. Returns the blocks now in the tree, `root` first, and
    /// whether a drained orphan convicted its proposer.
    fn drain_orphans(&mut self, root: Hash256) -> (Vec<Hash256>, bool) {
        let mut attached = vec![root];
        let mut convicted = false;
        let mut queue = vec![root];
        while let Some(p) = queue.pop() {
            let Some(waiting) = self.orphans.remove(&p) else {
                continue;
            };
            self.orphan_count -= waiting.len();
            let (parent_height, parent_slot) = self.parent_info(&p).expect("parent attached");
            for (hash, tb) in waiting {
                if self.blocks.contains_key(&hash) || self.banned_blocks.contains(&hash) {
                    continue;
                }
                if self.structural_reject(&tb.block).is_some() {
                    continue;
                }
                if let Some(first) = self.equivocation_by(&tb.block, hash) {
                    self.convict(first, hash, tb.block);
                    convicted = true;
                    continue;
                }
                if tb.block.height != parent_height + 1 || tb.block.slot <= parent_slot {
                    continue;
                }
                self.attach(hash, tb);
                attached.push(hash);
                queue.push(hash);
            }
        }
        (attached, convicted)
    }

    /// Fork-choice after `attached` joined the tree (one subtree, its
    /// root first, none of it banned): the head can only move to one of
    /// them. The rule — higher tip wins; ties by the smallest
    /// `(rank, slot, hash)` child at the earliest divergence — is a total
    /// order on tips, so the best of {old head, new blocks} is the best of
    /// the whole tree, and every comparison walks back only to a common
    /// ancestor.
    fn best_of_new(&mut self, attached: &[Hash256]) -> Hash256 {
        let head = self.head();
        // A banned ancestor above the best chain hides the whole subtree.
        let mut at = self.blocks[&attached[0]].block.parent;
        while at != self.anchor {
            let block = &self.blocks[&at].block;
            if self.on_best_chain(&at, block.height) {
                break;
            }
            if self.banned_blocks.contains(&at) {
                return head;
            }
            self.work.fork_choice_steps += 1;
            at = block.parent;
        }
        let mut best = (self.head_height(), head);
        for &candidate in attached {
            best = better_tip(
                &self.blocks,
                &mut self.work.fork_choice_steps,
                best,
                candidate,
            );
        }
        best.1
    }

    /// Fork-choice over the whole tree, for when it was pruned (a
    /// conviction or a verification ban can take the head away): the best
    /// unbanned tip under the anchor by the rule of [`Self::best_of_new`].
    /// O(tree), iterative.
    fn scan_best_tip(&mut self) -> Hash256 {
        let mut best = (self.anchor_height, self.anchor);
        let mut stack = vec![self.anchor];
        while let Some(node) = stack.pop() {
            for &child in self.children.get(&node).into_iter().flatten() {
                if self.banned_blocks.contains(&child) {
                    continue;
                }
                best = better_tip(&self.blocks, &mut self.work.fork_choice_steps, best, child);
                stack.push(child);
            }
        }
        best.1
    }

    /// Verifies and adopts the branch ending at `tip` when it is not the
    /// head already. Blocks that fail verification are banned and
    /// fork-choice retried over the pruned tree. Returns
    /// `(head_changed, reorged)`.
    fn move_head(&mut self, mut tip: Hash256) -> (bool, bool) {
        loop {
            if tip == self.head() {
                return (false, false);
            }
            match self.adopt(tip) {
                Ok(was_reorg) => {
                    if was_reorg {
                        self.reorgs += 1;
                    }
                    return (true, was_reorg);
                }
                Err(bad) => {
                    self.banned_blocks.insert(bad);
                    self.verify_failures += 1;
                    // Fork-choice without the liar's block.
                    tip = self.scan_best_tip();
                }
            }
        }
    }

    /// Verifies and switches to the branch ending at `tip`. On success the
    /// head engine, the spine and the committed-op multiset are moved from
    /// the fork point; on failure returns the hash of the first block
    /// whose replay contradicted its claims (nothing adopted changes).
    fn adopt(&mut self, tip: Hash256) -> Result<bool, Hash256> {
        // The new branch, walked back only to where it leaves the spine.
        let mut branch = Vec::new();
        let mut at = tip;
        let kept = loop {
            if at == self.anchor {
                break 0;
            }
            let block = &self.blocks[&at].block;
            if self.on_best_chain(&at, block.height) {
                break (block.height - self.anchor_height) as usize;
            }
            branch.push(at);
            at = block.parent;
            self.work.fork_choice_steps += 1;
        };
        branch.reverse();
        let was_reorg = kept < self.spine.len();
        let fork_height = self.anchor_height + kept as u64;
        // Start from the deepest verified state on the new path: a cached
        // engine, the head engine when this is a pure extension, or — a
        // reorg deeper than the cache — the anchor engine.
        let cached = self
            .recent_engines
            .iter()
            .filter(|(hash, height, _)| {
                if *height <= fork_height {
                    self.on_best_chain(hash, *height)
                } else {
                    branch.get((*height - fork_height - 1) as usize) == Some(hash)
                }
            })
            .max_by_key(|(_, height, _)| *height);
        let (mut engine, from_height) = match cached {
            Some((_, height, engine)) if was_reorg || *height > fork_height => {
                (engine.clone(), *height)
            }
            _ if !was_reorg => (self.engine.clone(), fork_height),
            _ => (self.base.clone(), self.anchor_height),
        };
        self.work.engine_clones += 1;
        let todo: Vec<Hash256> = (from_height..fork_height)
            .map(|below| self.spine[(below - self.anchor_height) as usize])
            .chain(
                branch
                    .iter()
                    .copied()
                    .skip(from_height.saturating_sub(fork_height) as usize),
            )
            .collect();
        for (i, hash) in todo.iter().enumerate() {
            let tb = &self.blocks[hash];
            apply_block(&mut engine, &tb.block.ops, &tb.digests);
            self.work.blocks_replayed += 1;
            let ok = engine.state_root() == tb.block.state_root
                && engine.chain().head_hash() == tb.block.head_hash
                && last_receipt_root(&engine) == tb.block.receipt_root;
            if !ok {
                return Err(*hash);
            }
            if i + 2 == todo.len() {
                // The state under the new head: where a sibling of the
                // new head would restart from.
                let height = tb.block.height;
                let under_tip = engine.clone();
                self.work.engine_clones += 1;
                self.cache_engine_at(*hash, height, under_tip);
            }
        }
        // The engine at the old head moves into the cache: flipping back
        // to the abandoned branch, or to a sibling of the block just
        // adopted, restarts there.
        let (old_head, old_height) = (self.head(), self.head_height());
        let at_old_head = std::mem::replace(&mut self.engine, engine);
        if old_head != self.anchor {
            self.cache_engine_at(old_head, old_height, at_old_head);
        }
        for hash in self.spine.drain(kept..) {
            for digest in &self.blocks[&hash].digests {
                if let Entry::Occupied(mut entry) = self.committed.entry(*digest) {
                    entry.get_mut().1 -= 1;
                    if entry.get().1 == 0 {
                        entry.remove();
                    }
                }
            }
        }
        for hash in &branch {
            let tb = &self.blocks[hash];
            for digest in &tb.digests {
                commit_digest(&mut self.committed, *digest, tb.block.height);
            }
        }
        self.spine.extend(branch);
        self.head_slot = match self.spine.last() {
            Some(head) => self.blocks[head].block.slot,
            // Everything above the anchor was banned away.
            None => self.anchor_slot,
        };
        Ok(was_reorg)
    }
}

/// `Op::digest` of every op, in order.
fn digest_ops(ops: &[Op]) -> Vec<Hash256> {
    ops.iter().map(Op::digest).collect()
}

/// The better of the best `(height, tip)` so far and `candidate`: the
/// higher one, ties by [`preferred`].
fn better_tip(
    blocks: &HashMap<Hash256, TreeBlock>,
    steps: &mut u64,
    best: (u64, Hash256),
    candidate: Hash256,
) -> (u64, Hash256) {
    *steps += 1;
    let height = blocks[&candidate].block.height;
    if height > best.0 || (height == best.0 && preferred(blocks, steps, candidate, best.1)) {
        (height, candidate)
    } else {
        best
    }
}

/// `true` when tip `x` beats tip `y` of the same height: at their
/// earliest divergence, `x`'s side is the smaller `(rank, slot, hash)`
/// child. Walks both back in lockstep to the common ancestor.
fn preferred(
    blocks: &HashMap<Hash256, TreeBlock>,
    steps: &mut u64,
    x: Hash256,
    y: Hash256,
) -> bool {
    let (mut a, mut b) = (x, y);
    loop {
        let (block_a, block_b) = (&blocks[&a].block, &blocks[&b].block);
        *steps += 1;
        if block_a.parent == block_b.parent {
            return (block_a.rank, block_a.slot, a) < (block_b.rank, block_b.slot, b);
        }
        a = block_a.parent;
        b = block_b.parent;
    }
}

/// Adds one occurrence of `digest`, committed at `height`, to the
/// committed-op multiset.
fn commit_digest(committed: &mut HashMap<Hash256, (u64, u32)>, digest: Hash256, height: u64) {
    committed.entry(digest).or_insert((height, 0)).1 += 1;
}

/// Applies one block's ops with their known digests, then drains the
/// engine's protocol-event buffer — nothing in a node reads it, and left
/// alone it grows (and is cloned) for the life of the validator.
///
/// Every node replays through [`Engine::apply_batch_digested`]: it runs
/// every op once, in order, and fans the hashing of a large batch out
/// when the engine's shape makes that pay, bit-identical either way.
/// Failed ops are part of history (they burn gas and carry failure
/// receipts); outcomes surface through the roots.
fn apply_block(engine: &mut Engine, ops: &[Op], digests: &[Hash256]) {
    let _ = engine.apply_batch_digested(ops.to_vec(), digests);
    engine.take_events();
}

/// Receipt root of the engine's most recently sealed block.
fn last_receipt_root(engine: &Engine) -> Hash256 {
    engine
        .chain()
        .last_block()
        .map_or(Hash256::ZERO, |b| b.receipt_root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_chain::account::{AccountId, TokenAmount};
    use fi_core::params::ProtocolParams;
    use fi_crypto::RandomBeacon;

    const VALIDATORS: [NodeIdx; 3] = [0, 1, 2];

    fn genesis() -> Engine {
        let mut engine = Engine::new(ProtocolParams::default()).expect("valid params");
        engine.fund(AccountId(900), TokenAmount(1_000_000_000));
        engine
    }

    fn tracker() -> ChainTracker {
        let schedule =
            ProposerSchedule::new(RandomBeacon::new(5), VALIDATORS.to_vec(), VALIDATORS.len());
        ChainTracker::new(genesis(), schedule)
    }

    /// A valid block for `(slot, rank)` extending `parent` (a hash in the
    /// tracker, or the head) — roots computed on a scratch replay, like a
    /// remote proposer would.
    fn forge(tracker: &ChainTracker, slot: u64, rank: u32, ops: Vec<Op>) -> SealedBlock {
        let proposer = tracker
            .schedule()
            .leader(slot, rank as usize)
            .expect("rank");
        let mut engine = tracker.engine().clone();
        for op in ops.iter().cloned() {
            let _ = engine.apply(op);
        }
        SealedBlock {
            slot,
            rank,
            proposer,
            height: tracker.head_height() + 1,
            parent: tracker.head(),
            ops,
            state_root: engine.state_root(),
            head_hash: engine.chain().head_hash(),
            receipt_root: last_receipt_root(&engine),
        }
    }

    fn advance_ops(slot: u64) -> Vec<Op> {
        vec![Op::AdvanceTo { target: slot * 30 }]
    }

    #[test]
    fn blocks_adopt_in_order_and_update_the_head_engine() {
        let mut t = tracker();
        for slot in 1..=3 {
            let block = forge(&t, slot, 0, advance_ops(slot));
            let hash = block.hash();
            assert_eq!(
                t.insert(block),
                InsertOutcome::Attached {
                    head_changed: true,
                    reorged: false
                }
            );
            assert_eq!(t.head(), hash);
            assert_eq!(t.head_height(), slot);
        }
        assert_eq!(t.engine().now(), 90, "AdvanceTo ops replayed");
        assert_eq!(t.reorgs(), 0);
    }

    #[test]
    fn orphans_wait_for_their_parent_then_attach() {
        let mut t = tracker();
        let b1 = forge(&t, 1, 0, advance_ops(1));
        // Forge slot 2 on a lookahead clone so it extends b1.
        let mut ahead = tracker();
        ahead.insert(b1.clone());
        let b2 = forge(&ahead, 2, 0, advance_ops(2));
        assert_eq!(
            t.insert(b2.clone()),
            InsertOutcome::Orphaned {
                missing_parent: b1.hash()
            }
        );
        assert_eq!(t.head_height(), 0, "orphan alone moves nothing");
        assert_eq!(
            t.insert(b1),
            InsertOutcome::Attached {
                head_changed: true,
                reorged: false
            }
        );
        assert_eq!(t.head(), b2.hash(), "orphan drained behind its parent");
        assert_eq!(t.head_height(), 2);
    }

    #[test]
    fn fork_choice_prefers_the_lower_rank_whichever_arrives_first() {
        let build = |first_rank: u32, second_rank: u32| {
            let mut t = tracker();
            let a = forge(&t, 1, first_rank, advance_ops(1));
            let b = forge(&t, 1, second_rank, advance_ops(1));
            t.insert(a);
            t.insert(b);
            t
        };
        let rank_first = build(0, 1);
        let fallback_first = build(1, 0);
        assert_eq!(rank_first.head(), fallback_first.head(), "same winner");
        let head = rank_first
            .block(&rank_first.head())
            .expect("head block")
            .clone();
        assert_eq!(head.rank, 0, "schedule priority wins the tie");
        // The node that adopted the fallback first had to reorg onto the
        // scheduled leader's block.
        assert_eq!(fallback_first.reorgs(), 1);
        assert_eq!(rank_first.reorgs(), 0);
    }

    #[test]
    fn longer_chains_beat_schedule_priority() {
        let mut t = tracker();
        let fallback = forge(&t, 1, 1, advance_ops(1));
        let mut ahead = tracker();
        ahead.insert(fallback.clone());
        let child = forge(&ahead, 2, 0, advance_ops(2));
        let leader_late = forge(&t, 1, 0, advance_ops(1));
        t.insert(fallback);
        t.insert(child.clone());
        // The scheduled leader's lone block arrives last: height wins, the
        // two-block fallback branch stays the head.
        t.insert(leader_late);
        assert_eq!(t.head(), child.hash());
        assert_eq!(t.head_height(), 2);
    }

    #[test]
    fn equivocation_records_evidence_and_every_node_picks_the_same_winner() {
        // The slot-1 leader signs two different blocks; a fallback block
        // for the same slot also exists. Whatever the arrival order, the
        // equivocator's blocks are discarded and the fallback wins.
        let base = tracker();
        let a = forge(&base, 1, 0, advance_ops(1));
        let a2 = forge(&base, 1, 0, vec![Op::AdvanceTo { target: 31 }]);
        let b = forge(&base, 1, 1, advance_ops(1));
        assert_ne!(a.hash(), a2.hash());
        let proposer = a.proposer;

        let orders: [[&SealedBlock; 3]; 3] = [[&a, &a2, &b], [&a2, &b, &a], [&b, &a, &a2]];
        let mut heads = Vec::new();
        for order in orders {
            let mut t = tracker();
            let mut convicted = false;
            for block in order {
                if let InsertOutcome::Equivocation { slot, proposer: p } = t.insert(block.clone()) {
                    assert_eq!((slot, p), (1, proposer));
                    convicted = true;
                }
            }
            assert!(convicted, "the conflicting pair must convict");
            assert_eq!(t.evidence().len(), 1);
            assert!(t.banned_proposers().contains(&proposer));
            // Future blocks by the equivocator bounce at the door.
            let late = forge(
                &t,
                4,
                t.schedule().rank_of(4, proposer).map_or(0, |r| r as u32),
                advance_ops(4),
            );
            if late.proposer == proposer {
                assert_eq!(
                    t.insert(late),
                    InsertOutcome::Rejected(RejectReason::BannedProposer)
                );
            }
            heads.push(t.head());
        }
        assert!(heads.windows(2).all(|w| w[0] == w[1]), "identical winner");
        assert_eq!(heads[0], b.hash(), "the honest fallback block survives");
    }

    #[test]
    fn lying_roots_get_the_block_banned_not_adopted() {
        let mut t = tracker();
        let mut liar = forge(&t, 1, 0, advance_ops(1));
        liar.state_root = sha256(b"not the real root");
        let hash = liar.hash();
        assert_eq!(
            t.insert(liar),
            InsertOutcome::Attached {
                head_changed: false,
                reorged: false
            }
        );
        assert_eq!(t.head_height(), 0, "liar never adopted");
        assert_eq!(t.verify_failures(), 1);
        // An honest block for the same slot from the fallback proceeds.
        let honest = forge(&t, 1, 1, advance_ops(1));
        assert_eq!(
            t.insert(honest.clone()),
            InsertOutcome::Attached {
                head_changed: true,
                reorged: false
            }
        );
        assert_eq!(t.head(), honest.hash());
        assert_ne!(t.head(), hash);
    }

    /// A scheduled proposer may fill its block with ops no honest client
    /// sends: a rewinding `AdvanceTo`, faults on an unknown sector and a
    /// mint past the token supply. Each fails as a logged receipt on every
    /// replica, never a panic, and the block is adopted like any other.
    #[test]
    fn hostile_ops_in_a_block_fail_as_receipts() {
        let mut t = tracker();
        let b1 = forge(&t, 1, 0, advance_ops(1));
        t.insert(b1.clone());
        let unknown = fi_core::types::SectorId(u64::MAX);
        let hostile = vec![
            Op::AdvanceTo { target: 1 },
            Op::FailSector { sector: unknown },
            Op::CorruptSector { sector: unknown },
            Op::Fund {
                account: AccountId(900),
                amount: TokenAmount(u128::MAX),
            },
            Op::AdvanceTo { target: 60 },
        ];
        let b2 = forge(&t, 2, 0, hostile);
        let mut other = tracker();
        other.insert(b1);
        for tracker in [&mut t, &mut other] {
            assert_eq!(
                tracker.insert(b2.clone()),
                InsertOutcome::Attached {
                    head_changed: true,
                    reorged: false
                }
            );
            assert_eq!(tracker.head(), b2.hash());
            let log = tracker.engine().op_log().to_vec();
            let outcomes: Vec<bool> = log[log.len() - 5..].iter().map(|r| r.ok).collect();
            assert_eq!(outcomes, [false, false, false, false, true]);
        }
        assert_eq!(t.verify_failures() + other.verify_failures(), 0);
        assert_eq!(t.engine().state_root(), other.engine().state_root());
        assert_eq!(other.engine().state_root(), b2.state_root);
    }

    #[test]
    fn wrong_proposer_and_bad_lineage_rejected() {
        let mut t = tracker();
        let mut wrong = forge(&t, 1, 0, advance_ops(1));
        // Claim rank 1 while keeping rank 0's proposer (they differ for
        // any slot where order[0] != order[1], true by construction).
        wrong.rank = 1;
        if t.schedule().leader(1, 1) != Some(wrong.proposer) {
            assert_eq!(
                t.insert(wrong),
                InsertOutcome::Rejected(RejectReason::NotScheduled)
            );
        }
        let good = forge(&t, 1, 0, advance_ops(1));
        t.insert(good);
        // A properly-scheduled child claiming the wrong height.
        let mut bad_height = forge(&t, 2, 0, advance_ops(2));
        bad_height.height = 3;
        assert_eq!(
            t.insert(bad_height),
            InsertOutcome::Rejected(RejectReason::BadLineage)
        );
    }

    // ------------------------------------------------------------------
    // The incremental tree against a from-scratch oracle, and its cost.
    // ------------------------------------------------------------------

    use fi_core::engine::StateView;
    use fi_crypto::DetRng;

    /// The fork-choice this module used to run on every insert — a
    /// recursion over every block ever attached — kept as the oracle.
    fn oracle_best_from(t: &ChainTracker, node: Hash256, height: u64) -> (u64, Hash256) {
        let mut best: Option<(u64, Hash256, (u32, u64, Hash256))> = None;
        for &child in t.children.get(&node).into_iter().flatten() {
            if t.banned_blocks.contains(&child) {
                continue;
            }
            let cb = &t.blocks[&child].block;
            let (tip_height, tip) = oracle_best_from(t, child, cb.height);
            let key = (cb.rank, cb.slot, child);
            let better = match &best {
                None => true,
                Some((bh, _, bkey)) => tip_height > *bh || (tip_height == *bh && key < *bkey),
            };
            if better {
                best = Some((tip_height, tip, key));
            }
        }
        match best {
            Some((h, tip, _)) => (h, tip),
            None => (height, node),
        }
    }

    /// Everything the tracker answers from its spine and its committed-op
    /// multiset, recomputed by walking the tree from the oracle's tip.
    fn assert_matches_oracle(t: &ChainTracker, rng: &mut DetRng, known: &[Hash256]) {
        let (tip_height, tip) = oracle_best_from(t, t.anchor, t.anchor_height);
        assert_eq!(t.head(), tip, "head");
        assert_eq!(t.head_height(), tip_height, "head height");
        let mut path = Vec::new();
        let mut at = tip;
        while at != t.anchor {
            let block = &t.blocks[&at].block;
            path.push((block.height, at));
            at = block.parent;
        }
        path.reverse();
        assert_eq!(t.chain_ids(), path, "chain ids");
        let tip_slot = path
            .last()
            .map_or(t.anchor_slot, |(_, h)| t.blocks[h].block.slot);
        assert_eq!(t.head_slot(), tip_slot, "head slot");

        // The locator, by the pre-spine algorithm over the walked path.
        let mut locator = Vec::new();
        let (mut step, mut back) = (1usize, 0usize);
        while back < path.len() {
            locator.push(path[path.len() - 1 - back].1);
            if locator.len() >= 8 {
                step *= 2;
            }
            back += step;
        }
        if let Some(&(_, oldest)) = path.first() {
            if locator.last() != Some(&oldest) {
                locator.push(oldest);
            }
        }
        assert_eq!(t.locator(), locator, "locator");

        // The fork point of a peer locator drawn from every block ever
        // forged (on the chain, off it, not delivered yet) plus a stranger.
        let draws = if known.is_empty() { 0 } else { rng.below(6) };
        let mut peer: Vec<Hash256> = (0..draws).map(|_| known[rng.index(known.len())]).collect();
        peer.push(sha256(b"a hash nobody has"));
        let expect = peer
            .iter()
            .filter_map(|h| path.iter().find(|(_, x)| x == h).map(|&(height, _)| height))
            .max()
            .unwrap_or(0);
        assert_eq!(t.fork_point(&peer), expect, "fork point");

        let (above, limit) = (rng.below(tip_height + 2), rng.index(6));
        let expect: Vec<Hash256> = path
            .iter()
            .filter(|(height, _)| *height > above)
            .take(limit)
            .map(|&(_, h)| h)
            .collect();
        let served: Vec<Hash256> = t
            .blocks_above(above, limit)
            .iter()
            .map(SealedBlock::hash)
            .collect();
        assert_eq!(served, expect, "blocks above {above}, at most {limit}");

        // `committed`, rebuilt from scratch along the best chain.
        let mut committed = HashMap::new();
        for &(height, hash) in &path {
            for op in &t.blocks[&hash].block.ops {
                commit_digest(&mut committed, op.digest(), height);
            }
        }
        assert_eq!(t.committed, committed, "committed-op multiset");
        assert!(t.engine().events().is_empty(), "events drained per block");
    }

    /// The test's side of the network: every block forged so far with the
    /// engine state after it, as its remote proposer would hold it.
    struct Forge {
        schedule: ProposerSchedule,
        /// block hash → (state after it, height, slot).
        states: HashMap<Hash256, (Engine, u64, u64)>,
        /// `(slot, proposer)` pairs spent — a second block for one would
        /// be an equivocation.
        used: HashSet<(u64, NodeIdx)>,
        known: Vec<Hash256>,
    }

    impl Forge {
        fn new(t: &ChainTracker) -> Self {
            Forge {
                schedule: t.schedule().clone(),
                states: HashMap::from([(t.head(), (t.engine().clone(), 0, 0))]),
                used: HashSet::new(),
                known: Vec::new(),
            }
        }

        fn free(&self, slot: u64, rank: u32) -> bool {
            let proposer = self.schedule.leader(slot, rank as usize).expect("rank");
            !self.used.contains(&(slot, proposer))
        }

        /// A valid block for `(slot, rank)` on `parent`; `lie` replaces
        /// its claimed state root.
        fn block(
            &mut self,
            parent: Hash256,
            slot: u64,
            rank: u32,
            ops: Vec<Op>,
            lie: bool,
        ) -> SealedBlock {
            let proposer = self.schedule.leader(slot, rank as usize).expect("rank");
            let (engine, parent_height, parent_slot) = &self.states[&parent];
            assert!(slot > *parent_slot);
            let mut engine = engine.clone();
            for op in ops.iter().cloned() {
                let _ = engine.apply(op);
            }
            engine.take_events();
            let block = SealedBlock {
                slot,
                rank,
                proposer,
                height: parent_height + 1,
                parent,
                ops,
                state_root: if lie {
                    sha256(b"not the real root")
                } else {
                    engine.state_root()
                },
                head_hash: engine.chain().head_hash(),
                receipt_root: last_receipt_root(&engine),
            };
            self.record(&block, engine);
            block
        }

        fn record(&mut self, block: &SealedBlock, state: Engine) {
            let hash = block.hash();
            self.used.insert((block.slot, block.proposer));
            self.states.insert(hash, (state, block.height, block.slot));
            self.known.push(hash);
        }
    }

    /// A few `Fund`s out of three possible ones — so the same op lands in
    /// many blocks, on and off the best chain — plus the slot's barrier.
    fn random_ops(rng: &mut DetRng, slot: u64) -> Vec<Op> {
        let mut ops: Vec<Op> = (0..rng.below(3))
            .map(|_| Op::Fund {
                account: AccountId(900),
                amount: TokenAmount(1 + rng.below(3) as u128),
            })
            .collect();
        ops.push(Op::AdvanceTo { target: slot * 30 });
        ops
    }

    /// What one differential run exercised.
    #[derive(Default)]
    struct Seen {
        orphaned: u64,
        duplicate_commits: bool,
        /// The healed partition's branch took the head (it does unless a
        /// conviction banned one of its proposers).
        deep_reorg: bool,
    }

    /// The partitioned minority's proposer for `slot` (rank 2) is not a
    /// convicted equivocator, whose blocks the node would refuse.
    fn minority_may_speak(t: &ChainTracker, forge: &Forge, slot: u64) -> bool {
        let proposer = forge.schedule.leader(slot, 2).expect("rank");
        !t.banned_proposers().contains(&proposer)
    }

    fn differential_run(seed: u64) -> (ChainTracker, Seen) {
        const SLOTS: u64 = 48;
        const PARTITION_AT: u64 = 16;
        let mut rng = DetRng::from_seed_label(seed, "fi-node/chain-differential");
        let schedule = ProposerSchedule::new(
            RandomBeacon::new(seed),
            VALIDATORS.to_vec(),
            VALIDATORS.len(),
        );
        let mut t = ChainTracker::new(genesis(), schedule);
        let mut forge = Forge::new(&t);
        let mut seen = Seen::default();
        let mut handed = 0u64;
        // Forged but not delivered yet; and the healed partition's branch,
        // held back until the end.
        let mut pending: Vec<SealedBlock> = Vec::new();
        let mut partition: Vec<SealedBlock> = Vec::new();
        let mut delivered: Vec<SealedBlock> = Vec::new();
        // Parents the main tree forges on: the last few blocks, any branch.
        let mut recent: Vec<(Hash256, u64)> = vec![(t.head(), 0)];
        let (mut equivocated, mut lied) = (false, false);

        macro_rules! check {
            () => {{
                assert_matches_oracle(&t, &mut rng, &forge.known);
                assert_eq!(t.work().ops_digested, handed, "one digest per op handed in");
                assert_eq!(
                    t.engine().state_root(),
                    forge.states[&t.head()].0.state_root(),
                    "the head engine is the state at the head"
                );
                seen.duplicate_commits |= t.committed.values().any(|&(_, n)| n > 1);
            }};
        }
        macro_rules! deliver {
            ($block:expr) => {{
                let block: SealedBlock = $block;
                handed += block.ops.len() as u64;
                delivered.push(block.clone());
                let outcome = t.insert(block);
                seen.orphaned += u64::from(matches!(outcome, InsertOutcome::Orphaned { .. }));
                check!();
                outcome
            }};
        }

        for slot in 1..=SLOTS {
            // The main tree: the leader's and the first fallback's blocks,
            // each on some recent block of a lower slot.
            for rank in 0..2 {
                if !rng.bernoulli(0.7) || !forge.free(slot, rank) {
                    continue;
                }
                let parents: Vec<Hash256> = recent
                    .iter()
                    .rev()
                    .take(4)
                    .filter(|(_, s)| *s < slot)
                    .map(|&(h, _)| h)
                    .collect();
                let parent = parents[rng.index(parents.len())];
                let block = forge.block(parent, slot, rank, random_ops(&mut rng, slot), false);
                recent.push((block.hash(), slot));
                pending.push(block);
            }
            // The partitioned minority builds its own branch, one block a
            // slot at the rank the majority never uses.
            if slot >= PARTITION_AT && equivocated && minority_may_speak(&t, &forge, slot) {
                // It split off half way down what is now the best chain.
                let split = t.best_chain().get(t.best_chain().len() / 2);
                let parent = partition
                    .last()
                    .map_or(*split.unwrap_or(&t.anchor), |b| b.hash());
                if forge.states[&parent].2 < slot {
                    let ops = random_ops(&mut rng, slot);
                    partition.push(forge.block(parent, slot, 2, ops, false));
                }
            }
            // Out-of-order delivery, with the odd duplicate.
            while !pending.is_empty() && rng.bernoulli(0.55) {
                let block = pending.swap_remove(rng.index(pending.len()));
                deliver!(block);
            }
            if !delivered.is_empty() && rng.bernoulli(0.15) {
                let again = delivered[rng.index(delivered.len())].clone();
                assert!(!matches!(
                    deliver!(again),
                    InsertOutcome::Attached { .. } | InsertOutcome::Equivocation { .. }
                ));
            }
            let on_head = forge.states[&t.head()].2 < slot;
            match slot {
                // An equivocating leader: two blocks for one slot.
                12.. if !equivocated && on_head && forge.free(slot, 0) => {
                    equivocated = true;
                    let first = forge.block(t.head(), slot, 0, random_ops(&mut rng, slot), false);
                    let mut ops = random_ops(&mut rng, slot);
                    ops.insert(
                        0,
                        Op::Fund {
                            account: AccountId(900),
                            amount: TokenAmount(77),
                        },
                    );
                    let second = forge.block(t.head(), slot, 0, ops, false);
                    deliver!(first);
                    let proposer = second.proposer;
                    assert_eq!(
                        deliver!(second),
                        InsertOutcome::Equivocation { slot, proposer }
                    );
                }
                // A block that lies about its state root, on the head so
                // that fork-choice has to try it — and a child that is
                // never reachable.
                24.. if !lied
                    && on_head
                    && forge.free(slot, 0)
                    && !t
                        .banned_proposers()
                        .contains(&forge.schedule.leader(slot, 0).expect("rank")) =>
                {
                    lied = true;
                    let failures = t.verify_failures();
                    let liar = forge.block(t.head(), slot, 0, random_ops(&mut rng, slot), true);
                    let child = forge.block(
                        liar.hash(),
                        slot + 1,
                        1,
                        random_ops(&mut rng, slot + 1),
                        false,
                    );
                    deliver!(liar);
                    assert_eq!(t.verify_failures(), failures + 1);
                    deliver!(child);
                }
                // The node under test seals blocks of its own.
                _ if on_head && rng.bernoulli(0.2) && forge.free(slot, 1) => {
                    let proposer = forge.schedule.leader(slot, 1).expect("rank");
                    let ops = random_ops(&mut rng, slot);
                    handed += ops.len() as u64;
                    let block = t.seal_block(slot, 1, proposer, ops);
                    forge.record(&block, t.engine().clone());
                    recent.push((block.hash(), slot));
                    delivered.push(block);
                    check!();
                }
                _ => {}
            }
        }
        for block in std::mem::take(&mut pending) {
            deliver!(block);
        }
        // The partition heals: its branch — a few blocks longer than
        // anything the majority built — arrives in arbitrary order.
        let mut slot = SLOTS;
        while partition.last().expect("branch").height < t.head_height() + 3 {
            slot += 1;
            if minority_may_speak(&t, &forge, slot) {
                let parent = partition.last().expect("branch").hash();
                partition.push(forge.block(parent, slot, 2, random_ops(&mut rng, slot), false));
            }
        }
        let branch_tip = partition.last().expect("branch").hash();
        assert!(
            partition.len() > 2 * ENGINE_CACHE,
            "deeper than the engine cache"
        );
        rng.shuffle(&mut partition);
        let reorgs = t.reorgs();
        for block in partition {
            deliver!(block);
        }
        seen.deep_reorg = t.head() == branch_tip && t.reorgs() > reorgs;
        (t, seen)
    }

    #[test]
    fn incremental_tree_matches_the_from_scratch_oracle() {
        let (mut orphaned, mut duplicate_commits) = (0, false);
        let (mut convictions, mut lies, mut reorgs, mut deep_reorgs) = (0, 0, 0, 0);
        for seed in 0..6 {
            let (t, seen) = differential_run(seed);
            orphaned += seen.orphaned;
            duplicate_commits |= seen.duplicate_commits;
            deep_reorgs += u64::from(seen.deep_reorg);
            convictions += t.evidence().len();
            lies += t.verify_failures();
            reorgs += t.reorgs();
        }
        // The runs went through everything they are meant to.
        assert!(orphaned > 20, "out-of-order delivery: {orphaned} orphans");
        assert!(duplicate_commits, "an op committed twice on one chain");
        assert!(convictions >= 5, "{convictions} equivocations convicted");
        assert!(lies >= 5, "{lies} lying blocks banned");
        assert!(reorgs >= 12, "{reorgs} reorgs");
        assert!(deep_reorgs >= 4, "{deep_reorgs} healed-partition reorgs");
    }

    #[test]
    fn an_op_committed_twice_survives_abandoning_one_of_its_blocks() {
        let mut t = tracker();
        let twice = Op::Fund {
            account: AccountId(900),
            amount: TokenAmount(5),
        };
        let with_op = |slot: u64| vec![twice.clone(), Op::AdvanceTo { target: slot * 30 }];
        let first = forge(&t, 1, 0, with_op(1));
        t.insert(first);
        // Slot 2: the fallback's block commits the op again and lands
        // first; the leader's block, without it, then wins the tie.
        let second = forge(&t, 2, 1, with_op(2));
        let rival = forge(&t, 2, 0, advance_ops(2));
        t.insert(second);
        assert_eq!(t.committed[&twice.digest()], (1, 2));
        assert_eq!(
            t.insert(rival.clone()),
            InsertOutcome::Attached {
                head_changed: true,
                reorged: true
            }
        );
        assert_eq!(t.head(), rival.hash());
        // One commit left with the abandoned block; the other stands.
        assert!(t.op_committed(&twice.digest()));
        assert_eq!(t.committed[&twice.digest()], (1, 1));
        assert_eq!(t.committed_height(&twice.digest()), Some(1));
    }

    fn work_between(a: TrackerWork, b: TrackerWork) -> TrackerWork {
        TrackerWork {
            ops_digested: b.ops_digested - a.ops_digested,
            fork_choice_steps: b.fork_choice_steps - a.fork_choice_steps,
            blocks_replayed: b.blocks_replayed - a.blocks_replayed,
            engine_clones: b.engine_clones - a.engine_clones,
        }
    }

    /// 2 000 blocks with a sibling reorg every tenth: what the tracker
    /// does per block is the same at height 2 000 as at height 1.
    #[test]
    fn per_block_work_does_not_grow_with_height() {
        const BLOCKS: u64 = 2_000;
        let mut t = tracker();
        let mut handed = 0u64;
        let mut marks = vec![t.work()];
        for slot in 1..=BLOCKS {
            let leader = forge(&t, slot, 0, advance_ops(slot));
            if slot % 10 == 0 {
                // The fallback's block lands first; the leader's then
                // wins the tie and reorgs it away.
                let fallback = forge(&t, slot, 1, advance_ops(slot));
                handed += fallback.ops.len() as u64;
                t.insert(fallback);
            }
            handed += leader.ops.len() as u64;
            assert_eq!(
                t.insert(leader),
                InsertOutcome::Attached {
                    head_changed: true,
                    reorged: slot % 10 == 0
                }
            );
            if slot % 500 == 0 {
                marks.push(t.work());
            }
        }
        assert_eq!(t.head_height(), BLOCKS);
        assert_eq!(t.reorgs(), BLOCKS / 10);
        assert_eq!(t.work().ops_digested, handed, "exactly one digest per op");
        let first = work_between(marks[0], marks[1]);
        let last = work_between(marks[3], marks[4]);
        assert_eq!(first, last, "first 500 blocks vs last 500");
        // One replay per block handed in, one clone per adoption.
        assert_eq!(first.blocks_replayed, 550);
        assert_eq!(first.engine_clones, 550);
    }

    /// Fork-choice used to recurse once per block of the best chain; a
    /// long-lived validator ran out of stack. Nothing in the tracker may
    /// depend on the chain fitting the stack.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "20 000 blocks: run with --release")]
    fn a_long_chain_needs_no_deep_stack() {
        const BLOCKS: u64 = 20_000;
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut t = tracker();
                for slot in 1..=BLOCKS {
                    let block = forge(&t, slot, 0, advance_ops(slot));
                    assert_eq!(
                        t.insert(block),
                        InsertOutcome::Attached {
                            head_changed: true,
                            reorged: false
                        }
                    );
                }
                assert_eq!(t.head_height(), BLOCKS);
                assert_eq!(t.chain_ids().len() as u64, BLOCKS);
                assert_eq!(t.fork_point(&t.locator()), BLOCKS);
            })
            .expect("spawn")
            .join()
            .expect("no stack overflow");
    }
}
