//! Block production: heights, timestamps, event logs, state commitments,
//! and the per-height random beacon.
//!
//! The simulation runs a single deterministic block producer — the paper
//! assumes consensus security outright (§V-A), and notes the Expected
//! Consensus of Filecoin "can be directly applied" since all replicas are
//! PoRep-generated (§IV). What the protocol layer needs from consensus is:
//!
//! 1. a monotonically advancing **time** shared by all participants,
//! 2. an append-only **event log** (the "storing, discarding, state-changing
//!    events recorded in the blockchain", §I),
//! 3. a per-height **beacon value** feeding protocol randomness, and
//! 4. a **state commitment** chaining block to block.

use fi_crypto::{cached_domain, keyed_hash, Hash256, RandomBeacon};

use crate::tasks::Time;

/// An event recorded in a block. The payload is a human-readable tag plus
/// opaque detail; the protocol layer defines its own typed events and logs
/// their canonical encoding here for commitment purposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainEvent {
    /// Event kind tag (e.g. `"file.add"`).
    pub kind: String,
    /// Canonical payload bytes.
    pub payload: Vec<u8>,
}

impl ChainEvent {
    /// Creates an event.
    pub fn new(kind: impl Into<String>, payload: impl Into<Vec<u8>>) -> Self {
        ChainEvent {
            kind: kind.into(),
            payload: payload.into(),
        }
    }

    fn digest(&self) -> Hash256 {
        event_domain().hash(&[self.kind.as_bytes(), &self.payload])
    }
}

cached_domain!(fn event_domain, "chain/event");

/// The header of a sealed block. Its hash folded in the block's event
/// digests, op digests and declared state root when it sealed; the chain
/// keeps this header of its last block and drops the bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Height in the chain (genesis = 0).
    pub height: u64,
    /// Timestamp carried by the block.
    pub timestamp: Time,
    /// Hash of the previous block ([`Hash256::ZERO`] for genesis).
    pub parent: Hash256,
    /// Beacon value of this height.
    pub beacon_value: Hash256,
    /// Commitment over parent, events, op batch with its receipts and
    /// declared state root.
    pub block_hash: Hash256,
}

/// The chain: produces blocks at a fixed cadence, exposes the beacon and
/// the event sink for the current (open) block.
///
/// The chain keeps the header of its last sealed block and nothing older:
/// the head hash commits to every earlier block, so its memory does not
/// grow with the height and a clone copies a fixed-size value.
///
/// Time stops at the open block's boundary until the block seals, so what
/// runs at the boundary itself (due tasks) still lands in that block.
///
/// # Example
///
/// ```
/// use fi_chain::{BlockChain, ChainEvent};
/// use fi_crypto::Hash256;
///
/// let mut chain = BlockChain::new(42, 10); // seed 42, one block per 10 ticks
/// chain.advance_time(10);
/// chain.log(ChainEvent::new("file.add", b"f1".to_vec())); // at the boundary
/// chain.seal(Hash256::ZERO);
/// assert!(chain.open_events().is_empty() && chain.height() == 1);
/// assert_eq!(chain.next_boundary(), Some(20));
/// assert_eq!(chain.last_block().map(|b| b.block_hash), Some(chain.head_hash()));
/// ```
#[derive(Debug, Clone)]
pub struct BlockChain {
    beacon: RandomBeacon,
    block_interval: Time,
    now: Time,
    height: u64,
    head_hash: Hash256,
    open_events: Vec<ChainEvent>,
    /// `(op digest, receipt digest)` pairs applied since the last seal.
    open_ops: Vec<(Hash256, Hash256)>,
    /// Header of the last block this instance sealed (genesis for a new
    /// chain; none for a restored chain until it seals one).
    last: Option<Block>,
}

impl BlockChain {
    /// Creates a chain with its genesis block at time 0.
    ///
    /// # Panics
    ///
    /// Panics if `block_interval == 0`.
    pub fn new(seed: u64, block_interval: Time) -> Self {
        assert!(block_interval > 0, "block interval must be positive");
        let beacon = RandomBeacon::new(seed);
        let genesis_beacon = beacon.value_at(0);
        let genesis_hash = keyed_hash("chain/genesis", &[genesis_beacon.as_ref()]);
        BlockChain {
            beacon,
            block_interval,
            now: 0,
            height: 0,
            head_hash: genesis_hash,
            open_events: Vec::new(),
            open_ops: Vec::new(),
            last: Some(Block {
                height: 0,
                timestamp: 0,
                parent: Hash256::ZERO,
                beacon_value: genesis_beacon,
                block_hash: genesis_hash,
            }),
        }
    }

    /// Rebuilds a chain mid-flight from snapshot state: the beacon is
    /// re-derived from `seed`, the head is pinned to `(height, head_hash)`,
    /// and the open (not yet sealed) events and op batch are reinstated.
    /// Snapshots carry no block header, so [`Self::last_block`] of a
    /// restored chain is `None` until it seals a block.
    ///
    /// # Panics
    ///
    /// Panics if `block_interval == 0` or `now` lies outside the open
    /// block's interval `[height, height + 1] × block_interval`.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        seed: u64,
        block_interval: Time,
        now: Time,
        height: u64,
        head_hash: Hash256,
        open_events: Vec<ChainEvent>,
        open_ops: Vec<(Hash256, Hash256)>,
    ) -> Self {
        assert!(block_interval > 0, "block interval must be positive");
        assert!(
            height.checked_mul(block_interval).is_some_and(|sealed| {
                now >= sealed
                    && sealed
                        .checked_add(block_interval)
                        .is_none_or(|open| now <= open)
            }),
            "time outside the open block's interval"
        );
        BlockChain {
            beacon: RandomBeacon::new(seed),
            block_interval,
            now,
            height,
            head_hash,
            open_events,
            open_ops,
            last: None,
        }
    }

    /// Current consensus time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Current height (sealed blocks).
    pub fn height(&self) -> u64 {
        self.height
    }

    /// The beacon shared by all participants.
    pub fn beacon(&self) -> &RandomBeacon {
        &self.beacon
    }

    /// Beacon value of the current height.
    pub fn current_beacon_value(&self) -> Hash256 {
        self.beacon.value_at(self.height)
    }

    /// Appends an event to the open block.
    pub fn log(&mut self, event: ChainEvent) {
        self.open_events.push(event);
    }

    /// Records one applied protocol op in the open block's batch: the op's
    /// digest plus the digest of its receipt (success or failure — failed
    /// ops still consume gas and belong to the batch).
    pub fn log_op(&mut self, op_digest: Hash256, receipt_digest: Hash256) {
        self.open_ops.push((op_digest, receipt_digest));
    }

    /// The events logged into the currently open (unsealed) block, in
    /// order. Part of the snapshot surface: they are folded into the next
    /// sealed block's hash, so restoring a chain must reinstate them.
    pub fn open_events(&self) -> &[ChainEvent] {
        &self.open_events
    }

    /// The `(op digest, receipt digest)` pairs of the currently open
    /// block's batch, in application order (snapshot surface, like
    /// [`BlockChain::open_events`]).
    pub fn open_ops(&self) -> &[(Hash256, Hash256)] {
        &self.open_ops
    }

    /// Header of the last sealed block: genesis for a chain that has
    /// sealed nothing yet, `None` for a restored chain until its first
    /// seal.
    pub fn last_block(&self) -> Option<&Block> {
        self.last.as_ref()
    }

    /// Hash of the chain head.
    pub fn head_hash(&self) -> Hash256 {
        self.head_hash
    }

    /// The time the open block seals at; `None` past `Time::MAX`, where no
    /// further block ever seals.
    pub fn next_boundary(&self) -> Option<Time> {
        self.height
            .checked_add(1)
            .and_then(|next| next.checked_mul(self.block_interval))
    }

    /// Moves consensus time to `target`, at most to the open block's
    /// boundary.
    ///
    /// # Panics
    ///
    /// Panics if `target < now` or past the open block's boundary: that
    /// block must [`seal`](Self::seal) first.
    pub fn advance_time(&mut self, target: Time) {
        assert!(target >= self.now, "time cannot rewind");
        assert!(
            self.next_boundary()
                .is_none_or(|boundary| target <= boundary),
            "seal the open block before passing its boundary"
        );
        self.now = target;
    }

    /// Seals the open block at its boundary, where time must stand:
    /// hashes its events, op batch, receipts and `state_root` (the state
    /// the block ends in; [`Hash256::ZERO`] when untracked) into the new
    /// head, then drops them.
    ///
    /// # Panics
    ///
    /// Panics unless time stands at the open block's boundary.
    pub fn seal(&mut self, state_root: Hash256) {
        assert_eq!(
            Some(self.now),
            self.next_boundary(),
            "a block seals at its boundary"
        );
        self.height += 1;
        let beacon_value = self.beacon.value_at(self.height);
        let events = std::mem::take(&mut self.open_events);
        let mut event_digests: Vec<u8> = Vec::with_capacity(events.len() * 32);
        for e in &events {
            event_digests.extend_from_slice(e.digest().as_ref());
        }
        let ops = std::mem::take(&mut self.open_ops);
        let mut op_bytes: Vec<u8> = Vec::with_capacity(ops.len() * 32);
        let mut receipt_bytes: Vec<u8> = Vec::with_capacity(ops.len() * 32);
        for (op, receipt) in &ops {
            op_bytes.extend_from_slice(op.as_ref());
            receipt_bytes.extend_from_slice(receipt.as_ref());
        }
        let receipt_root = if ops.is_empty() {
            Hash256::ZERO
        } else {
            keyed_hash("chain/receipts", &[&receipt_bytes])
        };
        let block_hash = keyed_hash(
            "chain/block",
            &[
                self.head_hash.as_ref(),
                &self.height.to_be_bytes(),
                &self.now.to_be_bytes(),
                beacon_value.as_ref(),
                &event_digests,
                &op_bytes,
                receipt_root.as_ref(),
                state_root.as_ref(),
            ],
        );
        self.last = Some(Block {
            height: self.height,
            timestamp: self.now,
            parent: self.head_hash,
            beacon_value,
            block_hash,
        });
        self.head_hash = block_hash;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Moves `chain` to `target`, sealing each boundary on the way with
    /// `root`. Returns the heights sealed.
    fn advance(chain: &mut BlockChain, target: Time, root: Hash256) -> Vec<u64> {
        let mut sealed = Vec::new();
        while let Some(boundary) = chain.next_boundary().filter(|&b| b <= target) {
            chain.advance_time(boundary);
            chain.seal(root);
            sealed.push(chain.height());
        }
        chain.advance_time(target);
        sealed
    }

    #[test]
    fn seals_one_block_per_interval() {
        let mut chain = BlockChain::new(1, 10);
        let genesis = *chain.last_block().expect("genesis");
        assert_eq!(advance(&mut chain, 35, Hash256::ZERO), [1, 2, 3]);
        assert_eq!(chain.now(), 35);
        assert_eq!(chain.height(), 3);
        let last = chain.last_block().expect("sealed");
        assert_eq!((last.height, last.timestamp), (3, 30));
        assert_eq!(last.block_hash, chain.head_hash());
        assert_ne!(last.parent, genesis.block_hash, "the parent is block 2");
    }

    /// An event folds into the hash of the block sealing after it is
    /// logged — one logged at the boundary itself too — and leaves the
    /// open block when it does.
    #[test]
    fn events_land_in_next_sealed_block() {
        let event = || ChainEvent::new("a", b"1".to_vec());
        let mut plain = BlockChain::new(2, 10);
        let mut early = plain.clone();
        let mut at_boundary = plain.clone();
        let mut late = plain.clone();
        early.log(event());
        for chain in [&mut plain, &mut early, &mut at_boundary, &mut late] {
            chain.advance_time(10);
        }
        at_boundary.log(event());
        for chain in [&mut plain, &mut early, &mut at_boundary, &mut late] {
            chain.seal(Hash256::ZERO);
        }
        assert!(early.open_events().is_empty());
        assert!(at_boundary.open_events().is_empty());
        assert_ne!(early.head_hash(), plain.head_hash());
        assert_eq!(at_boundary.head_hash(), early.head_hash());
        assert_eq!(late.head_hash(), plain.head_hash());

        late.log(event());
        advance(&mut plain, 20, Hash256::ZERO);
        advance(&mut late, 20, Hash256::ZERO);
        assert_ne!(late.head_hash(), plain.head_hash());
    }

    #[test]
    fn deterministic_given_seed_and_inputs() {
        let build = || {
            let mut c = BlockChain::new(7, 5);
            c.log(ChainEvent::new("x", b"p".to_vec()));
            advance(&mut c, 17, Hash256::ZERO);
            c.head_hash()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn state_root_affects_block_hash() {
        let mut a = BlockChain::new(3, 5);
        let mut b = BlockChain::new(3, 5);
        advance(&mut a, 5, Hash256::ZERO);
        advance(&mut b, 5, fi_crypto::sha256(b"state"));
        assert_ne!(a.head_hash(), b.head_hash());
    }

    #[test]
    fn partial_interval_advances_time_only() {
        let mut chain = BlockChain::new(4, 10);
        let head = chain.head_hash();
        chain.advance_time(9);
        assert_eq!(chain.now(), 9);
        assert_eq!(chain.height(), 0);
        assert_eq!(chain.head_hash(), head);
        // The open event stays queued until a block seals; reaching the
        // boundary does not seal it.
        chain.log(ChainEvent::new("pending", b"".to_vec()));
        chain.advance_time(10);
        assert_eq!((chain.open_events().len(), chain.height()), (1, 0));
        chain.seal(Hash256::ZERO);
        assert_eq!((chain.open_events().len(), chain.height()), (0, 1));
    }

    /// The open block seals at the next multiple of the interval: from a
    /// time on the boundary grid or off it, inside an interval or across
    /// several, moving to `target` seals one block per boundary passed.
    #[test]
    fn blocks_seal_at_absolute_boundaries() {
        for start in [0, 3, 10, 17, 20] {
            for target in start..start + 35 {
                let mut chain = BlockChain::new(6, 10);
                advance(&mut chain, start, Hash256::ZERO);
                assert_eq!(chain.next_boundary(), Some((start / 10 + 1) * 10));
                let sealed = advance(&mut chain, target, Hash256::ZERO);
                assert_eq!(sealed.len() as u64, target / 10 - start / 10);
            }
        }
    }

    /// Near the top of the time range the next boundary may not fit a
    /// `Time`: such a boundary is never reached, and one that does fit
    /// still seals.
    #[test]
    fn boundaries_past_the_time_range_never_seal() {
        let top = Time::MAX / 10;
        let mut last = BlockChain::restore(6, 10, top * 10, top, Hash256::ZERO, vec![], vec![]);
        assert_eq!(last.next_boundary(), None);
        last.advance_time(Time::MAX);
        assert_eq!((last.height(), last.now()), (top, Time::MAX));

        let mut below =
            BlockChain::restore(6, 10, top * 10 - 10, top - 1, Hash256::ZERO, vec![], vec![]);
        assert_eq!(advance(&mut below, Time::MAX, Hash256::ZERO), [top]);
        assert_eq!(below.height(), top);

        let end = BlockChain::restore(6, 1, Time::MAX, Time::MAX, Hash256::ZERO, vec![], vec![]);
        assert_eq!(end.next_boundary(), None);
    }

    #[test]
    #[should_panic(expected = "time cannot rewind")]
    fn rewind_panics() {
        let mut chain = BlockChain::new(5, 10);
        advance(&mut chain, 20, Hash256::ZERO);
        chain.advance_time(19);
    }

    #[test]
    #[should_panic(expected = "seal the open block before passing its boundary")]
    fn time_cannot_pass_an_open_boundary() {
        let mut chain = BlockChain::new(5, 10);
        chain.advance_time(10);
        chain.advance_time(11);
    }

    #[test]
    #[should_panic(expected = "a block seals at its boundary")]
    fn a_block_seals_only_at_its_boundary() {
        let mut chain = BlockChain::new(5, 10);
        chain.advance_time(9);
        chain.seal(Hash256::ZERO);
    }

    /// The head commits to every earlier block: rewriting one event of
    /// block 1 moves the head two blocks later.
    #[test]
    fn rewritten_history_moves_the_head() {
        let head = |payload: &[u8]| {
            let mut chain = BlockChain::new(8, 10);
            chain.log(ChainEvent::new("x", payload.to_vec()));
            advance(&mut chain, 30, Hash256::ZERO);
            chain.head_hash()
        };
        assert_eq!(head(b"1"), head(b"1"));
        assert_ne!(head(b"1"), head(b"2"));
    }

    #[test]
    fn op_batch_lands_in_next_sealed_block_and_commits() {
        let op = fi_crypto::sha256(b"op");
        let receipt = fi_crypto::sha256(b"receipt");
        let mut a = BlockChain::new(9, 10);
        a.log_op(op, receipt);
        advance(&mut a, 10, Hash256::ZERO);
        assert!(a.open_ops().is_empty());
        let head_1 = a.head_hash();

        // No batch, a different receipt, or a different op changes the
        // block commitment.
        let mut empty = BlockChain::new(9, 10);
        advance(&mut empty, 10, Hash256::ZERO);
        assert_ne!(head_1, empty.head_hash());
        for (op, receipt) in [(op, fi_crypto::sha256(b"other")), (receipt, receipt)] {
            let mut b = BlockChain::new(9, 10);
            b.log_op(op, receipt);
            advance(&mut b, 10, Hash256::ZERO);
            assert_ne!(head_1, b.head_hash());
        }
    }

    /// A chain restored from its own mid-flight state (head + open
    /// events/ops) seals byte-identical future blocks: the snapshot surface
    /// carries everything the next seal folds in. It reports no last
    /// block until it seals one, then the live chain's.
    #[test]
    fn restored_chain_continues_identically() {
        let mut live = BlockChain::new(11, 10);
        live.log(ChainEvent::new("pre", b"1".to_vec()));
        advance(&mut live, 25, Hash256::ZERO);
        live.log(ChainEvent::new("open", b"2".to_vec()));
        live.log_op(fi_crypto::sha256(b"op"), fi_crypto::sha256(b"rcpt"));

        let mut restored = BlockChain::restore(
            11,
            10,
            live.now(),
            live.height(),
            live.head_hash(),
            live.open_events().to_vec(),
            live.open_ops().to_vec(),
        );
        assert_eq!(restored.last_block(), None);
        restored.advance_time(29);
        assert_eq!(restored.last_block(), None, "no seal, no header");
        live.advance_time(29);

        let root = fi_crypto::sha256(b"root");
        assert_eq!(
            advance(&mut live, 30, root),
            advance(&mut restored, 30, root)
        );
        assert_eq!(live.last_block(), restored.last_block());
        assert!(
            restored.open_ops().is_empty(),
            "the restored open batch sealed"
        );
        advance(&mut live, 50, root);
        advance(&mut restored, 50, root);
        assert_eq!(live.head_hash(), restored.head_hash());
        assert_eq!(live.height(), restored.height());
        assert_eq!(live.last_block(), restored.last_block());
    }

    /// A restored chain whose time passes its open block's boundary could
    /// never move again without rewinding, so restore refuses it.
    #[test]
    #[should_panic(expected = "time outside the open block's interval")]
    fn restore_refuses_time_past_the_open_boundary() {
        BlockChain::restore(11, 10, 21, 1, Hash256::ZERO, vec![], vec![]);
    }

    /// Sealing 100 000 empty intervals in one advance seals what 100 000
    /// one-interval advances do, and keeps one header either way.
    #[test]
    fn a_far_jump_seals_what_single_steps_seal() {
        const INTERVALS: u64 = 100_000;
        let root = fi_crypto::sha256(b"root");
        let start = |chain: &mut BlockChain| {
            chain.log(ChainEvent::new("e", b"1".to_vec()));
            chain.log_op(fi_crypto::sha256(b"op"), fi_crypto::sha256(b"rcpt"));
        };
        let mut jump = BlockChain::new(12, 10);
        start(&mut jump);
        assert_eq!(
            advance(&mut jump, INTERVALS * 10, root).len() as u64,
            INTERVALS
        );

        let mut steps = BlockChain::new(12, 10);
        start(&mut steps);
        for height in 1..=INTERVALS {
            assert_eq!(advance(&mut steps, height * 10, root), [height]);
        }
        assert_eq!(jump.height(), steps.height());
        assert_eq!(jump.head_hash(), steps.head_hash());
        assert_eq!(jump.last_block(), steps.last_block());
        assert_eq!(jump.last_block().expect("sealed").height, INTERVALS);
    }

    #[test]
    fn beacon_is_height_indexed() {
        let mut chain = BlockChain::new(6, 10);
        let b0 = chain.current_beacon_value();
        advance(&mut chain, 10, Hash256::ZERO);
        let b1 = chain.current_beacon_value();
        assert_ne!(b0, b1);
        assert_eq!(b1, chain.beacon().value_at(1));
    }
}
