//! A copy-on-write hash-array-mapped trie persisted as content-addressed
//! blockstore nodes — the persistent `bytes → bytes` map behind the
//! engine's state commitment (DESIGN.md §15).
//!
//! # Shape
//!
//! Keys are routed by their SHA-256 hash, consumed 5 bits per level
//! ([`FANOUT`] = 32 slots per node, up to [`MAX_DEPTH`] levels). Each
//! occupied slot holds either a **bucket** of up to [`BUCKET_SIZE`]
//! key-value pairs (sorted by key bytes) or a link to a **child** node.
//! A slot becomes a child exactly when more than [`BUCKET_SIZE`] keys
//! share its hash prefix, and collapses back into a bucket as soon as
//! deletions bring the subtree to [`BUCKET_SIZE`] or fewer pairs.
//!
//! # Canonical form
//!
//! Those two rules make the trie **history-independent**: the structure —
//! and therefore the root hash — is a pure function of the key-value set,
//! not of the insert/delete order that produced it, nor of when it was
//! committed or flushed in between. Two engines that mutate their maps in
//! different orders (different shard counts, different ingest
//! interleavings) still converge on bit-identical roots, and a batch of
//! changes can be merged in directly ([`Hamt::merge`]: sorted by nibble
//! path, each touched node built once, deepest first) rather than
//! replayed one write at a time. The property tests in this module
//! shuffle mutation orders and replay merges write by write to pin this.
//!
//! # Commit is not persist
//!
//! A root hash costs hashing and nothing else: [`Hamt::commit`] hashes
//! the nodes mutation has touched and never sees a store.
//! [`Hamt::flush`] is commit plus persist — it also puts into the store
//! every node of *this* version the store has not received yet, and no
//! node of a version that was only ever committed and then superseded.
//! A node reached through a link is in one of four states:
//!
//! | state | resident | hash known | bytes in the store |
//! |---|---|---|---|
//! | dirty — mutated since the last commit | yes | no | no |
//! | hashed — committed, not yet flushed | yes | yes | no |
//! | clean — flushed | yes | yes | yes |
//! | stored — not loaded | no | yes (the link) | yes |
//!
//! A resident node carries the last two columns itself, in cells a
//! shared reference can fill in, so committing or flushing one clone of
//! a map seals the nodes it shares with the others instead of copying
//! them. Mutation clears both cells along the path it writes. Both
//! passes are one bottom-up walk ([`Hamt::flush`] is the same walk with
//! a `put`). A merge seals what it builds as it goes, and the top-level
//! groups of a map are disjoint: a [`Merge`] hands them out as jobs a
//! caller may run on threads of its own.
//!
//! # Copy-on-write
//!
//! In-memory nodes are held behind [`Arc`]s; cloning a [`Hamt`] is O(1)
//! and mutation copies only the path being written
//! ([`Arc::make_mut`]) — and copies a node only while a clone still
//! shares it, so a clone is a pinned version and a map nobody has cloned
//! is written in place. Every read — [`Hamt::get`], [`Hamt::walk`],
//! [`Hamt::prove`], [`Hamt::diff_new_nodes`], [`Hamt::diff_keys`] — uses a
//! resident node where it is and goes to the store only through a link
//! that was never loaded; a resident node's block is re-encoded on
//! demand, and those are the bytes a flush stores. Leaf buckets are kept
//! in their encoded form, so encoding a node is a copy per slot.
//!
//! # Defensive decoding
//!
//! Node bytes loaded from a store or carried in a proof are untrusted and
//! go through one parser (`SlotScanner`): truncation, bit flips,
//! unsorted buckets and over-deep paths (the only way a malicious store
//! can express a link cycle, since honest links are hashes of the child's
//! bytes) all surface as typed [`StoreError`]s, never a panic or an
//! unbounded traversal. The walks that enumerate a subtree — [`Hamt::walk`]
//! and [`Hamt::diff_keys`] — also refuse a stored node linked twice, so a
//! store cannot make them revisit one.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use fi_crypto::{sha256, Hash256};

use crate::blockstore::{block_hash, Blockstore, MemoryBlockstore, StoreError};

/// Slots per node: 5 bits of key hash per level.
pub const FANOUT: u32 = 32;
/// Maximum key-value pairs a leaf bucket holds before splitting into a
/// child node (except at [`MAX_DEPTH`], where buckets absorb full-hash
/// collisions unbounded).
pub const BUCKET_SIZE: usize = 3;
/// Deepest level: 51 five-bit steps consume 255 of the 256 hash bits.
/// Any traversal past this is structurally impossible for honest data,
/// so it is reported as corruption (a cycle-forming store would
/// otherwise loop forever).
pub const MAX_DEPTH: usize = 51;

/// The 5-bit slot index for `depth` steps into the key hash.
fn nibble(hash: &Hash256, depth: usize) -> u32 {
    let bit = depth * 5;
    let byte = bit / 8;
    let shift = bit % 8;
    let bytes = hash.as_bytes();
    let lo = bytes[byte] as u32;
    let hi = if byte + 1 < 32 {
        bytes[byte + 1] as u32
    } else {
        0
    };
    ((lo >> shift) | (hi << (8 - shift))) & (FANOUT - 1)
}

const TAG_BUCKET: u8 = 0;
const TAG_CHILD: u8 = 1;

/// A leaf bucket in its canonical encoded form — the exact bytes it
/// contributes to its node's encoding:
/// `[TAG_BUCKET][count u32]` then per pair `[klen u32][key][vlen u32][value]`,
/// keys strictly ascending. Only this module (and [`decode_node`], after
/// validating) builds one, so the accessors slice without re-checking.
#[derive(Debug, Clone)]
struct Bucket(Vec<u8>);

/// Tag byte plus pair count.
const BUCKET_HEADER: usize = 5;

impl Bucket {
    /// Sized exactly: buckets are most of a resident trie's memory.
    fn from_sorted(pairs: &[(&[u8], &[u8])]) -> Bucket {
        let body: usize = pairs.iter().map(|(k, v)| 8 + k.len() + v.len()).sum();
        let mut out = Vec::with_capacity(BUCKET_HEADER + body);
        out.push(TAG_BUCKET);
        out.extend_from_slice(&(pairs.len() as u32).to_be_bytes());
        for field in pairs.iter().flat_map(|&(k, v)| [k, v]) {
            out.extend_from_slice(&(field.len() as u32).to_be_bytes());
            out.extend_from_slice(field);
        }
        Bucket(out)
    }

    fn len(&self) -> usize {
        u32::from_be_bytes(self.0[1..BUCKET_HEADER].try_into().expect("4 bytes")) as usize
    }

    fn pairs(&self) -> Pairs<'_> {
        Pairs(&self.0[BUCKET_HEADER..])
    }

    fn get(&self, key: &[u8]) -> Option<&[u8]> {
        bucket_get(&self.0, key)
    }

    /// This bucket with `key` set to `value`, or removed.
    fn with(&self, key: &[u8], value: Option<&[u8]>) -> Bucket {
        let mut pairs: Vec<_> = self.pairs().filter(|(k, _)| *k != key).collect();
        if let Some(value) = value {
            let at = pairs.partition_point(|(k, _)| *k < key);
            pairs.insert(at, (key, value));
        }
        Bucket::from_sorted(&pairs)
    }
}

/// The value under `key` in a bucket's canonical encoded form.
fn bucket_get<'a>(bucket: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
    Pairs(&bucket[BUCKET_HEADER..])
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// A bucket's pairs in key order: what is left of its bytes to read.
struct Pairs<'a>(&'a [u8]);

impl<'a> Iterator for Pairs<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.0.is_empty() {
            return None;
        }
        let mut field = || {
            let (len, rest) = self.0.split_at(4);
            let len = u32::from_be_bytes(len.try_into().expect("4 bytes"));
            let (field, rest) = rest.split_at(len as usize);
            self.0 = rest;
            field
        };
        Some((field(), field()))
    }
}

/// A link to a child node: in memory (`Resident` — dirty, hashed or
/// clean, as the node's own cells say) or not yet loaded (`Stored`).
#[derive(Debug, Clone)]
enum Link {
    Resident(Arc<Node>),
    Stored(Hash256),
}

impl Link {
    /// The hash of the node behind the link, unless it is dirty.
    fn hash(&self) -> Option<Hash256> {
        match self {
            Link::Resident(node) => node.hash.get().copied(),
            Link::Stored(hash) => Some(*hash),
        }
    }
}

/// One occupied slot: a sorted leaf bucket or a child link.
#[derive(Debug, Clone)]
enum Slot {
    Bucket(Bucket),
    Child(Link),
}

/// A trie node: a 32-bit occupancy bitmap plus one [`Slot`] per set bit,
/// in ascending bit order.
#[derive(Debug, Default)]
struct Node {
    bitmap: u32,
    slots: Vec<Slot>,
    /// The hash of this node's encoding, filled in by the first commit or
    /// flush after a mutation. Set ⇒ set on every resident descendant.
    hash: OnceLock<Hash256>,
    /// Whether a flush has put this node's bytes into its store.
    /// Set ⇒ set on every resident descendant. `Release` after the `put`,
    /// `Acquire` before trusting the store to hold the bytes.
    stored: AtomicBool,
}

impl Clone for Node {
    fn clone(&self) -> Self {
        Node {
            bitmap: self.bitmap,
            slots: self.slots.clone(),
            hash: self.hash.clone(),
            stored: AtomicBool::new(self.stored.load(Ordering::Acquire)),
        }
    }
}

impl Node {
    /// Position of slot `nib` within `slots`, if occupied.
    fn slot_index(&self, nib: u32) -> Option<usize> {
        if self.bitmap & (1 << nib) == 0 {
            return None;
        }
        Some((self.bitmap & ((1u32 << nib) - 1)).count_ones() as usize)
    }

    /// The slot at `nib`, if occupied.
    fn slot(&self, nib: u32) -> Option<&Slot> {
        self.slot_index(nib).map(|i| &self.slots[i])
    }

    /// The occupied slots with their slot numbers, ascending.
    fn occupied(&self) -> impl Iterator<Item = (u32, &Slot)> {
        (0..FANOUT)
            .filter(|nib| self.bitmap & (1 << nib) != 0)
            .zip(&self.slots)
    }

    /// The node's hash, if a commit walk has nothing left to do here:
    /// the node is hashed and — when the walk is `persist`ing — stored.
    fn sealed(&self, persist: bool) -> Option<Hash256> {
        let hash = *self.hash.get()?;
        (!persist || self.stored.load(Ordering::Acquire)).then_some(hash)
    }

    /// The length of [`encode_node`]'s output for this node.
    fn encoded_len(&self) -> usize {
        let slots = self.slots.iter().map(|slot| match slot {
            Slot::Bucket(bucket) => bucket.0.len(),
            Slot::Child(_) => 1 + 32,
        });
        4 + slots.sum::<usize>()
    }

    /// Where slot `nib` would be inserted.
    fn insert_index(&self, nib: u32) -> usize {
        (self.bitmap & ((1u32 << nib) - 1)).count_ones() as usize
    }

    fn insert_slot(&mut self, nib: u32, slot: Slot) {
        let idx = self.insert_index(nib);
        self.bitmap |= 1 << nib;
        self.slots.insert(idx, slot);
    }

    fn remove_slot(&mut self, nib: u32) {
        if let Some(idx) = self.slot_index(nib) {
            self.bitmap &= !(1 << nib);
            self.slots.remove(idx);
        }
    }
}

// ----------------------------------------------------------------------
// Canonical node encoding
// ----------------------------------------------------------------------

/// Serializes a node whose children all have their hashes into `out`
/// (cleared first): the bitmap, then each slot's bucket bytes or child
/// hash.
fn encode_node(node: &Node, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&node.bitmap.to_be_bytes());
    for slot in &node.slots {
        match slot {
            Slot::Bucket(bucket) => out.extend_from_slice(&bucket.0),
            Slot::Child(link) => {
                out.push(TAG_CHILD);
                let hash = link.hash().expect("children are sealed before parents");
                out.extend_from_slice(hash.as_bytes());
            }
        }
    }
}

/// One occupied slot of a node's encoding, borrowed from the node bytes.
enum RawSlot<'a> {
    /// A validated bucket in its canonical encoded form — the bytes a
    /// [`Bucket`] wraps.
    Bucket(&'a [u8]),
    Child(Hash256),
}

/// The one parser of untrusted node bytes: hands out a node's occupied
/// slots one at a time, borrowed, validating every structural invariant
/// the encoder maintains on the way. A node is valid only once
/// [`SlotScanner::next_slot`] has returned `Ok(None)`.
struct SlotScanner<'a> {
    bytes: &'a [u8],
    pos: usize,
    bitmap: u32,
    /// The bitmap bits whose slots are still to be scanned.
    rest: u32,
}

impl<'a> SlotScanner<'a> {
    fn new(bytes: &'a [u8]) -> Result<Self, StoreError> {
        let mut scan = SlotScanner {
            bytes,
            pos: 0,
            bitmap: 0,
            rest: 0,
        };
        scan.bitmap = scan.u32()?;
        scan.rest = scan.bitmap;
        Ok(scan)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.pos + n > self.bytes.len() {
            return Err(StoreError::Corrupt("truncated node bytes"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// The next occupied slot and its slot number; `None` after the last
    /// one, once nothing is left of the bytes.
    fn next_slot(&mut self) -> Result<Option<(u32, RawSlot<'a>)>, StoreError> {
        if self.rest == 0 {
            if self.pos != self.bytes.len() {
                return Err(StoreError::Corrupt("trailing bytes after node"));
            }
            return Ok(None);
        }
        let nib = self.rest.trailing_zeros();
        self.rest &= self.rest - 1;
        let start = self.pos;
        let slot = match self.take(1)?[0] {
            TAG_BUCKET => {
                let count = self.u32()?;
                if count == 0 {
                    return Err(StoreError::Corrupt("empty bucket slot"));
                }
                let mut prev: Option<&[u8]> = None;
                for _ in 0..count {
                    let klen = self.u32()?;
                    let k = self.take(klen as usize)?;
                    let vlen = self.u32()?;
                    self.take(vlen as usize)?;
                    if prev.is_some_and(|prev| prev >= k) {
                        return Err(StoreError::Corrupt("bucket keys out of order"));
                    }
                    prev = Some(k);
                }
                RawSlot::Bucket(&self.bytes[start..self.pos])
            }
            TAG_CHILD => RawSlot::Child(Hash256::from_bytes(
                self.take(32)?.try_into().expect("32 bytes"),
            )),
            _ => return Err(StoreError::Corrupt("unknown slot tag")),
        };
        Ok(Some((nib, slot)))
    }
}

/// Parses untrusted node bytes into a node of its own. Child links come
/// back as [`Link::Stored`].
fn decode_node(bytes: &[u8]) -> Result<Node, StoreError> {
    let mut scan = SlotScanner::new(bytes)?;
    let mut slots = Vec::with_capacity(scan.bitmap.count_ones() as usize);
    while let Some((_, slot)) = scan.next_slot()? {
        slots.push(match slot {
            RawSlot::Bucket(bucket) => Slot::Bucket(Bucket(bucket.to_vec())),
            RawSlot::Child(hash) => Slot::Child(Link::Stored(hash)),
        });
    }
    Ok(Node {
        bitmap: scan.bitmap,
        slots,
        ..Node::default()
    })
}

/// A node reached for reading: borrowed from the trie when its link is
/// resident, decoded out of the store when it is not.
enum NodeRef<'a> {
    Resident(&'a Node),
    Loaded(Node),
}

impl std::ops::Deref for NodeRef<'_> {
    type Target = Node;

    fn deref(&self) -> &Node {
        match self {
            NodeRef::Resident(node) => node,
            NodeRef::Loaded(node) => node,
        }
    }
}

/// The node behind a link, for reading. Only a [`Link::Stored`] touches
/// the store.
fn link_node<'a>(link: &'a Link, store: &dyn Blockstore) -> Result<NodeRef<'a>, StoreError> {
    match link {
        Link::Resident(node) => Ok(NodeRef::Resident(node)),
        Link::Stored(hash) => {
            let bytes = store.get(hash)?.ok_or(StoreError::NotFound(*hash))?;
            Ok(NodeRef::Loaded(decode_node(&bytes)?))
        }
    }
}

/// The node behind a sealed link together with its block — the bytes the
/// store holds, or would hold, under the link's hash: a resident node is
/// encoded, a stored one is read.
fn link_block<'a>(
    link: &'a Link,
    store: &dyn Blockstore,
) -> Result<(NodeRef<'a>, Vec<u8>), StoreError> {
    match link {
        Link::Resident(node) => {
            let mut bytes = Vec::with_capacity(node.encoded_len());
            encode_node(node, &mut bytes);
            Ok((NodeRef::Resident(node), bytes))
        }
        Link::Stored(hash) => {
            let bytes = store.get(hash)?.ok_or(StoreError::NotFound(*hash))?;
            Ok((NodeRef::Loaded(decode_node(&bytes)?), bytes.to_vec()))
        }
    }
}

/// Loads the node behind a link for writing: the node becomes resident
/// and dirty, and the caller gets exclusive access to a private copy.
fn link_node_mut<'a>(
    link: &'a mut Link,
    store: &dyn Blockstore,
) -> Result<&'a mut Node, StoreError> {
    if let Link::Stored(h) = link {
        let bytes = store.get(h)?.ok_or(StoreError::NotFound(*h))?;
        *link = Link::Resident(Arc::new(decode_node(&bytes)?));
    }
    match link {
        Link::Resident(n) => {
            let node = Arc::make_mut(n);
            node.hash.take();
            *node.stored.get_mut() = false;
            Ok(node)
        }
        Link::Stored(_) => unreachable!("link made resident above"),
    }
}

// ----------------------------------------------------------------------
// Core operations
// ----------------------------------------------------------------------

fn node_get(
    node: &Node,
    store: &dyn Blockstore,
    hash: &Hash256,
    depth: usize,
    key: &[u8],
) -> Result<Option<Vec<u8>>, StoreError> {
    if depth >= MAX_DEPTH {
        return Err(StoreError::Corrupt("trie deeper than the key hash"));
    }
    match node.slot(nibble(hash, depth)) {
        None => Ok(None),
        Some(Slot::Bucket(bucket)) => Ok(bucket.get(key).map(<[u8]>::to_vec)),
        Some(Slot::Child(link)) => {
            let child = link_node(link, store)?;
            node_get(&child, store, hash, depth + 1, key)
        }
    }
}

fn node_set(
    node: &mut Node,
    store: &dyn Blockstore,
    hash: &Hash256,
    depth: usize,
    key: &[u8],
    value: &[u8],
) -> Result<(), StoreError> {
    if depth >= MAX_DEPTH {
        return Err(StoreError::Corrupt("trie deeper than the key hash"));
    }
    let nib = nibble(hash, depth);
    let Some(idx) = node.slot_index(nib) else {
        node.insert_slot(nib, Slot::Bucket(Bucket::from_sorted(&[(key, value)])));
        return Ok(());
    };
    match &mut node.slots[idx] {
        Slot::Bucket(bucket) => {
            // The deepest level absorbs full-hash collisions in an
            // unbounded bucket: there are no path bits left to split on.
            let fits = bucket.len() < BUCKET_SIZE || depth + 1 >= MAX_DEPTH;
            if fits || bucket.get(key).is_some() {
                *bucket = bucket.with(key, Some(value));
            } else {
                // Overflow: push the bucket one level down. The
                // re-inserted pairs may collide again on the next 5 bits —
                // recursion splits as deep as needed.
                let mut child = Node::default();
                for (k, v) in bucket.pairs().chain([(key, value)]) {
                    node_set(&mut child, store, &sha256(k), depth + 1, k, v)?;
                }
                node.slots[idx] = Slot::Child(Link::Resident(Arc::new(child)));
            }
            Ok(())
        }
        Slot::Child(link) => {
            let child = link_node_mut(link, store)?;
            node_set(child, store, hash, depth + 1, key, value)
        }
    }
}

/// If `node` holds nothing but at most [`BUCKET_SIZE`] pairs in leaf
/// buckets (no child links), returns them merged and sorted — the parent
/// replaces the child link with a single bucket, restoring the canonical
/// "a child exists only above `BUCKET_SIZE` pairs" invariant.
fn collapse(node: &Node) -> Option<Bucket> {
    // Every slot holds a pair at least: more slots than that, no collapse.
    if node.slots.len() > BUCKET_SIZE {
        return None;
    }
    let mut total = 0usize;
    for slot in &node.slots {
        match slot {
            Slot::Child(_) => return None, // subtree holds > BUCKET_SIZE pairs
            Slot::Bucket(bucket) => total += bucket.len(),
        }
    }
    if total > BUCKET_SIZE {
        return None;
    }
    let mut merged: Vec<(&[u8], &[u8])> = node
        .slots
        .iter()
        .flat_map(|s| match s {
            Slot::Bucket(bucket) => bucket.pairs(),
            Slot::Child(_) => unreachable!("checked above"),
        })
        .collect();
    merged.sort_unstable_by_key(|&(key, _)| key);
    Some(Bucket::from_sorted(&merged))
}

fn node_delete(
    node: &mut Node,
    store: &dyn Blockstore,
    hash: &Hash256,
    depth: usize,
    key: &[u8],
) -> Result<bool, StoreError> {
    if depth >= MAX_DEPTH {
        return Err(StoreError::Corrupt("trie deeper than the key hash"));
    }
    let nib = nibble(hash, depth);
    let Some(idx) = node.slot_index(nib) else {
        return Ok(false);
    };
    match &mut node.slots[idx] {
        Slot::Bucket(bucket) => {
            if bucket.get(key).is_none() {
                return Ok(false);
            }
            match bucket.len() {
                1 => node.remove_slot(nib),
                _ => *bucket = bucket.with(key, None),
            }
            Ok(true)
        }
        Slot::Child(link) => {
            let child = link_node_mut(link, store)?;
            if !node_delete(child, store, hash, depth + 1, key)? {
                return Ok(false);
            }
            if let Some(bucket) = collapse(child) {
                node.slots[idx] = Slot::Bucket(bucket);
            }
            Ok(true)
        }
    }
}

/// The one commit walk, children before parents. Without a store it
/// hashes every resident node under `node` that has no hash yet; with
/// one it also puts every node the store has not received. Works through
/// shared references — the cells it fills are the nodes' own — so nodes
/// shared with a clone of the map are sealed in place, never copied.
/// `buf` is the scratch buffer every node of the walk is encoded into.
fn seal(
    node: &Node,
    store: Option<&dyn Blockstore>,
    buf: &mut Vec<u8>,
) -> Result<Hash256, StoreError> {
    if let Some(hash) = node.sealed(store.is_some()) {
        return Ok(hash);
    }
    for slot in &node.slots {
        if let Slot::Child(Link::Resident(child)) = slot {
            seal(child, store, buf)?;
        }
    }
    encode_node(node, buf);
    let hash = match store {
        Some(store) => {
            let hash = store.put(buf)?;
            node.stored.store(true, Ordering::Release);
            hash
        }
        None => block_hash(buf),
    };
    // A clone sharing this node may have sealed it first — with this hash.
    let _ = node.hash.set(hash);
    Ok(hash)
}

/// A scratch buffer that holds most nodes without growing.
fn scratch() -> Vec<u8> {
    Vec::with_capacity(4096)
}

// ----------------------------------------------------------------------
// Batched merge
// ----------------------------------------------------------------------

/// Nibbles of a key hash that [`path_prefix`] packs into one `u128`.
const PREFIX_NIBBLES: usize = 25;

/// The first [`PREFIX_NIBBLES`] nibbles of `hash`, first nibble highest,
/// so that comparing prefixes compares nibble paths. [`nibble`] reads the
/// hash as a little-endian integer five bits at a time, which is why raw
/// hash-byte order is not path order.
fn path_prefix(hash: &Hash256) -> u128 {
    let bits = u128::from_le_bytes(hash.as_bytes()[..16].try_into().expect("16 bytes"));
    let prefix = (0..PREFIX_NIBBLES).fold(0u128, |acc, d| (acc << 5) | ((bits >> (5 * d)) & 31));
    prefix << (128 - 5 * PREFIX_NIBBLES)
}

/// The nibble paths of two keys past the packed prefix, compared.
fn path_tail_cmp(a: &[u8], b: &[u8]) -> std::cmp::Ordering {
    let (a, b) = (sha256(a), sha256(b));
    (PREFIX_NIBBLES..MAX_DEPTH)
        .map(|d| nibble(&a, d).cmp(&nibble(&b, d)))
        .find(|order| order.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

/// The first nibble of a [`path_prefix`]: the top-level group of its key.
fn first_nibble(prefix: u128) -> usize {
    (prefix >> 123) as usize
}

/// Fewest changes a [`Merge`] reads at a time, the unit its jobs claim
/// to hash keys and copy pairs. A large merge reads in sixteen chunks, so
/// that a group's changes come out of few arenas.
const CHUNK: usize = 1024;

/// The `value_len` of an [`Entry`] that deletes its key.
const DELETE: u32 = u32::MAX;

/// One change of a merge: its key hash's [`path_prefix`] and where its
/// key and value sit, back to back, in its chunk's arena. Field lengths
/// are `u32`, as in a bucket's encoding.
struct Entry {
    prefix: u128,
    start: usize,
    key_len: u32,
    value_len: u32,
}

impl Entry {
    /// The value's length, `None` for a change that deletes its key.
    fn value_len(&self) -> Option<usize> {
        (self.value_len != DELETE).then_some(self.value_len as usize)
    }
}

/// Changes of a merge copied into one arena, listed in path order.
struct Chunk {
    arena: Vec<u8>,
    entries: Vec<Entry>,
}

impl Chunk {
    /// Reads `changes` through `read`, which emits each one's key and new
    /// value, hashing every key once.
    fn read<T>(changes: &[T], read: &impl Fn(&T, &mut Emit<'_>)) -> Result<Chunk, StoreError> {
        // Room for typical rows: a small merge's arena seldom grows.
        let (mut arena, mut too_long) = (Vec::with_capacity(changes.len() * 64), false);
        let mut entries = Vec::with_capacity(changes.len());
        for change in changes {
            read(change, &mut |key, value| {
                let len = |field: &[u8]| u32::try_from(field.len()).ok().filter(|&n| n != DELETE);
                let (Some(key_len), Some(value_len)) = (len(key), value.map_or(Some(DELETE), len))
                else {
                    return too_long = true;
                };
                let (prefix, start) = (path_prefix(&sha256(key)), arena.len());
                entries.push(Entry {
                    prefix,
                    start,
                    key_len,
                    value_len,
                });
                arena.extend_from_slice(key);
                arena.extend_from_slice(value.unwrap_or_default());
            });
        }
        if too_long {
            return Err(StoreError::Corrupt("trie field over 4 GiB"));
        }
        entries.sort_unstable_by_key(|entry| entry.prefix);
        // A full chunk is copied again in path order, for a group's merge
        // to read front to back; a smaller one stays in cache as it is.
        if entries.len() < CHUNK {
            return Ok(Chunk { arena, entries });
        }
        let mut sorted = Vec::with_capacity(arena.len());
        for entry in &mut entries {
            let len = entry.key_len as usize + entry.value_len().unwrap_or(0);
            let start = std::mem::replace(&mut entry.start, sorted.len());
            sorted.extend_from_slice(&arena[start..][..len]);
        }
        Ok(Chunk {
            arena: sorted,
            entries,
        })
    }

    /// The changes of top-level group `nib`.
    fn group(&self, nib: usize) -> impl Iterator<Item = Change<'_>> {
        let first = |nib: usize| {
            self.entries
                .partition_point(|e| first_nibble(e.prefix) < nib)
        };
        self.entries[first(nib)..first(nib + 1)]
            .iter()
            .map(|entry| {
                let key_end = entry.start + entry.key_len as usize;
                Change {
                    prefix: entry.prefix,
                    key: &self.arena[entry.start..key_end],
                    value: entry.value_len().map(|len| &self.arena[key_end..][..len]),
                }
            })
    }
}

/// One change as a merge applies it: a key, its hash's [`path_prefix`],
/// and its new value, `None` to delete it.
#[derive(Clone, Copy)]
struct Change<'a> {
    prefix: u128,
    key: &'a [u8],
    value: Option<&'a [u8]>,
}

impl Change<'_> {
    fn nibble(&self, depth: usize) -> u32 {
        if depth < PREFIX_NIBBLES {
            (self.prefix >> (123 - 5 * depth)) as u32 & (FANOUT - 1)
        } else {
            nibble(&sha256(self.key), depth)
        }
    }
}

/// Sorts changes by nibble path, then key: the order a merge reads them
/// in, every slot's changes one run. A key given twice is refused.
fn sort_by_path(changes: &mut [Change<'_>]) -> Result<(), StoreError> {
    changes.sort_unstable_by_key(|change| change.prefix);
    // Paths that agree on the packed prefix — in practice only a key
    // given twice — are ordered by their other nibbles, then by key.
    for tie in changes.chunk_by_mut(|a, b| a.prefix == b.prefix) {
        if tie.len() > 1 {
            tie.sort_by(|a, b| path_tail_cmp(a.key, b.key).then_with(|| a.key.cmp(b.key)));
            if tie.windows(2).any(|w| w[0].key == w[1].key) {
                return Err(StoreError::Corrupt("key given twice to a trie build"));
            }
        }
    }
    Ok(())
}

/// Merges `changes`, in path order and all routed through `node` (which
/// sits `depth` levels down), into `node` slot by slot by the rules of
/// [`node_set`] and [`node_delete`]. Each touched node below is built and
/// sealed (hashed) once; `node` is left for its parent to seal or collapse.
fn merge_node(
    node: &mut Node,
    store: &dyn Blockstore,
    mut changes: &[Change<'_>],
    depth: usize,
    buf: &mut Vec<u8>,
) -> Result<(), StoreError> {
    if depth >= MAX_DEPTH {
        return Err(StoreError::Corrupt("trie deeper than the key hash"));
    }
    if node.slots.is_empty() {
        let bits = changes.iter().fold(0u32, |b, c| b | 1 << c.nibble(depth));
        node.slots.reserve(bits.count_ones() as usize);
    }
    while let Some(first) = changes.first() {
        let nib = first.nibble(depth);
        let (run, rest) = changes.split_at(changes.partition_point(|c| c.nibble(depth) == nib));
        changes = rest;
        let (idx, had) = (node.insert_index(nib), node.bitmap & 1 << nib != 0);
        let slot =
            had.then(|| std::mem::replace(&mut node.slots[idx], Slot::Bucket(Bucket(Vec::new()))));
        match (merge_slot(slot, store, run, depth, buf)?, had) {
            (Some(slot), true) => node.slots[idx] = slot,
            (Some(slot), false) => node.insert_slot(nib, slot),
            (None, true) => node.remove_slot(nib),
            (None, false) => {}
        }
    }
    Ok(())
}

/// `slot` — a slot, occupied or not, of a node `depth` levels down — with
/// `changes`, all routed to it, merged in; `None` once it holds no pair.
/// A child that comes down to [`BUCKET_SIZE`] pairs or fewer collapses
/// into a bucket, and a bucket that grows past it splits into a child,
/// except at the deepest level.
fn merge_slot(
    slot: Option<Slot>,
    store: &dyn Blockstore,
    changes: &[Change<'_>],
    depth: usize,
    buf: &mut Vec<u8>,
) -> Result<Option<Slot>, StoreError> {
    let bucket = match slot {
        Some(Slot::Child(mut link)) => {
            let child = link_node_mut(&mut link, store)?;
            merge_node(child, store, changes, depth + 1, buf)?;
            if child.bitmap == 0 {
                return Ok(None);
            }
            if let Some(bucket) = collapse(child) {
                return Ok(Some(Slot::Bucket(bucket)));
            }
            seal(child, None, buf)?;
            return Ok(Some(Slot::Child(link)));
        }
        Some(Slot::Bucket(bucket)) => Some(bucket),
        None => None,
    };
    // The bucket's pairs no change names, then the changes that set.
    let kept = || {
        let pairs = bucket.iter().flat_map(Bucket::pairs);
        pairs.filter(|(key, _)| changes.iter().all(|c| c.key != *key))
    };
    let sets = || changes.iter().filter(|c| c.value.is_some());
    let kept_len = kept().count();
    let len = kept_len + sets().count();
    if len == 0 {
        return Ok(None);
    }
    if len <= BUCKET_SIZE || depth + 1 >= MAX_DEPTH {
        let mut pairs = kept().chain(sets().map(|c| (c.key, c.value.expect("a set"))));
        let bucket = match len {
            // Most buckets hold one pair: nothing to collect or sort.
            1 => Bucket::from_sorted(&[pairs.next().expect("one pair")]),
            _ => {
                let mut pairs: Vec<_> = pairs.collect();
                pairs.sort_unstable_by_key(|&(key, _)| key);
                Bucket::from_sorted(&pairs)
            }
        };
        return Ok(Some(Slot::Bucket(bucket)));
    }
    // A split: the changes build the child, joined in path order by the
    // bucket's pairs, if any are kept.
    let mut child = Node::default();
    if kept_len == 0 {
        merge_node(&mut child, store, changes, depth + 1, buf)?;
    } else {
        let kept = kept().map(|(key, value)| Change {
            prefix: path_prefix(&sha256(key)),
            key,
            value: Some(value),
        });
        let mut pairs: Vec<Change<'_>> = kept.chain(sets().copied()).collect();
        sort_by_path(&mut pairs)?;
        merge_node(&mut child, store, &pairs, depth + 1, buf)?;
    }
    seal(&child, None, buf)?;
    Ok(Some(Slot::Child(Link::Resident(Arc::new(child)))))
}

/// Visits every pair under `link`. `seen` holds every stored node
/// visited, so a node an untrusted store links twice is an error and the
/// walk costs at most one visit per node whatever the links say.
fn walk_link(
    link: &Link,
    store: &dyn Blockstore,
    depth: usize,
    seen: &mut HashSet<Hash256>,
    f: &mut dyn FnMut(&[u8], &[u8]),
) -> Result<(), StoreError> {
    if depth >= MAX_DEPTH {
        return Err(StoreError::Corrupt("trie deeper than the key hash"));
    }
    if let Link::Stored(hash) = link {
        if !seen.insert(*hash) {
            return Err(StoreError::Corrupt("trie node linked twice"));
        }
    }
    let node = link_node(link, store)?;
    for slot in &node.slots {
        match slot {
            Slot::Bucket(bucket) => bucket.pairs().for_each(|(k, v)| f(k, v)),
            Slot::Child(child) => walk_link(child, store, depth + 1, seen, f)?,
        }
    }
    Ok(())
}

/// Appends to `nodes` the blocks on `key`'s path from `link` down to the
/// leaf slot, and reports whether that slot holds the key.
fn prove_link(
    link: &Link,
    store: &dyn Blockstore,
    hash: &Hash256,
    depth: usize,
    key: &[u8],
    nodes: &mut Vec<Vec<u8>>,
) -> Result<bool, StoreError> {
    if depth >= MAX_DEPTH {
        return Err(StoreError::Corrupt("trie deeper than the key hash"));
    }
    let (node, bytes) = link_block(link, store)?;
    nodes.push(bytes);
    match node.slot(nibble(hash, depth)) {
        None => Ok(false),
        Some(Slot::Bucket(bucket)) => Ok(bucket.get(key).is_some()),
        Some(Slot::Child(child)) => prove_link(child, store, hash, depth + 1, key, nodes),
    }
}

/// Appends to `out`, in pre-order, the blocks under `new` that a holder
/// of the tree under `base` — the link at the same position of the base
/// version, if it has a child there — is missing. The two sides descend
/// in lockstep and stop wherever their hashes agree: content addressing
/// means identical hash ⇒ identical subtree, and the canonical layout
/// means a subtree can only ever recur at its own position.
fn diff_link(
    new: &Link,
    base: Option<&Link>,
    store: &dyn Blockstore,
    depth: usize,
    seen: &mut HashSet<Hash256>,
    out: &mut Vec<(Hash256, Vec<u8>)>,
) -> Result<(), StoreError> {
    if depth >= MAX_DEPTH {
        return Err(StoreError::Corrupt("trie deeper than the key hash"));
    }
    let hash = new.hash().expect("both versions are committed first");
    if base.and_then(Link::hash) == Some(hash) || !seen.insert(hash) {
        return Ok(());
    }
    let (node, bytes) = link_block(new, store)?;
    out.push((hash, bytes));
    let mut children = node
        .occupied()
        .filter_map(|(nib, slot)| match slot {
            Slot::Child(child) => Some((nib, child)),
            Slot::Bucket(_) => None,
        })
        .peekable();
    if children.peek().is_none() {
        return Ok(()); // nothing below to compare: leave the base side unread
    }
    let base = base.map(|link| link_node(link, store)).transpose()?;
    for (nib, child) in children {
        let under = match base.as_deref().and_then(|node| node.slot(nib)) {
            Some(Slot::Child(link)) => Some(link),
            _ => None,
        };
        diff_link(child, under, store, depth + 1, seen, out)?;
    }
    Ok(())
}

/// A key whose value differs between two versions of a map, with its value
/// in the newer one: `None` where that version no longer has the key.
type KeyChange = (Vec<u8>, Option<Vec<u8>>);

/// The pairs a slot holds itself, in key order: none for an empty slot,
/// the bucket's for a bucket. `None` for a child link — its pairs are a
/// subtree away ([`subtree_pairs`]).
fn leaf_pairs(slot: Option<&Slot>) -> Option<Pairs<'_>> {
    match slot {
        None => Some(Pairs(&[])),
        Some(Slot::Bucket(bucket)) => Some(bucket.pairs()),
        Some(Slot::Child(_)) => None,
    }
}

/// Appends every pair at or under `slot` to `out` (hash-path order), `slot`
/// being a slot of a node `depth` levels down. With `seen` — the untrusted
/// side of a diff — a node linked a second time is an error, so the walk
/// costs at most one visit per node whatever the links say.
fn subtree_pairs(
    slot: Option<&Slot>,
    store: &dyn Blockstore,
    depth: usize,
    mut seen: Option<&mut HashSet<Hash256>>,
    out: &mut Vec<(Vec<u8>, Vec<u8>)>,
) -> Result<(), StoreError> {
    let link = match slot {
        None => return Ok(()),
        Some(Slot::Bucket(bucket)) => {
            out.extend(bucket.pairs().map(|(k, v)| (k.to_vec(), v.to_vec())));
            return Ok(());
        }
        Some(Slot::Child(link)) => link,
    };
    if depth + 1 >= MAX_DEPTH {
        return Err(StoreError::Corrupt("trie deeper than the key hash"));
    }
    if let Some(seen) = seen.as_deref_mut() {
        let hash = link.hash().expect("both versions are committed first");
        if !seen.insert(hash) {
            return Err(StoreError::Corrupt("trie node linked twice"));
        }
    }
    let node = link_node(link, store)?;
    for slot in &node.slots {
        subtree_pairs(Some(slot), store, depth + 1, seen.as_deref_mut(), out)?;
    }
    Ok(())
}

/// Merges two key-ordered pair lists into the changes that turn `base`
/// into `new`.
fn diff_sorted<'a>(
    new: impl Iterator<Item = (&'a [u8], &'a [u8])>,
    base: impl Iterator<Item = (&'a [u8], &'a [u8])>,
    out: &mut Vec<KeyChange>,
) {
    let (mut new, mut base) = (new.peekable(), base.peekable());
    loop {
        let order = match (new.peek(), base.peek()) {
            (None, None) => return,
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (Some((n, _)), Some((b, _))) => n.cmp(b),
        };
        let (set, old) = match order {
            std::cmp::Ordering::Less => (new.next(), None),
            std::cmp::Ordering::Greater => (None, base.next()),
            std::cmp::Ordering::Equal => (new.next(), base.next()),
        };
        match (set, old) {
            (Some((_, value)), Some((_, was))) if value == was => {}
            (Some((key, value)), _) => out.push((key.to_vec(), Some(value.to_vec()))),
            (None, Some((key, _))) => out.push((key.to_vec(), None)),
            (None, None) => unreachable!("one side was peeked"),
        }
    }
}

/// Appends to `out` the key-level changes between the nodes behind `new`
/// and `base`, which sit at the same position `depth` levels down — the
/// lockstep rule of [`diff_link`], carried to the pairs: equal hashes end
/// the descent, two buckets are merged in place, and where one version
/// has a bucket (or nothing) and the other a subtree — a split or a
/// collapse — the subtree is enumerated from the side that has it. `new`
/// is the untrusted side: `seen` holds each of its nodes visited.
fn diff_keys_link(
    new: &Link,
    base: &Link,
    store: &dyn Blockstore,
    depth: usize,
    seen: &mut HashSet<Hash256>,
    out: &mut Vec<KeyChange>,
) -> Result<(), StoreError> {
    if depth >= MAX_DEPTH {
        return Err(StoreError::Corrupt("trie deeper than the key hash"));
    }
    let hash = new.hash().expect("both versions are committed first");
    if base.hash() == Some(hash) {
        return Ok(());
    }
    if !seen.insert(hash) {
        return Err(StoreError::Corrupt("trie node linked twice"));
    }
    let (new_node, base_node) = (link_node(new, store)?, link_node(base, store)?);
    for nib in 0..FANOUT {
        let (new, base) = (new_node.slot(nib), base_node.slot(nib));
        if let (Some(Slot::Child(new)), Some(Slot::Child(base))) = (new, base) {
            diff_keys_link(new, base, store, depth + 1, seen, out)?;
        } else if let (Some(new), Some(base)) = (leaf_pairs(new), leaf_pairs(base)) {
            diff_sorted(new, base, out);
        } else {
            let (mut set, mut old) = (Vec::new(), Vec::new());
            subtree_pairs(new, store, depth, Some(seen), &mut set)?;
            subtree_pairs(base, store, depth, None, &mut old)?;
            set.sort_unstable();
            old.sort_unstable();
            diff_sorted(
                set.iter().map(|(k, v)| (&k[..], &v[..])),
                old.iter().map(|(k, v)| (&k[..], &v[..])),
                out,
            );
        }
    }
    Ok(())
}

/// Collects every node hash reachable from `root` into `out`.
#[cfg(test)]
fn reachable_hashes(
    store: &dyn Blockstore,
    root: Hash256,
    depth: usize,
    out: &mut HashSet<Hash256>,
) -> Result<(), StoreError> {
    if depth >= MAX_DEPTH {
        return Err(StoreError::Corrupt("trie deeper than the key hash"));
    }
    if !out.insert(root) {
        return Ok(());
    }
    let bytes = store.get(&root)?.ok_or(StoreError::NotFound(root))?;
    let node = decode_node(&bytes)?;
    for slot in &node.slots {
        if let Slot::Child(Link::Stored(h)) = slot {
            reachable_hashes(store, *h, depth + 1, out)?;
        }
    }
    Ok(())
}

/// The set-based diff [`Hamt::diff_new_nodes`] is tested against: every
/// node reachable from `root`, in pre-order, whose hash is not in `base`
/// (the whole base tree's [`reachable_hashes`]).
#[cfg(test)]
fn collect_new_nodes(
    store: &dyn Blockstore,
    root: Hash256,
    depth: usize,
    base: &HashSet<Hash256>,
    seen: &mut HashSet<Hash256>,
    out: &mut Vec<(Hash256, Vec<u8>)>,
) -> Result<(), StoreError> {
    if depth >= MAX_DEPTH {
        return Err(StoreError::Corrupt("trie deeper than the key hash"));
    }
    if base.contains(&root) || !seen.insert(root) {
        return Ok(());
    }
    let bytes = store.get(&root)?.ok_or(StoreError::NotFound(root))?;
    let node = decode_node(&bytes)?;
    out.push((root, bytes.to_vec()));
    for slot in &node.slots {
        if let Slot::Child(Link::Stored(h)) = slot {
            collect_new_nodes(store, *h, depth + 1, base, seen, out)?;
        }
    }
    Ok(())
}

/// A copy-on-write persistent map from byte keys to byte values, stored
/// as content-addressed trie nodes (see the [crate docs](crate)).
///
/// Cloning is O(1) (shared [`Arc`] structure); the clones diverge
/// copy-on-write. An unflushed map lives purely in memory;
/// [`Hamt::commit`] names its root hash, [`Hamt::flush`] also persists it
/// so that [`Hamt::load`] (or any of the root-addressed associated
/// functions) can pick the root back up.
#[derive(Debug, Clone)]
pub struct Hamt {
    root: Link,
}

impl Default for Hamt {
    fn default() -> Self {
        Hamt::new()
    }
}

impl Hamt {
    /// An empty map (not yet flushed anywhere).
    pub fn new() -> Self {
        Hamt {
            root: Link::Resident(Arc::new(Node::default())),
        }
    }

    /// A map pinned to a previously flushed `root`. Nodes load lazily on
    /// first touch; a root the store does not hold surfaces as
    /// [`StoreError::NotFound`] at access time.
    pub fn load(root: Hash256) -> Self {
        Hamt {
            root: Link::Stored(root),
        }
    }

    /// A committed map holding exactly `pairs`, given in any order: a
    /// [`Hamt::merge`] into an empty map, run inline. Each key is hashed
    /// once and each node is emitted and sealed (hashed, not stored) once,
    /// deepest first — no path copies and no dirty walk. The layout is
    /// canonical, so the result is the trie that [`Hamt::set`]ting every
    /// pair into an empty map and committing gives, node for node. A later
    /// [`Hamt::flush`] persists it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when a key is given twice, or a key or
    /// value is too long for a bucket's `u32` length fields.
    pub fn from_pairs<K: AsRef<[u8]> + Sync, V: AsRef<[u8]> + Sync>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Result<Hamt, StoreError> {
        let mut map = Hamt::new();
        let pairs: Vec<(K, V)> = pairs.into_iter().collect();
        let read = |(key, value): &(K, V), emit: &mut Emit<'_>| {
            emit(key.as_ref(), Some(value.as_ref()));
        };
        // An empty map reads no store.
        map.merge(&MemoryBlockstore::new(), pairs, read)?.finish()?;
        Ok(map)
    }

    /// Starts merging a batch of changes into the map: `read` emits each
    /// change's key and new value, `None` to delete the key (a key the map
    /// does not hold is left absent). The changes come in any order, each
    /// key at most once, and the result is the map [`Hamt::set`] and
    /// [`Hamt::delete`] would leave, one change at a time — the layout is
    /// canonical — committed.
    ///
    /// The work is in the returned [`Merge`]: its jobs read the changes
    /// (calling `read`, hashing each key once) and merge each top-level
    /// group in one descent, building and sealing every touched node once
    /// and sharing every untouched subtree; run them on any threads, then
    /// [`Merge::finish`], or just finish to run it all inline. A node a
    /// clone still shares is copied before it is written, so a clone stays
    /// at its version, and a [`Hamt::load`]ed node loads from `store`.
    ///
    /// # Errors
    ///
    /// A store failure or corrupt bytes loading a [`Hamt::load`]ed root.
    pub fn merge<'a, T: Sync + 'a>(
        &'a mut self,
        store: &'a dyn Blockstore,
        changes: Vec<T>,
        read: impl Fn(&T, &mut Emit<'_>) + Sync + 'a,
    ) -> Result<Merge<'a>, StoreError> {
        let len = changes.len();
        if len > 0 {
            link_node_mut(&mut self.root, store)?;
        }
        let size = CHUNK.max(len.div_ceil(16));
        let read = move |c: usize| Chunk::read(&changes[c * size..len.min(c * size + size)], &read);
        let changes = Changes {
            read: Box::new(read),
            next: AtomicUsize::new(0),
            chunks: (0..len.div_ceil(size)).map(|_| OnceLock::new()).collect(),
        };
        Ok(Merge {
            map: self,
            store,
            len,
            changes,
            groups: Vec::new(),
            error: OnceLock::new(),
        })
    }

    /// The root hash, if the map is committed (`None` while dirty).
    pub fn root_hash(&self) -> Option<Hash256> {
        self.root.hash()
    }

    /// The value stored under `key`, if any.
    ///
    /// # Errors
    ///
    /// Store failures and corrupt node bytes ([`StoreError`]).
    pub fn get(&self, store: &dyn Blockstore, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let hash = sha256(key);
        let node = link_node(&self.root, store)?;
        node_get(&node, store, &hash, 0, key)
    }

    /// Inserts or replaces `key → value`.
    ///
    /// # Errors
    ///
    /// Store failures and corrupt node bytes ([`StoreError`]).
    pub fn set(
        &mut self,
        store: &dyn Blockstore,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), StoreError> {
        let hash = sha256(key);
        let node = link_node_mut(&mut self.root, store)?;
        node_set(node, store, &hash, 0, key, value)
    }

    /// Removes `key`, reporting whether it was present.
    ///
    /// # Errors
    ///
    /// Store failures and corrupt node bytes ([`StoreError`]).
    pub fn delete(&mut self, store: &dyn Blockstore, key: &[u8]) -> Result<bool, StoreError> {
        let hash = sha256(key);
        let node = link_node_mut(&mut self.root, store)?;
        let removed = node_delete(node, store, &hash, 0, key)?;
        // The root is exempt from the collapse rule (it legitimately holds
        // few pairs), so nothing more to do here.
        Ok(removed)
    }

    /// Hashes every dirty node and returns the root hash — the
    /// cryptographic commitment to the full map contents. Touches no
    /// store: the version becomes readable from one only when a later
    /// [`Hamt::flush`] names it.
    pub fn commit(&mut self) -> Hash256 {
        self.seal(None).expect("a hash-only walk cannot fail")
    }

    /// [`Hamt::commit`], plus: puts every node of this version that
    /// `store` has not received into it, so the returned root can be
    /// loaded, proven and diffed from the store. Versions that were only
    /// committed and since superseded are never written.
    ///
    /// # Errors
    ///
    /// Store failures ([`StoreError::Io`]).
    pub fn flush(&mut self, store: &dyn Blockstore) -> Result<Hash256, StoreError> {
        self.seal(Some(store))
    }

    /// The root node of a map [`Hamt::merge`] is merging into: loaded and
    /// made the map's own when the merge began.
    fn root_mut(&mut self) -> &mut Node {
        match &mut self.root {
            Link::Resident(root) => Arc::get_mut(root).expect("the merge owns the root"),
            Link::Stored(_) => unreachable!("the merge loaded the root"),
        }
    }

    fn seal(&self, store: Option<&dyn Blockstore>) -> Result<Hash256, StoreError> {
        match &self.root {
            Link::Stored(hash) => Ok(*hash),
            // The common idle case, answered before any scratch is set up.
            Link::Resident(root) => match root.sealed(store.is_some()) {
                Some(hash) => Ok(hash),
                None => seal(root, store, &mut scratch()),
            },
        }
    }

    /// Visits every key-value pair (in hash-path order, not key order).
    /// Each stored node is read at most once: a node linked from two
    /// places is corrupt, so an untrusted store cannot make the walk
    /// revisit a subtree.
    ///
    /// # Errors
    ///
    /// Store failures and corrupt node bytes ([`StoreError`]), including
    /// a stored node linked twice.
    pub fn walk(
        &self,
        store: &dyn Blockstore,
        f: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<(), StoreError> {
        walk_link(&self.root, store, 0, &mut HashSet::new(), f)
    }

    /// The nodes of this version that `base` does not have — an
    /// incremental snapshot's payload: a reader holding every node of
    /// `base` needs exactly these `(hash, bytes)` blocks, listed parents
    /// first, to read this version in full. Both maps are committed
    /// first (hash-only). Nodes resident in either map are read in
    /// memory; the rest — every node on a changed path of a
    /// [`Hamt::load`]ed base — come out of `store`, so the cost follows
    /// the size of the change, not of the maps.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when a node needed from `store` is not
    /// there; corrupt node bytes as [`StoreError::Corrupt`].
    pub fn diff_new_nodes(
        &self,
        store: &dyn Blockstore,
        base: &Hamt,
    ) -> Result<Vec<(Hash256, Vec<u8>)>, StoreError> {
        self.seal(None)?;
        base.seal(None)?;
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        diff_link(&self.root, Some(&base.root), store, 0, &mut seen, &mut out)?;
        Ok(out)
    }

    /// The key-level difference from `base` to this version — what a
    /// holder of `base`'s pairs must change to hold this version's:
    /// `(key, Some(value))` for every pair added or changed, with its
    /// value here, and `(key, None)` for every key `base` has and this
    /// version does not. The companion of [`Hamt::diff_new_nodes`] on the
    /// receiving side, and found the same way: both maps are committed
    /// first (hash-only), the two tries are descended in lockstep, and
    /// the descent stops wherever the hashes agree, so with `base`
    /// resident and this version [`Hamt::load`]ed over a store holding a
    /// delta's nodes, exactly the delta's nodes are read — each at most
    /// once — and the cost follows the size of the change.
    ///
    /// This version's nodes are treated as untrusted: the lists are what
    /// its nodes *say*, bounded in work by the number of distinct nodes,
    /// and say nothing about whether its pairs sit where their key hashes
    /// route them. A caller that needs that applies the changes to its
    /// own copy of `base` with [`Hamt::set`] / [`Hamt::delete`] and
    /// compares root hashes: only the canonical trie of the resulting
    /// pairs has this version's root.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when a node needed from `store` is not
    /// there; [`StoreError::Corrupt`] for undecodable node bytes, a node
    /// linked from two places, or links deeper than a key hash.
    pub fn diff_keys(
        &self,
        store: &dyn Blockstore,
        base: &Hamt,
    ) -> Result<Vec<KeyChange>, StoreError> {
        self.seal(None)?;
        base.seal(None)?;
        let mut out = Vec::new();
        diff_keys_link(
            &self.root,
            &base.root,
            store,
            0,
            &mut HashSet::new(),
            &mut out,
        )?;
        Ok(out)
    }

    /// An inclusion proof for `key` against this version's root (the map
    /// is committed first, hash-only): the node bytes along the path
    /// from the root to the leaf bucket holding the key. `Ok(None)` when
    /// the key is absent (absence is not proven). Resident nodes are
    /// encoded from memory — the bytes a flush stores — and only nodes
    /// that were never loaded are read from `store`.
    ///
    /// # Errors
    ///
    /// Store failures and corrupt node bytes ([`StoreError`]).
    pub fn prove(
        &self,
        store: &dyn Blockstore,
        key: &[u8],
    ) -> Result<Option<Vec<Vec<u8>>>, StoreError> {
        self.seal(None)?;
        let mut nodes = Vec::new();
        let found = prove_link(&self.root, store, &sha256(key), 0, key, &mut nodes)?;
        Ok(found.then_some(nodes))
    }

    /// Verifies a [`Hamt::prove`] path against `root` and returns the
    /// proven value. Rejects — with a typed [`StoreError::Proof`] — any
    /// tampering: a broken hash chain, malformed node bytes, a path that
    /// is truncated, over-long, or does not contain the key.
    ///
    /// # Errors
    ///
    /// [`StoreError::Proof`] on any verification failure,
    /// [`StoreError::Corrupt`] on undecodable node bytes.
    pub fn verify_proof(
        root: Hash256,
        key: &[u8],
        nodes: &[Vec<u8>],
    ) -> Result<Vec<u8>, StoreError> {
        if nodes.is_empty() {
            return Err(StoreError::Proof("empty proof path"));
        }
        if nodes.len() > MAX_DEPTH {
            return Err(StoreError::Proof("proof path too deep"));
        }
        let hash = sha256(key);
        let mut want = root;
        for (depth, bytes) in nodes.iter().enumerate() {
            if block_hash(bytes) != want {
                return Err(StoreError::Proof("node hash breaks the commitment chain"));
            }
            // Every slot of the node is validated; the path's is kept.
            let nib = nibble(&hash, depth);
            let mut scan = SlotScanner::new(bytes)?;
            let mut on_path = None;
            while let Some((at, slot)) = scan.next_slot()? {
                if at == nib {
                    on_path = Some(slot);
                }
            }
            match on_path {
                None => return Err(StoreError::Proof("path reaches an empty slot")),
                Some(RawSlot::Bucket(bucket)) => {
                    if depth + 1 != nodes.len() {
                        return Err(StoreError::Proof("extra nodes after the leaf"));
                    }
                    return bucket_get(bucket, key)
                        .map(<[u8]>::to_vec)
                        .ok_or(StoreError::Proof("key absent from the leaf bucket"));
                }
                Some(RawSlot::Child(child)) => want = child,
            }
        }
        Err(StoreError::Proof("proof path ends at a child link"))
    }
}

/// What a [`Hamt::merge`]'s `read` emits each change through: its key and
/// its new value, `None` to delete the key.
pub type Emit<'a> = dyn FnMut(&[u8], Option<&[u8]>) + 'a;

/// The changes of a [`Merge`], read in chunks by whoever gets to each
/// chunk first.
struct Changes<'a> {
    /// Reads the changes of the numbered chunk.
    read: Box<dyn Fn(usize) -> Result<Chunk, StoreError> + Sync + 'a>,
    /// The next chunk nobody has claimed.
    next: AtomicUsize,
    chunks: Vec<OnceLock<Result<Chunk, StoreError>>>,
}

impl Changes<'_> {
    /// Every chunk, read: first each one nobody has claimed yet, by this
    /// caller, then the ones others are still reading, waited for.
    fn chunks(&self) -> Result<Vec<&Chunk>, StoreError> {
        let chunk = |c: usize| {
            let chunk = self.chunks[c].get_or_init(|| (self.read)(c));
            chunk.as_ref().map_err(Clone::clone)
        };
        // `Relaxed`: a claim only hands out a number; the cell publishes the chunk.
        let claims = std::iter::repeat_with(|| self.next.fetch_add(1, Ordering::Relaxed));
        for c in claims.take_while(|&c| c < self.chunks.len()) {
            chunk(c)?;
        }
        (0..self.chunks.len()).map(chunk).collect()
    }
}

/// Fills `run` with the changes of top-level group `nib`, in path order.
fn group_run<'c>(
    chunks: &[&'c Chunk],
    nib: usize,
    run: &mut Vec<Change<'c>>,
) -> Result<(), StoreError> {
    run.clear();
    run.extend(chunks.iter().flat_map(|chunk| chunk.group(nib)));
    sort_by_path(run)
}

/// A batch of changes being merged into a [`Hamt`] ([`Hamt::merge`]).
/// Its [`Merge::jobs`] — one per top-level group — may run in any order,
/// on any threads; [`Merge::finish`] then merges whatever no job did and
/// commits the map.
pub struct Merge<'a> {
    map: &'a mut Hamt,
    store: &'a dyn Blockstore,
    len: usize,
    changes: Changes<'a>,
    /// Once jobs are handed out, each slot of the root, moved out of it,
    /// and whether its group is merged yet.
    groups: Vec<Mutex<(bool, Option<Slot>)>>,
    error: OnceLock<StoreError>,
}

impl Merge<'_> {
    /// The number of changes.
    pub fn changes(&self) -> usize {
        self.len
    }

    /// The merge as independent jobs, one per top-level group (none for
    /// an empty merge). Each job first reads the chunks of changes nobody
    /// has claimed yet — calling `read`, hashing keys — and waits for the
    /// ones others are reading, then merges its group in one descent,
    /// sealing what it builds while it is still in cache.
    pub fn jobs(&mut self) -> impl Iterator<Item = impl FnOnce() + Send + '_> {
        if self.groups.is_empty() && self.len > 0 {
            // The root's slots move out into one cell per group.
            let root = self.map.root_mut();
            let bitmap = std::mem::take(&mut root.bitmap);
            let mut slots = root.slots.drain(..);
            let mut slot = |nib: u32| {
                let slot = (bitmap & 1 << nib != 0).then(|| slots.next().expect("a slot per bit"));
                Mutex::new((false, slot))
            };
            self.groups = (0..FANOUT).map(&mut slot).collect();
        }
        let this = &*self;
        (0..this.groups.len()).map(move |nib| move || this.merge_group(nib, &mut scratch()))
    }

    /// Merges whatever no job has — all of it, straight into the root,
    /// when no job was handed out — and commits the map.
    ///
    /// # Errors
    ///
    /// The first error met: a store failure loading a [`Hamt::load`]ed
    /// node, corrupt node bytes, a key given twice, or a key or value too
    /// long for a bucket's `u32` length fields. The map is then left
    /// unusable.
    pub fn finish(mut self) -> Result<(), StoreError> {
        if !self.groups.is_empty() {
            let buf = &mut scratch();
            (0..self.groups.len()).for_each(|nib| self.merge_group(nib, buf));
            self.put_back();
        } else if self.len > 0 {
            let chunks = self.changes.chunks()?;
            // Only the groups a change routes to: a small merge skips the rest.
            let entries = chunks.iter().flat_map(|c| &c.entries);
            let touched = entries.fold(0u32, |bits, e| bits | 1 << first_nibble(e.prefix));
            let (buf, run) = (&mut scratch(), &mut Vec::new());
            for nib in (0..FANOUT as usize).filter(|nib| touched & 1 << nib != 0) {
                group_run(&chunks, nib, run)?;
                merge_node(self.map.root_mut(), self.store, run, 0, buf)?;
            }
        }
        match self.error.take() {
            Some(error) => Err(error),
            None => self.map.seal(None).map(drop),
        }
    }

    fn merge_group(&self, nib: usize, buf: &mut Vec<u8>) {
        let mut group = self.groups[nib].lock().expect("no job panicked");
        if std::mem::replace(&mut group.0, true) {
            return;
        }
        let slot = &mut group.1;
        let mut run = Vec::new();
        let merged = self.changes.chunks().and_then(|chunks| {
            group_run(&chunks, nib, &mut run)?;
            match run.is_empty() {
                true => Ok(slot.take()),
                false => merge_slot(slot.take(), self.store, &run, 0, buf),
            }
        });
        match merged {
            Ok(merged) => *slot = merged,
            Err(error) => drop(self.error.set(error)),
        }
    }

    /// Puts the groups' slots back into the root, as far as they got.
    fn put_back(&mut self) {
        let groups = std::mem::take(&mut self.groups);
        if groups.is_empty() {
            return;
        }
        let root = self.map.root_mut();
        for (nib, group) in groups.into_iter().enumerate() {
            if let Some(slot) = group.into_inner().unwrap_or_else(|e| e.into_inner()).1 {
                root.bitmap |= 1 << nib;
                root.slots.push(slot);
            }
        }
    }
}

/// A merge dropped unfinished leaves the map uncommitted, with each group
/// as far as it got.
impl Drop for Merge<'_> {
    fn drop(&mut self) {
        self.put_back();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockstore::MemoryBlockstore;
    use fi_crypto::DetRng;
    use std::collections::BTreeMap;

    fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key-{i}").into_bytes(),
            format!("value-{i}-{}", i * 31).into_bytes(),
        )
    }

    #[test]
    fn set_get_delete_roundtrip() {
        let store = MemoryBlockstore::new();
        let mut map = Hamt::new();
        for i in 0..500 {
            let (k, v) = kv(i);
            map.set(&store, &k, &v).unwrap();
        }
        for i in 0..500 {
            let (k, v) = kv(i);
            assert_eq!(map.get(&store, &k).unwrap(), Some(v));
        }
        assert_eq!(map.get(&store, b"missing").unwrap(), None);
        for i in (0..500).step_by(2) {
            let (k, _) = kv(i);
            assert!(map.delete(&store, &k).unwrap());
            assert!(!map.delete(&store, &k).unwrap());
        }
        for i in 0..500 {
            let (k, v) = kv(i);
            let expect = if i % 2 == 0 { None } else { Some(v) };
            assert_eq!(map.get(&store, &k).unwrap(), expect);
        }
    }

    #[test]
    fn roots_are_history_independent() {
        let store = MemoryBlockstore::new();
        let n = 300u64;

        // Ascending insertion.
        let mut a = Hamt::new();
        for i in 0..n {
            let (k, v) = kv(i);
            a.set(&store, &k, &v).unwrap();
        }
        // Descending insertion with interleaved commits and flushes
        // (dirty, hashed and persisted paths must agree).
        let mut b = Hamt::new();
        for i in (0..n).rev() {
            let (k, v) = kv(i);
            b.set(&store, &k, &v).unwrap();
            if i % 37 == 0 {
                b.flush(&store).unwrap();
            } else if i % 5 == 0 {
                b.commit();
            }
        }
        // Overshoot-and-delete: insert 2n, remove the top n, overwrite a
        // few values with garbage and then restore them.
        let mut c = Hamt::new();
        for i in 0..2 * n {
            let (k, v) = kv(i);
            c.set(&store, &k, &v).unwrap();
        }
        c.commit();
        for i in n..2 * n {
            let (k, _) = kv(i);
            assert!(c.delete(&store, &k).unwrap());
            if i % 13 == 0 {
                c.commit();
            }
        }
        for i in (0..n).step_by(7) {
            let (k, _) = kv(i);
            c.set(&store, &k, b"garbage").unwrap();
        }
        c.flush(&store).unwrap();
        for i in (0..n).step_by(7) {
            let (k, v) = kv(i);
            c.set(&store, &k, &v).unwrap();
        }

        // Built bottom-up in one pass, from pairs given in descending order.
        let mut d = Hamt::from_pairs((0..n).rev().map(kv)).unwrap();

        let ra = a.flush(&store).unwrap();
        let rb = b.flush(&store).unwrap();
        let rc = c.flush(&store).unwrap();
        assert_eq!(ra, rb, "insertion order changed the root");
        assert_eq!(ra, rc, "delete/overwrite history changed the root");
        assert_eq!(d.root_hash(), Some(ra), "the one-pass build differs");
        assert_eq!(d.flush(&store).unwrap(), ra);

        // And emptying the map from different orders agrees too.
        for i in 0..n {
            let (k, _) = kv(i);
            assert!(a.delete(&store, &k).unwrap());
        }
        for i in (0..n).rev() {
            let (k, _) = kv(i);
            assert!(b.delete(&store, &k).unwrap());
        }
        let empty = Hamt::from_pairs(Vec::<(Vec<u8>, Vec<u8>)>::new()).unwrap();
        assert_eq!(a.flush(&store).unwrap(), Hamt::new().flush(&store).unwrap());
        assert_eq!(b.flush(&store).unwrap(), Hamt::new().flush(&store).unwrap());
        assert_eq!(empty.root_hash(), Some(Hamt::new().commit()));
    }

    #[test]
    fn load_walk_matches_contents() {
        let store = MemoryBlockstore::new();
        let mut map = Hamt::new();
        for i in 0..200 {
            let (k, v) = kv(i);
            map.set(&store, &k, &v).unwrap();
        }
        let root = map.flush(&store).unwrap();

        let loaded = Hamt::load(root);
        let mut walked = Vec::new();
        loaded
            .walk(&store, &mut |k, v| walked.push((k.to_vec(), v.to_vec())))
            .unwrap();
        walked.sort();
        let mut expect: Vec<_> = (0..200).map(kv).collect();
        expect.sort();
        assert_eq!(walked, expect);
        for i in 0..200 {
            let (k, v) = kv(i);
            assert_eq!(loaded.get(&store, &k).unwrap(), Some(v));
        }
    }

    #[test]
    fn clones_diverge_copy_on_write() {
        let store = MemoryBlockstore::new();
        let mut map = Hamt::new();
        for i in 0..100 {
            let (k, v) = kv(i);
            map.set(&store, &k, &v).unwrap();
        }
        let snapshot = map.clone();
        map.set(&store, b"key-0", b"mutated").unwrap();
        assert_eq!(
            map.get(&store, b"key-0").unwrap(),
            Some(b"mutated".to_vec())
        );
        assert_eq!(snapshot.get(&store, b"key-0").unwrap(), Some(kv(0).1));
    }

    #[test]
    fn diff_nodes_are_sufficient_and_minimal() {
        let store = MemoryBlockstore::new();
        let mut map = Hamt::new();
        for i in 0..4_000 {
            let (k, v) = kv(i);
            map.set(&store, &k, &v).unwrap();
        }
        let base_root = map.flush(&store).unwrap();
        for i in 4_000..4_020 {
            let (k, v) = kv(i);
            map.set(&store, &k, &v).unwrap();
        }
        map.delete(&store, b"key-3").unwrap();
        let new_root = map.flush(&store).unwrap();

        let delta = Hamt::load(new_root)
            .diff_new_nodes(&store, &Hamt::load(base_root))
            .unwrap();
        // Minimality: far fewer nodes than the whole tree.
        let mut whole = HashSet::new();
        reachable_hashes(&store, new_root, 0, &mut whole).unwrap();
        assert!(delta.len() < whole.len() / 2, "delta not incremental");

        // Sufficiency: base nodes + delta nodes alone reconstruct the map.
        let fresh = MemoryBlockstore::new();
        let mut base_hashes = HashSet::new();
        reachable_hashes(&store, base_root, 0, &mut base_hashes).unwrap();
        for h in &base_hashes {
            fresh.put(&store.get(h).unwrap().unwrap()).unwrap();
        }
        for (_, bytes) in &delta {
            fresh.put(bytes).unwrap();
        }
        let rebuilt = Hamt::load(new_root);
        let mut count = 0usize;
        rebuilt.walk(&fresh, &mut |_, _| count += 1).unwrap();
        assert_eq!(count, 4_019);
        assert_eq!(
            rebuilt.get(&fresh, b"key-4001").unwrap(),
            Some(kv(4_001).1),
            "new key readable from base+delta"
        );
    }

    #[test]
    fn proofs_verify_and_reject_tampering() {
        let store = MemoryBlockstore::new();
        let mut map = Hamt::new();
        for i in 0..300 {
            let (k, v) = kv(i);
            map.set(&store, &k, &v).unwrap();
        }
        let root = map.flush(&store).unwrap();

        for i in (0..300).step_by(17) {
            let (k, v) = kv(i);
            let proof = Hamt::load(root)
                .prove(&store, &k)
                .unwrap()
                .expect("key present");
            assert_eq!(Hamt::verify_proof(root, &k, &proof).unwrap(), v);
        }
        assert!(Hamt::load(root)
            .prove(&store, b"missing")
            .unwrap()
            .is_none());

        let (k, _) = kv(42);
        let proof = Hamt::load(root).prove(&store, &k).unwrap().unwrap();

        // Wrong root.
        let bad_root = sha256(b"not the root");
        assert!(matches!(
            Hamt::verify_proof(bad_root, &k, &proof),
            Err(StoreError::Proof(_))
        ));
        // Wrong key for an honest path.
        assert!(matches!(
            Hamt::verify_proof(root, b"other-key", &proof),
            Err(StoreError::Proof(_))
        ));
        // Truncated path.
        if proof.len() > 1 {
            assert!(matches!(
                Hamt::verify_proof(root, &k, &proof[..proof.len() - 1]),
                Err(StoreError::Proof(_))
            ));
        }
        // Extra trailing node.
        let mut padded = proof.clone();
        padded.push(proof[0].clone());
        assert!(matches!(
            Hamt::verify_proof(root, &k, &padded),
            Err(StoreError::Proof(_))
        ));
        // Empty path.
        assert!(matches!(
            Hamt::verify_proof(root, &k, &[]),
            Err(StoreError::Proof(_))
        ));
        // Every single-bit flip in every node must be rejected (hash
        // chain break or decode failure — never a wrong value accepted).
        for ni in 0..proof.len() {
            for byte in (0..proof[ni].len()).step_by(7) {
                let mut tampered = proof.clone();
                tampered[ni][byte] ^= 0x40;
                match Hamt::verify_proof(root, &k, &tampered) {
                    Err(StoreError::Proof(_)) | Err(StoreError::Corrupt(_)) => {}
                    other => panic!("tampered proof accepted: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn adversarial_node_bytes_yield_typed_errors() {
        let store = MemoryBlockstore::new();
        let mut map = Hamt::new();
        for i in 0..200 {
            let (k, v) = kv(i);
            map.set(&store, &k, &v).unwrap();
        }
        let root = map.flush(&store).unwrap();
        let root_bytes = store.get(&root).unwrap().unwrap();

        // Truncations at every length must decode to a typed error (or,
        // for prefixes that happen to parse, still never panic).
        for cut in 0..root_bytes.len() {
            let hash = store.put(&root_bytes[..cut]).unwrap();
            let _ = Hamt::load(hash).get(&store, b"key-1");
        }
        // Bit flips across the root node: traversal must return Err or a
        // wrong-but-typed answer, never panic. Flips that corrupt
        // structure must be Corrupt/NotFound.
        for byte in 0..root_bytes.len() {
            let mut flipped = root_bytes.to_vec();
            flipped[byte] ^= 0x01;
            let hash = store.put(&flipped).unwrap();
            let _ = Hamt::load(hash).get(&store, b"key-1");
            let _ = Hamt::load(hash).walk(&store, &mut |_, _| {});
        }
        // A hand-built unsorted bucket is rejected.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u32.to_be_bytes()); // bitmap: slot 0
        bad.push(TAG_BUCKET);
        bad.extend_from_slice(&2u32.to_be_bytes());
        for key in [b"zz", b"aa"] {
            bad.extend_from_slice(&2u32.to_be_bytes());
            bad.extend_from_slice(key);
            bad.extend_from_slice(&1u32.to_be_bytes());
            bad.push(b'v');
        }
        assert_eq!(
            decode_node(&bad).unwrap_err(),
            StoreError::Corrupt("bucket keys out of order")
        );
        // An empty bucket is rejected.
        let mut empty = Vec::new();
        empty.extend_from_slice(&1u32.to_be_bytes());
        empty.push(TAG_BUCKET);
        empty.extend_from_slice(&0u32.to_be_bytes());
        assert_eq!(
            decode_node(&empty).unwrap_err(),
            StoreError::Corrupt("empty bucket slot")
        );
    }

    /// A memory store that counts `put` and `get` calls.
    #[derive(Debug, Default)]
    struct CountingStore {
        inner: MemoryBlockstore,
        puts: std::sync::atomic::AtomicUsize,
        gets: std::sync::atomic::AtomicUsize,
    }

    impl CountingStore {
        fn puts(&self) -> usize {
            self.puts.load(Ordering::Relaxed)
        }

        fn gets(&self) -> usize {
            self.gets.load(Ordering::Relaxed)
        }
    }

    impl Blockstore for CountingStore {
        fn get(&self, hash: &Hash256) -> Result<Option<Arc<[u8]>>, StoreError> {
            self.gets.fetch_add(1, Ordering::Relaxed);
            self.inner.get(hash)
        }

        fn put(&self, bytes: &[u8]) -> Result<Hash256, StoreError> {
            self.puts.fetch_add(1, Ordering::Relaxed);
            self.inner.put(bytes)
        }
    }

    fn reachable(store: &dyn Blockstore, root: Hash256) -> HashSet<Hash256> {
        let mut out = HashSet::new();
        reachable_hashes(store, root, 0, &mut out).unwrap();
        out
    }

    #[test]
    fn commit_hashes_and_flush_persists_only_the_named_version() {
        let store = CountingStore::default();
        let mut map = Hamt::new();
        for i in 0..2_000 {
            let (k, v) = kv(i);
            map.set(&store, &k, &v).unwrap();
        }
        assert_eq!(map.root_hash(), None, "dirty until committed");
        let first = map.commit();
        assert_eq!(map.root_hash(), Some(first));
        assert_eq!(map.commit(), first, "nothing changed");

        // Set, overwrite and delete after the hash: the touched paths go
        // dirty again, the rest keeps its hashes.
        map.set(&store, b"key-5", b"changed").unwrap();
        map.set(&store, b"key-5000", b"new").unwrap();
        assert!(map.delete(&store, b"key-6").unwrap());
        assert_eq!(map.root_hash(), None);
        let second = map.commit();
        assert_ne!(first, second);
        assert_eq!(store.puts(), 0, "committing never touches the store");

        // Flushing writes every node of the version it names and no node
        // of the version that was only committed.
        assert_eq!(map.flush(&store).unwrap(), second);
        assert_eq!(store.inner.len(), reachable(&store, second).len());
        assert_eq!(store.puts(), store.inner.len());
        assert!(!store.has(&first).unwrap(), "superseded root never written");
        assert_eq!(map.flush(&store).unwrap(), second);
        assert_eq!(store.puts(), store.inner.len(), "a clean map puts nothing");

        // The next flush writes the changed path only.
        map.set(&store, b"key-7", b"changed too").unwrap();
        let third = map.flush(&store).unwrap();
        let new_nodes = store.puts() - reachable(&store, second).len();
        assert!((1..=MAX_DEPTH).contains(&new_nodes));
        assert_eq!(
            store.inner.len(),
            reachable(&store, second)
                .union(&reachable(&store, third))
                .count()
        );

        // And the hashes are those of a map built in one go.
        let mut direct = Hamt::new();
        for i in (0..2_000).filter(|&i| i != 6) {
            let (k, v) = kv(i);
            direct.set(&store, &k, &v).unwrap();
        }
        direct.set(&store, b"key-5", b"changed").unwrap();
        direct.set(&store, b"key-5000", b"new").unwrap();
        assert_eq!(direct.commit(), second);
        direct.set(&store, b"key-7", b"changed too").unwrap();
        assert_eq!(direct.commit(), third);
    }

    #[test]
    fn deletes_collapse_hashed_and_flushed_subtrees() {
        let store = MemoryBlockstore::new();
        let mut grown = Hamt::new();
        for i in 0..3_000 {
            let (k, v) = kv(i);
            grown.set(&store, &k, &v).unwrap();
        }
        grown.commit();
        for i in 50..3_000 {
            let (k, _) = kv(i);
            assert!(grown.delete(&store, &k).unwrap());
            // Collapse subtrees in every state: dirty, hashed, flushed.
            match i % 400 {
                0 => drop(grown.flush(&store).unwrap()),
                200 => drop(grown.commit()),
                _ => {}
            }
        }
        let mut direct = Hamt::new();
        for i in 0..50 {
            let (k, v) = kv(i);
            direct.set(&store, &k, &v).unwrap();
        }
        assert_eq!(grown.commit(), direct.commit());
        // A flushed version read back from the store alone agrees.
        let root = grown.flush(&store).unwrap();
        let mut count = 0;
        Hamt::load(root)
            .walk(&store, &mut |_, _| count += 1)
            .unwrap();
        assert_eq!(count, 50);
    }

    fn root_node(map: &Hamt) -> &Arc<Node> {
        match &map.root {
            Link::Resident(node) => node,
            Link::Stored(_) => panic!("map built in memory"),
        }
    }

    #[test]
    fn sealing_a_clone_seals_shared_nodes_in_place() {
        let store = CountingStore::default();
        let mut map = Hamt::new();
        for i in 0..3_000 {
            let (k, v) = kv(i);
            map.set(&store, &k, &v).unwrap();
        }

        // Committing a clone of a dirty map hashes the nodes both share.
        let mut clone = map.clone();
        let root = clone.commit();
        assert!(
            Arc::ptr_eq(root_node(&map), root_node(&clone)),
            "not copied"
        );
        assert_eq!(map.root_hash(), Some(root));

        // Flushing a clone of a hashed map persists them for both.
        let mut clone = map.clone();
        assert_eq!(clone.flush(&store).unwrap(), root);
        assert!(
            Arc::ptr_eq(root_node(&map), root_node(&clone)),
            "not copied"
        );
        let puts = store.puts();
        assert_eq!(puts, reachable(&store, root).len());
        assert_eq!(map.flush(&store).unwrap(), root);
        assert_eq!(store.puts(), puts, "the original finds its nodes stored");

        // Diverging afterwards copies only the written path.
        clone.set(&store, b"key-1", b"clone only").unwrap();
        assert_eq!(map.root_hash(), Some(root));
        assert_eq!(map.get(&store, b"key-1").unwrap(), Some(kv(1).1));
        assert_ne!(clone.commit(), root);
    }

    /// A batch as `Hamt::merge` reads it: a key and its new value.
    type Batch = Vec<(Vec<u8>, Option<Vec<u8>>)>;

    /// Merges `batch` into `map`, the jobs on threads of their own when
    /// `threaded`, all inline otherwise.
    fn merge(map: &mut Hamt, store: &dyn Blockstore, batch: Batch, threaded: bool) {
        let read = |(key, value): &(Vec<u8>, Option<Vec<u8>>), emit: &mut Emit<'_>| {
            emit(key, value.as_deref());
        };
        let mut merge = map.merge(store, batch, read).unwrap();
        if threaded {
            std::thread::scope(|scope| {
                for job in merge.jobs() {
                    scope.spawn(job);
                }
            });
        }
        merge.finish().unwrap();
        assert!(map.root_hash().is_some(), "a finished merge is committed");
    }

    /// The oracle: `batch` applied one `set` or `delete` at a time.
    fn set_by_set(map: &mut Hamt, store: &dyn Blockstore, batch: &Batch) {
        for (key, value) in batch {
            match value {
                Some(value) => map.set(store, key, value).unwrap(),
                None => drop(map.delete(store, key).unwrap()),
            }
        }
    }

    /// Keys whose hashes share two or three leading nibbles with one
    /// anchor's: inserted together, their splits nest.
    fn cluster(rng: &mut DetRng) -> Vec<Vec<u8>> {
        let mut keys = keys_sharing(b"anchor", 3, 6, rng);
        keys.extend(keys_sharing(b"anchor", 2, 6, rng));
        keys
    }

    /// A seeded batch of changes to `live` — the pairs the map holds, kept
    /// up to date: new keys, a random part of the `cluster` set or
    /// deleted, overwrites, deletes, deletes of keys the map never held,
    /// and every few rounds all the keys of one top-level group deleted,
    /// so whole subtrees empty out.
    fn random_batch(
        rng: &mut DetRng,
        live: &mut BTreeMap<Vec<u8>, Vec<u8>>,
        cluster: &[Vec<u8>],
        round: u64,
    ) -> Batch {
        let mut batch: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let value = |rng: &mut DetRng| Some(vec![rng.below(256) as u8; rng.index(40)]);
        for _ in 0..rng.below(300) {
            batch.insert(
                format!("key-{}", rng.below(100_000)).into_bytes(),
                value(rng),
            );
        }
        for key in cluster {
            match rng.below(3) {
                0 => drop(batch.insert(key.clone(), None)),
                1 => drop(batch.insert(key.clone(), value(rng))),
                _ => {}
            }
        }
        let keys: Vec<Vec<u8>> = live.keys().cloned().collect();
        for _ in 0..keys.len().min(200) {
            let key = keys[rng.index(keys.len())].clone();
            let change = if rng.below(2) == 0 { None } else { value(rng) };
            batch.insert(key, change);
        }
        for _ in 0..rng.below(20) {
            batch.insert(format!("absent-{}", rng.next_u64()).into_bytes(), None);
        }
        if round % 4 == 3 {
            let group = rng.below(u64::from(FANOUT)) as u32;
            for key in keys.iter().filter(|key| nibble(&sha256(key), 0) == group) {
                batch.insert(key.clone(), None);
            }
        }
        for (key, value) in &batch {
            match value {
                Some(value) => drop(live.insert(key.clone(), value.clone())),
                None => drop(live.remove(key)),
            }
        }
        let mut batch: Batch = batch.into_iter().collect();
        rng.shuffle(&mut batch);
        batch
    }

    fn pairs(map: &Hamt, store: &dyn Blockstore) -> BTreeMap<Vec<u8>, Vec<u8>> {
        let mut pairs = BTreeMap::new();
        map.walk(store, &mut |k, v| {
            drop(pairs.insert(k.to_vec(), v.to_vec()))
        })
        .unwrap();
        pairs
    }

    /// `Hamt::merge` against set-by-set, the oracle, over seeded batches
    /// applied to the same starting trie in three states: committed and
    /// held by nobody else, shared with a clone (which must stay at its
    /// version), and `Hamt::load`ed from a store (every link `Stored`).
    /// Same root after every batch, the same number of nodes for the next
    /// flush to put, and the walk of the merged map is the expected pairs.
    #[test]
    fn merge_matches_set_by_set() {
        let mut rng = DetRng::from_seed_label(5, "hamt/merge");
        let cluster = cluster(&mut rng);
        let start: Vec<_> = (0..3_000).map(kv).collect();
        for state in ["committed", "shared", "loaded"] {
            let (store, oracle_store) = (CountingStore::default(), CountingStore::default());
            let mut merged = Hamt::from_pairs(start.iter().map(|(k, v)| (k, v))).unwrap();
            let mut oracle = Hamt::new();
            set_by_set(
                &mut oracle,
                &oracle_store,
                &start
                    .iter()
                    .map(|(k, v)| (k.clone(), Some(v.clone())))
                    .collect(),
            );
            assert_eq!(
                merged.flush(&store).unwrap(),
                oracle.flush(&oracle_store).unwrap()
            );
            let mut live: BTreeMap<_, _> = start.iter().cloned().collect();
            for round in 0..12 {
                let batch = random_batch(&mut rng, &mut live, &cluster, round);
                if state == "loaded" {
                    merged = Hamt::load(merged.root_hash().unwrap());
                }
                let pin = (state == "shared").then(|| (merged.clone(), pairs(&merged, &store)));
                merge(&mut merged, &store, batch.clone(), round % 2 == 0);
                set_by_set(&mut oracle, &oracle_store, &batch);
                let root = oracle.commit();
                assert_eq!(merged.root_hash(), Some(root), "{state}, round {round}");
                if let Some((pin, before)) = pin {
                    assert_ne!(pin.root_hash(), Some(root));
                    assert_eq!(
                        pairs(&pin, &store),
                        before,
                        "{state}, round {round}: the clone moved"
                    );
                }
                let (puts, oracle_puts) = (store.puts(), oracle_store.puts());
                assert_eq!(
                    merged.flush(&store).unwrap(),
                    oracle.flush(&oracle_store).unwrap()
                );
                if state != "loaded" {
                    assert_eq!(
                        store.puts() - puts,
                        oracle_store.puts() - oracle_puts,
                        "{state}, round {round}"
                    );
                }
                assert_eq!(pairs(&merged, &store), live, "{state}, round {round}");
            }
        }
    }

    /// The jobs of a merge run on any threads, in any number — all, some
    /// (the finish merges the rest) or none — for one root; a merge
    /// dropped before any job ran leaves the map as it was.
    #[test]
    fn merge_jobs_run_on_any_thread() {
        let store = MemoryBlockstore::new();
        let mut rng = DetRng::from_seed_label(6, "hamt/merge-jobs");
        let mut live: BTreeMap<_, _> = (0..4_000).map(kv).collect();
        let start = Hamt::from_pairs(&live).unwrap();
        let cluster = cluster(&mut rng);
        let batch = random_batch(&mut rng, &mut live, &cluster, 3);
        let mut oracle = start.clone();
        set_by_set(&mut oracle, &store, &batch);
        let root = oracle.commit();
        let read = |(key, value): &(Vec<u8>, Option<Vec<u8>>), emit: &mut Emit<'_>| {
            emit(key, value.as_deref());
        };
        for ran in [usize::MAX, 20, 3, 0] {
            let mut map = start.clone();
            let mut merge = map.merge(&store, batch.clone(), read).unwrap();
            assert_eq!(merge.jobs().count(), FANOUT as usize, "one job per group");
            // Handed out twice: a group's second job finds it merged.
            for _ in 0..2 {
                std::thread::scope(|scope| {
                    for job in merge.jobs().take(ran) {
                        scope.spawn(job);
                    }
                });
            }
            merge.finish().unwrap();
            assert_eq!(map.root_hash(), Some(root), "{ran} jobs run");
        }
        let mut small = start.clone();
        merge(&mut small, &store, batch[..3].to_vec(), true);
        // Dropped unfinished, before or after its jobs are handed out.
        for hand_out in [false, true] {
            let mut untouched = start.clone();
            let mut merge = untouched.merge(&store, batch.clone(), read).unwrap();
            if hand_out {
                merge.jobs().for_each(drop);
            }
            drop(merge);
            assert_eq!(untouched.commit(), start.root_hash().unwrap());
        }
        let mut empty = start.clone();
        let mut merge = empty.merge(&store, Vec::<u8>::new(), |_, _| {}).unwrap();
        assert_eq!(merge.jobs().count(), 0);
        merge.finish().unwrap();
        assert_eq!(empty.root_hash(), start.root_hash());
    }

    /// The merge at the size of a commit of every file row of a large
    /// engine: 100 000 changes into a 100 000-key trie.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "200 000 trie writes: run with --release")]
    fn a_merge_of_100k_keys_matches_set_by_set() {
        let store = MemoryBlockstore::new();
        let mut rng = DetRng::from_seed_label(7, "hamt/merge-100k");
        let mut oracle = Hamt::new();
        for i in 0..100_000 {
            let (k, v) = kv(i);
            oracle.set(&store, &k, &v).unwrap();
        }
        let mut merged = Hamt::load(oracle.flush(&store).unwrap());
        let batch: Batch = (50_000..150_000)
            .map(|i| match rng.below(4) {
                0 => (kv(i).0, None),
                _ => (kv(i).0, Some(rng.next_u64().to_be_bytes().to_vec())),
            })
            .collect();
        set_by_set(&mut oracle, &store, &batch);
        merge(&mut merged, &store, batch, true);
        assert_eq!(merged.root_hash(), Some(oracle.commit()));
    }

    /// The set-based diff of two flushed roots: the oracle.
    fn oracle_diff(
        store: &dyn Blockstore,
        new_root: Hash256,
        base_root: Hash256,
    ) -> Vec<(Hash256, Vec<u8>)> {
        let base = reachable(store, base_root);
        let mut out = Vec::new();
        collect_new_nodes(store, new_root, 0, &base, &mut HashSet::new(), &mut out).unwrap();
        out
    }

    /// Every pair under a flushed root, by key: a full walk.
    fn walked(store: &dyn Blockstore, root: Hash256) -> BTreeMap<Vec<u8>, Vec<u8>> {
        let mut pairs = BTreeMap::new();
        Hamt::load(root)
            .walk(store, &mut |k, v| {
                drop(pairs.insert(k.to_vec(), v.to_vec()))
            })
            .unwrap();
        pairs
    }

    /// The set difference of two full walks, by key: the key-level oracle.
    fn oracle_key_diff(
        store: &dyn Blockstore,
        new_root: Hash256,
        base_root: Hash256,
    ) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        let (new, base) = (walked(store, new_root), walked(store, base_root));
        let set = new.iter().filter(|(k, v)| base.get(*k) != Some(*v));
        let gone = base.keys().filter(|k| !new.contains_key(*k));
        let mut changes: Vec<_> = set
            .map(|(k, v)| (k.clone(), Some(v.clone())))
            .chain(gone.map(|k| (k.clone(), None)))
            .collect();
        changes.sort();
        changes
    }

    /// The lockstep diffs against their oracles. `diff_new_nodes` lists
    /// the nodes the set-based oracle lists — the same nodes, in the same
    /// order, with the same bytes — and `diff_keys` the set difference of
    /// two full walks, each key once, over random histories that grow
    /// (buckets split), shrink (subtrees collapse into buckets) and empty
    /// the map, against the previous version, an older one and the empty
    /// map; whether each side is resident, loaded from a root, or (the
    /// new side) not even flushed yet.
    #[test]
    fn lockstep_diff_matches_the_set_based_oracle() {
        let log = std::env::temp_dir().join(format!("fi-hamt-diff-{}.log", std::process::id()));
        let disk = crate::DiskBlockstore::open(&log).unwrap();
        let memory = MemoryBlockstore::new();
        let stores: [&dyn Blockstore; 2] = [&memory, &disk];
        for (seed, store) in stores.into_iter().enumerate() {
            let mut rng = DetRng::from_seed_label(seed as u64, "hamt/diff");
            let mut map = Hamt::new();
            let mut live: Vec<u64> = Vec::new();
            // (root, a resident clone) of every flushed version.
            let mut versions = vec![(map.flush(store).unwrap(), map.clone())];
            for round in 0..40u64 {
                // Grow for a while, shrink hard, empty out, grow again.
                let (sets, deletes) = match round % 10 {
                    0..=4 => (40 + rng.below(400), rng.below(20)),
                    5..=7 => (rng.below(10), live.len() as u64 * 2 / 3),
                    8 => (0, live.len() as u64),
                    _ => (1 + rng.below(4), 0),
                };
                for _ in 0..sets {
                    let id = rng.below(3_000);
                    let value = vec![round as u8; 1 + rng.index(60)];
                    map.set(store, &kv(id).0, &value).unwrap();
                    if !live.contains(&id) {
                        live.push(id);
                    }
                }
                for _ in 0..deletes.min(live.len() as u64) {
                    let id = live.swap_remove(rng.index(live.len()));
                    assert!(map.delete(store, &kv(id).0).unwrap());
                }

                let (prev_root, prev) = versions.last().unwrap();
                let unflushed = map.diff_new_nodes(store, prev).unwrap();
                let root = map.flush(store).unwrap();
                assert_eq!(
                    unflushed,
                    oracle_diff(store, root, *prev_root),
                    "round {round}: a committed-only version diffs like a flushed one"
                );
                let older = rng.index(versions.len());
                for (base_root, base) in [&versions[older], &versions[0], versions.last().unwrap()]
                {
                    let want = oracle_diff(store, root, *base_root);
                    let want_keys = oracle_key_diff(store, root, *base_root);
                    for (new, base) in [
                        (&map, base),
                        (&map, &Hamt::load(*base_root)),
                        (&Hamt::load(root), base),
                        (&Hamt::load(root), &Hamt::load(*base_root)),
                    ] {
                        assert_eq!(
                            new.diff_new_nodes(store, base).unwrap(),
                            want,
                            "round {round}"
                        );
                        let mut keys = new.diff_keys(store, base).unwrap();
                        keys.sort();
                        assert_eq!(keys, want_keys, "round {round}");
                    }
                }
                assert!(map.diff_new_nodes(store, &map).unwrap().is_empty());
                assert!(map.diff_keys(store, &map).unwrap().is_empty());
                if round % 10 == 8 {
                    assert!(live.is_empty());
                    assert_eq!(root, versions[0].0, "emptied back to the empty root");
                }
                versions.push((root, map.clone()));
            }
        }
        drop(disk);
        let _ = std::fs::remove_file(log);
    }

    /// A clone is a pin: it reads, walks and proves the version it was
    /// taken at out of the shared resident nodes — no store reads — while
    /// the original is mutated, and what it proves is byte for byte what
    /// a reader of the store proves at the same root.
    #[test]
    fn a_clone_reads_and_proves_its_version_without_the_store() {
        let store = CountingStore::default();
        let mut rng = DetRng::from_seed_label(1, "hamt/pin");
        let mut map = Hamt::new();
        for i in 0..3_000 {
            let (k, v) = kv(i);
            map.set(&store, &k, &v).unwrap();
        }
        let root = map.flush(&store).unwrap();
        let pin = map.clone();

        // The writer moves on: overwrites, deletes (collapses), inserts.
        for i in 0..3_000 {
            let (k, _) = kv(i);
            match rng.below(3) {
                0 => map.set(&store, &k, b"later").unwrap(),
                1 => assert!(map.delete(&store, &k).unwrap()),
                _ => map.set(&store, &kv(10_000 + i).0, b"new").unwrap(),
            }
            if i % 500 == 0 {
                map.commit();
            }
        }
        assert_ne!(map.commit(), root);

        assert_eq!(pin.root_hash(), Some(root));
        for i in 0..3_000 {
            let (k, v) = kv(i);
            assert_eq!(pin.get(&store, &k).unwrap(), Some(v));
        }
        assert_eq!(pin.get(&store, &kv(10_001).0).unwrap(), None);
        let mut count = 0;
        pin.walk(&store, &mut |_, _| count += 1).unwrap();
        assert_eq!(count, 3_000);
        let proofs: Vec<_> = (0..3_000)
            .step_by(29)
            .map(|i| (i, pin.prove(&store, &kv(i).0).unwrap().expect("present")))
            .collect();
        assert_eq!(pin.prove(&store, b"missing").unwrap(), None);
        assert_eq!(store.gets(), 0, "a resident version reads no store");

        for (i, proof) in proofs {
            let (k, v) = kv(i);
            assert_eq!(Hamt::verify_proof(root, &k, &proof).unwrap(), v);
            assert_eq!(Hamt::load(root).prove(&store, &k).unwrap(), Some(proof));
        }
        assert!(store.gets() > 0, "a loaded version reads it");
    }

    /// Resident tries are made of these: growing one grows every engine's
    /// memory (DESIGN.md §15).
    #[test]
    fn slot_and_link_layouts_are_pinned() {
        assert_eq!(std::mem::size_of::<Slot>(), 40);
        assert_eq!(std::mem::size_of::<Link>(), 40);
    }

    /// A malicious store that returns attacker-chosen bytes for any hash —
    /// the only way to express a link cycle, since honest stores derive
    /// the key from the bytes.
    #[derive(Debug)]
    struct EvilStore {
        bytes: Vec<u8>,
    }

    impl Blockstore for EvilStore {
        fn get(&self, _hash: &Hash256) -> Result<Option<Arc<[u8]>>, StoreError> {
            Ok(Some(self.bytes.clone().into()))
        }

        fn put(&self, bytes: &[u8]) -> Result<Hash256, StoreError> {
            Ok(block_hash(bytes))
        }
    }

    #[test]
    fn cycle_forming_store_hits_the_depth_cap() {
        // A node all of whose 32 slots link to "itself" (the evil store
        // returns the same bytes for every hash), so every key path
        // descends forever.
        let mut node = Vec::new();
        node.extend_from_slice(&u32::MAX.to_be_bytes());
        for _ in 0..FANOUT {
            node.push(TAG_CHILD);
            node.extend_from_slice(&[0u8; 32]);
        }
        let store = EvilStore { bytes: node };
        let root = sha256(b"whatever");
        assert_eq!(
            Hamt::load(root).get(&store, b"key").unwrap_err(),
            StoreError::Corrupt("trie deeper than the key hash")
        );
        // The walk and the key-level diff visit a node once: the second
        // link to it is the error, whichever side a subtree is enumerated
        // from.
        let linked_twice = StoreError::Corrupt("trie node linked twice");
        assert_eq!(
            Hamt::load(root).walk(&store, &mut |_, _| {}).unwrap_err(),
            linked_twice
        );
        assert_eq!(
            Hamt::load(root)
                .diff_keys(&store, &Hamt::new())
                .unwrap_err(),
            linked_twice
        );
        let mut grown = Hamt::new();
        for i in 0..200 {
            grown.set(&store, &kv(i).0, &kv(i).1).unwrap();
        }
        assert_eq!(
            Hamt::load(root).diff_keys(&store, &grown).unwrap_err(),
            linked_twice
        );
        let mut out = HashSet::new();
        // reachable_hashes dedups by hash, so the self-link terminates via
        // the seen-set rather than the depth cap — either way, no loop.
        reachable_hashes(&store, root, 0, &mut out).unwrap();
    }

    /// An honest-hash store holding a chain of `levels` nodes, each of
    /// which links the next from all 32 slots, above one leaf bucket: a
    /// walk that followed every link would visit 32^`levels` nodes.
    fn fan_in_chain(store: &dyn Blockstore, levels: usize) -> Hash256 {
        let leaf = Node {
            bitmap: 1,
            slots: vec![Slot::Bucket(Bucket::from_sorted(&[(b"k", b"v")]))],
            ..Node::default()
        };
        let mut buf = Vec::new();
        encode_node(&leaf, &mut buf);
        let mut below = store.put(&buf).unwrap();
        for _ in 0..levels {
            let node = Node {
                bitmap: u32::MAX,
                slots: vec![Slot::Child(Link::Stored(below)); FANOUT as usize],
                ..Node::default()
            };
            encode_node(&node, &mut buf);
            below = store.put(&buf).unwrap();
        }
        below
    }

    #[test]
    fn a_walk_rejects_a_node_linked_twice_without_following_it() {
        let store = CountingStore::default();
        let levels = 12;
        let root = fan_in_chain(&store, levels);
        let mut visited = 0;
        assert_eq!(
            Hamt::load(root)
                .walk(&store, &mut |_, _| visited += 1)
                .unwrap_err(),
            StoreError::Corrupt("trie node linked twice")
        );
        // One descent to the leaf, then the second link of the lowest
        // fan-in node is refused before it is read.
        assert_eq!(visited, 1);
        assert_eq!(store.gets(), levels + 1);
    }

    /// Keys found by search whose hashes share their first `shared`
    /// nibbles with `anchor`'s.
    fn keys_sharing(anchor: &[u8], shared: usize, count: usize, rng: &mut DetRng) -> Vec<Vec<u8>> {
        let want = sha256(anchor);
        let mut found = Vec::new();
        while found.len() < count {
            let key = format!("near-{}", rng.next_u64()).into_bytes();
            let hash = sha256(&key);
            if (0..shared).all(|d| nibble(&hash, d) == nibble(&want, d)) {
                found.push(key);
            }
        }
        found
    }

    /// `Hamt::from_pairs` against the set-by-set build, the oracle: over
    /// key sets from empty to 50 000, led by a cluster of keys that share
    /// one to three leading nibbles (so splits nest), with values from
    /// empty to 100 bytes. Same root; no node of one missing from the
    /// other; and the same random sets, overwrites and deletes applied to
    /// both afterwards — splits and collapses starting from a built trie —
    /// keep the roots equal.
    #[test]
    fn from_pairs_builds_the_set_by_set_trie() {
        let store = CountingStore::default();
        let mut rng = DetRng::from_seed_label(3, "hamt/from_pairs");
        let anchor = b"anchor".to_vec();
        let mut cluster = vec![anchor.clone()];
        for shared in [3, 2, 1] {
            cluster.extend(keys_sharing(&anchor, shared, 4, &mut rng));
        }
        for n in [0usize, 1, 2, 3, 4, 32, 33, 1_000, 50_000] {
            let mut pairs: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            let value = |rng: &mut DetRng| vec![rng.below(256) as u8; rng.index(101)];
            for key in cluster.iter().take(n) {
                pairs.insert(key.clone(), value(&mut rng));
            }
            while pairs.len() < n {
                let len = 1 + rng.index(16);
                let key: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                pairs.insert(key, value(&mut rng));
            }
            let mut order: Vec<_> = pairs.into_iter().collect();
            rng.shuffle(&mut order);
            let mut oracle = Hamt::new();
            for (k, v) in &order {
                oracle.set(&store, k, v).unwrap();
            }
            rng.shuffle(&mut order);
            let mut built = Hamt::from_pairs(order.iter().map(|(k, v)| (k, v))).unwrap();

            let root = oracle.commit();
            assert_eq!(built.root_hash(), Some(root), "n = {n}");
            assert!(built.diff_new_nodes(&store, &oracle).unwrap().is_empty());
            assert!(oracle.diff_new_nodes(&store, &built).unwrap().is_empty());
            for (k, v) in order.iter().step_by(1 + n / 64) {
                assert_eq!(built.get(&store, k).unwrap().as_ref(), Some(v));
            }

            let mut live: Vec<Vec<u8>> = order.into_iter().map(|(k, _)| k).collect();
            for step in 0..400u64 {
                match rng.below(3) {
                    0 if !live.is_empty() => {
                        let key = live.swap_remove(rng.index(live.len()));
                        assert!(oracle.delete(&store, &key).unwrap());
                        assert!(built.delete(&store, &key).unwrap());
                    }
                    1 if !live.is_empty() => {
                        let key = live[rng.index(live.len())].clone();
                        oracle.set(&store, &key, &step.to_be_bytes()).unwrap();
                        built.set(&store, &key, &step.to_be_bytes()).unwrap();
                    }
                    _ => {
                        let key = format!("later-{step}").into_bytes();
                        oracle.set(&store, &key, b"v").unwrap();
                        built.set(&store, &key, b"v").unwrap();
                        live.push(key);
                    }
                }
                if step % 50 == 0 {
                    assert_eq!(built.commit(), oracle.commit(), "n = {n}, step {step}");
                }
            }
            assert_eq!(built.flush(&store).unwrap(), oracle.flush(&store).unwrap());
        }
        assert_eq!(store.gets(), 0, "building and mutating read no store");
    }

    /// The builder's packed path prefix spells the nibbles [`nibble`]
    /// routes by, and orders hashes as their nibble paths do, which raw
    /// hash-byte order does not.
    #[test]
    fn path_prefixes_order_hashes_by_nibble_path() {
        let path = |hash: &Hash256| (0..MAX_DEPTH).map(|d| nibble(hash, d)).collect::<Vec<_>>();
        let mut hashes: Vec<Hash256> = (0..2_000u64).map(|i| sha256(&i.to_le_bytes())).collect();
        for hash in &hashes {
            let change = Change {
                prefix: path_prefix(hash),
                key: &[],
                value: None,
            };
            for depth in 0..PREFIX_NIBBLES {
                assert_eq!(change.nibble(depth), nibble(hash, depth));
            }
        }
        hashes.sort_by_key(path_prefix);
        assert!(hashes.windows(2).all(|w| path(&w[0]) < path(&w[1])));
        hashes.sort_by_key(|hash| *hash.as_bytes());
        assert!(!hashes.windows(2).all(|w| path(&w[0]) < path(&w[1])));
    }

    #[test]
    fn from_pairs_rejects_a_key_given_twice() {
        let twice = StoreError::Corrupt("key given twice to a trie build");
        let small = [(&b"a"[..], &b"1"[..]), (b"b", b"2"), (b"a", b"3")];
        assert_eq!(Hamt::from_pairs(small).unwrap_err(), twice);
        let large = (0..5_000).map(kv).chain([kv(4_321)]);
        assert_eq!(Hamt::from_pairs(large).unwrap_err(), twice);
        assert!(Hamt::from_pairs((0..5_000).map(kv)).is_ok());
    }

    #[test]
    fn deep_collision_chains_split_and_collapse() {
        // Keys engineered to share leading hash nibbles are hard to mine
        // for sha256; instead exercise the split/collapse machinery by
        // inserting enough keys that multi-level nodes necessarily form,
        // then deleting back down and checking canonical equality.
        let store = MemoryBlockstore::new();
        let mut grown = Hamt::new();
        for i in 0..5_000 {
            let (k, v) = kv(i);
            grown.set(&store, &k, &v).unwrap();
        }
        for i in 100..5_000 {
            let (k, _) = kv(i);
            assert!(grown.delete(&store, &k).unwrap());
        }
        let mut direct = Hamt::new();
        for i in 0..100 {
            let (k, v) = kv(i);
            direct.set(&store, &k, &v).unwrap();
        }
        assert_eq!(
            grown.flush(&store).unwrap(),
            direct.flush(&store).unwrap(),
            "grow-then-shrink must collapse back to the direct structure"
        );
    }
}
