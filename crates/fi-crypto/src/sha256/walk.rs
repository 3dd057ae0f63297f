//! The fused lockstep path-walk kernel: `node ← H(domain; node, level)` for
//! `level` in `0..levels`, over many independent lanes.
//!
//! A modeled authentication-path walk is a chain of keyed hashes
//! (`keyed_hash(domain, &[node, level_be])`) in which only 36 of the
//! message's bytes ever change: the 32 digest bytes fed back from the
//! previous level and the 4-byte level counter. [`PathWalk`] lays the padded
//! message out once per domain —
//!
//! ```text
//! len(domain) ‖ domain ‖ be64(32) ‖ node ‖ be64(4) ‖ be32(level) ‖ 0x80 0… ‖ be64(bits)
//! └──── constant ─────────────────┘ └var┘ └const─┘ └── var ────┘ └──── constant ─────┘
//! ```
//!
//! — compresses the whole blocks in front of the node (none for the
//! protocol's 22-byte domains: the node starts at byte 38 of the first
//! block) into a midstate, and keeps the remaining one or two *tail* blocks
//! as big-endian-decoded words with the variable bytes zeroed. A level then
//! costs exactly the tail's compressions plus re-inserting the digest: the
//! node starts at an arbitrary byte offset, so it straddles message words
//! and (for the protocol domains) the block boundary.
//!
//! Each backend walks a *register group* of lanes through **all** levels
//! before touching the next group, with the digests in its native layout
//! throughout — nothing is transposed, re-serialised or allocated between
//! levels:
//!
//! * `Avx512` — 16 lanes, digests word-sliced in 8 ZMM registers. The
//!   message lives as 32 word-sliced vectors on the stack; per level the
//!   digest words are funnel-shifted into the nine vectors the node
//!   overlaps, the level words are re-broadcast, and the compressions read
//!   the vectors as they are. Lanes past the last full group go to the
//!   stream backend (SHA-NI, else scalar).
//! * `ShaNi` — [`SHANI_STREAMS`] interleaved streams, digests in the
//!   `ABEF`/`CDGH` registers `sha256rnds2` leaves them in; two `pshufb`s per
//!   overlapped message vector (masks precomputed per domain) drop the
//!   digest bytes into place.
//! * `Scalar`/`Avx2` — no dedicated kernel: a [`TILE`]-lane tile of byte
//!   blocks on the stack, initialised from the template once, in which only
//!   the node and level bytes are rewritten between the
//!   `compress_many` sweeps.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use super::simd::{self, compress_scalar, Backend};
#[cfg(target_arch = "x86_64")]
use super::simd::{
    be_mask_shani, bswap32_avx512, compress16_avx512, load_rows8_avx512, load_state_shani,
    permute_state_shani, rounds_shani, store_rows8_avx512, unpermute_state_shani, SHANI_STREAMS,
};
use super::{state_to_bytes, H0};
use crate::hash::Hash256;

/// Lanes per tile of the portable walker. The tile's working set — two
/// 64-byte blocks and one 32-byte state per lane, 10 KiB in all — lives on
/// the stack and stays L1-resident; 64 lanes is eight full AVX2 sweeps, so
/// nothing is gained by going larger.
const TILE: usize = 64;

/// The per-domain template of a keyed path walk (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct PathWalk {
    /// State after the constant blocks in front of the node (the initial
    /// state when the node starts inside the first block).
    midstate: [u32; 8],
    /// The padded tail blocks as big-endian-decoded words, node and level
    /// bytes zero.
    tail: [u32; 32],
    /// Blocks of `tail` in use: 1 or 2.
    tail_blocks: usize,
    /// Byte offset of the node within the tail (`0..64`). The level sits 40
    /// bytes further on.
    node_off: usize,
    /// `pshufb` masks moving the digest bytes out of the `ABEF` (`[_][0]`)
    /// and `CDGH` (`[_][1]`) state registers into the up to three message
    /// vectors the node overlaps, starting at vector `node_off / 16`.
    #[cfg(target_arch = "x86_64")]
    shani_masks: [[[u8; 16]; 2]; 3],
}

impl PathWalk {
    /// Lays out the walk whose messages start with `prefix` (the
    /// length-prefixed domain of a `KeyedDomain`).
    pub(crate) fn new(prefix: &[u8]) -> Self {
        let mut msg = prefix.to_vec();
        msg.extend_from_slice(&32u64.to_be_bytes());
        let node_at = msg.len();
        msg.extend_from_slice(&[0u8; 32]);
        msg.extend_from_slice(&4u64.to_be_bytes());
        msg.extend_from_slice(&[0u8; 4]);
        let bit_len = (msg.len() as u64).wrapping_mul(8);
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_be_bytes());

        let head = node_at / 64 * 64;
        let mut midstate = H0;
        for block in msg[..head].chunks_exact(64) {
            compress_scalar(&mut midstate, block.try_into().unwrap());
        }
        // The node starts in the tail's first block and the message ends 52
        // bytes after it starts, so the padded tail is at most 128 bytes.
        let node_off = node_at - head;
        let mut tail = [0u32; 32];
        for (word, chunk) in tail.iter_mut().zip(msg[head..].chunks_exact(4)) {
            *word = u32::from_be_bytes(chunk.try_into().unwrap());
        }

        #[cfg(target_arch = "x86_64")]
        let shani_masks = {
            // Where digest word `k` sits after the rounds: (register, lane).
            const HOME: [(usize, usize); 8] = [
                (0, 3), // A
                (0, 2), // B
                (1, 3), // C
                (1, 2), // D
                (0, 1), // E
                (0, 0), // F
                (1, 1), // G
                (1, 0), // H
            ];
            // 0x80 zeroes the destination byte. Registers hold native
            // words, so big-endian byte `b` of a word is register byte
            // `3 - b` of its lane — on both sides.
            let mut masks = [[[0x80u8; 16]; 2]; 3];
            for q in 0..32 {
                let (register, lane) = HOME[q / 4];
                let at = node_off + q;
                masks[at / 16 - node_off / 16][register][at % 16 / 4 * 4 + 3 - at % 4] =
                    (4 * lane + 3 - q % 4) as u8;
            }
            masks
        };

        PathWalk {
            midstate,
            tail,
            tail_blocks: (msg.len() - head) / 64,
            node_off,
            #[cfg(target_arch = "x86_64")]
            shani_masks,
        }
    }

    /// The two tail words the level counter overlaps, with `level` in
    /// place, and the index of the first.
    fn level_words(&self, level: u32) -> (usize, [u32; 2]) {
        let at = (self.node_off + 40) / 4;
        let wide = u64::from(level) << (32 - 8 * (self.node_off % 4));
        (
            at,
            [
                self.tail[at] | (wide >> 32) as u32,
                self.tail[at + 1] | wide as u32,
            ],
        )
    }

    /// Walks every lane of `nodes` up `levels` levels, in place.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not available on this host.
    pub(crate) fn walk(&self, backend: Backend, nodes: &mut [Hash256], levels: u32) {
        backend.assert_available();
        match backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                let mut groups = nodes.chunks_exact_mut(16);
                for group in &mut groups {
                    // SAFETY: availability asserted above; exactly 16 lanes.
                    unsafe { self.walk16_avx512(group, levels) }
                }
                self.walk(backend.stream_backend(), groups.into_remainder(), levels);
            }
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi => {
                let mut groups = nodes.chunks_exact_mut(SHANI_STREAMS);
                for group in &mut groups {
                    // SAFETY: availability asserted above; exactly
                    // `SHANI_STREAMS` lanes.
                    unsafe { self.walk_shani::<SHANI_STREAMS>(group, levels) }
                }
                for lane in groups.into_remainder().chunks_exact_mut(1) {
                    // SAFETY: availability asserted above; exactly 1 lane.
                    unsafe { self.walk_shani::<1>(lane, levels) }
                }
            }
            _ => self.walk_tiled(backend, nodes, levels),
        }
    }

    /// The portable walker: tiles of byte blocks through
    /// [`simd::compress_many_impl`].
    fn walk_tiled(&self, backend: Backend, nodes: &mut [Hash256], levels: u32) {
        let mut template = [[0u8; 64]; 2];
        for (i, word) in self.tail.iter().enumerate() {
            template[i / 16][i % 16 * 4..][..4].copy_from_slice(&word.to_be_bytes());
        }
        // blocks[b][lane]: tail block `b` of each lane.
        let mut blocks = [[template[0]; TILE], [template[1]; TILE]];
        let mut states = [[0u32; 8]; TILE];
        let put = |blocks: &mut [[[u8; 64]; TILE]; 2], lane: usize, at: usize, bytes: &[u8]| {
            for (at, &byte) in (at..).zip(bytes) {
                blocks[at / 64][lane][at % 64] = byte;
            }
        };
        for tile in nodes.chunks_mut(TILE) {
            let states = &mut states[..tile.len()];
            for level in 0..levels {
                let (level_at, [hi, lo]) = self.level_words(level);
                for (lane, node) in tile.iter().enumerate() {
                    put(&mut blocks, lane, self.node_off, node.as_bytes());
                    put(&mut blocks, lane, 4 * level_at, &hi.to_be_bytes());
                    put(&mut blocks, lane, 4 * level_at + 4, &lo.to_be_bytes());
                }
                states.fill(self.midstate);
                for block in &blocks[..self.tail_blocks] {
                    simd::compress_many_impl(backend, states, &block[..tile.len()]);
                }
                for (node, state) in tile.iter_mut().zip(states.iter()) {
                    *node = Hash256::from_bytes(state_to_bytes(state));
                }
            }
        }
    }

    /// 16 lanes through every level, digests word-sliced in registers.
    ///
    /// # Safety
    ///
    /// Caller must ensure the `avx512f` and `avx512bw` features are
    /// available and `nodes` holds exactly 16 lanes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn walk16_avx512(&self, nodes: &mut [Hash256], levels: u32) {
        debug_assert_eq!(nodes.len(), 16);
        let zero = _mm512_setzero_si512();
        let broadcast = |word: u32| _mm512_set1_epi32(word as i32);

        // `Hash256` is a transparent `[u8; 32]`: 16 rows of 32 bytes.
        let mut digest = load_rows8_avx512(nodes.as_ptr().cast());
        for word in &mut digest {
            *word = bswap32_avx512(*word);
        }
        let mut init = [zero; 8];
        for (vector, &word) in init.iter_mut().zip(&self.midstate) {
            *vector = broadcast(word);
        }
        // The tail, word-sliced: laid out here once, then only the vectors
        // the node and the level overlap are rewritten per level.
        let mut msg = [[zero; 16]; 2];
        for (i, &word) in self.tail.iter().enumerate() {
            msg[i / 16][i % 16] = broadcast(word);
        }
        // The node starts `shift` bits into message word `first`, so digest
        // word k lands in the low bits of word `first + k` and the high bits
        // of the next. (A variable shift by 32 yields 0: aligned nodes need
        // no special case.)
        let first = self.node_off / 4;
        let shift = 8 * (self.node_off % 4) as u32;
        let (right, left) = (broadcast(shift), broadcast(32 - shift));
        let set = |msg: &mut [[__m512i; 16]; 2], at: usize, vector| msg[at / 16][at % 16] = vector;

        for level in 0..levels {
            let (level_at, [hi, lo]) = self.level_words(level);
            set(&mut msg, level_at, broadcast(hi));
            set(&mut msg, level_at + 1, broadcast(lo));
            set(
                &mut msg,
                first,
                _mm512_or_si512(
                    broadcast(self.tail[first]),
                    _mm512_srlv_epi32(digest[0], right),
                ),
            );
            for k in 1..8 {
                set(
                    &mut msg,
                    first + k,
                    _mm512_or_si512(
                        _mm512_sllv_epi32(digest[k - 1], left),
                        _mm512_srlv_epi32(digest[k], right),
                    ),
                );
            }
            set(
                &mut msg,
                first + 8,
                _mm512_or_si512(
                    broadcast(self.tail[first + 8]),
                    _mm512_sllv_epi32(digest[7], left),
                ),
            );
            digest = init;
            for block in &msg[..self.tail_blocks] {
                compress16_avx512(&mut digest, block);
            }
        }

        for word in &mut digest {
            *word = bswap32_avx512(*word);
        }
        store_rows8_avx512(digest, nodes.as_mut_ptr().cast());
    }

    /// `N` interleaved lanes through every level, digests in the
    /// `ABEF`/`CDGH` state registers.
    ///
    /// # Safety
    ///
    /// Caller must ensure the `sha`, `sse2`, `ssse3`, and `sse4.1` features
    /// are available and `nodes` holds exactly `N` lanes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn walk_shani<const N: usize>(&self, nodes: &mut [Hash256], levels: u32) {
        debug_assert_eq!(nodes.len(), N);
        let zero = _mm_setzero_si128();
        let be_mask = be_mask_shani();
        let load = |bytes: *const u8| _mm_loadu_si128(bytes.cast());

        let init = load_state_shani(&self.midstate);
        let mut masks = [[zero; 2]; 3];
        for (mask, bytes) in masks.iter_mut().zip(&self.shani_masks) {
            *mask = [load(bytes[0].as_ptr()), load(bytes[1].as_ptr())];
        }
        let first = self.node_off / 16;

        let (mut digest_abef, mut digest_cdgh) = ([zero; N], [zero; N]);
        for (s, node) in nodes.iter().enumerate() {
            let bytes = node.as_bytes().as_ptr();
            (digest_abef[s], digest_cdgh[s]) = permute_state_shani(
                _mm_shuffle_epi8(load(bytes), be_mask),
                _mm_shuffle_epi8(load(bytes.add(16)), be_mask),
            );
        }
        // The tail words every stream shares; the level is patched in here.
        let mut words = self.tail;

        for level in 0..levels {
            let (level_at, level_words) = self.level_words(level);
            words[level_at..level_at + 2].copy_from_slice(&level_words);
            let (mut abef, mut cdgh) = ([init.0; N], [init.1; N]);
            for block in 0..self.tail_blocks {
                let mut m = [[zero; 4]; N];
                for stream in &mut m {
                    for (j, vector) in stream.iter_mut().enumerate() {
                        *vector = load(words[16 * block + 4 * j..].as_ptr().cast());
                    }
                }
                for (vector, mask) in (first..).zip(&masks) {
                    if vector / 4 != block {
                        continue;
                    }
                    for s in 0..N {
                        let digest_bytes = _mm_or_si128(
                            _mm_shuffle_epi8(digest_abef[s], mask[0]),
                            _mm_shuffle_epi8(digest_cdgh[s], mask[1]),
                        );
                        m[s][vector % 4] = _mm_or_si128(m[s][vector % 4], digest_bytes);
                    }
                }
                rounds_shani(&mut abef, &mut cdgh, &mut m);
            }
            (digest_abef, digest_cdgh) = (abef, cdgh);
        }

        for (s, node) in nodes.iter_mut().enumerate() {
            let (abcd, efgh) = unpermute_state_shani(digest_abef[s], digest_cdgh[s]);
            let bytes: *mut u8 = (node as *mut Hash256).cast();
            _mm_storeu_si128(bytes.cast(), _mm_shuffle_epi8(abcd, be_mask));
            _mm_storeu_si128(bytes.add(16).cast(), _mm_shuffle_epi8(efgh, be_mask));
        }
    }
}
