//! SHA-256 implemented from the FIPS 180-4 specification.
//!
//! The FileInsurer protocol needs a collision-resistant hash for file Merkle
//! roots, content identifiers, replica commitments, and the random beacon.
//! The allowed dependency set contains no hash crate, so this module
//! implements SHA-256 from scratch. Test vectors from FIPS 180-4 and NIST
//! CAVP are checked in the unit tests below, against every backend the host
//! supports.
//!
//! Three interfaces are exposed:
//!
//! * the streaming [`Sha256`] hasher (and one-shot [`sha256`]) for single
//!   messages — accelerated transparently by SHA-NI when available,
//! * the multi-lane batch hasher behind
//!   [`KeyedDomain::hash_many`](crate::KeyedDomain::hash_many) and the
//!   Merkle leaf and node batches, which hashes *independent* messages in
//!   lockstep so the 16-wide AVX-512 or 8-wide AVX2 kernel (or
//!   interleaved SHA-NI streams) can be applied, and
//! * the fused path-walk kernel behind
//!   [`KeyedDomain::walk_paths`](crate::KeyedDomain::walk_paths): chains of
//!   keyed hashes over many independent lanes, each lane's digest staying
//!   in registers from one level to the next. The audit pipeline feeds
//!   100k+ independent Merkle path walks per bucket through this.
//!
//! Backend selection is runtime-dispatched ([`active_backend`]): the
//! AVX-512 kernel when detected, else x86 SHA-NI, else the 8-wide AVX2
//! kernel, else portable scalar code. The scalar implementation is the
//! frozen differential-test reference and `FI_FORCE_SCALAR_SHA=1` pins it.

use crate::hash::Hash256;

mod simd;
mod walk;

pub(crate) use walk::PathWalk;

pub use simd::{active_backend, available_backends, force_backend, select_backend, Backend};

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Incremental SHA-256 hasher.
///
/// Accepts input in arbitrary chunks via [`Sha256::update`] and produces the
/// digest with [`Sha256::finalize`]. For one-shot hashing prefer the
/// convenience function [`sha256`].
///
/// # Example
///
/// ```
/// use fi_crypto::sha256::{sha256, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total number of message bytes consumed so far.
    len_bytes: u64,
    /// Buffered partial block.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher in the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len_bytes: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        let mut input = data;
        self.len_bytes = self.len_bytes.wrapping_add(data.len() as u64);

        // Fill a partially occupied buffer first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                simd::compress_blocks(&mut self.state, &block);
                self.buf_len = 0;
            }
        }

        // Whole blocks straight from the input, in one multi-block call so
        // the SHA-NI backend keeps its state in registers across blocks.
        let whole = input.len() - input.len() % 64;
        if whole > 0 {
            simd::compress_blocks(&mut self.state, &input[..whole]);
            input = &input[whole..];
        }

        // Stash the tail.
        if !input.is_empty() {
            self.buf[..input.len()].copy_from_slice(input);
            self.buf_len = input.len();
        }
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> Hash256 {
        let bit_len = self.len_bytes.wrapping_mul(8);
        // Padding: 0x80, zeros, then 64-bit big-endian bit length.
        let mut block = [0u8; 64];
        block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        block[self.buf_len] = 0x80;
        if self.buf_len < 56 {
            block[56..].copy_from_slice(&bit_len.to_be_bytes());
            simd::compress_blocks(&mut self.state, &block);
        } else {
            // No room for the length after the 0x80 marker: one extra block.
            simd::compress_blocks(&mut self.state, &block);
            let mut last = [0u8; 64];
            last[56..].copy_from_slice(&bit_len.to_be_bytes());
            simd::compress_blocks(&mut self.state, &last);
        }

        Hash256::from_bytes(state_to_bytes(&self.state))
    }
}

/// Serializes a SHA-256 state as the big-endian digest bytes.
fn state_to_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One-shot SHA-256 of `data`.
///
/// ```
/// use fi_crypto::sha256;
/// assert_eq!(
///     sha256(b"abc").to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hashes a batch of independent messages in lockstep on `backend`, one
/// SIMD lane per message, and returns one digest per message (same order).
///
/// Equivalent to `messages.iter().map(|m| sha256(m)).collect()` but batched:
/// lane `i`'s `b`-th block is fed to the multi-lane compression backend
/// alongside every other lane's `b`-th block. Messages may have unequal
/// lengths; lanes that run out of blocks simply drop out of later rounds.
///
/// # Panics
///
/// Panics if `backend` is not available on this host.
pub(crate) fn digest_many_with(backend: Backend, messages: &[&[u8]]) -> Vec<Hash256> {
    let n = messages.len();
    if n == 0 {
        return Vec::new();
    }
    // Padded block count per lane: message + 0x80 marker + 64-bit length.
    let nblocks: Vec<usize> = messages
        .iter()
        .map(|m| (m.len() + 9).div_ceil(64))
        .collect();
    let max_blocks = *nblocks.iter().max().unwrap();
    let mut states = vec![H0; n];
    let mut blocks: Vec<[u8; 64]> = Vec::with_capacity(n);

    if nblocks.iter().all(|&b| b == max_blocks) {
        // Uniform-length fast path (the audit pipeline's shape): every lane
        // is live in every round, no gather/scatter needed.
        for round in 0..max_blocks {
            blocks.clear();
            blocks.extend(messages.iter().map(|m| round_block(m, round, max_blocks)));
            simd::compress_many_impl(backend, &mut states, &blocks);
        }
    } else {
        let mut gathered: Vec<[u32; 8]> = Vec::with_capacity(n);
        let mut active: Vec<usize> = Vec::with_capacity(n);
        for round in 0..max_blocks {
            blocks.clear();
            gathered.clear();
            active.clear();
            for (i, m) in messages.iter().enumerate() {
                if nblocks[i] > round {
                    active.push(i);
                    gathered.push(states[i]);
                    blocks.push(round_block(m, round, nblocks[i]));
                }
            }
            simd::compress_many_impl(backend, &mut gathered, &blocks);
            for (k, &i) in active.iter().enumerate() {
                states[i] = gathered[k];
            }
        }
    }

    states
        .iter()
        .map(|s| Hash256::from_bytes(state_to_bytes(s)))
        .collect()
}

/// Block `round` of the padded form of `msg`, given its total padded block
/// count. Full data blocks are copied verbatim; the tail block(s) get the
/// 0x80 marker and (in the final block) the big-endian bit length.
fn round_block(msg: &[u8], round: usize, nblocks: usize) -> [u8; 64] {
    let start = round * 64;
    if start + 64 <= msg.len() {
        return msg[start..start + 64].try_into().unwrap();
    }
    let mut block = [0u8; 64];
    if start <= msg.len() {
        let take = msg.len() - start;
        block[..take].copy_from_slice(&msg[start..]);
        block[take] = 0x80;
    }
    if round == nblocks - 1 {
        block[56..].copy_from_slice(&(msg.len() as u64).wrapping_mul(8).to_be_bytes());
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 180-4 / NIST CAVP known-answer tests.
    #[test]
    fn fips_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(sha256(input).to_hex(), *expect, "input {input:?}");
        }
    }

    #[test]
    fn million_a() {
        // FIPS 180-4: one million repetitions of 'a'.
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        // Try many split points, including block boundaries.
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn length_boundary_inputs() {
        // Hash inputs of every length near the padding boundary; the digests
        // must all differ (sanity against padding bugs).
        let data = [0xABu8; 130];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=130 {
            assert!(seen.insert(sha256(&data[..len])), "collision at len {len}");
        }
    }

    /// Deterministic pseudo-random bytes for differential tests (no rand
    /// crate; splitmix64 over a seed).
    fn prng_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        while out.len() < len {
            let mut z = x;
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            out.extend_from_slice(&z.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// NIST CAVP vectors through every backend the host supports, with
    /// enough lanes (19) that each wide kernel's body (16-wide AVX-512,
    /// 8-wide AVX2, SHA-NI pairs) *and* its leftover-lane path both run.
    #[test]
    fn cavp_vectors_every_backend() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for &backend in available_backends() {
            for (input, expect) in cases {
                let lanes: Vec<&[u8]> = vec![input; 19];
                for (lane, digest) in digest_many_with(backend, &lanes).iter().enumerate() {
                    assert_eq!(
                        digest.to_hex(),
                        *expect,
                        "backend {} lane {lane} input {input:?}",
                        backend.name()
                    );
                }
            }
        }
    }

    /// Randomized differential test: every backend must agree with the
    /// streaming scalar-reference hasher for odd lane counts, unequal
    /// lengths, and padding-boundary tails.
    #[test]
    fn digest_many_differential() {
        let lane_counts = [1usize, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33];
        let tricky_lens = [0usize, 1, 55, 56, 63, 64, 65, 119, 127, 128, 200];
        for &backend in available_backends() {
            for (case, &lanes) in lane_counts.iter().enumerate() {
                let msgs: Vec<Vec<u8>> = (0..lanes)
                    .map(|i| {
                        let len = tricky_lens[(i + case) % tricky_lens.len()] + 13 * case;
                        prng_bytes((case * 1000 + i) as u64, len)
                    })
                    .collect();
                let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
                let got = digest_many_with(backend, &refs);
                for (i, m) in msgs.iter().enumerate() {
                    assert_eq!(
                        got[i],
                        sha256(m),
                        "backend {} lanes {lanes} lane {i} len {}",
                        backend.name(),
                        m.len()
                    );
                }
            }
        }
    }

    /// Raw compression-function differential: random states and blocks
    /// through every backend vs the scalar reference.
    #[test]
    fn compress_many_differential() {
        for &backend in available_backends() {
            for lanes in [1usize, 2, 5, 8, 15, 16, 17, 19, 32, 35] {
                let mut states: Vec<[u32; 8]> = (0..lanes)
                    .map(|i| {
                        let b = prng_bytes(7000 + i as u64, 32);
                        std::array::from_fn(|j| {
                            u32::from_le_bytes(b[4 * j..4 * j + 4].try_into().unwrap())
                        })
                    })
                    .collect();
                let blocks: Vec<[u8; 64]> = (0..lanes)
                    .map(|i| prng_bytes(9000 + i as u64, 64).try_into().unwrap())
                    .collect();
                let mut expect = states.clone();
                simd::compress_many_impl(Backend::Scalar, &mut expect, &blocks);
                simd::compress_many_impl(backend, &mut states, &blocks);
                assert_eq!(states, expect, "backend {} lanes {lanes}", backend.name());
            }
        }
    }

    #[test]
    fn select_backend_rules() {
        use Backend::*;
        // Priority order with everything available.
        assert_eq!(
            select_backend(&[Scalar, Avx2, ShaNi, Avx512], false),
            Avx512
        );
        assert_eq!(select_backend(&[Avx512, Scalar, Avx2], false), Avx512);
        assert_eq!(select_backend(&[Scalar, Avx2, ShaNi], false), ShaNi);
        assert_eq!(select_backend(&[Scalar, ShaNi, Avx2], false), ShaNi);
        assert_eq!(select_backend(&[Scalar, Avx2], false), Avx2);
        assert_eq!(select_backend(&[Scalar], false), Scalar);
        // FI_FORCE_SCALAR_SHA pins the portable fallback regardless.
        assert_eq!(select_backend(&[Scalar, Avx2, ShaNi, Avx512], true), Scalar);
        assert_eq!(select_backend(&[Scalar], true), Scalar);
    }

    #[test]
    fn available_backends_always_has_scalar() {
        assert!(available_backends().contains(&Backend::Scalar));
        // The active backend must be one of the available ones.
        assert!(available_backends().contains(&active_backend()));
    }

    /// The global override redirects `active_backend` to every backend the
    /// host has (one code table serves both directions). Safe to run
    /// alongside other tests: all backends produce identical digests, so
    /// concurrent tests observing the temporary override still pass.
    #[test]
    fn force_backend_overrides_selection() {
        for &backend in available_backends() {
            force_backend(Some(backend));
            assert_eq!(active_backend(), backend);
        }
        force_backend(None);
        assert!(available_backends().contains(&active_backend()));
    }

    #[test]
    #[should_panic(expected = "one message block per state lane")]
    fn compress_many_length_mismatch_panics() {
        let mut states = vec![H0; 2];
        simd::compress_many_impl(active_backend(), &mut states, &[[0u8; 64]]);
    }
}
