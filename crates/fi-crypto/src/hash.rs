//! 32-byte digest newtype and domain-separated keyed hashing.

use std::fmt;

use crate::sha256::{self, Backend, PathWalk, Sha256};

/// A 32-byte digest (SHA-256 output).
///
/// Used throughout the workspace as file Merkle roots, content identifiers,
/// replica commitments, beacon outputs, and block hashes.
///
/// # Example
///
/// ```
/// use fi_crypto::{sha256, Hash256};
///
/// let h = sha256(b"file contents");
/// let restored = Hash256::from_hex(&h.to_hex()).unwrap();
/// assert_eq!(h, restored);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Hash256([u8; 32]);

impl Hash256 {
    /// The all-zero digest. Used as a sentinel (e.g. the parent of a genesis
    /// block) — never produced by hashing real data.
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Wraps raw digest bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }

    /// Borrows the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Consumes the digest, returning its bytes.
    pub fn into_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Lowercase hex encoding (64 characters).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }

    /// Parses a 64-character hex string.
    ///
    /// Returns `None` if the string is not exactly 64 hex digits.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        let bytes = s.as_bytes();
        for i in 0..32 {
            let hi = (bytes[2 * i] as char).to_digit(16)?;
            let lo = (bytes[2 * i + 1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Hash256(out))
    }

    /// First 8 bytes interpreted as a big-endian `u64`.
    ///
    /// Handy for deriving integer seeds from digests.
    pub fn to_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().unwrap())
    }

    /// XOR distance between two digests (Kademlia metric), returned as the
    /// number of leading zero bits of the XOR (larger = closer).
    pub fn xor_leading_zeros(&self, other: &Hash256) -> u32 {
        let mut zeros = 0u32;
        for i in 0..32 {
            let x = self.0[i] ^ other.0[i];
            if x == 0 {
                zeros += 8;
            } else {
                zeros += x.leading_zeros();
                break;
            }
        }
        zeros
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }
}

/// Domain-separated keyed hash: `SHA-256(len(domain) || domain || data...)`.
///
/// Each variadic part is length-prefixed so that concatenation ambiguity is
/// impossible (`("ab","c")` never collides with `("a","bc")`).
///
/// # Example
///
/// ```
/// use fi_crypto::keyed_hash;
/// let a = keyed_hash("replica", &[b"file", b"sector-1"]);
/// let b = keyed_hash("replica", &[b"files", b"ector-1"]);
/// assert_ne!(a, b);
/// ```
pub fn keyed_hash(domain: &str, parts: &[&[u8]]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(&(domain.len() as u64).to_be_bytes());
    h.update(domain.as_bytes());
    for part in parts {
        h.update(&(part.len() as u64).to_be_bytes());
        h.update(part);
    }
    h.finalize()
}

/// A [`keyed_hash`] domain prepared once for repeated use.
///
/// Hot protocol loops hash millions of messages under a handful of fixed
/// domain strings (`"fileinsurer/audit-node"`, ...). [`keyed_hash`] re-feeds
/// the length-prefixed domain to a fresh hasher on every call; a
/// `KeyedDomain` serialises that prefix once, and each
/// [`KeyedDomain::hash`] clones a hasher that has already buffered it.
/// Every protocol prefix is shorter than one 64-byte block, so the clone
/// saves the two prefix `update` calls and no compression: nothing is
/// pre-compressed until a prefix reaches 64 bytes. Callers keep one
/// `KeyedDomain` in a `OnceLock` static per domain ([`cached_domain!`](crate::cached_domain)).
///
/// [`KeyedDomain::hash_many`] is the batched form: it hashes N independent
/// messages of the same domain through the multi-lane SIMD backends
/// (`sha256::digest_many_with`), one lane per message, serialising each lane's
/// whole message (prefix included).
///
/// [`KeyedDomain::walk_paths`] is where preparing per domain pays: the
/// chain `node ← hash(&[node, level_be])` has a fixed message shape, so
/// the padded blocks are laid out once here and the walk touches only the
/// digest and level bytes per level (see [`KeyedDomain::walk_paths`]).
///
/// # Example
///
/// ```
/// use fi_crypto::{keyed_hash, KeyedDomain};
///
/// let domain = KeyedDomain::new("replica");
/// assert_eq!(
///     domain.hash(&[b"file", b"sector-1"]),
///     keyed_hash("replica", &[b"file", b"sector-1"]),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct KeyedDomain {
    /// Hasher with the length-prefixed domain already absorbed.
    midstate: Sha256,
    /// Serialized domain prefix (`len(domain) || domain`), re-used when
    /// assembling batched lane messages.
    prefix: Vec<u8>,
    /// Block template of the `(node, level)` path-walk message.
    walk: PathWalk,
}

impl KeyedDomain {
    /// Prepares `domain`.
    pub fn new(domain: &str) -> Self {
        let mut prefix = Vec::with_capacity(8 + domain.len());
        prefix.extend_from_slice(&(domain.len() as u64).to_be_bytes());
        prefix.extend_from_slice(domain.as_bytes());
        let mut midstate = Sha256::new();
        midstate.update(&prefix);
        let walk = PathWalk::new(&prefix);
        KeyedDomain {
            midstate,
            prefix,
            walk,
        }
    }

    /// Equivalent to `keyed_hash(domain, parts)` without re-absorbing the
    /// domain prefix.
    pub fn hash(&self, parts: &[&[u8]]) -> Hash256 {
        let mut h = self.midstate.clone();
        for part in parts {
            h.update(&(part.len() as u64).to_be_bytes());
            h.update(part);
        }
        h.finalize()
    }

    /// Hashes one message per lane (`lanes[i]` is the parts list of message
    /// `i`) through the multi-lane backend, returning one digest per lane.
    ///
    /// Bit-identical to calling [`KeyedDomain::hash`] per lane.
    pub fn hash_many(&self, lanes: &[&[&[u8]]]) -> Vec<Hash256> {
        self.hash_many_with(sha256::active_backend(), lanes)
    }

    /// [`KeyedDomain::hash_many`] with an explicit backend (differential
    /// tests).
    pub fn hash_many_with(&self, backend: Backend, lanes: &[&[&[u8]]]) -> Vec<Hash256> {
        let total: usize = lanes
            .iter()
            .map(|parts| self.prefix.len() + parts.iter().map(|p| 8 + p.len()).sum::<usize>())
            .sum();
        let mut buf = Vec::with_capacity(total);
        let mut ranges = Vec::with_capacity(lanes.len());
        for parts in lanes {
            let start = buf.len();
            buf.extend_from_slice(&self.prefix);
            for part in *parts {
                buf.extend_from_slice(&(part.len() as u64).to_be_bytes());
                buf.extend_from_slice(part);
            }
            ranges.push(start..buf.len());
        }
        let messages: Vec<&[u8]> = ranges.iter().map(|r| &buf[r.clone()]).collect();
        sha256::digest_many_with(backend, &messages)
    }

    /// Walks every lane of `nodes` up a modeled authentication path of
    /// `levels` nodes, in place and in lockstep:
    /// `node ← self.hash(&[node, &level.to_be_bytes()])` for `level` in
    /// `0..levels`.
    ///
    /// One lane's walk is a dependent chain, but the lanes are independent,
    /// so the active backend advances a register group of them together (16
    /// in AVX-512 registers, 2 interleaved SHA-NI streams) and carries each
    /// group through all its levels without leaving the backend's native
    /// layout. Any number of lanes is fine, one included.
    ///
    /// ```
    /// use fi_crypto::{keyed_hash, sha256, KeyedDomain};
    ///
    /// let domain = KeyedDomain::new("fileinsurer/audit-node");
    /// let mut nodes = [sha256(b"leaf 0"), sha256(b"leaf 1"), sha256(b"leaf 2")];
    /// let mut expect = nodes;
    /// for level in 0..4u32 {
    ///     for node in &mut expect {
    ///         *node = keyed_hash(
    ///             "fileinsurer/audit-node",
    ///             &[node.as_bytes(), &level.to_be_bytes()],
    ///         );
    ///     }
    /// }
    /// domain.walk_paths(&mut nodes, 4);
    /// assert_eq!(nodes, expect);
    /// ```
    pub fn walk_paths(&self, nodes: &mut [Hash256], levels: u32) {
        self.walk_paths_with(sha256::active_backend(), nodes, levels);
    }

    /// [`KeyedDomain::walk_paths`] with an explicit backend (differential
    /// tests).
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not available on this host.
    pub fn walk_paths_with(&self, backend: Backend, nodes: &mut [Hash256], levels: u32) {
        self.walk.walk(backend, nodes, levels);
    }
}

/// Defines a zero-argument function returning a process-wide cached
/// [`KeyedDomain`] for a fixed domain string.
///
/// Hot protocol loops keep one prepared [`KeyedDomain`] per domain; this macro is
/// the one-liner for that pattern (a `OnceLock` static behind an accessor).
///
/// # Example
///
/// ```
/// use fi_crypto::{cached_domain, keyed_hash};
///
/// cached_domain!(fn replica_domain, "replica");
/// assert_eq!(
///     replica_domain().hash(&[b"file"]),
///     keyed_hash("replica", &[b"file"]),
/// );
/// ```
#[macro_export]
macro_rules! cached_domain {
    ($(#[$meta:meta])* $vis:vis fn $name:ident, $domain:expr) => {
        $(#[$meta])*
        $vis fn $name() -> &'static $crate::KeyedDomain {
            static CELL: ::std::sync::OnceLock<$crate::KeyedDomain> =
                ::std::sync::OnceLock::new();
            CELL.get_or_init(|| $crate::KeyedDomain::new($domain))
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256;

    #[test]
    fn hex_round_trip() {
        let h = sha256(b"round trip");
        assert_eq!(Hash256::from_hex(&h.to_hex()), Some(h));
        assert_eq!(Hash256::from_hex("xyz"), None);
        assert_eq!(Hash256::from_hex(&"g".repeat(64)), None);
    }

    #[test]
    fn zero_is_sentinel() {
        assert_eq!(Hash256::ZERO.to_hex(), "0".repeat(64));
        assert_ne!(sha256(b""), Hash256::ZERO);
    }

    #[test]
    fn keyed_hash_domain_separation() {
        assert_ne!(
            keyed_hash("a", &[b"payload"]),
            keyed_hash("b", &[b"payload"])
        );
        // Length prefixing prevents concatenation ambiguity.
        assert_ne!(
            keyed_hash("d", &[b"ab", b"c"]),
            keyed_hash("d", &[b"a", b"bc"])
        );
        assert_ne!(keyed_hash("d", &[b"abc"]), keyed_hash("d", &[b"ab", b"c"]));
    }

    #[test]
    fn xor_leading_zeros_basics() {
        let a = Hash256::from_bytes([0u8; 32]);
        assert_eq!(a.xor_leading_zeros(&a), 256);
        let mut b = [0u8; 32];
        b[0] = 0x80;
        assert_eq!(a.xor_leading_zeros(&Hash256::from_bytes(b)), 0);
        let mut c = [0u8; 32];
        c[1] = 0x01;
        assert_eq!(a.xor_leading_zeros(&Hash256::from_bytes(c)), 15);
    }

    #[test]
    fn keyed_domain_matches_naive_path() {
        // Preparing a domain must be invisible: same digests as keyed_hash.
        for domain in ["fileinsurer/audit-task", "x", &"long".repeat(40)] {
            let cached = KeyedDomain::new(domain);
            let cases: &[&[&[u8]]] = &[&[], &[b"a"], &[b"file", b"sector-1"], &[&[0u8; 100]]];
            for parts in cases {
                assert_eq!(cached.hash(parts), keyed_hash(domain, parts), "{domain}");
            }
        }
    }

    #[test]
    fn keyed_domain_hash_many_differential() {
        let domain = KeyedDomain::new("fileinsurer/audit-node");
        let payloads: Vec<(Vec<u8>, Vec<u8>)> = (0..23u8)
            .map(|i| (vec![i; 32], vec![i ^ 0x5A; 1 + i as usize]))
            .collect();
        let lanes_owned: Vec<[&[u8]; 2]> = payloads
            .iter()
            .map(|(a, b)| [a.as_slice(), b.as_slice()])
            .collect();
        let lanes: Vec<&[&[u8]]> = lanes_owned.iter().map(|l| l.as_slice()).collect();
        for &backend in sha256::available_backends() {
            let got = domain.hash_many_with(backend, &lanes);
            for (i, lane) in lanes.iter().enumerate() {
                assert_eq!(
                    got[i],
                    keyed_hash("fileinsurer/audit-node", lane),
                    "backend {} lane {i}",
                    backend.name()
                );
            }
        }
        assert!(domain.hash_many(&[]).is_empty());
    }

    /// The fused walker against a plain `keyed_hash` chain: every backend,
    /// lane counts around each register-group width, and domains whose
    /// prefix puts the node at every byte alignment, in the first block or
    /// behind pre-compressed ones, with a one- or two-block tail (domain
    /// lengths 48..=51 leave a one-block tail; the shortest possible
    /// message is 60 bytes, so no walk fits a single block in all).
    ///
    /// An optimized build runs the whole product. A debug build (intrinsics
    /// not inlined, several µs a hash) keeps the 4 097-lane walks to the
    /// protocol's domain length and 8 levels.
    #[test]
    fn walk_paths_matches_keyed_hash_chain() {
        const WIDE: usize = 4097;
        const NARROW: usize = 33;
        let lane_counts = [0usize, 1, 2, 3, 15, 16, 17, NARROW, WIDE];
        let level_counts = [0u32, 1, 8, 64];
        let domain_lens = [
            0usize, 1, 2, 3, 22, 47, 48, 49, 50, 51, 52, 59, 60, 113, 130,
        ];
        for len in domain_lens {
            let name: String = "fileinsurer/audit-node".chars().cycle().take(len).collect();
            let domain = KeyedDomain::new(&name);
            let wide_levels = match (cfg!(debug_assertions), len) {
                (false, _) => 64,
                (true, 22) => 8,
                (true, _) => 0,
            };
            // The reference chain once per domain: `chain[l]` holds every
            // lane after `l` levels, `WIDE` lanes up to `wide_levels` and
            // `NARROW` beyond. Each backend's walk of fewer lanes is
            // compared with a prefix.
            let leaves: Vec<Hash256> = (0..WIDE as u32)
                .map(|lane| sha256(&lane.to_be_bytes()))
                .collect();
            let mut chain = vec![leaves.clone()];
            for level in 0..64u32 {
                let width = if level < wide_levels { WIDE } else { NARROW };
                let next = chain[level as usize][..width]
                    .iter()
                    .map(|node| keyed_hash(&name, &[node.as_bytes(), &level.to_be_bytes()]))
                    .collect();
                chain.push(next);
            }
            for &backend in sha256::available_backends() {
                for lanes in lane_counts {
                    for levels in level_counts {
                        if lanes == WIDE && levels > wide_levels {
                            continue;
                        }
                        let mut nodes = leaves[..lanes].to_vec();
                        domain.walk_paths_with(backend, &mut nodes, levels);
                        assert_eq!(
                            nodes,
                            chain[levels as usize][..lanes],
                            "backend {} domain length {len} lanes {lanes} levels {levels}",
                            backend.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn to_u64_is_prefix() {
        let mut raw = [0u8; 32];
        raw[..8].copy_from_slice(&0xDEAD_BEEF_CAFE_F00Du64.to_be_bytes());
        assert_eq!(Hash256::from_bytes(raw).to_u64(), 0xDEAD_BEEF_CAFE_F00D);
    }
}
