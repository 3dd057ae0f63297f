//! Runtime-dispatched SHA-256 compression backends.
//!
//! Four implementations of the FIPS 180-4 compression function live here:
//!
//! * [`compress_scalar`] — the portable reference, byte-for-byte the code the
//!   crate shipped with before SIMD support. It is *frozen*: every other
//!   backend is differentially tested against it, and it is always available.
//! * `rounds_shani` — x86 SHA-NI instructions
//!   (`sha256rnds2`/`sha256msg1`/`sha256msg2`). The only backend that
//!   accelerates a *single* stream. One stream is latency-bound on the
//!   `sha256rnds2` chain, so batches run [`SHANI_STREAMS`] independent
//!   streams interleaved round by round.
//! * `compress8_avx2` — an 8-wide AVX2 kernel that transposes eight
//!   independent message blocks into one-word-per-lane vectors and runs the
//!   64 rounds in SPMD style. Only useful for *batches*; a single stream
//!   gains nothing because the round recurrence is sequential.
//! * `compress16_avx512` — the same SPMD shape 16 lanes wide in ZMM
//!   registers, with native rotates (`vprord`) and three-input logic
//!   (`vpternlogd`), and a register 16×16 transpose in place of the AVX2
//!   kernel's scalar one. Batches only: the lanes a 16-wide sweep leaves
//!   over, and every single stream, run on SHA-NI when the host has it and
//!   on the scalar code otherwise ([`Backend::stream_backend`]).
//!
//! Backend choice follows the PR 1 GF(256) pattern: detect once with
//! `is_x86_feature_detected!`, prefer `Avx512 > ShaNi > Avx2 > Scalar`, and
//! honour the `FI_FORCE_SCALAR_SHA=1` environment override so CI can pin the
//! portable fallback. All backends produce bit-identical digests — this is a
//! hard protocol invariant (`state_root`/`audit_root` must not depend on the
//! host's CPU).

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use super::K;

/// A SHA-256 compression implementation selected at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable FIPS 180-4 reference implementation.
    Scalar,
    /// 8-wide AVX2 transposed-schedule kernel (batches only).
    Avx2,
    /// x86 SHA extensions (`sha256rnds2` et al.).
    ShaNi,
    /// 16-wide AVX-512 transposed-schedule kernel (batches only).
    Avx512,
}

impl Backend {
    /// Every backend, indexed by discriminant. The one table behind
    /// [`force_backend`]'s code ↔ backend mapping.
    const ALL: [Backend; 4] = [
        Backend::Scalar,
        Backend::Avx2,
        Backend::ShaNi,
        Backend::Avx512,
    ];

    /// Stable lowercase name, used in bench snapshots and logs.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::ShaNi => "sha-ni",
            Backend::Avx512 => "avx512",
        }
    }

    /// The [`FORCED`] encoding: `0` means "no override", so codes start at 1.
    fn code(self) -> u8 {
        self as u8 + 1
    }

    fn from_code(code: u8) -> Option<Backend> {
        Self::ALL.get(usize::from(code).checked_sub(1)?).copied()
    }

    /// The backend that runs what this one's wide kernel cannot take: a
    /// single stream, or the lanes left over after the last full sweep.
    /// The wide kernels hand those to SHA-NI when the host has it, else to
    /// the scalar code.
    pub(super) fn stream_backend(self) -> Backend {
        match self {
            Backend::Scalar | Backend::ShaNi => self,
            Backend::Avx2 => Backend::Scalar,
            Backend::Avx512 if available_backends().contains(&Backend::ShaNi) => Backend::ShaNi,
            Backend::Avx512 => Backend::Scalar,
        }
    }

    /// # Panics
    ///
    /// Panics if this backend was not detected on this host — running it
    /// would execute illegal instructions.
    pub(super) fn assert_available(self) {
        assert!(
            available_backends().contains(&self),
            "SHA-256 backend {} is not available on this host",
            self.name()
        );
    }
}

/// Backends usable on this host, detected once: `Scalar` always, plus
/// `Avx2`/`ShaNi`/`Avx512` when the CPU reports the features.
pub fn available_backends() -> &'static [Backend] {
    static AVAILABLE: OnceLock<Vec<Backend>> = OnceLock::new();
    AVAILABLE.get_or_init(detect_available)
}

fn detect_available() -> Vec<Backend> {
    let mut found = vec![Backend::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push(Backend::Avx2);
        }
        if std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            found.push(Backend::ShaNi);
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            found.push(Backend::Avx512);
        }
    }
    found
}

/// Pure selection rule: the fastest available backend (`Avx512 > ShaNi >
/// Avx2 > Scalar`), unless `force_scalar` pins the portable fallback.
///
/// Split out from [`active_backend`] so the env-override logic is unit
/// testable without mutating process state.
pub fn select_backend(available: &[Backend], force_scalar: bool) -> Backend {
    if force_scalar {
        return Backend::Scalar;
    }
    [Backend::Avx512, Backend::ShaNi, Backend::Avx2]
        .into_iter()
        .find(|backend| available.contains(backend))
        .unwrap_or(Backend::Scalar)
}

/// `0` = no override; otherwise [`Backend::code`].
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The backend used by the dispatching entry points.
///
/// Resolution order: a [`force_backend`] override if set, otherwise the
/// cached result of [`select_backend`] over the detected features and the
/// `FI_FORCE_SCALAR_SHA=1` environment variable (read once).
pub fn active_backend() -> Backend {
    if let Some(forced) = Backend::from_code(FORCED.load(Ordering::Relaxed)) {
        return forced;
    }
    static DEFAULT: OnceLock<Backend> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let force_scalar = std::env::var("FI_FORCE_SCALAR_SHA").is_ok_and(|v| v == "1");
        select_backend(available_backends(), force_scalar)
    })
}

/// Overrides [`active_backend`] process-wide (`None` clears the override).
///
/// Intended for single-threaded benchmarks that compare backends in one
/// process. Tests should prefer the explicit `*_with` entry points instead:
/// this override is global, so concurrently running tests would observe each
/// other's choice.
///
/// # Panics
///
/// Panics if `backend` is not in [`available_backends`] — forcing an
/// undetected SIMD backend would execute illegal instructions.
pub fn force_backend(backend: Option<Backend>) {
    if let Some(b) = backend {
        b.assert_available();
    }
    FORCED.store(backend.map_or(0, Backend::code), Ordering::Relaxed);
}

/// Portable FIPS 180-4 compression function (the frozen reference).
pub(crate) fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Compresses every whole 64-byte block of `data` into `state`, single
/// stream, using the active backend. `data.len()` must be a multiple of 64.
///
/// The wide kernels have no single-stream advantage (the round recurrence
/// is sequential), so only SHA-NI accelerates this path — as the active
/// backend, or as the stream backend of `Avx512`.
pub(crate) fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    match active_backend().stream_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::ShaNi => {
            // SAFETY: `active_backend` only yields a backend that was
            // detected (or a forced override that passed the same
            // availability assertion), and `stream_backend` names ShaNi
            // only when the sha/sse2/ssse3/sse4.1 features were detected.
            unsafe { compress_blocks_shani(state, data) }
        }
        _ => {
            for block in data.chunks_exact(64) {
                compress_scalar(state, block.try_into().unwrap());
            }
        }
    }
}

/// Compresses `blocks[i]` into `states[i]` for every lane, using `backend`.
///
/// # Panics
///
/// Panics if the slices differ in length, or if a SIMD `backend` is named on
/// a host that does not support it.
pub(crate) fn compress_many_impl(backend: Backend, states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    assert_eq!(
        states.len(),
        blocks.len(),
        "one message block per state lane"
    );
    backend.assert_available();
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::ShaNi => {
            let mut state_chunks = states.chunks_exact_mut(SHANI_STREAMS);
            let block_chunks = blocks.chunks_exact(SHANI_STREAMS);
            let tail_blocks = block_chunks.remainder();
            for (state_n, block_n) in (&mut state_chunks).zip(block_chunks) {
                // SAFETY: availability asserted above; both chunks hold
                // exactly `SHANI_STREAMS` lanes.
                unsafe { compress_lanes_shani::<SHANI_STREAMS>(state_n, block_n) }
            }
            for (state, block) in state_chunks.into_remainder().iter_mut().zip(tail_blocks) {
                // SAFETY: availability asserted above; one whole block.
                unsafe { compress_blocks_shani(state, block) }
            }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            let mut state_chunks = states.chunks_exact_mut(8);
            let block_chunks = blocks.chunks_exact(8);
            let tail_blocks = block_chunks.remainder();
            for (state8, block8) in (&mut state_chunks).zip(block_chunks) {
                // SAFETY: availability asserted above; both chunks are
                // exactly 8 lanes.
                unsafe { compress8_avx2(state8, block8) }
            }
            compress_many_impl(
                backend.stream_backend(),
                state_chunks.into_remainder(),
                tail_blocks,
            );
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => {
            let mut state_chunks = states.chunks_exact_mut(16);
            let block_chunks = blocks.chunks_exact(16);
            let tail_blocks = block_chunks.remainder();
            for (state16, block16) in (&mut state_chunks).zip(block_chunks) {
                // SAFETY: availability asserted above; both chunks are
                // exactly 16 lanes, i.e. 16 rows of 32 and of 64 bytes.
                unsafe {
                    let mut state = load_rows8_avx512(state16.as_ptr().cast());
                    let mut w = [_mm512_setzero_si512(); 16];
                    for (row, block) in w.iter_mut().zip(block16) {
                        *row = bswap32_avx512(_mm512_loadu_si512(block.as_ptr().cast()));
                    }
                    compress16_avx512(&mut state, &transpose16_avx512(w));
                    store_rows8_avx512(state, state16.as_mut_ptr().cast());
                }
            }
            compress_many_impl(
                backend.stream_backend(),
                state_chunks.into_remainder(),
                tail_blocks,
            );
        }
        _ => {
            for (state, block) in states.iter_mut().zip(blocks) {
                compress_scalar(state, block);
            }
        }
    }
}

/// Independent streams the SHA-NI batch paths run interleaved. One stream
/// issues a `sha256rnds2` only every latency period of the previous one;
/// two keep the unit busy, and more would spill the 16 XMM registers (each
/// stream holds 2 state and 4 schedule vectors).
#[cfg(target_arch = "x86_64")]
pub(super) const SHANI_STREAMS: usize = 2;

/// Byte shuffle turning each 32-bit little-endian lane into big-endian.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "sse2")]
pub(super) fn be_mask_shani() -> __m128i {
    _mm_set_epi64x(
        0x0c0d_0e0f_0809_0a0bu64 as i64,
        0x0405_0607_0001_0203u64 as i64,
    )
}

/// Permutes `ABCD`, `EFGH` word vectors into the `ABEF`/`CDGH` register
/// layout `sha256rnds2` expects.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(super) fn permute_state_shani(abcd: __m128i, efgh: __m128i) -> (__m128i, __m128i) {
    let tmp = _mm_shuffle_epi32::<0xB1>(abcd); // CDAB
    let efgh = _mm_shuffle_epi32::<0x1B>(efgh); // EFGH
    (
        _mm_alignr_epi8::<8>(tmp, efgh),    // ABEF
        _mm_blend_epi16::<0xF0>(efgh, tmp), // CDGH
    )
}

/// Inverse of [`permute_state_shani`].
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(super) fn unpermute_state_shani(abef: __m128i, cdgh: __m128i) -> (__m128i, __m128i) {
    let tmp = _mm_shuffle_epi32::<0x1B>(abef); // FEBA
    let cdgh = _mm_shuffle_epi32::<0xB1>(cdgh); // DCHG
    (
        _mm_blend_epi16::<0xF0>(tmp, cdgh), // DCBA
        _mm_alignr_epi8::<8>(cdgh, tmp),    // HGFE
    )
}

/// Loads a state into the `(ABEF, CDGH)` register layout.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(super) fn load_state_shani(state: &[u32; 8]) -> (__m128i, __m128i) {
    // SAFETY: `state` is 32 readable bytes; the loads are unaligned ones.
    unsafe {
        permute_state_shani(
            _mm_loadu_si128(state.as_ptr().cast()),
            _mm_loadu_si128(state.as_ptr().add(4).cast()),
        )
    }
}

/// Inverse of [`load_state_shani`].
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn store_state_shani(abef: __m128i, cdgh: __m128i, state: &mut [u32; 8]) {
    let (abcd, efgh) = unpermute_state_shani(abef, cdgh);
    // SAFETY: `state` is 32 writable bytes; the stores are unaligned ones.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr().cast(), abcd);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), efgh);
    }
}

/// The 64 SHA-256 rounds plus feed-forward over `N` independent streams,
/// interleaved group by group (4 rounds of every stream, then the next 4)
/// so the streams' `sha256rnds2` chains overlap. `abef`/`cdgh` hold each
/// stream's state in the permuted layout; `m[s]` holds stream `s`'s message
/// block as four big-endian-decoded word vectors and is consumed as the
/// schedule ring.
///
/// # Safety
///
/// Caller must ensure the `sha`, `sse2`, `ssse3`, and `sse4.1` features are
/// available.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(super) unsafe fn rounds_shani<const N: usize>(
    abef: &mut [__m128i; N],
    cdgh: &mut [__m128i; N],
    m: &mut [[__m128i; 4]; N],
) {
    let (abef_save, cdgh_save) = (*abef, *cdgh);

    // Four rounds of every stream on schedule-ring slot `$g`, with round
    // constants `K[$k + 4 * $g ..]`. Ring indices are literals so the ring
    // stays in registers.
    macro_rules! group {
        ($sched:literal, $k:expr, $g:literal) => {
            for s in 0..N {
                if $sched {
                    // w[4g..] = msg2(msg1(w[4g-16..], w[4g-12..]) + alignr(...), w[4g-4..])
                    let w_prev = m[s][($g + 3) % 4];
                    let shifted = _mm_alignr_epi8::<4>(w_prev, m[s][($g + 2) % 4]);
                    m[s][$g] = _mm_sha256msg2_epu32(
                        _mm_add_epi32(_mm_sha256msg1_epu32(m[s][$g], m[s][($g + 1) % 4]), shifted),
                        w_prev,
                    );
                }
                let k = _mm_loadu_si128(K.as_ptr().add($k + 4 * $g).cast());
                let msg = _mm_add_epi32(m[s][$g], k);
                cdgh[s] = _mm_sha256rnds2_epu32(cdgh[s], abef[s], msg);
                abef[s] = _mm_sha256rnds2_epu32(abef[s], cdgh[s], _mm_shuffle_epi32::<0x0E>(msg));
            }
        };
    }
    group!(false, 0, 0);
    group!(false, 0, 1);
    group!(false, 0, 2);
    group!(false, 0, 3);
    for k in [16, 32, 48] {
        group!(true, k, 0);
        group!(true, k, 1);
        group!(true, k, 2);
        group!(true, k, 3);
    }

    for s in 0..N {
        abef[s] = _mm_add_epi32(abef[s], abef_save[s]);
        cdgh[s] = _mm_add_epi32(cdgh[s], cdgh_save[s]);
    }
}

/// Loads a 64-byte message block as four big-endian-decoded word vectors.
///
/// # Safety
///
/// Caller must ensure the `sha`…`sse4.1` features and 64 readable bytes at
/// `block`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn load_block_shani(block: *const u8) -> [__m128i; 4] {
    let be_mask = be_mask_shani();
    [
        _mm_shuffle_epi8(_mm_loadu_si128(block.cast()), be_mask),
        _mm_shuffle_epi8(_mm_loadu_si128(block.add(16).cast()), be_mask),
        _mm_shuffle_epi8(_mm_loadu_si128(block.add(32).cast()), be_mask),
        _mm_shuffle_epi8(_mm_loadu_si128(block.add(48).cast()), be_mask),
    ]
}

/// SHA-NI compression over all whole blocks of `data` (single stream), the
/// state staying in registers across blocks.
///
/// # Safety
///
/// Caller must ensure the `sha`, `sse2`, `ssse3`, and `sse4.1` features are
/// available, and that `data.len()` is a multiple of 64.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks_shani(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    let (abef, cdgh) = load_state_shani(state);
    let (mut abef, mut cdgh) = ([abef], [cdgh]);
    for block in data.chunks_exact(64) {
        rounds_shani(
            &mut abef,
            &mut cdgh,
            &mut [load_block_shani(block.as_ptr())],
        );
    }
    store_state_shani(abef[0], cdgh[0], state);
}

/// One block into each of `N` independent lanes, interleaved.
///
/// # Safety
///
/// Caller must ensure the `sha`…`sse4.1` features are available and both
/// slices have exactly `N` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_lanes_shani<const N: usize>(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    debug_assert_eq!(states.len(), N);
    debug_assert_eq!(blocks.len(), N);
    let zero = _mm_setzero_si128();
    let (mut abef, mut cdgh, mut m) = ([zero; N], [zero; N], [[zero; 4]; N]);
    for s in 0..N {
        (abef[s], cdgh[s]) = load_state_shani(&states[s]);
        m[s] = load_block_shani(blocks[s].as_ptr());
    }
    rounds_shani(&mut abef, &mut cdgh, &mut m);
    for s in 0..N {
        store_state_shani(abef[s], cdgh[s], &mut states[s]);
    }
}

/// 8-wide AVX2 compression: lane `l` of every vector holds stream `l`.
///
/// The eight message blocks are transposed so each round operates on one
/// 8×u32 vector per state variable; rotations are emulated with
/// shift-shift-or (AVX2 has no vprold).
///
/// # Safety
///
/// Caller must ensure AVX2 is available and both slices have exactly 8
/// elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn compress8_avx2(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    debug_assert_eq!(states.len(), 8);
    debug_assert_eq!(blocks.len(), 8);

    macro_rules! rotr {
        ($x:expr, $n:literal) => {
            _mm256_or_si256(_mm256_srli_epi32($x, $n), _mm256_slli_epi32($x, 32 - $n))
        };
    }
    macro_rules! xor3 {
        ($a:expr, $b:expr, $c:expr) => {
            _mm256_xor_si256(_mm256_xor_si256($a, $b), $c)
        };
    }
    macro_rules! add {
        ($a:expr, $b:expr) => { _mm256_add_epi32($a, $b) };
        ($a:expr, $b:expr $(, $rest:expr)+) => { add!(_mm256_add_epi32($a, $b) $(, $rest)+) };
    }

    // Transpose state and message words into one-row-per-word form so the
    // vector loads below are contiguous.
    let mut tstate = [[0u32; 8]; 8];
    for (lane, state) in states.iter().enumerate() {
        for (word, &value) in state.iter().enumerate() {
            tstate[word][lane] = value;
        }
    }
    let mut tw = [[0u32; 8]; 16];
    for (lane, block) in blocks.iter().enumerate() {
        for (word, chunk) in block.chunks_exact(4).enumerate() {
            tw[word][lane] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
    }

    let mut w = [_mm256_setzero_si256(); 16];
    for (vec, row) in w.iter_mut().zip(tw.iter()) {
        *vec = _mm256_loadu_si256(row.as_ptr().cast());
    }
    let mut a = _mm256_loadu_si256(tstate[0].as_ptr().cast());
    let mut b = _mm256_loadu_si256(tstate[1].as_ptr().cast());
    let mut c = _mm256_loadu_si256(tstate[2].as_ptr().cast());
    let mut d = _mm256_loadu_si256(tstate[3].as_ptr().cast());
    let mut e = _mm256_loadu_si256(tstate[4].as_ptr().cast());
    let mut f = _mm256_loadu_si256(tstate[5].as_ptr().cast());
    let mut g = _mm256_loadu_si256(tstate[6].as_ptr().cast());
    let mut h = _mm256_loadu_si256(tstate[7].as_ptr().cast());

    for t in 0..64 {
        let wt = if t < 16 {
            w[t]
        } else {
            let w15 = w[(t + 1) & 15];
            let w2 = w[(t + 14) & 15];
            let s0 = xor3!(rotr!(w15, 7), rotr!(w15, 18), _mm256_srli_epi32(w15, 3));
            let s1 = xor3!(rotr!(w2, 17), rotr!(w2, 19), _mm256_srli_epi32(w2, 10));
            let next = add!(w[t & 15], s0, w[(t + 9) & 15], s1);
            w[t & 15] = next;
            next
        };
        let s1 = xor3!(rotr!(e, 6), rotr!(e, 11), rotr!(e, 25));
        let ch = _mm256_xor_si256(g, _mm256_and_si256(e, _mm256_xor_si256(f, g)));
        let t1 = add!(h, s1, ch, _mm256_set1_epi32(K[t] as i32), wt);
        let s0 = xor3!(rotr!(a, 2), rotr!(a, 13), rotr!(a, 22));
        let maj = _mm256_or_si256(
            _mm256_and_si256(a, b),
            _mm256_and_si256(c, _mm256_or_si256(a, b)),
        );
        let t2 = _mm256_add_epi32(s0, maj);
        h = g;
        g = f;
        f = e;
        e = _mm256_add_epi32(d, t1);
        d = c;
        c = b;
        b = a;
        a = _mm256_add_epi32(t1, t2);
    }

    // Feed-forward add and scatter back to the row-major lanes.
    let finals = [a, b, c, d, e, f, g, h];
    for (word, vec) in finals.iter().enumerate() {
        let sum = _mm256_add_epi32(*vec, _mm256_loadu_si256(tstate[word].as_ptr().cast()));
        let mut out = [0u32; 8];
        _mm256_storeu_si256(out.as_mut_ptr().cast(), sum);
        for (lane, value) in out.iter().enumerate() {
            states[lane][word] = *value;
        }
    }
}

/// 16-wide AVX-512 compression on word-sliced operands: `state[v]` holds
/// state word `v` of 16 independent streams (stream `l` in lane `l`),
/// `block[j]` their big-endian-decoded message word `j`. Runs the 64
/// rounds and the feed-forward; `state` stays word-sliced, so a caller
/// chaining compressions never transposes in between.
///
/// # Safety
///
/// Caller must ensure the `avx512f` and `avx512bw` features are available.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) unsafe fn compress16_avx512(state: &mut [__m512i; 8], block: &[__m512i; 16]) {
    // vpternlogd truth tables.
    const XOR3: i32 = 0x96;
    const CH: i32 = 0xCA;
    const MAJ: i32 = 0xE8;

    let mut w = *block;
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // Round `$k + $i` with the working variables under the names given
    // (the caller rotates the names instead of moving eight registers).
    // Schedule-ring indices are literals so the ring stays in registers.
    macro_rules! round {
        ($sched:literal, $k:expr, $i:literal,
         $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident) => {
            if $sched {
                let w15 = w[($i + 1) & 15];
                let w2 = w[($i + 14) & 15];
                let s0 = _mm512_ternarylogic_epi32::<XOR3>(
                    _mm512_ror_epi32::<7>(w15),
                    _mm512_ror_epi32::<18>(w15),
                    _mm512_srli_epi32::<3>(w15),
                );
                let s1 = _mm512_ternarylogic_epi32::<XOR3>(
                    _mm512_ror_epi32::<17>(w2),
                    _mm512_ror_epi32::<19>(w2),
                    _mm512_srli_epi32::<10>(w2),
                );
                w[$i] = _mm512_add_epi32(
                    _mm512_add_epi32(w[$i], s0),
                    _mm512_add_epi32(w[($i + 9) & 15], s1),
                );
            }
            let kw = _mm512_add_epi32(w[$i], _mm512_set1_epi32(K[$k + $i] as i32));
            let s1 = _mm512_ternarylogic_epi32::<XOR3>(
                _mm512_ror_epi32::<6>($e),
                _mm512_ror_epi32::<11>($e),
                _mm512_ror_epi32::<25>($e),
            );
            let ch = _mm512_ternarylogic_epi32::<CH>($e, $f, $g);
            let t1 = _mm512_add_epi32(_mm512_add_epi32($h, s1), _mm512_add_epi32(ch, kw));
            let s0 = _mm512_ternarylogic_epi32::<XOR3>(
                _mm512_ror_epi32::<2>($a),
                _mm512_ror_epi32::<13>($a),
                _mm512_ror_epi32::<22>($a),
            );
            let maj = _mm512_ternarylogic_epi32::<MAJ>($a, $b, $c);
            $d = _mm512_add_epi32($d, t1);
            $h = _mm512_add_epi32(t1, _mm512_add_epi32(s0, maj));
        };
    }
    macro_rules! rounds16 {
        ($sched:literal, $k:expr) => {
            round!($sched, $k, 0, a, b, c, d, e, f, g, h);
            round!($sched, $k, 1, h, a, b, c, d, e, f, g);
            round!($sched, $k, 2, g, h, a, b, c, d, e, f);
            round!($sched, $k, 3, f, g, h, a, b, c, d, e);
            round!($sched, $k, 4, e, f, g, h, a, b, c, d);
            round!($sched, $k, 5, d, e, f, g, h, a, b, c);
            round!($sched, $k, 6, c, d, e, f, g, h, a, b);
            round!($sched, $k, 7, b, c, d, e, f, g, h, a);
            round!($sched, $k, 8, a, b, c, d, e, f, g, h);
            round!($sched, $k, 9, h, a, b, c, d, e, f, g);
            round!($sched, $k, 10, g, h, a, b, c, d, e, f);
            round!($sched, $k, 11, f, g, h, a, b, c, d, e);
            round!($sched, $k, 12, e, f, g, h, a, b, c, d);
            round!($sched, $k, 13, d, e, f, g, h, a, b, c);
            round!($sched, $k, 14, c, d, e, f, g, h, a, b);
            round!($sched, $k, 15, b, c, d, e, f, g, h, a);
        };
    }
    rounds16!(false, 0);
    for k in [16, 32, 48] {
        rounds16!(true, k);
    }

    for (word, sum) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = _mm512_add_epi32(*word, sum);
    }
}

/// Swaps the bytes of every 32-bit lane (big-endian ↔ native words).
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) fn bswap32_avx512(x: __m512i) -> __m512i {
    _mm512_shuffle_epi8(x, _mm512_broadcast_i32x4(be_mask_shani()))
}

/// Transposes a 16×16 matrix of 32-bit words held one row per register.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn transpose16_avx512(r: [__m512i; 16]) -> [__m512i; 16] {
    let zero = _mm512_setzero_si512();
    // 4×4 word transposes inside each 128-bit lane: `u[4g + c]` holds, in
    // 128-bit lane `q`, column `4q + c` of rows `4g..4g + 4`.
    let mut u = [zero; 16];
    for g in 0..4 {
        let t0 = _mm512_unpacklo_epi32(r[4 * g], r[4 * g + 1]);
        let t1 = _mm512_unpackhi_epi32(r[4 * g], r[4 * g + 1]);
        let t2 = _mm512_unpacklo_epi32(r[4 * g + 2], r[4 * g + 3]);
        let t3 = _mm512_unpackhi_epi32(r[4 * g + 2], r[4 * g + 3]);
        u[4 * g] = _mm512_unpacklo_epi64(t0, t2);
        u[4 * g + 1] = _mm512_unpackhi_epi64(t0, t2);
        u[4 * g + 2] = _mm512_unpacklo_epi64(t1, t3);
        u[4 * g + 3] = _mm512_unpackhi_epi64(t1, t3);
    }
    // 4×4 transposes of whole 128-bit lanes across the four row groups.
    let mut out = [zero; 16];
    for c in 0..4 {
        let v0 = _mm512_shuffle_i32x4::<0x88>(u[c], u[4 + c]);
        let v1 = _mm512_shuffle_i32x4::<0xDD>(u[c], u[4 + c]);
        let v2 = _mm512_shuffle_i32x4::<0x88>(u[8 + c], u[12 + c]);
        let v3 = _mm512_shuffle_i32x4::<0xDD>(u[8 + c], u[12 + c]);
        out[c] = _mm512_shuffle_i32x4::<0x88>(v0, v2);
        out[4 + c] = _mm512_shuffle_i32x4::<0x88>(v1, v3);
        out[8 + c] = _mm512_shuffle_i32x4::<0xDD>(v0, v2);
        out[12 + c] = _mm512_shuffle_i32x4::<0xDD>(v1, v3);
    }
    out
}

/// Loads 16 rows of eight 32-bit words (states, or digests) word-sliced:
/// element `v` of the result holds word `v` of every row.
///
/// # Safety
///
/// Caller must ensure the `avx512f`/`avx512bw` features and 16 × 32
/// readable bytes at `rows`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) unsafe fn load_rows8_avx512(rows: *const u8) -> [__m512i; 8] {
    let mut r = [_mm512_setzero_si512(); 16];
    for (i, row) in r.iter_mut().enumerate() {
        *row = _mm512_zextsi256_si512(_mm256_loadu_si256(rows.add(32 * i).cast()));
    }
    let t = transpose16_avx512(r);
    [t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7]]
}

/// Inverse of [`load_rows8_avx512`].
///
/// # Safety
///
/// Caller must ensure the `avx512f`/`avx512bw` features and 16 × 32
/// writable bytes at `rows`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) unsafe fn store_rows8_avx512(words: [__m512i; 8], rows: *mut u8) {
    let mut r = [_mm512_setzero_si512(); 16];
    r[..8].copy_from_slice(&words);
    for (i, row) in transpose16_avx512(r).into_iter().enumerate() {
        _mm256_storeu_si256(rows.add(32 * i).cast(), _mm512_castsi512_si256(row));
    }
}

#[cfg(test)]
mod tests {
    use super::Backend;

    #[test]
    fn backend_codes_round_trip() {
        assert_eq!(Backend::from_code(0), None);
        for (index, backend) in Backend::ALL.into_iter().enumerate() {
            assert_eq!(backend as usize, index, "ALL is indexed by discriminant");
            assert_eq!(Backend::from_code(backend.code()), Some(backend));
        }
        assert_eq!(Backend::from_code(Backend::ALL.len() as u8 + 1), None);
    }
}
