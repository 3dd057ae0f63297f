//! Large-file segmentation via erasure coding (paper §VI-C).
//!
//! Files bigger than `sizeLimit` would break storage randomness (their
//! allocations might not find space in one draw), so the network requires
//! them to be split: *"we can convert it to a collection of segments by the
//! erasure code, such that each segment's size is upper bounded by
//! sizeLimit. By this operation, the file can still be recovered even if
//! half of the segments are lost. Therefore, we can simply regard each
//! segment as an individual file with value 2·value/k"* (with `k` the
//! number of segments).
//!
//! We use a Reed–Solomon code with `data = parity` shards so any half of
//! the segments reconstructs the file, and assign each segment the value
//! `2·value/segments` rounded up to a `minValue` multiple — so losing the
//! file (≥ half the segments gone) pays out at least the original value.
//!
//! Segments live in a single contiguous [`ShardSet`] flat buffer: encoding
//! writes parity in place, per-segment Merkle commitments hash borrowed
//! slices of the buffer, and reassembly recomputes only the missing
//! segments.
//!
//! Segmentation is a client-side step: [`add_segmented`] registers each
//! segment through the engine's ordinary `File_Add`, and [`get_segmented`]
//! reads them back through `File_Get`, so the consensus engine never sees a
//! segmented file as such.

use fi_chain::account::{AccountId, TokenAmount};
use fi_core::engine::{Engine, EngineError};
use fi_core::ops::Op;
use fi_core::params::ProtocolParams;
use fi_core::types::FileId;
use fi_crypto::merkle::MerkleTree;
use fi_crypto::Hash256;
use fi_erasure::{ReedSolomon, RsError, ShardSet};

/// Leaf size used when committing to a segment's content (bytes).
pub const SEGMENT_CHUNK_LEN: usize = 1024;

/// A segmentation plan plus the encoded segment payloads, stored as one
/// flat buffer (data segments first, then parity).
#[derive(Debug, Clone)]
pub struct SegmentedFile {
    /// All segments, contiguous: segment `i` is `shards.shard(i)`.
    pub shards: ShardSet,
    /// Value to declare for each segment (a `minValue` multiple).
    pub segment_value: TokenAmount,
    /// Number of data shards (= parity shards).
    pub data_shards: usize,
    /// Original payload length (needed to strip padding on decode).
    pub original_len: usize,
}

impl SegmentedFile {
    /// Number of segments (`2 × data_shards`).
    pub fn segment_count(&self) -> usize {
        self.shards.shard_count()
    }

    /// Length of each segment in bytes.
    pub fn segment_len(&self) -> usize {
        self.shards.shard_len()
    }

    /// Segment `i` as a borrowed slice of the flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn segment(&self, i: usize) -> &[u8] {
        self.shards.shard(i)
    }

    /// Iterates all segments as borrowed slices.
    pub fn segments(&self) -> impl Iterator<Item = &[u8]> {
        self.shards.iter()
    }

    /// Per-segment Merkle commitments (the `merkleRoot` each segment is
    /// registered under), hashed directly from the flat buffer.
    pub fn segment_roots(&self) -> Vec<Hash256> {
        MerkleTree::shard_roots(self.shards.flat(), self.segment_len(), SEGMENT_CHUNK_LEN)
    }
}

/// Errors from segmentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The file is small enough to store directly — segmentation refused
    /// to avoid silently doubling storage cost.
    NotNeeded {
        /// File size.
        size: u64,
        /// The configured limit it does not exceed.
        limit: u64,
    },
    /// The file is too large for the maximum shard count (255 for RS over
    /// GF(2^8)).
    TooLarge,
    /// Underlying erasure-code failure.
    Erasure(RsError),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::NotNeeded { size, limit } => {
                write!(
                    f,
                    "file of size {size} fits the size limit {limit}; store directly"
                )
            }
            SegmentError::TooLarge => write!(f, "file exceeds 127 x sizeLimit; cannot segment"),
            SegmentError::Erasure(e) => write!(f, "erasure failure: {e}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<RsError> for SegmentError {
    fn from(e: RsError) -> Self {
        SegmentError::Erasure(e)
    }
}

/// Splits `payload` (declared `value`) into erasure-coded segments per
/// §VI-C, encoding in place in one flat allocation.
///
/// # Errors
///
/// * [`SegmentError::NotNeeded`] if the payload already fits `sizeLimit`;
/// * [`SegmentError::TooLarge`] if more than 127 data shards would be
///   needed (RS over GF(2^8) caps total shards at 255).
pub fn segment_file(
    payload: &[u8],
    value: TokenAmount,
    params: &ProtocolParams,
) -> Result<SegmentedFile, SegmentError> {
    let size = payload.len() as u64;
    let limit = params.size_limit;
    if size <= limit {
        return Err(SegmentError::NotNeeded { size, limit });
    }
    let data_shards = size.div_ceil(limit) as usize;
    if data_shards > 127 {
        return Err(SegmentError::TooLarge);
    }
    let rs = ReedSolomon::new(data_shards, data_shards).expect("shard counts validated");
    let shards = rs.encode_bytes_flat(payload);
    let total = shards.shard_count() as u128; // = 2 × data_shards

    // Segment value: 2·value/k rounded UP to a minValue multiple so the
    // insurance property (loss ⇒ payout ≥ value) survives rounding.
    let raw = (2 * value.0).div_ceil(total);
    let min_value = params.min_value.0;
    let segment_value = TokenAmount(raw.div_ceil(min_value) * min_value);

    Ok(SegmentedFile {
        shards,
        segment_value,
        data_shards,
        original_len: payload.len(),
    })
}

/// Reassembles the original payload from surviving segments (`None` =
/// lost). Succeeds whenever at least half the segments survive.
///
/// Survivors are read through borrowed slices (callers keep ownership) and
/// copied once into a contiguous working buffer; only the missing segments
/// are then recomputed.
///
/// # Errors
///
/// [`SegmentError::Erasure`] when fewer than `data_shards` survive or a
/// survivor has the wrong length.
pub fn reassemble_file(
    segmented: &SegmentedFile,
    received: &[Option<&[u8]>],
) -> Result<Vec<u8>, SegmentError> {
    let rs = ReedSolomon::new(segmented.data_shards, segmented.data_shards)
        .expect("shard counts validated at segmentation");
    // Survivors whose length disagrees with the plan are as useless as
    // erasures (gather only checks consistency *among* survivors).
    let len = segmented.segment_len();
    if received.iter().flatten().any(|s| s.len() != len) {
        return Err(SegmentError::Erasure(RsError::ShapeMismatch));
    }
    let (mut set, present) = rs.gather_slices(received)?;
    let payload = rs.decode_bytes_flat(&mut set, &present, segmented.original_len)?;
    Ok(payload.to_vec())
}

/// The result of [`add_segmented`]: the per-segment file ids (data
/// segments first, parity after — index `i` stores segment `i`) plus the
/// segmentation plan with the encoded flat buffer.
#[derive(Debug, Clone)]
pub struct SegmentedUpload {
    /// One file id per segment, in segment order.
    pub files: Vec<FileId>,
    /// The §VI-C plan: flat segment buffer, per-segment value, geometry.
    pub segmented: SegmentedFile,
}

/// §VI-C front door: erasure-segments an oversized `payload` through the
/// flat-buffer fast path and registers every segment as an individual
/// file with [`Engine::file_add`], committing each one to a Merkle root
/// hashed directly from the shared segment buffer (no per-segment copies).
///
/// On a mid-way failure (`NoCapacity`, funds), already-registered
/// segments are rolled back through [`Op::ForceDiscard`] — a
/// consensus-side op with no gas charge, so the rollback cannot itself
/// fail when the client is out of funds — before the error is returned.
///
/// # Errors
///
/// * [`EngineError::InvalidState`] — the payload already fits
///   `sizeLimit` (use [`Engine::file_add`]) or needs more than 127 data
///   shards;
/// * any [`Engine::file_add`] error for an individual segment.
pub fn add_segmented(
    engine: &mut Engine,
    client: AccountId,
    payload: &[u8],
    value: TokenAmount,
) -> Result<SegmentedUpload, EngineError> {
    let segmented = segment_file(payload, value, engine.params()).map_err(|e| match e {
        SegmentError::NotNeeded { .. } => {
            EngineError::InvalidState("payload fits sizeLimit; use file_add")
        }
        SegmentError::TooLarge => {
            EngineError::InvalidState("file exceeds 127 x sizeLimit; cannot segment")
        }
        SegmentError::Erasure(_) => EngineError::InvalidState("erasure coding failed"),
    })?;
    let seg_size = segmented.segment_len() as u64;
    let roots = segmented.segment_roots();
    let mut files = Vec::with_capacity(roots.len());
    for root in roots {
        match engine.file_add(client, seg_size, segmented.segment_value, root) {
            Ok(id) => files.push(id),
            Err(e) => {
                for &id in &files {
                    engine
                        .apply(Op::ForceDiscard { file: id })
                        .expect("force discard is infallible");
                }
                return Err(e);
            }
        }
    }
    Ok(SegmentedUpload { files, segmented })
}

/// Recovery path for a segmented upload: looks up which segments still
/// have live holders ([`Engine::file_get`] per segment) and reassembles
/// the original payload from the surviving ones (read straight from the
/// upload's flat buffer), recomputing only what was lost.
///
/// # Errors
///
/// * [`Engine::file_get`] errors (gas);
/// * [`EngineError::InvalidState`] when fewer than half the segments
///   survive — the insurance case: compensation, not recovery.
pub fn get_segmented(
    engine: &mut Engine,
    caller: AccountId,
    upload: &SegmentedUpload,
) -> Result<Vec<u8>, EngineError> {
    let mut received: Vec<Option<&[u8]>> = Vec::with_capacity(upload.files.len());
    for (i, &file) in upload.files.iter().enumerate() {
        let alive = match engine.file_get(caller, file) {
            Ok(holders) => !holders.is_empty(),
            Err(EngineError::UnknownFile(_)) => false,
            Err(e) => return Err(e),
        };
        received.push(alive.then(|| upload.segmented.segment(i)));
    }
    reassemble_file(&upload.segmented, &received)
        .map_err(|_| EngineError::InvalidState("fewer than half the segments survive"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_core::engine::StateView;

    const CLIENT: AccountId = AccountId(200);

    /// An engine at `params` with a funded client.
    fn engine_with(params: ProtocolParams) -> Engine {
        let mut e = Engine::new(params).unwrap();
        e.fund(CLIENT, TokenAmount(100_000_000));
        e
    }

    /// Advances to `until`, letting honest providers confirm and prove
    /// every 50 ticks (inside every transfer window and proof-due window).
    fn run_honest(e: &mut Engine, until: u64) {
        while e.now() < until {
            e.honest_providers_act();
            let next = (e.now() + 50).min(until);
            e.advance_to(next);
        }
        e.honest_providers_act();
    }

    fn params() -> ProtocolParams {
        ProtocolParams {
            size_limit: 100,
            ..ProtocolParams::default()
        }
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 13 % 251) as u8).collect()
    }

    #[test]
    fn small_files_rejected() {
        let p = params();
        let err = segment_file(&payload(100), TokenAmount(1_000), &p).unwrap_err();
        assert_eq!(
            err,
            SegmentError::NotNeeded {
                size: 100,
                limit: 100
            }
        );
    }

    #[test]
    fn segments_respect_size_limit() {
        let p = params();
        let seg = segment_file(&payload(950), TokenAmount(10_000), &p).unwrap();
        assert_eq!(seg.data_shards, 10);
        assert_eq!(seg.segment_count(), 20);
        for s in seg.segments() {
            assert!(s.len() as u64 <= p.size_limit);
        }
        // Flat layout: the data region reproduces the payload prefix.
        assert_eq!(&seg.shards.flat()[..950], &payload(950)[..]);
    }

    #[test]
    fn survives_loss_of_any_half() {
        let p = params();
        let data = payload(500);
        let seg = segment_file(&data, TokenAmount(10_000), &p).unwrap();
        let n = seg.segment_count();
        // Lose the first half; recover from the second.
        let mut received: Vec<Option<&[u8]>> = seg.segments().map(Some).collect();
        for slot in received.iter_mut().take(n / 2) {
            *slot = None;
        }
        assert_eq!(reassemble_file(&seg, &received).unwrap(), data);

        // One more loss and recovery fails.
        received[n / 2] = None;
        assert!(matches!(
            reassemble_file(&seg, &received),
            Err(SegmentError::Erasure(_))
        ));
    }

    #[test]
    fn insurance_value_preserved() {
        // Losing the file means ≥ half the segments are gone; their summed
        // compensation must be at least the original value.
        let p = params();
        for (size, value) in [(201usize, 7_000u128), (999, 123_000), (150, 1_000)] {
            let seg = segment_file(&payload(size), TokenAmount(value), &p).unwrap();
            let half = seg.segment_count() as u128 / 2;
            let payout_when_lost = half * seg.segment_value.0;
            assert!(
                payout_when_lost >= value,
                "size={size} value={value}: payout {payout_when_lost}"
            );
            // Value is a minValue multiple (File_Add requirement).
            assert_eq!(seg.segment_value.0 % p.min_value.0, 0);
        }
    }

    #[test]
    fn too_large_rejected() {
        let p = params();
        let huge = vec![0u8; (127 * 100 + 1) as usize];
        assert_eq!(
            segment_file(&huge, TokenAmount(1_000), &p).unwrap_err(),
            SegmentError::TooLarge
        );
    }

    #[test]
    fn segment_roots_commit_to_segment_content() {
        let p = params();
        let seg = segment_file(&payload(500), TokenAmount(10_000), &p).unwrap();
        let roots = seg.segment_roots();
        assert_eq!(roots.len(), seg.segment_count());
        for (i, root) in roots.iter().enumerate() {
            assert_eq!(
                *root,
                MerkleTree::from_flat_chunks(seg.segment(i), SEGMENT_CHUNK_LEN).root(),
                "segment {i}"
            );
        }
    }

    #[test]
    fn wrong_length_survivor_rejected() {
        let p = params();
        let seg = segment_file(&payload(300), TokenAmount(5_000), &p).unwrap();
        let short = vec![0u8; seg.segment_len() - 1];
        let mut received: Vec<Option<&[u8]>> = seg.segments().map(Some).collect();
        received[0] = Some(&short);
        assert_eq!(
            reassemble_file(&seg, &received).unwrap_err(),
            SegmentError::Erasure(RsError::ShapeMismatch)
        );
    }

    #[test]
    fn segmented_upload_and_retrieval_round_trip() {
        let mut e = engine_with(ProtocolParams {
            k: 2,
            size_limit: 32,
            delay_per_size: 6,
            ..ProtocolParams::default()
        });
        for i in 0..6u64 {
            let p = AccountId(300 + i);
            e.fund(p, TokenAmount(1_000_000_000));
            e.sector_register(p, 640).unwrap();
        }
        let payload: Vec<u8> = (0..300u32).map(|i| (i * 31 % 251) as u8).collect();

        // Small payloads are refused — file_add is the right door.
        assert!(matches!(
            add_segmented(&mut e, CLIENT, &payload[..10], TokenAmount(1_000)),
            Err(EngineError::InvalidState(_))
        ));

        let upload = add_segmented(&mut e, CLIENT, &payload, TokenAmount(10_000)).unwrap();
        // 300/32 -> 10 data shards, doubled for parity.
        assert_eq!(upload.segmented.data_shards, 10);
        assert_eq!(upload.files.len(), 20);
        // Each segment registered under its flat-buffer Merkle commitment.
        let roots = upload.segmented.segment_roots();
        for (i, &f) in upload.files.iter().enumerate() {
            assert_eq!(e.file(f).unwrap().merkle_root, roots[i], "segment {i}");
        }

        run_honest(&mut e, 400);
        let recovered = get_segmented(&mut e, CLIENT, &upload).unwrap();
        assert_eq!(recovered, payload);
    }

    #[test]
    fn segmented_retrieval_survives_partial_loss_then_fails_past_half() {
        let mut e = engine_with(ProtocolParams {
            k: 2,
            size_limit: 50,
            delay_per_size: 6,
            ..ProtocolParams::default()
        });
        let mut sectors = Vec::new();
        for i in 0..8u64 {
            let p = AccountId(300 + i);
            e.fund(p, TokenAmount(1_000_000_000));
            sectors.push(e.sector_register(p, 640).unwrap());
        }
        let payload: Vec<u8> = (0..200u32).map(|i| (i * 17 % 251) as u8).collect();
        let upload = add_segmented(&mut e, CLIENT, &payload, TokenAmount(10_000)).unwrap();
        run_honest(&mut e, 400);

        // Destroy every sector: all segments lose their holders.
        for &s in &sectors {
            e.corrupt_sector_now(s);
        }
        assert!(matches!(
            get_segmented(&mut e, CLIENT, &upload),
            Err(EngineError::InvalidState(_))
        ));
    }

    #[test]
    fn segmented_rollback_partial_segments_do_not_revive() {
        // add_segmented fails mid-way; its rollback marks partial segments
        // Discarded while their transfers are pending. They must never come
        // back as Normal files (the orphan-insured-segment bug).
        let mut e = engine_with(ProtocolParams {
            k: 2,
            size_limit: 32,
            delay_per_size: 6,
            ..ProtocolParams::default()
        });
        e.fund(AccountId(300), TokenAmount(1_000_000_000));
        e.sector_register(AccountId(300), 128).unwrap(); // room for only a few segments
        let payload: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        assert!(matches!(
            add_segmented(&mut e, CLIENT, &payload, TokenAmount(10_000)),
            Err(EngineError::NoCapacity)
        ));
        let partial = e.file_ids();
        assert!(
            !partial.is_empty(),
            "expected partially-registered segments"
        );
        // Confirm + advance well past transfer windows and a proof cycle.
        let until = 2 * e.params().proof_cycle + 200;
        run_honest(&mut e, until);
        for f in partial {
            assert!(
                e.file(f).is_none(),
                "partial segment {f:?} survived the rollback"
            );
        }
    }

    #[test]
    fn segmented_upload_rollback_is_replayable() {
        // The rollback issues consensus-side ForceDiscard ops; the log must
        // capture them so replay reproduces the partial-upload state.
        let params = ProtocolParams {
            k: 2,
            size_limit: 16,
            ..ProtocolParams::default()
        };
        let mut e = Engine::new(params.clone()).unwrap();
        let provider = AccountId(100);
        e.fund(provider, TokenAmount(1_000_000_000));
        e.sector_register(provider, 640).unwrap();
        // Fund the client with just enough for part of the upload so it
        // fails midway and rolls back.
        e.fund(CLIENT, TokenAmount(400));
        let payload: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        assert!(add_segmented(&mut e, CLIENT, &payload, TokenAmount(2_000)).is_err());
        assert!(
            e.op_log().iter().any(|r| r.op.kind() == "op.force_discard"),
            "rollback must be logged as ops"
        );
        e.advance_to(e.now() + 500);
        let replayed = Engine::replay(params, e.op_log()).unwrap();
        assert_eq!(replayed.state_root(), e.state_root());
        assert_eq!(replayed.chain().head_hash(), e.chain().head_hash());
        assert_eq!(replayed.file_ids(), e.file_ids());
    }
}
