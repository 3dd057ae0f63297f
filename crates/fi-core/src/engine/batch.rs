//! The batch-ingest hashing pass of
//! [`Engine::apply_batch`](super::Engine::apply_batch).
//!
//! Every op of a batch executes once, in submission order, through its
//! one handler (`engine/lifecycle.rs`), exactly as `Engine::apply` runs
//! it. Before they run, [`Engine::hash_batch`] takes every op digest the
//! caller did not supply, and the modeled WindowPoSt walk of every
//! `File_Prove` before the batch's first `AdvanceTo` whose file exists
//! before the batch. Both are pure functions of pre-batch state that no
//! earlier op can change: a digest hashes the op alone; a walk hashes the
//! file's `merkle_root` (fixed at `File_Add`; file ids are never reused),
//! the replica index, the sector, `audit_path_len` and the time, which
//! moves only at `AdvanceTo`. The handler folds a precomputed walk only
//! if the prove passes every check; any other prove walks its own lane.

use fi_chain::tasks::Time;
use fi_crypto::{cached_domain, Hash256};

use crate::ops::Op;
use crate::types::SectorId;

use super::audit::{walk_replicas, ReplicaLane};
use super::pool::fan_out;
use super::Engine;

cached_domain!(fn prove_leaf_domain, "fileinsurer/prove-leaf");
cached_domain!(fn prove_node_domain, "fileinsurer/prove-node");
cached_domain!(pub(super) fn prove_root_domain, "fileinsurer/prove-root");

/// The lane a `File_Prove` of replica `index` of a file committed to
/// `merkle_root`, held by `sector`, walks.
pub(super) fn prove_lane(merkle_root: Hash256, index: u32, sector: SectorId) -> ReplicaLane {
    (merkle_root, index.to_be_bytes(), sector.0.to_be_bytes())
}

/// The modeled WindowPoSt verification of `File_Prove`s, all `lanes` as
/// one batch of lockstep lanes: each leaf is derived from the file's
/// Merkle commitment, the replica index, the holding sector and the proof
/// time, then walked up an `audit_path_len`-node authentication path.
/// Pure — the handler folds each digest into the engine's audit root in
/// commit order, so the state root pins every walk bit for bit.
pub(super) fn walk_proofs(lanes: &[ReplicaLane], now: Time, path_len: u32) -> Vec<Hash256> {
    walk_replicas(
        prove_leaf_domain(),
        prove_node_domain(),
        lanes,
        now,
        path_len,
    )
}

impl Engine {
    /// The hashing pass of a batch: one [`fan_out`] at `width` over
    /// contiguous chunks of `ops` returns, per op in order, its canonical
    /// digest (`digests[i]` when the caller supplied them) and, for a
    /// `File_Prove` before the first `AdvanceTo` whose file exists, its
    /// proof walk. Each chunk walks its proofs as one lane batch. Reads
    /// pre-batch state only; the module doc says why that is exact.
    pub(super) fn hash_batch(
        &self,
        ops: &[Op],
        digests: Option<&[Hash256]>,
        width: usize,
    ) -> Vec<(Hash256, Option<Hash256>)> {
        let (files, now) = (&self.files, self.now());
        let path_len = self.params.audit_path_len;
        let first_advance = ops
            .iter()
            .position(|op| matches!(op, Op::AdvanceTo { .. }))
            .unwrap_or(ops.len());
        fan_out(width, (0..ops.len()).collect(), |chunk| {
            let mut provers = Vec::new();
            let mut lanes = Vec::new();
            let before_advance = chunk.iter().take_while(|&&i| i < first_advance);
            for (k, &i) in before_advance.enumerate() {
                if let Op::FileProve {
                    file,
                    index,
                    sector,
                    ..
                } = ops[i]
                {
                    if let Some(desc) = files.get(&file) {
                        provers.push(k);
                        lanes.push(prove_lane(desc.merkle_root, index, sector));
                    }
                }
            }
            let mut walked = vec![None; chunk.len()];
            for (k, digest) in provers.into_iter().zip(walk_proofs(&lanes, now, path_len)) {
                walked[k] = Some(digest);
            }
            chunk
                .into_iter()
                .zip(walked)
                .map(|(i, walked)| {
                    let op_digest = digests.map_or_else(|| ops[i].digest(), |known| known[i]);
                    (op_digest, walked)
                })
                .collect()
        })
    }
}
