//! The batch-ingest hashing pass: the parallel half of
//! [`Engine::apply_batch`](super::Engine::apply_batch).
//!
//! A block's op batch splits into **segments** of consecutive
//! *shard-local* ops (`File_Confirm`, `File_Prove`, `File_Get`,
//! `File_Discard`, `ForceDiscard` — ops that read and write only their own
//! file's rows, plus the ledger) separated by **barrier** ops (everything
//! else: sector admin, `File_Add`'s sampler/rng draws, funds, fault
//! injection, `AdvanceTo`). Every op, in a segment or not, executes once,
//! in submission order, through its one handler against live state
//! (`engine/lifecycle.rs`), so consensus state is bit-identical to feeding
//! the same ops one by one through `Engine::apply`.
//!
//! What a large segment fans out is the hashing only: each op's canonical
//! digest (unless the caller supplied it) and the modeled WindowPoSt walk
//! of every `File_Prove` whose file exists ([`Engine::hash_segment`]).
//! Both are pure functions of pre-segment state that no op of the segment
//! can change: an op digest hashes the op alone, and a proof walk hashes
//! the file's `merkle_root` (fixed at `File_Add`), the replica index, the
//! sector id, consensus time and `audit_path_len`. Time moves only at
//! `AdvanceTo`, and files appear (`File_Add`) and vanish (`Auto_*` tasks,
//! run by `AdvanceTo`) only at barriers. The handler folds a precomputed
//! walk into the audit root only if the op passes every check, exactly
//! where it would have walked the lane itself.

use fi_chain::tasks::Time;
use fi_crypto::{cached_domain, Hash256};

use crate::ops::Op;
use crate::types::SectorId;

use super::audit::{walk_replicas, ReplicaLane};
use super::pool::fan_out;
use super::Engine;

/// Whether `op` is shard-local (reads and writes only its own file's
/// rows, plus the ledger) rather than a barrier. This is the batch
/// classifier: runs of shard-local ops form the segments whose hashing
/// fans out; everything else ends a segment.
pub(super) fn is_shard_local(op: &Op) -> bool {
    match op {
        Op::FileConfirm { .. }
        | Op::FileProve { .. }
        | Op::FileGet { .. }
        | Op::FileDiscard { .. }
        | Op::ForceDiscard { .. } => true,
        Op::SectorRegister { .. }
        | Op::SectorDisable { .. }
        | Op::FileAdd { .. }
        | Op::Fund { .. }
        | Op::Burn { .. }
        | Op::FailSector { .. }
        | Op::CorruptSector { .. }
        | Op::AdvanceTo { .. } => false,
    }
}

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
    /// The parallel hashing pass of a segment of shard-local ops: one
    /// [`fan_out`] over contiguous chunks of `ops` returns, per op in
    /// order, its canonical digest (`digests[i]` when the caller supplied
    /// them) and, for a `File_Prove` whose file exists, its proof walk.
    /// Each chunk walks its proofs as one lane batch. Reads pre-segment
    /// state only; the module doc says why that is exact.
    pub(super) fn hash_segment(
        &self,
        ops: &[Op],
        digests: Option<&[Hash256]>,
    ) -> Vec<(Hash256, Option<Hash256>)> {
        let (files, now) = (&self.files, self.now());
        let path_len = self.params.audit_path_len;
        fan_out(self.pool_for(true), (0..ops.len()).collect(), |chunk| {
            let mut provers = Vec::new();
            let mut lanes = Vec::new();
            for (k, &i) in chunk.iter().enumerate() {
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
