//! Central tuning knobs for the engine's parallel and batched paths.
//!
//! Every constant here is a **performance** knob, never a consensus one:
//! the engine produces bit-identical state (same `state_root`, same
//! `audit_root`, same block hashes) at any setting — the knobs only decide
//! *when* the parallel/batched implementations engage, and how they tile
//! their work. That property is what makes it safe to override them per
//! process for bench sweeps.
//!
//! Each knob reads an environment variable **once** per process (the first
//! call wins; later changes to the environment are ignored) and falls back
//! to its documented default when the variable is unset, unparsable, or
//! zero:
//!
//! | Knob | Env var | Default |
//! |---|---|---|
//! | [`parallel_ingest_threshold`] | `FI_TUNE_PARALLEL_INGEST_THRESHOLD` | 64 |
//! | [`parallel_verify_threshold`] | `FI_TUNE_PARALLEL_VERIFY_THRESHOLD` | 64 |
//! | [`parallel_audit_commit_threshold`] | `FI_TUNE_PARALLEL_AUDIT_COMMIT_THRESHOLD` | 64 |
//!
//! Example sweep: `FI_TUNE_PARALLEL_VERIFY_THRESHOLD=16 cargo run --release
//! --bin engine_snapshot`.
//!
//! How the path walks batch is not a knob: the walker in `fi-crypto` takes
//! any number of lanes, one included, and sizes its register groups and
//! tiles itself.

use std::sync::OnceLock;

fn env_knob(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Segments with fewer shard-local ops than this commit through the plain
/// sequential path in `Engine::apply_batch`: dispatching staging jobs
/// costs more than a handful of map lookups and Merkle walks. The outcome
/// is identical either way.
pub fn parallel_ingest_threshold() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| env_knob("FI_TUNE_PARALLEL_INGEST_THRESHOLD", 64))
}

/// Due buckets with fewer `Auto_CheckProof` tasks than this verify inline
/// on the calling thread: fanning a bucket out across the worker pool
/// costs more than walking a handful of Merkle paths. The verify phase is
/// pure, so the outcome is identical either way.
pub fn parallel_verify_threshold() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| env_knob("FI_TUNE_PARALLEL_VERIFY_THRESHOLD", 64))
}

/// Due buckets with fewer `Auto_CheckProof` tasks than this commit through
/// the frozen sequential fold; at or above it (on a multi-shard engine)
/// the commit phase plans per-shard write batches in parallel and applies
/// them with validated fast paths. Bit-identical either way — the
/// differential tests in `tests/parallel_commit.rs` pin it.
pub fn parallel_audit_commit_threshold() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| env_knob("FI_TUNE_PARALLEL_AUDIT_COMMIT_THRESHOLD", 64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply_when_env_unset() {
        // The test process does not set FI_TUNE_* variables, so every knob
        // reports its documented default.
        assert_eq!(parallel_ingest_threshold(), 64);
        assert_eq!(parallel_verify_threshold(), 64);
        assert_eq!(parallel_audit_commit_threshold(), 64);
    }

    #[test]
    fn env_knob_rejects_garbage_and_zero() {
        assert_eq!(env_knob("FI_TUNE_TEST_UNSET_KNOB", 7), 7);
        std::env::set_var("FI_TUNE_TEST_GARBAGE_KNOB", "not-a-number");
        assert_eq!(env_knob("FI_TUNE_TEST_GARBAGE_KNOB", 7), 7);
        std::env::set_var("FI_TUNE_TEST_ZERO_KNOB", "0");
        assert_eq!(env_knob("FI_TUNE_TEST_ZERO_KNOB", 7), 7);
        std::env::set_var("FI_TUNE_TEST_GOOD_KNOB", "128");
        assert_eq!(env_knob("FI_TUNE_TEST_GOOD_KNOB", 7), 128);
    }
}
