//! The crate-wide error hierarchy.
//!
//! The engine's subsystems keep their own precise error enums — request
//! handling ([`EngineError`]), snapshot decoding ([`SnapshotError`]),
//! parameter validation ([`ParamError`]), and the content-addressed state
//! store ([`StoreError`]) — and the APIs that can fail across more than
//! one of those layers (delta snapshots, pinned state reads, state
//! proofs) return this umbrella [`Error`]. `From` impls make `?`
//! conversion seamless in both directions of the layering.

use crate::codec::DecError;
use crate::engine::{EngineError, SnapshotError};
use crate::params::ParamError;
use fi_store::StoreError;

/// Any error the `fi-core` public API can produce.
///
/// Marked `#[non_exhaustive]`: subsystems added later (e.g. a network
/// sync layer) get their own variant without a breaking release, so
/// downstream `match`es must carry a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A protocol request was rejected by the engine.
    Engine(EngineError),
    /// A snapshot (full or delta) failed to decode or validate.
    Snapshot(SnapshotError),
    /// Parameter or argument validation failed.
    Param(ParamError),
    /// The content-addressed blockstore failed, or stored/proven state
    /// bytes were corrupt.
    Store(StoreError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Engine(e) => write!(f, "engine: {e}"),
            Error::Snapshot(e) => write!(f, "snapshot: {e}"),
            Error::Param(e) => write!(f, "params: {e}"),
            Error::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Engine(e) => Some(e),
            Error::Snapshot(e) => Some(e),
            Error::Param(e) => Some(e),
            Error::Store(e) => Some(e),
        }
    }
}

impl From<EngineError> for Error {
    fn from(e: EngineError) -> Self {
        Error::Engine(e)
    }
}

impl From<SnapshotError> for Error {
    fn from(e: SnapshotError) -> Self {
        Error::Snapshot(e)
    }
}

impl From<DecError> for Error {
    fn from(e: DecError) -> Self {
        Error::Snapshot(e.into())
    }
}

impl From<ParamError> for Error {
    fn from(e: ParamError) -> Self {
        Error::Param(e)
    }
}

impl From<StoreError> for Error {
    fn from(e: StoreError) -> Self {
        Error::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: Error = EngineError::InsufficientFunds.into();
        assert_eq!(e, Error::Engine(EngineError::InsufficientFunds));
        let e: Error = SnapshotError::Truncated.into();
        assert!(e.to_string().starts_with("snapshot:"));
        let e: Error = StoreError::Corrupt("x").into();
        assert!(e.to_string().contains("x"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
