//! Executable baseline models of the DSN protocols FileInsurer is compared
//! against in Table IV: **Filecoin**, **Storj**, **Sia**, **Arweave** —
//! plus a lightweight placement-level model of FileInsurer itself.
//!
//! Each model answers the same three questions through one trait,
//! [`DsnModel`]:
//!
//! 1. **Placement** — where do a workload's file replicas/shards land, and
//!    how many survivors does each file need (`1` for replication,
//!    `data_shards` for erasure coding)?
//! 2. **Sybil structure** — which logical storage nodes are secretly the
//!    same physical entity? (Sia lacks a proof-of-replication, so a Sybil
//!    entity can back many logical nodes with one disk; the PoRep-based
//!    designs cannot.)
//! 3. **Money** — what deposits exist and how much of a loss is
//!    compensated? (FileInsurer: full compensation from confiscated
//!    deposits; Filecoin: deposits are *burned*, clients get at most a fee
//!    refund; Storj/Sia/Arweave: no loss compensation.)
//!
//! A shared adversary ([`common::corrupt_nodes`]) corrupts nodes totalling
//! `λ` of capacity under several strategies (random, capacity-weighted,
//! greedy file-killer), and [`common::evaluate_loss`] computes the lost
//! value. `fi-sim`'s `table4` experiment runs all five models through
//! identical workloads and prints the measured comparison table.

#![forbid(unsafe_code)]

pub mod arweave;
pub mod common;
pub mod filecoin;
pub mod fileinsurer;
pub mod sia;
pub mod storj;

pub use common::{
    corrupt_nodes, evaluate_loss, AdversaryStrategy, FileSpec, LossReport, NetworkSpec, Placement,
};

use fi_crypto::DetRng;

/// Compensation behaviour of a protocol, for the Table IV "Compensation
/// for File Loss" column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Compensation {
    /// Lost files are fully paid out from confiscated deposits.
    Full {
        /// Deposit pledged per unit of stored value (the deposit ratio).
        deposit_ratio: f64,
    },
    /// Only a limited refund (fraction of the *fee*, not the value).
    Limited {
        /// Fraction of lost value recovered in expectation.
        recovered_fraction: f64,
    },
    /// No compensation at all.
    None,
}

/// A DSN protocol model.
pub trait DsnModel {
    /// Protocol name as it appears in Table IV.
    fn name(&self) -> &'static str;

    /// Places a workload onto the network; deterministic given `rng`.
    fn place(&self, net: &NetworkSpec, files: &[FileSpec], rng: &mut DetRng) -> Placement;

    /// Whether one physical entity can back multiple logical nodes without
    /// detection (Table IV "Preventing Sybil Attacks" = `!sybil_vulnerable`).
    fn sybil_vulnerable(&self) -> bool;

    /// Whether the protocol's loss under a capacity-`λ` adversary carries a
    /// proven bound (Table IV "Provable Robustness").
    fn provable_robustness(&self) -> bool;

    /// Compensation behaviour (Table IV "Compensation for File Loss").
    fn compensation(&self) -> Compensation;

    /// Amount paid back to clients when `lost_value` of files is lost and
    /// `corrupted_capacity_value` worth of deposits was confiscated.
    fn compensate(&self, lost_value: f64, confiscated_deposits: f64) -> f64 {
        match self.compensation() {
            Compensation::Full { .. } => lost_value.min(confiscated_deposits),
            Compensation::Limited { recovered_fraction } => lost_value * recovered_fraction,
            Compensation::None => 0.0,
        }
    }
}

/// All five models with the paper's parameters (`k` replicas per file for
/// the replication-based designs, `(k/2, k)` erasure coding for Storj).
pub fn all_models(k: u32) -> Vec<Box<dyn DsnModel>> {
    vec![
        Box::new(fileinsurer::FileInsurerModel::new(k, 0.0046)),
        Box::new(filecoin::FilecoinModel::new(k)),
        Box::new(arweave::ArweaveModel::new(k)),
        Box::new(storj::StorjModel::new((k / 2).max(1), k.max(2))),
        Box::new(sia::SiaModel::new(k, 4)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_have_unique_names() {
        let models = all_models(8);
        let names: Vec<_> = models.iter().map(|m| m.name()).collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn table_iv_property_flags() {
        // The qualitative rows of Table IV.
        let models = all_models(8);
        for m in &models {
            match m.name() {
                "FileInsurer" => {
                    assert!(!m.sybil_vulnerable());
                    assert!(m.provable_robustness());
                    assert!(matches!(m.compensation(), Compensation::Full { .. }));
                }
                "Filecoin" => {
                    assert!(!m.sybil_vulnerable());
                    assert!(!m.provable_robustness());
                    assert!(matches!(m.compensation(), Compensation::Limited { .. }));
                }
                "Arweave" | "Storj" => {
                    assert!(!m.sybil_vulnerable());
                    assert!(!m.provable_robustness());
                    assert!(matches!(m.compensation(), Compensation::None));
                }
                "Sia" => {
                    assert!(m.sybil_vulnerable());
                    assert!(!m.provable_robustness());
                    assert!(matches!(m.compensation(), Compensation::None));
                }
                other => panic!("unexpected model {other}"),
            }
        }
    }

    #[test]
    fn compensate_respects_pool() {
        let fi = fileinsurer::FileInsurerModel::new(8, 0.0046);
        assert_eq!(fi.compensate(100.0, 1000.0), 100.0);
        assert_eq!(fi.compensate(100.0, 40.0), 40.0);
        let storj = storj::StorjModel::new(4, 8);
        assert_eq!(storj.compensate(100.0, 1000.0), 0.0);
    }
}
