//! Theorem 1 experiment: how much raw file data the network can carry.
//!
//! Theorem 1: the total raw size storable is
//! `min( Ns·minCapacity / (2·r1·k), Ns·minCapacity / r2 )` — the first
//! term is the **capacity restriction** (every file stores `k·value`
//! replicas and total replica size may use at most half the capacity), the
//! second the **value restriction** (total value ≤ Nm_v·minValue).
//!
//! The experiment draws a workload from a size/value distribution, fills
//! the network file by file until either restriction trips, and compares
//! the stored raw size with the formula.
//!
//! Two variants: [`run_one`] fills against the formulas analytically, and
//! [`run_engine_fill`] drives a real [`fi_core::Engine`] through the typed
//! op layer (`Engine::apply` with `File_Add` transactions) until the
//! allocator reports `NoCapacity` — the end-to-end check that the engine's
//! capacity behaviour matches what Theorem 1 assumes.

use fi_analysis::theorems::{theorem1_max_total_size, workload_r1, workload_r2};
use fi_chain::account::{AccountId, TokenAmount};
use fi_core::engine::{Engine, EngineError};
use fi_core::ops::{Op, Receipt};
use fi_core::params::ProtocolParams;
use fi_crypto::{sha256, DetRng};

use crate::report::{sci, TextTable};

/// A workload generator for the scalability experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every file: size 1, value `minValue`.
    Homogeneous,
    /// Sizes exponential(4), values uniform in {1,2,3} × minValue.
    Mixed,
    /// Sizes uniform in the interval 1..8, all values `minValue` (size-heavy).
    SizeHeavy,
    /// Sizes 1, values uniform {1..10} × minValue (value-heavy).
    ValueHeavy,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 4] = [
        Workload::Homogeneous,
        Workload::Mixed,
        Workload::SizeHeavy,
        Workload::ValueHeavy,
    ];

    /// Label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Homogeneous => "homogeneous",
            Workload::Mixed => "mixed",
            Workload::SizeHeavy => "size-heavy",
            Workload::ValueHeavy => "value-heavy",
        }
    }

    /// Draws one `(size, value)` pair (minValue = 1 units).
    pub fn sample(&self, rng: &mut DetRng) -> (f64, f64) {
        match self {
            Workload::Homogeneous => (1.0, 1.0),
            Workload::Mixed => (rng.sample_exp(4.0).max(0.01), (1 + rng.below(3)) as f64),
            Workload::SizeHeavy => (1.0 + 7.0 * rng.f64(), 1.0),
            Workload::ValueHeavy => (1.0, (1 + rng.below(10)) as f64),
        }
    }
}

/// One scalability row.
#[derive(Debug, Clone)]
pub struct ScalabilityRow {
    /// Workload label.
    pub workload: &'static str,
    /// Workload constant r1 (eq. 1).
    pub r1: f64,
    /// Workload constant r2 (eq. 2).
    pub r2: f64,
    /// Theorem 1 prediction for total storable raw size.
    pub predicted: f64,
    /// Raw size actually stored before a restriction tripped.
    pub measured: f64,
    /// Which restriction bound first ("capacity" or "value").
    pub binding: &'static str,
}

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScalabilityConfig {
    /// Sector count.
    pub ns: u64,
    /// `minCapacity` (size units per sector).
    pub min_capacity: u64,
    /// Replicas per `minValue` of value.
    pub k: u32,
    /// `capPara`.
    pub cap_para: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for ScalabilityConfig {
    fn default() -> Self {
        ScalabilityConfig {
            ns: 1_000,
            min_capacity: 64,
            k: 10,
            cap_para: 2,
            seed: 0x5CA1E,
        }
    }
}

/// Fills the network under `workload` until a restriction trips.
pub fn run_one(workload: Workload, config: &ScalabilityConfig) -> ScalabilityRow {
    let mut rng = DetRng::from_seed_label(config.seed, workload.label());
    let total_capacity = (config.ns * config.min_capacity) as f64;
    let max_value = (config.cap_para * config.ns) as f64; // Nm_v·minValue
    let mut stored_size = 0.0f64;
    let mut replica_size = 0.0f64;
    let mut stored_value = 0.0f64;
    let mut sizes = Vec::new();
    let mut values = Vec::new();
    let binding;
    loop {
        let (size, value) = workload.sample(&mut rng);
        let cp = config.k as f64 * value;
        if replica_size + size * cp > total_capacity / 2.0 {
            binding = "capacity";
            break;
        }
        if stored_value + value > max_value {
            binding = "value";
            break;
        }
        replica_size += size * cp;
        stored_value += value;
        stored_size += size;
        sizes.push(size);
        values.push(value);
    }
    let r1 = workload_r1(&sizes, &values, 1.0);
    let r2 = workload_r2(
        &sizes,
        &values,
        1.0,
        config.min_capacity as f64,
        config.cap_para as f64,
    );
    let predicted = theorem1_max_total_size(
        config.ns as f64,
        config.min_capacity as f64,
        config.k as f64,
        r1,
        r2,
    );
    ScalabilityRow {
        workload: workload.label(),
        r1,
        r2,
        predicted,
        measured: stored_size,
        binding,
    }
}

/// Runs all workloads.
pub fn run_all(config: &ScalabilityConfig) -> Vec<ScalabilityRow> {
    Workload::ALL.iter().map(|w| run_one(*w, config)).collect()
}

/// Result of the engine-backed capacity fill ([`run_engine_fill`]).
#[derive(Debug, Clone)]
pub struct EngineFillRow {
    /// Files the engine accepted before the first `NoCapacity`.
    pub files_stored: u64,
    /// Total replica size the engine reserved.
    pub replica_size: u64,
    /// Total raw capacity registered.
    pub total_capacity: u64,
    /// `replica_size / total_capacity` at the first rejection.
    pub utilization: f64,
    /// Theorem 1's prediction for storable raw size under this homogeneous
    /// workload (with its factor-2 refresh headroom).
    pub theorem1_predicted: f64,
}

/// Fills a real engine with homogeneous `minValue` files of size 1 through
/// the typed op layer until `File_Add` returns `NoCapacity`, then reports
/// how full the network got.
///
/// Theorem 1 budgets only half the raw capacity for replicas (the other
/// half is headroom so `Auto_Refresh` keeps finding space); the engine
/// itself accepts files until sampling can no longer find room, so the
/// measured utilization must land well above the theorem's conservative
/// bound and below 1.
///
/// # Panics
///
/// Panics if parameters are invalid or funding/registration ops fail.
pub fn run_engine_fill(config: &ScalabilityConfig) -> EngineFillRow {
    let params = ProtocolParams {
        k: config.k,
        min_capacity: config.min_capacity,
        cap_para: config.cap_para,
        seed: config.seed,
        ..ProtocolParams::default()
    };
    let min_value = params.min_value;
    let mut engine = Engine::new(params).expect("valid parameters");
    let provider = AccountId(10_000);
    let client = AccountId(10_001);
    engine
        .apply(Op::Fund {
            account: provider,
            amount: TokenAmount(u128::MAX / 4),
        })
        .expect("fund provider");
    engine
        .apply(Op::Fund {
            account: client,
            amount: TokenAmount(u128::MAX / 4),
        })
        .expect("fund client");
    for _ in 0..config.ns {
        engine
            .apply(Op::SectorRegister {
                owner: provider,
                capacity: config.min_capacity,
            })
            .expect("register sector");
    }
    let total_capacity = config.ns * config.min_capacity;

    let mut files_stored = 0u64;
    loop {
        let root = sha256(&files_stored.to_be_bytes());
        match engine.apply(Op::FileAdd {
            client,
            size: 1,
            value: min_value,
            merkle_root: root,
        }) {
            Ok(Receipt::FileAdded { .. }) => files_stored += 1,
            Ok(other) => unreachable!("FileAdd yields FileAdded, got {other:?}"),
            Err(EngineError::NoCapacity) => break,
            Err(e) => panic!("unexpected File_Add failure: {e}"),
        }
    }
    let replica_size = files_stored * config.k as u64; // size 1 × cp replicas
    let predicted = theorem1_max_total_size(
        config.ns as f64,
        config.min_capacity as f64,
        config.k as f64,
        1.0, // homogeneous workload: r1 = 1
        config.min_capacity as f64 / config.cap_para as f64,
    );
    EngineFillRow {
        files_stored,
        replica_size,
        total_capacity,
        utilization: replica_size as f64 / total_capacity as f64,
        theorem1_predicted: predicted,
    }
}

/// Renders rows.
pub fn render(rows: &[ScalabilityRow]) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "r1",
        "r2",
        "predicted max size",
        "measured stored size",
        "measured/predicted",
        "binding restriction",
    ]);
    for r in rows {
        table.row(vec![
            r.workload.to_string(),
            format!("{:.3}", r.r1),
            format!("{:.4}", r.r2),
            sci(r.predicted),
            sci(r.measured),
            format!("{:.3}", r.measured / r.predicted),
            r.binding.to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_matches_formula_closely() {
        let row = run_one(Workload::Homogeneous, &ScalabilityConfig::default());
        // r1 = 1, so capacity term = Ns·minCap/(2k) = 64_000/20 = 3200;
        // value term = Ns·minCap/r2 with r2 = 64/2 = 32 ⇒ 2000. Value binds.
        assert_eq!(row.binding, "value");
        assert!((row.r1 - 1.0).abs() < 1e-9);
        let ratio = row.measured / row.predicted;
        assert!((0.98..=1.02).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn measured_never_exceeds_prediction_materially() {
        for row in run_all(&ScalabilityConfig::default()) {
            let ratio = row.measured / row.predicted;
            assert!(
                ratio < 1.05,
                "{}: stored {} vs predicted {}",
                row.workload,
                row.measured,
                row.predicted
            );
            assert!(
                ratio > 0.5,
                "{}: ratio {ratio} suspiciously low",
                row.workload
            );
        }
    }

    #[test]
    fn capacity_binds_when_value_cap_is_loose() {
        let config = ScalabilityConfig {
            cap_para: 1_000_000,
            ..ScalabilityConfig::default()
        };
        let row = run_one(Workload::Homogeneous, &config);
        assert_eq!(row.binding, "capacity");
    }

    #[test]
    fn engine_fill_through_op_layer_beats_theorem_bound() {
        // Small network: 40 sectors × 64 units, k = 4 replicas per file.
        let config = ScalabilityConfig {
            ns: 40,
            min_capacity: 64,
            k: 4,
            cap_para: 2,
            seed: 0xF111,
        };
        let row = run_engine_fill(&config);
        assert!(row.files_stored > 0);
        // The engine packs past Theorem 1's conservative half-capacity
        // budget but can never exceed raw capacity.
        assert!(
            row.utilization > 0.5 && row.utilization <= 1.0,
            "utilization {}",
            row.utilization
        );
        assert!(
            row.files_stored as f64
                >= row
                    .theorem1_predicted
                    .min(row.total_capacity as f64 / (2.0 * config.k as f64)),
            "stored {} vs predicted {}",
            row.files_stored,
            row.theorem1_predicted
        );
    }
}
