//! Protocol parameters (Table I and §IV of the paper) and derived formulas.

use fi_chain::account::TokenAmount;
use fi_chain::tasks::{SchedulerKind, Time};

/// All tunable constants of a FileInsurer deployment.
///
/// Field names follow the paper's notation (Table I / Table II) translated
/// to snake_case. Sizes are abstract units (think megabytes); time is
/// abstract ticks; money is [`TokenAmount`] base units.
///
/// # Example
///
/// ```
/// use fi_core::params::ProtocolParams;
/// let p = ProtocolParams::default();
/// assert_eq!(p.backup_count(p.min_value).unwrap(), p.k);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolParams {
    /// `minCapacity`: smallest sector size; sector capacities must be
    /// integer multiples of this.
    pub min_capacity: u64,
    /// `minValue`: smallest file value; file values must be integer
    /// multiples of this.
    pub min_value: TokenAmount,
    /// `k`: replicas stored for a file of value `minValue`.
    pub k: u32,
    /// `capPara = Nm_v / Ns`: designed value-capacity ratio.
    pub cap_para: u64,
    /// `γ_deposit` in parts-per-million (e.g. 4600 = 0.46%).
    pub gamma_deposit_ppm: u64,
    /// `ProofCycle`: interval between storage-proof checks.
    pub proof_cycle: Time,
    /// `ProofDue`: proofs older than this incur punishment.
    pub proof_due: Time,
    /// `ProofDeadline`: proofs older than this corrupt the sector.
    pub proof_deadline: Time,
    /// `AvgRefresh`: mean number of proof cycles between location
    /// refreshes of a file (exponentially distributed).
    pub avg_refresh: f64,
    /// `DelayPerSize`: allowed transfer time per size unit.
    pub delay_per_size: Time,
    /// Storage rent per size unit per replica per proof cycle.
    pub unit_rent: TokenAmount,
    /// Traffic fee per size unit transferred (§IV-A.1).
    pub traffic_fee_per_size: TokenAmount,
    /// Prepaid gas per file per proof cycle (§IV-A.3).
    pub gas_prepay_per_cycle: TokenAmount,
    /// Rent-distribution period, in proof cycles (§IV-A.2).
    pub rent_period_cycles: u32,
    /// `sizeLimit`: files larger than this must be erasure-segmented
    /// (§VI-C).
    pub size_limit: u64,
    /// Punishment for a late (but not deadline-exceeding) proof, in ppm of
    /// the sector's deposit.
    pub punish_ppm: u64,
    /// Maximum re-samples when a chosen sector lacks space in `File_Add`
    /// ("almost never happens" — Fig. 4).
    pub collision_retry_limit: u32,
    /// §VI-B: on sector registration, swap a Poisson-distributed number of
    /// existing backups into the new sector to preserve the i.i.d.
    /// allocation distribution.
    pub poisson_rebalance: bool,
    /// Master seed for all protocol randomness (beacon genesis).
    pub seed: u64,
    /// Consensus block interval in time ticks.
    pub block_interval: Time,
    /// Bucket width of the `Auto_*` pending list: one bucket per block
    /// interval (`Wheel`, the default) or one per tick (`BTree`). Both run
    /// the same code and pop the same tasks in the same order, so
    /// consensus execution is identical either way.
    pub scheduler: SchedulerKind,
    /// The parallel switch: above `1`, the engine fans its two large
    /// phases out over scoped threads — the audit verify phase and the
    /// batch-ingest hashing pass; at `1` both run sequentially. Audit
    /// commits and op execution are sequential either way. Only whether
    /// it exceeds `1` matters: the engine holds one set of per-file rows
    /// whatever the value. Consensus results are bit-identical either way
    /// (see DESIGN.md §9–§10), so this is a deployment/performance knob,
    /// not a consensus parameter.
    ///
    /// Defaults to `1`, or to the `FI_TEST_SHARDS` environment variable when
    /// set (the CI matrix runs the whole test suite at 1 and 8, i.e. with
    /// the parallel paths off and on).
    pub shards: usize,
    /// Modeled Merkle path length of one storage-proof verification: the
    /// number of path nodes `Auto_CheckProof`'s verify phase walks per
    /// audited replica (the simulated WindowPoSt verification cost, the
    /// parallelizable part of an audit).
    pub audit_path_len: u32,
    /// The parallel phases' minimum width: a phase that fans out (see
    /// [`ProtocolParams::shards`]) runs `max(available cores, this)`
    /// workers. It gates nothing. Consensus results are bit-identical at
    /// every thread count (see DESIGN.md §10), so — like
    /// [`ProtocolParams::shards`] — this is a deployment/performance knob,
    /// not a consensus parameter.
    ///
    /// Defaults to `1`, or to the `FI_TEST_INGEST_THREADS` environment
    /// variable when set (the CI matrix runs the whole suite at 1 and 4
    /// ingest threads crossed with the parallel switch off and on).
    pub ingest_threads: usize,
    /// Maximum transactions a node's mempool holds; submissions beyond the
    /// cap are rejected at admission. Node-local backpressure, not a
    /// consensus parameter — two nodes with different caps still agree on
    /// every sealed block they replay.
    pub mempool_cap: usize,
    /// Gas budget of one produced block: the proposer stops selecting
    /// mempool transactions once their summed [`fi_chain::gas`] upper
    /// bounds reach this limit (§III-B.4's "clear gas used upper bound"
    /// applied to block building).
    pub block_gas_limit: u64,
    /// Maximum transactions selected into one produced block (the size
    /// bound complementing [`ProtocolParams::block_gas_limit`]).
    pub block_ops_limit: usize,
    /// How many blocks a mempool rejection tombstone (a burned nonce) is
    /// retained before the account's nonce frontier may be advanced past
    /// it. Bounds the tombstone set over long runs and un-wedges accounts
    /// whose lower nonces were committed via another node's pool. Like
    /// [`ProtocolParams::mempool_cap`], node-local admission policy, not a
    /// consensus parameter.
    pub tombstone_retention_blocks: u64,
}

/// Largest permitted [`ProtocolParams::shards`] value. Every value above
/// `1` acts alike; the bound only keeps configurations sane.
pub const MAX_SHARDS: usize = 256;

/// Largest permitted [`ProtocolParams::ingest_threads`] value.
pub const MAX_INGEST_THREADS: usize = 64;

/// `FI_TEST_SHARDS` override for `Default`: the test suite's switch for
/// the parallel paths (above 1 turns them on). Any unusable value —
/// non-numeric, zero, above [`MAX_SHARDS`] — falls back to 1, so
/// `ProtocolParams::default()` always validates regardless of the
/// environment (explicitly-set `shards` fields are still range-checked by
/// `validate`).
fn default_shards() -> usize {
    std::env::var("FI_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|s| (1..=MAX_SHARDS).contains(s))
        .unwrap_or(1)
}

/// `FI_TEST_INGEST_THREADS` override for `Default`, with the same
/// fall-back-to-1 contract as [`default_shards`].
fn default_ingest_threads() -> usize {
    std::env::var("FI_TEST_INGEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|t| (1..=MAX_INGEST_THREADS).contains(t))
        .unwrap_or(1)
}

impl Default for ProtocolParams {
    /// Laptop-scale defaults preserving the paper's ratios: `k = 20`
    /// replicas per `minValue`, `capPara = 1000`, deposit ratio 0.46%
    /// (the Theorem 4 example), `ProofDue = 2` cycles and
    /// `ProofDeadline = 4` cycles.
    fn default() -> Self {
        ProtocolParams {
            min_capacity: 64,
            min_value: TokenAmount(1_000),
            k: 20,
            cap_para: 1_000,
            gamma_deposit_ppm: 4_600,
            proof_cycle: 100,
            proof_due: 200,
            proof_deadline: 400,
            avg_refresh: 10.0,
            delay_per_size: 1,
            unit_rent: TokenAmount(1),
            traffic_fee_per_size: TokenAmount(1),
            gas_prepay_per_cycle: TokenAmount(5),
            rent_period_cycles: 10,
            size_limit: 32,
            punish_ppm: 10_000,
            collision_retry_limit: 64,
            poisson_rebalance: false,
            seed: 0xF11E_1245,
            block_interval: 10,
            scheduler: SchedulerKind::Wheel,
            shards: default_shards(),
            audit_path_len: 8,
            ingest_threads: default_ingest_threads(),
            mempool_cap: 8_192,
            block_gas_limit: 1_000_000,
            block_ops_limit: 4_096,
            tombstone_retention_blocks: 32,
        }
    }
}

/// Validation errors for parameters and request arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// A value that must be a positive multiple of another is not.
    NotAMultiple {
        /// What was being validated.
        what: &'static str,
        /// The offending value.
        value: u128,
        /// The required divisor.
        of: u128,
    },
    /// A parameter is out of its legal range.
    OutOfRange {
        /// What was being validated.
        what: &'static str,
    },
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::NotAMultiple { what, value, of } => {
                write!(f, "{what} = {value} must be a positive multiple of {of}")
            }
            ParamError::OutOfRange { what } => write!(f, "{what} out of range"),
        }
    }
}

impl std::error::Error for ParamError {}

impl ProtocolParams {
    /// Checks internal consistency (positive periods, due < deadline, …).
    ///
    /// # Errors
    ///
    /// [`ParamError::OutOfRange`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.min_capacity == 0 {
            return Err(ParamError::OutOfRange {
                what: "min_capacity",
            });
        }
        if self.min_value.is_zero() {
            return Err(ParamError::OutOfRange { what: "min_value" });
        }
        if self.k == 0 {
            return Err(ParamError::OutOfRange { what: "k" });
        }
        if self.proof_cycle == 0 {
            return Err(ParamError::OutOfRange {
                what: "proof_cycle",
            });
        }
        if self.proof_due < self.proof_cycle || self.proof_deadline <= self.proof_due {
            return Err(ParamError::OutOfRange {
                what: "proof windows",
            });
        }
        if self.avg_refresh <= 0.0 {
            return Err(ParamError::OutOfRange {
                what: "avg_refresh",
            });
        }
        if self.rent_period_cycles == 0 {
            return Err(ParamError::OutOfRange {
                what: "rent_period_cycles",
            });
        }
        if self.block_interval == 0 {
            return Err(ParamError::OutOfRange {
                what: "block_interval",
            });
        }
        if self.gamma_deposit_ppm == 0 {
            return Err(ParamError::OutOfRange {
                what: "gamma_deposit_ppm",
            });
        }
        if self.shards == 0 || self.shards > MAX_SHARDS {
            return Err(ParamError::OutOfRange { what: "shards" });
        }
        if self.audit_path_len == 0 {
            return Err(ParamError::OutOfRange {
                what: "audit_path_len",
            });
        }
        if self.ingest_threads == 0 || self.ingest_threads > MAX_INGEST_THREADS {
            return Err(ParamError::OutOfRange {
                what: "ingest_threads",
            });
        }
        if self.mempool_cap == 0 {
            return Err(ParamError::OutOfRange {
                what: "mempool_cap",
            });
        }
        if self.block_gas_limit == 0 {
            return Err(ParamError::OutOfRange {
                what: "block_gas_limit",
            });
        }
        if self.block_ops_limit == 0 {
            return Err(ParamError::OutOfRange {
                what: "block_ops_limit",
            });
        }
        if self.tombstone_retention_blocks == 0 {
            return Err(ParamError::OutOfRange {
                what: "tombstone_retention_blocks",
            });
        }
        Ok(())
    }

    /// `backupCnt(val)` from Fig. 4: `f.cp = k · value / minValue`.
    ///
    /// # Errors
    ///
    /// [`ParamError::NotAMultiple`] unless `value` is a positive multiple
    /// of `minValue` (§IV-C.1).
    pub fn backup_count(&self, value: TokenAmount) -> Result<u32, ParamError> {
        if value.is_zero() || !value.0.is_multiple_of(self.min_value.0) {
            return Err(ParamError::NotAMultiple {
                what: "file value",
                value: value.0,
                of: self.min_value.0,
            });
        }
        let multiples = value.0 / self.min_value.0;
        u32::try_from(multiples)
            .ok()
            .and_then(|m| m.checked_mul(self.k))
            .ok_or(ParamError::OutOfRange { what: "file value" })
    }

    /// Validates a sector capacity (positive multiple of `minCapacity`).
    ///
    /// # Errors
    ///
    /// [`ParamError::NotAMultiple`] on violation.
    pub fn validate_capacity(&self, capacity: u64) -> Result<(), ParamError> {
        if capacity == 0 || !capacity.is_multiple_of(self.min_capacity) {
            return Err(ParamError::NotAMultiple {
                what: "sector capacity",
                value: capacity as u128,
                of: self.min_capacity as u128,
            });
        }
        Ok(())
    }

    /// The deposit pledged for a sector of `capacity` (§IV-B):
    /// `capacity · γ_deposit · capPara · minValue / minCapacity`.
    ///
    /// # Errors
    ///
    /// [`ParamError::OutOfRange`] when the product overflows a `u128`.
    pub fn sector_deposit(&self, capacity: u64) -> Result<TokenAmount, ParamError> {
        (capacity as u128)
            .checked_mul(self.gamma_deposit_ppm as u128)
            .and_then(|raw| raw.checked_mul(self.cap_para as u128))
            .and_then(|raw| raw.checked_mul(self.min_value.0))
            .map(|raw| TokenAmount(raw / self.min_capacity as u128 / 1_000_000))
            .ok_or(ParamError::OutOfRange {
                what: "sector deposit",
            })
    }

    /// Transfer window for a file of `size`: `DelayPerSize × size` (Fig. 4).
    pub fn transfer_window(&self, size: u64) -> Time {
        self.delay_per_size.saturating_mul(size).max(1)
    }

    /// Per-cycle cost charged to the client for one file (rent for all
    /// replicas plus prepaid gas; §IV-A).
    pub fn cycle_cost(&self, size: u64, cp: u32) -> TokenAmount {
        TokenAmount(self.unit_rent.0 * size as u128 * cp as u128) + self.gas_prepay_per_cycle
    }

    /// Traffic fee for transferring one replica of `size` (§IV-A.1).
    pub fn traffic_fee(&self, size: u64) -> TokenAmount {
        TokenAmount(self.traffic_fee_per_size.0 * size as u128)
    }

    /// Punishment amount for a late proof, given the sector's pledged
    /// deposit.
    pub fn punishment(&self, deposit: TokenAmount) -> TokenAmount {
        deposit.mul_ratio(self.punish_ppm as u128, 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_validate() {
        ProtocolParams::default().validate().unwrap();
    }

    #[test]
    fn backup_count_scales_with_value() {
        let p = ProtocolParams::default();
        assert_eq!(p.backup_count(TokenAmount(1_000)).unwrap(), 20);
        assert_eq!(p.backup_count(TokenAmount(3_000)).unwrap(), 60);
        assert!(p.backup_count(TokenAmount(1_500)).is_err());
        assert!(p.backup_count(TokenAmount::ZERO).is_err());
    }

    #[test]
    fn capacity_validation() {
        let p = ProtocolParams::default();
        assert!(p.validate_capacity(64).is_ok());
        assert!(p.validate_capacity(640).is_ok());
        assert!(p.validate_capacity(0).is_err());
        assert!(p.validate_capacity(65).is_err());
    }

    #[test]
    fn deposit_matches_paper_formula() {
        let p = ProtocolParams::default();
        // capacity=128: 128 · (4600/1e6) · 1000 · 1000 / 64 = 9_200.
        assert_eq!(p.sector_deposit(128), Ok(TokenAmount(9_200)));
        // Deposit is linear in capacity.
        assert_eq!(
            p.sector_deposit(256).unwrap().0,
            2 * p.sector_deposit(128).unwrap().0
        );
        // A product past u128 is a typed error, not a wrap.
        let rich = ProtocolParams {
            min_value: TokenAmount(u128::MAX / 2),
            ..p
        };
        assert_eq!(
            rich.sector_deposit(128),
            Err(ParamError::OutOfRange {
                what: "sector deposit"
            })
        );
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = ProtocolParams::default();
        p.proof_deadline = p.proof_due; // deadline must exceed due
        assert_eq!(
            p.validate(),
            Err(ParamError::OutOfRange {
                what: "proof windows"
            })
        );
        let p = ProtocolParams {
            k: 0,
            ..ProtocolParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn cycle_cost_and_fees() {
        let p = ProtocolParams::default();
        assert_eq!(p.cycle_cost(10, 20), TokenAmount(10 * 20 + 5));
        assert_eq!(p.traffic_fee(10), TokenAmount(10));
        assert_eq!(p.transfer_window(10), 10);
        assert_eq!(p.transfer_window(0), 1, "window never zero");
        assert_eq!(p.punishment(TokenAmount(1_000_000)), TokenAmount(10_000));
    }

    #[test]
    fn shard_and_audit_params_validated() {
        let p = ProtocolParams {
            shards: 0,
            ..ProtocolParams::default()
        };
        assert_eq!(p.validate(), Err(ParamError::OutOfRange { what: "shards" }));
        let p = ProtocolParams {
            shards: MAX_SHARDS + 1,
            ..ProtocolParams::default()
        };
        assert!(p.validate().is_err());
        let p = ProtocolParams {
            audit_path_len: 0,
            ..ProtocolParams::default()
        };
        assert_eq!(
            p.validate(),
            Err(ParamError::OutOfRange {
                what: "audit_path_len"
            })
        );
        for shards in [1, 4, 8, MAX_SHARDS] {
            let p = ProtocolParams {
                shards,
                ..ProtocolParams::default()
            };
            p.validate().unwrap();
        }
    }

    #[test]
    fn ingest_thread_param_validated() {
        for bad in [0usize, MAX_INGEST_THREADS + 1] {
            let p = ProtocolParams {
                ingest_threads: bad,
                ..ProtocolParams::default()
            };
            assert_eq!(
                p.validate(),
                Err(ParamError::OutOfRange {
                    what: "ingest_threads"
                })
            );
        }
        for threads in [1, 4, MAX_INGEST_THREADS] {
            let p = ProtocolParams {
                ingest_threads: threads,
                ..ProtocolParams::default()
            };
            p.validate().unwrap();
        }
    }

    #[test]
    fn node_params_validated() {
        for (field, p) in [
            (
                "mempool_cap",
                ProtocolParams {
                    mempool_cap: 0,
                    ..ProtocolParams::default()
                },
            ),
            (
                "block_gas_limit",
                ProtocolParams {
                    block_gas_limit: 0,
                    ..ProtocolParams::default()
                },
            ),
            (
                "block_ops_limit",
                ProtocolParams {
                    block_ops_limit: 0,
                    ..ProtocolParams::default()
                },
            ),
            (
                "tombstone_retention_blocks",
                ProtocolParams {
                    tombstone_retention_blocks: 0,
                    ..ProtocolParams::default()
                },
            ),
        ] {
            assert_eq!(p.validate(), Err(ParamError::OutOfRange { what: field }));
        }
    }

    #[test]
    fn error_display() {
        let e = ParamError::NotAMultiple {
            what: "file value",
            value: 1500,
            of: 1000,
        };
        assert!(e.to_string().contains("multiple of 1000"));
    }
}
