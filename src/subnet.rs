//! Value-level subnetworks (paper §VI-D).
//!
//! A file of value `v` needs `k·v/minValue` replicas, so very valuable
//! files are replicated heavily. §VI-D's compromise: *"pre-divide the value
//! levels of files and establish a storage subnetwork corresponding to each
//! level. Then the clients can choose which subnetwork to store files based
//! on the value level of their files."*
//!
//! [`SubnetRouter`] manages one `Engine` per value
//! level: each level scales `minValue` by a power of `level_factor`, so a
//! high-value file lands in a subnet where its value is a *small* multiple
//! of that subnet's `minValue`, keeping its replica count near `k` instead
//! of `k·v/minValue`.

use fi_chain::account::{AccountId, TokenAmount};
use fi_chain::tasks::Time;
use fi_crypto::Hash256;

use fi_core::engine::{Engine, EngineError};
use fi_core::params::{ParamError, ProtocolParams};
use fi_core::types::{FileId, SectorId};

/// A file handle qualified by its subnet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubnetFileId {
    /// Which value level stores the file.
    pub level: usize,
    /// The id within that level's engine.
    pub file: FileId,
}

/// A sector handle qualified by its subnet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubnetSectorId {
    /// Which value level the sector serves.
    pub level: usize,
    /// The id within that level's engine.
    pub sector: SectorId,
}

/// Routes files to per-value-level FileInsurer subnetworks.
///
/// # Example
///
/// ```
/// use fileinsurer::subnet::SubnetRouter;
/// use fi_core::params::ProtocolParams;
/// use fi_chain::account::TokenAmount;
///
/// let mut base = ProtocolParams::default();
/// base.k = 4;
/// let router = SubnetRouter::new(base, 3, 10).unwrap();
/// // minValue = 1000 · 10^level:
/// assert_eq!(router.level_for_value(TokenAmount(1_000)), 0);
/// assert_eq!(router.level_for_value(TokenAmount(40_000)), 1);
/// assert_eq!(router.level_for_value(TokenAmount(5_000_000)), 2);
/// ```
#[derive(Debug)]
pub struct SubnetRouter {
    levels: Vec<Engine>,
    level_factor: u64,
    base_min_value: TokenAmount,
}

impl SubnetRouter {
    /// Creates `levels` subnets; level `i` uses
    /// `minValue = base.min_value · level_factor^i`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures.
    pub fn new(base: ProtocolParams, levels: usize, level_factor: u64) -> Result<Self, ParamError> {
        assert!(levels > 0 && level_factor > 1, "need >=1 level, factor >1");
        let mut engines = Vec::with_capacity(levels);
        for i in 0..levels {
            let mut p = base.clone();
            p.min_value = TokenAmount(base.min_value.0 * (level_factor as u128).pow(i as u32));
            p.seed = base.seed.wrapping_add(i as u64);
            engines.push(Engine::new(p)?);
        }
        Ok(SubnetRouter {
            levels: engines,
            level_factor,
            base_min_value: base.min_value,
        })
    }

    /// Number of value levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The engine of one level.
    pub fn level(&self, level: usize) -> &Engine {
        &self.levels[level]
    }

    /// Mutable engine access (providers register per level).
    pub fn level_mut(&mut self, level: usize) -> &mut Engine {
        &mut self.levels[level]
    }

    /// The highest level whose `minValue` does not exceed `value` (values
    /// below the base `minValue` map to level 0).
    pub fn level_for_value(&self, value: TokenAmount) -> usize {
        let mut level = 0usize;
        let mut min_value = self.base_min_value.0 * self.level_factor as u128;
        while level + 1 < self.levels.len() && value.0 >= min_value {
            level += 1;
            min_value *= self.level_factor as u128;
        }
        level
    }

    /// Adds a file to its value level, rounding the value **up** to that
    /// level's `minValue` multiple (over-insuring, never under-insuring).
    ///
    /// # Errors
    ///
    /// Propagates the chosen engine's [`EngineError`]s.
    pub fn file_add(
        &mut self,
        client: AccountId,
        size: u64,
        value: TokenAmount,
        merkle_root: Hash256,
    ) -> Result<SubnetFileId, EngineError> {
        let level = self.level_for_value(value);
        let engine = &mut self.levels[level];
        let mv = engine.params().min_value.0;
        let rounded = TokenAmount(value.0.div_ceil(mv) * mv);
        let file = engine.file_add(client, size, rounded, merkle_root)?;
        Ok(SubnetFileId { level, file })
    }

    /// Advances every subnet to `target` time.
    pub fn advance_to(&mut self, target: Time) {
        for engine in &mut self.levels {
            engine.advance_to(target);
        }
    }

    /// Total replicas a value-`v` file would need **without** subnets
    /// versus **with** them — the §VI-D saving.
    pub fn replica_saving(&self, value: TokenAmount) -> (u32, u32) {
        let base_k = self.levels[0].params().k;
        let without = (value.0 / self.base_min_value.0) as u32 * base_k;
        let level = self.level_for_value(value);
        let engine = &self.levels[level];
        let mv = engine.params().min_value.0;
        let with = (value.0.div_ceil(mv) as u32) * base_k;
        (without, with)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_chain::gas::GasSchedule;
    use fi_core::engine::StateView;
    use fi_crypto::sha256;

    fn router() -> SubnetRouter {
        let base = ProtocolParams {
            k: 4,
            ..ProtocolParams::default()
        };
        SubnetRouter::new(base, 3, 10).unwrap()
    }

    #[test]
    fn levels_scale_min_value() {
        let r = router();
        assert_eq!(r.level(0).params().min_value, TokenAmount(1_000));
        assert_eq!(r.level(1).params().min_value, TokenAmount(10_000));
        assert_eq!(r.level(2).params().min_value, TokenAmount(100_000));
    }

    #[test]
    fn routing_picks_highest_feasible_level() {
        let r = router();
        assert_eq!(r.level_for_value(TokenAmount(999)), 0);
        assert_eq!(r.level_for_value(TokenAmount(9_999)), 0);
        assert_eq!(r.level_for_value(TokenAmount(10_000)), 1);
        assert_eq!(r.level_for_value(TokenAmount(99_999)), 1);
        assert_eq!(r.level_for_value(TokenAmount(100_000)), 2);
        // Values past the top level stay at the top level.
        assert_eq!(r.level_for_value(TokenAmount(10_000_000)), 2);
    }

    #[test]
    fn replica_saving_matches_design() {
        let r = router();
        // A 100·minValue file: without subnets 100·k replicas; in level 2
        // it is exactly 1 × minValue(level 2) → k replicas.
        let (without, with) = r.replica_saving(TokenAmount(100_000));
        assert_eq!(without, 400);
        assert_eq!(with, 4);
    }

    #[test]
    fn file_lands_in_its_level_with_rounded_value() {
        let mut r = router();
        let provider = AccountId(50);
        let client = AccountId(51);
        // Fund and provision level 1.
        r.level_mut(1).fund(provider, TokenAmount(u128::MAX / 2));
        r.level_mut(1).fund(client, TokenAmount(1_000_000_000));
        r.level_mut(1).sector_register(provider, 6_400).unwrap();

        let id = r
            .file_add(client, 10, TokenAmount(25_000), sha256(b"subnet file"))
            .unwrap();
        assert_eq!(id.level, 1);
        let desc = r.level(1).file(id.file).unwrap();
        // 25_000 rounded up to the 10_000 multiple = 30_000 → cp = 3·k.
        assert_eq!(desc.value, TokenAmount(30_000));
        assert_eq!(desc.cp, 12);
    }

    #[test]
    fn advance_moves_all_levels() {
        let mut r = router();
        r.advance_to(500);
        for lvl in 0..r.level_count() {
            assert_eq!(r.level(lvl).now(), 500);
        }
    }

    #[test]
    fn subnet_engine_end_to_end() {
        let base = ProtocolParams {
            k: 2,
            delay_per_size: 6,
            ..ProtocolParams::default()
        };
        let mut router = SubnetRouter::new(base, 3, 10).unwrap();
        let provider = AccountId(100);
        let client = AccountId(900);
        // Provision every level.
        for level in 0..router.level_count() {
            let engine = router.level_mut(level);
            engine.set_gas_schedule(GasSchedule::free());
            engine.fund(provider, TokenAmount(u128::MAX / 8));
            engine.fund(client, TokenAmount(1_000_000_000));
            engine.sector_register(provider, 1280).unwrap();
        }
        // A cheap file and an expensive one route to different levels with
        // the same replica count.
        let cheap = router
            .file_add(client, 8, TokenAmount(1_000), sha256(b"cheap"))
            .unwrap();
        let dear = router
            .file_add(client, 8, TokenAmount(100_000), sha256(b"dear"))
            .unwrap();
        assert_eq!(cheap.level, 0);
        assert_eq!(dear.level, 2);
        assert_eq!(router.level(0).file(cheap.file).unwrap().cp, 2);
        assert_eq!(router.level(2).file(dear.file).unwrap().cp, 2);

        // Both settle normally.
        for level in 0..router.level_count() {
            router.level_mut(level).honest_providers_act();
        }
        router.advance_to(100);
        assert!(router.level(0).file(cheap.file).is_some());
        assert!(router.level(2).file(dear.file).is_some());
    }
}
