//! Provider reputation — the paper's §VII open problem, prototyped.
//!
//! *"Are there other approaches to enhance the reliability of Decentralized
//! Storage Networks? For example, a reputation mechanism \[8\] on storage
//! providers may be also helpful to reduce the loss of files."* — §VII,
//! citing the softmax reputation protocol of Chen et al.
//!
//! This module prototypes that direction on top of the existing machinery:
//!
//! * [`ReputationBook`] tracks per-provider proof reliability with
//!   exponential decay (recent behaviour dominates);
//! * selection weights multiply sector capacity by a **softmax** factor of
//!   the owner's score, so persistently unreliable providers attract
//!   exponentially fewer placements while never being fully excluded
//!   (full exclusion would break the i.i.d.-placement analysis; the
//!   factor is clamped to `[min_factor, max_factor]`);
//! * [`ReputationBook::weighted_capacity`] is what an integrating engine
//!   would feed the [`fi_core::sampler::WeightedSampler`] instead of raw
//!   capacity.
//!
//! The experiment in the tests shows the payoff: when failure propensity
//! varies across providers, reputation-weighted placement measurably cuts
//! the file-loss rate versus capacity-only placement at equal parameters.

use std::collections::HashMap;

use fi_chain::account::AccountId;

/// Tunables for the reputation mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReputationParams {
    /// Exponential decay applied to the score per observation window.
    pub decay: f64,
    /// Score increment for an on-time proof.
    pub reward: f64,
    /// Score decrement for a missed/late proof (punishment).
    pub penalty: f64,
    /// Softmax temperature: lower = sharper discrimination.
    pub temperature: f64,
    /// Lower clamp on the capacity multiplier.
    pub min_factor: f64,
    /// Upper clamp on the capacity multiplier.
    pub max_factor: f64,
}

impl Default for ReputationParams {
    fn default() -> Self {
        ReputationParams {
            decay: 0.95,
            reward: 1.0,
            penalty: 4.0,
            temperature: 2.0,
            min_factor: 0.05,
            max_factor: 2.0,
        }
    }
}

/// Tracks provider reliability scores and converts them into sampling
/// weights.
///
/// # Example
///
/// ```
/// use fileinsurer::reputation::{ReputationBook, ReputationParams};
/// use fi_chain::account::AccountId;
///
/// let mut book = ReputationBook::new(ReputationParams::default());
/// let good = AccountId(1);
/// let bad = AccountId(2);
/// for _ in 0..20 {
///     book.record_proof(good);
///     book.record_miss(bad);
/// }
/// assert!(book.factor(good) > book.factor(bad));
/// assert!(book.weighted_capacity(good, 640) > book.weighted_capacity(bad, 640));
/// ```
#[derive(Debug, Clone)]
pub struct ReputationBook {
    params: ReputationParams,
    scores: HashMap<AccountId, f64>,
}

impl ReputationBook {
    /// Creates an empty book.
    pub fn new(params: ReputationParams) -> Self {
        ReputationBook {
            params,
            scores: HashMap::new(),
        }
    }

    /// Raw score of a provider (0 for unknown).
    pub fn score(&self, provider: AccountId) -> f64 {
        self.scores.get(&provider).copied().unwrap_or(0.0)
    }

    /// Records an accepted, on-time storage proof.
    pub fn record_proof(&mut self, provider: AccountId) {
        let s = self.scores.entry(provider).or_insert(0.0);
        *s += self.params.reward;
    }

    /// Records a missed/late proof (the engine's punishment events).
    pub fn record_miss(&mut self, provider: AccountId) {
        let s = self.scores.entry(provider).or_insert(0.0);
        *s -= self.params.penalty;
    }

    /// Applies one decay window (call per rent period).
    pub fn decay_all(&mut self) {
        for s in self.scores.values_mut() {
            *s *= self.params.decay;
        }
    }

    /// The softmax capacity multiplier for a provider, clamped to
    /// `[min_factor, max_factor]`.
    ///
    /// Uses a logistic (2-way softmax against the neutral score 0):
    /// `2·exp(s/T) / (exp(s/T) + 1)` — neutral providers get factor 1,
    /// reliable ones approach `max_factor`, unreliable ones `min_factor`.
    pub fn factor(&self, provider: AccountId) -> f64 {
        let s = self.score(provider) / self.params.temperature;
        // Numerically stable logistic.
        let f = if s >= 0.0 {
            2.0 / (1.0 + (-s).exp())
        } else {
            2.0 * s.exp() / (1.0 + s.exp())
        };
        f.clamp(self.params.min_factor, self.params.max_factor)
    }

    /// Sampling weight for a sector: capacity × owner factor (never 0).
    pub fn weighted_capacity(&self, provider: AccountId, capacity: u64) -> u64 {
        ((capacity as f64 * self.factor(provider)).round() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_core::sampler::WeightedSampler;
    use fi_crypto::DetRng;

    #[test]
    fn neutral_provider_factor_is_one() {
        let book = ReputationBook::new(ReputationParams::default());
        let p = AccountId(9);
        assert!((book.factor(p) - 1.0).abs() < 1e-12);
        assert_eq!(book.weighted_capacity(p, 640), 640);
    }

    #[test]
    fn scores_move_and_decay() {
        let mut book = ReputationBook::new(ReputationParams::default());
        let p = AccountId(1);
        book.record_proof(p);
        book.record_proof(p);
        assert!((book.score(p) - 2.0).abs() < 1e-12);
        book.record_miss(p);
        assert!((book.score(p) + 2.0).abs() < 1e-12);
        book.decay_all();
        assert!((book.score(p) + 1.9).abs() < 1e-12);
    }

    #[test]
    fn factor_monotone_and_clamped() {
        let mut book = ReputationBook::new(ReputationParams::default());
        let good = AccountId(1);
        let bad = AccountId(2);
        for _ in 0..100 {
            book.record_proof(good);
            book.record_miss(bad);
        }
        assert!((book.factor(good) - 2.0).abs() < 1e-6, "hits max clamp");
        assert!((book.factor(bad) - 0.05).abs() < 1e-6, "hits min clamp");
        // Unreliable providers are down-weighted but never excluded.
        assert!(book.weighted_capacity(bad, 640) >= 1);
    }

    /// The §VII payoff experiment: reputation-weighted placement loses
    /// fewer files than capacity-only placement when provider failure
    /// propensity is heterogeneous and persistent.
    #[test]
    fn reputation_weighting_reduces_losses() {
        let providers = 40usize;
        let k = 3u32;
        let files = 4_000usize;
        let mut rng = DetRng::from_seed_label(99, "rep-exp");

        // Half the providers are flaky: 30% chance of being corrupted in
        // the disaster; reliable ones 3%.
        let flaky = |p: usize| p < providers / 2;

        // Phase 1: observe a proving history and build the book.
        let mut book = ReputationBook::new(ReputationParams::default());
        for round in 0..30 {
            for p in 0..providers {
                let misses = flaky(p) && rng.bernoulli(0.4);
                if misses {
                    book.record_miss(AccountId(p as u64));
                } else {
                    book.record_proof(AccountId(p as u64));
                }
            }
            if round % 10 == 9 {
                book.decay_all();
            }
        }

        // Phase 2: place files under both weightings.
        let place = |weights: &[u64], rng: &mut DetRng| -> Vec<Vec<usize>> {
            let mut sampler = WeightedSampler::new();
            for (i, &w) in weights.iter().enumerate() {
                sampler.insert(i, w);
            }
            (0..files)
                .map(|_| (0..k).map(|_| *sampler.sample(rng).unwrap()).collect())
                .collect()
        };
        let capacity_only: Vec<u64> = vec![640; providers];
        let rep_weighted: Vec<u64> = (0..providers)
            .map(|p| book.weighted_capacity(AccountId(p as u64), 640))
            .collect();
        let mut rng_a = DetRng::from_seed_label(100, "a");
        let mut rng_b = DetRng::from_seed_label(100, "b");
        let flat_placement = place(&capacity_only, &mut rng_a);
        let rep_placement = place(&rep_weighted, &mut rng_b);

        // Phase 3: the disaster — flaky providers fail far more often.
        let mut fail_rng = DetRng::from_seed_label(101, "fail");
        let failed: Vec<bool> = (0..providers)
            .map(|p| fail_rng.bernoulli(if flaky(p) { 0.30 } else { 0.03 }))
            .collect();
        let losses = |placement: &[Vec<usize>]| {
            placement
                .iter()
                .filter(|locs| locs.iter().all(|&p| failed[p]))
                .count()
        };
        let flat_losses = losses(&flat_placement);
        let rep_losses = losses(&rep_placement);
        assert!(
            flat_losses >= 4,
            "setup sanity: flat placement must lose files, got {flat_losses}"
        );
        assert!(
            rep_losses * 2 < flat_losses,
            "reputation {rep_losses} vs flat {flat_losses}"
        );
    }
}
