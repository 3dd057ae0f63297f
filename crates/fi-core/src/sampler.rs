//! Capacity-proportional weighted sampling — the `RandomSector()` primitive.
//!
//! Table I: *"Sample a random sector. The probability of selecting each
//! sector is proportional to its capacity."* The sector set is dynamic
//! (registrations, disables, removals), and `File_Add` plus the continuous
//! refresh stream make sampling the hottest consensus operation, so the
//! implementation must support O(log n) insert / remove / re-weight /
//! sample. We use a Fenwick (binary indexed) tree over weights with slot
//! recycling; sampling descends the tree bit by bit.

use std::collections::HashMap;
use std::hash::Hash;

use fi_crypto::DetRng;

/// The sampler's serializable layout, as returned by
/// [`WeightedSampler::snapshot_parts`]: the slot array (`(key, weight)`,
/// free slots as `(None, 0)`), the free-slot stack, and the Fenwick tree
/// length.
pub type SamplerParts<K> = (Vec<(Option<K>, u64)>, Vec<usize>, usize);

/// A dynamic weighted sampler over keys of type `K`.
///
/// # Example
///
/// ```
/// use fi_core::sampler::WeightedSampler;
/// use fi_crypto::DetRng;
///
/// let mut s = WeightedSampler::new();
/// s.insert("small", 1);
/// s.insert("big", 99);
/// let mut rng = DetRng::from_seed_label(1, "doc");
/// let mut bigs = 0;
/// for _ in 0..1000 {
///     if *s.sample(&mut rng).unwrap() == "big" { bigs += 1; }
/// }
/// assert!(bigs > 950); // ∝ weight
/// ```
#[derive(Debug, Clone)]
pub struct WeightedSampler<K> {
    /// Fenwick tree: `tree[i]` covers a range of slots; 1-based internally.
    tree: Vec<u64>,
    /// Per-slot weight (0 for free slots).
    weights: Vec<u64>,
    /// Per-slot key.
    keys: Vec<Option<K>>,
    /// Key → slot.
    index_of: HashMap<K, usize>,
    /// Recycled slots.
    free_slots: Vec<usize>,
    /// Sum of all weights.
    total: u64,
}

impl<K> Default for WeightedSampler<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> WeightedSampler<K> {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        WeightedSampler {
            tree: vec![0; 1],
            weights: Vec::new(),
            keys: Vec::new(),
            index_of: HashMap::new(),
            free_slots: Vec::new(),
            total: 0,
        }
    }
}

impl<K: Copy + Eq + Hash> WeightedSampler<K> {
    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.index_of.len()
    }

    /// `true` when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.index_of.is_empty()
    }

    /// Sum of all weights.
    pub fn total_weight(&self) -> u64 {
        self.total
    }

    /// Current weight of `key`, if present.
    pub fn weight(&self, key: &K) -> Option<u64> {
        self.index_of.get(key).map(|&slot| self.weights[slot])
    }

    /// Inserts `key` with `weight`, or updates its weight if present.
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0`; zero-weight keys are unsampleable — remove
    /// them instead.
    pub fn insert(&mut self, key: K, weight: u64) {
        assert!(weight > 0, "weight must be positive");
        if let Some(&slot) = self.index_of.get(&key) {
            self.set_slot_weight(slot, weight);
            return;
        }
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.weights.push(0);
                self.keys.push(None);
                let s = self.weights.len() - 1;
                if self.weights.len() >= self.tree.len() {
                    self.rebuild_tree();
                }
                s
            }
        };
        self.keys[slot] = Some(key);
        self.index_of.insert(key, slot);
        self.set_slot_weight(slot, weight);
    }

    /// Removes `key`, returning its weight if it was present.
    pub fn remove(&mut self, key: &K) -> Option<u64> {
        let slot = self.index_of.remove(key)?;
        let w = self.weights[slot];
        self.set_slot_weight(slot, 0);
        self.keys[slot] = None;
        self.free_slots.push(slot);
        Some(w)
    }

    /// Samples a key with probability proportional to its weight, or `None`
    /// when empty.
    pub fn sample(&self, rng: &mut DetRng) -> Option<&K> {
        if self.total == 0 {
            return None;
        }
        let target = rng.below(self.total);
        let slot = self.find_slot(target);
        self.keys[slot].as_ref()
    }

    /// The sampler's complete internal layout for snapshots: the slot
    /// array as `(key, weight)` pairs (free slots are `(None, 0)`), the
    /// free-slot stack (order matters — it drives future slot reuse), and
    /// the Fenwick tree length (which pins the sampling descend's
    /// geometry). Sampling walks slots, so restoring anything less
    /// than the exact layout would perturb the consensus random stream.
    pub fn snapshot_parts(&self) -> SamplerParts<K> {
        let slots = self
            .keys
            .iter()
            .zip(&self.weights)
            .map(|(k, &w)| (*k, w))
            .collect();
        (slots, self.free_slots.clone(), self.tree.len())
    }

    /// Rebuilds a sampler from [`WeightedSampler::snapshot_parts`] output.
    /// The Fenwick tree is recomputed from the weights (its values are a
    /// pure function of weights and length), so only the length needs to
    /// be carried.
    ///
    /// # Errors
    ///
    /// Returns a description when the parts are inconsistent (free slots
    /// not matching empty slots, occupied slot with zero weight, duplicate
    /// keys, total weight overflowing `u64`, or a tree too short for the
    /// slot count). Never panics: snapshot restoration feeds it untrusted
    /// bytes.
    pub fn from_parts(
        slots: Vec<(Option<K>, u64)>,
        free_slots: Vec<usize>,
        tree_len: usize,
    ) -> Result<Self, &'static str> {
        // 1-based Fenwick indexing needs room for index `slots.len()`.
        if tree_len <= slots.len() {
            return Err("sampler tree shorter than the slot array");
        }
        let mut keys = Vec::with_capacity(slots.len());
        let mut weights = Vec::with_capacity(slots.len());
        let mut index_of = HashMap::with_capacity(slots.len());
        let mut total = 0u64;
        for (slot, (key, weight)) in slots.into_iter().enumerate() {
            match key {
                Some(k) => {
                    if weight == 0 {
                        return Err("sampler slot occupied with zero weight");
                    }
                    if index_of.insert(k, slot).is_some() {
                        return Err("sampler key appears in two slots");
                    }
                }
                None => {
                    if weight != 0 {
                        return Err("free sampler slot with non-zero weight");
                    }
                }
            }
            keys.push(key);
            weights.push(weight);
            // Untrusted input: the weights must fit u64 in aggregate, or
            // the Fenwick partial sums below (all ≤ total) would overflow.
            total = total
                .checked_add(weight)
                .ok_or("sampler weights overflow the total")?;
        }
        let free_ok = free_slots
            .iter()
            .all(|&s| s < keys.len() && keys[s].is_none());
        let free_count = keys.iter().filter(|k| k.is_none()).count();
        if !free_ok || free_slots.len() != free_count {
            return Err("sampler free-slot stack does not match empty slots");
        }
        let mut sampler = WeightedSampler {
            tree: vec![0; tree_len],
            weights,
            keys,
            index_of,
            free_slots,
            total,
        };
        for slot in 0..sampler.weights.len() {
            let w = sampler.weights[slot];
            if w > 0 {
                let mut i = slot + 1;
                while i < sampler.tree.len() {
                    sampler.tree[i] += w;
                    i += i & i.wrapping_neg();
                }
            }
        }
        Ok(sampler)
    }

    /// Iterates over `(key, weight)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.keys
            .iter()
            .zip(&self.weights)
            .filter_map(|(k, &w)| k.as_ref().map(|key| (key, w)))
    }

    /// Sets the weight stored at `slot`, updating the tree and total.
    fn set_slot_weight(&mut self, slot: usize, weight: u64) {
        let old = self.weights[slot];
        self.weights[slot] = weight;
        self.total = self.total - old + weight;
        // Fenwick point update (1-based).
        let mut i = slot + 1;
        let (add, sub) = if weight >= old {
            (weight - old, 0)
        } else {
            (0, old - weight)
        };
        while i < self.tree.len() {
            self.tree[i] = self.tree[i] + add - sub;
            i += i & i.wrapping_neg();
        }
    }

    /// Rebuilds the Fenwick tree with doubled capacity.
    fn rebuild_tree(&mut self) {
        let cap = (self.weights.len() + 1).next_power_of_two().max(2);
        self.tree = vec![0; cap * 2];
        for (slot, &w) in self.weights.iter().enumerate() {
            if w > 0 {
                let mut i = slot + 1;
                while i < self.tree.len() {
                    self.tree[i] += w;
                    i += i & i.wrapping_neg();
                }
            }
        }
    }

    /// Finds the slot holding the `target`-th unit of weight: the smallest
    /// slot whose prefix sum exceeds `target`. Standard Fenwick descend.
    fn find_slot(&self, mut target: u64) -> usize {
        debug_assert!(target < self.total);
        let mut pos = 0usize;
        let mut step = self.tree.len().next_power_of_two() / 2;
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            step /= 2;
        }
        // pos is 1-based index of the last slot with prefix <= target;
        // the answer is the following slot (0-based = pos).
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chi_square_ok(observed: &[u64], expected: &[f64]) -> bool {
        let chi2: f64 = observed
            .iter()
            .zip(expected)
            .filter(|(_, &e)| e > 0.0)
            .map(|(&o, &e)| {
                let d = o as f64 - e;
                d * d / e
            })
            .sum();
        // Generous threshold for <= 20 dof at far-tail significance.
        chi2 < 60.0
    }

    #[test]
    fn sampling_proportional_to_weight() {
        let mut s = WeightedSampler::new();
        let weights = [5u64, 10, 1, 100, 42, 7];
        for (i, &w) in weights.iter().enumerate() {
            s.insert(i, w);
        }
        let total: u64 = weights.iter().sum();
        let mut rng = DetRng::from_seed_label(21, "prop");
        let n = 200_000u64;
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..n {
            counts[*s.sample(&mut rng).unwrap()] += 1;
        }
        let expected: Vec<f64> = weights
            .iter()
            .map(|&w| n as f64 * w as f64 / total as f64)
            .collect();
        assert!(
            chi_square_ok(&counts, &expected),
            "{counts:?} vs {expected:?}"
        );
    }

    #[test]
    fn empty_and_single() {
        let mut s: WeightedSampler<u32> = WeightedSampler::new();
        let mut rng = DetRng::from_seed_label(22, "one");
        assert!(s.sample(&mut rng).is_none());
        s.insert(9, 3);
        for _ in 0..10 {
            assert_eq!(*s.sample(&mut rng).unwrap(), 9);
        }
    }

    #[test]
    fn remove_redirects_mass() {
        let mut s = WeightedSampler::new();
        s.insert("a", 50);
        s.insert("b", 50);
        assert_eq!(s.remove(&"a"), Some(50));
        assert_eq!(s.remove(&"a"), None);
        assert_eq!(s.total_weight(), 50);
        let mut rng = DetRng::from_seed_label(23, "rm");
        for _ in 0..100 {
            assert_eq!(*s.sample(&mut rng).unwrap(), "b");
        }
    }

    #[test]
    fn update_weight_in_place() {
        let mut s = WeightedSampler::new();
        s.insert(1u32, 10);
        s.insert(2u32, 10);
        s.insert(1u32, 1000); // update, not duplicate
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_weight(), 1010);
        assert_eq!(s.weight(&1), Some(1000));
        let mut rng = DetRng::from_seed_label(24, "upd");
        let ones = (0..1000)
            .filter(|_| *s.sample(&mut rng).unwrap() == 1)
            .count();
        assert!(ones > 950, "ones={ones}");
    }

    #[test]
    fn slot_recycling_after_churn() {
        let mut s = WeightedSampler::new();
        for i in 0..100u32 {
            s.insert(i, (i + 1) as u64);
        }
        for i in 0..50u32 {
            s.remove(&i);
        }
        for i in 100..150u32 {
            s.insert(i, 5);
        }
        assert_eq!(s.len(), 100);
        let expect_total: u64 = (51..=100).sum::<u64>() + 50 * 5;
        assert_eq!(s.total_weight(), expect_total);
        // All sampled keys must be live ones.
        let mut rng = DetRng::from_seed_label(25, "churn");
        for _ in 0..2000 {
            let k = *s.sample(&mut rng).unwrap();
            assert!((50..150).contains(&k), "sampled dead key {k}");
        }
    }

    #[test]
    fn growth_across_rebuilds() {
        let mut s = WeightedSampler::new();
        for i in 0..10_000u64 {
            s.insert(i, 1 + i % 7);
        }
        let expect: u64 = (0..10_000u64).map(|i| 1 + i % 7).sum();
        assert_eq!(s.total_weight(), expect);
        // Prefix integrity: sampling never returns a free/invalid slot.
        let mut rng = DetRng::from_seed_label(26, "grow");
        for _ in 0..1000 {
            assert!(s.sample(&mut rng).is_some());
        }
    }

    #[test]
    fn iter_lists_live_entries() {
        let mut s = WeightedSampler::new();
        s.insert("x", 1);
        s.insert("y", 2);
        s.remove(&"x");
        let entries: Vec<_> = s.iter().collect();
        assert_eq!(entries, vec![(&"y", 2)]);
    }

    /// Snapshot round-trip must preserve the exact slot layout: the
    /// restored sampler emits the identical sample stream (same rng) and
    /// reuses slots in the same order on future churn.
    #[test]
    fn snapshot_parts_round_trip_preserves_sampling_stream() {
        let mut s = WeightedSampler::new();
        for i in 0..60u64 {
            s.insert(i, 1 + i % 9);
        }
        for i in (0..60u64).step_by(3) {
            s.remove(&i);
        }
        for i in 100..110u64 {
            s.insert(i, 7);
        }
        let (slots, free, tree_len) = s.snapshot_parts();
        let mut r = WeightedSampler::from_parts(slots, free, tree_len).expect("valid parts");
        assert_eq!(r.total_weight(), s.total_weight());
        assert_eq!(r.len(), s.len());
        let mut rng_a = DetRng::from_seed_label(5, "snap");
        let mut rng_b = rng_a.clone();
        for _ in 0..500 {
            assert_eq!(s.sample(&mut rng_a), r.sample(&mut rng_b));
        }
        // Future churn stays aligned too (free-slot stack order preserved).
        s.insert(200, 3);
        r.insert(200, 3);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng_a), r.sample(&mut rng_b));
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_layouts() {
        let err = |r: Result<WeightedSampler<u64>, &'static str>| r.unwrap_err();
        // Tree too short for the slot count.
        assert!(err(WeightedSampler::from_parts(vec![(Some(1), 2)], vec![], 1)).contains("tree"));
        // Occupied slot with zero weight.
        assert!(
            err(WeightedSampler::from_parts(vec![(Some(1), 0)], vec![], 4)).contains("zero weight")
        );
        // Free slot carrying weight.
        assert!(err(WeightedSampler::from_parts(vec![(None, 5)], vec![0], 4)).contains("free"));
        // Free stack not matching the empty slots.
        assert!(err(WeightedSampler::from_parts(
            vec![(Some(1), 2), (None, 0)],
            vec![],
            4
        ))
        .contains("free-slot"));
        // Duplicate key.
        assert!(err(WeightedSampler::from_parts(
            vec![(Some(1), 2), (Some(1), 3)],
            vec![],
            4
        ))
        .contains("two slots"));
        // Aggregate weight overflow (reachable from a crafted snapshot
        // with a recomputed self-hash) — typed error, not a panic.
        assert!(err(WeightedSampler::from_parts(
            vec![(Some(1), u64::MAX), (Some(2), u64::MAX)],
            vec![],
            4
        ))
        .contains("overflow"));
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let mut s = WeightedSampler::new();
        s.insert(1u8, 0);
    }

    #[test]
    fn two_key_distribution_exact_bounds() {
        // With weights 1 and 3, P(key=1) = 0.75; check tight empirically.
        let mut s = WeightedSampler::new();
        s.insert(0u8, 1);
        s.insert(1u8, 3);
        let mut rng = DetRng::from_seed_label(27, "twokey");
        let n = 100_000;
        let hits = (0..n).filter(|_| *s.sample(&mut rng).unwrap() == 1).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "frac {frac}");
    }
}
