//! Space-saving top-K sketch for live Contribution Fractions.
//!
//! The batch diagnoser ranks data objects by Contribution Fraction
//! `CF_c(A) = Samples(c, A) / Samples(c, ALL)` over the retained sample
//! log. A streaming monitor has no log, so each channel keeps a
//! **space-saving** sketch (Metwally, Agrawal, El Abbadi 2005): at most
//! `k` counters; a hit increments its counter; a miss while full evicts
//! the minimum counter and inherits its count as the new key's
//! *overestimate*. Guarantees: any key with true frequency above `N/k` is
//! present, each counter bounds the true count within
//! `[count - overestimate, count]`, and memory is `O(k)` regardless of
//! stream length — which is what lets the diagnoser name culprit objects
//! while the run is still going.

/// One sketch counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopEntry<K> {
    /// The tracked key.
    pub key: K,
    /// Upper bound on the key's true occurrence count.
    pub count: u64,
    /// Count inherited from the evicted predecessor (error bound).
    pub overestimate: u64,
}

impl<K> TopEntry<K> {
    /// Lower bound on the key's true occurrence count.
    pub fn guaranteed(&self) -> u64 {
        self.count - self.overestimate
    }
}

/// A space-saving sketch over keys of type `K`.
///
/// The counters live in a flat `Vec` scanned linearly: a sketch holds a
/// handful of entries (16 per channel by default — a run has few
/// allocation sites worth naming), so the scan touches a few cache lines
/// where a hash table pays a SipHash per offer.
#[derive(Debug, Clone)]
pub struct SpaceSaving<K: Copy + Ord> {
    capacity: usize,
    counters: Vec<TopEntry<K>>,
    total: u64,
}

impl<K: Copy + Ord> SpaceSaving<K> {
    /// A sketch with at most `capacity` counters.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sketch capacity must be positive");
        Self { capacity, counters: Vec::with_capacity(capacity), total: 0 }
    }

    /// Observe one occurrence of `key`.
    pub fn offer(&mut self, key: K) {
        self.offer_n(key, 1);
    }

    /// Observe `n` consecutive occurrences of `key`: the state `n` calls
    /// of [`SpaceSaving::offer`] reach (none for `n = 0`). After the first
    /// the key is present, so the rest only add to its count — a miss on a
    /// full sketch evicts once, and the newcomer takes the victim's count
    /// `c` as `c + n` with overestimate `c`.
    pub fn offer_n(&mut self, key: K, n: u64) {
        if n == 0 {
            return;
        }
        self.total += n;
        if let Some(entry) = self.counters.iter_mut().find(|e| e.key == key) {
            entry.count += n;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.push(TopEntry { key, count: n, overestimate: 0 });
            return;
        }
        // Evict the minimum counter (deterministic tie-break on the key)
        // and inherit its count as the newcomer's overestimate.
        let victim = self.counters.iter_mut().min_by_key(|e| (e.count, e.key)).expect("capacity is positive");
        *victim = TopEntry { key, count: victim.count + n, overestimate: victim.count };
    }

    /// Total observations offered.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Forget every counter, keeping the capacity and the table's
    /// allocation (for sketch reuse across pooled sessions).
    pub fn clear(&mut self) {
        self.counters.clear();
        self.total = 0;
    }

    /// Counters currently tracked (at most the capacity).
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether nothing has been tracked.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// The top `n` keys by estimated count, descending (deterministic
    /// tie-break on the key).
    pub fn top(&self, n: usize) -> Vec<TopEntry<K>> {
        let mut out = self.counters.clone();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        out.truncate(n);
        out
    }

    /// Estimated Contribution Fraction of `key`: its count upper bound
    /// over the total stream (0 when untracked or the stream is empty).
    pub fn cf_estimate(&self, key: &K) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counters.iter().find(|e| e.key == *key).map_or(0.0, |e| e.count as f64 / self.total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn exact_below_capacity() {
        let mut s = SpaceSaving::new(4);
        for _ in 0..9 {
            s.offer("hot");
        }
        s.offer("cold");
        let top = s.top(10);
        assert_eq!(top[0], TopEntry { key: "hot", count: 9, overestimate: 0 });
        assert_eq!(top[1], TopEntry { key: "cold", count: 1, overestimate: 0 });
        assert!((s.cf_estimate(&"hot") - 0.9).abs() < 1e-12);
        assert_eq!(s.total(), 10);
    }

    #[test]
    fn heavy_hitter_survives_eviction_pressure() {
        let mut s = SpaceSaving::new(3);
        // 300 occurrences of the heavy key interleaved with 100 distinct
        // one-off keys that constantly force evictions.
        for i in 0..100u32 {
            for _ in 0..3 {
                s.offer(0u32);
            }
            s.offer(1000 + i);
        }
        assert_eq!(s.len(), 3);
        let top = s.top(1);
        assert_eq!(top[0].key, 0);
        assert!(top[0].count >= 300, "upper bound covers the true count, got {}", top[0].count);
        assert!(top[0].guaranteed() >= 200, "heavy hitter's guaranteed count stays dominant");
        assert_eq!(s.total(), 400);
    }

    #[test]
    fn count_bounds_hold() {
        let mut s = SpaceSaving::new(2);
        for k in [1u32, 2, 3, 1, 4, 1, 5, 1] {
            s.offer(k);
        }
        for e in s.top(2) {
            assert!(e.count >= e.guaranteed());
            assert!(e.count <= s.total());
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        SpaceSaving::<u32>::new(0);
    }

    /// The `HashMap` implementation the flat sketch replaced, kept as the
    /// model it must agree with.
    struct HashSketch {
        capacity: usize,
        counters: HashMap<u32, (u64, u64)>, // key -> (count, overestimate)
        total: u64,
    }

    impl HashSketch {
        fn offer(&mut self, key: u32) {
            self.total += 1;
            if let Some((count, _)) = self.counters.get_mut(&key) {
                *count += 1;
                return;
            }
            if self.counters.len() < self.capacity {
                self.counters.insert(key, (1, 0));
                return;
            }
            let (&victim, &(min, _)) = self
                .counters
                .iter()
                .min_by(|(ka, (ca, _)), (kb, (cb, _))| ca.cmp(cb).then(ka.cmp(kb)))
                .expect("non-empty");
            self.counters.remove(&victim);
            self.counters.insert(key, (min + 1, min));
        }

        fn top(&self, n: usize) -> Vec<TopEntry<u32>> {
            let mut out: Vec<TopEntry<u32>> = self
                .counters
                .iter()
                .map(|(&key, &(count, overestimate))| TopEntry { key, count, overestimate })
                .collect();
            out.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
            out.truncate(n);
            out
        }

        fn cf_estimate(&self, key: &u32) -> f64 {
            if self.total == 0 {
                return 0.0;
            }
            self.counters.get(key).map_or(0.0, |&(count, _)| count as f64 / self.total as f64)
        }
    }

    proptest::proptest! {
        /// Key streams over a universe barely larger than the capacity
        /// keep the sketch full of equal counts, so nearly every miss is
        /// an eviction decided by the `(count, key)` tie-break.
        #[test]
        fn flat_sketch_matches_the_hash_map_model(
            capacity in 1usize..17,
            spread in 1u32..8,
            picks in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..400),
            n in 0usize..20,
        ) {
            let universe = capacity as u32 + spread;
            let mut flat = SpaceSaving::new(capacity);
            let mut model = HashSketch { capacity, counters: HashMap::new(), total: 0 };
            for (i, pick) in picks.iter().enumerate() {
                let key = pick % universe;
                flat.offer(key);
                model.offer(key);
                proptest::prop_assert_eq!(flat.len(), model.counters.len(), "after offer {}", i);
                proptest::prop_assert_eq!(flat.top(capacity), model.top(capacity), "after offer {}", i);
            }
            proptest::prop_assert_eq!(flat.total(), model.total);
            proptest::prop_assert_eq!(flat.top(n), model.top(n));
            for key in 0..universe + 1 {
                proptest::prop_assert_eq!(flat.cf_estimate(&key), model.cf_estimate(&key));
            }
        }

        /// `offer_n(k, n)` is `n` unit offers of `k`, against the same
        /// model and over the same eviction-heavy key universes, with runs
        /// long enough to overtake a victim's count in one step.
        #[test]
        fn offer_n_is_n_unit_offers(
            capacity in 1usize..17,
            spread in 1u32..8,
            runs in proptest::collection::vec((proptest::prelude::any::<u32>(), 1u64..41), 0..200),
        ) {
            let universe = capacity as u32 + spread;
            let mut flat = SpaceSaving::new(capacity);
            let mut model = HashSketch { capacity, counters: HashMap::new(), total: 0 };
            for (i, &(pick, n)) in runs.iter().enumerate() {
                let key = pick % universe;
                flat.offer_n(key, n);
                (0..n).for_each(|_| model.offer(key));
                proptest::prop_assert_eq!(flat.len(), model.counters.len(), "after run {}", i);
                proptest::prop_assert_eq!(flat.top(capacity), model.top(capacity), "after run {}", i);
                proptest::prop_assert_eq!(flat.total(), model.total, "after run {}", i);
                for key in 0..universe + 1 {
                    proptest::prop_assert_eq!(flat.cf_estimate(&key), model.cf_estimate(&key), "after run {}", i);
                }
            }
        }
    }
}
