//! LRU execution-plan cache.
//!
//! The execution-mode search (Algorithm 1) is by far the most expensive
//! step of serving a batch: it profiles every PIM-candidate layer of the
//! *batched* graph. Its result depends only on the (model, policy, batch
//! size) triple, so the scheduler memoizes compiled batch profiles behind
//! this cache and the search runs once per configuration.
//!
//! Recency is tracked with a monotonic use-stamp per entry instead of a
//! position list: a hit is one `HashMap` update (O(1)), and only an
//! eviction scans for the minimum stamp (O(capacity), on the already-slow
//! miss path). The old scheme (`Vec::position` + `remove(0)`) paid
//! O(capacity) on every hit.

use std::collections::HashMap;

/// Default plan-cache capacity of serving and fleet runs.
pub const DEFAULT_PLAN_CACHE_CAP: usize = 16;

/// Cache key: one compiled serving configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Model name (normalized).
    pub model: String,
    /// Policy display name.
    pub policy: String,
    /// Batch size the plan was compiled for.
    pub batch: usize,
    /// Channel-availability mask bits the plan was compiled under
    /// ([`ChannelMask::bits`](pimflow::engine::ChannelMask::bits)). Plans
    /// priced for degraded hardware must not be served once channels
    /// recover, so the mask is part of the identity.
    pub mask: u64,
}

/// One cached value plus the stamp of its last use.
#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    last_use: u64,
}

/// A bounded LRU map from [`PlanKey`] to compiled batch profiles.
#[derive(Debug, Clone)]
pub struct PlanCache<V> {
    capacity: usize,
    map: HashMap<PlanKey, Slot<V>>,
    /// Monotonic use counter; stamps are unique, so the LRU entry (minimum
    /// stamp) is unambiguous and eviction is deterministic.
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<V> PlanCache<V> {
    /// Creates a cache holding at most `capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        PlanCache {
            capacity,
            map: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn evict_lru(&mut self) {
        if let Some(key) = self
            .map
            .iter()
            .min_by_key(|(_, slot)| slot.last_use)
            .map(|(k, _)| k.clone())
        {
            self.map.remove(&key);
        }
    }

    /// Looks up `key`, building and inserting the value with `build` on a
    /// miss (evicting the least-recently-used entry if full). Returns the
    /// value and whether this was a hit.
    pub fn get_or_insert_with(&mut self, key: PlanKey, build: impl FnOnce() -> V) -> (&V, bool) {
        let hit = self.map.contains_key(&key);
        let stamp = self.next_tick();
        if hit {
            self.hits += 1;
            self.map
                .get_mut(&key)
                .expect("checked contains_key")
                .last_use = stamp;
        } else {
            self.misses += 1;
            if self.map.len() >= self.capacity {
                self.evict_lru();
            }
            self.map.insert(
                key.clone(),
                Slot {
                    value: build(),
                    last_use: stamp,
                },
            );
        }
        (&self.map.get(&key).expect("just inserted").value, hit)
    }

    /// Inserts (or replaces) `key` without touching the hit/miss counters —
    /// the warm-up path for precompiled plans. Evicts the LRU entry when
    /// inserting a new key into a full cache.
    pub fn insert(&mut self, key: PlanKey, value: V) {
        let stamp = self.next_tick();
        if let Some(slot) = self.map.get_mut(&key) {
            slot.value = value;
            slot.last_use = stamp;
            return;
        }
        if self.map.len() >= self.capacity {
            self.evict_lru();
        }
        self.map.insert(
            key,
            Slot {
                value,
                last_use: stamp,
            },
        );
    }

    /// Looks up `key` without touching recency or the hit/miss counters —
    /// the fault-repair path inspects existing entries this way.
    pub fn peek(&self, key: &PlanKey) -> Option<&V> {
        self.map.get(key).map(|slot| &slot.value)
    }

    /// Maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (= build invocations) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hits as a fraction of all lookups (0.0 before the first lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(batch: usize) -> PlanKey {
        PlanKey {
            model: "toy".into(),
            policy: "PIMFlow".into(),
            batch,
            mask: u64::MAX,
        }
    }

    #[test]
    fn builds_once_per_key() {
        let mut c: PlanCache<u32> = PlanCache::new(4);
        let mut builds = 0;
        for _ in 0..5 {
            c.get_or_insert_with(key(2), || {
                builds += 1;
                7
            });
        }
        assert_eq!(builds, 1);
        assert_eq!(c.hits(), 4);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: PlanCache<usize> = PlanCache::new(2);
        c.get_or_insert_with(key(1), || 1);
        c.get_or_insert_with(key(2), || 2);
        // Touch 1 so 2 becomes the LRU entry.
        c.get_or_insert_with(key(1), || unreachable!());
        c.get_or_insert_with(key(3), || 3);
        assert_eq!(c.len(), 2);
        let (_, hit) = c.get_or_insert_with(key(1), || unreachable!());
        assert!(hit, "batch-1 plan must have survived");
        let (_, hit) = c.get_or_insert_with(key(3), || unreachable!());
        assert!(hit, "batch-3 plan must have survived");
        let (_, hit) = c.get_or_insert_with(key(2), || 2);
        assert!(!hit, "batch-2 plan must have been evicted");
    }

    #[test]
    fn hit_accounting_survives_eviction_of_touched_key() {
        // Regression for the recency rework: touching a key, evicting it,
        // and re-inserting it must keep hits/misses exact across the whole
        // sequence.
        let mut c: PlanCache<usize> = PlanCache::new(2);
        c.get_or_insert_with(key(1), || 1); // miss
        c.get_or_insert_with(key(2), || 2); // miss
        c.get_or_insert_with(key(1), || unreachable!()); // hit (touch 1)
        c.get_or_insert_with(key(3), || 3); // miss, evicts 2
        c.get_or_insert_with(key(2), || 2); // miss, evicts 1 (LRU after touch order 1,3)
        let (_, hit) = c.get_or_insert_with(key(3), || unreachable!());
        assert!(hit, "3 was touched after 1");
        let (_, hit) = c.get_or_insert_with(key(1), || 1); // miss: evicted above
        assert!(!hit);
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 5);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn insert_warms_without_counting_lookups() {
        let mut c: PlanCache<usize> = PlanCache::new(2);
        c.insert(key(1), 10);
        c.insert(key(2), 20);
        assert_eq!(c.hits() + c.misses(), 0, "warm-up is not a lookup");
        let (v, hit) = c.get_or_insert_with(key(1), || unreachable!());
        assert!(hit);
        assert_eq!(*v, 10);
        // Replacing an existing key keeps the size and updates the value.
        c.insert(key(1), 11);
        assert_eq!(c.len(), 2);
        let (v, hit) = c.get_or_insert_with(key(1), || unreachable!());
        assert!(hit);
        assert_eq!(*v, 11);
        // Over-capacity warm-up evicts deterministically (LRU first).
        c.insert(key(3), 30);
        assert_eq!(c.len(), 2);
        let (_, hit) = c.get_or_insert_with(key(2), || 21);
        assert!(!hit, "batch-2 was least recently used");
    }

    #[test]
    fn distinct_policies_do_not_collide() {
        let mut c: PlanCache<&'static str> = PlanCache::new(4);
        let a = PlanKey {
            model: "toy".into(),
            policy: "PIMFlow".into(),
            batch: 1,
            mask: u64::MAX,
        };
        let b = PlanKey {
            model: "toy".into(),
            policy: "Baseline".into(),
            batch: 1,
            mask: u64::MAX,
        };
        c.get_or_insert_with(a, || "pimflow");
        let (v, hit) = c.get_or_insert_with(b, || "baseline");
        assert!(!hit);
        assert_eq!(*v, "baseline");
    }

    #[test]
    fn capacity_one_thrashes_on_alternating_keys() {
        // The smallest legal cache: every alternation between two keys
        // evicts the other, so both keys miss every time.
        let mut c: PlanCache<usize> = PlanCache::new(1);
        for _ in 0..3 {
            c.get_or_insert_with(key(1), || 1);
            c.get_or_insert_with(key(2), || 2);
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 6);
    }

    #[test]
    fn distinct_masks_do_not_collide() {
        let mut c: PlanCache<&'static str> = PlanCache::new(4);
        let healthy = key(1);
        let degraded = PlanKey {
            mask: !0b1,
            ..key(1)
        };
        c.get_or_insert_with(healthy.clone(), || "healthy");
        let (v, hit) = c.get_or_insert_with(degraded.clone(), || "degraded");
        assert!(!hit, "degraded hardware must not reuse the healthy plan");
        assert_eq!(*v, "degraded");
        assert_eq!(c.peek(&healthy), Some(&"healthy"));
        assert_eq!(c.peek(&degraded), Some(&"degraded"));
        assert_eq!(c.hits() + c.misses(), 2, "peek is not a lookup");
    }
}
