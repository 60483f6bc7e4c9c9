//! Canonical workload keys and the cross-search cost cache.
//!
//! Algorithm 1 prices every `(node, ratio, split/pipeline)` candidate on
//! the simulated hardware, and CNN zoos repeat identical layer shapes
//! pervasively — ResNet's stacked blocks, the EfficientNet family, the
//! batch sweep of `pimflow serve --precompile`. Historically the only memo
//! was a per-search `HashMap` inside the search's profiler, discarded when
//! the search returned, so serving and the bench sweeps re-simulated the
//! same workloads thousands of times.
//!
//! This module makes the memo a first-class, shareable artifact:
//!
//! * [`WorkloadKey`] — the canonical identity of one PIM cost query: the
//!   folded shape fingerprint ([`PimWorkload`], which already encodes op
//!   kind, split ratio and batch via its row count) plus every engine-config
//!   field that affects the PIM estimate (effective channel count, raw
//!   [`ChannelMask`](crate::engine::ChannelMask) bits, and the full
//!   [`PimConfig`] fingerprint). Every estimate schedules at COMP
//!   granularity, as the engine does.
//! * [`pim_cost_us`] — the PIM schedule estimate as a *pure function* of a
//!   key: same key, same microseconds, always.
//! * [`CostTable`] — a read-only map from key to microseconds.
//! * [`CostCache`] — the shared, read-mostly cache: cloning it is an `Arc`
//!   clone, [`snapshot`](CostCache::snapshot) hands workers an immutable
//!   base table, and [`merge`](CostCache::merge) folds their per-worker
//!   [`MemoShard`]s back in at the same deterministic points where the
//!   search's memo shards have always merged.
//!
//! ## Determinism contract
//!
//! Plans are unaffected by caching because [`pim_cost_us`] is pure: a cache
//! changes only *recompute rates*, never values. Counters are defined so
//! they are scheduling-invariant too: a shard records only its total
//! `lookups` (a pure function of graph/options/mask) and the entries it had
//! to compute; at each merge, `misses` grows by the number of keys *newly
//! inserted* into the shared table and `hits` by `lookups − newly
//! inserted`. Total misses therefore telescope to `final entries − initial
//! entries`, so [`counters`](CostCache::counters) read after any set of
//! searches completes is byte-identical at every pool width — duplicate
//! simulations by racing workers are deliberately invisible. See DESIGN.md
//! §4.9 for what is deliberately *excluded* from the key (the GPU model,
//! whose analytic queries are orders of magnitude cheaper than a PIM
//! command-trace simulation).

use crate::codegen::{execute_workload, PimWorkload};
use crate::engine::EngineConfig;
use pimflow_isa::FusedRole;
use pimflow_json::json_struct;
use pimflow_pimsim::{PimConfig, ScheduleGranularity};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Canonical identity of one PIM cost query.
///
/// [`PimWorkload`] is the folded shape/attr fingerprint (the MD-DP ratio
/// and the batch size both fold into `rows`, so a batch-2 layer at a 50%
/// split shares its key with the batch-1 layer at 100% — exactly the reuse
/// the serving precompile sweep exploits); the remaining fields pin every
/// engine-config input of the PIM schedule estimate. The raw mask bits are
/// part of the key even though the estimate only depends on the channel
/// *count*: entries priced under one failure pattern must never leak into
/// another (see `tests/cost_cache.rs`), and the conservative key makes that
/// isolation structural.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadKey {
    /// Folded workload shape (rows already scaled by ratio and batch).
    pub workload: PimWorkload,
    /// Effective PIM channel count the estimate runs over (min 1, mirroring
    /// the search profiler's total cost model).
    pub channels: u32,
    /// Raw channel-availability mask bits
    /// ([`ChannelMask::bits`](crate::engine::ChannelMask::bits)).
    pub mask_bits: u64,
    /// [`PimConfig::fingerprint`] of the priced hardware model.
    pub pim_fingerprint: u64,
    /// Fusion-group role of the lowering ([`FusedRole::Standalone`] for
    /// every unfused query). Fused roles elide bus crossings, so the same
    /// shape prices differently per role — the discriminant keeps the four
    /// pure functions structurally apart in one shared table.
    pub fused: FusedRole,
    /// Fingerprint of a fused group's heavy members, 0 for per-member
    /// queries: the search hashes each member's `(position, workload)`
    /// with std's `DefaultHasher` (whose fixed keys make it deterministic
    /// across runs) and maps 0 to 1. Group-level chain costs depend on
    /// every member, not just the head the key's `workload` names; the
    /// fingerprint keeps two groups sharing a head structurally apart.
    pub group_fp: u64,
}

impl WorkloadKey {
    /// Builds the key for pricing `workload` under `cfg`.
    pub fn new(workload: PimWorkload, cfg: &EngineConfig) -> Self {
        WorkloadKey {
            workload,
            channels: cfg.effective_pim_channels().max(1) as u32,
            mask_bits: cfg.pim_channel_mask.bits(),
            pim_fingerprint: cfg.pim.fingerprint(),
            fused: FusedRole::Standalone,
            group_fp: 0,
        }
    }

    /// The same key re-rolled for another workload: the search builds one
    /// key through [`WorkloadKey::new`] and re-rolls it per lookup, so the
    /// config fingerprints are hashed once.
    pub fn with_workload(self, workload: PimWorkload) -> Self {
        WorkloadKey { workload, ..self }
    }

    /// The same key re-rolled for fusion-group role `role`.
    pub fn with_role(self, role: FusedRole) -> Self {
        WorkloadKey {
            fused: role,
            ..self
        }
    }

    /// The same key re-rolled as a group-level entry: the head's shape
    /// plus the group fingerprint that completes the chain cost's
    /// identity.
    pub fn with_group(self, group_fp: u64) -> Self {
        WorkloadKey { group_fp, ..self }
    }
}

/// The PIM schedule estimate as a pure function of its [`WorkloadKey`]:
/// microseconds to execute the keyed workload over the keyed channel count
/// at COMP granularity. `pim` must be the config the key was built
/// from (checked in debug builds via the fingerprint).
pub fn pim_cost_us(key: &WorkloadKey, pim: &PimConfig) -> f64 {
    debug_assert_eq!(
        key.pim_fingerprint,
        pim.fingerprint(),
        "workload key priced under a different PimConfig"
    );
    debug_assert_eq!(key.group_fp, 0, "per-member pricer fed a group-level key");
    execute_workload(
        &key.workload,
        pim,
        key.channels as usize,
        ScheduleGranularity::Comp,
        key.fused,
    )
    .0
    .time_us
}

/// Hit/miss/entry counters of a cost cache, as surfaced in
/// `ExecutionReport` and `ServeReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache (shard or shared table).
    pub hits: u64,
    /// Lookups that had to run the PIM simulator.
    pub misses: u64,
    /// Distinct workload keys in the table.
    pub entries: u64,
}

json_struct!(CacheCounters {
    hits,
    misses,
    entries,
});

impl CacheCounters {
    /// Hits as a fraction of all lookups (0.0 before the first lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One worker's unsynchronized memo shard: the keys it had to price itself
/// during a search phase, each with the lookups its pricing made in turn
/// (a fused chain prices its members), plus the shard's total lookup
/// count. Produced by the search profiler, consumed by
/// [`CostCache::merge`].
#[derive(Debug, Default)]
pub struct MemoShard {
    entries: HashMap<WorkloadKey, (f64, u64)>,
    lookups: u64,
}

impl MemoShard {
    /// An empty shard.
    pub fn new() -> Self {
        MemoShard::default()
    }

    /// Records one cost query against this shard (hit or miss alike).
    pub(crate) fn count_lookup(&mut self) {
        self.lookups += 1;
    }

    /// The cost this shard computed for `key`, if any.
    pub(crate) fn get(&self, key: &WorkloadKey) -> Option<f64> {
        self.entries.get(key).map(|&(cost, _)| cost)
    }

    /// Stores a freshly computed cost whose pricing made `nested` lookups
    /// of its own (already counted in [`lookups`](Self::lookups)).
    pub(crate) fn insert(&mut self, key: WorkloadKey, cost: f64, nested: u64) {
        self.entries.insert(key, (cost, nested));
    }

    /// Number of keys this shard computed itself.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the shard computed nothing (every lookup was a hit).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total cost queries the shard answered.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }
}

/// An immutable cost table: each distinct [`WorkloadKey`]'s cost,
/// microseconds. Snapshots are shared read-only across worker threads via
/// `Arc`.
#[derive(Debug, Clone, Default)]
pub struct CostTable {
    costs: HashMap<WorkloadKey, f64>,
}

impl CostTable {
    /// The cached cost of `key`, if present.
    pub fn get(&self, key: &WorkloadKey) -> Option<f64> {
        self.costs.get(key).copied()
    }

    /// Inserts `key` if absent; returns whether it was newly inserted.
    /// Existing entries are never overwritten — costs are values of a pure
    /// function, so a duplicate carries the same number.
    fn insert_if_missing(&mut self, key: WorkloadKey, cost: f64) -> bool {
        match self.costs.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(cost);
                true
            }
        }
    }

    /// Distinct keys in the table.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }
}

/// Shared state behind a [`CostCache`] handle.
#[derive(Debug, Default)]
struct CacheState {
    snapshot: Arc<CostTable>,
    hits: u64,
    misses: u64,
}

/// The shared, read-mostly, cross-search PIM cost cache.
///
/// Cloning the handle is an `Arc` clone — every clone reads and feeds the
/// same table. Workers never lock it on the hot path: a search phase takes
/// one [`snapshot`](CostCache::snapshot) up front, each worker resolves
/// lookups against its private shard and the snapshot, and the shards merge
/// back under one short lock when the phase ends (the same points where the
/// search's memo shards have always merged). The cache persists across
/// `Search::run` calls, which is where the cross-search speedup comes from.
#[derive(Debug, Clone, Default)]
pub struct CostCache {
    inner: Arc<Mutex<CacheState>>,
}

impl CostCache {
    /// An empty cache.
    pub fn new() -> Self {
        CostCache::default()
    }

    /// The current immutable table. Lookups against a snapshot never block
    /// and never observe later merges — a later merge republishes a new
    /// `Arc`, it does not mutate tables already handed out.
    pub fn snapshot(&self) -> Arc<CostTable> {
        self.inner
            .lock()
            .expect("cost cache lock poisoned")
            .snapshot
            .clone()
    }

    /// Folds worker shards into the shared table and updates the counters.
    ///
    /// `misses` grows by the number of keys newly inserted, `hits` by the
    /// shards' counted lookups minus that. The lookups a key's pricing made
    /// in turn count only if the key is newly inserted: a worker that
    /// re-prices a fused group another worker already priced repeats the
    /// group's member lookups, and one worker would not have. So after any
    /// set of searches completes the counters are independent of pool
    /// width and scheduling (a duplicate computation by a racing worker
    /// counts as one hit, because the table gained nothing from it).
    /// Pricing nests one level deep (a chain prices its members, a member
    /// prices nothing), so every lookup belongs to at most one entry.
    pub fn merge(&self, shards: impl IntoIterator<Item = MemoShard>) {
        let shards: Vec<MemoShard> = shards.into_iter().collect();
        let mut lookups: u64 = shards.iter().map(|s| s.lookups).sum();
        if lookups == 0 && shards.iter().all(|s| s.is_empty()) {
            return;
        }
        let mut state = self.inner.lock().expect("cost cache lock poisoned");
        let mut added = 0u64;
        if shards.iter().any(|s| !s.is_empty()) {
            let mut table = (*state.snapshot).clone();
            for shard in shards {
                for (key, (cost, nested)) in shard.entries {
                    if table.insert_if_missing(key, cost) {
                        added += 1;
                    } else {
                        lookups -= nested;
                    }
                }
            }
            state.snapshot = Arc::new(table);
        }
        state.misses += added;
        state.hits += lookups - added;
    }

    /// Current hit/miss/entry counters.
    pub fn counters(&self) -> CacheCounters {
        let state = self.inner.lock().expect("cost cache lock poisoned");
        CacheCounters {
            hits: state.hits,
            misses: state.misses,
            entries: state.snapshot.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(rows: usize) -> PimWorkload {
        PimWorkload {
            rows,
            k_elems: 64,
            out_channels: 32,
            strided: false,
            segments: 1,
        }
    }

    fn key(rows: usize, cfg: &EngineConfig) -> WorkloadKey {
        WorkloadKey::new(workload(rows), cfg)
    }

    #[test]
    fn key_separates_masks_and_configs() {
        let cfg = EngineConfig::pimflow();
        let a = key(100, &cfg);
        assert_eq!(a, key(100, &cfg), "same inputs, same key");
        // Same surviving channel count, different failure pattern: the raw
        // bits keep the keys apart.
        let m1 = cfg.with_mask(crate::engine::ChannelMask::all().without(0));
        let m2 = cfg.with_mask(crate::engine::ChannelMask::all().without(1));
        let k1 = key(100, &m1);
        let k2 = key(100, &m2);
        assert_eq!(k1.channels, k2.channels);
        assert_ne!(k1, k2);
        // A different PIM substrate changes the fingerprint component.
        let hbm = EngineConfig {
            pim: pimflow_pimsim::PimConfig::hbm_pim_like(),
            ..cfg.clone()
        };
        assert_ne!(a, key(100, &hbm));
        // And the workload itself matters.
        assert_ne!(a, key(101, &cfg));
        // Group-level entries (chain cost keyed on the head, fingerprinted
        // over the members) never collide with the head's own per-member
        // entry, nor across groups.
        let g1 = a.with_group(0xdead_beef);
        let g2 = a.with_group(0xfeed_face);
        assert_ne!(a, g1);
        assert_ne!(g1, g2);
        assert_eq!(a.with_group(0), a);
    }

    #[test]
    fn pim_cost_is_pure_in_the_key() {
        let cfg = EngineConfig::pimflow();
        let k = key(196, &cfg);
        let a = pim_cost_us(&k, &cfg.pim);
        let b = pim_cost_us(&k, &cfg.pim);
        assert!(a > 0.0);
        assert_eq!(a.to_bits(), b.to_bits(), "bitwise reproducible");
        let direct = crate::codegen::execute_workload(
            &k.workload,
            &cfg.pim,
            k.channels as usize,
            ScheduleGranularity::Comp,
            FusedRole::Standalone,
        )
        .0
        .time_us;
        assert_eq!(a.to_bits(), direct.to_bits());
    }

    #[test]
    fn fused_roles_get_their_own_entries_and_cheaper_io() {
        let cfg = EngineConfig::pimflow();
        let base = key(196, &cfg);
        for role in [FusedRole::Head, FusedRole::Middle, FusedRole::Tail] {
            let fused = base.with_role(role);
            assert_ne!(base, fused, "role must separate keys");
            let standalone_us = pim_cost_us(&base, &cfg.pim);
            let fused_us = pim_cost_us(&fused, &cfg.pim);
            assert!(
                fused_us <= standalone_us,
                "{role:?}: fused {fused_us} > standalone {standalone_us}"
            );
        }
        assert_eq!(base.with_role(FusedRole::Standalone), base);
    }

    #[test]
    fn merge_counts_newly_inserted_as_misses() {
        let cfg = EngineConfig::pimflow();
        let cache = CostCache::new();
        let mut shard = MemoShard::new();
        for rows in [10, 20] {
            shard.count_lookup();
            shard.insert(key(rows, &cfg), rows as f64, 0);
        }
        shard.count_lookup(); // a third lookup answered by the shard itself
        cache.merge([shard]);
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 1,
                misses: 2,
                entries: 2
            }
        );
        // A second search re-looking-up the same keys computes nothing.
        let mut warm = MemoShard::new();
        warm.count_lookup();
        warm.count_lookup();
        cache.merge([warm]);
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 3,
                misses: 2,
                entries: 2
            }
        );
    }

    #[test]
    fn racing_duplicates_count_as_hits() {
        // Two workers computed the same key in their private shards: the
        // table gains one entry, so one of the two counts as a hit — the
        // totals cannot depend on which worker "won".
        let cfg = EngineConfig::pimflow();
        let cache = CostCache::new();
        let mut a = MemoShard::new();
        a.count_lookup();
        a.insert(key(50, &cfg), 1.25, 0);
        let mut b = MemoShard::new();
        b.count_lookup();
        b.insert(key(50, &cfg), 1.25, 0);
        cache.merge([a, b]);
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
    }

    #[test]
    fn a_racing_group_counts_its_member_lookups_once() {
        // Two tasks look up the same group key `g`, whose pricing looks up
        // members `m1` and `m2`. One worker prices the group once and hits
        // its own shard the second time; two workers both price it. The
        // counters must not tell the two apart.
        let cfg = EngineConfig::pimflow();
        let g = key(1, &cfg).with_group(0x9);
        let price_group = |shard: &mut MemoShard| {
            shard.count_lookup();
            for rows in [2, 3] {
                shard.count_lookup();
                shard.insert(key(rows, &cfg), rows as f64, 0);
            }
            shard.insert(g, 5.0, 2);
        };
        let one = CostCache::new();
        let mut shard = MemoShard::new();
        price_group(&mut shard);
        shard.count_lookup(); // the second task hits the shard
        one.merge([shard]);
        let two = CostCache::new();
        let (mut a, mut b) = (MemoShard::new(), MemoShard::new());
        price_group(&mut a);
        price_group(&mut b);
        two.merge([a, b]);
        let want = CacheCounters {
            hits: 1,
            misses: 3,
            entries: 3,
        };
        assert_eq!(one.counters(), want);
        assert_eq!(two.counters(), want);
    }

    #[test]
    fn snapshots_are_immutable() {
        let cfg = EngineConfig::pimflow();
        let cache = CostCache::new();
        let before = cache.snapshot();
        let mut shard = MemoShard::new();
        shard.count_lookup();
        shard.insert(key(7, &cfg), 3.5, 0);
        cache.merge([shard]);
        assert!(before.is_empty(), "old snapshot must not see the merge");
        let after = cache.snapshot();
        assert_eq!(after.len(), 1);
        assert_eq!(after.get(&key(7, &cfg)), Some(3.5));
        assert_eq!(after.get(&key(8, &cfg)), None);
    }

    #[test]
    fn clones_share_one_table() {
        let cfg = EngineConfig::pimflow();
        let cache = CostCache::new();
        let alias = cache.clone();
        let mut shard = MemoShard::new();
        shard.count_lookup();
        shard.insert(key(11, &cfg), 9.0, 0);
        alias.merge([shard]);
        assert_eq!(cache.counters().entries, 1);
        assert_eq!(cache.snapshot().get(&key(11, &cfg)), Some(9.0));
    }
}
