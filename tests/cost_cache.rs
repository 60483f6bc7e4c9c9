//! Cost-cache contract: caching is invisible to search results. A search
//! against a warm [`CostCache`] must produce byte-identical plans to a
//! cold or uncached search at every pool width; entries are keyed by
//! [`ChannelMask`] bits so degraded-mode timings never leak between masks;
//! and the hit/miss counters are exact, scheduling-independent functions
//! of the graph and options.

use pimflow::costcache::CostCache;
use pimflow::engine::{ChannelMask, EngineConfig};
use pimflow::search::{Search, SearchOptions};
use pimflow_ir::{models, GraphBuilder, Shape};

/// Pool widths exercised: inline (1), partial shard (2), more workers
/// than candidate layers (8) — mirrors `tests/parallelism.rs`.
const WIDTHS: [usize; 3] = [1, 2, 8];

fn assert_cache_invisible(g: &pimflow_ir::Graph, cfg: &EngineConfig, opts: &SearchOptions) {
    let uncached = Search::new(g, cfg)
        .options(*opts)
        .pool(1)
        .run()
        .expect("zoo models search");
    let expected = pimflow_json::to_string(&uncached);
    for jobs in WIDTHS {
        let cache = CostCache::new();
        let cold = Search::new(g, cfg)
            .options(*opts)
            .pool(jobs)
            .cache(&cache)
            .run()
            .expect("zoo models search");
        assert_eq!(
            pimflow_json::to_string(&cold),
            expected,
            "{}: cold cached plan diverged at {jobs} workers",
            g.name
        );
        let entries_after_cold = cache.counters().entries;
        assert!(
            entries_after_cold > 0,
            "{}: search must feed the cache",
            g.name
        );
        let warm = Search::new(g, cfg)
            .options(*opts)
            .pool(jobs)
            .cache(&cache)
            .run()
            .expect("zoo models search");
        assert_eq!(
            pimflow_json::to_string(&warm),
            expected,
            "{}: warm cached plan diverged at {jobs} workers",
            g.name
        );
        let after_warm = cache.counters();
        assert_eq!(
            after_warm.entries, entries_after_cold,
            "{}: a warm re-search must add no entries",
            g.name
        );
    }
}

#[test]
fn warm_cache_plans_match_cold_across_pool_widths() {
    let cfg = EngineConfig::pimflow();
    let opts = SearchOptions::default();
    for name in ["toy", "mobilenet-v2", "resnet-18"] {
        let g = models::by_name(name).expect("known model");
        assert_cache_invisible(&g, &cfg, &opts);
    }
}

#[test]
fn warm_cache_plans_match_cold_for_non_default_options() {
    let cfg = EngineConfig::pimflow();
    let g = models::toy();
    let coarse = SearchOptions {
        ratio_step: 30,
        ..Default::default()
    };
    let offload = SearchOptions {
        offload_only: true,
        ..Default::default()
    };
    let no_pipeline = SearchOptions {
        allow_pipeline: false,
        ..Default::default()
    };
    assert_cache_invisible(&g, &cfg, &coarse);
    assert_cache_invisible(&g, &cfg, &offload);
    assert_cache_invisible(&g, &cfg, &no_pipeline);
}

#[test]
fn entries_never_leak_between_channel_masks() {
    // Two masks with the same number of surviving channels time
    // identically, but their keys must stay distinct: a shared cache
    // re-profiles everything under the second mask (exactly as much as a
    // fresh cache would) and the plans match the fresh-cache plans.
    let g = models::toy();
    let opts = SearchOptions::default();
    let mask_a = ChannelMask::all().without(0);
    let mask_b = ChannelMask::all().without(1);
    let cfg_a = EngineConfig::pimflow().with_mask(mask_a);
    let cfg_b = EngineConfig::pimflow().with_mask(mask_b);

    let fresh_b = CostCache::new();
    let plan_fresh_b = Search::new(&g, &cfg_b)
        .options(opts)
        .pool(2)
        .cache(&fresh_b)
        .run()
        .expect("zoo models search");
    let fresh_b_entries = fresh_b.counters().entries;

    let shared = CostCache::new();
    Search::new(&g, &cfg_a)
        .options(opts)
        .pool(2)
        .cache(&shared)
        .run()
        .expect("zoo models search");
    let after_a = shared.counters();
    let plan_shared_b = Search::new(&g, &cfg_b)
        .options(opts)
        .pool(2)
        .cache(&shared)
        .run()
        .expect("zoo models search");
    let after_b = shared.counters();

    assert_eq!(
        pimflow_json::to_string(&plan_shared_b),
        pimflow_json::to_string(&plan_fresh_b),
        "mask B plan must not depend on mask A's cached entries"
    );
    assert_eq!(
        after_b.entries - after_a.entries,
        fresh_b_entries,
        "mask B must add exactly its fresh-cache entry count — reuse across masks would be a leak"
    );
}

#[test]
fn counters_are_exact_on_a_graph_with_duplicate_shapes() {
    // Two identical 1x1 convolutions over a [1,10,10,16] input, pipelining
    // off. Per node the MD-DP grid (step 10) calls the PIM cost model once
    // per ratio except 100: fracs 1.0 (ratio 0) and 0.9..0.1 (ratios
    // 10..90) — 10 lookups. rows = 10*10 = 100 scales to round(100*f) =
    // {10, 20, ..., 100}: 10 distinct keys. The second conv repeats the
    // same 10 keys (10 hits). The back-to-back convs also form one fusion
    // group, priced once as a full offload: one group-level chain entry
    // (head workload + group fingerprint) plus the Head and Tail role
    // entries at rows 100 — 3 lookups, all distinct from the Standalone
    // node-phase keys, so all miss. Totals: 23 lookups = 13 misses + 10
    // hits, 13 entries — at every pool width.
    let mut b = GraphBuilder::new("twin-convs");
    let x = b.input(Shape::nhwc(1, 10, 10, 16));
    let y1 = b.conv1x1(x, 16);
    let y2 = b.conv1x1(y1, 16);
    let g = b.finish(y2);
    let cfg = EngineConfig::pimflow();
    let opts = SearchOptions {
        allow_pipeline: false,
        ..Default::default()
    };
    for jobs in WIDTHS {
        let cache = CostCache::new();
        Search::new(&g, &cfg)
            .options(opts)
            .pool(jobs)
            .cache(&cache)
            .run()
            .expect("search");
        let c = cache.counters();
        assert_eq!(c.entries, 13, "entries at {jobs} workers");
        assert_eq!(c.misses, 13, "misses at {jobs} workers");
        assert_eq!(c.hits, 10, "hits at {jobs} workers");
    }
}
