//! Cross-crate integration: the compile-and-run path is pinned.
//!
//! For a fixed graph and configuration, `search` → `apply_plan` →
//! `execute` under [`EngineConfig::pimflow`] must produce the same plan
//! bytes and the same simulated timeline. This test pins both on five
//! zoo models under three search variants, so a refactor of how the
//! passes record placement, or of how the engine reads it, cannot move a
//! number unseen. Node names are left out of the timeline hash: they are
//! labels, not data.
//!
//! Each case also pins the cost-cache counters of a one-worker search and
//! the plan `repair` makes under two channel masks through that same
//! cache, so a refactor of how the search or the repair prices a
//! candidate cannot move a cost or a cache lookup unseen either. The
//! counters are width-invariant: searches on pools of 1, 2, 4 and 8
//! workers must report the one-worker counters, although a fused group
//! repeated across workers (bert-16's layers) is priced by each worker
//! that misses it.

use pimflow::costcache::{CacheCounters, CostCache};
use pimflow::engine::{execute, ChannelMask, EngineConfig, ExecutionReport};
use pimflow::policy::Policy;
use pimflow::search::{apply_plan, Search, SearchOptions};
use pimflow_ir::{infer_shapes, models, Graph};

/// 64-bit FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// A zoo model at a square input extent.
fn zoo_at(name: &str, px: usize) -> Graph {
    let mut g = models::by_name(name).expect("zoo model");
    for v in g.inputs().to_vec() {
        if let Some(desc) = g.value_mut(v).desc.as_mut() {
            desc.shape = desc.shape.with_dim(1, px).with_dim(2, px);
        }
    }
    infer_shapes(&mut g).expect("model runs at this extent");
    g
}

/// The pinned models, labelled as in [`PINS`].
fn pinned_models() -> Vec<(&'static str, Graph)> {
    vec![
        ("toy", zoo_at("toy", 32)),
        ("mobilenet-v2", zoo_at("mobilenet-v2", 224)),
        ("resnet-50", zoo_at("resnet-50", 224)),
        ("vgg-16", zoo_at("vgg-16", 224)),
        ("bert-16", models::bert_like(16)),
    ]
}

/// The pinned search variants: label, engine configuration, options.
fn variants() -> Vec<(&'static str, EngineConfig, SearchOptions)> {
    vec![
        ("default", EngineConfig::pimflow(), SearchOptions::default()),
        (
            "unfused",
            EngineConfig::pimflow(),
            SearchOptions {
                allow_fusion: false,
                ..SearchOptions::default()
            },
        ),
        (
            "pl",
            EngineConfig::pimflow(),
            Policy::PimflowPl
                .search_options()
                .expect("PIMFlow-pl searches"),
        ),
    ]
}

/// The repair masks, applied in this order: channels 0–3 down, then
/// channels 0–11 down (of the 16 [`EngineConfig::pimflow`] configures).
fn repair_masks() -> [ChannelMask; 2] {
    let down = |n: usize| (0..n).fold(ChannelMask::all(), |m, c| m.without(c));
    [down(4), down(12)]
}

/// Counters as a `(hits, misses, entries)` tuple.
fn counts(c: CacheCounters) -> (u64, u64, u64) {
    (c.hits, c.misses, c.entries)
}

/// Hash of the per-node timeline: device, start and finish bits, and the
/// epilogue-fused flag of every node, in execution order.
fn timeline_hash(report: &ExecutionReport) -> u64 {
    let mut h = Fnv::new();
    for t in &report.timings {
        h.bytes(t.device.to_string().as_bytes());
        h.bytes(&t.start_us.to_bits().to_le_bytes());
        h.bytes(&t.finish_us.to_bits().to_le_bytes());
        h.bytes(&[t.fused as u8]);
    }
    h.0
}

/// Pinned results of one `(model, variant)` run.
#[derive(Debug, PartialEq)]
struct Pin {
    case: &'static str,
    /// FNV-1a of the compact plan JSON.
    plan: u64,
    /// Bits of `total_us` and `energy_uj`.
    total_us: u64,
    energy_uj: u64,
    transfer_bytes: u64,
    host_to_pim_bytes: u64,
    /// `(gid, members, overlap_hidden_us bits)` per fusion group.
    fused_groups: &'static [(usize, usize, u64)],
    /// [`timeline_hash`] of the report.
    timeline: u64,
    /// `(hits, misses, entries)` of a cold cost cache after a one-worker
    /// search, which must find the same plan.
    search_cache: (u64, u64, u64),
    /// FNV-1a of the compact JSON of the plan repaired under each of
    /// [`repair_masks`] in turn, both repairs through the search's cache.
    repaired: u64,
    /// `(hits, misses, entries)` of that cache after both repairs.
    repair_cache: (u64, u64, u64),
}

/// Pins search → `apply_plan` → `execute`, and search → `repair`, on
/// every pinned model under every variant. A case without a pin fails
/// with the row to add.
#[test]
fn compiled_timelines_are_pinned() {
    let mut missing = Vec::new();
    for (model, g) in pinned_models() {
        for (variant, cfg, opts) in variants() {
            let case = format!("{model}/{variant}");
            let plan = Search::new(&g, &cfg)
                .options(opts)
                .run()
                .expect("zoo models search");
            let cache = CostCache::new();
            let sequential = Search::new(&g, &cfg)
                .options(opts)
                .pool(1)
                .cache(&cache)
                .run()
                .expect("zoo models search");
            assert_eq!(sequential, plan, "{case}: the pool width moved the plan");
            let search_cache = counts(cache.counters());
            for jobs in [1, 2, 4, 8] {
                let pooled = CostCache::new();
                Search::new(&g, &cfg)
                    .options(opts)
                    .pool(jobs)
                    .cache(&pooled)
                    .run()
                    .expect("zoo models search");
                assert_eq!(
                    counts(pooled.counters()),
                    search_cache,
                    "{case}: {jobs} workers moved the cache counters"
                );
            }
            let mut repaired = Fnv::new();
            for mask in repair_masks() {
                let r = plan
                    .repair(&g, &cfg, mask, Some(&cache))
                    .expect("plan repairs");
                repaired.bytes(pimflow_json::to_string(&r).as_bytes());
            }
            let repair_cache = counts(cache.counters());
            let transformed = apply_plan(&g, &plan).expect("plan applies");
            let report = execute(&transformed, &cfg).expect("plan executes");
            let mut plan_hash = Fnv::new();
            plan_hash.bytes(pimflow_json::to_string(&plan).as_bytes());
            let groups: Vec<(usize, usize, u64)> = report
                .fused_groups
                .iter()
                .map(|s| (s.gid, s.members, s.overlap_hidden_us.to_bits()))
                .collect();
            let got = (
                plan_hash.0,
                report.total_us.to_bits(),
                report.energy_uj.to_bits(),
                report.transfer_bytes,
                report.host_to_pim_bytes,
                groups,
                timeline_hash(&report),
                search_cache,
                repaired.0,
                repair_cache,
            );
            let Some(pin) = PINS.iter().find(|p| p.case == case) else {
                missing.push(format!(
                    "    Pin {{ case: {case:?}, plan: {:#018x}, total_us: {:#018x}, \
                     energy_uj: {:#018x}, transfer_bytes: {}, host_to_pim_bytes: {}, \
                     fused_groups: &{:?}, timeline: {:#018x}, search_cache: {:?}, \
                     repaired: {:#018x}, repair_cache: {:?} }},",
                    got.0, got.1, got.2, got.3, got.4, got.5, got.6, got.7, got.8, got.9
                ));
                continue;
            };
            let want = (
                pin.plan,
                pin.total_us,
                pin.energy_uj,
                pin.transfer_bytes,
                pin.host_to_pim_bytes,
                pin.fused_groups.to_vec(),
                pin.timeline,
                pin.search_cache,
                pin.repaired,
                pin.repair_cache,
            );
            assert_eq!(
                got, want,
                "{case}: (plan, total, energy, transfer, host->pim, groups, timeline, \
                 search cache, repaired, repair cache)"
            );
        }
    }
    assert!(
        missing.is_empty(),
        "unpinned cases:\n{}",
        missing.join("\n")
    );
}

/// Recorded before node placement moved from name prefixes to a typed
/// node field, which had to leave every value unchanged; the `pl` rows and
/// the cache and repair columns were recorded before repair and the search
/// came to share one pricing path, which had to leave them unchanged too.
/// The `default` rows of toy, mobilenet-v2, resnet-50 and
/// vgg-16 were re-recorded when fused groups lost their interior GPU/PIM
/// row split: toy and mobilenet-v2 only price fewer group keys, and
/// resnet-50 and vgg-16 run faster without the split groups.
const PINS: &[Pin] = &[
    Pin {
        case: "toy/default",
        plan: 0x83438b9cb658025e,
        total_us: 0x402b92366b14c5c8,
        energy_uj: 0x40890edf4a5f24ed,
        transfer_bytes: 196608,
        host_to_pim_bytes: 71808,
        fused_groups: &[(0, 3, 4562913321205716480)],
        timeline: 0x3bff8f3e3f26f389,
        search_cache: (12, 34, 34),
        repaired: 0x132bba3b17e75006,
        repair_cache: (12, 44, 44),
    },
    Pin {
        case: "toy/unfused",
        plan: 0x02bff4a93f2f22df,
        total_us: 0x402eae63c53d771c,
        energy_uj: 0x408bc65baf1e390a,
        transfer_bytes: 196608,
        host_to_pim_bytes: 98432,
        fused_groups: &[],
        timeline: 0xa04015ebf0ca0314,
        search_cache: (12, 31, 31),
        repaired: 0x6d85a96ead0de734,
        repair_cache: (12, 37, 37),
    },
    Pin {
        case: "toy/pl",
        plan: 0x372f268b424af2af,
        total_us: 0x402b92366b14c5c8,
        energy_uj: 0x40890edf4a5f24ed,
        transfer_bytes: 196608,
        host_to_pim_bytes: 71808,
        fused_groups: &[(0, 3, 4562913321205716480)],
        timeline: 0x3bff8f3e3f26f389,
        search_cache: (1, 9, 9),
        repaired: 0x5f92cd2187f4fa02,
        repair_cache: (1, 19, 19),
    },
    Pin {
        case: "mobilenet-v2/default",
        plan: 0x575a750a5bca3110,
        total_us: 0x4077c5eaac59d3cd,
        energy_uj: 0x40d69e3d1209f5e7,
        transfer_bytes: 6850368,
        host_to_pim_bytes: 4908160,
        fused_groups: &[],
        timeline: 0x750850be42d971ef,
        search_cache: (208, 207, 207),
        repaired: 0x7ec2ff871b6deb54,
        repair_cache: (238, 247, 247),
    },
    Pin {
        case: "mobilenet-v2/unfused",
        plan: 0x575a750a5bca3110,
        total_us: 0x4077c5eaac59d3cd,
        energy_uj: 0x40d69e3d1209f5e7,
        transfer_bytes: 6850368,
        host_to_pim_bytes: 4908160,
        fused_groups: &[],
        timeline: 0x750850be42d971ef,
        search_cache: (208, 201, 201),
        repaired: 0x7ec2ff871b6deb54,
        repair_cache: (238, 241, 241),
    },
    Pin {
        case: "mobilenet-v2/pl",
        plan: 0x8c0544c71133f6d3,
        total_us: 0x4078274d02e4a933,
        energy_uj: 0x40d6e75984d04b14,
        transfer_bytes: 7516992,
        host_to_pim_bytes: 5239680,
        fused_groups: &[(0, 2, 4562913321205719040)],
        timeline: 0x439a8dafc9e0e6d1,
        search_cache: (46, 45, 45),
        repaired: 0x84a297a96d1a5874,
        repair_cache: (76, 87, 87),
    },
    Pin {
        case: "resnet-50/default",
        plan: 0x03151f66dbb78a42,
        total_us: 0x4093ecbd9447cb67,
        energy_uj: 0x40f702ff7bcde7c1,
        transfer_bytes: 14601216,
        host_to_pim_bytes: 13822748,
        fused_groups: &[],
        timeline: 0xa53878ae0eb47e8e,
        search_cache: (355, 225, 225),
        repaired: 0x7ce8b783e62be88e,
        repair_cache: (413, 271, 271),
    },
    Pin {
        case: "resnet-50/unfused",
        plan: 0x03151f66dbb78a42,
        total_us: 0x4093ecbd9447cb67,
        energy_uj: 0x40f702ff7bcde7c1,
        transfer_bytes: 14601216,
        host_to_pim_bytes: 13822748,
        fused_groups: &[],
        timeline: 0xa53878ae0eb47e8e,
        search_cache: (339, 201, 201),
        repaired: 0x7ce8b783e62be88e,
        repair_cache: (397, 247, 247),
    },
    Pin {
        case: "resnet-50/pl",
        plan: 0xded4a83543b29839,
        total_us: 0x409647d3bf5e17ff,
        energy_uj: 0x40f849c2bcbc9fac,
        transfer_bytes: 15454208,
        host_to_pim_bytes: 11594752,
        fused_groups: &[(0, 13, 0)],
        timeline: 0xfa95c12efd927441,
        search_cache: (49, 45, 45),
        repaired: 0xa9b32587d92bdf77,
        repair_cache: (87, 87, 87),
    },
    Pin {
        case: "vgg-16/default",
        plan: 0xc60a7fd2de1a9140,
        total_us: 0x409d0b2c66f87f6f,
        energy_uj: 0x41088f9e787fb8fa,
        transfer_bytes: 6193152,
        host_to_pim_bytes: 6095616,
        fused_groups: &[(0, 5, 0)],
        timeline: 0xc4097fa81ee1f178,
        search_cache: (69, 113, 113),
        repaired: 0x1ffba34af749d6be,
        repair_cache: (77, 137, 137),
    },
    Pin {
        case: "vgg-16/unfused",
        plan: 0x31bff1c61e0dd3bf,
        total_us: 0x409d1e4065052d08,
        energy_uj: 0x4108982ff511d098,
        transfer_bytes: 6209536,
        host_to_pim_bytes: 6112000,
        fused_groups: &[],
        timeline: 0x31b3e7640ee2d7ff,
        search_cache: (69, 91, 91),
        repaired: 0xb33caec4492008f0,
        repair_cache: (77, 113, 113),
    },
    Pin {
        case: "vgg-16/pl",
        plan: 0x0e33e8bc35ad2d4a,
        total_us: 0x40a23f533fdea895,
        energy_uj: 0x410ef4b059ea928f,
        transfer_bytes: 0,
        host_to_pim_bytes: 50176,
        fused_groups: &[(0, 5, 0)],
        timeline: 0xb80d96be8ddda1dc,
        search_cache: (4, 34, 34),
        repaired: 0x462f2b9714907cda,
        repair_cache: (4, 42, 42),
    },
    Pin {
        case: "bert-16/default",
        plan: 0x946b458d110059c3,
        total_us: 0x407f1330dc0382c6,
        energy_uj: 0x40dd588b3a126932,
        transfer_bytes: 1449984,
        host_to_pim_bytes: 614400,
        fused_groups: &[
            (0, 4, 4562913321205727232),
            (1, 4, 4562913321205727232),
            (2, 4, 4562913321205727232),
            (3, 4, 4562913321205727232),
            (4, 4, 4562913321205727232),
            (5, 4, 4562913321205727232),
            (6, 4, 4562913321205727232),
            (7, 4, 4562913321205727232),
            (8, 4, 4562913321205727232),
            (9, 4, 4562913321205727232),
            (10, 4, 4562913321205727232),
            (11, 5, 0),
        ],
        timeline: 0x67fd25a68b99af0b,
        search_cache: (461, 46, 46),
        repaired: 0x40d967cb670152e6,
        repair_cache: (527, 62, 62),
    },
    Pin {
        case: "bert-16/unfused",
        plan: 0x98dd5c87c3e1ca94,
        total_us: 0x4082273ee721a551,
        energy_uj: 0x40e12aca42cb9409,
        transfer_bytes: 2654208,
        host_to_pim_bytes: 2088960,
        fused_groups: &[],
        timeline: 0xb791ac2436f5349a,
        search_cache: (450, 40, 40),
        repaired: 0x510294e566bff90f,
        repair_cache: (540, 48, 48),
    },
    Pin {
        case: "bert-16/pl",
        plan: 0xc9d925645ae95400,
        total_us: 0x407f1330dc0382c6,
        energy_uj: 0x40dd588b3a126932,
        transfer_bytes: 1449984,
        host_to_pim_bytes: 614400,
        fused_groups: &[
            (0, 4, 4562913321205727232),
            (1, 4, 4562913321205727232),
            (2, 4, 4562913321205727232),
            (3, 4, 4562913321205727232),
            (4, 4, 4562913321205727232),
            (5, 4, 4562913321205727232),
            (6, 4, 4562913321205727232),
            (7, 4, 4562913321205727232),
            (8, 4, 4562913321205727232),
            (9, 4, 4562913321205727232),
            (10, 4, 4562913321205727232),
            (11, 5, 0),
        ],
        timeline: 0x67fd25a68b99af0b,
        search_cache: (56, 10, 10),
        repaired: 0x41b230570c6b0e76,
        repair_cache: (122, 26, 26),
    },
];
