//! Cross-crate integration: the compile-and-run path is pinned.
//!
//! For a fixed graph and configuration, `search` → `apply_plan` →
//! `execute` under [`EngineConfig::pimflow`] must produce the same plan
//! bytes and the same simulated timeline. This test pins both on five
//! zoo models under three search variants, so a refactor of how the
//! passes record placement, or of how the engine reads it, cannot move a
//! number unseen. Node names are left out of the timeline hash: they are
//! labels, not data.

use pimflow::engine::{execute, EngineConfig, ExecutionReport, PimBackendSet};
use pimflow::search::{apply_plan, search, SearchOptions};
use pimflow_ir::{infer_shapes, models, Graph};
use pimflow_isa::CrossbarConfig;

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
            "mixed",
            EngineConfig {
                pim_backends: PimBackendSet::Mixed(CrossbarConfig::pimcomp_like()),
                ..EngineConfig::pimflow()
            },
            SearchOptions::default(),
        ),
    ]
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
}

/// Pins search → `apply_plan` → `execute` on every pinned model under
/// every variant. A case without a pin fails with the row to add.
#[test]
fn compiled_timelines_are_pinned() {
    let mut missing = Vec::new();
    for (model, g) in pinned_models() {
        for (variant, cfg, opts) in variants() {
            let case = format!("{model}/{variant}");
            let plan = search(&g, &cfg, &opts).expect("zoo models search");
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
            );
            let Some(pin) = PINS.iter().find(|p| p.case == case) else {
                missing.push(format!(
                    "    Pin {{ case: {case:?}, plan: {:#018x}, total_us: {:#018x}, \
                     energy_uj: {:#018x}, transfer_bytes: {}, host_to_pim_bytes: {}, \
                     fused_groups: &{:?}, timeline: {:#018x} }},",
                    got.0, got.1, got.2, got.3, got.4, got.5, got.6
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
            );
            assert_eq!(
                got, want,
                "{case}: (plan, total, energy, transfer, host->pim, groups, timeline)"
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
/// node field, which had to leave every value unchanged.
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
    },
    Pin {
        case: "toy/mixed",
        plan: 0x83438b9cb658025e,
        total_us: 0x402b92366b14c5c8,
        energy_uj: 0x40890edf4a5f24ed,
        transfer_bytes: 196608,
        host_to_pim_bytes: 71808,
        fused_groups: &[(0, 3, 4562913321205716480)],
        timeline: 0x3bff8f3e3f26f389,
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
    },
    Pin {
        case: "mobilenet-v2/mixed",
        plan: 0xd8974ff6e151446b,
        total_us: 0x4077c5eaac59d3cd,
        energy_uj: 0x40d69e3d1209f5e7,
        transfer_bytes: 6850368,
        host_to_pim_bytes: 4908160,
        fused_groups: &[],
        timeline: 0x750850be42d971ef,
    },
    Pin {
        case: "resnet-50/default",
        plan: 0x510457c77b2589dd,
        total_us: 0x40952ad17706dc33,
        energy_uj: 0x40f82c5b6a0c6c34,
        transfer_bytes: 12092416,
        host_to_pim_bytes: 11573532,
        fused_groups: &[(0, 13, 0), (1, 20, 0), (2, 34, 0)],
        timeline: 0x4fe60a5dbfb84c31,
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
    },
    Pin {
        case: "resnet-50/mixed",
        plan: 0xf4d59baad3ef8c57,
        total_us: 0x409602b0ecd34fe3,
        energy_uj: 0x40f8268501df26b8,
        transfer_bytes: 12164096,
        host_to_pim_bytes: 11811100,
        fused_groups: &[
            (0, 13, 0),
            (1, 20, 0),
            (2, 34, 0),
            (3, 13, 4628254922299327792),
        ],
        timeline: 0x168f15f03531306e,
    },
    Pin {
        case: "vgg-16/default",
        plan: 0xdb1dcf5234a48dab,
        total_us: 0x409dd56221158d5a,
        energy_uj: 0x410928e0af6af3c4,
        transfer_bytes: 5390336,
        host_to_pim_bytes: 3580548,
        fused_groups: &[(0, 3, 0), (1, 5, 0), (2, 5, 0)],
        timeline: 0x72101053dd1657e6,
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
    },
    Pin {
        case: "vgg-16/mixed",
        plan: 0x68f7ffc3c3d149c2,
        total_us: 0x40a275dbc5fc16f1,
        energy_uj: 0x410b2e38791e8fa0,
        transfer_bytes: 5519360,
        host_to_pim_bytes: 3573380,
        fused_groups: &[(0, 3, 0), (1, 5, 0), (2, 5, 0), (3, 5, 0)],
        timeline: 0x186e7eb85e97582b,
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
    },
    Pin {
        case: "bert-16/mixed",
        plan: 0x72a6a609723e7901,
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
    },
];
