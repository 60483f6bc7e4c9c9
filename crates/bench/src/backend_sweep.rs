//! Per-layer PIM backend placement: Newton-only vs crossbar-only vs mixed.
//!
//! Each model is searched three times over the same cost cache: once with
//! the historical Newton-only backend set, once forced onto the crossbar
//! compute-in-array model, and once with both available so Algorithm 1
//! picks a backend per layer. Mixed placement searches a superset of either
//! single-backend space, so its predicted time can never be worse — the
//! artifact records where it is strictly better and which backend each
//! offloaded layer landed on.
//!
//! The sweep also pins the ISA refactor's core contract: the Newton
//! *interpretation* of the typed ISA is bit-identical to the pricing the
//! search runs. Newton-only plans are re-searched at several worker-pool
//! widths and must serialize to identical bytes, and every PIM candidate's
//! compiled kernel is round-tripped through the ISA text format and
//! re-interpreted to the same channel statistics — which must also equal
//! the streamed pricer's merged and per-channel statistics.
//! `figures backends` writes the result as `BENCH_backends.json`.

use pimflow::backend::{Backend, DramPimBackend, KernelArtifact};
use pimflow::codegen::{execute_workload, PimWorkload};
use pimflow::costcache::CostCache;
use pimflow::engine::{EngineConfig, PimBackendSet};
use pimflow::search::{Decision, Search, SearchOptions};
use pimflow::{BackendKind, CrossbarConfig};
use pimflow_ir::models;
use pimflow_isa::FusedRole;
use pimflow_json::json_struct;
use pimflow_pimsim::{ChannelStats, NewtonInterpreter, RunOptions};
use pimflow_pool::WorkerPool;

/// One model's predicted time under each backend set.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelBackendRow {
    /// Canonical model name.
    pub model: String,
    /// Nodes in the model graph.
    pub nodes: usize,
    /// Predicted end-to-end time with Newton-only placement, microseconds.
    pub newton_us: f64,
    /// Predicted end-to-end time with crossbar-only placement.
    pub crossbar_us: f64,
    /// Predicted end-to-end time with per-layer backend choice.
    pub mixed_us: f64,
    /// Split and fused-group decisions the mixed search placed on the
    /// Newton engine.
    pub mixed_newton_splits: usize,
    /// Split and fused-group decisions the mixed search placed on the
    /// crossbar.
    pub mixed_crossbar_splits: usize,
    /// Pipeline chains the mixed search kept (Newton-only by construction).
    pub mixed_pipelines: usize,
    /// `mixed_us <= newton_us && mixed_us <= crossbar_us` (must hold: the
    /// mixed search space contains both single-backend spaces).
    pub mixed_beats_or_matches_both: bool,
    /// Newton-only plans at every probed pool width serialized to the same
    /// bytes, and every PIM candidate's compiled ISA program survived the
    /// text round-trip with interpreted statistics identical to the
    /// streamed pricer's.
    pub newton_bit_identical: bool,
}

json_struct!(ModelBackendRow {
    model,
    nodes,
    newton_us,
    crossbar_us,
    mixed_us,
    mixed_newton_splits,
    mixed_crossbar_splits,
    mixed_pipelines,
    mixed_beats_or_matches_both,
    newton_bit_identical,
});

/// The full artifact written to `BENCH_backends.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendReport {
    /// Worker-pool width of the backend-set searches.
    pub jobs: usize,
    /// Hardware threads of the measuring host.
    pub host_threads: usize,
    /// Pool widths the Newton bit-identity check probed.
    pub probed_widths: Vec<usize>,
    /// One entry per model, in input order.
    pub models: Vec<ModelBackendRow>,
    /// Every model passed the Newton bit-identity check — the property CI
    /// asserts (interpreting the ISA artifact and streaming the schedule
    /// price every layer identically).
    pub newton_interpreter_bit_identical: bool,
    /// Mixed placement was no worse than either single-backend placement
    /// on every model.
    pub mixed_no_worse_anywhere: bool,
    /// Models where the mixed search actually used the crossbar.
    pub models_using_crossbar: usize,
}

json_struct!(BackendReport {
    jobs,
    host_threads,
    probed_widths,
    models,
    newton_interpreter_bit_identical,
    mixed_no_worse_anywhere,
    models_using_crossbar,
});

/// Compiles every PIM candidate of `g` to an ISA program, round-trips it
/// through the text encoding, and checks that both copies interpret to
/// the channel statistics the compiler reported and that the streamed
/// pricer the search uses reports the same merged and per-channel
/// statistics. Models without a PIM candidate pass vacuously.
fn kernels_roundtrip(g: &pimflow_ir::Graph) -> bool {
    let be = DramPimBackend::newton_plus_plus();
    g.node_ids().filter(|&id| g.is_pim_candidate(id)).all(|id| {
        let kernel = be.compile(g, id).expect("zoo candidate compiles");
        let KernelArtifact::PimProgram { program, .. } = &kernel.artifact else {
            return false;
        };
        let text = pimflow_isa::program_to_text(program);
        let back = pimflow_isa::parse_program(&text).expect("emitted program parses");
        let mut interpreted = Vec::new();
        let mut collect = |_: usize, s: &ChannelStats| interpreted.push(*s);
        let direct = NewtonInterpreter::new(&be.pim)
            .run(program, RunOptions::new().on_channel(&mut collect));
        let replayed = NewtonInterpreter::new(&be.pim).run(&back, RunOptions::new());
        let (priced, priced_channels) = execute_workload(
            &PimWorkload::from_node(g, id),
            &be.pim,
            be.channels,
            be.granularity,
            FusedRole::Standalone,
        );
        direct == replayed
            && kernel.pim_stats == Some(direct)
            && priced.stats == direct
            && priced_channels == interpreted
    })
}

/// Searches every named model under the three backend sets and runs the
/// Newton bit-identity probes at the given pool widths.
///
/// # Panics
///
/// Panics on an unknown model name.
pub fn sweep(model_names: &[&str], widths: &[usize], jobs: usize) -> BackendReport {
    let opts = SearchOptions::default();
    let xbar = CrossbarConfig::pimcomp_like();
    let newton_cfg = EngineConfig::pimflow();
    let crossbar_cfg = EngineConfig {
        pim_backends: PimBackendSet::CrossbarOnly(xbar),
        ..EngineConfig::pimflow()
    };
    let mixed_cfg = EngineConfig {
        pim_backends: PimBackendSet::Mixed(xbar),
        ..EngineConfig::pimflow()
    };
    let rows: Vec<ModelBackendRow> = model_names
        .iter()
        .map(|name| {
            let g = models::by_name(name).expect("known model");
            // One cache across every run of this model: backend-tagged keys
            // keep Newton and crossbar entries apart, and cache hits cannot
            // change plans (pure costs), so the identity probes stay valid.
            let cache = CostCache::new();
            let search = |cfg: &EngineConfig, pool: usize| {
                Search::new(&g, cfg)
                    .options(opts)
                    .pool(pool)
                    .cache(&cache)
                    .run()
                    .expect("zoo models search")
            };
            let newton_plans: Vec<String> = widths
                .iter()
                .map(|&w| pimflow_json::to_string(&search(&newton_cfg, w)))
                .collect();
            let width_identical = newton_plans.windows(2).all(|p| p[0] == p[1]);
            let newton_plan = search(&newton_cfg, jobs);
            let crossbar_plan = search(&crossbar_cfg, jobs);
            let mixed_plan = search(&mixed_cfg, jobs);
            let (mut newton_splits, mut crossbar_splits, mut pipelines) = (0, 0, 0);
            for (_, d) in &mixed_plan.decisions {
                match d {
                    Decision::Split {
                        gpu_percent,
                        backend,
                    } if *gpu_percent < 100 => match backend {
                        BackendKind::Newton => newton_splits += 1,
                        BackendKind::Crossbar => crossbar_splits += 1,
                    },
                    // A fused group commits all its layers to one backend.
                    Decision::Fused { backend, .. } => match backend {
                        BackendKind::Newton => newton_splits += 1,
                        BackendKind::Crossbar => crossbar_splits += 1,
                    },
                    Decision::Pipeline { .. } => pipelines += 1,
                    _ => {}
                }
            }
            ModelBackendRow {
                model: g.name.clone(),
                nodes: g.node_ids().count(),
                newton_us: newton_plan.predicted_us,
                crossbar_us: crossbar_plan.predicted_us,
                mixed_us: mixed_plan.predicted_us,
                mixed_newton_splits: newton_splits,
                mixed_crossbar_splits: crossbar_splits,
                mixed_pipelines: pipelines,
                mixed_beats_or_matches_both: mixed_plan.predicted_us <= newton_plan.predicted_us
                    && mixed_plan.predicted_us <= crossbar_plan.predicted_us,
                newton_bit_identical: width_identical
                    && pimflow_json::to_string(&newton_plan) == newton_plans[0]
                    && kernels_roundtrip(&g),
            }
        })
        .collect();
    BackendReport {
        jobs,
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        probed_widths: widths.to_vec(),
        newton_interpreter_bit_identical: rows.iter().all(|r| r.newton_bit_identical),
        mixed_no_worse_anywhere: rows.iter().all(|r| r.mixed_beats_or_matches_both),
        models_using_crossbar: rows.iter().filter(|r| r.mixed_crossbar_splits > 0).count(),
        models: rows,
    }
}

/// Models of the full sweep: the five evaluated CNNs of the paper's zoo.
pub const DEFAULT_MODELS: [&str; 5] = [
    "efficientnet-v1-b0",
    "mnasnet-1.0",
    "mobilenet-v2",
    "resnet-50",
    "vgg-16",
];

/// Runs the sweep at the `PIMFLOW_JOBS` pool width and writes
/// `BENCH_backends.json` under `dir`. `smoke` restricts the sweep to the
/// small models and two pool widths (CI-sized); the committed artifact
/// uses the full set at widths 1/2/8. Returns the report and the path
/// written.
///
/// # Errors
///
/// Returns a rendered error when the write fails, the Newton bit-identity
/// contract breaks, or mixed placement loses to a single-backend plan
/// anywhere.
pub fn write_bench_artifact(
    dir: &std::path::Path,
    smoke: bool,
) -> Result<(BackendReport, std::path::PathBuf), String> {
    let jobs = WorkerPool::from_env().jobs();
    let report = if smoke {
        sweep(&["toy", "mobilenet-v2"], &[1, 2], jobs)
    } else {
        sweep(&DEFAULT_MODELS, &[1, 2, 8], jobs)
    };
    if let Some(bad) = report.models.iter().find(|m| !m.newton_bit_identical) {
        return Err(format!(
            "Newton-via-ISA timing diverged from the streamed pricer on {}",
            bad.model
        ));
    }
    if let Some(bad) = report
        .models
        .iter()
        .find(|m| !m.mixed_beats_or_matches_both)
    {
        return Err(format!(
            "mixed backend search lost to a single-backend plan on {}",
            bad.model
        ));
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("BENCH_backends.json");
    std::fs::write(&path, pimflow_json::to_string_pretty(&report))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok((report, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_sweep_holds_both_invariants() {
        let report = sweep(&["toy"], &[1, 2], 2);
        assert_eq!(report.models.len(), 1);
        let m = &report.models[0];
        assert!(m.newton_bit_identical, "ISA interpreter changed timing");
        assert!(
            m.mixed_beats_or_matches_both,
            "mixed {} vs newton {} / crossbar {}",
            m.mixed_us, m.newton_us, m.crossbar_us
        );
        assert!(m.newton_us > 0.0 && m.crossbar_us > 0.0 && m.mixed_us > 0.0);
        let json = pimflow_json::to_string(&report);
        let back: BackendReport = pimflow_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn crossbar_wins_deep_reductions_somewhere_on_vgg() {
        // vgg-16 carries the zoo's largest FC layers (25088-deep
        // reductions) — exactly the weight-stationary sweet spot. The mixed
        // search must route at least one layer to the crossbar there and
        // end strictly no worse than Newton-only.
        let report = sweep(&["vgg-16"], &[1], 2);
        let m = &report.models[0];
        assert!(
            m.mixed_crossbar_splits > 0,
            "mixed search never used the crossbar on vgg-16"
        );
        assert!(m.mixed_us <= m.newton_us);
    }
}
