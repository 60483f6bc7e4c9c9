//! Micro-benchmarks of the DRAM-PIM simulator itself: streamed pricing
//! throughput for representative layer shapes, and the scheduler plus
//! interpreter at each granularity.

use pimflow::codegen::{execute_workload, generate_blocks, PimWorkload};
use pimflow_bench::harness::Group;
use pimflow_ir::{Conv2dAttrs, Shape};
use pimflow_isa::FusedRole::Standalone;
use pimflow_pimsim::ScheduleGranularity::{self, Comp};
use pimflow_pimsim::{schedule, NewtonInterpreter, PimConfig};

fn representative_workloads() -> Vec<(&'static str, PimWorkload)> {
    vec![
        (
            "pw_112x112x32_to_16",
            PimWorkload::from_conv(&Shape::nhwc(1, 112, 112, 32), &Conv2dAttrs::pointwise(16)),
        ),
        (
            "pw_14x14x256_to_1024",
            PimWorkload::from_conv(&Shape::nhwc(1, 14, 14, 256), &Conv2dAttrs::pointwise(1024)),
        ),
        ("fc_25088_to_4096", PimWorkload::from_dense(1, 25088, 4096)),
        ("fc_1280_to_1000", PimWorkload::from_dense(1, 1280, 1000)),
    ]
}

fn bench_trace_execution() {
    let mut g = Group::new("pimsim_trace_execution");
    let cfg = PimConfig::default();
    for (name, w) in representative_workloads() {
        g.bench(name, || execute_workload(&w, &cfg, 16, Comp, Standalone).0);
    }
    g.finish();
}

fn bench_scheduler() {
    let mut g = Group::new("pimsim_scheduler");
    let cfg = PimConfig::default();
    let w = PimWorkload::from_conv(&Shape::nhwc(1, 28, 28, 96), &Conv2dAttrs::pointwise(576));
    let blocks = generate_blocks(&w, &cfg);
    for (name, granularity) in [
        ("gact", ScheduleGranularity::GAct),
        ("readres", ScheduleGranularity::ReadRes),
        ("comp", ScheduleGranularity::Comp),
    ] {
        g.bench(name, || {
            let program = schedule(&blocks, 16, granularity, &cfg);
            NewtonInterpreter::new(&cfg).run(&program).0
        });
    }
    g.finish();
}

fn bench_command_set_variants() {
    let mut g = Group::new("pimsim_command_sets");
    let w = PimWorkload::from_conv(&Shape::nhwc(1, 28, 28, 96), &Conv2dAttrs::pointwise(576));
    for (name, cfg) in [
        ("newton_plus", PimConfig::newton_plus()),
        ("newton_plus_plus", PimConfig::newton_plus_plus()),
    ] {
        g.bench(name, || execute_workload(&w, &cfg, 16, Comp, Standalone).0);
    }
    g.finish();
}

fn main() {
    bench_trace_execution();
    bench_scheduler();
    bench_command_set_variants();
}
