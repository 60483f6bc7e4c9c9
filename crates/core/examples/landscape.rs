//! Prints the GPU-vs-PIM latency landscape for representative layer shapes
//! (the raw data behind the paper's §3 preliminary analysis): dense convs
//! favor the GPU, batch-1 FCs favor PIM by an order of magnitude, and
//! pointwise convs sit in the contested zone that MD-DP splitting exploits.
//!
//! ```text
//! cargo run --release -p pimflow --example landscape
//! ```

use pimflow::codegen::*;
use pimflow_gpusim::GpuConfig;
use pimflow_ir::{Conv2dAttrs, Hw, Shape};
use pimflow_isa::FusedRole;
use pimflow_pimsim::{PimConfig, ScheduleGranularity};

fn main() {
    let gpu = GpuConfig::rtx2060_like();
    let npp = PimConfig::newton_plus_plus();
    let np = PimConfig::newton_plus();
    let pim_us = |w: &PimWorkload, cfg: &PimConfig| {
        execute_workload(w, cfg, 16, ScheduleGranularity::Comp, FusedRole::Standalone)
            .0
            .time_us
    };
    let cases: Vec<(&str, Shape, Conv2dAttrs)> = vec![
        (
            "mbv2 pw 112x112x32->16",
            Shape::nhwc(1, 112, 112, 32),
            Conv2dAttrs::pointwise(16),
        ),
        (
            "mbv2 pw 14x14x64->384",
            Shape::nhwc(1, 14, 14, 64),
            Conv2dAttrs::pointwise(384),
        ),
        (
            "mbv2 pw 7x7x960->320",
            Shape::nhwc(1, 7, 7, 960),
            Conv2dAttrs::pointwise(320),
        ),
        (
            "enet pw 7x7x1152->192",
            Shape::nhwc(1, 7, 7, 1152),
            Conv2dAttrs::pointwise(192),
        ),
        (
            "rn50 pw 14x14x256->1024",
            Shape::nhwc(1, 14, 14, 256),
            Conv2dAttrs::pointwise(1024),
        ),
        (
            "rn50 3x3 14x14x256",
            Shape::nhwc(1, 14, 14, 256),
            Conv2dAttrs {
                out_channels: 256,
                kernel: Hw::square(3),
                stride: Hw::square(1),
                padding: Hw::square(1),
                groups: 1,
            },
        ),
        (
            "vgg 3x3 224x224x64",
            Shape::nhwc(1, 224, 224, 64),
            Conv2dAttrs {
                out_channels: 64,
                kernel: Hw::square(3),
                stride: Hw::square(1),
                padding: Hw::square(1),
                groups: 1,
            },
        ),
        (
            "vgg 3x3 28x28x512",
            Shape::nhwc(1, 28, 28, 512),
            Conv2dAttrs {
                out_channels: 512,
                kernel: Hw::square(3),
                stride: Hw::square(1),
                padding: Hw::square(1),
                groups: 1,
            },
        ),
    ];
    println!(
        "{:<28} {:>9} {:>9} {:>9} {:>7}",
        "layer", "GPU us", "PIM++ us", "PIM+ us", "G/P++"
    );
    for (name, shape, attrs) in cases {
        let mut b = pimflow_ir::GraphBuilder::new("t");
        let x = b.input(shape.clone());
        let oc = attrs.out_channels;
        let k = attrs.kernel.h;
        let s = attrs.stride.h;
        let p = attrs.padding.h;
        let y = if attrs.groups > 1 {
            b.dwconv(x, oc, k, s, p)
        } else {
            b.conv(x, oc, k, s, p)
        };
        let g = b.finish(y);
        let id = g
            .node_ids()
            .find(|&i| matches!(g.node(i).op, pimflow_ir::Op::Conv2d(_)))
            .unwrap();
        let tg = pimflow::nodecost::gpu_kernel_us(&g, id, 1.0, &gpu, 16);
        let w = PimWorkload::from_conv(&shape, &attrs);
        let tpp = pim_us(&w, &npp);
        let tp = pim_us(&w, &np);
        println!(
            "{:<28} {:>9.1} {:>9.1} {:>9.1} {:>7.2}",
            name,
            tg,
            tpp,
            tp,
            tg / tpp
        );
    }
    // FC layers
    for (name, k, of) in [
        ("vgg fc6", 25088usize, 4096usize),
        ("vgg fc8", 4096, 1000),
        ("mbv2 fc", 1280, 1000),
    ] {
        let w = PimWorkload::from_dense(1, k, of);
        let tpp = pim_us(&w, &npp);
        let p = pimflow_gpusim::KernelProfile::matvec(of, k, 1);
        let tg = pimflow_gpusim::kernel_time_with_launch_us(&p, &gpu, 32);
        println!(
            "{:<28} {:>9.1} {:>9.1} {:>9} {:>7.2}",
            name,
            tg,
            tpp,
            "-",
            tg / tpp
        );
    }
}
