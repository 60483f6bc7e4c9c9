//! Seeded random-graph generators shared by the integration tests.

use pimflow_ir::{ActivationKind, Graph, GraphBuilder, Shape};
use pimflow_rng::Rng;

/// A random-but-valid linear CNN biased toward fusable producer→consumer
/// runs: conv/dense chains with element-wise riders between them.
pub fn random_chain_graph(seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(format!("fusion-random-{seed}"));
    let c0 = 2 + rng.range_usize(0, 4);
    let hw = 8 + 2 * rng.range_usize(0, 3);
    let x = b.input(Shape::nhwc(1, hw, hw, c0));
    let mut y = x;
    let mut channels = c0;
    for _ in 0..3 + rng.range_usize(0, 4) {
        match rng.range_usize(0, 4) {
            0 => {
                let oc = 2 + rng.range_usize(0, 6);
                let k = [1, 3][rng.range_usize(0, 2)];
                y = b.conv(y, oc, k, 1, k / 2);
                channels = oc;
            }
            1 => {
                let oc = 2 + rng.range_usize(0, 6);
                y = b.conv_act(y, oc, 1, 1, 0, ActivationKind::Relu);
                channels = oc;
            }
            2 => y = b.relu(y),
            _ => y = b.bn(y),
        }
    }
    let y = b.conv1x1(y, channels.max(2));
    let y = b.gap(y);
    let y = b.flatten(y);
    let y = b.dense(y, 4);
    b.finish(y)
}

/// A random-but-valid residual CNN: towers of stride-1 "same"-padded convs
/// with element-wise riders, each closed by an `Add` rejoining an identity
/// (or 1x1-projected) skip. This is the fan-out/rejoin shape the
/// residual-aware group walker extends across.
pub fn random_residual_graph(seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(format!("fusion-residual-{seed}"));
    let hw = 8 + 2 * rng.range_usize(0, 3);
    let mut channels = 2 + rng.range_usize(0, 4);
    let x = b.input(Shape::nhwc(1, hw, hw, channels));
    let mut y = x;
    for _ in 0..2 + rng.range_usize(0, 2) {
        let skip = y;
        let skip_channels = channels;
        // Bottleneck body: 1x1 squeeze, random riders, 3x3 "same" conv.
        let mid = 2 + rng.range_usize(0, 6);
        y = b.conv_act(y, mid, 1, 1, 0, ActivationKind::Relu);
        for _ in 0..rng.range_usize(0, 3) {
            match rng.range_usize(0, 3) {
                0 => y = b.relu(y),
                1 => y = b.bn(y),
                _ => y = b.conv(y, mid, 3, 1, 1),
            }
        }
        // Half the towers keep identity skips (the walker's rejoin shape);
        // the rest change channels and project the skip through a 1x1.
        channels = if rng.range_usize(0, 2) == 0 {
            skip_channels
        } else {
            2 + rng.range_usize(0, 6)
        };
        y = b.conv(y, channels, 3, 1, 1);
        let skip = if channels == skip_channels {
            skip
        } else {
            b.conv1x1(skip, channels)
        };
        y = b.add(y, skip);
        if rng.range_usize(0, 2) == 0 {
            y = b.relu(y);
        }
    }
    let y = b.conv1x1(y, channels.max(2));
    let y = b.gap(y);
    let y = b.flatten(y);
    let y = b.dense(y, 4);
    b.finish(y)
}
