//! Numerical equivalence of a transformed graph and its original.
//!
//! Every PIM-aware transformation must compute the same function as the
//! graph it rewrote (§4.2.1). [`verify_equivalence`] runs both graphs on
//! the `pimflow-kernels` reference executor with identical seeded inputs
//! and reports how closely their outputs agree.

use pimflow_ir::Graph;
use pimflow_kernels::{input_tensors, run_graph_with, ExecOptions, ExecStats};

/// Numerical comparison of two graphs that are supposed to compute the
/// same function, produced by [`verify_equivalence`].
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceReport {
    /// Number of outputs compared.
    pub outputs: usize,
    /// Largest absolute element-wise difference across all outputs.
    pub max_abs_diff: f32,
    /// Executor counters from the original graph's run.
    pub original_stats: ExecStats,
    /// Executor counters from the transformed graph's run.
    pub transformed_stats: ExecStats,
}

impl EquivalenceReport {
    /// True if every output element agrees within `tol`.
    pub fn within(&self, tol: f32) -> bool {
        self.max_abs_diff <= tol
    }
}

/// Runs `original` and `transformed` on identical seeded inputs (at worker
/// width `jobs`) and reports how closely their outputs agree. The caller
/// decides the tolerance — bitwise equality is `max_abs_diff == 0.0`.
///
/// # Errors
///
/// Returns [`crate::Error::Execution`] if either graph fails to run or the
/// two graphs disagree on output arity or shapes.
pub fn verify_equivalence(
    original: &Graph,
    transformed: &Graph,
    seed: u64,
    jobs: Option<usize>,
) -> crate::Result<EquivalenceReport> {
    let inputs = input_tensors(original, seed);
    let opts = ExecOptions {
        jobs,
        ..ExecOptions::default()
    };
    let run = |g: &Graph| {
        run_graph_with(g, &inputs, &opts).map_err(|e| crate::Error::Execution(e.to_string()))
    };
    let a = run(original)?;
    let b = run(transformed)?;
    if a.outputs.len() != b.outputs.len() {
        return Err(crate::Error::Execution(format!(
            "output arity differs: {} vs {}",
            a.outputs.len(),
            b.outputs.len()
        )));
    }
    let mut max_abs_diff = 0.0f32;
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        if x.shape() != y.shape() {
            return Err(crate::Error::Execution(format!(
                "output shapes differ: {} vs {}",
                x.shape(),
                y.shape()
            )));
        }
        max_abs_diff = max_abs_diff.max(x.max_abs_diff(y));
    }
    Ok(EquivalenceReport {
        outputs: a.outputs.len(),
        max_abs_diff,
        original_stats: a.stats,
        transformed_stats: b.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimflow_ir::models;

    #[test]
    fn verify_equivalence_on_identical_graphs_is_bitwise() {
        let g = models::toy();
        let r = verify_equivalence(&g, &g, 7, Some(2)).unwrap();
        assert_eq!(r.max_abs_diff, 0.0);
        assert!(r.within(0.0));
        assert_eq!(r.outputs, 1);
        assert_eq!(r.original_stats, r.transformed_stats);
    }

    #[test]
    fn verify_equivalence_rejects_different_arity() {
        use pimflow_ir::{ActivationKind, GraphBuilder, Shape};
        let g = models::toy();
        // A graph with the same input shape but different output shape.
        let mut b = GraphBuilder::new("other");
        let x = b.input(Shape::nhwc(1, 32, 32, 3));
        let y = b.conv_act(x, 4, 3, 1, 1, ActivationKind::Relu);
        let other = b.finish(y);
        let err = verify_equivalence(&g, &other, 7, Some(1));
        assert!(matches!(err, Err(crate::Error::Execution(_))));
    }
}
