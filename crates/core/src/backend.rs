//! Compilation back-ends behind a BYOC-style trait boundary.
//!
//! The original PIMFlow extends TVM through the Bring-Your-Own-Codegen
//! (BYOC) interface (§5): GPU-resident nodes compile to cuDNN/cuBLAS/CUTLASS
//! calls while PIM-placed nodes route to the DRAM-PIM code generator.
//! This module reproduces that boundary as a Rust trait: a [`Backend`]
//! decides which nodes it supports and compiles each into a
//! [`CompiledKernel`] carrying the executable artifact and its simulated
//! cost. The one implementation, [`DramPimBackend`], emits typed
//! `pimflow-isa` programs that the Newton interpreter (cycle-level
//! DRAM-PIM) prices and that round-trip through the ISA text format for
//! inspection and replay. GPU-resident nodes need no artifact here:
//! [`crate::nodecost`] prices them for the engine and the search alike.
//! The trait stays the seam for a further backend, which needs an engine
//! execution path before the search may price it.

use crate::codegen::{generate_program, PimWorkload};
use pimflow_gpusim::KernelProfile;
use pimflow_ir::{Graph, NodeId};
use pimflow_isa::IsaProgram;
use pimflow_pimsim::{ChannelStats, NewtonInterpreter, PimConfig, ScheduleGranularity};
use std::error::Error;
use std::fmt;

/// Errors produced while compiling a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The backend does not support this operator.
    Unsupported {
        /// Backend name.
        backend: String,
        /// Offending node name.
        node: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Unsupported { backend, node } => {
                write!(f, "backend `{backend}` does not support node `{node}`")
            }
        }
    }
}

impl Error for BackendError {}

/// The executable artifact a backend produced for one node.
#[derive(Debug, Clone)]
pub enum KernelArtifact {
    /// A GPU kernel call (cuDNN/cuBLAS/CUTLASS analogue): the workload
    /// profile the launch will execute.
    GpuKernel(KernelProfile),
    /// A typed PIM ISA program: the per-channel instruction streams the
    /// Newton interpreter prices and the engine executes.
    PimProgram(IsaProgram),
}

/// A compiled node: artifact plus simulated cost.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Name of the compiled node.
    pub node: String,
    /// Which backend produced it.
    pub backend: &'static str,
    /// The executable artifact.
    pub artifact: KernelArtifact,
    /// Simulated execution time, microseconds.
    pub time_us: f64,
    /// PIM channel statistics, when the artifact is a PIM trace.
    pub pim_stats: Option<ChannelStats>,
}

/// A compilation back-end (the BYOC boundary).
///
/// Implementations decide per node whether they can take it
/// ([`Backend::supports`]) and lower supported nodes into executable
/// kernels ([`Backend::compile`]).
pub trait Backend {
    /// Stable backend name (used in diagnostics and artifacts).
    fn name(&self) -> &'static str;

    /// True if this backend can execute node `id` of `graph`.
    fn supports(&self, graph: &Graph, id: NodeId) -> bool;

    /// Compiles node `id` into an executable kernel.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Unsupported`] when [`Backend::supports`] is
    /// false for the node.
    fn compile(&self, graph: &Graph, id: NodeId) -> Result<CompiledKernel, BackendError>;
}

/// The DRAM-PIM back-end: CONV (except depthwise) and FC layers lower to
/// ISA programs over the PIM-enabled channels (§4.3), scheduled at COMP
/// granularity.
#[derive(Debug, Clone)]
pub struct DramPimBackend {
    /// PIM hardware configuration.
    pub pim: PimConfig,
    /// Number of PIM-enabled channels.
    pub channels: usize,
}

impl DramPimBackend {
    /// The evaluation configuration: Newton++ on 16 channels.
    pub fn newton_plus_plus() -> Self {
        DramPimBackend {
            pim: PimConfig::newton_plus_plus(),
            channels: 16,
        }
    }
}

impl Backend for DramPimBackend {
    fn name(&self) -> &'static str {
        "dram-pim"
    }

    fn supports(&self, graph: &Graph, id: NodeId) -> bool {
        self.channels > 0 && graph.is_pim_candidate(id)
    }

    fn compile(&self, graph: &Graph, id: NodeId) -> Result<CompiledKernel, BackendError> {
        if !self.supports(graph, id) {
            return Err(BackendError::Unsupported {
                backend: self.name().into(),
                node: graph.node(id).name.clone(),
            });
        }
        let workload = PimWorkload::from_node(graph, id);
        let program = generate_program(
            &workload,
            &self.pim,
            self.channels,
            ScheduleGranularity::Comp,
        );
        let (stats, _) = NewtonInterpreter::new(&self.pim).run(&program);
        Ok(CompiledKernel {
            node: graph.node(id).name.clone(),
            backend: self.name(),
            time_us: self.pim.cycles_to_ns(stats.cycles) * 1e-3,
            artifact: KernelArtifact::PimProgram(program),
            pim_stats: Some(stats),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimflow_ir::models;

    #[test]
    fn pim_backend_supports_candidates_only() {
        let g = models::toy();
        let be = DramPimBackend::newton_plus_plus();
        let conv = g.find_node("conv_3").unwrap();
        let dw = g.find_node("dwconv_5").unwrap();
        let relu = g.find_node("relu_2").unwrap();
        assert!(be.supports(&g, conv));
        assert!(!be.supports(&g, dw), "depthwise is not PIM-offloadable");
        assert!(!be.supports(&g, relu));
        assert!(matches!(
            be.compile(&g, relu),
            Err(BackendError::Unsupported { .. })
        ));
    }

    #[test]
    fn pim_compile_produces_replayable_program() {
        let g = models::toy();
        let be = DramPimBackend::newton_plus_plus();
        let conv = g.find_node("conv_3").unwrap();
        let kernel = be.compile(&g, conv).unwrap();
        let KernelArtifact::PimProgram(program) = &kernel.artifact else {
            panic!("PIM backend must emit an ISA program");
        };
        assert_eq!(program.num_channels(), 16);
        // Interpreting the program reproduces the compiled cost exactly.
        let (stats, _) = NewtonInterpreter::new(&be.pim).run(program);
        assert_eq!(Some(stats), kernel.pim_stats);
        assert!(kernel.time_us > 0.0);
        // And it survives the ISA text round-trip, timing included.
        let text = pimflow_isa::program_to_text(program);
        let back = pimflow_isa::parse_program(&text).unwrap();
        assert_eq!(&back, program);
        let (replayed, _) = NewtonInterpreter::new(&be.pim).run(&back);
        assert_eq!(replayed, stats);
    }
}
