//! # pimflow-kernels
//!
//! Reference NHWC f32 executor for [`pimflow_ir`] graphs.
//!
//! This crate is the **numerical oracle** of the PIMFlow reproduction. The
//! original artifact relies on cuDNN/cuBLAS for GPU execution; here, plain
//! loop-nest kernels serve the one purpose the reproduction needs numerics
//! for: proving that the PIM-aware graph transformations (MD-DP split,
//! pipelining, memory-layout optimization) preserve model semantics exactly.
//!
//! It also provides the convolution-lowering (im2col) machinery whose
//! dimensions the DRAM-PIM code generator consumes (§2.2 of the paper).
//!
//! ## Example
//!
//! ```
//! use pimflow_ir::models;
//! use pimflow_kernels::{input_tensors, run_graph};
//!
//! let g = models::toy();
//! let out = run_graph(&g, &input_tensors(&g, 42)).unwrap();
//! assert_eq!(out[0].shape().c(), 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod executor;
pub mod im2col;
pub mod microkernel;
pub mod ops;
pub mod params;
pub mod probe;
pub mod schedule;
pub mod store;
pub mod tensor;
pub mod tolerance;

pub use executor::{
    input_tensors, run_graph, run_graph_with, ExecError, ExecOptions, ExecOutput, ExecStats,
};
pub use im2col::{gemm, im2col, im2col_rows, lowered_dims, KernelError, LoweredConv};
pub use microkernel::{pack_b, Epilogue, GemmPath, PackedB};
pub use params::{param_cols, param_cols_packed, param_vec, ParamRole};
pub use schedule::{Arena, ExecPlan};
pub use store::{weight_store_counters, WeightStore, WeightStoreCounters, WEIGHT_STORE_BUDGET};
pub use tensor::Tensor;
pub use tolerance::{ulp_distance, Tolerance, ToleranceError, ToleranceReport};
