//! # pimflow-ir
//!
//! Graph intermediate representation for the PIMFlow reproduction: tensor
//! shapes, an ONNX-like operator set, a mutable DAG with shape inference,
//! static cost/intensity analyses (Fig. 1, §3), and a model zoo with every
//! network evaluated in the paper.
//!
//! This crate stands in for the ONNX + Torchvision layer of the original
//! PIMFlow artifact: the compiler passes in the [`pimflow`] crate consume
//! and transform these graphs.
//!
//! [`pimflow`]: https://docs.rs/pimflow
//!
//! ## Example
//!
//! ```
//! use pimflow_ir::{models, analysis};
//!
//! let g = models::mobilenet_v2();
//! let profile = analysis::profile_model(&g);
//! // 1x1 convolutions dominate the MAC count of mobile CNNs (Fig. 1).
//! assert!(profile.mac_share(analysis::LayerClass::PointwiseConv) > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod builder;
pub mod export;
pub mod graph;
pub mod models;
pub mod ops;
pub mod placement;
pub mod shape_infer;
pub mod tensor;

pub use builder::GraphBuilder;
pub use graph::{Graph, GraphError, Node, NodeId, ParamView, Value, ValueId};
pub use ops::{
    ActivationKind, ConcatAttrs, Conv2dAttrs, DenseAttrs, Hw, Op, PadAttrs, PoolAttrs, PoolKind,
    SliceAttrs,
};
pub use placement::{FusedNodeRole, FusionTag, NodePlacement, Placement};
pub use shape_infer::{infer_shapes, infer_shapes_from};
pub use tensor::{DataType, Shape, TensorDesc};
