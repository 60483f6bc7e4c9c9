//! PIM-aware graph transformation passes (§4.2.1): the MD-DP split,
//! pipelining and fusion rewrites that `search::apply_plan` applies.

pub mod fusion;
pub mod mddp;
pub mod pipeline;
pub mod split_util;

pub use fusion::{find_fusion_groups, fuse_group, is_fusion_heavy, FusionGroup};
pub use mddp::{split_node, SplitOutcome};
pub use pipeline::{find_chains, pipeline_chain, Chain, PatternKind};
