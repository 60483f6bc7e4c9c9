//! Device placement of graph nodes.
//!
//! The original artifact "marks PIM-offloaded nodes by prefixing the node
//! names and passing them as Relay IR attribute to trigger the DRAM
//! back-end" (§4.3.1). We deviate from that convention: placement is a
//! typed field on every node, [`pimflow_ir::Node::placement`], which the
//! transformation passes write and the engine and back-ends read. Two
//! reasons: a name protocol makes every reader re-parse strings, and it
//! collides with the model's own names — a node that happened to be
//! called `pim::x` would run on PIM without any plan. Node names are
//! labels only; [`NodePlacement`] also makes a fused GPU node
//! unrepresentable.
//!
//! The types live in `pimflow-ir` so the graph can carry them; this
//! module re-exports them and adds the mapping onto the typed ISA.

pub use pimflow_ir::{FusedNodeRole, FusionTag, NodePlacement, Placement};
use pimflow_isa::FusedRole;

/// The typed-ISA lowering role of a fusion-group member. Riders have no
/// program of their own, so they map to the identity lowering.
pub fn isa_role(role: FusedNodeRole) -> FusedRole {
    match role {
        FusedNodeRole::Head => FusedRole::Head,
        FusedNodeRole::Middle => FusedRole::Middle,
        FusedNodeRole::Tail => FusedRole::Tail,
        FusedNodeRole::Rider => FusedRole::Standalone,
    }
}
