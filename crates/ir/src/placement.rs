//! Typed device placement of graph nodes.
//!
//! Every [`Node`](crate::Node) carries a [`NodePlacement`]: the device it
//! executes on and, for members of a fusion group, the group id and the
//! member's role. The transformation passes write it; the execution
//! engine, the code-generation back-ends and the DOT export read it.
//! Node names are labels only and carry no placement.

use pimflow_json::{json_struct, json_unit_enum, FromJson, Json, JsonError, ToJson};
use std::fmt;

/// Which device a node executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Runs on the GPU streaming multiprocessors.
    Gpu,
    /// Runs on the PIM-enabled memory channels.
    Pim,
}

json_unit_enum!(Placement { Gpu, Pim });

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Placement::Gpu => f.write_str("GPU"),
            Placement::Pim => f.write_str("PIM"),
        }
    }
}

/// Role of a node inside a fusion group.
///
/// Heavy members (the convolutions and FC layers of the group) are the
/// head, the tail, or a middle member between them; riders are the
/// element-wise nodes between heavy members, applied near the banks
/// during the hand-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusedNodeRole {
    /// First heavy member.
    Head,
    /// Interior heavy member.
    Middle,
    /// Last heavy member.
    Tail,
    /// Element-wise rider between heavy members.
    Rider,
}

json_unit_enum!(FusedNodeRole {
    Head,
    Middle,
    Tail,
    Rider
});

/// Membership of a fusion group: the group id and the member's role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FusionTag {
    /// Group id, unique within the graph.
    pub gid: usize,
    /// The member's role in the group.
    pub role: FusedNodeRole,
}

json_struct!(FusionTag { gid, role });

/// Where a node runs. A fusion group executes on PIM, so a fused node is
/// PIM-placed by construction: a fused GPU node cannot be expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodePlacement {
    /// On the GPU (every node starts here).
    Gpu,
    /// On PIM, alone.
    Pim,
    /// On PIM, as a member of a fusion group.
    Fused(FusionTag),
}

impl NodePlacement {
    /// The device the node executes on.
    pub fn device(self) -> Placement {
        match self {
            NodePlacement::Gpu => Placement::Gpu,
            NodePlacement::Pim | NodePlacement::Fused(_) => Placement::Pim,
        }
    }

    /// The node's fusion-group membership, if any.
    pub fn fusion(self) -> Option<FusionTag> {
        match self {
            NodePlacement::Fused(tag) => Some(tag),
            _ => None,
        }
    }
}

impl From<Placement> for NodePlacement {
    fn from(device: Placement) -> Self {
        match device {
            Placement::Gpu => NodePlacement::Gpu,
            Placement::Pim => NodePlacement::Pim,
        }
    }
}

// `Fused` carries a payload, so the unit-enum macro does not apply; the
// impls keep the externally-tagged shape `Op` uses.
impl ToJson for NodePlacement {
    fn to_json(&self) -> Json {
        match self {
            NodePlacement::Gpu => Json::Str("Gpu".into()),
            NodePlacement::Pim => Json::Str("Pim".into()),
            NodePlacement::Fused(tag) => Json::obj(vec![("Fused", tag.to_json())]),
        }
    }
}

impl FromJson for NodePlacement {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Str(s) if s == "Gpu" => Ok(NodePlacement::Gpu),
            Json::Str(s) if s == "Pim" => Ok(NodePlacement::Pim),
            Json::Obj(fields) if fields.len() == 1 && fields[0].0 == "Fused" => {
                FusionTag::from_json(&fields[0].1).map(NodePlacement::Fused)
            }
            other => Err(JsonError::msg(format!(
                "expected NodePlacement `Gpu`, `Pim` or `{{\"Fused\": ..}}`, got {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_nodes_are_pim_placed() {
        for role in [
            FusedNodeRole::Head,
            FusedNodeRole::Middle,
            FusedNodeRole::Tail,
            FusedNodeRole::Rider,
        ] {
            let tag = FusionTag { gid: 3, role };
            assert_eq!(NodePlacement::Fused(tag).device(), Placement::Pim);
            assert_eq!(NodePlacement::Fused(tag).fusion(), Some(tag));
        }
        assert_eq!(NodePlacement::Gpu.device(), Placement::Gpu);
        assert_eq!(NodePlacement::from(Placement::Pim).fusion(), None);
    }

    #[test]
    fn json_shape_is_externally_tagged_and_strict() {
        let tail = NodePlacement::Fused(FusionTag {
            gid: 2,
            role: FusedNodeRole::Tail,
        });
        let text = pimflow_json::to_string(&tail);
        assert_eq!(text, r#"{"Fused":{"gid":2,"role":"Tail"}}"#);
        assert_eq!(
            pimflow_json::from_str::<NodePlacement>(&text).unwrap(),
            tail
        );
        for bad in [
            r#""Cpu""#,
            r#"{"Pim":{}}"#,
            r#"{"Fused":{"gid":1,"role":"Lead"}}"#,
        ] {
            assert!(
                pimflow_json::from_str::<NodePlacement>(bad).is_err(),
                "{bad}"
            );
        }
    }
}
