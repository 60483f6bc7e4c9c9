//! Unified error type for the fallible `pimflow` public API.
//!
//! Every entry point that can fail on a malformed-but-constructible input —
//! a cyclic graph, an out-of-range split ratio, a plan naming nodes the
//! graph does not have — returns [`Result`] instead of panicking. The
//! transformation passes return the same [`Error`], so pass-level code and
//! engine/search-level code share one error surface.

use pimflow_ir::GraphError;
use pimflow_pimsim::ConfigError;
use std::fmt;

/// Why a `pimflow` operation could not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A transformation's preconditions do not hold for this graph/node
    /// (wrong op kind, non-splittable shape, unknown node name, ...).
    NotApplicable(String),
    /// The underlying graph is structurally invalid (cycle, dangling
    /// reference, shape inference failure).
    Graph(GraphError),
    /// A split ratio outside the valid `0..=100` GPU-percent range.
    BadRatio(u32),
    /// The reference executor failed while running a graph (malformed
    /// inputs, kernel operand mismatch).
    Execution(String),
    /// A PIM hardware configuration violated one of its invariants.
    Config(ConfigError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotApplicable(m) => write!(f, "pass not applicable: {m}"),
            Error::Graph(e) => write!(f, "graph error after pass: {e}"),
            Error::BadRatio(p) => {
                write!(f, "gpu percent {p} is outside the valid range 0..=100")
            }
            Error::Execution(m) => write!(f, "execution error: {m}"),
            Error::Config(e) => write!(f, "invalid PIM configuration: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Graph(e) => Some(e),
            Error::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for Error {
    fn from(e: GraphError) -> Self {
        Error::Graph(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

/// Result alias used across the `pimflow` public API.
pub type Result<T, E = Error> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::NotApplicable("node `x` is not a conv".into());
        assert!(e.to_string().contains("not applicable"));
        assert!(Error::BadRatio(250).to_string().contains("250"));
        let g: Error = GraphError::Cycle("a".into()).into();
        assert!(g.to_string().contains("cycle"));
    }

    #[test]
    fn graph_errors_expose_their_source() {
        use std::error::Error as _;
        let e = Error::from(GraphError::Dangling("value".into()));
        assert!(e.source().is_some());
        assert!(Error::BadRatio(101).source().is_none());
    }

    #[test]
    fn config_errors_map_and_expose_their_source() {
        use std::error::Error as _;
        let e = Error::from(ConfigError::NoPimChannels);
        assert!(e.to_string().contains("PIM channel"));
        assert!(e.source().is_some());
    }
}
