//! Workspace-wide error type for the planning layer.
//!
//! Every `try_*` entry point in this crate reports failures as an
//! [`SdmError`] instead of panicking; the panicking variants remain as
//! thin wrappers for call sites that treat misuse as a bug. Substrate
//! errors ([`bgq_comm::MachineError`]) convert via `From`, so `?` works
//! across the layer boundary.

use bgq_comm::MachineError;
use bgq_torus::NodeId;

/// Why a planning operation could not be carried out.
#[derive(Debug, Clone, PartialEq)]
pub enum SdmError {
    /// The underlying machine rejected its configuration.
    Machine(MachineError),
    /// The operation needs an I/O layout (psets/bridges/IONs) but the
    /// partition is not a whole number of psets.
    NoIoLayout,
    /// A per-ION aggregator count outside the paper's candidate list `P`.
    CountNotInP(u32),
    /// The minimum per-aggregator volume `S` must be positive.
    NonPositiveMinAggBytes,
    /// Data assignment needs at least one aggregator.
    NoAggregators,
    /// Assignment chunk sizes must be positive.
    NonPositiveChunk,
    /// An assignment references a node that is not in the aggregator set.
    UnknownAggregator(NodeId),
    /// A transfer endpoint is down in the supplied health mask; no plan
    /// can deliver to or from a failed node.
    EndpointDown(NodeId),
    /// Every precomputed aggregator for the requested count is on a down
    /// node; the collective cannot be staged until something recovers.
    NoHealthyAggregators,
}

impl std::fmt::Display for SdmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SdmError::Machine(e) => write!(f, "{e}"),
            SdmError::NoIoLayout => {
                write!(f, "machine has no I/O layout (not a pset multiple)")
            }
            SdmError::CountNotInP(c) => write!(f, "aggregator count {c} not in P"),
            SdmError::NonPositiveMinAggBytes => write!(f, "S must be positive"),
            SdmError::NoAggregators => write!(f, "need at least one aggregator"),
            SdmError::NonPositiveChunk => write!(f, "max_chunk must be positive"),
            SdmError::UnknownAggregator(n) => {
                write!(f, "assignment targets unknown aggregator {n}")
            }
            SdmError::EndpointDown(n) => {
                write!(f, "transfer endpoint {n} is down")
            }
            SdmError::NoHealthyAggregators => {
                write!(f, "no healthy aggregators at the requested count")
            }
        }
    }
}

impl std::error::Error for SdmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SdmError::Machine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MachineError> for SdmError {
    fn from(e: MachineError) -> SdmError {
        match e {
            MachineError::NoIoLayout => SdmError::NoIoLayout,
            other => SdmError::Machine(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_errors_convert() {
        let e: SdmError = MachineError::NoIoLayout.into();
        assert_eq!(e, SdmError::NoIoLayout);
        let e: SdmError = MachineError::RandomizedZone(bgq_torus::Zone::Z0).into();
        assert!(matches!(e, SdmError::Machine(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_matches_legacy_panic_messages() {
        assert_eq!(
            SdmError::CountNotInP(3).to_string(),
            "aggregator count 3 not in P"
        );
        assert_eq!(
            SdmError::NonPositiveChunk.to_string(),
            "max_chunk must be positive"
        );
    }
}
