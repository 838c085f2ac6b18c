//! Bit-level report equality, shared by `tests/incremental.rs` (cascade
//! vs full solver) and `tests/profile.rs` (profiled vs plain run); each
//! includes it with `#[path]`.

use bgq_netsim::SimReport;
use proptest::prelude::*;

/// Bit-level equality of everything in the report *except* the profile.
pub fn assert_reports_identical(
    a: &SimReport,
    b: &SimReport,
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.status.clone(), b.status.clone(), "status ({})", ctx);
    for (i, (x, y)) in a.delivery_time.iter().zip(&b.delivery_time).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "delivery_time[{}] ({})", i, ctx);
    }
    for (i, (x, y)) in a.flow_start_time.iter().zip(&b.flow_start_time).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "flow_start_time[{}] ({})", i, ctx);
    }
    for (i, (x, y)) in a.stall_time.iter().zip(&b.stall_time).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "stall_time[{}] ({})", i, ctx);
    }
    prop_assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "makespan ({})",
        ctx
    );
    prop_assert_eq!(
        a.end_time.to_bits(),
        b.end_time.to_bits(),
        "end_time ({})",
        ctx
    );
    Ok(())
}
