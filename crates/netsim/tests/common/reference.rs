//! The lazy-deletion progressive filling the flat waterfill replaced,
//! kept as the test oracle of every solve: a binary heap receives a
//! fresh `(share, version, resource)` entry after every flow–resource
//! debit, and entries whose version moved on are skipped when popped.
//!
//! Shared by `tests/waterfill_oracle.rs` and the cascade's churn test in
//! `src/waterfill.rs`; each includes it with `#[path]` next to its own
//! `FlowDemand` and `CAP_BINDING`.

use super::{FlowDemand, CAP_BINDING};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Share(f64);

impl Eq for Share {}

impl PartialOrd for Share {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Share {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry {
    share: Share,
    version: u32,
    resource: u32,
}

/// Rates, bindings and pass count (popped bottlenecks) of the
/// lazy-deletion solver. Resources `0..nr` are real; `nr + fi` is flow
/// `fi`'s private cap resource.
pub fn solve(
    flows: &[FlowDemand<'_>],
    capacities: &[f64],
    penalty: f64,
    floor: f64,
) -> (Vec<f64>, Vec<u32>, u32) {
    let nr = capacities.len();
    let total = nr + flows.len();
    let mut remaining = vec![0.0f64; total];
    let mut count = vec![0u32; total];
    let mut version = vec![0u32; total];
    let mut flows_on: Vec<Vec<u32>> = vec![Vec::new(); total];
    let mut touched: Vec<u32> = Vec::new();
    let mut rates = vec![0.0; flows.len()];
    let mut binding = vec![CAP_BINDING; flows.len()];
    for (fi, f) in flows.iter().enumerate() {
        for r in f.route {
            let ri = r.0 as usize;
            if count[ri] == 0 {
                remaining[ri] = capacities[ri];
                touched.push(ri as u32);
            }
            count[ri] += 1;
            flows_on[ri].push(fi as u32);
        }
        let pi = nr + fi;
        remaining[pi] = f.cap;
        count[pi] = 1;
        flows_on[pi].push(fi as u32);
        touched.push(pi as u32);
    }
    if penalty > 0.0 && floor < 1.0 {
        for &ri in &touched {
            let ri = ri as usize;
            if ri < nr && count[ri] > 1 {
                let eff = (1.0 / (1.0 + penalty * (count[ri] - 1) as f64)).max(floor);
                remaining[ri] *= eff;
            }
        }
    }
    let mut fixed = vec![false; flows.len()];
    let mut unfixed = flows.len();
    let mut passes = 0;
    let mut heap = BinaryHeap::new();
    for &ri in &touched {
        let r = ri as usize;
        heap.push(Reverse(HeapEntry {
            share: Share(remaining[r].max(0.0) / count[r] as f64),
            version: version[r],
            resource: ri,
        }));
    }
    while unfixed > 0 {
        let Reverse(entry) = heap.pop().expect("a constrained resource remains");
        let ri = entry.resource as usize;
        if count[ri] == 0 || entry.version != version[ri] {
            continue;
        }
        passes += 1;
        let s = remaining[ri].max(0.0) / count[ri] as f64;
        for &fi in &flows_on[ri] {
            let fi = fi as usize;
            if fixed[fi] {
                continue;
            }
            fixed[fi] = true;
            unfixed -= 1;
            rates[fi] = s;
            binding[fi] = if ri < nr { ri as u32 } else { CAP_BINDING };
            let resources = flows[fi]
                .route
                .iter()
                .map(|r| r.0 as usize)
                .chain(std::iter::once(nr + fi));
            for rr in resources {
                remaining[rr] -= s;
                count[rr] -= 1;
                version[rr] = version[rr].wrapping_add(1);
                if count[rr] > 0 {
                    heap.push(Reverse(HeapEntry {
                        share: Share(remaining[rr].max(0.0) / count[rr] as f64),
                        version: version[rr],
                        resource: rr as u32,
                    }));
                }
            }
        }
    }
    (rates, binding, passes)
}
