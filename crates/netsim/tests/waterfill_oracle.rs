//! The engine's solver, solving cold, against the solver it replaced.
//!
//! `reference` (`tests/common/reference.rs`) is the lazy-deletion
//! progressive filling the engine ran before the indexed-heap rewrite,
//! kept as a test-only oracle: a binary heap receives a fresh `(share,
//! version, resource)` entry after every flow–resource debit, and
//! entries whose version moved on are skipped when popped.
//! [`Waterfill`], one cold cascade solve per call, must reproduce its
//! rates bit for bit and its bindings exactly on every demand set —
//! including tie-heavy ones, where the pop order decides the last ULP —
//! and every allocation must pass the independent max-min certificate
//! ([`certify`]). The cascade's warm solves meet the same oracle in the
//! churn test of `src/waterfill.rs`.

use bgq_netsim::waterfill::CAP_BINDING;
use bgq_netsim::{certify, FlowDemand, ResourceId, Waterfill};
use proptest::prelude::*;

#[path = "common/reference.rs"]
mod reference;

/// One demand set: capacities, `(route, cap)` flows, and the contention
/// `(penalty, floor)`.
type Case = (Vec<f64>, Vec<(Vec<u32>, f64)>, (f64, f64));

fn contention() -> impl Strategy<Value = (f64, f64)> {
    prop_oneof![Just((0.0, 1.0)), Just((0.5, 0.5)), Just((0.25, 0.8))]
}

/// Capacities and caps from a few small integers, so shares tie often
/// and the tie-break order (version, then resource id) decides pops;
/// routes repeat resources now and then.
fn tie_heavy() -> impl Strategy<Value = Case> {
    let value = |vals: &'static [f64]| (0..vals.len()).prop_map(move |i| vals[i]);
    (1usize..7).prop_flat_map(move |r| {
        let caps = proptest::collection::vec(value(&[1.0, 2.0, 3.0, 4.0, 6.0]), r);
        let flows = proptest::collection::vec(
            (
                proptest::collection::vec(0..r as u32, 0..5),
                value(&[1.0, 2.0, 3.0, 100.0]),
            ),
            1..24,
        );
        (caps, flows, contention())
    })
}

/// Continuous capacities and caps over a wider resource space.
fn continuous() -> impl Strategy<Value = Case> {
    (1usize..16).prop_flat_map(|r| {
        let caps = proptest::collection::vec(1.0f64..1000.0, r);
        let flows = proptest::collection::vec(
            (proptest::collection::vec(0..r as u32, 0..6), 0.5f64..500.0),
            1..40,
        );
        (caps, flows, contention())
    })
}

/// Solve `case` with `wf` and with the oracle; compare bits and
/// bindings, and certify the allocation.
fn check_against_oracle(wf: &mut Waterfill, case: &Case) -> Result<(), TestCaseError> {
    let (caps, flows, (penalty, floor)) = case;
    let routes: Vec<Vec<ResourceId>> = flows
        .iter()
        .map(|(r, _)| r.iter().copied().map(ResourceId).collect())
        .collect();
    let demands: Vec<FlowDemand> = routes
        .iter()
        .zip(flows)
        .map(|(route, (_, cap))| FlowDemand { route, cap: *cap })
        .collect();
    let mut rates = Vec::new();
    wf.compute_with_penalty(&demands, caps, *penalty, *floor, &mut rates);
    let (want_rates, want_bindings, _) = reference::solve(&demands, caps, *penalty, *floor);
    for (i, (got, want)) in rates.iter().zip(&want_rates).enumerate() {
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "rate of flow {}: {} vs {}",
            i,
            got,
            want
        );
    }
    prop_assert_eq!(wf.bindings(), want_bindings.as_slice());
    let cert = certify(&demands, caps, *penalty, *floor, &rates, wf.bindings());
    prop_assert!(cert.is_ok(), "certificate: {:?}", cert);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_the_oracle_on_tie_heavy_demand_sets(case in tie_heavy()) {
        let mut wf = Waterfill::new(case.0.len());
        check_against_oracle(&mut wf, &case)?;
    }

    #[test]
    fn matches_the_oracle_on_continuous_demand_sets(case in continuous()) {
        let mut wf = Waterfill::new(case.0.len());
        check_against_oracle(&mut wf, &case)?;
    }

    // One solver reused across calls of different shapes must carry no
    // state from one call into the next.
    #[test]
    fn reused_solver_matches_the_oracle_call_after_call(
        first in tie_heavy(),
        second in tie_heavy(),
    ) {
        let r = first.0.len().max(second.0.len());
        let widen = |(mut caps, flows, c): Case| {
            caps.resize(r, 5.0);
            (caps, flows, c)
        };
        let (first, second) = (widen(first), widen(second));
        let mut wf = Waterfill::new(r);
        check_against_oracle(&mut wf, &first)?;
        check_against_oracle(&mut wf, &second)?;
        check_against_oracle(&mut wf, &first)?;
    }
}

/// Rounding can push a debited link's share *below* the share that was
/// just frozen: links 0, 1 and 2 all start at 1/9, link 0 pops first (lowest
/// id) and debits link 2 twice, and `(1 - 1/9 - 1/9) / 7` rounds to just
/// under 1/9. Link 2 must then pop before link 1, so flow `q`, which
/// crosses both, binds on link 2 at the lower share.
#[test]
fn matches_the_oracle_when_rounding_lowers_a_share() {
    let mut flows: Vec<(Vec<u32>, f64)> = Vec::new();
    flows.extend([(vec![0, 2], 100.0), (vec![0, 2], 100.0)]);
    flows.extend((0..7).map(|_| (vec![0], 100.0)));
    flows.extend((0..6).map(|_| (vec![2], 100.0)));
    flows.extend((0..8).map(|_| (vec![1], 100.0)));
    flows.push((vec![1, 2], 100.0));
    let q = flows.len() - 1;
    let case = (vec![1.0; 3], flows, (0.0, 1.0));
    let mut wf = Waterfill::new(3);
    check_against_oracle(&mut wf, &case).expect("oracle agreement");
    assert_eq!(wf.bindings()[q], 2);
}

/// A deep heap: 3,000 flows of 1–8 hops over 400 links with capacities
/// from three values, so long runs of equal shares pop in tie order.
#[test]
fn matches_the_oracle_on_a_large_tied_demand_set() {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut rnd = |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let nres = 400;
    let caps: Vec<f64> = (0..nres)
        .map(|_| [1.8e9, 0.9e9, 3.6e9][rnd(3) as usize])
        .collect();
    let flows: Vec<(Vec<u32>, f64)> = (0..3000)
        .map(|_| {
            let hops = 1 + rnd(8) as usize;
            let route = (0..hops).map(|_| rnd(nres) as u32).collect();
            (route, [1.6e9, 0.4e9][rnd(2) as usize])
        })
        .collect();
    let mut wf = Waterfill::new(nres as usize);
    check_against_oracle(&mut wf, &(caps, flows, (0.0, 1.0))).expect("oracle agreement");
}
