//! The resilience experiment: completion time and delivery success of
//! direct vs. fault-aware multipath transfers under time-varying link
//! faults, on the Fig. 5 pair (first and last node of the 128-node
//! partition).
//!
//! Three fault scenarios per message size:
//!
//! * *fault-free* — sanity row; both strategies deliver on attempt 1 and
//!   the multipath time becomes the slowdown baseline;
//! * *direct-route cut* — the first link of the deterministic direct
//!   route dies mid-transfer (at half the direct completion time) and
//!   never recovers. The stubborn direct strategy re-plans the same dead
//!   route every attempt and exhausts its retries; the health-aware
//!   planner routes around the cut and completes;
//! * *random* — Poisson link failures with exponential outages drawn from
//!   a seeded [`FaultPlan`] generator, scaled to the transfer (the rate is
//!   expressed in expected faults per direct-transfer-time, so every
//!   message size faces comparable adversity).
//!
//! Both strategies run through [`bgq_comm::run_resilient`]: a bounded
//! retry loop
//! that replays the same absolute-time fault plan each attempt and gates
//! re-planned transfers behind an exponential backoff in simulated time.
//! Everything is a pure function of `(bytes, scenario)`, so the sweep is
//! thread-count- and seed-reproducible.

use crate::runner::{Experiment, PlanCache, Row};
use crate::table::fmt_bytes;
use bgq_comm::{run_resilient_observed, Machine, Program, ResilientOutcome, RetryPolicy};
use bgq_netsim::{FaultPlan, ResourceId, SimConfig};
use bgq_torus::{num_links, route, standard_shape, NodeId};
use sdm_core::{plan_direct, MultipathOptions, PlanPolicy, PlanRequest, SparseMover};

/// Default seed for the random scenarios (the experiment's date stamp).
pub const DEFAULT_SEED: u64 = 20140914;

/// Message sizes swept by default. 64K sits below the multipath
/// threshold (~248K for 4 proxies), so its first attempt goes direct and
/// the direct-route-cut scenario exercises the full stall -> backoff ->
/// forced-multipath re-plan path; the larger sizes go multipath
/// immediately.
pub fn default_sizes() -> Vec<u64> {
    vec![64 << 10, 1 << 20, 16 << 20, 128 << 20]
}

/// One fault scenario of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// No faults; baseline row.
    FaultFree,
    /// The direct route's first link dies at `0.5 * t_direct`, forever.
    DirectCut,
    /// Seeded random link failures at `rate_per_t0` expected faults per
    /// direct-transfer-time *across the whole partition* (1,280 links on
    /// 128 nodes — a route of ~7 links sees `rate_per_t0 * 7 / 1280`
    /// expected hits per transfer), with mean outage equal to one
    /// direct-transfer-time.
    Random { rate_per_t0: f64, seed: u64 },
}

impl Scenario {
    pub fn label(&self) -> String {
        match self {
            Scenario::FaultFree => "fault-free".into(),
            Scenario::DirectCut => "direct-route cut".into(),
            Scenario::Random { rate_per_t0, seed } => {
                format!("random x{rate_per_t0:.0} (seed {seed})")
            }
        }
    }
}

/// The default scenario column: one benign, one adversarial, two random
/// intensities (seeds derived from `seed` so reruns with another seed
/// shift every random row together).
pub fn default_scenarios(seed: u64) -> Vec<Scenario> {
    vec![
        Scenario::FaultFree,
        Scenario::DirectCut,
        Scenario::Random {
            rate_per_t0: 16.0,
            seed,
        },
        Scenario::Random {
            rate_per_t0: 256.0,
            seed: seed.wrapping_add(1),
        },
    ]
}

/// The pair under test (shared with fig5).
const SRC: NodeId = NodeId(0);
const DST: NodeId = NodeId(127);

fn resilience_machine(cache: &PlanCache) -> std::sync::Arc<Machine> {
    cache.machine(standard_shape(128).unwrap(), &SimConfig::default())
}

/// Fault-free direct completion time — the time scale every scenario is
/// expressed in.
fn direct_t0(machine: &Machine, bytes: u64) -> f64 {
    let mut p = Program::new(machine);
    let h = plan_direct(&mut p, SRC, DST, bytes);
    h.completed_at(&p.run())
}

/// Materialize a scenario into an absolute-time [`FaultPlan`] for a
/// transfer whose fault-free direct time is `t0`.
pub fn fault_plan_for(machine: &Machine, scenario: &Scenario, t0: f64) -> FaultPlan {
    match scenario {
        Scenario::FaultFree => FaultPlan::new(),
        Scenario::DirectCut => {
            let first = route(machine.shape(), SRC, DST, machine.zone()).links[0];
            FaultPlan::new().fail_link(0.5 * t0, ResourceId(first.0))
        }
        Scenario::Random { rate_per_t0, seed } => {
            // Rate and outage scale with the transfer so each size faces
            // comparable adversity; horizon leaves room for retries.
            let horizon = 20.0 * t0;
            FaultPlan::random_link_faults(
                *seed,
                num_links(machine.shape()),
                rate_per_t0 / t0,
                t0,
                horizon,
            )
        }
    }
}

/// The measurements behind one row of the resilience table.
#[derive(Debug, Clone)]
pub struct ResiliencePoint {
    pub bytes: u64,
    pub scenario: Scenario,
    /// Stubborn direct strategy (same deterministic route every attempt).
    pub direct: ResilientOutcome,
    /// Health-aware strategy (re-plans around the fault mask).
    pub multipath: ResilientOutcome,
    /// Fault-free completion time of the health-aware strategy — the
    /// denominator of the slowdown column.
    pub baseline: f64,
}

/// Evaluate one `(bytes, scenario)` point. Pure: identical inputs give
/// identical outcomes on any thread.
pub fn resilience_point(cache: &PlanCache, bytes: u64, scenario: &Scenario) -> ResiliencePoint {
    let machine = resilience_machine(cache);
    let t0 = direct_t0(&machine, bytes);
    let plan = fault_plan_for(&machine, scenario, t0);
    let policy = RetryPolicy::default();
    let mut mover = SparseMover::with_aggregator_table(&machine, cache.aggregator_table(&machine));
    if let Some(m) = cache.metrics() {
        mover = mover.with_metrics(std::sync::Arc::clone(m));
    }
    let metrics = cache.metrics().map(|m| m.as_ref());

    let direct = run_resilient_observed(
        &machine,
        &plan,
        &policy,
        SRC,
        bytes,
        metrics,
        |prog, ctx| {
            let stubborn = mover.clone().with_multipath(MultipathOptions {
                gate: ctx.gate,
                ..Default::default()
            });
            stubborn
                .plan(
                    prog,
                    PlanRequest::new(SRC, DST, ctx.bytes).policy(PlanPolicy::DirectOnly),
                )
                .expect("direct-only planning without a health mask is infallible")
                .handle
        },
    );

    let plan_resilient = |plan: &FaultPlan| {
        run_resilient_observed(&machine, plan, &policy, SRC, bytes, metrics, |prog, ctx| {
            let aware = mover.clone().with_multipath(MultipathOptions {
                gate: ctx.gate,
                ..Default::default()
            });
            aware
                .plan(
                    prog,
                    PlanRequest::new(SRC, DST, ctx.bytes).health(&ctx.health),
                )
                .expect("link faults never take an endpoint down")
                .handle
        })
    };
    let multipath = plan_resilient(&plan);
    let baseline = plan_resilient(&FaultPlan::new()).completion_time;

    ResiliencePoint {
        bytes,
        scenario: *scenario,
        direct,
        multipath,
        baseline,
    }
}

fn fmt_ms(t: f64) -> String {
    if t.is_finite() {
        format!("{:.3}", t * 1e3)
    } else {
        "inf".into()
    }
}

fn fmt_ok(delivered: bool) -> &'static str {
    if delivered {
        "ok"
    } else {
        "FAILED"
    }
}

/// The fault-injection sweep: message size x fault scenario, direct vs.
/// fault-aware multipath.
pub struct Resilience {
    pub sizes: Vec<u64>,
    pub seed: u64,
}

impl Resilience {
    pub fn new(sizes: Vec<u64>, seed: u64) -> Resilience {
        Resilience { sizes, seed }
    }
}

impl Default for Resilience {
    fn default() -> Resilience {
        Resilience::new(default_sizes(), DEFAULT_SEED)
    }
}

impl Experiment for Resilience {
    type Point = (u64, Scenario);

    fn name(&self) -> &'static str {
        "resilience"
    }

    fn columns(&self) -> Vec<String> {
        [
            "size",
            "scenario",
            "direct",
            "direct tries",
            "direct ms",
            "multipath",
            "sdm tries",
            "sdm ms",
            "slowdown",
        ]
        .map(String::from)
        .to_vec()
    }

    fn points(&self) -> Vec<(u64, Scenario)> {
        self.sizes
            .iter()
            .flat_map(|&b| {
                default_scenarios(self.seed)
                    .into_iter()
                    .map(move |s| (b, s))
            })
            .collect()
    }

    fn run_point(&self, cache: &PlanCache, (bytes, scenario): &(u64, Scenario)) -> Row {
        let p = resilience_point(cache, *bytes, scenario);
        let slowdown = if p.multipath.delivered {
            format!("{:.2}x", p.multipath.completion_time / p.baseline)
        } else {
            "-".into()
        };
        Row::new(
            vec![
                fmt_bytes(p.bytes),
                p.scenario.label(),
                fmt_ok(p.direct.delivered).into(),
                p.direct.attempts.to_string(),
                fmt_ms(p.direct.completion_time),
                fmt_ok(p.multipath.delivered).into(),
                p.multipath.attempts.to_string(),
                fmt_ms(p.multipath.completion_time),
                slowdown,
            ],
            vec![
                p.bytes as f64,
                f64::from(u8::from(p.direct.delivered)),
                p.direct.completion_time,
                f64::from(u8::from(p.multipath.delivered)),
                p.multipath.completion_time,
                p.baseline,
            ],
        )
    }

    fn footer(&self, rows: &[Row]) -> Option<String> {
        let saved = rows
            .iter()
            .filter(|r| r.metrics[1] == 0.0 && r.metrics[3] == 1.0)
            .count();
        let failed_both = rows
            .iter()
            .filter(|r| r.metrics[1] == 0.0 && r.metrics[3] == 0.0)
            .count();
        Some(format!(
            "\n{saved} point(s) where direct failed but fault-aware multipath delivered; \
             {failed_both} where both failed"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_rows_deliver_on_first_attempt() {
        let cache = PlanCache::new();
        let p = resilience_point(&cache, 32 << 20, &Scenario::FaultFree);
        assert!(p.direct.delivered && p.multipath.delivered);
        assert_eq!((p.direct.attempts, p.multipath.attempts), (1, 1));
        assert_eq!(p.multipath.completion_time, p.baseline);
    }

    #[test]
    fn direct_cut_fails_direct_but_multipath_survives() {
        let cache = PlanCache::new();
        for bytes in [64u64 << 10, 32 << 20] {
            let p = resilience_point(&cache, bytes, &Scenario::DirectCut);
            assert!(
                !p.direct.delivered,
                "{bytes}: the stubborn direct strategy cannot cross a dead route"
            );
            assert_eq!(p.direct.attempts, RetryPolicy::default().max_attempts);
            assert!(
                p.multipath.delivered,
                "{bytes}: health-aware multipath must route around the cut"
            );
            let slowdown = p.multipath.completion_time / p.baseline;
            assert!(
                slowdown < 20.0,
                "{bytes}: bounded slowdown expected, got {slowdown:.1}x"
            );
        }
    }

    #[test]
    fn below_threshold_cut_forces_a_second_attempt() {
        // 64K goes direct on the healthy first attempt, stalls on the cut,
        // then the health snapshot at the backoff time forces multipath.
        let cache = PlanCache::new();
        let p = resilience_point(&cache, 64 << 10, &Scenario::DirectCut);
        assert!(p.multipath.delivered);
        assert_eq!(
            p.multipath.attempts, 2,
            "re-plan must kick in on the second attempt"
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_outcomes() {
        let cache = PlanCache::new();
        let s = Scenario::Random {
            rate_per_t0: 4.0,
            seed: DEFAULT_SEED,
        };
        let a = resilience_point(&cache, 4 << 20, &s);
        let b = resilience_point(&cache, 4 << 20, &s);
        assert_eq!(a.direct.delivered, b.direct.delivered);
        assert_eq!(a.direct.attempts, b.direct.attempts);
        assert_eq!(
            a.direct.completion_time.to_bits(),
            b.direct.completion_time.to_bits()
        );
        assert_eq!(a.multipath.delivered, b.multipath.delivered);
        assert_eq!(a.multipath.attempts, b.multipath.attempts);
        assert_eq!(
            a.multipath.completion_time.to_bits(),
            b.multipath.completion_time.to_bits()
        );
        // A different seed draws a different fault history.
        let machine = resilience_machine(&cache);
        let t0 = direct_t0(&machine, 4 << 20);
        let other = Scenario::Random {
            rate_per_t0: 4.0,
            seed: DEFAULT_SEED + 17,
        };
        assert_ne!(
            fault_plan_for(&machine, &s, t0).len(),
            0,
            "the random scenario must actually inject faults"
        );
        assert_ne!(
            fault_plan_for(&machine, &s, t0).events(),
            fault_plan_for(&machine, &other, t0).events()
        );
    }
}
