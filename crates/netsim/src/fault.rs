//! Deterministic, seedable fault schedules.
//!
//! A [`FaultPlan`] is a time-ordered list of capacity-change events —
//! link degradations, full link failures, node failures, and recoveries —
//! applied by [`SimOptions::faults`](crate::SimOptions::faults)
//! at fixed simulation timestamps. Plans are plain data: building one
//! never touches the engine, and an empty plan leaves the engine's
//! behaviour (and its exact float arithmetic) untouched.
//!
//! Determinism: events fire in `(time, insertion order)` order, the
//! random generator is a hand-rolled SplitMix64 (no external RNG
//! dependency), and every query (`link_factors_at`, `down_nodes_at`) is a
//! pure replay of the schedule. Identical seeds therefore produce
//! identical fault histories on every platform.

use crate::graph::ResourceId;

/// One kind of fault (or recovery) event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Scale a resource's capacity to `factor ·` its configured value.
    /// `factor == 0.0` kills the link (flows over it stall); `1.0`
    /// restores it fully; values in between model a sick link.
    LinkFactor { resource: ResourceId, factor: f64 },
    /// Take a node down: it injects no new messages and every flow whose
    /// endpoint it is stalls until the node recovers.
    NodeDown { node: u32 },
    /// Bring a node back up; parked injections resume in arrival order.
    NodeUp { node: u32 },
}

/// A fault at a simulation timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulation time (seconds) at which the fault takes effect.
    pub time: f64,
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events, sorted by time (ties keep
/// insertion order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults; the engine fast-path).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The schedule, sorted by time (stable for equal timestamps).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Add one event.
    ///
    /// # Panics
    /// Panics if `time` is not finite and non-negative, or if a
    /// `LinkFactor` factor is outside `[0, 1]`.
    pub fn push(&mut self, time: f64, kind: FaultKind) {
        assert!(
            time.is_finite() && time >= 0.0,
            "fault time must be finite and non-negative, got {time}"
        );
        if let FaultKind::LinkFactor { factor, .. } = kind {
            assert!(
                (0.0..=1.0).contains(&factor),
                "link factor must be in [0, 1], got {factor}"
            );
        }
        self.events.push(FaultEvent { time, kind });
        // Stable sort: equal timestamps keep insertion order, so a
        // restore pushed after a failure at the same instant wins.
        self.events.sort_by(|a, b| a.time.total_cmp(&b.time));
    }

    /// Kill a link at `time` (capacity factor 0).
    pub fn fail_link(mut self, time: f64, resource: ResourceId) -> Self {
        self.push(
            time,
            FaultKind::LinkFactor {
                resource,
                factor: 0.0,
            },
        );
        self
    }

    /// Degrade a link to `factor ·` capacity at `time`.
    pub fn degrade_link(mut self, time: f64, resource: ResourceId, factor: f64) -> Self {
        self.push(time, FaultKind::LinkFactor { resource, factor });
        self
    }

    /// Restore a link to full capacity at `time`.
    pub fn restore_link(mut self, time: f64, resource: ResourceId) -> Self {
        self.push(
            time,
            FaultKind::LinkFactor {
                resource,
                factor: 1.0,
            },
        );
        self
    }

    /// Take a node down at `time`.
    pub fn fail_node(mut self, time: f64, node: u32) -> Self {
        self.push(time, FaultKind::NodeDown { node });
        self
    }

    /// Bring a node back up at `time`.
    pub fn restore_node(mut self, time: f64, node: u32) -> Self {
        self.push(time, FaultKind::NodeUp { node });
        self
    }

    /// Capacity factors in effect at time `t` (inclusive), for every
    /// resource whose factor differs from 1.0.
    pub fn link_factors_at(&self, t: f64) -> Vec<(ResourceId, f64)> {
        let mut factors: Vec<(ResourceId, f64)> = Vec::new();
        for ev in self.events.iter().take_while(|ev| ev.time <= t) {
            if let FaultKind::LinkFactor { resource, factor } = ev.kind {
                match factors.iter_mut().find(|(r, _)| *r == resource) {
                    Some(slot) => slot.1 = factor,
                    None => factors.push((resource, factor)),
                }
            }
        }
        factors.retain(|&(_, f)| f != 1.0);
        factors
    }

    /// Resources dead (factor 0) at time `t` (inclusive).
    pub fn dead_resources_at(&self, t: f64) -> Vec<ResourceId> {
        self.link_factors_at(t)
            .into_iter()
            .filter(|&(_, f)| f == 0.0)
            .map(|(r, _)| r)
            .collect()
    }

    /// Nodes down at time `t` (inclusive), in first-failure order.
    pub fn down_nodes_at(&self, t: f64) -> Vec<u32> {
        let mut down: Vec<u32> = Vec::new();
        for ev in self.events.iter().take_while(|ev| ev.time <= t) {
            match ev.kind {
                FaultKind::NodeDown { node } => {
                    if !down.contains(&node) {
                        down.push(node);
                    }
                }
                FaultKind::NodeUp { node } => down.retain(|&n| n != node),
                FaultKind::LinkFactor { .. } => {}
            }
        }
        down
    }

    /// A seeded random schedule of transient link outages.
    ///
    /// Failures arrive as a Poisson process of `faults_per_second` over
    /// `[0, horizon)`; each failure kills a uniformly chosen resource in
    /// `[0, num_resources)` and schedules its recovery an exponentially
    /// distributed `mean_outage` later (recoveries may land past the
    /// horizon — an outage in flight at the horizon still heals).
    /// Identical arguments produce an identical plan.
    ///
    /// # Panics
    /// Panics if `num_resources` is zero or any rate/duration is not
    /// positive and finite.
    pub fn random_link_faults(
        seed: u64,
        num_resources: u32,
        faults_per_second: f64,
        mean_outage: f64,
        horizon: f64,
    ) -> FaultPlan {
        assert!(num_resources > 0, "need at least one resource");
        assert!(
            faults_per_second > 0.0 && faults_per_second.is_finite(),
            "fault rate must be positive and finite"
        );
        assert!(
            mean_outage > 0.0 && mean_outage.is_finite(),
            "mean outage must be positive and finite"
        );
        assert!(
            horizon > 0.0 && horizon.is_finite(),
            "horizon must be positive and finite"
        );
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new();
        let mut t = 0.0f64;
        loop {
            t += rng.next_exp(1.0 / faults_per_second);
            if t >= horizon {
                break;
            }
            let resource = ResourceId(rng.next_u64() as u32 % num_resources);
            let outage = rng.next_exp(mean_outage);
            plan.push(
                t,
                FaultKind::LinkFactor {
                    resource,
                    factor: 0.0,
                },
            );
            plan.push(
                t + outage,
                FaultKind::LinkFactor {
                    resource,
                    factor: 1.0,
                },
            );
        }
        plan
    }
}

/// SplitMix64: tiny, portable, splittable PRNG (Steele et al., OOPSLA'14).
/// Used instead of an external RNG crate so fault schedules stay
/// dependency-free and bit-reproducible.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed with the given mean.
    fn next_exp(&mut self, mean: f64) -> f64 {
        // 1 - u is in (0, 1], so ln() is finite (0 at worst).
        -mean * (1.0 - self.next_f64()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_sort_by_time_stable() {
        let plan = FaultPlan::new()
            .fail_link(2.0, ResourceId(1))
            .fail_node(1.0, 3)
            .restore_link(2.0, ResourceId(1));
        let times: Vec<f64> = plan.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![1.0, 2.0, 2.0]);
        // Equal-time events keep insertion order: fail before restore.
        assert_eq!(
            plan.events()[1].kind,
            FaultKind::LinkFactor {
                resource: ResourceId(1),
                factor: 0.0
            }
        );
        assert_eq!(
            plan.events()[2].kind,
            FaultKind::LinkFactor {
                resource: ResourceId(1),
                factor: 1.0
            }
        );
    }

    #[test]
    fn state_queries_replay_the_schedule() {
        let plan = FaultPlan::new()
            .fail_link(1.0, ResourceId(0))
            .degrade_link(2.0, ResourceId(1), 0.5)
            .restore_link(3.0, ResourceId(0))
            .fail_node(1.5, 7)
            .restore_node(4.0, 7);
        assert!(plan.dead_resources_at(0.5).is_empty());
        assert_eq!(plan.dead_resources_at(1.0), vec![ResourceId(0)]);
        assert_eq!(
            plan.link_factors_at(2.5),
            vec![(ResourceId(0), 0.0), (ResourceId(1), 0.5)]
        );
        assert_eq!(plan.link_factors_at(3.0), vec![(ResourceId(1), 0.5)]);
        assert_eq!(plan.down_nodes_at(2.0), vec![7]);
        assert!(plan.down_nodes_at(4.0).is_empty());
    }

    #[test]
    fn random_plan_is_reproducible_and_in_range() {
        let a = FaultPlan::random_link_faults(42, 10, 5.0, 0.1, 2.0);
        let b = FaultPlan::random_link_faults(42, 10, 5.0, 0.1, 2.0);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "rate 5/s over 2 s should produce events");
        for ev in a.events() {
            assert!(ev.time >= 0.0 && ev.time.is_finite());
            match ev.kind {
                FaultKind::LinkFactor { resource, factor } => {
                    assert!(resource.0 < 10);
                    assert!(factor == 0.0 || factor == 1.0);
                }
                _ => panic!("random plan only produces link events"),
            }
        }
        let c = FaultPlan::random_link_faults(43, 10, 5.0, 0.1, 2.0);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn every_random_failure_heals() {
        let plan = FaultPlan::random_link_faults(7, 4, 10.0, 0.05, 1.0);
        // After the last event, nothing is dead.
        let end = plan.events().last().unwrap().time;
        assert!(plan.dead_resources_at(end).is_empty());
    }

    #[test]
    #[should_panic(expected = "factor must be in [0, 1]")]
    fn out_of_range_factor_panics() {
        FaultPlan::new().degrade_link(0.0, ResourceId(0), 1.5);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_panics() {
        FaultPlan::new().fail_link(-1.0, ResourceId(0));
    }
}
