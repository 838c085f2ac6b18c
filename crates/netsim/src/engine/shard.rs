//! Component sharding: partition a transfer graph into independent
//! contention components and execute them as isolated sub-simulations.
//!
//! Two transfers interact mechanically only through three channels:
//!
//! * **shared route resources** — they contend in the same waterfill
//!   component;
//! * **a shared source node** — the injection CPU serializes their
//!   sends;
//! * **dependency edges** — delivery of one readies the other.
//!
//! Union-find over those three relations yields connected components
//! whose event sequences are provably independent: no event in one
//! component can change a float in another. Each component becomes a
//! *shard* — a self-contained sub-problem with transfers, resources and
//! nodes remapped to dense local ids — and the engine runs one event
//! loop per shard, one shard after another on the calling thread.
//!
//! Determinism: shards are ordered by their minimum global transfer id
//! (the *canonical shard order*), local ids are assigned in ascending
//! global order (so every comparison the waterfill or the event queue
//! performs on ids orders local exactly like global), and the engine
//! runs and merges shards in canonical order.
//!
//! Fault events route to shards by what they touch: a `LinkFactor`
//! goes to the unique shard owning that resource; `NodeDown`/`NodeUp`
//! replicate to every shard where the node is an endpoint. Faults that
//! touch no shard are dropped — they could not have moved any flow.

use crate::fault::{FaultEvent, FaultKind};
use crate::graph::{ResourceId, TransferGraph, TransferId, TransferSpec};

const NONE: u32 = u32::MAX;

/// Union-find with path halving.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins: keeps the representative the minimum
            // transfer id, which the canonical shard order reads off.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// One contention component, remapped to a dense local universe.
pub(crate) struct ShardPlan {
    /// Global transfer ids, ascending — local tid `i` is `tids[i]`.
    pub tids: Vec<u32>,
    /// Global resource ids used by the shard, ascending.
    pub resources: Vec<u32>,
    /// Global node ids referenced by the shard, ascending.
    pub nodes: Vec<u32>,
    /// The shard's transfer graph in local ids.
    pub graph: TransferGraph,
    /// Local capacity table (gathered from the global one).
    pub caps: Vec<f64>,
    /// Fault events routed to this shard, in plan order, local ids.
    pub faults: Vec<FaultEvent>,
}

/// How `simulate` should execute a partitioned graph.
pub(crate) enum PartitionOutcome {
    /// The whole graph is one contention component: run the original
    /// universe directly (zero remap cost) under the filtered faults.
    Single { faults: Vec<FaultEvent> },
    /// Several components: run each shard's local universe.
    Sharded(Vec<ShardPlan>),
}

/// Group transfers into contention components (union by shared route
/// resource, shared source node, and dependency edges), in canonical
/// order. `specs` must already be validated against the capacity table
/// and node count.
fn components(specs: &[TransferSpec], num_resources: usize, num_nodes: u32) -> Vec<Vec<u32>> {
    let n = specs.len();
    let mut dsu = Dsu::new(n);
    let mut res_owner = vec![NONE; num_resources];
    let mut src_owner = vec![NONE; num_nodes as usize];
    for (i, s) in specs.iter().enumerate() {
        let i = i as u32;
        for r in &s.route {
            let slot = &mut res_owner[r.0 as usize];
            if *slot == NONE {
                *slot = i;
            } else {
                dsu.union(i, *slot);
            }
        }
        let slot = &mut src_owner[s.src as usize];
        if *slot == NONE {
            *slot = i;
        } else {
            dsu.union(i, *slot);
        }
        for d in &s.deps {
            dsu.union(i, d.0);
        }
    }
    // First-seen roots in ascending tid order = ascending minimum tid.
    let mut comp_of_root = vec![NONE; n];
    let mut comps: Vec<Vec<u32>> = Vec::new();
    for i in 0..n as u32 {
        let root = dsu.find(i) as usize;
        if comp_of_root[root] == NONE {
            comp_of_root[root] = comps.len() as u32;
            comps.push(Vec::new());
        }
        comps[comp_of_root[root] as usize].push(i);
    }
    comps
}

/// Partition `specs` into shards (or detect the single-component fast
/// path). Fault events are filtered to what each shard can observe;
/// events touching no shard are dropped.
pub(crate) fn partition(
    specs: &[TransferSpec],
    fault_events: &[FaultEvent],
    caps: &[f64],
    num_nodes: u32,
) -> PartitionOutcome {
    let num_resources = caps.len();
    let comps = components(specs, num_resources, num_nodes);

    if comps.len() <= 1 {
        // Filter faults against global membership; ids stay global.
        let mut res_used = vec![false; num_resources];
        let mut node_used = vec![false; num_nodes as usize];
        for s in specs {
            for r in &s.route {
                res_used[r.0 as usize] = true;
            }
            node_used[s.src as usize] = true;
            node_used[s.dst as usize] = true;
        }
        let faults = fault_events
            .iter()
            .filter(|ev| match ev.kind {
                FaultKind::LinkFactor { resource, .. } => res_used[resource.0 as usize],
                FaultKind::NodeDown { node } | FaultKind::NodeUp { node } => {
                    node_used[node as usize]
                }
            })
            .copied()
            .collect();
        return PartitionOutcome::Single { faults };
    }

    // Local-id assignment. Resources belong to exactly one shard (a
    // shared resource would have unioned the sharers); nodes can appear
    // in several shards (as a destination), so they carry a per-shard
    // membership list instead of a single owner.
    let mut res_local = vec![NONE; num_resources];
    let mut node_shards: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_nodes as usize];
    let mut plans: Vec<ShardPlan> = Vec::with_capacity(comps.len());

    for (k, tids) in comps.iter().enumerate() {
        let mut resources: Vec<u32> = Vec::new();
        let mut nodes: Vec<u32> = Vec::new();
        for &t in tids {
            let s = &specs[t as usize];
            for r in &s.route {
                resources.push(r.0);
            }
            nodes.push(s.src);
            nodes.push(s.dst);
        }
        resources.sort_unstable();
        resources.dedup();
        nodes.sort_unstable();
        nodes.dedup();
        for (li, &r) in resources.iter().enumerate() {
            res_local[r as usize] = li as u32;
        }
        for (li, &nd) in nodes.iter().enumerate() {
            node_shards[nd as usize].push((k as u32, li as u32));
        }
        let local_caps = resources.iter().map(|&r| caps[r as usize]).collect();
        plans.push(ShardPlan {
            tids: tids.clone(),
            resources,
            nodes,
            graph: TransferGraph::new(),
            caps: local_caps,
            faults: Vec::new(),
        });
    }

    // Global tid -> local tid (each transfer is in exactly one shard).
    let mut tid_local = vec![NONE; specs.len()];
    for plan in &plans {
        for (li, &t) in plan.tids.iter().enumerate() {
            tid_local[t as usize] = li as u32;
        }
    }

    // Build each shard's local graph. Remaps are monotonic (sorted
    // ascending), so every id comparison downstream orders local ids
    // exactly like the global ids they stand for.
    for plan in &mut plans {
        let mut g = TransferGraph::new();
        for &t in &plan.tids {
            let s = &specs[t as usize];
            let local_node = |nd: u32| plan.nodes.binary_search(&nd).expect("node in shard") as u32;
            let mut spec = s.clone();
            spec.src = local_node(s.src);
            spec.dst = local_node(s.dst);
            spec.route = s
                .route
                .iter()
                .map(|r| ResourceId(res_local[r.0 as usize]))
                .collect();
            spec.deps = s
                .deps
                .iter()
                .map(|d| TransferId(tid_local[d.index()]))
                .collect();
            g.add(spec);
        }
        plan.graph = g;
    }

    // Route fault events: link faults to the owning shard (a shared
    // resource would have unioned its users, so ownership is unique),
    // node faults to every shard the node appears in; plan order is
    // preserved per shard.
    let mut res_shard = vec![NONE; num_resources];
    for (k, plan) in plans.iter().enumerate() {
        for &r in &plan.resources {
            res_shard[r as usize] = k as u32;
        }
    }
    for ev in fault_events {
        match ev.kind {
            FaultKind::LinkFactor { resource, factor } => {
                let ri = resource.0 as usize;
                if res_shard[ri] != NONE {
                    plans[res_shard[ri] as usize].faults.push(FaultEvent {
                        time: ev.time,
                        kind: FaultKind::LinkFactor {
                            resource: ResourceId(res_local[ri]),
                            factor,
                        },
                    });
                }
            }
            FaultKind::NodeDown { node } => {
                for &(k, local) in &node_shards[node as usize] {
                    plans[k as usize].faults.push(FaultEvent {
                        time: ev.time,
                        kind: FaultKind::NodeDown { node: local },
                    });
                }
            }
            FaultKind::NodeUp { node } => {
                for &(k, local) in &node_shards[node as usize] {
                    plans[k as usize].faults.push(FaultEvent {
                        time: ev.time,
                        kind: FaultKind::NodeUp { node: local },
                    });
                }
            }
        }
    }

    PartitionOutcome::Sharded(plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn spec(src: u32, dst: u32, route: &[u32]) -> TransferSpec {
        TransferSpec::new(
            src,
            dst,
            100,
            route.iter().map(|&r| ResourceId(r)).collect(),
        )
    }

    #[test]
    fn disjoint_transfers_form_singleton_components() {
        let specs = vec![spec(0, 1, &[0]), spec(2, 3, &[1]), spec(4, 5, &[2])];
        let comps = components(&specs, 3, 6);
        assert_eq!(comps, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn shared_resource_source_and_deps_union() {
        // 0,1 share link 0; 2 shares source node with 1; 3 depends on 2.
        let mut s3 = spec(6, 7, &[3]);
        s3.deps = vec![TransferId(2)];
        let specs = vec![spec(0, 1, &[0]), spec(2, 3, &[0]), spec(2, 5, &[2]), s3];
        let comps = components(&specs, 4, 8);
        assert_eq!(comps, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn shared_destination_does_not_union() {
        // Same destination node, disjoint links and sources: no channel
        // couples them (destinations have no CPU in this model).
        let specs = vec![spec(0, 2, &[0]), spec(1, 2, &[1])];
        let comps = components(&specs, 2, 3);
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn partition_remaps_to_dense_local_ids() {
        let specs = vec![spec(0, 1, &[4]), spec(2, 3, &[9])];
        let plan = FaultPlan::new()
            .degrade_link(1.0, ResourceId(9), 0.5)
            .fail_node(2.0, 3)
            .fail_link(3.0, ResourceId(7)); // unused: dropped
        let out = partition(&specs, plan.events(), &[1.0; 10], 4);
        let plans = match out {
            PartitionOutcome::Sharded(p) => p,
            PartitionOutcome::Single { .. } => panic!("expected two shards"),
        };
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].resources, vec![4]);
        assert_eq!(plans[1].resources, vec![9]);
        assert_eq!(plans[1].nodes, vec![2, 3]);
        // Local spec of shard 1 references local ids.
        let s = &plans[1].graph.specs()[0];
        assert_eq!((s.src, s.dst), (0, 1));
        assert_eq!(s.route, vec![ResourceId(0)]);
        // The degrade routed to shard 1 with a local resource id; the
        // node fault followed node 3 into shard 1; the unused-link
        // fault was dropped.
        assert_eq!(plans[0].faults.len(), 0);
        assert_eq!(plans[1].faults.len(), 2);
        match plans[1].faults[0].kind {
            FaultKind::LinkFactor { resource, .. } => assert_eq!(resource, ResourceId(0)),
            _ => panic!("expected link fault first"),
        }
        match plans[1].faults[1].kind {
            FaultKind::NodeDown { node } => assert_eq!(node, 1),
            _ => panic!("expected node fault second"),
        }
    }

    #[test]
    fn single_component_filters_but_keeps_global_ids() {
        let specs = vec![spec(0, 1, &[5]), spec(0, 2, &[6])];
        let plan = FaultPlan::new()
            .fail_link(1.0, ResourceId(5))
            .fail_link(2.0, ResourceId(3)); // unused: dropped
        let out = partition(&specs, plan.events(), &[1.0; 8], 4);
        match out {
            PartitionOutcome::Single { faults } => {
                assert_eq!(faults.len(), 1);
                match faults[0].kind {
                    FaultKind::LinkFactor { resource, .. } => {
                        assert_eq!(resource, ResourceId(5), "ids stay global");
                    }
                    _ => panic!("wrong kind"),
                }
            }
            PartitionOutcome::Sharded(_) => panic!("shared source: one component"),
        }
    }
}
