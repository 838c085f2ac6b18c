//! The benchmark's four workloads: how each builds its inputs (set-up,
//! once per process) and how one *side* of an iteration is lowered,
//! simulated and checked.
//!
//! A side is one way of moving the workload's data: an exchange
//! algorithm, one of the two I/O write paths, or the single hub program.
//! Every side of every iteration is one benchmark operation.

use crate::trace::Tracer;
use bgq_comm::{Machine, Program, SparseSendMap};
use bgq_netsim::{SimConfig, SimObserver, SimOptions, SimReport, TransferId};
use bgq_torus::{shape_for_cores, standard_shape, Dim, NodeId, RankMap, Shape, CORES_PER_NODE};
use bgq_workloads::{coalesce_to_nodes, disjoint_heavy_pairs, hacc_workload, sparse_pairs};
use sdm_core::{
    AggregatorTable, ExchangeAlgorithm, IoMoveOptions, NeighborhoodExchange, SparseMover,
};
use std::sync::Arc;
use std::time::Instant;

/// Seed of the committed exchange sweep (`results/BENCH_exchange.json`);
/// `exchange_sparse` at this seed must reproduce that artifact's row.
pub const DEFAULT_SEED: u64 = 2014;

/// Cores of the Fig. 11 HACC I/O point (4,096 nodes).
const HACC_CORES: u32 = 65_536;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1,024 nodes, four random peers per rank, messages up to 256 KiB:
    /// one contention component where the engine's full re-levels
    /// dominate host time.
    ExchangeSparse,
    /// Fig. 11 HACC I/O at 65,536 cores: fan-in through bridge and ION
    /// resources, where the incremental leveler does most re-levels.
    IoHacc,
    /// The hub fan-out of the scale sweep at 8,192 nodes: thousands of
    /// tiny components, with graph build inside the iteration.
    ScaleHub,
    /// 8,192 nodes, 256 antipodal 32 MiB pairs: Algorithm 1's case,
    /// where planning (proxy search, link-claim ledger) is most of the
    /// host time.
    ExchangeDisjoint,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ExchangeSparse,
        Workload::IoHacc,
        Workload::ScaleHub,
        Workload::ExchangeDisjoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExchangeSparse => "exchange_sparse",
            Workload::IoHacc => "io_hacc",
            Workload::ScaleHub => "scale_hub",
            Workload::ExchangeDisjoint => "exchange_disjoint",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Side names, in the order every iteration runs them.
    pub fn sides(self) -> &'static [&'static str] {
        match self {
            Workload::ExchangeSparse | Workload::ExchangeDisjoint => {
                &["direct", "consensus", "proxy_multipath"]
            }
            Workload::IoHacc => &["ours", "collective"],
            Workload::ScaleHub => &["hub"],
        }
    }

    /// Whether `--seed` changes the inputs. The other workloads are fixed
    /// by construction, so their reference results apply at every seed.
    pub fn seeded(self) -> bool {
        self == Workload::ExchangeSparse
    }
}

/// Set-up wall time by part, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Machine::new`.
    pub machine: f64,
    /// `SparseMover::new` (aggregator precompute); 0 where no planner is
    /// needed.
    pub mover: f64,
    /// The `bgq-workloads` generators and send-map construction.
    pub workload: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.machine + self.mover + self.workload
    }
}

/// One put of the hub pattern; `after` indexes the put it depends on.
#[derive(Debug, Clone, Copy)]
struct HubPut {
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    after: Option<usize>,
}

enum Inputs {
    Exchange(SparseSendMap),
    Io {
        data: Vec<(NodeId, u64)>,
        chunk: u64,
    },
    Hub(Vec<HubPut>),
}

/// Everything built before the timed loop.
pub struct Setup {
    pub workload: Workload,
    pub machine: Machine,
    table: Option<Arc<AggregatorTable>>,
    inputs: Inputs,
    pub times: SetupTimes,
}

/// Build a workload's machine, planner state and inputs, timing each part.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let t = Instant::now();
    let shape = match workload {
        Workload::ExchangeSparse => standard_shape(1024),
        Workload::IoHacc => shape_for_cores(HACC_CORES),
        Workload::ScaleHub | Workload::ExchangeDisjoint => standard_shape(8192),
    }
    .expect("every workload runs on a standard partition");
    let machine = Machine::new(shape, SimConfig::default());
    let machine_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let table = (workload != Workload::ScaleHub)
        .then(|| SparseMover::new(&machine).shared_aggregator_table())
        .flatten();
    let mover_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let n = shape.num_nodes();
    let inputs = match workload {
        Workload::ExchangeSparse => Inputs::Exchange(SparseSendMap::from_rank_pairs(
            &sparse_pairs(n, 4, 256 << 10, seed),
        )),
        Workload::ExchangeDisjoint => Inputs::Exchange(SparseSendMap::from_rank_pairs(
            &disjoint_heavy_pairs(n, 16, 32 << 20),
        )),
        Workload::IoHacc => {
            let map = RankMap::default_map(shape, CORES_PER_NODE);
            let data = coalesce_to_nodes(&map, &hacc_workload(HACC_CORES));
            let total: u64 = data.iter().map(|&(_, b)| b).sum();
            Inputs::Io {
                data,
                chunk: sim_chunk_bytes(total, n),
            }
        }
        Workload::ScaleHub => Inputs::Hub(hub_pattern(&shape)),
    };
    let workload_s = t.elapsed().as_secs_f64();

    Setup {
        workload,
        machine,
        table,
        inputs,
        times: SetupTimes {
            machine: machine_s,
            mover: mover_s,
            workload: workload_s,
        },
    }
}

/// The I/O chunk granularity of the Fig. 11 sweep (the formula of
/// `bgq_bench::io::sim_chunk_bytes`, repeated here so the benchmark
/// depends on library crates only): half the per-node volume, clamped to
/// `[16 MiB, 256 MiB]`, used for both sides so neither gets a pipelining
/// advantage.
fn sim_chunk_bytes(total: u64, nodes: u32) -> u64 {
    (total / u64::from(nodes.max(1)) / 2).clamp(16 << 20, 256 << 20)
}

/// The hub fan-out pattern of the scale sweep (`crates/bench/src/scale.rs`),
/// as a put list: one staggered `+1` neighbour put per four nodes, plus,
/// per aligned D×E column, a hub streaming 3-deep dependent put chains to
/// four or five column peers. Columns share no link, so the program splits
/// into thousands of small contention components.
fn hub_pattern(shape: &Shape) -> Vec<HubPut> {
    let nodes = shape.num_nodes();
    let mut puts = Vec::new();
    for i in (0..nodes).step_by(4) {
        puts.push(HubPut {
            src: NodeId(i),
            dst: NodeId((i + 1) % nodes),
            bytes: (256u64 << 10) + u64::from(i) * 4096,
            after: None,
        });
    }
    let de = shape.extent(Dim::D) as u32;
    let ee = shape.extent(Dim::E) as u32;
    const ROUNDS: u64 = 3;
    for (bi, base) in (0..nodes).step_by((de * ee) as usize).enumerate() {
        let node = |d: u32, e: u32| NodeId(base + d * ee + e);
        let hub = node(0, 1);
        let mut dsts = vec![node(1, 1), node(2, 1), node(de - 1, 1), node(0, 0)];
        if de >= 6 {
            dsts.push(node(de - 2, 1));
        }
        for (ci, dst) in dsts.into_iter().enumerate() {
            let mut after = None;
            for round in 0..ROUNDS {
                puts.push(HubPut {
                    src: hub,
                    dst,
                    bytes: (1u64 << 20) + (bi as u64 * 17 + ci as u64 * 5 + round) * 4096,
                    after,
                });
                after = Some(puts.len() - 1);
            }
        }
    }
    puts
}

/// Engine work counters read from a [`SimObserver`] (traced runs only).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub full_runs: u64,
    pub incremental_runs: u64,
    pub shards: u64,
    pub events: u64,
}

/// Planner statistics of a proxy-multipath exchange plan.
#[derive(Debug, Clone, Copy)]
pub struct PlanStats {
    pub pairs_multipath: usize,
    pub pairs_combined: usize,
    pub links_claimed: usize,
}

/// What one side of one iteration produced.
#[derive(Debug, Clone)]
pub struct SideOutcome {
    pub side: &'static str,
    /// FNV-1a over every transfer's delivery-time bits and the end time.
    pub digest: u64,
    /// Simulated completion time of the side's logical operation.
    pub makespan: f64,
    /// Logical payload bytes the side moved.
    pub bytes: u64,
    pub transfers: usize,
    pub counters: Option<Counters>,
    pub plan: Option<PlanStats>,
    /// Failed output checks; empty when the side's results are correct.
    pub problems: Vec<String>,
}

/// A set-up workload ready to run iterations.
pub struct Runner<'s> {
    setup: &'s Setup,
    mover: Option<SparseMover<'s>>,
}

impl<'s> Runner<'s> {
    pub fn new(setup: &'s Setup) -> Runner<'s> {
        let mover = setup
            .table
            .as_ref()
            .map(|t| SparseMover::with_aggregator_table(&setup.machine, Some(t.clone())));
        Runner { setup, mover }
    }

    fn mover(&self) -> &SparseMover<'s> {
        self.mover
            .as_ref()
            .expect("planning workloads build a mover in set-up")
    }

    /// Lower, simulate and check side `side`. With `observe`, a
    /// [`SimObserver`] rides along and its counters are returned; the
    /// report must not change because of it.
    pub fn run_side(&self, side: usize, observe: bool, tr: &mut Tracer) -> SideOutcome {
        let name = self.setup.workload.sides()[side];
        let span = tr.begin("bench.side", name);
        let mut prog = Program::new(&self.setup.machine);
        let mut plan = None;
        let lowered = match &self.setup.inputs {
            Inputs::Exchange(map) => {
                let alg = ExchangeAlgorithm::ALL[side];
                let s = tr.begin("core.plan", name);
                let p = NeighborhoodExchange::with_mover(self.mover().clone())
                    .plan(&mut prog, map, alg);
                tr.end(s);
                plan = (alg == ExchangeAlgorithm::ProxyMultipath).then(|| PlanStats {
                    pairs_multipath: p.pairs_multipath(),
                    pairs_combined: p.pairs_combined(),
                    links_claimed: p.ledger.len(),
                });
                Lowered::Exchange(map, p)
            }
            Inputs::Io { data, chunk } => {
                let handle = if side == 0 {
                    let s = tr.begin("core.plan", name);
                    let opts = IoMoveOptions {
                        max_chunk: *chunk,
                        ..Default::default()
                    };
                    let h = self
                        .mover()
                        .plan_sparse_write(&mut prog, data, &opts)
                        .handle;
                    tr.end(s);
                    h
                } else {
                    let s = tr.begin("iosys.plan", name);
                    let cfg = bgq_iosys::CollectiveIoConfig {
                        cb_buffer: *chunk,
                        ..Default::default()
                    };
                    let h = bgq_iosys::plan_collective_write(&mut prog, data, &cfg);
                    tr.end(s);
                    h
                };
                Lowered::Io(data.iter().map(|&(_, b)| b).sum(), handle)
            }
            Inputs::Hub(puts) => {
                let s = tr.begin("comm.build", name);
                let mut tokens: Vec<TransferId> = Vec::with_capacity(puts.len());
                for p in puts {
                    let t = match p.after {
                        None => prog.put(p.src, p.dst, p.bytes),
                        Some(i) => prog.put_after(p.src, p.dst, p.bytes, vec![tokens[i]], 0.0),
                    };
                    tokens.push(t);
                }
                tr.end(s);
                Lowered::Hub(puts.iter().map(|p| p.bytes).sum())
            }
        };

        let s = tr.begin("netsim.simulate", name);
        let (report, counters) = if observe {
            let mut obs = SimObserver::new();
            let r = prog.simulate(SimOptions::new().observer(&mut obs));
            let c = Counters {
                full_runs: obs.waterfill_full_runs,
                incremental_runs: obs.waterfill_incremental_runs,
                shards: obs.shards,
                events: obs.events_processed,
            };
            (r, Some(c))
        } else {
            (prog.simulate(SimOptions::new()), None)
        };
        tr.end(s);

        let s = tr.begin("bench.verify", name);
        let (makespan, bytes, problems) = lowered.check(&report);
        let outcome = SideOutcome {
            side: name,
            digest: digest(&report),
            makespan,
            bytes,
            transfers: prog.len(),
            counters,
            plan,
            problems,
        };
        tr.end(s);
        tr.end(span);
        outcome
    }
}

/// A side's lowered program handle, kept for the output checks.
enum Lowered<'a> {
    Exchange(&'a SparseSendMap, sdm_core::ExchangePlan),
    /// Input payload total and the write's ION-side handle.
    Io(u64, bgq_comm::TransferHandle),
    /// Payload total of the hub puts.
    Hub(u64),
}

impl Lowered<'_> {
    /// Check the simulated outputs; returns the side's makespan, payload
    /// bytes and any failed checks.
    fn check(&self, report: &SimReport) -> (f64, u64, Vec<String>) {
        let mut problems = Vec::new();
        if !report.all_delivered() {
            problems.push(format!(
                "{} of {} transfers undelivered",
                report.status.len() - report.num_delivered(),
                report.status.len()
            ));
        }
        let (makespan, bytes) = match self {
            Lowered::Exchange(map, plan) => {
                if plan.per_pair_delivered(report) != map.pairs() {
                    problems.push("per-pair delivered bytes differ from the send map".into());
                }
                (plan.completed_at(report), plan.total_bytes())
            }
            Lowered::Io(total, handle) => {
                if !handle
                    .tokens
                    .iter()
                    .all(|&t| report.delivered_at(t).is_finite())
                {
                    problems.push("I/O handle incomplete".into());
                }
                if handle.bytes != *total {
                    problems.push(format!(
                        "I/O handle covers {} of {total} bytes",
                        handle.bytes
                    ));
                }
                (handle.completed_at(report), handle.bytes)
            }
            Lowered::Hub(total) => (report.end_time, *total),
        };
        if !(makespan.is_finite() && makespan > 0.0) {
            problems.push(format!("makespan {makespan} is not a positive time"));
        }
        (makespan, bytes, problems)
    }
}

/// FNV-1a (64-bit) over the bits of every delivery time, then the end
/// time: equal digests mean bit-identical simulated timelines.
fn digest(report: &SimReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in report.delivery_time.iter().chain([&report.end_time]) {
        for b in t.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
