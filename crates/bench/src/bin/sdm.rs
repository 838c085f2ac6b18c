//! `sdm` — interactive front-end to the sparse data movement planner.
//!
//! ```text
//! sdm plan  --nodes 512 --src 0 --dst 511 --bytes 32M     # point-to-point
//! sdm write --cores 8192 --pattern pareto [--policy local] # sparse write
//! sdm probe --nodes 512 --src 0 --dst 511                  # path diversity
//! ```
//!
//! Sizes accept `K`/`M`/`G` suffixes. Every command prints what the
//! planner decided and what the simulator measured.

use bgq_bench::args::{parse_value, ArgError};
use bgq_bench::PlanCache;
use bgq_comm::Program;
use bgq_netsim::SimConfig;
use bgq_torus::{shape_for_cores, standard_shape, NodeId, RankMap, Shape, Zone};
use bgq_workloads::{coalesce_to_nodes, pareto_sizes, uniform_sizes, ParetoParams};
use sdm_core::{diversity_report, plan_direct, AssignPolicy, IoMoveOptions, PlanRequest};

/// Parse a size like `32M`, `512K`, `1G`, `1048576`.
fn parse_bytes(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, mult) = match s.chars().last() {
        Some('K') | Some('k') => (&s[..s.len() - 1], 1u64 << 10),
        Some('M') | Some('m') => (&s[..s.len() - 1], 1 << 20),
        Some('G') | Some('g') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>()
        .map(|v| v * mult)
        .map_err(|_| format!("bad size {s:?} (use e.g. 32M, 512K, 4096)"))
}

/// The flags of one subcommand, `None` where not given.
#[derive(Debug, Default, PartialEq)]
struct Flags {
    nodes: Option<u32>,
    src: Option<u32>,
    dst: Option<u32>,
    bytes: Option<u64>,
    cores: Option<u32>,
    pattern: Option<String>,
    policy: Option<String>,
}

/// Parse the `--flag value` pairs after subcommand `cmd`. A flag the
/// subcommand does not take is an error, never silently ignored.
fn parse_flags(cmd: &str, args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
    let supported: &[&str] = match cmd {
        "plan" => &["--nodes", "--src", "--dst", "--bytes"],
        "write" => &["--cores", "--pattern", "--policy"],
        "probe" => &["--nodes", "--src", "--dst"],
        other => return Err(format!("unknown command {other:?}")),
    };
    let mut f = Flags::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if !supported.contains(&arg.as_str()) {
            return Err(format!(
                "unknown flag {arg:?} for {cmd} (supported: {})",
                supported.join(", ")
            ));
        }
        let text = |v: Option<String>, flag: &'static str| v.ok_or(ArgError::MissingValue(flag));
        match arg.as_str() {
            "--nodes" => f.nodes = Some(parse_value("--nodes", args.next())?),
            "--src" => f.src = Some(parse_value("--src", args.next())?),
            "--dst" => f.dst = Some(parse_value("--dst", args.next())?),
            "--bytes" => f.bytes = Some(parse_bytes(&text(args.next(), "--bytes")?)?),
            "--cores" => f.cores = Some(parse_value("--cores", args.next())?),
            "--pattern" => f.pattern = Some(text(args.next(), "--pattern")?),
            _ => f.policy = Some(text(args.next(), "--policy")?),
        }
    }
    Ok(f)
}

/// The partition of `--nodes` (default 512) and the `--src`/`--dst`
/// endpoints (default its first and last node), which must lie in it
/// and differ.
fn partition(f: &Flags) -> Result<(u32, Shape, NodeId, NodeId), String> {
    let nodes = f.nodes.unwrap_or(512);
    let shape = standard_shape(nodes).ok_or(format!("no standard {nodes}-node partition"))?;
    let src = f.src.unwrap_or(0);
    let dst = f.dst.unwrap_or(nodes - 1);
    for (flag, node) in [("--src", src), ("--dst", dst)] {
        if node >= nodes {
            return Err(format!(
                "{flag} {node} is out of range for a {nodes}-node partition (0..{nodes})"
            ));
        }
    }
    if src == dst {
        return Err(format!(
            "--src and --dst are both {src}: a transfer needs two distinct nodes"
        ));
    }
    Ok((nodes, shape, NodeId(src), NodeId(dst)))
}

fn cmd_plan(cache: &PlanCache, flags: &Flags) -> Result<(), String> {
    let (nodes, shape, src, dst) = partition(flags)?;
    let machine = cache.machine(shape, &SimConfig::default());
    let bytes = flags.bytes.unwrap_or(32 << 20);

    let mover = cache.mover(&machine);
    let mut prog = Program::new(&machine);
    let outcome = mover
        .plan(&mut prog, PlanRequest::new(src, dst, bytes))
        .expect("maskless planning is infallible");
    let (handle, decision) = (outcome.handle, outcome.decision);
    let rep = prog.run();

    let mut base = Program::new(&machine);
    let hd = plan_direct(&mut base, src, dst, bytes);
    let t_direct = hd.completed_at(&base.run());

    println!("partition {shape} ({nodes} nodes), {src} -> {dst}, {bytes} bytes");
    println!("decision : {decision:?}");
    println!(
        "planned  : {:.3} GB/s ({:.3} ms)",
        handle.throughput(&rep) / 1e9,
        handle.completed_at(&rep) * 1e3
    );
    println!(
        "direct   : {:.3} GB/s ({:.3} ms)  -> speedup {:.2}x",
        bytes as f64 / t_direct / 1e9,
        t_direct * 1e3,
        t_direct / handle.completed_at(&rep)
    );
    Ok(())
}

fn cmd_write(cache: &PlanCache, flags: &Flags) -> Result<(), String> {
    let cores = flags.cores.unwrap_or(8192);
    let shape = shape_for_cores(cores).ok_or(format!("no standard partition for {cores} cores"))?;
    let machine = cache.machine(shape, &SimConfig::default());
    let map = RankMap::default_map(shape, 16);
    let pattern = flags.pattern.as_deref().unwrap_or("pareto");
    let sizes = match pattern {
        "uniform" => uniform_sizes(map.num_ranks(), 8 << 20, 1),
        "pareto" => pareto_sizes(map.num_ranks(), &ParetoParams::default(), 1),
        "hacc" => bgq_workloads::hacc_workload(cores),
        other => return Err(format!("unknown pattern {other:?} (uniform|pareto|hacc)")),
    };
    let policy = match flags.policy.as_deref().unwrap_or("balanced") {
        "balanced" => AssignPolicy::BalancedGreedy,
        "local" => AssignPolicy::PsetLocal,
        other => return Err(format!("unknown policy {other:?} (balanced|local)")),
    };
    let data = coalesce_to_nodes(&map, &sizes);
    let total: u64 = data.iter().map(|&(_, b)| b).sum();

    let mover = cache.mover(&machine);
    let mut prog = Program::new(&machine);
    let opts = IoMoveOptions {
        policy,
        ..Default::default()
    };
    let plan = mover.plan_sparse_write(&mut prog, &data, &opts);
    let ours = plan.handle.throughput(&prog.run());

    let mut prog = Program::new(&machine);
    let h = bgq_iosys::plan_collective_write(&mut prog, &data, &Default::default());
    let baseline = h.throughput(&prog.run());

    println!(
        "{pattern} write of {:.2} GB on {cores} cores ({} IONs), policy {policy:?}",
        total as f64 / 1e9,
        machine.io_layout().num_ions()
    );
    println!(
        "ours     : {:.3} GB/s ({} aggregators/ION)",
        ours / 1e9,
        plan.num_agg_per_ion
    );
    println!("baseline : {:.3} GB/s", baseline / 1e9);
    println!("improvement: {:.2}x", ours / baseline);
    Ok(())
}

fn cmd_probe(flags: &Flags) -> Result<(), String> {
    let (_, shape, src, dst) = partition(flags)?;
    let r = diversity_report(&shape, Zone::Z2, src, dst);
    println!("partition {shape}, {src} -> {dst}");
    println!("link-disjoint single-proxy paths : {}", r.disjoint_paths);
    println!("theoretical ceiling (2L)         : {}", r.upper_bound);
    println!(
        "mean detour                      : {:.1} hops",
        r.mean_detour_hops
    );
    println!(
        "potential speedup (k/2)          : {:.1}x",
        sdm_core::CostModel::asymptotic_speedup(r.disjoint_paths as u32)
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: sdm <plan|write|probe> [--flag value]...\n  \
                 plan  --nodes N --src I --dst J --bytes 32M\n  \
                 write --cores N --pattern uniform|pareto|hacc [--policy balanced|local]\n  \
                 probe --nodes N --src I --dst J";
    let Some(cmd) = args.first() else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let cache = PlanCache::new();
    let result = parse_flags(cmd, args[1..].iter().cloned()).and_then(|flags| match cmd.as_str() {
        "plan" => cmd_plan(&cache, &flags),
        "write" => cmd_write(&cache, &flags),
        _ => cmd_probe(&flags),
    });
    if let Err(e) = result {
        eprintln!("error: {e}\n{usage}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_bytes_suffixes() {
        assert_eq!(parse_bytes("32M").unwrap(), 32 << 20);
        assert_eq!(parse_bytes("512k").unwrap(), 512 << 10);
        assert_eq!(parse_bytes("1G").unwrap(), 1 << 30);
        assert_eq!(parse_bytes("4096").unwrap(), 4096);
        assert!(parse_bytes("abc").is_err());
    }

    fn flags(cmd: &str, args: &[&str]) -> Result<Flags, String> {
        parse_flags(cmd, args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_flags_pairs() {
        let f = flags("plan", &["--nodes", "512", "--bytes", "32M"]).unwrap();
        assert_eq!((f.nodes, f.bytes), (Some(512), Some(32 << 20)));
        assert!(flags("plan", &["--nodes"]).is_err(), "dangling flag");
        assert!(flags("plan", &["nodash", "v"]).is_err());
        assert!(flags("plan", &["--nodes", "many"]).is_err());
        assert!(flags("nope", &[]).is_err(), "unknown command");
    }

    #[test]
    fn unknown_flags_are_errors_not_defaults() {
        let e = flags("plan", &["--nodez", "64"]).unwrap_err();
        assert!(e.contains("--nodez") && e.contains("--nodes"), "{e}");
        // A flag of another subcommand is unknown here too.
        assert!(flags("probe", &["--bytes", "1M"]).is_err());
        assert!(flags("write", &["--nodes", "512"]).is_err());
    }

    #[test]
    fn out_of_range_endpoints_are_errors_not_panics() {
        let f = flags("plan", &["--src", "99999"]).unwrap();
        let e = partition(&f).unwrap_err();
        assert!(e.contains("--src 99999") && e.contains("512"), "{e}");
        let f = flags("probe", &["--nodes", "128", "--dst", "128"]).unwrap();
        assert!(partition(&f).unwrap_err().contains("--dst 128"));
        let f = flags("probe", &["--nodes", "128", "--dst", "127"]).unwrap();
        let (nodes, _, src, dst) = partition(&f).unwrap();
        assert_eq!((nodes, src, dst), (128, NodeId(0), NodeId(127)));
    }

    #[test]
    fn equal_endpoints_are_errors() {
        for cmd in ["plan", "probe"] {
            let f = flags(cmd, &["--src", "5", "--dst", "5"]).unwrap();
            let e = partition(&f).unwrap_err();
            assert!(e.contains("--src and --dst are both 5"), "{e}");
        }
        // A lone `--dst 0` meets the default `--src 0`.
        let f = flags("probe", &["--dst", "0"]).unwrap();
        assert!(partition(&f).is_err());
    }
}
