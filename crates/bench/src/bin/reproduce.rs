//! The figure driver: regenerates the paper's figures from the registry
//! in [`bgq_bench::figures`].
//!
//! ```text
//! reproduce [FIGURE...] [--threads N] [--timing] [--max-cores N] [--seed N]
//!           [--csv] [--observe] [--metrics-out PATH] [--trace-out PATH]
//!           [--profile-out PATH] [--manifest-out PATH]
//! ```
//!
//! With no `FIGURE` it writes every registry figure to its committed
//! file under `results/` (about 20 s on two threads; `--csv` is
//! rejected there, since each file keeps its own format). With `FIGURE`
//! operands it prints those figures to stdout, byte-identical to their
//! committed files unless `--csv` asks for bare CSV tables.
//!
//! `--metrics-out`, `--trace-out`, `--profile-out` and `--manifest-out`
//! need exactly one named figure that has the artifact; `--observe`
//! writes `results/obs/<figure>.metrics.csv` and, where the figure has
//! one, `results/obs/<figure>.trace.json` for each selected figure. A
//! request that cannot be met exits 2 before anything is written.

use bgq_bench::args::REPRODUCE;
use bgq_bench::figures::{produce, select, Format};
use bgq_bench::{write_or_exit, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let figures = select(&args).unwrap_or_else(|e| REPRODUCE.exit_usage(e));
    let to_files = args.positional.is_empty();
    for fig in figures {
        let format = if args.csv { Format::Csv } else { fig.format() };
        let (text, artifacts) =
            produce(fig, &args, format).unwrap_or_else(|e| REPRODUCE.exit_usage(e));
        if to_files {
            write_or_exit(&format!("results/{}", fig.file), &text);
        } else {
            print!("{text}");
        }
        for (path, contents) in &artifacts {
            write_or_exit(path, contents);
        }
    }
}
