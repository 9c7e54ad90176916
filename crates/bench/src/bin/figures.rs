//! The paper's figures and ablations (DESIGN.md § 6, EXPERIMENTS.md).
//!
//! Usage: `figures <name> [--scenario <file>] [--scale <f>] [--procs <n>]
//! [--nodes <n>] [--schedule <policy>] [--trace-out <path>] [...]
//! [--dump-scenario]` prints one of them; the names are those of
//! `scenarios/*.json` (fig2_loc, fig3_loc_per_kernel,
//! fig4_process_scaling, fig5_full_benchmark, fig6_per_kernel,
//! ablation_data_movement, ablation_mps, ablation_mempool). The scenario
//! is the figure's *base* configuration: the figure sweeps its own axes on
//! top of it. With `--trace-out`, each configuration writes a Chrome-trace
//! (`.json`) or JSONL (`.jsonl`) file named after it.
//!
//! `figures all` (no flags) prints every figure at its default scenario,
//! running each distinct live configuration once. CSVs land under
//! `target/figures/`. Errors print `error: …` and exit 2.

use repro_bench::args::bail;
use repro_bench::figures::{self, FIGURES};
use repro_bench::scenario_from_args;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figs = match args.first().map(String::as_str) {
        Some("all") if args.len() == 1 => FIGURES.iter().map(|f| (f, (f.default)())).collect(),
        Some("all") => bail("`figures all` takes no flags"),
        Some(name) => match figures::find(name) {
            Some(f) => vec![(f, scenario_from_args((f.default)()))],
            None => bail(format!("unknown figure '{name}'; {}", usage())),
        },
        None => bail(usage()),
    };
    if let Err(e) = figures::run(&figs) {
        bail(e);
    }
}

fn usage() -> String {
    let names = FIGURES.each_ref().map(|f| f.name).join("|");
    format!("usage: figures <all|{names}> [--scenario <file>] [flags]")
}
