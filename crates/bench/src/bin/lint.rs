//! `lint` — static pre-flight analysis of scenarios and recordings.
//!
//! ```text
//! lint --scenario <scenario.json>    [--format json]
//! lint --recording <workload.jsonl>  [--format json]
//! ```
//!
//! Runs `simlint` (the analyzer family in `accel_sim::analyze` and
//! `scenario::check_scenario`) over the input without executing a single
//! event, and prints the findings as a human table or as JSONL
//! (`--format json`, one diagnostic object per line). See `DESIGN.md`
//! § 7 for the diagnostic codes and each pass's soundness contract.
//!
//! Exit status is the admission decision, so the binary works as a CI
//! gate: `0` — clean or warnings only (the engine will accept the
//! input), `1` — at least one error-severity finding (the run is proven
//! or presumed unable to complete), `2` — usage or unreadable input.

use std::path::Path;
use std::process::exit;

use accel_sim::whatif::RecordedWorkload;
use accel_sim::{check_workload, Report};
use repro_bench::arg_value;
use repro_bench::args::bail;
use repro_bench::report::Table;
use scenario::{check_scenario, Scenario};

fn main() {
    let report = match (arg_value("--scenario"), arg_value("--recording")) {
        (Some(path), None) => {
            let s = Scenario::read(Path::new(&path))
                .unwrap_or_else(|e| bail(format!("cannot load {path}: {e}")));
            println!("linting scenario {path} ('{}')", s.name);
            check_scenario(&s)
        }
        (None, Some(path)) => {
            let w = RecordedWorkload::read(Path::new(&path))
                .unwrap_or_else(|e| bail(format!("cannot load {path}: {e}")));
            println!(
                "linting recording {path} ('{}', {} rank(s))",
                w.meta.label,
                w.nodes.iter().map(|n| n.len()).sum::<usize>()
            );
            check_workload(&w)
        }
        _ => {
            eprintln!("usage: lint --scenario <file> | --recording <file> [--format json]");
            exit(2);
        }
    };

    match arg_value("--format").as_deref() {
        Some("json") => print!("{}", report.to_jsonl()),
        Some(other) => bail(format!("unknown --format '{other}' (expected 'json')")),
        None => print_human(&report),
    }

    exit(if report.is_clean() { 0 } else { 1 });
}

fn print_human(report: &Report) {
    if report.diagnostics.is_empty() {
        println!("clean: no findings");
        return;
    }
    let mut table = Table::new("code severity where message suggestion");
    for d in &report.diagnostics {
        table.row(vec![
            d.code.to_string(),
            d.severity.to_string(),
            d.locus.render(),
            d.message.clone(),
            d.suggestion.clone().unwrap_or_default(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "{} error(s), {} warning(s)",
        report.errors().count(),
        report.warnings().count()
    );
}
