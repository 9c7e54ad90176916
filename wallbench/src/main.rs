//! The repository's wall-clock benchmark.
//!
//! ```text
//! wallbench --workload <live|whatif_sweep|serve_jobs> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` one workload runs untraced and the last stdout line
//! carries its end-to-end metrics. With `--trace 1` the run is the
//! per-layer decomposition: every layer is timed on the workload where it
//! does its work (the named workload first, then the other two), spans
//! are written to `.bench_trace/`, and the last line carries the
//! per-layer metrics. See `NOTES.md` for the workloads and metric map.

mod gen;
mod live;
mod measure;
mod serve_jobs;
mod whatif_sweep;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::{result_line, Metrics, Outcome, Tracer};

const WORKLOADS: [&str; 3] = ["live", "whatif_sweep", "serve_jobs"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or(format!("{flag} needs a value")),
        }
    };
    let workload = value("--workload")?
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .map_or(Ok(1), str::parse)
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .map_or(Ok(20.0), str::parse)
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_untraced(workload: &str, seed: u64, seconds: f64) -> Outcome {
    match workload {
        "live" => live::run(seed, seconds),
        "whatif_sweep" => whatif_sweep::run(seed, seconds),
        _ => serve_jobs::run(seed, seconds),
    }
}

/// The per-layer run: each workload's traced part gets an equal share of
/// `seconds`, the requested workload first; metrics are reported in the
/// fixed `WORKLOADS` order.
fn run_traced(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let first = WORKLOADS.iter().position(|w| *w == workload).unwrap_or(0);
    let share = seconds / WORKLOADS.len() as f64;
    let mut tracer = Tracer::default();
    let mut parts: Vec<Option<Metrics>> = WORKLOADS.iter().map(|_| None).collect();
    let mut total = Outcome::default();
    for i in (0..WORKLOADS.len()).map(|k| (first + k) % WORKLOADS.len()) {
        let part = match WORKLOADS[i] {
            "live" => live::trace(seed, share, &mut tracer),
            "whatif_sweep" => whatif_sweep::trace(seed, share, &mut tracer),
            _ => serve_jobs::trace(seed, share, &mut tracer),
        };
        eprintln!(
            "wallbench: traced {}: inputs digest {:016x}",
            WORKLOADS[i], part.digest
        );
        total.attempted += part.attempted;
        total.failed += part.failed;
        total.errors.extend(part.errors);
        total.digest ^= part.digest;
        parts[i] = Some(part.metrics);
    }
    total.metrics = Metrics(parts.into_iter().flatten().flat_map(|m| m.0).collect());
    let path = PathBuf::from(".bench_trace").join(format!("{workload}-seed{seed}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        total
            .errors
            .push(format!("cannot write {}: {e}", path.display()));
        total.failed += 1;
    }
    total
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        run_traced(&args.workload, args.seed, args.seconds)
    } else {
        run_untraced(&args.workload, args.seed, args.seconds)
    };
    for e in &outcome.errors {
        eprintln!("wallbench: check failed: {e}");
    }
    println!(
        "wallbench: workload {} seed {} inputs digest {:016x}",
        args.workload, args.seed, outcome.digest
    );
    let correct = outcome.failed == 0 && outcome.errors.is_empty() && outcome.attempted > 0;
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    ExitCode::SUCCESS
}
