//! Shared CLI handling for the fig binaries, built on the scenario spec.
//!
//! Every binary follows the same contract:
//!
//! 1. it declares a *default* [`Scenario`] (the configuration its figure
//!    was defined with — the same values the golden file under
//!    `scenarios/` holds);
//! 2. `--scenario <file>` replaces those defaults wholesale;
//! 3. individual flags (`--scale`, `--procs`, `--impl`, …) override on
//!    top, whichever base was chosen, so existing invocations keep
//!    working — the flags now *parse into* the scenario rather than
//!    bypassing it;
//! 4. `--dump-scenario` prints the resolved scenario as canonical JSON
//!    and exits, which is both the way golden files are generated and the
//!    CI round-trip check (`fig… --scenario f --dump-scenario | diff - f`).
//!
//! Malformed values abort with exit code 2 rather than silently running
//! the wrong experiment.

use scenario::{ProblemSize, Scenario};

/// The value following `--<flag>` in argv, if present.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether a bare `--<flag>` is present in argv.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Print `error: <msg>` and exit with code 2: the input (a flag, a file,
/// the invocation) is at fault.
pub fn bail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Print `error: <msg>` and exit with code 1: the work itself failed.
pub fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Parse the value of `--<flag>`, aborting on malformed input.
pub fn parsed_value<T>(flag: &str) -> Option<T>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    arg_value(flag).map(|v| {
        v.parse()
            .unwrap_or_else(|e| bail(format!("{flag} '{v}': {e}")))
    })
}

/// Resolve the run's scenario: the binary's `default`, replaced by
/// `--scenario <file>` when given, with flag overrides applied on top.
/// Handles `--dump-scenario` (print canonical JSON, exit 0). The result
/// is validated — an invalid combination aborts before any work runs.
pub fn scenario_from_args(default: Scenario) -> Scenario {
    let mut s = match arg_value("--scenario") {
        Some(path) => Scenario::read(&path).unwrap_or_else(|e| bail(format!("{path}: {e}"))),
        None => default,
    };
    apply_overrides(&mut s);
    if let Err(e) = s.validate() {
        bail(e);
    }
    if has_flag("--dump-scenario") {
        print!("{}", s.to_json());
        std::process::exit(0);
    }
    s
}

fn apply_overrides(s: &mut Scenario) {
    if let Some(size) = arg_value("--size") {
        s.problem.size = match size.as_str() {
            "medium" => ProblemSize::Medium,
            "large" => ProblemSize::Large,
            other => bail(format!("--size '{other}': expected medium or large")),
        };
    }
    s.problem.scale = parsed_value("--scale").unwrap_or(s.problem.scale);
    s.kind = parsed_value("--impl").unwrap_or(s.kind);
    s.procs_per_node = parsed_value("--procs").unwrap_or(s.procs_per_node);
    s.gpus = parsed_value("--gpus").unwrap_or(s.gpus);
    s.nodes = parsed_value("--nodes").or(s.nodes);
    s.schedule = parsed_value("--schedule").unwrap_or(s.schedule);
    s.movement = parsed_value("--movement").unwrap_or(s.movement);
    // `--no-x` wins over `--x` when both are given.
    s.mps = !has_flag("--no-mps") && (s.mps || has_flag("--mps"));
    s.overlap_transfers =
        !has_flag("--no-overlap") && (s.overlap_transfers || has_flag("--overlap"));
    s.output.trace_out = arg_value("--trace-out").or(s.output.trace_out.take());
    s.output.record_out = arg_value("--record").or(s.output.record_out.take());
}
