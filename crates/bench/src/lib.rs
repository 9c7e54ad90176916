//! The figure-regeneration harness.
//!
//! One module per concern:
//!
//! * [`args`] — shared CLI handling: every binary resolves a
//!   [`scenario::Scenario`] (its figure's defaults, `--scenario <file>`,
//!   flag overrides, `--dump-scenario`) through one parser;
//! * [`runner`] — execute one benchmark configuration (problem ×
//!   implementation × processes × MPS × movement policy) in two halves:
//!   the live half ([`runner::run_live`]) builds every rank's workload and runs
//!   the pipelines recording traces; the replay half ([`runner::replay`]) replays
//!   them through the node-level discrete-event simulation and prices the
//!   inter-node collectives. [`RunConfig`] is the runner-facing
//!   projection of a scenario, [`runner::LiveKey`] the part of it the live half
//!   reads;
//! * [`figures`] — the paper's figures and ablations as data (a default
//!   scenario, live and replay-time axes, a renderer) and the driver that
//!   runs each distinct live configuration once;
//! * [`metrics`] — per-label counters and duration percentiles reduced
//!   from the span traces;
//! * [`traceout`] — Chrome-trace-event / JSONL export behind the
//!   `figures` binary's `--trace-out <path>` flag, plus the round-trip
//!   parser;
//! * [`report`] — aligned text tables and CSV emission under
//!   `target/figures/`.
//!
//! The `figures` binary regenerates the paper's figures and the DESIGN.md
//! ablations (`figures <name>`, or `figures all`); `EXPERIMENTS.md`
//! records paper-vs-measured for all of them, `scenarios/` holds the
//! golden scenario file behind each one, and
//! `tests/golden/figures/` what each prints.

#![forbid(unsafe_code)]

pub mod args;
pub mod figures;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod traceout;

pub use args::{arg_value, has_flag, scenario_from_args};
pub use metrics::{summarize_events, LabelSummary};
pub use runner::{record_run, recorded_workload, run_config, RunConfig, RunOutcome};
pub use traceout::{span_seconds_from_file, write_trace, TraceFormat};
