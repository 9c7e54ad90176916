//! `simd` — the long-running batched simulation service.
//!
//! ```text
//! simd [--socket <path>] [--queue-bound <n>] [--checkpoint-dir <dir>]
//!      [--checkpoint-every <points>] [--resume]
//! ```
//!
//! Speaks the newline-delimited JSON protocol documented in the
//! `simd-serve` crate: over stdin/stdout by default (one session,
//! batch-friendly for shells and pipes), or over a Unix socket with
//! `--socket` (many sequential client connections, shared queue and
//! counters). Jobs are admitted through `simlint`, batched per drain,
//! and long sweeps checkpoint to `--checkpoint-dir` so a killed process
//! restarted with `--resume` finishes the grid with output
//! byte-identical to an uninterrupted run.
//!
//! This binary is only glue: it parses flags, plugs the real scenario
//! runner (the same [`repro_bench::run_config`] path every figure binary
//! uses, so a served makespan is bit-identical to a standalone run) into
//! the service as its executor, and picks the transport.
//!
//! `SIMD_SERVE_CHUNK_SLEEP_MS` (env) inserts a pause after each
//! non-final sweep checkpoint — a test hook giving kill/resume harnesses
//! a deterministic window to land the kill in; unset means no pause.

use std::io::{self, BufReader};
use std::path::PathBuf;
use std::process::exit;

use repro_bench::args::{bail, fail, parsed_value};
use repro_bench::{arg_value, has_flag, run_config, runner::RunConfig};
use scenario::Scenario;
use simd_serve::{ScenarioExec, ScenarioOutcome, ServeConfig, Service};

/// The real executor: scenario → [`RunConfig`] → engine, exactly the
/// standalone `--scenario` path.
struct Runner;

impl ScenarioExec for Runner {
    fn run_scenario(&mut self, s: &Scenario) -> Result<ScenarioOutcome, String> {
        let cfg = RunConfig::from_scenario(s).map_err(|e| e.to_string())?;
        let out = run_config(&cfg).map_err(|e| e.to_string())?;
        let node_wall = out.node_wall.as_ref().map_err(Clone::clone)?;
        Ok(ScenarioOutcome {
            makespan: node_wall + out.comm_seconds,
            node_wall: *node_wall,
            comm_seconds: out.comm_seconds,
            transfer_bytes: out.transfer_bytes,
            segments: out.traces.iter().map(|t| t.segments.len()).sum(),
        })
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: simd [--socket <path>] [--queue-bound <n>] \
         [--checkpoint-dir <dir>] [--checkpoint-every <points>] [--resume]"
    );
    exit(2);
}

fn main() {
    if has_flag("--help") || has_flag("-h") {
        usage();
    }
    let mut cfg = ServeConfig::default();
    if let Some(bound) = parsed_value::<usize>("--queue-bound") {
        if bound == 0 {
            bail("--queue-bound must be at least 1")
        }
        cfg.queue_bound = bound;
    }
    if let Some(dir) = arg_value("--checkpoint-dir") {
        let dir = PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            bail(format!("cannot create {}: {e}", dir.display()));
        }
        cfg.checkpoint_dir = Some(dir);
    }
    if let Some(every) = parsed_value::<usize>("--checkpoint-every") {
        cfg.checkpoint_every = every.max(1);
    }
    cfg.resume = has_flag("--resume");
    if let Ok(ms) = std::env::var("SIMD_SERVE_CHUNK_SLEEP_MS") {
        cfg.chunk_sleep_ms = ms.parse().unwrap_or(0);
    }

    let mut service = Service::new(cfg, Runner);
    let result = match arg_value("--socket") {
        Some(path) => simd_serve::serve_unix(&mut service, std::path::Path::new(&path)),
        None => {
            let stdin = io::stdin();
            service
                .serve(BufReader::new(stdin.lock()), io::stdout().lock())
                .map(|_| ())
        }
    };
    if let Err(e) = result {
        fail(e)
    }
}
