//! `simd-serve` — the long-running batched simulation service.
//!
//! The paper's figures are one-shot runs; the roadmap's north star is a
//! system serving heavy traffic. This crate is the loop between the two:
//! a service that accepts many small scenario and sweep jobs, admits
//! them through the `simlint` static analyzer, batches compatible work
//! through the compile-once sweep engine, and survives being killed
//! mid-sweep.
//!
//! ## Protocol
//!
//! Newline-delimited JSON in both directions — over stdin/stdout or a
//! Unix socket ([`serve_unix`]), never the network. Requests are
//! [`scenario::JobRequest`] envelopes:
//!
//! ```text
//! {"type":"submit","id":"j1","scenario":{…}}          queue a scenario
//! {"type":"sweep","id":"s1","recording":"w.jsonl",
//!  "grid":"gpus=1..8;calib=identity,h100",
//!  "deadline":0.5,"out":"res.jsonl"}                  queue a sweep grid
//! {"type":"stats"}                                    service counters
//! {"type":"drain"}                                    run every queued job
//! {"type":"shutdown"}                                 drain, then exit
//! ```
//!
//! Each job streams status events: `queued` → `admitted` or `rejected`
//! (with the simlint diagnostics, or a typed [`QueueFull`] backpressure
//! error) → `running` → `done` with metrics or `failed` with the typed
//! engine error text. EOF on the input behaves like `drain`: admitted
//! work always runs.
//!
//! ## Admission, batching, checkpoints
//!
//! Admission runs `scenario::check_scenario` / `accel_sim::check_workload`
//! *before* enqueueing, so a doomed job is refused in microseconds with
//! the exact error text its replay would have produced. A `drain` takes
//! the whole queue as one batch; sweep jobs sharing a recording (by
//! content digest) share one [`accel_sim::CompiledSweep`] arena, and
//! every grid chunk fans out over the sweep's worker threads, with
//! byte-identical output for any worker count. Long sweeps write a
//! [`accel_sim::SweepCheckpoint`] cursor after every chunk (atomic and
//! durable: fsynced tmp + rename + directory fsync), and a restarted service with `resume` enabled
//! adopts a digest-matching cursor — producing output byte-identical to
//! an uninterrupted run, the same determinism contract the engine suite
//! locks.
//!
//! The scenario *executor* is injected via [`ScenarioExec`]: the engine
//! lives below this crate, but problem construction and the kernel
//! ports live above it in `repro-bench`, whose `simd` binary plugs the
//! real runner in here.

#![forbid(unsafe_code)]

mod service;

#[cfg(unix)]
mod net;

pub use service::{
    Flow, QueueFull, ScenarioExec, ScenarioOutcome, ServeConfig, ServeStats, Service,
    MAX_LINE_BYTES,
};

#[cfg(unix)]
pub use net::serve_unix;
