//! An execution-driven accelerator simulator.
//!
//! The paper this workspace reproduces measures TOAST kernels on Perlmutter
//! GPU nodes (4x NVIDIA A100 + 64-core AMD Milan per node). This crate is
//! the substitution for that hardware: a deterministic cost-model simulator
//! that the two "GPU frameworks" in this workspace (`arrayjit` and
//! `offload`) submit work to.
//!
//! The design separates *execution* from *timing*:
//!
//! * Frameworks execute kernel numerics eagerly on the host (so results are
//!   real and testable), and
//! * record what the target hardware would have done as a trace of
//!   [`trace::Segment`]s on a per-process [`context::Context`] — host
//!   compute, kernel launches (with a [`profile::KernelProfile`] work
//!   descriptor), PCIe transfers, allocations.
//!
//! A discrete-event engine ([`engine`]) then replays the traces of all
//! ranks against typed shared resources on one virtual clock: each GPU is
//! an SM pool arbitrated by a pluggable [`engine::SchedulePolicy`] (the
//! MPS processor-sharing fluid, exclusive context time-slicing as the
//! paper's § 3.1.2 describes, FIFO or priority what-ifs), each PCIe link
//! is a shared channel with optional per-rank asynchronous transfer
//! streams, each node NIC carries inter-node collectives, and host
//! segments run concurrently across ranks. Wall time, per-GPU busy time,
//! queueing, network congestion and out-of-memory conditions all *emerge*
//! from the replay. [`simulate_node`] is the single-node surface over the
//! engine; [`engine::simulate_cluster`] replays many nodes at once.
//!
//! Calibration constants live in [`calib`] and are documented against
//! public A100/Milan specifications; see `DESIGN.md` § 5 for the honesty
//! policy on constants tuned to the paper's measurements.
//!
//! Because traces are pure work descriptors, a run can be **recorded** and
//! later re-priced under a different calibration without re-running any
//! numerics: [`whatif`] serializes the charges as JSONL and replays them
//! through the engine under H100-like, NVLink-like or faster-NIC presets.
//! There is one pricing path: the engine compiles a workload once into a
//! calibration-invariant arena and prices it per calibration with a cost
//! table, for the live replay, a what-if replay and every sweep point
//! alike. [`mod@sweep`] batches replays: one compile of the recorded
//! workload serves an entire calibration × GPU-count × schedule grid (each
//! point materializes only a per-calibration cost vector), with
//! lower-bound pruning against a deadline and Pareto-front extraction
//! over makespan vs hardware cost.
//! Recordings, sweep results and checkpoints, and every other file the
//! workspace reads or writes, go through one JSON codec, [`json`].
//!
//! Everything the engine would reject at replay time is also *statically
//! decidable* from the recorded work description: [`analyze`] checks a
//! workload without executing any events (collective/barrier matching,
//! peak-residency OOM prediction, cost sanity) and emits typed
//! [`analyze::Diagnostic`]s — the admission filter in front of the
//! engine. See `DESIGN.md` § 7.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod calib;
pub mod comm;
pub mod context;
pub mod engine;
pub mod json;
pub mod node;
pub mod profile;
pub mod sweep;
pub mod trace;
pub mod whatif;

pub use analyze::{
    check_calib, check_workload, check_workload_under, AnalyzeConfig, Code, Diagnostic, Locus,
    Report, Severity,
};
pub use calib::{CalibConstraint, CalibError, CpuCalib, DeviceCalib, NetCalib, NodeCalib};
pub use context::{Context, MemoryError};
pub use engine::{
    simulate_cluster, simulate_cluster_traced, ClusterResult, EngineError, SchedulePolicy,
    SchedulePolicyKind,
};
pub use node::{
    simulate_node, simulate_node_traced, GpuSample, NodeConfig, NodeOom, NodeTimeline,
    TimelineEvent, TimelineKind,
};
pub use profile::KernelProfile;
pub use sweep::{
    sweep, sweep_digest, sweep_digest_from, sweep_preflight, workload_digest, CompiledSweep,
    SweepCalib, SweepCheckpoint, SweepPoint, SweepResult, SweepResumeError, SweepSpec,
};
pub use trace::{RankTrace, Segment, SpanEvent, SpanKind, TransferDir};
pub use whatif::{
    CompiledRecording, RecordMeta, RecordedWorkload, Replayed, UnknownPreset, WhatifCalib,
    WhatifError,
};
