//! The discrete-event simulation engine.
//!
//! This module is the timing core of the simulator: an indexed event heap
//! on one virtual clock ([`event`]), typed shared resources — per-GPU SM pools,
//! per-GPU PCIe links, per-node NICs ([`resources`]) — and pluggable
//! kernel arbitration ([`policy`]). [`crate::simulate_node`] and
//! [`crate::simulate_node_traced`] are thin single-node wrappers over it;
//! [`simulate_cluster`] replays many nodes against the same clock, with
//! inter-node collectives as network events so congestion emerges from
//! NIC occupancy rather than from a closed-form assumption.
//!
//! The event loop lives in the private `sim` submodule: between events
//! every active flow drains at a constant rate, and each event is a
//! predicted flow completion. [`event`] holds at most one prediction per
//! (rank, flow), re-keyed in place or cancelled when resource membership
//! changes, so the queue never carries a superseded entry. Traces are compiled to a flat per-node segment arena with interned
//! labels before the loop starts — split into calibration-invariant
//! recorded quantities and a per-calibration cost table, so one compile
//! can be replayed under many calibrations (the [`mod@crate::sweep`] hot
//! path) — accounting is settled lazily per resource, and nodes are
//! stepped as independent shards between collective barriers, so the
//! loop is allocation-free and touches only what each event changes.
//! Replays are deterministic — independent of shard scheduling — and, for the legacy single-node configurations,
//! match the analytic replay they replaced to ≤ 1e-9.
//!
//! Failures are typed: every entry point returns [`EngineError`] instead
//! of panicking mid-replay or folding NaN charges into the makespan.

pub mod cluster;
pub mod error;
pub mod event;
pub mod policy;
pub mod resources;
pub(crate) mod sim;

pub use cluster::{
    cluster_collective_bytes, simulate_cluster, simulate_cluster_traced, ClusterResult,
};
pub use error::EngineError;
pub use policy::{GpuSchedContext, KernelReq, SchedulePolicy, SchedulePolicyKind};
pub use resources::{Nic, PcieLink, SmPool};
