//! An OpenMP-Target-Offload-like directive API over the simulated
//! accelerator.
//!
//! This crate is the workspace's stand-in for `#pragma omp target` code
//! compiled with NVHPC, reproducing the programming model of the paper's
//! OpenMP port:
//!
//! * **Explicit device memory**: [`buffer::DeviceBuffer`] is device-resident
//!   storage allocated through [`pool::Pool`], the manually implemented
//!   memory pool the paper built on top of `omp_target_alloc` (§ 3.1.2).
//! * **Map clauses** ([`map`]): `map(to:)`, `map(from:)`, `map(tofrom:)`
//!   and `update` transfers, each charged PCIe time.
//! * **Target regions** ([`target`]): `target teams distribute parallel
//!   for` with `collapse`, executing the loop body eagerly on host data
//!   while charging the device cost model. Work descriptors carry the
//!   per-item flops/bytes and a divergence factor — the paper's
//!   max-interval iteration guard is exactly such a divergent conditional.
//!
//! Unlike [`arrayjit`](../arrayjit/index.html), nothing is traced or
//! fused: what you launch is what runs, with low per-region overhead but
//! manual data movement — the trade-off the paper measures.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod map;
pub mod pool;
pub mod target;

pub use buffer::DeviceBuffer;
pub use map::{map_from, map_to, map_tofrom, update_device, update_host};
pub use pool::{Pool, PoolStats};
pub use target::{
    charge_collapse3, target_parallel_for, target_parallel_for_collapse3, KernelSpec,
};
