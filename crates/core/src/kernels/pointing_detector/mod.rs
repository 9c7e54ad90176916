//! `pointing_detector` — expand boresight pointing into detector pointing.
//!
//! For every detector `d` and in-interval sample `s`:
//!
//! ```text
//! quats[d, s] = boresight[s] ⊗ fp_quats[d]
//! ```
//!
//! A pure quaternion-multiply kernel: 28 flops per sample, streaming reads
//! of the boresight and streaming writes of the expanded pointing.

pub mod cpu;
pub mod jit;
pub mod omp;

use crate::dispatch::KernelId;

/// Flops per sample (one quaternion product).
pub(crate) const FLOPS_PER_ITEM: f64 = 28.0;
/// Bytes per sample: 32 B boresight read + 32 B quaternion write (the
/// per-detector offset quaternion stays in registers/cache).
pub(crate) const BYTES_PER_ITEM: f64 = 64.0;

crate::kernels::dispatch_impl!(KernelId::PointingDetector, pointing_detector, compute);
