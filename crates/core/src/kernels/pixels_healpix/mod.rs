//! `pixels_healpix` — translate detector pointing into HEALPix pixels.
//!
//! For every detector `d` and in-interval sample `s`, rotate the z-axis
//! through `quats[d, s]` and pixelise the resulting line of sight in RING
//! ordering; out-of-interval samples get pixel `-1`.
//!
//! This is the paper's branch-heavy kernel ("many branches, with dozens of
//! variables declared per branch"): the equatorial/polar split and the
//! north/south split diverge across a warp. The offload port pays a
//! divergence factor; the arrayjit port is branch-free but computes *both*
//! sides of every `select` — which is why the paper sees it speed up only
//! 11× against OpenMP offload's 41×.

pub mod cpu;
pub mod jit;
pub mod omp;

use crate::dispatch::KernelId;

/// Flop-equivalents per sample: z-axis rotation, `atan2`, `sqrt`, the
/// floor/remainder chains of both pixelisation arms — scalar libm heavy on
/// the CPU, and (unlike `stokes_weights_IQU`) still compute-bound on the
/// device because divergence inflates the arithmetic.
pub(crate) const FLOPS_PER_ITEM: f64 = 280.0;
/// Bytes per sample: 32 B quaternion read + 8 B pixel write.
pub(crate) const BYTES_PER_ITEM: f64 = 40.0;
/// Warp-divergence multiplier of the offload port: the equatorial/polar
/// branch correlates with sky position, so warps split only near region
/// boundaries.
pub(crate) const OMP_DIVERGENCE: f64 = 1.6;

crate::kernels::dispatch_impl!(KernelId::PixelsHealpix, pixels_healpix, compute);
