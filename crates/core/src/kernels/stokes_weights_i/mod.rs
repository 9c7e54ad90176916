//! `stokes_weights_I` — the trivial intensity-only weight vector.
//!
//! Sets weight component 0 to `1.0` for every in-interval sample. Not part
//! of the benchmark figures (paper footnote 6) but "used for some key CMB
//! experiments", so ported like the rest.

pub mod cpu;
pub mod jit;
pub mod omp;

use crate::dispatch::KernelId;

/// Flops per sample (a single store dominates; count the store setup).
pub(crate) const FLOPS_PER_ITEM: f64 = 1.0;
/// Bytes per sample: one f64 write per nnz stride.
pub(crate) const BYTES_PER_ITEM: f64 = 8.0;

crate::kernels::dispatch_impl!(KernelId::StokesWeightsI, stokes_weights_i, compute);
