//! The ten TOAST kernels, each in three implementations.
//!
//! Every kernel `k` lives in `kernels/k/` with:
//!
//! * `mod.rs` — the dispatch entry point and shared documentation,
//! * `cpu.rs` — the rayon-parallel host baseline ("OpenMP CPU"),
//! * `omp.rs` — the directive-style offload port ("OpenMP Target
//!   Offload"): explicit device buffers, collapsed loops to the maximum
//!   interval length with an in-body guard,
//! * `jit.rs` — the traced arrayjit port ("JAX"): pure, padded to dense
//!   `[n_det × n_samp]` arrays with a 0/1 interval mask (dummy work on
//!   padding, as the paper describes).
//!
//! The file layout is intentional: the LoC figures (paper Fig. 2–3) are
//! regenerated by counting these files per implementation.
//!
//! All three implementations of a kernel must produce identical results on
//! the same inputs — the cross-implementation equivalence tests in
//! `tests/` are the strongest correctness check in the workspace.

pub mod support;

/// Generates a kernel's `run` dispatch function: resolve the configured
/// [`ImplKind`](crate::dispatch::ImplKind) and route to `cpu::run`,
/// `omp::run` or `jit::run` with the right store and JIT cache slot. A
/// kernel in [`REUSABLE_KERNELS`] names a trailing `compute` flag, which
/// `run` takes and passes on to every implementation.
macro_rules! dispatch_impl {
    ($kernel:expr, $jit_field:ident $(, $compute:ident)?) => {
        /// Dispatch to the selected implementation (see
        /// [`crate::dispatch::ImplSelection`]). Device implementations
        /// error when the pipeline failed to stage a buffer they touch.
        pub fn run(
            ctx: &mut accel_sim::Context,
            exec: &mut crate::kernels::ExecCtx,
            ws: &mut crate::workspace::Workspace,
            $($compute: bool,)?
        ) -> Result<(), crate::memory::ResidencyError> {
            use crate::dispatch::ImplKind;
            use crate::memory::AccelStore;
            let crate::kernels::ExecCtx {
                selection,
                threads,
                store,
                jits,
            } = exec;
            match selection.resolve($kernel) {
                ImplKind::Cpu => {
                    cpu::run(ctx, *threads, ws $(, $compute)?);
                    Ok(())
                }
                ImplKind::OmpTarget => match store {
                    AccelStore::Omp(s) => omp::run(ctx, s, ws $(, $compute)?),
                    _ => panic!("OmpTarget selected without an Omp store"),
                },
                kind => match store {
                    AccelStore::Jit(s) => {
                        let backend = match kind {
                            ImplKind::JitCpu => arrayjit::Backend::Cpu,
                            _ => arrayjit::Backend::Device,
                        };
                        jit::run(ctx, backend, s, &mut jits.$jit_field, ws $(, $compute)?)
                    }
                    _ => panic!("Jit selected without a Jit store"),
                },
            }
        }
    };
}
pub(crate) use dispatch_impl;

pub mod build_noise_weighted;
pub mod noise_weight;
pub mod pixels_healpix;
pub mod pointing_detector;
pub mod scan_map;
pub mod stokes_weights_i;
pub mod stokes_weights_iqu;
pub mod template_offset_add_to_signal;
pub mod template_offset_apply_diag_precond;
pub mod template_offset_project_signal;

use accel_sim::Context;
use arrayjit::Jit;

use crate::dispatch::{ImplKind, ImplSelection, KernelId};
use crate::memory::AccelStore;
use crate::workspace::Workspace;

/// The per-process cache of JIT'd kernel programs (JAX keeps compiled
/// executables per function; so do we — one [`Jit`] per kernel).
/// [`JitKernels::share`] gives another process its own handles on the
/// same compiled programs.
pub struct JitKernels {
    pub pointing_detector: Jit,
    pub pixels_healpix: Jit,
    pub stokes_weights_i: Jit,
    pub stokes_weights_iqu: Jit,
    pub scan_map: Jit,
    pub noise_weight: Jit,
    pub build_noise_weighted: Jit,
    pub template_offset_add_to_signal: Jit,
    pub template_offset_project_signal: Jit,
    pub template_offset_apply_diag_precond: Jit,
}

impl Default for JitKernels {
    fn default() -> Self {
        Self::new()
    }
}

impl JitKernels {
    /// Build the (untraced) JIT wrappers; tracing/compilation happens on
    /// first call per signature.
    pub fn new() -> Self {
        Self {
            pointing_detector: pointing_detector::jit::build(),
            pixels_healpix: pixels_healpix::jit::build(),
            stokes_weights_i: stokes_weights_i::jit::build(),
            stokes_weights_iqu: stokes_weights_iqu::jit::build(),
            scan_map: scan_map::jit::build(),
            noise_weight: noise_weight::jit::build(),
            build_noise_weighted: build_noise_weighted::jit::build(),
            template_offset_add_to_signal: template_offset_add_to_signal::jit::build(),
            template_offset_project_signal: template_offset_project_signal::jit::build(),
            template_offset_apply_diag_precond: template_offset_apply_diag_precond::jit::build(),
        }
    }

    /// Handles for another process: no signatures of their own yet, and
    /// the programs `self` and every other share compile, once each.
    pub fn share(&self) -> Self {
        Self {
            pointing_detector: self.pointing_detector.share(),
            pixels_healpix: self.pixels_healpix.share(),
            stokes_weights_i: self.stokes_weights_i.share(),
            stokes_weights_iqu: self.stokes_weights_iqu.share(),
            scan_map: self.scan_map.share(),
            noise_weight: self.noise_weight.share(),
            build_noise_weighted: self.build_noise_weighted.share(),
            template_offset_add_to_signal: self.template_offset_add_to_signal.share(),
            template_offset_project_signal: self.template_offset_project_signal.share(),
            template_offset_apply_diag_precond: self.template_offset_apply_diag_precond.share(),
        }
    }
}

/// Everything a kernel dispatch needs besides the workspace.
pub struct ExecCtx {
    /// Which implementation each kernel uses.
    pub selection: ImplSelection,
    /// Host threads available to CPU kernels (64 / processes on the
    /// modelled node).
    pub threads: u32,
    /// Device-side storage in the selected framework's style.
    pub store: AccelStore,
    /// Compiled-program cache for the JIT port.
    pub jits: JitKernels,
}

impl ExecCtx {
    /// A context running every kernel with `kind`, with JIT handles of
    /// its own.
    pub fn new(kind: ImplKind, threads: u32) -> Self {
        Self::with_jits(kind, threads, JitKernels::new())
    }

    /// A context running every kernel with `kind` through `jits` (for
    /// one rank of a run: [`JitKernels::share`]).
    pub fn with_jits(kind: ImplKind, threads: u32, jits: JitKernels) -> Self {
        let store = match kind {
            ImplKind::OmpTarget => AccelStore::omp(),
            ImplKind::Jit => AccelStore::jit(),
            // The JIT CPU backend keeps its arrays in host memory.
            ImplKind::JitCpu => AccelStore::jit_host(),
            ImplKind::Cpu => AccelStore::None,
        };
        Self {
            selection: ImplSelection::all(kind),
            threads,
            store,
            jits,
        }
    }
}

/// Dispatch one kernel against the workspace.
///
/// For device implementations the pipeline must have made the kernel's
/// buffers resident first (see [`crate::pipeline`]); kernel-level tests do
/// this by hand. A missing buffer surfaces as a
/// [`crate::memory::ResidencyError`] naming it.
pub fn run_kernel(
    ctx: &mut Context,
    exec: &mut ExecCtx,
    ws: &mut Workspace,
    kernel: KernelId,
) -> Result<(), crate::memory::ResidencyError> {
    dispatch(ctx, exec, ws, kernel, true)
}

/// [`run_kernel`] with the numerics of a [`REUSABLE_KERNELS`] kernel
/// switched by `compute`. With `compute` false the kernel is charged and
/// checks residency in full, but writes nothing: the caller vouches that
/// its outputs already hold what it would store. Every other kernel
/// always computes.
pub(crate) fn dispatch(
    ctx: &mut Context,
    exec: &mut ExecCtx,
    ws: &mut Workspace,
    kernel: KernelId,
    compute: bool,
) -> Result<(), crate::memory::ResidencyError> {
    match kernel {
        KernelId::PointingDetector => pointing_detector::run(ctx, exec, ws, compute),
        KernelId::PixelsHealpix => pixels_healpix::run(ctx, exec, ws, compute),
        KernelId::StokesWeightsI => stokes_weights_i::run(ctx, exec, ws, compute),
        KernelId::StokesWeightsIqu => stokes_weights_iqu::run(ctx, exec, ws, compute),
        KernelId::ScanMap => scan_map::run(ctx, exec, ws),
        KernelId::NoiseWeight => noise_weight::run(ctx, exec, ws),
        KernelId::BuildNoiseWeighted => build_noise_weighted::run(ctx, exec, ws),
        KernelId::TemplateOffsetAddToSignal => template_offset_add_to_signal::run(ctx, exec, ws),
        KernelId::TemplateOffsetProjectSignal => template_offset_project_signal::run(ctx, exec, ws),
        KernelId::TemplateOffsetApplyDiagPrecond => {
            template_offset_apply_diag_precond::run(ctx, exec, ws)
        }
    }
}

/// The cost-model constants of a kernel's inner loop:
/// `(flops_per_item, bytes_per_item)` — exported so workload generators
/// can estimate CPU kernel time when sizing the unported host fraction.
pub fn cost_constants(kernel: KernelId) -> (f64, f64) {
    match kernel {
        KernelId::PointingDetector => (
            pointing_detector::FLOPS_PER_ITEM,
            pointing_detector::BYTES_PER_ITEM,
        ),
        KernelId::PixelsHealpix => (
            pixels_healpix::FLOPS_PER_ITEM,
            pixels_healpix::BYTES_PER_ITEM,
        ),
        KernelId::StokesWeightsI => (
            stokes_weights_i::FLOPS_PER_ITEM,
            stokes_weights_i::BYTES_PER_ITEM,
        ),
        KernelId::StokesWeightsIqu => (
            stokes_weights_iqu::FLOPS_PER_ITEM,
            stokes_weights_iqu::BYTES_PER_ITEM,
        ),
        KernelId::ScanMap => (scan_map::FLOPS_PER_ITEM, scan_map::BYTES_PER_ITEM),
        KernelId::NoiseWeight => (noise_weight::FLOPS_PER_ITEM, noise_weight::BYTES_PER_ITEM),
        KernelId::BuildNoiseWeighted => (
            build_noise_weighted::FLOPS_PER_ITEM,
            build_noise_weighted::BYTES_PER_ITEM,
        ),
        KernelId::TemplateOffsetAddToSignal => (
            template_offset_add_to_signal::FLOPS_PER_ITEM,
            template_offset_add_to_signal::BYTES_PER_ITEM,
        ),
        KernelId::TemplateOffsetProjectSignal => (
            template_offset_project_signal::FLOPS_PER_ITEM,
            template_offset_project_signal::BYTES_PER_ITEM,
        ),
        KernelId::TemplateOffsetApplyDiagPrecond => (
            template_offset_apply_diag_precond::FLOPS_PER_ITEM,
            template_offset_apply_diag_precond::BYTES_PER_ITEM,
        ),
    }
}

/// Buffers a kernel reads (the pipeline uploads these lazily).
pub fn kernel_inputs(kernel: KernelId) -> &'static [crate::workspace::BufferId] {
    use crate::workspace::BufferId as B;
    match kernel {
        KernelId::PointingDetector => &[B::Boresight, B::FpQuats],
        KernelId::PixelsHealpix => &[B::Quats],
        KernelId::StokesWeightsI => &[B::Quats],
        KernelId::StokesWeightsIqu => &[B::Quats, B::DetEpsilon],
        KernelId::ScanMap => &[B::SkyMap, B::Pixels, B::Weights],
        KernelId::NoiseWeight => &[B::DetWeights],
        KernelId::BuildNoiseWeighted => &[B::Pixels, B::Weights, B::Signal, B::DetWeights],
        KernelId::TemplateOffsetAddToSignal => &[B::Amplitudes],
        KernelId::TemplateOffsetProjectSignal => &[B::Signal],
        KernelId::TemplateOffsetApplyDiagPrecond => &[B::Amplitudes, B::Precond],
    }
}

/// The kernels that are idempotent over their declared buffers: each
/// writes part of its outputs (the in-interval samples; for
/// `stokes_weights_I` only their intensity component) from
/// [`kernel_inputs`] alone and leaves the rest as it was. Running one
/// again before any of its inputs or outputs is written stores the bits
/// already there, so a pipeline may charge such a call without computing
/// it (see [`crate::pipeline::Pipeline::run`]). A kernel that accumulates
/// into its output (`scan_map`, `noise_weight`, `build_noise_weighted`,
/// the template offsets) must never be listed.
pub const REUSABLE_KERNELS: [KernelId; 4] = [
    KernelId::PointingDetector,
    KernelId::PixelsHealpix,
    KernelId::StokesWeightsI,
    KernelId::StokesWeightsIqu,
];

/// Buffers a kernel writes (also made resident; copied back at pipeline
/// boundaries when requested).
pub fn kernel_outputs(kernel: KernelId) -> &'static [crate::workspace::BufferId] {
    use crate::workspace::BufferId as B;
    match kernel {
        KernelId::PointingDetector => &[B::Quats],
        KernelId::PixelsHealpix => &[B::Pixels],
        KernelId::StokesWeightsI | KernelId::StokesWeightsIqu => &[B::Weights],
        KernelId::ScanMap => &[B::Signal],
        KernelId::NoiseWeight => &[B::Signal],
        KernelId::BuildNoiseWeighted => &[B::ZMap],
        KernelId::TemplateOffsetAddToSignal => &[B::Signal],
        KernelId::TemplateOffsetProjectSignal => &[B::AmpOut],
        KernelId::TemplateOffsetApplyDiagPrecond => &[B::AmpOut],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_declares_io() {
        for k in KernelId::ALL {
            assert!(!kernel_inputs(k).is_empty(), "{k:?} inputs");
            assert!(!kernel_outputs(k).is_empty(), "{k:?} outputs");
        }
    }

    #[test]
    fn a_reused_call_is_charged_what_a_computed_call_is() {
        use crate::testutil::test_workspace;
        use crate::workspace::BufferId;
        use accel_sim::NodeCalib;

        let output_bits = |ws: &Workspace, id: BufferId| -> Vec<u64> {
            if id.is_integer() {
                ws.obs.pixels.iter().map(|&p| p as u64).collect()
            } else {
                ws.f64_slice(id).iter().map(|v| v.to_bits()).collect()
            }
        };
        for kind in [
            ImplKind::Cpu,
            ImplKind::OmpTarget,
            ImplKind::Jit,
            ImplKind::JitCpu,
        ] {
            for kernel in REUSABLE_KERNELS {
                let run = |compute: bool| {
                    let mut ws = test_workspace(3, 90, 8);
                    let mut ctx = Context::new(NodeCalib::default());
                    let mut exec = ExecCtx::new(kind, 4);
                    for id in BufferId::ALL {
                        exec.store.ensure_device(&mut ctx, &ws, id).unwrap();
                    }
                    dispatch(&mut ctx, &mut exec, &mut ws, kernel, compute).unwrap();
                    for id in BufferId::ALL {
                        exec.store.update_host(&mut ctx, &mut ws, id);
                    }
                    (ctx.into_trace(), ws)
                };
                let ((computed, _), (reused, ws)) = (run(true), run(false));
                assert_eq!(computed, reused, "{kind} {kernel:?}");
                let untouched = test_workspace(3, 90, 8);
                for &id in kernel_outputs(kernel) {
                    assert_eq!(
                        output_bits(&ws, id),
                        output_bits(&untouched, id),
                        "{kind} {kernel:?} wrote {id:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn exec_ctx_store_matches_kind() {
        assert!(matches!(
            ExecCtx::new(ImplKind::OmpTarget, 4).store,
            AccelStore::Omp(_)
        ));
        assert!(matches!(
            ExecCtx::new(ImplKind::Jit, 4).store,
            AccelStore::Jit(_)
        ));
        assert!(matches!(
            ExecCtx::new(ImplKind::Cpu, 4).store,
            AccelStore::None
        ));
    }
}
