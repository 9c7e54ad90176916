//! Property tests for the premise of the pipeline's reuse rule.
//!
//! `Pipeline::run` charges a kernel in `REUSABLE_KERNELS` without
//! computing it when none of its declared inputs and outputs has been
//! written since it last computed. That is sound only if running such a
//! kernel twice leaves its outputs exactly as running it once does. This
//! file checks that, for every kernel the list names, in every style, on
//! workspaces of random size whose intervals leave padded gaps and whose
//! outputs start out holding values the kernel would not write.

use accel_sim::{Context, NodeCalib};
use proptest::prelude::*;
use toast_core::dispatch::{ImplKind, KernelId};
use toast_core::kernels::{kernel_outputs, run_kernel, REUSABLE_KERNELS};
use toast_core::testutil::test_workspace;
use toast_core::{BufferId, ExecCtx, Interval, Workspace};

const STYLES: [ImplKind; 4] = [
    ImplKind::Cpu,
    ImplKind::OmpTarget,
    ImplKind::Jit,
    ImplKind::JitCpu,
];

/// Science intervals with gaps of 1–6 samples between them (and up to 3
/// before the first), drawn from `seed`.
fn gappy_intervals(n_samp: usize, mut seed: u64) -> Vec<Interval> {
    let mut next = |m: usize| {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (seed >> 33) as usize % m
    };
    let mut intervals = Vec::new();
    let mut s = next(4);
    while s < n_samp {
        let end = (s + 1 + next(n_samp / 3 + 1)).min(n_samp);
        intervals.push(Interval::new(s, end));
        s = end + 1 + next(6);
    }
    intervals
}

/// A workspace with valid pointing everywhere, gappy intervals, and
/// quats, pixels and weights that no kernel here would produce.
fn workspace(n_det: usize, n_samp: usize, seed: u64) -> Workspace {
    let mut ws = test_workspace(n_det, n_samp, 8);
    ws.obs.intervals = vec![Interval::new(0, n_samp)];
    let mut ctx = Context::new(NodeCalib::default());
    let mut exec = ExecCtx::new(ImplKind::Cpu, 2);
    run_kernel(&mut ctx, &mut exec, &mut ws, KernelId::PointingDetector).expect("host kernel");
    ws.obs.intervals = gappy_intervals(n_samp, seed);
    for (i, q) in ws.obs.quats.iter_mut().enumerate() {
        *q *= 1.0 + 1e-3 * (i % 5) as f64;
    }
    for (i, p) in ws.obs.pixels.iter_mut().enumerate() {
        *p = (i % 11) as i64 - 1;
    }
    for (i, w) in ws.obs.weights.iter_mut().enumerate() {
        *w = (i % 7) as f64 * 0.5 - 1.0;
    }
    ws
}

/// The bits of `kernel`'s outputs after `calls` calls in style `kind`.
fn outputs_after(ws: &Workspace, kind: ImplKind, kernel: KernelId, calls: usize) -> Vec<u64> {
    let mut ws = ws.clone();
    let mut ctx = Context::new(NodeCalib::default());
    let mut exec = ExecCtx::new(kind, 4);
    for id in BufferId::ALL {
        exec.store
            .ensure_device(&mut ctx, &ws, id)
            .expect("test workspace fits");
    }
    for _ in 0..calls {
        run_kernel(&mut ctx, &mut exec, &mut ws, kernel).expect("buffers resident");
    }
    let mut bits = Vec::new();
    for &id in kernel_outputs(kernel) {
        exec.store.update_host(&mut ctx, &mut ws, id);
        if id.is_integer() {
            bits.extend(ws.obs.pixels.iter().map(|&p| p as u64));
        } else {
            bits.extend(ws.f64_slice(id).iter().map(|v| v.to_bits()));
        }
    }
    bits
}

proptest! {
    /// Every reusable kernel, in every style, is idempotent.
    #[test]
    fn reusable_kernels_are_idempotent(n_det in 1usize..6, n_samp in 8usize..160, seed: u64) {
        let ws = workspace(n_det, n_samp, seed);
        for kind in STYLES {
            for kernel in REUSABLE_KERNELS {
                let once = outputs_after(&ws, kind, kernel, 1);
                prop_assert!(
                    once == outputs_after(&ws, kind, kernel, 2),
                    "{kind} {kernel:?}: a second call changed its outputs"
                );
            }
        }
    }
}

/// The kernels that accumulate into their outputs are not idempotent, so
/// the list must not name them.
#[test]
fn accumulating_kernels_are_not_reusable() {
    let mut ws = workspace(3, 90, 7);
    let mut ctx = Context::new(NodeCalib::default());
    let mut exec = ExecCtx::new(ImplKind::Cpu, 2);
    for kernel in [KernelId::PixelsHealpix, KernelId::StokesWeightsIqu] {
        run_kernel(&mut ctx, &mut exec, &mut ws, kernel).expect("host kernel");
    }
    for kernel in [
        KernelId::ScanMap,
        KernelId::NoiseWeight,
        KernelId::BuildNoiseWeighted,
    ] {
        assert!(
            !REUSABLE_KERNELS.contains(&kernel),
            "{kernel:?} accumulates"
        );
        for kind in STYLES {
            assert_ne!(
                outputs_after(&ws, kind, kernel, 1),
                outputs_after(&ws, kind, kernel, 2),
                "{kind} {kernel:?}"
            );
        }
    }
}
