//! Offload port: collapsed triple loop, straight-line trig body (no
//! divergence beyond the interval guard).

use accel_sim::Context;
use offload::{charge_collapse3, target_parallel_for_collapse3, KernelSpec};

use crate::kernels::support::guard_divergence;
use crate::memory::{OmpStore, ResidencyError};
use crate::workspace::{BufferId, Workspace};

/// Launch the device kernel over resident buffers.
/// With `compute` false it is charged the same but writes nothing (see
/// [`crate::kernels::REUSABLE_KERNELS`]).
pub fn run(
    ctx: &mut Context,
    store: &mut OmpStore,
    ws: &Workspace,
    compute: bool,
) -> Result<(), ResidencyError> {
    assert_eq!(ws.geom.nnz, 3, "stokes_weights_IQU needs nnz == 3");
    let n_det = ws.obs.n_det;
    let n_samp = ws.obs.n_samples;
    let intervals = &ws.obs.intervals;
    let max_len = ws.obs.max_interval_len();

    let spec = KernelSpec::divergent(
        "stokes_weights_IQU",
        super::FLOPS_PER_ITEM,
        super::BYTES_PER_ITEM,
        guard_divergence(n_det, intervals),
    );

    let quats = store.take(BufferId::Quats)?;
    let eps = store.take(BufferId::DetEpsilon)?;
    let mut weights = store.take(BufferId::Weights)?;
    {
        let q = quats.device_slice();
        let e = eps.device_slice();
        let w = weights.device_slice_mut();
        let bounds = (n_det, intervals.len(), max_len);
        if compute {
            target_parallel_for_collapse3(ctx, &spec, bounds, |det, iv_idx, k| {
                let iv = intervals[iv_idx];
                let s = iv.start + k;
                if s >= iv.end {
                    return; // guard
                }
                let base = det * n_samp * 4 + 4 * s;
                let quat = [q[base], q[base + 1], q[base + 2], q[base + 3]];
                let wi = super::weights_for(quat, e[det]);
                let wbase = det * n_samp * 3 + 3 * s;
                w[wbase..wbase + 3].copy_from_slice(&wi);
            });
        } else {
            charge_collapse3(ctx, &spec, bounds);
        }
    }
    store.put_back(BufferId::Quats, quats);
    store.put_back(BufferId::DetEpsilon, eps);
    store.put_back(BufferId::Weights, weights);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AccelStore;
    use crate::testutil::test_workspace;
    use accel_sim::NodeCalib;

    #[test]
    fn matches_cpu_implementation() {
        let mut ws_cpu = test_workspace(3, 110, 8);
        let mut ctx = Context::new(NodeCalib::default());
        super::super::super::pointing_detector::cpu::run(&mut ctx, 2, &mut ws_cpu, true);
        let mut ws_omp = ws_cpu.clone();
        super::super::cpu::run(&mut ctx, 2, &mut ws_cpu, true);

        let mut store = AccelStore::omp();
        for id in [BufferId::Quats, BufferId::DetEpsilon, BufferId::Weights] {
            store.ensure_device(&mut ctx, &ws_omp, id).unwrap();
        }
        if let AccelStore::Omp(s) = &mut store {
            run(&mut ctx, s, &ws_omp, true).unwrap();
        }
        store.update_host(&mut ctx, &mut ws_omp, BufferId::Weights);
        assert_eq!(ws_cpu.obs.weights, ws_omp.obs.weights);
    }
}
