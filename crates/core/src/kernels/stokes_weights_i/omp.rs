//! Offload port: collapsed triple loop writing unit intensity weights.

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
    let n_det = ws.obs.n_det;
    let n_samp = ws.obs.n_samples;
    let nnz = ws.geom.nnz;
    let intervals = &ws.obs.intervals;
    let max_len = ws.obs.max_interval_len();

    let spec = KernelSpec::divergent(
        "stokes_weights_I",
        super::FLOPS_PER_ITEM,
        super::BYTES_PER_ITEM,
        guard_divergence(n_det, intervals),
    );

    let weights = store.f64_buf_mut(BufferId::Weights)?;
    let w = weights.device_slice_mut();
    let bounds = (n_det, intervals.len(), max_len);
    if compute {
        target_parallel_for_collapse3(ctx, &spec, bounds, |det, iv_idx, k| {
            let iv = intervals[iv_idx];
            let s = iv.start + k;
            if s >= iv.end {
                return; // guard
            }
            w[det * n_samp * nnz + nnz * s] = 1.0;
        });
    } else {
        charge_collapse3(ctx, &spec, bounds);
    }
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
        let mut ws_cpu = test_workspace(2, 70, 4);
        for (i, w) in ws_cpu.obs.weights.iter_mut().enumerate() {
            *w = (i % 7) as f64 * 0.5;
        }
        let mut ws_omp = ws_cpu.clone();
        let mut ctx = Context::new(NodeCalib::default());
        super::super::cpu::run(&mut ctx, 2, &mut ws_cpu, true);

        let mut store = AccelStore::omp();
        store
            .ensure_device(&mut ctx, &ws_omp, BufferId::Weights)
            .unwrap();
        if let AccelStore::Omp(s) = &mut store {
            run(&mut ctx, s, &ws_omp, true).unwrap();
        }
        store.update_host(&mut ctx, &mut ws_omp, BufferId::Weights);
        assert_eq!(ws_cpu.obs.weights, ws_omp.obs.weights);
    }
}
