//! Offload port: collapsed triple loop with data-dependent map gathers.

use accel_sim::Context;
use offload::{target_parallel_for_collapse3, KernelSpec};

use crate::kernels::support::guard_divergence;
use crate::memory::{OmpStore, ResidencyError};
use crate::workspace::{BufferId, Workspace};

/// Launch the device kernel over resident buffers.
pub fn run(ctx: &mut Context, store: &mut OmpStore, ws: &Workspace) -> Result<(), ResidencyError> {
    let n_det = ws.obs.n_det;
    let n_samp = ws.obs.n_samples;
    let nnz = ws.geom.nnz;
    let intervals = &ws.obs.intervals;
    let max_len = ws.obs.max_interval_len();

    let spec = KernelSpec::divergent(
        "scan_map",
        super::FLOPS_PER_ITEM,
        super::BYTES_PER_ITEM,
        guard_divergence(n_det, intervals),
    );

    let map = store.take(BufferId::SkyMap)?;
    let weights = store.take(BufferId::Weights)?;
    let mut signal = store.take(BufferId::Signal)?;
    {
        let m = map.device_slice();
        let w = weights.device_slice();
        let pix = store.pixels()?.device_slice();
        let sig = signal.device_slice_mut();
        target_parallel_for_collapse3(
            ctx,
            &spec,
            (n_det, intervals.len(), max_len),
            |det, iv_idx, k| {
                let iv = intervals[iv_idx];
                let s = iv.start + k;
                if s >= iv.end {
                    return; // guard
                }
                let p = pix[det * n_samp + s];
                if p < 0 {
                    return;
                }
                let wbase = det * n_samp * nnz + nnz * s;
                let mbase = p as usize * nnz;
                let mut acc = 0.0;
                for c in 0..nnz {
                    acc += m[mbase + c] * w[wbase + c];
                }
                sig[det * n_samp + s] += acc;
            },
        );
    }
    store.put_back(BufferId::SkyMap, map);
    store.put_back(BufferId::Weights, weights);
    store.put_back(BufferId::Signal, signal);
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
        let mut ws_cpu = test_workspace(3, 120, 8);
        let mut ctx = Context::new(NodeCalib::default());
        super::super::super::pointing_detector::cpu::run(&mut ctx, 2, &mut ws_cpu, true);
        super::super::super::pixels_healpix::cpu::run(&mut ctx, 2, &mut ws_cpu, true);
        super::super::super::stokes_weights_iqu::cpu::run(&mut ctx, 2, &mut ws_cpu, true);
        let mut ws_omp = ws_cpu.clone();
        super::super::cpu::run(&mut ctx, 2, &mut ws_cpu);

        let mut store = AccelStore::omp();
        for id in [
            BufferId::SkyMap,
            BufferId::Weights,
            BufferId::Signal,
            BufferId::Pixels,
        ] {
            store.ensure_device(&mut ctx, &ws_omp, id).unwrap();
        }
        if let AccelStore::Omp(s) = &mut store {
            run(&mut ctx, s, &ws_omp).unwrap();
        }
        store.update_host(&mut ctx, &mut ws_omp, BufferId::Signal);
        assert_eq!(ws_cpu.obs.signal, ws_omp.obs.signal);
    }
}
