//! Offload port: the collapsed triple loop of the paper's § 3.1.2 —
//! `collapse(3)` over detectors × intervals × the precomputed maximum
//! interval length, with a guard cutting work past each interval's end.

use accel_sim::Context;
use offload::{charge_collapse3, target_parallel_for_collapse3, KernelSpec};

use crate::kernels::support::guard_divergence;
use crate::memory::{OmpStore, ResidencyError};
use crate::quat;
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
    let intervals = &ws.obs.intervals;
    let max_len = ws.obs.max_interval_len();

    let spec = KernelSpec::divergent(
        "pointing_detector",
        super::FLOPS_PER_ITEM,
        super::BYTES_PER_ITEM,
        guard_divergence(n_det, intervals),
    );

    let boresight = store.take(BufferId::Boresight)?;
    let fp_quats = store.take(BufferId::FpQuats)?;
    let mut quats = store.take(BufferId::Quats)?;
    {
        let bore = boresight.device_slice();
        let fp = fp_quats.device_slice();
        let out = quats.device_slice_mut();
        let bounds = (n_det, intervals.len(), max_len);
        if compute {
            target_parallel_for_collapse3(ctx, &spec, bounds, |det, iv_idx, k| {
                let iv = intervals[iv_idx];
                let s = iv.start + k;
                if s >= iv.end {
                    return; // guard: past this interval's end (no-op lane)
                }
                let b = [
                    bore[4 * s],
                    bore[4 * s + 1],
                    bore[4 * s + 2],
                    bore[4 * s + 3],
                ];
                let f = [
                    fp[4 * det],
                    fp[4 * det + 1],
                    fp[4 * det + 2],
                    fp[4 * det + 3],
                ];
                let q = quat::mul(b, f);
                let base = det * n_samp * 4 + 4 * s;
                out[base..base + 4].copy_from_slice(&q);
            });
        } else {
            charge_collapse3(ctx, &spec, bounds);
        }
    }
    store.put_back(BufferId::Boresight, boresight);
    store.put_back(BufferId::FpQuats, fp_quats);
    store.put_back(BufferId::Quats, quats);
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
        let mut ws_omp = ws_cpu.clone();

        let mut ctx = Context::new(NodeCalib::default());
        super::super::cpu::run(&mut ctx, 4, &mut ws_cpu, true);

        let mut store = AccelStore::omp();
        for id in [BufferId::Boresight, BufferId::FpQuats, BufferId::Quats] {
            store.ensure_device(&mut ctx, &ws_omp, id).unwrap();
        }
        if let AccelStore::Omp(s) = &mut store {
            run(&mut ctx, s, &ws_omp, true).unwrap();
        }
        store.update_host(&mut ctx, &mut ws_omp, BufferId::Quats);

        assert_eq!(ws_cpu.obs.quats, ws_omp.obs.quats);
        // The launch was charged to the device.
        assert_eq!(ctx.stats()["pointing_detector"].calls, 2);
    }
}
