//! CPU baseline: rayon over detectors, scalar trig per sample.

use accel_sim::Context;
use rayon::prelude::*;

use crate::kernels::support::{charge_cpu, science_items};
use crate::workspace::Workspace;

/// Compute I/Q/U weights on the host.
/// With `compute` false it is charged the same but writes nothing (see
/// [`crate::kernels::REUSABLE_KERNELS`]).
pub fn run(ctx: &mut Context, threads: u32, ws: &mut Workspace, compute: bool) {
    assert_eq!(ws.geom.nnz, 3, "stokes_weights_IQU needs nnz == 3");
    if compute {
        let n_samp = ws.obs.n_samples;
        let quats = &ws.obs.quats;
        let eps = &ws.obs.det_epsilon;
        let intervals = &ws.obs.intervals;

        ws.obs
            .weights
            .par_chunks_mut(n_samp * 3)
            .enumerate()
            .for_each(|(det, wout)| {
                let epsilon = eps[det];
                for iv in intervals {
                    for s in iv.start..iv.end {
                        let base = det * n_samp * 4 + 4 * s;
                        let q = [
                            quats[base],
                            quats[base + 1],
                            quats[base + 2],
                            quats[base + 3],
                        ];
                        let w = super::weights_for(q, epsilon);
                        wout[3 * s..3 * s + 3].copy_from_slice(&w);
                    }
                }
            });
    }

    charge_cpu(
        ctx,
        "stokes_weights_IQU",
        science_items(ws.obs.n_det, &ws.obs.intervals),
        super::FLOPS_PER_ITEM,
        super::BYTES_PER_ITEM,
        threads,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_workspace;
    use accel_sim::NodeCalib;

    #[test]
    fn intensity_weight_is_unity_in_intervals() {
        let mut ws = test_workspace(2, 90, 8);
        let mut ctx = Context::new(NodeCalib::default());
        super::super::super::pointing_detector::cpu::run(&mut ctx, 2, &mut ws, true);
        run(&mut ctx, 2, &mut ws, true);
        for det in 0..2 {
            for iv in ws.obs.intervals.clone() {
                for s in iv.start..iv.end {
                    let base = det * 90 * 3 + 3 * s;
                    assert_eq!(ws.obs.weights[base], 1.0);
                    let eps = ws.obs.det_epsilon[det];
                    let p = (ws.obs.weights[base + 1].powi(2) + ws.obs.weights[base + 2].powi(2))
                        .sqrt();
                    assert!((p - eps).abs() < 1e-12, "pol norm {p} vs eps {eps}");
                }
            }
        }
    }
}
