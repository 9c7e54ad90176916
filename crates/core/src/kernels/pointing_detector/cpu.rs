//! CPU baseline: rayon-parallel over detectors, serial over the variable
//! intervals of each detector — the shape of the original OpenMP-threaded
//! C++ kernel.

use accel_sim::Context;
use rayon::prelude::*;

use crate::kernels::support::{charge_cpu, science_items};
use crate::quat;
use crate::workspace::Workspace;

/// Expand boresight pointing into per-detector pointing on the host.
/// With `compute` false it is charged the same but writes nothing (see
/// [`crate::kernels::REUSABLE_KERNELS`]).
pub fn run(ctx: &mut Context, threads: u32, ws: &mut Workspace, compute: bool) {
    if compute {
        let n_samp = ws.obs.n_samples;
        let boresight = &ws.obs.boresight;
        let fp_quats = &ws.obs.fp_quats;
        let intervals = &ws.obs.intervals;

        ws.obs
            .quats
            .par_chunks_mut(n_samp * 4)
            .enumerate()
            .for_each(|(det, out)| {
                let fp = [
                    fp_quats[4 * det],
                    fp_quats[4 * det + 1],
                    fp_quats[4 * det + 2],
                    fp_quats[4 * det + 3],
                ];
                for iv in intervals {
                    for s in iv.start..iv.end {
                        let b = [
                            boresight[4 * s],
                            boresight[4 * s + 1],
                            boresight[4 * s + 2],
                            boresight[4 * s + 3],
                        ];
                        let q = quat::mul(b, fp);
                        out[4 * s..4 * s + 4].copy_from_slice(&q);
                    }
                }
            });
    }

    charge_cpu(
        ctx,
        "pointing_detector",
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
    fn matches_scalar_reference() {
        let mut ws = test_workspace(3, 100, 8);
        let mut ctx = Context::new(NodeCalib::default());
        run(&mut ctx, 4, &mut ws, true);

        for det in 0..3 {
            for iv in ws.obs.intervals.clone() {
                for s in iv.start..iv.end {
                    let b = [
                        ws.obs.boresight[4 * s],
                        ws.obs.boresight[4 * s + 1],
                        ws.obs.boresight[4 * s + 2],
                        ws.obs.boresight[4 * s + 3],
                    ];
                    let f = [
                        ws.obs.fp_quats[4 * det],
                        ws.obs.fp_quats[4 * det + 1],
                        ws.obs.fp_quats[4 * det + 2],
                        ws.obs.fp_quats[4 * det + 3],
                    ];
                    let expected = crate::quat::mul(b, f);
                    let base = det * 100 * 4 + 4 * s;
                    for (c, e) in expected.iter().enumerate() {
                        assert_eq!(ws.obs.quats[base + c], *e, "det {det} s {s} c {c}");
                    }
                }
            }
        }
        assert!(ctx.stats()["pointing_detector"].seconds > 0.0);
    }

    #[test]
    fn out_of_interval_samples_untouched() {
        let mut ws = test_workspace(2, 100, 8);
        ws.obs.quats.fill(9.0);
        let mut ctx = Context::new(NodeCalib::default());
        run(&mut ctx, 1, &mut ws, true);
        for s in 0..100 {
            let in_iv = ws
                .obs
                .intervals
                .iter()
                .any(|iv| s >= iv.start && s < iv.end);
            if !in_iv {
                assert_eq!(ws.obs.quats[4 * s], 9.0, "gap sample {s} was written");
            }
        }
    }
}
