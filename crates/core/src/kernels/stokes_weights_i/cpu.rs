//! CPU baseline: write unit intensity weights.

use accel_sim::Context;
use rayon::prelude::*;

use crate::kernels::support::{charge_cpu, science_items};
use crate::workspace::Workspace;

/// Set weight component 0 to one on the host.
/// With `compute` false it is charged the same but writes nothing (see
/// [`crate::kernels::REUSABLE_KERNELS`]).
pub fn run(ctx: &mut Context, threads: u32, ws: &mut Workspace, compute: bool) {
    if compute {
        let n_samp = ws.obs.n_samples;
        let nnz = ws.geom.nnz;
        let intervals = &ws.obs.intervals;

        ws.obs
            .weights
            .par_chunks_mut(n_samp * nnz)
            .for_each(|wout| {
                for iv in intervals {
                    for s in iv.start..iv.end {
                        wout[nnz * s] = 1.0;
                    }
                }
            });
    }

    charge_cpu(
        ctx,
        "stokes_weights_I",
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
    fn sets_intensity_only() {
        let mut ws = test_workspace(2, 60, 4);
        let mut ctx = Context::new(NodeCalib::default());
        run(&mut ctx, 2, &mut ws, true);
        for det in 0..2 {
            for iv in ws.obs.intervals.clone() {
                for s in iv.start..iv.end {
                    let base = det * 60 * 3 + 3 * s;
                    assert_eq!(ws.obs.weights[base], 1.0);
                    assert_eq!(ws.obs.weights[base + 1], 0.0);
                    assert_eq!(ws.obs.weights[base + 2], 0.0);
                }
            }
        }
    }
}
