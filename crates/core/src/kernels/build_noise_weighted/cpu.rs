//! CPU baseline: scatter-accumulate into the shared map.

use accel_sim::Context;

use crate::kernels::support::{charge_cpu, science_items};
use crate::workspace::Workspace;

/// Accumulate noise-weighted timestreams into the map on the host.
///
/// The output map is shared between detectors, so the detector loop runs
/// serially; the threaded analogue scatters with atomic updates, and the
/// cost model charges the same item count either way.
pub fn run(ctx: &mut Context, threads: u32, ws: &mut Workspace) {
    let n_samp = ws.obs.n_samples;
    let nnz = ws.geom.nnz;
    let zmap = &mut ws.zmap;
    let pixels = &ws.obs.pixels;
    let weights = &ws.obs.weights;
    let signal = &ws.obs.signal;
    let det_weights = &ws.obs.det_weights;

    for det in 0..ws.obs.n_det {
        let dw = det_weights[det];
        for iv in &ws.obs.intervals {
            for s in iv.start..iv.end {
                let pix = pixels[det * n_samp + s];
                if pix < 0 {
                    continue;
                }
                let v = dw * signal[det * n_samp + s];
                let wbase = det * n_samp * nnz + nnz * s;
                let mbase = pix as usize * nnz;
                for k in 0..nnz {
                    zmap[mbase + k] += v * weights[wbase + k];
                }
            }
        }
    }

    charge_cpu(
        ctx,
        "build_noise_weighted",
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

    /// Full pointing chain, unit signal: the intensity column of the map
    /// accumulates exactly `det_weight` per hit (w_I = 1), so the column
    /// total equals Σ_det det_weight · in-interval valid hits.
    #[test]
    fn intensity_column_counts_weighted_hits() {
        let mut ws = test_workspace(2, 100, 8);
        let mut ctx = Context::new(NodeCalib::default());
        super::super::super::pointing_detector::cpu::run(&mut ctx, 2, &mut ws, true);
        super::super::super::pixels_healpix::cpu::run(&mut ctx, 2, &mut ws, true);
        super::super::super::stokes_weights_iqu::cpu::run(&mut ctx, 2, &mut ws, true);
        ws.obs.signal.iter_mut().for_each(|s| *s = 1.0);

        run(&mut ctx, 2, &mut ws);

        let mut expected = 0.0;
        for det in 0..2 {
            for iv in &ws.obs.intervals {
                for s in iv.start..iv.end {
                    if ws.obs.pixels[det * 100 + s] >= 0 {
                        expected += ws.obs.det_weights[det];
                    }
                }
            }
        }
        let total_i: f64 = ws.zmap.iter().step_by(3).sum();
        assert!((total_i - expected).abs() < 1e-9, "{total_i} vs {expected}");
    }

    /// Samples outside every interval and invalid pixels contribute
    /// nothing.
    #[test]
    fn skips_gaps_and_invalid_pixels() {
        let mut ws = test_workspace(1, 60, 8);
        let mut ctx = Context::new(NodeCalib::default());
        super::super::super::pointing_detector::cpu::run(&mut ctx, 2, &mut ws, true);
        super::super::super::pixels_healpix::cpu::run(&mut ctx, 2, &mut ws, true);
        super::super::super::stokes_weights_iqu::cpu::run(&mut ctx, 2, &mut ws, true);
        // Invalidate every pixel: the map must stay identically zero.
        ws.obs.pixels.iter_mut().for_each(|p| *p = -1);
        run(&mut ctx, 2, &mut ws);
        assert!(ws.zmap.iter().all(|&z| z == 0.0));
    }
}
