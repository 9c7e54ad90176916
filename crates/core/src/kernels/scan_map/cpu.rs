//! CPU baseline: gather-and-accumulate per sample.

use accel_sim::Context;
use rayon::prelude::*;

use crate::kernels::support::{charge_cpu, science_items};
use crate::workspace::Workspace;

/// Scan the sky map into the timestreams on the host.
pub fn run(ctx: &mut Context, threads: u32, ws: &mut Workspace) {
    let n_samp = ws.obs.n_samples;
    let nnz = ws.geom.nnz;
    let map = &ws.sky_map;
    let pixels = &ws.obs.pixels;
    let weights = &ws.obs.weights;
    let intervals = &ws.obs.intervals;

    ws.obs
        .signal
        .par_chunks_mut(n_samp)
        .enumerate()
        .for_each(|(det, sig)| {
            for iv in intervals {
                for s in iv.start..iv.end {
                    let pix = pixels[det * n_samp + s];
                    if pix < 0 {
                        continue;
                    }
                    let wbase = det * n_samp * nnz + nnz * s;
                    let mbase = pix as usize * nnz;
                    let mut acc = 0.0;
                    for k in 0..nnz {
                        acc += map[mbase + k] * weights[wbase + k];
                    }
                    sig[s] += acc;
                }
            }
        });

    charge_cpu(
        ctx,
        "scan_map",
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

    /// Full pointing + weights, then scan: uniform-map scan adds exactly
    /// the intensity weight (1.0 · map value) within intervals.
    #[test]
    fn uniform_intensity_map_adds_constant() {
        let mut ws = test_workspace(2, 100, 8);
        let mut ctx = Context::new(NodeCalib::default());
        super::super::super::pointing_detector::cpu::run(&mut ctx, 2, &mut ws, true);
        super::super::super::pixels_healpix::cpu::run(&mut ctx, 2, &mut ws, true);
        super::super::super::stokes_weights_iqu::cpu::run(&mut ctx, 2, &mut ws, true);
        // Map: I = 5, Q = U = 0.
        for p in 0..ws.geom.n_pix() {
            ws.sky_map[3 * p] = 5.0;
            ws.sky_map[3 * p + 1] = 0.0;
            ws.sky_map[3 * p + 2] = 0.0;
        }
        let before = ws.obs.signal.clone();
        run(&mut ctx, 2, &mut ws);
        for det in 0..2 {
            for s in 0..100 {
                let idx = det * 100 + s;
                let in_iv = ws
                    .obs
                    .intervals
                    .iter()
                    .any(|iv| s >= iv.start && s < iv.end);
                let expected = if in_iv {
                    before[idx] + 5.0
                } else {
                    before[idx]
                };
                assert!(
                    (ws.obs.signal[idx] - expected).abs() < 1e-12,
                    "det {det} s {s}"
                );
            }
        }
    }
}
