//! CPU baseline: per-sample scalar pixelisation through the shared
//! `toast-healpix` routines (the offload port reuses the same inner
//! function, as the paper's port shared inner functions with the original
//! code).

use accel_sim::Context;
use rayon::prelude::*;
use toast_healpix::ring::vec2pix_ring;

use crate::kernels::support::{charge_cpu, science_items};
use crate::quat;
use crate::workspace::Workspace;

/// Pixelise detector pointing on the host.
/// With `compute` false it is charged the same but writes nothing (see
/// [`crate::kernels::REUSABLE_KERNELS`]).
// Index loops mirror the ported C kernels' interval addressing.
#[allow(clippy::needless_range_loop)]
pub fn run(ctx: &mut Context, threads: u32, ws: &mut Workspace, compute: bool) {
    if compute {
        let n_samp = ws.obs.n_samples;
        let nside = ws.geom.nside;
        let quats = &ws.obs.quats;
        let intervals = &ws.obs.intervals;

        ws.obs
            .pixels
            .par_chunks_mut(n_samp)
            .enumerate()
            .for_each(|(det, pix)| {
                for iv in intervals {
                    for s in iv.start..iv.end {
                        let base = det * n_samp * 4 + 4 * s;
                        let q = [
                            quats[base],
                            quats[base + 1],
                            quats[base + 2],
                            quats[base + 3],
                        ];
                        let dir = quat::rotate_z(q);
                        pix[s] = vec2pix_ring(nside, dir) as i64;
                    }
                }
            });
    }

    charge_cpu(
        ctx,
        "pixels_healpix",
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
    fn pixels_valid_and_gaps_flagged() {
        let mut ws = test_workspace(2, 150, 16);
        let mut ctx = Context::new(NodeCalib::default());
        super::super::super::pointing_detector::cpu::run(&mut ctx, 2, &mut ws, true);
        run(&mut ctx, 2, &mut ws, true);
        let npix = ws.geom.nside.npix() as i64;
        for det in 0..2 {
            for s in 0..150 {
                let p = ws.obs.pixels[det * 150 + s];
                let in_iv = ws
                    .obs
                    .intervals
                    .iter()
                    .any(|iv| s >= iv.start && s < iv.end);
                if in_iv {
                    assert!((0..npix).contains(&p), "det {det} s {s}: pixel {p}");
                } else {
                    assert_eq!(p, -1, "gap sample {s} should stay -1");
                }
            }
        }
    }

    #[test]
    fn neighbouring_samples_hit_nearby_pixels() {
        // The boresight moves smoothly, so consecutive pixel centres should
        // be within a few pixel radii of each other.
        let mut ws = test_workspace(1, 400, 64);
        let mut ctx = Context::new(NodeCalib::default());
        super::super::super::pointing_detector::cpu::run(&mut ctx, 2, &mut ws, true);
        run(&mut ctx, 2, &mut ws, true);
        let nside = ws.geom.nside;
        let limit = 40.0 * (nside.pixel_area() / std::f64::consts::PI).sqrt();
        for iv in &ws.obs.intervals {
            for s in iv.start + 1..iv.end {
                let (a, b) = (ws.obs.pixels[s - 1], ws.obs.pixels[s]);
                let va = toast_healpix::ring::pix2vec_ring(nside, a as u64);
                let vb = toast_healpix::ring::pix2vec_ring(nside, b as u64);
                let d = toast_healpix::ang::angdist(va, vb);
                assert!(d < limit, "samples {}..{s}: {d}", s - 1);
            }
        }
    }
}
