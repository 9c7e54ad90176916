//! arrayjit port: the RING pixelisation written branch-free over dense
//! arrays. Every `select` computes *both* the equatorial and the polar
//! arm for every sample — the predication dummy work that limits this
//! kernel's JIT speedup in the paper (11× vs offload's 41×).
//!
//! The arithmetic mirrors `toast_healpix::ring::zphi2pix_ring`
//! operation-for-operation (floor-division and Euclidean remainders
//! included), so the traced and scalar implementations agree bit-exactly.
//! Out-of-interval samples keep their previous value (the buffers are
//! initialised to `-1`).

use std::f64::consts::{FRAC_PI_2, PI};

use accel_sim::Context;
use arrayjit::{Backend, DType, Jit};

use crate::memory::{JitStore, ResidencyError};
use crate::workspace::{BufferId, Workspace};

/// Build the traced program. Statics: `[nside]`.
pub fn build() -> Jit {
    Jit::new("pixels_healpix", |_tc, params, statics| {
        let (quats, old_pix, mask) = (&params[0], &params[1], &params[2]);
        let nside = statics[0] as f64;
        let npix = 12.0 * nside * nside;
        let ncap = 2.0 * nside * (nside - 1.0);
        let n_samp = mask.shape().dim(0);

        // Line of sight: rotate the z-axis through each quaternion.
        let qx = quats.index_axis(2, 0);
        let qy = quats.index_axis(2, 1);
        let qz = quats.index_axis(2, 2);
        let qw = quats.index_axis(2, 3);
        let dx = (&qx * &qz + &qw * &qy).mul_s(2.0);
        let dy = (&qy * &qz - &qw * &qx).mul_s(2.0);
        let dz = (&qx * &qx + &qy * &qy).mul_s(-2.0).add_s(1.0);

        // z = dz / |d| clamped, phi wrapped to [0, 2π) — the exact ops of
        // `vec2pix_ring`.
        let norm = (&dx * &dx + &dy * &dy + &dz * &dz).sqrt();
        let z = (&dz / &norm).max_s(-1.0).min_s(1.0);
        let phi_raw = dy.atan2(&dx);
        let phi = phi_raw.lt_s(0.0).select(&phi_raw.add_s(2.0 * PI), &phi_raw);
        let tt = phi.div_s(FRAC_PI_2).rem_s(4.0);
        let za = z.abs();

        // --- equatorial arm (za <= 2/3) --------------------------------
        let t1 = tt.add_s(0.5).mul_s(nside);
        let t2 = z.mul_s(0.75).mul_s(nside);
        let jp = (&t1 - &t2).floor();
        let jm = (&t1 + &t2).floor();
        let ir = (&jp - &jm).add_s(nside + 1.0);
        let kshift = ir.rem_s(2.0).neg().add_s(1.0);
        let ip_eq = (&jp + &jm + &kshift)
            .add_s(1.0 - nside)
            .div_s(2.0)
            .floor()
            .rem_s(4.0 * nside);
        let pix_eq = ir.sub_s(1.0).mul_s(4.0 * nside).add_s(ncap) + ip_eq;

        // --- polar arm (za > 2/3) ---------------------------------------
        let tp = &tt - &tt.floor();
        let tmp = za.neg().add_s(1.0).mul_s(3.0).sqrt().mul_s(nside);
        let jp_p = (&tp * &tmp).floor();
        let jm_p = (tp.neg().add_s(1.0) * &tmp).floor();
        let ir_p = (&jp_p + &jm_p).add_s(1.0);
        let ip_p = (&tt * &ir_p).floor().rem(&ir_p.mul_s(4.0));
        let pix_north = (&ir_p * &ir_p.sub_s(1.0)).mul_s(2.0) + &ip_p;
        let pix_south = (&ir_p * &ir_p.add_s(1.0)).mul_s(-2.0).add_s(npix) + &ip_p;
        let pix_polar = z.gt_s(0.0).select(&pix_north, &pix_south);

        // Merge arms; padded samples keep their previous value.
        let pix = za.le_s(2.0 / 3.0).select(&pix_eq, &pix_polar);
        let keep = mask.gt_s(0.5).reshape(vec![1, n_samp]);
        vec![keep.select(&pix.convert(DType::I64), old_pix)]
    })
}

/// Run against resident arrays, replacing `Pixels` functionally.
/// With `compute` false it is charged the same but writes nothing (see
/// [`crate::kernels::REUSABLE_KERNELS`]).
pub fn run(
    ctx: &mut Context,
    backend: Backend,
    store: &mut JitStore,
    jit: &mut Jit,
    ws: &Workspace,
    compute: bool,
) -> Result<(), ResidencyError> {
    let n_det = ws.obs.n_det;
    let n_samp = ws.obs.n_samples;
    assert!(
        ws.geom.nside.npix() < (1 << 50),
        "pixel indices must stay exactly representable in f64"
    );
    assert!(!ws.geom.nest, "the arrayjit port implements RING ordering");
    let mask = store.sample_mask(ctx, ws);
    let quats = store
        .array(BufferId::Quats)?
        .clone()
        .reshaped(vec![n_det, n_samp, 4]);
    let old_pix = store
        .array(BufferId::Pixels)?
        .clone()
        .reshaped(vec![n_det, n_samp]);

    let (args, statics) = ([quats, old_pix, mask], [ws.geom.nside.get() as i64]);
    if compute {
        let out = jit
            .call_static(ctx, backend, &args, &statics)
            .remove(0)
            .reshaped(vec![n_det * n_samp]);
        store.replace(BufferId::Pixels, out)?;
    } else {
        jit.charge_static(ctx, backend, &args, &statics);
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
    fn matches_cpu_bit_exactly() {
        let mut ws_cpu = test_workspace(3, 200, 64);
        let mut ctx = Context::new(NodeCalib::default());
        super::super::super::pointing_detector::cpu::run(&mut ctx, 2, &mut ws_cpu, true);
        let mut ws_jit = ws_cpu.clone();
        super::super::cpu::run(&mut ctx, 2, &mut ws_cpu, true);

        let mut store = AccelStore::jit();
        for id in [BufferId::Quats, BufferId::Pixels] {
            store.ensure_device(&mut ctx, &ws_jit, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws_jit, true).unwrap();
        }
        store.update_host(&mut ctx, &mut ws_jit, BufferId::Pixels);
        assert_eq!(ws_cpu.obs.pixels, ws_jit.obs.pixels);
    }

    #[test]
    fn both_select_arms_count_as_flops() {
        // The compiled program's flop count must include both the
        // equatorial and polar arms (the paper's predication dummy work).
        let ws = test_workspace(1, 64, 16);
        let mut ctx = Context::new(NodeCalib::default());
        let mut store = AccelStore::jit();
        for id in [BufferId::Quats, BufferId::Pixels] {
            store.ensure_device(&mut ctx, &ws, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws, true).unwrap();
        }
        let n_samp = 64.0;
        let total: f64 = ctx
            .stats()
            .iter()
            .filter(|(k, _)| k.starts_with("pixels_healpix/"))
            .map(|(_, s)| s.seconds)
            .sum();
        assert!(total > 0.0);
        // flops/sample in the compiled program include both arms of every
        // select: well above what one arm needs in IR op counts.
        let mut jit2 = build();
        let quats = store_array(&store, BufferId::Quats, 1, 64);
        let pix = store_array_i(&store, 1, 64);
        let mask = arrayjit::Array::from_f64(vec![1.0; 64]);
        jit2.call_static(&mut ctx, Backend::Device, &[quats, pix, mask], &[16]);
        let program = jit2
            .program_for(
                &[
                    store_array(&store, BufferId::Quats, 1, 64),
                    store_array_i(&store, 1, 64),
                    arrayjit::Array::from_f64(vec![1.0; 64]),
                ],
                &[16],
            )
            .unwrap();
        // One arm costs ~60 IR flop-units (rotation + atan2 + one region's
        // arithmetic); predication forces both arms plus the merge.
        assert!(program.total_flops() / n_samp > 100.0);
    }

    fn store_array(
        store: &AccelStore,
        id: BufferId,
        n_det: usize,
        n_samp: usize,
    ) -> arrayjit::Array {
        match store {
            AccelStore::Jit(s) => s
                .array(id)
                .unwrap()
                .clone()
                .reshaped(vec![n_det, n_samp, 4]),
            _ => unreachable!(),
        }
    }

    fn store_array_i(store: &AccelStore, n_det: usize, n_samp: usize) -> arrayjit::Array {
        match store {
            AccelStore::Jit(s) => s
                .array(BufferId::Pixels)
                .unwrap()
                .clone()
                .reshaped(vec![n_det, n_samp]),
            _ => unreachable!(),
        }
    }
}
