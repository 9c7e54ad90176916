//! arrayjit port: flat gathers from the map, a short Stokes dot product,
//! masked accumulate into the signal.

use accel_sim::Context;
use arrayjit::{Backend, DType, Jit};

use crate::memory::{JitStore, ResidencyError};
use crate::workspace::{BufferId, Workspace};

/// Build the traced program. Statics: `[nnz]`.
pub fn build() -> Jit {
    Jit::new("scan_map", |_tc, params, statics| {
        let (map, pixels, weights, signal, mask) =
            (&params[0], &params[1], &params[2], &params[3], &params[4]);
        let nnz = statics[0];
        let n_samp = mask.shape().dim(0);

        // Clamp invalid (-1) pixels to 0; their contribution is masked out.
        let zero = pixels.mul_s_i(0);
        let safe = pixels.max(&zero);
        let valid = pixels.ge(&zero).convert(DType::F64);

        let mut acc = signal.mul_s(0.0);
        for c in 0..nnz {
            let flat = safe.mul_s_i(nnz).add_s_i(c);
            let m_c = map.gather(&flat);
            let w_c = weights.index_axis(2, c as usize);
            acc = acc + m_c * w_c;
        }
        let gate = &valid * &mask.reshape(vec![1, n_samp]);
        vec![signal + acc * gate]
    })
}

/// Run against resident arrays, replacing `Signal` functionally.
pub fn run(
    ctx: &mut Context,
    backend: Backend,
    store: &mut JitStore,
    jit: &mut Jit,
    ws: &Workspace,
) -> Result<(), ResidencyError> {
    let n_det = ws.obs.n_det;
    let n_samp = ws.obs.n_samples;
    let nnz = ws.geom.nnz;
    let mask = store.sample_mask(ctx, ws);
    let map = store.array(BufferId::SkyMap)?.clone();
    let pixels = store
        .array(BufferId::Pixels)?
        .clone()
        .reshaped(vec![n_det, n_samp]);
    let weights = store
        .array(BufferId::Weights)?
        .clone()
        .reshaped(vec![n_det, n_samp, nnz]);
    let signal = store
        .array(BufferId::Signal)?
        .clone()
        .reshaped(vec![n_det, n_samp]);

    let out = jit
        .call_static(
            ctx,
            backend,
            &[map, pixels, weights, signal, mask],
            &[nnz as i64],
        )
        .remove(0)
        .reshaped(vec![n_det * n_samp]);
    store.replace(BufferId::Signal, out)?;
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
        let mut ws_jit = ws_cpu.clone();
        super::super::cpu::run(&mut ctx, 2, &mut ws_cpu);

        let mut store = AccelStore::jit();
        for id in [
            BufferId::SkyMap,
            BufferId::Weights,
            BufferId::Signal,
            BufferId::Pixels,
        ] {
            store.ensure_device(&mut ctx, &ws_jit, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws_jit).unwrap();
        }
        store.update_host(&mut ctx, &mut ws_jit, BufferId::Signal);
        for (a, b) in ws_cpu.obs.signal.iter().zip(&ws_jit.obs.signal) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn gather_stages_are_charged() {
        let ws = test_workspace(1, 50, 8);
        let mut ctx = Context::new(NodeCalib::default());
        let mut store = AccelStore::jit();
        for id in [
            BufferId::SkyMap,
            BufferId::Weights,
            BufferId::Signal,
            BufferId::Pixels,
        ] {
            store.ensure_device(&mut ctx, &ws, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws).unwrap();
        }
        assert!(ctx.stats().keys().any(|k| k.starts_with("scan_map/gather")));
    }
}
