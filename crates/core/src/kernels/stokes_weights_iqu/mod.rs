//! `stokes_weights_IQU` — detector response to intensity and linear
//! polarisation.
//!
//! For every detector `d` and in-interval sample `s`, the detector
//! orientation angle ψ on the sky is derived from the pointing quaternion
//! (line of sight `dir = R(q)·ẑ`, polarisation axis `orient = R(q)·x̂`,
//! ψ measured against the local meridian):
//!
//! ```text
//! ψ = atan2(dx·oy − dy·ox,  dz·dx·ox + dz·dy·oy − (dx² + dy²)·oz)
//! weights[d, s] = [1, η·cos 2ψ, η·sin 2ψ]
//! ```
//!
//! Trig-heavy and compute-bound: the paper's most expensive CPU kernel and
//! its biggest offload win (61×).

pub mod cpu;
pub mod jit;
pub mod omp;

use crate::dispatch::KernelId;

/// Flop-equivalents per sample. The kernel is trig-bound: `atan2`, `cos`
/// and `sin` cost tens of flop-equivalents each through scalar libm on the
/// CPU (the reason the paper calls this the most expensive CPU kernel),
/// while the wide FP64 pipes of the device absorb them — so the constant
/// is large but the device side stays memory-bound.
pub(crate) const FLOPS_PER_ITEM: f64 = 400.0;
/// Bytes per sample: 32 B quaternion read + 24 B weight write.
pub(crate) const BYTES_PER_ITEM: f64 = 56.0;

crate::kernels::dispatch_impl!(KernelId::StokesWeightsIqu, stokes_weights_iqu, compute);

/// The shared scalar formula (one sample); all three implementations and
/// the tests route through the same operation order so results match
/// bit-exactly.
#[inline]
pub(crate) fn weights_for(q: [f64; 4], epsilon: f64) -> [f64; 3] {
    let d = crate::quat::rotate_z(q);
    let o = crate::quat::rotate_x(q);
    let num = d[0] * o[1] - d[1] * o[0];
    let den = d[2] * d[0] * o[0] + d[2] * d[1] * o[1] - (d[0] * d[0] + d[1] * d[1]) * o[2];
    let psi = num.atan2(den);
    let two_psi = 2.0 * psi;
    [1.0, epsilon * two_psi.cos(), epsilon * two_psi.sin()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quat;

    #[test]
    fn weights_are_bounded_and_start_with_unity() {
        let q = quat::normalize([0.2, -0.4, 0.1, 0.9]);
        let w = weights_for(q, 0.9);
        assert_eq!(w[0], 1.0);
        assert!((w[1] * w[1] + w[2] * w[2]).sqrt() <= 0.9 + 1e-12);
    }

    #[test]
    fn rotating_the_detector_by_90_degrees_flips_qu() {
        // ψ → ψ + π/2 means cos 2ψ → −cos 2ψ and sin 2ψ → −sin 2ψ.
        let base = quat::from_axis_angle([0.0, 1.0, 0.0], 0.8);
        let spun = quat::mul(
            base,
            quat::from_axis_angle([0.0, 0.0, 1.0], std::f64::consts::FRAC_PI_2),
        );
        let w0 = weights_for(base, 1.0);
        let w1 = weights_for(spun, 1.0);
        assert!((w0[1] + w1[1]).abs() < 1e-10, "{w0:?} vs {w1:?}");
        assert!((w0[2] + w1[2]).abs() < 1e-10, "{w0:?} vs {w1:?}");
    }

    #[test]
    fn efficiency_scales_polarisation_only() {
        let q = quat::normalize([0.1, 0.2, 0.3, 0.9]);
        let full = weights_for(q, 1.0);
        let half = weights_for(q, 0.5);
        assert_eq!(half[0], 1.0);
        assert!((half[1] - 0.5 * full[1]).abs() < 1e-15);
        assert!((half[2] - 0.5 * full[2]).abs() < 1e-15);
    }
}
