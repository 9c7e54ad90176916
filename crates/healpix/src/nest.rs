//! NESTED-ordered pixelisation: the sphere is divided into 12 base faces,
//! each recursively quartered; a pixel index interleaves the bits of its
//! in-face `(x, y)` coordinates (a z-order curve). NESTED keeps spatially
//! close pixels numerically close, which is why TOAST's pointing kernel
//! defaults to it.

use crate::ang::{phi_to_tt, vec2ang};
use crate::Nside;

/// Spread the low 32 bits of `v` so bit `i` moves to bit `2i`.
#[inline]
pub fn spread_bits(v: u64) -> u64 {
    let mut x = v & 0xffff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`spread_bits`]: gather even-position bits back together.
#[inline]
pub fn compress_bits(v: u64) -> u64 {
    let mut x = v & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    x = (x | (x >> 16)) & 0x0000_0000_ffff_ffff;
    x
}

/// In-face coordinates `(ix, iy)` → z-order index within the face.
#[inline]
pub fn xy2zorder(ix: u64, iy: u64) -> u64 {
    spread_bits(ix) | (spread_bits(iy) << 1)
}

/// z-order index within a face → in-face coordinates `(ix, iy)`.
#[inline]
pub fn zorder2xy(z: u64) -> (u64, u64) {
    (compress_bits(z), compress_bits(z >> 1))
}

/// Decompose a NESTED pixel into `(face, ix, iy)`.
#[inline]
pub fn nest2fxy(nside: Nside, pix: u64) -> (u64, u64, u64) {
    let face_area = nside.get() * nside.get();
    let face = pix / face_area;
    let (ix, iy) = zorder2xy(pix % face_area);
    (face, ix, iy)
}

/// Compose a NESTED pixel from `(face, ix, iy)`.
#[inline]
pub fn fxy2nest(nside: Nside, face: u64, ix: u64, iy: u64) -> u64 {
    face * nside.get() * nside.get() + xy2zorder(ix, iy)
}

/// Angles `(theta, phi)` → NESTED pixel index.
///
/// Independent of the RING algorithm; the test suite cross-checks the two
/// through [`crate::convert::nest2ring`].
pub fn ang2pix_nest(nside: Nside, theta: f64, phi: f64) -> u64 {
    debug_assert!((0.0..=std::f64::consts::PI).contains(&theta));
    let n = nside.get() as i64;
    let z = theta.cos();
    let za = z.abs();
    let tt = phi_to_tt(phi);

    let (face, ix, iy) = if za <= 2.0 / 3.0 {
        // Equatorial region: locate between the ascending/descending edge
        // lines, then pick the face from the quotients.
        let temp1 = n as f64 * (0.5 + tt);
        let temp2 = n as f64 * (z * 0.75);
        let jp = (temp1 - temp2) as i64;
        let jm = (temp1 + temp2) as i64;
        let ifp = jp >> nside.order();
        let ifm = jm >> nside.order();
        let face = if ifp == ifm {
            (ifp & 3) + 4
        } else if ifp < ifm {
            ifp & 3
        } else {
            (ifm & 3) + 8
        };
        let ix = jm & (n - 1);
        let iy = n - (jp & (n - 1)) - 1;
        (face as u64, ix as u64, iy as u64)
    } else {
        // Polar caps.
        let ntt = (tt as i64).min(3);
        let tp = tt - ntt as f64;
        let tmp = n as f64 * (3.0 * (1.0 - za)).sqrt();
        let jp = ((tp * tmp) as i64).min(n - 1);
        let jm = (((1.0 - tp) * tmp) as i64).min(n - 1);
        if z >= 0.0 {
            (ntt as u64, (n - jm - 1) as u64, (n - jp - 1) as u64)
        } else {
            ((ntt + 8) as u64, jp as u64, jm as u64)
        }
    };
    fxy2nest(nside, face, ix, iy)
}

/// Unit vector → NESTED pixel index.
#[inline]
pub fn vec2pix_nest(nside: Nside, v: [f64; 3]) -> u64 {
    let (theta, phi) = vec2ang(v);
    ang2pix_nest(nside, theta, phi)
}

/// NESTED pixel index → centre `(theta, phi)`.
///
/// Implemented by converting to RING ordering and delegating, which the
/// test suite validates against `ang2pix_nest` round-trips.
pub fn pix2ang_nest(nside: Nside, pix: u64) -> (f64, f64) {
    crate::ring::pix2ang_ring(nside, crate::convert::nest2ring(nside, pix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn nside(n: u64) -> Nside {
        Nside::new(n).unwrap()
    }

    #[test]
    fn bit_spread_roundtrip() {
        for v in [0u64, 1, 2, 0xff, 0x1234, 0xffff_ffff] {
            assert_eq!(compress_bits(spread_bits(v)), v);
        }
    }

    #[test]
    fn zorder_roundtrip() {
        for ix in 0..32u64 {
            for iy in 0..32u64 {
                let z = xy2zorder(ix, iy);
                assert_eq!(zorder2xy(z), (ix, iy));
            }
        }
    }

    #[test]
    fn zorder_is_dense_within_face() {
        // For nside = 8, the 64 (ix, iy) pairs must map onto exactly 0..64.
        let mut seen = [false; 64];
        for ix in 0..8u64 {
            for iy in 0..8u64 {
                let z = xy2zorder(ix, iy) as usize;
                assert!(z < 64);
                assert!(!seen[z]);
                seen[z] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fxy_roundtrip() {
        let ns = nside(16);
        for face in 0..12 {
            for ix in [0u64, 3, 15] {
                for iy in [0u64, 7, 15] {
                    let pix = fxy2nest(ns, face, ix, iy);
                    assert!(pix < ns.npix());
                    assert_eq!(nest2fxy(ns, pix), (face, ix, iy));
                }
            }
        }
    }

    #[test]
    fn pixel_centres_roundtrip() {
        for n in [1u64, 2, 4, 8] {
            let ns = nside(n);
            for pix in 0..ns.npix() {
                let (theta, phi) = pix2ang_nest(ns, pix);
                assert_eq!(ang2pix_nest(ns, theta, phi), pix, "nside {n} pix {pix}");
            }
        }
    }

    #[test]
    fn poles_land_on_polar_faces() {
        let ns = nside(64);
        for k in 0..8 {
            let phi = 0.1 + k as f64 * PI / 4.0;
            let pn = ang2pix_nest(ns, 1e-12, phi);
            let (face, _, _) = nest2fxy(ns, pn);
            assert!(face < 4, "north face {face}");
            let ps = ang2pix_nest(ns, PI - 1e-12, phi);
            let (face, _, _) = nest2fxy(ns, ps);
            assert!((8..12).contains(&face), "south face {face}");
        }
    }

    #[test]
    fn equator_lands_on_equatorial_faces() {
        let ns = nside(64);
        let mut phi = 0.0;
        while phi < 2.0 * PI {
            let pix = ang2pix_nest(ns, PI / 2.0, phi);
            let (face, _, _) = nest2fxy(ns, pix);
            assert!((4..8).contains(&face), "phi {phi} face {face}");
            phi += 0.1;
        }
    }
}
