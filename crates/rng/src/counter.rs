//! Stateless random streams over the Threefry cipher.
//!
//! TOAST keys its noise streams as `key = (telescope/realisation, detector)`
//! and counters as `(observation, sample index)`. [`CounterRng`] mirrors
//! that: a stream is identified by two 64-bit key words; every draw names
//! its absolute position in the stream, so any sub-range can be generated
//! by any worker with bitwise-identical results.

use crate::dist;
use crate::threefry::threefry2x64_20;

/// A reproducible, stateless random stream.
///
/// Cloning or re-creating a `CounterRng` with the same keys yields the same
/// stream. All methods take the draw index explicitly; there is no hidden
/// cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    key: [u64; 2],
}

impl CounterRng {
    /// Create a stream identified by `(key_hi, key_lo)` — in TOAST terms,
    /// typically `(realization, detector)` or `(observation, telescope)`.
    #[inline]
    pub fn new(key_hi: u64, key_lo: u64) -> Self {
        Self {
            key: [key_hi, key_lo],
        }
    }

    /// The raw 128-bit block at counter position `(hi, lo)`.
    #[inline]
    pub fn block(&self, hi: u64, lo: u64) -> [u64; 2] {
        threefry2x64_20([hi, lo], self.key)
    }

    /// The `idx`-th raw 64-bit word of the stream.
    ///
    /// Consecutive indices map to the two words of consecutive cipher
    /// blocks, so a stream of `n` words costs `ceil(n/2)` cipher calls when
    /// generated in bulk.
    #[inline]
    pub fn word(&self, idx: u64) -> u64 {
        let block = self.block(0, idx / 2);
        block[(idx % 2) as usize]
    }

    /// Uniform double in `[0, 1)` at stream position `idx`.
    #[inline]
    pub fn uniform_01(&self, idx: u64) -> f64 {
        dist::u64_to_f64_01(self.word(idx))
    }

    /// Uniform double in `[-1, 1)` at stream position `idx`.
    #[inline]
    pub fn uniform_m11(&self, idx: u64) -> f64 {
        2.0 * self.uniform_01(idx) - 1.0
    }

    /// Standard normal variate at stream position `idx`.
    ///
    /// Uses Box–Muller over two dedicated uniform sub-streams so that the
    /// `idx`-th gaussian is a pure function of `idx` (no pairing between
    /// adjacent indices leaks across chunk boundaries).
    #[inline]
    pub fn gaussian(&self, idx: u64) -> f64 {
        // Two independent words per gaussian: draw them from one cipher
        // block so the cost stays at one cipher call per variate.
        let block = self.block(1, idx);
        let (u1, u2) = (
            dist::u64_to_f64_open(block[0]),
            dist::u64_to_f64_01(block[1]),
        );
        dist::box_muller(u1, u2)
    }

    /// Fill `out` with standard normal variates for stream positions
    /// `start .. start + out.len()`.
    pub fn fill_gaussian(&self, start: u64, out: &mut [f64]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.gaussian(start + i as u64);
        }
    }

    /// Fill `out` with raw 64-bit words for positions
    /// `start .. start + out.len()`, two words per cipher call.
    pub fn fill_words(&self, start: u64, out: &mut [u64]) {
        let mut i = 0usize;
        // Align to a block boundary first.
        if start % 2 == 1 && !out.is_empty() {
            out[0] = self.word(start);
            i = 1;
        }
        let mut ctr = (start + i as u64) / 2;
        while i + 1 < out.len() {
            let block = self.block(0, ctr);
            out[i] = block[0];
            out[i + 1] = block[1];
            i += 2;
            ctr += 1;
        }
        if i < out.len() {
            out[i] = self.block(0, ctr)[0];
        }
    }

    /// Derive a child stream, e.g. one per detector from a telescope
    /// stream. Mixes the child index through the cipher so sibling streams
    /// are statistically independent.
    pub fn child(&self, index: u64) -> Self {
        let mixed = threefry2x64_20([index, !index], self.key);
        Self { key: mixed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_matches_bulk_fill() {
        let rng = CounterRng::new(9, 9);
        for start in [0u64, 1, 2, 5, 100] {
            let mut bulk = vec![0u64; 17];
            rng.fill_words(start, &mut bulk);
            for (i, &w) in bulk.iter().enumerate() {
                assert_eq!(w, rng.word(start + i as u64), "start={start} i={i}");
            }
        }
    }

    #[test]
    fn uniform_in_range() {
        let rng = CounterRng::new(3, 1);
        for i in 0..10_000 {
            let u = rng.uniform_01(i);
            assert!((0.0..1.0).contains(&u));
            let v = rng.uniform_m11(i);
            assert!((-1.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniform_mean_and_variance() {
        let rng = CounterRng::new(77, 0);
        let n = 100_000u64;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for i in 0..n {
            let u = rng.uniform_01(i);
            sum += u;
            sumsq += u * u;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.005, "var {var}");
    }

    #[test]
    fn gaussian_moments() {
        let rng = CounterRng::new(5, 123);
        let n = 200_000u64;
        let (mut sum, mut sumsq, mut sum3) = (0.0, 0.0, 0.0);
        for i in 0..n {
            let g = rng.gaussian(i);
            sum += g;
            sumsq += g * g;
            sum3 += g * g * g;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        let skew = sum3 / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!(skew.abs() < 0.05, "skew {skew}");
    }

    #[test]
    fn gaussian_tail_probability() {
        // P(|g| > 3) ~ 0.0027; check it is small but non-zero at n=2e5.
        let rng = CounterRng::new(8, 2);
        let n = 200_000u64;
        let tail = (0..n).filter(|&i| rng.gaussian(i).abs() > 3.0).count();
        let frac = tail as f64 / n as f64;
        assert!((0.001..0.006).contains(&frac), "tail fraction {frac}");
    }

    #[test]
    fn children_are_independent() {
        let parent = CounterRng::new(1, 2);
        let a = parent.child(0);
        let b = parent.child(1);
        assert_ne!(a, b);
        // Correlation of first 1000 uniforms should be near zero.
        let n = 1000u64;
        let (mut sa, mut sb, mut sab) = (0.0, 0.0, 0.0);
        for i in 0..n {
            let (x, y) = (a.uniform_01(i), b.uniform_01(i));
            sa += x;
            sb += y;
            sab += x * y;
        }
        let corr = sab / n as f64 - (sa / n as f64) * (sb / n as f64);
        assert!(corr.abs() < 0.01, "corr {corr}");
    }

    #[test]
    fn uniform_histogram_is_flat() {
        let rng = CounterRng::new(31, 41);
        let n = 100_000u64;
        let mut bins = [0u32; 20];
        for i in 0..n {
            let u = rng.uniform_01(i);
            bins[(u * 20.0) as usize] += 1;
        }
        let expected = n as f64 / 20.0;
        for (b, &c) in bins.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bin {b} deviates {dev}");
        }
    }
}
