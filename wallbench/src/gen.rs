//! Seeded input generation and the input digest.
//!
//! The workload seed reaches the program only through what this module
//! generates (scenario problem seeds, grid axes, job lines). Op *counts
//! and kinds* never depend on the seed: the mix is a fixed schedule, so
//! two seeds run the same amount of work on different inputs.

/// SplitMix64: a small, well-mixed generator with a fixed output for
/// every seed, independent of the platform and of the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A problem seed small enough that the generator's derived per-rank
    /// seeds (`seed * 1000 + rank`) cannot overflow.
    pub fn problem_seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000_007
    }

    /// Fisher-Yates shuffle: the seed decides the order, never the
    /// multiset, so every seed runs the same amount of work.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over every generated input, in generation order. Two runs that
/// print the same digest ran the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn feed(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(b"\n") {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Position of the `q` quantile in a sorted sample of `n` (nearest rank),
/// the same rule [`crate::measure::quantile`] uses.
pub fn quantile_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Assert that the `q` quantile of a schedule whose ops fall into
/// size classes lands inside one class, at least `margin` ops from either
/// edge. `classes` are op counts per class, ordered from the cheapest
/// class to the dearest (the order the measured op sizes put them in).
/// Returns the class index.
#[cfg(test)]
pub fn quantile_class(classes: &[usize], q: f64, margin: usize) -> Result<usize, String> {
    let n: usize = classes.iter().sum();
    let at = quantile_index(n, q);
    let mut lo = 0;
    for (i, &count) in classes.iter().enumerate() {
        let hi = lo + count;
        if at < hi {
            // Only an edge shared with a neighbouring class can swing the
            // quantile between op sizes.
            let clear_below = lo == 0 || at >= lo + margin;
            let clear_above = hi == n || at + margin < hi;
            return if clear_below && clear_above {
                Ok(i)
            } else {
                Err(format!(
                    "quantile {q} (op {at} of {n}) is within {margin} ops of an edge of class {i} ({lo}..{hi})"
                ))
            };
        }
        lo = hi;
    }
    unreachable!("quantile index is below the op count")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn quantile_class_rejects_edges() {
        // 70 cheap ops then 30 dear ones: p50 sits deep in class 0, p90
        // deep in class 1.
        assert_eq!(quantile_class(&[70, 30], 0.5, 5), Ok(0));
        assert_eq!(quantile_class(&[70, 30], 0.9, 5), Ok(1));
        // p70 is the last cheap op: on the edge.
        assert!(quantile_class(&[70, 30], 0.7, 5).is_err());
    }
}
