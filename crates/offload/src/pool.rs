//! The manually implemented device memory pool.
//!
//! Raw `omp_target_alloc` calls cost ~100 µs each (a driver round-trip),
//! which is ruinous for pipelines that allocate per kernel call. The
//! paper's OpenMP port therefore manages device memory through "a C++
//! singleton class … which uses a manually implemented memory pool"
//! (§ 3.1.2); this module is that pool.
//!
//! Freed buffers return to per-size-class free lists and are reused without
//! touching the (simulated) driver; their capacity stays resident on the
//! device until [`Pool::trim`]. Size classes are powers of two, trading
//! up to 2× internal fragmentation for O(1) reuse — the same trade JAX's
//! allocator makes, which is why the paper observes JAX's higher memory
//! footprint.

use std::collections::BTreeMap;

use accel_sim::{Context, MemoryError};

use crate::buffer::{DeviceBuffer, DeviceElem};

/// Allocation statistics, for the pool ablation bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from a free list.
    pub hits: u64,
    /// Allocations that had to go to the device allocator.
    pub misses: u64,
    /// Buffers currently parked in free lists.
    pub cached: u64,
    /// Device bytes held by the pool (live + cached).
    pub held_bytes: u64,
}

/// A size-class pool of device buffers of element type `T`.
#[derive(Debug, Default)]
pub struct Pool<T: DeviceElem> {
    /// Free lists keyed by capacity class (element count, power of two),
    /// ordered so [`Pool::trim`] frees in the same order on every run.
    free: BTreeMap<usize, Vec<Vec<T>>>,
    stats: PoolStats,
    /// When false, every allocation goes to the device allocator and every
    /// free returns capacity immediately — the "no pool" ablation.
    enabled: bool,
}

impl<T: DeviceElem> Pool<T> {
    /// A pooling allocator (the production configuration).
    pub fn new() -> Self {
        Self {
            free: BTreeMap::new(),
            stats: PoolStats::default(),
            enabled: true,
        }
    }

    /// A pass-through allocator for the ablation bench.
    pub fn disabled() -> Self {
        Self {
            free: BTreeMap::new(),
            stats: PoolStats::default(),
            enabled: false,
        }
    }

    /// Allocate a buffer of `len` elements, zero-initialised.
    pub fn alloc(&mut self, ctx: &mut Context, len: usize) -> Result<DeviceBuffer<T>, MemoryError> {
        let class = len.next_power_of_two().max(1);
        let class_bytes = (class * T::SIZE) as u64;

        if self.enabled {
            if let Some(mut storage) = self.free.get_mut(&class).and_then(Vec::pop) {
                self.stats.hits += 1;
                self.stats.cached -= 1;
                // Capacity already resident: charge nothing, just zero.
                storage[..len].fill(T::default());
                return Ok(DeviceBuffer::from_storage(storage, len, class_bytes));
            }
        }
        ctx.device_alloc(class_bytes, false)?;
        self.stats.misses += 1;
        self.stats.held_bytes += class_bytes;
        Ok(DeviceBuffer::from_storage(
            vec![T::default(); class],
            len,
            class_bytes,
        ))
    }

    /// Return a buffer to the pool (or to the device when pooling is
    /// disabled).
    pub fn free(&mut self, ctx: &mut Context, buffer: DeviceBuffer<T>) {
        let class = buffer.storage.len();
        if self.enabled {
            self.free.entry(class).or_default().push(buffer.storage);
            self.stats.cached += 1;
        } else {
            ctx.device_free(buffer.class_bytes);
            self.stats.held_bytes -= buffer.class_bytes;
        }
    }

    /// Release all cached capacity back to the device.
    pub fn trim(&mut self, ctx: &mut Context) {
        for (class, list) in std::mem::take(&mut self.free) {
            for storage in list {
                debug_assert_eq!(storage.len(), class);
                let bytes = (class * T::SIZE) as u64;
                ctx.device_free(bytes);
                self.stats.held_bytes -= bytes;
                self.stats.cached -= 1;
            }
        }
    }

    /// Allocation statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::NodeCalib;

    fn ctx() -> Context {
        Context::new(NodeCalib::default())
    }

    #[test]
    fn reuse_avoids_device_allocations() {
        let mut c = ctx();
        let mut pool: Pool<f64> = Pool::new();
        let a = pool.alloc(&mut c, 100).unwrap();
        let in_use_after_first = c.device_in_use();
        pool.free(&mut c, a);
        // Freed capacity stays resident...
        assert_eq!(c.device_in_use(), in_use_after_first);
        // ...and the next same-class alloc is a hit with no new capacity.
        let b = pool.alloc(&mut c, 90).unwrap();
        assert_eq!(c.device_in_use(), in_use_after_first);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
        pool.free(&mut c, b);
    }

    #[test]
    fn pool_hits_skip_alloc_latency() {
        let mut c = ctx();
        let mut pool: Pool<f64> = Pool::new();
        let a = pool.alloc(&mut c, 64).unwrap();
        pool.free(&mut c, a);
        let charged_after_miss = c.stats().get("accel_data_alloc").map(|s| s.calls);
        let b = pool.alloc(&mut c, 64).unwrap();
        assert_eq!(
            c.stats().get("accel_data_alloc").map(|s| s.calls),
            charged_after_miss,
            "pool hit must not touch the device allocator"
        );
        pool.free(&mut c, b);
    }

    #[test]
    fn reused_buffers_are_zeroed() {
        let mut c = ctx();
        let mut pool: Pool<f64> = Pool::new();
        let mut a = pool.alloc(&mut c, 8).unwrap();
        a.device_slice_mut().fill(7.0);
        pool.free(&mut c, a);
        let b = pool.alloc(&mut c, 8).unwrap();
        assert!(b.device_slice().iter().all(|&x| x == 0.0));
        pool.free(&mut c, b);
    }

    #[test]
    fn size_classes_are_powers_of_two() {
        let mut c = ctx();
        let mut pool: Pool<f64> = Pool::new();
        let a = pool.alloc(&mut c, 100).unwrap();
        assert_eq!(a.capacity_bytes(), 128 * 8);
        assert_eq!(a.len(), 100);
        // A 120-element request reuses the 128-class buffer.
        pool.free(&mut c, a);
        let b = pool.alloc(&mut c, 120).unwrap();
        assert_eq!(pool.stats().hits, 1);
        pool.free(&mut c, b);
    }

    #[test]
    fn disabled_pool_returns_capacity_immediately() {
        let mut c = ctx();
        let mut pool: Pool<f64> = Pool::disabled();
        let a = pool.alloc(&mut c, 64).unwrap();
        assert!(c.device_in_use() > 0);
        pool.free(&mut c, a);
        assert_eq!(c.device_in_use(), 0);
        // Second alloc is a miss again (pays latency again).
        let b = pool.alloc(&mut c, 64).unwrap();
        assert_eq!(pool.stats().misses, 2);
        assert_eq!(pool.stats().hits, 0);
        pool.free(&mut c, b);
    }

    #[test]
    fn trim_releases_cached_capacity() {
        let mut c = ctx();
        let mut pool: Pool<i64> = Pool::new();
        let a = pool.alloc(&mut c, 32).unwrap();
        let b = pool.alloc(&mut c, 32).unwrap();
        pool.free(&mut c, a);
        pool.free(&mut c, b);
        assert!(c.device_in_use() > 0);
        pool.trim(&mut c);
        assert_eq!(c.device_in_use(), 0);
        assert_eq!(pool.stats().cached, 0);
        assert_eq!(pool.stats().held_bytes, 0);
    }

    #[test]
    fn oom_propagates() {
        let mut c = Context::with_capacity(NodeCalib::default(), 1024);
        let mut pool: Pool<f64> = Pool::new();
        assert!(pool.alloc(&mut c, 64).is_ok()); // 512 B
        assert!(pool.alloc(&mut c, 64).is_ok()); // 1024 B total
        let err = pool.alloc(&mut c, 1).unwrap_err();
        assert_eq!(err.capacity, 1024);
    }
}
