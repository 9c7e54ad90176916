//! The framework-agnostic accelerator-memory abstraction (paper § 3.2.1).
//!
//! The hybrid pipeline tracks where each [`BufferId`] currently lives and
//! moves data lazily. What "on the device" means differs per framework —
//! an [`offload::DeviceBuffer`] for the OpenMP-style port, an immutable
//! [`arrayjit::Array`] for the JIT port — so this module hides both behind
//! [`AccelStore`], "an abstraction layer for memory operations, including
//! allocation, deallocation, and data transfer between devices".

use std::collections::HashMap;

use accel_sim::{Context, MemoryError, TransferDir};
use arrayjit::Array;
use offload::{DeviceBuffer, Pool};

use crate::workspace::{BufferId, Workspace};

/// A kernel asked for a buffer that is not resident on the device — a
/// pipeline sequencing bug, surfaced as a typed error so the pipeline can
/// report which kernel touched which buffer instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidencyError {
    /// The buffer that was not resident.
    pub buffer: BufferId,
}

impl std::fmt::Display for ResidencyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} not resident on device", self.buffer)
    }
}

impl std::error::Error for ResidencyError {}

/// Device-side storage for one rank, in one of the framework styles.
pub enum AccelStore {
    /// No accelerator (the CPU baseline).
    None,
    /// OpenMP-target-style explicit buffers with a memory pool.
    Omp(OmpStore),
    /// arrayjit arrays (the framework keeps its own pool; buffers are
    /// immutable and replaced functionally).
    Jit(JitStore),
}

/// Device buffers for the offload port.
#[derive(Default)]
pub struct OmpStore {
    pub pool_f64: Pool<f64>,
    pub pool_i64: Pool<i64>,
    pub f64_bufs: HashMap<BufferId, DeviceBuffer<f64>>,
    pub i64_bufs: HashMap<BufferId, DeviceBuffer<i64>>,
}

/// Device arrays for the arrayjit port, plus the cached sample mask the
/// padded kernels share.
#[derive(Default)]
pub struct JitStore {
    pub arrays: HashMap<BufferId, Array>,
    /// `[n_samp]` 0/1 mask of samples inside any interval (the padding
    /// mask), plus its registered device footprint.
    pub sample_mask: Option<Array>,
    mask_bytes: u64,
    /// arrayjit allocations are inflated by the framework's pool-slack
    /// factor; remember what was charged per buffer so frees balance.
    charged: HashMap<BufferId, u64>,
    /// True for the arrayjit *CPU backend* (§ 4.2): arrays live in host
    /// memory, so staging charges no device memory or PCIe time.
    pub host_mode: bool,
}

impl AccelStore {
    /// Construct a store for the given style.
    pub fn omp() -> Self {
        AccelStore::Omp(OmpStore {
            pool_f64: Pool::new(),
            pool_i64: Pool::new(),
            f64_bufs: HashMap::new(),
            i64_bufs: HashMap::new(),
        })
    }

    /// Construct the arrayjit store (device backend).
    pub fn jit() -> Self {
        AccelStore::Jit(JitStore::default())
    }

    /// Construct the arrayjit store for the CPU backend: arrays stay in
    /// host memory and staging is free.
    pub fn jit_host() -> Self {
        AccelStore::Jit(JitStore {
            host_mode: true,
            ..JitStore::default()
        })
    }

    /// Whether `id` is resident on the device.
    pub fn resident(&self, id: BufferId) -> bool {
        match self {
            AccelStore::None => false,
            AccelStore::Omp(s) => s.f64_bufs.contains_key(&id) || s.i64_bufs.contains_key(&id),
            AccelStore::Jit(s) => s.arrays.contains_key(&id),
        }
    }

    /// Ensure `id` is on the device, uploading from the workspace if not.
    pub fn ensure_device(
        &mut self,
        ctx: &mut Context,
        ws: &Workspace,
        id: BufferId,
    ) -> Result<(), MemoryError> {
        if self.resident(id) {
            return Ok(());
        }
        match self {
            AccelStore::None => Ok(()),
            AccelStore::Omp(s) => {
                if id.is_integer() {
                    let buf = offload::map_to(ctx, &mut s.pool_i64, &ws.obs.pixels)?;
                    s.i64_bufs.insert(id, buf);
                } else {
                    let buf = offload::map_to(ctx, &mut s.pool_f64, ws.f64_slice(id))?;
                    s.f64_bufs.insert(id, buf);
                }
                Ok(())
            }
            AccelStore::Jit(s) => {
                if !s.host_mode {
                    let bytes =
                        (ws.byte_len(id) as f64 * ctx.calib.framework.jit_mem_overhead) as u64;
                    ctx.device_alloc(bytes, true)?;
                    ctx.transfer(ws.byte_len(id) as f64, TransferDir::HostToDevice);
                    s.charged.insert(id, bytes);
                }
                let array = if id.is_integer() {
                    Array::from_i64(ws.obs.pixels.as_slice())
                } else {
                    Array::from_f64(ws.f64_slice(id))
                };
                s.arrays.insert(id, array);
                Ok(())
            }
        }
    }

    /// Copy `id` back into the workspace (device stays resident).
    pub fn update_host(&mut self, ctx: &mut Context, ws: &mut Workspace, id: BufferId) {
        match self {
            AccelStore::None => {}
            AccelStore::Omp(s) => {
                if id.is_integer() {
                    if let Some(buf) = s.i64_bufs.get(&id) {
                        offload::update_host(ctx, buf, &mut ws.obs.pixels);
                    }
                } else if let Some(buf) = s.f64_bufs.get(&id) {
                    offload::update_host(ctx, buf, ws.f64_slice_mut(id));
                }
            }
            AccelStore::Jit(s) => {
                if let Some(array) = s.arrays.get(&id) {
                    if !s.host_mode {
                        ctx.transfer(ws.byte_len(id) as f64, TransferDir::DeviceToHost);
                    }
                    if id.is_integer() {
                        ws.obs.pixels.copy_from_slice(array.as_i64());
                    } else {
                        ws.f64_slice_mut(id).copy_from_slice(array.as_f64());
                    }
                }
            }
        }
    }

    /// Drop `id` from the device without copying back.
    pub fn delete(&mut self, ctx: &mut Context, id: BufferId) {
        match self {
            AccelStore::None => {}
            AccelStore::Omp(s) => {
                if let Some(buf) = s.f64_bufs.remove(&id) {
                    s.pool_f64.free(ctx, buf);
                }
                if let Some(buf) = s.i64_bufs.remove(&id) {
                    s.pool_i64.free(ctx, buf);
                }
            }
            AccelStore::Jit(s) => {
                if s.arrays.remove(&id).is_some() {
                    if let Some(bytes) = s.charged.remove(&id) {
                        ctx.device_free(bytes);
                    }
                }
            }
        }
    }

    /// End of pipeline: delete everything and release pooled capacity.
    pub fn clear(&mut self, ctx: &mut Context) {
        for id in BufferId::ALL {
            self.delete(ctx, id);
        }
        match self {
            AccelStore::Omp(s) => {
                s.pool_f64.trim(ctx);
                s.pool_i64.trim(ctx);
            }
            AccelStore::Jit(s) => {
                if s.sample_mask.take().is_some() {
                    ctx.device_free(s.mask_bytes);
                    s.mask_bytes = 0;
                }
            }
            AccelStore::None => {}
        }
    }
}

impl JitStore {
    /// The 0/1 in-interval mask `[n_samp]`, built (and uploaded) once per
    /// residency period.
    pub fn sample_mask(&mut self, ctx: &mut Context, ws: &Workspace) -> Array {
        if let Some(m) = &self.sample_mask {
            return m.clone();
        }
        let mut mask = vec![0.0f64; ws.obs.n_samples];
        for iv in &ws.obs.intervals {
            mask[iv.start..iv.end].fill(1.0);
        }
        let bytes = (mask.len() * 8) as u64;
        if !self.host_mode {
            // Best effort accounting: the mask is small relative to data.
            if ctx.device_alloc(bytes, true).is_ok() {
                self.mask_bytes = bytes;
            }
            ctx.transfer(bytes as f64, TransferDir::HostToDevice);
        }
        let array = Array::from_f64(mask);
        self.sample_mask = Some(array.clone());
        array
    }

    /// Fetch an array; [`ResidencyError`] when the pipeline never staged
    /// it (a sequencing bug, reported rather than panicking).
    pub fn array(&self, id: BufferId) -> Result<&Array, ResidencyError> {
        self.arrays.get(&id).ok_or(ResidencyError { buffer: id })
    }

    /// Replace an array functionally (the JIT kernels' write path). The
    /// buffer must already be resident, so capacity accounting stays
    /// balanced.
    pub fn replace(&mut self, id: BufferId, array: Array) -> Result<(), ResidencyError> {
        if !self.arrays.contains_key(&id) {
            return Err(ResidencyError { buffer: id });
        }
        self.arrays.insert(id, array);
        Ok(())
    }
}

impl OmpStore {
    /// Fetch an f64 device buffer mutably.
    pub fn f64_buf_mut(&mut self, id: BufferId) -> Result<&mut DeviceBuffer<f64>, ResidencyError> {
        self.f64_bufs
            .get_mut(&id)
            .ok_or(ResidencyError { buffer: id })
    }

    /// Fetch the pixels buffer (must be resident).
    pub fn pixels(&self) -> Result<&DeviceBuffer<i64>, ResidencyError> {
        self.i64_bufs.get(&BufferId::Pixels).ok_or(ResidencyError {
            buffer: BufferId::Pixels,
        })
    }

    /// Fetch the pixels buffer mutably.
    pub fn pixels_mut(&mut self) -> Result<&mut DeviceBuffer<i64>, ResidencyError> {
        self.i64_bufs
            .get_mut(&BufferId::Pixels)
            .ok_or(ResidencyError {
                buffer: BufferId::Pixels,
            })
    }

    /// Take several f64 buffers out at once to satisfy the borrow checker
    /// when a kernel reads some and writes others; returns them afterwards
    /// with [`OmpStore::put_back`].
    pub fn take(&mut self, id: BufferId) -> Result<DeviceBuffer<f64>, ResidencyError> {
        self.f64_bufs
            .remove(&id)
            .ok_or(ResidencyError { buffer: id })
    }

    /// Return a buffer taken with [`OmpStore::take`].
    pub fn put_back(&mut self, id: BufferId, buf: DeviceBuffer<f64>) {
        self.f64_bufs.insert(id, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_workspace;
    use accel_sim::NodeCalib;

    fn ctx() -> Context {
        Context::new(NodeCalib::default())
    }

    #[test]
    fn omp_roundtrip_preserves_data() {
        let mut ws = test_workspace(2, 64, 8);
        let mut c = ctx();
        let mut store = AccelStore::omp();
        store.ensure_device(&mut c, &ws, BufferId::Signal).unwrap();
        assert!(store.resident(BufferId::Signal));
        let original = ws.obs.signal.clone();
        ws.obs.signal.fill(0.0);
        store.update_host(&mut c, &mut ws, BufferId::Signal);
        assert_eq!(ws.obs.signal, original);
    }

    #[test]
    fn jit_roundtrip_preserves_data() {
        let mut ws = test_workspace(2, 64, 8);
        let mut c = ctx();
        let mut store = AccelStore::jit();
        store.ensure_device(&mut c, &ws, BufferId::Pixels).unwrap();
        let original = ws.obs.pixels.clone();
        ws.obs.pixels.fill(0);
        store.update_host(&mut c, &mut ws, BufferId::Pixels);
        assert_eq!(ws.obs.pixels, original);
    }

    #[test]
    fn ensure_device_is_idempotent() {
        let ws = test_workspace(1, 32, 4);
        let mut c = ctx();
        let mut store = AccelStore::omp();
        store.ensure_device(&mut c, &ws, BufferId::Signal).unwrap();
        let uploaded = c.stats()["accel_data_update_device"].calls;
        store.ensure_device(&mut c, &ws, BufferId::Signal).unwrap();
        assert_eq!(c.stats()["accel_data_update_device"].calls, uploaded);
    }

    #[test]
    fn jit_charges_pool_overhead() {
        let ws = test_workspace(1, 1024, 4);
        let mut c = ctx();
        let mut store = AccelStore::jit();
        store.ensure_device(&mut c, &ws, BufferId::Signal).unwrap();
        let expected =
            (ws.byte_len(BufferId::Signal) as f64 * c.calib.framework.jit_mem_overhead) as u64;
        assert_eq!(c.device_in_use(), expected);
        store.clear(&mut c);
        assert_eq!(c.device_in_use(), 0);
    }

    #[test]
    fn omp_clear_releases_everything() {
        let ws = test_workspace(2, 128, 8);
        let mut c = ctx();
        let mut store = AccelStore::omp();
        for id in [BufferId::Signal, BufferId::Quats, BufferId::Pixels] {
            store.ensure_device(&mut c, &ws, id).unwrap();
        }
        assert!(c.device_in_use() > 0);
        store.clear(&mut c);
        assert_eq!(c.device_in_use(), 0);
        assert!(!store.resident(BufferId::Signal));
    }

    #[test]
    fn jit_sample_mask_matches_intervals() {
        let ws = test_workspace(2, 100, 4);
        let mut c = ctx();
        let mut store = JitStore::default();
        let mask = store.sample_mask(&mut c, &ws);
        let m = mask.as_f64();
        let mut expected = vec![0.0; 100];
        for iv in &ws.obs.intervals {
            expected[iv.start..iv.end].fill(1.0);
        }
        assert_eq!(m, expected.as_slice());
        // Cached on second use.
        let transfers = c.stats()["accel_data_update_device"].calls;
        store.sample_mask(&mut c, &ws);
        assert_eq!(c.stats()["accel_data_update_device"].calls, transfers);
    }

    #[test]
    fn none_store_is_inert() {
        let mut ws = test_workspace(1, 16, 4);
        let mut c = ctx();
        let mut store = AccelStore::None;
        store.ensure_device(&mut c, &ws, BufferId::Signal).unwrap();
        assert!(!store.resident(BufferId::Signal));
        store.update_host(&mut c, &mut ws, BufferId::Signal);
        store.clear(&mut c);
        assert_eq!(c.device_in_use(), 0);
        assert!(c.stats().is_empty());
    }
}
