//! Target regions: the `#pragma omp target teams distribute parallel for`
//! equivalent.
//!
//! A launch names its work with a [`KernelSpec`] (the information the
//! compiler + runtime would derive from the loop body), executes the body
//! eagerly on device buffers, and charges the simulated device. The
//! collapse-3 variant mirrors the paper's canonical kernel shape: a triple
//! loop over detectors × intervals × samples, collapsed for parallelism,
//! iterating to the precomputed *maximum* interval size with an in-body
//! guard — the guard's divergence cost is what `divergence` describes.

use accel_sim::{Context, KernelProfile};

/// Static description of a target region's per-item work.
#[derive(Debug, Clone, Copy)]
pub struct KernelSpec {
    /// Kernel name for per-kernel accounting (paper Fig. 6).
    pub name: &'static str,
    /// FP64 operations per loop iteration.
    pub flops_per_item: f64,
    /// Device-memory bytes touched per iteration.
    pub bytes_per_item: f64,
    /// SIMT divergence multiplier (≥ 1): 1.0 for straight-line bodies,
    /// higher for branch-heavy bodies like `pixels_healpix`.
    pub divergence: f64,
}

impl KernelSpec {
    /// A straight-line (non-divergent) kernel.
    pub const fn uniform(name: &'static str, flops_per_item: f64, bytes_per_item: f64) -> Self {
        Self {
            name,
            flops_per_item,
            bytes_per_item,
            divergence: 1.0,
        }
    }

    /// Same kernel with a divergence factor.
    pub const fn divergent(
        name: &'static str,
        flops_per_item: f64,
        bytes_per_item: f64,
        divergence: f64,
    ) -> Self {
        Self {
            name,
            flops_per_item,
            bytes_per_item,
            divergence,
        }
    }

    fn profile(&self, items: usize) -> KernelProfile {
        KernelProfile {
            name: self.name.to_string(),
            items: items as f64,
            flops_per_item: self.flops_per_item,
            bytes_per_item: self.bytes_per_item,
            divergence: self.divergence,
        }
    }
}

/// `#pragma omp target teams distribute parallel for` over `items`
/// iterations.
///
/// The body runs on the host against device buffers; the launch is charged
/// the OpenMP region-entry overhead plus the modelled device time.
pub fn target_parallel_for(
    ctx: &mut Context,
    spec: &KernelSpec,
    items: usize,
    mut body: impl FnMut(usize),
) {
    let region_overhead = ctx.calib.framework.omp_region;
    ctx.launch(spec.profile(items), region_overhead);
    for i in 0..items {
        body(i);
    }
}

/// The collapsed triple loop of the paper's kernels:
/// `collapse(3)` over `(n0, n1, n2)` — detectors × intervals × max
/// samples-per-interval, with the out-of-interval guard inside the body.
pub fn target_parallel_for_collapse3(
    ctx: &mut Context,
    spec: &KernelSpec,
    bounds: (usize, usize, usize),
    mut body: impl FnMut(usize, usize, usize),
) {
    charge_collapse3(ctx, spec, bounds);
    let (n0, n1, n2) = bounds;
    for i in 0..n0 {
        for j in 0..n1 {
            for k in 0..n2 {
                body(i, j, k);
            }
        }
    }
}

/// The charge half of [`target_parallel_for_collapse3`]: the launch of
/// the collapsed iteration space, without running a body. A caller that
/// already holds the region's results (a pipeline repeating a kernel
/// over unchanged inputs) is charged exactly what running it would cost.
pub fn charge_collapse3(ctx: &mut Context, spec: &KernelSpec, bounds: (usize, usize, usize)) {
    let (n0, n1, n2) = bounds;
    let region_overhead = ctx.calib.framework.omp_region;
    ctx.launch(spec.profile(n0 * n1 * n2), region_overhead);
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::NodeCalib;

    fn ctx() -> Context {
        Context::new(NodeCalib::default())
    }

    #[test]
    fn body_runs_for_every_item() {
        let mut c = ctx();
        let spec = KernelSpec::uniform("count", 1.0, 8.0);
        let mut sum = 0usize;
        target_parallel_for(&mut c, &spec, 100, |i| sum += i);
        assert_eq!(sum, 99 * 100 / 2);
        assert_eq!(c.stats()["count"].calls, 1);
    }

    #[test]
    fn collapse3_visits_the_full_cartesian_product() {
        let mut c = ctx();
        let spec = KernelSpec::uniform("c3", 1.0, 8.0);
        let mut visits = [0u32; 2 * 3 * 4];
        target_parallel_for_collapse3(&mut c, &spec, (2, 3, 4), |i, j, k| {
            visits[(i * 3 + j) * 4 + k] += 1;
        });
        assert!(visits.iter().all(|&v| v == 1));
        // Items reported to the device = collapsed product.
        let trace = c.trace();
        assert_eq!(trace.kernel_count(), 1);
    }

    #[test]
    fn charge_half_charges_what_the_loop_charges() {
        let spec = KernelSpec::divergent("c3", 12.0, 40.0, 1.5);
        let mut ran = ctx();
        target_parallel_for_collapse3(&mut ran, &spec, (3, 4, 5), |_, _, _| {});
        let mut charged = ctx();
        charge_collapse3(&mut charged, &spec, (3, 4, 5));
        assert_eq!(ran.trace(), charged.trace());
    }

    #[test]
    fn divergence_inflates_device_time() {
        let mut c1 = ctx();
        let straight = KernelSpec::uniform("s", 100.0, 8.0);
        target_parallel_for(&mut c1, &straight, 1_000_000, |_| {});
        let mut c2 = ctx();
        let divergent = KernelSpec::divergent("s", 100.0, 8.0, 4.0);
        target_parallel_for(&mut c2, &divergent, 1_000_000, |_| {});
        assert!(c2.stats()["s"].seconds > 2.0 * c1.stats()["s"].seconds);
    }

    #[test]
    fn region_overhead_is_cheaper_than_jit_dispatch() {
        // The structural reason OpenMP offload is "consistently 20% faster"
        // in the paper's Fig. 4: lower per-launch overhead.
        let c = ctx();
        assert!(c.calib.framework.omp_region < c.calib.framework.jit_dispatch);
    }

    #[test]
    fn empty_launch_is_legal() {
        let mut c = ctx();
        let spec = KernelSpec::uniform("empty", 1.0, 8.0);
        target_parallel_for(&mut c, &spec, 0, |_| unreachable!());
        assert_eq!(c.stats()["empty"].calls, 1);
    }
}
