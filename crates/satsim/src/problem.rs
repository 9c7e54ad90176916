//! The paper's problem sizes and per-rank workload construction.
//!
//! The paper benchmarks two configurations of the satellite simulation:
//!
//! * **medium** — 5·10⁹ samples (~1 TB), run on 1 node;
//! * **large** — 5·10¹⁰ samples (~10 TB), run on 8 nodes;
//!
//! with "a couple thousand detectors". We reproduce the *structure* at a
//! documented `scale` factor: samples per detector shrink by `scale`, and
//! [`accel_sim::NodeCalib::scaled`] shrinks every fixed latency and
//! capacity by the same factor, so simulated runtimes are `scale ×` the
//! paper-scale ones and every reported ratio is scale-invariant
//! (DESIGN.md § 10).

use accel_sim::NodeCalib;
use toast_core::data::{FocalPlane, Observation, SkyGeometry};
use toast_core::dispatch::KernelId;
use toast_core::kernels::cost_constants;
use toast_core::workspace::Workspace;
use toast_healpix::Nside;

use crate::focalplane::build_focal_plane;
use crate::noise::simulate_noise;
use crate::scan::{science_intervals, ScanStrategy};
use crate::sky::synthesize_sky;

/// Which of the paper's configurations to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemSize {
    /// 5·10⁹ samples, 1 node — every single-node figure.
    Medium,
    /// 5·10¹⁰ samples, 8 nodes — the full benchmark (Fig. 5).
    Large,
}

/// A fully specified benchmark problem.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Paper-scale total samples (across all detectors and nodes).
    pub total_samples: f64,
    /// Total detectors ("a couple thousand").
    pub n_det_total: usize,
    /// Nodes in the job.
    pub nodes: u32,
    /// Scale factor applied to samples per detector (and to the
    /// calibration's latencies/capacities).
    pub scale: f64,
    /// Sky resolution (NSIDE 512 at paper scale shrinks with the scan's
    /// reduced coverage; figures use a fixed modest resolution so map
    /// buffers stay proportionate).
    pub nside: u64,
    /// Template offset step length in samples (paper-scale ~1 minute of
    /// data; scaled along with the samples).
    pub step_seconds: f64,
    /// Per-rank serial host work (unported kernels + Python layer that
    /// every process repeats on its own data), as a fraction of the node's
    /// CPU kernel time. Together with `parallel_host_fraction` this sets
    /// the Amdahl term: at the paper's 16-process reference the host
    /// fraction is ~1/3 of the CPU runtime ("strictly bounded … to about
    /// 3x").
    pub serial_host_fraction: f64,
    /// Node-level host work that *is* parallelised by adding processes —
    /// the paper's explanation for the falling CPU curve of Fig. 4 ("a
    /// large number of operations are serial within a process and are
    /// parallelized by the addition of more processes").
    pub parallel_host_fraction: f64,
    /// RNG seed for the whole problem.
    pub seed: u64,
    /// Observations the full dataset is split into: TOAST streams the
    /// medium problem's ~1 TB through a 256 GB node one observation at a
    /// time, so the resident working set is `1/n_obs` of the total. The
    /// pipelines run once per observation.
    pub n_obs: usize,
    /// Kernel passes over each observation's resident data (the map-making
    /// solver iterates the template/scan/accumulate kernels several times
    /// per observation), which is why the paper's Fig. 6 shows data
    /// movement "barely register\[ing\]" next to kernel time.
    pub passes: usize,
}

impl Problem {
    /// The paper's medium problem at `scale`.
    pub fn medium(scale: f64) -> Self {
        Self {
            total_samples: 5e9,
            n_det_total: 2048,
            nodes: 1,
            scale,
            nside: 16,
            step_seconds: 60.0,
            serial_host_fraction: 0.27,
            parallel_host_fraction: 1.0,
            seed: 53,
            n_obs: 16,
            passes: 6,
        }
    }

    /// The paper's large problem at `scale`.
    pub fn large(scale: f64) -> Self {
        Self {
            total_samples: 5e10,
            n_det_total: 2048,
            nodes: 8,
            scale,
            nside: 16,
            step_seconds: 60.0,
            serial_host_fraction: 0.27,
            parallel_host_fraction: 1.0,
            seed: 54,
            n_obs: 16,
            passes: 6,
        }
    }

    /// Build by size.
    pub fn sized(size: ProblemSize, scale: f64) -> Self {
        match size {
            ProblemSize::Medium => Self::medium(scale),
            ProblemSize::Large => Self::large(scale),
        }
    }

    /// The matching calibration (latencies/capacities scaled with the
    /// data).
    pub fn calib(&self) -> NodeCalib {
        NodeCalib::scaled(self.scale)
    }

    /// Scaled samples per detector *per observation* (the paper-scale
    /// count × `scale`), floored so tiny scales still exercise every code
    /// path.
    pub fn samples_per_detector(&self) -> usize {
        let paper =
            self.total_samples / (self.n_det_total as f64 * self.n_obs as f64) / self.nodes as f64;
        ((paper * self.scale) as usize).max(64)
    }

    /// Detectors owned by one rank when each node runs `ranks_per_node`
    /// processes. Detectors are partitioned *within* a node; multi-node
    /// jobs split observations (time) across nodes, as TOAST does — every
    /// node sees the full focal plane.
    pub fn detectors_per_rank(&self, ranks_per_node: u32) -> usize {
        (self.n_det_total / ranks_per_node as usize).max(1)
    }

    /// Sky geometry.
    pub fn geometry(&self) -> SkyGeometry {
        SkyGeometry {
            nside: Nside::new(self.nside).expect("valid nside"),
            nest: false,
            nnz: 3,
        }
    }

    /// The rank-invariant inputs of a run with `ranks_per_node` processes
    /// per node, from which every rank's workspace is derived.
    pub fn run_inputs(&self, ranks_per_node: u32) -> RunInputs<'_> {
        let n_det = self.detectors_per_rank(ranks_per_node);
        let n_samp = self.samples_per_detector();
        let mut boresight = vec![0.0; n_samp * 4];
        ScanStrategy::default().fill_boresight(&mut boresight);
        RunInputs {
            problem: self,
            ranks_per_node,
            focal_plane: build_focal_plane(n_det * ranks_per_node as usize),
            boresight,
            sky_map: synthesize_sky(&self.geometry(), self.seed),
        }
    }

    /// Build one rank's workspace: focal-plane share, boresight, varied
    /// intervals, synthetic sky, simulated sky signal + noise. A run
    /// builds [`Problem::run_inputs`] once and derives every rank from it;
    /// this is the same path for a single rank.
    pub fn rank_workspace(&self, rank: u32, ranks_per_node: u32) -> Workspace {
        self.run_inputs(ranks_per_node).rank_workspace(rank)
    }

    /// Estimated CPU seconds for one pass of the benchmark kernels over
    /// `ws` on `threads` host threads (cost-model based).
    pub fn cpu_kernel_seconds(&self, ws: &Workspace, threads: u32) -> f64 {
        let calib = self.calib();
        let science: usize = ws.obs.intervals.iter().map(|iv| iv.len()).sum();
        let items = (ws.obs.n_det * science) as f64;
        KernelId::BENCHMARK
            .iter()
            .map(|&k| {
                let (flops, bytes) = cost_constants(k);
                accel_sim::KernelProfile::uniform(k.name(), items, flops, bytes)
                    .cpu_seconds(&calib.cpu, threads)
            })
            .sum()
    }

    /// Per-rank unported/serial host seconds when the node runs
    /// `ranks_per_node` processes: a fixed per-rank serial share plus the
    /// rank's slice of the node-level parallelisable host pool.
    ///
    /// `host(p) = K_node · (serial_host_fraction + parallel_host_fraction / p)`
    ///
    /// where `K_node` is the node's CPU kernel time on all cores. At the
    /// paper's 16-process reference this yields a host fraction of ~1/3 of
    /// the CPU runtime; at 1 process the pool dominates, reproducing the
    /// falling CPU curve of Fig. 4.
    pub fn host_seconds_per_rank(&self, ws: &Workspace, ranks_per_node: u32) -> f64 {
        // Kernel time of the whole node's data on all cores, for every
        // solver pass (the host layer wraps each pass).
        let node_kernel = self.cpu_kernel_seconds(ws, self.calib().cpu.cores)
            * ranks_per_node as f64
            * self.passes as f64;
        node_kernel
            * (self.serial_host_fraction + self.parallel_host_fraction / ranks_per_node as f64)
    }
}

/// What every rank of a run shares: the node's full focal plane, the
/// common boresight and the input sky map. None of it depends on the rank,
/// so a run builds it once ([`Problem::run_inputs`]) and each rank copies
/// its share into its own [`Workspace`].
#[derive(Debug)]
pub struct RunInputs<'a> {
    problem: &'a Problem,
    ranks_per_node: u32,
    /// Every rank's detectors; rank `r` owns block `r` of them.
    focal_plane: FocalPlane,
    /// Boresight quaternions, `[n_samp × 4]`.
    boresight: Vec<f64>,
    /// Input sky map, `[n_pix × nnz]`.
    sky_map: Vec<f64>,
}

impl RunInputs<'_> {
    /// Build rank `rank`'s workspace: its detector block, its own science
    /// intervals and noise (seeded by problem seed and rank), the shared
    /// boresight and sky.
    pub fn rank_workspace(&self, rank: u32) -> Workspace {
        let p = self.problem;
        let n_det = p.detectors_per_rank(self.ranks_per_node);
        let n_samp = p.samples_per_detector();
        let scan = ScanStrategy::default();

        let lo = (rank as usize % self.ranks_per_node as usize) * n_det;
        let fp = FocalPlane {
            detectors: self.focal_plane.detectors[lo..lo + n_det].to_vec(),
        };

        // Seeds wrap: a scenario may set any u64 seed.
        let nominal = (n_samp / 12).max(4);
        let intervals = science_intervals(n_samp, nominal, p.seed.wrapping_add(rank as u64));
        let mut obs = Observation::new(&fp, n_samp, scan.sample_rate, intervals, 3);
        obs.boresight.copy_from_slice(&self.boresight);
        simulate_noise(
            &mut obs,
            &fp,
            p.seed.wrapping_mul(1000).wrapping_add(rank as u64),
        );

        let step = ((p.step_seconds * scan.sample_rate * p.scale) as usize).max(2);
        let mut ws = Workspace::new(obs, p.geometry(), step);
        ws.sky_map.copy_from_slice(&self.sky_map);
        ws
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Problem {
        let mut p = Problem::medium(2e-4);
        p.nside = 16;
        p
    }

    #[test]
    fn sizes_match_the_paper() {
        let m = Problem::medium(1e-3);
        let l = Problem::large(1e-3);
        assert_eq!(m.total_samples, 5e9);
        assert_eq!(l.total_samples, 5e10);
        assert_eq!(m.nodes, 1);
        assert_eq!(l.nodes, 8);
        // Large is 10x the total data on 8x the nodes: per node (and per
        // observation) it is 1.25x medium.
        let m10 = Problem::medium(1e-2);
        let l10 = Problem::large(1e-2);
        let ratio = l10.samples_per_detector() as f64 / m10.samples_per_detector() as f64;
        assert!((ratio - 1.25).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn detector_partition_is_exhaustive() {
        let p = tiny();
        for ranks in [1u32, 2, 4, 8, 16, 32, 64] {
            let per = p.detectors_per_rank(ranks);
            assert!(per >= 1);
            assert!(per * ranks as usize <= p.n_det_total);
        }
    }

    #[test]
    fn rank_workspaces_differ_by_rank_but_share_the_sky() {
        let p = tiny();
        let a = p.rank_workspace(0, 4);
        let b = p.rank_workspace(1, 4);
        assert_eq!(a.sky_map, b.sky_map);
        assert_ne!(a.obs.signal, b.obs.signal);
        assert_ne!(a.obs.fp_quats, b.obs.fp_quats);
        // Same scan: shared boresight.
        assert_eq!(a.obs.boresight.len(), b.obs.boresight.len());
    }

    #[test]
    fn seeds_wrap_instead_of_overflowing() {
        // A scenario may set any u64 seed: rank 1 of seed u64::MAX draws
        // its intervals from seed 0, like rank 0 of seed 0.
        let mut max = tiny();
        max.seed = u64::MAX;
        let mut zero = tiny();
        zero.seed = 0;
        assert_eq!(
            max.rank_workspace(1, 4).obs.intervals,
            zero.rank_workspace(0, 4).obs.intervals
        );
    }

    #[test]
    fn workspace_is_runnable_end_to_end() {
        let p = tiny();
        let mut ws = p.rank_workspace(0, 8);
        let mut ctx = accel_sim::Context::new(p.calib());
        let mut exec = toast_core::kernels::ExecCtx::new(toast_core::dispatch::ImplKind::Cpu, 8);
        let host = p.host_seconds_per_rank(&ws, 8);
        assert!(host > 0.0);
        let pipe = toast_core::pipeline::benchmark_pipeline(host);
        pipe.run(&mut ctx, &mut exec, &mut ws).unwrap();
        assert!(ctx.total_seconds() > 0.0);
    }

    #[test]
    fn amdahl_fraction_is_one_third_at_sixteen_processes() {
        // At the paper's 16-process reference the host share of the CPU
        // runtime must be ~1/3 (the "about 3x" Amdahl bound).
        let p = tiny();
        let ws = p.rank_workspace(0, 16);
        // Per-rank kernel wall time: the rank's data on its thread share,
        // for every solver pass (host work is sized against the full
        // passes, so the comparison must be too).
        let k = p.cpu_kernel_seconds(&ws, 4) * p.passes as f64;
        let h = p.host_seconds_per_rank(&ws, 16);
        let fraction = h / (h + k);
        assert!(
            (0.25..0.42).contains(&fraction),
            "fraction {fraction} (k {k}, h {h})"
        );
    }

    #[test]
    fn more_processes_mean_less_serial_work_per_rank() {
        let p = tiny();
        let ws1 = p.rank_workspace(0, 1);
        let ws16 = p.rank_workspace(0, 16);
        let h1 = p.host_seconds_per_rank(&ws1, 1);
        let h16 = p.host_seconds_per_rank(&ws16, 16);
        assert!(h16 < h1, "h1 {h1} h16 {h16}");
    }
}
