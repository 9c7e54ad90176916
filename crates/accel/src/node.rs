//! Node-level replay of rank traces against shared GPUs.
//!
//! Fig. 4 of the paper varies the number of processes on one node while
//! holding total resources fixed; its shape (oversubscription pays until
//! ~2 processes per GPU, then per-process overheads win) is an interaction
//! between per-rank timelines and shared devices. This module is the
//! single-node surface over the discrete-event engine in
//! [`crate::engine`], which resolves that interaction:
//!
//! * **Host segments** of different ranks run concurrently (cores are
//!   partitioned among ranks; segments were sized for their thread count).
//! * **Kernels** share their GPU under the configured
//!   [`SchedulePolicyKind`] — by default the paper's MPS processor-sharing
//!   fluid when [`NodeConfig::mps`] is set, exclusive context time-slicing
//!   (with per-kernel switch charges, § 3.1.2) when it is not.
//! * **PCIe** is a per-GPU link shared equally by active transfers; with
//!   [`NodeConfig::overlap_transfers`] each rank gains an asynchronous
//!   transfer stream that overlaps data movement with host work, and
//!   kernels synchronise on it before launching.
//! * **Collective segments** barrier across all ranks and then occupy the
//!   node NIC (see [`simulate_cluster`] for the multi-node entry point).

use crate::calib::NodeCalib;
use crate::engine::{
    simulate_cluster, simulate_cluster_traced, ClusterResult, EngineError, SchedulePolicyKind,
};
use crate::trace::RankTrace;

/// Node configuration for a replay.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    pub calib: NodeCalib,
    /// Number of GPUs on the node (Perlmutter: 4).
    pub gpus: u32,
    /// Whether the CUDA Multi-Process Service is active.
    pub mps: bool,
    /// Kernel arbitration policy; [`SchedulePolicyKind::Auto`] follows
    /// `mps` (the pre-engine behaviour).
    pub schedule: SchedulePolicyKind,
    /// Give each rank an asynchronous transfer stream: H2D/D2H segments
    /// enqueue without blocking and drain concurrently with host work;
    /// kernels synchronise on the stream before launching.
    pub overlap_transfers: bool,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            calib: NodeCalib::default(),
            gpus: 4,
            mps: true,
            schedule: SchedulePolicyKind::Auto,
            overlap_transfers: false,
        }
    }
}

/// Kind of a wall-clock [`TimelineEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimelineKind {
    /// Host-side computation (including kernel dispatch lead-ins).
    Host,
    /// Device kernel execution.
    Kernel,
    /// PCIe transfer.
    Transfer,
    /// A context swap charged to a non-MPS kernel (instant marker at the
    /// kernel's scheduling time; its cost is folded into the kernel).
    ContextSwitch,
    /// The network phase of an inter-node collective.
    Collective,
    /// Blocked time: a rank waiting at a collective barrier, or a kernel
    /// waiting for its transfer stream to drain.
    Wait,
}

impl TimelineKind {
    /// Stable lowercase name, used by the trace exporters.
    pub fn name(self) -> &'static str {
        match self {
            TimelineKind::Host => "host",
            TimelineKind::Kernel => "kernel",
            TimelineKind::Transfer => "transfer",
            TimelineKind::ContextSwitch => "context_switch",
            TimelineKind::Collective => "collective",
            TimelineKind::Wait => "wait",
        }
    }
}

/// One contention-resolved interval of a rank's replay: when the activity
/// actually ran on the shared node, in wall-clock seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Which rank.
    pub rank: usize,
    /// GPU involved (kernels, transfers, switches); `None` for host work.
    pub gpu: Option<usize>,
    /// Accounting label of the underlying segment.
    pub label: String,
    /// What ran.
    pub kind: TimelineKind,
    /// Wall-clock start.
    pub start: f64,
    /// Wall-clock end (≥ start; equal for instants).
    pub end: f64,
}

/// One occupancy sample: GPU `gpu` ran at `load` (0..=1 of its compute
/// throughput) over the interval starting at `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSample {
    /// Interval start, wall-clock seconds.
    pub t: f64,
    /// GPU index.
    pub gpu: usize,
    /// Fraction of the device's throughput in use (clamped to 1).
    pub load: f64,
}

/// The wall-clock timeline of a replay: what each rank ran when after
/// contention, plus piecewise-constant per-GPU occupancy.
#[derive(Debug, Clone, Default)]
pub struct NodeTimeline {
    /// Per-rank intervals, in completion order.
    pub events: Vec<TimelineEvent>,
    /// Per-GPU occupancy samples, one per replay step per GPU (each valid
    /// until the next sample for the same GPU).
    pub occupancy: Vec<GpuSample>,
}

impl NodeTimeline {
    /// Time-weighted mean occupancy of `gpu` over `[0, horizon]` seconds.
    /// Intervals (or parts of intervals) past the horizon do not count;
    /// a non-positive horizon or an unknown GPU yields 0.
    pub fn mean_occupancy(&self, gpu: usize, horizon: f64) -> f64 {
        if horizon <= 0.0 {
            return 0.0;
        }
        let samples: Vec<&GpuSample> = self.occupancy.iter().filter(|s| s.gpu == gpu).collect();
        let mut acc = 0.0;
        for (i, s) in samples.iter().enumerate() {
            let end = samples.get(i + 1).map_or(horizon, |n| n.t).min(horizon);
            let start = s.t.min(horizon);
            acc += s.load * (end - start).max(0.0);
        }
        acc / horizon
    }
}

/// A rank's trace does not fit in its share of device memory.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeOom {
    /// GPU index that overflowed (global, node-major, in cluster replays).
    pub gpu: u32,
    /// Total peak bytes demanded by the ranks sharing it.
    pub demanded: u64,
    /// Device capacity.
    pub capacity: u64,
}

impl std::fmt::Display for NodeOom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GPU {} out of memory: ranks demand {} B of {} B",
            self.gpu, self.demanded, self.capacity
        )
    }
}

impl std::error::Error for NodeOom {}

/// Replay `traces` (one per rank) on a node through the discrete-event
/// engine: [`simulate_cluster`] over one node. Rank `r` uses GPU
/// `r % gpus`. Returns the emergent wall time or a typed [`EngineError`]
/// — an OOM if the combined peak footprints of the ranks sharing a GPU
/// exceed its memory, a `NonFiniteCharge` if a recorded duration is NaN
/// or infinite.
pub fn simulate_node(traces: &[RankTrace], cfg: &NodeConfig) -> Result<ClusterResult, EngineError> {
    simulate_cluster(&[traces], cfg)
}

/// [`simulate_node`], additionally recording the contention-resolved
/// wall-clock timeline of every rank and per-GPU occupancy samples.
pub fn simulate_node_traced(
    traces: &[RankTrace],
    cfg: &NodeConfig,
) -> Result<(ClusterResult, NodeTimeline), EngineError> {
    simulate_cluster_traced(&[traces], cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::KernelProfile;
    use crate::trace::{Segment, TransferDir};

    /// Config with MPS crowding disabled: these tests probe the pure
    /// fluid-sharing mechanics; crowding is exercised separately.
    fn cfg_no_crowding() -> NodeConfig {
        let mut cfg = NodeConfig::default();
        cfg.calib.gpu.mps_crowding = 0.0;
        cfg
    }

    fn trace_with(segments: Vec<Segment>, peak: u64) -> RankTrace {
        RankTrace {
            segments,
            peak_device_bytes: peak,
            ..RankTrace::default()
        }
    }

    fn host(seconds: f64) -> Segment {
        Segment::Host {
            seconds,
            label: "h".into(),
        }
    }

    #[test]
    fn single_rank_wall_time_is_sum_of_segments() {
        let cfg = NodeConfig::default();
        let k = KernelProfile::uniform("k", 1e9, 100.0, 8.0);
        let solo = k.solo_seconds(&cfg.calib.gpu);
        let t = trace_with(
            vec![
                host(1.0),
                Segment::Kernel {
                    profile: k,
                    dispatch: 0.0,
                },
                host(0.5),
            ],
            0,
        );
        let res = simulate_node(&[t], &cfg).unwrap();
        let expected = 1.0 + cfg.calib.gpu.launch_latency + solo + 0.5;
        assert!(
            (res.wall_seconds - expected).abs() < 1e-9,
            "{} vs {}",
            res.wall_seconds,
            expected
        );
    }

    #[test]
    fn host_segments_run_concurrently_across_ranks() {
        let cfg = NodeConfig::default();
        let traces: Vec<_> = (0..8).map(|_| trace_with(vec![host(2.0)], 0)).collect();
        let res = simulate_node(&traces, &cfg).unwrap();
        assert!((res.wall_seconds - 2.0).abs() < 1e-9);
    }

    #[test]
    fn saturated_kernels_time_share_under_mps() {
        // Two ranks on the same single GPU, each with a device-saturating
        // kernel: wall time is the serial sum.
        let mut cfg = cfg_no_crowding();
        cfg.gpus = 1;
        let k = KernelProfile::uniform("k", 1e9, 100.0, 8.0);
        let solo = k.solo_seconds(&cfg.calib.gpu);
        let t = || {
            trace_with(
                vec![Segment::Kernel {
                    profile: k.clone(),
                    dispatch: 0.0,
                }],
                0,
            )
        };
        let res = simulate_node(&[t(), t()], &cfg).unwrap();
        assert!(
            (res.wall_seconds - 2.0 * solo).abs() / (2.0 * solo) < 0.01,
            "{} vs {}",
            res.wall_seconds,
            2.0 * solo
        );
    }

    #[test]
    fn underfilled_kernels_overlap_under_mps() {
        // Two ranks with kernels that each fill only 10% of the device:
        // they should run fully concurrently (wall ≈ solo, not 2×).
        let mut cfg = cfg_no_crowding();
        cfg.gpus = 1;
        let items = cfg.calib.gpu.saturation_items * 0.1;
        let k = KernelProfile::uniform("k", items, 1e5, 8.0);
        let solo = k.solo_seconds(&cfg.calib.gpu);
        let t = || {
            trace_with(
                vec![Segment::Kernel {
                    profile: k.clone(),
                    dispatch: 0.0,
                }],
                0,
            )
        };
        let res = simulate_node(&[t(), t()], &cfg).unwrap();
        let lead = cfg.calib.gpu.launch_latency;
        assert!(
            res.wall_seconds < 1.2 * (solo + lead),
            "{} vs solo {}",
            res.wall_seconds,
            solo
        );
    }

    #[test]
    fn without_mps_kernels_serialize_with_switch_cost() {
        let mut cfg = cfg_no_crowding();
        cfg.gpus = 1;
        cfg.mps = false;
        let items = cfg.calib.gpu.saturation_items * 0.1;
        let k = KernelProfile::uniform("k", items, 1e5, 8.0);
        let solo = k.solo_seconds(&cfg.calib.gpu);
        let t = || {
            trace_with(
                vec![Segment::Kernel {
                    profile: k.clone(),
                    dispatch: 0.0,
                }],
                0,
            )
        };
        let res = simulate_node(&[t(), t()], &cfg).unwrap();
        // Time-sliced contexts: each rank gets half its device, so the
        // wall is ~2x solo even though the kernels underfill the GPU —
        // compare with `underfilled_kernels_overlap_under_mps`.
        assert!(
            res.wall_seconds > 1.95 * solo,
            "{} vs {}",
            res.wall_seconds,
            2.0 * solo
        );
        let mps = simulate_node(&[t(), t()], &cfg_no_crowding_one_gpu_mps()).unwrap();
        assert!(res.wall_seconds > 1.5 * mps.wall_seconds);
    }

    fn cfg_no_crowding_one_gpu_mps() -> NodeConfig {
        let mut cfg = cfg_no_crowding();
        cfg.gpus = 1;
        cfg.mps = true;
        cfg
    }

    #[test]
    fn mps_crowding_slows_shared_kernels() {
        let mut cfg = NodeConfig {
            gpus: 1,
            ..NodeConfig::default()
        };
        cfg.calib.gpu.mps_crowding = 0.5;
        let items = cfg.calib.gpu.saturation_items * 0.05;
        let k = KernelProfile::uniform("k", items, 1e5, 8.0);
        let t = || {
            trace_with(
                vec![Segment::Kernel {
                    profile: k.clone(),
                    dispatch: 0.0,
                }],
                0,
            )
        };
        let one = simulate_node(&[t()], &cfg).unwrap().wall_seconds;
        let four = simulate_node(&[t(), t(), t(), t()], &cfg)
            .unwrap()
            .wall_seconds;
        // Four clients: crowding 1 + 0.5*3 = 2.5x on otherwise-overlapping
        // kernels.
        assert!(four > 2.0 * one, "four {four} one {one}");
    }

    #[test]
    fn oversubscription_hides_host_gaps() {
        // A rank alternates host work and GPU work of equal duration. One
        // rank leaves the GPU idle half the time; two ranks on one GPU
        // interleave and finish in less than 2x a single rank's span.
        let mut cfg = cfg_no_crowding();
        cfg.gpus = 1;
        let k = KernelProfile::uniform("k", 1e9, 100.0, 8.0);
        let solo = k.solo_seconds(&cfg.calib.gpu);
        let mk = |n: usize| {
            let mut segs = Vec::new();
            for _ in 0..n {
                segs.push(host(solo));
                segs.push(Segment::Kernel {
                    profile: k.clone(),
                    dispatch: 0.0,
                });
            }
            trace_with(segs, 0)
        };
        let one = simulate_node(&[mk(4)], &cfg).unwrap().wall_seconds;
        let two = simulate_node(&[mk(4), mk(4)], &cfg).unwrap().wall_seconds;
        // Perfect interleave would give two ≈ one; demand 25% saving vs 2x.
        assert!(two < 1.5 * one, "two={two} one={one}");
    }

    #[test]
    fn transfers_share_the_link() {
        let cfg = NodeConfig {
            gpus: 1,
            ..NodeConfig::default()
        };
        let bytes = 1e9;
        let t = || {
            trace_with(
                vec![Segment::Transfer {
                    bytes,
                    dir: TransferDir::HostToDevice,
                    label: "x".into(),
                }],
                0,
            )
        };
        let single = simulate_node(&[t()], &cfg).unwrap().wall_seconds;
        let double = simulate_node(&[t(), t()], &cfg).unwrap().wall_seconds;
        assert!((double / single - 2.0).abs() < 0.01, "{double} vs {single}");
    }

    #[test]
    fn oom_when_colocated_ranks_exceed_memory() {
        let cfg = NodeConfig {
            gpus: 1,
            ..NodeConfig::default()
        };
        let cap = cfg.calib.gpu.mem_bytes;
        let t = trace_with(vec![host(1.0)], cap / 2 + 1);
        let err = simulate_node(&[t.clone(), t], &cfg).unwrap_err();
        let oom = err.as_oom().expect("memory overflow is a typed OOM");
        assert_eq!(oom.gpu, 0);
        assert!(oom.demanded > cap);
        // A single rank with the same footprint fits.
        let t = trace_with(vec![host(1.0)], cap / 2 + 1);
        assert!(simulate_node(&[t], &cfg).is_ok());
    }

    #[test]
    fn ranks_spread_across_gpus() {
        // 4 ranks, 4 GPUs, saturating kernels: fully parallel.
        let cfg = NodeConfig::default();
        let k = KernelProfile::uniform("k", 1e9, 100.0, 8.0);
        let solo = k.solo_seconds(&cfg.calib.gpu);
        let t = || {
            trace_with(
                vec![Segment::Kernel {
                    profile: k.clone(),
                    dispatch: 0.0,
                }],
                0,
            )
        };
        let res = simulate_node(&[t(), t(), t(), t()], &cfg).unwrap();
        assert!(res.wall_seconds < 1.1 * solo);
        for g in 0..4 {
            assert!(res.gpu_busy[g] > 0.0, "gpu {g} unused");
        }
    }

    #[test]
    fn empty_traces_finish_instantly() {
        let cfg = NodeConfig::default();
        let res = simulate_node(&[RankTrace::default()], &cfg).unwrap();
        assert_eq!(res.wall_seconds, 0.0);
    }

    #[test]
    fn timeline_covers_every_segment_in_wall_clock() {
        let cfg = NodeConfig::default();
        let k = KernelProfile::uniform("my_kernel", 1e9, 100.0, 8.0);
        let t = trace_with(
            vec![
                host(1.0),
                Segment::Kernel {
                    profile: k,
                    dispatch: 1e-4,
                },
                Segment::Transfer {
                    bytes: 1e8,
                    dir: TransferDir::DeviceToHost,
                    label: "accel_data_update_host".into(),
                },
            ],
            0,
        );
        let (res, tl) = simulate_node_traced(&[t], &cfg).unwrap();

        // Host 1.0s, dispatch lead-in, kernel, transfer: 4 intervals.
        assert_eq!(tl.events.len(), 4);
        assert_eq!(tl.events[0].kind, TimelineKind::Host);
        assert_eq!(tl.events[0].label, "h");
        assert_eq!(tl.events[1].label, "my_kernel/dispatch");
        assert_eq!(tl.events[2].kind, TimelineKind::Kernel);
        assert_eq!(tl.events[2].label, "my_kernel");
        assert_eq!(tl.events[2].gpu, Some(0));
        assert_eq!(tl.events[3].kind, TimelineKind::Transfer);

        // Intervals are contiguous and end at the wall time.
        let mut t = 0.0;
        for e in &tl.events {
            assert!((e.start - t).abs() < 1e-9, "{} vs {t}", e.start);
            assert!(e.end >= e.start);
            t = e.end;
        }
        assert!((t - res.wall_seconds).abs() < 1e-9);
    }

    #[test]
    fn occupancy_tracks_busy_time() {
        let mut cfg = cfg_no_crowding();
        cfg.gpus = 1;
        let k = KernelProfile::uniform("k", 1e9, 100.0, 8.0);
        let t = trace_with(
            vec![Segment::Kernel {
                profile: k,
                dispatch: 0.0,
            }],
            0,
        );
        let (res, tl) = simulate_node_traced(&[t], &cfg).unwrap();
        assert!(!tl.occupancy.is_empty());
        // Integrated occupancy equals the busy-seconds accounting.
        let mean = tl.mean_occupancy(0, res.wall_seconds);
        assert!(
            (mean * res.wall_seconds - res.gpu_busy[0]).abs() < 1e-9,
            "integrated {} vs busy {}",
            mean * res.wall_seconds,
            res.gpu_busy[0]
        );
    }

    #[test]
    fn context_switches_appear_in_the_timeline() {
        let mut cfg = cfg_no_crowding();
        cfg.gpus = 1;
        cfg.mps = false;
        let k = KernelProfile::uniform("k", 1e9, 100.0, 8.0);
        let t = || {
            trace_with(
                vec![Segment::Kernel {
                    profile: k.clone(),
                    dispatch: 0.0,
                }],
                0,
            )
        };
        let (_, tl) = simulate_node_traced(&[t(), t()], &cfg).unwrap();
        let switches = tl
            .events
            .iter()
            .filter(|e| e.kind == TimelineKind::ContextSwitch)
            .count();
        assert_eq!(switches, 2);
    }

    #[test]
    fn mean_occupancy_edge_cases() {
        let tl = NodeTimeline {
            events: Vec::new(),
            occupancy: vec![
                GpuSample {
                    t: 0.0,
                    gpu: 0,
                    load: 1.0,
                },
                GpuSample {
                    t: 2.0,
                    gpu: 0,
                    load: 0.0,
                },
                GpuSample {
                    t: 5.0,
                    gpu: 0,
                    load: 1.0,
                },
            ],
        };
        // Zero or negative horizon: defined as 0, not a division by zero.
        assert_eq!(tl.mean_occupancy(0, 0.0), 0.0);
        assert_eq!(tl.mean_occupancy(0, -1.0), 0.0);
        // GPU index with no samples: 0.
        assert_eq!(tl.mean_occupancy(7, 1.0), 0.0);
        // Interval [0, 2) at load 1 truncated by horizon 1: full occupancy,
        // not the 2.0 an unclamped integral would give.
        assert!((tl.mean_occupancy(0, 1.0) - 1.0).abs() < 1e-12);
        // Samples entirely past the horizon contribute nothing: over
        // horizon 4 only [0, 2) is loaded.
        assert!((tl.mean_occupancy(0, 4.0) - 0.5).abs() < 1e-12);
        // The final sample extends to the horizon.
        assert!((tl.mean_occupancy(0, 10.0) - (2.0 + 5.0) / 10.0).abs() < 1e-12);
    }

    #[test]
    fn overlapped_transfers_hide_behind_host_work() {
        let mut cfg = NodeConfig {
            gpus: 1,
            ..NodeConfig::default()
        };
        let bytes = 1e9; // 40 ms on the calibrated link
        let xfer = cfg.calib.gpu.pcie_latency + bytes / cfg.calib.gpu.pcie_bw;
        let t = || {
            trace_with(
                vec![
                    Segment::Transfer {
                        bytes,
                        dir: TransferDir::HostToDevice,
                        label: "h2d".into(),
                    },
                    host(xfer),
                ],
                0,
            )
        };
        let sync = simulate_node(&[t()], &cfg).unwrap().wall_seconds;
        cfg.overlap_transfers = true;
        let (res, tl) = simulate_node_traced(&[t()], &cfg).unwrap();
        // Sequential: transfer + host. Overlapped: they run concurrently.
        assert!((sync - 2.0 * xfer).abs() < 1e-9, "sync {sync}");
        assert!(
            (res.wall_seconds - xfer).abs() < 1e-9,
            "overlap {} vs {xfer}",
            res.wall_seconds
        );
        // The transfer still shows up as a timed interval.
        assert!(tl
            .events
            .iter()
            .any(|e| e.kind == TimelineKind::Transfer && e.end > e.start));
    }

    #[test]
    fn kernels_synchronize_on_the_transfer_stream() {
        let mut cfg = NodeConfig {
            gpus: 1,
            ..NodeConfig::default()
        };
        cfg.overlap_transfers = true;
        let bytes = 1e9;
        let xfer = cfg.calib.gpu.pcie_latency + bytes / cfg.calib.gpu.pcie_bw;
        let k = KernelProfile::uniform("k", 1e9, 100.0, 8.0);
        let solo = k.solo_seconds(&cfg.calib.gpu);
        let t = trace_with(
            vec![
                Segment::Transfer {
                    bytes,
                    dir: TransferDir::HostToDevice,
                    label: "h2d".into(),
                },
                Segment::Kernel {
                    profile: k,
                    dispatch: 0.0,
                },
            ],
            0,
        );
        let (res, tl) = simulate_node_traced(&[t], &cfg).unwrap();
        // The kernel must not start before its input lands: wall covers
        // the full transfer plus the kernel.
        let expected = xfer + cfg.calib.gpu.launch_latency + solo;
        assert!(
            (res.wall_seconds - expected).abs() < 1e-6,
            "{} vs {expected}",
            res.wall_seconds
        );
        // The stream synchronisation is visible as a wait interval.
        assert!(tl
            .events
            .iter()
            .any(|e| e.kind == TimelineKind::Wait && e.label == "stream_sync"));
    }

    #[test]
    fn fifo_and_priority_policies_serialize_underfilled_kernels() {
        // Under MPS two 10%-utilisation kernels overlap; FIFO and priority
        // arbitration grant the device exclusively, so they serialize.
        let mut cfg = cfg_no_crowding();
        cfg.gpus = 1;
        let items = cfg.calib.gpu.saturation_items * 0.1;
        let k = KernelProfile::uniform("k", items, 1e5, 8.0);
        let solo = k.solo_seconds(&cfg.calib.gpu);
        let t = || {
            trace_with(
                vec![Segment::Kernel {
                    profile: k.clone(),
                    dispatch: 0.0,
                }],
                0,
            )
        };
        let overlap = simulate_node(&[t(), t()], &cfg).unwrap().wall_seconds;
        assert!(overlap < 1.2 * solo, "mps overlap {overlap} vs {solo}");
        for kind in [SchedulePolicyKind::Fifo, SchedulePolicyKind::Priority] {
            cfg.schedule = kind;
            let serial = simulate_node(&[t(), t()], &cfg).unwrap().wall_seconds;
            assert!(serial > 1.9 * solo, "{kind}: {serial} vs 2x{solo}");
        }
    }

    #[test]
    fn explicit_schedule_overrides_the_mps_flag() {
        // schedule = MpsFluid with mps = false must behave like MPS.
        let mut cfg = cfg_no_crowding();
        cfg.gpus = 1;
        cfg.mps = false;
        cfg.schedule = SchedulePolicyKind::MpsFluid;
        let items = cfg.calib.gpu.saturation_items * 0.1;
        let k = KernelProfile::uniform("k", items, 1e5, 8.0);
        let solo = k.solo_seconds(&cfg.calib.gpu);
        let t = || {
            trace_with(
                vec![Segment::Kernel {
                    profile: k.clone(),
                    dispatch: 0.0,
                }],
                0,
            )
        };
        let res = simulate_node(&[t(), t()], &cfg).unwrap();
        assert!(res.wall_seconds < 1.2 * solo);
        assert_eq!(res.switch_seconds[0], 0.0);
    }
}
