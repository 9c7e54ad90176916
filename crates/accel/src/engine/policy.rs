//! Pluggable GPU arbitration: how concurrent kernels share a device.
//!
//! The pre-engine replay hardcoded two sharing models behind an `mps`
//! boolean. The engine instead asks a [`SchedulePolicy`] for the service
//! rate of every kernel contending for a GPU, which turns the paper's MPS
//! observations (§ 3.1.2) into one policy among several and lets the
//! harness ask what-if questions the measured hardware could not answer
//! (e.g. a strict FIFO queue, or priority preemption across ranks).

use std::fmt;
use std::str::FromStr;

use crate::calib::DeviceCalib;

/// Everything a policy may consult about one GPU when arbitrating.
#[derive(Debug, Clone, Copy)]
pub struct GpuSchedContext<'a> {
    /// Device calibration (crowding penalty, context-switch cost).
    pub calib: &'a DeviceCalib,
    /// Σ solo-utilisation over the kernels currently wanting the device.
    pub load: f64,
    /// Number of ranks resident on this GPU (co-tenant processes, whether
    /// or not they are currently computing).
    pub clients: u32,
}

/// One kernel contending for a GPU.
#[derive(Debug, Clone, Copy)]
pub struct KernelReq {
    /// Global rank index (doubles as the priority key: lower = higher).
    pub rank: usize,
    /// The kernel's solo utilisation: the fraction of the device it can
    /// occupy on its own.
    pub util: f64,
    /// Virtual time the kernel reached the device (FIFO arbitration key).
    pub arrival: f64,
}

/// Arbitration of one GPU's compute throughput among concurrent kernels.
///
/// A *rate* is demand-seconds served per wall-clock second: a kernel with
/// `remaining` device-seconds of demand and rate `r` finishes after
/// `remaining / r` seconds if nothing changes in between.
pub trait SchedulePolicy: Sync {
    /// Stable lowercase policy name (CLI value, trace label).
    fn name(&self) -> &'static str;

    /// Service rate for each kernel in `kernels` (written to `rates`,
    /// aligned by index). `kernels` is ordered by global rank.
    fn rates(&self, gpu: &GpuSchedContext<'_>, kernels: &[KernelReq], rates: &mut Vec<f64>);

    /// Extra device-seconds charged when a kernel is scheduled onto the
    /// GPU (the context-swap cost of exclusive-context time slicing).
    fn switch_demand(&self, gpu: &GpuSchedContext<'_>) -> f64 {
        let _ = gpu;
        0.0
    }
}

/// MPS processor sharing: kernel *i* with solo utilisation `u_i` receives
/// `u_i · min(1, 1/Σu)`, degraded by the calibrated crowding penalty as
/// more clients share the device. An under-filled device runs concurrent
/// kernels at full speed — the oversubscription benefit of the paper's
/// Fig. 4.
#[derive(Debug, Clone, Copy, Default)]
pub struct MpsFluid;

impl SchedulePolicy for MpsFluid {
    fn name(&self) -> &'static str {
        "mps"
    }

    fn rates(&self, gpu: &GpuSchedContext<'_>, kernels: &[KernelReq], rates: &mut Vec<f64>) {
        let k = gpu.clients.max(1) as f64;
        let crowd = 1.0 + gpu.calib.mps_crowding * (k - 1.0);
        for req in kernels {
            rates.push(req.util * (1.0 / gpu.load).min(1.0) / crowd);
        }
    }
}

/// No MPS: the driver time-slices whole CUDA contexts with coarse quanta,
/// so a process gets `1/clients` of its device whether or not its
/// co-tenants are computing, plus a context-switch charge per kernel —
/// the paper's § 3.1.2 observation that non-MPS throughput caps near one
/// process per device.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeSliced;

impl SchedulePolicy for TimeSliced {
    fn name(&self) -> &'static str {
        "timeslice"
    }

    fn rates(&self, gpu: &GpuSchedContext<'_>, kernels: &[KernelReq], rates: &mut Vec<f64>) {
        for req in kernels {
            rates.push(req.util / gpu.clients.max(1) as f64);
        }
    }

    fn switch_demand(&self, gpu: &GpuSchedContext<'_>) -> f64 {
        if gpu.clients > 1 {
            gpu.calib.context_switch
        } else {
            0.0
        }
    }
}

/// Strict FIFO: the kernel that reached the device first runs alone at
/// its solo rate; later arrivals queue. Models an exclusive-compute-mode
/// device fed through a single work queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl SchedulePolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn rates(&self, _gpu: &GpuSchedContext<'_>, kernels: &[KernelReq], rates: &mut Vec<f64>) {
        let head = kernels
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.arrival
                    .total_cmp(&b.arrival)
                    .then_with(|| a.rank.cmp(&b.rank))
            })
            .map(|(i, _)| i);
        for (i, req) in kernels.iter().enumerate() {
            rates.push(if Some(i) == head { req.util } else { 0.0 });
        }
    }
}

/// Preemptive rank priority: the lowest-ranked kernel wanting the device
/// runs alone at its solo rate; everything else waits. Rank index is the
/// priority key, so rank 0 (the typical "critical path" rank) always wins.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankPriority;

impl SchedulePolicy for RankPriority {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn rates(&self, _gpu: &GpuSchedContext<'_>, kernels: &[KernelReq], rates: &mut Vec<f64>) {
        let head = kernels.iter().map(|k| k.rank).min();
        for req in kernels {
            rates.push(if Some(req.rank) == head {
                req.util
            } else {
                0.0
            });
        }
    }
}

/// Which [`SchedulePolicy`] a replay uses — the `Copy` configuration-side
/// handle (trait objects cannot live in a `Copy` config struct).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicyKind {
    /// Follow [`crate::node::NodeConfig::mps`]: MPS on → [`MpsFluid`],
    /// off → [`TimeSliced`] (the pre-engine behaviour).
    #[default]
    Auto,
    /// Force [`MpsFluid`] processor sharing.
    MpsFluid,
    /// Force [`TimeSliced`] exclusive contexts.
    TimeSliced,
    /// Strict [`Fifo`] queueing.
    Fifo,
    /// Preemptive [`RankPriority`].
    Priority,
}

static MPS_FLUID: MpsFluid = MpsFluid;
static TIME_SLICED: TimeSliced = TimeSliced;
static FIFO: Fifo = Fifo;
static RANK_PRIORITY: RankPriority = RankPriority;

impl SchedulePolicyKind {
    /// Resolve to the policy implementation, using `mps` to break the
    /// [`SchedulePolicyKind::Auto`] tie.
    pub fn resolve(self, mps: bool) -> &'static dyn SchedulePolicy {
        match self {
            SchedulePolicyKind::Auto => {
                if mps {
                    &MPS_FLUID
                } else {
                    &TIME_SLICED
                }
            }
            SchedulePolicyKind::MpsFluid => &MPS_FLUID,
            SchedulePolicyKind::TimeSliced => &TIME_SLICED,
            SchedulePolicyKind::Fifo => &FIFO,
            SchedulePolicyKind::Priority => &RANK_PRIORITY,
        }
    }
}

impl fmt::Display for SchedulePolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SchedulePolicyKind::Auto => "auto",
            SchedulePolicyKind::MpsFluid => "mps",
            SchedulePolicyKind::TimeSliced => "timeslice",
            SchedulePolicyKind::Fifo => "fifo",
            SchedulePolicyKind::Priority => "priority",
        };
        f.write_str(name)
    }
}

impl FromStr for SchedulePolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(SchedulePolicyKind::Auto),
            "mps" | "fluid" => Ok(SchedulePolicyKind::MpsFluid),
            "timeslice" | "exclusive" => Ok(SchedulePolicyKind::TimeSliced),
            "fifo" => Ok(SchedulePolicyKind::Fifo),
            "priority" => Ok(SchedulePolicyKind::Priority),
            other => Err(format!(
                "unknown schedule policy '{other}' (expected auto, mps, timeslice, fifo or priority)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KINDS: [SchedulePolicyKind; 5] = [
        SchedulePolicyKind::Auto,
        SchedulePolicyKind::MpsFluid,
        SchedulePolicyKind::TimeSliced,
        SchedulePolicyKind::Fifo,
        SchedulePolicyKind::Priority,
    ];

    fn ctx(calib: &DeviceCalib, load: f64, clients: u32) -> GpuSchedContext<'_> {
        GpuSchedContext {
            calib,
            load,
            clients,
        }
    }

    fn req(rank: usize, util: f64, arrival: f64) -> KernelReq {
        KernelReq {
            rank,
            util,
            arrival,
        }
    }

    #[test]
    fn mps_shares_proportionally_once_saturated() {
        let calib = DeviceCalib {
            mps_crowding: 0.0,
            ..Default::default()
        };
        let kernels = [req(0, 0.8, 0.0), req(1, 0.8, 0.0)];
        let mut rates = Vec::new();
        MpsFluid.rates(&ctx(&calib, 1.6, 2), &kernels, &mut rates);
        // Saturated: each gets util/Σu = 0.5 of the device.
        assert!((rates[0] - 0.5).abs() < 1e-12);
        assert!((rates[1] - 0.5).abs() < 1e-12);
        // Under-filled: full solo rate.
        rates.clear();
        MpsFluid.rates(&ctx(&calib, 0.4, 2), &[req(0, 0.2, 0.0)], &mut rates);
        assert!((rates[0] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn timeslice_caps_at_one_over_clients() {
        let calib = DeviceCalib::default();
        let kernels = [req(0, 1.0, 0.0)];
        let mut rates = Vec::new();
        TimeSliced.rates(&ctx(&calib, 1.0, 4), &kernels, &mut rates);
        assert!((rates[0] - 0.25).abs() < 1e-12);
        assert_eq!(
            TimeSliced.switch_demand(&ctx(&calib, 1.0, 4)),
            calib.context_switch
        );
        assert_eq!(TimeSliced.switch_demand(&ctx(&calib, 1.0, 1)), 0.0);
    }

    #[test]
    fn fifo_serves_the_earliest_arrival_alone() {
        let calib = DeviceCalib::default();
        let kernels = [req(0, 0.5, 2.0), req(1, 0.7, 1.0)];
        let mut rates = Vec::new();
        Fifo.rates(&ctx(&calib, 1.2, 2), &kernels, &mut rates);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn priority_serves_the_lowest_rank_alone() {
        let calib = DeviceCalib::default();
        let kernels = [req(2, 0.5, 0.0), req(5, 0.7, 0.0)];
        let mut rates = Vec::new();
        RankPriority.rates(&ctx(&calib, 1.2, 2), &kernels, &mut rates);
        assert!((rates[0] - 0.5).abs() < 1e-12);
        assert_eq!(rates[1], 0.0);
    }

    #[test]
    fn kind_round_trips_through_strings() {
        for kind in KINDS {
            assert_eq!(kind.to_string().parse::<SchedulePolicyKind>(), Ok(kind));
        }
        assert!("nope".parse::<SchedulePolicyKind>().is_err());
    }

    #[test]
    fn auto_follows_the_mps_flag() {
        assert_eq!(SchedulePolicyKind::Auto.resolve(true).name(), "mps");
        assert_eq!(SchedulePolicyKind::Auto.resolve(false).name(), "timeslice");
        assert_eq!(SchedulePolicyKind::Fifo.resolve(true).name(), "fifo");
    }

    proptest! {
        /// The sweep's solo rule (DESIGN § 5d): on a GPU with at most one
        /// client, every resolved policy serves a lone kernel at exactly
        /// its solo utilisation, bit for bit, with no switch charge.
        #[test]
        fn a_lone_kernel_runs_at_exactly_its_solo_rate(
            log_util in -6.0..0.0f64,
            edge in 0u8..4,
            mantissa in 0.0..1.0f64,
            exponent in -300i32..300,
            clients in 0u32..2,
            rank in 0usize..64,
            arrival in 0.0..1e3f64,
        ) {
            // `edge` pins the ends of both ranges now and then: util 1 and
            // crowding 0.
            let util = match edge {
                0 => 1.0,
                _ => 10f64.powf(log_util).clamp(1e-6, 1.0),
            };
            let crowding = match edge {
                1 => 0.0,
                _ => mantissa * 10f64.powi(exponent),
            };
            let calib = DeviceCalib {
                mps_crowding: crowding,
                ..Default::default()
            };
            // The engine's load for one kernel: 0.0 + util.
            let gpu = ctx(&calib, 0.0 + util, clients);
            for mps in [true, false] {
                for kind in KINDS {
                    let policy = kind.resolve(mps);
                    let mut rates = Vec::new();
                    policy.rates(&gpu, &[req(rank, util, arrival)], &mut rates);
                    prop_assert_eq!(rates.len(), 1);
                    prop_assert!(
                        rates[0].to_bits() == util.to_bits(),
                        "{} (mps {}): util {:e}, crowding {:e}, clients {}: rate {:e}",
                        policy.name(), mps, util, crowding, clients, rates[0]
                    );
                    prop_assert_eq!(policy.switch_demand(&gpu).to_bits(), 0.0f64.to_bits());
                }
            }
        }
    }
}
