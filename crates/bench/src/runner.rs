//! Executing one benchmark configuration end to end.

use std::collections::BTreeMap;
use std::sync::Arc;

use accel_sim::calib::{NetCalib, NodeCalib};
use accel_sim::comm::allreduce_seconds;
use accel_sim::context::LabelStats;
use accel_sim::engine::{
    simulate_cluster, simulate_cluster_traced, ClusterResult, SchedulePolicyKind,
};
use accel_sim::node::NodeConfig;
use accel_sim::whatif::{RecordMeta, RecordedWorkload};
use accel_sim::EngineError;
use accel_sim::{Context, NodeTimeline};
use scenario::{CalibSpec, Scenario, ScenarioError};
use toast_core::dispatch::ImplKind;
use toast_core::kernels::{ExecCtx, JitKernels};
use toast_core::pipeline::{benchmark_pipeline_passes, MovementPolicy};
use toast_satsim::Problem;

/// One benchmark configuration — the runner-facing projection of a
/// [`Scenario`]. Flag-driven entry points build it directly; scenario
/// files reach it through [`RunConfig::from_scenario`], and the two paths
/// are locked bit-identical by the differential tests.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub problem: Problem,
    /// Which implementation every kernel uses.
    pub kind: ImplKind,
    /// Processes per node (threads per process = cores / this).
    pub procs_per_node: u32,
    /// Whether the CUDA Multi-Process Service is active (paper § 3.1.2:
    /// required for efficient offload oversubscription).
    pub mps: bool,
    /// Data-movement policy (Tracked is the paper's design; Naive is the
    /// 40%-ablation baseline).
    pub movement: MovementPolicy,
    /// Replay this many whole nodes through the cluster engine, with the
    /// inter-node collectives as simulated network events (congestion
    /// emerges from NIC sharing). `None` keeps the legacy single-node
    /// replay plus analytic comm pricing.
    pub nodes: Option<u32>,
    /// Kernel arbitration policy for the replay
    /// ([`SchedulePolicyKind::Auto`] follows `mps`).
    pub schedule: SchedulePolicyKind,
    /// Overlap H2D/D2H transfers with host work on per-rank streams.
    pub overlap_transfers: bool,
    /// GPUs per node (the paper's Perlmutter nodes carry 4).
    pub gpus: u32,
    /// Calibration override; `None` means the problem's own scaled
    /// calibration, exactly as every flag-driven run uses.
    pub calib: Option<NodeCalib>,
    /// Interconnect override; `None` means [`NetCalib::default`].
    pub net: Option<NetCalib>,
}

impl RunConfig {
    /// The standard configuration for an implementation at a process
    /// count. Fails with [`ScenarioError::InvalidProcs`] when
    /// `procs_per_node` does not evenly partition the node's cores — the
    /// old behaviour silently floored non-divisors (e.g. 3 procs → 21
    /// threads, leaving a core idle), making configurations lie about the
    /// hardware they model.
    pub fn new(
        problem: Problem,
        kind: ImplKind,
        procs_per_node: u32,
    ) -> Result<Self, ScenarioError> {
        let cfg = Self {
            problem,
            kind,
            procs_per_node,
            mps: true,
            movement: MovementPolicy::Tracked,
            nodes: None,
            schedule: SchedulePolicyKind::Auto,
            overlap_transfers: false,
            gpus: 4,
            calib: None,
            net: None,
        };
        cfg.threads()?; // validate eagerly
        Ok(cfg)
    }

    /// Project a [`Scenario`] onto the runner. Total: every scenario
    /// field lands in the config (or, for [`Scenario::output`], in the
    /// caller's output handling). An `auto` calibration projects to
    /// `None` so the scenario path shares the flag path's code exactly.
    pub fn from_scenario(s: &Scenario) -> Result<Self, ScenarioError> {
        s.validate()?;
        let (calib, net) = match &s.calib {
            CalibSpec::Auto => (None, None),
            _ => {
                let (node, net) = s.resolved_calib()?;
                (Some(node), Some(net))
            }
        };
        Ok(Self {
            problem: s.build_problem(),
            kind: s.kind,
            procs_per_node: s.procs_per_node,
            mps: s.mps,
            movement: s.movement,
            nodes: s.nodes,
            schedule: s.schedule,
            overlap_transfers: s.overlap_transfers,
            gpus: s.gpus,
            calib,
            net,
        })
    }

    /// Threads per process: the node's cores divided evenly among the
    /// ranks, as in the paper's Fig. 4 sweep. Non-divisors are the typed
    /// [`ScenarioError::InvalidProcs`] (they would idle or oversubscribe
    /// cores).
    pub fn threads(&self) -> Result<u32, ScenarioError> {
        threads(&self.node_calib(), self.procs_per_node)
    }

    /// The fields the live half of this run reads.
    pub fn live_key(&self) -> LiveKey {
        LiveKey {
            problem: self.problem.clone(),
            kind: self.kind,
            procs_per_node: self.procs_per_node,
            movement: self.movement,
            nodes: self.nodes,
            calib: self.node_calib(),
            net: self.net_calib(),
        }
    }

    /// The node calibration in force: the override, or the problem's own.
    pub fn node_calib(&self) -> NodeCalib {
        self.calib.unwrap_or_else(|| self.problem.calib())
    }

    /// The interconnect calibration in force.
    pub fn net_calib(&self) -> NetCalib {
        self.net.unwrap_or_default()
    }
}

/// What a configuration produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Simulated node wall seconds (including queueing/contention), or the
    /// out-of-memory condition when the configuration does not fit —
    /// exactly the paper's missing Fig. 4 points.
    pub node_wall: Result<f64, String>,
    /// Inter-node + inter-process collective seconds (map allreduces).
    pub comm_seconds: f64,
    /// Per-label solo-estimate seconds aggregated across ranks (kernel
    /// names, `accel_data_*` operations, host labels) — Fig. 6's rows.
    pub per_label: BTreeMap<String, LabelStats>,
    /// Per-GPU busy seconds from the replay.
    pub gpu_busy: Vec<f64>,
    /// Bytes moved over PCIe, summed over ranks.
    pub transfer_bytes: f64,
    /// Per-label span metrics (counts, total and p50/p95/max durations)
    /// aggregated across ranks from the span traces.
    pub metrics: BTreeMap<String, crate::metrics::LabelSummary>,
    /// The raw per-rank span traces (virtual clocks), for export via
    /// [`crate::traceout::write_trace`].
    pub traces: Vec<accel_sim::RankTrace>,
    /// Cluster-wide accounting (NIC busy time, collective stretch and
    /// barrier waits) when the run used [`RunConfig::nodes`].
    pub cluster: Option<ClusterResult>,
}

impl RunOutcome {
    /// Total runtime (node wall + communication), if the run fit.
    pub fn runtime(&self) -> Option<f64> {
        self.node_wall.as_ref().ok().map(|w| w + self.comm_seconds)
    }
}

/// The fields of a [`RunConfig`] the live half of a run reads: the
/// problem, the implementation, processes per node, the movement policy,
/// the node count and the resolved node and interconnect calibrations.
/// Configurations with equal keys produce the same traces bit for bit,
/// whatever their replay-time fields (`mps`, `schedule`,
/// `overlap_transfers`, `gpus`), which reach only the replay's
/// [`NodeConfig`]. [`run_live`] takes nothing else, so it cannot read a
/// replay-time field.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveKey {
    /// The workload.
    pub problem: Problem,
    /// Which implementation every kernel uses.
    pub kind: ImplKind,
    /// Processes per node.
    pub procs_per_node: u32,
    /// Data-movement policy.
    pub movement: MovementPolicy,
    /// Whole nodes replayed through the cluster engine ([`RunConfig::nodes`]).
    pub nodes: Option<u32>,
    /// The node calibration in force.
    pub calib: NodeCalib,
    /// The interconnect calibration in force.
    pub net: NetCalib,
}

impl LiveKey {
    /// The map bytes one allreduce moves, and its solo price in
    /// simulated seconds: the zmap is allreduced across every rank of the
    /// job once per observation, plus a final amplitude reduce.
    fn collective(&self) -> (f64, f64) {
        let total_ranks = self.nodes.unwrap_or(self.problem.nodes) * self.procs_per_node;
        let map_bytes = (self.problem.geometry().map_len() * 8) as f64;
        let solo = allreduce_seconds(&self.net, total_ranks, map_bytes) * self.problem.scale;
        (map_bytes, solo)
    }
}

/// What the live half of a run produced: every rank's span trace and the
/// totals read off the ranks. It depends on nothing but its [`LiveKey`],
/// so one `LiveRun` serves every replay-time variant of the key.
#[derive(Debug)]
pub struct LiveRun {
    /// The key this run was made from.
    pub key: LiveKey,
    /// The per-rank span traces, up to the first rank that failed.
    pub traces: Vec<accel_sim::RankTrace>,
    /// Per-label solo-estimate seconds aggregated across those ranks.
    pub per_label: BTreeMap<String, LabelStats>,
    /// Bytes moved over PCIe, summed over those ranks.
    pub transfer_bytes: f64,
    /// The first rank's failure (its device allocations did not fit).
    pub rank_oom: Option<String>,
}

/// What the replay half produced for one node configuration.
#[derive(Debug)]
pub struct Replay {
    /// As [`RunOutcome::node_wall`].
    pub node_wall: Result<f64, String>,
    /// As [`RunOutcome::comm_seconds`].
    pub comm_seconds: f64,
    /// As [`RunOutcome::gpu_busy`].
    pub gpu_busy: Vec<f64>,
    /// The contention-resolved node timeline, when the replay was traced
    /// and the run fit on the device. In cluster mode this is the merged
    /// multi-node timeline (global rank/GPU indices).
    pub timeline: Option<NodeTimeline>,
    /// As [`RunOutcome::cluster`].
    pub cluster: Option<ClusterResult>,
}

/// Run one configuration: simulate every rank of one node, replay against
/// the shared GPUs, and price collectives. With [`RunConfig::nodes`]
/// unset, ranks on other nodes are statistically identical and collectives
/// are priced analytically; with it set, every node is replayed through
/// the cluster engine and collectives become simulated network events.
/// Fails only on configuration errors (invalid process counts); workload
/// failures like out-of-memory stay inside [`RunOutcome::node_wall`].
///
/// This is [`run_live`] on the config's [`LiveKey`] followed by
/// [`replay`]; the traces move into the outcome, none is copied.
pub fn run_config(cfg: &RunConfig) -> Result<RunOutcome, ScenarioError> {
    let live = run_live(&cfg.live_key())?;
    let r = replay(cfg, &live, false);
    Ok(RunOutcome {
        node_wall: r.node_wall,
        comm_seconds: r.comm_seconds,
        metrics: crate::metrics::summarize_events(&live.traces),
        per_label: live.per_label,
        gpu_busy: r.gpu_busy,
        transfer_bytes: live.transfer_bytes,
        traces: live.traces,
        cluster: r.cluster,
    })
}

/// The live half of a run: build every rank's workload and run its
/// pipelines, recording traces. Fails only when the process count does
/// not partition the node's cores; a rank that runs out of device memory
/// ends the loop and is reported in [`LiveRun::rank_oom`].
pub fn run_live(key: &LiveKey) -> Result<LiveRun, ScenarioError> {
    let threads = threads(&key.calib, key.procs_per_node)?;
    let calib = key.calib;
    let procs = key.procs_per_node;
    let fw = calib.framework;

    // In cluster mode each collective's solo price becomes the rank's NIC
    // demand; the legacy path prices them in the replay half instead.
    let (map_bytes, collective_solo) = key.collective();

    // What no rank differs in is built once per run: the sky map, focal
    // plane and boresight, and the JIT programs. Each rank still owns its
    // workspace and JIT handles, so its virtual clock is charged every
    // compile a process of its own would make.
    let inputs = key.problem.run_inputs(procs);
    let programs = JitKernels::new();

    // Ranks are independent simulated processes: run them in parallel on
    // the host (the simulation's virtual clocks are per-rank; sharing is
    // resolved afterwards by the node replay). Each rank writes only its
    // own slot, and the slots are merged below in rank order.
    let run_rank = |rank: u32| -> Result<Context, String> {
        let mut ws = inputs.rank_workspace(rank);
        let mut ctx = Context::new(calib);

        // Fixed per-process device footprint (CUDA context, runtime
        // reservations) — held for the life of the process.
        let fixed = match key.kind {
            ImplKind::Jit => fw.jit_process_device_bytes as u64,
            ImplKind::OmpTarget => fw.omp_process_device_bytes as u64,
            _ => 0,
        };
        if fixed > 0 {
            ctx.device_alloc(fixed, true)
                .map_err(|e| format!("rank {rank}: {e}"))?;
        }

        let mut exec = ExecCtx::with_jits(key.kind, threads, programs.share());
        let host = key.problem.host_seconds_per_rank(&ws, procs);
        let pipe = benchmark_pipeline_passes(host, key.problem.passes).with_policy(key.movement);
        for _obs in 0..key.problem.n_obs {
            pipe.run(&mut ctx, &mut exec, &mut ws)
                .map_err(|e| format!("rank {rank}: {e}"))?;
            if key.nodes.is_some() {
                ctx.collective("mpi_allreduce_zmap", map_bytes, collective_solo);
            }
        }
        if key.nodes.is_some() {
            ctx.collective("mpi_allreduce_amplitudes", map_bytes, collective_solo);
        }
        Ok(ctx)
    };
    let mut rank_results: Vec<Option<Result<Context, String>>> = (0..procs).map(|_| None).collect();
    rayon::fan_out(&mut rank_results, 0, rayon::worker_count(), |rank, slot| {
        *slot = Some(run_rank(rank as u32));
    });

    let mut traces = Vec::with_capacity(procs as usize);
    let mut per_label: BTreeMap<String, LabelStats> = BTreeMap::new();
    let mut transfer_bytes = 0.0;
    let mut rank_oom: Option<String> = None;
    for result in rank_results.into_iter().flatten() {
        match result {
            Err(e) => {
                rank_oom = Some(e);
                break;
            }
            Ok(ctx) => {
                for (label, stat) in ctx.stats() {
                    let e = per_label.entry(label.clone()).or_default();
                    e.calls += stat.calls;
                    e.seconds += stat.seconds;
                    e.bytes += stat.bytes;
                }
                transfer_bytes += ctx.trace().transfer_bytes();
                traces.push(ctx.into_trace());
            }
        }
    }
    Ok(LiveRun {
        key: key.clone(),
        traces,
        per_label,
        transfer_bytes,
        rank_oom,
    })
}

/// The replay half of a run: replay `live`'s traces on the shared GPUs
/// under `cfg`'s replay-time fields (`mps`, `schedule`,
/// `overlap_transfers`, `gpus`), and price the collectives. Everything
/// else comes from `live.key`, so one live run can be replayed under any
/// number of node configurations. `traced` also records the node
/// timeline, for a trace file; every other field has the same bits
/// either way.
pub fn replay(cfg: &RunConfig, live: &LiveRun, traced: bool) -> Replay {
    let key = &live.key;
    // Legacy path: one analytic zmap allreduce per observation plus a
    // final amplitude reduce, scaled into simulated time like everything
    // else. In cluster mode the collectives are *in* the replayed wall
    // time, so nothing is added here.
    let comm_seconds = if key.nodes.is_some() {
        0.0
    } else {
        (key.problem.n_obs as f64 + 1.0) * key.collective().1
    };

    // Engine failures become report-level error strings: OOM keeps the
    // legacy phrasing the report snapshots expect; the other typed
    // variants (non-finite charge, stream underflow, deadlock) surface
    // through their Display form.
    let sim_err_msg = |e: EngineError| match e.as_oom() {
        Some(oom) => format!(
            "GPU {}: ranks demand {} B of {} B",
            oom.gpu, oom.demanded, oom.capacity
        ),
        None => e.to_string(),
    };
    let failed = |msg| Replay {
        node_wall: Err(msg),
        comm_seconds,
        gpu_busy: Vec::new(),
        timeline: None,
        cluster: None,
    };
    if let Some(e) = &live.rank_oom {
        return failed(e.clone());
    }
    // One replay: this node's traces on every node of the cluster (every
    // node runs a statistically identical set of ranks), or on the one
    // node of the legacy path.
    let node_traces = vec![live.traces.as_slice(); key.nodes.map_or(1, |n| n.max(1)) as usize];
    let node = node_config(cfg, key.calib);
    let sim = if traced {
        simulate_cluster_traced(&node_traces, &node).map(|(res, tl)| (res, Some(tl)))
    } else {
        simulate_cluster(&node_traces, &node).map(|res| (res, None))
    };
    match sim {
        Ok((res, timeline)) => Replay {
            node_wall: Ok(res.wall_seconds),
            comm_seconds,
            gpu_busy: res.gpu_busy.clone(),
            timeline,
            cluster: key.nodes.map(|_| res),
        },
        Err(e) => failed(sim_err_msg(e)),
    }
}

/// Capture a [`RecordedWorkload`] from a finished run, for what-if
/// repricing (`whatif --record`). The recording holds one node's traces,
/// stored once and shared by every node of [`RunConfig::nodes`] (the runner's own cluster
/// convention: every node runs a statistically identical set of ranks), so
/// an identity-calibration replay reproduces `out.node_wall` exactly.
/// When the run came from a scenario, pass it so the recording carries
/// its provenance. Fails when the run itself did not fit on the device —
/// there is no wall time to reprice.
pub fn recorded_workload(
    cfg: &RunConfig,
    out: &RunOutcome,
    label: &str,
    scenario: Option<&Scenario>,
) -> Result<RecordedWorkload, String> {
    let live_wall = *out
        .node_wall
        .as_ref()
        .map_err(|e| format!("cannot record an out-of-memory run ({e})"))?;
    let nodes = cfg.nodes.unwrap_or(1).max(1) as usize;
    // A recording keeps each rank's segments and peak, not its span
    // events, so only those are copied, once: every node shares them.
    let node: Arc<[accel_sim::RankTrace]> = out
        .traces
        .iter()
        .map(|t| accel_sim::RankTrace {
            segments: t.segments.clone(),
            events: Vec::new(),
            peak_device_bytes: t.peak_device_bytes,
        })
        .collect();
    let meta = RecordMeta {
        version: 1,
        label: label.to_string(),
        gpus: cfg.gpus,
        mps: cfg.mps,
        schedule: cfg.schedule,
        overlap_transfers: cfg.overlap_transfers,
        total_ranks: cfg.nodes.unwrap_or(cfg.problem.nodes) * cfg.procs_per_node,
        work_scale: cfg.problem.scale,
        live_wall_seconds: live_wall,
        node_calib: cfg.node_calib(),
        net_calib: cfg.net_calib(),
        scenario: scenario.map(|s| s.to_json_compact()),
    };
    Ok(RecordedWorkload {
        meta,
        nodes: vec![node; nodes],
    })
}

/// Run a configuration and capture its workload in one step — the common
/// "record for later repricing/sweeping" entry (`whatif --record`, the
/// golden replay tests, `wallbench`'s sweep and serve workloads). Returns the outcome alongside the recording so callers
/// can still report live numbers.
pub fn record_run(
    cfg: &RunConfig,
    label: &str,
    scenario: Option<&Scenario>,
) -> Result<(RunOutcome, RecordedWorkload), String> {
    let out = run_config(cfg).map_err(|e| e.to_string())?;
    let workload = recorded_workload(cfg, &out, label, scenario)?;
    Ok((out, workload))
}

fn threads(calib: &NodeCalib, procs: u32) -> Result<u32, ScenarioError> {
    let cores = calib.cpu.cores;
    if procs == 0 || !cores.is_multiple_of(procs) {
        return Err(ScenarioError::InvalidProcs { procs, cores });
    }
    Ok(cores / procs)
}

fn node_config(cfg: &RunConfig, calib: NodeCalib) -> NodeConfig {
    NodeConfig {
        calib,
        gpus: cfg.gpus,
        mps: cfg.mps,
        schedule: cfg.schedule,
        overlap_transfers: cfg.overlap_transfers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::ProblemSize;

    fn tiny_problem() -> Problem {
        let mut p = Problem::medium(2e-3);
        // Keep the harness tests fast: shrink detectors, total samples and
        // observation count *proportionally* so per-rank footprints keep
        // the medium problem's shape.
        p.total_samples *= 64.0 / p.n_det_total as f64;
        p.n_det_total = 64;
        p.n_obs = 2;
        p
    }

    fn tiny_cfg(kind: ImplKind, procs: u32) -> RunConfig {
        RunConfig::new(tiny_problem(), kind, procs).expect("valid procs")
    }

    /// The same tiny problem expressed as a scenario, for the
    /// flag-vs-scenario differential tests.
    fn tiny_scenario(kind: ImplKind, procs: u32) -> Scenario {
        let mut s = Scenario::new("tiny", ProblemSize::Medium, 2e-3)
            .with_kind(kind)
            .with_procs(procs);
        s.problem.total_samples = Some(5e9 * (64.0 / 2048.0));
        s.problem.n_det_total = Some(64);
        s.problem.n_obs = Some(2);
        s
    }

    #[test]
    fn cpu_run_completes_and_reports_time() {
        let out = run_config(&tiny_cfg(ImplKind::Cpu, 4)).unwrap();
        let t = out.runtime().expect("cpu fits");
        assert!(t > 0.0);
        assert!(out.per_label.contains_key("scan_map"));
        assert_eq!(out.transfer_bytes, 0.0);
    }

    #[test]
    fn gpu_runs_beat_cpu_at_16_procs() {
        // The tiny test problem is far below the paper's size, so one-time
        // JIT compilation (a fixed cost the real benchmark amortises over
        // ~10^9 samples) is subtracted before comparing.
        let cpu = run_config(&tiny_cfg(ImplKind::Cpu, 16))
            .unwrap()
            .runtime()
            .unwrap();
        let omp = run_config(&tiny_cfg(ImplKind::OmpTarget, 16))
            .unwrap()
            .runtime()
            .unwrap();
        let jit_out = run_config(&tiny_cfg(ImplKind::Jit, 16)).unwrap();
        let compile: f64 = jit_out
            .per_label
            .iter()
            .filter(|(k, _)| k.ends_with("/jit_compile"))
            .map(|(_, s)| s.seconds)
            .sum();
        let jit = jit_out.runtime().unwrap() - compile / 16.0;
        assert!(omp < cpu, "omp {omp} vs cpu {cpu}");
        assert!(jit < cpu, "jit {jit} vs cpu {cpu} (compile {compile})");
    }

    #[test]
    fn per_label_includes_data_movement() {
        let out = run_config(&tiny_cfg(ImplKind::OmpTarget, 4)).unwrap();
        assert!(out.per_label.contains_key("accel_data_update_device"));
        assert!(out.transfer_bytes > 0.0);
    }

    #[test]
    fn threads_divides_the_node_evenly() {
        for procs in [1u32, 2, 4, 8, 16, 32, 64] {
            let cfg = tiny_cfg(ImplKind::Cpu, procs);
            assert_eq!(cfg.threads().unwrap() * procs, 64);
        }
    }

    #[test]
    fn invalid_procs_are_typed_errors_not_panics() {
        // 0 (degenerate), non-divisors (would idle cores) and
        // oversubscription (more procs than cores) all surface as
        // `ScenarioError::InvalidProcs` — the replacement for the old
        // "must divide" panic.
        for procs in [0u32, 3, 65, 128] {
            match RunConfig::new(tiny_problem(), ImplKind::Cpu, procs) {
                Err(ScenarioError::InvalidProcs { procs: p, cores }) => {
                    assert_eq!(p, procs);
                    assert_eq!(cores, 64);
                }
                other => panic!("procs {procs}: expected InvalidProcs, got {other:?}"),
            }
        }
        // A config mutated into invalidity after construction fails at
        // run time instead of panicking mid-run.
        let mut cfg = tiny_cfg(ImplKind::Cpu, 4);
        cfg.procs_per_node = 5;
        assert!(matches!(
            run_config(&cfg),
            Err(ScenarioError::InvalidProcs { procs: 5, .. })
        ));
    }

    #[test]
    fn scenario_path_is_bit_identical_to_flag_path() {
        // The differential guard at the runner level: a RunConfig built
        // from a Scenario must reproduce the directly-constructed one's
        // makespan to the bit, for both CPU and device implementations.
        for (kind, procs) in [(ImplKind::Cpu, 4), (ImplKind::OmpTarget, 8)] {
            let direct = run_config(&tiny_cfg(kind, procs)).unwrap();
            let via = RunConfig::from_scenario(&tiny_scenario(kind, procs)).unwrap();
            let scen = run_config(&via).unwrap();
            assert_eq!(
                direct.node_wall.as_ref().unwrap().to_bits(),
                scen.node_wall.as_ref().unwrap().to_bits(),
                "{kind:?} at {procs} procs"
            );
            assert_eq!(direct.comm_seconds.to_bits(), scen.comm_seconds.to_bits());
        }
    }

    #[test]
    fn metrics_totals_agree_with_label_stats() {
        let cfg = tiny_cfg(ImplKind::OmpTarget, 4);
        let live = run_live(&cfg.live_key()).unwrap();
        assert!(replay(&cfg, &live, true).timeline.is_some());
        assert!(!live.traces.is_empty());
        let metrics = crate::metrics::summarize_events(&live.traces);
        for (label, stat) in &live.per_label {
            let m = metrics
                .get(label)
                .unwrap_or_else(|| panic!("no span metrics for {label}"));
            assert!(
                (m.total_s - stat.seconds).abs() < 1e-9 * stat.seconds.max(1.0),
                "{label}: spans {} vs stats {}",
                m.total_s,
                stat.seconds
            );
            assert_eq!(m.calls, stat.calls);
        }
    }

    #[test]
    fn cluster_run_replays_collectives_as_network_events() {
        let mut cfg = tiny_cfg(ImplKind::OmpTarget, 4);
        let legacy = run_config(&cfg).unwrap();
        let legacy_wall = *legacy.node_wall.as_ref().expect("fits");
        assert!(legacy.comm_seconds > 0.0);
        assert!(legacy.cluster.is_none());

        cfg.nodes = Some(2);
        let live = run_live(&cfg.live_key()).unwrap();
        let out = replay(&cfg, &live, true);
        let wall = *out.node_wall.as_ref().expect("fits");
        // Collectives are inside the replayed wall now, not an addend.
        assert_eq!(out.comm_seconds, 0.0);
        assert!(wall > legacy_wall, "{wall} vs {legacy_wall}");
        let cluster = out.cluster.as_ref().expect("cluster accounting");
        assert_eq!(cluster.nodes, 2);
        assert_eq!(cluster.nic_busy.len(), 2);
        assert!(cluster.nic_busy[0] > 0.0);
        assert_eq!(cluster.gpu_busy.len(), 8);
        assert!(cluster.collective_seconds > 0.0);
        // With 4 ranks sharing each NIC, congestion stretches the summed
        // collective time well past the analytic solo pricing.
        assert!(cluster.collective_seconds > legacy.comm_seconds);
        assert!(live.per_label.contains_key("mpi_allreduce_zmap"));
        assert!(live.per_label.contains_key("mpi_allreduce_amplitudes"));
        // The multi-node timeline carries the collective phases.
        let tl = out.timeline.as_ref().expect("timeline");
        assert!(tl
            .events
            .iter()
            .any(|e| e.kind == accel_sim::TimelineKind::Collective));
    }

    #[test]
    fn overlap_and_schedule_flags_reach_the_replay() {
        let mut cfg = tiny_cfg(ImplKind::OmpTarget, 8);
        let sync_wall = run_config(&cfg).unwrap().runtime().expect("fits");
        cfg.overlap_transfers = true;
        let overlap_wall = run_config(&cfg).unwrap().runtime().expect("fits");
        // Streams can only help (or tie): transfers hide behind host work.
        assert!(
            overlap_wall <= sync_wall + 1e-12,
            "{overlap_wall} vs {sync_wall}"
        );

        cfg.overlap_transfers = false;
        cfg.schedule = accel_sim::SchedulePolicyKind::Fifo;
        let fifo_wall = run_config(&cfg).unwrap().runtime().expect("fits");
        assert!(fifo_wall > 0.0);
        assert!(
            (fifo_wall - sync_wall).abs() > 1e-12,
            "fifo should change the schedule ({fifo_wall} vs {sync_wall})"
        );
    }

    #[test]
    fn recordings_carry_their_scenario() {
        let s = tiny_scenario(ImplKind::OmpTarget, 4);
        let cfg = RunConfig::from_scenario(&s).unwrap();
        let (_, w) = record_run(&cfg, "with scenario", Some(&s)).unwrap();
        let embedded = w.meta.scenario.as_deref().expect("scenario embedded");
        assert_eq!(Scenario::parse(embedded).unwrap(), s);
        assert_eq!(w.meta.gpus, s.gpus);
        // And the embedding survives the JSONL round trip.
        let parsed = RecordedWorkload::parse_jsonl(&w.to_jsonl()).unwrap();
        assert_eq!(parsed.meta.scenario, w.meta.scenario);
        // Flag-driven recordings stay scenario-free.
        let (_, w2) = record_run(&cfg, "no scenario", None).unwrap();
        assert!(w2.meta.scenario.is_none());
    }

    #[test]
    fn recorded_workload_keeps_what_a_full_clone_would() {
        let mut cfg = tiny_cfg(ImplKind::OmpTarget, 4);
        cfg.nodes = Some(2);
        let out = run_config(&cfg).unwrap();
        assert!(out.traces.iter().all(|t| !t.events.is_empty()));
        let w = recorded_workload(&cfg, &out, "copy check", None).unwrap();
        // The recording as captured from whole cloned traces.
        let full = RecordedWorkload::capture(vec![out.traces.clone(); 2], w.meta.clone());
        assert_eq!(w.nodes, full.nodes);
        // Both store the one node once.
        assert!(Arc::ptr_eq(&w.nodes[0], &w.nodes[1]));
        assert!(Arc::ptr_eq(&full.nodes[0], &full.nodes[1]));
        assert_eq!(w.to_jsonl(), full.to_jsonl());
    }

    #[test]
    fn written_trace_round_trips_per_label_seconds() {
        // The acceptance check: export the trace `figures` writes with
        // `--trace-out`, parse it back, and match the live run's per-label
        // seconds.
        let cfg = tiny_cfg(ImplKind::Jit, 4);
        let live = run_live(&cfg.live_key()).unwrap();
        let timeline = replay(&cfg, &live, true).timeline;
        for name in ["runner_roundtrip.json", "runner_roundtrip.jsonl"] {
            let path = std::env::temp_dir().join(format!("repro_bench_{name}"));
            crate::traceout::write_trace(&path, &live.traces, timeline.as_ref()).unwrap();
            let parsed = crate::traceout::span_seconds_from_file(&path).unwrap();
            for (label, stat) in &live.per_label {
                let got = parsed.get(label).copied().unwrap_or(0.0);
                assert!(
                    (got - stat.seconds).abs() < 1e-9 * stat.seconds.max(1.0),
                    "{name} {label}: {got} vs {}",
                    stat.seconds
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }
}
