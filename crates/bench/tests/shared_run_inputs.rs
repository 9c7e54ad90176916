//! `run_config` builds a run's rank-invariant inputs once (sky map, focal
//! plane, boresight, compiled JIT programs) and shares them between its
//! ranks. Oracle: a hand loop that builds every rank on its own, with
//! `Problem::rank_workspace` and a fresh `ExecCtx`, must give the same
//! bits — makespan, communication, every per-label stat and every rank's
//! trace.

use std::collections::BTreeMap;

use accel_sim::comm::allreduce_seconds;
use accel_sim::context::LabelStats;
use accel_sim::engine::simulate_cluster_traced;
use accel_sim::node::{simulate_node_traced, NodeConfig};
use accel_sim::{Context, RankTrace};
use repro_bench::{run_config, RunConfig};
use scenario::{ImplKind, ProblemSize, Scenario};
use toast_core::kernels::{ExecCtx, JitKernels};
use toast_core::pipeline::benchmark_pipeline_passes;

/// What the independent-rank loop produces, in `run_config`'s terms.
struct Independent {
    node_wall: f64,
    comm_seconds: f64,
    per_label: BTreeMap<String, LabelStats>,
    traces: Vec<RankTrace>,
}

fn independent_ranks(cfg: &RunConfig) -> Independent {
    let threads = cfg.threads().unwrap();
    let calib = cfg.node_calib();
    let procs = cfg.procs_per_node;
    let fw = calib.framework;
    let total_ranks = cfg.nodes.unwrap_or(cfg.problem.nodes) * procs;
    let map_bytes = (cfg.problem.geometry().map_len() * 8) as f64;
    let collective_solo =
        allreduce_seconds(&cfg.net_calib(), total_ranks, map_bytes) * cfg.problem.scale;

    let mut per_label: BTreeMap<String, LabelStats> = BTreeMap::new();
    let mut traces = Vec::new();
    for rank in 0..procs {
        let mut ws = cfg.problem.rank_workspace(rank, procs);
        let mut ctx = Context::new(calib);
        let fixed = match cfg.kind {
            ImplKind::Jit => fw.jit_process_device_bytes as u64,
            ImplKind::OmpTarget => fw.omp_process_device_bytes as u64,
            _ => 0,
        };
        if fixed > 0 {
            ctx.device_alloc(fixed, true).unwrap();
        }
        let mut exec = ExecCtx::new(cfg.kind, threads);
        let host = cfg.problem.host_seconds_per_rank(&ws, procs);
        let pipe = benchmark_pipeline_passes(host, cfg.problem.passes).with_policy(cfg.movement);
        for _ in 0..cfg.problem.n_obs {
            pipe.run(&mut ctx, &mut exec, &mut ws).unwrap();
            if cfg.nodes.is_some() {
                ctx.collective("mpi_allreduce_zmap", map_bytes, collective_solo);
            }
        }
        if cfg.nodes.is_some() {
            ctx.collective("mpi_allreduce_amplitudes", map_bytes, collective_solo);
        }
        for (label, stat) in ctx.stats() {
            let e = per_label.entry(label.clone()).or_default();
            e.calls += stat.calls;
            e.seconds += stat.seconds;
            e.bytes += stat.bytes;
        }
        traces.push(ctx.into_trace());
    }

    let node_cfg = NodeConfig {
        calib,
        gpus: cfg.gpus,
        mps: cfg.mps,
        schedule: cfg.schedule,
        overlap_transfers: cfg.overlap_transfers,
    };
    let (node_wall, comm_seconds) = match cfg.nodes {
        None => (
            simulate_node_traced(&traces, &node_cfg)
                .unwrap()
                .0
                .wall_seconds,
            (cfg.problem.n_obs as f64 + 1.0) * collective_solo,
        ),
        Some(n) => {
            let node_traces: Vec<_> = (0..n).map(|_| traces.clone()).collect();
            let res = simulate_cluster_traced(&node_traces, &node_cfg).unwrap().0;
            (res.wall_seconds, 0.0)
        }
    };
    Independent {
        node_wall,
        comm_seconds,
        per_label,
        traces,
    }
}

/// A small problem in the `live` benchmark's shape (scale 1e-3, two
/// observations), with 16 detectors so 16 ranks hold one each.
fn config(kind: ImplKind, procs: u32, nodes: Option<u32>) -> RunConfig {
    let mut s = Scenario::new("shared inputs", ProblemSize::Medium, 1e-3)
        .with_kind(kind)
        .with_procs(procs);
    s.nodes = nodes;
    s.problem.n_det_total = Some(16);
    s.problem.n_obs = Some(2);
    s.problem.total_samples = Some(5e9 / 512.0);
    s.problem.seed = Some(4242);
    RunConfig::from_scenario(&s).unwrap()
}

fn assert_same_bits(cfg: &RunConfig) {
    let name = format!("{:?} p{} {:?}", cfg.kind, cfg.procs_per_node, cfg.nodes);
    let shared = run_config(cfg).unwrap();
    let alone = independent_ranks(cfg);
    let wall = *shared.node_wall.as_ref().expect("fits");
    assert_eq!(
        wall.to_bits(),
        alone.node_wall.to_bits(),
        "{name}: node_wall"
    );
    assert_eq!(
        shared.comm_seconds.to_bits(),
        alone.comm_seconds.to_bits(),
        "{name}: comm_seconds"
    );
    assert_eq!(
        shared.per_label.keys().collect::<Vec<_>>(),
        alone.per_label.keys().collect::<Vec<_>>(),
        "{name}: labels"
    );
    for (label, a) in &shared.per_label {
        let b = &alone.per_label[label];
        assert_eq!(a.calls, b.calls, "{name}: {label} calls");
        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "{name}: {label}");
        assert_eq!(
            a.bytes.to_bits(),
            b.bytes.to_bits(),
            "{name}: {label} bytes"
        );
    }
    assert_eq!(shared.traces.len(), alone.traces.len(), "{name}: ranks");
    for (rank, (a, b)) in shared.traces.iter().zip(&alone.traces).enumerate() {
        // Debug prints every f64 round-trip exact: equal text, equal bits.
        assert!(
            format!("{a:?}") == format!("{b:?}"),
            "{name}: rank {rank} trace differs"
        );
    }
}

#[test]
fn shared_inputs_give_the_bits_of_independent_ranks() {
    for kind in [ImplKind::Cpu, ImplKind::OmpTarget, ImplKind::Jit] {
        for procs in [1, 4, 16] {
            assert_same_bits(&config(kind, procs, None));
        }
    }
    assert_same_bits(&config(ImplKind::Jit, 4, Some(2)));
}

#[test]
fn shared_inputs_can_be_handed_to_parallel_ranks() {
    fn sync<T: Sync>(_: &T) {}
    let cfg = config(ImplKind::Jit, 4, None);
    sync(&cfg.problem.run_inputs(4));
    sync(&JitKernels::new());
}

#[test]
fn a_full_range_seed_runs_from_scenario_json() {
    // Any u64 is a valid seed; rank seeds derived from it wrap.
    let json = r#"{
  "schema_version": 1,
  "name": "max seed",
  "problem": {
    "size": "medium",
    "scale": 0.001,
    "total_samples": 9765625,
    "n_det_total": 16,
    "n_obs": 2,
    "seed": 18446744073709551615
  },
  "impl": "omp",
  "procs_per_node": 4,
  "gpus": 4,
  "mps": true,
  "movement": "tracked",
  "schedule": "auto",
  "overlap_transfers": false,
  "calib": "auto"
}"#;
    let s = Scenario::parse(json).unwrap();
    assert_eq!(s.problem.seed, Some(u64::MAX));
    let cfg = RunConfig::from_scenario(&s).unwrap();
    let out = run_config(&cfg).unwrap();
    assert!(out.runtime().expect("fits") > 0.0);
}
