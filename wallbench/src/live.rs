//! `live`: scenario runs through `repro_bench::run_config`.
//!
//! Kernels, arrayjit and satsim do nearly all of the work here; the
//! discrete-event engine replays each run in well under 1 % of its time.
//! Shapes are the golden scenarios' (medium problem, scale 1e-3, 4/8/16
//! processes, one node or `nodes: 2`), shrunk through the scenario's own
//! `n_det_total` / `n_obs` / `total_samples` overrides.

use std::collections::BTreeMap;
use std::time::Instant;

use accel_sim::comm::allreduce_seconds;
use accel_sim::engine::simulate_cluster_traced;
use accel_sim::node::{simulate_node_traced, NodeConfig};
use accel_sim::Context;
use repro_bench::{recorded_workload, run_config, RunConfig, RunOutcome};
use scenario::{ImplKind, ProblemSize, Scenario, ScenarioError};
use toast_core::kernels::{ExecCtx, JitKernels};
use toast_core::pipeline::benchmark_pipeline_passes;

use crate::gen::{Digest, Rng};
use crate::measure::{median, quantile, MachineSpeed, Metrics, Outcome, SetupReps, Tracer};

/// Processes per node and optional node count of each shape.
pub const SHAPES: [(u32, Option<u32>); 6] = [
    (4, None),
    (8, None),
    (16, None),
    (4, Some(2)),
    (8, Some(2)),
    (16, Some(2)),
];

pub const STYLES: [ImplKind; 3] = [ImplKind::Cpu, ImplKind::OmpTarget, ImplKind::Jit];
const STYLE_NAMES: [&str; 3] = ["cpu", "omp", "jax"];

/// Style index of each op in a block of ten, round-robin: 3 cpu, 4 omp,
/// 3 jax. A jax op costs several native ops (arrayjit traces, compiles
/// and interprets every kernel), so sorted op times put the seven native
/// ops first: p50 falls inside the native class and p90 inside the jax
/// class, never in the gap between them.
pub const BLOCK: [usize; 10] = [1, 0, 2, 1, 0, 2, 1, 0, 2, 1];

/// Problem shrink: detectors, observations and total paper-scale samples.
const N_DET: usize = 64;
const N_OBS: usize = 2;
const TOTAL_SAMPLES: f64 = 5e9 / 128.0;

/// Ops per measured second on the reference machine: the op count is
/// this times `--seconds`, rounded to whole blocks, and never depends on
/// how fast the ops actually run.
const OPS_PER_SECOND: f64 = 8.0;

/// Fixed op count for a run of `seconds` (whole blocks of the mix).
pub fn op_count(seconds: f64) -> usize {
    let blocks = (seconds * OPS_PER_SECOND / BLOCK.len() as f64).round() as usize;
    blocks.max(1) * BLOCK.len()
}

/// The op schedule: `(style, shape)` per op. Each style cycles through
/// the shapes on its own, so every (style, shape) pair recurs.
pub fn schedule(ops: usize) -> Vec<(usize, usize)> {
    let mut next_shape = [0usize; 3];
    (0..ops)
        .map(|i| {
            let style = BLOCK[i % BLOCK.len()];
            let shape = next_shape[style] % SHAPES.len();
            next_shape[style] += 1;
            (style, shape)
        })
        .collect()
}

/// Scenarios per shape and style; all styles of a shape share one
/// seeded problem, so their outputs are comparable.
pub fn generate(seed: u64) -> (Vec<Vec<Scenario>>, u64) {
    let mut rng = Rng::new(seed);
    let mut digest = Digest::default();
    let scenarios = SHAPES
        .iter()
        .map(|&(procs, nodes)| {
            let problem_seed = rng.problem_seed();
            STYLES
                .iter()
                .zip(STYLE_NAMES)
                .map(|(&kind, style)| {
                    let mut s = Scenario::new(
                        &format!("live p{procs} n{} {style}", nodes.unwrap_or(1)),
                        ProblemSize::Medium,
                        1e-3,
                    )
                    .with_kind(kind)
                    .with_procs(procs);
                    s.nodes = nodes;
                    s.problem.n_det_total = Some(N_DET);
                    s.problem.n_obs = Some(N_OBS);
                    s.problem.total_samples = Some(TOTAL_SAMPLES);
                    s.problem.seed = Some(problem_seed);
                    digest.feed(&s.to_json_compact());
                    s
                })
                .collect()
        })
        .collect();
    (scenarios, digest.value())
}

struct Prepared {
    cfgs: Vec<Vec<RunConfig>>,
    digest: u64,
}

fn setup(seed: u64) -> Result<Prepared, ScenarioError> {
    let (scenarios, digest) = generate(seed);
    let cfgs = scenarios
        .iter()
        .map(|row| row.iter().map(RunConfig::from_scenario).collect())
        .collect::<Result<Vec<Vec<_>>, _>>()?;
    // One untimed warm-up op per shape, styles rotating.
    for (shape, row) in cfgs.iter().enumerate() {
        std::hint::black_box(run_config(&row[shape % STYLES.len()])?);
    }
    Ok(Prepared { cfgs, digest })
}

/// The per-op output check: the op's identity replay reproduces its
/// makespan bits, and every repeat of a scenario is bit-identical to its
/// first run.
fn check_op(
    cfg: &RunConfig,
    out: &Result<RunOutcome, ScenarioError>,
    key: (usize, usize),
    seen: &mut BTreeMap<(usize, usize), (u64, u64)>,
) -> Result<(), String> {
    let name = format!(
        "{} p{} {:?}",
        STYLE_NAMES[key.0], cfg.procs_per_node, cfg.nodes
    );
    let out = out.as_ref().map_err(|e| format!("{name}: {e}"))?;
    let wall = *out
        .node_wall
        .as_ref()
        .map_err(|e| format!("{name}: run failed: {e}"))?;
    let recording = recorded_workload(cfg, out, &name, None)?;
    let replayed = recording
        .replay_identity()
        .map_err(|e| format!("{name}: identity replay failed: {e}"))?
        .cluster
        .wall_seconds;
    if replayed.to_bits() != wall.to_bits() {
        return Err(format!(
            "{name}: identity replay {replayed:e} differs from makespan {wall:e}"
        ));
    }
    let bits = (wall.to_bits(), out.comm_seconds.to_bits());
    let first = *seen.entry(key).or_insert(bits);
    if first != bits {
        return Err(format!("{name}: repeat run is not bit-identical"));
    }
    Ok(())
}

/// The end-to-end run: every op through `run_config`, untraced.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let sched = schedule(op_count(seconds));
    let (mut reps, prep) = SetupReps::first(sched.len(), || setup(seed));
    let prep = match prep {
        Ok(p) => p,
        Err(e) => return Outcome::setup_failed("live", e),
    };
    let mut outcome = Outcome {
        digest: prep.digest,
        ..Outcome::default()
    };
    let mut times = Vec::with_capacity(sched.len());
    let mut seen = BTreeMap::new();
    let mut speed = MachineSpeed::default();
    for (i, &(style, shape)) in sched.iter().enumerate() {
        reps.between(i, || setup(seed));
        speed.sample();
        let cfg = &prep.cfgs[shape][style];
        let t0 = Instant::now();
        let out = run_config(cfg);
        times.push(t0.elapsed().as_secs_f64());
        outcome.check(check_op(cfg, &out, (style, shape), &mut seen));
    }
    let busy: f64 = times.iter().sum();
    outcome.metrics = Metrics::end_to_end(reps.median(), sched.len() as f64 / busy, &times, &speed);
    outcome
}

fn jit_signatures(j: &JitKernels) -> usize {
    [
        &j.pointing_detector,
        &j.pixels_healpix,
        &j.stokes_weights_i,
        &j.stokes_weights_iqu,
        &j.scan_map,
        &j.noise_weight,
        &j.build_noise_weighted,
        &j.template_offset_add_to_signal,
        &j.template_offset_project_signal,
        &j.template_offset_apply_diag_precond,
    ]
    .iter()
    .map(|k| k.compiled_signatures())
    .sum()
}

/// One op driven a layer at a time through the public functions
/// `run_config` itself calls, in its order.
#[derive(Debug, Default)]
struct Decomposed {
    node_wall: f64,
    comm_seconds: f64,
    satsim_s: f64,
    pipeline_s: f64,
    /// Σ over ranks of (first observation − median later observation).
    first_obs_excess_s: f64,
    replay_s: f64,
    transfer_bytes: f64,
    segments: usize,
    signatures: usize,
    /// Rank 0's final `signal`, `zmap` and `amp_out`, for the cross-style
    /// numerics check.
    rank0: [Vec<f64>; 3],
}

fn decompose(
    cfg: &RunConfig,
    style: usize,
    tr: &mut Tracer,
    op: usize,
    parent: usize,
) -> Result<Decomposed, String> {
    let threads = cfg.threads().map_err(|e| e.to_string())?;
    let calib = cfg.node_calib();
    let procs = cfg.procs_per_node;
    let fw = calib.framework;
    let total_ranks = cfg.nodes.unwrap_or(cfg.problem.nodes) * procs;
    let map_bytes = (cfg.problem.geometry().map_len() * 8) as f64;
    let collective_solo =
        allreduce_seconds(&cfg.net_calib(), total_ranks, map_bytes) * cfg.problem.scale;
    let pipeline_span = [
        "core.pipeline.cpu",
        "core.pipeline.omp",
        "core.pipeline.jax",
    ][style];

    let mut d = Decomposed::default();
    let mut traces = Vec::with_capacity(procs as usize);
    for rank in 0..procs {
        let span = tr.open("satsim.workspace", op, Some(parent));
        let mut ws = cfg.problem.rank_workspace(rank, procs);
        d.satsim_s += tr.close(span);

        let mut ctx = Context::new(calib);
        let fixed = match cfg.kind {
            ImplKind::Jit => fw.jit_process_device_bytes as u64,
            ImplKind::OmpTarget => fw.omp_process_device_bytes as u64,
            _ => 0,
        };
        if fixed > 0 {
            ctx.device_alloc(fixed, true)
                .map_err(|e| format!("rank {rank}: {e}"))?;
        }
        let mut exec = ExecCtx::new(cfg.kind, threads);
        let host = cfg.problem.host_seconds_per_rank(&ws, procs);
        let pipe = benchmark_pipeline_passes(host, cfg.problem.passes).with_policy(cfg.movement);
        let mut obs_s = Vec::with_capacity(cfg.problem.n_obs);
        for _ in 0..cfg.problem.n_obs {
            let span = tr.open(pipeline_span, op, Some(parent));
            pipe.run(&mut ctx, &mut exec, &mut ws)
                .map_err(|e| format!("rank {rank}: {e}"))?;
            obs_s.push(tr.close(span));
            if cfg.nodes.is_some() {
                ctx.collective("mpi_allreduce_zmap", map_bytes, collective_solo);
            }
        }
        if cfg.nodes.is_some() {
            ctx.collective("mpi_allreduce_amplitudes", map_bytes, collective_solo);
        }
        d.pipeline_s += obs_s.iter().sum::<f64>();
        if obs_s.len() > 1 {
            d.first_obs_excess_s += obs_s[0] - median(&obs_s[1..]);
        }
        d.signatures += jit_signatures(&exec.jits);
        d.transfer_bytes += ctx.trace().transfer_bytes();
        d.segments += ctx.trace().segments.len();
        traces.push(ctx.into_trace());
        if rank == 0 {
            d.rank0 = [ws.obs.signal, ws.zmap, ws.amp_out];
        }
    }
    d.comm_seconds = if cfg.nodes.is_some() {
        0.0
    } else {
        (cfg.problem.n_obs as f64 + 1.0) * collective_solo
    };

    let node_cfg = NodeConfig {
        calib,
        gpus: cfg.gpus,
        mps: cfg.mps,
        schedule: cfg.schedule,
        overlap_transfers: cfg.overlap_transfers,
    };
    let span = tr.open("engine.replay", op, Some(parent));
    let wall = match cfg.nodes {
        None => simulate_node_traced(&traces, &node_cfg).map(|(r, _)| r.wall_seconds),
        Some(n) => {
            let node_traces: Vec<_> = (0..n.max(1)).map(|_| traces.clone()).collect();
            simulate_cluster_traced(&node_traces, &node_cfg).map(|(r, _)| r.wall_seconds)
        }
    };
    d.replay_s = tr.close(span);
    d.node_wall = wall.map_err(|e| e.to_string())?;
    Ok(d)
}

/// Cross-style numerics of one shape: omp and jax rank-0 outputs
/// reproduce cpu's within the tolerances the repository's
/// cross-implementation tests use.
fn check_numerics(shape: usize, outputs: &[Option<[Vec<f64>; 3]>; 3]) -> Result<(), String> {
    const TOLERANCES: [(&str, f64); 3] = [("signal", 1e-10), ("zmap", 1e-9), ("amp_out", 1e-9)];
    let missing = |style: usize| format!("shape {shape}: no {} decomposition", STYLE_NAMES[style]);
    let cpu = outputs[0].as_ref().ok_or_else(|| missing(0))?;
    for (style, other) in outputs.iter().enumerate().skip(1) {
        let other = other.as_ref().ok_or_else(|| missing(style))?;
        for ((name, tol), (a, b)) in TOLERANCES.iter().zip(cpu.iter().zip(other)) {
            if a.len() != b.len() {
                return Err(format!("{} {name}: length differs", STYLE_NAMES[style]));
            }
            if let Some(i) = (0..a.len()).find(|&i| (a[i] - b[i]).abs() > tol * a[i].abs().max(1.0))
            {
                return Err(format!(
                    "shape {shape} {} {name}[{i}]: {} vs cpu {}",
                    STYLE_NAMES[style], b[i], a[i]
                ));
            }
        }
    }
    Ok(())
}

/// The traced run: each op decomposed into its layers and run once more
/// through `run_config` untraced, alternating which goes first so that
/// neither always finds the caches warm; the two must agree to the bit.
pub fn trace(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let prep = match setup(seed) {
        Ok(p) => p,
        Err(e) => return Outcome::setup_failed("live", e),
    };
    let mut outcome = Outcome {
        digest: prep.digest,
        ..Outcome::default()
    };
    // Each traced op runs twice (decomposed and untraced). Two blocks at
    // least, so every style meets every shape for the numerics check.
    let sched = schedule(op_count(seconds / 2.0).max(2 * BLOCK.len()));
    let mut per_style: [Vec<f64>; 3] = Default::default();
    let (mut satsim, mut replay, mut unattributed, mut coverage) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut decomposed_s, mut untraced_s, mut first_obs) = (Vec::new(), Vec::new(), Vec::new());
    let first_span = tr.spans.len();
    let (mut transfer_bytes, mut signatures) = (0.0, 0usize);
    let mut segments = [0usize; 3];
    let mut seen = BTreeMap::new();
    let mut rank0: Vec<[Option<[Vec<f64>; 3]>; 3]> =
        SHAPES.iter().map(|_| Default::default()).collect();
    for (op, &(style, shape)) in sched.iter().enumerate() {
        let cfg = &prep.cfgs[shape][style];
        let untraced = |tr: &mut Tracer| {
            let t0 = Instant::now();
            let out = run_config(cfg);
            let t1 = Instant::now();
            tr.record("runner.run_config", op, None, t0, t1);
            (out, (t1 - t0).as_secs_f64())
        };
        let early = (op % 2 == 1).then(|| untraced(tr));
        let op_span = tr.open("live.op", op, None);
        let dec = decompose(cfg, style, tr, op, op_span);
        let op_s = tr.close(op_span);
        let (out, plain_s) = early.unwrap_or_else(|| untraced(tr));

        let result = dec.and_then(|d| {
            check_op(cfg, &out, (style, shape), &mut seen)?;
            let out = out.as_ref().map_err(|e| e.to_string())?;
            let wall = out.node_wall.as_ref().map_err(|e| e.clone())?;
            if d.node_wall.to_bits() != wall.to_bits()
                || d.comm_seconds.to_bits() != out.comm_seconds.to_bits()
            {
                return Err(format!(
                    "{} p{}: decomposed makespan {:e}+{:e} differs from run_config {:e}+{:e}",
                    STYLE_NAMES[style],
                    cfg.procs_per_node,
                    d.node_wall,
                    d.comm_seconds,
                    wall,
                    out.comm_seconds
                ));
            }
            Ok(d)
        });
        let mut d = match result {
            Ok(d) => d,
            Err(e) => {
                outcome.check(Err(e));
                continue;
            }
        };
        outcome.check(Ok(()));
        let layers = d.satsim_s + d.pipeline_s + d.replay_s;
        per_style[style].push(d.pipeline_s);
        satsim.push(d.satsim_s);
        replay.push(d.replay_s);
        unattributed.push(plain_s - layers);
        coverage.push(layers / op_s);
        decomposed_s.push(op_s);
        untraced_s.push(plain_s);
        if STYLES[style] == ImplKind::Jit {
            first_obs.push(d.first_obs_excess_s);
            signatures += d.signatures;
        }
        transfer_bytes += d.transfer_bytes;
        segments[style] += d.segments;
        rank0[shape][style].get_or_insert_with(|| std::mem::take(&mut d.rank0));
    }
    // Spans recorded per op, each costing one open/close pair.
    let spans_per_op = (tr.spans.len() - first_span) as f64 / sched.len() as f64;
    let overhead_s = spans_per_op * Tracer::span_cost();
    for (shape, outputs) in rank0.iter().enumerate() {
        outcome.check(check_numerics(shape, outputs));
    }

    let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    let m = &mut outcome.metrics;
    m.put("satsim.workspace_s", med(&satsim), "s");
    for (style, name) in STYLE_NAMES.iter().enumerate() {
        m.put(
            format!("core.pipeline_s.{name}"),
            med(&per_style[style]),
            "s",
        );
    }
    m.put("arrayjit.first_obs_s", med(&first_obs), "s");
    m.put("arrayjit.compiled_signatures", signatures as f64, "count");
    m.put("offload.transfer_bytes", transfer_bytes, "B");
    for (style, name) in STYLE_NAMES.iter().enumerate() {
        m.put(
            format!("accel.segments.{name}"),
            segments[style] as f64,
            "count",
        );
    }
    m.put("engine.replay_s", med(&replay), "s");
    // A difference of two ~50 ms runs for ~1 ms of glue: the median over
    // every op, with its spread beside it to show the noise floor.
    m.put("runner.unattributed_s", med(&unattributed), "s");
    let iqr = if unattributed.len() < 2 {
        f64::NAN
    } else {
        quantile(&unattributed, 0.75) - quantile(&unattributed, 0.25)
    };
    m.put("runner.unattributed_iqr_s", iqr, "s");
    m.put("live.trace_coverage", med(&coverage), "ratio");
    m.put("live.op_decomposed_s", med(&decomposed_s), "s");
    m.put("live.op_untraced_s", med(&untraced_s), "s");
    m.put("live.trace_overhead_s", overhead_s, "s");
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::quantile_class;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let (a, da) = generate(11);
        let (b, db) = generate(11);
        assert_eq!(a, b);
        assert_eq!(da, db);
        let (c, dc) = generate(12);
        assert_ne!(a, c);
        assert_ne!(da, dc);
    }

    #[test]
    fn schedule_puts_p50_in_native_and_p90_in_jax() {
        for seconds in [10.0, 20.0, 30.0, 40.0] {
            let sched = schedule(op_count(seconds));
            let jax = sched.iter().filter(|(s, _)| *s == 2).count();
            let native = sched.len() - jax;
            // Classes from cheapest: native (cpu and omp overlap), jax.
            let margin = sched.len() / 10;
            assert_eq!(quantile_class(&[native, jax], 0.5, margin), Ok(0));
            assert_eq!(quantile_class(&[native, jax], 0.9, margin / 2), Ok(1));
        }
    }

    #[test]
    fn schedule_covers_every_style_and_shape() {
        // The traced run's minimum of two blocks, and a full run.
        for ops in [2 * BLOCK.len(), op_count(20.0)] {
            let sched = schedule(ops);
            for style in 0..STYLES.len() {
                for shape in 0..SHAPES.len() {
                    assert!(sched.contains(&(style, shape)), "({style}, {shape})");
                }
            }
        }
    }

    #[test]
    fn decomposition_reproduces_run_config_bit_for_bit() {
        let (scenarios, _) = generate(3);
        for (style, shape) in [(0, 0), (1, 3), (2, 1)] {
            let mut s = scenarios[shape][style].clone();
            s.problem.n_det_total = Some(16);
            let cfg = RunConfig::from_scenario(&s).expect("valid scenario");
            let mut tr = Tracer::default();
            let span = tr.open("live.op", 0, None);
            let d = decompose(&cfg, style, &mut tr, 0, span).expect("decomposes");
            let out = run_config(&cfg).expect("runs");
            let wall = *out.node_wall.as_ref().expect("fits");
            assert_eq!(d.node_wall.to_bits(), wall.to_bits(), "{}", s.name);
            assert_eq!(d.comm_seconds.to_bits(), out.comm_seconds.to_bits());
        }
    }
}
