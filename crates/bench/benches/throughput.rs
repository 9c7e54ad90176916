//! Throughput bench: wall-clock rates of the discrete-event engine and of
//! the what-if sweep, on one synthetic workload, and of whole live runs.
//!
//! Every row has the schema `{layer, case, unit, work, iters, seconds,
//! value}`: `work` is the work one iteration does, in code-independent
//! units (a whole number except for the codec rows' megabytes), and
//! `value = work × iters / seconds`. A faster engine does the
//! same work in less wall time; it cannot inflate its score by redefining
//! the unit.
//! - `engine` rows replay 1, 8 and 64 nodes of 8 ranks on 4 GPUs under
//!   MPS, without and with overlapped transfer streams; one unit of work
//!   is one recorded [`Segment`] replayed (segments/s). These nodes are
//!   one node shared by reference, as `runner::replay` passes its copies,
//!   which the engine replays once, so past one node they measure that
//!   collapse. `nodes=1 gpus=1` puts the 8 ranks on one GPU, where every
//!   kernel start or end re-rates each co-tenant; `ranks=64` replays one
//!   node of 64 ranks, the widest event tables. The `nodes=64 distinct`
//!   row perturbs every node's
//!   host charges, so each node is replayed and the row tracks the event
//!   loop's per-segment rate. The `nodes=64 compile+cost table` row
//!   times the copied 64-node job's compile and one cost table without
//!   its event loop (a one-point sweep whose zero deadline prunes the
//!   point), so it and `nodes=64 overlap=off` split that row's time.
//! - `sweep` rows evaluate one 120-point what-if grid over a 4-node
//!   recording (points/s). `batched` is `accel_sim::sweep::sweep`, which
//!   compiles the recording once and prices each calibration once.
//!   `naive` is what a script looping `whatif --replay` pays per point:
//!   parse the JSONL recording, compile, price and replay.
//! - `codec` rows read and write one fixed synthetic recording (4 nodes
//!   of 8 ranks, 250 segments per rank) through the JSONL workload format:
//!   `parse recording` is `RecordedWorkload::parse_jsonl`, `write
//!   recording` is `RecordedWorkload::to_jsonl`; one unit of work is the
//!   recording's size in MB (MB/s).
//! - `live` rows run one configuration end to end through `run_config`,
//!   one row per style (`cpu`, `omp`, `jax`), at Fig. 6's cell: medium
//!   problem, scale 1e-3, 16 processes. One unit of work is one run
//!   (runs/s). Satsim, the kernels in each style and arrayjit do nearly
//!   all of this work; the engine replay is a small share.
//!
//! Before anything is timed, the batched grid's identity point must equal
//! `replay_identity` down to the last bit. If it does not, the bench exits
//! non-zero and writes nothing.
//!
//! Flags (after `cargo bench -p repro-bench --bench throughput --`):
//! - `--smoke`: smaller workloads and a 50 ms budget per row (same grid;
//!   the live cell shrunk to 64 detectors and 2 observations), so CI
//!   checks the harness and the file shape in seconds;
//! - `--out <path>`: where to write the rows (default
//!   `BENCH_throughput.json` at the workspace root);
//! - `--baseline <file>`: an earlier `BENCH_throughput.json`; every row
//!   whose `(layer, case)` it holds gains `baseline` (its value) and
//!   `ratio` (value / baseline).
//!
//! `cargo bench` runs the target from `crates/bench`, so relative paths
//! resolve there.

use std::error::Error;
use std::fmt::{self, Display, Write as _};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use accel_sim::json::{self, as_f64, Esc, Fields, JsonError, Node, Num};
use accel_sim::sweep::{sweep, SweepCalib, SweepSpec};
use accel_sim::whatif::presets;
use accel_sim::{
    simulate_cluster, KernelProfile, NodeConfig, RankTrace, RecordMeta, RecordedWorkload,
    SchedulePolicyKind, Segment, TransferDir,
};
use repro_bench::{run_config, RunConfig};
use scenario::{ImplKind, ProblemSize, Scenario};

/// `(layer, unit)` of each kind of row.
const ENGINE: (&str, &str) = ("engine", "segments/s");
const SWEEP: (&str, &str) = ("sweep", "points/s");
const CODEC: (&str, &str) = ("codec", "MB/s");
const LIVE: (&str, &str) = ("live", "runs/s");
const RANKS_PER_NODE: usize = 8;
const SWEEP_NODES: usize = 4;
/// Segments per rank of the codec rows' recording, in both modes.
const CODEC_SEGMENTS: usize = 250;
const USAGE: &str = "usage: throughput [--smoke] [--out <path>] [--baseline <file>]";

struct Opts {
    smoke: bool,
    out: String,
    baseline: Option<String>,
}

/// `--bench` is what `cargo bench` adds on its own; anything else that is
/// not one of the three flags is a usage error.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        smoke: false,
        out: concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json").into(),
        baseline: None,
    };
    while let Some(arg) = args.next() {
        // `cargo bench` appends `--bench`, so a flag's value is never a flag.
        let mut value = || {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or(format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--bench" => {}
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = value()?,
            "--baseline" => opts.baseline = Some(value()?),
            _ => return Err(format!("unknown argument '{arg}'")),
        }
    }
    Ok(opts)
}

/// One node's rank traces: host work, kernels of varying occupancy,
/// transfers both ways and a collective every 13 segments, skewed per
/// rank (cycling every 8 ranks, each cycle a little slower) so contention
/// is asymmetric. Host charges scale by `1 + 1e-3 · node`, so nodes with
/// different indices differ.
fn synth_node(ranks: usize, segments_per_rank: usize, node: usize) -> Vec<RankTrace> {
    let host = 1.0 + 1e-3 * node as f64;
    (0..ranks)
        .map(|r| {
            let cycle = (r / RANKS_PER_NODE) as f64;
            let f = 1.0 + 0.2 * (r % RANKS_PER_NODE) as f64 + 1e-3 * cycle;
            let mut segs = Vec::with_capacity(segments_per_rank);
            let mut i = 0usize;
            while segs.len() < segments_per_rank {
                segs.push(match i % 5 {
                    0 => Segment::Host {
                        seconds: 2e-4 * f * host,
                        label: "h".into(),
                    },
                    1 => Segment::Transfer {
                        bytes: 4e6 * f,
                        dir: TransferDir::HostToDevice,
                        label: "accel_data_update_device".into(),
                    },
                    2 => Segment::Kernel {
                        profile: KernelProfile::uniform("k_big", 2e7, 40.0 * f, 8.0),
                        dispatch: 1e-5,
                    },
                    3 => Segment::Kernel {
                        profile: KernelProfile::uniform("k_small", 2e4, 100.0, 16.0),
                        dispatch: 1e-5,
                    },
                    _ => Segment::Transfer {
                        bytes: 2e6 * f,
                        dir: TransferDir::DeviceToHost,
                        label: "accel_data_update_host".into(),
                    },
                });
                i += 1;
                if i.is_multiple_of(13) && segs.len() < segments_per_rank {
                    segs.push(Segment::Collective {
                        seconds: 5e-4,
                        bytes: 1e6,
                        label: "mpi_allreduce".into(),
                    });
                }
            }
            RankTrace {
                segments: segs,
                ..RankTrace::default()
            }
        })
        .collect()
}

/// The 120-point grid: identity and every preset, four GPU counts, every
/// schedule policy.
fn bench_grid(meta: &RecordMeta) -> Result<SweepSpec, Box<dyn Error>> {
    let mut calibs = vec![SweepCalib::resolve("identity", meta)?];
    for p in presets() {
        calibs.push(SweepCalib::resolve(p.name, meta)?);
    }
    Ok(SweepSpec {
        calibs,
        gpus: vec![1, 2, 4, 8],
        schedules: vec![
            SchedulePolicyKind::Auto,
            SchedulePolicyKind::MpsFluid,
            SchedulePolicyKind::TimeSliced,
            SchedulePolicyKind::Fifo,
            SchedulePolicyKind::Priority,
        ],
        deadline: None,
    })
}

struct Row {
    layer: &'static str,
    case: String,
    unit: &'static str,
    work: f64,
    iters: u64,
    seconds: f64,
    value: f64,
    baseline: Option<f64>,
}

/// Run `step` once untimed (its error, if any, stops the bench), then
/// repeatedly until `budget` closes, at least once.
fn measure<T, E: Display>(
    (layer, unit): (&'static str, &'static str),
    case: impl Into<String>,
    work: f64,
    budget: Duration,
    mut step: impl FnMut() -> Result<T, E>,
) -> Result<Row, String> {
    let case = case.into();
    step().map_err(|e| format!("{layer}/{case}: {e}"))?;
    let start = Instant::now();
    let mut iters = 0u64;
    while iters == 0 || start.elapsed() < budget {
        let _ = black_box(step());
        iters += 1;
    }
    let seconds = start.elapsed().as_secs_f64();
    let value = work * iters as f64 / seconds;
    println!("{layer}/{case}: {iters} iters, {seconds:.3}s, {value:.3e} {unit}");
    Ok(Row {
        layer,
        case,
        unit,
        work,
        iters,
        seconds,
        value,
        baseline: None,
    })
}

/// The batched identity point (recorded gpus and schedule) must equal
/// `replay_identity` bit for bit.
fn check_identity(workload: &RecordedWorkload, spec: &SweepSpec) -> Result<(), Box<dyn Error>> {
    let meta = &workload.meta;
    let batched = sweep(workload, spec)?
        .points
        .iter()
        .find(|p| p.calib == "identity" && p.gpus == meta.gpus && p.schedule == meta.schedule)
        .and_then(|p| p.makespan);
    let oracle = workload.replay_identity()?.cluster.wall_seconds;
    if batched.map(f64::to_bits) != Some(oracle.to_bits()) {
        return Err(format!(
            "batched identity point {batched:?} differs from replay_identity {oracle:?}"
        )
        .into());
    }
    Ok(())
}

fn run_benches(smoke: bool) -> Result<Vec<Row>, Box<dyn Error>> {
    let (engine_segments, sweep_segments, budget) = if smoke {
        (30, 12, Duration::from_millis(50))
    } else {
        (120, 60, Duration::from_millis(1500))
    };
    let meta = RecordMeta {
        label: "sweep bench".into(),
        total_ranks: (SWEEP_NODES * RANKS_PER_NODE) as u32,
        ..RecordMeta::default()
    };
    let workload = RecordedWorkload::capture(
        vec![synth_node(RANKS_PER_NODE, sweep_segments, 0); SWEEP_NODES],
        meta,
    );
    let spec = bench_grid(&workload.meta)?;
    check_identity(&workload, &spec)?;

    let mut rows = Vec::new();
    let node = synth_node(RANKS_PER_NODE, engine_segments, 0);
    for nodes in [1usize, 8, 64] {
        let traces = vec![node.as_slice(); nodes];
        for overlap in [false, true] {
            let cfg = NodeConfig {
                overlap_transfers: overlap,
                ..NodeConfig::default()
            };
            let overlap = if overlap { "on" } else { "off" };
            let case = format!("nodes={nodes} overlap={overlap}");
            let work = (nodes * RANKS_PER_NODE * engine_segments) as f64;
            rows.push(measure(ENGINE, case, work, budget, || {
                simulate_cluster(&traces, &cfg)
            })?);
        }
    }
    let one_gpu = NodeConfig {
        gpus: 1,
        ..NodeConfig::default()
    };
    let work = (RANKS_PER_NODE * engine_segments) as f64;
    rows.push(measure(
        ENGINE,
        "nodes=1 gpus=1 overlap=off",
        work,
        budget,
        || simulate_cluster(&[node.as_slice()], &one_gpu),
    )?);
    let wide = [synth_node(64, engine_segments, 0)];
    let work = (64 * engine_segments) as f64;
    rows.push(measure(
        ENGINE,
        "ranks=64 overlap=off",
        work,
        budget,
        || simulate_cluster(&wide, &NodeConfig::default()),
    )?);
    // One node shared by every copy, as a parsed recording stores it.
    let shared: Arc<[RankTrace]> = Arc::from(node.as_slice());
    let copied = RecordedWorkload {
        meta: RecordMeta::default(),
        nodes: vec![shared; 64],
    };
    let priced_only = SweepSpec {
        calibs: vec![SweepCalib::resolve("identity", &copied.meta)?],
        gpus: vec![copied.meta.gpus],
        schedules: vec![copied.meta.schedule],
        deadline: Some(0.0),
    };
    let work = (copied.nodes.len() * RANKS_PER_NODE * engine_segments) as f64;
    rows.push(measure(
        ENGINE,
        "nodes=64 compile+cost table",
        work,
        budget,
        || {
            let res = sweep(&copied, &priced_only).map_err(|e| e.to_string())?;
            match res.pruned {
                1 => Ok(res),
                _ => Err("the zero-deadline point reached the event loop".to_string()),
            }
        },
    )?);
    let distinct: Vec<Vec<RankTrace>> = (0..64)
        .map(|n| synth_node(RANKS_PER_NODE, engine_segments, n))
        .collect();
    let work = (distinct.len() * RANKS_PER_NODE * engine_segments) as f64;
    let case = "nodes=64 distinct overlap=off";
    rows.push(measure(ENGINE, case, work, budget, || {
        simulate_cluster(&distinct, &NodeConfig::default())
    })?);

    let points = spec.point_count() as f64;
    rows.push(measure(SWEEP, "batched", points, budget, || {
        sweep(&workload, &spec)
    })?);
    let jsonl = workload.to_jsonl();
    let naive = || {
        for calib in &spec.calibs {
            for &gpus in &spec.gpus {
                for &schedule in &spec.schedules {
                    let mut w = RecordedWorkload::parse_jsonl(&jsonl)?;
                    w.meta.schedule = schedule;
                    black_box(w.replay(&calib.node, &calib.net, Some(gpus))?);
                }
            }
        }
        Ok::<_, Box<dyn Error>>(())
    };
    rows.push(measure(SWEEP, "naive", points, budget, naive)?);

    let codec = RecordedWorkload::capture(
        vec![synth_node(RANKS_PER_NODE, CODEC_SEGMENTS, 0); SWEEP_NODES],
        RecordMeta {
            label: "codec bench".into(),
            total_ranks: (SWEEP_NODES * RANKS_PER_NODE) as u32,
            ..RecordMeta::default()
        },
    );
    let text = codec.to_jsonl();
    let mb = text.len() as f64 / 1e6;
    rows.push(measure(CODEC, "parse recording", mb, budget, || {
        RecordedWorkload::parse_jsonl(&text)
    })?);
    rows.push(measure(CODEC, "write recording", mb, budget, || {
        Ok::<_, String>(codec.to_jsonl())
    })?);

    for (case, kind) in [
        ("cpu", ImplKind::Cpu),
        ("omp", ImplKind::OmpTarget),
        ("jax", ImplKind::Jit),
    ] {
        let cfg = RunConfig::from_scenario(&live_cell(kind, smoke))?;
        rows.push(measure(LIVE, case, 1.0, budget, || {
            run_config(&cfg).map_err(|e| e.to_string())?.node_wall
        })?);
    }
    Ok(rows)
}

/// Fig. 6's cell in one style; in smoke mode shrunk to the `live`
/// benchmark workload's shape (64 detectors, 2 observations).
fn live_cell(kind: ImplKind, smoke: bool) -> Scenario {
    let mut s = Scenario::new("throughput live", ProblemSize::Medium, 1e-3)
        .with_kind(kind)
        .with_procs(16);
    if smoke {
        s.problem.n_det_total = Some(64);
        s.problem.n_obs = Some(2);
        s.problem.total_samples = Some(5e9 / 128.0);
    }
    s
}

/// `(layer, case, value)` of every row of an earlier bench file, read
/// strictly: any malformed line or unknown key is an error naming it.
fn read_baseline(text: &str) -> Result<Vec<(String, String, f64)>, JsonError> {
    let mut top = Fields::of(json::parse_line(text, 1)?, "bench file", 1)?;
    top.str("mode")?;
    let (rows, line) = top.require("rows")?;
    top.finish()?;
    let Node::Arr(rows) = rows else {
        return Err(JsonError::Malformed {
            line,
            msg: "field 'rows' must be an array".into(),
        });
    };
    rows.into_iter()
        .map(|row| {
            let line = match &row {
                Node::Obj(members) => members.first().map_or(line, |m| m.2),
                _ => line,
            };
            let mut f = Fields::of(row, "row", line)?;
            let key = (f.str("layer")?, f.str("case")?);
            f.str("unit")?;
            f.f64("work")?;
            f.int::<u64>("iters")?;
            f.f64("seconds")?;
            let value = f.f64("value")?;
            f.opt("baseline", as_f64)?;
            f.opt("ratio", as_f64)?;
            f.finish()?;
            if value <= 0.0 {
                return Err(JsonError::Malformed {
                    line,
                    msg: "field 'value' must be positive".into(),
                });
            }
            Ok((key.0, key.1, value))
        })
        .collect()
}

fn to_json(smoke: bool, rows: &[Row]) -> String {
    json::write_string(|out| write_json(smoke, rows, out))
}

fn write_json(smoke: bool, rows: &[Row], out: &mut String) -> fmt::Result {
    let mode = if smoke { "smoke" } else { "full" };
    write!(out, "{{\n  \"mode\": \"{mode}\",\n  \"rows\": [\n")?;
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.write_str(",\n")?;
        }
        write!(
            out,
            "    {{\"layer\":\"{}\",\"case\":\"{}\",\"unit\":\"{}\",\"work\":{},\"iters\":{},\"seconds\":{},\"value\":{}",
            r.layer,
            Esc(&r.case),
            r.unit,
            r.work,
            r.iters,
            Num(r.seconds),
            Num(r.value),
        )?;
        if let Some(b) = r.baseline {
            write!(
                out,
                ",\"baseline\":{},\"ratio\":{}",
                Num(b),
                Num(r.value / b)
            )?;
        }
        out.write_char('}')?;
    }
    out.write_str("\n  ]\n}\n")
}

fn run(opts: &Opts) -> Result<(), String> {
    let baseline = match &opts.baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            read_baseline(&text).map_err(|e| format!("{path}:{}: {e}", e.line()))?
        }
        None => Vec::new(),
    };
    let mut rows = run_benches(opts.smoke).map_err(|e| e.to_string())?;
    for row in &mut rows {
        row.baseline = baseline
            .iter()
            .find(|(layer, case, _)| layer == row.layer && *case == row.case)
            .map(|b| b.2);
    }
    std::fs::write(&opts.out, to_json(opts.smoke, &rows))
        .map_err(|e| format!("{}: {e}", opts.out))?;
    println!("wrote {}", opts.out);
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("throughput: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("throughput: {msg}");
            ExitCode::FAILURE
        }
    }
}
