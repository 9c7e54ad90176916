//! What-if repricing: record a benchmark run's charges, then replay them
//! under a different hardware calibration without re-running any kernel
//! numerics.
//!
//! Record (runs the benchmark once, writes the workload JSONL):
//!
//! ```text
//! whatif --record <path> [--scenario <file>] [--size medium|large]
//!        [--impl cpu|jax|omp|jaxcpu] [--procs <n>] [--scale <f>]
//!        [--nodes <n>] [--schedule <policy>] [--no-mps] [--dump-scenario]
//! ```
//!
//! The run is described by a [`Scenario`] (defaults:
//! `scenarios/whatif_record.json`'s values); the originating scenario is
//! embedded in the recording's metadata, so a replay knows exactly which
//! configuration produced the charges.
//!
//! Replay (no benchmark run — only the recorded charges are re-priced):
//!
//! ```text
//! whatif --replay <path> [--calib <preset>] [--gpus <n>]
//! ```
//!
//! `--calib identity` (the default) replays under the recorded
//! calibration; the resulting makespan must reproduce the live run's
//! exactly — the differential oracle, printed as a `delta 0.000000000`
//! line that `ci.sh` greps. Named presets (`a100`, `h100`, `a100-nvlink`,
//! `h100-nvlink`, `slingshot11`) answer the paper-motivated questions:
//! would JAX still trail OpenMP on H100-class FP64, or with NVLink
//! instead of PCIe? The report shows per-kernel original-vs-repriced
//! deltas and the makespan shift.
//!
//! Sweep (compile once, reprice many — batched Pareto search):
//!
//! ```text
//! whatif sweep --record <path> [--grid gpus=2..8;calib=identity,h100;schedule=mps,fifo]
//!              [--gpus 2..8] [--calib a100,h100] [--schedule mps,fifo]
//!              [--deadline <seconds>] [--out <jsonl>] [--dump-scenarios]
//!              [--preflight]
//! ```
//!
//! One workload compile serves the whole grid; each point only
//! materializes a per-calibration cost vector before replay. Points whose
//! analytic lower bound already exceeds `--deadline` are pruned without a
//! replay. Points whose event loops cannot differ share one, and the
//! summary line counts the loops run. The report ranks evaluated points
//! by makespan, marks the Pareto front over (makespan, hardware-cost
//! proxy) and names the cheapest point that meets the deadline. Passing
//! a comma list or `..` range to `--replay`'s `--calib`/`--gpus` routes
//! to the same sweep.
//! `--dump-scenarios` prints the grid as one scenario per line (compact
//! JSON, derived from the recording's embedded scenario) instead of
//! replaying anything. `--preflight` runs the static analyzer's exact
//! OOM/deadlock predictors on each point first and skips the replay of
//! statically-rejected points; the output (including `--out` JSONL) is
//! bit-identical to the unpruned sweep because the predicted errors are
//! the very errors the replays would have produced.

use std::path::Path;
use std::process::exit;

use repro_bench::args::{bail, fail};
use repro_bench::report::{fmt_ratio, Table};
use repro_bench::{arg_value, has_flag, record_run, scenario_from_args, RunConfig};

use accel_sim::sweep::{parse_calibs, parse_gpus, parse_schedules, SweepResult, SweepSpec};
use accel_sim::whatif::{
    preset, presets, CompiledRecording, RecordMeta, RecordedWorkload, Replayed,
};
use accel_sim::{EngineError, NetCalib, NodeCalib};
use scenario::{ImplKind, ProblemSize, Scenario};

fn main() {
    if std::env::args().nth(1).as_deref() == Some("sweep") {
        let path = arg_value("--record").or_else(|| arg_value("--replay"));
        let Some(path) = path else {
            eprintln!(
                "usage: whatif sweep --record <workload.jsonl> [--grid ...] [--deadline <s>] [--preflight]"
            );
            exit(2);
        };
        sweep_cmd(&path);
        return;
    }
    if let Some(path) = arg_value("--replay") {
        replay(&path);
        return;
    }
    if arg_value("--record").is_some() || arg_value("--scenario").is_some() {
        record();
        return;
    }
    eprintln!(
        "usage: whatif --record <path> | --replay <path> [--calib <preset>] | whatif sweep --record <path>"
    );
    eprintln!("presets:");
    eprintln!("  identity — the recorded calibration (differential oracle)");
    for p in presets() {
        eprintln!("  {} — {}", p.name, p.about);
    }
    exit(2);
}

fn record() {
    let s = scenario_from_args(
        Scenario::new("whatif_record", ProblemSize::Medium, 1e-3).with_kind(ImplKind::OmpTarget),
    );
    let Some(path) = s.output.record_out.clone() else {
        bail("recording needs an output path (--record <path> or output.record_out)")
    };
    let cfg = RunConfig::from_scenario(&s).unwrap_or_else(|e| bail(e));
    let size = match s.problem.size {
        ProblemSize::Medium => "medium",
        ProblemSize::Large => "large",
    };
    let label = format!(
        "{size} {} x{} scale {} nodes {} schedule {} mps {}",
        s.kind,
        s.procs_per_node,
        s.problem.scale,
        cfg.nodes.map_or("-".into(), |n| n.to_string()),
        cfg.schedule,
        cfg.mps,
    );

    println!("recording: {label}");
    let (_out, workload) = record_run(&cfg, &label, Some(&s)).unwrap_or_else(|e| fail(e));
    if let Err(e) = workload.write(Path::new(&path)) {
        fail(format!("cannot write {path}: {e}"))
    }
    let segments: usize = workload
        .nodes
        .iter()
        .flat_map(|n| n.iter())
        .map(|t| t.segments.len())
        .sum();
    println!(
        "wrote {path}: {} node(s) x {} rank(s), {segments} segments, live makespan {:?} s",
        workload.nodes.len(),
        workload.nodes.first().map_or(0, |n| n.len()),
        workload.meta.live_wall_seconds,
    );
}

fn replay(path: &str) {
    // A comma list or `..` range on either axis means the user asked a
    // sweep question; route it to the batched path.
    let multi = |v: &Option<String>| {
        v.as_deref()
            .is_some_and(|s| s.contains(',') || s.contains(".."))
    };
    if multi(&arg_value("--calib")) || multi(&arg_value("--gpus")) {
        sweep_cmd(path);
        return;
    }
    let workload = RecordedWorkload::read(Path::new(path)).unwrap_or_else(|e| fail(e));
    let gpus: Option<u32> = arg_value("--gpus").map(|v| {
        v.parse()
            .ok()
            .filter(|&g| g > 0)
            .unwrap_or_else(|| bail(format!("--gpus expects a positive integer, got '{v}'")))
    });
    let calib_name = arg_value("--calib").unwrap_or_else(|| "identity".into());
    println!(
        "replaying {path} [{}] under calib '{calib_name}'",
        workload.meta.label
    );

    // One compile serves both replays. The differential oracle always
    // runs: under the recorded calibration the engine must reproduce the
    // live makespan bit for bit.
    let compiled = workload
        .compile_for_replay()
        .unwrap_or_else(|e| replay_failed(e));
    let identity = run_replay(
        &compiled,
        &workload.meta.node_calib,
        &workload.meta.net_calib,
        None,
    );
    println!(
        "identity check: recorded makespan {:?} s, replayed {:?} s, delta {:.9}",
        workload.meta.live_wall_seconds,
        identity.cluster.wall_seconds,
        identity.cluster.wall_seconds - workload.meta.live_wall_seconds,
    );

    let (node, net) = if calib_name == "identity" {
        (workload.meta.node_calib, workload.meta.net_calib)
    } else {
        let p = preset(&calib_name).unwrap_or_else(|e| bail(e));
        // Presets are defined at paper scale; the recording ran with its
        // latencies and capacities scaled alongside the data.
        (p.node.rescaled(workload.meta.work_scale), p.net)
    };
    let repriced = run_replay(&compiled, &node, &net, gpus);

    let mut table = Table::new("label calls orig_s new_s delta_s ratio");
    for (label, new) in &repriced.per_label {
        let orig = identity.per_label.get(label).copied().unwrap_or_default();
        table.row(vec![
            label.clone(),
            new.calls.to_string(),
            format!("{:.6}", orig.seconds),
            format!("{:.6}", new.seconds),
            format!("{:+.6}", new.seconds - orig.seconds),
            if orig.seconds > 0.0 {
                fmt_ratio(orig.seconds / new.seconds)
            } else {
                "-".into()
            },
        ]);
    }
    println!("\nper-label solo estimates — original vs '{calib_name}'");
    println!("{}", table.render());

    let orig_wall = identity.cluster.wall_seconds;
    let new_wall = repriced.cluster.wall_seconds;
    println!(
        "makespan: original {orig_wall:?} s, repriced {new_wall:?} s, delta {:.9}",
        new_wall - orig_wall
    );
    if (new_wall - orig_wall).abs() > f64::EPSILON * orig_wall {
        let shift = if new_wall < orig_wall {
            format!("{} faster", fmt_ratio(orig_wall / new_wall))
        } else {
            format!("{} slower", fmt_ratio(new_wall / orig_wall))
        };
        println!("under '{calib_name}' this configuration finishes {shift}");
    }
}

fn run_replay(
    compiled: &CompiledRecording,
    node: &NodeCalib,
    net: &NetCalib,
    gpus: Option<u32>,
) -> Replayed {
    compiled
        .replay(node, net, gpus)
        .unwrap_or_else(|e| replay_failed(e))
}

fn replay_failed(e: EngineError) -> ! {
    eprintln!("replay does not fit: {e}");
    exit(1);
}

/// The scenario a recording originated from: the embedded one when the
/// recording carries it, otherwise a reconstruction from the metadata
/// fields (pre-scenario recordings).
fn base_scenario(meta: &RecordMeta) -> Scenario {
    if let Some(text) = &meta.scenario {
        match Scenario::parse(text) {
            Ok(s) => return s,
            Err(e) => eprintln!("warning: embedded scenario unreadable ({e}); reconstructing"),
        }
    }
    let mut s = Scenario::new(&meta.label, ProblemSize::Medium, meta.work_scale);
    s.gpus = meta.gpus;
    s.mps = meta.mps;
    s.schedule = meta.schedule;
    s.overlap_transfers = meta.overlap_transfers;
    s
}

fn sweep_cmd(path: &str) {
    let workload = RecordedWorkload::read(Path::new(path)).unwrap_or_else(|e| fail(e));
    let meta = &workload.meta;

    let mut spec = match arg_value("--grid") {
        Some(grid) => SweepSpec::parse_grid(&grid, meta),
        None => Ok(SweepSpec::default_grid(meta)),
    }
    .unwrap_or_else(|e| bail(e));
    // Individual axis flags override the grid string (and are the short
    // form for small sweeps: `--calib a100,h100 --gpus 2..8`).
    if let Some(v) = arg_value("--gpus") {
        spec.gpus = parse_gpus(&v).unwrap_or_else(|e| bail(e));
    }
    if let Some(v) = arg_value("--calib") {
        spec.calibs = parse_calibs(&v, meta).unwrap_or_else(|e| bail(e));
    }
    if let Some(v) = arg_value("--schedule") {
        spec.schedules = parse_schedules(&v).unwrap_or_else(|e| bail(e));
    }
    spec.deadline = arg_value("--deadline").map(|v| {
        v.parse()
            .unwrap_or_else(|_| bail(format!("--deadline expects seconds, got '{v}'")))
    });

    if has_flag("--dump-scenarios") {
        // Print the grid as runnable scenarios, one compact JSON per line,
        // without replaying anything.
        let base = base_scenario(meta);
        for s in scenario::expand_sweep(&base, &spec) {
            println!("{}", s.to_json_compact());
        }
        return;
    }

    println!(
        "sweeping {path} [{}]: {} point(s) ({} calib x {} gpus x {} schedule){}",
        meta.label,
        spec.point_count(),
        spec.calibs.len(),
        spec.gpus.len(),
        spec.schedules.len(),
        spec.deadline
            .map_or(String::new(), |d| format!(", deadline {d:?} s")),
    );

    let preflight = has_flag("--preflight");
    let run = if preflight {
        accel_sim::sweep::sweep_preflight
    } else {
        accel_sim::sweep::sweep
    };
    let result = run(&workload, &spec).unwrap_or_else(|e| fail(e));
    report_sweep(&result, meta.live_wall_seconds);
    if preflight {
        println!(
            "{} point(s) rejected by preflight without a replay",
            result.rejected
        );
    }

    if let Some(out) = arg_value("--out") {
        if let Err(e) = std::fs::write(&out, result.to_jsonl()) {
            fail(format!("cannot write {out}: {e}"))
        }
        println!("wrote {out}");
    }
}

fn report_sweep(result: &SweepResult, live_wall: f64) {
    // Rank evaluated points fastest-first; pruned/errored rows follow so
    // the report stays a complete account of the grid.
    let mut order: Vec<usize> = (0..result.points.len()).collect();
    order.sort_by(|&a, &b| {
        let key = |i: usize| {
            let p = &result.points[i];
            (p.makespan.is_none(), p.makespan.unwrap_or(f64::INFINITY), i)
        };
        key(a).partial_cmp(&key(b)).expect("total order")
    });

    let mut table = Table::new("rank calib gpus schedule makespan_s cost bound_s vs_live status");
    for (rank, &i) in order.iter().enumerate() {
        let p = &result.points[i];
        let status = if let Some(e) = &p.error {
            format!("error: {e}")
        } else if p.pruned {
            "pruned".into()
        } else if result.pareto.contains(&i) {
            "pareto".into()
        } else {
            String::new()
        };
        table.row(vec![
            (rank + 1).to_string(),
            p.calib.clone(),
            p.gpus.to_string(),
            p.schedule.to_string(),
            p.makespan.map_or("-".into(), |m| format!("{m:.6}")),
            p.cost.map_or("-".into(), |c| format!("{c:.6}")),
            format!("{:.6}", p.lower_bound),
            p.makespan.map_or("-".into(), |m| fmt_ratio(live_wall / m)),
            status,
        ]);
    }
    println!("{}", table.render());

    println!(
        "sweep: {} point(s), {} evaluated, {} pruned by lower bound, {} compiled segment(s) shared, {} event loop(s) run",
        result.points.len(),
        result.evaluated,
        result.pruned,
        result.compiled_segments,
        result.replays,
    );
    println!("pareto front: {} point(s)", result.pareto.len());
    if let Some(deadline) = result.deadline {
        match result.best_under_deadline {
            Some(i) => {
                let p = &result.points[i];
                println!(
                    "best under deadline {deadline:?} s: {} x{} {} (makespan {:.6} s, cost {:.6})",
                    p.calib,
                    p.gpus,
                    p.schedule,
                    p.makespan.unwrap_or(f64::NAN),
                    p.cost.unwrap_or(f64::NAN),
                );
            }
            None => println!("best under deadline {deadline:?} s: none feasible"),
        }
    }
}
