//! The paper's figures and ablations as data, and one driver that prints
//! them (`figures <name>`, `figures all`).
//!
//! A [`Figure`] is a default scenario, the axes it sweeps on top of that
//! scenario and a renderer. *Live* axes change a field the rank loop reads
//! (a new [`LiveKey`](crate::runner::LiveKey)); *replay-time* axes change only the
//! node configuration, so their points replay one live run's traces.
//! [`run`] plans every point of the figures asked for, runs each distinct
//! live key once, replays it for every point that shares it, and drops it
//! after its last use. The eight default figures make 40 points from 27
//! live runs: Fig. 6's cells are Fig. 4's 16-process cells, the
//! data-movement ablation's tracked cells are too, and the MPS ablation
//! replays Fig. 4's offload cells with MPS on and off.

use std::collections::BTreeMap;
use std::path::PathBuf;

use accel_sim::context::LabelStats;
use accel_sim::Context;
use loc_count::{find_workspace_root, implementation_totals, kernel_loc_table, Implementation};
use offload::Pool;
use scenario::{ProblemSize::*, Scenario};
use toast_core::dispatch::{ImplKind, ImplKind::*, KernelId};
use toast_core::pipeline::MovementPolicy::{self, *};

use crate::report::{fmt_ratio, fmt_secs, metrics_table, trace_path_for, write_csv, Table};
use crate::runner::{replay, run_live, LiveRun, RunConfig};

/// One figure or ablation.
pub struct Figure {
    /// The name it is asked for by; also its CSV's and scenario file's.
    pub name: &'static str,
    /// The scenario it was defined with (`scenarios/<name>.json` holds
    /// the same values).
    pub default: fn() -> Scenario,
    /// Axes that change the live run, outermost first. A figure without
    /// any runs nothing (the line counts and the pool ablation).
    pub live: &'static [Axis],
    /// Axes that reach only the replay, inside the live ones.
    pub replay: &'static [Axis],
    /// Names one point in its trace file (`--trace-out`).
    pub label: fn(&Scenario) -> String,
    /// Everything the figure prints, from its base scenario and its
    /// points in axis order.
    pub render: fn(&Scenario, &[Point]) -> Result<String, String>,
}

/// One swept scenario field and its values.
#[derive(Debug, Clone, Copy)]
pub enum Axis {
    /// Processes per node.
    Procs(&'static [u32]),
    /// Implementation.
    Kind(&'static [ImplKind]),
    /// Data-movement policy.
    Movement(&'static [MovementPolicy]),
    /// CUDA Multi-Process Service on or off.
    Mps(&'static [bool]),
}

impl Axis {
    /// `s` at the axis's `i`-th value, or `None` past its last. A process
    /// count that does not divide the node calibration's cores is
    /// `Some(None)`: the node cannot host it, so it is no point of the
    /// figure (Fig. 4 on a 32-core node stops at 32 processes).
    fn at(self, s: &Scenario, i: usize) -> Option<Option<Scenario>> {
        let mut s = s.clone();
        match self {
            Axis::Procs(v) => {
                s.procs_per_node = *v.get(i)?;
                if matches!(RunConfig::from_scenario(&s), Ok(cfg) if cfg.threads().is_err()) {
                    return Some(None);
                }
            }
            Axis::Kind(v) => s.kind = *v.get(i)?,
            Axis::Movement(v) => s.movement = *v.get(i)?,
            Axis::Mps(v) => s.mps = *v.get(i)?,
        }
        Some(Some(s))
    }
}

/// What a renderer reads of one point.
#[derive(Debug)]
pub struct Point {
    /// The point's scenario: the base with every axis applied.
    pub scenario: Scenario,
    /// Node wall plus communication, or `None` when the run did not fit.
    pub runtime: Option<f64>,
    /// Per-label solo-estimate seconds of the live run.
    pub per_label: BTreeMap<String, LabelStats>,
    /// Bytes moved over PCIe by the live run.
    pub transfer_bytes: f64,
    /// What writing its trace printed (empty without `--trace-out`).
    pub dump: String,
}

impl Point {
    /// `v` to five places, or `OOM` when the point did not fit.
    fn secs(&self, v: f64) -> String {
        self.runtime.map_or("OOM".into(), |_| format!("{v:.5}"))
    }

    /// Summed seconds of every label `keep` accepts.
    fn seconds(&self, keep: impl Fn(&str) -> bool) -> f64 {
        let labels = self.per_label.iter().filter(|(label, _)| keep(label));
        labels.map(|(_, s)| s.seconds).sum()
    }
}

/// Every figure, in the order `figures all` prints them.
pub static FIGURES: [Figure; 8] = [
    Figure {
        name: "fig2_loc",
        default: || Scenario::new("fig2_loc", Medium, 1.0),
        live: &[],
        replay: &[],
        label: by_kind,
        render: fig2,
    },
    Figure {
        name: "fig3_loc_per_kernel",
        default: || Scenario::new("fig3_loc_per_kernel", Medium, 1.0),
        live: &[],
        replay: &[],
        label: by_kind,
        render: fig3,
    },
    Figure {
        name: "fig4_process_scaling",
        default: || Scenario::new("fig4_process_scaling", Medium, 1e-3),
        live: &[
            Axis::Procs(&[1, 2, 4, 8, 16, 32, 64]),
            Axis::Kind(&[Cpu, Jit, OmpTarget]),
        ],
        replay: &[],
        label: |s| format!("{}{}", s.kind, s.procs_per_node),
        render: fig4,
    },
    Figure {
        name: "fig5_full_benchmark",
        default: || Scenario::new("fig5_full_benchmark", Large, 1e-3),
        live: &[Axis::Kind(&[Cpu, Jit, OmpTarget, JitCpu])],
        replay: &[],
        label: by_kind,
        render: fig5,
    },
    Figure {
        name: "fig6_per_kernel",
        default: || Scenario::new("fig6_per_kernel", Medium, 1e-3),
        live: &[Axis::Kind(&[Cpu, Jit, OmpTarget])],
        replay: &[],
        label: by_kind,
        render: fig6,
    },
    Figure {
        name: "ablation_data_movement",
        default: || Scenario::new("ablation_data_movement", Medium, 1e-3),
        live: &[
            Axis::Kind(&[OmpTarget, Jit]),
            Axis::Movement(&[Tracked, Naive]),
        ],
        replay: &[],
        label: |s| format!("{:?}-{:?}", s.kind, s.movement).to_lowercase(),
        render: data_movement,
    },
    Figure {
        name: "ablation_mps",
        default: || Scenario::new("ablation_mps", Medium, 1e-3).with_kind(OmpTarget),
        live: &[Axis::Procs(&[4, 8, 16, 32])],
        replay: &[Axis::Mps(&[true, false])],
        label: |s| {
            let mps = if s.mps { "" } else { "no" };
            format!("{}{}-{mps}mps", s.kind, s.procs_per_node)
        },
        render: mps,
    },
    Figure {
        name: "ablation_mempool",
        default: || Scenario::new("ablation_mempool", Medium, 1.0),
        live: &[],
        replay: &[],
        label: by_kind,
        render: mempool,
    },
];

fn by_kind(s: &Scenario) -> String {
    s.kind.to_string()
}

/// The figure called `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Every point of `figs` (each figure with its base scenario), figure by
/// figure: the figure's index, the point's scenario and its config. A
/// figure's points are the product of its live axes and then its
/// replay-time axes, the last varying fastest. Fails on a point whose
/// scenario is invalid.
pub fn plan(figs: &[(&Figure, Scenario)]) -> Result<Vec<(usize, Scenario, RunConfig)>, String> {
    let mut plan = Vec::new();
    for (f, (fig, base)) in figs.iter().enumerate() {
        // A figure without live axes runs nothing.
        let mut points: Vec<_> = (!fig.live.is_empty())
            .then(|| base.clone())
            .into_iter()
            .collect();
        for &axis in fig.live.iter().chain(fig.replay) {
            let values = |s| (0..).map_while(move |i| axis.at(s, i)).flatten();
            points = points.iter().flat_map(values).collect();
        }
        for s in points {
            let cfg = RunConfig::from_scenario(&s).map_err(|e| format!("{}: {e}", fig.name))?;
            plan.push((f, s, cfg));
        }
    }
    Ok(plan)
}

/// Print `figs` (each figure with its base scenario) to stdout in order.
/// Each distinct live key of the [`plan`] runs once, at its first point,
/// is replayed for every point sharing it, and is dropped after the last.
pub fn run(figs: &[(&Figure, Scenario)]) -> Result<(), String> {
    let plan = plan(figs)?;
    let keys: Vec<_> = plan.iter().map(|(_, _, cfg)| cfg.live_key()).collect();
    let mut points: Vec<Option<Point>> = plan.iter().map(|_| None).collect();
    for i in 0..plan.len() {
        if points[i].is_some() {
            continue;
        }
        let live = run_live(&keys[i]).map_err(|e| e.to_string())?;
        for j in (i..plan.len()).filter(|&j| keys[j] == keys[i]) {
            let (f, s, cfg) = &plan[j];
            points[j] = Some(evaluate(figs[*f].0, s.clone(), cfg, &live));
        }
    }
    let mut points = points.into_iter().flatten();
    for (f, (fig, base)) in figs.iter().enumerate() {
        let n = plan.iter().filter(|p| p.0 == f).count();
        let pts: Vec<Point> = points.by_ref().take(n).collect();
        print!("{}", (fig.render)(base, &pts)?);
    }
    Ok(())
}

/// Replay `live` under `cfg` and keep what the renderers read.
fn evaluate(fig: &Figure, scenario: Scenario, cfg: &RunConfig, live: &LiveRun) -> Point {
    // A timeline is recorded only where a trace file is written.
    let r = replay(cfg, live, scenario.output.trace_out.is_some());
    let mut dump = String::new();
    if let Some(base) = &scenario.output.trace_out {
        let label = (fig.label)(&scenario);
        let path = trace_path_for(base, &label);
        match crate::traceout::write_trace(&path, &live.traces, r.timeline.as_ref()) {
            Ok(()) => dump = format!("wrote trace {}\n", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        let metrics = metrics_table(&crate::metrics::summarize_events(&live.traces));
        dump += &format!("\nper-label span metrics — {label}\n{}\n", metrics.render());
    }
    Point {
        scenario,
        runtime: r.node_wall.as_ref().ok().map(|w| w + r.comm_seconds),
        per_label: live.per_label.clone(),
        transfer_bytes: live.transfer_bytes,
        dump,
    }
}

/// The trace dumps of `pts`, in order.
fn dumps(pts: &[Point]) -> String {
    pts.iter().map(|p| p.dump.as_str()).collect()
}

/// `title`, a blank line, `body`, `table`, `notes`, then the line naming
/// the CSV written for the table.
fn page(title: &str, body: &str, name: &str, table: &Table, notes: &str) -> String {
    let csv = write_csv(name, table).map_or(String::new(), |p| format!("wrote {}\n", p.display()));
    format!("{title}\n\n{body}{}\n{notes}{csv}", table.render())
}

fn secs(t: Option<f64>) -> String {
    t.map_or("OOM".into(), fmt_secs)
}

fn ratio(base: Option<f64>, t: Option<f64>) -> String {
    base.zip(t).map_or("-".into(), |(b, t)| fmt_ratio(b / t))
}

fn workspace_root() -> Result<PathBuf, String> {
    let msg =
        "no crates/core/src/kernels at or above the current directory; run inside the repository";
    find_workspace_root().ok_or_else(|| msg.into())
}

/// Figure 2: lines of code per implementation — kernel bodies and kernels
/// plus each port's framework and accelerator plumbing.
fn fig2(_: &Scenario, _: &[Point]) -> Result<String, String> {
    let root = workspace_root()?;
    let (cpu_kernel, _) = implementation_totals(&root, Implementation::Cpu);
    let mut t = Table::new("implementation kernel_loc total_loc kernel_vs_cpu");
    for imp in Implementation::ALL {
        let (kernel, total) = implementation_totals(&root, imp);
        let mut cells = vec![imp.label().into(), kernel.to_string(), total.to_string()];
        cells.push(format!("{:.2}x", kernel as f64 / cpu_kernel as f64));
        t.row(cells);
    }
    let title = "Figure 2 — lines of code per implementation";
    let notes = "paper: JAX kernels ~0.8x the CPU baseline, OpenMP Target ~1.8x;\n       \
                 device ports add framework code on top of kernel lines.\n";
    Ok(page(title, "", "fig2_loc", &t, notes))
}

/// Figure 3: lines of code per kernel, per implementation.
fn fig3(_: &Scenario, _: &[Point]) -> Result<String, String> {
    let rows = kernel_loc_table(&workspace_root()?);
    let sum = |f: fn(&loc_count::KernelLoc) -> usize| rows.iter().map(f).sum();
    let total = (
        "TOTAL".into(),
        sum(|k| k.cpu),
        sum(|k| k.omp),
        sum(|k| k.jit),
    );
    let rows = rows.iter().map(|k| (k.kernel.clone(), k.cpu, k.omp, k.jit));
    let mut t = Table::new("kernel cpu omp_target jax omp/cpu jax/cpu");
    for (name, cpu, omp, jit) in rows.chain([total]) {
        let mut cells = vec![name];
        cells.extend([cpu, omp, jit].map(|n| n.to_string()));
        cells.extend([omp, jit].map(|n| format!("{:.2}x", n as f64 / cpu as f64)));
        t.row(cells);
    }
    let title = "Figure 3 — lines of code per kernel";
    let notes = "paper: offload kernels average ~1.8x the CPU lines; JAX ~0.8x.\n";
    Ok(page(title, "", "fig3_loc_per_kernel", &t, notes))
}

/// Figure 4: runtime against processes per node, one row per process
/// count (cpu, jax, omp).
fn fig4(base: &Scenario, pts: &[Point]) -> Result<String, String> {
    let nodes = base
        .nodes
        .map_or("1 node".into(), |n| format!("{n}-node cluster replay"));
    let mut t = Table::new("procs threads cpu_s jax_s omp_s jax_speedup omp_speedup");
    for row in pts.chunks(3) {
        let threads = RunConfig::from_scenario(&row[0].scenario).and_then(|c| c.threads());
        let threads = threads.map_err(|e| e.to_string())?;
        let procs = row[0].scenario.procs_per_node;
        let mut cells = vec![procs.to_string(), threads.to_string()];
        cells.extend(row.iter().map(|p| secs(p.runtime)));
        cells.extend(row[1..].iter().map(|p| ratio(row[0].runtime, p.runtime)));
        t.row(cells);
    }
    let (schedule, scale) = (base.schedule, base.problem.scale);
    let title = format!(
        "Figure 4 — runtime vs process count (medium, {nodes}, schedule {schedule}, scale {scale})"
    );
    Ok(page(&title, &dumps(pts), "fig4_process_scaling", &t, ""))
}

/// Figure 5: the full benchmark, each implementation against the CPU
/// baseline.
fn fig5(base: &Scenario, pts: &[Point]) -> Result<String, String> {
    let (procs, schedule, scale) = (base.procs_per_node, base.schedule, base.problem.scale);
    let layout = match base.nodes {
        Some(n) => format!("{n}-node cluster replay x {procs} procs, schedule {schedule}"),
        None => format!(
            "8 nodes x {procs} procs x {} threads, analytic comm",
            base.threads().map_err(|e| e.to_string())?
        ),
    };
    let cpu_t = pts.first().and_then(|p| p.runtime);
    let mut t = Table::new("implementation runtime_s vs_cpu");
    for p in pts {
        let vs = match cpu_t.zip(p.runtime) {
            Some((c, t)) if c >= t => format!("{} faster", fmt_ratio(c / t)),
            Some((c, t)) => format!("{} slower", fmt_ratio(t / c)),
            None => "-".into(),
        };
        let name = match p.scenario.kind {
            Cpu => "OpenMP CPU",
            Jit => "JAX",
            OmpTarget => "OpenMP Target Offload",
            JitCpu => "JAX (CPU backend)",
        };
        t.row(vec![name.into(), secs(p.runtime), vs]);
    }
    let title = format!("Figure 5 — full benchmark (large, {layout}, scale {scale})");
    let notes = "paper: JAX 2.28x, OpenMP Target 2.58x faster; JAX CPU backend 7.4x slower.\n";
    Ok(page(&title, &dumps(pts), "fig5_full_benchmark", &t, notes))
}

/// Figure 6: total runtime per kernel, plus the `accel_data_*` operations
/// and one-time JIT compilation.
fn fig6(base: &Scenario, pts: &[Point]) -> Result<String, String> {
    let (cpu, jax, omp) = (&pts[0], &pts[1], &pts[2]);
    let fits = |p: &Point| p.runtime.is_some();
    let mut t = Table::new("kernel cpu_s jax_s omp_s jax_speedup omp_speedup");
    let (mut sum_ratio, mut n_ratio) = (0.0, 0);
    // Device kernels share a GPU with the other ranks assigned to it; the
    // per-label times are solo estimates, so inflate them by the sharing
    // factor to report what a process actually observes.
    let sharing = (base.procs_per_node as f64 / base.gpus as f64).max(1.0);
    for k in KernelId::BENCHMARK.map(KernelId::name) {
        // The arrayjit port splits a kernel into `name/stage` labels.
        // One-time JIT compilation is left out here, and reported on its
        // own row: the paper's run amortises it over ~10^9 samples.
        let of_k = |l: &str| {
            (l == k || l.strip_prefix(k).is_some_and(|r| r.starts_with('/')))
                && !l.ends_with("/jit_compile")
        };
        let c = cpu.seconds(of_k);
        let (j, o) = (jax.seconds(of_k) * sharing, omp.seconds(of_k) * sharing);
        if j > 0.0 && o > 0.0 && fits(jax) && fits(omp) {
            sum_ratio += j / o;
            n_ratio += 1;
        }
        let speedup = |p, t| match fits(cpu) && fits(p) {
            true => format!("{:.1}x", c / t),
            false => "-".into(),
        };
        let mut cells = vec![k.into(), cpu.secs(c), jax.secs(j), omp.secs(o)];
        cells.extend([speedup(jax, j), speedup(omp, o)]);
        t.row(cells);
    }
    let mut labels: Vec<&String> = [jax, omp].iter().flat_map(|p| p.per_label.keys()).collect();
    labels.retain(|l| l.starts_with("accel_data"));
    labels.sort();
    labels.dedup();
    let movement = labels.into_iter().map(|l| {
        let of = |p: &Point| p.secs(p.per_label.get(l.as_str()).map_or(0.0, |s| s.seconds));
        (l.clone(), of(jax), of(omp))
    });
    let compile = jax.secs(jax.seconds(|l| l.ends_with("/jit_compile")));
    for (label, j, o) in movement.chain([("jit_compile (one-time)".into(), compile, "-".into())]) {
        t.row(vec![label, "-".into(), j, o, "-".into(), "-".into()]);
    }
    let average = match n_ratio {
        0 => "-".into(),
        n => fmt_ratio(sum_ratio / n as f64),
    };
    let (procs, scale) = (base.procs_per_node, base.problem.scale);
    let title = format!("Figure 6 — per-kernel runtime (medium, {procs} procs, scale {scale})");
    let notes =
        format!("offload vs JAX per-kernel average: omp faster by {average} (paper: ~2.4x)\n");
    Ok(page(&title, &dumps(pts), "fig6_per_kernel", &t, &notes))
}

/// § 3.2.2: residency-tracked pipeline data movement against the naive
/// transfer-everything-per-kernel policy, per device port.
fn data_movement(base: &Scenario, pts: &[Point]) -> Result<String, String> {
    let mut body = String::new();
    let mut t = Table::new("implementation policy runtime_s pcie_bytes");
    for pair in pts.chunks(2) {
        for p in pair {
            body += &p.dump;
            let bytes = p
                .runtime
                .map_or("-".into(), |_| format!("{:.3e}", p.transfer_bytes));
            let (kind, movement) = (p.scenario.kind, p.scenario.movement);
            t.row(vec![
                format!("{kind:?}"),
                format!("{movement:?}"),
                secs(p.runtime),
                bytes,
            ]);
        }
        let slower = match (pair[0].runtime, pair.get(1).and_then(|p| p.runtime)) {
            (Some(tracked), Some(naive)) => format!("{:.0}%", (naive / tracked - 1.0) * 100.0),
            _ => "-".into(),
        };
        let kind = pair[0].scenario.kind;
        body += &format!("{kind:?}: naive is {slower} slower than tracked (paper: ~40%)\n");
    }
    let (procs, scale) = (base.procs_per_node, base.problem.scale);
    let title =
        format!("Ablation — tracked vs naive data movement (medium, {procs} procs, scale {scale})");
    Ok(page(
        &title,
        &(body + "\n"),
        "ablation_data_movement",
        &t,
        "",
    ))
}

/// § 3.1.2: the CUDA Multi-Process Service on and off, per process count.
fn mps(base: &Scenario, pts: &[Point]) -> Result<String, String> {
    let mut t = Table::new("procs mps_on_s mps_off_s penalty");
    for pair in pts.chunks(2) {
        let (on, off) = (pair[0].runtime, pair.get(1).and_then(|p| p.runtime));
        let penalty = on
            .zip(off)
            .map_or("-".into(), |(on, off)| format!("{:.2}x", off / on));
        t.row(vec![
            pair[0].scenario.procs_per_node.to_string(),
            secs(on),
            secs(off),
            penalty,
        ]);
    }
    let scale = base.problem.scale;
    let port = match base.kind {
        Cpu => "the CPU baseline",
        OmpTarget => "the offload port",
        Jit => "the JIT port",
        JitCpu => "the JIT port on its CPU backend",
    };
    let title = format!("Ablation — MPS on/off for {port} (medium, scale {scale})");
    let notes = "paper: without MPS, >1 process per device stops paying off.\n";
    Ok(page(&title, &dumps(pts), "ablation_mps", &t, notes))
}

/// § 3.1.2 / § 4.1: the device memory pool against raw per-allocation
/// `omp_target_alloc`, charged under the scenario's node calibration.
fn mempool(base: &Scenario, _: &[Point]) -> Result<String, String> {
    let (calib, _net) = base.resolved_calib().map_err(|e| e.to_string())?;
    let sizes: Vec<usize> = (0..200).map(|i| 1000 + (i * 7919) % 100_000).collect();
    let rounds = 20;
    let mut t = Table::new("allocator alloc_calls driver_seconds pool_hits");
    for (allocator, mut pool) in [("pool", Pool::<f64>::new()), ("raw", Pool::disabled())] {
        let mut ctx = Context::new(calib);
        // Each round allocates every size, then frees them all.
        let fits = (0..rounds).all(|_| {
            let held: Result<Vec<_>, _> = sizes.iter().map(|&n| pool.alloc(&mut ctx, n)).collect();
            held.map(|held| held.into_iter().for_each(|b| pool.free(&mut ctx, b)))
                .is_ok()
        });
        let driver = ctx
            .stats()
            .get("accel_data_alloc")
            .map_or(0.0, |s| s.seconds);
        let (driver, hits) = match fits {
            true => (format!("{driver:.5}"), pool.stats().hits.to_string()),
            false => ("OOM".into(), "-".into()),
        };
        t.row(vec![
            allocator.into(),
            (rounds * sizes.len()).to_string(),
            driver,
            hits,
        ]);
    }
    let title = "Ablation — device memory pool vs raw allocation";
    let notes = "the pool amortises the driver cost to the first round of misses.\n";
    Ok(page(title, "", "ablation_mempool", &t, notes))
}
