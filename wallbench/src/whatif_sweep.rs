//! `whatif_sweep`: grid evaluation over recorded workloads.
//!
//! Set-up records seeded scenarios in the shapes of
//! `scenarios/whatif_record.json` and `scenarios/fig5_4node.json`, round
//! trips them through JSONL and compiles each once. Each op then
//! evaluates one grid, so the engine's event loop and cost tables do
//! nearly all the measured work; JSON parsing and kernels run only in
//! set-up.

use std::collections::BTreeMap;
use std::time::Instant;

use accel_sim::{sweep_preflight, CompiledSweep, RecordedWorkload, SweepResult, SweepSpec};
use repro_bench::{record_run, RunConfig};
use scenario::{ImplKind, ProblemSize, Scenario};

use crate::gen::{Digest, Rng};
use crate::measure::{median, MachineSpeed, Metrics, Outcome, SetupReps, Tracer};

/// What an op does with its grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `CompiledSweep::run`, no deadline.
    Plain,
    /// `CompiledSweep::run` under a deadline, so the pruner fires.
    Deadline,
    /// `sweep_preflight`: compile, static rejection, then replay.
    Preflight,
}

/// The op mix of one window: (recording, kind, ops). The omp
/// recording's grids are the dearest ops and 70 % of the window, so p50
/// and p90 both fall inside that one class; its deadline grids prune two
/// to four points each and stay within the class. The cpu recording's
/// grids (fewer observations) are the cheaper 30 %.
pub const MIX: [(usize, Kind, usize); 5] = [
    (0, Kind::Plain, 8),
    (0, Kind::Deadline, 2),
    (0, Kind::Preflight, 4),
    (1, Kind::Plain, 4),
    (1, Kind::Preflight, 2),
];

/// Ops per window. A window holds every (recording, kind, grid) of the
/// fixed op list once; the seed shuffles the order within each window, so
/// the multiset of op costs — and with it every percentile — does not
/// depend on the seed.
pub const WINDOW: usize = 20;
/// Points per grid: 2 calibrations × 4 GPU counts × 2 schedules.
pub const GRID_POINTS: usize = 16;
const PRESETS: [&str; 5] = ["a100", "h100", "a100-nvlink", "h100-nvlink", "slingshot11"];
const OTHER_SCHEDULES: [&str; 4] = ["mps", "timeslice", "fifo", "priority"];
/// GPU counts besides 1 and the recorded 4.
const OTHER_GPUS: [(u32, u32); 4] = [(2, 8), (3, 6), (5, 7), (2, 6)];
/// Deadline as a share of the recording's live makespan. On the omp
/// recording this prunes some points of every grid and leaves others
/// that meet it, so the per-op check can tell a pruner that prunes too
/// much from one that prunes too little. (On the cpu recording every
/// point has the same makespan, so a deadline there prunes all or none.)
const DEADLINE_SHARE: f64 = 1.0;
const OPS_PER_SECOND: f64 = 8.0;
/// Recording shapes: the whatif_record shape (index 0) and the fig5_4node
/// shape (index 1).
pub const SHAPES: usize = 2;
/// Problem seeds of the recordings, one `[whatif_record, fig5_4node]` pair
/// per variant. They are fixed: the problem seed leaves a recording's
/// segment count alone but moves the host cost of the same grid over it by
/// up to ±15 % (event timing), so recordings drawn from the workload seed
/// would let the seed, not the code, set a run's figures. Every run
/// prices all four variants; the workload seed orders them and the ops.
const RECORDING_PROBLEM_SEEDS: [[u64; SHAPES]; 4] =
    [[53, 54], [1053, 1054], [2053, 2054], [3053, 3054]];
/// Recording variants per shape.
pub const VARIANTS: usize = RECORDING_PROBLEM_SEEDS.len();

/// Fixed op count for a run of `seconds` (whole windows).
pub fn op_count(seconds: f64) -> usize {
    let windows = (seconds * OPS_PER_SECOND / WINDOW as f64).round() as usize;
    windows.max(1) * WINDOW
}

/// One generated op: which recording, what to do, and the grid clauses.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Index into the recordings: `variant * SHAPES + shape`.
    pub recording: usize,
    pub kind: Kind,
    /// `whatif sweep --grid` clauses.
    pub grid: String,
}

/// The two recording scenarios, in the golden shapes with the samples
/// shrunk (sample counts change the kernels' work in set-up, not the
/// recorded segment count). The whatif_record shape keeps its 16
/// observations; the fig5 shape runs 4, so its grids are clearly cheaper
/// than the omp recording's and the two never share a size class.
pub fn recording_scenarios(problem_seeds: [u64; SHAPES]) -> Vec<Scenario> {
    let mut a = Scenario::new("whatif_record", ProblemSize::Medium, 1e-3)
        .with_kind(ImplKind::OmpTarget)
        .with_procs(8)
        .with_nodes(2);
    a.problem.n_det_total = Some(64);
    a.problem.total_samples = Some(5e9 / 256.0);
    let mut b = Scenario::new("fig5_4node", ProblemSize::Large, 1e-3)
        .with_kind(ImplKind::Cpu)
        .with_procs(16)
        .with_nodes(4);
    b.problem.n_det_total = Some(64);
    b.problem.total_samples = Some(5e10 / 256.0);
    b.problem.n_obs = Some(4);
    for (s, seed) in [&mut a, &mut b].into_iter().zip(problem_seeds) {
        s.problem.seed = Some(seed);
    }
    vec![a, b]
}

/// The op list of one window on the first recording variant, in
/// canonical order: [`MIX`], each op's grid pairing a preset with a
/// non-default schedule and two more GPU counts.
pub fn window_ops() -> Vec<Op> {
    let slots = MIX
        .iter()
        .flat_map(|&(recording, kind, n)| std::iter::repeat_n((recording, kind), n));
    slots
        .enumerate()
        .map(|(j, (recording, kind))| {
            let (g1, g2) = OTHER_GPUS[j % OTHER_GPUS.len()];
            let mut gpus = [1, 4, g1, g2];
            gpus.sort_unstable();
            let gpus: Vec<String> = gpus.iter().map(u32::to_string).collect();
            Op {
                recording,
                kind,
                grid: format!(
                    "calib=identity,{};gpus={};schedule=auto,{}",
                    PRESETS[j % PRESETS.len()],
                    gpus.join(","),
                    OTHER_SCHEDULES[(j / PRESETS.len()) % OTHER_SCHEDULES.len()]
                ),
            }
        })
        .collect()
}

/// The recordings' scenarios ([`VARIANTS`] of each
/// shape) and the op list for `ops` ops: a whole number of windows, window
/// `w` a seeded shuffle of [`window_ops`] on variant `order[w % 4]`, where
/// `order` is a seeded permutation of the variants.
pub fn generate(seed: u64, ops: usize) -> (Vec<Scenario>, Vec<Op>, u64) {
    let mut rng = Rng::new(seed);
    let mut digest = Digest::default();
    let scenarios: Vec<Scenario> = RECORDING_PROBLEM_SEEDS
        .into_iter()
        .flat_map(recording_scenarios)
        .collect();
    for s in &scenarios {
        digest.feed(&s.to_json_compact());
    }
    let mut order: Vec<usize> = (0..VARIANTS).collect();
    rng.shuffle(&mut order);
    let mut list = Vec::with_capacity(ops);
    while list.len() < ops {
        let variant = order[(list.len() / WINDOW) % VARIANTS];
        let mut window = window_ops();
        for op in &mut window {
            op.recording += variant * SHAPES;
        }
        rng.shuffle(&mut window);
        list.extend(window);
    }
    list.truncate(ops);
    for op in &list {
        digest.feed(&format!("{} {:?} {}", op.recording, op.kind, op.grid));
    }
    (scenarios, list, digest.value())
}

/// A recording in both forms, and what set-up measured about it.
struct Recording {
    workload: RecordedWorkload,
    jsonl_bytes: usize,
    parse_s: f64,
}

fn record(scenarios: &[Scenario]) -> Result<Vec<Recording>, String> {
    scenarios
        .iter()
        .map(|s| {
            let cfg = RunConfig::from_scenario(s).map_err(|e| e.to_string())?;
            let (_, live) = record_run(&cfg, &s.name, Some(s))?;
            let text = live.to_jsonl();
            let t0 = Instant::now();
            let workload = RecordedWorkload::parse_jsonl(&text).map_err(|e| e.to_string())?;
            let parse_s = t0.elapsed().as_secs_f64();
            Ok(Recording {
                workload,
                jsonl_bytes: text.len(),
                parse_s,
            })
        })
        .collect()
}

fn compile(recs: &[Recording]) -> Result<(Vec<CompiledSweep<'_>>, f64), String> {
    let t0 = Instant::now();
    let compiled = recs
        .iter()
        .map(|r| CompiledSweep::compile(&r.workload).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((compiled, t0.elapsed().as_secs_f64()))
}

fn spec_for(op: &Op, recs: &[Recording]) -> Result<SweepSpec, String> {
    let meta = &recs[op.recording].workload.meta;
    let mut spec = SweepSpec::parse_grid(&op.grid, meta)?;
    if op.kind == Kind::Deadline {
        spec.deadline = Some(meta.live_wall_seconds * DEADLINE_SHARE);
    }
    Ok(spec)
}

/// Untimed warm-up: one grid per recording the ops use.
fn warm_up(compiled: &[CompiledSweep<'_>], ops: &[Op], recs: &[Recording]) -> Result<(), String> {
    for (r, cs) in compiled.iter().enumerate() {
        if let Some(op) = ops.iter().find(|o| o.recording == r) {
            std::hint::black_box(cs.run(&spec_for(op, recs)?));
        }
    }
    Ok(())
}

/// Everything the per-op check compares against, computed once.
struct Oracle {
    /// Identity makespan bits per recording (`replay_identity`).
    identity: Vec<u64>,
    /// A copy of each recording whose `meta.schedule` is set to the
    /// point's before a standalone replay (the sweep prices every point
    /// under the recorded MPS setting and the point's own schedule).
    rescheduled: Vec<RecordedWorkload>,
    /// Standalone `replay` makespans by (recording, calib, gpus, schedule).
    replays: BTreeMap<(usize, String, u32, String), Result<u64, String>>,
    /// Unpruned grid by (recording, grid): every window repeats the same
    /// grids.
    unpruned: BTreeMap<(usize, String), SweepResult>,
}

impl Oracle {
    fn new(recs: &[Recording]) -> Result<Self, String> {
        let identity = recs
            .iter()
            .map(|r| {
                r.workload
                    .replay_identity()
                    .map(|x| x.cluster.wall_seconds.to_bits())
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Oracle {
            identity,
            rescheduled: recs.iter().map(|r| r.workload.clone()).collect(),
            replays: BTreeMap::new(),
            unpruned: BTreeMap::new(),
        })
    }

    /// Standalone `RecordedWorkload::replay` of one point, timed.
    fn replay(
        &mut self,
        rec: usize,
        spec: &SweepSpec,
        point: &accel_sim::SweepPoint,
    ) -> (Result<u64, String>, Option<f64>) {
        let key = (
            rec,
            point.calib.clone(),
            point.gpus,
            point.schedule.to_string(),
        );
        if let Some(hit) = self.replays.get(&key) {
            return (hit.clone(), None);
        }
        let calib = spec
            .calibs
            .iter()
            .find(|c| c.name == point.calib)
            .expect("point calib is on the grid");
        let workload = &mut self.rescheduled[rec];
        workload.meta.schedule = point.schedule;
        let t0 = Instant::now();
        let got = workload
            .replay(&calib.node, &calib.net, Some(point.gpus))
            .map(|x| x.cluster.wall_seconds.to_bits())
            .map_err(|e| e.to_string());
        let dt = t0.elapsed().as_secs_f64();
        self.replays.insert(key, got.clone());
        (got, Some(dt))
    }

    /// The op's grid evaluated without a deadline, computed once per grid.
    fn unpruned(
        &mut self,
        op: &Op,
        spec: &SweepSpec,
        compiled: &[CompiledSweep<'_>],
    ) -> &SweepResult {
        self.unpruned
            .entry((op.recording, op.grid.clone()))
            .or_insert_with(|| {
                let mut spec = spec.clone();
                spec.deadline = None;
                compiled[op.recording].run(&spec)
            })
    }
}

/// A deadline grid against the same grid unpruned: a point is pruned
/// exactly when its lower bound exceeds the deadline, a pruned point
/// could not have met the deadline, and every other point is the
/// unpruned point byte for byte.
fn check_deadline(
    i: usize,
    deadline: f64,
    res: &SweepResult,
    plain: &SweepResult,
) -> Result<(), String> {
    for (p, q) in res.points.iter().zip(&plain.points) {
        let at = format!("op {i}: point {}/{}/{}", p.calib, p.gpus, p.schedule);
        if p.lower_bound.to_bits() != q.lower_bound.to_bits() {
            return Err(format!("{at}: lower bound differs from the unpruned grid"));
        }
        if p.pruned != (p.lower_bound > deadline) {
            return Err(format!(
                "{at}: pruned = {} with lower bound {:e} and deadline {deadline:e}",
                p.pruned, p.lower_bound
            ));
        }
        if p.pruned {
            if q.makespan.is_some_and(|m| m <= deadline) {
                return Err(format!("{at}: pruned but meets the deadline unpruned"));
            }
        } else if p.to_json(false) != q.to_json(false) {
            return Err(format!("{at}: differs from the unpruned grid"));
        }
    }
    Ok(())
}

/// The per-op output check. Identity points at the recorded shape equal
/// `replay_identity`; one seeded point of any schedule equals a
/// standalone `replay`; a preflight grid's JSONL equals the unpruned
/// grid's byte for byte; a deadline grid passes [`check_deadline`].
/// Returns the standalone replay's time when it ran.
fn check_op(
    i: usize,
    op: &Op,
    spec: &SweepSpec,
    res: &SweepResult,
    recs: &[Recording],
    compiled: &[CompiledSweep<'_>],
    oracle: &mut Oracle,
) -> Result<Option<f64>, String> {
    let meta = &recs[op.recording].workload.meta;
    if res.points.len() != GRID_POINTS {
        return Err(format!("op {i}: {} points", res.points.len()));
    }
    for p in &res.points {
        let recorded_shape =
            p.calib == "identity" && p.gpus == meta.gpus && p.schedule == meta.schedule;
        if recorded_shape
            && !p.pruned
            && p.makespan.map(f64::to_bits) != Some(oracle.identity[op.recording])
        {
            return Err(format!(
                "op {i}: identity point differs from replay_identity"
            ));
        }
    }
    let candidates: Vec<_> = res.points.iter().filter(|p| p.makespan.is_some()).collect();
    let mut replay_s = None;
    if !candidates.is_empty() {
        let p = candidates[Rng::new(i as u64).below(candidates.len())];
        let (want, dt) = oracle.replay(op.recording, spec, p);
        replay_s = dt;
        if want != Ok(p.makespan.expect("filtered").to_bits()) {
            return Err(format!(
                "op {i}: point {}/{}/{} differs from standalone replay",
                p.calib, p.gpus, p.schedule
            ));
        }
    }
    match (op.kind, spec.deadline) {
        (Kind::Preflight, _) => {
            if oracle.unpruned(op, spec, compiled).to_jsonl() != res.to_jsonl() {
                return Err(format!(
                    "op {i}: preflight output differs from the unpruned grid"
                ));
            }
        }
        (Kind::Deadline, Some(deadline)) => {
            check_deadline(i, deadline, res, oracle.unpruned(op, spec, compiled))?;
        }
        (Kind::Deadline, None) => return Err(format!("op {i}: deadline grid without a deadline")),
        (Kind::Plain, _) => {}
    }
    Ok(replay_s)
}

/// Run one op: the timed call.
fn run_op(
    op: &Op,
    spec: &SweepSpec,
    recs: &[Recording],
    compiled: &[CompiledSweep<'_>],
) -> Result<SweepResult, String> {
    match op.kind {
        Kind::Plain | Kind::Deadline => Ok(compiled[op.recording].run(spec)),
        Kind::Preflight => {
            sweep_preflight(&recs[op.recording].workload, spec).map_err(|e| e.to_string())
        }
    }
}

/// Generated ops and their recordings, after one compile and warm-up.
struct Inputs {
    ops: Vec<Op>,
    digest: u64,
    recs: Vec<Recording>,
}

fn prepare(seed: u64, n: usize) -> Result<Inputs, String> {
    let (scenarios, ops, digest) = generate(seed, n);
    let recs = record(&scenarios)?;
    let (compiled, _) = compile(&recs)?;
    warm_up(&compiled, &ops, &recs)?;
    Ok(Inputs { ops, digest, recs })
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let n = op_count(seconds);
    let (mut reps, inputs) = SetupReps::first(n, || prepare(seed, n));
    let Inputs { ops, digest, recs } = match inputs {
        Ok(i) => i,
        Err(e) => return Outcome::setup_failed("whatif_sweep", e),
    };
    // The arenas borrow their recordings, so the kept set-up compiles
    // them once more (a few milliseconds) outside the timed set-up.
    let compiled = match compile(&recs) {
        Ok((cs, _)) => cs,
        Err(e) => return Outcome::setup_failed("whatif_sweep", e),
    };
    let mut outcome = Outcome {
        digest,
        ..Outcome::default()
    };
    let mut oracle = match Oracle::new(&recs) {
        Ok(o) => o,
        Err(e) => return Outcome::setup_failed("whatif_sweep", e),
    };
    let mut times = Vec::with_capacity(ops.len());
    let mut speed = MachineSpeed::default();
    for (i, op) in ops.iter().enumerate() {
        reps.between(i, || prepare(seed, n));
        speed.sample();
        let spec = match spec_for(op, &recs) {
            Ok(s) => s,
            Err(e) => {
                outcome.check(Err(e));
                continue;
            }
        };
        let t0 = Instant::now();
        let res = run_op(op, &spec, &recs, &compiled);
        times.push(t0.elapsed().as_secs_f64());
        let checked =
            res.and_then(|res| check_op(i, op, &spec, &res, &recs, &compiled, &mut oracle));
        outcome.check(checked.map(|_| ()));
    }
    let busy: f64 = times.iter().sum();
    let points = (ops.len() * GRID_POINTS) as f64;
    outcome.metrics = Metrics::end_to_end(reps.median(), points / busy, &times, &speed);
    outcome
}

/// The traced run: set-up phases timed one by one, every op timed at the
/// sweep boundary, preflight ops also run unpruned for the difference.
pub fn trace(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let (scenarios, ops, digest) = generate(seed, op_count(seconds * 0.75));
    let recs = match record(&scenarios) {
        Ok(r) => r,
        Err(e) => return Outcome::setup_failed("whatif_sweep", e),
    };
    let (compiled, compile_s) = match compile(&recs) {
        Ok(c) => c,
        Err(e) => return Outcome::setup_failed("whatif_sweep", e),
    };
    let mut oracle = match Oracle::new(&recs) {
        Ok(o) => o,
        Err(e) => return Outcome::setup_failed("whatif_sweep", e),
    };
    if let Err(e) = warm_up(&compiled, &ops, &recs) {
        return Outcome::setup_failed("whatif_sweep", e);
    }
    let mut outcome = Outcome {
        digest,
        ..Outcome::default()
    };
    let (mut run_s, mut preflight_extra, mut replay_point) = (Vec::new(), Vec::new(), Vec::new());
    let (mut grid_points, mut grid_s, mut segs) = (0usize, 0.0, 0usize);
    let (mut evaluated, mut pruned, mut rejected) = (0usize, 0usize, 0usize);
    for (i, op) in ops.iter().enumerate() {
        let spec = match spec_for(op, &recs) {
            Ok(s) => s,
            Err(e) => {
                outcome.check(Err(e));
                continue;
            }
        };
        let name = match op.kind {
            Kind::Preflight => "analyze.sweep_preflight",
            _ => "sweep.run",
        };
        let span = tr.open(name, i, None);
        let res = run_op(op, &spec, &recs, &compiled);
        let dt = tr.close(span);
        let res = match res {
            Ok(r) => r,
            Err(e) => {
                outcome.check(Err(e));
                continue;
            }
        };
        evaluated += res.evaluated;
        pruned += res.pruned;
        rejected += res.rejected;
        if op.kind == Kind::Preflight {
            let span = tr.open("sweep.run", i, None);
            std::hint::black_box(compiled[op.recording].run(&spec));
            preflight_extra.push(dt - tr.close(span));
        } else {
            // Per-grid and per-point times are taken on the omp recordings,
            // the class p50 and p90 fall in, so their ratio shares a base.
            if op.kind == Kind::Plain && op.recording % SHAPES == 0 {
                run_s.push(dt);
            }
            grid_points += res.points.len();
            grid_s += dt;
            segs += res.evaluated * res.compiled_segments;
        }
        match check_op(i, op, &spec, &res, &recs, &compiled, &mut oracle) {
            Ok(Some(dt)) => {
                if op.recording % SHAPES == 0 {
                    replay_point.push(dt);
                }
                outcome.check(Ok(()));
            }
            Ok(None) => outcome.check(Ok(())),
            Err(e) => outcome.check(Err(e)),
        }
    }
    let parse_s: f64 = recs.iter().map(|r| r.parse_s).sum();
    let mb: f64 = recs.iter().map(|r| r.jsonl_bytes as f64).sum::<f64>() / 1e6;
    let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    let per_point = med(&run_s) / GRID_POINTS as f64;
    let m = &mut outcome.metrics;
    m.put("whatif.parse_s", parse_s, "s");
    m.put("whatif.parse_mb_per_s", mb / parse_s, "MB/s");
    m.put("sweep.compile_s", compile_s, "s");
    m.put("sweep.run_s", med(&run_s), "s");
    m.put("sweep.points_per_s", grid_points as f64 / grid_s, "1/s");
    m.put("sweep.segments_per_s", segs as f64 / grid_s, "1/s");
    m.put("sweep.points_evaluated", evaluated as f64, "count");
    m.put("sweep.points_pruned", pruned as f64, "count");
    m.put("sweep.points_rejected", rejected as f64, "count");
    m.put("analyze.preflight_s", med(&preflight_extra), "s");
    m.put("whatif.replay_point_s", med(&replay_point), "s");
    m.put(
        "sweep.naive_over_batched",
        med(&replay_point) / per_point,
        "ratio",
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::quantile_class;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let (sa, oa, da) = generate(5, 40);
        let (sb, ob, db) = generate(5, 40);
        assert_eq!((sa, oa, da), (sb.clone(), ob.clone(), db));
        let (sc, oc, dc) = generate(6, 40);
        assert_ne!((sb, ob), (sc, oc));
        assert_ne!(db, dc);
    }

    #[test]
    fn every_grid_has_the_same_point_count() {
        let (_, ops, _) = generate(9, 100);
        for op in &ops {
            let clauses: Vec<usize> = op
                .grid
                .split(';')
                .map(|c| c.split_once('=').expect("key=value").1.split(',').count())
                .collect();
            assert_eq!(
                clauses.iter().product::<usize>(),
                GRID_POINTS,
                "{}",
                op.grid
            );
        }
    }

    #[test]
    fn every_seed_runs_the_same_multiset_of_ops() {
        let key = |o: &Op| format!("{} {:?} {}", o.recording, o.kind, o.grid);
        let sorted = |seed| {
            let (_, ops, _) = generate(seed, op_count(20.0));
            let mut keys: Vec<String> = ops.iter().map(key).collect();
            keys.sort();
            keys
        };
        assert_eq!(sorted(1), sorted(2));
    }

    #[test]
    fn windows_rotate_over_the_recording_variants() {
        let (scenarios, ops, _) = generate(3, WINDOW * VARIANTS * 2);
        assert_eq!(scenarios.len(), SHAPES * VARIANTS);
        let seeds: std::collections::BTreeSet<_> =
            scenarios.iter().map(|s| s.problem.seed).collect();
        assert_eq!(seeds.len(), scenarios.len());
        let variants: Vec<usize> = ops
            .chunks(WINDOW)
            .map(|window| {
                let v = window[0].recording / SHAPES;
                assert!(window.iter().all(|o| o.recording / SHAPES == v));
                v
            })
            .collect();
        let (first, second) = variants.split_at(VARIANTS);
        assert_eq!(first, second);
        let mut sorted = first.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..VARIANTS).collect::<Vec<_>>());
    }

    #[test]
    fn window_matches_the_mix() {
        let ops = window_ops();
        assert_eq!(ops.len(), WINDOW);
        for (recording, kind, n) in MIX {
            let found = ops
                .iter()
                .filter(|o| o.recording == recording && o.kind == kind)
                .count();
            assert_eq!(found, n, "{recording} {kind:?}");
        }
    }

    #[test]
    fn schedule_puts_p50_and_p90_in_the_omp_recording_class() {
        for seconds in [10.0, 20.0, 30.0, 40.0] {
            let (_, ops, _) = generate(1, op_count(seconds));
            // Classes from cheapest: every cpu-recording op, then the omp
            // recording's grids.
            let cheap = ops.iter().filter(|o| o.recording % SHAPES == 1).count();
            let n = ops.len();
            let margin = n / 10;
            assert_eq!(quantile_class(&[cheap, n - cheap], 0.5, margin), Ok(1));
            assert_eq!(quantile_class(&[cheap, n - cheap], 0.9, margin), Ok(1));
        }
    }
}
