//! Batched what-if optimization: *compile once, reprice many*.
//!
//! A [`crate::whatif::RecordedWorkload`] answers one "what would this run
//! cost on that hardware?" question per replay. The paper's real question
//! — which framework/hardware combination wins, and by what factor — is a
//! *search* over calibration space, and answering it point-by-point pays
//! the full workload compile (JSONL parse, `String` interning, segment
//! graph allocation) once per grid point. This module amortises all of
//! that:
//!
//! 1. the workload is compiled **once** into the engine's
//!    calibration-invariant arena (segment graph, interned labels,
//!    resource topology, byte/grid quantities);
//! 2. each distinct calibration materializes only a flat cost vector
//!    against that arena (`cost_table`), shared across every GPU count
//!    and schedule policy of the grid;
//! 3. each grid point replays through the discrete-event engine with a
//!    borrowed arena + cost table — no per-point allocation of either;
//! 4. points whose event loops cannot differ share one: each point gets
//!    an *engine key* (its calibration, and its GPU count and resolved
//!    policy where the loop reads them), and the first point of a key in
//!    grid order runs the loop for every point of that key. Each point
//!    still runs its own lower bound, pruning, pre-flight and admission,
//!    and prices its own cost (DESIGN § 5d).
//!
//! On top of the hot path sit three optimizer features:
//!
//! * an **analytic lower bound** per point (critical path vs total work,
//!   see `lower_bound`) that prunes points provably unable to meet a
//!   `--deadline` without replaying them;
//! * **Pareto-front extraction** over (makespan, cost), where cost is a
//!   hardware price proxy ([`crate::calib::relative_node_price`]) times
//!   node-hours;
//! * a **deterministic fan-out**: points are evaluated on every core
//!   (the rayon shim's `fan_out`, scoped std threads pulling slots from a
//!   shared cursor; `RAYON_NUM_THREADS` overrides the worker count, read
//!   on every call)
//!   but each writes only its own pre-allocated slot, and all reductions
//!   walk points in grid order, so sweep output is byte-identical for
//!   every worker count — the same contract the engine's determinism
//!   suite locks.
//!
//! A grid point prices its calibration exactly as
//! [`crate::whatif::RecordedWorkload::replay`] does — the same arena, the
//! same `cost_table` call, the same repricing function — so the identity
//! point is **bit-identical** to
//! [`crate::whatif::RecordedWorkload::replay_identity`], and any preset
//! point is bit-identical to a standalone `replay` of that preset — the
//! differential oracle extended to the batched path.
//!
//! For long-running callers (the serve layer) the module also exposes
//! the sweep in resumable form: [`CompiledSweep`] separates the
//! compile-once arena from grid evaluation so many jobs sharing a
//! recording share one compile, and [`CompiledSweep::run_resumable`]
//! evaluates the grid in chunks, surfacing the completed prefix after
//! each chunk as a [`SweepCheckpoint`] cursor (lossless JSONL, guarded
//! by a content digest). Every entry point — [`sweep`],
//! [`sweep_preflight`], [`CompiledSweep::run`] and `run_resumable` —
//! goes through one grid driver, and every grid point is a pure function
//! of (workload, spec), so a sweep resumed from any cursor produces a
//! result byte-identical to an uninterrupted run.

use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::calib::{relative_node_price, NetCalib, NodeCalib};
use crate::engine::sim::{admit, run_loop, CSeg, CompiledWorkload};
use crate::engine::{EngineError, SchedulePolicyKind};
use crate::json::{self, as_opt_f64, as_str, Esc, Fields, Num, OptNum};
use crate::node::NodeConfig;
use crate::trace::RankTrace;
use crate::whatif::{
    parse_err, preset, presets, reprice, RecordMeta, RecordedWorkload, UnknownPreset, WhatifCalib,
    WhatifError,
};

/// One calibration axis value of a sweep grid: a resolved node + network
/// calibration under a CLI-visible name (`identity` or a preset name),
/// already rescaled to the recording's `work_scale`.
#[derive(Debug, Clone)]
pub struct SweepCalib {
    /// `identity` or a preset name — the label reports and JSONL carry.
    pub name: String,
    /// Node calibration to price kernels/transfers with.
    pub node: NodeCalib,
    /// Network calibration to reprice collectives with.
    pub net: NetCalib,
}

impl SweepCalib {
    /// Resolve a CLI name against the recording: `identity` means "the
    /// recorded calibration", anything else is a preset rescaled by the
    /// recording's `work_scale` (presets are defined at paper scale).
    pub fn resolve(name: &str, meta: &RecordMeta) -> Result<Self, UnknownPreset> {
        if name == "identity" {
            return Ok(Self::identity(meta));
        }
        Ok(Self::from_preset(preset(name)?, meta))
    }

    fn identity(meta: &RecordMeta) -> Self {
        Self {
            name: "identity".into(),
            node: meta.node_calib,
            net: meta.net_calib,
        }
    }

    fn from_preset(p: WhatifCalib, meta: &RecordMeta) -> Self {
        Self {
            name: p.name.to_string(),
            node: p.node.rescaled(meta.work_scale),
            net: p.net,
        }
    }
}

/// The grid a sweep evaluates: every combination of calibration × GPUs
/// per node × schedule policy, optionally under a makespan deadline.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    pub calibs: Vec<SweepCalib>,
    pub gpus: Vec<u32>,
    pub schedules: Vec<SchedulePolicyKind>,
    /// Makespan budget in seconds: points whose analytic lower bound
    /// already exceeds it are pruned without a replay, and
    /// [`SweepResult::best_under_deadline`] picks the cheapest point that
    /// meets it.
    pub deadline: Option<f64>,
}

impl SweepSpec {
    /// The default grid for a recording: identity plus every preset on
    /// the calibration axis, the recorded GPU count and schedule on the
    /// other two, no deadline.
    pub fn default_grid(meta: &RecordMeta) -> Self {
        let presets = presets()
            .into_iter()
            .map(|p| SweepCalib::from_preset(p, meta));
        Self {
            calibs: std::iter::once(SweepCalib::identity(meta))
                .chain(presets)
                .collect(),
            gpus: vec![meta.gpus],
            schedules: vec![meta.schedule],
            deadline: None,
        }
    }

    /// Parse a `key=value;key=value` grid spec
    /// (`gpus=1,2,4..8;calib=identity,h100;schedule=mps,fifo`).
    /// Unspecified axes keep the [`SweepSpec::default_grid`] values.
    pub fn parse_grid(grid: &str, meta: &RecordMeta) -> Result<Self, String> {
        let mut spec = Self::default_grid(meta);
        for part in grid.split(';').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("grid clause '{part}' is not key=value"))?;
            match key.trim() {
                "gpus" => spec.gpus = parse_gpus(value)?,
                "calib" => spec.calibs = parse_calibs(value, meta)?,
                "schedule" => spec.schedules = parse_schedules(value)?,
                other => {
                    return Err(format!(
                        "unknown grid axis '{other}' (expected gpus, calib or schedule)"
                    ))
                }
            }
        }
        Ok(spec)
    }

    /// Number of grid points this spec enumerates.
    pub fn point_count(&self) -> usize {
        self.calibs.len() * self.gpus.len() * self.schedules.len()
    }
}

/// Parse a GPU-count axis: comma-separated values and inclusive `lo..hi`
/// ranges (`"2..4,8"` → `[2, 3, 4, 8]`).
pub fn parse_gpus(s: &str) -> Result<Vec<u32>, String> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if let Some((lo, hi)) = part.split_once("..") {
            let lo: u32 = lo
                .trim()
                .parse()
                .map_err(|_| format!("invalid gpu range start in '{part}'"))?;
            let hi: u32 = hi
                .trim()
                .parse()
                .map_err(|_| format!("invalid gpu range end in '{part}'"))?;
            if lo < 1 || hi < lo {
                return Err(format!("invalid gpu range '{part}' (need 1 <= lo <= hi)"));
            }
            out.extend(lo..=hi);
        } else {
            let v: u32 = part
                .parse()
                .map_err(|_| format!("invalid gpu count '{part}'"))?;
            if v < 1 {
                return Err(format!("gpu count must be >= 1, got '{part}'"));
            }
            out.push(v);
        }
    }
    Ok(out)
}

/// Parse a comma-separated calibration axis (`identity,a100,h100`),
/// resolving each name against the recording.
pub fn parse_calibs(s: &str, meta: &RecordMeta) -> Result<Vec<SweepCalib>, String> {
    s.split(',')
        .map(|name| SweepCalib::resolve(name.trim(), meta).map_err(|e| e.to_string()))
        .collect()
}

/// Parse a comma-separated schedule axis (`auto,mps,fifo`).
pub fn parse_schedules(s: &str) -> Result<Vec<SchedulePolicyKind>, String> {
    s.split(',').map(|p| p.trim().parse()).collect()
}

/// One evaluated (or pruned) grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Calibration name (`identity` or a preset).
    pub calib: String,
    /// GPUs per node.
    pub gpus: u32,
    /// Kernel arbitration policy.
    pub schedule: SchedulePolicyKind,
    /// Analytic makespan lower bound (critical path vs total work);
    /// `0.0` when the point's cost table failed to materialize.
    pub lower_bound: f64,
    /// Replayed makespan; `None` when pruned or errored.
    pub makespan: Option<f64>,
    /// Cost proxy: nodes × gpus × [`relative_node_price`] × makespan
    /// ("node-GPU-hours at relative hardware price").
    pub cost: Option<f64>,
    /// Whether the pruner skipped the replay (`lower_bound > deadline`).
    pub pruned: bool,
    /// Replay failure (e.g. the configuration does not fit in device
    /// memory), kept per-point so one OOM cannot abort the sweep.
    pub error: Option<String>,
}

impl SweepPoint {
    /// One `point` JSONL object, exactly the line [`SweepResult::to_jsonl`]
    /// writes. `pareto` is a property of the whole result, not the point,
    /// so the caller supplies it (checkpoints write `false`).
    pub fn to_json(&self, pareto: bool) -> String {
        json::write_string(|out| self.write_json(out, pareto))
    }

    /// [`SweepPoint::to_json`], appended to `out`.
    fn write_json(&self, out: &mut String, pareto: bool) -> fmt::Result {
        write!(
            out,
            concat!(
                "{{\"type\":\"point\",\"calib\":\"{}\",\"gpus\":{},\"schedule\":\"{}\",",
                "\"lower_bound\":{},\"pruned\":{},\"makespan\":{},\"cost\":{},\"pareto\":{}"
            ),
            Esc(&self.calib),
            self.gpus,
            self.schedule,
            Num(self.lower_bound),
            self.pruned,
            OptNum(self.makespan),
            OptNum(self.cost),
            pareto,
        )?;
        if let Some(e) = &self.error {
            write!(out, ",\"error\":\"{}\"", Esc(e))?;
        }
        out.write_char('}')
    }

    /// Parse a `point` line back (the checkpoint reader); `ln` is its
    /// line in the enclosing file. Lossless: the shortest-round-trip
    /// float encoding restores the exact bits, so a parsed point
    /// re-serializes byte-identically. The `pareto` value is checked and
    /// dropped, because front membership is recomputed when the sweep
    /// finishes.
    pub fn parse(line: &str, ln: usize) -> Result<Self, WhatifError> {
        let mut f = Fields::of(json::parse_line(line, ln)?, "point line", ln)?;
        if f.str_ref("type")? != "point" {
            return Err(parse_err(ln, "not a point line"));
        }
        let point = SweepPoint {
            calib: f.str("calib")?,
            gpus: f.int("gpus")?,
            schedule: f
                .str("schedule")?
                .parse()
                .map_err(|e: String| parse_err(ln, e))?,
            lower_bound: f.f64("lower_bound")?,
            pruned: f.bool("pruned")?,
            makespan: as_opt_f64(f.require("makespan")?, "makespan")?,
            cost: as_opt_f64(f.require("cost")?, "cost")?,
            error: f.opt("error", as_str)?,
        };
        f.bool("pareto")?;
        f.finish()?;
        Ok(point)
    }
}

/// What a sweep produced: every point in deterministic grid order
/// (calibration-major, then GPUs, then schedule) plus the extracted
/// optima.
#[derive(Debug, Clone)]
pub struct SweepResult {
    pub points: Vec<SweepPoint>,
    /// Indices into `points` of the Pareto front over (makespan, cost),
    /// sorted by makespan ascending. No member is dominated by any
    /// evaluated point.
    pub pareto: Vec<usize>,
    /// Index of the cheapest point whose makespan meets the deadline,
    /// when a deadline was set and any point meets it.
    pub best_under_deadline: Option<usize>,
    pub deadline: Option<f64>,
    /// Arena entries compiled once and shared by every point.
    pub compiled_segments: usize,
    /// Points with a makespan.
    pub evaluated: usize,
    /// Event loops run: one per distinct engine key among the points that
    /// passed admission, so at most `evaluated` plus the points whose loop
    /// failed. Not serialized, like [`SweepResult::rejected`].
    pub replays: usize,
    /// Points skipped by the lower-bound pruner.
    pub pruned: usize,
    /// Points rejected statically by [`sweep_preflight`] without a
    /// replay (always `0` for [`sweep`]). Deliberately *not* serialized:
    /// a rejected point carries the same error text a replay would, so
    /// the JSONL output stays bit-identical across the two modes.
    pub rejected: usize,
}

impl SweepResult {
    /// Serialize as JSONL: one `sweep` header line, then one `point` line
    /// per grid point in grid order. Deterministic byte-for-byte (the
    /// determinism suite compares this output across thread counts);
    /// floats use the same shortest-round-trip encoding as the workload
    /// format.
    pub fn to_jsonl(&self) -> String {
        json::write_string(|out| self.write_jsonl(out))
    }

    fn write_jsonl(&self, out: &mut String) -> fmt::Result {
        writeln!(
            out,
            concat!(
                "{{\"type\":\"sweep\",\"points\":{},\"evaluated\":{},\"pruned\":{},",
                "\"deadline\":{},\"compiled_segments\":{}}}"
            ),
            self.points.len(),
            self.evaluated,
            self.pruned,
            OptNum(self.deadline),
            self.compiled_segments,
        )?;
        for (i, p) in self.points.iter().enumerate() {
            p.write_json(out, self.pareto.contains(&i))?;
            out.write_char('\n')?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Checkpoint cursor
// ---------------------------------------------------------------------------

/// A sweep cursor: the first `points.len()` grid points of a sweep, in
/// grid order, already evaluated. Serialized as lossless JSONL (one
/// header line, then the same `point` lines the sweep result uses), so a
/// killed sweep resumes from the cursor and still produces output
/// byte-identical to an uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    /// Grid size of the full sweep — a cursor for a different grid shape
    /// is refused at parse time.
    pub total: usize,
    /// [`sweep_digest`] of the (workload, spec) the cursor belongs to;
    /// resuming callers compare it before adopting the cursor.
    pub digest: u64,
    /// Completed prefix, grid order.
    pub points: Vec<SweepPoint>,
}

impl SweepCheckpoint {
    /// Serialize: one `sweep_checkpoint` header line, then one `point`
    /// line per completed grid point. Deterministic byte-for-byte.
    pub fn to_jsonl(&self) -> String {
        json::write_string(|out| self.write_jsonl(out))
    }

    fn write_jsonl(&self, out: &mut String) -> fmt::Result {
        writeln!(
            out,
            concat!(
                "{{\"type\":\"sweep_checkpoint\",\"version\":1,\"digest\":{},",
                "\"total\":{},\"completed\":{}}}"
            ),
            self.digest,
            self.total,
            self.points.len(),
        )?;
        for p in &self.points {
            p.write_json(out, false)?;
            out.write_char('\n')?;
        }
        Ok(())
    }

    /// Parse a serialized cursor. Typed errors on malformed lines, a
    /// version this build does not read, or a cursor whose declared
    /// `completed` count disagrees with the point lines it carries (a
    /// torn write — the atomic [`SweepCheckpoint::write`] never produces
    /// one, but a cursor is exactly the file one reads after a crash).
    pub fn parse_jsonl(text: &str) -> Result<Self, WhatifError> {
        let mut lines = text.lines().enumerate();
        let header = lines.next().map_or("", |(_, l)| l);
        let mut f = Fields::of(json::parse_line(header, 1)?, "checkpoint header", 1)?;
        if f.str_ref("type")? != "sweep_checkpoint" {
            return Err(parse_err(1, "not a sweep checkpoint (bad header line)"));
        }
        let version: u64 = f.int("version")?;
        if version != 1 {
            return Err(parse_err(
                1,
                format!("unsupported checkpoint version {version} (this build reads version 1)"),
            ));
        }
        let digest: u64 = f.int("digest")?;
        let total: usize = f.int("total")?;
        let completed: usize = f.int("completed")?;
        f.finish()?;
        if completed > total {
            return Err(parse_err(
                1,
                format!("checkpoint cursor {completed} exceeds grid size {total}"),
            ));
        }
        let mut points = Vec::new();
        for (i, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            points.push(SweepPoint::parse(line, i + 1)?);
        }
        if points.len() != completed {
            return Err(parse_err(
                1,
                format!(
                    "checkpoint declares {completed} completed points but carries {}",
                    points.len()
                ),
            ));
        }
        Ok(SweepCheckpoint {
            total,
            digest,
            points,
        })
    }

    /// Read a cursor file.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, WhatifError> {
        let text = std::fs::read_to_string(path)?;
        Self::parse_jsonl(&text)
    }

    /// Atomic, durable write: the temp file is fsynced before it is
    /// renamed over `path`, and the directory after, so neither a kill
    /// nor a power loss mid-write leaves a torn cursor behind, only the
    /// previous complete one.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(self.to_jsonl().as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
    }
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Content digest of a recording: FNV-1a over its serialized JSONL. The
/// serve layer coalesces queued sweep jobs by this key, so two paths to
/// identical recording bytes share one compile.
pub fn workload_digest(workload: &RecordedWorkload) -> u64 {
    fnv1a(0xcbf2_9ce4_8422_2325, workload.to_jsonl().as_bytes())
}

/// Identity of a (workload, grid) pair. A resume checks the cursor's
/// digest against the job's before adopting it, so a checkpoint written
/// for different inputs is never spliced into a sweep.
pub fn sweep_digest(workload: &RecordedWorkload, spec: &SweepSpec) -> u64 {
    sweep_digest_from(workload_digest(workload), spec)
}

/// [`sweep_digest`] for a recording whose [`workload_digest`] is already
/// known: the grid folded onto it, without serializing the recording
/// again.
pub fn sweep_digest_from(workload_digest: u64, spec: &SweepSpec) -> u64 {
    let mut h = workload_digest;
    for c in &spec.calibs {
        h = fnv1a(h, c.name.as_bytes());
        h = fnv1a(h, b",");
    }
    h = fnv1a(h, b";");
    for g in &spec.gpus {
        h = fnv1a(h, g.to_string().as_bytes());
        h = fnv1a(h, b",");
    }
    h = fnv1a(h, b";");
    for s in &spec.schedules {
        h = fnv1a(h, s.to_string().as_bytes());
        h = fnv1a(h, b",");
    }
    h = fnv1a(h, b";");
    if let Some(d) = spec.deadline {
        h = fnv1a(h, Num(d).to_string().as_bytes());
    }
    h
}

/// Why a resumed sweep refused its cursor.
#[derive(Debug)]
pub enum SweepResumeError {
    /// The cursor carries more points than the grid enumerates.
    CursorBeyondGrid { completed: usize, total: usize },
    /// A completed point's (calib, gpus, schedule) key does not match
    /// its grid slot — the cursor belongs to a different spec.
    CursorMismatch {
        index: usize,
        expected: String,
        found: String,
    },
}

impl std::fmt::Display for SweepResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepResumeError::CursorBeyondGrid { completed, total } => write!(
                f,
                "checkpoint cursor has {completed} completed points but the grid has only {total}"
            ),
            SweepResumeError::CursorMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "checkpoint point {index} is {found} but the grid expects {expected} there"
            ),
        }
    }
}

impl std::error::Error for SweepResumeError {}

/// Analytic makespan lower bound for one (calibration, gpus) pair,
/// computed from the cost table without running the event loop.
///
/// The bound is the max of per-chain and per-resource aggregates, each of
/// which no schedule can beat:
///
/// * **per-rank critical path** — host seconds, kernel lead-ins plus solo
///   wall time (`device_seconds / util`; every policy serves a kernel at
///   rate ≤ its solo utilisation), collective network phases (NIC rate
///   ≤ 1), and synchronous transfers. With overlapped streams the
///   transfers leave the chain but the rank still cannot finish before
///   its own stream's summed link time;
/// * **per-GPU total device work** — every policy's aggregate service
///   rate is ≤ 1, so Σ `device_seconds` of co-located ranks is a floor;
/// * **per-link total transfer time** and **per-NIC total collective
///   time** — links and NICs are shared equally, aggregate rate 1.
///
/// Barrier waits and contention only add time, so pruning on
/// `lower_bound > deadline` never discards a feasible point. A node whose
/// class is an earlier node adds only terms that node already added, and
/// `f64::max` of bit-equal values changes nothing, so each class is
/// bounded once.
pub(crate) fn lower_bound(
    compiled: &CompiledWorkload,
    costs: &[CSeg],
    gpus: u32,
    overlap_transfers: bool,
) -> f64 {
    let gpus = gpus.max(1) as usize;
    let mut bound: f64 = 0.0;
    for (n, node) in compiled.nodes.iter().enumerate() {
        if node.class != n {
            continue;
        }
        let segs = &costs[node.seg_base..node.seg_base + node.seg_len];
        let mut gpu_work = vec![0.0f64; gpus];
        let mut link_work = vec![0.0f64; gpus];
        let mut nic_work = 0.0f64;
        for (local, r) in node.ranks.iter().enumerate() {
            let g = local % gpus;
            let mut chain = 0.0f64;
            let mut streamed = 0.0f64;
            for seg in &segs[r.seg_start as usize..r.seg_end as usize] {
                match *seg {
                    CSeg::Host { seconds, .. } => chain += seconds,
                    CSeg::Kernel {
                        lead,
                        device_seconds,
                        util,
                        ..
                    } => {
                        chain += lead + device_seconds / util;
                        gpu_work[g] += device_seconds;
                    }
                    CSeg::Transfer { seconds, .. } => {
                        if overlap_transfers {
                            streamed += seconds;
                        } else {
                            chain += seconds;
                        }
                        link_work[g] += seconds;
                    }
                    CSeg::Collective { seconds, .. } => {
                        chain += seconds;
                        nic_work += seconds;
                    }
                }
            }
            bound = bound.max(chain).max(streamed);
        }
        for g in 0..gpus {
            bound = bound.max(gpu_work[g]).max(link_work[g]);
        }
        bound = bound.max(nic_work);
    }
    bound
}

/// Run the sweep: compile the workload once, materialize one cost table
/// per calibration, then evaluate every grid point against the shared
/// arena. Only a malformed *recording* (non-finite recorded charge)
/// fails the whole sweep; per-point failures (OOM, a preset deriving a
/// non-finite cost) are captured on their [`SweepPoint`].
pub fn sweep(workload: &RecordedWorkload, spec: &SweepSpec) -> Result<SweepResult, EngineError> {
    Ok(CompiledSweep::compile(workload)?.run(spec))
}

/// [`sweep`] with the static pre-flight gate enabled: before replaying a
/// point, the analyzer's exact predictors (`analyze::predict_oom`,
/// `analyze::predict_deadlock`) decide whether the engine would reject
/// it. Statically-rejected points skip the replay entirely and record
/// the *same* error text the replay would have produced, so the
/// serialized output is bit-identical to [`sweep`]'s — only wall-clock
/// time and [`SweepResult::rejected`] differ.
pub fn sweep_preflight(
    workload: &RecordedWorkload,
    spec: &SweepSpec,
) -> Result<SweepResult, EngineError> {
    let cs = CompiledSweep::compile(workload)?;
    Ok(cs.drive(spec, true, blank_points(spec), 0, usize::MAX, &mut |_| {}))
}

/// A workload compiled once into the engine's calibration-invariant
/// arena, ready to evaluate many grids. This is the serve layer's
/// coalescing unit: queued sweep jobs that share a recording share one
/// `CompiledSweep`, so the segment-graph build and label interning are
/// paid once per batch rather than once per job.
pub struct CompiledSweep<'w> {
    workload: &'w RecordedWorkload,
    compiled: CompiledWorkload,
}

impl<'w> CompiledSweep<'w> {
    /// Compile the recording's traces into the shared arena.
    pub fn compile(workload: &'w RecordedWorkload) -> Result<Self, EngineError> {
        let compiled = workload.compile()?;
        Ok(Self { workload, compiled })
    }

    /// Arena entries shared by every grid point.
    pub fn segment_count(&self) -> usize {
        self.compiled.segment_count()
    }

    /// Evaluate a full grid against the shared arena — [`sweep`] minus
    /// the compile.
    pub fn run(&self, spec: &SweepSpec) -> SweepResult {
        self.drive(spec, false, blank_points(spec), 0, usize::MAX, &mut |_| {})
    }

    /// [`CompiledSweep::run`] in resumable chunks: adopt an
    /// already-evaluated grid prefix (`completed`, typically a parsed
    /// [`SweepCheckpoint`]), evaluate the rest `chunk` points at a time,
    /// and hand the full completed prefix to `on_checkpoint` after every
    /// chunk. Each grid point is a pure function of (workload, spec), so
    /// the result — and its serialized bytes — are identical for every
    /// (cursor, chunk size) combination, including the uninterrupted
    /// `completed = []` run. The cursor's point *keys* are verified
    /// against their grid slots; a mismatch is a typed error, never a
    /// silently wrong sweep.
    pub fn run_resumable(
        &self,
        spec: &SweepSpec,
        completed: &[SweepPoint],
        chunk: usize,
        on_checkpoint: &mut dyn FnMut(&[SweepPoint]),
    ) -> Result<SweepResult, SweepResumeError> {
        let mut points = blank_points(spec);
        let total = points.len();
        if completed.len() > total {
            return Err(SweepResumeError::CursorBeyondGrid {
                completed: completed.len(),
                total,
            });
        }
        let key = |p: &SweepPoint| format!("{}/{}gpus/{}", p.calib, p.gpus, p.schedule);
        for (i, done) in completed.iter().enumerate() {
            let want = &points[i];
            if done.calib != want.calib || done.gpus != want.gpus || done.schedule != want.schedule
            {
                return Err(SweepResumeError::CursorMismatch {
                    index: i,
                    expected: key(want),
                    found: key(done),
                });
            }
            points[i] = done.clone();
        }
        Ok(self.drive(spec, false, points, completed.len(), chunk, on_checkpoint))
    }

    /// The one grid driver: evaluate `points[done..]` `chunk` points at a
    /// time, handing the completed prefix to `on_checkpoint` after each
    /// chunk, with the static pre-flight gate when `preflight` is set.
    fn drive(
        &self,
        spec: &SweepSpec,
        preflight: bool,
        mut points: Vec<SweepPoint>,
        done: usize,
        chunk: usize,
        on_checkpoint: &mut dyn FnMut(&[SweepPoint]),
    ) -> SweepResult {
        let ctx = GridCtx::new(self, spec, preflight);
        // One loop outcome per engine key, kept across chunks.
        let mut loops = HashMap::new();
        let total = points.len();
        let mut hi = done;
        while hi < total {
            let lo = hi;
            hi = lo + chunk.clamp(1, total - lo);
            ctx.eval_slots(&mut points[lo..hi], lo, &mut loops);
            on_checkpoint(&points[..hi]);
        }
        ctx.finish(points, loops.len())
    }
}

/// Every point of `spec` in grid order (calibration-major), blank. Each
/// fan-out worker writes only the slot it took, so output order — and
/// therefore the serialized result — is thread-count-independent.
fn blank_points(spec: &SweepSpec) -> Vec<SweepPoint> {
    let mut points = Vec::with_capacity(spec.point_count());
    for c in &spec.calibs {
        for &g in &spec.gpus {
            for &s in &spec.schedules {
                points.push(SweepPoint {
                    calib: c.name.clone(),
                    gpus: g,
                    schedule: s,
                    lower_bound: 0.0,
                    makespan: None,
                    cost: None,
                    pruned: false,
                    error: None,
                });
            }
        }
    }
    points
}

/// The static pre-flight context of a [`sweep_preflight`] grid.
struct Preflight<'a> {
    nodes: &'a [Arc<[RankTrace]>],
    deadlock: Option<String>,
}

/// What the event loop of a grid point reads besides the shared arena:
/// its calibration's cost table, and its GPU count and resolved policy
/// where those reach the loop. Points with equal keys replay the same
/// events in the same order, so a grid runs one loop per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EngineKey {
    calib: usize,
    /// Effective GPU count and resolved policy name; `None` where the
    /// loop reads neither (every GPU holds at most one rank, or the arena
    /// has no device segment).
    device: Option<(u32, &'static str)>,
}

/// A grid point that passed every per-point check: its engine key and
/// what its key's event loop replays.
#[derive(Clone, Copy)]
struct Admitted<'t> {
    key: EngineKey,
    cfg: NodeConfig,
    costs: &'t [CSeg],
}

/// One key's event loop outcome: the makespan, or the error every point
/// of the key records.
type LoopOutcome = Result<f64, EngineError>;

/// Everything one grid evaluation needs: the shared arena, one cost
/// table per calibration, the spec and the optional pre-flight.
struct GridCtx<'a> {
    spec: &'a SweepSpec,
    meta: &'a RecordMeta,
    compiled: &'a CompiledWorkload,
    /// One cost table per calibration, priced by the first point of the
    /// calibration that needs it, inside the fan-out, and shared across
    /// the gpus × schedule sub-grid. A broken calibration poisons only its
    /// own points.
    tables: Vec<OnceLock<Result<Vec<CSeg>, EngineError>>>,
    /// One makespan lower bound per (calibration, GPU count), filled by
    /// the first point of the pair that needs it: the bound reads only
    /// the cost table, the GPU count and `overlap_transfers`, so every
    /// schedule of the pair shares it.
    bounds: Vec<OnceLock<f64>>,
    per_calib: usize,
    nodes: usize,
    /// The most ranks any node holds.
    max_ranks: usize,
    /// The arena holds no kernel and no transfer.
    device_free: bool,
    pre: Option<Preflight<'a>>,
    /// Points the pre-flight rejected, counted across fan-out workers.
    rejected: AtomicUsize,
}

impl<'a> GridCtx<'a> {
    fn new(cs: &'a CompiledSweep<'_>, spec: &'a SweepSpec, preflight: bool) -> Self {
        let meta = &cs.workload.meta;
        // Pre-flight: the deadlock verdict is a property of the workload
        // alone (it depends on neither calibration nor GPU count), so it
        // is decided once here; the OOM verdict depends on (calibration,
        // gpus) and is re-derived per point inside the fan-out. Both
        // predictors replicate the engine's own checks exactly, so the
        // recorded error text matches what a replay would have produced.
        let nodes = &cs.workload.nodes;
        let pre = preflight.then(|| Preflight {
            nodes,
            deadlock: crate::analyze::predict_deadlock(nodes).map(|e| e.to_string()),
        });
        GridCtx {
            spec,
            meta,
            compiled: &cs.compiled,
            tables: spec.calibs.iter().map(|_| OnceLock::new()).collect(),
            bounds: (0..spec.calibs.len() * spec.gpus.len())
                .map(|_| OnceLock::new())
                .collect(),
            per_calib: spec.gpus.len() * spec.schedules.len(),
            nodes: nodes.len().max(1),
            max_ranks: cs
                .compiled
                .nodes
                .iter()
                .map(|n| n.ranks.len())
                .max()
                .unwrap_or(0),
            device_free: cs.compiled.device_free(),
            pre,
            rejected: AtomicUsize::new(0),
        }
    }

    /// Evaluate `slots`, the grid points from index `first` on: every
    /// point's own checks across the fan-out workers, then one event loop
    /// per engine key not yet in `loops` (run under the configuration of
    /// its first point in grid order), then each admitted point's makespan
    /// and cost from its key's outcome.
    fn eval_slots(
        &self,
        slots: &mut [SweepPoint],
        first: usize,
        loops: &mut HashMap<EngineKey, LoopOutcome>,
    ) {
        let workers = rayon::worker_count();
        let mut staged: Vec<(&mut SweepPoint, Option<Admitted<'_>>)> =
            slots.iter_mut().map(|pt| (pt, None)).collect();
        rayon::fan_out(&mut staged, first, workers, |i, (pt, admitted)| {
            *admitted = self.admit(i, pt);
        });
        let mut pending = HashSet::new();
        let mut leaders: Vec<(Admitted<'_>, Option<LoopOutcome>)> = staged
            .iter()
            .filter_map(|(_, a)| *a)
            .filter(|a| !loops.contains_key(&a.key) && pending.insert(a.key))
            .map(|a| (a, None))
            .collect();
        rayon::fan_out(&mut leaders, 0, workers, |_, (a, out)| {
            *out = Some(run_loop(self.compiled, a.costs, &a.cfg, false).map(|o| o.wall_seconds()));
        });
        loops.extend(
            leaders
                .into_iter()
                .filter_map(|(a, out)| Some((a.key, out?))),
        );
        for (pt, admitted) in staged {
            let Some(a) = admitted else { continue };
            if let Some(outcome) = loops.get(&a.key) {
                self.price(pt, a.key.calib, outcome);
            }
        }
    }

    /// A point's own checks, in the engine's order: its cost table, the
    /// lower bound against the deadline, the pre-flight, then admission.
    /// `Some` when the point reaches the event loop.
    fn admit(&self, i: usize, pt: &mut SweepPoint) -> Option<Admitted<'_>> {
        let c = i / self.per_calib;
        let calib = &self.spec.calibs[c];
        let table = self.tables[c].get_or_init(|| {
            let reprice = reprice(self.meta, &calib.node, &calib.net);
            self.compiled.cost_table(&calib.node.gpu, &reprice)
        });
        let costs = match table {
            Ok(t) => t,
            Err(e) => {
                pt.error = Some(e.to_string());
                return None;
            }
        };
        // Grid order is calibration-major, then GPUs, then schedule.
        let pair = c * self.spec.gpus.len() + (i % self.per_calib) / self.spec.schedules.len();
        pt.lower_bound = *self.bounds[pair].get_or_init(|| {
            lower_bound(self.compiled, costs, pt.gpus, self.meta.overlap_transfers)
        });
        if let Some(deadline) = self.spec.deadline {
            if pt.lower_bound > deadline {
                pt.pruned = true;
                return None;
            }
        }
        if let Some(pre) = &self.pre {
            // Same order as the engine: the OOM admission check runs
            // before the first event, a deadlock only after replaying
            // to quiescence.
            let verdict = crate::analyze::predict_oom(pre.nodes, calib.node.gpu.mem_bytes, pt.gpus)
                .map(|e| e.to_string())
                .or_else(|| pre.deadlock.clone());
            if let Some(e) = verdict {
                pt.error = Some(e);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        let cfg = NodeConfig {
            calib: calib.node,
            gpus: pt.gpus,
            mps: self.meta.mps,
            schedule: pt.schedule,
            overlap_transfers: self.meta.overlap_transfers,
        };
        if let Err(e) = admit(self.compiled, &cfg) {
            pt.error = Some(e.to_string());
            return None;
        }
        let key = self.engine_key(c, &cfg);
        Some(Admitted { key, cfg, costs })
    }

    /// The engine key of calibration `calib` under `cfg`. Three rules
    /// collapse keys, each exact (DESIGN § 5d): (a) the loop reads the
    /// resolved policy, not the schedule name; (b) with at least as many
    /// GPUs as the fullest node has ranks, every GPU holds at most one
    /// rank, and every policy serves a lone kernel at exactly its solo
    /// rate with no switch charge (MPS multiplies a finite crowding factor
    /// by zero co-tenants); (c) without kernels or transfers no GPU pool or
    /// link is ever touched.
    fn engine_key(&self, calib: usize, cfg: &NodeConfig) -> EngineKey {
        let gpus = cfg.gpus.max(1);
        let solo = gpus as usize >= self.max_ranks && cfg.calib.gpu.mps_crowding.is_finite();
        let device = !(self.device_free || solo);
        EngineKey {
            calib,
            device: device.then(|| (gpus, cfg.schedule.resolve(cfg.mps).name())),
        }
    }

    /// Record a point's loop outcome under calibration `calib`; the cost
    /// uses the point's own GPU count.
    fn price(&self, pt: &mut SweepPoint, calib: usize, outcome: &LoopOutcome) {
        match outcome {
            Ok(makespan) => {
                let calib = &self.spec.calibs[calib];
                pt.makespan = Some(*makespan);
                pt.cost = Some(
                    self.nodes as f64
                        * pt.gpus as f64
                        * relative_node_price(&calib.node, &calib.net)
                        * makespan,
                );
            }
            Err(e) => pt.error = Some(e.to_string()),
        }
    }

    fn finish(self, points: Vec<SweepPoint>, replays: usize) -> SweepResult {
        let pareto = pareto_front(&points);
        let best_under_deadline = self.spec.deadline.and_then(|d| {
            points
                .iter()
                .enumerate()
                .filter(|(_, p)| p.makespan.is_some_and(|m| m <= d))
                .min_by(|(ai, a), (bi, b)| {
                    (a.cost, a.makespan, ai)
                        .partial_cmp(&(b.cost, b.makespan, bi))
                        .expect("evaluated points have finite cost/makespan")
                })
                .map(|(i, _)| i)
        });
        let evaluated = points.iter().filter(|p| p.makespan.is_some()).count();
        let pruned = points.iter().filter(|p| p.pruned).count();
        SweepResult {
            points,
            pareto,
            best_under_deadline,
            deadline: self.spec.deadline,
            compiled_segments: self.compiled.segment_count(),
            evaluated,
            replays,
            pruned,
            rejected: self.rejected.into_inner(),
        }
    }
}

/// Indices of the non-dominated evaluated points over (makespan, cost):
/// no other evaluated point is ≤ on both axes and < on at least one.
/// Sorted by makespan ascending (ties: cost, then grid index) so the
/// front reads as a frontier.
fn pareto_front(points: &[SweepPoint]) -> Vec<usize> {
    let evaluated: Vec<(usize, f64, f64)> = points
        .iter()
        .enumerate()
        .filter_map(|(i, p)| Some((i, p.makespan?, p.cost?)))
        .collect();
    let mut front: Vec<usize> = evaluated
        .iter()
        .filter(|&&(_, m, c)| {
            !evaluated
                .iter()
                .any(|&(_, om, oc)| om <= m && oc <= c && (om < m || oc < c))
        })
        .map(|&(i, _, _)| i)
        .collect();
    front.sort_by(|&a, &b| {
        (points[a].makespan, points[a].cost, a)
            .partial_cmp(&(points[b].makespan, points[b].cost, b))
            .expect("front points have finite makespan/cost")
    });
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::KernelProfile;
    use crate::trace::{Segment, TransferDir};

    fn sample_workload() -> RecordedWorkload {
        let mk = |f: f64| RankTrace {
            segments: vec![
                Segment::Host {
                    seconds: 0.002 * f,
                    label: "serial".into(),
                },
                Segment::Transfer {
                    bytes: 5e7 * f,
                    dir: TransferDir::HostToDevice,
                    label: "accel_data_update_device".into(),
                },
                Segment::Kernel {
                    profile: KernelProfile::uniform("k", 1e7, 40.0 * f, 8.0),
                    dispatch: 1e-5,
                },
                Segment::DeviceAlloc { seconds: 1e-4 },
                Segment::Collective {
                    seconds: 1e-3,
                    bytes: 1e6,
                    label: "mpi_allreduce".into(),
                },
            ],
            events: Vec::new(),
            peak_device_bytes: 1 << 30,
        };
        RecordedWorkload {
            meta: RecordMeta {
                label: "sweep test".into(),
                total_ranks: 8,
                ..RecordMeta::default()
            },
            nodes: vec![Arc::from(vec![mk(1.0), mk(1.4), mk(1.8), mk(2.2)]); 2],
        }
    }

    #[test]
    fn grid_order_is_calibration_major() {
        let w = sample_workload();
        let spec = SweepSpec {
            calibs: vec![
                SweepCalib::resolve("identity", &w.meta).unwrap(),
                SweepCalib::resolve("h100", &w.meta).unwrap(),
            ],
            gpus: vec![2, 4],
            schedules: vec![SchedulePolicyKind::Auto, SchedulePolicyKind::Fifo],
            deadline: None,
        };
        assert_eq!(spec.point_count(), 8);
        let res = sweep(&w, &spec).unwrap();
        let keys: Vec<(String, u32, String)> = res
            .points
            .iter()
            .map(|p| (p.calib.clone(), p.gpus, p.schedule.to_string()))
            .collect();
        assert_eq!(keys[0], ("identity".into(), 2, "auto".into()));
        assert_eq!(keys[1], ("identity".into(), 2, "fifo".into()));
        assert_eq!(keys[2], ("identity".into(), 4, "auto".into()));
        assert_eq!(keys[4], ("h100".into(), 2, "auto".into()));
        assert_eq!(res.evaluated, 8);
        assert_eq!(res.pruned, 0);
    }

    #[test]
    fn identity_point_matches_replay_identity_bitwise() {
        let w = sample_workload();
        let spec = SweepSpec::default_grid(&w.meta);
        let res = sweep(&w, &spec).unwrap();
        let id = res
            .points
            .iter()
            .find(|p| p.calib == "identity")
            .expect("identity in default grid");
        let oracle = w.replay_identity().unwrap().cluster.wall_seconds;
        assert_eq!(id.makespan.unwrap().to_bits(), oracle.to_bits());
    }

    #[test]
    fn preset_points_match_standalone_replay_bitwise() {
        let w = sample_workload();
        for name in ["h100", "a100-nvlink", "slingshot11"] {
            let calib = SweepCalib::resolve(name, &w.meta).unwrap();
            let spec = SweepSpec {
                calibs: vec![calib.clone()],
                gpus: vec![2],
                schedules: vec![w.meta.schedule],
                deadline: None,
            };
            let res = sweep(&w, &spec).unwrap();
            let standalone = w
                .replay(&calib.node, &calib.net, Some(2))
                .unwrap()
                .cluster
                .wall_seconds;
            assert_eq!(
                res.points[0].makespan.unwrap().to_bits(),
                standalone.to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn lower_bound_never_exceeds_makespan() {
        let w = sample_workload();
        let mut spec = SweepSpec::default_grid(&w.meta);
        spec.gpus = vec![1, 2, 4];
        spec.schedules = vec![
            SchedulePolicyKind::Auto,
            SchedulePolicyKind::TimeSliced,
            SchedulePolicyKind::Fifo,
        ];
        let res = sweep(&w, &spec).unwrap();
        for p in &res.points {
            let m = p.makespan.expect("all points evaluate");
            assert!(
                p.lower_bound <= m * (1.0 + 1e-12),
                "{} gpus={} {}: bound {} > makespan {m}",
                p.calib,
                p.gpus,
                p.schedule,
                p.lower_bound
            );
            assert!(p.lower_bound > 0.0);
        }
    }

    #[test]
    fn deadline_prunes_only_provably_infeasible_points() {
        let w = sample_workload();
        // An unpruned reference run supplies the true makespans.
        let mut spec = SweepSpec::default_grid(&w.meta);
        spec.gpus = vec![1, 4];
        let all = sweep(&w, &spec).unwrap();
        // Set the deadline just below the largest lower bound: the pruner
        // must fire on at least that point, and only on points whose true
        // makespan really misses the deadline.
        let makespans: Vec<f64> = all.points.iter().map(|p| p.makespan.unwrap()).collect();
        let max_lb = all.points.iter().map(|p| p.lower_bound).fold(0.0, f64::max);
        let deadline = max_lb * 0.99;
        spec.deadline = Some(deadline);
        let res = sweep(&w, &spec).unwrap();
        assert!(res.pruned > 0, "deadline {deadline} pruned nothing");
        for (p, &true_makespan) in res.points.iter().zip(&makespans) {
            if p.pruned {
                // Soundness: a pruned point really cannot meet the deadline.
                assert!(p.lower_bound > deadline);
                assert!(
                    true_makespan > deadline,
                    "{} gpus={}: pruned but feasible ({true_makespan} <= {deadline})",
                    p.calib,
                    p.gpus
                );
            }
        }
        if makespans.iter().any(|&m| m <= deadline) {
            let best = res.best_under_deadline.expect("some point meets it");
            assert!(res.points[best].makespan.unwrap() <= deadline);
        } else {
            assert!(res.best_under_deadline.is_none());
        }
    }

    #[test]
    fn pareto_front_has_no_dominated_member() {
        let w = sample_workload();
        let mut spec = SweepSpec::default_grid(&w.meta);
        spec.gpus = vec![1, 2, 4];
        let res = sweep(&w, &spec).unwrap();
        assert!(!res.pareto.is_empty());
        for &i in &res.pareto {
            let (m, c) = (res.points[i].makespan.unwrap(), res.points[i].cost.unwrap());
            for p in &res.points {
                let (om, oc) = (p.makespan.unwrap(), p.cost.unwrap());
                assert!(
                    !(om <= m && oc <= c && (om < m || oc < c)),
                    "front point {i} dominated by {}/{}",
                    p.calib,
                    p.gpus
                );
            }
        }
        // Front is sorted by makespan.
        let ms: Vec<f64> = res
            .pareto
            .iter()
            .map(|&i| res.points[i].makespan.unwrap())
            .collect();
        assert!(ms.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn per_point_oom_does_not_abort_the_sweep() {
        let mut w = sample_workload();
        for trace in w.nodes.iter_mut().flat_map(Arc::make_mut) {
            trace.peak_device_bytes = 30 << 30; // ~30 GB per rank
        }
        // 4 ranks on 1 GPU cannot fit; on 4 GPUs they can.
        let spec = SweepSpec {
            calibs: vec![SweepCalib::resolve("identity", &w.meta).unwrap()],
            gpus: vec![1, 4],
            schedules: vec![SchedulePolicyKind::Auto],
            deadline: None,
        };
        let res = sweep(&w, &spec).unwrap();
        assert!(res.points[0].error.as_deref().unwrap().contains("memory"));
        assert!(res.points[0].makespan.is_none());
        assert!(res.points[1].makespan.is_some());
        assert_eq!(res.evaluated, 1);
        // The errored point cannot be on the front.
        assert_eq!(res.pareto, vec![1]);
    }

    #[test]
    fn preflight_is_bit_identical_on_grids_with_oom_points() {
        let mut w = sample_workload();
        for trace in w.nodes.iter_mut().flat_map(Arc::make_mut) {
            trace.peak_device_bytes = 30 << 30;
        }
        // gpus=1 stacks 4 ranks (~120 GB) on one device: infeasible
        // under both the 40 GB identity calibration and the 80 GB h100.
        let spec = SweepSpec {
            calibs: vec![
                SweepCalib::resolve("identity", &w.meta).unwrap(),
                SweepCalib::resolve("h100", &w.meta).unwrap(),
            ],
            gpus: vec![1, 4],
            schedules: vec![SchedulePolicyKind::Auto],
            deadline: None,
        };
        let full = sweep(&w, &spec).unwrap();
        let pre = sweep_preflight(&w, &spec).unwrap();
        assert_eq!(full.rejected, 0);
        assert_eq!(pre.rejected, 2);
        assert_eq!(pre.evaluated, full.evaluated);
        // The acceptance bar: identical serialized output, down to the
        // error text on the statically-rejected points.
        assert_eq!(full.to_jsonl(), pre.to_jsonl());
    }

    #[test]
    fn preflight_is_bit_identical_on_deadlocking_workloads() {
        let mut w = sample_workload();
        // One extra collective on rank 0 makes the job ragged: every
        // grid point now deadlocks at replay time.
        Arc::make_mut(&mut w.nodes[0])[0]
            .segments
            .push(Segment::Collective {
                seconds: 1e-3,
                bytes: 1e6,
                label: "mpi_allreduce".into(),
            });
        let spec = SweepSpec {
            calibs: vec![SweepCalib::resolve("identity", &w.meta).unwrap()],
            gpus: vec![2, 4],
            schedules: vec![SchedulePolicyKind::Auto, SchedulePolicyKind::Fifo],
            deadline: None,
        };
        let full = sweep(&w, &spec).unwrap();
        let pre = sweep_preflight(&w, &spec).unwrap();
        assert_eq!(pre.rejected, spec.point_count());
        assert!(full
            .points
            .iter()
            .all(|p| p.error.as_deref().is_some_and(|e| e.contains("deadlock"))));
        assert_eq!(full.to_jsonl(), pre.to_jsonl());
    }

    #[test]
    fn preflight_is_a_no_op_on_clean_grids() {
        let w = sample_workload();
        let spec = SweepSpec::default_grid(&w.meta);
        let full = sweep(&w, &spec).unwrap();
        let pre = sweep_preflight(&w, &spec).unwrap();
        assert_eq!(pre.rejected, 0);
        assert_eq!(full.to_jsonl(), pre.to_jsonl());
    }

    #[test]
    fn jsonl_carries_every_point_in_grid_order() {
        let w = sample_workload();
        let mut spec = SweepSpec::default_grid(&w.meta);
        spec.deadline = Some(1e-9); // prune everything
        let res = sweep(&w, &spec).unwrap();
        assert_eq!(res.evaluated, 0);
        assert_eq!(res.pruned, res.points.len());
        let text = res.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), res.points.len() + 1);
        assert!(lines[0].contains("\"type\":\"sweep\""));
        assert!(lines[1].contains("\"calib\":\"identity\""));
        assert!(lines[1].contains("\"pruned\":true"));
        assert!(lines[1].contains("\"makespan\":null"));
    }

    #[test]
    fn grid_parsers_accept_lists_and_ranges() {
        let meta = RecordMeta::default();
        assert_eq!(parse_gpus("2..4,8").unwrap(), vec![2, 3, 4, 8]);
        assert_eq!(parse_gpus("1").unwrap(), vec![1]);
        assert!(parse_gpus("0").is_err());
        assert!(parse_gpus("4..2").is_err());
        assert!(parse_gpus("x").is_err());

        let calibs = parse_calibs("identity, h100", &meta).unwrap();
        assert_eq!(calibs.len(), 2);
        assert_eq!(calibs[1].name, "h100");
        let err = parse_calibs("nope", &meta).unwrap_err();
        assert!(err.contains("valid presets"), "{err}");

        let scheds = parse_schedules("auto,fifo").unwrap();
        assert_eq!(
            scheds,
            vec![SchedulePolicyKind::Auto, SchedulePolicyKind::Fifo]
        );
        assert!(parse_schedules("bogus").is_err());

        let spec = SweepSpec::parse_grid("gpus=1,2;calib=identity;schedule=mps", &meta).unwrap();
        assert_eq!(spec.point_count(), 2);
        assert!(SweepSpec::parse_grid("nope=1", &meta).is_err());
        assert!(SweepSpec::parse_grid("gpus", &meta).is_err());
        // Empty spec keeps the defaults.
        let spec = SweepSpec::parse_grid("", &meta).unwrap();
        assert_eq!(spec.calibs.len(), 1 + presets().len());
    }

    #[test]
    fn resumable_sweep_is_bit_identical_from_every_cursor() {
        let w = sample_workload();
        let mut spec = SweepSpec::default_grid(&w.meta);
        spec.gpus = vec![1, 2, 4];
        spec.schedules = vec![SchedulePolicyKind::Auto, SchedulePolicyKind::Fifo];
        let oracle = sweep(&w, &spec).unwrap().to_jsonl();
        let total = spec.point_count();
        let cs = CompiledSweep::compile(&w).unwrap();
        for chunk in [1, 3, 7, total, total + 5] {
            // Uninterrupted chunked run.
            let mut cursors: Vec<Vec<SweepPoint>> = Vec::new();
            let res = cs
                .run_resumable(&spec, &[], chunk, &mut |pts| cursors.push(pts.to_vec()))
                .unwrap();
            assert_eq!(res.to_jsonl(), oracle, "chunk={chunk}");
            assert_eq!(cursors.last().unwrap().len(), total);
            // Resume from every cursor the run surfaced: still identical.
            for cur in &cursors {
                let resumed = cs.run_resumable(&spec, cur, chunk, &mut |_| {}).unwrap();
                assert_eq!(
                    resumed.to_jsonl(),
                    oracle,
                    "cursor={} chunk={chunk}",
                    cur.len()
                );
            }
        }
    }

    #[test]
    fn checkpoint_round_trips_and_guards_its_shape() {
        let w = sample_workload();
        let mut spec = SweepSpec::default_grid(&w.meta);
        spec.gpus = vec![1, 2];
        let res = sweep(&w, &spec).unwrap();
        let ck = SweepCheckpoint {
            total: res.points.len(),
            digest: sweep_digest(&w, &spec),
            points: res.points[..3].to_vec(),
        };
        let back = SweepCheckpoint::parse_jsonl(&ck.to_jsonl()).unwrap();
        assert_eq!(back, ck);
        // Every parsed point re-serializes byte-identically.
        for (a, b) in ck.points.iter().zip(&back.points) {
            assert_eq!(a.to_json(false), b.to_json(false));
        }
        // Torn file: declared count disagrees with carried lines.
        let mut torn = ck.to_jsonl();
        torn.truncate(torn.trim_end().rfind('\n').unwrap() + 1);
        let err = SweepCheckpoint::parse_jsonl(&torn).unwrap_err();
        assert!(err.to_string().contains("declares 3"), "{err}");
        // Wrong version and non-checkpoint headers are typed errors too.
        assert!(SweepCheckpoint::parse_jsonl("{\"type\":\"sweep\"}").is_err());
        assert!(SweepCheckpoint::parse_jsonl(
            "{\"type\":\"sweep_checkpoint\",\"version\":2,\"digest\":0,\"total\":0,\"completed\":0}\n"
        )
        .is_err());
        // A huge declared count is a torn file, not an allocation.
        let huge = format!(
            "{{\"type\":\"sweep_checkpoint\",\"version\":1,\"digest\":0,\"total\":{0},\"completed\":{0}}}\n",
            usize::MAX
        );
        let err = SweepCheckpoint::parse_jsonl(&huge).unwrap_err();
        assert!(err.to_string().contains("carries 0"), "{err}");
    }

    #[test]
    fn resume_refuses_a_cursor_for_a_different_grid() {
        let w = sample_workload();
        let spec = SweepSpec {
            calibs: vec![SweepCalib::resolve("identity", &w.meta).unwrap()],
            gpus: vec![1, 2],
            schedules: vec![SchedulePolicyKind::Auto],
            deadline: None,
        };
        let res = sweep(&w, &spec).unwrap();
        // Swapped axis order: point 0 claims gpus=2 where the grid has 1.
        let mut wrong = res.points.clone();
        wrong.reverse();
        let cs = CompiledSweep::compile(&w).unwrap();
        let err = cs.run_resumable(&spec, &wrong, 8, &mut |_| {}).unwrap_err();
        assert!(
            matches!(err, SweepResumeError::CursorMismatch { index: 0, .. }),
            "{err}"
        );
        // Oversized cursor.
        let mut long = res.points.clone();
        long.extend(res.points.iter().cloned());
        let err = cs.run_resumable(&spec, &long, 8, &mut |_| {}).unwrap_err();
        assert!(
            matches!(err, SweepResumeError::CursorBeyondGrid { .. }),
            "{err}"
        );
        // Digest separates specs sharing a workload.
        let mut other = spec.clone();
        other.gpus = vec![1, 2, 4];
        assert_ne!(sweep_digest(&w, &spec), sweep_digest(&w, &other));
        assert_eq!(sweep_digest(&w, &spec), sweep_digest(&w, &spec.clone()));
    }

    #[test]
    fn sweep_digest_is_the_grid_folded_onto_the_workload_digest() {
        let w = sample_workload();
        let mut spec = SweepSpec::default_grid(&w.meta);
        spec.deadline = Some(0.25);
        let folded = sweep_digest_from(workload_digest(&w), &spec);
        assert_eq!(sweep_digest(&w, &spec), folded);
        // Checkpoints written before the fold must still resume: the
        // values are pinned.
        assert_eq!(workload_digest(&w), 0x4452_d8db_9708_8d09);
        assert_eq!(folded, 0x4a45_ad23_777e_3869);
    }

    #[test]
    fn presets_rescale_with_the_recording() {
        let meta = RecordMeta {
            work_scale: 1e-3,
            ..RecordMeta::default()
        };
        let c = SweepCalib::resolve("h100", &meta).unwrap();
        let paper = preset("h100").unwrap();
        assert_eq!(
            c.node.gpu.launch_latency,
            paper.node.gpu.launch_latency * 1e-3
        );
        // Physical rates are scale-free.
        assert_eq!(c.node.gpu.fp64_peak, paper.node.gpu.fp64_peak);
        assert!(SweepCalib::resolve("bogus", &meta).is_err());
    }
}
