//! A typed, versioned scenario spec: one serializable value that fully
//! describes a benchmark run.
//!
//! Every figure, ablation and what-if in this workspace boils down to the
//! same handful of knobs — problem size and scale, which implementation to
//! run, how many processes per node, MPS on or off, schedule policy, node
//! count, calibration. Before this crate each binary re-assembled those
//! knobs from ad-hoc flags, so "the configuration behind Fig. 5" lived
//! only in `main()` bodies. A [`Scenario`] makes that configuration a
//! value: it round-trips losslessly through JSON (`scenarios/` holds one
//! golden file per figure), projects onto the runner's `RunConfig`, embeds
//! itself in what-if recordings, and expands against a sweep grid.
//!
//! The format is versioned (`schema_version`, currently
//! [`SCHEMA_VERSION`]) and strict: unknown fields and unknown versions are
//! typed errors naming the offender, in the same spirit as the what-if
//! recorder's `WhatifError`. Strictness is the forward-compatibility
//! story — a file written by a newer schema fails loudly instead of
//! silently dropping the knob an experiment depended on.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io::Read as _;
use std::path::Path;
use std::str::FromStr;

use accel_sim::whatif::preset;
use accel_sim::{CpuCalib, DeviceCalib, SweepSpec};

pub mod analyze;
pub mod envelope;

/// The workspace's one JSON codec, which scenario files and job requests
/// are read and written through. Its errors convert into
/// [`ScenarioError`]s that keep their line.
pub use accel_sim::json;

pub use analyze::check_scenario;
pub use envelope::JobRequest;

use json::{as_f64, as_int, as_str, Esc, Fields, JsonError, Node, Num};

// Re-export the types a Scenario is made of, so downstream code can build
// and match scenarios with `use scenario::…` alone.
pub use accel_sim::{NetCalib, NodeCalib, SchedulePolicyKind, UnknownPreset};
pub use toast_core::dispatch::ImplKind;
pub use toast_core::pipeline::MovementPolicy;
pub use toast_satsim::problem::{Problem, ProblemSize};

/// The schema version this build reads and writes.
pub const SCHEMA_VERSION: u64 = 1;

/// Everything that can go wrong reading, validating or resolving a
/// scenario. Every variant names its offender (field, line, value) so a
/// CLI can surface the message verbatim.
#[derive(Debug)]
pub enum ScenarioError {
    /// File-level I/O failure.
    Io(std::io::Error),
    /// Malformed JSON, a mistyped value, or a missing or unknown field
    /// (a typo, or a file from a newer schema), naming its line.
    Json(JsonError),
    /// A `schema_version` this build does not read.
    UnknownVersion { version: u64 },
    /// A field is present but holds a value outside its domain.
    InvalidValue { field: String, msg: String },
    /// `procs_per_node` does not evenly partition the node's cores.
    InvalidProcs { procs: u32, cores: u32 },
    /// A named calibration preset that does not exist.
    UnknownPreset(UnknownPreset),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Io(e) => write!(f, "scenario I/O error: {e}"),
            ScenarioError::Json(e) => write!(f, "scenario error at line {}: {e}", e.line()),
            ScenarioError::UnknownVersion { version } => write!(
                f,
                "unsupported scenario schema_version {version} (this build reads version {SCHEMA_VERSION})"
            ),
            ScenarioError::InvalidValue { field, msg } => {
                write!(f, "invalid value for scenario field '{field}': {msg}")
            }
            ScenarioError::InvalidProcs { procs, cores } => write!(
                f,
                "invalid procs_per_node {procs}: must be >= 1 and divide the node's {cores} cores"
            ),
            ScenarioError::UnknownPreset(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Io(e) => Some(e),
            ScenarioError::Json(e) => Some(e),
            ScenarioError::UnknownPreset(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ScenarioError {
    fn from(e: std::io::Error) -> Self {
        ScenarioError::Io(e)
    }
}

impl From<JsonError> for ScenarioError {
    fn from(e: JsonError) -> Self {
        ScenarioError::Json(e)
    }
}

impl From<UnknownPreset> for ScenarioError {
    fn from(e: UnknownPreset) -> Self {
        ScenarioError::UnknownPreset(e)
    }
}

/// The problem a scenario runs: one of the paper's two sizes at a work
/// scale, with optional per-field overrides (the differential tests run
/// the medium problem shrunk to 64 detectors, for example).
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemSpec {
    /// Which paper configuration to start from.
    pub size: ProblemSize,
    /// Work scale in `(0, 1]` applied to samples and calibration.
    pub scale: f64,
    /// Override paper-scale total samples.
    pub total_samples: Option<f64>,
    /// Override the detector count.
    pub n_det_total: Option<usize>,
    /// Override the sky resolution.
    pub nside: Option<u64>,
    /// Override the observation count.
    pub n_obs: Option<usize>,
    /// Override the solver passes per observation.
    pub passes: Option<usize>,
    /// Override the RNG seed.
    pub seed: Option<u64>,
}

impl ProblemSpec {
    /// A plain paper problem at `scale`, no overrides.
    pub fn sized(size: ProblemSize, scale: f64) -> Self {
        Self {
            size,
            scale,
            total_samples: None,
            n_det_total: None,
            nside: None,
            n_obs: None,
            passes: None,
            seed: None,
        }
    }

    /// Build the concrete [`Problem`], applying overrides.
    pub fn build(&self) -> Problem {
        let mut p = Problem::sized(self.size, self.scale);
        if let Some(v) = self.total_samples {
            p.total_samples = v;
        }
        if let Some(v) = self.n_det_total {
            p.n_det_total = v;
        }
        if let Some(v) = self.nside {
            p.nside = v;
        }
        if let Some(v) = self.n_obs {
            p.n_obs = v;
        }
        if let Some(v) = self.passes {
            p.passes = v;
        }
        if let Some(v) = self.seed {
            p.seed = v;
        }
        p
    }
}

/// Where a scenario's calibration comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibSpec {
    /// The problem's own scaled calibration ([`NodeCalib::scaled`] at the
    /// scenario's work scale) — what every flag-driven run uses.
    Auto,
    /// A named what-if preset (`a100`, `h100`, …), defined at paper scale
    /// and rescaled to the scenario's work scale on resolution.
    Preset(String),
    /// Fully inline constants, taken as-is (already at working scale).
    Inline { node: NodeCalib, net: NetCalib },
}

/// Optional output sinks a run writes besides stdout.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutputSpec {
    /// Chrome-trace JSON of the replayed timeline.
    pub trace_out: Option<String>,
    /// What-if workload recording (JSONL).
    pub record_out: Option<String>,
}

impl OutputSpec {
    fn is_empty(&self) -> bool {
        self.trace_out.is_none() && self.record_out.is_none()
    }
}

/// One fully specified run. See the crate docs for the role this type
/// plays; see `DESIGN.md` § 6 for the schema and versioning policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable label (figure name, sweep point, …). Carried into
    /// recordings and reports; not semantically load-bearing.
    pub name: String,
    /// The problem to run.
    pub problem: ProblemSpec,
    /// Which port runs the kernels.
    pub kind: ImplKind,
    /// MPI-style ranks per node.
    pub procs_per_node: u32,
    /// GPUs per node.
    pub gpus: u32,
    /// CUDA MPS daemon on or off.
    pub mps: bool,
    /// Data-movement policy.
    pub movement: MovementPolicy,
    /// GPU schedule policy.
    pub schedule: SchedulePolicyKind,
    /// Override the problem's node count.
    pub nodes: Option<u32>,
    /// Per-rank asynchronous transfer streams.
    pub overlap_transfers: bool,
    /// Calibration source.
    pub calib: CalibSpec,
    /// Optional output sinks.
    pub output: OutputSpec,
}

impl Scenario {
    /// A scenario with the workspace's defaults: CPU implementation, 16
    /// procs per node, 4 GPUs, MPS on, tracked movement, auto schedule,
    /// auto calibration.
    pub fn new(name: &str, size: ProblemSize, scale: f64) -> Self {
        Self {
            name: name.to_string(),
            problem: ProblemSpec::sized(size, scale),
            kind: ImplKind::Cpu,
            procs_per_node: 16,
            gpus: 4,
            mps: true,
            movement: MovementPolicy::Tracked,
            schedule: SchedulePolicyKind::Auto,
            nodes: None,
            overlap_transfers: false,
            calib: CalibSpec::Auto,
            output: OutputSpec::default(),
        }
    }

    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    pub fn with_kind(mut self, kind: ImplKind) -> Self {
        self.kind = kind;
        self
    }

    pub fn with_procs(mut self, procs: u32) -> Self {
        self.procs_per_node = procs;
        self
    }

    pub fn with_gpus(mut self, gpus: u32) -> Self {
        self.gpus = gpus;
        self
    }

    pub fn with_mps(mut self, mps: bool) -> Self {
        self.mps = mps;
        self
    }

    pub fn with_movement(mut self, movement: MovementPolicy) -> Self {
        self.movement = movement;
        self
    }

    pub fn with_schedule(mut self, schedule: SchedulePolicyKind) -> Self {
        self.schedule = schedule;
        self
    }

    pub fn with_nodes(mut self, nodes: u32) -> Self {
        self.nodes = Some(nodes);
        self
    }

    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap_transfers = overlap;
        self
    }

    pub fn with_calib_preset(mut self, name: &str) -> Self {
        self.calib = CalibSpec::Preset(name.to_string());
        self
    }

    pub fn with_calib_inline(mut self, node: NodeCalib, net: NetCalib) -> Self {
        self.calib = CalibSpec::Inline { node, net };
        self
    }

    /// Host threads each rank gets: the node's cores divided evenly.
    /// The typed replacement for the runner's old "must divide 64" panic.
    pub fn threads(&self) -> Result<u32, ScenarioError> {
        let cores = CpuCalib::default().cores;
        if self.procs_per_node == 0 || cores % self.procs_per_node != 0 {
            return Err(ScenarioError::InvalidProcs {
                procs: self.procs_per_node,
                cores,
            });
        }
        Ok(cores / self.procs_per_node)
    }

    /// Check every domain constraint. [`Scenario::parse`] calls this, so
    /// a scenario that decodes is a scenario that runs.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.threads()?;
        let invalid = |field: &str, msg: String| {
            Err(ScenarioError::InvalidValue {
                field: field.to_string(),
                msg,
            })
        };
        if !(self.problem.scale > 0.0 && self.problem.scale <= 1.0) {
            return invalid(
                "problem.scale",
                format!("must be in (0, 1], got {:?}", self.problem.scale),
            );
        }
        if self.gpus == 0 {
            return invalid("gpus", "must be >= 1".to_string());
        }
        if self.nodes == Some(0) {
            return invalid("nodes", "must be >= 1 when present".to_string());
        }
        if let CalibSpec::Preset(name) = &self.calib {
            preset(name)?;
        }
        // The calibration gate: a roofline the cost model cannot price
        // (zero bandwidth, NaN throughput, …) is rejected here, naming
        // the field, instead of surfacing as a NonFiniteCharge replay
        // error long after the scenario was accepted.
        let (node, net) = self.resolved_calib()?;
        if let Err(e) = node.validate().and_then(|()| net.validate()) {
            return invalid(&format!("calib.{}", e.field), e.to_string());
        }
        Ok(())
    }

    /// The concrete problem this scenario runs (overrides applied).
    pub fn build_problem(&self) -> Problem {
        self.problem.build()
    }

    /// Resolve the calibration source to concrete constants at the
    /// scenario's working scale. `Auto` reproduces the flag-driven path
    /// bit-for-bit: the problem's own scaled calibration and the default
    /// interconnect.
    pub fn resolved_calib(&self) -> Result<(NodeCalib, NetCalib), ScenarioError> {
        match &self.calib {
            CalibSpec::Auto => Ok((NodeCalib::scaled(self.problem.scale), NetCalib::default())),
            CalibSpec::Preset(name) => {
                let p = preset(name)?;
                Ok((p.node.rescaled(self.problem.scale), p.net))
            }
            CalibSpec::Inline { node, net } => Ok((*node, *net)),
        }
    }

    /// Canonical pretty JSON: fixed field order, two-space indent, `None`
    /// fields omitted. `parse(to_json(s)) == s` and serializing a parsed
    /// file reproduces it byte-for-byte (the golden files are written this
    /// way).
    pub fn to_json(&self) -> String {
        json::write_string(|out| {
            render(&self.encode(), false, 0, out)?;
            out.write_char('\n')
        })
    }

    /// One-line JSON with identical content — the form embedded in
    /// what-if recording metadata.
    pub fn to_json_compact(&self) -> String {
        json::write_string(|out| render(&self.encode(), true, 0, out))
    }

    fn encode(&self) -> J<'_> {
        let mut fields: Vec<(&'static str, J)> = vec![
            ("schema_version", J::Int(SCHEMA_VERSION)),
            ("name", J::Str(self.name.as_str().into())),
            ("problem", self.encode_problem()),
            ("impl", J::Str(self.kind.to_string().into())),
            ("procs_per_node", J::Int(self.procs_per_node.into())),
            ("gpus", J::Int(self.gpus.into())),
            ("mps", J::Bool(self.mps)),
            ("movement", J::Str(self.movement.to_string().into())),
            ("schedule", J::Str(self.schedule.to_string().into())),
        ];
        if let Some(n) = self.nodes {
            fields.push(("nodes", J::Int(n.into())));
        }
        fields.push(("overlap_transfers", J::Bool(self.overlap_transfers)));
        fields.push((
            "calib",
            match &self.calib {
                CalibSpec::Auto => J::Str("auto".into()),
                CalibSpec::Preset(name) => J::Str(name.as_str().into()),
                CalibSpec::Inline { node, net } => J::Obj(vec![
                    ("node", encode_node_calib(node)),
                    ("net", encode_net_calib(net)),
                ]),
            },
        ));
        if !self.output.is_empty() {
            let mut out = Vec::new();
            if let Some(p) = &self.output.trace_out {
                out.push(("trace_out", J::Str(p.as_str().into())));
            }
            if let Some(p) = &self.output.record_out {
                out.push(("record_out", J::Str(p.as_str().into())));
            }
            fields.push(("output", J::Obj(out)));
        }
        J::Obj(fields)
    }

    fn encode_problem(&self) -> J<'_> {
        let p = &self.problem;
        let size = match p.size {
            ProblemSize::Medium => "medium",
            ProblemSize::Large => "large",
        };
        let mut fields = vec![("size", J::Str(size.into())), ("scale", J::Num(p.scale))];
        if let Some(v) = p.total_samples {
            fields.push(("total_samples", J::Num(v)));
        }
        if let Some(v) = p.n_det_total {
            fields.push(("n_det_total", J::Int(v as u64)));
        }
        if let Some(v) = p.nside {
            fields.push(("nside", J::Int(v)));
        }
        if let Some(v) = p.n_obs {
            fields.push(("n_obs", J::Int(v as u64)));
        }
        if let Some(v) = p.passes {
            fields.push(("passes", J::Int(v as u64)));
        }
        if let Some(v) = p.seed {
            fields.push(("seed", J::Int(v)));
        }
        J::Obj(fields)
    }

    /// Parse and validate a scenario document.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        Self::from_value(json::parse_line(text, 1)?, 1)
    }

    /// Decode and validate an already-parsed JSON value. The service's
    /// job envelope carries scenarios as nested objects, so decoding
    /// must compose; `line` is where the object appeared in its
    /// enclosing document, for error context.
    pub fn from_value(root: Node<'_>, line: usize) -> Result<Self, ScenarioError> {
        let mut f = Fields::of(root, "scenario", line)?;
        let version: u64 = f.int("schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(ScenarioError::UnknownVersion { version });
        }
        let name = f.str("name")?;
        let problem = decode_problem(f.require("problem")?)?;
        let kind = decode_enum::<ImplKind>(f.require("impl")?, "impl")?;
        let procs_per_node = f.int("procs_per_node")?;
        let gpus = f.int("gpus")?;
        let mps = f.bool("mps")?;
        let movement = decode_enum::<MovementPolicy>(f.require("movement")?, "movement")?;
        let schedule = decode_enum::<SchedulePolicyKind>(f.require("schedule")?, "schedule")?;
        let nodes = f.opt("nodes", as_int)?;
        let overlap_transfers = f.bool("overlap_transfers")?;
        let calib = decode_calib(f.require("calib")?)?;
        let output = match f.take("output") {
            Some(v) => decode_output(v)?,
            None => OutputSpec::default(),
        };
        f.finish()?;
        let s = Scenario {
            name,
            problem,
            kind,
            procs_per_node,
            gpus,
            mps,
            movement,
            schedule,
            nodes,
            overlap_transfers,
            calib,
            output,
        };
        s.validate()?;
        Ok(s)
    }

    /// Read and parse a scenario file.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, ScenarioError> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        Self::parse(&text)
    }

    /// Write the canonical pretty form to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<(), ScenarioError> {
        std::fs::write(path, self.to_json())?;
        Ok(())
    }
}

/// Expand a sweep grid into concrete scenarios, in the exact order the
/// sweep engine visits points: calibration-major, then GPU count, then
/// schedule. Each scenario names its point; the `identity` calibration
/// keeps the base scenario's own calibration source.
pub fn expand_sweep(base: &Scenario, spec: &SweepSpec) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(spec.calibs.len() * spec.gpus.len() * spec.schedules.len());
    for c in &spec.calibs {
        for &g in &spec.gpus {
            for &sched in &spec.schedules {
                let mut s = base.clone();
                s.name = format!("{}__{}_{}g_{}", base.name, c.name, g, sched);
                if c.name != "identity" {
                    s.calib = CalibSpec::Preset(c.name.clone());
                }
                s.gpus = g;
                s.schedule = sched;
                out.push(s);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Encoding/decoding internals
// ---------------------------------------------------------------------------

/// A value ready to serialize, in the order its fields are written.
enum J<'s> {
    Int(u64),
    Bool(bool),
    Num(f64),
    Str(Cow<'s, str>),
    Obj(Vec<(&'static str, J<'s>)>),
}

/// Append `j` to `out`: compact on one line, or pretty with two-space
/// indentation starting at `indent` levels.
fn render(j: &J<'_>, compact: bool, indent: usize, out: &mut String) -> fmt::Result {
    match j {
        J::Int(v) => write!(out, "{v}"),
        J::Bool(b) => write!(out, "{b}"),
        J::Num(v) => write!(out, "{}", Num(*v)),
        J::Str(s) => write!(out, "\"{}\"", Esc(s)),
        J::Obj(fields) => {
            if fields.is_empty() {
                return out.write_str("{}");
            }
            out.write_char('{')?;
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                if compact {
                    write!(out, "\"{k}\":")?;
                } else {
                    write!(out, "\n{:w$}\"{k}\": ", "", w = 2 * (indent + 1))?;
                }
                render(v, compact, indent + 1, out)?;
            }
            if !compact {
                write!(out, "\n{:w$}", "", w = 2 * indent)?;
            }
            out.write_char('}')
        }
    }
}

fn encode_node_calib(n: &NodeCalib) -> J<'static> {
    J::Obj(vec![
        (
            "cpu",
            J::Obj(vec![
                ("cores", J::Int(n.cpu.cores.into())),
                ("core_flops", J::Num(n.cpu.core_flops)),
                ("socket_bw", J::Num(n.cpu.socket_bw)),
                ("mem_bytes", J::Int(n.cpu.mem_bytes)),
                ("thread_overhead", J::Num(n.cpu.thread_overhead)),
            ]),
        ),
        (
            "gpu",
            J::Obj(vec![
                ("fp64_peak", J::Num(n.gpu.fp64_peak)),
                ("hbm_bw", J::Num(n.gpu.hbm_bw)),
                ("mem_bytes", J::Int(n.gpu.mem_bytes)),
                ("launch_latency", J::Num(n.gpu.launch_latency)),
                ("saturation_items", J::Num(n.gpu.saturation_items)),
                ("pcie_bw", J::Num(n.gpu.pcie_bw)),
                ("pcie_latency", J::Num(n.gpu.pcie_latency)),
                ("context_switch", J::Num(n.gpu.context_switch)),
                ("mps_crowding", J::Num(n.gpu.mps_crowding)),
                ("alloc_latency", J::Num(n.gpu.alloc_latency)),
            ]),
        ),
        (
            "framework",
            J::Obj(vec![
                ("jit_dispatch", J::Num(n.framework.jit_dispatch)),
                ("jit_compile", J::Num(n.framework.jit_compile)),
                ("omp_region", J::Num(n.framework.omp_region)),
                ("jit_mem_overhead", J::Num(n.framework.jit_mem_overhead)),
                (
                    "jit_process_device_bytes",
                    J::Num(n.framework.jit_process_device_bytes),
                ),
                (
                    "omp_process_device_bytes",
                    J::Num(n.framework.omp_process_device_bytes),
                ),
                ("jit_runtime_factor", J::Num(n.framework.jit_runtime_factor)),
                (
                    "jit_cpu_backend_eff",
                    J::Num(n.framework.jit_cpu_backend_eff),
                ),
            ]),
        ),
    ])
}

fn encode_net_calib(n: &NetCalib) -> J<'static> {
    J::Obj(vec![("bw", J::Num(n.bw)), ("latency", J::Num(n.latency))])
}

fn decode_enum<T: FromStr<Err = String>>(
    v: (Node<'_>, usize),
    field: &str,
) -> Result<T, ScenarioError> {
    let s = as_str(v, field)?;
    s.parse().map_err(|msg| ScenarioError::InvalidValue {
        field: field.to_string(),
        msg,
    })
}

fn decode_problem(v: (Node<'_>, usize)) -> Result<ProblemSpec, ScenarioError> {
    let (value, line) = v;
    let mut f = Fields::of(value, "problem", line)?;
    let size = match &*f.str_ref("size")? {
        "medium" => ProblemSize::Medium,
        "large" => ProblemSize::Large,
        other => {
            return Err(ScenarioError::InvalidValue {
                field: "problem.size".to_string(),
                msg: format!("unknown size '{other}' (expected medium or large)"),
            })
        }
    };
    let scale = f.f64("scale")?;
    let total_samples = f.opt("total_samples", as_f64)?;
    let n_det_total = f.opt("n_det_total", as_int)?;
    let nside = f.opt("nside", as_int)?;
    let n_obs = f.opt("n_obs", as_int)?;
    let passes = f.opt("passes", as_int)?;
    let seed = f.opt("seed", as_int)?;
    f.finish()?;
    Ok(ProblemSpec {
        size,
        scale,
        total_samples,
        n_det_total,
        nside,
        n_obs,
        passes,
        seed,
    })
}

fn decode_calib(v: (Node<'_>, usize)) -> Result<CalibSpec, ScenarioError> {
    let (value, line) = v;
    match value {
        Node::Str(s) if s == "auto" => Ok(CalibSpec::Auto),
        Node::Str(s) => Ok(CalibSpec::Preset(s.into_owned())),
        value @ Node::Obj(_) => {
            let mut f = Fields::of(value, "calib", line)?;
            let node = decode_node_calib(f.require("node")?)?;
            let net = decode_net_calib(f.require("net")?)?;
            f.finish()?;
            Ok(CalibSpec::Inline { node, net })
        }
        _ => Err(ScenarioError::InvalidValue {
            field: "calib".to_string(),
            msg: "must be \"auto\", a preset name, or an inline {node, net} object".to_string(),
        }),
    }
}

fn decode_node_calib(v: (Node<'_>, usize)) -> Result<NodeCalib, ScenarioError> {
    let (value, line) = v;
    let mut f = Fields::of(value, "calib.node", line)?;

    let (cpu_v, cpu_line) = f.require("cpu")?;
    let mut c = Fields::of(cpu_v, "calib.node.cpu", cpu_line)?;
    let cpu = CpuCalib {
        cores: c.int("cores")?,
        core_flops: c.f64("core_flops")?,
        socket_bw: c.f64("socket_bw")?,
        mem_bytes: c.int("mem_bytes")?,
        thread_overhead: c.f64("thread_overhead")?,
    };
    c.finish()?;

    let (gpu_v, gpu_line) = f.require("gpu")?;
    let mut g = Fields::of(gpu_v, "calib.node.gpu", gpu_line)?;
    let gpu = DeviceCalib {
        fp64_peak: g.f64("fp64_peak")?,
        hbm_bw: g.f64("hbm_bw")?,
        mem_bytes: g.int("mem_bytes")?,
        launch_latency: g.f64("launch_latency")?,
        saturation_items: g.f64("saturation_items")?,
        pcie_bw: g.f64("pcie_bw")?,
        pcie_latency: g.f64("pcie_latency")?,
        context_switch: g.f64("context_switch")?,
        mps_crowding: g.f64("mps_crowding")?,
        alloc_latency: g.f64("alloc_latency")?,
    };
    g.finish()?;

    let (fw_v, fw_line) = f.require("framework")?;
    let mut w = Fields::of(fw_v, "calib.node.framework", fw_line)?;
    let framework = accel_sim::calib::FrameworkCalib {
        jit_dispatch: w.f64("jit_dispatch")?,
        jit_compile: w.f64("jit_compile")?,
        omp_region: w.f64("omp_region")?,
        jit_mem_overhead: w.f64("jit_mem_overhead")?,
        jit_process_device_bytes: w.f64("jit_process_device_bytes")?,
        omp_process_device_bytes: w.f64("omp_process_device_bytes")?,
        jit_runtime_factor: w.f64("jit_runtime_factor")?,
        jit_cpu_backend_eff: w.f64("jit_cpu_backend_eff")?,
    };
    w.finish()?;

    f.finish()?;
    Ok(NodeCalib {
        cpu,
        gpu,
        framework,
    })
}

fn decode_net_calib(v: (Node<'_>, usize)) -> Result<NetCalib, ScenarioError> {
    let (value, line) = v;
    let mut f = Fields::of(value, "calib.net", line)?;
    let net = NetCalib {
        bw: f.f64("bw")?,
        latency: f.f64("latency")?,
    };
    f.finish()?;
    Ok(net)
}

fn decode_output(v: (Node<'_>, usize)) -> Result<OutputSpec, ScenarioError> {
    let (value, line) = v;
    let mut f = Fields::of(value, "output", line)?;
    let trace_out = f.opt("trace_out", as_str)?;
    let record_out = f.opt("record_out", as_str)?;
    f.finish()?;
    Ok(OutputSpec {
        trace_out,
        record_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::SweepCalib;

    fn base() -> Scenario {
        Scenario::new("fig5_full_benchmark", ProblemSize::Large, 1e-3)
            .with_kind(ImplKind::OmpTarget)
            .with_nodes(4)
    }

    #[test]
    fn round_trips_through_pretty_and_compact_json() {
        for s in [
            base(),
            Scenario::new("plain", ProblemSize::Medium, 2e-4),
            base().with_calib_preset("h100"),
            base().with_calib_inline(NodeCalib::scaled(0.5), NetCalib::slingshot11()),
        ] {
            let pretty = s.to_json();
            assert_eq!(Scenario::parse(&pretty).unwrap(), s, "{pretty}");
            let compact = s.to_json_compact();
            assert_eq!(Scenario::parse(&compact).unwrap(), s, "{compact}");
            assert!(!compact.contains('\n'));
            // Canonical form is a fixed point: serialize(parse(f)) == f.
            assert_eq!(Scenario::parse(&pretty).unwrap().to_json(), pretty);
        }
    }

    #[test]
    fn problem_overrides_apply() {
        let mut s = Scenario::new("tiny", ProblemSize::Medium, 2e-3);
        s.problem.total_samples = Some(5e9 * (64.0 / 2048.0));
        s.problem.n_det_total = Some(64);
        s.problem.n_obs = Some(2);
        let p = s.build_problem();
        assert_eq!(p.n_det_total, 64);
        assert_eq!(p.n_obs, 2);
        assert_eq!(p.total_samples, 5e9 * (64.0 / 2048.0));
        // Untouched fields keep the paper values.
        assert_eq!(p.seed, 53);
        assert_eq!(p.passes, 6);
        // And the override survives a round trip.
        let back = Scenario::parse(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn auto_calib_matches_the_problem_calibration() {
        let s = Scenario::new("x", ProblemSize::Medium, 2e-3);
        let (node, net) = s.resolved_calib().unwrap();
        assert_eq!(node, s.build_problem().calib());
        assert_eq!(net, NetCalib::default());
    }

    #[test]
    fn preset_calib_is_rescaled_to_the_working_scale() {
        let s = Scenario::new("x", ProblemSize::Medium, 1e-3).with_calib_preset("h100");
        let (node, net) = s.resolved_calib().unwrap();
        let p = preset("h100").unwrap();
        assert_eq!(node, p.node.rescaled(1e-3));
        assert_eq!(net, p.net);
    }

    #[test]
    fn unknown_preset_is_a_typed_error() {
        let s = Scenario::new("x", ProblemSize::Medium, 1e-3).with_calib_preset("b200");
        match s.validate() {
            Err(ScenarioError::UnknownPreset(e)) => assert_eq!(e.name, "b200"),
            other => panic!("expected UnknownPreset, got {other:?}"),
        }
    }

    #[test]
    fn invalid_procs_is_a_typed_error() {
        for procs in [0u32, 3, 7, 65, 128] {
            let s = Scenario::new("x", ProblemSize::Medium, 1e-3).with_procs(procs);
            match s.threads() {
                Err(ScenarioError::InvalidProcs { procs: p, cores }) => {
                    assert_eq!(p, procs);
                    assert_eq!(cores, 64);
                }
                other => panic!("procs {procs}: expected InvalidProcs, got {other:?}"),
            }
        }
        for procs in [1u32, 2, 4, 8, 16, 32, 64] {
            let s = Scenario::new("x", ProblemSize::Medium, 1e-3).with_procs(procs);
            assert_eq!(s.threads().unwrap(), 64 / procs);
        }
    }

    #[test]
    fn unknown_version_and_unknown_field_name_the_offender() {
        let mut text = base().to_json();
        text = text.replace("\"schema_version\": 1", "\"schema_version\": 2");
        match Scenario::parse(&text) {
            Err(ScenarioError::UnknownVersion { version }) => assert_eq!(version, 2),
            other => panic!("expected UnknownVersion, got {other:?}"),
        }

        let text = base()
            .to_json()
            .replace("\"mps\": true", "\"mps\": true,\n  \"turbo\": true");
        match Scenario::parse(&text) {
            Err(ScenarioError::Json(JsonError::UnknownField { field, line })) => {
                assert_eq!(field, "turbo");
                assert!(line > 1, "line {line}");
            }
            other => panic!("expected UnknownField, got {other:?}"),
        }
    }

    #[test]
    fn missing_field_and_bad_enum_values_are_typed() {
        let text = base().to_json().replace("  \"impl\": \"omp\",\n", "");
        match Scenario::parse(&text) {
            Err(ScenarioError::Json(JsonError::MissingField { field, line: 1 })) => {
                assert_eq!(field, "impl")
            }
            other => panic!("expected MissingField, got {other:?}"),
        }

        let text = base()
            .to_json()
            .replace("\"impl\": \"omp\"", "\"impl\": \"cuda\"");
        match Scenario::parse(&text) {
            Err(ScenarioError::InvalidValue { field, msg }) => {
                assert_eq!(field, "impl");
                assert!(msg.contains("cuda"), "{msg}");
            }
            other => panic!("expected InvalidValue, got {other:?}"),
        }
    }

    #[test]
    fn sweep_expansion_matches_the_engine_grid_order() {
        let b = base();
        let spec = SweepSpec {
            calibs: vec![
                SweepCalib {
                    name: "identity".into(),
                    node: NodeCalib::scaled(1e-3),
                    net: NetCalib::default(),
                },
                SweepCalib {
                    name: "h100".into(),
                    node: preset("h100").unwrap().node.rescaled(1e-3),
                    net: preset("h100").unwrap().net,
                },
            ],
            gpus: vec![4, 8],
            schedules: vec![SchedulePolicyKind::Auto, SchedulePolicyKind::Fifo],
            deadline: None,
        };
        let expanded = expand_sweep(&b, &spec);
        assert_eq!(expanded.len(), 8);
        // Calib-major, then gpus, then schedules — the sweep()'s order.
        assert_eq!(expanded[0].gpus, 4);
        assert_eq!(expanded[1].schedule, SchedulePolicyKind::Fifo);
        assert_eq!(expanded[2].gpus, 8);
        assert_eq!(
            expanded[3].calib,
            CalibSpec::Auto,
            "identity keeps base calib"
        );
        assert_eq!(expanded[4].calib, CalibSpec::Preset("h100".into()));
        assert!(expanded[4].name.contains("h100"));
        // Every expanded point is itself a valid, serializable scenario.
        for s in &expanded {
            s.validate().unwrap();
            assert_eq!(Scenario::parse(&s.to_json()).unwrap(), *s);
        }
    }

    #[test]
    fn names_with_quotes_and_backslashes_survive() {
        let s = base().with_name("odd \"name\" with \\ and \n newline");
        assert_eq!(Scenario::parse(&s.to_json()).unwrap(), s);
    }
}
