//! Trace-driven what-if repricing: record every charge a simulated run
//! made, then replay it under a *different* calibration.
//!
//! The paper's headline numbers are relative runtimes on one fixed
//! machine (A100 + PCIe gen4 + Slingshot-10). A [`RecordedWorkload`]
//! captures, per rank, everything the discrete-event engine would charge
//! — kernel work descriptors, transfer bytes and directions, host
//! seconds, allocation latencies, collective volumes — plus the replay
//! configuration and the calibration the run was recorded under. Feeding
//! it back through [`RecordedWorkload::replay`] with a different
//! [`NodeCalib`]/[`NetCalib`] (an H100-like device, an NVLink-like host
//! link, a faster NIC, more GPUs) re-prices the run **without re-running
//! any kernel numerics**.
//!
//! A replay takes the same path as every point of a sweep
//! ([`mod@crate::sweep`]): the recording is compiled once into the
//! engine's calibration-invariant arena, and one cost table prices it.
//! The engine computes kernel and transfer times from the new
//! calibration, and the one `Reprice` this module builds for the
//! calibration rescales the charges whose cost was baked in at record
//! time (host work, allocation latency, collective solo cost). The
//! per-label report comes from the same cost table.
//!
//! Replaying under the *identical* calibration must reproduce the live
//! run's makespan exactly — the differential-test oracle that locks this
//! module down (`crates/bench/tests/whatif_differential.rs`, and the
//! `whatif` binary's identity smoke in `ci.sh`).
//!
//! The on-disk format is JSONL: one meta line, then one line per rank
//! declaration and per segment, each written and read through the
//! workspace's one JSON codec ([`crate::json`]). Parsing is strict and
//! returns a typed [`WhatifError`] naming the line: malformed JSON, a
//! missing or mistyped key, or a key the writer never emits.
//! Serialize → parse → re-serialize is byte-identical.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::calib::{DeviceCalib, NetCalib, NodeCalib};
use crate::context::LabelStats;
use crate::engine::sim::{simulate_compiled, CompiledWorkload, Reprice};
use crate::engine::{ClusterResult, EngineError, SchedulePolicyKind};
use crate::json::{self, as_str, Esc, Fields, JsonError, Num};
use crate::node::NodeConfig;
use crate::profile::KernelProfile;
use crate::trace::{class_after, RankTrace, Segment, TransferDir};

/// Everything needed to replay a recording without the code that made it:
/// the replay configuration, the calibration in force at record time, and
/// provenance for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordMeta {
    /// Format version (currently 1).
    pub version: u32,
    /// Free-form description of the recorded configuration (shown in
    /// replay reports).
    pub label: String,
    /// GPUs per node at record time.
    pub gpus: u32,
    /// Whether MPS was active.
    pub mps: bool,
    /// Kernel arbitration policy.
    pub schedule: SchedulePolicyKind,
    /// Whether per-rank async transfer streams were active.
    pub overlap_transfers: bool,
    /// Ranks the analytic collective formula was priced for (nodes ×
    /// procs of the *job*, which may exceed the replayed node count on
    /// the legacy single-node path).
    pub total_ranks: u32,
    /// The problem's work-scale factor — presets defined at paper scale
    /// must be [`NodeCalib::rescaled`] by this before repricing.
    pub work_scale: f64,
    /// Makespan of the live run, for delta reports.
    pub live_wall_seconds: f64,
    /// Node calibration the charges were recorded under.
    pub node_calib: NodeCalib,
    /// Network calibration the collective solo costs were priced with.
    pub net_calib: NetCalib,
    /// The originating scenario as compact JSON, when the recording was
    /// made through the scenario spec. Opaque to this crate (the spec
    /// lives in the `scenario` crate, which depends on this one);
    /// recordings made before the field existed parse as `None`.
    pub scenario: Option<String>,
}

impl Default for RecordMeta {
    fn default() -> Self {
        Self {
            version: 1,
            label: String::new(),
            gpus: 4,
            mps: true,
            schedule: SchedulePolicyKind::Auto,
            overlap_transfers: false,
            total_ranks: 1,
            work_scale: 1.0,
            live_wall_seconds: 0.0,
            node_calib: NodeCalib::default(),
            net_calib: NetCalib::default(),
            scenario: None,
        }
    }
}

/// A recorded workload: meta plus one [`RankTrace`] per rank per node
/// (segments and peak device bytes only — span events are a live-run
/// observability artifact and are not part of the charge record).
///
/// Each node's traces are shared, immutable storage, so `clone()` copies
/// one pointer per node. A multi-node job is usually one node's ranks
/// copied onto every node: [`RecordedWorkload::capture`] and
/// [`RecordedWorkload::parse_jsonl`] store such copies once, and the
/// engine compiles and prices each distinct node once. Sharing is
/// invisible in the JSONL form, which still writes every node.
#[derive(Debug, Clone)]
pub struct RecordedWorkload {
    pub meta: RecordMeta,
    /// One slice of rank traces per node, node-major like the engine.
    /// Bit-identical nodes may share one allocation; edit one node
    /// through `Arc::make_mut`, which leaves the others alone.
    pub nodes: Vec<Arc<[RankTrace]>>,
}

/// What loading or parsing a recorded workload can fail with.
#[derive(Debug)]
pub enum WhatifError {
    /// Reading the file failed.
    Io(io::Error),
    /// A line did not parse; `line` is 1-based.
    Parse { line: usize, msg: String },
}

impl fmt::Display for WhatifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WhatifError::Io(e) => write!(f, "cannot read workload: {e}"),
            WhatifError::Parse { line, msg } => {
                write!(f, "malformed workload line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for WhatifError {}

impl From<io::Error> for WhatifError {
    fn from(e: io::Error) -> Self {
        WhatifError::Io(e)
    }
}

impl From<JsonError> for WhatifError {
    fn from(e: JsonError) -> Self {
        parse_err(e.line(), e.to_string())
    }
}

/// What a replay produced: the engine's cluster accounting plus
/// per-label solo-estimate stats under the replay calibration (the rows
/// of the side-by-side report).
#[derive(Debug, Clone)]
pub struct Replayed {
    pub cluster: ClusterResult,
    pub per_label: BTreeMap<String, LabelStats>,
}

/// A named calibration preset for repricing, defined at paper scale.
#[derive(Debug, Clone, Copy)]
pub struct WhatifCalib {
    /// CLI name.
    pub name: &'static str,
    /// One-line description for `--help`-style listings.
    pub about: &'static str,
    /// Node calibration (rescale by the recording's `work_scale` before
    /// replaying).
    pub node: NodeCalib,
    /// Network calibration.
    pub net: NetCalib,
}

/// The preset registry. `identity` is deliberately absent: it means "use
/// the recorded calibration" and is resolved by the caller.
pub fn presets() -> Vec<WhatifCalib> {
    let a100 = NodeCalib::default();
    let h100 = NodeCalib {
        gpu: DeviceCalib::h100(),
        ..a100
    };
    let nvlink = |mut c: NodeCalib| {
        c.gpu = c.gpu.with_nvlink_host_link();
        c
    };
    vec![
        WhatifCalib {
            name: "a100",
            about: "the paper's machine: A100 40 GB, PCIe gen4, Slingshot-10",
            node: a100,
            net: NetCalib::slingshot10(),
        },
        WhatifCalib {
            name: "h100",
            about: "H100-SXM-like GPU (3.5x FP64, 2.2x HBM, 80 GB), PCIe gen5",
            node: h100,
            net: NetCalib::slingshot10(),
        },
        WhatifCalib {
            name: "a100-nvlink",
            about: "A100 with an NVLink-like host link instead of PCIe",
            node: nvlink(a100),
            net: NetCalib::slingshot10(),
        },
        WhatifCalib {
            name: "h100-nvlink",
            about: "H100-like GPU and an NVLink-like host link",
            node: nvlink(h100),
            net: NetCalib::slingshot10(),
        },
        WhatifCalib {
            name: "slingshot11",
            about: "the paper's node with Slingshot-11 NICs (2x injection bw)",
            node: a100,
            net: NetCalib::slingshot11(),
        },
    ]
}

/// A `--calib` name that resolves to no preset. The `Display` form lists
/// every valid name so a CLI can surface it verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPreset {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = presets().iter().map(|p| p.name).collect();
        write!(
            f,
            "unknown calibration preset '{}'; valid presets: {} (or 'identity' for the recorded calibration)",
            self.name,
            names.join(", ")
        )
    }
}

impl std::error::Error for UnknownPreset {}

/// Look up a preset by CLI name; the error names every valid preset.
pub fn preset(name: &str) -> Result<WhatifCalib, UnknownPreset> {
    presets()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| UnknownPreset {
            name: name.to_string(),
        })
}

/// The [`Reprice`] that carries a recording's record-time charges over
/// to `node`/`net`:
///
/// * **host seconds** scale by the CPU throughput ratio (host work is
///   modelled compute-bound on the host cores);
/// * **allocation latency** scales by the allocator-latency ratio;
/// * **collective solo cost** scales by the ratio of the analytic
///   allreduce formula under the new vs recorded [`NetCalib`] (exact
///   because the recorded cost is that formula times a scale factor).
///
/// Kernel and transfer segments carry pure work descriptors that the
/// cost table prices from `node` directly, and kernel `dispatch` is a
/// framework overhead, not a hardware cost, so it is kept. Under the
/// recorded calibration every ratio is exactly 1.0. Every replay and
/// sweep point prices through this one function.
pub(crate) fn reprice(meta: &RecordMeta, node: &NodeCalib, net: &NetCalib) -> Reprice {
    let old = &meta.node_calib;
    Reprice::Scaled {
        host_ratio: old.cpu.core_flops / node.cpu.core_flops,
        alloc_ratio: if old.gpu.alloc_latency > 0.0 {
            node.gpu.alloc_latency / old.gpu.alloc_latency
        } else {
            1.0
        },
        recorded_net: meta.net_calib,
        net: *net,
        total_ranks: meta.total_ranks,
    }
}

/// A recording compiled into the engine's calibration-invariant arena
/// ([`RecordedWorkload::compile_for_replay`]), ready to be priced under
/// any number of calibrations without compiling again.
#[derive(Debug)]
pub struct CompiledRecording<'a> {
    workload: &'a RecordedWorkload,
    compiled: CompiledWorkload,
}

impl CompiledRecording<'_> {
    /// [`RecordedWorkload::replay`] on the already-compiled arena: one
    /// cost table for `node`/`net`, then the event loop.
    pub fn replay(
        &self,
        node: &NodeCalib,
        net: &NetCalib,
        gpus: Option<u32>,
    ) -> Result<Replayed, EngineError> {
        let meta = &self.workload.meta;
        let costs = self
            .compiled
            .cost_table(&node.gpu, &reprice(meta, node, net))?;
        let cfg = NodeConfig {
            calib: *node,
            gpus: gpus.unwrap_or(meta.gpus),
            mps: meta.mps,
            schedule: meta.schedule,
            overlap_transfers: meta.overlap_transfers,
        };
        let out = simulate_compiled(&self.compiled, &costs, &cfg, false)?;
        Ok(Replayed {
            cluster: ClusterResult::from_output(out, self.workload.nodes.len()),
            per_label: self.compiled.label_stats(&costs, &node.gpu),
        })
    }
}

impl RecordedWorkload {
    /// Capture a workload from live rank traces, stripping the span
    /// events (the segment list *is* the charge record). A node
    /// bit-identical to an earlier one shares its storage.
    pub fn capture(node_traces: Vec<Vec<RankTrace>>, meta: RecordMeta) -> Self {
        let nodes = node_traces
            .into_iter()
            .map(|ranks| {
                ranks
                    .into_iter()
                    .map(|t| RankTrace {
                        segments: t.segments,
                        events: Vec::new(),
                        peak_device_bytes: t.peak_device_bytes,
                    })
                    .collect()
            })
            .collect();
        let nodes = NodeStore {
            open: nodes,
            ..NodeStore::default()
        };
        Self {
            meta,
            nodes: nodes.finish(),
        }
    }

    /// Compile the recording into the engine's calibration-invariant
    /// arena (one slice of rank traces per node; shared nodes stay
    /// pointer-equal, so compile classes them without a content compare).
    pub(crate) fn compile(&self) -> Result<CompiledWorkload, EngineError> {
        let slices: Vec<&[RankTrace]> = self.nodes.iter().map(|n| &**n).collect();
        CompiledWorkload::compile(&slices)
    }

    /// Replay through the discrete-event engine under the given
    /// calibration. `gpus` overrides the recorded per-node GPU count (a
    /// "what if the node had 8 GPUs" knob); `None` keeps it. No kernel
    /// numerics run — only the recorded charges are priced and replayed.
    pub fn replay(
        &self,
        node: &NodeCalib,
        net: &NetCalib,
        gpus: Option<u32>,
    ) -> Result<Replayed, EngineError> {
        self.compile_for_replay()?.replay(node, net, gpus)
    }

    /// Compile the recording once for several replays: each
    /// [`CompiledRecording::replay`] prices the one arena under its own
    /// calibration, with the same bits [`RecordedWorkload::replay`] gives.
    pub fn compile_for_replay(&self) -> Result<CompiledRecording<'_>, EngineError> {
        Ok(CompiledRecording {
            workload: self,
            compiled: self.compile()?,
        })
    }

    /// Replay under the recorded calibration — the differential oracle:
    /// the result must reproduce the live run exactly, and its
    /// `per_label` is the "original" column of a side-by-side report.
    pub fn replay_identity(&self) -> Result<Replayed, EngineError> {
        let node = self.meta.node_calib;
        let net = self.meta.net_calib;
        self.replay(&node, &net, None)
    }

    /// Serialize to the JSONL workload format.
    pub fn to_jsonl(&self) -> String {
        json::write_string(|out| self.write_jsonl(out))
    }

    fn write_jsonl(&self, out: &mut String) -> fmt::Result {
        write_meta(&self.meta, out)?;
        for (n, ranks) in self.nodes.iter().enumerate() {
            for (r, trace) in ranks.iter().enumerate() {
                writeln!(
                    out,
                    "{{\"type\":\"rank\",\"node\":{n},\"rank\":{r},\"peak_device_bytes\":{}}}",
                    trace.peak_device_bytes
                )?;
                for seg in &trace.segments {
                    write_segment(n, r, seg, out)?;
                }
            }
        }
        Ok(())
    }

    /// Parse the JSONL workload format. Every line is one JSON object
    /// read through [`crate::json`]; a key the writer does not emit is an
    /// error naming its line. A node is stored once its last rank is read
    /// (when the next node is declared, or at the end), shrunk to fit and
    /// shared with an earlier bit-identical node, so a copied node is never
    /// held twice. A line for a node already stored (lines of different
    /// nodes may interleave) reopens it and every node after it.
    pub fn parse_jsonl(text: &str) -> Result<Self, WhatifError> {
        let mut meta: Option<RecordMeta> = None;
        let mut nodes = NodeStore::default();
        for (i, line) in text.lines().enumerate() {
            let ln = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let mut f = Fields::of(json::parse_line(line, ln)?, "workload line", ln)?;
            match &*f.str_ref("type")? {
                "meta" => {
                    if meta.is_some() {
                        return Err(parse_err(ln, "duplicate meta line"));
                    }
                    meta = Some(parse_meta(&mut f, ln)?);
                }
                "rank" => {
                    if meta.is_none() {
                        return Err(parse_err(ln, "rank line before meta"));
                    }
                    let node: usize = f.int("node")?;
                    let rank: usize = f.int("rank")?;
                    if node > nodes.len() {
                        return Err(parse_err(ln, format!("node {node} declared out of order")));
                    }
                    if node == nodes.len() {
                        nodes.declare();
                    }
                    let ranks = nodes.open(node);
                    if rank != ranks.len() {
                        return Err(parse_err(
                            ln,
                            format!("rank {rank} of node {node} declared out of order"),
                        ));
                    }
                    ranks.push(RankTrace {
                        peak_device_bytes: f.int("peak_device_bytes")?,
                        ..RankTrace::default()
                    });
                }
                "seg" => {
                    let node: usize = f.int("node")?;
                    let rank: usize = f.int("rank")?;
                    let trace = (node < nodes.len())
                        .then(|| nodes.open(node).get_mut(rank))
                        .flatten()
                        .ok_or_else(|| {
                            parse_err(ln, format!("segment for undeclared rank {node}/{rank}"))
                        })?;
                    trace.segments.push(parse_segment(&mut f, ln)?);
                }
                other => return Err(parse_err(ln, format!("unknown line type '{other}'"))),
            }
            f.finish()?;
        }
        let meta = meta.ok_or_else(|| parse_err(1, "no meta line"))?;
        Ok(Self {
            meta,
            nodes: nodes.finish(),
        })
    }

    /// Write the workload to `path` as JSONL.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        fs::write(path, self.to_jsonl())
    }

    /// Read a workload back from `path`.
    pub fn read(path: &Path) -> Result<Self, WhatifError> {
        Self::parse_jsonl(&fs::read_to_string(path)?)
    }
}

/// Nodes as they are built: a stored prefix, where a node bit-identical
/// to an earlier one ([`class_after`]) is a second pointer to its class
/// representative's allocation, then the nodes still open to new ranks
/// and segments.
#[derive(Default)]
struct NodeStore {
    stored: Vec<Arc<[RankTrace]>>,
    /// The class of each stored node, as [`class_after`] gives it.
    classes: Vec<usize>,
    /// Nodes `stored.len()..`.
    open: Vec<Vec<RankTrace>>,
}

impl NodeStore {
    fn len(&self) -> usize {
        self.stored.len() + self.open.len()
    }

    /// Store every open node, then open a new, empty one.
    fn declare(&mut self) {
        self.store();
        self.open.push(Vec::new());
    }

    /// Node `n`, open for edits. A stored node is reopened together with
    /// every node after it, so the stored prefix stays classed in order.
    fn open(&mut self, n: usize) -> &mut Vec<RankTrace> {
        if n < self.stored.len() {
            let reopened: Vec<_> = self.stored.drain(n..).map(|node| node.to_vec()).collect();
            self.open.splice(0..0, reopened);
            self.classes.truncate(n);
        }
        &mut self.open[n - self.stored.len()]
    }

    /// Store every open node, in order: its segment lists shrunk to fit,
    /// then shared with the first earlier node of its class, or kept as
    /// the representative of a new one.
    fn store(&mut self) {
        for mut node in std::mem::take(&mut self.open) {
            for trace in &mut node {
                trace.segments.shrink_to_fit();
            }
            let class = class_after(&self.stored, &self.classes, &node);
            let shared = match self.stored.get(class) {
                Some(rep) => Arc::clone(rep),
                None => node.into(),
            };
            self.stored.push(shared);
            self.classes.push(class);
        }
    }

    fn finish(mut self) -> Vec<Arc<[RankTrace]>> {
        self.store();
        self.stored
    }
}

pub(crate) fn parse_err(line: usize, msg: impl Into<String>) -> WhatifError {
    WhatifError::Parse {
        line,
        msg: msg.into(),
    }
}

fn write_meta(m: &RecordMeta, out: &mut String) -> fmt::Result {
    let nc = &m.node_calib;
    let (c, g, f, n) = (&nc.cpu, &nc.gpu, &nc.framework, &m.net_calib);
    write!(
        out,
        concat!(
            "{{\"type\":\"meta\",\"version\":{},\"label\":\"{}\",\"gpus\":{},\"mps\":{},",
            "\"schedule\":\"{}\",\"overlap_transfers\":{},\"total_ranks\":{},",
            "\"work_scale\":{},\"live_wall_seconds\":{},",
            "\"cpu.cores\":{},\"cpu.core_flops\":{},\"cpu.socket_bw\":{},",
            "\"cpu.mem_bytes\":{},\"cpu.thread_overhead\":{},",
            "\"gpu.fp64_peak\":{},\"gpu.hbm_bw\":{},\"gpu.mem_bytes\":{},",
            "\"gpu.launch_latency\":{},\"gpu.saturation_items\":{},\"gpu.pcie_bw\":{},",
            "\"gpu.pcie_latency\":{},\"gpu.context_switch\":{},\"gpu.mps_crowding\":{},",
            "\"gpu.alloc_latency\":{},",
            "\"fw.jit_dispatch\":{},\"fw.jit_compile\":{},\"fw.omp_region\":{},",
            "\"fw.jit_mem_overhead\":{},\"fw.jit_process_device_bytes\":{},",
            "\"fw.omp_process_device_bytes\":{},\"fw.jit_runtime_factor\":{},",
            "\"fw.jit_cpu_backend_eff\":{},",
            "\"net.bw\":{},\"net.latency\":{}",
        ),
        m.version,
        Esc(&m.label),
        m.gpus,
        m.mps,
        m.schedule,
        m.overlap_transfers,
        m.total_ranks,
        Num(m.work_scale),
        Num(m.live_wall_seconds),
        c.cores,
        Num(c.core_flops),
        Num(c.socket_bw),
        c.mem_bytes,
        Num(c.thread_overhead),
        Num(g.fp64_peak),
        Num(g.hbm_bw),
        g.mem_bytes,
        Num(g.launch_latency),
        Num(g.saturation_items),
        Num(g.pcie_bw),
        Num(g.pcie_latency),
        Num(g.context_switch),
        Num(g.mps_crowding),
        Num(g.alloc_latency),
        Num(f.jit_dispatch),
        Num(f.jit_compile),
        Num(f.omp_region),
        Num(f.jit_mem_overhead),
        Num(f.jit_process_device_bytes),
        Num(f.omp_process_device_bytes),
        Num(f.jit_runtime_factor),
        Num(f.jit_cpu_backend_eff),
        Num(n.bw),
        Num(n.latency),
    )?;
    // Optional trailing field so pre-scenario recordings keep parsing
    // (and writing `None` reproduces their byte layout exactly).
    if let Some(s) = &m.scenario {
        write!(out, ",\"scenario\":\"{}\"", Esc(s))?;
    }
    out.write_str("}\n")
}

fn write_segment(node: usize, rank: usize, seg: &Segment, out: &mut String) -> fmt::Result {
    write!(out, "{{\"type\":\"seg\",\"node\":{node},\"rank\":{rank}")?;
    match seg {
        Segment::Host { seconds, label } => writeln!(
            out,
            ",\"kind\":\"host\",\"seconds\":{},\"label\":\"{}\"}}",
            Num(*seconds),
            Esc(label)
        ),
        Segment::Kernel { profile, dispatch } => writeln!(
            out,
            concat!(
                ",\"kind\":\"kernel\",\"name\":\"{}\",\"items\":{},",
                "\"flops_per_item\":{},\"bytes_per_item\":{},\"divergence\":{},",
                "\"dispatch\":{}}}",
            ),
            Esc(&profile.name),
            Num(profile.items),
            Num(profile.flops_per_item),
            Num(profile.bytes_per_item),
            Num(profile.divergence),
            Num(*dispatch),
        ),
        Segment::Transfer { bytes, dir, label } => writeln!(
            out,
            ",\"kind\":\"transfer\",\"bytes\":{},\"dir\":\"{}\",\"label\":\"{}\"}}",
            Num(*bytes),
            match dir {
                TransferDir::HostToDevice => "h2d",
                TransferDir::DeviceToHost => "d2h",
            },
            Esc(label)
        ),
        Segment::DeviceAlloc { seconds } => {
            writeln!(out, ",\"kind\":\"alloc\",\"seconds\":{}}}", Num(*seconds))
        }
        Segment::Collective {
            seconds,
            bytes,
            label,
        } => writeln!(
            out,
            ",\"kind\":\"collective\",\"seconds\":{},\"bytes\":{},\"label\":\"{}\"}}",
            Num(*seconds),
            Num(*bytes),
            Esc(label)
        ),
    }
}

fn parse_meta(f: &mut Fields<'_>, ln: usize) -> Result<RecordMeta, WhatifError> {
    let version: u32 = f.int("version")?;
    if version != 1 {
        return Err(parse_err(ln, format!("unsupported version {version}")));
    }
    let label = f.str("label")?;
    let gpus = f.int("gpus")?;
    let mps = f.bool("mps")?;
    let schedule: SchedulePolicyKind = f
        .str("schedule")?
        .parse()
        .map_err(|e: String| parse_err(ln, e))?;
    Ok(RecordMeta {
        version,
        label,
        gpus,
        mps,
        schedule,
        overlap_transfers: f.bool("overlap_transfers")?,
        total_ranks: f.int("total_ranks")?,
        work_scale: f.f64("work_scale")?,
        live_wall_seconds: f.f64("live_wall_seconds")?,
        node_calib: NodeCalib {
            cpu: crate::calib::CpuCalib {
                cores: f.int("cpu.cores")?,
                core_flops: f.f64("cpu.core_flops")?,
                socket_bw: f.f64("cpu.socket_bw")?,
                mem_bytes: f.int("cpu.mem_bytes")?,
                thread_overhead: f.f64("cpu.thread_overhead")?,
            },
            gpu: DeviceCalib {
                fp64_peak: f.f64("gpu.fp64_peak")?,
                hbm_bw: f.f64("gpu.hbm_bw")?,
                mem_bytes: f.int("gpu.mem_bytes")?,
                launch_latency: f.f64("gpu.launch_latency")?,
                saturation_items: f.f64("gpu.saturation_items")?,
                pcie_bw: f.f64("gpu.pcie_bw")?,
                pcie_latency: f.f64("gpu.pcie_latency")?,
                context_switch: f.f64("gpu.context_switch")?,
                mps_crowding: f.f64("gpu.mps_crowding")?,
                alloc_latency: f.f64("gpu.alloc_latency")?,
            },
            framework: crate::calib::FrameworkCalib {
                jit_dispatch: f.f64("fw.jit_dispatch")?,
                jit_compile: f.f64("fw.jit_compile")?,
                omp_region: f.f64("fw.omp_region")?,
                jit_mem_overhead: f.f64("fw.jit_mem_overhead")?,
                jit_process_device_bytes: f.f64("fw.jit_process_device_bytes")?,
                omp_process_device_bytes: f.f64("fw.omp_process_device_bytes")?,
                jit_runtime_factor: f.f64("fw.jit_runtime_factor")?,
                jit_cpu_backend_eff: f.f64("fw.jit_cpu_backend_eff")?,
            },
        },
        net_calib: NetCalib {
            bw: f.f64("net.bw")?,
            latency: f.f64("net.latency")?,
        },
        // Recordings made before the field existed have no key.
        scenario: f.opt("scenario", as_str)?,
    })
}

fn parse_segment(f: &mut Fields<'_>, ln: usize) -> Result<Segment, WhatifError> {
    Ok(match &*f.str_ref("kind")? {
        "host" => Segment::Host {
            seconds: f.f64("seconds")?,
            label: f.str("label")?,
        },
        "kernel" => Segment::Kernel {
            profile: KernelProfile {
                name: f.str("name")?,
                items: f.f64("items")?,
                flops_per_item: f.f64("flops_per_item")?,
                bytes_per_item: f.f64("bytes_per_item")?,
                divergence: f.f64("divergence")?,
            },
            dispatch: f.f64("dispatch")?,
        },
        "transfer" => Segment::Transfer {
            bytes: f.f64("bytes")?,
            dir: match &*f.str_ref("dir")? {
                "h2d" => TransferDir::HostToDevice,
                "d2h" => TransferDir::DeviceToHost,
                other => return Err(parse_err(ln, format!("unknown transfer dir '{other}'"))),
            },
            label: f.str("label")?,
        },
        "alloc" => Segment::DeviceAlloc {
            seconds: f.f64("seconds")?,
        },
        "collective" => Segment::Collective {
            seconds: f.f64("seconds")?,
            bytes: f.f64("bytes")?,
            label: f.str("label")?,
        },
        other => return Err(parse_err(ln, format!("unknown segment kind '{other}'"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_workload() -> RecordedWorkload {
        let k = KernelProfile {
            name: "scan\"map".into(), // exercise escaping
            items: 12345.0,
            flops_per_item: 40.5,
            bytes_per_item: 8.0,
            divergence: 1.25,
        };
        let mk = |f: f64| RankTrace {
            segments: vec![
                Segment::Host {
                    seconds: 0.01 * f,
                    label: "serial".into(),
                },
                Segment::Kernel {
                    profile: k.clone(),
                    dispatch: 1e-5,
                },
                Segment::Transfer {
                    bytes: 1e8 * f,
                    dir: TransferDir::HostToDevice,
                    label: "accel_data_update_device".into(),
                },
                Segment::DeviceAlloc { seconds: 1e-4 },
                Segment::Collective {
                    seconds: 2e-3,
                    bytes: 1e6,
                    label: "mpi_allreduce_zmap".into(),
                },
            ],
            events: Vec::new(),
            peak_device_bytes: (1e9 * f) as u64,
        };
        RecordedWorkload {
            meta: RecordMeta {
                label: "test workload".into(),
                total_ranks: 4,
                ..RecordMeta::default()
            },
            nodes: vec![vec![mk(1.0), mk(1.5)].into(), vec![mk(1.0), mk(1.5)].into()],
        }
    }

    #[test]
    fn jsonl_round_trip_is_lossless() {
        let w = sample_workload();
        let text = w.to_jsonl();
        let parsed = RecordedWorkload::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.meta, w.meta);
        assert_eq!(parsed.nodes.len(), w.nodes.len());
        let ranks = |w: &RecordedWorkload| {
            w.nodes
                .iter()
                .flat_map(|n| n.iter())
                .cloned()
                .collect::<Vec<_>>()
        };
        for (a, b) in ranks(&parsed).iter().zip(&ranks(&w)) {
            assert_eq!(a.segments, b.segments);
            assert_eq!(a.peak_device_bytes, b.peak_device_bytes);
        }
        // Re-serialization is byte-identical.
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn bit_identical_nodes_share_storage_through_parse_and_capture() {
        let w = sample_workload();
        // Node 2 differs from node 0 only by a `-0.0` host charge where
        // node 0 has `0.0`: equal by `==`, not by bits.
        let node = |zero: f64| {
            let mut ranks = w.nodes[0].to_vec();
            ranks[1].segments.push(Segment::Host {
                seconds: zero,
                label: "idle".into(),
            });
            ranks
        };
        let traces = vec![node(0.0), node(0.0), node(-0.0), node(0.0)];
        let captured = RecordedWorkload::capture(traces, w.meta.clone());
        let text = captured.to_jsonl();
        let parsed = RecordedWorkload::parse_jsonl(&text).unwrap();
        for r in [&captured, &parsed] {
            let shared = |a: usize, b: usize| Arc::ptr_eq(&r.nodes[a], &r.nodes[b]);
            assert!(shared(0, 1) && shared(0, 3));
            assert!(!shared(0, 2));
            assert_eq!(r.to_jsonl(), text);
        }
        // The `-0.0` node keeps its own bytes.
        let minus_zero = text
            .lines()
            .filter(|l| l.contains("\"seconds\":-0"))
            .count();
        assert_eq!(minus_zero, 1);
        assert!(text
            .lines()
            .any(|l| l.starts_with("{\"type\":\"seg\",\"node\":2,") && l.contains("-0")));
    }

    #[test]
    fn a_parsed_copied_recording_stores_one_node_shrunk_to_fit() {
        let mut w = sample_workload();
        w.nodes = vec![Arc::clone(&w.nodes[0]); 4];
        let text = w.to_jsonl();
        let parsed = RecordedWorkload::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.nodes.len(), 4);
        for node in &parsed.nodes {
            assert!(Arc::ptr_eq(node, &parsed.nodes[0]));
            for trace in node.iter() {
                assert_eq!(trace.segments.capacity(), trace.segments.len());
            }
        }
        assert_eq!(parsed.to_jsonl(), text);

        // Lines of different nodes may interleave: a segment of node 0
        // read after node 3 reopens the stored nodes, and the workload
        // and its sharing come out as from the writer's order.
        let mut lines: Vec<&str> = text.lines().collect();
        let late = lines
            .iter()
            .rposition(|l| l.starts_with("{\"type\":\"seg\",\"node\":0,"))
            .unwrap();
        let seg = lines.remove(late);
        lines.push(seg);
        let interleaved = RecordedWorkload::parse_jsonl(&lines.join("\n")).unwrap();
        assert_eq!(interleaved.to_jsonl(), text);
        for node in &interleaved.nodes {
            assert!(Arc::ptr_eq(node, &interleaved.nodes[0]));
        }
    }

    #[test]
    fn a_clone_shares_storage_and_make_mut_edits_one_node() {
        let mut w = sample_workload();
        w.nodes[1] = Arc::clone(&w.nodes[0]);
        let copy = w.clone();
        for (a, b) in w.nodes.iter().zip(&copy.nodes) {
            assert!(Arc::ptr_eq(a, b));
        }
        let before = w.to_jsonl();
        let mut edited = w.clone();
        Arc::make_mut(&mut edited.nodes[1])[0].peak_device_bytes += 1;
        assert!(Arc::ptr_eq(&edited.nodes[0], &w.nodes[0]));
        assert!(!Arc::ptr_eq(&edited.nodes[1], &w.nodes[1]));
        assert_eq!(
            edited.nodes[0][0].peak_device_bytes,
            w.nodes[0][0].peak_device_bytes
        );
        assert_eq!(
            edited.nodes[1][0].peak_device_bytes,
            w.nodes[0][0].peak_device_bytes + 1
        );
        assert_eq!(w.to_jsonl(), before);
        assert_eq!(copy.to_jsonl(), before);
    }

    #[test]
    fn embedded_scenario_round_trips_and_stays_optional() {
        let mut w = sample_workload();
        // Without a scenario the meta line has no trailing field at all
        // (old recordings' byte layout).
        assert!(!w.to_jsonl().lines().next().unwrap().contains("scenario"));
        // With one — including the quotes and backslashes compact JSON is
        // full of — the embedding survives a lossless round trip.
        w.meta.scenario = Some("{\"schema_version\":1,\"name\":\"a \\\"b\\\\\"}".to_string());
        let text = w.to_jsonl();
        let parsed = RecordedWorkload::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.meta.scenario, w.meta.scenario);
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn file_round_trip() {
        let w = sample_workload();
        let path = std::env::temp_dir().join("whatif_roundtrip.jsonl");
        w.write(&path).unwrap();
        let r = RecordedWorkload::read(&path).unwrap();
        assert_eq!(r.meta, w.meta);
        assert_eq!(r.nodes.iter().map(|n| n.len()).sum::<usize>(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        let w = sample_workload();
        let mut lines: Vec<String> = w.to_jsonl().lines().map(String::from).collect();
        // Give a segment's numeric field the wrong type, then break its
        // JSON, then add a key the writer never emits.
        let seg_idx = lines
            .iter()
            .position(|l| l.contains("\"kind\":\"host\""))
            .unwrap();
        let host = lines[seg_idx].clone();
        for (bad, names) in [
            (
                host.replace("\"seconds\":", "\"seconds\":\"oops\",\"x\":"),
                "seconds",
            ),
            (host.replace("\"seconds\":", "\"seconds\":oops"), "'o'"),
            (host.replace("\"kind\":", "\"extra\":1,\"kind\":"), "extra"),
        ] {
            lines[seg_idx] = bad;
            match RecordedWorkload::parse_jsonl(&lines.join("\n")).unwrap_err() {
                WhatifError::Parse { line, ref msg } => {
                    assert_eq!(line, seg_idx + 1);
                    assert!(msg.contains(names), "{msg}");
                }
                other => panic!("expected parse error, got {other:?}"),
            }
        }
        // Unknown line type.
        let err = RecordedWorkload::parse_jsonl("{\"type\":\"mystery\"}").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        // Segment for a rank never declared.
        let bad = format!(
            "{}{}",
            sample_workload().to_jsonl().lines().next().unwrap(),
            "\n{\"type\":\"seg\",\"node\":9,\"rank\":0,\"kind\":\"alloc\",\"seconds\":1.0}\n"
        );
        assert!(matches!(
            RecordedWorkload::parse_jsonl(&bad),
            Err(WhatifError::Parse { line: 2, .. })
        ));
        // Missing meta entirely.
        assert!(RecordedWorkload::parse_jsonl("").is_err());
    }

    #[test]
    fn identity_replay_reports_the_recorded_charges_bit_for_bit() {
        let w = sample_workload();
        let id = w.replay_identity().unwrap().per_label;
        // Host, alloc and collective rows are the recorded seconds, summed
        // in recorded order; transfers keep their recorded bytes.
        let sum = |f: &dyn Fn(&Segment) -> Option<f64>| {
            w.nodes
                .iter()
                .flat_map(|n| n.iter())
                .flat_map(|t| &t.segments)
                .filter_map(f)
                .fold(0.0, |acc, v| acc + v)
        };
        let host = sum(&|s| match s {
            Segment::Host { seconds, .. } => Some(*seconds),
            _ => None,
        });
        let alloc = sum(&|s| match s {
            Segment::DeviceAlloc { seconds } => Some(*seconds),
            _ => None,
        });
        let coll = sum(&|s| match s {
            Segment::Collective { seconds, .. } => Some(*seconds),
            _ => None,
        });
        let h2d = sum(&|s| match s {
            Segment::Transfer { bytes, .. } => Some(*bytes),
            _ => None,
        });
        assert_eq!(id["serial"].seconds.to_bits(), host.to_bits());
        assert_eq!(id["accel_data_alloc"].seconds.to_bits(), alloc.to_bits());
        assert_eq!(id["mpi_allreduce_zmap"].seconds.to_bits(), coll.to_bits());
        assert_eq!(
            id["accel_data_update_device"].bytes.to_bits(),
            h2d.to_bits()
        );
        for stat in id.values() {
            assert_eq!(stat.calls, 4);
        }
    }

    #[test]
    fn replay_rescales_host_alloc_and_collective() {
        let w = sample_workload();
        let mut fast = w.meta.node_calib;
        fast.cpu.core_flops *= 2.0;
        fast.gpu.alloc_latency *= 0.5;
        let net = NetCalib {
            bw: w.meta.net_calib.bw * 2.0,
            latency: w.meta.net_calib.latency,
        };
        let orig = w.replay_identity().unwrap().per_label;
        let new = w.replay(&fast, &net, None).unwrap().per_label;
        let (a, b) = (orig["serial"].seconds, new["serial"].seconds);
        assert!((b - a / 2.0).abs() < 1e-15, "host {b} vs {}", a / 2.0);
        let (a, b) = (
            orig["accel_data_alloc"].seconds,
            new["accel_data_alloc"].seconds,
        );
        assert!((b - a * 0.5).abs() < 1e-18, "alloc {b} vs {}", a * 0.5);
        // Kernel and transfer descriptors are priced from the unchanged
        // device: their rows do not move.
        for label in ["scan\"map", "accel_data_update_device"] {
            assert_eq!(orig[label], new[label], "{label}");
        }
        // Doubling net bandwidth shrinks but does not halve the
        // collective cost (the latency term is unchanged).
        let (a, b) = (
            orig["mpi_allreduce_zmap"].seconds,
            new["mpi_allreduce_zmap"].seconds,
        );
        assert!(b < a && b > a / 2.0, "collective {b} vs {a}");
        assert_eq!(
            orig["mpi_allreduce_zmap"].bytes,
            new["mpi_allreduce_zmap"].bytes
        );
    }

    #[test]
    fn zero_second_charges_keep_their_calls() {
        // The engine has nothing to replay for a charge of 0 s, but the
        // report still counts the segment, as the live run's stats do.
        let mut w = sample_workload();
        for t in w.nodes.iter_mut().flat_map(Arc::make_mut) {
            t.segments.push(Segment::Host {
                seconds: 0.0,
                label: "idle".into(),
            });
            t.segments.push(Segment::DeviceAlloc { seconds: 0.0 });
        }
        let stats = w.replay_identity().unwrap().per_label;
        assert_eq!(stats["idle"].calls, 4);
        assert_eq!(stats["idle"].seconds, 0.0);
        assert_eq!(stats["accel_data_alloc"].calls, 8);
    }

    #[test]
    fn replay_prices_recorded_charges_only() {
        let w = sample_workload();
        let id = w.replay_identity().unwrap();
        assert!(id.cluster.wall_seconds > 0.0);
        assert_eq!(id.cluster.nodes, 2);
        // An H100-like device never slows the kernel's solo estimate.
        let h100 = preset("h100").unwrap();
        let rep = w.replay(&h100.node, &h100.net, None).unwrap();
        assert!(rep.per_label["scan\"map"].seconds <= id.per_label["scan\"map"].seconds);
    }

    #[test]
    fn one_compile_replays_like_separate_replays() {
        let w = sample_workload();
        let compiled = w.compile_for_replay().unwrap();
        let h100 = preset("h100").unwrap();
        let (node, net) = (h100.node.rescaled(0.5), h100.net);
        for (node, net, gpus) in [
            (w.meta.node_calib, w.meta.net_calib, None),
            (node, net, Some(2)),
            (w.meta.node_calib, w.meta.net_calib, None),
        ] {
            let (once, fresh) = (
                compiled.replay(&node, &net, gpus).unwrap(),
                w.replay(&node, &net, gpus).unwrap(),
            );
            let bits = |r: &Replayed| r.cluster.wall_seconds.to_bits();
            assert_eq!(bits(&once), bits(&fresh));
            assert_eq!(format!("{:?}", once), format!("{:?}", fresh));
        }
    }

    #[test]
    fn gpu_count_override_reaches_the_engine() {
        let w = sample_workload();
        let one = w
            .replay(&w.meta.node_calib, &w.meta.net_calib, Some(1))
            .unwrap();
        // 2 ranks squeezed onto 1 GPU can only be slower or equal.
        let four = w
            .replay(&w.meta.node_calib, &w.meta.net_calib, Some(4))
            .unwrap();
        assert!(one.cluster.wall_seconds >= four.cluster.wall_seconds);
        assert_eq!(one.cluster.gpu_busy.len(), 2); // 1 GPU x 2 nodes
        assert_eq!(four.cluster.gpu_busy.len(), 8);
    }

    #[test]
    fn presets_resolve_by_name() {
        for p in presets() {
            assert_eq!(preset(p.name).unwrap().name, p.name);
            assert!(!p.about.is_empty());
        }
        // `identity` is resolved by callers, not the registry; the typed
        // error says so and lists every valid preset.
        let err = preset("identity").unwrap_err();
        assert_eq!(err.name, "identity");
        assert!(err.to_string().contains("recorded calibration"), "{err}");
        let err = preset("nope").unwrap_err();
        for p in presets() {
            assert!(err.to_string().contains(p.name), "{err} missing {}", p.name);
        }
        assert_eq!(preset("h100").unwrap().node.gpu, DeviceCalib::h100());
    }
}
