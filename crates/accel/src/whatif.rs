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
//! any kernel numerics**: the engine recomputes kernel and transfer
//! times from the new calibration, and [`RecordedWorkload::reprice`]
//! rescales the charges whose cost was baked in at record time (host
//! work, allocation latency, collective solo cost).
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
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::calib::{DeviceCalib, NetCalib, NodeCalib};
use crate::comm::allreduce_seconds;
use crate::context::LabelStats;
use crate::engine::{simulate_cluster, ClusterResult, EngineError, SchedulePolicyKind};
use crate::json::{self, as_str, esc, num, Fields, JsonError};
use crate::node::NodeConfig;
use crate::profile::KernelProfile;
use crate::trace::{RankTrace, Segment, TransferDir};

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
#[derive(Debug, Clone)]
pub struct RecordedWorkload {
    pub meta: RecordMeta,
    /// One `Vec<RankTrace>` per node, node-major like the engine.
    pub nodes: Vec<Vec<RankTrace>>,
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

/// Per-label solo-estimate stats for a set of rank traces under an
/// arbitrary calibration — the same accounting [`crate::Context`] keeps
/// while recording (kernels: solo wall + dispatch + launch latency;
/// transfers: PCIe time; host/alloc/collective: their seconds), so
/// live-run stats and repriced stats are directly comparable.
pub fn solo_label_stats(
    nodes: &[Vec<RankTrace>],
    calib: &NodeCalib,
) -> BTreeMap<String, LabelStats> {
    let mut out: BTreeMap<String, LabelStats> = BTreeMap::new();
    let mut add = |label: &str, seconds: f64, bytes: f64| {
        let e = out.entry(label.to_string()).or_default();
        e.calls += 1;
        e.seconds += seconds;
        e.bytes += bytes;
    };
    for trace in nodes.iter().flatten() {
        for seg in &trace.segments {
            match seg {
                Segment::Host { seconds, label } => add(label, *seconds, 0.0),
                Segment::Kernel { profile, dispatch } => add(
                    &profile.name,
                    profile.solo_seconds(&calib.gpu) + dispatch + calib.gpu.launch_latency,
                    0.0,
                ),
                Segment::Transfer { bytes, label, .. } => add(
                    label,
                    calib.gpu.pcie_latency + bytes / calib.gpu.pcie_bw,
                    *bytes,
                ),
                Segment::DeviceAlloc { seconds } => add("accel_data_alloc", *seconds, 0.0),
                Segment::Collective {
                    seconds,
                    bytes,
                    label,
                } => add(label, *seconds, *bytes),
            }
        }
    }
    out
}

impl RecordedWorkload {
    /// Capture a workload from live rank traces, stripping the span
    /// events (the segment list *is* the charge record).
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
        Self { meta, nodes }
    }

    /// Re-express every recorded charge under a new calibration.
    ///
    /// Kernel and transfer segments carry pure work descriptors (items,
    /// flops, bytes) — the engine prices them from `NodeConfig.calib` at
    /// replay time, so they pass through unchanged. Three charges were
    /// priced at record time and are rescaled here:
    ///
    /// * **host seconds** by the CPU throughput ratio (host work is
    ///   modelled compute-bound on the host cores);
    /// * **allocation latency** by the allocator-latency ratio;
    /// * **collective solo cost** by the ratio of the analytic allreduce
    ///   formula under the new vs recorded [`NetCalib`] (exact because
    ///   the recorded cost is that formula times a scale factor).
    ///
    /// Kernel `dispatch` is a framework overhead, not a hardware cost,
    /// and is preserved. Under the identity calibration every ratio is
    /// exactly 1.0, so repricing is bitwise lossless.
    pub fn reprice(&self, node: &NodeCalib, net: &NetCalib) -> Vec<Vec<RankTrace>> {
        let old = &self.meta.node_calib;
        let host_ratio = old.cpu.core_flops / node.cpu.core_flops;
        let alloc_ratio = if old.gpu.alloc_latency > 0.0 {
            node.gpu.alloc_latency / old.gpu.alloc_latency
        } else {
            1.0
        };
        let ranks = self.meta.total_ranks;
        self.nodes
            .iter()
            .map(|ranks_of_node| {
                ranks_of_node
                    .iter()
                    .map(|t| RankTrace {
                        segments: t
                            .segments
                            .iter()
                            .map(|seg| match seg {
                                Segment::Host { seconds, label } => Segment::Host {
                                    seconds: seconds * host_ratio,
                                    label: label.clone(),
                                },
                                Segment::DeviceAlloc { seconds } => Segment::DeviceAlloc {
                                    seconds: seconds * alloc_ratio,
                                },
                                Segment::Collective {
                                    seconds,
                                    bytes,
                                    label,
                                } => {
                                    let was =
                                        allreduce_seconds(&self.meta.net_calib, ranks, *bytes);
                                    let now = allreduce_seconds(net, ranks, *bytes);
                                    let ratio = if was > 0.0 { now / was } else { 1.0 };
                                    Segment::Collective {
                                        seconds: seconds * ratio,
                                        bytes: *bytes,
                                        label: label.clone(),
                                    }
                                }
                                other => other.clone(),
                            })
                            .collect(),
                        events: Vec::new(),
                        peak_device_bytes: t.peak_device_bytes,
                    })
                    .collect()
            })
            .collect()
    }

    /// Reprice and replay through the discrete-event engine under the
    /// given calibration. `gpus` overrides the recorded per-node GPU
    /// count (a "what if the node had 8 GPUs" knob); `None` keeps it.
    /// No kernel numerics run — only the recorded charges are replayed.
    pub fn replay(
        &self,
        node: &NodeCalib,
        net: &NetCalib,
        gpus: Option<u32>,
    ) -> Result<Replayed, EngineError> {
        let repriced = self.reprice(node, net);
        let cfg = NodeConfig {
            calib: *node,
            gpus: gpus.unwrap_or(self.meta.gpus),
            mps: self.meta.mps,
            schedule: self.meta.schedule,
            overlap_transfers: self.meta.overlap_transfers,
        };
        let cluster = simulate_cluster(&repriced, &cfg)?;
        let per_label = solo_label_stats(&repriced, node);
        Ok(Replayed { cluster, per_label })
    }

    /// Replay under the recorded calibration — the differential oracle:
    /// the result must reproduce the live run exactly.
    pub fn replay_identity(&self) -> Result<Replayed, EngineError> {
        let node = self.meta.node_calib;
        let net = self.meta.net_calib;
        self.replay(&node, &net, None)
    }

    /// Per-label solo stats of the recording under its own calibration
    /// (the "original" column of a side-by-side report).
    pub fn live_label_stats(&self) -> BTreeMap<String, LabelStats> {
        solo_label_stats(&self.nodes, &self.meta.node_calib)
    }

    /// Serialize to the JSONL workload format.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        write_meta(&self.meta, &mut out);
        for (n, ranks) in self.nodes.iter().enumerate() {
            for (r, trace) in ranks.iter().enumerate() {
                out.push_str(&format!(
                    "{{\"type\":\"rank\",\"node\":{n},\"rank\":{r},\"peak_device_bytes\":{}}}\n",
                    trace.peak_device_bytes
                ));
                for seg in &trace.segments {
                    write_segment(n, r, seg, &mut out);
                }
            }
        }
        out
    }

    /// Parse the JSONL workload format. Every line is one JSON object
    /// read through [`crate::json`]; a key the writer does not emit is an
    /// error naming its line.
    pub fn parse_jsonl(text: &str) -> Result<Self, WhatifError> {
        let mut meta: Option<RecordMeta> = None;
        let mut nodes: Vec<Vec<RankTrace>> = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let ln = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let mut f = Fields::of(json::parse_line(line, ln)?, "workload line", ln)?;
            match f.str("type")?.as_str() {
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
                        nodes.push(Vec::new());
                    }
                    if rank != nodes[node].len() {
                        return Err(parse_err(
                            ln,
                            format!("rank {rank} of node {node} declared out of order"),
                        ));
                    }
                    nodes[node].push(RankTrace {
                        peak_device_bytes: f.int("peak_device_bytes")?,
                        ..RankTrace::default()
                    });
                }
                "seg" => {
                    let node: usize = f.int("node")?;
                    let rank: usize = f.int("rank")?;
                    let trace = nodes
                        .get_mut(node)
                        .and_then(|n| n.get_mut(rank))
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
        Ok(Self { meta, nodes })
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

pub(crate) fn parse_err(line: usize, msg: impl Into<String>) -> WhatifError {
    WhatifError::Parse {
        line,
        msg: msg.into(),
    }
}

fn write_meta(m: &RecordMeta, out: &mut String) {
    let nc = &m.node_calib;
    let (c, g, f, n) = (&nc.cpu, &nc.gpu, &nc.framework, &m.net_calib);
    out.push_str(&format!(
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
        esc(&m.label),
        m.gpus,
        m.mps,
        m.schedule,
        m.overlap_transfers,
        m.total_ranks,
        num(m.work_scale),
        num(m.live_wall_seconds),
        c.cores,
        num(c.core_flops),
        num(c.socket_bw),
        c.mem_bytes,
        num(c.thread_overhead),
        num(g.fp64_peak),
        num(g.hbm_bw),
        g.mem_bytes,
        num(g.launch_latency),
        num(g.saturation_items),
        num(g.pcie_bw),
        num(g.pcie_latency),
        num(g.context_switch),
        num(g.mps_crowding),
        num(g.alloc_latency),
        num(f.jit_dispatch),
        num(f.jit_compile),
        num(f.omp_region),
        num(f.jit_mem_overhead),
        num(f.jit_process_device_bytes),
        num(f.omp_process_device_bytes),
        num(f.jit_runtime_factor),
        num(f.jit_cpu_backend_eff),
        num(n.bw),
        num(n.latency),
    ));
    // Optional trailing field so pre-scenario recordings keep parsing
    // (and writing `None` reproduces their byte layout exactly).
    if let Some(s) = &m.scenario {
        out.push_str(&format!(",\"scenario\":\"{}\"", esc(s)));
    }
    out.push_str("}\n");
}

fn write_segment(node: usize, rank: usize, seg: &Segment, out: &mut String) {
    let head = format!("{{\"type\":\"seg\",\"node\":{node},\"rank\":{rank}");
    match seg {
        Segment::Host { seconds, label } => out.push_str(&format!(
            "{head},\"kind\":\"host\",\"seconds\":{},\"label\":\"{}\"}}\n",
            num(*seconds),
            esc(label)
        )),
        Segment::Kernel { profile, dispatch } => out.push_str(&format!(
            concat!(
                "{},\"kind\":\"kernel\",\"name\":\"{}\",\"items\":{},",
                "\"flops_per_item\":{},\"bytes_per_item\":{},\"divergence\":{},",
                "\"dispatch\":{}}}\n",
            ),
            head,
            esc(&profile.name),
            num(profile.items),
            num(profile.flops_per_item),
            num(profile.bytes_per_item),
            num(profile.divergence),
            num(*dispatch),
        )),
        Segment::Transfer { bytes, dir, label } => out.push_str(&format!(
            "{head},\"kind\":\"transfer\",\"bytes\":{},\"dir\":\"{}\",\"label\":\"{}\"}}\n",
            num(*bytes),
            match dir {
                TransferDir::HostToDevice => "h2d",
                TransferDir::DeviceToHost => "d2h",
            },
            esc(label)
        )),
        Segment::DeviceAlloc { seconds } => out.push_str(&format!(
            "{head},\"kind\":\"alloc\",\"seconds\":{}}}\n",
            num(*seconds)
        )),
        Segment::Collective {
            seconds,
            bytes,
            label,
        } => out.push_str(&format!(
            "{head},\"kind\":\"collective\",\"seconds\":{},\"bytes\":{},\"label\":\"{}\"}}\n",
            num(*seconds),
            num(*bytes),
            esc(label)
        )),
    }
}

fn parse_meta(f: &mut Fields, ln: usize) -> Result<RecordMeta, WhatifError> {
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

fn parse_segment(f: &mut Fields, ln: usize) -> Result<Segment, WhatifError> {
    Ok(match f.str("kind")?.as_str() {
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
            dir: match f.str("dir")?.as_str() {
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
            nodes: vec![vec![mk(1.0), mk(1.5)], vec![mk(1.0), mk(1.5)]],
        }
    }

    #[test]
    fn jsonl_round_trip_is_lossless() {
        let w = sample_workload();
        let text = w.to_jsonl();
        let parsed = RecordedWorkload::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.meta, w.meta);
        assert_eq!(parsed.nodes.len(), w.nodes.len());
        for (a, b) in parsed.nodes.iter().flatten().zip(w.nodes.iter().flatten()) {
            assert_eq!(a.segments, b.segments);
            assert_eq!(a.peak_device_bytes, b.peak_device_bytes);
        }
        // Re-serialization is byte-identical.
        assert_eq!(parsed.to_jsonl(), text);
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
        assert_eq!(r.nodes.iter().map(Vec::len).sum::<usize>(), 4);
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
    fn identity_reprice_is_bitwise_lossless() {
        let w = sample_workload();
        let repriced = w.reprice(&w.meta.node_calib, &w.meta.net_calib);
        for (a, b) in repriced.iter().flatten().zip(w.nodes.iter().flatten()) {
            assert_eq!(a.segments, b.segments);
        }
    }

    #[test]
    fn reprice_rescales_host_alloc_and_collective() {
        let w = sample_workload();
        let mut fast = w.meta.node_calib;
        fast.cpu.core_flops *= 2.0;
        fast.gpu.alloc_latency *= 0.5;
        let net = NetCalib {
            bw: w.meta.net_calib.bw * 2.0,
            latency: w.meta.net_calib.latency,
        };
        let repriced = w.reprice(&fast, &net);
        let orig = &w.nodes[0][0].segments;
        let new = &repriced[0][0].segments;
        match (&orig[0], &new[0]) {
            (Segment::Host { seconds: a, .. }, Segment::Host { seconds: b, .. }) => {
                assert!((b - a / 2.0).abs() < 1e-15, "host {b} vs {}", a / 2.0);
            }
            _ => panic!("expected host segments"),
        }
        // Kernel and transfer descriptors pass through untouched.
        assert_eq!(orig[1], new[1]);
        assert_eq!(orig[2], new[2]);
        match (&orig[3], &new[3]) {
            (Segment::DeviceAlloc { seconds: a }, Segment::DeviceAlloc { seconds: b }) => {
                assert!((b - a * 0.5).abs() < 1e-18);
            }
            _ => panic!("expected alloc segments"),
        }
        match (&orig[4], &new[4]) {
            (Segment::Collective { seconds: a, .. }, Segment::Collective { seconds: b, .. }) => {
                // Doubling net bandwidth shrinks but does not halve the
                // cost (the latency term is unchanged).
                assert!(b < a && *b > a / 2.0, "collective {b} vs {a}");
            }
            _ => panic!("expected collective segments"),
        }
    }

    #[test]
    fn replay_prices_recorded_charges_only() {
        let w = sample_workload();
        let id = w.replay_identity().unwrap();
        assert!(id.cluster.wall_seconds > 0.0);
        assert_eq!(id.cluster.nodes, 2);
        // Per-label stats match the live accounting under the same calib.
        let live = w.live_label_stats();
        for (label, stat) in &id.per_label {
            assert_eq!(live[label], *stat, "{label}");
        }
        // An H100-like device never slows the kernel's solo estimate.
        let h100 = preset("h100").unwrap();
        let rep = w.replay(&h100.node, &h100.net, None).unwrap();
        assert!(rep.per_label["scan\"map"].seconds <= live["scan\"map"].seconds);
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
