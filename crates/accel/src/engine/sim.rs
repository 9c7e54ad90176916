//! The discrete-event core: ranks, flows, resources and the event loop.
//!
//! The engine replays recorded [`RankTrace`]s against typed shared
//! resources ([`SmPool`], [`PcieLink`], [`Nic`]). Between events every
//! active *flow* (a rank's current segment, or the head of its async
//! transfer stream) drains at a constant rate; an event is whatever
//! changes a rate:
//!
//! * a flow completing (predicted on the [`EventQueue`], one slot per
//!   flow, re-keyed in place when resource membership shifts),
//! * a barrier releasing (the last rank arriving at a collective),
//! * a stream draining (waking a kernel that was waiting on its data).
//!
//! Kernel arbitration is delegated to the configured
//! [`SchedulePolicy`]; host segments always run at rate 1 (cores are
//! partitioned among ranks and segments were sized for their thread
//! count); PCIe links and NICs are shared equally among their users.
//!
//! # Hot-path architecture
//!
//! The loop is built to run allocation-free after setup and to touch
//! only what an event changes:
//!
//! * **Compiled segment arena, split by calibration dependence.** The
//!   traces are compiled once into a [`CompiledWorkload`]: a flat
//!   `Vec<QSeg>` of calibration-*invariant* quantities (byte counts,
//!   work-item counts, recorded charges) with every label interned as a
//!   [`LabelId`], plus the per-node segment ranges and barrier topology.
//!   A cheap second pass ([`CompiledWorkload::cost_table`]) materializes
//!   a `Vec<CSeg>` of plain-old-data *costs* for one calibration, so a
//!   what-if sweep compiles the workload once and prices each grid point
//!   with a small cost vector — no `String` re-interning, no segment
//!   graph re-allocation. The loop never chases `String`s or recomputes
//!   kernel models. Recorded charges are validated finite at compile and
//!   derived costs at table time; a NaN duration is a typed
//!   [`EngineError::NonFiniteCharge`], not a silently-bogus makespan.
//! * **Settle-on-change flows.** A flow's `remaining` is only brought up
//!   to date (`remaining -= rate · Δt`) when its rate is about to change
//!   or it completes. Rates change exactly when a *resource membership*
//!   changes, so each event re-rates the handful of flows sharing the
//!   affected pool/link/NIC instead of advancing every rank in the job.
//!   A re-rated flow re-keys its one queued prediction (or cancels it
//!   when the flow stops), so the queue holds only live predictions.
//! * **Per-node shards.** GPUs, PCIe links and the NIC are node-local;
//!   only collective barriers couple nodes. Each node is therefore an
//!   independent sub-simulation ([`Shard`]) with its own clock and
//!   [`EventQueue`], stepped in parallel (`par_iter_mut` over shards —
//!   the rayon shim sequentialises this offline, the structure is
//!   thread-ready) between barrier releases. A shard stops popping as
//!   soon as all of its participants in the earliest unreleased barrier
//!   have arrived; the coordinator then releases that barrier at the
//!   global max arrival time and resumes the shards. Shards with *no*
//!   collective participants run to completion — their ranks are never
//!   coupled to another node. Following MPI semantics, every barrier
//!   expects the full participant set (all ranks with at least one
//!   collective segment); a participant that cannot arrive — its trace
//!   ran out of collectives — leaves the barrier short forever and the
//!   replay reports [`EngineError::Deadlock`] naming the waiting ranks.
//!   A shard that runs past its step limit, sized from its trace, stops
//!   with [`EngineError::NoConvergence`].
//!
//! # Determinism contract
//!
//! Results are a pure function of the traces and configuration,
//! independent of shard scheduling: shards share no mutable state while
//! stepping, events within a shard pop in `(time, seq)` order (`seq` is
//! taken by every schedule call, in engine order), load
//! sums and policy inputs are assembled in ascending rank order, and all
//! cross-shard reductions (arrival draining, release, output merge) walk
//! shards in node order. The golden-path regression in `repro-bench`
//! holds makespans to the pre-refactor analytic replay within 1e-9, and
//! the determinism suite asserts byte-identical exported traces across
//! repeated runs and thread counts.

use std::collections::VecDeque;

use rayon::prelude::*;

use crate::calib::{DeviceCalib, NetCalib};
use crate::comm::allreduce_seconds;
use crate::engine::error::EngineError;
use crate::engine::event::{EventQueue, FlowId};
use crate::engine::policy::{GpuSchedContext, KernelReq, SchedulePolicy};
use crate::engine::resources::{Nic, PcieLink, SmPool};
use crate::node::{GpuSample, NodeConfig, NodeOom, NodeTimeline, TimelineEvent, TimelineKind};
use crate::profile::{device_seconds_raw, solo_utilization_raw};
use crate::trace::{LabelId, LabelTable, RankTrace, Segment};

/// Completion tolerance on a flow's remaining demand (matches the
/// pre-optimization engine's per-event check).
const EPS: f64 = 1e-15;

/// Everything the event loop accumulates.
#[derive(Debug, Default)]
pub(crate) struct SimOutput {
    /// Per-rank completion times, global rank order (node-major).
    pub rank_seconds: Vec<f64>,
    /// Per-GPU busy seconds, global GPU order (node-major).
    pub gpu_busy: Vec<f64>,
    /// Per-GPU context-switch seconds, global GPU order.
    pub switch_seconds: Vec<f64>,
    /// Per-node NIC busy seconds.
    pub nic_busy: Vec<f64>,
    /// Summed per-rank seconds spent inside collectives (network phase).
    pub collective_seconds: f64,
    /// Summed per-rank seconds spent waiting at collective barriers.
    pub collective_wait_seconds: f64,
    /// The contention-resolved wall-clock timeline (empty unless
    /// recording was requested).
    pub timeline: NodeTimeline,
}

impl SimOutput {
    /// Wall-clock seconds until the last rank finished. Charges are
    /// validated finite at intake, so the `f64::max` fold cannot drop a
    /// NaN here.
    pub fn wall_seconds(&self) -> f64 {
        self.rank_seconds.iter().cloned().fold(0.0, f64::max)
    }
}

/// A calibration-*invariant* compiled segment: the raw recorded
/// quantities of one [`Segment`], labels interned, `String`s gone.
/// [`CompiledWorkload::compile`] builds these once per workload;
/// [`CompiledWorkload::cost_table`] prices them into [`CSeg`]s per
/// calibration.
#[derive(Debug, Clone, Copy)]
pub(crate) enum QSeg {
    /// Host work. `alloc` marks a recorded device-allocation charge,
    /// which reprices by the allocator-latency ratio instead of the CPU
    /// throughput ratio (mirrors the whatif repricer).
    Host {
        seconds: f64,
        alloc: bool,
        label: LabelId,
    },
    /// A kernel work descriptor (the [`crate::profile::KernelProfile`]
    /// quantities) plus its recorded dispatch overhead.
    Kernel {
        items: f64,
        flops_per_item: f64,
        bytes_per_item: f64,
        divergence: f64,
        dispatch: f64,
        name: LabelId,
        dispatch_label: LabelId,
    },
    /// A PCIe transfer's payload.
    Transfer { bytes: f64, label: LabelId },
    /// A collective's recorded solo cost and payload.
    Collective {
        seconds: f64,
        bytes: f64,
        label: LabelId,
        wait_label: LabelId,
    },
}

/// Per-rank replay metadata, calibration-invariant.
#[derive(Debug, Clone)]
pub(crate) struct CRank {
    /// Node-local arena range: this rank replays
    /// `node_segs[seg_start..seg_end]`.
    pub(crate) seg_start: u32,
    pub(crate) seg_end: u32,
    pub(crate) collectives_total: u32,
    pub(crate) peak_device_bytes: u64,
}

/// One node's slice of the flat arena plus its barrier structure.
#[derive(Debug, Clone)]
pub(crate) struct CNode {
    /// Offset of this node's segments in the flat arena.
    pub(crate) seg_base: usize,
    pub(crate) seg_len: usize,
    pub(crate) ranks: Vec<CRank>,
    /// Local participants per barrier seq — the node's full collective
    /// participant count at every seq (MPI semantics: a collective
    /// involves everyone who does collectives).
    pub(crate) local_expected: Vec<u32>,
    /// Convergence guard for the event loop, sized from the trace.
    pub(crate) step_limit: usize,
}

/// A workload compiled once into the calibration-invariant arena: the
/// segment graph, interned labels and per-node/per-rank topology that
/// every sweep point shares. Pricing a calibration against it
/// ([`CompiledWorkload::cost_table`]) touches no `String` and allocates
/// only the flat cost vector.
#[derive(Debug)]
pub(crate) struct CompiledWorkload {
    pub(crate) labels: LabelTable,
    qsegs: Vec<QSeg>,
    /// Provenance of each arena entry — `(global rank, original segment
    /// index)` — so cost-table errors report the recorded segment.
    src: Vec<(u32, u32)>,
    pub(crate) nodes: Vec<CNode>,
    lbl_stream_sync: LabelId,
    lbl_context_switch: LabelId,
}

/// How record-time-priced charges (host seconds, allocation latency,
/// collective solo cost) are rescaled when a cost table is materialized.
/// Mirrors [`crate::whatif::RecordedWorkload::reprice`] term for term so
/// a sweep point and a standalone replay of the same calibration produce
/// bit-identical cost tables.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reprice {
    /// Keep the compiled charges untouched (the live path, and bitwise
    /// exact for it).
    Identity,
    /// Rescale for a what-if calibration.
    Scaled {
        /// Recorded / target CPU per-core throughput.
        host_ratio: f64,
        /// Target / recorded allocator latency.
        alloc_ratio: f64,
        /// Network the collective charges were priced with.
        recorded_net: NetCalib,
        /// Network to reprice them for.
        net: NetCalib,
        /// Ranks the analytic collective formula was priced for.
        total_ranks: u32,
    },
}

impl CompiledWorkload {
    /// Compile traces (one slice per node) into the flat arena: intern
    /// every label, validate every recorded quantity finite, capture the
    /// per-rank segment ranges and barrier topology.
    pub(crate) fn compile(node_traces: &[&[RankTrace]]) -> Result<Self, EngineError> {
        let mut labels = LabelTable::default();
        let lbl_stream_sync = labels.intern("stream_sync");
        let lbl_context_switch = labels.intern("context_switch");
        let lbl_alloc = labels.intern("accel_data_alloc");

        // `<name>/dispatch` labels, cached by the kernel name's label id:
        // building the string once per distinct kernel instead of once per
        // kernel segment keeps the compile pass allocation-light.
        let mut dispatch_labels: Vec<Option<LabelId>> = Vec::new();

        let total: usize = node_traces
            .iter()
            .flat_map(|n| n.iter())
            .map(|t| t.segments.len())
            .sum();
        let mut qsegs: Vec<QSeg> = Vec::with_capacity(total);
        let mut src: Vec<(u32, u32)> = Vec::with_capacity(total);
        let mut nodes: Vec<CNode> = Vec::with_capacity(node_traces.len());
        let mut rank_base = 0usize;
        for traces in node_traces {
            let seg_base = qsegs.len();
            let mut ranks: Vec<CRank> = Vec::with_capacity(traces.len());
            for (local, trace) in traces.iter().enumerate() {
                let seg_start = (qsegs.len() - seg_base) as u32;
                let mut collectives = 0u32;
                for (i, seg) in trace.segments.iter().enumerate() {
                    let check = |value: f64| -> Result<f64, EngineError> {
                        if value.is_finite() {
                            Ok(value)
                        } else {
                            Err(EngineError::NonFiniteCharge {
                                rank: rank_base + local,
                                segment: i,
                                label: seg.label().to_string(),
                                value,
                            })
                        }
                    };
                    let q = match seg {
                        Segment::Host { seconds, label } => {
                            if check(*seconds)? <= 0.0 {
                                continue;
                            }
                            QSeg::Host {
                                seconds: *seconds,
                                alloc: false,
                                label: labels.intern(label),
                            }
                        }
                        Segment::Kernel { profile, dispatch } => {
                            let name = labels.intern(&profile.name);
                            if dispatch_labels.len() <= name.index() {
                                dispatch_labels.resize(name.index() + 1, None);
                            }
                            let dispatch_label =
                                *dispatch_labels[name.index()].get_or_insert_with(|| {
                                    labels.intern(&format!("{}/dispatch", profile.name))
                                });
                            QSeg::Kernel {
                                items: check(profile.items)?,
                                flops_per_item: check(profile.flops_per_item)?,
                                bytes_per_item: check(profile.bytes_per_item)?,
                                divergence: check(profile.divergence)?,
                                dispatch: check(*dispatch)?,
                                name,
                                dispatch_label,
                            }
                        }
                        Segment::Transfer { bytes, label, .. } => QSeg::Transfer {
                            bytes: check(*bytes)?,
                            label: labels.intern(label),
                        },
                        Segment::DeviceAlloc { seconds } => {
                            if check(*seconds)? <= 0.0 {
                                continue;
                            }
                            QSeg::Host {
                                seconds: *seconds,
                                alloc: true,
                                label: lbl_alloc,
                            }
                        }
                        Segment::Collective {
                            seconds,
                            bytes,
                            label,
                        } => {
                            collectives += 1;
                            QSeg::Collective {
                                seconds: check(*seconds)?,
                                bytes: check(*bytes)?,
                                label: labels.intern(label),
                                wait_label: labels.intern(&format!("{label}/wait")),
                            }
                        }
                    };
                    qsegs.push(q);
                    src.push(((rank_base + local) as u32, i as u32));
                }
                ranks.push(CRank {
                    seg_start,
                    seg_end: (qsegs.len() - seg_base) as u32,
                    collectives_total: collectives,
                    peak_device_bytes: trace.peak_device_bytes,
                });
            }
            let max_local_seq =
                ranks.iter().map(|r| r.collectives_total).max().unwrap_or(0) as usize;
            // MPI semantics: a collective involves every rank that takes
            // part in collectives at all, so each barrier expects the
            // full local participant set. A participant whose trace runs
            // out of collectives early leaves later barriers short — the
            // replay then reports a deadlock naming the waiting ranks,
            // exactly as the real job would hang.
            let participants = ranks.iter().filter(|r| r.collectives_total > 0).count() as u32;
            let local_expected: Vec<u32> = vec![participants; max_local_seq];
            let step_limit = 20
                * ranks
                    .iter()
                    .map(|r| (r.seg_end - r.seg_start) as usize + 2)
                    .sum::<usize>()
                + 1000;
            rank_base += traces.len();
            nodes.push(CNode {
                seg_base,
                seg_len: qsegs.len() - seg_base,
                ranks,
                local_expected,
                step_limit,
            });
        }
        // Barriers are global: pad every node's expectation vector to the
        // job-wide barrier count so a node whose ranks run out of
        // collectives early still owes its participants to later
        // barriers (cross-node ragged jobs deadlock like intra-node
        // ones).
        let global_seq = nodes.iter().map(|n| n.local_expected.len()).max();
        if let Some(global_seq) = global_seq {
            for node in &mut nodes {
                let participants = node.local_expected.first().copied().unwrap_or(0);
                node.local_expected.resize(global_seq, participants);
            }
        }
        Ok(Self {
            labels,
            qsegs,
            src,
            nodes,
            lbl_stream_sync,
            lbl_context_switch,
        })
    }

    /// Number of compiled arena entries (= cost-table length).
    pub(crate) fn segment_count(&self) -> usize {
        self.qsegs.len()
    }

    /// Materialize the per-calibration cost table: one [`CSeg`] per arena
    /// entry, kernel and transfer costs priced from `gpu`, record-time
    /// charges rescaled per `reprice`. Every derived cost is validated
    /// finite — a broken calibration cannot smuggle NaN into the replay.
    pub(crate) fn cost_table(
        &self,
        gpu: &DeviceCalib,
        reprice: &Reprice,
    ) -> Result<Vec<CSeg>, EngineError> {
        let mut costs: Vec<CSeg> = Vec::with_capacity(self.qsegs.len());
        for (idx, q) in self.qsegs.iter().enumerate() {
            let check = |value: f64, label: LabelId| -> Result<f64, EngineError> {
                if value.is_finite() {
                    Ok(value)
                } else {
                    let (rank, segment) = self.src[idx];
                    Err(EngineError::NonFiniteCharge {
                        rank: rank as usize,
                        segment: segment as usize,
                        label: self.labels.resolve(label).to_string(),
                        value,
                    })
                }
            };
            let c = match *q {
                QSeg::Host {
                    seconds,
                    alloc,
                    label,
                } => {
                    let seconds = match reprice {
                        Reprice::Identity => seconds,
                        Reprice::Scaled {
                            host_ratio,
                            alloc_ratio,
                            ..
                        } => seconds * if alloc { *alloc_ratio } else { *host_ratio },
                    };
                    CSeg::Host {
                        seconds: check(seconds, label)?,
                        label,
                    }
                }
                QSeg::Kernel {
                    items,
                    flops_per_item,
                    bytes_per_item,
                    divergence,
                    dispatch,
                    name,
                    dispatch_label,
                } => CSeg::Kernel {
                    lead: check((dispatch + gpu.launch_latency).max(1e-12), name)?,
                    device_seconds: check(
                        device_seconds_raw(items, flops_per_item, bytes_per_item, divergence, gpu),
                        name,
                    )?,
                    util: check(solo_utilization_raw(items, gpu).max(1e-6), name)?,
                    name,
                    dispatch_label,
                },
                QSeg::Transfer { bytes, label } => CSeg::Transfer {
                    seconds: check(gpu.pcie_latency + bytes / gpu.pcie_bw, label)?,
                    label,
                },
                QSeg::Collective {
                    seconds,
                    bytes,
                    label,
                    wait_label,
                } => {
                    let seconds = match reprice {
                        Reprice::Identity => seconds,
                        Reprice::Scaled {
                            recorded_net,
                            net,
                            total_ranks,
                            ..
                        } => {
                            let was = allreduce_seconds(recorded_net, *total_ranks, bytes);
                            let now = allreduce_seconds(net, *total_ranks, bytes);
                            let ratio = if was > 0.0 { now / was } else { 1.0 };
                            seconds * ratio
                        }
                    };
                    CSeg::Collective {
                        seconds: check(seconds, label)?,
                        label,
                        wait_label,
                    }
                }
            };
            costs.push(c);
        }
        Ok(costs)
    }
}

/// A priced segment: every cost precomputed against one calibration,
/// every label interned. Plain old data — the cost table is a flat `Vec`
/// aligned 1:1 with the [`QSeg`] arena.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CSeg {
    /// Host work (including device-alloc latency) at rate 1.
    Host { seconds: f64, label: LabelId },
    /// A kernel: host lead-in (dispatch + launch latency), then
    /// `device_seconds` of demand at solo utilisation `util`.
    Kernel {
        lead: f64,
        device_seconds: f64,
        util: f64,
        name: LabelId,
        dispatch_label: LabelId,
    },
    /// A PCIe transfer: `seconds` of link time at full link rate.
    Transfer { seconds: f64, label: LabelId },
    /// A collective: barrier, then `seconds` of NIC time at full NIC
    /// rate. `wait_label` is the pre-built `<label>/wait` timeline tag.
    Collective {
        seconds: f64,
        label: LabelId,
        wait_label: LabelId,
    },
}

/// What a rank's main flow is currently doing. Remaining demand lives in
/// [`Rank::main_remaining`] so settle logic is uniform across variants.
#[derive(Debug, Clone, Copy)]
enum Act {
    /// Running host code (includes kernel dispatch lead-ins).
    Host,
    /// Kernel on the rank's GPU at solo utilisation `util`.
    Kernel { util: f64 },
    /// Synchronous transfer on the rank's GPU's PCIe link.
    Transfer,
    /// Inside a collective's network phase on the node NIC.
    Collective,
    /// Arrived at a collective barrier; `seconds` of network demand
    /// pending release.
    Barrier { seconds: f64, wait_label: LabelId },
    /// Blocked until the rank's async transfer stream drains.
    StreamWait,
    /// All segments consumed and the stream drained.
    Done,
}

/// One flow's service state: its current rate and when its remaining
/// demand was last settled. Its completion prediction, if any, is the
/// flow's slot on the shard's [`EventQueue`].
#[derive(Debug, Clone, Copy, Default)]
struct Flow {
    rate: f64,
    /// Virtual time `remaining` was last brought up to date.
    settled: f64,
}

/// One rank's replay state, indices into the shard's arenas.
struct Rank {
    /// This rank's compiled segments: `segs[seg_next..seg_end]` remain.
    seg_next: u32,
    seg_end: u32,
    activity: Act,
    finish: f64,
    /// Arena index of a kernel whose host lead-in is currently running.
    pending_kernel: Option<u32>,
    /// Label of the current activity (for the timeline).
    cur_label: LabelId,
    /// Wall-clock start of the current activity.
    cur_start: f64,
    /// Node-local GPU index this rank's device work lands on.
    gpu: u32,
    /// Virtual time the current kernel reached the device (FIFO key).
    kernel_arrival: f64,
    /// Index of the next collective segment this rank will join.
    collective_seq: u32,
    /// FIFO of asynchronous transfers (head is on the link):
    /// `(remaining link-seconds, label)`.
    stream: VecDeque<(f64, LabelId)>,
    /// Wall-clock time the current stream head reached the link.
    stream_head_start: f64,
    main_remaining: f64,
    main: Flow,
    stream_flow: Flow,
}

impl Rank {
    fn is_main_active(&self) -> bool {
        matches!(
            self.activity,
            Act::Host | Act::Kernel { .. } | Act::Transfer | Act::Collective
        )
    }
}

/// A GPU's SM pool plus its current kernel membership and the reusable
/// policy scratch buffers.
struct PoolState {
    res: SmPool,
    /// Local ranks with an active kernel here, ascending (the policy's
    /// rank-order contract).
    kernels: Vec<u32>,
    reqs: Vec<KernelReq>,
    rates: Vec<f64>,
}

/// A PCIe link plus its member flows, sorted by `(rank, flow)`.
struct LinkState {
    res: PcieLink,
    members: Vec<(u32, FlowId)>,
}

/// The node NIC plus its member ranks, ascending.
struct NicState {
    res: Nic,
    members: Vec<u32>,
}

/// A timeline event before label resolution and index globalisation.
struct RawEvent {
    rank: u32,
    gpu: Option<u32>,
    label: LabelId,
    kind: TimelineKind,
    start: f64,
    end: f64,
}

/// One collective barrier: how many ranks must arrive, across all nodes.
struct Group {
    expected: usize,
    arrived: usize,
    max_arrival: f64,
}

/// One node's independent sub-simulation.
struct Shard<'a> {
    /// This node's index in the job.
    node: usize,
    /// Global index of local rank 0 / local GPU 0.
    rank_base: usize,
    gpu_base: usize,
    policy: &'a dyn SchedulePolicy,
    cfg: &'a NodeConfig,
    record: bool,
    overlap: bool,
    /// This node's slice of the materialized cost table.
    segs: &'a [CSeg],
    ranks: Vec<Rank>,
    pools: Vec<PoolState>,
    links: Vec<LinkState>,
    nic: NicState,
    queue: EventQueue,
    now: f64,
    collective_wait_seconds: f64,
    /// Local participants per barrier seq (ranks with more collectives
    /// than the seq index) — read-only topology, borrowed from the
    /// compiled workload.
    local_expected: &'a [u32],
    /// Local arrivals per barrier seq so far.
    arrived_at: Vec<u32>,
    /// Local ranks waiting at each barrier seq, arrival order.
    waiting: Vec<Vec<u32>>,
    /// Arrivals since the coordinator last drained: `(seq, time)`.
    new_arrivals: Vec<(u32, f64)>,
    raw_events: Vec<RawEvent>,
    /// Occupancy samples with *local* GPU indices.
    occupancy: Vec<GpuSample>,
    lbl_stream_sync: LabelId,
    lbl_context_switch: LabelId,
    steps: usize,
    step_limit: usize,
    error: Option<EngineError>,
}

/// Replay `node_traces` (one slice of rank traces per node) against the
/// engine's resources. Returns the accumulated accounting, or a typed
/// [`EngineError`]: OOM when co-located peak footprints exceed a GPU's
/// memory, `NonFiniteCharge` when a recorded duration is NaN/infinite,
/// `Deadlock` when a barrier can never fill.
pub(crate) fn simulate(
    node_traces: &[&[RankTrace]],
    cfg: &NodeConfig,
    record: bool,
) -> Result<SimOutput, EngineError> {
    let compiled = CompiledWorkload::compile(node_traces)?;
    let costs = compiled.cost_table(&cfg.calib.gpu, &Reprice::Identity)?;
    simulate_compiled(&compiled, &costs, cfg, record)
}

/// Replay an already-compiled workload against a materialized cost
/// table — the sweep hot path: the arena, labels and topology in
/// `compiled` are shared across calls; only `costs` and the per-shard
/// runtime state are per-point.
pub(crate) fn simulate_compiled(
    compiled: &CompiledWorkload,
    costs: &[CSeg],
    cfg: &NodeConfig,
    record: bool,
) -> Result<SimOutput, EngineError> {
    debug_assert_eq!(costs.len(), compiled.segment_count());
    let gpus = cfg.gpus.max(1) as usize;

    // Memory feasibility per physical GPU: peak footprints of co-located
    // ranks must fit.
    for (n, node) in compiled.nodes.iter().enumerate() {
        for g in 0..gpus {
            let demanded: u64 = node
                .ranks
                .iter()
                .enumerate()
                .filter(|(r, _)| r % gpus == g)
                .map(|(_, cr)| cr.peak_device_bytes)
                .sum();
            if demanded > cfg.calib.gpu.mem_bytes {
                return Err(EngineError::Oom(NodeOom {
                    gpu: (n * gpus + g) as u32,
                    demanded,
                    capacity: cfg.calib.gpu.mem_bytes,
                }));
            }
        }
    }

    let mut shards: Vec<Shard<'_>> = Vec::with_capacity(compiled.nodes.len());
    let mut rank_base = 0usize;
    for (n, node) in compiled.nodes.iter().enumerate() {
        let segs = &costs[node.seg_base..node.seg_base + node.seg_len];
        shards.push(Shard::new(
            node,
            segs,
            n,
            rank_base,
            cfg,
            record,
            compiled.lbl_stream_sync,
            compiled.lbl_context_switch,
        ));
        rank_base += node.ranks.len();
    }
    // Barrier groups: collective `s` involves every rank that performs
    // collectives at all (MPI semantics), so symmetric jobs synchronise
    // globally and a ragged trace — one rank finishing its collectives
    // while peers still wait — deadlocks, as the real job would.
    let max_seq = shards
        .iter()
        .map(|s| s.local_expected.len())
        .max()
        .unwrap_or(0);
    let mut groups: Vec<Group> = (0..max_seq)
        .map(|s| Group {
            expected: shards
                .iter()
                .map(|sh| *sh.local_expected.get(s).unwrap_or(&0) as usize)
                .sum(),
            arrived: 0,
            max_arrival: 0.0,
        })
        .collect();

    // Prime every rank's first activity (may arrive at barriers at t=0).
    for shard in &mut shards {
        shard.prime();
    }

    // Phase loop: step all shards (in parallel) until each is blocked on
    // the earliest unreleased barrier, then release it at the global max
    // arrival time. Shards share nothing while stepping; every reduction
    // below walks them in node order, so results are deterministic
    // regardless of thread count.
    let mut next_seq = 0usize;
    loop {
        let target = (next_seq < groups.len()).then_some(next_seq as u32);
        shards
            .par_iter_mut()
            .for_each(|shard| shard.run_until_blocked(target));
        for shard in &shards {
            if let Some(e) = &shard.error {
                return Err(e.clone());
            }
        }
        for shard in &mut shards {
            for (seq, t) in shard.new_arrivals.drain(..) {
                debug_assert_eq!(seq as usize, next_seq, "arrival past the frontier barrier");
                let g = &mut groups[seq as usize];
                g.arrived += 1;
                g.max_arrival = g.max_arrival.max(t);
            }
        }
        let Some(seq) = target else {
            // No barriers left and every queue drained: anything not
            // Done is stuck for good.
            if blocked_ranks(&shards) > 0 {
                return Err(deadlock_error(&shards, &compiled.labels));
            }
            break;
        };
        let group = &groups[seq as usize];
        if group.arrived < group.expected {
            // Every shard quiesced, yet the frontier barrier is short.
            return Err(deadlock_error(&shards, &compiled.labels));
        }
        let release_at = group.max_arrival;
        for shard in &mut shards {
            shard.release(seq, release_at);
        }
        next_seq += 1;
    }

    Ok(merge_output(shards, &compiled.labels, record))
}

fn blocked_ranks(shards: &[Shard<'_>]) -> usize {
    shards
        .iter()
        .flat_map(|s| &s.ranks)
        .filter(|r| !matches!(r.activity, Act::Done))
        .count()
}

/// Assemble the deadlock report: every non-Done rank counts as blocked,
/// and the ones stuck *at a barrier* are named with the collective label
/// they wait under, in global rank order (shards are walked in node
/// order, ranks ascending, so the roster is deterministic).
fn deadlock_error(shards: &[Shard<'_>], labels: &LabelTable) -> EngineError {
    let mut waiting = Vec::new();
    for shard in shards {
        for (local, rank) in shard.ranks.iter().enumerate() {
            if matches!(rank.activity, Act::Barrier { .. }) {
                waiting.push((
                    shard.rank_base + local,
                    labels.resolve(rank.cur_label).to_string(),
                ));
            }
        }
    }
    EngineError::Deadlock {
        blocked: blocked_ranks(shards),
        waiting,
    }
}

/// Concatenate per-shard results in node order and resolve interned
/// labels back to strings for the public timeline.
fn merge_output(shards: Vec<Shard<'_>>, labels: &LabelTable, record: bool) -> SimOutput {
    let mut out = SimOutput::default();
    for shard in shards {
        out.rank_seconds
            .extend(shard.ranks.iter().map(|r| r.finish));
        out.gpu_busy.extend(shard.pools.iter().map(|p| p.res.busy));
        out.switch_seconds
            .extend(shard.pools.iter().map(|p| p.res.switch_seconds));
        out.nic_busy.push(shard.nic.res.busy);
        out.collective_seconds += shard.nic.res.collective_seconds;
        out.collective_wait_seconds += shard.collective_wait_seconds;
        if record {
            let rank_base = shard.rank_base;
            let gpu_base = shard.gpu_base;
            out.timeline
                .events
                .extend(shard.raw_events.into_iter().map(|e| TimelineEvent {
                    rank: rank_base + e.rank as usize,
                    gpu: e.gpu.map(|g| gpu_base + g as usize),
                    label: labels.resolve(e.label).to_string(),
                    kind: e.kind,
                    start: e.start,
                    end: e.end,
                }));
            out.timeline
                .occupancy
                .extend(shard.occupancy.into_iter().map(|s| GpuSample {
                    gpu: gpu_base + s.gpu,
                    ..s
                }));
        }
    }
    out
}

impl<'a> Shard<'a> {
    /// Instantiate one node's sub-simulation over its slice of a
    /// materialized cost table (`index` is the node's place in the job,
    /// `rank_base` globalises rank indices).
    #[allow(clippy::too_many_arguments)]
    fn new(
        node: &'a CNode,
        segs: &'a [CSeg],
        index: usize,
        rank_base: usize,
        cfg: &'a NodeConfig,
        record: bool,
        lbl_stream_sync: LabelId,
        lbl_context_switch: LabelId,
    ) -> Self {
        let gpus = cfg.gpus.max(1) as usize;
        let ranks: Vec<Rank> = node
            .ranks
            .iter()
            .enumerate()
            .map(|(local, cr)| Rank {
                seg_next: cr.seg_start,
                seg_end: cr.seg_end,
                activity: Act::Done,
                finish: 0.0,
                pending_kernel: None,
                cur_label: lbl_stream_sync,
                cur_start: 0.0,
                gpu: (local % gpus) as u32,
                kernel_arrival: 0.0,
                collective_seq: 0,
                stream: VecDeque::new(),
                stream_head_start: 0.0,
                main_remaining: 0.0,
                main: Flow::default(),
                stream_flow: Flow::default(),
            })
            .collect();

        let mut pools: Vec<PoolState> = (0..gpus)
            .map(|_| PoolState {
                res: SmPool::default(),
                kernels: Vec::new(),
                reqs: Vec::new(),
                rates: Vec::new(),
            })
            .collect();
        for r in &ranks {
            pools[r.gpu as usize].res.clients += 1;
        }

        let barriers = node.local_expected.len();
        Self {
            node: index,
            rank_base,
            gpu_base: index * gpus,
            policy: cfg.schedule.resolve(cfg.mps),
            cfg,
            record,
            overlap: cfg.overlap_transfers,
            segs,
            ranks,
            pools,
            links: (0..gpus)
                .map(|_| LinkState {
                    res: PcieLink::default(),
                    members: Vec::new(),
                })
                .collect(),
            nic: NicState {
                res: Nic::default(),
                members: Vec::new(),
            },
            queue: EventQueue::new(),
            now: 0.0,
            collective_wait_seconds: 0.0,
            arrived_at: vec![0; barriers],
            waiting: vec![Vec::new(); barriers],
            local_expected: &node.local_expected,
            new_arrivals: Vec::new(),
            raw_events: Vec::new(),
            occupancy: Vec::new(),
            lbl_stream_sync,
            lbl_context_switch,
            steps: 0,
            step_limit: node.step_limit,
            error: None,
        }
    }

    /// Start every rank's first activity at t = 0.
    fn prime(&mut self) {
        for r in 0..self.ranks.len() {
            self.advance_segment(r, 0.0);
        }
    }

    /// Pop and process events until the shard cannot or should not
    /// proceed: the queue is empty, or all local participants of the
    /// `target` barrier have arrived (events past the last local arrival
    /// stay queued — they are at times at or after it, and pop in order
    /// once the barrier's release lands).
    fn run_until_blocked(&mut self, target: Option<u32>) {
        if self.error.is_some() {
            return;
        }
        loop {
            if let Some(s) = target {
                let expected = *self.local_expected.get(s as usize).unwrap_or(&0);
                if expected > 0 && self.arrived_at[s as usize] >= expected {
                    return;
                }
            }
            let Some((t, r, flow)) = self.queue.pop() else {
                return;
            };
            self.steps += 1;
            if self.steps >= self.step_limit {
                self.error = Some(EngineError::NoConvergence {
                    node: self.node,
                    steps: self.steps,
                });
                return;
            }
            debug_assert!(t >= self.now, "event queue went backwards");
            self.now = t;
            match flow {
                FlowId::Main => self.complete_main(r, t),
                FlowId::Stream => self.complete_stream_head(r, t),
            }
            if self.error.is_some() {
                return;
            }
        }
    }

    /// Settle a main flow's remaining demand up to `now`, then apply
    /// `new_rate` and keep its prediction current: re-keyed when the rate
    /// changed, added when missing, cancelled while the flow is inactive
    /// or starved.
    fn sync_main(&mut self, r: usize, new_rate: f64, now: f64) {
        let rank = &mut self.ranks[r];
        let dt = now - rank.main.settled;
        if rank.main.rate > 0.0 && dt > 0.0 {
            rank.main_remaining -= rank.main.rate * dt;
        }
        rank.main.settled = now;
        let changed = new_rate != rank.main.rate;
        rank.main.rate = new_rate;
        if new_rate > 0.0 && rank.is_main_active() {
            if changed || !self.queue.is_scheduled(r, FlowId::Main) {
                let at = now + (rank.main_remaining / new_rate).max(0.0);
                self.queue.schedule(r, FlowId::Main, at);
            }
        } else if changed {
            self.queue.cancel(r, FlowId::Main);
        }
    }

    /// Settle the stream head up to `now`, then apply `new_rate` with the
    /// same prediction discipline as [`Shard::sync_main`].
    fn sync_stream(&mut self, r: usize, new_rate: f64, now: f64) {
        let rank = &mut self.ranks[r];
        let dt = now - rank.stream_flow.settled;
        if rank.stream_flow.rate > 0.0 && dt > 0.0 {
            if let Some(head) = rank.stream.front_mut() {
                head.0 -= rank.stream_flow.rate * dt;
            }
        }
        rank.stream_flow.settled = now;
        let changed = new_rate != rank.stream_flow.rate;
        rank.stream_flow.rate = new_rate;
        let head = rank.stream.front().map(|&(remaining, _)| remaining);
        if let Some(remaining) = head.filter(|_| new_rate > 0.0) {
            if changed || !self.queue.is_scheduled(r, FlowId::Stream) {
                let at = now + (remaining / new_rate).max(0.0);
                self.queue.schedule(r, FlowId::Stream, at);
            }
        } else if changed {
            self.queue.cancel(r, FlowId::Stream);
        }
    }

    /// Re-arbitrate one GPU after its kernel membership changed: settle
    /// its accounting, rebuild the load sum and policy inputs in rank
    /// order (the FP-determinism contract), and re-rate every member.
    fn rerate_pool(&mut self, g: usize, now: f64) {
        let pool = &mut self.pools[g];
        pool.res.settle(now);
        let old_load = pool.res.load;
        let mut load = 0.0;
        pool.reqs.clear();
        for &k in &pool.kernels {
            let rank = &self.ranks[k as usize];
            let Act::Kernel { util } = rank.activity else {
                unreachable!("pool member without a kernel activity");
            };
            load += util;
            pool.reqs.push(KernelReq {
                rank: self.rank_base + k as usize,
                util,
                arrival: rank.kernel_arrival,
            });
        }
        pool.res.load = load;
        pool.rates.clear();
        if !pool.reqs.is_empty() {
            let ctx = GpuSchedContext {
                calib: &self.cfg.calib.gpu,
                load,
                clients: pool.res.clients,
            };
            self.policy.rates(&ctx, &pool.reqs, &mut pool.rates);
        }
        if self.record && load != old_load {
            self.occupancy.push(GpuSample {
                t: now,
                gpu: g,
                load: load.min(1.0),
            });
        }
        for i in 0..self.pools[g].kernels.len() {
            let member = self.pools[g].kernels[i] as usize;
            let rate = self.pools[g].rates[i];
            self.sync_main(member, rate, now);
        }
    }

    /// Re-rate one PCIe link's members after a flow joined or left.
    fn rerate_link(&mut self, g: usize, now: f64) {
        self.links[g].res.users = self.links[g].members.len() as u32;
        let rate = self.links[g].res.rate();
        for i in 0..self.links[g].members.len() {
            let (r, flow) = self.links[g].members[i];
            match flow {
                FlowId::Main => self.sync_main(r as usize, rate, now),
                FlowId::Stream => self.sync_stream(r as usize, rate, now),
            }
        }
    }

    /// Re-rate the NIC's members after a collective joined or left.
    fn rerate_nic(&mut self, now: f64) {
        self.nic.res.settle(now);
        self.nic.res.active = self.nic.members.len() as u32;
        let rate = self.nic.res.rate();
        for i in 0..self.nic.members.len() {
            let member = self.nic.members[i] as usize;
            self.sync_main(member, rate, now);
        }
    }

    fn link_join(&mut self, g: usize, r: usize, flow: FlowId, now: f64) {
        let key = (r as u32, flow);
        let members = &mut self.links[g].members;
        let at = members
            .binary_search_by_key(&member_key(key), |&m| member_key(m))
            .unwrap_err();
        members.insert(at, key);
        self.rerate_link(g, now);
    }

    fn link_leave(&mut self, g: usize, r: usize, flow: FlowId, now: f64) {
        let key = (r as u32, flow);
        let members = &mut self.links[g].members;
        let at = members
            .binary_search_by_key(&member_key(key), |&m| member_key(m))
            .expect("leaving flow is a link member");
        members.remove(at);
        self.rerate_link(g, now);
    }

    /// A main-flow completion prediction fired.
    fn complete_main(&mut self, r: usize, t: f64) {
        // The queue entry is consumed either way.
        {
            let rank = &mut self.ranks[r];
            let dt = t - rank.main.settled;
            if dt > 0.0 {
                rank.main_remaining -= rank.main.rate * dt;
            }
            rank.main.settled = t;
            if rank.main_remaining > EPS {
                // The prediction missed by an ulp; re-aim unless the gap
                // is below the clock's resolution at this magnitude.
                let at = t + (rank.main_remaining / rank.main.rate).max(0.0);
                if at > t {
                    self.queue.schedule(r, FlowId::Main, at);
                    return;
                }
            }
        }

        let act = self.ranks[r].activity;
        if self.record {
            let (kind, gpu) = match act {
                Act::Host => (TimelineKind::Host, None),
                Act::Kernel { .. } => (TimelineKind::Kernel, Some(self.ranks[r].gpu)),
                Act::Transfer => (TimelineKind::Transfer, Some(self.ranks[r].gpu)),
                Act::Collective => (TimelineKind::Collective, None),
                _ => unreachable!("finished implies a timed activity"),
            };
            self.raw_events.push(RawEvent {
                rank: r as u32,
                gpu,
                label: self.ranks[r].cur_label,
                kind,
                start: self.ranks[r].cur_start,
                end: t,
            });
        }

        // Leave the finished activity's resource (re-rating the peers).
        let g = self.ranks[r].gpu as usize;
        match act {
            Act::Kernel { .. } => {
                let kernels = &mut self.pools[g].kernels;
                let at = kernels
                    .binary_search(&(r as u32))
                    .expect("finished kernel is a pool member");
                kernels.remove(at);
                self.rerate_pool(g, t);
            }
            Act::Transfer => self.link_leave(g, r, FlowId::Main, t),
            Act::Collective => {
                let at = self
                    .nic
                    .members
                    .binary_search(&(r as u32))
                    .expect("finished collective is a NIC member");
                self.nic.members.remove(at);
                self.rerate_nic(t);
            }
            Act::Host => {}
            _ => unreachable!("finished implies a timed activity"),
        }

        self.advance_segment(r, t);
        self.ranks[r].cur_start = t;
        self.finish_if_done(r, t);
    }

    /// A stream-head completion prediction fired.
    fn complete_stream_head(&mut self, r: usize, t: f64) {
        {
            let rank = &mut self.ranks[r];
            let dt = t - rank.stream_flow.settled;
            if let Some(head) = rank.stream.front_mut() {
                if dt > 0.0 {
                    head.0 -= rank.stream_flow.rate * dt;
                }
                rank.stream_flow.settled = t;
                if head.0 > EPS {
                    let at = t + (head.0 / rank.stream_flow.rate).max(0.0);
                    if at > t {
                        self.queue.schedule(r, FlowId::Stream, at);
                        return;
                    }
                }
            }
        }
        let Some((_, label)) = self.ranks[r].stream.pop_front() else {
            self.error = Some(EngineError::StreamUnderflow {
                rank: self.rank_base + r,
                flow: FlowId::Stream,
            });
            return;
        };
        if self.record {
            self.raw_events.push(RawEvent {
                rank: r as u32,
                gpu: Some(self.ranks[r].gpu),
                label,
                kind: TimelineKind::Transfer,
                start: self.ranks[r].stream_head_start,
                end: t,
            });
        }
        self.ranks[r].stream_head_start = t;
        let g = self.ranks[r].gpu as usize;
        if !self.ranks[r].stream.is_empty() {
            // Next head takes the wire at the unchanged link rate; the
            // consumed prediction just needs a successor.
            let rank = &self.ranks[r];
            let at = t + (rank.stream.front().unwrap().0 / rank.stream_flow.rate).max(0.0);
            self.queue.schedule(r, FlowId::Stream, at);
            return;
        }
        self.link_leave(g, r, FlowId::Stream, t);
        if matches!(self.ranks[r].activity, Act::StreamWait) {
            // The stream drained while the main flow was synchronising on
            // it: record the wait and resume the segment chain.
            if self.record && t > self.ranks[r].cur_start {
                self.raw_events.push(RawEvent {
                    rank: r as u32,
                    gpu: Some(self.ranks[r].gpu),
                    label: self.lbl_stream_sync,
                    kind: TimelineKind::Wait,
                    start: self.ranks[r].cur_start,
                    end: t,
                });
            }
            self.advance_segment(r, t);
            self.ranks[r].cur_start = t;
            self.finish_if_done(r, t);
        }
    }

    fn finish_if_done(&mut self, r: usize, t: f64) {
        if matches!(self.ranks[r].activity, Act::Done) && self.ranks[r].finish == 0.0 {
            self.ranks[r].finish = t;
        }
    }

    /// Pop the next segment of rank `r` into its activity slot and join
    /// the segment's resource. A `Kernel` arena entry expands to a host
    /// lead-in followed by the device part, staged through
    /// `pending_kernel`. Under overlapped transfers, `Transfer` entries
    /// enqueue on the rank's stream without blocking, and a kernel
    /// synchronises on the stream first.
    fn advance_segment(&mut self, r: usize, now: f64) {
        if let Some(seg) = self.ranks[r].pending_kernel.take() {
            self.start_kernel(r, seg as usize, now);
            return;
        }
        loop {
            let rank = &self.ranks[r];
            if rank.seg_next >= rank.seg_end {
                let rank = &mut self.ranks[r];
                if !rank.stream.is_empty() {
                    rank.cur_label = self.lbl_stream_sync;
                    rank.activity = Act::StreamWait;
                } else {
                    rank.activity = Act::Done;
                }
                self.sync_main(r, 0.0, now);
                return;
            }
            let seg = self.segs[rank.seg_next as usize];
            // A kernel consumes data the stream may still be moving:
            // synchronise before the launch (decided before consuming the
            // segment, so the retry after the drain sees it again).
            if self.overlap && !rank.stream.is_empty() && matches!(seg, CSeg::Kernel { .. }) {
                let rank = &mut self.ranks[r];
                rank.cur_label = self.lbl_stream_sync;
                rank.activity = Act::StreamWait;
                self.sync_main(r, 0.0, now);
                return;
            }
            self.ranks[r].seg_next += 1;
            match seg {
                CSeg::Host { seconds, label } => {
                    let rank = &mut self.ranks[r];
                    rank.cur_label = label;
                    rank.activity = Act::Host;
                    rank.main_remaining = seconds;
                    rank.main.settled = now;
                    self.sync_main(r, 1.0, now);
                    return;
                }
                CSeg::Kernel {
                    lead,
                    dispatch_label,
                    ..
                } => {
                    let rank = &mut self.ranks[r];
                    rank.pending_kernel = Some(rank.seg_next - 1);
                    rank.cur_label = dispatch_label;
                    rank.activity = Act::Host;
                    rank.main_remaining = lead;
                    rank.main.settled = now;
                    self.sync_main(r, 1.0, now);
                    return;
                }
                CSeg::Transfer { seconds, label } => {
                    if self.overlap {
                        let rank = &mut self.ranks[r];
                        rank.stream.push_back((seconds, label));
                        if rank.stream.len() == 1 {
                            rank.stream_head_start = now;
                            rank.stream_flow.settled = now;
                            let g = rank.gpu as usize;
                            self.link_join(g, r, FlowId::Stream, now);
                        }
                        continue;
                    }
                    let rank = &mut self.ranks[r];
                    rank.cur_label = label;
                    rank.activity = Act::Transfer;
                    rank.main_remaining = seconds;
                    rank.main.settled = now;
                    let g = rank.gpu as usize;
                    self.link_join(g, r, FlowId::Main, now);
                    return;
                }
                CSeg::Collective {
                    seconds,
                    label,
                    wait_label,
                } => {
                    let rank = &mut self.ranks[r];
                    let seq = rank.collective_seq;
                    rank.collective_seq += 1;
                    rank.cur_label = label;
                    rank.cur_start = now;
                    rank.activity = Act::Barrier {
                        seconds,
                        wait_label,
                    };
                    self.sync_main(r, 0.0, now);
                    self.arrived_at[seq as usize] += 1;
                    self.waiting[seq as usize].push(r as u32);
                    self.new_arrivals.push((seq, now));
                    return;
                }
            }
        }
    }

    /// The host lead-in of a kernel finished: put the device part on the
    /// GPU, charging the policy's context-switch demand and stamping the
    /// FIFO arrival.
    fn start_kernel(&mut self, r: usize, seg: usize, now: f64) {
        let CSeg::Kernel {
            device_seconds,
            util,
            name,
            ..
        } = self.segs[seg]
        else {
            unreachable!("pending_kernel points at a kernel segment");
        };
        let g = self.ranks[r].gpu as usize;
        {
            let rank = &mut self.ranks[r];
            rank.cur_label = name;
            rank.activity = Act::Kernel { util };
            rank.main_remaining = device_seconds;
            rank.main.settled = now;
            rank.kernel_arrival = now;
        }
        let ctx = GpuSchedContext {
            calib: &self.cfg.calib.gpu,
            load: self.pools[g].res.load,
            clients: self.pools[g].res.clients,
        };
        let extra = self.policy.switch_demand(&ctx);
        if extra > 0.0 {
            self.ranks[r].main_remaining += extra;
            self.pools[g].res.switch_seconds += extra;
            if self.record {
                self.raw_events.push(RawEvent {
                    rank: r as u32,
                    gpu: Some(g as u32),
                    label: self.lbl_context_switch,
                    kind: TimelineKind::ContextSwitch,
                    start: now,
                    end: now,
                });
            }
        }
        let kernels = &mut self.pools[g].kernels;
        let at = kernels.binary_search(&(r as u32)).unwrap_err();
        kernels.insert(at, r as u32);
        self.rerate_pool(g, now);
    }

    /// The coordinator released barrier `seq` at global time `t`: move
    /// every local rank waiting there into its collective network phase.
    fn release(&mut self, seq: u32, t: f64) {
        let Some(waiting) = self.waiting.get_mut(seq as usize) else {
            return;
        };
        let waiting = std::mem::take(waiting);
        if waiting.is_empty() {
            return;
        }
        for &w in &waiting {
            let rank = &mut self.ranks[w as usize];
            let Act::Barrier {
                seconds,
                wait_label,
            } = rank.activity
            else {
                unreachable!("waiting rank must be at the barrier");
            };
            let wait = t - rank.cur_start;
            self.collective_wait_seconds += wait;
            if self.record && wait > 0.0 {
                let start = rank.cur_start;
                self.raw_events.push(RawEvent {
                    rank: w,
                    gpu: None,
                    label: wait_label,
                    kind: TimelineKind::Wait,
                    start,
                    end: t,
                });
            }
            let rank = &mut self.ranks[w as usize];
            rank.activity = Act::Collective;
            rank.main_remaining = seconds;
            rank.main.settled = t;
            rank.cur_start = t;
            let at = self.nic.members.binary_search(&w).unwrap_err();
            self.nic.members.insert(at, w);
        }
        self.rerate_nic(t);
    }
}

fn member_key(m: (u32, FlowId)) -> (u32, u8) {
    (
        m.0,
        match m.1 {
            FlowId::Main => 0,
            FlowId::Stream => 1,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::KernelProfile;

    #[test]
    fn step_limit_is_a_typed_error_naming_the_node() {
        let rank = || RankTrace {
            segments: vec![
                Segment::Host {
                    seconds: 1e-3,
                    label: "h".into(),
                },
                Segment::Kernel {
                    profile: KernelProfile::uniform("k", 1e6, 10.0, 8.0),
                    dispatch: 1e-5,
                },
            ],
            ..RankTrace::default()
        };
        let node = vec![rank(), rank()];
        let cfg = NodeConfig::default();
        let mut compiled = CompiledWorkload::compile(&[&node, &node]).unwrap();
        let costs = compiled
            .cost_table(&cfg.calib.gpu, &Reprice::Identity)
            .unwrap();
        assert!(simulate_compiled(&compiled, &costs, &cfg, false).is_ok());

        compiled.nodes[1].step_limit = 3;
        let err = simulate_compiled(&compiled, &costs, &cfg, false).unwrap_err();
        assert_eq!(err, EngineError::NoConvergence { node: 1, steps: 3 });
    }
}
