//! A reference oracle for what-if replays: the trace-level repricer the
//! compiled path replaced, kept for tests only.
//!
//! It clones every rank trace, rescales the record-time charges (host
//! seconds, allocation latency, collective solo cost), replays the clones
//! through `simulate_cluster` and tallies per-label solo estimates from
//! the repriced segments. `RecordedWorkload::replay` prices the compiled
//! arena instead; [`check_replay`] requires the two to agree bit for bit.
//!
//! Included with `#[path]` from `crates/accel/tests/proptest_whatif.rs`
//! and `crates/bench/tests/whatif_differential.rs`.

use std::collections::BTreeMap;

use accel_sim::comm::allreduce_seconds;
use accel_sim::context::LabelStats;
use accel_sim::engine::{simulate_cluster, ClusterResult, EngineError};
use accel_sim::whatif::RecordedWorkload;
use accel_sim::{NetCalib, NodeCalib, NodeConfig, RankTrace, Segment};

/// Every recorded charge re-expressed under `node`/`net`: host seconds by
/// the CPU throughput ratio, allocation latency by the allocator-latency
/// ratio, collective solo cost by the ratio of the analytic allreduce
/// formula. Kernel and transfer descriptors pass through.
fn reprice_traces(w: &RecordedWorkload, node: &NodeCalib, net: &NetCalib) -> Vec<Vec<RankTrace>> {
    let old = &w.meta.node_calib;
    let host_ratio = old.cpu.core_flops / node.cpu.core_flops;
    let alloc_ratio = if old.gpu.alloc_latency > 0.0 {
        node.gpu.alloc_latency / old.gpu.alloc_latency
    } else {
        1.0
    };
    let ranks = w.meta.total_ranks;
    let reprice = |seg: &Segment| match seg {
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
            let was = allreduce_seconds(&w.meta.net_calib, ranks, *bytes);
            let now = allreduce_seconds(net, ranks, *bytes);
            let ratio = if was > 0.0 { now / was } else { 1.0 };
            Segment::Collective {
                seconds: seconds * ratio,
                bytes: *bytes,
                label: label.clone(),
            }
        }
        other => other.clone(),
    };
    w.nodes
        .iter()
        .map(|ranks| {
            ranks
                .iter()
                .map(|t| RankTrace {
                    segments: t.segments.iter().map(reprice).collect(),
                    events: Vec::new(),
                    peak_device_bytes: t.peak_device_bytes,
                })
                .collect()
        })
        .collect()
}

/// Per-label solo estimates of `nodes` under `calib`, tallied the way a
/// live `Context` does while recording.
fn solo_label_stats(nodes: &[Vec<RankTrace>], calib: &NodeCalib) -> BTreeMap<String, LabelStats> {
    let mut out: BTreeMap<String, LabelStats> = BTreeMap::new();
    let mut add = |label: &str, seconds: f64, bytes: f64| {
        let e = out.entry(label.to_string()).or_default();
        e.calls += 1;
        e.seconds += seconds;
        e.bytes += bytes;
    };
    for seg in nodes.iter().flatten().flat_map(|t| &t.segments) {
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
    out
}

/// The reference replay: reprice the traces, replay the clones, tally
/// the repriced segments.
fn reference_replay(
    w: &RecordedWorkload,
    node: &NodeCalib,
    net: &NetCalib,
    gpus: Option<u32>,
) -> Result<(ClusterResult, BTreeMap<String, LabelStats>), EngineError> {
    let repriced = reprice_traces(w, node, net);
    let cfg = NodeConfig {
        calib: *node,
        gpus: gpus.unwrap_or(w.meta.gpus),
        mps: w.meta.mps,
        schedule: w.meta.schedule,
        overlap_transfers: w.meta.overlap_transfers,
    };
    let cluster = simulate_cluster(&repriced, &cfg)?;
    Ok((cluster, solo_label_stats(&repriced, node)))
}

/// `w.replay(node, net, gpus)` against the reference: the same error, or
/// bit-equal makespan, `rank_seconds` and every `per_label` entry.
pub fn check_replay(
    w: &RecordedWorkload,
    node: &NodeCalib,
    net: &NetCalib,
    gpus: Option<u32>,
) -> Result<(), String> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match (
        w.replay(node, net, gpus),
        reference_replay(w, node, net, gpus),
    ) {
        (Err(got), Err(want)) if got == want => Ok(()),
        (Ok(got), Ok((cluster, per_label))) => {
            if got.cluster.wall_seconds.to_bits() != cluster.wall_seconds.to_bits() {
                return Err(format!(
                    "makespan {:e} vs reference {:e}",
                    got.cluster.wall_seconds, cluster.wall_seconds
                ));
            }
            if bits(&got.cluster.rank_seconds) != bits(&cluster.rank_seconds) {
                return Err("rank_seconds differ from the reference".into());
            }
            if got.per_label.keys().ne(per_label.keys()) {
                return Err(format!(
                    "labels {:?} vs reference {:?}",
                    got.per_label.keys().collect::<Vec<_>>(),
                    per_label.keys().collect::<Vec<_>>()
                ));
            }
            for (label, want) in &per_label {
                let have = &got.per_label[label];
                if have.calls != want.calls
                    || have.seconds.to_bits() != want.seconds.to_bits()
                    || have.bytes.to_bits() != want.bytes.to_bits()
                {
                    return Err(format!("{label}: {have:?} vs reference {want:?}"));
                }
            }
            Ok(())
        }
        (got, want) => Err(format!(
            "replay {:?} vs reference {:?}",
            got.map(|r| r.cluster.wall_seconds),
            want.map(|(c, _)| c.wall_seconds)
        )),
    }
}
