//! Property-based tests for the what-if repricer ([`accel_sim::whatif`]).
//!
//! Repricing claims to answer "what would this recorded run cost on
//! better hardware?" — that is only trustworthy if the answer moves the
//! right way (faster hardware never makes a charge slower), does not
//! depend on when you ask (replays are deterministic and the serialized
//! form is stable), and agrees bit for bit with the trace-level reference
//! repricer in `common/reprice_oracle.rs`. These properties hold over the
//! whole input space, not just the calibrated presets.

#[path = "common/reprice_oracle.rs"]
mod reprice_oracle;

use std::sync::Arc;

use accel_sim::whatif::{RecordMeta, RecordedWorkload};
use accel_sim::{KernelProfile, NetCalib, NodeCalib, RankTrace, Segment, TransferDir};
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = KernelProfile> {
    (1.0..1e9, 0.5..500.0, 0.5..64.0, 1.0..4.0).prop_map(|(items, flops, bytes, div)| {
        KernelProfile {
            name: "k".into(),
            items,
            flops_per_item: flops,
            bytes_per_item: bytes,
            divergence: div,
        }
    })
}

/// A compact segment spec the shim can sample: kind selector plus two
/// magnitudes, decoded by [`workload_from_specs`]. Selectors 5 and 6 are
/// zero-second host and alloc charges.
fn arb_segment() -> impl Strategy<Value = (u8, f64, f64)> {
    (0u8..7, 1e-6..1.0, 1.0..1e10)
}

fn decode_segment((kind, a, b): (u8, f64, f64)) -> Segment {
    match kind {
        0 => Segment::Host {
            seconds: a,
            label: "host".into(),
        },
        1 => Segment::Kernel {
            profile: KernelProfile {
                name: "k".into(),
                items: b,
                flops_per_item: 10.0 * a,
                bytes_per_item: 8.0,
                divergence: 1.0,
            },
            dispatch: a * 1e-3,
        },
        2 => Segment::Transfer {
            bytes: b,
            dir: TransferDir::HostToDevice,
            label: "h2d".into(),
        },
        3 => Segment::DeviceAlloc { seconds: a * 1e-2 },
        5 => Segment::Host {
            seconds: 0.0,
            label: "host".into(),
        },
        6 => Segment::DeviceAlloc { seconds: 0.0 },
        _ => Segment::Collective {
            seconds: a,
            bytes: b,
            label: "allreduce".into(),
        },
    }
}

/// A workload of `nodes` nodes whose ranks replay `specs`, padded with
/// collectives so that every rank performs the same number of them.
fn workload_from_specs(specs: Vec<Vec<(u8, f64, f64)>>, nodes: usize) -> RecordedWorkload {
    let mut ranks: Vec<RankTrace> = specs
        .into_iter()
        .map(|segs| RankTrace {
            segments: segs.into_iter().map(decode_segment).collect(),
            ..RankTrace::default()
        })
        .collect();
    // Barriers follow MPI semantics: every rank that performs
    // collectives must perform the same number of them or the replay
    // deadlocks. Pad short ranks with extra collectives so the
    // generated job is symmetric (raggedness is exercised by the
    // analyzer's adversarial suite, not here).
    let collectives = |r: &RankTrace| {
        r.segments
            .iter()
            .filter(|s| matches!(s, Segment::Collective { .. }))
            .count()
    };
    let max_collectives = ranks.iter().map(collectives).max().unwrap_or(0);
    for rank in &mut ranks {
        for _ in collectives(rank)..max_collectives {
            rank.segments.push(decode_segment((4, 1e-3, 1e6)));
        }
    }
    RecordedWorkload {
        meta: RecordMeta {
            total_ranks: 8,
            ..RecordMeta::default()
        },
        nodes: vec![Arc::from(ranks); nodes],
    }
}

/// `base` with its rates and latencies scaled by the factors in `f`
/// (each drawn from a range around 1).
fn scaled_calib(base: NodeCalib, f: [f64; 6]) -> NodeCalib {
    let mut c = base;
    c.cpu.core_flops *= f[0];
    c.gpu.fp64_peak *= f[1];
    c.gpu.hbm_bw *= f[2];
    c.gpu.pcie_bw *= f[3];
    c.gpu.pcie_latency *= f[4];
    c.gpu.alloc_latency *= f[5];
    c.gpu.launch_latency *= f[5];
    c
}

fn arb_factors() -> impl Strategy<Value = [f64; 6]> {
    let axis = || (0.25..4.0, 0.25..4.0, 0.25..4.0);
    (axis(), axis()).prop_map(|((a, b, c), (d, e, f))| [a, b, c, d, e, f])
}

fn single_segment_workload(seg: Segment) -> RecordedWorkload {
    RecordedWorkload {
        meta: RecordMeta::default(),
        nodes: vec![vec![RankTrace {
            segments: vec![seg],
            ..RankTrace::default()
        }]
        .into()],
    }
}

proptest! {
    /// Scaling the device's FP64 throughput up never increases a repriced
    /// kernel's solo time or the replayed makespan, for any kernel shape.
    #[test]
    fn faster_fp64_never_slows_kernels(profile in arb_profile(), factor in 1.0..50.0) {
        let w = single_segment_workload(Segment::Kernel {
            profile,
            dispatch: 1e-5,
        });
        let base = NodeCalib::default();
        let mut fast = base;
        fast.gpu.fp64_peak *= factor;
        let net = NetCalib::default();
        let (slow, quick) = (w.replay(&base, &net, None).unwrap(), w.replay(&fast, &net, None).unwrap());
        let (t_base, t_fast) = (slow.per_label["k"].seconds, quick.per_label["k"].seconds);
        prop_assert!(t_fast <= t_base, "solo {t_fast} > {t_base} at x{factor}");
        let (wall_base, wall_fast) = (slow.cluster.wall_seconds, quick.cluster.wall_seconds);
        prop_assert!(
            wall_fast <= wall_base,
            "wall {wall_fast} > {wall_base} at x{factor}"
        );
    }

    /// Scaling the host link bandwidth up never increases a repriced
    /// transfer's time or the replayed makespan.
    #[test]
    fn faster_link_never_slows_transfers(bytes in 1.0..1e11, factor in 1.0..50.0) {
        let w = single_segment_workload(Segment::Transfer {
            bytes,
            dir: TransferDir::DeviceToHost,
            label: "d2h".into(),
        });
        let base = NodeCalib::default();
        let mut fast = base;
        fast.gpu.pcie_bw *= factor;
        let net = NetCalib::default();
        let (slow, quick) = (w.replay(&base, &net, None).unwrap(), w.replay(&fast, &net, None).unwrap());
        let (t_base, t_fast) = (slow.per_label["d2h"].seconds, quick.per_label["d2h"].seconds);
        prop_assert!(t_fast <= t_base, "solo {t_fast} > {t_base} at x{factor}");
        let (wall_base, wall_fast) = (slow.cluster.wall_seconds, quick.cluster.wall_seconds);
        prop_assert!(
            wall_fast <= wall_base,
            "wall {wall_fast} > {wall_base} at x{factor}"
        );
    }

    /// Repricing is deterministic: serialization is byte-stable across a
    /// round trip, and replays of the original and the parsed workload
    /// agree bit for bit, per-label stats included.
    #[test]
    fn repricing_is_deterministic(
        specs in proptest::collection::vec(
            proptest::collection::vec(arb_segment(), 1usize..6),
            1usize..5,
        ),
        bw_scale in 0.5..4.0,
        flops_scale in 0.5..4.0,
    ) {
        let w = workload_from_specs(specs, 1);
        let text = w.to_jsonl();
        prop_assert_eq!(&w.to_jsonl(), &text);
        let parsed = RecordedWorkload::parse_jsonl(&text).unwrap();
        prop_assert_eq!(&parsed.to_jsonl(), &text);

        let mut node = NodeCalib::default();
        node.cpu.core_flops *= flops_scale;
        node.gpu.fp64_peak *= flops_scale;
        let net = NetCalib {
            bw: NetCalib::default().bw * bw_scale,
            ..NetCalib::default()
        };
        let a = w.replay(&node, &net, None).unwrap();
        let b = parsed.replay(&node, &net, None).unwrap();
        prop_assert_eq!(&a.per_label, &b.per_label);
        prop_assert_eq!(a.cluster.wall_seconds.to_bits(), b.cluster.wall_seconds.to_bits());
    }

    /// The compiled replay agrees bit for bit with the trace-level
    /// reference repricer — makespan, per-rank finish times and every
    /// per-label row — for arbitrary workloads (zero-second host and
    /// alloc charges included), recorded and target calibrations, and
    /// GPU-count overrides; including the recorded calibration itself.
    #[test]
    fn replay_matches_the_trace_level_reference(
        specs in proptest::collection::vec(
            proptest::collection::vec(arb_segment(), 1usize..8),
            1usize..5,
        ),
        nodes in 1usize..3,
        total_ranks in 1u32..64,
        peak_gib in 0u64..24,
        recorded in arb_factors(),
        target in arb_factors(),
        net_scale in (0.25..4.0, 0.25..4.0),
        gpus in 0u32..6,
        identity in 0u8..4,
    ) {
        let mut w = workload_from_specs(specs, nodes);
        w.meta.total_ranks = total_ranks;
        w.meta.node_calib = scaled_calib(NodeCalib::default(), recorded);
        for t in w.nodes.iter_mut().flat_map(Arc::make_mut) {
            t.peak_device_bytes = peak_gib << 30;
        }
        let (node, net) = if identity == 0 {
            (w.meta.node_calib, w.meta.net_calib)
        } else {
            let net = NetCalib {
                bw: w.meta.net_calib.bw * net_scale.0,
                latency: w.meta.net_calib.latency * net_scale.1,
            };
            (scaled_calib(w.meta.node_calib, target), net)
        };
        let gpus = (gpus > 0).then_some(gpus);
        let checked = reprice_oracle::check_replay(&w, &node, &net, gpus);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}
