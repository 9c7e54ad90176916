//! Property-based tests for the batched sweep ([`accel_sim::sweep`]).
//!
//! The sweep's optimizer claims are structural, so they must hold over
//! arbitrary recorded workloads and grids, not just the calibrated
//! presets: the Pareto front never contains a dominated point (and never
//! misses an undominated one), the analytic lower bound never exceeds the
//! replayed makespan (so deadline pruning never discards a feasible
//! configuration), and the identity grid point always reproduces the
//! trace-level oracle bit for bit. Every point of a grid with aliased
//! schedules and more GPUs than ranks — where points share event loops —
//! equals a standalone replay, for any worker count and resume cursor.

use accel_sim::sweep::{
    sweep, sweep_digest, CompiledSweep, SweepCalib, SweepCheckpoint, SweepPoint, SweepSpec,
};
use accel_sim::whatif::{RecordMeta, RecordedWorkload};
use accel_sim::{KernelProfile, RankTrace, SchedulePolicyKind, Segment, TransferDir};
use proptest::prelude::*;

/// A compact segment spec the shim can sample: kind selector plus two
/// magnitudes, decoded by [`workload_from_specs`].
fn arb_segment() -> impl Strategy<Value = (u8, f64, f64)> {
    (0u8..5, 1e-6..1.0, 1.0..1e10)
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
        _ => Segment::Collective {
            seconds: a,
            bytes: b,
            label: "allreduce".into(),
        },
    }
}

fn workload_from_specs(specs: Vec<Vec<(u8, f64, f64)>>) -> RecordedWorkload {
    let ranks: Vec<RankTrace> = specs
        .into_iter()
        .map(|segs| RankTrace {
            segments: segs.into_iter().map(decode_segment).collect(),
            ..RankTrace::default()
        })
        .collect();
    // Barriers follow MPI semantics: every rank that performs
    // collectives must perform the same number of them or the replay
    // deadlocks. Padding makes the generated job symmetric (raggedness is
    // exercised by `arb_grid_workload` and the analyzer's adversarial
    // suite).
    let mut nodes = vec![ranks];
    pad_collectives(&mut nodes);
    RecordedWorkload {
        meta: RecordMeta {
            total_ranks: 8,
            ..RecordMeta::default()
        },
        nodes: nodes.into_iter().map(Into::into).collect(),
    }
}

fn arb_workload() -> impl Strategy<Value = RecordedWorkload> {
    proptest::collection::vec(proptest::collection::vec(arb_segment(), 1..8), 1..5)
        .prop_map(workload_from_specs)
}

/// Pad every rank of `nodes` to the same collective count, the MPI
/// barrier contract, so the job does not deadlock.
fn pad_collectives(nodes: &mut [Vec<RankTrace>]) {
    let count = |r: &RankTrace| {
        r.segments
            .iter()
            .filter(|s| matches!(s, Segment::Collective { .. }))
            .count()
    };
    let max = nodes.iter().flatten().map(count).max().unwrap_or(0);
    for rank in nodes.iter_mut().flatten() {
        for _ in count(rank)..max {
            rank.segments.push(decode_segment((4, 1e-3, 1e6)));
        }
    }
}

/// 1–3 nodes of 1–5 ranks, each rank with a random device footprint (up
/// to 24 GiB, so stacked ranks overflow a 40 GB device), under MPS on or
/// off. `flavour` 0 turns every kernel and transfer into host work (a
/// device-free arena); 1 gives rank 0 one collective more than its peers,
/// which deadlocks every job of two or more ranks; 2 turns only kernels
/// into host work, leaving transfers that share PCIe links.
fn arb_grid_workload() -> impl Strategy<Value = RecordedWorkload> {
    let rank = (
        proptest::collection::vec(arb_segment(), 1..6),
        0u64..24 << 30,
    );
    let nodes = proptest::collection::vec(proptest::collection::vec(rank, 1..6), 1..4);
    (nodes, 0u8..5, 0u8..2).prop_map(|(nodes, flavour, mps)| {
        let mut nodes: Vec<Vec<RankTrace>> = nodes
            .into_iter()
            .map(|ranks| {
                ranks
                    .into_iter()
                    .map(|(segs, peak)| RankTrace {
                        segments: segs
                            .into_iter()
                            .map(|(k, a, b)| match (flavour, k) {
                                (0, 1 | 2) | (2, 1) => (0, a, b),
                                _ => (k, a, b),
                            })
                            .map(decode_segment)
                            .collect(),
                        peak_device_bytes: peak,
                        ..RankTrace::default()
                    })
                    .collect()
            })
            .collect();
        if flavour == 1 {
            for rank in nodes.iter_mut().flatten() {
                rank.segments.push(decode_segment((4, 1e-3, 1e6)));
            }
        }
        pad_collectives(&mut nodes);
        if flavour == 1 {
            nodes[0][0].segments.push(decode_segment((4, 1e-3, 1e6)));
        }
        RecordedWorkload {
            meta: RecordMeta {
                total_ranks: nodes.iter().map(Vec::len).sum::<usize>() as u32,
                mps: mps == 1,
                ..RecordMeta::default()
            },
            nodes: nodes.into_iter().map(Into::into).collect(),
        }
    })
}

/// Every schedule (so `auto` aliases `mps` or `timeslice`) and GPU counts
/// both below and above the ranks per node.
fn shared_loop_grid(meta: &RecordMeta) -> SweepSpec {
    SweepSpec {
        schedules: vec![
            SchedulePolicyKind::Auto,
            SchedulePolicyKind::MpsFluid,
            SchedulePolicyKind::TimeSliced,
            SchedulePolicyKind::Fifo,
            SchedulePolicyKind::Priority,
        ],
        gpus: vec![1, 2, 3, 5, 8],
        ..grid(meta)
    }
}

/// What a standalone replay of one grid point reports: its makespan's
/// bits or its error text.
fn standalone(w: &RecordedWorkload, calib: &SweepCalib, p: &SweepPoint) -> Result<u64, String> {
    let mut w = w.clone();
    w.meta.schedule = p.schedule;
    w.replay(&calib.node, &calib.net, Some(p.gpus))
        .map(|r| r.cluster.wall_seconds.to_bits())
        .map_err(|e| e.to_string())
}

fn grid(meta: &RecordMeta) -> SweepSpec {
    SweepSpec {
        calibs: vec![
            SweepCalib::resolve("identity", meta).expect("identity"),
            SweepCalib::resolve("h100", meta).expect("preset"),
            SweepCalib::resolve("a100-nvlink", meta).expect("preset"),
        ],
        gpus: vec![1, 2, 4],
        schedules: vec![SchedulePolicyKind::Auto, SchedulePolicyKind::Fifo],
        deadline: None,
    }
}

proptest! {
    #[test]
    fn pareto_front_is_exactly_the_undominated_set(w in arb_workload()) {
        let res = sweep(&w, &grid(&w.meta)).expect("sweep");
        let evaluated: Vec<(usize, f64, f64)> = res
            .points
            .iter()
            .enumerate()
            .filter_map(|(i, p)| Some((i, p.makespan?, p.cost?)))
            .collect();
        for &(i, m, c) in &evaluated {
            let dominated = evaluated
                .iter()
                .any(|&(_, om, oc)| om <= m && oc <= c && (om < m || oc < c));
            prop_assert!(
                res.pareto.contains(&i) != dominated,
                "point {} (makespan {}, cost {}): front membership vs domination",
                i, m, c
            );
        }
    }

    #[test]
    fn lower_bound_never_exceeds_the_replayed_makespan(w in arb_workload()) {
        let res = sweep(&w, &grid(&w.meta)).expect("sweep");
        for p in &res.points {
            if let Some(m) = p.makespan {
                prop_assert!(
                    p.lower_bound <= m * (1.0 + 1e-12),
                    "{} x{} {}: bound {} > makespan {}",
                    p.calib, p.gpus, p.schedule, p.lower_bound, m
                );
            }
        }
    }

    #[test]
    fn identity_grid_point_is_bit_identical_to_the_oracle(w in arb_workload()) {
        let spec = SweepSpec::default_grid(&w.meta);
        let res = sweep(&w, &spec).expect("sweep");
        let id = res
            .points
            .iter()
            .find(|p| p.calib == "identity")
            .expect("identity in default grid");
        let oracle = w.replay_identity().expect("fits").cluster.wall_seconds;
        prop_assert_eq!(id.makespan.expect("evaluates").to_bits(), oracle.to_bits());
    }

    #[test]
    fn checkpoint_cursor_round_trips_any_completed_prefix(
        w in arb_workload(),
        take in 0usize..64,
    ) {
        // Whatever prefix of the grid a killed sweep had completed, the
        // persisted cursor must parse back equal — same points, same
        // digest — and re-serialize byte-identically, or a resumed sweep
        // could silently diverge from the uninterrupted run.
        let spec = grid(&w.meta);
        let res = sweep(&w, &spec).expect("sweep");
        let n = take.min(res.points.len());
        let ck = SweepCheckpoint {
            total: res.points.len(),
            digest: sweep_digest(&w, &spec),
            points: res.points[..n].to_vec(),
        };
        let back = SweepCheckpoint::parse_jsonl(&ck.to_jsonl()).expect("parse");
        prop_assert_eq!(&back, &ck);
        prop_assert_eq!(back.to_jsonl(), ck.to_jsonl());
        for (a, b) in ck.points.iter().zip(&back.points) {
            prop_assert_eq!(a.makespan.map(f64::to_bits), b.makespan.map(f64::to_bits));
            prop_assert_eq!(a.cost.map(f64::to_bits), b.cost.map(f64::to_bits));
            prop_assert_eq!(a.lower_bound.to_bits(), b.lower_bound.to_bits());
        }
    }

    #[test]
    fn pruning_is_sound_for_any_deadline(w in arb_workload(), frac in 0.05..1.5f64) {
        // Whatever the deadline, a pruned point's true makespan misses it.
        let mut spec = grid(&w.meta);
        let free = sweep(&w, &spec).expect("sweep");
        let max_m = free
            .points
            .iter()
            .filter_map(|p| p.makespan)
            .fold(0.0, f64::max);
        prop_assume!(max_m > 0.0);
        let deadline = max_m * frac;
        spec.deadline = Some(deadline);
        let res = sweep(&w, &spec).expect("sweep");
        for (p, truth) in res.points.iter().zip(&free.points) {
            if p.pruned {
                prop_assert!(p.lower_bound > deadline);
                let m = truth.makespan.expect("evaluated in the free run");
                prop_assert!(
                    m > deadline,
                    "{} x{} {}: pruned at deadline {} but makespan {}",
                    p.calib, p.gpus, p.schedule, deadline, m
                );
            }
        }
    }

    #[test]
    fn shared_event_loops_match_standalone_replays(w in arb_grid_workload()) {
        let spec = shared_loop_grid(&w.meta);
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let one = sweep(&w, &spec).expect("sweep");
        std::env::set_var("RAYON_NUM_THREADS", "3");
        let three = sweep(&w, &spec).expect("sweep");
        std::env::remove_var("RAYON_NUM_THREADS");
        let oracle = one.to_jsonl();
        prop_assert_eq!(&three.to_jsonl(), &oracle);
        prop_assert_eq!(three.replays, one.replays);

        let per_calib = spec.gpus.len() * spec.schedules.len();
        for (i, p) in one.points.iter().enumerate() {
            let calib = &spec.calibs[i / per_calib];
            let got = match (&p.makespan, &p.error) {
                (Some(m), None) => Ok(m.to_bits()),
                (None, Some(e)) => Err(e.clone()),
                _ => return Err(format!("point {i} has neither a makespan nor an error")),
            };
            let want = standalone(&w, calib, p);
            prop_assert!(
                got == want,
                "{} x{} {} (mps {}): sweep {:?}, standalone {:?}",
                p.calib, p.gpus, p.schedule, w.meta.mps, got, want
            );
        }
        // One loop per engine key: never more than the points that passed
        // admission, and a device-free arena runs one per calibration.
        let admitted = one
            .points
            .iter()
            .filter(|p| p.makespan.is_some() || p.error.as_deref().is_some_and(|e| !e.contains("memory")))
            .count();
        prop_assert!(one.replays <= admitted);
        // Admission OOMs stop a point before any loop; a deadlock is the
        // loop's own error, so a workload that deadlocks still runs one.
        let oom = |e: &str| e.contains("out of memory");
        let rejected = one.points.iter().filter(|p| p.error.as_deref().is_some_and(oom)).count();
        prop_assert_eq!(one.rejected, rejected);
        prop_assert_eq!(three.rejected, rejected);
        if one.points.iter().any(|p| p.error.as_deref().is_some_and(|e| e.contains("deadlocked"))) {
            prop_assert!(one.replays > 0);
        }
        if w.nodes.iter().flat_map(|n| n.iter()).flat_map(|r| &r.segments).all(|s| {
            !matches!(s, Segment::Kernel { .. } | Segment::Transfer { .. })
        }) {
            prop_assert!(one.replays <= spec.calibs.len());
        }

        // Chunked, and resumed from a mid-grid cursor: same bytes, and an
        // uninterrupted chunked run shares loops across its chunks.
        let cs = CompiledSweep::compile(&w).expect("compiles");
        let mut cursors = Vec::new();
        let chunked = cs
            .run_resumable(&spec, &[], 7, &mut |pts| cursors.push(pts.to_vec()))
            .expect("fresh run");
        prop_assert_eq!(&chunked.to_jsonl(), &oracle);
        prop_assert_eq!(chunked.replays, one.replays);
        let cursor = &cursors[cursors.len() / 2];
        let resumed = cs.run_resumable(&spec, cursor, 4, &mut |_| {}).expect("resume");
        prop_assert_eq!(&resumed.to_jsonl(), &oracle);
    }
}
