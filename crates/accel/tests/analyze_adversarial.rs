//! Adversarial corpus for the static analyzer — the differential
//! soundness suite.
//!
//! Each corpus entry is a workload built to fail at replay time in one
//! specific way (deadlock, OOM, non-finite derived cost). The suite
//! checks both directions of the analyzer's contract:
//!
//! * **completeness on the corpus** — every runtime failure is
//!   diagnosed statically, with the right code, the right locus, and
//!   (for the exact passes) the *same error text* the replay produced;
//! * **soundness** — every workload the analyzer admits (no
//!   error-severity findings) replays to completion.
//!
//! A property test closes the loop: starting from any analyzer-clean
//! symmetric workload, removing a single collective from one rank
//! always trips the barrier pass.

use std::sync::Arc;

use accel_sim::whatif::{RecordMeta, RecordedWorkload};
use accel_sim::{
    check_workload, Code, EngineError, KernelProfile, RankTrace, Segment, Severity, TransferDir,
};
use proptest::prelude::*;

fn host(seconds: f64) -> Segment {
    Segment::Host {
        seconds,
        label: "h".into(),
    }
}

fn kernel(items: f64) -> Segment {
    Segment::Kernel {
        profile: KernelProfile::uniform("k", items, 20.0, 8.0),
        dispatch: 1e-5,
    }
}

fn transfer(bytes: f64) -> Segment {
    Segment::Transfer {
        bytes,
        dir: TransferDir::HostToDevice,
        label: "h2d".into(),
    }
}

fn coll(label: &str) -> Segment {
    Segment::Collective {
        seconds: 1e-3,
        bytes: 1e6,
        label: label.into(),
    }
}

fn rank(segments: Vec<Segment>, peak: u64) -> RankTrace {
    RankTrace {
        segments,
        peak_device_bytes: peak,
        ..RankTrace::default()
    }
}

fn workload(nodes: Vec<Vec<RankTrace>>) -> RecordedWorkload {
    RecordedWorkload {
        meta: RecordMeta::default(),
        nodes: nodes.into_iter().map(Into::into).collect(),
    }
}

/// The runtime verdict for a workload under its own recorded
/// calibration — the oracle the analyzer is judged against.
fn replay_verdict(w: &RecordedWorkload) -> Result<(), EngineError> {
    w.replay_identity().map(|_| ())
}

// ---------------------------------------------------------------------
// Corpus: each entry must fail at runtime AND be flagged statically.
// ---------------------------------------------------------------------

/// Ragged collective counts: rank 0 performs two allreduces, rank 1
/// performs one. The replay deadlocks; the analyzer's B001 carries the
/// exact runtime error text and points at the orphaned collective.
#[test]
fn corpus_deadlock_is_predicted_with_the_runtime_error_text() {
    let w = workload(vec![vec![
        rank(vec![host(1e-3), coll("a"), coll("b")], 0),
        rank(vec![host(1e-3), coll("a")], 0),
    ]]);

    let err = replay_verdict(&w).expect_err("ragged job deadlocks at replay");
    assert!(matches!(err, EngineError::Deadlock { .. }));

    let report = check_workload(&w);
    assert!(!report.is_clean());
    let b001 = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::CollectiveMismatch)
        .expect("B001 present");
    assert_eq!(b001.severity, Severity::Error);
    assert_eq!(b001.message, err.to_string(), "shared formatting path");
    assert_eq!(b001.locus.rank, Some(0));
    assert_eq!(b001.locus.segment, Some(2));
    assert_eq!(b001.locus.label.as_deref(), Some("b"));
}

/// Co-located peaks exceed device memory. The replay OOMs at admission;
/// the analyzer's M001 names the same GPU with the same error text.
#[test]
fn corpus_oom_is_predicted_on_the_same_gpu() {
    // meta defaults: 4 GPUs per node, 40 GB each. Five ranks put ranks
    // {0, 4} on GPU 0: 30 GB + 20 GB overflows its 40 GB.
    let gb = 1u64 << 30;
    let w = workload(vec![vec![
        rank(vec![host(1e-3), kernel(1e6)], 30 * gb),
        rank(vec![host(1e-3), kernel(1e6)], gb),
        rank(vec![host(1e-3), kernel(1e6)], gb),
        rank(vec![host(1e-3), kernel(1e6)], gb),
        rank(vec![host(1e-3), kernel(1e6)], 20 * gb),
    ]]);

    let err = replay_verdict(&w).expect_err("stacked peaks OOM at admission");
    let oom = err.as_oom().expect("an Oom error");
    assert_eq!(oom.gpu, 0);

    let report = check_workload(&w);
    let m001 = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::OomPredicted)
        .expect("M001 present");
    assert_eq!(m001.locus.gpu, Some(0));
    assert_eq!(m001.message, err.to_string(), "shared formatting path");
}

/// A recorded NaN charge: compile rejects it at replay; the analyzer's
/// C001 names the same rank/segment with the same error text.
#[test]
fn corpus_non_finite_recorded_charge_matches_the_compile_error() {
    let w = workload(vec![vec![rank(
        vec![host(1e-3), host(f64::NAN), kernel(1e6)],
        0,
    )]]);

    let err = replay_verdict(&w).expect_err("NaN charge fails compile");
    assert!(matches!(err, EngineError::NonFiniteCharge { .. }));

    let report = check_workload(&w);
    let c001 = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::NonFiniteCharge)
        .expect("C001 present");
    assert_eq!(c001.message, err.to_string(), "shared formatting path");
    assert_eq!(c001.locus.rank, Some(0));
    assert_eq!(c001.locus.segment, Some(1));
}

/// A finite recording priced by a degenerate calibration: the transfer
/// cost derives to infinity. The replay fails inside the cost table;
/// the analyzer's derived-cost check reports the same segment.
#[test]
fn corpus_calibration_induced_infinity_is_caught_before_replay() {
    let mut meta = RecordMeta::default();
    meta.node_calib.gpu.pcie_bw = 0.0;
    let w = RecordedWorkload {
        meta,
        nodes: vec![vec![rank(vec![host(1e-3), transfer(1e6)], 0)].into()],
    };

    let err = replay_verdict(&w).expect_err("zero PCIe bandwidth prices h2d as infinite");
    assert!(matches!(err, EngineError::NonFiniteCharge { .. }));

    let report = check_workload(&w);
    assert!(!report.is_clean());
    let c001 = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::NonFiniteCharge)
        .expect("C001 present");
    assert_eq!(c001.locus.label.as_deref(), Some("h2d"));
    // The degenerate calibration itself is flagged too (S005), so the
    // report explains the cause, not just the symptom.
    assert!(report.has(Code::DegenerateCalib));
}

/// A zero-byte transfer on an overlapped stream. The engine absorbs it
/// (runtime `StreamUnderflow` is defensively unreachable today: stream
/// accounting clamps the completion to its enqueue time), so this entry
/// asserts the analyzer flags the *risk* as a warning while the replay
/// still completes — C004 is advisory, not admission-blocking.
#[test]
fn corpus_stream_underflow_risk_warns_but_replays() {
    let meta = RecordMeta {
        overlap_transfers: true,
        ..RecordMeta::default()
    };
    let w = RecordedWorkload {
        meta,
        nodes: vec![vec![rank(vec![host(1e-3), transfer(0.0), kernel(1e6)], 0)].into()],
    };

    replay_verdict(&w).expect("the engine absorbs the empty transfer");

    let report = check_workload(&w);
    assert!(report.is_clean(), "C004 must not block admission");
    assert!(report.has(Code::StreamUnderflowRisk));
}

// ---------------------------------------------------------------------
// Differential soundness: analyzer-clean workloads replay cleanly, and
// every corpus failure above is the analyzer's responsibility.
// ---------------------------------------------------------------------

/// Every workload the analyzer admits must replay to completion; every
/// workload that fails replay must carry at least one error-severity
/// finding. One loop, both directions, over a mixed corpus.
#[test]
fn differential_soundness_over_the_mixed_corpus() {
    let gb = 1u64 << 30;
    let corpus: Vec<RecordedWorkload> = vec![
        // Clean: symmetric collectives, fitting peaks.
        workload(vec![vec![
            rank(vec![host(1e-3), kernel(1e6), coll("a")], gb),
            rank(vec![kernel(2e6), host(2e-3), coll("a")], gb),
        ]]),
        // Clean: no collectives at all.
        workload(vec![vec![
            rank(vec![host(1e-3), transfer(1e6)], gb),
            rank(vec![kernel(1e5)], gb),
        ]]),
        // Deadlock: cross-node ragged counts.
        workload(vec![
            vec![rank(vec![coll("a"), coll("b")], 0)],
            vec![rank(vec![coll("a")], 0)],
        ]),
        // OOM: one rank alone exceeds the device.
        workload(vec![vec![rank(vec![kernel(1e6)], 100 * gb)]]),
        // Corrupt: infinite kernel dispatch charge.
        workload(vec![vec![rank(
            vec![Segment::Kernel {
                profile: KernelProfile::uniform("k", 1e6, 20.0, 8.0),
                dispatch: f64::INFINITY,
            }],
            0,
        )]]),
    ];

    for (i, w) in corpus.iter().enumerate() {
        let static_clean = check_workload(w).is_clean();
        let runtime = replay_verdict(w);
        match runtime {
            Ok(()) => assert!(
                static_clean,
                "corpus[{i}]: replays cleanly but the analyzer rejected it"
            ),
            Err(e) => assert!(
                !static_clean,
                "corpus[{i}]: replay failed ({e}) but the analyzer admitted it"
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Property: breaking the symmetry of any clean workload trips the
// barrier pass.
// ---------------------------------------------------------------------

/// Per-rank segment recipe: (collectives to perform, host charge).
/// Depth starts at 2 so the mutant below stays a *participant* after
/// losing one collective — dropping a rank's only collective removes it
/// from the communicator entirely, which is legal (B003 territory, not
/// B001).
fn arb_shape() -> impl Strategy<Value = Vec<(u8, f64)>> {
    proptest::collection::vec((2u8..5, 1e-4..1e-1), 2usize..6)
}

proptest! {
    /// Start from a symmetric workload (every rank performs the maximum
    /// collective count — analyzer-clean by construction), then delete
    /// one collective from one rank. The barrier pass must flag the
    /// mutant with an error-severity B001, and the mutant must deadlock
    /// at replay with exactly the predicted error.
    #[test]
    fn removing_one_collective_always_trips_the_barrier_pass(
        shape in arb_shape(),
        victim_seed: u8,
    ) {
        let depth = shape.iter().map(|&(c, _)| c).max().unwrap() as usize;
        let ranks: Vec<RankTrace> = shape
            .iter()
            .map(|&(_, h)| {
                let mut segs = vec![host(h)];
                for s in 0..depth {
                    segs.push(coll(&format!("allreduce_{s}")));
                }
                rank(segs, 0)
            })
            .collect();
        let clean = workload(vec![ranks]);
        prop_assert!(check_workload(&clean).is_clean());
        prop_assert!(replay_verdict(&clean).is_ok());

        let victim = victim_seed as usize % clean.nodes[0].len();
        let mut mutant = clean;
        let segs = &mut Arc::make_mut(&mut mutant.nodes[0])[victim].segments;
        let last_coll = segs
            .iter()
            .rposition(|s| matches!(s, Segment::Collective { .. }))
            .expect("every rank has collectives");
        segs.remove(last_coll);

        let report = check_workload(&mutant);
        prop_assert!(!report.is_clean());
        prop_assert!(report.has(Code::CollectiveMismatch));
        let b001 = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::CollectiveMismatch)
            .expect("B001 present");
        let err = replay_verdict(&mutant).expect_err("the mutant deadlocks");
        prop_assert_eq!(&b001.message, &err.to_string());
    }
}
