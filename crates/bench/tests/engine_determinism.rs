//! Determinism contract of the sharded discrete-event engine.
//!
//! The engine steps nodes as independent shards between collective
//! barriers (through the rayon facade) and merges their results in node
//! order, so a replay must be a pure function of its inputs: running the
//! same scenario twice — or under different worker-thread counts — must
//! produce *byte-identical* exported traces, not merely close makespans.
//! These tests lock that contract with the strictest comparison
//! available: bitwise equality of every accounting number and string
//! equality of the rendered trace exports.

use accel_sim::{
    simulate_cluster_traced, ClusterResult, KernelProfile, NodeConfig, NodeTimeline, RankTrace,
    Segment, TransferDir,
};
use repro_bench::traceout::{render_trace, TraceFormat};

fn host(seconds: f64) -> Segment {
    Segment::Host {
        seconds,
        label: "h".into(),
    }
}

fn kernel(items: f64, flops: f64, dispatch: f64) -> Segment {
    Segment::Kernel {
        profile: KernelProfile::uniform("k", items, flops, 8.0),
        dispatch,
    }
}

fn transfer(bytes: f64, dir: TransferDir) -> Segment {
    Segment::Transfer {
        bytes,
        dir,
        label: dir.label().into(),
    }
}

fn coll(seconds: f64, label: &str) -> Segment {
    Segment::Collective {
        seconds,
        bytes: 1e6,
        label: label.into(),
    }
}

/// A deliberately awkward 2-node scenario: asymmetric rank durations,
/// kernels of different occupancies, overlapped transfers, and skewed
/// per-rank collective charges (barriers follow MPI semantics, so every
/// rank performs the same *count* of collectives but arrives at wildly
/// different times), so barrier release, stream synchronisation and
/// shard merging all execute.
fn scenario() -> Vec<Vec<RankTrace>> {
    let mk = |node: usize, local: usize| {
        let f = 1.0 + 0.3 * (node * 3 + local) as f64;
        let segs = vec![
            host(0.004 * f),
            transfer(8e7 * f, TransferDir::HostToDevice),
            kernel(1e9, 30.0 * f, 1e-5),
            coll(0.002, "mpi_allreduce_zmap"),
            host(0.001 * f),
            kernel(3e4, 80.0, 1e-5),
            transfer(4e7 * f, TransferDir::DeviceToHost),
            coll(0.001, "mpi_allreduce_amp"),
            coll(0.0015 * f, "mpi_allreduce_extra"),
        ];
        RankTrace {
            segments: segs,
            ..RankTrace::default()
        }
    };
    (0..2)
        .map(|node| (0..3).map(|local| mk(node, local)).collect())
        .collect()
}

fn cfg() -> NodeConfig {
    NodeConfig {
        gpus: 2,
        overlap_transfers: true,
        ..NodeConfig::default()
    }
}

fn run() -> (ClusterResult, NodeTimeline) {
    simulate_cluster_traced(&scenario(), &cfg()).expect("scenario fits")
}

/// Bitwise comparison of every number the replay produced: `==` on f64
/// would already fail on a ulp, but `to_bits` also distinguishes
/// -0.0/0.0 and rules out NaN sneaking through.
fn assert_bitwise_equal(a: &ClusterResult, b: &ClusterResult) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.rank_seconds), bits(&b.rank_seconds));
    assert_eq!(bits(&a.gpu_busy), bits(&b.gpu_busy));
    assert_eq!(bits(&a.switch_seconds), bits(&b.switch_seconds));
    assert_eq!(bits(&a.nic_busy), bits(&b.nic_busy));
    assert_eq!(a.wall_seconds.to_bits(), b.wall_seconds.to_bits());
    assert_eq!(
        a.collective_seconds.to_bits(),
        b.collective_seconds.to_bits()
    );
    assert_eq!(
        a.collective_wait_seconds.to_bits(),
        b.collective_wait_seconds.to_bits()
    );
}

fn rendered(timeline: &NodeTimeline) -> (String, String) {
    (
        render_trace(&[], Some(timeline), TraceFormat::Jsonl),
        render_trace(&[], Some(timeline), TraceFormat::Chrome),
    )
}

#[test]
fn same_scenario_twice_exports_byte_identical_traces() {
    let (res_a, tl_a) = run();
    let (res_b, tl_b) = run();
    assert_bitwise_equal(&res_a, &res_b);
    let (jsonl_a, chrome_a) = rendered(&tl_a);
    let (jsonl_b, chrome_b) = rendered(&tl_b);
    assert!(!jsonl_a.is_empty() && jsonl_a.contains("mpi_allreduce_zmap"));
    assert_eq!(jsonl_a, jsonl_b, "JSONL exports diverged between runs");
    assert_eq!(chrome_a, chrome_b, "Chrome exports diverged between runs");
}

#[test]
fn thread_count_does_not_change_the_exported_trace() {
    // The engine iterates per-node shards through the rayon facade and
    // merges shard results in node order. The facade is the sequential
    // in-tree shim and the engine deliberately stays on it (see the shim's
    // crate doc), so this test is vacuous today: nothing in the engine
    // reads RAYON_NUM_THREADS. It locks that contract for the day the
    // shard loop runs in parallel; only the sweep fan-out above the
    // engine uses the knob now.
    let baseline = {
        std::env::set_var("RAYON_NUM_THREADS", "1");
        run()
    };
    for threads in ["2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let (res, tl) = run();
        assert_bitwise_equal(&baseline.0, &res);
        let (jsonl_a, chrome_a) = rendered(&baseline.1);
        let (jsonl_b, chrome_b) = rendered(&tl);
        assert_eq!(jsonl_a, jsonl_b, "JSONL diverged at {threads} threads");
        assert_eq!(chrome_a, chrome_b, "Chrome diverged at {threads} threads");
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn determinism_holds_without_collectives_and_across_node_counts() {
    // Shards that never synchronise run free to completion; their merge
    // must still be ordered. 1-node and 4-node replays of disjoint
    // workloads exercise the no-barrier path.
    let node: Vec<RankTrace> = (0..4)
        .map(|r| {
            let f = 1.0 + 0.5 * r as f64;
            RankTrace {
                segments: vec![
                    host(0.003 * f),
                    kernel(5e8 * f, 25.0, 1e-5),
                    transfer(6e7, TransferDir::DeviceToHost),
                ],
                ..RankTrace::default()
            }
        })
        .collect();
    for nodes in [1usize, 4] {
        let traces: Vec<Vec<RankTrace>> = vec![node.clone(); nodes];
        let (a, tl_a) = simulate_cluster_traced(&traces, &cfg()).unwrap();
        let (b, tl_b) = simulate_cluster_traced(&traces, &cfg()).unwrap();
        assert_bitwise_equal(&a, &b);
        assert_eq!(rendered(&tl_a), rendered(&tl_b), "{nodes}-node diverged");
    }
}
