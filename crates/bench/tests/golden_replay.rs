//! Golden-path regression: the discrete-event engine must reproduce the
//! pre-refactor analytic replay's makespans exactly (within 1e-9) for the
//! seed configurations. The expected values below were recorded from the
//! pre-engine `simulate_node` at commit 77615ce and are intentionally
//! inlined rather than snapshotted: a change that moves them is a change
//! to the simulator's physics and must be made deliberately.
//!
//! The what-if sweep over the `scenarios/whatif_record.json` recording is
//! pinned byte for byte to `golden/sweep_whatif_record.jsonl`, captured
//! from the engine before its event queue was replaced. The sweep-vs-
//! replay oracles run both sides through the same engine, so only an
//! external file catches a change in tie order that moves both together.

use accel_sim::sweep::{sweep, SweepSpec};
use accel_sim::whatif::RecordedWorkload;
use accel_sim::{
    simulate_node, KernelProfile, NodeConfig, RankTrace, SchedulePolicyKind, Segment, TransferDir,
};
use repro_bench::{record_run, run_config, RunConfig};
use scenario::{ProblemSize, Scenario};
use toast_core::dispatch::ImplKind;
use toast_satsim::Problem;

fn host(seconds: f64) -> Segment {
    Segment::Host {
        seconds,
        label: "h".into(),
    }
}

fn kernel(items: f64, flops: f64, bytes: f64, dispatch: f64) -> Segment {
    Segment::Kernel {
        profile: KernelProfile::uniform("k", items, flops, bytes),
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

fn trace(segments: Vec<Segment>) -> RankTrace {
    RankTrace {
        segments,
        ..RankTrace::default()
    }
}

/// A mixed workload: every rank interleaves host work, kernels of varying
/// occupancy, and transfers; rank `r`'s durations are skewed by its index
/// so the replay exercises asymmetric contention.
fn mixed_traces(ranks: usize) -> Vec<RankTrace> {
    (0..ranks)
        .map(|r| {
            let f = 1.0 + 0.25 * r as f64;
            trace(vec![
                host(0.01 * f),
                transfer(1e8 * f, TransferDir::HostToDevice),
                kernel(1e9, 40.0 * f, 8.0, 1e-5),
                host(0.002 * f),
                kernel(2e4, 100.0, 16.0, 1e-5),
                transfer(5e7 * f, TransferDir::DeviceToHost),
            ])
        })
        .collect()
}

fn tiny_problem() -> Problem {
    let mut p = Problem::medium(2e-3);
    p.total_samples *= 64.0 / p.n_det_total as f64;
    p.n_det_total = 64;
    p.n_obs = 2;
    p
}

/// The same configuration as [`tiny_problem`], expressed as a scenario
/// (the overrides reproduce the mutation above bit for bit).
fn tiny_scenario(kind: ImplKind, procs: u32) -> Scenario {
    let mut s = Scenario::new("tiny", ProblemSize::Medium, 2e-3)
        .with_kind(kind)
        .with_procs(procs);
    s.problem.total_samples = Some(5e9 * (64.0 / 2048.0));
    s.problem.n_det_total = Some(64);
    s.problem.n_obs = Some(2);
    s
}

fn assert_close(actual: f64, expected: f64, what: &str) {
    assert!(
        (actual - expected).abs() < 1e-9,
        "{what}: got {actual:.17e}, expected {expected:.17e} (|Δ| = {:.3e})",
        (actual - expected).abs()
    );
}

#[test]
fn synthetic_node_makespans_match_pre_engine_values() {
    let cases: [(&str, NodeConfig, usize, f64); 5] = [
        (
            "1 rank / 4 gpus / mps",
            NodeConfig::default(),
            1,
            GOLDEN_SYN_1,
        ),
        (
            "8 ranks / 4 gpus / mps",
            NodeConfig::default(),
            8,
            GOLDEN_SYN_8,
        ),
        (
            "8 ranks / 4 gpus / no mps",
            NodeConfig {
                mps: false,
                ..NodeConfig::default()
            },
            8,
            GOLDEN_SYN_8_NOMPS,
        ),
        (
            "6 ranks / 1 gpu / mps",
            NodeConfig {
                gpus: 1,
                ..NodeConfig::default()
            },
            6,
            GOLDEN_SYN_6_1GPU,
        ),
        (
            "4 ranks / 2 gpus / no mps",
            NodeConfig {
                gpus: 2,
                mps: false,
                ..NodeConfig::default()
            },
            4,
            GOLDEN_SYN_4_2GPU_NOMPS,
        ),
    ];
    for (what, cfg, ranks, expected) in cases {
        let res = simulate_node(&mixed_traces(ranks), &cfg).unwrap();
        assert_close(res.wall_seconds, expected, what);
    }
}

#[test]
fn pipeline_node_makespans_match_pre_engine_values() {
    let cases: [(&str, ImplKind, u32, bool, f64); 4] = [
        ("cpu x4", ImplKind::Cpu, 4, true, GOLDEN_PIPE_CPU4),
        ("omp x16", ImplKind::OmpTarget, 16, true, GOLDEN_PIPE_OMP16),
        ("jit x8", ImplKind::Jit, 8, true, GOLDEN_PIPE_JIT8),
        (
            "omp x8 no-mps",
            ImplKind::OmpTarget,
            8,
            false,
            GOLDEN_PIPE_OMP8_NOMPS,
        ),
    ];
    for (what, kind, procs, mps, expected) in cases {
        let mut cfg = RunConfig::new(tiny_problem(), kind, procs).expect("valid procs");
        cfg.mps = mps;
        let out = run_config(&cfg).expect("valid config");
        let wall = out.node_wall.as_ref().expect("fits").to_owned();
        assert_close(wall, expected, what);

        // Differential guard: the same configuration expressed as a
        // scenario must land on the *same bits*, not merely within 1e-9 —
        // the golden path and the scenario path are one code path.
        let s = tiny_scenario(kind, procs).with_mps(mps);
        let via_scenario = run_config(&RunConfig::from_scenario(&s).expect("valid scenario"))
            .expect("valid config");
        assert_eq!(
            via_scenario.node_wall.expect("fits").to_bits(),
            wall.to_bits(),
            "{what}: scenario path diverges from RunConfig path"
        );
    }
}

/// The 2-node cluster configurations locked below: OmpTarget, 4 procs,
/// one schedule policy each (PR 2's goldens covered single-node paths
/// only).
fn cluster_cases() -> [(&'static str, SchedulePolicyKind); 3] {
    [
        ("GOLDEN_CLUSTER_AUTO", SchedulePolicyKind::Auto),
        ("GOLDEN_CLUSTER_FIFO", SchedulePolicyKind::Fifo),
        ("GOLDEN_CLUSTER_PRIORITY", SchedulePolicyKind::Priority),
    ]
}

fn cluster_wall(schedule: SchedulePolicyKind) -> f64 {
    // 8 procs on 4 GPUs: two ranks per device, so the arbitration policy
    // actually shapes the makespan (at one rank per GPU all policies
    // coincide).
    let mut cfg = RunConfig::new(tiny_problem(), ImplKind::OmpTarget, 8).expect("valid procs");
    cfg.nodes = Some(2);
    cfg.schedule = schedule;
    let out = run_config(&cfg).expect("valid config");
    *out.node_wall.as_ref().expect("fits")
}

#[test]
fn cluster_makespans_match_locked_values() {
    let expected = [
        GOLDEN_CLUSTER_AUTO,
        GOLDEN_CLUSTER_FIFO,
        GOLDEN_CLUSTER_PRIORITY,
    ];
    for ((what, schedule), want) in cluster_cases().into_iter().zip(expected) {
        assert_close(cluster_wall(schedule), want, what);

        // Same cluster configuration through the scenario path: the
        // locked makespans must come out bit-identical.
        let s = tiny_scenario(ImplKind::OmpTarget, 8)
            .with_nodes(2)
            .with_schedule(schedule);
        let out = run_config(&RunConfig::from_scenario(&s).expect("valid scenario"))
            .expect("valid config");
        assert_eq!(
            out.node_wall.expect("fits").to_bits(),
            cluster_wall(schedule).to_bits(),
            "{what}: scenario path diverges from RunConfig path"
        );
    }
}

/// The golden sweep grid: every calibration the sweep CLI names for the
/// paper's question × GPU counts × all five schedules (`ci.sh` runs the
/// same grid through `whatif sweep --out`).
const GOLDEN_GRID: &str =
    "gpus=1,2,4,8;calib=identity,h100,a100-nvlink;schedule=auto,mps,timeslice,fifo,priority";

#[test]
fn whatif_record_sweep_matches_the_golden_file_byte_for_byte() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/whatif_record.json"
    );
    let text = std::fs::read_to_string(path).expect("golden scenario readable");
    let s = Scenario::parse(&text).expect("golden scenario parses");
    let cfg = RunConfig::from_scenario(&s).expect("valid scenario");
    let (_out, recorded) = record_run(&cfg, "golden", Some(&s)).expect("recordable");
    // Through the JSONL codec, as the CLI reads it.
    let mut workload = RecordedWorkload::parse_jsonl(&recorded.to_jsonl()).expect("parses");

    assert_eq!(
        recorded.meta.live_wall_seconds.to_bits(),
        GOLDEN_WHATIF_LIVE.to_bits()
    );
    let golden = include_str!("golden/sweep_whatif_record.jsonl");
    // The sweep fans points out over `RAYON_NUM_THREADS` workers; the
    // file pins every worker count, including uneven shares.
    for threads in ["1", "2", "3", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        // Overlap off (as recorded), then on: transfers are recorded the
        // same either way, so flipping the replay flag equals recording
        // with `--overlap`, whose live makespan the identity replay must
        // hit.
        let mut jsonl = String::new();
        for (overlap, live_bits) in [
            (false, GOLDEN_WHATIF_LIVE.to_bits()),
            (true, GOLDEN_WHATIF_LIVE_OVERLAP.to_bits()),
        ] {
            workload.meta.overlap_transfers = overlap;
            let identity = workload.replay_identity().expect("identity replay fits");
            assert_eq!(
                identity.cluster.wall_seconds.to_bits(),
                live_bits,
                "overlap {overlap}: identity replay {:?}",
                identity.cluster.wall_seconds
            );
            let spec = SweepSpec::parse_grid(GOLDEN_GRID, &workload.meta).expect("grid parses");
            let res = sweep(&workload, &spec).expect("sweep compiles");
            // 8 ranks per node with MPS on: per calibration, `auto` and
            // `mps` share a loop at 1, 2 and 4 GPUs (3 × 4 policies), and
            // 8 GPUs hold one rank each (1 solo loop): 39 engine keys. At
            // 1 GPU the 40 GB identity and a100-nvlink devices fail
            // admission, so those 2 × 4 keys run no loop.
            assert_eq!(res.replays, 3 * (3 * 4 + 1) - 2 * 4, "overlap {overlap}");
            jsonl.push_str(&res.to_jsonl());
        }
        for (i, (got, want)) in jsonl.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "golden sweep line {} differs at {threads} workers",
                i + 1
            );
        }
        assert_eq!(
            jsonl, golden,
            "golden sweep length differs at {threads} workers"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

// Pre-refactor makespans, recorded from the analytic replay (see module
// docs). Full f64 precision.
const GOLDEN_SYN_1: f64 = 0.024483712977491967;
const GOLDEN_SYN_8: f64 = 0.06656496234587464;
const GOLDEN_SYN_8_NOMPS: f64 = 0.21694650199171286;
const GOLDEN_SYN_6_1GPU: f64 = 0.17895561202214336;
const GOLDEN_SYN_4_2GPU_NOMPS: f64 = 0.19070907931130046;
const GOLDEN_PIPE_CPU4: f64 = 0.015180281788974554;
const GOLDEN_PIPE_OMP16: f64 = 0.004323438244431148;
const GOLDEN_PIPE_JIT8: f64 = 0.0072396279724240365;
const GOLDEN_PIPE_OMP8_NOMPS: f64 = 0.00725656151065077;
// 2-node cluster makespans, recorded from the discrete-event cluster
// engine at the commit introducing the what-if repricer.
const GOLDEN_CLUSTER_AUTO: f64 = 0.005050661876582861;
const GOLDEN_CLUSTER_FIFO: f64 = 0.004817435966790251;
const GOLDEN_CLUSTER_PRIORITY: f64 = 0.0048042810883336595;
// Live makespans of `scenarios/whatif_record.json`, without and with
// overlapped transfers (`whatif --record`, `whatif --overlap --record`).
const GOLDEN_WHATIF_LIVE: f64 = 0.07600343108459645;
const GOLDEN_WHATIF_LIVE_OVERLAP: f64 = 0.07534618773739639;

/// Temporary capture helper: prints the current values so they can be
/// inlined above. Run with `cargo test -p repro-bench --test golden_replay
/// -- --ignored --nocapture`.
#[test]
#[ignore]
fn capture_golden_values() {
    for (name, cfg, ranks) in [
        ("GOLDEN_SYN_1", NodeConfig::default(), 1usize),
        ("GOLDEN_SYN_8", NodeConfig::default(), 8),
        (
            "GOLDEN_SYN_8_NOMPS",
            NodeConfig {
                mps: false,
                ..NodeConfig::default()
            },
            8,
        ),
        (
            "GOLDEN_SYN_6_1GPU",
            NodeConfig {
                gpus: 1,
                ..NodeConfig::default()
            },
            6,
        ),
        (
            "GOLDEN_SYN_4_2GPU_NOMPS",
            NodeConfig {
                gpus: 2,
                mps: false,
                ..NodeConfig::default()
            },
            4,
        ),
    ] {
        let res = simulate_node(&mixed_traces(ranks), &cfg).unwrap();
        println!("const {name}: f64 = {:?};", res.wall_seconds);
    }
    for (name, kind, procs, mps) in [
        ("GOLDEN_PIPE_CPU4", ImplKind::Cpu, 4u32, true),
        ("GOLDEN_PIPE_OMP16", ImplKind::OmpTarget, 16, true),
        ("GOLDEN_PIPE_JIT8", ImplKind::Jit, 8, true),
        ("GOLDEN_PIPE_OMP8_NOMPS", ImplKind::OmpTarget, 8, false),
    ] {
        let mut cfg = RunConfig::new(tiny_problem(), kind, procs).expect("valid procs");
        cfg.mps = mps;
        let out = run_config(&cfg).expect("valid config");
        println!("const {name}: f64 = {:?};", out.node_wall.as_ref().unwrap());
    }
    for (name, schedule) in cluster_cases() {
        println!("const {name}: f64 = {:?};", cluster_wall(schedule));
    }
}
