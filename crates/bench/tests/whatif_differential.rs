//! The what-if repricer's differential oracle: a run recorded and then
//! replayed under the *identical* calibration must reproduce the live run
//! exactly — same makespan, same per-rank charges — because repricing
//! under identity rescales every baked-in cost by exactly 1.0 and the
//! discrete-event engine is deterministic. The recording goes through the
//! full serialization path (capture → JSONL → parse → replay), so any
//! precision loss or dropped charge anywhere in the chain breaks the
//! equality. Checked for the legacy single-node replay and the 2-node
//! cluster replay, across every schedule policy. Under every preset the
//! replay must also match the trace-level reference repricer bit for bit.

#[path = "../../accel/tests/common/reprice_oracle.rs"]
mod reprice_oracle;

use accel_sim::sweep::{sweep, SweepCalib, SweepSpec};
use accel_sim::whatif::{presets, RecordedWorkload};
use accel_sim::SchedulePolicyKind;
use repro_bench::{recorded_workload, run_config, RunConfig};
use scenario::{ProblemSize, Scenario};
use toast_core::dispatch::ImplKind;
use toast_satsim::Problem;

fn tiny_problem() -> Problem {
    let mut p = Problem::medium(2e-3);
    p.total_samples *= 64.0 / p.n_det_total as f64;
    p.n_det_total = 64;
    p.n_obs = 2;
    p
}

/// [`tiny_problem`] expressed as a scenario; the overrides reproduce the
/// mutation above bit for bit.
fn tiny_scenario(kind: ImplKind, procs: u32) -> Scenario {
    let mut s = Scenario::new("tiny", ProblemSize::Medium, 2e-3)
        .with_kind(kind)
        .with_procs(procs);
    s.problem.total_samples = Some(5e9 * (64.0 / 2048.0));
    s.problem.n_det_total = Some(64);
    s.problem.n_obs = Some(2);
    s
}

const POLICIES: [SchedulePolicyKind; 5] = [
    SchedulePolicyKind::Auto,
    SchedulePolicyKind::MpsFluid,
    SchedulePolicyKind::TimeSliced,
    SchedulePolicyKind::Fifo,
    SchedulePolicyKind::Priority,
];

/// Record a run, push it through JSONL and back, replay under identity,
/// and assert the replay reproduces the live run to 1e-9.
fn assert_identity_replay(nodes: Option<u32>, schedule: SchedulePolicyKind) {
    let what = format!("nodes {nodes:?} schedule {schedule}");
    let mut cfg = RunConfig::new(tiny_problem(), ImplKind::OmpTarget, 4).expect("valid procs");
    cfg.nodes = nodes;
    cfg.schedule = schedule;
    let out = run_config(&cfg).expect("valid config");
    let live_wall = *out.node_wall.as_ref().expect("run fits");

    let recorded = recorded_workload(&cfg, &out, &what, None).expect("recordable");
    let parsed = RecordedWorkload::parse_jsonl(&recorded.to_jsonl()).expect("parses");
    assert_eq!(parsed.meta.live_wall_seconds, live_wall, "{what}");
    assert_eq!(parsed.nodes.len(), nodes.unwrap_or(1) as usize, "{what}");

    let replayed = parsed.replay_identity().expect("replay fits");
    let delta = (replayed.cluster.wall_seconds - live_wall).abs();
    assert!(
        delta < 1e-9,
        "{what}: replayed {:.17e} vs live {live_wall:.17e} (|Δ| = {delta:.3e})",
        replayed.cluster.wall_seconds
    );

    // Per-rank charges survive the round trip: host seconds, kernel
    // counts and transfer bytes of every recorded rank match the live
    // trace they were captured from.
    for node_traces in &parsed.nodes {
        assert_eq!(node_traces.len(), out.traces.len(), "{what}");
        for (rank, (rec, live)) in node_traces.iter().zip(&out.traces).enumerate() {
            let who = format!("{what} rank {rank}");
            assert!(
                (rec.host_seconds() - live.host_seconds()).abs() < 1e-9,
                "{who}: host {} vs {}",
                rec.host_seconds(),
                live.host_seconds()
            );
            assert_eq!(rec.kernel_count(), live.kernel_count(), "{who}");
            assert!(
                (rec.transfer_bytes() - live.transfer_bytes()).abs() < 1e-9,
                "{who}: bytes {} vs {}",
                rec.transfer_bytes(),
                live.transfer_bytes()
            );
        }
    }
}

#[test]
fn identity_replay_reproduces_single_node_runs() {
    for policy in POLICIES {
        assert_identity_replay(None, policy);
    }
}

#[test]
fn identity_replay_reproduces_two_node_cluster_runs() {
    for policy in POLICIES {
        assert_identity_replay(Some(2), policy);
    }
}

#[test]
fn scenario_driven_recording_replays_identically_and_embeds_its_scenario() {
    // The identity oracle through the scenario path: a run configured via
    // a Scenario must record, round-trip through JSONL, and replay to the
    // *same bits* as the flag-configured run — and the recording carries
    // the scenario it came from.
    let s = tiny_scenario(ImplKind::OmpTarget, 4).with_nodes(2);
    let via_scenario = RunConfig::from_scenario(&s).expect("valid scenario");
    let out = run_config(&via_scenario).expect("valid config");
    let live_wall = *out.node_wall.as_ref().expect("run fits");

    let mut flag_cfg = RunConfig::new(tiny_problem(), ImplKind::OmpTarget, 4).expect("valid procs");
    flag_cfg.nodes = Some(2);
    let flag_wall = *run_config(&flag_cfg)
        .expect("valid config")
        .node_wall
        .as_ref()
        .expect("run fits");
    assert_eq!(
        live_wall.to_bits(),
        flag_wall.to_bits(),
        "scenario path diverges from RunConfig path before recording"
    );

    let recorded =
        recorded_workload(&via_scenario, &out, "scenario oracle", Some(&s)).expect("recordable");
    let parsed = RecordedWorkload::parse_jsonl(&recorded.to_jsonl()).expect("parses");
    let embedded = parsed.meta.scenario.as_deref().expect("scenario embedded");
    assert_eq!(Scenario::parse(embedded).expect("parses back"), s);

    let replayed = parsed.replay_identity().expect("replay fits");
    assert_eq!(
        replayed.cluster.wall_seconds.to_bits(),
        live_wall.to_bits(),
        "identity replay of a scenario-driven recording moved the makespan"
    );
}

#[test]
fn non_identity_preset_changes_only_hardware_priced_charges() {
    // The acceptance check for the repricer itself: an H100-like preset
    // replays the *recorded* charges (no kernel numerics re-run — the
    // workload is parsed from JSONL, nothing else is available to it)
    // and speeds up device kernels without touching host-bound labels.
    let mut cfg = RunConfig::new(tiny_problem(), ImplKind::OmpTarget, 4).expect("valid procs");
    cfg.nodes = Some(2);
    let out = run_config(&cfg).expect("valid config");
    let recorded = recorded_workload(&cfg, &out, "h100 probe", None).expect("recordable");
    let parsed = RecordedWorkload::parse_jsonl(&recorded.to_jsonl()).expect("parses");

    let p = accel_sim::whatif::preset("h100").expect("preset");
    let node = p.node.rescaled(parsed.meta.work_scale);
    let repriced = parsed.replay(&node, &p.net, None).expect("fits");
    let live = parsed.replay_identity().expect("fits").per_label;

    // Device kernels get faster, host labels keep their cost (same CPU).
    let faster = repriced.per_label["scan_map"].seconds;
    assert!(
        faster < live["scan_map"].seconds,
        "scan_map {faster} vs {}",
        live["scan_map"].seconds
    );
    let host = "unported_operators";
    assert!(
        (repriced.per_label[host].seconds - live[host].seconds).abs() < 1e-12,
        "host label moved"
    );
    // Transfers speed up with the PCIe gen5 link, but the bytes moved are
    // the recorded ones.
    let h2d = "accel_data_update_device";
    assert!(repriced.per_label[h2d].seconds < live[h2d].seconds);
    assert_eq!(repriced.per_label[h2d].bytes, live[h2d].bytes);
}

#[test]
fn sweep_identity_point_reproduces_the_live_run() {
    // The differential oracle extended to the batched path: a sweep grid
    // containing the identity calibration at the recorded gpus/schedule
    // must reproduce the live makespan to 1e-9 — and must be bit-identical
    // to the point-by-point replay_identity it replaces.
    let mut cfg = RunConfig::new(tiny_problem(), ImplKind::OmpTarget, 4).expect("valid procs");
    cfg.nodes = Some(2);
    let out = run_config(&cfg).expect("valid config");
    let live_wall = *out.node_wall.as_ref().expect("run fits");
    let recorded = recorded_workload(&cfg, &out, "sweep oracle", None).expect("recordable");
    let parsed = RecordedWorkload::parse_jsonl(&recorded.to_jsonl()).expect("parses");

    let result = sweep(&parsed, &SweepSpec::default_grid(&parsed.meta)).expect("sweep");
    let point = result
        .points
        .iter()
        .find(|p| {
            p.calib == "identity"
                && p.gpus == parsed.meta.gpus
                && p.schedule == parsed.meta.schedule
        })
        .expect("identity point in default grid");
    let makespan = point.makespan.expect("identity point evaluates");
    assert!(
        (makespan - live_wall).abs() < 1e-9,
        "sweep identity {makespan:.17e} vs live {live_wall:.17e}"
    );

    let oracle = parsed.replay_identity().expect("fits").cluster.wall_seconds;
    assert_eq!(
        makespan.to_bits(),
        oracle.to_bits(),
        "sweep identity point diverges from replay_identity: {makespan:.17e} vs {oracle:.17e}"
    );
}

#[test]
fn sweep_preset_points_match_standalone_replays_bitwise() {
    // Every sweep point must equal what `whatif --replay --calib <p>
    // --gpus <n>` computes for the same recording: both price the same
    // compiled arena through the same repricing function.
    let mut cfg = RunConfig::new(tiny_problem(), ImplKind::OmpTarget, 4).expect("valid procs");
    cfg.nodes = Some(2);
    let out = run_config(&cfg).expect("valid config");
    let recorded = recorded_workload(&cfg, &out, "sweep vs replay", None).expect("recordable");
    let parsed = RecordedWorkload::parse_jsonl(&recorded.to_jsonl()).expect("parses");

    let spec = SweepSpec {
        calibs: vec![
            SweepCalib::resolve("h100", &parsed.meta).expect("preset"),
            SweepCalib::resolve("a100-nvlink", &parsed.meta).expect("preset"),
            SweepCalib::resolve("slingshot11", &parsed.meta).expect("preset"),
        ],
        gpus: vec![2, 4],
        schedules: vec![parsed.meta.schedule],
        deadline: None,
    };
    let result = sweep(&parsed, &spec).expect("sweep");
    assert_eq!(result.evaluated, 6);
    for (point, calib) in result.points.iter().zip(
        spec.calibs
            .iter()
            .flat_map(|c| std::iter::repeat_n(c, spec.gpus.len())),
    ) {
        let standalone = parsed
            .replay(&calib.node, &calib.net, Some(point.gpus))
            .expect("fits")
            .cluster
            .wall_seconds;
        assert_eq!(
            point.makespan.expect("evaluates").to_bits(),
            standalone.to_bits(),
            "{} x{}: sweep {:?} vs standalone {standalone:?}",
            point.calib,
            point.gpus,
            point.makespan,
        );
    }
}

#[test]
fn replays_match_the_trace_level_reference_under_every_preset() {
    // A real 2-node omp recording, pushed through JSONL: under identity
    // and every preset, at the recorded and at overridden GPU counts, the
    // compiled replay equals the trace-level reference repricer bit for
    // bit — makespan, per-rank finish times and every per-label row.
    let mut cfg = RunConfig::new(tiny_problem(), ImplKind::OmpTarget, 4).expect("valid procs");
    cfg.nodes = Some(2);
    let out = run_config(&cfg).expect("valid config");
    let recorded = recorded_workload(&cfg, &out, "reference", None).expect("recordable");
    let parsed = RecordedWorkload::parse_jsonl(&recorded.to_jsonl()).expect("parses");

    let mut calibs = vec![("identity", parsed.meta.node_calib, parsed.meta.net_calib)];
    calibs.extend(
        presets()
            .into_iter()
            .map(|p| (p.name, p.node.rescaled(parsed.meta.work_scale), p.net)),
    );
    for (name, node, net) in calibs {
        for gpus in [None, Some(1), Some(2)] {
            if let Err(e) = reprice_oracle::check_replay(&parsed, &node, &net, gpus) {
                panic!("{name} gpus {gpus:?}: {e}");
            }
        }
    }
}
