//! The figures driver's memo is exact: replaying one live run under a
//! changed replay-time field gives, bit for bit, what a fresh `run_config`
//! of the changed configuration gives, and its traced replay records the
//! timeline a fresh live run's does; the live key tells the two kinds of
//! field apart; and the default figures need 27 live runs for their 40
//! points.

use accel_sim::SchedulePolicyKind;
use repro_bench::figures::{plan, FIGURES};
use repro_bench::runner::{replay, run_live};
use repro_bench::{run_config, summarize_events, RunConfig};
use scenario::{ImplKind, ProblemSize, Scenario};
use toast_core::pipeline::MovementPolicy;

/// A tiny medium-shaped problem: 64 detectors, two observations, and 8
/// offload ranks, so 4 GPUs are oversubscribed and every replay-time
/// field changes the schedule.
fn tiny() -> RunConfig {
    let mut s = Scenario::new("tiny", ProblemSize::Medium, 2e-3)
        .with_kind(ImplKind::OmpTarget)
        .with_procs(8);
    s.problem.total_samples = Some(5e9 * (64.0 / 2048.0));
    s.problem.n_det_total = Some(64);
    s.problem.n_obs = Some(2);
    RunConfig::from_scenario(&s).unwrap()
}

/// Every replay-time variant of `base`, one field changed at a time.
fn replay_variants(base: &RunConfig) -> Vec<(String, RunConfig)> {
    let mut out = Vec::new();
    let mut push = |name: String, f: &dyn Fn(&mut RunConfig)| {
        let mut cfg = base.clone();
        f(&mut cfg);
        out.push((name, cfg));
    };
    for mps in [true, false] {
        push(format!("mps {mps}"), &|c| c.mps = mps);
    }
    for schedule in [
        SchedulePolicyKind::Auto,
        SchedulePolicyKind::MpsFluid,
        SchedulePolicyKind::TimeSliced,
        SchedulePolicyKind::Fifo,
        SchedulePolicyKind::Priority,
    ] {
        push(format!("schedule {schedule}"), &|c| c.schedule = schedule);
    }
    for overlap in [false, true] {
        push(format!("overlap {overlap}"), &|c| {
            c.overlap_transfers = overlap
        });
    }
    for gpus in [1, 2, 4] {
        push(format!("gpus {gpus}"), &|c| c.gpus = gpus);
    }
    out
}

#[test]
fn one_node_replays_equal_fresh_runs_bit_for_bit() {
    replays_equal_fresh_runs(None);
}

#[test]
fn cluster_replays_equal_fresh_runs_bit_for_bit() {
    replays_equal_fresh_runs(Some(2));
}

fn replays_equal_fresh_runs(nodes: Option<u32>) {
    let mut base = tiny();
    base.nodes = nodes;
    let live = run_live(&base.live_key()).unwrap();
    let metrics = format!("{:?}", summarize_events(&live.traces));
    let mut walls = Vec::new();
    for (name, cfg) in replay_variants(&base) {
        let what = format!("nodes {nodes:?}, {name}");
        assert_eq!(cfg.live_key(), live.key, "{what}");
        let fresh = run_config(&cfg).unwrap();
        let r = replay(&cfg, &live, false);
        assert!(
            r.timeline.is_none(),
            "{what}: an untraced replay records no timeline"
        );
        let bits = |w: &Result<f64, String>| w.as_ref().map(|w| w.to_bits()).ok();
        assert!(fresh.node_wall.is_ok(), "{what}: the tiny run fits");
        assert_eq!(bits(&fresh.node_wall), bits(&r.node_wall), "{what}");
        walls.extend(bits(&r.node_wall));
        assert_eq!(
            fresh.comm_seconds.to_bits(),
            r.comm_seconds.to_bits(),
            "{what}"
        );
        let busy = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(busy(&fresh.gpu_busy), busy(&r.gpu_busy), "{what}");
        assert_eq!(
            format!("{:?}", fresh.per_label),
            format!("{:?}", live.per_label),
            "{what}"
        );
        assert_eq!(
            fresh.transfer_bytes.to_bits(),
            live.transfer_bytes.to_bits(),
            "{what}"
        );
        assert_eq!(format!("{:?}", fresh.metrics), metrics, "{what}");
        // The traced replay prices exactly as the untraced one, and its
        // timeline is the one a fresh live run's traced replay records.
        let mut traced = replay(&cfg, &live, true);
        let timeline = traced.timeline.take().expect("the tiny run fits");
        assert!(!timeline.events.is_empty(), "{what}");
        assert_eq!(format!("{traced:?}"), format!("{r:?}"), "{what}");
        let fresh_live = run_live(&cfg.live_key()).unwrap();
        let fresh_timeline = replay(&cfg, &fresh_live, true).timeline;
        assert_eq!(
            format!("{:?}", fresh_timeline.expect("the tiny run fits")),
            format!("{timeline:?}"),
            "{what}"
        );
        assert_eq!(
            format!("{:?}", fresh.cluster),
            format!("{:?}", r.cluster),
            "{what}"
        );
    }
    // The variants are not all the same replay.
    walls.sort_unstable();
    walls.dedup();
    assert!(walls.len() > 3, "{} distinct walls", walls.len());
}

#[test]
fn the_live_key_changes_with_every_live_field_and_no_replay_field() {
    let base = tiny();
    let key = base.live_key();
    let mut live_changes: Vec<(&str, RunConfig)> = Vec::new();
    let mut change = |name, f: &dyn Fn(&mut RunConfig)| {
        let mut cfg = base.clone();
        f(&mut cfg);
        live_changes.push((name, cfg));
    };
    change("problem", &|c| c.problem.n_obs += 1);
    change("kind", &|c| c.kind = ImplKind::Jit);
    change("procs", &|c| c.procs_per_node = 16);
    change("movement", &|c| c.movement = MovementPolicy::Naive);
    change("nodes", &|c| c.nodes = Some(2));
    change("calib", &|c| {
        let mut calib = c.node_calib();
        calib.gpu.mem_bytes *= 2;
        c.calib = Some(calib);
    });
    change("net", &|c| {
        let mut net = c.net_calib();
        net.bw *= 2.0;
        c.net = Some(net);
    });
    for (name, cfg) in live_changes {
        assert_ne!(cfg.live_key(), key, "{name}");
    }
    for (name, cfg) in replay_variants(&base) {
        assert_eq!(cfg.live_key(), key, "{name}");
    }
    // The calibrations in force are the key, not how they were given.
    let mut explicit = base.clone();
    explicit.calib = Some(base.node_calib());
    explicit.net = Some(base.net_calib());
    assert_eq!(explicit.live_key(), key);
}

#[test]
fn the_default_figures_need_27_live_runs_for_40_points() {
    let figs: Vec<_> = FIGURES.iter().map(|f| (f, (f.default)())).collect();
    let plan = plan(&figs).unwrap();
    assert_eq!(plan.len(), 40);
    let mut keys = Vec::new();
    for (_, _, cfg) in &plan {
        let key = cfg.live_key();
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    assert_eq!(keys.len(), 27);
}

#[test]
fn default_scenarios_match_the_golden_scenario_files() {
    for fig in &FIGURES {
        let path = format!(
            "{}/../../scenarios/{}.json",
            env!("CARGO_MANIFEST_DIR"),
            fig.name
        );
        assert_eq!(Scenario::read(&path).unwrap(), (fig.default)(), "{path}");
    }
}
