//! Rank-loop determinism: `run_live` runs a run's ranks on
//! `RAYON_NUM_THREADS` worker threads, but each rank writes only its own
//! slot and the slots are merged in rank order, so `run_config` gives the
//! same bits whatever the worker count: makespan, communication, every
//! per-label stat (the JIT compiles included) and every rank's trace.
//!
//! The only test in its own binary: it sets `RAYON_NUM_THREADS`, which is
//! process-wide.

use repro_bench::{run_config, RunConfig, RunOutcome};
use scenario::{ImplKind, ProblemSize, Scenario};

/// A small problem in the `live` benchmark's shape (scale 1e-3, two
/// observations), with 16 detectors so 16 ranks hold one each.
fn config(kind: ImplKind, procs: u32, nodes: Option<u32>) -> RunConfig {
    let mut s = Scenario::new("rank loop", ProblemSize::Medium, 1e-3)
        .with_kind(kind)
        .with_procs(procs);
    s.nodes = nodes;
    s.problem.n_det_total = Some(16);
    s.problem.n_obs = Some(2);
    s.problem.total_samples = Some(5e9 / 512.0);
    s.problem.seed = Some(5151);
    RunConfig::from_scenario(&s).unwrap()
}

fn assert_same_bits(name: &str, a: &RunOutcome, b: &RunOutcome) {
    let bits = |w: &Result<f64, String>| w.as_ref().map(|w| w.to_bits()).ok();
    assert!(a.node_wall.is_ok(), "{name}: the small run fits");
    assert_eq!(bits(&a.node_wall), bits(&b.node_wall), "{name}: node_wall");
    assert_eq!(
        a.comm_seconds.to_bits(),
        b.comm_seconds.to_bits(),
        "{name}: comm_seconds"
    );
    assert_eq!(
        a.per_label.keys().collect::<Vec<_>>(),
        b.per_label.keys().collect::<Vec<_>>(),
        "{name}: labels"
    );
    for (label, x) in &a.per_label {
        let y = &b.per_label[label];
        assert_eq!(x.calls, y.calls, "{name}: {label} calls");
        assert_eq!(x.seconds.to_bits(), y.seconds.to_bits(), "{name}: {label}");
        assert_eq!(
            x.bytes.to_bits(),
            y.bytes.to_bits(),
            "{name}: {label} bytes"
        );
    }
    assert_eq!(a.traces.len(), b.traces.len(), "{name}: ranks");
    for (rank, (x, y)) in a.traces.iter().zip(&b.traces).enumerate() {
        // Debug prints every f64 round-trip exact: equal text, equal bits.
        assert!(
            format!("{x:?}") == format!("{y:?}"),
            "{name}: rank {rank} trace differs"
        );
    }
}

#[test]
fn run_config_is_bit_identical_at_every_worker_count() {
    let mut cfgs = Vec::new();
    for kind in [ImplKind::Cpu, ImplKind::OmpTarget, ImplKind::Jit] {
        for procs in [4, 16] {
            cfgs.push(config(kind, procs, None));
        }
    }
    cfgs.push(config(ImplKind::Jit, 4, Some(2)));

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let one: Vec<RunOutcome> = cfgs.iter().map(|c| run_config(c).unwrap()).collect();
    for (cfg, out) in cfgs.iter().zip(&one) {
        assert_eq!(
            out.traces.len(),
            cfg.procs_per_node as usize,
            "every rank ran"
        );
    }
    let jit_compiles = one[5]
        .per_label
        .keys()
        .filter(|l| l.ends_with("/jit_compile"))
        .count();
    assert!(jit_compiles > 0, "the jax run charges its JIT compiles");
    for threads in ["2", "3"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        for (cfg, want) in cfgs.iter().zip(&one) {
            let name = format!(
                "{:?} p{} {:?} at {threads} workers",
                cfg.kind, cfg.procs_per_node, cfg.nodes
            );
            assert_same_bits(&name, want, &run_config(cfg).unwrap());
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}
