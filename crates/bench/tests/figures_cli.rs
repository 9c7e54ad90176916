//! The `figures` binary at its CLI surface: out-of-memory cells print
//! `OOM` and `-` instead of panicking, and bad invocations are `error: …`
//! with exit 2.

use std::path::PathBuf;
use std::process::{Command, Output};

use scenario::{CalibSpec, Scenario};

fn figures(args: &[&str], dir: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn figures")
}

/// A scratch directory outside the repository (CSVs land in it).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro_figures_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn out_of_memory_cells_print_oom_at_64_procs() {
    let dir = scratch("oom");
    // One detector per rank, two observations of one pass: every device
    // cell runs out of memory at 64 processes, the CPU cells fit.
    let scenario = dir.join("tiny64.json");
    std::fs::write(
        &scenario,
        r#"{"schema_version": 1, "name": "tiny64",
            "problem": {"size": "medium", "scale": 0.001, "total_samples": 156250000,
                        "n_det_total": 64, "n_obs": 2, "passes": 1},
            "impl": "cpu", "procs_per_node": 64, "gpus": 4, "mps": true,
            "movement": "tracked", "schedule": "auto", "overlap_transfers": false,
            "calib": "auto"}"#,
    )
    .unwrap();
    let path = scenario.to_str().unwrap();
    for fig in ["ablation_data_movement", "fig6_per_kernel"] {
        let out = figures(&[fig, "--scenario", path], &dir);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{fig}: {stderr}");
        assert!(!stderr.contains("panicked"), "{fig}: {stderr}");
        assert!(stdout.contains("OOM"), "{fig}:\n{stdout}");
        if fig == "ablation_data_movement" {
            assert!(stdout.contains("OmpTarget: naive is - slower"), "{stdout}");
            let omp_tracked = stdout
                .lines()
                .find(|l| l.contains("OmpTarget") && l.contains("Tracked"))
                .unwrap();
            assert_eq!(
                omp_tracked.split_whitespace().collect::<Vec<_>>(),
                ["OmpTarget", "Tracked", "OOM", "-"]
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One detector per rank, two observations of one pass: a scenario whose
/// figures run in seconds.
const TINY: &str = r#"{"schema_version": 1, "name": "tiny",
    "problem": {"size": "medium", "scale": 0.001, "total_samples": 156250000,
                "n_det_total": 64, "n_obs": 2, "passes": 1},
    "impl": "cpu", "procs_per_node": 16, "gpus": 4, "mps": true,
    "movement": "tracked", "schedule": "auto", "overlap_transfers": false,
    "calib": "auto"}"#;

#[test]
fn fig4_threads_follow_the_calibrated_core_count() {
    let dir = scratch("cores");
    // The default calibration with 32 cores instead of 64, inline.
    let mut s = Scenario::parse(TINY).unwrap();
    let (mut node, net) = s.resolved_calib().unwrap();
    node.cpu.cores = 32;
    s.calib = CalibSpec::Inline { node, net };
    let scenario = dir.join("cores32.json");
    std::fs::write(&scenario, s.to_json()).unwrap();
    let out = figures(
        &[
            "fig4_process_scaling",
            "--scenario",
            scenario.to_str().unwrap(),
        ],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // procs and threads of every table row; 64 processes do not fit 32
    // cores, so the sweep stops at 32.
    let rows: Vec<(u32, u32)> = stdout
        .lines()
        .filter_map(|l| {
            let mut cells = l.split_whitespace().map(str::parse);
            Some((cells.next()?.ok()?, cells.next()?.ok()?))
        })
        .collect();
    let want: Vec<(u32, u32)> = [1, 2, 4, 8, 16, 32].map(|p| (p, 32 / p)).to_vec();
    assert_eq!(rows, want, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mps_ablation_traces_are_named_by_implementation() {
    let dir = scratch("mps_labels");
    let scenario = dir.join("tiny.json");
    std::fs::write(&scenario, TINY).unwrap();
    let trace = dir.join("t.jsonl");
    for kind in ["omp", "jax"] {
        let mut args = vec!["ablation_mps", "--scenario", scenario.to_str().unwrap()];
        args.extend(["--trace-out", trace.to_str().unwrap(), "--impl", kind]);
        let out = figures(&args, &dir);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        for procs in [4, 8, 16, 32] {
            for mps in ["mps", "nomps"] {
                let name = format!("t-{kind}{procs}-{mps}.jsonl");
                assert!(stdout.contains(&name), "{name} not written:\n{stdout}");
                assert!(dir.join(&name).is_file(), "{name}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mps_ablation_title_names_the_selected_implementation() {
    let dir = scratch("mps_title");
    let scenario = dir.join("tiny.json");
    std::fs::write(&scenario, TINY).unwrap();
    let path = scenario.to_str().unwrap();
    // The scenario's own cpu implementation, then `--impl jax` over it.
    for (extra, port) in [(None, "the CPU baseline"), (Some("jax"), "the JIT port")] {
        let mut args = vec!["ablation_mps", "--scenario", path];
        args.extend(extra.map(|kind| ["--impl", kind]).into_iter().flatten());
        let out = figures(&args, &dir);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let title = stdout.lines().next().unwrap_or_default();
        assert_eq!(
            title,
            format!("Ablation — MPS on/off for {port} (medium, scale 0.001)")
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn line_counts_outside_the_repository_are_an_error_not_a_panic() {
    let dir = scratch("loc");
    for fig in ["fig2_loc", "fig3_loc_per_kernel"] {
        let out = figures(&[fig], &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{fig}: {stderr}");
        assert!(stderr.starts_with("error: "), "{fig}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_invocations_exit_2() {
    let dir = scratch("usage");
    for args in [&[][..], &["nope"], &["all", "--scale", "1"]] {
        let out = figures(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
