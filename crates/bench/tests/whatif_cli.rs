//! The `whatif` binary's flag checks, driven as a subprocess.

use std::process::{Command, Output};

use accel_sim::whatif::{RecordMeta, RecordedWorkload};
use accel_sim::{RankTrace, Segment};

fn replay(args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("whatif_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("rec.jsonl");
    let rank = RankTrace {
        segments: vec![Segment::Host {
            seconds: 1e-3,
            label: "serial".into(),
        }],
        ..RankTrace::default()
    };
    RecordedWorkload {
        meta: RecordMeta::default(),
        nodes: vec![vec![rank].into()],
    }
    .write(&path)
    .expect("write recording");
    let out = Command::new(env!("CARGO_BIN_EXE_whatif"))
        .arg("--replay")
        .arg(&path)
        .args(args)
        .output()
        .expect("spawn whatif");
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn replay_rejects_zero_gpus_as_a_usage_error() {
    let out = replay(&["--gpus", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--gpus expects a positive integer, got '0'"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "replayed before rejecting the flag");
    // A positive count replays.
    let out = replay(&["--gpus", "1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
