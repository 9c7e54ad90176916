//! Checkpoint/restart differential test: a real `simd` process is
//! SIGKILLed mid-sweep at a checkpoint boundary, restarted with
//! `--resume`, and must produce sweep output byte-identical to an
//! uninterrupted run — the service-level face of the engine's
//! resumable-sweep bit-identity contract. The three runs use different
//! sweep worker counts (`RAYON_NUM_THREADS`), so the cursor must be
//! worker-count-independent too. A checkpoint that cannot be written
//! fails its job and nothing else.

mod common;

use common::{event, golden_scenario, raw_field, run_simd, spawn_simd, submit};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

use accel_sim::{KernelProfile, RankTrace, RecordMeta, RecordedWorkload, Segment, TransferDir};

/// A synthetic two-node recording, heavy enough that its 40-point grid
/// spans several checkpoint chunks but replays in milliseconds.
fn recording() -> RecordedWorkload {
    let rank = |f: f64, extra: usize| {
        let mut segments = vec![
            Segment::Host {
                seconds: 2e-4 * f,
                label: "serial".into(),
            },
            Segment::Transfer {
                bytes: 4e6 * f,
                dir: TransferDir::HostToDevice,
                label: "accel_data_update_device".into(),
            },
            Segment::Kernel {
                profile: KernelProfile::uniform("k_big", 1e7, 24.0 * f, 8.0),
                dispatch: 1e-5,
            },
            Segment::Collective {
                seconds: 3e-4,
                bytes: 1e6,
                label: "mpi_allreduce".into(),
            },
        ];
        for i in 0..extra {
            segments.push(Segment::Kernel {
                profile: KernelProfile::uniform("k_small", 5e4, 60.0 + i as f64, 16.0),
                dispatch: 1e-5,
            });
        }
        RankTrace {
            segments,
            ..RankTrace::default()
        }
    };
    let node_a = vec![rank(1.0, 1), rank(1.4, 2)];
    let node_b = vec![rank(0.9, 3), rank(1.8, 0)];
    let meta = RecordMeta {
        label: "checkpoint restart".into(),
        total_ranks: 4,
        ..RecordMeta::default()
    };
    RecordedWorkload::capture(vec![node_a, node_b], meta)
}

/// 5 calibrations × 8 GPU counts × the recorded schedule = 40 points.
const GRID: &str = "gpus=1..8;calib=identity,a100,h100,a100-nvlink,slingshot11";

fn sweep_req(id: &str, recording: &Path, out: &Path) -> String {
    format!(
        "{{\"type\":\"sweep\",\"id\":\"{id}\",\"recording\":\"{}\",\"grid\":\"{GRID}\",\"out\":\"{}\"}}\n",
        recording.display(),
        out.display()
    )
}

#[test]
fn killed_and_resumed_sweep_output_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("simd-ckpt-{}", std::process::id()));
    let ckdir = dir.join("ckpt");
    std::fs::create_dir_all(&ckdir).unwrap();
    let rec = dir.join("recording.jsonl");
    std::fs::write(&rec, recording().to_jsonl()).unwrap();
    let out_a = dir.join("uninterrupted.jsonl");
    let out_b = dir.join("resumed.jsonl");
    let ck_args = [
        "--checkpoint-dir",
        ckdir.to_str().unwrap(),
        "--checkpoint-every",
        "8",
    ];

    // Oracle: the same job, never interrupted.
    let lines = run_simd(
        &[],
        &[("RAYON_NUM_THREADS", "1")],
        &sweep_req("ck", &rec, &out_a),
    );
    let done = event(&lines, "ck", "done");
    assert_eq!(raw_field(done, "points"), "40");
    let oracle = std::fs::read(&out_a).expect("uninterrupted output");

    // Interrupted run: checkpoint every 8 points, with a long post-
    // checkpoint pause so the SIGKILL deterministically lands between
    // the first cursor write and the next chunk.
    let mut child = spawn_simd(
        &ck_args,
        &[
            ("SIMD_SERVE_CHUNK_SLEEP_MS", "2000"),
            ("RAYON_NUM_THREADS", "3"),
        ],
        &dir,
    );
    let mut stdin = child.stdin.take().unwrap();
    writeln!(
        stdin,
        "{}{{\"type\":\"drain\"}}",
        sweep_req("ck", &rec, &out_b)
    )
    .unwrap();
    stdin.flush().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "simd exited before its first checkpoint");
        if line.contains("\"state\":\"checkpoint\"") {
            break;
        }
    }
    child.kill().unwrap();
    child.wait().unwrap();
    drop(stdin);

    let ckpt = ckdir.join("ck.ckpt.jsonl");
    assert!(ckpt.exists(), "killed run must leave its cursor behind");
    assert!(!out_b.exists(), "killed run must not have written output");

    // Restart with --resume: adopts the cursor, finishes the grid. Each
    // worker count resumes from the same cursor.
    let cursor = std::fs::read(&ckpt).unwrap();
    let args: Vec<&str> = ck_args.iter().copied().chain(["--resume"]).collect();
    for threads in ["2", "3", "8"] {
        std::fs::write(&ckpt, &cursor).unwrap();
        std::fs::remove_file(&out_b).ok();
        let lines = run_simd(
            &args,
            &[("RAYON_NUM_THREADS", threads)],
            &sweep_req("ck", &rec, &out_b),
        );
        let running = event(&lines, "ck", "running");
        let resumed: usize = raw_field(running, "resumed").parse().unwrap();
        assert!(
            (8..40).contains(&resumed),
            "expected a partial cursor, resumed {resumed} of 40"
        );
        event(&lines, "ck", "done");

        assert_eq!(
            std::fs::read(&out_b).expect("resumed output"),
            oracle,
            "resumed sweep output diverged from the uninterrupted run at {threads} workers"
        );
        assert!(
            !ckpt.exists(),
            "completed sweep must remove its cursor file"
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_stale_cursor_for_a_different_grid_is_ignored() {
    let dir = std::env::temp_dir().join(format!("simd-stale-{}", std::process::id()));
    let ckdir = dir.join("ckpt");
    std::fs::create_dir_all(&ckdir).unwrap();
    let rec = dir.join("recording.jsonl");
    std::fs::write(&rec, recording().to_jsonl()).unwrap();
    let out_a = dir.join("fresh.jsonl");
    let out_b = dir.join("after-stale.jsonl");
    let ck_args = [
        "--checkpoint-dir",
        ckdir.to_str().unwrap(),
        "--checkpoint-every",
        "8",
    ];

    let lines = run_simd(&[], &[], &sweep_req("job", &rec, &out_a));
    event(&lines, "job", "done");

    // Leave a cursor under the same job id but from a different grid
    // (different sweep digest): a resumed service must refuse to splice
    // it in and start fresh instead.
    let small = run_simd(
        &ck_args,
        &[],
        &format!(
            "{{\"type\":\"sweep\",\"id\":\"job\",\"recording\":\"{}\",\"grid\":\"gpus=1..4;calib=identity\"}}\n",
            rec.display()
        ),
    );
    event(&small, "job", "done");
    let ckpt = ckdir.join("job.ckpt.jsonl");
    // The small sweep completed, removing its cursor; forge a stale one
    // from its output shape instead.
    assert!(!ckpt.exists());
    std::fs::write(
        &ckpt,
        "{\"type\":\"sweep_checkpoint\",\"version\":1,\"digest\":12345,\"total\":40,\"completed\":0}\n",
    )
    .unwrap();

    let args: Vec<&str> = ck_args.iter().copied().chain(["--resume"]).collect();
    let lines = run_simd(&args, &[], &sweep_req("job", &rec, &out_b));
    let running = event(&lines, "job", "running");
    assert_eq!(raw_field(running, "resumed"), "0", "{running}");
    assert_eq!(
        std::fs::read(&out_b).unwrap(),
        std::fs::read(&out_a).unwrap(),
        "a refused cursor must not change the output"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unwritable_checkpoint_fails_its_job_and_the_service_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("simd-unwritable-{}", std::process::id()));
    let ckdir = dir.join("ckpt");
    std::fs::create_dir_all(&ckdir).unwrap();
    let rec = dir.join("recording.jsonl");
    std::fs::write(&rec, recording().to_jsonl()).unwrap();

    let mut child = spawn_simd(&["--checkpoint-dir", ckdir.to_str().unwrap()], &[], &dir);
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    // Once simd answers, it has set up its checkpoint directory; turn
    // that into a regular file, so writing under it fails even as root.
    writeln!(stdin, "{{\"type\":\"stats\"}}").unwrap();
    stdin.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"type\":\"stats\""), "{line}");
    std::fs::remove_dir(&ckdir).unwrap();
    std::fs::write(&ckdir, "not a directory").unwrap();

    let out = dir.join("out.jsonl");
    write!(stdin, "{}", sweep_req("ck", &rec, &out)).unwrap();
    write!(stdin, "{}", submit("golden", &golden_scenario())).unwrap();
    drop(stdin);
    let lines: Vec<String> = reader.lines().map(Result::unwrap).collect();
    assert!(child.wait().unwrap().success(), "{lines:#?}");

    let failed = event(&lines, "ck", "failed");
    assert!(failed.contains("cannot write checkpoint"), "{failed}");
    assert!(!out.exists(), "a failed job writes no output");
    event(&lines, "golden", "done");

    std::fs::remove_dir_all(&dir).unwrap();
}
