//! Determinism for batched serving: the same job set must produce
//! byte-identical per-job results whatever order the jobs arrive in,
//! whatever `RAYON_NUM_THREADS` says, and whether they are batched into
//! one drain or submitted serially — the service-level lift of the
//! engine and sweep determinism suites. Scenario jobs use a pure
//! in-process executor (the real runner's determinism is locked by
//! `engine_determinism` and the e2e golden test); sweep jobs run the
//! real compile-once engine, which is where batching and the thread
//! pool could actually leak.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use accel_sim::{KernelProfile, RankTrace, RecordMeta, RecordedWorkload, Segment, TransferDir};
use scenario::{ProblemSize, Scenario};
use simd_serve::{ScenarioExec, ScenarioOutcome, ServeConfig, Service};

/// Deterministic pure-function executor: outcome depends only on the
/// scenario, never on order, threads, or time.
struct PureExec;

impl ScenarioExec for PureExec {
    fn run_scenario(&mut self, s: &Scenario) -> Result<ScenarioOutcome, String> {
        let base = s.procs_per_node as f64 * 0.03125 + s.gpus as f64 * 0.21875;
        Ok(ScenarioOutcome {
            makespan: base + 0.0078125,
            node_wall: base,
            comm_seconds: 0.0078125,
            transfer_bytes: 1e7 * s.procs_per_node as f64,
            segments: 50 * s.procs_per_node as usize,
        })
    }
}

fn recording(label: &str, skew: f64) -> RecordedWorkload {
    let rank = |f: f64| RankTrace {
        segments: vec![
            Segment::Host {
                seconds: 1e-4 * f,
                label: "serial".into(),
            },
            Segment::Transfer {
                bytes: 3e6 * f,
                dir: TransferDir::HostToDevice,
                label: "accel_data_update_device".into(),
            },
            Segment::Kernel {
                profile: KernelProfile::uniform("k", 8e6, 20.0 * f, 8.0),
                dispatch: 1e-5,
            },
            Segment::Collective {
                seconds: 2e-4,
                bytes: 1e6,
                label: "mpi_allreduce".into(),
            },
        ],
        ..RankTrace::default()
    };
    let meta = RecordMeta {
        label: label.into(),
        total_ranks: 4,
        ..RecordMeta::default()
    };
    RecordedWorkload::capture(
        vec![
            vec![rank(1.0), rank(1.3 * skew)],
            vec![rank(0.8), rank(1.9 * skew)],
        ],
        meta,
    )
}

/// The job set: two scenarios, two sweeps sharing a recording (so the
/// batch coalesces them onto one compiled arena), one sweep on another.
fn job_lines(rec1: &Path, rec2: &Path, out_dir: &Path) -> Vec<(String, String)> {
    let scn = |id: &str, procs: u32, gpus: u32| {
        let mut s = Scenario::new(id, ProblemSize::Medium, 1e-3).with_procs(procs);
        s.gpus = gpus;
        (
            id.to_string(),
            format!(
                "{{\"type\":\"submit\",\"id\":\"{id}\",\"scenario\":{}}}",
                s.to_json_compact()
            ),
        )
    };
    let sweep = |id: &str, rec: &Path, grid: &str, out: Option<PathBuf>| {
        let out = out.map_or(String::new(), |p| format!(",\"out\":\"{}\"", p.display()));
        (
            id.to_string(),
            format!(
                "{{\"type\":\"sweep\",\"id\":\"{id}\",\"recording\":\"{}\",\"grid\":\"{grid}\"{out}}}",
                rec.display()
            ),
        )
    };
    vec![
        scn("scn-a", 4, 2),
        scn("scn-b", 8, 4),
        sweep(
            "swp-1",
            rec1,
            "gpus=1..4;calib=identity,h100",
            Some(out_dir.join("swp-1.jsonl")),
        ),
        sweep(
            "swp-2",
            rec1,
            "gpus=2,8;calib=a100,slingshot11;schedule=fifo",
            None,
        ),
        sweep("swp-3", rec2, "gpus=1,2;calib=identity,a100-nvlink", None),
    ]
}

/// Drop the `"out":<path>` attribute from a done event, so events are
/// comparable across sessions writing to different files.
fn strip_out(line: &str) -> String {
    let Some(i) = line.find(",\"out\":\"") else {
        return line.to_string();
    };
    let bytes = line.as_bytes();
    let mut j = i + 9;
    while j < line.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => break,
            _ => j += 1,
        }
    }
    format!("{}{}", &line[..i], &line[j + 1..])
}

/// Run one service session submitting `order`, then one drain; return
/// each job's `done` event (with the session-specific `out` path
/// stripped) keyed by id, plus the stats line.
fn session(order: &[&(String, String)]) -> (BTreeMap<String, String>, String) {
    let mut svc = Service::new(ServeConfig::default(), PureExec);
    let input: String = order
        .iter()
        .map(|(_, line)| format!("{line}\n"))
        .collect::<String>()
        + "{\"type\":\"drain\"}\n{\"type\":\"stats\"}\n";
    let mut out = Vec::new();
    svc.serve(input.as_bytes(), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let mut done = BTreeMap::new();
    let mut stats = String::new();
    for line in text.lines() {
        if line.contains("\"type\":\"stats\"") {
            stats = line.to_string();
        }
        if !line.contains("\"state\":\"done\"") {
            continue;
        }
        let id = {
            let i = line.find("\"id\":\"").unwrap() + 6;
            line[i..i + line[i..].find('"').unwrap()].to_string()
        };
        done.insert(id, strip_out(line));
    }
    (done, stats)
}

#[test]
fn per_job_results_are_identical_across_arrival_order_threads_and_batching() {
    let dir = std::env::temp_dir().join(format!("simd-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let rec1 = dir.join("rec1.jsonl");
    let rec2 = dir.join("rec2.jsonl");
    std::fs::write(&rec1, recording("det one", 1.0).to_jsonl()).unwrap();
    std::fs::write(&rec2, recording("det two", 1.7).to_jsonl()).unwrap();

    let jobs = job_lines(&rec1, &rec2, &dir);

    // Baseline: serial submission — every job in its own drain, one
    // thread — the least-batched execution possible.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let mut baseline: BTreeMap<String, String> = BTreeMap::new();
    let mut svc = Service::new(ServeConfig::default(), PureExec);
    for (id, line) in &jobs {
        let input = format!("{line}\n{{\"type\":\"drain\"}}\n");
        let mut out = Vec::new();
        svc.serve(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let done = text
            .lines()
            .find(|l| l.contains("\"state\":\"done\""))
            .unwrap_or_else(|| panic!("no done for {id}:\n{text}"));
        baseline.insert(id.clone(), strip_out(done));
    }
    assert_eq!(baseline.len(), jobs.len());
    assert_eq!(
        svc.stats().sweep_compiles,
        3,
        "serial drains cannot coalesce"
    );
    assert_eq!(svc.stats().sweep_jobs_coalesced, 0);
    let swp1_baseline = std::fs::read(dir.join("swp-1.jsonl")).unwrap();

    let orders: [Vec<usize>; 3] = [
        vec![0, 1, 2, 3, 4],
        vec![4, 3, 2, 1, 0],
        vec![2, 0, 4, 1, 3],
    ];
    for threads in ["1", "2", "3", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        for order in &orders {
            std::fs::remove_file(dir.join("swp-1.jsonl")).ok();
            let ordered: Vec<&(String, String)> = order.iter().map(|&i| &jobs[i]).collect();
            let (done, stats) = session(&ordered);
            for (id, expected) in &baseline {
                assert_eq!(
                    done.get(id),
                    Some(expected),
                    "job {id} diverged (threads={threads}, order={order:?})"
                );
            }
            // The two rec1 sweeps shared one compiled arena.
            assert!(
                stats.contains("\"sweep_compiles\":2,\"sweep_jobs_coalesced\":1"),
                "batch must coalesce rec1's sweeps: {stats}"
            );
            assert_eq!(
                std::fs::read(dir.join("swp-1.jsonl")).unwrap(),
                swp1_baseline,
                "sweep output bytes diverged (threads={threads}, order={order:?})"
            );
        }
    }

    std::env::remove_var("RAYON_NUM_THREADS");
    std::fs::remove_dir_all(&dir).unwrap();
}
