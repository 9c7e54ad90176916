//! `serve_jobs`: an in-process `simd_serve::Service` fed sweep jobs.
//!
//! Each cycle submits a fixed batch of narrow sweep jobs over recordings
//! written in set-up, plus four requests that must be refused (malformed
//! line, unknown grid axis, missing recording, one over the queue bound),
//! then `drain` and `stats`. Admission re-reads and re-parses the
//! recording for every job, and checkpoint and `out` files are written
//! beside those reads, so this is where the JSON codec, an admission
//! cache or checkpoint fsync show.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use accel_sim::{check_workload, CompiledSweep, RecordedWorkload, SweepResult, SweepSpec};
use repro_bench::{record_run, RunConfig};
use scenario::json::{self, Value};
use scenario::{JobRequest, Scenario};
use simd_serve::{ScenarioExec, ScenarioOutcome, ServeConfig, Service};

use crate::gen::{Digest, Rng};
use crate::measure::{median, MachineSpeed, Metrics, Outcome, SetupReps, Tracer};
use crate::whatif_sweep::recording_scenarios;

/// Valid sweep jobs per cycle: exactly the default queue bound, so the
/// next valid-looking job is refused as over the bound.
pub const JOBS: usize = 16;
/// Recordings written in set-up: the whatif_record and fig5 shapes.
const RECORDINGS: usize = 2;
/// Recording of job `k`: three in four on the whatif_record shape, one
/// in four on the fig5 shape. Jobs on one recording coalesce onto one
/// compiled arena per drain.
fn job_recording(k: usize) -> usize {
    usize::from(k % 4 == 3)
}
const PRESETS: [&str; 5] = ["a100", "h100", "a100-nvlink", "h100-nvlink", "slingshot11"];
const GPUS: [[u32; 3]; 4] = [[1, 2, 4], [3, 5, 8], [2, 6, 7], [1, 4, 8]];
/// Points per job: 2 calibrations × 3 GPU counts.
pub const JOB_POINTS: usize = 6;
/// Cycles per measured second on the reference machine.
const CYCLES_PER_SECOND: f64 = 0.4;
/// Reference-loop samples between cycles: a cycle takes seconds, where a
/// live or whatif op takes a fraction of one.
const SPEED_SAMPLES_PER_CYCLE: usize = 8;
/// Where recordings, checkpoints and `out` files go, inside the checkout.
const WORK_DIR: &str = ".bench_work/serve_jobs";

/// Remove the work directory, and its parent once empty.
fn clean_up() {
    let _ = std::fs::remove_dir_all(WORK_DIR);
    let _ = std::fs::remove_dir(".bench_work");
}

/// The requests that must be refused, with the `reason` and a fragment of
/// the `error` each refusal must carry. Submitted after jobs 3, 7, 11
/// and 15 of every cycle; the last arrives with the queue full.
const REFUSALS: [(&str, &str, &str); 4] = [
    ("bad", "invalid", ""),
    ("axis", "invalid", "unknown grid axis 'nodes'"),
    ("missing", "invalid", "cannot read workload"),
    (
        "over",
        "queue_full",
        "queue full: 16 jobs queued at bound 16",
    ),
];

pub fn cycle_count(seconds: f64) -> usize {
    ((seconds * CYCLES_PER_SECOND).round() as usize).max(1)
}

/// One generated job: which recording and what grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub recording: usize,
    pub grid: String,
}

/// Recording scenarios and the cycle's job set (the same every cycle).
/// The grids are a fixed list; the seed shuffles them among the jobs on
/// each recording, so every seed runs the same work.
pub fn generate(seed: u64) -> (Vec<Scenario>, Vec<Job>, u64) {
    let mut rng = Rng::new(seed ^ 0x5e7e_0000);
    let mut digest = Digest::default();
    let scenarios = recording_scenarios([rng.problem_seed(), rng.problem_seed()]);
    for s in &scenarios {
        digest.feed(&s.to_json_compact());
    }
    let mut jobs: Vec<Job> = (0..JOBS)
        .map(|k| {
            let gpus: Vec<String> = GPUS[k % GPUS.len()].iter().map(u32::to_string).collect();
            Job {
                recording: job_recording(k),
                grid: format!(
                    "calib=identity,{};gpus={}",
                    PRESETS[k % PRESETS.len()],
                    gpus.join(",")
                ),
            }
        })
        .collect();
    for r in 0..RECORDINGS {
        let slots: Vec<usize> = (0..JOBS).filter(|&k| jobs[k].recording == r).collect();
        let mut grids: Vec<String> = slots.iter().map(|&k| jobs[k].grid.clone()).collect();
        rng.shuffle(&mut grids);
        for (&k, grid) in slots.iter().zip(grids) {
            jobs[k].grid = grid;
        }
    }
    // Every cycle sends these lines with its own cycle number in the ids.
    for (_, line) in cycle_lines(0, &jobs) {
        digest.feed(&line);
    }
    (scenarios, jobs, digest.value())
}

fn recording_path(r: usize) -> String {
    format!("{WORK_DIR}/recording-{r}.jsonl")
}

/// The request lines of cycle `c`, in submit order: `(id, line)`.
fn cycle_lines(c: usize, jobs: &[Job]) -> Vec<(String, String)> {
    let sweep = |id: &str, recording: &str, grid: &str| {
        format!(
            "{{\"type\":\"sweep\",\"id\":\"{id}\",\"recording\":\"{recording}\",\"grid\":\"{grid}\",\"out\":\"{WORK_DIR}/out/{id}.jsonl\"}}"
        )
    };
    let mut lines = Vec::with_capacity(JOBS + REFUSALS.len());
    for (k, job) in jobs.iter().enumerate() {
        let id = format!("c{c}-j{k}");
        lines.push((
            id.clone(),
            sweep(&id, &recording_path(job.recording), &job.grid),
        ));
        if k % 4 == 3 {
            let (tag, _, _) = REFUSALS[k / 4];
            let id = format!("c{c}-{tag}");
            let line = match tag {
                "bad" => format!("{{\"type\":\"sweep\",\"id\":\"{id}\",\"recording\":"),
                "axis" => sweep(&id, &recording_path(0), "gpus=2;nodes=3"),
                "missing" => sweep(&id, &format!("{WORK_DIR}/absent.jsonl"), "gpus=2"),
                _ => sweep(&id, &recording_path(0), &jobs[0].grid),
            };
            lines.push((id, line));
        }
    }
    lines
}

/// The benchmark sends no scenario submits (they route to `run_config`,
/// which `live` measures), so the executor refuses them.
struct NoScenarios;

impl ScenarioExec for NoScenarios {
    fn run_scenario(&mut self, _: &Scenario) -> Result<ScenarioOutcome, String> {
        Err("serve_jobs sends sweep jobs only".into())
    }
}

/// The client's side of the service output: each event line is
/// timestamped as its newline is written. A `checkpoint` event follows
/// the service's write of the job's cursor file, so the client reads
/// that file's size as the event arrives (the file is gone by `done`).
#[derive(Default)]
struct Client {
    pending: Vec<u8>,
    /// Event lines, each with its arrival time and, for a `checkpoint`
    /// event, the size of the cursor file it announced.
    lines: Vec<(Instant, String, Option<io::Result<u64>>)>,
}

/// The cursor file the service writes for job `id` (its ids here need no
/// sanitizing).
fn checkpoint_path(id: &str) -> String {
    format!("{WORK_DIR}/ckpt/{id}.ckpt.jsonl")
}

impl Write for Client {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let at = Instant::now();
            let line = String::from_utf8_lossy(&self.pending[..end]).into_owned();
            self.pending.drain(..=end);
            let cursor = line.contains("\"state\":\"checkpoint\"").then(|| {
                let v = json::parse(&line).map_err(|e| io::Error::other(e.to_string()))?;
                let id = str_of(&v, "id").ok_or_else(|| io::Error::other("no id"))?;
                std::fs::metadata(checkpoint_path(id)).map(|m| m.len())
            });
            self.lines.push((at, line, cursor));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Obj(fields) => fields.iter().find(|(k, _, _)| k == key).map(|(_, v, _)| v),
        _ => None,
    }
}

fn str_of<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    match field(v, key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn num_of(v: &Value, key: &str) -> Option<f64> {
    match field(v, key) {
        Some(Value::Num(n)) => n.parse().ok(),
        _ => None,
    }
}

/// Expected output of one job, from a direct `CompiledSweep::run`.
struct Expected {
    jsonl: String,
    result: SweepResult,
}

struct Prepared {
    service: Service<NoScenarios>,
    client: Client,
    jobs: Vec<Job>,
    digest: u64,
    /// Expected cumulative `stats` counters, updated per drain.
    counters: BTreeMap<&'static str, u64>,
}

fn setup(seed: u64) -> Result<Prepared, String> {
    let (scenarios, jobs, digest) = generate(seed);
    let _ = std::fs::remove_dir_all(WORK_DIR);
    std::fs::create_dir_all(format!("{WORK_DIR}/out")).map_err(|e| e.to_string())?;
    for (r, s) in scenarios.iter().enumerate() {
        let cfg = RunConfig::from_scenario(s).map_err(|e| e.to_string())?;
        let (_, recording) = record_run(&cfg, &s.name, Some(s))?;
        recording
            .write(Path::new(&recording_path(r)))
            .map_err(|e| e.to_string())?;
    }
    let cfg = ServeConfig {
        checkpoint_dir: Some(PathBuf::from(format!("{WORK_DIR}/ckpt"))),
        ..ServeConfig::default()
    };
    std::fs::create_dir_all(format!("{WORK_DIR}/ckpt")).map_err(|e| e.to_string())?;
    let mut service = Service::new(cfg, NoScenarios);
    let mut client = Client::default();
    // Untimed warm-up: one job per recording, drained.
    for r in 0..RECORDINGS {
        let job = jobs.iter().find(|j| j.recording == r).ok_or("no job")?;
        let line = format!(
            "{{\"type\":\"sweep\",\"id\":\"warm-{r}\",\"recording\":\"{}\",\"grid\":\"{}\"}}",
            recording_path(r),
            job.grid
        );
        service
            .handle_line(&line, &mut client)
            .map_err(|e| e.to_string())?;
    }
    service
        .handle_line("{\"type\":\"drain\"}", &mut client)
        .map_err(|e| e.to_string())?;
    client.lines.clear();
    let n = RECORDINGS as u64;
    let counters = BTreeMap::from([
        ("submitted", n),
        ("admitted", n),
        ("rejected_lint", 0),
        ("rejected_invalid", 0),
        ("rejected_queue_full", 0),
        ("completed", n),
        ("failed", 0),
        ("batches", 1),
        ("max_batch", n),
        ("sweep_compiles", n),
        ("sweep_jobs_coalesced", 0),
        ("points_evaluated", n * JOB_POINTS as u64),
    ]);
    Ok(Prepared {
        service,
        client,
        jobs,
        digest,
        counters,
    })
}

fn expected_outputs(jobs: &[Job]) -> Result<Vec<Expected>, String> {
    let recordings = (0..RECORDINGS)
        .map(|r| RecordedWorkload::read(Path::new(&recording_path(r))).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let compiled = recordings
        .iter()
        .map(|w| CompiledSweep::compile(w).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    jobs.iter()
        .map(|job| {
            let w = &recordings[job.recording];
            let spec = SweepSpec::parse_grid(&job.grid, &w.meta)?;
            let result = compiled[job.recording].run(&spec);
            Ok(Expected {
                jsonl: result.to_jsonl(),
                result,
            })
        })
        .collect()
}

/// What one cycle's events said, per request.
#[derive(Default)]
struct CycleLog {
    /// Submit → done latency of each completed job.
    done_latency: Vec<f64>,
    queue_wait: Vec<f64>,
    run: Vec<f64>,
    checkpoint_writes: u64,
    checkpoint_bytes: u64,
    event_bytes: u64,
    coalesce_ratio: f64,
}

/// Check one cycle's events, out files and counters; returns the per-op
/// check results (one per request) and what the events measured.
fn check_cycle(
    c: usize,
    lines: &[(String, String)],
    submitted_at: &[Instant],
    events: &[(Instant, String, Option<io::Result<u64>>)],
    expected: &[Expected],
    counters: &mut BTreeMap<&'static str, u64>,
) -> (Vec<Result<(), String>>, CycleLog) {
    let mut log = CycleLog::default();
    let mut parsed: Vec<(Instant, Value, Option<&io::Result<u64>>)> =
        Vec::with_capacity(events.len());
    for (t, line, cursor) in events {
        match json::parse(line) {
            Ok(v) => {
                if str_of(&v, "type") != Some("stats") {
                    log.event_bytes += line.len() as u64 + 1;
                }
                parsed.push((*t, v, cursor.as_ref()));
            }
            Err(e) => return (vec![Err(format!("cycle {c}: bad event line: {e}"))], log),
        }
    }
    let state_at = |id: &str, state: &str| {
        parsed
            .iter()
            .find(|(_, v, _)| str_of(v, "id") == Some(id) && str_of(v, "state") == Some(state))
            .map(|(t, v, _)| (*t, v))
    };
    let mut results = Vec::with_capacity(lines.len());
    for (i, (id, _)) in lines.iter().enumerate() {
        let sent = submitted_at[i];
        let refusal = REFUSALS
            .iter()
            .find(|(tag, _, _)| id.ends_with(&format!("-{tag}")));
        let result = if let Some(&(_, reason, fragment)) = refusal {
            match state_at(id, "rejected") {
                None => Err(format!("{id}: not refused")),
                Some((_, v)) => {
                    let error = str_of(v, "error").unwrap_or("");
                    if str_of(v, "reason") != Some(reason) || !error.contains(fragment) {
                        Err(format!(
                            "{id}: refused with {:?}: {error}",
                            str_of(v, "reason")
                        ))
                    } else {
                        Ok(())
                    }
                }
            }
        } else {
            let k: usize = id
                .rsplit('j')
                .next()
                .and_then(|k| k.parse().ok())
                .unwrap_or(0);
            (|| {
                let admitted = state_at(id, "admitted").ok_or(format!("{id}: not admitted"))?;
                let running = state_at(id, "running").ok_or(format!("{id}: never ran"))?;
                let (done_t, done) = state_at(id, "done").ok_or(format!("{id}: not done"))?;
                log.done_latency.push((done_t - sent).as_secs_f64());
                log.queue_wait.push((running.0 - admitted.0).as_secs_f64());
                log.run.push((done_t - running.0).as_secs_f64());
                for (_, _, cursor) in parsed.iter().filter(|(_, v, _)| {
                    str_of(v, "id") == Some(id) && str_of(v, "state") == Some("checkpoint")
                }) {
                    let bytes = match cursor {
                        Some(Ok(bytes)) => *bytes,
                        Some(Err(e)) => return Err(format!("{id}: checkpoint cursor: {e}")),
                        None => return Err(format!("{id}: checkpoint event not seen")),
                    };
                    log.checkpoint_writes += 1;
                    log.checkpoint_bytes += bytes;
                }
                let out = str_of(done, "out").ok_or(format!("{id}: done without out"))?;
                let bytes = std::fs::read_to_string(out).map_err(|e| format!("{id}: {e}"))?;
                std::fs::remove_file(out).map_err(|e| format!("{id}: {e}"))?;
                if bytes != expected[k].jsonl {
                    return Err(format!("{id}: out file differs from a direct sweep"));
                }
                Ok(())
            })()
        };
        results.push(result);
    }

    for (name, add) in [
        ("submitted", (JOBS + REFUSALS.len()) as u64),
        ("admitted", JOBS as u64),
        ("rejected_invalid", 3),
        ("rejected_queue_full", 1),
        ("completed", JOBS as u64),
        ("batches", 1),
        ("sweep_compiles", RECORDINGS as u64),
        ("sweep_jobs_coalesced", (JOBS - RECORDINGS) as u64),
        (
            "points_evaluated",
            expected.iter().map(|e| e.result.evaluated as u64).sum(),
        ),
    ] {
        *counters.get_mut(name).expect("known counter") += add;
    }
    counters.insert("max_batch", JOBS as u64);
    let stats = parsed
        .iter()
        .rev()
        .find(|(_, v, _)| str_of(v, "type") == Some("stats"));
    let stats_check = match stats {
        None => Err(format!("cycle {c}: no stats response")),
        Some((_, v, _)) => {
            log.coalesce_ratio = num_of(v, "sweep_jobs_coalesced").unwrap_or(f64::NAN)
                / num_of(v, "admitted").unwrap_or(f64::NAN);
            match counters
                .iter()
                .find(|(name, want)| num_of(v, name) != Some(**want as f64))
            {
                Some((name, want)) => Err(format!(
                    "cycle {c}: stats {name} = {:?}, expected {want}",
                    num_of(v, name)
                )),
                None => Ok(()),
            }
        }
    };
    // The counters are one more check on the cycle's last request.
    if let (Err(e), Some(last)) = (stats_check, results.last_mut()) {
        if last.is_ok() {
            *last = Err(e);
        }
    }
    (results, log)
}

fn setup_error(e: String) -> Outcome {
    clean_up();
    Outcome::setup_failed("serve_jobs", e)
}

/// Per-request layer timings a traced cycle adds.
#[derive(Default)]
struct Layers {
    job_parse: Vec<f64>,
    admit: Vec<f64>,
    read: Vec<f64>,
    check_workload: Vec<f64>,
    reject: Vec<f64>,
    drain: Vec<f64>,
}

/// Drive `cycles` cycles through the service, calling `between(c)`
/// before cycle `c`. With a tracer, each request's layers are also timed
/// standalone around the service call.
fn drive(
    prep: &mut Prepared,
    cycles: usize,
    mut between: impl FnMut(usize),
    mut tr: Option<&mut Tracer>,
) -> Result<(Outcome, Vec<f64>, CycleLog, Layers), String> {
    let expected = expected_outputs(&prep.jobs)?;
    let mut outcome = Outcome::default();
    let mut cycle_s = Vec::with_capacity(cycles);
    let mut total = CycleLog::default();
    let mut layers = Layers::default();
    for c in 0..cycles {
        between(c);
        let lines = cycle_lines(c, &prep.jobs);
        let mut submitted_at = Vec::with_capacity(lines.len());
        let t_cycle = Instant::now();
        for (op, (id, line)) in lines.iter().enumerate() {
            if let Some(tr) = tr.as_deref_mut() {
                let t0 = Instant::now();
                let parsed = JobRequest::parse(line);
                let t1 = Instant::now();
                tr.record("scenario.job_parse", op, None, t0, t1);
                layers.job_parse.push((t1 - t0).as_secs_f64());
                if let Ok(JobRequest::Sweep { recording, .. }) = &parsed {
                    if !id.ends_with("-over") {
                        if let Ok(w) = RecordedWorkload::read(Path::new(recording)) {
                            let t2 = Instant::now();
                            std::hint::black_box(check_workload(&w));
                            let t3 = Instant::now();
                            tr.record("whatif.read", op, None, t1, t2);
                            tr.record("analyze.check_workload", op, None, t2, t3);
                            layers.read.push((t2 - t1).as_secs_f64());
                            layers.check_workload.push((t3 - t2).as_secs_f64());
                        }
                    }
                }
            }
            let t0 = Instant::now();
            submitted_at.push(t0);
            prep.service
                .handle_line(line, &mut prep.client)
                .map_err(|e| e.to_string())?;
            if let Some(tr) = tr.as_deref_mut() {
                let t1 = Instant::now();
                let refused = REFUSALS
                    .iter()
                    .any(|(tag, _, _)| id.ends_with(&format!("-{tag}")));
                let (name, list) = if refused {
                    ("serve.reject", &mut layers.reject)
                } else {
                    ("serve.admit", &mut layers.admit)
                };
                tr.record(name, op, None, t0, t1);
                list.push((t1 - t0).as_secs_f64());
            }
        }
        let t0 = Instant::now();
        prep.service
            .handle_line("{\"type\":\"drain\"}", &mut prep.client)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        prep.service
            .handle_line("{\"type\":\"stats\"}", &mut prep.client)
            .map_err(|e| e.to_string())?;
        cycle_s.push(t_cycle.elapsed().as_secs_f64());
        if let Some(tr) = tr.as_deref_mut() {
            tr.record("serve.drain", c, None, t0, t1);
            layers.drain.push((t1 - t0).as_secs_f64());
        }
        let events = std::mem::take(&mut prep.client.lines);
        let (results, log) = check_cycle(
            c,
            &lines,
            &submitted_at,
            &events,
            &expected,
            &mut prep.counters,
        );
        for r in results {
            outcome.check(r);
        }
        total.done_latency.extend(log.done_latency);
        total.queue_wait.extend(log.queue_wait);
        total.run.extend(log.run);
        total.checkpoint_writes += log.checkpoint_writes;
        total.checkpoint_bytes += log.checkpoint_bytes;
        total.event_bytes += log.event_bytes;
        total.coalesce_ratio = log.coalesce_ratio;
    }
    Ok((outcome, cycle_s, total, layers))
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let cycles = cycle_count(seconds);
    let (mut reps, prep) = SetupReps::first(cycles, || setup(seed));
    let mut prep = match prep {
        Ok(p) => p,
        Err(e) => return setup_error(e),
    };
    // A repeat rewrites the work directory's recordings with the same
    // bytes and drops its own service; the running service is unaffected.
    let mut speed = MachineSpeed::default();
    let driven = drive(
        &mut prep,
        cycles,
        |c| {
            reps.between(c, || setup(seed));
            for _ in 0..SPEED_SAMPLES_PER_CYCLE {
                speed.sample();
            }
        },
        None,
    );
    clean_up();
    let (mut outcome, cycle_s, log, _) = match driven {
        Ok(d) => d,
        Err(e) => return setup_error(e),
    };
    outcome.digest = prep.digest;
    let busy: f64 = cycle_s.iter().sum();
    let throughput = log.done_latency.len() as f64 / busy;
    outcome.metrics = Metrics::end_to_end(reps.median(), throughput, &log.done_latency, &speed);
    outcome
}

/// The traced run.
pub fn trace(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut prep = match setup(seed) {
        Ok(p) => p,
        Err(e) => return setup_error(e),
    };
    // Standalone reads double the admission work of a traced cycle.
    let driven = drive(&mut prep, cycle_count(seconds * 0.6), |_| (), Some(tr));
    clean_up();
    let (mut outcome, cycle_s, log, layers) = match driven {
        Ok(d) => d,
        Err(e) => return setup_error(e),
    };
    outcome.digest = prep.digest;
    let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    let m = &mut outcome.metrics;
    m.put("scenario.job_parse_s", med(&layers.job_parse), "s");
    m.put("serve.admit_s", med(&layers.admit), "s");
    m.put("whatif.read_s", med(&layers.read), "s");
    m.put("analyze.check_workload_s", med(&layers.check_workload), "s");
    m.put("serve.reject_s", med(&layers.reject), "s");
    m.put("serve.queue_wait_s", med(&log.queue_wait), "s");
    m.put("serve.run_s", med(&log.run), "s");
    m.put("serve.drain_s", med(&layers.drain), "s");
    m.put(
        "serve.checkpoint_writes",
        log.checkpoint_writes as f64,
        "count",
    );
    m.put("serve.checkpoint_bytes", log.checkpoint_bytes as f64, "B");
    m.put("serve.coalesce_ratio", log.coalesce_ratio, "ratio");
    m.put("serve.events_out_bytes", log.event_bytes as f64, "B");
    m.put("serve.cycle_s", med(&cycle_s), "s");
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let (sa, ja, da) = generate(21);
        let (sb, jb, db) = generate(21);
        assert_eq!((&sa, &ja, da), (&sb, &jb, db));
        let (_, jc, dc) = generate(22);
        assert_ne!(ja, jc);
        assert_ne!(da, dc);
    }

    #[test]
    fn every_seed_runs_the_same_jobs() {
        let sorted = |seed| {
            let (_, jobs, _) = generate(seed);
            let mut keys: Vec<String> = jobs
                .iter()
                .map(|j| format!("{} {}", j.recording, j.grid))
                .collect();
            keys.sort();
            keys
        };
        assert_eq!(sorted(1), sorted(2));
    }

    #[test]
    fn cycle_has_every_refusal_once_and_the_bound_last() {
        let (_, jobs, _) = generate(1);
        let lines = cycle_lines(0, &jobs);
        assert_eq!(lines.len(), JOBS + REFUSALS.len());
        assert!(lines.last().expect("lines").0.ends_with("-over"));
        for (tag, _, _) in REFUSALS {
            let n = lines
                .iter()
                .filter(|(id, _)| id.ends_with(&format!("-{tag}")))
                .count();
            assert_eq!(n, 1, "{tag}");
        }
        for job in &jobs {
            let (calibs, gpus) = job.grid.split_once(';').expect("two clauses");
            assert_eq!(
                calibs.split(',').count() * gpus.split(',').count(),
                JOB_POINTS,
                "{}",
                job.grid
            );
        }
    }
}
