//! The service loop: bounded queue, simlint admission, batch draining
//! through the compile-once sweep engine, checkpointed long sweeps.
//!
//! Everything an event line carries is a deterministic function of the
//! submitted jobs — wall-clock quantities (busy seconds, events/sec)
//! appear only in the `stats` response, never in per-job status events,
//! which is what lets the determinism suite compare event bytes across
//! arrival orders and thread counts.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use accel_sim::json::{self, Esc, Node, Num, OptNum};
use accel_sim::{
    check_workload, sweep_digest_from, workload_digest, CompiledSweep, RecordedWorkload, Report,
    SweepCheckpoint, SweepPoint, SweepSpec,
};
use scenario::{check_scenario, JobRequest, Scenario};

/// Typed backpressure error: the bounded queue is at capacity. Carried
/// on the `rejected` event (`"reason":"queue_full"`) so clients can
/// distinguish "slow down" from "your job is broken".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Jobs currently queued.
    pub depth: usize,
    /// The admission bound they hit.
    pub bound: usize,
}

impl fmt::Display for QueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queue full: {} jobs queued at bound {}; drain before submitting more",
            self.depth, self.bound
        )
    }
}

impl std::error::Error for QueueFull {}

/// Longest request line [`Service::serve`] reads, in bytes.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission bound on queued (not yet drained) jobs.
    pub queue_bound: usize,
    /// Directory for sweep checkpoint cursors; `None` disables them.
    pub checkpoint_dir: Option<PathBuf>,
    /// Grid points evaluated between checkpoints.
    pub checkpoint_every: usize,
    /// Adopt digest-matching checkpoint cursors left by a killed
    /// process; a stale or foreign cursor is ignored, never spliced in.
    pub resume: bool,
    /// Test hook: sleep this long after each non-final checkpoint, so
    /// kill-at-a-checkpoint tests have a deterministic window to land
    /// in. `0` (the default) disables it.
    pub chunk_sleep_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_bound: 16,
            checkpoint_dir: None,
            checkpoint_every: 8,
            resume: false,
            chunk_sleep_ms: 0,
        }
    }
}

/// What executing one scenario produced — the `done` event's payload.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Total simulated runtime (node wall + communication): the same
    /// quantity the standalone `repro-bench --scenario` run reports, bit
    /// for bit.
    pub makespan: f64,
    /// Simulated node wall seconds.
    pub node_wall: f64,
    /// Collective communication seconds.
    pub comm_seconds: f64,
    /// Bytes moved over PCIe, summed over ranks.
    pub transfer_bytes: f64,
    /// Trace segments replayed — the throughput counter's unit.
    pub segments: usize,
}

/// How scenario jobs execute. The engine lives below this crate but the
/// full runner (problem construction, kernel ports) lives above it in
/// `repro-bench`, so the service takes its executor by trait: the `simd`
/// binary injects the real runner, tests inject stubs.
pub trait ScenarioExec {
    /// Run one admitted scenario. `Err` is a job failure (typed engine
    /// error text), not a service failure.
    fn run_scenario(&mut self, scenario: &Scenario) -> Result<ScenarioOutcome, String>;
}

/// Service counters, exposed by the `stats` request.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests carrying a job id (including ones later rejected).
    pub submitted: u64,
    /// Jobs that passed admission and were queued.
    pub admitted: u64,
    /// Jobs refused with error-severity simlint findings.
    pub rejected_lint: u64,
    /// Jobs refused because their payload would not parse or load.
    pub rejected_invalid: u64,
    /// Jobs refused by [`QueueFull`] backpressure.
    pub rejected_queue_full: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Admitted jobs whose execution failed (typed engine errors).
    pub failed: u64,
    /// Drains that processed at least one job.
    pub batches: u64,
    /// Largest batch drained.
    pub max_batch: u64,
    /// Distinct recordings compiled across all batches.
    pub sweep_compiles: u64,
    /// Sweep jobs that reused a batch-mate's compiled arena.
    pub sweep_jobs_coalesced: u64,
    /// Grid points replayed across all sweep jobs.
    pub points_evaluated: u64,
    /// Trace segments replayed across all jobs (the events/sec unit).
    pub segments_replayed: u64,
    /// Wall-clock seconds spent draining batches.
    pub busy_seconds: f64,
}

impl ServeStats {
    /// Total rejections, every reason.
    pub fn rejected(&self) -> u64 {
        self.rejected_lint + self.rejected_invalid + self.rejected_queue_full
    }

    /// Replayed segments per busy second (0 before any work ran).
    pub fn events_per_sec(&self) -> f64 {
        if self.busy_seconds > 0.0 {
            self.segments_replayed as f64 / self.busy_seconds
        } else {
            0.0
        }
    }

    /// Emit the `stats` response line.
    pub fn write_json<W: Write>(
        &self,
        w: &mut W,
        queue_depth: usize,
        bound: usize,
    ) -> io::Result<()> {
        emit(
            w,
            format_args!(
                concat!(
                    "{{\"type\":\"stats\",\"queue_depth\":{},\"bound\":{},\"submitted\":{},",
                    "\"admitted\":{},\"rejected\":{},\"rejected_lint\":{},",
                    "\"rejected_invalid\":{},\"rejected_queue_full\":{},\"completed\":{},",
                    "\"failed\":{},\"batches\":{},\"max_batch\":{},\"sweep_compiles\":{},",
                    "\"sweep_jobs_coalesced\":{},\"points_evaluated\":{},",
                    "\"segments_replayed\":{},\"busy_seconds\":{},\"events_per_sec\":{}}}"
                ),
                queue_depth,
                bound,
                self.submitted,
                self.admitted,
                self.rejected(),
                self.rejected_lint,
                self.rejected_invalid,
                self.rejected_queue_full,
                self.completed,
                self.failed,
                self.batches,
                self.max_batch,
                self.sweep_compiles,
                self.sweep_jobs_coalesced,
                self.points_evaluated,
                self.segments_replayed,
                Num(self.busy_seconds),
                Num(self.events_per_sec()),
            ),
        )
    }
}

/// What [`Service::handle_line`] tells the transport loop to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep reading requests.
    Continue,
    /// The client asked for shutdown; stop serving.
    Shutdown,
}

/// An admitted job waiting in the queue.
enum Job {
    Scenario { id: String, scenario: Box<Scenario> },
    Sweep(Box<SweepJob>),
}

struct SweepJob {
    id: String,
    workload: RecordedWorkload,
    spec: SweepSpec,
    out: Option<String>,
    /// [`accel_sim::sweep_digest`] of (workload, spec) — the checkpoint guard.
    digest: u64,
    /// [`workload_digest`] alone — the batch-coalescing key.
    wdigest: u64,
}

/// The service: a bounded queue of admitted jobs plus counters. Generic
/// over the scenario executor and the transport (any `BufRead`/`Write`
/// pair), so tests drive it in-process and the binary over pipes or a
/// socket.
pub struct Service<E> {
    cfg: ServeConfig,
    exec: E,
    queue: VecDeque<Job>,
    stats: ServeStats,
}

impl<E: ScenarioExec> Service<E> {
    pub fn new(cfg: ServeConfig, exec: E) -> Self {
        Service {
            cfg,
            exec,
            queue: VecDeque::new(),
            stats: ServeStats::default(),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Jobs queued and not yet drained.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Serve one connection: read request lines, stream event lines
    /// (each flushed, so clients can follow progress live). Returns
    /// `true` when the client requested shutdown — socket servers stop
    /// accepting — and `false` on EOF, after draining whatever was
    /// admitted (closing the pipe never drops accepted work).
    /// A line longer than [`MAX_LINE_BYTES`] or not valid UTF-8 gets an
    /// `error` event and the connection keeps serving; the long line's
    /// excess is skipped, never buffered.
    pub fn serve<R: BufRead, W: Write>(&mut self, mut reader: R, w: W) -> io::Result<bool> {
        // Events are written field by field; the buffer hands each line
        // to the transport in one piece when `emit` flushes it.
        let mut w = io::BufWriter::new(w);
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let cap = MAX_LINE_BYTES as u64 + 1;
            let n = (&mut reader).take(cap).read_until(b'\n', &mut buf)?;
            let line = if n == 0 {
                break;
            } else if n > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
                reader.skip_until(b'\n')?;
                Err(format!("request line exceeds {MAX_LINE_BYTES} bytes"))
            } else {
                std::str::from_utf8(&buf)
                    .map_err(|e| format!("request line is not valid UTF-8: {e}"))
            };
            match line.map(str::trim_end) {
                Err(e) => error_event(&mut w, &e)?,
                Ok("") => {}
                Ok(line) => {
                    if self.handle_line(line, &mut w)? == Flow::Shutdown {
                        return Ok(true);
                    }
                }
            }
        }
        self.drain(&mut w)?;
        Ok(false)
    }

    /// Process one request line.
    pub fn handle_line<W: Write>(&mut self, line: &str, w: &mut W) -> io::Result<Flow> {
        let req = match JobRequest::parse(line) {
            Ok(req) => req,
            Err(e) => {
                // A line that names an id before it goes wrong keeps the
                // queued → rejected state machine; anything else gets a
                // bare protocol error.
                if let Some(id) = request_id(line) {
                    self.stats.submitted += 1;
                    self.stats.rejected_invalid += 1;
                    status(w, &id, "queued", format_args!(""))?;
                    status(
                        w,
                        &id,
                        "rejected",
                        format_args!(
                            ",\"reason\":\"invalid\",\"error\":\"{}\"",
                            Esc(&e.to_string())
                        ),
                    )?;
                } else {
                    error_event(w, &e.to_string())?;
                }
                return Ok(Flow::Continue);
            }
        };
        match req {
            JobRequest::Submit { id, scenario } => {
                self.stats.submitted += 1;
                self.admit_scenario(id, scenario, w)?;
            }
            JobRequest::Sweep {
                id,
                recording,
                grid,
                deadline,
                out,
            } => {
                self.stats.submitted += 1;
                self.admit_sweep(id, recording, grid, deadline, out, w)?;
            }
            JobRequest::Stats => {
                self.stats
                    .write_json(w, self.queue.len(), self.cfg.queue_bound)?;
            }
            JobRequest::Drain => self.drain(w)?,
            JobRequest::Shutdown => {
                self.drain(w)?;
                emit(w, format_args!("{{\"type\":\"bye\"}}"))?;
                return Ok(Flow::Shutdown);
            }
        }
        Ok(Flow::Continue)
    }

    /// The backpressure gate, checked before any (possibly expensive)
    /// payload analysis.
    fn check_depth(&self) -> Result<(), QueueFull> {
        if self.queue.len() >= self.cfg.queue_bound {
            return Err(QueueFull {
                depth: self.queue.len(),
                bound: self.cfg.queue_bound,
            });
        }
        Ok(())
    }

    fn reject_queue_full<W: Write>(
        &mut self,
        id: &str,
        qf: QueueFull,
        w: &mut W,
    ) -> io::Result<()> {
        self.stats.rejected_queue_full += 1;
        status(
            w,
            id,
            "rejected",
            format_args!(
                ",\"reason\":\"queue_full\",\"queue_depth\":{},\"bound\":{},\"error\":\"{}\"",
                qf.depth,
                qf.bound,
                Esc(&qf.to_string())
            ),
        )
    }

    fn reject_invalid<W: Write>(&mut self, id: &str, error: &str, w: &mut W) -> io::Result<()> {
        self.stats.rejected_invalid += 1;
        status(
            w,
            id,
            "rejected",
            format_args!(",\"reason\":\"invalid\",\"error\":\"{}\"", Esc(error)),
        )
    }

    /// Lint rejection: the event carries every diagnostic verbatim
    /// (code, severity, locus, message, suggestion) — for error-severity
    /// barrier/residency findings the message is the exact engine error
    /// a replay would have produced.
    fn reject_lint<W: Write>(&mut self, id: &str, report: &Report, w: &mut W) -> io::Result<()> {
        self.stats.rejected_lint += 1;
        status(
            w,
            id,
            "rejected",
            format_args!(",\"reason\":\"lint\",\"diagnostics\":[{}]", Diags(report)),
        )
    }

    fn admit_scenario<W: Write>(
        &mut self,
        id: String,
        scenario: Box<Scenario>,
        w: &mut W,
    ) -> io::Result<()> {
        status(w, &id, "queued", format_args!(""))?;
        if let Err(qf) = self.check_depth() {
            return self.reject_queue_full(&id, qf, w);
        }
        let report = check_scenario(&scenario);
        if !report.is_clean() {
            return self.reject_lint(&id, &report, w);
        }
        self.stats.admitted += 1;
        status(
            w,
            &id,
            "admitted",
            format_args!(
                ",\"job\":\"scenario\",\"warnings\":{}",
                report.warnings().count()
            ),
        )?;
        self.queue.push_back(Job::Scenario { id, scenario });
        Ok(())
    }

    fn admit_sweep<W: Write>(
        &mut self,
        id: String,
        recording: String,
        grid: Option<String>,
        deadline: Option<f64>,
        out: Option<String>,
        w: &mut W,
    ) -> io::Result<()> {
        status(w, &id, "queued", format_args!(""))?;
        if let Err(qf) = self.check_depth() {
            return self.reject_queue_full(&id, qf, w);
        }
        let workload = match RecordedWorkload::read(Path::new(&recording)) {
            Ok(wl) => wl,
            Err(e) => return self.reject_invalid(&id, &format!("recording '{recording}': {e}"), w),
        };
        let mut spec = match SweepSpec::parse_grid(grid.as_deref().unwrap_or(""), &workload.meta) {
            Ok(s) => s,
            Err(e) => return self.reject_invalid(&id, &format!("grid: {e}"), w),
        };
        if deadline.is_some() {
            spec.deadline = deadline;
        }
        let report = check_workload(&workload);
        if !report.is_clean() {
            return self.reject_lint(&id, &report, w);
        }
        self.stats.admitted += 1;
        status(
            w,
            &id,
            "admitted",
            format_args!(
                ",\"job\":\"sweep\",\"points\":{},\"warnings\":{}",
                spec.point_count(),
                report.warnings().count()
            ),
        )?;
        let wdigest = workload_digest(&workload);
        let digest = sweep_digest_from(wdigest, &spec);
        self.queue.push_back(Job::Sweep(Box::new(SweepJob {
            id,
            workload,
            spec,
            out,
            digest,
            wdigest,
        })));
        Ok(())
    }

    /// Run every queued job as one batch, FIFO. Sweep jobs sharing a
    /// recording (by content digest) share one compiled arena.
    fn drain<W: Write>(&mut self, w: &mut W) -> io::Result<()> {
        let batch: Vec<Job> = self.queue.drain(..).collect();
        if batch.is_empty() {
            return emit(w, format_args!("{{\"type\":\"drained\",\"jobs\":0}}"));
        }
        self.stats.batches += 1;
        self.stats.max_batch = self.stats.max_batch.max(batch.len() as u64);
        let t0 = Instant::now();
        let mut compiled: Vec<(u64, Result<CompiledSweep<'_>, String>)> = Vec::new();
        for job in &batch {
            match job {
                Job::Scenario { id, scenario } => {
                    status(w, id, "running", format_args!(",\"job\":\"scenario\""))?;
                    match self.exec.run_scenario(scenario) {
                        Ok(o) => {
                            self.stats.completed += 1;
                            self.stats.segments_replayed += o.segments as u64;
                            status(
                                w,
                                id,
                                "done",
                                format_args!(
                                    concat!(
                                        ",\"job\":\"scenario\",\"makespan\":{},",
                                        "\"node_wall\":{},\"comm_seconds\":{},",
                                        "\"transfer_bytes\":{},\"segments\":{}"
                                    ),
                                    Num(o.makespan),
                                    Num(o.node_wall),
                                    Num(o.comm_seconds),
                                    Num(o.transfer_bytes),
                                    o.segments,
                                ),
                            )?;
                        }
                        Err(e) => fail(&mut self.stats, w, id, &e)?,
                    }
                }
                Job::Sweep(sj) => {
                    let idx = match compiled.iter().position(|(d, _)| *d == sj.wdigest) {
                        Some(i) => {
                            self.stats.sweep_jobs_coalesced += 1;
                            i
                        }
                        None => {
                            self.stats.sweep_compiles += 1;
                            compiled.push((
                                sj.wdigest,
                                CompiledSweep::compile(&sj.workload).map_err(|e| e.to_string()),
                            ));
                            compiled.len() - 1
                        }
                    };
                    match &compiled[idx].1 {
                        Ok(cs) => run_sweep_job(&self.cfg, &mut self.stats, cs, sj, w)?,
                        Err(e) => fail(&mut self.stats, w, &sj.id, e)?,
                    }
                }
            }
        }
        self.stats.busy_seconds += t0.elapsed().as_secs_f64();
        emit(
            w,
            format_args!("{{\"type\":\"drained\",\"jobs\":{}}}", batch.len()),
        )
    }
}

/// Execute one admitted sweep job: adopt a digest-matching cursor when
/// resuming, evaluate in `checkpoint_every` chunks, persist the cursor
/// atomically after each, and emit the result. Free function (not a
/// method) so the borrow of the batch-shared `CompiledSweep` stays
/// disjoint from `self`.
fn run_sweep_job<W: Write>(
    cfg: &ServeConfig,
    stats: &mut ServeStats,
    cs: &CompiledSweep<'_>,
    sj: &SweepJob,
    w: &mut W,
) -> io::Result<()> {
    let total = sj.spec.point_count();
    let ckpt_path = cfg
        .checkpoint_dir
        .as_ref()
        .map(|d| d.join(format!("{}.ckpt.jsonl", sanitize(&sj.id))));
    let mut completed: Vec<SweepPoint> = Vec::new();
    if cfg.resume {
        if let Some(path) = &ckpt_path {
            if let Ok(ck) = SweepCheckpoint::read(path) {
                if ck.digest == sj.digest && ck.total == total {
                    completed = ck.points;
                }
            }
        }
    }
    status(
        w,
        &sj.id,
        "running",
        format_args!(
            ",\"job\":\"sweep\",\"total\":{total},\"resumed\":{}",
            completed.len()
        ),
    )?;
    // The checkpoint callback runs inside the sweep, so failures are
    // captured and handled after it ends: a failed checkpoint write fails
    // this job, a failed write to the client ends the service.
    let mut ck_err: Option<String> = None;
    let mut io_err: Option<io::Error> = None;
    let result = {
        let mut on_checkpoint = |pts: &[SweepPoint]| {
            if ck_err.is_some() || io_err.is_some() {
                return;
            }
            if let Some(path) = &ckpt_path {
                let ck = SweepCheckpoint {
                    total,
                    digest: sj.digest,
                    points: pts.to_vec(),
                };
                if let Err(e) = ck.write(path) {
                    ck_err = Some(format!("cannot write checkpoint '{}': {e}", path.display()));
                    return;
                }
            }
            if let Err(e) = status(
                w,
                &sj.id,
                "checkpoint",
                format_args!(",\"completed\":{},\"total\":{total}", pts.len()),
            ) {
                io_err = Some(e);
                return;
            }
            if cfg.chunk_sleep_ms > 0 && pts.len() < total {
                std::thread::sleep(std::time::Duration::from_millis(cfg.chunk_sleep_ms));
            }
        };
        cs.run_resumable(
            &sj.spec,
            &completed,
            cfg.checkpoint_every.max(1),
            &mut on_checkpoint,
        )
    };
    if let Some(e) = io_err {
        return Err(e);
    }
    if let Some(e) = ck_err {
        return fail(stats, w, &sj.id, &e);
    }
    match result {
        Ok(res) => {
            stats.points_evaluated += res.evaluated as u64;
            stats.segments_replayed += (res.compiled_segments * res.evaluated) as u64;
            // The front is sorted by makespan ascending, so its first
            // member is the fastest evaluated point.
            let best = res.pareto.first().and_then(|&i| res.points[i].makespan);
            if let Some(path) = &sj.out {
                if let Err(e) = std::fs::write(path, res.to_jsonl()) {
                    return fail(stats, w, &sj.id, &format!("cannot write '{path}': {e}"));
                }
            }
            // The job is complete; its cursor has served its purpose.
            if let Some(path) = &ckpt_path {
                let _ = std::fs::remove_file(path);
            }
            stats.completed += 1;
            status(
                w,
                &sj.id,
                "done",
                format_args!(
                    concat!(
                        ",\"job\":\"sweep\",\"points\":{},\"evaluated\":{},\"pruned\":{},",
                        "\"pareto\":{},\"best_makespan\":{}{}"
                    ),
                    res.points.len(),
                    res.evaluated,
                    res.pruned,
                    res.pareto.len(),
                    OptNum(best),
                    OutField(sj.out.as_deref()),
                ),
            )
        }
        Err(e) => fail(stats, w, &sj.id, &e.to_string()),
    }
}

/// Count a failed job and emit its `failed` event.
fn fail<W: Write>(stats: &mut ServeStats, w: &mut W, id: &str, error: &str) -> io::Result<()> {
    stats.failed += 1;
    status(
        w,
        id,
        "failed",
        format_args!(",\"error\":\"{}\"", Esc(error)),
    )
}

/// Write one event line and flush — clients follow progress live.
fn emit<W: Write>(w: &mut W, line: fmt::Arguments<'_>) -> io::Result<()> {
    writeln!(w, "{line}")?;
    w.flush()
}

/// A protocol error not tied to any job id.
fn error_event<W: Write>(w: &mut W, error: &str) -> io::Result<()> {
    emit(
        w,
        format_args!("{{\"type\":\"error\",\"error\":\"{}\"}}", Esc(error)),
    )
}

/// A `status` event: the job id and state, then `extra` members.
fn status<W: Write>(w: &mut W, id: &str, state: &str, extra: fmt::Arguments<'_>) -> io::Result<()> {
    emit(
        w,
        format_args!(
            "{{\"type\":\"status\",\"id\":\"{}\",\"state\":\"{state}\"{extra}}}",
            Esc(id)
        ),
    )
}

/// A report's diagnostics as comma-separated JSON objects.
struct Diags<'r>(&'r Report);

impl fmt::Display for Diags<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.0.diagnostics.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            d.write_json(f)?;
        }
        Ok(())
    }
}

/// The `out` member of a sweep's `done` event; nothing without a path.
struct OutField<'p>(Option<&'p str>);

impl fmt::Display for OutField<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(path) => write!(f, ",\"out\":\"{}\"", Esc(path)),
            None => Ok(()),
        }
    }
}

/// The string `id` of a line that failed envelope decoding, read from
/// the members that parse before any JSON error, so a job that names
/// itself still gets addressable status events.
fn request_id(line: &str) -> Option<String> {
    json::leading_members(line)
        .into_iter()
        .find_map(|(key, value, _)| match value {
            Node::Str(id) if key == "id" => Some(id.into_owned()),
            _ => None,
        })
}

/// Checkpoint files are named after job ids; keep them path-safe.
fn sanitize(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::{ImplKind, NetCalib, NodeCalib, ProblemSize};

    /// A stub executor: makespan is a pure function of the scenario, so
    /// event bytes are deterministic without pulling in the real runner.
    struct StubExec;

    impl ScenarioExec for StubExec {
        fn run_scenario(&mut self, s: &Scenario) -> Result<ScenarioOutcome, String> {
            if s.name.contains("explode") {
                return Err(format!("engine error: {} refused", s.name));
            }
            let makespan = s.procs_per_node as f64 * 0.25 + s.gpus as f64;
            Ok(ScenarioOutcome {
                makespan,
                node_wall: makespan - 0.125,
                comm_seconds: 0.125,
                transfer_bytes: 1e6,
                segments: 100 * s.procs_per_node as usize,
            })
        }
    }

    fn svc(bound: usize) -> Service<StubExec> {
        Service::new(
            ServeConfig {
                queue_bound: bound,
                ..ServeConfig::default()
            },
            StubExec,
        )
    }

    fn run(svc: &mut Service<StubExec>, input: &str) -> (bool, Vec<String>) {
        let mut out = Vec::new();
        let shutdown = svc.serve(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        (shutdown, text.lines().map(str::to_string).collect())
    }

    fn submit_line(id: &str, s: &Scenario) -> String {
        format!(
            "{{\"type\":\"submit\",\"id\":\"{id}\",\"scenario\":{}}}",
            s.to_json_compact()
        )
    }

    fn clean_scenario(name: &str) -> Scenario {
        Scenario::new(name, ProblemSize::Medium, 1e-3)
            .with_kind(ImplKind::OmpTarget)
            .with_procs(4)
    }

    /// Valid (parses) but doomed (lints): 64 JIT ranks on one default
    /// device — the framework reservations alone exceed GPU memory
    /// (`S006`, error severity).
    fn doomed_scenario() -> Scenario {
        let mut s = Scenario::new("doomed", ProblemSize::Medium, 1e-3)
            .with_kind(ImplKind::Jit)
            .with_procs(64)
            .with_calib_inline(NodeCalib::default(), NetCalib::default());
        s.gpus = 1;
        s
    }

    #[test]
    fn lifecycle_events_stream_in_order() {
        let mut s = svc(8);
        let (shutdown, lines) = run(
            &mut s,
            &format!(
                "{}\n{{\"type\":\"drain\"}}\n{{\"type\":\"shutdown\"}}\n",
                submit_line("j1", &clean_scenario("ok"))
            ),
        );
        assert!(shutdown);
        let states: Vec<&str> = lines
            .iter()
            .filter(|l| l.contains("\"id\":\"j1\""))
            .map(|l| {
                let i = l.find("\"state\":\"").unwrap() + 9;
                &l[i..i + l[i..].find('"').unwrap()]
            })
            .collect();
        assert_eq!(states, ["queued", "admitted", "running", "done"]);
        assert!(lines
            .iter()
            .any(|l| l.contains("\"type\":\"drained\",\"jobs\":1")));
        assert!(lines.last().unwrap().contains("\"type\":\"bye\""));
        assert_eq!(s.stats().completed, 1);
    }

    #[test]
    fn queue_full_is_a_typed_backpressure_rejection() {
        let mut s = svc(2);
        let input: String = (1..=3)
            .map(|i| submit_line(&format!("q{i}"), &clean_scenario("ok")) + "\n")
            .collect();
        let (_, lines) = run(&mut s, &input);
        let rejected: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"state\":\"rejected\""))
            .collect();
        assert_eq!(rejected.len(), 1);
        assert!(rejected[0].contains("\"id\":\"q3\""));
        assert!(rejected[0].contains("\"reason\":\"queue_full\""));
        assert!(rejected[0].contains("\"queue_depth\":2,\"bound\":2"));
        let qf = QueueFull { depth: 2, bound: 2 };
        assert!(rejected[0].contains(&qf.to_string()));
        // EOF drained the two admitted jobs.
        assert_eq!(s.stats().completed, 2);
        assert_eq!(s.stats().rejected_queue_full, 1);
    }

    #[test]
    fn lint_rejection_carries_the_diagnostics() {
        let doomed = doomed_scenario();
        let oracle = check_scenario(&doomed);
        assert!(!oracle.is_clean(), "fixture must lint dirty");
        let mut s = svc(8);
        let (_, lines) = run(&mut s, &(submit_line("bad", &doomed) + "\n"));
        let rej = lines
            .iter()
            .find(|l| l.contains("\"state\":\"rejected\""))
            .expect("rejected event");
        assert!(rej.contains("\"reason\":\"lint\""));
        for d in oracle.errors() {
            assert!(rej.contains(&d.to_json()), "missing {}", d.to_json());
        }
        assert_eq!(s.stats().rejected_lint, 1);
        assert_eq!(s.stats().admitted, 0);
    }

    #[test]
    fn invalid_payloads_keep_the_state_machine_when_they_name_an_id() {
        let mut s = svc(8);
        let mut bad = clean_scenario("ok");
        bad.procs_per_node = 7; // fails Scenario validation at parse
        let (_, lines) = run(
            &mut s,
            &format!(
                "{}\nnot json at all\n{{\"type\":\"nope\"}}\n",
                submit_line("inv", &bad)
            ),
        );
        let rej = lines
            .iter()
            .find(|l| l.contains("\"id\":\"inv\"") && l.contains("rejected"))
            .expect("rejected event");
        assert!(rej.contains("\"reason\":\"invalid\""));
        assert!(rej.contains("procs"), "{rej}");
        // Anonymous garbage gets bare protocol errors.
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"type\":\"error\""))
                .count(),
            2
        );
        assert_eq!(s.stats().rejected_invalid, 1);
    }

    #[test]
    fn failed_jobs_report_the_executor_error() {
        let mut s = svc(8);
        let (_, lines) = run(
            &mut s,
            &(submit_line("f1", &clean_scenario("explode")) + "\n"),
        );
        let failed = lines
            .iter()
            .find(|l| l.contains("\"state\":\"failed\""))
            .expect("failed event");
        assert!(failed.contains("engine error: explode refused"));
        assert_eq!(s.stats().failed, 1);
        assert_eq!(s.stats().completed, 0);
    }

    #[test]
    fn stats_counts_every_outcome() {
        let mut s = svc(1);
        let input = format!(
            "{}\n{}\n{{\"type\":\"drain\"}}\n{{\"type\":\"stats\"}}\n",
            submit_line("a", &clean_scenario("ok")),
            submit_line("b", &clean_scenario("ok")),
        );
        let (_, lines) = run(&mut s, &input);
        let stats = lines
            .iter()
            .find(|l| l.contains("\"type\":\"stats\""))
            .expect("stats line");
        assert!(stats.contains("\"submitted\":2"));
        assert!(stats.contains("\"admitted\":1"));
        assert!(stats.contains("\"rejected_queue_full\":1"));
        assert!(stats.contains("\"completed\":1"));
        assert!(stats.contains("\"segments_replayed\":400"));
        assert!(stats.contains("\"max_batch\":1"));
    }

    #[test]
    fn rejected_ids_come_from_the_parsed_line_and_sanitize() {
        assert_eq!(
            request_id("{\"id\":\"a b\\\"c\\u0001\",\"x\":"),
            Some("a b\"c\u{1}".into())
        );
        // An id cut off, a non-string id and no id at all name no job.
        assert_eq!(request_id("{\"type\":\"sweep\",\"id\":\"a b"), None);
        assert_eq!(request_id("{\"id\":7}"), None);
        assert_eq!(request_id("{\"type\":\"stats\"}"), None);
        assert_eq!(request_id("not json, \"id\":\"x\""), None);
        assert_eq!(sanitize("job/7:x"), "job_7_x");
    }
}
