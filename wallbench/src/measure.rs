//! Timing statistics, the machine-speed reference, the result line, and
//! the in-memory span recorder.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::gen::Rng;

/// Nearest-rank quantile of an unsorted sample (`q` in `(0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[crate::gen::quantile_index(sorted.len(), q)]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Set-up runs this many times per end-to-end run; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 9;

/// The timed set-up repeats of one run. The first runs before any op and
/// its result is kept; the others run between ops at evenly spaced points
/// and their results are dropped. The machine's speed drifts over tens
/// of seconds, so repeats spread over the whole run sample the same
/// stretch of time as the ops, where repeats bunched at the start would
/// sample only its first seconds.
pub struct SetupReps {
    times: Vec<f64>,
    /// Op index before which each later repeat runs, ascending.
    due: Vec<usize>,
}

impl SetupReps {
    /// Time the first set-up of a run of `ops` ops and return its result.
    pub fn first<T>(ops: usize, f: impl FnOnce() -> T) -> (Self, T) {
        let t0 = Instant::now();
        let kept = f();
        let reps = SetupReps {
            times: vec![t0.elapsed().as_secs_f64()],
            due: (1..SETUP_REPS).map(|k| k * ops / SETUP_REPS).collect(),
        };
        (reps, kept)
    }

    /// Before op `i`: time the repeats due there (result dropped).
    pub fn between<T>(&mut self, i: usize, mut f: impl FnMut() -> T) {
        while self.times.len() <= self.due.len() && self.due[self.times.len() - 1] <= i {
            let t0 = Instant::now();
            drop(std::hint::black_box(f()));
            self.times.push(t0.elapsed().as_secs_f64());
        }
    }

    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// Steps of the reference loop's floating-point dependency chain.
const REF_FP_STEPS: usize = 1 << 20;
/// Entries (8 bytes each) of the reference loop's pointer-chase table:
/// 1 MB, resident in L2 but not in L1.
const REF_CHASE_LEN: usize = 1 << 17;
/// Steps of the pointer chase.
const REF_CHASE_STEPS: usize = 1 << 18;
/// Median reference-loop time on the reference machine (the 2-vCPU Xeon
/// VM of `NOTES.md`). End-to-end timings are reported in seconds of a
/// machine that runs the loop this fast.
pub const REF_LOOP_NOMINAL_S: f64 = 0.0055;

/// A fixed loop of the benchmark's own, timed between ops, that tracks
/// how fast the machine runs while the ops do.
///
/// The benchmark shares its cores with other tenants, and their load
/// moves the speed of every instruction stream by tens of percent over
/// minutes (see `NOTES.md`). The loop is half a floating-point dependency
/// chain and half an L2-resident pointer chase, so it slows as the
/// program's kernels and event loop do; op times divided by the run's
/// median loop time, over its nominal, keep a change to the program and
/// cancel a change of machine speed. The program never runs this loop, so
/// no change to the program moves it.
pub struct MachineSpeed {
    chase: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for MachineSpeed {
    fn default() -> Self {
        // One cycle through every entry in a fixed shuffled order, so each
        // step is a dependent load the prefetcher cannot predict.
        let mut order: Vec<usize> = (0..REF_CHASE_LEN).collect();
        Rng::new(1).shuffle(&mut order);
        let mut chase = vec![0u64; REF_CHASE_LEN];
        for (i, &at) in order.iter().enumerate() {
            chase[at] = order[(i + 1) % REF_CHASE_LEN] as u64;
        }
        MachineSpeed {
            chase,
            samples: Vec::new(),
        }
    }
}

impl MachineSpeed {
    /// Time the reference loop once.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let (a, b) = black_box((1.000_000_1_f64, 1e-9_f64));
        let mut x = black_box(1.0_f64);
        for _ in 0..REF_FP_STEPS {
            x = x * a + b;
        }
        let mut at = black_box(0usize);
        for _ in 0..REF_CHASE_STEPS {
            at = self.chase[at] as usize;
        }
        black_box((x, at));
        self.samples.push(t0.elapsed().as_secs_f64());
    }

    /// The run's median loop time over the nominal: above 1 when the
    /// machine ran slower than the reference machine.
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        median(&self.samples) / REF_LOOP_NOMINAL_S
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Accumulates metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The end-to-end block every workload reports: set-up, work per
    /// second, and latency percentiles over `latencies`, every timing
    /// divided by the run's `speed.slowdown()`. The unscaled figures go to
    /// stderr.
    pub fn end_to_end(
        setup_s: f64,
        throughput: f64,
        latencies: &[f64],
        speed: &MachineSpeed,
    ) -> Self {
        let pct = |q| {
            if latencies.is_empty() {
                f64::NAN
            } else {
                quantile(latencies, q)
            }
        };
        let (p50, p90) = (pct(0.5), pct(0.9));
        let slowdown = speed.slowdown();
        eprintln!(
            "wallbench: reference loop {:.6} s median of {} (slowdown {slowdown:.4}); unscaled: \
             setup_s {setup_s:.6}, throughput {throughput:.6}, latency_p50_s {p50:.6}, \
             latency_p90_s {p90:.6}",
            slowdown * REF_LOOP_NOMINAL_S,
            speed.samples.len()
        );
        let mut m = Metrics::default();
        m.put("setup_s", setup_s / slowdown, "s");
        m.put("throughput", throughput * slowdown, "1/s");
        m.put("latency_p50_s", p50 / slowdown, "s");
        m.put("latency_p90_s", p90 / slowdown, "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m
    }
}

/// What one workload run (or traced part) produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Digest of every generated input, for comparing two runs.
    pub digest: u64,
    /// One line per failed output check (empty when every op passed).
    pub errors: Vec<String>,
}

impl Outcome {
    /// A run whose set-up failed: one attempted, failed op and no metrics.
    pub fn setup_failed(workload: &str, e: impl std::fmt::Display) -> Self {
        let mut outcome = Outcome::default();
        outcome.check(Err(format!("{workload} set-up: {e}")));
        outcome
    }

    /// Record an op's output check: a failure counts the op as failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }
}

/// Render the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, values with every digit (shortest round-trip form).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String");
    }
    out.push_str("}}");
    out
}

/// One span: a timed call into a layer, made from the benchmark's side of
/// the boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub op: usize,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Spans kept in memory for the whole traced run and written at the end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, op: usize, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: f64::NAN,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Close a span and return its duration.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed().as_secs_f64();
        let span = &mut self.spans[id];
        span.end = now;
        span.seconds()
    }

    /// Record an already-measured interval as a closed span.
    pub fn record(
        &mut self,
        name: &str,
        op: usize,
        parent: Option<usize>,
        t0: Instant,
        t1: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start: at(t0),
            end: at(t1),
            parent,
            op,
        });
    }

    /// Cost of one open/close pair on this machine, measured on a scratch
    /// recorder: the tracing overhead each recorded span adds.
    pub fn span_cost() -> f64 {
        const N: usize = 10_000;
        let mut scratch = Tracer::default();
        let t0 = Instant::now();
        for i in 0..N {
            let id = scratch.open("cost", i, None);
            scratch.close(id);
        }
        t0.elapsed().as_secs_f64() / N as f64
    }

    /// Self time of span `id`: its duration minus what its children
    /// cover.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::seconds)
            .sum();
        self.spans[id].seconds() - children
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{:?},\"end\":{:?},\"parent\":{parent},\"op\":{},\"self\":{:?}}}",
                s.name,
                s.start,
                s.end,
                s.op,
                self.self_seconds(i)
            )
            .expect("writing to a String");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.25, "s");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn setup_repeats_are_spread_over_the_run() {
        for ops in [1, 10, 200] {
            let (mut reps, ()) = SetupReps::first(ops, || ());
            let mut at = Vec::new();
            for i in 0..ops {
                let before = reps.times.len();
                reps.between(i, || ());
                at.extend(std::iter::repeat_n(i, reps.times.len() - before));
            }
            assert_eq!(reps.times.len(), SETUP_REPS, "{ops} ops");
            let want: Vec<usize> = (1..SETUP_REPS).map(|k| k * ops / SETUP_REPS).collect();
            assert_eq!(at, want, "{ops} ops");
        }
    }

    #[test]
    fn timings_are_scaled_by_the_run_slowdown() {
        let mut speed = MachineSpeed {
            samples: [3.0, 2.0, 100.0].map(|k| k * REF_LOOP_NOMINAL_S).to_vec(),
            ..MachineSpeed::default()
        };
        assert!((speed.slowdown() - 3.0).abs() < 1e-12);
        let m = Metrics::end_to_end(6.0, 10.0, &[0.3, 0.6, 0.9], &speed);
        let value = |name: &str| m.0.iter().find(|x| x.name == name).expect(name).value;
        assert!((value("setup_s") - 2.0).abs() < 1e-12);
        assert!((value("throughput") - 30.0).abs() < 1e-12);
        assert!((value("latency_p50_s") - 0.2).abs() < 1e-12);
        assert!((value("latency_p90_s") - 0.3).abs() < 1e-12);
        speed.sample();
        assert!(speed.samples[3] > 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let t0 = Instant::now();
        let d = std::time::Duration::from_millis;
        t.record("op", 0, None, t0, t0 + d(10));
        t.record("a", 0, Some(0), t0, t0 + d(3));
        t.record("b", 0, Some(0), t0 + d(3), t0 + d(7));
        assert!((t.self_seconds(0) - 0.003).abs() < 1e-9);
    }
}
