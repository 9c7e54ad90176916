//! Trace export: Chrome trace-event JSON or JSONL, selected by extension.
//!
//! The `fig*` binaries take `--trace-out <path>`; a `.jsonl` path writes
//! one JSON object per line (easy to grep and post-process), anything
//! else writes the Chrome trace-event array format loadable in
//! `chrome://tracing` / Perfetto. Virtual per-rank spans go under pid 0,
//! the contention-resolved node timeline under pid 1, and per-GPU
//! occupancy as counter events under pid 2.
//!
//! Both formats are written and read through the workspace's one JSON
//! codec ([`accel_sim::json`]). The module also reads its own output
//! back ([`span_seconds_from_file`]) so tests can prove the export
//! round-trips: summed per-label durations of the timed spans equal the
//! simulator's per-label `LabelStats::seconds`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::fs;
use std::io;
use std::path::Path;

use accel_sim::json::{self, Esc, Fields, JsonError, Node};
use accel_sim::{NodeTimeline, RankTrace, TimelineKind};

/// On-disk trace flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON array (`chrome://tracing`, Perfetto).
    Chrome,
    /// One JSON object per line.
    Jsonl,
}

impl TraceFormat {
    /// Pick the format from a path's extension: `.jsonl` selects
    /// [`TraceFormat::Jsonl`], everything else the Chrome format.
    pub fn from_path(path: &Path) -> Self {
        match path.extension().and_then(|e| e.to_str()) {
            Some("jsonl") => TraceFormat::Jsonl,
            _ => TraceFormat::Chrome,
        }
    }
}

fn secs_to_us(s: f64) -> f64 {
    s * 1e6
}

/// Render the trace in `format`.
pub fn render_trace(
    traces: &[RankTrace],
    timeline: Option<&NodeTimeline>,
    format: TraceFormat,
) -> String {
    match format {
        TraceFormat::Chrome => render_chrome(traces, timeline),
        TraceFormat::Jsonl => render_jsonl(traces, timeline),
    }
}

fn render_chrome(traces: &[RankTrace], timeline: Option<&NodeTimeline>) -> String {
    json::write_string(|out| {
        out.write_str("[\n")?;
        write_chrome_events(traces, timeline, out)?;
        out.write_str("\n]\n")
    })
}

/// The Chrome events, one per line, separated by `,\n`.
fn write_chrome_events(
    traces: &[RankTrace],
    timeline: Option<&NodeTimeline>,
    out: &mut String,
) -> fmt::Result {
    let mut sep = "";
    for (rank, trace) in traces.iter().enumerate() {
        for e in &trace.events {
            write!(
                out,
                r#"{sep}{{"name":"{}","cat":"{}","#,
                Esc(&e.label),
                e.kind.name()
            )?;
            if e.dur > 0.0 || e.kind.is_timed() {
                write!(out, r#""ph":"X","dur":{}"#, secs_to_us(e.dur))?;
            } else {
                out.write_str(r#""ph":"i","s":"t""#)?;
            }
            write!(
                out,
                r#","ts":{},"pid":0,"tid":{rank},"args":{{"scope":"{}","bytes":{}}}}}"#,
                secs_to_us(e.start),
                Esc(&e.scope),
                e.bytes,
            )?;
            sep = ",\n";
        }
    }
    if let Some(tl) = timeline {
        for e in &tl.events {
            write!(
                out,
                r#"{sep}{{"name":"{}","cat":"{}","#,
                Esc(&e.label),
                e.kind.name()
            )?;
            if e.kind == TimelineKind::ContextSwitch {
                out.write_str(r#""ph":"i","s":"t""#)?;
            } else {
                write!(out, r#""ph":"X","dur":{}"#, secs_to_us(e.end - e.start))?;
            }
            write!(
                out,
                r#","ts":{},"pid":1,"tid":{},"args":{{"gpu":{}}}}}"#,
                secs_to_us(e.start),
                e.rank,
                Gpu(e.gpu),
            )?;
            sep = ",\n";
        }
        for s in &tl.occupancy {
            write!(
                out,
                r#"{sep}{{"name":"gpu{} occupancy","ph":"C","ts":{},"pid":2,"tid":0,"args":{{"load":{}}}}}"#,
                s.gpu,
                secs_to_us(s.t),
                s.load,
            )?;
            sep = ",\n";
        }
    }
    Ok(())
}

fn render_jsonl(traces: &[RankTrace], timeline: Option<&NodeTimeline>) -> String {
    json::write_string(|out| write_jsonl_records(traces, timeline, out))
}

fn write_jsonl_records(
    traces: &[RankTrace],
    timeline: Option<&NodeTimeline>,
    out: &mut String,
) -> fmt::Result {
    for (rank, trace) in traces.iter().enumerate() {
        for e in &trace.events {
            writeln!(
                out,
                r#"{{"type":"span","rank":{rank},"kind":"{}","label":"{}","scope":"{}","start":{},"dur":{},"bytes":{}}}"#,
                e.kind.name(),
                Esc(&e.label),
                Esc(&e.scope),
                e.start,
                e.dur,
                e.bytes,
            )?;
        }
    }
    if let Some(tl) = timeline {
        for e in &tl.events {
            writeln!(
                out,
                r#"{{"type":"timeline","rank":{},"gpu":{},"kind":"{}","label":"{}","start":{},"end":{}}}"#,
                e.rank,
                Gpu(e.gpu),
                e.kind.name(),
                Esc(&e.label),
                e.start,
                e.end,
            )?;
        }
        for s in &tl.occupancy {
            writeln!(
                out,
                r#"{{"type":"occupancy","gpu":{},"t":{},"load":{}}}"#,
                s.gpu, s.t, s.load,
            )?;
        }
    }
    Ok(())
}

/// A timeline event's GPU, or `null` for host-side events.
struct Gpu(Option<usize>);

impl fmt::Display for Gpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(g) => write!(f, "{g}"),
            None => f.write_str("null"),
        }
    }
}

/// Write the trace to `path`, format chosen from the extension.
pub fn write_trace(
    path: &Path,
    traces: &[RankTrace],
    timeline: Option<&NodeTimeline>,
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    fs::write(
        path,
        render_trace(traces, timeline, TraceFormat::from_path(path)),
    )
}

const TIMED_KINDS: [&str; 5] = ["host", "kernel", "transfer", "alloc", "collective"];

/// Parse a written trace back into summed per-label seconds over the
/// timed virtual-rank spans — the round-trip check against
/// `Context::stats()`. The format follows the extension, as in
/// [`write_trace`]. A malformed file is an [`io::ErrorKind::InvalidData`]
/// error whose inner [`JsonError`] names the line.
pub fn span_seconds_from_file(path: &Path) -> io::Result<BTreeMap<String, f64>> {
    let text = fs::read_to_string(path)?;
    let chrome = TraceFormat::from_path(path) == TraceFormat::Chrome;
    span_seconds(&text, chrome).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn span_seconds(text: &str, chrome: bool) -> Result<BTreeMap<String, f64>, JsonError> {
    // Every record with the line it starts on; a Chrome event's line is
    // that of its first key.
    let records: Vec<(Node<'_>, usize)> = if chrome {
        let Node::Arr(events) = json::parse_line(text, 1)? else {
            return Err(JsonError::Malformed {
                line: 1,
                msg: "a Chrome trace must be a JSON array".into(),
            });
        };
        events
            .into_iter()
            .map(|e| {
                let line = match &e {
                    Node::Obj(kv) => kv.first().map_or(1, |k| k.2),
                    _ => 1,
                };
                (e, line)
            })
            .collect()
    } else {
        let lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        lines
            .map(|(i, l)| json::parse_line(l, i + 1).map(|v| (v, i + 1)))
            .collect::<Result<_, _>>()?
    };
    let mut out = BTreeMap::new();
    for (v, line) in records {
        let mut f = Fields::of(v, "trace record", line)?;
        let (label, kind, seconds) = if chrome {
            // Complete events on the virtual-rank track, in µs.
            if f.int::<u64>("pid")? != 0 || f.str_ref("ph")? != "X" {
                continue;
            }
            (f.str("name")?, f.str_ref("cat")?, f.f64("dur")? / 1e6)
        } else {
            if f.str_ref("type")? != "span" {
                continue;
            }
            (f.str("label")?, f.str_ref("kind")?, f.f64("dur")?)
        };
        if TIMED_KINDS.contains(&&*kind) {
            *out.entry(label).or_insert(0.0) += seconds;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{Context, NodeCalib};

    fn traced_context() -> Context {
        let mut ctx = Context::new(NodeCalib::default());
        ctx.push_phase("test");
        ctx.host_compute("setup", 0.25);
        ctx.transfer_labeled(1048576.0, accel_sim::TransferDir::HostToDevice, "upload");
        ctx.pop_phase();
        ctx
    }

    #[test]
    fn format_follows_extension() {
        assert_eq!(
            TraceFormat::from_path(Path::new("a/b.jsonl")),
            TraceFormat::Jsonl
        );
        assert_eq!(
            TraceFormat::from_path(Path::new("a/b.json")),
            TraceFormat::Chrome
        );
        assert_eq!(
            TraceFormat::from_path(Path::new("trace")),
            TraceFormat::Chrome
        );
    }

    #[test]
    fn both_formats_round_trip_per_label_seconds() {
        let ctx = traced_context();
        let stats: BTreeMap<String, f64> = ctx
            .stats()
            .iter()
            .map(|(k, v)| (k.clone(), v.seconds))
            .collect();
        let traces = vec![ctx.into_trace()];

        for name in ["roundtrip.json", "roundtrip.jsonl"] {
            let path = std::env::temp_dir().join(format!("repro_bench_{name}"));
            write_trace(&path, &traces, None).unwrap();
            let parsed = span_seconds_from_file(&path).unwrap();
            for (label, secs) in &stats {
                let got = parsed.get(label).copied().unwrap_or(0.0);
                assert!(
                    (got - secs).abs() < 1e-9 * secs.max(1.0),
                    "{name} {label}: {got} vs {secs}"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn chrome_output_is_a_json_array_with_phase_events() {
        let ctx = traced_context();
        let out = render_chrome(&[ctx.into_trace()], None);
        assert!(out.starts_with("[\n"));
        assert!(out.trim_end().ends_with(']'));
        assert!(out.contains(r#""cat":"phase""#));
        assert!(out.contains(r#""name":"setup""#));
    }

    #[test]
    fn malformed_trace_files_name_their_line() {
        for (text, chrome, line) in [
            ("{\"type\":\"span\"}\n\n{\"type\":", false, 3),
            (
                "{\"type\":\"span\",\"kind\":\"host\",\"label\":\"a\",\"dur\":\"x\"}",
                false,
                1,
            ),
            ("[\n{\"pid\":0},\n{\"pid\":0,\"ph\":\"X\"}\n]", true, 2),
            ("{}", true, 1),
        ] {
            let e = span_seconds(text, chrome).unwrap_err();
            assert_eq!(e.line(), line, "{text}: {e}");
        }
    }
}
