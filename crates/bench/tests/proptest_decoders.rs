//! Every decoder of a file the system reads, under hostile input:
//! `Scenario::parse`, `JobRequest::parse`, `RecordedWorkload::parse_jsonl`,
//! `SweepCheckpoint::parse_jsonl` and `span_seconds_from_file`.
//!
//! Inputs are arbitrary bytes, every prefix truncation of golden lines,
//! and single-byte flips and line splices of golden files. Required of
//! every decoder: it returns instead of panicking, every error that
//! carries a line names one inside the input, and every document that
//! decodes re-serializes as a fixed point.
//!
//! The first test is the escape round trip: every character below
//! U+0020, plus `"`, `\`, `/`, U+2028 and U+1F600, through every text
//! field that is written to a file.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use accel_sim::json::{self, JsonError};
use accel_sim::{
    Context, NodeCalib, RankTrace, RecordedWorkload, SchedulePolicyKind, Segment, SweepCheckpoint,
    SweepPoint, TransferDir, WhatifError,
};
use proptest::prelude::*;
use repro_bench::{recorded_workload, run_config, span_seconds_from_file, write_trace, RunConfig};
use scenario::{ImplKind, JobRequest, ProblemSize, Scenario, ScenarioError};

const SCENARIO: &str = include_str!("../../../scenarios/whatif_record.json");
const JOBS: &str = include_str!("../../../scenarios/serve_jobs.ndjson");
const SWEEP: &str = include_str!("golden/sweep_whatif_record.jsonl");

/// Every character below U+0020, then the ones writers most often get
/// wrong.
fn nasty() -> String {
    (0u8..0x20)
        .map(char::from)
        .chain(['"', '\\', '/', '\u{2028}', '\u{1F600}'])
        .collect()
}

fn tiny_scenario(name: &str) -> Scenario {
    let mut s = Scenario::new(name, ProblemSize::Medium, 2e-3)
        .with_kind(ImplKind::OmpTarget)
        .with_procs(4)
        .with_nodes(2);
    s.problem.total_samples = Some(5e9 * (64.0 / 2048.0));
    s.problem.n_det_total = Some(64);
    s.problem.n_obs = Some(2);
    s
}

/// A fresh two-node recording of a tiny run whose label and embedded
/// scenario name are `name`.
fn record(name: &str) -> RecordedWorkload {
    let s = tiny_scenario(name);
    let cfg = RunConfig::from_scenario(&s).expect("valid scenario");
    let out = run_config(&cfg).expect("runs");
    recorded_workload(&cfg, &out, name, Some(&s)).expect("recordable")
}

/// The fresh recording cut down to one rank holding the first segment of
/// each kind: a small valid document that still has every line shape.
fn small_recording() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut w = record("decoders");
        let mut kinds = Vec::new();
        let mut segments = Vec::new();
        for seg in &w.nodes[0][0].segments {
            let kind = std::mem::discriminant(seg);
            if !kinds.contains(&kind) {
                kinds.push(kind);
                segments.push(seg.clone());
            }
        }
        assert_eq!(segments.len(), 5, "every segment kind recorded");
        w.nodes = vec![vec![RankTrace {
            segments,
            peak_device_bytes: w.nodes[0][0].peak_device_bytes,
            ..RankTrace::default()
        }]
        .into()];
        w.to_jsonl()
    })
}

/// A checkpoint whose point lines come from the golden sweep file,
/// errors and Pareto members included.
fn golden_checkpoint() -> String {
    let points: Vec<&str> = SWEEP
        .lines()
        .filter(|l| l.contains("\"type\":\"point\""))
        .step_by(10)
        .collect();
    format!(
        "{{\"type\":\"sweep_checkpoint\",\"version\":1,\"digest\":42,\"total\":60,\"completed\":{}}}\n{}\n",
        points.len(),
        points.join("\n")
    )
}

fn traced_context(label: &str) -> Context {
    let mut ctx = Context::new(NodeCalib::default());
    ctx.push_phase(label);
    ctx.host_compute(label, 0.25);
    ctx.transfer_labeled(1048576.0, TransferDir::HostToDevice, label);
    ctx.pop_phase();
    ctx
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("repro_decoders_{}_{name}", std::process::id()))
}

/// The Chrome and JSONL trace exports of a small traced run.
fn golden_traces() -> &'static [String; 2] {
    static TRACES: OnceLock<[String; 2]> = OnceLock::new();
    TRACES.get_or_init(|| {
        let traces = [traced_context("setup").into_trace()];
        ["json", "jsonl"].map(|ext| {
            let path = temp_path(&format!("golden.{ext}"));
            write_trace(&path, &traces, None).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            text
        })
    })
}

#[test]
fn every_text_field_round_trips_every_escape() {
    let s = nasty();

    // Recording: the meta label (which the run's scenario name becomes),
    // the embedded scenario, and a host-segment label.
    let mut w = record(&s);
    let host = Arc::make_mut(&mut w.nodes[0])[0]
        .segments
        .iter_mut()
        .find_map(|seg| match seg {
            Segment::Host { label, .. } => Some(label),
            _ => None,
        })
        .expect("a host segment");
    *host = s.clone();
    let text = w.to_jsonl();
    for (i, line) in text.lines().enumerate() {
        let owned = json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
        // The owned tree is the borrowed one, copied: escaped strings
        // decode the same either way.
        assert_eq!(owned, json::parse_line(line, 1).unwrap().into_owned());
    }
    let back = RecordedWorkload::parse_jsonl(&text).unwrap();
    assert_eq!(back.meta.label, s);
    assert_eq!(back.nodes[0][0].segments, w.nodes[0][0].segments);
    assert_eq!(
        Scenario::parse(back.meta.scenario.as_deref().unwrap())
            .unwrap()
            .name,
        s
    );
    assert_eq!(back.to_jsonl(), text);

    // A sweep point's error text, through a checkpoint.
    let ck = SweepCheckpoint {
        total: 2,
        digest: 7,
        points: vec![SweepPoint {
            calib: "identity".into(),
            gpus: 1,
            schedule: SchedulePolicyKind::Auto,
            lower_bound: 0.5,
            makespan: None,
            cost: None,
            pruned: false,
            error: Some(s.clone()),
        }],
    };
    let text = ck.to_jsonl();
    assert!(text.lines().all(|l| json::parse(l).is_ok()), "{text}");
    assert_eq!(SweepCheckpoint::parse_jsonl(&text).unwrap(), ck);

    // A trace-export label, in both formats.
    let ctx = traced_context(&s);
    let want = ctx.stats()[&s].seconds;
    let traces = [ctx.into_trace()];
    for ext in ["json", "jsonl"] {
        let path = temp_path(&format!("escapes.{ext}"));
        write_trace(&path, &traces, None).unwrap();
        let got = span_seconds_from_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!((got[&s] - want).abs() < 1e-12, "{ext}: {got:?}");
    }

    // A scenario name, pretty and compact.
    let sc = tiny_scenario(&s);
    for text in [sc.to_json(), sc.to_json_compact()] {
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(back, sc);
        assert_eq!(back.to_json(), sc.to_json());
    }
}

/// Lines a position in `text` can name: 1 through one past its last
/// newline.
fn within(line: usize, text: &str) -> Result<(), String> {
    let last = text.bytes().filter(|&b| b == b'\n').count() + 1;
    prop_assert!((1..=last).contains(&line), "line {line} outside 1..={last}");
    Ok(())
}

fn check_scenario(text: &str) -> Result<(), String> {
    match Scenario::parse(text) {
        Ok(s) => {
            let again = Scenario::parse(&s.to_json()).map_err(|e| e.to_string())?;
            prop_assert_eq!(again.to_json(), s.to_json());
        }
        Err(e) => scenario_error(&e, text)?,
    }
    Ok(())
}

fn scenario_error(e: &ScenarioError, text: &str) -> Result<(), String> {
    match e {
        ScenarioError::Json(e) => within(e.line(), text),
        _ => Ok(()),
    }
}

fn check_job(line: &str) -> Result<(), String> {
    match JobRequest::parse(line) {
        Ok(JobRequest::Submit { scenario, .. }) => check_scenario(&scenario.to_json_compact()),
        Ok(_) => Ok(()),
        Err(e) => scenario_error(&e, line),
    }
}

fn whatif_error(e: WhatifError, text: &str) -> Result<(), String> {
    match e {
        WhatifError::Parse { line, .. } => within(line, text),
        WhatifError::Io(e) => Err(format!("an in-memory decode reported I/O: {e}")),
    }
}

fn check_recording(text: &str) -> Result<(), String> {
    match RecordedWorkload::parse_jsonl(text) {
        Ok(w) => {
            let once = w.to_jsonl();
            let again = RecordedWorkload::parse_jsonl(&once).map_err(|e| e.to_string())?;
            prop_assert_eq!(again.to_jsonl(), once);
            Ok(())
        }
        Err(e) => whatif_error(e, text),
    }
}

fn check_checkpoint(text: &str) -> Result<(), String> {
    match SweepCheckpoint::parse_jsonl(text) {
        Ok(ck) => {
            let once = ck.to_jsonl();
            let again = SweepCheckpoint::parse_jsonl(&once).map_err(|e| e.to_string())?;
            prop_assert_eq!(again.to_jsonl(), once);
            Ok(())
        }
        Err(e) => whatif_error(e, text),
    }
}

fn check_trace(bytes: &[u8], ext: &str) -> Result<(), String> {
    let path = temp_path(&format!("case.{ext}"));
    std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
    let got = span_seconds_from_file(&path);
    std::fs::remove_file(&path).ok();
    if let Err(e) = got {
        // Non-UTF-8 fails in the read, before any line exists.
        if let Some(je) = e.get_ref().and_then(|i| i.downcast_ref::<JsonError>()) {
            within(je.line(), &String::from_utf8_lossy(bytes))?;
        }
    }
    Ok(())
}

/// Run every decoder over one input.
fn check_all(bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    check_scenario(&text)?;
    for line in text.lines() {
        check_job(line)?;
    }
    check_recording(&text)?;
    check_checkpoint(&text)?;
    check_trace(bytes, "json")?;
    check_trace(bytes, "jsonl")
}

/// A decoder check: `Err` names the property the input broke.
type Check = fn(&str) -> Result<(), String>;

/// Every golden document, paired with the decoder that reads it.
fn goldens() -> Vec<(String, Check)> {
    let traces = golden_traces();
    vec![
        (SCENARIO.to_string(), check_scenario as Check),
        (JOBS.to_string(), |t| t.lines().try_for_each(check_job)),
        (small_recording().to_string(), check_recording),
        (golden_checkpoint(), check_checkpoint),
        (traces[0].clone(), |t| check_trace(t.as_bytes(), "json")),
        (traces[1].clone(), |t| check_trace(t.as_bytes(), "jsonl")),
    ]
}

#[test]
fn golden_documents_decode_and_are_fixed_points() {
    for (text, check) in goldens() {
        check(&text).unwrap();
    }
    // The goldens decode, not just fail cleanly.
    Scenario::parse(SCENARIO).unwrap();
    RecordedWorkload::parse_jsonl(small_recording()).unwrap();
    assert_eq!(
        SweepCheckpoint::parse_jsonl(&golden_checkpoint())
            .unwrap()
            .points
            .len(),
        12
    );
}

#[test]
fn every_prefix_of_every_golden_line_fails_cleanly() {
    for (text, check) in goldens() {
        let mut start = 0;
        for line in text.split_inclusive('\n') {
            for cut in (0..=line.len()).filter(|&c| line.is_char_boundary(c)) {
                let truncated = &text[..start + cut];
                check(truncated).unwrap_or_else(|e| panic!("{e}\n{truncated}"));
            }
            start += line.len();
        }
    }
}

#[test]
fn nesting_bombs_fail_cleanly() {
    for open in ["[", "{\"a\":"] {
        let bomb = open.repeat(100_000);
        check_all(bomb.as_bytes()).unwrap();
    }
}

/// Bytes weighted toward JSON's own alphabet, so cases reach past the
/// first token.
const ALPHABET: &[u8] = b"{}[]\":,\\ntrufalse0123456789.eE+-u \n\x01\xc3\xa9";

proptest! {
    #[test]
    fn arbitrary_bytes_fail_cleanly(
        raw in proptest::collection::vec(0u8..=255, 0..160),
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..160),
    ) {
        check_all(&raw)?;
        let json_ish: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
        check_all(&json_ish)?;
    }

    #[test]
    fn byte_flips_of_golden_files_fail_cleanly(
        doc in 0usize..6,
        at in 0usize..1 << 20,
        mask in 1u8..=127,
    ) {
        let (text, check) = goldens().swap_remove(doc);
        let mut bytes = text.into_bytes();
        let at = at % bytes.len();
        bytes[at] ^= mask;
        // Flipping a byte of a multi-byte character can leave invalid
        // UTF-8, which no decoder sees: reading the file rejects it.
        prop_assume!(std::str::from_utf8(&bytes).is_ok());
        let text = String::from_utf8(bytes).unwrap();
        check(&text)?;
    }

    #[test]
    fn line_splices_of_golden_files_fail_cleanly(
        doc in 0usize..6,
        donor in 0usize..6,
        a in 0usize..1 << 20,
        b in 0usize..1 << 20,
        cut_a in 0usize..1 << 20,
        cut_b in 0usize..1 << 20,
    ) {
        let docs = goldens();
        let (text, check) = &docs[doc];
        let donor: Vec<&str> = docs[donor].0.lines().collect();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let (a, b) = (a % lines.len(), b % donor.len());
        // Splice the head of line `a` onto the tail of a donor line,
        // both cut at a character boundary.
        let head = &lines[a];
        let cut_a = (0..=cut_a % (head.len() + 1)).rev().find(|&c| head.is_char_boundary(c)).unwrap_or(0);
        let tail = donor[b];
        let cut_b = (0..=cut_b % (tail.len() + 1)).rev().find(|&c| tail.is_char_boundary(c)).unwrap_or(0);
        lines[a] = format!("{}{}", &head[..cut_a], &tail[cut_b..]);
        check(&lines.join("\n"))?;
        // And the donor line dropped in whole, in place of line `a`.
        lines[a] = tail.to_string();
        check(&lines.join("\n"))?;
    }
}
