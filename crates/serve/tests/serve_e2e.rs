//! End-to-end service tests: a real `simd` process driven over its
//! stdin/stdout pipe protocol, exactly as a shell client would.
//!
//! The three locks, in order: a service-submitted golden scenario
//! reproduces the standalone runner's makespan bit for bit; a known-bad
//! scenario is rejected at admission carrying the exact simlint
//! diagnostics the `lint` binary would print; overfilling the bounded
//! queue yields the typed `queue_full` backpressure rejection, and the
//! overflow costs the admitted jobs nothing. A line of garbage bytes or
//! one past the length cap is a protocol error, not a dropped client. A
//! line that names an id before it goes wrong is rejected under that id;
//! one that names none gets a bare error.

mod common;

use common::{event, golden_scenario, raw_field, run_simd, run_simd_bytes, submit};
use repro_bench::{run_config, runner::RunConfig};
use scenario::{check_scenario, ImplKind, NetCalib, NodeCalib, ProblemSize, Scenario};

#[test]
fn served_golden_scenario_is_bit_identical_to_the_standalone_run() {
    let s = golden_scenario();

    // Oracle: the standalone path every figure binary uses.
    let cfg = RunConfig::from_scenario(&s).expect("config");
    let out = run_config(&cfg).expect("standalone run");
    let node_wall = *out.node_wall.as_ref().expect("fits on device");
    let makespan = node_wall + out.comm_seconds;

    let lines = run_simd(&[], &[], &submit("golden", &s));
    let done = event(&lines, "golden", "done");
    let served: f64 = raw_field(done, "makespan").parse().expect("makespan");
    assert_eq!(
        served.to_bits(),
        makespan.to_bits(),
        "served makespan {served} != standalone {makespan}"
    );
    let served_wall: f64 = raw_field(done, "node_wall").parse().expect("node_wall");
    assert_eq!(served_wall.to_bits(), node_wall.to_bits());
    let segments: usize = raw_field(done, "segments").parse().expect("segments");
    assert_eq!(
        segments,
        out.traces.iter().map(|t| t.segments.len()).sum::<usize>()
    );
}

#[test]
fn doomed_scenario_is_rejected_with_the_exact_simlint_diagnostics() {
    // Parses and validates, but 64 JIT ranks sharing one default device
    // provably cannot reserve their framework memory (S006, error).
    let mut doomed = Scenario::new("doomed", ProblemSize::Medium, 1e-3)
        .with_kind(ImplKind::Jit)
        .with_procs(64)
        .with_calib_inline(NodeCalib::default(), NetCalib::default());
    doomed.gpus = 1;
    let oracle = check_scenario(&doomed);
    assert!(!oracle.is_clean(), "fixture must carry an error finding");

    let lines = run_simd(&[], &[], &submit("doomed", &doomed));
    let rejected = event(&lines, "doomed", "rejected");
    assert!(rejected.contains("\"reason\":\"lint\""), "{rejected}");
    for d in &oracle.diagnostics {
        assert!(
            rejected.contains(&d.to_json()),
            "event is missing diagnostic {}\nevent: {rejected}",
            d.to_json()
        );
    }
    // Rejected at admission: the job never ran.
    assert!(
        !lines.iter().any(|l| l.contains("\"state\":\"running\"")),
        "{lines:#?}"
    );
}

#[test]
fn overfilling_the_queue_is_a_typed_backpressure_rejection() {
    let s = golden_scenario();
    let input: String = (1..=3).map(|i| submit(&format!("q{i}"), &s)).collect();
    let lines = run_simd(
        &["--queue-bound", "2"],
        &[],
        &(input + "{\"type\":\"stats\"}\n"),
    );

    for id in ["q1", "q2"] {
        event(&lines, id, "admitted");
    }
    let rejected = event(&lines, "q3", "rejected");
    assert!(rejected.contains("\"reason\":\"queue_full\""), "{rejected}");
    assert!(
        rejected.contains("\"queue_depth\":2,\"bound\":2"),
        "{rejected}"
    );
    assert!(
        rejected.contains("queue full: 2 jobs queued at bound 2; drain before submitting more"),
        "{rejected}"
    );

    let stats = lines
        .iter()
        .find(|l| l.contains("\"type\":\"stats\""))
        .expect("stats line");
    assert!(stats.contains("\"rejected_queue_full\":1"), "{stats}");

    // EOF drains the two admitted jobs; the rejected one stays rejected.
    for id in ["q1", "q2"] {
        event(&lines, id, "done");
    }
    assert!(
        !lines
            .iter()
            .any(|l| l.contains("\"id\":\"q3\"") && l.contains("\"state\":\"done\"")),
        "{lines:#?}"
    );
}

#[test]
fn garbage_bytes_and_oversized_lines_do_not_end_the_connection() {
    let s = golden_scenario();
    let cap = simd_serve::MAX_LINE_BYTES;
    let mut input = b"{\"type\":\"stats\",\"id\":\"\xff\xfe\"}\n".to_vec();
    input.extend_from_slice(submit("after-garbage", &s).as_bytes());
    // Twice the cap: a reader that stops at the cap without skipping the
    // rest would parse the remainder as a further request.
    input.extend(std::iter::repeat_n(b'x', 2 * cap + 1));
    input.push(b'\n');
    input.extend_from_slice(submit("after-oversized", &s).as_bytes());
    let lines = run_simd_bytes(&[], &[], &input);

    let errors: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"error\""))
        .collect();
    assert_eq!(errors.len(), 2, "{lines:#?}");
    assert!(
        errors[0].contains("request line is not valid UTF-8"),
        "{}",
        errors[0]
    );
    assert!(
        errors[1].contains(&format!("request line exceeds {cap} bytes")),
        "{}",
        errors[1]
    );
    for id in ["after-garbage", "after-oversized"] {
        event(&lines, id, "done");
    }
}

#[test]
fn a_line_that_names_its_id_is_rejected_under_it() {
    // Valid JSON with an escaped id but a key no request has, then a
    // line cut off after its id.
    let input = concat!(
        r#"{"type":"sweep","id":"bad\u002denvelope","recording":"r.jsonl","bogus":1}"#,
        "\n",
        r#"{"type":"sweep","id":"cut-short","recording":"#,
        "\n",
    );
    let lines = run_simd(&[], &[], input);
    for id in ["bad-envelope", "cut-short"] {
        event(&lines, id, "queued");
        let rejected = event(&lines, id, "rejected");
        assert!(rejected.contains("\"reason\":\"invalid\""), "{rejected}");
    }
    assert!(event(&lines, "bad-envelope", "rejected").contains("bogus"));
    assert!(
        !lines.iter().any(|l| l.contains("\"type\":\"error\"")),
        "{lines:#?}"
    );
}

#[test]
fn a_line_that_names_no_id_gets_a_bare_error() {
    // Cut off inside its id, and not JSON at all.
    let input = "{\"type\":\"submit\",\"id\":\"cu\nnot json, \"id\":\"x\"\n{\"type\":\"stats\"}\n";
    let lines = run_simd(&[], &[], input);
    let errors = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"error\""))
        .count();
    assert_eq!(errors, 2, "{lines:#?}");
    assert!(
        !lines.iter().any(|l| l.contains("\"type\":\"status\"")),
        "{lines:#?}"
    );
    let stats = lines
        .iter()
        .find(|l| l.contains("\"type\":\"stats\""))
        .expect("the service kept serving");
    assert!(stats.contains("\"rejected_invalid\":0"), "{stats}");
}
