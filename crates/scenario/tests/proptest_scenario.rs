//! Property-based tests for the scenario spec: any valid [`Scenario`]
//! survives a JSON round trip unchanged (pretty and compact forms), the
//! serializer is a fixed point, and strictness errors name their
//! offender. These hold over the whole space of valid scenarios, not just
//! the golden files under `scenarios/`.

use proptest::prelude::*;
use scenario::json::JsonError;
use scenario::{
    CalibSpec, ImplKind, MovementPolicy, NetCalib, NodeCalib, ProblemSize, Scenario, ScenarioError,
    SchedulePolicyKind,
};

const NAMES: [&str; 6] = [
    "fig5_full_benchmark",
    "spaces in names",
    "q\"uote",
    "back\\slash",
    "line\nbreak",
    "π-scan",
];
const PRESETS: [&str; 5] = ["a100", "h100", "a100-nvlink", "h100-nvlink", "slingshot11"];
const DIVISORS_OF_64: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

#[allow(clippy::too_many_arguments)]
fn build(
    name_i: usize,
    size_i: u8,
    scale: f64,
    kind_i: u8,
    procs_i: usize,
    gpus: u32,
    mps: bool,
    movement_i: u8,
    schedule_i: u8,
    nodes_i: u32,
    overlap: bool,
    calib_i: u8,
    inline_scale: f64,
    net_bw: f64,
    net_lat: f64,
) -> Scenario {
    let size = if size_i == 0 {
        ProblemSize::Medium
    } else {
        ProblemSize::Large
    };
    let mut s = Scenario::new(NAMES[name_i], size, scale);
    s.kind = [
        ImplKind::Cpu,
        ImplKind::OmpTarget,
        ImplKind::Jit,
        ImplKind::JitCpu,
    ][kind_i as usize];
    s.procs_per_node = DIVISORS_OF_64[procs_i];
    s.gpus = gpus;
    s.mps = mps;
    s.movement = if movement_i == 0 {
        MovementPolicy::Tracked
    } else {
        MovementPolicy::Naive
    };
    s.schedule = [
        SchedulePolicyKind::Auto,
        SchedulePolicyKind::MpsFluid,
        SchedulePolicyKind::TimeSliced,
        SchedulePolicyKind::Fifo,
        SchedulePolicyKind::Priority,
    ][schedule_i as usize];
    s.nodes = (nodes_i > 0).then_some(nodes_i);
    s.overlap_transfers = overlap;
    s.calib = match calib_i {
        0..=2 => CalibSpec::Auto,
        3..=7 => CalibSpec::Preset(PRESETS[calib_i as usize - 3].into()),
        _ => CalibSpec::Inline {
            node: NodeCalib::scaled(inline_scale),
            net: NetCalib {
                bw: net_bw,
                latency: net_lat,
            },
        },
    };
    s
}

fn round_trip(s: &Scenario) -> Result<(), String> {
    prop_assert!(s.validate().is_ok(), "generator made an invalid scenario");

    let pretty = s.to_json();
    let parsed = Scenario::parse(&pretty);
    prop_assert!(parsed.is_ok(), "pretty form rejected: {:?}", parsed.err());
    let parsed = parsed.unwrap();
    prop_assert_eq!(&parsed, s);
    // The serializer is a fixed point: re-serializing the parse is
    // byte-identical, so goldens never churn.
    prop_assert_eq!(parsed.to_json(), pretty);

    let compact = s.to_json_compact();
    prop_assert!(
        !compact.contains('\n'),
        "compact form must stay on one line (it is embedded in JSONL)"
    );
    let reparsed = Scenario::parse(&compact);
    prop_assert!(
        reparsed.is_ok(),
        "compact form rejected: {:?}",
        reparsed.err()
    );
    prop_assert_eq!(&reparsed.unwrap(), s);
    Ok(())
}

proptest! {
    /// parse(serialize(s)) == s for arbitrary valid scenarios, pretty and
    /// compact, including names that need escaping and every calibration
    /// source.
    #[test]
    fn valid_scenarios_round_trip(
        name_i in 0usize..6,
        size_i in 0u8..2,
        scale in 1e-6..1.0f64,
        kind_i in 0u8..4,
        procs_i in 0usize..7,
        gpus in 1u32..9,
        mps: bool,
        movement_i in 0u8..2,
        schedule_i in 0u8..5,
        nodes_i in 0u32..5,
        overlap: bool,
        calib_i in 0u8..9,
        inline_scale in 1e-3..1.0f64,
        net_bw in 1e9..1e12f64,
        net_lat in 1e-7..1e-4f64,
    ) {
        let s = build(
            name_i, size_i, scale, kind_i, procs_i, gpus, mps, movement_i,
            schedule_i, nodes_i, overlap, calib_i, inline_scale, net_bw, net_lat,
        );
        round_trip(&s)?;
    }

    /// The problem-override block round-trips too: every combination of
    /// present/absent optional fields, with raw integers kept lossless
    /// (seeds use the full u64 domain, beyond f64's exact range).
    #[test]
    fn problem_overrides_round_trip(
        mask in 0u8..64,
        ts in 1e6..1e11f64,
        ndet in 1usize..10_000,
        nside in 1u64..64,
        nobs in 1usize..64,
        passes in 1usize..10,
        seed: u64,
        trace_i in 0usize..3,
        record_i in 0usize..3,
    ) {
        let mut s = Scenario::new("overrides", ProblemSize::Medium, 2e-3);
        if mask & 1 != 0 {
            s.problem.total_samples = Some(ts);
        }
        if mask & 2 != 0 {
            s.problem.n_det_total = Some(ndet);
        }
        if mask & 4 != 0 {
            s.problem.nside = Some(nside);
        }
        if mask & 8 != 0 {
            s.problem.n_obs = Some(nobs);
        }
        if mask & 16 != 0 {
            s.problem.passes = Some(passes);
        }
        if mask & 32 != 0 {
            s.problem.seed = Some(seed);
        }
        s.output.trace_out =
            [None, Some("trace.json"), Some("out dir/trace.jsonl")][trace_i].map(String::from);
        s.output.record_out =
            [None, Some("rec.jsonl"), Some("päth.jsonl")][record_i].map(String::from);
        round_trip(&s)?;
    }

    /// Strictness holds everywhere in the valid space: injecting an
    /// unknown top-level key into any serialized scenario is rejected with
    /// an error naming exactly that key and its line.
    #[test]
    fn unknown_fields_are_rejected_by_name(
        name_i in 0usize..6,
        size_i in 0u8..2,
        scale in 1e-6..1.0f64,
        kind_i in 0u8..4,
        procs_i in 0usize..7,
        gpus in 1u32..9,
        mps: bool,
    ) {
        let s = build(
            name_i, size_i, scale, kind_i, procs_i, gpus, mps, 0, 0, 0, false,
            0, 0.5, 1e10, 1e-6,
        );
        let doc = s
            .to_json()
            .replacen("\"name\":", "\"mystery_knob\": true,\n  \"name\":", 1);
        match Scenario::parse(&doc) {
            Err(ScenarioError::Json(JsonError::UnknownField { field, line })) => {
                prop_assert_eq!(field, "mystery_knob");
                prop_assert_eq!(line, 3);
            }
            other => prop_assert!(false, "expected UnknownField, got {:?}", other.err()),
        }
    }

    /// A future schema_version is always a typed error carrying the
    /// version it refused, never a silent partial parse.
    #[test]
    fn unknown_versions_are_rejected_with_the_version(
        version in 2u64..1000,
        name_i in 0usize..6,
    ) {
        let s = Scenario::new(NAMES[name_i], ProblemSize::Medium, 1e-3);
        let doc = s
            .to_json()
            .replacen("\"schema_version\": 1", &format!("\"schema_version\": {version}"), 1);
        match Scenario::parse(&doc) {
            Err(ScenarioError::UnknownVersion { version: got }) => {
                prop_assert_eq!(got, version);
            }
            other => prop_assert!(false, "expected UnknownVersion, got {:?}", other.err()),
        }
    }

    /// Truncating a valid document anywhere inside produces a Json error
    /// that points at a real line of the input — malformed files fail with
    /// a location, not a panic.
    #[test]
    fn truncated_documents_fail_with_a_line_number(cut in 10usize..200) {
        let s = Scenario::new("truncation", ProblemSize::Large, 1e-2);
        let doc = s.to_json();
        prop_assume!(cut < doc.len());
        let maimed = &doc[..cut];
        match Scenario::parse(maimed) {
            Err(ScenarioError::Json(JsonError::Malformed { line, .. })) => {
                prop_assert!(
                    line >= 1 && line <= maimed.lines().count() + 1,
                    "line {} out of range",
                    line
                );
            }
            // Cutting between fields can also surface as a missing field.
            Err(ScenarioError::Json(JsonError::MissingField { .. })) => {}
            other => prop_assert!(false, "expected Json error, got {:?}", other.err()),
        }
    }
}
