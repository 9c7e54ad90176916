//! Job envelope: the simulation service's request format.
//!
//! The `simd` service speaks newline-delimited JSON — one request per
//! line, streamed over a pipe or Unix socket. This module holds the
//! typed envelope those lines decode into: scenario jobs carry a full
//! inline [`Scenario`] (validated by the same `Scenario` decoding every
//! binary uses), sweep jobs reference a recorded workload by path and
//! describe their grid with the `whatif sweep` clause syntax. Decoding
//! is strict in the house style: an unknown envelope field is a typed
//! error naming the offender, never silently ignored.
//!
//! The envelope deliberately lives in this crate rather than the serve
//! crate: it is the request *format*, versioned alongside the scenario
//! schema it embeds, and parseable by any client without pulling in the
//! service loop.

use crate::json::{self, as_f64, as_str, Fields};
use crate::{Scenario, ScenarioError};

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRequest {
    /// `{"type":"submit","id":…,"scenario":{…}}` — run one scenario
    /// through the engine.
    Submit {
        /// Client-chosen job id, echoed on every status event.
        id: String,
        /// The fully validated scenario payload.
        scenario: Box<Scenario>,
    },
    /// `{"type":"sweep","id":…,"recording":…}` — evaluate a grid over a
    /// recorded workload.
    Sweep {
        id: String,
        /// Path to the recorded workload (what-if JSONL).
        recording: String,
        /// Optional `key=value;…` grid clauses (`gpus=1..8;calib=h100`);
        /// unspecified axes default per the recording, as in
        /// `whatif sweep --grid`.
        grid: Option<String>,
        /// Optional makespan budget: prunes provably-late points and
        /// selects the cheapest point meeting it.
        deadline: Option<f64>,
        /// Where to write the sweep result JSONL.
        out: Option<String>,
    },
    /// `{"type":"stats"}` — report service counters.
    Stats,
    /// `{"type":"drain"}` — process every queued job now.
    Drain,
    /// `{"type":"shutdown"}` — drain, then exit.
    Shutdown,
}

impl JobRequest {
    /// Parse one request line. Errors are [`ScenarioError`]s: malformed
    /// JSON, a missing/unknown envelope field, or an invalid embedded
    /// scenario — each naming the offending field and line.
    pub fn parse(line: &str) -> Result<Self, ScenarioError> {
        let root = json::parse_line(line, 1)?;
        let mut f = Fields::of(root, "request", 1)?;
        let req = match &*f.str_ref("type")? {
            "submit" => {
                let id = f.str("id")?;
                let (sv, line) = f.require("scenario")?;
                let scenario = Scenario::from_value(sv, line)?;
                JobRequest::Submit {
                    id,
                    scenario: Box::new(scenario),
                }
            }
            "sweep" => JobRequest::Sweep {
                id: f.str("id")?,
                recording: f.str("recording")?,
                grid: f.opt("grid", as_str)?,
                deadline: f.opt("deadline", as_f64)?,
                out: f.opt("out", as_str)?,
            },
            "stats" => JobRequest::Stats,
            "drain" => JobRequest::Drain,
            "shutdown" => JobRequest::Shutdown,
            other => {
                return Err(ScenarioError::InvalidValue {
                    field: "type".into(),
                    msg: format!(
                        "unknown request type '{other}' \
                         (expected submit, sweep, stats, drain or shutdown)"
                    ),
                })
            }
        };
        f.finish()?;
        Ok(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonError;
    use crate::{ImplKind, ProblemSize};

    fn tiny() -> Scenario {
        Scenario::new("envelope test", ProblemSize::Medium, 1e-3)
    }

    #[test]
    fn submit_round_trips_the_embedded_scenario() {
        let s = tiny().with_kind(ImplKind::OmpTarget).with_procs(8);
        let line = format!(
            "{{\"type\":\"submit\",\"id\":\"job-1\",\"scenario\":{}}}",
            s.to_json_compact()
        );
        match JobRequest::parse(&line).unwrap() {
            JobRequest::Submit { id, scenario } => {
                assert_eq!(id, "job-1");
                assert_eq!(*scenario, s);
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn sweep_carries_optional_axes() {
        let line = concat!(
            "{\"type\":\"sweep\",\"id\":\"s1\",\"recording\":\"w.jsonl\",",
            "\"grid\":\"gpus=1..4\",\"deadline\":0.5,\"out\":\"res.jsonl\"}"
        );
        match JobRequest::parse(line).unwrap() {
            JobRequest::Sweep {
                id,
                recording,
                grid,
                deadline,
                out,
            } => {
                assert_eq!(id, "s1");
                assert_eq!(recording, "w.jsonl");
                assert_eq!(grid.as_deref(), Some("gpus=1..4"));
                assert_eq!(deadline, Some(0.5));
                assert_eq!(out.as_deref(), Some("res.jsonl"));
            }
            other => panic!("expected Sweep, got {other:?}"),
        }
        let bare = JobRequest::parse("{\"type\":\"sweep\",\"id\":\"s2\",\"recording\":\"w\"}");
        assert!(matches!(
            bare.unwrap(),
            JobRequest::Sweep {
                grid: None,
                deadline: None,
                out: None,
                ..
            }
        ));
    }

    #[test]
    fn control_requests_parse() {
        assert_eq!(
            JobRequest::parse("{\"type\":\"stats\"}").unwrap(),
            JobRequest::Stats
        );
        assert_eq!(
            JobRequest::parse("{\"type\":\"drain\"}").unwrap(),
            JobRequest::Drain
        );
        assert_eq!(
            JobRequest::parse("{\"type\":\"shutdown\"}").unwrap(),
            JobRequest::Shutdown
        );
    }

    #[test]
    fn envelope_errors_are_typed_and_name_the_offender() {
        // Unknown request type.
        let e = JobRequest::parse("{\"type\":\"frobnicate\"}").unwrap_err();
        assert!(e.to_string().contains("frobnicate"), "{e}");
        // Unknown envelope field.
        let e = JobRequest::parse("{\"type\":\"stats\",\"bogus\":1}").unwrap_err();
        assert!(
            matches!(e, ScenarioError::Json(JsonError::UnknownField { ref field, .. }) if field == "bogus")
        );
        // Missing required field.
        let e = JobRequest::parse("{\"type\":\"sweep\",\"id\":\"x\"}").unwrap_err();
        assert!(
            matches!(e, ScenarioError::Json(JsonError::MissingField { ref field, .. }) if field == "recording")
        );
        // An invalid embedded scenario surfaces the scenario's own error.
        let mut s = tiny();
        s.procs_per_node = 7;
        let line = format!(
            "{{\"type\":\"submit\",\"id\":\"bad\",\"scenario\":{}}}",
            s.to_json_compact()
        );
        let e = JobRequest::parse(&line).unwrap_err();
        assert!(
            matches!(e, ScenarioError::InvalidProcs { procs: 7, .. }),
            "{e}"
        );
    }
}
