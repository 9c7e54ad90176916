//! Typed diagnostics: what the analyzer reports and how it renders.
//!
//! A [`Diagnostic`] is one finding; a [`Report`] is the outcome of a
//! whole check. Codes are stable strings (`B001`, `M002`, …) grouped by
//! pass — see `DESIGN.md` § 7 for the full table and each pass's
//! soundness contract. Severities carry the admission decision:
//! [`Severity::Error`] means the engine is proven (or presumed, for
//! scenario-level checks) unable to replay the input, [`Severity::Warn`]
//! flags a suspicious but replayable description.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but replayable: the engine will accept the input.
    Warn,
    /// Admission-blocking: the replay is proven to fail (workload
    /// passes) or the description is self-contradictory (scenario
    /// passes).
    Error,
}

impl Severity {
    /// Stable lowercase name (used in JSON and tables).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes, grouped by pass: `B` barrier/collective
/// matching, `M` memory/peak residency, `C` cost sanity, `S` scenario
/// and layout lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Code {
    /// Collective counts differ across participating ranks — the job
    /// deadlocks at the first barrier the short rank never joins.
    CollectiveMismatch,
    /// Collective *labels* diverge at one barrier seq: the ranks
    /// synchronise, but apparently on different operations.
    CollectiveLabelDivergence,
    /// Some ranks perform collectives while others perform none at all.
    PartialParticipation,
    /// Co-located peak footprints exceed a GPU's memory: the replay is
    /// proven to OOM at admission.
    OomPredicted,
    /// Peak residency lands within the configured headroom of capacity.
    OomHeadroom,
    /// A charge is NaN or infinite (recorded, or derived by the cost
    /// model from the calibration).
    NonFiniteCharge,
    /// A recorded magnitude is negative — priced as an instant no-op.
    NegativeCharge,
    /// A kernel launch with no work items.
    EmptyKernelGrid,
    /// An asynchronous transfer whose priced link time can reach zero —
    /// its completion races its own enqueue on the stream.
    StreamUnderflowRisk,
    /// `procs` cannot be laid out on the node's cores.
    InfeasibleProcs,
    /// More GPUs than ranks per node: devices provably idle.
    IdleGpus,
    /// Processes oversubscribe GPUs without MPS: every kernel pays the
    /// full context-switch cost (paper § 3.1.2).
    OversubscribedNoMps,
    /// Transfer overlap requested where no transfer segments can exist.
    OverlapWithoutTransfers,
    /// A calibration field the cost model cannot price.
    DegenerateCalib,
    /// The framework's fixed per-process device reservations alone
    /// exceed GPU memory under this layout.
    ReservationsExceedMemory,
}

impl Code {
    /// The stable short code.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::CollectiveMismatch => "B001",
            Code::CollectiveLabelDivergence => "B002",
            Code::PartialParticipation => "B003",
            Code::OomPredicted => "M001",
            Code::OomHeadroom => "M002",
            Code::NonFiniteCharge => "C001",
            Code::NegativeCharge => "C002",
            Code::EmptyKernelGrid => "C003",
            Code::StreamUnderflowRisk => "C004",
            Code::InfeasibleProcs => "S001",
            Code::IdleGpus => "S002",
            Code::OversubscribedNoMps => "S003",
            Code::OverlapWithoutTransfers => "S004",
            Code::DegenerateCalib => "S005",
            Code::ReservationsExceedMemory => "S006",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a finding points: any combination of rank, segment index,
/// label, GPU index and calibration/scenario field. Workload passes
/// populate rank/segment/label with the same indices the engine's
/// runtime errors use, so static and runtime reports line up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Locus {
    /// Global rank (node-major, as in engine errors).
    pub rank: Option<usize>,
    /// Segment index within the rank's recorded trace.
    pub segment: Option<usize>,
    /// Accounting label of the offending segment.
    pub label: Option<String>,
    /// Global GPU index (node-major), for residency findings.
    pub gpu: Option<u32>,
    /// Dotted field path, for calibration/scenario findings.
    pub field: Option<String>,
}

impl Locus {
    /// A rank/segment/label locus (the workload-pass shape).
    pub fn segment(rank: usize, segment: usize, label: impl Into<String>) -> Self {
        Locus {
            rank: Some(rank),
            segment: Some(segment),
            label: Some(label.into()),
            ..Locus::default()
        }
    }

    /// A bare rank locus.
    pub fn rank(rank: usize) -> Self {
        Locus {
            rank: Some(rank),
            ..Locus::default()
        }
    }

    /// A GPU locus (residency findings).
    pub fn gpu(gpu: u32) -> Self {
        Locus {
            gpu: Some(gpu),
            ..Locus::default()
        }
    }

    /// A field-path locus (calibration/scenario findings).
    pub fn field(path: impl Into<String>) -> Self {
        Locus {
            field: Some(path.into()),
            ..Locus::default()
        }
    }

    /// Compact human rendering, e.g. `rank 3 seg 7 ('mpi_allreduce')`;
    /// empty when nothing is set.
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(r) = self.rank {
            parts.push(format!("rank {r}"));
        }
        if let Some(s) = self.segment {
            parts.push(format!("seg {s}"));
        }
        if let Some(g) = self.gpu {
            parts.push(format!("gpu {g}"));
        }
        if let Some(l) = &self.label {
            parts.push(format!("('{l}')"));
        }
        if let Some(f) = &self.field {
            parts.push(f.clone());
        }
        parts.join(" ")
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (see [`Code`]).
    pub code: Code,
    /// Whether this finding blocks admission.
    pub severity: Severity,
    /// What the finding points at.
    pub locus: Locus,
    /// Human-readable statement of the problem. For findings that
    /// correspond to a provable engine failure, this is the *same text*
    /// the engine's runtime error would carry.
    pub message: String,
    /// What to change, when the fix is mechanical.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Build an error-severity diagnostic.
    pub fn error(code: Code, locus: Locus, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            locus,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Build a warning-severity diagnostic.
    pub fn warn(code: Code, locus: Locus, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warn,
            locus,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attach a suggestion.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }

    /// One machine-readable JSON object (no trailing newline), in the
    /// workspace's lossless style, escaped through [`crate::json::esc`].
    pub fn to_json(&self) -> String {
        use crate::json::esc;
        let mut out = format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\"",
            self.code.as_str(),
            self.severity.as_str()
        );
        if let Some(r) = self.locus.rank {
            out.push_str(&format!(",\"rank\":{r}"));
        }
        if let Some(s) = self.locus.segment {
            out.push_str(&format!(",\"segment\":{s}"));
        }
        if let Some(g) = self.locus.gpu {
            out.push_str(&format!(",\"gpu\":{g}"));
        }
        if let Some(l) = &self.locus.label {
            out.push_str(&format!(",\"label\":\"{}\"", esc(l)));
        }
        if let Some(fp) = &self.locus.field {
            out.push_str(&format!(",\"field\":\"{}\"", esc(fp)));
        }
        out.push_str(&format!(",\"message\":\"{}\"", esc(&self.message)));
        if let Some(s) = &self.suggestion {
            out.push_str(&format!(",\"suggestion\":\"{}\"", esc(s)));
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.code, self.severity)?;
        let locus = self.locus.render();
        if !locus.is_empty() {
            write!(f, " {locus}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, " (suggestion: {s})")?;
        }
        Ok(())
    }
}

/// The outcome of one check: every finding, in pass order (barrier,
/// residency, cost, lints) and deterministic within a pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Findings that block admission.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Non-blocking findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
    }

    /// True when nothing blocks admission (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Whether any finding carries `code`.
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// JSONL: one diagnostic object per line (empty string when clean).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = [
            Code::CollectiveMismatch,
            Code::CollectiveLabelDivergence,
            Code::PartialParticipation,
            Code::OomPredicted,
            Code::OomHeadroom,
            Code::NonFiniteCharge,
            Code::NegativeCharge,
            Code::EmptyKernelGrid,
            Code::StreamUnderflowRisk,
            Code::InfeasibleProcs,
            Code::IdleGpus,
            Code::OversubscribedNoMps,
            Code::OverlapWithoutTransfers,
            Code::DegenerateCalib,
            Code::ReservationsExceedMemory,
        ];
        let mut seen: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), all.len(), "duplicate diagnostic code");
    }

    #[test]
    fn display_and_json_carry_the_locus() {
        let d = Diagnostic::error(
            Code::NonFiniteCharge,
            Locus::segment(3, 7, "mpi_allreduce"),
            "rank 3 segment 7 ('mpi_allreduce') carries a non-finite charge (NaN)",
        )
        .with_suggestion("re-record the run");
        let text = d.to_string();
        assert!(text.starts_with("C001 [error] rank 3 seg 7 ('mpi_allreduce'):"));
        assert!(text.contains("suggestion: re-record"));
        let json = d.to_json();
        assert!(json.contains("\"code\":\"C001\""));
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\"rank\":3"));
        assert!(json.contains("\"segment\":7"));
        assert!(json.contains("\"label\":\"mpi_allreduce\""));
        assert!(json.contains("\"suggestion\":\"re-record the run\""));
    }

    #[test]
    fn report_partitions_by_severity() {
        let mut rep = Report::default();
        assert!(rep.is_clean());
        rep.diagnostics
            .push(Diagnostic::warn(Code::IdleGpus, Locus::default(), "w"));
        assert!(rep.is_clean());
        assert_eq!(rep.warnings().count(), 1);
        rep.diagnostics.push(Diagnostic::error(
            Code::OomPredicted,
            Locus::gpu(2),
            "GPU 2 out of memory",
        ));
        assert!(!rep.is_clean());
        assert!(rep.has(Code::OomPredicted));
        assert!(!rep.has(Code::CollectiveMismatch));
        assert_eq!(rep.to_jsonl().lines().count(), 2);
    }
}
