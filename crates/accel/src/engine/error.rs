//! Typed replay failures, following the `ResidencyError` convention from
//! the memory subsystem: every failure mode the engine can hit is a
//! variant with enough context to name the culprit, instead of a panic
//! (`expect("head exists")`) or a silently-poisoned result (a NaN charge
//! folding through `f64::max` into a bogus makespan).

use crate::engine::event::FlowId;
use crate::node::NodeOom;

/// Why a replay could not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The combined peak footprints of co-located ranks exceed a GPU's
    /// memory (checked before the event loop starts).
    Oom(NodeOom),
    /// A recorded charge is NaN or infinite. Validated at intake so the
    /// makespan reduction cannot silently drop the poisoned rank
    /// (`f64::max(NaN, x) == x`).
    NonFiniteCharge {
        /// Global rank whose trace carries the charge.
        rank: usize,
        /// Index of the offending segment in that rank's trace.
        segment: usize,
        /// The segment's accounting label.
        label: String,
        /// The non-finite value as recorded.
        value: f64,
    },
    /// A flow's completion event fired with nothing left to complete —
    /// the transfer stream was empty when its head was due.
    StreamUnderflow {
        /// Global rank whose flow misfired.
        rank: usize,
        /// Which of the rank's flows misfired.
        flow: FlowId,
    },
    /// The replay quiesced with ranks still blocked: a collective
    /// barrier that can never fill.
    Deadlock {
        /// Number of ranks left blocked.
        blocked: usize,
        /// The blocked ranks in global rank order: `(rank, collective
        /// label)` for every rank stuck at the barrier.
        waiting: Vec<(usize, String)>,
    },
    /// A node's event loop hit its step limit (sized from the trace)
    /// without draining: the replay is not converging.
    NoConvergence {
        /// Node whose shard stopped.
        node: usize,
        /// Events processed when it stopped.
        steps: usize,
    },
}

/// Render the blocked-rank roster of a deadlock: `rank 1 at
/// 'mpi_allreduce', rank 3 at ...`, capped at [`DEADLOCK_ROSTER_CAP`]
/// entries. Shared by the runtime [`EngineError::Deadlock`] display and
/// the static analyzer's deadlock diagnostic so the two reports are
/// directly comparable.
pub fn fmt_deadlock_roster(waiting: &[(usize, String)]) -> String {
    let mut out = String::new();
    for (i, (rank, label)) in waiting.iter().take(DEADLOCK_ROSTER_CAP).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("rank {rank} at '{label}'"));
    }
    if waiting.len() > DEADLOCK_ROSTER_CAP {
        out.push_str(&format!(", +{} more", waiting.len() - DEADLOCK_ROSTER_CAP));
    }
    out
}

/// Most waiting ranks named individually in a deadlock report.
pub const DEADLOCK_ROSTER_CAP: usize = 4;

impl EngineError {
    /// The OOM details, if this is an out-of-memory failure.
    pub fn as_oom(&self) -> Option<&NodeOom> {
        match self {
            EngineError::Oom(oom) => Some(oom),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Oom(oom) => oom.fmt(f),
            EngineError::NonFiniteCharge {
                rank,
                segment,
                label,
                value,
            } => write!(
                f,
                "rank {rank} segment {segment} ('{label}') carries a non-finite charge ({value})"
            ),
            EngineError::StreamUnderflow { rank, flow } => write!(
                f,
                "rank {rank} {} flow completed with an empty stream",
                flow.name()
            ),
            EngineError::Deadlock { blocked, waiting } => {
                write!(
                    f,
                    "replay deadlocked: {blocked} rank(s) blocked at a collective barrier that can never fill"
                )?;
                if !waiting.is_empty() {
                    write!(f, " ({})", fmt_deadlock_roster(waiting))?;
                }
                Ok(())
            }
            EngineError::NoConvergence { node, steps } => write!(
                f,
                "node {node} replay failed to converge: step limit reached after {steps} events"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Oom(oom) => Some(oom),
            _ => None,
        }
    }
}

impl From<NodeOom> for EngineError {
    fn from(oom: NodeOom) -> Self {
        EngineError::Oom(oom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_culprit() {
        let e = EngineError::StreamUnderflow {
            rank: 3,
            flow: FlowId::Stream,
        };
        assert_eq!(
            e.to_string(),
            "rank 3 stream flow completed with an empty stream"
        );
        let e = EngineError::NonFiniteCharge {
            rank: 1,
            segment: 4,
            label: "k".into(),
            value: f64::NAN,
        };
        assert!(e.to_string().contains("rank 1 segment 4"));
        assert!(e.to_string().contains("NaN"));
        let e = EngineError::Deadlock {
            blocked: 2,
            waiting: vec![(1, "mpi_allreduce".into()), (3, "mpi_allreduce".into())],
        };
        assert!(e.to_string().contains("2 rank(s)"));
        assert!(e.to_string().contains("rank 1 at 'mpi_allreduce'"));
        assert!(e.to_string().contains("rank 3 at 'mpi_allreduce'"));
        let e = EngineError::NoConvergence { node: 1, steps: 40 };
        assert_eq!(
            e.to_string(),
            "node 1 replay failed to converge: step limit reached after 40 events"
        );
    }

    #[test]
    fn deadlock_roster_caps_long_lists() {
        let waiting: Vec<(usize, String)> =
            (0..7).map(|r| (r, "mpi_allreduce".to_string())).collect();
        let roster = fmt_deadlock_roster(&waiting);
        assert!(roster.contains("rank 3 at 'mpi_allreduce'"));
        assert!(!roster.contains("rank 4"));
        assert!(roster.ends_with("+3 more"));
        let e = EngineError::Deadlock {
            blocked: 7,
            waiting: Vec::new(),
        };
        assert_eq!(
            e.to_string(),
            "replay deadlocked: 7 rank(s) blocked at a collective barrier that can never fill"
        );
    }

    #[test]
    fn oom_wraps_with_source() {
        let oom = NodeOom {
            gpu: 5,
            demanded: 10,
            capacity: 4,
        };
        let e = EngineError::from(oom.clone());
        assert_eq!(e.as_oom(), Some(&oom));
        assert_eq!(e.to_string(), oom.to_string());
        assert!(std::error::Error::source(&e).is_some());
    }
}
