//! Pass 1 — barrier/collective matching.
//!
//! Abstract-interprets each rank's segment sequence down to its
//! *collective shape* — the ordered list of collective segments it will
//! join — and checks the shapes against the engine's barrier semantics:
//! a collective involves every rank that participates in collectives at
//! all, barriers release in sequence order, and a rank joins its `s`-th
//! collective only after barrier `s − 1` released. Under those
//! semantics the replay deadlocks **iff** participating ranks disagree
//! on how many collectives they perform; the first barrier the
//! minimum-count ranks never join is where everyone else hangs.
//!
//! This pass is exact (sound *and* complete) with respect to
//! [`EngineError::Deadlock`]: [`predict_deadlock`] reproduces the very
//! error value — same blocked count, same waiting ranks in the same
//! order, same collective labels — that the engine would return after
//! replaying to quiescence.

use std::sync::Arc;

use crate::engine::error::EngineError;
use crate::trace::{RankTrace, Segment};

use super::diag::{Code, Diagnostic, Locus};

/// One rank's collective shape: `(segment index, label)` of every
/// collective segment, in trace order.
struct Shape<'a> {
    rank: usize,
    collectives: Vec<(usize, &'a str)>,
}

fn shapes(nodes: &[Arc<[RankTrace]>]) -> Vec<Shape<'_>> {
    let mut out = Vec::new();
    let mut rank = 0usize;
    for node in nodes {
        for trace in node.iter() {
            let collectives = trace
                .segments
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s {
                    Segment::Collective { label, .. } => Some((i, label.as_str())),
                    _ => None,
                })
                .collect();
            out.push(Shape { rank, collectives });
            rank += 1;
        }
    }
    out
}

/// The exact [`EngineError::Deadlock`] the engine would produce for
/// this workload, or `None` when every barrier provably fills.
pub(crate) fn predict_deadlock(nodes: &[Arc<[RankTrace]>]) -> Option<EngineError> {
    let shapes = shapes(nodes);
    let participants: Vec<&Shape<'_>> = shapes
        .iter()
        .filter(|s| !s.collectives.is_empty())
        .collect();
    let min = participants.iter().map(|s| s.collectives.len()).min()?;
    let waiting: Vec<(usize, String)> = participants
        .iter()
        .filter(|s| s.collectives.len() > min)
        .map(|s| (s.rank, s.collectives[min].1.to_string()))
        .collect();
    if waiting.is_empty() {
        return None;
    }
    Some(EngineError::Deadlock {
        blocked: waiting.len(),
        waiting,
    })
}

/// Run the barrier pass: a `B001` error when the job provably
/// deadlocks (message shared verbatim with the runtime error), a
/// `B002` warning when ranks synchronise on differently-labelled
/// collectives, and a `B003` warning when only part of the job
/// participates in collectives.
pub(crate) fn barrier_pass(nodes: &[Arc<[RankTrace]>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let shapes = shapes(nodes);
    let participants: Vec<&Shape<'_>> = shapes
        .iter()
        .filter(|s| !s.collectives.is_empty())
        .collect();
    if participants.is_empty() {
        return out;
    }

    if let Some(err) = predict_deadlock(nodes) {
        let min = participants
            .iter()
            .map(|s| s.collectives.len())
            .min()
            .expect("participants is non-empty");
        let short = participants
            .iter()
            .find(|s| s.collectives.len() == min)
            .expect("some participant has the minimum count");
        let stuck = participants
            .iter()
            .find(|s| s.collectives.len() > min)
            .expect("a predicted deadlock has a waiting rank");
        let (seg, label) = stuck.collectives[min];
        out.push(
            Diagnostic::error(Code::CollectiveMismatch, Locus::segment(stuck.rank, seg, label), err.to_string())
                .with_suggestion(format!(
                    "rank {} performs {} collective(s) but rank {} performs {}: '{}' (segment {} of rank {}) is the first collective its peers never join — align the ranks' collective sequences",
                    stuck.rank,
                    stuck.collectives.len(),
                    short.rank,
                    min,
                    label,
                    seg,
                    stuck.rank,
                )),
        );
    }

    // Label divergence: ranks that *do* synchronise at seq `s` but name
    // different operations. Only the first divergent seq is reported —
    // later barriers usually diverge as a consequence.
    let depth = participants
        .iter()
        .map(|s| s.collectives.len())
        .min()
        .expect("participants is non-empty");
    'seqs: for s in 0..depth {
        let (first, rest) = participants.split_first().expect("non-empty");
        let (_, expect) = first.collectives[s];
        for p in rest {
            let (seg, got) = p.collectives[s];
            if got != expect {
                out.push(
                    Diagnostic::warn(
                        Code::CollectiveLabelDivergence,
                        Locus::segment(p.rank, seg, got),
                        format!(
                            "collective {s}: rank {} calls '{expect}' where rank {} calls '{got}' — the barrier fills, but the ranks appear to reduce different things",
                            first.rank, p.rank
                        ),
                    ),
                );
                break 'seqs;
            }
        }
    }

    if participants.len() < shapes.len() {
        let outsiders = shapes.len() - participants.len();
        let first_out = shapes
            .iter()
            .find(|s| s.collectives.is_empty())
            .expect("counted a non-participant");
        out.push(Diagnostic::warn(
            Code::PartialParticipation,
            Locus::rank(first_out.rank),
            format!(
                "{outsiders} of {} rank(s) perform no collectives while the rest synchronise; they are treated as outside the collective communicator",
                shapes.len()
            ),
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::shared_nodes;

    fn coll(label: &str) -> Segment {
        Segment::Collective {
            seconds: 1e-3,
            bytes: 1e6,
            label: label.into(),
        }
    }

    fn host() -> Segment {
        Segment::Host {
            seconds: 1e-3,
            label: "h".into(),
        }
    }

    fn trace(segments: Vec<Segment>) -> RankTrace {
        RankTrace {
            segments,
            ..RankTrace::default()
        }
    }

    #[test]
    fn symmetric_jobs_prove_deadlock_free() {
        let nodes = shared_nodes(vec![
            vec![
                trace(vec![host(), coll("a"), coll("b")]),
                trace(vec![coll("a"), host(), coll("b")]),
            ],
            vec![trace(vec![coll("a"), coll("b")])],
        ]);
        assert_eq!(predict_deadlock(&nodes), None);
        assert!(barrier_pass(&nodes).is_empty());
    }

    #[test]
    fn ragged_counts_predict_the_exact_engine_error() {
        let nodes = shared_nodes(vec![vec![
            trace(vec![coll("a"), coll("b")]),
            trace(vec![coll("a")]),
        ]]);
        let err = predict_deadlock(&nodes).expect("ragged job deadlocks");
        assert_eq!(
            err,
            EngineError::Deadlock {
                blocked: 1,
                waiting: vec![(0, "b".into())],
            }
        );
        let diags = barrier_pass(&nodes);
        let b001 = diags
            .iter()
            .find(|d| d.code == Code::CollectiveMismatch)
            .expect("B001");
        assert_eq!(b001.message, err.to_string());
        assert_eq!(b001.locus.rank, Some(0));
        assert_eq!(b001.locus.segment, Some(1));
        assert_eq!(b001.locus.label.as_deref(), Some("b"));
        let sug = b001.suggestion.as_deref().expect("suggestion");
        assert!(sug.contains("rank 0 performs 2"));
        assert!(sug.contains("rank 1 performs 1"));
    }

    #[test]
    fn cross_node_raggedness_is_a_deadlock_too() {
        let nodes = shared_nodes(vec![
            vec![trace(vec![coll("a"), coll("b")])],
            vec![trace(vec![coll("a")])],
        ]);
        let err = predict_deadlock(&nodes).expect("cross-node ragged job deadlocks");
        assert_eq!(
            err,
            EngineError::Deadlock {
                blocked: 1,
                waiting: vec![(0, "b".into())],
            }
        );
    }

    #[test]
    fn label_divergence_is_a_warning_not_an_error() {
        let nodes = shared_nodes(vec![vec![
            trace(vec![coll("allreduce_x")]),
            trace(vec![coll("allreduce_y")]),
        ]]);
        assert_eq!(predict_deadlock(&nodes), None);
        let diags = barrier_pass(&nodes);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::CollectiveLabelDivergence);
        assert!(diags[0].message.contains("'allreduce_x'"));
        assert!(diags[0].message.contains("'allreduce_y'"));
    }

    #[test]
    fn partial_participation_warns_on_the_first_outsider() {
        let nodes = shared_nodes(vec![vec![
            trace(vec![coll("a")]),
            trace(vec![host()]),
            trace(vec![coll("a")]),
        ]]);
        let diags = barrier_pass(&nodes);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::PartialParticipation);
        assert_eq!(diags[0].locus.rank, Some(1));
    }

    #[test]
    fn collective_free_workloads_have_nothing_to_say() {
        let nodes = shared_nodes(vec![vec![trace(vec![host()]), trace(vec![host()])]]);
        assert_eq!(predict_deadlock(&nodes), None);
        assert!(barrier_pass(&nodes).is_empty());
    }
}
