//! Pass 4 — layout and calibration lints.
//!
//! Best-effort warnings about descriptions that replay fine but almost
//! certainly do not mean what they say (idle devices, MPS-less
//! oversubscription, overlap with nothing to overlap), plus the
//! calibration gate: a [`crate::calib::CalibError`] from
//! [`NodeCalib::validate`]/[`NetCalib::validate`] becomes an
//! admission-blocking `S005` naming the offending field.

use std::sync::Arc;

use crate::calib::{NetCalib, NodeCalib};
use crate::trace::{RankTrace, Segment};

use super::diag::{Code, Diagnostic, Locus};

/// Layout lints over a recorded workload's node/rank structure.
pub(crate) fn layout_lints(
    nodes: &[Arc<[RankTrace]>],
    gpus: u32,
    mps: bool,
    overlap: bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let gpus = gpus.max(1);
    let max_ranks = nodes.iter().map(|n| n.len()).max().unwrap_or(0) as u32;
    if max_ranks > 0 && gpus > max_ranks {
        out.push(
            Diagnostic::warn(
                Code::IdleGpus,
                Locus::default(),
                format!(
                    "{gpus} GPU(s) per node but at most {max_ranks} rank(s): {} device(s) per node are provably idle",
                    gpus - max_ranks
                ),
            )
            .with_suggestion("lower gpus-per-node or add ranks"),
        );
    }
    if !mps && max_ranks > gpus {
        out.push(
            Diagnostic::warn(
                Code::OversubscribedNoMps,
                Locus::default(),
                format!(
                    "{max_ranks} rank(s) share {gpus} GPU(s) without MPS: the driver time-slices whole contexts and every switch pays the full context-switch cost (paper § 3.1.2)",
                ),
            )
            .with_suggestion("enable mps, or run at most one rank per GPU"),
        );
    }
    if overlap {
        let any_transfer = nodes
            .iter()
            .flat_map(|n| n.iter())
            .flat_map(|t| &t.segments)
            .any(|s| matches!(s, Segment::Transfer { .. }));
        if !any_transfer {
            out.push(Diagnostic::warn(
                Code::OverlapWithoutTransfers,
                Locus::default(),
                "transfer overlap is enabled but the workload contains no transfer segments; the flag cannot change the result".to_string(),
            ));
        }
    }
    out
}

/// The calibration gate: degenerate rooflines are admission errors.
pub(crate) fn calib_lints(node: &NodeCalib, net: &NetCalib) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if let Err(e) = node.validate() {
        out.push(
            Diagnostic::error(Code::DegenerateCalib, Locus::field(e.field), e.to_string())
                .with_suggestion("fix the calibration before replaying; see CalibError"),
        );
    }
    if let Err(e) = net.validate() {
        out.push(
            Diagnostic::error(Code::DegenerateCalib, Locus::field(e.field), e.to_string())
                .with_suggestion("fix the calibration before replaying; see CalibError"),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranks(n: usize) -> Vec<Arc<[RankTrace]>> {
        vec![vec![RankTrace::default(); n].into()]
    }

    #[test]
    fn balanced_layouts_are_quiet() {
        assert!(layout_lints(&ranks(4), 4, true, false).is_empty());
        assert!(layout_lints(&ranks(8), 4, true, false).is_empty());
    }

    #[test]
    fn idle_devices_and_mpsless_oversubscription_warn() {
        let diags = layout_lints(&ranks(2), 4, true, false);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::IdleGpus);
        assert!(diags[0].message.contains("2 device(s)"));

        let diags = layout_lints(&ranks(8), 4, false, false);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::OversubscribedNoMps);
    }

    #[test]
    fn overlap_without_transfers_warns() {
        let diags = layout_lints(&ranks(4), 4, true, true);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::OverlapWithoutTransfers);
        let with_transfer = vec![vec![RankTrace {
            segments: vec![Segment::Transfer {
                bytes: 1e6,
                dir: crate::trace::TransferDir::HostToDevice,
                label: "h2d".into(),
            }],
            ..RankTrace::default()
        }]
        .into()];
        assert!(layout_lints(&with_transfer, 1, true, true).is_empty());
    }

    #[test]
    fn degenerate_calibration_is_an_error_naming_the_field() {
        let mut node = NodeCalib::default();
        node.gpu.hbm_bw = -1.0;
        let diags = calib_lints(&node, &NetCalib::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::DegenerateCalib);
        assert_eq!(diags[0].severity, super::super::Severity::Error);
        assert_eq!(diags[0].locus.field.as_deref(), Some("gpu.hbm_bw"));
        assert!(calib_lints(&NodeCalib::default(), &NetCalib::default()).is_empty());
    }
}
