//! `simlint` — static pre-flight analysis of recorded workloads.
//!
//! Every check here runs *without executing a single event*: the
//! analyzer inspects recorded traces and calibrations and predicts what
//! the discrete-event engine would do with them. Four passes, in report
//! order:
//!
//! 1. **Barrier/collective matching** (`barrier`) — proves the job
//!    deadlock-free, or names the first mismatched collective and the
//!    exact [`crate::engine::error::EngineError::Deadlock`] the engine
//!    would return (`B001`–`B003`).
//! 2. **Peak residency** (`residency`) — replicates the engine's
//!    admission OOM check bit for bit and reports every overflowing
//!    pool, plus a configurable headroom band (`M001`/`M002`).
//! 3. **Cost sanity** (`cost`) — non-finite or negative charges,
//!    zero-item kernel grids, stream-underflow reachability; subsumes
//!    the engine's runtime charge validation (`C001`–`C004`).
//! 4. **Layout & calibration lints** (`lints`) — idle devices,
//!    MPS-less oversubscription, pointless overlap flags, degenerate
//!    rooflines (`S002`–`S005`).
//!
//! Soundness contract (see `DESIGN.md` § 7): error-severity findings
//! from the barrier and residency passes are **exact** — the replay is
//! proven to fail with the very error text carried in the diagnostic
//! `message`, and a clean pass proves the corresponding runtime error
//! unreachable. Warnings are best-effort. The residency pass sums each
//! pool over the engine's own placement rule, the one admission uses.
//!
//! Entry points: [`check_workload`] lints a recording under its own
//! embedded calibration and layout, [`check_workload_under`] swaps in
//! an explicit [`AnalyzeConfig`] (the sweep's per-point view), and
//! [`check_calib`] gates bare calibrations (used by the scenario-level
//! checker in the `scenario` crate).

mod barrier;
mod cost;
pub mod diag;
mod lints;
mod residency;

pub use diag::{Code, Diagnostic, Locus, Report, Severity};

use crate::calib::{NetCalib, NodeCalib};
use crate::whatif::{RecordMeta, RecordedWorkload};

/// The environment a workload is checked against: the calibration and
/// layout the replay would use. [`AnalyzeConfig::for_recording`] reads
/// it straight off a recording's metadata; the sweep builds one per
/// grid point.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Node calibration (CPU + GPU + framework rooflines).
    pub node: NodeCalib,
    /// Interconnect calibration.
    pub net: NetCalib,
    /// GPUs per node.
    pub gpus: u32,
    /// Whether MPS shares devices between co-located ranks.
    pub mps: bool,
    /// Whether transfer streams overlap with compute.
    pub overlap_transfers: bool,
    /// Residency fraction above which `M002` warns (default 0.9:
    /// pools above 90 % of device memory are flagged).
    pub headroom: f64,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            node: NodeCalib::default(),
            net: NetCalib::default(),
            gpus: 1,
            mps: true,
            overlap_transfers: false,
            headroom: 0.9,
        }
    }
}

impl AnalyzeConfig {
    /// The configuration a plain `replay` of this recording would use.
    pub fn for_recording(meta: &RecordMeta) -> Self {
        AnalyzeConfig {
            node: meta.node_calib,
            net: meta.net_calib,
            gpus: meta.gpus,
            mps: meta.mps,
            overlap_transfers: meta.overlap_transfers,
            headroom: 0.9,
        }
    }
}

/// Check a recording under its own embedded calibration and layout —
/// the exact environment `replay(node, net, None)` would run in.
pub fn check_workload(workload: &RecordedWorkload) -> Report {
    check_workload_under(workload, &AnalyzeConfig::for_recording(&workload.meta))
}

/// Check a recording under an explicit environment. Passes run in
/// fixed order (barrier, residency, cost, lints) and each pass emits
/// deterministically, so two calls on the same input produce identical
/// reports.
pub fn check_workload_under(workload: &RecordedWorkload, cfg: &AnalyzeConfig) -> Report {
    let nodes = &workload.nodes;
    let mut diagnostics = Vec::new();

    diagnostics.extend(barrier::barrier_pass(nodes));
    diagnostics.extend(residency::residency_pass(
        nodes,
        cfg.node.gpu.mem_bytes,
        cfg.gpus,
        cfg.headroom,
    ));

    let raw = cost::raw_cost_pass(nodes, cfg.overlap_transfers);
    let raw_has_non_finite = raw.iter().any(|d| d.code == Code::NonFiniteCharge);
    diagnostics.extend(raw);
    // Pricing a trace with non-finite recorded charges would re-report
    // the same segments; only chase calibration-induced infinities when
    // the recording itself is finite.
    if !raw_has_non_finite {
        diagnostics.extend(cost::derived_cost_check(nodes, &cfg.node.gpu));
    }

    diagnostics.extend(lints::layout_lints(
        nodes,
        cfg.gpus,
        cfg.mps,
        cfg.overlap_transfers,
    ));
    diagnostics.extend(lints::calib_lints(&cfg.node, &cfg.net));

    Report { diagnostics }
}

/// Gate a bare calibration pair: `S005` errors for every field the
/// cost model cannot price. Used by the scenario-level checker.
pub fn check_calib(node: &NodeCalib, net: &NetCalib) -> Vec<Diagnostic> {
    lints::calib_lints(node, net)
}

/// Test input: each node's traces as shared storage.
#[cfg(test)]
pub(crate) fn shared_nodes(
    nodes: Vec<Vec<crate::trace::RankTrace>>,
) -> Vec<std::sync::Arc<[crate::trace::RankTrace]>> {
    nodes.into_iter().map(Into::into).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::KernelProfile;
    use crate::trace::{RankTrace, Segment, TransferDir};

    fn sample_workload(ranks: usize, collectives_per_rank: &[usize]) -> RecordedWorkload {
        assert_eq!(ranks, collectives_per_rank.len());
        let traces = collectives_per_rank
            .iter()
            .map(|&n| {
                let mut segments = vec![
                    Segment::Host {
                        seconds: 1e-3,
                        label: "setup".into(),
                    },
                    Segment::Kernel {
                        profile: KernelProfile {
                            name: "axpy".into(),
                            items: 1e6,
                            flops_per_item: 2.0,
                            bytes_per_item: 24.0,
                            divergence: 1.0,
                        },
                        dispatch: 1e-5,
                    },
                    Segment::Transfer {
                        bytes: 8e6,
                        dir: TransferDir::HostToDevice,
                        label: "h2d".into(),
                    },
                ];
                for _ in 0..n {
                    segments.push(Segment::Collective {
                        seconds: 1e-3,
                        bytes: 1e6,
                        label: "mpi_allreduce".into(),
                    });
                }
                RankTrace {
                    segments,
                    peak_device_bytes: 1 << 20,
                    ..RankTrace::default()
                }
            })
            .collect();
        RecordedWorkload {
            meta: RecordMeta::default(),
            nodes: vec![Vec::into(traces)],
        }
    }

    #[test]
    fn a_healthy_recording_is_clean() {
        let w = sample_workload(4, &[2, 2, 2, 2]);
        let report = check_workload(&w);
        assert!(
            report.is_clean(),
            "unexpected findings: {:?}",
            report.diagnostics
        );
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn passes_report_in_fixed_order() {
        // One workload tripping three passes at once: ragged collectives
        // (B001), an OOM pool (M001) and a NaN charge (C001).
        let mut w = sample_workload(2, &[2, 1]);
        let node = std::sync::Arc::make_mut(&mut w.nodes[0]);
        node[0].peak_device_bytes = u64::MAX / 2;
        node[0].segments.push(Segment::Host {
            seconds: f64::NAN,
            label: "bad".into(),
        });
        let report = check_workload(&w);
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        let pos = |c: Code| codes.iter().position(|&x| x == c).expect("code present");
        assert!(pos(Code::CollectiveMismatch) < pos(Code::OomPredicted));
        assert!(pos(Code::OomPredicted) < pos(Code::NonFiniteCharge));
        assert!(!report.is_clean());
    }

    #[test]
    fn config_overrides_swap_the_environment() {
        let w = sample_workload(4, &[1, 1, 1, 1]);
        assert!(check_workload(&w).is_clean());
        // Same recording, smaller device: every pool overflows.
        let mut cfg = AnalyzeConfig::for_recording(&w.meta);
        cfg.node.gpu.mem_bytes = 1;
        cfg.gpus = 1;
        let report = check_workload_under(&w, &cfg);
        assert!(report.has(Code::OomPredicted));
    }

    #[test]
    fn check_calib_flags_each_degenerate_roofline() {
        let mut node = NodeCalib::default();
        node.gpu.fp64_peak = f64::NAN;
        let net = NetCalib {
            bw: 0.0,
            ..NetCalib::default()
        };
        let diags = check_calib(&node, &net);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == Code::DegenerateCalib));
        assert!(check_calib(&NodeCalib::default(), &NetCalib::default()).is_empty());
    }
}
