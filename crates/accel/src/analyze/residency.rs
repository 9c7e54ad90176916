//! Pass 2 — peak-residency OOM prediction.
//!
//! Every rank's trace carries its recorded peak device watermark
//! (`peak_device_bytes`, the alloc/free balance maxed over the run by
//! the memory-pool accounting at record time). The engine admits a
//! replay only if, for every physical GPU, the watermarks of the ranks
//! placed on it (`local_rank % gpus`) fit in device memory — checked
//! before the first event. This pass sums each pool over the engine's
//! own placement rule ([`pool_ranks`]), so its `M001` error carries the
//! very [`EngineError::Oom`] text the engine would raise, and a clean
//! pass proves the replay cannot OOM. On top of the exact check it
//! warns (`M002`) when a pool lands within a configurable headroom of
//! capacity — feasible, but one calibration tweak away from rejection.

use std::sync::Arc;

use crate::engine::error::EngineError;
use crate::engine::sim::pool_ranks;
use crate::node::NodeOom;
use crate::trace::RankTrace;

use super::diag::{Code, Diagnostic, Locus};

/// Run the residency pass over *every* pool (the engine stops at the
/// first overflow; a report should name them all): `M001` errors for
/// pools that must OOM, `M002` warnings for pools above
/// `headroom × capacity`.
pub(crate) fn residency_pass(
    nodes: &[Arc<[RankTrace]>],
    mem_bytes: u64,
    gpus: u32,
    headroom: f64,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let gpus = gpus.max(1) as usize;
    for (n, node) in nodes.iter().enumerate() {
        for g in 0..gpus {
            let residents = pool_ranks(node.len(), gpus, g);
            let demanded: u64 = residents.clone().map(|r| node[r].peak_device_bytes).sum();
            let gpu = (n * gpus + g) as u32;
            if demanded > mem_bytes {
                let oom = NodeOom {
                    gpu,
                    demanded,
                    capacity: mem_bytes,
                };
                let heaviest = residents
                    .clone()
                    .max_by_key(|&r| node[r].peak_device_bytes)
                    .expect("an overflowing pool has residents");
                out.push(
                    Diagnostic::error(
                        Code::OomPredicted,
                        Locus::gpu(gpu),
                        EngineError::Oom(oom).to_string(),
                    )
                    .with_suggestion(format!(
                        "{} rank(s) share GPU {gpu}; the heaviest (rank {}, {} B peak) alone decides feasibility — raise gpus-per-node, drop ranks, or pick a larger-memory calibration",
                        residents.len(),
                        heaviest,
                        node[heaviest].peak_device_bytes,
                    )),
                );
            } else if demanded > 0 && demanded as f64 > headroom * mem_bytes as f64 {
                out.push(Diagnostic::warn(
                    Code::OomHeadroom,
                    Locus::gpu(gpu),
                    format!(
                        "GPU {gpu} peak residency {demanded} B is within {:.0}% of its {mem_bytes} B capacity",
                        100.0 * (1.0 - headroom)
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::shared_nodes;
    use crate::engine::sim::{admit, CompiledWorkload};
    use crate::node::NodeConfig;

    fn rank(peak: u64) -> RankTrace {
        RankTrace {
            peak_device_bytes: peak,
            ..RankTrace::default()
        }
    }

    /// The engine's own admission verdict on GPUs of `mem_bytes` each.
    fn engine_oom(nodes: &[Arc<[RankTrace]>], mem_bytes: u64, gpus: u32) -> Option<EngineError> {
        let slices: Vec<&[RankTrace]> = nodes.iter().map(|n| &**n).collect();
        let compiled = CompiledWorkload::compile(&slices).expect("compiles");
        let mut cfg = NodeConfig {
            gpus,
            ..NodeConfig::default()
        };
        cfg.calib.gpu.mem_bytes = mem_bytes;
        admit(&compiled, &cfg).err()
    }

    #[test]
    fn fitting_layouts_predict_nothing() {
        let nodes = shared_nodes(vec![vec![rank(10), rank(10), rank(10), rank(10)]]);
        assert_eq!(engine_oom(&nodes, 100, 2), None);
        assert!(residency_pass(&nodes, 100, 2, 0.9).is_empty());
    }

    #[test]
    fn prediction_matches_the_engine_error_shape() {
        // gpus=2: ranks {0,2} on gpu 0 (30+40=70 fits), {1,3} on gpu 1
        // (50+60=110 overflows).
        let nodes = shared_nodes(vec![vec![rank(30), rank(50), rank(40), rank(60)]]);
        let err = engine_oom(&nodes, 100, 2).expect("pool 1 overflows");
        assert_eq!(
            err,
            EngineError::Oom(NodeOom {
                gpu: 1,
                demanded: 110,
                capacity: 100,
            })
        );
        let diags = residency_pass(&nodes, 100, 2, 0.9);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::OomPredicted);
        assert_eq!(diags[0].locus.gpu, Some(1));
        assert_eq!(diags[0].message, err.to_string());
        assert!(diags[0]
            .suggestion
            .as_deref()
            .expect("suggestion")
            .contains("2 rank(s) share GPU 1; the heaviest (rank 3, 60 B peak)"));
    }

    #[test]
    fn the_pass_reports_every_pool_the_engine_stops_at_the_first() {
        let nodes = shared_nodes(vec![vec![rank(200)], vec![rank(300)]]);
        // The engine names only node 0's pool…
        let first = engine_oom(&nodes, 100, 1).expect("overflow");
        assert_eq!(first.as_oom().expect("oom").gpu, 0);
        // …while the report pass lists both.
        let diags = residency_pass(&nodes, 100, 1, 0.9);
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].message, first.to_string());
        assert_eq!(diags[1].locus.gpu, Some(1));
    }

    #[test]
    fn headroom_is_a_warning_band_under_capacity() {
        let nodes = shared_nodes(vec![vec![rank(95)]]);
        assert_eq!(engine_oom(&nodes, 100, 1), None);
        let diags = residency_pass(&nodes, 100, 1, 0.9);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::OomHeadroom);
        assert_eq!(diags[0].severity, super::super::Severity::Warn);
        // Exactly at capacity is still feasible; below the band, silent.
        assert!(residency_pass(&shared_nodes(vec![vec![rank(80)]]), 100, 1, 0.9).is_empty());
    }

    #[test]
    fn gpus_zero_clamps_to_one_like_the_engine() {
        let nodes = shared_nodes(vec![vec![rank(60), rank(60)]]);
        let err = engine_oom(&nodes, 100, 0).expect("one pool holds both");
        assert_eq!(err.as_oom().expect("oom").demanded, 120);
        let diags = residency_pass(&nodes, 100, 0, 0.9);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].message, err.to_string());
    }
}
