//! Multi-node replay: `simulate_cluster` and its result types.
//!
//! A cluster replay runs N nodes' worth of rank traces against one event
//! loop. Ranks are numbered node-major (node `n`'s local rank `l` is
//! global rank `n * ranks_per_node + l` when nodes are symmetric), GPUs
//! likewise. Inter-node collectives appear in the traces as
//! [`Segment::Collective`](crate::trace::Segment::Collective) entries
//! whose `seconds` is the *analytic* solo cost from [`crate::comm`]; the
//! engine turns them into a global barrier followed by a network phase
//! during which each node's NIC is shared equally among that node's
//! participating ranks — so with 8 ranks per node the network phase
//! stretches to ~8× the analytic cost, and congestion *emerges* from link
//! occupancy instead of being a formula's assumption.

use crate::engine::error::EngineError;
use crate::engine::sim::{simulate, SimOutput};
use crate::node::{NodeConfig, NodeTimeline};
use crate::trace::RankTrace;

/// What a whole-cluster replay produced.
#[derive(Debug, Clone, Default)]
pub struct ClusterResult {
    /// Wall-clock seconds until the last rank of the last node finished.
    pub wall_seconds: f64,
    /// Per-rank completion times, node-major global rank order.
    pub rank_seconds: Vec<f64>,
    /// Busy seconds per GPU, node-major global GPU order.
    pub gpu_busy: Vec<f64>,
    /// Context-switch seconds per GPU (non-MPS arbitration only).
    pub switch_seconds: Vec<f64>,
    /// Busy seconds per node NIC.
    pub nic_busy: Vec<f64>,
    /// Summed per-rank seconds inside collective network phases (the
    /// congestion-stretched cost, not the analytic solo cost).
    pub collective_seconds: f64,
    /// Summed per-rank seconds spent waiting at collective barriers
    /// (load-imbalance cost, separate from network cost).
    pub collective_wait_seconds: f64,
    /// Number of nodes replayed.
    pub nodes: usize,
}

impl ClusterResult {
    pub(crate) fn from_output(out: SimOutput, nodes: usize) -> Self {
        ClusterResult {
            wall_seconds: out.wall_seconds(),
            rank_seconds: out.rank_seconds,
            gpu_busy: out.gpu_busy,
            switch_seconds: out.switch_seconds,
            nic_busy: out.nic_busy,
            collective_seconds: out.collective_seconds,
            collective_wait_seconds: out.collective_wait_seconds,
            nodes,
        }
    }
}

/// Replay `node_traces` (one slice of rank traces per node, every node
/// using the same [`NodeConfig`]) through the discrete-event engine.
///
/// Collective segments in the traces synchronise across *all* ranks of
/// all nodes; everything else contends only for its own node's GPUs,
/// PCIe links and NIC. Returns a typed [`EngineError`] — an OOM (with a
/// global GPU index) if any GPU's co-located peak footprints exceed its
/// memory, a `NonFiniteCharge` if a recorded duration is NaN/infinite.
pub fn simulate_cluster<T: AsRef<[RankTrace]>>(
    node_traces: &[T],
    cfg: &NodeConfig,
) -> Result<ClusterResult, EngineError> {
    let slices: Vec<&[RankTrace]> = node_traces.iter().map(AsRef::as_ref).collect();
    let out = simulate(&slices, cfg, false)?;
    Ok(ClusterResult::from_output(out, node_traces.len()))
}

/// Like [`simulate_cluster`], but also records the merged wall-clock
/// timeline (rank spans and GPU occupancy samples use global indices).
pub fn simulate_cluster_traced<T: AsRef<[RankTrace]>>(
    node_traces: &[T],
    cfg: &NodeConfig,
) -> Result<(ClusterResult, NodeTimeline), EngineError> {
    let slices: Vec<&[RankTrace]> = node_traces.iter().map(AsRef::as_ref).collect();
    let mut out = simulate(&slices, cfg, true)?;
    let timeline = std::mem::take(&mut out.timeline);
    Ok((ClusterResult::from_output(out, node_traces.len()), timeline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{simulate_node, TimelineKind};
    use crate::profile::KernelProfile;
    use crate::trace::Segment;

    fn host(seconds: f64) -> Segment {
        Segment::Host {
            seconds,
            label: "h".into(),
        }
    }

    fn coll(seconds: f64) -> Segment {
        Segment::Collective {
            seconds,
            bytes: 1e6,
            label: "mpi_allreduce".into(),
        }
    }

    fn trace(segments: Vec<Segment>) -> RankTrace {
        RankTrace {
            segments,
            ..RankTrace::default()
        }
    }

    #[test]
    fn collective_free_cluster_matches_simulate_node_per_node() {
        let cfg = NodeConfig::default();
        let k = KernelProfile::uniform("k", 1e9, 100.0, 8.0);
        let mk = || {
            trace(vec![
                host(0.01),
                Segment::Kernel {
                    profile: k.clone(),
                    dispatch: 1e-5,
                },
            ])
        };
        let node = simulate_node(&[mk(), mk()], &cfg).unwrap();
        let cluster = simulate_cluster(&[vec![mk(), mk()], vec![mk(), mk()]], &cfg).unwrap();
        // Independent identical nodes: same wall, per-node resources
        // concatenated node-major.
        assert!((cluster.wall_seconds - node.wall_seconds).abs() < 1e-12);
        assert_eq!(cluster.rank_seconds.len(), 4);
        assert_eq!(cluster.gpu_busy.len(), 8);
        assert!((cluster.gpu_busy[0] - node.gpu_busy[0]).abs() < 1e-12);
        assert!((cluster.gpu_busy[4] - node.gpu_busy[0]).abs() < 1e-12);
        assert_eq!(cluster.collective_seconds, 0.0);
        assert_eq!(cluster.nic_busy, vec![0.0, 0.0]);
    }

    #[test]
    fn nic_sharing_stretches_collectives() {
        let cfg = NodeConfig::default();
        let s = 0.01;
        // One rank per node: each NIC serves one flow, network phase = solo.
        let spread = simulate_cluster(&vec![vec![trace(vec![coll(s)])]; 4], &cfg).unwrap();
        assert!(
            (spread.wall_seconds - s).abs() < 1e-9,
            "{} vs {s}",
            spread.wall_seconds
        );
        // Four ranks on one node: the NIC is shared 4 ways, so the same
        // analytic cost takes 4x the wall time — congestion emerges.
        let packed = simulate_cluster(&[vec![trace(vec![coll(s)]); 4]], &cfg).unwrap();
        assert!(
            (packed.wall_seconds - 4.0 * s).abs() < 1e-9,
            "{} vs {}",
            packed.wall_seconds,
            4.0 * s
        );
        assert!((packed.nic_busy[0] - 4.0 * s).abs() < 1e-9);
        assert!((packed.collective_seconds - 16.0 * s).abs() < 1e-9);
    }

    #[test]
    fn collectives_barrier_across_nodes() {
        let cfg = NodeConfig::default();
        let s = 0.01;
        let slow = trace(vec![host(1.0), coll(s)]);
        let fast = trace(vec![coll(s)]);
        let (res, tl) = simulate_cluster_traced(&[vec![fast], vec![slow]], &cfg).unwrap();
        // The fast rank waits at the barrier for the slow one; both then
        // spend the network phase concurrently on their own NICs.
        assert!(
            (res.wall_seconds - (1.0 + s)).abs() < 1e-9,
            "{} vs {}",
            res.wall_seconds,
            1.0 + s
        );
        assert!((res.collective_wait_seconds - 1.0).abs() < 1e-9);
        let waits: Vec<_> = tl
            .events
            .iter()
            .filter(|e| e.kind == TimelineKind::Wait)
            .collect();
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0].rank, 0);
        assert_eq!(waits[0].label, "mpi_allreduce/wait");
        let colls = tl
            .events
            .iter()
            .filter(|e| e.kind == TimelineKind::Collective)
            .count();
        assert_eq!(colls, 2);
    }

    #[test]
    fn ragged_collective_counts_deadlock_and_name_the_waiter() {
        // One rank performs two collectives, the other only one: under
        // MPI semantics the second barrier waits on a rank that already
        // finished its collectives, so the job hangs. The typed error
        // names who is stuck and at which collective.
        let cfg = NodeConfig::default();
        let s = 0.001;
        let a = trace(vec![coll(s), coll(s)]);
        let b = trace(vec![coll(s)]);
        let err = simulate_cluster(&[vec![a, b]], &cfg).unwrap_err();
        assert_eq!(
            err,
            EngineError::Deadlock {
                blocked: 1,
                waiting: vec![(0, "mpi_allreduce".into())],
            }
        );
        assert!(err.to_string().contains("rank 0 at 'mpi_allreduce'"));
    }

    #[test]
    fn collective_free_ranks_do_not_join_barriers() {
        // A rank with no collectives at all is outside the collective
        // communicator: peers synchronise without it.
        let cfg = NodeConfig::default();
        let s = 0.001;
        let a = trace(vec![coll(s)]);
        let b = trace(vec![coll(s)]);
        let c = trace(vec![host(10.0 * s)]);
        let res = simulate_cluster(&[vec![a, b, c]], &cfg).unwrap();
        assert!(res.wall_seconds >= 10.0 * s);
    }
}
