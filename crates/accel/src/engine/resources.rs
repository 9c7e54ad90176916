//! Typed shared resources: SM pools, PCIe links, NICs.
//!
//! Each resource tracks its *current membership* (which flows want it
//! right now) and its *accumulated accounting* (busy seconds, switch
//! charges), which survives the whole replay and feeds
//! [`crate::engine::ClusterResult`].
//!
//! Accounting is **settle-on-change**: membership is piecewise-constant
//! between events, so instead of folding `load × dt` into the totals at
//! every event (the pre-optimization engine's per-event `accumulate`
//! walk over all resources), each resource remembers when it was last
//! settled and integrates the elapsed interval only when its membership
//! actually changes. The integral is identical — the load was constant
//! over the whole interval — and the event loop no longer touches
//! resources that an event does not affect.

/// One GPU's streaming-multiprocessor pool.
#[derive(Debug, Clone, Default)]
pub struct SmPool {
    /// Σ solo-utilisation over kernels currently wanting this GPU
    /// (updated when kernel membership changes).
    pub load: f64,
    /// Ranks resident on this GPU for the whole replay (static
    /// assignment, whether or not they are currently computing).
    pub clients: u32,
    /// Accumulated seconds the device spent computing (load clamped to 1).
    pub busy: f64,
    /// Accumulated seconds lost to context switches (zero under MPS).
    pub switch_seconds: f64,
    /// Virtual time the accounting was last settled to.
    pub settled_at: f64,
}

impl SmPool {
    /// Integrate the interval since the last settle at the current load
    /// into the busy accounting. Call *before* changing `load`.
    pub fn settle(&mut self, now: f64) {
        let dt = now - self.settled_at;
        if dt > 0.0 && self.load > 0.0 {
            self.busy += self.load.min(1.0) * dt;
        }
        self.settled_at = now;
    }
}

/// One GPU's PCIe link (shared equally by its active transfers).
#[derive(Debug, Clone, Default)]
pub struct PcieLink {
    /// Transfers on the wire right now (updated when flows join/leave).
    pub users: u32,
}

impl PcieLink {
    /// Rate of each active transfer: the link is shared equally.
    pub fn rate(&self) -> f64 {
        1.0 / self.users.max(1) as f64
    }
}

/// One node's network interface, shared by that node's ranks during
/// collectives. A rank's collective demand is its *analytic* solo cost
/// (the [`crate::comm`] formulas, which assume a full NIC); sharing the
/// NIC among co-located ranks is what makes congestion emerge instead of
/// being assumed away.
#[derive(Debug, Clone, Default)]
pub struct Nic {
    /// Ranks of this node currently inside a collective (updated when
    /// collective membership changes).
    pub active: u32,
    /// Accumulated seconds the NIC spent moving collective traffic.
    pub busy: f64,
    /// Accumulated *per-rank* seconds inside collective network phases
    /// (`active × dt`, so two ranks sharing the NIC for a second count
    /// as two collective-seconds).
    pub collective_seconds: f64,
    /// Virtual time the accounting was last settled to.
    pub settled_at: f64,
}

impl Nic {
    /// Rate of each active collective flow: equal NIC sharing.
    pub fn rate(&self) -> f64 {
        1.0 / self.active.max(1) as f64
    }

    /// Integrate the interval since the last settle at the current
    /// membership. Call *before* changing `active`.
    pub fn settle(&mut self, now: f64) {
        let dt = now - self.settled_at;
        if dt > 0.0 && self.active > 0 {
            self.busy += dt;
            self.collective_seconds += self.active as f64 * dt;
        }
        self.settled_at = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sm_pool_clamps_oversubscribed_load() {
        let mut pool = SmPool {
            load: 2.5,
            ..SmPool::default()
        };
        pool.settle(2.0);
        assert_eq!(pool.busy, 2.0);
        pool.load = 0.25;
        pool.settle(4.0);
        assert_eq!(pool.busy, 2.5);
        pool.load = 0.0;
        pool.settle(9.0);
        assert_eq!(pool.busy, 2.5);
        assert_eq!(pool.settled_at, 9.0);
    }

    #[test]
    fn settle_is_idempotent_at_the_same_instant() {
        let mut pool = SmPool {
            load: 1.0,
            ..SmPool::default()
        };
        pool.settle(1.0);
        pool.settle(1.0);
        assert_eq!(pool.busy, 1.0);
    }

    #[test]
    fn link_and_nic_share_equally() {
        let link = PcieLink { users: 4 };
        assert_eq!(link.rate(), 0.25);
        let idle = PcieLink::default();
        assert_eq!(idle.rate(), 1.0);
        let nic = Nic {
            active: 16,
            ..Nic::default()
        };
        assert_eq!(nic.rate(), 1.0 / 16.0);
    }

    #[test]
    fn nic_settle_counts_only_active_intervals() {
        let mut nic = Nic::default();
        nic.settle(1.0);
        assert_eq!(nic.busy, 0.0);
        nic.active = 3;
        nic.settle(1.5);
        assert_eq!(nic.busy, 0.5);
        // Two ranks over one second: one busy-second, two
        // collective-seconds.
        assert_eq!(nic.collective_seconds, 1.5);
    }
}
