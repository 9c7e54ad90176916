//! The event queue: pending completions on the virtual clock.
//!
//! The engine is a fluid discrete-event simulation: between events every
//! active flow drains at a constant rate, so its completion time is
//! predictable the moment its rate is known. Those predictions live here.
//!
//! A rank has at most two flows (its main segment chain and its transfer
//! stream), and each flow has at most one live prediction. The queue is
//! therefore **two blocked slot tables, one per [`FlowId`], indexed by
//! rank**. Each slot holds its flow's `(time, seq)` packed into one
//! integer key, or an empty mark, and each block of four slots caches
//! its earliest key:
//!
//! - [`EventQueue::schedule`] (a re-key included) and
//!   [`EventQueue::cancel`] write one slot in `O(1)`; they rescan the
//!   slot's block only when they move that block's minimum later;
//! - [`EventQueue::pop`] scans the block minima of each table that holds
//!   a live prediction (so the stream table costs nothing while transfers
//!   do not overlap), then rescans the popped slot's block.
//!
//! Under MPS every kernel start or end re-rates each co-tenant, so
//! re-keys outnumber pops several times over; here each is a slot write,
//! where a binary heap would sift. Nothing superseded is ever stored.
//!
//! Pop order is the total order `(time, seq)`, where `seq` is a fresh
//! sequence number taken by every [`EventQueue::schedule`] call (a re-key
//! included): simultaneous predictions pop in the order they were made,
//! whichever table they sit in, so the replay is deterministic.

/// Which of a rank's concurrent flows an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowId {
    /// The rank's main segment chain (host, kernel, blocking transfer,
    /// collective).
    Main,
    /// The head of the rank's asynchronous transfer stream (only active
    /// under [`crate::node::NodeConfig::overlap_transfers`]).
    Stream,
}

impl FlowId {
    /// Stable lowercase name for error messages.
    pub fn name(self) -> &'static str {
        match self {
            FlowId::Main => "main",
            FlowId::Stream => "stream",
        }
    }
}

/// Slots per block: the span one update or pop rescans. Smaller blocks
/// rescan less but give `pop` more minima to scan; four measured fastest
/// on 8- and 16-rank nodes, eight on 32-rank ones (EXPERIMENTS.md,
/// "Blocked event tables").
const BLOCK: usize = 4;

/// A prediction's place in the pop order `(time, seq)`, as one integer:
/// the time's bits above the schedule sequence number (which makes the
/// ordering total and deterministic when times tie: earlier predictions
/// pop first). The bits are mapped so that integer order is the float
/// order of finite times, with `-0.0` folded into `0.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    /// An empty slot: marked by a `seq` no schedule takes, and ordered
    /// after every live key.
    const EMPTY: Key = Key(u128::MAX);
    const SIGN: u64 = 1 << 63;

    fn new(time: f64, seq: u64) -> Key {
        let bits = (time + 0.0).to_bits();
        let ordered = if bits & Key::SIGN != 0 {
            !bits
        } else {
            bits | Key::SIGN
        };
        Key(u128::from(ordered) << 64 | u128::from(seq))
    }

    fn time(self) -> f64 {
        let ordered = (self.0 >> 64) as u64;
        f64::from_bits(if ordered & Key::SIGN != 0 {
            ordered & !Key::SIGN
        } else {
            !ordered
        })
    }

    fn is_live(self) -> bool {
        self.0 as u64 != u64::MAX
    }
}

/// One flow's predictions: a slot per rank, in blocks of [`BLOCK`].
#[derive(Debug, Default)]
struct Table {
    /// Rank `r`'s slot is `blocks[r / BLOCK][r % BLOCK]`.
    blocks: Vec<[Key; BLOCK]>,
    /// Each block's earliest key ([`Key::EMPTY`] when none is live).
    mins: Vec<Key>,
    /// Offset in its block of each block's earliest slot.
    first: Vec<u8>,
    live: usize,
}

impl Table {
    /// Store live `key` in `rank`'s slot, replacing what it held.
    fn insert(&mut self, rank: usize, key: Key) {
        let (b, i) = (rank / BLOCK, rank % BLOCK);
        if b >= self.blocks.len() {
            self.blocks.resize(b + 1, [Key::EMPTY; BLOCK]);
            self.mins.resize(b + 1, Key::EMPTY);
            self.first.resize(b + 1, 0);
        }
        let old = std::mem::replace(&mut self.blocks[b][i], key);
        self.live += usize::from(!old.is_live());
        if key < self.mins[b] {
            self.mins[b] = key;
            self.first[b] = i as u8;
        } else if usize::from(self.first[b]) == i {
            // The block's minimum moved later.
            self.rescan(b);
        }
    }

    /// Empty `rank`'s slot, if it is live.
    fn remove(&mut self, rank: usize) {
        if self.is_live(rank) {
            let (b, i) = (rank / BLOCK, rank % BLOCK);
            self.blocks[b][i] = Key::EMPTY;
            self.live -= 1;
            if usize::from(self.first[b]) == i {
                self.rescan(b);
            }
        }
    }

    fn is_live(&self, rank: usize) -> bool {
        self.blocks
            .get(rank / BLOCK)
            .is_some_and(|block| block[rank % BLOCK].is_live())
    }

    fn rescan(&mut self, b: usize) {
        let block = &self.blocks[b];
        let (first, min) = (1..BLOCK).fold((0, block[0]), |(m, min), i| {
            if block[i] < min {
                (i, block[i])
            } else {
                (m, min)
            }
        });
        self.mins[b] = min;
        self.first[b] = first as u8;
    }

    /// The table's earliest live key and its block, if any.
    fn earliest(&self) -> Option<(Key, usize)> {
        if self.live == 0 {
            return None;
        }
        let (b, &min) = self.mins.iter().enumerate().min_by_key(|&(_, k)| k)?;
        Some((min, b))
    }

    /// Empty block `b`'s earliest slot, which is live: `(time, rank)`.
    fn take(&mut self, b: usize) -> (f64, usize) {
        let i = usize::from(self.first[b]);
        let time = self.mins[b].time();
        self.blocks[b][i] = Key::EMPTY;
        self.live -= 1;
        self.rescan(b);
        (time, b * BLOCK + i)
    }
}

/// Predicted completions, at most one per (rank, flow), in blocked slot
/// tables.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Indexed by `FlowId as usize`.
    tables: [Table; 2],
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Predict that `rank`'s `flow` completes at virtual `time` (must be
    /// finite), replacing the flow's previous prediction if it has one.
    pub fn schedule(&mut self, rank: usize, flow: FlowId, time: f64) {
        debug_assert!(time.is_finite(), "event at non-finite time {time}");
        self.seq += 1;
        self.tables[flow as usize].insert(rank, Key::new(time, self.seq));
    }

    /// Drop `rank`'s `flow` prediction, if it has one.
    pub fn cancel(&mut self, rank: usize, flow: FlowId) {
        self.tables[flow as usize].remove(rank);
    }

    /// Whether `rank`'s `flow` has a prediction queued.
    pub fn is_scheduled(&self, rank: usize, flow: FlowId) -> bool {
        self.tables[flow as usize].is_live(rank)
    }

    /// Remove and return the earliest prediction by `(time, seq)`:
    /// `(time, rank, flow)`.
    pub fn pop(&mut self) -> Option<(f64, usize, FlowId)> {
        let (flow, b) = match (self.tables[0].earliest(), self.tables[1].earliest()) {
            (Some(m), Some(s)) if s.0 < m.0 => (FlowId::Stream, s.1),
            (Some(m), _) => (FlowId::Main, m.1),
            (None, s) => (FlowId::Stream, s?.1),
        };
        let (time, rank) = self.tables[flow as usize].take(b);
        Some((time, rank, flow))
    }

    /// Number of queued predictions.
    pub fn len(&self) -> usize {
        self.tables[0].live + self.tables[1].live
    }

    /// Whether no prediction is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference model: live predictions `(time, seq, rank, flow)`,
    /// at most one per slot, popped by the smallest `(time, seq)`.
    #[derive(Default)]
    struct Model {
        live: Vec<(f64, u64, usize, FlowId)>,
        seq: u64,
    }

    impl Model {
        fn find(&self, rank: usize, flow: FlowId) -> Option<usize> {
            self.live
                .iter()
                .position(|&(_, _, r, f)| r == rank && f == flow)
        }

        /// The live prediction that is earliest in `rank`'s block of
        /// `flow`'s table.
        fn block_min(&self, rank: usize, flow: FlowId) -> Option<usize> {
            (0..self.live.len())
                .filter(|&i| self.live[i].2 / BLOCK == rank / BLOCK && self.live[i].3 == flow)
                .min_by(|&a, &b| {
                    let (a, b) = (self.live[a], self.live[b]);
                    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
                })
        }

        fn schedule(&mut self, rank: usize, flow: FlowId, time: f64) {
            self.cancel(rank, flow);
            self.seq += 1;
            self.live.push((time, self.seq, rank, flow));
        }

        fn cancel(&mut self, rank: usize, flow: FlowId) {
            if let Some(i) = self.find(rank, flow) {
                self.live.remove(i);
            }
        }

        fn pop(&mut self) -> Option<(f64, usize, FlowId)> {
            self.live
                .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            (!self.live.is_empty()).then(|| {
                let (t, _, r, f) = self.live.remove(0);
                (t, r, f)
            })
        }
    }

    /// One random operation: `(op, rank, flow, time step)`. Ranks span
    /// four blocks of each table, the last one partial. Schedules
    /// outweigh removals so the tables fill up. Times sit on a coarse
    /// grid (multiples of 0.25 ahead of the clock, at most one second),
    /// so exact ties between slots and across tables are common.
    fn arb_op() -> impl Strategy<Value = (u8, usize, bool, u32)> {
        (0u8..11, 0usize..3 * BLOCK + 3, 0u8..2, 0u32..5)
            .prop_map(|(op, r, f, dt)| (op, r, f == 1, dt))
    }

    proptest! {
        #[test]
        fn tables_match_the_sorted_reference_model(
            ops in proptest::collection::vec(arb_op(), 1usize..600),
        ) {
            let mut queue = EventQueue::new();
            let mut model = Model::default();
            let mut now = 0.0f64;
            for (op, rank, stream, dt) in ops {
                let flow = if stream { FlowId::Stream } else { FlowId::Main };
                let step = 0.25 * dt as f64;
                // Ops 3–5 act on this slot's own prediction; 6–8 on the
                // earliest prediction of its block, whichever rank holds it.
                let target = match op {
                    3..=5 => model.find(rank, flow),
                    6..=8 => model.block_min(rank, flow),
                    _ => None,
                };
                match (op, target) {
                    (0..=2, _) => {
                        queue.schedule(rank, flow, now + step);
                        model.schedule(rank, flow, now + step);
                    }
                    // Re-key to an earlier / later time, or cancel.
                    (3..=8, Some(i)) => {
                        let (old, _, rank, flow) = model.live[i];
                        match op % 3 {
                            0 => {
                                queue.schedule(rank, flow, now.max(old - step));
                                model.schedule(rank, flow, now.max(old - step));
                            }
                            1 => {
                                queue.schedule(rank, flow, old + step);
                                model.schedule(rank, flow, old + step);
                            }
                            _ => {
                                queue.cancel(rank, flow);
                                model.cancel(rank, flow);
                            }
                        }
                    }
                    (3..=8, None) => {
                        queue.cancel(rank, flow);
                        model.cancel(rank, flow);
                    }
                    _ => {
                        let got = queue.pop();
                        prop_assert_eq!(got, model.pop());
                        if let Some((t, _, _)) = got {
                            prop_assert!(t >= now, "popped {t} before {now}");
                            now = t;
                        }
                    }
                }
                prop_assert_eq!(queue.len(), model.live.len());
                prop_assert_eq!(queue.is_scheduled(rank, flow), model.find(rank, flow).is_some());
            }
            while let Some(want) = model.pop() {
                prop_assert_eq!(queue.pop(), Some(want));
            }
            prop_assert!(queue.pop().is_none());
            prop_assert!(queue.is_empty());
        }
    }

    #[test]
    fn equal_times_pop_in_schedule_order_across_tables() {
        let mut queue = EventQueue::new();
        queue.schedule(9, FlowId::Stream, 1.0);
        queue.schedule(2, FlowId::Main, 1.0);
        queue.schedule(0, FlowId::Stream, 1.0);
        queue.schedule(1, FlowId::Main, 0.5);
        // A re-key takes a fresh seq: rank 9's stream moves behind rank 0's.
        queue.schedule(9, FlowId::Stream, 1.0);
        queue.schedule(5, FlowId::Main, 1.0);
        let popped: Vec<_> = std::iter::from_fn(|| queue.pop()).take(6).collect();
        assert_eq!(
            popped,
            [
                (0.5, 1, FlowId::Main),
                (1.0, 2, FlowId::Main),
                (1.0, 0, FlowId::Stream),
                (1.0, 9, FlowId::Stream),
                (1.0, 5, FlowId::Main),
            ]
        );
    }

    #[test]
    fn keys_order_finite_times_as_floats_do() {
        let mut queue = EventQueue::new();
        queue.schedule(0, FlowId::Main, 0.0);
        // Equal to 0.0, so it ties by seq, and reads back as 0.0.
        queue.schedule(1, FlowId::Main, -0.0);
        queue.schedule(2, FlowId::Main, -1.5);
        queue.schedule(3, FlowId::Stream, f64::MAX);
        queue.schedule(4, FlowId::Main, f64::MIN_POSITIVE);
        let popped: Vec<_> = std::iter::from_fn(|| queue.pop()).take(6).collect();
        let bits: Vec<_> = popped.iter().map(|&(t, r, _)| (t.to_bits(), r)).collect();
        assert_eq!(
            bits,
            [
                ((-1.5f64).to_bits(), 2),
                (0.0f64.to_bits(), 0),
                (0.0f64.to_bits(), 1),
                (f64::MIN_POSITIVE.to_bits(), 4),
                (f64::MAX.to_bits(), 3),
            ]
        );
    }
}
