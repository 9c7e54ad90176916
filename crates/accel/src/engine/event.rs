//! The event queue: pending completions on the virtual clock.
//!
//! The engine is a fluid discrete-event simulation: between events every
//! active flow drains at a constant rate, so its completion time is
//! predictable the moment its rate is known. Those predictions live here.
//!
//! A rank has at most two flows (its main segment chain and its transfer
//! stream), and each flow has at most one live prediction. The queue is
//! therefore an **indexed binary min-heap with one slot per (rank,
//! flow)**: a position index maps every slot to its heap entry, so a rate
//! change re-keys the flow's prediction in place ([`EventQueue::schedule`]
//! on a scheduled slot) or removes it ([`EventQueue::cancel`]) in
//! `O(log n)`, and the heap never holds a superseded entry. `n` is bounded
//! by twice the node's rank count.
//!
//! Pop order is the total order `(time, seq)`, where `seq` is a fresh
//! sequence number taken by every [`EventQueue::schedule`] call (a re-key
//! included): simultaneous predictions pop in the order they were made,
//! so the replay is deterministic.

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

/// Heap index of a slot with no prediction queued.
const UNSCHEDULED: u32 = u32::MAX;

fn slot(rank: usize, flow: FlowId) -> usize {
    2 * rank + flow as usize
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: f64,
    /// Schedule sequence number: makes the ordering total and
    /// deterministic when times tie (earlier predictions pop first).
    seq: u64,
    slot: u32,
}

impl Entry {
    fn before(&self, other: &Entry) -> bool {
        self.time < other.time || (self.time == other.time && self.seq < other.seq)
    }
}

/// Indexed min-heap of predicted completions, at most one per (rank,
/// flow).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: Vec<Entry>,
    /// Heap index of each slot's entry, or [`UNSCHEDULED`].
    pos: Vec<u32>,
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
        let slot = slot(rank, flow);
        if slot >= self.pos.len() {
            self.pos.resize(slot + 1, UNSCHEDULED);
        }
        let entry = Entry {
            time,
            seq: self.seq,
            slot: slot as u32,
        };
        match self.pos[slot] {
            UNSCHEDULED => {
                self.heap.push(entry);
                self.sift_up(self.heap.len() - 1, entry);
            }
            i => {
                let i = i as usize;
                if entry.before(&self.heap[i]) {
                    self.sift_up(i, entry);
                } else {
                    self.sift_down(i, entry);
                }
            }
        }
    }

    /// Drop `rank`'s `flow` prediction, if it has one.
    pub fn cancel(&mut self, rank: usize, flow: FlowId) {
        if let Some(&i) = self.pos.get(slot(rank, flow)) {
            if i != UNSCHEDULED {
                self.remove_at(i as usize);
            }
        }
    }

    /// Whether `rank`'s `flow` has a prediction queued.
    pub fn is_scheduled(&self, rank: usize, flow: FlowId) -> bool {
        self.pos
            .get(slot(rank, flow))
            .is_some_and(|&i| i != UNSCHEDULED)
    }

    /// Remove and return the earliest prediction by `(time, seq)`:
    /// `(time, rank, flow)`.
    pub fn pop(&mut self) -> Option<(f64, usize, FlowId)> {
        if self.heap.is_empty() {
            return None;
        }
        let e = self.remove_at(0);
        let flow = if e.slot.is_multiple_of(2) {
            FlowId::Main
        } else {
            FlowId::Stream
        };
        Some((e.time, e.slot as usize / 2, flow))
    }

    /// Number of queued predictions.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no prediction is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn remove_at(&mut self, i: usize) -> Entry {
        let removed = self.heap[i];
        self.pos[removed.slot as usize] = UNSCHEDULED;
        let last = self.heap.pop().expect("removing from a non-empty heap");
        if i < self.heap.len() {
            if last.before(&removed) {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
        removed
    }

    fn place(&mut self, i: usize, entry: Entry) {
        self.heap[i] = entry;
        self.pos[entry.slot as usize] = i as u32;
    }

    /// Settle `entry` into the hole at `i`, moving it towards the root.
    fn sift_up(&mut self, mut i: usize, entry: Entry) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !entry.before(&self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    /// Settle `entry` into the hole at `i`, moving it towards the leaves.
    fn sift_down(&mut self, mut i: usize, entry: Entry) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right].before(&self.heap[left]) {
                right
            } else {
                left
            };
            if !self.heap[child].before(&entry) {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, entry);
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

    /// One random operation: `(op, rank, flow, time step)`. Schedules
    /// outweigh removals so the heap grows several levels deep. Times sit
    /// on a coarse grid (multiples of 0.25 ahead of the clock), so exact
    /// ties between slots are common.
    fn arb_op() -> impl Strategy<Value = (u8, usize, bool, u32)> {
        (0u8..8, 0usize..12, 0u8..2, 0u32..8).prop_map(|(op, r, f, dt)| (op, r, f == 1, dt))
    }

    proptest! {
        #[test]
        fn heap_matches_the_sorted_reference_model(
            ops in proptest::collection::vec(arb_op(), 1usize..300),
        ) {
            let mut heap = EventQueue::new();
            let mut model = Model::default();
            let mut now = 0.0f64;
            for (op, rank, stream, dt) in ops {
                let flow = if stream { FlowId::Stream } else { FlowId::Main };
                let at = now + 0.25 * dt as f64;
                match op {
                    // Schedule fresh, or re-key to an earlier / later time.
                    0..=2 => {
                        heap.schedule(rank, flow, at);
                        model.schedule(rank, flow, at);
                    }
                    3 | 4 => {
                        let Some(i) = model.find(rank, flow) else { continue };
                        let old = model.live[i].0;
                        let step = 0.25 * dt as f64;
                        let at = if op == 3 { now.max(old - step) } else { old + step };
                        heap.schedule(rank, flow, at);
                        model.schedule(rank, flow, at);
                    }
                    5 => {
                        heap.cancel(rank, flow);
                        model.cancel(rank, flow);
                    }
                    _ => {
                        let got = heap.pop();
                        prop_assert_eq!(got, model.pop());
                        if let Some((t, _, _)) = got {
                            prop_assert!(t >= now, "popped {t} before {now}");
                            now = t;
                        }
                    }
                }
                prop_assert_eq!(heap.len(), model.live.len());
                prop_assert_eq!(heap.is_scheduled(rank, flow), model.find(rank, flow).is_some());
            }
            while let Some(want) = model.pop() {
                prop_assert_eq!(heap.pop(), Some(want));
            }
            prop_assert!(heap.pop().is_none());
            prop_assert!(heap.is_empty());
        }
    }
}
