//! Offline stand-in for the `rayon` API subset this workspace uses, plus
//! the one fan-out helper every parallel site shares.
//!
//! The build container has no network access and no cargo registry cache,
//! so the real rayon cannot be fetched. This shim keeps the call sites
//! source-compatible by handing back the standard *sequential* iterators:
//! `par_chunks_mut` → `chunks_mut`, `par_iter_mut` → `iter_mut`. Every
//! adaptor the code chains afterwards (`enumerate`, `for_each`, …) is the
//! std one.
//!
//! Correctness is unaffected: the simulator's *virtual* clock charges
//! thread-level parallelism through its cost model, never through host
//! wall time. Host wall time is another matter, so the two sites where
//! parallelism pays do not use these iterators. They call [`fan_out`]
//! (scoped std threads pulling slots from a shared cursor, with
//! [`worker_count`] workers): the what-if sweep over its independent grid
//! points, and `run_live` over a run's ranks, which are independent
//! simulated processes with their own virtual clocks. There is no pool;
//! each call spawns its helpers and joins them before it returns.
//!
//! The sites that stay on the sequential iterators do so on purpose: the
//! engine's per-shard loop, whose replays already run inside a parallel
//! sweep or take under 1 % of a live run, and the cpu kernels'
//! `par_chunks_mut`, which already run inside a parallel rank.
//!
//! Parallel ranks cost resident memory: each worker thread gets its own
//! glibc malloc arena, which keeps freed pages. A prototype of the
//! parallel rank loop alone raised `live` peak RSS by ≈24 %. The rank
//! loop landed together with replays that record no timeline unless a
//! trace file is written, and the pair took `live` from 49.1 to 78.4
//! runs/s and its peak RSS from 15.7 to 13.2 MB on two cores
//! (EXPERIMENTS.md, "Ranks on every core, timelines only for traces").

#![forbid(unsafe_code)]

use std::sync::{Mutex, PoisonError};

pub mod prelude {
    pub use crate::{ParallelSliceMut, SliceParIterMut};
}

/// `par_chunks_mut()` on slices.
pub trait ParallelSliceMut<T> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T>;
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
        self.chunks_mut(chunk_size)
    }
}

/// `par_iter_mut()` on slices (and `Vec` through deref).
pub trait SliceParIterMut<T> {
    fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T>;
}

impl<T> SliceParIterMut<T> for [T] {
    fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.iter_mut()
    }
}

/// Worker threads for one [`fan_out`]: `RAYON_NUM_THREADS` when set to a
/// positive count, else the machine's available parallelism. Read on
/// every call, so a caller may change it between fan-outs.
pub fn worker_count() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Run `eval(first + j, &mut slots[j])` for every slot on up to `workers`
/// threads (capped at the slot count): the caller plus scoped helpers.
/// Workers pull the next slot from a shared cursor, so cheap and
/// expensive slots balance. Each call touches only its own slot, so the
/// result is the sequential loop's for every worker count. One worker
/// runs every slot on the caller's thread and spawns nothing. A
/// panicking `eval` re-raises its own payload.
pub fn fan_out<T: Send>(
    slots: &mut [T],
    first: usize,
    workers: usize,
    eval: impl Fn(usize, &mut T) + Sync,
) {
    let helpers = workers.min(slots.len()).saturating_sub(1);
    // The guard lives only across `next()`, which cannot panic, so the
    // cursor is never poisoned; `into_inner` spares an unreachable panic.
    let cursor = Mutex::new(slots.iter_mut().enumerate());
    let worker = || loop {
        let next = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some((j, slot)) = next else { return };
        eval(first + j, slot);
    };
    // Join every helper (an unjoined panicked thread would make `scope`
    // raise its own generic panic), then re-raise the first payload. A
    // panic on the caller's own share unwinds through `scope`, which
    // re-raises it after the helpers finish.
    let panicked = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(worker)).collect();
        worker();
        handles
            .into_iter()
            .fold(None, |first, h| first.or(h.join().err()))
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn adapters_behave_like_std() {
        let mut data = vec![0u32; 6];
        data.par_chunks_mut(2)
            .enumerate()
            .for_each(|(i, chunk)| chunk.fill(i as u32));
        assert_eq!(data, vec![0, 0, 1, 1, 2, 2]);

        data.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(data, vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn fan_out_evaluates_every_slot_once_like_the_sequential_loop() {
        let value = |i: usize| (i as f64 + 0.5).sqrt().to_bits();
        for len in [0usize, 1, 2, 16] {
            let sequential: Vec<(usize, u32, u64)> =
                (0..len).map(|j| (7 + j, 1, value(7 + j))).collect();
            for workers in [1usize, 2, 3, 8] {
                let mut slots = vec![(usize::MAX, 0u32, 0u64); len];
                let threads = Mutex::new(std::collections::HashSet::new());
                fan_out(&mut slots, 7, workers, |i, slot| {
                    threads.lock().unwrap().insert(std::thread::current().id());
                    *slot = (i, slot.1 + 1, value(i));
                });
                assert_eq!(slots, sequential, "len={len} workers={workers}");
                let threads = threads.into_inner().unwrap();
                assert!(
                    threads.len() <= workers.min(len),
                    "len={len} workers={workers}"
                );
                if workers == 1 && len > 0 {
                    // One worker runs inline on the caller's thread.
                    assert!(threads.contains(&std::thread::current().id()));
                }
            }
        }
    }

    #[test]
    fn fan_out_runs_slots_concurrently() {
        // Two slots rendezvous: each waits (bounded) for the other to
        // start. A sequential loop times out and fails instead of hanging.
        let started = (Mutex::new(0usize), std::sync::Condvar::new());
        let mut met = [false; 2];
        fan_out(&mut met, 0, 2, |_, met| {
            let (count, cv) = &started;
            let mut n = count.lock().unwrap();
            *n += 1;
            cv.notify_all();
            let (n, _) = cv
                .wait_timeout_while(n, std::time::Duration::from_secs(20), |n| *n < 2)
                .unwrap();
            *met = *n == 2;
        });
        assert_eq!(met, [true, true], "slots did not run side by side");
    }

    #[test]
    fn a_panicking_slot_reraises_its_own_payload() {
        for workers in [1usize, 2, 3, 8] {
            let mut slots = vec![0u8; 16];
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fan_out(&mut slots, 0, workers, |i, _| {
                    if i == 11 {
                        panic!("grid point {i} exploded");
                    }
                })
            }))
            .expect_err("the panic must propagate");
            assert_eq!(
                err.downcast_ref::<String>().map(String::as_str),
                Some("grid point 11 exploded"),
                "workers={workers}"
            );
        }
    }
}
