//! Offline stand-in for the `rayon` API subset this workspace uses.
//!
//! The build container has no network access and no cargo registry cache,
//! so the real rayon cannot be fetched. This shim keeps the call sites
//! source-compatible by handing back the standard *sequential* iterators:
//! `par_chunks_mut` → `chunks_mut`, `par_iter_mut` → `iter_mut`,
//! `into_par_iter` → `into_iter`. Every adaptor the code chains afterwards
//! (`enumerate`, `for_each`, `map`, `collect`, …) is the std one.
//!
//! Correctness is unaffected: the simulator's *virtual* clock charges
//! thread-level parallelism through its cost model, never through host
//! wall time. Host wall time is another matter, so the one site where
//! parallelism pays does not use this shim: the what-if sweep evaluates
//! its independent grid points on scoped std threads (`fan_out` in
//! `accel_sim::sweep`, `RAYON_NUM_THREADS` workers when set).
//!
//! The sites that stay on these sequential iterators do so on purpose:
//! the engine's per-shard loop, the `run_config` rank loop and the cpu
//! kernels' `par_chunks_mut`. A prototype that made this whole shim
//! parallel with scoped threads lifted the `live` wall-clock workload
//! from 19.1 to 31.6 runs/s on two cores, but its peak RSS rose from
//! 23.7 to 29.4 MB (+24 %). The live heap peak was the same at one and
//! two threads (16.3 MB); the extra resident memory is the worker
//! thread's glibc malloc arena keeping freed pages (~4.7 MB), and with
//! fixed malloc thresholds it was still +2.2 MB (~10 %). Parallel ranks
//! in a ~23 MB process therefore cost about a tenth more memory by
//! construction.

#![forbid(unsafe_code)]

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut, SliceParIterMut};
}

/// `into_par_iter()` for anything iterable (ranges in this workspace).
pub trait IntoParallelIterator: IntoIterator + Sized {
    fn into_par_iter(self) -> Self::IntoIter {
        self.into_iter()
    }
}

impl<T: IntoIterator> IntoParallelIterator for T {}

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

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn adapters_behave_like_std() {
        let squares: Vec<u32> = (0u32..5).into_par_iter().map(|x| x * x).collect();
        assert_eq!(squares, vec![0, 1, 4, 9, 16]);

        let mut data = vec![0u32; 6];
        data.par_chunks_mut(2)
            .enumerate()
            .for_each(|(i, chunk)| chunk.fill(i as u32));
        assert_eq!(data, vec![0, 0, 1, 1, 2, 2]);

        data.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(data, vec![1, 1, 2, 2, 3, 3]);
    }
}
