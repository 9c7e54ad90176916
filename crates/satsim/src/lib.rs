//! Satellite CMB telescope simulation workloads.
//!
//! The paper's benchmark "simulates the characteristic scanning motion of
//! a space-based CMB telescope ... with a couple thousand detectors
//! observing a simulated sky". This crate generates that workload:
//!
//! * [`scan`] — the boresight attitude: spacecraft spin composed with a
//!   precessing anti-solar axis (the classic WMAP/Planck-style strategy),
//!   plus the variable-length science intervals between repointings;
//! * [`focalplane`] — detector layouts fanned in rings around the
//!   boresight, with polarisation angles and per-detector 1/f noise;
//! * [`sky`] — a structured synthetic I/Q/U sky map;
//! * [`noise`] — reproducible 1/f + white noise timestreams (counter RNG +
//!   FFT colouring);
//! * [`problem`] — the paper's `medium` (5·10⁹ samples) and `large`
//!   (5·10¹⁰ samples) configurations with a documented scale factor, and
//!   per-rank workspace construction.

#![forbid(unsafe_code)]

pub mod focalplane;
pub mod noise;
pub mod problem;
pub mod scan;
pub mod sky;

pub use problem::{Problem, ProblemSize, RunInputs};
