//! A JAX-like tracing/JIT array framework over a simulated accelerator.
//!
//! This crate is the workspace's stand-in for JAX + XLA, reproducing the
//! programming model the paper evaluates:
//!
//! * **Pure, NumPy-style array programs**: immutable [`Array`] values;
//!   in-place updates are functional (`scatter_add` instead of `out[i] +=`).
//! * **Tracing** ([`trace`]): code runs against [`Tracer`]s that record an
//!   HLO-like SSA graph ([`ir`]); shapes are static and checked at trace
//!   time, so variable-length data (TOAST's intervals) must be padded.
//! * **A compiler** ([`compile`]): DCE, CSE, elementwise fusion and
//!   dot-pattern library matching, with per-stage cost profiles computed
//!   from the static shapes, and an execution plan: strided loop nests over
//!   shared immutable buffers, with each value dropped after its last use.
//! * **A JIT cache** ([`jit`]): one compile per (shapes, statics)
//!   signature, charged to the simulation clock like the paper's runtimes.
//! * **Two backends** ([`exec`]): the simulated device, and a deliberately
//!   weak CPU backend mirroring XLA-CPU (unfused, single-core) that the
//!   paper measured at 7.4x slower than parallel C++.
//!
//! # Example
//!
//! ```
//! use arrayjit::{Array, Backend, Jit};
//! use accel_sim::{Context, NodeCalib};
//!
//! let mut scale_add = Jit::new("scale_add", |_tc, p, _| {
//!     vec![&p[0] * &p[1] + &p[2]]
//! });
//! let mut ctx = Context::new(NodeCalib::default());
//! let out = scale_add.call(
//!     &mut ctx,
//!     Backend::Device,
//!     &[
//!         Array::scalar_f64(3.0),
//!         Array::from_f64(vec![1.0, 2.0]),
//!         Array::from_f64(vec![0.5, 0.5]),
//!     ],
//! );
//! assert_eq!(out[0].as_f64(), &[3.5, 6.5]);
//! ```

#![forbid(unsafe_code)]

pub mod array;
pub mod compile;
pub mod exec;
pub mod ir;
pub mod jit;
mod plan;
pub mod shape;
pub mod trace;

pub use array::{Array, DType, Data};
pub use compile::{Program, Stage, StageKind};
pub use exec::{run, Backend};
pub use jit::Jit;
pub use shape::Shape;
pub use trace::{TraceContext, Tracer};
