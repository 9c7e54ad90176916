//! `jit`: trace-once, compile-once-per-signature function wrappers.
//!
//! Mirrors `jax.jit`: the wrapped function is traced the first time it is
//! called with a new *signature* (argument shapes/dtypes plus any static
//! arguments, like the paper's static maximum interval size); the compiled
//! program is cached and reused for subsequent calls. The one-time compile
//! cost and the per-call dispatch cost are charged to the simulation
//! context, which is how JIT compilation time ends up inside the
//! benchmarks — the paper's runtimes include it too.

use std::collections::HashMap;
use std::sync::Arc;

use accel_sim as accel;

use crate::array::{Array, DType};
use crate::compile::{compile, Program};
use crate::exec::{run, Backend};
use crate::shape::Shape;
use crate::trace::{TraceContext, Tracer};

type Signature = (Vec<(Shape, DType)>, Vec<i64>);
type BuildFn = dyn Fn(&TraceContext, &[Tracer], &[i64]) -> Vec<Tracer> + Send;

/// A JIT-compiled function with a per-signature program cache.
pub struct Jit {
    name: String,
    build: Box<BuildFn>,
    cache: HashMap<Signature, Arc<Program>>,
}

impl Jit {
    /// Wrap `build`, which receives one [`Tracer`] per runtime argument and
    /// the static arguments, and returns the output tracers.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn(&TraceContext, &[Tracer], &[i64]) -> Vec<Tracer> + Send + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            build: Box::new(build),
            cache: HashMap::new(),
        }
    }

    /// The function name (used for accounting labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of distinct signatures compiled so far.
    pub fn compiled_signatures(&self) -> usize {
        self.cache.len()
    }

    /// Call with runtime arguments only.
    pub fn call(
        &mut self,
        ctx: &mut accel::Context,
        backend: Backend,
        args: &[Array],
    ) -> Vec<Array> {
        self.call_static(ctx, backend, args, &[])
    }

    /// Call with runtime arguments and static (trace-time) arguments.
    ///
    /// A new `(shapes, statics)` signature triggers a trace + compile,
    /// charging `FrameworkCalib::jit_compile` host seconds; cached
    /// signatures skip straight to execution.
    pub fn call_static(
        &mut self,
        ctx: &mut accel::Context,
        backend: Backend,
        args: &[Array],
        statics: &[i64],
    ) -> Vec<Array> {
        let sig: Signature = (
            args.iter()
                .map(|a| (a.shape().clone(), a.dtype()))
                .collect(),
            statics.to_vec(),
        );
        let program = match self.cache.get(&sig) {
            Some(p) => p.clone(),
            None => {
                let tc = TraceContext::new();
                let params: Vec<Tracer> = args
                    .iter()
                    .map(|a| tc.param(a.shape().clone(), a.dtype()))
                    .collect();
                let outs = (self.build)(&tc, &params, statics);
                let out_refs: Vec<&Tracer> = outs.iter().collect();
                let graph = tc.finish(&out_refs);
                let program = Arc::new(compile(&self.name, &graph));
                ctx.host_compute(
                    format!("{}/jit_compile", self.name),
                    ctx.calib.framework.jit_compile,
                );
                self.cache.insert(sig, program.clone());
                program
            }
        };
        run(ctx, backend, &program, args)
    }

    /// The compiled program for a signature, if cached (for inspection in
    /// tests and the LoC/fusion analysis).
    pub fn program_for(&self, args: &[Array], statics: &[i64]) -> Option<Arc<Program>> {
        let sig: Signature = (
            args.iter()
                .map(|a| (a.shape().clone(), a.dtype()))
                .collect(),
            statics.to_vec(),
        );
        self.cache.get(&sig).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::NodeCalib;

    fn ctx() -> accel::Context {
        accel::Context::new(NodeCalib::default())
    }

    fn saxpy() -> Jit {
        Jit::new("saxpy", |_tc, params, _statics| {
            let (a, x, y) = (&params[0], &params[1], &params[2]);
            vec![a * x + y]
        })
    }

    #[test]
    fn computes_and_caches() {
        let mut f = saxpy();
        let mut c = ctx();
        let a = Array::scalar_f64(2.0);
        let x = Array::from_f64(vec![1., 2., 3.]);
        let y = Array::from_f64(vec![10., 10., 10.]);
        let out = f.call(&mut c, Backend::Device, &[a.clone(), x.clone(), y.clone()]);
        assert_eq!(out[0].as_f64(), &[12., 14., 16.]);
        assert_eq!(f.compiled_signatures(), 1);

        // Same signature: no recompile.
        f.call(&mut c, Backend::Device, &[a.clone(), x, y]);
        assert_eq!(f.compiled_signatures(), 1);
        assert_eq!(c.stats()["saxpy/jit_compile"].calls, 1);

        // New shape: recompile.
        let x2 = Array::from_f64(vec![1., 2.]);
        let y2 = Array::from_f64(vec![0., 0.]);
        f.call(&mut c, Backend::Device, &[a, x2, y2]);
        assert_eq!(f.compiled_signatures(), 2);
        assert_eq!(c.stats()["saxpy/jit_compile"].calls, 2);
    }

    #[test]
    fn statics_are_part_of_the_key() {
        let mut f = Jit::new("pad", |tc, params, statics| {
            let n = statics[0] as usize;
            let x = &params[0];
            // Gather the first n elements (a static slice via iota).
            let idx = tc.iota(n);
            vec![x.gather(&idx)]
        });
        let mut c = ctx();
        let x = Array::from_f64(vec![1., 2., 3., 4.]);
        let a = f.call_static(&mut c, Backend::Device, std::slice::from_ref(&x), &[2]);
        assert_eq!(a[0].as_f64(), &[1., 2.]);
        let b = f.call_static(&mut c, Backend::Device, std::slice::from_ref(&x), &[3]);
        assert_eq!(b[0].as_f64(), &[1., 2., 3.]);
        assert_eq!(f.compiled_signatures(), 2);
    }

    #[test]
    fn dispatch_charged_every_call() {
        let mut f = saxpy();
        let mut c = ctx();
        let args = [
            Array::scalar_f64(1.0),
            Array::from_f64(vec![1.0; 8]),
            Array::from_f64(vec![2.0; 8]),
        ];
        for _ in 0..5 {
            f.call(&mut c, Backend::Device, &args);
        }
        assert_eq!(c.stats()["saxpy/dispatch"].calls, 5);
    }

    #[test]
    fn multiple_outputs() {
        let mut f = Jit::new("sumdiff", |_tc, p, _| vec![&p[0] + &p[1], &p[0] - &p[1]]);
        let mut c = ctx();
        let out = f.call(
            &mut c,
            Backend::Device,
            &[Array::from_f64(vec![5., 7.]), Array::from_f64(vec![1., 2.])],
        );
        assert_eq!(out[0].as_f64(), &[6., 9.]);
        assert_eq!(out[1].as_f64(), &[4., 5.]);
    }

    #[test]
    fn cpu_and_device_backends_agree_numerically() {
        let mut f = Jit::new("agree", |tc, p, _| {
            let x = &p[0];
            vec![x.sin() * x.cos() + tc.constant(1.0)]
        });
        let x = Array::from_f64((0..64).map(|i| i as f64 * 0.1).collect::<Vec<_>>());
        let mut c1 = ctx();
        let dev = f.call(&mut c1, Backend::Device, std::slice::from_ref(&x));
        let mut c2 = ctx();
        let cpu = f.call(&mut c2, Backend::Cpu, std::slice::from_ref(&x));
        assert_eq!(dev[0], cpu[0]);
    }
}
