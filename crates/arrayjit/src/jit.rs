//! `jit`: trace-once, compile-once-per-signature function wrappers.
//!
//! Mirrors `jax.jit`: the wrapped function is traced the first time it is
//! called with a new *signature* (argument shapes/dtypes plus any static
//! arguments, like the paper's static maximum interval size); the compiled
//! program is cached and reused for subsequent calls. The one-time compile
//! cost and the per-call dispatch cost are charged to the simulation
//! context, which is how JIT compilation time ends up inside the
//! benchmarks — the paper's runtimes include it too.
//!
//! Each simulated process holds its own handle and is charged its own
//! compiles. Handles made with [`Jit::share`] also share one store of
//! compiled programs, so the host traces and compiles each signature once
//! however many processes meet it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use accel_sim as accel;

use crate::array::{Array, DType};
use crate::compile::{compile, Program};
use crate::exec::{charge, evaluate, Backend};
use crate::shape::Shape;
use crate::trace::{TraceContext, Tracer};

type Signature = (Vec<(Shape, DType)>, Vec<i64>);
type BuildFn = dyn Fn(&TraceContext, &[Tracer], &[i64]) -> Vec<Tracer> + Send + Sync;

/// A traced function and every program compiled from it, shared by the
/// handles [`Jit::share`] makes.
struct Function {
    name: String,
    build: Box<BuildFn>,
    programs: Mutex<HashMap<Signature, Arc<Program>>>,
}

impl Function {
    /// The program for `sig`, traced and compiled on its first request.
    /// The lock is held while compiling, so each signature compiles once.
    fn program(&self, sig: &Signature, args: &[Array], statics: &[i64]) -> Arc<Program> {
        // A build that panicked poisoned the lock before its insert: the
        // map only ever holds finished programs, so it is safe to reuse.
        let mut programs = self.programs.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(p) = programs.get(sig) {
            return p.clone();
        }
        let tc = TraceContext::new();
        let params: Vec<Tracer> = args
            .iter()
            .map(|a| tc.param(a.shape().clone(), a.dtype()))
            .collect();
        let outs = (self.build)(&tc, &params, statics);
        let out_refs: Vec<&Tracer> = outs.iter().collect();
        let graph = tc.finish(&out_refs);
        let program = Arc::new(compile(&self.name, &graph));
        programs.insert(sig.clone(), program.clone());
        program
    }
}

/// A JIT-compiled function: one process's handle, with its own
/// per-signature program cache.
pub struct Jit {
    function: Arc<Function>,
    cache: HashMap<Signature, Arc<Program>>,
}

impl Jit {
    /// Wrap `build`, which receives one [`Tracer`] per runtime argument and
    /// the static arguments, and returns the output tracers.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn(&TraceContext, &[Tracer], &[i64]) -> Vec<Tracer> + Send + Sync + 'static,
    ) -> Self {
        Self {
            function: Arc::new(Function {
                name: name.into(),
                build: Box::new(build),
                programs: Mutex::new(HashMap::new()),
            }),
            cache: HashMap::new(),
        }
    }

    /// A new handle on the same function for another process: it starts
    /// with no signatures of its own and is charged its own compiles, but
    /// takes the programs from the store it shares with `self`.
    pub fn share(&self) -> Self {
        Self {
            function: self.function.clone(),
            cache: HashMap::new(),
        }
    }

    /// The function name (used for accounting labels).
    pub fn name(&self) -> &str {
        &self.function.name
    }

    /// Number of distinct signatures this handle has compiled.
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
    /// A `(shapes, statics)` signature new to this handle triggers a
    /// compile, charging `FrameworkCalib::jit_compile` host seconds;
    /// cached signatures skip straight to execution.
    pub fn call_static(
        &mut self,
        ctx: &mut accel::Context,
        backend: Backend,
        args: &[Array],
        statics: &[i64],
    ) -> Vec<Array> {
        let program = self.charge_static(ctx, backend, args, statics);
        evaluate(&program, args)
    }

    /// The charge half of [`Jit::call_static`]: the compile-cache lookup
    /// (a new signature compiles and is charged the compile) and the
    /// backend's per-call dispatch, launch, runtime and scratch charges,
    /// without evaluating the program. A caller that already holds this
    /// call's outputs (a pipeline repeating a kernel over unchanged
    /// inputs) is charged exactly what the call would cost.
    pub fn charge_static(
        &mut self,
        ctx: &mut accel::Context,
        backend: Backend,
        args: &[Array],
        statics: &[i64],
    ) -> Arc<Program> {
        let sig = signature(args, statics);
        let program = match self.cache.get(&sig) {
            Some(p) => p.clone(),
            None => {
                let program = self.function.program(&sig, args, statics);
                ctx.host_compute(
                    format!("{}/jit_compile", self.function.name),
                    ctx.calib.framework.jit_compile,
                );
                self.cache.insert(sig, program.clone());
                program
            }
        };
        charge(ctx, backend, &program, args);
        program
    }

    /// The compiled program for a signature, if this handle has compiled
    /// it (for inspection in tests and the LoC/fusion analysis).
    pub fn program_for(&self, args: &[Array], statics: &[i64]) -> Option<Arc<Program>> {
        self.cache.get(&signature(args, statics)).cloned()
    }
}

fn signature(args: &[Array], statics: &[i64]) -> Signature {
    (
        args.iter()
            .map(|a| (a.shape().clone(), a.dtype()))
            .collect(),
        statics.to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::NodeCalib;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn shared_handles_build_once_and_are_each_charged() {
        let builds = Arc::new(AtomicUsize::new(0));
        let counter = builds.clone();
        let mut a = Jit::new("count", move |_tc, p, _| {
            counter.fetch_add(1, Ordering::Relaxed);
            vec![&p[0] + &p[1]]
        });
        let mut b = a.share();
        let three = [
            Array::from_f64(vec![1., 2., 3.]),
            Array::from_f64(vec![1.; 3]),
        ];
        let two = [Array::from_f64(vec![1., 2.]), Array::from_f64(vec![1.; 2])];
        let (mut ca, mut cb) = (ctx(), ctx());

        a.call(&mut ca, Backend::Device, &three);
        a.call(&mut ca, Backend::Device, &three);
        let out = b.call(&mut cb, Backend::Device, &three);
        assert_eq!(out[0].as_f64(), &[2., 3., 4.]);
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        b.call(&mut cb, Backend::Device, &two);
        a.call(&mut ca, Backend::Device, &two);
        assert_eq!(builds.load(Ordering::Relaxed), 2);

        // Each handle is a process: charged per signature it meets, with
        // its own signature count, exactly as a fresh handle would be.
        let mut fresh = Jit::new("count", |_tc, p, _| vec![&p[0] + &p[1]]);
        let mut cf = ctx();
        fresh.call(&mut cf, Backend::Device, &three);
        fresh.call(&mut cf, Backend::Device, &two);
        for (h, c) in [(&a, &ca), (&b, &cb)] {
            assert_eq!(h.compiled_signatures(), 2);
            let (got, want) = (
                &c.stats()["count/jit_compile"],
                &cf.stats()["count/jit_compile"],
            );
            assert_eq!(got.calls, 2);
            assert_eq!(got.seconds.to_bits(), want.seconds.to_bits());
        }
        let mut c = b.share();
        assert_eq!(c.compiled_signatures(), 0);
        assert!(c.program_for(&two, &[]).is_none());
        c.call(&mut ctx(), Backend::Device, &two);
        assert_eq!(c.compiled_signatures(), 1);
        assert_eq!(builds.load(Ordering::Relaxed), 2);
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
    fn charge_half_charges_what_the_call_charges() {
        let args = [
            Array::scalar_f64(3.0),
            Array::from_f64(vec![1.0; 8]),
            Array::from_f64(vec![2.0; 8]),
        ];
        for backend in [Backend::Device, Backend::Cpu] {
            let (mut called, mut charged) = (saxpy(), saxpy());
            let (mut c1, mut c2) = (ctx(), ctx());
            for _ in 0..2 {
                called.call(&mut c1, backend, &args);
                charged.charge_static(&mut c2, backend, &args, &[]);
            }
            assert_eq!(c1.trace(), c2.trace(), "{backend:?}");
            assert_eq!(charged.compiled_signatures(), 1);
        }
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
