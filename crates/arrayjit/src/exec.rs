//! Program execution: real numerics on the host, simulated cost on the
//! selected backend.
//!
//! The evaluator runs the execution plan [`crate::compile`] lowered for
//! the program over concrete [`Array`]s (so results are exact and
//! testable), then charges the [`accel_sim::Context`] according to the
//! backend:
//!
//! * [`Backend::Device`] — one launch per compiled stage, with the fused
//!   profiles from [`crate::compile`]; intermediates come from the memory
//!   pool and are returned at the end of the call.
//! * [`Backend::Cpu`] — the XLA-CPU analogue: ops run *unfused*, single
//!   threaded, with materialised intermediates, at a calibrated efficiency
//!   (`FrameworkCalib::jit_cpu_backend_eff`). The paper found this backend
//!   7.4× slower than the parallel C++ baseline (§ 4.2).
//!
//! Every elementwise node runs as strided loops over its operands' shared
//! buffers, with the op chosen once per node; each element is computed by
//! the same IEEE operation as a one-element-at-a-time evaluation, and
//! reductions and scatters keep their sequential order, so the loop
//! structure cannot change a bit of any output.

use std::sync::Arc;

use accel_sim as accel;

use crate::array::{Array, DType, Data};
use crate::compile::Program;
use crate::ir::{BinaryOp, Node, UnaryOp};
use crate::plan::{Func, Nest, Plan, Step, View};

/// Which backend a program call is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The simulated accelerator.
    Device,
    /// The deliberately weak CPU backend.
    Cpu,
}

/// Execute `program` on `args`, charging `ctx`.
///
/// Returns the output arrays. Panics on signature mismatches (the same
/// errors JAX raises when a cached executable is called with wrong shapes —
/// the JIT cache in [`crate::jit`] prevents this by re-tracing).
pub fn run(
    ctx: &mut accel::Context,
    backend: Backend,
    program: &Program,
    args: &[Array],
) -> Vec<Array> {
    assert_eq!(
        args.len(),
        program.graph.params.len(),
        "{}: expected {} arguments, got {}",
        program.name,
        program.graph.params.len(),
        args.len()
    );
    for (i, ((shape, dtype), arg)) in program.graph.params.iter().zip(args).enumerate() {
        assert_eq!(
            arg.shape(),
            shape,
            "{}: argument {i} shape {} does not match compiled signature {shape}",
            program.name,
            arg.shape()
        );
        assert_eq!(arg.dtype(), *dtype, "{}: argument {i} dtype", program.name);
    }

    charge(ctx, backend, program);
    evaluate(program, args)
}

/// Charge the simulator for one invocation of `program`.
fn charge(ctx: &mut accel::Context, backend: Backend, program: &Program) {
    let fw = ctx.calib.framework;
    match backend {
        Backend::Device => {
            // Per-call dispatch: cache lookup + argument hashing/staging.
            ctx.host_compute(format!("{}/dispatch", program.name), fw.jit_dispatch);
            // Intermediates live in the pool for the duration of the call,
            // inflated by the pool-slack factor.
            let scratch = (program.peak_stage_bytes as f64 * fw.jit_mem_overhead) as u64;
            let scratch_ok = ctx.device_alloc(scratch, true).is_ok();
            let mut device_seconds = 0.0;
            for stage in &program.stages {
                device_seconds += stage.profile.device_seconds(&ctx.calib.gpu);
                ctx.launch(stage.profile.clone(), 0.0);
            }
            // Runtime-level inefficiency proportional to the work
            // (paper footnote 10).
            let runtime_extra = device_seconds * (fw.jit_runtime_factor - 1.0).max(0.0);
            if runtime_extra > 0.0 {
                ctx.host_compute(format!("{}/runtime", program.name), runtime_extra);
            }
            if scratch_ok {
                ctx.device_free(scratch);
            }
        }
        Backend::Cpu => {
            // Unfused, single-core execution with materialised buffers.
            let cpu = ctx.calib.cpu;
            let eff = fw.jit_cpu_backend_eff;
            let single_core_bw = cpu.socket_bw * 0.06;
            let mut seconds = fw.jit_dispatch;
            for &(flops, bytes) in &program.node_costs {
                seconds += flops / (cpu.core_flops * eff) + bytes / single_core_bw;
            }
            ctx.host_compute(format!("{}/cpu_backend", program.name), seconds);
        }
    }
}

/// Run the plan over concrete values, dropping each intermediate after
/// its last use.
fn evaluate(program: &Program, args: &[Array]) -> Vec<Array> {
    let Plan { steps, drops } = &program.plan;
    let mut values: Vec<Option<Array>> = vec![None; steps.len()];
    for (id, ((step, node), dead)) in steps
        .iter()
        .zip(&program.graph.nodes)
        .zip(drops)
        .enumerate()
    {
        values[id] = Some(eval_step(&program.name, step, node, &values, args));
        for &d in dead {
            values[d] = None;
        }
    }
    program
        .graph
        .outputs
        .iter()
        .map(|&o| get(&values, o).clone())
        .collect()
}

fn get(values: &[Option<Array>], id: usize) -> &Array {
    values[id]
        .as_ref()
        .expect("the plan evaluates every operand before, and drops it after, its uses")
}

fn eval_step(
    name: &str,
    step: &Step,
    node: &Node,
    values: &[Option<Array>],
    args: &[Array],
) -> Array {
    let (dtype, n) = (node.dtype, node.shape.elements());
    let data = match step {
        Step::Param(index) => return args[*index].clone().reshaped(node.shape.clone()),
        Step::Reshape(a) => return get(values, *a).clone().reshaped(node.shape.clone()),
        Step::ConstF64(v) => Data::F64(Arc::new([*v])),
        Step::ConstI64(v) => Data::I64(Arc::new([*v])),
        Step::Iota(len) => Data::I64((0..*len as i64).collect()),
        Step::Map { func, nests } => {
            let nest = &nests[0];
            let arg = |k: usize| get(values, nest.srcs[k].0);
            match *func {
                Func::Unary(op) => unary(op, nest, arg(0), n),
                Func::Binary(op, operands) => binary(name, op, operands, nest, arg(0), arg(1), n),
                Func::Select => {
                    let c = arg(0).as_bool();
                    let (t, f) = (arg(1), arg(2));
                    match dtype {
                        DType::F64 => Data::F64(map3(nest, c, t.as_f64(), f.as_f64(), n)),
                        DType::I64 => Data::I64(map3(nest, c, t.as_i64(), f.as_i64(), n)),
                        DType::Bool => Data::Bool(map3(nest, c, t.as_bool(), f.as_bool(), n)),
                    }
                }
                Func::Convert => {
                    let a = arg(0);
                    match (a.dtype(), dtype) {
                        (DType::F64, DType::I64) => {
                            Data::I64(map1(nest, a.as_f64(), n, |x| x as i64))
                        }
                        (DType::I64, DType::F64) => {
                            Data::F64(map1(nest, a.as_i64(), n, |x| x as f64))
                        }
                        (DType::Bool, DType::F64) => {
                            Data::F64(map1(nest, a.as_bool(), n, |x| if x { 1.0 } else { 0.0 }))
                        }
                        (DType::Bool, DType::I64) => {
                            Data::I64(map1(nest, a.as_bool(), n, i64::from))
                        }
                        // The plan admits only the casts above and identity.
                        _ => copy(nests, values, dtype, n),
                    }
                }
                Func::Copy => copy(nests, values, dtype, n),
            }
        }
        Step::Gather { src, idx } => {
            let idx = get(values, *idx).as_i64();
            match get(values, *src).data() {
                Data::F64(v) => Data::F64(gather(v, idx)),
                Data::I64(v) => Data::I64(gather(v, idx)),
                Data::Bool(v) => Data::Bool(gather(v, idx)),
            }
        }
        Step::ScatterAdd { size, idx, val } => {
            let (idx, val) = (get(values, *idx).as_i64(), get(values, *val));
            if dtype == DType::I64 {
                Data::I64(scatter_add(*size, idx, val.as_i64(), i64::wrapping_add))
            } else {
                Data::F64(scatter_add(*size, idx, val.as_f64(), |s, x| s + x))
            }
        }
        Step::ReduceSum {
            a,
            outer,
            dim,
            inner,
        } => {
            let a = get(values, *a);
            let dims = (*outer, *dim, *inner);
            if dtype == DType::I64 {
                Data::I64(reduce_sum(a.as_i64(), dims, i64::wrapping_add))
            } else {
                Data::F64(reduce_sum(a.as_f64(), dims, |s, x| s + x))
            }
        }
    };
    Array::new(node.shape.clone(), data)
}

fn unary(op: UnaryOp, nest: &Nest, a: &Array, n: usize) -> Data {
    match op {
        UnaryOp::Not => Data::Bool(map1(nest, a.as_bool(), n, |x: bool| !x)),
        UnaryOp::Neg => f64_map(nest, a, n, |x| -x),
        UnaryOp::Abs => f64_map(nest, a, n, f64::abs),
        UnaryOp::Exp => f64_map(nest, a, n, f64::exp),
        UnaryOp::Log => f64_map(nest, a, n, f64::ln),
        UnaryOp::Sqrt => f64_map(nest, a, n, f64::sqrt),
        UnaryOp::Sin => f64_map(nest, a, n, f64::sin),
        UnaryOp::Cos => f64_map(nest, a, n, f64::cos),
        UnaryOp::Floor => f64_map(nest, a, n, f64::floor),
    }
}

fn f64_map(nest: &Nest, a: &Array, n: usize, f: impl Fn(f64) -> f64) -> Data {
    Data::F64(map1(nest, a.as_f64(), n, f))
}

/// `operands` is the dtype of both inputs; the plan admits only F64 and
/// I64 arithmetic (no I64 `Atan2`), F64/I64 comparisons and Bool logic.
fn binary(
    name: &str,
    op: BinaryOp,
    operands: DType,
    nest: &Nest,
    a: &Array,
    b: &Array,
    n: usize,
) -> Data {
    let int = operands == DType::I64;
    let ab = (nest, a, b, n);
    match op {
        BinaryOp::Add => arith(int, ab, |x, y| x + y, i64::wrapping_add),
        BinaryOp::Sub => arith(int, ab, |x, y| x - y, i64::wrapping_sub),
        BinaryOp::Mul => arith(int, ab, |x, y| x * y, i64::wrapping_mul),
        BinaryOp::Div => arith(int, ab, |x, y| x / y, i64::div_euclid),
        BinaryOp::Rem => arith(int, ab, f64::rem_euclid, i64::rem_euclid),
        BinaryOp::Min => arith(int, ab, f64::min, Ord::min),
        BinaryOp::Max => arith(int, ab, f64::max, Ord::max),
        BinaryOp::Atan2 => Data::F64(map2(nest, a.as_f64(), b.as_f64(), n, f64::atan2)),
        BinaryOp::Pow => {
            if int {
                if let Some(y) = b.as_i64().iter().find(|&&y| y < 0) {
                    panic!("{name}: integers cannot be raised to negative powers ({y})");
                }
            }
            arith(int, ab, f64::powf, pow_i64)
        }
        BinaryOp::Lt => compare(int, ab, f64::lt, i64::lt),
        BinaryOp::Le => compare(int, ab, f64::le, i64::le),
        BinaryOp::Gt => compare(int, ab, f64::gt, i64::gt),
        BinaryOp::Ge => compare(int, ab, f64::ge, i64::ge),
        BinaryOp::Eq => compare(int, ab, f64::eq, i64::eq),
        BinaryOp::And => Data::Bool(map2(nest, a.as_bool(), b.as_bool(), n, |x, y| x && y)),
        BinaryOp::Or => Data::Bool(map2(nest, a.as_bool(), b.as_bool(), n, |x, y| x || y)),
    }
}

type Operands<'a> = (&'a Nest, &'a Array, &'a Array, usize);

fn arith(
    int: bool,
    (nest, a, b, n): Operands,
    f: impl Fn(f64, f64) -> f64,
    g: impl Fn(i64, i64) -> i64,
) -> Data {
    if int {
        Data::I64(map2(nest, a.as_i64(), b.as_i64(), n, g))
    } else {
        Data::F64(map2(nest, a.as_f64(), b.as_f64(), n, f))
    }
}

fn compare(
    int: bool,
    (nest, a, b, n): Operands,
    f: impl Fn(&f64, &f64) -> bool,
    g: impl Fn(&i64, &i64) -> bool,
) -> Data {
    Data::Bool(if int {
        map2(nest, a.as_i64(), b.as_i64(), n, |x, y| g(&x, &y))
    } else {
        map2(nest, a.as_f64(), b.as_f64(), n, |x, y| f(&x, &y))
    })
}

/// `x^y` for `y >= 0`, wrapping at 64 bits like `Add`/`Sub`/`Mul` (equal to
/// `i64::wrapping_pow` and defined for exponents past `u32::MAX` too).
fn pow_i64(mut x: i64, y: i64) -> i64 {
    let (mut e, mut acc) = (y as u64, 1i64);
    while e > 0 {
        if e & 1 == 1 {
            acc = acc.wrapping_mul(x);
        }
        x = x.wrapping_mul(x);
        e >>= 1;
    }
    acc
}

/// Broadcast, slice and stack: each nest copies one source into its part
/// of the output.
fn copy(nests: &[Nest], values: &[Option<Array>], dtype: DType, n: usize) -> Data {
    let src = |nest: &Nest| get(values, nest.srcs[0].0);
    match dtype {
        DType::F64 => Data::F64(copy_nests(nests, n, |nest| src(nest).as_f64())),
        DType::I64 => Data::I64(copy_nests(nests, n, |nest| src(nest).as_i64())),
        DType::Bool => Data::Bool(copy_nests(nests, n, |nest| src(nest).as_bool())),
    }
}

fn copy_nests<'a, T: Copy + Default + 'a>(
    nests: &[Nest],
    n: usize,
    src: impl Fn(&Nest) -> &'a [T],
) -> Arc<[T]> {
    match nests {
        [nest] => map1(nest, src(nest), n, |x| x),
        _ => fill(n, |out| {
            for nest in nests {
                write1(nest, src(nest), out, |x| x);
            }
        }),
    }
}

/// A fresh buffer of `n` elements, written by `write`.
fn fill<T: Copy + Default>(n: usize, write: impl FnOnce(&mut [T])) -> Arc<[T]> {
    let mut buf: Arc<[T]> = std::iter::repeat_n(T::default(), n).collect();
    write(Arc::make_mut(&mut buf));
    buf
}

/// Calls `row(offsets)` once per innermost row of `nest`, with the flat
/// start offset of the destination (`offsets[0]`) and of each source.
/// The outer axes advance as an odometer, so no offset is ever divided out.
fn for_rows(nest: &Nest, mut row: impl FnMut(&[usize])) {
    if nest.dims.contains(&0) {
        return;
    }
    let views: Vec<&View> = std::iter::once(&nest.dst)
        .chain(nest.srcs.iter().map(|(_, v)| v))
        .collect();
    let mut offsets: Vec<usize> = views.iter().map(|v| v.offset).collect();
    let outer = nest.dims.len() - 1;
    let mut index = vec![0usize; outer];
    loop {
        row(&offsets);
        let mut axis = outer;
        loop {
            if axis == 0 {
                return;
            }
            axis -= 1;
            index[axis] += 1;
            for (o, v) in offsets.iter_mut().zip(&views) {
                *o += v.strides[axis];
            }
            if index[axis] < nest.dims[axis] {
                break;
            }
            for (o, v) in offsets.iter_mut().zip(&views) {
                *o -= v.strides[axis] * nest.dims[axis];
            }
            index[axis] = 0;
        }
    }
}

/// Innermost extent and the innermost stride of each view.
fn inner<const K: usize>(nest: &Nest) -> (usize, usize, [usize; K]) {
    let last = nest.dims.len() - 1;
    let srcs = std::array::from_fn(|k| nest.srcs[k].1.strides[last]);
    (nest.dims[last], nest.dst.strides[last], srcs)
}

/// Whether the whole output is one contiguous row, which is collected
/// straight into its buffer instead of written into a zeroed one.
fn one_row(nest: &Nest) -> bool {
    nest.dims.len() == 1 && nest.dst.strides[0] == 1
}

fn map1<A: Copy, O: Copy + Default>(
    nest: &Nest,
    a: &[A],
    n: usize,
    f: impl Fn(A) -> O,
) -> Arc<[O]> {
    if !one_row(nest) {
        return fill(n, |out| write1(nest, a, out, f));
    }
    let (len, _, [sa]) = inner::<1>(nest);
    let i = nest.srcs[0].1.offset;
    match sa {
        1 => a[i..i + len].iter().map(|&x| f(x)).collect(),
        _ => (0..len).map(|k| f(a[i + k * sa])).collect(),
    }
}

fn write1<A: Copy, O>(nest: &Nest, a: &[A], out: &mut [O], f: impl Fn(A) -> O) {
    let (len, sd, [sa]) = inner::<1>(nest);
    for_rows(nest, |off| {
        let (d, i) = (off[0], off[1]);
        match (sd, sa) {
            (1, 1) => {
                for (o, &x) in out[d..d + len].iter_mut().zip(&a[i..i + len]) {
                    *o = f(x);
                }
            }
            _ => {
                for k in 0..len {
                    out[d + k * sd] = f(a[i + k * sa]);
                }
            }
        }
    });
}

fn map2<A: Copy, B: Copy, O: Copy + Default>(
    nest: &Nest,
    a: &[A],
    b: &[B],
    n: usize,
    f: impl Fn(A, B) -> O,
) -> Arc<[O]> {
    if !one_row(nest) {
        return fill(n, |out| write2(nest, a, b, out, f));
    }
    let (len, _, [sa, sb]) = inner::<2>(nest);
    let (i, j) = (nest.srcs[0].1.offset, nest.srcs[1].1.offset);
    match (sa, sb) {
        (1, 1) => a[i..i + len]
            .iter()
            .zip(&b[j..j + len])
            .map(|(&x, &y)| f(x, y))
            .collect(),
        (1, 0) => a[i..i + len].iter().map(|&x| f(x, b[j])).collect(),
        (0, 1) => b[j..j + len].iter().map(|&y| f(a[i], y)).collect(),
        _ => (0..len).map(|k| f(a[i + k * sa], b[j + k * sb])).collect(),
    }
}

fn write2<A: Copy, B: Copy, O>(
    nest: &Nest,
    a: &[A],
    b: &[B],
    out: &mut [O],
    f: impl Fn(A, B) -> O,
) {
    let (len, sd, [sa, sb]) = inner::<2>(nest);
    for_rows(nest, |off| {
        let (d, i, j) = (off[0], off[1], off[2]);
        let out = &mut out[d..];
        match (sd, sa, sb) {
            (1, 1, 1) => {
                for ((o, &x), &y) in out[..len]
                    .iter_mut()
                    .zip(&a[i..i + len])
                    .zip(&b[j..j + len])
                {
                    *o = f(x, y);
                }
            }
            (1, 1, 0) => {
                let y = b[j];
                for (o, &x) in out[..len].iter_mut().zip(&a[i..i + len]) {
                    *o = f(x, y);
                }
            }
            (1, 0, 1) => {
                let x = a[i];
                for (o, &y) in out[..len].iter_mut().zip(&b[j..j + len]) {
                    *o = f(x, y);
                }
            }
            _ => {
                for k in 0..len {
                    out[k * sd] = f(a[i + k * sa], b[j + k * sb]);
                }
            }
        }
    });
}

/// `cond ? t : f` over a nest whose sources are `[cond, t, f]`.
fn map3<T: Copy + Default>(nest: &Nest, c: &[bool], t: &[T], f: &[T], n: usize) -> Arc<[T]> {
    if !one_row(nest) {
        return fill(n, |out| write3(nest, c, t, f, out));
    }
    let (len, _, [sc, st, sf]) = inner::<3>(nest);
    let [i, j, k] = std::array::from_fn(|s| nest.srcs[s].1.offset);
    match (sc, st, sf) {
        (1, 1, 1) => c[i..i + len]
            .iter()
            .zip(&t[j..j + len])
            .zip(&f[k..k + len])
            .map(|((&c, &t), &f)| if c { t } else { f })
            .collect(),
        _ => (0..len)
            .map(|e| {
                if c[i + e * sc] {
                    t[j + e * st]
                } else {
                    f[k + e * sf]
                }
            })
            .collect(),
    }
}

fn write3<T: Copy>(nest: &Nest, c: &[bool], t: &[T], f: &[T], out: &mut [T]) {
    let (len, sd, [sc, st, sf]) = inner::<3>(nest);
    for_rows(nest, |off| {
        let (d, i, j, k) = (off[0], off[1], off[2], off[3]);
        for e in 0..len {
            out[d + e * sd] = if c[i + e * sc] {
                t[j + e * st]
            } else {
                f[k + e * sf]
            };
        }
    });
}

fn checked_index(i: i64, len: usize, what: &str) -> usize {
    assert!(
        i >= 0 && (i as usize) < len,
        "{what} index {i} out of bounds for {len}"
    );
    i as usize
}

fn gather<T: Copy>(src: &[T], idx: &[i64]) -> Arc<[T]> {
    idx.iter()
        .map(|&i| src[checked_index(i, src.len(), "gather")])
        .collect()
}

/// `out[idx[i]] = add(out[idx[i]], val[i])` in index order.
fn scatter_add<T: Copy + Default>(
    size: usize,
    idx: &[i64],
    val: &[T],
    add: impl Fn(T, T) -> T,
) -> Arc<[T]> {
    fill(size, |out| {
        for (&i, &x) in idx.iter().zip(val) {
            let slot = &mut out[checked_index(i, size, "scatter")];
            *slot = add(*slot, x);
        }
    })
}

/// Sum over the middle axis of `a` viewed as `[outer, dim, inner]`, each
/// output accumulating its inputs in axis order from zero.
fn reduce_sum<T: Copy + Default>(
    a: &[T],
    (outer, dim, inner): (usize, usize, usize),
    add: impl Fn(T, T) -> T,
) -> Arc<[T]> {
    fill(outer * inner, |out| {
        for o in 0..outer {
            let acc = &mut out[o * inner..(o + 1) * inner];
            for d in 0..dim {
                let base = (o * dim + d) * inner;
                for (s, &x) in acc.iter_mut().zip(&a[base..base + inner]) {
                    *s = add(*s, x);
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::trace::TraceContext;
    use accel_sim::NodeCalib;

    fn ctx() -> accel::Context {
        accel::Context::new(NodeCalib::default())
    }

    fn run_one(build: impl Fn(&TraceContext) -> crate::trace::Tracer, args: &[Array]) -> Array {
        let tc = TraceContext::new();
        let out = build(&tc);
        let g = tc.finish(&[&out]);
        let p = compile("test", &g);
        let mut c = ctx();
        run(&mut c, Backend::Device, &p, args).remove(0)
    }

    #[test]
    fn arithmetic_and_broadcast() {
        let out = run_one(
            |tc| {
                let m = tc.param(vec![2, 3], DType::F64);
                let v = tc.param(vec![3], DType::F64);
                (&m + &v).mul_s(2.0)
            },
            &[
                Array::from_f64_shaped(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]),
                Array::from_f64(vec![10., 20., 30.]),
            ],
        );
        assert_eq!(out.as_f64(), &[22., 44., 66., 28., 50., 72.]);
    }

    #[test]
    fn select_and_compare() {
        let out = run_one(
            |tc| {
                let x = tc.param(vec![4], DType::F64);
                x.gt(&tc.constant(0.0)).select(&x, &x.neg())
            },
            &[Array::from_f64(vec![-1., 2., -3., 4.])],
        );
        assert_eq!(out.as_f64(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        // scatter then gather reproduces a permuted vector.
        let out = run_one(
            |tc| {
                let vals = tc.param(vec![4], DType::F64);
                let idx = tc.param(vec![4], DType::I64);
                let scattered = vals.scatter_add(&idx, 4);
                scattered.gather(&idx)
            },
            &[
                Array::from_f64(vec![10., 20., 30., 40.]),
                Array::from_i64(vec![3, 1, 0, 2]),
            ],
        );
        assert_eq!(out.as_f64(), &[10., 20., 30., 40.]);
    }

    #[test]
    fn scatter_add_accumulates_duplicates() {
        let out = run_one(
            |tc| {
                let vals = tc.param(vec![4], DType::F64);
                let idx = tc.param(vec![4], DType::I64);
                vals.scatter_add(&idx, 3)
            },
            &[
                Array::from_f64(vec![1., 2., 3., 4.]),
                Array::from_i64(vec![0, 0, 2, 2]),
            ],
        );
        assert_eq!(out.as_f64(), &[3., 0., 7.]);
    }

    #[test]
    fn reduce_sum_axes() {
        let m = Array::from_f64_shaped(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let rows = run_one(
            |tc| tc.param(vec![2, 3], DType::F64).reduce_sum(1),
            std::slice::from_ref(&m),
        );
        assert_eq!(rows.as_f64(), &[6., 15.]);
        let cols = run_one(|tc| tc.param(vec![2, 3], DType::F64).reduce_sum(0), &[m]);
        assert_eq!(cols.as_f64(), &[5., 7., 9.]);
    }

    #[test]
    fn slice_and_index_axis() {
        let m = Array::from_f64_shaped(vec![2, 4], (0..8).map(|i| i as f64).collect());
        let col = run_one(|tc| tc.param(vec![2, 4], DType::F64).index_axis(1, 2), &[m]);
        assert_eq!(col.as_f64(), &[2., 6.]);
    }

    #[test]
    fn convert_and_floor() {
        let out = run_one(
            |tc| {
                let x = tc.param(vec![3], DType::F64);
                x.floor().convert(DType::I64)
            },
            &[Array::from_f64(vec![1.9, -0.5, 3.0])],
        );
        assert_eq!(out.as_i64(), &[1, -1, 3]);
    }

    #[test]
    fn i64_euclid_rem() {
        let out = run_one(
            |tc| {
                let x = tc.param(vec![3], DType::I64);
                x.rem(&tc.constant_i64(4))
            },
            &[Array::from_i64(vec![-1, 9, -8])],
        );
        assert_eq!(out.as_i64(), &[3, 1, 0]);
    }

    #[test]
    fn i64_scatter_reduce_and_pow_wrap_like_add() {
        // Debug and release builds must agree: i64 overflow wraps in every
        // op, as `Add`/`Sub`/`Mul` already did.
        let big = i64::MAX - 1;
        let scattered = run_one(
            |tc| {
                let vals = tc.param(vec![3], DType::I64);
                let idx = tc.param(vec![3], DType::I64);
                vals.scatter_add(&idx, 2)
            },
            &[
                Array::from_i64(vec![big, 5, 7]),
                Array::from_i64(vec![0, 0, 1]),
            ],
        );
        assert_eq!(scattered.as_i64(), &[big.wrapping_add(5), 7]);
        let summed = run_one(
            |tc| tc.param(vec![2], DType::I64).reduce_sum(0),
            &[Array::from_i64(vec![big, 5])],
        );
        assert_eq!(summed.as_i64(), &[big.wrapping_add(5)]);
        let powered = run_one(
            |tc| {
                let x = tc.param(vec![3], DType::I64);
                x.pow(&tc.param(vec![3], DType::I64))
            },
            &[
                Array::from_i64(vec![3, -2, 7]),
                Array::from_i64(vec![41, 63, 1 << 33]),
            ],
        );
        // 7^(2^33) is 7 squared 33 times, not 7^0 (the exponent truncated
        // to u32).
        let seven = (0..33).fold(7i64, |x, _| x.wrapping_mul(x));
        assert_eq!(
            powered.as_i64(),
            &[3i64.wrapping_pow(41), (-2i64).wrapping_pow(63), seven]
        );
    }

    #[test]
    #[should_panic(expected = "test: integers cannot be raised to negative powers")]
    fn negative_i64_exponent_is_rejected() {
        run_one(
            |tc| {
                let x = tc.param(vec![2], DType::I64);
                x.pow(&tc.param(vec![2], DType::I64))
            },
            &[Array::from_i64(vec![2, 2]), Array::from_i64(vec![1, -1])],
        );
    }

    #[test]
    fn params_and_reshapes_share_argument_storage() {
        let x = Array::from_f64(vec![1.0, 2.0, 3.0, 4.0]);
        let tc = TraceContext::new();
        let p = tc.param(vec![4], DType::F64);
        let g = tc.finish(&[&p, &p.reshape(vec![2, 2]), &p.mul_s(2.0)]);
        let out = run(
            &mut ctx(),
            Backend::Device,
            &compile("share", &g),
            std::slice::from_ref(&x),
        );
        let shares = |a: &Array| match (a.data(), x.data()) {
            (Data::F64(a), Data::F64(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        assert!(shares(&out[0]) && shares(&out[1]) && !shares(&out[2]));
        assert_eq!(out[1].shape().0, vec![2, 2]);
    }

    #[test]
    fn device_backend_charges_stages() {
        let tc = TraceContext::new();
        let x = tc.param(vec![1000], DType::F64);
        let y = x.sin().mul_s(2.0);
        let g = tc.finish(&[&y]);
        let p = compile("charged", &g);
        let mut c = ctx();
        run(&mut c, Backend::Device, &p, &[Array::zeros(vec![1000])]);
        assert!(c.stats().keys().any(|k| k.starts_with("charged/fused")));
        assert!(c.stats().contains_key("charged/dispatch"));
        assert_eq!(c.trace().kernel_count(), p.stages.len());
    }

    #[test]
    fn cpu_backend_is_much_slower_than_device() {
        let tc = TraceContext::new();
        let x = tc.param(vec![1_000_000], DType::F64);
        let y = x.sin().cos().sqrt().mul_s(2.0);
        let g = tc.finish(&[&y]);
        let p = compile("slow", &g);

        let mut dev = ctx();
        run(
            &mut dev,
            Backend::Device,
            &p,
            &[Array::zeros(vec![1_000_000])],
        );
        let mut cpu = ctx();
        run(&mut cpu, Backend::Cpu, &p, &[Array::zeros(vec![1_000_000])]);
        assert!(
            cpu.total_seconds() > 5.0 * dev.total_seconds(),
            "cpu {} dev {}",
            cpu.total_seconds(),
            dev.total_seconds()
        );
        // The CPU backend launches nothing on the device.
        assert_eq!(cpu.trace().kernel_count(), 0);
    }

    #[test]
    #[should_panic(expected = "does not match compiled signature")]
    fn wrong_shape_is_rejected() {
        let tc = TraceContext::new();
        let x = tc.param(vec![4], DType::F64);
        let y = x.mul_s(1.0);
        let g = tc.finish(&[&y]);
        let p = compile("sig", &g);
        let mut c = ctx();
        run(&mut c, Backend::Device, &p, &[Array::zeros(vec![5])]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_bounds_checked() {
        run_one(
            |tc| {
                let t = tc.param(vec![3], DType::F64);
                let i = tc.param(vec![1], DType::I64);
                t.gather(&i)
            },
            &[Array::from_f64(vec![1., 2., 3.]), Array::from_i64(vec![7])],
        );
    }
}
