//! Property-based tests: the compiler must preserve semantics, the two
//! backends must agree bit-for-bit, and the compiled execution plan must
//! reproduce a naive one-element-at-a-time reference evaluator bit for bit
//! on random graphs.

use accel_sim::{Context, NodeCalib};
use arrayjit::compile::compile;
use arrayjit::ir::{BinaryOp, Graph, Op, UnaryOp};
use arrayjit::{run, Array, Backend, DType, Data, Jit, Shape, TraceContext, Tracer};
use proptest::prelude::*;

fn ctx() -> Context {
    Context::new(NodeCalib::default())
}

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, len)
}

proptest! {
    /// A redundant traced expression (CSE + DCE fodder) computes the same
    /// values as the plain formula.
    #[test]
    fn compiler_preserves_semantics(xs in finite_vec(32)) {
        let mut f = Jit::new("p", |tc, p, _| {
            let x = &p[0];
            // sin(x) appears twice (CSE), dead exp branch (DCE).
            let _dead = x.abs().exp();
            let s1 = x.sin();
            let s2 = x.sin();
            vec![&s1 + &s2 + tc.constant(1.0)]
        });
        let out = f.call(&mut ctx(), Backend::Device, &[Array::from_f64(xs.clone())]);
        for (o, x) in out[0].as_f64().iter().zip(&xs) {
            let expected = 2.0 * x.sin() + 1.0;
            prop_assert!((o - expected).abs() < 1e-12);
        }
    }

    /// Device and CPU backends produce identical results (only the charged
    /// cost differs).
    #[test]
    fn backends_agree(xs in finite_vec(16), ys in finite_vec(16)) {
        let mut f = Jit::new("b", |tc, p, _| {
            let prod = &p[0] * &p[1];
            let mask = prod.gt(&tc.constant(0.0));
            vec![mask.select(&prod.sqrt(), &prod.neg())]
        });
        let args = [Array::from_f64(xs), Array::from_f64(ys)];
        let dev = f.call(&mut ctx(), Backend::Device, &args);
        let cpu = f.call(&mut ctx(), Backend::Cpu, &args);
        prop_assert_eq!(&dev[0], &cpu[0]);
    }

    /// scatter_add followed by a full reduction conserves the total sum.
    #[test]
    fn scatter_conserves_mass(
        vals in finite_vec(64),
        idx in proptest::collection::vec(0i64..16, 64),
    ) {
        let mut f = Jit::new("sc", |_tc, p, _| {
            vec![p[0].scatter_add(&p[1], 16)]
        });
        let out = f.call(
            &mut ctx(),
            Backend::Device,
            &[Array::from_f64(vals.clone()), Array::from_i64(idx)],
        );
        let total: f64 = out[0].as_f64().iter().sum();
        let expected: f64 = vals.iter().sum();
        prop_assert!((total - expected).abs() < 1e-6_f64.max(expected.abs() * 1e-12));
    }

    /// gather(iota) is the identity.
    #[test]
    fn gather_iota_is_identity(xs in finite_vec(40)) {
        let n = xs.len();
        let mut f = Jit::new("gi", move |tc, p, _| {
            vec![p[0].gather(&tc.iota(n))]
        });
        let out = f.call(&mut ctx(), Backend::Device, &[Array::from_f64(xs.clone())]);
        prop_assert_eq!(out[0].as_f64(), xs.as_slice());
    }

    /// reduce_sum over either axis of a matrix equals the full sum when
    /// chained, and matches a scalar reference.
    #[test]
    fn reductions_match_reference(xs in finite_vec(24)) {
        let mut f = Jit::new("r", |_tc, p, _| {
            vec![p[0].reduce_sum(1).reduce_sum(0), p[0].reduce_sum(0).reduce_sum(0)]
        });
        let m = Array::from_f64_shaped(vec![4, 6], xs.clone());
        let out = f.call(&mut ctx(), Backend::Device, &[m]);
        let expected: f64 = xs.iter().sum();
        prop_assert!((out[0].as_f64()[0] - expected).abs() < 1e-6);
        prop_assert!((out[1].as_f64()[0] - expected).abs() < 1e-6);
    }

    /// The JIT cache never recompiles for a repeated signature, for
    /// arbitrary shapes.
    #[test]
    fn cache_hit_rate(len in 1usize..64, repeats in 1usize..5) {
        let mut f = Jit::new("c", |_tc, p, _| vec![p[0].mul_s(2.0)]);
        let mut c = ctx();
        for _ in 0..repeats {
            f.call(&mut c, Backend::Device, &[Array::zeros(vec![len])]);
        }
        prop_assert_eq!(f.compiled_signatures(), 1);
        prop_assert_eq!(c.stats()["c/jit_compile"].calls, 1);
        prop_assert_eq!(c.stats()["c/dispatch"].calls as usize, repeats);
    }
}

// ---- the reference evaluator ---------------------------------------------

/// Flat index into `src` read at flat index `flat` of the broadcast shape
/// `out`: unravel `flat`, then re-ravel with `src`'s strides, skipping the
/// leading axes `src` lacks and its size-1 axes.
fn broadcast_index(flat: usize, out: &Shape, src: &Shape) -> usize {
    let pad = out.rank() - src.rank();
    let (out_strides, src_strides) = (out.strides(), src.strides());
    (0..out.rank())
        .filter(|&axis| axis >= pad && src.0[axis - pad] != 1)
        .map(|axis| (flat / out_strides[axis]) % out.0[axis] * src_strides[axis - pad])
        .sum()
}

#[test]
fn broadcast_index_maps_correctly() {
    // src [1, 3] broadcast to out [2, 3]: rows repeat.
    let out = Shape(vec![2, 3]);
    let idx: Vec<usize> = (0..6)
        .map(|f| broadcast_index(f, &out, &Shape(vec![1, 3])))
        .collect();
    assert_eq!(idx, vec![0, 1, 2, 0, 1, 2]);
    // Scalar broadcast: always index 0.
    assert!((0..6).all(|f| broadcast_index(f, &out, &Shape::scalar()) == 0));
    // Column vector [2, 1] to [2, 3]: columns repeat.
    let idx: Vec<usize> = (0..6)
        .map(|f| broadcast_index(f, &out, &Shape(vec![2, 1])))
        .collect();
    assert_eq!(idx, vec![0, 0, 0, 1, 1, 1]);
}

/// One dynamically typed element.
#[derive(Debug, Clone, Copy)]
enum E {
    F(f64),
    I(i64),
    B(bool),
}

impl E {
    /// Bitwise identity (NaN payloads and signed zeros included).
    fn bits(self) -> (u8, u64) {
        match self {
            E::F(x) => (0, x.to_bits()),
            E::I(x) => (1, x as u64),
            E::B(x) => (2, x as u64),
        }
    }
}

fn elements(a: &Array) -> Vec<E> {
    match a.data() {
        Data::F64(v) => v.iter().map(|&x| E::F(x)).collect(),
        Data::I64(v) => v.iter().map(|&x| E::I(x)).collect(),
        Data::Bool(v) => v.iter().map(|&x| E::B(x)).collect(),
    }
}

fn ref_unary(op: UnaryOp, x: E) -> E {
    match (op, x) {
        (UnaryOp::Not, E::B(x)) => E::B(!x),
        (UnaryOp::Neg, E::F(x)) => E::F(-x),
        (UnaryOp::Abs, E::F(x)) => E::F(x.abs()),
        (UnaryOp::Exp, E::F(x)) => E::F(x.exp()),
        (UnaryOp::Log, E::F(x)) => E::F(x.ln()),
        (UnaryOp::Sqrt, E::F(x)) => E::F(x.sqrt()),
        (UnaryOp::Sin, E::F(x)) => E::F(x.sin()),
        (UnaryOp::Cos, E::F(x)) => E::F(x.cos()),
        (UnaryOp::Floor, E::F(x)) => E::F(x.floor()),
        other => panic!("reference: unary {other:?}"),
    }
}

fn ref_binary(op: BinaryOp, x: E, y: E) -> E {
    use BinaryOp::*;
    match (x, y) {
        (E::F(x), E::F(y)) => match op {
            Add => E::F(x + y),
            Sub => E::F(x - y),
            Mul => E::F(x * y),
            Div => E::F(x / y),
            Rem => E::F(x.rem_euclid(y)),
            Min => E::F(x.min(y)),
            Max => E::F(x.max(y)),
            Atan2 => E::F(x.atan2(y)),
            Pow => E::F(x.powf(y)),
            Lt => E::B(x < y),
            Le => E::B(x <= y),
            Gt => E::B(x > y),
            Ge => E::B(x >= y),
            Eq => E::B(x == y),
            And | Or => panic!("reference: {op:?} on F64"),
        },
        (E::I(x), E::I(y)) => match op {
            Add => E::I(x.wrapping_add(y)),
            Sub => E::I(x.wrapping_sub(y)),
            Mul => E::I(x.wrapping_mul(y)),
            Div => E::I(x.div_euclid(y)),
            Rem => E::I(x.rem_euclid(y)),
            Min => E::I(x.min(y)),
            Max => E::I(x.max(y)),
            Pow => E::I(x.wrapping_pow(y as u32)),
            Lt => E::B(x < y),
            Le => E::B(x <= y),
            Gt => E::B(x > y),
            Ge => E::B(x >= y),
            Eq => E::B(x == y),
            Atan2 | And | Or => panic!("reference: {op:?} on I64"),
        },
        (E::B(x), E::B(y)) => match op {
            And => E::B(x && y),
            Or => E::B(x || y),
            _ => panic!("reference: {op:?} on Bool"),
        },
        other => panic!("reference: {op:?} on {other:?}"),
    }
}

fn ref_convert(x: E, to: DType) -> E {
    match (x, to) {
        (E::F(x), DType::I64) => E::I(x as i64),
        (E::I(x), DType::F64) => E::F(x as f64),
        (E::B(x), DType::F64) => E::F(if x { 1.0 } else { 0.0 }),
        (E::B(x), DType::I64) => E::I(x as i64),
        (x, _) => x,
    }
}

fn ref_add(x: E, y: E) -> E {
    ref_binary(BinaryOp::Add, x, y)
}

fn zero(dtype: DType) -> E {
    match dtype {
        DType::F64 => E::F(0.0),
        DType::I64 => E::I(0),
        DType::Bool => E::B(false),
    }
}

/// Evaluate `graph` element by element: every elementwise output index is
/// mapped back to each operand with [`broadcast_index`] (or an explicit
/// unravel for slices and stacks), and every op is dispatched per element.
fn reference(graph: &Graph, args: &[Array]) -> Vec<Vec<E>> {
    let mut values: Vec<Vec<E>> = Vec::with_capacity(graph.nodes.len());
    for node in &graph.nodes {
        let out = &node.shape;
        let n = out.elements();
        let val = |id: usize, i: usize| values[id][broadcast_index(i, out, &graph.node(id).shape)];
        let v: Vec<E> = match &node.op {
            Op::Param { index } => elements(&args[*index]),
            Op::ConstF64(x) => vec![E::F(*x)],
            Op::ConstI64(x) => vec![E::I(*x)],
            Op::Iota { len } => (0..*len as i64).map(E::I).collect(),
            Op::Unary { op, a } => (0..n).map(|i| ref_unary(*op, val(*a, i))).collect(),
            Op::Binary { op, a, b } => (0..n)
                .map(|i| ref_binary(*op, val(*a, i), val(*b, i)))
                .collect(),
            Op::Select {
                cond,
                on_true,
                on_false,
            } => (0..n)
                .map(|i| match val(*cond, i) {
                    E::B(true) => val(*on_true, i),
                    _ => val(*on_false, i),
                })
                .collect(),
            Op::Convert { a, to } => (0..n).map(|i| ref_convert(val(*a, i), *to)).collect(),
            Op::Reshape { a } => values[*a].clone(),
            Op::BroadcastTo { a } => (0..n).map(|i| val(*a, i)).collect(),
            Op::SliceAxis { a, axis, start, .. } => {
                let src = &graph.node(*a).shape;
                let (out_strides, src_strides) = (out.strides(), src.strides());
                (0..n)
                    .map(|i| {
                        let j: usize = (0..out.rank())
                            .map(|ax| {
                                let c = (i / out_strides[ax]) % out.0[ax];
                                (c + if ax == *axis { *start } else { 0 }) * src_strides[ax]
                            })
                            .sum();
                        values[*a][j]
                    })
                    .collect()
            }
            Op::StackLast { parts } => {
                let k = parts.len();
                (0..n).map(|i| values[parts[i % k]][i / k]).collect()
            }
            Op::Gather { src, idx } => values[*idx]
                .iter()
                .map(|&i| match i {
                    E::I(i) => values[*src][i as usize],
                    other => panic!("reference: gather index {other:?}"),
                })
                .collect(),
            Op::ScatterAdd { size, idx, val } => {
                let mut acc = vec![zero(node.dtype); *size];
                for (&i, &x) in values[*idx].iter().zip(&values[*val]) {
                    if let E::I(i) = i {
                        acc[i as usize] = ref_add(acc[i as usize], x);
                    }
                }
                acc
            }
            Op::ReduceSum { a, axis } => {
                let dims = &graph.node(*a).shape.0;
                let outer: usize = dims[..*axis].iter().product();
                let inner: usize = dims[axis + 1..].iter().product();
                (0..outer * inner)
                    .map(|j| {
                        let (o, i) = (j / inner.max(1), j % inner.max(1));
                        (0..dims[*axis]).fold(zero(node.dtype), |s, d| {
                            ref_add(s, values[*a][(o * dims[*axis] + d) * inner + i])
                        })
                    })
                    .collect()
            }
        };
        assert_eq!(
            v.len(),
            n,
            "reference: {:?} produced {} of {n}",
            node.op,
            v.len()
        );
        values.push(v);
    }
    graph.outputs.iter().map(|&o| values[o].clone()).collect()
}

// ---- random graphs -------------------------------------------------------

/// SplitMix64, seeded per case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }

    /// Rank 0–3 with size-1 axes common, and some axes long enough for
    /// the plan's contiguous row loops.
    fn shape(&mut self) -> Vec<usize> {
        loop {
            let rank = self.below(4);
            let dims: Vec<usize> = (0..rank).map(|_| self.pick(&[1, 1, 2, 3, 4, 9])).collect();
            if dims.iter().product::<usize>() <= MAX_ELEMENTS {
                return dims;
            }
        }
    }

    fn f64(&mut self) -> f64 {
        let x = self.pick(&[0.0, -0.0, 1.0, -2.5, 0.75, 3.0, 1e-3, 40.0]);
        x + (self.below(7) as f64 - 3.0) * 0.125
    }

    fn array(&mut self, shape: &[usize], dtype: DType) -> Array {
        let n: usize = shape.iter().product();
        let data = match dtype {
            DType::F64 => Data::F64((0..n).map(|_| self.f64()).collect()),
            DType::I64 => Data::I64((0..n).map(|_| self.below(19) as i64 - 9).collect()),
            DType::Bool => Data::Bool((0..n).map(|_| self.below(2) == 1).collect()),
        };
        Array::new(shape.to_vec(), data)
    }
}

fn apply_unary(op: UnaryOp, a: &Tracer) -> Tracer {
    match op {
        UnaryOp::Neg => a.neg(),
        UnaryOp::Abs => a.abs(),
        UnaryOp::Exp => a.exp(),
        UnaryOp::Log => a.log(),
        UnaryOp::Sqrt => a.sqrt(),
        UnaryOp::Sin => a.sin(),
        UnaryOp::Cos => a.cos(),
        UnaryOp::Floor => a.floor(),
        UnaryOp::Not => a.not(),
    }
}

fn apply_binary(op: BinaryOp, a: &Tracer, b: &Tracer) -> Tracer {
    match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => a / b,
        BinaryOp::Rem => a.rem(b),
        BinaryOp::Min => a.min(b),
        BinaryOp::Max => a.max(b),
        BinaryOp::Atan2 => a.atan2(b),
        BinaryOp::Pow => a.pow(b),
        BinaryOp::Lt => a.lt(b),
        BinaryOp::Le => a.le(b),
        BinaryOp::Gt => a.gt(b),
        BinaryOp::Ge => a.ge(b),
        BinaryOp::Eq => a.eq(b),
        BinaryOp::And => a.and(b),
        BinaryOp::Or => a.or(b),
    }
}

const MAX_ELEMENTS: usize = 512;

/// A random value of `dtype` from `pool` that broadcasts with `shape`.
fn partner(g: &mut Gen, pool: &[Tracer], shape: &Shape, dtype: DType) -> Option<Tracer> {
    let fits: Vec<&Tracer> = pool
        .iter()
        .filter(|t| t.dtype() == dtype && t.shape().broadcast(shape).is_some())
        .collect();
    (!fits.is_empty()).then(|| fits[g.below(fits.len())].clone())
}

/// One random op over `pool`, or `None` when the drawn op does not fit.
fn random_op(g: &mut Gen, tc: &TraceContext, pool: &[Tracer]) -> Option<Tracer> {
    use BinaryOp::*;
    let a = g.pick(pool);
    let (shape, dtype) = (a.shape().clone(), a.dtype());
    let t = match g.below(10) {
        0 => match dtype {
            DType::F64 => apply_unary(
                g.pick(&[
                    UnaryOp::Neg,
                    UnaryOp::Abs,
                    UnaryOp::Exp,
                    UnaryOp::Log,
                    UnaryOp::Sqrt,
                    UnaryOp::Sin,
                    UnaryOp::Cos,
                    UnaryOp::Floor,
                ]),
                &a,
            ),
            DType::Bool => a.not(),
            DType::I64 => a.convert(DType::F64),
        },
        1..=3 => match dtype {
            DType::F64 => {
                let op = g.pick(&[
                    Add, Sub, Mul, Div, Rem, Min, Max, Atan2, Pow, Lt, Le, Gt, Ge, Eq,
                ]);
                let b = match g.below(4) {
                    0 => tc.constant(g.f64()),
                    _ => partner(g, pool, &shape, dtype).unwrap_or_else(|| tc.constant(g.f64())),
                };
                apply_binary(op, &a, &b)
            }
            DType::I64 => {
                let op = g.pick(&[Add, Sub, Mul, Min, Max, Lt, Le, Gt, Ge, Eq, Div, Rem, Pow]);
                // Divisors stay non-zero and exponents non-negative.
                let b = match op {
                    Div | Rem => tc.constant_i64(g.pick(&[-3, -1, 2, 5])),
                    Pow => tc.constant_i64(g.below(4) as i64),
                    _ => match g.below(4) {
                        0 => None,
                        _ => partner(g, pool, &shape, dtype),
                    }
                    .unwrap_or_else(|| tc.constant_i64(g.below(9) as i64 - 4)),
                };
                apply_binary(op, &a, &b)
            }
            DType::Bool => {
                let b = partner(g, pool, &shape, dtype)?;
                apply_binary(g.pick(&[And, Or]), &a, &b)
            }
        },
        4 => {
            let cond = partner(g, pool, &shape, DType::Bool)?;
            let b = partner(g, pool, &shape, dtype)?;
            let s = cond.shape().broadcast(&shape)?;
            b.shape().broadcast(&s)?;
            if g.below(2) == 0 {
                cond.select(&a, &b)
            } else {
                cond.select(&b, &a)
            }
        }
        5 => {
            let to = match dtype {
                DType::F64 => DType::I64,
                DType::I64 => DType::F64,
                DType::Bool => g.pick(&[DType::F64, DType::I64]),
            };
            a.convert(to)
        }
        6 => {
            let mut dims = shape.0.clone();
            if g.below(2) == 0 {
                dims = vec![shape.elements()];
            } else {
                dims.insert(g.below(dims.len() + 1), 1);
            }
            a.reshape(dims)
        }
        7 => {
            let mut dims = shape.0.clone();
            let ones: Vec<usize> = (0..dims.len()).filter(|&i| dims[i] == 1).collect();
            if ones.is_empty() || g.below(3) == 0 {
                dims.insert(0, g.pick(&[2, 3]));
            } else {
                dims[g.pick(&ones)] = g.pick(&[2, 3]);
            }
            if dims.iter().product::<usize>() > MAX_ELEMENTS {
                return None;
            }
            a.broadcast_to(dims)
        }
        8 => {
            if shape.rank() == 0 {
                return None;
            }
            let axis = g.below(shape.rank());
            let dim = shape.dim(axis);
            let start = g.below(dim);
            if g.below(2) == 0 {
                a.index_axis(axis, start)
            } else {
                a.slice_axis(axis, start, 1 + g.below(dim - start))
            }
        }
        _ => {
            if g.below(3) == 0 && dtype != DType::Bool && shape.rank() > 0 {
                return Some(a.reduce_sum(g.below(shape.rank())));
            }
            if shape.elements() * 3 > MAX_ELEMENTS {
                return None;
            }
            let same: Vec<Tracer> = pool
                .iter()
                .filter(|t| t.shape() == &shape && t.dtype() == dtype)
                .cloned()
                .collect();
            let others: Vec<Tracer> = (0..1 + g.below(2)).map(|_| g.pick(&same)).collect();
            let refs: Vec<&Tracer> = others.iter().collect();
            a.stack_last(&refs)
        }
    };
    Some(t)
}

/// A random program and arguments. Every case has a node used twice (the
/// first op squares or self-combines a parameter), a parameter returned
/// unchanged as an output, and an output that a later node also reads.
fn random_case(seed: u64) -> (Graph, Vec<Array>) {
    let mut g = Gen(seed);
    let tc = TraceContext::new();
    let mut args = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..1 + g.below(3) {
        let shape = g.shape();
        let dtype = g.pick(&[DType::F64, DType::F64, DType::I64, DType::Bool]);
        args.push(g.array(&shape, dtype));
        pool.push(tc.param(shape, dtype));
    }
    let p0 = pool[0].clone();
    pool.push(match p0.dtype() {
        DType::Bool => p0.and(&p0),
        _ => &p0 * &p0,
    });
    let target = 4 + g.below(16);
    let mut tries = 0;
    while pool.len() < target && tries < 200 {
        tries += 1;
        if let Some(t) = random_op(&mut g, &tc, &pool) {
            pool.push(t);
        }
    }
    // `pool[n_params]` is read by later nodes whenever any were built on it;
    // make it an output either way.
    let n_params = args.len();
    let mut outputs = vec![pool.last().cloned().unwrap_or_else(|| p0.clone()), p0];
    outputs.push(pool[n_params].clone());
    outputs.push(g.pick(&pool));
    let refs: Vec<&Tracer> = outputs.iter().collect();
    (tc.finish(&refs), args)
}

proptest! {
    /// The compiled plan (strided loops, shared buffers, liveness drops)
    /// reproduces the reference evaluator bit for bit on random graphs over
    /// all three dtypes, on both backends.
    #[test]
    fn plan_matches_the_reference_evaluator(seed: u64) {
        let (graph, args) = random_case(seed);
        let want = reference(&graph, &args);
        let program = compile("random", &graph);
        for backend in [Backend::Device, Backend::Cpu] {
            let got = run(&mut ctx(), backend, &program, &args);
            prop_assert_eq!(got.len(), want.len());
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g.shape(), &graph.node(graph.outputs[k]).shape);
                let gb: Vec<(u8, u64)> = elements(g).into_iter().map(E::bits).collect();
                let wb: Vec<(u8, u64)> = w.iter().map(|e| e.bits()).collect();
                prop_assert!(gb == wb, "seed {seed} output {k}: {gb:?} vs {wb:?}");
            }
        }
    }
}

/// Every pairing of these layouts, through a non-commutative binary op, a
/// select and a stack, hits each of the plan's row loops (contiguous,
/// row-broadcast either side, strided) on rows both shorter and longer
/// than its short-row threshold.
#[test]
fn every_broadcast_layout_matches_the_reference_evaluator() {
    let layouts: [&[usize]; 12] = [
        &[],
        &[1],
        &[9],
        &[9, 1],
        &[1, 9],
        &[3, 9],
        &[3, 1],
        &[2, 3, 9],
        &[2, 1, 9],
        &[2, 3, 1],
        &[1, 3, 1],
        &[2, 1, 1],
    ];
    let mut g = Gen(7);
    for a_dims in layouts {
        for b_dims in layouts {
            let (sa, sb) = (Shape(a_dims.to_vec()), Shape(b_dims.to_vec()));
            if sa.broadcast(&sb).is_none() {
                continue;
            }
            let tc = TraceContext::new();
            let a = tc.param(a_dims.to_vec(), DType::F64);
            let b = tc.param(b_dims.to_vec(), DType::F64);
            let diff = &a - &b;
            let pick = a.lt(&b).select(&a, &b);
            let stacked = diff.stack_last(&[&pick, &diff]);
            let graph = tc.finish(&[&diff, &pick, &stacked]);
            let args = [g.array(a_dims, DType::F64), g.array(b_dims, DType::F64)];
            let want = reference(&graph, &args);
            let got = run(
                &mut ctx(),
                Backend::Device,
                &compile("layout", &graph),
                &args,
            );
            for (k, (o, w)) in got.iter().zip(&want).enumerate() {
                let ob: Vec<(u8, u64)> = elements(o).into_iter().map(E::bits).collect();
                let wb: Vec<(u8, u64)> = w.iter().map(|e| e.bits()).collect();
                assert_eq!(ob, wb, "{a_dims:?} with {b_dims:?}, output {k}");
            }
        }
    }
}
