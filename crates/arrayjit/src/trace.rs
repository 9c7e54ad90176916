//! Tracing: building IR graphs by executing Python-style array code.
//!
//! A JIT'd function runs once per input signature against [`Tracer`]
//! values, which record every operation into a [`Graph`] instead of
//! computing — exactly JAX's model, including its constraints: values are
//! unknown during tracing, so data-dependent control flow is impossible
//! and conditionals must be expressed with [`Tracer::select`].
//!
//! Shape and dtype errors surface *at trace time* with descriptive
//! messages — the debugging experience the paper contrasts with OpenMP
//! offload's segfaults.

use std::cell::RefCell;
use std::rc::Rc;

use crate::array::DType;
use crate::ir::{BinaryOp, Graph, Node, NodeId, Op, UnaryOp};
use crate::shape::Shape;

/// The per-trace graph builder.
#[derive(Debug, Clone, Default)]
pub struct TraceContext {
    graph: Rc<RefCell<Graph>>,
}

impl TraceContext {
    /// Fresh, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the next function parameter with the given signature.
    pub fn param(&self, shape: impl Into<Shape>, dtype: DType) -> Tracer {
        let shape = shape.into();
        let index = self.graph.borrow().params.len();
        self.graph.borrow_mut().params.push((shape.clone(), dtype));
        self.push(Op::Param { index }, shape, dtype)
    }

    /// An f64 constant (scalar).
    pub fn constant(&self, v: f64) -> Tracer {
        self.push(Op::ConstF64(v), Shape::scalar(), DType::F64)
    }

    /// An i64 constant (scalar).
    pub fn constant_i64(&self, v: i64) -> Tracer {
        self.push(Op::ConstI64(v), Shape::scalar(), DType::I64)
    }

    /// `[0, 1, …, len-1]` as i64.
    pub fn iota(&self, len: usize) -> Tracer {
        self.push(Op::Iota { len }, Shape(vec![len]), DType::I64)
    }

    /// Finish the trace: the graph with `outputs` as results.
    pub fn finish(&self, outputs: &[&Tracer]) -> Graph {
        let mut graph = self.graph.borrow().clone();
        graph.outputs = outputs.iter().map(|t| t.id).collect();
        graph
    }

    fn push(&self, op: Op, shape: Shape, dtype: DType) -> Tracer {
        let id = self.graph.borrow_mut().push(Node {
            op,
            shape: shape.clone(),
            dtype,
        });
        Tracer {
            graph: self.graph.clone(),
            id,
            shape,
            dtype,
        }
    }
}

/// A symbolic array value inside a trace.
#[derive(Debug, Clone)]
pub struct Tracer {
    graph: Rc<RefCell<Graph>>,
    id: NodeId,
    shape: Shape,
    dtype: DType,
}

impl Tracer {
    /// The static shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dtype.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// The IR node id (for compiler tests).
    pub fn id(&self) -> NodeId {
        self.id
    }

    fn ctx(&self) -> TraceContext {
        TraceContext {
            graph: self.graph.clone(),
        }
    }

    fn push(&self, op: Op, shape: Shape, dtype: DType) -> Tracer {
        self.ctx().push(op, shape, dtype)
    }

    fn assert_same_graph(&self, other: &Tracer) {
        assert!(
            Rc::ptr_eq(&self.graph, &other.graph),
            "tracers from different traces cannot be combined"
        );
    }

    // ---- elementwise unary ----------------------------------------------

    fn unary(&self, op: UnaryOp) -> Tracer {
        let dtype = if op == UnaryOp::Not {
            assert_eq!(self.dtype, DType::Bool, "logical not needs a Bool input");
            DType::Bool
        } else {
            assert_eq!(
                self.dtype,
                DType::F64,
                "unary {op:?} needs an F64 input, got {:?}",
                self.dtype
            );
            DType::F64
        };
        self.push(Op::Unary { op, a: self.id }, self.shape.clone(), dtype)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tracer {
        self.unary(UnaryOp::Neg)
    }
    /// Elementwise absolute value.
    pub fn abs(&self) -> Tracer {
        self.unary(UnaryOp::Abs)
    }
    /// Elementwise `e^x`.
    pub fn exp(&self) -> Tracer {
        self.unary(UnaryOp::Exp)
    }
    /// Elementwise natural log.
    pub fn log(&self) -> Tracer {
        self.unary(UnaryOp::Log)
    }
    /// Elementwise square root.
    pub fn sqrt(&self) -> Tracer {
        self.unary(UnaryOp::Sqrt)
    }
    /// Elementwise sine.
    pub fn sin(&self) -> Tracer {
        self.unary(UnaryOp::Sin)
    }
    /// Elementwise cosine.
    pub fn cos(&self) -> Tracer {
        self.unary(UnaryOp::Cos)
    }
    /// Elementwise floor.
    pub fn floor(&self) -> Tracer {
        self.unary(UnaryOp::Floor)
    }
    /// Elementwise logical not (Bool only).
    pub fn not(&self) -> Tracer {
        self.unary(UnaryOp::Not)
    }

    // ---- elementwise binary ---------------------------------------------

    fn binary(&self, op: BinaryOp, rhs: &Tracer) -> Tracer {
        self.assert_same_graph(rhs);
        let shape = self.shape.broadcast(&rhs.shape).unwrap_or_else(|| {
            panic!(
                "cannot broadcast {} with {} in {op:?}",
                self.shape, rhs.shape
            )
        });
        let dtype = if op.is_comparison() {
            assert_eq!(
                self.dtype, rhs.dtype,
                "comparison {op:?} between {:?} and {:?}",
                self.dtype, rhs.dtype
            );
            DType::Bool
        } else if matches!(op, BinaryOp::And | BinaryOp::Or) {
            assert_eq!(self.dtype, DType::Bool, "{op:?} needs Bool operands");
            assert_eq!(rhs.dtype, DType::Bool, "{op:?} needs Bool operands");
            DType::Bool
        } else {
            assert_eq!(
                self.dtype, rhs.dtype,
                "dtype mismatch in {op:?}: {:?} vs {:?}",
                self.dtype, rhs.dtype
            );
            self.dtype
        };
        self.push(
            Op::Binary {
                op,
                a: self.id,
                b: rhs.id,
            },
            shape,
            dtype,
        )
    }

    /// Elementwise remainder (Euclidean for i64, fmod-style for f64).
    pub fn rem(&self, rhs: &Tracer) -> Tracer {
        self.binary(BinaryOp::Rem, rhs)
    }
    /// Elementwise minimum.
    pub fn min(&self, rhs: &Tracer) -> Tracer {
        self.binary(BinaryOp::Min, rhs)
    }
    /// Elementwise maximum.
    pub fn max(&self, rhs: &Tracer) -> Tracer {
        self.binary(BinaryOp::Max, rhs)
    }
    /// Elementwise `atan2(self, rhs)`.
    pub fn atan2(&self, rhs: &Tracer) -> Tracer {
        self.binary(BinaryOp::Atan2, rhs)
    }
    /// Elementwise power.
    pub fn pow(&self, rhs: &Tracer) -> Tracer {
        self.binary(BinaryOp::Pow, rhs)
    }
    /// Elementwise `<`.
    pub fn lt(&self, rhs: &Tracer) -> Tracer {
        self.binary(BinaryOp::Lt, rhs)
    }
    /// Elementwise `<=`.
    pub fn le(&self, rhs: &Tracer) -> Tracer {
        self.binary(BinaryOp::Le, rhs)
    }
    /// Elementwise `>`.
    pub fn gt(&self, rhs: &Tracer) -> Tracer {
        self.binary(BinaryOp::Gt, rhs)
    }
    /// Elementwise `>=`.
    pub fn ge(&self, rhs: &Tracer) -> Tracer {
        self.binary(BinaryOp::Ge, rhs)
    }
    /// Elementwise `==`.
    pub fn eq(&self, rhs: &Tracer) -> Tracer {
        self.binary(BinaryOp::Eq, rhs)
    }
    /// Elementwise logical and (Bool).
    pub fn and(&self, rhs: &Tracer) -> Tracer {
        self.binary(BinaryOp::And, rhs)
    }
    /// Elementwise logical or (Bool).
    pub fn or(&self, rhs: &Tracer) -> Tracer {
        self.binary(BinaryOp::Or, rhs)
    }

    /// Elementwise `> scalar`.
    pub fn gt_s(&self, v: f64) -> Tracer {
        self.binary(BinaryOp::Gt, &self.ctx().constant(v))
    }
    /// Elementwise `< scalar`.
    pub fn lt_s(&self, v: f64) -> Tracer {
        self.binary(BinaryOp::Lt, &self.ctx().constant(v))
    }
    /// Elementwise `<= scalar`.
    pub fn le_s(&self, v: f64) -> Tracer {
        self.binary(BinaryOp::Le, &self.ctx().constant(v))
    }
    /// Elementwise Euclidean remainder by a scalar.
    pub fn rem_s(&self, v: f64) -> Tracer {
        self.binary(BinaryOp::Rem, &self.ctx().constant(v))
    }
    /// Elementwise maximum with a scalar.
    pub fn max_s(&self, v: f64) -> Tracer {
        self.binary(BinaryOp::Max, &self.ctx().constant(v))
    }
    /// Elementwise minimum with a scalar.
    pub fn min_s(&self, v: f64) -> Tracer {
        self.binary(BinaryOp::Min, &self.ctx().constant(v))
    }

    /// Elementwise multiply by an i64 scalar.
    pub fn mul_s_i(&self, v: i64) -> Tracer {
        self.binary(BinaryOp::Mul, &self.ctx().constant_i64(v))
    }
    /// Elementwise add an i64 scalar.
    pub fn add_s_i(&self, v: i64) -> Tracer {
        self.binary(BinaryOp::Add, &self.ctx().constant_i64(v))
    }
    /// Elementwise Euclidean division by an i64 scalar.
    pub fn div_s_i(&self, v: i64) -> Tracer {
        self.binary(BinaryOp::Div, &self.ctx().constant_i64(v))
    }

    /// Convenience: combine with an f64 scalar constant.
    pub fn add_s(&self, v: f64) -> Tracer {
        self.binary(BinaryOp::Add, &self.ctx().constant(v))
    }
    /// Subtract a scalar.
    pub fn sub_s(&self, v: f64) -> Tracer {
        self.binary(BinaryOp::Sub, &self.ctx().constant(v))
    }
    /// Multiply by a scalar.
    pub fn mul_s(&self, v: f64) -> Tracer {
        self.binary(BinaryOp::Mul, &self.ctx().constant(v))
    }
    /// Divide by a scalar.
    pub fn div_s(&self, v: f64) -> Tracer {
        self.binary(BinaryOp::Div, &self.ctx().constant(v))
    }

    // ---- structural -------------------------------------------------------

    /// Elementwise conditional: both branches are evaluated (predication),
    /// matching JAX `where`.
    pub fn select(&self, on_true: &Tracer, on_false: &Tracer) -> Tracer {
        self.assert_same_graph(on_true);
        self.assert_same_graph(on_false);
        assert_eq!(self.dtype, DType::Bool, "select condition must be Bool");
        assert_eq!(
            on_true.dtype, on_false.dtype,
            "select branches disagree: {:?} vs {:?}",
            on_true.dtype, on_false.dtype
        );
        let shape = self
            .shape
            .broadcast(&on_true.shape)
            .and_then(|s| s.broadcast(&on_false.shape))
            .unwrap_or_else(|| {
                panic!(
                    "select shapes incompatible: cond {} / {} / {}",
                    self.shape, on_true.shape, on_false.shape
                )
            });
        self.push(
            Op::Select {
                cond: self.id,
                on_true: on_true.id,
                on_false: on_false.id,
            },
            shape,
            on_true.dtype,
        )
    }

    /// Convert to another dtype (f64↔i64 truncates toward zero; Bool→number
    /// is 0/1).
    pub fn convert(&self, to: DType) -> Tracer {
        if to == self.dtype {
            return self.clone();
        }
        self.push(Op::Convert { a: self.id, to }, self.shape.clone(), to)
    }

    /// Same elements, new shape.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tracer {
        let shape = shape.into();
        assert_eq!(
            shape.elements(),
            self.shape.elements(),
            "reshape {} to {} changes element count",
            self.shape,
            shape
        );
        self.push(Op::Reshape { a: self.id }, shape, self.dtype)
    }

    /// Broadcast to a concrete larger shape.
    pub fn broadcast_to(&self, shape: impl Into<Shape>) -> Tracer {
        let shape = shape.into();
        assert!(
            self.shape.broadcastable_to(&shape),
            "cannot broadcast {} to {}",
            self.shape,
            shape
        );
        self.push(Op::BroadcastTo { a: self.id }, shape, self.dtype)
    }

    /// Contiguous slice `[start, start+len)` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, len: usize) -> Tracer {
        assert!(axis < self.shape.rank(), "slice axis {axis} out of rank");
        assert!(
            start + len <= self.shape.dim(axis),
            "slice [{start}, {}) exceeds axis {axis} of {}",
            start + len,
            self.shape
        );
        let mut shape = self.shape.clone();
        shape.0[axis] = len;
        self.push(
            Op::SliceAxis {
                a: self.id,
                axis,
                start,
                len,
            },
            shape,
            self.dtype,
        )
    }

    /// Extract index `i` of `axis`, dropping the axis.
    pub fn index_axis(&self, axis: usize, i: usize) -> Tracer {
        let sliced = self.slice_axis(axis, i, 1);
        let mut shape = self.shape.clone();
        shape.0.remove(axis);
        sliced.reshape(shape)
    }

    /// `out[i] = self[idx[i]]` with `self` treated as flat 1-D storage;
    /// the output has `idx`'s shape.
    pub fn gather(&self, idx: &Tracer) -> Tracer {
        self.assert_same_graph(idx);
        assert_eq!(idx.dtype, DType::I64, "gather indices must be I64");
        self.push(
            Op::Gather {
                src: self.id,
                idx: idx.id,
            },
            idx.shape.clone(),
            self.dtype,
        )
    }

    /// Scatter-add `self` (values) at positions `idx` into a fresh zeroed
    /// 1-D array of length `size` — the functional `x.at[idx].add(v)`.
    pub fn scatter_add(&self, idx: &Tracer, size: usize) -> Tracer {
        self.assert_same_graph(idx);
        assert_eq!(idx.dtype, DType::I64, "scatter indices must be I64");
        assert_eq!(
            idx.shape, self.shape,
            "scatter indices shape {} must match values {}",
            idx.shape, self.shape
        );
        self.push(
            Op::ScatterAdd {
                size,
                idx: idx.id,
                val: self.id,
            },
            Shape(vec![size]),
            self.dtype,
        )
    }

    /// Stack `self` with `others` along a new trailing axis:
    /// `k` arrays of shape `[..]` become one `[.., k]`.
    pub fn stack_last(&self, others: &[&Tracer]) -> Tracer {
        let mut parts = vec![self.id];
        for o in others {
            self.assert_same_graph(o);
            assert_eq!(
                o.shape(),
                &self.shape,
                "stack_last parts must share a shape: {} vs {}",
                o.shape(),
                self.shape
            );
            assert_eq!(o.dtype(), self.dtype, "stack_last dtype mismatch");
            parts.push(o.id);
        }
        let mut shape = self.shape.clone();
        shape.0.push(parts.len());
        self.push(Op::StackLast { parts }, shape, self.dtype)
    }

    /// Sum over `axis`.
    pub fn reduce_sum(&self, axis: usize) -> Tracer {
        assert!(axis < self.shape.rank(), "reduce axis {axis} out of rank");
        let mut shape = self.shape.clone();
        shape.0.remove(axis);
        self.push(Op::ReduceSum { a: self.id, axis }, shape, self.dtype)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:ident) => {
        impl std::ops::$trait<&Tracer> for &Tracer {
            type Output = Tracer;
            fn $method(self, rhs: &Tracer) -> Tracer {
                self.binary(BinaryOp::$op, rhs)
            }
        }
        impl std::ops::$trait<Tracer> for Tracer {
            type Output = Tracer;
            fn $method(self, rhs: Tracer) -> Tracer {
                self.binary(BinaryOp::$op, &rhs)
            }
        }
        impl std::ops::$trait<&Tracer> for Tracer {
            type Output = Tracer;
            fn $method(self, rhs: &Tracer) -> Tracer {
                self.binary(BinaryOp::$op, rhs)
            }
        }
        impl std::ops::$trait<Tracer> for &Tracer {
            type Output = Tracer;
            fn $method(self, rhs: Tracer) -> Tracer {
                self.binary(BinaryOp::$op, &rhs)
            }
        }
    };
}

impl_binop!(Add, add, Add);
impl_binop!(Sub, sub, Sub);
impl_binop!(Mul, mul, Mul);
impl_binop!(Div, div, Div);

impl std::ops::Neg for &Tracer {
    type Output = Tracer;
    fn neg(self) -> Tracer {
        Tracer::neg(self)
    }
}

impl std::ops::Neg for Tracer {
    type Output = Tracer;
    fn neg(self) -> Tracer {
        Tracer::neg(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_builds_a_graph() {
        let ctx = TraceContext::new();
        let x = ctx.param(vec![8], DType::F64);
        let y = ctx.param(vec![8], DType::F64);
        let z = (&x + &y).mul_s(2.0).sqrt();
        let g = ctx.finish(&[&z]);
        assert_eq!(g.params.len(), 2);
        assert_eq!(g.outputs.len(), 1);
        // params + add + const + mul + sqrt
        assert_eq!(g.nodes.len(), 6);
    }

    #[test]
    fn broadcasting_shapes_propagate() {
        let ctx = TraceContext::new();
        let m = ctx.param(vec![4, 3], DType::F64);
        let v = ctx.param(vec![3], DType::F64);
        let s = &m + &v;
        assert_eq!(s.shape(), &Shape(vec![4, 3]));
        let r = s.reduce_sum(1);
        assert_eq!(r.shape(), &Shape(vec![4]));
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn incompatible_shapes_fail_at_trace_time() {
        let ctx = TraceContext::new();
        let a = ctx.param(vec![2], DType::F64);
        let b = ctx.param(vec![3], DType::F64);
        let _ = &a + &b;
    }

    #[test]
    #[should_panic(expected = "dtype mismatch")]
    fn dtype_mismatch_fails_at_trace_time() {
        let ctx = TraceContext::new();
        let a = ctx.param(vec![2], DType::F64);
        let b = ctx.param(vec![2], DType::I64);
        let _ = &a + &b;
    }

    #[test]
    fn comparisons_yield_bool_and_select_applies() {
        let ctx = TraceContext::new();
        let a = ctx.param(vec![4], DType::F64);
        let mask = a.gt(&ctx.constant(0.0));
        assert_eq!(mask.dtype(), DType::Bool);
        let clipped = mask.select(&a, &ctx.constant(0.0));
        assert_eq!(clipped.dtype(), DType::F64);
        assert_eq!(clipped.shape(), &Shape(vec![4]));
    }

    #[test]
    fn gather_takes_index_shape() {
        let ctx = TraceContext::new();
        let table = ctx.param(vec![100], DType::F64);
        let idx = ctx.param(vec![5, 2], DType::I64);
        let out = table.gather(&idx);
        assert_eq!(out.shape(), &Shape(vec![5, 2]));
        assert_eq!(out.dtype(), DType::F64);
    }

    #[test]
    fn scatter_add_produces_sized_output() {
        let ctx = TraceContext::new();
        let vals = ctx.param(vec![10], DType::F64);
        let idx = ctx.param(vec![10], DType::I64);
        let out = vals.scatter_add(&idx, 50);
        assert_eq!(out.shape(), &Shape(vec![50]));
    }

    #[test]
    fn index_axis_drops_the_axis() {
        let ctx = TraceContext::new();
        let q = ctx.param(vec![7, 4], DType::F64);
        let col = q.index_axis(1, 2);
        assert_eq!(col.shape(), &Shape(vec![7]));
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn bad_reshape_panics() {
        let ctx = TraceContext::new();
        let a = ctx.param(vec![4], DType::F64);
        a.reshape(vec![3]);
    }

    #[test]
    #[should_panic(expected = "different traces")]
    fn cross_trace_mixing_panics() {
        let c1 = TraceContext::new();
        let c2 = TraceContext::new();
        let a = c1.param(vec![2], DType::F64);
        let b = c2.param(vec![2], DType::F64);
        let _ = &a + &b;
    }

    #[test]
    fn iota_and_convert() {
        let ctx = TraceContext::new();
        let i = ctx.iota(5);
        assert_eq!(i.dtype(), DType::I64);
        let f = i.convert(DType::F64);
        assert_eq!(f.dtype(), DType::F64);
        assert_eq!(f.shape(), &Shape(vec![5]));
        // Converting to the same dtype is a no-op (returns the same node).
        let same = f.convert(DType::F64);
        assert_eq!(same.id(), f.id());
    }
}
