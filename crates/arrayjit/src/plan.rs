//! Execution plans: the compile-time lowering [`crate::exec`] runs.
//!
//! [`lower`] runs once per JIT signature, after the graph optimisations in
//! [`crate::compile`]. It settles everything about an evaluation that
//! depends only on shapes and dtypes, so a call does no per-element index
//! arithmetic and no per-element op dispatch:
//!
//! * **Strides.** Every elementwise node becomes one or more strided
//!   [`Nest`]s over its output: each operand's flat start offset and one
//!   stride per loop axis, 0 on broadcast axes. Size-1 axes are dropped and
//!   adjacent axes that every operand walks as one are merged, so an outer
//!   product `[n, 1] × [m]` is `n` rows of `m`, a last-axis slice of
//!   `[n, m, k]` is one row of `n·m` with stride `k`, and a same-shape
//!   operation is one contiguous row.
//! * **Dtypes.** The operand dtype combinations tracing does not already
//!   rule out are checked here, once, with the node id in the message; the
//!   evaluator only runs admitted ones.
//! * **Liveness.** Each value's last use is recorded, and the evaluator
//!   drops it right after that step instead of at the end of the call.

use crate::array::DType;
use crate::ir::{BinaryOp, Graph, Node, NodeId, Op, UnaryOp};
use crate::shape::Shape;

/// One operand's walk over a [`Nest`]: a flat start offset plus one stride
/// per loop axis (0 where the operand is broadcast).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    pub offset: usize,
    pub strides: Vec<usize>,
}

/// A collapsed loop nest, innermost axis last. `dst` is where the output
/// elements go, `srcs` the operands read at each iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nest {
    pub dims: Vec<usize>,
    pub dst: View,
    pub srcs: Vec<(NodeId, View)>,
}

/// What an elementwise step computes per element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    Unary(UnaryOp),
    /// The op, with its operands' (common) dtype.
    Binary(BinaryOp, DType),
    /// `cond ? on_true : on_false`.
    Select,
    /// Dtype conversion from the operand's dtype to the node's.
    Convert,
    /// Data movement: broadcast, slice and stack.
    Copy,
}

/// How one node is evaluated.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// The `index`-th argument, shared.
    Param(usize),
    /// The operand's storage, shared under the node's shape.
    Reshape(NodeId),
    ConstF64(f64),
    ConstI64(i64),
    Iota(usize),
    /// Elementwise: every nest writes part of one fresh output buffer.
    Map {
        func: Func,
        nests: Vec<Nest>,
    },
    Gather {
        src: NodeId,
        idx: NodeId,
    },
    ScatterAdd {
        size: usize,
        idx: NodeId,
        val: NodeId,
    },
    /// Sum over the middle axis of the operand viewed as
    /// `[outer, dim, inner]`.
    ReduceSum {
        a: NodeId,
        outer: usize,
        dim: usize,
        inner: usize,
    },
}

/// A program's evaluation plan: one step per graph node, in graph order.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub steps: Vec<Step>,
    /// Values whose last use is step `i`, dropped right after it. Program
    /// outputs are never dropped.
    pub drops: Vec<Vec<NodeId>>,
}

/// Lower an optimised graph. Panics, naming `name` and the node, on an
/// operand dtype combination the evaluator does not implement.
pub fn lower(name: &str, graph: &Graph) -> Plan {
    let steps = graph
        .nodes
        .iter()
        .enumerate()
        .map(|(id, node)| step(graph, node).unwrap_or_else(|e| panic!("{name}: node {id}: {e}")))
        .collect();
    Plan {
        steps,
        drops: drops(graph),
    }
}

fn drops(graph: &Graph) -> Vec<Vec<NodeId>> {
    let mut last_use: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    for (id, node) in graph.nodes.iter().enumerate() {
        for o in node.op.operands() {
            last_use[o] = Some(id);
        }
    }
    for &o in &graph.outputs {
        last_use[o] = None;
    }
    let mut drops = vec![Vec::new(); graph.nodes.len()];
    for (value, last) in last_use.into_iter().enumerate() {
        if let Some(step) = last {
            drops[step].push(value);
        }
    }
    drops
}

fn step(graph: &Graph, node: &Node) -> Result<Step, String> {
    let dtype = |id: NodeId| graph.node(id).dtype;
    let shape = |id: NodeId| &graph.node(id).shape;
    let out = &node.shape;
    let map = |func: Func, operands: &[NodeId]| {
        let srcs = operands
            .iter()
            .map(|&o| (o, broadcast_view(shape(o), out)))
            .collect();
        Step::Map {
            func,
            nests: vec![nest(&out.0, contiguous(&out.0), srcs)],
        }
    };
    Ok(match &node.op {
        Op::Param { index } => Step::Param(*index),
        Op::ConstF64(v) => Step::ConstF64(*v),
        Op::ConstI64(v) => Step::ConstI64(*v),
        Op::Iota { len } => Step::Iota(*len),
        Op::Reshape { a } => Step::Reshape(*a),
        Op::Unary { op, a } => map(Func::Unary(*op), &[*a]),
        Op::Binary { op, a, b } => {
            let x = dtype(*a);
            check_binary(*op, x, dtype(*b))?;
            map(Func::Binary(*op, x), &[*a, *b])
        }
        Op::Select {
            cond,
            on_true,
            on_false,
        } => {
            let (t, f) = (dtype(*on_true), dtype(*on_false));
            if t != f {
                return Err(format!("select branch dtype mismatch: {t:?} vs {f:?}"));
            }
            map(Func::Select, &[*cond, *on_true, *on_false])
        }
        Op::Convert { a, to } => {
            let from = dtype(*a);
            let ok = from == *to
                || matches!(
                    (from, *to),
                    (DType::F64, DType::I64)
                        | (DType::I64, DType::F64)
                        | (DType::Bool, DType::F64)
                        | (DType::Bool, DType::I64)
                );
            if !ok {
                return Err(format!("unsupported convert {from:?} -> {to:?}"));
            }
            map(Func::Convert, &[*a])
        }
        Op::BroadcastTo { a } => map(Func::Copy, &[*a]),
        Op::SliceAxis { a, axis, start, .. } => {
            let strides = shape(*a).strides();
            let src = View {
                offset: start * strides[*axis],
                strides,
            };
            Step::Map {
                func: Func::Copy,
                nests: vec![nest(&out.0, contiguous(&out.0), vec![(*a, src)])],
            }
        }
        Op::StackLast { parts } => {
            // Part `j` lands at offset `j` of every output row of `k`.
            let k = parts.len();
            let part_dims = &out.0[..out.rank() - 1];
            let part = contiguous(part_dims);
            let nests = parts
                .iter()
                .enumerate()
                .map(|(j, &p)| {
                    let dst = View {
                        offset: j,
                        strides: part.strides.iter().map(|s| s * k).collect(),
                    };
                    nest(part_dims, dst, vec![(p, part.clone())])
                })
                .collect();
            Step::Map {
                func: Func::Copy,
                nests,
            }
        }
        Op::Gather { src, idx } => Step::Gather {
            src: *src,
            idx: *idx,
        },
        Op::ScatterAdd { size, idx, val } => {
            if dtype(*val) == DType::Bool {
                return Err("scatter_add on Bool".into());
            }
            Step::ScatterAdd {
                size: *size,
                idx: *idx,
                val: *val,
            }
        }
        Op::ReduceSum { a, axis } => {
            if dtype(*a) == DType::Bool {
                return Err("reduce_sum on Bool".into());
            }
            let dims = &shape(*a).0;
            Step::ReduceSum {
                a: *a,
                outer: dims[..*axis].iter().product(),
                dim: dims[*axis],
                inner: dims[axis + 1..].iter().product(),
            }
        }
    })
}

fn check_binary(op: BinaryOp, x: DType, y: DType) -> Result<(), String> {
    let ok = if op.is_comparison() {
        x == y && x != DType::Bool
    } else if matches!(op, BinaryOp::And | BinaryOp::Or) {
        x == DType::Bool && y == DType::Bool
    } else if x == DType::Bool || y == DType::Bool {
        return Err(format!("arithmetic {op:?} on Bool"));
    } else {
        x == y && !(x == DType::I64 && op == BinaryOp::Atan2)
    };
    if ok {
        Ok(())
    } else if op.is_comparison() {
        Err(format!("comparison on unsupported dtype pair {x:?}/{y:?}"))
    } else {
        Err(format!("{op:?} on unsupported dtype pair {x:?}/{y:?}"))
    }
}

fn contiguous(dims: &[usize]) -> View {
    View {
        offset: 0,
        strides: Shape(dims.to_vec()).strides(),
    }
}

/// `src` read at every index of `out` under NumPy broadcasting: leading
/// axes `src` lacks and its size-1 axes get stride 0.
fn broadcast_view(src: &Shape, out: &Shape) -> View {
    let pad = out.rank() - src.rank();
    let src_strides = src.strides();
    let strides = (0..out.rank())
        .map(|axis| match axis.checked_sub(pad) {
            Some(s) if src.0[s] != 1 => src_strides[s],
            _ => 0,
        })
        .collect();
    View { offset: 0, strides }
}

/// Innermost extents below this are moved outward (see [`nest`]).
const SHORT_ROW: usize = 8;

/// Build the loop nest for `dims`, dropping size-1 axes and merging each
/// axis into the one before it where every view steps across the pair as
/// a single axis (`stride[i] == stride[i+1] · dims[i+1]`, broadcast runs
/// included). The result has at least one axis.
fn nest(dims: &[usize], dst: View, srcs: Vec<(NodeId, View)>) -> Nest {
    let views: Vec<&View> = std::iter::once(&dst)
        .chain(srcs.iter().map(|(_, v)| v))
        .collect();
    // (extent, stride of each view), outermost first.
    let mut axes: Vec<(usize, Vec<usize>)> = Vec::new();
    for (axis, &d) in dims.iter().enumerate().filter(|&(_, &d)| d != 1) {
        let s: Vec<usize> = views.iter().map(|v| v.strides[axis]).collect();
        match axes.last_mut() {
            Some((outer, outer_s)) if outer_s.iter().zip(&s).all(|(&o, &i)| o == i * d) => {
                *outer *= d;
                *outer_s = s;
            }
            _ => axes.push((d, s)),
        }
    }
    if axes.is_empty() {
        axes.push((1, vec![0; views.len()]));
    }
    // A row shorter than a cache line of f64s costs more in loop overhead
    // than in work; run the longest axis innermost instead. Elementwise
    // results do not depend on the order they are computed in.
    if axes.last().is_some_and(|&(d, _)| d < SHORT_ROW) {
        if let Some(longest) = (0..axes.len()).max_by_key(|&a| axes[a].0) {
            let axis = axes.remove(longest);
            axes.push(axis);
        }
    }
    let view = |k: usize| View {
        offset: views[k].offset,
        strides: axes.iter().map(|(_, s)| s[k]).collect(),
    };
    Nest {
        dims: axes.iter().map(|&(d, _)| d).collect(),
        dst: view(0),
        srcs: srcs
            .iter()
            .enumerate()
            .map(|(k, &(id, _))| (id, view(k + 1)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::trace::TraceContext;

    fn nests(step: &Step) -> &[Nest] {
        match step {
            Step::Map { nests, .. } => nests,
            other => panic!("not elementwise: {other:?}"),
        }
    }

    #[test]
    fn outer_product_is_rows_with_a_broadcast_side() {
        let tc = TraceContext::new();
        let col = tc.param(vec![4, 1], DType::F64);
        let row = tc.param(vec![16], DType::F64);
        let y = &col * &row;
        let p = compile("t", &tc.finish(&[&y]));
        let nest = &nests(&p.plan.steps[y.id()])[0];
        assert_eq!(nest.dims, vec![4, 16]);
        assert_eq!(nest.dst.strides, vec![16, 1]);
        assert_eq!(nest.srcs[0].1.strides, vec![1, 0]);
        assert_eq!(nest.srcs[1].1.strides, vec![0, 1]);
    }

    #[test]
    fn last_axis_slice_is_one_strided_row() {
        let tc = TraceContext::new();
        let x = tc.param(vec![5, 16, 3], DType::F64);
        let y = x.slice_axis(2, 1, 1);
        let p = compile("t", &tc.finish(&[&y]));
        let nest = &nests(&p.plan.steps[y.id()])[0];
        assert_eq!(nest.dims, vec![80]);
        assert_eq!(
            nest.srcs[0].1,
            View {
                offset: 1,
                strides: vec![3]
            }
        );
    }

    #[test]
    fn short_rows_move_outward() {
        // A [1, n, 1] mask over [d, n, 3]: the 3-long axis goes outside.
        let tc = TraceContext::new();
        let mask = tc.param(vec![1, 16, 1], DType::Bool);
        let x = tc.param(vec![2, 16, 3], DType::F64);
        let y = mask.select(&x, &x.neg());
        let p = compile("t", &tc.finish(&[&y]));
        let nest = &nests(&p.plan.steps[y.id()])[0];
        assert_eq!(nest.dims, vec![2, 3, 16]);
        assert_eq!(nest.srcs[0].1.strides, vec![0, 0, 1]);
        assert_eq!(nest.dst.strides, vec![48, 1, 3]);
    }

    #[test]
    fn values_drop_after_their_last_use_but_outputs_stay() {
        let tc = TraceContext::new();
        let x = tc.param(vec![4], DType::F64);
        let a = x.sin();
        let b = a.cos();
        let c = &b + &a;
        let p = compile("t", &tc.finish(&[&c, &b]));
        // `a` and `x` die at their last reads; `b` is an output.
        assert_eq!(p.plan.drops[a.id()], vec![x.id()]);
        assert_eq!(p.plan.drops[c.id()], vec![a.id()]);
        assert!(p
            .plan
            .drops
            .iter()
            .flatten()
            .all(|&d| d != b.id() && d != c.id()));
    }

    #[test]
    #[should_panic(expected = "t: node 2: comparison on unsupported dtype pair Bool/Bool")]
    fn dtype_errors_name_the_program_and_node() {
        let tc = TraceContext::new();
        let a = tc.param(vec![2], DType::Bool);
        let b = tc.param(vec![2], DType::Bool);
        let y = a.lt(&b);
        compile("t", &tc.finish(&[&y]));
    }
}
