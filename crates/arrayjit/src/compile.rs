//! The arrayjit compiler: graph optimisation and kernel partitioning.
//!
//! Mirrors what XLA does for the paper's JAX port, at reduced fidelity but
//! with the same observable consequences:
//!
//! * **DCE** and **CSE** shrink the traced graph (traced Python recomputes
//!   subexpressions freely; the compiler is what makes that free).
//! * **Elementwise fusion** merges chains of map-like ops into single
//!   kernels, eliding intermediate buffers — the main reason fine-grained
//!   NumPy-style code is viable on a GPU at all.
//! * **Library pattern matching** recognises `reduce_sum(mul(a, b))` as a
//!   dot-product/GEMV and routes it to a "vendor library" stage — the
//!   mechanism the paper suspects behind JAX beating OpenMP offload on
//!   `template_offset_project_signal` ("the XLA compiler finding a way to
//!   express this particular kernel in terms of linear algebra").
//!
//! Because shapes are static, every stage's [`KernelProfile`] (work items,
//! flops, bytes) is computed *at compile time* — the paper's footnote 3
//! observation that HLO carries full tensor-size knowledge.

use std::collections::{HashMap, HashSet};

use accel_sim::KernelProfile;

use crate::array::DType;
use crate::ir::{BinaryOp, Graph, Node, NodeId, Op};
use crate::plan::{lower, Plan};
use crate::shape::Shape;

/// How a stage executes on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// One fused elementwise kernel.
    Fused,
    /// Random-access gather.
    Gather,
    /// Atomic scatter-add.
    ScatterAdd,
    /// Axis reduction.
    Reduce,
    /// Pattern-matched dot/GEMV routed to the vendor library.
    LibraryDot,
}

/// A compiled device kernel: which IR nodes it covers and its cost profile.
#[derive(Debug, Clone)]
pub struct Stage {
    pub kind: StageKind,
    /// Node ids (in the optimised graph) evaluated by this stage.
    pub nodes: Vec<NodeId>,
    /// Work descriptor handed to the simulator per launch.
    pub profile: KernelProfile,
}

/// A compiled program: optimised graph + kernel partition.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub graph: Graph,
    pub stages: Vec<Stage>,
    /// Largest (input + output) working set of any stage, in bytes — used
    /// for device-memory accounting of intermediates.
    pub peak_stage_bytes: u64,
    /// How the evaluator runs the graph (see [`crate::plan`]).
    pub(crate) plan: Plan,
    /// Per node, in graph order: `(flops, bytes)` the unfused CPU backend
    /// charges for it (its output plus every operand read).
    pub(crate) node_costs: Vec<(f64, f64)>,
}

impl Program {
    /// Total flops across all stages (one program invocation).
    pub fn total_flops(&self) -> f64 {
        self.stages.iter().map(|s| s.profile.total_flops()).sum()
    }

    /// Total device-memory traffic across all stages.
    pub fn total_bytes(&self) -> f64 {
        self.stages.iter().map(|s| s.profile.total_bytes()).sum()
    }
}

/// Compile a traced graph into a program.
pub fn compile(name: &str, graph: &Graph) -> Program {
    let graph = dce(&cse(graph));
    let stages = partition(name, &graph);
    let peak_stage_bytes = stages
        .iter()
        .map(|s| s.profile.total_bytes() as u64)
        .max()
        .unwrap_or(0);
    let node_costs = graph
        .nodes
        .iter()
        .map(|node| {
            let flops = node.op.flops_per_element() * node.shape.elements() as f64;
            let mut bytes = node_bytes(node);
            for o in node.op.operands() {
                bytes += node_bytes(graph.node(o));
            }
            (flops, bytes)
        })
        .collect();
    Program {
        name: name.to_string(),
        plan: lower(name, &graph),
        graph,
        stages,
        peak_stage_bytes,
        node_costs,
    }
}

fn node_bytes(node: &Node) -> f64 {
    (node.shape.elements() * node.dtype.size()) as f64
}

/// Common-subexpression elimination: structurally identical nodes collapse
/// to the first occurrence.
fn cse(graph: &Graph) -> Graph {
    let mut out = Graph {
        nodes: Vec::with_capacity(graph.nodes.len()),
        outputs: Vec::new(),
        params: graph.params.clone(),
    };
    let mut remap: Vec<NodeId> = Vec::with_capacity(graph.nodes.len());
    let mut seen: HashMap<CseKey, NodeId> = HashMap::new();

    for node in &graph.nodes {
        let op = remap_op(&node.op, &remap);
        let key = cse_key(&op, &node.shape, node.dtype);
        if let Some(&existing) = seen.get(&key) {
            remap.push(existing);
            continue;
        }
        let id = out.push(Node {
            op,
            shape: node.shape.clone(),
            dtype: node.dtype,
        });
        seen.insert(key, id);
        remap.push(id);
    }
    out.outputs = graph.outputs.iter().map(|&o| remap[o]).collect();
    out
}

/// A node's CSE identity: op kind, operands and attributes (f64 constants
/// by bits), shape and dtype.
type CseKey = (std::mem::Discriminant<Op>, Vec<u64>, Shape, DType);

fn cse_key(op: &Op, shape: &Shape, dtype: DType) -> CseKey {
    let mut fields: Vec<u64> = op.operands().iter().map(|&o| o as u64).collect();
    match op {
        Op::Param { index } => fields.push(*index as u64),
        Op::ConstF64(v) => fields.push(v.to_bits()),
        Op::ConstI64(v) => fields.push(*v as u64),
        Op::Iota { len } => fields.push(*len as u64),
        Op::Unary { op, .. } => fields.push(*op as u64),
        Op::Binary { op, .. } => fields.push(*op as u64),
        Op::Convert { to, .. } => fields.push(*to as u64),
        Op::SliceAxis {
            axis, start, len, ..
        } => fields.extend([*axis as u64, *start as u64, *len as u64]),
        Op::ScatterAdd { size, .. } => fields.push(*size as u64),
        Op::ReduceSum { axis, .. } => fields.push(*axis as u64),
        Op::Select { .. }
        | Op::Reshape { .. }
        | Op::BroadcastTo { .. }
        | Op::Gather { .. }
        | Op::StackLast { .. } => {}
    }
    (std::mem::discriminant(op), fields, shape.clone(), dtype)
}

/// Dead-code elimination: keep nodes reachable from the outputs, plus all
/// params (the calling convention fixes their indices).
fn dce(graph: &Graph) -> Graph {
    let mut live = vec![false; graph.nodes.len()];
    let mut stack: Vec<NodeId> = graph.outputs.clone();
    while let Some(id) = stack.pop() {
        if live[id] {
            continue;
        }
        live[id] = true;
        stack.extend(graph.node(id).op.operands());
    }
    for (i, node) in graph.nodes.iter().enumerate() {
        if matches!(node.op, Op::Param { .. }) {
            live[i] = true;
        }
    }

    let mut out = Graph {
        nodes: Vec::new(),
        outputs: Vec::new(),
        params: graph.params.clone(),
    };
    let mut remap = vec![usize::MAX; graph.nodes.len()];
    for (i, node) in graph.nodes.iter().enumerate() {
        if live[i] {
            remap[i] = out.push(Node {
                op: remap_op(&node.op, &remap),
                shape: node.shape.clone(),
                dtype: node.dtype,
            });
        }
    }
    out.outputs = graph.outputs.iter().map(|&o| remap[o]).collect();
    out
}

fn remap_op(op: &Op, remap: &[NodeId]) -> Op {
    let r = |id: &NodeId| remap[*id];
    match op {
        Op::Param { index } => Op::Param { index: *index },
        Op::ConstF64(v) => Op::ConstF64(*v),
        Op::ConstI64(v) => Op::ConstI64(*v),
        Op::Iota { len } => Op::Iota { len: *len },
        Op::Unary { op, a } => Op::Unary { op: *op, a: r(a) },
        Op::Binary { op, a, b } => Op::Binary {
            op: *op,
            a: r(a),
            b: r(b),
        },
        Op::Select {
            cond,
            on_true,
            on_false,
        } => Op::Select {
            cond: r(cond),
            on_true: r(on_true),
            on_false: r(on_false),
        },
        Op::Convert { a, to } => Op::Convert { a: r(a), to: *to },
        Op::Reshape { a } => Op::Reshape { a: r(a) },
        Op::BroadcastTo { a } => Op::BroadcastTo { a: r(a) },
        Op::SliceAxis {
            a,
            axis,
            start,
            len,
        } => Op::SliceAxis {
            a: r(a),
            axis: *axis,
            start: *start,
            len: *len,
        },
        Op::Gather { src, idx } => Op::Gather {
            src: r(src),
            idx: r(idx),
        },
        Op::ScatterAdd { size, idx, val } => Op::ScatterAdd {
            size: *size,
            idx: r(idx),
            val: r(val),
        },
        Op::ReduceSum { a, axis } => Op::ReduceSum {
            a: r(a),
            axis: *axis,
        },
        Op::StackLast { parts } => Op::StackLast {
            parts: parts.iter().map(r).collect(),
        },
    }
}

/// Partition the optimised graph into device stages.
fn partition(prog_name: &str, graph: &Graph) -> Vec<Stage> {
    let uses = graph.use_counts();
    let output_set: HashSet<NodeId> = graph.outputs.iter().copied().collect();
    let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); graph.nodes.len()];
    for (j, node) in graph.nodes.iter().enumerate() {
        for o in node.op.operands() {
            consumers[o].push(j);
        }
    }

    // Assign every non-param node to a stage: contiguous runs of fusible
    // nodes share one, everything else gets its own.
    let mut stage_of: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut groups: Vec<(StageKind, Vec<NodeId>)> = Vec::new();
    let mut current_fused: Option<usize> = None;

    for (id, node) in graph.nodes.iter().enumerate() {
        match &node.op {
            Op::Param { .. } => {
                current_fused = None;
            }
            op if op.is_fusible() => {
                let g = match current_fused {
                    Some(g) => g,
                    None => {
                        groups.push((StageKind::Fused, Vec::new()));
                        let g = groups.len() - 1;
                        current_fused = Some(g);
                        g
                    }
                };
                groups[g].1.push(id);
                stage_of[id] = Some(g);
            }
            Op::Gather { .. } => {
                groups.push((StageKind::Gather, vec![id]));
                stage_of[id] = Some(groups.len() - 1);
                current_fused = None;
            }
            Op::ScatterAdd { .. } => {
                groups.push((StageKind::ScatterAdd, vec![id]));
                stage_of[id] = Some(groups.len() - 1);
                current_fused = None;
            }
            Op::ReduceSum { a, axis } => {
                // Library pattern: reduce over the innermost axis of a
                // product ⇒ dot/GEMV. Absorb the multiply into the stage.
                let is_dot = *axis == graph.node(*a).shape.rank() - 1
                    && matches!(
                        graph.node(*a).op,
                        Op::Binary {
                            op: BinaryOp::Mul,
                            ..
                        }
                    );
                if is_dot {
                    groups.push((StageKind::LibraryDot, vec![*a, id]));
                    let g = groups.len() - 1;
                    // The multiply may have been placed in a fused group; it
                    // moves here if this reduce is its only consumer.
                    if uses[*a] == 1 && !output_set.contains(a) {
                        if let Some(old) = stage_of[*a] {
                            groups[old].1.retain(|&n| n != *a);
                        }
                        stage_of[*a] = Some(g);
                    } else {
                        groups[g].1.retain(|&n| n != *a);
                    }
                    stage_of[id] = Some(g);
                } else {
                    groups.push((StageKind::Reduce, vec![id]));
                    stage_of[id] = Some(groups.len() - 1);
                }
                current_fused = None;
            }
            _ => unreachable!("all op kinds handled"),
        }
    }

    // Build profiles.
    let mut stages = Vec::new();
    for (gi, (kind, nodes)) in groups.iter().enumerate() {
        if nodes.is_empty() {
            continue;
        }
        let in_group: HashSet<NodeId> = nodes.iter().copied().collect();

        // Inputs: operands produced outside the group (params included).
        let mut input_ids: HashSet<NodeId> = HashSet::new();
        for &id in nodes {
            for o in graph.node(id).op.operands() {
                if !in_group.contains(&o) {
                    input_ids.insert(o);
                }
            }
        }
        // Outputs: nodes used outside the group or program outputs.
        let mut output_ids: Vec<NodeId> = Vec::new();
        for &id in nodes {
            let used_outside = consumers[id].iter().any(|j| !in_group.contains(j));
            if used_outside || output_set.contains(&id) {
                output_ids.push(id);
            }
        }

        let in_bytes: f64 = input_ids.iter().map(|&i| node_bytes(graph.node(i))).sum();
        let out_bytes: f64 = output_ids.iter().map(|&i| node_bytes(graph.node(i))).sum();
        let items = nodes
            .iter()
            .map(|&i| graph.node(i).shape.elements())
            .max()
            .unwrap_or(1)
            .max(1) as f64;
        let flops: f64 = nodes
            .iter()
            .map(|&i| {
                let n = graph.node(i);
                n.op.flops_per_element() * n.shape.elements() as f64
            })
            .sum();

        let (bytes, divergence) = match kind {
            // Gather: the random-access source reads are imperfectly
            // coalesced; charge an extra 1x the output traffic on top of
            // index + output bytes.
            StageKind::Gather => (in_bytes + out_bytes + out_bytes, 1.0),
            // ScatterAdd: read-modify-write with atomic contention.
            StageKind::ScatterAdd => (in_bytes + 2.0 * out_bytes, 2.0),
            _ => (in_bytes + out_bytes, 1.0),
        };

        stages.push(Stage {
            kind: *kind,
            nodes: nodes.clone(),
            profile: KernelProfile {
                name: format!("{prog_name}/{:?}{gi}", kind).to_lowercase(),
                items,
                flops_per_item: (flops / items).max(0.0),
                bytes_per_item: bytes / items,
                divergence,
            },
        });
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceContext;

    #[test]
    fn cse_merges_identical_subexpressions() {
        let ctx = TraceContext::new();
        let x = ctx.param(vec![16], DType::F64);
        // Traced code computes sin(x) twice — the compiler must not.
        let a = x.sin();
        let b = x.sin();
        let y = &a + &b;
        let g = ctx.finish(&[&y]);
        let p = compile("t", &g);
        let sin_count = p
            .graph
            .nodes
            .iter()
            .filter(|n| {
                matches!(
                    n.op,
                    Op::Unary {
                        op: crate::ir::UnaryOp::Sin,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(sin_count, 1);
    }

    #[test]
    fn dce_removes_unused_work() {
        let ctx = TraceContext::new();
        let x = ctx.param(vec![16], DType::F64);
        let _unused = x.exp().log().sqrt();
        let y = x.mul_s(2.0);
        let g = ctx.finish(&[&y]);
        let before = g.nodes.len();
        let p = compile("t", &g);
        assert!(p.graph.nodes.len() < before);
        assert!(!p.graph.nodes.iter().any(|n| matches!(
            n.op,
            Op::Unary {
                op: crate::ir::UnaryOp::Exp,
                ..
            }
        )));
    }

    #[test]
    fn elementwise_chain_fuses_into_one_stage() {
        let ctx = TraceContext::new();
        let x = ctx.param(vec![1000], DType::F64);
        let y = ctx.param(vec![1000], DType::F64);
        let z = ((&x * &y).sin() + x.cos()).mul_s(3.0).sqrt();
        let g = ctx.finish(&[&z]);
        let p = compile("t", &g);
        assert_eq!(p.stages.len(), 1, "stages: {:?}", p.stages);
        assert_eq!(p.stages[0].kind, StageKind::Fused);
        // Bytes: two inputs + one output of 1000 f64 each.
        assert_eq!(p.stages[0].profile.total_bytes(), 3.0 * 8000.0);
        assert_eq!(p.stages[0].profile.items, 1000.0);
    }

    #[test]
    fn gather_breaks_fusion() {
        let ctx = TraceContext::new();
        let table = ctx.param(vec![100], DType::F64);
        let idx = ctx.param(vec![50], DType::I64);
        let out = table.gather(&idx).mul_s(2.0);
        let g = ctx.finish(&[&out]);
        let p = compile("t", &g);
        let kinds: Vec<StageKind> = p.stages.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&StageKind::Gather));
        assert!(kinds.contains(&StageKind::Fused));
    }

    #[test]
    fn dot_pattern_becomes_library_stage() {
        let ctx = TraceContext::new();
        let a = ctx.param(vec![64, 128], DType::F64);
        let b = ctx.param(vec![64, 128], DType::F64);
        let dots = (&a * &b).reduce_sum(1);
        let g = ctx.finish(&[&dots]);
        let p = compile("t", &g);
        assert!(
            p.stages.iter().any(|s| s.kind == StageKind::LibraryDot),
            "stages: {:?}",
            p.stages.iter().map(|s| s.kind).collect::<Vec<_>>()
        );
        // The multiply is absorbed: no fused stage computing it remains.
        assert_eq!(p.stages.len(), 1);
    }

    #[test]
    fn reduce_over_outer_axis_is_not_a_dot() {
        let ctx = TraceContext::new();
        let a = ctx.param(vec![64, 128], DType::F64);
        let b = ctx.param(vec![64, 128], DType::F64);
        let r = (&a * &b).reduce_sum(0);
        let g = ctx.finish(&[&r]);
        let p = compile("t", &g);
        assert!(p.stages.iter().all(|s| s.kind != StageKind::LibraryDot));
    }

    #[test]
    fn scatter_add_has_atomic_penalty() {
        let ctx = TraceContext::new();
        let vals = ctx.param(vec![1000], DType::F64);
        let idx = ctx.param(vec![1000], DType::I64);
        let m = vals.scatter_add(&idx, 100);
        let g = ctx.finish(&[&m]);
        let p = compile("t", &g);
        let st = p
            .stages
            .iter()
            .find(|s| s.kind == StageKind::ScatterAdd)
            .unwrap();
        assert!(st.profile.divergence > 1.0);
    }

    #[test]
    fn select_counts_both_branches_as_work() {
        // The padded-lane "dummy work" of the paper: a select's two branch
        // subgraphs both contribute flops.
        let ctx = TraceContext::new();
        let x = ctx.param(vec![1000], DType::F64);
        let mask = x.gt(&ctx.constant(0.0));
        let expensive = x.sin().cos().sqrt();
        let cheap = x.mul_s(2.0);
        let y = mask.select(&expensive, &cheap);
        let g = ctx.finish(&[&y]);
        let p = compile("t", &g);
        let flops = p.total_flops();
        // sin(10) + cos(10) + sqrt(4) + mul(1) + gt(1) + select(1) = 27/elt.
        assert!(flops >= 27.0 * 1000.0, "flops {flops}");
    }

    #[test]
    fn peak_stage_bytes_is_max_working_set() {
        let ctx = TraceContext::new();
        let x = ctx.param(vec![1000], DType::F64);
        let y = x.mul_s(3.0);
        let g = ctx.finish(&[&y]);
        let p = compile("t", &g);
        assert_eq!(p.peak_stage_bytes, 16_000); // in + out
    }

    #[test]
    fn params_survive_dce_for_calling_convention() {
        let ctx = TraceContext::new();
        let _unused = ctx.param(vec![8], DType::F64);
        let x = ctx.param(vec![8], DType::F64);
        let y = x.mul_s(1.5);
        let g = ctx.finish(&[&y]);
        let p = compile("t", &g);
        let param_count = p
            .graph
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Param { .. }))
            .count();
        assert_eq!(param_count, 2);
        assert_eq!(p.graph.params.len(), 2);
    }
}
