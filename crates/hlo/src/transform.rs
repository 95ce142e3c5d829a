//! Generic module transformations: dead-code elimination, common
//! subexpression elimination, statistics and GraphViz export.
//!
//! The decomposition emits one rank table and a handful of scalar index
//! constants per pattern; [`eliminate_common_subexpressions`] merges the
//! duplicates across patterns, and [`eliminate_dead_code`] drops anything
//! a rewrite orphaned. Both preserve program semantics and are verified
//! by the cross-crate equivalence tests.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{Builder, InstrId, Module, ModuleAnalysis, Op};

/// Removes instructions not reachable from the module outputs.
///
/// Fusion groups are filtered to their live members (a group whose root
/// died is dropped entirely).
///
/// # Example
///
/// ```
/// use overlap_hlo::{eliminate_dead_code, Builder, DType, Shape};
///
/// let mut b = Builder::new("m", 1);
/// let x = b.parameter(Shape::new(DType::F32, vec![4]), "x");
/// let _dead = b.copy(x, "dead");
/// let live = b.neg(x, "live");
/// let m = b.build(vec![live]);
/// assert_eq!(eliminate_dead_code(&m).len(), 2);
/// ```
///
/// # Panics
///
/// Panics if the module is malformed (operands after users).
#[must_use]
pub fn eliminate_dead_code(module: &Module) -> Module {
    let live = module.live_set();
    let mut b = Builder::new(module.name().to_string(), module.num_partitions());
    let mut map: Vec<Option<InstrId>> = vec![None; module.len()];
    for (id, ins) in module.iter() {
        if !live[id.index()] {
            continue;
        }
        let operands = ins
            .operands()
            .iter()
            .map(|o| map[o.index()].expect("live operands precede users"))
            .collect();
        map[id.index()] = Some(b.copy_of(module, id, operands));
    }
    let outputs = module
        .outputs()
        .iter()
        .map(|o| map[o.index()].expect("outputs are live"))
        .collect();
    let rebuilt = b.build(outputs);
    let groups: Vec<_> = module
        .fusion_groups()
        .iter()
        .filter(|g| live[g.root.index()] && g.members.iter().all(|m| live[m.index()]))
        .map(|g| crate::FusionGroup {
            members: g.members.iter().map(|m| map[m.index()].expect("live")).collect(),
            root: map[g.root.index()].expect("live"),
        })
        .collect();
    rebuilt.with_fusion_groups(groups).expect("dce preserves fusion validity")
}

/// Encodes the mergeable part of an instruction — op variant, payload
/// and shape — as a token stream, returning `false` for ops that must
/// never merge. Variable-length payloads are length-prefixed so distinct
/// instructions can never encode to the same stream. Shared between the
/// CSE pass and the builder's append-time value numbering.
pub(crate) fn value_key_into(op: &Op, shape: &crate::Shape, key: &mut Vec<u64>) -> bool {
    // Only pure, deterministic ops may merge. Collectives and parameters
    // stay; Copy stays (it models a real buffer copy the schedulers see).
    match op {
        Op::Constant { value } => {
            key.push(0);
            key.push(value.to_bits());
        }
        Op::ConstantTensor { values } => {
            key.push(1);
            key.push(values.len() as u64);
            key.extend(values.iter().map(|v| v.to_bits()));
        }
        Op::Iota { dim } => {
            key.push(2);
            key.push(*dim as u64);
        }
        Op::PartitionId => key.push(3),
        Op::Binary(k) => {
            key.push(4);
            key.push(*k as u64);
        }
        Op::Unary(k) => {
            key.push(5);
            key.push(*k as u64);
        }
        Op::Reshape => key.push(6),
        Op::Transpose { perm } => {
            key.push(7);
            key.push(perm.len() as u64);
            key.extend(perm.iter().map(|&d| d as u64));
        }
        Op::Slice { starts, limits } => {
            key.push(8);
            key.push(starts.len() as u64);
            key.extend(starts.iter().map(|&d| d as u64));
            key.extend(limits.iter().map(|&d| d as u64));
        }
        Op::Broadcast { operand_dims } => {
            key.push(9);
            key.push(operand_dims.len() as u64);
            key.extend(operand_dims.iter().map(|&d| d as u64));
        }
        _ => return false,
    }
    key.push(shape.dtype() as u64);
    key.push(shape.rank() as u64);
    key.extend(shape.dims().iter().map(|&d| d as u64));
    true
}

/// Structural key for CSE: the value token stream plus the (remapped)
/// operand ids.
fn cse_key(module: &Module, id: InstrId, map: &[Option<InstrId>]) -> Option<Vec<u64>> {
    let ins = module.instr(id);
    let mut key: Vec<u64> = Vec::with_capacity(8 + ins.operands().len());
    if !value_key_into(ins.op(), ins.shape(), &mut key) {
        return None;
    }
    for o in ins.operands() {
        let mapped = map[o.index()].expect("operands precede users");
        key.push(mapped.index() as u64);
    }
    Some(key)
}

/// Merges structurally identical pure instructions (constants, partition
/// ids, scalar index arithmetic, reshapes/slices of the same value).
///
/// Instructions inside fusion groups (read from `analysis`'s fusion
/// table) are left untouched so group structure survives; everything
/// else merges by `(op, shape, operands)`. Returns the rebuilt module
/// together with its builder-maintained [`ModuleAnalysis`].
///
/// # Panics
///
/// Panics if `analysis` does not cover `module`, or the module is
/// malformed.
#[must_use]
pub fn eliminate_common_subexpressions(
    module: &Module,
    analysis: &ModuleAnalysis,
) -> (Module, ModuleAnalysis) {
    assert_eq!(analysis.len(), module.len(), "analysis does not cover module");
    cse_impl(module, analysis.fusion())
}

fn cse_impl(
    module: &Module,
    in_fusion: &[Option<crate::FusionId>],
) -> (Module, ModuleAnalysis) {
    let mut b = Builder::new(module.name().to_string(), module.num_partitions());
    let mut map: Vec<Option<InstrId>> = vec![None; module.len()];
    let mut seen: HashMap<Vec<u64>, InstrId> = HashMap::new();
    let mut old_for_new: HashMap<InstrId, InstrId> = HashMap::new();
    for (id, ins) in module.iter() {
        if in_fusion[id.index()].is_none() {
            if let Some(key) = cse_key(module, id, &map) {
                if let Some(&existing) = seen.get(&key) {
                    map[id.index()] = Some(existing);
                    continue;
                }
                let operands = ins
                    .operands()
                    .iter()
                    .map(|o| map[o.index()].expect("operands precede users"))
                    .collect();
                let new_id = b.copy_of(module, id, operands);
                seen.insert(key, new_id);
                map[id.index()] = Some(new_id);
                old_for_new.insert(new_id, id);
                continue;
            }
        }
        let operands = ins
            .operands()
            .iter()
            .map(|o| map[o.index()].expect("operands precede users"))
            .collect();
        let new_id = b.copy_of(module, id, operands);
        map[id.index()] = Some(new_id);
        old_for_new.insert(new_id, id);
    }
    let outputs = module
        .outputs()
        .iter()
        .map(|o| map[o.index()].expect("outputs mapped"))
        .collect();
    let (rebuilt, mut analysis) = b.build_with_analysis(outputs);
    let groups: Vec<_> = module
        .fusion_groups()
        .iter()
        .map(|g| crate::FusionGroup {
            members: g.members.iter().map(|m| map[m.index()].expect("mapped")).collect(),
            root: map[g.root.index()].expect("mapped"),
        })
        .collect();
    let rebuilt = rebuilt.with_fusion_groups(groups).expect("cse preserves fusion validity");
    analysis.refresh_fusion(&rebuilt);
    (rebuilt, analysis)
}

/// Per-opcode instruction counts and aggregate statistics of a module.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModuleStats {
    /// Instruction count per mnemonic, sorted by name.
    pub op_counts: Vec<(String, usize)>,
    /// Total live instructions.
    pub live: usize,
    /// Total instructions (including dead ones).
    pub total: usize,
    /// Total einsum FLOPs (live).
    pub einsum_flops: u64,
    /// Total bytes moved by live collectives (operand sizes).
    pub collective_bytes: usize,
}

/// Computes [`ModuleStats`] for a module.
#[must_use]
pub fn module_stats(module: &Module) -> ModuleStats {
    let live = module.live_set();
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    let mut collective_bytes = 0usize;
    for (id, ins) in module.iter() {
        if !live[id.index()] {
            continue;
        }
        *counts.entry(ins.op().mnemonic()).or_insert(0) += 1;
        if ins.op().is_collective() && !ins.operands().is_empty() {
            collective_bytes += module.shape_of(ins.operands()[0]).byte_size();
        }
    }
    let mut op_counts: Vec<(String, usize)> =
        counts.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    op_counts.sort();
    ModuleStats {
        op_counts,
        live: live.iter().filter(|&&l| l).count(),
        total: module.len(),
        einsum_flops: module.total_einsum_flops(),
        collective_bytes,
    }
}

/// Renders the module as a GraphViz `dot` digraph (live instructions
/// only). Collectives are drawn as ellipses, einsums as double boxes,
/// everything else as plain boxes; fusion groups become clusters.
#[must_use]
pub fn to_dot(module: &Module) -> String {
    let live = module.live_set();
    let mut out = String::from("digraph module {\n  rankdir=TB;\n");
    // Emit fusion clusters first.
    for (gi, g) in module.fusion_groups().iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_{gi} {{ label=\"fusion {gi}\";");
        for &m in &g.members {
            if live[m.index()] {
                let _ = writeln!(out, "    n{};", m.index());
            }
        }
        let _ = writeln!(out, "  }}");
    }
    for (id, ins) in module.iter() {
        if !live[id.index()] {
            continue;
        }
        let shape = if ins.op().is_collective() {
            "ellipse"
        } else if matches!(ins.op(), Op::Einsum(_)) {
            "doubleoctagon"
        } else {
            "box"
        };
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\\n{}\", shape={shape}];",
            id.index(),
            ins.name(),
            ins.shape()
        );
        for o in ins.operands() {
            let _ = writeln!(out, "  n{} -> n{};", o.index(), id.index());
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, DotDims, ReplicaGroups, Shape};

    fn f32s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    fn cse(m: &Module) -> Module {
        eliminate_common_subexpressions(m, &ModuleAnalysis::of(m)).0
    }

    #[test]
    fn dce_drops_unreachable() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[4]), "x");
        let _dead = b.copy(x, "dead");
        let live = b.neg(x, "live");
        let m = b.build(vec![live]);
        let out = eliminate_dead_code(&m);
        out.verify().unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.count_live(|i| matches!(i.op(), Op::Copy)), 0);
    }

    #[test]
    fn cse_merges_duplicate_constants_and_arithmetic() {
        let mut b = Builder::new("m", 2);
        let p1 = b.partition_id("p1");
        let p2 = b.partition_id("p2");
        let c1 = b.constant(Shape::scalar(DType::U32), 3.0, "c1");
        let c2 = b.constant(Shape::scalar(DType::U32), 3.0, "c2");
        let a1 = b.add(p1, c1, "a1");
        let a2 = b.add(p2, c2, "a2");
        let x = b.parameter(f32s(&[4]), "x");
        let m = b.build(vec![a1, a2, x]);
        let out = cse(&m);
        out.verify().unwrap();
        // p1==p2, c1==c2, a1==a2: 6 scalar instrs collapse to 3.
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn cse_never_merges_collectives() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[2]), "x");
        let g1 = b.all_gather(x, 0, ReplicaGroups::full(2), "g1");
        let g2 = b.all_gather(x, 0, ReplicaGroups::full(2), "g2");
        let m = b.build(vec![g1, g2]);
        let out = cse(&m);
        assert_eq!(
            out.count_live(|i| matches!(i.op(), Op::AllGather { .. })),
            2,
            "collectives must not merge"
        );
    }

    #[test]
    fn stats_count_ops_and_flops() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[2, 3]), "x");
        let w = b.parameter(f32s(&[3, 2]), "w");
        let wg = b.all_gather(w, 1, ReplicaGroups::full(2), "wg");
        // Dead instruction: excluded from stats.
        let _dead = b.copy(x, "dead");
        let y = b.einsum(x, wg, DotDims::new(vec![], vec![(1, 0)]).unwrap(), "y");
        let m = b.build(vec![y]);
        let stats = module_stats(&m);
        assert_eq!(stats.total, 5);
        assert_eq!(stats.live, 4);
        assert_eq!(stats.einsum_flops, 2 * 2 * 3 * 4);
        assert_eq!(stats.collective_bytes, 3 * 2 * 4);
        assert!(stats.op_counts.iter().any(|(k, v)| k == "einsum" && *v == 1));
        assert!(!stats.op_counts.iter().any(|(k, _)| k == "copy"));
    }

    #[test]
    fn dot_export_mentions_nodes_and_edges() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[2, 3]), "x");
        let w = b.parameter(f32s(&[3, 4]), "w");
        let y = b.einsum(x, w, DotDims::matmul(), "y");
        let m = b.build(vec![y]);
        let dot = to_dot(&m);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("doubleoctagon"));
        assert!(dot.contains("->"));
    }

    #[test]
    fn cse_preserves_semantics_under_fusion() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[4]), "x");
        let c = b.constant(f32s(&[4]), 2.0, "c");
        let c2 = b.constant(f32s(&[4]), 2.0, "c_dup");
        let s1 = b.add(x, c, "s1");
        let s2 = b.add(s1, c2, "s2");
        let m = b.build(vec![s2]);
        let out = cse(&m);
        out.verify().unwrap();
        assert!(out.len() < m.len());
    }
}
