//! AllReduce reassociation: `AllReduce = ReduceScatter + AllGather` (§2.1).
//!
//! Megatron-style partitioning (§2.2) leaves `Einsum → AllReduce` pairs,
//! which the decomposition cannot touch directly. Splitting each
//! `AllReduce` into the equivalent `ReduceScatter` followed by an
//! `AllGather` exposes an `Einsum → ReduceScatter` pattern (decomposable)
//! and an `AllGather` that may itself feed the next einsum (also
//! decomposable). This is an *extension* beyond the paper's evaluated
//! configuration — its own strategy avoids AllReduces by construction —
//! but uses only the identity the paper states in §2.1.

use overlap_hlo::{Builder, InstrId, Module, ModuleAnalysis, Op};

/// Tag placed on instructions emitted by the split.
pub const REASSOC_TAG: &str = "reassoc.ar_split";

/// Splits every `AllReduce` whose operand has a dimension divisible by
/// its group size into `ReduceScatter` + `AllGather` along that dimension
/// (the first divisible dimension is used). Indivisible AllReduces are
/// kept unchanged.
///
/// The transformation is semantically the identity (checked by the
/// cross-crate equivalence tests).
///
/// Returns the rewritten module with its [`ModuleAnalysis`], maintained
/// append-by-append by the builder.
///
/// # Panics
///
/// Panics if the module is malformed (operands after users).
#[must_use]
pub fn split_all_reduces(module: &Module) -> (Module, ModuleAnalysis) {
    let mut b = Builder::new(module.name().to_string(), module.num_partitions());
    let mut map: Vec<Option<InstrId>> = vec![None; module.len()];
    for (id, ins) in module.iter() {
        let operands: Vec<InstrId> = ins
            .operands()
            .iter()
            .map(|o| map[o.index()].expect("operands precede users"))
            .collect();
        let new_id = if let Op::AllReduce { groups, wire } = ins.op() {
            let shape = module.shape_of(ins.operands()[0]);
            let g = groups.group_size();
            match (0..shape.rank()).find(|&d| shape.dim(d).is_multiple_of(g) && shape.dim(d) > 0) {
                Some(dim) if g > 1 => {
                    b.set_tag(Some(REASSOC_TAG));
                    // The halves inherit the all-reduce's wire encoding.
                    let rs = b.reduce_scatter_wire(
                        operands[0],
                        dim,
                        groups.clone(),
                        *wire,
                        &format!("{}.rs", ins.name()),
                    );
                    let ag = b.all_gather_wire(
                        rs,
                        dim,
                        groups.clone(),
                        *wire,
                        &format!("{}.ag", ins.name()),
                    );
                    b.set_tag(None);
                    ag
                }
                _ => b.copy_of(module, id, operands),
            }
        } else {
            b.copy_of(module, id, operands)
        };
        map[id.index()] = Some(new_id);
    }
    let outputs = module
        .outputs()
        .iter()
        .map(|o| map[o.index()].expect("outputs mapped"))
        .collect();
    b.build_with_analysis(outputs)
}

#[cfg(test)]
mod tests {
    use overlap_hlo::{DType, DotDims, ReplicaGroups, Shape};

    use super::*;
    use crate::find_patterns;

    fn f32s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    /// Megatron-style layer: partial matmul then AllReduce.
    fn megatron(n: usize) -> Module {
        let mut b = Builder::new("megatron", n);
        let x = b.parameter(f32s(&[8, 4]), "x"); // [B, K/n] local
        let w = b.parameter(f32s(&[4, 4 * n]), "w"); // [K/n, H]
        let e = b.einsum(x, w, DotDims::matmul(), "e");
        let ar = b.all_reduce(e, ReplicaGroups::full(n), "ar");
        b.build(vec![ar])
    }

    #[test]
    fn split_exposes_decomposable_patterns() {
        let m = megatron(4);
        let analysis = ModuleAnalysis::of(&m);
        assert!(find_patterns(&m, &analysis).is_empty(), "AllReduce alone is not decomposable");
        let (split, analysis) = split_all_reduces(&m);
        split.verify().unwrap();
        assert_eq!(split.count_live(|i| matches!(i.op(), Op::AllReduce { .. })), 0);
        assert_eq!(split.count_live(|i| matches!(i.op(), Op::ReduceScatter { .. })), 1);
        assert_eq!(split.count_live(|i| matches!(i.op(), Op::AllGather { .. })), 1);
        // The einsum -> reduce-scatter pattern is now visible.
        let patterns = find_patterns(&split, &analysis);
        assert_eq!(patterns.len(), 1);
    }

    #[test]
    fn indivisible_all_reduce_is_kept() {
        let n = 4;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[3, 5]), "x"); // nothing divisible by 4
        let ar = b.all_reduce(x, ReplicaGroups::full(n), "ar");
        let m = b.build(vec![ar]);
        let (split, _) = split_all_reduces(&m);
        assert_eq!(split.count_live(|i| matches!(i.op(), Op::AllReduce { .. })), 1);
    }

    #[test]
    fn trivial_group_is_kept() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[4]), "x");
        let ar = b.all_reduce(x, ReplicaGroups::full(1), "ar");
        let m = b.build(vec![ar]);
        let (split, _) = split_all_reduces(&m);
        assert_eq!(split.count_live(|i| matches!(i.op(), Op::AllReduce { .. })), 1);
    }
}
