//! Identification of decomposable collective/einsum pairs.

use overlap_hlo::{DotDims, InstrId, Module, ModuleAnalysis, Op};

/// Which §5.1 AllGather case a pattern falls into, determined by the role
/// of the gathered dimension in the einsum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgCase {
    /// Case 1: the gathered operand dimension is a free (non-contracting)
    /// dimension — partial results are placed with `DynamicUpdateSlice`.
    Free,
    /// Case 2: the gathered dimension is contracting — the other operand
    /// is `DynamicSlice`d and partial results are accumulated with `Add`.
    Contracting,
    /// Case 3: the gathered dimension is a batch dimension — the other
    /// operand is sliced along its batch dimension and partial results are
    /// placed with `DynamicUpdateSlice` along the output batch dimension.
    Batch,
}

/// The kind of decomposable pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// `AllGather` feeding one einsum operand (§5.1, Fig. 4).
    AllGatherEinsum {
        /// Whether the gathered operand is the einsum LHS.
        gathered_is_lhs: bool,
        /// The AllGather case classification.
        case: AgCase,
    },
    /// Einsum feeding a `ReduceScatter` (§5.1, Fig. 5). The operand owning
    /// the scattered output dimension is `DynamicSlice`d per iteration.
    EinsumReduceScatter {
        /// Whether the operand that owns the scattered output dimension is
        /// the LHS.
        sliced_is_lhs: bool,
        /// That operand's dimension corresponding to the scattered output
        /// dimension.
        sliced_dim: usize,
    },
}

/// One decomposable `collective`/`einsum` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern {
    /// The einsum instruction.
    pub einsum: InstrId,
    /// The `AllGather` (operand) or `ReduceScatter` (user) instruction.
    pub collective: InstrId,
    /// Classification.
    pub kind: PatternKind,
}

fn classify_ag_dim(dims: &DotDims, dim: usize, is_lhs: bool) -> AgCase {
    let (batch, contracting) = if is_lhs {
        (dims.is_lhs_batch(dim), dims.is_lhs_contracting(dim))
    } else {
        (dims.is_rhs_batch(dim), dims.is_rhs_contracting(dim))
    };
    if batch {
        AgCase::Batch
    } else if contracting {
        AgCase::Contracting
    } else {
        AgCase::Free
    }
}

/// Finds every decomposable pattern in `module`.
///
/// A pattern requires exclusive dataflow — the collective's only user is
/// the einsum (AllGather case), or the einsum's only user is the
/// ReduceScatter (ReduceScatter case) — so the rewrite can consume the
/// pair. An einsum may appear in several candidate patterns (e.g. both
/// operands all-gathered); the §5.5 cost model picks at most one to
/// decompose.
///
/// Patterns whose collective has `group_size == 1` (nothing to transfer)
/// are skipped, as are ReduceScatters over output batch dimensions (not
/// covered by §5.1's transformation).
///
/// The users table comes from `analysis`, which must cover `module`.
///
/// # Panics
///
/// Panics if `analysis` does not cover `module`.
#[must_use]
pub fn find_patterns(module: &Module, analysis: &ModuleAnalysis) -> Vec<Pattern> {
    assert_eq!(analysis.len(), module.len(), "analysis does not cover module");
    find_patterns_in(module, analysis.users())
}

fn find_patterns_in(module: &Module, users: &[Vec<InstrId>]) -> Vec<Pattern> {
    let mut patterns = Vec::new();
    for (id, ins) in module.iter() {
        let Op::Einsum(dims) = ins.op() else { continue };

        // AllGather -> Einsum: check each operand.
        for (opi, &operand) in ins.operands().iter().enumerate() {
            let op_ins = module.instr(operand);
            if let Op::AllGather { dim, groups, .. } = op_ins.op() {
                if groups.group_size() < 2 || users[operand.index()].len() != 1 {
                    continue;
                }
                let gathered_is_lhs = opi == 0;
                let case = classify_ag_dim(dims, *dim, gathered_is_lhs);
                patterns.push(Pattern {
                    einsum: id,
                    collective: operand,
                    kind: PatternKind::AllGatherEinsum { gathered_is_lhs, case },
                });
            }
        }

        // Einsum -> ReduceScatter: the einsum's single user.
        if users[id.index()].len() == 1 {
            let user = users[id.index()][0];
            if let Op::ReduceScatter { dim, groups, .. } = module.instr(user).op() {
                if groups.group_size() < 2 {
                    continue;
                }
                let lhs = module.shape_of(ins.operands()[0]);
                let rhs = module.shape_of(ins.operands()[1]);
                // Map the scattered output dim back to an operand free dim.
                let mut found = None;
                for d in 0..lhs.rank() {
                    if dims.output_dim_of_lhs_free(lhs.rank(), d) == Some(*dim) {
                        found = Some((true, d));
                    }
                }
                for d in 0..rhs.rank() {
                    if dims.output_dim_of_rhs_free(lhs.rank(), rhs.rank(), d) == Some(*dim) {
                        found = Some((false, d));
                    }
                }
                if let Some((sliced_is_lhs, sliced_dim)) = found {
                    patterns.push(Pattern {
                        einsum: id,
                        collective: user,
                        kind: PatternKind::EinsumReduceScatter { sliced_is_lhs, sliced_dim },
                    });
                }
            }
        }
    }
    patterns
}

/// [`find_patterns`] over a fresh analysis, for tests.
#[cfg(test)]
pub(crate) fn patterns_of(module: &Module) -> Vec<Pattern> {
    find_patterns(module, &ModuleAnalysis::of(module))
}

#[cfg(test)]
mod tests {
    use overlap_hlo::{Builder, DType, ReplicaGroups, Shape};

    use super::*;

    fn f32s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    #[test]
    fn finds_ag_einsum_cases() {
        let n = 4;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[8, 16]), "x");
        // Case 1: RHS gathered along its free dim 1.
        let w1 = b.parameter(f32s(&[16, 8]), "w1");
        let g1 = b.all_gather(w1, 1, ReplicaGroups::full(n), "g1");
        let e1 = b.einsum(x, g1, DotDims::matmul(), "e1");
        // Case 2: RHS gathered along its contracting dim 0.
        let w2 = b.parameter(f32s(&[4, 8]), "w2");
        let g2 = b.all_gather(w2, 0, ReplicaGroups::full(n), "g2");
        let e2 = b.einsum(x, g2, DotDims::matmul(), "e2");
        // Case 3: LHS gathered along a batch dim.
        let a = b.parameter(f32s(&[2, 8, 4]), "a");
        let ga = b.all_gather(a, 0, ReplicaGroups::full(n), "ga");
        let rb = b.parameter(f32s(&[8, 4, 2]), "rb");
        let e3 = b.einsum(ga, rb, DotDims::batch_matmul(), "e3");
        let m = b.build(vec![e1, e2, e3]);
        m.verify().unwrap();

        let pats = patterns_of(&m);
        assert_eq!(pats.len(), 3);
        assert_eq!(
            pats[0].kind,
            PatternKind::AllGatherEinsum { gathered_is_lhs: false, case: AgCase::Free }
        );
        assert_eq!(
            pats[1].kind,
            PatternKind::AllGatherEinsum { gathered_is_lhs: false, case: AgCase::Contracting }
        );
        assert_eq!(
            pats[2].kind,
            PatternKind::AllGatherEinsum { gathered_is_lhs: true, case: AgCase::Batch }
        );
    }

    #[test]
    fn finds_einsum_rs() {
        let n = 2;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[8, 16]), "x");
        let w = b.parameter(f32s(&[16, 8]), "w");
        let e = b.einsum(x, w, DotDims::matmul(), "e");
        let rs = b.reduce_scatter(e, 1, ReplicaGroups::full(n), "rs");
        let m = b.build(vec![rs]);
        let pats = patterns_of(&m);
        assert_eq!(pats.len(), 1);
        assert_eq!(
            pats[0].kind,
            PatternKind::EinsumReduceScatter { sliced_is_lhs: false, sliced_dim: 1 }
        );
        assert_eq!(pats[0].einsum, e);
        assert_eq!(pats[0].collective, rs);
    }

    #[test]
    fn multi_user_gather_not_matched() {
        let n = 2;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[8, 16]), "x");
        let w = b.parameter(f32s(&[8, 8]), "w");
        let g = b.all_gather(w, 0, ReplicaGroups::full(n), "g");
        let e = b.einsum(x, g, DotDims::matmul(), "e");
        let c = b.copy(g, "c"); // second user of the gather
        let m = b.build(vec![e, c]);
        assert!(patterns_of(&m).is_empty());
    }

    #[test]
    fn multi_user_einsum_not_matched_for_rs() {
        let n = 2;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[8, 16]), "x");
        let w = b.parameter(f32s(&[16, 8]), "w");
        let e = b.einsum(x, w, DotDims::matmul(), "e");
        let rs = b.reduce_scatter(e, 1, ReplicaGroups::full(n), "rs");
        let c = b.copy(e, "c");
        let m = b.build(vec![rs, c]);
        assert!(patterns_of(&m).is_empty());
    }

    #[test]
    fn einsum_with_two_gathers_yields_two_candidates() {
        let n = 2;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[4, 16]), "x");
        let w = b.parameter(f32s(&[8, 8]), "w");
        let gx = b.all_gather(x, 0, ReplicaGroups::full(n), "gx");
        let gw = b.all_gather(w, 0, ReplicaGroups::full(n), "gw");
        let e = b.einsum(gx, gw, DotDims::matmul(), "e");
        let m = b.build(vec![e]);
        let pats = patterns_of(&m);
        assert_eq!(pats.len(), 2);
        assert_eq!(pats[0].einsum, e);
        assert_eq!(pats[1].einsum, e);
    }

    #[test]
    fn rs_on_batch_dim_not_matched() {
        let n = 2;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[4, 8, 16]), "x");
        let w = b.parameter(f32s(&[4, 16, 8]), "w");
        let e = b.einsum(x, w, DotDims::batch_matmul(), "e");
        let rs = b.reduce_scatter(e, 0, ReplicaGroups::full(n), "rs");
        let m = b.build(vec![rs]);
        assert!(patterns_of(&m).is_empty());
    }
}
