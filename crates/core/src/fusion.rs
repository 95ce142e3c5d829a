//! Operation fusion with the overlap-aware heuristic (§5.4.3, Fig. 11).
//!
//! Fusion is modeled as grouping (see
//! [`FusionGroup`](overlap_hlo::FusionGroup)): a group executes as one
//! kernel, so fused elementwise work is free but the group inherits the
//! union of its members' dependences. That is exactly the Fig. 11 hazard:
//! fusing a result-update `Add` with the *wrong* einsum makes an
//! otherwise-independent einsum wait for a `CollectivePermuteDone`.

use overlap_hlo::{FusionGroup, InstrId, Module, ModuleAnalysis, Op};

/// Options for the fusion pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionOptions {
    /// Use the §5.4.3 overlap-aware heuristic: when a combining op could
    /// fuse with more than one producer einsum, prefer the einsum that
    /// (transitively through elementwise ops) consumes an asynchronous
    /// `CollectivePermuteDone`, keeping the independent einsum free to
    /// overlap with the transfer. When `false`, the default
    /// lowest-instruction-id choice reproduces Fig. 11(a)'s bad fusion.
    pub overlap_aware: bool,
}

impl Default for FusionOptions {
    fn default() -> Self {
        FusionOptions { overlap_aware: true }
    }
}

/// Whether `id` (an einsum) transitively consumes a
/// `CollectivePermuteDone` through elementwise/data-movement producers.
fn depends_on_done(module: &Module, id: InstrId) -> bool {
    let mut stack = vec![id];
    let mut seen = vec![false; module.len()];
    while let Some(cur) = stack.pop() {
        if seen[cur.index()] {
            continue;
        }
        seen[cur.index()] = true;
        for &op in module.instr(cur).operands() {
            match module.instr(op).op() {
                Op::CollectivePermuteDone => return true,
                // Look through cheap ops only — a dependence through
                // another einsum is a real serialization anyway.
                o if o.is_elementwise()
                    || matches!(
                        o,
                        Op::DynamicSlice { .. }
                            | Op::Slice { .. }
                            | Op::Concatenate { .. }
                            | Op::Pad { .. }
                            | Op::Reshape
                    ) =>
                {
                    stack.push(op);
                }
                _ => {}
            }
        }
    }
    false
}

/// Runs the fusion pass: each einsum is grouped with its (single-user)
/// cheap producers — `DynamicSlice`/`Concatenate`/`Pad`/`Max` operand
/// pre-processing (§5.4.3) — and each combining op (`Add` or
/// `DynamicUpdateSlice`) is fused with one producer einsum chosen by the
/// heuristic in [`FusionOptions`].
///
/// Consumes `module` and returns it with fusion groups attached (callers
/// that must keep the unfused module pass a clone). The users table
/// comes from `analysis`, whose verified watermark must cover `module`
/// (the caller vouches for verification); the caller should
/// [`refresh_fusion`](ModuleAnalysis::refresh_fusion) its analysis on the
/// returned module.
///
/// # Panics
///
/// Panics if `analysis` does not cover and verify `module`.
#[must_use]
pub fn fuse(module: Module, analysis: &ModuleAnalysis, options: &FusionOptions) -> Module {
    assert_eq!(analysis.len(), module.len(), "analysis does not cover module");
    assert_eq!(
        analysis.verified_len(),
        module.len(),
        "fusion requires a verified module"
    );
    let groups = fusion_groups(&module, analysis.users(), options);
    module.with_fusion_groups(groups).expect("constructed groups are well-formed")
}

fn fusion_groups(
    module: &Module,
    users: &[Vec<InstrId>],
    options: &FusionOptions,
) -> Vec<FusionGroup> {
    let single_user = |id: InstrId| users[id.index()].len() == 1;
    let mut group_of: Vec<Option<usize>> = vec![None; module.len()];
    let mut groups: Vec<FusionGroup> = Vec::new();

    // Pass 1: give every einsum a group seeded with its cheap, single-use
    // producers (operand pre-processing).
    for (id, ins) in module.iter() {
        if !matches!(ins.op(), Op::Einsum(_)) {
            continue;
        }
        let mut members = Vec::new();
        for &op in ins.operands() {
            let o = module.instr(op).op();
            let cheap = matches!(
                o,
                Op::DynamicSlice { .. } | Op::Concatenate { .. } | Op::Pad { .. } | Op::Unary(_)
            ) || matches!(
                o,
                Op::Binary(overlap_hlo::BinaryKind::Max)
                    | Op::Binary(overlap_hlo::BinaryKind::Mul)
            );
            if cheap && single_user(op) && group_of[op.index()].is_none() {
                // Also absorb the producer's own cheap single-use inputs
                // (the padded halves of a Max(PadLow, PadHigh) join).
                for &op2 in module.instr(op).operands() {
                    let o2 = module.instr(op2).op();
                    if matches!(o2, Op::Pad { .. } | Op::DynamicSlice { .. })
                        && single_user(op2)
                        && group_of[op2.index()].is_none()
                    {
                        members.push(op2);
                    }
                }
                members.push(op);
            }
        }
        members.push(id);
        let gi = groups.len();
        for &m in &members {
            group_of[m.index()] = Some(gi);
        }
        groups.push(FusionGroup { members, root: id });
    }

    // Pass 2: output fusion. XLA fuses the decomposition's combining step
    // into the partial einsum's kernel (the einsum writes directly into
    // the result buffer); without that the decomposed form would pay a
    // full extra memory pass per iteration. Two shapes occur:
    //
    // (a) einsum → (Add | DynamicUpdateSlice): absorb the combining op;
    //     when it could fuse with two producer einsums (Fig. 11), the
    //     heuristic picks one;
    // (b) einsum → {Slice lo, Slice hi} → two combining ops chained by
    //     their result operand (the bidirectional split): absorb all four.
    let combining = |id: InstrId| {
        matches!(module.instr(id).op(), Op::Binary(overlap_hlo::BinaryKind::Add))
            || matches!(module.instr(id).op(), Op::DynamicUpdateSlice)
    };
    for (id, ins) in module.iter() {
        if !matches!(ins.op(), Op::Einsum(_)) {
            continue;
        }
        let gi = group_of[id.index()].expect("every einsum seeded a group");
        if groups[gi].root != id {
            continue;
        }
        let eusers = &users[id.index()];
        if eusers.len() == 1 && combining(eusers[0]) && group_of[eusers[0].index()].is_none() {
            // Shape (a): possibly competing with another producer einsum.
            let c = eusers[0];
            let candidates: Vec<InstrId> = module
                .instr(c)
                .operands()
                .iter()
                .copied()
                .filter(|&op| {
                    matches!(module.instr(op).op(), Op::Einsum(_))
                        && single_user(op)
                        && group_of[op.index()].is_some_and(|g| groups[g].root == op)
                })
                .collect();
            let chosen = if options.overlap_aware {
                candidates
                    .iter()
                    .copied()
                    .find(|&cand| depends_on_done(module, cand))
                    .unwrap_or(candidates[0])
            } else {
                // Default heuristic: first (lowest-id) producer — for the
                // Fig. 11 pattern this is the independent einsum,
                // recreating the bad fusion.
                *candidates.iter().min().expect("einsum id is a candidate")
            };
            if chosen == id {
                groups[gi].members.push(c);
                groups[gi].root = c;
                group_of[c.index()] = Some(gi);
            }
        } else if eusers.len() == 2 {
            // Shape (b): the bidirectional split-and-update.
            let both_slices = eusers.iter().all(|&u| {
                matches!(module.instr(u).op(), Op::Slice { .. })
                    && single_user(u)
                    && group_of[u.index()].is_none()
            });
            if !both_slices {
                continue;
            }
            let c1 = users[eusers[0].index()][0];
            let c2 = users[eusers[1].index()][0];
            if c1 == c2 || !combining(c1) || !combining(c2) {
                continue;
            }
            if group_of[c1.index()].is_some() || group_of[c2.index()].is_some() {
                continue;
            }
            // The later combining op must chain on the earlier one.
            let (first, second) = if c1 < c2 { (c1, c2) } else { (c2, c1) };
            let chained = module.instr(second).operands().contains(&first)
                && single_user(first);
            if !chained {
                continue;
            }
            for &m in &[eusers[0], eusers[1], first, second] {
                groups[gi].members.push(m);
                group_of[m.index()] = Some(gi);
            }
            groups[gi].root = second;
        }
    }

    // Drop singleton groups: a one-member "fusion" is the instruction
    // itself, but executing it as a group would pay a second kernel
    // launch for nothing.
    groups.retain(|g| g.members.len() > 1);
    groups
}

#[cfg(test)]
mod tests {
    use overlap_hlo::{Builder, DType, DotDims, Shape};

    use super::*;

    fn f32s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    fn fuse_verified(m: &Module, options: &FusionOptions) -> Module {
        let mut analysis = ModuleAnalysis::of(m);
        m.verify_incremental(&mut analysis).unwrap();
        fuse(m.clone(), &analysis, options)
    }

    /// The Fig. 11 shape: Add(einsum_0, einsum_1) where einsum_1 consumes
    /// a CollectivePermuteDone.
    fn fig11_module() -> (Module, InstrId, InstrId, InstrId) {
        let mut b = Builder::new("m", 2);
        let a = b.parameter(f32s(&[64, 64]), "a");
        let w0 = b.parameter(f32s(&[64, 64]), "w0");
        let w1 = b.parameter(f32s(&[64, 64]), "w1");
        let e0 = b.einsum(a, w0, DotDims::matmul(), "einsum0");
        let s = b.collective_permute_start(a, vec![(0, 1), (1, 0)], "s");
        let d = b.collective_permute_done(s, "d");
        let e1 = b.einsum(d, w1, DotDims::matmul(), "einsum1");
        let add = b.add(e0, e1, "add");
        (b.build(vec![add]), e0, e1, add)
    }

    #[test]
    fn overlap_aware_fuses_add_with_dependent_einsum() {
        let (m, _e0, e1, add) = fig11_module();
        let fused = fuse_verified(&m, &FusionOptions { overlap_aware: true });
        fused.verify().unwrap();
        let fo = fused.fusion_of();
        assert!(fo[add.index()].is_some());
        assert_eq!(
            fo[add.index()],
            fo[e1.index()],
            "add must fuse with the done-dependent einsum"
        );
    }

    #[test]
    fn default_heuristic_reproduces_bad_fusion() {
        let (m, e0, e1, add) = fig11_module();
        let fused = fuse_verified(&m, &FusionOptions { overlap_aware: false });
        fused.verify().unwrap();
        let fo = fused.fusion_of();
        assert!(fo[add.index()].is_some());
        assert_eq!(fo[add.index()], fo[e0.index()], "default fuses with the first producer");
        // e1's seed group stayed a singleton and was dropped.
        assert!(fo[e1.index()].is_none() || fo[e1.index()] != fo[add.index()]);
    }

    #[test]
    fn slice_producers_join_einsum_group() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[8, 16]), "x");
        let w = b.parameter(f32s(&[16, 8]), "w");
        let zero = b.constant(Shape::scalar(DType::U32), 0.0, "z");
        let ds = b.dynamic_slice(x, &[zero, zero], vec![4, 16], "ds");
        let e = b.einsum(ds, w, DotDims::matmul(), "e");
        let m = b.build(vec![e]);
        let fused = fuse_verified(&m, &FusionOptions::default());
        let fo = fused.fusion_of();
        assert!(fo[ds.index()].is_some());
        assert_eq!(fo[ds.index()], fo[e.index()]);
    }

    #[test]
    fn multi_user_values_stay_unfused() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[8, 8]), "x");
        let w = b.parameter(f32s(&[8, 8]), "w");
        let e = b.einsum(x, w, DotDims::matmul(), "e");
        let add = b.add(e, x, "add");
        let c = b.copy(e, "c"); // second user of the einsum
        let m = b.build(vec![add, c]);
        let fused = fuse_verified(&m, &FusionOptions::default());
        let fo = fused.fusion_of();
        // The add cannot join the einsum's group, which therefore stays a
        // singleton and is dropped entirely.
        assert!(fo[add.index()].is_none());
        assert!(fo[e.index()].is_none());
        fused.verify().unwrap();
    }
}
