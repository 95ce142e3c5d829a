//! Structural and shape verification of modules.

use std::collections::HashMap;
use std::sync::Arc;

use crate::{FusionId, HloError, InstrId, Module, ModuleAnalysis, Op, Shape, WireFormat};

/// Permute-pair checking for the builder and the verifier: destinations
/// are stamped in one epoch-tagged scratch array instead of sorted per
/// permute, and a list shared by several permutes is accepted once. A
/// clone of every accepted list is kept, so its address can never be
/// freed and reused by a different list while the memo lives.
#[derive(Debug, Default)]
pub(crate) struct PairCheck {
    seen: Vec<u64>,
    epoch: u64,
    accepted: HashMap<usize, Arc<[(u32, u32)]>>,
}

impl PairCheck {
    /// The first problem with `pairs` on `n` partitions; a duplicate
    /// destination outranks an out-of-range id.
    pub(crate) fn check(&mut self, pairs: &Arc<[(u32, u32)]>, n: u32) -> Result<(), &'static str> {
        let address = Arc::as_ptr(pairs).cast::<(u32, u32)>() as usize;
        if self.accepted.contains_key(&address) {
            return Ok(());
        }
        if pairs.iter().any(|&(s, d)| s >= n || d >= n) {
            let mut dsts: Vec<u32> = pairs.iter().map(|&(_, d)| d).collect();
            dsts.sort_unstable();
            let duplicate = dsts.windows(2).any(|w| w[0] == w[1]);
            return Err(if duplicate { "duplicate destination" } else { "id out of range" });
        }
        self.seen.resize(self.seen.len().max(n as usize), 0);
        self.epoch += 1;
        for &(_, d) in pairs.iter() {
            if std::mem::replace(&mut self.seen[d as usize], self.epoch) == self.epoch {
                return Err("duplicate destination");
            }
        }
        self.accepted.insert(address, Arc::clone(pairs));
        Ok(())
    }
}

impl Module {
    /// Verifies every structural and shape invariant of the module.
    ///
    /// Checks, for each instruction:
    ///
    /// * operands exist and precede their user (arena order is topological);
    /// * operand arity matches the op;
    /// * the declared result shape agrees with shape inference;
    /// * replica groups partition `0..num_partitions`, permute destinations
    ///   are unique, collective dims are in range;
    /// * every `CollectivePermuteStart` has **exactly one**
    ///   `CollectivePermuteDone` user and `Done`s consume only `Start`s;
    /// * parameter indices are dense `0..k` without duplicates;
    /// * outputs exist; fusion groups are well-formed and each group's
    ///   non-root members are used only within the group.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as an [`HloError`].
    pub fn verify(&self) -> Result<(), HloError> {
        self.check_instrs(0)?;
        self.check_globals(&self.users(), &self.fusion_of())
    }

    /// Incremental verification: per-instruction checks (operand
    /// existence and ordering, shape inference) run only for instructions
    /// at or above the analysis' verified watermark, while the cheap
    /// global invariants (parameter-index density, output range,
    /// start/done pairing, fusion-group well-formedness) are re-checked
    /// every time using the analysis' maintained tables instead of fresh
    /// whole-module index builds.
    ///
    /// With a fresh [`ModuleAnalysis::of`] (watermark zero) this accepts
    /// exactly the modules [`Module::verify`] accepts; with an analysis
    /// carried from [`Builder::build_with_analysis`](crate::Builder) the
    /// per-instruction work was already done at append time and is
    /// skipped. On success the watermark advances to cover the whole
    /// module.
    ///
    /// Debug builds (every test run) additionally run the full verifier
    /// and panic if the two disagree; release builds skip that cross-check.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as an [`HloError`].
    ///
    /// # Panics
    ///
    /// Panics if `analysis` does not cover this module, or — in debug
    /// builds — if the incremental and full verifiers disagree.
    pub fn verify_incremental(&self, analysis: &mut ModuleAnalysis) -> Result<(), HloError> {
        assert_eq!(analysis.len(), self.len(), "analysis does not cover module");
        let result = self.verify_incremental_impl(analysis);
        if cfg!(debug_assertions) {
            let full = self.verify();
            assert_eq!(
                result.is_ok(),
                full.is_ok(),
                "incremental verifier disagrees with full verifier: \
                 incremental {result:?}, full {full:?}"
            );
        }
        if result.is_ok() {
            analysis.set_verified(self.len());
        }
        result
    }

    fn verify_incremental_impl(&self, analysis: &ModuleAnalysis) -> Result<(), HloError> {
        self.check_instrs(analysis.verified_len())?;
        // Global invariants are cheap relative to shape inference and a
        // pass rewrite can violate them without touching any single
        // instruction, so they always run in full — against the
        // maintained tables rather than fresh index builds.
        self.check_globals(analysis.users(), analysis.fusion())
    }

    /// Per-instruction checks from instruction `from` on: operands exist
    /// and precede their user, and `check_instr`.
    fn check_instrs(&self, from: usize) -> Result<(), HloError> {
        let mut pair_check = PairCheck::default();
        for (id, ins) in self.iter().skip(from) {
            for &o in ins.operands() {
                if o.index() >= self.instrs.len() {
                    return Err(HloError::DanglingOperand {
                        instr: ins.name().to_string(),
                        operand: o.index(),
                    });
                }
                if o >= id {
                    return Err(HloError::NotADag(format!(
                        "{} uses {} which does not precede it",
                        ins.name(),
                        self.instr(o).name()
                    )));
                }
            }
            self.check_instr(id, &mut pair_check)?;
        }
        Ok(())
    }

    /// Whole-module invariants: dense parameter indices, outputs in
    /// range, start/done pairing and fusion-group well-formedness.
    fn check_globals(
        &self,
        users: &[Vec<InstrId>],
        fusion_of: &[Option<FusionId>],
    ) -> Result<(), HloError> {
        let mut param_indices: Vec<usize> = self
            .iter()
            .filter_map(|(_, ins)| match ins.op() {
                Op::Parameter { index } => Some(*index),
                _ => None,
            })
            .collect();
        param_indices.sort_unstable();
        for (i, &p) in param_indices.iter().enumerate() {
            if p != i {
                return Err(HloError::Verification(format!(
                    "parameter indices not dense: expected {i}, found {p}"
                )));
            }
        }
        for &o in &self.outputs {
            if o.index() >= self.instrs.len() {
                return Err(HloError::Verification(format!("output {o} out of range")));
            }
        }
        self.check_start_done_pairing(users)?;
        self.check_fusion_groups(users, fusion_of)
    }

    fn mismatch(&self, id: InstrId, message: String) -> HloError {
        HloError::ShapeMismatch { instr: self.instr(id).name().to_string(), message }
    }

    fn check_wire(&self, id: InstrId, wire: WireFormat) -> Result<(), HloError> {
        wire.validate().map_err(|e| {
            HloError::Verification(format!("{}: {e}", self.instr(id).name()))
        })
    }

    fn expect_arity(&self, id: InstrId, arity: usize) -> Result<(), HloError> {
        let got = self.instr(id).operands().len();
        if got != arity {
            return Err(self.mismatch(id, format!("expected {arity} operands, got {got}")));
        }
        Ok(())
    }

    fn expect_shape(&self, id: InstrId, expected: &Shape) -> Result<(), HloError> {
        let got = self.shape_of(id);
        if got != expected {
            return Err(self.mismatch(id, format!("declared {got}, inferred {expected}")));
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn check_instr(&self, id: InstrId, pair_check: &mut PairCheck) -> Result<(), HloError> {
        let ins = self.instr(id);
        let shape = ins.shape();
        let operand = |i: usize| self.shape_of(ins.operands()[i]);
        match ins.op() {
            Op::ConstantTensor { values } => {
                self.expect_arity(id, 0)?;
                if values.len() != shape.num_elements() {
                    return Err(self.mismatch(
                        id,
                        format!("{} values for shape {shape}", values.len()),
                    ));
                }
            }
            Op::Parameter { .. } | Op::Constant { .. } | Op::PartitionId => {
                self.expect_arity(id, 0)?;
                if matches!(ins.op(), Op::PartitionId) && !shape.is_scalar() {
                    return Err(self.mismatch(id, "partition-id must be scalar".into()));
                }
            }
            Op::Iota { dim } => {
                self.expect_arity(id, 0)?;
                if *dim >= shape.rank() {
                    return Err(self.mismatch(id, format!("iota dim {dim} out of range")));
                }
            }
            Op::Broadcast { operand_dims } => {
                self.expect_arity(id, 1)?;
                let xs = operand(0);
                if operand_dims.len() != xs.rank() {
                    return Err(self.mismatch(id, "broadcast mapping arity".into()));
                }
                for (i, &d) in operand_dims.iter().enumerate() {
                    if d >= shape.rank()
                        || (i > 0 && operand_dims[i - 1] >= d)
                        || xs.dim(i) != shape.dim(d)
                    {
                        return Err(self.mismatch(id, format!("broadcast dim {i} invalid")));
                    }
                }
                if xs.dtype() != shape.dtype() {
                    return Err(self.mismatch(id, "broadcast dtype".into()));
                }
            }
            Op::Reshape => {
                self.expect_arity(id, 1)?;
                let xs = operand(0);
                if xs.num_elements() != shape.num_elements() || xs.dtype() != shape.dtype() {
                    return Err(self.mismatch(id, format!("reshape {xs} -> {shape}")));
                }
            }
            Op::Transpose { perm } => {
                self.expect_arity(id, 1)?;
                let xs = operand(0);
                let mut sorted = perm.clone();
                sorted.sort_unstable();
                if sorted != (0..xs.rank()).collect::<Vec<_>>() {
                    return Err(self.mismatch(id, "transpose perm not a permutation".into()));
                }
                let dims: Vec<usize> = perm.iter().map(|&p| xs.dim(p)).collect();
                self.expect_shape(id, &Shape::new(xs.dtype(), dims))?;
            }
            Op::Slice { starts, limits } => {
                self.expect_arity(id, 1)?;
                let xs = operand(0);
                if starts.len() != xs.rank() || limits.len() != xs.rank() {
                    return Err(self.mismatch(id, "slice arity".into()));
                }
                let mut dims = Vec::with_capacity(xs.rank());
                for d in 0..xs.rank() {
                    if starts[d] > limits[d] || limits[d] > xs.dim(d) {
                        return Err(self.mismatch(id, format!("slice bounds at dim {d}")));
                    }
                    dims.push(limits[d] - starts[d]);
                }
                self.expect_shape(id, &Shape::new(xs.dtype(), dims))?;
            }
            Op::DynamicSlice { sizes } => {
                let xs = operand(0).clone();
                self.expect_arity(id, 1 + xs.rank())?;
                if sizes.len() != xs.rank() {
                    return Err(self.mismatch(id, "dynamic-slice sizes arity".into()));
                }
                for (d, &s) in sizes.iter().enumerate() {
                    if s > xs.dim(d) {
                        return Err(self.mismatch(id, format!("dynamic-slice size at dim {d}")));
                    }
                }
                for i in 0..xs.rank() {
                    let idx = operand(1 + i);
                    if !idx.is_scalar() || !idx.dtype().is_integer() {
                        return Err(self.mismatch(id, format!("index {i} not integer scalar")));
                    }
                }
                self.expect_shape(id, &Shape::new(xs.dtype(), sizes.clone()))?;
            }
            Op::DynamicUpdateSlice => {
                let xs = operand(0).clone();
                self.expect_arity(id, 2 + xs.rank())?;
                let us = operand(1);
                if us.rank() != xs.rank() || us.dtype() != xs.dtype() {
                    return Err(self.mismatch(id, "update rank/dtype".into()));
                }
                for d in 0..xs.rank() {
                    if us.dim(d) > xs.dim(d) {
                        return Err(self.mismatch(id, format!("update dim {d} too large")));
                    }
                }
                for i in 0..xs.rank() {
                    let idx = operand(2 + i);
                    if !idx.is_scalar() || !idx.dtype().is_integer() {
                        return Err(self.mismatch(id, format!("index {i} not integer scalar")));
                    }
                }
                self.expect_shape(id, &xs)?;
            }
            Op::Concatenate { dim } => {
                if ins.operands().is_empty() {
                    return Err(self.mismatch(id, "concatenate needs operands".into()));
                }
                let first = operand(0).clone();
                if *dim >= first.rank() {
                    return Err(self.mismatch(id, "concatenate dim out of range".into()));
                }
                let mut total = 0;
                for i in 0..ins.operands().len() {
                    let s = operand(i);
                    if s.rank() != first.rank() || s.dtype() != first.dtype() {
                        return Err(self.mismatch(id, format!("operand {i} rank/dtype")));
                    }
                    for d in 0..first.rank() {
                        if d != *dim && s.dim(d) != first.dim(d) {
                            return Err(self.mismatch(id, format!("operand {i} off-dim {d}")));
                        }
                    }
                    total += s.dim(*dim);
                }
                self.expect_shape(id, &first.with_dim(*dim, total))?;
            }
            Op::Pad { config } => {
                self.expect_arity(id, 2)?;
                let xs = operand(0);
                let vs = operand(1);
                if !vs.is_scalar() || vs.dtype() != xs.dtype() {
                    return Err(self.mismatch(id, "pad value".into()));
                }
                if config.len() != xs.rank() {
                    return Err(self.mismatch(id, "pad config arity".into()));
                }
                let dims: Vec<usize> = xs
                    .dims()
                    .iter()
                    .zip(config)
                    .map(|(&d, p)| d + p.low + p.high)
                    .collect();
                self.expect_shape(id, &Shape::new(xs.dtype(), dims))?;
            }
            Op::Binary(_) => {
                self.expect_arity(id, 2)?;
                if operand(0) != operand(1) {
                    return Err(self.mismatch(id, "binary operand shapes differ".into()));
                }
                self.expect_shape(id, &operand(0).clone())?;
            }
            Op::Unary(_) | Op::Copy => {
                self.expect_arity(id, 1)?;
                self.expect_shape(id, &operand(0).clone())?;
            }
            Op::Einsum(dims) => {
                self.expect_arity(id, 2)?;
                let out = dims
                    .output_shape(operand(0), operand(1))
                    .map_err(|e| self.mismatch(id, e.to_string()))?;
                self.expect_shape(id, &out)?;
            }
            Op::AllGather { dim, groups, wire } => {
                self.expect_arity(id, 1)?;
                let xs = operand(0);
                if *dim >= xs.rank() {
                    return Err(self.mismatch(id, "all-gather dim".into()));
                }
                groups.validate(self.num_partitions)?;
                self.check_wire(id, *wire)?;
                self.expect_shape(id, &xs.with_dim_scaled(*dim, groups.group_size()))?;
            }
            Op::ReduceScatter { dim, groups, wire } => {
                self.expect_arity(id, 1)?;
                let xs = operand(0);
                if *dim >= xs.rank() || xs.dim(*dim) % groups.group_size() != 0 {
                    return Err(self.mismatch(id, "reduce-scatter dim".into()));
                }
                groups.validate(self.num_partitions)?;
                self.check_wire(id, *wire)?;
                self.expect_shape(id, &xs.with_dim_divided(*dim, groups.group_size()))?;
            }
            Op::AllReduce { groups, wire } => {
                self.expect_arity(id, 1)?;
                groups.validate(self.num_partitions)?;
                self.check_wire(id, *wire)?;
                self.expect_shape(id, &operand(0).clone())?;
            }
            Op::AllToAll { split_dim, concat_dim, groups } => {
                self.expect_arity(id, 1)?;
                let xs = operand(0);
                let g = groups.group_size();
                if *split_dim >= xs.rank()
                    || *concat_dim >= xs.rank()
                    || xs.dim(*split_dim) % g != 0
                {
                    return Err(self.mismatch(id, "all-to-all dims".into()));
                }
                groups.validate(self.num_partitions)?;
                self.expect_shape(
                    id,
                    &xs.with_dim_divided(*split_dim, g).with_dim_scaled(*concat_dim, g),
                )?;
            }
            Op::CollectivePermute { pairs, wire } | Op::CollectivePermuteStart { pairs, wire } => {
                self.expect_arity(id, 1)?;
                self.check_wire(id, *wire)?;
                pair_check.check(pairs, self.num_partitions as u32).map_err(|problem| {
                    HloError::InvalidPermutePairs(format!("{}: {problem}", ins.name()))
                })?;
                self.expect_shape(id, &operand(0).clone())?;
            }
            Op::CollectivePermuteDone => {
                self.expect_arity(id, 1)?;
                if !matches!(
                    self.instr(ins.operands()[0]).op(),
                    Op::CollectivePermuteStart { .. }
                ) {
                    return Err(self.mismatch(id, "done operand must be a start".into()));
                }
                self.expect_shape(id, &operand(0).clone())?;
            }
        }
        Ok(())
    }

    fn check_start_done_pairing(&self, users: &[Vec<InstrId>]) -> Result<(), HloError> {
        for (id, ins) in self.iter() {
            if matches!(ins.op(), Op::CollectivePermuteStart { .. }) {
                let dones = users[id.index()]
                    .iter()
                    .filter(|&&u| matches!(self.instr(u).op(), Op::CollectivePermuteDone))
                    .count();
                let others = users[id.index()].len() - dones;
                if dones != 1 || others != 0 {
                    return Err(HloError::Verification(format!(
                        "{} must have exactly one done user (found {dones} dones, {others} other users)",
                        ins.name()
                    )));
                }
            }
        }
        Ok(())
    }

    fn check_fusion_groups(
        &self,
        users: &[Vec<InstrId>],
        fusion_of: &[Option<FusionId>],
    ) -> Result<(), HloError> {
        for (gi, g) in self.fusion_groups.iter().enumerate() {
            if !g.members.contains(&g.root) {
                return Err(HloError::InvalidFusion(format!("group {gi} root not a member")));
            }
            for &m in &g.members {
                if m.index() >= self.instrs.len() {
                    return Err(HloError::InvalidFusion(format!("group {gi}: unknown id {m}")));
                }
                if m != g.root {
                    // Non-root members must not escape the group.
                    for &u in &users[m.index()] {
                        if fusion_of[u.index()] != Some(FusionId(gi as u32)) {
                            return Err(HloError::InvalidFusion(format!(
                                "group {gi}: non-root member {} used outside the group by {}",
                                self.instr(m).name(),
                                self.instr(u).name()
                            )));
                        }
                    }
                    if self.outputs.contains(&m) {
                        return Err(HloError::InvalidFusion(format!(
                            "group {gi}: non-root member {} is a module output",
                            self.instr(m).name()
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::{Builder, DType, DotDims, FusionGroup, HloError, ReplicaGroups, Shape};

    fn f32s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    #[test]
    fn valid_module_passes() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[4, 8]), "x");
        let w = b.parameter(f32s(&[4, 16]), "w");
        let wg = b.all_gather(w, 0, ReplicaGroups::full(2), "wg");
        let y = b.einsum(x, wg, DotDims::new(vec![], vec![(1, 0)]).unwrap(), "y");
        b.build(vec![y]).verify().unwrap();
    }

    #[test]
    fn start_with_two_dones_rejected() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[4]), "x");
        let s = b.collective_permute_start(x, vec![(0, 1), (1, 0)], "s");
        let d1 = b.collective_permute_done(s, "d1");
        let d2 = b.collective_permute_done(s, "d2");
        let m = b.build(vec![d1, d2]);
        assert!(m.verify().is_err());
    }

    #[test]
    fn start_without_done_rejected() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[4]), "x");
        let s = b.collective_permute_start(x, vec![(0, 1), (1, 0)], "s");
        let m = b.build(vec![s]);
        assert!(m.verify().is_err());
    }

    #[test]
    fn escaping_fusion_member_rejected() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[4]), "x");
        let c = b.copy(x, "c");
        let d = b.copy(c, "d");
        let e = b.copy(c, "e"); // uses c outside the would-be group
        let m = b.build(vec![d, e]);
        let bad = m
            .with_fusion_groups(vec![FusionGroup { members: vec![c, d], root: d }])
            .unwrap();
        assert!(bad.verify().is_err());
    }

    #[test]
    fn fusion_group_with_root_use_ok() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[4]), "x");
        let c = b.copy(x, "c");
        let d = b.copy(c, "d");
        let e = b.copy(d, "e");
        let m = b.build(vec![e]);
        let good = m
            .with_fusion_groups(vec![FusionGroup { members: vec![c, d], root: d }])
            .unwrap();
        good.verify().unwrap();
    }

    /// Corrupt a valid module in-place and check the verifier rejects it
    /// (the builder can never produce these states; passes could if
    /// buggy).
    #[test]
    fn verifier_rejects_corrupted_modules() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[4, 4]), "x");
        let w = b.parameter(f32s(&[4, 4]), "w");
        let y = b.einsum(x, w, DotDims::matmul(), "y");
        let good = b.build(vec![y]);
        good.verify().unwrap();

        // Wrong declared result shape.
        let mut bad = good.clone();
        bad.instrs[y.index()].shape = f32s(&[4, 5]);
        assert!(bad.verify().is_err());

        // Dangling operand id.
        let mut bad = good.clone();
        bad.instrs[y.index()].operands[1] = crate::InstrId::from_index(99);
        assert!(bad.verify().is_err());

        // Use-before-def (operand id larger than user id).
        let mut bad = good.clone();
        bad.instrs[x.index()].op = crate::Op::Copy;
        bad.instrs[x.index()].operands = vec![y];
        assert!(bad.verify().is_err());

        // Duplicate parameter index.
        let mut bad = good.clone();
        bad.instrs[w.index()].op = crate::Op::Parameter { index: 0 };
        assert!(bad.verify().is_err());

        // Out-of-range output.
        let mut bad = good.clone();
        bad.outputs = vec![crate::InstrId::from_index(42)];
        assert!(bad.verify().is_err());

        // Binary with mismatched operand shapes.
        let mut bad = good.clone();
        bad.instrs[y.index()].op = crate::Op::Binary(crate::BinaryKind::Add);
        bad.instrs[y.index()].shape = f32s(&[4, 4]);
        // x and w have the same shape; corrupt w's shape too.
        bad.instrs[w.index()].shape = f32s(&[4, 5]);
        assert!(bad.verify().is_err());
    }

    #[test]
    fn verifier_rejects_bad_collective_metadata() {
        let mut b = Builder::new("m", 4);
        let x = b.parameter(f32s(&[4, 4]), "x");
        let g = b.all_gather(x, 0, crate::ReplicaGroups::full(4), "g");
        let good = b.build(vec![g]);
        good.verify().unwrap();

        // Gather dim out of range.
        let mut bad = good.clone();
        if let crate::Op::AllGather { dim, .. } = &mut bad.instrs[g.index()].op {
            *dim = 9;
        }
        assert!(bad.verify().is_err());

        // Permute with duplicate destination.
        let mut b = Builder::new("m", 4);
        let x = b.parameter(f32s(&[4]), "x");
        let p = b.collective_permute(x, vec![(0, 1), (1, 2)], "p");
        let mut bad = b.build(vec![p]);
        if let crate::Op::CollectivePermute { pairs, .. } = &mut bad.instrs[p.index()].op {
            *pairs = [&pairs[..], &[(2, 1)]].concat().into();
        }
        assert!(bad.verify().is_err());
    }

    fn permute_error(m: &crate::Module) -> String {
        match m.verify() {
            Err(HloError::InvalidPermutePairs(message)) => message,
            other => panic!("expected a permute-pair error, got {other:?}"),
        }
    }

    #[test]
    fn permute_errors_keep_their_precedence() {
        let mut b = Builder::new("m", 4);
        let x = b.parameter(f32s(&[4]), "x");
        let p = b.collective_permute(x, vec![(0, 1)], "p");
        let good = b.build(vec![p]);
        let with_pairs = |pairs: Vec<(u32, u32)>| {
            let mut m = good.clone();
            if let crate::Op::CollectivePermute { pairs: slot, .. } = &mut m.instrs[p.index()].op {
                *slot = pairs.into();
            }
            m
        };
        assert_eq!(permute_error(&with_pairs(vec![(0, 1), (2, 1)])), "p: duplicate destination");
        assert_eq!(permute_error(&with_pairs(vec![(0, 9), (2, 1)])), "p: id out of range");
        assert_eq!(permute_error(&with_pairs(vec![(9, 1), (0, 2)])), "p: id out of range");
        // A duplicate outranks a range error, in range or not.
        assert_eq!(
            permute_error(&with_pairs(vec![(0, 9), (1, 2), (3, 2)])),
            "p: duplicate destination"
        );
        assert_eq!(
            permute_error(&with_pairs(vec![(0, 9), (1, 9)])),
            "p: duplicate destination"
        );
    }

    #[test]
    fn a_shared_list_is_accepted_once_and_a_distinct_bad_one_still_fails() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[4]), "x");
        let ring: Arc<[(u32, u32)]> = Arc::from(vec![(0, 1), (1, 0)]);
        let p = b.collective_permute(x, Arc::clone(&ring), "p");
        let q = b.collective_permute(p, Arc::clone(&ring), "q");
        let good = b.build(vec![q]);
        good.verify().unwrap();
        let mut bad = good.clone();
        if let crate::Op::CollectivePermute { pairs, .. } = &mut bad.instrs[q.index()].op {
            *pairs = Arc::from(vec![(0, 1), (1, 1)]);
        }
        assert_eq!(permute_error(&bad), "q: duplicate destination");
        let mut analysis = crate::ModuleAnalysis::of(&bad);
        assert!(bad.verify_incremental(&mut analysis).is_err());
    }

    /// A valid module exercising parameters, a gather/einsum pair, an
    /// async permute pair and an elementwise join — one instance of every
    /// structure the corruption catalogue below mutates.
    fn equivalence_module() -> crate::Module {
        let mut b = Builder::new("eq", 4);
        let x = b.parameter(f32s(&[4, 8]), "x");
        let w = b.parameter(f32s(&[2, 16]), "w");
        let wg = b.all_gather(w, 0, crate::ReplicaGroups::full(4), "wg");
        let y = b.einsum(x, wg, DotDims::new(vec![], vec![(1, 0)]).unwrap(), "y");
        let s = b.collective_permute_start(y, vec![(0, 1), (1, 2), (2, 3), (3, 0)], "s");
        let d = b.collective_permute_done(s, "d");
        let z = b.add(d, y, "z");
        b.build(vec![z])
    }

    /// Corruption catalogue for the full-vs-incremental equivalence
    /// property: kind 0 is the identity, every other kind produces a
    /// module the full verifier rejects.
    fn corrupted(kind: usize) -> crate::Module {
        let mut m = equivalence_module();
        match kind {
            0 => {}
            // Wrong declared result shape.
            1 => m.instrs[3].shape = f32s(&[4, 5]),
            // Dangling operand id.
            2 => m.instrs[3].operands[1] = crate::InstrId::from_index(99),
            // Use-before-def.
            3 => {
                m.instrs[0].op = crate::Op::Copy;
                m.instrs[0].operands = vec![crate::InstrId::from_index(3)];
            }
            // Duplicate parameter index.
            4 => m.instrs[1].op = crate::Op::Parameter { index: 0 },
            // Out-of-range output.
            5 => m.outputs = vec![crate::InstrId::from_index(42)],
            // Permute with a duplicate destination.
            6 => {
                if let crate::Op::CollectivePermuteStart { pairs, .. } = &mut m.instrs[4].op {
                    *pairs = [&pairs[..], &[(2, 3)]].concat().into();
                }
            }
            // Start without its done.
            7 => {
                m.instrs[5].op = crate::Op::Copy;
            }
            // Gather dim out of range.
            _ => {
                if let crate::Op::AllGather { dim, .. } = &mut m.instrs[2].op {
                    *dim = 9;
                }
            }
        }
        m
    }

    const CORRUPTION_KINDS: usize = 9;

    /// The incremental verifier (from an unverified analysis) accepts a
    /// module if and only if the full verifier does.
    #[test]
    fn incremental_verify_matches_full_verify_on_catalogue() {
        for kind in 0..CORRUPTION_KINDS {
            let m = corrupted(kind);
            let full = m.verify();
            let mut analysis = crate::ModuleAnalysis::of(&m);
            let inc = m.verify_incremental(&mut analysis);
            assert_eq!(
                full.is_ok(),
                inc.is_ok(),
                "kind {kind}: full {full:?} vs incremental {inc:?}"
            );
            assert_eq!(kind == 0, full.is_ok(), "catalogue kind {kind} sanity");
            if inc.is_ok() {
                // A passing incremental verify advances the watermark.
                assert_eq!(analysis.verified_len(), m.len());
            }
        }
    }

    /// Past the watermark nothing is re-checked: per-instruction damage
    /// below `verified_len` is invisible to the incremental walk itself.
    #[test]
    fn incremental_verify_skips_verified_prefix() {
        let good = equivalence_module();
        let mut analysis = crate::ModuleAnalysis::of(&good);
        good.verify_incremental(&mut analysis).unwrap();
        assert_eq!(analysis.verified_len(), good.len());

        let mut bad = good.clone();
        bad.instrs[3].shape = f32s(&[4, 5]);
        assert!(bad.verify().is_err());
        assert!(bad.verify_incremental_impl(&analysis).is_ok());
    }

    /// The same damage through the public entry point: debug builds
    /// cross-check the incremental walk against the full verifier, so
    /// a pass bug that corrupts the verified prefix panics here.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "incremental verifier disagrees with full verifier")]
    fn incremental_verify_cross_checks_in_debug_builds() {
        let good = equivalence_module();
        let mut analysis = crate::ModuleAnalysis::of(&good);
        good.verify_incremental(&mut analysis).unwrap();

        let mut bad = good.clone();
        bad.instrs[3].shape = f32s(&[4, 5]);
        let _ = bad.verify_incremental(&mut analysis);
    }

    #[test]
    fn dense_parameter_indices_required() {
        // copy_of preserves indices; dropping a parameter should fail verify.
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[2]), "x");
        let y = b.parameter(f32s(&[2]), "y");
        let s = b.add(x, y, "s");
        let m = b.build(vec![s]);

        let mut b2 = Builder::new("m2", 1);
        let y2 = b2.copy_of(&m, y, vec![]);
        let m2 = b2.build(vec![y2]);
        assert!(m2.verify().is_err());
    }
}
