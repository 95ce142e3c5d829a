//! Modules: flat-arena dataflow graphs.

use crate::{HloError, InstrId, Instruction, Op, Shape};

/// Identifier of a [`FusionGroup`] within its module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FusionId(pub(crate) u32);

impl FusionId {
    /// The raw group index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A set of instructions executed as one fused kernel.
///
/// Fusion is modeled as a side table over the flat graph (rather than
/// XLA's nested computations): the schedulers and the simulator contract
/// each group into a single schedulable unit whose dependences are the
/// union of the members' external dependences. This is exactly the property
/// that makes the Fig. 11 "bad fusion" serialize an einsum behind a
/// `CollectivePermuteDone`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionGroup {
    /// Instructions fused together, in topological order.
    pub members: Vec<InstrId>,
    /// The member whose result is the group's output.
    pub root: InstrId,
}

/// A dataflow graph: a flat arena of [`Instruction`]s (arena order is
/// topological), the entry outputs, the SPMD partition count the program is
/// compiled for, and optional [`FusionGroup`]s.
///
/// Modules are immutable once built; compiler passes construct transformed
/// modules via a fresh [`Builder`](crate::Builder).
///
/// Modules serialize to JSON (`crate::json`) for tooling; a **decoded
/// module is untrusted** — call [`Module::verify`] before using it, since
/// the wire format cannot enforce the graph invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    pub(crate) name: String,
    pub(crate) instrs: Vec<Instruction>,
    pub(crate) outputs: Vec<InstrId>,
    pub(crate) num_partitions: usize,
    pub(crate) fusion_groups: Vec<FusionGroup>,
}

impl Module {
    /// The module name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of SPMD device partitions this program runs on.
    #[must_use]
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the module has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn instr(&self, id: InstrId) -> &Instruction {
        &self.instrs[id.index()]
    }

    /// Rewrites the wire annotation of the collective at `id` in place.
    /// Shapes and operands are untouched — a wire change never alters
    /// what a collective returns, only how its payload is encoded in
    /// flight — so the module stays verified.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::Verification`] if the op carries no wire
    /// annotation (see [`Op::with_wire`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_wire(&mut self, id: InstrId, wire: crate::WireFormat) -> Result<(), HloError> {
        let op = self.instrs[id.index()].op.clone().with_wire(wire)?;
        self.instrs[id.index()].op = op;
        Ok(())
    }

    /// The result shape of instruction `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn shape_of(&self, id: InstrId) -> &Shape {
        self.instr(id).shape()
    }

    /// Iterates over `(id, instruction)` in topological (arena) order.
    pub fn iter(&self) -> impl Iterator<Item = (InstrId, &Instruction)> {
        self.instrs.iter().enumerate().map(|(i, ins)| (InstrId(i as u32), ins))
    }

    /// All instruction ids in topological (arena) order, without
    /// allocating (the hot loops in the engine, cost table, memory
    /// profiler and autodiff iterate ids every call).
    pub fn ids(&self) -> impl DoubleEndedIterator<Item = InstrId> + ExactSizeIterator + use<> {
        (0..self.instrs.len() as u32).map(InstrId)
    }

    /// The arena order as an owned schedule vector, for callers that need
    /// a materialized `&[InstrId]` (e.g. simulating the original program
    /// order). Prefer [`Module::ids`] for iteration.
    #[must_use]
    pub fn arena_order(&self) -> Vec<InstrId> {
        self.ids().collect()
    }

    /// The entry-computation outputs.
    #[must_use]
    pub fn outputs(&self) -> &[InstrId] {
        &self.outputs
    }

    /// The fusion groups (empty until a fusion pass runs).
    #[must_use]
    pub fn fusion_groups(&self) -> &[FusionGroup] {
        &self.fusion_groups
    }

    /// Dense map from instruction id to containing fusion group:
    /// `fusion_of()[id.index()]` is `Some(group)` for members and `None`
    /// elsewhere.
    #[must_use]
    pub fn fusion_of(&self) -> Vec<Option<FusionId>> {
        let mut map = vec![None; self.instrs.len()];
        for (gi, g) in self.fusion_groups.iter().enumerate() {
            for &m in &g.members {
                map[m.index()] = Some(FusionId(gi as u32));
            }
        }
        map
    }

    /// Returns a copy of this module with the given fusion groups attached.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::InvalidFusion`] if a group references an unknown
    /// id, its root is not a member, or an instruction belongs to two groups.
    pub fn with_fusion_groups(mut self, groups: Vec<FusionGroup>) -> Result<Self, HloError> {
        let mut seen = vec![false; self.instrs.len()];
        for g in &groups {
            if !g.members.contains(&g.root) {
                return Err(HloError::InvalidFusion(format!(
                    "root {} not among members",
                    g.root
                )));
            }
            for &m in &g.members {
                if m.index() >= self.instrs.len() {
                    return Err(HloError::InvalidFusion(format!("unknown member {m}")));
                }
                if seen[m.index()] {
                    return Err(HloError::InvalidFusion(format!(
                        "instruction {m} in two fusion groups"
                    )));
                }
                seen[m.index()] = true;
            }
        }
        self.fusion_groups = groups;
        Ok(self)
    }

    /// Users of each instruction: `users()[i]` lists the ids that take
    /// instruction `i` as an operand.
    #[must_use]
    pub fn users(&self) -> Vec<Vec<InstrId>> {
        let mut users = vec![Vec::new(); self.instrs.len()];
        for (id, ins) in self.iter() {
            for &op in ins.operands() {
                users[op.index()].push(id);
            }
        }
        users
    }

    /// The module's parameters, ordered by parameter index.
    #[must_use]
    pub fn parameters(&self) -> Vec<InstrId> {
        let mut params: Vec<(usize, InstrId)> = self
            .iter()
            .filter_map(|(id, ins)| match ins.op() {
                Op::Parameter { index } => Some((*index, id)),
                _ => None,
            })
            .collect();
        params.sort_unstable_by_key(|&(i, _)| i);
        params.into_iter().map(|(_, id)| id).collect()
    }

    /// Ids of instructions reachable from the outputs (live set).
    #[must_use]
    pub fn live_set(&self) -> Vec<bool> {
        let mut live = vec![false; self.instrs.len()];
        let mut stack: Vec<InstrId> = self.outputs.clone();
        while let Some(id) = stack.pop() {
            if live[id.index()] {
                continue;
            }
            live[id.index()] = true;
            stack.extend_from_slice(self.instr(id).operands());
        }
        live
    }

    /// Total floating-point operations of all live `Einsum` instructions.
    #[must_use]
    pub fn total_einsum_flops(&self) -> u64 {
        let live = self.live_set();
        self.iter()
            .filter(|(id, _)| live[id.index()])
            .map(|(_, ins)| match ins.op() {
                Op::Einsum(dims) => {
                    let lhs = self.shape_of(ins.operands()[0]);
                    let rhs = self.shape_of(ins.operands()[1]);
                    dims.flops(lhs, rhs)
                }
                _ => 0,
            })
            .sum()
    }

    /// Counts live instructions matching a predicate.
    pub fn count_live<F: Fn(&Instruction) -> bool>(&self, pred: F) -> usize {
        let live = self.live_set();
        self.iter().filter(|(id, ins)| live[id.index()] && pred(ins)).count()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Builder, DType, DotDims, FusionGroup, Shape};

    fn small() -> (crate::Module, crate::InstrId, crate::InstrId, crate::InstrId) {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(Shape::new(DType::F32, vec![2, 3]), "x");
        let w = b.parameter(Shape::new(DType::F32, vec![3, 4]), "w");
        let y = b.einsum(x, w, DotDims::matmul(), "y");
        (b.build(vec![y]), x, w, y)
    }

    #[test]
    fn users_index() {
        let (m, x, w, y) = small();
        let users = m.users();
        assert_eq!(users[x.index()], vec![y]);
        assert_eq!(users[w.index()], vec![y]);
        assert!(users[y.index()].is_empty());
    }

    #[test]
    fn parameters_ordered() {
        let (m, x, w, _) = small();
        assert_eq!(m.parameters(), vec![x, w]);
    }

    #[test]
    fn live_set_and_flops() {
        let (m, _, _, y) = small();
        let live = m.live_set();
        assert!(live.iter().all(|&l| l));
        assert_eq!(m.total_einsum_flops(), 2 * 2 * 3 * 4);
        assert_eq!(m.outputs(), &[y]);
    }

    #[test]
    fn fusion_group_validation() {
        let (m, x, _, y) = small();
        let ok = m
            .clone()
            .with_fusion_groups(vec![FusionGroup { members: vec![y], root: y }])
            .unwrap();
        assert_eq!(ok.fusion_groups().len(), 1);
        assert!(ok.fusion_of()[y.index()].is_some());

        let bad_root =
            m.clone().with_fusion_groups(vec![FusionGroup { members: vec![x], root: y }]);
        assert!(bad_root.is_err());

        let dup = m.with_fusion_groups(vec![
            FusionGroup { members: vec![y], root: y },
            FusionGroup { members: vec![y], root: y },
        ]);
        assert!(dup.is_err());
    }

    #[test]
    fn serde_round_trip_preserves_module() {
        use overlap_json::ToJson as _;
        let (m, _, _, _) = small();
        let json = m.to_json().to_string();
        let back = crate::Module::from_json_str(&json).unwrap();
        assert_eq!(back, m);
        back.verify().unwrap();
    }

    #[test]
    fn deserialized_garbage_fails_verification() {
        use overlap_json::ToJson as _;
        let (m, _, _, y) = small();
        let mut json = m.to_json().to_string();
        // Corrupt an operand reference.
        json = json.replace("\"operands\":[0,1]", "\"operands\":[0,9]");
        let back = crate::Module::from_json_str(&json).unwrap();
        assert!(back.verify().is_err());
        let _ = y;
    }

    #[test]
    fn count_live_matches() {
        let (m, _, _, _) = small();
        assert_eq!(m.count_live(|i| matches!(i.op(), crate::Op::Einsum(_))), 1);
        assert_eq!(m.count_live(|i| matches!(i.op(), crate::Op::Parameter { .. })), 2);
    }
}
