//! Precomputed per-`(module, machine)` cost tables.
//!
//! [`instruction_cost`] walks shapes, dimension numbers and the machine's
//! efficiency curve on every call. That is fine for a single simulation,
//! but the experiment drivers simulate the same module hundreds of times
//! (repeated layers, scheduler comparisons, sweeps), re-deriving the same
//! costs from scratch each time. A [`CostTable`] folds that work into one
//! pass: a dense `Vec<InstrCost>` indexed by [`InstrId`], plus dense
//! fusion-group membership and per-group aggregate costs, computed once
//! and shared by every subsequent [`Simulation`](crate::Simulation) that
//! is handed it via [`table`](crate::Simulation::table).

use overlap_hlo::{InstrId, Module, ModuleAnalysis};
use overlap_mesh::Machine;

use crate::cost::{instruction_cost, InstrCost};
use crate::SimError;

/// Sentinel for "not a member / not a root of any fusion group".
pub(crate) const NO_GROUP: u32 = u32::MAX;

/// Aggregate cost of one fusion group, accumulated in the exact order the
/// engine previously used (overhead first, then member compute times in
/// member order) so table-driven simulations are bit-identical.
#[derive(Debug, Clone)]
pub(crate) struct GroupCost {
    /// Kernel duration: launch overhead + member compute seconds, or the
    /// root's memory time when no member computes.
    pub(crate) seconds: f64,
    /// Total einsum FLOPs of the members.
    pub(crate) flops: u64,
    /// Whether any member is compute-bound (kernel classification).
    pub(crate) has_compute: bool,
    /// The group's members, in module order.
    pub(crate) members: Vec<InstrId>,
    /// Operands of members defined outside the group (duplicates kept;
    /// readiness folds with `max` so they are harmless).
    pub(crate) external_operands: Vec<InstrId>,
}

/// Dense instruction and fusion-group costs for one `(module, machine)`
/// pair.
///
/// Construction verifies the module once and classifies every
/// instruction; the table is then immutable and cheap to share across
/// repeated simulations, schedulers and cost-model queries of the *same*
/// module on the *same* machine. Using it with a different module is
/// rejected (by length) or yields meaningless results.
#[derive(Debug, Clone)]
pub struct CostTable {
    costs: Vec<InstrCost>,
    /// Fusion group index per instruction (`NO_GROUP` if unfused).
    pub(crate) group_of: Vec<u32>,
    /// Group index per instruction if it is that group's root.
    pub(crate) root_group: Vec<u32>,
    pub(crate) groups: Vec<GroupCost>,
}

impl CostTable {
    /// Builds the table: verifies `module`, classifies every instruction
    /// via [`instruction_cost`] and aggregates fusion-group costs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidModule`] if verification fails and
    /// [`SimError::InvalidSchedule`] if a fusion group contains an op
    /// that cannot be fused (collectives, async transfers).
    pub fn new(module: &Module, machine: &Machine) -> Result<Self, SimError> {
        module.verify()?;
        Self::build_tables(module, machine)
    }

    /// Builds the table for an already-verified module, skipping the
    /// verification pass: the pipeline's incremental verifier has vouched
    /// for `analysis`'s module, recorded in its watermark.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSchedule`] if a fusion group contains
    /// an op that cannot be fused (collectives, async transfers), if
    /// `analysis` does not cover `module`, or if the analysis's verified
    /// watermark does not cover the whole module (a typed error, not a
    /// panic: a stale analysis is caller state, not engine corruption).
    pub fn with_analysis(
        module: &Module,
        analysis: &ModuleAnalysis,
        machine: &Machine,
    ) -> Result<Self, SimError> {
        if analysis.len() != module.len() {
            return Err(SimError::InvalidSchedule(format!(
                "analysis covers {} instructions but module has {}",
                analysis.len(),
                module.len()
            )));
        }
        if analysis.verified_len() != module.len() {
            return Err(SimError::InvalidSchedule(format!(
                "module verified through {} of {} instructions; cost-table \
                 construction needs full verification",
                analysis.verified_len(),
                module.len()
            )));
        }
        Self::build_tables(module, machine)
    }

    fn build_tables(module: &Module, machine: &Machine) -> Result<Self, SimError> {
        let n = module.len();
        let costs: Vec<InstrCost> = module
            .ids()
            .map(|id| instruction_cost(module, id, machine))
            .collect();

        let mut group_of = vec![NO_GROUP; n];
        let mut root_group = vec![NO_GROUP; n];
        for (gi, g) in module.fusion_groups().iter().enumerate() {
            let gi = u32::try_from(gi).map_err(|_| {
                SimError::InvalidSchedule(format!("fusion group index {gi} exceeds u32"))
            })?;
            for &m in &g.members {
                group_of[m.index()] = gi;
            }
            root_group[g.root.index()] = gi;
        }

        let mut groups = Vec::with_capacity(module.fusion_groups().len());
        for (gi, g) in module.fusion_groups().iter().enumerate() {
            // Accumulation order mirrors the engine's group execution
            // exactly: overhead first, then `+=` per compute member in
            // member order. Float addition is not associative, so the
            // order is load-bearing for bit-identical reports.
            let mut seconds = machine.op_overhead();
            let mut flops = 0u64;
            let mut has_compute = false;
            let mut external_operands = Vec::new();
            for &m in &g.members {
                match costs[m.index()] {
                    InstrCost::Compute { seconds: s, flops: fl } => {
                        seconds += s;
                        flops += fl;
                        has_compute = true;
                    }
                    InstrCost::Free | InstrCost::Memory { .. } => {}
                    other => {
                        return Err(SimError::InvalidSchedule(format!(
                            "fusion group {gi} contains non-fusible op {} ({other:?})",
                            module.instr(m).name()
                        )))
                    }
                }
                for &op in module.instr(m).operands() {
                    if group_of[op.index()] as usize != gi {
                        external_operands.push(op);
                    }
                }
            }
            if !has_compute {
                seconds += machine.memory_time(module.shape_of(g.root).byte_size());
            }
            groups.push(GroupCost { seconds, flops, has_compute, members: g.members.clone(), external_operands });
        }

        Ok(CostTable { costs, group_of, root_group, groups })
    }

    /// Number of instructions covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Whether the module had no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// The precomputed cost of instruction `id` — identical to
    /// `instruction_cost(module, id, machine)` for the pair the table was
    /// built from.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the table's module.
    #[must_use]
    pub fn cost(&self, id: InstrId) -> InstrCost {
        self.costs[id.index()]
    }

    /// Test-only constructor injecting raw costs with no fusion groups,
    /// so the engine's watchdog paths can be exercised against corrupt
    /// tables that no legitimate build would produce.
    #[cfg(test)]
    pub(crate) fn from_raw_costs(costs: Vec<InstrCost>) -> Self {
        let n = costs.len();
        CostTable {
            costs,
            group_of: vec![NO_GROUP; n],
            root_group: vec![NO_GROUP; n],
            groups: Vec::new(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use overlap_hlo::{Builder, DType, DotDims, FusionGroup, ReplicaGroups, Shape};

    use super::*;

    fn f32s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    #[test]
    fn table_matches_instruction_cost() {
        let n = 4;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[128, 256]), "x");
        let w = b.parameter(f32s(&[64, 256]), "w");
        let wg = b.all_gather(w, 0, ReplicaGroups::full(n), "wg");
        let y = b.einsum(x, wg, DotDims::new(vec![], vec![(1, 0)]).unwrap(), "y");
        let c = b.copy(y, "c");
        let m = b.build(vec![c]);
        let machine = Machine::tpu_v4_like(n);
        let table = CostTable::new(&m, &machine).unwrap();
        assert_eq!(table.len(), m.len());
        for id in m.ids() {
            assert_eq!(table.cost(id), instruction_cost(&m, id, &machine));
        }
    }

    #[test]
    fn group_cost_matches_member_sum() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[256, 256]), "x");
        let w = b.parameter(f32s(&[256, 256]), "w");
        let acc = b.parameter(f32s(&[256, 256]), "acc");
        let y = b.einsum(x, w, DotDims::matmul(), "y");
        let z = b.add(y, acc, "z");
        let m = b
            .build(vec![z])
            .with_fusion_groups(vec![FusionGroup { members: vec![y, z], root: z }])
            .unwrap();
        let machine = Machine::tpu_v4_like(1);
        let table = CostTable::new(&m, &machine).unwrap();
        assert_eq!(table.groups.len(), 1);
        let gc = &table.groups[0];
        assert!(gc.has_compute);
        let InstrCost::Compute { seconds, flops } = instruction_cost(&m, y, &machine) else {
            panic!("einsum is compute");
        };
        assert_eq!(gc.flops, flops);
        assert!((gc.seconds - (machine.op_overhead() + seconds)).abs() < 1e-18);
        // `acc` and the einsum inputs are external; `y` is internal.
        assert!(gc.external_operands.contains(&acc));
        assert!(gc.external_operands.contains(&x));
        assert!(!gc.external_operands.contains(&y));
    }

    #[test]
    fn non_fusible_group_rejected_at_build() {
        let n = 2;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[64, 64]), "x");
        let g = b.all_gather(x, 0, ReplicaGroups::full(n), "g");
        let c = b.copy(g, "c");
        let m = b
            .build(vec![c])
            .with_fusion_groups(vec![FusionGroup { members: vec![g, c], root: c }])
            .unwrap();
        let machine = Machine::tpu_v4_like(n);
        assert!(CostTable::new(&m, &machine).is_err());
    }
}
