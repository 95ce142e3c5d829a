//! Shared, incrementally maintained module analyses.
//!
//! Every compiler pass needs some mix of the same three whole-module
//! tables — users (reverse use-def edges), liveness, and fusion
//! membership. Recomputing them per pass is `O(passes * module)` work;
//! [`ModuleAnalysis`] computes them once and is *maintained* across the
//! pipeline instead:
//!
//! * [`Builder::build_with_analysis`](crate::Builder::build_with_analysis)
//!   returns the analysis alongside the rebuilt module, with the users
//!   table accumulated append-by-append (so a rebuild pass pays nothing
//!   extra for it);
//! * [`ModuleAnalysis::refresh_fusion`] re-derives only the dense fusion
//!   table after a fusion pass attaches groups;
//! * [`Module::verify_incremental`](crate::Module::verify_incremental)
//!   advances the analysis' *verified watermark* so later verification
//!   only checks instructions appended since the last verified point.
//!
//! The tables are dense and `InstrId`-indexed; contents are defined to be
//! identical (including user ordering) to the from-scratch accessors
//! [`Module::users`], [`Module::live_set`] and [`Module::fusion_of`],
//! which property tests assert across the whole pipeline.

use crate::{FusionId, InstrId, Module};

/// Dense use-def/users, liveness and fusion-membership tables for one
/// [`Module`], plus the incremental-verification watermark.
///
/// An analysis is only meaningful for the module it was computed from (or
/// maintained alongside); [`ModuleAnalysis::len`] must equal
/// [`Module::len`] whenever the two are used together, and the
/// analysis-threaded entry points assert exactly that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleAnalysis {
    users: Vec<Vec<InstrId>>,
    fusion: Vec<Option<FusionId>>,
    live: Vec<bool>,
    /// Instructions `0..verified` have passed per-instruction checks.
    verified: usize,
}

impl ModuleAnalysis {
    /// Computes all tables from scratch for `module`.
    ///
    /// The result starts with a verified watermark of zero: nothing is
    /// trusted until [`Module::verify_incremental`] (or a full
    /// [`Module::verify`] followed by [`ModuleAnalysis::mark_verified`])
    /// has run. For that reason this constructor tolerates out-of-range
    /// ids (it drops the broken edges instead of panicking), so an
    /// analysis of an untrusted module can be handed straight to the
    /// incremental verifier, which rejects exactly what [`Module::verify`]
    /// rejects. On a valid module the tables are identical to the exact
    /// accessors.
    #[must_use]
    pub fn of(module: &Module) -> Self {
        let n = module.len();
        let mut users: Vec<Vec<InstrId>> = vec![Vec::new(); n];
        for (id, ins) in module.iter() {
            for &op in ins.operands() {
                if op.index() < n {
                    users[op.index()].push(id);
                }
            }
        }
        let mut fusion = vec![None; n];
        for (gi, g) in module.fusion_groups().iter().enumerate() {
            for &m in &g.members {
                if m.index() < n {
                    fusion[m.index()] = Some(FusionId(gi as u32));
                }
            }
        }
        let mut live = vec![false; n];
        let mut stack: Vec<InstrId> = module
            .outputs()
            .iter()
            .copied()
            .filter(|o| o.index() < n)
            .collect();
        while let Some(id) = stack.pop() {
            if live[id.index()] {
                continue;
            }
            live[id.index()] = true;
            stack.extend(module.instr(id).operands().iter().copied().filter(|o| o.index() < n));
        }
        ModuleAnalysis { users, fusion, live, verified: 0 }
    }

    /// Builds an analysis from parts the [`Builder`](crate::Builder)
    /// maintained incrementally. The fusion table is all-`None` (fresh
    /// modules carry no groups) and the watermark covers the whole module:
    /// builder appends enforce the per-instruction invariants eagerly.
    pub(crate) fn from_builder(users: Vec<Vec<InstrId>>, live: Vec<bool>) -> Self {
        let n = users.len();
        ModuleAnalysis { users, fusion: vec![None; n], live, verified: n }
    }

    /// Number of instructions the tables cover.
    #[must_use]
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the analysis covers an empty module.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Users of every instruction, `InstrId`-indexed; identical to
    /// [`Module::users`].
    #[must_use]
    pub fn users(&self) -> &[Vec<InstrId>] {
        &self.users
    }

    /// Dense fusion-membership table; identical to [`Module::fusion_of`].
    #[must_use]
    pub fn fusion(&self) -> &[Option<FusionId>] {
        &self.fusion
    }

    /// The fusion group containing `id`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn fusion_of(&self, id: InstrId) -> Option<FusionId> {
        self.fusion[id.index()]
    }

    /// Liveness (output-reachability) table; identical to
    /// [`Module::live_set`].
    #[must_use]
    pub fn live(&self) -> &[bool] {
        &self.live
    }

    /// Instructions `0..verified_len()` have passed the per-instruction
    /// verifier checks (shape inference, operand ordering).
    #[must_use]
    pub fn verified_len(&self) -> usize {
        self.verified
    }

    /// Records that all instructions of `module` have passed full
    /// verification (used after an explicit [`Module::verify`]).
    ///
    /// # Panics
    ///
    /// Panics if the analysis does not cover `module`.
    pub fn mark_verified(&mut self, module: &Module) {
        assert_eq!(self.len(), module.len(), "analysis does not cover module");
        self.verified = module.len();
    }

    pub(crate) fn set_verified(&mut self, upto: usize) {
        self.verified = upto;
    }

    /// Re-derives the dense fusion table from `module`'s attached groups
    /// (call after [`Module::with_fusion_groups`]). Users and liveness are
    /// untouched — attaching fusion groups rewires nothing.
    ///
    /// # Panics
    ///
    /// Panics if the analysis does not cover `module`.
    pub fn refresh_fusion(&mut self, module: &Module) {
        assert_eq!(self.len(), module.len(), "analysis does not cover module");
        self.fusion = module.fusion_of();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Builder, DType, DotDims, FusionGroup, Shape};

    fn sample() -> (Module, ModuleAnalysis) {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(Shape::new(DType::F32, vec![2, 3]), "x");
        let w = b.parameter(Shape::new(DType::F32, vec![3, 4]), "w");
        let y = b.einsum(x, w, DotDims::matmul(), "y");
        let dead = b.copy(x, "dead");
        let _ = dead;
        b.build_with_analysis(vec![y])
    }

    #[test]
    fn builder_analysis_matches_from_scratch() {
        let (m, a) = sample();
        let fresh = ModuleAnalysis::of(&m);
        assert_eq!(a.users(), fresh.users());
        assert_eq!(a.fusion(), fresh.fusion());
        assert_eq!(a.live(), fresh.live());
        assert_eq!(a.verified_len(), m.len());
        assert_eq!(fresh.verified_len(), 0);
    }

    #[test]
    fn refresh_fusion_tracks_attached_groups() {
        let (m, mut a) = sample();
        let y = InstrId::from_index(2);
        let m = m
            .with_fusion_groups(vec![FusionGroup { members: vec![y], root: y }])
            .unwrap();
        a.refresh_fusion(&m);
        assert_eq!(a.fusion(), m.fusion_of());
        assert!(a.fusion_of(y).is_some());
    }
}
