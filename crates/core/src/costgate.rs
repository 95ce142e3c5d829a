//! The §5.5 enablement cost model.
//!
//! Decomposing a collective into a unidirectional ring of point-to-point
//! permutes can *lengthen* total communication (only half the interconnect
//! bandwidth is used), so the transformation only pays off when enough
//! dependent computation exists to hide the stretched transfer. The gate
//! implements the paper's test
//!
//! ```text
//! comp_t + comm_t >= max(comp_t, comm_t_ring) + extra_t
//! ```
//!
//! where `comp_t`/`comm_t` are the original einsum/collective times,
//! `comm_t_ring` is the decomposed permute-sequence time and `extra_t`
//! conservatively charges the prologue/epilogue permutes as unoverlapped.
//! It also implements the §5.5 selection rule when one einsum has two
//! collective candidates.

use std::cell::RefCell;

use overlap_hlo::{InstrId, Module, Op, WireFormat};
use overlap_mesh::{cost as ccost, FaultSpec, Machine};
use overlap_sim::{einsum_cost_key, CostTable, FaultModel, InstrCost, SimError};

use crate::pattern::{Pattern, PatternKind};
use crate::plan::LoopPlan;
use crate::strategy::{PatternStrategy, RingDirection, StrategySpec};

/// Outcome of evaluating one pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct GateDecision {
    /// The evaluated pattern.
    pub pattern: Pattern,
    /// Original computation time (`comp_t`).
    pub comp_t: f64,
    /// Original collective time (`comm_t`).
    pub comm_t: f64,
    /// Decomposed ring-permute sequence time (`comm_t_ring`).
    pub comm_t_ring: f64,
    /// Unoverlappable prologue/epilogue time (`extra_t`).
    pub extra_t: f64,
    /// Estimated compute time of the decomposed partial-einsum sequence
    /// (includes small-extent efficiency loss and per-kernel overhead).
    pub comp_d: f64,
    /// Whether decomposition is estimated beneficial.
    pub beneficial: bool,
    /// Whether the bidirectional form was chosen for this pattern (the
    /// unidirectional fallback wins when the prologue/epilogue overhead
    /// outweighs the halved ring time, e.g. for small rings).
    pub bidirectional: bool,
}

impl GateDecision {
    /// Estimated time saved by decomposing:
    /// `(comp_t + comm_t) - (max(comp_t, comm_t_ring) + extra_t)`.
    #[must_use]
    pub fn net_benefit(&self) -> f64 {
        (self.comp_t + self.comm_t) - (self.comp_d.max(self.comm_t_ring) + self.extra_t)
    }
}

/// Fault-aware adjustment of [`GateDecision`]s: re-runs the §5.5
/// inequality with every term stretched the way the degraded machine
/// would stretch it, so the pipeline can fall back per pattern when
/// decomposition stops paying off under faults.
///
/// The adjustment reuses the simulator's [`FaultModel`] factors — the
/// worst straggler slowdown gates all compute (bulk-synchronous SPMD),
/// the worst surviving link derate (plus the detour penalty when a link
/// is down) stretches every collective and ring permute — and charges
/// each decomposed permute step the *expected* jitter and DMA-stall
/// extra, which only the decomposed form pays (the synchronous
/// collective issues no per-step DMA transfers).
#[derive(Debug, Clone, Copy)]
pub struct FaultGateAdjust {
    compute_factor: f64,
    collective_factor: f64,
    per_step_extra: f64,
}

impl FaultGateAdjust {
    /// Derives the adjustment factors for `spec` on `machine`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFaultSpec`] when the spec does not fit
    /// the machine's mesh and [`SimError::LinkDown`] when a device is
    /// fully cut off (every outgoing link down).
    pub fn new(machine: &Machine, spec: &FaultSpec) -> Result<Self, SimError> {
        let model = FaultModel::new(machine, spec)?;
        // Extra seconds charged per decomposed permute step: the full
        // jitter amplitude plus the first-order stall expectation
        // (probability × backoff unit). The full amplitude — not the
        // `jitter/2` mean of one uniform draw — because a bidirectional
        // step completes at the *max* of its two lanes' draws, and the
        // gate must stay conservative: a decomposition it lets through
        // that then regresses is the failure mode fallback exists for.
        let per_step_extra =
            spec.jitter_seconds + spec.stall_probability * spec.stall_seconds;
        Ok(FaultGateAdjust {
            compute_factor: model.compute_factor(),
            collective_factor: model.collective_factor(),
            per_step_extra,
        })
    }

    /// Re-evaluates one pristine decision, priced on `plan`, under the
    /// fault model. The returned decision carries the stretched terms and
    /// a re-derived `beneficial` flag; the pattern and transfer direction
    /// are kept.
    #[must_use]
    pub fn adjust(&self, plan: &LoopPlan, d: &GateDecision) -> GateDecision {
        // Every priced ring step, plus the bidirectional prologue/epilogue
        // shift.
        let steps = plan.steps + usize::from(plan.bidirectional);
        let comp_t = d.comp_t * self.compute_factor;
        let comm_t = d.comm_t * self.collective_factor;
        let comm_t_ring =
            d.comm_t_ring * self.collective_factor + steps as f64 * self.per_step_extra;
        let extra_t = d.extra_t * self.collective_factor;
        let comp_d = d.comp_d * self.compute_factor;
        let beneficial = comp_t + comm_t >= comp_d.max(comm_t_ring) + extra_t;
        GateDecision {
            pattern: d.pattern,
            comp_t,
            comm_t,
            comm_t_ring,
            extra_t,
            comp_d,
            beneficial,
            bidirectional: d.bidirectional,
        }
    }
}

/// The enablement cost model (§5.5).
///
/// Each candidate is priced on the [`LoopPlan`] the decompose pass would
/// emit for it. Pricing estimates the partial einsums via the machine's
/// efficiency interpolation; the model memoizes those lookups per
/// `(flops, m, n, k)` key (many patterns of one layer share partial
/// shapes), which is exact — a hit returns the identical bits.
#[derive(Debug, Clone)]
pub struct CostModel<'m> {
    machine: &'m Machine,
    strategy: StrategySpec,
    memo: RefCell<ccost::EinsumTimeMemo>,
}

impl<'m> CostModel<'m> {
    /// A cost model pricing each pattern kind under its own `strategy`
    /// knobs — exactly what the decompose pass will emit.
    #[must_use]
    pub fn new(machine: &'m Machine, strategy: &StrategySpec) -> Self {
        CostModel { machine, strategy: *strategy, memo: RefCell::new(ccost::EinsumTimeMemo::new()) }
    }

    /// The knobs governing `pattern`'s kind.
    fn knobs(&self, pattern: &Pattern) -> &PatternStrategy {
        match pattern.kind {
            PatternKind::AllGatherEinsum { .. } => &self.strategy.all_gather,
            PatternKind::EinsumReduceScatter { .. } => &self.strategy.reduce_scatter,
        }
    }

    fn einsum_time_of(cost: InstrCost) -> f64 {
        match cost {
            InstrCost::Compute { seconds, .. } => seconds,
            _ => 0.0,
        }
    }

    fn collective_time_of(cost: InstrCost) -> f64 {
        match cost {
            InstrCost::SyncCollective { seconds } => seconds,
            _ => 0.0,
        }
    }

    /// Wire bytes of a payload plus the per-transfer codec time (the
    /// encode/decode sweeps over payload + wire buffers, priced at HBM
    /// bandwidth). Lossless pays the dense bytes and no codec — the
    /// exact pre-precision pricing.
    fn wired(&self, wire: WireFormat, shape: &overlap_hlo::Shape) -> (usize, f64) {
        if wire.is_lossless() {
            return (shape.byte_size(), 0.0);
        }
        let elems = shape.num_elements();
        let eb = shape.dtype().size_bytes();
        let codec = self.machine.memory_time(wire.codec_bytes_moved(elems, eb));
        (wire.wire_bytes(elems, eb), codec)
    }

    /// Evaluates the §5.5 inequality for one pattern: when the strategy
    /// asks for a bidirectional ring the group allows, both the
    /// bidirectional and the unidirectional loops are priced and the
    /// better one is chosen. Returns the verdict beside the winning plan.
    /// The original einsum/collective times are looked up in `table`,
    /// built for this `(module, machine)` pair.
    #[must_use]
    pub fn evaluate(
        &self,
        table: &CostTable,
        module: &Module,
        pattern: &Pattern,
    ) -> (GateDecision, LoopPlan) {
        let knobs = self.knobs(pattern);
        let requested = LoopPlan::new(module, pattern, knobs, knobs.ring);
        let requested = self.price(table, module, requested);
        // A unidirectional request, or an odd group whose plan already
        // fell back to one direction, leaves nothing to compare.
        if !requested.1.bidirectional {
            return requested;
        }
        let uni = LoopPlan::new(module, pattern, knobs, RingDirection::Unidirectional);
        let uni = self.price(table, module, uni);
        if requested.0.net_benefit() >= uni.0.net_benefit() {
            requested
        } else {
            uni
        }
    }

    /// Prices one plan.
    fn price(
        &self,
        table: &CostTable,
        module: &Module,
        plan: LoopPlan,
    ) -> (GateDecision, LoopPlan) {
        let pattern = &plan.pattern;
        let comp_t = Self::einsum_time_of(table.cost(pattern.einsum));
        let g = plan.group_size;
        let is_rs = matches!(pattern.kind, PatternKind::EinsumReduceScatter { .. });
        let wire = plan.wire;
        // The alternative to decomposing is the collective the pipeline
        // will actually keep — under a quantized strategy that kept
        // collective is itself annotated with the wire format, so price
        // the quantized synchronous collective, not the lossless one.
        // Lossless keeps the table-driven figure bit-identical.
        let comm_t = if wire.is_lossless() {
            Self::collective_time_of(table.cost(pattern.collective))
        } else if is_rs {
            let (bytes, codec) =
                self.wired(wire, module.shape_of(module.instr(pattern.collective).operands()[0]));
            ccost::reduce_scatter_time(self.machine, g, bytes) + codec
        } else {
            let (bytes, codec) = self.wired(wire, module.shape_of(pattern.collective));
            ccost::all_gather_time(self.machine, g, bytes) + codec
        };
        // Decomposed side: the circulated shard shrinks to its wire size
        // and every ring step pays one codec sweep (zero when lossless).
        let (shard, step_codec) = self.wired(wire, &plan.shard);
        let steps = plan.steps;
        let (comm_t_ring, extra_t) = if plan.bidirectional {
            let ring = ccost::decomposed_bidi_ring_time(self.machine, steps, shard)
                + steps as f64 * step_codec;
            // Prologue (AllGather) or epilogue (ReduceScatter) shift of one
            // whole shard, conservatively unoverlapped.
            let extra = ccost::collective_permute_time(self.machine, shard) + step_codec;
            (ring, extra)
        } else {
            (
                ccost::decomposed_ring_time(self.machine, steps, shard)
                    + steps as f64 * step_codec,
                0.0,
            )
        };
        // The decomposed side computes the plan's partial einsums, whose
        // smaller extents may run less efficiently (the regime the
        // paper's narrow models hit) and each pay a kernel launch; the
        // portion of that compute which actually overlaps wire time
        // additionally pays the DMA interference slowdown. Compare against
        // that, not the original `comp_t`.
        let Op::Einsum(dims) = module.instr(pattern.einsum).op() else {
            unreachable!("pattern einsum")
        };
        let (flops, m, n, k) = einsum_cost_key(dims, &plan.partial_lhs, &plan.partial_rhs);
        let partial_t = self.memo.borrow_mut().time(self.machine, flops, m, n, k);
        let comp_d_raw = plan.partials as f64 * partial_t;
        let comp_d = comp_d_raw
            + self.machine.dma_interference() * comp_d_raw.min(comm_t_ring);

        let beneficial = comp_t + comm_t >= comp_d.max(comm_t_ring) + extra_t;
        let decision = GateDecision {
            pattern: *pattern,
            comp_t,
            comm_t,
            comm_t_ring,
            extra_t,
            comp_d,
            beneficial,
            bidirectional: plan.bidirectional,
        };
        (decision, plan)
    }

    /// Selects the patterns to decompose: evaluates every candidate,
    /// resolves einsums with two candidates by the §5.5 rule (if the
    /// einsum is faster than both collectives, prefer the smaller shard —
    /// smaller unoverlapped residue; otherwise prefer the longer
    /// collective), and keeps only beneficial ones, each beside the plan
    /// it was priced on.
    ///
    /// When `gate` is `false` every candidate passes the benefit test (one
    /// pattern per einsum is still enforced) — used by ablation studies.
    ///
    /// The per-candidate evaluations share `table` and fan across cores
    /// on the deterministic [`par_map`](overlap_sim::par_map) driver.
    /// Results land in input-order slots and each worker evaluates with a
    /// fresh einsum-time memo — memo hits are exact (a hit returns the
    /// identical bits), so the decisions do not depend on the thread
    /// count. The per-einsum resolution stays serial (it is a cheap
    /// reduction).
    #[must_use]
    pub fn select(
        &self,
        table: &CostTable,
        module: &Module,
        patterns: &[Pattern],
        gate: bool,
    ) -> Vec<(GateDecision, LoopPlan)> {
        if patterns.is_empty() {
            return Vec::new();
        }
        // `self` cannot cross threads (the memo is a RefCell), so each
        // evaluation builds its own model from the shared machine+strategy.
        let (machine, strategy) = (self.machine, &self.strategy);
        let verdicts = overlap_sim::par_map(patterns, |p| {
            CostModel::new(machine, strategy).evaluate(table, module, p)
        });
        Self::resolve(verdicts, gate)
    }

    /// Applies the §5.5 one-pattern-per-einsum rule and (optionally) the
    /// benefit gate to a set of evaluated candidates. Decisions must be in
    /// pattern order — grouping keys on first appearance of each einsum.
    fn resolve(
        verdicts: Vec<(GateDecision, LoopPlan)>,
        gate: bool,
    ) -> Vec<(GateDecision, LoopPlan)> {
        let mut by_einsum: Vec<(InstrId, Vec<(GateDecision, LoopPlan)>)> = Vec::new();
        for v in verdicts {
            let einsum = v.0.pattern.einsum;
            match by_einsum.iter_mut().find(|(e, _)| *e == einsum) {
                Some((_, c)) => c.push(v),
                None => by_einsum.push((einsum, vec![v])),
            }
        }
        let mut selected = Vec::new();
        for (_, mut candidates) in by_einsum {
            let pick = if candidates.len() == 1 {
                candidates.remove(0)
            } else {
                // "The proposed scheme chooses the one that leads to higher
                // benefits": compare the estimated net saving directly (the
                // paper's shard-size/longer-collective rules are proxies
                // for the same quantity).
                candidates
                    .into_iter()
                    .max_by(|a, b| {
                        a.0.net_benefit()
                            .partial_cmp(&b.0.net_benefit())
                            .expect("finite times")
                    })
                    .expect("non-empty")
            };
            if !gate || pick.0.beneficial {
                selected.push(pick);
            }
        }
        selected
    }
}

#[cfg(test)]
mod tests {
    use overlap_hlo::{Builder, DType, DotDims, ReplicaGroups, Shape};
    use overlap_mesh::DeviceMesh;

    use super::*;
    use crate::pattern::patterns_of;

    fn f32s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    fn uni() -> StrategySpec {
        StrategySpec::paper_default().with_ring(RingDirection::Unidirectional)
    }

    fn ag_module(n: usize, b_sz: usize, f: usize, h: usize) -> Module {
        let mut b = Builder::new("ag", n);
        let x = b.parameter(f32s(&[b_sz, f]), "x");
        let w = b.parameter(f32s(&[f, h / n]), "w");
        let g = b.all_gather(w, 1, ReplicaGroups::full(n), "g");
        let e = b.einsum(x, g, DotDims::matmul(), "e");
        b.build(vec![e])
    }

    #[test]
    fn big_compute_passes_gate() {
        // Batch sized so the einsum covers the stretched ring while the
        // collective saving still exceeds the DMA-interference tax.
        let m = ag_module(4, 8192, 4096, 4096);
        let machine = Machine::with_mesh(DeviceMesh::ring(4));
        let cm = CostModel::new(&machine, &uni());
        let pats = patterns_of(&m);
        let table = CostTable::new(&m, &machine).unwrap();
        let (d, _) = cm.evaluate(&table, &m, &pats[0]);
        assert!(d.beneficial, "large einsum should hide the ring: {d:?}");
        assert!(d.comp_t > d.comm_t_ring);
    }

    #[test]
    fn tiny_compute_fails_gate() {
        // Minuscule einsum, large gathered weight: the stretched ring
        // cannot be hidden.
        let n = 8;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[1, 8192]), "x");
        let w = b.parameter(f32s(&[8192, 8192 / n]), "w");
        let g = b.all_gather(w, 1, ReplicaGroups::full(n), "g");
        let e = b.einsum(x, g, DotDims::matmul(), "e");
        let m = b.build(vec![e]);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let cm = CostModel::new(&machine, &uni());
        let pats = patterns_of(&m);
        let table = CostTable::new(&m, &machine).unwrap();
        let (d, _) = cm.evaluate(&table, &m, &pats[0]);
        assert!(d.comm_t_ring > d.comp_t);
        assert!(!d.beneficial, "unhideable ring must be rejected: {d:?}");
    }

    #[test]
    fn bidirectional_ring_is_cheaper() {
        let m = ag_module(4, 1024, 1024, 1024);
        let machine = Machine::with_mesh(DeviceMesh::ring(4));
        let pats = patterns_of(&m);
        let table = CostTable::new(&m, &machine).unwrap();
        let du = CostModel::new(&machine, &uni()).evaluate(&table, &m, &pats[0]).0;
        let db = CostModel::new(&machine, &StrategySpec::paper_default());
        let db = db.evaluate(&table, &m, &pats[0]).0;
        assert!(db.comm_t_ring < du.comm_t_ring);
        assert!(db.extra_t > 0.0);
        assert_eq!(du.extra_t, 0.0);
    }

    #[test]
    fn quantized_wire_shrinks_both_sides_of_the_gate() {
        let m = ag_module(8, 256, 4096, 8192);
        let machine = Machine::with_mesh(DeviceMesh::ring(8));
        let pats = patterns_of(&m);
        let table = CostTable::new(&m, &machine).unwrap();
        let dense = CostModel::new(&machine, &uni()).evaluate(&table, &m, &pats[0]).0;
        let int8 = CostModel::new(&machine, &uni().with_wire(WireFormat::int8()))
            .evaluate(&table, &m, &pats[0])
            .0;
        // f32 payload on an int8-ish wire: both the kept collective and
        // the decomposed ring move ~4x fewer bytes, but each ring step
        // now pays a codec sweep, so the ring shrinks by less than 4x.
        assert!(int8.comm_t < dense.comm_t);
        assert!(int8.comm_t_ring < dense.comm_t_ring);
        assert!(int8.comm_t_ring * 4.0 > dense.comm_t_ring);
        // comp_t is wire-independent.
        assert_eq!(int8.comp_t, dense.comp_t);
    }

    #[test]
    fn lossless_wire_is_gate_neutral() {
        let m = ag_module(4, 1024, 1024, 1024);
        let machine = Machine::with_mesh(DeviceMesh::ring(4));
        let pats = patterns_of(&m);
        let table = CostTable::new(&m, &machine).unwrap();
        let base = CostModel::new(&machine, &uni()).evaluate(&table, &m, &pats[0]).0;
        let annotated = CostModel::new(&machine, &uni().with_wire(WireFormat::Lossless))
            .evaluate(&table, &m, &pats[0])
            .0;
        assert_eq!(base.comm_t.to_bits(), annotated.comm_t.to_bits());
        assert_eq!(base.comm_t_ring.to_bits(), annotated.comm_t_ring.to_bits());
    }

    #[test]
    fn two_candidates_resolve_to_one() {
        let n = 2;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[512, 1024]), "x");
        let w = b.parameter(f32s(&[512, 256]), "w");
        let gx = b.all_gather(x, 0, ReplicaGroups::full(n), "gx");
        let gw = b.all_gather(w, 0, ReplicaGroups::full(n), "gw");
        let e = b.einsum(gx, gw, DotDims::matmul(), "e");
        let m = b.build(vec![e]);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let cm = CostModel::new(&machine, &uni());
        let pats = patterns_of(&m);
        let table = CostTable::new(&m, &machine).unwrap();
        assert_eq!(pats.len(), 2);
        let sel = cm.select(&table, &m, &pats, false);
        assert_eq!(sel.len(), 1, "one pattern per einsum");
    }

    #[test]
    fn parallel_select_matches_serial_bitwise() {
        let n = 2;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[512, 1024]), "x");
        let w = b.parameter(f32s(&[512, 256]), "w");
        let gx = b.all_gather(x, 0, ReplicaGroups::full(n), "gx");
        let gw = b.all_gather(w, 0, ReplicaGroups::full(n), "gw");
        let e = b.einsum(gx, gw, DotDims::matmul(), "e");
        let x2 = b.parameter(f32s(&[4096, 2048]), "x2");
        let w2 = b.parameter(f32s(&[2048, 1024]), "w2");
        let g2 = b.all_gather(w2, 1, ReplicaGroups::full(n), "g2");
        let e2 = b.einsum(x2, g2, DotDims::matmul(), "e2");
        let m = b.build(vec![e, e2]);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let table = CostTable::new(&m, &machine).expect("table");
        let pats = patterns_of(&m);
        assert!(pats.len() >= 2, "need several candidates");
        for gate in [false, true] {
            for strategy in [uni(), StrategySpec::paper_default()] {
                let cm = CostModel::new(&machine, &strategy);
                let serial = CostModel::resolve(
                    pats.iter().map(|p| cm.evaluate(&table, &m, p)).collect(),
                    gate,
                );
                let par = cm.select(&table, &m, &pats, gate);
                assert_eq!(serial, par, "parallel gate must be bit-identical");
            }
        }
    }

    #[test]
    fn gate_filters_select() {
        let n = 8;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[1, 8192]), "x");
        let w = b.parameter(f32s(&[8192, 8192 / n]), "w");
        let g = b.all_gather(w, 1, ReplicaGroups::full(n), "g");
        let e = b.einsum(x, g, DotDims::matmul(), "e");
        let m = b.build(vec![e]);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let cm = CostModel::new(&machine, &uni());
        let pats = patterns_of(&m);
        let table = CostTable::new(&m, &machine).unwrap();
        assert!(cm.select(&table, &m, &pats, true).is_empty());
        assert_eq!(cm.select(&table, &m, &pats, false).len(), 1);
    }

    /// A bf16 AllGather→Einsum (`ag`) or Einsum→ReduceScatter module:
    /// `x[m,k] · w` with `w`'s output dim sharded `n` ways.
    fn bf16_module(ag: bool, n: usize, m: usize, k: usize, f_shard: usize) -> Module {
        let bf16 = |dims: &[usize]| Shape::new(DType::BF16, dims.to_vec());
        let mut b = Builder::new("prop", n);
        let x = b.parameter(bf16(&[m, k]), "x");
        let w = b.parameter(bf16(&[k, if ag { f_shard } else { f_shard * n }]), "w");
        let out = if ag {
            let wf = b.all_gather(w, 1, ReplicaGroups::full(n), "wf");
            b.einsum(x, wf, DotDims::matmul(), "y")
        } else {
            let y = b.einsum(x, w, DotDims::matmul(), "y");
            b.reduce_scatter(y, 1, ReplicaGroups::full(n), "y_rs")
        };
        b.build(vec![out])
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(144))]

        /// On AllGather and ReduceScatter patterns (TPU preset) and
        /// AllGather patterns (GPU preset): halving the link bandwidth
        /// never cheapens predicted communication at a fixed direction
        /// mode nor moves the compute estimate, and `evaluate` picks the
        /// better of the two modes.
        #[test]
        fn variants_are_consistent_across_links_and_directions(
            kind in 0u8..3,
            n in proptest::sample::select(vec![2usize, 4, 8]),
            (m, k, f) in (64usize..512, 64usize..512, 16usize..256),
        ) {
            let module = bf16_module(kind != 1, n, m, k, f);
            let preset = if kind == 2 { Machine::gpu_cluster_like } else { Machine::tpu_v4_like };
            let fast = preset(n);
            let slow = fast.clone().with_link_bandwidth(fast.link_bandwidth() / 2.0);
            let paper = StrategySpec::paper_default();
            let [cm, cm_slow] = [&fast, &slow].map(|mc| CostModel::new(mc, &paper));
            let [table, slow_table] = [&fast, &slow].map(|mc| CostTable::new(&module, mc).unwrap());
            for p in &patterns_of(&module) {
                let (d, plan) = cm.evaluate(&table, &module, p);
                let s = cm_slow.price(&slow_table, &module, plan).0;
                proptest::prop_assert!(s.comm_t >= d.comm_t * (1.0 - 1e-9));
                proptest::prop_assert!(s.comm_t_ring >= d.comm_t_ring * (1.0 - 1e-9));
                proptest::prop_assert!(s.comp_t == d.comp_t);
                for ring in [RingDirection::Unidirectional, RingDirection::Bidirectional] {
                    let plan = LoopPlan::new(&module, p, &paper.all_gather, ring);
                    let v = cm.price(&table, &module, plan).0;
                    proptest::prop_assert!(d.net_benefit() >= v.net_benefit() - 1e-15);
                }
            }
        }
    }
}
