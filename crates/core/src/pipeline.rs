//! The end-to-end compilation pipeline.

use overlap_hlo::{HloError, InstrId, LayerTags, Module, ModuleAnalysis, WireFormat};
use overlap_mesh::{FaultSpec, Machine};
use overlap_sim::{CostTable, Simulation};

use crate::costgate::{CostModel, FaultGateAdjust, GateDecision};
use crate::decompose::{decompose, DecomposeSummary};
use crate::fusion::{fuse, FusionOptions};
use crate::pattern::{find_patterns, PatternKind};
use crate::plan::LoopPlan;
use crate::profile::PhaseTimings;
use crate::reassociate::split_all_reduces;
use crate::schedule::{schedule_bottom_up, schedule_top_down, ScheduleWindow};
use crate::strategy::StrategySpec;

/// Which §5.2 scheduler orders the final instruction sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The bottom-up scheduler of Algorithm 2 (the paper's default: ~5%
    /// faster and more general, Fig. 16).
    #[default]
    BottomUp,
    /// The simpler top-down early-start/late-done scheduler.
    TopDown,
    /// Keep the builder (program) order — no latency hiding.
    Original,
}

/// Options for the full pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverlapOptions {
    /// The decomposition strategy (§5.1/§5.4 knobs, per pattern kind,
    /// plus fusion aggressiveness and the partitioning hint). This is
    /// the searchable configuration the autotuner enumerates.
    pub strategy: StrategySpec,
    /// Scheduler choice (§5.2).
    pub scheduler: SchedulerKind,
    /// Whether the §5.5 cost gate filters patterns (`false` decomposes
    /// every candidate, for ablations).
    pub disable_cost_gate: bool,
    /// Split `AllReduce`s into `ReduceScatter + AllGather` first (§2.1),
    /// exposing Megatron-style patterns to the decomposition. Off in
    /// [`OverlapOptions::paper_default`] — the paper's own strategy avoids
    /// AllReduces by construction.
    pub split_all_reduce: bool,
    /// Hard numerics budget for quantized wire traffic, as a maximum
    /// predicted relative error per collective
    /// ([`WireFormat::predicted_rel_error`]). A quantized collective whose
    /// prediction exceeds the budget is forced back to lossless, with the
    /// reason recorded in [`Compiled::fallbacks`]. `None` (the default)
    /// trusts the strategy as written; the knob is inert on lossless
    /// strategies either way.
    pub error_budget: Option<f64>,
}

impl OverlapOptions {
    /// The paper's production configuration: decompose with unrolling and
    /// bidirectional transfer, overlap-aware fusion, bottom-up scheduling,
    /// cost gate on.
    #[must_use]
    pub fn paper_default() -> Self {
        OverlapOptions {
            strategy: StrategySpec::paper_default(),
            scheduler: SchedulerKind::BottomUp,
            disable_cost_gate: false,
            split_all_reduce: false,
            error_budget: None,
        }
    }

    /// [`OverlapOptions::paper_default`] with a different strategy.
    #[must_use]
    pub fn with_strategy(strategy: StrategySpec) -> Self {
        OverlapOptions { strategy, ..Self::paper_default() }
    }

    /// The best strategy found by the offline autotuner
    /// (`overlap-autotune`, leaderboards in `results/fig_autotune.json`)
    /// for this model/machine pair.
    ///
    /// On short-ring meshes (every axis at most 4 devices) the sweep
    /// found a chunked unidirectional AllGather window beating the
    /// paper default: with so few ring steps the bidirectional
    /// prologue/epilogue overhead outweighs its halved circulation, and
    /// the two-shard window keeps per-step compute above the transfer
    /// time. Everywhere the Table-1 machines run — long rings on large
    /// meshes — the paper default remains the winner, so that is what
    /// every other shape gets. The `model` name is accepted so future
    /// sweeps can special-case per-model winners without an API change.
    #[must_use]
    pub fn autotuned(model: &str, machine: &Machine) -> Self {
        let _ = model;
        let short_rings = machine.mesh().shape().iter().all(|&d| d <= 4);
        if short_rings {
            return Self::with_strategy(
                StrategySpec::paper_default()
                    .with_ring(crate::RingDirection::Unidirectional)
                    .with_chunk(2),
            );
        }
        Self::paper_default()
    }

    /// The fusion pass configuration (`None` skips the pass).
    #[must_use]
    pub fn fusion_options(&self) -> Option<FusionOptions> {
        self.strategy.fusion_options()
    }

    /// A stable fingerprint over every field that can change the
    /// pipeline's output. One third of the [`crate::ArtifactCache`] key
    /// (with [`overlap_hlo::Module::fingerprint`] and
    /// [`overlap_mesh::Machine::fingerprint`]): two option sets with equal
    /// fingerprints compile any module identically, so a new knob added
    /// here — or to [`StrategySpec`] — **must** be hashed or stale cache
    /// entries will be served for configurations that no longer produce
    /// them.
    #[must_use]
    pub fn fingerprint(&self) -> overlap_json::Fingerprint {
        let mut h = overlap_json::StableHasher::new("overlap-options-v2");
        h.write_fingerprint(self.strategy.fingerprint());
        h.write_str(match self.scheduler {
            SchedulerKind::BottomUp => "bottom-up",
            SchedulerKind::TopDown => "top-down",
            SchedulerKind::Original => "original",
        });
        h.write_bool(self.disable_cost_gate);
        h.write_bool(self.split_all_reduce);
        // Hashed only when set: budget-free options must keep the exact
        // pre-precision fingerprints so every historical artifact-cache
        // key and committed figure stays byte-identical.
        if let Some(budget) = self.error_budget {
            h.write_str("error-budget");
            h.write_f64(budget);
        }
        h.finish()
    }
}

/// One pattern (or the whole module) the pipeline kept in its original
/// synchronous form because the configured [`FaultSpec`] made the
/// decomposed form regress (or fail outright).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FallbackRecord {
    /// Name of the einsum whose pattern fell back, or `"<module>"` when
    /// the whole compiled module was abandoned for the original program.
    pub einsum: String,
    /// Human-readable cause (regressed fault-adjusted gate, or the typed
    /// simulation error that aborted the degraded-machine smoke run).
    pub reason: String,
}

impl FallbackRecord {
    /// The marker used in [`FallbackRecord::einsum`] for whole-module
    /// fallbacks.
    pub const WHOLE_MODULE: &'static str = "<module>";
}

/// Enforces the [`OverlapOptions::error_budget`] on one collective's wire:
/// a quantized encoding whose predicted relative error after `encodes`
/// quantization events exceeds the budget is forced back to lossless, with
/// the reason recorded against `name`.
fn budget_wire(
    wire: WireFormat,
    encodes: usize,
    budget: Option<f64>,
    name: &str,
    fallbacks: &mut Vec<FallbackRecord>,
) -> WireFormat {
    if wire.is_lossless() {
        return wire;
    }
    let Some(budget) = budget else { return wire };
    let predicted = wire.predicted_rel_error(encodes);
    if predicted <= budget {
        return wire;
    }
    fallbacks.push(FallbackRecord {
        einsum: name.to_string(),
        reason: format!(
            "wire {} predicted relative error {predicted:.3e} over {encodes} \
             quantization events exceeds the error budget {budget:.3e}; \
             forced lossless",
            wire.describe()
        ),
    });
    WireFormat::Lossless
}

/// Result of running the pipeline.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The transformed module (decomposed with async permutes, fused).
    pub module: Module,
    /// The scheduled instruction order to execute/simulate.
    pub order: Vec<InstrId>,
    /// Per-pattern decomposition summaries.
    pub summaries: Vec<DecomposeSummary>,
    /// The cost-gate decisions (including rejected patterns). When the
    /// pipeline carries a [`FaultSpec`], the recorded terms are the
    /// fault-adjusted ones the final per-pattern verdicts used.
    pub decisions: Vec<GateDecision>,
    /// Patterns (or the whole module) that gracefully fell back to their
    /// original synchronous form under the configured [`FaultSpec`];
    /// empty on fault-free compiles.
    pub fallbacks: Vec<FallbackRecord>,
    /// Precomputed costs for `module` on the compiling machine;
    /// [`Compiled::simulation`] hands it to the simulator so the compiled
    /// program runs without re-deriving costs.
    pub cost_table: CostTable,
    /// Wall time spent in each pipeline pass (see [`PhaseTimings`]).
    pub timings: PhaseTimings,
}

impl Compiled {
    /// A [`Simulation`] of the compiled program on `machine` (the machine
    /// it was compiled for): module, scheduled order and the cost table
    /// the pipeline already built, pre-filled. Add `.faults(..)` and pick
    /// a terminal: `compiled.simulation(&machine).run()`.
    pub fn simulation<'a>(&'a self, machine: &'a Machine) -> Simulation<'a> {
        Simulation::new(&self.module, machine).order(&self.order).table(&self.cost_table)
    }
}

/// The compiler pipeline implementing the paper end to end:
/// pattern finding → §5.5 gate → §5.1/§5.4 decomposition (emitting §5.2
/// async permutes) → §5.4.3 fusion → §5.2 scheduling.
///
/// # Example
///
/// ```
/// use overlap_core::{OverlapOptions, OverlapPipeline};
/// use overlap_hlo::{Builder, DType, DotDims, ReplicaGroups, Shape};
/// use overlap_mesh::Machine;
///
/// let n = 4;
/// let mut b = Builder::new("layer", n);
/// let x = b.parameter(Shape::new(DType::F32, vec![8192, 1024]), "x");
/// let w = b.parameter(Shape::new(DType::F32, vec![1024, 1024]), "w");
/// let wg = b.all_gather(w, 1, ReplicaGroups::full(n), "wg");
/// let y = b.einsum(x, wg, DotDims::matmul(), "y");
/// let m = b.build(vec![y]);
///
/// let machine = Machine::tpu_v4_like(n);
/// let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
///     .run(&m, &machine)
///     .unwrap();
/// assert_eq!(compiled.summaries.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OverlapPipeline {
    options: OverlapOptions,
    faults: Option<FaultSpec>,
}

impl OverlapPipeline {
    /// Creates a pipeline with the given options.
    #[must_use]
    pub fn new(options: OverlapOptions) -> Self {
        OverlapPipeline { options, faults: None }
    }

    /// The configured options.
    #[must_use]
    pub fn options(&self) -> &OverlapOptions {
        &self.options
    }

    /// Compiles for a degraded machine: the §5.5 gate is re-evaluated
    /// under `spec` (patterns whose decomposed form regresses past the
    /// original collective fall back per pattern) and the compiled
    /// schedule is smoke-simulated with faults injected — if that
    /// simulation errors out, the whole module falls back to the
    /// original program. Fallbacks are recorded in
    /// [`Compiled::fallbacks`] and the extra phases in
    /// [`Compiled::timings`].
    ///
    /// A [`FaultSpec::default()`]-equivalent (no-op) spec leaves the
    /// pipeline bit-identical to a fault-free compile.
    #[must_use]
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// The configured fault spec, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultSpec> {
        self.faults.as_ref()
    }

    /// The fault spec, filtered to `None` when it would not perturb
    /// anything — the cache keys on this, so a no-op spec shares
    /// artifacts with fault-free compiles. Public so callers that must
    /// *predict* the cache's artifact key (fleet peering routes
    /// fetches by it) compute the exact key the cache will use.
    #[must_use]
    pub fn effective_faults(&self) -> Option<&FaultSpec> {
        self.faults.as_ref().filter(|s| !s.is_noop())
    }

    /// Runs all passes on `module` for `machine`.
    ///
    /// Every pass shares one [`ModuleAnalysis`]: the builder-based
    /// rewrites return the analysis of their output (maintained
    /// append-by-append), the read-only passes borrow its users/fusion
    /// tables, and the final check is the *incremental* verifier — only
    /// the instructions past the analysis watermark get per-instruction
    /// checks (debug builds cross-check it against the full verifier).
    /// Per-pass wall times land in [`Compiled::timings`].
    ///
    /// # Errors
    ///
    /// Returns [`HloError`] if the input or the compiled module fails
    /// verification.
    pub fn run(&self, module: &Module, machine: &Machine) -> Result<Compiled, HloError> {
        let mut timings = PhaseTimings::new();

        let t0 = std::time::Instant::now();
        module.verify()?;
        timings.record("verify_input", t0.elapsed().as_secs_f64());

        // The split pre-pass rebuilds the module (its builder hands back
        // the analysis); otherwise analyze the verified input in place.
        let split_module;
        let analysis;
        let module: &Module = if self.options.split_all_reduce {
            let (m, a) = timings.time("split_all_reduces", || split_all_reduces(module));
            split_module = m;
            analysis = a;
            &split_module
        } else {
            analysis = timings.time("analyze", || {
                let mut a = ModuleAnalysis::of(module);
                a.mark_verified(module);
                a
            });
            module
        };

        let patterns = timings.time("find_patterns", || find_patterns(module, &analysis));
        let cost_model = CostModel::new(machine, &self.options.strategy);
        let verdicts = timings.time("cost_gate", || {
            if patterns.is_empty() {
                return Vec::new();
            }
            // The gate's per-candidate evaluations fan across cores with
            // input-order-deterministic results; the input module's cost
            // table reuses the already-verified analysis.
            let table = CostTable::with_analysis(module, &analysis, machine)
                .expect("verified input must have computable costs");
            cost_model.select(&table, module, &patterns, !self.options.disable_cost_gate)
        });

        // Fault-aware re-gate: with a (non-noop) spec and the gate on,
        // every selected pattern is re-judged with its terms stretched by
        // the degraded machine; regressions fall back to the original op.
        // The ablation mode (gate disabled) decomposes unconditionally,
        // faults or not, so it skips this.
        let mut fallbacks: Vec<FallbackRecord> = Vec::new();
        let verdicts = match self.effective_faults() {
            Some(spec) if !self.options.disable_cost_gate && !verdicts.is_empty() => {
                let adjust = FaultGateAdjust::new(machine, spec).map_err(|e| {
                    HloError::Verification(format!("fault spec does not fit machine: {e}"))
                })?;
                timings.time("fault_gate", || {
                    verdicts
                        .into_iter()
                        .map(|(d, plan)| {
                            let fd = adjust.adjust(&plan, &d);
                            if !fd.beneficial {
                                fallbacks.push(FallbackRecord {
                                    einsum: module.instr(d.pattern.einsum).name().to_string(),
                                    reason: format!(
                                        "fault-adjusted gate regressed \
                                         (net benefit {:.3e}s)",
                                        fd.net_benefit()
                                    ),
                                });
                            }
                            (fd, plan)
                        })
                        .collect::<Vec<_>>()
                })
            }
            _ => verdicts,
        };
        let gate_on = !self.options.disable_cost_gate;
        let (decisions, plans): (Vec<GateDecision>, Vec<LoopPlan>) = verdicts.into_iter().unzip();
        let mut selected: Vec<LoopPlan> = Vec::new();
        for (d, plan) in decisions.iter().zip(plans) {
            if gate_on && !d.beneficial {
                continue;
            }
            // Error budget: a circulated AllGather shard is encoded once
            // (re-encoding on the wire grid is exact); the ReduceScatter
            // ring re-encodes its traveling accumulator every hop.
            let encodes = match plan.pattern.kind {
                PatternKind::AllGatherEinsum { .. } => 1,
                PatternKind::EinsumReduceScatter { .. } => plan.group_size,
            };
            let wire = budget_wire(
                plan.wire,
                encodes,
                self.options.error_budget,
                module.instr(plan.pattern.einsum).name(),
                &mut fallbacks,
            );
            selected.push(LoopPlan { wire, ..plan });
        }

        // `decompose` value-numbers as it builds, so the result is
        // already in CSE normal form, and emits every permute as its async
        // start/done pair; its builder-maintained analysis serves every
        // later pass.
        let (mut decomposed, summaries, mut analysis) =
            timings.time("decompose", || decompose(module, &selected));

        // Precision annotation for kept collectives: when the strategy
        // asks for a quantized wire, collectives that survived in their
        // original synchronous form (gate-rejected patterns, collectives
        // outside any pattern) carry it too — the "quantize without
        // decomposing" point of the strategy space. Lossless strategies
        // skip the walk entirely, leaving the module untouched.
        let ag_wire = self.options.strategy.all_gather.wire;
        let rs_wire = self.options.strategy.reduce_scatter.wire;
        if !ag_wire.is_lossless() || !rs_wire.is_lossless() {
            timings.time("annotate_wire", || {
                for id in decomposed.ids() {
                    // An AllGather shard is encoded once at its source; a
                    // reduction encodes every summed contribution.
                    let (wire, encodes) = match decomposed.instr(id).op() {
                        overlap_hlo::Op::AllGather { .. } => (ag_wire, 1),
                        overlap_hlo::Op::ReduceScatter { groups, .. }
                        | overlap_hlo::Op::AllReduce { groups, .. } => {
                            (rs_wire, groups.group_size())
                        }
                        _ => continue,
                    };
                    let wire = budget_wire(
                        wire,
                        encodes,
                        self.options.error_budget,
                        decomposed.instr(id).name(),
                        &mut fallbacks,
                    );
                    if !wire.is_lossless() {
                        decomposed
                            .set_wire(id, wire)
                            .expect("matched ops all carry wire annotations");
                    }
                }
            });
        }
        let final_module = match self.options.fusion_options() {
            Some(fopts) => timings.time("fuse", || {
                let fused = fuse(decomposed, &analysis, &fopts);
                analysis.refresh_fusion(&fused);
                fused
            }),
            None => decomposed,
        };

        let t0 = std::time::Instant::now();
        final_module.verify_incremental(&mut analysis)?;
        timings.record("verify_final", t0.elapsed().as_secs_f64());

        // One table serves the scheduler below and every later simulation
        // of the compiled module. The pipeline's own passes only fuse
        // fusible ops, so table construction cannot fail here.
        let cost_table = timings.time("cost_table", || {
            CostTable::with_analysis(&final_module, &analysis, machine)
                .expect("pipeline output must have computable costs")
        });
        let order = timings.time("schedule", || {
            // Cross-layer window: `L<k>.` stage tags (stacked multi-layer
            // modules only — untagged modules get `None` and schedule
            // exactly as before) bound how far either scheduler may
            // interleave stages.
            let window = || {
                ScheduleWindow::new(
                    &LayerTags::of(&final_module),
                    self.options.strategy.window_layers,
                )
            };
            match self.options.scheduler {
                SchedulerKind::BottomUp => schedule_bottom_up(
                    &cost_table,
                    &analysis,
                    &final_module,
                    machine,
                    window(),
                ),
                SchedulerKind::TopDown => {
                    schedule_top_down(&cost_table, &analysis, &final_module, machine, window())
                }
                SchedulerKind::Original => final_module.arena_order(),
            }
        });
        let mut compiled = Compiled {
            module: final_module,
            order,
            summaries,
            decisions,
            fallbacks,
            cost_table,
            timings,
        };

        // Degraded-machine smoke run: the compiled schedule must actually
        // execute under the fault spec (links may be unroutable, the
        // watchdog may fire). If it cannot, gracefully abandon the
        // transformed program for the original module, which by
        // construction needs no decomposed permute routing.
        if let Some(spec) = self.effective_faults() {
            let t0 = std::time::Instant::now();
            let smoke = compiled.simulation(machine).faults(Some(spec)).run();
            compiled.timings.record("fault_smoke", t0.elapsed().as_secs_f64());
            if let Err(e) = smoke {
                let t0 = std::time::Instant::now();
                compiled.fallbacks.push(FallbackRecord {
                    einsum: FallbackRecord::WHOLE_MODULE.to_string(),
                    reason: format!("faulted simulation failed: {e}"),
                });
                compiled.module = module.clone();
                compiled.order = compiled.module.arena_order();
                compiled.summaries = Vec::new();
                compiled.cost_table = CostTable::new(&compiled.module, machine)
                    .expect("verified input must have computable costs");
                compiled.timings.record("fault_fallback", t0.elapsed().as_secs_f64());
            }
        }
        Ok(compiled)
    }
}

#[cfg(test)]
mod tests {
    use overlap_hlo::{Builder, DType, DotDims, Op, ReplicaGroups, Shape};
    use overlap_mesh::DeviceMesh;

    use super::*;

    fn f32s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    fn layer(n: usize) -> Module {
        let mut b = Builder::new("layer", n);
        let x = b.parameter(f32s(&[16384, 2048]), "x");
        let w = b.parameter(f32s(&[2048, 16384 / n]), "w");
        let wg = b.all_gather(w, 1, ReplicaGroups::full(n), "wg");
        let y = b.einsum(x, wg, DotDims::matmul(), "y");
        b.build(vec![y])
    }

    #[test]
    fn pipeline_improves_simulated_time() {
        let n = 8;
        let m = layer(n);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let baseline = Simulation::new(&m, &machine).run().unwrap();
        let compiled =
            OverlapPipeline::new(OverlapOptions::paper_default()).run(&m, &machine).unwrap();
        let overlapped = compiled.simulation(&machine).run().unwrap();
        assert!(
            overlapped.makespan() < baseline.makespan(),
            "overlap {:.3e} vs baseline {:.3e}",
            overlapped.makespan(),
            baseline.makespan()
        );
        assert!(overlapped.comm_fraction() < baseline.comm_fraction());
    }

    #[test]
    fn gate_keeps_original_when_unprofitable() {
        // A tiny einsum with a huge gather: gate must reject, leaving the
        // original AllGather in place.
        let n = 8;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[1, 8192]), "x");
        let w = b.parameter(f32s(&[8192, 8192 / n]), "w");
        let wg = b.all_gather(w, 1, ReplicaGroups::full(n), "wg");
        let y = b.einsum(x, wg, DotDims::matmul(), "y");
        let m = b.build(vec![y]);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let compiled = OverlapPipeline::new(OverlapOptions::with_strategy(
            StrategySpec::paper_default().with_ring(crate::RingDirection::Unidirectional),
        ))
        .run(&m, &machine)
        .unwrap();
        assert!(compiled.summaries.is_empty());
        assert_eq!(
            compiled.module.count_live(|i| matches!(i.op(), Op::AllGather { .. })),
            1
        );
    }

    #[test]
    fn scheduler_choices_all_valid() {
        let n = 4;
        let m = layer(n);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        for sched in
            [SchedulerKind::BottomUp, SchedulerKind::TopDown, SchedulerKind::Original]
        {
            let compiled = OverlapPipeline::new(OverlapOptions {
                scheduler: sched,
                ..OverlapOptions::paper_default()
            })
            .run(&m, &machine)
            .unwrap();
            compiled.simulation(&machine).run().unwrap();
        }
    }

    #[test]
    fn schedulers_beat_original_order() {
        let n = 4;
        let m = layer(n);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let mut makespans = Vec::new();
        for sched in
            [SchedulerKind::BottomUp, SchedulerKind::TopDown, SchedulerKind::Original]
        {
            let compiled = OverlapPipeline::new(OverlapOptions {
                scheduler: sched,
                ..OverlapOptions::paper_default()
            })
            .run(&m, &machine)
            .unwrap();
            let r = compiled.simulation(&machine).run().unwrap();
            makespans.push(r.makespan());
        }
        assert!(makespans[0] <= makespans[2] + 1e-12, "bottom-up beats original order");
        assert!(makespans[1] <= makespans[2] + 1e-12, "top-down beats original order");
    }

    #[test]
    fn noop_fault_spec_is_bit_identical_to_fault_free() {
        let n = 8;
        let m = layer(n);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let plain =
            OverlapPipeline::new(OverlapOptions::paper_default()).run(&m, &machine).unwrap();
        let faulted = OverlapPipeline::new(OverlapOptions::paper_default())
            .with_faults(overlap_mesh::FaultSpec::seeded(42))
            .run(&m, &machine)
            .unwrap();
        assert_eq!(plain.order, faulted.order);
        assert_eq!(plain.decisions, faulted.decisions);
        assert_eq!(plain.summaries, faulted.summaries);
        assert!(faulted.fallbacks.is_empty());
        assert_eq!(
            plain.module.identity_fingerprint(),
            faulted.module.identity_fingerprint()
        );
    }

    #[test]
    fn heavy_jitter_falls_back_per_pattern() {
        let n = 8;
        let m = layer(n);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        // 10 ms of per-hop jitter dwarfs any overlap win: the
        // fault-adjusted gate must keep the original collective.
        let spec = overlap_mesh::FaultSpec::seeded(3).with_jitter(10e-3);
        let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
            .with_faults(spec)
            .run(&m, &machine)
            .unwrap();
        assert!(compiled.summaries.is_empty(), "no pattern should decompose");
        assert_eq!(compiled.fallbacks.len(), 1);
        assert_ne!(compiled.fallbacks[0].einsum, FallbackRecord::WHOLE_MODULE);
        assert!(compiled.fallbacks[0].reason.contains("gate regressed"));
        assert_eq!(
            compiled.module.count_live(|i| matches!(i.op(), Op::AllGather { .. })),
            1,
            "the original collective survives the fallback"
        );
        // The fallback also shows up in the compile report.
        let report = crate::CompileReport::new(&m, &compiled, &machine);
        assert_eq!(report.fallback_lines.len(), 1);
        assert!(report.to_string().contains("fallback"));
    }

    #[test]
    fn failing_faulted_simulation_falls_back_to_whole_module() {
        let n = 8;
        let m = layer(n);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        // Stalls that always fire with a tiny backoff: the gate's
        // first-order expectation is negligible so patterns decompose,
        // but every DMA transfer exhausts its retry budget and the smoke
        // simulation dies with LinkDown — whole-module fallback.
        let spec = overlap_mesh::FaultSpec::seeded(5).with_dma_stalls(1.0, 1e-9, 2);
        let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
            .with_faults(spec.clone())
            .run(&m, &machine)
            .unwrap();
        let last = compiled.fallbacks.last().expect("a fallback is recorded");
        assert_eq!(last.einsum, FallbackRecord::WHOLE_MODULE);
        assert!(last.reason.contains("link down"), "reason: {}", last.reason);
        assert!(compiled.summaries.is_empty());
        assert_eq!(compiled.order, m.arena_order());
        // The fallback program simulates fine on the pristine machine and
        // (being permute-free) even under the same stall-heavy spec.
        compiled.simulation(&machine).run().unwrap();
        compiled.simulation(&machine).faults(Some(&spec)).run().unwrap();
        assert!(compiled.timings.seconds_of("fault_smoke") > 0.0);
    }

    #[test]
    fn quantized_strategy_annotates_the_compile() {
        // A quantized strategy with no budget: the decomposed rings
        // circulate quantized shards (their permutes carry the wire) and
        // any kept collective would be annotated too.
        let n = 8;
        let m = layer(n);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let wire = WireFormat::int8();
        let compiled = OverlapPipeline::new(OverlapOptions::with_strategy(
            StrategySpec::paper_default().with_wire(wire),
        ))
        .run(&m, &machine)
        .unwrap();
        assert_eq!(compiled.summaries.len(), 1, "the layer still decomposes");
        let quantized_permutes = compiled.module.count_live(|i| {
            matches!(
                i.op(),
                Op::CollectivePermute { wire: w, .. }
                    | Op::CollectivePermuteStart { wire: w, .. } if *w == wire
            )
        });
        assert!(quantized_permutes > 0, "ring permutes must carry the wire");
        assert!(compiled.fallbacks.is_empty());
    }

    #[test]
    fn error_budget_forces_lossless_with_recorded_reason() {
        // A budget below one int8 quantization event: every quantized
        // collective must fall back to lossless, each with a reason, and
        // the resulting program must be bit-identical to a lossless
        // compile of the same strategy.
        let n = 8;
        let m = layer(n);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let budgeted = OverlapPipeline::new(OverlapOptions {
            error_budget: Some(1e-6),
            ..OverlapOptions::with_strategy(
                StrategySpec::paper_default().with_wire(WireFormat::int8()),
            )
        })
        .run(&m, &machine)
        .unwrap();
        assert!(!budgeted.fallbacks.is_empty(), "the budget must record its fallbacks");
        for f in &budgeted.fallbacks {
            assert!(
                f.reason.contains("error budget") && f.reason.contains("forced lossless"),
                "reason: {}",
                f.reason
            );
        }
        let lossless =
            OverlapPipeline::new(OverlapOptions::paper_default()).run(&m, &machine).unwrap();
        assert_eq!(budgeted.order, lossless.order);
        assert_eq!(
            budgeted.module.identity_fingerprint(),
            lossless.module.identity_fingerprint(),
            "an exhausted budget must compile to the lossless program"
        );

        // A generous budget keeps the quantized wire and records nothing.
        let roomy = OverlapPipeline::new(OverlapOptions {
            error_budget: Some(0.5),
            ..OverlapOptions::with_strategy(
                StrategySpec::paper_default().with_wire(WireFormat::int8()),
            )
        })
        .run(&m, &machine)
        .unwrap();
        assert!(roomy.fallbacks.is_empty());
        assert_ne!(
            roomy.module.identity_fingerprint(),
            lossless.module.identity_fingerprint()
        );
    }

    #[test]
    fn straggler_slows_but_keeps_decomposition() {
        // A mild straggler stretches compute and communication alike;
        // decomposition remains beneficial and no fallback is recorded.
        let n = 8;
        let m = layer(n);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let spec = overlap_mesh::FaultSpec::seeded(11).with_straggler(2, 1.3);
        let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
            .with_faults(spec)
            .run(&m, &machine)
            .unwrap();
        assert_eq!(compiled.summaries.len(), 1);
        assert!(compiled.fallbacks.is_empty());
        assert!(compiled.timings.seconds_of("fault_gate") >= 0.0);
    }
}
