//! `compile_cold`: one `OverlapPipeline::run` per op, no cache, one
//! driver thread, over the 33 artifacts in turn. `overlap-core`'s
//! passes and `overlap-hlo`'s builder and verifier do nearly all the
//! work; `overlap-sim` appears only as the cost table, and serve, json
//! and the cache not at all.

use std::ops::Range;
use std::time::Instant;

use overlap_core::{Compiled, DecomposeSummary, FallbackRecord, GateDecision, OverlapPipeline};
use overlap_hlo::{InstrId, Module};
use overlap_json::Fingerprint;
use overlap_mesh::Machine;
use overlap_sim::{simulate, simulate_order_with};

use crate::gen::{self, Artifact};
use crate::metrics::Metrics;
use crate::oracle::{self, Checks, Figures};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{Ctx, Phase, Workload};

/// Pipeline phases reported by name; whatever else `run` spends is
/// `other`, so the twelve always sum to the compile.
pub const PASSES: [&str; 11] = [
    "verify_input",
    "analyze",
    "find_patterns",
    "cost_gate",
    "decompose",
    "annotate_wire",
    "asyncify",
    "fuse",
    "verify_final",
    "cost_table",
    "schedule",
];

/// What a compile of one input must produce, kept instead of the
/// `Compiled` itself: 33 live bundles are ~100 MB of heap the program
/// under test would not otherwise have, and compile time moves with it.
pub struct Digest {
    pub order: Vec<InstrId>,
    pub instrs: usize,
    identity: Fingerprint,
    pub summaries: Vec<DecomposeSummary>,
    decisions: Vec<GateDecision>,
    pub fallbacks: Vec<FallbackRecord>,
}

impl Digest {
    fn of(c: &Compiled) -> Self {
        Digest {
            order: c.order.clone(),
            instrs: c.module.len(),
            identity: c.module.identity_fingerprint(),
            summaries: c.summaries.clone(),
            decisions: c.decisions.clone(),
            fallbacks: c.fallbacks.clone(),
        }
    }

    /// The cheap per-op check: the schedule and the shape of the result.
    fn same_shape(&self, got: &Compiled) -> bool {
        got.order == self.order
            && got.module.len() == self.instrs
            && got.summaries.len() == self.summaries.len()
            && got.fallbacks.len() == self.fallbacks.len()
    }

    /// The full check. The structural fingerprint alone costs a third
    /// of a compile, so this is not made between timed ops.
    fn same_program(&self, got: &Compiled) -> bool {
        self.same_shape(got)
            && got.module.identity_fingerprint() == self.identity
            && got.summaries == self.summaries
            && got.decisions == self.decisions
            && got.fallbacks == self.fallbacks
    }
}

pub struct Input {
    pub artifact: Artifact,
    pub module: Module,
    pub machine: Machine,
    pub pipeline: OverlapPipeline,
    /// Digest of the untimed sweep's output: what every timed compile
    /// must equal.
    pub reference: Digest,
}

impl Input {
    pub fn compile(&self) -> Result<Compiled, String> {
        self.pipeline
            .run(&self.module, &self.machine)
            .map_err(|e| format!("{}: {e}", self.artifact.label()))
    }
}

/// One compile as the traced run sees it from outside.
pub struct CompileRecord {
    pub input: usize,
    pub wall_s: f64,
    /// `Compiled::timings`, as published.
    pub phases: Vec<(String, f64)>,
}

/// Builds the 33 inputs and compiles each once, untimed; `visit` sees
/// each output before it is reduced to its digest.
pub fn inputs(
    tracer: &mut Tracer,
    mut visit: impl FnMut(&Input, &Compiled) -> Result<(), String>,
) -> Result<Vec<Input>, String> {
    gen::artifacts()
        .into_iter()
        .map(|artifact| {
            let module = tracer.time("models.build", 0, || artifact.model.layer_module());
            let machine = artifact.model.machine();
            let pipeline = OverlapPipeline::new(artifact.options());
            let compiled = pipeline
                .run(&module, &machine)
                .map_err(|e| format!("{}: {e}", artifact.label()))?;
            let input =
                Input { artifact, module, machine, pipeline, reference: Digest::of(&compiled) };
            visit(&input, &compiled)?;
            Ok(input)
        })
        .collect()
}

/// Times one compile and records it; returns the output for checking.
pub fn timed_compile(
    inputs: &[Input],
    index: usize,
    op: u64,
    tracer: &mut Tracer,
    records: &mut Vec<CompileRecord>,
) -> (f64, Result<Compiled, String>) {
    let input = &inputs[index];
    let t0 = Instant::now();
    let out = input.pipeline.run(&input.module, &input.machine);
    let t1 = Instant::now();
    let wall_s = (t1 - t0).as_secs_f64();
    if let (true, Ok(compiled)) = (tracer.enabled(), &out) {
        let phases: Vec<(String, f64)> =
            compiled.timings.phases().iter().map(|p| (p.phase.clone(), p.seconds)).collect();
        let span = tracer.add("core.pipeline.run", tracer.micros(t0), tracer.micros(t1), None, op);
        let mut children: Vec<(String, f64)> =
            phases.iter().map(|(n, s)| (format!("core.pass.{n}"), *s)).collect();
        let other = wall_s - phases.iter().map(|(_, s)| s).sum::<f64>();
        children.push(("core.pass.other".to_string(), other.max(0.0)));
        tracer.lay_out(span, &children);
        records.push(CompileRecord { input: index, wall_s, phases });
    }
    (wall_s, out.map_err(|e| e.to_string()))
}

/// The `core.*` per-layer metrics from a set of compile records.
pub fn core_metrics(inputs: &[Input], records: &[CompileRecord], out: &mut Metrics) {
    let n = records.len().max(1) as f64;
    let mut listed = 0.0;
    for pass in PASSES {
        let total: f64 = records
            .iter()
            .flat_map(|r| r.phases.iter().filter(|(p, _)| p == pass).map(|(_, s)| s))
            .sum();
        listed += total;
        out.set(&format!("core.pass.{pass}_ms"), total * 1e3 / n);
    }
    let wall: f64 = records.iter().map(|r| r.wall_s).sum();
    out.set("core.pass.other_ms", (wall - listed) * 1e3 / n);

    let median_where = |keep: &dyn Fn(&Artifact) -> bool| {
        let ms: Vec<f64> = records
            .iter()
            .filter(|r| keep(&inputs[r.input].artifact))
            .map(|r| r.wall_s * 1e3)
            .collect();
        stats::median(&ms)
    };
    for set in gen::STRATEGIES {
        out.set(&format!("core.compile_ms.{set}"), median_where(&|a| a.strategy == set));
    }
    for model in ["GPT_32B", "T5_300B", "GPT_1T"] {
        out.set(&format!("core.compile_ms.{model}"), median_where(&|a| a.model.name == model));
    }
    let per_sweep = |f: &dyn Fn(&Input) -> usize| inputs.iter().map(f).sum::<usize>() as f64;
    out.set("core.instrs_in", per_sweep(&|i| i.module.len()));
    out.set("core.instrs_out", per_sweep(&|i| i.reference.instrs));
    out.set("core.patterns_decomposed", per_sweep(&|i| i.reference.summaries.len()));
    out.set("core.fallbacks", per_sweep(&|i| i.reference.fallbacks.len()));
}

pub struct CompileCold {
    inputs: Vec<Input>,
    records: Vec<CompileRecord>,
    sim_step_speedup: f64,
}

impl Workload for CompileCold {
    const OPS_PER_SECOND: usize = 100;
    /// Whole sweeps of the 33 inputs.
    const OPS_UNIT: usize = 33;

    fn setup(_ctx: &Ctx, checks: &mut Checks, tracer: &mut Tracer) -> Result<Self, String> {
        let figures = Figures::load()?;
        let mut speedups = Vec::new();
        let inputs = inputs(tracer, |input, compiled| {
            let baseline =
                simulate(&input.module, &input.machine).map_err(|e| e.to_string())?.makespan();
            let overlapped = simulate_order_with(
                &compiled.cost_table,
                &compiled.module,
                &input.machine,
                &compiled.order,
            )
            .map_err(|e| e.to_string())?
            .makespan();
            if input.artifact.strategy == "paper" {
                figures.check(checks, &input.artifact.model, baseline, overlapped);
            }
            speedups.push(baseline / overlapped);
            Ok(())
        })?;
        figures.check_all_rows_seen(checks);
        oracle::check_numerics(checks)?;
        Ok(CompileCold { inputs, records: Vec::new(), sim_step_speedup: stats::geomean(&speedups) })
    }

    fn phase(&mut self, range: Range<usize>, tracer: &mut Tracer) -> Result<Phase, String> {
        Phase::on_this_thread(range, |op| {
            let index = op % self.inputs.len();
            let (wall_s, out) =
                timed_compile(&self.inputs, index, op as u64 + 1, tracer, &mut self.records);
            (wall_s, out.is_ok_and(|c| self.inputs[index].reference.same_shape(&c)))
        })
    }

    /// Every timed compile was checked for its schedule; one more sweep,
    /// untimed, is compared in full.
    fn verify(&mut self, checks: &mut Checks) -> Result<(), String> {
        for input in &self.inputs {
            let ok = input.compile().is_ok_and(|c| input.reference.same_program(&c));
            checks.check(ok, || {
                format!("{}: a repeat compile differs from the reference", input.artifact.label())
            });
        }
        Ok(())
    }

    fn sim_step_speedup(&self) -> f64 {
        self.sim_step_speedup
    }

    fn pid_under_test(&self) -> u32 {
        std::process::id()
    }

    fn layer_metrics(&self, out: &mut Metrics) {
        core_metrics(&self.inputs, &self.records, out);
    }
}
