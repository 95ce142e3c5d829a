//! `tail_draws`: one `simulate_order_tail_with` of [`DRAWS`] draws per
//! op, each op under its own seeded network-straggler fault spec, all on
//! one stacked GPT_64B module compiled once in set-up. `overlap-sim`'s
//! faulted engine does all the work; `overlap-core` runs only in
//! `setup_s`. One homogeneous input keeps the p99 meaningful, and
//! several draws per call let per-call reuse in the engine show.

use std::ops::Range;
use std::time::Instant;

use overlap_core::{Compiled, OverlapOptions, OverlapPipeline, StrategySpec};
use overlap_hlo::Module;
use overlap_mesh::{FaultSpec, Machine};
use overlap_models::find_model;
use overlap_sim::{simulate, simulate_order_tail_with, simulate_order_with};

use crate::gen;
use crate::oracle::{self, Checks};
use crate::trace::Tracer;
use crate::workload::{Ctx, Phase, Workload};

/// Layers stacked into the module (forward and backward: 2·DEPTH stages).
pub const DEPTH: usize = 2;
/// Fault draws per op.
pub const DRAWS: usize = 6;
/// Every `RECHECK_EVERY`-th op is run again after timing: a repeated
/// seed must return identical samples.
const RECHECK_EVERY: usize = 64;

/// Seed of the straggler spec the module is compiled under (perfgate's).
/// Fixed, so that the compiled schedule — and with it
/// `sim_step_speedup` — does not depend on `--seed`; only the ops'
/// fault draws do.
const COMPILE_SPEC_SEED: u64 = 7;

/// The module every op simulates, compiled under the straggler spec at
/// `window_layers = 2`.
pub struct TailInput {
    pub module: Module,
    pub machine: Machine,
    pub compiled: Compiled,
}

pub fn tail_input() -> Result<TailInput, String> {
    let cfg = find_model("GPT_64B").ok_or("GPT_64B is not in the zoo")?;
    let module = cfg.window_module(DEPTH);
    let machine = cfg.machine();
    let options =
        OverlapOptions::with_strategy(StrategySpec::paper_default().with_window_layers(2));
    let compiled = OverlapPipeline::new(options)
        .with_faults(gen::straggler_spec(COMPILE_SPEC_SEED, machine.mesh()))
        .run(&module, &machine)
        .map_err(|e| format!("windowed compile: {e}"))?;
    Ok(TailInput { module, machine, compiled })
}

impl TailInput {
    /// `draws` makespans of the compiled schedule under `spec`.
    pub fn draw(&self, spec: &FaultSpec, draws: usize) -> Result<Vec<f64>, String> {
        let c = &self.compiled;
        simulate_order_tail_with(&c.cost_table, &c.module, &self.machine, &c.order, spec, draws)
            .map_err(|e| e.to_string())
    }
}

pub struct TailDraws {
    seed: u64,
    input: TailInput,
    /// Makespan of the compiled schedule with no faults injected: the
    /// floor no faulted draw may beat.
    fault_free: f64,
    sim_step_speedup: f64,
    /// (op, samples) kept for the repeat check.
    kept: Vec<(usize, Vec<f64>)>,
}

impl Workload for TailDraws {
    const OPS_PER_SECOND: usize = 60;

    fn setup(ctx: &Ctx, checks: &mut Checks, _tracer: &mut Tracer) -> Result<Self, String> {
        let input = tail_input()?;
        let c = &input.compiled;
        let fault_free = simulate_order_with(&c.cost_table, &c.module, &input.machine, &c.order)
            .map_err(|e| e.to_string())?
            .makespan();
        let baseline = simulate(&input.module, &input.machine).map_err(|e| e.to_string())?;
        oracle::check_numerics(checks)?;
        Ok(TailDraws {
            seed: ctx.seed,
            sim_step_speedup: baseline.makespan() / fault_free,
            input,
            fault_free,
            kept: Vec::new(),
        })
    }

    fn phase(&mut self, range: Range<usize>, tracer: &mut Tracer) -> Result<Phase, String> {
        let mesh = self.input.machine.mesh();
        Phase::on_this_thread(range, |op| {
            let spec = gen::straggler_spec(gen::tail_seed(self.seed, op), mesh);
            let t0 = Instant::now();
            let out = self.input.draw(&spec, DRAWS);
            let t1 = Instant::now();
            tracer.add("sim.tail", tracer.micros(t0), tracer.micros(t1), None, op as u64 + 1);
            let ok = out.is_ok_and(|samples| {
                let ok = samples.len() == DRAWS && samples.iter().all(|&s| s >= self.fault_free);
                if ok && op % RECHECK_EVERY == 0 {
                    self.kept.push((op, samples));
                }
                ok
            });
            ((t1 - t0).as_secs_f64(), ok)
        })
    }

    fn verify(&mut self, checks: &mut Checks) -> Result<(), String> {
        for (op, first) in &self.kept {
            let spec =
                gen::straggler_spec(gen::tail_seed(self.seed, *op), self.input.machine.mesh());
            let again = self.input.draw(&spec, DRAWS)?;
            let same = first.iter().map(|s| s.to_bits()).eq(again.iter().map(|s| s.to_bits()));
            if !same {
                checks.fail(format!("tail op {op}: the same seed gave different samples"));
            }
        }
        Ok(())
    }

    fn sim_step_speedup(&self) -> f64 {
        self.sim_step_speedup
    }

    fn pid_under_test(&self) -> u32 {
        std::process::id()
    }
}
