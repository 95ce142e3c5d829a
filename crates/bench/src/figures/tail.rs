//! Tail-latency sweep (`fig_tail`): cross-layer scheduling windows vs.
//! stragglers.
//!
//! For every Table-1 configuration, builds the 4-layer stacked window
//! module (`ModelConfig::window_module(4)`: forward stages `L0..L3`,
//! backward stages `L4..L7`), compiles it once per scheduling-window
//! width under a seeded network-straggler [`FaultSpec`], and runs the
//! distributional simulator (`Simulation::tail`) to get exact
//! p50/p90/p99 makespans over repeated independent fault draws.
//!
//! The straggler here is a *network* straggler: a fixed fraction of the
//! mesh's links run at `1/severity` of nominal bandwidth (a flapping
//! optical link, a congested switch radix), with per-hop jitter and
//! probabilistic DMA-issue stalls spreading the draw distribution so
//! the tail is a distribution rather than a point. Slow links expose
//! ring traffic that healthy-machine schedules hide completely — and a
//! window of 1 (strict per-stage barriers) serializes layer `k+1`'s
//! exposed ring hops behind all of layer `k`'s compute, so the erosion
//! lands squarely on p99. Widening the window lets the scheduler issue
//! the next stage's `CollectivePermuteStart`s under the current stage's
//! compute, which recovers a measurable fraction of the erosion at the
//! tail. (A *compute* straggler would show nothing here: slowing a
//! chip's FLOPs makes compute more dominant, which hides comm better
//! and leaves a wider window nothing to recover.) Every row reports the
//! win over the *same* module in its unscheduled arena order, so
//! windows are compared on equal footing.

use overlap_core::{OverlapOptions, OverlapPipeline, StrategySpec};
use overlap_json::Json;
use overlap_mesh::FaultSpec;
use overlap_models::table1_models;
use overlap_sim::{Simulation, TailSummary};

use super::{ctx, items, num, pivot, text, FigureResult, SweepConfig};
use crate::{smoke_config, SEED};

/// Layers stacked into one scheduling scope (8 stages: 4 fwd + 4 bwd).
const DEPTH: usize = 4;

/// Scheduling-window widths to sweep. 1 = strict per-stage barriers
/// (byte-identical to the single-scope scheduler); `DEPTH` lets any
/// stage's collectives ride under any other stage's compute.
const WINDOWS: [usize; 3] = [1, 2, 4];

/// Link slowdown factors (1.0 = healthy anchor): the derated links run
/// at `1/severity` of nominal bandwidth.
const SEVERITIES: [f64; 3] = [1.0, 1.5, 2.0];

/// Fraction of the mesh's links the straggler derates.
const LINK_FRACTION: f64 = 0.25;

/// Per-hop latency jitter amplitude: spreads the draw distribution so
/// the tail is a distribution, not a point. Kept small — amplitudes
/// near 5e-5 make the fault-adjusted §5.5 gates reject decomposition
/// outright, which would leave nothing to schedule.
const JITTER_SECONDS: f64 = 1e-5;

/// DMA-issue stall model: each transfer independently stalls on issue
/// with this probability and retries after a backoff, up to the retry
/// cap. This is where most of the p99−p50 spread comes from.
const STALL_PROBABILITY: f64 = 0.02;
const STALL_BACKOFF_SECONDS: f64 = 2e-4;
const STALL_RETRIES: u32 = 3;

/// Independent fault draws per row (exact order statistics, so p99 is
/// the worst draw at 33 and the 99th at 100).
const DRAWS: usize = 33;
const SMOKE_DRAWS: usize = 9;

pub(super) fn run(sweep: &SweepConfig<'_>) -> FigureResult {
    let models = if sweep.smoke { vec![smoke_config()] } else { table1_models() };
    let draws = if sweep.smoke { SMOKE_DRAWS } else { DRAWS };
    let mut rows = Vec::new();
    for cfg in &models {
        let module = cfg.window_module(DEPTH);
        let machine = cfg.machine();
        for &severity in &SEVERITIES {
            let spec = FaultSpec::seeded(SEED)
                .with_derated_link_fraction(machine.mesh(), LINK_FRACTION, 1.0 / severity)
                .with_jitter(JITTER_SECONDS)
                .with_dma_stalls(STALL_PROBABILITY, STALL_BACKOFF_SECONDS, STALL_RETRIES);
            let baseline = TailSummary::from_samples(&ctx(
                Simulation::new(&module, &machine).faults(Some(&spec)).tail(draws),
                "simulate the baseline tail",
            )?);
            for &window in &WINDOWS {
                let options = OverlapOptions::with_strategy(
                    StrategySpec::paper_default().with_window_layers(window),
                );
                let compiled = ctx(
                    OverlapPipeline::new(options).with_faults(spec.clone()).compile_cached(
                        &module,
                        &machine,
                        sweep.cache,
                    ),
                    "compile the windowed pipeline",
                )?;
                let windowed = TailSummary::from_samples(&ctx(
                    compiled.simulation(&machine).faults(Some(&spec)).tail(draws),
                    "simulate the windowed tail",
                )?);
                rows.push(
                    Json::obj()
                        .with("model", cfg.name.as_str())
                        .with("chips", cfg.chips as u64)
                        .with("severity", severity)
                        .with("window", window as u64)
                        .with("draws", windowed.draws as u64)
                        .with("baseline_p50", baseline.p50)
                        .with("baseline_p99", baseline.p99)
                        .with("p50", windowed.p50)
                        .with("p90", windowed.p90)
                        .with("p99", windowed.p99)
                        .with("win_p50", baseline.p50 / windowed.p50)
                        .with("win_p99", baseline.p99 / windowed.p99),
                );
            }
        }
    }
    Ok(Json::obj()
        .with("seed", SEED)
        .with("smoke", sweep.smoke)
        .with("depth", DEPTH as u64)
        .with("draws", draws as u64)
        .with("link_fraction", LINK_FRACTION)
        .with("jitter_seconds", JITTER_SECONDS)
        .with("stall_probability", STALL_PROBABILITY)
        .with("rows", Json::from(rows)))
}

pub(super) fn table(j: &Json) -> String {
    let lead = |r: &Json| vec![text(r, "model").to_string(), format!("{}", num(r, "severity"))];
    let window = |r: &Json| format!("window {}", r["window"]);
    let win = |r: &Json| format!("{:.3}×", num(r, "win_p99"));
    format!(
        "p99 win over the unscheduled arena order ({} draws per row; links at \
         1/severity bandwidth):\n\n{}",
        j["draws"],
        pivot(items(&j["rows"]), &["model", "severity"], lead, window, win),
    )
}
