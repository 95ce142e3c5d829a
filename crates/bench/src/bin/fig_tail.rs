//! Tail-latency sweep: cross-layer scheduling windows vs. stragglers.
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
//!
//! Knobs: `OVERLAP_FAULT_SEED` selects the spec seed (default 7);
//! `OVERLAP_TAIL_SMOKE=1` swaps Table 1 for one small 16-chip
//! configuration and fewer draws so CI can run the sweep in seconds.
//! Same seed, same mode => byte-identical stdout and
//! `results/fig_tail.json`.

use overlap_bench::{artifact_cache, report_cache, write_json};
use overlap_core::{OverlapOptions, OverlapPipeline, StrategySpec};
use overlap_json::{Json, ToJson};
use overlap_mesh::FaultSpec;
use overlap_models::{table1_models, Arch, ModelConfig, PartitionStrategy};
use overlap_sim::{Simulation, TailSummary};

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

struct Row {
    model: String,
    chips: usize,
    severity: f64,
    window: usize,
    baseline: TailSummary,
    windowed: TailSummary,
}

impl Row {
    /// p50 speedup of the windowed schedule over the arena order.
    fn win_p50(&self) -> f64 {
        self.baseline.p50 / self.windowed.p50
    }

    /// p99 speedup of the windowed schedule over the arena order.
    fn win_p99(&self) -> f64 {
        self.baseline.p99 / self.windowed.p99
    }
}

// Hand-written: a projection (flattened and computed members), not the
// struct's field list.
impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("model", self.model.as_str())
            .with("chips", self.chips as u64)
            .with("severity", self.severity)
            .with("window", self.window as u64)
            .with("draws", self.windowed.draws as u64)
            .with("baseline_p50", self.baseline.p50)
            .with("baseline_p99", self.baseline.p99)
            .with("p50", self.windowed.p50)
            .with("p90", self.windowed.p90)
            .with("p99", self.windowed.p99)
            .with("win_p50", self.win_p50())
            .with("win_p99", self.win_p99())
    }
}

fn smoke_config() -> ModelConfig {
    ModelConfig {
        name: "Smoke_16".into(),
        params: 1e9,
        layers: 4,
        model_dim: 2048,
        ff_dim: 8192,
        batch: 256,
        seq_len: 64,
        chips: 16,
        arch: Arch::Decoder,
        strategy: PartitionStrategy::TwoD,
    }
}

fn print_row(r: &Row) {
    println!(
        "  severity {:>4.2}  window {}  p50 {:>9.3}ms  p99 {:>9.3}ms  win p50 {:>5.2}x  win p99 {:>5.2}x",
        r.severity,
        r.window,
        r.windowed.p50 * 1e3,
        r.windowed.p99 * 1e3,
        r.win_p50(),
        r.win_p99(),
    );
}

fn main() {
    let seed: u64 = std::env::var("OVERLAP_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let smoke = std::env::var("OVERLAP_TAIL_SMOKE").is_ok_and(|v| v == "1");
    let models = if smoke { vec![smoke_config()] } else { table1_models() };
    let draws = if smoke { SMOKE_DRAWS } else { DRAWS };
    let cache = artifact_cache();

    println!("fig_tail: cross-layer windows vs. straggler tail latency (seed {seed}, {draws} draws)");
    let mut rows = Vec::new();
    for cfg in &models {
        println!("{} ({} chips, {DEPTH} stacked layers)", cfg.name, cfg.chips);
        let module = cfg.window_module(DEPTH);
        let machine = cfg.machine();
        for &severity in &SEVERITIES {
            let spec = FaultSpec::seeded(seed)
                .with_derated_link_fraction(machine.mesh(), LINK_FRACTION, 1.0 / severity)
                .with_jitter(JITTER_SECONDS)
                .with_dma_stalls(STALL_PROBABILITY, STALL_BACKOFF_SECONDS, STALL_RETRIES);
            let baseline = TailSummary::from_samples(&overlap_bench::or_exit(
                Simulation::new(&module, &machine).faults(Some(&spec)).tail(draws),
                "baseline tail simulation",
            ));
            for &window in &WINDOWS {
                let options = OverlapOptions::with_strategy(
                    StrategySpec::paper_default().with_window_layers(window),
                );
                let compiled = overlap_bench::or_exit(
                    OverlapPipeline::new(options)
                        .with_faults(spec.clone())
                        .compile_cached(&module, &machine, cache),
                    "windowed pipeline",
                );
                let samples = overlap_bench::or_exit(
                    compiled.simulation(&machine).faults(Some(&spec)).tail(draws),
                    "windowed tail simulation",
                );
                let row = Row {
                    model: cfg.name.clone(),
                    chips: cfg.chips,
                    severity,
                    window,
                    baseline,
                    windowed: TailSummary::from_samples(&samples),
                };
                print_row(&row);
                rows.push(row);
            }
        }
    }

    // Headline: does widening the window recover tail latency that the
    // straggler eroded? Compare each model's best-window p99 win to its
    // window=1 p99 win at the harshest severity.
    let severity = SEVERITIES[SEVERITIES.len() - 1];
    for cfg in &models {
        let at = |w: usize| {
            rows.iter()
                .find(|r| r.model == cfg.name && r.severity == severity && r.window == w)
                .map(Row::win_p99)
        };
        let Some(one) = at(1) else { continue };
        let best = WINDOWS.iter().filter_map(|&w| at(w)).fold(f64::MIN, f64::max);
        println!(
            "{}: p99 win at severity {severity}: window=1 {one:.3}x, best {best:.3}x ({})",
            cfg.name,
            if best > one { "windows recover tail latency" } else { "no recovery" }
        );
    }

    let record = Json::obj()
        .with("seed", seed)
        .with("smoke", smoke)
        .with("depth", DEPTH as u64)
        .with("draws", draws as u64)
        .with("link_fraction", LINK_FRACTION)
        .with("jitter_seconds", JITTER_SECONDS)
        .with("stall_probability", STALL_PROBABILITY)
        .with("rows", rows.to_json());
    // Smoke runs write beside the committed full-sweep artifact instead
    // of clobbering it (the smoke file is gitignored; CI diffs it across
    // two seeded runs to assert determinism).
    write_json(if smoke { "fig_tail_smoke" } else { "fig_tail" }, &record);
    report_cache(cache);
}
