//! Precision-axis sweep: quantized collectives vs decomposition vs both.
//!
//! For each Table-1 configuration, compile the layer three times — with a
//! lossless wire (the paper's strategy), a bf16 wire, and a blockwise
//! int8 wire — on a healthy machine and on a damaged one (half the torus
//! links derated, slight per-hop jitter), and compare every compile
//! against the shared lossless synchronous baseline under the same fault
//! spec. The §5.5 gate prices each wire on both of its sides (quantized
//! kept collective vs quantized decomposed ring), so the sweep shows
//! where each axis — decompose, quantize, or both — pays off: bandwidth
//! loss hurts bytes, and a narrower wire buys back exactly bytes.
//!
//! Every quantized compile runs under a hard error budget
//! ([`OverlapOptions::error_budget`]): a collective whose predicted
//! relative error ([`WireFormat::predicted_rel_error`]) exceeds the
//! budget is forced back to lossless and recorded as a fallback, so the
//! reported speedups are only ever bought at a bounded, documented
//! numerics cost.
//!
//! Knobs: `OVERLAP_QUANT_SEED` selects the fault-spec seed (default 7);
//! `OVERLAP_QUANT_SMOKE=1` swaps Table 1 for one small 16-chip
//! configuration so CI can run the sweep in seconds. Same seed, same
//! mode => byte-identical stdout and `results/fig_quant.json`.

use overlap_bench::{
    artifact_cache, report_cache, run_fault_comparison, write_json, FaultedComparison,
};
use overlap_core::{OverlapOptions, StrategySpec};
use overlap_hlo::{Module, Op, WireFormat};
use overlap_json::{Json, ToJson};
use overlap_mesh::FaultSpec;
use overlap_models::{table1_models, Arch, ModelConfig, PartitionStrategy};

/// Fraction of torus links running degraded in the damaged configuration.
const DAMAGED_FRACTION: f64 = 0.5;

/// Bandwidth multiplier applied to each degraded link.
const DAMAGED_DERATE: f64 = 0.5;

/// Per-hop latency jitter on the damaged machine.
const DAMAGED_JITTER_SECONDS: f64 = 1e-5;

/// Hard numerics budget: maximum predicted relative error per collective.
/// Generous enough to keep every AllGather (one quantization event) and
/// the small-group ReduceScatters quantized, tight enough that wide-group
/// int8/bf16 reductions fall back to lossless with a recorded reason.
const ERROR_BUDGET: f64 = 5e-2;

struct Row {
    machine: &'static str,
    wire: String,
    /// Max post-budget predicted relative error across the collectives
    /// that stay quantized (0 when everything runs lossless).
    predicted_rel_error_bound: f64,
    cmp: FaultedComparison,
}

// Hand-written: a projection (flattened and computed members), not the
// struct's field list.
impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("machine", self.machine)
            .with("wire", self.wire.as_str())
            .with("model", self.cmp.baseline.model.as_str())
            .with("chips", self.cmp.baseline.chips as u64)
            .with("baseline_step", self.cmp.baseline.step_time)
            .with("overlapped_step", self.cmp.overlapped.step_time)
            .with("speedup", self.cmp.speedup())
            .with("decomposed", self.cmp.decomposed as u64)
            .with("fallbacks", self.cmp.fallbacks as u64)
            .with("predicted_rel_error_bound", self.predicted_rel_error_bound)
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

/// Worst predicted relative error any collective in `module` would carry
/// on `wire` after the budget gate: AllGathers quantize once, reductions
/// once per contributing rank; predictions over the budget fall back to
/// lossless and so contribute zero. Mirrors the pipeline's budget rule.
fn predicted_error_bound(module: &Module, wire: WireFormat, budget: f64) -> f64 {
    let mut worst: f64 = 0.0;
    for id in module.ids() {
        let encodes = match module.instr(id).op() {
            Op::AllGather { .. } => 1,
            Op::ReduceScatter { groups, .. } | Op::AllReduce { groups, .. } => groups.group_size(),
            _ => continue,
        };
        let predicted = wire.predicted_rel_error(encodes);
        if predicted <= budget {
            worst = worst.max(predicted);
        }
    }
    worst
}

fn options_for(wire: WireFormat) -> OverlapOptions {
    if wire.is_lossless() {
        // Exactly the paper's configuration — no budget knob, so the
        // compile artifacts stay bit-identical to every other figure.
        OverlapOptions::paper_default()
    } else {
        OverlapOptions {
            error_budget: Some(ERROR_BUDGET),
            ..OverlapOptions::with_strategy(StrategySpec::paper_default().with_wire(wire))
        }
    }
}

fn print_row(r: &Row) {
    println!(
        "  {:<8} {:<8}  base {:>9.3}ms  over {:>9.3}ms  {:>5.2}x  decomposed={} fallbacks={} err<={:.2e}",
        r.machine,
        r.wire,
        r.cmp.baseline.step_time * 1e3,
        r.cmp.overlapped.step_time * 1e3,
        r.cmp.speedup(),
        r.cmp.decomposed,
        r.cmp.fallbacks,
        r.predicted_rel_error_bound,
    );
}

fn main() {
    let seed: u64 = std::env::var("OVERLAP_QUANT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let smoke = std::env::var("OVERLAP_QUANT_SMOKE").is_ok_and(|v| v == "1");
    let models = if smoke { vec![smoke_config()] } else { table1_models() };
    let cache = artifact_cache();
    let wires = [WireFormat::Lossless, WireFormat::Bf16, WireFormat::int8()];

    println!("fig_quant: precision-annotated collectives vs decomposition (seed {seed})");
    let mut rows = Vec::new();
    for cfg in &models {
        println!("{} ({} chips)", cfg.name, cfg.chips);
        let module = cfg.layer_module();
        let mesh = cfg.machine().mesh().clone();
        let healthy = FaultSpec::seeded(seed);
        let damaged = FaultSpec::seeded(seed)
            .with_derated_link_fraction(&mesh, DAMAGED_FRACTION, DAMAGED_DERATE)
            .with_jitter(DAMAGED_JITTER_SECONDS);
        for (machine, spec) in [("healthy", &healthy), ("damaged", &damaged)] {
            for wire in wires {
                let budget = if wire.is_lossless() { 0.0 } else { ERROR_BUDGET };
                let row = Row {
                    machine,
                    wire: wire.describe(),
                    predicted_rel_error_bound: predicted_error_bound(&module, wire, budget),
                    cmp: run_fault_comparison(cfg, options_for(wire), spec, cache),
                };
                print_row(&row);
                rows.push(row);
            }
        }
    }

    // A "quant win": on a damaged machine, some quantized compile beats
    // both the synchronous baseline and the lossless overlap compile of
    // the same model, while staying inside the error budget.
    let mut damaged_quant_wins = 0usize;
    for cfg in &models {
        let of = |wire: &str| {
            rows.iter().find(|r| {
                r.machine == "damaged" && r.cmp.baseline.model == cfg.name && r.wire == wire
            })
        };
        let Some(lossless) = of("lossless") else { continue };
        for wire in ["bf16", "int8x64"] {
            if let Some(q) = of(wire) {
                if q.cmp.speedup() > 1.0 && q.cmp.speedup() > lossless.cmp.speedup() {
                    damaged_quant_wins += 1;
                }
            }
        }
    }
    println!(
        "crossover: {damaged_quant_wins} damaged-link quantized compiles beat the lossless overlap"
    );

    let record = Json::obj()
        .with("seed", seed)
        .with("smoke", smoke)
        .with("damaged_fraction", DAMAGED_FRACTION)
        .with("damaged_derate", DAMAGED_DERATE)
        .with("damaged_jitter_seconds", DAMAGED_JITTER_SECONDS)
        .with("error_budget", ERROR_BUDGET)
        .with("damaged_quant_wins", damaged_quant_wins as u64)
        .with("rows", rows.to_json());
    // Smoke runs write beside the committed full-sweep artifact instead
    // of clobbering it (the smoke file is gitignored; CI diffs it across
    // two seeded runs to assert determinism).
    write_json(if smoke { "fig_quant_smoke" } else { "fig_quant" }, &record);
    report_cache(cache);
}
