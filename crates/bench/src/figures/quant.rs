//! Precision-axis sweep (`fig_quant`): quantized collectives vs
//! decomposition vs both.
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

use overlap_core::{OverlapOptions, StrategySpec};
use overlap_hlo::{Module, Op, WireFormat};
use overlap_json::Json;
use overlap_mesh::FaultSpec;
use overlap_models::table1_models;

use super::{items, num, pivot, speedup_cell, text, FigureResult, SweepConfig};
use crate::{run_fault_comparison, smoke_config, SEED};

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

pub(super) fn run(sweep: &SweepConfig<'_>) -> FigureResult {
    let models = if sweep.smoke { vec![smoke_config()] } else { table1_models() };
    let wires = [WireFormat::Lossless, WireFormat::Bf16, WireFormat::int8()];
    let mut rows = Vec::new();
    // A "quant win": on a damaged machine, some quantized compile beats
    // both the synchronous baseline and the lossless overlap compile of
    // the same model, while staying inside the error budget.
    let mut damaged_quant_wins = 0u64;
    for cfg in &models {
        let module = cfg.layer_module();
        let mesh = cfg.machine().mesh().clone();
        let healthy = FaultSpec::seeded(SEED);
        let damaged = FaultSpec::seeded(SEED)
            .with_derated_link_fraction(&mesh, DAMAGED_FRACTION, DAMAGED_DERATE)
            .with_jitter(DAMAGED_JITTER_SECONDS);
        for (machine, spec) in [("healthy", &healthy), ("damaged", &damaged)] {
            let mut lossless = f64::NAN;
            for wire in wires {
                let budget = if wire.is_lossless() { 0.0 } else { ERROR_BUDGET };
                let cmp = run_fault_comparison(cfg, options_for(wire), spec, sweep.cache);
                let speedup = cmp.speedup();
                if wire.is_lossless() {
                    lossless = speedup;
                } else if machine == "damaged" && speedup > 1.0 && speedup > lossless {
                    damaged_quant_wins += 1;
                }
                rows.push(
                    Json::obj()
                        .with("machine", machine)
                        .with("wire", wire.describe())
                        .with("model", cmp.baseline.model.as_str())
                        .with("chips", cmp.baseline.chips as u64)
                        .with("baseline_step", cmp.baseline.step_time)
                        .with("overlapped_step", cmp.overlapped.step_time)
                        .with("speedup", speedup)
                        .with("decomposed", cmp.decomposed as u64)
                        .with("fallbacks", cmp.fallbacks as u64)
                        .with(
                            "predicted_rel_error_bound",
                            predicted_error_bound(&module, wire, budget),
                        ),
                );
            }
        }
    }
    Ok(Json::obj()
        .with("seed", SEED)
        .with("smoke", sweep.smoke)
        .with("damaged_fraction", DAMAGED_FRACTION)
        .with("damaged_derate", DAMAGED_DERATE)
        .with("damaged_jitter_seconds", DAMAGED_JITTER_SECONDS)
        .with("error_budget", ERROR_BUDGET)
        .with("damaged_quant_wins", damaged_quant_wins)
        .with("rows", Json::from(rows)))
}

pub(super) fn table(j: &Json) -> String {
    let lead = |r: &Json| vec![text(r, "model").to_string(), text(r, "machine").to_string()];
    let wire = |r: &Json| text(r, "wire").to_string();
    format!(
        "Speedup over the lossless synchronous baseline (collectives forced back to \
         lossless by the {} error budget):\n\n{}\n{} damaged-link quantized compiles beat \
         the lossless overlap.\n",
        num(j, "error_budget"),
        pivot(items(&j["rows"]), &["model", "machine"], lead, wire, speedup_cell),
        j["damaged_quant_wins"],
    )
}
