//! Cost-model accuracy: §5.5's estimator vs. the simulator, plus the
//! quantized-wire error oracle.
//!
//! For each decomposable pattern in a layer, compare the gate's predicted
//! net saving (`comp_t + comm_t − max(comp_d, comm_t_ring) − extra_t`)
//! against the measured saving from decomposing **only that pattern**
//! (simulated makespan delta). The paper enables overlap "based on the
//! net benefits"; this tool quantifies how well that estimate tracks
//! reality in our machine model.
//!
//! The second section checks the precision axis: for every non-lossless
//! wire format, run a small proxy layer end-to-end through the numerics
//! interpreter — decomposed ring and kept (annotated) collective — and
//! report the measured relative error next to the documented
//! `predicted_rel_error` bound the error-budget gate trusts.
//!
//! The emitted JSON records the model name so a refresh with the wrong
//! model argument is visible in review, not just as drifting numbers
//! (that is exactly how the committed baseline silently became GPT_64B
//! for a few revisions).
//!
//! ```sh
//! cargo run --release -p overlap-bench --bin gate_accuracy [MODEL]
//! ```

use overlap_bench::{or_exit, write_json};
use overlap_core::{
    decompose, find_patterns, fuse, schedule_bottom_up, CostModel, FusionOptions, LoopPlan,
    PatternStrategy, StrategySpec,
};
use overlap_hlo::{
    Builder, DType, DotDims, Module, ModuleAnalysis, Op, ReplicaGroups, Shape, WireFormat,
};
use overlap_json::{json_record, Json, ToJson};
use overlap_models::{find_model, model_names};
use overlap_numerics::{run_spmd, Literal};
use overlap_sim::{CostTable, Simulation};

struct Row {
    einsum: String,
    predicted_saving_ms: f64,
    measured_saving_ms: f64,
}

json_record!(encode Row { einsum, predicted_saving_ms, measured_saving_ms });

/// One quantized-wire accuracy measurement on the proxy layer.
struct QuantRow {
    case: &'static str,
    wire: String,
    group: usize,
    /// `WireFormat::predicted_rel_error` for this case's encode count —
    /// the bound the pipeline's error-budget gate enforces.
    predicted_rel_error_bound: f64,
    measured_rel_error: f64,
}

// Hand-written: the committed figure spells the integer `group` as `4.0`.
impl ToJson for QuantRow {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("case", self.case)
            .with("wire", self.wire.as_str())
            .with("group", self.group as f64)
            .with("predicted_rel_error_bound", self.predicted_rel_error_bound)
            .with("measured_rel_error", self.measured_rel_error)
    }
}

fn f32s(dims: &[usize]) -> Shape {
    Shape::new(DType::F32, dims.to_vec())
}

/// AllGather(weight) → einsum proxy layer on `n` devices.
fn ag_proxy(n: usize) -> Module {
    let mut b = Builder::new("ag_proxy", n);
    let x = b.parameter(f32s(&[6, 8]), "x");
    let ws = b.parameter(f32s(&[8, 5]), "w");
    let w = b.all_gather(ws, 1, ReplicaGroups::full(n), "wg");
    let e = b.einsum(x, w, DotDims::matmul(), "e");
    b.build(vec![e])
}

/// einsum → ReduceScatter proxy layer on `n` devices.
fn rs_proxy(n: usize) -> Module {
    let mut b = Builder::new("rs_proxy", n);
    let x = b.parameter(f32s(&[3 * n, 8]), "x");
    let w = b.parameter(f32s(&[8, 6]), "w");
    let e = b.einsum(x, w, DotDims::matmul(), "e");
    let rs = b.reduce_scatter(e, 0, ReplicaGroups::full(n), "rs");
    b.build(vec![rs])
}

/// Deterministic per-device inputs in roughly [-2, 2).
fn inputs_for(module: &Module) -> Vec<Vec<Literal>> {
    let params = module.parameters();
    (0..module.num_partitions())
        .map(|d| {
            params
                .iter()
                .enumerate()
                .map(|(p, &id)| {
                    Literal::from_fn(module.shape_of(id).clone(), move |i| {
                        let x = (i as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add((d * 97 + p * 13 + 5) as u64);
                        ((x >> 40) % 512) as f64 / 128.0 - 2.0
                    })
                })
                .collect()
        })
        .collect()
}

/// Max relative error of `got` vs `want` across all outputs and devices,
/// normalised by the largest exact magnitude.
fn rel_error(want: &[Vec<Literal>], got: &[Vec<Literal>]) -> f64 {
    let mut diff: f64 = 0.0;
    let mut scale: f64 = 0.0;
    for (w_out, g_out) in want.iter().zip(got) {
        for (w, g) in w_out.iter().zip(g_out) {
            diff = diff.max(w.max_abs_diff(g));
            scale = w.data().iter().fold(scale, |s, v| s.max(v.abs()));
        }
    }
    if scale == 0.0 { 0.0 } else { diff / scale }
}

/// Annotate every kept collective in `module` with `wire`.
fn annotate(module: &Module, wire: WireFormat) -> Module {
    let mut out = module.clone();
    for id in module.ids() {
        if matches!(
            module.instr(id).op(),
            Op::AllGather { .. } | Op::ReduceScatter { .. } | Op::AllReduce { .. }
        ) {
            out.set_wire(id, wire).expect("collective carries a wire");
        }
    }
    out
}

/// Measured vs predicted error for one wire format on both proxy shapes,
/// in both the decomposed-ring and kept-collective forms.
fn quant_rows(wire: WireFormat) -> Vec<QuantRow> {
    let n = 4;
    let mut rows = Vec::new();
    for (case_ring, case_kept, module, ring_encodes, kept_encodes) in [
        ("ag_ring", "ag_kept", ag_proxy(n), 1, 1),
        ("rs_ring", "rs_kept", rs_proxy(n), n, n),
    ] {
        let inputs = inputs_for(&module);
        let want = run_spmd(&module, &inputs).expect("exact proxy");

        let knobs = PatternStrategy { wire, ..Default::default() };
        let plans: Vec<_> = find_patterns(&module, &ModuleAnalysis::of(&module))
            .iter()
            .map(|p| LoopPlan::new(&module, p, &knobs, knobs.ring))
            .collect();
        let (ring, _, _) = decompose(&module, &plans);
        let got = run_spmd(&ring, &inputs).expect("quantized ring");
        rows.push(QuantRow {
            case: case_ring,
            wire: wire.describe(),
            group: n,
            predicted_rel_error_bound: wire.predicted_rel_error(ring_encodes),
            measured_rel_error: rel_error(&want, &got),
        });

        let kept = annotate(&module, wire);
        let got = run_spmd(&kept, &inputs).expect("quantized kept collective");
        rows.push(QuantRow {
            case: case_kept,
            wire: wire.describe(),
            group: n,
            predicted_rel_error_bound: wire.predicted_rel_error(kept_encodes),
            measured_rel_error: rel_error(&want, &got),
        });
    }
    rows
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "GPT_256B".into());
    let Some(cfg) = find_model(&which) else {
        eprintln!("unknown model {which}; known names: {}", model_names().join(", "));
        std::process::exit(1);
    };
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let baseline = match Simulation::new(&module, &machine).run() {
        Ok(r) => r.makespan(),
        Err(e) => {
            eprintln!("cannot simulate the baseline of {}: {e}", cfg.name);
            std::process::exit(1);
        }
    };

    let cost_model = CostModel::new(&machine, &StrategySpec::paper_default());
    let patterns = find_patterns(&module, &ModuleAnalysis::of(&module));
    let table = or_exit(CostTable::new(&module, &machine), "cost the layer");
    let decisions = cost_model.select(&table, &module, &patterns, false);

    println!(
        "{}: gate prediction vs simulation, per pattern (baseline {:.3} ms)\n",
        cfg.name,
        baseline * 1e3
    );
    println!("{:<24} {:>14} {:>14} {:>8}", "einsum", "predicted", "measured", "ratio");
    let mut rows = Vec::new();
    for (d, plan) in &decisions {
        // Decompose only this pattern, on the plan the gate priced.
        let (out, _, analysis) = decompose(&module, std::slice::from_ref(plan));
        let fused = fuse(out, &analysis, &FusionOptions::default());
        let table = or_exit(CostTable::new(&fused, &machine), "cost the single-pattern rewrite");
        let order = schedule_bottom_up(&table, &analysis, &fused, &machine, None);
        let measured = match Simulation::new(&fused, &machine).order(&order).run() {
            Ok(r) => baseline - r.makespan(),
            Err(e) => {
                eprintln!("cannot simulate the single-pattern rewrite: {e}");
                std::process::exit(1);
            }
        };
        let row = Row {
            einsum: module.instr(d.pattern.einsum).name().to_string(),
            predicted_saving_ms: d.net_benefit() * 1e3,
            measured_saving_ms: measured * 1e3,
        };
        let ratio = if row.predicted_saving_ms.abs() > 1e-9 {
            row.measured_saving_ms / row.predicted_saving_ms
        } else {
            f64::NAN
        };
        println!(
            "{:<24} {:>11.3} ms {:>11.3} ms {:>8.2}",
            row.einsum, row.predicted_saving_ms, row.measured_saving_ms, ratio
        );
        rows.push(row);
    }
    let (pred, meas): (f64, f64) = rows
        .iter()
        .fold((0.0, 0.0), |(p, m), r| (p + r.predicted_saving_ms, m + r.measured_saving_ms));
    println!("\ntotal predicted {pred:.3} ms, total measured {meas:.3} ms");

    println!("\nquantized-wire error oracle (proxy layer, {} devices)\n", 4);
    println!(
        "{:<10} {:>8} {:>22} {:>22}",
        "case", "wire", "predicted bound", "measured rel error"
    );
    let mut quant = Vec::new();
    for wire in [WireFormat::Bf16, WireFormat::int8()] {
        for row in quant_rows(wire) {
            println!(
                "{:<10} {:>8} {:>22.3e} {:>22.3e}",
                row.case, row.wire, row.predicted_rel_error_bound, row.measured_rel_error
            );
            if row.measured_rel_error > row.predicted_rel_error_bound {
                eprintln!(
                    "error oracle violated: {} over {} exceeds its documented bound",
                    row.case, row.wire
                );
                std::process::exit(1);
            }
            quant.push(row);
        }
    }

    let report = Json::obj()
        .with("model", cfg.name)
        .with("rows", rows.to_json())
        .with("quant", quant.to_json());
    write_json("gate_accuracy", &report);
}
