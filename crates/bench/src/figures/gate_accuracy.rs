//! Cost-model accuracy (`gate_accuracy`): §5.5's estimator vs. the
//! simulator, plus the quantized-wire error oracle.
//!
//! For each decomposable pattern in the GPT_256B layer, compare the
//! gate's predicted net saving (`comp_t + comm_t − max(comp_d,
//! comm_t_ring) − extra_t`) against the measured saving from decomposing
//! **only that pattern** (simulated makespan delta). The paper enables
//! overlap "based on the net benefits"; this figure quantifies how well
//! that estimate tracks reality in our machine model.
//!
//! The second section checks the precision axis: for every non-lossless
//! wire format, run a small proxy layer end-to-end through the numerics
//! interpreter — decomposed ring and kept (annotated) collective — and
//! record the measured relative error next to the documented
//! `predicted_rel_error` bound the error-budget gate trusts. A
//! measurement above its bound fails the figure.
//!
//! The JSON records the model name, so a record regenerated from another
//! model is visible in review, not just as drifting numbers.

use overlap_core::{
    decompose, find_patterns, fuse, schedule_bottom_up, CostModel, FusionOptions, LoopPlan,
    PatternStrategy, StrategySpec,
};
use overlap_hlo::{
    Builder, DType, DotDims, Module, ModuleAnalysis, Op, ReplicaGroups, Shape, WireFormat,
};
use overlap_json::Json;
use overlap_models::find_model;
use overlap_numerics::{run_spmd, Literal};
use overlap_sim::{CostTable, Simulation};

use super::{ctx, items, md_table, num, text, FigureResult, SweepConfig};

/// The layer whose patterns the estimator is checked on.
const MODEL: &str = "GPT_256B";

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
    if scale == 0.0 {
        0.0
    } else {
        diff / scale
    }
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
/// in both the decomposed-ring and kept-collective forms. The predicted
/// bound is `WireFormat::predicted_rel_error` for the case's encode
/// count, the bound the pipeline's error-budget gate enforces; a
/// measurement above it is an error.
fn quant_rows(wire: WireFormat) -> Result<Vec<Json>, String> {
    let n = 4;
    let mut rows = Vec::new();
    for (case, module, encodes) in [("ag", ag_proxy(n), 1), ("rs", rs_proxy(n), n)] {
        let inputs = inputs_for(&module);
        let want = run_spmd(&module, &inputs).expect("exact proxy");
        let knobs = PatternStrategy { wire, ..Default::default() };
        let plans: Vec<_> = find_patterns(&module, &ModuleAnalysis::of(&module))
            .iter()
            .map(|p| LoopPlan::new(&module, p, &knobs, knobs.ring))
            .collect();
        let (ring, _, _) = decompose(&module, &plans);
        let kept = annotate(&module, wire);
        for (form, rewritten) in [("ring", ring), ("kept", kept)] {
            let got = run_spmd(&rewritten, &inputs).expect("quantized proxy");
            let (bound, measured) = (wire.predicted_rel_error(encodes), rel_error(&want, &got));
            if measured > bound {
                return Err(format!(
                    "error oracle violated: {case}_{form} over {} measured {measured:e}, above \
                     its documented bound {bound:e}",
                    wire.describe()
                ));
            }
            rows.push(
                Json::obj()
                    .with("case", format!("{case}_{form}"))
                    .with("wire", wire.describe())
                    // The committed figure spells the integer group as `4.0`.
                    .with("group", n as f64)
                    .with("predicted_rel_error_bound", bound)
                    .with("measured_rel_error", measured),
            );
        }
    }
    Ok(rows)
}

pub(super) fn run(_: &SweepConfig<'_>) -> FigureResult {
    let cfg = find_model(MODEL).ok_or("GPT_256B missing from the model zoo")?;
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let baseline = ctx(Simulation::new(&module, &machine).run(), "simulate the baseline")?;

    let cost_model = CostModel::new(&machine, &StrategySpec::paper_default());
    let patterns = find_patterns(&module, &ModuleAnalysis::of(&module));
    let table = ctx(CostTable::new(&module, &machine), "cost the layer")?;
    let decisions = cost_model.select(&table, &module, &patterns, false);
    let mut rows = Vec::new();
    for (d, plan) in &decisions {
        // Decompose only this pattern, on the plan the gate priced.
        let (out, _, analysis) = decompose(&module, std::slice::from_ref(plan));
        let fused = fuse(out, &analysis, &FusionOptions::default());
        let table = ctx(CostTable::new(&fused, &machine), "cost the single-pattern rewrite")?;
        let order = schedule_bottom_up(&table, &analysis, &fused, &machine, None);
        let rewritten = ctx(
            Simulation::new(&fused, &machine).order(&order).run(),
            "simulate the single-pattern rewrite",
        )?;
        rows.push(
            Json::obj()
                .with("einsum", module.instr(d.pattern.einsum).name())
                .with("predicted_saving_ms", d.net_benefit() * 1e3)
                .with("measured_saving_ms", (baseline.makespan() - rewritten.makespan()) * 1e3),
        );
    }

    let mut quant = quant_rows(WireFormat::Bf16)?;
    quant.extend(quant_rows(WireFormat::int8())?);

    Ok(Json::obj()
        .with("model", cfg.name)
        .with("rows", Json::from(rows))
        .with("quant", Json::from(quant)))
}

pub(super) fn table(j: &Json) -> String {
    let rows = items(&j["rows"]);
    let patterns = md_table(
        &["einsum", "predicted saving", "measured saving", "measured / predicted"],
        rows.iter().map(|r| {
            let (pred, meas) = (num(r, "predicted_saving_ms"), num(r, "measured_saving_ms"));
            vec![
                text(r, "einsum").to_string(),
                format!("{pred:.3} ms"),
                format!("{meas:.3} ms"),
                format!("{:.2}", meas / pred),
            ]
        }),
    );
    let total = |key| rows.iter().map(|r| num(r, key)).sum::<f64>();
    let (pred, meas) = (total("predicted_saving_ms"), total("measured_saving_ms"));
    let oracle = md_table(
        &["case", "wire", "predicted bound", "measured rel error"],
        items(&j["quant"]).iter().map(|r| {
            vec![
                text(r, "case").to_string(),
                text(r, "wire").to_string(),
                format!("{:.3e}", num(r, "predicted_rel_error_bound")),
                format!("{:.3e}", num(r, "measured_rel_error")),
            ]
        }),
    );
    format!(
        "{} layer, §5.5 gate prediction vs simulation per pattern:\n\n{patterns}\n\
         total predicted {pred:.1} ms, measured {meas:.1} ms ({:.0}%).\n\n\
         Quantized-wire error oracle (proxy layers, 4 devices):\n\n{oracle}",
        text(j, "model"),
        100.0 * meas / pred,
    )
}
