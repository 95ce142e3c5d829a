//! The paper's own figures and tables: Figs. 1 and 11–16, the §6.4
//! energy table, the §7.1 inference study and the §7.2 interconnect
//! sensitivity sweep.

use overlap_core::{
    fuse, schedule_bottom_up, FusionOptions, OverlapOptions, OverlapPipeline, RingDirection,
    SchedulerKind, StrategySpec,
};
use overlap_hlo::{Builder, DType, DotDims, Module, ModuleAnalysis, ReplicaGroups, Shape};
use overlap_json::{Json, ToJson};
use overlap_mesh::{DeviceMesh, Machine};
use overlap_models::{find_model, table1_models, table2_models};
use overlap_sim::{CostTable, Simulation};

use super::{ctx, items, md_table, num, text, FigureResult, SweepConfig};
use crate::{run_baseline, run_baselines, run_comparison, run_comparisons, run_overlapped};

/// Figure 1: training step-time breakdown (computation vs
/// communication) of the Table-1 models under the baseline (no overlap).
pub(super) fn fig1(_: &SweepConfig<'_>) -> FigureResult {
    Ok(run_baselines(&table1_models()).to_json())
}

pub(super) fn fig1_table(j: &Json) -> String {
    rows_table(j, &["model", "chips", "compute %", "communication %"], |r| {
        vec![
            text(r, "model").into(),
            r["chips"].to_string(),
            format!("{:.1}", 100.0 * num(r, "compute_fraction")),
            format!("{:.1}", 100.0 * num(r, "comm_fraction")),
        ]
    })
}

/// The Fig. 11 graph at a given matmul width: an `Add` accumulating two
/// einsums, one of which consumes an asynchronous
/// `CollectivePermuteDone`.
fn fig11_module(dim: usize) -> Module {
    let n = 2;
    let mut b = Builder::new("fig11", n);
    let a = b.parameter(Shape::new(DType::BF16, vec![dim, dim]), "a");
    let w0 = b.parameter(Shape::new(DType::BF16, vec![dim, dim]), "w0");
    let w1 = b.parameter(Shape::new(DType::BF16, vec![dim, dim]), "w1");
    let e0 = b.einsum(a, w0, DotDims::matmul(), "einsum0");
    let s = b.collective_permute_start(a, vec![(0, 1), (1, 0)], "cp_start");
    let d = b.collective_permute_done(s, "cp_done");
    let e1 = b.einsum(d, w1, DotDims::matmul(), "einsum1");
    let add = b.add(e0, e1, "accumulate");
    b.build(vec![add])
}

/// Figure 11: fusion decisions and overlap. The default fusion heuristic
/// fuses the `Add` with the *first* producer (the independent einsum),
/// serializing `done → Fusion_1 → Fusion_0`; the §5.4.3 overlap-aware
/// heuristic fuses it with the done-dependent einsum so the independent
/// one runs concurrently with the transfer.
pub(super) fn fig11(_: &SweepConfig<'_>) -> FigureResult {
    let machine = Machine::with_mesh(DeviceMesh::ring(2));
    let mut rows = Vec::new();
    for dim in [2048usize, 4096, 8192] {
        let module = fig11_module(dim);
        let mut analysis = ModuleAnalysis::of(&module);
        ctx(module.verify_incremental(&mut analysis), "verify the Fig. 11 graph")?;
        let time_with = |aware: bool| {
            let fused = fuse(module.clone(), &analysis, &FusionOptions { overlap_aware: aware });
            let table = ctx(CostTable::new(&fused, &machine), "cost the fused graph")?;
            let order = schedule_bottom_up(&table, &analysis, &fused, &machine, None);
            let sim = Simulation::new(&fused, &machine).order(&order);
            Ok::<_, String>(ctx(sim.run(), "simulate the fused graph")?.makespan())
        };
        let bad = time_with(false)?;
        let good = time_with(true)?;
        rows.push(
            Json::obj()
                .with("dim", dim)
                .with("default_fusion_ms", bad * 1e3)
                .with("overlap_aware_ms", good * 1e3)
                .with("improvement", bad / good),
        );
    }
    Ok(Json::from(rows))
}

pub(super) fn fig11_table(j: &Json) -> String {
    rows_table(j, &["width", "default fusion", "overlap-aware", "gain"], |r| {
        vec![
            r["dim"].to_string(),
            format!("{:.3} ms", num(r, "default_fusion_ms")),
            format!("{:.3} ms", num(r, "overlap_aware_ms")),
            format!("{:.2}×", num(r, "improvement")),
        ]
    })
}

/// Figure 12: normalized FLOPS utilization of the six Table-1 models,
/// baseline vs. overlapped.
pub(super) fn fig12(sweep: &SweepConfig<'_>) -> FigureResult {
    Ok(run_comparisons(&table1_models(), sweep.cache).to_json())
}

/// Baseline / overlapped step time of a `Comparison` record.
fn speedup(r: &Json) -> f64 {
    num(&r["baseline"], "step_time") / num(&r["overlapped"], "step_time")
}

/// Smallest and largest `speedup` over a comparison sweep.
fn speedup_range(j: &Json) -> (f64, f64) {
    items(j).iter().map(speedup).fold((f64::MAX, f64::MIN), |(lo, hi), s| (lo.min(s), hi.max(s)))
}

pub(super) fn fig12_table(j: &Json) -> String {
    let mut out = rows_table(j, &["model", "baseline util", "overlapped util", "speedup"], |r| {
        vec![
            text(&r["baseline"], "model").into(),
            format!("{:.1}%", 100.0 * num(&r["baseline"], "flops_utilization")),
            format!("{:.1}%", 100.0 * num(&r["overlapped"], "flops_utilization")),
            format!("{:.2}×", speedup(r)),
        ]
    });
    let rows = items(j);
    let avg = rows.iter().map(speedup).sum::<f64>() / rows.len() as f64;
    let (lo, hi) = speedup_range(j);
    out.push_str(&format!("\naverage speedup **{avg:.2}×**, range **{lo:.2}–{hi:.2}×**.\n"));
    out
}

/// Figure 13: weak-scaling study — the GPT family of Table 2 (32B … 1T
/// parameters on 64 … 2048 chips), baseline vs. overlapped.
pub(super) fn fig13(sweep: &SweepConfig<'_>) -> FigureResult {
    Ok(run_comparisons(&table2_models(), sweep.cache).to_json())
}

pub(super) fn fig13_table(j: &Json) -> String {
    let mut out = rows_table(j, &["model", "chips", "baseline", "overlapped", "speedup"], |r| {
        vec![
            text(&r["baseline"], "model").into(),
            r["baseline"]["chips"].to_string(),
            format!("{:.1}%", 100.0 * num(&r["baseline"], "flops_utilization")),
            format!("{:.1}%", 100.0 * num(&r["overlapped"], "flops_utilization")),
            format!("{:.2}×", speedup(r)),
        ]
    });
    let (lo, hi) = speedup_range(j);
    out.push_str(&format!("\nspeedup range **{lo:.2}–{hi:.2}×**.\n"));
    out
}

/// A GPT-family ablation: for each Table-2 model, the step time under
/// `variant` and under the paper default, both normalized to the
/// baseline, recorded as `{model, <variant_key>, <default_key>}`.
fn ablation(
    sweep: &SweepConfig<'_>,
    variant: OverlapOptions,
    variant_key: &str,
    default_key: &str,
) -> FigureResult {
    let rows: Vec<Json> = table2_models()
        .iter()
        .map(|cfg| {
            let base = run_baseline(cfg, None).step_time;
            let normalized = |o| run_overlapped(cfg, o, None, sweep.cache).step_time / base;
            Json::obj()
                .with("model", cfg.name.as_str())
                .with(variant_key, normalized(variant))
                .with(default_key, normalized(OverlapOptions::paper_default()))
        })
        .collect();
    Ok(Json::from(rows))
}

/// An ablation table: both normalized step times and the default's gain.
fn ablation_table(j: &Json, header: [&str; 4], variant_key: &str, default_key: &str) -> String {
    rows_table(j, &header, |r| {
        let (v, d) = (num(r, variant_key), num(r, default_key));
        vec![
            text(r, "model").into(),
            format!("{v:.3}"),
            format!("{d:.3}"),
            format!("{:.1}%", 100.0 * (v - d) / v),
        ]
    })
}

/// Figure 14: loop unrolling (§5.4.1) on the weakly scaled GPT family —
/// per-step time normalized to the baseline, without and with unrolling.
pub(super) fn fig14(sweep: &SweepConfig<'_>) -> FigureResult {
    let no_unroll = OverlapOptions::with_strategy(StrategySpec::paper_default().with_unroll(false));
    ablation(sweep, no_unroll, "normalized_no_unroll", "normalized_unrolled")
}

pub(super) fn fig14_table(j: &Json) -> String {
    let header = ["model", "no-unroll", "unrolled", "gain"];
    ablation_table(j, header, "normalized_no_unroll", "normalized_unrolled")
}

/// Figure 15: bidirectional data transfer (§5.4.2) on the weakly scaled
/// GPT family. Paper: GPT_32B and GPT_128B see <5% improvement; larger
/// models benefit more.
pub(super) fn fig15(sweep: &SweepConfig<'_>) -> FigureResult {
    let uni = OverlapOptions::with_strategy(
        StrategySpec::paper_default().with_ring(RingDirection::Unidirectional),
    );
    ablation(sweep, uni, "normalized_unidirectional", "normalized_bidirectional")
}

pub(super) fn fig15_table(j: &Json) -> String {
    let header = ["model", "unidirectional", "bidirectional", "gain"];
    ablation_table(j, header, "normalized_unidirectional", "normalized_bidirectional")
}

/// Figure 16: the two §5.2 scheduling approaches on the weakly scaled GPT
/// family, per-step seconds. Paper: bottom-up is ~5% faster on average.
pub(super) fn fig16(sweep: &SweepConfig<'_>) -> FigureResult {
    let top_down =
        OverlapOptions { scheduler: SchedulerKind::TopDown, ..OverlapOptions::paper_default() };
    let rows: Vec<Json> = table2_models()
        .iter()
        .map(|cfg| {
            let td = run_overlapped(cfg, top_down, None, sweep.cache).step_time;
            let bu =
                run_overlapped(cfg, OverlapOptions::paper_default(), None, sweep.cache).step_time;
            Json::obj()
                .with("model", cfg.name.as_str())
                .with("top_down", td)
                .with("bottom_up", bu)
                .with("bottom_up_speedup", td / bu)
        })
        .collect();
    Ok(Json::from(rows))
}

pub(super) fn fig16_table(j: &Json) -> String {
    let header = ["model", "top-down", "bottom-up", "bottom-up advantage"];
    let mut out = rows_table(j, &header, |r| {
        vec![
            text(r, "model").into(),
            format!("{:.2}", num(r, "top_down")),
            format!("{:.2}", num(r, "bottom_up")),
            format!("+{:.0}%", 100.0 * (num(r, "bottom_up_speedup") - 1.0)),
        ]
    });
    let rows = items(j);
    let avg = rows.iter().map(|r| num(r, "bottom_up_speedup")).sum::<f64>() / rows.len() as f64;
    out.push_str(&format!("\nbottom-up average advantage **+{:.1}%**.\n", 100.0 * (avg - 1.0)));
    out
}

/// §7.2 sensitivity: scales GPT_256B's per-link bandwidth from generous
/// to starved and records the baseline communication share, how many
/// patterns the §5.5 gate still accepts, and the resulting speedup. The
/// benefit peaks where communication is large but still hideable.
pub(super) fn sensitivity(sweep: &SweepConfig<'_>) -> FigureResult {
    let cfg = find_model("GPT_256B").ok_or("GPT_256B missing from the model zoo")?;
    let module = cfg.layer_module();
    let points = [180.0, 90.0, 45.0, 22.5, 11.25, 5.6];
    let rows = crate::par_map(&points, |&gbps| {
        let machine = cfg.machine().with_link_bandwidth(gbps * 1e9);
        let baseline = ctx(Simulation::new(&module, &machine).run(), "simulate the baseline")?;
        // Each bandwidth point is a distinct machine fingerprint (a cold
        // compile), but re-runs of the sweep hit the disk tier.
        let compiled = ctx(
            OverlapPipeline::new(OverlapOptions::paper_default()).compile_cached(
                &module,
                &machine,
                sweep.cache,
            ),
            "compile the sweep point",
        )?;
        let over = ctx(compiled.simulation(&machine).run(), "simulate the overlapped schedule")?;
        Ok(Json::obj()
            .with("bandwidth_gbps", gbps)
            .with("baseline_comm_fraction", baseline.comm_fraction())
            .with("patterns_decomposed", compiled.summaries.len())
            .with("speedup", baseline.makespan() / over.makespan()))
    });
    Ok(Json::from(rows.into_iter().collect::<Result<Vec<_>, String>>()?))
}

pub(super) fn sensitivity_table(j: &Json) -> String {
    rows_table(j, &["GB/s/link", "baseline comm %", "decomposed", "speedup"], |r| {
        vec![
            num(r, "bandwidth_gbps").to_string(),
            format!("{:.1}", 100.0 * num(r, "baseline_comm_fraction")),
            r["patterns_decomposed"].to_string(),
            format!("{:.2}×", num(r, "speedup")),
        ]
    })
}

/// §6.4: energy-consumption reduction. Under the paper's constant-power
/// methodology it equals each Table-1 model's step-time speedup.
pub(super) fn table_energy(sweep: &SweepConfig<'_>) -> FigureResult {
    let rows: Vec<Json> = table1_models()
        .iter()
        .map(|cfg| {
            Json::obj()
                .with("model", cfg.name.as_str())
                .with("energy_reduction", run_comparison(cfg, sweep.cache).speedup())
        })
        .collect();
    Ok(Json::from(rows))
}

pub(super) fn table_energy_table(j: &Json) -> String {
    rows_table(j, &["model", "energy reduction"], |r| {
        vec![text(r, "model").into(), format!("{:.2}×", num(r, "energy_reduction"))]
    })
}

/// A recommendation-style MLP tower: small batch (one request slice),
/// wide layers, weights `n`-way sharded and gathered per layer.
fn recommendation_tower(n: usize, batch: usize, width: usize, layers: usize) -> Module {
    let mut b = Builder::new("recommendation_inference", n);
    let mut x = b.parameter(Shape::new(DType::BF16, vec![batch, width]), "requests");
    for l in 0..layers {
        let w = b.parameter(Shape::new(DType::BF16, vec![width, width / n]), &format!("w{l}"));
        let wg = b.all_gather(w, 1, ReplicaGroups::full(n), &format!("w{l}_full"));
        x = b.einsum(x, wg, DotDims::matmul(), &format!("layer{l}"));
    }
    b.build(vec![x])
}

/// §7.1: inference latency of a 2-way partitioned recommendation tower —
/// a latency-bound layer whose collective time is comparable to its
/// einsum time, the regime where the paper reports ~2x.
pub(super) fn inference(sweep: &SweepConfig<'_>) -> FigureResult {
    let n = 2;
    let machine = Machine::with_mesh(DeviceMesh::ring(n));
    let module = recommendation_tower(n, 1376, 8192, 8);
    let baseline = ctx(Simulation::new(&module, &machine).run(), "simulate the baseline")?;
    let compiled = ctx(
        OverlapPipeline::new(OverlapOptions::paper_default()).compile_cached(
            &module,
            &machine,
            sweep.cache,
        ),
        "compile the inference tower",
    )?;
    let overlapped = ctx(compiled.simulation(&machine).run(), "simulate the overlapped schedule")?;
    Ok(Json::obj()
        .with("baseline_ms", baseline.makespan() * 1e3)
        .with("overlapped_ms", overlapped.makespan() * 1e3)
        .with("improvement", baseline.makespan() / overlapped.makespan()))
}

pub(super) fn inference_table(j: &Json) -> String {
    let row = vec![
        format!("{:.2} ms", num(j, "baseline_ms")),
        format!("{:.2} ms", num(j, "overlapped_ms")),
        format!("{:.2}×", num(j, "improvement")),
    ];
    md_table(&["baseline latency", "overlapped latency", "improvement"], [row])
}

/// One table row per element of the array `j`.
fn rows_table(j: &Json, header: &[&str], row: impl Fn(&Json) -> Vec<String>) -> String {
    md_table(header, items(j).iter().map(row))
}
