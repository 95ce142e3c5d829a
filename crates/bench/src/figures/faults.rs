//! Degraded-hardware sweeps (`fig_faults`): overlap speedup under
//! injected faults.
//!
//! Two sweeps over the Table-1 configurations, both compiled *for* the
//! degraded machine (so the fault-adjusted §5.5 gate can fall back per
//! pattern) and simulated under the same seeded [`FaultSpec`]:
//!
//! * **straggler severity** — one chip's compute slowed by a factor; in
//!   the bulk-synchronous SPMD model the straggler gates every step, so
//!   compute swells on both sides and the overlap win shrinks toward 1x,
//! * **derated-link fraction** — a growing fraction of torus links at
//!   reduced bandwidth, plus per-hop latency jitter that grows with the
//!   damage. Collectives pay the worst-link toll immediately while the
//!   decomposed rings only pay on the hops they cross, so the overlap
//!   win first *grows* — until the jittered ring loses the gate and the
//!   compile falls back to the original collectives (speedup -> ~1x):
//!   the crossover.

use overlap_core::OverlapOptions;
use overlap_json::{Json, ToJson};
use overlap_mesh::FaultSpec;
use overlap_models::{table1_models, ModelConfig};

use super::{items, num, pivot, speedup_cell, text, FigureResult, SweepConfig};
use crate::{run_fault_comparison, smoke_config, FaultedComparison, SEED};

/// One chip's compute slowdown factors (1.0 = healthy anchor).
const SEVERITIES: [f64; 6] = [1.0, 1.1, 1.25, 1.5, 2.0, 3.0];

/// Fractions of torus links running degraded (0.0 = healthy anchor).
const LINK_FRACTIONS: [f64; 5] = [0.0, 0.125, 0.25, 0.5, 1.0];

/// Bandwidth multiplier applied to each degraded link.
const LINK_DERATE: f64 = 0.8;

/// Per-hop latency jitter at fraction 1.0; scales linearly with the
/// fraction (flaky links are also slow links).
const JITTER_FULL_SECONDS: f64 = 5e-5;

/// One sweep point: the knob's name and value, and the comparison.
fn row(knob: &str, value: f64, cmp: &FaultedComparison) -> Json {
    Json::obj()
        .with(knob, value)
        .with("model", cmp.baseline.model.as_str())
        .with("chips", cmp.baseline.chips as u64)
        .with("baseline_step", cmp.baseline.step_time)
        .with("overlapped_step", cmp.overlapped.step_time)
        .with("speedup", cmp.speedup())
        .with("decomposed", cmp.decomposed as u64)
        .with("fallbacks", cmp.fallbacks as u64)
}

pub(super) fn run(sweep: &SweepConfig<'_>) -> FigureResult {
    let models = if sweep.smoke { vec![smoke_config()] } else { table1_models() };
    let compare = |cfg: &ModelConfig, spec: &FaultSpec| {
        run_fault_comparison(cfg, OverlapOptions::paper_default(), spec, sweep.cache)
    };
    let mut straggler_rows = Vec::new();
    let mut link_rows = Vec::new();
    for cfg in &models {
        for &severity in &SEVERITIES {
            let spec = FaultSpec::seeded(SEED).with_straggler(0, severity);
            straggler_rows.push(row("severity", severity, &compare(cfg, &spec)));
        }
        let mesh = cfg.machine().mesh().clone();
        for &fraction in &LINK_FRACTIONS {
            let spec = FaultSpec::seeded(SEED)
                .with_derated_link_fraction(&mesh, fraction, LINK_DERATE)
                .with_jitter(fraction * JITTER_FULL_SECONDS);
            link_rows.push(row("fraction", fraction, &compare(cfg, &spec)));
        }
    }
    Ok(Json::obj()
        .with("seed", SEED)
        .with("smoke", sweep.smoke)
        .with("link_derate", LINK_DERATE)
        .with("jitter_full_seconds", JITTER_FULL_SECONDS)
        .with("straggler_sweep", straggler_rows.to_json())
        .with("link_sweep", link_rows.to_json()))
}

/// Speedup per model (rows) and `knob` value (columns).
fn knob_table(rows: &[Json], knob: &str, label: impl Fn(f64) -> String) -> String {
    let model = |r: &Json| vec![text(r, "model").to_string()];
    pivot(rows, &["model"], model, |r| label(num(r, knob)), speedup_cell)
}

pub(super) fn table(j: &Json) -> String {
    let links = items(&j["link_sweep"]);
    let fell_back = links.iter().any(|r| num(r, "fallbacks") > 0.0);
    format!(
        "Straggler severity (one chip's compute slowed by the factor), speedup \
         (patterns fallen back):\n\n{}\nDerated-link fraction (links at {} bandwidth, \
         jitter up to {} s):\n\n{}\ncrossover: {}.\n",
        knob_table(items(&j["straggler_sweep"]), "severity", |v| format!("×{v}")),
        num(j, "link_derate"),
        num(j, "jitter_full_seconds"),
        knob_table(links, "fraction", |v| format!("{}%", 100.0 * v)),
        if fell_back {
            "the link sweep reaches the fallback regime (speedup pinned near 1x)"
        } else {
            "no sweep point regressed past the fault-adjusted gate"
        }
    )
}
