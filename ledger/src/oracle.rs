//! What "correct" means for each workload, decided without asking the
//! code under test twice: committed figure files, an independent SPMD
//! interpreter, and in-process execution on a fresh cache.

use std::path::PathBuf;
use std::time::Instant;

use overlap_core::{ArtifactCache, OverlapOptions, OverlapPipeline};
use overlap_hlo::Module;
use overlap_json::{Json, ToJson};
use overlap_mesh::{DeviceMesh, Machine};
use overlap_models::{build_attention_layer, Arch, ModelConfig, PartitionStrategy};
use overlap_numerics::{run_spmd, Literal};
use overlap_serve::{exec, CompileRequest, MachineSpec, ModelRef};

use crate::gen::{self, Artifact};

/// Tally of output checks; every check is one attempt, and a failed one
/// counts against the run exactly like a failed op.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for stderr (capped: a broken build fails every op).
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a failure of something already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }
}

fn repo_file(relative: &str) -> PathBuf {
    // The benchmark is built in the checkout it measures, so the
    // package directory is the way back to the repo's own files.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(relative)
}

/// The committed `results/fig12.json` / `results/fig13.json` step
/// times, which `paper` compiles of Table 1 / Table 2 must reproduce
/// bit for bit. Those files were committed by hand from the figure
/// drivers; nothing in this process wrote them.
pub struct Figures {
    rows: Vec<FigureRow>,
}

struct FigureRow {
    figure: &'static str,
    model: String,
    baseline: f64,
    overlapped: f64,
    seen: std::cell::Cell<bool>,
}

impl Figures {
    pub fn load() -> Result<Self, String> {
        let mut rows = Vec::new();
        for figure in ["results/fig12.json", "results/fig13.json"] {
            let path = repo_file(figure);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let parsed = Json::parse(&text).map_err(|e| format!("{figure}: {e}"))?;
            for row in parsed.as_array().ok_or_else(|| format!("{figure}: not a list"))? {
                let side = |side: &str, key: &str| row.get(side).and_then(|s| s.get(key));
                let step = |s: &str| side(s, "step_time").and_then(Json::as_f64);
                match (
                    side("baseline", "model").and_then(Json::as_str),
                    step("baseline"),
                    step("overlapped"),
                ) {
                    (Some(model), Some(baseline), Some(overlapped)) => rows.push(FigureRow {
                        figure,
                        model: model.to_string(),
                        baseline,
                        overlapped,
                        seen: false.into(),
                    }),
                    _ => return Err(format!("{figure}: a row lacks model or step times")),
                }
            }
        }
        Ok(Figures { rows })
    }

    /// Checks one model's simulated per-layer makespans against every
    /// committed row that names it.
    pub fn check(&self, checks: &mut Checks, model: &ModelConfig, baseline: f64, overlapped: f64) {
        let layers = model.layers as f64;
        for row in self.rows.iter().filter(|r| r.model == model.name) {
            row.seen.set(true);
            for (side, got, want) in [
                ("baseline", baseline * layers, row.baseline),
                ("overlapped", overlapped * layers, row.overlapped),
            ] {
                checks.check(got.to_bits() == want.to_bits(), || {
                    format!(
                        "{}: {} {side} step time {got:?}, committed {want:?}",
                        row.figure, row.model
                    )
                });
            }
        }
    }

    /// A committed row no compile was checked against is a failed check.
    pub fn check_all_rows_seen(&self, checks: &mut Checks) {
        for row in self.rows.iter().filter(|r| !r.seen.get()) {
            checks.check(false, || {
                format!("{}: no compile of {} was checked", row.figure, row.model)
            });
        }
    }
}

/// Deterministic inputs in [-2, 2), different on every device and
/// parameter.
fn spmd_inputs(module: &Module) -> Vec<Vec<Literal>> {
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

/// Largest difference over all outputs and devices, relative to the
/// largest exact magnitude.
fn rel_error(want: &[Vec<Literal>], got: &[Vec<Literal>]) -> f64 {
    let (mut diff, mut scale) = (0.0f64, 0.0f64);
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

pub struct NumericsReport {
    pub check_ms: f64,
    /// Largest relative error seen on the lossless strategy sets.
    pub max_rel_err: f64,
}

/// Three laptop-scale modules × the three strategy sets, interpreted
/// before and after compilation. The cost gate is off so that every
/// pattern really is decomposed at these toy sizes. Lossless sets must
/// agree within 1e-4; `int8` within the first-order sum of
/// `WireFormat::predicted_rel_error` over the compiled module's
/// quantized transfers.
pub fn check_numerics(checks: &mut Checks) -> Result<NumericsReport, String> {
    let t0 = Instant::now();
    let tiny = ModelConfig {
        name: "ledger_tiny".into(),
        params: 0.0,
        layers: 1,
        model_dim: 32,
        ff_dim: 64,
        batch: 4,
        seq_len: 8,
        chips: 4,
        arch: Arch::Decoder,
        strategy: PartitionStrategy::TwoD,
    };
    let mesh = DeviceMesh::new(vec![2, 2]);
    let mlp = overlap_sharding::mlp::MlpConfig { batch: 12, feature: 12, hidden: 12 };
    let modules = [
        ("layer", tiny.layer_module(), tiny.machine()),
        (
            "attention",
            build_attention_layer(&tiny, 4).map_err(|e| format!("attention layer: {e}"))?,
            tiny.machine(),
        ),
        (
            "fig3_mlp",
            overlap_sharding::mlp::fig3_forward(&mesh, mlp).map_err(|e| format!("fig3: {e}"))?,
            Machine::with_mesh(mesh),
        ),
    ];
    let mut max_rel_err = 0.0f64;
    for (name, module, machine) in &modules {
        let inputs = spmd_inputs(module);
        let want = run_spmd(module, &inputs).map_err(|e| format!("{name}: {e}"))?;
        for set in gen::STRATEGIES {
            let options = OverlapOptions { disable_cost_gate: true, ..gen::strategy(set) };
            let verdict = OverlapPipeline::new(options)
                .run(module, machine)
                .map_err(|e| e.to_string())
                .and_then(|c| {
                    let got = run_spmd(&c.module, &inputs).map_err(|e| e.to_string())?;
                    Ok((rel_error(&want, &got), quantization_allowance(&c.module)))
                });
            match verdict {
                Ok((err, allowance)) => {
                    let tolerance = if allowance > 0.0 { allowance } else { 1e-4 };
                    if allowance == 0.0 {
                        max_rel_err = max_rel_err.max(err);
                    }
                    checks.check(err <= tolerance, || {
                        format!(
                            "numerics: {name}/{set} differs by {err:.3e} (allowed {tolerance:.3e})"
                        )
                    });
                }
                Err(e) => checks.check(false, || format!("numerics: {name}/{set}: {e}")),
            }
        }
    }
    Ok(NumericsReport { check_ms: t0.elapsed().as_secs_f64() * 1e3, max_rel_err })
}

/// Sum of the predicted per-event error of every quantized transfer in
/// `module`; zero for a lossless module.
fn quantization_allowance(module: &Module) -> f64 {
    module
        .iter()
        .map(|(_, i)| i.op().wire())
        .filter(|w| !w.is_lossless())
        .map(|w| w.predicted_rel_error(1))
        .sum()
}

/// The compile request a serve op sends for `artifact`.
pub fn request_for(artifact: &Artifact, inline: bool) -> CompileRequest {
    let model = if inline {
        ModelRef::Inline(Box::new(artifact.model.layer_module()))
    } else {
        ModelRef::Named(artifact.model.name.clone())
    };
    CompileRequest {
        model,
        machine: MachineSpec::ModelDefault,
        options: artifact.options(),
        fault_spec: None,
        deadline_ms: None,
    }
}

/// What the daemon must answer, byte for byte: `exec::execute` run here,
/// on a cache nothing else has touched. Returns the encoded `result`
/// and its simulated speedup.
pub fn expected_result(req: &CompileRequest) -> Result<(String, f64), String> {
    let (result, _) = exec::execute(req, &ArtifactCache::in_memory(), exec::Deadline::none())
        .map_err(|e| e.to_string())?;
    Ok((result.to_json().to_string(), result.speedup))
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_sim::{simulate, simulate_order_with};

    #[test]
    fn numerics_oracle_passes_at_head_and_sees_quantization() {
        let mut checks = Checks::default();
        let report = check_numerics(&mut checks).expect("oracle runs");
        assert_eq!(checks.attempted, 9);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        assert!(report.max_rel_err < 1e-9);
    }

    #[test]
    fn figure_oracle_is_exact_and_notices_unchecked_rows() {
        let figures = Figures::load().expect("figure files read");
        let model = overlap_models::find_model("GPT_32B").expect("zoo model");
        let (module, machine) = (model.layer_module(), model.machine());
        let c =
            OverlapPipeline::new(gen::strategy("paper")).run(&module, &machine).expect("compiles");
        let baseline = simulate(&module, &machine).expect("simulates").makespan();
        let overlapped = simulate_order_with(&c.cost_table, &c.module, &machine, &c.order)
            .expect("simulates")
            .makespan();

        let mut checks = Checks::default();
        figures.check(&mut checks, &model, baseline, overlapped);
        assert_eq!((checks.attempted, checks.failed), (2, 0), "{:?}", checks.notes);
        // One ulp off is a failure: the figures are compared bit for bit.
        figures.check(&mut checks, &model, baseline, f64::from_bits(overlapped.to_bits() + 1));
        assert_eq!((checks.attempted, checks.failed), (4, 1));
        // Eleven more rows (GPT_1T is in both figures) were never checked.
        figures.check_all_rows_seen(&mut checks);
        assert_eq!(checks.failed, 12);
    }
}
