//! The names, units and directions of every metric the ledger prints.
//! `BENCHMARK.json` at the repo root lists the same names; a unit test
//! keeps the two in step.

use std::collections::BTreeMap;

use overlap_json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the other reading's value by which
    /// this one may be worse before `ledger check` calls it a breach.
    pub bound: f64,
    /// Must repeat bit for bit between two runs of the same build.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def { name, unit, better, bound, exact: false }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better, bound: 0.0, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better, bound: 0.0, exact: true }
}

/// Deterministic metrics are compared at this relative tolerance, the
/// smallest a share-of-median bound can usefully express.
pub const EXACT_BOUND: f64 = 1e-9;

use Better::{Higher, Lower};

/// What a user of the system waits on or pays for. Every workload
/// reports all eight.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("op_p99_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    Def { exact: true, ..e2e("ok_share", "ratio", Higher, EXACT_BOUND) },
    Def { exact: true, ..e2e("sim_step_speedup", "ratio", Higher, EXACT_BOUND) },
];

/// One layer each; no bounds. `exact` counts must repeat bit for bit.
pub const PER_LAYER: &[Def] = &[
    // overlap-json
    layer("json.parse_mb_per_s", "MB/s", Higher),
    layer("json.print_mb_per_s", "MB/s", Higher),
    layer("json.hash_mb_per_s", "MB/s", Higher),
    // overlap-hlo
    layer("hlo.verify_us_per_instr", "us", Lower),
    layer("hlo.fingerprint_us_per_instr", "us", Lower),
    layer("hlo.decode_us_per_instr", "us", Lower),
    layer("hlo.encode_us_per_instr", "us", Lower),
    // overlap-models (sharding and mesh underneath)
    layer("models.build_ms", "ms", Lower),
    // overlap-core passes: mean per compile; they sum to the compile
    layer("core.pass.verify_input_ms", "ms", Lower),
    layer("core.pass.analyze_ms", "ms", Lower),
    layer("core.pass.find_patterns_ms", "ms", Lower),
    layer("core.pass.cost_gate_ms", "ms", Lower),
    layer("core.pass.decompose_ms", "ms", Lower),
    layer("core.pass.annotate_wire_ms", "ms", Lower),
    layer("core.pass.asyncify_ms", "ms", Lower),
    layer("core.pass.fuse_ms", "ms", Lower),
    layer("core.pass.verify_final_ms", "ms", Lower),
    layer("core.pass.cost_table_ms", "ms", Lower),
    layer("core.pass.schedule_ms", "ms", Lower),
    layer("core.pass.other_ms", "ms", Lower),
    // overlap-core rows
    layer("core.compile_ms.paper", "ms", Lower),
    layer("core.compile_ms.chunk2-uni", "ms", Lower),
    layer("core.compile_ms.int8", "ms", Lower),
    layer("core.compile_ms.GPT_32B", "ms", Lower),
    layer("core.compile_ms.T5_300B", "ms", Lower),
    layer("core.compile_ms.GPT_1T", "ms", Lower),
    exact("core.instrs_in", "count", Lower),
    exact("core.instrs_out", "count", Lower),
    exact("core.patterns_decomposed", "count", Higher),
    exact("core.fallbacks", "count", Lower),
    // overlap-core cache
    layer("core.cache.key_ms", "ms", Lower),
    layer("core.cache.mem_hit_ms", "ms", Lower),
    layer("core.cache.miss_overhead_ms", "ms", Lower),
    layer("core.cache.persist_ms", "ms", Lower),
    layer("core.cache.disk_hit_ms", "ms", Lower),
    layer("core.cache.entry_kb", "kB", Lower),
    // overlap-sim
    layer("sim.cost_table_ms", "ms", Lower),
    layer("sim.run_us_per_instr", "us", Lower),
    layer("sim.faulted_ns_per_instr_dev", "ns", Lower),
    layer("sim.fault_model_build_ms", "ms", Lower),
    layer("sim.tail_draws_per_s", "1/s", Higher),
    layer("sim.tail_call_fixed_ms", "ms", Lower),
    exact("sim.spans_per_run", "count", Lower),
    exact("sim.exposed_comm_share", "ratio", Lower),
    exact("sim.flops_utilization", "ratio", Higher),
    // overlap-serve, from the daemon's own reports (0 off the serve workloads)
    layer("serve.queue_p50_ms", "ms", Lower),
    layer("serve.queue_p99_ms", "ms", Lower),
    layer("serve.service_p50_ms", "ms", Lower),
    layer("serve.service_p99_ms", "ms", Lower),
    layer("serve.transport_p50_ms", "ms", Lower),
    layer("serve.serialize_p50_ms", "ms", Lower),
    // overlap-serve, staged in-process replay of exec::execute
    layer("serve.exec_ms.models_build", "ms", Lower),
    layer("serve.exec_ms.key", "ms", Lower),
    layer("serve.exec_ms.cache", "ms", Lower),
    layer("serve.exec_ms.sim_baseline", "ms", Lower),
    layer("serve.exec_ms.sim_overlapped", "ms", Lower),
    layer("serve.exec_ms.encode", "ms", Lower),
    // overlap-serve codec
    layer("serve.frame_decode_ms", "ms", Lower),
    layer("serve.frame_encode_ms", "ms", Lower),
    layer("serve.frame_kb_in", "kB", Lower),
    layer("serve.frame_kb_out", "kB", Lower),
    // overlap-serve, stats frame after − before (0 off the serve workloads)
    layer("serve.coalesced_share", "ratio", Higher),
    layer("serve.pipelined_share", "ratio", Higher),
    layer("serve.hit_share", "ratio", Higher),
    layer("serve.batches", "count", Lower),
    layer("serve.compiled", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.errors", "count", Lower),
    layer("serve.workers", "count", Higher),
    // overlap-numerics
    layer("numerics.spmd_check_ms", "ms", Lower),
    layer("numerics.max_rel_err", "ratio", Lower),
    // machine / harness guards
    layer("machine.calib_ms", "ms", Lower),
    layer("machine.calib_drift_share", "ratio", Lower),
    layer("machine.nproc", "count", Higher),
    layer("trace.overhead_share", "ratio", Lower),
];

pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Measured values by registered name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`, which must be registered above.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric {name:?} is not registered"));
        self.0.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `"metrics"` object of a result line: every metric of `defs`,
    /// in registry order. A registered metric nobody measured is a bug
    /// in the harness, reported rather than printed as a made-up zero.
    pub fn to_json(&self, defs: &[Def]) -> Result<Json, String> {
        let mut out = Json::obj();
        for d in defs {
            let v =
                self.get(d.name).ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not a finite number: {v}", d.name));
            }
            out.set(d.name, Json::obj().with("value", v).with("unit", d.unit));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(section: &Json) -> Vec<(String, String, String)> {
        section
            .as_array()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_only_metrics_the_ledger_prints() {
        let b = benchmark_json();
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = listed(b.get(section).expect(section));
            assert_eq!(listed.len(), defs.len(), "{section}: count differs from the registry");
            for (name, unit, better) in listed {
                let d = defs.iter().find(|d| d.name == name).unwrap_or_else(|| {
                    panic!("{section} lists {name}, which ledger does not print")
                });
                assert_eq!((d.unit, d.better.as_str()), (unit.as_str(), better.as_str()), "{name}");
            }
        }
        let bounds = b.get("end_to_end").and_then(Json::as_array).expect("end_to_end");
        for (m, d) in bounds.iter().zip(END_TO_END) {
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(d.bound), "{}", d.name);
        }
    }

    #[test]
    fn benchmark_json_lists_the_workloads_the_ledger_runs() {
        let b = benchmark_json();
        let names: Vec<&str> = b
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_alphabet() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(d.unit.len() <= 16);
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(seen.insert(d.name), "{} is registered twice", d.name);
        }
        assert_eq!(PER_LAYER.len(), 75);
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
    }

    #[test]
    fn unmeasured_metrics_are_reported_not_invented() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5);
        assert!(m.to_json(&END_TO_END[..1]).is_ok());
        assert!(m.to_json(END_TO_END).unwrap_err().contains("ops_per_s"));
    }
}
