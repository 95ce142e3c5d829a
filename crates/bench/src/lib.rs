//! Shared experiment machinery for the paper's figures and tables.
//!
//! Every figure follows the same recipe: build each model's one-layer step
//! module ([`overlap_models`]), simulate it under the baseline order and
//! under the overlap pipeline, scale by the layer count, and record the
//! paper's series as JSON. [`figures::REGISTRY`] holds one entry per
//! figure (its sweep and its markdown renderer); the `fig` binary runs
//! them into `results/<name>.json` and EXPERIMENTS.md carries the
//! rendered tables.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::sync::OnceLock;

use overlap_core::{
    ArtifactCache, Compiled, FusionAggressiveness, OverlapOptions, OverlapPipeline, RingDirection,
    SchedulerKind, StrategySpec,
};
use overlap_json::{json_record, ToJson};
use overlap_mesh::{FaultSpec, Machine};
use overlap_models::{Arch, ModelConfig, PartitionStrategy};
use overlap_sim::{Report, Simulation};

pub mod figures;

/// The fault-spec seed every seeded sweep uses (`fig_faults`,
/// `fig_quant`, `fig_tail`, `fig_autotune`); the first three record it
/// in their JSON as `"seed": 7`.
pub const SEED: u64 = 7;

/// The 16-chip short-ring configuration (4x4 mesh) the seeded sweeps
/// swap in for Table 1 in smoke mode, and the autotuner's short-ring
/// data point.
#[must_use]
pub fn smoke_config() -> ModelConfig {
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

/// Simulated per-step statistics for one configuration.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// Model name.
    pub model: String,
    /// Chip count.
    pub chips: usize,
    /// End-to-end step time in seconds (per-layer makespan × layers).
    pub step_time: f64,
    /// Fraction of the step spent on compute-stream computation.
    pub compute_fraction: f64,
    /// Fraction of the step exposed as communication (sync collectives +
    /// unhidden async transfers).
    pub comm_fraction: f64,
    /// Achieved fraction of peak FLOPS.
    pub flops_utilization: f64,
}

impl StepStats {
    fn from_report(cfg: &ModelConfig, machine: &Machine, r: &Report) -> Self {
        StepStats {
            model: cfg.name.clone(),
            chips: cfg.chips,
            step_time: r.makespan() * cfg.layers as f64,
            compute_fraction: (r.compute_time() + r.memory_time()) / r.makespan(),
            comm_fraction: r.comm_fraction(),
            flops_utilization: r.flops_utilization(machine.peak_flops()),
        }
    }
}

json_record!(encode StepStats {
    model,
    chips,
    step_time,
    compute_fraction,
    comm_fraction,
    flops_utilization,
});

/// Baseline and overlapped step statistics for one model.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Baseline (synchronous collectives, program order).
    pub baseline: StepStats,
    /// With the overlap pipeline.
    pub overlapped: StepStats,
}

impl Comparison {
    /// Baseline / overlapped step-time ratio (the paper's speedup).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.baseline.step_time / self.overlapped.step_time
    }
}

json_record!(encode Comparison { baseline, overlapped });

/// The process-wide artifact cache the sweep drivers share, configured
/// from the environment ([`ArtifactCache::from_env`]): in-memory by
/// default, plus the on-disk tier when `OVERLAP_CACHE_DIR` is set (the
/// conventional directory is `.overlap-cache/`, which is gitignored),
/// disabled entirely by `OVERLAP_CACHE=0`.
pub fn artifact_cache() -> &'static ArtifactCache {
    static CACHE: OnceLock<ArtifactCache> = OnceLock::new();
    CACHE.get_or_init(ArtifactCache::from_env)
}

/// Prints the cache counters in the stable `key=value` form
/// `scripts/ci.sh` greps (`misses=0` proves the warm run never
/// recompiled). Silent when the cache saw no lookups, so drivers that
/// compile nothing stay clean.
pub fn report_cache(cache: &ArtifactCache) {
    let stats = cache.stats();
    if stats.lookups() == 0 {
        return;
    }
    println!(
        "cache: memory_hits={} disk_hits={} misses={} hit_rate={:.2}",
        stats.memory_hits,
        stats.disk_hits,
        stats.misses,
        stats.hit_rate()
    );
}

/// Unwraps a result or exits(1) with `cannot <what>: <error>` on
/// stderr. The binaries report bad inputs, simulator failures and a
/// failed figure as user-facing errors instead of panicking.
pub fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("cannot {what}: {e}");
        std::process::exit(1);
    })
}

/// Simulates one model's step without the overlap pipeline, on the
/// degraded machine described by `faults` when given.
///
/// # Panics
///
/// Panics if the layer module fails to build or simulate (the published
/// configurations all succeed; the sweep specs in this crate are all
/// routable and un-deadlocked).
#[must_use]
pub fn run_baseline(cfg: &ModelConfig, faults: Option<&FaultSpec>) -> StepStats {
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let report =
        Simulation::new(&module, &machine).faults(faults).run().expect("baseline simulation");
    StepStats::from_report(cfg, &machine, &report)
}

/// Compiles one model's layer under `options` through `cache` and
/// simulates it. With `faults`, the compile runs under the spec
/// (fault-adjusted gate, per-pattern fallbacks) and the simulation
/// replays it.
fn compile_and_simulate(
    cfg: &ModelConfig,
    options: OverlapOptions,
    faults: Option<&FaultSpec>,
    cache: &ArtifactCache,
) -> (Compiled, StepStats) {
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let mut pipeline = OverlapPipeline::new(options);
    if let Some(spec) = faults {
        pipeline = pipeline.with_faults(spec.clone());
    }
    let compiled = pipeline.compile_cached(&module, &machine, cache).expect("pipeline");
    let report = compiled.simulation(&machine).faults(faults).run().expect("simulation");
    let stats = StepStats::from_report(cfg, &machine, &report);
    (compiled, stats)
}

/// Simulates one model's step with the overlap pipeline under `options`,
/// compiled for (and simulated on) the degraded machine described by
/// `faults` when given. A repeated compilation of the same configuration
/// — within a sweep, across drivers, or across process runs via
/// `OVERLAP_CACHE_DIR` — is served from `cache`, bit-identical to the cold
/// result; pass [`ArtifactCache::disabled`] to always compile.
///
/// # Panics
///
/// Panics if compilation or simulation fails.
#[must_use]
pub fn run_overlapped(
    cfg: &ModelConfig,
    options: OverlapOptions,
    faults: Option<&FaultSpec>,
    cache: &ArtifactCache,
) -> StepStats {
    compile_and_simulate(cfg, options, faults, cache).1
}

/// Baseline-vs-overlapped comparison with the paper-default options, the
/// overlapped compile served through `cache` (the baseline simulation is
/// pure measurement and never cached).
#[must_use]
pub fn run_comparison(cfg: &ModelConfig, cache: &ArtifactCache) -> Comparison {
    Comparison {
        baseline: run_baseline(cfg, None),
        overlapped: run_overlapped(cfg, OverlapOptions::paper_default(), None, cache),
    }
}

/// Baseline-vs-overlapped step statistics on a degraded machine, plus
/// how much of the compile survived the fault-adjusted gate.
#[derive(Debug, Clone)]
pub struct FaultedComparison {
    /// Baseline (synchronous collectives, program order) under the spec.
    pub baseline: StepStats,
    /// With the overlap pipeline compiled *for* the degraded machine.
    pub overlapped: StepStats,
    /// Patterns actually decomposed on the degraded machine.
    pub decomposed: usize,
    /// Per-pattern and whole-module fallbacks the compile recorded.
    pub fallbacks: usize,
}

impl FaultedComparison {
    /// Baseline / overlapped step-time ratio under the fault spec.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.baseline.step_time / self.overlapped.step_time
    }
}

json_record!(encode FaultedComparison { baseline, overlapped, decomposed, fallbacks });

/// Chunk widths the autotuner grid tries for the unidirectional
/// AllGather loop.
pub const GRID_CHUNKS: [usize; 3] = [1, 2, 4];

/// Enumerates the autotuner's full strategy grid — ring direction ×
/// unrolling × chunk width × pad-max-concat × fusion aggressiveness ×
/// scheduler — and statically prunes combinations the emission rules
/// reject ([`StrategySpec::validate`]) or that cannot differ from a kept
/// candidate (the shard-at-a-time unidirectional loop emits no joins, so
/// its pad-vs-concat knob is inert). Returns
/// `(survivors, pruned_count, total)`. The enumeration order is fixed,
/// so every consumer scores candidates in the same deterministic order.
#[must_use]
pub fn strategy_grid() -> (Vec<OverlapOptions>, usize, usize) {
    let mut kept = Vec::new();
    let mut pruned = 0usize;
    let mut total = 0usize;
    for ring in [RingDirection::Bidirectional, RingDirection::Unidirectional] {
        for unroll in [true, false] {
            for &chunk in &GRID_CHUNKS {
                for pad in [false, true] {
                    for fusion in [
                        FusionAggressiveness::Off,
                        FusionAggressiveness::Conservative,
                        FusionAggressiveness::OverlapAware,
                    ] {
                        for sched in [SchedulerKind::BottomUp, SchedulerKind::TopDown] {
                            total += 1;
                            let spec = StrategySpec::paper_default()
                                .with_ring(ring)
                                .with_unroll(unroll)
                                .with_pad_max_concat(pad)
                                .with_chunk(chunk)
                                .with_fusion(fusion);
                            if spec.validate().is_err() {
                                pruned += 1;
                                continue;
                            }
                            if ring == RingDirection::Unidirectional && chunk == 1 && pad {
                                pruned += 1;
                                continue;
                            }
                            kept.push(OverlapOptions {
                                scheduler: sched,
                                ..OverlapOptions::with_strategy(spec)
                            });
                        }
                    }
                }
            }
        }
    }
    (kept, pruned, total)
}

/// Baseline-vs-overlapped comparison on a degraded machine: the compile
/// itself runs under `spec` (so the fault-adjusted §5.5 gate can fall
/// back per pattern) and both sides simulate under the same spec.
/// Artifacts key on the spec's fingerprint, so sweeps over many specs
/// coexist in one `cache`. The precision sweeps pass different wire
/// strategies as `options` against the same degraded machine and compare
/// each against the shared lossless synchronous baseline.
///
/// # Panics
///
/// Panics if compilation or either simulation fails.
#[must_use]
pub fn run_fault_comparison(
    cfg: &ModelConfig,
    options: OverlapOptions,
    spec: &FaultSpec,
    cache: &ArtifactCache,
) -> FaultedComparison {
    let (compiled, overlapped) = compile_and_simulate(cfg, options, Some(spec), cache);
    FaultedComparison {
        baseline: run_baseline(cfg, Some(spec)),
        overlapped,
        decomposed: compiled.summaries.len(),
        fallbacks: compiled.fallbacks.len(),
    }
}

// The deterministic parallel map driver moved to `overlap-sim` so the
// cost gate can use it too; the sweeps and downstream callers keep the
// old path.
pub use overlap_sim::par_map;

/// [`run_baseline`] (pristine machine) over a whole model zoo, fanned
/// across cores (input order preserved).
#[must_use]
pub fn run_baselines(cfgs: &[ModelConfig]) -> Vec<StepStats> {
    par_map(cfgs, |cfg| run_baseline(cfg, None))
}

/// [`run_comparison`] over a whole model zoo, fanned across cores (input
/// order preserved). Duplicate configurations compile once even when the
/// parallel workers race (the cache is single-flight); every hit is
/// bit-identical to the cold compile, so the fanned sweep stays
/// byte-identical to the serial one at any `RAYON_NUM_THREADS`.
#[must_use]
pub fn run_comparisons(cfgs: &[ModelConfig], cache: &ArtifactCache) -> Vec<Comparison> {
    par_map(cfgs, |cfg| run_comparison(cfg, cache))
}

/// Writes a JSON record for EXPERIMENTS.md under `results/<name>.json`.
///
/// Failures to write are reported on stderr but do not abort the run.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, value.to_json().to_pretty()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|&i| i * 2 + 1).collect();
        assert_eq!(par_map(&items, |&i| i * 2 + 1), expected);
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let empty: [u32; 0] = [];
        assert!(par_map(&empty, |&i| i).is_empty());
        assert_eq!(par_map(&[7u32], |&i| i + 1), vec![8]);
    }

    #[test]
    fn strategy_grid_size_is_pinned() {
        // `fig_autotune` scores every survivor on every configuration: a
        // grid that grows without a pruning rule to match shows here
        // before it shows as tier-1 time.
        let (kept, pruned, total) = strategy_grid();
        assert_eq!((kept.len(), pruned, total), (84, 60, 144));
    }

    #[test]
    fn autotuned_beats_paper_default_on_short_ring_mesh() {
        // The 16-chip 4x4 mesh from the autotuner sweep
        // (results/fig_autotune.json, config "Smoke_16"): the tuned
        // chunked unidirectional strategy must out-simulate the paper
        // default here, and must leave the Table-1 machines untouched.
        let cfg = smoke_config();
        let tuned_options = OverlapOptions::autotuned(&cfg.name, &cfg.machine());
        assert_ne!(tuned_options, OverlapOptions::paper_default());
        let cache = ArtifactCache::disabled();
        let tuned = run_overlapped(&cfg, tuned_options, None, &cache);
        let paper = run_overlapped(&cfg, OverlapOptions::paper_default(), None, &cache);
        assert!(
            tuned.step_time < paper.step_time,
            "tuned {} >= paper {}",
            tuned.step_time,
            paper.step_time
        );
        for m in overlap_models::table1_models() {
            assert_eq!(
                OverlapOptions::autotuned(&m.name, &m.machine()),
                OverlapOptions::paper_default(),
                "{} should keep the paper default",
                m.name
            );
        }
    }

    #[test]
    fn small_model_comparison_runs() {
        let cfg = overlap_models::ModelConfig {
            name: "smoke".into(),
            params: 1e9,
            layers: 4,
            model_dim: 256,
            ff_dim: 1024,
            batch: 16,
            seq_len: 64,
            chips: 8,
            arch: overlap_models::Arch::Decoder,
            strategy: overlap_models::PartitionStrategy::TwoD,
        };
        let c = run_comparison(&cfg, &ArtifactCache::disabled());
        assert!(c.baseline.step_time > 0.0);
        assert!(c.overlapped.step_time > 0.0);
        assert!(c.baseline.comm_fraction > 0.0);
    }

    fn smoke_cfg() -> overlap_models::ModelConfig {
        overlap_models::ModelConfig {
            name: "smoke".into(),
            params: 1e9,
            layers: 4,
            model_dim: 256,
            ff_dim: 1024,
            batch: 16,
            seq_len: 64,
            chips: 8,
            arch: overlap_models::Arch::Decoder,
            strategy: overlap_models::PartitionStrategy::TwoD,
        }
    }

    #[test]
    fn cached_sweep_is_bit_identical_to_uncached() {
        let cfg = smoke_cfg();
        let cache = ArtifactCache::in_memory();
        let cold = run_comparison(&cfg, &ArtifactCache::disabled());
        let warm1 = run_comparison(&cfg, &cache);
        let warm2 = run_comparison(&cfg, &cache);
        assert_eq!(cold.speedup().to_bits(), warm1.speedup().to_bits());
        assert_eq!(
            warm1.overlapped.step_time.to_bits(),
            warm2.overlapped.step_time.to_bits()
        );
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().memory_hits, 1);
    }

    #[test]
    fn cached_par_sweep_single_flights_duplicates() {
        // Eight copies of one configuration fanned across workers: the
        // single-flight cache compiles exactly once and every row is
        // byte-identical.
        let cfgs: Vec<_> = (0..8).map(|_| smoke_cfg()).collect();
        let cache = ArtifactCache::in_memory();
        let rows = run_comparisons(&cfgs, &cache);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().memory_hits, 7);
        for r in &rows[1..] {
            assert_eq!(r.speedup().to_bits(), rows[0].speedup().to_bits());
        }
    }

    #[test]
    fn step_stats_encode_as_objects() {
        let rows = vec![run_baseline(&smoke_cfg(), None)];
        let j = rows.to_json();
        assert!(j[0]["step_time"].as_f64().unwrap() > 0.0);
        assert_eq!(j[0]["model"].as_str(), Some("smoke"));
    }
}
