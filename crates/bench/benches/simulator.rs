//! Criterion benchmarks of the discrete-event simulator, plus the Fig. 11
//! fusion-heuristic ablation (overlap-aware vs. default fusion decisions).

use criterion::{criterion_group, criterion_main, Criterion};
use overlap_core::{fuse, FusionOptions, OverlapOptions, OverlapPipeline};
use overlap_models::{Arch, ModelConfig, PartitionStrategy};
use overlap_sim::{CostTable, Simulation};

fn layer_config(chips: usize) -> ModelConfig {
    ModelConfig {
        name: format!("sim_layer_{chips}"),
        params: 0.0,
        layers: 1,
        model_dim: 2048,
        ff_dim: 8192,
        batch: chips * 16,
        seq_len: 64,
        chips,
        arch: Arch::Decoder,
        strategy: PartitionStrategy::TwoD,
    }
}

fn simulator(c: &mut Criterion) {
    for chips in [8usize, 32] {
        let cfg = layer_config(chips);
        let module = cfg.layer_module();
        let machine = cfg.machine();
        c.bench_function(&format!("simulate_baseline/{chips}chips"), |b| {
            b.iter(|| Simulation::new(&module, &machine).run().expect("simulate"))
        });
        let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
            .run(&module, &machine)
            .expect("pipeline");
        // No `.table(..)`: each run re-derives the cost table.
        let fresh = Simulation::new(&compiled.module, &machine).order(&compiled.order);
        c.bench_function(&format!("simulate_overlapped/{chips}chips"), |b| {
            b.iter(|| fresh.run().expect("simulate"))
        });
        // The same schedule through the precomputed cost table: per-run
        // work shrinks to the event loop itself.
        c.bench_function(&format!("simulate_cached_table/{chips}chips"), |b| {
            b.iter(|| compiled.simulation(&machine).run().expect("simulate"))
        });
    }
}

/// Repeated-execution path: without `.table(..)` the cost table is
/// rebuilt once per call, with it not at all. The old engine re-derived
/// every instruction cost on every repetition.
fn repeated(c: &mut Criterion) {
    let cfg = layer_config(16);
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
        .expect("pipeline");
    const REPS: usize = 64;
    let fresh = Simulation::new(&compiled.module, &machine).order(&compiled.order);
    c.bench_function("simulate_repeated/64reps", |b| {
        b.iter(|| fresh.repeated(REPS).expect("simulate"))
    });
    c.bench_function("simulate_repeated_cached_table/64reps", |b| {
        b.iter(|| compiled.simulation(&machine).repeated(REPS).expect("simulate"))
    });
    c.bench_function("cost_table_build/layer16", |b| {
        b.iter(|| CostTable::new(&compiled.module, &machine).expect("cost table"))
    });
}

/// Fig. 11 ablation: the same scheduled module, annotated with the
/// overlap-aware vs. the default fusion heuristic. Fusion only attaches
/// groups (the instruction set and order are unchanged), so the simulated
/// makespans isolate the fusion decision.
fn fusion_ablation(c: &mut Criterion) {
    let cfg = layer_config(16);
    let module = cfg.layer_module();
    let machine = cfg.machine();
    // Compile without a fusion pass; apply each heuristic to the result.
    let compiled = OverlapPipeline::new(OverlapOptions::with_strategy(
        overlap_core::StrategySpec::paper_default()
            .with_fusion(overlap_core::FusionAggressiveness::Off),
    ))
    .run(&module, &machine)
    .expect("pipeline");
    for (name, aware) in [("overlap_aware", true), ("default", false)] {
        let fused = fuse(&compiled.module, &FusionOptions { overlap_aware: aware });
        let sim = Simulation::new(&fused, &machine).order(&compiled.order);
        let report = sim.run().expect("simulate");
        println!("fig11 fusion {name}: simulated makespan {:.4e}s", report.makespan());
        c.bench_function(&format!("fig11_fusion/{name}"), |b| {
            b.iter(|| sim.run().expect("simulate"))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = simulator, repeated, fusion_ablation
}
criterion_main!(benches);
