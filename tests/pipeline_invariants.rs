//! End-to-end pipeline invariants across model configurations.

use overlap::core::{OverlapOptions, OverlapPipeline, SchedulerKind};
use overlap::hlo::Op;
use overlap::models::{Arch, ModelConfig, PartitionStrategy};
use overlap::sim::Simulation;

fn small_config(chips: usize, arch: Arch, strategy: PartitionStrategy) -> ModelConfig {
    ModelConfig {
        name: format!("inv_{chips}"),
        params: 0.0,
        layers: 2,
        model_dim: 512,
        ff_dim: 2048,
        batch: 64 * chips.max(8),
        seq_len: 16,
        chips,
        arch,
        strategy,
    }
}

fn configs() -> Vec<ModelConfig> {
    vec![
        small_config(4, Arch::Decoder, PartitionStrategy::TwoD),
        small_config(8, Arch::Decoder, PartitionStrategy::TwoD),
        small_config(16, Arch::Encoder, PartitionStrategy::TwoD),
        small_config(16, Arch::MoE { experts: 4 }, PartitionStrategy::TwoD),
        small_config(16, Arch::EncoderDecoder, PartitionStrategy::TwoD),
        small_config(128, Arch::Speech, PartitionStrategy::OneD),
    ]
}

/// With the cost gate on, the overlapped schedule is never meaningfully
/// slower than the baseline. The gate is an analytic estimate (§5.5:
/// "simply estimated against the peak FLOPS and interconnect bandwidth"),
/// so some slack is allowed for effects it cannot see — a few percent at
/// pod scale, more for the microsecond-scale 1-D toy where single kernel
/// launches move the total by whole percents.
#[test]
fn gated_pipeline_never_regresses() {
    for cfg in configs() {
        let module = cfg.layer_module();
        let machine = cfg.machine();
        let base = Simulation::new(&module, &machine).run().expect("baseline");
        let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
            .run(&module, &machine)
            .expect("pipeline");
        let over = compiled.simulation(&machine).run().expect("simulate");
        let slack =
            if matches!(cfg.strategy, PartitionStrategy::OneD) { 1.12 } else { 1.06 };
        assert!(
            over.makespan() <= base.makespan() * slack,
            "{}: overlap {:.4e} vs baseline {:.4e}",
            cfg.name,
            over.makespan(),
            base.makespan()
        );
    }
}

/// Both schedulers produce valid orders and identical total FLOPs (the
/// schedule changes timing, never work).
#[test]
fn schedulers_preserve_work() {
    for cfg in configs().into_iter().take(3) {
        let module = cfg.layer_module();
        let machine = cfg.machine();
        let base = Simulation::new(&module, &machine).run().expect("baseline");
        let mut flops = Vec::new();
        for sched in [SchedulerKind::BottomUp, SchedulerKind::TopDown] {
            let compiled = OverlapPipeline::new(OverlapOptions {
                scheduler: sched,
                ..OverlapOptions::paper_default()
            })
            .run(&module, &machine)
            .expect("pipeline");
            let r = compiled.simulation(&machine).run().expect("simulate");
            flops.push(r.total_flops());
        }
        assert_eq!(flops[0], flops[1], "{}: schedulers disagree on work", cfg.name);
        assert_eq!(flops[0], base.total_flops(), "{}: decomposition changed FLOPs", cfg.name);
    }
}

/// Decomposition conserves communicated payload: the decomposed permutes
/// move at least as many bytes as the collectives they replaced (the ring
/// uses one direction, hence the §5.5 trade-off), and the original
/// collectives are gone.
#[test]
fn decomposition_replaces_collectives() {
    let cfg = small_config(8, Arch::Decoder, PartitionStrategy::TwoD);
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let count_coll = |m: &overlap::hlo::Module| {
        m.count_live(|i| {
            matches!(i.op(), Op::AllGather { .. } | Op::ReduceScatter { .. })
        })
    };
    let before = count_coll(&module);
    let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
        .expect("pipeline");
    let after = count_coll(&compiled.module);
    let starts = compiled
        .module
        .count_live(|i| matches!(i.op(), Op::CollectivePermuteStart { .. }));
    assert_eq!(after, before - compiled.summaries.len(), "one collective consumed per pattern");
    let expected_permutes: usize = compiled.summaries.iter().map(|s| s.permutes).sum();
    assert_eq!(starts, expected_permutes);
}

/// The MoE AllToAlls survive the pipeline untouched (not decomposable).
#[test]
fn all_to_alls_are_preserved() {
    let cfg = small_config(16, Arch::MoE { experts: 4 }, PartitionStrategy::TwoD);
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let before = module.count_live(|i| matches!(i.op(), Op::AllToAll { .. }));
    let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
        .expect("pipeline");
    let after = compiled.module.count_live(|i| matches!(i.op(), Op::AllToAll { .. }));
    assert_eq!(before, after);
    assert!(before > 0);
}

/// Fusion ablation (Fig. 11): the overlap-aware heuristic is never slower
/// than the default heuristic on the decomposed layer.
#[test]
fn overlap_aware_fusion_not_slower() {
    use overlap::core::{fuse, FusionOptions};
    use overlap::hlo::ModuleAnalysis;
    let cfg = small_config(8, Arch::Decoder, PartitionStrategy::TwoD);
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let compiled = OverlapPipeline::new(OverlapOptions::with_strategy(
        overlap::core::StrategySpec::paper_default()
            .with_fusion(overlap::core::FusionAggressiveness::Off),
    ))
    .run(&module, &machine)
    .expect("pipeline");
    let mut analysis = ModuleAnalysis::of(&compiled.module);
    compiled.module.verify_incremental(&mut analysis).expect("compiled module verifies");
    let mut makespans = Vec::new();
    for aware in [true, false] {
        let fused =
            fuse(compiled.module.clone(), &analysis, &FusionOptions { overlap_aware: aware });
        let r = Simulation::new(&fused, &machine).order(&compiled.order).run().expect("simulate");
        makespans.push(r.makespan());
    }
    assert!(
        makespans[0] <= makespans[1] + 1e-12,
        "overlap-aware {:.4e} vs default {:.4e}",
        makespans[0],
        makespans[1]
    );
}

/// The §5.5 gate is load-bearing on a communication-starved machine: it
/// rejects patterns the ungated pipeline would decompose, and keeps the
/// result close to the baseline (the whole point of §5.5).
#[test]
fn gate_protects_comm_bound_configs() {
    // A communication-starved machine makes decomposition unprofitable.
    let cfg = small_config(8, Arch::Decoder, PartitionStrategy::TwoD);
    let module = cfg.layer_module();
    let machine = cfg.machine().with_link_bandwidth(1e9);
    let gated = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
        .expect("pipeline");
    let ungated = OverlapPipeline::new(OverlapOptions {
        disable_cost_gate: true,
        ..OverlapOptions::paper_default()
    })
    .run(&module, &machine)
    .expect("pipeline");
    let r_gated = gated.simulation(&machine).run().expect("simulate");
    let r_ungated = ungated.simulation(&machine).run().expect("simulate");
    assert!(gated.summaries.len() <= ungated.summaries.len());
    let base = Simulation::new(&module, &machine).run().expect("baseline").makespan();
    assert!(
        r_gated.makespan() <= base * 1.06,
        "gated {:.4e} vs baseline {:.4e}",
        r_gated.makespan(),
        base
    );
    let _ = r_ungated;
}
