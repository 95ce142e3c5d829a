//! Cross-crate checks of compiler internals: pass tags, CSE effect on the
//! emitted loops, and simulator determinism.

use overlap::core::{OverlapOptions, OverlapPipeline};
use overlap::hlo::Op;
use overlap::models::{Arch, ModelConfig, PartitionStrategy};

fn cfg() -> ModelConfig {
    ModelConfig {
        name: "internals".into(),
        params: 0.0,
        layers: 1,
        model_dim: 512,
        ff_dim: 2048,
        batch: 512,
        seq_len: 16,
        chips: 16,
        arch: Arch::Decoder,
        strategy: PartitionStrategy::TwoD,
    }
}

#[test]
fn decomposed_instructions_carry_lce_tags() {
    let module = cfg().layer_module();
    let machine = cfg().machine();
    let compiled = OverlapPipeline::new(OverlapOptions {
        disable_cost_gate: true,
        ..OverlapOptions::paper_default()
    })
    .run(&module, &machine)
    .expect("pipeline");

    let mut tagged_starts = 0usize;
    let mut tagged_einsums = 0usize;
    for (_, ins) in compiled.module.iter() {
        match ins.op() {
            Op::CollectivePermuteStart { .. } => {
                assert!(
                    ins.tag().is_some_and(|t| t.starts_with("lce")),
                    "start {} should carry an lce tag",
                    ins.name()
                );
                tagged_starts += 1;
            }
            Op::Einsum(_)
                if ins.tag() == Some("lce.partial_einsum") => {
                    tagged_einsums += 1;
                }
            _ => {}
        }
    }
    assert!(tagged_starts > 0);
    let expected: usize = compiled.summaries.iter().map(|s| s.partial_einsums).sum();
    assert_eq!(tagged_einsums, expected);
}

#[test]
fn cse_merges_rank_tables_across_loops() {
    // Twelve decomposed loops share at most two distinct replica-group
    // layouts (the x-axis rings and the y-axis rings), so after CSE at
    // most two rank tables remain.
    let module = cfg().layer_module();
    let machine = cfg().machine();
    let compiled = OverlapPipeline::new(OverlapOptions {
        disable_cost_gate: true,
        ..OverlapOptions::paper_default()
    })
    .run(&module, &machine)
    .expect("pipeline");
    assert!(compiled.summaries.len() >= 4, "several loops decomposed");
    let tables = compiled
        .module
        .count_live(|i| matches!(i.op(), Op::ConstantTensor { .. }));
    assert!(
        tables <= 2,
        "expected at most 2 rank tables after CSE, found {tables}"
    );
    // And exactly one partition-id read survives.
    assert_eq!(
        compiled.module.count_live(|i| matches!(i.op(), Op::PartitionId)),
        1
    );
}

#[test]
fn simulation_is_deterministic() {
    let module = cfg().layer_module();
    let machine = cfg().machine();
    let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
        .expect("pipeline");
    let a = compiled.simulation(&machine).run().expect("sim");
    let b = compiled.simulation(&machine).run().expect("sim");
    assert_eq!(a, b, "same module + order must give identical reports");
}

/// The gate's decomposed-compute estimate must track what the emitted
/// partial einsums actually cost in the simulator's model.
#[test]
fn gate_comp_d_matches_emitted_partials() {
    use overlap::core::{decompose, find_patterns, CostModel, StrategySpec};
    use overlap::hlo::ModuleAnalysis;
    use overlap::sim::{instruction_cost, CostTable, InstrCost};

    let module = cfg().layer_module();
    let machine = cfg().machine();
    let cm = CostModel::new(&machine, &StrategySpec::paper_default());
    let patterns = find_patterns(&module, &ModuleAnalysis::of(&module));
    let table = CostTable::new(&module, &machine).expect("cost table");
    let verdicts = cm.select(&table, &module, &patterns, false);
    for (d, plan) in verdicts.into_iter().take(4) {
        let (out, _, _) = decompose(&module, &[plan]);
        let partial_sum: f64 = out
            .iter()
            .filter(|(_, ins)| ins.tag() == Some("lce.partial_einsum"))
            .map(|(id, _)| match instruction_cost(&out, id, &machine) {
                InstrCost::Compute { seconds, .. } => seconds,
                _ => 0.0,
            })
            .sum();
        assert!(
            d.comp_d >= partial_sum - 1e-12,
            "comp_d {:.3e} below the emitted partial cost {partial_sum:.3e}",
            d.comp_d
        );
        assert!(
            d.comp_d <= partial_sum * (1.0 + machine.dma_interference()) + 1e-12,
            "comp_d {:.3e} above the interference-taxed partial cost {:.3e}",
            d.comp_d,
            partial_sum * (1.0 + machine.dma_interference())
        );
    }
}

#[test]
fn compilation_is_deterministic() {
    let module = cfg().layer_module();
    let machine = cfg().machine();
    let a = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
        .expect("pipeline");
    let b = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
        .expect("pipeline");
    assert_eq!(a.module, b.module);
    assert_eq!(a.order, b.order);
}
