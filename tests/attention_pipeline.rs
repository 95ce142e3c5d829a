//! End-to-end overlap pipeline on the full multi-head-attention layer.
//!
//! `tests/equivalence.rs` checks the raw decomposition on this layer;
//! here the *whole* pipeline (§5.5 gate, decomposition, asyncification,
//! overlap-aware fusion, CSE, bottom-up scheduling) runs on the rank-4
//! attention module, and we assert both the performance direction on a
//! realistically-sized layer and numerical equivalence on a small one.

use overlap::core::{OverlapOptions, OverlapPipeline};
use overlap::models::{build_attention_layer, Arch, ModelConfig, PartitionStrategy};
use overlap::numerics::{run_spmd, Literal};
use overlap::sim::Simulation;

fn cfg(model_dim: usize, ff: usize, batch: usize, seq: usize, chips: usize) -> ModelConfig {
    ModelConfig {
        name: "attn_pipeline".into(),
        params: 0.0,
        layers: 1,
        model_dim,
        ff_dim: ff,
        batch,
        seq_len: seq,
        chips,
        arch: Arch::Decoder,
        strategy: PartitionStrategy::TwoD,
    }
}

#[test]
fn pipeline_speeds_up_attention_layer() {
    let c = cfg(4096, 16384, 256, 256, 16);
    let module = build_attention_layer(&c, 32).expect("attention layer");
    let machine = c.machine();
    let baseline = Simulation::new(&module, &machine).run().expect("baseline");
    let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
        .expect("pipeline");
    let over = compiled.simulation(&machine).run().expect("sim");
    let speedup = baseline.makespan() / over.makespan();
    assert!(
        speedup > 1.02,
        "attention layer should benefit from overlap, got {speedup:.3}x"
    );
    // The attention core itself is collective-free, so every decomposed
    // loop belongs to a projection or MLP pattern.
    assert!(!compiled.summaries.is_empty(), "some pattern decomposed");
}

#[test]
fn gate_keeps_attention_layer_non_regressing() {
    // Even at sizes where decomposition barely pays, the §5.5 gate must
    // keep the compiled module at least as fast as the baseline (within
    // the estimator's documented tolerance).
    for (d, f, b, s) in [(256, 1024, 32, 32), (1024, 4096, 64, 64)] {
        let c = cfg(d, f, b, s, 16);
        let module = build_attention_layer(&c, 16).expect("attention layer");
        let machine = c.machine();
        let baseline = Simulation::new(&module, &machine).run().expect("baseline").makespan();
        let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
            .run(&module, &machine)
            .expect("pipeline");
        let over = compiled.simulation(&machine).run().expect("sim").makespan();
        assert!(
            over <= baseline * 1.06,
            "gate let a regression through at d={d}: {:.3} ms -> {:.3} ms",
            baseline * 1e3,
            over * 1e3
        );
    }
}

#[test]
fn full_pipeline_preserves_attention_numerics() {
    // Small enough for the interpreter, large enough that every einsum
    // is genuinely partitioned on the [2, 2] mesh.
    let c = cfg(32, 64, 4, 8, 4);
    let module = build_attention_layer(&c, 4).expect("attention layer");
    let machine = c.machine();
    let compiled = OverlapPipeline::new(OverlapOptions {
        disable_cost_gate: true, // force decomposition regardless of benefit
        ..OverlapOptions::paper_default()
    })
    .run(&module, &machine)
    .expect("pipeline");
    compiled.module.verify().expect("compiled verifies");

    let n = module.num_partitions();
    let params = module.parameters();
    assert_eq!(params.len(), compiled.module.parameters().len());
    let inputs: Vec<Vec<Literal>> = (0..n)
        .map(|d| {
            params
                .iter()
                .enumerate()
                .map(|(p, &id)| {
                    Literal::from_fn(module.shape_of(id).clone(), move |i| {
                        let x = (i as u64 + 1)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add((d * 37 + p) as u64);
                        ((x >> 40) % 512) as f64 / 256.0 - 1.0
                    })
                })
                .collect()
        })
        .collect();
    let expect = run_spmd(&module, &inputs).expect("original runs");
    let got = run_spmd(&compiled.module, &inputs).expect("compiled runs");
    assert_eq!(expect.len(), got.len());
    for (o, (e_dev, g_dev)) in expect.iter().zip(&got).enumerate() {
        for d in 0..n {
            assert!(
                e_dev[d].allclose(&g_dev[d], 1e-9),
                "output {o} device {d}: max abs diff {}",
                e_dev[d].max_abs_diff(&g_dev[d])
            );
        }
    }
}
