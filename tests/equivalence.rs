//! Semantic-equivalence tests for the looped collective-einsum rewrite.
//!
//! The paper's transformation claims to be "semantically equivalent to the
//! original collective-computation operation pair" (§1). These tests check
//! that claim mechanically: for every AllGather case (free / contracting /
//! batch partitioned dimension), the ReduceScatter case, every §5.4
//! optimization (unrolling, bidirectional transfer, pad-max concat) and
//! several ring lengths and subgroup layouts, the transformed module must
//! produce the same per-device outputs as the original under the SPMD
//! interpreter.

use overlap::core::{
    decompose, find_patterns, fuse, FusionOptions, LoopPlan, PatternStrategy, RingDirection,
};
use overlap::hlo::{Builder, DType, DotDims, Module, ModuleAnalysis, ReplicaGroups, Shape};
use overlap::mesh::{Axis, DeviceMesh};
use overlap::numerics::{run_spmd, Literal};
use overlap::sharding::mlp::{fig3_forward, MlpConfig};

fn f32s(dims: &[usize]) -> Shape {
    Shape::new(DType::F32, dims.to_vec())
}

/// Deterministic pseudo-random literal (values in roughly [-1, 1]).
fn test_literal(shape: &Shape, seed: u64) -> Literal {
    Literal::from_fn(shape.clone(), move |i| {
        let x = (i as u64 + 1).wrapping_mul(6364136223846793005).wrapping_add(seed);
        
        ((x >> 33) % 2048) as f64 / 1024.0 - 1.0
    })
}

/// Runs `original` and its transformed version on identical random inputs
/// and asserts per-device output equality.
fn assert_equivalent(original: &Module, transformed: &Module, tol: f64) {
    original.verify().expect("original verifies");
    transformed.verify().expect("transformed verifies");
    let n = original.num_partitions();
    let params = original.parameters();
    assert_eq!(params.len(), transformed.parameters().len(), "parameter count preserved");
    let inputs: Vec<Vec<Literal>> = (0..n)
        .map(|d| {
            params
                .iter()
                .enumerate()
                .map(|(p, &id)| {
                    test_literal(original.shape_of(id), (d * 131 + p * 17 + 7) as u64)
                })
                .collect()
        })
        .collect();
    let expect = run_spmd(original, &inputs).expect("original runs");
    let got = run_spmd(transformed, &inputs).expect("transformed runs");
    assert_eq!(expect.len(), got.len(), "output arity");
    for (o, (e_dev, g_dev)) in expect.iter().zip(&got).enumerate() {
        for d in 0..n {
            assert!(
                e_dev[d].allclose(&g_dev[d], tol),
                "output {o} differs on device {d}: max abs diff {}",
                e_dev[d].max_abs_diff(&g_dev[d])
            );
        }
    }
}

fn all_option_combos() -> Vec<PatternStrategy> {
    let mut v = Vec::new();
    for unroll in [false, true] {
        for ring in [RingDirection::Unidirectional, RingDirection::Bidirectional] {
            for pad_max_concat in [false, true] {
                // Chunked windows only engage on the unidirectional
                // all-gather path; infeasible widths fall back to 1, so
                // every combination stays numerically checkable.
                for chunk in [1, 2] {
                    // Exact-equivalence suite: wire stays lossless.
                    v.push(PatternStrategy {
                        unroll,
                        ring,
                        pad_max_concat,
                        chunk,
                        ..Default::default()
                    });
                }
            }
        }
    }
    v
}

fn check_all_variants(m: &Module) {
    let mut patterns = find_patterns(m, &ModuleAnalysis::of(m));
    assert!(!patterns.is_empty(), "module must contain a decomposable pattern");
    // At most one pattern per einsum (the pipeline's cost gate normally
    // guarantees this); keep the first candidate.
    let mut seen = std::collections::HashSet::new();
    patterns.retain(|p| seen.insert(p.einsum));
    for knobs in all_option_combos() {
        let plans: Vec<_> =
            patterns.iter().map(|p| LoopPlan::new(m, p, &knobs, knobs.ring)).collect();
        let (out, summaries, _) = decompose(m, &plans);
        assert_eq!(summaries.len(), patterns.len(), "every pattern decomposed");
        assert_equivalent(m, &out, 1e-9);
    }
}

/// Case 1: the gathered dimension is a free (non-contracting) dimension.
fn ag_free_module(n: usize, gathered_is_lhs: bool) -> Module {
    let mut b = Builder::new("ag_free", n);
    if gathered_is_lhs {
        // LHS [M, K] gathered along M (free).
        let xs = b.parameter(f32s(&[2, 6]), "x_shard");
        let w = b.parameter(f32s(&[6, 5]), "w");
        let x = b.all_gather(xs, 0, ReplicaGroups::full(n), "x");
        let e = b.einsum(x, w, DotDims::matmul(), "e");
        b.build(vec![e])
    } else {
        // RHS [K, N] gathered along N (free).
        let x = b.parameter(f32s(&[4, 6]), "x");
        let ws = b.parameter(f32s(&[6, 3]), "w_shard");
        let w = b.all_gather(ws, 1, ReplicaGroups::full(n), "w");
        let e = b.einsum(x, w, DotDims::matmul(), "e");
        b.build(vec![e])
    }
}

/// Case 2: the gathered dimension is contracting.
fn ag_contracting_module(n: usize, gathered_is_lhs: bool) -> Module {
    let mut b = Builder::new("ag_contract", n);
    if gathered_is_lhs {
        let xs = b.parameter(f32s(&[4, 3]), "x_shard"); // K sharded
        let w = b.parameter(f32s(&[3 * n, 5]), "w");
        let x = b.all_gather(xs, 1, ReplicaGroups::full(n), "x");
        let e = b.einsum(x, w, DotDims::matmul(), "e");
        b.build(vec![e])
    } else {
        let x = b.parameter(f32s(&[4, 3 * n]), "x");
        let ws = b.parameter(f32s(&[3, 5]), "w_shard");
        let w = b.all_gather(ws, 0, ReplicaGroups::full(n), "w");
        let e = b.einsum(x, w, DotDims::matmul(), "e");
        b.build(vec![e])
    }
}

/// Case 3: the gathered dimension is a batch dimension.
fn ag_batch_module(n: usize, gathered_is_lhs: bool) -> Module {
    let mut b = Builder::new("ag_batch", n);
    if gathered_is_lhs {
        let xs = b.parameter(f32s(&[2, 3, 4]), "x_shard"); // B sharded
        let w = b.parameter(f32s(&[2 * n, 4, 5]), "w");
        let x = b.all_gather(xs, 0, ReplicaGroups::full(n), "x");
        let e = b.einsum(x, w, DotDims::batch_matmul(), "e");
        b.build(vec![e])
    } else {
        let x = b.parameter(f32s(&[2 * n, 3, 4]), "x");
        let ws = b.parameter(f32s(&[2, 4, 5]), "w_shard");
        let w = b.all_gather(ws, 0, ReplicaGroups::full(n), "w");
        let e = b.einsum(x, w, DotDims::batch_matmul(), "e");
        b.build(vec![e])
    }
}

/// Einsum → ReduceScatter with the scattered dim owned by one operand.
fn rs_module(n: usize, scatter_lhs_dim: bool) -> Module {
    let mut b = Builder::new("rs", n);
    let x = b.parameter(f32s(&[2 * n, 6]), "x");
    let w = b.parameter(f32s(&[6, 3 * n]), "w");
    let e = b.einsum(x, w, DotDims::matmul(), "e");
    let rs = if scatter_lhs_dim {
        b.reduce_scatter(e, 0, ReplicaGroups::full(n), "rs")
    } else {
        b.reduce_scatter(e, 1, ReplicaGroups::full(n), "rs")
    };
    b.build(vec![rs])
}

#[test]
fn ag_free_dim_all_variants() {
    for n in [2, 3, 4] {
        for lhs in [false, true] {
            check_all_variants(&ag_free_module(n, lhs));
        }
    }
}

#[test]
fn ag_contracting_dim_all_variants() {
    for n in [2, 3, 4] {
        for lhs in [false, true] {
            check_all_variants(&ag_contracting_module(n, lhs));
        }
    }
}

#[test]
fn ag_batch_dim_all_variants() {
    for n in [2, 3, 4] {
        for lhs in [false, true] {
            check_all_variants(&ag_batch_module(n, lhs));
        }
    }
}

#[test]
fn einsum_rs_all_variants() {
    for n in [2, 3, 4, 8] {
        for lhs_dim in [false, true] {
            check_all_variants(&rs_module(n, lhs_dim));
        }
    }
}

#[test]
fn subgroup_rings_on_2d_mesh() {
    // Collectives along one axis of a [2, 4] mesh: each ring is a subgroup
    // of 4 partitions and the rank table is non-trivial.
    let mesh = DeviceMesh::new(vec![2, 4]);
    let n = mesh.num_devices();
    let groups = mesh.axis_groups(Axis(1));

    // AllGather case along the y axis.
    let mut b = Builder::new("sub_ag", n);
    let x = b.parameter(f32s(&[4, 8]), "x");
    let ws = b.parameter(f32s(&[8, 2]), "w_shard");
    let w = b.all_gather(ws, 1, groups.clone(), "w");
    let e = b.einsum(x, w, DotDims::matmul(), "e");
    let m = b.build(vec![e]);
    check_all_variants(&m);

    // ReduceScatter case along the y axis.
    let mut b = Builder::new("sub_rs", n);
    let x = b.parameter(f32s(&[4, 8]), "x");
    let w = b.parameter(f32s(&[8, 12]), "w");
    let e = b.einsum(x, w, DotDims::matmul(), "e");
    let rs = b.reduce_scatter(e, 1, groups, "rs");
    let m = b.build(vec![rs]);
    check_all_variants(&m);
}

#[test]
fn fused_module_stays_equivalent() {
    // Fusion is a grouping annotation; it must not change values, with
    // either heuristic.
    let m = rs_module(4, false);
    let knobs = PatternStrategy::default();
    let plans: Vec<_> = find_patterns(&m, &ModuleAnalysis::of(&m))
        .iter()
        .map(|p| LoopPlan::new(&m, p, &knobs, knobs.ring))
        .collect();
    let (out, _, analysis) = decompose(&m, &plans);
    for overlap_aware in [false, true] {
        let fused = fuse(out.clone(), &analysis, &FusionOptions { overlap_aware });
        assert_equivalent(&m, &fused, 1e-9);
    }
}

#[test]
fn fig3_mlp_pipeline_equivalence() {
    // The full Fig. 3 two-layer MLP on a 2-D mesh: three AllGathers and a
    // ReduceScatter, all decomposed at once.
    let mesh = DeviceMesh::new(vec![2, 2]);
    let m = fig3_forward(&mesh, MlpConfig { batch: 8, feature: 8, hidden: 8 }).unwrap();
    check_all_variants(&m);
}

#[test]
fn attention_layer_decomposes_equivalently() {
    // The full multi-head attention layer (rank-4 activations, batched
    // attention einsums) on a [2, 2] mesh: every decomposable pattern in
    // it must stay numerically exact through the rewrite.
    let cfg = overlap::models::ModelConfig {
        name: "attn_eq".into(),
        params: 0.0,
        layers: 1,
        model_dim: 8,
        ff_dim: 16,
        batch: 4,
        seq_len: 4,
        chips: 4,
        arch: overlap::models::Arch::Decoder,
        strategy: overlap::models::PartitionStrategy::TwoD,
    };
    let m = overlap::models::build_attention_layer(&cfg, 4).unwrap();
    check_all_variants(&m);
}

/// A Table-1-shaped configuration scaled down until `run_spmd` can
/// execute the full stacked forward/backward module in a test.
fn tiny_stacked_config() -> overlap::models::ModelConfig {
    overlap::models::ModelConfig {
        name: "win_eq".into(),
        params: 0.0,
        layers: 2,
        model_dim: 8,
        ff_dim: 16,
        batch: 4,
        seq_len: 4,
        chips: 4,
        arch: overlap::models::Arch::Decoder,
        strategy: overlap::models::PartitionStrategy::TwoD,
    }
}

#[test]
fn windowed_pipeline_compile_stays_equivalent() {
    // The cross-layer scheduling window reorders instructions and widens
    // what the decomposition may overlap, but the compiled module must
    // stay a pure refinement: same per-device outputs as the original
    // stacked forward/backward module at every window width.
    use overlap::core::{OverlapOptions, OverlapPipeline, StrategySpec};
    let cfg = tiny_stacked_config();
    let module = cfg.window_module(2);
    let machine = cfg.machine();
    for window in [1usize, 2] {
        let options = OverlapOptions::with_strategy(
            StrategySpec::paper_default().with_window_layers(window),
        );
        let compiled =
            OverlapPipeline::new(options).run(&module, &machine).expect("windowed compile");
        assert_equivalent(&module, &compiled.module, 1e-9);
    }
}

#[test]
fn window_one_is_byte_identical_on_single_scope_modules() {
    // Every committed figure compiles single-scope (untagged) modules;
    // `window_layers` must leave those artifacts byte-identical, both at
    // the default width of 1 and at any wider setting.
    use overlap::core::{OverlapOptions, OverlapPipeline, StrategySpec};
    let cfg = tiny_stacked_config();
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let compile = |window: usize| {
        let options = OverlapOptions::with_strategy(
            StrategySpec::paper_default().with_window_layers(window),
        );
        OverlapPipeline::new(options).run(&module, &machine).expect("compile")
    };
    let default = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
        .expect("default compile");
    for window in [1usize, 4] {
        let windowed = compile(window);
        assert_eq!(default.order, windowed.order, "window {window} must be inert");
        assert_eq!(
            default.module.identity_fingerprint(),
            windowed.module.identity_fingerprint(),
            "window {window} changed the compiled module"
        );
    }
}

#[test]
fn chained_patterns_decompose_together() {
    // Two dependent AG-einsum layers (Fig. 2 style): both decomposed.
    let n = 4;
    let mut b = Builder::new("two_layers", n);
    let x = b.parameter(f32s(&[2, 8]), "x");
    let w1s = b.parameter(f32s(&[8, 3]), "w1_shard");
    let w2s = b.parameter(f32s(&[3, 2]), "w2_shard");
    let w1 = b.all_gather(w1s, 1, ReplicaGroups::full(n), "w1");
    let h = b.einsum(x, w1, DotDims::matmul(), "h");
    let w2 = b.all_gather(w2s, 0, ReplicaGroups::full(n), "w2");
    let y = b.einsum(h, w2, DotDims::matmul(), "y");
    let m = b.build(vec![y]);
    assert_eq!(find_patterns(&m, &ModuleAnalysis::of(&m)).len(), 2);
    check_all_variants(&m);
}
