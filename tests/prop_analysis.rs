//! Properties of the shared `ModuleAnalysis` layer: the tables the
//! builder maintains append-by-append (users, liveness, fusion) must be
//! indistinguishable from a from-scratch recomputation after every pass
//! of the pipeline, and the incremental verifier must accept exactly what
//! the full verifier accepts. (That the value-numbering decompose lands
//! on the exact module decompose-then-CSE produces is a unit test of
//! `overlap-core`'s decompose pass, which owns the unnumbered reference.)

use overlap::core::{decompose, find_patterns, fuse, split_all_reduces, CostModel, OverlapOptions};
use overlap::hlo::{Module, ModuleAnalysis};
use overlap::mesh::{DeviceMesh, Machine};
use overlap::models::table1_models;
use overlap::sharding::mlp::{fig3_forward, MlpConfig};
use overlap::sim::CostTable;
use proptest::prelude::*;

/// Asserts the maintained tables match `ModuleAnalysis::of` recomputed
/// from scratch on `module`.
fn assert_analysis_fresh(module: &Module, analysis: &ModuleAnalysis, what: &str) {
    let fresh = ModuleAnalysis::of(module);
    assert_eq!(analysis.len(), module.len(), "{what}: analysis length");
    assert_eq!(analysis.users(), fresh.users(), "{what}: users table diverged");
    assert_eq!(analysis.fusion(), fresh.fusion(), "{what}: fusion table diverged");
    assert_eq!(analysis.live(), fresh.live(), "{what}: liveness diverged");
}

/// Drives `module` through every analysis-threaded pass, checking the
/// maintained tables against recomputation after each rewrite, and the
/// incremental verifier against the full one at the ends.
fn check_pipeline_analyses(module: &Module, machine: &Machine, options: &OverlapOptions) {
    module.verify().expect("input verifies");

    // The reassociation pre-pass (identity rebuild on models without
    // all-reduces — the maintained tables must still be exact).
    let (split, split_analysis) = split_all_reduces(module);
    assert_analysis_fresh(&split, &split_analysis, "split_all_reduces");

    let mut analysis = ModuleAnalysis::of(module);
    analysis.mark_verified(module);
    let patterns = find_patterns(module, &analysis);
    let table = CostTable::with_analysis(module, &analysis, machine).expect("cost table");
    let cost_model = CostModel::new(machine, &options.strategy);
    let selected: Vec<_> = cost_model
        .select(&table, module, &patterns, true)
        .into_iter()
        .map(|(_, plan)| plan)
        .collect();

    // Decompose: the value-numbering builder maintains the tables while
    // merging duplicates at append time.
    let (decomposed, _summaries, mut analysis) = decompose(module, &selected);
    assert_analysis_fresh(&decomposed, &analysis, "decompose");

    let final_module = match options.fusion_options() {
        Some(fopts) => {
            let fused = fuse(decomposed, &analysis, &fopts);
            analysis.refresh_fusion(&fused);
            assert_analysis_fresh(&fused, &analysis, "fuse");
            fused
        }
        None => decomposed,
    };

    // Incremental and full verification agree on the final module.
    let full = final_module.verify();
    let inc = final_module.verify_incremental(&mut analysis);
    assert_eq!(full.is_ok(), inc.is_ok(), "verifier divergence: {full:?} vs {inc:?}");
    full.expect("final module verifies");

    // And from a cold (unverified) analysis as well.
    let mut cold = ModuleAnalysis::of(&final_module);
    assert!(final_module.verify_incremental(&mut cold).is_ok());
    assert_eq!(cold.verified_len(), final_module.len());
}

/// Every Table-1 zoo model keeps exact maintained analyses through the
/// whole pass sequence, under the paper's default options.
#[test]
fn zoo_models_keep_exact_maintained_analyses() {
    let options = OverlapOptions::paper_default();
    for cfg in table1_models() {
        let module = cfg.layer_module();
        let machine = cfg.machine();
        check_pipeline_analyses(&module, &machine, &options);
    }
}

/// One random-MLP draw of the property: build a Fig. 3 MLP on an
/// `mesh_m × mesh_n` mesh and drive it through [`check_pipeline_analyses`].
fn check_fig3_draw(
    mesh_m: usize,
    mesh_n: usize,
    batch_mult: usize,
    feat_mult: usize,
    hid_mult: usize,
    bidirectional: bool,
) {
    let mesh = DeviceMesh::new(vec![mesh_m, mesh_n]);
    let cfg = MlpConfig {
        batch: 12 * batch_mult,
        feature: 12 * feat_mult,
        hidden: 12 * hid_mult,
    };
    let module = fig3_forward(&mesh, cfg).expect("builds");
    let machine = Machine::with_mesh(mesh);
    let ring = if bidirectional {
        overlap::core::RingDirection::Bidirectional
    } else {
        overlap::core::RingDirection::Unidirectional
    };
    let options = OverlapOptions::with_strategy(
        overlap::core::StrategySpec::paper_default().with_ring(ring),
    );
    check_pipeline_analyses(&module, &machine, &options);
}

/// Fixed corner draws of the random-MLP property (the proptest below
/// explores the space; this pins the corners deterministically).
#[test]
fn fig3_mlp_corner_draws_keep_exact_maintained_analyses() {
    check_fig3_draw(2, 2, 1, 1, 1, false);
    check_fig3_draw(2, 2, 1, 1, 1, true);
    check_fig3_draw(3, 2, 2, 1, 2, true);
    check_fig3_draw(3, 3, 2, 2, 2, false);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random Fig. 3 MLPs (the prop_pipeline generator) keep exact
    /// maintained analyses through the pass sequence too.
    #[test]
    fn random_fig3_mlps_keep_exact_maintained_analyses(
        mesh_m in 2usize..4,
        mesh_n in 2usize..4,
        batch_mult in 1usize..3,
        feat_mult in 1usize..3,
        hid_mult in 1usize..3,
        bidirectional in 0u8..2,
    ) {
        check_fig3_draw(mesh_m, mesh_n, batch_mult, feat_mult, hid_mult, bidirectional == 1);
    }
}
