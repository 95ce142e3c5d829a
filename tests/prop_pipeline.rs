//! End-to-end fuzz: random mesh shapes and MLP sizes go through the Fig. 3
//! builder, the full overlap pipeline (gate disabled so everything
//! decomposes) and the SPMD interpreter; outputs must match the original
//! and the simulator must accept every schedule.

use overlap::core::{OverlapOptions, OverlapPipeline, SchedulerKind};
use overlap::hlo::Module;
use overlap::mesh::{DeviceMesh, Machine};
use overlap::numerics::{run_spmd, Literal};
use overlap::sharding::mlp::{fig3_forward, MlpConfig};
use proptest::prelude::*;

fn inputs_for(module: &Module, seed: u64) -> Vec<Vec<Literal>> {
    (0..module.num_partitions())
        .map(|d| {
            module
                .parameters()
                .iter()
                .enumerate()
                .map(|(p, &id)| {
                    Literal::from_fn(module.shape_of(id).clone(), move |i| {
                        let x = (i as u64 + 1)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add(seed + (d * 31 + p * 7) as u64);
                        ((x >> 41) % 64) as f64 / 16.0 - 2.0
                    })
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_fig3_mlps_survive_the_pipeline(
        mesh_m in 2usize..4,
        mesh_n in 2usize..4,
        batch_mult in 1usize..3,
        feat_mult in 1usize..3,
        hid_mult in 1usize..3,
        scheduler_pick in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let mesh = DeviceMesh::new(vec![mesh_m, mesh_n]);
        // Sizes must divide both axes; lcm(2..4) = 12 keeps it safe.
        let cfg = MlpConfig {
            batch: 12 * batch_mult,
            feature: 12 * feat_mult,
            hidden: 12 * hid_mult,
        };
        let module = fig3_forward(&mesh, cfg).expect("builds");
        let machine = Machine::with_mesh(mesh);
        let scheduler =
            if scheduler_pick == 0 { SchedulerKind::BottomUp } else { SchedulerKind::TopDown };
        let compiled = OverlapPipeline::new(OverlapOptions {
            disable_cost_gate: true,
            scheduler,
            ..OverlapOptions::paper_default()
        })
        .run(&module, &machine)
        .expect("pipeline");
        prop_assert!(!compiled.summaries.is_empty());

        // The schedule simulates (validity) …
        let report = compiled.simulation(&machine).run().expect("simulates");
        prop_assert!(report.makespan() > 0.0);

        // … and the program still computes the same values.
        let inputs = inputs_for(&module, seed);
        let expect = run_spmd(&module, &inputs).expect("original runs");
        let got = run_spmd(&compiled.module, &inputs).expect("compiled runs");
        for d in 0..module.num_partitions() {
            prop_assert!(
                expect[0][d].allclose(&got[0][d], 1e-9),
                "device {d}: diff {}",
                expect[0][d].max_abs_diff(&got[0][d])
            );
        }
    }
}
