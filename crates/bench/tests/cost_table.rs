//! [`CostTable`] is a cache, not a reinterpretation: for every published
//! model configuration, every entry must be bit-identical to what the
//! per-instruction cost model computes, and simulating through the table
//! must reproduce the uncached report exactly.

use overlap_core::{OverlapOptions, OverlapPipeline};
use overlap_models::table1_models;
use overlap_sim::{instruction_cost, CostTable, InstrCost, Simulation};

fn assert_cost_bits_eq(a: InstrCost, b: InstrCost, ctx: &str) {
    match (a, b) {
        (InstrCost::Free, InstrCost::Free) | (InstrCost::AsyncDone, InstrCost::AsyncDone) => {}
        (
            InstrCost::Compute { seconds: sa, flops: fa },
            InstrCost::Compute { seconds: sb, flops: fb },
        ) => {
            assert_eq!(sa.to_bits(), sb.to_bits(), "{ctx}: compute seconds");
            assert_eq!(fa, fb, "{ctx}: compute flops");
        }
        (InstrCost::Memory { seconds: sa }, InstrCost::Memory { seconds: sb }) => {
            assert_eq!(sa.to_bits(), sb.to_bits(), "{ctx}: memory seconds");
        }
        (
            InstrCost::SyncCollective { seconds: sa },
            InstrCost::SyncCollective { seconds: sb },
        ) => {
            assert_eq!(sa.to_bits(), sb.to_bits(), "{ctx}: collective seconds");
        }
        (InstrCost::AsyncStart(ta), InstrCost::AsyncStart(tb)) => {
            assert_eq!(ta, tb, "{ctx}: transfer class");
        }
        (a, b) => panic!("{ctx}: cost variants differ: {a:?} vs {b:?}"),
    }
}

#[test]
fn cost_table_matches_instruction_cost_over_model_zoo() {
    for cfg in table1_models() {
        let module = cfg.layer_module();
        let machine = cfg.machine();
        let table = CostTable::new(&module, &machine).expect("cost table");
        assert_eq!(table.len(), module.len(), "{}", cfg.name);
        for id in module.ids() {
            assert_cost_bits_eq(
                table.cost(id),
                instruction_cost(&module, id, &machine),
                &format!("{} instr {}", cfg.name, id.index()),
            );
        }
    }
}

#[test]
fn cached_table_simulation_matches_pipeline_output() {
    for cfg in table1_models().into_iter().take(2) {
        let module = cfg.layer_module();
        let machine = cfg.machine();
        let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
            .run(&module, &machine)
            .expect("pipeline");
        // The pipeline's own table and a freshly built one must agree
        // with the uncached simulation entry point.
        let fresh = CostTable::new(&compiled.module, &machine).expect("cost table");
        let via_pipeline_table = compiled.simulation(&machine).run().expect("simulate");
        let built = Simulation::new(&compiled.module, &machine).order(&compiled.order);
        let via_fresh_table = built.table(&fresh).run().expect("simulate");
        let uncached = built.run().expect("simulate");
        assert_eq!(
            via_pipeline_table.makespan().to_bits(),
            uncached.makespan().to_bits(),
            "{}",
            cfg.name
        );
        assert_eq!(
            via_fresh_table.makespan().to_bits(),
            uncached.makespan().to_bits(),
            "{}",
            cfg.name
        );
    }
}
