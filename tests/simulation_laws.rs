//! The laws of the `Simulation` request on a published model.
//!
//! `overlap-sim`'s unit tests state the same laws on a seven-instruction
//! module with a hand-written order; this states them where they are
//! relied on — a Table-1 layer compiled by the real pipeline, over
//! {arena, scheduled order} × {table given, built} — and adds the one
//! law only this level can: `Compiled::simulation` is exactly the
//! spelled-out request.

use overlap::core::{OverlapOptions, OverlapPipeline};
use overlap::mesh::FaultSpec;
use overlap::models::find_model;
use overlap::sim::{SimError, Simulation};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn simulation_laws_hold_on_a_table1_model() {
    let cfg = find_model("T5_300B").expect("a Table-1 model");
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
        .expect("pipeline");
    let m = &compiled.module;
    let given = &compiled.cost_table;
    let noop = FaultSpec::default();
    let spec = FaultSpec::seeded(7)
        .with_straggler(0, 1.5)
        .with_derated_link_fraction(machine.mesh(), 0.25, 0.5)
        .with_jitter(1e-5);

    // The pre-filled request is the spelled-out one.
    let spelled = Simulation::new(m, &machine).order(&compiled.order).table(given);
    assert_eq!(compiled.simulation(&machine).run(), spelled.run());

    let arena = m.arena_order();
    for order in [&arena, &compiled.order] {
        let built = Simulation::new(m, &machine).order(order);
        let pristine = built.run().expect("simulates");
        let faulted = built.faults(Some(&spec));
        for sim in [built, built.table(given)] {
            // Given and built tables are the same table.
            assert_eq!(sim.run().unwrap(), pristine);
            assert_eq!(sim.repeated(3).unwrap(), built.repeated(3).unwrap());
            let under = sim.faults(Some(&spec));
            assert_eq!(under.run().unwrap(), faulted.run().unwrap());
            assert_eq!(bits(&under.tail(4).unwrap()), bits(&faulted.tail(4).unwrap()));

            // The no-op spec is the pristine machine.
            let idle = sim.faults(Some(&noop));
            assert_eq!(idle.run().unwrap(), pristine);
            assert_eq!(idle.repeated(2).unwrap(), sim.repeated(2).unwrap());
            assert_eq!(bits(&idle.tail(2).unwrap()), bits(&[pristine.makespan(); 2]));

            // One repetition is one run; zero of anything is an error.
            for sim in [sim, under] {
                assert_eq!(sim.repeated(1).unwrap(), sim.run().unwrap());
                assert_eq!(sim.repeated(0), Err(SimError::ZeroRepetitions));
                assert_eq!(sim.tail(0), Err(SimError::ZeroRepetitions));
            }

            // Draw i does not depend on how many draws follow it, and no
            // fault realization beats the pristine machine.
            let draws = under.tail(4).unwrap();
            assert_eq!(bits(&draws[..2]), bits(&under.tail(2).unwrap()));
            assert!(draws.iter().all(|&d| d >= pristine.makespan()));
        }
    }
}
