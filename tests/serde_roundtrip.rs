//! Serialization round-trips and untrusted-input hardening.
//!
//! `overlapc` (and any downstream embedding) exchanges modules as JSON
//! through the workspace's own wire layer (`overlap::json`); these tests
//! pin down that (1) serialization is lossless for both raw and
//! fully-compiled modules, (2) a round-tripped module behaves
//! identically under the simulator and the SPMD interpreter, and
//! (3) `Module::verify` rejects the corruption classes a hostile or
//! buggy producer could introduce (dangling operands, forward
//! references, shape lies, out-of-range outputs).

use overlap::core::{OverlapOptions, OverlapPipeline};
use overlap::hlo::{Builder, DType, DotDims, Module, ReplicaGroups, Shape};
use overlap::json::{FromJson, Json, ToJson};
use overlap::mesh::Machine;
use overlap::numerics::{run_spmd, Literal};
use overlap::sim::Simulation;

fn demo_module(n: usize) -> Module {
    let mut b = Builder::new("roundtrip_demo", n);
    let x = b.parameter(Shape::new(DType::F32, vec![64, 32]), "x");
    let w = b.parameter(Shape::new(DType::F32, vec![32, 128 / n]), "w_shard");
    let wf = b.all_gather(w, 1, ReplicaGroups::full(n), "w");
    let y = b.einsum(x, wf, DotDims::matmul(), "y");
    b.build(vec![y])
}

#[test]
fn module_json_roundtrip_is_lossless() {
    let m = demo_module(4);
    let text = m.to_json().to_string();
    let back = Module::from_json_str(&text).expect("deserialize");
    back.verify().expect("roundtripped module verifies");
    assert_eq!(m, back);
}

#[test]
fn compiled_module_roundtrip_preserves_simulation() {
    // A compiled module exercises the full op vocabulary: async permute
    // pairs, dynamic slices/updates, rank tables, fusion groups.
    let m = demo_module(8);
    let machine = Machine::tpu_v4_like(8);
    let compiled = OverlapPipeline::new(OverlapOptions {
        disable_cost_gate: true,
        ..OverlapOptions::paper_default()
    })
    .run(&m, &machine)
    .expect("pipeline");

    let text = compiled.module.to_json().to_string();
    let back = Module::from_json_str(&text).expect("deserialize");
    back.verify().expect("compiled roundtrip verifies");
    assert_eq!(compiled.module, back);

    let a = compiled.simulation(&machine).run().expect("sim");
    let b = Simulation::new(&back, &machine).order(&compiled.order).run().expect("sim");
    assert_eq!(a.makespan(), b.makespan());
}

#[test]
fn roundtrip_preserves_numerics() {
    let m = demo_module(4);
    let text = m.to_json().to_string();
    let back = Module::from_json_str(&text).expect("deserialize");

    let inputs: Vec<Vec<Literal>> = (0..4)
        .map(|d| {
            m.parameters()
                .iter()
                .enumerate()
                .map(|(p, &id)| {
                    Literal::from_fn(m.shape_of(id).clone(), move |i| {
                        ((i * 31 + p * 7 + d) % 13) as f64 / 7.0 - 0.9
                    })
                })
                .collect()
        })
        .collect();
    let expect = run_spmd(&m, &inputs).expect("original");
    let got = run_spmd(&back, &inputs).expect("roundtrip");
    for (e_dev, g_dev) in expect.iter().zip(&got) {
        for (e, g) in e_dev.iter().zip(g_dev) {
            assert!(e.allclose(g, 1e-12));
        }
    }
}

/// Applies `tamper` to the module's JSON value and asserts the result
/// either fails to decode or fails verification.
fn assert_rejected(tamper: impl FnOnce(&mut Json), what: &str) {
    let m = demo_module(4);
    let mut v = m.to_json();
    tamper(&mut v);
    match Module::from_json(&v) {
        Err(_) => {} // rejected at the decode layer: fine
        Ok(back) => {
            assert!(back.verify().is_err(), "verify must reject: {what}");
        }
    }
}

#[test]
fn verify_rejects_dangling_operand() {
    assert_rejected(
        |v| v["instrs"][3]["operands"][0] = Json::from(999u64),
        "operand id past the arena end",
    );
}

#[test]
fn verify_rejects_forward_reference() {
    // The einsum (index 3) referring to itself breaks the topological
    // arena-order invariant.
    assert_rejected(
        |v| v["instrs"][3]["operands"][0] = Json::from(3u64),
        "self/forward operand reference",
    );
}

#[test]
fn verify_rejects_shape_lie() {
    // Claim the AllGather produces half the gathered size.
    assert_rejected(
        |v| v["instrs"][2]["shape"]["dims"][1] = Json::from(64u64),
        "all-gather output shape inconsistent with groups",
    );
}

#[test]
fn verify_rejects_out_of_range_output() {
    assert_rejected(|v| v["outputs"][0] = Json::from(77u64), "output id out of range");
}

#[test]
fn verify_rejects_zero_partitions() {
    // A replica group mentioning partition 7 on a 2-partition module.
    assert_rejected(
        |v| v["num_partitions"] = Json::from(2u64),
        "replica group member outside the partition count",
    );
}

#[test]
fn chrome_trace_is_valid_json() {
    let m = demo_module(8);
    let machine = Machine::tpu_v4_like(8);
    let report = Simulation::new(&m, &machine).run().expect("sim");
    let trace = report.timeline().to_chrome_trace();
    let parsed = Json::parse(&trace).expect("trace parses");
    let events = parsed
        .as_array()
        .or_else(|| parsed.get("traceEvents").and_then(Json::as_array))
        .expect("trace events array");
    assert!(!events.is_empty());
    for e in events {
        assert!(e.get("name").is_some(), "every event carries a name");
        assert!(e.get("ts").is_some(), "every event carries a timestamp");
    }
}

#[test]
fn report_serializes() {
    let m = demo_module(8);
    let machine = Machine::tpu_v4_like(8);
    let report = Simulation::new(&m, &machine).run().expect("sim");
    let text = report.to_json().to_string();
    assert!(text.contains("makespan"));
}
