//! Properties of the structural fingerprint behind the artifact cache.
//!
//! The cache key must be (1) stable across JSON round-trips, (2) stable
//! under renaming (names are reporting metadata; the cache separately
//! guards exact identity before serving a hit), and (3) sensitive to
//! every structural edit — the same corruption catalogue that
//! `tests/serde_roundtrip.rs` feeds to `Module::verify` must also flip
//! the fingerprint, or a corrupt cache file could masquerade as a hit.

use overlap::hlo::{Builder, DType, DotDims, Module, ReplicaGroups, Shape};
use overlap::json::{FromJson, Json, ToJson};
use proptest::prelude::*;

fn demo_module(n: usize, names: [&str; 4]) -> Module {
    let mut b = Builder::new("fp_demo", n);
    let x = b.parameter(Shape::new(DType::F32, vec![64, 32]), names[0]);
    let w = b.parameter(Shape::new(DType::F32, vec![32, 128 / n]), names[1]);
    let wf = b.all_gather(w, 1, ReplicaGroups::full(n), names[2]);
    let y = b.einsum(x, wf, DotDims::matmul(), names[3]);
    b.build(vec![y])
}

#[test]
fn fingerprint_is_stable_across_json_roundtrips() {
    for n in [2usize, 4, 8] {
        let m = demo_module(n, ["x", "w_shard", "w", "y"]);
        let back = Module::from_json_str(&m.to_json().to_string()).expect("decode");
        assert_eq!(m.fingerprint(), back.fingerprint(), "structural key drifted (n={n})");
        assert_eq!(
            m.identity_fingerprint(),
            back.identity_fingerprint(),
            "identity key drifted (n={n})"
        );
    }
}

#[test]
fn fingerprint_ignores_names_but_identity_does_not() {
    let a = demo_module(4, ["x", "w_shard", "w", "y"]);
    let b = demo_module(4, ["act", "wt", "gathered", "out"]);
    assert_eq!(a.fingerprint(), b.fingerprint(), "renaming must not change the cache key");
    assert_ne!(
        a.identity_fingerprint(),
        b.identity_fingerprint(),
        "the hit guard must tell renamed modules apart"
    );
}

#[test]
fn renaming_through_the_wire_preserves_the_structural_key() {
    // Rename via the JSON layer (the path an external producer takes)
    // rather than the builder.
    let m = demo_module(4, ["x", "w_shard", "w", "y"]);
    let mut v = m.to_json();
    v["name"] = Json::from("something_else");
    for i in 0..4 {
        v["instrs"][i]["name"] = Json::from(format!("renamed_{i}"));
    }
    let renamed = Module::from_json(&v).expect("renamed module decodes");
    renamed.verify().expect("renaming keeps the module valid");
    assert_eq!(m.fingerprint(), renamed.fingerprint());
    assert_ne!(m.identity_fingerprint(), renamed.identity_fingerprint());
}

/// Applies `tamper` to the module's JSON and asserts that, whenever the
/// result still decodes, its structural fingerprint differs from the
/// original's. These are exactly the corruption classes
/// `tests/serde_roundtrip.rs` shows `Module::verify` rejecting; the
/// fingerprint must flip on them too so the cache detects stale or
/// corrupt entries by mismatch instead of trusting the file name.
fn assert_fingerprint_flips(tamper: impl FnOnce(&mut Json), what: &str) {
    let m = demo_module(4, ["x", "w_shard", "w", "y"]);
    let fp = m.fingerprint();
    let mut v = m.to_json();
    tamper(&mut v);
    if let Ok(mutated) = Module::from_json(&v) {
        assert_ne!(mutated.fingerprint(), fp, "fingerprint blind to: {what}");
    }
}

#[test]
fn fingerprint_flips_on_dangling_operand() {
    assert_fingerprint_flips(
        |v| v["instrs"][3]["operands"][0] = Json::from(999u64),
        "operand id past the arena end",
    );
}

#[test]
fn fingerprint_flips_on_forward_reference() {
    assert_fingerprint_flips(
        |v| v["instrs"][3]["operands"][0] = Json::from(3u64),
        "self/forward operand reference",
    );
}

#[test]
fn fingerprint_flips_on_shape_edit() {
    assert_fingerprint_flips(
        |v| v["instrs"][2]["shape"]["dims"][1] = Json::from(64u64),
        "all-gather output shape edit",
    );
}

#[test]
fn fingerprint_flips_on_output_rewire() {
    assert_fingerprint_flips(|v| v["outputs"][0] = Json::from(2u64), "entry output rewired");
}

#[test]
fn fingerprint_flips_on_partition_count_change() {
    assert_fingerprint_flips(
        |v| v["num_partitions"] = Json::from(2u64),
        "partition count change",
    );
}

#[test]
fn fingerprint_flips_on_operand_swap() {
    // Swapping einsum operands is structural even though every
    // instruction keeps its own cone hash.
    assert_fingerprint_flips(
        |v| {
            let lhs = v["instrs"][3]["operands"][0].clone();
            let rhs = v["instrs"][3]["operands"][1].clone();
            v["instrs"][3]["operands"][0] = rhs;
            v["instrs"][3]["operands"][1] = lhs;
        },
        "einsum operand swap",
    );
}

#[test]
fn fingerprint_flips_on_wire_annotation() {
    // The precision annotation is structural: a quantized collective
    // computes different bytes, so a cached lossless artifact must not
    // serve a quantized request (or vice versa).
    use overlap::hlo::{Op, WireFormat};
    let m = demo_module(4, ["x", "w_shard", "w", "y"]);
    let ag = m
        .ids()
        .find(|&id| matches!(m.instr(id).op(), Op::AllGather { .. }))
        .expect("collective");
    let fps: Vec<_> = [WireFormat::Bf16, WireFormat::int8(), WireFormat::Int8Block { block: 128 }]
        .into_iter()
        .map(|wire| {
            let mut q = m.clone();
            q.set_wire(ag, wire).expect("annotate");
            q.verify().expect("annotated module stays valid");
            // The annotation must also survive the JSON codec exactly.
            let back = Module::from_json_str(&q.to_json().to_string()).expect("decode");
            assert_eq!(back.instr(ag).op().wire(), wire, "wire lost in the codec");
            assert_eq!(q.fingerprint(), back.fingerprint());
            q.fingerprint()
        })
        .collect();
    assert_ne!(fps[0], m.fingerprint(), "bf16 annotation must flip the key");
    assert_ne!(fps[1], m.fingerprint(), "int8 annotation must flip the key");
    assert_ne!(fps[0], fps[1], "distinct wire formats must get distinct keys");
    assert_ne!(fps[1], fps[2], "distinct int8 block sizes must get distinct keys");
}

#[test]
fn lossless_wire_is_codec_and_fingerprint_invisible() {
    // An explicit lossless annotation is the default: no JSON field, no
    // hash bytes — old cache entries and old serialized modules stay
    // byte-identical.
    use overlap::hlo::{Op, WireFormat};
    let m = demo_module(4, ["x", "w_shard", "w", "y"]);
    let ag = m
        .ids()
        .find(|&id| matches!(m.instr(id).op(), Op::AllGather { .. }))
        .expect("collective");
    let mut q = m.clone();
    q.set_wire(ag, WireFormat::Lossless).expect("annotate");
    assert_eq!(m.fingerprint(), q.fingerprint());
    assert_eq!(m.to_json().to_string(), q.to_json().to_string());
    assert!(!m.to_json().to_string().contains("wire"));
}

#[test]
fn distinct_partitionings_get_distinct_keys() {
    let fps: Vec<_> = [2usize, 4, 8]
        .into_iter()
        .map(|n| demo_module(n, ["x", "w_shard", "w", "y"]).fingerprint())
        .collect();
    assert_ne!(fps[0], fps[1]);
    assert_ne!(fps[1], fps[2]);
    assert_ne!(fps[0], fps[2]);
}

proptest! {
    /// Random draws of the round-trip + rename properties: any
    /// partitioning and any names must round-trip to the same structural
    /// key, and a rename must never change it.
    #[test]
    fn roundtrip_and_rename_properties_hold(
        shards in prop::sample::select(vec![2usize, 4, 8, 16]),
        suffix in "[a-z]{1,8}",
    ) {
        let names = [
            format!("x_{suffix}"),
            format!("w_{suffix}"),
            format!("wf_{suffix}"),
            format!("y_{suffix}"),
        ];
        let named: [&str; 4] =
            [&names[0], &names[1], &names[2], &names[3]];
        let m = demo_module(shards, named);
        let back = Module::from_json_str(&m.to_json().to_string()).unwrap();
        prop_assert_eq!(m.fingerprint(), back.fingerprint());
        prop_assert_eq!(
            m.fingerprint(),
            demo_module(shards, ["a", "b", "c", "d"]).fingerprint()
        );
    }
}
