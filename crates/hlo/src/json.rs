//! Lossless JSON encoding of the IR via `overlap-json`.
//!
//! This is the wire format `overlapc`, the serve protocol and the
//! on-disk artifact cache exchange modules in; `tests/wire_golden.rs`
//! pins its bytes, and tooling that pokes paths like
//! `v["instrs"][3]["operands"][0]` relies on it.
//!
//! Each record's layout is its `json_record!` field list below: members
//! in declaration order under the field's name, unit enums as their
//! variant name. The one elided member is a collective's `wire`, left
//! out when lossless (the `collective!` rule) so modules serialized
//! before precision annotations re-encode byte-identically.
//!
//! Hand-written, because the record shape cannot express them:
//! [`InstrId`] and [`ReplicaGroups`] (newtype-transparent: the bare
//! index / group array) and [`Op`] (externally tagged — unit variants as
//! bare strings, struct variants as `{"Tag": {fields}}`, newtype
//! variants as `{"Tag": inner}` — with non-finite `Constant` values
//! spelled as strings). `Op`'s struct payloads still go through
//! `json_record!`'s field rules.
//!
//! Decoding performs **no graph validation**: a decoded [`Module`] is
//! untrusted and must pass [`Module::verify`] before use. Structural
//! invariants simply cannot be enforced at the wire layer (that is what
//! the verifier is for), and the tamper tests rely on corrupt documents
//! decoding into rejectable modules rather than failing opaquely.

use overlap_json::{json_enum, json_record, FromJson, Json, ToJson};

use crate::{
    BinaryKind, DType, DotDims, FusionGroup, InstrId, Instruction, Module, Op, PadDim,
    ReplicaGroups, Shape, UnaryKind, WireFormat,
};

json_enum!(DType { F32 = "F32", BF16 = "BF16", S32 = "S32", U32 = "U32", Pred = "Pred" });

json_record!(Shape { dtype, dims });

// Unvalidated, like every decoder here: einsum shape inference in the
// verifier rejects inconsistent dimension numbers.
json_record!(DotDims { batch, contracting });

json_record!(PadDim { low, high });

json_enum!(BinaryKind {
    Add = "Add",
    Sub = "Sub",
    Mul = "Mul",
    Div = "Div",
    Max = "Max",
    Min = "Min",
    Rem = "Rem",
});

json_enum!(UnaryKind { Neg = "Neg", Relu = "Relu", Step = "Step" });

/// Hand-written: newtype-transparent, serializes as the bare group array.
impl ToJson for ReplicaGroups {
    fn to_json(&self) -> Json {
        self.groups().to_json()
    }
}

impl FromJson for ReplicaGroups {
    fn from_json(v: &Json) -> Result<ReplicaGroups, String> {
        // Unvalidated construction (verify() re-checks coverage); the
        // wire layer only guarantees the element types.
        Ok(ReplicaGroups::from_raw(Vec::<Vec<u32>>::from_json(v)?))
    }
}

/// Hand-written: newtype-transparent, serializes as the bare arena index.
impl ToJson for InstrId {
    fn to_json(&self) -> Json {
        Json::from(self.0)
    }
}

impl FromJson for InstrId {
    fn from_json(v: &Json) -> Result<InstrId, String> {
        Ok(InstrId(u32::from_json(v)?))
    }
}

/// One externally-tagged variant: `{"Tag": payload}`.
fn variant(tag: &str, payload: Json) -> Json {
    Json::obj().with(tag, payload)
}

/// A collective payload whose last member is its wire format. Lossless
/// is the default and stays implicit, so pre-annotation serialized
/// modules re-encode byte-identically.
macro_rules! collective {
    (fields { $($field:ident),+; $wire:ident }) => {
        json_record!(fields {
            $($field,)+
            $wire [absent = WireFormat::Lossless, skip_if = WireFormat::is_lossless]
        })
    };
    (from $payload:ident => $variant:ident { $($field:ident),+; $wire:ident }) => {
        json_record!(from $payload => Op::$variant {
            $($field,)+
            $wire [absent = WireFormat::Lossless, skip_if = WireFormat::is_lossless]
        })
    };
}

// Hand-written: externally tagged (unit variants as bare strings, struct
// variants as `{"Tag": {fields}}`, newtype variants as `{"Tag": inner}`),
// and `Constant` spells non-finite values as strings.
impl ToJson for Op {
    fn to_json(&self) -> Json {
        match self {
            Op::Reshape => Json::from("Reshape"),
            Op::DynamicUpdateSlice => Json::from("DynamicUpdateSlice"),
            Op::Copy => Json::from("Copy"),
            Op::CollectivePermuteDone => Json::from("CollectivePermuteDone"),
            Op::PartitionId => Json::from("PartitionId"),
            Op::Parameter { index } => variant("Parameter", json_record!(fields { index })),
            Op::Constant { value } => {
                // JSON has no ±inf/NaN tokens (the writer would emit
                // `null`), and the §5.4.3 pad-max-concat join pads with
                // -inf — round-trip non-finite values as strings.
                let v = if value.is_finite() {
                    value.to_json()
                } else {
                    Json::from(format!("{value}"))
                };
                variant("Constant", Json::obj().with("value", v))
            }
            Op::ConstantTensor { values } => {
                variant("ConstantTensor", json_record!(fields { values }))
            }
            Op::Iota { dim } => variant("Iota", json_record!(fields { dim })),
            Op::Broadcast { operand_dims } => {
                variant("Broadcast", json_record!(fields { operand_dims }))
            }
            Op::Transpose { perm } => variant("Transpose", json_record!(fields { perm })),
            Op::Slice { starts, limits } => {
                variant("Slice", json_record!(fields { starts, limits }))
            }
            Op::DynamicSlice { sizes } => variant("DynamicSlice", json_record!(fields { sizes })),
            Op::Concatenate { dim } => variant("Concatenate", json_record!(fields { dim })),
            Op::Pad { config } => variant("Pad", json_record!(fields { config })),
            Op::Binary(kind) => variant("Binary", kind.to_json()),
            Op::Unary(kind) => variant("Unary", kind.to_json()),
            Op::Einsum(dims) => variant("Einsum", dims.to_json()),
            Op::AllGather { dim, groups, wire } => {
                variant("AllGather", collective!(fields { dim, groups; wire }))
            }
            Op::ReduceScatter { dim, groups, wire } => {
                variant("ReduceScatter", collective!(fields { dim, groups; wire }))
            }
            Op::AllReduce { groups, wire } => {
                variant("AllReduce", collective!(fields { groups; wire }))
            }
            Op::AllToAll { split_dim, concat_dim, groups } => {
                variant("AllToAll", json_record!(fields { split_dim, concat_dim, groups }))
            }
            Op::CollectivePermute { pairs, wire } => {
                variant("CollectivePermute", collective!(fields { pairs; wire }))
            }
            Op::CollectivePermuteStart { pairs, wire } => {
                variant("CollectivePermuteStart", collective!(fields { pairs; wire }))
            }
        }
    }
}

impl FromJson for Op {
    fn from_json(v: &Json) -> Result<Op, String> {
        if let Some(name) = v.as_str() {
            return match name {
                "Reshape" => Ok(Op::Reshape),
                "DynamicUpdateSlice" => Ok(Op::DynamicUpdateSlice),
                "Copy" => Ok(Op::Copy),
                "CollectivePermuteDone" => Ok(Op::CollectivePermuteDone),
                "PartitionId" => Ok(Op::PartitionId),
                other => Err(format!("unknown op {other:?}")),
            };
        }
        let (tag, p) = match v {
            Json::Obj(fields) if fields.len() == 1 => (&fields[0].0, &fields[0].1),
            other => return Err(format!("expected op tag, got {other}")),
        };
        Ok(match tag.as_str() {
            "Parameter" => json_record!(from p => Op::Parameter { index }),
            "Constant" => {
                let v = p.get("value").ok_or("Constant missing value")?;
                let value = match v.as_str() {
                    Some(s) => s
                        .parse::<f64>()
                        .map_err(|e| format!("field \"value\": bad non-finite literal: {e}"))?,
                    None => f64::from_json(v).map_err(|e| format!("field \"value\": {e}"))?,
                };
                Op::Constant { value }
            }
            "ConstantTensor" => json_record!(from p => Op::ConstantTensor { values }),
            "Iota" => json_record!(from p => Op::Iota { dim }),
            "Broadcast" => json_record!(from p => Op::Broadcast { operand_dims }),
            "Transpose" => json_record!(from p => Op::Transpose { perm }),
            "Slice" => json_record!(from p => Op::Slice { starts, limits }),
            "DynamicSlice" => json_record!(from p => Op::DynamicSlice { sizes }),
            "Concatenate" => json_record!(from p => Op::Concatenate { dim }),
            "Pad" => json_record!(from p => Op::Pad { config }),
            "Binary" => Op::Binary(BinaryKind::from_json(p)?),
            "Unary" => Op::Unary(UnaryKind::from_json(p)?),
            "Einsum" => Op::Einsum(DotDims::from_json(p)?),
            "AllGather" => collective!(from p => AllGather { dim, groups; wire }),
            "ReduceScatter" => collective!(from p => ReduceScatter { dim, groups; wire }),
            "AllReduce" => collective!(from p => AllReduce { groups; wire }),
            "AllToAll" => json_record!(from p => Op::AllToAll { split_dim, concat_dim, groups }),
            "CollectivePermute" => collective!(from p => CollectivePermute { pairs; wire }),
            "CollectivePermuteStart" => {
                collective!(from p => CollectivePermuteStart { pairs; wire })
            }
            other => return Err(format!("unknown op {other:?}")),
        })
    }
}

json_record!(Instruction { name, shape, op, operands, tag });

json_record!(FusionGroup { members, root });

json_record!(Module { name, instrs, outputs, num_partitions, fusion_groups });

impl Module {
    /// Parses a module from JSON text. The result is **untrusted**:
    /// call [`Module::verify`] before using it.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or a layout mismatch.
    pub fn from_json_str(text: &str) -> Result<Module, String> {
        Module::from_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    /// A module touching every op payload kind the compiler can emit.
    fn vocabulary_module() -> Module {
        let n = 4;
        let mut b = Builder::new("vocab", n);
        let f32v = |dims: Vec<usize>| Shape::new(DType::F32, dims);
        let x = b.parameter(f32v(vec![8, 8]), "x");
        let w = b.parameter(f32v(vec![8, 8]), "w");
        let c = b.constant(f32v(vec![8, 8]), 1.5, "c");
        let t = b.constant_tensor(f32v(vec![4]), vec![0.0, 1.0, 2.0, 3.0], "table");
        let iota = b.iota(Shape::new(DType::S32, vec![8]), 0, "iota");
        let bc = b.broadcast(iota, Shape::new(DType::S32, vec![8, 8]), vec![0], "bc");
        let rs = b.reshape(t, vec![2, 2], "rs");
        let tp = b.transpose(x, vec![1, 0], "tp");
        let sl = b.slice(x, vec![0, 0], vec![4, 8], "sl");
        let pid = b.partition_id("pid");
        let zero = b.scalar_s32(0, "zero");
        let ds = b.dynamic_slice(x, &[pid, zero], vec![2, 8], "ds");
        let dus = b.dynamic_update_slice(x, ds, &[pid, zero], "dus");
        let cat = b.concatenate(&[sl, sl], 0, "cat");
        let zf = zero_f32(&mut b);
        let pad = b.pad(ds, zf, vec![PadDim::new(1, 5), PadDim::none()], "pad");
        let add = b.binary_op(BinaryKind::Add, x, w, "add");
        let neg = b.unary_op(UnaryKind::Neg, add, "neg");
        let cp = b.copy(neg, "cp");
        let ein = b.einsum(tp, cp, DotDims::matmul(), "ein");
        let groups = ReplicaGroups::new(vec![vec![0, 1], vec![2, 3]]).unwrap();
        let ag = b.all_gather(ein, 0, groups.clone(), "ag");
        let rsc = b.reduce_scatter(ag, 0, groups.clone(), "rsc");
        let ar = b.all_reduce(rsc, groups.clone(), "ar");
        let a2a = b.all_to_all(ar, 0, 1, groups, "a2a");
        let pairs = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
        let perm = b.collective_permute(a2a, pairs.clone(), "perm");
        let start = b.collective_permute_start(perm, pairs, "start");
        let done = b.collective_permute_done(start, "done");
        let module = b.build(vec![done, dus, bc, cat, pad, rs, c]);
        module.verify().expect("vocabulary module verifies");
        module
    }

    fn zero_f32(b: &mut Builder) -> InstrId {
        b.constant(Shape::scalar(DType::F32), 0.0, "zf")
    }

    #[test]
    fn full_vocabulary_roundtrips_losslessly() {
        let m = vocabulary_module();
        let text = m.to_json().to_string();
        let back = Module::from_json_str(&text).expect("parses");
        assert_eq!(back, m);
        back.verify().expect("roundtripped module verifies");
        // And through the pretty printer too (the on-disk cache layout).
        let back2 = Module::from_json_str(&m.to_json().to_pretty()).expect("parses");
        assert_eq!(back2, m);
    }

    #[test]
    fn non_finite_constants_roundtrip() {
        // The §5.4.3 pad-max-concat join pads with -inf; a plain number
        // token would serialize as `null` and the module would decode
        // corrupt out of the artifact cache.
        let mut b = Builder::new("ninf", 1);
        let c = b.constant(Shape::scalar(DType::BF16), f64::NEG_INFINITY, "ninf");
        let m = b.build(vec![c]);
        let text = m.to_json().to_string();
        assert!(text.contains("\"value\":\"-inf\""), "{text}");
        let back = Module::from_json_str(&text).expect("parses");
        assert_eq!(back, m);
    }

    #[test]
    fn layout_matches_derive_conventions() {
        let m = vocabulary_module();
        let v = m.to_json();
        // Paths the tamper tests and external tooling rely on.
        assert_eq!(v["num_partitions"].as_u64(), Some(4));
        assert_eq!(v["instrs"][0]["op"]["Parameter"]["index"].as_u64(), Some(0));
        assert!(v["instrs"][0]["tag"].is_null());
        assert_eq!(v["instrs"][5]["shape"]["dims"][1].as_u64(), Some(8));
        // Unit variants are bare strings, newtypes transparent.
        let text = v.to_string();
        assert!(text.contains("\"op\":\"DynamicUpdateSlice\""), "{text}");
        assert!(text.contains("\"groups\":[[0,1],[2,3]]"), "{text}");
    }

    #[test]
    fn decode_rejects_layout_garbage() {
        for bad in [
            "{}",
            "{\"name\":\"m\",\"instrs\":0,\"outputs\":[],\"num_partitions\":1,\"fusion_groups\":[]}",
            "{\"name\":\"m\",\"instrs\":[{\"name\":\"x\",\"shape\":{\"dtype\":\"F99\",\"dims\":[]},\
             \"op\":\"Copy\",\"operands\":[],\"tag\":null}],\"outputs\":[],\"num_partitions\":1,\
             \"fusion_groups\":[]}",
        ] {
            assert!(Module::from_json_str(bad).is_err(), "{bad} must not decode");
        }
    }
}
