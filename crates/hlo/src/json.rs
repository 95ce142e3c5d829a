//! Lossless JSON encoding of the IR via `overlap-json`.
//!
//! This is the wire format `overlapc` and the on-disk artifact cache
//! exchange modules in. The layout is the one derived serde used to
//! produce — externally tagged enums, struct fields in declaration
//! order, newtypes transparent — so documents written by the earliest,
//! serde-based revisions of this workspace parse unchanged, and tooling
//! that pokes paths like `v["instrs"][3]["operands"][0]` keeps working.
//!
//! Decoding performs **no graph validation**: a decoded [`Module`] is
//! untrusted and must pass [`Module::verify`] before use. Structural
//! invariants simply cannot be enforced at the wire layer (that is what
//! the verifier is for), and the tamper tests rely on corrupt documents
//! decoding into rejectable modules rather than failing opaquely.

use overlap_json::{FromJson, Json, ToJson};

use crate::{
    BinaryKind, DType, DotDims, FusionGroup, InstrId, Instruction, Module, Op, PadDim,
    ReplicaGroups, Shape, UnaryKind, WireFormat,
};

impl ToJson for DType {
    fn to_json(&self) -> Json {
        Json::from(format!("{self:?}"))
    }
}

impl FromJson for DType {
    fn from_json(v: &Json) -> Result<DType, String> {
        match v.as_str() {
            Some("F32") => Ok(DType::F32),
            Some("BF16") => Ok(DType::BF16),
            Some("S32") => Ok(DType::S32),
            Some("U32") => Ok(DType::U32),
            Some("Pred") => Ok(DType::Pred),
            _ => Err(format!("unknown dtype {v}")),
        }
    }
}

impl ToJson for Shape {
    fn to_json(&self) -> Json {
        Json::obj().with("dtype", self.dtype().to_json()).with("dims", self.dims().to_json())
    }
}

impl FromJson for Shape {
    fn from_json(v: &Json) -> Result<Shape, String> {
        Ok(Shape::new(v.decode_field("dtype")?, v.decode_field("dims")?))
    }
}

impl ToJson for DotDims {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("batch", self.batch().to_json())
            .with("contracting", self.contracting().to_json())
    }
}

impl FromJson for DotDims {
    fn from_json(v: &Json) -> Result<DotDims, String> {
        // Unvalidated: einsum shape inference
        // in the verifier rejects inconsistent dimension numbers.
        Ok(DotDims::from_raw(v.decode_field("batch")?, v.decode_field("contracting")?))
    }
}

impl ToJson for PadDim {
    fn to_json(&self) -> Json {
        Json::obj().with("low", self.low.to_json()).with("high", self.high.to_json())
    }
}

impl FromJson for PadDim {
    fn from_json(v: &Json) -> Result<PadDim, String> {
        Ok(PadDim { low: v.decode_field("low")?, high: v.decode_field("high")? })
    }
}

impl ToJson for BinaryKind {
    fn to_json(&self) -> Json {
        Json::from(format!("{self:?}"))
    }
}

impl FromJson for BinaryKind {
    fn from_json(v: &Json) -> Result<BinaryKind, String> {
        match v.as_str() {
            Some("Add") => Ok(BinaryKind::Add),
            Some("Sub") => Ok(BinaryKind::Sub),
            Some("Mul") => Ok(BinaryKind::Mul),
            Some("Div") => Ok(BinaryKind::Div),
            Some("Max") => Ok(BinaryKind::Max),
            Some("Min") => Ok(BinaryKind::Min),
            Some("Rem") => Ok(BinaryKind::Rem),
            _ => Err(format!("unknown binary kind {v}")),
        }
    }
}

impl ToJson for UnaryKind {
    fn to_json(&self) -> Json {
        Json::from(format!("{self:?}"))
    }
}

impl FromJson for UnaryKind {
    fn from_json(v: &Json) -> Result<UnaryKind, String> {
        match v.as_str() {
            Some("Neg") => Ok(UnaryKind::Neg),
            Some("Relu") => Ok(UnaryKind::Relu),
            Some("Step") => Ok(UnaryKind::Step),
            _ => Err(format!("unknown unary kind {v}")),
        }
    }
}

/// Newtype-transparent: serializes as the bare group array.
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

/// Newtype-transparent: serializes as the bare arena index.
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

/// One externally-tagged struct variant: `{"Tag": {fields…}}`.
fn variant(tag: &str, payload: Json) -> Json {
    Json::obj().with(tag, payload)
}

/// Appends a collective's `wire` field unless it is lossless: lossless
/// is the default and stays implicit, so pre-annotation serialized
/// modules re-encode byte-identically. The lossless-is-invisible rule is
/// stated and enforced here and in [`decode_wire`], nowhere else.
fn with_wire(payload: Json, wire: WireFormat) -> Json {
    if wire.is_lossless() {
        payload
    } else {
        payload.with("wire", wire.to_json())
    }
}

/// Reads a collective's optional `wire` field (absent ⇒ lossless).
fn decode_wire(payload: &Json) -> Result<WireFormat, String> {
    match payload.get("wire") {
        None => Ok(WireFormat::Lossless),
        Some(v) => WireFormat::from_json(v).map_err(|e| format!("field \"wire\": {e}")),
    }
}

impl ToJson for Op {
    fn to_json(&self) -> Json {
        match self {
            // Unit variants are bare strings.
            Op::Reshape
            | Op::DynamicUpdateSlice
            | Op::Copy
            | Op::CollectivePermuteDone
            | Op::PartitionId => Json::from(unit_name(self)),
            Op::Parameter { index } => {
                variant("Parameter", Json::obj().with("index", index.to_json()))
            }
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
                variant("ConstantTensor", Json::obj().with("values", values.to_json()))
            }
            Op::Iota { dim } => variant("Iota", Json::obj().with("dim", dim.to_json())),
            Op::Broadcast { operand_dims } => {
                variant("Broadcast", Json::obj().with("operand_dims", operand_dims.to_json()))
            }
            Op::Transpose { perm } => {
                variant("Transpose", Json::obj().with("perm", perm.to_json()))
            }
            Op::Slice { starts, limits } => variant(
                "Slice",
                Json::obj().with("starts", starts.to_json()).with("limits", limits.to_json()),
            ),
            Op::DynamicSlice { sizes } => {
                variant("DynamicSlice", Json::obj().with("sizes", sizes.to_json()))
            }
            Op::Concatenate { dim } => {
                variant("Concatenate", Json::obj().with("dim", dim.to_json()))
            }
            Op::Pad { config } => variant("Pad", Json::obj().with("config", config.to_json())),
            Op::Binary(kind) => variant("Binary", kind.to_json()),
            Op::Unary(kind) => variant("Unary", kind.to_json()),
            Op::Einsum(dims) => variant("Einsum", dims.to_json()),
            Op::AllGather { dim, groups, wire } => variant(
                "AllGather",
                with_wire(
                    Json::obj().with("dim", dim.to_json()).with("groups", groups.to_json()),
                    *wire,
                ),
            ),
            Op::ReduceScatter { dim, groups, wire } => variant(
                "ReduceScatter",
                with_wire(
                    Json::obj().with("dim", dim.to_json()).with("groups", groups.to_json()),
                    *wire,
                ),
            ),
            Op::AllReduce { groups, wire } => variant(
                "AllReduce",
                with_wire(Json::obj().with("groups", groups.to_json()), *wire),
            ),
            Op::AllToAll { split_dim, concat_dim, groups } => variant(
                "AllToAll",
                Json::obj()
                    .with("split_dim", split_dim.to_json())
                    .with("concat_dim", concat_dim.to_json())
                    .with("groups", groups.to_json()),
            ),
            Op::CollectivePermute { pairs, wire } => variant(
                "CollectivePermute",
                with_wire(Json::obj().with("pairs", pairs.to_json()), *wire),
            ),
            Op::CollectivePermuteStart { pairs, wire } => variant(
                "CollectivePermuteStart",
                with_wire(Json::obj().with("pairs", pairs.to_json()), *wire),
            ),
        }
    }
}

fn unit_name(op: &Op) -> &'static str {
    match op {
        Op::Reshape => "Reshape",
        Op::DynamicUpdateSlice => "DynamicUpdateSlice",
        Op::Copy => "Copy",
        Op::CollectivePermuteDone => "CollectivePermuteDone",
        Op::PartitionId => "PartitionId",
        _ => unreachable!("not a unit variant"),
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
        let (tag, payload) = match v {
            Json::Obj(fields) if fields.len() == 1 => (&fields[0].0, &fields[0].1),
            other => return Err(format!("expected op tag, got {other}")),
        };
        let op = match tag.as_str() {
            "Parameter" => Op::Parameter { index: payload.decode_field("index")? },
            "Constant" => {
                let v = payload.get("value").ok_or("Constant missing value")?;
                let value = match v.as_str() {
                    Some(s) => s
                        .parse::<f64>()
                        .map_err(|e| format!("field \"value\": bad non-finite literal: {e}"))?,
                    None => f64::from_json(v).map_err(|e| format!("field \"value\": {e}"))?,
                };
                Op::Constant { value }
            }
            "ConstantTensor" => {
                Op::ConstantTensor { values: payload.decode_field("values")? }
            }
            "Iota" => Op::Iota { dim: payload.decode_field("dim")? },
            "Broadcast" => Op::Broadcast { operand_dims: payload.decode_field("operand_dims")? },
            "Transpose" => Op::Transpose { perm: payload.decode_field("perm")? },
            "Slice" => Op::Slice {
                starts: payload.decode_field("starts")?,
                limits: payload.decode_field("limits")?,
            },
            "DynamicSlice" => Op::DynamicSlice { sizes: payload.decode_field("sizes")? },
            "Concatenate" => Op::Concatenate { dim: payload.decode_field("dim")? },
            "Pad" => Op::Pad { config: payload.decode_field("config")? },
            "Binary" => Op::Binary(BinaryKind::from_json(payload)?),
            "Unary" => Op::Unary(UnaryKind::from_json(payload)?),
            "Einsum" => Op::Einsum(DotDims::from_json(payload)?),
            "AllGather" => Op::AllGather {
                dim: payload.decode_field("dim")?,
                groups: payload.decode_field("groups")?,
                wire: decode_wire(payload)?,
            },
            "ReduceScatter" => Op::ReduceScatter {
                dim: payload.decode_field("dim")?,
                groups: payload.decode_field("groups")?,
                wire: decode_wire(payload)?,
            },
            "AllReduce" => Op::AllReduce {
                groups: payload.decode_field("groups")?,
                wire: decode_wire(payload)?,
            },
            "AllToAll" => Op::AllToAll {
                split_dim: payload.decode_field("split_dim")?,
                concat_dim: payload.decode_field("concat_dim")?,
                groups: payload.decode_field("groups")?,
            },
            "CollectivePermute" => Op::CollectivePermute {
                pairs: payload.decode_field("pairs")?,
                wire: decode_wire(payload)?,
            },
            "CollectivePermuteStart" => Op::CollectivePermuteStart {
                pairs: payload.decode_field("pairs")?,
                wire: decode_wire(payload)?,
            },
            other => return Err(format!("unknown op {other:?}")),
        };
        Ok(op)
    }
}

impl ToJson for Instruction {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.to_json())
            .with("shape", self.shape.to_json())
            .with("op", self.op.to_json())
            .with("operands", self.operands.to_json())
            .with("tag", self.tag.to_json())
    }
}

impl FromJson for Instruction {
    fn from_json(v: &Json) -> Result<Instruction, String> {
        Ok(Instruction {
            name: v.decode_field("name")?,
            shape: v.decode_field("shape")?,
            op: v.decode_field("op")?,
            operands: v.decode_field("operands")?,
            tag: v.decode_field("tag")?,
        })
    }
}

impl ToJson for FusionGroup {
    fn to_json(&self) -> Json {
        Json::obj().with("members", self.members.to_json()).with("root", self.root.to_json())
    }
}

impl FromJson for FusionGroup {
    fn from_json(v: &Json) -> Result<FusionGroup, String> {
        Ok(FusionGroup { members: v.decode_field("members")?, root: v.decode_field("root")? })
    }
}

impl ToJson for Module {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.to_json())
            .with("instrs", self.instrs.to_json())
            .with("outputs", self.outputs.to_json())
            .with("num_partitions", self.num_partitions.to_json())
            .with("fusion_groups", self.fusion_groups.to_json())
    }
}

impl FromJson for Module {
    fn from_json(v: &Json) -> Result<Module, String> {
        Ok(Module {
            name: v.decode_field("name")?,
            instrs: v.decode_field("instrs")?,
            outputs: v.decode_field("outputs")?,
            num_partitions: v.decode_field("num_partitions")?,
            fusion_groups: v.decode_field("fusion_groups")?,
        })
    }
}

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
