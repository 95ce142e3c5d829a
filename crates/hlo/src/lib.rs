//! A minimal HLO-like dataflow intermediate representation.
//!
//! This crate provides the substrate IR on which the *looped
//! collective-einsum* transformation (the ASPLOS'23 paper's contribution,
//! implemented in `overlap-core`) operates. It deliberately mirrors the
//! subset of XLA HLO that the paper's compiler passes touch:
//!
//! * dense tensor [`Shape`]s with a small set of [`DType`]s,
//! * `Einsum` (XLA `DotGeneral`) with explicit batch/contracting
//!   dimension numbers ([`DotDims`]),
//! * the MPI-style collectives of §2.1 — `AllGather`, `ReduceScatter`,
//!   `AllReduce`, `AllToAll` and point-to-point `CollectivePermute`,
//!   including the asynchronous `CollectivePermuteStart`/`Done` pair of
//!   §5.2,
//! * the data-movement ops used by the decomposition — `DynamicSlice`,
//!   `DynamicUpdateSlice`, `Concatenate`, `Pad`, `Slice`, `Broadcast` —
//!   plus scalar index arithmetic (`PartitionId`, constants, `+`, `*`, `%`).
//!
//! A [`Module`] is a flat arena of [`Instruction`]s forming a DAG; the
//! [`Builder`] appends instructions in topological order and the
//! [`verify`](Module::verify) method re-checks all shape and dataflow
//! invariants after a pass has rewritten the graph.
//!
//! # Example
//!
//! ```
//! use overlap_hlo::{Builder, DType, DotDims, ReplicaGroups, Shape};
//!
//! // One shard of an [F, H] weight matrix, 4-way partitioned on F,
//! // all-gathered and contracted with a local activation.
//! let mut b = Builder::new("mlp_layer", 4);
//! let x = b.parameter(Shape::new(DType::F32, vec![8, 64]), "x");
//! let w = b.parameter(Shape::new(DType::F32, vec![16, 32]), "w_shard");
//! let groups = ReplicaGroups::full(4);
//! let w_full = b.all_gather(w, 0, groups, "w_full");
//! let dims = DotDims::matmul();
//! let y = b.einsum(x, w_full, dims, "y");
//! let module = b.build(vec![y]);
//! module.verify().unwrap();
//! assert_eq!(module.shape_of(y).dims(), &[8, 32]);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod analysis;
mod autodiff;
mod builder;
mod dtype;
mod einsum;
mod error;
mod fingerprint;
mod instr;
mod json;
mod layers;
mod module;
mod ops;
mod print;
mod shape;
mod transform;
mod verify;

pub use analysis::ModuleAnalysis;
pub use autodiff::{gradients, GradModule};
pub use builder::Builder;
pub use dtype::DType;
pub use einsum::DotDims;
pub use error::HloError;
pub use instr::{InstrId, Instruction};
pub use layers::LayerTags;
pub use module::{FusionGroup, FusionId, Module};
pub use ops::{BinaryKind, CollectiveOp, Op, PadDim, ReplicaGroups, UnaryKind};
// Re-exported so IR consumers can annotate collectives without a direct
// `overlap-quant` dependency.
pub use overlap_quant::WireFormat;
pub use shape::Shape;
pub use transform::{
    eliminate_common_subexpressions, eliminate_dead_code, module_stats, to_dot, ModuleStats,
};
