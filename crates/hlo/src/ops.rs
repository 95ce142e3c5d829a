//! Operation kinds: the instruction set of the IR.

use std::fmt;
use std::sync::Arc;

use overlap_quant::WireFormat;

use crate::{DotDims, HloError};

/// Elementwise binary operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryKind {
    /// Elementwise addition (also the reduction operator of `AllReduce` and
    /// `ReduceScatter`).
    Add,
    /// Elementwise subtraction.
    Sub,
    /// Elementwise multiplication.
    Mul,
    /// Elementwise division.
    Div,
    /// Elementwise maximum (used by the fusion-friendly
    /// `Max(PadLow, PadHigh)` rewrite of §5.4.3).
    Max,
    /// Elementwise minimum.
    Min,
    /// Remainder (index arithmetic: `(partition_id + k) % n`).
    Rem,
}

impl BinaryKind {
    /// Lowercase mnemonic.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BinaryKind::Add => "add",
            BinaryKind::Sub => "subtract",
            BinaryKind::Mul => "multiply",
            BinaryKind::Div => "divide",
            BinaryKind::Max => "maximum",
            BinaryKind::Min => "minimum",
            BinaryKind::Rem => "remainder",
        }
    }
}

/// Elementwise unary operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryKind {
    /// Numeric negation.
    Neg,
    /// Rectified linear unit `max(x, 0)` (the MLP activation).
    Relu,
    /// Heaviside step `1 if x > 0 else 0` (ReLU's derivative mask).
    Step,
}

impl UnaryKind {
    /// Lowercase mnemonic.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            UnaryKind::Neg => "negate",
            UnaryKind::Relu => "relu",
            UnaryKind::Step => "step",
        }
    }
}

/// One dimension of a `Pad` configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PadDim {
    /// Elements of padding inserted before the data.
    pub low: usize,
    /// Elements of padding inserted after the data.
    pub high: usize,
}

impl PadDim {
    /// No padding on this dimension.
    #[must_use]
    pub fn none() -> Self {
        PadDim::default()
    }

    /// Padding of `low` before and `high` after the data.
    #[must_use]
    pub fn new(low: usize, high: usize) -> Self {
        PadDim { low, high }
    }
}

/// Replica groups of a collective: a partition of the device-partition ids
/// into disjoint groups, each of which runs the collective independently
/// (XLA's `replica_groups`). Subgroup collectives along one mesh axis (the
/// `(x)`/`(y)` annotations of Fig. 3) are expressed this way.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReplicaGroups(Vec<Vec<u32>>);

impl ReplicaGroups {
    /// A single group containing partitions `0..n` in order.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn full(n: usize) -> Self {
        assert!(n > 0, "replica group must be non-empty");
        ReplicaGroups(vec![(0..n as u32).collect()])
    }

    /// Creates replica groups from explicit id lists.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::InvalidReplicaGroups`] if any group is empty, the
    /// groups have unequal sizes, or an id appears more than once.
    pub fn new(groups: Vec<Vec<u32>>) -> Result<Self, HloError> {
        if groups.is_empty() {
            return Err(HloError::InvalidReplicaGroups("no groups".into()));
        }
        let size = groups[0].len();
        if size == 0 {
            return Err(HloError::InvalidReplicaGroups("empty group".into()));
        }
        let mut all: Vec<u32> = Vec::new();
        for g in &groups {
            if g.len() != size {
                return Err(HloError::InvalidReplicaGroups("unequal group sizes".into()));
            }
            all.extend_from_slice(g);
        }
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        if all.len() != before {
            return Err(HloError::InvalidReplicaGroups("duplicate partition id".into()));
        }
        Ok(ReplicaGroups(groups))
    }

    /// Unchecked construction for the wire layer (`crate::json`): a
    /// decoded module is untrusted and `Module::verify` re-checks group
    /// invariants.
    pub(crate) fn from_raw(groups: Vec<Vec<u32>>) -> Self {
        ReplicaGroups(groups)
    }

    /// Number of partitions per group.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.0[0].len()
    }

    /// Number of groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.0.len()
    }

    /// The groups as id slices.
    #[must_use]
    pub fn groups(&self) -> &[Vec<u32>] {
        &self.0
    }

    /// The group containing partition `pid`, if any.
    #[must_use]
    pub fn group_containing(&self, pid: u32) -> Option<&[u32]> {
        self.0.iter().find(|g| g.contains(&pid)).map(Vec::as_slice)
    }

    /// Rank of `pid` within its group, if present.
    #[must_use]
    pub fn rank_in_group(&self, pid: u32) -> Option<usize> {
        self.group_containing(pid)?.iter().position(|&p| p == pid)
    }

    /// Verifies that the groups exactly cover `0..num_partitions`.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::InvalidReplicaGroups`] on incomplete coverage or
    /// out-of-range ids.
    pub fn validate(&self, num_partitions: usize) -> Result<(), HloError> {
        let mut all: Vec<u32> = self.0.iter().flatten().copied().collect();
        all.sort_unstable();
        let expect: Vec<u32> = (0..num_partitions as u32).collect();
        if all != expect {
            return Err(HloError::InvalidReplicaGroups(format!(
                "groups do not partition 0..{num_partitions}"
            )));
        }
        Ok(())
    }
}

/// Classification of collective operations (used by cost models and the
/// schedulers, which treat all collectives uniformly by kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveOp {
    /// Many-to-many gather-and-concatenate.
    AllGather,
    /// Elementwise-reduce then scatter (inverse pattern of `AllGather`).
    ReduceScatter,
    /// `ReduceScatter` followed by `AllGather`.
    AllReduce,
    /// Per-pair exchange along split/concat dimensions.
    AllToAll,
    /// Synchronous point-to-point permute.
    CollectivePermute,
    /// Asynchronous permute initiation (non-blocking, §5.2).
    CollectivePermuteStart,
    /// Asynchronous permute completion marker.
    CollectivePermuteDone,
}

/// Operation payload of an [`Instruction`](crate::Instruction).
///
/// Operand arity and shape rules are enforced by
/// [`Module::verify`](crate::Module::verify); see that method for the full
/// list of invariants.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Entry-computation input number `index`.
    Parameter {
        /// Position among the module's parameters.
        index: usize,
    },
    /// A scalar constant, splatted to the instruction shape if non-scalar.
    Constant {
        /// The value (stored as `f64`; integer dtypes truncate).
        value: f64,
    },
    /// A dense tensor constant with explicit row-major values (used for
    /// the per-partition rank lookup tables the decomposition emits).
    ConstantTensor {
        /// Row-major element values.
        values: Vec<f64>,
    },
    /// A rank-n tensor whose elements count up along `dim`.
    Iota {
        /// Dimension along which values increase.
        dim: usize,
    },
    /// Broadcast: output dimension `operand_dims[i]` is filled from operand
    /// dimension `i`; all other output dimensions replicate.
    Broadcast {
        /// Mapping of operand dimensions into output dimensions (strictly
        /// increasing).
        operand_dims: Vec<usize>,
    },
    /// Bit-preserving reshape to the instruction shape.
    Reshape,
    /// Dimension permutation: output dim `i` is operand dim `perm[i]`.
    Transpose {
        /// The permutation.
        perm: Vec<usize>,
    },
    /// Static slice `[starts, limits)` per dimension, stride 1.
    Slice {
        /// Inclusive start per dimension.
        starts: Vec<usize>,
        /// Exclusive limit per dimension.
        limits: Vec<usize>,
    },
    /// Slice with runtime start indices (one scalar operand per dimension
    /// after the data operand), clamped in bounds.
    DynamicSlice {
        /// Result extent per dimension.
        sizes: Vec<usize>,
    },
    /// Overwrite a slice of operand 0 with operand 1 at runtime indices
    /// (one scalar operand per dimension after data and update).
    DynamicUpdateSlice,
    /// Concatenate operands along `dim`.
    Concatenate {
        /// The concatenation dimension.
        dim: usize,
    },
    /// Pad operand 0 with the scalar operand 1 according to `config`.
    Pad {
        /// Per-dimension low/high padding.
        config: Vec<PadDim>,
    },
    /// Elementwise binary operation on same-shaped operands.
    Binary(BinaryKind),
    /// Elementwise unary operation.
    Unary(UnaryKind),
    /// Identity copy (models the loop-carried-aliasing copies that the
    /// non-unrolled looped collective-einsum incurs, §5.4.1).
    Copy,
    /// Einsum / general dot product.
    Einsum(DotDims),
    /// Gather shards from all partitions in each group and concatenate along
    /// `dim` (output `dim` is `group_size` × larger).
    AllGather {
        /// Concatenation dimension.
        dim: usize,
        /// Participating partition groups.
        groups: ReplicaGroups,
        /// Wire encoding of the transferred shards (lossless by
        /// default; quantized formats shrink wire bytes at a bounded
        /// accuracy cost, see `overlap-quant`).
        wire: WireFormat,
    },
    /// Elementwise-sum over the group, then keep this partition's shard of
    /// `dim` (output `dim` is `group_size` × smaller).
    ReduceScatter {
        /// Scatter dimension.
        dim: usize,
        /// Participating partition groups.
        groups: ReplicaGroups,
        /// Wire encoding of the transferred partial sums. Quantized
        /// reductions encode each participant's contribution once
        /// before summation (EQuARX-style), so error grows with the
        /// group size, not with ring hops.
        wire: WireFormat,
    },
    /// Elementwise-sum over the group, replicated result.
    AllReduce {
        /// Participating partition groups.
        groups: ReplicaGroups,
        /// Wire encoding of the transferred contributions (see
        /// [`Op::ReduceScatter`]'s `wire`).
        wire: WireFormat,
    },
    /// Split along `split_dim`, exchange shards within the group, and
    /// concatenate along `concat_dim` (shape-preserving when the dims match).
    AllToAll {
        /// Dimension split into `group_size` shards.
        split_dim: usize,
        /// Dimension along which received shards concatenate.
        concat_dim: usize,
        /// Participating partition groups.
        groups: ReplicaGroups,
    },
    /// Synchronous point-to-point exchange: partition `src` sends its
    /// operand to `dst` for each pair. Partitions that are not a destination
    /// receive zeros (XLA semantics).
    CollectivePermute {
        /// `(source, destination)` pairs; destinations must be distinct.
        /// Shared by every ring step of a decomposed loop.
        pairs: Arc<[(u32, u32)]>,
        /// Wire encoding of the exchanged shards.
        wire: WireFormat,
    },
    /// Non-blocking start of a collective permute (§5.2). The result is an
    /// in-flight token consumed by exactly one `CollectivePermuteDone`.
    CollectivePermuteStart {
        /// `(source, destination)` pairs; destinations must be distinct.
        pairs: Arc<[(u32, u32)]>,
        /// Wire encoding of the in-flight transfer; the paired
        /// `CollectivePermuteDone` observes the dequantized data.
        wire: WireFormat,
    },
    /// Blocks until the paired start's transfer has completed; yields the
    /// received data.
    CollectivePermuteDone,
    /// The executing device-partition id as a `u32` scalar.
    PartitionId,
}

impl Op {
    /// Short lowercase mnemonic used by the printer.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Parameter { .. } => "parameter",
            Op::Constant { .. } => "constant",
            Op::ConstantTensor { .. } => "constant-tensor",
            Op::Iota { .. } => "iota",
            Op::Broadcast { .. } => "broadcast",
            Op::Reshape => "reshape",
            Op::Transpose { .. } => "transpose",
            Op::Slice { .. } => "slice",
            Op::DynamicSlice { .. } => "dynamic-slice",
            Op::DynamicUpdateSlice => "dynamic-update-slice",
            Op::Concatenate { .. } => "concatenate",
            Op::Pad { .. } => "pad",
            Op::Binary(k) => k.name(),
            Op::Unary(k) => k.name(),
            Op::Copy => "copy",
            Op::Einsum(_) => "einsum",
            Op::AllGather { .. } => "all-gather",
            Op::ReduceScatter { .. } => "reduce-scatter",
            Op::AllReduce { .. } => "all-reduce",
            Op::AllToAll { .. } => "all-to-all",
            Op::CollectivePermute { .. } => "collective-permute",
            Op::CollectivePermuteStart { .. } => "collective-permute-start",
            Op::CollectivePermuteDone => "collective-permute-done",
            Op::PartitionId => "partition-id",
        }
    }

    /// Collective classification, or `None` for non-collective ops.
    #[must_use]
    pub fn collective_kind(&self) -> Option<CollectiveOp> {
        match self {
            Op::AllGather { .. } => Some(CollectiveOp::AllGather),
            Op::ReduceScatter { .. } => Some(CollectiveOp::ReduceScatter),
            Op::AllReduce { .. } => Some(CollectiveOp::AllReduce),
            Op::AllToAll { .. } => Some(CollectiveOp::AllToAll),
            Op::CollectivePermute { .. } => Some(CollectiveOp::CollectivePermute),
            Op::CollectivePermuteStart { .. } => Some(CollectiveOp::CollectivePermuteStart),
            Op::CollectivePermuteDone => Some(CollectiveOp::CollectivePermuteDone),
            _ => None,
        }
    }

    /// Whether this op communicates between partitions (any collective).
    #[must_use]
    pub fn is_collective(&self) -> bool {
        self.collective_kind().is_some()
    }

    /// Whether this is an elementwise op (unary, binary or copy), i.e. a
    /// fusion-friendly op for the §5.4.3 fusion pass.
    #[must_use]
    pub fn is_elementwise(&self) -> bool {
        matches!(self, Op::Binary(_) | Op::Unary(_) | Op::Copy)
    }

    /// The permute pairs of a (synchronous or asynchronous-start) collective
    /// permute, if this is one.
    #[must_use]
    pub fn permute_pairs(&self) -> Option<&[(u32, u32)]> {
        match self {
            Op::CollectivePermute { pairs, .. } | Op::CollectivePermuteStart { pairs, .. } => {
                Some(pairs)
            }
            _ => None,
        }
    }

    /// The wire encoding this op transfers data in. Non-collective ops,
    /// `AllToAll`, and `CollectivePermuteDone` (which observes whatever
    /// its paired start put on the wire) report `Lossless`.
    #[must_use]
    pub fn wire(&self) -> WireFormat {
        match self {
            Op::AllGather { wire, .. }
            | Op::ReduceScatter { wire, .. }
            | Op::AllReduce { wire, .. }
            | Op::CollectivePermute { wire, .. }
            | Op::CollectivePermuteStart { wire, .. } => *wire,
            _ => WireFormat::Lossless,
        }
    }

    /// Returns this op with its wire encoding replaced.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::Verification`] for ops that carry no wire
    /// annotation (only `AllGather`, `ReduceScatter`, `AllReduce` and
    /// the synchronous/start collective permutes do).
    pub fn with_wire(mut self, new_wire: WireFormat) -> Result<Op, HloError> {
        match &mut self {
            Op::AllGather { wire, .. }
            | Op::ReduceScatter { wire, .. }
            | Op::AllReduce { wire, .. }
            | Op::CollectivePermute { wire, .. }
            | Op::CollectivePermuteStart { wire, .. } => {
                *wire = new_wire;
                Ok(self)
            }
            other => Err(HloError::Verification(format!(
                "{} carries no wire annotation",
                other.mnemonic()
            ))),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_groups_full() {
        let g = ReplicaGroups::full(4);
        assert_eq!(g.group_size(), 4);
        assert_eq!(g.num_groups(), 1);
        assert_eq!(g.rank_in_group(2), Some(2));
        g.validate(4).unwrap();
        assert!(g.validate(8).is_err());
    }

    #[test]
    fn replica_groups_subgroups() {
        let g = ReplicaGroups::new(vec![vec![0, 2], vec![1, 3]]).unwrap();
        assert_eq!(g.group_size(), 2);
        assert_eq!(g.num_groups(), 2);
        assert_eq!(g.group_containing(3), Some(&[1u32, 3][..]));
        assert_eq!(g.rank_in_group(3), Some(1));
        g.validate(4).unwrap();
    }

    #[test]
    fn replica_groups_reject_malformed() {
        assert!(ReplicaGroups::new(vec![]).is_err());
        assert!(ReplicaGroups::new(vec![vec![]]).is_err());
        assert!(ReplicaGroups::new(vec![vec![0, 1], vec![2]]).is_err());
        assert!(ReplicaGroups::new(vec![vec![0, 1], vec![1, 2]]).is_err());
    }

    #[test]
    fn collective_classification() {
        let ag = Op::AllGather {
            dim: 0,
            groups: ReplicaGroups::full(2),
            wire: WireFormat::Lossless,
        };
        assert_eq!(ag.collective_kind(), Some(CollectiveOp::AllGather));
        assert!(ag.is_collective());
        assert!(!Op::Copy.is_collective());
        assert!(Op::Copy.is_elementwise());
        assert!(!ag.is_elementwise());
    }

    #[test]
    fn permute_pairs_accessor() {
        let pairs: Arc<[(u32, u32)]> = Arc::from([(0, 1), (1, 0)]);
        let cp = Op::CollectivePermute { pairs: pairs.clone(), wire: WireFormat::Lossless };
        let cps =
            Op::CollectivePermuteStart { pairs: pairs.clone(), wire: WireFormat::Lossless };
        assert_eq!(cp.permute_pairs(), Some(&pairs[..]));
        assert_eq!(cps.permute_pairs(), Some(&pairs[..]));
        assert_eq!(Op::CollectivePermuteDone.permute_pairs(), None);
    }

    #[test]
    fn wire_accessor_and_rewrite() {
        let pairs = Arc::from([(0, 1), (1, 0)]);
        let cp = Op::CollectivePermute { pairs, wire: WireFormat::Lossless };
        assert_eq!(cp.wire(), WireFormat::Lossless);
        let q = cp.with_wire(WireFormat::Bf16).unwrap();
        assert_eq!(q.wire(), WireFormat::Bf16);
        assert!(Op::Copy.with_wire(WireFormat::Bf16).is_err());
        assert!(Op::CollectivePermuteDone.with_wire(WireFormat::Bf16).is_err());
        assert_eq!(Op::CollectivePermuteDone.wire(), WireFormat::Lossless);
    }

    #[test]
    fn mnemonics_nonempty() {
        assert_eq!(Op::Reshape.mnemonic(), "reshape");
        assert_eq!(Op::Binary(BinaryKind::Add).to_string(), "add");
    }
}
