//! The §5.1 loop one pattern decomposes into, derived once.
//!
//! A [`LoopPlan`] is the single description of a decomposed pattern that
//! both sides of the compiler read: the §5.5 gate prices it
//! ([`CostModel`](crate::CostModel)) and [`decompose`](crate::decompose)
//! emits it. Group size, the direction actually used, the chunk width,
//! the step and instruction counts and every fallback reason are computed
//! here and nowhere else, so the gate prices the loop that is emitted.

use overlap_hlo::{Module, Op, Shape, WireFormat};

use crate::pattern::{AgCase, Pattern, PatternKind};
use crate::strategy::{PatternStrategy, RingDirection};

/// Where one loop iteration slices, joins and places its partials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LoopGeometry {
    /// `AllGather → Einsum`: the gathered operand's shards circulate.
    AllGather {
        /// Whether the gathered operand is the einsum LHS.
        gathered_is_lhs: bool,
        /// The §5.1 case.
        case: AgCase,
        /// Gathered-operand dimension being circulated.
        gather_dim: usize,
        /// Shard extent along that dimension.
        shard: usize,
        /// Cases 2/3: the other operand's paired dimension to slice.
        other_dim: Option<usize>,
        /// Cases 1/3: the output dimension each partial updates.
        out_dim: Option<usize>,
    },
    /// `Einsum → ReduceScatter`: accumulators circulate.
    ReduceScatter {
        /// Whether the operand owning the scattered dimension is the LHS.
        sliced_is_lhs: bool,
        /// That operand's dimension sliced per iteration.
        sliced_dim: usize,
        /// Slice extent along `sliced_dim`.
        owner_shard: usize,
    },
}

/// One pattern's decomposed loop: a ring of permutes over `group_size`
/// shards feeding a known set of partial einsums. Only
/// [`LoopPlan::new`] builds one, so its counts always match its loop.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct LoopPlan {
    /// The pattern this loop replaces.
    pub pattern: Pattern,
    /// Ring length (partition-group size).
    pub group_size: usize,
    /// Whether the bidirectional ring (§5.4.2) is used.
    pub bidirectional: bool,
    /// Whether the ReduceScatter accumulates in two interleaved chains
    /// (§5.4.1, Fig. 8).
    pub two_chain: bool,
    /// Whether the loop-carried aliasing copies are dropped (see
    /// [`PatternStrategy::unroll`]).
    pub unroll: bool,
    /// Whether shard joins use the `Max(PadLow, PadHigh)` form (§5.4.3).
    pub(crate) pad_max_concat: bool,
    /// Shards joined into one wide partial per super-step (`1` =
    /// shard-at-a-time).
    pub chunk: usize,
    /// Partial einsums emitted.
    pub partials: usize,
    /// Collective permutes emitted (loop plus prologue/epilogue).
    pub permutes: usize,
    /// Ring steps the gate prices as `comm_t_ring`; the bidirectional
    /// prologue/epilogue shift is priced apart, as `extra_t`.
    pub steps: usize,
    /// The value one ring step moves: a gathered shard or a scattered
    /// accumulator.
    pub(crate) shard: Shape,
    /// LHS operand shape of every partial einsum.
    pub partial_lhs: Shape,
    /// RHS operand shape of every partial einsum.
    pub partial_rhs: Shape,
    /// Emission geometry.
    pub(crate) geometry: LoopGeometry,
    /// Wire encoding of the ring's permutes.
    pub(crate) wire: WireFormat,
    /// Why requested unrolling was only partly honored.
    pub unroll_fallback: Option<String>,
    /// Why a requested bidirectional ring fell back to unidirectional.
    pub bidirectional_fallback: Option<String>,
    /// Why a requested chunk width fell back to 1.
    pub chunk_fallback: Option<String>,
}

impl LoopPlan {
    /// Plans `pattern` (found by [`find_patterns`](crate::find_patterns)
    /// on `module`) under `strategy`'s knobs, circulating in direction
    /// `ring`. Infeasible requests fall back, with the reason recorded:
    /// odd groups run one direction and one accumulation chain, and a
    /// chunk width applies only to a unidirectional AllGather ring it
    /// divides into at least two super-steps.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` does not match `module`.
    #[must_use]
    pub fn new(
        module: &Module,
        pattern: &Pattern,
        strategy: &PatternStrategy,
        ring: RingDirection,
    ) -> Self {
        let collective = module.instr(pattern.collective);
        let (Op::AllGather { groups, .. } | Op::ReduceScatter { groups, .. }) = collective.op()
        else {
            panic!("pattern collective is not an all-gather or reduce-scatter")
        };
        let g = groups.group_size();
        let even = g.is_multiple_of(2);
        let bidi_requested = ring == RingDirection::Bidirectional;
        let bidirectional = bidi_requested && even;
        let einsum = module.instr(pattern.einsum);
        let Op::Einsum(dims) = einsum.op() else { panic!("pattern einsum is not an einsum") };
        let lhs = module.shape_of(einsum.operands()[0]);
        let rhs = module.shape_of(einsum.operands()[1]);

        let (geometry, shard) = match (pattern.kind, collective.op()) {
            (
                PatternKind::AllGatherEinsum { gathered_is_lhs, case },
                &Op::AllGather { dim: gather_dim, .. },
            ) => {
                let (other_dim, out_dim) = match case {
                    AgCase::Free => {
                        let out = if gathered_is_lhs {
                            dims.output_dim_of_lhs_free(lhs.rank(), gather_dim)
                        } else {
                            dims.output_dim_of_rhs_free(lhs.rank(), rhs.rank(), gather_dim)
                        };
                        (None, Some(out.expect("free dim maps to output")))
                    }
                    AgCase::Contracting | AgCase::Batch => {
                        let other = if gathered_is_lhs {
                            dims.rhs_dim_paired_with(gather_dim)
                        } else {
                            dims.lhs_dim_paired_with(gather_dim)
                        };
                        // Case 3 updates the output dimension of its batch
                        // pair; output batch dims lead, in pair order.
                        let out_dim = (case == AgCase::Batch).then(|| {
                            dims.batch()
                                .iter()
                                .position(|&(l, r)| {
                                    gather_dim == if gathered_is_lhs { l } else { r }
                                })
                                .expect("batch dim is paired")
                        });
                        (Some(other.expect("contracting/batch dim is paired")), out_dim)
                    }
                };
                let shard = module.shape_of(collective.operands()[0]).clone();
                let extent = shard.dim(gather_dim);
                let geometry = LoopGeometry::AllGather {
                    gathered_is_lhs,
                    case,
                    gather_dim,
                    shard: extent,
                    other_dim,
                    out_dim,
                };
                (geometry, shard)
            }
            (
                PatternKind::EinsumReduceScatter { sliced_is_lhs, sliced_dim },
                Op::ReduceScatter { .. },
            ) => {
                let owner = if sliced_is_lhs { lhs } else { rhs };
                let owner_shard = owner.dim(sliced_dim) / g;
                let geometry =
                    LoopGeometry::ReduceScatter { sliced_is_lhs, sliced_dim, owner_shard };
                (geometry, collective.shape().clone())
            }
            _ => panic!("pattern kind does not match its collective"),
        };

        let mut plan = LoopPlan {
            pattern: *pattern,
            group_size: g,
            bidirectional,
            two_chain: false,
            unroll: strategy.unroll,
            pad_max_concat: strategy.pad_max_concat,
            chunk: 1,
            partials: g,
            permutes: g - 1,
            steps: if bidirectional { g / 2 } else { g - 1 },
            shard,
            partial_lhs: lhs.clone(),
            partial_rhs: rhs.clone(),
            geometry,
            wire: strategy.wire,
            unroll_fallback: None,
            bidirectional_fallback: (bidi_requested && !even)
                .then(|| format!("bidirectional ring needs an even group (group size {g})")),
            chunk_fallback: None,
        };
        match plan.geometry {
            LoopGeometry::AllGather {
                gathered_is_lhs, case, gather_dim, shard, other_dim, ..
            } => {
                let c = strategy.chunk.max(1);
                plan.chunk_fallback = if c == 1 {
                    None
                } else if bidirectional {
                    Some(
                        "bidirectional ring already joins two shards per step; chunk ignored"
                            .into(),
                    )
                } else if c >= g {
                    Some(format!("chunk {c} leaves no loop to overlap (group size {g})"))
                } else if !g.is_multiple_of(c) {
                    Some(format!("chunk {c} does not divide the group size {g}"))
                } else {
                    plan.chunk = c;
                    None
                };
                // Bidirectional free/batch partials are double-width;
                // chunked loops join `chunk` shards per partial.
                let width =
                    if bidirectional && case != AgCase::Contracting { 2 } else { plan.chunk };
                plan.partials = g / width;
                let (gathered, other) = if gathered_is_lhs {
                    (&mut plan.partial_lhs, &mut plan.partial_rhs)
                } else {
                    (&mut plan.partial_rhs, &mut plan.partial_lhs)
                };
                *gathered = gathered.with_dim(gather_dim, shard * width);
                if let Some(od) = other_dim {
                    *other = other.with_dim(od, shard * width);
                }
            }
            LoopGeometry::ReduceScatter { sliced_is_lhs, sliced_dim, owner_shard } => {
                plan.two_chain = strategy.unroll && even && !bidirectional;
                // Unrolling still drops the loop-carried copies on odd
                // groups; only the two-chain form needs an even group.
                plan.unroll_fallback = (strategy.unroll && !even)
                    .then(|| format!("two-chain unrolling needs an even group (group size {g})"));
                plan.chunk_fallback = (strategy.chunk > 1).then(|| {
                    "reduce-scatter chains cannot chunk (each partial feeds a traveling accumulator)"
                        .to_string()
                });
                if !bidirectional {
                    // The single chain hops once per partial; the two-chain
                    // form saves the last hop.
                    plan.permutes = if plan.two_chain { g - 1 } else { g };
                    plan.steps = g;
                }
                let owner =
                    if sliced_is_lhs { &mut plan.partial_lhs } else { &mut plan.partial_rhs };
                *owner = owner.with_dim(sliced_dim, owner_shard);
            }
        }
        plan
    }
}
