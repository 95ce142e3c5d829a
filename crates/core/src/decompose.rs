//! The looped collective-einsum graph rewrite (§5.1, Algorithm 1, plus the
//! §5.4 optimizations).
//!
//! Each selected `AllGather → Einsum` or `Einsum → ReduceScatter` pair is
//! replaced with the fully unrolled iteration sequence of the paper's
//! generated loop: per iteration, one partial einsum over the data shard
//! currently held, a `DynamicUpdateSlice`/`Add` combining step, and a
//! single-hop collective permute circulating shards (AllGather case) or
//! accumulators (ReduceScatter case) around the partition ring, emitted
//! as the §5.2 async `CollectivePermuteStart`/`Done` pair.
//!
//! Emitting the unrolled form (instead of a rolled `While` loop) is
//! behaviour-preserving — XLA itself schedules straight-line per-iteration
//! bodies — and lets the schedulers and the simulator work on one flat
//! instruction sequence. The *loop unrolling* optimization of §5.4.1 is
//! modeled as what it actually changes in the dataflow: without it, every
//! circulated value needs an explicit `Copy` (the loop-carried aliasing
//! copy XLA inserts) and the ReduceScatter case has a single accumulation
//! chain; with it, the copies disappear and the accumulation splits into
//! two interleaved chains with a one-hop alignment epilogue (Fig. 8). The
//! *bidirectional transfer* of §5.4.2 circulates two half-sets of shards
//! in opposite ring directions with a prologue (AllGather) or epilogue
//! (ReduceScatter) shift, doubling usable link bandwidth.

use std::sync::Arc;

use overlap_hlo::{
    Builder, DType, InstrId, Module, ModuleAnalysis, Op, PadDim, ReplicaGroups, Shape,
};
use overlap_mesh::shift_pairs;

use crate::pattern::{AgCase, PatternKind};
use crate::plan::{LoopGeometry, LoopPlan};

/// What the decomposition did to one pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecomposeSummary {
    /// Name of the original einsum.
    pub einsum: String,
    /// Ring length (partition-group size).
    pub group_size: usize,
    /// Number of partial einsums emitted.
    pub partial_einsums: usize,
    /// Number of collective permutes emitted (loop + prologue/epilogue).
    pub permutes: usize,
    /// Whether the bidirectional form was used.
    pub bidirectional: bool,
    /// Whether the unrolled (two-chain / copy-free) form was used.
    pub unrolled: bool,
    /// Chunk width the loop actually used (`1` = shard-at-a-time).
    pub chunk: usize,
    /// Why requested unrolling was dropped (`None` when honored) — e.g.
    /// the two-chain ReduceScatter form needs an even group.
    pub unroll_fallback: Option<String>,
    /// Why a requested bidirectional ring fell back to unidirectional.
    pub bidirectional_fallback: Option<String>,
    /// Why a requested chunk width fell back to 1.
    pub chunk_fallback: Option<String>,
}

/// Tag placed on every instruction the decomposition emits.
pub(crate) const LCE_TAG: &str = "lce";
/// Tag on the partial einsums.
pub(crate) const LCE_EINSUM_TAG: &str = "lce.partial_einsum";
/// Tag on the combining `Add`/`DynamicUpdateSlice` steps.
pub(crate) const LCE_COMBINE_TAG: &str = "lce.combine";
/// Tag on the circulating collective permutes.
pub(crate) const LCE_CP_TAG: &str = "lce.cp";

/// Applies the looped collective-einsum rewrite, emitting each
/// [`LoopPlan`] (the pipeline's cost gate chooses one per selected
/// pattern) and summarizing each loop from its plan.
///
/// Plans must come from patterns [`find_patterns`](crate::find_patterns)
/// found on this very module and reference disjoint instructions (at most
/// one pattern per einsum; the pipeline's cost gate guarantees this). All
/// other instructions are copied unchanged, except that a synchronous
/// `CollectivePermute` is split into its start/done pair too.
///
/// Returns the transformed module, a per-pattern summary and the
/// module's [`ModuleAnalysis`], maintained append-by-append while the
/// builder emits the loops. The builder also value-numbers pure
/// instructions as it appends (the loops emit the same rank table and
/// scalar index constants per pattern), so the module is already in CSE
/// normal form: running [`overlap_hlo::eliminate_common_subexpressions`]
/// on it is an identity.
///
/// # Example
///
/// ```
/// use overlap_core::{decompose, find_patterns, LoopPlan, PatternStrategy};
/// use overlap_hlo::{Builder, DType, DotDims, ModuleAnalysis, Op, ReplicaGroups, Shape};
///
/// let n = 4;
/// let mut b = Builder::new("layer", n);
/// let x = b.parameter(Shape::new(DType::F32, vec![8, 16]), "x");
/// let w = b.parameter(Shape::new(DType::F32, vec![16, 8]), "w_shard");
/// let wg = b.all_gather(w, 1, ReplicaGroups::full(n), "w");
/// let y = b.einsum(x, wg, DotDims::matmul(), "y");
/// let m = b.build(vec![y]);
///
/// let patterns = find_patterns(&m, &ModuleAnalysis::of(&m));
/// let knobs = PatternStrategy::default();
/// let plan = LoopPlan::new(&m, &patterns[0], &knobs, knobs.ring);
/// let (out, summaries, _) = decompose(&m, &[plan]);
/// assert_eq!(summaries[0].partial_einsums, 2); // bidirectional: N/2 double-width
/// assert_eq!(out.count_live(|i| matches!(i.op(), Op::AllGather { .. })), 0);
/// ```
///
/// # Panics
///
/// Panics if a plan's pattern does not match `module`.
#[must_use]
pub fn decompose(
    module: &Module,
    plans: &[LoopPlan],
) -> (Module, Vec<DecomposeSummary>, ModuleAnalysis) {
    decompose_impl(module, plans, true)
}

/// The rewrite proper. Without `value_number` the builder appends every
/// emitted instruction as is; the unit tests use that form as the
/// reference the value-numbered one must match after CSE.
fn decompose_impl(
    module: &Module,
    plans: &[LoopPlan],
    value_number: bool,
) -> (Module, Vec<DecomposeSummary>, ModuleAnalysis) {
    let mut b = Builder::new(module.name().to_string(), module.num_partitions());
    if value_number {
        b.enable_value_numbering();
    }
    let mut map: Vec<Option<InstrId>> = vec![None; module.len()];
    let mut summaries = Vec::new();
    let mut ring = RingPairs::default();

    // Index plans by the instruction at which we emit the loop: the
    // einsum for AllGather patterns, the ReduceScatter for RS patterns.
    let mut skip = vec![false; module.len()];
    let mut emit_at: Vec<Option<&LoopPlan>> = vec![None; module.len()];
    for plan in plans {
        let p = &plan.pattern;
        let (consumed, at) = match p.kind {
            PatternKind::AllGatherEinsum { .. } => (p.collective, p.einsum),
            PatternKind::EinsumReduceScatter { .. } => (p.einsum, p.collective),
        };
        skip[consumed.index()] = true;
        emit_at[at.index()] = Some(plan);
    }

    for (id, ins) in module.iter() {
        if skip[id.index()] {
            continue;
        }
        if let Some(plan) = emit_at[id.index()] {
            map[id.index()] = Some(emit_pattern(&mut b, &mut ring, module, plan, &map));
            summaries.push(summary(module, plan));
            continue;
        }
        let operands: Vec<InstrId> = ins
            .operands()
            .iter()
            .map(|o| map[o.index()].expect("operands precede users"))
            .collect();
        map[id.index()] = Some(match ins.op() {
            Op::CollectivePermute { pairs, wire } => {
                b.set_tag(ins.tag());
                let done =
                    b.collective_permute_async(operands[0], Arc::clone(pairs), *wire, ins.name());
                b.set_tag(None);
                done
            }
            _ => b.copy_of(module, id, operands),
        });
    }

    let outputs = module
        .outputs()
        .iter()
        .map(|o| map[o.index()].expect("outputs mapped"))
        .collect();
    let (rewritten, analysis) = b.build_with_analysis(outputs);
    (rewritten, summaries, analysis)
}

/// What `plan` emits, as recorded in the compile artifact.
fn summary(module: &Module, plan: &LoopPlan) -> DecomposeSummary {
    DecomposeSummary {
        einsum: module.instr(plan.pattern.einsum).name().to_string(),
        group_size: plan.group_size,
        partial_einsums: plan.partials,
        permutes: plan.permutes,
        bidirectional: plan.bidirectional,
        unrolled: plan.unroll,
        chunk: plan.chunk,
        unroll_fallback: plan.unroll_fallback.clone(),
        bidirectional_fallback: plan.bidirectional_fallback.clone(),
        chunk_fallback: plan.chunk_fallback.clone(),
    }
}

type Pairs = Arc<[(u32, u32)]>;

/// One pair list per (replica groups, ring step) for the whole call: §5.1
/// builds every step from the same pairs, so the permutes share an `Arc`.
#[derive(Default)]
struct RingPairs(Vec<(ReplicaGroups, i64, Pairs)>);

impl RingPairs {
    fn get(&mut self, groups: &ReplicaGroups, step: i64) -> Pairs {
        if let Some((_, _, pairs)) = self.0.iter().find(|(g, s, _)| *s == step && g == groups) {
            return Arc::clone(pairs);
        }
        let pairs: Pairs = shift_pairs(groups, step).into();
        self.0.push((groups.clone(), step, Arc::clone(&pairs)));
        pairs
    }
}

/// Per-pattern loop emission context: group bookkeeping plus the scalar
/// index-arithmetic instructions shared by all iterations.
struct LoopCtx<'a> {
    groups: &'a ReplicaGroups,
    g: usize,
    /// This device's rank within its replica group (`u32` scalar), looked
    /// up from a partition-id-indexed constant table.
    rank: InstrId,
    /// Shared `u32` zero used for untouched `DynamicUpdateSlice` indices.
    zero: InstrId,
    g_const: InstrId,
}

impl<'a> LoopCtx<'a> {
    fn new(b: &mut Builder, groups: &'a ReplicaGroups, g: usize, num_partitions: usize) -> Self {
        // Verified groups cover every partition exactly once.
        let mut table_vals = vec![0.0; num_partitions];
        for group in groups.groups() {
            for (rank, &pid) in group.iter().enumerate() {
                table_vals[pid as usize] = rank as f64;
            }
        }
        let table = b.constant_tensor(
            Shape::new(DType::U32, vec![num_partitions]),
            table_vals,
            "lce.rank_table",
        );
        let pid = b.partition_id("lce.pid");
        let rank1 = b.dynamic_slice(table, &[pid], vec![1], "lce.rank1");
        let rank = b.reshape(rank1, vec![], "lce.rank");
        let zero = b.constant(Shape::scalar(DType::U32), 0.0, "lce.zero");
        let g_const = b.constant(Shape::scalar(DType::U32), g as f64, "lce.g");
        LoopCtx { groups, g, rank, zero, g_const }
    }

    /// `(rank + delta) mod g` as a `u32` scalar (delta normalized into
    /// `0..g`).
    fn shard_index(&self, b: &mut Builder, delta: i64) -> InstrId {
        let d = delta.rem_euclid(self.g as i64);
        let c = b.constant(Shape::scalar(DType::U32), d as f64, "lce.delta");
        let sum = b.add(self.rank, c, "lce.rank_plus");
        b.rem(sum, self.g_const, "lce.shard")
    }

    /// `((rank + delta) mod g) * scale` as a `u32` scalar.
    fn offset(&self, b: &mut Builder, delta: i64, scale: usize) -> InstrId {
        let idx = self.shard_index(b, delta);
        let s = b.constant(Shape::scalar(DType::U32), scale as f64, "lce.scale");
        b.mul(idx, s, "lce.offset")
    }

    /// Index vector for a rank-`rank_count` slice/update touching only
    /// `dim` (all other indices zero).
    fn index_vec(&self, dim: usize, rank_count: usize, offset: InstrId) -> Vec<InstrId> {
        (0..rank_count).map(|d| if d == dim { offset } else { self.zero }).collect()
    }
}

/// One ring step: the async permute of `value` (§5.2) and, in the rolled
/// loop, the loop-carried aliasing copy XLA inserts (§5.4.1).
fn ring_step(
    b: &mut Builder,
    value: InstrId,
    pairs: &Pairs,
    plan: &LoopPlan,
    name: &str,
) -> InstrId {
    b.set_tag(Some(LCE_CP_TAG));
    let sent =
        b.collective_permute_async(value, Arc::clone(pairs), plan.wire, &format!("{name}.cp"));
    b.set_tag(Some(LCE_TAG));
    if plan.unroll {
        sent
    } else {
        b.copy(sent, &format!("{name}.loop_copy"))
    }
}

fn emit_pattern(
    b: &mut Builder,
    ring: &mut RingPairs,
    module: &Module,
    plan: &LoopPlan,
    map: &[Option<InstrId>],
) -> InstrId {
    let collective = module.instr(plan.pattern.collective);
    let (Op::AllGather { groups, .. } | Op::ReduceScatter { groups, .. }) = collective.op() else {
        unreachable!("plans are built on AllGather/ReduceScatter patterns")
    };
    b.set_tag(Some(LCE_TAG));
    let ctx = LoopCtx::new(b, groups, plan.group_size, module.num_partitions());
    let result = match plan.geometry {
        LoopGeometry::AllGather { .. } => emit_ag_einsum(b, ring, module, plan, &ctx, map),
        LoopGeometry::ReduceScatter { .. } => emit_einsum_rs(b, ring, module, plan, &ctx, map),
    };
    b.set_tag(None);
    result
}

/// Emits a concatenation of two shards along `dim` — either a plain
/// `Concatenate` or the fusion-friendly `Max(PadLow, PadHigh)` form of
/// §5.4.3 (the two are semantically identical for the `-inf` pad value).
fn emit_join(
    b: &mut Builder,
    a: InstrId,
    c: InstrId,
    dim: usize,
    pad_max: bool,
    name: &str,
) -> InstrId {
    if !pad_max {
        return b.concatenate(&[a, c], dim, name);
    }
    let sa = b.shape_of(a).clone();
    let sc = b.shape_of(c).clone();
    let ninf = b.constant(Shape::scalar(sa.dtype()), f64::NEG_INFINITY, "lce.ninf");
    let mut low_cfg = vec![PadDim::none(); sa.rank()];
    low_cfg[dim] = PadDim::new(0, sc.dim(dim));
    let mut high_cfg = vec![PadDim::none(); sc.rank()];
    high_cfg[dim] = PadDim::new(sa.dim(dim), 0);
    let pa = b.pad(a, ninf, low_cfg, &format!("{name}.padlow"));
    let pc = b.pad(c, ninf, high_cfg, &format!("{name}.padhigh"));
    b.max(pa, pc, name)
}

/// [`emit_join`] generalized to `parts.len()` shards (the chunked
/// unidirectional loop joins `chunk` consecutive shards per super-step).
/// The pad-max form pads each part to the joined width at its slot and
/// folds with `Max` — semantically identical to the concatenation for
/// the `-inf` pad value.
fn emit_join_many(
    b: &mut Builder,
    parts: &[InstrId],
    dim: usize,
    pad_max: bool,
    name: &str,
) -> InstrId {
    if parts.len() == 2 {
        return emit_join(b, parts[0], parts[1], dim, pad_max, name);
    }
    if !pad_max {
        return b.concatenate(parts, dim, name);
    }
    let total: usize = parts.iter().map(|&p| b.shape_of(p).dim(dim)).sum();
    let dtype = b.shape_of(parts[0]).dtype();
    let ninf = b.constant(Shape::scalar(dtype), f64::NEG_INFINITY, "lce.ninf");
    let mut acc: Option<InstrId> = None;
    let mut before = 0usize;
    for &p in parts {
        let sp = b.shape_of(p).clone();
        let w = sp.dim(dim);
        let mut cfg = vec![PadDim::none(); sp.rank()];
        cfg[dim] = PadDim::new(before, total - before - w);
        let padded = b.pad(p, ninf, cfg, &format!("{name}.pad"));
        acc = Some(match acc {
            None => padded,
            Some(a) => b.max(a, padded, name),
        });
        before += w;
    }
    acc.expect("emit_join_many needs at least one part")
}

fn emit_ag_einsum(
    b: &mut Builder,
    ring: &mut RingPairs,
    module: &Module,
    plan: &LoopPlan,
    ctx: &LoopCtx,
    map: &[Option<InstrId>],
) -> InstrId {
    let LoopGeometry::AllGather { gathered_is_lhs, case, gather_dim, shard, other_dim, out_dim } =
        plan.geometry
    else {
        unreachable!("AllGather plan")
    };
    let pattern = &plan.pattern;
    let einsum = module.instr(pattern.einsum);
    let Op::Einsum(dims) = einsum.op() else { unreachable!("pattern einsum") };
    let name = einsum.name();
    let (g, chunk) = (plan.group_size, plan.chunk);

    // Mapped local inputs.
    let gathered_src = module.instr(pattern.collective).operands()[0];
    let looped0 = map[gathered_src.index()].expect("gather operand mapped");
    let other_src = if gathered_is_lhs { einsum.operands()[1] } else { einsum.operands()[0] };
    let other = map[other_src.index()].expect("other operand mapped");

    // Slice of the non-circulating operand matching the shard with index
    // expression `(rank + delta) mod g` (cases 2 and 3; case 1 uses the
    // whole operand).
    let slice_other = |b: &mut Builder, delta: i64| -> InstrId {
        let od = other_dim.expect("slice only in cases 2/3");
        let offset = ctx.offset(b, delta, shard);
        let sizes: Vec<usize> = b
            .shape_of(other)
            .dims()
            .iter()
            .enumerate()
            .map(|(d, &s)| if d == od { shard } else { s })
            .collect();
        let rank_count = b.shape_of(other).rank();
        let idx = ctx.index_vec(od, rank_count, offset);
        b.set_tag(Some(LCE_TAG));
        b.dynamic_slice(other, &idx, sizes, &format!("{name}.ds"))
    };

    // The partial einsum for the shard with index expression
    // `(rank + delta) mod g`, given the circulating shard value.
    let emit_partial = |b: &mut Builder, looped: InstrId, delta: i64| {
        let other_used = match other_dim {
            None => other,
            Some(_) => slice_other(b, delta),
        };
        b.set_tag(Some(LCE_EINSUM_TAG));
        let partial = if gathered_is_lhs {
            b.einsum(looped, other_used, dims.clone(), &format!("{name}.partial"))
        } else {
            b.einsum(other_used, looped, dims.clone(), &format!("{name}.partial"))
        };
        b.set_tag(Some(LCE_TAG));
        partial
    };

    // Combine a partial into the result.
    let combine = |b: &mut Builder, result: InstrId, partial: InstrId, delta: i64| -> InstrId {
        b.set_tag(Some(LCE_COMBINE_TAG));
        let combined = match out_dim {
            None => b.add(result, partial, &format!("{name}.acc")),
            Some(out_dim) => {
                let out_shard = b.shape_of(partial).dim(out_dim);
                let offset = ctx.offset(b, delta, out_shard);
                let rank_count = b.shape_of(result).rank();
                let idx = ctx.index_vec(out_dim, rank_count, offset);
                b.dynamic_update_slice(result, partial, &idx, &format!("{name}.dus"))
            }
        };
        b.set_tag(Some(LCE_TAG));
        combined
    };

    let cp =
        |b: &mut Builder, value: InstrId, pairs: &Pairs| ring_step(b, value, pairs, plan, name);

    // Every case builds the einsum's (local) output up from zeros.
    let mut result = b.zeros(einsum.shape().clone(), &format!("{name}.init"));

    if !plan.bidirectional && chunk == 1 {
        let back = ring.get(ctx.groups, -1);
        let mut looped = looped0;
        for i in 0..g {
            let partial = emit_partial(b, looped, i as i64);
            if i + 1 < g {
                looped = cp(b, looped, &back);
            }
            result = combine(b, result, partial, i as i64);
        }
    } else if !plan.bidirectional {
        // Chunked unidirectional loop: shards still circulate one hop at
        // a time (permute count unchanged at g-1), but every `chunk`
        // arrivals are joined into one wide partial einsum — g/chunk
        // partials of `chunk` shards each, trading per-kernel launch
        // overhead for coarser overlap granularity.
        let back = ring.get(ctx.groups, -1);
        let mut looped = looped0;
        let mut window: Vec<InstrId> = Vec::with_capacity(chunk);
        for i in 0..g {
            window.push(looped);
            if i + 1 < g {
                looped = cp(b, looped, &back);
            }
            if window.len() < chunk {
                continue;
            }
            // Delta of the window's first shard.
            let d0 = (i + 1 - chunk) as i64;
            let join = format!("{name}.join");
            let joined = emit_join_many(b, &window, gather_dim, plan.pad_max_concat, &join);
            let other_used = match other_dim {
                None => other,
                Some(od) => {
                    let slices: Vec<InstrId> =
                        (0..chunk).map(|k| slice_other(b, d0 + k as i64)).collect();
                    b.concatenate(&slices, od, &format!("{name}.join_other"))
                }
            };
            b.set_tag(Some(LCE_EINSUM_TAG));
            let wide = if gathered_is_lhs {
                b.einsum(joined, other_used, dims.clone(), &format!("{name}.partialw"))
            } else {
                b.einsum(other_used, joined, dims.clone(), &format!("{name}.partialw"))
            };
            b.set_tag(Some(LCE_TAG));
            match out_dim {
                // Contracting case: the wide einsum already sums over all
                // `chunk` shards; one Add folds it in.
                None => result = combine(b, result, wide, d0),
                Some(out_dim) => {
                    // The window's shards are contiguous in the wide
                    // partial but generally not in the (mod-g) output
                    // layout — at the ring wrap they land at both ends —
                    // so slice the wide partial back into single-shard
                    // pieces and update each at its own offset.
                    let pw = b.shape_of(wide).clone();
                    let piece = pw.dim(out_dim) / chunk;
                    for k in 0..chunk {
                        let mut starts = vec![0usize; pw.rank()];
                        let mut limits = pw.dims().to_vec();
                        starts[out_dim] = k * piece;
                        limits[out_dim] = (k + 1) * piece;
                        let pk = b.slice(wide, starts, limits, &format!("{name}.piece"));
                        result = combine(b, result, pk, d0 + k as i64);
                    }
                }
            }
            window.clear();
        }
    } else {
        // Bidirectional (§5.4.2): prologue shifts a copy of the local
        // shard clockwise so each device starts with shards
        // {rank, rank-1}, then the two sets circulate in opposite
        // directions.
        let m = g / 2;
        let (back, fwd) = (ring.get(ctx.groups, -1), ring.get(ctx.groups, 1));
        let mut left = looped0;
        let mut right = cp(b, looped0, &fwd);
        for t in 0..m {
            let (dl, dr) = (t as i64, -1 - t as i64);
            if case == AgCase::Contracting {
                // Contracting case: two single-shard partials, two
                // accumulating adds (contributions are order-independent).
                let pl = emit_partial(b, left, dl);
                let pr = emit_partial(b, right, dr);
                result = combine(b, result, pl, dl);
                result = combine(b, result, pr, dr);
            } else {
                // Concatenate the two circulating shards (and, in the
                // batch case, the matching slices of the other operand) so
                // one double-width einsum covers both — the §5.4.2 trick
                // that keeps per-iteration compute large.
                let join = format!("{name}.join");
                let joined = emit_join(b, left, right, gather_dim, plan.pad_max_concat, &join);
                let other_used = match other_dim {
                    None => other,
                    Some(od) => {
                        let sl = slice_other(b, dl);
                        let sr = slice_other(b, dr);
                        b.concatenate(&[sl, sr], od, &format!("{name}.join_other"))
                    }
                };
                // The two shards are not contiguous in the output, so
                // compute a double-width partial and split it.
                let partial2 = {
                    b.set_tag(Some(LCE_EINSUM_TAG));
                    let p = if gathered_is_lhs {
                        b.einsum(joined, other_used, dims.clone(), &format!("{name}.partial2"))
                    } else {
                        b.einsum(other_used, joined, dims.clone(), &format!("{name}.partial2"))
                    };
                    b.set_tag(Some(LCE_TAG));
                    p
                };
                let out_dim = out_dim.expect("free/batch case has an output dim");
                let p2 = b.shape_of(partial2).clone();
                let half = p2.dim(out_dim) / 2;
                let mut starts = vec![0usize; p2.rank()];
                let mut limits = p2.dims().to_vec();
                limits[out_dim] = half;
                let pl = b.slice(partial2, starts.clone(), limits.clone(), &format!("{name}.lo"));
                starts[out_dim] = half;
                limits[out_dim] = 2 * half;
                let pr = b.slice(partial2, starts, limits, &format!("{name}.hi"));
                result = combine(b, result, pl, dl);
                result = combine(b, result, pr, dr);
            }
            if t + 1 < m {
                left = cp(b, left, &back);
                right = cp(b, right, &fwd);
            }
        }
    }
    result
}

fn emit_einsum_rs(
    b: &mut Builder,
    ring: &mut RingPairs,
    module: &Module,
    plan: &LoopPlan,
    ctx: &LoopCtx,
    map: &[Option<InstrId>],
) -> InstrId {
    let LoopGeometry::ReduceScatter { sliced_is_lhs, sliced_dim, owner_shard } = plan.geometry
    else {
        unreachable!("ReduceScatter plan")
    };
    let einsum = module.instr(plan.pattern.einsum);
    let Op::Einsum(dims) = einsum.op() else { unreachable!("pattern einsum") };
    let name = einsum.name();
    let shard_shape = &plan.shard;
    let g = plan.group_size;

    let lhs = map[einsum.operands()[0].index()].expect("mapped");
    let rhs = map[einsum.operands()[1].index()].expect("mapped");
    let (owner, other) = if sliced_is_lhs { (lhs, rhs) } else { (rhs, lhs) };

    // Partial einsum for shard `(rank + delta) mod g`.
    let emit_partial = |b: &mut Builder, delta: i64| -> InstrId {
        let offset = ctx.offset(b, delta, owner_shard);
        let sizes: Vec<usize> = b
            .shape_of(owner)
            .dims()
            .iter()
            .enumerate()
            .map(|(d, &s)| if d == sliced_dim { owner_shard } else { s })
            .collect();
        let rank_count = b.shape_of(owner).rank();
        let idx = ctx.index_vec(sliced_dim, rank_count, offset);
        b.set_tag(Some(LCE_TAG));
        let sliced = b.dynamic_slice(owner, &idx, sizes, &format!("{name}.ds"));
        b.set_tag(Some(LCE_EINSUM_TAG));
        let partial = if sliced_is_lhs {
            b.einsum(sliced, other, dims.clone(), &format!("{name}.partial"))
        } else {
            b.einsum(other, sliced, dims.clone(), &format!("{name}.partial"))
        };
        b.set_tag(Some(LCE_TAG));
        partial
    };

    let cp =
        |b: &mut Builder, value: InstrId, pairs: &Pairs| ring_step(b, value, pairs, plan, name);

    let acc_add = |b: &mut Builder, acc: InstrId, partial: InstrId| -> InstrId {
        b.set_tag(Some(LCE_COMBINE_TAG));
        let r = b.add(acc, partial, &format!("{name}.acc"));
        b.set_tag(Some(LCE_TAG));
        r
    };

    if plan.bidirectional {
        // Two accumulators travel in opposite directions (§5.4.2, Fig. 10);
        // the clockwise one is shifted once more in the epilogue and added.
        let m = g / 2;
        let (back, fwd) = (ring.get(ctx.groups, -1), ring.get(ctx.groups, 1));
        let mut acc_l = b.zeros(shard_shape.clone(), &format!("{name}.init_l"));
        let mut acc_r = b.zeros(shard_shape.clone(), &format!("{name}.init_r"));
        for t in 0..m {
            let dl = 1 - (m as i64) + t as i64; // shard (rank - m + 1 + t)
            let dr = m as i64 - t as i64; // shard (rank + m - t)
            let pl = emit_partial(b, dl);
            let pr = emit_partial(b, dr);
            if t > 0 {
                acc_l = cp(b, acc_l, &back);
                acc_r = cp(b, acc_r, &fwd);
            }
            acc_l = acc_add(b, acc_l, pl);
            acc_r = acc_add(b, acc_r, pr);
        }
        let aligned = cp(b, acc_r, &fwd);
        acc_add(b, acc_l, aligned)
    } else if plan.two_chain {
        // Unrolled two-chain form (§5.4.1, Fig. 8): chain A accumulates
        // shards (rank + 2j + 2), chain B (rank + 2j + 3); both hop two
        // ring positions between contributions; the epilogue aligns chain
        // B with a single forward hop.
        let m = g / 2;
        let (back2, fwd) = (ring.get(ctx.groups, -2), ring.get(ctx.groups, 1));
        let mut acc_a = b.zeros(shard_shape.clone(), &format!("{name}.init_a"));
        let mut acc_b = b.zeros(shard_shape.clone(), &format!("{name}.init_b"));
        for j in 0..m {
            let da = 2 * j as i64 + 2;
            let db = 2 * j as i64 + 3;
            let pa = emit_partial(b, da);
            let pb = emit_partial(b, db);
            if j > 0 {
                acc_a = cp(b, acc_a, &back2);
                acc_b = cp(b, acc_b, &back2);
            }
            acc_a = acc_add(b, acc_a, pa);
            acc_b = acc_add(b, acc_b, pb);
        }
        let aligned = cp(b, acc_b, &fwd);
        acc_add(b, acc_a, aligned)
    } else {
        // Single chain (Algorithm 1): the accumulator is transferred at
        // the start of every iteration and the partial added on arrival.
        let back = ring.get(ctx.groups, -1);
        let mut acc = b.zeros(shard_shape.clone(), &format!("{name}.init"));
        for i in 0..g {
            let partial = emit_partial(b, i as i64 + 1);
            acc = cp(b, acc, &back);
            acc = acc_add(b, acc, partial);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use overlap_hlo::{eliminate_common_subexpressions, Builder, DType, DotDims, Shape};
    use overlap_mesh::Machine;

    use super::*;
    use crate::pattern::patterns_of;
    use crate::{PatternStrategy, RingDirection, StrategySpec};

    fn f32s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    /// Decomposes every pattern of `m` under `knobs`.
    fn decompose_all(m: &Module, knobs: &PatternStrategy) -> (Module, Vec<DecomposeSummary>) {
        let plans: Vec<_> =
            patterns_of(m).iter().map(|p| LoopPlan::new(m, p, knobs, knobs.ring)).collect();
        let (out, summaries, _) = decompose(m, &plans);
        (out, summaries)
    }

    fn ag_module(n: usize) -> Module {
        let mut b = Builder::new("ag", n);
        let x = b.parameter(f32s(&[8, 16]), "x");
        let w = b.parameter(f32s(&[16, 32 / n]), "w");
        let g = b.all_gather(w, 1, ReplicaGroups::full(n), "g");
        let e = b.einsum(x, g, DotDims::matmul(), "e");
        b.build(vec![e])
    }

    fn rs_module(n: usize) -> Module {
        let mut b = Builder::new("rs", n);
        let x = b.parameter(f32s(&[8, 16]), "x");
        let w = b.parameter(f32s(&[16, 32]), "w");
        let e = b.einsum(x, w, DotDims::matmul(), "e");
        let rs = b.reduce_scatter(e, 1, ReplicaGroups::full(n), "rs");
        b.build(vec![rs])
    }

    #[test]
    fn ag_unidirectional_structure() {
        let m = ag_module(4);
        let opts = PatternStrategy { ring: RingDirection::Unidirectional, ..Default::default() };
        let (out, summaries) = decompose_all(&m, &opts);
        out.verify().unwrap();
        assert_eq!(summaries.len(), 1);
        let s = &summaries[0];
        assert_eq!(s.group_size, 4);
        assert_eq!(s.partial_einsums, 4);
        assert_eq!(s.permutes, 3); // N-1 for the AllGather case
        assert!(!s.bidirectional);
        // The original collective is gone.
        assert_eq!(out.count_live(|i| matches!(i.op(), Op::AllGather { .. })), 0);
        assert_eq!(
            out.count_live(|i| matches!(i.op(), Op::CollectivePermuteStart { .. })),
            3
        );
        // Output shape preserved.
        assert_eq!(out.shape_of(out.outputs()[0]), m.shape_of(m.outputs()[0]));
    }

    #[test]
    fn ag_bidirectional_structure() {
        let m = ag_module(4);
        let opts = PatternStrategy { ring: RingDirection::Bidirectional, ..Default::default() };
        let (out, summaries) = decompose_all(&m, &opts);
        out.verify().unwrap();
        let s = &summaries[0];
        assert!(s.bidirectional);
        // Prologue + 2*(m-1) loop permutes = 1 + 2 = 3 for g=4.
        assert_eq!(s.permutes, 3);
        // m iterations of one double-width einsum each.
        assert_eq!(s.partial_einsums, 2);
    }

    #[test]
    fn rs_single_chain_structure() {
        let m = rs_module(4);
        let opts =
            PatternStrategy {
                ring: RingDirection::Unidirectional,
                unroll: false,
                ..Default::default()
            };
        let (out, summaries) = decompose_all(&m, &opts);
        out.verify().unwrap();
        let s = &summaries[0];
        assert_eq!(s.partial_einsums, 4);
        assert_eq!(s.permutes, 4); // N for the ReduceScatter case
        assert_eq!(out.count_live(|i| matches!(i.op(), Op::ReduceScatter { .. })), 0);
        // Non-unrolled form carries the aliasing copies.
        assert!(out.count_live(|i| matches!(i.op(), Op::Copy)) >= 4);
        assert_eq!(out.shape_of(out.outputs()[0]), m.shape_of(m.outputs()[0]));
    }

    #[test]
    fn rs_two_chain_structure() {
        let m = rs_module(4);
        let opts =
            PatternStrategy {
                ring: RingDirection::Unidirectional,
                unroll: true,
                ..Default::default()
            };
        let (out, summaries) = decompose_all(&m, &opts);
        out.verify().unwrap();
        let s = &summaries[0];
        assert_eq!(s.partial_einsums, 4);
        // 2 chains * (m-1) + epilogue = 2 + 1 = 3.
        assert_eq!(s.permutes, 3);
        assert_eq!(out.count_live(|i| matches!(i.op(), Op::Copy)), 0);
    }

    #[test]
    fn odd_group_falls_back_to_unidirectional() {
        let m = ag_module(3);
        let opts = PatternStrategy { ring: RingDirection::Bidirectional, ..Default::default() };
        let (out, summaries) = decompose_all(&m, &opts);
        out.verify().unwrap();
        let s = &summaries[0];
        assert!(!s.bidirectional, "odd group must fall back to unidirectional");
        assert_eq!(s.partial_einsums, 3);
        assert_eq!(s.permutes, 2);
        assert!(
            s.bidirectional_fallback.as_deref().is_some_and(|r| r.contains("even group")),
            "fallback reason must be recorded: {:?}",
            s.bidirectional_fallback
        );
    }

    #[test]
    fn odd_group_rs_records_unroll_fallback() {
        // rs_module's fixed 32-wide output only divides even groups;
        // build a 33-wide variant for the odd-group draw.
        let mut b = Builder::new("rs3", 3);
        let x = b.parameter(f32s(&[8, 16]), "x");
        let w = b.parameter(f32s(&[16, 33]), "w");
        let e = b.einsum(x, w, DotDims::matmul(), "e");
        let rs = b.reduce_scatter(e, 1, ReplicaGroups::full(3), "rs");
        let m = b.build(vec![rs]);
        let opts =
            PatternStrategy {
                ring: RingDirection::Unidirectional,
                unroll: true,
                ..Default::default()
            };
        let (out, summaries) = decompose_all(&m, &opts);
        out.verify().unwrap();
        let s = &summaries[0];
        assert!(s.unrolled, "copies are still dropped");
        assert!(
            s.unroll_fallback.as_deref().is_some_and(|r| r.contains("two-chain")),
            "odd-group RS must record why the two-chain form was dropped: {:?}",
            s.unroll_fallback
        );
        // Even groups unroll cleanly: no reason recorded.
        let m4 = rs_module(4);
        let (_, summaries4) = decompose_all(&m4, &opts);
        assert_eq!(summaries4[0].unroll_fallback, None);
    }

    #[test]
    fn ag_chunked_structure() {
        let m = ag_module(4);
        let opts = PatternStrategy {
            ring: RingDirection::Unidirectional,
            chunk: 2,
            ..Default::default()
        };
        let (out, summaries) = decompose_all(&m, &opts);
        out.verify().unwrap();
        let s = &summaries[0];
        assert_eq!(s.chunk, 2);
        assert_eq!(s.chunk_fallback, None);
        // g/chunk wide partials, permute count unchanged at g-1.
        assert_eq!(s.partial_einsums, 2);
        assert_eq!(s.permutes, 3);
        assert_eq!(out.count_live(|i| matches!(i.op(), Op::AllGather { .. })), 0);
        assert_eq!(out.shape_of(out.outputs()[0]), m.shape_of(m.outputs()[0]));
    }

    #[test]
    fn ag_chunked_pad_max_variant_verifies() {
        let m = ag_module(8);
        let opts = PatternStrategy {
            ring: RingDirection::Unidirectional,
            chunk: 4,
            pad_max_concat: true,
            ..Default::default()
        };
        let (out, summaries) = decompose_all(&m, &opts);
        out.verify().unwrap();
        assert_eq!(summaries[0].partial_einsums, 2);
        assert!(out.count_live(|i| matches!(i.op(), Op::Pad { .. })) > 0);
        assert_eq!(out.count_live(|i| matches!(i.op(), Op::Concatenate { .. })), 0);
    }

    #[test]
    fn infeasible_chunk_falls_back_with_reason() {
        let m = ag_module(4);
        // 3 does not divide 4.
        let opts = PatternStrategy {
            ring: RingDirection::Unidirectional,
            chunk: 3,
            ..Default::default()
        };
        let (out, summaries) = decompose_all(&m, &opts);
        out.verify().unwrap();
        let s = &summaries[0];
        assert_eq!(s.chunk, 1);
        assert!(s.chunk_fallback.as_deref().is_some_and(|r| r.contains("divide")));
        assert_eq!(s.partial_einsums, 4, "fallback must emit the plain loop");

        // chunk == g leaves nothing to overlap.
        let opts = PatternStrategy {
            ring: RingDirection::Unidirectional,
            chunk: 4,
            ..Default::default()
        };
        let (_, summaries) = decompose_all(&m, &opts);
        assert!(summaries[0].chunk_fallback.as_deref().is_some_and(|r| r.contains("no loop")));

        // The bidirectional loop ignores chunking.
        let opts = PatternStrategy {
            ring: RingDirection::Bidirectional,
            chunk: 2,
            ..Default::default()
        };
        let (_, summaries) = decompose_all(&m, &opts);
        assert!(summaries[0].chunk_fallback.as_deref().is_some_and(|r| r.contains("bidirectional")));
        assert_eq!(summaries[0].chunk, 1);
    }

    #[test]
    fn rs_chunk_request_records_reason() {
        let m = rs_module(4);
        let opts = PatternStrategy {
            ring: RingDirection::Unidirectional,
            chunk: 2,
            ..Default::default()
        };
        let (out, summaries) = decompose_all(&m, &opts);
        out.verify().unwrap();
        let s = &summaries[0];
        assert_eq!(s.chunk, 1);
        assert!(s.chunk_fallback.as_deref().is_some_and(|r| r.contains("reduce-scatter")));
    }

    #[test]
    fn pad_max_concat_variant_verifies() {
        let m = ag_module(4);
        let opts = PatternStrategy {
            ring: RingDirection::Bidirectional,
            pad_max_concat: true,
            ..Default::default()
        };
        let (out, _) = decompose_all(&m, &opts);
        out.verify().unwrap();
        assert!(out.count_live(|i| matches!(i.op(), Op::Pad { .. })) > 0);
        assert_eq!(out.count_live(|i| matches!(i.op(), Op::Concatenate { .. })), 0);
    }

    #[test]
    fn empty_selection_is_identity_modulo_names() {
        let m = ag_module(2);
        let (out, summaries, _) = decompose(&m, &[]);
        assert!(summaries.is_empty());
        assert_eq!(out.len(), m.len());
        assert_eq!(
            out.count_live(|i| matches!(i.op(), Op::AllGather { .. })),
            m.count_live(|i| matches!(i.op(), Op::AllGather { .. }))
        );
    }

    #[test]
    fn sync_permutes_in_the_input_become_start_done_pairs() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[4]), "x");
        b.set_tag(Some("user.cp"));
        let p = b.collective_permute(x, vec![(0, 1), (1, 0)], "p");
        b.set_tag(None);
        let c = b.copy(p, "c");
        let m = b.build(vec![c]);

        let (out, summaries, mut analysis) = decompose(&m, &[]);
        assert!(summaries.is_empty());
        out.verify_incremental(&mut analysis).unwrap();
        assert_eq!(out.count_live(|i| matches!(i.op(), Op::CollectivePermute { .. })), 0);
        let names: Vec<(&str, Option<&str>)> =
            out.iter().map(|(_, i)| (i.name(), i.tag())).collect();
        assert_eq!(
            names,
            [("x", None), ("p", Some("user.cp")), ("p.done", Some("user.cp")), ("c", None)]
        );
        assert!(matches!(out.instr(out.outputs()[0]).op(), Op::Copy));
    }

    #[test]
    fn ring_permutes_share_one_pair_list() {
        let m = ag_module(4);
        let opts = PatternStrategy { ring: RingDirection::Unidirectional, ..Default::default() };
        let (out, _) = decompose_all(&m, &opts);
        let lists: Vec<&Arc<[(u32, u32)]>> = out
            .iter()
            .filter_map(|(_, i)| match i.op() {
                Op::CollectivePermuteStart { pairs, .. } => Some(pairs),
                _ => None,
            })
            .collect();
        assert_eq!(lists.len(), 3);
        assert!(lists.iter().all(|l| Arc::ptr_eq(l, lists[0])));
        assert_eq!(&lists[0][..], &shift_pairs(&ReplicaGroups::full(4), -1)[..]);
    }

    /// The value-numbered rewrite lands on exactly the module — names and
    /// arena order included — that the unnumbered rewrite plus CSE
    /// produces, and CSE's maintained analysis matches a fresh one. The
    /// selection is the pipeline's: gated, one pattern per einsum.
    fn assert_numbering_matches_cse(module: &Module, machine: &Machine, strategy: &StrategySpec) {
        let table = overlap_sim::CostTable::new(module, machine).expect("cost table");
        let selected: Vec<LoopPlan> = crate::CostModel::new(machine, strategy)
            .select(&table, module, &patterns_of(module), true)
            .into_iter()
            .map(|(_, plan)| plan)
            .collect();
        let plain = decompose_impl(module, &selected, false).0;
        let (merged, cse) = eliminate_common_subexpressions(&plain, &ModuleAnalysis::of(&plain));
        let fresh = ModuleAnalysis::of(&merged);
        assert_eq!(
            (cse.users(), cse.fusion(), cse.live()),
            (fresh.users(), fresh.fusion(), fresh.live()),
            "CSE's maintained analysis diverged"
        );
        let numbered = decompose(module, &selected).0;
        assert_eq!(merged, numbered, "value-numbered decompose must equal decompose + CSE");
    }

    #[test]
    fn value_numbering_matches_cse_on_zoo_models() {
        for cfg in overlap_models::table1_models() {
            let strategy = StrategySpec::paper_default();
            assert_numbering_matches_cse(&cfg.layer_module(), &cfg.machine(), &strategy);
        }
    }

    /// A Fig. 3 MLP on an `m × n` mesh with `12·mults` sizes.
    fn check_fig3_draw(m: usize, n: usize, mults: [usize; 3], bidirectional: bool) {
        let mesh = overlap_mesh::DeviceMesh::new(vec![m, n]);
        let (batch, feature, hidden) = (12 * mults[0], 12 * mults[1], 12 * mults[2]);
        let cfg = overlap_sharding::mlp::MlpConfig { batch, feature, hidden };
        let module = overlap_sharding::mlp::fig3_forward(&mesh, cfg).expect("builds");
        let ring = if bidirectional {
            RingDirection::Bidirectional
        } else {
            RingDirection::Unidirectional
        };
        let strategy = StrategySpec::paper_default().with_ring(ring);
        assert_numbering_matches_cse(&module, &Machine::with_mesh(mesh), &strategy);
    }

    #[test]
    fn value_numbering_matches_cse_on_fig3_corner_draws() {
        check_fig3_draw(2, 2, [1, 1, 1], false);
        check_fig3_draw(2, 2, [1, 1, 1], true);
        check_fig3_draw(3, 2, [2, 1, 2], true);
        check_fig3_draw(3, 3, [2, 2, 2], false);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn value_numbering_matches_cse_on_random_fig3_mlps(
            m in 2usize..4,
            n in 2usize..4,
            mults in (1usize..3, 1usize..3, 1usize..3),
            bidirectional in 0u8..2,
        ) {
            check_fig3_draw(m, n, [mults.0, mults.1, mults.2], bidirectional == 1);
        }
    }
}
