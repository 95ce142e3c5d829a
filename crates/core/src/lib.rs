//! The paper's contribution: overlap communication with dependent
//! computation via decomposition.
//!
//! This crate implements, as module-to-module compiler passes over the
//! `overlap-hlo` IR, the full technique of *"Overlap Communication with
//! Dependent Computation via Decomposition in Large Deep Learning Models"*
//! (ASPLOS 2023):
//!
//! * [`find_patterns`] — identifies `AllGather → Einsum` and
//!   `Einsum → ReduceScatter` pairs and classifies the AllGather cases
//!   1–3 of §5.1 (free / contracting / batch partitioned dimension),
//! * [`decompose`] — the **looped collective-einsum** rewrite
//!   (Algorithm 1): each selected pair becomes a sequence of partial
//!   einsums and single-hop collective permutes, with the loop-unrolling
//!   (§5.4.1, two interleaved accumulation chains) and bidirectional
//!   transfer (§5.4.2, prologue/epilogue shifts) optimizations; every
//!   permute (emitted or copied from the input) comes out as the
//!   non-blocking `CollectivePermuteStart`/`Done` pair of §5.2,
//! * [`schedule_bottom_up`] (Algorithm 2) and [`schedule_top_down`] —
//!   the two latency-hiding instruction schedulers of §5.2,
//! * [`fuse`] — the fusion pass with the overlap-aware heuristic of
//!   §5.4.3 / Fig. 11,
//! * [`split_all_reduces`] — the §2.1 identity
//!   `AllReduce = ReduceScatter + AllGather` as a pre-pass, exposing
//!   Megatron-style `Einsum → AllReduce` pairs to the decomposition
//!   (an extension beyond the paper's evaluated configuration),
//! * [`LoopPlan`] — one pattern's decomposed loop as data (group size,
//!   direction, chunk, step and instruction counts, shapes, wire,
//!   fallback reasons), derived once: the gate prices it and
//!   [`decompose`] emits it,
//! * [`CostModel`] — the §5.5 enablement gate
//!   (`comp_t + comm_t >= max(comp_t, comm_t_ring) + extra_t`), priced on
//!   each candidate's [`LoopPlan`], and the candidate-selection rule when
//!   an einsum has two collectives,
//! * [`OverlapPipeline`] — ties everything together and produces a
//!   [`Compiled`] module plus the linear instruction order to execute,
//! * [`ArtifactCache`] — a content-addressed, two-tier (memory + disk)
//!   cache of [`Compiled`] bundles keyed by structural module, machine
//!   and option fingerprints; repeated compilations within a sweep and
//!   across process runs are served bit-identically without rerunning
//!   the passes ([`OverlapPipeline::compile_cached`]); compilations for
//!   degraded machines additionally key on the fault-spec fingerprint,
//! * **graceful degradation** under a
//!   [`FaultSpec`](overlap_mesh::FaultSpec)
//!   ([`OverlapPipeline::with_faults`]): the gate is re-evaluated with
//!   fault-stretched terms ([`FaultGateAdjust`]) so patterns whose
//!   decomposed form regresses on the degraded machine fall back to the
//!   original collective, and a post-compile faulted smoke simulation
//!   abandons the whole transformed module when it cannot execute at all
//!   (unroutable links, watchdog); every fallback is recorded in
//!   [`Compiled::fallbacks`].
//!
//! Each pass has exactly one public entry point — the form
//! [`OverlapPipeline::run`] calls. The read-only passes borrow a
//! [`ModuleAnalysis`](overlap_hlo::ModuleAnalysis), the rebuilding ones
//! ([`split_all_reduces`], [`decompose`]) return the
//! analysis of their output, and the schedulers and the cost gate read
//! one [`CostTable`](overlap_sim::CostTable). Outside the pipeline, build
//! those inputs with `ModuleAnalysis::of` and `CostTable::new`.
//!
//! Every rewrite is semantically equivalent to the original module; the
//! integration tests check this bit-for-bit (up to float reassociation)
//! with the `overlap-numerics` SPMD interpreter.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod cache;
mod costgate;
mod decompose;
mod fusion;
mod json;
mod pattern;
mod pipeline;
mod plan;
mod profile;
mod reassociate;
mod report;
mod schedule;
mod strategy;

pub use cache::{artifact_key, artifact_key_faulted, ArtifactCache, CacheOutcome, CacheStats};
pub use costgate::{CostModel, FaultGateAdjust, GateDecision};
pub use decompose::{decompose, DecomposeSummary};
pub use fusion::{fuse, FusionOptions};
pub use pattern::{find_patterns, AgCase, Pattern, PatternKind};
pub use pipeline::{Compiled, FallbackRecord, OverlapOptions, OverlapPipeline, SchedulerKind};
pub use plan::LoopPlan;
pub use profile::{PhaseTiming, PhaseTimings};
pub use reassociate::{split_all_reduces, REASSOC_TAG};
pub use report::CompileReport;
pub use schedule::{schedule_bottom_up, schedule_top_down, ScheduleWindow};
pub use strategy::{
    FusionAggressiveness, PartitionHint, PatternStrategy, RingDirection, StrategySpec,
};
