//! Discrete-event performance simulator for SPMD programs.
//!
//! The paper's evaluation machinery: executes one representative device's
//! instruction sequence (SPMD programs are symmetric) against a
//! [`Machine`](overlap_mesh::Machine) model with
//!
//! * a **compute stream** that runs einsums, fusions, elementwise and
//!   data-movement ops in schedule order,
//! * two **DMA streams** (one per ICI ring direction) that carry
//!   asynchronous `CollectivePermuteStart`/`Done` transfers concurrently
//!   with compute — the §5.2 execution model,
//! * synchronous collectives (`AllGather`, `ReduceScatter`, `AllReduce`,
//!   `AllToAll`, sync `CollectivePermute`) that block the compute stream
//!   for their analytic ring time,
//! * the in-flight asynchronous-collective budget (§5.2's
//!   "synchronization flags"): a `Start` cannot issue while the budget is
//!   exhausted,
//! * fusion groups executed as single kernels (fused elementwise ops are
//!   free; this is what makes the Fig. 11 fusion decisions matter).
//!
//! The one entry point is a [`Simulation`] request: a module and a
//! machine, three optional inputs (an instruction order, a pre-built
//! [`CostTable`], a fault spec) and a terminal — `run()` for one
//! execution, `repeated(reps)` for back-to-back layers, `tail(draws)` for
//! independent fault realizations.
//!
//! The output is a [`Report`] with the makespan, per-category time
//! breakdown (the Fig. 1 series), FLOPS utilization (Figs. 12/13) and a
//! renderable [`Timeline`].

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
// The engine is driven with user-supplied modules and fault specs:
// recoverable conditions must surface as typed `SimError`s, not panics.
// Test modules opt back in locally.
#![deny(clippy::unwrap_used)]

mod cost;
mod engine;
mod error;
mod faults;
mod hist;
mod memory;
mod par;
mod report;
mod table;

pub use cost::{
    einsum_cost_key, einsum_time_for, instruction_cost, permute_transfer, Direction, InstrCost,
    TransferClass,
};
pub use engine::Simulation;
// Called by name from the frozen benchmark (`ledger/`) only; everything
// else spells the request as a `Simulation`.
pub use engine::{
    simulate, simulate_order, simulate_order_faulted_with, simulate_order_tail_with,
    simulate_order_with,
};
pub use error::SimError;
pub use faults::FaultModel;
pub use hist::{quantile_rank, Histogram, HistogramSummary, TailSummary};
pub use memory::{memory_profile, MemoryProfile};
pub use par::{par_map, sweep_threads};
pub use report::{FaultAttribution, Report, Span, SpanKind, Timeline};
pub use table::CostTable;
