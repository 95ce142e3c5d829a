//! The discrete-event execution engine.

use overlap_hlo::{InstrId, Module};
use overlap_mesh::{FaultSpec, Machine};

use crate::cost::{Direction, InstrCost};
use crate::faults::{FaultModel, Routes};
use crate::report::{FaultAttribution, Report, Span, SpanKind, Timeline};
use crate::table::{CostTable, NO_GROUP};
use crate::SimError;

/// One simulation request: *what* to execute (`module` on `machine`),
/// three optional inputs that are orthogonal to one another —
/// [`order`](Self::order), [`table`](Self::table),
/// [`faults`](Self::faults) — and a terminal choosing what "execute"
/// means: [`run`](Self::run), [`repeated`](Self::repeated) or
/// [`tail`](Self::tail). Every combination is valid; all of them share
/// one prologue (table covers the module, order is a complete topological
/// order, count is non-zero, fault spec fits the machine) and one engine.
#[derive(Debug, Clone, Copy)]
#[must_use = "a Simulation does nothing until run(), repeated() or tail() is called"]
pub struct Simulation<'a> {
    module: &'a Module,
    machine: &'a Machine,
    order: Option<&'a [InstrId]>,
    table: Option<&'a CostTable>,
    faults: Option<&'a FaultSpec>,
}

impl<'a> Simulation<'a> {
    /// A request to execute `module` on `machine` with every optional
    /// input at its default.
    pub fn new(module: &'a Module, machine: &'a Machine) -> Self {
        Simulation { module, machine, order: None, table: None, faults: None }
    }

    /// Executes instructions in the given linear order: a permutation of
    /// all instruction ids in which every operand precedes its users (the
    /// schedulers in `overlap-core` produce such orders). The default is
    /// arena (builder) order, the order a straightforward compiler would
    /// emit — synchronous collectives inline, no latency hiding — i.e.
    /// the paper's *baseline* execution.
    pub fn order(mut self, order: &'a [InstrId]) -> Self {
        self.order = Some(order);
        self
    }

    /// Uses a pre-built [`CostTable`] (built for this same
    /// `(module, machine)` pair) instead of verifying the module and
    /// deriving every cost again for this call. The table holds
    /// *pristine* costs; the fault model perturbs them at execution time,
    /// so one table serves every fault spec.
    pub fn table(mut self, table: &'a CostTable) -> Self {
        self.table = Some(table);
        self
    }

    /// Executes on the degraded machine described by `spec` (`None`: the
    /// pristine machine).
    ///
    /// Same seed ⇒ bit-identical result: all randomness (jitter, stalls)
    /// is a pure function of the seed and the event identity. With
    /// [`FaultSpec::default()`] the result is bit-identical to `None`.
    pub fn faults(mut self, spec: Option<&'a FaultSpec>) -> Self {
        self.faults = spec;
        self
    }

    /// Simulates one execution.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidModule`] if a table has to be built and
    /// verification fails, [`SimError::InvalidSchedule`] if the order is
    /// not a complete topological order or the table does not cover the
    /// module, and — with a fault spec — [`SimError::InvalidFaultSpec`]
    /// for a spec that does not fit the machine, [`SimError::LinkDown`]
    /// for unroutable transfers, and [`SimError::Timeout`] /
    /// [`SimError::Deadlock`] from the watchdog.
    pub fn run(&self) -> Result<Report, SimError> {
        self.repeated(1)
    }

    /// Simulates `reps` back-to-back executions (e.g. the identical
    /// layers of a transformer): stream clocks and in-flight transfers
    /// carry across repetitions, so a prologue transfer of repetition
    /// `i+1` can hide under the tail compute of repetition `i` — overlap
    /// that multiplying a single-layer makespan by the layer count would
    /// miss. The module is verified and the order validated once, and
    /// dense per-instruction engine state is reused across repetitions.
    /// Under a fault spec each repetition draws its own jitter/stall
    /// values (the repetition index is part of every event identity).
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run), plus
    /// [`SimError::ZeroRepetitions`] when `reps == 0`.
    pub fn repeated(&self, reps: usize) -> Result<Report, SimError> {
        let mut combined: Option<Report> = None;
        self.execute(reps, true, true, |report| match &mut combined {
            Some(combined) => combined.absorb(report),
            None => combined = Some(report),
        })?;
        combined.ok_or(SimError::ZeroRepetitions)
    }

    /// Draws `draws` *independent* executions and returns the per-draw
    /// makespans in draw order — the distributional terminal behind the
    /// tail-latency report (`fig_tail`, and the window law in
    /// `tests/simulation_laws.rs`).
    ///
    /// Unlike [`repeated`](Self::repeated), stream clocks do **not**
    /// carry across draws: every draw starts from a fresh engine state,
    /// so the result is `draws` samples of the *same* step's makespan
    /// under different fault realizations, not one long run. Draw `i`
    /// uses `i` as the repetition index of every fault-event identity, so
    /// the sample set is a pure function of `(spec, module, order)` —
    /// independent of evaluation order and thread count, and each draw's
    /// jitter values are distinct. Summarize with
    /// [`TailSummary::from_samples`](crate::TailSummary::from_samples).
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run), plus
    /// [`SimError::ZeroRepetitions`] when `draws == 0`. A failing draw
    /// (watchdog, unroutable link) fails the whole call — tail
    /// percentiles over a censored sample set would be lies.
    pub fn tail(&self, draws: usize) -> Result<Vec<f64>, SimError> {
        let mut makespans = Vec::with_capacity(draws);
        // Only the makespans leave this call, so no draw records a
        // timeline (no span names formatted per instruction per draw).
        self.execute(draws, false, false, |report| makespans.push(report.makespan()))?;
        Ok(makespans)
    }

    /// What every terminal shares: resolve the defaults, check the inputs
    /// against one another, compile the fault spec against the machine
    /// and its routes against the module, then run `count` executions
    /// (`rep` is the repetition index of every fault-event identity),
    /// stream clocks carried from one to the next or each from a fresh
    /// state, recording a timeline or not.
    fn execute(
        &self,
        count: usize,
        carry_clocks: bool,
        timeline: bool,
        mut each: impl FnMut(Report),
    ) -> Result<(), SimError> {
        let (module, machine) = (self.module, self.machine);
        let built;
        let table = match self.table {
            Some(table) => table,
            None => {
                built = CostTable::new(module, machine)?;
                &built
            }
        };
        check_table(table, module)?;
        let arena;
        let order = match self.order {
            Some(order) => order,
            None => {
                arena = module.arena_order();
                &arena
            }
        };
        validate_order(module, order)?;
        if count == 0 {
            return Err(SimError::ZeroRepetitions);
        }
        let faults = match self.faults {
            Some(spec) => FaultModel::new(machine, spec)?,
            None => FaultModel::pristine(machine),
        };
        let routes = faults.routes(module);
        let call =
            Call { module, machine, order, table, faults: &faults, routes: &routes, timeline };
        let mut scratch = EngineScratch::for_len(module.len());
        let mut state = EngineState::default();
        for rep in 0..count {
            if !carry_clocks {
                state = EngineState::default();
            }
            each(run_engine(&call, &mut scratch, &mut state, rep)?);
        }
        Ok(())
    }
}

/// Everything one call fixes for all of its executions.
struct Call<'a> {
    module: &'a Module,
    machine: &'a Machine,
    order: &'a [InstrId],
    table: &'a CostTable,
    faults: &'a FaultModel,
    routes: &'a Routes,
    /// Whether executions record a [`Timeline`].
    timeline: bool,
}

// The five spellings below are called by name from the frozen benchmark
// (`ledger/`) and by nothing else; the `benchmark` issue that ports the
// ledger onto `Simulation` deletes them.

/// `Simulation::new(module, machine).run()`.
pub fn simulate(module: &Module, machine: &Machine) -> Result<Report, SimError> {
    Simulation::new(module, machine).run()
}

/// [`simulate`] with `.order(order)`.
pub fn simulate_order(
    module: &Module,
    machine: &Machine,
    order: &[InstrId],
) -> Result<Report, SimError> {
    Simulation::new(module, machine).order(order).run()
}

/// [`simulate_order`] with `.table(table)`.
pub fn simulate_order_with(
    table: &CostTable,
    module: &Module,
    machine: &Machine,
    order: &[InstrId],
) -> Result<Report, SimError> {
    Simulation::new(module, machine).order(order).table(table).run()
}

/// [`simulate_order_with`] with `.faults(Some(spec))`.
pub fn simulate_order_faulted_with(
    table: &CostTable,
    module: &Module,
    machine: &Machine,
    order: &[InstrId],
    spec: &FaultSpec,
) -> Result<Report, SimError> {
    Simulation::new(module, machine).order(order).table(table).faults(Some(spec)).run()
}

/// [`simulate_order_faulted_with`] ending in `.tail(draws)`.
pub fn simulate_order_tail_with(
    table: &CostTable,
    module: &Module,
    machine: &Machine,
    order: &[InstrId],
    spec: &FaultSpec,
    draws: usize,
) -> Result<Vec<f64>, SimError> {
    Simulation::new(module, machine).order(order).table(table).faults(Some(spec)).tail(draws)
}

fn check_table(table: &CostTable, module: &Module) -> Result<(), SimError> {
    if table.len() == module.len() {
        Ok(())
    } else {
        Err(SimError::InvalidSchedule(format!(
            "cost table covers {} instructions but module has {}",
            table.len(),
            module.len()
        )))
    }
}

/// Stream clocks carried across repeated executions.
#[derive(Debug, Clone, Copy, Default)]
struct EngineState {
    t_compute: f64,
    dma_free: [f64; 2],
}

/// Dense per-instruction engine state, reusable across repetitions so
/// repeated simulation allocates nothing per repetition.
struct EngineScratch {
    /// Time each instruction's result becomes available.
    ready: Vec<f64>,
    /// Wire-completion time of each `CollectivePermuteStart`, indexed by
    /// the start's id (only read after the start executed, which the
    /// topological order guarantees).
    transfer_end: Vec<f64>,
    /// Transfer duration of each start, same indexing.
    transfer_dur: Vec<f64>,
}

impl EngineScratch {
    fn for_len(n: usize) -> Self {
        EngineScratch {
            ready: vec![0.0; n],
            transfer_end: vec![0.0; n],
            transfer_dur: vec![0.0; n],
        }
    }
}

/// The spans of one execution, or nothing when the call does not record
/// a timeline: span names are formatted only when they are kept.
struct Spans {
    record: bool,
    timeline: Timeline,
}

impl Spans {
    fn push(&mut self, name: impl FnOnce() -> String, kind: SpanKind, start: f64, end: f64) {
        if self.record {
            self.timeline.spans.push(Span { name: name(), kind, start, end });
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run_engine(
    call: &Call<'_>,
    scratch: &mut EngineScratch,
    state: &mut EngineState,
    rep: usize,
) -> Result<Report, SimError> {
    let Call { module, machine, order, table, faults, routes, .. } = *call;
    scratch.ready.fill(state.t_compute);
    let ready = &mut scratch.ready;
    let mut t_compute = state.t_compute;
    let mut dma_free = state.dma_free;
    let mut inflight = 0usize;

    // Watchdog state (fault path only): the clock at entry detects a
    // repetition that charges work without advancing simulated time.
    let entry_clock = state.t_compute.max(state.dma_free[0]).max(state.dma_free[1]);
    let time_limit = faults.time_limit();
    let mut attribution = FaultAttribution::default();

    let mut compute_time = 0.0;
    let mut memory_time = 0.0;
    let mut sync_comm_time = 0.0;
    let mut exposed_async_time = 0.0;
    let mut hidden_async_time = 0.0;
    let mut total_flops = 0u64;
    let mut spans = Spans { record: call.timeline, timeline: Timeline::default() };

    for &id in order {
        // Watchdog: simulated time past the configured limit aborts the
        // run instead of grinding through the rest of the schedule.
        if let Some(limit) = time_limit {
            if t_compute.max(dma_free[0]).max(dma_free[1]) > limit {
                return Err(SimError::Timeout);
            }
        }
        let ins = module.instr(id);
        // Non-root fusion members are accounted at their group root.
        if table.group_of[id.index()] != NO_GROUP && table.root_group[id.index()] == NO_GROUP {
            continue;
        }

        // Compute running while a DMA engine is actively moving data pays
        // the machine's interference factor (the DMA steals HBM
        // bandwidth). The penalty applies to the portion of the span that
        // overlaps wire time, estimated first-order from the nominal
        // duration.
        let penalized = |start: f64, seconds: f64, dma_free: &[f64; 2]| -> f64 {
            let overlap = dma_free
                .iter()
                .map(|&busy_until| (busy_until.min(start + seconds) - start).max(0.0))
                .fold(0.0f64, f64::max);
            start + seconds + machine.dma_interference() * overlap
        };

        let gi = table.root_group[id.index()];
        if gi != NO_GROUP {
            // Execute the whole fusion group as one kernel.
            let group = &table.groups[gi as usize];
            let mut operands_ready = 0.0f64;
            for &op in &group.external_operands {
                operands_ready = operands_ready.max(ready[op.index()]);
            }
            let (seconds, extra) = faults.compute_stretch(group.seconds);
            attribution.straggler_seconds += extra;
            let start = t_compute.max(operands_ready);
            let end = penalized(start, seconds, &dma_free);
            t_compute = end;
            for &m in &group.members {
                ready[m.index()] = end;
            }
            let kind = if group.has_compute {
                compute_time += seconds;
                SpanKind::Compute
            } else {
                memory_time += seconds;
                SpanKind::Memory
            };
            total_flops += group.flops;
            spans.push(|| format!("fusion.{}", ins.name()), kind, start, end);
            continue;
        }

        let operands_ready = ins
            .operands()
            .iter()
            .map(|o| ready[o.index()])
            .fold(0.0f64, f64::max);

        match table.cost(id) {
            InstrCost::Free => {
                ready[id.index()] = operands_ready;
            }
            InstrCost::Compute { seconds, flops } => {
                let (seconds, extra) = faults.compute_stretch(seconds);
                attribution.straggler_seconds += extra;
                let start = t_compute.max(operands_ready);
                let end = penalized(start, seconds, &dma_free);
                t_compute = end;
                ready[id.index()] = end;
                compute_time += seconds;
                total_flops += flops;
                spans.push(|| ins.name().to_string(), SpanKind::Compute, start, end);
            }
            InstrCost::Memory { seconds } => {
                let (seconds, extra) = faults.compute_stretch(seconds);
                attribution.straggler_seconds += extra;
                let start = t_compute.max(operands_ready);
                let end = penalized(start, seconds, &dma_free);
                t_compute = end;
                ready[id.index()] = end;
                memory_time += seconds;
                spans.push(|| ins.name().to_string(), SpanKind::Memory, start, end);
            }
            InstrCost::SyncCollective { seconds } => {
                // Blocks the compute stream and takes link priority:
                // subsequent asynchronous transfers queue behind it, but it
                // does not wait for transfers already in flight (link
                // sharing between the two is modeled as free, which is
                // mildly optimistic; the schedulers place blocking
                // collectives in link-idle gaps anyway).
                let (seconds, extra) = faults.collective_stretch(seconds);
                attribution.link_seconds += extra;
                let start = t_compute.max(operands_ready);
                let end = start + seconds;
                t_compute = end;
                dma_free = [dma_free[0].max(end), dma_free[1].max(end)];
                ready[id.index()] = end;
                sync_comm_time += seconds;
                spans.push(|| ins.name().to_string(), SpanKind::SyncCollective, start, end);
            }
            InstrCost::AsyncStart(transfer) => {
                let lane = match transfer.direction {
                    Direction::Forward => 0,
                    Direction::Backward => 1,
                };
                // Under faults the transfer is re-routed at execution
                // time: derated/dead links stretch (or detour) the wire
                // time and DMA stalls delay the issue with bounded
                // retry/backoff. With no active fault category the
                // pristine table value comes back untouched.
                let o = faults.transfer(routes, module, id, transfer.seconds, rep)?;
                attribution.link_seconds += o.link_extra;
                attribution.stall_seconds += o.stall_extra;
                attribution.stall_retries += o.retries;
                let (wire_seconds, stall_extra) = (o.seconds, o.stall_extra);
                let issue = t_compute.max(operands_ready);
                let begin = issue.max(dma_free[lane]);
                let wire_begin = begin + stall_extra;
                let end = wire_begin + wire_seconds;
                dma_free[lane] = end;
                scratch.transfer_end[id.index()] = end;
                scratch.transfer_dur[id.index()] = stall_extra + wire_seconds;
                if inflight >= machine.max_inflight_async() {
                    // No synchronization flag available: the transfer
                    // degrades to blocking (footnote 11 of the paper says
                    // the scheduler keeps this rare).
                    t_compute = t_compute.max(end);
                } else {
                    inflight += 1;
                }
                ready[id.index()] = issue;
                if stall_extra > 0.0 {
                    // The retry/backoff window occupies the lane before
                    // the wire moves — an extra event in the timeline.
                    spans.push(
                        || format!("{}.dma_stall", ins.name()),
                        SpanKind::Stall,
                        begin,
                        wire_begin,
                    );
                }
                let kind = match transfer.direction {
                    Direction::Forward => SpanKind::DmaForward,
                    Direction::Backward => SpanKind::DmaBackward,
                };
                spans.push(|| ins.name().to_string(), kind, wire_begin, end);
            }
            InstrCost::AsyncDone => {
                let start_id = ins.operands().first().copied().ok_or_else(|| {
                    SimError::InvalidSchedule(format!(
                        "done op {} has no start operand to wait on",
                        ins.name()
                    ))
                })?;
                let end = scratch.transfer_end[start_id.index()];
                let dur = scratch.transfer_dur[start_id.index()];
                inflight = inflight.saturating_sub(1);
                let stall = (end - t_compute.max(operands_ready)).max(0.0);
                if stall > 0.0 {
                    let (start, end) = (t_compute, t_compute + stall);
                    spans.push(|| ins.name().to_string(), SpanKind::Stall, start, end);
                }
                exposed_async_time += stall;
                hidden_async_time += (dur - stall).max(0.0);
                t_compute = t_compute.max(operands_ready).max(end);
                ready[id.index()] = t_compute;
            }
        }
    }

    let makespan = t_compute.max(dma_free[0]).max(dma_free[1]);
    if faults.watchdog() {
        // No-progress deadlock detector: a repetition that charged work
        // but did not advance (or drove non-finite) any stream clock can
        // never finish — corrupt costs, not a slow schedule.
        let charged = compute_time
            + memory_time
            + sync_comm_time
            + exposed_async_time
            + hidden_async_time;
        if !makespan.is_finite() || (charged != 0.0 && makespan <= entry_clock) {
            return Err(SimError::Deadlock);
        }
        if let Some(limit) = time_limit {
            if makespan > limit {
                return Err(SimError::Timeout);
            }
        }
    }
    state.t_compute = t_compute;
    state.dma_free = dma_free;
    let mut report = Report::new(
        makespan,
        compute_time,
        memory_time,
        sync_comm_time,
        exposed_async_time,
        hidden_async_time,
        total_flops,
        spans.timeline,
    );
    report.set_fault_attribution(attribution);
    Ok(report)
}

fn validate_order(module: &Module, order: &[InstrId]) -> Result<(), SimError> {
    if order.len() != module.len() {
        return Err(SimError::InvalidSchedule(format!(
            "order has {} entries for {} instructions",
            order.len(),
            module.len()
        )));
    }
    let mut position = vec![usize::MAX; module.len()];
    for (pos, &id) in order.iter().enumerate() {
        if id.index() >= module.len() {
            return Err(SimError::InvalidSchedule(format!("unknown id {id}")));
        }
        if position[id.index()] != usize::MAX {
            return Err(SimError::InvalidSchedule(format!(
                "{} scheduled twice",
                module.instr(id).name()
            )));
        }
        position[id.index()] = pos;
    }
    for &id in order {
        for &op in module.instr(id).operands() {
            if position[op.index()] > position[id.index()] {
                return Err(SimError::InvalidSchedule(format!(
                    "{} scheduled before its operand {}",
                    module.instr(id).name(),
                    module.instr(op).name()
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use overlap_hlo::{Builder, DType, DotDims, FusionGroup, ReplicaGroups, Shape};

    use super::*;

    fn f32s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    fn machine(n: usize) -> Machine {
        Machine::tpu_v4_like(n)
    }

    #[test]
    fn baseline_ag_einsum_serializes() {
        let n = 4;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[256, 1024]), "x");
        let w = b.parameter(f32s(&[256, 1024]), "w");
        let wg = b.all_gather(w, 0, ReplicaGroups::full(n), "wg");
        let y = b.einsum(x, wg, DotDims::new(vec![], vec![(1, 0)]).unwrap(), "y");
        let m = b.build(vec![y]);
        let r = Simulation::new(&m, &machine(n)).run().unwrap();
        // Makespan ≈ collective + einsum (serialized).
        assert!(r.sync_comm_time() > 0.0);
        assert!(r.compute_time() > 0.0);
        assert!(r.makespan() >= r.sync_comm_time() + r.compute_time() - 1e-12);
        assert!(r.comm_fraction() > 0.0);
    }

    #[test]
    fn async_transfer_overlaps_independent_compute() {
        let n = 2;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[1024, 1024]), "x");
        let w = b.parameter(f32s(&[1024, 1024]), "w");
        let small = b.parameter(f32s(&[64]), "small");
        let s = b.collective_permute_start(small, vec![(0, 1), (1, 0)], "s");
        let y = b.einsum(x, w, DotDims::matmul(), "y"); // independent big compute
        let d = b.collective_permute_done(s, "d");
        let m = b.build(vec![y, d]);
        let r = Simulation::new(&m, &machine(n)).run().unwrap();
        // The tiny transfer hides entirely behind the big einsum.
        assert_eq!(r.exposed_async_time(), 0.0);
        assert!(r.hidden_async_time() > 0.0);
    }

    #[test]
    fn dependent_done_exposes_transfer() {
        let n = 2;
        let mut b = Builder::new("m", n);
        let big = b.parameter(f32s(&[4096, 4096]), "big");
        let s = b.collective_permute_start(big, vec![(0, 1), (1, 0)], "s");
        let d = b.collective_permute_done(s, "d");
        let c = b.copy(d, "c");
        let m = b.build(vec![c]);
        let r = Simulation::new(&m, &machine(n)).run().unwrap();
        // Nothing to overlap with: the transfer is fully exposed.
        assert!(r.exposed_async_time() > 0.0);
        assert!(r.hidden_async_time() < 1e-12);
    }

    #[test]
    fn opposite_directions_run_concurrently() {
        let n = 4;
        let ring = Machine::with_mesh(overlap_mesh::DeviceMesh::ring(n));
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[1 << 20]), "x");
        let fwd_pairs = vec![(0, 1), (1, 2), (2, 3), (3, 0)];
        let bwd_pairs = vec![(0, 3), (1, 0), (2, 1), (3, 2)];
        let s1 = b.collective_permute_start(x, fwd_pairs.clone(), "s1");
        let s2 = b.collective_permute_start(x, bwd_pairs, "s2");
        let d1 = b.collective_permute_done(s1, "d1");
        let d2 = b.collective_permute_done(s2, "d2");
        let m = b.build(vec![d1, d2]);
        let r = Simulation::new(&m, &ring).run().unwrap();

        // Same two transfers, same direction: they serialize on one lane.
        let mut b2 = Builder::new("m2", n);
        let x2 = b2.parameter(f32s(&[1 << 20]), "x");
        let s1 = b2.collective_permute_start(x2, fwd_pairs.clone(), "s1");
        let s2 = b2.collective_permute_start(x2, fwd_pairs, "s2");
        let d1 = b2.collective_permute_done(s1, "d1");
        let d2 = b2.collective_permute_done(s2, "d2");
        let m2 = b2.build(vec![d1, d2]);
        let r2 = Simulation::new(&m2, &ring).run().unwrap();
        assert!(r.makespan() < r2.makespan());
    }

    #[test]
    fn fusion_group_hides_elementwise_cost() {
        let n = 1;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[512, 512]), "x");
        let w = b.parameter(f32s(&[512, 512]), "w");
        let acc = b.parameter(f32s(&[512, 512]), "acc");
        let y = b.einsum(x, w, DotDims::matmul(), "y");
        let z = b.add(y, acc, "z");
        let m = b.build(vec![z]);
        let unfused = Simulation::new(&m, &machine(n)).run().unwrap();
        let fused_module = m
            .with_fusion_groups(vec![FusionGroup { members: vec![y, z], root: z }])
            .unwrap();
        let fused = Simulation::new(&fused_module, &machine(n)).run().unwrap();
        assert!(fused.makespan() < unfused.makespan());
    }

    #[test]
    fn order_validation_rejects_bad_orders() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[4]), "x");
        let c = b.copy(x, "c");
        let m = b.build(vec![c]);
        let mach = machine(1);
        // Reversed (use before def).
        assert!(Simulation::new(&m, &mach).order(&[c, x]).run().is_err());
        // Duplicate.
        assert!(Simulation::new(&m, &mach).order(&[x, x]).run().is_err());
        // Incomplete.
        assert!(Simulation::new(&m, &mach).order(&[x]).run().is_err());
        // Valid.
        assert!(Simulation::new(&m, &mach).order(&[x, c]).run().is_ok());
    }

    #[test]
    fn inflight_budget_degrades_to_blocking() {
        let n = 2;
        let mach = machine(n).with_max_inflight_async(1);
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[1 << 18]), "x");
        let pairs = vec![(0u32, 1u32), (1, 0)];
        let s1 = b.collective_permute_start(x, pairs.clone(), "s1");
        let s2 = b.collective_permute_start(x, pairs.clone(), "s2");
        let s3 = b.collective_permute_start(x, pairs, "s3");
        let big = b.parameter(f32s(&[2048, 2048]), "big");
        let w = b.parameter(f32s(&[2048, 2048]), "w");
        let y = b.einsum(big, w, DotDims::matmul(), "y");
        let d1 = b.collective_permute_done(s1, "d1");
        let d2 = b.collective_permute_done(s2, "d2");
        let d3 = b.collective_permute_done(s3, "d3");
        let m = b.build(vec![y, d1, d2, d3]);
        let constrained = Simulation::new(&m, &mach).run().unwrap();
        let unconstrained = Simulation::new(&m, &machine(n)).run().unwrap();
        assert!(constrained.makespan() >= unconstrained.makespan());
    }

    #[test]
    fn repeated_simulation_carries_state() {
        // A module whose schedule ends with an in-flight transfer hidden
        // by nothing: chaining repetitions lets the tail transfer hide
        // under the next repetition's compute.
        let n = 2;
        let machine = Machine::tpu_v4_like(n);
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[2048, 2048]), "x");
        let w = b.parameter(f32s(&[2048, 2048]), "w");
        let y = b.einsum(x, w, DotDims::matmul(), "y");
        let s = b.collective_permute_start(x, vec![(0, 1), (1, 0)], "s");
        let d = b.collective_permute_done(s, "d");
        let m = b.build(vec![y, d]);
        // Order: compute first, transfer at the tail (exposed in a single
        // run, hidden when repetitions chain).
        let order = vec![x, w, y, s, d];
        let sim = Simulation::new(&m, &machine).order(&order);
        let single = sim.run().unwrap();
        let five = sim.repeated(5).unwrap();
        assert!(five.makespan() <= 5.0 * single.makespan() + 1e-12);
        assert_eq!(five.total_flops(), 5 * single.total_flops());
    }

    /// The laws of the request, over {arena, hand-scheduled order} ×
    /// {table given, built}: every optional input is orthogonal to every
    /// other and to the terminal.
    #[test]
    fn simulation_laws() {
        let n = 4;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[256, 1024]), "x");
        let w = b.parameter(f32s(&[256, 1024]), "w");
        let wg = b.all_gather(w, 0, ReplicaGroups::full(n), "wg");
        let s = b.collective_permute_start(x, vec![(0, 1), (1, 2), (2, 3), (3, 0)], "s");
        let y = b.einsum(x, wg, DotDims::new(vec![], vec![(1, 0)]).unwrap(), "y");
        let d = b.collective_permute_done(s, "d");
        let z = b.add(d, y, "z");
        let m = b.build(vec![z]);
        let machine = machine(n);
        let given = CostTable::new(&m, &machine).unwrap();
        // The transfer issued first, so it hides under the AllGather.
        let scheduled = [x, s, w, wg, y, d, z];
        let noop = FaultSpec::default();
        let spec = FaultSpec::seeded(7).with_straggler(0, 1.5).with_jitter(1e-4);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        for order in [None, Some(&scheduled[..])] {
            let base = Simulation::new(&m, &machine);
            let built = order.map_or(base, |o| base.order(o));
            let pristine = built.run().unwrap();
            let faulted = built.faults(Some(&spec));
            for sim in [built, built.table(&given)] {
                // Given and built tables are the same table: reports
                // match down to the timeline and the attribution.
                assert_eq!(sim.run().unwrap(), pristine);
                assert_eq!(sim.repeated(3).unwrap(), built.repeated(3).unwrap());
                let under = sim.faults(Some(&spec));
                assert_eq!(under.run().unwrap(), faulted.run().unwrap());
                assert_eq!(under.repeated(3).unwrap(), faulted.repeated(3).unwrap());
                assert_eq!(bits(&under.tail(5).unwrap()), bits(&faulted.tail(5).unwrap()));

                // The no-op spec is the pristine machine.
                let idle = sim.faults(Some(&noop));
                assert_eq!(idle.run().unwrap(), pristine);
                assert!(idle.run().unwrap().fault_attribution().is_zero());
                assert_eq!(idle.repeated(3).unwrap(), sim.repeated(3).unwrap());
                assert_eq!(bits(&idle.tail(3).unwrap()), bits(&[pristine.makespan(); 3]));
                assert_eq!(bits(&sim.tail(3).unwrap()), bits(&[pristine.makespan(); 3]));

                // One repetition is one run; zero of anything is a
                // matchable error, not a stringly InvalidSchedule.
                for sim in [sim, under] {
                    assert_eq!(sim.repeated(1).unwrap(), sim.run().unwrap());
                    assert_eq!(sim.repeated(0), Err(SimError::ZeroRepetitions));
                    assert_eq!(sim.tail(0), Err(SimError::ZeroRepetitions));
                }

                // Draws are independent executions: draw 0 is the
                // single faulted run (not a continuation), draw i does not
                // depend on how many draws follow it, per-hop jitter
                // re-draws per index so the samples actually spread, and
                // no fault realization beats the pristine machine.
                let draws = under.tail(8).unwrap();
                assert_eq!(draws[0].to_bits(), under.run().unwrap().makespan().to_bits());
                assert_eq!(bits(&draws[..3]), bits(&under.tail(3).unwrap()));
                assert!(draws.iter().any(|&d| d != draws[0]), "jitter draws must differ");
                assert!(draws.iter().all(|&d| d >= pristine.makespan()));
            }

            // The five spellings the benchmark calls by name.
            let o = order.map_or_else(|| m.arena_order(), <[InstrId]>::to_vec);
            assert_eq!(simulate_order(&m, &machine, &o).unwrap(), pristine);
            assert_eq!(simulate_order_with(&given, &m, &machine, &o).unwrap(), pristine);
            assert_eq!(
                simulate_order_faulted_with(&given, &m, &machine, &o, &spec).unwrap(),
                faulted.run().unwrap()
            );
            assert_eq!(
                bits(&simulate_order_tail_with(&given, &m, &machine, &o, &spec, 5).unwrap()),
                bits(&faulted.tail(5).unwrap())
            );
        }
        assert_eq!(simulate(&m, &machine).unwrap(), Simulation::new(&m, &machine).run().unwrap());
    }

    #[test]
    fn mismatched_table_is_rejected() {
        let machine = Machine::tpu_v4_like(1);
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[4]), "x");
        let c = b.copy(x, "c");
        let m = b.build(vec![c]);
        let mut b2 = Builder::new("m2", 1);
        let x2 = b2.parameter(f32s(&[4]), "x2");
        let m2 = b2.build(vec![x2]);
        let table = CostTable::new(&m2, &machine).unwrap();
        assert!(Simulation::new(&m, &machine).order(&[x, c]).table(&table).run().is_err());
    }

    #[test]
    fn sync_collective_duration_matches_analytic_cost() {
        // The simulator must charge exactly the closed-form ring time the
        // §5.5 gate uses — otherwise gate decisions and measurements
        // would diverge.
        let n = 8;
        let machine = Machine::with_mesh(overlap_mesh::DeviceMesh::ring(n));
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[1024, 512]), "x");
        let g = b.all_gather(x, 0, ReplicaGroups::full(n), "g");
        let m = b.build(vec![g]);
        let r = Simulation::new(&m, &machine).run().unwrap();
        let expect = overlap_mesh::cost::all_gather_time(
            &machine,
            n,
            m.shape_of(g).byte_size(),
        );
        let span = r
            .timeline()
            .spans
            .iter()
            .find(|s| s.name == "g")
            .expect("collective span recorded");
        assert!((span.duration() - expect).abs() < 1e-15);
        assert!((r.sync_comm_time() - expect).abs() < 1e-15);
    }

    #[test]
    fn makespan_bounds() {
        // Makespan is at least the larger of total compute and the sum of
        // same-lane transfers, and at most their sum.
        let n = 2;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[512, 512]), "x");
        let w = b.parameter(f32s(&[512, 512]), "w");
        let s = b.collective_permute_start(x, vec![(0, 1), (1, 0)], "s");
        let y = b.einsum(x, w, DotDims::matmul(), "y");
        let d = b.collective_permute_done(s, "d");
        let z = b.add(d, y, "z");
        let m = b.build(vec![z]);
        let r = Simulation::new(&m, &machine(n)).run().unwrap();
        let busy = r.compute_time() + r.memory_time();
        assert!(r.makespan() + 1e-15 >= busy);
        assert!(r.makespan() <= busy + r.comm_time() + r.hidden_async_time() + 1e-12);
    }

    #[test]
    fn straggler_charges_fault_attribution() {
        let n = 2;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[512, 512]), "x");
        let w = b.parameter(f32s(&[512, 512]), "w");
        let y = b.einsum(x, w, DotDims::matmul(), "y");
        let m = b.build(vec![y]);
        let machine = machine(n);
        let pristine = Simulation::new(&m, &machine).run().unwrap();
        let spec = FaultSpec::seeded(7).with_straggler(0, 2.0);
        let slow = Simulation::new(&m, &machine).faults(Some(&spec)).run().unwrap();
        assert!(slow.compute_time() > pristine.compute_time());
        let att = slow.fault_attribution();
        let lost = slow.compute_time() - pristine.compute_time();
        assert!((att.straggler_seconds - lost).abs() < 1e-15);
        assert_eq!(att.stall_retries, 0);
    }

    #[test]
    fn watchdog_timeout_is_typed() {
        let n = 2;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[1024, 1024]), "x");
        let w = b.parameter(f32s(&[1024, 1024]), "w");
        let y = b.einsum(x, w, DotDims::matmul(), "y");
        let m = b.build(vec![y]);
        let machine = machine(n);
        // A limit below the einsum's runtime trips the watchdog ...
        let tight = FaultSpec::seeded(1).with_time_limit(1e-12);
        assert_eq!(Simulation::new(&m, &machine).faults(Some(&tight)).run(), Err(SimError::Timeout));
        // ... a generous one does not perturb the run at all.
        let loose = FaultSpec::seeded(1).with_time_limit(3600.0);
        let r = Simulation::new(&m, &machine).faults(Some(&loose)).run().unwrap();
        assert_eq!(r, Simulation::new(&m, &machine).run().unwrap());
    }

    #[test]
    fn watchdog_detects_deadlocked_tables() {
        let n = 2;
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[64]), "x");
        let c = b.copy(x, "c");
        let m = b.build(vec![c]);
        let machine = machine(n);
        let spec = FaultSpec::seeded(1);
        // Negative cost: time is charged but the clock never advances.
        // Non-finite cost: the clock goes NaN, which also reads as a
        // schedule that can never finish.
        for seconds in [-1.0, f64::NAN] {
            let table = CostTable::from_raw_costs(vec![
                InstrCost::Free,
                InstrCost::Compute { seconds, flops: 0 },
            ]);
            let got = Simulation::new(&m, &machine).table(&table).faults(Some(&spec)).run();
            assert_eq!(got, Err(SimError::Deadlock));
        }
    }
}
