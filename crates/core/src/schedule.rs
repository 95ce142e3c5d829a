//! Latency-hiding instruction scheduling (§5.2).
//!
//! Both schedulers take a verified module (typically the output of
//! [`decompose`], whose permutes are already start/done pairs) and
//! produce a linear instruction order in which asynchronous
//! `CollectivePermuteStart`s issue as early and `Done`s retire as late as
//! data dependences allow, so transfers run concurrently with the compute
//! between them. The simulator executes the returned order directly.
//!
//! [`decompose`]: crate::decompose

#[cfg(test)]
use std::collections::HashMap;

use overlap_hlo::{InstrId, LayerTags, Module, ModuleAnalysis, Op};
use overlap_mesh::Machine;
use overlap_sim::{CostTable, InstrCost};

fn latency_of(cost: InstrCost) -> f64 {
    match cost {
        InstrCost::Free => 0.0,
        InstrCost::Compute { seconds, .. }
        | InstrCost::Memory { seconds }
        | InstrCost::SyncCollective { seconds } => seconds,
        // The transfer latency is attributed to the *done*: in the
        // bottom-up pass this is what pushes the matching start earlier.
        InstrCost::AsyncStart(_) => 0.0,
        InstrCost::AsyncDone => 0.0,
    }
}

/// Per-instruction latencies as the *simulator* will charge them: fused
/// non-root members cost nothing at their own position (the engine
/// executes the whole group at its root), and each fusion root carries
/// the group's cost. Without this the scheduler would count a fused
/// `DynamicSlice`'s memory time as overlap opportunity that the executed
/// program does not actually provide.
fn effective_latencies(table: &CostTable, module: &Module, machine: &Machine) -> Vec<f64> {
    // `Module::ids` is a plain counter now, so this builds the latency
    // vector in one pass with no intermediate id allocation.
    let mut lat: Vec<f64> = module.ids().map(|id| latency_of(table.cost(id))).collect();
    for group in module.fusion_groups() {
        let total: f64 = group
            .members
            .iter()
            .map(|&m| match table.cost(m) {
                InstrCost::Compute { seconds, .. } => seconds,
                _ => 0.0,
            })
            .sum();
        for &m in &group.members {
            lat[m.index()] = 0.0;
        }
        lat[group.root.index()] = total + machine.op_overhead();
    }
    lat
}

fn done_transfer_latency(table: &CostTable, module: &Module, id: InstrId) -> f64 {
    let start = module.instr(id).operands()[0];
    done_transfer_latency_of_start(table, start)
}

/// Cross-layer scheduling window: bounds how many consecutive layer
/// stages of a layer-tagged module (see [`LayerTags`]) the schedulers
/// may interleave. With a window of `w`, the top-down pass may issue an
/// instruction of stage `l` only while every stage `<= l - w` is fully
/// scheduled (so collectives of stage `k+1` can overlap compute of
/// stage `k` when `w >= 2`, and `w = 1` keeps strict per-stage
/// barriers); the bottom-up pass applies the mirrored rule from the
/// other end. Monotone tags guarantee the constraint can never
/// deadlock: the dependence-minimal unscheduled instruction of the
/// frontier stage is always both ready and admissible.
#[derive(Debug, Clone)]
pub struct ScheduleWindow {
    layer_of: Vec<u32>,
    num_layers: u32,
    window: u32,
}

impl ScheduleWindow {
    /// Builds the constraint for a layer-tagged module. Returns `None`
    /// when it cannot constrain anything — untagged or single-stage
    /// modules (every committed single-layer figure), or a window at
    /// least as wide as the module — so those schedules stay
    /// byte-identical to the unwindowed scheduler by construction.
    #[must_use]
    pub fn new(tags: &LayerTags, window_layers: usize) -> Option<Self> {
        let num_layers = tags.num_layers();
        let window = window_layers.max(1).min(u32::MAX as usize) as u32;
        if num_layers <= 1 || window >= num_layers {
            return None;
        }
        Some(ScheduleWindow { layer_of: tags.tags().to_vec(), num_layers, window })
    }

    /// The bounded lookahead, in layer stages.
    #[must_use]
    pub fn window_layers(&self) -> usize {
        self.window as usize
    }
}

/// Per-run frontier state for one windowed scheduling pass.
struct WindowCursor<'a> {
    spec: &'a ScheduleWindow,
    /// Unscheduled instructions per stage.
    remaining: Vec<usize>,
    /// Lowest (forward) or highest (reverse) incomplete stage.
    frontier: u32,
    forward: bool,
}

impl<'a> WindowCursor<'a> {
    fn new(spec: &'a ScheduleWindow, forward: bool) -> Self {
        let mut remaining = vec![0usize; spec.num_layers as usize];
        for &l in &spec.layer_of {
            remaining[l as usize] += 1;
        }
        let frontier = if forward { 0 } else { spec.num_layers - 1 };
        WindowCursor { spec, remaining, frontier, forward }
    }

    /// Whether stage membership allows scheduling `id` now.
    fn admits(&self, id: InstrId) -> bool {
        let l = self.spec.layer_of[id.index()];
        if self.forward {
            l < self.frontier + self.spec.window
        } else {
            l + self.spec.window > self.frontier
        }
    }

    /// Selection-key component that keeps the frontier stage preferred
    /// among admissible candidates of the same class: cross-boundary
    /// work is a *filler* for gaps the frontier stage cannot cover
    /// (e.g. compute of stage `k` hiding a pending transfer of stage
    /// `k+1`), never the default — unconstrained stage-hopping was
    /// measured to perturb the greedy order for no overlap gain.
    /// Returns the distance from the frontier (0 = frontier stage).
    fn distance(&self, id: InstrId) -> u32 {
        let l = self.spec.layer_of[id.index()];
        if self.forward {
            l.saturating_sub(self.frontier)
        } else {
            self.frontier.saturating_sub(l)
        }
    }

    fn on_scheduled(&mut self, id: InstrId) {
        let l = self.spec.layer_of[id.index()] as usize;
        self.remaining[l] -= 1;
        if self.forward {
            while (self.frontier as usize) < self.remaining.len() - 1
                && self.remaining[self.frontier as usize] == 0
            {
                self.frontier += 1;
            }
        } else {
            while self.frontier > 0 && self.remaining[self.frontier as usize] == 0 {
                self.frontier -= 1;
            }
        }
    }
}

fn done_transfer_latency_of_start(table: &CostTable, start: InstrId) -> f64 {
    match table.cost(start) {
        InstrCost::AsyncStart(t) => t.seconds,
        _ => 0.0,
    }
}

/// The bottom-up scheduler of Algorithm 2.
///
/// Instructions are scheduled in reverse, starting from the dataflow
/// roots. A ready queue prioritizes `CollectivePermuteDone`s (placing
/// them as close as possible to their first user, i.e. as late as
/// possible in forward order); the transfer latency attributed to a
/// scheduled done pushes its `Start`'s reverse-ready time out, so the
/// scheduler fills the gap with independent compute before placing the
/// start — which is exactly what makes the transfer overlap. A pending
/// queue holds instructions whose users are all scheduled but whose
/// estimated ready time has not been reached; the in-flight asynchronous
/// budget (`machine.max_inflight_async()`) defers additional dones when
/// exhausted (footnote 11 of the paper).
///
/// `table` and `analysis` must cover `module` (the scheduler reads the
/// per-instruction costs and the users table from them); `window`
/// bounds how far the order may interleave `L<k>.` layer stages, and
/// `None` leaves the order unconstrained.
///
/// Returns a complete topological order (operands precede users).
///
/// # Example
///
/// ```
/// use overlap_core::schedule_bottom_up;
/// use overlap_hlo::{Builder, DType, Shape, WireFormat};
/// use overlap_mesh::Machine;
/// use overlap_sim::CostTable;
///
/// let mut b = Builder::new("m", 2);
/// let x = b.parameter(Shape::new(DType::F32, vec![1024]), "x");
/// let p = b.collective_permute_async(x, vec![(0, 1), (1, 0)], WireFormat::Lossless, "p");
/// let c = b.copy(p, "c");
/// let (m, analysis) = b.build_with_analysis(vec![c]);
///
/// let machine = Machine::tpu_v4_like(2);
/// let table = CostTable::new(&m, &machine).unwrap();
/// let order = schedule_bottom_up(&table, &analysis, &m, &machine, None);
/// assert_eq!(order.len(), m.len());
/// ```
///
/// # Panics
///
/// Panics if `table` or `analysis` does not cover `module`.
#[must_use]
pub fn schedule_bottom_up(
    table: &CostTable,
    analysis: &ModuleAnalysis,
    module: &Module,
    machine: &Machine,
    window: Option<ScheduleWindow>,
) -> Vec<InstrId> {
    assert_covers(table, analysis, module);
    let effective_lat = effective_latencies(table, module, machine);
    bottom_up_impl(table, module, machine, analysis.users(), &effective_lat, window.as_ref())
}

fn assert_covers(table: &CostTable, analysis: &ModuleAnalysis, module: &Module) {
    assert_eq!(table.len(), module.len(), "cost table built for a different module");
    assert_eq!(analysis.len(), module.len(), "analysis does not cover module");
}

fn bottom_up_impl(
    table: &CostTable,
    module: &Module,
    machine: &Machine,
    users: &[Vec<InstrId>],
    effective_lat: &[f64],
    window: Option<&ScheduleWindow>,
) -> Vec<InstrId> {
    let n = module.len();
    let mut unscheduled_users: Vec<usize> = users.iter().map(Vec::len).collect();
    let mut finish = vec![0.0f64; n];
    let mut ready_time = vec![0.0f64; n];
    let mut in_ready: Vec<InstrId> = Vec::new();
    let mut in_pending: Vec<InstrId> = Vec::new();
    let mut scheduled = vec![false; n];
    let mut reverse_seq: Vec<InstrId> = Vec::with_capacity(n);
    let mut current_time = 0.0f64;
    let mut inflight_async = 0usize;
    let budget = machine.max_inflight_async();

    for id in module.ids() {
        if unscheduled_users[id.index()] == 0 {
            ready_time[id.index()] = 0.0;
            in_ready.push(id);
        }
    }

    let is_done = |id: InstrId| matches!(module.instr(id).op(), Op::CollectivePermuteDone);
    let is_start =
        |id: InstrId| matches!(module.instr(id).op(), Op::CollectivePermuteStart { .. });

    // The reverse pass consumes the module top-down by *layer*: the
    // frontier starts at the last layer and an instruction of layer `l`
    // is admissible while `l + window > frontier`.
    let mut cursor = window.map(|w| WindowCursor::new(w, false));

    while !in_ready.is_empty() || !in_pending.is_empty() {
        let admits = |id: InstrId| match &cursor {
            Some(c) => c.admits(id),
            None => true,
        };
        // 0 when no window is active, so the added key component is
        // inert and the unwindowed order stays byte-identical.
        let near = |id: InstrId| match &cursor {
            Some(c) => -(c.distance(id) as i64),
            None => 0,
        };
        // SelectNodeFromReadyQ: prefer dones (budget permitting; they land
        // as late as possible in forward order), then starts (a start only
        // becomes ready after the pending queue has delayed it by its
        // transfer latency, so once ready it should be placed eagerly —
        // that is what pushes it early in forward order), then the
        // original order (footnote 10).
        let pick_from = |queue: &[InstrId], by_ready_time: bool| {
            let allowed =
                |id: InstrId| admits(id) && !(is_done(id) && inflight_async >= budget);
            let class = |id: InstrId| {
                if is_done(id) {
                    2u8
                } else if is_start(id) {
                    1
                } else {
                    0
                }
            };
            let key = |id: InstrId| {
                if by_ready_time {
                    // Earliest ready first (pending queue rule).
                    (-ready_time[id.index()], id.index() as i64)
                } else {
                    (0.0, id.index() as i64)
                }
            };
            queue.iter().copied().filter(|&id| allowed(id)).max_by(|&a, &b| {
                (near(a), class(a), key(a))
                    .partial_cmp(&(near(b), class(b), key(b)))
                    .expect("ordering keys are finite")
            })
        };

        let candidate = pick_from(&in_ready, false)
            .or_else(|| pick_from(&in_pending, true))
            // Only over-budget dones remain inside the window: take one
            // to guarantee progress (footnote 11's rare degradation),
            // still preferring window-admissible work.
            .or_else(|| in_ready.iter().rev().copied().find(|&id| admits(id)))
            .or_else(|| in_pending.iter().rev().copied().find(|&id| admits(id)))
            // Nothing admissible at all (defensive; monotone tags make
            // this unreachable — the frontier layer always has a ready
            // instruction): ignore the window rather than deadlock.
            .or_else(|| in_ready.last().copied())
            .or_else(|| in_pending.last().copied())
            .expect("a queue is non-empty");
        in_ready.retain(|&x| x != candidate);
        in_pending.retain(|&x| x != candidate);

        debug_assert!(!scheduled[candidate.index()]);
        scheduled[candidate.index()] = true;
        reverse_seq.push(candidate);
        if let Some(c) = cursor.as_mut() {
            c.on_scheduled(candidate);
        }
        if is_done(candidate) {
            inflight_async += 1;
        } else if is_start(candidate) {
            inflight_async = inflight_async.saturating_sub(1);
        }

        // Reverse-timeline bookkeeping (Algorithm 2). A done occupies the
        // stream for ~nothing but its *data* finishes a transfer-latency
        // later: `current_time` advances by the occupancy while `finish`
        // carries the latency, so the matching start sits in the pending
        // queue until enough other work has been scheduled to cover the
        // transfer — that reverse gap is the forward overlap window.
        let mut rt = 0.0f64;
        for &u in &users[candidate.index()] {
            rt = rt.max(finish[u.index()]);
        }
        ready_time[candidate.index()] = rt;
        let (occupancy, data_latency) = if is_done(candidate) {
            // Inflate the transfer latency so discretization never places
            // the start a slot too late — issuing a transfer early is
            // free, issuing it late exposes it.
            (0.0, 2.0 * done_transfer_latency(table, module, candidate))
        } else {
            let l = effective_lat[candidate.index()];
            (l, l)
        };
        let base = rt.max(current_time);
        finish[candidate.index()] = base + data_latency;
        current_time = base + occupancy;

        // Operands whose users are now all scheduled become available.
        for &op in module.instr(candidate).operands() {
            let c = &mut unscheduled_users[op.index()];
            *c -= 1;
            if *c == 0 {
                let mut rt = users[op.index()]
                    .iter()
                    .map(|u| finish[u.index()])
                    .fold(0.0f64, f64::max);
                if is_start(op) {
                    // A start must sit in the pending queue for its
                    // transfer latency measured from *now* — its done's
                    // recorded finish can be stale when the done's users
                    // were scheduled long ago in the reverse pass, and an
                    // immediately-ready start would land adjacent to its
                    // done in forward order (zero overlap).
                    let gate = current_time
                        + 2.0 * done_transfer_latency_of_start(table, op);
                    rt = rt.max(gate);
                }
                ready_time[op.index()] = rt;
                if rt <= current_time {
                    in_ready.push(op);
                } else {
                    in_pending.push(op);
                }
            }
        }
        // Promote pending entries that became ready.
        let (now_ready, still_pending): (Vec<_>, Vec<_>) = in_pending
            .iter()
            .copied()
            .partition(|id| ready_time[id.index()] <= current_time);
        in_ready.extend(now_ready);
        in_pending = still_pending;
    }

    reverse_seq.reverse();
    reverse_seq
}

/// The top-down scheduler of §5.2.
///
/// Forward greedy list scheduling: among the dependence-ready
/// instructions, a `CollectivePermuteStart` is always issued first (as
/// early as possible), a `CollectivePermuteDone` is deferred until
/// nothing else can run (as late as possible), and everything else keeps
/// the input order — the input order itself provides the cost
/// "rebalancing" the paper describes, since the decomposition interleaves
/// permutes with the partial einsums they should hide behind. When the
/// in-flight asynchronous budget is exhausted the priorities flip so a
/// done retires before the next start issues.
///
/// Takes the same inputs as [`schedule_bottom_up`] (the cost table only
/// pins which module the inputs describe).
///
/// Returns a complete topological order (operands precede users).
///
/// # Panics
///
/// Panics if `table` or `analysis` does not cover `module`.
#[must_use]
pub fn schedule_top_down(
    table: &CostTable,
    analysis: &ModuleAnalysis,
    module: &Module,
    machine: &Machine,
    window: Option<ScheduleWindow>,
) -> Vec<InstrId> {
    assert_covers(table, analysis, module);
    top_down_impl(module, machine, analysis.users(), window.as_ref())
}

fn top_down_impl(
    module: &Module,
    machine: &Machine,
    users: &[Vec<InstrId>],
    window: Option<&ScheduleWindow>,
) -> Vec<InstrId> {
    let n = module.len();
    let mut remaining_deps: Vec<usize> =
        module.iter().map(|(_, ins)| ins.operands().len()).collect();
    let mut ready: Vec<InstrId> =
        module.ids().filter(|id| remaining_deps[id.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut inflight = 0usize;
    let budget = machine.max_inflight_async();

    let class = |id: InstrId, inflight: usize| -> u8 {
        match module.instr(id).op() {
            Op::CollectivePermuteStart { .. } => {
                if inflight < budget {
                    0 // issue ASAP
                } else {
                    2
                }
            }
            Op::CollectivePermuteDone => {
                if inflight < budget {
                    2 // retire as late as possible
                } else {
                    0
                }
            }
            _ => 1,
        }
    };

    // The forward pass consumes the module bottom-up by *layer*: the
    // frontier starts at layer 0 and an instruction of layer `l` is
    // admissible while `l < frontier + window`.
    let mut cursor = window.map(|w| WindowCursor::new(w, true));

    while !ready.is_empty() {
        // Lowest class first; ties prefer the frontier stage (the
        // window's cross-boundary freedom is a filler, not a default),
        // then original position (input order).
        let admits = |id: InstrId| match &cursor {
            Some(c) => c.admits(id),
            None => true,
        };
        let near = |id: InstrId| match &cursor {
            Some(c) => c.distance(id),
            None => 0,
        };
        let best = ready
            .iter()
            .copied()
            .filter(|&id| admits(id))
            .min_by_key(|&id| (near(id), class(id, inflight), id.index()))
            // Defensive (unreachable with monotone tags): ignore the
            // window rather than deadlock.
            .or_else(|| {
                ready.iter().copied().min_by_key(|&id| (class(id, inflight), id.index()))
            })
            .expect("ready non-empty");
        ready.retain(|&x| x != best);
        if let Some(c) = cursor.as_mut() {
            c.on_scheduled(best);
        }
        match module.instr(best).op() {
            Op::CollectivePermuteStart { .. } => inflight += 1,
            Op::CollectivePermuteDone => inflight = inflight.saturating_sub(1),
            _ => {}
        }
        order.push(best);
        for &u in &users[best.index()] {
            remaining_deps[u.index()] -= 1;
            if remaining_deps[u.index()] == 0 {
                ready.push(u);
            }
        }
    }
    assert_eq!(order.len(), n, "schedule must cover every instruction");
    order
}

/// Positions of each instruction in an order (for tests and analyses).
#[cfg(test)]
pub(crate) fn positions(order: &[InstrId]) -> HashMap<InstrId, usize> {
    order.iter().enumerate().map(|(i, &id)| (id, i)).collect()
}

#[cfg(test)]
mod tests {
    use overlap_hlo::{Builder, DType, DotDims, Shape};
    use overlap_sim::Simulation;

    use super::*;

    fn f32s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    /// The bottom-up and top-down orders of `m` under `window`.
    fn both(m: &Module, machine: &Machine, window: Option<ScheduleWindow>) -> [Vec<InstrId>; 2] {
        let table = CostTable::new(m, machine).unwrap();
        let analysis = ModuleAnalysis::of(m);
        [
            schedule_bottom_up(&table, &analysis, m, machine, window.clone()),
            schedule_top_down(&table, &analysis, m, machine, window),
        ]
    }

    /// A module with one async transfer and one big independent einsum:
    /// good schedulers put the start before the einsum and the done after.
    fn overlap_opportunity() -> (Module, InstrId, InstrId, InstrId) {
        let mut b = Builder::new("m", 2);
        let big = b.parameter(f32s(&[2048, 2048]), "big");
        let w = b.parameter(f32s(&[2048, 2048]), "w");
        let x = b.parameter(f32s(&[1 << 16]), "x");
        let s = b.collective_permute_start(x, vec![(0, 1), (1, 0)], "s");
        let d = b.collective_permute_done(s, "d");
        let y = b.einsum(big, w, DotDims::matmul(), "y");
        // The final result consumes both.
        let yc = b.reshape(y, vec![2048 * 2048], "yc");
        let dc = b.reshape(d, vec![1 << 16], "dc");
        let m = b.build(vec![yc, dc]);
        (m, s, d, y)
    }

    #[test]
    fn bottom_up_overlaps_transfer_with_compute() {
        let (m, s, d, y) = overlap_opportunity();
        let machine = Machine::tpu_v4_like(2);
        let [order, _] = both(&m, &machine, None);
        let pos = positions(&order);
        assert!(pos[&s] < pos[&y], "start should issue before the einsum");
        assert!(pos[&d] > pos[&y], "done should retire after the einsum");
        let r = Simulation::new(&m, &machine).order(&order).run().unwrap();
        assert_eq!(r.exposed_async_time(), 0.0, "transfer should hide entirely");
    }

    #[test]
    fn top_down_overlaps_transfer_with_compute() {
        let (m, s, d, y) = overlap_opportunity();
        let machine = Machine::tpu_v4_like(2);
        let [_, order] = both(&m, &machine, None);
        let pos = positions(&order);
        assert!(pos[&s] < pos[&y]);
        assert!(pos[&d] > pos[&y]);
        let r = Simulation::new(&m, &machine).order(&order).run().unwrap();
        assert_eq!(r.exposed_async_time(), 0.0);
    }

    #[test]
    fn schedules_are_complete_topological_orders() {
        let (m, _, _, _) = overlap_opportunity();
        let machine = Machine::tpu_v4_like(2);
        for order in both(&m, &machine, None) {
            assert_eq!(order.len(), m.len());
            // The simulator validates topological completeness.
            Simulation::new(&m, &machine).order(&order).run().unwrap();
        }
    }

    #[test]
    fn budget_limits_inflight_starts_top_down() {
        let machine = Machine::tpu_v4_like(2).with_max_inflight_async(1);
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[64]), "x");
        let pairs = vec![(0u32, 1u32), (1, 0)];
        let s1 = b.collective_permute_start(x, pairs.clone(), "s1");
        let d1 = b.collective_permute_done(s1, "d1");
        let s2 = b.collective_permute_start(x, pairs, "s2");
        let d2 = b.collective_permute_done(s2, "d2");
        let m = b.build(vec![d1, d2]);
        let [_, order] = both(&m, &machine, None);
        let pos = positions(&order);
        // With budget 1, the second start must wait for the first done.
        assert!(pos[&d1] < pos[&s2] || pos[&d2] < pos[&s1]);
    }

    #[test]
    fn bottom_up_handles_modules_without_async() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[8]), "x");
        let c = b.copy(x, "c");
        let c2 = b.copy(c, "c2");
        let m = b.build(vec![c2]);
        let machine = Machine::tpu_v4_like(1);
        let [order, _] = both(&m, &machine, None);
        assert_eq!(order, vec![x, c, c2]);
    }

    /// `stages` chained einsum stages, each tagged `L<k>.`; every stage
    /// also carries an async permute of the *previous* stage's output so
    /// windows > 1 have something to hoist across the stage boundary.
    fn stacked_tagged(stages: usize) -> Module {
        let mut b = Builder::new("m", 2);
        let mut x = b.parameter(f32s(&[256, 256]), "L0.x");
        let mut outs = Vec::new();
        for k in 0..stages {
            let w = b.parameter(f32s(&[256, 256]), &format!("L{k}.w"));
            x = b.einsum(x, w, DotDims::matmul(), &format!("L{k}.h"));
            let s = b.collective_permute_start(
                x,
                vec![(0, 1), (1, 0)],
                &format!("L{k}.p"),
            );
            let d = b.collective_permute_done(s, &format!("L{k}.pd"));
            outs.push(b.reshape(d, vec![256 * 256], &format!("L{k}.out")));
        }
        b.build(vec![outs.pop().unwrap()])
    }

    #[test]
    fn window_is_inert_on_untagged_modules() {
        let (m, _, _, _) = overlap_opportunity();
        let tags = LayerTags::of(&m);
        assert!(ScheduleWindow::new(&tags, 1).is_none());
        assert!(ScheduleWindow::new(&tags, 4).is_none());
        // A window at least as wide as the stage count constrains nothing.
        let stacked = stacked_tagged(3);
        let tags = LayerTags::of(&stacked);
        assert!(ScheduleWindow::new(&tags, 3).is_none());
        assert!(ScheduleWindow::new(&tags, 2).is_some());
    }

    #[test]
    fn window_one_enforces_stage_barriers() {
        let m = stacked_tagged(3);
        let machine = Machine::tpu_v4_like(2);
        let tags = LayerTags::of(&m);
        for order in both(&m, &machine, ScheduleWindow::new(&tags, 1)) {
            assert_eq!(order.len(), m.len());
            Simulation::new(&m, &machine).order(&order).run().unwrap();
            // Strict barriers: stage tags are non-decreasing along the order.
            let stage_seq: Vec<u32> = order.iter().map(|&id| tags.layer_of(id)).collect();
            let mut sorted = stage_seq.clone();
            sorted.sort_unstable();
            assert_eq!(stage_seq, sorted, "window=1 must not interleave stages");
        }
    }

    #[test]
    fn windowed_orders_are_valid_and_bounded() {
        let m = stacked_tagged(4);
        let machine = Machine::tpu_v4_like(2);
        let tags = LayerTags::of(&m);
        for w in [2usize, 3] {
            for order in both(&m, &machine, ScheduleWindow::new(&tags, w)) {
                assert_eq!(order.len(), m.len());
                Simulation::new(&m, &machine).order(&order).run().unwrap();
                // Any two instructions more than `w` stages apart must
                // respect stage order (the window bounds interleaving).
                for (i, &a) in order.iter().enumerate() {
                    for &b in &order[i + 1..] {
                        let (la, lb) = (tags.layer_of(a), tags.layer_of(b));
                        assert!(
                            lb + (w as u32) > la,
                            "stage {lb} scheduled after stage {la} with window {w}"
                        );
                    }
                }
            }
        }
    }
}
