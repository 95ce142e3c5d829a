//! Strategy autotuner: search the decomposition space with the cached
//! simulator as oracle.
//!
//! Enumerates the [`overlap_core::StrategySpec`] candidate grid (ring direction,
//! unrolling, chunk width, pad-max-concat, fusion aggressiveness) crossed
//! with the two latency-hiding schedulers, statically prunes combinations
//! the emission rules make infeasible or behavior-identical, scores every
//! survivor with the performance simulator (compiles served through the
//! artifact cache, so re-runs and overlapping grids are warm), and writes
//! the per-configuration leaderboard to `results/fig_autotune.json`.
//!
//! ```sh
//! cargo run --release -p overlap-bench --bin overlap-autotune
//! OVERLAP_AUTOTUNE_SMOKE=1 cargo run --release -p overlap-bench --bin overlap-autotune
//! ```
//!
//! The sweep covers every Table-1 model on its paper machine, a small
//! short-ring machine (4x4 mesh), and one degraded-hardware configuration
//! (seeded, deterministic), so the leaderboard shows where the tuned
//! strategy diverges from the paper default. Wall-clock is printed but never written to the
//! JSON, which stays byte-identical across identically-seeded runs.

use overlap_bench::{
    artifact_cache, par_map, report_cache, run_baseline, run_overlapped, smoke_config,
    strategy_grid, write_json, SEED,
};
use overlap_core::OverlapOptions;
use overlap_json::{Json, ToJson};
use overlap_mesh::FaultSpec;
use overlap_models::{table1_models, ModelConfig};

/// One scored candidate on one configuration.
struct Entry {
    options: OverlapOptions,
    step_time: f64,
}

/// The leaderboard for one (model, machine[, faults]) configuration.
struct Board {
    config: String,
    faulted: bool,
    baseline: f64,
    paper_default: f64,
    entries: Vec<Entry>,
}

impl Board {
    fn winner(&self) -> &Entry {
        &self.entries[0]
    }
}

// Hand-written: a projection (flattened and computed members), not the
// struct's field list.
impl ToJson for Board {
    fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .entries
            .iter()
            .take(10)
            .map(|e| {
                Json::obj()
                    .with("strategy", e.options.strategy.describe())
                    .with("scheduler", e.options.scheduler.to_json())
                    .with("step_time", e.step_time)
                    .with("speedup_vs_paper_default", self.paper_default / e.step_time)
            })
            .collect();
        Json::obj()
            .with("config", self.config.as_str())
            .with("faulted", self.faulted)
            .with("baseline_step_time", self.baseline)
            .with("paper_default_step_time", self.paper_default)
            .with("winner_strategy", self.winner().options.strategy.to_json())
            .with("winner_scheduler", self.winner().options.scheduler.to_json())
            .with("leaderboard", Json::from(rows))
    }
}

/// Scores the full candidate list on one configuration and returns its
/// leaderboard sorted fastest-first (ties broken by the strategy
/// description so identically-timed candidates order deterministically).
fn tune(cfg: &ModelConfig, spec: Option<&FaultSpec>, options: &[OverlapOptions]) -> Board {
    let cache = artifact_cache();
    let baseline = run_baseline(cfg, spec).step_time;
    let paper_default =
        run_overlapped(cfg, OverlapOptions::paper_default(), spec, cache).step_time;
    let mut entries: Vec<Entry> = par_map(options, |&o| Entry {
        options: o,
        step_time: run_overlapped(cfg, o, spec, cache).step_time,
    });
    entries.sort_by(|a, b| {
        a.step_time
            .total_cmp(&b.step_time)
            .then_with(|| a.options.strategy.describe().cmp(&b.options.strategy.describe()))
            .then_with(|| {
                format!("{:?}", a.options.scheduler).cmp(&format!("{:?}", b.options.scheduler))
            })
    });
    Board {
        config: match spec {
            Some(_) => format!("{}+faults", cfg.name),
            None => cfg.name.clone(),
        },
        faulted: spec.is_some(),
        baseline,
        paper_default,
        entries,
    }
}

fn print_board(b: &Board) {
    println!(
        "{:<16} base {:>9.3}ms paper {:>9.3}ms",
        b.config,
        b.baseline * 1e3,
        b.paper_default * 1e3
    );
    for (i, e) in b.entries.iter().take(5).enumerate() {
        println!(
            "  #{:<2} {:>9.3}ms {:>6.3}x  {} sched={:?}",
            i + 1,
            e.step_time * 1e3,
            b.paper_default / e.step_time,
            e.options.strategy.describe(),
            e.options.scheduler,
        );
    }
}

fn main() {
    let smoke = std::env::var("OVERLAP_AUTOTUNE_SMOKE").is_ok_and(|v| v == "1");
    let (options, pruned, total) = strategy_grid();
    println!(
        "overlap-autotune: {} candidates kept, {pruned} of {total} pruned statically (seed {SEED})",
        options.len()
    );

    let models = if smoke {
        vec![smoke_config()]
    } else {
        // Table-1 plus the short-ring smoke machine: the 4x4 mesh is the
        // regime where the chunked unidirectional window beats the paper
        // default, so the committed leaderboard keeps that data point.
        let mut models = table1_models();
        models.push(smoke_config());
        models
    };
    let started = std::time::Instant::now();
    let mut boards = Vec::new();
    for cfg in &models {
        let board = tune(cfg, None, &options);
        print_board(&board);
        boards.push(board);
    }
    // One degraded configuration, compiled fault-aware so the tuned
    // strategy has to win under the adjusted gate too. GLaM_1T with a
    // moderate straggler is the regime where tuning genuinely pays: the
    // bidirectional ring's prologue/epilogue regresses past the adjusted
    // gate and falls back wholesale, while the unidirectional loop keeps
    // overlapping (~12% faster than the paper default there).
    let faulted_cfg = models
        .iter()
        .find(|m| m.name == "GLaM_1T")
        .unwrap_or(&models[0]);
    let spec = FaultSpec::seeded(SEED).with_straggler(0, 1.6).with_jitter(2e-4);
    let board = tune(faulted_cfg, Some(&spec), &options);
    print_board(&board);
    boards.push(board);

    let improved = boards
        .iter()
        .filter(|b| b.winner().step_time < b.paper_default)
        .count();
    println!(
        "autotuned strategy beats paper default on {improved} of {} configurations",
        boards.len()
    );
    write_json(
        if smoke { "fig_autotune_smoke" } else { "fig_autotune" },
        &boards,
    );
    report_cache(artifact_cache());
    eprintln!("search wall-clock: {:.1}s", started.elapsed().as_secs_f64());
}
