//! Strategy autotuner (`fig_autotune`): the decomposition-strategy space
//! searched with the cached simulator as oracle.
//!
//! Every survivor of [`crate::strategy_grid`] (ring direction ×
//! unrolling × chunk width × pad-vs-concat joins × fusion aggressiveness
//! × scheduler, minus the statically pruned points) is compiled through
//! the sweep's artifact cache and simulated on each configuration: the
//! Table-1 models on their paper machines, the 16-chip short-ring
//! machine ([`crate::smoke_config`]), and GLaM_1T on a seeded degraded
//! machine, compiled fault-aware. Each configuration records its
//! leaderboard, fastest first. Smoke mode keeps the short-ring machine
//! alone (healthy and degraded).
//!
//! The paper default is a point of the grid, so a winner slower than it
//! means the search or its sort is broken: the sweep fails instead.

use overlap_core::OverlapOptions;
use overlap_json::{Json, ToJson};
use overlap_mesh::FaultSpec;
use overlap_models::{table1_models, ModelConfig};

use super::{items, md_table, num, text, FigureResult, SweepConfig};
use crate::{par_map, run_baseline, run_overlapped, smoke_config, strategy_grid, SEED};

/// Leaderboard rows recorded per configuration.
const KEPT: usize = 10;

/// Scores `options` on one configuration and returns its leaderboard,
/// fastest first (ties broken by the strategy description, then the
/// scheduler, so identically-timed candidates order deterministically).
fn tune(
    cfg: &ModelConfig,
    spec: Option<&FaultSpec>,
    options: &[OverlapOptions],
    sweep: &SweepConfig<'_>,
) -> FigureResult {
    let baseline = run_baseline(cfg, spec).step_time;
    let paper_default =
        run_overlapped(cfg, OverlapOptions::paper_default(), spec, sweep.cache).step_time;
    let mut scored: Vec<(OverlapOptions, f64)> =
        par_map(options, |&o| (o, run_overlapped(cfg, o, spec, sweep.cache).step_time));
    scored.sort_by(|(a, a_time), (b, b_time)| {
        a_time
            .total_cmp(b_time)
            .then_with(|| a.strategy.describe().cmp(&b.strategy.describe()))
            .then_with(|| format!("{:?}", a.scheduler).cmp(&format!("{:?}", b.scheduler)))
    });
    let config = match spec {
        Some(_) => format!("{}+faults", cfg.name),
        None => cfg.name.clone(),
    };
    let (winner, best) = scored[0];
    if best > paper_default {
        return Err(format!(
            "{config}: the winner takes {best} s, the paper default {paper_default} s, \
             and the grid contains the paper default"
        ));
    }
    let rows: Vec<Json> = scored
        .iter()
        .take(KEPT)
        .map(|(o, step_time)| {
            Json::obj()
                .with("strategy", o.strategy.describe())
                .with("scheduler", o.scheduler.to_json())
                .with("step_time", *step_time)
                .with("speedup_vs_paper_default", paper_default / step_time)
        })
        .collect();
    Ok(Json::obj()
        .with("config", config.as_str())
        .with("faulted", spec.is_some())
        .with("baseline_step_time", baseline)
        .with("paper_default_step_time", paper_default)
        .with("winner_strategy", winner.strategy.to_json())
        .with("winner_scheduler", winner.scheduler.to_json())
        .with("leaderboard", Json::from(rows)))
}

pub(super) fn run(sweep: &SweepConfig<'_>) -> FigureResult {
    let (options, _, _) = strategy_grid();
    // The short-ring machine rides along with Table 1: on its 4x4 mesh
    // the chunked unidirectional window beats the paper default.
    let mut models = if sweep.smoke { Vec::new() } else { table1_models() };
    models.push(smoke_config());
    let mut boards =
        models.iter().map(|cfg| tune(cfg, None, &options, sweep)).collect::<Result<Vec<_>, _>>()?;
    // One degraded configuration, compiled fault-aware so the tuned
    // strategy has to win under the adjusted gate too. GLaM_1T with a
    // moderate straggler is where tuning pays: the bidirectional ring's
    // prologue/epilogue regresses past the adjusted gate and falls back
    // wholesale, while the unidirectional loop keeps overlapping.
    let faulted = models.iter().find(|m| m.name == "GLaM_1T").unwrap_or(&models[0]);
    let spec = FaultSpec::seeded(SEED).with_straggler(0, 1.6).with_jitter(2e-4);
    boards.push(tune(faulted, Some(&spec), &options, sweep)?);
    Ok(Json::from(boards))
}

pub(super) fn table(j: &Json) -> String {
    let (options, pruned, total) = strategy_grid();
    let boards = items(j);
    let rows = boards.iter().map(|b| {
        let top = winner(b);
        vec![
            text(b, "config").to_string(),
            format!("{:.4}", num(b, "baseline_step_time")),
            format!("{:.4}", num(b, "paper_default_step_time")),
            format!("`{}` {}", text(top, "strategy"), text(top, "scheduler")),
            format!("{:.3}×", num(top, "speedup_vs_paper_default")),
        ]
    });
    let header = ["config", "baseline (s)", "paper default (s)", "winner", "vs paper default"];
    let wins = boards
        .iter()
        .filter(|b| num(winner(b), "step_time") < num(b, "paper_default_step_time"))
        .count();
    format!(
        "{} of {total} grid points scored, {pruned} pruned statically:\n\n{}\n\
         The tuned strategy beats the paper default on {wins} of {} configurations.\n",
        options.len(),
        md_table(&header, rows),
        boards.len(),
    )
}

/// A leaderboard's top row.
fn winner(board: &Json) -> &Json {
    &board["leaderboard"][0]
}
