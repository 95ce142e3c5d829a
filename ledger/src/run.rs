//! One run of one workload: calibrate, set up, time, check, report.

use std::path::PathBuf;
use std::time::Instant;

use crate::compile_cold::CompileCold;
use crate::layers;
use crate::metrics::{Metrics, PER_LAYER};
use crate::oracle::Checks;
use crate::serve::{ServeChurn, ServeHot};
use crate::stats;
use crate::sys;
use crate::tail_draws::TailDraws;
use crate::trace::Tracer;
use crate::workload::{Ctx, Phase, Workload};

/// Ops a run of `W` measures: its rate times `--seconds`, never too few
/// for a p99, rounded up to whole units.
fn ops_for<W: Workload>(seconds: u64) -> usize {
    let ops = (W::OPS_PER_SECOND * seconds as usize).max(stats::P99_MIN_SAMPLES);
    ops.div_ceil(W::OPS_UNIT) * W::OPS_UNIT
}

/// `setup_s` is the median of at least this many set-ups per run ...
const MIN_SETUPS: usize = 3;
/// ... and of more, while they are so short that three say little.
const MAX_SETUPS: usize = 9;
const SETUPS_UNTIL_S: f64 = 1.5;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    /// Record spans and the per-layer metrics.
    pub trace: bool,
    /// Where the Chrome trace goes (default: beside the executable).
    pub trace_file: Option<PathBuf>,
    pub overlapd: Option<String>,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric this run measured, end-to-end and per-layer alike.
    pub metrics: Metrics,
    pub notes: Vec<String>,
    pub trace_file: Option<PathBuf>,
    /// Traced runs: total self time per span name, in milliseconds.
    pub self_ms: Vec<(String, f64)>,
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "compile_cold" => drive::<CompileCold>(args),
        "tail_draws" => drive::<TailDraws>(args),
        "serve_hot" => drive::<ServeHot>(args),
        "serve_churn" => drive::<ServeChurn>(args),
        other => {
            Err(format!("unknown workload {other:?} (known: {})", crate::WORKLOADS.join(", ")))
        }
    }
}

fn drive<W: Workload>(args: &RunArgs) -> Result<RunResult, String> {
    let ops = ops_for::<W>(args.seconds);
    // A traced run also does a quarter as many ops untraced, in two
    // stretches between the traced ones, so that it can say what its own
    // tracing cost without charging it the warm-up of whichever came first.
    let untraced_stretch = if args.trace { ops / 8 } else { 0 };
    let overlapd = match W::NEEDS_DAEMON {
        true => Some(sys::locate_overlapd(args.overlapd.as_deref())?),
        false => None,
    };
    let ctx = Ctx { seed: args.seed, total_ops: ops + 2 * untraced_stretch, overlapd };
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(args.trace);
    let mut silent = Tracer::new(false);

    let calib_start = sys::calibrate();

    // Set-up, several times over; only the last one is kept, used, and
    // allowed to record spans and checks.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload = loop {
        let enough = setup_s.len() + 1 >= MIN_SETUPS
            && (setup_s.iter().sum::<f64>() >= SETUPS_UNTIL_S || setup_s.len() + 1 >= MAX_SETUPS);
        let t0 = Instant::now();
        let w = match enough {
            true => W::setup(&ctx, &mut checks, &mut tracer)?,
            false => W::setup(&ctx, &mut Checks::default(), &mut silent)?,
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        if enough {
            break w;
        }
        drop(w); // one daemon at a time
    };
    metrics.set("setup_s", stats::median(&setup_s));

    let (mut phase, mut untraced) = (Phase::empty(), Phase::empty());
    let mut next = 0;
    for (stretch, traced) in [
        (untraced_stretch, false),
        (ops / 2, true),
        (untraced_stretch, false),
        (ops - ops / 2, true),
    ] {
        if traced {
            phase.absorb(workload.phase(next..next + stretch, &mut tracer)?);
        } else if stretch > 0 {
            untraced.absorb(workload.phase(next..next + stretch, &mut silent)?);
        }
        next += stretch;
    }
    workload.verify(&mut checks)?;

    let attempted = phase.latencies_ms.len() as u64;
    metrics.set("ops_per_s", phase.ops_per_s());
    metrics.set("op_p50_ms", stats::median(&phase.latencies_ms));
    metrics.set("op_p99_ms", stats::p99(&phase.latencies_ms)?);
    metrics.set("cpu_ms_per_op", phase.cpu_ms / attempted as f64);
    metrics.set("peak_rss_mb", sys::peak_rss_mb(workload.pid_under_test())?);
    metrics.set("sim_step_speedup", workload.sim_step_speedup());

    if args.trace {
        layers::probe(&mut tracer, &mut checks, &mut metrics)?;
        workload.layer_metrics(&mut metrics);
        // Off the serve workloads nothing was asked of a daemon: what it
        // alone could report reads zero.
        for d in PER_LAYER.iter().filter(|d| d.name.starts_with("serve.")) {
            if metrics.get(d.name).is_none() {
                metrics.set(d.name, 0.0);
            }
        }
        metrics.set("trace.overhead_share", 1.0 - phase.ops_per_s() / untraced.ops_per_s());
    }
    drop(workload); // reap the daemon before the closing calibration

    let calib_end = sys::calibrate();
    metrics.set("machine.calib_ms", (calib_start + calib_end) / 2.0);
    metrics.set(
        "machine.calib_drift_share",
        (calib_end - calib_start).abs() / calib_start.min(calib_end),
    );
    metrics.set("machine.nproc", sys::nproc() as f64);

    let failed = phase.failed + checks.failed;
    let attempted = attempted + checks.attempted;
    metrics.set("ok_share", 1.0 - failed as f64 / attempted as f64);

    let trace_file = match args.trace {
        false => None,
        true => {
            let path = match &args.trace_file {
                Some(p) => p.clone(),
                None => sys::exe_dir()?
                    .join("ledger-traces")
                    .join(format!("{}-{}.json", args.workload, args.seed)),
            };
            tracer.write_chrome(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Some(path)
        }
    };
    let self_ms = tracer.self_ms_by_name();
    Ok(RunResult { attempted, failed, metrics, notes: checks.notes, trace_file, self_ms })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_enough_ops_for_a_p99() {
        fn check<W: Workload>() {
            for seconds in [1, 20, 60] {
                let ops = ops_for::<W>(seconds);
                assert!(ops >= stats::P99_MIN_SAMPLES && ops.is_multiple_of(W::OPS_UNIT), "{ops}");
            }
        }
        check::<CompileCold>();
        check::<TailDraws>();
        check::<ServeHot>();
        check::<ServeChurn>();
        // A quarter of serve_churn's ops are misses, an eighth of any
        // traced run's ops an untraced stretch.
        assert_eq!(ops_for::<ServeChurn>(20) % 8, 0);
    }
}
