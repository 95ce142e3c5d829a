//! What the driver in `run.rs` needs from a workload.

use std::ops::Range;
use std::path::PathBuf;

use crate::metrics::Metrics;
use crate::oracle::Checks;
use crate::trace::Tracer;

/// The inputs of one run.
pub struct Ctx {
    pub seed: u64,
    /// Ops in the run's sequence: the measured ones, plus in a traced
    /// run the untraced stretches that price the tracing.
    pub total_ops: usize,
    pub overlapd: Option<PathBuf>,
}

/// One timed stretch of ops.
pub struct Phase {
    /// One latency per op attempted, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Ops that errored, were shed, or whose output was wrong.
    pub failed: u64,
    /// Seconds the ops took: the sum of op times for a single driver
    /// thread (checks between ops are the harness's, not the op's), the
    /// wall clock of the stretch for concurrent connections.
    pub busy_s: f64,
    /// CPU the process under test used over the stretch.
    pub cpu_ms: f64,
}

impl Phase {
    pub fn empty() -> Self {
        Phase { latencies_ms: Vec::new(), failed: 0, busy_s: 0.0, cpu_ms: 0.0 }
    }

    /// Joins a later stretch of the same kind onto this one.
    pub fn absorb(&mut self, later: Phase) {
        self.latencies_ms.extend(later.latencies_ms);
        self.failed += later.failed;
        self.busy_s += later.busy_s;
        self.cpu_ms += later.cpu_ms;
    }

    /// Runs `op` for every index of `range` on this thread, one after the
    /// other. `op` returns the seconds its timed call took — what it does
    /// around that call is the harness's and is not counted — and whether
    /// the call's output passed its check.
    pub fn on_this_thread(
        range: Range<usize>,
        mut op: impl FnMut(usize) -> (f64, bool),
    ) -> Result<Phase, String> {
        let me = std::process::id();
        let cpu0 = crate::sys::cpu_ms(me)?;
        let mut phase = Phase::empty();
        for index in range {
            let (seconds, ok) = op(index);
            phase.busy_s += seconds;
            phase.latencies_ms.push(seconds * 1e3);
            phase.failed += u64::from(!ok);
        }
        phase.cpu_ms = crate::sys::cpu_ms(me)? - cpu0;
        Ok(phase)
    }

    /// Ops that completed and passed their check, per second.
    pub fn ops_per_s(&self) -> f64 {
        (self.latencies_ms.len() as u64 - self.failed) as f64 / self.busy_s
    }
}

pub trait Workload: Sized {
    /// Measured ops per second of `--seconds`: op counts are fixed by the
    /// command line, not by how fast the build under test is, so both
    /// sides of a comparison do the same work. Sized so that the timed
    /// stretch takes `--seconds` or less on a 2-core box.
    const OPS_PER_SECOND: usize;
    /// Op counts are rounded up to a multiple of this.
    const OPS_UNIT: usize = 4;
    /// Whether set-up starts an `overlapd`.
    const NEEDS_DAEMON: bool = false;

    /// Everything between process start and the first timed op: inputs,
    /// daemon, cache warm-up, the output oracle.
    fn setup(ctx: &Ctx, checks: &mut Checks, tracer: &mut Tracer) -> Result<Self, String>;

    /// Runs ops `range` of the run's sequence, closed loop. A traced run
    /// calls this several times, with the tracer on and off in turn.
    fn phase(&mut self, range: Range<usize>, tracer: &mut Tracer) -> Result<Phase, String>;

    /// Output checks too costly to make between ops; failures here are
    /// failures of ops already counted as attempted.
    fn verify(&mut self, checks: &mut Checks) -> Result<(), String>;

    /// Geometric mean, over the workload's distinct artifacts, of
    /// simulated baseline makespan ÷ simulated overlapped makespan.
    fn sim_step_speedup(&self) -> f64;

    /// The process whose CPU and memory the end-to-end metrics report.
    fn pid_under_test(&self) -> u32;

    /// Per-layer metrics only this workload's own ops can give.
    fn layer_metrics(&self, _out: &mut Metrics) {}
}
