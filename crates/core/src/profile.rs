//! Pass-level wall-time profiling for the compilation pipeline.
//!
//! Every [`OverlapPipeline::run`](crate::OverlapPipeline::run) records how
//! long each pass took into a [`PhaseTimings`]; the benchmark (`ledger/`)
//! reports them as its `core.pass.*_ms` per-layer metrics, so a
//! compile-time regression names its pass.

/// One timed pipeline pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Pass name (e.g. `"decompose"`, `"schedule"`).
    pub phase: String,
    /// Wall-clock seconds spent in the pass.
    pub seconds: f64,
}

/// Ordered per-pass wall times for one pipeline run.
///
/// Phases appear in execution order; a phase that did not run (e.g.
/// `split_all_reduces` when disabled) is simply absent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseTimings {
    pub(crate) phases: Vec<PhaseTiming>,
}

impl PhaseTimings {
    /// An empty record.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a phase measurement.
    pub fn record(&mut self, phase: &str, seconds: f64) {
        self.phases.push(PhaseTiming { phase: phase.to_string(), seconds });
    }

    /// Runs `f`, recording its wall time under `phase`.
    pub fn time<T>(&mut self, phase: &str, f: impl FnOnce() -> T) -> T {
        let t0 = std::time::Instant::now();
        let out = f();
        self.record(phase, t0.elapsed().as_secs_f64());
        out
    }

    /// The recorded phases, in execution order.
    #[must_use]
    pub fn phases(&self) -> &[PhaseTiming] {
        &self.phases
    }

    /// Seconds recorded for `phase` (summed if recorded more than once).
    #[must_use]
    pub fn seconds_of(&self, phase: &str) -> f64 {
        self.phases.iter().filter(|p| p.phase == phase).map(|p| p.seconds).sum()
    }

    /// Total wall time across all recorded phases.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_sums() {
        let mut t = PhaseTimings::new();
        let v = t.time("a", || 41 + 1);
        assert_eq!(v, 42);
        t.record("b", 1.5);
        t.record("a", 0.25);
        assert_eq!(t.phases().len(), 3);
        assert_eq!(t.phases()[0].phase, "a");
        assert_eq!(t.seconds_of("b"), 1.5);
        assert!(t.seconds_of("a") >= 0.25);
        assert!(t.total_seconds() >= 1.75);
        assert_eq!(t.seconds_of("missing"), 0.0);
    }
}
