//! Simulation reports and timeline rendering.

use overlap_json::{json_enum, json_record, Json};

/// Which lane of the device a span occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Compute-bound work (einsum, fusion) on the compute stream.
    Compute,
    /// Memory-bound work on the compute stream.
    Memory,
    /// A blocking collective on the compute stream.
    SyncCollective,
    /// An asynchronous transfer on the forward DMA stream.
    DmaForward,
    /// An asynchronous transfer on the backward DMA stream.
    DmaBackward,
    /// Compute-stream stall waiting for an asynchronous transfer.
    Stall,
}

/// One timed interval in the simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Instruction (or group) name.
    pub name: String,
    /// Lane the span occupied.
    pub kind: SpanKind,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// All spans of a simulated execution, renderable as ASCII art.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// The spans in issue order.
    pub spans: Vec<Span>,
}

impl Timeline {
    /// Renders the timeline as three ASCII lanes (`compute`, `dma+`,
    /// `dma-`) of the given character width.
    ///
    /// Compute and memory spans render as `#`, sync collectives as `%`,
    /// stalls as `.`, DMA transfers as `=`.
    #[must_use]
    pub fn render(&self, width: usize) -> String {
        let makespan = self.spans.iter().map(|s| s.end).fold(0.0, f64::max);
        if makespan <= 0.0 || width == 0 {
            return String::from("(empty timeline)");
        }
        let mut lanes = vec![vec![' '; width]; 3];
        for span in &self.spans {
            let (lane, ch) = match span.kind {
                SpanKind::Compute | SpanKind::Memory => (0, '#'),
                SpanKind::SyncCollective => (0, '%'),
                SpanKind::Stall => (0, '.'),
                SpanKind::DmaForward => (1, '='),
                SpanKind::DmaBackward => (2, '='),
            };
            let s = ((span.start / makespan) * width as f64).floor() as usize;
            let e = (((span.end / makespan) * width as f64).ceil() as usize).min(width);
            for c in &mut lanes[lane][s.min(width.saturating_sub(1))..e] {
                *c = ch;
            }
        }
        let names = ["compute", "dma+   ", "dma-   "];
        lanes
            .iter()
            .zip(names)
            .map(|(lane, name)| format!("{name} |{}|", lane.iter().collect::<String>()))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Sums stall time by instruction-name prefix (the text before the
    /// first `'.'`), which for decomposed loops groups exposure by the
    /// originating einsum — the per-loop "how much communication stayed
    /// visible" diagnostic.
    ///
    /// # Example
    ///
    /// ```
    /// use overlap_sim::{Span, SpanKind, Timeline};
    /// let t = Timeline { spans: vec![
    ///     Span { name: "qkv.cp.done".into(), kind: SpanKind::Stall, start: 0.0, end: 1.0 },
    ///     Span { name: "qkv.cp.2.done".into(), kind: SpanKind::Stall, start: 2.0, end: 3.0 },
    ///     Span { name: "mlp.cp.done".into(), kind: SpanKind::Stall, start: 4.0, end: 4.5 },
    /// ]};
    /// let summary = t.stall_summary();
    /// assert_eq!(summary, vec![
    ///     ("qkv".to_string(), 2.0),
    ///     ("mlp".to_string(), 0.5),
    /// ]);
    /// ```
    #[must_use]
    pub fn stall_summary(&self) -> Vec<(String, f64)> {
        let mut order: Vec<String> = Vec::new();
        let mut totals: std::collections::HashMap<String, f64> =
            std::collections::HashMap::new();
        for s in &self.spans {
            if s.kind != SpanKind::Stall {
                continue;
            }
            let prefix = s.name.split('.').next().unwrap_or(&s.name).to_string();
            if !totals.contains_key(&prefix) {
                order.push(prefix.clone());
            }
            *totals.entry(prefix).or_insert(0.0) += s.duration();
        }
        order
            .into_iter()
            .map(|p| {
                let t = totals[&p];
                (p, t)
            })
            .collect()
    }

    /// Exports the timeline as a Chrome-tracing / Perfetto JSON array
    /// (`chrome://tracing` or <https://ui.perfetto.dev> can open it).
    /// Each span becomes a complete event (`ph: "X"`) with microsecond
    /// timestamps; the three lanes map to thread ids 0 (compute),
    /// 1 (dma+) and 2 (dma-), stalls to thread 3.
    ///
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let tid = match s.kind {
                    SpanKind::Compute | SpanKind::Memory | SpanKind::SyncCollective => 0u64,
                    SpanKind::DmaForward => 1,
                    SpanKind::DmaBackward => 2,
                    SpanKind::Stall => 3,
                };
                Json::obj()
                    .with("name", Json::from(s.name.as_str()))
                    .with("cat", Json::from(format!("{:?}", s.kind)))
                    .with("ph", Json::from("X"))
                    .with("ts", Json::from(s.start * 1e6))
                    .with("dur", Json::from((s.end - s.start) * 1e6))
                    .with("pid", Json::from(0u64))
                    .with("tid", Json::from(tid))
            })
            .collect();
        Json::Arr(events).to_string()
    }
}

json_enum!(encode SpanKind {
    Compute = "Compute",
    Memory = "Memory",
    SyncCollective = "SyncCollective",
    DmaForward = "DmaForward",
    DmaBackward = "DmaBackward",
    Stall = "Stall",
});

json_record!(encode Span { name, kind, start, end });

json_record!(encode Timeline { spans });

// `fault` is emitted only when a fault actually charged time, so
// fault-free reports (and every pre-existing figure artifact) keep their
// exact byte layout.
json_record!(encode Report {
    makespan,
    compute_time,
    memory_time,
    sync_comm_time,
    exposed_async_time,
    hidden_async_time,
    total_flops,
    timeline,
    fault [skip_if = FaultAttribution::is_zero],
});

/// Where a degraded run lost time relative to the pristine machine,
/// accumulated by the engine's fault path (all zero on fault-free runs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultAttribution {
    /// Extra compute/memory time charged by straggler chips, seconds.
    pub straggler_seconds: f64,
    /// Extra wire time from derated links, detours around down links and
    /// per-hop jitter (sync collectives included), seconds.
    pub link_seconds: f64,
    /// Time spent backing off in DMA stall retries, seconds.
    pub stall_seconds: f64,
    /// Number of DMA stall retries taken.
    pub stall_retries: u64,
}

impl FaultAttribution {
    /// True when no fault charged any time (the fault-free case).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == FaultAttribution::default()
    }

    /// Total time lost to faults, seconds.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.straggler_seconds + self.link_seconds + self.stall_seconds
    }
}

json_record!(encode FaultAttribution {
    straggler_seconds,
    link_seconds,
    stall_seconds,
    stall_retries,
});

/// Outcome of a simulation: the makespan, the Fig.-1-style time breakdown
/// and the FLOPS bookkeeping, plus the full [`Timeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    makespan: f64,
    compute_time: f64,
    memory_time: f64,
    sync_comm_time: f64,
    exposed_async_time: f64,
    hidden_async_time: f64,
    total_flops: u64,
    timeline: Timeline,
    /// Fault attribution; stays at its (all-zero) default on fault-free
    /// runs so serialized fault-free reports are unchanged.
    fault: FaultAttribution,
}

impl Report {
    #[allow(clippy::too_many_arguments)] // internal constructor mirroring the accumulated counters
    pub(crate) fn new(
        makespan: f64,
        compute_time: f64,
        memory_time: f64,
        sync_comm_time: f64,
        exposed_async_time: f64,
        hidden_async_time: f64,
        total_flops: u64,
        timeline: Timeline,
    ) -> Self {
        Report {
            makespan,
            compute_time,
            memory_time,
            sync_comm_time,
            exposed_async_time,
            hidden_async_time,
            total_flops,
            timeline,
            fault: FaultAttribution::default(),
        }
    }

    /// Installs the fault attribution accumulated by the engine's fault
    /// path (fault-free runs leave the all-zero default in place).
    pub(crate) fn set_fault_attribution(&mut self, fault: FaultAttribution) {
        self.fault = fault;
    }

    /// Folds another report into this one (for repeated executions):
    /// counters add, makespans take the max, and `other`'s spans move to
    /// the end of this timeline without re-copying the accumulated
    /// prefix.
    pub(crate) fn absorb(&mut self, other: Report) {
        self.makespan = self.makespan.max(other.makespan);
        self.compute_time += other.compute_time;
        self.memory_time += other.memory_time;
        self.sync_comm_time += other.sync_comm_time;
        self.exposed_async_time += other.exposed_async_time;
        self.hidden_async_time += other.hidden_async_time;
        self.total_flops += other.total_flops;
        self.timeline.spans.extend(other.timeline.spans);
        self.fault.straggler_seconds += other.fault.straggler_seconds;
        self.fault.link_seconds += other.fault.link_seconds;
        self.fault.stall_seconds += other.fault.stall_seconds;
        self.fault.stall_retries += other.fault.stall_retries;
    }

    /// End-to-end simulated time, seconds.
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Compute-stream time spent in compute-bound work.
    #[must_use]
    pub fn compute_time(&self) -> f64 {
        self.compute_time
    }

    /// Compute-stream time spent in memory-bound work.
    #[must_use]
    pub fn memory_time(&self) -> f64 {
        self.memory_time
    }

    /// Compute-stream time blocked inside synchronous collectives.
    #[must_use]
    pub fn sync_comm_time(&self) -> f64 {
        self.sync_comm_time
    }

    /// Compute-stream stall waiting on asynchronous transfers (the
    /// *exposed* communication the overlap failed to hide).
    #[must_use]
    pub fn exposed_async_time(&self) -> f64 {
        self.exposed_async_time
    }

    /// Asynchronous transfer time that ran concurrently with compute (the
    /// *hidden* communication).
    #[must_use]
    pub fn hidden_async_time(&self) -> f64 {
        self.hidden_async_time
    }

    /// Total communication time visible to the compute stream
    /// (synchronous collectives + exposed asynchronous stalls).
    #[must_use]
    pub fn comm_time(&self) -> f64 {
        self.sync_comm_time + self.exposed_async_time
    }

    /// Fraction of the makespan spent on visible communication — the
    /// Fig. 1 "communication" bar.
    #[must_use]
    pub fn comm_fraction(&self) -> f64 {
        if self.makespan == 0.0 {
            0.0
        } else {
            self.comm_time() / self.makespan
        }
    }

    /// Total einsum FLOPs executed (per device).
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.total_flops
    }

    /// Achieved fraction of `peak_flops` (the y-axis of Figs. 12/13).
    #[must_use]
    pub fn flops_utilization(&self, peak_flops: f64) -> f64 {
        if self.makespan == 0.0 {
            0.0
        } else {
            self.total_flops as f64 / (self.makespan * peak_flops)
        }
    }

    /// The recorded execution timeline.
    #[must_use]
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Time lost to injected faults, by cause (all zero on fault-free
    /// runs).
    #[must_use]
    pub fn fault_attribution(&self) -> &FaultAttribution {
        &self.fault
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use overlap_json::ToJson;

    fn span(kind: SpanKind, start: f64, end: f64) -> Span {
        Span { name: "s".into(), kind, start, end }
    }

    #[test]
    fn report_fractions() {
        let r = Report::new(10.0, 6.0, 1.0, 2.0, 1.0, 3.0, 1000, Timeline::default());
        assert_eq!(r.comm_time(), 3.0);
        assert!((r.comm_fraction() - 0.3).abs() < 1e-12);
        assert!((r.flops_utilization(100.0) - 1.0).abs() < 1e-12);
        assert_eq!(r.hidden_async_time(), 3.0);
    }

    #[test]
    fn zero_makespan_is_safe() {
        let r = Report::new(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, Timeline::default());
        assert_eq!(r.comm_fraction(), 0.0);
        assert_eq!(r.flops_utilization(1.0), 0.0);
    }

    #[test]
    fn timeline_renders_lanes() {
        let t = Timeline {
            spans: vec![
                span(SpanKind::Compute, 0.0, 5.0),
                span(SpanKind::DmaForward, 0.0, 4.0),
                span(SpanKind::DmaBackward, 4.0, 8.0),
                span(SpanKind::Stall, 5.0, 8.0),
            ],
        };
        let text = t.render(40);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('#'));
        assert!(lines[0].contains('.'));
        assert!(lines[1].contains('='));
        assert!(lines[2].contains('='));
    }

    #[test]
    fn empty_timeline_renders_placeholder() {
        assert_eq!(Timeline::default().render(10), "(empty timeline)");
    }

    #[test]
    fn span_duration() {
        assert_eq!(span(SpanKind::Compute, 1.0, 3.5).duration(), 2.5);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_lanes() {
        let t = Timeline {
            spans: vec![
                span(SpanKind::Compute, 0.0, 1e-3),
                span(SpanKind::DmaForward, 0.0, 2e-3),
                span(SpanKind::Stall, 1e-3, 2e-3),
            ],
        };
        let json = t.to_chrome_trace();
        let parsed = Json::parse(&json).unwrap();
        let events = parsed.as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0]["tid"].as_u64(), Some(0));
        assert_eq!(events[1]["tid"].as_u64(), Some(1));
        assert_eq!(events[2]["tid"].as_u64(), Some(3));
        assert_eq!(events[0]["ph"].as_str(), Some("X"));
        assert!((events[1]["dur"].as_f64().unwrap() - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn fault_attribution_serializes_only_when_nonzero() {
        let mut r = Report::new(10.0, 6.0, 1.0, 2.0, 1.0, 3.0, 1000, Timeline::default());
        assert!(r.fault_attribution().is_zero());
        assert!(!r.to_json().to_string().contains("fault"));
        let attr = FaultAttribution {
            straggler_seconds: 1.0,
            link_seconds: 0.5,
            stall_seconds: 0.25,
            stall_retries: 3,
        };
        r.set_fault_attribution(attr);
        assert!((r.fault_attribution().total_seconds() - 1.75).abs() < 1e-12);
        let v = r.to_json();
        assert_eq!(v["fault"]["straggler_seconds"].as_f64(), Some(1.0));
        assert_eq!(v["fault"]["stall_retries"].as_u64(), Some(3));
        // absorb() adds attribution across repetitions.
        let mut other = Report::new(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, Timeline::default());
        other.set_fault_attribution(attr);
        r.absorb(other);
        assert_eq!(r.fault_attribution().stall_retries, 6);
        assert!((r.fault_attribution().link_seconds - 1.0).abs() < 1e-12);
    }

    #[test]
    fn report_json_carries_every_counter() {
        let r = Report::new(10.0, 6.0, 1.0, 2.0, 1.0, 3.0, 1000, Timeline::default());
        let v = r.to_json();
        assert_eq!(v["makespan"].as_f64(), Some(10.0));
        assert_eq!(v["total_flops"].as_u64(), Some(1000));
        assert!(v["timeline"]["spans"].as_array().unwrap().is_empty());
        assert!(v.to_string().contains("makespan"));
    }
}
