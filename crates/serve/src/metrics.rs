//! Lock-free service metrics: counters plus the shared log-bucketed
//! latency histogram.
//!
//! The histogram itself lives in `overlap-sim` ([`Histogram`] is a
//! re-export) so the daemon's latency percentiles and the
//! distributional simulator's tail percentiles share one quantile rank
//! rule and can never drift; this module adds only the server-side
//! counters around it.

use std::sync::atomic::AtomicU64;
use std::time::Instant;

pub use overlap_sim::{Histogram, HistogramSummary};

use crate::protocol::LatencySummary;

impl From<HistogramSummary> for LatencySummary {
    fn from(s: HistogramSummary) -> Self {
        LatencySummary {
            count: s.count,
            p50_ms: s.p50_ms,
            p90_ms: s.p90_ms,
            p99_ms: s.p99_ms,
            max_ms: s.max_ms,
        }
    }
}

/// All server-side counters, shared across workers and the acceptor.
pub struct ServerMetrics {
    start: Instant,
    /// Frames successfully decoded into requests.
    pub requests: AtomicU64,
    /// Requests answered with a success response.
    pub ok: AtomicU64,
    /// Requests answered with a typed error.
    pub errors: AtomicU64,
    /// Requests or connections shed under backpressure.
    pub shed: AtomicU64,
    /// Compile requests that joined an in-flight batch instead of
    /// dispatching their own job.
    pub coalesced: AtomicU64,
    /// Compile jobs dispatched to the pool.
    pub batches: AtomicU64,
    /// Compile requests answered on the loop thread from a finished
    /// job's result: memory hits that reached neither the pool nor the
    /// `ArtifactCache`'s own counters.
    pub loop_hits: AtomicU64,
    /// Requests that arrived while their connection already had a
    /// request in flight.
    pub pipelined: AtomicU64,
    /// Cache-peering `fetch` frames this node answered.
    pub fetches: AtomicU64,
    /// Outbound peer-fetch attempts this node made on local misses.
    pub peer_fetches: AtomicU64,
    /// Queue+service latency of every answered request.
    pub latency: Histogram,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Fresh counters; uptime starts now.
    #[must_use]
    pub fn new() -> Self {
        ServerMetrics {
            start: Instant::now(),
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            loop_hits: AtomicU64::new(0),
            pipelined: AtomicU64::new(0),
            fetches: AtomicU64::new(0),
            peer_fetches: AtomicU64::new(0),
            latency: Histogram::new(),
        }
    }

    /// Milliseconds since construction.
    #[must_use]
    pub fn uptime_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Requests per second over the whole uptime.
    #[must_use]
    pub fn qps(&self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.requests.load(std::sync::atomic::Ordering::Relaxed) as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_summary_converts_to_wire_summary() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(1.0);
        }
        h.record(1000.0);
        let s: LatencySummary = h.summary().into();
        assert_eq!(s.count, 100);
        assert!((1.0..=1.3).contains(&s.p50_ms), "p50 {}", s.p50_ms);
        assert!(s.p99_ms < 2.0);
        assert_eq!(s.max_ms, 1000.0);
    }
}
