//! The structured serve event bus: typed progress events with
//! pluggable observers.
//!
//! Every step of a request's life — accept, admit, batch coalesce,
//! compile start/finish, cache outcome, shed, drain — is published as
//! one [`ServeEvent`] wrapped in an [`EventRecord`] (monotone sequence
//! number + milliseconds since the bus was built). Observers are
//! `Arc<dyn EventObserver>`; the bus fans each record out to all of
//! them synchronously, so an observer must be cheap (counter bumps,
//! buffered writes) and must never block on the emitting thread.
//!
//! Shipped observers:
//!
//! * [`MetricsObserver`] — the PR-5 histogram/counter metrics,
//!   re-expressed as a bus subscriber instead of ad-hoc calls strewn
//!   through the server.
//! * [`ChromeTraceObserver`] — compile and request spans as a
//!   `chrome://tracing` / Perfetto JSON array.
//! * [`RecordObserver`] — the full stream as JSON lines
//!   (`overlapd --record FILE`); [`parse_records`] reads it back and
//!   [`DecisionSummary`] projects it to the deterministic decisions
//!   (cache outcomes, sheds, coalesces) for record/replay assertions.
//! * [`CollectObserver`] — an in-memory `Vec<EventRecord>` for tests.
//! * [`SubscriptionHub`] — fan-out to live `subscribe` connections:
//!   each event is encoded once as a `Response::Event` frame and
//!   queued per subscriber; the event loop drains the queues into the
//!   matching connections' write buffers.
//!
//! The wire/file schema is one object per record:
//! `{"seq": N, "t_ms": T, "event": {"type": "<kind>", ...fields}}` —
//! documented field-by-field in DESIGN.md §Service layer.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use overlap_json::{json_record, FromJson, Json, ToJson};

use crate::metrics::ServerMetrics;

/// One typed step in the life of the server. `conn` and `req` are the
/// server's own monotone identifiers (first connection is 1; request
/// ids are global, not per-connection).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// A connection was accepted into the event loop.
    Accept {
        /// Connection id.
        conn: u64,
    },
    /// A frame decoded into a request and entered service.
    Admit {
        /// Connection id.
        conn: u64,
        /// Request id.
        req: u64,
        /// Request kind (`compile`, `ping`, `stats`, `shutdown`,
        /// `subscribe`).
        kind: String,
        /// Whether the connection already had at least one request in
        /// flight when this one arrived, or this frame was read from
        /// the socket behind another (wire pipelining observed).
        pipelined: bool,
    },
    /// A compile request joined an already in-flight batch with the
    /// same `(module, machine, options, faults)` fingerprint instead
    /// of dispatching its own job.
    BatchCoalesce {
        /// Connection id of the joining request.
        conn: u64,
        /// Request id of the joining request.
        req: u64,
        /// Batch key (hex fingerprint).
        batch: String,
    },
    /// A compile job left the dispatch queue and started executing on
    /// a pool worker.
    CompileStart {
        /// Batch key (hex fingerprint).
        batch: String,
        /// Model label of the batch's representative request.
        model: String,
    },
    /// A compile job finished (successfully or not).
    CompileFinish {
        /// Batch key (hex fingerprint).
        batch: String,
        /// Model label of the batch's representative request.
        model: String,
        /// Wall-clock the pool worker spent executing.
        compile_ms: f64,
        /// `memory`, `disk`, `compiled`, or `error`.
        outcome: String,
    },
    /// Cache provenance of one answered compile request (`memory`,
    /// `disk`, `compiled`, or `coalesced` for batch followers).
    CacheOutcome {
        /// Connection id.
        conn: u64,
        /// Request id.
        req: u64,
        /// The provenance string, exactly as `ServedInfo::source`.
        source: String,
    },
    /// Load was refused with a typed `overloaded` answer.
    Shed {
        /// Connection id (0 when the connection was shed at accept,
        /// before it was assigned an id).
        conn: u64,
        /// `connection` (shed at accept) or `request` (dispatch queue
        /// full).
        scope: String,
    },
    /// One request was fully answered; phase timings in milliseconds.
    Done {
        /// Connection id.
        conn: u64,
        /// Request id.
        req: u64,
        /// Request kind, as in [`ServeEvent::Admit`].
        kind: String,
        /// Whether the answer was a success response.
        ok: bool,
        /// Decode-to-dispatch wait (admission + dispatch queue).
        queue_ms: f64,
        /// Pool execution time (0 for inline requests; the index
        /// lookup for a compile answered from a finished job).
        compile_ms: f64,
        /// Response encoding time.
        serialize_ms: f64,
    },
    /// The server began draining.
    Drain {
        /// `signal`, `shutdown-request`, or `listener-error`.
        reason: String,
    },
    /// A connection left the event loop.
    Close {
        /// Connection id.
        conn: u64,
    },
    /// A cache-peering `fetch` frame was answered.
    Fetch {
        /// Connection id.
        conn: u64,
        /// Request id.
        req: u64,
        /// Hex artifact key asked for.
        key: String,
        /// Whether a local entry was shipped back.
        hit: bool,
    },
    /// One outbound peer-fetch attempt this node made on a local miss.
    PeerFetch {
        /// Peer node id.
        node: String,
        /// Hex artifact key asked for.
        key: String,
        /// `hit`, `absent` (peer answered but holds no entry),
        /// `rejected` (entry failed revalidation), or `unreachable`.
        outcome: String,
    },
    /// A peer's health state changed in this node's (or the router's)
    /// failure tracker.
    PeerState {
        /// Peer node id.
        node: String,
        /// `alive`, `probation`, or `ejected`.
        state: String,
    },
}

impl ServeEvent {
    /// The stable `type` tag.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ServeEvent::Accept { .. } => "accept",
            ServeEvent::Admit { .. } => "admit",
            ServeEvent::BatchCoalesce { .. } => "batch-coalesce",
            ServeEvent::CompileStart { .. } => "compile-start",
            ServeEvent::CompileFinish { .. } => "compile-finish",
            ServeEvent::CacheOutcome { .. } => "cache-outcome",
            ServeEvent::Shed { .. } => "shed",
            ServeEvent::Done { .. } => "done",
            ServeEvent::Drain { .. } => "drain",
            ServeEvent::Close { .. } => "close",
            ServeEvent::Fetch { .. } => "fetch",
            ServeEvent::PeerFetch { .. } => "peer-fetch",
            ServeEvent::PeerState { .. } => "peer-state",
        }
    }
}

// Hand-written: dispatch on the `type` tag, one flat record per variant.
impl ToJson for ServeEvent {
    fn to_json(&self) -> Json {
        let tag = self.kind();
        match self {
            ServeEvent::Accept { conn } | ServeEvent::Close { conn } => {
                json_record!(fields ["type" = tag] { conn })
            }
            ServeEvent::Admit { conn, req, kind, pipelined } => {
                json_record!(fields ["type" = tag] { conn, req, kind, pipelined })
            }
            ServeEvent::BatchCoalesce { conn, req, batch } => {
                json_record!(fields ["type" = tag] { conn, req, batch })
            }
            ServeEvent::CompileStart { batch, model } => {
                json_record!(fields ["type" = tag] { batch, model })
            }
            ServeEvent::CompileFinish { batch, model, compile_ms, outcome } => {
                json_record!(fields ["type" = tag] { batch, model, compile_ms, outcome })
            }
            ServeEvent::CacheOutcome { conn, req, source } => {
                json_record!(fields ["type" = tag] { conn, req, source })
            }
            ServeEvent::Shed { conn, scope } => json_record!(fields ["type" = tag] { conn, scope }),
            ServeEvent::Done { conn, req, kind, ok, queue_ms, compile_ms, serialize_ms } => {
                json_record!(fields ["type" = tag] {
                    conn, req, kind, ok, queue_ms, compile_ms, serialize_ms
                })
            }
            ServeEvent::Drain { reason } => json_record!(fields ["type" = tag] { reason }),
            ServeEvent::Fetch { conn, req, key, hit } => {
                json_record!(fields ["type" = tag] { conn, req, key, hit })
            }
            ServeEvent::PeerFetch { node, key, outcome } => {
                json_record!(fields ["type" = tag] { node, key, outcome })
            }
            ServeEvent::PeerState { node, state } => {
                json_record!(fields ["type" = tag] { node, state })
            }
        }
    }
}

impl FromJson for ServeEvent {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(match v.decode_field::<String>("type")?.as_str() {
            "accept" => json_record!(from v => ServeEvent::Accept { conn }),
            "close" => json_record!(from v => ServeEvent::Close { conn }),
            "admit" => json_record!(from v => ServeEvent::Admit { conn, req, kind, pipelined }),
            "batch-coalesce" => {
                json_record!(from v => ServeEvent::BatchCoalesce { conn, req, batch })
            }
            "compile-start" => json_record!(from v => ServeEvent::CompileStart { batch, model }),
            "compile-finish" => json_record!(
                from v => ServeEvent::CompileFinish { batch, model, compile_ms, outcome }
            ),
            "cache-outcome" => {
                json_record!(from v => ServeEvent::CacheOutcome { conn, req, source })
            }
            "shed" => json_record!(from v => ServeEvent::Shed { conn, scope }),
            "done" => json_record!(from v => ServeEvent::Done {
                conn, req, kind, ok, queue_ms, compile_ms, serialize_ms
            }),
            "drain" => json_record!(from v => ServeEvent::Drain { reason }),
            "fetch" => json_record!(from v => ServeEvent::Fetch { conn, req, key, hit }),
            "peer-fetch" => json_record!(from v => ServeEvent::PeerFetch { node, key, outcome }),
            "peer-state" => json_record!(from v => ServeEvent::PeerState { node, state }),
            other => return Err(format!("unknown serve event type {other:?}")),
        })
    }
}

/// A [`ServeEvent`] stamped by the bus.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Monotone per-bus sequence number, starting at 1.
    pub seq: u64,
    /// Milliseconds since the bus was built. Wall-clock flavored;
    /// *not* part of any determinism contract (see
    /// [`DecisionSummary`]).
    pub t_ms: f64,
    /// The typed event.
    pub event: ServeEvent,
}

json_record!(EventRecord { seq, t_ms, event });

/// Something that watches the event stream. Called synchronously from
/// the emitting thread (event loop or a pool worker) — implementations
/// must be cheap and lock briefly, if at all.
pub trait EventObserver: Send + Sync {
    /// One stamped event.
    fn on_event(&self, record: &EventRecord);
}

/// The bus: a sequence stamp, a clock, and a fan-out list.
pub struct EventBus {
    observers: Vec<Arc<dyn EventObserver>>,
    seq: AtomicU64,
    start: Instant,
}

impl EventBus {
    /// A bus with the given observers (fixed for the bus's lifetime —
    /// fan-out is lock-free).
    #[must_use]
    pub fn new(observers: Vec<Arc<dyn EventObserver>>) -> EventBus {
        EventBus { observers, seq: AtomicU64::new(0), start: Instant::now() }
    }

    /// Stamps and publishes one event to every observer.
    pub fn emit(&self, event: ServeEvent) {
        let record = EventRecord {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            t_ms: self.start.elapsed().as_secs_f64() * 1e3,
            event,
        };
        for obs in &self.observers {
            obs.on_event(&record);
        }
    }

    /// Events emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Observers
// ---------------------------------------------------------------------------

/// The PR-5 counters and latency histogram, fed from the bus: `Admit`
/// counts requests (and pipelined arrivals), `Done` records ok/error
/// and the queue+compile+serialize latency, `Shed`/`BatchCoalesce`/
/// `CompileStart` bump their counters.
pub struct MetricsObserver(pub Arc<ServerMetrics>);

impl EventObserver for MetricsObserver {
    fn on_event(&self, record: &EventRecord) {
        let m = &self.0;
        match &record.event {
            ServeEvent::Admit { pipelined, .. } => {
                m.requests.fetch_add(1, Ordering::Relaxed);
                if *pipelined {
                    m.pipelined.fetch_add(1, Ordering::Relaxed);
                }
            }
            ServeEvent::Done { ok, queue_ms, compile_ms, serialize_ms, .. } => {
                if *ok {
                    m.ok.fetch_add(1, Ordering::Relaxed);
                } else {
                    m.errors.fetch_add(1, Ordering::Relaxed);
                }
                m.latency.record(queue_ms + compile_ms + serialize_ms);
            }
            ServeEvent::Shed { .. } => {
                m.shed.fetch_add(1, Ordering::Relaxed);
            }
            ServeEvent::BatchCoalesce { .. } => {
                m.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            ServeEvent::CompileStart { .. } => {
                m.batches.fetch_add(1, Ordering::Relaxed);
            }
            ServeEvent::Fetch { .. } => {
                m.fetches.fetch_add(1, Ordering::Relaxed);
            }
            ServeEvent::PeerFetch { .. } => {
                m.peer_fetches.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// Collects every record in memory; the test observer.
#[derive(Default)]
pub struct CollectObserver(pub Mutex<Vec<EventRecord>>);

impl CollectObserver {
    /// A snapshot of everything observed so far.
    ///
    /// # Panics
    ///
    /// Panics if a previous observer call panicked holding the lock.
    #[must_use]
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.0.lock().expect("collect observer lock").clone()
    }
}

impl EventObserver for CollectObserver {
    fn on_event(&self, record: &EventRecord) {
        self.0.lock().expect("collect observer lock").push(record.clone());
    }
}

/// Streams every record as one compact JSON line (the
/// `overlapd --record FILE` format). Lines flush on `Drain` and on
/// drop, so a SIGTERM'd daemon leaves a complete stream behind.
pub struct RecordObserver {
    out: Mutex<Box<dyn Write + Send>>,
}

impl RecordObserver {
    /// Records into any line sink.
    #[must_use]
    pub fn new(sink: Box<dyn Write + Send>) -> RecordObserver {
        RecordObserver { out: Mutex::new(sink) }
    }

    /// Records into a (buffered) file.
    ///
    /// # Errors
    ///
    /// Returns the file-creation failure.
    pub fn to_file(path: &str) -> std::io::Result<RecordObserver> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(file))))
    }
}

impl EventObserver for RecordObserver {
    fn on_event(&self, record: &EventRecord) {
        let line = record.to_json().to_string();
        let mut out = self.out.lock().expect("record observer lock");
        let _ = writeln!(out, "{line}");
        if matches!(record.event, ServeEvent::Drain { .. }) {
            let _ = out.flush();
        }
    }
}

impl Drop for RecordObserver {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

/// Compile jobs and answered requests as complete (`"ph": "X"`) spans
/// in the Chrome tracing JSON-array format — load the file in
/// `chrome://tracing` or Perfetto. Written on drain and on drop.
pub struct ChromeTraceObserver {
    path: String,
    spans: Mutex<Vec<Json>>,
}

impl ChromeTraceObserver {
    /// Traces into `path` (written when the server drains).
    #[must_use]
    pub fn new(path: impl Into<String>) -> ChromeTraceObserver {
        ChromeTraceObserver { path: path.into(), spans: Mutex::new(Vec::new()) }
    }

    fn span(name: &str, tid: u64, end_ms: f64, dur_ms: f64, args: Json) -> Json {
        Json::obj()
            .with("name", name)
            .with("ph", "X")
            .with("pid", 1u64)
            .with("tid", tid)
            .with("ts", (end_ms - dur_ms).max(0.0) * 1e3)
            .with("dur", dur_ms.max(0.0) * 1e3)
            .with("args", args)
    }

    fn write_out(&self) {
        let spans = self.spans.lock().expect("trace observer lock");
        let body = Json::Arr(spans.clone()).to_string();
        drop(spans);
        if let Err(e) = std::fs::write(&self.path, body) {
            eprintln!("overlap-serve: cannot write chrome trace {}: {e}", self.path);
        }
    }
}

impl EventObserver for ChromeTraceObserver {
    fn on_event(&self, record: &EventRecord) {
        match &record.event {
            ServeEvent::CompileFinish { batch, model, compile_ms, outcome } => {
                let span = Self::span(
                    &format!("compile {model}"),
                    0,
                    record.t_ms,
                    *compile_ms,
                    Json::obj()
                        .with("batch", batch.as_str())
                        .with("outcome", outcome.as_str()),
                );
                self.spans.lock().expect("trace observer lock").push(span);
            }
            ServeEvent::Done { conn, req, kind, queue_ms, compile_ms, serialize_ms, .. } => {
                let total = queue_ms + compile_ms + serialize_ms;
                let span = Self::span(
                    &format!("request {kind}"),
                    *conn,
                    record.t_ms,
                    total,
                    Json::obj()
                        .with("req", *req)
                        .with("queue_ms", *queue_ms)
                        .with("compile_ms", *compile_ms)
                        .with("serialize_ms", *serialize_ms),
                );
                self.spans.lock().expect("trace observer lock").push(span);
            }
            ServeEvent::Drain { .. } => self.write_out(),
            _ => {}
        }
    }
}

impl Drop for ChromeTraceObserver {
    fn drop(&mut self) {
        self.write_out();
    }
}

/// Fan-out to live protocol subscribers. The observer side encodes
/// each record once as a `{"response":"event",...}` frame payload and
/// queues it per subscriber; the event loop side drains the queues
/// into the matching connections' write buffers each tick (the loop
/// wakes at least every poll timeout, bounding staleness).
#[derive(Default)]
pub struct SubscriptionHub {
    queues: Mutex<HashMap<u64, Vec<String>>>,
}

impl SubscriptionHub {
    /// An empty hub.
    #[must_use]
    pub fn new() -> SubscriptionHub {
        SubscriptionHub::default()
    }

    /// Starts streaming to connection `conn`.
    ///
    /// # Panics
    ///
    /// Panics only if the hub lock was poisoned.
    pub fn subscribe(&self, conn: u64) {
        self.queues.lock().expect("subscription hub lock").entry(conn).or_default();
    }

    /// Stops streaming to connection `conn` (idempotent).
    ///
    /// # Panics
    ///
    /// Panics only if the hub lock was poisoned.
    pub fn unsubscribe(&self, conn: u64) {
        self.queues.lock().expect("subscription hub lock").remove(&conn);
    }

    /// Whether anyone is subscribed (cheap pre-check for emitters).
    ///
    /// # Panics
    ///
    /// Panics only if the hub lock was poisoned.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.queues.lock().expect("subscription hub lock").is_empty()
    }

    /// Takes every pending `(conn, frames)` batch, clearing the queues.
    ///
    /// # Panics
    ///
    /// Panics only if the hub lock was poisoned.
    #[must_use]
    pub fn take_pending(&self) -> Vec<(u64, Vec<String>)> {
        let mut queues = self.queues.lock().expect("subscription hub lock");
        queues
            .iter_mut()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&conn, q)| (conn, std::mem::take(q)))
            .collect()
    }
}

impl EventObserver for SubscriptionHub {
    fn on_event(&self, record: &EventRecord) {
        let mut queues = self.queues.lock().expect("subscription hub lock");
        if queues.is_empty() {
            return;
        }
        let payload = crate::protocol::event_frame_payload(record).to_string();
        for q in queues.values_mut() {
            q.push(payload.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// Record / replay
// ---------------------------------------------------------------------------

/// Parses a `--record` stream (one JSON record per line) back into
/// typed records.
///
/// # Errors
///
/// Returns the first unparseable line, 1-indexed.
pub fn parse_records(text: &str) -> Result<Vec<EventRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            EventRecord::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

/// The *deterministic* projection of an event stream: every decision
/// the server made, in order, with wall-clock stripped. Two runs of
/// the same single-threaded workload produce equal summaries; a
/// recorded stream replayed through [`parse_records`] produces a
/// summary equal to the live one — that is the record/replay contract
/// tested in `tests/serve_events.rs`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecisionSummary {
    /// `(request kind, ok)` per answered request, in completion order.
    pub answers: Vec<(String, bool)>,
    /// Cache provenance per compile answer, in completion order.
    pub cache_outcomes: Vec<String>,
    /// Compile-job outcomes (`memory`/`disk`/`compiled`/`error`) in
    /// completion order; requests answered from a finished job ran
    /// none and appear only in `cache_outcomes`.
    pub job_outcomes: Vec<String>,
    /// Requests or connections shed.
    pub sheds: u64,
    /// Requests that joined an in-flight batch.
    pub coalesced: u64,
    /// Whether a drain was recorded.
    pub drained: bool,
}

impl DecisionSummary {
    /// Projects a stream to its decisions.
    #[must_use]
    pub fn from_records(records: &[EventRecord]) -> DecisionSummary {
        let mut s = DecisionSummary::default();
        for r in records {
            match &r.event {
                ServeEvent::Done { kind, ok, .. } => s.answers.push((kind.clone(), *ok)),
                ServeEvent::CacheOutcome { source, .. } => {
                    s.cache_outcomes.push(source.clone());
                }
                ServeEvent::CompileFinish { outcome, .. } => {
                    s.job_outcomes.push(outcome.clone());
                }
                ServeEvent::Shed { .. } => s.sheds += 1,
                ServeEvent::BatchCoalesce { .. } => s.coalesced += 1,
                ServeEvent::Drain { .. } => s.drained = true,
                _ => {}
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<ServeEvent> {
        vec![
            ServeEvent::Accept { conn: 1 },
            ServeEvent::Admit { conn: 1, req: 1, kind: "compile".into(), pipelined: false },
            ServeEvent::BatchCoalesce { conn: 1, req: 2, batch: "abcd".into() },
            ServeEvent::CompileStart { batch: "abcd".into(), model: "GPT_32B".into() },
            ServeEvent::CompileFinish {
                batch: "abcd".into(),
                model: "GPT_32B".into(),
                compile_ms: 12.5,
                outcome: "compiled".into(),
            },
            ServeEvent::CacheOutcome { conn: 1, req: 1, source: "compiled".into() },
            ServeEvent::Shed { conn: 0, scope: "connection".into() },
            ServeEvent::Done {
                conn: 1,
                req: 1,
                kind: "compile".into(),
                ok: true,
                queue_ms: 0.5,
                compile_ms: 12.5,
                serialize_ms: 0.25,
            },
            ServeEvent::Drain { reason: "shutdown-request".into() },
            ServeEvent::Close { conn: 1 },
        ]
    }

    #[test]
    fn every_event_roundtrips_through_json() {
        for event in sample_events() {
            let wire = event.to_json().to_string();
            let back = ServeEvent::from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(event, back, "event did not survive the wire: {wire}");
        }
    }

    #[test]
    fn bus_stamps_monotone_sequence_and_fans_out() {
        let collect = Arc::new(CollectObserver::default());
        let bus = EventBus::new(vec![Arc::clone(&collect) as Arc<dyn EventObserver>]);
        for event in sample_events() {
            bus.emit(event);
        }
        let seen = collect.snapshot();
        assert_eq!(seen.len(), 10);
        assert_eq!(bus.emitted(), 10);
        for (i, r) in seen.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1, "sequence must be dense and 1-based");
        }
        assert!(seen.windows(2).all(|w| w[0].t_ms <= w[1].t_ms));
    }

    #[test]
    fn record_stream_parses_back_and_summarizes() {
        let sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let collect = Arc::new(CollectObserver::default());
        let bus = EventBus::new(vec![
            Arc::new(RecordObserver::new(Box::new(Shared(Arc::clone(&sink))))),
            Arc::clone(&collect) as Arc<dyn EventObserver>,
        ]);
        for event in sample_events() {
            bus.emit(event);
        }
        let text = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
        let parsed = parse_records(&text).unwrap();
        assert_eq!(parsed, collect.snapshot(), "file stream must equal the live stream");

        let summary = DecisionSummary::from_records(&parsed);
        assert_eq!(summary.answers, vec![("compile".to_string(), true)]);
        assert_eq!(summary.cache_outcomes, vec!["compiled"]);
        assert_eq!(summary.job_outcomes, vec!["compiled"]);
        assert_eq!(summary.sheds, 1);
        assert_eq!(summary.coalesced, 1);
        assert!(summary.drained);
    }

    #[test]
    fn metrics_observer_feeds_the_histogram_and_counters() {
        let metrics = Arc::new(ServerMetrics::new());
        let bus = EventBus::new(vec![Arc::new(MetricsObserver(Arc::clone(&metrics)))]);
        bus.emit(ServeEvent::Admit { conn: 1, req: 1, kind: "compile".into(), pipelined: false });
        bus.emit(ServeEvent::Admit { conn: 1, req: 2, kind: "compile".into(), pipelined: true });
        bus.emit(ServeEvent::CompileStart { batch: "k".into(), model: "m".into() });
        bus.emit(ServeEvent::BatchCoalesce { conn: 1, req: 2, batch: "k".into() });
        bus.emit(ServeEvent::Done {
            conn: 1,
            req: 1,
            kind: "compile".into(),
            ok: true,
            queue_ms: 1.0,
            compile_ms: 2.0,
            serialize_ms: 0.5,
        });
        bus.emit(ServeEvent::Done {
            conn: 1,
            req: 2,
            kind: "compile".into(),
            ok: false,
            queue_ms: 0.0,
            compile_ms: 0.0,
            serialize_ms: 0.0,
        });
        bus.emit(ServeEvent::Shed { conn: 0, scope: "connection".into() });
        assert_eq!(metrics.requests.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.pipelined.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.batches.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.coalesced.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.ok.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.shed.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.latency.count(), 2);
    }

    #[test]
    fn subscription_hub_queues_per_subscriber() {
        let hub = Arc::new(SubscriptionHub::new());
        let bus = EventBus::new(vec![Arc::clone(&hub) as Arc<dyn EventObserver>]);
        bus.emit(ServeEvent::Accept { conn: 9 }); // no subscribers: dropped
        hub.subscribe(4);
        hub.subscribe(5);
        bus.emit(ServeEvent::Close { conn: 9 });
        hub.unsubscribe(5);
        bus.emit(ServeEvent::Drain { reason: "signal".into() });
        let mut pending = hub.take_pending();
        pending.sort_by_key(|(conn, _)| *conn);
        assert_eq!(pending.len(), 1, "conn 5 unsubscribed with frames pending");
        assert_eq!(pending[0].0, 4);
        assert_eq!(pending[0].1.len(), 2);
        assert!(pending[0].1[0].contains("\"close\""));
        assert!(hub.take_pending().is_empty(), "taking drains the queues");
    }
}
