//! The overlap-serve wire protocol: versioned frames of overlap-json.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! overlap-serve/1 <payload-len>\n
//! <payload-len bytes of compact JSON>
//! ```
//!
//! The header line carries the protocol version and the exact payload
//! length, so a reader can reject a peer speaking a different version
//! before parsing anything, detect truncated payloads (short reads) and
//! bound memory before allocating. Payloads are compact (not pretty)
//! JSON; the deterministic part of a compile response re-encodes to the
//! same bytes on every honest server and client, which is what the
//! loadgen byte-identity check compares.
//!
//! Requests are tagged by a `"request"` member (`compile`, `stats`,
//! `ping`, `shutdown`, `subscribe`, `fetch`, `fleet-stats`), responses
//! by `"response"` (`compiled`, `stats`, `pong`, `shutting-down`,
//! `subscribed`, `event`, `artifact`, `fleet-stats`, `error`). Unknown
//! tags and undecodable bodies produce typed [`ErrorKind`] responses,
//! never a dropped connection.
//!
//! The `fetch`/`artifact` pair is the fleet's cache-peering channel: a
//! node that misses on an artifact it does not own asks the owner for
//! the full versioned cache entry (the same JSON the disk tier
//! persists) and revalidates it locally — payload hash, verify-on-load,
//! cost-table rebuild — before serving it. `fleet-stats` asks one node
//! to fan out `stats` to its peers and answer the cluster-wide
//! aggregate, with per-node liveness.

use std::io::{Read, Write};

use overlap_core::{DecomposeSummary, FallbackRecord, GateDecision, OverlapOptions};
use overlap_hlo::Module;
use overlap_json::{json_record, FromJson, Json, ToJson};
use overlap_mesh::FaultSpec;
use overlap_sim::Report;

use crate::events::EventRecord;

/// Version token every frame header must lead with. Bump on any wire
/// layout change; old peers then fail fast with
/// [`ErrorKind::UnknownVersion`] instead of misparsing.
pub const PROTOCOL_VERSION: &str = "overlap-serve/1";

/// Upper bound on one frame's payload. Large enough for an inline
/// module of tens of thousands of instructions, small enough that a
/// corrupt length header cannot OOM the server.
pub const MAX_FRAME_BYTES: usize = 32 << 20;

/// Longest legal header line (`overlap-serve/1 <len>\n`); anything
/// longer without a newline is garbage, not a slow peer.
const MAX_HEADER_BYTES: usize = 64;

/// What went wrong at the framing layer, before any request semantics.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure (other than a clean close between frames).
    Io(std::io::Error),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The header named a protocol version this build does not speak.
    UnknownVersion(String),
    /// Unparseable header, truncated payload or invalid payload JSON.
    Malformed(String),
    /// The header announced a payload beyond [`MAX_FRAME_BYTES`].
    FrameTooLarge(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::UnknownVersion(v) => {
                write!(f, "unknown protocol version {v:?} (this build speaks {PROTOCOL_VERSION})")
            }
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
            }
        }
    }
}

impl WireError {
    /// The typed error a server should answer with, if the connection
    /// is still coherent enough to answer on (`None` for transport
    /// failures, where writing would be futile).
    #[must_use]
    pub fn to_error_kind(&self) -> Option<ErrorKind> {
        match self {
            WireError::Io(_) | WireError::Closed => None,
            WireError::UnknownVersion(_) => Some(ErrorKind::UnknownVersion),
            WireError::Malformed(_) => Some(ErrorKind::Malformed),
            WireError::FrameTooLarge(_) => Some(ErrorKind::FrameTooLarge),
        }
    }
}

/// Writes one frame (header + compact payload) and flushes.
///
/// # Errors
///
/// Returns the underlying I/O error; the caller decides whether the
/// connection is worth keeping.
pub fn write_frame(w: &mut impl Write, payload: &Json) -> std::io::Result<()> {
    let body = payload.to_string();
    // Header and payload go out as one write: two small segments on a
    // real socket trip Nagle + delayed-ACK stalls (tens of ms a frame).
    let mut frame = Vec::with_capacity(body.len() + MAX_HEADER_BYTES);
    frame.extend_from_slice(format!("{PROTOCOL_VERSION} {}\n", body.len()).as_bytes());
    frame.extend_from_slice(body.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// One step of frame extraction: what [`FrameReader::poll`] observed.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete, parseable frame.
    Frame(Json),
    /// The read timed out with no complete frame buffered; the caller
    /// may check shutdown flags and poll again.
    Idle,
    /// Clean end of stream between frames.
    Closed,
    /// A framing violation; see [`WireError`].
    Error(WireError),
}

/// Incremental frame reader that survives short reads and read
/// timeouts: bytes accumulate across [`FrameReader::poll`] calls until
/// a full header + payload is buffered. This is what lets the server
/// park on an idle keep-alive connection with a read timeout and still
/// notice a drain request between polls, without ever losing a
/// half-received frame.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader with no buffered bytes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads from `r` until a full frame is buffered, the stream ends,
    /// or the read times out (`WouldBlock`/`TimedOut` → [`FrameEvent::Idle`]).
    pub fn poll(&mut self, r: &mut impl Read) -> FrameEvent {
        loop {
            match self.try_extract() {
                Ok(Some(frame)) => return FrameEvent::Frame(frame),
                Ok(None) => {}
                Err(e) => return FrameEvent::Error(e),
            }
            let mut chunk = [0u8; 8192];
            match r.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        FrameEvent::Closed
                    } else {
                        FrameEvent::Error(WireError::Malformed(format!(
                            "stream ended inside a frame ({} bytes buffered)",
                            self.buf.len()
                        )))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return FrameEvent::Idle;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return FrameEvent::Error(WireError::Io(e)),
            }
        }
    }

    /// Attempts to cut one frame off the front of the buffer.
    fn try_extract(&mut self) -> Result<Option<Json>, WireError> {
        let Some(nl) = self.buf.iter().position(|&b| b == b'\n') else {
            if self.buf.len() > MAX_HEADER_BYTES {
                return Err(WireError::Malformed(format!(
                    "no newline within the first {MAX_HEADER_BYTES} bytes"
                )));
            }
            return Ok(None);
        };
        let header = std::str::from_utf8(&self.buf[..nl])
            .map_err(|_| WireError::Malformed("non-UTF-8 header".into()))?;
        let (version, len) = header
            .split_once(' ')
            .ok_or_else(|| WireError::Malformed(format!("header {header:?} lacks a length")))?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::UnknownVersion(version.to_string()));
        }
        let len: usize = len
            .trim()
            .parse()
            .map_err(|_| WireError::Malformed(format!("unparseable payload length {len:?}")))?;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::FrameTooLarge(len));
        }
        if self.buf.len() < nl + 1 + len {
            return Ok(None); // payload not fully buffered yet
        }
        let payload = std::str::from_utf8(&self.buf[nl + 1..nl + 1 + len])
            .map_err(|_| WireError::Malformed("non-UTF-8 payload".into()))?;
        let parsed =
            Json::parse(payload).map_err(|e| WireError::Malformed(format!("payload: {e}")))?;
        self.buf.drain(..nl + 1 + len);
        Ok(Some(parsed))
    }
}

/// Blocking convenience: polls until something other than
/// [`FrameEvent::Idle`] happens (a stream without a read timeout never
/// yields `Idle`, so this is what clients use).
pub fn read_frame(r: &mut impl Read, reader: &mut FrameReader) -> Result<Json, WireError> {
    loop {
        match reader.poll(r) {
            FrameEvent::Frame(v) => return Ok(v),
            FrameEvent::Idle => {}
            FrameEvent::Closed => return Err(WireError::Closed),
            FrameEvent::Error(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// What to compile: a model from the zoo by name, or a module shipped
/// inline in the request (the `overlapc` use case over the wire).
#[derive(Debug, Clone, PartialEq)]
pub enum ModelRef {
    /// A name resolved against `overlap_models::find_model`.
    Named(String),
    /// A full serialized module (verified server-side before use).
    Inline(Box<Module>),
}

// Hand-written: untagged (a bare name, or `{"module": ...}`).
impl ToJson for ModelRef {
    fn to_json(&self) -> Json {
        match self {
            ModelRef::Named(name) => Json::from(name.as_str()),
            ModelRef::Inline(module) => Json::obj().with("module", module.to_json()),
        }
    }
}

impl FromJson for ModelRef {
    fn from_json(v: &Json) -> Result<Self, String> {
        if let Some(name) = v.as_str() {
            return Ok(ModelRef::Named(name.to_string()));
        }
        match v.get("module") {
            Some(m) => Ok(ModelRef::Inline(Box::new(Module::from_json(m)?))),
            None => Err("model must be a name or {\"module\": ...}".into()),
        }
    }
}

/// Which machine to compile for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineSpec {
    /// The model's own Table-1/Table-2 machine (for a named model), or
    /// a TPUv4-like machine sized to the module's partition count (for
    /// an inline module).
    ModelDefault,
    /// `Machine::tpu_v4_like(chips)`.
    TpuV4 { chips: usize },
    /// `Machine::gpu_cluster_like(chips)`.
    GpuCluster { chips: usize },
}

// Hand-written: a bare string, or an object tagged by `kind`.
impl ToJson for MachineSpec {
    fn to_json(&self) -> Json {
        match self {
            MachineSpec::ModelDefault => Json::from("model-default"),
            MachineSpec::TpuV4 { chips } => {
                Json::obj().with("kind", "tpu_v4").with("chips", *chips)
            }
            MachineSpec::GpuCluster { chips } => {
                Json::obj().with("kind", "gpu_cluster").with("chips", *chips)
            }
        }
    }
}

impl FromJson for MachineSpec {
    fn from_json(v: &Json) -> Result<Self, String> {
        if let Some(s) = v.as_str() {
            return match s {
                "model-default" => Ok(MachineSpec::ModelDefault),
                other => Err(format!("unknown machine {other:?} (expected \"model-default\")")),
            };
        }
        let chips = v.decode_field::<usize>("chips")?;
        match v.decode_field::<String>("kind")?.as_str() {
            "tpu_v4" => Ok(MachineSpec::TpuV4 { chips }),
            "gpu_cluster" => Ok(MachineSpec::GpuCluster { chips }),
            other => Err(format!("unknown machine kind {other:?}")),
        }
    }
}

/// One compile-and-simulate job.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileRequest {
    /// What to compile.
    pub model: ModelRef,
    /// The target machine (defaults to [`MachineSpec::ModelDefault`]).
    pub machine: MachineSpec,
    /// Pipeline options (defaults to `OverlapOptions::paper_default()`).
    pub options: OverlapOptions,
    /// Optional degraded-machine spec; joins the artifact key.
    pub fault_spec: Option<FaultSpec>,
    /// Wall-clock budget measured from request receipt; exceeded →
    /// [`ErrorKind::DeadlineExceeded`]. The simulated-time watchdog
    /// (`FaultSpec::with_time_limit`) reports through the same error
    /// kind when it trips.
    pub deadline_ms: Option<u64>,
}

impl CompileRequest {
    /// A paper-defaults request for a named zoo model.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        CompileRequest {
            model: ModelRef::Named(name.into()),
            machine: MachineSpec::ModelDefault,
            options: OverlapOptions::paper_default(),
            fault_spec: None,
            deadline_ms: None,
        }
    }

    /// Like [`CompileRequest::named`], but with the strategy the offline
    /// autotuner picked for this model's paper machine
    /// ([`OverlapOptions::autotuned`]). Unknown names keep the paper
    /// defaults — the server rejects them later with the usual
    /// model-not-found error, same as [`CompileRequest::named`].
    #[must_use]
    pub fn tuned(name: impl Into<String>) -> Self {
        let name = name.into();
        let options = match overlap_models::find_model(&name) {
            Some(cfg) => OverlapOptions::autotuned(&name, &cfg.machine()),
            None => OverlapOptions::paper_default(),
        };
        CompileRequest { options, ..CompileRequest::named(name) }
    }
}

json_record!(CompileRequest ["request" = "compile"] {
    model,
    machine [absent = MachineSpec::ModelDefault],
    options [absent = OverlapOptions::paper_default()],
    fault_spec [skip_none],
    deadline_ms [skip_none],
});

/// Every request the server understands.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile + simulate; answered by [`Response::Compiled`].
    Compile(Box<CompileRequest>),
    /// Server counters and latency quantiles; [`Response::Stats`].
    Stats,
    /// Liveness probe; [`Response::Pong`].
    Ping,
    /// Ask the server to drain and exit; [`Response::ShuttingDown`].
    Shutdown,
    /// Turn this connection into a live event stream: answered by
    /// [`Response::Subscribed`], then [`Response::Event`] frames flow
    /// until the connection closes or the server drains.
    Subscribe,
    /// Cache peering: ask this node for the full versioned artifact
    /// entry under the given hex key; answered by
    /// [`Response::Artifact`] (with a `null` entry on a local miss —
    /// peers never compile on each other's behalf).
    Fetch {
        /// Hex artifact-key fingerprint (`artifact_key_faulted`).
        key: String,
    },
    /// Fleet-wide stats: the answering node fans [`Request::Stats`] out
    /// to its peers, sums the counters, merges the latency histograms
    /// and reports per-node liveness; [`Response::FleetStats`]. A node
    /// with no fleet configured answers for itself alone.
    FleetStats,
}

// Hand-written: dispatch on the `request` tag.
impl ToJson for Request {
    fn to_json(&self) -> Json {
        match self {
            Request::Compile(c) => c.to_json(),
            Request::Stats => Json::obj().with("request", "stats"),
            Request::Ping => Json::obj().with("request", "ping"),
            Request::Shutdown => Json::obj().with("request", "shutdown"),
            Request::Subscribe => Json::obj().with("request", "subscribe"),
            Request::Fetch { key } => json_record!(fields ["request" = "fetch"] { key }),
            Request::FleetStats => Json::obj().with("request", "fleet-stats"),
        }
    }
}

impl FromJson for Request {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.decode_field::<String>("request")?.as_str() {
            "compile" => Ok(Request::Compile(Box::new(CompileRequest::from_json(v)?))),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "subscribe" => Ok(Request::Subscribe),
            "fetch" => Ok(json_record!(from v => Request::Fetch { key })),
            "fleet-stats" => Ok(Request::FleetStats),
            other => Err(format!("unknown request {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Typed failure categories; the stable wire names are kebab-case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Frame header named a version this build does not speak.
    UnknownVersion,
    /// Unparseable frame or payload (including short reads).
    Malformed,
    /// Announced payload length exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge,
    /// Named model not in the zoo.
    UnknownModel,
    /// Inline module failed verification.
    InvalidModule,
    /// Fault spec does not fit the target machine.
    InvalidFaultSpec,
    /// Well-formed JSON that is not a valid request.
    InvalidRequest,
    /// Admission queue full; retry later (backpressure shed).
    Overloaded,
    /// The request's wall-clock budget ran out, or the simulated-time
    /// watchdog tripped.
    DeadlineExceeded,
    /// Server is draining and takes no new work.
    ShuttingDown,
    /// Pipeline or simulator failure the client cannot fix.
    Internal,
}

impl ErrorKind {
    /// The stable wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::UnknownVersion => "unknown-version",
            ErrorKind::Malformed => "malformed",
            ErrorKind::FrameTooLarge => "frame-too-large",
            ErrorKind::UnknownModel => "unknown-model",
            ErrorKind::InvalidModule => "invalid-module",
            ErrorKind::InvalidFaultSpec => "invalid-fault-spec",
            ErrorKind::InvalidRequest => "invalid-request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline-exceeded",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::Internal => "internal",
        }
    }

    /// Whether retrying the identical request later can succeed
    /// (admission shed and drain are transient; everything else is the
    /// request's or the server's fault).
    #[must_use]
    pub fn is_backpressure(self) -> bool {
        matches!(self, ErrorKind::Overloaded | ErrorKind::ShuttingDown)
    }
}

// Hand-written: `as_str` (logs, `Display`) already is the name table, and
// `json_enum!` would need a second copy of it.
impl ToJson for ErrorKind {
    fn to_json(&self) -> Json {
        Json::from(self.as_str())
    }
}

impl FromJson for ErrorKind {
    fn from_json(v: &Json) -> Result<Self, String> {
        [
            ErrorKind::UnknownVersion,
            ErrorKind::Malformed,
            ErrorKind::FrameTooLarge,
            ErrorKind::UnknownModel,
            ErrorKind::InvalidModule,
            ErrorKind::InvalidFaultSpec,
            ErrorKind::InvalidRequest,
            ErrorKind::Overloaded,
            ErrorKind::DeadlineExceeded,
            ErrorKind::ShuttingDown,
            ErrorKind::Internal,
        ]
        .into_iter()
        .find(|k| v.as_str() == Some(k.as_str()))
        .ok_or_else(|| format!("expected ErrorKind, got {v}"))
    }
}

/// A typed failure with a human-readable elaboration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorResponse {
    /// The category; stable across message rewording.
    pub kind: ErrorKind,
    /// Details for humans and logs; not meant for matching.
    pub message: String,
}

json_record!(ErrorResponse ["response" = "error"] { kind, message });

/// The scalar summary of one simulation, mirroring `Report`'s getters.
/// Carries everything the dashboards plot without shipping the whole
/// span timeline over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// End-to-end simulated step time (seconds).
    pub makespan: f64,
    /// Busy time attributed to compute spans.
    pub compute_time: f64,
    /// Busy time attributed to memory-bound spans.
    pub memory_time: f64,
    /// Synchronous (blocking) collective time.
    pub sync_comm_time: f64,
    /// Async collective time the schedule failed to hide.
    pub exposed_async_time: f64,
    /// Async collective time hidden under compute.
    pub hidden_async_time: f64,
    /// Fraction of the makespan spent in exposed communication.
    pub comm_fraction: f64,
    /// Total floating-point work simulated.
    pub total_flops: u64,
}

impl SimSummary {
    /// Projects a full report down to the wire summary.
    #[must_use]
    pub fn of(r: &Report) -> Self {
        SimSummary {
            makespan: r.makespan(),
            compute_time: r.compute_time(),
            memory_time: r.memory_time(),
            sync_comm_time: r.sync_comm_time(),
            exposed_async_time: r.exposed_async_time(),
            hidden_async_time: r.hidden_async_time(),
            comm_fraction: r.comm_fraction(),
            total_flops: r.total_flops(),
        }
    }
}

json_record!(SimSummary {
    makespan,
    compute_time,
    memory_time,
    sync_comm_time,
    exposed_async_time,
    hidden_async_time,
    comm_fraction,
    total_flops,
});

/// The *deterministic* half of a compile response: everything here is
/// a pure function of (module, machine, options, fault spec), so an
/// honest server's `result` object re-encodes byte-identically to what
/// a client computes with direct `OverlapPipeline` calls. Cache
/// provenance and timing live in [`ServedInfo`] instead, precisely
/// because they vary run to run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileResult {
    /// Model name (or the inline module's own name).
    pub model: String,
    /// Partition count the module was built for.
    pub num_partitions: usize,
    /// Content-addressed artifact key (hex fingerprint).
    pub artifact_key: String,
    /// Structural module fingerprint.
    pub module_fingerprint: String,
    /// Machine fingerprint.
    pub machine_fingerprint: String,
    /// Options fingerprint.
    pub options_fingerprint: String,
    /// Input identity fingerprint (names included).
    pub input_identity: String,
    /// Identity fingerprint of the compiled module.
    pub compiled_identity: String,
    /// Length of the compiled schedule.
    pub order_len: usize,
    /// §5.5 gate decisions, one per candidate pattern.
    pub decisions: Vec<GateDecision>,
    /// Decomposition summaries for patterns actually rewritten.
    pub summaries: Vec<DecomposeSummary>,
    /// Degraded-machine fallback records (empty when fault-free).
    pub fallbacks: Vec<FallbackRecord>,
    /// Baseline (undecomposed) simulation.
    pub baseline: SimSummary,
    /// Overlapped-schedule simulation.
    pub overlapped: SimSummary,
    /// `baseline.makespan / overlapped.makespan`.
    pub speedup: f64,
}

json_record!(CompileResult {
    model,
    num_partitions,
    artifact_key,
    module_fingerprint,
    machine_fingerprint,
    options_fingerprint,
    input_identity,
    compiled_identity,
    order_len,
    decisions,
    summaries,
    fallbacks,
    baseline,
    overlapped,
    speedup,
});

/// The *advisory* half of a compile response: where the artifact came
/// from and how long the server took. Deliberately outside
/// [`CompileResult`] so the byte-identity contract ignores it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedInfo {
    /// `"memory"`, `"disk"` or `"compiled"` (`CacheOutcome::as_str`),
    /// or `"coalesced"` for a request that joined another request's
    /// in-flight batch and shared its artifact. `"memory"` also covers
    /// a request answered on the event-loop thread with the result an
    /// equal request's job already finished with — no pool job ran.
    pub source: String,
    /// Time the request waited between frame decode and dispatch
    /// (admission plus compile-pool queueing).
    pub queue_ms: f64,
    /// Time spent executing the request.
    pub service_ms: f64,
}

json_record!(ServedInfo { source, queue_ms, service_ms });

/// Latency quantiles from the server's log-bucketed histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median, in milliseconds (bucket upper bound).
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Largest single sample.
    pub max_ms: f64,
}

json_record!(LatencySummary { count, p50_ms, p90_ms, p99_ms, max_ms });

/// Server-wide counters answered to a [`Request::Stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsResponse {
    /// Fleet node id (`""` for a solo daemon).
    pub node: String,
    /// Wall-clock since the server started.
    pub uptime_ms: f64,
    /// Frames decoded into requests.
    pub requests: u64,
    /// Requests answered with a success response.
    pub ok: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
    /// Requests or connections shed under backpressure.
    pub shed: u64,
    /// Compile requests that joined an in-flight batch instead of
    /// dispatching their own job.
    pub coalesced: u64,
    /// Compile jobs dispatched to the pool (each may answer several
    /// coalesced requests).
    pub batches: u64,
    /// Requests that arrived while the same connection already had a
    /// request in flight (wire pipelining observed).
    pub pipelined: u64,
    /// Compile jobs waiting for a pool worker right now.
    pub queue_depth: usize,
    /// Compile-pool worker threads.
    pub workers: usize,
    /// `requests / uptime`, in requests per second.
    pub qps: f64,
    /// Artifact-cache lookups served from the in-memory tier.
    pub cache_memory_hits: u64,
    /// Artifact-cache lookups served from the disk tier.
    pub cache_disk_hits: u64,
    /// Artifact-cache lookups served by fetching a peer's entry.
    pub cache_peer_hits: u64,
    /// Artifact-cache lookups that ran the pipeline.
    pub cache_misses: u64,
    /// `hits / lookups` (0 when nothing was looked up).
    pub cache_hit_rate: f64,
    /// Peer [`Request::Fetch`] frames this node answered.
    pub fetches: u64,
    /// Outbound peer-fetch attempts this node made on its own misses.
    pub peer_fetches: u64,
    /// Queue+service latency distribution of answered requests.
    pub latency: LatencySummary,
    /// Raw histogram bucket counts behind `latency` (trailing zeros
    /// trimmed), so a fleet aggregator can merge distributions instead
    /// of averaging quantiles. Indices follow
    /// `overlap_sim::Histogram::bucket_counts`.
    pub latency_buckets: Vec<u64>,
}

json_record!(StatsResponse ["response" = "stats"] {
    node,
    uptime_ms,
    requests,
    ok,
    errors,
    shed,
    coalesced,
    batches,
    pipelined,
    queue_depth,
    workers,
    qps,
    cache_memory_hits,
    cache_disk_hits,
    cache_peer_hits,
    cache_misses,
    cache_hit_rate,
    fetches,
    peer_fetches,
    latency,
    latency_buckets,
});

/// Answer to a cache-peering [`Request::Fetch`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactResponse {
    /// The hex key that was asked for, echoed back.
    pub key: String,
    /// The full versioned cache entry (the disk tier's JSON layout), or
    /// `None` when this node holds no entry for the key. The entry is
    /// *untrusted* on arrival: the fetcher revalidates every metadata
    /// fingerprint, the payload hash and the decoded module before
    /// serving it.
    pub entry: Option<Json>,
}

// `entry` is written as `null` on a miss (and read leniently).
json_record!(ArtifactResponse ["response" = "artifact"] { key, entry [absent = None] });

/// One node's slice of a [`FleetStatsResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetNodeStatus {
    /// Stable fleet node id (`node-0` …).
    pub node: String,
    /// Whether the node answered the stats fan-out.
    pub alive: bool,
    /// The node's frame count (0 when dead).
    pub requests: u64,
    /// The node's local compiles — cache misses (0 when dead).
    pub cache_misses: u64,
    /// The node's peer-served lookups (0 when dead).
    pub cache_peer_hits: u64,
}

json_record!(FleetNodeStatus { node, alive, requests, cache_misses, cache_peer_hits });

/// Cluster-wide aggregate answered to a [`Request::FleetStats`]:
/// counters summed over every node that answered, latency histograms
/// merged bucket-by-bucket (not quantile-averaged), and per-node
/// liveness. Nodes are sorted by id, so two aggregations over the same
/// fleet state encode identically.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStatsResponse {
    /// Node that performed the fan-out.
    pub origin: String,
    /// Fleet size by configuration.
    pub total: usize,
    /// Nodes that answered.
    pub alive: usize,
    /// Summed frame count.
    pub requests: u64,
    /// Summed success responses.
    pub ok: u64,
    /// Summed typed-error responses.
    pub errors: u64,
    /// Summed backpressure sheds.
    pub shed: u64,
    /// Summed batch-coalesced compile requests.
    pub coalesced: u64,
    /// Summed dispatched compile jobs.
    pub batches: u64,
    /// Summed pipelined frames.
    pub pipelined: u64,
    /// Summed peer fetches answered.
    pub fetches: u64,
    /// Summed outbound peer-fetch attempts.
    pub peer_fetches: u64,
    /// Summed memory-tier cache hits.
    pub cache_memory_hits: u64,
    /// Summed disk-tier cache hits.
    pub cache_disk_hits: u64,
    /// Summed peer-tier cache hits.
    pub cache_peer_hits: u64,
    /// Summed cache misses — the cluster-wide compile count.
    pub cache_misses: u64,
    /// Cluster-wide `hits / lookups`.
    pub cache_hit_rate: f64,
    /// Quantiles of the *merged* latency histogram.
    pub latency: LatencySummary,
    /// Per-node liveness and headline counters, sorted by node id.
    pub nodes: Vec<FleetNodeStatus>,
}

json_record!(FleetStatsResponse ["response" = "fleet-stats"] {
    origin,
    total,
    alive,
    requests,
    ok,
    errors,
    shed,
    coalesced,
    batches,
    pipelined,
    fetches,
    peer_fetches,
    cache_memory_hits,
    cache_disk_hits,
    cache_peer_hits,
    cache_misses,
    cache_hit_rate,
    latency,
    nodes,
});

/// A successful compile: the deterministic result plus how it was served.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileResponse {
    /// Byte-identical across servers and direct pipeline calls.
    pub result: CompileResult,
    /// Cache provenance and timing; varies run to run.
    pub served: ServedInfo,
}

json_record!(CompileResponse ["response" = "compiled"] { result, served });

/// Every response the server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Compile`].
    Compiled(Box<CompileResponse>),
    /// Answer to [`Request::Stats`].
    Stats(Box<StatsResponse>),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Acknowledges [`Request::Shutdown`]; the server then drains.
    ShuttingDown,
    /// Acknowledges [`Request::Subscribe`]; [`Response::Event`] frames
    /// follow on the same connection.
    Subscribed,
    /// One live event-bus record, streamed to a subscriber.
    Event(Box<EventRecord>),
    /// Answer to a cache-peering [`Request::Fetch`].
    Artifact(Box<ArtifactResponse>),
    /// Answer to [`Request::FleetStats`].
    FleetStats(Box<FleetStatsResponse>),
    /// Any failure, typed.
    Error(ErrorResponse),
}

/// The payload of one streamed [`Response::Event`] frame. Factored out
/// so the subscription hub can encode a record once per event instead
/// of once per subscriber per event.
#[must_use]
pub fn event_frame_payload(record: &EventRecord) -> Json {
    Json::obj().with("response", "event").with("record", record.to_json())
}

// Hand-written: dispatch on the `response` tag.
impl ToJson for Response {
    fn to_json(&self) -> Json {
        match self {
            Response::Compiled(c) => c.to_json(),
            Response::Stats(s) => s.to_json(),
            Response::Pong => Json::obj().with("response", "pong"),
            Response::ShuttingDown => Json::obj().with("response", "shutting-down"),
            Response::Subscribed => Json::obj().with("response", "subscribed"),
            Response::Event(r) => event_frame_payload(r),
            Response::Artifact(a) => a.to_json(),
            Response::FleetStats(f) => f.to_json(),
            Response::Error(e) => e.to_json(),
        }
    }
}

impl FromJson for Response {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.decode_field::<String>("response")?.as_str() {
            "compiled" => Ok(Response::Compiled(Box::new(CompileResponse::from_json(v)?))),
            "stats" => Ok(Response::Stats(Box::new(StatsResponse::from_json(v)?))),
            "pong" => Ok(Response::Pong),
            "shutting-down" => Ok(Response::ShuttingDown),
            "subscribed" => Ok(Response::Subscribed),
            "event" => Ok(Response::Event(Box::new(v.decode_field("record")?))),
            "artifact" => Ok(Response::Artifact(Box::new(ArtifactResponse::from_json(v)?))),
            "fleet-stats" => {
                Ok(Response::FleetStats(Box::new(FleetStatsResponse::from_json(v)?)))
            }
            "error" => Ok(Response::Error(ErrorResponse::from_json(v)?)),
            other => Err(format!("unknown response {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_requests_resolve_the_autotuned_options() {
        // Every Table-1 machine is a long ring, where the autotuner kept
        // the paper default — so tuned() and named() must agree there,
        // and both must survive the wire round-trip.
        for name in overlap_models::model_names() {
            let name = name.as_str();
            let tuned = CompileRequest::tuned(name);
            assert_eq!(tuned, CompileRequest::named(name));
            let cfg = overlap_models::find_model(name).expect("zoo model");
            assert_eq!(
                tuned.options,
                OverlapOptions::autotuned(name, &cfg.machine()),
                "{name}"
            );
            let wire = Request::Compile(Box::new(tuned.clone()));
            let back = Request::from_json(&wire.to_json()).expect("roundtrip");
            assert_eq!(back, wire);
        }
        // Unknown names keep paper defaults; the server rejects them
        // later with its usual model-not-found error.
        assert_eq!(CompileRequest::tuned("no-such-model"), CompileRequest::named("no-such-model"));
    }

    #[test]
    fn precision_annotated_requests_round_trip() {
        use overlap_core::StrategySpec;
        use overlap_hlo::WireFormat;
        // A quantized strategy plus an error budget must survive the
        // frame codec exactly: the daemon keys its artifact cache on the
        // decoded options, so a lossy decode would alias distinct
        // compiles.
        for wire in [WireFormat::Bf16, WireFormat::int8()] {
            let mut req = CompileRequest::named("GPT_64B");
            req.options = OverlapOptions {
                error_budget: Some(1e-2),
                ..OverlapOptions::with_strategy(StrategySpec::paper_default().with_wire(wire))
            };
            let framed = Request::Compile(Box::new(req));
            let back = Request::from_json(&framed.to_json()).expect("roundtrip");
            assert_eq!(back, framed);
        }
        // The lossless default contributes no JSON at all: a default
        // request's encoding must not mention the precision knobs.
        let framed = Request::Compile(Box::new(CompileRequest::named("GPT_64B")));
        let text = framed.to_json().to_string();
        assert!(!text.contains("wire"), "lossless encoding leaks the wire field: {text}");
        assert!(!text.contains("error_budget"), "unset budget leaks into the encoding: {text}");
    }
}
