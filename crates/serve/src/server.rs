//! The daemon: a readiness-driven event loop over nonblocking sockets.
//!
//! One thread — the caller of [`Server::run`] — owns every socket: the
//! listener, a [`Waker`] the compile pool rings on completion, and one
//! nonblocking [`Conn`] state machine per live connection. The loop
//! never blocks on anything but [`Poller::poll`]; reads drain through
//! the incremental [`FrameReader`] until `WouldBlock`, writes drain
//! through a buffered [`OutBuf`] that survives torn (partial) writes
//! mid-frame. Requests *pipeline*: a connection may have any number of
//! frames in flight, each gets an ordered response slot, and responses
//! go out strictly in request order no matter which completes first —
//! that is the `overlap-serve/1` contract.
//!
//! Compiles never run on the loop thread. Each is a job on a small CPU
//! pool, delivered back through a completion list plus a waker ring.
//! In front of the pool sits *fingerprint batching*, one index from
//! [`batch_key`] to a job in flight *or finished*. A compile request
//! whose key matches a job still in flight joins that job as a
//! follower instead of dispatching its own (its `served.source` says
//! `"coalesced"`); one whose key matches a finished job is answered on
//! the loop thread with the result that job returned (`"memory"`) —
//! equal keys provably produce byte-identical results, and a ready
//! answer must not queue behind compiles it does not depend on. Only
//! the representative request executes, and the single-flight
//! `ArtifactCache` underneath still dedups across *different* batches.
//! Requests carrying a `deadline_ms` never *join* — a deadline is a
//! per-request promise that must not silently extend to batch-mates —
//! but a finished result answers them too: an instant answer cannot
//! miss a deadline. Finished entries are bounded by [`FINISHED_CAP`],
//! and none are kept when the cache is disabled or verifies its hits:
//! the operator asked for every request to reach the pipeline.
//!
//! Backpressure is per *request* now, not per connection: when the
//! pool's dispatch queue is at `queue_depth`, a compile that needs a
//! worker is answered with a typed [`ErrorKind::Overloaded`] frame on
//! its own slot and the connection lives on.
//!
//! Everything the server does is published on the [`EventBus`]
//! (accept, admit, batch-coalesce, compile-start/finish,
//! cache-outcome, shed, drain, done) — metrics are just one observer,
//! and `subscribe` turns any connection into a live event stream.
//!
//! Draining ([`ShutdownHandle::request`], a client `shutdown` request,
//! SIGTERM forwarded by `overlapd`, or a fatal listener error) stops
//! accepting, answers new compiles with [`ErrorKind::ShuttingDown`],
//! lets every in-flight job finish and flush, then joins the pool.
//! Disk-cache writes stay atomic throughout (temp file + rename inside
//! `ArtifactCache`), so a drain can never leave a torn entry.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use overlap_core::{ArtifactCache, CacheOutcome};
use overlap_json::{Fingerprint, FromJson, Json, ToJson};

use crate::events::{
    EventBus, EventObserver, MetricsObserver, ServeEvent, SubscriptionHub,
};
use crate::exec::{batch_key, execute_with_peers, Deadline, ExecError};
use crate::fleet::{aggregate_stats, FleetState};
use crate::metrics::ServerMetrics;
use crate::protocol::{
    write_frame, ArtifactResponse, CompileRequest, CompileResponse, CompileResult, ErrorKind,
    ErrorResponse, FleetStatsResponse, FrameEvent, FrameReader, ModelRef, Request, Response,
    ServedInfo, StatsResponse, PROTOCOL_VERSION,
};
use crate::reactor::{Interest, Poller, Token, Waker};

/// The loop's poll timeout: the upper bound on how stale the drain
/// flag or a subscriber's event queue can get while nothing else is
/// happening. Completions don't wait on it — the pool rings the waker.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Finished results the coalescing index keeps (oldest dropped first).
/// A result is ~7 kB, so a full index costs the daemon about 7 MB; a
/// dropped key simply dispatches again and is a cheap cache hit.
const FINISHED_CAP: usize = 1024;

/// Reads a `usize` tuning knob from the environment; unset, empty or
/// unparseable values fall back.
fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Tuning for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Compile-pool worker threads (the event loop itself is one more
    /// thread and never blocks on a compile).
    pub workers: usize,
    /// Compile jobs the dispatch queue holds before shedding requests.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        // The pool does the CPU work, so it gets the machine: one
        // worker per core, overridable with OVERLAP_SERVE_WORKERS.
        // (The old default capped at 8, which starved large hosts.)
        let workers = env_usize("OVERLAP_SERVE_WORKERS")
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
            .max(1);
        let queue_depth = env_usize("OVERLAP_SERVE_QUEUE").unwrap_or(4 * workers).max(1);
        ServeConfig { addr: "127.0.0.1:0".to_string(), workers, queue_depth }
    }
}

/// Requests a drain from outside the server's threads (signal
/// handlers, tests, an embedding process).
#[derive(Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Flips the drain flag; idempotent, async-signal-safe (one atomic
    /// store).
    pub fn request(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    #[must_use]
    pub fn is_requested(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// What a pool job does. Compiles dominate; `fleet-stats` rides the
/// pool too because it blocks on peer sockets, which the loop thread
/// must never do.
enum JobWork {
    /// The request and its [`batch_key`], under which the loop files
    /// the result.
    Compile(Box<CompileRequest>, Fingerprint),
    FleetStats,
}

/// One job handed to the pool. Members (who gets the answer) stay
/// loop-side; the pool only needs what to execute.
struct Job {
    id: u64,
    work: JobWork,
    /// Anchored at request receipt, so pool queueing counts against it.
    deadline: Deadline,
}

/// A pool job's successful payload.
enum JobOutput {
    Compile(Arc<CompileResult>, CacheOutcome),
    FleetStats(Box<FleetStatsResponse>),
}

/// What the pool sends back.
struct Completion {
    job_id: u64,
    /// The compile job's batch key (`None` for `fleet-stats`).
    key: Option<Fingerprint>,
    result: Result<JobOutput, ExecError>,
    compile_ms: f64,
}

/// State shared between the event loop and the pool workers.
struct Shared {
    draining: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    cache: ArtifactCache,
    bus: EventBus,
    hub: Arc<SubscriptionHub>,
    jobs: Mutex<VecDeque<Job>>,
    jobs_ready: Condvar,
    /// Set by the loop once no more jobs will ever be pushed.
    pool_stop: AtomicBool,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    workers: usize,
    queue_depth: usize,
    /// Set once (before `run`) when this daemon joins a fleet.
    fleet: OnceLock<Arc<FleetState>>,
}

impl Shared {
    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn queued_jobs(&self) -> usize {
        self.jobs.lock().expect("job queue lock").len()
    }

    /// A point-in-time stats snapshot. Lives on `Shared` (not the
    /// loop) because pool workers build it too, when aggregating
    /// `fleet-stats`.
    fn stats(&self) -> StatsResponse {
        let m = &self.metrics;
        let mut cache = self.cache.stats();
        // A loop-thread answer is a memory hit the cache never saw.
        cache.memory_hits += m.loop_hits.load(Ordering::Relaxed);
        StatsResponse {
            node: self.fleet.get().map_or_else(String::new, |f| f.node_id()),
            uptime_ms: m.uptime_ms(),
            requests: m.requests.load(Ordering::Relaxed),
            ok: m.ok.load(Ordering::Relaxed),
            errors: m.errors.load(Ordering::Relaxed),
            shed: m.shed.load(Ordering::Relaxed),
            coalesced: m.coalesced.load(Ordering::Relaxed),
            batches: m.batches.load(Ordering::Relaxed),
            pipelined: m.pipelined.load(Ordering::Relaxed),
            queue_depth: self.queued_jobs(),
            workers: self.workers,
            qps: m.qps(),
            cache_memory_hits: cache.memory_hits,
            cache_disk_hits: cache.disk_hits,
            cache_peer_hits: cache.peer_hits,
            cache_misses: cache.misses,
            cache_hit_rate: cache.hit_rate(),
            fetches: m.fetches.load(Ordering::Relaxed),
            peer_fetches: m.peer_fetches.load(Ordering::Relaxed),
            latency: m.latency.summary().into(),
            latency_buckets: m.latency.bucket_counts(),
        }
    }
}

/// A bound-but-not-yet-running service instance.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// The model label for events, without resolving anything.
fn model_label(req: &CompileRequest) -> String {
    match &req.model {
        ModelRef::Named(name) => name.clone(),
        ModelRef::Inline(module) => module.name().to_string(),
    }
}

/// Encodes one frame (header + compact payload) into bytes.
fn encode_frame(payload: &Json) -> Vec<u8> {
    let mut bytes = Vec::new();
    // Vec<u8> never fails to write.
    write_frame(&mut bytes, payload).expect("encoding a frame into memory");
    bytes
}

/// Frames an already-encoded payload string (the subscription hub
/// encodes each event once, not once per subscriber).
fn frame_payload_str(payload: &str) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + 32);
    bytes.extend_from_slice(format!("{PROTOCOL_VERSION} {}\n", payload.len()).as_bytes());
    bytes.extend_from_slice(payload.as_bytes());
    bytes
}

impl Server {
    /// Binds the listener and prepares shared state. `cache` is the
    /// process-wide artifact cache every job compiles through — its
    /// single-flight machinery dedups identical compiles *across*
    /// batches, while fingerprint batching dedups *within* the
    /// server's own in-flight window.
    ///
    /// # Errors
    ///
    /// Returns the bind (or waker construction) failure.
    pub fn bind(config: &ServeConfig, cache: ArtifactCache) -> std::io::Result<Server> {
        Self::bind_with_observers(config, cache, Vec::new())
    }

    /// [`Server::bind`], plus extra event-bus observers (recorders,
    /// chrome traces, test collectors). Metrics and the subscription
    /// hub are always attached.
    ///
    /// # Errors
    ///
    /// Returns the bind (or waker construction) failure.
    pub fn bind_with_observers(
        config: &ServeConfig,
        cache: ArtifactCache,
        extra: Vec<Arc<dyn EventObserver>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let metrics = Arc::new(ServerMetrics::new());
        let hub = Arc::new(SubscriptionHub::new());
        let mut observers: Vec<Arc<dyn EventObserver>> = vec![
            Arc::new(MetricsObserver(Arc::clone(&metrics))),
            Arc::clone(&hub) as Arc<dyn EventObserver>,
        ];
        observers.extend(extra);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                draining: Arc::new(AtomicBool::new(false)),
                metrics,
                cache,
                bus: EventBus::new(observers),
                hub,
                jobs: Mutex::new(VecDeque::new()),
                jobs_ready: Condvar::new(),
                pool_stop: AtomicBool::new(false),
                completions: Mutex::new(Vec::new()),
                waker: Waker::new()?,
                workers: config.workers.max(1),
                queue_depth: config.queue_depth.max(1),
                fleet: OnceLock::new(),
            }),
        })
    }

    /// Joins this daemon to a fleet: the ring decides which artifacts
    /// it owns, every local cache miss consults the ring's peers, and
    /// `fleet-stats` aggregates across the member list. Call between
    /// [`Server::bind`] and [`Server::run`]; later calls are ignored
    /// (the fleet view is fixed once serving starts).
    pub fn configure_fleet(&self, state: FleetState) {
        let _ = self.shared.fleet.set(Arc::new(state));
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Returns the socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can request a drain from any thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared.draining))
    }

    /// Serves until drained: returns once every admitted request has
    /// been answered, every response flushed, and the pool joined.
    ///
    /// # Errors
    ///
    /// Returns only fatal setup errors; per-connection I/O failures
    /// are contained to their connection.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let shared = &*self.shared;
        std::thread::scope(|scope| {
            for _ in 0..shared.workers {
                scope.spawn(|| pool_worker(shared));
            }
            EventLoop::new(shared, &self.listener).run();
            // No more jobs will arrive; let idle workers exit.
            shared.pool_stop.store(true, Ordering::SeqCst);
            shared.jobs_ready.notify_all();
        });
        Ok(())
    }
}

/// One pool worker: pop a job, execute it, report back, ring the loop.
fn pool_worker(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.jobs.lock().expect("job queue lock");
            loop {
                if let Some(j) = queue.pop_front() {
                    break Some(j);
                }
                if shared.pool_stop.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.jobs_ready.wait(queue).expect("job queue lock");
            }
        };
        let Some(job) = job else { return };
        let completion = match job.work {
            JobWork::Compile(req, key) => {
                let model = model_label(&req);
                shared.bus.emit(ServeEvent::CompileStart {
                    batch: key.to_string(),
                    model: model.clone(),
                });
                let started = Instant::now();
                let fleet = shared.fleet.get().map(Arc::as_ref);
                let result = execute_with_peers(
                    &req,
                    &shared.cache,
                    job.deadline,
                    fleet,
                    Some(&shared.bus),
                );
                let compile_ms = started.elapsed().as_secs_f64() * 1e3;
                let outcome = match &result {
                    Ok((_, o)) => o.as_str().to_string(),
                    Err(_) => "error".to_string(),
                };
                shared.bus.emit(ServeEvent::CompileFinish {
                    batch: key.to_string(),
                    model,
                    compile_ms,
                    outcome,
                });
                Completion {
                    job_id: job.id,
                    key: Some(key),
                    result: result.map(|(r, o)| JobOutput::Compile(Arc::new(r), o)),
                    compile_ms,
                }
            }
            JobWork::FleetStats => {
                let started = Instant::now();
                let fleet = shared.fleet.get().map(Arc::as_ref);
                let agg = aggregate_stats(fleet, shared.stats(), Some(&shared.bus));
                Completion {
                    job_id: job.id,
                    key: None,
                    result: Ok(JobOutput::FleetStats(Box::new(agg))),
                    compile_ms: started.elapsed().as_secs_f64() * 1e3,
                }
            }
        };
        shared.completions.lock().expect("completion list lock").push(completion);
        shared.waker.wake();
    }
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

/// A buffered nonblocking writer: frames append at the back, a cursor
/// tracks how far the kernel has accepted. A torn write mid-frame
/// simply leaves the cursor inside the frame; the next writable event
/// resumes exactly there.
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl OutBuf {
    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn push(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix before growing, so a long-lived
        // chatty connection doesn't accrete its whole history.
        if self.pos > 0 && (self.is_empty() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Writes as much as the socket accepts. `Ok(true)` when fully
    /// flushed, `Ok(false)` on `WouldBlock` with bytes remaining.
    fn flush_to(&mut self, w: &mut impl Write) -> std::io::Result<bool> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

/// One ordered response slot. Responses leave in request order: the
/// front slot must be `Ready` before anything behind it ships.
enum Slot {
    /// Waiting on a pool completion.
    Pending { req_id: u64 },
    /// Encoded and ready to ship.
    Ready { frame: Vec<u8> },
}

/// Per-connection state machine.
struct Conn {
    id: u64,
    stream: TcpStream,
    reader: FrameReader,
    out: OutBuf,
    /// In-order response slots for every admitted request.
    slots: VecDeque<Slot>,
    /// Peer closed its write half; serve out the pipeline, then drop.
    read_closed: bool,
    /// Close as soon as `out` drains (framing violation or drain).
    closing: bool,
    /// Receives streamed event frames.
    subscriber: bool,
}

impl Conn {
    fn has_pending(&self) -> bool {
        self.slots.iter().any(|s| matches!(s, Slot::Pending { .. }))
    }

    /// The interest this connection currently needs.
    fn interest(&self) -> Interest {
        Interest { readable: !self.read_closed && !self.closing, writable: !self.out.is_empty() }
    }
}

/// A request waiting on a job: which slot of which connection.
struct Member {
    token: Token,
    req_id: u64,
    kind: &'static str,
    admitted: Instant,
    /// Followers joined an in-flight batch; their provenance says so.
    leader: bool,
}

/// What a compile request with a given [`batch_key`] meets.
enum Batch {
    /// A pool job is producing the result; requests join it.
    InFlight(u64),
    /// The result a job returned for this key; repeats are answered
    /// with it on the loop thread.
    Finished(Arc<CompileResult>),
}

/// The coalescing index, owned by the loop thread alone: batch
/// fingerprint → the job in flight for it, or the result that job
/// finished with.
#[derive(Default)]
struct BatchIndex {
    entries: HashMap<Fingerprint, Batch>,
    /// Keys of the `Finished` entries, oldest first: the eviction
    /// order that holds them to [`FINISHED_CAP`].
    finished: VecDeque<Fingerprint>,
}

impl BatchIndex {
    fn get(&self, key: Fingerprint) -> Option<&Batch> {
        self.entries.get(&key)
    }

    /// Job `job_id` was dispatched for `key` and accepts joiners. (Never
    /// over a finished entry: those are answered, not dispatched.)
    fn dispatched(&mut self, key: Fingerprint, job_id: u64) {
        self.entries.insert(key, Batch::InFlight(job_id));
    }

    /// Job `job_id` for `key` is over. A result to keep replaces
    /// whatever the key held (any job's result for it is the same
    /// bytes); otherwise the key stops naming this job, so the next
    /// request dispatches afresh.
    fn settled(&mut self, key: Fingerprint, job_id: u64, keep: Option<Arc<CompileResult>>) {
        let Some(result) = keep else {
            if matches!(self.entries.get(&key), Some(Batch::InFlight(id)) if *id == job_id) {
                self.entries.remove(&key);
            }
            return;
        };
        if !matches!(self.entries.insert(key, Batch::Finished(result)), Some(Batch::Finished(_))) {
            self.finished.push_back(key);
        }
        while self.finished.len() > FINISHED_CAP {
            let oldest = self.finished.pop_front().expect("a non-empty queue");
            self.entries.remove(&oldest);
        }
    }
}

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);

struct EventLoop<'a> {
    shared: &'a Shared,
    listener: &'a TcpListener,
    poller: Poller,
    conns: HashMap<Token, Conn>,
    /// Loop-side job bookkeeping: who to answer when `job_id` lands.
    members: HashMap<u64, Vec<Member>>,
    batch_index: BatchIndex,
    /// Whether finished results may be replayed: not when the operator
    /// disabled the cache or asked for every hit to be verified — both
    /// promise that each request reaches `execute_with_peers`.
    keep_finished: bool,
    next_token: usize,
    next_conn_id: u64,
    next_req_id: u64,
    next_job_id: u64,
    /// The drain event fired (only once).
    drain_emitted: bool,
    accepting: bool,
}

impl<'a> EventLoop<'a> {
    fn new(shared: &'a Shared, listener: &'a TcpListener) -> EventLoop<'a> {
        let mut poller = Poller::new();
        poller.register(listener, LISTENER, Interest::READ);
        poller.register(shared.waker.reader(), WAKER, Interest::READ);
        EventLoop {
            shared,
            listener,
            poller,
            conns: HashMap::new(),
            members: HashMap::new(),
            batch_index: BatchIndex::default(),
            keep_finished: shared.cache.is_enabled() && !shared.cache.verifies_hits(),
            next_token: 2,
            next_conn_id: 0,
            next_req_id: 0,
            next_job_id: 0,
            drain_emitted: false,
            accepting: true,
        }
    }

    fn run(&mut self) {
        loop {
            let ready: Vec<crate::reactor::Event> =
                self.poller.poll(POLL_INTERVAL).to_vec();
            for ev in ready {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKER => self.shared.waker.drain(),
                    token => self.conn_ready(token, ev.readable, ev.writable, ev.hangup),
                }
            }
            self.deliver_completions();
            self.on_drain_edge();
            self.stream_to_subscribers();
            if self.drained() {
                return;
            }
        }
    }

    /// Notices the drain flag flipping (from a signal handler, a
    /// shutdown request, or a listener error): emits the drain event,
    /// stops accepting.
    fn on_drain_edge(&mut self) {
        if !self.shared.is_draining() {
            return;
        }
        if !self.drain_emitted {
            // A shutdown *request* emits its own drain with a precise
            // reason before setting the flag; reaching here means the
            // flag flipped externally.
            self.emit_drain("signal");
        }
        if self.accepting {
            self.accepting = false;
            self.poller.deregister(LISTENER);
        }
    }

    fn emit_drain(&mut self, reason: &str) {
        if !self.drain_emitted {
            self.drain_emitted = true;
            self.shared.bus.emit(ServeEvent::Drain { reason: reason.to_string() });
        }
    }

    /// Drained means: flag set, no job will ever complete again, and
    /// every answer a peer can still receive has been handed to the
    /// kernel. Subscriber backlogs don't hold the process hostage.
    fn drained(&mut self) -> bool {
        if !self.shared.is_draining() || !self.members.is_empty() {
            return false;
        }
        if self.shared.queued_jobs() > 0 || !self.shared.completions.lock().expect("completion list lock").is_empty() {
            return false;
        }
        if self.conns.values().any(|c| !c.subscriber && (!c.out.is_empty() || c.has_pending())) {
            return false;
        }
        // Best-effort final flush for subscribers, then close everyone.
        let tokens: Vec<Token> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                let _ = conn.out.flush_to(&mut conn.stream);
            }
            self.drop_conn(token);
        }
        true
    }

    // -- accept ------------------------------------------------------------

    fn accept_ready(&mut self) {
        if !self.accepting {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.accept_one(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // A fatal listener error drains the server rather
                    // than leaving it half-alive.
                    eprintln!("overlapd: listener error: {e}; draining");
                    self.emit_drain("listener-error");
                    self.shared.draining.store(true, Ordering::SeqCst);
                    return;
                }
            }
        }
    }

    fn accept_one(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        self.next_conn_id += 1;
        let id = self.next_conn_id;
        let token = Token(self.next_token);
        self.next_token += 1;
        self.poller.register(&stream, token, Interest::READ);
        self.conns.insert(
            token,
            Conn {
                id,
                stream,
                reader: FrameReader::new(),
                out: OutBuf::default(),
                slots: VecDeque::new(),
                read_closed: false,
                closing: false,
                subscriber: false,
            },
        );
        self.shared.bus.emit(ServeEvent::Accept { conn: id });
    }

    // -- per-connection readiness ------------------------------------------

    fn conn_ready(&mut self, token: Token, readable: bool, writable: bool, hangup: bool) {
        if !self.conns.contains_key(&token) {
            return;
        }
        if readable {
            self.read_ready(token);
        }
        if writable {
            self.write_ready(token);
        }
        let Some(conn) = self.conns.get_mut(&token) else { return };
        // A hangup with nothing left to read means the peer is gone for
        // good; pending work for it is undeliverable.
        if hangup && !readable {
            self.drop_conn(token);
            return;
        }
        let done = conn.out.is_empty();
        if (conn.closing && done)
            || (conn.read_closed && done && conn.slots.is_empty() && !conn.subscriber)
        {
            self.drop_conn(token);
            return;
        }
        let interest = conn.interest();
        self.poller.set_interest(token, interest);
    }

    /// Drains every buffered frame off the socket (level-triggered:
    /// stop only at `WouldBlock`, never leave bytes behind).
    fn read_ready(&mut self, token: Token) {
        // A frame found buffered behind another was written before its
        // predecessor's answer could have been read: wire pipelining,
        // even when that answer has already left on the loop thread.
        let mut behind = false;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.closing {
                return;
            }
            match conn.reader.poll(&mut conn.stream) {
                FrameEvent::Frame(payload) => {
                    self.admit_frame(token, &payload, behind);
                    behind = true;
                }
                FrameEvent::Idle => return,
                FrameEvent::Closed => {
                    let Some(conn) = self.conns.get_mut(&token) else { return };
                    conn.read_closed = true;
                    return;
                }
                FrameEvent::Error(e) => {
                    // After a framing violation the stream offset is
                    // unknowable; answer if possible, then close once
                    // the pipeline ahead of the answer flushes.
                    if let Some(kind) = e.to_error_kind() {
                        let resp =
                            Response::Error(ErrorResponse { kind, message: e.to_string() });
                        self.next_req_id += 1;
                        let req_id = self.next_req_id;
                        self.fill_inline(token, req_id, "error", &resp, false);
                    }
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.closing = true;
                    }
                    return;
                }
            }
        }
    }

    fn write_ready(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.out.flush_to(&mut conn.stream).is_err() {
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: Token) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.deregister(token);
            if conn.subscriber {
                self.shared.hub.unsubscribe(conn.id);
            }
            self.shared.bus.emit(ServeEvent::Close { conn: conn.id });
        }
    }

    // -- admission ----------------------------------------------------------

    /// One decoded frame becomes one ordered response slot.
    fn admit_frame(&mut self, token: Token, payload: &Json, behind: bool) {
        self.next_req_id += 1;
        let req_id = self.next_req_id;
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let conn_id = conn.id;
        let pipelined = behind || !conn.slots.is_empty();
        let admitted = Instant::now();
        let request = Request::from_json(payload);
        let kind = match &request {
            Ok(Request::Compile(_)) => "compile",
            Ok(Request::Stats) => "stats",
            Ok(Request::Fetch { .. }) => "fetch",
            Ok(Request::FleetStats) => "fleet-stats",
            Ok(Request::Ping) => "ping",
            Ok(Request::Shutdown) => "shutdown",
            Ok(Request::Subscribe) => "subscribe",
            Err(_) => "invalid",
        };
        self.shared.bus.emit(ServeEvent::Admit {
            conn: conn_id,
            req: req_id,
            kind: kind.to_string(),
            pipelined,
        });
        match request {
            Ok(Request::Compile(req)) => {
                self.admit_compile(token, req_id, admitted, req);
            }
            Ok(Request::Ping) => self.fill_inline(token, req_id, kind, &Response::Pong, true),
            Ok(Request::Stats) => {
                let resp = Response::Stats(Box::new(self.shared.stats()));
                self.fill_inline(token, req_id, kind, &resp, true);
            }
            Ok(Request::Fetch { key }) => {
                // Cache peering: answer from the local tiers only,
                // never compile and never re-fetch — a fetch must be
                // cheap and must not recurse across the fleet.
                let entry = Fingerprint::from_hex(&key)
                    .and_then(|fp| self.shared.cache.export_entry(fp));
                self.shared.bus.emit(ServeEvent::Fetch {
                    conn: conn_id,
                    req: req_id,
                    key: key.clone(),
                    hit: entry.is_some(),
                });
                let resp = Response::Artifact(Box::new(ArtifactResponse { key, entry }));
                self.fill_inline(token, req_id, kind, &resp, true);
            }
            Ok(Request::FleetStats) => self.admit_fleet_stats(token, req_id, admitted),
            Ok(Request::Shutdown) => {
                self.emit_drain("shutdown-request");
                self.shared.draining.store(true, Ordering::SeqCst);
                self.fill_inline(token, req_id, kind, &Response::ShuttingDown, true);
            }
            Ok(Request::Subscribe) => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.subscriber = true;
                    self.shared.hub.subscribe(conn_id);
                }
                self.fill_inline(token, req_id, kind, &Response::Subscribed, true);
            }
            Err(e) => {
                let resp = Response::Error(ErrorResponse {
                    kind: ErrorKind::InvalidRequest,
                    message: e,
                });
                self.fill_inline(token, req_id, kind, &resp, false);
            }
        }
    }

    /// Inline requests (everything but compile) answer on the spot —
    /// but still through a slot, so pipelined ordering holds.
    fn fill_inline(
        &mut self,
        token: Token,
        req_id: u64,
        kind: &'static str,
        resp: &Response,
        ok: bool,
    ) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let conn_id = conn.id;
        let started = Instant::now();
        let frame = encode_frame(&resp.to_json());
        let serialize_ms = started.elapsed().as_secs_f64() * 1e3;
        conn.slots.push_back(Slot::Ready { frame });
        self.shared.bus.emit(ServeEvent::Done {
            conn: conn_id,
            req: req_id,
            kind: kind.to_string(),
            ok,
            queue_ms: 0.0,
            compile_ms: 0.0,
            serialize_ms,
        });
        self.ship(token);
    }

    fn admit_compile(
        &mut self,
        token: Token,
        req_id: u64,
        admitted: Instant,
        req: Box<CompileRequest>,
    ) {
        if self.shared.is_draining() {
            let resp = Response::Error(ErrorResponse {
                kind: ErrorKind::ShuttingDown,
                message: "server is draining".to_string(),
            });
            self.fill_inline(token, req_id, "compile", &resp, false);
            return;
        }
        let deadline = Deadline::from_request(req.deadline_ms);
        // The index first: a finished result or an in-flight job needs
        // no worker, so neither is subject to queue-depth shedding.
        let key = batch_key(&req);
        let joins = req.deadline_ms.is_none();
        match self.batch_index.get(key) {
            Some(Batch::Finished(result)) => {
                let output = Ok(JobOutput::Compile(Arc::clone(result), CacheOutcome::MemoryHit));
                self.shared.metrics.loop_hits.fetch_add(1, Ordering::Relaxed);
                self.park(token, req_id);
                let member = Member { token, req_id, kind: "compile", admitted, leader: true };
                let lookup_ms = admitted.elapsed().as_secs_f64() * 1e3;
                self.answer_member(&member, &output, lookup_ms);
                return;
            }
            Some(&Batch::InFlight(job_id)) if joins => {
                if let Some(members) = self.members.get_mut(&job_id) {
                    members.push(Member {
                        token,
                        req_id,
                        kind: "compile",
                        admitted,
                        leader: false,
                    });
                    self.park(token, req_id);
                    let conn_id = self.conns.get(&token).map_or(0, |c| c.id);
                    self.shared.bus.emit(ServeEvent::BatchCoalesce {
                        conn: conn_id,
                        req: req_id,
                        batch: key.to_string(),
                    });
                    return;
                }
            }
            _ => {}
        }
        if self.shared.queued_jobs() >= self.shared.queue_depth {
            let conn_id = self.conns.get(&token).map_or(0, |c| c.id);
            self.shared
                .bus
                .emit(ServeEvent::Shed { conn: conn_id, scope: "request".to_string() });
            let resp = Response::Error(ErrorResponse {
                kind: ErrorKind::Overloaded,
                message: "compile queue full; retry later".to_string(),
            });
            self.fill_inline(token, req_id, "compile", &resp, false);
            return;
        }
        self.next_job_id += 1;
        let job_id = self.next_job_id;
        if joins {
            self.batch_index.dispatched(key, job_id);
        }
        self.members.insert(
            job_id,
            vec![Member { token, req_id, kind: "compile", admitted, leader: true }],
        );
        self.park(token, req_id);
        {
            let mut queue = self.shared.jobs.lock().expect("job queue lock");
            queue.push_back(Job { id: job_id, work: JobWork::Compile(req, key), deadline });
        }
        self.shared.jobs_ready.notify_one();
    }

    /// Reserves the request's place in its connection's response order.
    fn park(&mut self, token: Token, req_id: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.slots.push_back(Slot::Pending { req_id });
        }
    }

    /// `fleet-stats` fans out to peer sockets, so it runs on the pool
    /// like a compile. It is deliberately *not* refused during a drain
    /// and not shed under queue pressure: it is how operators watch a
    /// drain converge, and [`EventLoop::drained`] already waits for
    /// every queued job.
    fn admit_fleet_stats(&mut self, token: Token, req_id: u64, admitted: Instant) {
        self.next_job_id += 1;
        let job_id = self.next_job_id;
        self.members.insert(
            job_id,
            vec![Member { token, req_id, kind: "fleet-stats", admitted, leader: true }],
        );
        self.park(token, req_id);
        {
            let mut queue = self.shared.jobs.lock().expect("job queue lock");
            queue.push_back(Job {
                id: job_id,
                work: JobWork::FleetStats,
                deadline: Deadline::none(),
            });
        }
        self.shared.jobs_ready.notify_one();
    }

    // -- completion delivery -------------------------------------------------

    fn deliver_completions(&mut self) {
        let completions: Vec<Completion> =
            std::mem::take(&mut *self.shared.completions.lock().expect("completion list lock"));
        for Completion { job_id, key, result, compile_ms } in completions {
            if let Some(key) = key {
                // The key's window moves from in flight to finished —
                // or closes, on an error or when nothing may be kept.
                let keep = match &result {
                    Ok(JobOutput::Compile(r, _)) if self.keep_finished => Some(Arc::clone(r)),
                    _ => None,
                };
                self.batch_index.settled(key, job_id, keep);
            }
            for member in self.members.remove(&job_id).unwrap_or_default() {
                self.answer_member(&member, &result, compile_ms);
            }
        }
    }

    /// Builds one member's response from a job's outcome — just
    /// delivered by the pool, or found finished in the index — and
    /// fills its slot. `compile_ms` is what producing the answer took.
    fn answer_member(
        &mut self,
        member: &Member,
        result: &Result<JobOutput, ExecError>,
        compile_ms: f64,
    ) {
        let Some(conn) = self.conns.get_mut(&member.token) else { return };
        let conn_id = conn.id;
        // A member that joined a job already under way waited for only
        // the rest of it: never report more service than its own wait.
        let total_ms = member.admitted.elapsed().as_secs_f64() * 1e3;
        let service_ms = compile_ms.min(total_ms);
        let queue_ms = total_ms - service_ms;
        let (resp, ok, source) = match result {
            Ok(JobOutput::Compile(result, outcome)) => {
                let source = if member.leader {
                    outcome.as_str().to_string()
                } else {
                    "coalesced".to_string()
                };
                (
                    Response::Compiled(Box::new(CompileResponse {
                        result: (**result).clone(),
                        served: ServedInfo {
                            source: source.clone(),
                            queue_ms,
                            service_ms,
                        },
                    })),
                    true,
                    Some(source),
                )
            }
            Ok(JobOutput::FleetStats(agg)) => {
                (Response::FleetStats(agg.clone()), true, None)
            }
            Err(e) => (
                Response::Error(ErrorResponse { kind: e.kind, message: e.message.clone() }),
                false,
                None,
            ),
        };
        let started = Instant::now();
        let frame = encode_frame(&resp.to_json());
        let serialize_ms = started.elapsed().as_secs_f64() * 1e3;
        // Fill the matching slot (it is Pending; order within the
        // conn's pipeline is preserved because slots never reorder).
        for slot in &mut conn.slots {
            if matches!(slot, Slot::Pending { req_id } if *req_id == member.req_id) {
                *slot = Slot::Ready { frame };
                break;
            }
        }
        if let Some(source) = source {
            self.shared.bus.emit(ServeEvent::CacheOutcome {
                conn: conn_id,
                req: member.req_id,
                source,
            });
        }
        self.shared.bus.emit(ServeEvent::Done {
            conn: conn_id,
            req: member.req_id,
            kind: member.kind.to_string(),
            ok,
            queue_ms,
            compile_ms: service_ms,
            serialize_ms,
        });
        self.ship(member.token);
    }

    /// Moves every leading `Ready` slot into the out buffer (request
    /// order!), flushes what the socket accepts, updates interest.
    fn ship(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        while let Some(Slot::Ready { .. }) = conn.slots.front() {
            let Some(Slot::Ready { frame }) = conn.slots.pop_front() else { unreachable!() };
            conn.out.push(&frame);
        }
        if conn.out.flush_to(&mut conn.stream).is_err() {
            self.drop_conn(token);
            return;
        }
        let Some(conn) = self.conns.get(&token) else { return };
        let finished = conn.out.is_empty() && !conn.has_pending();
        if finished && (conn.closing || (conn.read_closed && conn.slots.is_empty() && !conn.subscriber)) {
            self.drop_conn(token);
            return;
        }
        let interest = conn.interest();
        self.poller.set_interest(token, interest);
    }

    /// Forwards queued event frames to subscriber connections.
    fn stream_to_subscribers(&mut self) {
        if !self.shared.hub.is_active() {
            return;
        }
        let by_id: HashMap<u64, Token> =
            self.conns.iter().map(|(&t, c)| (c.id, t)).collect();
        for (conn_id, frames) in self.shared.hub.take_pending() {
            let Some(&token) = by_id.get(&conn_id) else {
                self.shared.hub.unsubscribe(conn_id);
                continue;
            };
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            for payload in frames {
                conn.out.push(&frame_payload_str(&payload));
            }
            if conn.out.flush_to(&mut conn.stream).is_err() {
                self.drop_conn(token);
                continue;
            }
            if let Some(conn) = self.conns.get(&token) {
                let interest = conn.interest();
                self.poller.set_interest(token, interest);
            }
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pathological nonblocking socket: accepts at most `cap` bytes
    /// per call, only while `budget` lasts, `WouldBlock` otherwise.
    struct ShortWriter {
        accepted: Vec<u8>,
        cap: usize,
        budget: usize,
    }

    impl ShortWriter {
        fn new(cap: usize) -> ShortWriter {
            ShortWriter { accepted: Vec::new(), cap, budget: 0 }
        }
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.cap).min(self.budget);
            if n == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.budget -= n;
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn outbuf_resumes_mid_frame_after_torn_writes() {
        let mut out = OutBuf::default();
        let frame_a = frame_payload_str("{\"response\":\"pong\"}");
        let frame_b = frame_payload_str("{\"response\":\"subscribed\"}");
        out.push(&frame_a);
        out.push(&frame_b);
        let total = frame_a.len() + frame_b.len();
        let mut w = ShortWriter::new(3);
        // Dribble the budget out three bytes at a time: every flush
        // tears mid-frame, and the cursor must resume exactly where
        // the kernel stopped accepting.
        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(rounds < 1000, "flush never completed");
            w.budget += 3;
            match out.flush_to(&mut w) {
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => panic!("flush failed: {e}"),
            }
        }
        let mut expect = frame_a.clone();
        expect.extend_from_slice(&frame_b);
        assert_eq!(w.accepted.len(), total);
        assert_eq!(w.accepted, expect, "bytes must arrive exactly once, in order");
        assert!(out.is_empty());
    }

    #[test]
    fn outbuf_push_after_partial_flush_keeps_order() {
        let mut out = OutBuf::default();
        out.push(b"aaaa");
        let mut w = ShortWriter::new(64);
        w.budget = 2; // the socket accepts 2 of 4 bytes, then stalls
        assert!(!out.flush_to(&mut w).unwrap());
        out.push(b"bbbb"); // a new frame lands while the old is torn
        w.budget = 64;
        assert!(out.flush_to(&mut w).unwrap());
        assert_eq!(&w.accepted, b"aaaabbbb");
        assert!(out.is_empty());
    }

    #[test]
    fn finished_entries_are_capped_and_never_cost_an_in_flight_one() {
        let (result, _) = crate::exec::execute(
            &CompileRequest::named("GPT_32B"),
            &ArtifactCache::in_memory(),
            Deadline::none(),
        )
        .unwrap();
        let result = Arc::new(result);
        let key = |i: usize| {
            let mut h = overlap_json::StableHasher::new("batch-index-test");
            h.write_usize(i);
            h.finish()
        };
        let finished = |index: &BatchIndex, i| matches!(index.get(key(i)), Some(Batch::Finished(_)));

        // A job in flight since before anything finished.
        let mut index = BatchIndex::default();
        index.dispatched(key(0), 7);
        let extra = 5;
        for i in 1..=FINISHED_CAP + extra {
            index.dispatched(key(i), 100 + i as u64);
            index.settled(key(i), 100 + i as u64, Some(Arc::clone(&result)));
        }
        assert_eq!(index.finished.len(), FINISHED_CAP);
        assert_eq!(index.entries.len(), FINISHED_CAP + 1);
        assert!(matches!(index.get(key(0)), Some(Batch::InFlight(7))));
        // The oldest results went; looking one up finds nothing, so its
        // next request dispatches — and the result is kept once more.
        assert!((1..=extra).all(|i| index.get(key(i)).is_none()));
        assert!(finished(&index, extra + 1));
        index.dispatched(key(1), 8);
        index.settled(key(1), 8, Some(Arc::clone(&result)));
        assert!(finished(&index, 1) && !finished(&index, extra + 1));
        assert_eq!(index.finished.len(), FINISHED_CAP);

        // A job that leaves nothing to keep closes its own window only.
        index.settled(key(0), 9, None);
        assert!(matches!(index.get(key(0)), Some(Batch::InFlight(7))));
        index.settled(key(0), 7, None);
        assert!(index.get(key(0)).is_none());
        // A second result for a finished key is the same bytes, not a
        // second entry.
        index.settled(key(1), 10, Some(result));
        assert_eq!(index.finished.len(), FINISHED_CAP);
    }

    #[test]
    fn default_config_reads_env_knobs() {
        std::env::set_var("OVERLAP_SERVE_WORKERS", "3");
        std::env::set_var("OVERLAP_SERVE_QUEUE", "17");
        let cfg = ServeConfig::default();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_depth, 17);
        std::env::remove_var("OVERLAP_SERVE_WORKERS");
        std::env::remove_var("OVERLAP_SERVE_QUEUE");
        let cfg = ServeConfig::default();
        assert!(cfg.workers >= 1, "cores-derived default must be positive");
        assert_eq!(cfg.queue_depth, 4 * cfg.workers);
    }
}
