//! The fleet layer: N cooperating overlapd daemons behind one hash
//! ring.
//!
//! One daemon compiles each artifact; everyone else *fetches*. The
//! pieces:
//!
//! * [`HashRing`] — consistent hashing of artifact [`Fingerprint`]s
//!   onto node indices, with virtual nodes so membership changes move
//!   ~1/N of the keyspace instead of reshuffling everything. The ring
//!   is a pure function of `(node count, virtual-node count)`: every
//!   router and every daemon derives the identical ring, so "who owns
//!   this key" needs no coordination traffic.
//! * [`NodeHealth`] — the per-peer failure tracker: consecutive
//!   failures eject a node, an ejected node is skipped outright (a
//!   dead peer must cost nothing per request), and after a probation
//!   interval one probe is allowed back through; success re-admits,
//!   failure re-ejects.
//! * [`RetryPolicy`] — capped exponential backoff with *seeded* jitter
//!   (a counter-based `splitmix64`, no global RNG), so identically
//!   seeded runs replay identical delays and the fleet smoke can
//!   assert byte-identical outcomes.
//! * [`FleetState`] — a daemon's view of its fleet: ring + health +
//!   peer addresses. Its [`PeerFetcher`] is the cache's peer tier —
//!   on a local miss it asks the key's owner (then, past the hedge
//!   timeout, the ring successor) for the versioned JSON entry, which
//!   the cache revalidates as thoroughly as a disk file before
//!   serving. [`aggregate_stats`] fans a stats probe across the fleet
//!   and merges histograms bucket-by-bucket.
//! * [`Router`] / [`RouterSession`] — the client side: route each
//!   compile to its owner, fail over along the ring when the owner is
//!   down or draining, retry sheds with backoff.
//! * [`FleetHarness`] — N real servers on ephemeral ports inside one
//!   process, for tests; `ci.sh` runs the same topology as separate
//!   `overlapd --fleet` processes and SIGKILLs one.
//!
//! The failure matrix, in short: a *shed* retries the same node after
//! a backoff; a *draining* or *unreachable* node fails over to the
//! next ring node and counts toward ejection; a *slow* peer fetch
//! hedges to the successor after the I/O timeout; a *corrupt* peer
//! entry is skipped (never retried — the next candidate is asked
//! instead); a *permanent* typed error (unknown model, invalid spec)
//! is the caller's answer, whoever serves it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use overlap_core::ArtifactCache;
use overlap_json::{Fingerprint, Json, StableHasher};

use crate::client::{Client, ClientError};
use crate::events::{EventBus, ServeEvent};
use crate::exec::batch_key;
use crate::protocol::{
    CompileRequest, CompileResponse, ErrorKind, FleetNodeStatus, FleetStatsResponse,
    LatencySummary, Request, Response, StatsResponse,
};
use crate::server::{ServeConfig, Server, ShutdownHandle};
use overlap_sim::Histogram;

/// The stable id of fleet node `index`.
#[must_use]
pub fn node_id(index: usize) -> String {
    format!("node-{index}")
}

/// `splitmix64`: the jitter source. Counter-based and stateless, like
/// the fault model's draws — two runs with equal seeds see equal
/// delays.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// Hash ring
// ---------------------------------------------------------------------------

/// Consistent hashing of 128-bit fingerprints onto node indices.
///
/// Each node contributes `vnodes` points hashed from `(index,
/// replica)` under a versioned domain; a key is owned by the first
/// point clockwise from its own hash. Determinism is the load-bearing
/// property: every participant builds the ring independently and must
/// agree on every owner.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, node index)`, sorted by point.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    /// A ring over `nodes` nodes with `vnodes` virtual points each.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `vnodes` is zero — an empty ring owns
    /// nothing.
    #[must_use]
    pub fn new(nodes: usize, vnodes: usize) -> HashRing {
        assert!(nodes > 0, "a hash ring needs at least one node");
        assert!(vnodes > 0, "a hash ring needs at least one virtual node per node");
        let mut points = Vec::with_capacity(nodes * vnodes);
        for node in 0..nodes {
            for replica in 0..vnodes {
                let mut h = StableHasher::new("serve-fleet-ring/1");
                h.write_u64(node as u64);
                h.write_u64(replica as u64);
                points.push((fold_u128(h.finish().as_u128()), node));
            }
        }
        points.sort_unstable();
        HashRing { points, nodes }
    }

    /// Fleet size.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The owner of `key`.
    #[must_use]
    pub fn owner(&self, key: Fingerprint) -> usize {
        self.points[self.position(key)].1
    }

    /// Every node, in ring order starting at the owner of `key` — the
    /// failover order: owner first, then successors.
    #[must_use]
    pub fn route(&self, key: Fingerprint) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes);
        let start = self.position(key);
        for offset in 0..self.points.len() {
            let node = self.points[(start + offset) % self.points.len()].1;
            if !order.contains(&node) {
                order.push(node);
                if order.len() == self.nodes {
                    break;
                }
            }
        }
        order
    }

    fn position(&self, key: Fingerprint) -> usize {
        let point = fold_u128(key.as_u128());
        match self.points.binary_search_by(|probe| probe.0.cmp(&point)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0,
            Err(i) => i,
        }
    }
}

/// Folds a 128-bit fingerprint onto the 64-bit ring keyspace.
fn fold_u128(x: u128) -> u64 {
    (x as u64) ^ ((x >> 64) as u64)
}

// ---------------------------------------------------------------------------
// Health tracking
// ---------------------------------------------------------------------------

/// When to eject a failing peer and when to let it audition again.
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Consecutive failures before ejection.
    pub eject_after: u32,
    /// How long an ejected node is skipped before one probe is
    /// allowed back through.
    pub probation: Duration,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy { eject_after: 3, probation: Duration::from_millis(500) }
    }
}

/// Where a peer stands in the failure tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Answering normally.
    Alive,
    /// Ejected, but the probation interval has elapsed: the next
    /// request may probe it. Success re-admits, failure re-ejects.
    Probation,
    /// Skipped without being tried.
    Ejected,
}

impl HealthState {
    /// The stable wire/event tag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Alive => "alive",
            HealthState::Probation => "probation",
            HealthState::Ejected => "ejected",
        }
    }
}

/// One peer's failure tracker. The state machine:
/// `alive --(eject_after consecutive failures)--> ejected
/// --(probation elapses)--> probation --success--> alive` (or
/// `--failure--> ejected` again, timer reset).
#[derive(Debug, Clone, Default)]
pub struct NodeHealth {
    consecutive_failures: u32,
    ejected_at: Option<Instant>,
    probing: bool,
}

impl NodeHealth {
    /// The current state under `policy`.
    #[must_use]
    pub fn state(&self, policy: &HealthPolicy) -> HealthState {
        match self.ejected_at {
            None => HealthState::Alive,
            Some(at) if at.elapsed() >= policy.probation => HealthState::Probation,
            Some(_) => HealthState::Ejected,
        }
    }

    /// Whether a request should try this node now. Ejected nodes are
    /// skipped; a node in probation admits one probe at a time.
    pub fn usable(&mut self, policy: &HealthPolicy) -> bool {
        match self.state(policy) {
            HealthState::Alive => true,
            HealthState::Ejected => false,
            HealthState::Probation => {
                if self.probing {
                    false
                } else {
                    self.probing = true;
                    true
                }
            }
        }
    }

    /// Records a success; returns the new state (always alive).
    pub fn on_success(&mut self) -> HealthState {
        self.consecutive_failures = 0;
        self.ejected_at = None;
        self.probing = false;
        HealthState::Alive
    }

    /// Records a failure; returns the new state under `policy`.
    pub fn on_failure(&mut self, policy: &HealthPolicy) -> HealthState {
        self.consecutive_failures += 1;
        self.probing = false;
        if self.consecutive_failures >= policy.eject_after || self.ejected_at.is_some() {
            // A probation probe that fails re-ejects with a fresh
            // timer; an alive node crosses the threshold.
            self.ejected_at = Some(Instant::now());
        }
        self.state(policy)
    }
}

/// A shared, lock-guarded failure tracker over `n` peers that emits
/// `peer-state` events on transitions.
struct HealthTable {
    policy: HealthPolicy,
    nodes: Mutex<Vec<NodeHealth>>,
}

impl HealthTable {
    fn new(n: usize, policy: HealthPolicy) -> HealthTable {
        HealthTable { policy, nodes: Mutex::new(vec![NodeHealth::default(); n]) }
    }

    fn usable(&self, idx: usize) -> bool {
        self.nodes.lock().expect("health lock")[idx].usable(&self.policy)
    }

    fn record(&self, idx: usize, ok: bool, bus: Option<&EventBus>) {
        let mut nodes = self.nodes.lock().expect("health lock");
        let before = nodes[idx].state(&self.policy);
        let after =
            if ok { nodes[idx].on_success() } else { nodes[idx].on_failure(&self.policy) };
        drop(nodes);
        if before != after {
            if let Some(bus) = bus {
                bus.emit(ServeEvent::PeerState {
                    node: node_id(idx),
                    state: after.as_str().to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Capped exponential backoff with seeded jitter.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts per target (1 = no retry).
    pub attempts: u32,
    /// Backoff before the second attempt.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Jitter seed; equal seeds draw equal jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (1-based: the delay
    /// after the first failure is `delay(1, ..)`): `base * 2^(a-1)`
    /// capped at `cap`, plus up to half of itself in seeded jitter so
    /// a thundering herd of retries decorrelates deterministically.
    #[must_use]
    pub fn delay(&self, attempt: u32, salt: u64) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let backoff = self.base.saturating_mul(1 << shift).min(self.cap);
        let jitter_space = (backoff.as_millis() as u64 / 2).max(1);
        let jitter = mix64(self.seed ^ salt.rotate_left(17) ^ u64::from(attempt)) % jitter_space;
        backoff + Duration::from_millis(jitter)
    }
}

// ---------------------------------------------------------------------------
// Daemon-side fleet state
// ---------------------------------------------------------------------------

/// How a daemon joins a fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// This daemon's index into `addrs`.
    pub node_index: usize,
    /// Every fleet member's address, index-aligned (including self).
    pub addrs: Vec<String>,
    /// Virtual nodes per member; all members must agree.
    pub vnodes: usize,
    /// Per-attempt connect + read deadline for peer traffic. Doubles
    /// as the hedge threshold: a fetch that outlives it moves to the
    /// ring successor.
    pub io_timeout: Duration,
    /// Backoff for transient peer-fetch failures.
    pub retry: RetryPolicy,
    /// Ejection/probation thresholds for peers.
    pub health: HealthPolicy,
}

/// Virtual nodes per member. 64 keeps owner shares within a few
/// percent of uniform at fleet sizes this layer targets, and ring
/// construction is O(N·64·log) once at startup.
pub const DEFAULT_VNODES: usize = 64;

impl FleetConfig {
    /// A config with the default knobs.
    #[must_use]
    pub fn new(node_index: usize, addrs: Vec<String>) -> FleetConfig {
        FleetConfig {
            node_index,
            addrs,
            vnodes: DEFAULT_VNODES,
            io_timeout: Duration::from_millis(2000),
            retry: RetryPolicy::default(),
            health: HealthPolicy::default(),
        }
    }
}

/// A daemon's live view of its fleet: the ring, the peer addresses,
/// and the health tracker. Shared by pool workers via `Arc`.
pub struct FleetState {
    cfg: FleetConfig,
    ring: HashRing,
    health: HealthTable,
    /// Outbound peer-fetch attempts (kept here as well as in metrics
    /// so the state is self-describing in tests).
    attempts: AtomicU64,
}

impl FleetState {
    /// Builds the ring and tracker from a config.
    ///
    /// # Panics
    ///
    /// Panics if the config is degenerate (no addresses, index out of
    /// range, zero virtual nodes).
    #[must_use]
    pub fn new(cfg: FleetConfig) -> FleetState {
        assert!(
            cfg.node_index < cfg.addrs.len(),
            "fleet node index {} out of range for {} addrs",
            cfg.node_index,
            cfg.addrs.len()
        );
        let ring = HashRing::new(cfg.addrs.len(), cfg.vnodes);
        let health = HealthTable::new(cfg.addrs.len(), cfg.health);
        FleetState { ring, health, attempts: AtomicU64::new(0), cfg }
    }

    /// This daemon's stable id.
    #[must_use]
    pub fn node_id(&self) -> String {
        node_id(self.cfg.node_index)
    }

    /// Fleet size.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.cfg.addrs.len()
    }

    /// The owner of `key` on the shared ring.
    #[must_use]
    pub fn owner(&self, key: Fingerprint) -> usize {
        self.ring.owner(key)
    }

    /// Outbound peer-fetch attempts so far.
    #[must_use]
    pub fn fetch_attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// The peer tier for one artifact key: asks the owner, then (on
    /// timeout, unreachability, or a rejected entry) the next ring
    /// successor. Self is excluded — the local tiers already missed.
    #[must_use]
    pub fn fetcher<'a>(&'a self, key: Fingerprint, bus: Option<&'a EventBus>) -> PeerFetcher<'a> {
        let plan: Vec<usize> = self
            .ring
            .route(key)
            .into_iter()
            .filter(|&n| n != self.cfg.node_index)
            .take(2)
            .collect();
        PeerFetcher { state: self, bus, key_hex: key.to_string(), plan, next: 0 }
    }

    /// One bounded fetch attempt against peer `idx` (no retry here —
    /// the caller owns the retry loop).
    fn fetch_once(&self, idx: usize, key_hex: &str) -> Result<Option<Json>, ClientError> {
        let addr = &self.cfg.addrs[idx];
        let client = Client::connect_deadline(addr, self.cfg.io_timeout)
            .map_err(|e| ClientError::Wire(crate::protocol::WireError::Io(e)))?;
        client
            .set_io_timeout(Some(self.cfg.io_timeout))
            .map_err(|e| ClientError::Wire(crate::protocol::WireError::Io(e)))?;
        let mut client = client;
        Ok(client.fetch(key_hex)?.entry)
    }
}

/// The cache's peer tier for one key: yields revalidation *candidates*
/// one at a time. The cache calls back for the next candidate whenever
/// one fails validation, so a corrupt entry is skipped — never
/// re-fetched — and the next peer gets its turn.
pub struct PeerFetcher<'a> {
    state: &'a FleetState,
    bus: Option<&'a EventBus>,
    key_hex: String,
    plan: Vec<usize>,
    next: usize,
}

impl PeerFetcher<'_> {
    /// The next candidate entry, or `None` when every planned peer has
    /// been asked. Transient failures (unreachable, timed out) retry
    /// the same peer under the seeded backoff policy before moving on;
    /// an *answered* miss (`entry: null`) is authoritative and moves
    /// on immediately.
    pub fn next_entry(&mut self) -> Option<Json> {
        while self.next < self.plan.len() {
            let idx = self.plan[self.next];
            self.next += 1;
            if !self.state.health.usable(idx) {
                continue;
            }
            let retry = self.state.cfg.retry;
            let salt = fold_u128(u128::from(mix64(idx as u64)));
            for attempt in 1..=retry.attempts {
                self.state.attempts.fetch_add(1, Ordering::Relaxed);
                match self.state.fetch_once(idx, &self.key_hex) {
                    Ok(entry) => {
                        self.state.health.record(idx, true, self.bus);
                        let outcome = if entry.is_some() { "hit" } else { "absent" };
                        self.emit(idx, outcome);
                        if let Some(entry) = entry {
                            return Some(entry);
                        }
                        break; // authoritative miss: next peer
                    }
                    Err(ClientError::Server(e)) => {
                        // A typed answer means the node is up; don't
                        // count it toward ejection, don't retry — the
                        // error is deterministic.
                        self.state.health.record(idx, true, self.bus);
                        self.emit(idx, &format!("error:{}", e.kind.as_str()));
                        break;
                    }
                    Err(_) => {
                        self.state.health.record(idx, false, self.bus);
                        self.emit(idx, "unreachable");
                        if attempt < retry.attempts {
                            std::thread::sleep(retry.delay(attempt, salt));
                        }
                    }
                }
            }
        }
        None
    }

    fn emit(&self, idx: usize, outcome: &str) {
        if let Some(bus) = self.bus {
            bus.emit(ServeEvent::PeerFetch {
                node: node_id(idx),
                key: self.key_hex.clone(),
                outcome: outcome.to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet-wide stats aggregation
// ---------------------------------------------------------------------------

/// Fans a stats probe across the fleet (bounded by the fleet I/O
/// timeout per peer) and merges: counters are summed, latency
/// *histograms* are merged bucket-by-bucket — never quantiles averaged
/// — and each node's liveness is reported. With no fleet configured
/// the local stats become a 1-node aggregate, so `fleet-stats` is
/// always answerable.
#[must_use]
pub fn aggregate_stats(
    fleet: Option<&FleetState>,
    local: StatsResponse,
    bus: Option<&EventBus>,
) -> FleetStatsResponse {
    let mut per_node: Vec<(String, Option<StatsResponse>)> = Vec::new();
    match fleet {
        None => per_node.push((local.node.clone(), Some(local))),
        Some(state) => {
            for idx in 0..state.nodes() {
                if idx == state.cfg.node_index {
                    per_node.push((node_id(idx), Some(local.clone())));
                    continue;
                }
                let probed = probe_stats(state, idx);
                state.health.record(idx, probed.is_some(), bus);
                per_node.push((node_id(idx), probed));
            }
        }
    }

    let latency = Histogram::new();
    let mut agg = FleetStatsResponse {
        origin: fleet.map_or_else(|| per_node[0].0.clone(), FleetState::node_id),
        total: per_node.len(),
        alive: 0,
        requests: 0,
        ok: 0,
        errors: 0,
        shed: 0,
        coalesced: 0,
        batches: 0,
        pipelined: 0,
        fetches: 0,
        peer_fetches: 0,
        cache_memory_hits: 0,
        cache_disk_hits: 0,
        cache_peer_hits: 0,
        cache_misses: 0,
        cache_hit_rate: 0.0,
        latency: LatencySummary { count: 0, p50_ms: 0.0, p90_ms: 0.0, p99_ms: 0.0, max_ms: 0.0 },
        nodes: Vec::with_capacity(per_node.len()),
    };
    for (id, stats) in per_node {
        let Some(s) = stats else {
            agg.nodes.push(FleetNodeStatus {
                node: id,
                alive: false,
                requests: 0,
                cache_misses: 0,
                cache_peer_hits: 0,
            });
            continue;
        };
        agg.alive += 1;
        agg.requests += s.requests;
        agg.ok += s.ok;
        agg.errors += s.errors;
        agg.shed += s.shed;
        agg.coalesced += s.coalesced;
        agg.batches += s.batches;
        agg.pipelined += s.pipelined;
        agg.fetches += s.fetches;
        agg.peer_fetches += s.peer_fetches;
        agg.cache_memory_hits += s.cache_memory_hits;
        agg.cache_disk_hits += s.cache_disk_hits;
        agg.cache_peer_hits += s.cache_peer_hits;
        agg.cache_misses += s.cache_misses;
        latency.merge_buckets(&s.latency_buckets, s.latency.max_ms);
        agg.nodes.push(FleetNodeStatus {
            node: id,
            alive: true,
            requests: s.requests,
            cache_misses: s.cache_misses,
            cache_peer_hits: s.cache_peer_hits,
        });
    }
    let hits = agg.cache_memory_hits + agg.cache_disk_hits + agg.cache_peer_hits;
    let lookups = hits + agg.cache_misses;
    agg.cache_hit_rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
    agg.latency = latency.summary().into();
    agg
}

/// One bounded stats probe; `None` on any failure (the node is
/// reported dead in the aggregate).
fn probe_stats(state: &FleetState, idx: usize) -> Option<StatsResponse> {
    let client = Client::connect_deadline(&state.cfg.addrs[idx], state.cfg.io_timeout).ok()?;
    client.set_io_timeout(Some(state.cfg.io_timeout)).ok()?;
    let mut client = client;
    match client.request_bounded(&Request::Stats) {
        Ok(Response::Stats(s)) => Some(*s),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

/// How the router treats the fleet; shared by every session.
struct RouterCore {
    addrs: Vec<String>,
    ring: HashRing,
    health: HealthTable,
    retry: RetryPolicy,
    /// Budget for a fresh connect (covers the daemon-still-binding
    /// race via `Client::connect_retry`).
    connect_budget: Duration,
}

/// The client-side fleet router: consistent-hashes every compile to
/// its owner and fails over along the ring. Cheap to clone across
/// loadgen threads; each thread works through its own
/// [`RouterSession`] (connections are not shared).
#[derive(Clone)]
pub struct Router {
    core: Arc<RouterCore>,
}

impl Router {
    /// A router over the fleet's addresses (index-aligned with the
    /// daemons' own `FleetConfig::addrs`).
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    #[must_use]
    pub fn new(addrs: Vec<String>) -> Router {
        Router::with_policies(
            addrs,
            RetryPolicy::default(),
            HealthPolicy::default(),
            Duration::from_secs(5),
        )
    }

    /// [`Router::new`] with explicit retry/health policies and a
    /// connect budget (how long a refused connect keeps retrying
    /// before it counts as a node failure — the knob that bounds how
    /// quickly a dead node costs its first caller).
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    #[must_use]
    pub fn with_policies(
        addrs: Vec<String>,
        retry: RetryPolicy,
        health: HealthPolicy,
        connect_budget: Duration,
    ) -> Router {
        let ring = HashRing::new(addrs.len(), DEFAULT_VNODES);
        let health = HealthTable::new(addrs.len(), health);
        Router {
            core: Arc::new(RouterCore { addrs, ring, health, retry, connect_budget }),
        }
    }

    /// Fleet size.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.core.addrs.len()
    }

    /// The address of node `idx`.
    #[must_use]
    pub fn addr(&self, idx: usize) -> &str {
        &self.core.addrs[idx]
    }

    /// Which node owns this request on the ring (the routing decision,
    /// before health is consulted). Deterministic: a pure function of
    /// the request's batch fingerprint and the fleet size.
    #[must_use]
    pub fn owner_of(&self, req: &CompileRequest) -> usize {
        self.core.ring.owner(batch_key(req))
    }

    /// A session holding this thread's connections.
    #[must_use]
    pub fn session(&self) -> RouterSession {
        RouterSession { core: Arc::clone(&self.core), conns: HashMap::new() }
    }
}

/// One thread's working connections through a [`Router`].
pub struct RouterSession {
    core: Arc<RouterCore>,
    conns: HashMap<usize, Client>,
}

impl RouterSession {
    /// Routes one compile: the ring owner first, then each successor.
    /// Per node, sheds (`overloaded`) and transport failures retry
    /// under the seeded backoff; a draining or unreachable node counts
    /// toward its ejection and the request moves down the ring. Other
    /// typed errors are deterministic answers and return immediately.
    /// Returns the response and the index of the node that served it.
    ///
    /// # Errors
    ///
    /// Returns the last failure once every node has been tried.
    pub fn compile(
        &mut self,
        req: &CompileRequest,
    ) -> Result<(CompileResponse, usize), ClientError> {
        let key = batch_key(req);
        let mut last: Option<ClientError> = None;
        for idx in self.core.ring.route(key) {
            if !self.core.health.usable(idx) {
                continue;
            }
            match self.compile_on(idx, req, fold_u128(key.as_u128())) {
                Ok(resp) => return Ok((resp, idx)),
                Err(Failover::Permanent(e)) => return Err(e),
                Err(Failover::NextNode(e)) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            ClientError::Server(crate::protocol::ErrorResponse {
                kind: ErrorKind::Overloaded,
                message: "every fleet node is ejected".to_string(),
            })
        }))
    }

    /// Pings node `idx` (health-checked connect included).
    ///
    /// # Errors
    ///
    /// As [`Client::ping`].
    pub fn ping(&mut self, idx: usize) -> Result<(), ClientError> {
        let r = self.client(idx)?.ping();
        self.settle(idx, &r);
        r
    }

    /// Per-node stats from node `idx`.
    ///
    /// # Errors
    ///
    /// As [`Client::stats`].
    pub fn stats(&mut self, idx: usize) -> Result<StatsResponse, ClientError> {
        let r = self.client(idx)?.stats();
        self.settle(idx, &r);
        r
    }

    /// Cluster aggregate, asked of the first usable node.
    ///
    /// # Errors
    ///
    /// Returns the last per-node failure if no node answers.
    pub fn fleet_stats(&mut self) -> Result<FleetStatsResponse, ClientError> {
        let mut last: Option<ClientError> = None;
        for idx in 0..self.core.addrs.len() {
            if !self.core.health.usable(idx) {
                continue;
            }
            match self.client(idx).and_then(Client::fleet_stats) {
                Ok(f) => {
                    self.core.health.record(idx, true, None);
                    return Ok(f);
                }
                Err(e) => {
                    self.conns.remove(&idx);
                    self.core.health.record(idx, false, None);
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            ClientError::Server(crate::protocol::ErrorResponse {
                kind: ErrorKind::Overloaded,
                message: "every fleet node is ejected".to_string(),
            })
        }))
    }

    /// One node's share of the routing work, with same-node retries.
    fn compile_on(
        &mut self,
        idx: usize,
        req: &CompileRequest,
        salt: u64,
    ) -> Result<CompileResponse, Failover> {
        let retry = self.core.retry;
        let mut last = None;
        for attempt in 1..=retry.attempts {
            let outcome = match self.client(idx) {
                Ok(client) => client.compile(req.clone()),
                Err(e) => Err(e),
            };
            match outcome {
                Ok(resp) => {
                    self.core.health.record(idx, true, None);
                    return Ok(resp);
                }
                Err(ClientError::Server(e)) if e.kind == ErrorKind::Overloaded => {
                    // Shed: the node is alive and explicit — back off
                    // and retry it, don't fail over (the whole fleet
                    // is likely busy too).
                    self.core.health.record(idx, true, None);
                    last = Some(ClientError::Server(e));
                }
                Err(ClientError::Server(e)) if e.kind == ErrorKind::ShuttingDown => {
                    self.conns.remove(&idx);
                    self.core.health.record(idx, false, None);
                    return Err(Failover::NextNode(ClientError::Server(e)));
                }
                Err(ClientError::Server(e)) => {
                    // Deterministic typed answer (unknown model, bad
                    // spec…): the fleet agrees, failover can't help.
                    self.core.health.record(idx, true, None);
                    return Err(Failover::Permanent(ClientError::Server(e)));
                }
                Err(e) => {
                    // Transport trouble: reconnect on the next attempt.
                    self.conns.remove(&idx);
                    self.core.health.record(idx, false, None);
                    last = Some(e);
                }
            }
            if attempt < retry.attempts {
                std::thread::sleep(retry.delay(attempt, salt ^ idx as u64));
            }
        }
        Err(Failover::NextNode(last.unwrap_or_else(|| {
            ClientError::BadResponse("retries exhausted without an error".to_string())
        })))
    }

    fn client(&mut self, idx: usize) -> Result<&mut Client, ClientError> {
        if !self.conns.contains_key(&idx) {
            // A deadline, not a refused-retry loop: refusal means the
            // node is *down*, and a dead node must cost its prober
            // milliseconds (then failover), not the whole budget.
            let c = Client::connect_deadline(
                self.core.addrs[idx].as_str(),
                self.core.connect_budget,
            )
            .map_err(|e| ClientError::Wire(crate::protocol::WireError::Io(e)))?;
            self.conns.insert(idx, c);
        }
        Ok(self.conns.get_mut(&idx).expect("connection just inserted"))
    }

    fn settle<T>(&mut self, idx: usize, result: &Result<T, ClientError>) {
        match result {
            Ok(_) | Err(ClientError::Server(_)) => self.core.health.record(idx, true, None),
            Err(_) => {
                self.conns.remove(&idx);
                self.core.health.record(idx, false, None);
            }
        }
    }
}

/// Why a per-node compile attempt ended.
enum Failover {
    /// Try the next ring node.
    NextNode(ClientError),
    /// A deterministic typed answer; return it.
    Permanent(ClientError),
}

// ---------------------------------------------------------------------------
// In-process harness
// ---------------------------------------------------------------------------

/// One node of an in-process fleet.
pub struct FleetNode {
    /// The node's bound address.
    pub addr: String,
    /// Drains the node ("kill" for an in-process fleet: the node
    /// finishes in-flight work, then stops answering).
    pub shutdown: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

/// N real servers on ephemeral ports inside one process — the test
/// topology. `ci.sh` exercises the same layer as separate
/// `overlapd --fleet` processes (where a kill really is SIGKILL).
pub struct FleetHarness {
    nodes: Vec<FleetNode>,
}

impl FleetHarness {
    /// Binds and runs `n` daemons, each with its own cache from
    /// `mk_cache(index)`, all sharing one ring. Binding happens first
    /// so every node learns the full address list before serving.
    ///
    /// # Errors
    ///
    /// Returns the first bind failure.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn launch(
        n: usize,
        config: &ServeConfig,
        mk_cache: &dyn Fn(usize) -> ArtifactCache,
        fleet_knobs: impl Fn(FleetConfig) -> FleetConfig,
    ) -> std::io::Result<FleetHarness> {
        assert!(n > 0, "a fleet needs at least one node");
        let mut servers = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for idx in 0..n {
            let cfg = ServeConfig { addr: "127.0.0.1:0".to_string(), ..config.clone() };
            let server = Server::bind(&cfg, mk_cache(idx))?;
            addrs.push(server.local_addr()?.to_string());
            servers.push(server);
        }
        let mut nodes = Vec::with_capacity(n);
        for (idx, server) in servers.into_iter().enumerate() {
            server.configure_fleet(FleetState::new(fleet_knobs(FleetConfig::new(
                idx,
                addrs.clone(),
            ))));
            let addr = addrs[idx].clone();
            let shutdown = server.shutdown_handle();
            let thread = std::thread::spawn(move || server.run());
            nodes.push(FleetNode { addr, shutdown, thread: Some(thread) });
        }
        Ok(FleetHarness { nodes })
    }

    /// Every node's address, index-aligned with the ring.
    #[must_use]
    pub fn addrs(&self) -> Vec<String> {
        self.nodes.iter().map(|n| n.addr.clone()).collect()
    }

    /// Fleet size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the harness is empty (it never is; see
    /// [`FleetHarness::launch`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A router over this fleet.
    #[must_use]
    pub fn router(&self) -> Router {
        Router::new(self.addrs())
    }

    /// Takes node `idx` down: requests its drain and joins its thread.
    /// From the rest of the fleet's point of view the node stops
    /// answering — connects are refused — which is the in-process
    /// stand-in for a killed daemon.
    ///
    /// # Panics
    ///
    /// Panics if the node's serve thread itself panicked.
    pub fn kill(&mut self, idx: usize) {
        self.nodes[idx].shutdown.request();
        if let Some(t) = self.nodes[idx].thread.take() {
            t.join().expect("fleet node thread").expect("fleet node exit");
        }
    }

    /// Drains and joins every still-running node.
    ///
    /// # Panics
    ///
    /// Panics if a node's serve thread panicked.
    pub fn shutdown_all(mut self) {
        for idx in 0..self.nodes.len() {
            self.nodes[idx].shutdown.request();
        }
        for node in &mut self.nodes {
            if let Some(t) = node.thread.take() {
                t.join().expect("fleet node thread").expect("fleet node exit");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(i: u64) -> Fingerprint {
        let mut h = StableHasher::new("fleet-test-key");
        h.write_u64(i);
        h.finish()
    }

    #[test]
    fn ring_is_deterministic_across_independent_builds() {
        let a = HashRing::new(4, DEFAULT_VNODES);
        let b = HashRing::new(4, DEFAULT_VNODES);
        for i in 0..500 {
            let key = fp(i);
            assert_eq!(a.owner(key), b.owner(key));
            assert_eq!(a.route(key), b.route(key));
        }
    }

    #[test]
    fn ring_route_starts_at_owner_and_covers_every_node() {
        let ring = HashRing::new(5, DEFAULT_VNODES);
        for i in 0..100 {
            let route = ring.route(fp(i));
            assert_eq!(route[0], ring.owner(fp(i)));
            let mut sorted = route.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "route must be a permutation");
        }
    }

    #[test]
    fn ring_spreads_keys_roughly_evenly() {
        let ring = HashRing::new(4, DEFAULT_VNODES);
        let mut counts = [0usize; 4];
        let total = 4000;
        for i in 0..total {
            counts[ring.owner(fp(i as u64))] += 1;
        }
        for (node, &c) in counts.iter().enumerate() {
            let share = c as f64 / total as f64;
            assert!(
                (0.10..=0.45).contains(&share),
                "node {node} owns {share:.2} of the keyspace"
            );
        }
    }

    #[test]
    fn growing_the_ring_moves_about_one_over_n_keys() {
        let before = HashRing::new(4, DEFAULT_VNODES);
        let after = HashRing::new(5, DEFAULT_VNODES);
        let total = 4000u64;
        let moved = (0..total).filter(|&i| before.owner(fp(i)) != after.owner(fp(i))).count();
        let frac = moved as f64 / total as f64;
        // Ideal is 1/5 = 0.20; virtual nodes keep it near that instead
        // of the ~0.80 a naive mod-N rehash would shuffle.
        assert!(frac > 0.05, "suspiciously few keys moved: {frac:.3}");
        assert!(frac < 0.40, "adding one node moved {frac:.3} of the keyspace");
    }

    #[test]
    fn health_ejects_after_consecutive_failures_and_readmits_via_probation() {
        let policy = HealthPolicy { eject_after: 3, probation: Duration::from_millis(20) };
        let mut h = NodeHealth::default();
        assert_eq!(h.state(&policy), HealthState::Alive);
        h.on_failure(&policy);
        h.on_failure(&policy);
        assert_eq!(h.state(&policy), HealthState::Alive, "below the threshold");
        assert!(h.usable(&policy));
        assert_eq!(h.on_failure(&policy), HealthState::Ejected);
        assert!(!h.usable(&policy), "ejected nodes are skipped");
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(h.state(&policy), HealthState::Probation);
        assert!(h.usable(&policy), "probation admits one probe");
        assert!(!h.usable(&policy), "…but only one at a time");
        assert_eq!(h.on_success(), HealthState::Alive);
        assert!(h.usable(&policy));
    }

    #[test]
    fn probation_failure_re_ejects_with_a_fresh_timer() {
        let policy = HealthPolicy { eject_after: 1, probation: Duration::from_millis(20) };
        let mut h = NodeHealth::default();
        assert_eq!(h.on_failure(&policy), HealthState::Ejected);
        std::thread::sleep(Duration::from_millis(25));
        assert!(h.usable(&policy));
        assert_eq!(h.on_failure(&policy), HealthState::Ejected, "probe failed");
        assert!(!h.usable(&policy), "re-ejected immediately");
    }

    #[test]
    fn retry_delays_are_capped_exponential_and_seed_deterministic() {
        let p = RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(80),
            seed: 42,
        };
        let q = p;
        for attempt in 1..=5 {
            let d = p.delay(attempt, 7);
            assert_eq!(d, q.delay(attempt, 7), "equal seeds draw equal jitter");
            let backoff = Duration::from_millis(10 << (attempt - 1)).min(p.cap);
            assert!(d >= backoff, "jitter only adds");
            assert!(d <= backoff + backoff / 2 + Duration::from_millis(1));
        }
        let r = RetryPolicy { seed: 43, ..p };
        assert!(
            (1..=5).any(|a| r.delay(a, 7) != p.delay(a, 7)),
            "different seeds should decorrelate somewhere"
        );
    }

    #[test]
    fn fetch_plan_excludes_self_and_starts_at_the_owner() {
        let addrs: Vec<String> =
            (0..4).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect();
        let state = FleetState::new(FleetConfig::new(2, addrs));
        for i in 0..200 {
            let key = fp(i);
            let fetcher = state.fetcher(key, None);
            assert!(fetcher.plan.len() <= 2, "owner plus one hedge successor at most");
            assert!(!fetcher.plan.contains(&2), "self never appears in its own plan");
            let owner = state.owner(key);
            if owner != 2 {
                assert_eq!(fetcher.plan[0], owner, "the owner is asked first");
            }
        }
    }

    #[test]
    fn aggregate_without_a_fleet_is_a_one_node_cluster() {
        let local = StatsResponse {
            node: String::new(),
            uptime_ms: 1.0,
            requests: 7,
            ok: 6,
            errors: 1,
            shed: 0,
            coalesced: 2,
            batches: 3,
            pipelined: 0,
            queue_depth: 0,
            workers: 2,
            qps: 0.0,
            cache_memory_hits: 4,
            cache_disk_hits: 1,
            cache_peer_hits: 0,
            cache_misses: 5,
            cache_hit_rate: 0.5,
            fetches: 0,
            peer_fetches: 0,
            latency: LatencySummary {
                count: 2,
                p50_ms: 1.0,
                p90_ms: 1.0,
                p99_ms: 1.0,
                max_ms: 2.0,
            },
            latency_buckets: vec![2],
        };
        let agg = aggregate_stats(None, local, None);
        assert_eq!(agg.total, 1);
        assert_eq!(agg.alive, 1);
        assert_eq!(agg.requests, 7);
        assert_eq!(agg.cache_misses, 5);
        assert_eq!(agg.latency.count, 2, "bucket merge carries the counts");
        assert!((agg.cache_hit_rate - 0.5).abs() < 1e-12);
    }
}
