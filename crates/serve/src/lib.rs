//! overlap-serve: the compile-and-simulate service layer.
//!
//! Everything below the bins: the versioned wire protocol
//! ([`protocol`]), the shared request-execution path ([`exec`] — the
//! same function the daemon and the byte-identity checkers call), the
//! zero-dependency readiness reactor ([`reactor`]), the event-loop
//! server with request pipelining and fingerprint batching
//! ([`server`]), the typed event bus its progress publishes on
//! ([`events`]), a blocking client ([`client`]), lock-free latency
//! metrics ([`metrics`] — fed from the bus like any other observer),
//! and the fault-tolerant fleet layer ([`fleet`] — consistent-hash
//! routing, cache peering, health tracking and kill-a-node failover
//! across N daemons).
//!
//! The service contract, in one sentence: a compile request's `result`
//! object is a pure function of (model, machine, options, fault spec)
//! — byte-identical to a direct `OverlapPipeline::compile_cached` +
//! `Simulation` run — while provenance and timing ride separately in
//! `served`, and overload, drain and malformed input all answer with
//! typed errors instead of dropped connections.

pub mod client;
pub mod events;
pub mod exec;
pub mod fleet;
pub mod metrics;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use client::{Client, ClientError, EventStream};
pub use events::{
    parse_records, ChromeTraceObserver, CollectObserver, DecisionSummary, EventBus,
    EventObserver, EventRecord, MetricsObserver, RecordObserver, ServeEvent, SubscriptionHub,
};
pub use exec::{batch_key, execute, execute_with_peers, Deadline, ExecError};
pub use fleet::{
    aggregate_stats, node_id, FleetConfig, FleetHarness, FleetState, HashRing, HealthPolicy,
    HealthState, NodeHealth, RetryPolicy, Router, RouterSession, DEFAULT_VNODES,
};
pub use metrics::{Histogram, ServerMetrics};
pub use protocol::{
    event_frame_payload, read_frame, write_frame, ArtifactResponse, CompileRequest,
    CompileResponse, CompileResult, ErrorKind, ErrorResponse, FleetNodeStatus,
    FleetStatsResponse, FrameEvent, FrameReader, LatencySummary, MachineSpec, ModelRef, Request,
    Response, ServedInfo, SimSummary, StatsResponse, WireError, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
pub use reactor::{Event, Interest, Pollable, Poller, Token, Waker};
pub use server::{ServeConfig, Server, ShutdownHandle};
