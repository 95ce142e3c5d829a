//! Golden bytes for every wire type.
//!
//! The round-trip tests (`serde_roundtrip`, `serve_protocol`) prove that
//! encode and decode agree with *each other*; nothing there notices when
//! both drift together. Cached `Compiled` bundles, `overlap-serve/1`
//! frames and `results/*.json` are a byte contract, so this file pins
//! the bytes: each value is checked both ways — it encodes to exactly the
//! literal, and the literal decodes to exactly the value. A failure here
//! is a wire-layout change: bump `PROTOCOL_VERSION` / the artifact-cache
//! `VERSION` deliberately, or fix the codec.

use std::fmt::Debug;

use overlap_core::{DecomposeSummary, OverlapOptions, OverlapPipeline, StrategySpec};
use overlap_hlo::{Builder, DType, DotDims, Module, ReplicaGroups, Shape, WireFormat};
use overlap_json::{FromJson, Json, ToJson};
use overlap_mesh::{FaultSpec, LinkId, Machine};
use overlap_serve::{
    ArtifactResponse, CompileRequest, CompileResponse, CompileResult, ErrorKind, ErrorResponse,
    EventRecord, FleetNodeStatus, FleetStatsResponse, LatencySummary, MachineSpec, ModelRef,
    Request, Response, ServeEvent, ServedInfo, SimSummary, StatsResponse,
};

fn check<T: ToJson + FromJson + PartialEq + Debug>(what: &str, value: &T, golden: &str) {
    assert_eq!(value.to_json().to_string(), golden, "{what}: encoding drifted");
    let parsed = Json::parse(golden).unwrap_or_else(|e| panic!("{what}: golden is not JSON: {e}"));
    let back = T::from_json(&parsed)
        .unwrap_or_else(|e| panic!("{what}: golden does not decode: {e}"));
    assert_eq!(&back, value, "{what}: decoding drifted");
}

/// The 4-partition AllGather-einsum layer every compile below starts from.
fn layer() -> Module {
    let n = 4;
    let mut b = Builder::new("golden", n);
    let x = b.parameter(Shape::new(DType::BF16, vec![2048, 1024]), "x");
    let w = b.parameter(Shape::new(DType::BF16, vec![1024, 4096 / n]), "w");
    let wg = b.all_gather(w, 1, ReplicaGroups::full(n), "wg");
    let y = b.einsum(x, wg, DotDims::matmul(), "y");
    b.build(vec![y])
}

/// int8 wire + a four-layer scheduling window + an error budget the int8
/// ring cannot meet (so the compile records a budget fallback).
fn quantized_options() -> OverlapOptions {
    OverlapOptions {
        error_budget: Some(1e-3),
        ..OverlapOptions::with_strategy(
            StrategySpec::paper_default().with_wire(WireFormat::int8()).with_window_layers(4),
        )
    }
}

fn full_fault_spec() -> FaultSpec {
    FaultSpec::seeded(7)
        .with_link_derate(LinkId { device: 1, axis: 0, forward: false }, 0.25)
        .with_down_link(LinkId { device: 2, axis: 1, forward: true })
        .with_straggler(3, 2.0)
        .with_jitter(2e-6)
        .with_dma_stalls(0.05, 5e-7, 4)
        .with_time_limit(10.0)
}

#[test]
fn options_and_strategies() {
    check("default options", &OverlapOptions::default(), OPTIONS_DEFAULT);
    check("paper options", &OverlapOptions::paper_default(), OPTIONS_PAPER);
    check("quantized options", &quantized_options(), OPTIONS_QUANTIZED);
    check("default strategy", &StrategySpec::default(), STRATEGY_DEFAULT);
    check("paper strategy", &StrategySpec::paper_default(), STRATEGY_PAPER);
    check("quantized strategy", &quantized_options().strategy, STRATEGY_QUANTIZED);
}

#[test]
fn fault_specs() {
    check("default fault spec", &FaultSpec::default(), FAULTS_DEFAULT);
    check("full fault spec", &full_fault_spec(), FAULTS_FULL);
}

/// Terse hand-written specs (`overlapc --fault-spec`, a serve request's
/// `fault_spec`) name only what they degrade: any one member, or none,
/// is a spec; anything but an object is not.
#[test]
fn any_single_member_is_a_fault_spec() {
    let d = FaultSpec::default;
    let l = LinkId { device: 2, axis: 1, forward: true };
    let cases = [
        (r#"{}"#, d()),
        (r#"{"seed":9}"#, FaultSpec::seeded(9)),
        (
            r#"{"link_derates":[{"link":{"device":2,"axis":1,"forward":true},"derate":0.5}]}"#,
            d().with_link_derate(l, 0.5),
        ),
        (r#"{"down_links":[{"device":2,"axis":1,"forward":true}]}"#, d().with_down_link(l)),
        (r#"{"stragglers":[{"device":3,"slowdown":1.5}]}"#, d().with_straggler(3, 1.5)),
        (r#"{"jitter_seconds":1e-4}"#, d().with_jitter(1e-4)),
        (r#"{"stall_probability":0.25}"#, FaultSpec { stall_probability: 0.25, ..d() }),
        (r#"{"stall_seconds":1e-6}"#, FaultSpec { stall_seconds: 1e-6, ..d() }),
        (r#"{"stall_max_retries":3}"#, FaultSpec { stall_max_retries: 3, ..d() }),
        (r#"{"time_limit_seconds":2.5}"#, d().with_time_limit(2.5)),
        (r#"{"seed":null,"stragglers":null}"#, d()),
    ];
    for (text, want) in cases {
        let got = FaultSpec::from_json(&Json::parse(text).expect("parse"));
        assert_eq!(got, Ok(want), "{text}");
    }
    for text in [r#""nope""#, "[]", "3", "null", "true"] {
        let err = FaultSpec::from_json(&Json::parse(text).expect("parse")).unwrap_err();
        assert!(err.starts_with("expected FaultSpec object"), "{text}: {err}");
    }
}

#[test]
fn modules_before_and_after_the_pipeline() {
    let machine = Machine::tpu_v4_like(4);
    let input = layer();
    check("input module", &input, MODULE_INPUT);

    let lossless = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&input, &machine)
        .expect("lossless compile");
    assert!(!lossless.summaries.is_empty(), "the layer must decompose");
    check("compiled module (lossless)", &lossless.module, MODULE_COMPILED);

    let int8 = OverlapOptions::with_strategy(
        StrategySpec::paper_default().with_wire(WireFormat::int8()),
    );
    let quantized = OverlapPipeline::new(int8).run(&input, &machine).expect("int8 compile");
    assert!(!quantized.summaries.is_empty(), "the layer must decompose");
    check("compiled module (int8 wire)", &quantized.module, MODULE_COMPILED_INT8);
}

#[test]
fn compile_records() {
    let compiled = OverlapPipeline::new(quantized_options())
        .run(&layer(), &Machine::tpu_v4_like(4))
        .expect("budgeted compile");
    assert!(!compiled.decisions.is_empty() && !compiled.summaries.is_empty());
    assert!(!compiled.fallbacks.is_empty(), "the budget must force a fallback");
    check("gate decisions", &compiled.decisions, DECISIONS);
    check("decompose summaries", &compiled.summaries, SUMMARIES);
    check("fallback records", &compiled.fallbacks, FALLBACKS);
    // Both `Option` spellings of a summary's fallback reasons.
    let reasons = vec![DecomposeSummary {
        einsum: "y".into(),
        group_size: 3,
        partial_einsums: 3,
        permutes: 2,
        bidirectional: false,
        unrolled: false,
        chunk: 2,
        unroll_fallback: Some("odd group".into()),
        bidirectional_fallback: None,
        chunk_fallback: Some("chunk does not divide the shard".into()),
    }];
    check("summary fallback reasons", &reasons, SUMMARY_REASONS);
}

#[test]
fn every_request() {
    check("ping", &Request::Ping, REQ_PING);
    check("stats", &Request::Stats, REQ_STATS);
    check("shutdown", &Request::Shutdown, REQ_SHUTDOWN);
    check("subscribe", &Request::Subscribe, REQ_SUBSCRIBE);
    check("fleet-stats", &Request::FleetStats, REQ_FLEET_STATS);
    check("fetch", &Request::Fetch { key: "00ff00ff00ff00ff00ff00ff00ff00ff".into() }, REQ_FETCH);
    let named = CompileRequest::named("GPT_32B");
    check("named compile", &Request::Compile(Box::new(named)), REQ_NAMED);
    let full = CompileRequest {
        model: ModelRef::Inline(Box::new(layer())),
        machine: MachineSpec::TpuV4 { chips: 4 },
        options: quantized_options(),
        fault_spec: Some(full_fault_spec()),
        deadline_ms: Some(1500),
    };
    check("inline compile", &Request::Compile(Box::new(full)), REQ_INLINE);
    let gpu = CompileRequest {
        machine: MachineSpec::GpuCluster { chips: 16 },
        ..CompileRequest::named("GPT_64B")
    };
    check("gpu compile", &Request::Compile(Box::new(gpu)), REQ_GPU);
}

fn latency() -> LatencySummary {
    LatencySummary { count: 9, p50_ms: 1.0, p90_ms: 2.0, p99_ms: 3.5, max_ms: 4.0 }
}

fn sim_summary(makespan: f64) -> SimSummary {
    SimSummary {
        makespan,
        compute_time: 1.5e-3,
        memory_time: 2.5e-4,
        sync_comm_time: 0.0,
        exposed_async_time: 1.25e-4,
        hidden_async_time: 7.5e-4,
        comm_fraction: 0.0625,
        total_flops: 17_179_869_184,
    }
}

#[test]
fn every_response() {
    check("pong", &Response::Pong, RESP_PONG);
    check("shutting-down", &Response::ShuttingDown, RESP_SHUTTING_DOWN);
    check("subscribed", &Response::Subscribed, RESP_SUBSCRIBED);
    let stats = StatsResponse {
        node: "node-1".into(),
        uptime_ms: 12.5,
        requests: 9,
        ok: 7,
        errors: 2,
        shed: 1,
        coalesced: 2,
        batches: 6,
        pipelined: 4,
        queue_depth: 3,
        workers: 4,
        qps: 0.5,
        cache_memory_hits: 5,
        cache_disk_hits: 1,
        cache_peer_hits: 2,
        cache_misses: 3,
        cache_hit_rate: 0.6667,
        fetches: 4,
        peer_fetches: 6,
        latency: latency(),
        latency_buckets: vec![3, 0, 6],
    };
    check("stats", &Response::Stats(Box::new(stats)), RESP_STATS);
    let fleet = FleetStatsResponse {
        origin: "node-0".into(),
        total: 2,
        alive: 1,
        requests: 11,
        ok: 10,
        errors: 1,
        shed: 0,
        coalesced: 3,
        batches: 5,
        pipelined: 2,
        fetches: 1,
        peer_fetches: 2,
        cache_memory_hits: 4,
        cache_disk_hits: 1,
        cache_peer_hits: 1,
        cache_misses: 5,
        cache_hit_rate: 0.5455,
        latency: latency(),
        nodes: vec![
            FleetNodeStatus {
                node: "node-0".into(),
                alive: true,
                requests: 11,
                cache_misses: 5,
                cache_peer_hits: 1,
            },
            FleetNodeStatus {
                node: "node-1".into(),
                alive: false,
                requests: 0,
                cache_misses: 0,
                cache_peer_hits: 0,
            },
        ],
    };
    check("fleet-stats", &Response::FleetStats(Box::new(fleet)), RESP_FLEET_STATS);
    let miss = ArtifactResponse { key: "deadbeef".into(), entry: None };
    check("artifact miss", &Response::Artifact(Box::new(miss)), RESP_ARTIFACT_MISS);
    let hit = ArtifactResponse {
        key: "deadbeef".into(),
        entry: Some(Json::obj().with("key", "deadbeef").with("payload", "x")),
    };
    check("artifact hit", &Response::Artifact(Box::new(hit)), RESP_ARTIFACT_HIT);

    let compiled = OverlapPipeline::new(quantized_options())
        .run(&layer(), &Machine::tpu_v4_like(4))
        .expect("budgeted compile");
    let result = CompileResult {
        model: "golden".into(),
        num_partitions: 4,
        artifact_key: "000102030405060708090a0b0c0d0e0f".into(),
        module_fingerprint: "101112131415161718191a1b1c1d1e1f".into(),
        machine_fingerprint: "202122232425262728292a2b2c2d2e2f".into(),
        options_fingerprint: "303132333435363738393a3b3c3d3e3f".into(),
        input_identity: "404142434445464748494a4b4c4d4e4f".into(),
        compiled_identity: "505152535455565758595a5b5c5d5e5f".into(),
        order_len: compiled.order.len(),
        decisions: compiled.decisions,
        summaries: compiled.summaries,
        fallbacks: compiled.fallbacks,
        baseline: sim_summary(2.5e-3),
        overlapped: sim_summary(2.0e-3),
        speedup: 1.25,
    };
    let served = ServedInfo { source: "compiled".into(), queue_ms: 0.125, service_ms: 5.0 };
    check(
        "compiled",
        &Response::Compiled(Box::new(CompileResponse { result, served })),
        RESP_COMPILED,
    );
}

#[test]
fn an_error_of_each_kind() {
    let kinds = [
        (ErrorKind::UnknownVersion, "unknown-version"),
        (ErrorKind::Malformed, "malformed"),
        (ErrorKind::FrameTooLarge, "frame-too-large"),
        (ErrorKind::UnknownModel, "unknown-model"),
        (ErrorKind::InvalidModule, "invalid-module"),
        (ErrorKind::InvalidFaultSpec, "invalid-fault-spec"),
        (ErrorKind::InvalidRequest, "invalid-request"),
        (ErrorKind::Overloaded, "overloaded"),
        (ErrorKind::DeadlineExceeded, "deadline-exceeded"),
        (ErrorKind::ShuttingDown, "shutting-down"),
        (ErrorKind::Internal, "internal"),
    ];
    for (kind, name) in kinds {
        let golden =
            format!(r#"{{"response":"error","kind":"{name}","message":"no \"{name}\" here"}}"#);
        let message = format!("no \"{name}\" here");
        check(name, &Response::Error(ErrorResponse { kind, message }), &golden);
    }
}

#[test]
fn an_event_of_each_kind() {
    let s = String::from;
    let events = [
        (ServeEvent::Accept { conn: 1 }, EVENT_ACCEPT),
        (
            ServeEvent::Admit { conn: 1, req: 2, kind: s("compile"), pipelined: true },
            EVENT_ADMIT,
        ),
        (ServeEvent::BatchCoalesce { conn: 1, req: 3, batch: s("ab12") }, EVENT_BATCH_COALESCE),
        (ServeEvent::CompileStart { batch: s("ab12"), model: s("GPT_32B") }, EVENT_COMPILE_START),
        (
            ServeEvent::CompileFinish {
                batch: s("ab12"),
                model: s("GPT_32B"),
                compile_ms: 4.5,
                outcome: s("compiled"),
            },
            EVENT_COMPILE_FINISH,
        ),
        (ServeEvent::CacheOutcome { conn: 1, req: 2, source: s("memory") }, EVENT_CACHE_OUTCOME),
        (ServeEvent::Shed { conn: 0, scope: s("connection") }, EVENT_SHED),
        (
            ServeEvent::Done {
                conn: 1,
                req: 2,
                kind: s("compile"),
                ok: true,
                queue_ms: 0.25,
                compile_ms: 4.5,
                serialize_ms: 0.0625,
            },
            EVENT_DONE,
        ),
        (ServeEvent::Drain { reason: s("signal") }, EVENT_DRAIN),
        (ServeEvent::Close { conn: 1 }, EVENT_CLOSE),
        (ServeEvent::Fetch { conn: 4, req: 5, key: s("ab12"), hit: false }, EVENT_FETCH),
        (
            ServeEvent::PeerFetch { node: s("node-2"), key: s("ab12"), outcome: s("rejected") },
            EVENT_PEER_FETCH,
        ),
        (ServeEvent::PeerState { node: s("node-2"), state: s("ejected") }, EVENT_PEER_STATE),
    ];
    for (seq, (event, golden)) in events.into_iter().enumerate() {
        let kind = event.kind();
        let record = EventRecord { seq: seq as u64 + 1, t_ms: 1.5 * seq as f64, event };
        check(kind, &Response::Event(Box::new(record)), golden);
    }
}

/// Replaces the member at `path` with `bad` and returns the decode error.
fn tamper<T: ToJson + FromJson + Debug>(value: &T, path: &[&str], bad: Json) -> String {
    let mut v = value.to_json();
    let mut at = &mut v;
    for key in path {
        at = &mut at[*key];
    }
    *at = bad;
    T::from_json(&v).expect_err("a tampered member must not decode")
}

#[test]
fn decode_errors_name_their_member() {
    let request = Request::Compile(Box::new(CompileRequest {
        fault_spec: Some(full_fault_spec()),
        deadline_ms: Some(1500),
        ..CompileRequest::named("GPT_32B")
    }));
    let summary = DecomposeSummary {
        einsum: "y".into(),
        group_size: 4,
        partial_einsums: 4,
        permutes: 3,
        bidirectional: true,
        unrolled: true,
        chunk: 1,
        unroll_fallback: None,
        bidirectional_fallback: None,
        chunk_fallback: None,
    };
    let float = || Json::from(1.5);
    let errors = [
        (
            tamper(&StrategySpec::paper_default(), &["all_gather", "chunk"], float()),
            vec!["all_gather", "chunk"],
        ),
        (tamper(&summary, &["chunk"], float()), vec!["chunk"]),
        (
            tamper(&StrategySpec::paper_default(), &["window_layers"], float()),
            vec!["window_layers"],
        ),
        (tamper(&request, &["deadline_ms"], Json::from("soon")), vec!["deadline_ms"]),
        (tamper(&request, &["machine"], Json::from("nope")), vec!["machine"]),
        (
            tamper(&request, &["options", "strategy", "window_layers"], float()),
            vec!["options", "strategy", "window_layers"],
        ),
        (tamper(&request, &["fault_spec", "seed"], Json::from(-1)), vec!["fault_spec", "seed"]),
        (tamper(&request, &["fault_spec"], Json::from("nope")), vec!["fault_spec"]),
    ];
    for (error, keys) in errors {
        for key in keys {
            assert!(error.contains(&format!("field \"{key}\":")), "{key:?} not named in: {error}");
        }
    }
}

// The goldens. Edit one only together with the `PROTOCOL_VERSION` or
// artifact-cache `VERSION` bump that the layout change it records needs.
const OPTIONS_DEFAULT: &str =
    r##"{"strategy":{"all_gather":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false},"reduce_scatter":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false},"fusion":"Off","partitioning":"Auto"},"scheduler":"BottomUp","disable_cost_gate":false,"split_all_reduce":false}"##;
const OPTIONS_PAPER: &str =
    r##"{"strategy":{"all_gather":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false},"reduce_scatter":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false},"fusion":"OverlapAware","partitioning":"Auto"},"scheduler":"BottomUp","disable_cost_gate":false,"split_all_reduce":false}"##;
const OPTIONS_QUANTIZED: &str =
    r##"{"strategy":{"all_gather":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false,"wire":{"Int8Block":{"block":64}}},"reduce_scatter":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false,"wire":{"Int8Block":{"block":64}}},"fusion":"OverlapAware","partitioning":"Auto","window_layers":4},"scheduler":"BottomUp","disable_cost_gate":false,"split_all_reduce":false,"error_budget":0.001}"##;
const STRATEGY_DEFAULT: &str =
    r##"{"all_gather":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false},"reduce_scatter":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false},"fusion":"Off","partitioning":"Auto"}"##;
const STRATEGY_PAPER: &str =
    r##"{"all_gather":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false},"reduce_scatter":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false},"fusion":"OverlapAware","partitioning":"Auto"}"##;
const STRATEGY_QUANTIZED: &str =
    r##"{"all_gather":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false,"wire":{"Int8Block":{"block":64}}},"reduce_scatter":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false,"wire":{"Int8Block":{"block":64}}},"fusion":"OverlapAware","partitioning":"Auto","window_layers":4}"##;
const FAULTS_DEFAULT: &str =
    r##"{"seed":0,"link_derates":[],"down_links":[],"stragglers":[],"jitter_seconds":0.0,"stall_probability":0.0,"stall_seconds":0.0,"stall_max_retries":0,"time_limit_seconds":0.0}"##;
const FAULTS_FULL: &str =
    r##"{"seed":7,"link_derates":[{"link":{"device":1,"axis":0,"forward":false},"derate":0.25}],"down_links":[{"device":2,"axis":1,"forward":true}],"stragglers":[{"device":3,"slowdown":2.0}],"jitter_seconds":2e-6,"stall_probability":0.05,"stall_seconds":5e-7,"stall_max_retries":4,"time_limit_seconds":10.0}"##;
const MODULE_INPUT: &str =
    r##"{"name":"golden","instrs":[{"name":"x","shape":{"dtype":"BF16","dims":[2048,1024]},"op":{"Parameter":{"index":0}},"operands":[],"tag":null},{"name":"w","shape":{"dtype":"BF16","dims":[1024,1024]},"op":{"Parameter":{"index":1}},"operands":[],"tag":null},{"name":"wg","shape":{"dtype":"BF16","dims":[1024,4096]},"op":{"AllGather":{"dim":1,"groups":[[0,1,2,3]]}},"operands":[1],"tag":null},{"name":"y","shape":{"dtype":"BF16","dims":[2048,4096]},"op":{"Einsum":{"batch":[],"contracting":[[1,0]]}},"operands":[0,2],"tag":null}],"outputs":[3],"num_partitions":4,"fusion_groups":[]}"##;
const MODULE_COMPILED: &str =
    r##"{"name":"golden","instrs":[{"name":"x","shape":{"dtype":"BF16","dims":[2048,1024]},"op":{"Parameter":{"index":0}},"operands":[],"tag":null},{"name":"w","shape":{"dtype":"BF16","dims":[1024,1024]},"op":{"Parameter":{"index":1}},"operands":[],"tag":null},{"name":"lce.rank_table","shape":{"dtype":"U32","dims":[4]},"op":{"ConstantTensor":{"values":[0.0,1.0,2.0,3.0]}},"operands":[],"tag":"lce"},{"name":"lce.pid","shape":{"dtype":"U32","dims":[]},"op":"PartitionId","operands":[],"tag":"lce"},{"name":"lce.rank1","shape":{"dtype":"U32","dims":[1]},"op":{"DynamicSlice":{"sizes":[1]}},"operands":[2,3],"tag":"lce"},{"name":"lce.rank","shape":{"dtype":"U32","dims":[]},"op":"Reshape","operands":[4],"tag":"lce"},{"name":"lce.zero","shape":{"dtype":"U32","dims":[]},"op":{"Constant":{"value":0.0}},"operands":[],"tag":"lce"},{"name":"lce.g","shape":{"dtype":"U32","dims":[]},"op":{"Constant":{"value":4.0}},"operands":[],"tag":"lce"},{"name":"y.init","shape":{"dtype":"BF16","dims":[2048,4096]},"op":{"Constant":{"value":0.0}},"operands":[],"tag":"lce"},{"name":"y.partial","shape":{"dtype":"BF16","dims":[2048,1024]},"op":{"Einsum":{"batch":[],"contracting":[[1,0]]}},"operands":[0,1],"tag":"lce.partial_einsum"},{"name":"y.cp","shape":{"dtype":"BF16","dims":[1024,1024]},"op":{"CollectivePermuteStart":{"pairs":[[0,3],[1,0],[2,1],[3,2]]}},"operands":[1],"tag":"lce.cp"},{"name":"y.cp.done","shape":{"dtype":"BF16","dims":[1024,1024]},"op":"CollectivePermuteDone","operands":[10],"tag":"lce.cp"},{"name":"lce.rank_plus","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Add"},"operands":[5,6],"tag":"lce.combine"},{"name":"lce.shard","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Rem"},"operands":[12,7],"tag":"lce.combine"},{"name":"lce.scale","shape":{"dtype":"U32","dims":[]},"op":{"Constant":{"value":1024.0}},"operands":[],"tag":"lce.combine"},{"name":"lce.offset","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Mul"},"operands":[13,14],"tag":"lce.combine"},{"name":"y.dus","shape":{"dtype":"BF16","dims":[2048,4096]},"op":"DynamicUpdateSlice","operands":[8,9,6,15],"tag":"lce.combine"},{"name":"y.partial.1","shape":{"dtype":"BF16","dims":[2048,1024]},"op":{"Einsum":{"batch":[],"contracting":[[1,0]]}},"operands":[0,11],"tag":"lce.partial_einsum"},{"name":"y.cp.1","shape":{"dtype":"BF16","dims":[1024,1024]},"op":{"CollectivePermuteStart":{"pairs":[[0,3],[1,0],[2,1],[3,2]]}},"operands":[11],"tag":"lce.cp"},{"name":"y.cp.1.done","shape":{"dtype":"BF16","dims":[1024,1024]},"op":"CollectivePermuteDone","operands":[18],"tag":"lce.cp"},{"name":"lce.delta.1","shape":{"dtype":"U32","dims":[]},"op":{"Constant":{"value":1.0}},"operands":[],"tag":"lce.combine"},{"name":"lce.rank_plus.1","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Add"},"operands":[5,20],"tag":"lce.combine"},{"name":"lce.shard.1","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Rem"},"operands":[21,7],"tag":"lce.combine"},{"name":"lce.offset.1","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Mul"},"operands":[22,14],"tag":"lce.combine"},{"name":"y.dus.1","shape":{"dtype":"BF16","dims":[2048,4096]},"op":"DynamicUpdateSlice","operands":[16,17,6,23],"tag":"lce.combine"},{"name":"y.partial.2","shape":{"dtype":"BF16","dims":[2048,1024]},"op":{"Einsum":{"batch":[],"contracting":[[1,0]]}},"operands":[0,19],"tag":"lce.partial_einsum"},{"name":"y.cp.2","shape":{"dtype":"BF16","dims":[1024,1024]},"op":{"CollectivePermuteStart":{"pairs":[[0,3],[1,0],[2,1],[3,2]]}},"operands":[19],"tag":"lce.cp"},{"name":"y.cp.2.done","shape":{"dtype":"BF16","dims":[1024,1024]},"op":"CollectivePermuteDone","operands":[26],"tag":"lce.cp"},{"name":"lce.delta.2","shape":{"dtype":"U32","dims":[]},"op":{"Constant":{"value":2.0}},"operands":[],"tag":"lce.combine"},{"name":"lce.rank_plus.2","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Add"},"operands":[5,28],"tag":"lce.combine"},{"name":"lce.shard.2","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Rem"},"operands":[29,7],"tag":"lce.combine"},{"name":"lce.offset.2","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Mul"},"operands":[30,14],"tag":"lce.combine"},{"name":"y.dus.2","shape":{"dtype":"BF16","dims":[2048,4096]},"op":"DynamicUpdateSlice","operands":[24,25,6,31],"tag":"lce.combine"},{"name":"y.partial.3","shape":{"dtype":"BF16","dims":[2048,1024]},"op":{"Einsum":{"batch":[],"contracting":[[1,0]]}},"operands":[0,27],"tag":"lce.partial_einsum"},{"name":"lce.delta.3","shape":{"dtype":"U32","dims":[]},"op":{"Constant":{"value":3.0}},"operands":[],"tag":"lce.combine"},{"name":"lce.rank_plus.3","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Add"},"operands":[5,34],"tag":"lce.combine"},{"name":"lce.shard.3","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Rem"},"operands":[35,7],"tag":"lce.combine"},{"name":"lce.offset.3","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Mul"},"operands":[36,14],"tag":"lce.combine"},{"name":"y.dus.3","shape":{"dtype":"BF16","dims":[2048,4096]},"op":"DynamicUpdateSlice","operands":[32,33,6,37],"tag":"lce.combine"}],"outputs":[38],"num_partitions":4,"fusion_groups":[{"members":[9,16],"root":16},{"members":[17,24],"root":24},{"members":[25,32],"root":32},{"members":[33,38],"root":38}]}"##;
const MODULE_COMPILED_INT8: &str =
    r##"{"name":"golden","instrs":[{"name":"x","shape":{"dtype":"BF16","dims":[2048,1024]},"op":{"Parameter":{"index":0}},"operands":[],"tag":null},{"name":"w","shape":{"dtype":"BF16","dims":[1024,1024]},"op":{"Parameter":{"index":1}},"operands":[],"tag":null},{"name":"lce.rank_table","shape":{"dtype":"U32","dims":[4]},"op":{"ConstantTensor":{"values":[0.0,1.0,2.0,3.0]}},"operands":[],"tag":"lce"},{"name":"lce.pid","shape":{"dtype":"U32","dims":[]},"op":"PartitionId","operands":[],"tag":"lce"},{"name":"lce.rank1","shape":{"dtype":"U32","dims":[1]},"op":{"DynamicSlice":{"sizes":[1]}},"operands":[2,3],"tag":"lce"},{"name":"lce.rank","shape":{"dtype":"U32","dims":[]},"op":"Reshape","operands":[4],"tag":"lce"},{"name":"lce.zero","shape":{"dtype":"U32","dims":[]},"op":{"Constant":{"value":0.0}},"operands":[],"tag":"lce"},{"name":"lce.g","shape":{"dtype":"U32","dims":[]},"op":{"Constant":{"value":4.0}},"operands":[],"tag":"lce"},{"name":"y.init","shape":{"dtype":"BF16","dims":[2048,4096]},"op":{"Constant":{"value":0.0}},"operands":[],"tag":"lce"},{"name":"y.partial","shape":{"dtype":"BF16","dims":[2048,1024]},"op":{"Einsum":{"batch":[],"contracting":[[1,0]]}},"operands":[0,1],"tag":"lce.partial_einsum"},{"name":"y.cp","shape":{"dtype":"BF16","dims":[1024,1024]},"op":{"CollectivePermuteStart":{"pairs":[[0,3],[1,0],[2,1],[3,2]],"wire":{"Int8Block":{"block":64}}}},"operands":[1],"tag":"lce.cp"},{"name":"y.cp.done","shape":{"dtype":"BF16","dims":[1024,1024]},"op":"CollectivePermuteDone","operands":[10],"tag":"lce.cp"},{"name":"lce.rank_plus","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Add"},"operands":[5,6],"tag":"lce.combine"},{"name":"lce.shard","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Rem"},"operands":[12,7],"tag":"lce.combine"},{"name":"lce.scale","shape":{"dtype":"U32","dims":[]},"op":{"Constant":{"value":1024.0}},"operands":[],"tag":"lce.combine"},{"name":"lce.offset","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Mul"},"operands":[13,14],"tag":"lce.combine"},{"name":"y.dus","shape":{"dtype":"BF16","dims":[2048,4096]},"op":"DynamicUpdateSlice","operands":[8,9,6,15],"tag":"lce.combine"},{"name":"y.partial.1","shape":{"dtype":"BF16","dims":[2048,1024]},"op":{"Einsum":{"batch":[],"contracting":[[1,0]]}},"operands":[0,11],"tag":"lce.partial_einsum"},{"name":"y.cp.1","shape":{"dtype":"BF16","dims":[1024,1024]},"op":{"CollectivePermuteStart":{"pairs":[[0,3],[1,0],[2,1],[3,2]],"wire":{"Int8Block":{"block":64}}}},"operands":[11],"tag":"lce.cp"},{"name":"y.cp.1.done","shape":{"dtype":"BF16","dims":[1024,1024]},"op":"CollectivePermuteDone","operands":[18],"tag":"lce.cp"},{"name":"lce.delta.1","shape":{"dtype":"U32","dims":[]},"op":{"Constant":{"value":1.0}},"operands":[],"tag":"lce.combine"},{"name":"lce.rank_plus.1","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Add"},"operands":[5,20],"tag":"lce.combine"},{"name":"lce.shard.1","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Rem"},"operands":[21,7],"tag":"lce.combine"},{"name":"lce.offset.1","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Mul"},"operands":[22,14],"tag":"lce.combine"},{"name":"y.dus.1","shape":{"dtype":"BF16","dims":[2048,4096]},"op":"DynamicUpdateSlice","operands":[16,17,6,23],"tag":"lce.combine"},{"name":"y.partial.2","shape":{"dtype":"BF16","dims":[2048,1024]},"op":{"Einsum":{"batch":[],"contracting":[[1,0]]}},"operands":[0,19],"tag":"lce.partial_einsum"},{"name":"y.cp.2","shape":{"dtype":"BF16","dims":[1024,1024]},"op":{"CollectivePermuteStart":{"pairs":[[0,3],[1,0],[2,1],[3,2]],"wire":{"Int8Block":{"block":64}}}},"operands":[19],"tag":"lce.cp"},{"name":"y.cp.2.done","shape":{"dtype":"BF16","dims":[1024,1024]},"op":"CollectivePermuteDone","operands":[26],"tag":"lce.cp"},{"name":"lce.delta.2","shape":{"dtype":"U32","dims":[]},"op":{"Constant":{"value":2.0}},"operands":[],"tag":"lce.combine"},{"name":"lce.rank_plus.2","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Add"},"operands":[5,28],"tag":"lce.combine"},{"name":"lce.shard.2","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Rem"},"operands":[29,7],"tag":"lce.combine"},{"name":"lce.offset.2","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Mul"},"operands":[30,14],"tag":"lce.combine"},{"name":"y.dus.2","shape":{"dtype":"BF16","dims":[2048,4096]},"op":"DynamicUpdateSlice","operands":[24,25,6,31],"tag":"lce.combine"},{"name":"y.partial.3","shape":{"dtype":"BF16","dims":[2048,1024]},"op":{"Einsum":{"batch":[],"contracting":[[1,0]]}},"operands":[0,27],"tag":"lce.partial_einsum"},{"name":"lce.delta.3","shape":{"dtype":"U32","dims":[]},"op":{"Constant":{"value":3.0}},"operands":[],"tag":"lce.combine"},{"name":"lce.rank_plus.3","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Add"},"operands":[5,34],"tag":"lce.combine"},{"name":"lce.shard.3","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Rem"},"operands":[35,7],"tag":"lce.combine"},{"name":"lce.offset.3","shape":{"dtype":"U32","dims":[]},"op":{"Binary":"Mul"},"operands":[36,14],"tag":"lce.combine"},{"name":"y.dus.3","shape":{"dtype":"BF16","dims":[2048,4096]},"op":"DynamicUpdateSlice","operands":[32,33,6,37],"tag":"lce.combine"}],"outputs":[38],"num_partitions":4,"fusion_groups":[{"members":[9,16],"root":16},{"members":[17,24],"root":24},{"members":[25,32],"root":32},{"members":[33,38],"root":38}]}"##;
const DECISIONS: &str =
    r##"[{"pattern":{"einsum":3,"collective":2,"kind":{"AllGatherEinsum":{"gathered_is_lhs":false,"case":"Free"}}},"comp_t":7.041361286464646e-5,"comm_t":4.297696e-5,"comm_t_ring":5.919338666666666e-5,"extra_t":0.0,"comp_d":9.117162886464647e-5,"beneficial":true,"bidirectional":false}]"##;
const SUMMARIES: &str =
    r##"[{"einsum":"y","group_size":4,"partial_einsums":4,"permutes":3,"bidirectional":false,"unrolled":true,"chunk":1,"unroll_fallback":null,"bidirectional_fallback":null,"chunk_fallback":null}]"##;
const FALLBACKS: &str =
    r##"[{"einsum":"y","reason":"wire int8x64 predicted relative error 3.937e-3 over 1 quantization events exceeds the error budget 1.000e-3; forced lossless"}]"##;
const SUMMARY_REASONS: &str =
    r##"[{"einsum":"y","group_size":3,"partial_einsums":3,"permutes":2,"bidirectional":false,"unrolled":false,"chunk":2,"unroll_fallback":"odd group","bidirectional_fallback":null,"chunk_fallback":"chunk does not divide the shard"}]"##;
const REQ_PING: &str = r##"{"request":"ping"}"##;
const REQ_STATS: &str = r##"{"request":"stats"}"##;
const REQ_SHUTDOWN: &str = r##"{"request":"shutdown"}"##;
const REQ_SUBSCRIBE: &str = r##"{"request":"subscribe"}"##;
const REQ_FLEET_STATS: &str = r##"{"request":"fleet-stats"}"##;
const REQ_FETCH: &str = r##"{"request":"fetch","key":"00ff00ff00ff00ff00ff00ff00ff00ff"}"##;
const REQ_NAMED: &str =
    r##"{"request":"compile","model":"GPT_32B","machine":"model-default","options":{"strategy":{"all_gather":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false},"reduce_scatter":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false},"fusion":"OverlapAware","partitioning":"Auto"},"scheduler":"BottomUp","disable_cost_gate":false,"split_all_reduce":false}}"##;
const REQ_INLINE: &str =
    r##"{"request":"compile","model":{"module":{"name":"golden","instrs":[{"name":"x","shape":{"dtype":"BF16","dims":[2048,1024]},"op":{"Parameter":{"index":0}},"operands":[],"tag":null},{"name":"w","shape":{"dtype":"BF16","dims":[1024,1024]},"op":{"Parameter":{"index":1}},"operands":[],"tag":null},{"name":"wg","shape":{"dtype":"BF16","dims":[1024,4096]},"op":{"AllGather":{"dim":1,"groups":[[0,1,2,3]]}},"operands":[1],"tag":null},{"name":"y","shape":{"dtype":"BF16","dims":[2048,4096]},"op":{"Einsum":{"batch":[],"contracting":[[1,0]]}},"operands":[0,2],"tag":null}],"outputs":[3],"num_partitions":4,"fusion_groups":[]}},"machine":{"kind":"tpu_v4","chips":4},"options":{"strategy":{"all_gather":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false,"wire":{"Int8Block":{"block":64}}},"reduce_scatter":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false,"wire":{"Int8Block":{"block":64}}},"fusion":"OverlapAware","partitioning":"Auto","window_layers":4},"scheduler":"BottomUp","disable_cost_gate":false,"split_all_reduce":false,"error_budget":0.001},"fault_spec":{"seed":7,"link_derates":[{"link":{"device":1,"axis":0,"forward":false},"derate":0.25}],"down_links":[{"device":2,"axis":1,"forward":true}],"stragglers":[{"device":3,"slowdown":2.0}],"jitter_seconds":2e-6,"stall_probability":0.05,"stall_seconds":5e-7,"stall_max_retries":4,"time_limit_seconds":10.0},"deadline_ms":1500}"##;
const REQ_GPU: &str =
    r##"{"request":"compile","model":"GPT_64B","machine":{"kind":"gpu_cluster","chips":16},"options":{"strategy":{"all_gather":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false},"reduce_scatter":{"chunk":1,"unroll":true,"ring":"Bidirectional","pad_max_concat":false},"fusion":"OverlapAware","partitioning":"Auto"},"scheduler":"BottomUp","disable_cost_gate":false,"split_all_reduce":false}}"##;
const RESP_PONG: &str = r##"{"response":"pong"}"##;
const RESP_SHUTTING_DOWN: &str = r##"{"response":"shutting-down"}"##;
const RESP_SUBSCRIBED: &str = r##"{"response":"subscribed"}"##;
const RESP_STATS: &str =
    r##"{"response":"stats","node":"node-1","uptime_ms":12.5,"requests":9,"ok":7,"errors":2,"shed":1,"coalesced":2,"batches":6,"pipelined":4,"queue_depth":3,"workers":4,"qps":0.5,"cache_memory_hits":5,"cache_disk_hits":1,"cache_peer_hits":2,"cache_misses":3,"cache_hit_rate":0.6667,"fetches":4,"peer_fetches":6,"latency":{"count":9,"p50_ms":1.0,"p90_ms":2.0,"p99_ms":3.5,"max_ms":4.0},"latency_buckets":[3,0,6]}"##;
const RESP_FLEET_STATS: &str =
    r##"{"response":"fleet-stats","origin":"node-0","total":2,"alive":1,"requests":11,"ok":10,"errors":1,"shed":0,"coalesced":3,"batches":5,"pipelined":2,"fetches":1,"peer_fetches":2,"cache_memory_hits":4,"cache_disk_hits":1,"cache_peer_hits":1,"cache_misses":5,"cache_hit_rate":0.5455,"latency":{"count":9,"p50_ms":1.0,"p90_ms":2.0,"p99_ms":3.5,"max_ms":4.0},"nodes":[{"node":"node-0","alive":true,"requests":11,"cache_misses":5,"cache_peer_hits":1},{"node":"node-1","alive":false,"requests":0,"cache_misses":0,"cache_peer_hits":0}]}"##;
const RESP_ARTIFACT_MISS: &str = r##"{"response":"artifact","key":"deadbeef","entry":null}"##;
const RESP_ARTIFACT_HIT: &str =
    r##"{"response":"artifact","key":"deadbeef","entry":{"key":"deadbeef","payload":"x"}}"##;
const RESP_COMPILED: &str =
    r##"{"response":"compiled","result":{"model":"golden","num_partitions":4,"artifact_key":"000102030405060708090a0b0c0d0e0f","module_fingerprint":"101112131415161718191a1b1c1d1e1f","machine_fingerprint":"202122232425262728292a2b2c2d2e2f","options_fingerprint":"303132333435363738393a3b3c3d3e3f","input_identity":"404142434445464748494a4b4c4d4e4f","compiled_identity":"505152535455565758595a5b5c5d5e5f","order_len":39,"decisions":[{"pattern":{"einsum":3,"collective":2,"kind":{"AllGatherEinsum":{"gathered_is_lhs":false,"case":"Free"}}},"comp_t":7.041361286464646e-5,"comm_t":4.297696e-5,"comm_t_ring":5.919338666666666e-5,"extra_t":0.0,"comp_d":9.117162886464647e-5,"beneficial":true,"bidirectional":false}],"summaries":[{"einsum":"y","group_size":4,"partial_einsums":4,"permutes":3,"bidirectional":false,"unrolled":true,"chunk":1,"unroll_fallback":null,"bidirectional_fallback":null,"chunk_fallback":null}],"fallbacks":[{"einsum":"y","reason":"wire int8x64 predicted relative error 3.937e-3 over 1 quantization events exceeds the error budget 1.000e-3; forced lossless"}],"baseline":{"makespan":0.0025,"compute_time":0.0015,"memory_time":0.00025,"sync_comm_time":0.0,"exposed_async_time":0.000125,"hidden_async_time":0.00075,"comm_fraction":0.0625,"total_flops":17179869184},"overlapped":{"makespan":0.002,"compute_time":0.0015,"memory_time":0.00025,"sync_comm_time":0.0,"exposed_async_time":0.000125,"hidden_async_time":0.00075,"comm_fraction":0.0625,"total_flops":17179869184},"speedup":1.25},"served":{"source":"compiled","queue_ms":0.125,"service_ms":5.0}}"##;
const EVENT_ACCEPT: &str =
    r##"{"response":"event","record":{"seq":1,"t_ms":0.0,"event":{"type":"accept","conn":1}}}"##;
const EVENT_ADMIT: &str =
    r##"{"response":"event","record":{"seq":2,"t_ms":1.5,"event":{"type":"admit","conn":1,"req":2,"kind":"compile","pipelined":true}}}"##;
const EVENT_BATCH_COALESCE: &str =
    r##"{"response":"event","record":{"seq":3,"t_ms":3.0,"event":{"type":"batch-coalesce","conn":1,"req":3,"batch":"ab12"}}}"##;
const EVENT_COMPILE_START: &str =
    r##"{"response":"event","record":{"seq":4,"t_ms":4.5,"event":{"type":"compile-start","batch":"ab12","model":"GPT_32B"}}}"##;
const EVENT_COMPILE_FINISH: &str =
    r##"{"response":"event","record":{"seq":5,"t_ms":6.0,"event":{"type":"compile-finish","batch":"ab12","model":"GPT_32B","compile_ms":4.5,"outcome":"compiled"}}}"##;
const EVENT_CACHE_OUTCOME: &str =
    r##"{"response":"event","record":{"seq":6,"t_ms":7.5,"event":{"type":"cache-outcome","conn":1,"req":2,"source":"memory"}}}"##;
const EVENT_SHED: &str =
    r##"{"response":"event","record":{"seq":7,"t_ms":9.0,"event":{"type":"shed","conn":0,"scope":"connection"}}}"##;
const EVENT_DONE: &str =
    r##"{"response":"event","record":{"seq":8,"t_ms":10.5,"event":{"type":"done","conn":1,"req":2,"kind":"compile","ok":true,"queue_ms":0.25,"compile_ms":4.5,"serialize_ms":0.0625}}}"##;
const EVENT_DRAIN: &str =
    r##"{"response":"event","record":{"seq":9,"t_ms":12.0,"event":{"type":"drain","reason":"signal"}}}"##;
const EVENT_CLOSE: &str =
    r##"{"response":"event","record":{"seq":10,"t_ms":13.5,"event":{"type":"close","conn":1}}}"##;
const EVENT_FETCH: &str =
    r##"{"response":"event","record":{"seq":11,"t_ms":15.0,"event":{"type":"fetch","conn":4,"req":5,"key":"ab12","hit":false}}}"##;
const EVENT_PEER_FETCH: &str =
    r##"{"response":"event","record":{"seq":12,"t_ms":16.5,"event":{"type":"peer-fetch","node":"node-2","key":"ab12","outcome":"rejected"}}}"##;
const EVENT_PEER_STATE: &str =
    r##"{"response":"event","record":{"seq":13,"t_ms":18.0,"event":{"type":"peer-state","node":"node-2","state":"ejected"}}}"##;
