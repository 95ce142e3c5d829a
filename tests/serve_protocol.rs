//! The service layer's contract, end to end.
//!
//! Three layers of coverage:
//!
//! 1. **Codecs** — every request/response variant round-trips through
//!    its JSON encoding.
//! 2. **Framing** — malformed headers, truncated payloads (short
//!    reads), unknown protocol versions and oversized frames each
//!    produce the matching typed [`WireError`], never a panic or a
//!    misparse.
//! 3. **End to end** — a real `Server` on an ephemeral localhost port,
//!    driven by concurrent clients: responses must be byte-identical
//!    to direct `OverlapPipeline` + simulator calls, identical
//!    in-flight requests must collapse to one pipeline run
//!    (fingerprint-level dedup), and a shutdown request must drain
//!    gracefully.

use overlap_core::{ArtifactCache, OverlapOptions, OverlapPipeline};
use proptest::prelude::*;
use overlap_hlo::{Builder, DType, DotDims, Module, ReplicaGroups, Shape};
use overlap_json::{FromJson, Json, ToJson};
use overlap_mesh::{FaultSpec, Machine};
use overlap_serve::exec::{execute, Deadline};
use overlap_serve::{
    read_frame, write_frame, Client, ClientError, CompileRequest, ErrorKind, ErrorResponse,
    FrameReader, LatencySummary, MachineSpec, ModelRef, Request, Response, ServeConfig, Server,
    ServedInfo, StatsResponse, WireError, PROTOCOL_VERSION,
};

/// A small 4-way layer that exercises decomposition without the cost
/// of a Table-1 workload. The row count varies with `name`: the
/// artifact key fingerprints structure, not names, so two same-shaped
/// modules would share a cache slot (and recompile on every identity
/// mismatch) instead of deduping independently.
fn tiny_module(name: &str) -> Module {
    tiny_module_with_input(name, "x")
}

/// [`tiny_module`] with its first parameter called `input`: same
/// structure (same artifact key), different identity.
fn tiny_module_with_input(name: &str, input: &str) -> Module {
    let n = 4;
    let rows = 2048 + 512 * (name.bytes().map(usize::from).sum::<usize>() % 4);
    let mut b = Builder::new(name, n);
    let x = b.parameter(Shape::new(DType::BF16, vec![rows, 1024]), input);
    let w = b.parameter(Shape::new(DType::BF16, vec![1024, 4096 / n]), "w");
    let wg = b.all_gather(w, 1, ReplicaGroups::full(n), "wg");
    let y = b.einsum(x, wg, DotDims::matmul(), "y");
    b.build(vec![y])
}

fn inline_request(name: &str) -> CompileRequest {
    CompileRequest {
        model: ModelRef::Inline(Box::new(tiny_module(name))),
        machine: MachineSpec::ModelDefault,
        options: OverlapOptions::paper_default(),
        fault_spec: None,
        deadline_ms: None,
    }
}

// ---------------------------------------------------------------------------
// 1. Codecs
// ---------------------------------------------------------------------------

#[test]
fn every_request_variant_roundtrips() {
    let requests = [
        Request::Ping,
        Request::Stats,
        Request::Shutdown,
        Request::Subscribe,
        Request::FleetStats,
        Request::Fetch { key: "00ff00ff00ff00ff00ff00ff00ff00ff".into() },
        Request::Compile(Box::new(CompileRequest::named("GPT_32B"))),
        Request::Compile(Box::new(CompileRequest {
            model: ModelRef::Inline(Box::new(tiny_module("wire"))),
            machine: MachineSpec::TpuV4 { chips: 4 },
            options: OverlapOptions { disable_cost_gate: true, ..OverlapOptions::paper_default() },
            fault_spec: Some(FaultSpec::seeded(7).with_straggler(0, 2.0)),
            deadline_ms: Some(1500),
        })),
        Request::Compile(Box::new(CompileRequest {
            model: ModelRef::Named("GPT_64B".into()),
            machine: MachineSpec::GpuCluster { chips: 16 },
            options: OverlapOptions::paper_default(),
            fault_spec: None,
            deadline_ms: None,
        })),
    ];
    for req in requests {
        let wire = req.to_json().to_string();
        let back = Request::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(req, back, "request did not survive the wire: {wire}");
    }
}

#[test]
fn every_response_variant_roundtrips() {
    // A real compile response (exercises the nested result codec).
    let (result, _) =
        execute(&inline_request("codec"), &ArtifactCache::in_memory(), Deadline::none())
            .unwrap();
    let responses = [
        Response::Pong,
        Response::ShuttingDown,
        Response::Subscribed,
        Response::Event(Box::new(overlap_serve::EventRecord {
            seq: 7,
            t_ms: 1.25,
            event: overlap_serve::ServeEvent::Shed { conn: 3, scope: "request".into() },
        })),
        Response::Error(ErrorResponse {
            kind: ErrorKind::Overloaded,
            message: "busy".into(),
        }),
        Response::Stats(Box::new(StatsResponse {
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
            latency: LatencySummary { count: 9, p50_ms: 1.0, p90_ms: 2.0, p99_ms: 3.0, max_ms: 4.0 },
            latency_buckets: vec![3, 0, 6],
        })),
        Response::Artifact(Box::new(overlap_serve::ArtifactResponse {
            key: "deadbeef".into(),
            entry: None,
        })),
        Response::Artifact(Box::new(overlap_serve::ArtifactResponse {
            key: "deadbeef".into(),
            entry: Some(Json::obj().with("key", "deadbeef").with("payload", "x")),
        })),
        Response::FleetStats(Box::new(overlap_serve::FleetStatsResponse {
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
            latency: LatencySummary { count: 11, p50_ms: 1.0, p90_ms: 2.0, p99_ms: 3.0, max_ms: 4.0 },
            nodes: vec![
                overlap_serve::FleetNodeStatus {
                    node: "node-0".into(),
                    alive: true,
                    requests: 11,
                    cache_misses: 5,
                    cache_peer_hits: 1,
                },
                overlap_serve::FleetNodeStatus {
                    node: "node-1".into(),
                    alive: false,
                    requests: 0,
                    cache_misses: 0,
                    cache_peer_hits: 0,
                },
            ],
        })),
        Response::Compiled(Box::new(overlap_serve::CompileResponse {
            result,
            served: ServedInfo { source: "compiled".into(), queue_ms: 0.1, service_ms: 5.0 },
        })),
    ];
    for resp in responses {
        let wire = resp.to_json().to_string();
        let back = Response::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(resp, back, "response did not survive the wire: {wire}");
    }
}

#[test]
fn every_error_kind_has_a_stable_wire_name() {
    for kind in [
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
    ] {
        let back = ErrorKind::from_json(&kind.to_json()).unwrap();
        assert_eq!(kind, back);
    }
    assert!(ErrorKind::from_json(&Json::from("made-up")).is_err());
}

// ---------------------------------------------------------------------------
// 2. Framing
// ---------------------------------------------------------------------------

fn read_all(bytes: &[u8]) -> Result<Json, WireError> {
    let mut cursor = std::io::Cursor::new(bytes.to_vec());
    read_frame(&mut cursor, &mut FrameReader::new())
}

#[test]
fn frames_roundtrip_even_byte_by_byte() {
    let payload = Request::Ping.to_json();
    let mut buf = Vec::new();
    write_frame(&mut buf, &payload).unwrap();
    assert_eq!(read_all(&buf).unwrap(), payload);

    // A reader fed one byte at a time must produce the same frame —
    // this is the short-read resilience the incremental reader exists
    // for.
    struct OneByte(std::io::Cursor<Vec<u8>>);
    impl std::io::Read for OneByte {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let take = 1.min(out.len());
            std::io::Read::read(&mut self.0, &mut out[..take])
        }
    }
    let mut dribble = OneByte(std::io::Cursor::new(buf));
    assert_eq!(read_frame(&mut dribble, &mut FrameReader::new()).unwrap(), payload);
}

#[test]
fn truncated_payload_is_a_typed_malformed_error() {
    let mut buf = Vec::new();
    write_frame(&mut buf, &Request::Stats.to_json()).unwrap();
    let cut = buf.len() - 4;
    match read_all(&buf[..cut]) {
        Err(WireError::Malformed(m)) => assert!(m.contains("ended inside"), "{m}"),
        other => panic!("expected Malformed for a short read, got {other:?}"),
    }
}

#[test]
fn unknown_version_is_rejected_before_the_payload() {
    let buf = b"overlap-serve/999 4\n{}  ".to_vec();
    match read_all(&buf) {
        Err(WireError::UnknownVersion(v)) => assert_eq!(v, "overlap-serve/999"),
        other => panic!("expected UnknownVersion, got {other:?}"),
    }
    assert_eq!(
        WireError::UnknownVersion(String::new()).to_error_kind(),
        Some(ErrorKind::UnknownVersion)
    );
}

#[test]
fn garbage_headers_and_oversized_frames_are_typed() {
    // The first header token is the version, so free-form garbage reads
    // as a version we do not speak; a one-token header is malformed.
    assert!(matches!(read_all(b"not a header at all\n"), Err(WireError::UnknownVersion(v)) if v == "not"));
    assert!(matches!(read_all(b"noheader\n"), Err(WireError::Malformed(_))));
    assert!(matches!(
        read_all(format!("{PROTOCOL_VERSION} not-a-number\n").as_bytes()),
        Err(WireError::Malformed(_))
    ));
    // A header that never terminates.
    assert!(matches!(read_all(&[b'x'; 200]), Err(WireError::Malformed(_))));
    // An announced length beyond the cap, rejected before allocation.
    match read_all(format!("{PROTOCOL_VERSION} 99999999999\n").as_bytes()) {
        Err(WireError::FrameTooLarge(n)) => assert_eq!(n, 99_999_999_999usize),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    // Unparseable payload JSON.
    assert!(matches!(
        read_all(format!("{PROTOCOL_VERSION} 3\n{{,}}").as_bytes()),
        Err(WireError::Malformed(_))
    ));
    // Clean EOF between frames is Closed, not an error.
    assert!(matches!(read_all(b""), Err(WireError::Closed)));
}

#[test]
fn two_frames_on_one_stream_both_decode() {
    let mut buf = Vec::new();
    write_frame(&mut buf, &Request::Ping.to_json()).unwrap();
    write_frame(&mut buf, &Request::Stats.to_json()).unwrap();
    let mut cursor = std::io::Cursor::new(buf);
    let mut reader = FrameReader::new();
    assert_eq!(read_frame(&mut cursor, &mut reader).unwrap(), Request::Ping.to_json());
    assert_eq!(read_frame(&mut cursor, &mut reader).unwrap(), Request::Stats.to_json());
    assert!(matches!(read_frame(&mut cursor, &mut reader), Err(WireError::Closed)));
}

// ---------------------------------------------------------------------------
// 2b. Framing fuzz: random tears, truncations, announcements
// ---------------------------------------------------------------------------

/// A reader that tears the stream into the given chunk sizes (cycled),
/// delivering at most one chunk per `read` call — the adversarial
/// version of a slow peer dribbling bytes.
struct TornReader {
    data: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    turn: usize,
}

impl std::io::Read for TornReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let want = self.sizes[self.turn % self.sizes.len()].max(1);
        self.turn += 1;
        let n = want.min(out.len()).min(self.data.len() - self.pos);
        out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However the kernel splits the bytes, every frame reassembles
    /// exactly once, in order, and the stream ends Closed.
    #[test]
    fn torn_streams_reassemble_every_frame(
        seed in 0u64..1_000_000,
        sizes in proptest::collection::vec(1usize..9, 1..8),
        frames in 1usize..5,
    ) {
        let payloads: Vec<Json> = (0..frames)
            .map(|i| {
                let pad = (seed as usize).wrapping_mul(31).wrapping_add(i * 13) % 64;
                Json::obj()
                    .with("i", i as u64)
                    .with("seed", seed)
                    .with("pad", "x".repeat(pad))
            })
            .collect();
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut src = TornReader { data: buf, pos: 0, sizes, turn: 0 };
        let mut reader = FrameReader::new();
        for p in &payloads {
            prop_assert_eq!(&read_frame(&mut src, &mut reader).unwrap(), p);
        }
        prop_assert!(matches!(read_frame(&mut src, &mut reader), Err(WireError::Closed)));
    }

    /// A stream cut anywhere never panics and never fabricates a
    /// frame: each decode is one of the originals, at most once each,
    /// and the tail is a typed Malformed or a clean Closed.
    #[test]
    fn truncated_streams_never_panic_or_misparse(cut_frac in 0.0f64..1.0) {
        let a = Request::Ping.to_json();
        let b = Request::Stats.to_json();
        let mut buf = Vec::new();
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        let mut cursor = std::io::Cursor::new(buf[..cut.min(buf.len())].to_vec());
        let mut reader = FrameReader::new();
        let mut decoded = 0usize;
        loop {
            match read_frame(&mut cursor, &mut reader) {
                Ok(v) => {
                    let want = if decoded == 0 { &a } else { &b };
                    prop_assert_eq!(&v, want, "fabricated or reordered frame");
                    decoded += 1;
                    prop_assert!(decoded <= 2);
                }
                Err(WireError::Closed | WireError::Malformed(_)) => break,
                Err(e) => prop_assert!(false, "unexpected error shape: {e:?}"),
            }
        }
    }

    /// Any announced length past the cap is rejected as a typed
    /// FrameTooLarge before any payload allocation happens.
    #[test]
    fn oversized_announcements_are_rejected(extra in 1usize..1_000_000_000) {
        let n = overlap_serve::MAX_FRAME_BYTES + extra;
        match read_all(format!("{PROTOCOL_VERSION} {n}\n").as_bytes()) {
            Err(WireError::FrameTooLarge(m)) => prop_assert_eq!(m, n),
            other => prop_assert!(false, "expected FrameTooLarge, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// 3. End to end
// ---------------------------------------------------------------------------

/// Spawns a server on an ephemeral port; returns its address and the
/// thread serving it.
fn spawn_server(
    config: ServeConfig,
) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&config, ArtifactCache::in_memory()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

#[test]
fn concurrent_clients_get_byte_identical_deduped_responses() {
    let (addr, server) = spawn_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 16,
    });

    // The oracle: direct pipeline + simulator calls, no server.
    let names = ["serve_a", "serve_b"];
    let expected: Vec<String> = names
        .iter()
        .map(|n| {
            let (result, _) =
                execute(&inline_request(n), &ArtifactCache::in_memory(), Deadline::none())
                    .unwrap();
            // Cross-check the oracle itself against a hand-rolled
            // compile, so the shared exec path cannot drift silently.
            let module = tiny_module(n);
            let machine = Machine::tpu_v4_like(4);
            let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());
            let compiled =
                pipeline.compile_cached(&module, &machine, &ArtifactCache::in_memory()).unwrap();
            let over = compiled.simulation(&machine).run().unwrap();
            assert_eq!(result.order_len, compiled.order.len());
            assert_eq!(result.overlapped.makespan.to_bits(), over.makespan().to_bits());
            result.to_json().to_string()
        })
        .collect();

    // 8 concurrent clients, each compiling both modules twice.
    let sources = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for tid in 0..8 {
            let addr = &addr;
            let expected = &expected;
            let sources = &sources;
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..2 {
                    for (i, name) in names.iter().enumerate() {
                        let pick = (tid + round + i) % names.len();
                        let resp = client.compile(inline_request(names[pick])).unwrap();
                        assert_eq!(
                            resp.result.to_json().to_string(),
                            expected[pick],
                            "server response for {name} diverged from the direct pipeline"
                        );
                        sources.lock().unwrap().push(resp.served.source.clone());
                    }
                }
            });
        }
    });

    // Fingerprint-level dedup: 32 compile requests over 2 distinct
    // artifacts must run the pipeline exactly twice. Everything else
    // is served either from the single-flight cache ("memory") or by
    // joining an in-flight batch for the same fingerprint
    // ("coalesced") — both are dedup, split by which layer caught it.
    let sources = sources.into_inner().unwrap();
    assert_eq!(sources.len(), 32);
    let compiled = sources.iter().filter(|s| *s == "compiled").count();
    let deduped =
        sources.iter().filter(|s| *s == "memory" || *s == "coalesced").count();
    assert_eq!(compiled, names.len(), "each artifact must compile exactly once");
    assert_eq!(deduped, 32 - names.len());

    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_misses, names.len() as u64);
    // Batch joins never reach the cache, so the two counters split the
    // same 30 deduped requests between them.
    assert_eq!(stats.cache_memory_hits + stats.coalesced, 30);
    assert!(stats.latency.count >= 32);
    assert_eq!(stats.errors, 0);

    // Graceful drain: shutdown is acknowledged, the server thread
    // joins, and late clients are refused.
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn typed_errors_for_bad_requests_and_draining() {
    let (addr, server) = spawn_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 4,
    });
    let mut client = Client::connect(&addr).unwrap();

    // Unknown model.
    let err = client.compile(CompileRequest::named("NOT_A_MODEL")).unwrap_err();
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.kind, ErrorKind::UnknownModel);
            assert!(e.message.contains("GPT_32B"), "should list known names: {}", e.message);
        }
        other => panic!("expected a typed server error, got {other}"),
    }

    // Fault spec that does not fit the machine.
    let mut req = inline_request("faulted");
    req.fault_spec = Some(FaultSpec::seeded(1).with_straggler(99, 3.0));
    match client.compile(req).unwrap_err() {
        ClientError::Server(e) => assert_eq!(e.kind, ErrorKind::InvalidFaultSpec),
        other => panic!("expected invalid-fault-spec, got {other}"),
    }

    // Machine/module mismatch.
    let mut req = inline_request("mismatch");
    req.machine = MachineSpec::TpuV4 { chips: 8 }; // module is 4-way
    match client.compile(req).unwrap_err() {
        ClientError::Server(e) => assert_eq!(e.kind, ErrorKind::InvalidRequest),
        other => panic!("expected invalid-request, got {other}"),
    }

    // An already-expired deadline.
    let mut req = inline_request("late");
    req.deadline_ms = Some(0);
    match client.compile(req).unwrap_err() {
        ClientError::Server(e) => assert_eq!(e.kind, ErrorKind::DeadlineExceeded),
        other => panic!("expected deadline-exceeded, got {other}"),
    }

    // Well-formed JSON that is not a request.
    match client.request(&Request::Ping) {
        Ok(Response::Pong) => {}
        other => panic!("ping failed: {other:?}"),
    }

    // Compiles during a drain are refused with a typed error.
    client.shutdown().unwrap();
    let mut late = Client::connect(&addr);
    if let Ok(late) = late.as_mut() {
        match late.compile(inline_request("too_late")) {
            Err(ClientError::Server(e)) => assert!(e.kind.is_backpressure()),
            // The listener may already be gone; a wire error is an
            // acceptable refusal too.
            Err(ClientError::Wire(_)) => {}
            Ok(_) => panic!("a draining server accepted new work"),
            Err(other) => panic!("unexpected failure shape: {other}"),
        }
    }
    server.join().unwrap().unwrap();
}

/// A certain-stall spec with a retry budget of `u32::MAX` would keep a
/// worker drawing retries for ever. The spec is refused as invalid at
/// once — by the simulator and by the daemon — instead of being run.
#[test]
fn a_runaway_stall_budget_is_refused_not_run() {
    use overlap_sim::{SimError, Simulation};
    use std::time::{Duration, Instant};

    let runaway = FaultSpec::seeded(1).with_dma_stalls(1.0, 1e-9, u32::MAX);
    let mut b = Builder::new("pair", 2);
    let x = b.parameter(Shape::new(DType::F32, vec![1024]), "x");
    let s = b.collective_permute_start(x, vec![(0, 1), (1, 0)], "s");
    let d = b.collective_permute_done(s, "d");
    let m = b.build(vec![d]);
    let machine = Machine::tpu_v4_like(2);
    let t0 = Instant::now();
    let got = Simulation::new(&m, &machine).faults(Some(&runaway)).run();
    assert!(matches!(got, Err(SimError::InvalidFaultSpec(_))), "got {got:?}");
    assert!(t0.elapsed() < Duration::from_millis(500));

    let (addr, server) = spawn_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 4,
    });
    let mut client = Client::connect(&addr).unwrap();
    let mut req = inline_request("runaway");
    req.fault_spec = Some(runaway);
    let t0 = Instant::now();
    match client.compile(req).unwrap_err() {
        ClientError::Server(e) => {
            assert_eq!(e.kind, ErrorKind::InvalidFaultSpec);
            assert!(e.message.contains("stall retry budget"), "{}", e.message);
        }
        other => panic!("expected invalid-fault-spec, got {other}"),
    }
    assert!(t0.elapsed() < Duration::from_millis(500));
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn malformed_frames_get_typed_responses_over_the_wire() {
    use std::io::Write as _;

    let (addr, server) = spawn_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 4,
    });

    // Unknown version: the server answers with a typed error frame.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(b"overlap-serve/0 2\n{}").unwrap();
    let v = read_frame(&mut raw, &mut FrameReader::new()).unwrap();
    match Response::from_json(&v).unwrap() {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::UnknownVersion),
        other => panic!("expected a typed error, got {other:?}"),
    }
    // Close before the next connect: a rebound `raw` would stay open
    // until end of scope, pinning the test's single worker.
    drop(raw);

    // Valid frame, invalid request shape.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    write_frame(&mut raw, &Json::obj().with("request", "frobnicate")).unwrap();
    let v = read_frame(&mut raw, &mut FrameReader::new()).unwrap();
    match Response::from_json(&v).unwrap() {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::InvalidRequest),
        other => panic!("expected a typed error, got {other:?}"),
    }
    drop(raw);

    // Oversized announced length.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(format!("{PROTOCOL_VERSION} 99999999999\n").as_bytes()).unwrap();
    let v = read_frame(&mut raw, &mut FrameReader::new()).unwrap();
    match Response::from_json(&v).unwrap() {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::FrameTooLarge),
        other => panic!("expected a typed error, got {other:?}"),
    }

    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

// ---------------------------------------------------------------------------
// 4. Finished results: replayed bytes, what must still dispatch, the switches
// ---------------------------------------------------------------------------

/// The ledger's three strategy sets (`paper`, `chunk2-uni`, `int8`):
/// they drive the passes — and fill `decisions`/`summaries`/
/// `fallbacks` — differently.
fn strategy_sets() -> [OverlapOptions; 3] {
    use overlap_core::{RingDirection, StrategySpec};
    let paper = StrategySpec::paper_default();
    [
        OverlapOptions::paper_default(),
        OverlapOptions::with_strategy(paper.with_ring(RingDirection::Unidirectional).with_chunk(2)),
        OverlapOptions {
            error_budget: Some(5e-2),
            ..OverlapOptions::with_strategy(paper.with_wire(overlap_hlo::WireFormat::int8()))
        },
    ]
}

fn oracle(req: &CompileRequest) -> String {
    let (result, _) = execute(req, &ArtifactCache::in_memory(), Deadline::none()).unwrap();
    result.to_json().to_string()
}

#[test]
fn repeat_answers_replay_the_first_byte_for_byte() {
    let (addr, server) = spawn_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
    });
    let mut requests = Vec::new();
    for name in ["GPT_32B", "BigSSL_10B", "GPT_64B"] {
        for options in strategy_sets() {
            requests.push(CompileRequest { options, ..CompileRequest::named(name) });
        }
    }
    requests.push(CompileRequest {
        fault_spec: Some(FaultSpec::seeded(7).with_straggler(0, 2.0)),
        ..CompileRequest::named("GPT_32B")
    });

    let mut client = Client::connect(&addr).unwrap();
    for req in &requests {
        let first = client.compile(req.clone()).unwrap();
        assert_eq!(first.served.source, "compiled");
        let jobs = client.stats().unwrap().batches;
        let repeat = client.compile(req.clone()).unwrap();
        assert_eq!(repeat.served.source, "memory");
        assert_eq!(client.stats().unwrap().batches, jobs, "a repeat must not reach the pool");
        let first = first.result.to_json().to_string();
        assert_eq!(repeat.result.to_json().to_string(), first, "{:?}", req.model);
        assert_eq!(first, oracle(req), "{:?}", req.model);
    }

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn any_changed_request_field_dispatches_a_job() {
    let (addr, server) = spawn_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 8,
    });
    let mut client = Client::connect(&addr).unwrap();
    let base = CompileRequest {
        fault_spec: Some(FaultSpec::seeded(1).with_straggler(0, 2.0)),
        ..inline_request("diff_base")
    };
    // Same structure, one instruction renamed: the artifact key cannot
    // tell the two apart, the batch key must.
    let renamed = tiny_module_with_input("diff_base", "x_renamed");
    let rows: [(&str, CompileRequest); 5] = [
        ("model", CompileRequest { model: inline_request("diff_other").model, ..base.clone() }),
        ("machine", CompileRequest { machine: MachineSpec::GpuCluster { chips: 4 }, ..base.clone() }),
        (
            "one option",
            CompileRequest {
                options: OverlapOptions { disable_cost_gate: true, ..base.options },
                ..base.clone()
            },
        ),
        (
            "fault-spec seed",
            CompileRequest {
                fault_spec: Some(FaultSpec::seeded(2).with_straggler(0, 2.0)),
                ..base.clone()
            },
        ),
        (
            "inline instruction name",
            CompileRequest { model: ModelRef::Inline(Box::new(renamed)), ..base.clone() },
        ),
    ];

    client.compile(base.clone()).unwrap();
    assert_eq!(client.compile(base.clone()).unwrap().served.source, "memory");
    for (field, req) in rows {
        let jobs = client.stats().unwrap().batches;
        let resp = client.compile(req.clone()).unwrap();
        assert_eq!(client.stats().unwrap().batches, jobs + 1, "{field}: no job dispatched");
        assert_eq!(resp.result.to_json().to_string(), oracle(&req), "{field}");
    }

    // An errored job leaves nothing to replay: the same request
    // dispatches again.
    for _ in 0..2 {
        let jobs = client.stats().unwrap().batches;
        assert!(client.compile(CompileRequest::named("NOT_A_MODEL")).is_err());
        assert_eq!(client.stats().unwrap().batches, jobs + 1);
    }
    let late = CompileRequest { deadline_ms: Some(0), ..inline_request("diff_late") };
    match client.compile(late.clone()).unwrap_err() {
        ClientError::Server(e) => assert_eq!(e.kind, ErrorKind::DeadlineExceeded),
        other => panic!("expected deadline-exceeded, got {other}"),
    }
    let in_time = client.compile(CompileRequest { deadline_ms: None, ..late }).unwrap();
    assert_eq!(in_time.served.source, "compiled", "the expired job must not have been kept");

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn warm_requests_are_never_shed_and_deadlines_do_not_bypass_the_index() {
    let (addr, server) = spawn_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 1,
    });
    let mut control = Client::connect(&addr).unwrap();
    let warm = inline_request("shed_warm");
    assert_eq!(control.compile(warm.clone()).unwrap().served.source, "compiled");

    // Hold the pool: one cold GPT_1T compile on the only worker (wait
    // until it has started), a second filling the one queue place.
    let mut client = Client::connect(&addr).unwrap();
    let started = control.stats().unwrap().batches;
    client.send(&Request::Compile(Box::new(CompileRequest::named("GPT_1T")))).unwrap();
    while control.stats().unwrap().batches == started {
        std::thread::yield_now();
    }
    let queued = CompileRequest {
        options: OverlapOptions { disable_cost_gate: true, ..OverlapOptions::paper_default() },
        ..CompileRequest::named("GPT_1T")
    };
    client.send(&Request::Compile(Box::new(queued))).unwrap();
    // Neither warm request needs a worker; the never-seen one does.
    client.send(&Request::Compile(Box::new(warm.clone()))).unwrap();
    client.send(&Request::Compile(Box::new(CompileRequest { deadline_ms: Some(50), ..warm }))).unwrap();
    client.send(&Request::Compile(Box::new(inline_request("shed_cold")))).unwrap();

    for i in 0..2 {
        assert!(matches!(client.recv().unwrap(), Response::Compiled(_)), "GPT_1T compile {i}");
    }
    for what in ["warm", "warm with a deadline"] {
        match client.recv().unwrap() {
            Response::Compiled(c) => assert_eq!(c.served.source, "memory", "{what}"),
            other => panic!("{what} request was not answered from the index: {other:?}"),
        }
    }
    match client.recv().unwrap() {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::Overloaded),
        other => panic!("a never-seen request found room in a full queue: {other:?}"),
    }
    let stats = control.stats().unwrap();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.cache_memory_hits, 2, "loop-thread hits count as memory hits");

    control.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn a_disabled_or_verifying_cache_keeps_every_repeat_on_the_pool() {
    let config = ServeConfig { addr: "127.0.0.1:0".into(), workers: 1, queue_depth: 8 };
    let mut verifying = ArtifactCache::in_memory();
    verifying.set_verify_hits(true);
    assert!(verifying.verifies_hits() && !ArtifactCache::in_memory().verifies_hits());
    // (cache, sources of three identical requests)
    let cases = [
        // A pass-through cache runs the pipeline every time (and counts
        // nothing, so the sources and the job count are the evidence).
        (ArtifactCache::disabled(), ["compiled"; 3]),
        // Each "memory" here is the cache's own hit, re-verified against
        // a cold compile on the pool worker.
        (verifying, ["compiled", "memory", "memory"]),
    ];
    for (cache, sources) in cases {
        let server = Server::bind(&config, cache).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run());
        let mut client = Client::connect(&addr).unwrap();
        let req = inline_request("switches");
        for (i, source) in sources.iter().enumerate() {
            assert_eq!(&client.compile(req.clone()).unwrap().served.source, source);
            let stats = client.stats().unwrap();
            assert_eq!(stats.batches, i as u64 + 1, "every repeat must dispatch a job");
        }
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}
