//! The event loop's behavioral contract, end to end.
//!
//! `tests/serve_protocol.rs` pins the wire protocol and the
//! byte-identity oracle; this file pins the *scheduling* semantics the
//! PR-6 event loop added on top:
//!
//! * **Pipelining** — N requests written back-to-back on one
//!   connection complete out of order internally (a compile parks in
//!   the pool while pings answer inline) but the responses arrive in
//!   request order.
//! * **Batching** — identical compile fingerprints admitted while a
//!   matching job is in flight join that job instead of dispatching
//!   their own; with one pool worker the join counts are exact, not
//!   racy.
//! * **Finished results** — a request whose fingerprint names a job
//!   already finished is answered on the loop thread with no job at
//!   all, yet leaves in request order behind a slow compile.
//! * **Served times** — no response, a coalesced joiner's included,
//!   reports more queue + service time than its client waited.
//! * **Drain** — a shutdown queued behind pipelined compiles answers
//!   every request already admitted, then refuses new work.
//! * **Record/replay** — the `--record` JSON stream parsed back
//!   projects to the same [`DecisionSummary`] as the live bus, and an
//!   identical workload re-run reproduces it decision for decision.
//! * **Subscriptions** — a `subscribe` connection streams the compile
//!   lifecycle of other connections as typed events.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use overlap_core::{ArtifactCache, OverlapOptions};
use overlap_hlo::{Builder, DType, DotDims, Module, ReplicaGroups, Shape};
use overlap_json::{FromJson, ToJson};
use overlap_serve::exec::{execute, Deadline};
use overlap_serve::{
    parse_records, read_frame, write_frame, Client, ClientError, CollectObserver,
    CompileRequest, DecisionSummary, EventObserver, FrameReader, MachineSpec, ModelRef,
    RecordObserver, Request, Response, ServeConfig, ServeEvent, Server,
};

/// A 4-way module of `layers` square all-gather + einsum layers. One
/// layer compiles in well under a millisecond; several layers are slow
/// enough to keep a pool worker busy while the event loop admits an
/// entire burst of buffered frames — the timing wedge the pipelining
/// and batching tests below lean on.
fn chained_module(name: &str, layers: usize) -> Module {
    let n = 4;
    let rows = 2048 + 512 * (name.bytes().map(usize::from).sum::<usize>() % 4);
    let mut b = Builder::new(name, n);
    let mut x = b.parameter(Shape::new(DType::BF16, vec![rows, 1024]), "x");
    for i in 0..layers {
        let w = b.parameter(Shape::new(DType::BF16, vec![1024, 1024 / n]), &format!("w{i}"));
        let wg = b.all_gather(w, 1, ReplicaGroups::full(n), &format!("wg{i}"));
        x = b.einsum(x, wg, DotDims::matmul(), &format!("y{i}"));
    }
    b.build(vec![x])
}

fn request(name: &str, layers: usize) -> CompileRequest {
    CompileRequest {
        model: ModelRef::Inline(Box::new(chained_module(name, layers))),
        machine: MachineSpec::ModelDefault,
        options: OverlapOptions::paper_default(),
        fault_spec: None,
        deadline_ms: None,
    }
}

/// The byte-identity oracle: the direct exec path, no server.
fn oracle(req: &CompileRequest) -> String {
    let (result, _) = execute(req, &ArtifactCache::in_memory(), Deadline::none()).unwrap();
    result.to_json().to_string()
}

fn spawn_server(config: ServeConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&config, ArtifactCache::in_memory()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

/// Encodes `reqs` into one contiguous buffer and ships it with a
/// single write. Frame-by-frame sends leave a scheduling window where
/// an early compile can finish before the next frame even arrives;
/// one write makes the whole burst visible to the event loop at once,
/// so "admitted while the first request is in flight" is a certainty,
/// not a race.
fn send_burst(stream: &mut TcpStream, reqs: &[Request]) {
    let mut buf = Vec::new();
    for req in reqs {
        write_frame(&mut buf, &req.to_json()).unwrap();
    }
    stream.write_all(&buf).unwrap();
}

fn recv_response(stream: &mut TcpStream, reader: &mut FrameReader) -> Response {
    Response::from_json(&read_frame(stream, reader).unwrap()).unwrap()
}

#[test]
fn pipelined_responses_arrive_in_request_order() {
    let (addr, server) = spawn_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
    });
    let slow = request("order_slow", 48);
    let fast = request("order_fast", 1);
    let slow_expected = oracle(&slow);
    let fast_expected = oracle(&fast);

    // Four requests in one burst: a slow compile, two inline-answered
    // requests, a fast compile. The pings and the fast compile all
    // finish while the slow compile is still on a worker — yet the
    // wire order must match the send order, slow answer first.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = FrameReader::new();
    send_burst(
        &mut stream,
        &[
            Request::Compile(Box::new(slow)),
            Request::Ping,
            Request::Stats,
            Request::Compile(Box::new(fast)),
        ],
    );

    match recv_response(&mut stream, &mut reader) {
        Response::Compiled(c) => {
            assert_eq!(c.result.to_json().to_string(), slow_expected);
            assert_eq!(c.served.source, "compiled");
        }
        other => panic!("first response must be the slow compile, got {other:?}"),
    }
    assert!(matches!(recv_response(&mut stream, &mut reader), Response::Pong));
    assert!(matches!(recv_response(&mut stream, &mut reader), Response::Stats(_)));
    match recv_response(&mut stream, &mut reader) {
        Response::Compiled(c) => assert_eq!(c.result.to_json().to_string(), fast_expected),
        other => panic!("fourth response must be the fast compile, got {other:?}"),
    }
    drop(stream);

    // Requests 2-4 all arrived while request 1 was in flight.
    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.pipelined, 3, "the burst's three follow-ups were pipelined");
    assert_eq!(stats.errors, 0);

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn batch_coalescing_is_exact_with_one_worker() {
    let (addr, server) = spawn_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 16,
    });
    let blocker = request("batch_blocker", 48);
    let join = request("batch_join", 1);
    let join_expected = oracle(&join);

    // The blocker occupies the only worker; the four identical `join`
    // requests are admitted while it runs. The first one opens a batch
    // (its job queues behind the blocker), the other three join it —
    // exactly three coalesces, exactly two dispatched jobs, no races.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = FrameReader::new();
    let mut burst = vec![Request::Compile(Box::new(blocker))];
    for _ in 0..4 {
        burst.push(Request::Compile(Box::new(join.clone())));
    }
    send_burst(&mut stream, &burst);
    let mut sources = Vec::new();
    for i in 0..5 {
        match recv_response(&mut stream, &mut reader) {
            Response::Compiled(c) => {
                if i > 0 {
                    assert_eq!(
                        c.result.to_json().to_string(),
                        join_expected,
                        "batch follower diverged from the oracle"
                    );
                }
                sources.push(c.served.source.clone());
            }
            other => panic!("response {i} was not a compile: {other:?}"),
        }
    }
    assert_eq!(
        sources,
        ["compiled", "compiled", "coalesced", "coalesced", "coalesced"],
        "batch leader compiles, followers coalesce, in request order"
    );
    drop(stream);

    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.batches, 2, "blocker + batch leader, one job each");
    assert_eq!(stats.coalesced, 3);
    assert_eq!(stats.cache_misses, 2);
    assert_eq!(stats.cache_memory_hits, 0, "joins never reach the cache");
    assert_eq!(stats.pipelined, 4);

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn finished_results_answer_in_request_order_without_a_job() {
    let collect = Arc::new(CollectObserver::default());
    let config = ServeConfig { addr: "127.0.0.1:0".into(), workers: 1, queue_depth: 16 };
    let observers = vec![Arc::clone(&collect) as Arc<dyn EventObserver>];
    let server =
        Server::bind_with_observers(&config, ArtifactCache::in_memory(), observers).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || server.run());

    let (cold_a, warm_b, cold_c) =
        (request("memo_a", 48), request("memo_b", 1), request("memo_c", 1));
    let expected = [oracle(&cold_a), oracle(&warm_b), oracle(&warm_b), oracle(&cold_c)];
    Client::connect(&addr).unwrap().compile(warm_b.clone()).unwrap();

    // Both warm answers are ready the moment their frames decode, long
    // before the slow compile ahead of them — and still leave after it.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = FrameReader::new();
    let burst: Vec<Request> = [cold_a, warm_b.clone(), warm_b, cold_c]
        .into_iter()
        .map(|req| Request::Compile(Box::new(req)))
        .collect();
    send_burst(&mut stream, &burst);
    let mut sources = Vec::new();
    for (i, expected) in expected.iter().enumerate() {
        let Response::Compiled(c) = recv_response(&mut stream, &mut reader) else {
            panic!("response {i} was not a compile");
        };
        assert_eq!(&c.result.to_json().to_string(), expected, "response {i} out of order");
        sources.push(c.served.source.clone());
    }
    assert_eq!(sources, ["compiled", "memory", "memory", "compiled"]);
    drop(stream);

    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.join().unwrap().unwrap();

    // A loop-thread hit's whole life is admit → cache-outcome → done;
    // only the three first-touch compiles started a job.
    let events: Vec<ServeEvent> = collect.snapshot().into_iter().map(|r| r.event).collect();
    let life_of = |wanted: u64| -> Vec<&'static str> {
        events
            .iter()
            .filter(|e| match e {
                ServeEvent::Admit { req, .. }
                | ServeEvent::BatchCoalesce { req, .. }
                | ServeEvent::CacheOutcome { req, .. }
                | ServeEvent::Done { req, .. } => *req == wanted,
                _ => false,
            })
            .map(ServeEvent::kind)
            .collect()
    };
    let hits: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            ServeEvent::CacheOutcome { req, source, .. } if source == "memory" => Some(*req),
            _ => None,
        })
        .collect();
    assert_eq!(hits.len(), 2);
    for req in hits {
        assert_eq!(life_of(req), ["admit", "cache-outcome", "done"]);
    }
    let jobs = |e: &&ServeEvent| matches!(e, ServeEvent::CompileStart { .. });
    assert_eq!(events.iter().filter(jobs).count(), 3);
}

#[test]
fn served_times_never_exceed_client_latency() {
    let collect = Arc::new(CollectObserver::default());
    let config = ServeConfig { addr: "127.0.0.1:0".into(), workers: 1, queue_depth: 16 };
    let observers = vec![Arc::clone(&collect) as Arc<dyn EventObserver>];
    let server =
        Server::bind_with_observers(&config, ArtifactCache::in_memory(), observers).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || server.run());

    let req = request("served_times", 192);
    // Roughly how long the job runs: spaces the late joiners inside it.
    let started = Instant::now();
    oracle(&req);
    let job = started.elapsed();

    // The leader and one joiner in a single burst (that one joins at
    // once and waits the whole job), then four more identical requests
    // spread across the job's run. Each of those joins a job already
    // under way, so it waits for only the rest of it — or lands after
    // completion and is a memory hit; the bound below holds either way,
    // the spacing only decides how many late joiners exercise it.
    let compile = Request::Compile(Box::new(req));
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = FrameReader::new();
    let mut sent = vec![Instant::now(); 2];
    send_burst(&mut stream, &[compile.clone(), compile.clone()]);
    for _ in 0..4 {
        std::thread::sleep(job / 6);
        sent.push(Instant::now());
        send_burst(&mut stream, std::slice::from_ref(&compile));
    }

    let mut served = Vec::new();
    for (i, sent) in sent.iter().enumerate() {
        let Response::Compiled(c) = recv_response(&mut stream, &mut reader) else {
            panic!("response {i} was not a compile");
        };
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        let (queue_ms, service_ms) = (c.served.queue_ms, c.served.service_ms);
        assert!(queue_ms >= 0.0 && service_ms >= 0.0, "response {i}: negative time");
        assert!(
            queue_ms + service_ms <= latency_ms,
            "response {i} ({}): queue {queue_ms} + service {service_ms} ms exceeds the \
             {latency_ms} ms its client waited",
            c.served.source
        );
        served.push((c.served.source.clone(), queue_ms, service_ms));
    }
    assert_eq!(served[0].0, "compiled");
    assert_eq!(served[1].0, "coalesced", "the burst's second request joins the first");
    drop(stream);

    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.join().unwrap().unwrap();

    // The event stream carries the same pair the response did.
    let done: Vec<(f64, f64)> = collect
        .snapshot()
        .into_iter()
        .filter_map(|record| match record.event {
            ServeEvent::Done { kind, queue_ms, compile_ms, .. } if kind == "compile" => {
                Some((queue_ms, compile_ms))
            }
            _ => None,
        })
        .collect();
    assert_eq!(done.len(), served.len());
    for ((_, queue_ms, service_ms), (done_queue, done_service)) in served.iter().zip(&done) {
        assert!((queue_ms - done_queue).abs() < 1e-6 && (service_ms - done_service).abs() < 1e-6);
    }
}

#[test]
fn drain_answers_pipelined_work_then_refuses_new() {
    let (addr, server) = spawn_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 8,
    });
    let expected_a = oracle(&request("drain_a", 2));
    let expected_b = oracle(&request("drain_b", 2));

    // Two compiles with a shutdown pipelined behind them: both must be
    // answered (in order, byte-identical) before the drain
    // acknowledgement — a drain finishes admitted work, it does not
    // drop it. With one worker the second job is still queued when the
    // shutdown frame arrives.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = FrameReader::new();
    send_burst(
        &mut stream,
        &[
            Request::Compile(Box::new(request("drain_a", 2))),
            Request::Compile(Box::new(request("drain_b", 2))),
            Request::Shutdown,
        ],
    );

    for expected in [&expected_a, &expected_b] {
        match recv_response(&mut stream, &mut reader) {
            Response::Compiled(c) => {
                assert_eq!(&c.result.to_json().to_string(), expected);
                assert_eq!(c.served.source, "compiled");
            }
            other => panic!("expected a compile answer before the drain ack, got {other:?}"),
        }
    }
    assert!(matches!(recv_response(&mut stream, &mut reader), Response::ShuttingDown));
    drop(stream);

    // New work is refused: either the listener is already gone or the
    // request gets a typed backpressure answer.
    if let Ok(mut late) = Client::connect(&addr) {
        match late.compile(request("drain_b", 1)) {
            Err(ClientError::Server(e)) => assert!(e.kind.is_backpressure()),
            Err(ClientError::Wire(_)) => {}
            Ok(_) => panic!("a draining server accepted new work"),
            Err(other) => panic!("unexpected refusal shape: {other}"),
        }
    }
    server.join().unwrap().unwrap();
}

/// Runs the canonical record/replay workload against a fresh server
/// wearing `extra` observers; returns the live collected stream.
fn run_recorded_workload(extra: Vec<Arc<dyn EventObserver>>) -> Vec<overlap_serve::EventRecord> {
    let collect = Arc::new(CollectObserver::default());
    let mut observers: Vec<Arc<dyn EventObserver>> =
        vec![Arc::clone(&collect) as Arc<dyn EventObserver>];
    observers.extend(extra);
    let config =
        ServeConfig { addr: "127.0.0.1:0".into(), workers: 1, queue_depth: 8 };
    let server =
        Server::bind_with_observers(&config, ArtifactCache::in_memory(), observers).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());

    // Strictly sequential on one connection, so every decision the
    // server makes is a pure function of the workload: compile, warm
    // re-compile (memory), a second artifact, ping, drain.
    let mut client = Client::connect(&addr).unwrap();
    client.compile(request("replay_a", 1)).unwrap();
    client.compile(request("replay_a", 1)).unwrap();
    client.compile(request("replay_b", 1)).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    collect.snapshot()
}

#[test]
fn record_stream_replays_to_identical_decisions() {
    let path = std::env::temp_dir()
        .join(format!("overlap-serve-record-{}.jsonl", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();

    let live = run_recorded_workload(vec![Arc::new(
        RecordObserver::to_file(&path_str).unwrap(),
    )]);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Replay: the file stream parses back to exactly the live records,
    // so the decision projection is identical by construction — and we
    // assert it explicitly, since that is the contract `--record`
    // exists for.
    let replayed = parse_records(&text).unwrap();
    assert_eq!(replayed, live, "recorded stream must equal the live bus stream");
    let live_summary = DecisionSummary::from_records(&live);
    assert_eq!(DecisionSummary::from_records(&replayed), live_summary);

    // The decisions themselves are what the workload forces. Note the
    // warm re-compile dispatches no job: its key names a finished job
    // in the batch index, so the loop thread answers it ("memory") and
    // only the two first-touch compiles show up in the job outcomes.
    assert_eq!(live_summary.cache_outcomes, ["compiled", "memory", "compiled"]);
    assert_eq!(live_summary.job_outcomes, ["compiled", "compiled"]);
    assert_eq!(live_summary.sheds, 0);
    assert_eq!(live_summary.coalesced, 0);
    assert!(live_summary.drained);
    let compiles: Vec<_> =
        live_summary.answers.iter().filter(|(kind, _)| kind == "compile").collect();
    assert_eq!(compiles.len(), 3);
    assert!(compiles.iter().all(|(_, ok)| *ok));

    // Determinism across runs: an identical workload on a fresh server
    // reproduces every decision (timings differ; decisions may not).
    let rerun_summary = DecisionSummary::from_records(&run_recorded_workload(Vec::new()));
    assert_eq!(rerun_summary, live_summary);
}

#[test]
fn subscription_streams_other_connections_lifecycles() {
    let (addr, server) = spawn_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 8,
    });

    let mut events = Client::connect(&addr).unwrap().subscribe().unwrap();
    let streamer = std::thread::spawn(move || {
        let mut seen = Vec::new();
        while let Some(record) = events.next_event().unwrap() {
            seen.push(record.event);
        }
        seen
    });

    let mut client = Client::connect(&addr).unwrap();
    let resp = client.compile(request("subscribed", 1)).unwrap();
    assert_eq!(resp.served.source, "compiled");
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();

    // The subscriber saw the whole compile lifecycle of the *other*
    // connection, then a clean end of stream when the server drained.
    let seen = streamer.join().unwrap();
    assert!(
        seen.iter().any(
            |e| matches!(e, ServeEvent::Admit { kind, .. } if kind == "compile")
        ),
        "missing compile admit in {seen:?}"
    );
    assert!(seen
        .iter()
        .any(|e| matches!(e, ServeEvent::CompileStart { model, .. } if model == "subscribed")));
    assert!(seen.iter().any(|e| matches!(
        e,
        ServeEvent::CompileFinish { outcome, .. } if outcome == "compiled"
    )));
    assert!(seen.iter().any(|e| matches!(
        e,
        ServeEvent::CacheOutcome { source, .. } if source == "compiled"
    )));
    assert!(seen.iter().any(|e| matches!(
        e,
        ServeEvent::Done { kind, ok, .. } if kind == "compile" && *ok
    )));
}
