//! `serve_hot` and `serve_churn`: one `compile` request → response per
//! op, over TCP, to a real `overlapd` child. Closed loop: the callers
//! are sweep drivers that wait for a reply, [`CONNECTIONS`] connections
//! with [`IN_FLIGHT`] requests pipelined on each.
//!
//! `serve_hot` asks only for named artifacts warmed in set-up, so every
//! request is a memory hit and the time goes to frame codec → reactor →
//! batch/coalesce → `exec` → encode. `serve_churn` starts the daemon
//! with a disk cache and makes a quarter of its ops never-seen inline
//! modules: the same layers used the other way — JSON decode, `verify`,
//! cold compile, single-flight insert, disk persist — beside the reads.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use overlap_json::{FromJson, Json, ToJson};
use overlap_serve::protocol::{read_frame, write_frame, FrameEvent, FrameReader};
use overlap_serve::{Client, CompileRequest, Request, ServedInfo, StatsResponse};

use crate::gen::{self, Ask};
use crate::metrics::Metrics;
use crate::oracle::{self, Checks};
use crate::stats;
use crate::sys::{self, Daemon};
use crate::trace::Tracer;
use crate::workload::{Ctx, Phase, Workload};

/// Connections the load comes over (never more than the machine has
/// cores: the generator must not crowd out the daemon it measures).
const CONNECTIONS: usize = 2;
/// Requests kept in flight on each connection.
const IN_FLIGHT: usize = 4;

/// One request, encoded once in set-up so that the timed loop only
/// writes bytes.
struct Prepared {
    frame: Vec<u8>,
    request: CompileRequest,
    /// The `result` the daemon must return, byte for byte. Named
    /// requests get theirs in set-up; inline ones after timing.
    expected: Option<String>,
    speedup: f64,
    /// What the daemon did return, kept for inline requests until
    /// `verify` computes what it should have been.
    got: Option<String>,
}

impl Prepared {
    fn new(request: CompileRequest) -> Self {
        let mut frame = Vec::new();
        write_frame(&mut frame, &Request::Compile(Box::new(request.clone())).to_json())
            .expect("writing to a Vec cannot fail");
        Prepared { frame, request, expected: None, speedup: 0.0, got: None }
    }
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

/// One op as the client saw it.
struct Reply {
    op: usize,
    sent: Instant,
    received: Instant,
    /// `None`: the daemon answered with an error frame (shed, invalid).
    served: Option<ServedInfo>,
    result: Option<String>,
}

/// Keeps `IN_FLIGHT` of `ops` on the wire until all are answered; the
/// daemon answers a connection's requests in the order they were sent.
fn drive(conn: &mut Conn, ops: &[(usize, &[u8])]) -> Result<Vec<Reply>, String> {
    let mut replies = Vec::with_capacity(ops.len());
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut next = 0;
    while replies.len() < ops.len() {
        while next < ops.len() && in_flight.len() < IN_FLIGHT {
            let (op, frame) = ops[next];
            let sent = Instant::now();
            conn.stream.write_all(frame).map_err(|e| format!("send: {e}"))?;
            in_flight.push_back((op, sent));
            next += 1;
        }
        let body =
            read_frame(&mut conn.stream, &mut conn.reader).map_err(|e| format!("receive: {e}"))?;
        let received = Instant::now();
        let (op, sent) = in_flight.pop_front().expect("a reply implies a request in flight");
        let served = body.get("served").and_then(|s| ServedInfo::from_json(s).ok());
        let result = body.get("result").map(Json::to_string);
        replies.push(Reply { op, sent, received, served, result });
    }
    Ok(replies)
}

/// Live `Done` events from a `subscribe` connection: the daemon's own
/// report of how long it spent encoding each response.
struct Subscriber {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<f64>>,
}

impl Subscriber {
    fn start(addr: &str) -> Result<Self, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("subscribe: {e}"))?;
        write_frame(&mut stream, &Request::Subscribe.to_json())
            .map_err(|e| format!("subscribe: {e}"))?;
        let mut reader = FrameReader::new();
        let ack = read_frame(&mut stream, &mut reader).map_err(|e| format!("subscribe: {e}"))?;
        if ack.get("response").and_then(Json::as_str) != Some("subscribed") {
            return Err(format!("subscribe: unexpected answer {ack:?}"));
        }
        stream.set_read_timeout(Some(Duration::from_millis(50))).map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut serialize_ms = Vec::new();
            loop {
                match reader.poll(&mut stream) {
                    FrameEvent::Frame(v) => {
                        let event = v.get("record").and_then(|r| r.get("event"));
                        let field = |k: &str| event.and_then(|e| e.get(k));
                        if field("type").and_then(Json::as_str) == Some("done")
                            && field("kind").and_then(Json::as_str) == Some("compile")
                        {
                            serialize_ms.extend(field("serialize_ms").and_then(Json::as_f64));
                        }
                    }
                    // Relaxed: the flag publishes nothing but itself.
                    FrameEvent::Idle if flag.load(Ordering::Relaxed) => break,
                    FrameEvent::Idle => {}
                    FrameEvent::Closed | FrameEvent::Error(_) => break,
                }
            }
            serialize_ms
        });
        Ok(Subscriber { stop, handle })
    }

    fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_default()
    }
}

pub struct Serve<const CHURN: bool> {
    sequence: Vec<Ask>,
    /// By artifact index; `None` for artifacts this workload never asks for.
    named: Vec<Option<Prepared>>,
    inline: Vec<Prepared>,
    conns: Vec<Conn>,
    control: Client,
    /// What the traced stretches saw, for the layer metrics: each op's
    /// client latency beside the daemon's own account of it, the stats
    /// frame before and after each stretch, and the `Done` events'
    /// encoding times.
    waterfall: Vec<(f64, ServedInfo)>,
    stats_deltas: Vec<(StatsResponse, StatsResponse)>,
    serialize_ms: Vec<f64>,
    /// Requests that led their job and whose `queue_ms + service_ms`
    /// exceeded what the client measured — a waterfall that does not
    /// close.
    breaches: u64,
    // Last, so the daemon outlives the connections above on drop.
    daemon: Daemon,
}

pub type ServeHot = Serve<false>;
pub type ServeChurn = Serve<true>;

impl<const CHURN: bool> Serve<CHURN> {
    fn prepared(&self, ask: Ask) -> &Prepared {
        match ask {
            Ask::Named(i) => {
                self.named[i].as_ref().expect("sequence names only prepared artifacts")
            }
            Ask::Inline(i) => &self.inline[i],
        }
    }

    /// Sends `asks` (ops `first..`) over all connections at once and
    /// returns the replies in op order with the stretch's wall seconds.
    fn run(&mut self, first: usize, asks: &[Ask]) -> Result<(Vec<Reply>, f64), String> {
        let mut conns = std::mem::take(&mut self.conns);
        let lanes = conns.len();
        let plans: Vec<Vec<(usize, &[u8])>> = (0..lanes)
            .map(|lane| {
                asks.iter()
                    .enumerate()
                    .skip(lane)
                    .step_by(lanes)
                    .map(|(k, &ask)| (first + k, self.prepared(ask).frame.as_slice()))
                    .collect()
            })
            .collect();
        let barrier = Barrier::new(lanes + 1);
        let (outcome, wall_s) = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(&plans)
                .map(|(conn, plan)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        drive(conn, plan)
                    })
                })
                .collect();
            barrier.wait();
            let started = Instant::now();
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            (joined, started.elapsed().as_secs_f64())
        });
        drop(plans);
        self.conns = conns;
        let mut replies = Vec::with_capacity(asks.len());
        for lane in outcome {
            replies.extend(lane.map_err(|_| "a connection thread panicked".to_string())??);
        }
        replies.sort_by_key(|r| r.op);
        Ok((replies, wall_s))
    }

    /// Checks one reply against its expectation (or parks it until the
    /// expectation exists) and hands back the daemon's account of it;
    /// `None` counts the op as failed.
    fn accept(&mut self, ask: Ask, reply: &mut Reply) -> Option<ServedInfo> {
        let (served, result) = (reply.served.take()?, reply.result.take()?);
        let ok = match ask {
            Ask::Named(i) => {
                self.named[i].as_ref().and_then(|p| p.expected.as_ref()) == Some(&result)
            }
            Ask::Inline(i) => {
                self.inline[i].got = Some(result);
                true
            }
        };
        ok.then_some(served)
    }
}

impl<const CHURN: bool> Workload for Serve<CHURN> {
    /// `serve_churn` gets fewer: a quarter of its ops are misses that
    /// each leave ~2 MB in the daemon's disk cache.
    const OPS_PER_SECOND: usize = if CHURN { 120 } else { 230 };
    const NEEDS_DAEMON: bool = true;

    fn setup(ctx: &Ctx, checks: &mut Checks, _tracer: &mut Tracer) -> Result<Self, String> {
        let overlapd = ctx.overlapd.as_ref().ok_or("serve workloads need the overlapd binary")?;
        let daemon = Daemon::spawn(overlapd, CHURN)?;
        let artifacts = gen::artifacts();
        let asked: Vec<usize> = (0..artifacts.len())
            .filter(|&i| !CHURN || artifacts[i].model.chips <= gen::HOT_MAX_CHIPS)
            .collect();
        let sequence = if CHURN {
            gen::churn_sequence(ctx.seed, ctx.total_ops, &asked)
        } else {
            gen::hot_sequence(ctx.seed, ctx.total_ops, artifacts.len())
        };

        let mut named: Vec<Option<Prepared>> = artifacts.iter().map(|_| None).collect();
        for &i in &asked {
            let mut p = Prepared::new(oracle::request_for(&artifacts[i], false));
            let (expected, speedup) = oracle::expected_result(&p.request)
                .map_err(|e| format!("{}: {e}", artifacts[i].label()))?;
            (p.expected, p.speedup) = (Some(expected), speedup);
            named[i] = Some(p);
        }
        let inline_count = sequence.iter().filter(|a| matches!(a, Ask::Inline(_))).count();
        let inline = (0..inline_count)
            .map(|i| {
                let variant = gen::inline_variant(i);
                let request = oracle::request_for(&variant, true);
                if let overlap_serve::ModelRef::Inline(module) = &request.model {
                    module.verify().map_err(|e| format!("inline variant {i}: {e}"))?;
                }
                Ok(Prepared::new(request))
            })
            .collect::<Result<Vec<_>, String>>()?;

        let addr = daemon.addr();
        let lanes = CONNECTIONS.min(sys::nproc());
        let conns = (0..lanes)
            .map(|_| {
                let stream =
                    TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
                stream.set_nodelay(true).ok();
                Ok(Conn { stream, reader: FrameReader::new() })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let control = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let mut this = Serve {
            sequence,
            named,
            inline,
            conns,
            control,
            waterfall: Vec::new(),
            stats_deltas: Vec::new(),
            serialize_ms: Vec::new(),
            breaches: 0,
            daemon,
        };

        // Warm-up: every named artifact once, so the timed phase finds
        // them all in the daemon's memory tier. The answers are checked
        // like any other.
        let warm: Vec<Ask> = asked.iter().map(|&i| Ask::Named(i)).collect();
        let (mut replies, _) = this.run(0, &warm)?;
        for (ask, reply) in warm.iter().zip(&mut replies) {
            let ok = this.accept(*ask, reply).is_some();
            checks.check(ok, || format!("warm-up {ask:?}: answer differs from in-process execute"));
        }
        oracle::check_numerics(checks)?;
        Ok(this)
    }

    fn phase(&mut self, range: Range<usize>, tracer: &mut Tracer) -> Result<Phase, String> {
        // The subscription is part of what tracing costs the daemon, so
        // it exists only while a traced stretch runs.
        let subscriber = match tracer.enabled() {
            true => Some(Subscriber::start(&self.daemon.addr())?),
            false => None,
        };
        let asks: Vec<Ask> = self.sequence[range.clone()].to_vec();
        let stats_before = self.control.stats().map_err(|e| format!("stats: {e}"))?;
        let cpu0 = sys::cpu_ms(self.daemon.pid())?;
        let (mut replies, wall_s) = self.run(range.start, &asks)?;
        let cpu_ms = sys::cpu_ms(self.daemon.pid())? - cpu0;
        let stats_after = self.control.stats().map_err(|e| format!("stats: {e}"))?;
        if let Some(subscriber) = subscriber {
            self.serialize_ms.extend(subscriber.finish());
            self.stats_deltas.push((stats_before, stats_after));
        }

        let mut phase = Phase { busy_s: wall_s, cpu_ms, ..Phase::empty() };
        for (ask, reply) in asks.iter().zip(&mut replies) {
            let latency_ms = (reply.received - reply.sent).as_secs_f64() * 1e3;
            phase.latencies_ms.push(latency_ms);
            let Some(served) = self.accept(*ask, reply) else {
                phase.failed += 1;
                continue;
            };
            // A coalesced request reports the whole service time of the
            // job it joined, part of which ran before it arrived; its own
            // wait is not in the daemon's report, so it cannot be held to
            // the sum.
            if served.source != "coalesced" && served.queue_ms + served.service_ms > latency_ms {
                self.breaches += 1;
            }
            let (t0, t1) = (tracer.micros(reply.sent), tracer.micros(reply.received));
            let span = tracer.add("client.request", t0, t1, None, reply.op as u64 + 1);
            let transport = (latency_ms - served.queue_ms - served.service_ms).max(0.0);
            tracer.lay_out(
                span,
                &[
                    ("serve.queue".to_string(), served.queue_ms / 1e3),
                    ("serve.service".to_string(), served.service_ms / 1e3),
                    ("serve.transport".to_string(), transport / 1e3),
                ],
            );
            if tracer.enabled() {
                self.waterfall.push((latency_ms, served));
            }
        }
        Ok(phase)
    }

    fn verify(&mut self, checks: &mut Checks) -> Result<(), String> {
        for (i, p) in self.inline.iter_mut().enumerate() {
            let Some(got) = p.got.take() else { continue };
            let (expected, speedup) = oracle::expected_result(&p.request)
                .map_err(|e| format!("inline variant {i}: {e}"))?;
            p.speedup = speedup;
            if got != expected {
                checks.fail(format!("inline variant {i}: answer differs from in-process execute"));
            }
        }
        // Not an op, but a promise of the daemon's own accounting.
        checks.check(self.breaches == 0, || {
            format!(
                "{} requests report queue_ms + service_ms above the client's latency",
                self.breaches
            )
        });
        Ok(())
    }

    fn sim_step_speedup(&self) -> f64 {
        let speedups: Vec<f64> = self
            .named
            .iter()
            .flatten()
            .chain(self.inline.iter().filter(|p| p.speedup > 0.0))
            .map(|p| p.speedup)
            .collect();
        stats::geomean(&speedups)
    }

    fn pid_under_test(&self) -> u32 {
        self.daemon.pid()
    }

    fn layer_metrics(&self, out: &mut Metrics) {
        let column = |f: &dyn Fn(&(f64, ServedInfo)) -> f64| -> Vec<f64> {
            self.waterfall.iter().map(f).collect()
        };
        let queue = column(&|(_, s)| s.queue_ms);
        let service = column(&|(_, s)| s.service_ms);
        let transport = column(&|(l, s)| (l - s.queue_ms - s.service_ms).max(0.0));
        out.set("serve.queue_p50_ms", stats::median(&queue));
        out.set("serve.queue_p99_ms", stats::quantile(&queue, 0.99));
        out.set("serve.service_p50_ms", stats::median(&service));
        out.set("serve.service_p99_ms", stats::quantile(&service, 0.99));
        out.set("serve.transport_p50_ms", stats::median(&transport));
        out.set("serve.serialize_p50_ms", stats::median(&self.serialize_ms));
        let Some((_, newest)) = self.stats_deltas.last() else { return };
        let ops = self.waterfall.len().max(1) as f64;
        let delta = |f: &dyn Fn(&StatsResponse) -> u64| {
            self.stats_deltas.iter().map(|(before, after)| f(after) - f(before)).sum::<u64>() as f64
        };
        let hits = delta(&|s| s.cache_memory_hits + s.cache_disk_hits + s.cache_peer_hits);
        let misses = delta(&|s| s.cache_misses);
        out.set("serve.coalesced_share", delta(&|s| s.coalesced) / ops);
        out.set("serve.pipelined_share", delta(&|s| s.pipelined) / ops);
        out.set("serve.hit_share", if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 });
        out.set("serve.batches", delta(&|s| s.batches));
        out.set("serve.compiled", misses);
        out.set("serve.shed", delta(&|s| s.shed));
        out.set("serve.errors", delta(&|s| s.errors));
        out.set("serve.workers", newest.workers as f64);
    }
}
