//! Performance gate: times the simulator hot path with and without the
//! precomputed cost table, the Table-1 sweep serial vs. fanned across
//! cores, and end-to-end `OverlapPipeline::compile` throughput on the
//! largest zoo model vs. an emulation of the pre-analysis pass sequence,
//! then records the numbers as `results/BENCH_sim.json` so successive
//! PRs can track the trajectory.
//!
//! ```sh
//! cargo run --release -p overlap-bench --bin perfgate [REPS]
//! ```
//!
//! Most numbers are informational (judged by comparing the JSON across
//! commits), but the compile-throughput check is a hard gate: the
//! largest-model compile must be no slower than the recorded baseline
//! (`results/BENCH_compile_baseline.txt`) times a noise tolerance, or
//! the process exits nonzero. The baseline file is created on first run;
//! refresh it deliberately with `OVERLAP_COMPILE_BASELINE_UPDATE=1`.

use std::time::Instant;

use overlap_bench::{
    par_map, run_comparison, run_comparisons, run_fault_comparison, run_overlapped, strategy_grid,
    sweep_threads, write_json,
};
use overlap_core::{
    artifact_key, decompose, find_patterns, fuse, schedule_bottom_up, ArtifactCache,
    CostModel, OverlapOptions, OverlapPipeline, PhaseTimings, StrategySpec,
};
use overlap_hlo::{
    Builder, DType, DotDims, InstrId, Module, ModuleAnalysis, ReplicaGroups, Shape, WireFormat,
};
use overlap_json::{Json, ToJson};
use overlap_mesh::{FaultSpec, Machine};
use overlap_models::{table1_models, Arch, ModelConfig, PartitionStrategy};
use overlap_serve::{
    Client, CompileRequest, FleetHarness, HashRing, Histogram, MachineSpec, ModelRef, Request,
    Response, ServeConfig, Server, DEFAULT_VNODES,
};
use overlap_sim::{CostTable, Simulation};

/// Wall-clock noise tolerance for the compile-throughput gate: fail only
/// when the measured per-compile time exceeds `baseline * TOLERANCE`.
const BASELINE_TOLERANCE: f64 = 1.5;

/// Hard floor for the artifact-cache gate: the warm Table-1 compile
/// sweep must be at least this many times faster than the cold one.
const CACHE_SPEEDUP_FLOOR: f64 = 3.0;

const BASELINE_PATH: &str = "results/BENCH_compile_baseline.txt";

struct CompileThroughput {
    /// The compiled model (the largest Table-1 configuration).
    model: String,
    reps: usize,
    /// Total seconds for `reps` runs of `OverlapPipeline::run`.
    pipeline_seconds: f64,
    /// Total seconds for `reps` runs of the pre-analysis pass sequence
    /// (every pass re-verifying and re-indexing the module).
    legacy_seconds: f64,
    speedup: f64,
    /// Per-pass wall time accumulated across the pipeline runs.
    phases: PhaseTimings,
    /// Recorded per-compile baseline, if one existed before this run.
    baseline_seconds: Option<f64>,
    threads: usize,
}

impl ToJson for CompileThroughput {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("model", self.model.as_str())
            .with("reps", self.reps as u64)
            .with("pipeline_seconds", self.pipeline_seconds)
            .with("legacy_seconds", self.legacy_seconds)
            .with("speedup", self.speedup)
            .with("phases", self.phases.to_json())
            .with("baseline_seconds", self.baseline_seconds.to_json())
            .with("threads", self.threads as u64)
    }
}

struct CacheBench {
    /// Seconds to compile every Table-1 configuration through a fresh
    /// [`ArtifactCache`] (all misses).
    cold_seconds: f64,
    /// Seconds for the identical sweep again on the now-warm cache.
    warm_seconds: f64,
    speedup: f64,
    /// Hit rate of the warm pass (1.0 when every compile was served).
    hit_rate: f64,
    lookups: u64,
}

impl ToJson for CacheBench {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("cold_seconds", self.cold_seconds)
            .with("warm_seconds", self.warm_seconds)
            .with("speedup", self.speedup)
            .with("hit_rate", self.hit_rate)
            .with("lookups", self.lookups)
    }
}

struct FaultSmoke {
    /// Simulated makespan of the faulted compile's schedule under the
    /// same seeded spec.
    faulted_makespan: f64,
    /// Fallbacks the faulted compile recorded.
    fallbacks: u64,
    /// Patterns that survived the fault-adjusted gate.
    decomposed: u64,
}

impl ToJson for FaultSmoke {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("faulted_makespan", self.faulted_makespan)
            .with("fallbacks", self.fallbacks)
            .with("decomposed", self.decomposed)
    }
}

/// Fault-injection smoke (hard gate): a `FaultSpec::default()` simulation
/// must be bit-identical to the pristine one, and a seeded degraded-
/// machine compile must be deterministic — two independent compiles
/// under the same spec produce the same schedule and fallback set.
fn fault_smoke(cfg: &ModelConfig) -> (FaultSmoke, bool) {
    let module = cfg.layer_module();
    let machine = cfg.machine();

    let pristine = Simulation::new(&module, &machine).run().expect("pristine simulation");
    let noop = Simulation::new(&module, &machine)
        .faults(Some(&FaultSpec::default()))
        .run()
        .expect("noop faulted simulation");
    let noop_identical = pristine == noop;

    let spec = FaultSpec::seeded(7)
        .with_straggler(0, 1.5)
        .with_derated_link_fraction(machine.mesh(), 0.25, 0.8)
        .with_jitter(1.25e-5);
    let compile = || {
        OverlapPipeline::new(OverlapOptions::paper_default())
            .with_faults(spec.clone())
            .run(&module, &machine)
            .expect("faulted compile")
    };
    let a = compile();
    let b = compile();
    let deterministic = a.order == b.order && a.fallbacks == b.fallbacks;

    let report = a.simulation(&machine).faults(Some(&spec)).run().expect("faulted simulation");
    let record = FaultSmoke {
        faulted_makespan: report.makespan(),
        fallbacks: a.fallbacks.len() as u64,
        decomposed: a.summaries.len() as u64,
    };
    (record, noop_identical && deterministic)
}

/// Hard wall-clock budget for the autotune search bench, in seconds:
/// scoring the full pruned strategy grid on the mid-size perfgate layer
/// through a fresh artifact cache must finish inside this. The search is
/// embarrassingly parallel and every candidate compiles a one-layer
/// module, so blowing the budget means either the grid grew without new
/// pruning rules or a compile/simulate hot path regressed. Measured
/// ≈1–2 s on 8 cores; the budget leaves generous headroom for slow CI.
const AUTOTUNE_BUDGET_SECONDS: f64 = 30.0;

struct AutotuneBench {
    /// Grid survivors actually scored.
    candidates: usize,
    /// Statically pruned combinations (infeasible or behavior-identical).
    pruned: usize,
    /// Wall-clock seconds for scoring the whole grid (compiles through a
    /// fresh in-memory artifact cache, simulator as oracle).
    search_seconds: f64,
    /// Best candidate's step time over the paper default's (>= 1.0 by
    /// construction: the paper default is in the grid).
    winner_speedup: f64,
}

impl ToJson for AutotuneBench {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("candidates", self.candidates as u64)
            .with("pruned", self.pruned as u64)
            .with("search_seconds", self.search_seconds)
            .with("winner_speedup", self.winner_speedup)
    }
}

/// Autotune search bench (hard gate): scores the full pruned strategy
/// grid on the mid-size perfgate layer and applies two checks — the
/// search must finish inside [`AUTOTUNE_BUDGET_SECONDS`], and the best
/// candidate must be at least as fast as the paper default (the grid
/// contains the paper default, so a slower winner means the search or
/// the sort is broken). Returns the record and whether the gate passed.
fn autotune_bench(cfg: &ModelConfig) -> (AutotuneBench, bool) {
    let (options, pruned, _total) = strategy_grid();
    let cache = ArtifactCache::in_memory();
    let t = Instant::now();
    let paper = run_overlapped(cfg, OverlapOptions::paper_default(), None, &cache).step_time;
    let times = par_map(&options, |&o| run_overlapped(cfg, o, None, &cache).step_time);
    let search_seconds = t.elapsed().as_secs_f64();
    let best = times.iter().copied().fold(f64::INFINITY, f64::min);
    let record = AutotuneBench {
        candidates: options.len(),
        pruned,
        search_seconds,
        winner_speedup: paper / best,
    };
    let ok = search_seconds <= AUTOTUNE_BUDGET_SECONDS && best <= paper;
    (record, ok)
}

/// Hard wall-clock budget for the tail bench, in seconds: two windowed
/// compiles of the 4-layer stacked module plus the distributional draws
/// must finish inside this. Measured ≈5 s on 8 cores; the budget leaves
/// generous headroom for slow CI.
const TAIL_BUDGET_SECONDS: f64 = 90.0;

/// Layers stacked into the tail bench's scheduling scope and the number
/// of fault draws per window (mirrors `fig_tail`'s smoke-scale shape,
/// but on a Table-1 model where the windows actually differentiate).
const TAIL_DEPTH: usize = 4;
const TAIL_DRAWS: usize = 17;

struct TailBench {
    /// The Table-1 model the bench schedules.
    model: String,
    draws: usize,
    /// Exact p99 makespan of the window=1 (strict per-stage barriers)
    /// schedule under the seeded network-straggler spec.
    p99_window1: f64,
    /// Same for the cross-layer window=2 schedule.
    p99_window2: f64,
    /// Wall-clock seconds for the whole bench (compiles + draws).
    bench_seconds: f64,
}

impl ToJson for TailBench {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("model", self.model.as_str())
            .with("draws", self.draws as u64)
            .with("p99_window1", self.p99_window1)
            .with("p99_window2", self.p99_window2)
            .with("bench_seconds", self.bench_seconds)
    }
}

/// Cross-layer scheduling-window tail bench (hard gate): compiles the
/// 4-layer stacked Meena_500B module at window widths 1 and 2 under a
/// seeded network-straggler [`FaultSpec`] (a quarter of the links at
/// half bandwidth, per-hop jitter, DMA-issue stalls — `fig_tail`'s
/// harshest severity), runs [`TAIL_DRAWS`] fault draws through each
/// schedule, and applies two checks: the whole bench must finish inside
/// [`TAIL_BUDGET_SECONDS`], and the window=2 schedule's exact p99 must
/// never lose to window=1's — widening the scheduling scope may only
/// recover tail latency, not add it. Returns the record and whether the
/// gate passed.
fn tail_bench() -> (TailBench, bool) {
    let cfg = table1_models()
        .into_iter()
        .find(|m| m.name == "Meena_500B")
        .expect("Meena_500B is in Table 1");
    let module = cfg.window_module(TAIL_DEPTH);
    let machine = cfg.machine();
    let spec = FaultSpec::seeded(7)
        .with_derated_link_fraction(machine.mesh(), 0.25, 0.5)
        .with_jitter(1e-5)
        .with_dma_stalls(0.02, 2e-4, 3);

    let t = Instant::now();
    let p99_of = |window: usize| {
        let options = OverlapOptions::with_strategy(
            overlap_core::StrategySpec::paper_default().with_window_layers(window),
        );
        let compiled = OverlapPipeline::new(options)
            .with_faults(spec.clone())
            .run(&module, &machine)
            .expect("windowed compile");
        let samples = compiled
            .simulation(&machine)
            .faults(Some(&spec))
            .tail(TAIL_DRAWS)
            .expect("tail draws");
        overlap_sim::TailSummary::from_samples(&samples).p99
    };
    let p99_window1 = p99_of(1);
    let p99_window2 = p99_of(2);
    let bench_seconds = t.elapsed().as_secs_f64();

    let record = TailBench {
        model: cfg.name,
        draws: TAIL_DRAWS,
        p99_window1,
        p99_window2,
        bench_seconds,
    };
    let ok = bench_seconds <= TAIL_BUDGET_SECONDS && p99_window2 <= p99_window1;
    (record, ok)
}

/// Hard wall-clock budget for the quant bench, in seconds: three compiles
/// of the mid-size perfgate layer plus three faulted simulations.
/// Measured well under a second; the budget leaves headroom for slow CI.
const QUANT_BUDGET_SECONDS: f64 = 60.0;

/// Error budget the quant bench compiles under (mirrors `fig_quant`).
const QUANT_ERROR_BUDGET: f64 = 5e-2;

struct QuantBench {
    /// Whether an explicit lossless wire compiled bit-identically to the
    /// paper default (the precision axis must be invisible until used).
    lossless_identical: bool,
    /// Lossless overlap speedup on the damaged-link machine.
    lossless_speedup: f64,
    /// Quantized (int8 wire, budgeted) overlap speedup on the same
    /// damaged-link machine.
    quant_speedup: f64,
    /// Fallbacks the quantized compile recorded (budget or gate).
    fallbacks: u64,
    bench_seconds: f64,
}

impl ToJson for QuantBench {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("lossless_identical", self.lossless_identical)
            .with("lossless_speedup", self.lossless_speedup)
            .with("quant_speedup", self.quant_speedup)
            .with("fallbacks", self.fallbacks)
            .with("bench_seconds", self.bench_seconds)
    }
}

/// Precision-axis bench (hard gate): on the mid-size perfgate layer,
/// an explicitly-lossless strategy must compile bit-identically to the
/// paper default (same schedule, same module identity — the wire knob
/// contributes nothing until it is actually turned), and on a
/// damaged-link machine (half the links at half bandwidth) the int8
/// wire under the `fig_quant` error budget must still beat the
/// synchronous baseline (>= 1.0x). Both inside
/// [`QUANT_BUDGET_SECONDS`]. Returns the record and whether the gate
/// passed.
fn quant_bench(cfg: &ModelConfig) -> (QuantBench, bool) {
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let t = Instant::now();

    let compile = |options: OverlapOptions| {
        OverlapPipeline::new(options).run(&module, &machine).expect("quant bench compile")
    };
    let paper = compile(OverlapOptions::paper_default());
    let lossless = compile(OverlapOptions::with_strategy(
        StrategySpec::paper_default().with_wire(WireFormat::Lossless),
    ));
    let lossless_identical = paper.order == lossless.order
        && paper.module.identity_fingerprint() == lossless.module.identity_fingerprint();

    let spec = FaultSpec::seeded(7).with_derated_link_fraction(machine.mesh(), 0.5, 0.5);
    let cache = ArtifactCache::in_memory();
    let base = run_fault_comparison(cfg, OverlapOptions::paper_default(), &spec, &cache);
    let quant = run_fault_comparison(
        cfg,
        OverlapOptions {
            error_budget: Some(QUANT_ERROR_BUDGET),
            ..OverlapOptions::with_strategy(
                StrategySpec::paper_default().with_wire(WireFormat::int8()),
            )
        },
        &spec,
        &cache,
    );
    let bench_seconds = t.elapsed().as_secs_f64();

    let record = QuantBench {
        lossless_identical,
        lossless_speedup: base.speedup(),
        quant_speedup: quant.speedup(),
        fallbacks: quant.fallbacks as u64,
        bench_seconds,
    };
    let ok = lossless_identical
        && record.quant_speedup >= 1.0
        && bench_seconds <= QUANT_BUDGET_SECONDS;
    (record, ok)
}

/// Concurrent connections the serve bench drives against the in-process
/// daemon (the acceptance floor for the service layer).
const SERVE_CLIENTS: usize = 32;
/// Warm fan-out rounds: 32 clients × 6 models × 2 rounds = 384
/// byte-identity checks per run.
const WARM_ROUNDS: usize = 2;
/// Hard ceiling on the warm p99, in milliseconds. The PR-5
/// thread-per-connection pool recorded ≈3300 ms on this fan-out (pure
/// admission queueing: 32 connections, 8 workers); the readiness event
/// loop must hold at least a 10x improvement.
const WARM_P99_CEILING_MS: f64 = 330.0;

struct ServeBench {
    clients: usize,
    /// Frames the server decoded into requests (all phases + stats).
    requests: u64,
    /// Seconds for the cold pass: one client compiling every Table-1
    /// model once, all pipeline runs.
    cold_seconds: f64,
    /// Seconds for the warm fan-out: [`SERVE_CLIENTS`] connections each
    /// re-requesting every model [`WARM_ROUNDS`] times, one request in
    /// flight per connection, all served from the cache.
    warm_seconds: f64,
    /// Seconds for the pipelined burst: every client ships its whole
    /// model list in one write burst and then drains the responses.
    pipelined_seconds: f64,
    /// Client-observed latency quantiles of the warm pass only.
    warm_p50_ms: f64,
    warm_p99_ms: f64,
    warm_max_ms: f64,
    /// Cache hit rate across the whole run.
    hit_rate: f64,
    /// Compile jobs dispatched to the worker pool (event-bus counter;
    /// must be non-zero — the cold pass alone dispatches one per model).
    batched: u64,
    /// Requests admitted while their connection already had one in
    /// flight (non-zero iff the burst phase actually pipelined).
    pipelined: u64,
    /// Requests that joined an in-flight identical compile instead of
    /// dispatching their own job. Informational: coalescing needs two
    /// identical requests to race, which a warm cache makes rare here;
    /// the serve integration tests pin it deterministically.
    coalesced: u64,
    shed: u64,
    errors: u64,
}

impl ToJson for ServeBench {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("clients", self.clients as u64)
            .with("requests", self.requests)
            .with("cold_seconds", self.cold_seconds)
            .with("warm_seconds", self.warm_seconds)
            .with("pipelined_seconds", self.pipelined_seconds)
            .with("warm_p50_ms", self.warm_p50_ms)
            .with("warm_p99_ms", self.warm_p99_ms)
            .with("warm_max_ms", self.warm_max_ms)
            .with("hit_rate", self.hit_rate)
            .with("batched", self.batched)
            .with("pipelined", self.pipelined)
            .with("coalesced", self.coalesced)
            .with("shed", self.shed)
            .with("errors", self.errors)
    }
}

/// Serve-layer bench (hard gate): an in-process [`Server`] driven by
/// [`SERVE_CLIENTS`] concurrent connections over the Table-1 models in
/// three phases — cold (oracle), warm fan-out (one request in flight
/// per connection), pipelined burst (whole model list in flight at
/// once). Every response must be byte-identical to the cold one for
/// its model (384 warm + 192 burst checks), the pipeline must have run
/// exactly once per model (dedup through single-flight and batching),
/// nothing may shed or error, the event loop must have actually
/// pipelined and dispatched batches, and the warm p99 must stay under
/// [`WARM_P99_CEILING_MS`].
fn serve_bench() -> (ServeBench, bool) {
    let models = table1_models();
    let names: Vec<&str> = models.iter().map(|m| m.name.as_str()).collect();
    // Workers default from the core count (connections no longer pin
    // workers — the event loop multiplexes, the pool only compiles).
    // The queue only ever holds distinct fingerprints, so even the
    // full burst cannot legitimately shed at 4×clients.
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        queue_depth: 4 * SERVE_CLIENTS,
        ..ServeConfig::default()
    };
    let server = Server::bind(&config, ArtifactCache::in_memory()).expect("bind serve bench");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.run());

    // Cold pass: one client walks every model once. The responses
    // double as the byte-identity oracle for both fan-out phases.
    let t = Instant::now();
    let mut client = Client::connect(&addr).expect("connect to serve bench");
    let cold: Vec<String> = names
        .iter()
        .map(|n| {
            let resp = client.compile(CompileRequest::named(*n)).expect("cold compile");
            resp.result.to_json().to_string()
        })
        .collect();
    let cold_seconds = t.elapsed().as_secs_f64();

    let latency = Histogram::new();
    let mismatches = std::sync::atomic::AtomicU64::new(0);
    let t = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..SERVE_CLIENTS {
            let (addr, names, cold) = (&addr, &names, &cold);
            let (latency, mismatches) = (&latency, &mismatches);
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect warm client");
                for step in 0..WARM_ROUNDS * names.len() {
                    let pick = (tid + step) % names.len();
                    let t = Instant::now();
                    let resp = client
                        .compile(CompileRequest::named(names[pick]))
                        .expect("warm compile");
                    latency.record(t.elapsed().as_secs_f64() * 1e3);
                    if resp.result.to_json().to_string() != cold[pick] {
                        mismatches.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let warm_seconds = t.elapsed().as_secs_f64();

    // Pipelined burst: each client writes its whole (staggered) model
    // list before reading anything; the server must answer in request
    // order, byte-identically, with many requests in flight at once.
    let t = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..SERVE_CLIENTS {
            let (addr, names, cold) = (&addr, &names, &cold);
            let mismatches = &mismatches;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect burst client");
                for step in 0..names.len() {
                    let pick = (tid + step) % names.len();
                    client
                        .send(&Request::Compile(Box::new(CompileRequest::named(names[pick]))))
                        .expect("pipelined send");
                }
                for step in 0..names.len() {
                    let pick = (tid + step) % names.len();
                    match client.recv().expect("pipelined recv") {
                        Response::Compiled(resp) => {
                            if resp.result.to_json().to_string() != cold[pick] {
                                mismatches
                                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                        }
                        other => panic!("expected a compiled response, got {other:?}"),
                    }
                }
            });
        }
    });
    let pipelined_seconds = t.elapsed().as_secs_f64();

    let stats = client.stats().expect("serve stats");
    client.shutdown().expect("serve shutdown");
    handle.join().expect("serve thread").expect("serve run");

    let warm = latency.summary();
    let record = ServeBench {
        clients: SERVE_CLIENTS,
        requests: stats.requests,
        cold_seconds,
        warm_seconds,
        pipelined_seconds,
        warm_p50_ms: warm.p50_ms,
        warm_p99_ms: warm.p99_ms,
        warm_max_ms: warm.max_ms,
        hit_rate: stats.cache_hit_rate,
        batched: stats.batches,
        pipelined: stats.pipelined,
        coalesced: stats.coalesced,
        shed: stats.shed,
        errors: stats.errors,
    };
    let mismatches = mismatches.into_inner();
    let ok = mismatches == 0
        && stats.cache_misses == names.len() as u64
        && stats.shed == 0
        && stats.errors == 0
        && warm.count == (SERVE_CLIENTS * names.len() * WARM_ROUNDS) as u64
        && stats.batches > 0
        && stats.pipelined > 0
        && warm.p99_ms <= WARM_P99_CEILING_MS;
    if !ok {
        eprintln!(
            "serve bench: mismatches={mismatches} misses={} shed={} errors={} warm={} \
             batched={} pipelined={} p99={:.2}ms (ceiling {WARM_P99_CEILING_MS}ms)",
            stats.cache_misses,
            stats.shed,
            stats.errors,
            warm.count,
            stats.batches,
            stats.pipelined,
            warm.p99_ms
        );
    }
    (record, ok)
}

/// Nodes in the in-process fleet bench (the ci.sh smoke runs the same
/// topology as separate daemons).
const FLEET_NODES: usize = 4;
/// Structurally distinct inline artifacts pushed through the
/// guaranteed owner→peer fetch path.
const PEER_ARTIFACTS: usize = 8;
/// Hard ceiling on the warm peer-fetch p99, in milliseconds. A peer
/// hit is one connect, one `fetch` frame and one revalidation of a
/// tiny module — far under a recompile; the ceiling catches a peer
/// tier that silently recompiles or spins in retries.
const PEER_P99_CEILING_MS: f64 = 250.0;

struct FleetBench {
    nodes: usize,
    /// Table-1 models driven through the router (cold + warm).
    routed_models: usize,
    cold_seconds: f64,
    warm_seconds: f64,
    /// Inline artifacts driven through the peer-fetch path.
    peer_artifacts: usize,
    peer_seconds: f64,
    /// Client-observed latency quantiles of the peer-fetch compiles.
    peer_p50_ms: f64,
    peer_p99_ms: f64,
    peer_max_ms: f64,
    /// Summed local compiles across the cluster (must equal the
    /// distinct artifact count: each compiles on exactly one node).
    cluster_misses: u64,
    /// Summed peer-tier hits (must equal [`PEER_ARTIFACTS`]).
    cluster_peer_hits: u64,
    alive: usize,
}

impl ToJson for FleetBench {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("nodes", self.nodes as u64)
            .with("routed_models", self.routed_models as u64)
            .with("cold_seconds", self.cold_seconds)
            .with("warm_seconds", self.warm_seconds)
            .with("peer_artifacts", self.peer_artifacts as u64)
            .with("peer_seconds", self.peer_seconds)
            .with("peer_p50_ms", self.peer_p50_ms)
            .with("peer_p99_ms", self.peer_p99_ms)
            .with("peer_max_ms", self.peer_max_ms)
            .with("cluster_misses", self.cluster_misses)
            .with("cluster_peer_hits", self.cluster_peer_hits)
            .with("alive", self.alive as u64)
    }
}

/// A tiny 4-way all-gather + matmul layer, structurally distinct per
/// index (the artifact key fingerprints structure, so each index is
/// its own single-owner cache entry).
fn peer_module(i: usize) -> Module {
    let n = 4;
    let rows = 1024 + 64 * i;
    let mut b = Builder::new(format!("fleet_peer_{i}"), n);
    let x = b.parameter(Shape::new(DType::BF16, vec![rows, 1024]), "x");
    let w = b.parameter(Shape::new(DType::BF16, vec![1024, 4096 / n]), "w");
    let wg = b.all_gather(w, 1, ReplicaGroups::full(n), "wg");
    let y = b.einsum(x, wg, DotDims::matmul(), "y");
    b.build(vec![y])
}

/// Fleet bench (hard gate): [`FLEET_NODES`] in-process daemons on one
/// consistent-hash ring. Three phases — cold Table-1 through the
/// router (each model compiles on its ring owner, once cluster-wide),
/// warm repeat (all memory hits, byte-identical), then a peer-fetch
/// phase that pins artifact placement client-side so every fetch is a
/// guaranteed owner hit: compile at the artifact-ring owner, then at
/// the next node in ring order, whose fetch plan starts with that
/// owner. Gates: sharding and provenance as described, byte-identity
/// everywhere, exactly one local compile per distinct artifact, one
/// peer hit per inline artifact, every node alive, and the peer-fetch
/// p99 under [`PEER_P99_CEILING_MS`].
fn fleet_bench() -> (FleetBench, bool) {
    let models = table1_models();
    let names: Vec<&str> = models.iter().map(|m| m.name.as_str()).collect();
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        queue_depth: 64,
        ..ServeConfig::default()
    };
    let fleet =
        FleetHarness::launch(FLEET_NODES, &config, &|_| ArtifactCache::in_memory(), |cfg| cfg)
            .expect("launch fleet bench");
    let router = fleet.router();
    let mut session = router.session();
    let mut ok = true;

    // Cold pass: every Table-1 model through the router, each landing
    // on its ring owner and compiling there.
    let t = Instant::now();
    let cold: Vec<String> = names
        .iter()
        .map(|n| {
            let req = CompileRequest::named(*n);
            let (resp, served_by) = session.compile(&req).expect("cold fleet compile");
            ok &= served_by == router.owner_of(&req);
            ok &= resp.served.source.starts_with("compiled");
            resp.result.to_json().to_string()
        })
        .collect();
    let cold_seconds = t.elapsed().as_secs_f64();

    // Warm pass: the same set again — memory hits, byte-identical.
    let t = Instant::now();
    for (n, want) in names.iter().zip(&cold) {
        let (resp, _) = session.compile(&CompileRequest::named(*n)).expect("warm fleet compile");
        ok &= resp.served.source == "memory";
        ok &= &resp.result.to_json().to_string() == want;
    }
    let warm_seconds = t.elapsed().as_secs_f64();

    // Peer phase. The fetch ring is a pure function of (nodes, vnodes),
    // so the bench can compute placement exactly as the daemons do.
    let ring = HashRing::new(FLEET_NODES, DEFAULT_VNODES);
    let machine = Machine::tpu_v4_like(4);
    let addrs = fleet.addrs();
    let latency = Histogram::new();
    let t = Instant::now();
    for i in 0..PEER_ARTIFACTS {
        let module = peer_module(i);
        let req = CompileRequest {
            model: ModelRef::Inline(Box::new(module.clone())),
            machine: MachineSpec::TpuV4 { chips: 4 },
            options: OverlapOptions::paper_default(),
            fault_spec: None,
            deadline_ms: None,
        };
        let order = ring.route(artifact_key(&module, &machine, &req.options));
        let (owner, target) = (order[0], order[1]);

        let mut at_owner = Client::connect(&addrs[owner]).expect("connect artifact owner");
        let first = at_owner.compile(req.clone()).expect("owner compile");
        ok &= first.served.source.starts_with("compiled");

        let mut at_peer = Client::connect(&addrs[target]).expect("connect peer node");
        let t1 = Instant::now();
        let fetched = at_peer.compile(req).expect("peer compile");
        latency.record(t1.elapsed().as_secs_f64() * 1e3);
        ok &= fetched.served.source == "peer";
        ok &= fetched.result.to_json().to_string() == first.result.to_json().to_string();
    }
    let peer_seconds = t.elapsed().as_secs_f64();

    let agg = session.fleet_stats().expect("fleet stats");
    let cluster_misses: u64 = agg.nodes.iter().map(|n| n.cache_misses).sum();
    let cluster_peer_hits: u64 = agg.nodes.iter().map(|n| n.cache_peer_hits).sum();
    ok &= agg.alive == FLEET_NODES;
    ok &= cluster_misses == (names.len() + PEER_ARTIFACTS) as u64;
    ok &= cluster_peer_hits == PEER_ARTIFACTS as u64;
    fleet.shutdown_all();

    let peer = latency.summary();
    ok &= peer.p99_ms <= PEER_P99_CEILING_MS;
    let record = FleetBench {
        nodes: FLEET_NODES,
        routed_models: names.len(),
        cold_seconds,
        warm_seconds,
        peer_artifacts: PEER_ARTIFACTS,
        peer_seconds,
        peer_p50_ms: peer.p50_ms,
        peer_p99_ms: peer.p99_ms,
        peer_max_ms: peer.max_ms,
        cluster_misses,
        cluster_peer_hits,
        alive: agg.alive,
    };
    if !ok {
        eprintln!(
            "fleet bench: misses={cluster_misses} (want {}) peer_hits={cluster_peer_hits} \
             (want {PEER_ARTIFACTS}) alive={} p99={:.2}ms (ceiling {PEER_P99_CEILING_MS}ms)",
            names.len() + PEER_ARTIFACTS,
            agg.alive,
            peer.p99_ms
        );
    }
    (record, ok)
}

struct PerfRecord {
    reps: usize,
    /// Repeated simulation rebuilding every instruction cost per run
    /// (the pre-cost-table behavior, emulated by running a table-less
    /// `Simulation` in a loop).
    sim_fresh_seconds: f64,
    /// The same repetitions through one precomputed [`CostTable`].
    sim_cached_seconds: f64,
    sim_speedup: f64,
    /// Table-1 comparison sweep, one model at a time.
    sweep_serial_seconds: f64,
    /// The same sweep through the parallel driver.
    sweep_parallel_seconds: f64,
    sweep_speedup: f64,
    compile_throughput: CompileThroughput,
    cache: CacheBench,
    fault_smoke: FaultSmoke,
    autotune: AutotuneBench,
    tail: TailBench,
    quant: QuantBench,
    serve: ServeBench,
    fleet: FleetBench,
    threads: usize,
}

impl ToJson for PerfRecord {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("reps", self.reps as u64)
            .with("sim_fresh_seconds", self.sim_fresh_seconds)
            .with("sim_cached_seconds", self.sim_cached_seconds)
            .with("sim_speedup", self.sim_speedup)
            .with("sweep_serial_seconds", self.sweep_serial_seconds)
            .with("sweep_parallel_seconds", self.sweep_parallel_seconds)
            .with("sweep_speedup", self.sweep_speedup)
            .with("compile_throughput", self.compile_throughput.to_json())
            .with("cache", self.cache.to_json())
            .with("fault_smoke", self.fault_smoke.to_json())
            .with("autotune", self.autotune.to_json())
            .with("tail", self.tail.to_json())
            .with("quant", self.quant.to_json())
            .with("serve", self.serve.to_json())
            .with("fleet", self.fleet.to_json())
            .with("threads", self.threads as u64)
    }
}

/// Times the Table-1 compile sweep cold (fresh cache, every lookup a
/// miss) and warm (identical sweep again), asserting every warm bundle
/// is bit-identical to its cold counterpart. The warm sweep must beat
/// the cold one by [`CACHE_SPEEDUP_FLOOR`] — a hard gate, since a cache
/// that fails to hit (or hits slowly) is a silent perf regression.
/// Returns the record and whether the gate passed.
fn cache_bench() -> (CacheBench, bool) {
    let models = table1_models();
    let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());
    let cache = ArtifactCache::in_memory();
    let inputs: Vec<_> =
        models.iter().map(|cfg| (cfg.layer_module(), cfg.machine())).collect();

    let t = Instant::now();
    let cold: Vec<_> = inputs
        .iter()
        .map(|(module, machine)| {
            pipeline.compile_cached(module, machine, &cache).expect("cold compile")
        })
        .collect();
    let cold_seconds = t.elapsed().as_secs_f64();
    let after_cold = cache.stats();
    assert_eq!(after_cold.misses, models.len() as u64, "cold sweep must all miss");

    let t = Instant::now();
    let warm: Vec<_> = inputs
        .iter()
        .map(|(module, machine)| {
            pipeline.compile_cached(module, machine, &cache).expect("warm compile")
        })
        .collect();
    let warm_seconds = t.elapsed().as_secs_f64();
    let stats = cache.stats();

    for ((c, w), cfg) in cold.iter().zip(&warm).zip(&models) {
        assert_eq!(
            c.module.identity_fingerprint(),
            w.module.identity_fingerprint(),
            "warm compile of {} served a different module",
            cfg.name
        );
        assert_eq!(c.order, w.order, "warm compile of {} served a different schedule", cfg.name);
        assert_eq!(c.decisions, w.decisions, "warm decisions diverged on {}", cfg.name);
    }

    let warm_lookups = stats.lookups() - after_cold.lookups();
    let warm_hits = stats.hits() - after_cold.hits();
    let record = CacheBench {
        cold_seconds,
        warm_seconds,
        speedup: cold_seconds / warm_seconds,
        hit_rate: warm_hits as f64 / warm_lookups as f64,
        lookups: stats.lookups(),
    };
    let ok = record.hit_rate == 1.0 && record.speedup >= CACHE_SPEEDUP_FLOOR;
    (record, ok)
}

/// The compilation sequence as it stood before the shared-analysis
/// refactor: every pass verifies and re-indexes its input from scratch —
/// a full input verify, a fresh analysis for pattern matching, a
/// cost-table build (with its own verify) for the cost gate, a fresh
/// analysis verified from scratch before `fuse`, a full verify of the
/// final module, a second cost-table build (verifying again), and a
/// fresh analysis for the scheduler. Pass bodies are the current ones;
/// only the redundant recomputation differs, so the outputs must be
/// bit-identical to the pipeline's.
fn legacy_compile(
    module: &Module,
    machine: &Machine,
    options: &OverlapOptions,
) -> (Module, Vec<InstrId>) {
    module.verify().expect("verified input");
    let patterns = find_patterns(module, &ModuleAnalysis::of(module));
    let table = CostTable::new(module, machine).expect("cost table");
    let cost_model = CostModel::new(machine, &options.strategy);
    let plans: Vec<_> = cost_model
        .select(&table, module, &patterns, !options.disable_cost_gate)
        .into_iter()
        .map(|(_, plan)| plan)
        .collect();
    let (decomposed, _summaries, _) = decompose(module, &plans);
    let final_module = match options.fusion_options() {
        Some(fopts) => {
            let mut analysis = ModuleAnalysis::of(&decomposed);
            decomposed.verify_incremental(&mut analysis).expect("verified fusion input");
            fuse(decomposed, &analysis, &fopts)
        }
        None => decomposed,
    };
    final_module.verify().expect("verified output");
    let table = CostTable::new(&final_module, machine).expect("cost table");
    let analysis = ModuleAnalysis::of(&final_module);
    let order = schedule_bottom_up(&table, &analysis, &final_module, machine, None);
    (final_module, order)
}

/// Times `reps` end-to-end compiles of the largest zoo model through the
/// shared-analysis pipeline and through [`legacy_compile`], asserting the
/// schedules are bit-identical, and applies the baseline gate. Returns
/// the record and whether the gate passed.
fn compile_throughput(reps: usize) -> (CompileThroughput, bool) {
    let models = table1_models();
    let cfg = models
        .iter()
        .find(|m| m.name == "GPT_1T")
        .expect("GPT_1T is the largest Table-1 configuration");
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let options = OverlapOptions::paper_default();
    let pipeline = OverlapPipeline::new(options);

    let mut phases = PhaseTimings::new();
    let t = Instant::now();
    let mut compiled = pipeline.run(&module, &machine).expect("pipeline");
    phases.accumulate(&compiled.timings);
    for _ in 1..reps {
        compiled = pipeline.run(&module, &machine).expect("pipeline");
        phases.accumulate(&compiled.timings);
    }
    let pipeline_seconds = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (mut legacy_module, mut legacy_order) = legacy_compile(&module, &machine, &options);
    for _ in 1..reps {
        (legacy_module, legacy_order) = legacy_compile(&module, &machine, &options);
    }
    let legacy_seconds = t.elapsed().as_secs_f64();

    assert_eq!(
        legacy_module.len(),
        compiled.module.len(),
        "legacy emulation diverged from the pipeline on {}",
        cfg.name
    );
    assert_eq!(
        legacy_order, compiled.order,
        "pipeline schedule must be bit-identical to the pre-analysis sequence"
    );

    let baseline_seconds = std::fs::read_to_string(BASELINE_PATH)
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok());
    let per_compile = pipeline_seconds / reps as f64;
    let update = std::env::var("OVERLAP_COMPILE_BASELINE_UPDATE").is_ok_and(|v| v == "1");
    let ok = match baseline_seconds {
        Some(base) if !update => per_compile <= base * BASELINE_TOLERANCE,
        _ => {
            if let Err(e) = std::fs::create_dir_all("results")
                .and_then(|()| std::fs::write(BASELINE_PATH, format!("{per_compile:.6}\n")))
            {
                eprintln!("warning: cannot record compile baseline: {e}");
            }
            true
        }
    };

    let record = CompileThroughput {
        model: cfg.name.clone(),
        reps,
        pipeline_seconds,
        legacy_seconds,
        speedup: legacy_seconds / pipeline_seconds,
        phases,
        baseline_seconds,
        threads: sweep_threads(),
    };
    (record, ok)
}

fn main() {
    let reps: usize =
        std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(200);

    // Hot-path timing on a mid-size transformer layer.
    let cfg = ModelConfig {
        name: "perfgate_layer".into(),
        params: 0.0,
        layers: 1,
        model_dim: 2048,
        ff_dim: 8192,
        batch: 256,
        seq_len: 64,
        chips: 16,
        arch: Arch::Decoder,
        strategy: PartitionStrategy::TwoD,
    };
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
        .expect("pipeline");

    let t = Instant::now();
    // No `.table(..)`: every run re-derives the cost table.
    let fresh = Simulation::new(&compiled.module, &machine).order(&compiled.order);
    for _ in 0..reps {
        fresh.run().expect("simulate");
    }
    let sim_fresh_seconds = t.elapsed().as_secs_f64();

    let t = Instant::now();
    compiled.simulation(&machine).repeated(reps).expect("simulate");
    let sim_cached_seconds = t.elapsed().as_secs_f64();

    // Sweep timing: the six Table-1 models, serial then parallel.
    let models = table1_models();
    let t = Instant::now();
    let uncached = ArtifactCache::disabled();
    let serial: Vec<_> = models.iter().map(|cfg| run_comparison(cfg, &uncached)).collect();
    let sweep_serial_seconds = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let parallel = run_comparisons(&models, &uncached);
    let sweep_parallel_seconds = t.elapsed().as_secs_f64();
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.speedup().to_bits(),
            p.speedup().to_bits(),
            "parallel sweep diverged from serial on {}",
            s.baseline.model
        );
    }

    // End-to-end compile throughput on the largest zoo model (hard gate).
    let compile_reps: usize = std::env::var("OVERLAP_COMPILE_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let (compile, compile_ok) = compile_throughput(compile_reps);

    // Artifact-cache warm-vs-cold on the Table-1 compile sweep (hard gate).
    let (cache, cache_ok) = cache_bench();

    // Fault-injection smoke on the same mid-size layer (hard gate).
    let (fault_smoke, fault_ok) = fault_smoke(&cfg);

    // Autotune grid search on the same mid-size layer (hard gate on the
    // wall-clock budget and on the winner beating the paper default).
    let (autotune, autotune_ok) = autotune_bench(&cfg);

    // Cross-layer scheduling windows under a network straggler (hard
    // gate on the wall-clock budget and on window=2 never losing to
    // window=1 on p99).
    let (tail, tail_ok) = tail_bench();

    // Precision axis: lossless wire must be a compile no-op and the
    // budgeted int8 wire must still win on a damaged-link machine
    // (hard gate).
    let (quant, quant_ok) = quant_bench(&cfg);

    // Service layer: concurrent clients against an in-process daemon
    // (hard gate on byte-identity, dedup, and zero sheds/errors).
    let (serve, serve_ok) = serve_bench();

    // Fleet layer: a 4-node consistent-hash ring in one process (hard
    // gate on sharded dedup, peer-fetch provenance and latency).
    let (fleet, fleet_ok) = fleet_bench();

    let record = PerfRecord {
        reps,
        sim_fresh_seconds,
        sim_cached_seconds,
        sim_speedup: sim_fresh_seconds / sim_cached_seconds,
        sweep_serial_seconds,
        sweep_parallel_seconds,
        sweep_speedup: sweep_serial_seconds / sweep_parallel_seconds,
        compile_throughput: compile,
        cache,
        fault_smoke,
        autotune,
        tail,
        quant,
        serve,
        fleet,
        threads: sweep_threads(),
    };
    println!(
        "simulate x{reps}: fresh {:.3}s, cached table {:.3}s ({:.2}x)",
        record.sim_fresh_seconds, record.sim_cached_seconds, record.sim_speedup
    );
    println!(
        "table-1 sweep: serial {:.3}s, parallel {:.3}s ({:.2}x on {} threads)",
        record.sweep_serial_seconds,
        record.sweep_parallel_seconds,
        record.sweep_speedup,
        record.threads
    );
    let ct = &record.compile_throughput;
    println!(
        "compile {} x{}: pipeline {:.3}s, legacy sequence {:.3}s ({:.2}x, gate on {} threads)",
        ct.model, ct.reps, ct.pipeline_seconds, ct.legacy_seconds, ct.speedup, ct.threads
    );
    for p in ct.phases.phases() {
        println!("  {:<18} {:.4}s", p.phase, p.seconds);
    }
    println!(
        "table-1 compile sweep via artifact cache: cold {:.3}s, warm {:.3}s ({:.1}x, hit rate {:.2})",
        record.cache.cold_seconds,
        record.cache.warm_seconds,
        record.cache.speedup,
        record.cache.hit_rate
    );
    println!(
        "fault smoke: faulted makespan {:.3}ms, decomposed={} fallbacks={}",
        record.fault_smoke.faulted_makespan * 1e3,
        record.fault_smoke.decomposed,
        record.fault_smoke.fallbacks
    );
    println!(
        "autotune: {} candidates ({} pruned) searched in {:.3}s, winner {:.3}x vs paper default",
        record.autotune.candidates,
        record.autotune.pruned,
        record.autotune.search_seconds,
        record.autotune.winner_speedup
    );
    println!(
        "tail: {} x{} draws, p99 window=1 {:.3}ms vs window=2 {:.3}ms in {:.3}s",
        record.tail.model,
        record.tail.draws,
        record.tail.p99_window1 * 1e3,
        record.tail.p99_window2 * 1e3,
        record.tail.bench_seconds
    );
    println!(
        "quant: lossless identical={}, damaged-link speedup lossless {:.2}x vs int8 {:.2}x \
         (fallbacks={}) in {:.3}s",
        record.quant.lossless_identical,
        record.quant.lossless_speedup,
        record.quant.quant_speedup,
        record.quant.fallbacks,
        record.quant.bench_seconds
    );
    println!(
        "serve: {} clients, cold {:.3}s, warm {:.3}s, pipelined {:.3}s (p50 {:.2}ms, p99 {:.2}ms, \
         hit rate {:.2}, batched {}, pipelined {}, coalesced {})",
        record.serve.clients,
        record.serve.cold_seconds,
        record.serve.warm_seconds,
        record.serve.pipelined_seconds,
        record.serve.warm_p50_ms,
        record.serve.warm_p99_ms,
        record.serve.hit_rate,
        record.serve.batched,
        record.serve.pipelined,
        record.serve.coalesced
    );
    println!(
        "fleet: {} nodes, cold {:.3}s, warm {:.3}s, {} peer fetches in {:.3}s \
         (p50 {:.2}ms, p99 {:.2}ms), {} compiles cluster-wide, {} peer hits",
        record.fleet.nodes,
        record.fleet.cold_seconds,
        record.fleet.warm_seconds,
        record.fleet.peer_artifacts,
        record.fleet.peer_seconds,
        record.fleet.peer_p50_ms,
        record.fleet.peer_p99_ms,
        record.fleet.cluster_misses,
        record.fleet.cluster_peer_hits
    );
    write_json("BENCH_sim", &record);

    if !fault_ok {
        eprintln!(
            "fault-injection regression: a FaultSpec::default() simulation diverged from the \
             pristine one, or two compiles under the same seeded spec disagreed"
        );
        std::process::exit(1);
    }
    if !compile_ok {
        let per_compile = ct.pipeline_seconds / ct.reps as f64;
        eprintln!(
            "compile-throughput regression: {:.4}s per compile vs baseline {:.4}s (tolerance {BASELINE_TOLERANCE}x); \
             refresh deliberately with OVERLAP_COMPILE_BASELINE_UPDATE=1",
            per_compile,
            ct.baseline_seconds.unwrap_or(f64::NAN),
        );
        std::process::exit(1);
    }
    if !cache_ok {
        eprintln!(
            "artifact-cache regression: warm sweep {:.3}s vs cold {:.3}s ({:.1}x, hit rate {:.2}); \
             the warm Table-1 sweep must be >= {CACHE_SPEEDUP_FLOOR}x faster with every lookup a hit",
            record.cache.warm_seconds,
            record.cache.cold_seconds,
            record.cache.speedup,
            record.cache.hit_rate,
        );
        std::process::exit(1);
    }
    if !autotune_ok {
        eprintln!(
            "autotune regression: {} candidates searched in {:.3}s (budget {AUTOTUNE_BUDGET_SECONDS}s), \
             winner {:.3}x vs paper default (must be >= 1.0x — the grid contains the paper default)",
            record.autotune.candidates,
            record.autotune.search_seconds,
            record.autotune.winner_speedup,
        );
        std::process::exit(1);
    }
    if !tail_ok {
        eprintln!(
            "tail regression: window=2 p99 {:.3}ms vs window=1 p99 {:.3}ms in {:.3}s \
             (budget {TAIL_BUDGET_SECONDS}s); a wider scheduling window may only recover \
             tail latency, never add it",
            record.tail.p99_window2 * 1e3,
            record.tail.p99_window1 * 1e3,
            record.tail.bench_seconds,
        );
        std::process::exit(1);
    }
    if !quant_ok {
        eprintln!(
            "quant regression: lossless-wire identity={} (must be bit-identical to the paper \
             default), int8 damaged-link speedup {:.3}x (must be >= 1.0x) in {:.3}s \
             (budget {QUANT_BUDGET_SECONDS}s)",
            record.quant.lossless_identical,
            record.quant.quant_speedup,
            record.quant.bench_seconds,
        );
        std::process::exit(1);
    }
    if !serve_ok {
        eprintln!(
            "serve regression: a warm response diverged from its cold compile, the pipeline \
             ran more than once per model, or requests shed/errored under {SERVE_CLIENTS} clients"
        );
        std::process::exit(1);
    }
    if !fleet_ok {
        eprintln!(
            "fleet regression: an artifact compiled off its ring owner (or more than once \
             cluster-wide), a peer fetch recompiled or diverged, a node went dead, or the \
             warm peer-fetch p99 broke {PEER_P99_CEILING_MS}ms"
        );
        std::process::exit(1);
    }
}
