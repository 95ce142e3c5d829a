//! The per-layer waterfall, measured from outside: each public function
//! a layer offers is called on fixed inputs and timed here. These
//! probes run in every traced run and do not depend on the workload, so
//! a layer's number reads the same whichever workload's trace it came
//! with; what only a workload's own ops can tell (`core.*` on
//! `compile_cold`, the daemon's reports on the serve workloads)
//! overrides or joins them in `run.rs`.

use std::time::Instant;

use overlap_core::{artifact_key, artifact_key_faulted, ArtifactCache, OverlapPipeline};
use overlap_hlo::Module;
use overlap_json::{Json, StableHasher, ToJson};
use overlap_models::find_model;
use overlap_serve::protocol::{write_frame, FrameEvent, FrameReader};
use overlap_serve::{
    exec, CompileResponse, CompileResult, ModelRef, Request, Response, ServedInfo, SimSummary,
};
use overlap_sim::{
    simulate, simulate_order, simulate_order_faulted_with, simulate_order_with, CostTable,
    FaultModel,
};

use crate::compile_cold::{self, Input};
use crate::gen;
use crate::metrics::Metrics;
use crate::oracle::{self, Checks};
use crate::stats;
use crate::sys::ScratchDir;
use crate::tail_draws;
use crate::trace::Tracer;

/// Milliseconds one call of `f` takes: the median of `reps` calls.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

fn input<'a>(inputs: &'a [Input], model: &str, set: &str) -> &'a Input {
    inputs
        .iter()
        .find(|i| i.artifact.model.name == model && i.artifact.strategy == set)
        .expect("probe inputs are zoo artifacts")
}

pub fn probe(tracer: &mut Tracer, checks: &mut Checks, out: &mut Metrics) -> Result<(), String> {
    let inputs = compile_cold::inputs(tracer, |_, _| Ok(()))?;
    models(out);
    core(&inputs, tracer, out);
    hlo(&inputs, out)?;
    let entry_text = cache(&inputs, out)?;
    json(&entry_text, out)?;
    sim(&inputs, out)?;
    serve_codec_and_exec(tracer, checks, out)?;
    let numerics = oracle::check_numerics(checks)?;
    out.set("numerics.spmd_check_ms", numerics.check_ms);
    out.set("numerics.max_rel_err", numerics.max_rel_err);
    Ok(())
}

fn models(out: &mut Metrics) {
    let builds: Vec<f64> =
        gen::artifacts().iter().take(11).map(|a| time_ms(3, || a.model.layer_module())).collect();
    out.set("models.build_ms", stats::median(&builds));
}

fn core(inputs: &[Input], tracer: &mut Tracer, out: &mut Metrics) {
    let mut records = Vec::new();
    // Spans are what make `timed_compile` keep records; a probe in an
    // untraced context would have nothing to report.
    for index in (0..inputs.len()).chain(0..inputs.len()) {
        let _ = compile_cold::timed_compile(inputs, index, 0, tracer, &mut records);
    }
    compile_cold::core_metrics(inputs, &records, out);
}

fn hlo(inputs: &[Input], out: &mut Metrics) -> Result<(), String> {
    let module = &input(inputs, "GPT_64B", "paper").compile()?.module;
    let per_instr = |ms: f64| ms * 1e3 / module.len() as f64;
    out.set("hlo.verify_us_per_instr", per_instr(time_ms(5, || module.verify())));
    out.set("hlo.fingerprint_us_per_instr", per_instr(time_ms(5, || module.fingerprint())));
    out.set("hlo.encode_us_per_instr", per_instr(time_ms(5, || module.to_json().to_string())));
    let text = module.to_json().to_string();
    Module::from_json_str(&text).map_err(|e| format!("hlo decode: {e}"))?;
    out.set("hlo.decode_us_per_instr", per_instr(time_ms(5, || Module::from_json_str(&text))));
    Ok(())
}

/// Cache tiers on one mid-size artifact; returns its disk entry's text
/// as corpus for the JSON probe.
fn cache(inputs: &[Input], out: &mut Metrics) -> Result<String, String> {
    let i = input(inputs, "GPT_128B", "paper");
    let compile = |cache: &ArtifactCache| {
        let t0 = Instant::now();
        let r = cache.compile_traced(&i.pipeline, &i.module, &i.machine);
        (t0.elapsed().as_secs_f64() * 1e3, r)
    };
    out.set(
        "core.cache.key_ms",
        time_ms(5, || artifact_key(&i.module, &i.machine, i.pipeline.options())),
    );
    let run_ms = time_ms(3, || i.pipeline.run(&i.module, &i.machine));
    let (mut miss, mut hit, mut persist, mut disk_hit, mut entry_kb) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut entry_text = String::new();
    for _ in 0..3 {
        let memory = ArtifactCache::in_memory();
        miss.push(compile(&memory).0);
        hit.push(time_ms(3, || compile(&memory).0));

        let dir = ScratchDir::new("cache-probe")?;
        let disk = ArtifactCache::with_disk_dir(dir.path());
        persist.push(compile(&disk).0);
        disk.clear_memory();
        let (ms, outcome) = compile(&disk);
        let outcome = outcome.map_err(|e| e.to_string())?.1;
        if outcome.as_str() != "disk" {
            return Err(format!("cache probe: expected a disk hit, got {}", outcome.as_str()));
        }
        disk_hit.push(ms);
        let entry = std::fs::read_dir(dir.path())
            .map_err(|e| e.to_string())?
            .filter_map(Result::ok)
            .find(|f| f.path().extension().is_some_and(|x| x == "json"))
            .ok_or("cache probe: no entry was persisted")?;
        entry_text = std::fs::read_to_string(entry.path()).map_err(|e| e.to_string())?;
        entry_kb.push(entry_text.len() as f64 / 1024.0);
    }
    let miss_ms = stats::median(&miss);
    out.set("core.cache.mem_hit_ms", stats::median(&hit));
    out.set("core.cache.miss_overhead_ms", miss_ms - run_ms);
    out.set("core.cache.persist_ms", stats::median(&persist) - miss_ms);
    out.set("core.cache.disk_hit_ms", stats::median(&disk_hit));
    out.set("core.cache.entry_kb", stats::median(&entry_kb));
    Ok(entry_text)
}

/// `overlap-json` over what the serve workloads really move: inline
/// request frames and a cache entry.
fn json(entry_text: &str, out: &mut Metrics) -> Result<(), String> {
    let mut corpus: Vec<String> = (0..9)
        .map(|i| {
            let request = oracle::request_for(&gen::inline_variant(i), true);
            Request::Compile(Box::new(request)).to_json().to_string()
        })
        .collect();
    corpus.push(entry_text.to_string());
    let mb = corpus.iter().map(String::len).sum::<usize>() as f64 / 1e6;
    let parsed: Vec<Json> = corpus
        .iter()
        .map(|t| Json::parse(t).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let per_s = |ms: f64| mb / (ms / 1e3);
    out.set(
        "json.parse_mb_per_s",
        per_s(time_ms(3, || corpus.iter().map(|t| Json::parse(t)).collect::<Vec<_>>())),
    );
    out.set(
        "json.print_mb_per_s",
        per_s(time_ms(3, || parsed.iter().map(Json::to_string).collect::<Vec<_>>())),
    );
    out.set(
        "json.hash_mb_per_s",
        per_s(time_ms(3, || {
            let mut h = StableHasher::new("ledger-json-probe/1");
            corpus.iter().for_each(|t| h.write_bytes(t.as_bytes()));
            h.finish()
        })),
    );
    Ok(())
}

fn sim(inputs: &[Input], out: &mut Metrics) -> Result<(), String> {
    let big = input(inputs, "Meena_500B", "paper");
    let c = &big.compile()?;
    out.set("sim.cost_table_ms", time_ms(3, || CostTable::new(&c.module, &big.machine)));
    let run_ms =
        time_ms(5, || simulate_order_with(&c.cost_table, &c.module, &big.machine, &c.order));
    out.set("sim.run_us_per_instr", run_ms * 1e3 / c.module.len() as f64);

    let mut per_instr_dev = Vec::new();
    for model in ["GPT_32B", "GPT_128B", "Meena_500B"] {
        let i = input(inputs, model, "paper");
        let (c, chips) = (&i.compile()?, i.machine.mesh().num_devices());
        let spec = gen::straggler_spec(7, i.machine.mesh());
        simulate_order_faulted_with(&c.cost_table, &c.module, &i.machine, &c.order, &spec)
            .map_err(|e| format!("{model}: {e}"))?;
        let ms = time_ms(3, || {
            simulate_order_faulted_with(&c.cost_table, &c.module, &i.machine, &c.order, &spec)
        });
        per_instr_dev.push(ms * 1e6 / (c.module.len() * chips) as f64);
    }
    out.set("sim.faulted_ns_per_instr_dev", stats::mean(&per_instr_dev));
    let spec = gen::straggler_spec(7, big.machine.mesh());
    out.set("sim.fault_model_build_ms", time_ms(3, || FaultModel::new(&big.machine, &spec)));

    let tail = tail_draws::tail_input()?;
    let spec = gen::straggler_spec(7, tail.machine.mesh());
    let one = time_ms(5, || tail.draw(&spec, 1));
    let eight = time_ms(5, || tail.draw(&spec, 8));
    out.set("sim.tail_draws_per_s", 8.0 / (eight / 1e3));
    out.set("sim.tail_call_fixed_ms", one - (eight - one) / 7.0);

    // Simulated statistics of the Table-1 schedules: a change meant only
    // to speed the simulator up must leave these bit-equal.
    let (mut spans, mut exposed, mut utilization) = (0usize, Vec::new(), Vec::new());
    for model in overlap_models::table1_models() {
        let i = input(inputs, &model.name, "paper");
        let c = &i.compile()?;
        let report = simulate_order_with(&c.cost_table, &c.module, &i.machine, &c.order)
            .map_err(|e| format!("{}: {e}", model.name))?;
        spans += report.timeline().spans.len();
        exposed.push(report.comm_fraction());
        utilization.push(report.flops_utilization(i.machine.peak_flops()));
    }
    out.set("sim.spans_per_run", spans as f64);
    out.set("sim.exposed_comm_share", stats::mean(&exposed));
    out.set("sim.flops_utilization", stats::mean(&utilization));
    Ok(())
}

/// The stages of `exec::execute`, in its own call sequence, on a cache
/// that already holds the artifact (the `serve_hot` path).
const EXEC_STAGES: [&str; 6] =
    ["models_build", "key", "cache", "sim_baseline", "sim_overlapped", "encode"];

fn staged_execute(
    request: &overlap_serve::CompileRequest,
    cache: &ArtifactCache,
) -> Result<([f64; 6], CompileResult), String> {
    let ModelRef::Named(name) = &request.model else {
        return Err("replay covers named requests".into());
    };
    let mut at = [Instant::now(); 7];
    let cfg = find_model(name).ok_or_else(|| format!("unknown model {name}"))?;
    let machine = cfg.machine();
    let module = cfg.layer_module();
    at[1] = Instant::now();
    let pipeline = OverlapPipeline::new(request.options);
    std::hint::black_box(artifact_key_faulted(&module, &machine, pipeline.options(), None));
    at[2] = Instant::now();
    let (compiled, _) = cache
        .compile_traced_with_fetch(&pipeline, &module, &machine, &mut || None)
        .map_err(|e| e.to_string())?;
    at[3] = Instant::now();
    let baseline = simulate(&module, &machine).map_err(|e| e.to_string())?;
    at[4] = Instant::now();
    let overlapped =
        simulate_order(&compiled.module, &machine, &compiled.order).map_err(|e| e.to_string())?;
    at[5] = Instant::now();
    let key = artifact_key_faulted(&module, &machine, &request.options, None);
    let (baseline, overlapped) = (SimSummary::of(&baseline), SimSummary::of(&overlapped));
    let speedup = baseline.makespan / overlapped.makespan;
    let result = CompileResult {
        model: cfg.name.clone(),
        num_partitions: module.num_partitions(),
        artifact_key: key.to_string(),
        module_fingerprint: module.fingerprint().to_string(),
        machine_fingerprint: machine.fingerprint().to_string(),
        options_fingerprint: request.options.fingerprint().to_string(),
        input_identity: module.identity_fingerprint().to_string(),
        compiled_identity: compiled.module.identity_fingerprint().to_string(),
        order_len: compiled.order.len(),
        decisions: compiled.decisions,
        summaries: compiled.summaries,
        fallbacks: compiled.fallbacks,
        baseline,
        overlapped,
        speedup,
    };
    at[6] = Instant::now();
    let mut ms = [0.0; 6];
    for (k, slot) in ms.iter_mut().enumerate() {
        *slot = (at[k + 1] - at[k]).as_secs_f64() * 1e3;
    }
    Ok((ms, result))
}

fn serve_codec_and_exec(
    tracer: &mut Tracer,
    checks: &mut Checks,
    out: &mut Metrics,
) -> Result<(), String> {
    let cache = ArtifactCache::in_memory();
    let requests: Vec<_> = gen::artifacts().iter().map(|a| oracle::request_for(a, false)).collect();
    let (mut staged_total, mut whole_total) = ([0.0f64; 6], 0.0f64);
    let mut results = Vec::new();
    for (n, request) in requests.iter().enumerate() {
        let (want, _) =
            exec::execute(request, &cache, exec::Deadline::none()).map_err(|e| e.to_string())?;
        // Stage sum and whole call are taken alternately, three times
        // each, so a noisy moment hits both alike.
        let (mut stage_runs, mut whole_runs) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let t0 = Instant::now();
            let (ms, result) = staged_execute(request, &cache)?;
            let t1 = Instant::now();
            if result != want {
                return Err(format!(
                    "staged replay of {:?} diverged from exec::execute",
                    request.model
                ));
            }
            let span = tracer.add(
                "serve.exec.replay",
                tracer.micros(t0),
                tracer.micros(t1),
                None,
                n as u64 + 1,
            );
            let children: Vec<(String, f64)> = EXEC_STAGES
                .iter()
                .zip(ms)
                .map(|(s, ms)| (format!("serve.exec.{s}"), ms / 1e3))
                .collect();
            tracer.lay_out(span, &children);
            stage_runs.push(ms);
            whole_runs.push(time_ms(1, || exec::execute(request, &cache, exec::Deadline::none())));
        }
        for (k, total) in staged_total.iter_mut().enumerate() {
            *total += stats::median(&stage_runs.iter().map(|r| r[k]).collect::<Vec<_>>());
        }
        whole_total += stats::median(&whole_runs);
        results.push(want);
    }
    let n = requests.len() as f64;
    for (stage, total) in EXEC_STAGES.iter().zip(staged_total) {
        out.set(&format!("serve.exec_ms.{stage}"), total / n);
    }
    let staged_sum: f64 = staged_total.iter().sum();
    checks.check((staged_sum - whole_total).abs() <= 0.10 * whole_total, || {
        format!(
            "waterfall does not close: staged exec replay sums to {staged_sum:.2} ms, \
             exec::execute takes {whole_total:.2} ms"
        )
    });

    // Codec: what the daemon does to a request frame on the way in and
    // to a response on the way out.
    let mut frames_in: Vec<Vec<u8>> = Vec::new();
    let inline = (0..9).map(|i| oracle::request_for(&gen::inline_variant(i), true));
    for request in requests.iter().cloned().chain(inline) {
        let mut frame = Vec::new();
        write_frame(&mut frame, &Request::Compile(Box::new(request)).to_json())
            .map_err(|e| e.to_string())?;
        frames_in.push(frame);
    }
    let decode_all = || {
        frames_in
            .iter()
            .map(|frame| match FrameReader::new().poll(&mut frame.as_slice()) {
                FrameEvent::Frame(v) => overlap_json::FromJson::from_json(&v).ok(),
                _ => None,
            })
            .collect::<Vec<Option<Request>>>()
    };
    if decode_all().iter().any(Option::is_none) {
        return Err("codec probe: a request frame did not decode".to_string());
    }
    out.set("serve.frame_decode_ms", time_ms(3, decode_all) / frames_in.len() as f64);
    let responses: Vec<Response> = results
        .into_iter()
        .map(|result| {
            let served = ServedInfo { source: "memory".into(), queue_ms: 1.0, service_ms: 1.0 };
            Response::Compiled(Box::new(CompileResponse { result, served }))
        })
        .collect();
    let encode_all = || {
        responses
            .iter()
            .map(|r| {
                let mut frame = Vec::new();
                write_frame(&mut frame, &r.to_json()).expect("writing to a Vec cannot fail");
                frame.len()
            })
            .sum::<usize>()
    };
    out.set("serve.frame_encode_ms", time_ms(3, encode_all) / responses.len() as f64);
    let kb = |bytes: usize, n: usize| bytes as f64 / 1024.0 / n as f64;
    out.set("serve.frame_kb_in", kb(frames_in.iter().map(Vec::len).sum(), frames_in.len()));
    out.set("serve.frame_kb_out", kb(encode_all(), responses.len()));
    Ok(())
}
