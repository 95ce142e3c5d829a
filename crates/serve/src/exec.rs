//! Request execution, shared verbatim by the daemon and by clients
//! that check it.
//!
//! [`execute`] is the single code path that turns a [`CompileRequest`]
//! into a [`CompileResult`]: resolve the model and machine, validate
//! the fault spec, compile through the shared [`ArtifactCache`]
//! (single-flight, so concurrent identical requests compile once),
//! simulate baseline and overlapped schedules, and project the reports
//! to wire summaries. Because `overlapd` and the loadgen's local
//! expectation both call this function, "the server's `result` object
//! is byte-identical to direct `OverlapPipeline` calls" is enforced by
//! construction *and* checked over the wire in CI.

use std::time::Instant;

use overlap_core::{artifact_key_faulted, ArtifactCache, CacheOutcome, OverlapPipeline};
use overlap_hlo::Module;
use overlap_json::{Fingerprint, StableHasher, ToJson};
use overlap_mesh::Machine;
use overlap_models::{find_model, model_names};
use overlap_sim::{SimError, Simulation};

use crate::events::EventBus;
use crate::fleet::FleetState;
use crate::protocol::{
    CompileRequest, CompileResult, ErrorKind, MachineSpec, ModelRef, SimSummary,
};

/// The coalescing key for fingerprint batching: two compile requests
/// with equal keys provably produce byte-identical [`CompileResult`]s,
/// so the server may answer both from one execution.
///
/// Hashes the request's canonical wire encoding of (model, machine,
/// options, fault spec) — `deadline_ms` is deliberately excluded from
/// the JSON by construction here, but batchers must still dispatch
/// deadline-carrying requests solo: a deadline is a per-request
/// wall-clock promise that cannot be shared across batch members.
#[must_use]
pub fn batch_key(req: &CompileRequest) -> Fingerprint {
    let mut h = StableHasher::new("serve-batch/1");
    h.write_str(&req.model.to_json().to_string());
    h.write_str(&req.machine.to_json().to_string());
    h.write_str(&req.options.to_json().to_string());
    match &req.fault_spec {
        Some(spec) => h.write_str(&spec.to_json().to_string()),
        None => h.write_str(""),
    }
    h.finish()
}

/// A typed execution failure; maps 1:1 onto a wire error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// The wire category.
    pub kind: ErrorKind,
    /// Human-readable elaboration.
    pub message: String,
}

impl ExecError {
    fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ExecError { kind, message: message.into() }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

/// The request's wall-clock budget, if any, anchored at receipt.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No budget: [`Deadline::check`] always passes.
    #[must_use]
    pub fn none() -> Self {
        Deadline(None)
    }

    /// A budget of `ms` milliseconds starting now.
    #[must_use]
    pub fn in_ms(ms: u64) -> Self {
        Deadline(Some(Instant::now() + std::time::Duration::from_millis(ms)))
    }

    /// From a request field.
    #[must_use]
    pub fn from_request(deadline_ms: Option<u64>) -> Self {
        match deadline_ms {
            Some(ms) => Self::in_ms(ms),
            None => Self::none(),
        }
    }

    /// Fails with [`ErrorKind::DeadlineExceeded`] once the budget is
    /// spent. Called at phase boundaries (compilation and simulation
    /// are indivisible; a deadline cannot interrupt them mid-flight,
    /// only between them — the *simulated-time* watchdog inside
    /// `FaultSpec::with_time_limit` covers runaway simulations).
    ///
    /// # Errors
    ///
    /// Returns the typed deadline error naming the phase that would
    /// have started.
    pub fn check(&self, phase: &str) -> Result<(), ExecError> {
        match self.0 {
            Some(t) if Instant::now() >= t => Err(ExecError::new(
                ErrorKind::DeadlineExceeded,
                format!("deadline expired before {phase}"),
            )),
            _ => Ok(()),
        }
    }
}

/// A request resolved to concrete inputs.
struct Resolved {
    label: String,
    module: Module,
    machine: Machine,
}

fn resolve(req: &CompileRequest) -> Result<Resolved, ExecError> {
    let (label, module, default_machine) = match &req.model {
        ModelRef::Named(name) => {
            let Some(cfg) = find_model(name) else {
                return Err(ExecError::new(
                    ErrorKind::UnknownModel,
                    format!("unknown model {name:?}; known names: {}", model_names().join(", ")),
                ));
            };
            let machine = cfg.machine();
            (cfg.name.to_string(), cfg.layer_module(), machine)
        }
        ModelRef::Inline(module) => {
            // Inline modules arrive from the network: untrusted until
            // verified.
            if let Err(e) = module.verify() {
                return Err(ExecError::new(
                    ErrorKind::InvalidModule,
                    format!("module failed verification: {e}"),
                ));
            }
            let machine = Machine::tpu_v4_like(module.num_partitions());
            (module.name().to_string(), (**module).clone(), machine)
        }
    };
    let machine = match req.machine {
        MachineSpec::ModelDefault => default_machine,
        MachineSpec::TpuV4 { chips } => Machine::tpu_v4_like(chips),
        MachineSpec::GpuCluster { chips } => Machine::gpu_cluster_like(chips),
    };
    if machine.mesh().num_devices() != module.num_partitions() {
        return Err(ExecError::new(
            ErrorKind::InvalidRequest,
            format!(
                "machine has {} devices but the module is partitioned {} ways",
                machine.mesh().num_devices(),
                module.num_partitions()
            ),
        ));
    }
    if let Some(spec) = &req.fault_spec {
        if let Err(e) = spec.validate(machine.mesh()) {
            return Err(ExecError::new(
                ErrorKind::InvalidFaultSpec,
                format!("fault spec does not fit the machine: {e}"),
            ));
        }
    }
    Ok(Resolved { label, module, machine })
}

fn sim_error(what: &str, e: &SimError) -> ExecError {
    let kind = match e {
        // The simulated-time watchdog and the wall-clock budget report
        // through the same typed error.
        SimError::Timeout => ErrorKind::DeadlineExceeded,
        // A collective that cannot route is the fault spec's doing.
        SimError::LinkDown { .. } => ErrorKind::InvalidFaultSpec,
        _ => ErrorKind::Internal,
    };
    ExecError::new(kind, format!("cannot simulate the {what}: {e}"))
}

/// Runs one compile-and-simulate request to completion.
///
/// Deterministic: every field of the returned [`CompileResult`] is a
/// pure function of the request, so two calls — on different machines,
/// processes or sides of a socket — encode to identical bytes. The
/// [`CacheOutcome`] is the per-request provenance (advisory, excluded
/// from that contract).
///
/// # Errors
///
/// Returns a typed [`ExecError`] for unknown models, invalid modules
/// or fault specs, expired deadlines, and pipeline/simulator failures.
pub fn execute(
    req: &CompileRequest,
    cache: &ArtifactCache,
    deadline: Deadline,
) -> Result<(CompileResult, CacheOutcome), ExecError> {
    execute_with_peers(req, cache, deadline, None, None)
}

/// [`execute`] with a fleet peer tier: when both local cache tiers
/// miss and `fleet` is present, the artifact's ring owner (then its
/// hedge successor) is asked for the entry before compiling locally.
/// Fetched entries go through the full disk-tier revalidation inside
/// the cache, so a lying or corrupt peer degrades to an ordinary local
/// compile — never a wrong answer. With `fleet` absent this *is*
/// [`execute`].
///
/// # Errors
///
/// Exactly as [`execute`] — peer trouble is never an error, only a
/// provenance change.
pub fn execute_with_peers(
    req: &CompileRequest,
    cache: &ArtifactCache,
    deadline: Deadline,
    fleet: Option<&FleetState>,
    bus: Option<&EventBus>,
) -> Result<(CompileResult, CacheOutcome), ExecError> {
    let resolved = resolve(req)?;
    let Resolved { label, module, machine } = resolved;
    deadline.check("compilation")?;

    let mut pipeline = OverlapPipeline::new(req.options);
    if let Some(spec) = &req.fault_spec {
        pipeline = pipeline.with_faults(spec.clone());
    }
    // The peer tier keys by the *artifact* fingerprint — computed
    // exactly as the cache computes it, or owners would be asked for
    // keys they never store.
    let artifact_key = artifact_key_faulted(
        &module,
        &machine,
        pipeline.options(),
        pipeline.effective_faults(),
    );
    let mut fetcher = fleet.map(|f| f.fetcher(artifact_key, bus));
    let mut fetch = move || fetcher.as_mut().and_then(super::fleet::PeerFetcher::next_entry);
    let (compiled, outcome) = cache
        .compile_traced_with_fetch(&pipeline, &module, &machine, &mut fetch)
        .map_err(|e| ExecError::new(ErrorKind::Internal, format!("cannot compile: {e}")))?;
    deadline.check("simulation")?;

    // Both simulations build their own cost table: handing them the
    // pipeline's is a measured `serve_hot` change for its own issue (the
    // benchmark's staged replay mirrors this call sequence).
    let faults = req.fault_spec.as_ref();
    let baseline = Simulation::new(&module, &machine)
        .faults(faults)
        .run()
        .map_err(|e| sim_error("baseline", &e))?;
    let overlapped = Simulation::new(&compiled.module, &machine)
        .order(&compiled.order)
        .faults(faults)
        .run()
        .map_err(|e| sim_error("overlapped schedule", &e))?;
    deadline.check("response encoding")?;

    let key = artifact_key_faulted(&module, &machine, &req.options, req.fault_spec.as_ref());
    let baseline = SimSummary::of(&baseline);
    let overlapped = SimSummary::of(&overlapped);
    let speedup = baseline.makespan / overlapped.makespan;
    let result = CompileResult {
        model: label,
        num_partitions: module.num_partitions(),
        artifact_key: key.to_string(),
        module_fingerprint: module.fingerprint().to_string(),
        machine_fingerprint: machine.fingerprint().to_string(),
        options_fingerprint: req.options.fingerprint().to_string(),
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
    Ok((result, outcome))
}
