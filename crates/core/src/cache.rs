//! Content-addressed cache of compiled artifacts.
//!
//! Compiling the same (module, machine, options) triple twice is pure
//! waste: the pipeline is deterministic, so the second run reproduces the
//! first bit for bit. The sweep drivers hit this constantly — Table 1
//! compiles each workload once per scheduler ablation, the sensitivity
//! sweep re-compiles the unchanged module for every machine variant, and
//! every re-run of a figure driver starts from scratch. [`ArtifactCache`]
//! makes the recompilations free:
//!
//! * **Key.** `combine("overlap-artifact-v3", [module.fingerprint(),
//!   machine.fingerprint(), options.fingerprint()])` — the structural
//!   module fingerprint, so renaming instructions does not shift the key.
//! * **Identity guard.** A hit is only served when the input's *identity*
//!   fingerprint (names, tags, arena order) also matches the entry: the
//!   compiled module embeds input names, and a cache must never change
//!   observable output. Same structure + different names recompiles and
//!   replaces the entry.
//! * **In-memory tier.** A `Mutex`-ed map of `Arc` entries storing the
//!   whole [`Compiled`] bundle; lookups are single-flight — concurrent
//!   `par_map` workers asking for the same key block on a [`Condvar`]
//!   while the first worker compiles, then all share the one result. A
//!   leader that fails or panics wakes the waiters and the next one takes
//!   over.
//! * **Disk tier** (optional, `OVERLAP_CACHE_DIR`). Entries persist as
//!   pretty JSON keyed by the fingerprint (`<key>.json`), written
//!   atomically (temp file + rename). A loaded entry is *untrusted*:
//!   stale keys, corrupt JSON, payload-hash mismatches and verification
//!   failures all degrade to a miss, never an error. The
//!   [`overlap_sim::CostTable`] is not persisted — it is rebuilt from the
//!   decoded module, which is cheap and keeps machine-derived floats out
//!   of the file.
//!
//! `OVERLAP_CACHE=0` disables caching entirely ([`ArtifactCache::from_env`]);
//! `OVERLAP_CACHE_VERIFY=1` recompiles on every hit and asserts the
//! served artifact is bit-identical — the belt-and-braces mode CI uses.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use overlap_hlo::{HloError, InstrId, Module, ModuleAnalysis};
use overlap_json::{Fingerprint, FromJson, Json, StableHasher, ToJson};
use overlap_mesh::{FaultSpec, Machine};
use overlap_sim::CostTable;

use crate::costgate::GateDecision;
use crate::decompose::DecomposeSummary;
use crate::pipeline::{Compiled, FallbackRecord, OverlapOptions, OverlapPipeline};
use crate::profile::PhaseTimings;

/// Version tag baked into keys and disk entries; bump on any change to
/// the pipeline's semantics or the entry layout to invalidate old files.
/// (v2: fault-aware compiles — the key grows the fault-spec fingerprint
/// and the payload a `fallbacks` list. v3: options carry a per-pattern
/// [`StrategySpec`](crate::StrategySpec) and decompose summaries record
/// chunk widths and fallback reasons.)
const VERSION: &str = "overlap-artifact-v3";

/// The cache key for one fault-free compilation: structural module
/// fingerprint + machine fingerprint + options fingerprint under the
/// version tag. See [`artifact_key_faulted`] for degraded-machine
/// compiles.
#[must_use]
pub fn artifact_key(module: &Module, machine: &Machine, options: &OverlapOptions) -> Fingerprint {
    artifact_key_faulted(module, machine, options, None)
}

/// [`artifact_key`] for a compilation under a fault spec: the spec's
/// fingerprint joins the key material, so artifacts compiled for
/// different degraded machines never collide. `None` — and a spec that
/// injects nothing ([`FaultSpec::is_noop`]) — reduce to the fault-free
/// key, because the pipeline's output is bit-identical in those cases.
#[must_use]
pub fn artifact_key_faulted(
    module: &Module,
    machine: &Machine,
    options: &OverlapOptions,
    faults: Option<&FaultSpec>,
) -> Fingerprint {
    let base = [module.fingerprint(), machine.fingerprint(), options.fingerprint()];
    match faults.filter(|s| !s.is_noop()) {
        None => Fingerprint::combine(VERSION, &base),
        Some(spec) => {
            let [m, ma, o] = base;
            Fingerprint::combine(VERSION, &[m, ma, o, spec.fingerprint()])
        }
    }
}

/// Hit/miss counters for one [`ArtifactCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the in-memory tier (including waiters that
    /// blocked on an in-flight compile and received its result).
    pub memory_hits: u64,
    /// Lookups served by loading and revalidating a disk entry.
    pub disk_hits: u64,
    /// Lookups served by fetching and revalidating a peer's entry
    /// (fleet cache peering; see
    /// [`ArtifactCache::compile_traced_with_fetch`]).
    pub peer_hits: u64,
    /// Lookups that ran the full pipeline.
    pub misses: u64,
}

/// Where one [`ArtifactCache::compile_traced`] call's artifact came
/// from. The service layer reports this per request so clients can see
/// dedup working; the aggregate counters live in [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the in-memory tier — including waiting out another
    /// thread's in-flight compile of the same key (single-flight).
    MemoryHit,
    /// Loaded and revalidated from the disk tier.
    DiskHit,
    /// Fetched from a fleet peer and revalidated (payload hash +
    /// verify-on-load, exactly like a disk entry).
    PeerHit,
    /// Ran the full pipeline (a disabled cache always lands here).
    Miss,
    /// Ran the full pipeline because the disk entry existed but could
    /// not be *read* (I/O error). Transient by nature — peering layers
    /// may retry this case.
    MissDiskIo,
    /// Ran the full pipeline because the disk entry was *corrupt*
    /// (unparseable, payload-hash mismatch, unverifiable payload).
    /// Permanent for that entry — peering layers must not retry it.
    MissDiskCorrupt,
}

impl CacheOutcome {
    /// Stable wire/log name: `"memory"`, `"disk"`, `"peer"`,
    /// `"compiled"`, `"compiled-disk-io"` or `"compiled-disk-corrupt"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::MemoryHit => "memory",
            CacheOutcome::DiskHit => "disk",
            CacheOutcome::PeerHit => "peer",
            CacheOutcome::Miss => "compiled",
            CacheOutcome::MissDiskIo => "compiled-disk-io",
            CacheOutcome::MissDiskCorrupt => "compiled-disk-corrupt",
        }
    }

    /// True when the pipeline actually ran (any `Miss*` variant).
    #[must_use]
    pub fn compiled(self) -> bool {
        matches!(
            self,
            CacheOutcome::Miss | CacheOutcome::MissDiskIo | CacheOutcome::MissDiskCorrupt
        )
    }
}

impl CacheStats {
    /// Total lookups served without compiling.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits + self.peer_hits
    }

    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Fraction of lookups served from cache (0 when nothing was looked
    /// up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.lookups() as f64
        }
    }
}

/// Everything an entry records about the compile that produced it,
/// besides the payload: the lookup key plus the independent fingerprints
/// a loader revalidates. Kept alongside the in-memory payload so the
/// memory tier can export a full wire entry without a disk tier.
#[derive(Clone)]
struct EntryMeta {
    key: Fingerprint,
    module_fp: Fingerprint,
    machine_fp: Fingerprint,
    options_fp: Fingerprint,
    fault_fp: String,
    input_identity: Fingerprint,
}

impl EntryMeta {
    fn of(
        key: Fingerprint,
        identity: Fingerprint,
        module: &Module,
        machine: &Machine,
        options: &OverlapOptions,
        faults: Option<&FaultSpec>,
    ) -> EntryMeta {
        EntryMeta {
            key,
            module_fp: module.fingerprint(),
            machine_fp: machine.fingerprint(),
            options_fp: options.fingerprint(),
            fault_fp: fault_fp_string(faults),
            input_identity: identity,
        }
    }
}

struct MemEntry {
    meta: EntryMeta,
    compiled: Compiled,
}

enum Slot {
    Ready(Arc<MemEntry>),
    InFlight,
}

/// A two-tier, single-flight cache of [`Compiled`] bundles. See the
/// module docs for the design; the cheap entry point is
/// [`OverlapPipeline::compile_cached`].
pub struct ArtifactCache {
    slots: Mutex<HashMap<u128, Slot>>,
    ready: Condvar,
    disk_dir: Option<PathBuf>,
    enabled: bool,
    verify_hits: bool,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    peer_hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("enabled", &self.enabled)
            .field("disk_dir", &self.disk_dir)
            .field("verify_hits", &self.verify_hits)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl ArtifactCache {
    fn with(enabled: bool, disk_dir: Option<PathBuf>) -> Self {
        ArtifactCache {
            slots: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            disk_dir,
            enabled,
            verify_hits: false,
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            peer_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A process-local cache: in-memory tier only.
    #[must_use]
    pub fn in_memory() -> Self {
        Self::with(true, None)
    }

    /// A cache that also persists entries under `dir` (created on first
    /// store), surviving across process runs.
    #[must_use]
    pub fn with_disk_dir(dir: impl Into<PathBuf>) -> Self {
        Self::with(true, Some(dir.into()))
    }

    /// A pass-through cache: every compile runs the pipeline.
    #[must_use]
    pub fn disabled() -> Self {
        Self::with(false, None)
    }

    /// Builds a cache from the environment: `OVERLAP_CACHE=0` disables
    /// caching, a non-empty `OVERLAP_CACHE_DIR` adds the disk tier, and
    /// `OVERLAP_CACHE_VERIFY=1` recompiles on every hit to assert the
    /// served artifact is bit-identical to a cold compile.
    #[must_use]
    pub fn from_env() -> Self {
        let disabled = std::env::var("OVERLAP_CACHE").is_ok_and(|v| v == "0");
        let dir = std::env::var("OVERLAP_CACHE_DIR").ok().filter(|d| !d.is_empty());
        let mut cache = match (disabled, dir) {
            (true, _) => Self::disabled(),
            (false, Some(d)) => Self::with_disk_dir(d),
            (false, None) => Self::in_memory(),
        };
        cache.verify_hits = std::env::var("OVERLAP_CACHE_VERIFY").is_ok_and(|v| v == "1");
        cache
    }

    /// Forces every future hit to recompile and compare (bit-identical
    /// schedules, summaries, decisions and module identity), panicking on
    /// divergence. Expensive; for tests and CI.
    pub fn set_verify_hits(&mut self, verify: bool) {
        self.verify_hits = verify;
    }

    /// Whether every hit is recompiled and compared
    /// ([`ArtifactCache::set_verify_hits`], `OVERLAP_CACHE_VERIFY=1`).
    #[must_use]
    pub fn verifies_hits(&self) -> bool {
        self.verify_hits
    }

    /// Whether lookups can hit at all (false only for
    /// [`ArtifactCache::disabled`]).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The disk-tier directory, if configured.
    #[must_use]
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    /// Counters since construction.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            peer_hits: self.peer_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Empties the in-memory tier (disk entries stay). The benchmark
    /// harness uses this to time a "cold except disk" pass.
    pub fn clear_memory(&self) {
        self.slots.lock().expect("cache lock").clear();
        self.ready.notify_all();
    }

    /// Compiles `module` for `machine` with `pipeline`'s options, serving
    /// from cache when possible. Exactly [`OverlapPipeline::run`]
    /// observable behavior: a hit returns a bundle bit-identical to what
    /// a cold compile would produce (guarded by the identity
    /// fingerprint), except that [`Compiled::timings`] describe the run
    /// that originally produced the artifact.
    ///
    /// # Errors
    ///
    /// Returns [`HloError`] only for pipeline failures; cache-layer
    /// problems (unreadable, corrupt or stale disk entries) silently
    /// degrade to a miss.
    ///
    /// # Panics
    ///
    /// Panics if a hit diverges from a cold compile while
    /// [`ArtifactCache::set_verify_hits`] is on, or if the cache lock is
    /// poisoned by a panic on another thread.
    pub fn compile(
        &self,
        pipeline: &OverlapPipeline,
        module: &Module,
        machine: &Machine,
    ) -> Result<Compiled, HloError> {
        self.compile_traced(pipeline, module, machine).map(|(compiled, _)| compiled)
    }

    /// [`ArtifactCache::compile`] that also reports where the artifact
    /// came from — the per-call view of the aggregate [`CacheStats`].
    ///
    /// # Errors
    ///
    /// Exactly as [`ArtifactCache::compile`].
    ///
    /// # Panics
    ///
    /// Exactly as [`ArtifactCache::compile`].
    pub fn compile_traced(
        &self,
        pipeline: &OverlapPipeline,
        module: &Module,
        machine: &Machine,
    ) -> Result<(Compiled, CacheOutcome), HloError> {
        self.compile_traced_with_fetch(pipeline, module, machine, &mut || None)
    }

    /// [`ArtifactCache::compile_traced`] with a peer-fetch hook: when
    /// both local tiers miss, `fetch` is asked for candidate wire
    /// entries (the versioned JSON produced by [`ArtifactCache::
    /// export_entry`] on another node) until it returns `None` or one
    /// candidate survives the full disk-tier revalidation (fingerprint
    /// metadata, payload hash, verify-on-load, cost-table rebuild). A
    /// candidate that fails validation is rejected with a warning and
    /// the hook is asked for the *next* one — a corrupt peer entry is
    /// never retried, only skipped. Accepted entries install into the
    /// memory tier, persist to the disk tier (re-sharing), count as
    /// [`CacheStats::peer_hits`] and report [`CacheOutcome::PeerHit`].
    ///
    /// # Errors
    ///
    /// Exactly as [`ArtifactCache::compile`].
    ///
    /// # Panics
    ///
    /// Exactly as [`ArtifactCache::compile`].
    pub fn compile_traced_with_fetch(
        &self,
        pipeline: &OverlapPipeline,
        module: &Module,
        machine: &Machine,
        fetch: &mut dyn FnMut() -> Option<Json>,
    ) -> Result<(Compiled, CacheOutcome), HloError> {
        if !self.enabled {
            return pipeline.run(module, machine).map(|c| (c, CacheOutcome::Miss));
        }
        let faults = pipeline.effective_faults();
        let key = artifact_key_faulted(module, machine, pipeline.options(), faults);
        let identity = module.identity_fingerprint();

        // Fast path + single-flight election under one lock.
        {
            let mut slots = self.slots.lock().expect("cache lock");
            loop {
                match slots.get(&key.as_u128()) {
                    Some(Slot::Ready(e)) if e.meta.input_identity == identity => {
                        // Take the Arc, not the payload: cloning a large
                        // `Compiled` under the lock would serialize every
                        // concurrent hit.
                        let entry = Arc::clone(e);
                        drop(slots);
                        self.memory_hits.fetch_add(1, Ordering::Relaxed);
                        let out = entry.compiled.clone();
                        self.maybe_verify_hit(pipeline, module, machine, &out);
                        return Ok((out, CacheOutcome::MemoryHit));
                    }
                    // Identity mismatch (same structure, renamed input) or
                    // empty slot: this thread becomes the leader.
                    Some(Slot::Ready(_)) | None => {
                        slots.insert(key.as_u128(), Slot::InFlight);
                        break;
                    }
                    Some(Slot::InFlight) => {
                        slots = self.ready.wait(slots).expect("cache lock");
                    }
                }
            }
        }

        // Leader: on any exit without `install` (error or panic inside the
        // pipeline), the guard clears the in-flight marker and wakes the
        // waiters so one of them can take over.
        let flight = Flight { cache: self, key: key.as_u128(), installed: false };
        let meta = EntryMeta::of(key, identity, module, machine, pipeline.options(), faults);

        let disk = self.load_disk(&meta, machine);
        if let DiskLoad::Hit(compiled) = disk {
            let compiled = *compiled;
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            flight.install(MemEntry { meta, compiled: compiled.clone() });
            self.maybe_verify_hit(pipeline, module, machine, &compiled);
            return Ok((compiled, CacheOutcome::DiskHit));
        }

        // Peer tier: every candidate entry is as untrusted as a disk
        // file and goes through the identical revalidation.
        while let Some(candidate) = fetch() {
            match decode_entry(&candidate, &meta, machine) {
                EntryDecode::Hit(compiled) => {
                    let compiled = *compiled;
                    self.peer_hits.fetch_add(1, Ordering::Relaxed);
                    self.store_disk(&meta, &compiled);
                    flight.install(MemEntry { meta, compiled: compiled.clone() });
                    self.maybe_verify_hit(pipeline, module, machine, &compiled);
                    return Ok((compiled, CacheOutcome::PeerHit));
                }
                EntryDecode::Stale => {
                    eprintln!(
                        "warning: overlap cache: peer entry for {key} is stale; trying next peer"
                    );
                }
                EntryDecode::Corrupt(what) => {
                    eprintln!(
                        "warning: overlap cache: peer entry for {key} is corrupt ({what}); \
                         trying next peer"
                    );
                }
            }
        }

        let compiled = pipeline.run(module, machine)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.store_disk(&meta, &compiled);
        flight.install(MemEntry { meta, compiled: compiled.clone() });
        let outcome = match disk {
            DiskLoad::Hit(_) => unreachable!("disk hits return above"),
            DiskLoad::Absent => CacheOutcome::Miss,
            DiskLoad::Io => CacheOutcome::MissDiskIo,
            DiskLoad::Corrupt => CacheOutcome::MissDiskCorrupt,
        };
        Ok((compiled, outcome))
    }

    fn maybe_verify_hit(
        &self,
        pipeline: &OverlapPipeline,
        module: &Module,
        machine: &Machine,
        served: &Compiled,
    ) {
        if !self.verify_hits {
            return;
        }
        let cold = pipeline.run(module, machine).expect("verify-hit recompile failed");
        assert_eq!(
            cold.module.identity_fingerprint(),
            served.module.identity_fingerprint(),
            "cache hit served a different module than a cold compile"
        );
        assert_eq!(cold.order, served.order, "cache hit served a different schedule");
        assert_eq!(cold.summaries, served.summaries, "cache hit served different summaries");
        assert_eq!(cold.decisions, served.decisions, "cache hit served different decisions");
        assert_eq!(cold.fallbacks, served.fallbacks, "cache hit served different fallbacks");
    }

    fn entry_path(&self, key: Fingerprint) -> Option<PathBuf> {
        self.disk_dir.as_ref().map(|d| d.join(format!("{key}.json")))
    }

    /// Exports the full versioned wire entry for `key` — the same JSON
    /// layout the disk tier persists — so a fleet peer can transfer it
    /// and revalidate it independently. Served from the memory tier
    /// (re-encoded from the live [`Compiled`]) or, failing that, read
    /// back from the disk tier. `None` when this cache holds no entry
    /// for `key`; the *importer* performs all validation, so a corrupt
    /// local disk file is shipped as-is and rejected on the other end.
    #[must_use]
    pub fn export_entry(&self, key: Fingerprint) -> Option<Json> {
        let mem = {
            let slots = self.slots.lock().expect("cache lock");
            match slots.get(&key.as_u128()) {
                Some(Slot::Ready(e)) => Some(Arc::clone(e)),
                _ => None,
            }
        };
        if let Some(e) = mem {
            return Some(encode_entry(&e.meta, &e.compiled));
        }
        let path = self.entry_path(key)?;
        let text = std::fs::read_to_string(path).ok()?;
        let v = Json::parse(&text).ok()?;
        // Cheap sanity only — don't serve a file that is for another key
        // outright; deeper validation is the importer's job.
        (v["key"].as_str() == Some(key.to_string().as_str())).then_some(v)
    }

    /// Loads, revalidates and rehydrates a disk entry. Any failure is a
    /// miss, but the causes are distinguished (and surface in
    /// [`CacheOutcome`]): a missing file is the ordinary cold-cache case
    /// and stays silent, an unreadable file (I/O error other than
    /// not-found) and a corrupt entry (unparseable JSON, payload-hash
    /// mismatch, undecodable or unverifiable payload) each warn once on
    /// stderr so a sick disk or bit rot is visible instead of
    /// masquerading as an eternal miss. Stale-but-well-formed metadata
    /// (old version, other fingerprints) is expected churn and stays
    /// silent too.
    fn load_disk(&self, meta: &EntryMeta, machine: &Machine) -> DiskLoad {
        let Some(path) = self.entry_path(meta.key) else { return DiskLoad::Absent };
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return DiskLoad::Absent,
            Err(e) => {
                eprintln!(
                    "warning: overlap cache: cannot read {}: {e} (treating as miss)",
                    path.display()
                );
                return DiskLoad::Io;
            }
        };
        let Ok(v) = Json::parse(&text) else {
            eprintln!(
                "warning: overlap cache: corrupt entry {} (unparseable JSON); recompiling",
                path.display()
            );
            return DiskLoad::Corrupt;
        };
        match decode_entry(&v, meta, machine) {
            EntryDecode::Hit(compiled) => DiskLoad::Hit(compiled),
            EntryDecode::Stale => DiskLoad::Absent,
            EntryDecode::Corrupt(what) => {
                eprintln!(
                    "warning: overlap cache: corrupt entry {} ({what}); recompiling",
                    path.display()
                );
                DiskLoad::Corrupt
            }
        }
    }

    /// Persists an entry atomically (temp file + rename). I/O failures
    /// are swallowed: a cache that cannot write is slow, not broken.
    fn store_disk(&self, meta: &EntryMeta, compiled: &Compiled) {
        let Some(path) = self.entry_path(meta.key) else { return };
        let Some(dir) = self.disk_dir.as_ref() else { return };
        let entry = encode_entry(meta, compiled);
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = dir.join(format!(".{}.{}.tmp", meta.key, std::process::id()));
        if std::fs::write(&tmp, entry.to_pretty()).is_ok()
            && std::fs::rename(&tmp, &path).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// How one disk-tier lookup resolved; the miss cases carry *why* so
/// [`CacheOutcome`] can report provenance a peering layer acts on
/// (retry I/O, never retry corruption).
enum DiskLoad {
    /// Revalidated entry, ready to serve.
    Hit(Box<Compiled>),
    /// No entry (missing file, no disk tier, or stale metadata).
    Absent,
    /// Entry exists but could not be read.
    Io,
    /// Entry exists but failed validation.
    Corrupt,
}

/// How one untrusted wire/disk entry decoded against the expected
/// metadata.
enum EntryDecode {
    /// Fully revalidated and rehydrated.
    Hit(Box<Compiled>),
    /// Well-formed but recorded for different inputs (or an older
    /// version) — expected churn, not damage.
    Stale,
    /// Structurally damaged: missing or hash-mismatched payload,
    /// undecodable fields, or a payload that fails verification.
    Corrupt(&'static str),
}

/// The stable string form of a fault-spec fingerprint in entry
/// metadata; `"none"` for fault-free compiles.
fn fault_fp_string(faults: Option<&FaultSpec>) -> String {
    match faults.filter(|s| !s.is_noop()) {
        Some(spec) => spec.fingerprint().to_string(),
        None => "none".to_string(),
    }
}

/// Encodes the canonical wire/disk entry: metadata block + payload +
/// payload hash. [`decode_entry`] is its exact inverse (plus
/// validation).
fn encode_entry(meta: &EntryMeta, compiled: &Compiled) -> Json {
    let payload = Json::obj()
        .with("module", compiled.module.to_json())
        .with("order", compiled.order.to_json())
        .with("summaries", compiled.summaries.to_json())
        .with("decisions", compiled.decisions.to_json())
        .with("fallbacks", compiled.fallbacks.to_json())
        .with("timings", compiled.timings.to_json());
    Json::obj()
        .with("version", VERSION)
        .with("key", meta.key.to_string())
        .with("module_fingerprint", meta.module_fp.to_string())
        .with("machine_fingerprint", meta.machine_fp.to_string())
        .with("options_fingerprint", meta.options_fp.to_string())
        .with("fault_fingerprint", meta.fault_fp.clone())
        .with("input_identity", meta.input_identity.to_string())
        .with("payload_fingerprint", payload_fingerprint(&payload).to_string())
        .with("payload", payload)
}

/// Validates and rehydrates one untrusted entry (disk file or peer
/// transfer) against the metadata this lookup derived independently.
/// The shared core of the disk tier and the fleet's cache peering: an
/// entry is served only if every recorded fingerprint matches, the
/// payload hash survives a re-encode, the decoded module verifies, and
/// its cost table rebuilds.
fn decode_entry(v: &Json, meta: &EntryMeta, machine: &Machine) -> EntryDecode {
    // Stale metadata → silent miss. Every fingerprint recorded at
    // store time must match what this lookup derived independently.
    let hex = |k: &str| Fingerprint::from_hex(v[k].as_str()?);
    if v["version"].as_str() != Some(VERSION)
        || hex("key") != Some(meta.key)
        || hex("module_fingerprint") != Some(meta.module_fp)
        || hex("machine_fingerprint") != Some(meta.machine_fp)
        || hex("options_fingerprint") != Some(meta.options_fp)
        || v["fault_fingerprint"].as_str() != Some(meta.fault_fp.as_str())
        || hex("input_identity") != Some(meta.input_identity)
    {
        return EntryDecode::Stale;
    }

    // The payload hash covers the canonical encoding of everything
    // below; re-encoding the decoded payload and comparing detects
    // any edit or bit rot that survived parsing.
    let Some(payload) = v.get("payload") else {
        return EntryDecode::Corrupt("missing payload");
    };
    if hex("payload_fingerprint") != Some(payload_fingerprint(payload)) {
        return EntryDecode::Corrupt("payload hash mismatch");
    }

    let decoded = (|| -> Result<_, String> {
        let module = Module::from_json(payload.get("module").ok_or("no module")?)?;
        let order = Vec::<InstrId>::from_json(payload.get("order").ok_or("no order")?)?;
        let summaries = Vec::<DecomposeSummary>::from_json(
            payload.get("summaries").ok_or("no summaries")?,
        )?;
        let decisions = Vec::<GateDecision>::from_json(
            payload.get("decisions").ok_or("no decisions")?,
        )?;
        let fallbacks = Vec::<FallbackRecord>::from_json(
            payload.get("fallbacks").ok_or("no fallbacks")?,
        )?;
        let timings = PhaseTimings::from_json(payload.get("timings").ok_or("no timings")?)?;
        Ok((module, order, summaries, decisions, fallbacks, timings))
    })();
    let Ok((module, order, summaries, decisions, fallbacks, timings)) = decoded else {
        return EntryDecode::Corrupt("undecodable payload");
    };

    // Decoded modules are untrusted until verified; the cost table is
    // rebuilt (deterministically) rather than persisted.
    if module.verify().is_err() {
        return EntryDecode::Corrupt("payload module fails verification");
    }
    let mut analysis = ModuleAnalysis::of(&module);
    analysis.mark_verified(&module);
    let Ok(cost_table) = CostTable::with_analysis(&module, &analysis, machine) else {
        return EntryDecode::Corrupt("payload module has no computable costs");
    };
    EntryDecode::Hit(Box::new(Compiled {
        module,
        order,
        summaries,
        decisions,
        fallbacks,
        cost_table,
        timings,
    }))
}

/// Hash of a payload's canonical (compact) encoding.
fn payload_fingerprint(payload: &Json) -> Fingerprint {
    let mut h = StableHasher::new("overlap-artifact-payload-v1");
    h.write_str(&payload.to_string());
    h.finish()
}

/// Clears the in-flight marker on failure; see [`ArtifactCache::compile`].
struct Flight<'c> {
    cache: &'c ArtifactCache,
    key: u128,
    installed: bool,
}

impl Flight<'_> {
    fn install(mut self, entry: MemEntry) {
        let mut slots = self.cache.slots.lock().expect("cache lock");
        slots.insert(self.key, Slot::Ready(Arc::new(entry)));
        drop(slots);
        self.installed = true;
        self.cache.ready.notify_all();
    }
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        if self.installed {
            return;
        }
        let mut slots = self.cache.slots.lock().expect("cache lock");
        if matches!(slots.get(&self.key), Some(Slot::InFlight)) {
            slots.remove(&self.key);
        }
        drop(slots);
        self.cache.ready.notify_all();
    }
}

impl OverlapPipeline {
    /// [`OverlapPipeline::run`] through `cache`: a repeated compilation of
    /// the same (module, machine, options) triple — within a sweep or
    /// across process runs via the disk tier — is served from cache,
    /// bit-identical to the cold result.
    ///
    /// # Errors
    ///
    /// Returns [`HloError`] if the input or the compiled module fails
    /// verification (cache problems degrade to a miss, never an error).
    pub fn compile_cached(
        &self,
        module: &Module,
        machine: &Machine,
        cache: &ArtifactCache,
    ) -> Result<Compiled, HloError> {
        cache.compile(self, module, machine)
    }
}

#[cfg(test)]
mod tests {
    use overlap_hlo::{Builder, DType, DotDims, ReplicaGroups, Shape};
    use overlap_mesh::DeviceMesh;

    use super::*;

    fn layer(n: usize, name: &str) -> Module {
        let mut b = Builder::new(name, n);
        let x = b.parameter(Shape::new(DType::F32, vec![16384, 2048]), "x");
        let w = b.parameter(Shape::new(DType::F32, vec![2048, 16384 / n]), "w");
        let wg = b.all_gather(w, 1, ReplicaGroups::full(n), "wg");
        let y = b.einsum(x, wg, DotDims::matmul(), "y");
        b.build(vec![y])
    }

    fn assert_bit_identical(a: &Compiled, b: &Compiled) {
        assert_eq!(a.module.identity_fingerprint(), b.module.identity_fingerprint());
        assert_eq!(a.order, b.order);
        assert_eq!(a.summaries, b.summaries);
        assert_eq!(a.decisions, b.decisions);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "overlap-cache-test-{tag}-{}-{nanos}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn memory_hit_is_bit_identical_to_cold() {
        let n = 8;
        let m = layer(n, "layer");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());
        let cold = pipeline.run(&m, &machine).unwrap();

        let cache = ArtifactCache::in_memory();
        let first = pipeline.compile_cached(&m, &machine, &cache).unwrap();
        let second = pipeline.compile_cached(&m, &machine, &cache).unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats { memory_hits: 1, disk_hits: 0, peer_hits: 0, misses: 1 }
        );
        assert_bit_identical(&cold, &first);
        assert_bit_identical(&cold, &second);

        // The rehydrated bundle simulates to the same bits.
        let a = cold.simulation(&machine).run().unwrap();
        let b = second.simulation(&machine).run().unwrap();
        assert_eq!(a.makespan().to_bits(), b.makespan().to_bits());
    }

    #[test]
    fn renamed_input_recompiles_despite_equal_structural_key() {
        let n = 4;
        let m1 = layer(n, "alpha");
        let m2 = layer(n, "beta");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());
        assert_eq!(
            artifact_key(&m1, &machine, pipeline.options()),
            artifact_key(&m2, &machine, pipeline.options()),
            "module names must not shift the structural key"
        );

        let cache = ArtifactCache::in_memory();
        let c1 = pipeline.compile_cached(&m1, &machine, &cache).unwrap();
        let c2 = pipeline.compile_cached(&m2, &machine, &cache).unwrap();
        assert_eq!(cache.stats().misses, 2, "identity guard must force a recompile");
        assert_eq!(c1.module.name(), "alpha");
        assert_eq!(c2.module.name(), "beta");
        assert_eq!(c1.order, c2.order);
    }

    #[test]
    fn options_and_machine_changes_miss() {
        let n = 4;
        let m = layer(n, "layer");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let cache = ArtifactCache::in_memory();

        let defaults = OverlapPipeline::new(OverlapOptions::paper_default());
        defaults.compile_cached(&m, &machine, &cache).unwrap();
        let no_gate = OverlapPipeline::new(OverlapOptions {
            disable_cost_gate: true,
            ..OverlapOptions::paper_default()
        });
        no_gate.compile_cached(&m, &machine, &cache).unwrap();
        let other_machine = Machine::tpu_v4_like(n);
        defaults.compile_cached(&m, &other_machine, &cache).unwrap();
        assert_eq!(cache.stats(), CacheStats { memory_hits: 0, disk_hits: 0, peer_hits: 0, misses: 3 });
    }

    #[test]
    fn single_flight_compiles_once_across_threads() {
        let n = 8;
        let m = layer(n, "layer");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());
        let cache = ArtifactCache::in_memory();
        let cold = pipeline.run(&m, &machine).unwrap();

        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| pipeline.compile_cached(&m, &machine, &cache).unwrap())
                })
                .collect();
            for h in handles {
                assert_bit_identical(&cold, &h.join().unwrap());
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "single flight must compile exactly once");
        assert_eq!(stats.memory_hits, 7);
        assert!((stats.hit_rate() - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn disk_tier_survives_process_boundaries_and_rejects_corruption() {
        let n = 8;
        let m = layer(n, "layer");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());
        let dir = temp_dir("disk");

        // "Process 1": cold compile, entry persisted.
        let cache1 = ArtifactCache::with_disk_dir(&dir);
        let cold = pipeline.compile_cached(&m, &machine, &cache1).unwrap();
        assert_eq!(cache1.stats().misses, 1);
        let key = artifact_key(&m, &machine, pipeline.options());
        let path = dir.join(format!("{key}.json"));
        assert!(path.exists(), "entry file must exist at the fingerprint-keyed path");

        // "Process 2": fresh cache, same dir — disk hit, bit-identical,
        // and the rehydrated cost table simulates to the same bits.
        let cache2 = ArtifactCache::with_disk_dir(&dir);
        let warm = pipeline.compile_cached(&m, &machine, &cache2).unwrap();
        assert_eq!(cache2.stats(), CacheStats { memory_hits: 0, disk_hits: 1, peer_hits: 0, misses: 0 });
        assert_bit_identical(&cold, &warm);
        let a = cold.simulation(&machine).run().unwrap();
        let b = warm.simulation(&machine).run().unwrap();
        assert_eq!(a.makespan().to_bits(), b.makespan().to_bits());

        // Tamper with the payload (drop one order element): the payload
        // hash no longer matches → miss, then the entry is rewritten.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut v = Json::parse(&text).unwrap();
        let order = v["payload"]["order"].as_array().unwrap().to_vec();
        v["payload"]["order"] = Json::Arr(order[..order.len() - 1].to_vec());
        std::fs::write(&path, v.to_string()).unwrap();
        let cache3 = ArtifactCache::with_disk_dir(&dir);
        let recompiled = pipeline.compile_cached(&m, &machine, &cache3).unwrap();
        assert_eq!(cache3.stats(), CacheStats { memory_hits: 0, disk_hits: 0, peer_hits: 0, misses: 1 });
        assert_bit_identical(&cold, &recompiled);

        // Unparseable file → miss, not an error.
        std::fs::write(&path, "{ not json").unwrap();
        let cache4 = ArtifactCache::with_disk_dir(&dir);
        pipeline.compile_cached(&m, &machine, &cache4).unwrap();
        assert_eq!(cache4.stats().misses, 1);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_entries_from_other_inputs_miss() {
        let n = 4;
        let m = layer(n, "layer");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());
        let dir = temp_dir("stale");

        let cache = ArtifactCache::with_disk_dir(&dir);
        pipeline.compile_cached(&m, &machine, &cache).unwrap();
        let key = artifact_key(&m, &machine, pipeline.options());
        let path = dir.join(format!("{key}.json"));

        // Simulate a stale entry: same file name, but recorded for other
        // options (as if the pipeline semantics changed under the key).
        let text = std::fs::read_to_string(&path).unwrap();
        let mut v = Json::parse(&text).unwrap();
        v["options_fingerprint"] = Json::from(Fingerprint::neutral().to_string());
        std::fs::write(&path, v.to_string()).unwrap();

        let fresh = ArtifactCache::with_disk_dir(&dir);
        pipeline.compile_cached(&m, &machine, &fresh).unwrap();
        assert_eq!(fresh.stats(), CacheStats { memory_hits: 0, disk_hits: 0, peer_hits: 0, misses: 1 });

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_cache_passes_through() {
        let n = 4;
        let m = layer(n, "layer");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());
        let cache = ArtifactCache::disabled();
        pipeline.compile_cached(&m, &machine, &cache).unwrap();
        pipeline.compile_cached(&m, &machine, &cache).unwrap();
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(!cache.is_enabled());
    }

    #[test]
    fn verify_hits_accepts_honest_entries() {
        let n = 4;
        let m = layer(n, "layer");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());
        let mut cache = ArtifactCache::in_memory();
        cache.set_verify_hits(true);
        pipeline.compile_cached(&m, &machine, &cache).unwrap();
        pipeline.compile_cached(&m, &machine, &cache).unwrap();
        assert_eq!(cache.stats().memory_hits, 1);
    }

    #[test]
    fn fault_specs_key_and_cache_separately() {
        let n = 8;
        let m = layer(n, "layer");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let cache = ArtifactCache::in_memory();
        let plain = OverlapPipeline::new(OverlapOptions::paper_default());
        let spec = overlap_mesh::FaultSpec::seeded(7).with_straggler(0, 4.0);
        let faulted = plain.clone().with_faults(spec.clone());

        plain.compile_cached(&m, &machine, &cache).unwrap();
        faulted.compile_cached(&m, &machine, &cache).unwrap();
        assert_eq!(cache.stats().misses, 2, "fault spec must take its own slot");

        // A no-op spec compiles bit-identically, so it shares the
        // fault-free artifact (memory hit, not a third miss).
        let noop = plain.clone().with_faults(overlap_mesh::FaultSpec::seeded(9));
        noop.compile_cached(&m, &machine, &cache).unwrap();
        assert_eq!(cache.stats().memory_hits, 1);
        assert_eq!(cache.stats().misses, 2);

        let base = artifact_key(&m, &machine, plain.options());
        assert_eq!(
            artifact_key_faulted(
                &m,
                &machine,
                plain.options(),
                Some(&overlap_mesh::FaultSpec::default())
            ),
            base,
            "no-op specs reduce to the fault-free key"
        );
        assert_ne!(
            artifact_key_faulted(&m, &machine, plain.options(), Some(&spec)),
            base
        );
    }

    #[test]
    fn faulted_disk_entries_roundtrip_with_fallbacks() {
        let n = 8;
        let m = layer(n, "layer");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let dir = temp_dir("faults");
        // Heavy jitter forces a per-pattern fallback; the record must
        // survive the disk roundtrip.
        let spec = overlap_mesh::FaultSpec::seeded(3).with_jitter(10e-3);
        let pipeline =
            OverlapPipeline::new(OverlapOptions::paper_default()).with_faults(spec);

        let cache1 = ArtifactCache::with_disk_dir(&dir);
        let cold = pipeline.compile_cached(&m, &machine, &cache1).unwrap();
        assert_eq!(cold.fallbacks.len(), 1);

        let cache2 = ArtifactCache::with_disk_dir(&dir);
        let warm = pipeline.compile_cached(&m, &machine, &cache2).unwrap();
        assert_eq!(cache2.stats(), CacheStats { memory_hits: 0, disk_hits: 1, peer_hits: 0, misses: 0 });
        assert_bit_identical(&cold, &warm);
        assert_eq!(cold.fallbacks, warm.fallbacks);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exported_entries_import_as_peer_hits_bit_identically() {
        let n = 8;
        let m = layer(n, "layer");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());

        // "Owner node": memory tier only — export must work without disk.
        let owner = ArtifactCache::in_memory();
        let cold = pipeline.compile_cached(&m, &machine, &owner).unwrap();
        let key = artifact_key(&m, &machine, pipeline.options());
        let entry = owner.export_entry(key).expect("memory tier must export");
        assert!(owner.export_entry(Fingerprint::neutral()).is_none());

        // "Non-owner node": miss, fetch the owner's entry, revalidate,
        // serve as a peer hit; a second lookup is a plain memory hit.
        let fetcher = ArtifactCache::in_memory();
        let mut feed = vec![entry.clone()];
        let (fetched, outcome) = fetcher
            .compile_traced_with_fetch(&pipeline, &m, &machine, &mut || feed.pop())
            .unwrap();
        assert_eq!(outcome, CacheOutcome::PeerHit);
        assert_eq!(outcome.as_str(), "peer");
        assert!(!outcome.compiled());
        assert_bit_identical(&cold, &fetched);
        assert_eq!(
            fetcher.stats(),
            CacheStats { memory_hits: 0, disk_hits: 0, peer_hits: 1, misses: 0 }
        );
        let (_, warm) = fetcher.compile_traced(&pipeline, &m, &machine).unwrap();
        assert_eq!(warm, CacheOutcome::MemoryHit);

        // A disk-tier node exports the entry it persisted (memory tier
        // cleared, so this is the file read-back path), and the export
        // revalidates end to end on yet another node. Payload hashes are
        // not compared across exports: timings record each producing
        // run's wall clock, so two cold compiles encode different bytes.
        let dir = temp_dir("export");
        let disky = ArtifactCache::with_disk_dir(&dir);
        pipeline.compile_cached(&m, &machine, &disky).unwrap();
        disky.clear_memory();
        let from_disk = disky.export_entry(key).expect("disk tier must export");
        assert_eq!(from_disk["key"], entry["key"]);
        let mut feed = vec![from_disk];
        let another = ArtifactCache::in_memory();
        let (_, outcome) = another
            .compile_traced_with_fetch(&pipeline, &m, &machine, &mut || feed.pop())
            .unwrap();
        assert_eq!(outcome, CacheOutcome::PeerHit);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_peer_entries_are_skipped_never_served() {
        let n = 8;
        let m = layer(n, "layer");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());
        let owner = ArtifactCache::in_memory();
        let cold = pipeline.compile_cached(&m, &machine, &owner).unwrap();
        let key = artifact_key(&m, &machine, pipeline.options());
        let good = owner.export_entry(key).unwrap();

        // Candidate 1: payload tampered (hash mismatch). Candidate 2:
        // stale (foreign options fingerprint). Candidate 3: good. The
        // fetch hook is drained in order; only the good one serves.
        let mut tampered = good.clone();
        let order = tampered["payload"]["order"].as_array().unwrap().to_vec();
        tampered["payload"]["order"] = Json::Arr(order[..order.len() - 1].to_vec());
        let mut stale = good.clone();
        stale["options_fingerprint"] = Json::from(Fingerprint::neutral().to_string());

        let fetcher = ArtifactCache::in_memory();
        let mut feed = vec![good, stale, tampered]; // popped back to front
        let calls = std::cell::Cell::new(0u32);
        let (served, outcome) = fetcher
            .compile_traced_with_fetch(&pipeline, &m, &machine, &mut || {
                calls.set(calls.get() + 1);
                feed.pop()
            })
            .unwrap();
        assert_eq!(outcome, CacheOutcome::PeerHit);
        assert_eq!(calls.get(), 3, "both bad candidates must be skipped");
        assert_bit_identical(&cold, &served);

        // All candidates bad → local compile, counted as a plain miss.
        let mut rotten = vec![fetcher.export_entry(key).unwrap()];
        rotten[0]["payload_fingerprint"] = Json::from(Fingerprint::neutral().to_string());
        let lonely = ArtifactCache::in_memory();
        let (_, outcome) = lonely
            .compile_traced_with_fetch(&pipeline, &m, &machine, &mut || rotten.pop())
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(lonely.stats().peer_hits, 0);
        assert_eq!(lonely.stats().misses, 1);
    }

    #[test]
    fn disk_miss_reasons_surface_in_the_outcome() {
        let n = 4;
        let m = layer(n, "layer");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());
        let dir = temp_dir("reasons");

        let seeded = ArtifactCache::with_disk_dir(&dir);
        let (_, cold) = seeded.compile_traced(&pipeline, &m, &machine).unwrap();
        assert_eq!(cold, CacheOutcome::Miss);
        let key = artifact_key(&m, &machine, pipeline.options());
        let path = dir.join(format!("{key}.json"));

        // Corrupt file → the miss says so.
        std::fs::write(&path, "{ not json").unwrap();
        let fresh = ArtifactCache::with_disk_dir(&dir);
        let (_, outcome) = fresh.compile_traced(&pipeline, &m, &machine).unwrap();
        assert_eq!(outcome, CacheOutcome::MissDiskCorrupt);
        assert_eq!(outcome.as_str(), "compiled-disk-corrupt");
        assert!(outcome.compiled());

        // Unreadable file (a directory at the entry path) → I/O miss.
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir_all(&path).unwrap();
        let fresh = ArtifactCache::with_disk_dir(&dir);
        let (_, outcome) = fresh.compile_traced(&pipeline, &m, &machine).unwrap();
        assert_eq!(outcome, CacheOutcome::MissDiskIo);
        assert_eq!(outcome.as_str(), "compiled-disk-io");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn options_fingerprint_separates_every_knob() {
        use crate::strategy::{
            FusionAggressiveness, PartitionHint, PatternStrategy, RingDirection, StrategySpec,
        };
        let base = OverlapOptions::paper_default();
        let spec = StrategySpec::paper_default();
        let variants = [
            OverlapOptions::with_strategy(spec.with_unroll(false)),
            OverlapOptions::with_strategy(spec.with_ring(RingDirection::Unidirectional)),
            OverlapOptions::with_strategy(spec.with_pad_max_concat(true)),
            OverlapOptions::with_strategy(
                spec.with_ring(RingDirection::Unidirectional).with_chunk(2),
            ),
            OverlapOptions::with_strategy(
                spec.with_ring(RingDirection::Unidirectional).with_chunk(4),
            ),
            // Per-pattern asymmetry: the same knob flipped on only one of
            // the two pattern kinds must hash differently from both the
            // base and the both-patterns flip.
            OverlapOptions::with_strategy(StrategySpec {
                all_gather: PatternStrategy { unroll: false, ..spec.all_gather },
                ..spec
            }),
            OverlapOptions::with_strategy(StrategySpec {
                reduce_scatter: PatternStrategy { unroll: false, ..spec.reduce_scatter },
                ..spec
            }),
            OverlapOptions::with_strategy(spec.with_fusion(FusionAggressiveness::Off)),
            OverlapOptions::with_strategy(
                spec.with_fusion(FusionAggressiveness::Conservative),
            ),
            OverlapOptions::with_strategy(StrategySpec {
                partitioning: PartitionHint::OneD,
                ..spec
            }),
            OverlapOptions::with_strategy(StrategySpec {
                partitioning: PartitionHint::TwoD,
                ..spec
            }),
            OverlapOptions { scheduler: crate::SchedulerKind::TopDown, ..base },
            OverlapOptions { scheduler: crate::SchedulerKind::Original, ..base },
            OverlapOptions { disable_cost_gate: true, ..base },
            OverlapOptions { split_all_reduce: true, ..base },
        ];
        let mut fps = vec![base.fingerprint()];
        fps.extend(variants.iter().map(OverlapOptions::fingerprint));
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "variants {i} and {j} collide");
            }
        }
        assert_eq!(base.fingerprint(), OverlapOptions::paper_default().fingerprint());
    }

    #[test]
    fn default_and_tuned_artifacts_never_collide_in_cache() {
        // E2E: compile the same module/machine under paper_default and a
        // tuned strategy through one shared cache; both cold compiles must
        // miss (distinct keys), and re-requesting each must hit its own
        // entry bit-identically.
        use crate::strategy::{RingDirection, StrategySpec};
        let n = 8;
        let m = layer(n, "layer");
        let machine = Machine::with_mesh(DeviceMesh::ring(n));
        let tuned = OverlapOptions::with_strategy(
            StrategySpec::paper_default()
                .with_ring(RingDirection::Unidirectional)
                .with_chunk(2),
        );
        let default = OverlapOptions::paper_default();
        assert_ne!(
            artifact_key(&m, &machine, &default),
            artifact_key(&m, &machine, &tuned)
        );

        let cache = ArtifactCache::in_memory();
        let a = OverlapPipeline::new(default).compile_cached(&m, &machine, &cache).unwrap();
        let b = OverlapPipeline::new(tuned).compile_cached(&m, &machine, &cache).unwrap();
        assert_eq!(cache.stats(), CacheStats { memory_hits: 0, disk_hits: 0, peer_hits: 0, misses: 2 });

        let a2 = OverlapPipeline::new(default).compile_cached(&m, &machine, &cache).unwrap();
        let b2 = OverlapPipeline::new(tuned).compile_cached(&m, &machine, &cache).unwrap();
        assert_eq!(cache.stats(), CacheStats { memory_hits: 2, disk_hits: 0, peer_hits: 0, misses: 2 });
        assert_bit_identical(&a, &a2);
        assert_bit_identical(&b, &b2);
    }
}
