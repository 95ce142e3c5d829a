//! Fault interpretation for the discrete-event engine.
//!
//! A [`FaultModel`] compiles a [`FaultSpec`] against a [`Machine`] into
//! dense per-link state the engine consults on every instruction. The
//! model is *passive*: it perturbs durations (and occasionally reports a
//! transfer as unroutable) but never mutates the spec or the machine, so
//! one model can serve any number of simulations.
//!
//! Determinism discipline: every random quantity (per-hop jitter, DMA
//! stall draws) is a pure function of `(seed, domain, instruction,
//! repetition, hop)` via the counter-based xorshift mix in
//! [`overlap_mesh::fault`]. There is no RNG stream to advance, so draws
//! do not depend on evaluation order, thread count, or whether a cost
//! table came from the artifact cache.
//!
//! Each perturbation checks its own activation and returns the pristine
//! value untouched when inactive, so a [`FaultSpec::default()`] model is
//! bit-identical to the fault-free engine — not merely close. The
//! engine runs a pristine request through the same code with a model
//! whose every perturbation is inactive.
//!
//! Routes are compiled once per simulation call, not once per draw. A
//! permute's path over the torus depends only on its `(src, dst)` pairs
//! and the spec's link state, never on the draw, so [`FaultModel::routes`]
//! walks each *distinct* pair list of the module once and prices each
//! distinct `(pair list, payload bytes)` once: per pair, the jitter-free
//! wire time `bytes / (bandwidth · worst derate) + hops · hop latency`.
//! A draw then only adds its jitter draws to those base times and takes
//! the max. Pairs whose base is so far below the list's slowest base that
//! no jitter realization can lift them to it are dropped from the table
//! up front; the comment beside that filter in `FaultModel::price` shows
//! why every sample stays bit-identical.

use std::cmp::Ordering;

use overlap_hlo::{InstrId, Module};
use overlap_mesh::fault::{mix64, unit_f64};
use overlap_mesh::{DeviceMesh, FaultSpec, LinkId, Machine};

use crate::SimError;

/// Domain tags separating the random streams of the different fault
/// kinds (jitter draws must not correlate with stall draws).
const DOMAIN_JITTER: u64 = 0x4A49_5454; // "JITT"
const DOMAIN_STALL: u64 = 0x5354_414C; // "STAL"

/// Outcome of routing one asynchronous transfer under faults.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct TransferOutcome {
    /// Wire time under faults (derates, detours, jitter), seconds.
    pub(crate) seconds: f64,
    /// Extra wire time versus the pristine transfer (attributed to
    /// links; includes jitter), seconds.
    pub(crate) link_extra: f64,
    /// Backoff time spent in stall retries before the wire moves,
    /// seconds.
    pub(crate) stall_extra: f64,
    /// Number of stall retries taken.
    pub(crate) retries: u64,
}

/// A [`FaultSpec`] compiled against one [`Machine`] for fast per-event
/// queries by the engine.
#[derive(Debug, Clone)]
pub struct FaultModel {
    seed: u64,
    mesh: DeviceMesh,
    link_bandwidth: f64,
    hop_latency: f64,
    /// Per directed link: fraction of nominal bandwidth delivered
    /// (`1.0` nominal), indexed `(device * rank + axis) * 2 + dir`.
    link_derate: Vec<f64>,
    /// Per directed link: true when the link is down.
    link_down: Vec<bool>,
    /// Worst-chip multiplicative compute/memory slowdown (`1.0` when no
    /// stragglers). The SPMD step is gated by the slowest chip.
    max_straggler: f64,
    /// Slowdown factor for ring collectives: worst alive link derate,
    /// doubled when any link is down (the bidirectional ring falls back
    /// to its surviving direction).
    collective_factor: f64,
    /// True when any link is derated or down (activates path routing).
    has_link_faults: bool,
    jitter_seconds: f64,
    stall_probability: f64,
    stall_seconds: f64,
    stall_max_retries: u32,
    time_limit: Option<f64>,
    /// True when the model was built from a spec: only then does the
    /// engine run its deadlock/timeout watchdog.
    watchdog: bool,
}

impl FaultModel {
    /// Compiles `spec` against `machine`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFaultSpec`] when the spec references
    /// devices or axes outside the mesh or carries out-of-range
    /// parameters, and [`SimError::LinkDown`] when some device has every
    /// outgoing link down (the SPMD program cannot run at all).
    pub fn new(machine: &Machine, spec: &FaultSpec) -> Result<Self, SimError> {
        let mesh = machine.mesh();
        spec.validate(mesh).map_err(SimError::InvalidFaultSpec)?;
        let rank = mesh.rank();
        let devices = mesh.num_devices();
        let n_links = devices * rank * 2;
        let mut link_derate = vec![1.0f64; n_links];
        let mut link_down = vec![false; n_links];
        let slot = |l: &LinkId| (l.device as usize * rank + l.axis) * 2 + usize::from(!l.forward);
        for d in &spec.link_derates {
            let s = slot(&d.link);
            link_derate[s] = link_derate[s].min(d.derate);
        }
        for l in &spec.down_links {
            link_down[slot(l)] = true;
        }
        // A device with every outgoing link down is unreachable: fail
        // fast instead of simulating a program that could never run.
        let wired_axes: Vec<usize> = (0..rank).filter(|&a| mesh.shape()[a] > 1).collect();
        if !wired_axes.is_empty() {
            for device in 0..devices {
                let base = device * rank * 2;
                let all_down = wired_axes
                    .iter()
                    .all(|&a| link_down[base + a * 2] && link_down[base + a * 2 + 1]);
                if all_down {
                    return Err(SimError::LinkDown { device: device as u32, axis: wired_axes[0] });
                }
            }
        }
        let max_straggler = spec
            .stragglers
            .iter()
            .map(|s| s.slowdown)
            .fold(1.0f64, f64::max);
        let worst_alive = link_derate
            .iter()
            .zip(&link_down)
            .filter(|&(_, &down)| !down)
            .map(|(&d, _)| 1.0 / d)
            .fold(1.0f64, f64::max);
        let any_down = link_down.iter().any(|&d| d);
        let collective_factor = if any_down { 2.0 * worst_alive } else { worst_alive };
        Ok(FaultModel {
            seed: spec.seed,
            mesh: mesh.clone(),
            link_bandwidth: machine.link_bandwidth(),
            hop_latency: machine.hop_latency(),
            link_derate,
            link_down,
            max_straggler,
            collective_factor,
            has_link_faults: spec.link_derates.iter().any(|d| d.derate < 1.0) || any_down,
            jitter_seconds: spec.jitter_seconds,
            stall_probability: spec.stall_probability,
            stall_seconds: spec.stall_seconds,
            stall_max_retries: spec.stall_max_retries,
            time_limit: (spec.time_limit_seconds > 0.0).then_some(spec.time_limit_seconds),
            watchdog: true,
        })
    }

    /// The model of a request without a fault spec: every perturbation
    /// inactive, no watchdog. Builds no link state and validates nothing.
    pub(crate) fn pristine(machine: &Machine) -> Self {
        FaultModel {
            seed: 0,
            mesh: machine.mesh().clone(),
            link_bandwidth: machine.link_bandwidth(),
            hop_latency: machine.hop_latency(),
            link_derate: Vec::new(),
            link_down: Vec::new(),
            max_straggler: 1.0,
            collective_factor: 1.0,
            has_link_faults: false,
            jitter_seconds: 0.0,
            stall_probability: 0.0,
            stall_seconds: 0.0,
            stall_max_retries: 0,
            time_limit: None,
            watchdog: false,
        }
    }

    /// Watchdog limit on simulated time, if configured.
    #[must_use]
    pub fn time_limit(&self) -> Option<f64> {
        self.time_limit
    }

    /// True when the engine should check for deadlocks and timeouts.
    #[inline]
    pub(crate) fn watchdog(&self) -> bool {
        self.watchdog
    }

    /// Worst-chip multiplicative slowdown gating compute and memory
    /// spans (`1.0` when no stragglers).
    #[must_use]
    pub fn compute_factor(&self) -> f64 {
        self.max_straggler
    }

    /// Slowdown factor applied to blocking ring collectives.
    #[must_use]
    pub fn collective_factor(&self) -> f64 {
        if self.has_link_faults {
            self.collective_factor
        } else {
            1.0
        }
    }

    /// Duration of a compute/memory span on the degraded machine.
    /// Returns `seconds` untouched when no straggler is configured.
    #[must_use]
    pub fn compute_seconds(&self, seconds: f64) -> f64 {
        self.compute_stretch(seconds).0
    }

    /// Duration of a blocking collective on the degraded machine.
    /// Returns `seconds` untouched when no link fault is configured.
    #[must_use]
    pub fn collective_seconds(&self, seconds: f64) -> f64 {
        self.collective_stretch(seconds).0
    }

    /// [`compute_seconds`](Self::compute_seconds) and the time it adds;
    /// exactly `(seconds, 0.0)` when no straggler is configured.
    #[inline]
    pub(crate) fn compute_stretch(&self, seconds: f64) -> (f64, f64) {
        stretch(seconds, self.max_straggler != 1.0, self.max_straggler)
    }

    /// [`collective_seconds`](Self::collective_seconds) and the time it
    /// adds; exactly `(seconds, 0.0)` when no link fault is configured.
    #[inline]
    pub(crate) fn collective_stretch(&self, seconds: f64) -> (f64, f64) {
        stretch(seconds, self.has_link_faults, self.collective_factor)
    }

    fn link_slot(&self, device: usize, axis: usize, forward: bool) -> usize {
        (device * self.mesh.rank() + axis) * 2 + usize::from(!forward)
    }

    /// A uniform draw in `[0, 1)` keyed purely by event identity.
    fn draw(&self, domain: u64, a: u64, b: u64, c: u64) -> f64 {
        let mut x = self.seed ^ domain;
        x = mix64(x ^ a);
        x = mix64(x ^ b);
        x = mix64(x ^ c);
        unit_f64(x)
    }

    /// Compiles the routes of every permute in `module` under this
    /// model's link state — once per simulation call. Empty (every
    /// permute keeps its pristine wire time) unless a link fault or
    /// jitter is active.
    pub(crate) fn routes(&self, module: &Module) -> Routes {
        if !(self.has_link_faults || self.jitter_seconds > 0.0) {
            return Routes::default();
        }
        let mut routes = Routes { wire_of: vec![NO_WIRE; module.len()], wires: Vec::new() };
        // Distinct pair lists with their per-pair paths, found by slice
        // equality (a module holds a handful; hashing 128-pair slices
        // per permute would cost more than comparing them).
        let mut lists: Vec<(&[(u32, u32)], Paths)> = Vec::new();
        // `(list, payload bytes)` of each entry of `routes.wires`.
        let mut priced: Vec<(usize, usize)> = Vec::new();
        for id in module.ids() {
            let ins = module.instr(id);
            let pairs = ins.op().permute_pairs().unwrap_or_default();
            if pairs.is_empty() {
                continue;
            }
            let list = lists.iter().position(|&(seen, _)| seen == pairs).unwrap_or_else(|| {
                let paths = pairs.iter().map(|&(src, dst)| self.walk_path(src, dst)).collect();
                lists.push((pairs, paths));
                lists.len() - 1
            });
            // Links carry the wire encoding, not the dense payload.
            let bytes = crate::cost::wire_payload_bytes(ins.op().wire(), ins.shape());
            let wire = priced.iter().position(|&key| key == (list, bytes)).unwrap_or_else(|| {
                priced.push((list, bytes));
                let wire = lists[list].1.as_ref().map_err(Clone::clone);
                routes.wires.push(wire.map(|paths| self.price(paths, bytes)));
                routes.wires.len() - 1
            });
            routes.wire_of[id.index()] = wire as u32;
        }
        routes
    }

    /// The candidate pairs of one `(pair list, payload bytes)`: each
    /// pair's jitter-free wire time, minus the pairs that can never be
    /// the slowest (the argument is beside the filter).
    fn price(&self, paths: &[PathInfo], bytes: usize) -> Vec<PairWire> {
        // The same expression, in the same order, a per-draw evaluation
        // of the pair would compute before adding its jitter.
        let base = |p: &PathInfo| {
            if p.hops == 0 {
                // Same-device "transfer": the pristine model charges one
                // hop latency; keep that and only add jitter.
                self.hop_latency
            } else {
                bytes as f64 / (self.link_bandwidth * p.min_derate)
                    + p.hops as f64 * self.hop_latency
            }
        };
        let slowest = paths.iter().map(base).fold(f64::NEG_INFINITY, f64::max);
        paths
            .iter()
            .enumerate()
            .filter_map(|(pair, p)| {
                let (base, draws) = (base(p), p.hops.max(1));
                // Skipping this pair cannot change the max: its sample is
                // `fl(base + jitter)`, with `jitter` the rounded sum of
                // `draws` terms `fl(J·u)`. Each term is at most `J`
                // (`u < 1`, rounding is monotone), so the sum is at most
                // `draws·J` plus rounding far below one more `J`, and
                // the sample is at most `fl(base + (draws + 1)·J)`, the
                // bound tested here. The slowest base's pair samples at
                // least its base (jitter ≥ 0), so a pair whose bound is
                // below it is strictly below the max in every draw. Draws
                // are pure functions of their identity with no stream to
                // advance, so skipping one changes no other. The max,
                // and with it every sample, stays bit-identical. A NaN
                // is unordered and is kept.
                let bound = base + (draws + 1) as f64 * self.jitter_seconds;
                let below = bound.partial_cmp(&slowest) == Some(Ordering::Less);
                (!below).then_some(PairWire { pair: pair as u64, draws, base })
            })
            .collect()
    }

    /// Routes one asynchronous `CollectivePermuteStart` transfer under
    /// faults. `pristine_seconds` is the fault-free wire time from the
    /// cost table; when no link fault and no jitter is active it is
    /// returned untouched so the noop spec stays bit-identical.
    ///
    /// The permute is bulk-synchronous across devices: the slowest
    /// pair's path gates the step, so the wire time is the max over all
    /// pairs. Down links reroute the long way around their ring (torus
    /// detour) at a hop-count penalty; a detour that is itself blocked
    /// makes the transfer unroutable. `routes` must come from
    /// [`routes`](Self::routes) on this model and `module`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LinkDown`] for an unroutable pair or when the
    /// DMA stall retry budget is exhausted.
    pub(crate) fn transfer(
        &self,
        routes: &Routes,
        module: &Module,
        id: InstrId,
        pristine_seconds: f64,
        rep: usize,
    ) -> Result<TransferOutcome, SimError> {
        let mut out = TransferOutcome { seconds: pristine_seconds, ..TransferOutcome::default() };
        if let Some(wire) = routes.wire(id) {
            let (instr, rep) = (id.index() as u64, rep as u64);
            let mut worst = 0.0f64;
            for p in wire? {
                let mut jitter = 0.0;
                if self.jitter_seconds > 0.0 {
                    for hop in 0..p.draws {
                        jitter += self.jitter_seconds
                            * self.draw(DOMAIN_JITTER, instr, rep, (p.pair << 16) | hop as u64);
                    }
                }
                worst = worst.max(p.base + jitter);
            }
            out.seconds = worst;
            out.link_extra = (worst - pristine_seconds).max(0.0);
        }
        if self.sample_stalls(&mut out, id, rep) {
            Ok(out)
        } else {
            // The stalled transfer's link: its first pair's first hop.
            let first = module.instr(id).op().permute_pairs().and_then(<[_]>::first);
            let (device, axis) =
                first.map_or((0, 0), |&(src, dst)| (src, self.first_diff_axis(src, dst)));
            Err(SimError::LinkDown { device, axis })
        }
    }

    /// Walks the torus path from `src` to `dst` axis by axis (shorter way
    /// around each ring, exactly as the pristine classifier chooses),
    /// accumulating hop count and the worst bandwidth derate crossed.
    /// Down links force a detour the other way around the affected ring;
    /// a blocked detour is the first down link it hit. Coordinates are
    /// index arithmetic on the row-major device id.
    fn walk_path(&self, src: u32, dst: u32) -> Result<PathInfo, SimError> {
        let devices = self.mesh.num_devices();
        let (src, dst) = (src as usize, dst as usize);
        if src >= devices || dst >= devices {
            return Err(SimError::InvalidSchedule(format!(
                "permute pair ({src}, {dst}) outside the {devices}-device mesh"
            )));
        }
        let mut cur = src;
        let mut info = PathInfo { hops: 0, min_derate: 1.0 };
        let mut stride = devices;
        for (axis, &size) in self.mesh.shape().iter().enumerate() {
            stride /= size;
            let (a, b) = (src / stride % size, dst / stride % size);
            if a == b {
                continue;
            }
            let fwd = (b + size - a) % size;
            let bwd = (a + size - b) % size;
            // Same short-way tie-break as `permute_transfer`.
            let (steps, forward) = if fwd <= bwd { (fwd, true) } else { (bwd, false) };
            let leg = match self.axis_leg(cur, axis, stride, size, steps, forward) {
                Ok(leg) => leg,
                // The short way hits a down link: detour the long way
                // around this ring, from the same coordinate.
                Err(_) => self
                    .axis_leg(cur, axis, stride, size, size - steps, !forward)
                    .map_err(|device| SimError::LinkDown { device, axis })?,
            };
            info.hops += leg.hops;
            info.min_derate = info.min_derate.min(leg.min_derate);
            // Either way round, the walk ends at `b` on this axis.
            cur = cur - a * stride + b * stride;
        }
        Ok(info)
    }

    /// Walks `steps` hops along `axis` from device `cur` (whose axis
    /// coordinate is `cur / stride % size`). On a down link, returns the
    /// device the link leaves.
    fn axis_leg(
        &self,
        mut cur: usize,
        axis: usize,
        stride: usize,
        size: usize,
        steps: usize,
        forward: bool,
    ) -> Result<PathInfo, u32> {
        let mut leg = PathInfo { hops: 0, min_derate: 1.0 };
        for _ in 0..steps {
            let s = self.link_slot(cur, axis, forward);
            if self.link_down[s] {
                return Err(cur as u32);
            }
            leg.hops += 1;
            leg.min_derate = leg.min_derate.min(self.link_derate[s]);
            let c = cur / stride % size;
            let next = if forward { (c + 1) % size } else { (c + size - 1) % size };
            cur = cur - c * stride + next * stride;
        }
        Ok(leg)
    }

    /// First mesh axis along which `src` and `dst` differ (`0` if none).
    fn first_diff_axis(&self, src: u32, dst: u32) -> usize {
        let mut stride = self.mesh.num_devices();
        self.mesh
            .shape()
            .iter()
            .position(|&size| {
                stride /= size;
                src as usize / stride % size != dst as usize / stride % size
            })
            .unwrap_or(0)
    }

    /// Samples the bounded stall/retry loop for one transfer. Each
    /// attempt stalls with `stall_probability`; retry `k` backs off for
    /// `k * stall_seconds`. Returns false when the retry budget is
    /// exhausted (the transfer's link then reads as down).
    fn sample_stalls(&self, out: &mut TransferOutcome, id: InstrId, rep: usize) -> bool {
        if self.stall_probability <= 0.0 {
            return true;
        }
        let mut retries = 0u32;
        loop {
            let u = self.draw(DOMAIN_STALL, id.index() as u64, rep as u64, u64::from(retries));
            if u >= self.stall_probability {
                return true;
            }
            if retries == self.stall_max_retries {
                return false;
            }
            // Below the budget, so this cannot wrap.
            retries += 1;
            out.stall_extra += f64::from(retries) * self.stall_seconds;
            out.retries += 1;
        }
    }
}

/// `(seconds · factor, the time that adds)` when `active`, exactly
/// `(seconds, 0.0)` otherwise.
#[inline]
fn stretch(seconds: f64, active: bool, factor: f64) -> (f64, f64) {
    if active {
        let s = seconds * factor;
        (s, s - seconds)
    } else {
        (seconds, 0.0)
    }
}

/// `Routes::wire_of` entry of an instruction that is not a routed permute.
const NO_WIRE: u32 = u32::MAX;

/// The permutes of one module routed under one [`FaultModel`]: built by
/// [`FaultModel::routes`] once per simulation call, read by
/// [`FaultModel::transfer`] once per permute per draw.
///
/// Each entry of `wires` is one distinct `(pair list, payload bytes)`:
/// every pair's jitter-free wire time, or the first down link that makes
/// the list unroutable. That error is stored, not raised: the engine sees it only
/// when it reaches a permute carrying the list, exactly where a per-draw
/// walk would have failed. Pairs that provably never gate the step are
/// left out (the argument is beside the filter in `FaultModel::price`).
#[derive(Debug, Default)]
pub(crate) struct Routes {
    /// Per instruction id: index into `wires`, or [`NO_WIRE`]. Empty when
    /// neither link faults nor jitter are active.
    wire_of: Vec<u32>,
    wires: Vec<Result<Vec<PairWire>, SimError>>,
}

impl Routes {
    /// The candidate pairs of `id`, if it is a permute with pairs under
    /// an active link fault or jitter.
    fn wire(&self, id: InstrId) -> Option<Result<&[PairWire], SimError>> {
        let &w = self.wire_of.get(id.index())?;
        let wire = self.wires.get(w as usize)?;
        Some(wire.as_deref().map_err(Clone::clone))
    }
}

/// One pair that may gate its permute's step.
#[derive(Debug, Clone, Copy)]
struct PairWire {
    /// Index in the permute's pair list (part of every jitter draw's
    /// identity).
    pair: u64,
    /// Jitter draws, one per hop and at least one.
    draws: usize,
    /// Wire time before jitter, seconds.
    base: f64,
}

/// The paths of one pair list, pair by pair, or the first pair's
/// failure to route.
type Paths = Result<Vec<PathInfo>, SimError>;

#[derive(Debug, Clone, Copy)]
struct PathInfo {
    hops: usize,
    min_derate: f64,
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use overlap_hlo::{Builder, DType, Module, Op, Shape};

    use super::*;

    fn f32s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    fn ring_machine(n: usize) -> Machine {
        Machine::with_mesh(DeviceMesh::ring(n))
    }

    /// One forward-shift permute start on an `n`-ring, returning the
    /// module, the start id and the pristine wire time.
    fn shift_module(n: usize, elems: usize) -> (Module, InstrId, f64) {
        let mut b = Builder::new("m", n);
        let x = b.parameter(f32s(&[elems]), "x");
        let pairs: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let s = b.collective_permute_start(x, pairs, "s");
        let d = b.collective_permute_done(s, "d");
        let m = b.build(vec![d]);
        let machine = ring_machine(n);
        let t = crate::permute_transfer(
            match m.instr(s).op() {
                Op::CollectivePermuteStart { pairs, .. } => pairs,
                _ => unreachable!(),
            },
            m.instr(s).shape().byte_size(),
            &machine,
        );
        (m, s, t.seconds)
    }

    #[test]
    fn noop_spec_leaves_everything_untouched() {
        let machine = ring_machine(4);
        let fm = FaultModel::new(&machine, &FaultSpec::default()).unwrap();
        assert_eq!(fm.compute_seconds(1.25), 1.25);
        assert_eq!(fm.collective_seconds(0.75), 0.75);
        assert_eq!(fm.compute_factor(), 1.0);
        assert_eq!(fm.collective_factor(), 1.0);
        assert_eq!(fm.time_limit(), None);
        let (m, s, pristine) = shift_module(4, 1 << 16);
        let out = fm.transfer(&fm.routes(&m), &m, s, pristine, 0).unwrap();
        assert_eq!(out.seconds, pristine);
        assert_eq!(out.stall_extra, 0.0);
        assert_eq!(out.retries, 0);
    }

    #[test]
    fn straggler_gates_compute() {
        let machine = ring_machine(4);
        let spec = FaultSpec::default().with_straggler(2, 1.5).with_straggler(3, 1.2);
        let fm = FaultModel::new(&machine, &spec).unwrap();
        assert_eq!(fm.compute_seconds(2.0), 3.0);
        // Collectives are unaffected by stragglers alone.
        assert_eq!(fm.collective_seconds(2.0), 2.0);
    }

    #[test]
    fn derated_link_stretches_only_paths_crossing_it() {
        let machine = ring_machine(8);
        let spec = FaultSpec::default()
            .with_link_derate(LinkId { device: 3, axis: 0, forward: true }, 0.5);
        let fm = FaultModel::new(&machine, &spec).unwrap();
        let (m, s, pristine) = shift_module(8, 1 << 18);
        let out = fm.transfer(&fm.routes(&m), &m, s, pristine, 0).unwrap();
        // The slowest pair (3 -> 4) pays double serialization time.
        let bytes = m.instr(s).shape().byte_size() as f64;
        let expect = bytes / (machine.link_bandwidth() * 0.5) + machine.hop_latency();
        assert!((out.seconds - expect).abs() < 1e-15);
        assert!(out.link_extra > 0.0);
    }

    #[test]
    fn down_link_detours_the_long_way() {
        let n = 8;
        let machine = ring_machine(n);
        let spec =
            FaultSpec::default().with_down_link(LinkId { device: 3, axis: 0, forward: true });
        let fm = FaultModel::new(&machine, &spec).unwrap();
        let (m, s, pristine) = shift_module(n, 1 << 18);
        let out = fm.transfer(&fm.routes(&m), &m, s, pristine, 0).unwrap();
        // Pair (3 -> 4) reroutes backward around the ring: 7 hops.
        let bytes = m.instr(s).shape().byte_size() as f64;
        let expect = bytes / machine.link_bandwidth() + 7.0 * machine.hop_latency();
        assert!((out.seconds - expect).abs() < 1e-15);
    }

    #[test]
    fn blocked_detour_is_link_down() {
        let n = 4;
        let machine = ring_machine(n);
        // Forward link 1 -> 2 down; the backward detour passes 1 -> 0
        // but dies on 0 -> 3. No device is fully cut, yet pair (1 -> 2)
        // is unroutable.
        let spec = FaultSpec::default()
            .with_down_link(LinkId { device: 1, axis: 0, forward: true })
            .with_down_link(LinkId { device: 0, axis: 0, forward: false });
        let fm = FaultModel::new(&machine, &spec).unwrap();
        let (m, s, pristine) = shift_module(n, 1 << 10);
        assert_eq!(
            fm.transfer(&fm.routes(&m), &m, s, pristine, 0),
            Err(SimError::LinkDown { device: 0, axis: 0 })
        );
    }

    #[test]
    fn fully_cut_device_rejected_at_model_build() {
        let machine = ring_machine(4);
        let spec = FaultSpec::default()
            .with_down_link(LinkId { device: 2, axis: 0, forward: true })
            .with_down_link(LinkId { device: 2, axis: 0, forward: false });
        assert_eq!(
            FaultModel::new(&machine, &spec).unwrap_err(),
            SimError::LinkDown { device: 2, axis: 0 }
        );
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let machine = ring_machine(8);
        let amp = 5e-6;
        let spec = FaultSpec::seeded(9).with_jitter(amp);
        let fm = FaultModel::new(&machine, &spec).unwrap();
        let (m, s, pristine) = shift_module(8, 1 << 16);
        let a = fm.transfer(&fm.routes(&m), &m, s, pristine, 0).unwrap();
        let b = fm.transfer(&fm.routes(&m), &m, s, pristine, 0).unwrap();
        assert_eq!(a, b, "same event identity draws the same jitter");
        assert!(a.seconds >= pristine);
        assert!(a.seconds < pristine + amp, "one hop draws less than the amplitude");
        let c = fm.transfer(&fm.routes(&m), &m, s, pristine, 1).unwrap();
        assert_ne!(a.seconds, c.seconds, "different repetition draws differently");
        let other_seed = FaultModel::new(&machine, &FaultSpec::seeded(10).with_jitter(amp)).unwrap();
        assert_ne!(
            other_seed.transfer(&other_seed.routes(&m), &m, s, pristine, 0).unwrap().seconds,
            a.seconds,
            "different seed draws differently"
        );
    }

    #[test]
    fn stalls_retry_with_backoff_and_bound() {
        let machine = ring_machine(4);
        let (m, s, pristine) = shift_module(4, 1 << 10);
        // Certain stall: every attempt fails, so the budget exhausts.
        let certain = FaultSpec::seeded(1).with_dma_stalls(1.0, 1e-6, 3);
        let fm = FaultModel::new(&machine, &certain).unwrap();
        assert!(matches!(
            fm.transfer(&fm.routes(&m), &m, s, pristine, 0),
            Err(SimError::LinkDown { .. })
        ));
        // Moderate stall probability: some repetition stalls, retries
        // are counted and backoff accumulates.
        let sometimes = FaultSpec::seeded(1).with_dma_stalls(0.5, 1e-6, 10);
        let fm = FaultModel::new(&machine, &sometimes).unwrap();
        let mut total_retries = 0;
        for rep in 0..32 {
            let out = fm.transfer(&fm.routes(&m), &m, s, pristine, rep).unwrap();
            if out.retries > 0 {
                assert!(out.stall_extra > 0.0);
            }
            total_retries += out.retries;
        }
        assert!(total_retries > 0, "a 50% stall rate must stall somewhere in 32 reps");
    }

    #[test]
    fn invalid_spec_is_typed() {
        let machine = ring_machine(4);
        let spec = FaultSpec::default().with_straggler(99, 2.0);
        assert!(matches!(
            FaultModel::new(&machine, &spec),
            Err(SimError::InvalidFaultSpec(_))
        ));
    }

    /// The per-draw walker the route table replaced, kept only as the
    /// reference: every pair of the permute is walked and priced in every
    /// draw, with `coords()` vectors, nothing tabled and nothing skipped.
    mod reference {
        use super::*;

        pub(super) fn transfer(
            fm: &FaultModel,
            module: &Module,
            id: InstrId,
            pristine_seconds: f64,
            rep: usize,
        ) -> Result<TransferOutcome, SimError> {
            let ins = module.instr(id);
            let mut out =
                TransferOutcome { seconds: pristine_seconds, ..TransferOutcome::default() };
            let pairs: &[(u32, u32)] = match ins.op() {
                Op::CollectivePermuteStart { pairs, .. } => pairs,
                _ => &[],
            };
            if (fm.has_link_faults || fm.jitter_seconds > 0.0) && !pairs.is_empty() {
                let bytes = crate::cost::wire_payload_bytes(ins.op().wire(), ins.shape());
                let mut worst = 0.0f64;
                for (pi, &(src, dst)) in pairs.iter().enumerate() {
                    let (hops, min_derate) = walk(fm, src, dst)?;
                    let mut jitter = 0.0;
                    if fm.jitter_seconds > 0.0 {
                        for hop in 0..hops.max(1) {
                            let c = ((pi as u64) << 16) | hop as u64;
                            jitter += fm.jitter_seconds
                                * fm.draw(DOMAIN_JITTER, id.index() as u64, rep as u64, c);
                        }
                    }
                    let t = if hops == 0 {
                        fm.hop_latency + jitter
                    } else {
                        bytes as f64 / (fm.link_bandwidth * min_derate)
                            + hops as f64 * fm.hop_latency
                            + jitter
                    };
                    worst = worst.max(t);
                }
                out.seconds = worst;
                out.link_extra = (worst - pristine_seconds).max(0.0);
            }
            let (device, axis) = pairs.first().map_or((0, 0), |&(src, dst)| {
                let (a, b) = (fm.mesh.coords(src), fm.mesh.coords(dst));
                (src, a.iter().zip(&b).position(|(x, y)| x != y).unwrap_or(0))
            });
            if fm.stall_probability > 0.0 {
                let mut attempt = 0u64;
                loop {
                    let u = fm.draw(DOMAIN_STALL, id.index() as u64, rep as u64, attempt);
                    if u >= fm.stall_probability {
                        break;
                    }
                    attempt += 1;
                    if attempt > u64::from(fm.stall_max_retries) {
                        return Err(SimError::LinkDown { device, axis });
                    }
                    out.stall_extra += attempt as f64 * fm.stall_seconds;
                    out.retries += 1;
                }
            }
            Ok(out)
        }

        /// `(hops, worst derate)` of the dimension-ordered path, detouring
        /// a blocked short way the long way round.
        fn walk(fm: &FaultModel, src: u32, dst: u32) -> Result<(usize, f64), SimError> {
            let (a, b) = (fm.mesh.coords(src), fm.mesh.coords(dst));
            let mut cur = a.clone();
            let (mut hops, mut min_derate) = (0, 1.0f64);
            for axis in 0..fm.mesh.rank() {
                if a[axis] == b[axis] {
                    continue;
                }
                let size = fm.mesh.shape()[axis];
                let fwd = (b[axis] + size - a[axis]) % size;
                let bwd = (a[axis] + size - b[axis]) % size;
                let (steps, forward) = if fwd <= bwd { (fwd, true) } else { (bwd, false) };
                let leg = match leg(fm, &mut cur, axis, steps, forward) {
                    Ok(leg) => leg,
                    Err(_) => leg(fm, &mut cur, axis, size - steps, !forward)
                        .map_err(|device| SimError::LinkDown { device, axis })?,
                };
                hops += leg.0;
                min_derate = min_derate.min(leg.1);
            }
            Ok((hops, min_derate))
        }

        fn leg(
            fm: &FaultModel,
            cur: &mut [usize],
            axis: usize,
            steps: usize,
            forward: bool,
        ) -> Result<(usize, f64), u32> {
            let size = fm.mesh.shape()[axis];
            let entry = cur[axis];
            let (mut hops, mut min_derate) = (0, 1.0f64);
            for _ in 0..steps {
                let device = fm.mesh.device_at(cur);
                let s = fm.link_slot(device as usize, axis, forward);
                if fm.link_down[s] {
                    cur[axis] = entry;
                    return Err(device);
                }
                hops += 1;
                min_derate = min_derate.min(fm.link_derate[s]);
                cur[axis] =
                    if forward { (cur[axis] + 1) % size } else { (cur[axis] + size - 1) % size };
            }
            Ok((hops, min_derate))
        }
    }

    fn outcome_bits(o: &TransferOutcome) -> [u64; 4] {
        [o.seconds.to_bits(), o.link_extra.to_bits(), o.stall_extra.to_bits(), o.retries]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The route table prices every permute of a random module on a
        /// random torus under a random spec exactly as the reference
        /// does, draw for draw. Jitter ranges from none through the
        /// serialization time to far beyond it, so pairs are pruned,
        /// kept, and pruned at the boundary.
        #[test]
        fn routed_transfers_match_the_reference_walker(
            shape in proptest::collection::vec(1usize..5, 1..4),
            seed in 0u64..1_000_000,
            derated in 0.0f64..0.6,
            derate in 0.05f64..1.0,
            downs in proptest::collection::vec((0u32..64, 0usize..3, 0u8..2), 0..4),
            jitter_scale in proptest::sample::select(vec![0.0, 1e-12, 1e-7, 1e-6, 1e-5, 1e-3]),
            jitter_frac in 0.0f64..1.0,
            stall in proptest::sample::select(vec![0.0, 0.2, 0.9]),
            retries in 0u32..6,
            shifts in proptest::collection::vec(proptest::collection::vec(0usize..4, 3), 1..4),
            scatter in proptest::collection::vec((0u32..64, 0u32..64), 1..12),
            elems in proptest::collection::vec(1usize..70_000, 1..4),
        ) {
            let mesh = DeviceMesh::new(shape.clone());
            let n = mesh.num_devices() as u32;
            let machine = Machine::with_mesh(mesh.clone());
            let mut spec = FaultSpec::seeded(seed)
                .with_derated_link_fraction(&mesh, derated, derate)
                .with_jitter(jitter_scale * jitter_frac)
                .with_dma_stalls(stall, 1e-6, retries);
            for &(device, axis, forward) in &downs {
                if device < n && axis < shape.len() && shape[axis] > 1 {
                    spec = spec.with_down_link(LinkId { device, axis, forward: forward == 1 });
                }
            }
            // A device cut off entirely is refused up front: nothing to route.
            let Ok(fm) = FaultModel::new(&machine, &spec) else { return Ok(()) };

            // Uniform shifts (the decomposed loops' pattern) and one
            // scattered list, each carried at every payload size.
            let mut lists: Vec<Vec<(u32, u32)>> = shifts
                .iter()
                .map(|by| {
                    (0..n)
                        .map(|d| {
                            let mut c = mesh.coords(d);
                            for (axis, x) in c.iter_mut().enumerate() {
                                *x = (*x + by[axis]) % shape[axis];
                            }
                            (d, mesh.device_at(&c))
                        })
                        .collect()
                })
                .collect();
            let mut seen = vec![false; n as usize];
            lists.push(
                scatter
                    .iter()
                    .map(|&(s, d)| (s % n, d % n))
                    .filter(|&(_, d)| !std::mem::replace(&mut seen[d as usize], true))
                    .collect(),
            );
            let mut b = Builder::new("m", n as usize);
            let mut starts = Vec::new();
            for (i, &e) in elems.iter().enumerate() {
                let x = b.parameter(f32s(&[e]), &format!("x{i}"));
                for (j, pairs) in lists.iter().enumerate() {
                    starts.push(b.collective_permute_start(x, pairs.clone(), &format!("s{i}_{j}")));
                }
            }
            let dones: Vec<InstrId> = starts
                .iter()
                .map(|&s| b.collective_permute_done(s, &format!("{s}.d")))
                .collect();
            let m = b.build(dones);
            let routes = fm.routes(&m);
            for &s in &starts {
                let pristine = match m.instr(s).op() {
                    Op::CollectivePermuteStart { pairs, .. } => {
                        crate::permute_transfer(pairs, m.instr(s).shape().byte_size(), &machine)
                            .seconds
                    }
                    _ => unreachable!(),
                };
                for rep in 0..3 {
                    let got = fm.transfer(&routes, &m, s, pristine, rep);
                    let want = reference::transfer(&fm, &m, s, pristine, rep);
                    proptest::prop_assert_eq!(
                        got.as_ref().map(outcome_bits),
                        want.as_ref().map(outcome_bits)
                    );
                }
            }
        }
    }
}
