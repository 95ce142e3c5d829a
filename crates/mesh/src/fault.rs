//! Deterministic fault-injection specification for degraded hardware.
//!
//! A [`FaultSpec`] describes a degraded machine: slow or dead ICI links,
//! straggler chips, per-hop latency jitter, and transient DMA stalls.
//! The spec is *data*, not behavior — the discrete-event simulator in
//! `overlap-sim` interprets it, and the compilation pipeline in
//! `overlap-core` re-evaluates the §5.5 cost gate under it to decide
//! when decomposition stops paying off.
//!
//! Everything here is deterministic by construction. Random quantities
//! (jitter draws, stall draws, link selection) come from a stateless
//! counter-based xorshift mix of the spec's seed and the event identity,
//! never from a shared mutable RNG stream, so the same seed produces
//! bit-identical results regardless of thread count or evaluation order.

use overlap_json::{json_record, Fingerprint, StableHasher};

use crate::mesh::DeviceMesh;

/// Largest `stall_max_retries` a spec may carry. Committed specs use at
/// most 8; a budget in the billions would keep a certain-stall transfer
/// drawing for minutes, so specs from the wire or a file are refused
/// instead.
const MAX_STALL_RETRIES: u32 = 64;

/// Identity of one directed inter-chip link on the torus.
///
/// The link leaves `device` along mesh axis `axis`, toward the neighbor
/// at coordinate `+1` (wrapping) when `forward` is true and `-1` when
/// false. Each physical cable is two directed links, one per direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId {
    /// Source partition id (row-major over the mesh shape).
    pub device: u32,
    /// Mesh axis the link runs along.
    pub axis: usize,
    /// True for the `+1` (wrapping) direction, false for `-1`.
    pub forward: bool,
}

/// A link running below nominal bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDerate {
    /// Which directed link is degraded.
    pub link: LinkId,
    /// Fraction of nominal bandwidth still delivered, in `(0, 1]`.
    pub derate: f64,
}

/// A chip running slower than its peers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// Partition id of the slow chip.
    pub device: u32,
    /// Multiplicative slowdown applied to its compute and memory time,
    /// `>= 1.0` (`1.5` means every kernel takes 1.5x as long).
    pub slowdown: f64,
}

/// A seeded, fingerprint-hashable description of hardware faults.
///
/// `FaultSpec::default()` injects nothing: the simulator and the cost
/// gate treat it exactly like the pristine machine, bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Seed feeding every per-event random draw (jitter, stalls).
    pub seed: u64,
    /// Links delivering only a fraction of nominal bandwidth.
    pub link_derates: Vec<LinkDerate>,
    /// Links that are down entirely; traffic reroutes the long way
    /// around the ring (torus detour) at a hop-count penalty.
    pub down_links: Vec<LinkId>,
    /// Chips whose compute/memory time is multiplicatively inflated.
    pub stragglers: Vec<Straggler>,
    /// Per-hop latency jitter amplitude in seconds: each hop of each
    /// transfer adds a seeded uniform draw from `[0, jitter_seconds)`.
    pub jitter_seconds: f64,
    /// Probability that a DMA transfer stalls on issue and must retry.
    pub stall_probability: f64,
    /// Backoff unit for a stalled DMA: retry `k` (1-based) waits
    /// `k * stall_seconds` before re-issuing.
    pub stall_seconds: f64,
    /// Retry budget for a stalled DMA. If every attempt up to this
    /// bound stalls, the simulator reports the transfer's link as down
    /// instead of retrying forever. [`validate`](Self::validate) caps it
    /// at 64: every retry is one more draw per transfer per execution.
    pub stall_max_retries: u32,
    /// Watchdog limit on simulated time in seconds; `0.0` disables it.
    pub time_limit_seconds: f64,
}

impl FaultSpec {
    /// A spec injecting nothing, with the given seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultSpec { seed, ..FaultSpec::default() }
    }

    /// True when the spec injects nothing and sets no watchdog — the
    /// simulator's fault path is then bit-identical to the pristine one.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.link_derates.is_empty()
            && self.down_links.is_empty()
            && self.stragglers.is_empty()
            && self.jitter_seconds == 0.0
            && self.stall_probability == 0.0
            && self.time_limit_seconds == 0.0
    }

    /// Adds a derated link.
    #[must_use]
    pub fn with_link_derate(mut self, link: LinkId, derate: f64) -> Self {
        self.link_derates.push(LinkDerate { link, derate });
        self
    }

    /// Marks a link as down.
    #[must_use]
    pub fn with_down_link(mut self, link: LinkId) -> Self {
        self.down_links.push(link);
        self
    }

    /// Adds a straggler chip.
    #[must_use]
    pub fn with_straggler(mut self, device: u32, slowdown: f64) -> Self {
        self.stragglers.push(Straggler { device, slowdown });
        self
    }

    /// Sets per-hop latency jitter amplitude.
    #[must_use]
    pub fn with_jitter(mut self, seconds: f64) -> Self {
        self.jitter_seconds = seconds;
        self
    }

    /// Enables transient DMA stalls with bounded retry/backoff.
    #[must_use]
    pub fn with_dma_stalls(mut self, probability: f64, backoff_seconds: f64, max_retries: u32) -> Self {
        self.stall_probability = probability;
        self.stall_seconds = backoff_seconds;
        self.stall_max_retries = max_retries;
        self
    }

    /// Sets the simulated-time watchdog limit.
    #[must_use]
    pub fn with_time_limit(mut self, seconds: f64) -> Self {
        self.time_limit_seconds = seconds;
        self
    }

    /// Derates a seeded pseudo-random `fraction` of the mesh's directed
    /// links to `derate` of nominal bandwidth.
    ///
    /// Links are ranked by a seeded hash of their identity and the top
    /// `ceil(fraction * total)` are taken, so the same seed selects the
    /// same links no matter how the caller iterates.
    #[must_use]
    pub fn with_derated_link_fraction(mut self, mesh: &DeviceMesh, fraction: f64, derate: f64) -> Self {
        let mut links = all_links(mesh);
        let n = links.len();
        let take = ((fraction.clamp(0.0, 1.0) * n as f64).ceil() as usize).min(n);
        links.sort_by_key(|l| (mix64(self.seed ^ link_word(*l)), *l));
        for link in links.into_iter().take(take) {
            self.link_derates.push(LinkDerate { link, derate });
        }
        self
    }

    /// Checks the spec against a mesh: device ids and axes in range,
    /// derates in `(0, 1]`, slowdowns `>= 1`, probabilities in `[0, 1]`,
    /// nonnegative durations, a stall retry budget of at most 64.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency.
    pub fn validate(&self, mesh: &DeviceMesh) -> Result<(), String> {
        let devices = mesh.num_devices() as u32;
        let rank = mesh.rank();
        let check_link = |l: &LinkId| -> Result<(), String> {
            if l.device >= devices {
                return Err(format!("link device {} out of range (mesh has {devices})", l.device));
            }
            if l.axis >= rank {
                return Err(format!("link axis {} out of range (mesh rank {rank})", l.axis));
            }
            Ok(())
        };
        for d in &self.link_derates {
            check_link(&d.link)?;
            if !(d.derate > 0.0 && d.derate <= 1.0) {
                return Err(format!("link derate {} outside (0, 1]", d.derate));
            }
        }
        for l in &self.down_links {
            check_link(l)?;
        }
        for s in &self.stragglers {
            if s.device >= devices {
                return Err(format!("straggler device {} out of range (mesh has {devices})", s.device));
            }
            if s.slowdown.is_nan() || s.slowdown < 1.0 {
                return Err(format!("straggler slowdown {} below 1.0", s.slowdown));
            }
        }
        if !(0.0..=1.0).contains(&self.stall_probability) {
            return Err(format!("stall probability {} outside [0, 1]", self.stall_probability));
        }
        if self.stall_max_retries > MAX_STALL_RETRIES {
            return Err(format!(
                "stall retry budget {} above {MAX_STALL_RETRIES}",
                self.stall_max_retries
            ));
        }
        if self.jitter_seconds.is_nan() || self.jitter_seconds < 0.0 {
            return Err(format!("jitter amplitude {} is negative or NaN", self.jitter_seconds));
        }
        if self.stall_seconds.is_nan() || self.stall_seconds < 0.0 {
            return Err(format!("stall backoff {} is negative or NaN", self.stall_seconds));
        }
        if self.time_limit_seconds.is_nan() || self.time_limit_seconds < 0.0 {
            return Err(format!("time limit {} is negative or NaN", self.time_limit_seconds));
        }
        Ok(())
    }

    /// Stable content hash of the spec, mixed into artifact-cache keys
    /// so compilations under different fault models never collide.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = StableHasher::new("overlap-faultspec-v1");
        h.write_u64(self.seed);
        h.write_usize(self.link_derates.len());
        for d in &self.link_derates {
            hash_link(&mut h, d.link);
            h.write_f64(d.derate);
        }
        h.write_usize(self.down_links.len());
        for l in &self.down_links {
            hash_link(&mut h, *l);
        }
        h.write_usize(self.stragglers.len());
        for s in &self.stragglers {
            h.write_u32(s.device);
            h.write_f64(s.slowdown);
        }
        h.write_f64(self.jitter_seconds);
        h.write_f64(self.stall_probability);
        h.write_f64(self.stall_seconds);
        h.write_u32(self.stall_max_retries);
        h.write_f64(self.time_limit_seconds);
        h.finish()
    }
}

fn hash_link(h: &mut StableHasher, l: LinkId) {
    h.write_u32(l.device);
    h.write_usize(l.axis);
    h.write_bool(l.forward);
}

/// Every directed link of the mesh, in deterministic (device, axis,
/// direction) order. Axes of size 1 have no links.
#[must_use]
pub fn all_links(mesh: &DeviceMesh) -> Vec<LinkId> {
    let mut links = Vec::new();
    for device in 0..mesh.num_devices() as u32 {
        for axis in 0..mesh.rank() {
            if mesh.shape()[axis] < 2 {
                continue;
            }
            links.push(LinkId { device, axis, forward: true });
            links.push(LinkId { device, axis, forward: false });
        }
    }
    links
}

/// Stateless 64-bit mixer (xorshift64* finalizer) behind every seeded
/// draw. Counter-based: callers hash the seed together with the event
/// identity instead of advancing a shared stream, which keeps draws
/// independent of evaluation order.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    // Avoid the xorshift fixed point at zero.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Maps mixed bits to a uniform `f64` in `[0, 1)` using the top 53 bits.
#[must_use]
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn link_word(l: LinkId) -> u64 {
    (u64::from(l.device) << 16) ^ ((l.axis as u64) << 1) ^ u64::from(l.forward)
}

json_record!(LinkId { device, axis, forward });

json_record!(LinkDerate { link, derate });

json_record!(Straggler { device, slowdown });

// Every member is optional so hand-written specs stay terse; an absent
// one means "no faults of that kind".
json_record!(FaultSpec {
    seed [absent = FaultSpec::default().seed],
    link_derates [absent = FaultSpec::default().link_derates],
    down_links [absent = FaultSpec::default().down_links],
    stragglers [absent = FaultSpec::default().stragglers],
    jitter_seconds [absent = FaultSpec::default().jitter_seconds],
    stall_probability [absent = FaultSpec::default().stall_probability],
    stall_seconds [absent = FaultSpec::default().stall_seconds],
    stall_max_retries [absent = FaultSpec::default().stall_max_retries],
    time_limit_seconds [absent = FaultSpec::default().time_limit_seconds],
});

#[cfg(test)]
mod tests {
    use overlap_json::{FromJson, Json, ToJson};

    use super::*;

    fn link(device: u32, axis: usize, forward: bool) -> LinkId {
        LinkId { device, axis, forward }
    }

    #[test]
    fn default_is_noop_with_neutral_semantics() {
        let spec = FaultSpec::default();
        assert!(spec.is_noop());
        assert!(spec.validate(&DeviceMesh::ring(8)).is_ok());
        // Seeding alone does not make the spec inject anything.
        assert!(FaultSpec::seeded(42).is_noop());
    }

    #[test]
    fn fingerprint_separates_every_knob() {
        let mesh = DeviceMesh::ring(8);
        let base = FaultSpec::default();
        let variants = vec![
            FaultSpec::seeded(1),
            base.clone().with_link_derate(link(0, 0, true), 0.5),
            base.clone().with_down_link(link(0, 0, true)),
            base.clone().with_straggler(3, 1.5),
            base.clone().with_jitter(1e-6),
            base.clone().with_dma_stalls(0.1, 1e-6, 3),
            base.clone().with_time_limit(1.0),
            base.clone().with_derated_link_fraction(&mesh, 0.25, 0.5),
        ];
        let mut fps = vec![base.fingerprint()];
        for v in &variants {
            fps.push(v.fingerprint());
        }
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "variants {i} and {j} collide");
            }
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let mesh = DeviceMesh::new(vec![4, 2]);
        let spec = FaultSpec::seeded(7)
            .with_link_derate(link(1, 0, false), 0.25)
            .with_down_link(link(2, 1, true))
            .with_straggler(3, 2.0)
            .with_jitter(2e-6)
            .with_dma_stalls(0.05, 5e-7, 4)
            .with_time_limit(10.0);
        assert!(spec.validate(&mesh).is_ok());
        let back = FaultSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(spec, back);
        assert_eq!(spec.fingerprint(), back.fingerprint());
    }

    #[test]
    fn sparse_json_fills_defaults() {
        let v = Json::parse(r#"{"seed": 9, "jitter_seconds": 1e-6}"#).expect("parse");
        let spec = FaultSpec::from_json(&v).expect("decode");
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.jitter_seconds, 1e-6);
        assert!(spec.link_derates.is_empty());
        assert_eq!(spec.time_limit_seconds, 0.0);
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let mesh = DeviceMesh::ring(4);
        assert!(FaultSpec::default()
            .with_straggler(9, 1.5)
            .validate(&mesh)
            .is_err());
        assert!(FaultSpec::default()
            .with_link_derate(link(0, 3, true), 0.5)
            .validate(&mesh)
            .is_err());
        assert!(FaultSpec::default()
            .with_link_derate(link(0, 0, true), 0.0)
            .validate(&mesh)
            .is_err());
        assert!(FaultSpec::default()
            .with_straggler(0, 0.5)
            .validate(&mesh)
            .is_err());
        assert!(FaultSpec::default()
            .with_dma_stalls(1.5, 0.0, 1)
            .validate(&mesh)
            .is_err());
        for retries in [MAX_STALL_RETRIES + 1, u32::MAX] {
            let err = FaultSpec::default().with_dma_stalls(1.0, 1e-9, retries).validate(&mesh);
            assert!(err.is_err_and(|e| e.contains("stall retry budget")));
        }
        assert!(FaultSpec::default()
            .with_dma_stalls(1.0, 1e-9, MAX_STALL_RETRIES)
            .validate(&mesh)
            .is_ok());
    }

    #[test]
    fn derated_fraction_is_deterministic_and_sized() {
        let mesh = DeviceMesh::new(vec![4, 4]);
        let total = all_links(&mesh).len();
        assert_eq!(total, 16 * 2 * 2);
        let a = FaultSpec::seeded(11).with_derated_link_fraction(&mesh, 0.25, 0.5);
        let b = FaultSpec::seeded(11).with_derated_link_fraction(&mesh, 0.25, 0.5);
        assert_eq!(a, b);
        assert_eq!(a.link_derates.len(), total / 4);
        let c = FaultSpec::seeded(12).with_derated_link_fraction(&mesh, 0.25, 0.5);
        assert_ne!(a.link_derates, c.link_derates, "different seeds pick different links");
    }

    #[test]
    fn mix64_is_stable_and_spreads() {
        // Pin the mixer: fault determinism across versions depends on it.
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), mix64(1));
        let u = unit_f64(mix64(123));
        assert!((0.0..1.0).contains(&u));
    }
}
