//! First-class decomposition strategies (ROADMAP item 3).
//!
//! The paper applies one fixed strategy everywhere: loop decomposition
//! with unroll degree 2, bidirectional rings, plain concatenation,
//! overlap-aware fusion. [`StrategySpec`] promotes every one of those
//! hard-coded knobs into a searchable, serializable, fingerprint-hashed
//! configuration — per-pattern chunk width, unrolling, ring direction,
//! pad-vs-concat, fusion aggressiveness, and a 1D/2D partitioning hint —
//! so the `overlap-autotune` driver can enumerate the space and let the
//! cached simulator pick the winner per model × machine × fault spec.
//!
//! [`StrategySpec::paper_default`] lowers bit-exactly to the options the
//! pipeline used before strategies existed; artifacts compiled under it
//! are byte-identical to the historical figures.

use overlap_hlo::WireFormat;
use overlap_json::{Fingerprint, StableHasher};

use crate::fusion::FusionOptions;

/// Which way shards (or accumulators) circulate around the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RingDirection {
    /// One direction only (Algorithm 1's single ring).
    Unidirectional,
    /// Both directions at once (§5.4.2): half the shards each way,
    /// doubling usable link bandwidth. Requires an even group; odd
    /// groups fall back to unidirectional (recorded in the
    /// [`DecomposeSummary`](crate::DecomposeSummary)).
    #[default]
    Bidirectional,
}

/// How hard the §5.4.3 fusion pass works.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionAggressiveness {
    /// No fusion pass at all.
    Off,
    /// Fuse, but without the overlap-aware grouping heuristic.
    Conservative,
    /// The paper's overlap-aware fusion (the default).
    #[default]
    OverlapAware,
}

/// A 1D-vs-2D partitioning hint for the layers *above* the pipeline.
///
/// The pipeline itself consumes an already-partitioned module, so this
/// knob cannot change the rewrite — it is honored by the model-building
/// layer (`overlap-models`) when the hyperparameters divide both ways,
/// and it is hashed here so strategies that differ only in partitioning
/// never share artifact-cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionHint {
    /// Keep the model's published partitioning.
    #[default]
    Auto,
    /// Prefer one partitioned dimension over a ring (Fig. 2).
    OneD,
    /// Prefer two partitioned dimensions over a 2-D mesh (Fig. 3).
    TwoD,
}

/// Per-pattern decomposition knobs (applied to `AllGather → Einsum` and
/// `Einsum → ReduceScatter` pairs independently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternStrategy {
    /// Number of consecutive ring shards joined into one wide partial
    /// einsum per loop super-step. `1` is the paper's shard-at-a-time
    /// loop. Widths `> 1` apply only to the unidirectional AllGather
    /// loop and must divide the group size; infeasible widths fall back
    /// to `1` with the reason recorded in the decompose summary.
    pub chunk: usize,
    /// Loop unrolling (§5.4.1). It drops the loop-carried aliasing
    /// copies on every loop and every group size. On a unidirectional
    /// ReduceScatter ring it also splits the accumulation into two
    /// interleaved chains; only that two-chain form needs an even group,
    /// and odd groups keep one chain and record `unroll_fallback`.
    pub unroll: bool,
    /// Ring direction (§5.4.2).
    pub ring: RingDirection,
    /// Emit shard joins as `Max(PadLow, PadHigh)` instead of
    /// `Concatenate` (§5.4.3's fusion-friendly form).
    pub pad_max_concat: bool,
    /// Wire encoding for the pattern's collective traffic (the precision
    /// axis): decomposed rings annotate their `CollectivePermute` steps,
    /// kept collectives carry it directly. `Lossless` (the default)
    /// reproduces the paper's exact arithmetic and hashes/describes as
    /// the historical knob-free strategy.
    pub wire: WireFormat,
}

impl Default for PatternStrategy {
    fn default() -> Self {
        PatternStrategy {
            chunk: 1,
            unroll: true,
            ring: RingDirection::Bidirectional,
            pad_max_concat: false,
            wire: WireFormat::Lossless,
        }
    }
}

impl PatternStrategy {
    fn write_to(&self, h: &mut StableHasher) {
        h.write_usize(self.chunk);
        h.write_bool(self.unroll);
        h.write_str(match self.ring {
            RingDirection::Unidirectional => "uni",
            RingDirection::Bidirectional => "bidi",
        });
        h.write_bool(self.pad_max_concat);
        // Hashed only when quantized: lossless strategies must keep the
        // exact pre-precision fingerprints so every historical
        // artifact-cache key and committed figure stays byte-identical.
        if !self.wire.is_lossless() {
            h.write_str("wire");
            self.wire.write_to(h);
        }
    }

    /// Compact human form, e.g. `chunk=2,unroll,uni,concat` (plus a
    /// `,bf16`/`,int8x64` suffix when quantized).
    #[must_use]
    pub fn describe(&self) -> String {
        let wire = if self.wire.is_lossless() {
            String::new()
        } else {
            format!(",{}", self.wire.describe())
        };
        format!(
            "chunk={},{},{},{}{wire}",
            self.chunk,
            if self.unroll { "unroll" } else { "rolled" },
            match self.ring {
                RingDirection::Unidirectional => "uni",
                RingDirection::Bidirectional => "bidi",
            },
            if self.pad_max_concat { "padmax" } else { "concat" },
        )
    }
}

/// The full decomposition strategy: per-pattern knobs plus fusion
/// aggressiveness and the partitioning hint. This is the searchable
/// configuration the autotuner enumerates; it hangs off
/// [`OverlapOptions`](crate::OverlapOptions) and is hashed into every
/// artifact-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategySpec {
    /// Knobs for `AllGather → Einsum` loops.
    pub all_gather: PatternStrategy,
    /// Knobs for `Einsum → ReduceScatter` loops.
    pub reduce_scatter: PatternStrategy,
    /// Fusion pass aggressiveness (§5.4.3).
    pub fusion: FusionAggressiveness,
    /// 1D-vs-2D partitioning hint for the model-building layer.
    pub partitioning: PartitionHint,
    /// Cross-layer scheduling window, in layers. The schedulers may
    /// interleave instructions of up to this many consecutive layers of
    /// a layer-tagged module (`L<k>.`-prefixed names, as built by
    /// `overlap-models`' stacked window modules): collectives issued in
    /// layer `k+1` can overlap compute of layer `k`, and vice versa in
    /// the bottom-up pass. `1` keeps strict per-layer barriers and is
    /// the default; on modules without layer tags (every single-layer
    /// figure module) the knob is inert. Only values `> 1` are hashed
    /// into the fingerprint, so `window_layers = 1` artifacts stay
    /// byte-identical to pre-window ones.
    pub window_layers: usize,
}

impl Default for StrategySpec {
    /// Paper-default decomposition knobs but **no fusion pass** — the
    /// historical `OverlapOptions::default()` semantics (its `fusion`
    /// field was an `Option` defaulting to `None`).
    fn default() -> Self {
        StrategySpec { fusion: FusionAggressiveness::Off, ..Self::paper_default() }
    }
}

impl StrategySpec {
    /// The paper's production strategy: bidirectional unrolled rings,
    /// shard-at-a-time loops, plain concatenation, overlap-aware fusion.
    #[must_use]
    pub fn paper_default() -> Self {
        StrategySpec {
            all_gather: PatternStrategy::default(),
            reduce_scatter: PatternStrategy::default(),
            fusion: FusionAggressiveness::OverlapAware,
            partitioning: PartitionHint::Auto,
            window_layers: 1,
        }
    }

    /// Lowers the fusion aggressiveness to the fusion pass's options
    /// (`None` skips the pass).
    #[must_use]
    pub fn fusion_options(&self) -> Option<FusionOptions> {
        match self.fusion {
            FusionAggressiveness::Off => None,
            FusionAggressiveness::Conservative => Some(FusionOptions { overlap_aware: false }),
            FusionAggressiveness::OverlapAware => Some(FusionOptions { overlap_aware: true }),
        }
    }

    /// Checks the strategy for statically-nonsensical combinations.
    /// Per-module infeasibilities (odd group sizes, non-dividing chunk
    /// widths) are *not* errors — the decompose pass falls back and
    /// records the reason — but widths that can never work are rejected
    /// here so strategy files fail loudly.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (what, p) in [("all_gather", &self.all_gather), ("reduce_scatter", &self.reduce_scatter)]
        {
            if p.chunk == 0 {
                return Err(format!("{what}.chunk: width must be at least 1 (got 0)"));
            }
            if p.chunk > 64 {
                return Err(format!(
                    "{what}.chunk: width {} is unreasonably large (max 64)",
                    p.chunk
                ));
            }
            if let Err(e) = p.wire.validate() {
                return Err(format!("{what}.wire: {e}"));
            }
        }
        if self.reduce_scatter.chunk > 1 {
            return Err(
                "reduce_scatter: chunk widths > 1 are not implementable — each partial \
                 feeds a traveling accumulator, so the chain cannot batch shards"
                    .to_string(),
            );
        }
        if self.all_gather.chunk > 1 && self.all_gather.ring == RingDirection::Bidirectional {
            return Err(
                "all_gather: chunk widths > 1 require a unidirectional ring (the \
                 bidirectional loop already joins two shards per step)"
                    .to_string(),
            );
        }
        if self.window_layers == 0 {
            return Err("window_layers: must be at least 1 (got 0)".to_string());
        }
        if self.window_layers > 8 {
            return Err(format!(
                "window_layers {} is unreasonably large (max 8): the stacked window \
                 modules keep at most a handful of layers in flight",
                self.window_layers
            ));
        }
        Ok(())
    }

    /// A stable fingerprint over every knob. Folded into
    /// [`OverlapOptions::fingerprint`](crate::OverlapOptions::fingerprint)
    /// and hence into every artifact-cache key: two strategies that
    /// differ in any field — including per-pattern differences and the
    /// partitioning hint — never share cached artifacts.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = StableHasher::new("overlap-strategy-v1");
        self.all_gather.write_to(&mut h);
        self.reduce_scatter.write_to(&mut h);
        h.write_str(match self.fusion {
            FusionAggressiveness::Off => "off",
            FusionAggressiveness::Conservative => "conservative",
            FusionAggressiveness::OverlapAware => "overlap-aware",
        });
        h.write_str(match self.partitioning {
            PartitionHint::Auto => "auto",
            PartitionHint::OneD => "1d",
            PartitionHint::TwoD => "2d",
        });
        // Hashed only when widened: `window_layers = 1` strategies must
        // keep the exact pre-window fingerprints so every historical
        // artifact-cache key and committed figure stays byte-identical.
        if self.window_layers > 1 {
            h.write_str("window");
            h.write_usize(self.window_layers);
        }
        h.finish()
    }

    /// Compact human form for banners and leaderboards.
    #[must_use]
    pub fn describe(&self) -> String {
        let fusion = match self.fusion {
            FusionAggressiveness::Off => "off",
            FusionAggressiveness::Conservative => "conservative",
            FusionAggressiveness::OverlapAware => "overlap-aware",
        };
        let part = match self.partitioning {
            PartitionHint::Auto => String::new(),
            PartitionHint::OneD => " part=1d".to_string(),
            PartitionHint::TwoD => " part=2d".to_string(),
        };
        let window = if self.window_layers > 1 {
            format!(" window={}", self.window_layers)
        } else {
            String::new()
        };
        format!(
            "ag[{}] rs[{}] fusion={fusion}{part}{window}",
            self.all_gather.describe(),
            self.reduce_scatter.describe(),
        )
    }

    // Builder helpers (applied to both pattern kinds) so grids and tests
    // read declaratively.

    /// Sets the ring direction for both pattern kinds.
    #[must_use]
    pub fn with_ring(mut self, ring: RingDirection) -> Self {
        self.all_gather.ring = ring;
        self.reduce_scatter.ring = ring;
        self
    }

    /// Sets unrolling for both pattern kinds.
    #[must_use]
    pub fn with_unroll(mut self, unroll: bool) -> Self {
        self.all_gather.unroll = unroll;
        self.reduce_scatter.unroll = unroll;
        self
    }

    /// Sets the pad-max-concat rewrite for both pattern kinds.
    #[must_use]
    pub fn with_pad_max_concat(mut self, pad_max_concat: bool) -> Self {
        self.all_gather.pad_max_concat = pad_max_concat;
        self.reduce_scatter.pad_max_concat = pad_max_concat;
        self
    }

    /// Sets the AllGather chunk width (ReduceScatter chains cannot
    /// chunk; see [`StrategySpec::validate`]).
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.all_gather.chunk = chunk;
        self
    }

    /// Sets the fusion aggressiveness.
    #[must_use]
    pub fn with_fusion(mut self, fusion: FusionAggressiveness) -> Self {
        self.fusion = fusion;
        self
    }

    /// Sets the cross-layer scheduling window (in layers).
    #[must_use]
    pub fn with_window_layers(mut self, window_layers: usize) -> Self {
        self.window_layers = window_layers;
        self
    }

    /// Sets the wire encoding for both pattern kinds (the precision axis).
    #[must_use]
    pub fn with_wire(mut self, wire: WireFormat) -> Self {
        self.all_gather.wire = wire;
        self.reduce_scatter.wire = wire;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_the_historical_strategy() {
        let s = StrategySpec::paper_default();
        let want = PatternStrategy {
            chunk: 1,
            unroll: true,
            ring: RingDirection::Bidirectional,
            pad_max_concat: false,
            wire: WireFormat::Lossless,
        };
        assert_eq!(s.all_gather, want);
        assert_eq!(s.reduce_scatter, want);
        assert_eq!(s.fusion_options(), Some(FusionOptions { overlap_aware: true }));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn default_disables_fusion_like_the_old_option_default() {
        let s = StrategySpec::default();
        assert_eq!(s.fusion_options(), None);
        assert_eq!(s.all_gather, StrategySpec::paper_default().all_gather);
    }

    #[test]
    fn validate_rejects_impossible_widths() {
        assert!(StrategySpec::paper_default().with_chunk(0).validate().is_err());
        assert!(StrategySpec::paper_default().with_chunk(65).validate().is_err());
        // Chunking the bidirectional loop is a contradiction.
        assert!(StrategySpec::paper_default().with_chunk(2).validate().is_err());
        assert!(StrategySpec::paper_default()
            .with_ring(RingDirection::Unidirectional)
            .with_chunk(2)
            .validate()
            .is_ok());
        let mut rs_chunked = StrategySpec::paper_default();
        rs_chunked.reduce_scatter.chunk = 2;
        assert!(rs_chunked.validate().is_err());
        assert!(StrategySpec::paper_default().with_window_layers(0).validate().is_err());
        assert!(StrategySpec::paper_default().with_window_layers(9).validate().is_err());
        assert!(StrategySpec::paper_default().with_window_layers(4).validate().is_ok());
    }

    #[test]
    fn validate_names_the_offending_field_and_value() {
        let e = StrategySpec::paper_default().with_chunk(0).validate().unwrap_err();
        assert!(e.contains("all_gather.chunk") && e.contains("got 0"), "{e}");
        let e = StrategySpec::paper_default().with_chunk(65).validate().unwrap_err();
        assert!(e.contains("all_gather.chunk") && e.contains("65"), "{e}");
        let e = StrategySpec::paper_default()
            .with_wire(WireFormat::Int8Block { block: 0 })
            .validate()
            .unwrap_err();
        assert!(e.contains("all_gather.wire") && e.contains("got 0"), "{e}");
        let e = StrategySpec::paper_default().with_window_layers(0).validate().unwrap_err();
        assert!(e.contains("window_layers") && e.contains("got 0"), "{e}");
    }

    #[test]
    fn lossless_wire_is_fingerprint_and_describe_neutral() {
        // Lossless is the only encoding that existed before the precision
        // axis, so it must be indistinguishable everywhere a cache key or
        // banner is derived.
        let base = StrategySpec::paper_default();
        let explicit = base.with_wire(WireFormat::Lossless);
        assert_eq!(explicit.fingerprint(), base.fingerprint());
        assert_eq!(explicit.describe(), base.describe());
        let bf16 = base.with_wire(WireFormat::Bf16);
        let int8 = base.with_wire(WireFormat::int8());
        assert_ne!(bf16.fingerprint(), base.fingerprint());
        assert_ne!(int8.fingerprint(), base.fingerprint());
        assert_ne!(bf16.fingerprint(), int8.fingerprint());
        assert_ne!(
            int8.fingerprint(),
            base.with_wire(WireFormat::Int8Block { block: 128 }).fingerprint(),
            "distinct block widths must not collide"
        );
        assert!(bf16.describe().contains("bf16"), "{}", bf16.describe());
        assert!(int8.describe().contains("int8x64"), "{}", int8.describe());
        assert!(bf16.validate().is_ok());
    }

    #[test]
    fn window_one_is_fingerprint_and_describe_neutral() {
        // `window_layers = 1` must be indistinguishable from the
        // pre-window strategy everywhere a key or banner is derived, so
        // historical artifacts and committed figures stay byte-identical.
        let base = StrategySpec::paper_default();
        let explicit = base.with_window_layers(1);
        assert_eq!(explicit.fingerprint(), base.fingerprint());
        assert_eq!(explicit.describe(), base.describe());
        let windowed = base.with_window_layers(2);
        assert_ne!(windowed.fingerprint(), base.fingerprint());
        assert_ne!(
            windowed.fingerprint(),
            base.with_window_layers(4).fingerprint(),
            "distinct windows must not collide"
        );
        assert!(windowed.describe().contains("window=2"), "{}", windowed.describe());
    }

    #[test]
    fn fingerprint_flips_on_every_field() {
        let base = StrategySpec::paper_default();
        let variants = [
            base.with_ring(RingDirection::Unidirectional),
            base.with_unroll(false),
            base.with_pad_max_concat(true),
            base.with_ring(RingDirection::Unidirectional).with_chunk(2),
            base.with_fusion(FusionAggressiveness::Off),
            base.with_fusion(FusionAggressiveness::Conservative),
            StrategySpec { partitioning: PartitionHint::OneD, ..base },
            StrategySpec { partitioning: PartitionHint::TwoD, ..base },
            base.with_wire(WireFormat::Bf16),
            base.with_wire(WireFormat::int8()),
            // Per-pattern wire asymmetry must be visible too.
            StrategySpec {
                all_gather: PatternStrategy { wire: WireFormat::Bf16, ..PatternStrategy::default() },
                ..base
            },
            // Per-pattern asymmetry must be visible too.
            StrategySpec {
                all_gather: PatternStrategy {
                    ring: RingDirection::Unidirectional,
                    ..PatternStrategy::default()
                },
                ..base
            },
            StrategySpec {
                reduce_scatter: PatternStrategy {
                    ring: RingDirection::Unidirectional,
                    ..PatternStrategy::default()
                },
                ..base
            },
        ];
        for v in &variants {
            assert_ne!(v.fingerprint(), base.fingerprint(), "{}", v.describe());
        }
        for (i, a) in variants.iter().enumerate() {
            for b in &variants[i + 1..] {
                if a != b {
                    assert_ne!(a.fingerprint(), b.fingerprint(), "{} vs {}", a.describe(), b.describe());
                }
            }
        }
        // Stable across calls.
        assert_eq!(base.fingerprint(), StrategySpec::paper_default().fingerprint());
    }

    #[test]
    fn describe_is_compact_and_complete() {
        let s = StrategySpec::paper_default()
            .with_ring(RingDirection::Unidirectional)
            .with_chunk(4)
            .with_fusion(FusionAggressiveness::Conservative);
        let d = s.describe();
        assert!(d.contains("chunk=4"), "{d}");
        assert!(d.contains("uni"), "{d}");
        assert!(d.contains("fusion=conservative"), "{d}");
    }
}
