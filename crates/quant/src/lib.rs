//! Wire formats for precision-annotated collectives.
//!
//! EQuARX (see PAPERS.md) shows that a collective can trade wire *bits*
//! for bandwidth: quantize on the sending side, transfer the narrow
//! encoding, dequantize on arrival. This crate is the single source of
//! truth for that trade in the workspace:
//!
//! * [`WireFormat`] — the encoding a transfer uses on the wire:
//!   lossless passthrough, bf16 truncation, or blockwise-scaled int8;
//! * deterministic **reference kernels** ([`WireFormat::apply`] /
//!   [`WireFormat::quantize_dequantize`]) that compute exactly what a
//!   receiver observes after the quantize→transfer→dequantize round
//!   trip, used by the `overlap-numerics` SPMD interpreter so measured
//!   end-to-end error is the real thing, not a model;
//! * **wire-byte accounting** ([`WireFormat::wire_bytes`]) that the
//!   mesh/sim cost model prices transfers with, and
//!   [`WireFormat::codec_bytes_moved`] for the memory traffic the
//!   (de)quantization passes themselves add to compute;
//! * a documented, testable **error model**
//!   ([`WireFormat::per_hop_rel_error`]) the §5.5 gate uses to predict
//!   accumulated error before committing to a quantized emission, and
//!   that the proptests hold the kernels to.
//!
//! Everything here is deterministic: no RNG, no platform-dependent
//! float paths (rounding is explicit bit manipulation), so byte-for-
//! byte reproducibility of figures and cache artifacts survives the
//! precision axis.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use overlap_json::{FromJson, Json, StableHasher, ToJson};

/// Block width [`WireFormat::Int8Block`] uses when no explicit width is
/// requested: small enough that one outlier only inflates 64 elements'
/// quantization step, large enough that the 4-byte scale amortizes to
/// 1/16 byte per element.
pub const DEFAULT_INT8_BLOCK: usize = 64;

/// Widest accepted int8 block: beyond this a single outlier washes out
/// the whole tensor's resolution and the scale overhead is already
/// negligible, so larger widths are rejected by [`WireFormat::validate`]
/// rather than silently accepted.
pub const MAX_INT8_BLOCK: usize = 4096;

/// The encoding a transfer uses on the wire.
///
/// `Lossless` is the identity format: zero error, full-width bytes, and
/// — by construction everywhere this enum is threaded — byte-identical
/// behavior to a build that predates the precision axis. The other
/// formats shrink wire bytes at a documented, bounded accuracy cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireFormat {
    /// Full-width passthrough: what every transfer did before the
    /// precision axis existed. Zero error, zero codec cost.
    #[default]
    Lossless,
    /// Truncate each element to bfloat16 (8-bit exponent, 7-bit
    /// mantissa) with round-to-nearest-even. Halves f32 wire bytes.
    /// Per-element relative error ≤ 2⁻⁸ for finite normal values;
    /// infinities and NaN pass through unchanged.
    Bf16,
    /// Blockwise-scaled int8: each block of `block` consecutive
    /// elements shares one f32 scale `max_abs/127`; elements quantize
    /// to `round(x/scale)` in `[-127, 127]`. Per-element absolute error
    /// ≤ `block_max_abs/254`. Blocks containing a non-finite value pass
    /// through lossless (the §5.4.3 pad join uses -inf sentinels that
    /// must survive the wire exactly).
    Int8Block {
        /// Elements sharing one scale; must be in `1..=MAX_INT8_BLOCK`.
        block: usize,
    },
}

impl WireFormat {
    /// The int8 format with the default block width.
    #[must_use]
    pub fn int8() -> WireFormat {
        WireFormat::Int8Block { block: DEFAULT_INT8_BLOCK }
    }

    /// Whether this is the identity format.
    #[must_use]
    pub fn is_lossless(&self) -> bool {
        matches!(self, WireFormat::Lossless)
    }

    /// Rejects out-of-range parameters with a message naming the
    /// offending field and value (the strategy validator surfaces this
    /// verbatim to `overlapc --strategy` users).
    ///
    /// # Errors
    ///
    /// Returns a message when the int8 block width is 0 or exceeds
    /// [`MAX_INT8_BLOCK`].
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            WireFormat::Int8Block { block: 0 } => {
                Err("wire int8 block width must be at least 1 (got 0)".into())
            }
            WireFormat::Int8Block { block } if block > MAX_INT8_BLOCK => Err(format!(
                "wire int8 block width must be at most {MAX_INT8_BLOCK} (got {block})"
            )),
            _ => Ok(()),
        }
    }

    /// Bytes this format puts on the wire for `elements` values stored
    /// at `elem_bytes` each. Lossless is exact; bf16 never widens a
    /// storage type already at or below 2 bytes; int8 pays 1 byte per
    /// element plus a 4-byte f32 scale per (possibly partial) block.
    #[must_use]
    pub fn wire_bytes(&self, elements: usize, elem_bytes: usize) -> usize {
        match *self {
            WireFormat::Lossless => elements * elem_bytes,
            WireFormat::Bf16 => elements * elem_bytes.min(2),
            WireFormat::Int8Block { block } => {
                let b = block.max(1);
                elements + elements.div_ceil(b) * 4
            }
        }
    }

    /// Memory traffic the quantize pass (sender) plus the dequantize
    /// pass (receiver) add to the compute streams, in bytes: each side
    /// streams the full-width payload once and the wire encoding once.
    /// Zero for lossless — the identity codec runs no pass at all.
    #[must_use]
    pub fn codec_bytes_moved(&self, elements: usize, elem_bytes: usize) -> usize {
        if self.is_lossless() {
            return 0;
        }
        2 * (elements * elem_bytes + self.wire_bytes(elements, elem_bytes))
    }

    /// Documented per-hop relative error bound: after one
    /// quantize→dequantize round trip, each element differs from its
    /// input by at most this fraction of the relevant magnitude (the
    /// element itself for bf16, the block max for int8). The §5.5 gate
    /// multiplies this by the number of sequential quantized hops to
    /// bound accumulated error before emission; the proptests hold
    /// [`WireFormat::apply`] to exactly this bound.
    #[must_use]
    pub fn per_hop_rel_error(&self) -> f64 {
        match *self {
            WireFormat::Lossless => 0.0,
            // 1 implicit + 7 explicit mantissa bits, round to nearest:
            // half an ulp is 2^-8 of the value.
            WireFormat::Bf16 => 1.0 / 256.0,
            // Step is max_abs/127, round-half error is step/2.
            WireFormat::Int8Block { .. } => 1.0 / 254.0,
        }
    }

    /// Predicted relative error after `encodes` independent quantization
    /// events: one per circulated shard for an AllGather (re-encoding a
    /// shard already on the wire grid is exact, so hops beyond the first
    /// add nothing), one per summed contribution for a ReduceScatter or
    /// AllReduce. The numerics harness measures the realized error
    /// against this bound; the pipeline's error budget gates on it.
    #[must_use]
    pub fn predicted_rel_error(&self, encodes: usize) -> f64 {
        self.per_hop_rel_error() * encodes as f64
    }

    /// Applies the quantize→dequantize round trip in place: `data`
    /// becomes exactly what a receiver observes after the wire.
    pub fn apply(&self, data: &mut [f64]) {
        match *self {
            WireFormat::Lossless => {}
            WireFormat::Bf16 => {
                for x in data {
                    *x = bf16_round_trip(*x);
                }
            }
            WireFormat::Int8Block { block } => {
                let b = block.max(1);
                for chunk in data.chunks_mut(b) {
                    int8_block_round_trip(chunk);
                }
            }
        }
    }

    /// [`WireFormat::apply`] on a copy.
    #[must_use]
    pub fn quantize_dequantize(&self, data: &[f64]) -> Vec<f64> {
        let mut out = data.to_vec();
        self.apply(&mut out);
        out
    }

    /// Short human-readable form: `lossless`, `bf16`, `int8x64`.
    #[must_use]
    pub fn describe(&self) -> String {
        match *self {
            WireFormat::Lossless => "lossless".into(),
            WireFormat::Bf16 => "bf16".into(),
            WireFormat::Int8Block { block } => format!("int8x{block}"),
        }
    }

    /// Parses the [`WireFormat::describe`] form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unrecognized text.
    pub fn parse(text: &str) -> Result<WireFormat, String> {
        match text {
            "lossless" => Ok(WireFormat::Lossless),
            "bf16" => Ok(WireFormat::Bf16),
            "int8" => Ok(WireFormat::int8()),
            other => match other.strip_prefix("int8x") {
                Some(width) => match width.parse::<usize>() {
                    Ok(block) => {
                        let f = WireFormat::Int8Block { block };
                        f.validate()?;
                        Ok(f)
                    }
                    Err(_) => Err(format!("bad int8 block width {width:?} in {other:?}")),
                },
                None => Err(format!(
                    "unknown wire format {other:?} (expected lossless, bf16 or int8[xN])"
                )),
            },
        }
    }

    /// Hashes the format into a fingerprint. Callers follow the
    /// workspace's hash-only-when-non-default convention — a lossless
    /// wire is usually *not* written at all so historical fingerprints
    /// survive — but the encoding itself covers every variant, lossless
    /// included, for contexts that always write it.
    pub fn write_to(&self, h: &mut StableHasher) {
        match *self {
            WireFormat::Lossless => h.write_str("wire-lossless"),
            WireFormat::Bf16 => h.write_str("wire-bf16"),
            WireFormat::Int8Block { block } => {
                h.write_str("wire-int8");
                h.write_usize(block);
            }
        }
    }
}

impl std::fmt::Display for WireFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Hand-written: externally tagged — unit variants as bare strings, the
/// int8 variant as `{"Int8Block":{"block":N}}`.
impl ToJson for WireFormat {
    fn to_json(&self) -> Json {
        match *self {
            WireFormat::Lossless => Json::from("Lossless"),
            WireFormat::Bf16 => Json::from("Bf16"),
            WireFormat::Int8Block { block } => Json::obj()
                .with("Int8Block", Json::obj().with("block", block as u64)),
        }
    }
}

impl FromJson for WireFormat {
    fn from_json(v: &Json) -> Result<WireFormat, String> {
        if let Some(name) = v.as_str() {
            return match name {
                "Lossless" => Ok(WireFormat::Lossless),
                "Bf16" => Ok(WireFormat::Bf16),
                other => Err(format!("unknown wire format {other:?}")),
            };
        }
        match v.get("Int8Block") {
            Some(payload) => Ok(WireFormat::Int8Block { block: payload.decode_field("block")? }),
            None => Err(format!("expected wire format, got {v}")),
        }
    }
}

/// One f64 through the bf16 wire: narrow to f32 (hardware rounding,
/// nearest-even), then round the f32 to bfloat16 by explicit
/// round-to-nearest-even on bit 16, then widen back. Non-finite values
/// survive unchanged (bf16 shares f32's exponent range).
#[must_use]
fn bf16_round_trip(x: f64) -> f64 {
    let f = x as f32;
    if !f.is_finite() {
        return f64::from(f);
    }
    let bits = f.to_bits();
    // Round to nearest, ties to even, on the low 16 bits.
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1));
    f64::from(f32::from_bits(rounded & 0xFFFF_0000))
}

/// One block through the int8 wire: shared f32 scale `max_abs/127`,
/// round-half-away-from-zero to an integer step in `[-127, 127]`.
/// All-zero blocks stay zero; blocks containing a non-finite value pass
/// through unchanged (exactly like the wire sending them lossless).
fn int8_block_round_trip(chunk: &mut [f64]) {
    let mut max_abs = 0.0f64;
    for &x in chunk.iter() {
        if !x.is_finite() {
            return;
        }
        max_abs = max_abs.max(x.abs());
    }
    if max_abs == 0.0 {
        return;
    }
    // The scale travels as f32 (4 wire bytes), so quantize *and*
    // dequantize use the f32-rounded value, like a real receiver.
    let scale = f64::from((max_abs / 127.0) as f32);
    if scale == 0.0 {
        // max_abs underflowed f32: the whole block is denormal-tiny;
        // transmit as zeros (error still far under the documented
        // bound, which is relative to max_abs).
        for x in chunk.iter_mut() {
            *x = 0.0;
        }
        return;
    }
    for x in chunk.iter_mut() {
        let q = (*x / scale).round().clamp(-127.0, 127.0);
        *x = q * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_is_default_and_identity() {
        assert_eq!(WireFormat::default(), WireFormat::Lossless);
        let data = vec![1.0, -2.5, f64::NEG_INFINITY, 0.0];
        assert_eq!(WireFormat::Lossless.quantize_dequantize(&data), data);
        assert_eq!(WireFormat::Lossless.wire_bytes(100, 4), 400);
        assert_eq!(WireFormat::Lossless.codec_bytes_moved(100, 4), 0);
        assert_eq!(WireFormat::Lossless.per_hop_rel_error(), 0.0);
    }

    #[test]
    fn wire_bytes_shrink_as_documented() {
        // f32 storage: bf16 halves, int8 quarters (plus scales).
        assert_eq!(WireFormat::Bf16.wire_bytes(128, 4), 256);
        assert_eq!(WireFormat::int8().wire_bytes(128, 4), 128 + 2 * 4);
        // bf16 storage: bf16 wire is free, int8 still shrinks.
        assert_eq!(WireFormat::Bf16.wire_bytes(128, 2), 256);
        assert_eq!(WireFormat::int8().wire_bytes(128, 2), 136);
        // Partial blocks still pay a whole scale.
        assert_eq!(WireFormat::Int8Block { block: 64 }.wire_bytes(65, 4), 65 + 2 * 4);
    }

    #[test]
    fn bf16_error_stays_within_bound() {
        let vals = [1.0, -1.0, 2.71875, 1e-3, 65504.0, 1.0 / 3.0, -7.25e8, 2.0f64.powi(-30)];
        for &x in &vals {
            let y = bf16_round_trip(x);
            assert!(
                (y - x).abs() <= x.abs() * WireFormat::Bf16.per_hop_rel_error(),
                "bf16({x}) = {y} outside bound"
            );
        }
        // Exactly representable values round-trip exactly.
        for &x in &[0.0, 1.0, -2.0, 0.5, 384.0] {
            assert_eq!(bf16_round_trip(x), x);
        }
        // Non-finite passthrough.
        assert_eq!(bf16_round_trip(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert!(bf16_round_trip(f64::NAN).is_nan());
    }

    #[test]
    fn bf16_rounds_to_nearest_even() {
        // 1 + 2^-8 sits exactly between bf16(1.0) and bf16(1 + 2^-7):
        // nearest-even picks the even mantissa (1.0).
        assert_eq!(bf16_round_trip(1.0 + 1.0 / 256.0), 1.0);
        // 1 + 3*2^-8 ties toward 1 + 2^-6's even neighbor 1 + 2^-7... the
        // midpoint above an odd mantissa rounds *up* to the even one.
        assert_eq!(bf16_round_trip(1.0 + 3.0 / 256.0), 1.0 + 4.0 / 256.0);
    }

    #[test]
    fn int8_error_stays_within_block_bound() {
        let data: Vec<f64> = (0..130).map(|i| ((i * 37 % 101) as f64 - 50.0) * 0.3).collect();
        let f = WireFormat::Int8Block { block: 32 };
        let out = f.quantize_dequantize(&data);
        for (chunk_in, chunk_out) in data.chunks(32).zip(out.chunks(32)) {
            let max_abs = chunk_in.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
            let bound = max_abs * f.per_hop_rel_error() + 1e-12;
            for (&x, &y) in chunk_in.iter().zip(chunk_out) {
                assert!((y - x).abs() <= bound, "int8({x}) = {y} outside {bound}");
            }
        }
    }

    #[test]
    fn int8_preserves_zero_blocks_and_nonfinite_blocks() {
        let f = WireFormat::Int8Block { block: 4 };
        assert_eq!(f.quantize_dequantize(&[0.0; 8]), vec![0.0; 8]);
        // The §5.4.3 pad join's -inf sentinels survive the wire exactly.
        let with_inf = vec![1.0, f64::NEG_INFINITY, 3.0, 4.0];
        assert_eq!(f.quantize_dequantize(&with_inf), with_inf);
    }

    #[test]
    fn int8_is_idempotent() {
        // A second pass over already-quantized data is a no-op: the
        // block max is a representable level, so the f32 scale and every
        // quantized level reproduce themselves.
        let data: Vec<f64> = (0..64).map(|i| (i as f64 - 31.0) * 0.17).collect();
        let f = WireFormat::int8();
        let once = f.quantize_dequantize(&data);
        assert_eq!(f.quantize_dequantize(&once), once);
    }

    #[test]
    fn describe_parse_round_trips() {
        for f in [
            WireFormat::Lossless,
            WireFormat::Bf16,
            WireFormat::int8(),
            WireFormat::Int8Block { block: 7 },
        ] {
            assert_eq!(WireFormat::parse(&f.describe()), Ok(f));
        }
        assert_eq!(WireFormat::parse("int8"), Ok(WireFormat::int8()));
        assert!(WireFormat::parse("fp4").is_err());
        assert!(WireFormat::parse("int8x").is_err());
        assert!(WireFormat::parse("int8x0").is_err());
    }

    #[test]
    fn validate_names_field_and_value() {
        let e = WireFormat::Int8Block { block: 0 }.validate().unwrap_err();
        assert!(e.contains("block width") && e.contains("got 0"), "{e}");
        let e = WireFormat::Int8Block { block: 99999 }.validate().unwrap_err();
        assert!(e.contains("4096") && e.contains("99999"), "{e}");
        assert_eq!(WireFormat::Bf16.validate(), Ok(()));
    }

    #[test]
    fn json_round_trips_mirror_serde_layout() {
        for f in [WireFormat::Lossless, WireFormat::Bf16, WireFormat::Int8Block { block: 9 }] {
            let j = f.to_json();
            assert_eq!(WireFormat::from_json(&j), Ok(f));
        }
        assert_eq!(WireFormat::Lossless.to_json().to_string(), "\"Lossless\"");
        assert_eq!(
            WireFormat::Int8Block { block: 64 }.to_json().to_string(),
            "{\"Int8Block\":{\"block\":64}}"
        );
        assert!(WireFormat::from_json(&Json::from("Int4")).is_err());
    }

    #[test]
    fn fingerprints_distinguish_every_variant() {
        let fp = |f: WireFormat| {
            let mut h = StableHasher::new("test-wire");
            f.write_to(&mut h);
            h.finish()
        };
        let all = [
            fp(WireFormat::Lossless),
            fp(WireFormat::Bf16),
            fp(WireFormat::Int8Block { block: 32 }),
            fp(WireFormat::Int8Block { block: 64 }),
        ];
        for i in 0..all.len() {
            for j in 0..i {
                assert_ne!(all[i], all[j], "variants {i} and {j} collide");
            }
        }
    }

    proptest::proptest! {
        /// The documented error model holds on arbitrary finite data:
        /// after one quantize→dequantize round trip, every element is
        /// within `per_hop_rel_error()` of the original, relative to the
        /// bf16 element's own magnitude / the int8 block's max magnitude.
        #[test]
        fn round_trip_error_within_documented_bound(
            data in proptest::collection::vec(-1e6f64..1e6, 1..200),
            block in 1usize..=64,
            use_bf16 in proptest::prelude::any::<bool>(),
        ) {
            let f = if use_bf16 { WireFormat::Bf16 } else { WireFormat::Int8Block { block } };
            let out = f.quantize_dequantize(&data);
            let rel = f.per_hop_rel_error();
            match f {
                WireFormat::Bf16 => {
                    for (&x, &y) in data.iter().zip(&out) {
                        proptest::prop_assert!(
                            (y - x).abs() <= x.abs() * rel,
                            "bf16({x}) = {y} outside its relative bound"
                        );
                    }
                }
                WireFormat::Int8Block { block } => {
                    for (ins, outs) in data.chunks(block).zip(out.chunks(block)) {
                        let max_abs = ins.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
                        // Tiny absolute slack for the f32-rounded scale.
                        let bound = max_abs * rel + max_abs * 1e-7;
                        for (&x, &y) in ins.iter().zip(outs) {
                            proptest::prop_assert!(
                                (y - x).abs() <= bound,
                                "int8x{block}({x}) = {y} outside block bound {bound}"
                            );
                        }
                    }
                }
                WireFormat::Lossless => unreachable!(),
            }
            // Re-encoding wire-grid data is exact — the property the
            // shard-circulating AllGather loop relies on to quantize
            // once instead of once per hop.
            proptest::prop_assert_eq!(f.quantize_dequantize(&out), out);
        }
    }
}
