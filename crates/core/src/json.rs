//! JSON codecs for the pipeline's [`Compiled`] bundle.
//!
//! The artifact cache persists compiled bundles to disk through these
//! impls (see [`crate::ArtifactCache`]), and the serve protocol ships
//! options and compile records through them, so the bytes are a
//! contract (`tests/wire_golden.rs` pins them).
//!
//! Each record's layout is its `json_record!` field list below: members
//! in declaration order under the field's name, unit enums as their
//! variant name. A member is left out of the encoding only through a
//! `skip_if`/`skip_none` rule, and only where pre-existing documents
//! must keep their bytes: a lossless `wire`, `window_layers <= 1`, an
//! unset `error_budget`. `absent` members (`chunk`, a summary's fallback
//! reasons) decode leniently but are always written.
//!
//! One type is hand-written: [`PatternKind`], an externally tagged enum
//! (`{"Variant": {fields}}`), which the record shape cannot express.
//!
//! Decoding is defensive, not trusting: a decoded bundle comes from an
//! arbitrary file, so the cache re-verifies the module and re-checks
//! fingerprints before serving it (see `cache.rs`). Nothing here
//! validates cross-references like instruction ids.

use overlap_hlo::WireFormat;
use overlap_json::{json_enum, json_record, FromJson, Json, ToJson};

use crate::costgate::GateDecision;
use crate::decompose::DecomposeSummary;
use crate::fusion::FusionOptions;
use crate::pattern::{AgCase, Pattern, PatternKind};
use crate::pipeline::{FallbackRecord, OverlapOptions, SchedulerKind};
use crate::profile::{PhaseTiming, PhaseTimings};
use crate::strategy::{
    FusionAggressiveness, PartitionHint, PatternStrategy, RingDirection, StrategySpec,
};

json_enum!(AgCase { Free = "Free", Contracting = "Contracting", Batch = "Batch" });

// Hand-written: externally tagged (`{"Variant": {fields}}`).
impl ToJson for PatternKind {
    fn to_json(&self) -> Json {
        match self {
            PatternKind::AllGatherEinsum { gathered_is_lhs, case } => Json::obj()
                .with("AllGatherEinsum", json_record!(fields { gathered_is_lhs, case })),
            PatternKind::EinsumReduceScatter { sliced_is_lhs, sliced_dim } => Json::obj()
                .with("EinsumReduceScatter", json_record!(fields { sliced_is_lhs, sliced_dim })),
        }
    }
}

impl FromJson for PatternKind {
    fn from_json(v: &Json) -> Result<PatternKind, String> {
        if let Some(p) = v.get("AllGatherEinsum") {
            return Ok(json_record!(
                from p => PatternKind::AllGatherEinsum { gathered_is_lhs, case }
            ));
        }
        if let Some(p) = v.get("EinsumReduceScatter") {
            return Ok(json_record!(
                from p => PatternKind::EinsumReduceScatter { sliced_is_lhs, sliced_dim }
            ));
        }
        Err(format!("expected PatternKind, got {v}"))
    }
}

json_record!(Pattern { einsum, collective, kind });

json_record!(GateDecision {
    pattern,
    comp_t,
    comm_t,
    comm_t_ring,
    extra_t,
    comp_d,
    beneficial,
    bidirectional,
});

// `chunk` and the fallback reasons postdate the first summaries, so they
// decode leniently; the reasons are written as `null` when unset (cache
// entries pin those bytes).
json_record!(DecomposeSummary {
    einsum,
    group_size,
    partial_einsums,
    permutes,
    bidirectional,
    unrolled,
    chunk [absent = 1],
    unroll_fallback [absent = None],
    bidirectional_fallback [absent = None],
    chunk_fallback [absent = None],
});

json_record!(FallbackRecord { einsum, reason });

json_record!(FusionOptions { overlap_aware });

json_enum!(RingDirection { Unidirectional = "Unidirectional", Bidirectional = "Bidirectional" });

json_enum!(FusionAggressiveness {
    Off = "Off",
    Conservative = "Conservative",
    OverlapAware = "OverlapAware",
});

json_enum!(PartitionHint { Auto = "Auto", OneD = "OneD", TwoD = "TwoD" });

json_record!(PatternStrategy {
    chunk,
    unroll,
    ring,
    pad_max_concat,
    wire [absent = WireFormat::Lossless, skip_if = WireFormat::is_lossless],
});

json_record!(StrategySpec {
    all_gather,
    reduce_scatter,
    fusion,
    partitioning,
    window_layers [absent = 1, skip_if = |w: &usize| *w <= 1],
});

json_enum!(SchedulerKind { BottomUp = "BottomUp", TopDown = "TopDown", Original = "Original" });

json_record!(OverlapOptions {
    strategy,
    scheduler,
    disable_cost_gate,
    split_all_reduce,
    error_budget [skip_none],
});

json_record!(PhaseTiming { phase, seconds });

json_record!(PhaseTimings { phases });

#[cfg(test)]
mod tests {
    use overlap_hlo::InstrId;

    use super::*;

    fn sample_decisions() -> Vec<GateDecision> {
        vec![
            GateDecision {
                pattern: Pattern {
                    einsum: InstrId::from_json(&Json::from(3u64)).unwrap(),
                    collective: InstrId::from_json(&Json::from(2u64)).unwrap(),
                    kind: PatternKind::AllGatherEinsum {
                        gathered_is_lhs: false,
                        case: AgCase::Contracting,
                    },
                },
                comp_t: 1.25e-3,
                comm_t: 7.5e-4,
                comm_t_ring: 9.1e-4,
                extra_t: 3.0e-5,
                comp_d: 1.3e-3,
                beneficial: true,
                bidirectional: true,
            },
            GateDecision {
                pattern: Pattern {
                    einsum: InstrId::from_json(&Json::from(9u64)).unwrap(),
                    collective: InstrId::from_json(&Json::from(11u64)).unwrap(),
                    kind: PatternKind::EinsumReduceScatter {
                        sliced_is_lhs: true,
                        sliced_dim: 1,
                    },
                },
                comp_t: 0.5,
                comm_t: 0.25,
                comm_t_ring: 0.5,
                extra_t: 0.125,
                comp_d: 0.5,
                beneficial: false,
                bidirectional: false,
            },
        ]
    }

    #[test]
    fn bundle_parts_roundtrip_losslessly() {
        let decisions = sample_decisions();
        let text = decisions.to_json().to_string();
        let back = Vec::<GateDecision>::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, decisions);

        let summaries = vec![DecomposeSummary {
            einsum: "y".into(),
            group_size: 8,
            partial_einsums: 8,
            permutes: 9,
            bidirectional: true,
            unrolled: true,
            chunk: 2,
            unroll_fallback: None,
            bidirectional_fallback: Some("even group required".into()),
            chunk_fallback: None,
        }];
        let text = summaries.to_json().to_string();
        let back = Vec::<DecomposeSummary>::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, summaries);

        let mut timings = PhaseTimings::new();
        timings.record("decompose", 0.125);
        timings.record("schedule", 3.5e-2);
        let text = timings.to_json().to_string();
        let back = PhaseTimings::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, timings);
    }

    #[test]
    fn overlap_options_roundtrip_and_fingerprint_agree() {
        use crate::pipeline::OverlapOptions;
        let base = OverlapOptions::paper_default();
        let variants = [
            base,
            OverlapOptions::default(),
            OverlapOptions {
                scheduler: crate::SchedulerKind::TopDown,
                disable_cost_gate: true,
                ..base
            },
            OverlapOptions {
                strategy: StrategySpec::paper_default()
                    .with_ring(RingDirection::Unidirectional)
                    .with_unroll(false)
                    .with_pad_max_concat(true)
                    .with_chunk(4),
                scheduler: crate::SchedulerKind::Original,
                split_all_reduce: true,
                ..base
            },
        ];
        for o in variants {
            let text = o.to_json().to_string();
            let back = OverlapOptions::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, o);
            assert_eq!(back.fingerprint(), o.fingerprint());
        }
        assert!(OverlapOptions::from_json(&Json::obj()).is_err());
        let bad = base.to_json().with("scheduler", "Sideways");
        assert!(OverlapOptions::from_json(&bad).is_err());
    }

    #[test]
    fn strategy_spec_fingerprint_survives_json_roundtrip() {
        // Satellite: a StrategySpec's fingerprint must be stable across a
        // JSON round-trip (the autotuner memoizes verdicts by it), and
        // every distinct spec must decode back to an equal value.
        let specs = [
            StrategySpec::default(),
            StrategySpec::paper_default(),
            StrategySpec::paper_default()
                .with_ring(RingDirection::Unidirectional)
                .with_chunk(4),
            StrategySpec::paper_default()
                .with_fusion(FusionAggressiveness::Conservative)
                .with_pad_max_concat(true),
            StrategySpec {
                partitioning: PartitionHint::OneD,
                ..StrategySpec::paper_default()
            },
            StrategySpec::paper_default().with_window_layers(4),
        ];
        for s in specs {
            let text = s.to_json().to_string();
            let back = StrategySpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, s);
            assert_eq!(back.fingerprint(), s.fingerprint());
        }
        assert!(StrategySpec::from_json(&Json::obj()).is_err());
        let bad = StrategySpec::default().to_json().with("partitioning", "Diagonal");
        assert!(StrategySpec::from_json(&bad).is_err());
        // `window_layers = 1` is omitted from the encoding (pre-window
        // files must stay byte-identical) and decodes back to 1.
        let one = StrategySpec::paper_default().to_json();
        assert!(one.get("window_layers").is_none());
        assert_eq!(StrategySpec::from_json(&one).unwrap().window_layers, 1);
    }

    #[test]
    fn decode_rejects_wrong_layouts() {
        assert!(AgCase::from_json(&Json::from("Diagonal")).is_err());
        assert!(PatternKind::from_json(&Json::obj().with("Unknown", Json::obj())).is_err());
        // A float smuggled into a count is a decode error, not truncation.
        let v = Json::parse(
            "{\"einsum\":\"y\",\"group_size\":1.5,\"partial_einsums\":1,\
             \"permutes\":1,\"bidirectional\":true,\"unrolled\":false}",
        )
        .unwrap();
        assert!(DecomposeSummary::from_json(&v).is_err());
    }
}
