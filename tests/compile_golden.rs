//! Golden digests of compiled programs.
//!
//! Every zoo model under the three strategy sets the compile benchmark
//! sweeps (the paper default, a two-shard chunked unidirectional ring,
//! and an int8 wire under an error budget), under rolled loops with
//! pad-max joins, and under the paper default on a faulted machine
//! (jitter, DMA stalls and a straggler, so the fault-adjusted gate
//! charges every ring step), plus one stacked three-layer module under a
//! two-layer scheduling window and a group-of-3 MLP whose loops hit each
//! decompose fallback, is compiled and reduced to three hashes: the
//! module's exact-identity fingerprint (names, tags, operands, arena
//! order, fusion groups), the scheduled order, and the JSON of the
//! decompose summaries, gate decisions and fallbacks.
//!
//! A compiler change that is meant to be output-preserving (a faster
//! pass, a leaner data structure) must leave every row unchanged. A
//! failure prints the full table as computed, ready to paste after a
//! deliberate output change.

use overlap_core::{Compiled, OverlapOptions, OverlapPipeline, RingDirection, StrategySpec};
use overlap_hlo::{Builder, DType, DotDims, Module, ReplicaGroups, Shape, WireFormat};
use overlap_json::{Fingerprint, StableHasher, ToJson};
use overlap_mesh::{FaultSpec, Machine};
use overlap_models::{find_model, model_names};

fn options(strategy: &str) -> OverlapOptions {
    let paper = StrategySpec::paper_default();
    match strategy {
        "paper" => OverlapOptions::paper_default(),
        "chunk2-uni" => OverlapOptions::with_strategy(
            paper.with_ring(RingDirection::Unidirectional).with_chunk(2),
        ),
        "int8" => OverlapOptions {
            error_budget: Some(5e-2),
            ..OverlapOptions::with_strategy(paper.with_wire(WireFormat::int8()))
        },
        "rolled-padmax" => {
            OverlapOptions::with_strategy(paper.with_unroll(false).with_pad_max_concat(true))
        }
        other => panic!("unknown strategy set {other:?}"),
    }
}

/// Jitter, DMA stalls and a straggler: every term of the fault-adjusted
/// gate moves, including its per-ring-step charge.
fn faults() -> FaultSpec {
    FaultSpec::seeded(7).with_jitter(3e-4).with_dma_stalls(0.01, 1e-5, 8).with_straggler(1, 1.2)
}

/// `label identity order meta`, one compile.
fn row(label: &str, module: &Module, machine: &Machine, options: OverlapOptions) -> String {
    row_of(label, &compile(label, module, machine, OverlapPipeline::new(options)))
}

fn compile(label: &str, module: &Module, machine: &Machine, pipeline: OverlapPipeline) -> Compiled {
    pipeline.run(module, machine).unwrap_or_else(|e| panic!("{label}: {e}"))
}

fn row_of(label: &str, c: &Compiled) -> String {
    let mut order = StableHasher::new("compile-golden-order");
    order.write_usize(c.order.len());
    for id in &c.order {
        order.write_usize(id.index());
    }
    let mut meta = StableHasher::new("compile-golden-meta");
    meta.write_str(&c.summaries.to_json().to_string());
    meta.write_str(&c.decisions.to_json().to_string());
    meta.write_str(&c.fallbacks.to_json().to_string());
    let short = |f: Fingerprint| f.to_string()[..16].to_string();
    format!(
        "{label} {} {} {}",
        short(c.module.identity_fingerprint()),
        short(order.finish()),
        short(meta.finish())
    )
}

fn zoo_rows(strategy: &str) -> Vec<String> {
    model_names()
        .iter()
        .map(|name| {
            let cfg = find_model(name).expect("model_names lists only known models");
            row(&format!("{name}/{strategy}"), &cfg.layer_module(), &cfg.machine(), options(strategy))
        })
        .collect()
}

/// A group-of-3 MLP layer, `x · AllGather(w1)` then
/// `ReduceScatter(· w2)`: odd groups fall back from the bidirectional
/// ring, the two-chain ReduceScatter and any chunk width.
fn group3_mlp() -> Module {
    let f32s = |dims: &[usize]| Shape::new(DType::F32, dims.to_vec());
    let (n, batch, feature, hidden) = (3, 6144, 3072, 6144);
    let mut b = Builder::new("mlp3", n);
    let x = b.parameter(f32s(&[batch, feature]), "x");
    let w1 = b.parameter(f32s(&[feature, hidden / n]), "w1");
    let w2 = b.parameter(f32s(&[hidden, feature]), "w2");
    let w1g = b.all_gather(w1, 1, ReplicaGroups::full(n), "w1g");
    let y = b.einsum(x, w1g, DotDims::matmul(), "y");
    let z = b.einsum(y, w2, DotDims::matmul(), "z");
    let out = b.reduce_scatter(z, 1, ReplicaGroups::full(n), "z_rs");
    b.build(vec![out])
}

fn assert_rows(what: &str, got: &[String], golden: &str) {
    let want: Vec<&str> = golden.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    assert!(
        got.iter().map(String::as_str).eq(want.iter().copied()),
        "{what}: compiled output drifted; computed table:\n{}",
        got.join("\n")
    );
}

#[test]
fn paper_strategy_outputs_are_pinned() {
    assert_rows("paper", &zoo_rows("paper"), PAPER);
}

#[test]
fn chunked_unidirectional_outputs_are_pinned() {
    assert_rows("chunk2-uni", &zoo_rows("chunk2-uni"), CHUNK2_UNI);
}

#[test]
fn int8_wire_outputs_are_pinned() {
    assert_rows("int8", &zoo_rows("int8"), INT8);
}

#[test]
fn rolled_pad_max_outputs_are_pinned() {
    assert_rows("rolled-padmax", &zoo_rows("rolled-padmax"), ROLLED_PADMAX);
}

#[test]
fn faulted_outputs_are_pinned() {
    let got: Vec<String> = model_names()
        .iter()
        .map(|name| {
            let cfg = find_model(name).expect("model_names lists only known models");
            let label = format!("{name}/faulted");
            let pipeline =
                OverlapPipeline::new(OverlapOptions::paper_default()).with_faults(faults());
            row_of(&label, &compile(&label, &cfg.layer_module(), &cfg.machine(), pipeline))
        })
        .collect();
    assert_rows("faulted", &got, FAULTED);
}

#[test]
fn group3_fallback_outputs_are_pinned() {
    let module = group3_mlp();
    let machine = Machine::tpu_v4_like(3);
    let mut reasons = Vec::new();
    let got: Vec<String> = ["paper", "chunk2-uni", "rolled-padmax"]
        .into_iter()
        .map(|strategy| {
            let label = format!("mlp3/{strategy}");
            let c = compile(&label, &module, &machine, OverlapPipeline::new(options(strategy)));
            assert_eq!(c.summaries.len(), 2, "{label}: both loops pass the gate");
            for s in &c.summaries {
                reasons.extend(
                    [&s.unroll_fallback, &s.bidirectional_fallback, &s.chunk_fallback]
                        .into_iter()
                        .flatten()
                        .cloned(),
                );
            }
            row_of(&label, &c)
        })
        .collect();
    for needle in ["two-chain", "bidirectional ring", "does not divide"] {
        assert!(
            reasons.iter().any(|r| r.contains(needle)),
            "no {needle:?} fallback in {reasons:?}"
        );
    }
    assert_rows("group3", &got, GROUP3);
}

#[test]
fn stacked_window_output_is_pinned() {
    let cfg = find_model("GPT_64B").expect("GPT_64B is in the zoo");
    let options =
        OverlapOptions::with_strategy(StrategySpec::paper_default().with_window_layers(2));
    let got = row("GPT_64B/window3", &cfg.window_module(3), &cfg.machine(), options);
    assert_rows("window", &[got], WINDOW);
}

const PAPER: &str = "
GPT_1T/paper 0aca3d830007510e ba2fa234a50cfb18 4a9a8db18054a597
Meena_500B/paper 7b70ef7f9f13190b 2713dce2d06eb820 b6469196c8655987
MLPerf_200B/paper 9bff398bece3e9a2 5d0ca4ec285cdd33 8c771c79d13e32a8
T5_300B/paper cd484942d4c96bc6 1a94638ec7e276b4 152a91044bbb3604
GLaM_1T/paper c75ebb18f45c2491 398e19e5bffb4c04 528c37089313826a
BigSSL_10B/paper c8e4f08a61bd37dd 7a6869904cc95777 5ed2aa60781c2b43
GPT_32B/paper b83ad47bc20bbe82 a7b984cece2d1fd9 abd26d03bd3f8fbd
GPT_64B/paper 407b0988cfc786db 4a499069a8cfe6c4 47dbff52784783cd
GPT_128B/paper 6ccd7cd570521a66 37f0a9e09560d7e6 667b024664e77b7d
GPT_256B/paper fc443107bd059260 15b152cf828255ed 863ef9527db85d4a
GPT_512B/paper ade5a647c2d3ac39 69a62f02b8593364 e587bf2626470a8d
";

const CHUNK2_UNI: &str = "
GPT_1T/chunk2-uni b7239db0cc7c3ad2 59fba8561833c10d 8fc019098021fc7b
Meena_500B/chunk2-uni 76e9eb9f43e52134 92ef3f4234bf8b4d c35c815094635053
MLPerf_200B/chunk2-uni c690cc79831afe3b 1fc36854a037cd30 93f626e982b87cc0
T5_300B/chunk2-uni 45444b3555e3578b 271d1ee2e0bd3f59 0655bec9bbb2ece8
GLaM_1T/chunk2-uni 4b85d3d0fbf4694a 4093c7c4ca093cf5 8d69c6337dc7965d
BigSSL_10B/chunk2-uni 0cf210a5be4f3600 6eee2e6194874958 b05d797dfbb0f94f
GPT_32B/chunk2-uni 8edea005f121d23d 8bad2dd99b5e59d9 810bddaf593df748
GPT_64B/chunk2-uni 95f92058659da004 01af462e63e70714 37dd7dd0b3f5ddc2
GPT_128B/chunk2-uni 6781a18da12d3d56 5bc177f85017fe31 d1ce4a20d0cd40a7
GPT_256B/chunk2-uni 55dcef18713c3ebd f85f50ac24aa7b8d ad89e61d19764cb9
GPT_512B/chunk2-uni 38287a7e9057de6c b22ee96aa092aa9a 21d915f9710f16fc
";

const INT8: &str = "
GPT_1T/int8 946126bb911d6f2a 395c7322dc6e2a1b 31e9ae318cad1146
Meena_500B/int8 f1ea8ab78354b0e4 1d9f17171ac98c68 53d25e38783e1d5c
MLPerf_200B/int8 7e7641a594e54c7d fcbd5544fdb1641a 35f747423b7e96b9
T5_300B/int8 46d381908aed890e d5ed888b7b5ca7f9 d4c1f0d5d893a40c
GLaM_1T/int8 b764212f9bffdc42 f85c0d64fc40a6fc d64d92473ed962e7
BigSSL_10B/int8 65be46cfa36a34bf 92eefee11744d489 03bc5414113a1705
GPT_32B/int8 1260c5356362dfe2 034f23716fd6e204 e25c0a1350aae462
GPT_64B/int8 db5822db5661c149 3f0b81b97f06a63d c027793dc7ff256a
GPT_128B/int8 e674a751cd566808 13d4bd002c6c338f 565a08fd5c6924db
GPT_256B/int8 b12736b06d42e4c3 90a9ee4d60781b5f 26b58771862b7106
GPT_512B/int8 a8eab8a3c060cbe8 4ae326c82e280cf0 c3e0e0179fbb040c
";

const ROLLED_PADMAX: &str = "
GPT_1T/rolled-padmax 450545a599ad7810 a947312efd6192e7 99421ec39d43575f
Meena_500B/rolled-padmax 40861db75a6ef926 0a7593710bd9e2e4 f31b29613fd4d7f8
MLPerf_200B/rolled-padmax 5167161b958c96e2 2ad1e814e17ce62a b311944ec5e3238e
T5_300B/rolled-padmax b0cf6b2ef6207353 a0fb7f2f645efa83 cc6e144d66c3b841
GLaM_1T/rolled-padmax 3da568808b13b978 dab8495c40037e56 a9dca70dd7931ace
BigSSL_10B/rolled-padmax 56a1d07922a02591 c38d0f02042cb820 6b91730a5c8748a4
GPT_32B/rolled-padmax a8ae8b499f346c47 b708a51ed9dcdebb b898bece6beefbd3
GPT_64B/rolled-padmax aec62a68b9c0ba7e d57bdbed1d2dd8e2 47be74db263fd611
GPT_128B/rolled-padmax 2afc5d859eede443 9420920d8d448fb7 94e95ab62aeec224
GPT_256B/rolled-padmax f5ef1d776c077239 cccd881ce2c7b1f5 f7df8c65c04a0ab1
GPT_512B/rolled-padmax dbea7797fcc93484 9fbb78ffb318bb58 0ceca6ebf665eec5
";

const FAULTED: &str = "
GPT_1T/faulted 0aca3d830007510e ba2fa234a50cfb18 f1c1b3b7b13b061e
Meena_500B/faulted 7b70ef7f9f13190b 2713dce2d06eb820 9447da3874f67c0d
MLPerf_200B/faulted 9bff398bece3e9a2 5d0ca4ec285cdd33 8a06a17a1a0491e5
T5_300B/faulted cd484942d4c96bc6 1a94638ec7e276b4 ff22ee507c9445f0
GLaM_1T/faulted a1659f8e6887236f bcdbda1712f37c67 7fda6ee32cba266d
BigSSL_10B/faulted 0cf210a5be4f3600 6eee2e6194874958 ed216e94dfd341ac
GPT_32B/faulted b83ad47bc20bbe82 a7b984cece2d1fd9 23ae3ca71ed7681e
GPT_64B/faulted 407b0988cfc786db 4a499069a8cfe6c4 b366de12e93cb31b
GPT_128B/faulted 6ccd7cd570521a66 37f0a9e09560d7e6 2858641bd573afe6
GPT_256B/faulted fc443107bd059260 15b152cf828255ed d04403bc2cc3fb8c
GPT_512B/faulted ade5a647c2d3ac39 69a62f02b8593364 2064f7e09ce9c8f7
";

const GROUP3: &str = "
mlp3/paper 462c26ea322697b0 44ddbfb78665fd03 0d53bad86d0da852
mlp3/chunk2-uni 462c26ea322697b0 44ddbfb78665fd03 f12d76e8125b4727
mlp3/rolled-padmax 92959c236e958e39 451d45f5de3601b9 f4d0a888460ee8a5
";

const WINDOW: &str = "
GPT_64B/window3 a160fbd1f28cd05a 2e56fd13344f7f0d dc85dcba3a3d07e4
";
