//! Golden digests of compiled programs.
//!
//! Every zoo model under the three strategy sets the compile benchmark
//! sweeps (the paper default, a two-shard chunked unidirectional ring,
//! and an int8 wire under an error budget), plus one stacked three-layer
//! module under a two-layer scheduling window, is compiled and reduced
//! to three hashes: the module's exact-identity fingerprint (names,
//! tags, operands, arena order, fusion groups), the scheduled order, and
//! the JSON of the decompose summaries, gate decisions and fallbacks.
//!
//! A compiler change that is meant to be output-preserving (a faster
//! pass, a leaner data structure) must leave every row unchanged. A
//! failure prints the full table as computed, ready to paste after a
//! deliberate output change.

use overlap_core::{Compiled, OverlapOptions, OverlapPipeline, RingDirection, StrategySpec};
use overlap_hlo::{Module, WireFormat};
use overlap_json::{Fingerprint, StableHasher, ToJson};
use overlap_mesh::Machine;
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
        other => panic!("unknown strategy set {other:?}"),
    }
}

/// `label identity order meta`, one compile.
fn row(label: &str, module: &Module, machine: &Machine, options: OverlapOptions) -> String {
    let c: Compiled = OverlapPipeline::new(options)
        .run(module, machine)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
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

const WINDOW: &str = "
GPT_64B/window3 a160fbd1f28cd05a 2e56fd13344f7f0d dc85dcba3a3d07e4
";
