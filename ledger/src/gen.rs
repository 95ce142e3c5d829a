//! Everything a run's inputs are made from. `--seed` is the only input:
//! the same seed gives the same request sequence and the same set of
//! inline modules, whatever the machine or the time of day.

use overlap_core::{OverlapOptions, RingDirection, StrategySpec};
use overlap_hlo::WireFormat;
use overlap_mesh::{DeviceMesh, FaultSpec};
use overlap_models::{find_model, model_names, ModelConfig};

/// splitmix64: small, seedable, and good enough to shuffle requests.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one run, so that two uses of
    /// the same seed never share draws.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = overlap_json::StableHasher::new("ledger-rng/1");
        h.write_u64(seed);
        h.write_str(stream);
        Rng(h.finish().as_u128() as u64)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at these sizes is below 2⁻⁵⁰).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The three strategy sets every compile input is crossed with. They
/// drive the same passes differently, so a decompose change that speeds
/// one and slows another shows.
pub const STRATEGIES: [&str; 3] = ["paper", "chunk2-uni", "int8"];

pub fn strategy(name: &str) -> OverlapOptions {
    let paper = StrategySpec::paper_default();
    match name {
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

/// One compile input: a zoo model under one strategy set.
#[derive(Debug, Clone)]
pub struct Artifact {
    pub model: ModelConfig,
    pub strategy: &'static str,
}

impl Artifact {
    pub fn options(&self) -> OverlapOptions {
        strategy(self.strategy)
    }

    pub fn label(&self) -> String {
        format!("{}/{}", self.model.name, self.strategy)
    }
}

/// The 33 artifacts: 11 zoo models (Table 1 ∪ Table 2) × 3 strategy
/// sets, strategy-major.
pub fn artifacts() -> Vec<Artifact> {
    let zoo: Vec<ModelConfig> = model_names()
        .iter()
        .map(|n| find_model(n).expect("model_names lists only known models"))
        .collect();
    STRATEGIES
        .iter()
        .flat_map(|&strategy| zoo.iter().map(move |m| Artifact { model: m.clone(), strategy }))
        .collect()
}

/// Chip count at or below which an artifact is in `serve_churn`'s hot
/// set (4 models × 3 strategy sets = 12).
pub const HOT_MAX_CHIPS: usize = 256;

/// The `i`-th never-seen inline module: a zoo model at a sequence
/// length no named model has, so its fingerprint — and cache key — is
/// new to the daemon. Every `i` gives a distinct module.
pub fn inline_variant(i: usize) -> Artifact {
    const BASES: [&str; 3] = ["GPT_32B", "GPT_64B", "BigSSL_10B"];
    let base = find_model(BASES[i % 3]).expect("base model is in the zoo");
    let model = ModelConfig { seq_len: 1024 + 64 * (i + 1), ..base };
    Artifact { model, strategy: STRATEGIES[(i / 3) % 3] }
}

/// What one serve op asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// A named request for `artifacts[i]`.
    Named(usize),
    /// An inline request carrying `inline_variant(i)`.
    Inline(usize),
}

/// `serve_hot`: every op draws uniformly from all named artifacts.
pub fn hot_sequence(seed: u64, ops: usize, named: usize) -> Vec<Ask> {
    let mut rng = Rng::new(seed, "serve_hot");
    (0..ops).map(|_| Ask::Named(rng.below(named))).collect()
}

/// `serve_churn`: exactly a quarter of the ops are inline modules used
/// once each (so the set of artifacts does not depend on the seed, only
/// their order does); the rest repeat the `hot` named artifacts.
pub fn churn_sequence(seed: u64, ops: usize, hot: &[usize]) -> Vec<Ask> {
    let mut rng = Rng::new(seed, "serve_churn");
    let misses = ops / 4;
    let mut seq: Vec<Ask> = (0..misses).map(Ask::Inline).collect();
    seq.extend((misses..ops).map(|_| Ask::Named(hot[rng.below(hot.len())])));
    rng.shuffle(&mut seq);
    seq
}

/// The seed of op `i`'s fault draw in `tail_draws`.
pub fn tail_seed(seed: u64, i: usize) -> u64 {
    Rng::new(seed, &format!("tail_draws/{i}")).next_u64()
}

/// perfgate's network-straggler shape: a quarter of the links at half
/// bandwidth, per-hop jitter, DMA-issue stalls.
pub fn straggler_spec(seed: u64, mesh: &DeviceMesh) -> FaultSpec {
    FaultSpec::seeded(seed)
        .with_derated_link_fraction(mesh, 0.25, 0.5)
        .with_jitter(1e-5)
        .with_dma_stalls(0.02, 2e-4, 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequences_other_seed_other_order() {
        let hot: Vec<usize> = (0..12).collect();
        assert_eq!(hot_sequence(7, 500, 33), hot_sequence(7, 500, 33));
        assert_ne!(hot_sequence(7, 500, 33), hot_sequence(8, 500, 33));
        assert_eq!(churn_sequence(7, 400, &hot), churn_sequence(7, 400, &hot));
        assert_ne!(churn_sequence(7, 400, &hot), churn_sequence(8, 400, &hot));
        assert_eq!(tail_seed(7, 3), tail_seed(7, 3));
        assert_ne!(tail_seed(7, 3), tail_seed(7, 4));
    }

    #[test]
    fn churn_uses_each_inline_module_once_whatever_the_seed() {
        let hot: Vec<usize> = (0..12).collect();
        for seed in [1, 2, 99] {
            let mut inline: Vec<usize> = churn_sequence(seed, 400, &hot)
                .into_iter()
                .filter_map(|a| match a {
                    Ask::Inline(i) => Some(i),
                    Ask::Named(_) => None,
                })
                .collect();
            inline.sort_unstable();
            assert_eq!(inline, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn inline_variants_are_distinct_modules_unknown_to_the_zoo() {
        let named: Vec<_> =
            artifacts().iter().map(|a| a.model.layer_module().fingerprint()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..30 {
            let v = inline_variant(i);
            let module = v.model.layer_module();
            module.verify().expect("inline variant verifies");
            let fp = module.fingerprint();
            assert!(!named.contains(&fp), "variant {i} collides with a named model");
            assert!(seen.insert(fp.as_u128()), "variant {i} repeats an earlier one");
        }
    }

    #[test]
    fn there_are_33_artifacts_and_12_hot_ones() {
        let all = artifacts();
        assert_eq!(all.len(), 33);
        assert_eq!(all.iter().filter(|a| a.model.chips <= HOT_MAX_CHIPS).count(), 12);
    }
}
