//! The parallel sweep driver must be a pure reordering of work: its
//! records — down to every float bit and therefore every serialized
//! byte — must match what the serial path produces.

use overlap_bench::{par_map, run_baseline, run_baselines, run_comparison, run_comparisons};
use overlap_core::ArtifactCache;
use overlap_json::ToJson;
use overlap_models::{Arch, ModelConfig, PartitionStrategy};

/// A small zoo that still exercises different meshes and shapes without
/// making `cargo test` expensive.
fn zoo() -> Vec<ModelConfig> {
    [(8usize, 256usize, 1024usize), (16, 256, 1024), (8, 512, 2048), (32, 256, 1024)]
        .into_iter()
        .enumerate()
        .map(|(i, (chips, model_dim, ff_dim))| ModelConfig {
            name: format!("det_{i}"),
            params: 1e9,
            layers: 4,
            model_dim,
            ff_dim,
            batch: chips * 2,
            seq_len: 64,
            chips,
            arch: Arch::Decoder,
            strategy: PartitionStrategy::TwoD,
        })
        .collect()
}

#[test]
fn parallel_baselines_match_serial_bytes() {
    let cfgs = zoo();
    let serial: Vec<_> = cfgs.iter().map(|cfg| run_baseline(cfg, None)).collect();
    let parallel = run_baselines(&cfgs);
    assert_eq!(serial.to_json().to_string(), parallel.to_json().to_string());
}

#[test]
fn parallel_comparisons_match_serial_bytes() {
    let cfgs = zoo();
    let uncached = ArtifactCache::disabled();
    let serial: Vec<_> = cfgs.iter().map(|cfg| run_comparison(cfg, &uncached)).collect();
    let parallel = run_comparisons(&cfgs, &uncached);
    assert_eq!(serial.to_json().to_string(), parallel.to_json().to_string());
    // Belt and braces: compare the floats at the bit level too, so the
    // test stays meaningful even if serialization ever rounds.
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.baseline.step_time.to_bits(), p.baseline.step_time.to_bits());
        assert_eq!(s.overlapped.step_time.to_bits(), p.overlapped.step_time.to_bits());
        assert_eq!(s.speedup().to_bits(), p.speedup().to_bits());
    }
}

#[test]
fn cached_parallel_sweep_matches_uncached_bytes() {
    // A warm cache must not change a single serialized byte of the sweep,
    // whatever the worker count (the fanned workers share one
    // single-flight cache).
    let cfgs = zoo();
    let uncached = run_comparisons(&cfgs, &ArtifactCache::disabled());
    let cache = ArtifactCache::in_memory();
    let cold = run_comparisons(&cfgs, &cache);
    let warm = run_comparisons(&cfgs, &cache);
    assert_eq!(uncached.to_json().to_string(), cold.to_json().to_string());
    assert_eq!(uncached.to_json().to_string(), warm.to_json().to_string());
    assert_eq!(cache.stats().misses, cfgs.len() as u64);
    assert_eq!(cache.stats().hits(), cfgs.len() as u64);
}

#[test]
fn par_map_is_stable_across_repeated_runs() {
    let items: Vec<u64> = (0..97).collect();
    let f = |&i: &u64| (i as f64).sqrt().sin();
    let first = par_map(&items, f);
    for _ in 0..3 {
        let again = par_map(&items, f);
        assert_eq!(
            first.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            again.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }
}
