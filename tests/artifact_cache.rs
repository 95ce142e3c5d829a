//! End-to-end contract of the artifact cache: a hit must be
//! bit-identical to a cold compile — same module bytes, same schedule,
//! same simulated makespan bits — whether the hit comes from the
//! in-memory tier, the disk tier, or a rayon worker racing seven
//! siblings for the same key (`RAYON_NUM_THREADS` > 1).

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use overlap::core::{ArtifactCache, Compiled, OverlapOptions, OverlapPipeline};
use overlap::hlo::{Builder, DType, DotDims, Module, ReplicaGroups, Shape};
use overlap::mesh::Machine;
use overlap::models::{Arch, ModelConfig, PartitionStrategy};
use overlap_bench::run_comparisons;
use overlap_json::ToJson;

fn demo_module(n: usize) -> Module {
    let mut b = Builder::new("cache_e2e", n);
    let x = b.parameter(Shape::new(DType::F32, vec![64, 32]), "x");
    let w = b.parameter(Shape::new(DType::F32, vec![32, 256 / n]), "w_shard");
    let wf = b.all_gather(w, 1, ReplicaGroups::full(n), "w");
    let y = b.einsum(x, wf, DotDims::matmul(), "y");
    b.build(vec![y])
}

/// Bit-level equality of two compile results, including the simulated
/// makespan recomputed from each result's own cost table.
fn assert_bit_identical(cold: &Compiled, hit: &Compiled, machine: &Machine) {
    assert_eq!(cold.module, hit.module);
    assert_eq!(cold.module.identity_fingerprint(), hit.module.identity_fingerprint());
    assert_eq!(cold.order, hit.order);
    assert_eq!(cold.summaries, hit.summaries);
    assert_eq!(cold.decisions, hit.decisions);
    let a = cold.simulation(machine).run().expect("cold simulates");
    let b = hit.simulation(machine).run().expect("hit simulates");
    assert_eq!(a.makespan().to_bits(), b.makespan().to_bits());
}

fn unique_temp_dir(tag: &str) -> PathBuf {
    static SALT: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_nanos();
    std::env::temp_dir().join(format!(
        "overlap-{tag}-{}-{nanos}-{}",
        std::process::id(),
        SALT.fetch_add(1, Ordering::Relaxed)
    ))
}

#[test]
fn memory_hit_matches_cold_compile_bit_for_bit() {
    let module = demo_module(8);
    let machine = Machine::tpu_v4_like(8);
    let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());
    let cold = pipeline.run(&module, &machine).expect("cold compile");

    let cache = ArtifactCache::in_memory();
    let first = pipeline.compile_cached(&module, &machine, &cache).expect("fill");
    let hit = pipeline.compile_cached(&module, &machine, &cache).expect("hit");
    assert_bit_identical(&cold, &first, &machine);
    assert_bit_identical(&cold, &hit, &machine);
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().memory_hits, 1);
}

#[test]
fn racing_threads_all_receive_the_cold_artifact() {
    let module = demo_module(8);
    let machine = Machine::tpu_v4_like(8);
    let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());
    let cold = pipeline.run(&module, &machine).expect("cold compile");

    let cache = ArtifactCache::in_memory();
    let results: Vec<Compiled> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| pipeline.compile_cached(&module, &machine, &cache).expect("compiles"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    for got in &results {
        assert_bit_identical(&cold, got, &machine);
    }
    // Single flight: one leader compiled, everyone else waited for it.
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().memory_hits, 7);
}

#[test]
fn rayon_sweep_with_warm_cache_is_byte_identical_to_uncached() {
    // The figure drivers fan the model zoo over rayon workers sharing
    // one cache; under any worker count the serialized sweep must not
    // change by a byte between uncached, cold-cache and warm-cache runs.
    let cfgs: Vec<ModelConfig> = [(8usize, 256usize, 1024usize), (16, 256, 1024), (8, 512, 2048)]
        .into_iter()
        .enumerate()
        .map(|(i, (chips, model_dim, ff_dim))| ModelConfig {
            name: format!("cache_e2e_{i}"),
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
        .collect();
    let uncached = run_comparisons(&cfgs, &ArtifactCache::disabled()).to_json().to_string();
    let cache = ArtifactCache::in_memory();
    let cold = run_comparisons(&cfgs, &cache).to_json().to_string();
    let warm = run_comparisons(&cfgs, &cache).to_json().to_string();
    assert_eq!(uncached, cold);
    assert_eq!(uncached, warm);
    assert_eq!(cache.stats().misses, cfgs.len() as u64);
    assert_eq!(cache.stats().hits(), cfgs.len() as u64);
}

#[test]
fn disk_tier_round_trips_and_rejects_corruption() {
    let dir = unique_temp_dir("cache-e2e");
    let module = demo_module(8);
    let machine = Machine::tpu_v4_like(8);
    let pipeline = OverlapPipeline::new(OverlapOptions::paper_default());
    let cold = pipeline.run(&module, &machine).expect("cold compile");

    // Fill the disk tier from one "process"...
    let writer = ArtifactCache::with_disk_dir(&dir);
    pipeline.compile_cached(&module, &machine, &writer).expect("fill");
    let files: Vec<_> = fs::read_dir(&dir)
        .expect("cache dir exists")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(files.len(), 1, "one artifact file per key");

    // ...and hit it from a fresh one (empty memory tier).
    let reader = ArtifactCache::with_disk_dir(&dir);
    let hit = pipeline.compile_cached(&module, &machine, &reader).expect("disk hit");
    assert_bit_identical(&cold, &hit, &machine);
    assert_eq!(reader.stats().disk_hits, 1);
    assert_eq!(reader.stats().misses, 0);

    // A corrupt file must read as a miss (recompile), never an error.
    fs::write(&files[0], "{ definitely not an artifact").expect("corrupt");
    let recovering = ArtifactCache::with_disk_dir(&dir);
    let recompiled =
        pipeline.compile_cached(&module, &machine, &recovering).expect("recovers");
    assert_bit_identical(&cold, &recompiled, &machine);
    assert_eq!(recovering.stats().disk_hits, 0);
    assert_eq!(recovering.stats().misses, 1);

    fs::remove_dir_all(&dir).ok();
}
