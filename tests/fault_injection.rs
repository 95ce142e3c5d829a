//! End-to-end contract of the fault-injection layer: a seeded
//! [`FaultSpec`] must be exactly reproducible — same seed, same report
//! bytes, whether the sweep runs serially or fanned across rayon
//! workers, and whether the compile comes cold or from the artifact
//! cache's disk tier — and `FaultSpec::default()` must be bit-identical
//! to the fault-free simulator on arbitrary modules.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use overlap::core::{ArtifactCache, CompileReport, OverlapOptions, OverlapPipeline};
use overlap::hlo::{Builder, DType, DotDims, Module, ReplicaGroups, Shape};
use overlap::mesh::{DeviceMesh, FaultSpec, Machine};
use overlap::sharding::mlp::{fig3_forward, MlpConfig};
use overlap::sim::{par_map, Simulation};
use overlap_json::ToJson;
use proptest::prelude::*;

fn layer_module(n: usize) -> Module {
    let mut b = Builder::new("faults_e2e", n);
    let x = b.parameter(Shape::new(DType::BF16, vec![4096, 2048]), "x");
    let w1 = b.parameter(Shape::new(DType::BF16, vec![2048, 8192 / n]), "w1_shard");
    let w2 = b.parameter(Shape::new(DType::BF16, vec![8192 / n, 2048]), "w2_shard");
    let w1f = b.all_gather(w1, 1, ReplicaGroups::full(n), "w1");
    let h = b.einsum(x, w1f, DotDims::matmul(), "h");
    let w2f = b.all_gather(w2, 0, ReplicaGroups::full(n), "w2");
    let y = b.einsum(h, w2f, DotDims::matmul(), "y");
    b.build(vec![y])
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

/// Compiles `module` under `spec` and simulates the result under the
/// same spec, returning the report's exact JSON bytes plus the recorded
/// fallbacks.
fn faulted_report_bytes(
    module: &Module,
    machine: &Machine,
    spec: &FaultSpec,
    cache: &ArtifactCache,
) -> (String, Vec<String>) {
    let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
        .with_faults(spec.clone())
        .compile_cached(module, machine, cache)
        .expect("faulted compile");
    let report =
        compiled.simulation(machine).faults(Some(spec)).run().expect("faulted simulation");
    let fallbacks = compiled.fallbacks.iter().map(|f| format!("{}: {}", f.einsum, f.reason));
    (report.to_json().to_string(), fallbacks.collect())
}

#[test]
fn same_seed_is_byte_identical_serial_and_fanned() {
    let n = 8;
    let module = layer_module(n);
    let machine = Machine::tpu_v4_like(n);
    let spec = FaultSpec::seeded(21)
        .with_straggler(3, 1.4)
        .with_derated_link_fraction(machine.mesh(), 0.25, 0.8)
        .with_jitter(2e-5)
        .with_dma_stalls(0.05, 1e-6, 8);

    let (serial, serial_fb) =
        faulted_report_bytes(&module, &machine, &spec, &ArtifactCache::disabled());

    // Eight copies fanned across the rayon pool, each compiling from
    // scratch: every worker must reproduce the serial bytes exactly.
    let copies: Vec<usize> = (0..8).collect();
    let fanned = par_map(&copies, |_| {
        faulted_report_bytes(&module, &machine, &spec, &ArtifactCache::disabled())
    });
    for (bytes, fb) in fanned {
        assert_eq!(bytes, serial, "a fanned faulted run diverged from the serial bytes");
        assert_eq!(fb, serial_fb);
    }
}

#[test]
fn cold_and_warm_disk_cache_serve_identical_faulted_reports() {
    let n = 8;
    let module = layer_module(n);
    let machine = Machine::tpu_v4_like(n);
    // Heavy jitter: at least one pattern must fall back, and the
    // fallback list must survive the disk round-trip.
    let spec = FaultSpec::seeded(9).with_jitter(10e-3);
    let dir = unique_temp_dir("faultwarm");

    let cold_cache = ArtifactCache::with_disk_dir(&dir);
    let (cold, cold_fb) = faulted_report_bytes(&module, &machine, &spec, &cold_cache);
    assert_eq!(cold_cache.stats().misses, 1);
    assert!(!cold_fb.is_empty(), "heavy jitter must record a fallback");

    // A fresh cache over the same directory models a new process: the
    // compile must come from disk and reproduce every byte.
    let warm_cache = ArtifactCache::with_disk_dir(&dir);
    let (warm, warm_fb) = faulted_report_bytes(&module, &machine, &spec, &warm_cache);
    assert_eq!(warm_cache.stats().disk_hits, 1);
    assert_eq!(warm, cold);
    assert_eq!(warm_fb, cold_fb);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fallbacks_surface_in_the_compile_report() {
    let n = 8;
    let module = layer_module(n);
    let machine = Machine::tpu_v4_like(n);
    let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
        .with_faults(FaultSpec::seeded(9).with_jitter(10e-3))
        .run(&module, &machine)
        .expect("faulted compile");
    assert!(!compiled.fallbacks.is_empty());
    let text = CompileReport::new(&module, &compiled, &machine).to_string();
    assert!(text.contains("fallback"), "report must print the fallback lines:\n{text}");
}

/// The noop-spec identity checked exhaustively over a small grid of
/// Fig. 3 MLP modules — the deterministic counterpart of the property
/// test below, so the contract is exercised even where `proptest` is
/// stubbed out.
#[test]
fn default_spec_is_bit_identical_on_sampled_modules() {
    for (mesh_m, mesh_n) in [(2, 2), (2, 3), (3, 2), (3, 3)] {
        for mult in [1usize, 2] {
            let mesh = DeviceMesh::new(vec![mesh_m, mesh_n]);
            let cfg = MlpConfig { batch: 12 * mult, feature: 12 * mult, hidden: 24 * mult };
            let module = fig3_forward(&mesh, cfg).expect("builds");
            let machine = Machine::with_mesh(mesh);
            let pristine = Simulation::new(&module, &machine).run().expect("pristine");
            let faulted = Simulation::new(&module, &machine)
                .faults(Some(&FaultSpec::default()))
                .run()
                .expect("noop faulted");
            assert_eq!(
                pristine.to_json().to_string(),
                faulted.to_json().to_string(),
                "noop spec diverged on {mesh_m}x{mesh_n} mult {mult}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `FaultSpec::default()` injects nothing: on arbitrary Fig. 3 MLP
    /// modules the faulted engine must reproduce the pristine report
    /// bit for bit (same JSON bytes).
    #[test]
    fn default_spec_is_bit_identical_on_random_modules(
        mesh_m in 2usize..4,
        mesh_n in 2usize..4,
        batch_mult in 1usize..3,
        feat_mult in 1usize..3,
    ) {
        let mesh = DeviceMesh::new(vec![mesh_m, mesh_n]);
        // Sizes must divide both axes; lcm(2..4) = 12 keeps it safe.
        let cfg = MlpConfig {
            batch: 12 * batch_mult,
            feature: 12 * feat_mult,
            hidden: 12 * feat_mult,
        };
        let module = fig3_forward(&mesh, cfg).expect("builds");
        let machine = Machine::with_mesh(mesh);
        let pristine = Simulation::new(&module, &machine).run().expect("pristine");
        let faulted = Simulation::new(&module, &machine)
            .faults(Some(&FaultSpec::default()))
            .run()
            .expect("noop faulted");
        prop_assert_eq!(
            pristine.to_json().to_string(),
            faulted.to_json().to_string()
        );
    }
}
