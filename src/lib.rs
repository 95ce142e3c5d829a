//! Umbrella crate for the *overlap* workspace: a from-scratch reproduction
//! of "Overlap Communication with Dependent Computation via Decomposition
//! in Large Deep Learning Models" (ASPLOS 2023).
//!
//! This crate re-exports every workspace crate under a stable prefix so
//! examples and downstream users can depend on a single package:
//!
//! * [`hlo`] — the dataflow IR,
//! * [`json`] — the zero-dependency JSON wire layer and the stable
//!   fingerprint hasher behind the artifact cache,
//! * [`mesh`] — device meshes, interconnect model, collective cost math,
//! * [`sharding`] — SPMD sharding specs and the einsum partitioner,
//! * [`numerics`] — tensor literals and the multi-device interpreter,
//! * [`sim`] — the discrete-event performance simulator,
//! * [`core`] — the paper's contribution: looped collective-einsum
//!   decomposition, latency-hiding schedulers and the cost-model gate,
//! * [`models`] — the evaluation model zoo (Tables 1 and 2).
//!
//! # Quickstart
//!
//! ```
//! use overlap::core::{OverlapOptions, OverlapPipeline};
//! use overlap::hlo::{Builder, DType, DotDims, ReplicaGroups, Shape};
//! use overlap::mesh::Machine;
//! use overlap::sim::Simulation;
//!
//! // A 4-way partitioned AllGather -> Einsum pair.
//! let n = 4;
//! let mut b = Builder::new("quickstart", n);
//! let x = b.parameter(Shape::new(DType::F32, vec![64, 256]), "activation");
//! let w = b.parameter(Shape::new(DType::F32, vec![64, 512]), "weight_shard");
//! let wg = b.all_gather(w, 0, ReplicaGroups::full(n), "weight");
//! let y = b.einsum(x, wg, DotDims::new(vec![], vec![(1, 0)]).unwrap(), "y");
//! let module = b.build(vec![y]);
//!
//! let machine = Machine::tpu_v4_like(n);
//! let pipeline = OverlapPipeline::new(OverlapOptions::default());
//! let compiled = pipeline.run(&module, &machine).unwrap();
//! let baseline = Simulation::new(&module, &machine).run().unwrap();
//! let overlapped = compiled.simulation(&machine).run().unwrap();
//! assert!(overlapped.makespan() <= baseline.makespan());
//! ```

pub use overlap_core as core;
pub use overlap_hlo as hlo;
pub use overlap_json as json;
pub use overlap_mesh as mesh;
pub use overlap_models as models;
pub use overlap_numerics as numerics;
pub use overlap_sharding as sharding;
pub use overlap_sim as sim;
