//! Structural fingerprints: the content-addressed identity of a module.
//!
//! The artifact cache (in `overlap-core`) keys compiled artifacts by
//! *what a module computes*, not how its arena happens to be laid out,
//! so the key must be:
//!
//! - **stable across JSON round-trips** — the hash reads semantic
//!   fields only, never pointer identities or iteration order of
//!   anything unordered;
//! - **stable under renaming** — instruction names and pass tags are
//!   reporting metadata; two modules differing only in names compute
//!   the same function and may share compiled artifacts (the cache
//!   separately guards exact identity before serving a hit, see
//!   [`Module::identity_fingerprint`]);
//! - **independent of arena order** — each instruction hashes as
//!   `H(op payload, shape, operand hashes…)`, a Merkle hash of its
//!   dataflow cone, so any topological re-numbering of the same DAG
//!   fingerprints identically;
//! - **sensitive to every structural edit** — op payloads hash all
//!   their fields (dot dims, replica groups, permute pairs, constants
//!   by exact `f64` bits), shapes hash dtype and dims, and the module
//!   hash covers the instruction multiset, the ordered outputs, the
//!   partition count and the fusion partition.
//!
//! Fingerprinting never panics, even on garbage: operand ids that are
//! out of range or violate use-after-def hash as a marker plus the raw
//! id (such modules fail [`Module::verify`]; they still need a distinct
//! fingerprint so a corrupt cache file can be detected by mismatch).

use overlap_json::{Fingerprint, StableHasher};

use crate::{DotDims, Module, Op, ReplicaGroups, Shape, WireFormat};

fn hash_shape(h: &mut StableHasher, shape: &Shape) {
    h.write_str("shape");
    h.write_str(&format!("{:?}", shape.dtype()));
    h.write_usize(shape.rank());
    for &d in shape.dims() {
        h.write_usize(d);
    }
}

fn hash_groups(h: &mut StableHasher, groups: &ReplicaGroups) {
    // Group order and within-group order are semantic (they define ring
    // neighbors and ranks), so both hash in order.
    h.write_usize(groups.num_groups());
    for g in groups.groups() {
        h.write_usize(g.len());
        for &pid in g {
            h.write_u32(pid);
        }
    }
}

fn hash_dot_dims(h: &mut StableHasher, dims: &DotDims) {
    // Pair order is semantic: it fixes the output dimension layout.
    h.write_usize(dims.batch().len());
    for &(l, r) in dims.batch() {
        h.write_usize(l);
        h.write_usize(r);
    }
    h.write_usize(dims.contracting().len());
    for &(l, r) in dims.contracting() {
        h.write_usize(l);
        h.write_usize(r);
    }
}

fn hash_pairs(h: &mut StableHasher, pairs: &[(u32, u32)]) {
    h.write_usize(pairs.len());
    for &(s, d) in pairs {
        h.write_u32(s);
        h.write_u32(d);
    }
}

/// Hashes a collective's wire encoding. Lossless (the only encoding that
/// existed before precision annotations) contributes no bytes, so every
/// pre-existing fingerprint is preserved verbatim.
fn hash_wire(h: &mut StableHasher, wire: WireFormat) {
    if !wire.is_lossless() {
        h.write_str("wire");
        wire.write_to(h);
    }
}

/// Hashes the op discriminant and every payload field (never operands).
fn hash_op(h: &mut StableHasher, op: &Op) {
    h.write_str(op.mnemonic());
    match op {
        Op::Parameter { index } => h.write_usize(*index),
        Op::Constant { value } => h.write_f64(*value),
        Op::ConstantTensor { values } => {
            h.write_usize(values.len());
            for &v in values {
                h.write_f64(v);
            }
        }
        Op::Iota { dim } | Op::Concatenate { dim } => h.write_usize(*dim),
        Op::Broadcast { operand_dims } => {
            h.write_usize(operand_dims.len());
            for &d in operand_dims {
                h.write_usize(d);
            }
        }
        Op::Transpose { perm } => {
            h.write_usize(perm.len());
            for &d in perm {
                h.write_usize(d);
            }
        }
        Op::Slice { starts, limits } => {
            h.write_usize(starts.len());
            for (&s, &l) in starts.iter().zip(limits) {
                h.write_usize(s);
                h.write_usize(l);
            }
        }
        Op::DynamicSlice { sizes } => {
            h.write_usize(sizes.len());
            for &s in sizes {
                h.write_usize(s);
            }
        }
        Op::Pad { config } => {
            h.write_usize(config.len());
            for p in config {
                h.write_usize(p.low);
                h.write_usize(p.high);
            }
        }
        // Binary/Unary kinds are covered by the mnemonic (each kind has
        // a distinct one).
        Op::Binary(_) | Op::Unary(_) => {}
        Op::Einsum(dims) => hash_dot_dims(h, dims),
        Op::AllGather { dim, groups, wire } | Op::ReduceScatter { dim, groups, wire } => {
            h.write_usize(*dim);
            hash_groups(h, groups);
            hash_wire(h, *wire);
        }
        Op::AllReduce { groups, wire } => {
            hash_groups(h, groups);
            hash_wire(h, *wire);
        }
        Op::AllToAll { split_dim, concat_dim, groups } => {
            h.write_usize(*split_dim);
            h.write_usize(*concat_dim);
            hash_groups(h, groups);
        }
        Op::CollectivePermute { pairs, wire } | Op::CollectivePermuteStart { pairs, wire } => {
            hash_pairs(h, pairs);
            hash_wire(h, *wire);
        }
        Op::Reshape
        | Op::DynamicUpdateSlice
        | Op::Copy
        | Op::CollectivePermuteDone
        | Op::PartitionId => {}
    }
}

/// Merkle hashes of every instruction's dataflow cone, in arena order.
/// `hashes[i]` depends only on instruction `i`'s op payload, shape, and
/// its operands' hashes — not on names, tags or arena positions.
fn instruction_hashes(module: &Module) -> Vec<Fingerprint> {
    let mut hashes: Vec<Fingerprint> = Vec::with_capacity(module.len());
    for (i, ins) in module.instrs.iter().enumerate() {
        let mut h = StableHasher::new("overlap-instr-v1");
        hash_op(&mut h, &ins.op);
        hash_shape(&mut h, &ins.shape);
        h.write_usize(ins.operands.len());
        for &op in &ins.operands {
            if op.index() < i {
                h.write_fingerprint(hashes[op.index()]);
            } else {
                // Forward or self reference: verify() rejects these, but
                // the fingerprint must still be total and distinct.
                h.write_str("!bad-operand");
                h.write_usize(op.index());
            }
        }
        hashes.push(h.finish());
    }
    hashes
}

impl Module {
    /// The module's structural fingerprint: a stable 128-bit content
    /// hash of the computation — instructions (as a multiset of Merkle
    /// cone hashes), ordered entry outputs, partition count and fusion
    /// grouping. Stable across JSON round-trips, instruction renaming
    /// and topological arena re-numbering; changed by any structural
    /// edit (shapes, op payloads, operand wiring, replica groups, dot
    /// dims, outputs, fusion membership).
    ///
    /// This is the artifact cache's key component. It deliberately
    /// ignores names/tags; callers needing exact-bytes identity (the
    /// cache's hit guard) use [`Module::identity_fingerprint`].
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        let hashes = instruction_hashes(self);
        let mut h = StableHasher::new("overlap-module-v1");
        h.write_usize(self.num_partitions);
        // The instruction multiset, order-independently: XOR-fold the
        // cone hashes (count separately, so duplicating an instruction
        // pair can't cancel out).
        h.write_usize(self.instrs.len());
        let folded = hashes
            .iter()
            .fold(Fingerprint::neutral(), |acc, &fp| acc.fold_unordered(fp));
        h.write_fingerprint(folded);
        // Entry outputs, in order (output order is semantic).
        h.write_usize(self.outputs.len());
        for &out in &self.outputs {
            match hashes.get(out.index()) {
                Some(&fp) => h.write_fingerprint(fp),
                None => {
                    h.write_str("!bad-output");
                    h.write_usize(out.index());
                }
            }
        }
        // Fusion groups: membership is a partition of the instruction
        // set, so groups fold order-independently; members within a
        // group hash in order (their topological execution order).
        h.write_usize(self.fusion_groups.len());
        let mut fused = Fingerprint::neutral();
        for g in &self.fusion_groups {
            let mut gh = StableHasher::new("overlap-fusion-v1");
            gh.write_usize(g.members.len());
            for &m in &g.members {
                match hashes.get(m.index()) {
                    Some(&fp) => gh.write_fingerprint(fp),
                    None => {
                        gh.write_str("!bad-member");
                        gh.write_usize(m.index());
                    }
                }
            }
            match hashes.get(g.root.index()) {
                Some(&fp) => gh.write_fingerprint(fp),
                None => {
                    gh.write_str("!bad-root");
                    gh.write_usize(g.root.index());
                }
            }
            fused = fused.fold_unordered(gh.finish());
        }
        h.write_fingerprint(fused);
        h.finish()
    }

    /// Exact-identity fingerprint: hashes *every* serialized field —
    /// names, tags, raw operand ids, arena order, outputs, fusion
    /// groups. Two modules share this fingerprint iff they are `==`
    /// (up to hash collision). The artifact cache re-checks this on
    /// every hit so a structural-key collision or a renamed lookalike
    /// recompiles instead of returning a not-bit-identical artifact.
    #[must_use]
    pub fn identity_fingerprint(&self) -> Fingerprint {
        let mut h = StableHasher::new("overlap-module-identity-v1");
        h.write_str(&self.name);
        h.write_usize(self.num_partitions);
        h.write_usize(self.instrs.len());
        for ins in &self.instrs {
            h.write_str(&ins.name);
            match &ins.tag {
                Some(tag) => {
                    h.write_bool(true);
                    h.write_str(tag);
                }
                None => h.write_bool(false),
            }
            hash_op(&mut h, &ins.op);
            hash_shape(&mut h, &ins.shape);
            h.write_usize(ins.operands.len());
            for &op in &ins.operands {
                h.write_usize(op.index());
            }
        }
        h.write_usize(self.outputs.len());
        for &out in &self.outputs {
            h.write_usize(out.index());
        }
        h.write_usize(self.fusion_groups.len());
        for g in &self.fusion_groups {
            h.write_usize(g.members.len());
            for &m in &g.members {
                h.write_usize(m.index());
            }
            h.write_usize(g.root.index());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Builder, DType, FusionGroup, InstrId};

    fn sample(names: [&str; 4]) -> Module {
        let mut b = Builder::new("fp", 4);
        let x = b.parameter(Shape::new(DType::F32, vec![16, 8]), names[0]);
        let w = b.parameter(Shape::new(DType::F32, vec![8, 32]), names[1]);
        let wf = b.all_gather(w, 1, crate::ReplicaGroups::full(4), names[2]);
        let y = b.einsum(x, wf, DotDims::matmul(), names[3]);
        b.build(vec![y])
    }

    #[test]
    fn renaming_preserves_structural_but_not_identity() {
        let a = sample(["x", "w", "wf", "y"]);
        let b = sample(["alpha", "beta", "gamma", "delta"]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.identity_fingerprint(), b.identity_fingerprint());
        assert_eq!(a.identity_fingerprint(), sample(["x", "w", "wf", "y"]).identity_fingerprint());
    }

    #[test]
    fn structural_edits_change_the_fingerprint() {
        let base = sample(["x", "w", "wf", "y"]);
        let fp = base.fingerprint();

        // Different partition count (identical graph text otherwise).
        let plain = |n: usize| {
            let mut b = Builder::new("fp", n);
            let x = b.parameter(Shape::new(DType::F32, vec![16, 8]), "x");
            let w = b.parameter(Shape::new(DType::F32, vec![8, 32]), "w");
            let y = b.einsum(x, w, DotDims::matmul(), "y");
            b.build(vec![y])
        };
        assert_ne!(plain(4).fingerprint(), plain(8).fingerprint());

        // Different shape.
        let mut b = Builder::new("fp", 4);
        let x = b.parameter(Shape::new(DType::F32, vec![16, 8]), "x");
        let w = b.parameter(Shape::new(DType::BF16, vec![8, 32]), "w");
        let wf = b.all_gather(w, 1, crate::ReplicaGroups::full(4), "wf");
        let _ = x;
        assert_ne!(b.build(vec![wf]).fingerprint(), fp);

        // Fusion grouping participates.
        let grouped = base
            .clone()
            .with_fusion_groups(vec![FusionGroup {
                members: vec![InstrId::from_index(3)],
                root: InstrId::from_index(3),
            }])
            .unwrap();
        assert_ne!(grouped.fingerprint(), base.fingerprint());
    }

    #[test]
    fn corrupt_modules_fingerprint_without_panicking() {
        let mut m = sample(["x", "w", "wf", "y"]);
        let fp = m.fingerprint();
        // Dangling operand and out-of-range output: verify() rejects
        // both, and each must still hash, distinctly from the original.
        m.instrs[3].operands[0] = InstrId::from_index(99);
        let dangling = m.fingerprint();
        assert_ne!(dangling, fp);
        m.outputs[0] = InstrId::from_index(77);
        assert_ne!(m.fingerprint(), dangling);
    }
}
