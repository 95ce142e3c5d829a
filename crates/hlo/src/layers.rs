//! Cross-layer structure recovered from instruction names.
//!
//! The stacked window modules built by `overlap-models` prefix every
//! instruction of layer *k* with `L<k>.` (e.g. `L2.fwd_qkv`); every pass
//! in the pipeline derives generated names from the source instruction's
//! name (`L2.fwd_qkv.partial`, `L2.fwd_qkv.cp.1.done`, …), so the
//! prefix — and hence the layer structure — survives decomposition,
//! fusion and CSE. [`LayerTags`] parses the prefixes back out and
//! normalizes them into a *monotone* per-instruction layer tag the
//! cross-layer windowed schedulers (`overlap-core`) can bound their
//! lookahead with.
//!
//! Monotonicity is the load-bearing invariant: after normalization,
//! `tag[user] >= tag[operand]` for every dataflow edge. It guarantees a
//! windowed scheduler can never deadlock — the dependence-minimal
//! unscheduled instruction of the lowest (resp. highest) incomplete
//! layer is always both ready and inside the window.

use crate::{InstrId, Module};

/// Per-instruction layer tags for one module, parsed from `L<k>.` name
/// prefixes and normalized to be monotone along dataflow edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTags {
    tag: Vec<u32>,
    num_layers: u32,
}

/// Parses a leading `L<digits>.` prefix from an instruction name.
fn parse_prefix(name: &str) -> Option<u32> {
    let rest = name.strip_prefix('L')?;
    let digits: usize = rest.bytes().take_while(u8::is_ascii_digit).count();
    if digits == 0 || rest.as_bytes().get(digits) != Some(&b'.') {
        return None;
    }
    rest[..digits].parse().ok()
}

impl LayerTags {
    /// Derives the tags for `module`. Instructions without an `L<k>.`
    /// prefix inherit the maximum tag of their operands (layer 0 when
    /// they have none — parameters, index constants); prefixed
    /// instructions are also raised to that maximum, so the result is
    /// monotone even if a pass moved a value across the nominal
    /// boundary. Single-layer modules (no prefixes anywhere) come out
    /// with every tag 0 and [`LayerTags::num_layers`] = 1.
    #[must_use]
    pub fn of(module: &Module) -> Self {
        let n = module.len();
        let mut tag = vec![0u32; n];
        let mut num_layers = 1u32;
        for (id, ins) in module.iter() {
            let mut t = parse_prefix(ins.name()).unwrap_or(0);
            for &op in ins.operands() {
                if op.index() < n {
                    t = t.max(tag[op.index()]);
                }
            }
            tag[id.index()] = t;
            num_layers = num_layers.max(t + 1);
        }
        LayerTags { tag, num_layers }
    }

    /// The normalized layer of one instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn layer_of(&self, id: InstrId) -> u32 {
        self.tag[id.index()]
    }

    /// Dense `InstrId`-indexed tag table.
    #[must_use]
    pub fn tags(&self) -> &[u32] {
        &self.tag
    }

    /// Number of distinct layers (`max tag + 1`; `1` for untagged
    /// modules, where a windowed scheduler has nothing to do).
    #[must_use]
    pub fn num_layers(&self) -> u32 {
        self.num_layers
    }

    /// Cross-layer dependence slack: the number of instructions whose
    /// operands all live in *strictly earlier* layers. These are exactly
    /// the instructions a cross-layer window can hoist ahead of the
    /// producing layer's stragglers (weight-ring permute chains, shard
    /// slices of already-final values), so the count is a cheap upper
    /// bound on how much a window > 1 can possibly help. Instructions
    /// with no operands (parameters, constants) are not counted.
    #[must_use]
    pub fn cross_layer_slack(&self, module: &Module) -> usize {
        let n = module.len();
        module
            .iter()
            .filter(|(id, ins)| {
                !ins.operands().is_empty()
                    && ins.operands().iter().all(|&op| {
                        op.index() < n && self.tag[op.index()] < self.tag[id.index()]
                    })
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Builder, DType, DotDims, Shape};

    fn f32s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    #[test]
    fn prefix_parsing_is_strict() {
        assert_eq!(parse_prefix("L0.fwd_qkv"), Some(0));
        assert_eq!(parse_prefix("L12.bwd_qkv_dw.cp.3"), Some(12));
        assert_eq!(parse_prefix("fwd_qkv"), None);
        assert_eq!(parse_prefix("L.x"), None);
        assert_eq!(parse_prefix("L3x"), None);
        assert_eq!(parse_prefix("Layer3.x"), None);
    }

    #[test]
    fn untagged_modules_are_single_layer() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[2, 3]), "x");
        let w = b.parameter(f32s(&[3, 4]), "w");
        let y = b.einsum(x, w, DotDims::matmul(), "y");
        let m = b.build(vec![y]);
        let tags = LayerTags::of(&m);
        assert_eq!(tags.num_layers(), 1);
        assert!(tags.tags().iter().all(|&t| t == 0));
        assert_eq!(tags.cross_layer_slack(&m), 0);
    }

    #[test]
    fn tags_are_monotone_along_edges() {
        // L1's einsum consumes an L0 value; an unprefixed copy of an L1
        // value must inherit the L1 tag (monotone normalization).
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[2, 3]), "L0.x");
        let w0 = b.parameter(f32s(&[3, 3]), "L0.w");
        let h = b.einsum(x, w0, DotDims::matmul(), "L0.h");
        let w1 = b.parameter(f32s(&[3, 4]), "L1.w");
        let y = b.einsum(h, w1, DotDims::matmul(), "L1.y");
        let c = b.copy(y, "untagged_copy");
        let m = b.build(vec![c]);
        let tags = LayerTags::of(&m);
        assert_eq!(tags.num_layers(), 2);
        assert_eq!(tags.layer_of(h), 0);
        assert_eq!(tags.layer_of(y), 1);
        assert_eq!(tags.layer_of(c), 1);
        for (id, ins) in m.iter() {
            for &op in ins.operands() {
                assert!(tags.layer_of(op) <= tags.layer_of(id));
            }
        }
        // Slack: only L1.y has all operands strictly below its layer?
        // No — its lhs `h` is L0 but `w1` is L1 (parameter prefixed L1),
        // and parameters have no operands. w1 is a parameter (skipped);
        // y's operands are h (L0) and w1 (L1) -> not all strictly lower.
        assert_eq!(tags.cross_layer_slack(&m), 0);
    }

    #[test]
    fn slack_counts_hoistable_instructions() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[2, 3]), "L0.x");
        let w0 = b.parameter(f32s(&[3, 3]), "L0.w");
        let h = b.einsum(x, w0, DotDims::matmul(), "L0.h");
        // An L1 op whose only operand is the finished L0 output: pure
        // cross-layer slack (a window >= 2 can issue it during L0).
        let c = b.copy(h, "L1.stage");
        let w1 = b.parameter(f32s(&[3, 4]), "L1.w");
        let y = b.einsum(c, w1, DotDims::matmul(), "L1.y");
        let m = b.build(vec![y]);
        let tags = LayerTags::of(&m);
        assert_eq!(tags.cross_layer_slack(&m), 1);
    }
}
