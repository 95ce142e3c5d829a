//! Instructions: nodes of the dataflow graph.

use std::fmt;
use std::sync::Arc;

use crate::{Op, Shape};

/// Identifier of an [`Instruction`] within its [`Module`](crate::Module).
///
/// Ids are arena indices; an instruction's operands always have smaller ids
/// than the instruction itself (the builder enforces use-after-def), so the
/// arena order is a valid topological order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstrId(pub(crate) u32);

impl InstrId {
    /// The raw arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates an id from a raw arena index.
    ///
    /// Prefer ids returned by the [`Builder`](crate::Builder); this exists
    /// for tables keyed by dense indices.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        InstrId(index as u32)
    }
}

impl fmt::Display for InstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// One node of the dataflow graph: an operation, its operands and its
/// result shape, plus a human-readable name and an optional pass-assigned
/// tag used for reporting (e.g. `"lce.partial_einsum"` on instructions
/// emitted by the decomposition).
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    pub(crate) name: String,
    pub(crate) shape: Shape,
    pub(crate) op: Op,
    pub(crate) operands: Vec<InstrId>,
    pub(crate) tag: Option<Arc<str>>,
}

impl Instruction {
    /// The instruction's name (unique within its module).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The result shape.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The operation payload.
    #[must_use]
    pub fn op(&self) -> &Op {
        &self.op
    }

    /// The operand ids, in order.
    #[must_use]
    pub fn operands(&self) -> &[InstrId] {
        &self.operands
    }

    /// The pass-assigned tag, if any.
    #[must_use]
    pub fn tag(&self) -> Option<&str> {
        self.tag.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_round_trip() {
        let id = InstrId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "%7");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(InstrId::from_index(1) < InstrId::from_index(2));
    }
}
