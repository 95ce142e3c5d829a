//! Element types supported by the IR.

use std::fmt;

/// Element type of a tensor [`Shape`](crate::Shape).
///
/// Only the types that appear in the paper's transformation are modeled:
/// floating-point activations/weights (`F32`, `BF16`), signed integers for
/// index arithmetic (`S32`), unsigned partition ids (`U32`) and booleans
/// (`Pred`).
///
/// # Example
///
/// ```
/// use overlap_hlo::DType;
/// assert_eq!(DType::BF16.size_bytes(), 2);
/// assert!(DType::F32.is_float());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 32-bit IEEE-754 float.
    F32,
    /// 16-bit brain float (storage/traffic modeling; numerics use f32 math).
    BF16,
    /// 32-bit signed integer (index arithmetic).
    S32,
    /// 32-bit unsigned integer (partition ids).
    U32,
    /// Boolean predicate.
    Pred,
}

impl DType {
    /// Size of one element in bytes.
    #[must_use]
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 | DType::S32 | DType::U32 => 4,
            DType::BF16 => 2,
            DType::Pred => 1,
        }
    }

    /// Whether this is a floating-point type.
    #[must_use]
    pub fn is_float(self) -> bool {
        matches!(self, DType::F32 | DType::BF16)
    }

    /// Whether this is an integer type usable for index arithmetic.
    #[must_use]
    pub fn is_integer(self) -> bool {
        matches!(self, DType::S32 | DType::U32)
    }

    /// Lowercase HLO-style name (`f32`, `bf16`, `s32`, `u32`, `pred`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::BF16 => "bf16",
            DType::S32 => "s32",
            DType::U32 => "u32",
            DType::Pred => "pred",
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::BF16.size_bytes(), 2);
        assert_eq!(DType::S32.size_bytes(), 4);
        assert_eq!(DType::U32.size_bytes(), 4);
        assert_eq!(DType::Pred.size_bytes(), 1);
    }

    #[test]
    fn classification() {
        assert!(DType::F32.is_float());
        assert!(DType::BF16.is_float());
        assert!(!DType::S32.is_float());
        assert!(DType::S32.is_integer());
        assert!(DType::U32.is_integer());
        assert!(!DType::Pred.is_integer());
        assert!(!DType::Pred.is_float());
    }

    #[test]
    fn display_matches_name() {
        for d in [DType::F32, DType::BF16, DType::S32, DType::U32, DType::Pred] {
            assert_eq!(d.to_string(), d.name());
        }
    }
}
