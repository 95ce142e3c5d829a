//! Dense tensor shapes.

use std::fmt;

use crate::DType;

/// Shape of a dense tensor: an element type plus a list of dimension sizes.
///
/// Rank-0 shapes are scalars. Dimension sizes of zero are permitted (the
/// verifier rejects them where an op requires non-empty data).
///
/// # Example
///
/// ```
/// use overlap_hlo::{DType, Shape};
/// let s = Shape::new(DType::F32, vec![128, 512]);
/// assert_eq!(s.rank(), 2);
/// assert_eq!(s.num_elements(), 128 * 512);
/// assert_eq!(s.byte_size(), 128 * 512 * 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    pub(crate) dtype: DType,
    pub(crate) dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from an element type and dimension sizes.
    #[must_use]
    pub fn new(dtype: DType, dims: Vec<usize>) -> Self {
        Shape { dtype, dims }
    }

    /// Creates a rank-0 (scalar) shape.
    #[must_use]
    pub fn scalar(dtype: DType) -> Self {
        Shape { dtype, dims: Vec::new() }
    }

    /// The element type.
    #[must_use]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// The dimension sizes.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Size of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= rank()`.
    #[must_use]
    pub fn dim(&self, d: usize) -> usize {
        self.dims[d]
    }

    /// Number of dimensions.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Whether this is a rank-0 scalar.
    #[must_use]
    pub fn is_scalar(&self) -> bool {
        self.dims.is_empty()
    }

    /// Total number of elements (1 for scalars).
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Total storage size in bytes.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.num_elements() * self.dtype.size_bytes()
    }

    /// Returns a copy with dimension `d` scaled by `factor`.
    ///
    /// Used for collective shape inference: `AllGather` multiplies the
    /// gathered dimension by the group size.
    ///
    /// # Panics
    ///
    /// Panics if `d >= rank()`.
    #[must_use]
    pub fn with_dim_scaled(&self, d: usize, factor: usize) -> Self {
        let mut dims = self.dims.clone();
        dims[d] *= factor;
        Shape { dtype: self.dtype, dims }
    }

    /// Returns a copy with dimension `d` divided by `factor`.
    ///
    /// Used for collective shape inference: `ReduceScatter` divides the
    /// scattered dimension by the group size.
    ///
    /// # Panics
    ///
    /// Panics if `d >= rank()` or `dims[d]` is not divisible by `factor`.
    #[must_use]
    pub fn with_dim_divided(&self, d: usize, factor: usize) -> Self {
        let mut dims = self.dims.clone();
        assert!(
            dims[d].is_multiple_of(factor),
            "dimension {d} of size {} not divisible by {factor}",
            dims[d]
        );
        dims[d] /= factor;
        Shape { dtype: self.dtype, dims }
    }

    /// Returns a copy with dimension `d` set to `size`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= rank()`.
    #[must_use]
    pub fn with_dim(&self, d: usize, size: usize) -> Self {
        let mut dims = self.dims.clone();
        dims[d] = size;
        Shape { dtype: self.dtype, dims }
    }

    /// Row-major strides (in elements) for this shape.
    #[must_use]
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for d in (0..self.rank().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * self.dims[d + 1];
        }
        strides
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.dtype)?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar(DType::S32);
        assert!(s.is_scalar());
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
        assert_eq!(s.byte_size(), 4);
        assert_eq!(s.to_string(), "s32[]");
    }

    #[test]
    fn display() {
        let s = Shape::new(DType::BF16, vec![2, 3, 4]);
        assert_eq!(s.to_string(), "bf16[2,3,4]");
    }

    #[test]
    fn scale_and_divide() {
        let s = Shape::new(DType::F32, vec![8, 16]);
        assert_eq!(s.with_dim_scaled(1, 4).dims(), &[8, 64]);
        assert_eq!(s.with_dim_divided(0, 2).dims(), &[4, 16]);
        assert_eq!(s.with_dim(0, 5).dims(), &[5, 16]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn divide_rejects_remainder() {
        let _ = Shape::new(DType::F32, vec![9]).with_dim_divided(0, 2);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(DType::F32, vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(Shape::scalar(DType::F32).strides(), Vec::<usize>::new());
    }

    #[test]
    fn zero_sized_dim() {
        let s = Shape::new(DType::F32, vec![0, 4]);
        assert_eq!(s.num_elements(), 0);
        assert_eq!(s.byte_size(), 0);
    }
}
