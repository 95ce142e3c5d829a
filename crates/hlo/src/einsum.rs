//! Einsum (XLA `DotGeneral`) dimension numbers and shape/flop inference.

use crate::{HloError, Shape};

/// Dimension numbers of an `Einsum` (general dot product), following XLA's
/// `DotGeneral` convention.
///
/// Dimensions of each operand are classified as *batch* (paired between the
/// operands and present in the output), *contracting* (paired and summed
/// away) or *free* (present in only one operand; the paper calls these
/// *non-contracting* dimensions). The output layout is
/// `batch dims ++ lhs free dims ++ rhs free dims`.
///
/// # Example
///
/// ```
/// use overlap_hlo::{DotDims, DType, Shape};
/// // Batched matmul: [B, M, K] x [B, K, N] -> [B, M, N]
/// let dims = DotDims::new(vec![(0, 0)], vec![(2, 1)]).unwrap();
/// let lhs = Shape::new(DType::F32, vec![4, 8, 16]);
/// let rhs = Shape::new(DType::F32, vec![4, 16, 32]);
/// let out = dims.output_shape(&lhs, &rhs).unwrap();
/// assert_eq!(out.dims(), &[4, 8, 32]);
/// assert_eq!(dims.flops(&lhs, &rhs), 2 * 4 * 8 * 16 * 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DotDims {
    pub(crate) batch: Vec<(usize, usize)>,
    pub(crate) contracting: Vec<(usize, usize)>,
}

impl DotDims {
    /// Creates dot dimension numbers from `(lhs_dim, rhs_dim)` pairs of
    /// batch and contracting dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::InvalidEinsum`] if any dimension appears in more
    /// than one pair on the same side.
    pub fn new(
        batch: Vec<(usize, usize)>,
        contracting: Vec<(usize, usize)>,
    ) -> Result<Self, HloError> {
        let dims = DotDims { batch, contracting };
        for side in [true, false] {
            let mut seen: Vec<usize> = dims
                .batch
                .iter()
                .chain(dims.contracting.iter())
                .map(|&(l, r)| if side { l } else { r })
                .collect();
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            if seen.len() != before {
                return Err(HloError::InvalidEinsum(
                    "a dimension appears in multiple batch/contracting pairs".to_string(),
                ));
            }
        }
        Ok(dims)
    }

    /// Plain 2-D matrix multiplication: `[M, K] x [K, N] -> [M, N]`.
    #[must_use]
    pub fn matmul() -> Self {
        DotDims { batch: Vec::new(), contracting: vec![(1, 0)] }
    }

    /// Batched matrix multiplication: `[B, M, K] x [B, K, N] -> [B, M, N]`.
    #[must_use]
    pub fn batch_matmul() -> Self {
        DotDims { batch: vec![(0, 0)], contracting: vec![(2, 1)] }
    }

    /// The `(lhs, rhs)` batch dimension pairs.
    #[must_use]
    pub fn batch(&self) -> &[(usize, usize)] {
        &self.batch
    }

    /// The `(lhs, rhs)` contracting dimension pairs.
    #[must_use]
    pub fn contracting(&self) -> &[(usize, usize)] {
        &self.contracting
    }

    /// LHS dimensions that are neither batch nor contracting, in order.
    #[must_use]
    pub fn lhs_free_dims(&self, lhs_rank: usize) -> Vec<usize> {
        (0..lhs_rank)
            .filter(|d| {
                !self.batch.iter().any(|&(l, _)| l == *d)
                    && !self.contracting.iter().any(|&(l, _)| l == *d)
            })
            .collect()
    }

    /// RHS dimensions that are neither batch nor contracting, in order.
    #[must_use]
    pub fn rhs_free_dims(&self, rhs_rank: usize) -> Vec<usize> {
        (0..rhs_rank)
            .filter(|d| {
                !self.batch.iter().any(|&(_, r)| r == *d)
                    && !self.contracting.iter().any(|&(_, r)| r == *d)
            })
            .collect()
    }

    /// Whether `lhs_dim` is a batch dimension of the LHS.
    #[must_use]
    pub fn is_lhs_batch(&self, lhs_dim: usize) -> bool {
        self.batch.iter().any(|&(l, _)| l == lhs_dim)
    }

    /// Whether `lhs_dim` is a contracting dimension of the LHS.
    #[must_use]
    pub fn is_lhs_contracting(&self, lhs_dim: usize) -> bool {
        self.contracting.iter().any(|&(l, _)| l == lhs_dim)
    }

    /// Whether `rhs_dim` is a batch dimension of the RHS.
    #[must_use]
    pub fn is_rhs_batch(&self, rhs_dim: usize) -> bool {
        self.batch.iter().any(|&(_, r)| r == rhs_dim)
    }

    /// Whether `rhs_dim` is a contracting dimension of the RHS.
    #[must_use]
    pub fn is_rhs_contracting(&self, rhs_dim: usize) -> bool {
        self.contracting.iter().any(|&(_, r)| r == rhs_dim)
    }

    /// The RHS dimension paired (as batch or contracting) with `lhs_dim`,
    /// if any.
    #[must_use]
    pub fn rhs_dim_paired_with(&self, lhs_dim: usize) -> Option<usize> {
        self.batch
            .iter()
            .chain(self.contracting.iter())
            .find(|&&(l, _)| l == lhs_dim)
            .map(|&(_, r)| r)
    }

    /// The LHS dimension paired (as batch or contracting) with `rhs_dim`,
    /// if any.
    #[must_use]
    pub fn lhs_dim_paired_with(&self, rhs_dim: usize) -> Option<usize> {
        self.batch
            .iter()
            .chain(self.contracting.iter())
            .find(|&&(_, r)| r == rhs_dim)
            .map(|&(l, _)| l)
    }

    /// Returns the transposed dimension numbers with LHS and RHS swapped.
    ///
    /// `swap().output_shape(rhs, lhs)` has the same dimension *sizes* as
    /// `output_shape(lhs, rhs)` but with the free-dimension blocks exchanged.
    #[must_use]
    pub fn swapped(&self) -> Self {
        DotDims {
            batch: self.batch.iter().map(|&(l, r)| (r, l)).collect(),
            contracting: self.contracting.iter().map(|&(l, r)| (r, l)).collect(),
        }
    }

    /// Position of `lhs_dim` (a free LHS dimension) in the output, if free.
    #[must_use]
    pub fn output_dim_of_lhs_free(&self, lhs_rank: usize, lhs_dim: usize) -> Option<usize> {
        let free = self.lhs_free_dims(lhs_rank);
        free.iter().position(|&d| d == lhs_dim).map(|i| self.batch.len() + i)
    }

    /// Position of `rhs_dim` (a free RHS dimension) in the output, if free.
    #[must_use]
    pub fn output_dim_of_rhs_free(
        &self,
        lhs_rank: usize,
        rhs_rank: usize,
        rhs_dim: usize,
    ) -> Option<usize> {
        let free = self.rhs_free_dims(rhs_rank);
        free.iter()
            .position(|&d| d == rhs_dim)
            .map(|i| self.batch.len() + self.lhs_free_dims(lhs_rank).len() + i)
    }

    /// Infers the output shape for the given operand shapes.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::InvalidEinsum`] if a referenced dimension is out
    /// of range or a paired dimension's sizes disagree.
    pub fn output_shape(&self, lhs: &Shape, rhs: &Shape) -> Result<Shape, HloError> {
        for &(l, r) in self.batch.iter().chain(self.contracting.iter()) {
            if l >= lhs.rank() || r >= rhs.rank() {
                return Err(HloError::InvalidEinsum(format!(
                    "dimension pair ({l},{r}) out of range for {lhs} x {rhs}"
                )));
            }
            if lhs.dim(l) != rhs.dim(r) {
                return Err(HloError::InvalidEinsum(format!(
                    "paired dimensions disagree: lhs dim {l} = {} vs rhs dim {r} = {}",
                    lhs.dim(l),
                    rhs.dim(r)
                )));
            }
        }
        if lhs.dtype() != rhs.dtype() {
            return Err(HloError::InvalidEinsum(format!(
                "operand dtypes disagree: {} vs {}",
                lhs.dtype(),
                rhs.dtype()
            )));
        }
        let mut dims: Vec<usize> = self.batch.iter().map(|&(l, _)| lhs.dim(l)).collect();
        dims.extend(self.lhs_free_dims(lhs.rank()).iter().map(|&d| lhs.dim(d)));
        dims.extend(self.rhs_free_dims(rhs.rank()).iter().map(|&d| rhs.dim(d)));
        Ok(Shape::new(lhs.dtype(), dims))
    }

    /// Number of floating-point operations (multiply + add counted
    /// separately, the usual `2·M·N·K` convention).
    #[must_use]
    pub fn flops(&self, lhs: &Shape, rhs: &Shape) -> u64 {
        let batch: u64 = self.batch.iter().map(|&(l, _)| lhs.dim(l) as u64).product();
        let contract: u64 = self.contracting.iter().map(|&(l, _)| lhs.dim(l) as u64).product();
        let lhs_free: u64 =
            self.lhs_free_dims(lhs.rank()).iter().map(|&d| lhs.dim(d) as u64).product();
        let rhs_free: u64 =
            self.rhs_free_dims(rhs.rank()).iter().map(|&d| rhs.dim(d) as u64).product();
        2 * batch * contract * lhs_free * rhs_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DType;

    fn s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    #[test]
    fn matmul_shape() {
        let d = DotDims::matmul();
        let out = d.output_shape(&s(&[8, 16]), &s(&[16, 32])).unwrap();
        assert_eq!(out.dims(), &[8, 32]);
        assert_eq!(d.flops(&s(&[8, 16]), &s(&[16, 32])), 2 * 8 * 16 * 32);
    }

    #[test]
    fn batch_matmul_shape() {
        let d = DotDims::batch_matmul();
        let out = d.output_shape(&s(&[3, 8, 16]), &s(&[3, 16, 4])).unwrap();
        assert_eq!(out.dims(), &[3, 8, 4]);
    }

    #[test]
    fn free_dims() {
        let d = DotDims::batch_matmul();
        assert_eq!(d.lhs_free_dims(3), vec![1]);
        assert_eq!(d.rhs_free_dims(3), vec![2]);
        assert!(d.is_lhs_batch(0));
        assert!(d.is_lhs_contracting(2));
        assert!(d.is_rhs_batch(0));
        assert!(d.is_rhs_contracting(1));
    }

    #[test]
    fn mismatched_sizes_rejected() {
        let d = DotDims::matmul();
        assert!(d.output_shape(&s(&[8, 16]), &s(&[17, 32])).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        let d = DotDims::new(vec![], vec![(5, 0)]).unwrap();
        assert!(d.output_shape(&s(&[8, 16]), &s(&[16, 4])).is_err());
    }

    #[test]
    fn duplicate_dims_rejected() {
        assert!(DotDims::new(vec![(0, 0)], vec![(0, 1)]).is_err());
        assert!(DotDims::new(vec![(0, 0)], vec![(1, 0)]).is_err());
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let d = DotDims::matmul();
        let lhs = Shape::new(DType::F32, vec![2, 3]);
        let rhs = Shape::new(DType::BF16, vec![3, 4]);
        assert!(d.output_shape(&lhs, &rhs).is_err());
    }

    #[test]
    fn swapped_round_trips() {
        let d = DotDims::new(vec![(0, 1)], vec![(2, 0)]).unwrap();
        assert_eq!(d.swapped().swapped(), d);
    }

    #[test]
    fn output_positions() {
        // [B, M, K] x [K, B, N]: batch (0,1), contracting (2,0).
        let d = DotDims::new(vec![(0, 1)], vec![(2, 0)]).unwrap();
        assert_eq!(d.output_dim_of_lhs_free(3, 1), Some(1));
        assert_eq!(d.output_dim_of_rhs_free(3, 3, 2), Some(2));
        assert_eq!(d.output_dim_of_lhs_free(3, 0), None);
        assert_eq!(d.rhs_dim_paired_with(2), Some(0));
        assert_eq!(d.lhs_dim_paired_with(1), Some(0));
    }
}
