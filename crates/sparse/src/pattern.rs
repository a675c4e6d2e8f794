//! Sparsity patterns: CSR structure without values.
//!
//! §3.3 of the paper: "the positions of guaranteed zeros in the Jacobian is
//! deterministic with the model architecture and known ahead of time", which
//! lets index merging be hoisted out of the training loop. This type is what
//! gets hoisted.

use std::fmt;

/// The structure (indptr + column indices) of a CSR matrix, without values.
///
/// # Examples
///
/// Patterns are deterministic (known before training), so they are shared
/// behind `Arc`s: `Csr::pattern()` is a refcount bump, never a deep copy.
///
/// ```
/// use bppsa_sparse::{Csr, SparsityPattern};
/// use std::sync::Arc;
///
/// let m = Csr::from_diagonal(&[1.0_f32, 2.0]);
/// let p: Arc<SparsityPattern> = m.pattern();
/// assert_eq!(p.nnz(), 2);
/// assert_eq!(p.shape(), (2, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
}

impl SparsityPattern {
    /// Creates a pattern from raw structure arrays.
    ///
    /// # Panics
    ///
    /// Panics if `indptr.len() != rows + 1` or the final `indptr` entry does
    /// not match `indices.len()`.
    pub fn new(rows: usize, cols: usize, indptr: Vec<usize>, indices: Vec<u32>) -> Self {
        assert_eq!(indptr.len(), rows + 1, "pattern: bad indptr length");
        assert_eq!(
            *indptr.last().unwrap_or(&0),
            indices.len(),
            "pattern: indptr end does not match indices length"
        );
        Self {
            rows,
            cols,
            indptr,
            indices,
        }
    }

    /// Crate-internal constructor that skips the structural asserts, for
    /// callers that validate separately (`Csr::try_from_parts`) or
    /// intentionally build invalid structures in tests.
    pub(crate) fn new_unvalidated(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
    ) -> Self {
        Self {
            rows,
            cols,
            indptr,
            indices,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of structurally non-zero positions.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Fraction of structurally-zero entries — the "sparsity of guaranteed
    /// zeros" of Table 1.
    pub fn sparsity(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / total as f64
    }

    /// The `indptr` array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The concatenated column-index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_indices(&self, i: usize) -> &[u32] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Number of structural entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Whether position `(i, j)` is structurally non-zero.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.row_indices(i).binary_search(&(j as u32)).is_ok()
    }

    /// Whether this is the *full* square diagonal pattern: `n × n` with
    /// exactly one structural entry per row, at the diagonal position (the
    /// pattern [`Csr::from_diagonal`](crate::Csr::from_diagonal) produces,
    /// explicit zeros included). The guaranteed layout — `data()[i]` is the
    /// `(i, i)` value — is what lets the diagonal scan fast path in
    /// `bppsa-core` read a matrix's diagonal as a contiguous slice.
    ///
    /// Patterns that merely have *only* diagonal entries but are missing
    /// some (e.g. built by a zero-dropping constructor) return `false`:
    /// their products are not closed under the full-diagonal data layout.
    pub fn is_diagonal(&self) -> bool {
        self.rows == self.cols
            && self.nnz() == self.rows
            && self
                .indices
                .iter()
                .enumerate()
                .all(|(i, &j)| j as usize == i)
            && self.indptr.iter().enumerate().all(|(i, &p)| p == i)
    }

    /// Whether every position is structural, in order: row `i` holds
    /// exactly the columns `0..cols` (the pattern
    /// [`Csr::from_dense_pattern`](crate::Csr::from_dense_pattern)
    /// produces). The guaranteed layout — `data()` is the row-major dense
    /// matrix — is what lets the dense SpGEMM kernel read and write a
    /// matrix's values in place.
    pub(crate) fn is_full(&self) -> bool {
        self.nnz() == self.rows * self.cols
            && self
                .indptr
                .iter()
                .enumerate()
                .all(|(i, &p)| p == i * self.cols)
            && self
                .indices
                .iter()
                .enumerate()
                .all(|(e, &j)| j as usize == e % self.cols.max(1))
    }
}

impl fmt::Display for SparsityPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SparsityPattern[{}x{}, nnz={}, sparsity={:.5}]",
            self.rows,
            self.cols,
            self.nnz(),
            self.sparsity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;

    #[test]
    fn pattern_reflects_structure() {
        let m = Csr::try_from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0f32, 2.0, 3.0])
            .unwrap();
        let p = m.pattern();
        assert_eq!(p.shape(), (2, 3));
        assert_eq!(p.nnz(), 3);
        assert!(p.contains(0, 2));
        assert!(!p.contains(0, 1));
        assert_eq!(p.row_nnz(1), 1);
    }

    #[test]
    fn sparsity_of_empty_and_full() {
        let empty = SparsityPattern::new(2, 2, vec![0, 0, 0], vec![]);
        assert_eq!(empty.sparsity(), 1.0);
        let full = SparsityPattern::new(1, 2, vec![0, 2], vec![0, 1]);
        assert_eq!(full.sparsity(), 0.0);
    }

    #[test]
    fn is_full_requires_every_column_in_order() {
        assert!(SparsityPattern::new(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1]).is_full());
        // Right count, wrong layout: a duplicated column and a missing one.
        assert!(!SparsityPattern::new(2, 2, vec![0, 2, 4], vec![0, 1, 1, 1]).is_full());
        // An empty row.
        assert!(!SparsityPattern::new(2, 2, vec![0, 2, 2], vec![0, 1]).is_full());
        // Zero-width rows are vacuously full; zero rows too.
        assert!(SparsityPattern::new(3, 0, vec![0, 0, 0, 0], vec![]).is_full());
        assert!(SparsityPattern::new(0, 4, vec![0], vec![]).is_full());
    }

    #[test]
    fn zero_sized_pattern_sparsity_is_zero() {
        let p = SparsityPattern::new(0, 0, vec![0], vec![]);
        assert_eq!(p.sparsity(), 0.0);
        assert_eq!(p.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "bad indptr length")]
    fn new_rejects_bad_indptr() {
        let _ = SparsityPattern::new(2, 2, vec![0, 1], vec![0]);
    }

    #[test]
    fn is_diagonal_requires_the_full_diagonal() {
        assert!(Csr::from_diagonal(&[1.0f64, 0.0, -2.0])
            .pattern_ref()
            .is_diagonal());
        // A hole in the diagonal (as a zero-dropping constructor would
        // leave): not full-diagonal.
        let holey = SparsityPattern::new(2, 2, vec![0, 1, 1], vec![0]);
        assert!(!holey.is_diagonal());
        // Off-diagonal entry.
        let off = SparsityPattern::new(2, 2, vec![0, 1, 2], vec![1, 0]);
        assert!(!off.is_diagonal());
        // Rectangular.
        let rect = SparsityPattern::new(2, 3, vec![0, 1, 2], vec![0, 1]);
        assert!(!rect.is_diagonal());
        // Empty square (vacuously full-diagonal).
        assert!(SparsityPattern::new(0, 0, vec![0], vec![]).is_diagonal());
    }

    #[test]
    fn display_includes_sparsity() {
        let p = SparsityPattern::new(1, 2, vec![0, 1], vec![0]);
        assert!(format!("{p}").contains("sparsity=0.5"));
    }
}
