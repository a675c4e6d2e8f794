//! Compressed Sparse Row matrices.
//!
//! CSR is the format the paper stores transposed Jacobians in (§3.3): the
//! first VGG-11 convolution's Jacobian shrinks from 768 MB dense to 6.5 MB in
//! CSR. Column indices are `u32` (the paper's matrices have at most ~10⁵
//! columns), halving index memory relative to `usize`.
//!
//! Structure and values are stored separately: a [`Csr`] holds its
//! [`SparsityPattern`] behind an [`Arc`] plus a flat value array. Because the
//! paper's Jacobian patterns are deterministic (§3.3), the same pattern is
//! shared — by refcount bump, never by deep copy — across every iteration's
//! Jacobian, every [`SymbolicProduct`](crate::SymbolicProduct) plan, and
//! every workspace buffer derived from it.

use crate::{CsrError, SparsityPattern};
use bppsa_tensor::{Matrix, Scalar, Vector};
use std::fmt;
use std::sync::Arc;

/// A sparse matrix in Compressed Sparse Row format.
///
/// Invariants (checked by [`Csr::validate`], maintained by all constructors):
/// `indptr.len() == rows + 1`, `indptr` is non-decreasing and starts at 0,
/// `indices.len() == data.len() == indptr[rows]`, column indices are in range
/// and strictly increasing within each row.
///
/// The pattern is [`Arc`]-shared: [`Csr::pattern`] and value-preserving
/// transforms ([`Csr::scaled`], [`Csr::map_values`], [`Csr::clone`]) never
/// copy the index arrays.
///
/// # Examples
///
/// ```
/// use bppsa_sparse::Csr;
/// use bppsa_tensor::{Matrix, Vector};
///
/// let dense = Matrix::from_rows(&[&[1.0_f32, 0.0], &[0.0, 2.0]]);
/// let sparse = Csr::from_dense(&dense);
/// assert_eq!(sparse.nnz(), 2);
/// let y = sparse.spmv(&Vector::from_vec(vec![3.0, 4.0]));
/// assert_eq!(y.as_slice(), &[3.0, 8.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<S> {
    pattern: Arc<SparsityPattern>,
    data: Vec<S>,
}

impl<S: Scalar> Csr<S> {
    /// Creates an empty (all-zero) matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            pattern: Arc::new(SparsityPattern::new(
                rows,
                cols,
                vec![0; rows + 1],
                Vec::new(),
            )),
            data: Vec::new(),
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self {
            pattern: Arc::new(SparsityPattern::new(
                n,
                n,
                (0..=n).collect(),
                (0..n as u32).collect(),
            )),
            data: vec![S::ONE; n],
        }
    }

    /// Creates an `n × n` diagonal matrix from `diag`, storing explicit zeros.
    ///
    /// The ReLU transposed Jacobian of the paper is exactly this shape: its
    /// *guaranteed-zero* pattern is the off-diagonal, while on-diagonal zeros
    /// are input-dependent "possible zeros" that CSR keeps explicitly so the
    /// sparsity pattern stays deterministic (§3.3).
    pub fn from_diagonal(diag: &[S]) -> Self {
        let n = diag.len();
        Self {
            pattern: Arc::new(SparsityPattern::new(
                n,
                n,
                (0..=n).collect(),
                (0..n as u32).collect(),
            )),
            data: diag.to_vec(),
        }
    }

    /// Creates an all-structural-zeros matrix sharing `pattern` (the buffer
    /// shape workspace slots are pre-allocated in: the pattern is a refcount
    /// bump, only the value array is owned).
    pub fn from_pattern(pattern: Arc<SparsityPattern>) -> Self {
        let nnz = pattern.nnz();
        Self {
            pattern,
            data: vec![S::ZERO; nnz],
        }
    }

    /// Builds a CSR matrix from an existing (trusted) pattern and values.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != pattern.nnz()`.
    pub fn from_pattern_and_values(pattern: Arc<SparsityPattern>, data: Vec<S>) -> Self {
        assert_eq!(
            data.len(),
            pattern.nnz(),
            "from_pattern_and_values: value count does not match pattern nnz"
        );
        Self { pattern, data }
    }

    /// Raw constructor without any validation (used by tests that need to
    /// build *invalid* matrices, and internally after validation).
    pub(crate) fn from_raw_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<S>,
    ) -> Self {
        Self {
            pattern: Arc::new(SparsityPattern::new_unvalidated(
                rows, cols, indptr, indices,
            )),
            data,
        }
    }

    /// Builds a CSR matrix from raw parts, validating all invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`CsrError`] describing the first violated invariant.
    pub fn try_from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<S>,
    ) -> Result<Self, CsrError> {
        let m = Self::from_raw_parts(rows, cols, indptr, indices, data);
        m.validate()?;
        Ok(m)
    }

    /// Builds a CSR matrix from raw parts without validation.
    ///
    /// This is the fast path used by the analytic Jacobian generators, which
    /// construct rows in sorted order by design. Invariants are still checked
    /// in debug builds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the invariants do not hold.
    pub fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<S>,
    ) -> Self {
        let m = Self::from_raw_parts(rows, cols, indptr, indices, data);
        debug_assert_eq!(m.validate(), Ok(()));
        m
    }

    /// Converts a dense matrix keeping **every** position as a structural
    /// entry (zeros stored explicitly). Used when the whole dense block is a
    /// guaranteed-nonzero region — e.g. `Wᵀ` of a linear layer — so the
    /// pattern stays deterministic under value changes.
    pub fn from_dense_pattern(dense: &Matrix<S>) -> Self {
        let (rows, cols) = dense.shape();
        let indptr = (0..=rows).map(|i| i * cols).collect();
        let indices = (0..rows).flat_map(|_| 0..cols as u32).collect();
        Self::from_raw_parts(rows, cols, indptr, indices, dense.as_slice().to_vec())
    }

    /// Converts a dense matrix, keeping exactly the non-zero entries.
    pub fn from_dense(dense: &Matrix<S>) -> Self {
        let (rows, cols) = dense.shape();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for i in 0..rows {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v != S::ZERO {
                    indices.push(j as u32);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Self::from_raw_parts(rows, cols, indptr, indices, data)
    }

    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> Matrix<S> {
        let mut m = Matrix::zeros(self.rows(), self.cols());
        for i in 0..self.rows() {
            for (&j, &v) in self.row_indices(i).iter().zip(self.row_data(i)) {
                m.set(i, j as usize, v);
            }
        }
        m
    }

    /// Checks all structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`CsrError`] describing the first violated invariant.
    pub fn validate(&self) -> Result<(), CsrError> {
        let (rows, cols) = self.pattern.shape();
        let indptr = self.pattern.indptr();
        let indices = self.pattern.indices();
        if indptr.len() != rows + 1 {
            return Err(CsrError::IndptrLength {
                expected: rows + 1,
                actual: indptr.len(),
            });
        }
        if indptr[0] != 0 {
            return Err(CsrError::IndptrStart);
        }
        for i in 0..rows {
            if indptr[i + 1] < indptr[i] {
                return Err(CsrError::IndptrMonotonicity { row: i });
            }
        }
        if indptr[rows] != indices.len() {
            return Err(CsrError::IndptrEnd {
                expected: indptr[rows],
                actual: indices.len(),
            });
        }
        if indices.len() != self.data.len() {
            return Err(CsrError::DataLength {
                indices: indices.len(),
                data: self.data.len(),
            });
        }
        for i in 0..rows {
            let row = &indices[indptr[i]..indptr[i + 1]];
            for (k, &j) in row.iter().enumerate() {
                if j as usize >= cols {
                    return Err(CsrError::ColumnOutOfRange {
                        row: i,
                        col: j as usize,
                        cols,
                    });
                }
                if k > 0 && row[k - 1] >= j {
                    return Err(CsrError::UnsortedRow { row: i });
                }
            }
        }
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.pattern.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.pattern.cols()
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        self.pattern.shape()
    }

    /// Number of stored entries (including explicit zeros).
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// Fraction of *unstored* entries over all entries — the "sparsity of
    /// guaranteed zeros" from Table 1 when the pattern stores exactly the
    /// guaranteed-nonzero positions.
    pub fn sparsity(&self) -> f64 {
        self.pattern.sparsity()
    }

    /// The `indptr` array (length `rows + 1`).
    pub fn indptr(&self) -> &[usize] {
        self.pattern.indptr()
    }

    /// The concatenated column-index array.
    pub fn indices(&self) -> &[u32] {
        self.pattern.indices()
    }

    /// The concatenated value array.
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Mutable view of the value array (pattern-preserving updates only).
    pub fn data_mut(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Copies the values of `other` into `self` without touching patterns.
    ///
    /// The allocation-free way to refresh a workspace buffer with a new
    /// iteration's Jacobian values.
    ///
    /// # Panics
    ///
    /// Panics if the two matrices do not share the same pattern.
    pub fn copy_values_from(&mut self, other: &Self) {
        assert!(
            self.same_pattern(other),
            "copy_values_from: pattern mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Replaces this buffer's pattern (refcount bump) and resizes the value
    /// array to match, zero-filled. Performs no heap allocation once the
    /// value array's capacity has grown to its steady-state maximum.
    pub fn reset_to_pattern(&mut self, pattern: &Arc<SparsityPattern>) {
        self.pattern = Arc::clone(pattern);
        self.data.clear();
        self.data.resize(pattern.nnz(), S::ZERO);
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_indices(&self, i: usize) -> &[u32] {
        self.pattern.row_indices(i)
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_data(&self, i: usize) -> &[S] {
        let indptr = self.pattern.indptr();
        &self.data[indptr[i]..indptr[i + 1]]
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.pattern.row_nnz(i)
    }

    /// Value at `(i, j)`, or zero if the entry is not stored.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    pub fn get(&self, i: usize, j: usize) -> S {
        assert!(
            i < self.rows() && j < self.cols(),
            "get({i},{j}) out of bounds"
        );
        let row = self.row_indices(i);
        match row.binary_search(&(j as u32)) {
            Ok(k) => self.row_data(i)[k],
            Err(_) => S::ZERO,
        }
    }

    /// The sparsity pattern, shared by refcount bump (never deep-copied).
    pub fn pattern(&self) -> Arc<SparsityPattern> {
        Arc::clone(&self.pattern)
    }

    /// Borrow of the shared pattern handle (no refcount traffic; useful for
    /// `Arc::ptr_eq` fast paths).
    pub fn pattern_ref(&self) -> &Arc<SparsityPattern> {
        &self.pattern
    }

    /// Whether `self` and `other` share the exact same pattern. Pointer
    /// equality of the shared pattern short-circuits the structural compare.
    pub fn same_pattern(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.pattern, &other.pattern) || self.pattern == other.pattern
    }

    /// Sparse matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &Vector<S>) -> Vector<S> {
        assert_eq!(
            x.len(),
            self.cols(),
            "spmv: vector length {} does not match cols {}",
            x.len(),
            self.cols()
        );
        // Delegates to `spmv_into` rather than an iterator `sum()`: float
        // `Sum` folds from `-0.0` (preserving negative-zero sums), while
        // the explicit `+0.0` accumulator canonicalizes a `-0.0` product to
        // `+0.0`. All numeric kernels must agree on that sign bit for
        // planned and unplanned executions to stay bit-identical.
        let mut out = Vector::zeros(self.rows());
        self.spmv_into(x, &mut out);
        out
    }

    /// Sparse matrix–vector product into a caller-owned output vector
    /// (allocation-free; the workspace executor's SpMV kernel).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn spmv_into(&self, x: &Vector<S>, out: &mut Vector<S>) {
        assert_eq!(
            x.len(),
            self.cols(),
            "spmv_into: vector length {} does not match cols {}",
            x.len(),
            self.cols()
        );
        assert_eq!(
            out.len(),
            self.rows(),
            "spmv_into: output length {} does not match rows {}",
            out.len(),
            self.rows()
        );
        let xs = x.as_slice();
        let indptr = self.pattern.indptr();
        let indices = self.pattern.indices();
        for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
            let mut acc = S::ZERO;
            for k in indptr[i]..indptr[i + 1] {
                acc += self.data[k] * xs[indices[k] as usize];
            }
            *o = acc;
        }
    }

    /// Returns the transpose as a new CSR matrix (two-pass counting sort,
    /// producing sorted rows).
    pub fn transposed(&self) -> Self {
        let rows = self.rows();
        let cols = self.cols();
        let mut counts = vec![0usize; cols + 1];
        for &j in self.indices() {
            counts[j as usize + 1] += 1;
        }
        for j in 0..cols {
            counts[j + 1] += counts[j];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut data = vec![S::ZERO; self.nnz()];
        let mut next = counts;
        for i in 0..rows {
            for (&j, &v) in self.row_indices(i).iter().zip(self.row_data(i)) {
                let dst = next[j as usize];
                indices[dst] = i as u32;
                data[dst] = v;
                next[j as usize] += 1;
            }
        }
        Self::from_raw_parts(cols, rows, indptr, indices, data)
    }

    /// Returns `self` with every stored value scaled by `alpha` (pattern
    /// unchanged — and *shared*, even if `alpha == 0`).
    pub fn scaled(&self, alpha: S) -> Self {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= alpha;
        }
        out
    }

    /// Applies `f` to every stored value, keeping (and sharing) the pattern.
    pub fn map_values(&self, mut f: impl FnMut(S) -> S) -> Self {
        let mut out = self.clone();
        for v in &mut out.data {
            *v = f(*v);
        }
        out
    }

    /// Drops stored entries with value exactly zero, shrinking the pattern.
    pub fn pruned(&self) -> Self {
        let rows = self.rows();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for i in 0..rows {
            for (&j, &v) in self.row_indices(i).iter().zip(self.row_data(i)) {
                if v != S::ZERO {
                    indices.push(j);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Self::from_raw_parts(rows, self.cols(), indptr, indices, data)
    }

    /// Memory footprint in bytes of the three CSR arrays (the paper's
    /// 768 MB → 6.5 MB comparison for the first VGG-11 convolution).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.indptr())
            + std::mem::size_of_val(self.indices())
            + self.data.len() * std::mem::size_of::<S>()
    }

    /// Largest absolute difference to a dense reference.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff_dense(&self, dense: &Matrix<S>) -> S {
        assert_eq!(self.shape(), dense.shape(), "max_abs_diff: shape mismatch");
        self.to_dense().max_abs_diff(dense)
    }
}

impl<S: Scalar> fmt::Display for Csr<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Csr[{}x{}, nnz={} ({:.4}% dense)]",
            self.rows(),
            self.cols(),
            self.nnz(),
            100.0 * (1.0 - self.sparsity())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f64> {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        Csr::try_from_parts(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_dense() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d.get(0, 2), 2.0);
        assert_eq!(d.get(1, 1), 0.0);
        let back = Csr::from_dense(&d);
        assert_eq!(back, m);
    }

    #[test]
    fn get_returns_stored_and_zero() {
        let m = sample();
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let x = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let y = m.spmv(&x);
        let yd = m.to_dense().matvec(&x);
        assert!(y.approx_eq(&yd, 1e-12));
        assert_eq!(y.as_slice(), &[7.0, 0.0, 11.0]);
    }

    #[test]
    fn spmv_into_matches_spmv() {
        let m = sample();
        let x = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let mut out = Vector::zeros(3);
        m.spmv_into(&x, &mut out);
        assert_eq!(out, m.spmv(&x));
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        let t = m.transposed();
        assert_eq!(t.validate(), Ok(()));
        assert!(t.to_dense().approx_eq(&m.to_dense().transposed(), 0.0));
        // Transposing twice returns the original.
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn identity_spmv_is_identity() {
        let i = Csr::<f32>::identity(5);
        let x = Vector::from_fn(5, |k| k as f32);
        assert_eq!(i.spmv(&x), x);
        assert_eq!(i.nnz(), 5);
    }

    #[test]
    fn from_diagonal_keeps_explicit_zeros() {
        let d = Csr::from_diagonal(&[1.0f32, 0.0, 3.0]);
        // Explicit zero stays in the pattern: deterministic sparsity (§3.3).
        assert_eq!(d.nnz(), 3);
        assert_eq!(d.get(1, 1), 0.0);
        let p = d.pruned();
        assert_eq!(p.nnz(), 2);
    }

    #[test]
    fn validate_catches_bad_indptr() {
        let bad = Csr::<f32>::from_raw_parts(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(bad.validate(), Err(CsrError::IndptrLength { .. })));
    }

    #[test]
    fn validate_catches_unsorted_row() {
        let bad = Csr::<f32>::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
        assert!(matches!(bad.validate(), Err(CsrError::UnsortedRow { .. })));
    }

    #[test]
    fn validate_catches_column_out_of_range() {
        let bad = Csr::<f32>::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(
            bad.validate(),
            Err(CsrError::ColumnOutOfRange { .. })
        ));
    }

    #[test]
    fn sparsity_formula() {
        let m = sample();
        assert!((m.sparsity() - (1.0 - 4.0 / 9.0)).abs() < 1e-12);
    }

    #[test]
    fn memory_bytes_counts_all_arrays() {
        let m = sample();
        let expected = 4 * 8 + 4 * 4 + 4 * 8;
        assert_eq!(m.memory_bytes(), expected);
    }

    #[test]
    fn scaled_and_map_values_keep_pattern() {
        let m = sample();
        let s = m.scaled(2.0);
        assert!(s.same_pattern(&m));
        assert_eq!(s.get(2, 0), 6.0);
        let z = m.map_values(|_| 0.0);
        assert!(z.same_pattern(&m));
        assert_eq!(z.nnz(), 4);
    }

    #[test]
    fn clone_and_transforms_share_the_pattern_allocation() {
        // The Arc-sharing contract: clones and value-only transforms bump a
        // refcount instead of copying indptr/indices.
        let m = sample();
        let c = m.clone();
        assert!(Arc::ptr_eq(m.pattern_ref(), c.pattern_ref()));
        let s = m.scaled(0.5);
        assert!(Arc::ptr_eq(m.pattern_ref(), s.pattern_ref()));
        let f = m.map_values(|v| v + 1.0);
        assert!(Arc::ptr_eq(m.pattern_ref(), f.pattern_ref()));
        assert!(Arc::ptr_eq(&m.pattern(), m.pattern_ref()));
    }

    #[test]
    fn copy_values_from_requires_same_pattern() {
        let m = sample();
        let mut dst = Csr::from_pattern(m.pattern());
        dst.copy_values_from(&m);
        assert_eq!(dst, m);
    }

    #[test]
    #[should_panic(expected = "pattern mismatch")]
    fn copy_values_from_rejects_other_pattern() {
        let m = sample();
        let mut dst = Csr::<f64>::identity(3);
        dst.copy_values_from(&m);
    }

    #[test]
    fn reset_to_pattern_rebinds_buffer() {
        let m = sample();
        let mut buf = Csr::<f64>::identity(2);
        buf.reset_to_pattern(m.pattern_ref());
        assert!(buf.same_pattern(&m));
        assert!(buf.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn display_reports_nnz() {
        assert!(format!("{}", sample()).contains("nnz=4"));
    }

    #[test]
    fn from_dense_pattern_stores_all_positions() {
        let d = Matrix::from_rows(&[&[1.0f64, 0.0], &[0.0, 2.0]]);
        let full = Csr::from_dense_pattern(&d);
        assert_eq!(full.validate(), Ok(()));
        assert_eq!(full.nnz(), 4);
        assert!(full.to_dense().approx_eq(&d, 0.0));
        // Value changes never change the pattern.
        let other = Csr::from_dense_pattern(&Matrix::from_rows(&[&[0.0f64, 5.0], &[6.0, 0.0]]));
        assert!(full.same_pattern(&other));
    }
}
