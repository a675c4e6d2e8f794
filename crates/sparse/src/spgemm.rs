//! Sparse general matrix–matrix multiplication (SpGEMM).
//!
//! Two entry points:
//!
//! * [`spgemm`] — the *generic* path: a Gustavson-style row-by-row product
//!   that performs both the symbolic work (discovering the output pattern,
//!   sorting indices) and the numeric work on every call. This models what
//!   cuSPARSE does each time (§4.2 of the paper).
//! * [`SymbolicProduct`] — the paper's optimization: because the sparsity
//!   patterns of transposed Jacobians are deterministic (§3.3), the symbolic
//!   phase can run **once, ahead of training**, and every later call performs
//!   only the FLOPs. `spgemm_symbolic` in the bench crate ablates the two.
//!
//! The numeric phase runs one of three density-adaptive kernels (see
//! [`crate::kernel`]), resolved at plan time by [`SymbolicProduct::plan_with_mode`]:
//! the precomputed **gather** program (very sparse), a planned **Gustavson**
//! row-by-row kernel (mid density), or a register-tiled **dense**-panel
//! microkernel (dense-ish right operands; no scratch at all when the right
//! operand is full and at most [`PANEL_BLOCK`] columns wide).
//! [`SymbolicProduct::plan`] keeps the historical behavior and always
//! compiles the gather program. Steady-state entry points:
//! [`SymbolicProduct::execute_into_with`] (serial, allocation-free given a
//! prebuilt [`KernelScratch`]) and
//! [`SymbolicProduct::execute_into_parallel_with`] (row-chunk parallel over a
//! [`WorkerPool`], chunks balanced by per-row work).

use crate::kernel::{KernelMode, KernelScratch, NumericKernel};
use crate::{Csr, SparsityPattern};
use bppsa_scan::{SendPtr, WorkerPool};
use bppsa_tensor::panel::{panel_index, PanelRows, RowSink, SimdTier, PANEL_BLOCK};
use bppsa_tensor::Scalar;
use std::sync::Arc;

/// Computes `C = A · B` with a Gustavson sparse accumulator, performing
/// symbolic and numeric work together (the generic baseline).
///
/// Output rows are sorted; entries that sum to exactly zero are kept so the
/// result's pattern equals the *structural* product pattern.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn spgemm<S: Scalar>(a: &Csr<S>, b: &Csr<S>) -> Csr<S> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "spgemm: inner dimensions differ ({}x{} · {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let n = b.cols();
    let mut values = vec![S::ZERO; n];
    let mut present = vec![false; n];
    let mut touched: Vec<u32> = Vec::new();

    let mut indptr = Vec::with_capacity(a.rows() + 1);
    let mut indices: Vec<u32> = Vec::new();
    let mut data: Vec<S> = Vec::new();
    indptr.push(0);

    for i in 0..a.rows() {
        touched.clear();
        for (&k, &av) in a.row_indices(i).iter().zip(a.row_data(i)) {
            let k = k as usize;
            for (&j, &bv) in b.row_indices(k).iter().zip(b.row_data(k)) {
                let ju = j as usize;
                if !present[ju] {
                    present[ju] = true;
                    touched.push(j);
                    // `0 + av·bv`, not a bare product: every other numeric
                    // kernel (spmv, the planned SymbolicProduct kernels)
                    // accumulates into a zeroed buffer, which canonicalizes
                    // a `-0.0` product to `+0.0`. Matching that here keeps
                    // planned and unplanned executions bit-identical even
                    // on the sign of exact zeros.
                    values[ju] = S::ZERO + av * bv;
                } else {
                    values[ju] += av * bv;
                }
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            indices.push(j);
            data.push(values[j as usize]);
            present[j as usize] = false;
        }
        indptr.push(indices.len());
    }
    Csr::from_parts_unchecked(a.rows(), n, indptr, indices, data)
}

/// A precomputed symbolic SpGEMM plan: the output pattern of `A · B` for
/// fixed input patterns, enabling numeric-only execution through the
/// plan-time-resolved [`NumericKernel`].
///
/// All three patterns (both operands' and the output's) are held behind
/// [`Arc`]s, so distributing them into per-combine plans and workspace
/// buffers is refcount traffic, not copying.
///
/// # Examples
///
/// ```
/// use bppsa_sparse::{Csr, KernelMode, SymbolicProduct};
///
/// let a = Csr::from_diagonal(&[2.0_f64, 3.0]);
/// let b = Csr::from_diagonal(&[4.0_f64, 5.0]);
/// let plan = SymbolicProduct::plan(&a.pattern(), &b.pattern());
/// let c = plan.execute(&a, &b);
/// assert_eq!(c.get(0, 0), 8.0);
/// assert_eq!(c.get(1, 1), 15.0);
///
/// // Steady-state path: numeric phase into a reusable buffer, through a
/// // reusable scratch (empty for the gather kernel, pre-sized otherwise).
/// let auto = SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), KernelMode::Auto);
/// let mut scratch = auto.scratch::<f64>(1);
/// let mut out = Csr::from_pattern(auto.out_pattern().clone());
/// auto.execute_into_with(&a, &b, &mut out, &mut scratch);
/// assert_eq!(out, c);
/// ```
#[derive(Debug, Clone)]
pub struct SymbolicProduct {
    a_pattern: Arc<SparsityPattern>,
    b_pattern: Arc<SparsityPattern>,
    out_pattern: Arc<SparsityPattern>,
    kernel: NumericKernel,
    /// Gather kernel only: for each output row, for each structural (k, j)
    /// product contribution, the operand offsets and the slot in the row's
    /// output segment. Stored flat; rows delimited by `work_ptr`. Empty for
    /// the Gustavson/Dense kernels (whose loops are driven by the operands'
    /// own CSR arrays — skipping this table is most of their win).
    gather: Vec<(u32, u32, u32)>,
    /// Per-row prefix work table (length `rows + 1`): the cumulative cost a
    /// numeric execution pays up to each row, in the resolved kernel's own
    /// currency — structural multiply–adds for Gather/Gustavson (where it
    /// doubles as the `gather` row delimiters), `a_row_nnz × cols` panel
    /// multiplies for Dense. The row-parallel executor balances chunks
    /// against it.
    work_ptr: Vec<usize>,
    flops: u64,
    /// Dense kernel only: `a`'s pattern is full, so a block of output rows
    /// can share each panel load.
    a_full: bool,
    /// Dense kernel only: `b`'s pattern is full and at most
    /// [`PANEL_BLOCK`] columns wide, so `b`'s own values already are the
    /// kernel's panel (no pack, no panel scratch).
    b_is_panel: bool,
    /// Dense kernel only: the output pattern is full, so rows are stored
    /// straight into `out`'s values (no gather through the pattern).
    out_full: bool,
}

impl SymbolicProduct {
    /// Runs the symbolic phase once for the given input patterns, compiling
    /// the gather program (the historical single-kernel behavior —
    /// equivalent to [`SymbolicProduct::plan_with_mode`] with
    /// [`KernelMode::Gather`]). The pattern handles are retained (refcount
    /// bump) for operand checking.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions differ.
    pub fn plan(a: &Arc<SparsityPattern>, b: &Arc<SparsityPattern>) -> Self {
        Self::plan_with_mode(a, b, KernelMode::Gather)
    }

    /// Runs the symbolic phase once, resolving `mode` to a concrete
    /// [`NumericKernel`] from the patterns' statistics ([`KernelMode::Auto`]
    /// selects per product; the other modes force one kernel). The gather
    /// table is only materialized when the gather kernel is chosen, so
    /// dense-ish products skip its 12-bytes-per-MAC footprint entirely.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions differ.
    pub fn plan_with_mode(
        a: &Arc<SparsityPattern>,
        b: &Arc<SparsityPattern>,
        mode: KernelMode,
    ) -> Self {
        assert_eq!(
            a.cols(),
            b.rows(),
            "SymbolicProduct::plan: inner dimensions differ"
        );
        let n = b.cols();
        let mut marked = vec![false; n];
        let mut touched: Vec<u32> = Vec::new();

        // Pass 1 — symbolic discovery: the output pattern plus the per-row
        // structural-MAC prefix (needed for kernel selection and chunking
        // regardless of the kernel chosen).
        let mut indptr = Vec::with_capacity(a.rows() + 1);
        let mut indices: Vec<u32> = Vec::new();
        let mut macs_ptr = Vec::with_capacity(a.rows() + 1);
        let mut macs = 0usize;
        indptr.push(0);
        macs_ptr.push(0);

        for i in 0..a.rows() {
            touched.clear();
            for &k in a.row_indices(i) {
                let k = k as usize;
                macs += b.row_nnz(k);
                for &j in b.row_indices(k) {
                    if !marked[j as usize] {
                        marked[j as usize] = true;
                        touched.push(j);
                    }
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                indices.push(j);
                marked[j as usize] = false;
            }
            indptr.push(indices.len());
            macs_ptr.push(macs);
        }

        let out_nnz = indices.len();
        let kernel = mode.resolve(b, out_nnz, macs as u64);
        let out_pattern = Arc::new(SparsityPattern::new(a.rows(), n, indptr, indices));

        // Pass 2 — kernel-specific program/work tables.
        let (gather, work_ptr) = match kernel {
            NumericKernel::Gather => {
                let mut slot_of = vec![u32::MAX; n];
                let mut gather = Vec::with_capacity(macs);
                for i in 0..a.rows() {
                    for (slot, &j) in out_pattern.row_indices(i).iter().enumerate() {
                        slot_of[j as usize] = slot as u32;
                    }
                    for (apos, &k) in a.row_indices(i).iter().enumerate() {
                        let a_off = (a.indptr()[i] + apos) as u32;
                        let k = k as usize;
                        for bpos in 0..b.row_nnz(k) {
                            let b_off = (b.indptr()[k] + bpos) as u32;
                            let j = b.row_indices(k)[bpos];
                            gather.push((a_off, b_off, slot_of[j as usize]));
                        }
                    }
                    for &j in out_pattern.row_indices(i) {
                        slot_of[j as usize] = u32::MAX;
                    }
                }
                (gather, macs_ptr)
            }
            NumericKernel::Gustavson => (Vec::new(), macs_ptr),
            NumericKernel::Dense => {
                // Dense work per row is `a_row_nnz × cols` regardless of the
                // structural MAC count.
                let work = a.indptr().iter().map(|&p| p * n).collect();
                (Vec::new(), work)
            }
        };

        let dense = matches!(kernel, NumericKernel::Dense);
        Self {
            a_pattern: Arc::clone(a),
            b_pattern: Arc::clone(b),
            a_full: dense && a.is_full(),
            b_is_panel: dense && b.is_full() && b.cols() <= PANEL_BLOCK,
            out_full: dense && out_pattern.is_full(),
            out_pattern,
            kernel,
            gather,
            work_ptr,
            flops: 2 * macs as u64,
        }
    }

    /// The output pattern of the product (shared handle).
    pub fn out_pattern(&self) -> &Arc<SparsityPattern> {
        &self.out_pattern
    }

    /// The planned left-operand pattern (shared handle).
    pub fn a_pattern(&self) -> &Arc<SparsityPattern> {
        &self.a_pattern
    }

    /// The planned right-operand pattern (shared handle).
    pub fn b_pattern(&self) -> &Arc<SparsityPattern> {
        &self.b_pattern
    }

    /// The numeric kernel this plan resolved to.
    pub fn kernel(&self) -> NumericKernel {
        self.kernel
    }

    /// *Structural* multiply–add FLOPs of the product (counting 2 per
    /// multiply–add) — a kernel-independent measure of the mathematical
    /// work. The FLOPs an execution actually performs are
    /// [`SymbolicProduct::execute_flops`].
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// FLOPs a numeric execution actually performs under the resolved
    /// kernel: the structural count for Gather/Gustavson, and
    /// `2 · a.nnz() · cols` for the dense panel kernel (which multiplies
    /// structural zeros in exchange for contiguous vectorizable loops).
    /// This is the number executors should price pool fan-out against.
    pub fn execute_flops(&self) -> u64 {
        match self.kernel {
            NumericKernel::Dense => 2 * self.a_pattern.nnz() as u64 * self.b_pattern.cols() as u64,
            _ => self.flops,
        }
    }

    /// Builds the reusable numeric scratch this plan's kernel needs, with
    /// `lanes` accumulator lanes (one per concurrent row chunk; serial
    /// callers pass 1) for the Gustavson kernel. The gather kernel needs
    /// none and gets an empty scratch; the dense kernel needs only a packed
    /// panel, and none when `b`'s pattern is full and at most
    /// [`PANEL_BLOCK`] columns wide. Building the scratch once
    /// and reusing it via [`SymbolicProduct::execute_into_with`] keeps the
    /// steady state allocation-free; the scratch must only be used with the
    /// plan that built it.
    pub fn scratch<S: Scalar>(&self, lanes: usize) -> KernelScratch<S> {
        match self.kernel {
            NumericKernel::Gather => KernelScratch::empty(),
            NumericKernel::Gustavson => {
                KernelScratch::with_dims(lanes.max(1), self.out_pattern.cols(), 0)
            }
            NumericKernel::Dense => KernelScratch::with_dims(0, 0, self.panel_len()),
        }
    }

    /// Elements of the dense kernel's packed panel: `b.rows() × b.cols()`,
    /// or none when `b`'s own values serve as the panel.
    fn panel_len(&self) -> usize {
        if self.b_is_panel {
            0
        } else {
            self.b_pattern.rows() * self.b_pattern.cols()
        }
    }

    /// Heap bytes [`SymbolicProduct::scratch`] would allocate for `lanes`
    /// accumulator lanes (workspace-accounting hook).
    pub fn scratch_bytes<S: Scalar>(&self, lanes: usize) -> usize {
        let elems = match self.kernel {
            NumericKernel::Gather => 0,
            NumericKernel::Gustavson => lanes.max(1) * self.out_pattern.cols(),
            NumericKernel::Dense => KernelScratch::<S>::panel_buf_len(self.panel_len()),
        };
        elems * std::mem::size_of::<S>()
    }

    /// Whether `a` and `b` carry exactly the patterns this plan was built
    /// from. Shared-`Arc` operands short-circuit to pointer comparisons.
    pub fn operands_match<S: Scalar>(&self, a: &Csr<S>, b: &Csr<S>) -> bool {
        pattern_eq(a.pattern_ref(), &self.a_pattern) && pattern_eq(b.pattern_ref(), &self.b_pattern)
    }

    /// Executes the numeric phase: computes `A · B` assuming `a` and `b`
    /// have exactly the patterns this plan was built from.
    ///
    /// # Panics
    ///
    /// Panics if the operand patterns do not match the planned patterns.
    pub fn execute<S: Scalar>(&self, a: &Csr<S>, b: &Csr<S>) -> Csr<S> {
        assert!(
            self.operands_match(a, b),
            "SymbolicProduct::execute: operand patterns do not match the plan"
        );
        self.execute_unchecked(a, b)
    }

    /// Numeric phase without the pattern equality check (debug-checked).
    /// This is the hot path measured by the `spgemm_symbolic` ablation. The
    /// returned matrix *shares* the plan's output pattern — for the gather
    /// kernel the only heap allocation is the value array (the other
    /// kernels also build a throwaway scratch; steady-state callers should
    /// hold one via [`SymbolicProduct::scratch`]).
    pub fn execute_unchecked<S: Scalar>(&self, a: &Csr<S>, b: &Csr<S>) -> Csr<S> {
        debug_assert!(self.operands_match(a, b));
        let mut out = Csr::from_pattern(Arc::clone(&self.out_pattern));
        match self.kernel {
            NumericKernel::Gather => {
                self.numeric_rows(
                    a.data(),
                    b.data(),
                    out.data_mut(),
                    0..self.out_pattern.rows(),
                );
            }
            _ => {
                let mut scratch = self.scratch::<S>(1);
                self.execute_into_with(a, b, &mut out, &mut scratch);
            }
        }
        out
    }

    /// Numeric phase into a caller-owned output buffer. Rebinds `out` to the
    /// plan's output pattern (refcount bump) and overwrites its values. For
    /// the gather kernel this performs **zero heap allocations** once `out`
    /// has reached steady-state capacity; the Gustavson/Dense kernels build
    /// a throwaway scratch here — allocation-free steady state for them goes
    /// through [`SymbolicProduct::execute_into_with`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the operand patterns do not match.
    pub fn execute_into<S: Scalar>(&self, a: &Csr<S>, b: &Csr<S>, out: &mut Csr<S>) {
        match self.kernel {
            NumericKernel::Gather => {
                debug_assert!(self.operands_match(a, b));
                out.reset_to_pattern(&self.out_pattern);
                self.numeric_rows(
                    a.data(),
                    b.data(),
                    out.data_mut(),
                    0..self.out_pattern.rows(),
                );
            }
            _ => {
                let mut scratch = self.scratch::<S>(1);
                self.execute_into_with(a, b, out, &mut scratch);
            }
        }
    }

    /// Numeric phase into a caller-owned output buffer through a caller-held
    /// [`KernelScratch`] (built by [`SymbolicProduct::scratch`] from this
    /// plan): **zero heap allocations** in the steady state for every
    /// kernel. Serial; the row-parallel variant is
    /// [`SymbolicProduct::execute_into_parallel_with`].
    ///
    /// # Panics
    ///
    /// Panics if the scratch does not match this plan's kernel dimensions,
    /// if the dense kernel's left operand does not carry the planned
    /// pattern, and in debug builds if the operand patterns do not match.
    pub fn execute_into_with<S: Scalar>(
        &self,
        a: &Csr<S>,
        b: &Csr<S>,
        out: &mut Csr<S>,
        scratch: &mut KernelScratch<S>,
    ) {
        debug_assert!(self.operands_match(a, b));
        self.check_scratch(scratch);
        self.bind_out(out);
        let rows = self.out_pattern.rows();
        match self.kernel {
            NumericKernel::Gather => {
                self.numeric_rows(a.data(), b.data(), out.data_mut(), 0..rows);
            }
            NumericKernel::Gustavson => {
                let cols = self.out_pattern.cols();
                let out_ptr = SendPtr(out.data_mut().as_mut_ptr());
                // SAFETY: `out` and lane 0 of `scratch` are exclusively
                // borrowed; no concurrency.
                unsafe { self.gustavson_rows(a, b, out_ptr, &mut scratch.acc[..cols], 0..rows) };
            }
            NumericKernel::Dense => self.dense_into(SimdTier::detect(), a, b, out, scratch, None),
        }
    }

    /// Row-chunk-parallel numeric phase into a caller-owned buffer: output
    /// rows are split into `pool.size() + 1` chunks of approximately equal
    /// planned work (via the per-row prefix work table) and executed on the
    /// shared worker pool. Each Gustavson chunk accumulates through its own
    /// scratch lane, so that kernel's chunk count is additionally capped by
    /// [`KernelScratch::lanes`]. Allocation-free in the steady state, like
    /// [`SymbolicProduct::execute_into_with`].
    ///
    /// Worth the pool wakeup only when [`SymbolicProduct::execute_flops`] is
    /// large; callers decide (see `PlannedScan`'s cost model in `bppsa-core`).
    ///
    /// # Panics
    ///
    /// As [`SymbolicProduct::execute_into_with`].
    pub fn execute_into_parallel_with<S: Scalar>(
        &self,
        a: &Csr<S>,
        b: &Csr<S>,
        out: &mut Csr<S>,
        pool: &WorkerPool,
        scratch: &mut KernelScratch<S>,
    ) {
        debug_assert!(self.operands_match(a, b));
        self.check_scratch(scratch);
        self.bind_out(out);
        match self.kernel {
            NumericKernel::Gather => self.parallel_gather(a, b, out, pool),
            NumericKernel::Gustavson => self.parallel_gustavson(a, b, out, pool, scratch),
            NumericKernel::Dense => {
                self.dense_into(SimdTier::detect(), a, b, out, scratch, Some(pool))
            }
        }
    }

    /// Row-chunk-parallel numeric phase without a caller-held scratch: the
    /// gather kernel runs as before (it needs none); the other kernels build
    /// a throwaway scratch — steady-state callers should hold one and use
    /// [`SymbolicProduct::execute_into_parallel_with`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the operand patterns do not match.
    pub fn execute_into_parallel<S: Scalar>(
        &self,
        a: &Csr<S>,
        b: &Csr<S>,
        out: &mut Csr<S>,
        pool: &WorkerPool,
    ) {
        if matches!(self.kernel, NumericKernel::Gather) {
            debug_assert!(self.operands_match(a, b));
            out.reset_to_pattern(&self.out_pattern);
            self.parallel_gather(a, b, out, pool);
        } else {
            let mut scratch = self.scratch::<S>(pool.size() + 1);
            self.execute_into_parallel_with(a, b, out, pool, &mut scratch);
        }
    }

    /// The gather kernel's row-chunk fan-out (operands already checked,
    /// `out` already rebound to the plan's pattern).
    fn parallel_gather<S: Scalar>(
        &self,
        a: &Csr<S>,
        b: &Csr<S>,
        out: &mut Csr<S>,
        pool: &WorkerPool,
    ) {
        let rows = self.out_pattern.rows();
        let chunks = (pool.size() + 1).min(rows.max(1));
        if chunks <= 1 {
            self.numeric_rows(a.data(), b.data(), out.data_mut(), 0..rows);
            return;
        }
        let ad = a.data();
        let bd = b.data();
        let out_data = SendPtr(out.data_mut().as_mut_ptr());
        let total = self.work_total();
        pool.run_indexed(chunks, &|c| {
            let out_data: SendPtr<S> = out_data;
            let r0 = self.chunk_boundary_row(c, chunks, total, rows);
            let r1 = self.chunk_boundary_row(c + 1, chunks, total, rows);
            for i in r0..r1 {
                let out_base = self.out_pattern.indptr()[i];
                for &(a_off, b_off, slot) in &self.gather[self.work_ptr[i]..self.work_ptr[i + 1]] {
                    // SAFETY: chunk row ranges partition 0..rows, and each
                    // row's output segment [indptr[i], indptr[i+1]) is
                    // disjoint from every other row's — no two pool tasks
                    // write the same element, and the pool's barrier orders
                    // all writes before `run_indexed` returns.
                    unsafe {
                        let dst = out_data.0.add(out_base + slot as usize);
                        *dst += ad[a_off as usize] * bd[b_off as usize];
                    }
                }
            }
        });
    }

    /// The Gustavson kernel's row-chunk fan-out (`out` already rebound to
    /// the plan's pattern), one scratch lane per chunk.
    fn parallel_gustavson<S: Scalar>(
        &self,
        a: &Csr<S>,
        b: &Csr<S>,
        out: &mut Csr<S>,
        pool: &WorkerPool,
        scratch: &mut KernelScratch<S>,
    ) {
        let rows = self.out_pattern.rows();
        let cols = self.out_pattern.cols();
        let chunks = (pool.size() + 1).min(rows.max(1)).min(scratch.lanes);
        let out_ptr = SendPtr(out.data_mut().as_mut_ptr());
        if chunks <= 1 {
            // SAFETY: exclusive borrows, no concurrency.
            unsafe { self.gustavson_rows(a, b, out_ptr, &mut scratch.acc[..cols], 0..rows) };
            return;
        }
        let total = self.work_total();
        let acc_ptr = SendPtr(scratch.acc.as_mut_ptr());
        pool.run_indexed(chunks, &|c| {
            let out_ptr: SendPtr<S> = out_ptr;
            let acc_ptr: SendPtr<S> = acc_ptr;
            let r0 = self.chunk_boundary_row(c, chunks, total, rows);
            let r1 = self.chunk_boundary_row(c + 1, chunks, total, rows);
            // SAFETY: `chunks <= scratch.lanes`, so lane `c` is a
            // `cols`-wide accumulator no other task touches; chunk row
            // ranges partition `0..rows`, and each row's output segment is
            // disjoint from every other row's — no two pool tasks write the
            // same element; the pool's barrier orders all writes before
            // `run_indexed` returns.
            let acc = unsafe { std::slice::from_raw_parts_mut(acc_ptr.0.add(c * cols), cols) };
            unsafe { self.gustavson_rows(a, b, out_ptr, acc, r0..r1) };
        });
    }

    /// Rebinds `out` to the plan's output pattern. The gather kernel adds
    /// into `out`, so it needs zeroed values; the other kernels overwrite
    /// every stored value, so they rebind (and zero-fill) only when `out`
    /// carries a different pattern handle — in the steady state, never.
    fn bind_out<S: Scalar>(&self, out: &mut Csr<S>) {
        if matches!(self.kernel, NumericKernel::Gather)
            || !Arc::ptr_eq(out.pattern_ref(), &self.out_pattern)
        {
            out.reset_to_pattern(&self.out_pattern);
        }
    }

    /// Total planned per-row work (the last prefix entry) — what
    /// [`SymbolicProduct::chunk_boundary_row`] balances against.
    fn work_total(&self) -> usize {
        self.work_ptr.last().copied().unwrap_or(0)
    }

    /// Validates a caller-held scratch against this plan's kernel.
    fn check_scratch<S: Scalar>(&self, scratch: &KernelScratch<S>) {
        let fits = match self.kernel {
            NumericKernel::Gather => true,
            NumericKernel::Gustavson => {
                scratch.lanes >= 1 && scratch.acc_cols == self.out_pattern.cols()
            }
            NumericKernel::Dense => scratch.panel().len() == self.panel_len(),
        };
        assert!(
            fits,
            "SymbolicProduct: scratch does not match this plan \
             (build it with SymbolicProduct::scratch)"
        );
    }

    /// First row of chunk `c` when `0..rows` is split into `chunks` pieces
    /// of roughly `total / chunks` planned work units each.
    ///
    /// Boundaries are **strictly monotone** for `chunks <= rows`: every
    /// chunk owns at least one row, `boundary(0) == 0`, and
    /// `boundary(chunks) == rows`, so the per-chunk row ranges partition
    /// `0..rows` exactly with no empty chunks. The raw work-balanced
    /// targets alone do not guarantee that — leading rows with zero planned
    /// work or one row dominating `total` collapse several targets onto
    /// the same row — so the raw boundaries are repaired by the strictly
    /// increasing envelope `max_k≤c (raw(k) + (c − k))`, clamped so every
    /// later chunk keeps a row too.
    fn chunk_boundary_row(&self, c: usize, chunks: usize, total: usize, rows: usize) -> usize {
        debug_assert!(chunks >= 1 && chunks <= rows);
        if c == 0 {
            return 0;
        }
        if c >= chunks {
            return rows;
        }
        // Strictly increasing lower envelope over the raw boundaries. O(c)
        // partition_points per call — chunks is pool-sized (tiny next to
        // the numeric work this is only used to split).
        let mut repaired = c; // k == 0 term: raw(0) == 0, shifted by c.
        for k in 1..=c {
            let target = k * total / chunks;
            let raw = self.work_ptr.partition_point(|&g| g < target).min(rows);
            repaired = repaired.max(raw + (c - k));
        }
        // Leave at least one row for each of the `chunks - c` later chunks.
        repaired.min(rows - (chunks - c))
    }

    /// The serial gather kernel over a row range.
    fn numeric_rows<S: Scalar>(
        &self,
        ad: &[S],
        bd: &[S],
        out: &mut [S],
        rows: std::ops::Range<usize>,
    ) {
        for i in rows {
            let out_base = self.out_pattern.indptr()[i];
            for &(a_off, b_off, slot) in &self.gather[self.work_ptr[i]..self.work_ptr[i + 1]] {
                out[out_base + slot as usize] += ad[a_off as usize] * bd[b_off as usize];
            }
        }
    }

    /// The planned Gustavson kernel over a row range: accumulate each output
    /// row's structural products into the dense accumulator lane (driven by
    /// the operands' own CSR arrays — no gather table), then scatter the
    /// known output columns out and re-zero exactly what was touched.
    ///
    /// Bit-for-bit with [`spgemm`]: the terms of each output element are
    /// accumulated in the identical (a-row-major, then b-row) order, and the
    /// first touch lands on a `+0.0` accumulator entry — the same
    /// `0 + av·bv` signed-zero canonicalization.
    ///
    /// # Safety
    ///
    /// `out` must point to the output value array (rebound to the plan's
    /// pattern); concurrent calls must receive disjoint `rows` ranges and
    /// exclusive `acc` lanes. `acc` must be `cols` wide and **all-zero** on
    /// entry; it is all-zero again on return.
    unsafe fn gustavson_rows<S: Scalar>(
        &self,
        a: &Csr<S>,
        b: &Csr<S>,
        out: SendPtr<S>,
        acc: &mut [S],
        rows: std::ops::Range<usize>,
    ) {
        for i in rows {
            for (&k, &av) in a.row_indices(i).iter().zip(a.row_data(i)) {
                let k = k as usize;
                for (&j, &bv) in b.row_indices(k).iter().zip(b.row_data(k)) {
                    acc[j as usize] += av * bv;
                }
            }
            let out_base = self.out_pattern.indptr()[i];
            for (slot, &j) in self.out_pattern.row_indices(i).iter().enumerate() {
                let j = j as usize;
                // SAFETY: each row's output segment is disjoint from every
                // other row's (caller guarantees disjoint row ranges).
                unsafe { *out.0.add(out_base + slot) = acc[j] };
                // The touched set of row `i` is exactly its structural
                // output columns, so this restores the all-zero invariant.
                acc[j] = S::ZERO;
            }
        }
    }

    /// The dense-panel kernel: every output row is `Σ_k a[i,k] · b[k, ·]`
    /// over `a`'s stored entries in ascending `k`, computed by the
    /// register-tiled microkernel ([`Scalar::panel_rows`]) on `tier` — one
    /// dispatch per product, or per row chunk when `pool` fans the rows out.
    /// The panel is `b`'s own values when `b`'s pattern is full, otherwise
    /// `b` packed into the scratch panel; a full output pattern takes the
    /// rows straight into `out`'s values, otherwise each row's structural
    /// columns are picked out of its registers.
    ///
    /// Bit-for-bit with [`spgemm`] for **finite** operands: the structural
    /// terms of each output element arrive in the identical order; the
    /// extra structural-zero terms contribute exact `±0.0`s, which
    /// round-to-nearest addition absorbs without perturbing the sum; and
    /// the accumulators start at `+0.0`, so the first term is `0 + av·bv`
    /// as on the generic path, which canonicalizes a `-0.0` first product
    /// to `+0.0`. (Non-finite operands can differ: a structural zero times
    /// `inf` is `NaN` here but absent there.)
    ///
    /// # Panics
    ///
    /// Panics if `a` does not carry the planned pattern: the microkernel
    /// reads `a` and the panel without bounds checks, relying on the plan
    /// having validated every column of that pattern against `b`'s rows.
    fn dense_into<S: Scalar>(
        &self,
        tier: SimdTier,
        a: &Csr<S>,
        b: &Csr<S>,
        out: &mut Csr<S>,
        scratch: &mut KernelScratch<S>,
        pool: Option<&WorkerPool>,
    ) {
        assert!(
            pattern_eq(a.pattern_ref(), &self.a_pattern) && a.data().len() == a.nnz(),
            "SymbolicProduct: dense kernel operand does not match the plan"
        );
        let cols = self.out_pattern.cols();
        let panel: &[S] = if self.b_is_panel {
            b.data()
        } else {
            self.pack_panel(b, scratch.panel_mut());
            scratch.panel()
        };
        assert_eq!(panel.len(), self.b_pattern.rows() * cols);
        assert_eq!(out.data().len(), self.out_pattern.nnz());
        let job = PanelRows {
            indptr: a.indptr(),
            indices: a.indices(),
            data: a.data(),
            panel,
            cols,
            dense_a: self.a_full,
        };
        let rows = self.out_pattern.rows();
        let out_ptr = SendPtr(out.data_mut().as_mut_ptr());
        let chunks = pool.map_or(1, |p| (p.size() + 1).min(rows));
        match pool {
            Some(pool) if chunks > 1 => {
                let total = self.work_total();
                pool.run_indexed(chunks, &|c| {
                    let out_ptr: SendPtr<S> = out_ptr;
                    let r0 = self.chunk_boundary_row(c, chunks, total, rows);
                    let r1 = self.chunk_boundary_row(c + 1, chunks, total, rows);
                    // SAFETY: chunk row ranges partition `0..rows`, so the
                    // chunks' output segments are disjoint; the job's
                    // operands were checked above; the pool's barrier
                    // orders all writes before `run_indexed` returns.
                    unsafe { S::panel_rows(tier, &job, r0..r1, self.dense_sink(out_ptr, r0..r1)) };
                });
            }
            // SAFETY: as above, with one chunk covering every row.
            _ => unsafe { S::panel_rows(tier, &job, 0..rows, self.dense_sink(out_ptr, 0..rows)) },
        }
    }

    /// The output of rows `rows` as a [`RowSink`]: `out`'s values in place
    /// when the output pattern is full, the pattern's listed columns
    /// otherwise.
    ///
    /// # Safety
    ///
    /// `out` must point to the values of a matrix bound to the plan's
    /// output pattern, and no other live sink may cover any of `rows`.
    unsafe fn dense_sink<S: Scalar>(
        &self,
        out: SendPtr<S>,
        rows: std::ops::Range<usize>,
    ) -> RowSink<'_, S> {
        let indptr = self.out_pattern.indptr();
        let (lo, hi) = (indptr[rows.start], indptr[rows.end]);
        let data = std::slice::from_raw_parts_mut(out.0.add(lo), hi - lo);
        if self.out_full {
            RowSink::Dense(data)
        } else {
            RowSink::Listed {
                indptr,
                indices: self.out_pattern.indices(),
                data,
            }
        }
    }

    /// Scatters `b`'s values into the packed panel, in the kernel's
    /// column-blocked layout ([`panel_index`]). Positions outside `b`'s
    /// pattern were zeroed at scratch construction and are never written
    /// again (the pattern is fixed), so a pack refreshes exactly the
    /// structural entries.
    fn pack_panel<S: Scalar>(&self, b: &Csr<S>, panel: &mut [S]) {
        let (rows, cols) = self.b_pattern.shape();
        for k in 0..rows {
            for (&j, &bv) in b.row_indices(k).iter().zip(b.row_data(k)) {
                panel[panel_index(rows, cols, k, j as usize)] = bv;
            }
        }
    }
}

/// Content equality with an `Arc` pointer fast path.
fn pattern_eq(a: &Arc<SparsityPattern>, b: &Arc<SparsityPattern>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

#[cfg(test)]
mod tests {
    use super::*;
    use bppsa_tensor::Matrix;

    fn dense_ref(a: &Csr<f64>, b: &Csr<f64>) -> Matrix<f64> {
        a.to_dense().matmul(&b.to_dense())
    }

    fn sample_a() -> Csr<f64> {
        Csr::from_dense(&Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0]]))
    }

    fn sample_b() -> Csr<f64> {
        Csr::from_dense(&Matrix::from_rows(&[&[0.0, 1.0], &[4.0, 0.0], &[0.0, 5.0]]))
    }

    #[test]
    fn spgemm_matches_dense() {
        let c = spgemm(&sample_a(), &sample_b());
        assert_eq!(c.validate(), Ok(()));
        assert!(c
            .to_dense()
            .approx_eq(&dense_ref(&sample_a(), &sample_b()), 1e-12));
    }

    #[test]
    fn spgemm_identity_is_noop() {
        let a = sample_a();
        let i3 = Csr::identity(3);
        let i2 = Csr::identity(2);
        assert!(spgemm(&a, &i3).to_dense().approx_eq(&a.to_dense(), 0.0));
        assert!(spgemm(&i2, &a).to_dense().approx_eq(&a.to_dense(), 0.0));
    }

    #[test]
    fn spgemm_keeps_structural_zeros() {
        // [1, -1] · [1; 1] = 0 but the position is structurally non-zero.
        let a = Csr::from_dense(&Matrix::from_rows(&[&[1.0, -1.0]]));
        let b = Csr::from_dense(&Matrix::from_rows(&[&[1.0], &[1.0]]));
        let c = spgemm(&a, &b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn spgemm_shape_mismatch_panics() {
        let _ = spgemm(&sample_a(), &sample_a());
    }

    #[test]
    fn symbolic_plan_matches_generic() {
        let a = sample_a();
        let b = sample_b();
        let plan = SymbolicProduct::plan(&a.pattern(), &b.pattern());
        assert_eq!(plan.kernel(), NumericKernel::Gather);
        let via_plan = plan.execute(&a, &b);
        let generic = spgemm(&a, &b);
        assert_eq!(via_plan, generic);
    }

    #[test]
    fn every_kernel_mode_matches_generic_bit_for_bit() {
        let a = sample_a();
        let b = sample_b();
        let generic = spgemm(&a, &b);
        for mode in [
            KernelMode::Auto,
            KernelMode::Gather,
            KernelMode::Gustavson,
            KernelMode::Dense,
        ] {
            let plan = SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), mode);
            assert_eq!(plan.execute(&a, &b), generic, "mode {mode:?}");
            let mut scratch = plan.scratch::<f64>(2);
            let mut out = Csr::from_pattern(plan.out_pattern().clone());
            plan.execute_into_with(&a, &b, &mut out, &mut scratch);
            assert_eq!(out, generic, "mode {mode:?} via scratch");
            // Steady state: same buffers again.
            plan.execute_into_with(&a, &b, &mut out, &mut scratch);
            assert_eq!(out, generic, "mode {mode:?} via scratch, reused");
            let pool = bppsa_scan::WorkerPool::new(3);
            plan.execute_into_parallel_with(&a, &b, &mut out, &pool, &mut scratch);
            assert_eq!(out, generic, "mode {mode:?} parallel");
        }
    }

    #[test]
    fn forced_kernels_are_recorded_and_gather_table_is_mode_gated() {
        let a = sample_a();
        let b = sample_b();
        let gather =
            SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), KernelMode::Gather);
        assert_eq!(gather.kernel(), NumericKernel::Gather);
        assert!(!gather.gather.is_empty());
        let gustavson =
            SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), KernelMode::Gustavson);
        assert_eq!(gustavson.kernel(), NumericKernel::Gustavson);
        assert!(gustavson.gather.is_empty(), "no table off the gather path");
        assert_eq!(gustavson.execute_flops(), gustavson.flops());
        let dense = SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), KernelMode::Dense);
        assert_eq!(dense.kernel(), NumericKernel::Dense);
        assert!(dense.gather.is_empty());
        // Dense executes a.nnz()·cols MACs, structural or not.
        assert_eq!(dense.execute_flops(), 2 * a.nnz() as u64 * b.cols() as u64);
        // All modes agree on the symbolic outputs.
        assert_eq!(gather.out_pattern(), gustavson.out_pattern());
        assert_eq!(gather.out_pattern(), dense.out_pattern());
        assert_eq!(gather.flops(), gustavson.flops());
        assert_eq!(gather.flops(), dense.flops());
    }

    #[test]
    fn dense_kernel_canonicalizes_signed_zeros_like_generic() {
        // Rows of `a` whose first entry is negative and whose product rows
        // pass through structural zeros of `b`: the `av·(+0.0) = -0.0` trap
        // the leading `0 +` canonicalization must absorb. Cancelling pairs
        // in `b` additionally force exact-zero *sums*, whose sign must come
        // out `+0.0` on every kernel.
        let a = Csr::from_dense(&Matrix::from_fn(
            3,
            2,
            |_, c| if c == 0 { -2.0 } else { 0.5 },
        ));
        let b = Csr::from_dense(&Matrix::from_fn(2, 9, |r, c| match (r + c) % 3 {
            0 => 0.0,
            1 => 1.5 - c as f64,
            _ => c as f64 - 1.5,
        }));
        let generic = spgemm(&a, &b);
        let plan = SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), KernelMode::Dense);
        let out = plan.execute(&a, &b);
        assert_eq!(out, generic);
        for (x, y) in out.data().iter().zip(generic.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "sign-of-zero must match");
        }
    }

    #[test]
    fn undersized_scratch_caps_parallel_chunks() {
        // A 1-lane scratch on a multi-worker pool must degrade to fewer
        // chunks, not race on the accumulator.
        let a = sample_a();
        let b = sample_b();
        let plan =
            SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), KernelMode::Gustavson);
        let mut scratch = plan.scratch::<f64>(1);
        let pool = bppsa_scan::WorkerPool::new(3);
        let mut out = Csr::from_pattern(plan.out_pattern().clone());
        plan.execute_into_parallel_with(&a, &b, &mut out, &pool, &mut scratch);
        assert_eq!(out, spgemm(&a, &b));
    }

    #[test]
    #[should_panic(expected = "scratch does not match")]
    fn mismatched_scratch_is_rejected() {
        let a = sample_a();
        let b = sample_b();
        let plan =
            SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), KernelMode::Gustavson);
        let other = SymbolicProduct::plan_with_mode(
            &Csr::<f64>::identity(5).pattern(),
            &Csr::<f64>::identity(5).pattern(),
            KernelMode::Gustavson,
        );
        let mut scratch = other.scratch::<f64>(1);
        let mut out = Csr::from_pattern(plan.out_pattern().clone());
        plan.execute_into_with(&a, &b, &mut out, &mut scratch);
    }

    #[test]
    fn executed_output_shares_plan_pattern() {
        let a = sample_a();
        let b = sample_b();
        let plan = SymbolicProduct::plan(&a.pattern(), &b.pattern());
        let c = plan.execute(&a, &b);
        assert!(Arc::ptr_eq(c.pattern_ref(), plan.out_pattern()));
        // Operand handles were retained, so matching is pointer equality.
        assert!(Arc::ptr_eq(plan.a_pattern(), a.pattern_ref()));
        assert!(plan.operands_match(&a, &b));
    }

    #[test]
    fn execute_into_matches_execute() {
        let a = sample_a();
        let b = sample_b();
        let plan = SymbolicProduct::plan(&a.pattern(), &b.pattern());
        let reference = plan.execute(&a, &b);
        // Start from a buffer with a completely different shape: the first
        // call rebinds it.
        let mut out = Csr::<f64>::identity(7);
        plan.execute_into(&a, &b, &mut out);
        assert_eq!(out, reference);
        // Steady state: same buffer again.
        plan.execute_into(&a, &b, &mut out);
        assert_eq!(out, reference);
    }

    #[test]
    fn execute_into_parallel_matches_serial() {
        let pool = bppsa_scan::WorkerPool::new(3);
        let mut rng_state = 0x1234_5678_u64;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        // A moderately large random product so chunking is non-trivial.
        let (m, k, n) = (37, 29, 31);
        let a = Csr::from_dense(&Matrix::from_fn(m, k, |_, _| {
            let v = next();
            if v > -0.2 {
                v
            } else {
                0.0
            }
        }));
        let b = Csr::from_dense(&Matrix::from_fn(k, n, |_, _| {
            let v = next();
            if v > -0.1 {
                v
            } else {
                0.0
            }
        }));
        let reference = spgemm(&a, &b);
        for mode in [KernelMode::Gather, KernelMode::Gustavson, KernelMode::Dense] {
            let plan = SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), mode);
            let mut out = Csr::from_pattern(plan.out_pattern().clone());
            plan.execute_into_parallel(&a, &b, &mut out, &pool);
            assert_eq!(out, reference, "mode {mode:?}");
        }
    }

    #[test]
    fn plan_is_reusable_across_values() {
        let a = sample_a();
        let b = sample_b();
        let plan = SymbolicProduct::plan(&a.pattern(), &b.pattern());
        // Same patterns, different values.
        let a2 = a.map_values(|v| v * 10.0);
        let b2 = b.map_values(|v| v - 1.0);
        let c2 = plan.execute(&a2, &b2);
        assert!(c2.to_dense().approx_eq(&dense_ref(&a2, &b2), 1e-12));
    }

    #[test]
    fn plan_flops_counts_structural_products() {
        let a = sample_a();
        let b = sample_b();
        let plan = SymbolicProduct::plan(&a.pattern(), &b.pattern());
        // Row 0 of A hits rows 0 (1 entry) and 2 (1 entry) of B → 2 products;
        // row 1 hits row 1 (1 entry) → 1 product. Total 3 MACs = 6 FLOPs.
        assert_eq!(plan.flops(), 6);
        assert_eq!(plan.execute_flops(), 6);
    }

    #[test]
    #[should_panic(expected = "patterns do not match")]
    fn execute_rejects_wrong_pattern() {
        let a = sample_a();
        let b = sample_b();
        let plan = SymbolicProduct::plan(&a.pattern(), &b.pattern());
        let wrong = Csr::identity(3);
        let _ = plan.execute(&wrong, &b);
    }

    /// A dense matrix whose row-occupancy is deliberately skewed: a run of
    /// leading all-zero rows, one dominating dense row, and a sparse tail —
    /// the shapes that used to collapse several raw chunk boundaries onto
    /// one row.
    fn skewed_dense(
        rows: usize,
        cols: usize,
        empty_lead: usize,
        heavy_row: usize,
        tail_density: f64,
        cells: &[f64],
    ) -> Matrix<f64> {
        let mut idx = 0usize;
        Matrix::from_fn(rows, cols, |i, _| {
            let v = cells[idx % cells.len()];
            idx += 1;
            if i < empty_lead.min(rows) {
                0.0
            } else if i == heavy_row % rows {
                if v == 0.0 {
                    1.0
                } else {
                    v
                }
            } else if v.abs() < tail_density * 5.0 {
                v
            } else {
                0.0
            }
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        #[test]
        fn chunk_boundaries_partition_rows_exactly(
            (rows, k, cols, empty_lead, heavy_row, tail_density) in (
                2usize..24,
                1usize..12,
                1usize..12,
                0usize..20,
                0usize..24,
                0.0f64..1.0,
            ),
            cells in proptest::collection::vec(-5.0f64..5.0, 64),
            mode_pick in 0usize..4,
        ) {
            let mode = [
                KernelMode::Auto,
                KernelMode::Gather,
                KernelMode::Gustavson,
                KernelMode::Dense,
            ][mode_pick];
            let a = Csr::from_dense(&skewed_dense(
                rows, k, empty_lead, heavy_row, tail_density, &cells,
            ));
            let b = Csr::from_dense(&skewed_dense(k, cols, 0, heavy_row, 0.6, &cells));
            let plan = SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), mode);
            let total = plan.work_total();
            for chunks in 2..=rows.min(9) {
                let boundaries: Vec<usize> = (0..=chunks)
                    .map(|c| plan.chunk_boundary_row(c, chunks, total, rows))
                    .collect();
                proptest::prop_assert_eq!(boundaries[0], 0);
                proptest::prop_assert_eq!(boundaries[chunks], rows);
                for c in 0..chunks {
                    // Strictly monotone: no empty and no duplicate chunks,
                    // so the ranges partition 0..rows exactly.
                    proptest::prop_assert!(
                        boundaries[c] < boundaries[c + 1],
                        "chunks={} boundaries={:?} (work_ptr={:?})",
                        chunks,
                        &boundaries,
                        &plan.work_ptr
                    );
                }
            }
            // And the row-parallel executor built on those boundaries stays
            // numerically identical to the serial generic path, whatever
            // kernel the mode resolved to.
            let reference = spgemm(&a, &b);
            let pool = WorkerPool::new(3);
            let mut scratch = plan.scratch::<f64>(4);
            let mut out = Csr::from_pattern(plan.out_pattern().clone());
            plan.execute_into_parallel_with(&a, &b, &mut out, &pool, &mut scratch);
            proptest::prop_assert_eq!(out, reference);
        }
    }

    #[test]
    fn chunk_pricing_follows_the_resolved_kernels_currency() {
        // A shape where the two work currencies disagree: A's row 0 carries
        // 8 nonzeros but only B's row 0 is populated, so every A row costs
        // the same 6 structural MACs, while the dense panel kernel pays
        // `a_row_nnz × cols` — 48 for row 0 vs 6 for the single-nonzero
        // rows. The balanced 2-way split must therefore differ by kernel:
        // MAC-priced plans cut the uniform work in half (rows 0..2 | 2..4),
        // the dense-priced plan isolates the wide row (rows 0..1 | 1..4).
        let a = Csr::<f64>::from_dense(&Matrix::from_fn(4, 8, |i, j| {
            if i == 0 || j == 0 {
                1.0
            } else {
                0.0
            }
        }));
        let b = Csr::<f64>::from_dense(&Matrix::from_fn(
            8,
            6,
            |i, _| {
                if i == 0 {
                    0.5
                } else {
                    0.0
                }
            },
        ));
        let reference = spgemm(&a, &b);
        let mut cuts = std::collections::HashMap::new();
        for mode in [KernelMode::Gather, KernelMode::Gustavson, KernelMode::Dense] {
            let plan = SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), mode);
            let total = plan.work_total();
            let boundaries: Vec<usize> = (0..=2)
                .map(|c| plan.chunk_boundary_row(c, 2, total, 4))
                .collect();
            assert_eq!(boundaries[0], 0);
            assert_eq!(boundaries[2], 4);
            assert!(boundaries[1] > 0 && boundaries[1] < 4);
            cuts.insert(mode, boundaries[1]);
            // Whatever the currency, the split executes exactly.
            let pool = WorkerPool::new(3);
            let mut scratch = plan.scratch::<f64>(4);
            let mut out = Csr::from_pattern(plan.out_pattern().clone());
            plan.execute_into_parallel_with(&a, &b, &mut out, &pool, &mut scratch);
            assert_eq!(out, reference);
        }
        assert_eq!(cuts[&KernelMode::Gather], 2, "uniform MAC pricing");
        assert_eq!(cuts[&KernelMode::Gustavson], 2, "uniform MAC pricing");
        assert_eq!(
            cuts[&KernelMode::Dense],
            1,
            "dense pricing charges row 0 its full a_row_nnz × cols panel"
        );
    }

    /// Pattern shapes for the dense-kernel sweeps: which operands are full
    /// and whether `a` has empty rows (which empty the output's rows too).
    #[derive(Clone, Copy, Debug)]
    struct Shapes {
        a_full: bool,
        a_empty_rows: bool,
        b_full: bool,
    }

    const SHAPES: [Shapes; 5] = [
        // Full a, b and output: shared panel loads, b's values in place (up
        // to 64 columns), rows stored straight into the output.
        Shapes {
            a_full: true,
            a_empty_rows: false,
            b_full: true,
        },
        Shapes {
            a_full: true,
            a_empty_rows: false,
            b_full: false,
        },
        Shapes {
            a_full: false,
            a_empty_rows: false,
            b_full: true,
        },
        Shapes {
            a_full: false,
            a_empty_rows: true,
            b_full: true,
        },
        Shapes {
            a_full: false,
            a_empty_rows: true,
            b_full: false,
        },
    ];

    /// A `rows × cols` matrix whose stored entries mix ordinary values with
    /// `-0.0`, exact zeros and subnormals (in both `f32` and `f64`).
    fn special_csr<S: Scalar>(
        rows: usize,
        cols: usize,
        full: bool,
        empty_rows: bool,
        seed: u64,
    ) -> Csr<S> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut indptr, mut indices, mut data) = (vec![0usize], Vec::new(), Vec::new());
        for i in 0..rows {
            for j in 0..cols {
                let keep = if empty_rows && i % 3 == 1 {
                    false
                } else {
                    full || next() % 3 == 0
                };
                if keep {
                    let r = next();
                    let v = match r % 8 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => 1e-40,   // subnormal in f32
                        3 => -1e-310, // subnormal in f64
                        4 => f64::MIN_POSITIVE,
                        _ => ((r >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0,
                    };
                    indices.push(j as u32);
                    data.push(S::from_f64(v));
                }
            }
            indptr.push(indices.len());
        }
        Csr::try_from_parts(rows, cols, indptr, indices, data).unwrap()
    }

    /// Runs the dense kernel on every SIMD tier this CPU supports, serially
    /// and split across a pool, and checks each output bit for bit against
    /// the gather program.
    fn dense_tiers_match_gather<S: Scalar>(a: &Csr<S>, b: &Csr<S>, what: &str) {
        let gather =
            SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), KernelMode::Gather);
        let want: Vec<u64> = gather
            .execute(a, b)
            .data()
            .iter()
            .map(|v| v.to_f64().to_bits())
            .collect();
        let plan = SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), KernelMode::Dense);
        let pool = WorkerPool::new(2);
        for tier in SimdTier::available() {
            for parallel in [false, true] {
                let mut scratch = plan.scratch::<S>(1);
                let mut out = Csr::from_pattern(Arc::clone(plan.out_pattern()));
                // Twice: from a fresh and from a dirty output.
                for round in 0..2 {
                    let pool = parallel.then_some(&pool);
                    plan.dense_into(tier, a, b, &mut out, &mut scratch, pool);
                    let got: Vec<u64> = out.data().iter().map(|v| v.to_f64().to_bits()).collect();
                    assert_eq!(
                        got, want,
                        "{what} on {tier:?} (parallel {parallel}, round {round})"
                    );
                }
            }
        }
    }

    /// Every output width from 1 to 40 (every masked-tail length of a
    /// 16-lane and an 8-lane vector) and a few multi-block widths, in `f32`
    /// and `f64`, on full and partial patterns with empty rows.
    #[test]
    fn dense_kernel_width_sweep_matches_gather_on_every_tier() {
        let widths = (1..=40).chain([63, 64, 65, 97, 130]);
        for (w, cols) in widths.enumerate() {
            for (n, shapes) in SHAPES.iter().enumerate() {
                let seed = (w * SHAPES.len() + n) as u64;
                let (rows, inner) = (7 + w % 5, 3 + w % 9);
                let what = format!("cols {cols}, {shapes:?}");
                let a32 = special_csr::<f32>(rows, inner, shapes.a_full, shapes.a_empty_rows, seed);
                let b32 = special_csr::<f32>(inner, cols, shapes.b_full, false, seed + 1);
                dense_tiers_match_gather(&a32, &b32, &format!("f32 {what}"));
                let a64 = special_csr::<f64>(rows, inner, shapes.a_full, shapes.a_empty_rows, seed);
                let b64 = special_csr::<f64>(inner, cols, shapes.b_full, false, seed + 1);
                dense_tiers_match_gather(&a64, &b64, &format!("f64 {what}"));
            }
        }
    }

    #[test]
    fn dense_plans_skip_scratch_only_for_full_narrow_right_operands() {
        let full = special_csr::<f64>(20, 20, true, false, 1);
        let plan =
            SymbolicProduct::plan_with_mode(&full.pattern(), &full.pattern(), KernelMode::Dense);
        assert!(plan.out_pattern().is_full());
        assert_eq!(plan.scratch::<f64>(4).bytes(), 0);
        assert_eq!(plan.scratch_bytes::<f64>(4), 0);
        // Wider than one panel block: packed into the blocked layout.
        let wide = special_csr::<f64>(20, 65, true, false, 2);
        let plan =
            SymbolicProduct::plan_with_mode(&full.pattern(), &wide.pattern(), KernelMode::Dense);
        assert_eq!(plan.scratch::<f64>(1).bytes(), plan.scratch_bytes::<f64>(1));
        assert!(plan.scratch_bytes::<f64>(1) >= 20 * 65 * 8);
        // A partial right operand is packed too.
        let partial = special_csr::<f64>(20, 20, false, false, 3);
        let plan =
            SymbolicProduct::plan_with_mode(&full.pattern(), &partial.pattern(), KernelMode::Dense);
        assert_eq!(plan.scratch::<f64>(1).bytes(), plan.scratch_bytes::<f64>(1));
        assert!(plan.scratch_bytes::<f64>(1) >= 20 * 20 * 8);
    }

    #[test]
    fn overwriting_kernels_keep_the_output_pattern_handle() {
        let a = special_csr::<f64>(6, 9, true, false, 4);
        let b = special_csr::<f64>(9, 12, true, false, 5);
        for mode in [KernelMode::Gustavson, KernelMode::Dense] {
            let plan = SymbolicProduct::plan_with_mode(&a.pattern(), &b.pattern(), mode);
            let mut scratch = plan.scratch::<f64>(1);
            let mut out = Csr::from_pattern(Arc::clone(plan.out_pattern()));
            let before = out.data().as_ptr();
            plan.execute_into_with(&a, &b, &mut out, &mut scratch);
            assert!(Arc::ptr_eq(out.pattern_ref(), plan.out_pattern()));
            assert_eq!(out.data().as_ptr(), before, "{mode:?} must write in place");
            assert_eq!(out, spgemm(&a, &b), "{mode:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(48))]

        #[test]
        fn dense_kernel_matches_gather_on_random_patterns(
            (rows, inner, cols, shape) in (1usize..24, 1usize..24, 1usize..41, 0usize..5),
            seed in 0u64..1_000_000,
            double in 0usize..2,
        ) {
            let s = SHAPES[shape];
            let what = format!("{rows}x{inner}x{cols} {s:?} seed {seed}");
            if double == 1 {
                let a = special_csr::<f64>(rows, inner, s.a_full, s.a_empty_rows, seed);
                let b = special_csr::<f64>(inner, cols, s.b_full, false, seed ^ 0xB);
                dense_tiers_match_gather(&a, &b, &what);
            } else {
                let a = special_csr::<f32>(rows, inner, s.a_full, s.a_empty_rows, seed);
                let b = special_csr::<f32>(inner, cols, s.b_full, false, seed ^ 0xB);
                dense_tiers_match_gather(&a, &b, &what);
            }
        }
    }

    #[test]
    fn chained_products_stay_valid() {
        // Products of products (as in the scan's up-sweep) remain valid CSR.
        let a = sample_a();
        let b = sample_b();
        let c = spgemm(&a, &b); // 2x2
        let d = spgemm(&c, &c);
        assert_eq!(d.validate(), Ok(()));
        assert!(d
            .to_dense()
            .approx_eq(&c.to_dense().matmul(&c.to_dense()), 1e-12));
    }
}
