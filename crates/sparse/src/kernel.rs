//! Density-adaptive numeric kernels for [`SymbolicProduct`].
//!
//! A symbolic SpGEMM plan fixes *what* gets computed (the output pattern and
//! the structural multiply–adds); this module is about *how*. Three numeric
//! kernels cover the density spectrum the scan's up-sweep walks through as
//! Jacobian products densify level by level:
//!
//! * [`NumericKernel::Gather`] — the original precomputed gather program:
//!   one `(a_off, b_off, slot)` triplet per structural multiply–add. Ideal
//!   when products-per-output is tiny (diagonal-ish, permutation-ish
//!   operands); the table costs 12 bytes of bandwidth per MAC, which loses
//!   badly once rows get dense.
//! * [`NumericKernel::Gustavson`] — a planned row-by-row Gustavson kernel
//!   over a pre-sized dense accumulator. No per-MAC table: the operands'
//!   own CSR arrays drive the loops, and the known output pattern replaces
//!   the symbolic sort/merge. The mid-density workhorse.
//! * [`NumericKernel::Dense`] — a register-tiled microkernel over a dense
//!   panel of the right operand ([`Scalar::panel_rows`]; AVX-512, AVX or
//!   scalar tier, picked once per product): a block of output rows keeps
//!   its accumulators in SIMD registers, one column strip at a time, and
//!   stores each row once. Worth the extra (structural-zero) multiplies
//!   once the right operand is dense-ish. When the right operand's pattern
//!   is full and at most [`PANEL_BLOCK`](bppsa_tensor::panel::PANEL_BLOCK)
//!   columns wide, its own CSR values *are* the panel; when the output's
//!   pattern is full, rows are stored straight into its values. Every
//!   product of a dense RNN chain meets both, so it runs with no scratch at
//!   all: no pack, no gather.
//!
//! Selection happens per product at plan time ([`KernelMode::Auto`]) from
//! pattern-level statistics only — never values — so the choice is as
//! deterministic as the patterns themselves (§3.3 of the paper). All three
//! kernels produce **bit-for-bit identical** results for finite operands:
//! they accumulate each output element's structural terms in the same order
//! and canonicalize the leading `-0.0` the same way the generic
//! [`spgemm`](crate::spgemm) does. (The dense kernel additionally multiplies
//! structural zeros, which is exact for finite operands but can turn an
//! `inf`/`NaN` operand into extra `NaN`s — non-finite Jacobians are outside
//! the contract.)
//!
//! [`SymbolicProduct`]: crate::SymbolicProduct

use crate::SparsityPattern;
use bppsa_tensor::Scalar;

/// Right-operand density at or above which [`KernelMode::Auto`] picks the
/// dense panel microkernel. At density `d` the panel kernel performs `1/d`×
/// the structural multiplies; `0.25` caps that overwork at 4×, which the
/// register-tiled SIMD loops amortize.
pub const KERNEL_DENSE_MIN_DENSITY: f64 = 0.25;

/// Minimum right-operand column count before the dense panel kernel is
/// considered: below this the panel rows are too short for vectorization to
/// beat the sparse kernels' exact-work loops.
pub const KERNEL_DENSE_MIN_COLS: usize = 8;

/// Maximum structural multiply–adds per output element for which
/// [`KernelMode::Auto`] keeps the gather program. At ≤ 2 MACs per output the
/// gather table is barely larger than the output itself and streams
/// perfectly; beyond that the 12-byte-per-MAC table is pure overhead next to
/// Gustavson's table-free loops.
pub const KERNEL_GATHER_MAX_MACS_PER_OUT: u64 = 2;

/// How a [`SymbolicProduct`](crate::SymbolicProduct) chooses its numeric
/// kernel — the SpGEMM analogue of `bppsa-core`'s `DiagonalMode`.
///
/// [`KernelMode::Auto`] selects per product from pattern statistics (see
/// [`KernelMode::resolve`]); the three forcing variants pin one kernel, for
/// differential testing and ablation. All modes are bit-for-bit identical
/// on finite operands, so `Auto` never changes results — only throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelMode {
    /// Pick per product from the operands' pattern statistics.
    #[default]
    Auto,
    /// Always run the precomputed gather program (the pre-refactor path).
    Gather,
    /// Always run the planned row-by-row Gustavson kernel.
    Gustavson,
    /// Always run the dense-panel microkernel.
    Dense,
}

/// The numeric kernel a [`SymbolicProduct`](crate::SymbolicProduct) resolved
/// to at plan time (a [`KernelMode`] with `Auto` already decided).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumericKernel {
    /// Precomputed `(a_off, b_off, slot)` gather program.
    Gather,
    /// Planned Gustavson row-by-row kernel over a dense accumulator.
    Gustavson,
    /// Register-tiled microkernel over a dense row-major panel.
    Dense,
}

impl KernelMode {
    /// Resolves the mode for one product from pattern-level statistics:
    /// `b` is the right operand, `out_nnz` the structural output count, and
    /// `macs` the structural multiply–adds a numeric execution performs.
    ///
    /// `Auto` picks [`NumericKernel::Dense`] when `b`'s density reaches
    /// [`KERNEL_DENSE_MIN_DENSITY`] (and it is at least
    /// [`KERNEL_DENSE_MIN_COLS`] wide), [`NumericKernel::Gather`] when the
    /// product averages at most [`KERNEL_GATHER_MAX_MACS_PER_OUT`] MACs per
    /// output element, and [`NumericKernel::Gustavson`] otherwise.
    pub fn resolve(self, b: &SparsityPattern, out_nnz: usize, macs: u64) -> NumericKernel {
        match self {
            KernelMode::Gather => NumericKernel::Gather,
            KernelMode::Gustavson => NumericKernel::Gustavson,
            KernelMode::Dense => NumericKernel::Dense,
            KernelMode::Auto => {
                let cells = (b.rows() * b.cols()) as f64;
                let density = if cells > 0.0 {
                    b.nnz() as f64 / cells
                } else {
                    0.0
                };
                if density >= KERNEL_DENSE_MIN_DENSITY && b.cols() >= KERNEL_DENSE_MIN_COLS {
                    NumericKernel::Dense
                } else if macs <= KERNEL_GATHER_MAX_MACS_PER_OUT * out_nnz as u64 {
                    NumericKernel::Gather
                } else {
                    NumericKernel::Gustavson
                }
            }
        }
    }
}

/// Reusable numeric scratch for one [`SymbolicProduct`](crate::SymbolicProduct):
/// dense accumulator lanes (Gustavson kernel) or the packed right-operand
/// panel (Dense kernel, when the right operand's pattern is not full).
/// Built once via [`SymbolicProduct::scratch`](crate::SymbolicProduct::scratch)
/// and reused every execution, so the steady state stays allocation-free;
/// the gather kernel, and the dense kernel over a full right operand, need
/// none and get an empty one.
///
/// One Gustavson accumulator *lane* (a `cols`-wide row) is needed per
/// concurrent row chunk: serial execution uses lane 0, the
/// row-chunk-parallel path uses one lane per chunk. A scratch with fewer
/// lanes than the pool would fan out to simply caps the chunk count — never
/// unsoundness, just less parallelism. The dense kernel accumulates in
/// registers and needs no lanes.
#[derive(Debug, Clone)]
pub struct KernelScratch<S> {
    /// `lanes × acc_cols` Gustavson accumulator rows, all-zero between
    /// executions (each row gathers *and re-zeroes* its touched entries).
    pub(crate) acc: Vec<S>,
    pub(crate) acc_cols: usize,
    pub(crate) lanes: usize,
    /// `b.rows() × b.cols()` packed right-operand panel, in the dense
    /// kernel's column-blocked layout (Dense over a partial or wide right
    /// operand only), starting at the first 64-byte boundary of `buf` so
    /// the kernel's vector loads never split a cache line. Structural
    /// positions are refreshed by every pack; positions outside the pattern
    /// stay exactly `+0.0` forever.
    buf: Vec<S>,
    panel_at: usize,
    panel_len: usize,
}

impl<S: Scalar> KernelScratch<S> {
    /// An empty scratch (what the gather kernel uses).
    pub(crate) fn empty() -> Self {
        Self::with_dims(0, 0, 0)
    }

    pub(crate) fn with_dims(lanes: usize, acc_cols: usize, panel_len: usize) -> Self {
        let buf = vec![S::ZERO; Self::panel_buf_len(panel_len)];
        let pad = buf.len() - panel_len;
        let panel_at = buf.as_ptr().align_offset(64).min(pad);
        Self {
            acc: vec![S::ZERO; lanes * acc_cols],
            acc_cols,
            lanes,
            buf,
            panel_at,
            panel_len,
        }
    }

    /// Elements of the buffer holding a `panel_len`-element panel: room
    /// to start it on a 64-byte boundary.
    pub(crate) fn panel_buf_len(panel_len: usize) -> usize {
        match panel_len {
            0 => 0,
            n => n + 64 / std::mem::size_of::<S>().max(1),
        }
    }

    /// The packed panel (empty unless the dense kernel packs one).
    pub(crate) fn panel(&self) -> &[S] {
        &self.buf[self.panel_at..self.panel_at + self.panel_len]
    }

    pub(crate) fn panel_mut(&mut self) -> &mut [S] {
        &mut self.buf[self.panel_at..self.panel_at + self.panel_len]
    }

    /// Number of Gustavson accumulator lanes (the row-parallel chunk-count
    /// cap of that kernel).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Total heap bytes this scratch holds.
    pub fn bytes(&self) -> usize {
        (self.acc.len() + self.buf.len()) * std::mem::size_of::<S>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(rows: usize, cols: usize, nnz_rows: &[Vec<u32>]) -> SparsityPattern {
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        for r in nnz_rows {
            indices.extend_from_slice(r);
            indptr.push(indices.len());
        }
        assert_eq!(indptr.len(), rows + 1);
        SparsityPattern::new(rows, cols, indptr, indices)
    }

    #[test]
    fn forced_modes_resolve_to_themselves() {
        let b = pattern(1, 1, &[vec![0]]);
        assert_eq!(
            KernelMode::Gather.resolve(&b, 1, 100),
            NumericKernel::Gather
        );
        assert_eq!(
            KernelMode::Gustavson.resolve(&b, 1, 100),
            NumericKernel::Gustavson
        );
        assert_eq!(KernelMode::Dense.resolve(&b, 1, 100), NumericKernel::Dense);
    }

    #[test]
    fn auto_picks_gather_for_diagonal_like_products() {
        // Diagonal b: 1 MAC per output element.
        let b = pattern(4, 4, &[vec![0], vec![1], vec![2], vec![3]]);
        assert_eq!(KernelMode::Auto.resolve(&b, 4, 4), NumericKernel::Gather);
    }

    #[test]
    fn auto_picks_gustavson_for_mid_density() {
        // 16 cols, density 2/16 = 0.125 < 0.25, and 8 MACs per output.
        let rows: Vec<Vec<u32>> = (0..16).map(|k| vec![k, (k + 1) % 16]).collect();
        let b = pattern(16, 16, &rows);
        assert_eq!(
            KernelMode::Auto.resolve(&b, 16, 128),
            NumericKernel::Gustavson
        );
    }

    #[test]
    fn auto_picks_dense_above_the_density_threshold() {
        // 8 cols, every row half-full: density 0.5 ≥ 0.25 and cols ≥ 8.
        let rows: Vec<Vec<u32>> = (0..8).map(|_| vec![0, 2, 4, 6]).collect();
        let b = pattern(8, 8, &rows);
        assert_eq!(KernelMode::Auto.resolve(&b, 64, 256), NumericKernel::Dense);
    }

    #[test]
    fn auto_never_picks_dense_for_narrow_operands() {
        // Fully dense but only 4 columns wide: stays on the sparse kernels.
        let rows: Vec<Vec<u32>> = (0..4).map(|_| vec![0, 1, 2, 3]).collect();
        let b = pattern(4, 4, &rows);
        assert_ne!(KernelMode::Auto.resolve(&b, 16, 64), NumericKernel::Dense);
    }

    #[test]
    fn scratch_reports_lanes_and_bytes() {
        let s = KernelScratch::<f64>::with_dims(3, 16, 64);
        assert_eq!(s.lanes(), 3);
        // The panel buffer carries room to start on a 64-byte boundary.
        assert_eq!(s.bytes(), (3 * 16 + 64 + 8) * 8);
        assert_eq!(s.panel().len(), 64);
        assert_eq!(s.panel().as_ptr() as usize % 64, 0);
        let e = KernelScratch::<f64>::empty();
        assert_eq!(e.lanes(), 0);
        assert_eq!(e.bytes(), 0);
    }
}
