//! Register-tiled dense-panel row products: the SIMD microkernel under the
//! dense SpGEMM kernel of `bppsa-sparse`.
//!
//! Output row `i` of a panel product is `Σ_e data[e] · panel[indices[e], ..]`
//! over the stored entries `e` of row `i` of a sparse left operand
//! ([`PanelRows`]), where `panel` is a row-major dense right operand. The
//! kernel splits the output columns into strips of up to four SIMD vectors —
//! full vectors plus one masked tail vector — and computes one strip of a
//! block of rows at a time with every accumulator held in a SIMD register.
//! Each row is stored once per strip ([`RowSink`]): straight into a
//! row-major output, or through a small stack buffer into an output CSR
//! pattern's listed columns. Strips run outermost, so a strip of the panel
//! stays cache-resident while every row of the range consumes it; the panel
//! is stored in column blocks ([`PANEL_BLOCK`]), so a strip is contiguous
//! and does not alias in the cache however wide the panel is.
//!
//! Rows of a block walk their entries in lockstep as far as the shortest
//! row goes, which gives the block's accumulators independent dependency
//! chains; the longer rows then finish one at a time.
//!
//! **Exactness.** Each output element is `((0 + a₀·p₀) + a₁·p₁) + …` over
//! the row's entries in stored order: one IEEE multiply, then one IEEE add
//! per term — never a fused multiply–add. The leading `0 +` turns a `-0.0`
//! first product into `+0.0`. Every [`SimdTier`] therefore computes the
//! same bits as the scalar loop, and the same bits as a sparse product that
//! adds only the structural terms, provided the operands are finite: a
//! structural-zero term adds an exact `±0.0`.

use crate::Scalar;
use std::ops::Range;

/// A SIMD instruction tier the panel kernel can run on. Only tiers the
/// running CPU supports can be obtained, so holding one is proof that its
/// instructions are available.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SimdTier(Tier);

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Tier {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl SimdTier {
    /// The widest tier this CPU supports: AVX-512F, then AVX, then scalar.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return SimdTier(Tier::Avx512);
            }
            if std::arch::is_x86_feature_detected!("avx") {
                return SimdTier(Tier::Avx);
            }
        }
        SimdTier(Tier::Scalar)
    }

    /// Every tier this CPU supports, narrowest first (for differential
    /// tests that run each tier in turn).
    pub fn available() -> impl Iterator<Item = SimdTier> {
        #[cfg(target_arch = "x86_64")]
        let simd = [
            std::arch::is_x86_feature_detected!("avx").then_some(Tier::Avx),
            std::arch::is_x86_feature_detected!("avx512f").then_some(Tier::Avx512),
        ];
        #[cfg(not(target_arch = "x86_64"))]
        let simd: [Option<Tier>; 0] = [];
        std::iter::once(Tier::Scalar)
            .chain(simd.into_iter().flatten())
            .map(SimdTier)
    }
}

/// The operands of a dense-panel row product (see the [module
/// docs](self)): a sparse left operand in CSR arrays and a dense right
/// operand.
#[derive(Clone, Copy, Debug)]
pub struct PanelRows<'a, S> {
    /// Row offsets into `indices` and `data` (a CSR `indptr`).
    pub indptr: &'a [usize],
    /// The panel row each stored entry multiplies.
    pub indices: &'a [u32],
    /// Each stored entry's coefficient.
    pub data: &'a [S],
    /// The dense right operand, `rows × cols`, in column blocks of
    /// [`PANEL_BLOCK`] columns (the last block narrower): each block is
    /// row-major and contiguous, and block `b` starts at element
    /// `b · PANEL_BLOCK · rows` (see [`panel_index`]). A strip of the panel
    /// is therefore contiguous, whatever the panel's width; a row-major
    /// panel at most [`PANEL_BLOCK`] columns wide is already in this layout.
    pub panel: &'a [S],
    /// Width of the panel and of every output row.
    pub cols: usize,
    /// Every row stores entries for panel rows `0, 1, 2, …` in order (a
    /// full left-operand pattern), so a block of rows can share each panel
    /// load.
    pub dense_a: bool,
}

/// Where a panel product stores its rows `rows` (see
/// [`Scalar::panel_rows`]).
#[derive(Debug)]
pub enum RowSink<'a, S> {
    /// Every column, row-major: row `i` fills
    /// `data[(i - rows.start) · cols..][..cols]`.
    Dense(&'a mut [S]),
    /// Only the listed columns of each row, as an output CSR pattern with
    /// ascending columns: entry `p` of row `i` (column `indices[p]`) lands
    /// at `data[p - indptr[rows.start]]`.
    Listed {
        /// Row offsets of the output pattern.
        indptr: &'a [usize],
        /// Columns of the output pattern.
        indices: &'a [u32],
        /// Output values of rows `rows`.
        data: &'a mut [S],
    },
}

/// The `f32` entry point of [`Scalar::panel_rows`].
///
/// # Safety
///
/// As [`Scalar::panel_rows`].
pub(crate) unsafe fn f32_rows(
    tier: SimdTier,
    job: &PanelRows<'_, f32>,
    rows: Range<usize>,
    sink: RowSink<'_, f32>,
) {
    match tier.0 {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => x86::f32_avx512(job, rows, sink),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx => x86::f32_avx(job, rows, sink),
        Tier::Scalar => scalar_rows(job, rows, sink),
    }
}

/// The `f64` entry point of [`Scalar::panel_rows`].
///
/// # Safety
///
/// As [`Scalar::panel_rows`].
pub(crate) unsafe fn f64_rows(
    tier: SimdTier,
    job: &PanelRows<'_, f64>,
    rows: Range<usize>,
    sink: RowSink<'_, f64>,
) {
    match tier.0 {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => x86::f64_avx512(job, rows, sink),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx => x86::f64_avx(job, rows, sink),
        Tier::Scalar => scalar_rows(job, rows, sink),
    }
}

/// The scalar tier, for any [`Scalar`] (the default body of
/// [`Scalar::panel_rows`]).
///
/// # Safety
///
/// As [`Scalar::panel_rows`].
pub(crate) unsafe fn scalar_rows<S: Scalar>(
    job: &PanelRows<'_, S>,
    rows: Range<usize>,
    sink: RowSink<'_, S>,
) {
    rows_on::<One<S>, 2>(job, rows, sink)
}

/// Columns per block of the panel layout (see [`PanelRows::panel`]).
/// Every tier's strip width (4, 16, 32 or 64 columns) divides it, so a
/// strip never straddles two blocks.
pub const PANEL_BLOCK: usize = 64;

/// Position of panel element `(k, j)` in the blocked layout of a
/// `rows × cols` panel (see [`PanelRows::panel`]).
#[inline]
pub fn panel_index(rows: usize, cols: usize, k: usize, j: usize) -> usize {
    let block = j / PANEL_BLOCK * PANEL_BLOCK;
    block * rows + k * (cols - block).min(PANEL_BLOCK) + (j - block)
}

/// Left-operand entries per row chunk: 16 Ki entries are 192 KiB of `f64`
/// values and `u32` indices, which stay in L2 beside a panel strip while
/// every strip walks them.
const CHUNK_ENTRIES: usize = 16 * 1024;

/// Vectors per column strip, on every tier.
const STRIP_VECTORS: usize = 4;

/// The widest strip in elements (AVX-512 `f32`: 4 vectors of 16 lanes) —
/// the size of the stack buffer a [`RowSink::Listed`] row is staged in.
const MAX_STRIP: usize = 64;

/// One SIMD vector of a tier, with the handful of operations the kernel
/// uses. Every method is `#[inline(always)]`, so the generic kernel inlines
/// into each tier's `#[target_feature]` entry point and compiles with that
/// tier's instructions.
///
/// # Safety
///
/// Every method requires a CPU that supports the tier's instructions.
/// `load`/`store` need `p` valid for `LANES` elements; the masked forms
/// only for the lanes their mask selects.
trait Lanes: Copy {
    type Elem: Scalar;
    type Mask: Copy;
    const LANES: usize;
    unsafe fn zero() -> Self;
    unsafe fn splat(x: Self::Elem) -> Self;
    unsafe fn load(p: *const Self::Elem) -> Self;
    unsafe fn store(self, p: *mut Self::Elem);
    /// The mask that selects the first `n < LANES` lanes.
    unsafe fn mask(n: usize) -> Self::Mask;
    /// Loads the masked lanes; the others read as zero and touch no memory.
    unsafe fn load_masked(p: *const Self::Elem, m: Self::Mask) -> Self;
    unsafe fn store_masked(self, p: *mut Self::Elem, m: Self::Mask);
    /// `self + a · b` lane by lane: one IEEE multiply, then one IEEE add.
    unsafe fn add_mul(self, a: Self, b: Self) -> Self;
}

/// The scalar tier's one-lane "vector".
#[derive(Clone, Copy)]
struct One<S>(S);

impl<S: Scalar> Lanes for One<S> {
    type Elem = S;
    /// A one-lane vector has no partial mask but the empty one.
    type Mask = ();
    const LANES: usize = 1;
    #[inline(always)]
    unsafe fn zero() -> Self {
        One(S::ZERO)
    }
    #[inline(always)]
    unsafe fn splat(x: S) -> Self {
        One(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const S) -> Self {
        One(*p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut S) {
        *p = self.0
    }
    #[inline(always)]
    unsafe fn mask(_: usize) {}
    #[inline(always)]
    unsafe fn load_masked(_: *const S, _: ()) -> Self {
        One(S::ZERO)
    }
    #[inline(always)]
    unsafe fn store_masked(self, _: *mut S, _: ()) {}
    #[inline(always)]
    unsafe fn add_mul(self, a: Self, b: Self) -> Self {
        One(self.0 + a.0 * b.0)
    }
}

/// An output sink reduced to raw pointers, so it can be passed by value.
#[derive(Clone, Copy)]
enum Out<S> {
    /// Row `i` starts at `data + (i - first) · cols`.
    Dense { data: *mut S, first: usize },
    /// Entry `p` of the output pattern lands at `data + (p - base)`.
    Listed {
        indptr: *const usize,
        indices: *const u32,
        data: *mut S,
        base: usize,
    },
}

/// Rows `rows` of `job` into `sink`, `R` rows per register block.
///
/// # Safety
///
/// As [`Scalar::panel_rows`], and the CPU must support `V`'s instructions.
#[inline(always)]
unsafe fn rows_on<V: Lanes, const R: usize>(
    job: &PanelRows<'_, V::Elem>,
    rows: Range<usize>,
    sink: RowSink<'_, V::Elem>,
) {
    if rows.is_empty() || job.cols == 0 {
        return;
    }
    let out = match sink {
        RowSink::Dense(data) => Out::Dense {
            data: data.as_mut_ptr(),
            first: rows.start,
        },
        RowSink::Listed {
            indptr,
            indices,
            data,
        } => Out::Listed {
            indptr: indptr.as_ptr(),
            indices: indices.as_ptr(),
            data: data.as_mut_ptr(),
            base: indptr[rows.start],
        },
    };
    let lanes = V::LANES;
    let full = STRIP_VECTORS * lanes;
    let rest = job.cols % full;
    let (no_mask, m) = (V::mask(0), V::mask(rest % lanes));
    let mut stage = [<V::Elem as Scalar>::ZERO; MAX_STRIP];
    let st = &mut stage;
    // Rows go in chunks whose entries fit in cache next to one panel strip,
    // since every strip walks the chunk's entries again.
    let indptr = job.indptr;
    let mut lo = rows.start;
    while lo < rows.end {
        let budget = indptr[lo] + CHUNK_ENTRIES;
        let fit = indptr[lo + 1..=rows.end].partition_point(|&p| p <= budget);
        let chunk = lo..lo + fit.max(1);
        let mut c0 = 0;
        while c0 + full <= job.cols {
            strip::<V, R, STRIP_VECTORS, false>(job, &chunk, c0, full, no_mask, out, st);
            c0 += full;
        }
        match (rest / lanes, !rest.is_multiple_of(lanes)) {
            (0, false) => {}
            (0, true) => strip::<V, R, 0, true>(job, &chunk, c0, rest, m, out, st),
            (1, false) => strip::<V, R, 1, false>(job, &chunk, c0, rest, m, out, st),
            (1, true) => strip::<V, R, 1, true>(job, &chunk, c0, rest, m, out, st),
            (2, false) => strip::<V, R, 2, false>(job, &chunk, c0, rest, m, out, st),
            (2, true) => strip::<V, R, 2, true>(job, &chunk, c0, rest, m, out, st),
            (3, false) => strip::<V, R, 3, false>(job, &chunk, c0, rest, m, out, st),
            (3, true) => strip::<V, R, 3, true>(job, &chunk, c0, rest, m, out, st),
            _ => unreachable!("a partial strip holds fewer than STRIP_VECTORS vectors"),
        }
        lo = chunk.end;
    }
}

/// Where one column strip reads the panel: row `k` of the strip starts at
/// `base + k · stride`.
#[derive(Clone, Copy)]
struct StripPanel<S> {
    base: *const S,
    stride: usize,
}

/// One column strip — `NF` full vectors, plus a masked tail vector when
/// `TAIL` — starting at column `c0` and `width` columns wide, for every row
/// of `rows`.
///
/// # Safety
///
/// As [`rows_on`], for rows and columns inside the ones it was given.
#[inline(always)]
unsafe fn strip<V: Lanes, const R: usize, const NF: usize, const TAIL: bool>(
    job: &PanelRows<'_, V::Elem>,
    rows: &Range<usize>,
    c0: usize,
    width: usize,
    mask: V::Mask,
    out: Out<V::Elem>,
    stage: &mut [V::Elem; MAX_STRIP],
) {
    // Every strip width divides PANEL_BLOCK, so a strip lies inside one
    // column block.
    let k_rows = job.panel.len() / job.cols;
    let block = c0 / PANEL_BLOCK * PANEL_BLOCK;
    let panel = StripPanel {
        base: job.panel.as_ptr().add(block * k_rows + (c0 - block)),
        stride: (job.cols - block).min(PANEL_BLOCK),
    };
    let mut i = rows.start;
    while i + R <= rows.end {
        block_rows::<V, R, NF, TAIL>(job, panel, i, c0, width, mask, out, stage);
        i += R;
    }
    while i < rows.end {
        block_rows::<V, 1, NF, TAIL>(job, panel, i, c0, width, mask, out, stage);
        i += 1;
    }
}

/// One strip of rows `i0..i0 + R`, accumulated in registers and stored.
///
/// # Safety
///
/// As [`rows_on`], for rows and columns inside the ones it was given.
#[inline(always)]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)] // `r` indexes parallel arrays
unsafe fn block_rows<V: Lanes, const R: usize, const NF: usize, const TAIL: bool>(
    job: &PanelRows<'_, V::Elem>,
    panel: StripPanel<V::Elem>,
    i0: usize,
    c0: usize,
    width: usize,
    mask: V::Mask,
    out: Out<V::Elem>,
    stage: &mut [V::Elem; MAX_STRIP],
) {
    let indptr = job.indptr.as_ptr();
    let data = job.data.as_ptr();
    let mut start = [0usize; R];
    let mut len = [0usize; R];
    for r in 0..R {
        start[r] = *indptr.add(i0 + r);
        len[r] = *indptr.add(i0 + r + 1) - start[r];
    }
    let common = len.iter().copied().min().unwrap_or(0);
    let mut acc = [[V::zero(); NF]; R];
    let mut tail = [V::zero(); R];
    if job.dense_a {
        // Entry `s` of every row multiplies panel row `s`: load it once for
        // the whole block.
        for s in 0..common {
            let p = panel.base.add(s * panel.stride);
            let mut b = [V::zero(); NF];
            for (v, x) in b.iter_mut().enumerate() {
                *x = V::load(p.add(v * V::LANES));
            }
            let bt = if TAIL {
                V::load_masked(p.add(NF * V::LANES), mask)
            } else {
                V::zero()
            };
            for r in 0..R {
                let a = V::splat(*data.add(start[r] + s));
                for v in 0..NF {
                    acc[r][v] = acc[r][v].add_mul(a, b[v]);
                }
                if TAIL {
                    tail[r] = tail[r].add_mul(a, bt);
                }
            }
        }
    } else {
        for s in 0..common {
            for r in 0..R {
                term::<V, NF, TAIL>(job, panel, start[r] + s, mask, &mut acc[r], &mut tail[r]);
            }
        }
    }
    for r in 0..R {
        for e in start[r] + common..start[r] + len[r] {
            term::<V, NF, TAIL>(job, panel, e, mask, &mut acc[r], &mut tail[r]);
        }
    }
    for r in 0..R {
        emit::<V, NF, TAIL>(
            out,
            job.cols,
            i0 + r,
            c0,
            width,
            &acc[r],
            tail[r],
            mask,
            stage,
        );
    }
}

/// Adds stored entry `e`'s term to one row's strip accumulators.
///
/// # Safety
///
/// As [`rows_on`], for rows and columns inside the ones it was given.
#[inline(always)]
unsafe fn term<V: Lanes, const NF: usize, const TAIL: bool>(
    job: &PanelRows<'_, V::Elem>,
    panel: StripPanel<V::Elem>,
    e: usize,
    mask: V::Mask,
    acc: &mut [V; NF],
    tail: &mut V,
) {
    // Entry `e` lies in a row of the range, so it is in bounds of both
    // arrays and its panel row is below `k_rows` ([`Scalar::panel_rows`]).
    let a = V::splat(*job.data.get_unchecked(e));
    let k = *job.indices.get_unchecked(e) as usize;
    let p = panel.base.add(k * panel.stride);
    for (v, x) in acc.iter_mut().enumerate() {
        *x = x.add_mul(a, V::load(p.add(v * V::LANES)));
    }
    if TAIL {
        *tail = tail.add_mul(a, V::load_masked(p.add(NF * V::LANES), mask));
    }
}

/// Stores one row's strip: straight from the registers into a dense
/// output or into a listed row whose strip columns are all present, and
/// otherwise through `stage` into the listed columns inside the strip.
///
/// # Safety
///
/// As [`rows_on`], for rows and columns inside the ones it was given.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn emit<V: Lanes, const NF: usize, const TAIL: bool>(
    out: Out<V::Elem>,
    cols: usize,
    i: usize,
    c0: usize,
    width: usize,
    acc: &[V; NF],
    tail: V,
    mask: V::Mask,
    stage: &mut [V::Elem; MAX_STRIP],
) {
    let lanes = V::LANES;
    let store = |dst: *mut V::Elem| {
        for (v, x) in acc.iter().enumerate() {
            x.store(dst.add(v * lanes));
        }
        if TAIL {
            tail.store_masked(dst.add(NF * lanes), mask);
        }
    };
    match out {
        Out::Dense { data, first } => store(data.add((i - first) * cols + c0)),
        Out::Listed {
            indptr,
            indices,
            data,
            base,
        } => {
            let (lo, hi) = (*indptr.add(i), *indptr.add(i + 1));
            let listed = std::slice::from_raw_parts(indices.add(lo), hi - lo);
            // With ascending distinct columns, between `c0 - missing` and
            // `c0` of them lie below `c0`: search only that window, which is
            // empty for a full row.
            let missing = cols.saturating_sub(listed.len());
            let from = c0.saturating_sub(missing).min(listed.len());
            let to = c0.min(listed.len());
            let first = from + listed[from..to].partition_point(|&j| (j as usize) < c0);
            let run = &listed[first..];
            if run.len() >= width && run[width - 1] as usize == c0 + width - 1 {
                // `width` distinct columns from `c0` to `c0 + width - 1`:
                // the whole strip, contiguous in the row's values.
                store(data.add(lo + first - base));
                return;
            }
            let staged = stage.as_mut_ptr();
            for (v, x) in acc.iter().enumerate() {
                x.store(staged.add(v * lanes));
            }
            if TAIL {
                tail.store(staged.add(NF * lanes));
            }
            for (p, &j) in (lo + first..hi).zip(run) {
                let j = j as usize;
                if j >= c0 + width {
                    break;
                }
                *data.add(p - base) = stage[j - c0];
            }
        }
    }
}

/// The AVX-512F and AVX tiers.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{rows_on, Lanes, PanelRows, RowSink};
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// Lane masks for the AVX tier's masked loads and stores: the mask of
    /// the first `n` lanes is the `LANES`-element window starting `n`
    /// elements before the zeros.
    static MASK32: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
    static MASK64: [i64; 8] = [-1, -1, -1, -1, 0, 0, 0, 0];

    #[derive(Clone, Copy)]
    struct F32x16(__m512);
    #[derive(Clone, Copy)]
    struct F64x8(__m512d);
    #[derive(Clone, Copy)]
    struct F32x8(__m256);
    #[derive(Clone, Copy)]
    struct F64x4(__m256d);

    impl Lanes for F32x16 {
        type Elem = f32;
        type Mask = __mmask16;
        const LANES: usize = 16;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Self(_mm512_setzero_ps())
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Self(_mm512_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            Self(_mm512_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn mask(n: usize) -> __mmask16 {
            ((1u32 << n) - 1) as __mmask16
        }
        #[inline(always)]
        unsafe fn load_masked(p: *const f32, m: __mmask16) -> Self {
            Self(_mm512_maskz_loadu_ps(m, p))
        }
        #[inline(always)]
        unsafe fn store_masked(self, p: *mut f32, m: __mmask16) {
            _mm512_mask_storeu_ps(p, m, self.0)
        }
        #[inline(always)]
        unsafe fn add_mul(self, a: Self, b: Self) -> Self {
            Self(_mm512_add_ps(self.0, _mm512_mul_ps(a.0, b.0)))
        }
    }

    impl Lanes for F64x8 {
        type Elem = f64;
        type Mask = __mmask8;
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Self(_mm512_setzero_pd())
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            Self(_mm512_set1_pd(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            Self(_mm512_loadu_pd(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm512_storeu_pd(p, self.0)
        }
        #[inline(always)]
        unsafe fn mask(n: usize) -> __mmask8 {
            ((1u32 << n) - 1) as __mmask8
        }
        #[inline(always)]
        unsafe fn load_masked(p: *const f64, m: __mmask8) -> Self {
            Self(_mm512_maskz_loadu_pd(m, p))
        }
        #[inline(always)]
        unsafe fn store_masked(self, p: *mut f64, m: __mmask8) {
            _mm512_mask_storeu_pd(p, m, self.0)
        }
        #[inline(always)]
        unsafe fn add_mul(self, a: Self, b: Self) -> Self {
            Self(_mm512_add_pd(self.0, _mm512_mul_pd(a.0, b.0)))
        }
    }

    impl Lanes for F32x8 {
        type Elem = f32;
        type Mask = __m256i;
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Self(_mm256_setzero_ps())
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Self(_mm256_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            Self(_mm256_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn mask(n: usize) -> __m256i {
            _mm256_loadu_si256(MASK32.as_ptr().add(8 - n) as *const __m256i)
        }
        #[inline(always)]
        unsafe fn load_masked(p: *const f32, m: __m256i) -> Self {
            Self(_mm256_maskload_ps(p, m))
        }
        #[inline(always)]
        unsafe fn store_masked(self, p: *mut f32, m: __m256i) {
            _mm256_maskstore_ps(p, m, self.0)
        }
        #[inline(always)]
        unsafe fn add_mul(self, a: Self, b: Self) -> Self {
            Self(_mm256_add_ps(self.0, _mm256_mul_ps(a.0, b.0)))
        }
    }

    impl Lanes for F64x4 {
        type Elem = f64;
        type Mask = __m256i;
        const LANES: usize = 4;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Self(_mm256_setzero_pd())
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            Self(_mm256_set1_pd(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            Self(_mm256_loadu_pd(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self.0)
        }
        #[inline(always)]
        unsafe fn mask(n: usize) -> __m256i {
            _mm256_loadu_si256(MASK64.as_ptr().add(4 - n) as *const __m256i)
        }
        #[inline(always)]
        unsafe fn load_masked(p: *const f64, m: __m256i) -> Self {
            Self(_mm256_maskload_pd(p, m))
        }
        #[inline(always)]
        unsafe fn store_masked(self, p: *mut f64, m: __m256i) {
            _mm256_maskstore_pd(p, m, self.0)
        }
        #[inline(always)]
        unsafe fn add_mul(self, a: Self, b: Self) -> Self {
            Self(_mm256_add_pd(self.0, _mm256_mul_pd(a.0, b.0)))
        }
    }

    // Four rows per block on AVX-512 (up to 16 of its 32 registers hold
    // accumulators), two on AVX (8 of 16).

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn f32_avx512(
        job: &PanelRows<'_, f32>,
        rows: Range<usize>,
        sink: RowSink<'_, f32>,
    ) {
        rows_on::<F32x16, 4>(job, rows, sink)
    }

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn f64_avx512(
        job: &PanelRows<'_, f64>,
        rows: Range<usize>,
        sink: RowSink<'_, f64>,
    ) {
        rows_on::<F64x8, 4>(job, rows, sink)
    }

    #[target_feature(enable = "avx")]
    pub(super) unsafe fn f32_avx(
        job: &PanelRows<'_, f32>,
        rows: Range<usize>,
        sink: RowSink<'_, f32>,
    ) {
        rows_on::<F32x8, 2>(job, rows, sink)
    }

    #[target_feature(enable = "avx")]
    pub(super) unsafe fn f64_avx(
        job: &PanelRows<'_, f64>,
        rows: Range<usize>,
        sink: RowSink<'_, f64>,
    ) {
        rows_on::<F64x4, 2>(job, rows, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_index_lays_out_contiguous_column_blocks() {
        // Up to PANEL_BLOCK columns: plain row-major.
        assert_eq!(panel_index(3, 5, 2, 4), 2 * 5 + 4);
        // 3 rows × 70 columns: a 64-wide block, then a 6-wide one.
        assert_eq!(panel_index(3, 70, 0, 63), 63);
        assert_eq!(panel_index(3, 70, 1, 0), 64);
        assert_eq!(panel_index(3, 70, 0, 64), 3 * 64);
        assert_eq!(panel_index(3, 70, 2, 69), 3 * 64 + 2 * 6 + 5);
        let mut seen = vec![false; 3 * 70];
        for k in 0..3 {
            for j in 0..70 {
                let p = panel_index(3, 70, k, j);
                assert!(!seen[p], "({k}, {j}) collides");
                seen[p] = true;
            }
        }
    }

    /// Each tier, into both sinks, against the plain scalar loop: full
    /// rows of `a` (shared panel loads) and ragged ones, at widths that
    /// cover full strips, several blocks and every tail length.
    #[test]
    fn every_tier_matches_the_scalar_loop() {
        fn check<S: Scalar>() {
            for cols in (1..=40).chain([64, 65, 100, 129]) {
                let k_rows = 6;
                let rows = 9;
                let mut panel = vec![S::ZERO; k_rows * cols];
                for k in 0..k_rows {
                    for j in 0..cols {
                        let v = ((k * 31 + j * 7) % 13) as f64 - 6.5;
                        panel[panel_index(k_rows, cols, k, j)] = S::from_f64(v * 0.25);
                    }
                }
                for dense_a in [true, false] {
                    let (mut indptr, mut indices, mut data) = (vec![0], vec![], vec![]);
                    for i in 0..rows {
                        for k in 0..k_rows {
                            if dense_a || (i + k) % 3 != 0 {
                                indices.push(k as u32);
                                data.push(S::from_f64(i as f64 - k as f64 * 0.5));
                            }
                        }
                        indptr.push(indices.len());
                    }
                    let job = PanelRows {
                        indptr: &indptr,
                        indices: &indices,
                        data: &data,
                        panel: &panel,
                        cols,
                        dense_a,
                    };
                    let mut want = vec![S::ZERO; rows * cols];
                    for i in 0..rows {
                        for e in indptr[i]..indptr[i + 1] {
                            let k = indices[e] as usize;
                            for j in 0..cols {
                                let p = panel[panel_index(k_rows, cols, k, j)];
                                want[i * cols + j] += data[e] * p;
                            }
                        }
                    }
                    // Every other column listed, rows 2.. only.
                    let listed: Vec<u32> = (0..cols as u32).step_by(2).collect();
                    let out_ptr: Vec<usize> = (0..=rows).map(|i| i * listed.len()).collect();
                    let out_idx: Vec<u32> = (0..rows).flat_map(|_| listed.clone()).collect();
                    for tier in SimdTier::available() {
                        let mut dense = vec![S::ZERO; rows * cols];
                        let mut some = vec![S::ZERO; out_ptr[rows] - out_ptr[2]];
                        // SAFETY: the job and both sinks satisfy the
                        // documented preconditions by construction.
                        unsafe {
                            S::panel_rows(tier, &job, 0..rows, RowSink::Dense(&mut dense));
                            let sink = RowSink::Listed {
                                indptr: &out_ptr,
                                indices: &out_idx,
                                data: &mut some,
                            };
                            S::panel_rows(tier, &job, 2..rows, sink);
                        }
                        let bits = |v: &S| v.to_f64().to_bits();
                        let what = format!("{tier:?} cols {cols} dense_a {dense_a}");
                        assert!(dense.iter().map(bits).eq(want.iter().map(bits)), "{what}");
                        let picked = (2..rows).flat_map(|i| listed.iter().map(move |&j| (i, j)));
                        for ((i, j), got) in picked.zip(&some) {
                            assert_eq!(bits(got), bits(&want[i * cols + j as usize]), "{what}");
                        }
                    }
                }
            }
        }
        check::<f32>();
        check::<f64>();
    }
}
