//! The [`Scalar`] abstraction over floating-point element types.
//!
//! All linear algebra in this workspace is generic over `Scalar` so that
//! models can train in `f32` (matching GPU practice in the paper) while test
//! oracles (finite differences, exactness bounds) run in `f64`.

use crate::panel::{self, PanelRows, RowSink, SimdTier};
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Range, Sub, SubAssign};

/// A floating-point scalar type usable as the element of vectors, matrices,
/// and tensors throughout the BPPSA workspace.
///
/// This trait is implemented for [`f32`] and [`f64`]; it is sealed in spirit
/// (implementing it for other types is unsupported) but left open so that
/// downstream experiments with custom numeric types remain possible.
///
/// # Examples
///
/// ```
/// use bppsa_tensor::Scalar;
///
/// fn double<S: Scalar>(x: S) -> S {
///     x + x
/// }
/// assert_eq!(double(2.0_f32), 4.0);
/// assert_eq!(double(2.0_f64), 4.0);
/// ```
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Negative infinity (used by max-pooling as the fold seed).
    const NEG_INFINITY: Self;

    /// Converts from `f64`, rounding to the nearest representable value.
    fn from_f64(v: f64) -> Self;
    /// Converts to `f64` exactly (both supported types embed into `f64`).
    fn to_f64(self) -> f64;
    /// Converts from `usize` (used for averaging and normalization factors).
    fn from_usize(v: usize) -> Self {
        Self::from_f64(v as f64)
    }

    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Hyperbolic tangent (the RNN activation in the paper's Equation 9).
    fn tanh(self) -> Self;
    /// Integer power.
    fn powi(self, n: i32) -> Self;
    /// The larger of `self` and `other` (NaN-propagating comparisons avoided).
    fn maximum(self, other: Self) -> Self;
    /// The smaller of `self` and `other`.
    fn minimum(self, other: Self) -> Self;
    /// Whether the value is finite (not NaN or infinite).
    fn is_finite(self) -> bool;
    /// Machine epsilon for the type.
    fn epsilon() -> Self;

    /// Four stacked axpys in one pass over the common prefix of the slices:
    /// `dst[i] = (((dst[i] + a1·src1[i]) + a2·src2[i]) + a3·src3[i]) +
    /// a4·src4[i]`, with exactly that association. The default body is the
    /// scalar loop; `f32`/`f64` override it with a SIMD version on `x86_64`
    /// (AVX, and AVX-512F for `f64`) when the CPU supports it at runtime.
    /// Every override must be **bit-for-bit identical** to the scalar loop:
    /// exactly one IEEE multiply and one IEEE add per term, in
    /// round-to-nearest — which rules out FMA (fused rounding differs) but
    /// not plain vector mul/add (IEEE per lane).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn slice_axpy4(
        dst: &mut [Self],
        a1: Self,
        src1: &[Self],
        a2: Self,
        src2: &[Self],
        a3: Self,
        src3: &[Self],
        a4: Self,
        src4: &[Self],
    ) {
        let n = dst
            .len()
            .min(src1.len())
            .min(src2.len())
            .min(src3.len())
            .min(src4.len());
        for i in 0..n {
            dst[i] = dst[i] + a1 * src1[i] + a2 * src2[i] + a3 * src3[i] + a4 * src4[i];
        }
    }

    /// Computes rows `rows` of the dense-panel product `job` into `sink` on
    /// `tier`: the register-tiled microkernel under the dense SpGEMM kernel
    /// (see [`crate::panel`]). Each output element is
    /// `((0 + a₀·p₀) + a₁·p₁) + …` over the row's stored entries in order,
    /// one IEEE multiply and one IEEE add per term, so every tier computes
    /// the same bits. The default body runs the scalar tier for any `tier`;
    /// `f32`/`f64` run the tier they are given.
    ///
    /// # Safety
    ///
    /// The kernel reads and writes without bounds checks, so the caller
    /// guarantees:
    ///
    /// * `rows.end < job.indptr.len()`, and for every `i` in `rows`,
    ///   `job.indptr[i] <= job.indptr[i + 1] <= job.indices.len()` and
    ///   `job.indices.len() <= job.data.len()`;
    /// * `job.panel.len()` is a multiple of `job.cols` — a
    ///   `k_rows × cols` panel in the blocked layout of
    ///   [`PanelRows::panel`] — and every entry `e` of those rows has
    ///   `job.indices[e] < k_rows`; when `job.dense_a`, entry `s` of each
    ///   row has index `s`;
    /// * a [`RowSink::Dense`] holds at least `rows.len() · job.cols` values;
    ///   a [`RowSink::Listed`] pattern has `rows.end < indptr.len()`,
    ///   non-decreasing offsets over `rows`, ascending columns below
    ///   `job.cols` within each row, and `data` holds at least
    ///   `indptr[rows.end] - indptr[rows.start]` values.
    unsafe fn panel_rows(
        tier: SimdTier,
        job: &PanelRows<'_, Self>,
        rows: Range<usize>,
        sink: RowSink<'_, Self>,
    ) {
        let _ = tier;
        panel::scalar_rows(job, rows, sink)
    }
}

/// AVX and AVX-512F bodies of [`Scalar::slice_axpy4`]. Plain `vmulpd` /
/// `vaddpd` (and the `ps` forms) only — one IEEE multiply and one IEEE add
/// per lane, so results are bit-for-bit identical to the scalar loop. FMA
/// is deliberately not used: its fused single rounding would diverge from
/// the scalar path.
#[cfg(target_arch = "x86_64")]
mod avx {
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Caller must have verified AVX support (`is_x86_feature_detected!`).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx")]
    pub unsafe fn axpy4_f64(
        dst: &mut [f64],
        a1: f64,
        src1: &[f64],
        a2: f64,
        src2: &[f64],
        a3: f64,
        src3: &[f64],
        a4: f64,
        src4: &[f64],
    ) {
        let n = dst
            .len()
            .min(src1.len())
            .min(src2.len())
            .min(src3.len())
            .min(src4.len());
        let (av1, av2) = (_mm256_set1_pd(a1), _mm256_set1_pd(a2));
        let (av3, av4) = (_mm256_set1_pd(a3), _mm256_set1_pd(a4));
        let dp = dst.as_mut_ptr();
        let (s1, s2, s3, s4) = (src1.as_ptr(), src2.as_ptr(), src3.as_ptr(), src4.as_ptr());
        let mut i = 0;
        while i + 4 <= n {
            // The four-axpy association, kept explicit lane by lane.
            let mut r = _mm256_add_pd(
                _mm256_loadu_pd(dp.add(i)),
                _mm256_mul_pd(av1, _mm256_loadu_pd(s1.add(i))),
            );
            r = _mm256_add_pd(r, _mm256_mul_pd(av2, _mm256_loadu_pd(s2.add(i))));
            r = _mm256_add_pd(r, _mm256_mul_pd(av3, _mm256_loadu_pd(s3.add(i))));
            r = _mm256_add_pd(r, _mm256_mul_pd(av4, _mm256_loadu_pd(s4.add(i))));
            _mm256_storeu_pd(dp.add(i), r);
            i += 4;
        }
        while i < n {
            *dp.add(i) =
                *dp.add(i) + a1 * *s1.add(i) + a2 * *s2.add(i) + a3 * *s3.add(i) + a4 * *s4.add(i);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Caller must have verified AVX-512F support
    /// (`is_x86_feature_detected!`).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn axpy4_f64_512(
        dst: &mut [f64],
        a1: f64,
        src1: &[f64],
        a2: f64,
        src2: &[f64],
        a3: f64,
        src3: &[f64],
        a4: f64,
        src4: &[f64],
    ) {
        let n = dst
            .len()
            .min(src1.len())
            .min(src2.len())
            .min(src3.len())
            .min(src4.len());
        let (av1, av2) = (_mm512_set1_pd(a1), _mm512_set1_pd(a2));
        let (av3, av4) = (_mm512_set1_pd(a3), _mm512_set1_pd(a4));
        let dp = dst.as_mut_ptr();
        let (s1, s2, s3, s4) = (src1.as_ptr(), src2.as_ptr(), src3.as_ptr(), src4.as_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let mut r = _mm512_add_pd(
                _mm512_loadu_pd(dp.add(i)),
                _mm512_mul_pd(av1, _mm512_loadu_pd(s1.add(i))),
            );
            r = _mm512_add_pd(r, _mm512_mul_pd(av2, _mm512_loadu_pd(s2.add(i))));
            r = _mm512_add_pd(r, _mm512_mul_pd(av3, _mm512_loadu_pd(s3.add(i))));
            r = _mm512_add_pd(r, _mm512_mul_pd(av4, _mm512_loadu_pd(s4.add(i))));
            _mm512_storeu_pd(dp.add(i), r);
            i += 8;
        }
        while i < n {
            *dp.add(i) =
                *dp.add(i) + a1 * *s1.add(i) + a2 * *s2.add(i) + a3 * *s3.add(i) + a4 * *s4.add(i);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Caller must have verified AVX support (`is_x86_feature_detected!`).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx")]
    pub unsafe fn axpy4_f32(
        dst: &mut [f32],
        a1: f32,
        src1: &[f32],
        a2: f32,
        src2: &[f32],
        a3: f32,
        src3: &[f32],
        a4: f32,
        src4: &[f32],
    ) {
        let n = dst
            .len()
            .min(src1.len())
            .min(src2.len())
            .min(src3.len())
            .min(src4.len());
        let (av1, av2) = (_mm256_set1_ps(a1), _mm256_set1_ps(a2));
        let (av3, av4) = (_mm256_set1_ps(a3), _mm256_set1_ps(a4));
        let dp = dst.as_mut_ptr();
        let (s1, s2, s3, s4) = (src1.as_ptr(), src2.as_ptr(), src3.as_ptr(), src4.as_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let mut r = _mm256_add_ps(
                _mm256_loadu_ps(dp.add(i)),
                _mm256_mul_ps(av1, _mm256_loadu_ps(s1.add(i))),
            );
            r = _mm256_add_ps(r, _mm256_mul_ps(av2, _mm256_loadu_ps(s2.add(i))));
            r = _mm256_add_ps(r, _mm256_mul_ps(av3, _mm256_loadu_ps(s3.add(i))));
            r = _mm256_add_ps(r, _mm256_mul_ps(av4, _mm256_loadu_ps(s4.add(i))));
            _mm256_storeu_ps(dp.add(i), r);
            i += 8;
        }
        while i < n {
            *dp.add(i) =
                *dp.add(i) + a1 * *s1.add(i) + a2 * *s2.add(i) + a3 * *s3.add(i) + a4 * *s4.add(i);
            i += 1;
        }
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f32::NEG_INFINITY;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f32::exp(self)
    }
    #[inline]
    fn ln(self) -> Self {
        f32::ln(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        f32::tanh(self)
    }
    #[inline]
    fn powi(self, n: i32) -> Self {
        f32::powi(self, n)
    }
    #[inline]
    fn maximum(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline]
    fn minimum(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline]
    fn epsilon() -> Self {
        f32::EPSILON
    }
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn slice_axpy4(
        dst: &mut [Self],
        a1: Self,
        src1: &[Self],
        a2: Self,
        src2: &[Self],
        a3: Self,
        src3: &[Self],
        a4: Self,
        src4: &[Self],
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support just verified.
            unsafe { avx::axpy4_f32(dst, a1, src1, a2, src2, a3, src3, a4, src4) };
            return;
        }
        let n = dst
            .len()
            .min(src1.len())
            .min(src2.len())
            .min(src3.len())
            .min(src4.len());
        for i in 0..n {
            dst[i] = dst[i] + a1 * src1[i] + a2 * src2[i] + a3 * src3[i] + a4 * src4[i];
        }
    }
    unsafe fn panel_rows(
        tier: SimdTier,
        job: &PanelRows<'_, Self>,
        rows: Range<usize>,
        sink: RowSink<'_, Self>,
    ) {
        panel::f32_rows(tier, job, rows, sink)
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f64::NEG_INFINITY;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline]
    fn ln(self) -> Self {
        f64::ln(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline]
    fn powi(self, n: i32) -> Self {
        f64::powi(self, n)
    }
    #[inline]
    fn maximum(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn minimum(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn epsilon() -> Self {
        f64::EPSILON
    }
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn slice_axpy4(
        dst: &mut [Self],
        a1: Self,
        src1: &[Self],
        a2: Self,
        src2: &[Self],
        a3: Self,
        src3: &[Self],
        a4: Self,
        src4: &[Self],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F support just verified.
                unsafe { avx::axpy4_f64_512(dst, a1, src1, a2, src2, a3, src3, a4, src4) };
                return;
            }
            if std::arch::is_x86_feature_detected!("avx") {
                // SAFETY: AVX support just verified.
                unsafe { avx::axpy4_f64(dst, a1, src1, a2, src2, a3, src3, a4, src4) };
                return;
            }
        }
        let n = dst
            .len()
            .min(src1.len())
            .min(src2.len())
            .min(src3.len())
            .min(src4.len());
        for i in 0..n {
            dst[i] = dst[i] + a1 * src1[i] + a2 * src2[i] + a3 * src3[i] + a4 * src4[i];
        }
    }
    unsafe fn panel_rows(
        tier: SimdTier,
        job: &PanelRows<'_, Self>,
        rows: Range<usize>,
        sink: RowSink<'_, Self>,
    ) {
        panel::f64_rows(tier, job, rows, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<S: Scalar>() {
        assert_eq!(S::ZERO + S::ONE, S::ONE);
        assert_eq!(S::ONE * S::ONE, S::ONE);
        assert_eq!(S::from_f64(2.0).to_f64(), 2.0);
        assert_eq!(S::from_usize(3).to_f64(), 3.0);
        assert_eq!(S::from_f64(-2.0).abs().to_f64(), 2.0);
        assert!((S::from_f64(4.0).sqrt().to_f64() - 2.0).abs() < 1e-6);
        assert!((S::from_f64(0.0).exp().to_f64() - 1.0).abs() < 1e-6);
        assert!((S::from_f64(1.0).ln().to_f64()).abs() < 1e-6);
        assert!((S::from_f64(0.0).tanh().to_f64()).abs() < 1e-12);
        assert_eq!(S::from_f64(2.0).powi(3).to_f64(), 8.0);
        assert_eq!(S::from_f64(1.0).maximum(S::from_f64(2.0)).to_f64(), 2.0);
        assert_eq!(S::from_f64(1.0).minimum(S::from_f64(2.0)).to_f64(), 1.0);
        assert!(S::ONE.is_finite());
        assert!(!S::NEG_INFINITY.is_finite());
        assert!(S::NEG_INFINITY < S::from_f64(-1e30));
        assert!(S::epsilon() > S::ZERO);
    }

    #[test]
    fn f32_satisfies_contract() {
        exercise::<f32>();
    }

    #[test]
    fn f64_satisfies_contract() {
        exercise::<f64>();
    }

    #[test]
    fn sum_folds_over_iterator() {
        let xs = [1.0f32, 2.0, 3.0];
        let s: f32 = xs.iter().copied().sum();
        assert_eq!(s, 6.0);
    }

    /// `slice_axpy4`'s SIMD overrides must be bit-for-bit identical to the
    /// scalar loop of four stacked axpys — including signed zeros and the
    /// tail elements past the vector width.
    #[test]
    fn slice_kernels_match_scalar_loops_bit_for_bit() {
        fn check<S: Scalar>() {
            // 37 elements: covers the vector body and the scalar tail for
            // 4-lane f64, 8-lane f32 and 8-lane f64 (AVX-512).
            let src1: Vec<S> = (0..37)
                .map(|i| {
                    S::from_f64(match i % 5 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => 1.5 - i as f64,
                        3 => i as f64 * 0.3,
                        _ => -(i as f64) * 0.7,
                    })
                })
                .collect();
            let src2: Vec<S> = src1.iter().rev().copied().collect();
            let src3: Vec<S> = src1
                .iter()
                .map(|&v| v * S::from_f64(0.5) - S::from_f64(0.2))
                .collect();
            let src4: Vec<S> = src1.iter().map(|&v| S::ONE - v).collect();
            for a in [0.0, -0.0, 2.5, -1.25] {
                let a = S::from_f64(a);
                let (a2, a3, a4) = (S::from_f64(-0.75), S::from_f64(0.3), S::from_f64(-1.5));
                let mut quad = vec![S::from_f64(0.125); 37];
                let mut expect = quad.clone();
                S::slice_axpy4(&mut quad, a, &src1, a2, &src2, a3, &src3, a4, &src4);
                for (i, d) in expect.iter_mut().enumerate() {
                    *d = *d + a * src1[i] + a2 * src2[i] + a3 * src3[i] + a4 * src4[i];
                }
                for (x, y) in quad.iter().zip(&expect) {
                    assert_eq!(x.to_f64().to_bits(), y.to_f64().to_bits());
                }
            }
        }
        check::<f32>();
        check::<f64>();
    }
}
