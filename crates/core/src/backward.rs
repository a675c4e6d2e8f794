//! The two ways to consume a Jacobian chain: the paper's BPPSA (modified
//! Blelloch scan, §3.2) and the "linear scan" baseline (§3.6), which emulates
//! ordinary back-propagation by applying the transposed Jacobians to the
//! gradient vector one at a time.

use crate::chain::{gradients_from_scan_output, JacobianChain};
use crate::diagonal::DiagonalMode;
use crate::element::{JacobianScanOp, ScanElement};
use bppsa_scan::{ceil_log2, execute_in_place, Executor, ScanSchedule};
use bppsa_sparse::KernelMode;
use bppsa_tensor::{Scalar, Vector};

/// Options for a BPPSA backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BppsaOptions {
    /// How parallel levels are executed.
    pub executor: Executor,
    /// Number of up-sweep levels; `None` = full Blelloch (Algorithm 1),
    /// `Some(k)` = the §5.2 hybrid with `k` tree levels.
    pub up_levels: Option<usize>,
    /// How [`PlannedScan`](crate::PlannedScan) treats all-diagonal chains
    /// (the SSM/linear-recurrence family). The default
    /// [`DiagonalMode::Auto`] takes the elementwise fast path whenever the
    /// chain's patterns prove every layer diagonal; the unplanned
    /// [`bppsa_backward`] ignores this field.
    pub diagonal: DiagonalMode,
    /// How [`PlannedScan`](crate::PlannedScan) picks the numeric SpGEMM
    /// kernel of each planned matrix–matrix combine (see
    /// [`KernelMode`]). The default [`KernelMode::Auto`] selects per combine
    /// from the operands' pattern statistics; the forcing modes pin one
    /// kernel for differential testing and ablation. The unplanned
    /// [`bppsa_backward`] ignores this field.
    pub kernel: KernelMode,
    /// How many chain segments [`PlannedScan`](crate::PlannedScan) scans
    /// concurrently (`1` = unsegmented). Segmentation partitions the
    /// schedule's blocks into contiguous runs executed on separate worker
    /// groups and stitches them through the serial middle phase — an exact,
    /// associativity-preserving split that is bit-for-bit identical to the
    /// unsegmented execution of the same schedule. The unplanned
    /// [`bppsa_backward`] ignores this field.
    pub segments: usize,
}

impl Default for BppsaOptions {
    fn default() -> Self {
        Self {
            executor: Executor::Serial,
            up_levels: None,
            diagonal: DiagonalMode::Auto,
            kernel: KernelMode::Auto,
            segments: 1,
        }
    }
}

impl BppsaOptions {
    /// Full Blelloch, executed serially.
    pub fn serial() -> Self {
        Self::default()
    }

    /// Full Blelloch on the shared persistent worker pool: one pool batch
    /// per level, bit for bit the serial result.
    pub fn pooled() -> Self {
        Self {
            executor: Executor::Pooled,
            ..Self::default()
        }
    }

    /// The §5.2 hybrid with `k` up-sweep levels.
    pub fn hybrid(mut self, k: usize) -> Self {
        self.up_levels = Some(k);
        self
    }

    /// Sets how planned execution treats all-diagonal chains (see
    /// [`DiagonalMode`]).
    pub fn diagonal(mut self, mode: DiagonalMode) -> Self {
        self.diagonal = mode;
        self
    }

    /// Sets how planned execution picks each combine's numeric SpGEMM
    /// kernel (see [`KernelMode`]).
    pub fn kernel(mut self, mode: KernelMode) -> Self {
        self.kernel = mode;
        self
    }

    /// Requests `k` concurrently-scanned chain segments from planned
    /// execution (`k ≤ 1` means unsegmented; the plan clamps `k` to the
    /// schedule's block count).
    pub fn segmented(mut self, k: usize) -> Self {
        self.segments = k.max(1);
        self
    }

    /// The schedule these options induce for a scan of length `len`.
    ///
    /// Segmentation requires multiple schedule blocks (the full Blelloch
    /// schedule has exactly one, its single root), so when `segments > 1`
    /// and no explicit hybrid depth was set, the depth is derived to yield
    /// at least ~4 blocks per requested segment — giving the partition
    /// heuristic room to prefer narrow interfaces. The derivation is part
    /// of the options, not the plan: the bit-for-bit unsegmented reference
    /// for `opts.segmented(k)` is `opts.segmented(1).hybrid(d)` with the
    /// same derived depth `d` (see [`BppsaOptions::segmented_up_levels`]).
    pub fn schedule(&self, len: usize) -> ScanSchedule {
        match self.up_levels {
            None if self.segments > 1 => {
                ScanSchedule::with_up_levels(len, self.segmented_up_levels(len))
            }
            None => ScanSchedule::full(len),
            Some(k) => ScanSchedule::with_up_levels(len, k),
        }
    }

    /// The hybrid depth [`BppsaOptions::schedule`] derives when
    /// `segments > 1` and `up_levels` is `None`: the deepest `k` whose
    /// `2^k`-sized blocks still leave at least `4 × segments` of them, so
    /// segment cuts can chase naturally narrow interfaces instead of being
    /// forced onto block boundaries.
    pub fn segmented_up_levels(&self, len: usize) -> usize {
        let n = len.saturating_sub(1).max(1);
        let target_blocks = 4 * self.segments.max(1);
        if n <= target_blocks {
            0
        } else {
            // Largest k with n / 2^k ≥ target_blocks.
            ceil_log2(n / target_blocks + 1).saturating_sub(1) as usize
        }
    }
}

/// Result of a backward pass over a chain: activation gradients indexed by
/// layer (`grads()[i] = ∇x_{i+1} l`).
#[derive(Debug, Clone)]
pub struct BackwardResult<S> {
    grads: Vec<Vector<S>>,
}

impl<S: Scalar> BackwardResult<S> {
    /// Assembles a result from layer-ordered gradients
    /// (`grads[i] = ∇x_{i+1} l`) — for executors that unpack a scan array
    /// themselves, and for result buffers refreshed in place (the planned
    /// workspaces, `bppsa-serve`'s reusable tickets).
    pub fn from_grads(grads: Vec<Vector<S>>) -> Self {
        Self { grads }
    }

    /// Gradients with respect to each layer output:
    /// `grads()[i] = ∇x_{i+1} l` for `i ∈ 0..n`.
    pub fn grads(&self) -> &[Vector<S>] {
        &self.grads
    }

    /// Mutable access for executors and result sinks that refresh an owned
    /// result in place instead of allocating a new one (the planned
    /// workspace steady state, `bppsa-serve`'s ticket buffers).
    pub fn grads_mut(&mut self) -> &mut [Vector<S>] {
        &mut self.grads
    }

    /// The gradient flowing *into* layer `i` (1-indexed as in the paper),
    /// i.e. `∇x_i l` — what layer `i`'s parameter gradient (Equation 2)
    /// consumes is `grads_into(i+1)`… more precisely `∇x_i` for `i ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `i == 0` or `i > n` (the scan never produces `∇x_0`).
    pub fn grad_x(&self, i: usize) -> &Vector<S> {
        assert!(
            i >= 1 && i <= self.grads.len(),
            "grad_x: i must be in 1..=n (got {i}, n={})",
            self.grads.len()
        );
        &self.grads[i - 1]
    }

    /// Largest absolute elementwise difference against another result — the
    /// exactness metric of §3.5.
    ///
    /// # Panics
    ///
    /// Panics if the two results have different structure.
    pub fn max_abs_diff(&self, other: &Self) -> S {
        assert_eq!(
            self.grads.len(),
            other.grads.len(),
            "max_abs_diff: results have different layer counts"
        );
        self.grads
            .iter()
            .zip(&other.grads)
            .fold(S::ZERO, |acc, (a, b)| acc.maximum(a.max_abs_diff(b)))
    }
}

/// Runs BPPSA: lays the chain out as the Equation 5 array, executes the
/// (possibly hybrid) modified Blelloch scan, and unpacks `[I, ∇x_n, …, ∇x_1]`.
///
/// # Panics
///
/// Panics if the chain is structurally invalid.
///
/// # Examples
///
/// ```
/// use bppsa_core::{bppsa_backward, linear_backward, BppsaOptions, JacobianChain, ScanElement};
/// use bppsa_tensor::{Matrix, Vector};
///
/// let mut chain = JacobianChain::new(Vector::from_vec(vec![1.0_f64, -1.0]));
/// chain.push(ScanElement::Dense(Matrix::from_rows(&[&[0.5, 0.0], &[0.0, 2.0]])));
/// let scan = bppsa_backward(&chain, BppsaOptions::serial());
/// let lin = linear_backward(&chain);
/// assert!(scan.max_abs_diff(&lin) < 1e-12);
/// ```
pub fn bppsa_backward<S: Scalar>(
    chain: &JacobianChain<S>,
    opts: BppsaOptions,
) -> BackwardResult<S> {
    chain.validate();
    let mut array = chain.to_scan_array();
    let schedule = opts.schedule(array.len());
    execute_in_place(&schedule, &JacobianScanOp, &mut array, opts.executor);
    BackwardResult {
        grads: gradients_from_scan_output(&array),
    }
}

/// The linear-scan baseline: sequential `∇x_i ← J_{i+1}ᵀ · ∇x_{i+1}`
/// (Equation 3 with explicit Jacobians), `Θ(n)` steps — same step count as
/// classic BP.
///
/// # Panics
///
/// Panics if the chain is structurally invalid.
pub fn linear_backward<S: Scalar>(chain: &JacobianChain<S>) -> BackwardResult<S> {
    chain.validate();
    let n = chain.num_layers();
    let mut grads: Vec<Vector<S>> = Vec::with_capacity(n);
    let mut current = chain.seed().clone();
    // grads in layer order get filled from the back: g[n−1] = ∇x_n = seed.
    let mut rev: Vec<Vector<S>> = Vec::with_capacity(n);
    for jt in chain.jacobians().iter().rev() {
        rev.push(current.clone());
        current = match jt {
            ScanElement::Dense(m) => m.matvec(&current),
            ScanElement::Sparse(m) => m.spmv(&current),
            other => panic!("linear_backward: unexpected element {other}"),
        };
    }
    // `rev` holds [∇x_n, ∇x_{n−1}, …, ∇x_1]; reverse into layer order.
    // (`current` now holds ∇x_0, which BP never needs.)
    for g in rev.into_iter().rev() {
        grads.push(g);
    }
    BackwardResult { grads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bppsa_sparse::Csr;
    use bppsa_tensor::init::{seeded_rng, uniform_matrix, uniform_vector};
    use bppsa_tensor::Matrix;

    /// A random dense chain with varying layer widths.
    fn random_chain(n: usize, seed: u64) -> JacobianChain<f64> {
        let mut rng = seeded_rng(seed);
        let dims: Vec<usize> = (0..=n).map(|i| 2 + (i * 3 + seed as usize) % 5).collect();
        let mut chain = JacobianChain::new(uniform_vector(&mut rng, dims[n], 1.0));
        for i in 0..n {
            chain.push(ScanElement::Dense(uniform_matrix(
                &mut rng,
                dims[i],
                dims[i + 1],
                1.0,
            )));
        }
        chain
    }

    fn to_sparse(chain: &JacobianChain<f64>) -> JacobianChain<f64> {
        let mut out = JacobianChain::new(chain.seed().clone());
        for jt in chain.jacobians() {
            match jt {
                ScanElement::Dense(m) => out.push(ScanElement::Sparse(Csr::from_dense(m))),
                other => out.push(other.clone()),
            }
        }
        out
    }

    #[test]
    fn blelloch_equals_linear_for_various_lengths() {
        for n in [1usize, 2, 3, 4, 7, 8, 15, 16, 33] {
            let chain = random_chain(n, n as u64);
            let scan = bppsa_backward(&chain, BppsaOptions::serial());
            let lin = linear_backward(&chain);
            let diff = scan.max_abs_diff(&lin);
            assert!(diff < 1e-9, "n={n}: diff {diff}");
        }
    }

    #[test]
    fn pooled_equals_serial_to_the_bit() {
        // The pool splits each level's pairs across workers, but every
        // pair's combine runs the same operations on the same operands, so
        // the gradients match bit for bit, not to a tolerance.
        let bits = |r: &BackwardResult<f32>| -> Vec<u32> {
            r.grads()
                .iter()
                .flat_map(|g| g.as_slice().iter().map(|x| x.to_bits()))
                .collect()
        };
        let mut rng = seeded_rng(17);
        for csr in [false, true] {
            let mut chain = JacobianChain::<f32>::new(uniform_vector(&mut rng, 8, 1.0));
            for _ in 0..200 {
                let m = uniform_matrix(&mut rng, 8, 8, 0.5);
                chain.push(if csr {
                    ScanElement::Sparse(Csr::from_dense_pattern(&m))
                } else {
                    ScanElement::Dense(m)
                });
            }
            for up_levels in [None, Some(3)] {
                let serial = BppsaOptions {
                    up_levels,
                    ..BppsaOptions::serial()
                };
                let pooled = BppsaOptions {
                    up_levels,
                    ..BppsaOptions::pooled()
                };
                assert_eq!(
                    bits(&bppsa_backward(&chain, serial)),
                    bits(&bppsa_backward(&chain, pooled)),
                    "csr={csr} up_levels={up_levels:?}"
                );
            }
        }
    }

    #[test]
    fn hybrid_cutoffs_all_agree() {
        let chain = random_chain(13, 9);
        let reference = linear_backward(&chain);
        for k in 0..6 {
            let hybrid = bppsa_backward(&chain, BppsaOptions::serial().hybrid(k));
            let diff = hybrid.max_abs_diff(&reference);
            assert!(diff < 1e-9, "k={k}: diff {diff}");
        }
    }

    #[test]
    fn sparse_chain_equals_dense_chain() {
        let dense = random_chain(9, 3);
        let sparse = to_sparse(&dense);
        let gd = bppsa_backward(&dense, BppsaOptions::serial());
        let gs = bppsa_backward(&sparse, BppsaOptions::serial());
        assert!(gd.max_abs_diff(&gs) < 1e-9);
    }

    #[test]
    fn grad_x_indexing_matches_paper_convention() {
        let chain = random_chain(4, 2);
        let res = linear_backward(&chain);
        // ∇x_n is the seed itself.
        assert!(res.grad_x(4).approx_eq(chain.seed(), 0.0));
        // ∇x_3 = J_4^T ∇x_4.
        let j4 = match &chain.jacobians()[3] {
            ScanElement::Dense(m) => m.clone(),
            _ => unreachable!(),
        };
        assert!(res.grad_x(3).approx_eq(&j4.matvec(chain.seed()), 1e-12));
    }

    #[test]
    #[should_panic(expected = "grad_x")]
    fn grad_x_zero_is_rejected() {
        let chain = random_chain(2, 1);
        let res = linear_backward(&chain);
        let _ = res.grad_x(0);
    }

    #[test]
    fn single_layer_chain() {
        let mut chain = JacobianChain::new(Vector::from_vec(vec![2.0f64]));
        chain.push(ScanElement::Dense(Matrix::from_rows(&[&[3.0], &[4.0]])));
        let res = bppsa_backward(&chain, BppsaOptions::serial());
        assert_eq!(res.grads().len(), 1);
        assert_eq!(res.grad_x(1).as_slice(), &[2.0]); // ∇x_1 = seed (n=1)
    }

    #[test]
    fn default_options_are_serial_full() {
        let o = BppsaOptions::default();
        assert_eq!(o.executor, Executor::Serial);
        assert_eq!(o.schedule(16), ScanSchedule::full(16));
        assert_eq!(
            BppsaOptions::serial().hybrid(2).schedule(16),
            ScanSchedule::with_up_levels(16, 2)
        );
    }
}
