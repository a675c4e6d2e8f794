//! The vanilla (Elman) RNN of the paper's §4.1, Equation 9:
//!
//! `h_t = tanh(W_ih·x_t + b_ih + W_hh·h_{t−1} + b_hh)`
//!
//! with a softmax readout of the last hidden state. The backward dependency
//! chain over `∇h_t` is exactly the workload BPPSA targets: `T` transposed
//! Jacobians `(∂h_t/∂h_{t−1})ᵀ = W_hhᵀ · diag(1 − h_t²)`, scanned instead of
//! iterated.
//!
//! Both backward paths are provided and tested equal: [`VanillaRnn::backward_bptt`]
//! (classic back-propagation through time, the cuDNN-baseline math) and
//! [`VanillaRnn::backward_bppsa`] (chain → modified Blelloch scan →
//! Equation 2 parameter accumulation, which has no sequential dependency).
//! Mini-batches run the same scan through a
//! [`BackwardEngine`](crate::BackwardEngine) with
//! [`VanillaRnn::backward_bppsa_batch`]: one planned chain per sample.

use crate::engine::{
    add_outer, chain_template, common_len, refresh_chain, sum_in_order, BackwardEngine,
};
use bppsa_core::{bppsa_backward, BackwardResult, BppsaOptions, JacobianChain, ScanElement};
use bppsa_ops::SoftmaxCrossEntropy;
use bppsa_sparse::Csr;
use bppsa_tensor::{init, Matrix, Scalar, Vector};
use rand::rngs::StdRng;

/// A vanilla RNN with scalar-per-step input and a linear softmax readout.
///
/// # Examples
///
/// ```
/// use bppsa_models::VanillaRnn;
/// use bppsa_tensor::init::seeded_rng;
///
/// let rnn = VanillaRnn::<f32>::new(1, 20, 10, &mut seeded_rng(0));
/// let bits = vec![1.0_f32, 0.0, 1.0, 1.0];
/// let states = rnn.forward(&bits);
/// assert_eq!(states.len(), 4);
/// let (loss, _seed, _glog) = rnn.loss_and_seed(&states, 3);
/// assert!(loss > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct VanillaRnn<S> {
    wih: Matrix<S>,
    whh: Matrix<S>,
    bih: Vector<S>,
    bhh: Vector<S>,
    wout: Matrix<S>,
    bout: Vector<S>,
    input_dim: usize,
}

/// The recorded hidden states `h_0 … h_{T−1}` of one forward pass.
pub type RnnStates<S> = Vec<Vector<S>>;

/// One prepared sample of a mini-batch backward:
/// `(bits, states, seed, ∇logits)` with the seeds pre-scaled by `1/B`.
pub type RnnBatchSample<'a, S> = (&'a [S], &'a RnnStates<S>, Vector<S>, Vector<S>);

/// The common sequence length of a batch's samples.
///
/// # Panics
///
/// Panics if the batch is empty or sequences have unequal lengths.
fn batch_len<S>(batch: &[RnnBatchSample<'_, S>]) -> usize {
    common_len(
        batch
            .iter()
            .flat_map(|(bits, states, _, _)| [bits.len(), states.len()]),
    )
}

/// Gradients of all RNN parameters, in [`VanillaRnn::params`] layout.
#[derive(Debug, Clone)]
pub struct RnnGrads<S> {
    /// `∇W_ih` (hidden × input).
    pub d_wih: Matrix<S>,
    /// `∇W_hh` (hidden × hidden).
    pub d_whh: Matrix<S>,
    /// `∇b_ih`.
    pub d_bih: Vector<S>,
    /// `∇b_hh`.
    pub d_bhh: Vector<S>,
    /// `∇W_out` (classes × hidden).
    pub d_wout: Matrix<S>,
    /// `∇b_out`.
    pub d_bout: Vector<S>,
}

impl<S: Scalar> RnnGrads<S> {
    fn zeros(input: usize, hidden: usize, classes: usize) -> Self {
        Self {
            d_wih: Matrix::zeros(hidden, input),
            d_whh: Matrix::zeros(hidden, hidden),
            d_bih: Vector::zeros(hidden),
            d_bhh: Vector::zeros(hidden),
            d_wout: Matrix::zeros(classes, hidden),
            d_bout: Vector::zeros(classes),
        }
    }

    /// Adds another gradient set in place (mini-batch accumulation).
    pub fn accumulate(&mut self, other: &Self) {
        self.d_wih.axpy(S::ONE, &other.d_wih);
        self.d_whh.axpy(S::ONE, &other.d_whh);
        self.d_bih.axpy(S::ONE, &other.d_bih);
        self.d_bhh.axpy(S::ONE, &other.d_bhh);
        self.d_wout.axpy(S::ONE, &other.d_wout);
        self.d_bout.axpy(S::ONE, &other.d_bout);
    }

    /// Flattens into [`VanillaRnn::params`] order.
    pub fn flat(&self) -> Vec<S> {
        let mut out = Vec::new();
        out.extend_from_slice(self.d_wih.as_slice());
        out.extend_from_slice(self.d_whh.as_slice());
        out.extend_from_slice(self.d_bih.as_slice());
        out.extend_from_slice(self.d_bhh.as_slice());
        out.extend_from_slice(self.d_wout.as_slice());
        out.extend_from_slice(self.d_bout.as_slice());
        out
    }

    /// Largest absolute difference to another gradient set.
    pub fn max_abs_diff(&self, other: &Self) -> S {
        let (a, b) = (self.flat(), other.flat());
        a.iter()
            .zip(&b)
            .fold(S::ZERO, |acc, (&x, &y)| acc.maximum((x - y).abs()))
    }
}

impl<S: Scalar> VanillaRnn<S> {
    /// Creates an RNN with Kaiming-uniform weights.
    pub fn new(input_dim: usize, hidden: usize, classes: usize, rng: &mut StdRng) -> Self {
        Self {
            wih: init::kaiming_matrix(rng, hidden, input_dim),
            whh: init::kaiming_matrix(rng, hidden, hidden),
            bih: Vector::zeros(hidden),
            bhh: Vector::zeros(hidden),
            wout: init::kaiming_matrix(rng, classes, hidden),
            bout: Vector::zeros(classes),
            input_dim,
        }
    }

    /// Hidden-state size.
    pub fn hidden_size(&self) -> usize {
        self.whh.rows()
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.wout.rows()
    }

    /// The recurrent weight matrix `W_hh`.
    pub fn whh(&self) -> &Matrix<S> {
        &self.whh
    }

    /// Runs the forward recurrence over a scalar sequence, returning all
    /// hidden states `h_0 … h_{T−1}` (with `h_{−1} = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `input_dim != 1` (scalar sequences) or the input is empty.
    pub fn forward(&self, bits: &[S]) -> RnnStates<S> {
        assert_eq!(self.input_dim, 1, "forward: scalar-input model expected");
        assert!(!bits.is_empty(), "forward: empty sequence");
        let h_dim = self.hidden_size();
        let mut states: RnnStates<S> = Vec::with_capacity(bits.len());
        let h_init = Vector::zeros(h_dim);
        for &x in bits {
            let mut z = self.whh.matvec(states.last().unwrap_or(&h_init));
            for i in 0..h_dim {
                z[i] += self.wih.get(i, 0) * x + self.bih[i] + self.bhh[i];
            }
            states.push(z.map(|v| v.tanh()));
        }
        states
    }

    /// Readout logits from the last hidden state.
    pub fn logits(&self, last_h: &Vector<S>) -> Vector<S> {
        self.wout.matvec(last_h).add(&self.bout)
    }

    /// Loss, the scan seed `∇h_{T−1}`, and the logits gradient for `label`.
    pub fn loss_and_seed(&self, states: &RnnStates<S>, label: usize) -> (S, Vector<S>, Vector<S>) {
        let last = states.last().expect("nonempty states");
        let (loss, g_logits) = SoftmaxCrossEntropy::loss_and_grad(&self.logits(last), label);
        let seed = self.wout.matvec_transposed(&g_logits);
        (loss, seed, g_logits)
    }

    /// Classic BPTT: iterate `t = T−1 … 0`, maintaining `∇h_t` sequentially
    /// (the Equation 3 dependency BPPSA removes).
    pub fn backward_bptt(
        &self,
        bits: &[S],
        states: &RnnStates<S>,
        seed: &Vector<S>,
        g_logits: &Vector<S>,
    ) -> RnnGrads<S> {
        assert_eq!(bits.len(), states.len(), "bptt: states/bits mismatch");
        let h_dim = self.hidden_size();
        let mut grads = RnnGrads::zeros(self.input_dim, h_dim, self.num_classes());
        grads.d_wout = g_logits.outer(states.last().expect("nonempty"));
        grads.d_bout = g_logits.clone();

        let mut g_h = seed.clone();
        let mut g_z = Vector::zeros(h_dim);
        for t in (0..states.len()).rev() {
            self.accumulate_step(t, bits[t], states, g_h.as_slice(), &mut g_z, &mut grads);
            // t == 0: h_{−1} = 0, so no further gradient propagates.
            if t > 0 {
                g_h = self.whh.matvec_transposed(&g_z);
            }
        }
        grads
    }

    /// The transposed Jacobian `(∂h_t/∂h_{t−1})ᵀ = W_hhᵀ · diag(1 − h_t²)`.
    pub fn hidden_jacobian_t(&self, h_t: &Vector<S>) -> Matrix<S> {
        let h_dim = self.hidden_size();
        // (W_hhᵀ · diag(d))[i][j] = W_hh[j][i] · d[j].
        Matrix::from_fn(h_dim, h_dim, |i, j| {
            self.whh.get(j, i) * (S::ONE - h_t[j] * h_t[j])
        })
    }

    /// Writes [`VanillaRnn::hidden_jacobian_t`]'s values row-major into a
    /// caller-owned slice — the allocation-free refresh used when an engine
    /// chain's values are rewritten in place between iterations.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != hidden² `.
    pub fn fill_hidden_jacobian_values(&self, h_t: &Vector<S>, out: &mut [S]) {
        let h_dim = self.hidden_size();
        assert_eq!(out.len(), h_dim * h_dim, "fill_hidden_jacobian_values");
        // Column j of the output is row j of W_hh scaled by 1 − h_t[j]².
        for j in 0..h_dim {
            let d = S::ONE - h_t[j] * h_t[j];
            for (i, &w) in self.whh.row(j).iter().enumerate() {
                out[i * h_dim + j] = w * d;
            }
        }
    }

    /// Builds the Equation 5 chain for the hidden-state recurrence: seed
    /// `∇h_{T−1}` plus `T` Jacobians (`t = 0 … T−1`; the `t = 0` element
    /// only pads the array — exclusive scans never emit `∇h_{−1}`).
    pub fn build_chain(&self, states: &RnnStates<S>, seed: &Vector<S>) -> JacobianChain<S> {
        let mut chain = JacobianChain::new(seed.clone());
        for h_t in states {
            chain.push(ScanElement::Dense(self.hidden_jacobian_t(h_t)));
        }
        chain
    }

    /// BPPSA: scan the hidden-state chain, then accumulate all parameter
    /// gradients from the per-step `∇h_t` — Equation 2, no sequential
    /// dependency.
    pub fn backward_bppsa(
        &self,
        bits: &[S],
        states: &RnnStates<S>,
        seed: &Vector<S>,
        g_logits: &Vector<S>,
        opts: BppsaOptions,
    ) -> RnnGrads<S> {
        assert_eq!(bits.len(), states.len(), "bppsa: states/bits mismatch");
        let h_dim = self.hidden_size();
        let chain = self.build_chain(states, seed);
        let result = bppsa_backward(&chain, opts);
        // result.grads()[i] = ∇x_{i+1} where x_{i+1} = h_i → ∇h_t = grads()[t].
        let mut grads = RnnGrads::zeros(self.input_dim, h_dim, self.num_classes());
        grads.d_wout = g_logits.outer(states.last().expect("nonempty"));
        grads.d_bout = g_logits.clone();
        let mut g_z = Vector::zeros(h_dim);
        for (t, &x) in bits.iter().enumerate() {
            let g_h = result.grad_x(t + 1).as_slice();
            self.accumulate_step(t, x, states, g_h, &mut g_z, &mut grads);
        }
        grads
    }

    /// Batched BPPSA through a [`BackwardEngine`]: one chain per sample, all
    /// on one plan built with `opts`, each sample's parameter gradients
    /// (Equation 2) computed inside the fan-out and summed in sample order.
    /// Equal to summing [`VanillaRnn::backward_bppsa`] over the batch up to
    /// the planned executor's rounding, and the same bits on every
    /// executor.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or sequences have unequal lengths.
    pub fn backward_bppsa_batch(
        &self,
        batch: &[RnnBatchSample<'_, S>],
        opts: BppsaOptions,
        engine: &mut BackwardEngine<S>,
    ) -> RnnGrads<S> {
        let t_len = batch_len(batch);
        let h_dim = self.hidden_size();
        let partials = engine.run(
            opts,
            (t_len, h_dim),
            batch.len(),
            || self.chain_template(t_len),
            |k, chain| self.refresh_sample(&batch[k], chain),
            |k, result| {
                let (bits, states, _, g_logits) = &batch[k];
                let mut grads = RnnGrads::zeros(self.input_dim, h_dim, self.num_classes());
                self.accumulate_sample_grads(bits, states, g_logits, result, &mut grads);
                grads
            },
        );
        sum_in_order(partials, RnnGrads::accumulate)
    }

    /// [`VanillaRnn::backward_bppsa_batch`] under the fused route's former
    /// name. Kept only for the benchmark (`perfbench/`), which names it.
    pub fn backward_bppsa_batched_planned(
        &self,
        batch: &[RnnBatchSample<'_, S>],
        opts: BppsaOptions,
        engine: &mut BackwardEngine<S>,
    ) -> RnnGrads<S> {
        self.backward_bppsa_batch(batch, opts, engine)
    }

    /// [`VanillaRnn::backward_bppsa_batch`] on the per-sample route. Kept
    /// only for the benchmark (`perfbench/`), which names it.
    pub fn backward_bppsa_pooled(
        &self,
        batch: &[RnnBatchSample<'_, S>],
        opts: BppsaOptions,
        engine: &mut BackwardEngine<S>,
    ) -> RnnGrads<S> {
        self.backward_bppsa_batch(batch, opts, engine)
    }

    /// The chain [`VanillaRnn::backward_bppsa_batch`] scans for a
    /// one-sample batch: one CSR layer per timestep, each storing every
    /// position ([`Csr::from_dense_pattern`]), so the pattern depends only
    /// on `(T, hidden)`. Kept only for the benchmark (`perfbench/`), which
    /// names it.
    ///
    /// # Panics
    ///
    /// Panics unless `batch` holds exactly one sample.
    pub fn build_batched_chain(&self, batch: &[RnnBatchSample<'_, S>]) -> JacobianChain<S> {
        let [sample] = batch else {
            panic!(
                "build_batched_chain: one sample expected, got {}",
                batch.len()
            )
        };
        let mut chain = self.chain_template(batch_len(batch));
        self.refresh_sample(sample, &mut chain);
        chain
    }

    /// A one-sample chain of `t_len` full-pattern layers with zero values.
    fn chain_template(&self, t_len: usize) -> JacobianChain<S> {
        let h_dim = self.hidden_size();
        let full = Csr::from_dense_pattern(&Matrix::<S>::zeros(h_dim, h_dim));
        chain_template(full.pattern(), t_len)
    }

    /// Writes one sample's seed and Jacobian values into `chain`.
    fn refresh_sample(
        &self,
        (_, states, seed, _): &RnnBatchSample<'_, S>,
        chain: &mut JacobianChain<S>,
    ) {
        refresh_chain(chain, seed.as_slice(), |t, values| {
            self.fill_hidden_jacobian_values(&states[t], values)
        });
    }

    /// Equation 2 at timestep `t`, in place: writes `g_z = (1 − h_t²) ⊙
    /// ∇h_t` into `g_z`, then adds `g_z·x_t` to `∇W_ih`, `g_z` to `∇b_ih`
    /// and `∇b_hh`, and `g_z·h_{t−1}ᵀ` to `∇W_hh` (no term at `t = 0`, where
    /// `h_{−1} = 0`). Every path (BPTT, the per-sample scan and the batch
    /// partials) accumulates through this one step, so they share its
    /// rounding, and it allocates nothing.
    fn accumulate_step(
        &self,
        t: usize,
        x: S,
        states: &RnnStates<S>,
        g_h: &[S],
        g_z: &mut Vector<S>,
        grads: &mut RnnGrads<S>,
    ) {
        let h_t = &states[t];
        for (i, z) in g_z.as_mut_slice().iter_mut().enumerate() {
            *z = (S::ONE - h_t[i] * h_t[i]) * g_h[i];
        }
        for (i, &z) in g_z.as_slice().iter().enumerate() {
            let v = grads.d_wih.get(i, 0) + z * x;
            grads.d_wih.set(i, 0, v);
        }
        grads.d_bih.axpy(S::ONE, g_z);
        grads.d_bhh.axpy(S::ONE, g_z);
        if t > 0 {
            add_outer(&mut grads.d_whh, g_z.as_slice(), states[t - 1].as_slice());
        }
    }

    /// Adds one sample's parameter gradients (Equation 2) into `grads`,
    /// reading `∇h_t` from its per-sample scan `result`.
    fn accumulate_sample_grads(
        &self,
        bits: &[S],
        states: &RnnStates<S>,
        g_logits: &Vector<S>,
        result: &BackwardResult<S>,
        grads: &mut RnnGrads<S>,
    ) {
        let last = states.last().expect("nonempty");
        add_outer(&mut grads.d_wout, g_logits.as_slice(), last.as_slice());
        grads.d_bout.axpy(S::ONE, g_logits);
        let mut g_z = Vector::zeros(self.hidden_size());
        for (t, &x) in bits.iter().enumerate() {
            let g_h = result.grad_x(t + 1).as_slice();
            self.accumulate_step(t, x, states, g_h, &mut g_z, grads);
        }
    }

    /// Flattened parameters: `W_ih, W_hh, b_ih, b_hh, W_out, b_out`.
    pub fn params(&self) -> Vec<S> {
        let mut out = Vec::new();
        out.extend_from_slice(self.wih.as_slice());
        out.extend_from_slice(self.whh.as_slice());
        out.extend_from_slice(self.bih.as_slice());
        out.extend_from_slice(self.bhh.as_slice());
        out.extend_from_slice(self.wout.as_slice());
        out.extend_from_slice(self.bout.as_slice());
        out
    }

    /// Overwrites parameters from [`VanillaRnn::params`] layout.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match.
    pub fn set_params(&mut self, flat: &[S]) {
        let sizes = [
            self.wih.numel(),
            self.whh.numel(),
            self.bih.len(),
            self.bhh.len(),
            self.wout.numel(),
            self.bout.len(),
        ];
        assert_eq!(
            flat.len(),
            sizes.iter().sum::<usize>(),
            "set_params: wrong length"
        );
        let mut off = 0;
        let mut take = |len: usize| {
            let s = &flat[off..off + len];
            off += len;
            s
        };
        self.wih.as_mut_slice().copy_from_slice(take(sizes[0]));
        self.whh.as_mut_slice().copy_from_slice(take(sizes[1]));
        self.bih.as_mut_slice().copy_from_slice(take(sizes[2]));
        self.bhh.as_mut_slice().copy_from_slice(take(sizes[3]));
        self.wout.as_mut_slice().copy_from_slice(take(sizes[4]));
        self.bout.as_mut_slice().copy_from_slice(take(sizes[5]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bppsa_tensor::init::seeded_rng;

    fn tiny_rnn(seed: u64) -> VanillaRnn<f64> {
        VanillaRnn::new(1, 4, 3, &mut seeded_rng(seed))
    }

    fn bits(t: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        use rand::Rng;
        (0..t)
            .map(|_| {
                if rng.random_range(0.0..1.0) < 0.4 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn forward_states_are_bounded_by_tanh() {
        let rnn = tiny_rnn(1);
        let states = rnn.forward(&bits(20, 2));
        for h in &states {
            assert!(h.iter().all(|&v| (-1.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn hidden_jacobian_matches_finite_differences() {
        let rnn = tiny_rnn(3);
        // Perturb h_{t−1} and check ∂h_t/∂h_{t−1} numerically.
        let h_prev = Vector::from_vec(vec![0.1, -0.3, 0.5, 0.0]);
        let x = 1.0;
        let step = |h: &Vector<f64>| -> Vector<f64> {
            let mut z = rnn.whh.matvec(h);
            for i in 0..4 {
                z[i] += rnn.wih.get(i, 0) * x + rnn.bih[i] + rnn.bhh[i];
            }
            z.map(f64::tanh)
        };
        let h_t = step(&h_prev);
        let jt = rnn.hidden_jacobian_t(&h_t);
        let eps = 1e-6;
        for i in 0..4 {
            let mut plus = h_prev.clone();
            plus[i] += eps;
            let mut minus = h_prev.clone();
            minus[i] -= eps;
            let (hp, hm) = (step(&plus), step(&minus));
            for j in 0..4 {
                let numeric = (hp[j] - hm[j]) / (2.0 * eps);
                // J[j][i] = ∂h_t[j]/∂h_prev[i]; Jᵀ[i][j].
                assert!(
                    (jt.get(i, j) - numeric).abs() < 1e-6,
                    "J^T[{i}][{j}]: {} vs {numeric}",
                    jt.get(i, j)
                );
            }
        }
    }

    #[test]
    fn bptt_matches_finite_differences_on_loss() {
        let rnn = tiny_rnn(5);
        let xs = bits(6, 6);
        let label = 2;
        let states = rnn.forward(&xs);
        let (_, seed, g_logits) = rnn.loss_and_seed(&states, label);
        let analytic = rnn.backward_bptt(&xs, &states, &seed, &g_logits).flat();

        let theta = rnn.params();
        let eps = 1e-6;
        for p in (0..theta.len()).step_by(7) {
            let probe = |delta: f64| -> f64 {
                let mut r = rnn.clone();
                let mut th = theta.clone();
                th[p] += delta;
                r.set_params(&th);
                let st = r.forward(&xs);
                let (loss, _, _) = r.loss_and_seed(&st, label);
                loss
            };
            let numeric = (probe(eps) - probe(-eps)) / (2.0 * eps);
            assert!(
                (analytic[p] - numeric).abs() < 1e-6,
                "param {p}: {} vs {numeric}",
                analytic[p]
            );
        }
    }

    #[test]
    fn bppsa_equals_bptt_exactly_enough() {
        for t in [1usize, 2, 3, 8, 17, 33] {
            let rnn = tiny_rnn(7);
            let xs = bits(t, 8);
            let states = rnn.forward(&xs);
            let (_, seed, g_logits) = rnn.loss_and_seed(&states, 1);
            let bptt = rnn.backward_bptt(&xs, &states, &seed, &g_logits);
            let scan = rnn.backward_bppsa(&xs, &states, &seed, &g_logits, BppsaOptions::serial());
            let diff = bptt.max_abs_diff(&scan);
            assert!(diff < 1e-10, "T={t}: diff {diff}");
        }
    }

    #[test]
    fn bppsa_pooled_and_hybrid_agree() {
        let rnn = tiny_rnn(9);
        let xs = bits(25, 10);
        let states = rnn.forward(&xs);
        let (_, seed, g_logits) = rnn.loss_and_seed(&states, 0);
        let reference = rnn.backward_bptt(&xs, &states, &seed, &g_logits);
        for opts in [
            BppsaOptions::pooled(),
            BppsaOptions::serial().hybrid(2),
            BppsaOptions::pooled().hybrid(3),
        ] {
            let scan = rnn.backward_bppsa(&xs, &states, &seed, &g_logits, opts);
            assert!(reference.max_abs_diff(&scan) < 1e-10);
        }
    }

    #[test]
    fn pooled_batched_equals_per_sample_sum_and_plans_once() {
        let rnn = tiny_rnn(51);
        let t = 11;
        let all_bits: Vec<Vec<f64>> = (0..5).map(|k| bits(t, 52 + k)).collect();
        let mut expected = None::<RnnGrads<f64>>;
        let mut stored = Vec::new();
        for (k, xs) in all_bits.iter().enumerate() {
            let states = rnn.forward(xs);
            let (_, seed, g_logits) = rnn.loss_and_seed(&states, k % 3);
            let per = rnn.backward_bppsa(xs, &states, &seed, &g_logits, BppsaOptions::serial());
            match &mut expected {
                None => expected = Some(per),
                Some(acc) => acc.accumulate(&per),
            }
            stored.push((states, seed, g_logits));
        }
        let batch: Vec<RnnBatchSample<'_, f64>> = all_bits
            .iter()
            .zip(&stored)
            .map(|(xs, (states, seed, g))| (xs.as_slice(), states, seed.clone(), g.clone()))
            .collect();
        let expected = expected.unwrap();
        let mut engine = BackwardEngine::new();
        let serial = BppsaOptions::serial();
        for round in 0..3 {
            let grads = rnn.backward_bppsa_batch(&batch, serial, &mut engine);
            let diff = grads.max_abs_diff(&expected);
            assert!(diff < 1e-10, "round {round}: diff {diff}");
        }
        assert_eq!(engine.plans_built(), 1);

        // A smaller "remainder" batch reuses the same plan: the per-sample
        // chain shape does not depend on the batch size.
        let remainder = rnn.backward_bppsa_batch(&batch[..2], serial, &mut engine);
        assert_eq!(engine.plans_built(), 1);
        let mut expected2 = rnn.backward_bppsa(
            &all_bits[0],
            &stored[0].0,
            &stored[0].1,
            &stored[0].2,
            BppsaOptions::serial(),
        );
        expected2.accumulate(&rnn.backward_bppsa(
            &all_bits[1],
            &stored[1].0,
            &stored[1].1,
            &stored[1].2,
            BppsaOptions::serial(),
        ));
        assert!(remainder.max_abs_diff(&expected2) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "unequal sequence lengths")]
    fn batched_scan_rejects_ragged_batch() {
        let rnn = tiny_rnn(41);
        let xs1 = bits(5, 42);
        let xs2 = bits(7, 43);
        let s1 = rnn.forward(&xs1);
        let s2 = rnn.forward(&xs2);
        let (_, seed1, g1) = rnn.loss_and_seed(&s1, 0);
        let (_, seed2, g2) = rnn.loss_and_seed(&s2, 1);
        let batch = vec![
            (xs1.as_slice(), &s1, seed1, g1),
            (xs2.as_slice(), &s2, seed2, g2),
        ];
        let _ =
            rnn.backward_bppsa_batch(&batch, BppsaOptions::serial(), &mut BackwardEngine::new());
    }

    #[test]
    fn params_roundtrip() {
        let mut rnn = tiny_rnn(11);
        let p = rnn.params();
        let doubled: Vec<f64> = p.iter().map(|v| v * 2.0).collect();
        rnn.set_params(&doubled);
        assert_eq!(rnn.params(), doubled);
    }

    #[test]
    fn grads_accumulate_and_flatten_consistently() {
        let rnn = tiny_rnn(13);
        let xs = bits(5, 14);
        let states = rnn.forward(&xs);
        let (_, seed, g_logits) = rnn.loss_and_seed(&states, 1);
        let g = rnn.backward_bptt(&xs, &states, &seed, &g_logits);
        let mut acc = g.clone();
        acc.accumulate(&g);
        let (f1, f2) = (g.flat(), acc.flat());
        for (a, b) in f1.iter().zip(&f2) {
            assert!((b - 2.0 * a).abs() < 1e-12);
        }
        assert_eq!(f1.len(), rnn.params().len());
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_rejected() {
        let rnn = tiny_rnn(15);
        let _ = rnn.forward(&[]);
    }
}
