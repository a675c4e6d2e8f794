//! A diagonal linear-recurrence (state-space) toy model:
//!
//! `h_t = a_t ⊙ h_{t−1} + u·x_t`, with input-dependent gates
//! `a_t = tanh(λ + g·x_t)` and a softmax readout of the last state.
//!
//! The hidden-state Jacobians are **diagonal**: `(∂h_t/∂h_{t−1})ᵀ =
//! diag(a_t)`, so the Equation 5 chain is a diagonal-CSR chain end to end
//! and the planner compiles it into the elementwise scan program
//! ([`PlannedScan::diagonal_kernel`](bppsa_core::PlannedScan::diagonal_kernel)
//! is `Some` under the default [`DiagonalMode::Auto`](bppsa_core::DiagonalMode)).
//! This is the long-sequence SSM / linear-attention workload where the
//! scan formulation shines: the per-step combine is `O(width)` instead of
//! a sparse matrix product, and chains long enough to overflow running
//! products take the log-space kernel by default.
//!
//! Backward paths mirror [`VanillaRnn`](crate::VanillaRnn):
//! [`DiagonalSsm::backward_sequential`] (the BPTT baseline),
//! [`DiagonalSsm::backward_bppsa`] (per-sample scan) and
//! [`DiagonalSsm::backward_bppsa_batch`] (a mini-batch through a
//! [`BackwardEngine`], one diagonal chain per sample on the fast path).
//! Training routes through
//! [`BackwardMethod`](crate::train::BackwardMethod) via
//! [`ssm_batch_step`](crate::train::ssm_batch_step).

use crate::engine::{
    add_outer, chain_template, common_len, refresh_chain, sum_in_order, BackwardEngine,
};
use bppsa_core::{bppsa_backward, BackwardResult, BppsaOptions, JacobianChain};
use bppsa_ops::SoftmaxCrossEntropy;
use bppsa_sparse::Csr;
use bppsa_tensor::{init, Matrix, Scalar, Vector};
use rand::rngs::StdRng;

/// The diagonal-recurrence model: per-lane decay logits `λ`, input gates
/// `g`, input injection `u`, and a linear softmax readout.
///
/// # Examples
///
/// ```
/// use bppsa_models::DiagonalSsm;
/// use bppsa_tensor::init::seeded_rng;
///
/// let ssm = DiagonalSsm::<f32>::new(16, 10, &mut seeded_rng(0));
/// let xs = vec![1.0_f32, 0.0, 1.0, 1.0];
/// let states = ssm.forward(&xs);
/// assert_eq!(states.len(), 4);
/// let (loss, _seed, _glog) = ssm.loss_and_seed(&states, 3);
/// assert!(loss > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct DiagonalSsm<S> {
    decay: Vector<S>,
    gate: Vector<S>,
    inject: Vector<S>,
    wout: Matrix<S>,
    bout: Vector<S>,
}

/// The recorded trajectory of one forward pass: hidden states
/// `h_0 … h_{T−1}` and the gates `a_0 … a_{T−1}` that produced them (the
/// gates *are* the Jacobian diagonals, so backward needs both).
///
/// Each is one flat `T × hidden` buffer, row `t` holding timestep `t`, so a
/// forward pass makes two allocations however long the sequence is.
#[derive(Debug, Clone)]
pub struct SsmStates<S> {
    steps: usize,
    hidden: usize,
    /// Hidden states `h_t` (with `h_{−1} = 0`), row-major by timestep.
    h: Vec<S>,
    /// Gates `a_t = tanh(λ + g·x_t)` — the diagonal of `(∂h_t/∂h_{t−1})ᵀ` —
    /// row-major by timestep.
    a: Vec<S>,
}

impl<S> SsmStates<S> {
    /// Sequence length `T`.
    pub fn len(&self) -> usize {
        self.steps
    }

    /// Whether the trajectory is empty.
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }

    /// The hidden state `h_t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()`.
    pub fn h(&self, t: usize) -> &[S] {
        &self.h[t * self.hidden..(t + 1) * self.hidden]
    }

    /// The gate vector `a_t`, the diagonal of `(∂h_t/∂h_{t−1})ᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()`.
    pub fn a(&self, t: usize) -> &[S] {
        &self.a[t * self.hidden..(t + 1) * self.hidden]
    }

    /// The last hidden state `h_{T−1}`.
    ///
    /// # Panics
    ///
    /// Panics on an empty trajectory.
    pub fn last_h(&self) -> &[S] {
        let last = self.steps.checked_sub(1).expect("nonempty trajectory");
        self.h(last)
    }
}

/// One prepared sample of a batched SSM backward:
/// `(inputs, states, seed, ∇logits)` with the seeds pre-scaled by `1/B`.
pub type SsmBatchSample<'a, S> = (&'a [S], &'a SsmStates<S>, Vector<S>, Vector<S>);

/// Gradients of all [`DiagonalSsm`] parameters, in [`DiagonalSsm::params`]
/// layout.
#[derive(Debug, Clone)]
pub struct SsmGrads<S> {
    /// `∇λ`.
    pub d_decay: Vector<S>,
    /// `∇g`.
    pub d_gate: Vector<S>,
    /// `∇u`.
    pub d_inject: Vector<S>,
    /// `∇W_out` (classes × hidden).
    pub d_wout: Matrix<S>,
    /// `∇b_out`.
    pub d_bout: Vector<S>,
}

impl<S: Scalar> SsmGrads<S> {
    fn zeros(hidden: usize, classes: usize) -> Self {
        Self {
            d_decay: Vector::zeros(hidden),
            d_gate: Vector::zeros(hidden),
            d_inject: Vector::zeros(hidden),
            d_wout: Matrix::zeros(classes, hidden),
            d_bout: Vector::zeros(classes),
        }
    }

    /// Adds another gradient set in place (mini-batch accumulation).
    pub fn accumulate(&mut self, other: &Self) {
        self.d_decay.axpy(S::ONE, &other.d_decay);
        self.d_gate.axpy(S::ONE, &other.d_gate);
        self.d_inject.axpy(S::ONE, &other.d_inject);
        self.d_wout.axpy(S::ONE, &other.d_wout);
        self.d_bout.axpy(S::ONE, &other.d_bout);
    }

    /// Flattens into [`DiagonalSsm::params`] order.
    pub fn flat(&self) -> Vec<S> {
        let mut out = Vec::new();
        out.extend_from_slice(self.d_decay.as_slice());
        out.extend_from_slice(self.d_gate.as_slice());
        out.extend_from_slice(self.d_inject.as_slice());
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

impl<S: Scalar> DiagonalSsm<S> {
    /// Creates an SSM with uniform decay/gate/injection parameters and a
    /// Kaiming-uniform readout.
    pub fn new(hidden: usize, classes: usize, rng: &mut StdRng) -> Self {
        Self {
            decay: init::uniform_vector(rng, hidden, 1.0),
            gate: init::uniform_vector(rng, hidden, 1.0),
            inject: init::uniform_vector(rng, hidden, 1.0),
            wout: init::kaiming_matrix(rng, classes, hidden),
            bout: Vector::zeros(classes),
        }
    }

    /// Hidden-state size.
    pub fn hidden_size(&self) -> usize {
        self.decay.len()
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.wout.rows()
    }

    /// The gate vector `a = tanh(λ + g·x)` for one scalar input.
    pub fn gates(&self, x: S) -> Vector<S> {
        Vector::from_fn(self.hidden_size(), |i| {
            (self.decay[i] + self.gate[i] * x).tanh()
        })
    }

    /// Runs the forward recurrence over a scalar sequence, recording every
    /// hidden state *and* gate vector (with `h_{−1} = 0`).
    ///
    /// # Panics
    ///
    /// Panics on an empty input.
    pub fn forward(&self, xs: &[S]) -> SsmStates<S> {
        assert!(!xs.is_empty(), "forward: empty sequence");
        let h_dim = self.hidden_size();
        let mut a = Vec::with_capacity(xs.len() * h_dim);
        let mut h = Vec::with_capacity(xs.len() * h_dim);
        for (t, &x) in xs.iter().enumerate() {
            for i in 0..h_dim {
                // The gate is `gates(x)[i]`, and `h_{−1} = 0`.
                let a_i = (self.decay[i] + self.gate[i] * x).tanh();
                let h_prev = if t == 0 { S::ZERO } else { h[h.len() - h_dim] };
                a.push(a_i);
                h.push(a_i * h_prev + self.inject[i] * x);
            }
        }
        SsmStates {
            steps: xs.len(),
            hidden: h_dim,
            h,
            a,
        }
    }

    /// Readout logits from the last hidden state.
    pub fn logits(&self, last_h: &Vector<S>) -> Vector<S> {
        self.wout.matvec(last_h).add(&self.bout)
    }

    /// Loss, the scan seed `∇h_{T−1}`, and the logits gradient for `label`.
    pub fn loss_and_seed(&self, states: &SsmStates<S>, label: usize) -> (S, Vector<S>, Vector<S>) {
        let last_h = Vector::from_vec(states.last_h().to_vec());
        let (loss, g_logits) = SoftmaxCrossEntropy::loss_and_grad(&self.logits(&last_h), label);
        let seed = self.wout.matvec_transposed(&g_logits);
        (loss, seed, g_logits)
    }

    /// Builds the Equation 5 chain: seed `∇h_{T−1}` plus `T` diagonal
    /// Jacobians `diag(a_t)` sharing one CSR pattern — the shape the
    /// planner compiles into the elementwise scan program.
    pub fn build_chain(&self, states: &SsmStates<S>, seed: &Vector<S>) -> JacobianChain<S> {
        let mut chain = self.chain_template(states.len());
        Self::refresh_sample(states, seed, &mut chain);
        chain
    }

    /// A chain of `t_len` diagonal layers with zero values.
    fn chain_template(&self, t_len: usize) -> JacobianChain<S> {
        let ones = vec![S::ONE; self.hidden_size()];
        chain_template(Csr::from_diagonal(&ones).pattern(), t_len)
    }

    /// Writes one sample's seed and gates into `chain`: a diagonal
    /// element's values *are* the gate vector.
    fn refresh_sample(states: &SsmStates<S>, seed: &Vector<S>, chain: &mut JacobianChain<S>) {
        refresh_chain(chain, seed.as_slice(), |t, values| {
            values.copy_from_slice(states.a(t))
        });
    }

    /// One timestep's parameter contributions from `∇h_t`:
    /// `∇u += ∇h_t·x_t`, and through `a_t = tanh(z_t)` with
    /// `∂h_t/∂a_t = h_{t−1}` (zero at `t = 0`): `∇λ += ∇h_t ⊙ h_{t−1} ⊙
    /// (1 − a_t²)` and `∇g += x_t·` the same.
    fn accumulate_step(
        &self,
        t: usize,
        x: S,
        states: &SsmStates<S>,
        g_h: &[S],
        grads: &mut SsmGrads<S>,
    ) {
        let h_dim = self.hidden_size();
        debug_assert_eq!(g_h.len(), h_dim);
        for (i, &g) in g_h.iter().enumerate() {
            grads.d_inject[i] += g * x;
        }
        if t > 0 {
            let (a_t, h_prev) = (states.a(t), states.h(t - 1));
            for (i, &g) in g_h.iter().enumerate() {
                let dz = g * h_prev[i] * (S::ONE - a_t[i] * a_t[i]);
                grads.d_decay[i] += dz;
                grads.d_gate[i] += dz * x;
            }
        }
    }

    /// Accumulates one sample's parameter gradients from its scan result.
    fn accumulate_sample_grads(
        &self,
        xs: &[S],
        states: &SsmStates<S>,
        g_logits: &Vector<S>,
        result: &BackwardResult<S>,
        grads: &mut SsmGrads<S>,
    ) {
        add_outer(&mut grads.d_wout, g_logits.as_slice(), states.last_h());
        grads.d_bout.axpy(S::ONE, g_logits);
        for (t, &x) in xs.iter().enumerate() {
            // grads()[i] = ∇x_{i+1} where x_{i+1} = h_i → ∇h_t = grad_x(t+1).
            let g_h = result.grad_x(t + 1).as_slice();
            self.accumulate_step(t, x, states, g_h, grads);
        }
    }

    /// Sequential baseline (BPTT): iterate `t = T−1 … 0`, maintaining
    /// `∇h_{t−1} = a_t ⊙ ∇h_t` — the Equation 3 dependency the scan
    /// removes.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `states` have mismatched lengths.
    pub fn backward_sequential(
        &self,
        xs: &[S],
        states: &SsmStates<S>,
        seed: &Vector<S>,
        g_logits: &Vector<S>,
    ) -> SsmGrads<S> {
        assert_eq!(xs.len(), states.len(), "sequential: states/input mismatch");
        let h_dim = self.hidden_size();
        let mut grads = SsmGrads::zeros(h_dim, self.num_classes());
        let last_h = states.last_h();
        grads.d_wout = Matrix::from_fn(g_logits.len(), h_dim, |i, j| g_logits[i] * last_h[j]);
        grads.d_bout = g_logits.clone();
        let mut g_h = seed.clone();
        for t in (0..states.len()).rev() {
            self.accumulate_step(t, xs[t], states, g_h.as_slice(), &mut grads);
            if t > 0 {
                let a_t = states.a(t);
                for i in 0..h_dim {
                    g_h[i] = a_t[i] * g_h[i];
                }
            }
        }
        grads
    }

    /// BPPSA: scan the diagonal chain, then accumulate parameter gradients
    /// from the per-step `∇h_t` (Equation 2, no sequential dependency).
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `states` have mismatched lengths.
    pub fn backward_bppsa(
        &self,
        xs: &[S],
        states: &SsmStates<S>,
        seed: &Vector<S>,
        g_logits: &Vector<S>,
        opts: BppsaOptions,
    ) -> SsmGrads<S> {
        assert_eq!(xs.len(), states.len(), "bppsa: states/input mismatch");
        let chain = self.build_chain(states, seed);
        let result = bppsa_backward(&chain, opts);
        let mut grads = SsmGrads::zeros(self.hidden_size(), self.num_classes());
        self.accumulate_sample_grads(xs, states, g_logits, &result, &mut grads);
        grads
    }

    /// Batched BPPSA through a [`BackwardEngine`]: one diagonal chain per
    /// sample, all on one plan built with `opts` (the elementwise program
    /// under the default [`DiagonalMode::Auto`](bppsa_core::DiagonalMode)).
    /// Per-sample partials are summed in sample order, so the result's bits
    /// do not depend on the executor; under the linear diagonal kernel they
    /// equal summing [`DiagonalSsm::backward_bppsa`] over the batch in
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or sequences have unequal lengths.
    pub fn backward_bppsa_batch(
        &self,
        batch: &[SsmBatchSample<'_, S>],
        opts: BppsaOptions,
        engine: &mut BackwardEngine<S>,
    ) -> SsmGrads<S> {
        let t_len = common_len(
            batch
                .iter()
                .flat_map(|(xs, states, _, _)| [xs.len(), states.len()]),
        );
        let h_dim = self.hidden_size();
        let partials = engine.run(
            opts,
            (t_len, h_dim),
            batch.len(),
            || self.chain_template(t_len),
            |k, chain| Self::refresh_sample(batch[k].1, &batch[k].2, chain),
            |k, result| {
                let (xs, states, _, g_logits) = &batch[k];
                let mut grads = SsmGrads::zeros(h_dim, self.num_classes());
                self.accumulate_sample_grads(xs, states, g_logits, result, &mut grads);
                grads
            },
        );
        sum_in_order(partials, SsmGrads::accumulate)
    }

    /// [`DiagonalSsm::backward_bppsa_batch`] on the per-sample route. Kept
    /// only for the benchmark (`perfbench/`), which names it.
    pub fn backward_bppsa_pooled(
        &self,
        batch: &[SsmBatchSample<'_, S>],
        opts: BppsaOptions,
        engine: &mut BackwardEngine<S>,
    ) -> SsmGrads<S> {
        self.backward_bppsa_batch(batch, opts, engine)
    }

    /// All parameters flattened (decay, gate, inject, `W_out`, `b_out`) —
    /// the order [`SsmGrads::flat`] matches.
    pub fn params(&self) -> Vec<S> {
        let mut out = Vec::new();
        out.extend_from_slice(self.decay.as_slice());
        out.extend_from_slice(self.gate.as_slice());
        out.extend_from_slice(self.inject.as_slice());
        out.extend_from_slice(self.wout.as_slice());
        out.extend_from_slice(self.bout.as_slice());
        out
    }

    /// Writes parameters back from [`DiagonalSsm::params`] layout.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn set_params(&mut self, flat: &[S]) {
        let (h, c) = (self.hidden_size(), self.num_classes());
        assert_eq!(flat.len(), 3 * h + c * h + c, "set_params: length mismatch");
        let mut at = 0;
        for dst in [&mut self.decay, &mut self.gate, &mut self.inject] {
            dst.as_mut_slice().copy_from_slice(&flat[at..at + h]);
            at += h;
        }
        self.wout
            .as_mut_slice()
            .copy_from_slice(&flat[at..at + c * h]);
        at += c * h;
        self.bout.as_mut_slice().copy_from_slice(&flat[at..at + c]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bppsa_core::{DiagonalKernel, DiagonalMode, PlannedScan};
    use bppsa_tensor::init::seeded_rng;

    fn sample_inputs(rng: &mut StdRng, t: usize) -> Vec<f64> {
        use rand::Rng;
        (0..t).map(|_| rng.random_range(-1.0..1.0)).collect()
    }

    /// Owned per-sample forward artifacts the borrowed batch views into.
    type RawSample = (Vec<f64>, SsmStates<f64>, Vector<f64>, Vector<f64>);

    #[test]
    fn forward_records_states_and_gates() {
        let rng = &mut seeded_rng(1);
        let ssm = DiagonalSsm::<f64>::new(6, 4, rng);
        let xs = sample_inputs(rng, 17);
        let states = ssm.forward(&xs);
        assert_eq!(states.len(), 17);
        assert!(!states.is_empty());
        for (t, &x) in xs.iter().enumerate() {
            let a = states.a(t);
            assert_eq!(a.len(), 6);
            assert_eq!(states.h(t).len(), 6);
            for (i, &g) in a.iter().enumerate() {
                assert!(g.abs() < 1.0, "tanh gate out of range");
                assert_eq!(g, ssm.gates(x)[i]);
            }
        }
    }

    #[test]
    fn sequential_and_scan_backwards_agree() {
        let rng = &mut seeded_rng(2);
        let ssm = DiagonalSsm::<f64>::new(8, 5, rng);
        // Non-power-of-two lengths included: the schedule's padding path.
        for t in [1usize, 2, 33, 64, 101] {
            let xs = sample_inputs(rng, t);
            let states = ssm.forward(&xs);
            let (_, seed, g_logits) = ssm.loss_and_seed(&states, t % 5);
            let sequential = ssm.backward_sequential(&xs, &states, &seed, &g_logits);
            let scan = ssm.backward_bppsa(&xs, &states, &seed, &g_logits, BppsaOptions::serial());
            let diff = sequential.max_abs_diff(&scan).to_f64();
            assert!(diff < 1e-12, "t={t}: sequential vs scan diff {diff}");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        // Independent validation of the calculus: central differences of
        // the scalar loss over every parameter.
        let rng = &mut seeded_rng(7);
        let ssm = DiagonalSsm::<f64>::new(4, 3, rng);
        let xs = sample_inputs(rng, 9);
        let label = 1;
        let states = ssm.forward(&xs);
        let (_, seed, g_logits) = ssm.loss_and_seed(&states, label);
        let analytic = ssm
            .backward_sequential(&xs, &states, &seed, &g_logits)
            .flat();
        let loss_at = |flat: &[f64]| {
            let mut m = ssm.clone();
            m.set_params(flat);
            let states = m.forward(&xs);
            m.loss_and_seed(&states, label).0
        };
        let base = ssm.params();
        let eps = 1e-6;
        for (i, &g) in analytic.iter().enumerate() {
            let mut up = base.clone();
            up[i] += eps;
            let mut down = base.clone();
            down[i] -= eps;
            let fd = (loss_at(&up) - loss_at(&down)) / (2.0 * eps);
            assert!(
                (g - fd).abs() <= 1e-6 * (1.0 + fd.abs()),
                "param {i}: analytic {g:e} vs finite-difference {fd:e}"
            );
        }
    }

    #[test]
    fn model_chains_plan_to_the_diagonal_kernel() {
        let rng = &mut seeded_rng(3);
        let ssm = DiagonalSsm::<f64>::new(12, 4, rng);
        let xs = sample_inputs(rng, 40);
        let states = ssm.forward(&xs);
        let (_, seed, g_logits) = ssm.loss_and_seed(&states, 2);
        let chain = ssm.build_chain(&states, &seed);
        // The default options compile the fast path for this model's chain…
        let plan = PlannedScan::plan(&chain, BppsaOptions::serial());
        assert_eq!(plan.diagonal_kernel(), Some(DiagonalKernel::Linear));
        // …and the full parameter gradients are bit-for-bit with the
        // generic CSR pipeline (the linear kernel's contract).
        let fast = ssm.backward_bppsa(&xs, &states, &seed, &g_logits, BppsaOptions::serial());
        let generic = ssm.backward_bppsa(
            &xs,
            &states,
            &seed,
            &g_logits,
            BppsaOptions::serial().diagonal(DiagonalMode::Disabled),
        );
        for (a, b) in fast.flat().iter().zip(&generic.flat()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a:e} vs {b:e}");
        }
    }

    #[test]
    fn batches_match_the_per_sample_sum_bit_for_bit() {
        let rng = &mut seeded_rng(5);
        let ssm = DiagonalSsm::<f64>::new(9, 4, rng);
        let mut engine = BackwardEngine::new();
        for round in 0..2 {
            let raw: Vec<RawSample> = (0..4)
                .map(|k| {
                    let xs = sample_inputs(rng, 51);
                    let states = ssm.forward(&xs);
                    let (_, seed, g_logits) = ssm.loss_and_seed(&states, (round + k) % 4);
                    (xs, states, seed, g_logits)
                })
                .collect();
            let batch: Vec<SsmBatchSample<'_, f64>> = raw
                .iter()
                .map(|(xs, st, s, g)| (xs.as_slice(), st, s.clone(), g.clone()))
                .collect();
            // Reference: per-sample scans summed in batch order. The batch
            // sums the same per-sample partials in the same order, on
            // either executor, so the match is bit-for-bit.
            let mut reference: Option<SsmGrads<f64>> = None;
            for (xs, states, seed, g_logits) in &raw {
                let g = ssm.backward_bppsa(xs, states, seed, g_logits, BppsaOptions::serial());
                match &mut reference {
                    None => reference = Some(g),
                    Some(acc) => acc.accumulate(&g),
                }
            }
            let reference = reference.unwrap();
            for opts in [BppsaOptions::serial(), BppsaOptions::pooled()] {
                let batched = ssm.backward_bppsa_batch(&batch, opts, &mut engine);
                for (a, b) in batched.flat().iter().zip(&reference.flat()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "round {round}: {a:e} vs {b:e}");
                }
                // The per-sample plan took the fast path under the default
                // options.
                let plan = engine.plan().expect("planned");
                assert!(plan.diagonal_kernel().is_some());
            }
        }
        // One shape, one plan per executor.
        assert_eq!(engine.plans_built(), 2);
    }

    #[test]
    fn params_round_trip_and_grad_layout_match() {
        let rng = &mut seeded_rng(6);
        let mut ssm = DiagonalSsm::<f64>::new(5, 3, rng);
        let flat = ssm.params();
        assert_eq!(flat.len(), 3 * 5 + 3 * 5 + 3);
        assert_eq!(
            flat.len(),
            SsmGrads::<f64>::zeros(5, 3).flat().len(),
            "params and grads must share one layout"
        );
        let doubled: Vec<f64> = flat.iter().map(|v| v * 2.0).collect();
        ssm.set_params(&doubled);
        assert_eq!(ssm.params(), doubled);
    }
}
