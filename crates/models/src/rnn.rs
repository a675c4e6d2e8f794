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
//! [`VanillaRnn::backward_bppsa_batch`].

use crate::engine::{block_template, common_len, refresh_block, sum_in_order, BackwardEngine};
use crate::served::ServedSubmitError;
use crate::train::BackwardMethod;
use bppsa_core::{bppsa_backward, BppsaOptions, JacobianChain, ScanElement};
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

/// One prepared sample of a fused mini-batch backward:
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
        let mut states = Vec::with_capacity(bits.len());
        let mut h = Vector::zeros(h_dim);
        for &x in bits {
            let mut z = self.whh.matvec(&h);
            for i in 0..h_dim {
                z[i] += self.wih.get(i, 0) * x + self.bih[i] + self.bhh[i];
            }
            h = z.map(|v| v.tanh());
            states.push(h.clone());
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
        for t in (0..states.len()).rev() {
            let h_t = &states[t];
            // g_z = (1 − h²) ⊙ g_h.
            let g_z = Vector::from_fn(h_dim, |i| (S::ONE - h_t[i] * h_t[i]) * g_h[i]);
            for i in 0..h_dim {
                let v = grads.d_wih.get(i, 0) + g_z[i] * bits[t];
                grads.d_wih.set(i, 0, v);
            }
            grads.d_bih.axpy(S::ONE, &g_z);
            grads.d_bhh.axpy(S::ONE, &g_z);
            if t > 0 {
                grads.d_whh.axpy(S::ONE, &g_z.outer(&states[t - 1]));
                g_h = self.whh.matvec_transposed(&g_z);
            }
            // t == 0: h_{−1} = 0, so the ∇W_hh term vanishes and no further
            // gradient propagates.
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
    /// caller-owned slice — the allocation-free refresh used when a fused
    /// chain's block values are rewritten in place between iterations.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != hidden² `.
    pub fn fill_hidden_jacobian_values(&self, h_t: &Vector<S>, out: &mut [S]) {
        let h_dim = self.hidden_size();
        assert_eq!(out.len(), h_dim * h_dim, "fill_hidden_jacobian_values");
        for i in 0..h_dim {
            for (j, o) in out[i * h_dim..(i + 1) * h_dim].iter_mut().enumerate() {
                *o = self.whh.get(j, i) * (S::ONE - h_t[j] * h_t[j]);
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
        for t in 0..states.len() {
            let h_t = &states[t];
            let g_h = result.grad_x(t + 1);
            let g_z = Vector::from_fn(h_dim, |i| (S::ONE - h_t[i] * h_t[i]) * g_h[i]);
            for i in 0..h_dim {
                let v = grads.d_wih.get(i, 0) + g_z[i] * bits[t];
                grads.d_wih.set(i, 0, v);
            }
            grads.d_bih.axpy(S::ONE, &g_z);
            grads.d_bhh.axpy(S::ONE, &g_z);
            if t > 0 {
                grads.d_whh.axpy(S::ONE, &g_z.outer(&states[t - 1]));
            }
        }
        grads
    }

    /// Batched BPPSA through a [`BackwardEngine`]: `method` picks the
    /// fused route (one block-diagonal chain over the batch, the
    /// `diag(J_t^{(1)}, …, J_t^{(B)})` per timestep that the paper's CUDA
    /// implementation batches across thread blocks), the per-sample route
    /// (one chain each over pooled workspaces) or the served route. Each
    /// sample's parameter gradients (Equation 2) are summed in sample
    /// order, so every route returns the same bits, equal to summing
    /// [`VanillaRnn::backward_bppsa`] over the batch up to the planned
    /// executor's rounding.
    ///
    /// # Errors
    ///
    /// [`ServedSubmitError`] when the served route's service refuses a
    /// request past its retry budget; the batch can be run again.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, sequences have unequal lengths, or
    /// `method` is not a batch route (see [`BackwardEngine::scan`]).
    pub fn backward_bppsa_batch(
        &self,
        batch: &[RnnBatchSample<'_, S>],
        method: BackwardMethod,
        engine: &mut BackwardEngine<S>,
    ) -> Result<RnnGrads<S>, ServedSubmitError> {
        let t_len = batch_len(batch);
        let h_dim = self.hidden_size();
        let partials = engine.run(
            method,
            (t_len, h_dim),
            batch.len(),
            |blocks| self.chain_template(blocks, t_len),
            |k, chain, block| self.refresh_sample(&batch[k], chain, block),
            |k, result, block| {
                let (bits, states, _, g_logits) = &batch[k];
                let mut grads = RnnGrads::zeros(self.input_dim, h_dim, self.num_classes());
                self.accumulate_sample_grads(bits, states, g_logits, result, block, &mut grads);
                grads
            },
        )?;
        Ok(sum_in_order(partials, RnnGrads::accumulate))
    }

    /// [`VanillaRnn::backward_bppsa_batch`] on the fused route. Kept only
    /// for the benchmark (`perfbench/`), which names it.
    pub fn backward_bppsa_batched_planned(
        &self,
        batch: &[RnnBatchSample<'_, S>],
        opts: BppsaOptions,
        engine: &mut BackwardEngine<S>,
    ) -> RnnGrads<S> {
        let method = BackwardMethod::BppsaFusedPlanned { opts };
        self.backward_bppsa_batch(batch, method, engine)
            .expect("the fused route never refuses")
    }

    /// [`VanillaRnn::backward_bppsa_batch`] on the per-sample route. Kept
    /// only for the benchmark (`perfbench/`), which names it.
    pub fn backward_bppsa_pooled(
        &self,
        batch: &[RnnBatchSample<'_, S>],
        opts: BppsaOptions,
        engine: &mut BackwardEngine<S>,
    ) -> RnnGrads<S> {
        let method = BackwardMethod::BppsaPooled { opts };
        self.backward_bppsa_batch(batch, method, engine)
            .expect("the per-sample route never refuses")
    }

    /// Mixed-shape inference-gradient serving: independent per-sample
    /// requests with **heterogeneous sequence lengths**, all submitted to
    /// one shared [`BppsaService`](bppsa_serve::BppsaService) — the
    /// serving-shard scenario where users' sequences differ and the router
    /// coalesces same-length requests into shared per-shape lanes.
    ///
    /// Returns each request's full parameter gradients, equal (up to the
    /// planned executor's deterministic rounding) to running
    /// [`VanillaRnn::backward_bppsa`] per sample.
    ///
    /// # Errors
    ///
    /// [`ServedSubmitError`] when a request is
    /// refused past the shared service's retry budget — a shared front
    /// door may shed load or have quarantined this sequence length's
    /// shape; requests accepted before the refusal are waited out first.
    ///
    /// # Panics
    ///
    /// Panics if any request's sequence is empty, or if an *accepted*
    /// request fails (possible only when the shared service runs a
    /// breaker, hard deadlines, or fault injection).
    pub fn serve_sample_gradients(
        &self,
        service: &bppsa_serve::BppsaService<S>,
        requests: &[RnnBatchSample<'_, S>],
    ) -> Result<Vec<RnnGrads<S>>, ServedSubmitError> {
        let tickets: Vec<bppsa_serve::Ticket<S>> = requests
            .iter()
            .map(|_| bppsa_serve::Ticket::new())
            .collect();
        // A shared service may transiently refuse (load shedding, lane
        // warming under try-semantics, a quarantined shape in half-open);
        // `submit_retrying` absorbs those under the service's RetryPolicy
        // instead of failing the whole request set on the first refusal.
        let mut submitted = 0;
        let mut failure = None;
        for (k, ticket) in tickets.iter().enumerate() {
            let chain = self.build_batched_chain(&requests[k..k + 1]);
            match service.submit_retrying(chain, ticket) {
                Ok(()) => submitted += 1,
                Err(e) => {
                    failure = Some(ServedSubmitError {
                        index: k,
                        refusal: e.kind(),
                    });
                    break;
                }
            }
        }
        if let Some(err) = failure {
            // Never return with requests still in flight: land everything
            // accepted before the refusal, then surface the error.
            for ticket in &tickets[..submitted] {
                let _ = ticket.wait();
                let _ = ticket.take_chain();
            }
            return Err(err);
        }
        Ok(requests
            .iter()
            .zip(&tickets)
            .enumerate()
            .map(|(k, ((bits, states, _, g_logits), ticket))| {
                ticket
                    .wait()
                    .unwrap_or_else(|e| panic!("serve_sample_gradients: request {k} failed: {e}"));
                let mut grads =
                    RnnGrads::zeros(self.input_dim, self.hidden_size(), self.num_classes());
                ticket.with_result(|r| {
                    self.accumulate_sample_grads(bits, states, g_logits, r, 0, &mut grads);
                });
                grads
            })
            .collect())
    }

    /// Builds the fused mini-batch chain: concatenated seeds plus one
    /// block-diagonal CSR element per timestep. The per-sample blocks store
    /// every position ([`Csr::from_dense_pattern`]), so the pattern depends
    /// only on `(B, T, hidden)`, which is what makes the chain plannable.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or sequences have unequal lengths.
    pub fn build_batched_chain(&self, batch: &[RnnBatchSample<'_, S>]) -> JacobianChain<S> {
        let mut chain = self.chain_template(batch.len(), batch_len(batch));
        for (k, sample) in batch.iter().enumerate() {
            self.refresh_sample(sample, &mut chain, k);
        }
        chain
    }

    /// A `blocks`-sample fused chain of `t_len` layers with zero values.
    fn chain_template(&self, blocks: usize, t_len: usize) -> JacobianChain<S> {
        let h_dim = self.hidden_size();
        block_template(
            &Csr::from_dense_pattern(&Matrix::zeros(h_dim, h_dim)),
            blocks,
            t_len,
        )
    }

    /// Writes one sample's seed and Jacobian values into block `block`.
    fn refresh_sample(
        &self,
        (_, states, seed, _): &RnnBatchSample<'_, S>,
        chain: &mut JacobianChain<S>,
        block: usize,
    ) {
        refresh_block(chain, block, seed.as_slice(), |t, values| {
            self.fill_hidden_jacobian_values(&states[t], values)
        });
    }

    /// Adds one sample's parameter gradients (Equation 2) into `grads`,
    /// reading `∇h_t` from block `block` of `result`'s (possibly
    /// concatenated) per-timestep gradients — block `k` of a fused
    /// mini-batch result, block `0` of a per-sample result.
    fn accumulate_sample_grads(
        &self,
        bits: &[S],
        states: &RnnStates<S>,
        g_logits: &Vector<S>,
        result: &bppsa_core::BackwardResult<S>,
        block: usize,
        grads: &mut RnnGrads<S>,
    ) {
        let h_dim = self.hidden_size();
        grads
            .d_wout
            .axpy(S::ONE, &g_logits.outer(states.last().expect("nonempty")));
        grads.d_bout.axpy(S::ONE, g_logits);
        for (t, h_t) in states.iter().enumerate() {
            let g_all = result.grad_x(t + 1);
            let g_h = &g_all.as_slice()[block * h_dim..(block + 1) * h_dim];
            let g_z = Vector::from_fn(h_dim, |i| (S::ONE - h_t[i] * h_t[i]) * g_h[i]);
            for i in 0..h_dim {
                let v = grads.d_wih.get(i, 0) + g_z[i] * bits[t];
                grads.d_wih.set(i, 0, v);
            }
            grads.d_bih.axpy(S::ONE, &g_z);
            grads.d_bhh.axpy(S::ONE, &g_z);
            if t > 0 {
                grads.d_whh.axpy(S::ONE, &g_z.outer(&states[t - 1]));
            }
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
    fn bppsa_threaded_and_hybrid_agree() {
        let rnn = tiny_rnn(9);
        let xs = bits(25, 10);
        let states = rnn.forward(&xs);
        let (_, seed, g_logits) = rnn.loss_and_seed(&states, 0);
        let reference = rnn.backward_bptt(&xs, &states, &seed, &g_logits);
        for opts in [
            BppsaOptions::threaded(4),
            BppsaOptions::serial().hybrid(2),
            BppsaOptions::threaded(2).hybrid(3),
        ] {
            let scan = rnn.backward_bppsa(&xs, &states, &seed, &g_logits, opts);
            assert!(reference.max_abs_diff(&scan) < 1e-10);
        }
    }

    #[test]
    fn batched_scan_equals_per_sample_sum() {
        let rnn = tiny_rnn(31);
        let t = 9;
        let all_bits: Vec<Vec<f64>> = (0..4).map(|k| bits(t, 32 + k)).collect();
        let mut batch = Vec::new();
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
        for (xs, (states, seed, g_logits)) in all_bits.iter().zip(&stored) {
            batch.push((xs.as_slice(), states, seed.clone(), g_logits.clone()));
        }
        let expected = expected.unwrap();

        // The fused route agrees, and plans once across repeated
        // executions.
        let mut engine = BackwardEngine::new();
        let fused = BackwardMethod::bppsa_fused_planned(BppsaOptions::serial());
        for round in 0..3 {
            let planned = rnn
                .backward_bppsa_batch(&batch, fused, &mut engine)
                .unwrap();
            let diff = planned.max_abs_diff(&expected);
            assert!(diff < 1e-10, "round {round}: diff {diff}");
        }
        assert_eq!(engine.plans_built(), 1);
    }

    #[test]
    fn served_mixed_length_inference_gradients_match_per_sample_backward() {
        // The serving-shard scenario: independent requests with three
        // *different* sequence lengths, all submitted to one shared
        // service. The router coalesces same-length requests into shared
        // lanes, and every request's gradients match the per-sample BPPSA
        // backward.
        let rnn = tiny_rnn(61);
        let lengths = [5usize, 9, 13, 9, 5, 13, 9, 5];
        let all_bits: Vec<Vec<f64>> = lengths
            .iter()
            .enumerate()
            .map(|(k, &t)| bits(t, 62 + k as u64))
            .collect();
        let mut stored = Vec::new();
        let mut expected = Vec::new();
        for (k, xs) in all_bits.iter().enumerate() {
            let states = rnn.forward(xs);
            let (_, seed, g_logits) = rnn.loss_and_seed(&states, k % 3);
            expected.push(rnn.backward_bppsa(
                xs,
                &states,
                &seed,
                &g_logits,
                BppsaOptions::serial(),
            ));
            stored.push((states, seed, g_logits));
        }
        let requests: Vec<RnnBatchSample<'_, f64>> = all_bits
            .iter()
            .zip(&stored)
            .map(|(xs, (states, seed, g))| (xs.as_slice(), states, seed.clone(), g.clone()))
            .collect();

        let service = bppsa_serve::BppsaService::<f64>::new(bppsa_serve::ServeConfig {
            max_batch: 3,
            max_delay: std::time::Duration::from_micros(300),
            ..bppsa_serve::ServeConfig::default()
        });
        for round in 0..2 {
            let served = rnn
                .serve_sample_gradients(&service, &requests)
                .expect("service accepts all requests");
            assert_eq!(served.len(), requests.len());
            for (k, (got, expect)) in served.iter().zip(&expected).enumerate() {
                let diff = got.max_abs_diff(expect);
                assert!(diff < 1e-10, "round {round} request {k}: diff {diff}");
            }
        }
        // One lane per distinct sequence length, planned once each.
        assert_eq!(service.lanes(), 3);
        assert_eq!(service.lanes_created(), 3);
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
        let pooled = BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial());
        for round in 0..3 {
            let grads = rnn
                .backward_bppsa_batch(&batch, pooled, &mut engine)
                .unwrap();
            let diff = grads.max_abs_diff(&expected);
            assert!(diff < 1e-10, "round {round}: diff {diff}");
        }
        assert_eq!(engine.plans_built(), 1);

        // A smaller "remainder" batch reuses the same plan (same per-sample
        // shape) — the per-sample route's advantage over the fused one.
        let remainder = rnn
            .backward_bppsa_batch(&batch[..2], pooled, &mut engine)
            .unwrap();
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
        let fused = BackwardMethod::bppsa_fused_planned(BppsaOptions::serial());
        let _ = rnn.backward_bppsa_batch(&batch, fused, &mut BackwardEngine::new());
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
