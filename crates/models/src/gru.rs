//! A GRU (Cho et al. 2014) with a BPPSA backward path — an extension beyond
//! the paper's vanilla RNN showing the scan formulation is architecture-
//! agnostic: *any* recurrence with computable transposed Jacobians
//! `(∂h_t/∂h_{t−1})ᵀ` scans the same way.
//!
//! Cell (scalar input `x_t`, hidden `h`):
//!
//! ```text
//! z_t = σ(W_z x_t + U_z h_{t−1} + b_z)          (update gate)
//! r_t = σ(W_r x_t + U_r h_{t−1} + b_r)          (reset gate)
//! n_t = tanh(W_n x_t + b_nx + r_t ∘ (U_n h_{t−1} + b_nh))
//! h_t = (1 − z_t) ∘ n_t + z_t ∘ h_{t−1}
//! ```
//!
//! The hidden-to-hidden Jacobian (needed by the chain) is
//!
//! ```text
//! ∂h_t/∂h_{t−1} = diag(z)
//!   + diag(h_{t−1} − n) · diag(z(1−z)) · U_z
//!   + diag(1−z) · diag(1−n²) · [diag(r) · U_n + diag(U_n h_{t−1} + b_nh) · diag(r(1−r)) · U_r]
//! ```
//!
//! validated against finite differences, BPTT, and the scan in the tests.
//! Mini-batches run the same scan through a
//! [`BackwardEngine`](crate::BackwardEngine) with
//! [`Gru::hidden_grads_bppsa_batch`]: one planned chain per sample.

use crate::engine::{chain_template, common_len, refresh_chain, BackwardEngine};
use bppsa_core::{bppsa_backward, BppsaOptions, JacobianChain, ScanElement};
use bppsa_ops::SoftmaxCrossEntropy;
use bppsa_sparse::Csr;
use bppsa_tensor::{init, Matrix, Scalar, Vector};
use rand::rngs::StdRng;

/// Per-step cached values needed by the backward passes.
#[derive(Debug, Clone)]
pub struct GruStep<S> {
    /// Update gate `z_t`.
    pub z: Vector<S>,
    /// Reset gate `r_t`.
    pub r: Vector<S>,
    /// Candidate `n_t`.
    pub n: Vector<S>,
    /// Pre-reset candidate recurrence `U_n h_{t−1} + b_nh`.
    pub un_h: Vector<S>,
    /// The resulting hidden state `h_t`.
    pub h: Vector<S>,
}

/// A single-layer GRU over scalar sequences with a linear softmax readout.
///
/// # Examples
///
/// ```
/// use bppsa_models::Gru;
/// use bppsa_tensor::init::seeded_rng;
///
/// let gru = Gru::<f64>::new(8, 10, &mut seeded_rng(0));
/// let steps = gru.forward(&[1.0, 0.0, 1.0]);
/// assert_eq!(steps.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Gru<S> {
    wz: Vector<S>,
    uz: Matrix<S>,
    bz: Vector<S>,
    wr: Vector<S>,
    ur: Matrix<S>,
    br: Vector<S>,
    wn: Vector<S>,
    un: Matrix<S>,
    bnx: Vector<S>,
    bnh: Vector<S>,
    wout: Matrix<S>,
    bout: Vector<S>,
}

fn sigmoid<S: Scalar>(x: S) -> S {
    if x >= S::ZERO {
        S::ONE / (S::ONE + (-x).exp())
    } else {
        let e = x.exp();
        e / (S::ONE + e)
    }
}

impl<S: Scalar> Gru<S> {
    /// Creates a GRU with Kaiming-uniform recurrent weights.
    pub fn new(hidden: usize, classes: usize, rng: &mut StdRng) -> Self {
        let b = init::kaiming_bound(hidden);
        Self {
            wz: init::uniform_vector(rng, hidden, b),
            uz: init::kaiming_matrix(rng, hidden, hidden),
            bz: Vector::zeros(hidden),
            wr: init::uniform_vector(rng, hidden, b),
            ur: init::kaiming_matrix(rng, hidden, hidden),
            br: Vector::zeros(hidden),
            wn: init::uniform_vector(rng, hidden, b),
            un: init::kaiming_matrix(rng, hidden, hidden),
            bnx: Vector::zeros(hidden),
            bnh: Vector::zeros(hidden),
            wout: init::kaiming_matrix(rng, classes, hidden),
            bout: Vector::zeros(classes),
        }
    }

    /// Hidden size.
    pub fn hidden_size(&self) -> usize {
        self.uz.rows()
    }

    /// One cell step from `h_prev` with scalar input `x`.
    pub fn step(&self, x: S, h_prev: &Vector<S>) -> GruStep<S> {
        let h_dim = self.hidden_size();
        let zs = {
            let mut v = self.uz.matvec(h_prev);
            for i in 0..h_dim {
                v[i] = sigmoid(v[i] + self.wz[i] * x + self.bz[i]);
            }
            v
        };
        let rs = {
            let mut v = self.ur.matvec(h_prev);
            for i in 0..h_dim {
                v[i] = sigmoid(v[i] + self.wr[i] * x + self.br[i]);
            }
            v
        };
        let un_h = {
            let mut v = self.un.matvec(h_prev);
            for i in 0..h_dim {
                v[i] += self.bnh[i];
            }
            v
        };
        let ns = Vector::from_fn(h_dim, |i| {
            (self.wn[i] * x + self.bnx[i] + rs[i] * un_h[i]).tanh()
        });
        let h = Vector::from_fn(h_dim, |i| (S::ONE - zs[i]) * ns[i] + zs[i] * h_prev[i]);
        GruStep {
            z: zs,
            r: rs,
            n: ns,
            un_h,
            h,
        }
    }

    /// Runs the recurrence over a scalar sequence (with `h_{−1} = 0`).
    ///
    /// # Panics
    ///
    /// Panics if the input is empty.
    pub fn forward(&self, xs: &[S]) -> Vec<GruStep<S>> {
        assert!(!xs.is_empty(), "gru: empty sequence");
        let mut steps = Vec::with_capacity(xs.len());
        let mut h = Vector::zeros(self.hidden_size());
        for &x in xs {
            let s = self.step(x, &h);
            h = s.h.clone();
            steps.push(s);
        }
        steps
    }

    /// Readout logits from the last hidden state.
    pub fn logits(&self, last_h: &Vector<S>) -> Vector<S> {
        self.wout.matvec(last_h).add(&self.bout)
    }

    /// Loss and the scan seed `∇h_{T−1}` for a class label.
    pub fn loss_and_seed(&self, steps: &[GruStep<S>], label: usize) -> (S, Vector<S>) {
        let last = &steps.last().expect("nonempty").h;
        let (loss, g_logits) = SoftmaxCrossEntropy::loss_and_grad(&self.logits(last), label);
        (loss, self.wout.matvec_transposed(&g_logits))
    }

    /// The transposed hidden-to-hidden Jacobian `(∂h_t/∂h_{t−1})ᵀ` at one
    /// recorded step.
    pub fn hidden_jacobian_t(&self, step: &GruStep<S>, h_prev: &Vector<S>) -> Matrix<S> {
        let h_dim = self.hidden_size();
        let mut out = Matrix::zeros(h_dim, h_dim);
        self.fill_hidden_jacobian_values(step, h_prev, out.as_mut_slice());
        out
    }

    /// Writes [`Gru::hidden_jacobian_t`]'s values row-major into a
    /// caller-owned slice — the allocation-free refresh used when an engine
    /// chain's element values are rewritten in place between iterations.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != hidden²`.
    pub fn fill_hidden_jacobian_values(
        &self,
        step: &GruStep<S>,
        h_prev: &Vector<S>,
        out: &mut [S],
    ) {
        let h_dim = self.hidden_size();
        assert_eq!(out.len(), h_dim * h_dim, "fill_hidden_jacobian_values");
        // J[j][i] = ∂h_t[j]/∂h_prev[i]; we emit Jᵀ[i][j] directly.
        for j in 0..h_dim {
            let dz = (h_prev[j] - step.n[j]) * step.z[j] * (S::ONE - step.z[j]);
            let dn_scale = (S::ONE - step.z[j]) * (S::ONE - step.n[j] * step.n[j]);
            let dr = step.un_h[j] * step.r[j] * (S::ONE - step.r[j]);
            for i in 0..h_dim {
                let mut v = dz * self.uz.get(j, i)
                    + dn_scale * (step.r[j] * self.un.get(j, i) + dr * self.ur.get(j, i));
                if i == j {
                    v += step.z[j];
                }
                out[i * h_dim + j] = v;
            }
        }
    }

    /// Per-sample `∇h_t` sequences for a whole mini-batch through a
    /// [`BackwardEngine`]: one chain per sample, all on one plan built with
    /// `opts`. The chains are built once per shape and their values
    /// refreshed in place every call. Equal to calling
    /// [`Gru::hidden_grads_bppsa`] per sample up to the planned executor's
    /// rounding.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or sequences have unequal lengths.
    pub fn hidden_grads_bppsa_batch(
        &self,
        batch: &[(&[GruStep<S>], Vector<S>)],
        opts: BppsaOptions,
        engine: &mut BackwardEngine<S>,
    ) -> Vec<Vec<Vector<S>>> {
        let t_len = common_len(batch.iter().map(|(steps, _)| steps.len()));
        let h_dim = self.hidden_size();
        let zero = Vector::zeros(h_dim);
        engine.run(
            opts,
            (t_len, h_dim),
            batch.len(),
            || {
                let full = Csr::from_dense_pattern(&Matrix::<S>::zeros(h_dim, h_dim));
                chain_template(full.pattern(), t_len)
            },
            |k, chain| {
                let (steps, seed) = &batch[k];
                refresh_chain(chain, seed.as_slice(), |t, values| {
                    let h_prev = if t == 0 { &zero } else { &steps[t - 1].h };
                    self.fill_hidden_jacobian_values(&steps[t], h_prev, values);
                });
            },
            |_, result| (0..t_len).map(|t| result.grad_x(t + 1).clone()).collect(),
        )
    }

    /// The `∇h_t` sequence via classic BPTT (sequential — Equation 3's
    /// dependency), returned in time order.
    pub fn hidden_grads_bptt(&self, steps: &[GruStep<S>], seed: &Vector<S>) -> Vec<Vector<S>> {
        let t_len = steps.len();
        let mut grads = vec![Vector::zeros(0); t_len];
        let mut g = seed.clone();
        for t in (0..t_len).rev() {
            grads[t] = g.clone();
            if t > 0 {
                let jt = self.hidden_jacobian_t(&steps[t], &steps[t - 1].h);
                g = jt.matvec(&g);
            }
        }
        grads
    }

    /// The `∇h_t` sequence via BPPSA: build the Equation-5 chain from the
    /// per-step Jacobians and scan it.
    pub fn hidden_grads_bppsa(
        &self,
        steps: &[GruStep<S>],
        seed: &Vector<S>,
        opts: BppsaOptions,
    ) -> Vec<Vector<S>> {
        let chain = self.build_hidden_chain(steps, seed);
        let result = bppsa_backward(&chain, opts);
        (0..steps.len())
            .map(|t| result.grad_x(t + 1).clone())
            .collect()
    }

    /// Builds the Equation-5 chain over the per-step hidden Jacobians
    /// (`h_{-1} = 0`) as dense elements, for the unplanned scan.
    fn build_hidden_chain(&self, steps: &[GruStep<S>], seed: &Vector<S>) -> JacobianChain<S> {
        let zero = Vector::zeros(self.hidden_size());
        let mut chain = JacobianChain::new(seed.clone());
        for (t, step) in steps.iter().enumerate() {
            let h_prev = if t == 0 { &zero } else { &steps[t - 1].h };
            chain.push(ScanElement::Dense(self.hidden_jacobian_t(step, h_prev)));
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bppsa_tensor::init::seeded_rng;
    use rand::Rng;

    fn gru(seed: u64) -> Gru<f64> {
        Gru::new(5, 3, &mut seeded_rng(seed))
    }

    fn xs(t: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..t).map(|_| rng.random_range(-1.0..1.0)).collect()
    }

    #[test]
    fn pooled_hidden_grads_match_bptt_and_plan_once() {
        let g = gru(31);
        let prepared: Vec<(Vec<GruStep<f64>>, Vector<f64>)> = (0..4)
            .map(|k| {
                let steps = g.forward(&xs(18, 32 + k));
                let (_, seed) = g.loss_and_seed(&steps, (k % 3) as usize);
                (steps, seed)
            })
            .collect();
        let batch: Vec<(&[GruStep<f64>], Vector<f64>)> = prepared
            .iter()
            .map(|(steps, seed)| (steps.as_slice(), seed.clone()))
            .collect();
        let mut engine = BackwardEngine::new();
        let serial = BppsaOptions::serial();
        for round in 0..3 {
            let pooled = g.hidden_grads_bppsa_batch(&batch, serial, &mut engine);
            for (k, (steps, seed)) in prepared.iter().enumerate() {
                let bptt = g.hidden_grads_bptt(steps, seed);
                for (t, (a, b)) in bptt.iter().zip(&pooled[k]).enumerate() {
                    let diff = a.max_abs_diff(b);
                    assert!(diff < 1e-9, "round {round} k={k} t={t}: diff {diff}");
                }
            }
        }
        assert_eq!(engine.plans_built(), 1);
        // Smaller batch: same per-sample shape, same plan.
        let _ = g.hidden_grads_bppsa_batch(&batch[..2], serial, &mut engine);
        assert_eq!(engine.plans_built(), 1);
    }

    #[test]
    fn fill_hidden_jacobian_values_matches_matrix_form() {
        let g = gru(41);
        let h_prev = Vector::from_vec(vec![0.2, -0.1, 0.4, 0.0, -0.3]);
        let step = g.step(0.3, &h_prev);
        let jt = g.hidden_jacobian_t(&step, &h_prev);
        let mut out = vec![0.0; 25];
        g.fill_hidden_jacobian_values(&step, &h_prev, &mut out);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(out[i * 5 + j], jt.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn gates_are_in_unit_interval() {
        let g = gru(1);
        let steps = g.forward(&xs(10, 2));
        for s in &steps {
            assert!(s.z.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(s.r.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(s.n.iter().all(|&v| (-1.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn hidden_jacobian_matches_finite_differences() {
        let g = gru(3);
        let h_prev = Vector::from_vec(vec![0.1, -0.4, 0.3, 0.0, -0.2]);
        let x = 0.7;
        let step = g.step(x, &h_prev);
        let jt = g.hidden_jacobian_t(&step, &h_prev);
        let eps = 1e-6;
        for i in 0..5 {
            let mut plus = h_prev.clone();
            plus[i] += eps;
            let mut minus = h_prev.clone();
            minus[i] -= eps;
            let (hp, hm) = (g.step(x, &plus).h, g.step(x, &minus).h);
            for j in 0..5 {
                let numeric = (hp[j] - hm[j]) / (2.0 * eps);
                assert!(
                    (jt.get(i, j) - numeric).abs() < 1e-6,
                    "Jᵀ[{i}][{j}] = {} vs numeric {numeric}",
                    jt.get(i, j)
                );
            }
        }
    }

    #[test]
    fn bppsa_hidden_grads_equal_bptt() {
        for t in [1usize, 2, 5, 16, 33] {
            let g = gru(5);
            let steps = g.forward(&xs(t, 6));
            let (_, seed) = g.loss_and_seed(&steps, 1);
            let bptt = g.hidden_grads_bptt(&steps, &seed);
            for opts in [
                BppsaOptions::serial(),
                BppsaOptions::pooled(),
                BppsaOptions::serial().hybrid(2),
            ] {
                let scan = g.hidden_grads_bppsa(&steps, &seed, opts);
                for (a, b) in bptt.iter().zip(&scan) {
                    let diff = a.max_abs_diff(b);
                    assert!(diff < 1e-10, "T={t}: diff {diff}");
                }
            }
        }
    }

    #[test]
    fn seed_grad_appears_at_last_position() {
        let g = gru(7);
        let steps = g.forward(&xs(6, 8));
        let (_, seed) = g.loss_and_seed(&steps, 0);
        let grads = g.hidden_grads_bptt(&steps, &seed);
        assert!(grads.last().unwrap().approx_eq(&seed, 0.0));
    }

    #[test]
    fn gradient_through_update_gate_preserves_state_path() {
        // With z ≈ 1 (strong carry), ∂h_t/∂h_{t−1} ≈ I — the gradient
        // highway property the GRU is built for. Force z high via bias.
        let mut g = gru(9);
        g.bz = Vector::filled(5, 25.0);
        let h_prev = Vector::from_vec(vec![0.3, -0.1, 0.2, 0.0, 0.4]);
        let step = g.step(0.5, &h_prev);
        let jt = g.hidden_jacobian_t(&step, &h_prev);
        let identity = Matrix::identity(5);
        assert!(
            jt.max_abs_diff(&identity) < 1e-6,
            "carry Jacobian deviates: {}",
            jt.max_abs_diff(&identity)
        );
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_rejected() {
        let _ = gru(11).forward(&[]);
    }
}
