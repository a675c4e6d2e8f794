//! Sequential networks: the model formulation of the paper's Equation 1
//! (`f = f₁ ∘ … ∘ f_n`), with both backward paths.
//!
//! [`Network::backward_bp`] is the baseline — classic reverse-mode VJPs, the
//! same math PyTorch Autograd + cuDNN run. [`Network::backward_bppsa`] is the
//! paper's method — build the transposed-Jacobian chain and scan it. §3.5's
//! claim is that the two are the *same function* up to floating-point
//! reassociation; the test suite and the Figure 7 experiment verify it.

use crate::backward::{bppsa_backward, BackwardResult, BppsaOptions};
use crate::chain::JacobianChain;
use crate::element::ScanElement;
use bppsa_ops::Operator;
use bppsa_tensor::{Scalar, Tensor, Vector};

/// How transposed Jacobians are represented in the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JacobianRepr {
    /// CSR with the deterministic guaranteed-nonzero pattern (§3.3) — the
    /// paper's choice.
    #[default]
    Sparse,
    /// Dense matrices (only viable for small layers; used for validation).
    Dense,
}

/// A sequential feed-forward network.
///
/// # Examples
///
/// ```
/// use bppsa_core::Network;
/// use bppsa_ops::{Linear, Relu};
/// use bppsa_tensor::{init::seeded_rng, Tensor};
///
/// let mut rng = seeded_rng(0);
/// let mut net = Network::<f32>::new();
/// net.push(Box::new(Linear::new(4, 8, &mut rng)));
/// net.push(Box::new(Relu::new(vec![8])));
/// net.push(Box::new(Linear::new(8, 2, &mut rng)));
/// let tape = net.forward(&Tensor::zeros(vec![4]));
/// assert_eq!(tape.output().shape(), &[2]);
/// ```
pub struct Network<S> {
    ops: Vec<Box<dyn Operator<S>>>,
}

impl<S: Scalar> Default for Network<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scalar> Network<S> {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self { ops: Vec::new() }
    }

    /// Appends an operator, validating shape chaining.
    ///
    /// # Panics
    ///
    /// Panics if the operator's input shape does not match the previous
    /// operator's output shape.
    pub fn push(&mut self, op: Box<dyn Operator<S>>) -> &mut Self {
        if let Some(prev) = self.ops.last() {
            assert_eq!(
                prev.output_shape(),
                op.input_shape(),
                "network: {} output {:?} does not feed {} input {:?}",
                prev.name(),
                prev.output_shape(),
                op.name(),
                op.input_shape()
            );
        }
        self.ops.push(op);
        self
    }

    /// The operators in layer order.
    pub fn ops(&self) -> &[Box<dyn Operator<S>>] {
        &self.ops
    }

    /// Mutable access to the operators (for optimizers and pruning).
    pub fn ops_mut(&mut self) -> &mut [Box<dyn Operator<S>>] {
        &mut self.ops
    }

    /// Number of layers `n`.
    pub fn num_layers(&self) -> usize {
        self.ops.len()
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.ops.iter().map(|op| op.param_len()).sum()
    }

    /// Runs the forward pass, recording every activation `x₀ … x_n`.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the first operator's.
    pub fn forward(&self, input: &Tensor<S>) -> Tape<S> {
        let mut activations = Vec::with_capacity(self.ops.len() + 1);
        activations.push(input.clone());
        for op in &self.ops {
            let next = op.forward(activations.last().expect("nonempty"));
            activations.push(next);
        }
        Tape { activations }
    }

    /// Classic back-propagation (the baseline): reverse-order VJPs,
    /// interleaving Equation 3 (activation gradients) and Equation 2
    /// (parameter gradients).
    pub fn backward_bp(&self, tape: &Tape<S>, grad_output: &Vector<S>) -> Gradients<S> {
        tape.check_against(self);
        let n = self.ops.len();
        let mut activation_grads: Vec<Vector<S>> = vec![Vector::zeros(0); n];
        let mut param_grads: Vec<Vec<S>> = vec![Vec::new(); n];
        let mut g = grad_output.clone();
        for i in (0..n).rev() {
            let (x, y) = (&tape.activations[i], &tape.activations[i + 1]);
            activation_grads[i] = g.clone();
            param_grads[i] = self.ops[i].param_grad(x, y, &g);
            if i > 0 {
                g = self.ops[i].vjp(x, y, &g);
            }
        }
        Gradients {
            activation_grads,
            param_grads,
        }
    }

    /// Builds the Equation 5 chain from a recorded forward pass.
    pub fn build_chain(
        &self,
        tape: &Tape<S>,
        grad_output: &Vector<S>,
        repr: JacobianRepr,
    ) -> JacobianChain<S> {
        tape.check_against(self);
        let mut chain = JacobianChain::new(grad_output.clone());
        for (i, op) in self.ops.iter().enumerate() {
            let jt = op.transposed_jacobian(&tape.activations[i], &tape.activations[i + 1]);
            chain.push(match repr {
                JacobianRepr::Sparse => ScanElement::Sparse(jt),
                JacobianRepr::Dense => ScanElement::Dense(jt.to_dense()),
            });
        }
        chain.validate();
        chain
    }

    /// BPPSA: activation gradients via the modified Blelloch scan, then
    /// parameter gradients via Equation 2 (independent per layer).
    pub fn backward_bppsa(
        &self,
        tape: &Tape<S>,
        grad_output: &Vector<S>,
        repr: JacobianRepr,
        opts: BppsaOptions,
    ) -> Gradients<S> {
        let chain = self.build_chain(tape, grad_output, repr);
        let result: BackwardResult<S> = bppsa_backward(&chain, opts);
        self.gradients_from_activation_grads(tape, result.grads().to_vec())
    }

    /// Flattened output length of the final operator.
    pub fn output_len(&self) -> usize {
        self.ops.last().map_or(0, |op| op.output_len())
    }

    /// Assembles [`Gradients`] from precomputed activation gradients by
    /// running Equation 2 for every layer (this loop is embarrassingly
    /// parallel — no dependency along `i`).
    pub fn gradients_from_activation_grads(
        &self,
        tape: &Tape<S>,
        activation_grads: Vec<Vector<S>>,
    ) -> Gradients<S> {
        assert_eq!(
            activation_grads.len(),
            self.ops.len(),
            "need one activation gradient per layer"
        );
        let param_grads = self
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                op.param_grad(
                    &tape.activations[i],
                    &tape.activations[i + 1],
                    &activation_grads[i],
                )
            })
            .collect();
        Gradients {
            activation_grads,
            param_grads,
        }
    }
}

/// The recorded activations of one forward pass: `x₀ … x_n`.
#[derive(Debug, Clone)]
pub struct Tape<S> {
    activations: Vec<Tensor<S>>,
}

impl<S: Scalar> Tape<S> {
    /// All activations, input first.
    pub fn activations(&self) -> &[Tensor<S>] {
        &self.activations
    }

    /// The network output `x_n`.
    pub fn output(&self) -> &Tensor<S> {
        self.activations.last().expect("tape holds at least x0")
    }

    fn check_against(&self, net: &Network<S>) {
        assert_eq!(
            self.activations.len(),
            net.ops.len() + 1,
            "tape does not match network depth"
        );
    }
}

/// Gradients produced by a backward pass.
#[derive(Debug, Clone)]
pub struct Gradients<S> {
    /// `activation_grads[i] = ∇x_{i+1} l` (gradient at layer `i`'s output).
    pub activation_grads: Vec<Vector<S>>,
    /// `param_grads[i]` = flattened `∇θ_{i+1} l` (empty for stateless ops).
    pub param_grads: Vec<Vec<S>>,
}

impl<S: Scalar> Gradients<S> {
    /// Largest absolute difference across all activation and parameter
    /// gradients — the exactness metric between BP and BPPSA (§3.5).
    ///
    /// # Panics
    ///
    /// Panics if the structures differ.
    pub fn max_abs_diff(&self, other: &Self) -> S {
        assert_eq!(self.activation_grads.len(), other.activation_grads.len());
        assert_eq!(self.param_grads.len(), other.param_grads.len());
        let mut worst = S::ZERO;
        for (a, b) in self.activation_grads.iter().zip(&other.activation_grads) {
            worst = worst.maximum(a.max_abs_diff(b));
        }
        for (a, b) in self.param_grads.iter().zip(&other.param_grads) {
            assert_eq!(a.len(), b.len(), "parameter gradient length mismatch");
            for (&x, &y) in a.iter().zip(b) {
                worst = worst.maximum((x - y).abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bppsa_ops::{Conv2d, Conv2dConfig, Flatten, Linear, MaxPool2d, Relu, Tanh};
    use bppsa_tensor::init::{seeded_rng, uniform_tensor, uniform_vector};

    fn mlp(seed: u64) -> Network<f64> {
        let mut rng = seeded_rng(seed);
        let mut net = Network::new();
        net.push(Box::new(Linear::new(6, 10, &mut rng)));
        net.push(Box::new(Relu::new(vec![10])));
        net.push(Box::new(Linear::new(10, 8, &mut rng)));
        net.push(Box::new(Tanh::new(vec![8])));
        net.push(Box::new(Linear::new(8, 3, &mut rng)));
        net
    }

    fn tiny_cnn(seed: u64) -> Network<f64> {
        let mut rng = seeded_rng(seed);
        let mut net = Network::new();
        net.push(Box::new(Conv2d::new(
            Conv2dConfig::vgg_style(1, 4, (6, 6)),
            &mut rng,
        )));
        net.push(Box::new(Relu::new(vec![4, 6, 6])));
        net.push(Box::new(MaxPool2d::new(4, (2, 2), (2, 2), (6, 6))));
        net.push(Box::new(Flatten::new(vec![4, 3, 3])));
        net.push(Box::new(Linear::new(36, 5, &mut rng)));
        net
    }

    #[test]
    fn forward_tape_records_all_activations() {
        let net = mlp(1);
        let x = uniform_tensor(&mut seeded_rng(2), vec![6], 1.0);
        let tape = net.forward(&x);
        assert_eq!(tape.activations().len(), 6);
        assert_eq!(tape.output().shape(), &[3]);
    }

    #[test]
    fn bppsa_equals_bp_on_mlp_sparse_and_dense() {
        let net = mlp(3);
        let x = uniform_tensor(&mut seeded_rng(4), vec![6], 1.0);
        let tape = net.forward(&x);
        let g = uniform_vector(&mut seeded_rng(5), 3, 1.0);
        let bp = net.backward_bp(&tape, &g);
        for repr in [JacobianRepr::Sparse, JacobianRepr::Dense] {
            let scan = net.backward_bppsa(&tape, &g, repr, BppsaOptions::serial());
            let diff = bp.max_abs_diff(&scan);
            assert!(diff < 1e-10, "{repr:?}: diff {diff}");
        }
    }

    #[test]
    fn bppsa_equals_bp_on_cnn() {
        let net = tiny_cnn(7);
        let x = uniform_tensor(&mut seeded_rng(8), vec![1, 6, 6], 1.0);
        let tape = net.forward(&x);
        let g = uniform_vector(&mut seeded_rng(9), 5, 1.0);
        let bp = net.backward_bp(&tape, &g);
        let scan = net.backward_bppsa(&tape, &g, JacobianRepr::Sparse, BppsaOptions::serial());
        let diff = bp.max_abs_diff(&scan);
        assert!(diff < 1e-10, "diff {diff}");
    }

    #[test]
    fn threaded_and_hybrid_agree_on_cnn() {
        let net = tiny_cnn(11);
        let x = uniform_tensor(&mut seeded_rng(12), vec![1, 6, 6], 1.0);
        let tape = net.forward(&x);
        let g = uniform_vector(&mut seeded_rng(13), 5, 1.0);
        let reference = net.backward_bp(&tape, &g);
        for opts in [
            BppsaOptions::pooled(),
            BppsaOptions::serial().hybrid(1),
            BppsaOptions::pooled().hybrid(2),
        ] {
            let scan = net.backward_bppsa(&tape, &g, JacobianRepr::Sparse, opts);
            assert!(reference.max_abs_diff(&scan) < 1e-10);
        }
    }

    #[test]
    fn param_grad_layout_matches_ops() {
        let net = mlp(20);
        let x = uniform_tensor(&mut seeded_rng(21), vec![6], 1.0);
        let tape = net.forward(&x);
        let g = uniform_vector(&mut seeded_rng(22), 3, 1.0);
        let grads = net.backward_bp(&tape, &g);
        for (op, pg) in net.ops().iter().zip(&grads.param_grads) {
            assert_eq!(op.param_len(), pg.len(), "{}", op.name());
        }
        assert_eq!(net.num_params(), 6 * 10 + 10 + 10 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    #[should_panic(expected = "does not feed")]
    fn push_rejects_shape_mismatch() {
        let mut rng = seeded_rng(0);
        let mut net = Network::<f64>::new();
        net.push(Box::new(Linear::new(4, 8, &mut rng)));
        net.push(Box::new(Linear::new(9, 2, &mut rng)));
    }

    #[test]
    #[should_panic(expected = "tape does not match")]
    fn backward_rejects_foreign_tape() {
        let net = mlp(1);
        let other = Network::<f64>::new();
        let x = uniform_tensor(&mut seeded_rng(2), vec![6], 1.0);
        let tape = net.forward(&x);
        let _ = other.backward_bp(&tape, &Vector::zeros(3));
    }
}
