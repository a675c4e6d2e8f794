//! # bppsa — Scaling Back-propagation by Parallel Scan Algorithm
//!
//! A full Rust reproduction of *"BPPSA: Scaling Back-propagation by Parallel
//! Scan Algorithm"* (Wang, Bai & Pekhimenko, MLSys 2020): back-propagation
//! reformulated as an exclusive scan over transposed Jacobians and scaled by
//! a modified Blelloch scan, together with every substrate the paper depends
//! on — dense/sparse linear algebra, an NN operator library with analytic
//! CSR Jacobian generation, a generic scan framework, a PRAM cost-model
//! simulator with the paper's GPU profiles, pipeline-parallelism baselines,
//! the paper's models, datasets, and training loops, and a deadline
//! micro-batching serving front door ([`serve`]) that coalesces
//! independently-arriving backward requests into batched planned-scan
//! executions.
//!
//! This crate is a facade: it re-exports the workspace crates and hosts the
//! runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`). See the README for the architecture map and EXPERIMENTS.md
//! for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use bppsa::prelude::*;
//!
//! // Build a model (Equation 1: f = f1 ∘ … ∘ fn).
//! let mut rng = seeded_rng(0);
//! let mut net = Network::<f64>::new();
//! net.push(Box::new(Linear::new(8, 32, &mut rng)));
//! net.push(Box::new(Relu::new(vec![32])));
//! net.push(Box::new(Linear::new(32, 4, &mut rng)));
//!
//! // Forward, then backward both ways.
//! let tape = net.forward(&Tensor::from_vec(vec![8], vec![0.1; 8]));
//! let seed = Vector::from_vec(vec![1.0, -0.5, 0.25, 0.0]);
//! let baseline = net.backward_bp(&tape, &seed);
//! let scanned = net.backward_bppsa(&tape, &seed, JacobianRepr::Sparse, BppsaOptions::threaded(4));
//!
//! // §3.5: BPPSA reconstructs BP exactly (up to fp reassociation).
//! assert!(baseline.max_abs_diff(&scanned) < 1e-10);
//! ```
//!
//! ## Steady-state training: plan once, execute many
//!
//! Because the Jacobians' guaranteed-zero patterns are deterministic (§3.3),
//! the *entire* backward pass can be compiled ahead of training into a
//! numeric-only program over pre-sized buffers. [`PlannedScan`](core::PlannedScan)
//! is the compiler, [`ScanWorkspace`](core::ScanWorkspace) the reusable buffers,
//! and the per-iteration [`PlannedScan::execute_with`](core::PlannedScan::execute_with)
//! performs **zero heap allocations** in the steady state (asserted by a
//! counting-allocator test). For *concurrent* mini-batches of the same
//! compiled plan, [`WorkspacePool`](core::WorkspacePool) and
//! [`BatchedBackward`](core::BatchedBackward) add the pooled scale-out
//! layer, and [`BackwardEngine`](models::BackwardEngine) runs the models'
//! mini-batches on it (see `ARCHITECTURE.md`):
//!
//! ```
//! use bppsa::prelude::*;
//! use bppsa::sparse::Csr;
//!
//! let chain_at = |step: usize| {
//!     // Every iteration: same patterns, fresh values.
//!     let mut chain = JacobianChain::new(Vector::from_vec(vec![1.0, step as f64]));
//!     chain.push(ScanElement::Sparse(Csr::from_diagonal(&[0.5, 1.0 + step as f64])));
//!     chain
//! };
//! let plan = PlannedScan::plan(&chain_at(0), BppsaOptions::serial()); // symbolic work, once
//! let mut workspace = plan.workspace::<f64>(); // every buffer, once
//! for step in 0..4 {
//!     let grads = plan.execute_with(&chain_at(step), &mut workspace); // numeric only
//!     assert_eq!(grads.grads().len(), 1);
//! }
//! ```

#![warn(missing_docs)]

pub use bppsa_core as core;
pub use bppsa_models as models;
pub use bppsa_ops as ops;
pub use bppsa_pipeline as pipeline;
pub use bppsa_pram as pram;
pub use bppsa_scan as scan;
pub use bppsa_serve as serve;
pub use bppsa_sparse as sparse;
pub use bppsa_tensor as tensor;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use bppsa_core::{
        bppsa_backward, linear_backward, BackwardResult, BatchedBackward, BppsaOptions, Gradients,
        JacobianChain, JacobianRepr, JacobianScanOp, Network, PlannedScan, ScanElement,
        ScanWorkspace, Tape, WorkspacePool,
    };
    pub use bppsa_models::{
        lenet5, lenet_tiny, vgg11, vgg11_convs, Adam, BitstreamDataset, Gru, Optimizer, RnnGrads,
        Sgd, SyntheticCifar, VanillaRnn,
    };
    pub use bppsa_ops::{
        AvgPool2d, Conv2d, Conv2dConfig, Flatten, Linear, MaxPool2d, MseLoss, Operator, Relu,
        Sigmoid, SoftmaxCrossEntropy, Tanh,
    };
    pub use bppsa_pram::{simulate_speedups, DeviceProfile, RnnWorkload};
    pub use bppsa_scan::{
        execute_in_place, global_pool, serial_exclusive_scan, Executor, ScanOp, ScanSchedule,
        WorkerPool,
    };
    pub use bppsa_serve::{BppsaService, ServeConfig, Ticket};
    pub use bppsa_sparse::{spgemm, Coo, Csr, SparsityPattern, SymbolicProduct};
    pub use bppsa_tensor::init::seeded_rng;
    pub use bppsa_tensor::{Matrix, Scalar, Tensor, Vector};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links() {
        use crate::prelude::*;
        let m = Matrix::<f32>::identity(2);
        assert_eq!(m.get(0, 0), 1.0);
    }
}
