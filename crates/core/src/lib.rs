//! # bppsa-core — back-propagation as a parallel scan
//!
//! The primary contribution of *"BPPSA: Scaling Back-propagation by Parallel
//! Scan Algorithm"* (Wang, Bai & Pekhimenko, MLSys 2020), reproduced in full:
//!
//! 1. **Reformulation (§3.1).** The gradient recurrence
//!    `∇x_i ← (∂x_{i+1}/∂x_i)ᵀ ∇x_{i+1}` (Equation 3) is an *exclusive scan*
//!    of the non-commutative operator `A ⊙ B = B·A` over the array
//!    `[∇x_n, J_nᵀ, …, J₁ᵀ]` (Equation 5). Types: [`ScanElement`],
//!    [`JacobianScanOp`], [`JacobianChain`].
//! 2. **Scaling (§3.2).** The scan runs under the modified Blelloch schedule
//!    (Algorithm 1, reversed operands in the down-sweep) in `Θ(log n)` steps:
//!    [`bppsa_backward`], with the `Θ(n)`-step [`linear_backward`] baseline.
//! 3. **Sparsity (§3.3–3.4).** Jacobians enter the scan in CSR with
//!    deterministic patterns (via `bppsa-ops`); the §5.2 hybrid schedule
//!    ([`BppsaOptions::hybrid`]) balances tree levels against densifying
//!    products.
//! 4. **Integration.** [`Network`] ties operators into the Equation 1
//!    composition with both backward paths, and [`flops`] reproduces the
//!    Figure 11 static analysis.
//! 5. **Steady state & scale-out.** [`PlannedScan`] compiles the whole
//!    backward pass into a numeric-only program (§3.3 hoisted over the
//!    training run); one reused [`ScanWorkspace`] makes an iteration
//!    allocation-free, and [`WorkspacePool`] / [`BatchedBackward`] fan many
//!    mini-batches of the same compiled plan across the worker pool
//!    concurrently — the serving-shard layer (see `ARCHITECTURE.md`).
//!
//! ## Quickstart
//!
//! ```
//! use bppsa_core::{BppsaOptions, JacobianRepr, Network};
//! use bppsa_ops::{Linear, Relu};
//! use bppsa_tensor::{init::seeded_rng, Tensor, Vector};
//!
//! let mut rng = seeded_rng(0);
//! let mut net = Network::<f64>::new();
//! net.push(Box::new(Linear::new(4, 16, &mut rng)));
//! net.push(Box::new(Relu::new(vec![16])));
//! net.push(Box::new(Linear::new(16, 3, &mut rng)));
//!
//! let tape = net.forward(&Tensor::from_vec(vec![4], vec![0.1, -0.2, 0.3, 0.4]));
//! let seed = Vector::from_vec(vec![1.0, 0.0, -1.0]); // ∇x_n from the loss
//!
//! let bp = net.backward_bp(&tape, &seed);
//! let scan = net.backward_bppsa(&tape, &seed, JacobianRepr::Sparse, BppsaOptions::threaded(4));
//! // §3.5: BPPSA reconstructs BP exactly (up to fp reassociation).
//! assert!(bp.max_abs_diff(&scan) < 1e-10);
//! ```

#![warn(missing_docs)]

mod backward;
mod budget;
mod chain;
mod diagonal;
mod element;
mod network;
mod planned;
mod pool;
mod segmented;

pub mod flops;

pub use backward::{bppsa_backward, linear_backward, BackwardResult, BppsaOptions};
pub use budget::MemoryBudget;
pub use chain::{gradients_from_scan_output, JacobianChain};
pub use diagonal::{
    diagonal_level_tasks, DiagonalKernel, DiagonalMode, DIAGONAL_LOG_SPACE_MIN_LEN,
    DIAGONAL_PARALLEL_MIN_WIDTH,
};
pub use element::{JacobianScanOp, ScanElement};
pub use network::{Gradients, JacobianRepr, Network, Tape};
pub use planned::{
    chain_matches_shape, KernelCounts, Mru, PlanKind, PlannedScan, ScanWorkspace,
    PLAN_CACHE_CAPACITY,
};
// The numeric-kernel selection surface travels with `BppsaOptions::kernel`,
// so consumers of the planned API don't need a direct `bppsa-sparse` dep.
pub use bppsa_sparse::{KernelMode, NumericKernel};
pub use pool::{BatchedBackward, PooledWorkspace, WorkspacePool};
pub use segmented::{balanced_cuts, segments_from_cuts, SegmentedPlan};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ScanElement<f32>>();
        assert_send::<JacobianChain<f32>>();
        assert_send::<BackwardResult<f32>>();
        assert_send::<Gradients<f32>>();
    }
}
