//! # bppsa-sparse — sparse linear algebra for deterministic Jacobian patterns
//!
//! CSR/COO sparse matrices, SpMV, and SpGEMM for the BPPSA reproduction.
//!
//! The paper's §3.3 observes that the Jacobians of convolution, ReLU, and
//! max-pooling are extremely sparse *and* that their guaranteed-zero
//! positions are deterministic, known before training starts. That enables an
//! optimization generic libraries (cuSPARSE) cannot apply: running SpGEMM's
//! symbolic phase once ahead of time and re-executing only the numeric phase
//! every iteration. [`SymbolicProduct`] implements exactly that split;
//! [`spgemm`] is the generic baseline it is ablated against. The numeric
//! phase itself is density-adaptive: plan time resolves a [`KernelMode`] to
//! one of three [`NumericKernel`]s (gather program, planned Gustavson,
//! register-tiled dense-panel microkernel — see [`kernel`]).
//!
//! ## Quick example
//!
//! ```
//! use bppsa_sparse::{spgemm, Csr, SymbolicProduct};
//!
//! let a = Csr::from_diagonal(&[1.0_f32, 2.0]);
//! let b = Csr::from_diagonal(&[3.0_f32, 4.0]);
//!
//! // Generic path: symbolic + numeric every call.
//! let c = spgemm(&a, &b);
//!
//! // Paper's path: plan once, execute numerics many times.
//! let plan = SymbolicProduct::plan(&a.pattern(), &b.pattern());
//! assert_eq!(plan.execute(&a, &b), c);
//! ```

#![warn(missing_docs)]

mod coo;
mod csr;
mod error;
mod pattern;
mod spgemm;

pub mod flops;
pub mod kernel;

pub use coo::Coo;
pub use csr::Csr;
pub use error::CsrError;
pub use kernel::{
    KernelMode, KernelScratch, NumericKernel, KERNEL_DENSE_MIN_COLS, KERNEL_DENSE_MIN_DENSITY,
    KERNEL_GATHER_MAX_MACS_PER_OUT,
};
pub use pattern::SparsityPattern;
pub use spgemm::{spgemm, SymbolicProduct};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Csr<f32>>();
        assert_send_sync::<Coo<f32>>();
        assert_send_sync::<SparsityPattern>();
        assert_send_sync::<SymbolicProduct>();
        assert_send_sync::<CsrError>();
        assert_send_sync::<KernelMode>();
        assert_send_sync::<NumericKernel>();
        assert_send_sync::<KernelScratch<f32>>();
    }
}
