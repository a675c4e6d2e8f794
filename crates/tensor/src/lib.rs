//! # bppsa-tensor — dense linear algebra substrate
//!
//! Dense scalars, vectors, matrices, and N-d tensors for the BPPSA
//! (back-propagation by parallel scan) reproduction. This crate is the lowest
//! layer of the workspace: everything else — sparse kernels, NN operators,
//! the scan framework, and the models — builds on these types.
//!
//! The design intentionally avoids external linear-algebra crates: the paper
//! is a systems paper about restructuring the *computation* of
//! back-propagation, so owning the kernels end-to-end keeps FLOP accounting
//! and exactness arguments airtight.
//!
//! ## Quick example
//!
//! ```
//! use bppsa_tensor::{Matrix, Vector};
//!
//! // One step of the paper's Equation 3: ∇x_i = (∂x_{i+1}/∂x_i)^T ∇x_{i+1}.
//! let jacobian_t = Matrix::from_rows(&[&[0.5_f64, 0.0], &[0.0, 2.0]]);
//! let grad_next = Vector::from_vec(vec![1.0, 1.0]);
//! let grad = jacobian_t.matvec(&grad_next);
//! assert_eq!(grad.as_slice(), &[0.5, 2.0]);
//! ```

#![warn(missing_docs)]

mod error;
mod matrix;
mod scalar;
mod tensor;
mod vector;

pub mod init;
pub mod panel;

pub use error::ShapeError;
pub use matrix::Matrix;
pub use scalar::Scalar;
pub use tensor::Tensor;
pub use vector::Vector;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Matrix<f32>>();
        assert_send_sync::<Vector<f32>>();
        assert_send_sync::<Tensor<f32>>();
        assert_send_sync::<ShapeError>();
    }

    #[test]
    fn equation3_chain_matches_composed_jacobian() {
        // (J2 J1)^T v == J1^T (J2^T v): the associativity BPPSA relies on.
        let j1t = Matrix::from_rows(&[&[1.0_f64, 2.0], &[3.0, 4.0]]);
        let j2t = Matrix::from_rows(&[&[0.5, -1.0], &[1.5, 0.25]]);
        let v = Vector::from_vec(vec![1.0, -1.0]);
        let step_by_step = j1t.matvec(&j2t.matvec(&v));
        let composed = j1t.matmul(&j2t).matvec(&v);
        assert!(step_by_step.approx_eq(&composed, 1e-12));
    }
}
