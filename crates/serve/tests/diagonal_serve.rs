//! Serve-layer differential coverage for the diagonal fast path: lanes are
//! *transparent* — a diagonal-shape lane (whose warm-up plan compiles the
//! elementwise program under the default `DiagonalMode::Auto`) returns the
//! same gradients a caller would get from the serial unplanned executor.
//!
//! Short chains take the linear kernel and are checked **bit for bit**;
//! chains past [`DIAGONAL_LOG_SPACE_MIN_LEN`] take the log-space kernel and
//! are checked against the sequential baseline within a tight relative
//! bound.

use bppsa_core::{
    bppsa_backward, linear_backward, BppsaOptions, DiagonalKernel, JacobianChain, PlannedScan,
    ScanElement, DIAGONAL_LOG_SPACE_MIN_LEN,
};
use bppsa_serve::{BppsaService, ServeConfig, ShedPolicy, Ticket};
use bppsa_sparse::Csr;
use bppsa_tensor::init::{seeded_rng, uniform_vector};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

fn service(max_batch: usize) -> BppsaService<f64> {
    BppsaService::new(ServeConfig {
        max_batch,
        max_delay: Duration::from_micros(200),
        queue_cap: 32,
        max_lanes: 2,
        shed: ShedPolicy::disabled(),
        ..ServeConfig::default()
    })
}

/// An all-diagonal chain over one shared pattern; `coeff` draws each lane
/// coefficient.
fn diagonal_chain(
    rng: &mut StdRng,
    n: usize,
    width: usize,
    coeff: impl Fn(&mut StdRng) -> f64,
) -> JacobianChain<f64> {
    let pattern = Csr::from_diagonal(&vec![1.0f64; width]).pattern();
    let mut chain = JacobianChain::new(uniform_vector(rng, width, 1.0));
    for _ in 0..n {
        let diag: Vec<f64> = (0..width).map(|_| coeff(rng)).collect();
        chain.push(ScanElement::Sparse(Csr::from_pattern_and_values(
            pattern.clone(),
            diag,
        )));
    }
    chain
}

/// Short diagonal chains (linear kernel): every served gradient must equal
/// the serial unplanned executor's **bit for bit** — batching, lane
/// routing, and the elementwise program change nothing observable.
#[test]
fn served_diagonal_lane_is_bit_for_bit_with_serial() {
    let rng = &mut seeded_rng(21);
    let chains: Vec<JacobianChain<f64>> = (0..8)
        .map(|_| {
            diagonal_chain(rng, 64, 9, |r| match r.random_range(0..8usize) {
                0 => 0.0,
                1 => r.random_range(-1e-300..1e-300),
                _ => r.random_range(-1.5..1.5),
            })
        })
        .collect();
    // The lane's warm-up options compile the linear kernel for this shape.
    assert_eq!(
        PlannedScan::plan(&chains[0], BppsaOptions::serial()).diagonal_kernel(),
        Some(DiagonalKernel::Linear)
    );
    let expected: Vec<_> = chains
        .iter()
        .map(|c| bppsa_backward(c, BppsaOptions::serial()))
        .collect();

    let service = service(4);
    let tickets: Vec<Ticket<f64>> = (0..chains.len()).map(|_| Ticket::new()).collect();
    for (chain, ticket) in chains.into_iter().zip(&tickets) {
        service.submit(chain, ticket).expect("service accepting");
    }
    for (k, ticket) in tickets.iter().enumerate() {
        ticket.wait().expect("request served");
        ticket.with_result(|r| {
            assert_eq!(r.grads().len(), expected[k].grads().len());
            for (i, (a, b)) in r.grads().iter().zip(expected[k].grads()).enumerate() {
                for (lane, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "request {k} grad {i} lane {lane}: {x:e} vs {y:e}"
                    );
                }
            }
        });
    }
    assert_eq!(service.lanes(), 1, "one shape, one lane");
    service.shutdown();
}

/// A chain long enough for `Auto` to pick the log-space kernel: the served
/// result stays within 1e-6 relative of the sequential baseline even
/// though the lane batched and re-planned nothing per request.
#[test]
fn served_long_diagonal_lane_takes_log_space_within_tolerance() {
    let rng = &mut seeded_rng(22);
    let n = DIAGONAL_LOG_SPACE_MIN_LEN;
    // Coefficients near ±(1 ± 1e-3): prefix products stay within e^{±~33}.
    let coeff = |r: &mut StdRng| {
        let sign = if r.random::<bool>() { 1.0 } else { -1.0 };
        sign * (1.0 + r.random_range(-1e-3..1e-3))
    };
    let chain = diagonal_chain(rng, n, 2, coeff);
    assert_eq!(
        PlannedScan::plan(&chain, BppsaOptions::serial()).diagonal_kernel(),
        Some(DiagonalKernel::LogSpace)
    );
    let reference = linear_backward(&chain);

    let service = service(1);
    let ticket = Ticket::new();
    service.submit(chain, &ticket).expect("service accepting");
    ticket.wait().expect("request served");
    ticket.with_result(|r| {
        assert_eq!(r.grads().len(), reference.grads().len());
        for (i, (a, b)) in r.grads().iter().zip(reference.grads()).enumerate() {
            for (lane, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                let tol = 1e-6 * x.abs().max(y.abs()) + 1e-280;
                assert!(
                    (x - y).abs() <= tol,
                    "grad {i} lane {lane}: {x:e} vs {y:e} (tol {tol:e})"
                );
            }
        }
    });
    service.shutdown();
}
