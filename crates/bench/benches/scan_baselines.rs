//! Criterion bench: scan algorithm baselines (§3.6's step/work trade-off).
//!
//! Compares, on chains of dense h×h Jacobians:
//! * the linear scan (Θ(n) steps — BP's shape),
//! * the full modified Blelloch scan (Θ(log n) steps, Θ(n) work),
//! * Hillis–Steele (Θ(log n) steps, Θ(n log n) work).
//!
//! On a CPU with few cores the serial Blelloch does ~2× the baseline's FLOPs
//! (matmuls vs matvecs), so wall-clock favors the baseline — the figures'
//! speedups come from worker counts a CPU does not have (see `bppsa-pram`).
//! What this bench pins down is the *work* relationship between the
//! algorithms on identical substrates.

use bppsa_core::{bppsa_backward, linear_backward, BppsaOptions, JacobianChain, ScanElement};
use bppsa_scan::{hillis_steele_exclusive, ScanOp};
use bppsa_tensor::init::{seeded_rng, uniform_matrix, uniform_vector};
use bppsa_tensor::Matrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn chain(t: usize, h: usize) -> JacobianChain<f32> {
    let mut rng = seeded_rng(7);
    let mut chain = JacobianChain::new(uniform_vector(&mut rng, h, 1.0));
    for _ in 0..t {
        chain.push(ScanElement::Dense(uniform_matrix(&mut rng, h, h, 0.5)));
    }
    chain
}

struct MatMulOp;
impl ScanOp<Matrix<f32>> for MatMulOp {
    fn combine(&self, a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
        b.matmul(a)
    }
    fn identity(&self) -> Matrix<f32> {
        Matrix::identity(8)
    }
}

fn bench_scans(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_baselines");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for t in [64usize, 256] {
        let ch = chain(t, 16);
        group.bench_with_input(BenchmarkId::new("linear", t), &ch, |b, ch| {
            b.iter(|| linear_backward(std::hint::black_box(ch)))
        });
        group.bench_with_input(BenchmarkId::new("blelloch_serial", t), &ch, |b, ch| {
            b.iter(|| bppsa_backward(std::hint::black_box(ch), BppsaOptions::serial()))
        });
        group.bench_with_input(BenchmarkId::new("blelloch_pooled", t), &ch, |b, ch| {
            b.iter(|| bppsa_backward(std::hint::black_box(ch), BppsaOptions::pooled()))
        });

        // Hillis–Steele over raw matrices (work-inefficient comparison).
        let mats: Vec<Matrix<f32>> = {
            let mut rng = seeded_rng(9);
            (0..t)
                .map(|_| uniform_matrix(&mut rng, 8, 8, 0.5))
                .collect()
        };
        group.bench_with_input(
            BenchmarkId::new("hillis_steele_8x8", t),
            &mats,
            |b, mats| {
                b.iter(|| {
                    let mut m = mats.clone();
                    hillis_steele_exclusive(&MatMulOp, &mut m);
                    m
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scans);
criterion_main!(benches);
