//! Diagnostic: raw overhead of the persistent worker pool ([`bppsa_scan::WorkerPool`]).
//!
//! Measures (a) the per-batch barrier cost at several batch widths — this is
//! the per-level synchronization price every pooled scan pays — and (b) the
//! speedup of 24 concurrent 64×64 matmuls over serial execution.
//!
//! Run: `cargo run -p bppsa-bench --example pool_probe --release`

use bppsa_scan::global_pool;
use std::time::Instant;

fn main() {
    let pool = global_pool();
    // Raw barrier overhead: batches of empty jobs. A one-job batch runs
    // inline on the caller and crosses no barrier, so the series starts at 2.
    for jobs_per_batch in [2usize, 8, 24, 128] {
        let t0 = Instant::now();
        let reps = 1000;
        for _ in 0..reps {
            pool.run_indexed(jobs_per_batch, &|_| {});
        }
        println!(
            "{jobs_per_batch:>4} empty jobs/batch: {:.1} µs/batch",
            t0.elapsed().as_secs_f64() / reps as f64 * 1e6
        );
    }
    // Matmul throughput scaling.
    use bppsa_tensor::{
        init::{seeded_rng, uniform_matrix},
        Matrix,
    };
    let mut rng = seeded_rng(0);
    let mats: Vec<Matrix<f32>> = (0..48)
        .map(|_| uniform_matrix(&mut rng, 64, 64, 0.2))
        .collect();
    let t0 = Instant::now();
    for _ in 0..20 {
        for i in 0..24 {
            std::hint::black_box(mats[i].matmul(&mats[i + 24]));
        }
    }
    let serial = t0.elapsed().as_secs_f64() / 20.0;
    let t0 = Instant::now();
    for _ in 0..20 {
        pool.run_indexed(24, &|i| {
            std::hint::black_box(mats[i].matmul(&mats[i + 24]));
        });
    }
    let pooled = t0.elapsed().as_secs_f64() / 20.0;
    println!(
        "24x 64x64 matmuls: serial {:.1} µs vs pooled {:.1} µs ({:.1}x)",
        serial * 1e6,
        pooled * 1e6,
        serial / pooled
    );
}
