//! Criterion bench — the RNN backward pass three ways: BPTT (baseline),
//! BPPSA with the serial executor, and BPPSA on the persistent worker pool
//! (§4.1's workload at CPU scale).

use bppsa_core::BppsaOptions;
use bppsa_models::{BitstreamDataset, VanillaRnn};
use bppsa_tensor::init::seeded_rng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_rnn_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("rnn_backward");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let rnn = VanillaRnn::<f32>::new(1, 20, 10, &mut seeded_rng(1));
    for t in [64usize, 256] {
        let data = BitstreamDataset::<f32>::generate(1, t, 2);
        let sample = data.sample(0);
        let states = rnn.forward(&sample.bits);
        let (_, seed, g_logits) = rnn.loss_and_seed(&states, sample.label);

        group.bench_with_input(BenchmarkId::new("bptt", t), &t, |b, _| {
            b.iter(|| rnn.backward_bptt(&sample.bits, &states, &seed, &g_logits))
        });
        group.bench_with_input(BenchmarkId::new("bppsa_serial", t), &t, |b, _| {
            b.iter(|| {
                rnn.backward_bppsa(
                    &sample.bits,
                    &states,
                    &seed,
                    &g_logits,
                    BppsaOptions::serial(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("bppsa_pooled", t), &t, |b, _| {
            b.iter(|| {
                rnn.backward_bppsa(
                    &sample.bits,
                    &states,
                    &seed,
                    &g_logits,
                    BppsaOptions::pooled(),
                )
            })
        });
        // Chain construction alone (the "prep" cost the paper folds into
        // BPPSA's backward time).
        group.bench_with_input(BenchmarkId::new("chain_build", t), &t, |b, _| {
            b.iter(|| rnn.build_chain(&states, &seed))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rnn_backward);
criterion_main!(benches);
