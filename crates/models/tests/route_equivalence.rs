//! The batch routes of one [`BackwardEngine`] are one algorithm on three
//! schedules, so they must return the same gradient bits: the fused route
//! (one block-diagonal or wide-diagonal chain), the per-sample route (one
//! chain per sample over pooled workspaces) and the served route (one
//! request per sample). Each route computes per-sample partials and sums
//! them in sample order, so repeated calls are deterministic too.
//!
//! Served lanes at or above [`LANE_SEGMENT_MIN_LAYERS`] plan a segmented
//! schedule of their own, so the served route is compared only below it.
//! A training step forwards its samples concurrently on the worker pool;
//! its loss and gradients must equal a serial forward's bit for bit.
//! CI also runs this suite under `RUST_TEST_THREADS=1`.

use bppsa_core::{BppsaOptions, DiagonalKernel, KernelMode};
use bppsa_models::train::{rnn_batch_step, ssm_batch_step, BackwardMethod};
use bppsa_models::{
    BackwardEngine, BitstreamDataset, DiagonalSsm, RnnBatchSample, SsmBatchSample, VanillaRnn,
};
use bppsa_serve::LANE_SEGMENT_MIN_LAYERS;
use bppsa_tensor::init::seeded_rng;
use bppsa_tensor::Vector;

/// Repeated per-sample calls that must all return the first call's bits.
const REPEATS: usize = 20;

/// Owned forward artifacts of one sample: inputs, states, and the seed and
/// logit gradient pre-scaled by `1/B`.
type Owned<St> = (Vec<f32>, St, Vector<f32>, Vector<f32>);

fn to_bits(grads: &[f32]) -> Vec<u32> {
    grads.iter().map(|g| g.to_bits()).collect()
}

fn mismatches(a: &[u32], b: &[u32]) -> usize {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Runs every route on one engine; `run` returns the batch gradient's bits.
fn assert_routes_agree(
    layers: usize,
    mut run: impl FnMut(BackwardMethod, &mut BackwardEngine<f32>) -> Vec<u32>,
) {
    let mut engine = BackwardEngine::new();
    let per_sample_route = BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial());
    let per_sample = run(per_sample_route, &mut engine);
    for call in 1..REPEATS {
        let again = run(per_sample_route, &mut engine);
        let differ = mismatches(&again, &per_sample);
        assert_eq!(differ, 0, "per-sample call {call}: {differ} values differ");
    }
    for opts in [BppsaOptions::serial(), BppsaOptions::pooled()] {
        let fused = run(BackwardMethod::bppsa_fused_planned(opts), &mut engine);
        let differ = mismatches(&fused, &per_sample);
        assert_eq!(
            differ, 0,
            "fused ({:?}): {differ} values differ",
            opts.executor
        );
    }
    if layers < LANE_SEGMENT_MIN_LAYERS {
        let served = run(BackwardMethod::bppsa_served(), &mut engine);
        let differ = mismatches(&served, &per_sample);
        assert_eq!(differ, 0, "served: {differ} values differ");
        assert_eq!(engine.lanes_built(), 1);
    }
    // One per-sample plan, and one fused plan per executor.
    assert_eq!(engine.plans_built(), 3);
}

fn rnn_samples(rnn: &VanillaRnn<f32>, layers: usize, batch: usize) -> Vec<Owned<Vec<Vector<f32>>>> {
    let data = BitstreamDataset::<f32>::generate(batch, layers, 21);
    let inv_b = 1.0 / batch as f32;
    (0..batch)
        .map(|i| {
            let s = data.sample(i);
            let states = rnn.forward(&s.bits);
            let (_, seed, g_logits) = rnn.loss_and_seed(&states, s.label);
            (
                s.bits.clone(),
                states,
                seed.scaled(inv_b),
                g_logits.scaled(inv_b),
            )
        })
        .collect()
}

fn rnn_batch(owned: &[Owned<Vec<Vector<f32>>>]) -> Vec<RnnBatchSample<'_, f32>> {
    owned
        .iter()
        .map(|(xs, states, seed, g)| (xs.as_slice(), states, seed.clone(), g.clone()))
        .collect()
}

fn ssm_routes_agree(layers: usize) {
    let (hidden, batch_size) = (16, 4);
    let ssm = DiagonalSsm::<f32>::new(hidden, 10, &mut seeded_rng(31));
    let data = BitstreamDataset::<f32>::generate(batch_size, layers, 32);
    let inv_b = 1.0 / batch_size as f32;
    let owned: Vec<_> = (0..batch_size)
        .map(|i| {
            let s = data.sample(i);
            let states = ssm.forward(&s.bits);
            let (_, seed, g_logits) = ssm.loss_and_seed(&states, s.label);
            (
                s.bits.clone(),
                states,
                seed.scaled(inv_b),
                g_logits.scaled(inv_b),
            )
        })
        .collect();
    let batch: Vec<SsmBatchSample<'_, f32>> = owned
        .iter()
        .map(|(xs, states, seed, g)| (xs.as_slice(), states, seed.clone(), g.clone()))
        .collect();
    assert_routes_agree(layers, |method, engine| {
        let grads = ssm.backward_bppsa_batch(&batch, method, engine).unwrap();
        to_bits(&grads.flat())
    });
}

#[test]
fn rnn_routes_agree_bit_for_bit() {
    let (hidden, layers, batch_size) = (20, 64, 6);
    let rnn = VanillaRnn::<f32>::new(1, hidden, 10, &mut seeded_rng(22));
    let owned = rnn_samples(&rnn, layers, batch_size);
    let batch = rnn_batch(&owned);
    assert_routes_agree(layers, |method, engine| {
        let grads = rnn.backward_bppsa_batch(&batch, method, engine).unwrap();
        to_bits(&grads.flat())
    });
}

#[test]
fn ssm_routes_agree_bit_for_bit() {
    ssm_routes_agree(64);
}

#[test]
fn long_ssm_routes_agree_bit_for_bit_in_log_space() {
    let layers = 32_768;
    // The per-sample chains are long enough for the log-space kernel.
    let ssm = DiagonalSsm::<f32>::new(16, 10, &mut seeded_rng(33));
    let states = ssm.forward(&vec![1.0; layers]);
    let (_, seed, _) = ssm.loss_and_seed(&states, 0);
    let plan =
        bppsa_core::PlannedScan::plan(&ssm.build_chain(&states, &seed), BppsaOptions::serial());
    assert_eq!(plan.diagonal_kernel(), Some(DiagonalKernel::LogSpace));
    ssm_routes_agree(layers);
}

#[test]
fn per_sample_route_plans_with_every_plan_option() {
    let rnn = VanillaRnn::<f32>::new(1, 8, 10, &mut seeded_rng(41));
    let owned = rnn_samples(&rnn, 16, 3);
    let batch = rnn_batch(&owned);
    let mut engine = BackwardEngine::new();
    // The executor and the segment count are the fan-out's business: they
    // neither reach the per-sample plan nor force a re-plan. The kernel
    // shapes the plan and is kept.
    for opts in [
        BppsaOptions::serial().kernel(KernelMode::Gather),
        BppsaOptions::pooled()
            .segmented(2)
            .kernel(KernelMode::Gather),
    ] {
        let method = BackwardMethod::bppsa_pooled_batched(opts);
        rnn.backward_bppsa_batch(&batch, method, &mut engine)
            .unwrap();
        let plan = engine.plan().expect("per-sample plan");
        let counts = plan.kernel_counts();
        assert!(counts.total() > 0);
        assert_eq!(counts.gather, counts.total(), "{counts:?}");
        assert_eq!(plan.segments(), 1);
    }
    assert_eq!(engine.plans_built(), 1);

    let method = BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial());
    rnn.backward_bppsa_batch(&batch, method, &mut engine)
        .unwrap();
    assert_eq!(engine.plans_built(), 2);
    let counts = engine.plan().expect("per-sample plan").kernel_counts();
    assert!(
        counts.gather < counts.total(),
        "Auto picks a faster kernel: {counts:?}"
    );
}

/// A batch step's mean loss and gradient bits, computed serially from the
/// models' public pieces: `forward` and `loss_and_seed` per sample in
/// order, seeds scaled by `1/B`, then `backward` over the batch.
fn serial_step<St, G>(
    data: &BitstreamDataset<f32>,
    forward: impl Fn(&[f32]) -> St,
    loss_and_seed: impl Fn(&St, usize) -> (f32, Vector<f32>, Vector<f32>),
    backward: impl FnOnce(&[(&[f32], &St, Vector<f32>, Vector<f32>)]) -> G,
) -> (f64, G) {
    let inv_b = 1.0 / data.len() as f32;
    let states: Vec<St> = (0..data.len())
        .map(|i| forward(&data.sample(i).bits))
        .collect();
    let mut total_loss = 0.0_f32;
    let batch: Vec<_> = states
        .iter()
        .enumerate()
        .map(|(i, st)| {
            let s = data.sample(i);
            let (loss, seed, g_logits) = loss_and_seed(st, s.label);
            total_loss += loss;
            (
                s.bits.as_slice(),
                st,
                seed.scaled(inv_b),
                g_logits.scaled(inv_b),
            )
        })
        .collect();
    (f64::from(total_loss * inv_b), backward(&batch))
}

#[test]
fn batch_steps_match_a_serial_forward_bit_for_bit() {
    let route = BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial());
    let data = BitstreamDataset::<f32>::generate(6, 48, 51);

    let rnn = VanillaRnn::<f32>::new(1, 12, 10, &mut seeded_rng(52));
    let (loss, grads, _) = rnn_batch_step(&rnn, &data, 0..6, route, &mut BackwardEngine::new());
    let (want_loss, want) = serial_step(
        &data,
        |xs| rnn.forward(xs),
        |st, label| rnn.loss_and_seed(st, label),
        |batch| {
            rnn.backward_bppsa_batch(batch, route, &mut BackwardEngine::new())
                .unwrap()
        },
    );
    assert_eq!(loss.to_bits(), want_loss.to_bits(), "RNN loss");
    let differ = mismatches(&to_bits(&grads.flat()), &to_bits(&want.flat()));
    assert_eq!(differ, 0, "RNN step: {differ} gradient values differ");

    let ssm = DiagonalSsm::<f32>::new(16, 10, &mut seeded_rng(53));
    let (loss, grads, _) = ssm_batch_step(&ssm, &data, 0..6, route, &mut BackwardEngine::new());
    let (want_loss, want) = serial_step(
        &data,
        |xs| ssm.forward(xs),
        |st, label| ssm.loss_and_seed(st, label),
        |batch| {
            ssm.backward_bppsa_batch(batch, route, &mut BackwardEngine::new())
                .unwrap()
        },
    );
    assert_eq!(loss.to_bits(), want_loss.to_bits(), "SSM loss");
    let differ = mismatches(&to_bits(&grads.flat()), &to_bits(&want.flat()));
    assert_eq!(differ, 0, "SSM step: {differ} gradient values differ");
}
