//! A [`BackwardEngine`] runs every planned batch one way: one chain per
//! sample on one plan, with the per-sample partials summed in sample
//! order. So repeated calls return the same gradient bits, a plan with the
//! pooled executor returns the serial plan's bits, and
//! [`BackwardMethod::BppsaFusedPlanned`] (the former fused route's name,
//! kept for the benchmark) runs the same route. Each check runs on the
//! RNN, a 64-layer SSM and a 32768-layer log-space SSM, through the
//! training step, so `train.rs`'s mapping of each variant is checked too.
//!
//! The plan is built with exactly the caller's options: the executor and
//! the segment count reach it like the kernel does. A training step
//! forwards its samples concurrently on the worker pool; its loss and
//! gradients must equal a serial forward's bit for bit. CI also runs this
//! suite under `RUST_TEST_THREADS=1`.

use bppsa_core::{BppsaOptions, DiagonalKernel, KernelMode};
use bppsa_models::train::{rnn_batch_step, ssm_batch_step, BackwardMethod};
use bppsa_models::{BackwardEngine, BitstreamDataset, DiagonalSsm, RnnBatchSample, VanillaRnn};
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

/// Runs the batch route on one engine; `step` trains one batch with a
/// method and returns its gradient's bits.
fn assert_routes_agree(mut step: impl FnMut(BackwardMethod, &mut BackwardEngine<f32>) -> Vec<u32>) {
    let mut engine = BackwardEngine::new();
    let serial = BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial());
    let per_sample = step(serial, &mut engine);
    for call in 1..REPEATS {
        let again = step(serial, &mut engine);
        let differ = mismatches(&again, &per_sample);
        assert_eq!(differ, 0, "per-sample call {call}: {differ} values differ");
    }
    let pooled = BackwardMethod::bppsa_pooled_batched(BppsaOptions::pooled());
    let differ = mismatches(&step(pooled, &mut engine), &per_sample);
    assert_eq!(differ, 0, "pooled-executor plan: {differ} values differ");
    let alias = BackwardMethod::BppsaFusedPlanned {
        opts: BppsaOptions::serial(),
    };
    let differ = mismatches(&step(alias, &mut engine), &per_sample);
    assert_eq!(differ, 0, "BppsaFusedPlanned: {differ} values differ");
    // One plan per executor; the alias reuses the serial plan.
    assert_eq!(engine.plans_built(), 2);
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
    assert_routes_agree(|method, engine| {
        let (_, grads, _) = ssm_batch_step(&ssm, &data, 0..batch_size, method, engine);
        to_bits(&grads.flat())
    });
}

#[test]
fn rnn_routes_agree_bit_for_bit() {
    let (hidden, layers, batch_size) = (20, 64, 6);
    let rnn = VanillaRnn::<f32>::new(1, hidden, 10, &mut seeded_rng(22));
    let data = BitstreamDataset::<f32>::generate(batch_size, layers, 21);
    assert_routes_agree(|method, engine| {
        let (_, grads, _) = rnn_batch_step(&rnn, &data, 0..batch_size, method, engine);
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
    // The kernel shapes the plan, and the executor reaches it too: each
    // distinct set of options plans once, and a repeat re-plans nothing.
    let gather = BppsaOptions::serial().kernel(KernelMode::Gather);
    let pooled_gather = BppsaOptions::pooled().kernel(KernelMode::Gather);
    for opts in [gather, pooled_gather, gather] {
        rnn.backward_bppsa_batch(&batch, opts, &mut engine);
        let counts = engine.plan().expect("per-sample plan").kernel_counts();
        assert!(counts.total() > 0);
        assert_eq!(counts.gather, counts.total(), "{counts:?}");
    }
    assert_eq!(engine.plans_built(), 2);
    rnn.backward_bppsa_batch(&batch, BppsaOptions::serial(), &mut engine);
    assert_eq!(engine.plans_built(), 3);
    let counts = engine.plan().expect("per-sample plan").kernel_counts();
    assert!(
        counts.gather < counts.total(),
        "Auto picks a faster kernel: {counts:?}"
    );

    // The segment count reaches the plan: `bppsa_segmented(2)` on a
    // one-sample batch is the deep-chain benchmark's route.
    let layers = 64;
    let owned = rnn_samples(&rnn, layers, 1);
    let one = rnn_batch(&owned);
    let BackwardMethod::BppsaPooled { opts } = BackwardMethod::bppsa_segmented(2) else {
        unreachable!("bppsa_segmented is the per-sample route")
    };
    let segmented = rnn.backward_bppsa_batch(&one, opts, &mut engine);
    assert_eq!(engine.plan().expect("segmented plan").segments(), 2);
    // Bit for bit with the unsegmented plan of the schedule it derives.
    let depth = opts.segmented_up_levels(layers + 1);
    let hybrid = rnn.backward_bppsa_batch(&one, BppsaOptions::serial().hybrid(depth), &mut engine);
    assert_eq!(engine.plan().expect("hybrid plan").segments(), 1);
    let differ = mismatches(&to_bits(&segmented.flat()), &to_bits(&hybrid.flat()));
    assert_eq!(
        differ, 0,
        "segmented vs hybrid({depth}): {differ} values differ"
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
        |batch| rnn.backward_bppsa_batch(batch, BppsaOptions::serial(), &mut BackwardEngine::new()),
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
        |batch| ssm.backward_bppsa_batch(batch, BppsaOptions::serial(), &mut BackwardEngine::new()),
    );
    assert_eq!(loss.to_bits(), want_loss.to_bits(), "SSM loss");
    let differ = mismatches(&to_bits(&grads.flat()), &to_bits(&want.flat()));
    assert_eq!(differ, 0, "SSM step: {differ} gradient values differ");
}
