//! Training loops with switchable backward paths — the machinery behind the
//! Figure 7 (convergence) and Figure 9 (loss vs wall-clock) experiments.
//!
//! Every loop times the backward portion separately so the harness can
//! report backward-pass and overall speedups the way §5.1 does.

use crate::datasets::{BitstreamDataset, SyntheticCifar};
use crate::engine::{sum_in_order, BackwardEngine};
use crate::optim::Optimizer;
use crate::rnn::{RnnGrads, VanillaRnn};
use crate::ssm::{DiagonalSsm, SsmGrads};
use bppsa_core::{map_indexed, BppsaOptions, JacobianRepr, Network};
use bppsa_ops::SoftmaxCrossEntropy;
use bppsa_tensor::{Scalar, Vector};
use std::ops::Range;
use std::time::Instant;

/// Which backward path a training loop uses.
///
/// [`BackwardMethod::BppsaPooled`] is the batch route of a
/// [`BackwardEngine`], which recurrent loops run through their models'
/// batch methods (e.g. [`VanillaRnn::backward_bppsa_batch`]).
/// Feed-forward loops treat it as [`BackwardMethod::Bppsa`] with sparse
/// Jacobians.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackwardMethod {
    /// Classic back-propagation (the PyTorch-Autograd/cuDNN baseline).
    Bp,
    /// BPPSA: transposed-Jacobian chain + modified Blelloch scan.
    Bppsa {
        /// Scan execution options.
        opts: BppsaOptions,
        /// Jacobian representation.
        repr: JacobianRepr,
    },
    /// The former fused route's name: runs exactly as
    /// [`BackwardMethod::BppsaPooled`] with the same options. Kept only for
    /// the benchmark (`perfbench/`), which matches on it.
    BppsaFusedPlanned {
        /// Scan options, as for [`BackwardMethod::BppsaPooled`].
        opts: BppsaOptions,
    },
    /// The engine's batch route: one chain per sample, all executing one
    /// compiled plan concurrently over a workspace pool. The plan is built
    /// with exactly `opts` and is batch-size independent, so remainder
    /// batches reuse it: the symbolic work is done once per run (§3.3), and
    /// every later step re-executes the numeric-only program over reused,
    /// allocation-free workspaces.
    BppsaPooled {
        /// Scan options of the per-sample plan.
        opts: BppsaOptions,
    },
}

impl BackwardMethod {
    /// BPPSA with sparse Jacobians on the persistent worker pool.
    pub fn bppsa_pooled() -> Self {
        BackwardMethod::Bppsa {
            opts: BppsaOptions::pooled(),
            repr: JacobianRepr::Sparse,
        }
    }

    /// The engine's batch route (recurrent loops only): per-sample scans
    /// of one compiled plan, fanned concurrently over pooled workspaces.
    pub fn bppsa_pooled_batched(opts: BppsaOptions) -> Self {
        BackwardMethod::BppsaPooled { opts }
    }

    /// The batch route for deep chains (recurrent loops only): each
    /// sample's plan is split into `k` exact segments executed concurrently
    /// on worker groups carved from the pool, stitched at schedule-block
    /// interfaces — bit-for-bit identical to the unsegmented plan of the
    /// same schedule. With one sample per batch, the segments get the
    /// whole pool.
    pub fn bppsa_segmented(k: usize) -> Self {
        BackwardMethod::BppsaPooled {
            opts: BppsaOptions::pooled().segmented(k),
        }
    }
}

/// One training iteration's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Iteration index (mini-batch counter across epochs).
    pub iteration: usize,
    /// Mean mini-batch loss.
    pub loss: f64,
    /// Cumulative wall-clock seconds since training started.
    pub wall_s: f64,
    /// Seconds spent in this iteration's backward pass.
    pub backward_s: f64,
}

/// The full log of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainLog {
    /// Per-iteration records, in order.
    pub records: Vec<IterationRecord>,
}

impl TrainLog {
    /// Total wall-clock seconds.
    pub fn total_s(&self) -> f64 {
        self.records.last().map_or(0.0, |r| r.wall_s)
    }

    /// Total seconds spent in backward passes.
    pub fn backward_s(&self) -> f64 {
        self.records.iter().map(|r| r.backward_s).sum()
    }

    /// Final recorded loss.
    pub fn final_loss(&self) -> f64 {
        self.records.last().map_or(f64::NAN, |r| r.loss)
    }

    /// Largest absolute per-iteration loss difference to another log — the
    /// Figure 7 overlap metric.
    ///
    /// # Panics
    ///
    /// Panics if the logs have different lengths.
    pub fn max_loss_gap(&self, other: &TrainLog) -> f64 {
        assert_eq!(
            self.records.len(),
            other.records.len(),
            "log length mismatch"
        );
        self.records
            .iter()
            .zip(&other.records)
            .map(|(a, b)| (a.loss - b.loss).abs())
            .fold(0.0, f64::max)
    }
}

/// Runs `step` on every batch of `batches` for `epochs` epochs, stopping
/// after `max_iterations` steps if given, and logs each step. `step` trains
/// on one batch and returns `(mean loss, backward seconds)`.
fn train_loop(
    batches: Vec<Range<usize>>,
    epochs: usize,
    max_iterations: Option<usize>,
    mut step: impl FnMut(Range<usize>) -> (f64, f64),
) -> TrainLog {
    let mut log = TrainLog::default();
    let start = Instant::now();
    let ranges = (0..epochs).flat_map(|_| batches.iter().cloned());
    for (iteration, range) in ranges
        .take(max_iterations.unwrap_or(usize::MAX))
        .enumerate()
    {
        let (loss, backward_s) = step(range);
        log.records.push(IterationRecord {
            iteration,
            loss,
            wall_s: start.elapsed().as_secs_f64(),
            backward_s,
        });
    }
    log
}

/// Runs one mini-batch step on a sequential network classifier: forward,
/// softmax-CE loss, backward (per `method`), and gradient accumulation.
/// Returns `(mean loss, per-layer param grads, backward seconds)`.
pub fn network_batch_step<S: Scalar>(
    net: &Network<S>,
    images: &[(&bppsa_tensor::Tensor<S>, usize)],
    method: BackwardMethod,
) -> (f64, Vec<Vec<S>>, f64) {
    assert!(!images.is_empty(), "empty batch");
    let inv_b = S::ONE / S::from_usize(images.len());
    let mut total_loss = S::ZERO;
    let mut param_grads: Vec<Vec<S>> = net
        .ops()
        .iter()
        .map(|op| vec![S::ZERO; op.param_len()])
        .collect();
    let mut backward_s = 0.0;

    for &(image, label) in images {
        let tape = net.forward(image);
        let logits = tape.output().to_vector();
        let (loss, grad_logits) = SoftmaxCrossEntropy::loss_and_grad(&logits, label);
        total_loss += loss;
        let seed = grad_logits.scaled(inv_b);

        let t0 = Instant::now();
        let grads = match method {
            BackwardMethod::Bp => net.backward_bp(&tape, &seed),
            BackwardMethod::Bppsa { opts, repr } => net.backward_bppsa(&tape, &seed, repr, opts),
            BackwardMethod::BppsaFusedPlanned { opts } | BackwardMethod::BppsaPooled { opts } => {
                net.backward_bppsa(&tape, &seed, JacobianRepr::Sparse, opts)
            }
        };
        backward_s += t0.elapsed().as_secs_f64();

        for (acc, g) in param_grads.iter_mut().zip(&grads.param_grads) {
            for (a, &v) in acc.iter_mut().zip(g) {
                *a += v;
            }
        }
    }
    ((total_loss * inv_b).to_f64(), param_grads, backward_s)
}

/// Trains a network classifier on synthetic CIFAR with one optimizer per
/// layer, recording losses and wall-clock per iteration.
#[allow(clippy::too_many_arguments)]
pub fn train_network_classifier<S: Scalar>(
    net: &mut Network<S>,
    data: &SyntheticCifar<S>,
    optimizers: &mut [Box<dyn Optimizer<S>>],
    method: BackwardMethod,
    batch_size: usize,
    epochs: usize,
    max_iterations: Option<usize>,
) -> TrainLog {
    assert_eq!(
        optimizers.len(),
        net.num_layers(),
        "one optimizer per layer required"
    );
    let batches = data.batches(batch_size).collect();
    train_loop(batches, epochs, max_iterations, |range| {
        let batch: Vec<(&bppsa_tensor::Tensor<S>, usize)> = range
            .map(|i| {
                let s = data.sample(i);
                (&s.image, s.label)
            })
            .collect();
        let (loss, grads, backward_s) = network_batch_step(net, &batch, method);
        for ((op, opt), g) in net
            .ops_mut()
            .iter_mut()
            .zip(optimizers.iter_mut())
            .zip(&grads)
        {
            if op.param_len() > 0 {
                let mut params = op.params();
                opt.step(&mut params, g);
                op.set_params(&params);
            }
        }
        (loss, backward_s)
    })
}

/// Classification accuracy of a network over a dataset.
pub fn evaluate_network<S: Scalar>(net: &Network<S>, data: &SyntheticCifar<S>) -> f64 {
    let mut correct = 0usize;
    for i in 0..data.len() {
        let s = data.sample(i);
        let tape = net.forward(&s.image);
        if tape.output().to_vector().argmax() == Some(s.label) {
            correct += 1;
        }
    }
    correct as f64 / data.len() as f64
}

/// One prepared sample of a recurrent batch: `(inputs, states, seed,
/// ∇logits)`, the seeds pre-scaled by `1/B`.
type Prepared<'a, S, St> = (&'a [S], &'a St, Vector<S>, Vector<S>);

/// One recurrent mini-batch step: forward and loss per sample (seeds and
/// logit gradients pre-scaled by `1/B`, so the summed gradient is the batch
/// mean), then the timed `backward` over the prepared batch. Returns
/// `(mean loss, grads, backward seconds)`.
///
/// Each sample's forward and loss run as one task on the shared worker pool
/// ([`map_indexed`]); the losses are then summed in sample order on the
/// calling thread, so the step's bits do not depend on the scheduling.
fn recurrent_step<S: Scalar, St: Send, G>(
    data: &BitstreamDataset<S>,
    indices: Range<usize>,
    forward: impl Fn(&[S]) -> St + Sync,
    loss_and_seed: impl Fn(&St, usize) -> (S, Vector<S>, Vector<S>) + Sync,
    backward: impl FnOnce(&[Prepared<'_, S, St>]) -> G,
) -> (f64, G, f64) {
    assert!(!indices.is_empty(), "empty batch");
    let inv_b = S::ONE / S::from_usize(indices.len());
    let forwards = map_indexed(indices.len(), &|k| {
        let sample = data.sample(indices.start + k);
        let states = forward(&sample.bits);
        let (loss, seed, g_logits) = loss_and_seed(&states, sample.label);
        (loss, states, seed.scaled(inv_b), g_logits.scaled(inv_b))
    });
    let mut total_loss = S::ZERO;
    let mut states = Vec::with_capacity(forwards.len());
    let mut seeds = Vec::with_capacity(forwards.len());
    for (loss, st, seed, g_logits) in forwards {
        total_loss += loss;
        states.push(st);
        seeds.push((seed, g_logits));
    }
    let batch: Vec<Prepared<'_, S, St>> = indices
        .zip(&states)
        .zip(seeds)
        .map(|((i, st), (seed, g_logits))| (data.sample(i).bits.as_slice(), st, seed, g_logits))
        .collect();
    let t0 = Instant::now();
    let grads = backward(&batch);
    let backward_s = t0.elapsed().as_secs_f64();
    ((total_loss * inv_b).to_f64(), grads, backward_s)
}

/// Runs one RNN mini-batch step. Returns `(mean loss, summed grads,
/// backward seconds)`; seeds are pre-scaled by `1/B` so the sum is the
/// batch-mean gradient.
///
/// [`BackwardMethod::Bp`] and [`BackwardMethod::Bppsa`] run per sample;
/// the batch route runs on `engine`, which plans once per shape and options
/// across the calls that share it.
pub fn rnn_batch_step<S: Scalar>(
    rnn: &VanillaRnn<S>,
    data: &BitstreamDataset<S>,
    indices: Range<usize>,
    method: BackwardMethod,
    engine: &mut BackwardEngine<S>,
) -> (f64, RnnGrads<S>, f64) {
    let forward = |xs: &[S]| rnn.forward(xs);
    let loss = |states: &_, label| rnn.loss_and_seed(states, label);
    recurrent_step(data, indices, forward, loss, |batch| match method {
        BackwardMethod::Bp => sum_in_order(
            batch
                .iter()
                .map(|(xs, st, seed, g)| rnn.backward_bptt(xs, st, seed, g)),
            RnnGrads::accumulate,
        ),
        BackwardMethod::Bppsa { opts, .. } => sum_in_order(
            batch
                .iter()
                .map(|(xs, st, seed, g)| rnn.backward_bppsa(xs, st, seed, g, opts)),
            RnnGrads::accumulate,
        ),
        BackwardMethod::BppsaFusedPlanned { opts } | BackwardMethod::BppsaPooled { opts } => {
            rnn.backward_bppsa_batch(batch, opts, engine)
        }
    })
}

/// [`rnn_batch_step`] under its former name. Kept only for the benchmark
/// (`perfbench/`), which names it.
pub fn rnn_batch_step_cached<S: Scalar>(
    rnn: &VanillaRnn<S>,
    data: &BitstreamDataset<S>,
    indices: Range<usize>,
    method: BackwardMethod,
    engine: &mut BackwardEngine<S>,
) -> (f64, RnnGrads<S>, f64) {
    rnn_batch_step(rnn, data, indices, method, engine)
}

/// Trains the RNN on the bitstream task with a flat-parameter optimizer
/// (Adam in the paper), recording losses and wall-clock per iteration.
pub fn train_rnn<S: Scalar>(
    rnn: &mut VanillaRnn<S>,
    data: &BitstreamDataset<S>,
    optimizer: &mut dyn Optimizer<S>,
    method: BackwardMethod,
    batch_size: usize,
    epochs: usize,
    max_iterations: Option<usize>,
) -> TrainLog {
    // One engine for the whole run: the batch route does its symbolic work
    // once per shape.
    let mut engine = BackwardEngine::new();
    let batches = data.batches(batch_size).collect();
    train_loop(batches, epochs, max_iterations, |range| {
        let (loss, grads, backward_s) = rnn_batch_step(rnn, data, range, method, &mut engine);
        let mut params = rnn.params();
        optimizer.step(&mut params, &grads.flat());
        rnn.set_params(&params);
        (loss, backward_s)
    })
}

/// Classification accuracy of the RNN over a dataset.
pub fn evaluate_rnn<S: Scalar>(rnn: &VanillaRnn<S>, data: &BitstreamDataset<S>) -> f64 {
    let mut correct = 0usize;
    for i in 0..data.len() {
        let s = data.sample(i);
        let states = rnn.forward(&s.bits);
        let logits = rnn.logits(states.last().expect("nonempty"));
        if logits.argmax() == Some(s.label) {
            correct += 1;
        }
    }
    correct as f64 / data.len() as f64
}

/// Runs one [`DiagonalSsm`] mini-batch step on the bitstream task, like
/// [`rnn_batch_step`]: [`BackwardMethod::Bp`] runs
/// [`DiagonalSsm::backward_sequential`] and [`BackwardMethod::Bppsa`]
/// [`DiagonalSsm::backward_bppsa`] per sample; the batch route runs
/// [`DiagonalSsm::backward_bppsa_batch`] on `engine`, on the planner's
/// diagonal fast path.
pub fn ssm_batch_step<S: Scalar>(
    ssm: &DiagonalSsm<S>,
    data: &BitstreamDataset<S>,
    indices: Range<usize>,
    method: BackwardMethod,
    engine: &mut BackwardEngine<S>,
) -> (f64, SsmGrads<S>, f64) {
    let forward = |xs: &[S]| ssm.forward(xs);
    let loss = |states: &_, label| ssm.loss_and_seed(states, label);
    recurrent_step(data, indices, forward, loss, |batch| match method {
        BackwardMethod::Bp => sum_in_order(
            batch
                .iter()
                .map(|(xs, st, seed, g)| ssm.backward_sequential(xs, st, seed, g)),
            SsmGrads::accumulate,
        ),
        BackwardMethod::Bppsa { opts, .. } => sum_in_order(
            batch
                .iter()
                .map(|(xs, st, seed, g)| ssm.backward_bppsa(xs, st, seed, g, opts)),
            SsmGrads::accumulate,
        ),
        BackwardMethod::BppsaFusedPlanned { opts } | BackwardMethod::BppsaPooled { opts } => {
            ssm.backward_bppsa_batch(batch, opts, engine)
        }
    })
}

/// Trains the SSM on the bitstream task with a flat-parameter optimizer,
/// recording losses and wall-clock per iteration (the
/// [`train_rnn`]-shaped loop for the diagonal-recurrence workload).
pub fn train_ssm<S: Scalar>(
    ssm: &mut DiagonalSsm<S>,
    data: &BitstreamDataset<S>,
    optimizer: &mut dyn Optimizer<S>,
    method: BackwardMethod,
    batch_size: usize,
    epochs: usize,
    max_iterations: Option<usize>,
) -> TrainLog {
    let mut engine = BackwardEngine::new();
    let batches = data.batches(batch_size).collect();
    train_loop(batches, epochs, max_iterations, |range| {
        let (loss, grads, backward_s) = ssm_batch_step(ssm, data, range, method, &mut engine);
        let mut params = ssm.params();
        optimizer.step(&mut params, &grads.flat());
        ssm.set_params(&params);
        (loss, backward_s)
    })
}

/// Seeds an optimizer per network layer (helper for
/// [`train_network_classifier`]).
pub fn sgd_per_layer<S: Scalar>(
    net: &Network<S>,
    lr: f64,
    momentum: f64,
) -> Vec<Box<dyn Optimizer<S>>> {
    (0..net.num_layers())
        .map(|_| Box::new(crate::optim::Sgd::new(lr, momentum)) as Box<dyn Optimizer<S>>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lenet::lenet_tiny;
    use crate::optim::Adam;
    use bppsa_tensor::init::seeded_rng;

    #[test]
    fn tiny_lenet_loss_decreases_with_bp() {
        let mut net = lenet_tiny::<f32>(&mut seeded_rng(0));
        let data = SyntheticCifar::<f32>::generate(64, 8, 0.1, 1);
        let mut opts = sgd_per_layer(&net, 0.03, 0.9);
        let log =
            train_network_classifier(&mut net, &data, &mut opts, BackwardMethod::Bp, 16, 25, None);
        let first = log.records[0].loss;
        let last = log.final_loss();
        assert!(
            last < first * 0.8,
            "loss did not decrease: {first} → {last}"
        );
    }

    #[test]
    fn bp_and_bppsa_training_losses_overlap() {
        // Figure 7 in miniature: identical seeds → overlapping loss curves.
        let data = SyntheticCifar::<f32>::generate(32, 8, 0.2, 2);
        let run = |method: BackwardMethod| {
            let mut net = lenet_tiny::<f32>(&mut seeded_rng(3));
            let mut opts = sgd_per_layer(&net, 0.02, 0.9);
            train_network_classifier(&mut net, &data, &mut opts, method, 8, 3, None)
        };
        let bp = run(BackwardMethod::Bp);
        let scan = run(BackwardMethod::Bppsa {
            opts: BppsaOptions::serial(),
            repr: JacobianRepr::Sparse,
        });
        let gap = bp.max_loss_gap(&scan);
        assert!(gap < 1e-3, "loss curves diverged by {gap}");
    }

    #[test]
    fn rnn_training_loss_decreases() {
        let data = BitstreamDataset::<f32>::generate(64, 24, 4);
        let mut rnn = VanillaRnn::<f32>::new(1, 12, 10, &mut seeded_rng(5));
        let mut opt = Adam::new(0.01);
        let log = train_rnn(&mut rnn, &data, &mut opt, BackwardMethod::Bp, 16, 12, None);
        assert!(
            log.final_loss() < log.records[0].loss,
            "{} → {}",
            log.records[0].loss,
            log.final_loss()
        );
    }

    #[test]
    fn rnn_bp_and_bppsa_produce_same_training_trajectory() {
        let data = BitstreamDataset::<f32>::generate(24, 16, 6);
        let run = |method: BackwardMethod| {
            let mut rnn = VanillaRnn::<f32>::new(1, 8, 10, &mut seeded_rng(7));
            let mut opt = Adam::new(0.003);
            train_rnn(&mut rnn, &data, &mut opt, method, 8, 4, None)
        };
        let bp = run(BackwardMethod::Bp);
        let scan = run(BackwardMethod::bppsa_pooled());
        assert!(bp.max_loss_gap(&scan) < 1e-3);
    }

    #[test]
    fn segmented_training_matches_bptt_on_deep_chains() {
        // A longer unroll hands the segment stitcher real schedule blocks
        // to split; the trajectory must still track BPTT exactly as
        // closely as the unsegmented planned path does.
        let data = BitstreamDataset::<f32>::generate(12, 48, 83);
        let run = |method: BackwardMethod| {
            let mut rnn = VanillaRnn::<f32>::new(1, 6, 10, &mut seeded_rng(84));
            let mut opt = Adam::new(0.005);
            train_rnn(&mut rnn, &data, &mut opt, method, 6, 3, None)
        };
        let bptt = run(BackwardMethod::Bp);
        let segmented = run(BackwardMethod::bppsa_segmented(2));
        assert!(bptt.max_loss_gap(&segmented) < 1e-3);

        // The deep-chain route really requests a segmented pooled plan.
        let BackwardMethod::BppsaPooled { opts } = BackwardMethod::bppsa_segmented(4) else {
            unreachable!()
        };
        assert_eq!(opts.segments, 4);
    }

    #[test]
    fn pooled_batched_training_matches_bptt_and_plans_once_with_remainder() {
        // The steady-state path (Fig. 9 shape): the same trajectory as
        // BPTT, with the symbolic phase hoisted out of the whole run.
        // 20 samples at batch 6 → per-epoch batches of 6, 6, 6, 2. The
        // per-sample plan is batch-size independent, so the remainder
        // batch reuses the full batch's plan: one plan total.
        let data = BitstreamDataset::<f32>::generate(20, 12, 91);
        let run = |method: BackwardMethod| {
            let mut rnn = VanillaRnn::<f32>::new(1, 6, 10, &mut seeded_rng(92));
            let mut opt = Adam::new(0.005);
            train_rnn(&mut rnn, &data, &mut opt, method, 6, 3, None)
        };
        let bptt = run(BackwardMethod::Bp);
        let pooled = run(BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial()));
        assert!(bptt.max_loss_gap(&pooled) < 1e-3);

        let rnn = VanillaRnn::<f32>::new(1, 6, 10, &mut seeded_rng(93));
        let mut state = BackwardEngine::<f32>::new();
        let method = BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial());
        for _epoch in 0..3 {
            for range in data.batches(6).collect::<Vec<_>>() {
                let _ = rnn_batch_step(&rnn, &data, range, method, &mut state);
            }
        }
        assert_eq!(state.plans_built(), 1);
    }

    #[test]
    fn ssm_training_loss_decreases() {
        let data = BitstreamDataset::<f32>::generate(64, 24, 105);
        let mut ssm = DiagonalSsm::<f32>::new(12, 10, &mut seeded_rng(106));
        let mut opt = Adam::new(0.01);
        let log = train_ssm(&mut ssm, &data, &mut opt, BackwardMethod::Bp, 16, 12, None);
        assert!(
            log.final_loss() < log.records[0].loss,
            "{} → {}",
            log.records[0].loss,
            log.final_loss()
        );
    }

    #[test]
    fn ssm_training_methods_share_the_trajectory() {
        // The diagonal-recurrence workload through every backward path:
        // identical loss trajectories (every path computes the same scan).
        let data = BitstreamDataset::<f32>::generate(20, 24, 101);
        let run = |method: BackwardMethod| {
            let mut ssm = DiagonalSsm::<f32>::new(8, 10, &mut seeded_rng(102));
            let mut opt = Adam::new(0.01);
            train_ssm(&mut ssm, &data, &mut opt, method, 6, 3, None)
        };
        let sequential = run(BackwardMethod::Bp);
        for method in [
            BackwardMethod::bppsa_pooled(),
            BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial()),
            BackwardMethod::bppsa_pooled_batched(BppsaOptions::pooled()),
        ] {
            let gap = sequential.max_loss_gap(&run(method));
            assert!(gap < 1e-3, "{method:?} diverged by {gap}");
        }
    }

    #[test]
    fn ssm_batched_runs_stay_on_one_diagonal_plan() {
        // 20 samples at batch 6 → per-epoch batches of 6, 6, 6, 2. The
        // per-sample chain shape is batch-size independent, so the run
        // plans once, and that plan compiled the diagonal fast path.
        let data = BitstreamDataset::<f32>::generate(20, 24, 103);
        let ssm = DiagonalSsm::<f32>::new(8, 10, &mut seeded_rng(104));
        let method = BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial());
        let mut state = BackwardEngine::<f32>::new();
        for _epoch in 0..3 {
            for range in data.batches(6).collect::<Vec<_>>() {
                let _ = ssm_batch_step(&ssm, &data, range, method, &mut state);
            }
        }
        assert_eq!(state.plans_built(), 1);
        let plan = state.plan().expect("planned");
        assert!(plan.diagonal_kernel().is_some());
    }

    #[test]
    fn max_iterations_caps_the_run() {
        let data = BitstreamDataset::<f32>::generate(64, 8, 8);
        let mut rnn = VanillaRnn::<f32>::new(1, 6, 10, &mut seeded_rng(9));
        let mut opt = Adam::new(0.01);
        let log = train_rnn(
            &mut rnn,
            &data,
            &mut opt,
            BackwardMethod::Bp,
            8,
            100,
            Some(5),
        );
        assert_eq!(log.records.len(), 5);
    }

    #[test]
    fn evaluate_rnn_learns_above_chance() {
        // Short training on an easy (long-sequence) task beats 10% chance.
        let data = BitstreamDataset::<f32>::generate(60, 64, 10);
        let mut rnn = VanillaRnn::<f32>::new(1, 16, 10, &mut seeded_rng(11));
        let mut opt = Adam::new(0.01);
        let _ = train_rnn(&mut rnn, &data, &mut opt, BackwardMethod::Bp, 12, 30, None);
        let acc = evaluate_rnn(&rnn, &data);
        assert!(acc > 0.2, "accuracy {acc} not above chance");
    }
}
