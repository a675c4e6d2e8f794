//! The training workloads. The end-to-end run drives `train_rnn` /
//! `train_ssm` in closed loops; the traced run replays one step from the
//! models layer's public pieces with spans around each part, then probes
//! the lower layers on the workload's own chains.

use crate::inputs::{train_inputs, TrainInputs};
use crate::probes::{
    batched_execute, batched_mismatches, push_kernel_round, same_bits, AxpyProbe, KernelProbe,
    SerialScan,
};
use crate::stats::{
    median, min_samples_for, percentile, samples_beyond, sorted, supported_tail, windowed_median,
};
use crate::trace::Trace;
use crate::workloads::{Model, Route, TrainSpec, CLASSES, LEARNING_RATE};
use crate::{calibrate_reps, peak_rss_mb, Outcome};
use bppsa_core::{
    BatchedBackward, BppsaOptions, DiagonalKernel, DiagonalMode, JacobianChain, PlannedScan,
};
use bppsa_models::train::{
    rnn_batch_step_cached, ssm_batch_step, train_rnn, train_ssm, BackwardMethod, TrainLog,
};
use bppsa_models::{
    Adam, BitstreamDataset, DiagonalSsm, FusedPlannedState, Optimizer, RnnBatchSample,
    SsmBatchSample, SsmTrainState, VanillaRnn,
};
use bppsa_tensor::init::seeded_rng;
use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Steps of the first, sizing run (it also gives one set-up sample).
const PROBE_STEPS: usize = 4;
/// Timed training runs per process, each from model construction on.
const REPS: usize = 10;
/// One-step runs after each timed run, made only for their set-up sample,
/// so that set-up is sampled across the whole run.
const SETUPS_PER_REP: usize = 2;
/// The step-time tail the training workloads report (p90).
pub const TAIL: u32 = 900;
/// A step's loss matches the `Bp` reference when it differs by at most
/// this much relative to it. Both routes compute the same gradients up to
/// floating-point reassociation, so only rounding may separate them.
const LOSS_RTOL: f64 = 1e-4;

enum Net {
    Rnn(VanillaRnn<f32>),
    Ssm(DiagonalSsm<f32>),
}

impl Net {
    fn new(spec: &TrainSpec, model_seed: u64) -> Self {
        let mut rng = seeded_rng(model_seed);
        match spec.model {
            Model::Rnn => Net::Rnn(VanillaRnn::new(1, spec.hidden, CLASSES, &mut rng)),
            Model::Ssm => Net::Ssm(DiagonalSsm::new(spec.hidden, CLASSES, &mut rng)),
        }
    }

    fn train(
        &mut self,
        spec: &TrainSpec,
        data: &BitstreamDataset<f32>,
        optimizer: &mut Adam<f32>,
        method: BackwardMethod,
        steps: usize,
    ) -> TrainLog {
        let epochs = steps.div_ceil(spec.batches_per_epoch);
        match self {
            Net::Rnn(m) => train_rnn(m, data, optimizer, method, spec.batch, epochs, Some(steps)),
            Net::Ssm(m) => train_ssm(m, data, optimizer, method, spec.batch, epochs, Some(steps)),
        }
    }
}

/// One closed-loop training run from construction on.
struct Rep {
    setup_s: f64,
    log: TrainLog,
}

fn run_rep(spec: &TrainSpec, inputs: &TrainInputs, method: BackwardMethod, steps: usize) -> Rep {
    let start = Instant::now();
    let mut net = Net::new(spec, inputs.model_seed);
    let mut optimizer = Adam::new(LEARNING_RATE);
    let constructed = start.elapsed().as_secs_f64();
    let log = net.train(spec, &inputs.data, &mut optimizer, method, steps);
    Rep {
        setup_s: constructed + log.records[0].wall_s,
        log,
    }
}

/// Step and backward milliseconds of every step after the first.
fn timed_steps(log: &TrainLog) -> (Vec<f64>, Vec<f64>) {
    let r = &log.records;
    let steps = r
        .windows(2)
        .map(|w| (w[1].wall_s - w[0].wall_s) * 1e3)
        .collect();
    let backward = r[1..].iter().map(|x| x.backward_s * 1e3).collect();
    (steps, backward)
}

/// Each step's loss gap to the reference's same step, relative to it.
fn loss_gaps<'a>(log: &'a TrainLog, reference: &'a TrainLog) -> impl Iterator<Item = f64> + 'a {
    log.records
        .iter()
        .zip(&reference.records)
        .map(|(a, b)| (a.loss - b.loss).abs() / b.loss.abs())
}

pub fn end_to_end(spec: &TrainSpec, seed: u64, seconds: f64) -> Outcome {
    let inputs = train_inputs(spec, seed);
    let method = spec.route.method();
    let probe = run_rep(spec, &inputs, method, PROBE_STEPS);
    let mut estimate_ms = median(&timed_steps(&probe.log).0);
    let (mut step_ms, mut backward_ms) = (Vec::new(), Vec::new());
    let (mut reps, mut setup_only) = (Vec::new(), Vec::new());
    for i in 0..REPS {
        // Size each run so the timed steps add up to `seconds`, from the
        // median step so far.
        let left_ms = seconds * 1e3 - step_ms.iter().sum::<f64>();
        let mut steps = (left_ms / (REPS - i) as f64 / estimate_ms).ceil().max(1.0) as usize;
        if i + 1 == REPS {
            steps = steps.max(min_samples_for(TAIL).saturating_sub(step_ms.len()));
        }
        let rep = run_rep(spec, &inputs, method, steps + 1);
        let (s, b) = timed_steps(&rep.log);
        step_ms.extend(s);
        backward_ms.extend(b);
        estimate_ms = median(&step_ms);
        reps.push(rep);
        setup_only.extend((0..SETUPS_PER_REP).map(|_| run_rep(spec, &inputs, method, 1)));
    }
    let rss_mb = peak_rss_mb();
    let runs: Vec<&Rep> = std::iter::once(&probe)
        .chain(&reps)
        .chain(&setup_only)
        .collect();
    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();

    // The reference run is outside every timed phase.
    let longest = runs.iter().map(|r| r.log.records.len()).max().unwrap_or(1);
    let reference = run_rep(spec, &inputs, BackwardMethod::Bp, longest);
    let gaps: Vec<f64> = runs
        .iter()
        .flat_map(|r| loss_gaps(&r.log, &reference.log))
        .collect();
    // A NaN loss fails the check too.
    let failed = gaps
        .iter()
        .filter(|g| g.is_nan() || **g > LOSS_RTOL)
        .count() as u64;
    let attempted = gaps.len() as u64;
    let max_gap = gaps.iter().copied().fold(0.0, f64::max);

    let timed_s = step_ms.iter().sum::<f64>() / 1e3;
    let rate = step_ms.len() as f64 / timed_s;
    let s = sorted(&step_ms);
    let mut out = Outcome::new(attempted, failed);
    out.note(format!(
        "timed steps: {} in {timed_s:.1} s over {REPS} runs (first step of each is set-up); \
         p90 has {} samples beyond it (highest supported: p{}); set-up samples: {}",
        step_ms.len(),
        samples_beyond(step_ms.len(), TAIL),
        supported_tail(step_ms.len(), TAIL),
        setups.len()
    ));
    out.note(format!(
        "loss check vs Bp reference: {failed} of {attempted} steps off by more than \
         {LOSS_RTOL:e} relative; largest gap {max_gap:.3e}"
    ));
    out.set("samples_per_s", spec.batch as f64 * rate);
    out.set("requests_per_s", rate);
    let p50_ms = windowed_median(&step_ms);
    out.set("step_ms_p50", p50_ms);
    out.set("step_ms_p90", percentile(&s, TAIL));
    out.set("backward_ms_p50", windowed_median(&backward_ms));
    out.set("latency_ms_p50", p50_ms);
    out.set("latency_ms_tail", percentile(&s, TAIL));
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", rss_mb);
    out
}

/// The model, its optimizer and its route's persistent plan state.
enum Trainer {
    Rnn(VanillaRnn<f32>, FusedPlannedState<f32>),
    Ssm(DiagonalSsm<f32>, SsmTrainState<f32>),
}

/// Span ids of one traced step.
struct StepSpans {
    step: usize,
    forward: usize,
    backward: usize,
    optimizer: usize,
    bptt: usize,
}

impl Trainer {
    fn new(spec: &TrainSpec, model_seed: u64) -> Self {
        match Net::new(spec, model_seed) {
            Net::Rnn(m) => Trainer::Rnn(m, FusedPlannedState::new()),
            Net::Ssm(m) => Trainer::Ssm(m, SsmTrainState::new()),
        }
    }

    /// One step exactly as `train_rnn`/`train_ssm` take it; returns seconds.
    fn library_step(
        &mut self,
        data: &BitstreamDataset<f32>,
        range: Range<usize>,
        method: BackwardMethod,
        optimizer: &mut Adam<f32>,
    ) -> f64 {
        let start = Instant::now();
        match self {
            Trainer::Rnn(m, state) => {
                let (_, grads, _) = rnn_batch_step_cached(m, data, range, method, state);
                let mut params = m.params();
                optimizer.step(&mut params, &grads.flat());
                m.set_params(&params);
            }
            Trainer::Ssm(m, state) => {
                let (_, grads, _) = ssm_batch_step(m, data, range, method, state);
                let mut params = m.params();
                optimizer.step(&mut params, &grads.flat());
                m.set_params(&params);
            }
        }
        start.elapsed().as_secs_f64()
    }

    /// The same step rebuilt from the models layer's public pieces, with a
    /// span around forward + loss, backward and the optimizer; then the
    /// sequential backward on the same batch as the BPTT base.
    fn traced_step(
        &mut self,
        data: &BitstreamDataset<f32>,
        range: Range<usize>,
        method: BackwardMethod,
        optimizer: &mut Adam<f32>,
        trace: &mut Trace,
        unit: u64,
    ) -> StepSpans {
        let inv_b = 1.0 / range.len() as f32;
        let step = trace.open("models.step", None, unit);
        let forward = trace.open("models.forward", Some(step), unit);
        match self {
            Trainer::Rnn(m, state) => {
                let prepared: Vec<_> = range
                    .map(|i| {
                        let s = data.sample(i);
                        let states = m.forward(&s.bits);
                        let (_, seed, g) = m.loss_and_seed(&states, s.label);
                        (
                            s.bits.as_slice(),
                            states,
                            seed.scaled(inv_b),
                            g.scaled(inv_b),
                        )
                    })
                    .collect();
                let batch: Vec<RnnBatchSample<'_, f32>> = prepared
                    .iter()
                    .map(|(bits, states, seed, g)| (*bits, states, seed.clone(), g.clone()))
                    .collect();
                trace.close(forward);
                let backward = trace.open("models.backward", Some(step), unit);
                let grads = match method {
                    BackwardMethod::BppsaPooled { opts } => {
                        m.backward_bppsa_pooled(&batch, opts, state.pooled_mut())
                    }
                    BackwardMethod::BppsaFusedPlanned { opts } => {
                        m.backward_bppsa_batched_planned(&batch, opts, state)
                    }
                    other => unreachable!("no workload trains with {other:?}"),
                };
                trace.close(backward);
                let opt = trace.open("models.optimizer", Some(step), unit);
                let mut params = m.params();
                optimizer.step(&mut params, &grads.flat());
                m.set_params(&params);
                trace.close(opt);
                trace.close(step);
                let bptt = trace.open("models.bptt", None, unit);
                for (bits, states, seed, g) in &batch {
                    black_box(m.backward_bptt(bits, states, seed, g));
                }
                trace.close(bptt);
                StepSpans {
                    step,
                    forward,
                    backward,
                    optimizer: opt,
                    bptt,
                }
            }
            Trainer::Ssm(m, state) => {
                let prepared: Vec<_> = range
                    .map(|i| {
                        let s = data.sample(i);
                        let states = m.forward(&s.bits);
                        let (_, seed, g) = m.loss_and_seed(&states, s.label);
                        (
                            s.bits.as_slice(),
                            states,
                            seed.scaled(inv_b),
                            g.scaled(inv_b),
                        )
                    })
                    .collect();
                let batch: Vec<SsmBatchSample<'_, f32>> = prepared
                    .iter()
                    .map(|(xs, states, seed, g)| (*xs, states, seed.clone(), g.clone()))
                    .collect();
                trace.close(forward);
                let backward = trace.open("models.backward", Some(step), unit);
                let grads = match method {
                    BackwardMethod::BppsaPooled { opts } => {
                        m.backward_bppsa_pooled(&batch, opts, state.pooled_mut())
                    }
                    other => unreachable!("no SSM workload trains with {other:?}"),
                };
                trace.close(backward);
                let opt = trace.open("models.optimizer", Some(step), unit);
                let mut params = m.params();
                optimizer.step(&mut params, &grads.flat());
                m.set_params(&params);
                trace.close(opt);
                trace.close(step);
                let bptt = trace.open("models.bptt", None, unit);
                for (xs, states, seed, g) in &batch {
                    black_box(m.backward_sequential(xs, states, seed, g));
                }
                trace.close(bptt);
                StepSpans {
                    step,
                    forward,
                    backward,
                    optimizer: opt,
                    bptt,
                }
            }
        }
    }

    /// The chains the route's backward scans for the batch `range`: one
    /// per sample on the pooled route, one fused chain when segmented.
    fn chains(
        &self,
        data: &BitstreamDataset<f32>,
        range: Range<usize>,
        route: Route,
    ) -> Vec<JacobianChain<f32>> {
        let inv_b = 1.0 / range.len() as f32;
        match self {
            Trainer::Rnn(m, _) => {
                let prepared: Vec<_> = range
                    .map(|i| {
                        let s = data.sample(i);
                        let states = m.forward(&s.bits);
                        let (_, seed, g) = m.loss_and_seed(&states, s.label);
                        (
                            s.bits.as_slice(),
                            states,
                            seed.scaled(inv_b),
                            g.scaled(inv_b),
                        )
                    })
                    .collect();
                let batch: Vec<RnnBatchSample<'_, f32>> = prepared
                    .iter()
                    .map(|(bits, states, seed, g)| (*bits, states, seed.clone(), g.clone()))
                    .collect();
                match route {
                    Route::Pooled => batch
                        .chunks(1)
                        .map(|one| m.build_batched_chain(one))
                        .collect(),
                    Route::Segmented(_) => vec![m.build_batched_chain(&batch)],
                }
            }
            Trainer::Ssm(m, _) => range
                .map(|i| {
                    let s = data.sample(i);
                    let states = m.forward(&s.bits);
                    let (_, seed, _) = m.loss_and_seed(&states, s.label);
                    m.build_chain(&states, &seed.scaled(inv_b))
                })
                .collect(),
        }
    }
}

pub fn traced(spec: &TrainSpec, seed: u64, seconds: f64) -> Outcome {
    let inputs = train_inputs(spec, seed);
    let data = &inputs.data;
    let method = spec.route.method();
    let batches: Vec<Range<usize>> = data.batches(spec.batch).collect();
    let mut trainer = Trainer::new(spec, inputs.model_seed);
    let mut optimizer = Adam::new(LEARNING_RATE);
    // Warm: the first step plans the route's chains.
    trainer.library_step(data, batches[0].clone(), method, &mut optimizer);

    let chains = trainer.chains(data, batches[0].clone(), spec.route);
    let plan = Arc::new(PlannedScan::plan(&chains[0], spec.route.plan_options()));
    let pooled = spec.route == Route::Pooled;
    let csr = plan.diagonal_kernel().is_none();
    let mut serial = SerialScan::new(Arc::clone(&plan));
    let expected = serial.results(&chains);
    let batched = pooled.then(|| {
        let default = BatchedBackward::new(Arc::clone(&plan));
        let cap1 = BatchedBackward::with_capacity(Arc::clone(&plan), 1);
        default.prewarm(chains.len());
        cap1.prewarm(1);
        (default, cap1)
    });
    // Segment-parallel execution of the first chain against the same chain
    // planned unsegmented on the pool.
    let mut segmented = csr.then(|| {
        let on_pool = |opts| SerialScan::new(Arc::new(PlannedScan::plan(&chains[0], opts)));
        (
            on_pool(BppsaOptions::pooled().segmented(2)),
            on_pool(BppsaOptions::pooled()),
        )
    });
    let mut diagonal = (!csr).then(|| {
        let forced = |mode| {
            SerialScan::new(Arc::new(PlannedScan::plan(
                &chains[0],
                spec.route.plan_options().diagonal(mode),
            )))
        };
        (forced(DiagonalMode::Linear), forced(DiagonalMode::LogSpace))
    });

    // Correctness of the layer outputs, checked once before the rounds.
    let mut attempted = chains.len() as u64;
    let mut failed = 0u64;
    if let Some((default, cap1)) = &batched {
        attempted += 2 * chains.len() as u64;
        failed += batched_mismatches(default, &chains, &expected) as u64;
        failed += batched_mismatches(cap1, &chains, &expected) as u64;
    }
    if let Some((k2, k1)) = &mut segmented {
        let first = &chains[..1];
        attempted += 1;
        failed += u64::from(!same_bits(&k2.results(first)[0], &k1.results(first)[0]));
    }
    // Kernel and axpy only run where the plan multiplies matrices.
    let mut products = csr.then(|| {
        let mut kernel = KernelProbe::new(&chains[0]);
        attempted += 1;
        failed += u64::from(!kernel.modes_agree());
        let kernel_reps = calibrate_reps(|reps| kernel.run(0, reps));
        let mut axpy = AxpyProbe::<f32>::new(spec.hidden);
        let axpy_reps = calibrate_reps(|reps| axpy.run(reps));
        (vec![(kernel, kernel_reps)], axpy, axpy_reps)
    });
    let mut glue_ms = Vec::new();

    let mut trace = Trace::new();
    let mut out = Outcome::new(0, 0);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    while round < crate::MIN_ROUNDS || Instant::now() < deadline {
        // Training continues in data order: the traced and the untraced
        // step of a round take consecutive batches. Which of the two goes
        // first alternates, so neither always follows the probes below.
        let batch = |i: u64| batches[i as usize % batches.len()].clone();
        let (traced_batch, untraced_batch) = (batch(2 * round), batch(2 * round + 1));
        let mut untraced_s = 0.0;
        if !round.is_multiple_of(2) {
            untraced_s = trainer.library_step(data, untraced_batch.clone(), method, &mut optimizer);
        }
        let spans = trainer.traced_step(
            data,
            traced_batch,
            method,
            &mut optimizer,
            &mut trace,
            round,
        );
        if round.is_multiple_of(2) {
            untraced_s = trainer.library_step(data, untraced_batch, method, &mut optimizer);
        }
        let ms = |id| trace.span(id).duration_ns() as f64 / 1e6;
        let step_ms = ms(spans.step);
        let backward_ms = ms(spans.backward);
        out.push("models.forward_ms", ms(spans.forward));
        out.push("models.backward_ms", backward_ms);
        out.push("models.optimizer_ms", ms(spans.optimizer));
        out.push("models.bptt_ratio", backward_ms / ms(spans.bptt));
        out.push("trace.overhead_ratio", step_ms / (untraced_s * 1e3));

        let serial_s = serial.run(&chains);
        let lower_s = if let Some((default, cap1)) = &batched {
            let d = batched_execute(default, &chains);
            let c = batched_execute(cap1, &chains);
            out.push("batched.execute_ms", d * 1e3);
            out.push("batched.cap1_vs_serial", c / serial_s);
            out.push("batched.default_vs_serial", d / serial_s);
            d
        } else {
            serial_s
        };
        out.push("models.backward_self_ms", backward_ms - lower_s * 1e3);
        let per_chain_us = serial_s * 1e6 / chains.len() as f64;
        if csr {
            out.push("scan.execute_us", per_chain_us);
            let flops = plan.spgemm_flops() as f64 * chains.len() as f64;
            out.push("scan.gflops", flops / serial_s / 1e9);
        } else {
            out.push("diag.execute_us", per_chain_us);
        }
        if let Some((k2, k1)) = &mut segmented {
            let first = &chains[..1];
            out.push("scan.k2_vs_k1", k2.run(first) / k1.run(first));
        }
        if let Some((linear, log)) = &mut diagonal {
            let (l, g) = (linear.run(&chains), log.run(&chains));
            out.push("diag.log_vs_linear", g / l);
        }
        if let Some((kernel, axpy, axpy_reps)) = &mut products {
            push_kernel_round(kernel, &mut out);
            axpy.push_round(&mut out, *axpy_reps);
        }
        glue_ms.push(trace.self_ns(spans.step) as f64 / 1e6);
        round += 1;
    }
    // The step's self time is what forward, backward and the optimizer
    // leave uncovered: it should be next to nothing.
    out.note(format!(
        "rounds: {round}; median step time outside forward/backward/optimizer: {:.4} ms",
        median(&glue_ms)
    ));

    let counts = plan.kernel_counts();
    out.set("trace.rounds", round as f64);
    out.set("scan.plan_ms", plan.build_time().as_secs_f64() * 1e3);
    out.set(
        "scan.workspace_kb",
        plan.workspace_bytes::<f32>() as f64 / 1024.0,
    );
    out.set("scan.segments", plan.segments() as f64);
    if csr {
        out.set("scan.products", plan.planned_products() as f64);
        out.set("scan.flops", plan.spgemm_flops() as f64);
        out.set("scan.kernel_dense", counts.dense as f64);
        out.set("scan.kernel_gustavson", counts.gustavson as f64);
        out.set("scan.kernel_gather", counts.gather as f64);
    } else {
        let log = plan.diagonal_kernel() == Some(DiagonalKernel::LogSpace);
        out.set("diag.log_kernel", f64::from(u8::from(log)));
    }
    out.attempted = attempted;
    out.failed = failed;
    out
}
