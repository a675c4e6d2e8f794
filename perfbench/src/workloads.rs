//! The four workloads. README.md records why each was chosen.

use bppsa_core::BppsaOptions;
use bppsa_models::train::BackwardMethod;
use std::time::Duration;

pub const NAMES: [&str; 4] = ["rnn_t1000", "rnn_t16384", "ssm_t32768", "serve_mix"];

#[derive(Debug, Clone, Copy)]
pub enum Workload {
    Train(TrainSpec),
    Serve(ServeSpec),
}

pub fn lookup(name: &str) -> Option<Workload> {
    let train = |model, hidden, seq_len, batch, route, batches_per_epoch| {
        Some(Workload::Train(TrainSpec {
            model,
            hidden,
            seq_len,
            batch,
            route,
            batches_per_epoch,
        }))
    };
    match name {
        "rnn_t1000" => train(Model::Rnn, 20, 1000, 16, Route::Pooled, 8),
        "rnn_t16384" => train(Model::Rnn, 8, 16_384, 1, Route::Segmented(2), 16),
        "ssm_t32768" => train(Model::Ssm, 16, 32_768, 4, Route::Pooled, 8),
        "serve_mix" => Some(Workload::Serve(ServeSpec::MIX)),
        _ => None,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `VanillaRnn<f32>`, one input, 10 classes.
    Rnn,
    /// `DiagonalSsm<f32>`, 10 classes.
    Ssm,
}

/// How a training step's backward pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Per-sample chains fanned out through `BatchedBackward`.
    Pooled,
    /// One fused chain, planned segment-parallel into `k` segments.
    Segmented(usize),
}

impl Route {
    pub fn method(self) -> BackwardMethod {
        match self {
            Route::Pooled => BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial()),
            Route::Segmented(k) => BackwardMethod::bppsa_segmented(k),
        }
    }

    /// The options the route plans its chains with: the pooled route plans
    /// serially and parallelizes across samples.
    pub fn plan_options(self) -> BppsaOptions {
        match self {
            Route::Pooled => BppsaOptions::serial(),
            Route::Segmented(k) => BppsaOptions::pooled().segmented(k),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub model: Model,
    pub hidden: usize,
    pub seq_len: usize,
    pub batch: usize,
    pub route: Route,
    /// Dataset size in batches; training cycles through it in order.
    pub batches_per_epoch: usize,
}

/// Adam's learning rate, as in the paper's RNN experiment.
pub const LEARNING_RATE: f64 = 3e-5;
pub const CLASSES: usize = 10;

impl TrainSpec {
    pub fn samples(&self) -> usize {
        self.batch * self.batches_per_epoch
    }
}

#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Chain depth of each hot shape.
    pub layers: [usize; 3],
    pub width: usize,
    pub density: f64,
    /// Requests the client keeps in flight.
    pub outstanding: usize,
    pub max_batch: usize,
    pub max_delay: Duration,
    pub queue_cap: usize,
}

impl ServeSpec {
    pub const MIX: ServeSpec = ServeSpec {
        layers: [48, 64, 96],
        width: 12,
        density: 0.3,
        outstanding: 32,
        max_batch: 8,
        max_delay: Duration::from_micros(200),
        queue_cap: 64,
    };
}
