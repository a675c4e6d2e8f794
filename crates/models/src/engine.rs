//! One backward engine for every planned batch route.
//!
//! BPPSA has one backward algorithm: scan the Equation 5 chain, then
//! accumulate Equation 2, with the symbolic work hoisted out of training
//! (§3.3). A mini-batch can run it on three schedules, and
//! [`BackwardEngine`] owns all three:
//!
//! * **fused** ([`BackwardMethod::BppsaFusedPlanned`]): the whole batch is
//!   one chain — block-diagonal for dense recurrences, one wide diagonal for
//!   diagonal ones — planned with the caller's options (serial, pooled or
//!   segmented); the plan depends on the batch size;
//! * **per-sample** ([`BackwardMethod::BppsaPooled`]): one chain per
//!   sample, all executing one serial-executor plan concurrently over pooled
//!   workspaces; the plan is batch-size independent, so an epoch-end
//!   remainder batch reuses it;
//! * **served** ([`BackwardMethod::BppsaServed`]): the per-sample chains
//!   submitted as independent requests to a [`BppsaService`] the engine
//!   owns, which coalesces them into batched fan-outs.
//!
//! A model hands the engine three closures: build a template chain for
//! `blocks` samples, refresh sample `k`'s values into block `b` of a chain
//! in place, and turn block `b` of a result into sample `k`'s gradient
//! partial. Chains and executors live in one [`Mru`] keyed by route, the
//! caller's shape key and the plan-relevant options, so a steady-state
//! iteration only refreshes values and executes. On the fused and
//! per-sample routes, fan-out task `i` refreshes chain `i` and then scans it
//! ([`BatchedBackward::refresh_and_execute`]), so the refresh runs on the
//! worker pool too; the served route refreshes every chain before it
//! submits. Partials are computed inside the fan-out and summed in sample
//! order after it ([`sum_in_order`]), so every route returns the same bits.
//! The sum is valid because the paper's optimizers consume the batch sum
//! (§2.2).

use crate::served::ServedSubmitError;
use crate::train::BackwardMethod;
use bppsa_core::{
    BackwardResult, BatchedBackward, BppsaOptions, JacobianChain, Mru, PlannedScan, ScanElement,
};
use bppsa_serve::{BppsaService, ServeConfig, Ticket};
use bppsa_sparse::Csr;
use bppsa_tensor::{Matrix, Scalar, Vector};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Plans, chains and executors for every planned batch route of one model.
///
/// Entries are keyed by the caller's shape key, which must determine the
/// chain structure, so one engine serves one model. Up to
/// [`PLAN_CACHE_CAPACITY`](bppsa_core::PLAN_CACHE_CAPACITY) entries are
/// retained, so a loop alternating a full and a remainder batch on the
/// fused route plans each shape once.
///
/// # Examples
///
/// ```
/// use bppsa_core::BppsaOptions;
/// use bppsa_models::train::BackwardMethod;
/// use bppsa_models::{BackwardEngine, BitstreamDataset, RnnBatchSample, VanillaRnn};
/// use bppsa_tensor::init::seeded_rng;
///
/// let data = BitstreamDataset::<f64>::generate(4, 16, 0);
/// let rnn = VanillaRnn::<f64>::new(1, 6, 10, &mut seeded_rng(1));
/// let prepared: Vec<_> = (0..4)
///     .map(|i| {
///         let s = data.sample(i);
///         let states = rnn.forward(&s.bits);
///         let (_, seed, g_logits) = rnn.loss_and_seed(&states, s.label);
///         (s.bits.as_slice(), states, seed, g_logits)
///     })
///     .collect();
/// let batch: Vec<RnnBatchSample<'_, f64>> = prepared
///     .iter()
///     .map(|(bits, states, seed, g)| (*bits, states, seed.clone(), g.clone()))
///     .collect();
///
/// let mut engine = BackwardEngine::new();
/// let fused = BackwardMethod::bppsa_fused_planned(BppsaOptions::serial());
/// let per_sample = BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial());
/// let a = rnn.backward_bppsa_batch(&batch, fused, &mut engine).unwrap();
/// let b = rnn.backward_bppsa_batch(&batch, per_sample, &mut engine).unwrap();
/// assert_eq!(a.flat(), b.flat()); // same bits on every route
/// assert_eq!(engine.plans_built(), 2);
/// ```
#[derive(Debug, Default)]
pub struct BackwardEngine<S> {
    entries: Mru<Entry<S>>,
    plans_built: usize,
    /// Created by the first served batch, whose size fixes `max_batch`.
    service: Option<BppsaService<S>>,
}

#[derive(Debug)]
struct Entry<S> {
    /// The route as planned: a per-sample route carries the options its
    /// plan was built with, so executor choices never force a re-plan.
    route: BackwardMethod,
    key: (usize, usize),
    /// Samples per chain: the batch size on the fused route, one otherwise.
    blocks: usize,
    /// Refreshable chains, all clones of `chains[0]`: they share its `Arc`
    /// patterns, so every one matches the plan (or lane) by pointer.
    chains: Vec<JacobianChain<S>>,
    exec: Exec<S>,
}

#[derive(Debug)]
enum Exec<S> {
    Batched(BatchedBackward<S>),
    /// One reusable ticket per chain, on the engine's service.
    Served(Vec<Ticket<S>>),
}

/// The [`BackwardEngine`] under its former RNN-state name. Kept only for
/// the benchmark (`perfbench/`), which names it; use [`BackwardEngine`].
pub type FusedPlannedState<S> = BackwardEngine<S>;

/// The [`BackwardEngine`] under its former SSM-state name. Kept only for
/// the benchmark (`perfbench/`), which names it; use [`BackwardEngine`].
pub type SsmTrainState<S> = BackwardEngine<S>;

impl<S: Scalar> BackwardEngine<S> {
    /// An empty engine (plans, and for the served route starts its
    /// service, on first use).
    pub fn new() -> Self {
        Self {
            entries: Mru::default(),
            plans_built: 0,
            service: None,
        }
    }

    /// [`BackwardEngine::scan`] that turns each sample's block of its
    /// result into a partial with `partial(k, result, block)` inside the
    /// fan-out, and returns the partials in sample order.
    pub(crate) fn run<P: Send + Sync>(
        &mut self,
        method: BackwardMethod,
        key: (usize, usize),
        samples: usize,
        build: impl FnOnce(usize) -> JacobianChain<S>,
        refresh: impl Fn(usize, &mut JacobianChain<S>, usize) + Sync,
        partial: impl Fn(usize, &BackwardResult<S>, usize) -> P + Sync,
    ) -> Result<Vec<P>, ServedSubmitError> {
        let slots: Vec<OnceLock<P>> = (0..samples).map(|_| OnceLock::new()).collect();
        self.scan(method, key, samples, build, refresh, &|k, result, block| {
            assert!(
                slots[k].set(partial(k, result, block)).is_ok(),
                "sample {k} delivered twice"
            );
        })?;
        Ok(slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every sample is delivered"))
            .collect())
    }

    /// Refreshes and scans a `samples`-sample batch on `method`'s route,
    /// streaming `consume(k, result, block)` once per sample `k`, where
    /// block `block` of `result` is sample `k`'s. The steady state (same
    /// route, key and options as an earlier call) allocates nothing on the
    /// fused and per-sample routes.
    ///
    /// On a miss, `build(blocks)` makes the template chain for `blocks`
    /// samples (the batch on the fused route, one otherwise); its values
    /// are never read. Every call then runs `refresh(k, chain, block)` to
    /// write sample `k`'s values into block `block` of `chain`: on the fused
    /// and per-sample routes inside the fan-out, by the task that then scans
    /// that chain, and on the served route on the calling thread before the
    /// chains are submitted.
    ///
    /// # Errors
    ///
    /// [`ServedSubmitError`] when the served route's service refuses a
    /// request past its retry budget; the chains are back at rest, so the
    /// batch can be run again. The other routes never fail.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero, if `method` is not one of the three
    /// batch routes, or if an *accepted* served request fails (the owned
    /// service has no breaker, hard deadline or fault injection, so only
    /// an internal bug can fail one).
    pub fn scan(
        &mut self,
        method: BackwardMethod,
        key: (usize, usize),
        samples: usize,
        build: impl FnOnce(usize) -> JacobianChain<S>,
        refresh: impl Fn(usize, &mut JacobianChain<S>, usize) + Sync,
        consume: &(dyn Fn(usize, &BackwardResult<S>, usize) + Sync),
    ) -> Result<(), ServedSubmitError> {
        assert!(samples > 0, "batched backward: empty batch");
        let (route, blocks) = match method {
            BackwardMethod::BppsaFusedPlanned { .. } => (method, samples),
            BackwardMethod::BppsaPooled { opts } => {
                // The fan-out across samples is the parallelism, so the
                // plan is serial and unsegmented; every other option
                // shapes the plan and is kept.
                let serial = BppsaOptions::serial();
                let opts = BppsaOptions {
                    executor: serial.executor,
                    segments: serial.segments,
                    ..opts
                };
                (BackwardMethod::BppsaPooled { opts }, 1)
            }
            BackwardMethod::BppsaServed => (method, 1),
            other => panic!("BackwardEngine: {other:?} is not a batch route"),
        };
        let count = samples / blocks;
        let Self {
            entries,
            plans_built,
            service,
        } = self;
        let (entry, inserted) = entries.find_or_insert_with(
            |e| e.route == route && e.key == key && e.blocks == blocks,
            || {
                let template = build(blocks);
                let exec = match route {
                    BackwardMethod::BppsaFusedPlanned { opts }
                    | BackwardMethod::BppsaPooled { opts } => Exec::Batched(BatchedBackward::new(
                        Arc::new(PlannedScan::plan(&template, opts)),
                    )),
                    _ => Exec::Served(Vec::new()),
                };
                Entry {
                    route,
                    key,
                    blocks,
                    chains: vec![template],
                    exec,
                }
            },
        );
        if inserted && matches!(entry.exec, Exec::Batched(_)) {
            *plans_built += 1;
        }
        while entry.chains.len() < count {
            let clone = entry.chains[0].clone();
            entry.chains.push(clone);
        }
        let chains = &mut entry.chains[..count];
        let refresh_chain = |i: usize, chain: &mut JacobianChain<S>| {
            for block in 0..blocks {
                refresh(i * blocks + block, chain, block);
            }
        };
        match &mut entry.exec {
            Exec::Batched(batched) => {
                // Prewarm on growth too, so a larger batch of a known shape
                // stays allocation-free from its second call on.
                batched.prewarm(count);
                batched.refresh_and_execute(chains, &refresh_chain, &|i, result| {
                    for block in 0..blocks {
                        consume(i * blocks + block, result, block);
                    }
                });
                Ok(())
            }
            Exec::Served(tickets) => {
                for (i, chain) in chains.iter_mut().enumerate() {
                    refresh_chain(i, chain);
                }
                tickets.resize_with(tickets.len().max(count), Ticket::new);
                let service = service.get_or_insert_with(|| {
                    BppsaService::new(ServeConfig {
                        max_batch: samples,
                        // The batch is submitted back to back; the deadline
                        // only flushes batches smaller than `max_batch`.
                        max_delay: Duration::from_micros(100),
                        queue_cap: (2 * samples).max(16),
                        ..ServeConfig::default()
                    })
                });
                submit_and_wait(service, chains, &tickets[..count], consume)
            }
        }
    }

    /// How many plans the engine built: one per fused batch shape and one
    /// per per-sample chain shape (with options), not one per iteration.
    pub fn plans_built(&self) -> usize {
        self.plans_built
    }

    /// Number of retained entries (route, shape and options).
    pub fn cached_plans(&self) -> usize {
        self.entries.len()
    }

    /// Lanes the served route's service built: one per per-sample chain
    /// shape, remainder batches included.
    pub fn lanes_built(&self) -> usize {
        self.service.as_ref().map_or(0, BppsaService::lanes_created)
    }

    /// The plan of the most recently used entry, unless it is served (for
    /// FLOP, kernel and workspace accounting).
    pub fn plan(&self) -> Option<&Arc<PlannedScan>> {
        match &self.entries.last()?.exec {
            Exec::Batched(batched) => Some(batched.plan()),
            Exec::Served(_) => None,
        }
    }

    /// The engine itself. Kept only for the benchmark (`perfbench/`), which
    /// reaches the per-sample route's state through this accessor.
    pub fn pooled_mut(&mut self) -> &mut Self {
        self
    }
}

/// Submits `chains` as independent requests, waits for all of them and
/// streams each result to `consume` on the calling thread, in order. The
/// chains return to their slots on success *and* on error.
fn submit_and_wait<S: Scalar>(
    service: &BppsaService<S>,
    chains: &mut [JacobianChain<S>],
    tickets: &[Ticket<S>],
    consume: &(dyn Fn(usize, &BackwardResult<S>, usize) + Sync),
) -> Result<(), ServedSubmitError> {
    let mut failure = None;
    let mut submitted = 0;
    for (k, (slot, ticket)) in chains.iter_mut().zip(tickets).enumerate() {
        // An empty chain holds the slot while its chain is in flight; it
        // owns no heap memory.
        let chain = std::mem::replace(slot, JacobianChain::new(Vector::zeros(0)));
        match service.submit_retrying(chain, ticket) {
            Ok(()) => submitted += 1,
            Err(e) => {
                failure = Some(ServedSubmitError {
                    index: k,
                    refusal: e.kind(),
                });
                *slot = e.into_chain();
                break;
            }
        }
    }
    // Land everything accepted, even after a refusal, so no request is
    // left in flight behind a returned error.
    for (k, (slot, ticket)) in chains[..submitted].iter_mut().zip(tickets).enumerate() {
        ticket
            .wait()
            .unwrap_or_else(|e| panic!("served backward: request {k} failed: {e}"));
        if failure.is_none() {
            ticket.with_result(|r| consume(k, r, 0));
        }
        *slot = ticket.take_chain();
    }
    failure.map_or(Ok(()), Err)
}

/// Sums per-sample partials in sample order, starting from the first: the
/// one association every route shares, so their sums agree bit for bit.
///
/// # Panics
///
/// Panics if `partials` is empty.
pub(crate) fn sum_in_order<P>(
    partials: impl IntoIterator<Item = P>,
    add: impl Fn(&mut P, &P),
) -> P {
    let mut partials = partials.into_iter();
    let mut sum = partials.next().expect("batched backward: empty batch");
    for partial in partials {
        add(&mut sum, &partial);
    }
    sum
}

/// `m += u·vᵀ` in place: the bits of `m.axpy(1, &u.outer(v))` without the
/// temporary matrix.
///
/// # Panics
///
/// Panics if `m` is not `u.len() × v.len()`.
pub(crate) fn add_outer<S: Scalar>(m: &mut Matrix<S>, u: &[S], v: &[S]) {
    assert_eq!(m.shape(), (u.len(), v.len()), "add_outer: shape mismatch");
    for (row, &ui) in m.as_mut_slice().chunks_exact_mut(v.len()).zip(u) {
        for (r, &vj) in row.iter_mut().zip(v) {
            *r += ui * vj;
        }
    }
}

/// The common sequence length of a batch's samples.
///
/// # Panics
///
/// Panics if `lens` is empty or its lengths differ.
pub(crate) fn common_len(mut lens: impl Iterator<Item = usize>) -> usize {
    let first = lens.next().expect("batched backward: empty batch");
    assert!(
        lens.all(|len| len == first),
        "batched backward: unequal sequence lengths"
    );
    first
}

/// A template chain of `layers` layers, each the block-diagonal of
/// `blocks` copies of `block`'s pattern. Every layer shares one pattern,
/// and the seed and values are zero until refreshed.
pub(crate) fn block_template<S: Scalar>(
    block: &Csr<S>,
    blocks: usize,
    layers: usize,
) -> JacobianChain<S> {
    let pattern = Csr::block_diag(&vec![block; blocks]).pattern();
    let mut chain = JacobianChain::new(Vector::zeros(blocks * block.cols()));
    for _ in 0..layers {
        chain.push(ScanElement::Sparse(Csr::from_pattern_and_values(
            Arc::clone(&pattern),
            vec![S::ZERO; pattern.nnz()],
        )));
    }
    chain
}

/// Writes one sample's values into block `block` of a block-diagonal
/// chain: `seed` into the block's lanes of the chain seed, and
/// `fill(t, values)` into the block's stored values of layer `t`. Every
/// block stores the same number of values contiguously, which holds for
/// the block-diagonal chains of [`VanillaRnn`](crate::VanillaRnn) and
/// [`Gru`](crate::Gru) and the wide diagonal of
/// [`DiagonalSsm`](crate::DiagonalSsm).
///
/// # Panics
///
/// Panics if a layer is not CSR.
pub fn refresh_block<S: Scalar>(
    chain: &mut JacobianChain<S>,
    block: usize,
    seed: &[S],
    mut fill: impl FnMut(usize, &mut [S]),
) {
    let width = seed.len();
    let blocks = chain.seed().len() / width;
    chain.seed_mut().as_mut_slice()[block * width..(block + 1) * width].copy_from_slice(seed);
    for (t, element) in chain.jacobians_mut().iter_mut().enumerate() {
        let ScanElement::Sparse(m) = element else {
            panic!("refresh_block: layer {t} is not CSR")
        };
        let data = m.data_mut();
        let per_block = data.len() / blocks;
        fill(t, &mut data[block * per_block..(block + 1) * per_block]);
    }
}
