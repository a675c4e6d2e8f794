//! One backward engine for every planned mini-batch.
//!
//! BPPSA has one backward algorithm: scan the Equation 5 chain, then
//! accumulate Equation 2, with the symbolic work hoisted out of training
//! (§3.3). [`BackwardEngine`] runs a mini-batch one way: one refreshable
//! one-sample chain per sample, all executing one plan on one
//! [`BatchedBackward`]. The plan is built with exactly the caller's
//! [`BppsaOptions`] (executor, segment count, kernel, diagonal mode and
//! schedule) and does not depend on the batch size, so an epoch-end
//! remainder batch reuses it.
//!
//! A model hands the engine three closures: build a one-sample template
//! chain, refresh sample `k`'s values into a chain in place, and turn
//! sample `k`'s result into its gradient partial. Chains and executors
//! live in one [`Mru`] keyed by the caller's shape key and the options, so
//! a steady-state iteration only refreshes values and executes. Fan-out
//! task `i` refreshes chain `i` and then scans it
//! ([`BatchedBackward::refresh_and_execute`]), so the refresh runs on the
//! worker pool too. Partials are computed inside the fan-out and summed in
//! sample order after it ([`sum_in_order`]), so the batch gradient's bits
//! do not depend on scheduling. The sum is valid because the paper's
//! optimizers consume the batch sum (§2.2).

use bppsa_core::{
    BackwardResult, BatchedBackward, BppsaOptions, JacobianChain, Mru, PlannedScan, ScanElement,
};
use bppsa_sparse::{Csr, SparsityPattern};
use bppsa_tensor::{Matrix, Scalar, Vector};
use std::sync::{Arc, OnceLock};

/// Plans, chains and executors for the planned mini-batches of one model.
///
/// Entries are keyed by the caller's shape key, which must determine the
/// chain structure, so one engine serves one model. Up to
/// [`PLAN_CACHE_CAPACITY`](bppsa_core::PLAN_CACHE_CAPACITY) entries are
/// retained.
///
/// # Examples
///
/// ```
/// use bppsa_core::BppsaOptions;
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
/// let serial = rnn.backward_bppsa_batch(&batch, BppsaOptions::serial(), &mut engine);
/// let pooled = rnn.backward_bppsa_batch(&batch, BppsaOptions::pooled(), &mut engine);
/// assert_eq!(serial.flat(), pooled.flat()); // same bits on every executor
/// rnn.backward_bppsa_batch(&batch[..3], BppsaOptions::serial(), &mut engine);
/// assert_eq!(engine.plans_built(), 2); // one per options, none per batch size
/// ```
#[derive(Debug, Default)]
pub struct BackwardEngine<S> {
    entries: Mru<Entry<S>>,
    plans_built: usize,
}

#[derive(Debug)]
struct Entry<S> {
    key: (usize, usize),
    opts: BppsaOptions,
    /// Refreshable one-sample chains, all clones of `chains[0]`: they share
    /// its `Arc` patterns, so every one matches the plan by pointer.
    chains: Vec<JacobianChain<S>>,
    batched: BatchedBackward<S>,
}

/// The [`BackwardEngine`] under its former RNN-state name. Kept only for
/// the benchmark (`perfbench/`), which names it; use [`BackwardEngine`].
pub type FusedPlannedState<S> = BackwardEngine<S>;

/// The [`BackwardEngine`] under its former SSM-state name. Kept only for
/// the benchmark (`perfbench/`), which names it; use [`BackwardEngine`].
pub type SsmTrainState<S> = BackwardEngine<S>;

impl<S: Scalar> BackwardEngine<S> {
    /// An empty engine (plans on first use).
    pub fn new() -> Self {
        Self {
            entries: Mru::default(),
            plans_built: 0,
        }
    }

    /// [`BackwardEngine::scan`] that turns each sample's result into a
    /// partial with `partial(k, result)` inside the fan-out, and returns
    /// the partials in sample order.
    pub(crate) fn run<P: Send + Sync>(
        &mut self,
        opts: BppsaOptions,
        key: (usize, usize),
        samples: usize,
        build: impl FnOnce() -> JacobianChain<S>,
        refresh: impl Fn(usize, &mut JacobianChain<S>) + Sync,
        partial: impl Fn(usize, &BackwardResult<S>) -> P + Sync,
    ) -> Vec<P> {
        let slots: Vec<OnceLock<P>> = (0..samples).map(|_| OnceLock::new()).collect();
        self.scan(opts, key, samples, build, refresh, &|k, result| {
            assert!(
                slots[k].set(partial(k, result)).is_ok(),
                "sample {k} delivered twice"
            );
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every sample is delivered"))
            .collect()
    }

    /// Refreshes and scans a `samples`-sample batch, one chain per sample
    /// on a plan built with exactly `opts`, streaming `consume(k, result)`
    /// once per sample `k`. The steady state (same key and options as an
    /// earlier call, and no larger batch) allocates nothing.
    ///
    /// On a miss, `build()` makes the one-sample template chain; its values
    /// are never read. Every call then runs `refresh(k, chain)` to write
    /// sample `k`'s values into `chain`, inside the fan-out, by the task
    /// that then scans that chain.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn scan(
        &mut self,
        opts: BppsaOptions,
        key: (usize, usize),
        samples: usize,
        build: impl FnOnce() -> JacobianChain<S>,
        refresh: impl Fn(usize, &mut JacobianChain<S>) + Sync,
        consume: &(dyn Fn(usize, &BackwardResult<S>) + Sync),
    ) {
        assert!(samples > 0, "batched backward: empty batch");
        let (entry, inserted) = self.entries.find_or_insert_with(
            |e| e.opts == opts && e.key == key,
            || {
                let template = build();
                let plan = Arc::new(PlannedScan::plan(&template, opts));
                Entry {
                    key,
                    opts,
                    chains: vec![template],
                    batched: BatchedBackward::new(plan),
                }
            },
        );
        if inserted {
            self.plans_built += 1;
        }
        while entry.chains.len() < samples {
            let clone = entry.chains[0].clone();
            entry.chains.push(clone);
        }
        // Prewarm on growth too, so a larger batch of a known shape stays
        // allocation-free from its second call on.
        entry.batched.prewarm(samples);
        entry
            .batched
            .refresh_and_execute(&mut entry.chains[..samples], &refresh, consume);
    }

    /// How many plans the engine built: one per chain shape and options,
    /// not one per iteration or batch size.
    pub fn plans_built(&self) -> usize {
        self.plans_built
    }

    /// The plan of the most recently used entry (for FLOP, kernel and
    /// workspace accounting).
    pub fn plan(&self) -> Option<&Arc<PlannedScan>> {
        Some(self.entries.last()?.batched.plan())
    }

    /// The engine itself. Kept only for the benchmark (`perfbench/`), which
    /// reaches the per-sample route's state through this accessor.
    pub fn pooled_mut(&mut self) -> &mut Self {
        self
    }
}

/// Sums per-sample partials in sample order, starting from the first: one
/// fixed association, so the sum's bits do not depend on scheduling.
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

/// A one-sample template chain of `layers` CSR layers that all share
/// `pattern`. The seed and values are zero until refreshed.
pub(crate) fn chain_template<S: Scalar>(
    pattern: Arc<SparsityPattern>,
    layers: usize,
) -> JacobianChain<S> {
    let mut chain = JacobianChain::new(Vector::zeros(pattern.cols()));
    for _ in 0..layers {
        chain.push(ScanElement::Sparse(Csr::from_pattern(Arc::clone(&pattern))));
    }
    chain
}

/// Writes one sample's values into a one-sample chain: `seed` into the
/// chain seed, and `fill(t, values)` into the stored values of layer `t`.
///
/// # Panics
///
/// Panics if a layer is not CSR or `seed` is not the chain's width.
pub fn refresh_chain<S: Scalar>(
    chain: &mut JacobianChain<S>,
    seed: &[S],
    mut fill: impl FnMut(usize, &mut [S]),
) {
    chain.seed_mut().as_mut_slice().copy_from_slice(seed);
    for (t, element) in chain.jacobians_mut().iter_mut().enumerate() {
        let ScanElement::Sparse(m) = element else {
            panic!("refresh_chain: layer {t} is not CSR")
        };
        fill(t, m.data_mut());
    }
}
