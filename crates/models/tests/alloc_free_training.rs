//! Tier-1 allocation-behavior test for the *training* hot path: after
//! warm-up, a [`BackwardEngine`] scan (in-place chain refresh + planned
//! scan) must be allocation-free on both the fused route and the
//! per-sample route — not just the scan kernels, but the per-iteration
//! chain handling and the fan-out too. The model's Equation 2 accumulation
//! around it must not allocate per timestep: a per-sample-route
//! [`VanillaRnn::backward_bppsa_batch`] call makes as many allocations at
//! `T = 48` as at `T = 24`.
//!
//! Single `#[test]` so no concurrent test thread pollutes the process-wide
//! counters.

use bppsa_core::{BackwardResult, BppsaOptions, JacobianChain};
use bppsa_models::train::BackwardMethod;
use bppsa_models::{refresh_block, BackwardEngine, BitstreamDataset, RnnBatchSample, VanillaRnn};
use bppsa_tensor::init::seeded_rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAllocator;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations of one steady-state per-sample-route
/// [`VanillaRnn::backward_bppsa_batch`] call on `t_len`-step sequences.
fn batch_backward_allocations(rnn: &VanillaRnn<f64>, t_len: usize) -> u64 {
    let data = BitstreamDataset::<f64>::generate(6, t_len, 5);
    let owned: Vec<_> = (0..6)
        .map(|i| {
            let sample = data.sample(i);
            let states = rnn.forward(&sample.bits);
            let (_, seed, g_logits) = rnn.loss_and_seed(&states, sample.label);
            (sample.bits.clone(), states, seed, g_logits)
        })
        .collect();
    let batch: Vec<RnnBatchSample<'_, f64>> = owned
        .iter()
        .map(|(bits, states, seed, g)| (bits.as_slice(), states, seed.clone(), g.clone()))
        .collect();
    let method = BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial());
    let mut engine = BackwardEngine::<f64>::new();
    for _ in 0..2 {
        rnn.backward_bppsa_batch(&batch, method, &mut engine)
            .unwrap();
    }
    ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    let grads = rnn.backward_bppsa_batch(&batch, method, &mut engine);
    TRACKING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    grads.unwrap();
    allocs
}

#[test]
fn steady_state_engine_scan_is_allocation_free() {
    let data = BitstreamDataset::<f64>::generate(12, 24, 3);
    let rnn = VanillaRnn::<f64>::new(1, 10, 10, &mut seeded_rng(4));

    // Prepare one mini-batch outside the counted region (forward passes and
    // seed scaling allocate by design).
    let prepared: Vec<_> = (0..6)
        .map(|i| {
            let sample = data.sample(i);
            let states = rnn.forward(&sample.bits);
            let (_, seed, g_logits) = rnn.loss_and_seed(&states, sample.label);
            (sample.bits.clone(), states, seed, g_logits)
        })
        .collect();
    let batch: Vec<RnnBatchSample<'_, f64>> = prepared
        .iter()
        .map(|(bits, states, seed, g)| (bits.as_slice(), states, seed.clone(), g.clone()))
        .collect();
    let key = (24, rnn.hidden_size());
    let build = |blocks: usize| rnn.build_batched_chain(&batch[..blocks]);
    let refresh = |k: usize, chain: &mut JacobianChain<f64>, block: usize| {
        let (_, states, seed, _) = &batch[k];
        refresh_block(chain, block, seed.as_slice(), |t, values| {
            rnn.fill_hidden_jacobian_values(&states[t], values)
        });
    };
    // Pre-sized sinks: the first gradient of every sample, kept to check
    // the counted run still computed the right values.
    let sinks: Vec<Mutex<f64>> = (0..batch.len()).map(|_| Mutex::new(0.0)).collect();
    let h = rnn.hidden_size();
    let record = |k: usize, result: &BackwardResult<f64>, block: usize| {
        *sinks[k].lock().unwrap() = result.grad_x(1).as_slice()[block * h];
    };

    let mut engine = BackwardEngine::<f64>::new();
    for method in [
        BackwardMethod::bppsa_fused_planned(BppsaOptions::serial()),
        BackwardMethod::bppsa_pooled_batched(BppsaOptions::serial()),
    ] {
        // Warm-up: builds the chains, the plan and the workspaces.
        for _ in 0..2 {
            engine
                .scan(method, key, batch.len(), build, refresh, &record)
                .unwrap();
        }
        let reference: Vec<f64> = sinks.iter().map(|s| *s.lock().unwrap()).collect();
        sinks.iter().for_each(|s| *s.lock().unwrap() = f64::NAN);

        ALLOCS.store(0, Ordering::SeqCst);
        TRACKING.store(true, Ordering::SeqCst);
        let outcome = engine.scan(method, key, batch.len(), build, refresh, &record);
        TRACKING.store(false, Ordering::SeqCst);
        let allocs = ALLOCS.load(Ordering::SeqCst);
        outcome.unwrap();
        assert_eq!(
            allocs, 0,
            "{method:?}: steady-state engine scan (refresh + scan) must not allocate"
        );

        // Still correct after the counted run.
        let counted: Vec<f64> = sinks.iter().map(|s| *s.lock().unwrap()).collect();
        assert_eq!(counted, reference, "{method:?}");
    }
    assert_eq!(engine.plans_built(), 2);

    // The partials allocate their gradient sets, per sample, but nothing
    // per timestep.
    let (short, long) = (
        batch_backward_allocations(&rnn, 24),
        batch_backward_allocations(&rnn, 48),
    );
    assert_eq!(
        short, long,
        "per-sample-route backward_bppsa_batch allocates per timestep"
    );
}
