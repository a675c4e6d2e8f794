//! Allocation-behavior test for the serving front door: the steady-state
//! request loop — submit a reclaimed chain, coalesce, flush, complete,
//! read — performs **zero heap allocations** end to end, per lane.
//!
//! Every stage is allocation-free by construction once warmed: routing is
//! an MRU hit (vec shuffle), enqueue moves the chain into a pre-reserved
//! ring, the dispatcher reuses its batch scratch, the batched fan-out runs
//! over prewarmed pooled workspaces through the worker pool's reused batch
//! header (asserted zero-alloc by `crates/core/tests/alloc_free.rs`), and
//! completion copies gradients into the ticket's reused result buffer and
//! hands the chain back. This test pins the composition of all of it —
//! producer, dispatcher, and pool workers all run inside the counted
//! region.
//!
//! This file intentionally contains a single `#[test]` so no concurrent
//! test thread can pollute the process-wide counters.

use bppsa_core::{bppsa_backward, BppsaOptions, JacobianChain, ScanElement};
use bppsa_serve::{BppsaService, ServeConfig, Ticket};
use bppsa_sparse::Csr;
use bppsa_tensor::init::{seeded_rng, uniform_vector};
use bppsa_tensor::Matrix;
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

struct CountingAllocator;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if TRACKING.load(Ordering::Relaxed) {
            DEALLOCS.fetch_add(1, Ordering::Relaxed);
        }
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

/// Runs `f` with counting enabled, returning `(allocs, deallocs)`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    DEALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    f();
    TRACKING.store(false, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::SeqCst),
        DEALLOCS.load(Ordering::SeqCst),
    )
}

fn sparse_chain(n: usize, width: usize, seed: u64) -> JacobianChain<f64> {
    let mut rng = seeded_rng(seed);
    let mut chain = JacobianChain::new(uniform_vector(&mut rng, width, 1.0));
    for _ in 0..n {
        let dense = Matrix::from_fn(width, width, |_, _| {
            if rng.random_range(0.0..1.0) < 0.3 {
                rng.random_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        chain.push(ScanElement::Sparse(Csr::from_dense(&dense)));
    }
    chain
}

/// An all-diagonal chain (shared full-diagonal pattern), so the lane's
/// warm-up plan compiles the elementwise fast path.
fn diagonal_chain(n: usize, width: usize, seed: u64) -> JacobianChain<f64> {
    let mut rng = seeded_rng(seed);
    let pattern = Csr::from_diagonal(&vec![1.0f64; width]).pattern();
    let mut chain = JacobianChain::new(uniform_vector(&mut rng, width, 1.0));
    for _ in 0..n {
        let diag: Vec<f64> = (0..width).map(|_| rng.random_range(-1.2..1.2)).collect();
        chain.push(ScanElement::Sparse(Csr::from_pattern_and_values(
            pattern.clone(),
            diag,
        )));
    }
    chain
}

/// Same patterns as `template`, fresh values.
fn sparse_chain_like(template: &JacobianChain<f64>, seed: u64) -> JacobianChain<f64> {
    let mut rng = seeded_rng(seed);
    let mut chain = JacobianChain::new(uniform_vector(&mut rng, template.seed().len(), 1.0));
    for jt in template.jacobians() {
        let ScanElement::Sparse(m) = jt else {
            unreachable!()
        };
        chain.push(ScanElement::Sparse(
            m.map_values(|_| rng.random_range(-1.0..1.0)),
        ));
    }
    chain
}

#[test]
fn steady_state_served_requests_are_allocation_free() {
    const BATCH: usize = 4;
    // The entire overload-robustness stack is armed — feasibility gate,
    // global memory budget, stall watchdog — and the steady state must
    // *still* be allocation-free: the gate is two atomic loads per push,
    // budget accounting only charges on pool growth (all during warm-up),
    // and the watchdog's supervisor thread polls into scratch whose
    // capacity is reserved at spawn. The policies are sized to never
    // actually fire here (µs flushes against ms budgets); what's counted
    // is their always-on bookkeeping cost.
    let budget = std::sync::Arc::new(bppsa_serve::MemoryBudget::new(1 << 30));
    let service = BppsaService::<f64>::new(ServeConfig {
        max_batch: BATCH,
        // Generous delay budget: full batches still flush immediately at
        // max_batch; the slack only keeps the (armed) feasibility gate
        // from refusing µs-scale flushes on a slow machine.
        max_delay: Duration::from_millis(10),
        queue_cap: 16,
        max_lanes: 2,
        shed: bppsa_serve::ShedPolicy {
            feasibility: Some(bppsa_serve::FeasibilityPolicy { min_flushes: 2 }),
            ..bppsa_serve::ShedPolicy::disabled()
        },
        memory: Some(std::sync::Arc::clone(&budget)),
        watchdog: Some(bppsa_serve::WatchdogPolicy {
            stall_budget: Duration::from_secs(5),
            poll_interval: Duration::from_millis(25),
        }),
        ..ServeConfig::default()
    });

    let template = sparse_chain(18, 10, 7);
    let chains: Vec<JacobianChain<f64>> = (0..BATCH)
        .map(|k| sparse_chain_like(&template, 40 + k as u64))
        .collect();
    let expected: Vec<f64> = chains
        .iter()
        .map(|chain| {
            bppsa_backward(chain, BppsaOptions::serial())
                .grads()
                .iter()
                .flat_map(|g| g.as_slice())
                .copied()
                .sum()
        })
        .collect();

    let tickets: Vec<Ticket<f64>> = (0..BATCH).map(|_| Ticket::new()).collect();
    // Pre-sized per-request checksum sink, writable without allocating.
    let sums: Vec<std::sync::Mutex<f64>> = (0..BATCH)
        .map(|_| std::sync::Mutex::new(f64::NAN))
        .collect();

    // One steady-state round: submit every reclaimed chain, wait, read the
    // gradients into the pre-sized sink, reclaim the chains.
    let round = |chains: &mut Vec<Option<JacobianChain<f64>>>| {
        for (k, ticket) in tickets.iter().enumerate() {
            let chain = chains[k].take().expect("chain reclaimed last round");
            service.submit(chain, ticket).expect("service accepting");
        }
        for (k, ticket) in tickets.iter().enumerate() {
            ticket.wait().expect("request served");
            ticket.with_result(|r| {
                let sum: f64 = r.grads().iter().flat_map(|g| g.as_slice()).copied().sum();
                *sums[k].lock().unwrap() = sum;
            });
            chains[k] = Some(ticket.take_chain());
        }
    };

    let mut slots: Vec<Option<JacobianChain<f64>>> = chains.into_iter().map(Some).collect();
    // Warm-up: build the lane (plan + workspaces + dispatcher), size every
    // ticket's result buffer, reach the workspace pool's steady state.
    for _ in 0..3 {
        round(&mut slots);
    }

    let (allocs, deallocs) = counted(|| {
        for _ in 0..3 {
            round(&mut slots);
        }
    });
    assert_eq!(
        (allocs, deallocs),
        (0, 0),
        "steady-state served request rounds must not touch the heap"
    );

    // Still correct after the counted rounds (and the requests really ran:
    // checksums match the generic backward per chain).
    for (k, expect) in expected.iter().enumerate() {
        let got = *sums[k].lock().unwrap();
        assert!(
            (got - expect).abs() < 1e-10,
            "request {k}: checksum {got} vs {expect}"
        );
    }
    assert_eq!(service.lanes(), 1);

    // --- Diagonal-shape lane: an all-diagonal chain routes to a second
    // lane whose warm-up plan (BppsaOptions::serial() → DiagonalMode::Auto)
    // compiles the elementwise fast path. The diagonal program's steady
    // state — dense plane loads, elementwise stages, in-place gradient
    // materialization — must clear the same zero-allocation bar through
    // the whole service loop.
    let diag_template = diagonal_chain(48, 10, 9);
    assert!(
        bppsa_core::PlannedScan::plan(&diag_template, BppsaOptions::serial())
            .diagonal_kernel()
            .is_some(),
        "the lane's warm-up options must compile the diagonal program"
    );
    let diag_chains: Vec<JacobianChain<f64>> = (0..BATCH)
        .map(|k| sparse_chain_like(&diag_template, 70 + k as u64))
        .collect();
    let diag_expected: Vec<f64> = diag_chains
        .iter()
        .map(|chain| {
            bppsa_backward(chain, BppsaOptions::serial())
                .grads()
                .iter()
                .flat_map(|g| g.as_slice())
                .copied()
                .sum()
        })
        .collect();
    let mut diag_slots: Vec<Option<JacobianChain<f64>>> =
        diag_chains.into_iter().map(Some).collect();
    for _ in 0..3 {
        round(&mut diag_slots);
    }
    let (dallocs, ddeallocs) = counted(|| {
        for _ in 0..3 {
            round(&mut diag_slots);
        }
    });
    assert_eq!(
        (dallocs, ddeallocs),
        (0, 0),
        "steady-state diagonal-lane request rounds must not touch the heap"
    );
    for (k, expect) in diag_expected.iter().enumerate() {
        let got = *sums[k].lock().unwrap();
        assert!(
            (got - expect).abs() < 1e-10,
            "diagonal request {k}: checksum {got} vs {expect}"
        );
    }
    assert_eq!(service.lanes(), 2);

    // The armed machinery really was live — the budget was charged by the
    // lanes' pools (and never overrun) and the estimator trained past its
    // gate without refusing anything.
    assert!(budget.peak_reserved() > 0, "pools charged the budget");
    assert!(budget.peak_reserved() <= budget.limit());
    assert!(service
        .metrics()
        .iter()
        .all(|l| l.flush_samples >= 2 && l.infeasible == 0));
    service.shutdown();
}
