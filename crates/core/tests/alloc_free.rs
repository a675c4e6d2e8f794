//! Tier-1 allocation-behavior test: the steady-state planned backward pass
//! must be **zero-allocation** — serial, pooled, and batched-over-a-
//! workspace-pool alike.
//!
//! A counting global allocator wraps `System`; after warm-up, a serial
//! [`PlannedScan::execute_with`] over a reused [`ScanWorkspace`] must
//! perform 0 allocations and 0 deallocations. The pooled executor now
//! publishes batches into the worker pool's reused generation-stamped
//! header, so it is held to the same zero-allocation bar (the old per-
//! fan-out `Arc` header was the last remaining heap traffic). So is
//! [`BatchedBackward`]: prewarmed workspace checkout/checkin plus the
//! compiled numeric program, fanned across the pool, allocate nothing.
//!
//! This file intentionally contains a single `#[test]` so no concurrent
//! test thread can pollute the process-wide counters.

use bppsa_core::{BatchedBackward, BppsaOptions, JacobianChain, PlannedScan, ScanElement};
use bppsa_sparse::Csr;
use bppsa_tensor::init::{seeded_rng, uniform_vector};
use bppsa_tensor::Matrix;
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

/// `n` fully dense `width × width` `f32` layers (every position stored).
fn dense_chain(n: usize, width: usize, seed: u64) -> JacobianChain<f32> {
    let mut rng = seeded_rng(seed);
    let mut chain = JacobianChain::new(uniform_vector(&mut rng, width, 1.0));
    for _ in 0..n {
        let dense = Matrix::from_fn(width, width, |_, _| rng.random_range(-0.3f32..0.3));
        chain.push(ScanElement::Sparse(Csr::from_dense_pattern(&dense)));
    }
    chain
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

/// An all-diagonal chain (every layer a full-diagonal CSR sharing one
/// pattern), so the plan compiles the elementwise fast path.
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

/// Same sparsity patterns as `template` (so the same plan matches), fresh
/// random values.
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

/// Pre-sized per-chain result sink: records a gradient checksum without
/// allocating (so it can run inside the counted region), verified against
/// the generic backward afterwards.
struct CountingSink {
    sums: Vec<std::sync::Mutex<f64>>,
}

impl CountingSink {
    fn new(n: usize) -> Self {
        Self {
            sums: (0..n).map(|_| std::sync::Mutex::new(f64::NAN)).collect(),
        }
    }

    fn record(&self, i: usize, result: &bppsa_core::BackwardResult<f64>) {
        let sum: f64 = result
            .grads()
            .iter()
            .flat_map(|g| g.as_slice())
            .copied()
            .sum();
        *self.sums[i].lock().unwrap() = sum;
    }

    fn verify(&self, chains: &[JacobianChain<f64>]) {
        for (i, chain) in chains.iter().enumerate() {
            let reference = bppsa_core::bppsa_backward(chain, BppsaOptions::serial());
            let expect: f64 = reference
                .grads()
                .iter()
                .flat_map(|g| g.as_slice())
                .copied()
                .sum();
            let got = *self.sums[i].lock().unwrap();
            assert!((got - expect).abs() < 1e-12, "chain {i}: {got} vs {expect}");
        }
    }
}

#[test]
fn steady_state_planned_backward_is_allocation_free() {
    let chain = sparse_chain(24, 12, 7);

    // --- Serial executor: strictly zero heap traffic in the steady state.
    let plan = PlannedScan::plan(&chain, BppsaOptions::serial());
    let mut ws = plan.workspace::<f64>();
    // Warm-up: first calls may grow buffers to steady-state capacity.
    let reference = plan.execute_with(&chain, &mut ws).clone();
    let _ = plan.execute_with(&chain, &mut ws);

    let (allocs, deallocs) = counted(|| {
        let _ = plan.execute_with(&chain, &mut ws);
    });
    assert_eq!(
        (allocs, deallocs),
        (0, 0),
        "steady-state serial execute_with must not touch the heap"
    );

    // Still correct after the counted run.
    let diff = plan.execute_with(&chain, &mut ws).max_abs_diff(&reference);
    assert!(diff < 1e-12, "diff {diff}");

    // --- Pooled executor: the worker pool publishes into a reused
    // generation-stamped batch header, so the pooled steady state is now
    // *strictly* zero-allocation too (the per-fan-out `Arc<ActiveBatch>`
    // was the last remaining heap traffic).
    let pooled = PlannedScan::plan(&chain, BppsaOptions::pooled());
    let mut pws = pooled.workspace::<f64>();
    let _ = pooled.execute_with(&chain, &mut pws); // spawns/warms the pool
    let _ = pooled.execute_with(&chain, &mut pws);

    let (pallocs, pdeallocs) = counted(|| {
        let _ = pooled.execute_with(&chain, &mut pws);
    });
    assert_eq!(
        (pallocs, pdeallocs),
        (0, 0),
        "steady-state pooled execute_with must not touch the heap"
    );
    let diff = pooled
        .execute_with(&chain, &mut pws)
        .max_abs_diff(&reference);
    assert!(diff < 1e-12, "pooled diff {diff}");

    // --- BatchedBackward over a workspace pool: N same-shape mini-batches
    // fanned across the worker pool, each on its own pooled workspace.
    // After prewarming, checkout/checkin (stack pop/push) + the numeric
    // program + the reused pool header allocate nothing.
    let batch_chains: Vec<JacobianChain<f64>> =
        (40..44).map(|s| sparse_chain_like(&chain, s)).collect();
    let batched = BatchedBackward::with_capacity(
        std::sync::Arc::new(PlannedScan::plan(&chain, BppsaOptions::serial())),
        3,
    );
    batched.prewarm(batch_chains.len());
    let sink = CountingSink::new(batch_chains.len());
    batched.execute(&batch_chains, &|i, result| sink.record(i, result));
    batched.execute(&batch_chains, &|i, result| sink.record(i, result));

    let (ballocs, bdeallocs) = counted(|| {
        batched.execute(&batch_chains, &|i, result| sink.record(i, result));
    });
    assert_eq!(
        (ballocs, bdeallocs),
        (0, 0),
        "steady-state BatchedBackward::execute must not touch the heap"
    );
    sink.verify(&batch_chains);

    // --- Diagonal fast path: the elementwise program (linear and log-space
    // kernels alike) is held to the same bar — serial, pooled, and batched
    // over a workspace pool. The log kernel's sign plane and the dense
    // `(n+2)×width` value plane are part of the prebuilt workspace, so the
    // steady state is pure loads/multiplies/stores.
    let diag_chain = diagonal_chain(48, 12, 11);
    for mode in [
        bppsa_core::DiagonalMode::Linear,
        bppsa_core::DiagonalMode::LogSpace,
    ] {
        let reference = bppsa_core::bppsa_backward(&diag_chain, BppsaOptions::serial());
        let tolerance = match mode {
            bppsa_core::DiagonalMode::Linear => 0.0, // bit-for-bit contract
            _ => 1e-9,
        };
        for opts in [BppsaOptions::serial(), BppsaOptions::pooled()] {
            let plan = PlannedScan::plan(&diag_chain, opts.diagonal(mode));
            assert!(plan.diagonal_kernel().is_some(), "must take the fast path");
            let mut ws = plan.workspace::<f64>();
            let _ = plan.execute_with(&diag_chain, &mut ws);
            let _ = plan.execute_with(&diag_chain, &mut ws);
            let (allocs, deallocs) = counted(|| {
                let _ = plan.execute_with(&diag_chain, &mut ws);
            });
            assert_eq!(
                (allocs, deallocs),
                (0, 0),
                "steady-state diagonal ({mode:?}, {:?}) must not touch the heap",
                opts.executor
            );
            let diff = plan
                .execute_with(&diag_chain, &mut ws)
                .max_abs_diff(&reference);
            assert!(diff <= tolerance, "diagonal {mode:?} diff {diff}");
        }
    }

    // Batched diagonal: same-shape value-refreshed chains over the
    // workspace pool, zero heap traffic after prewarm.
    let diag_batch: Vec<JacobianChain<f64>> = (60..64)
        .map(|s| sparse_chain_like(&diag_chain, s))
        .collect();
    let diag_batched = BatchedBackward::with_capacity(
        std::sync::Arc::new(PlannedScan::plan(&diag_chain, BppsaOptions::serial())),
        3,
    );
    assert!(
        diag_batched.plan().diagonal_kernel().is_some(),
        "batched diagonal plan must take the fast path"
    );
    diag_batched.prewarm(diag_batch.len());
    let diag_sink = CountingSink::new(diag_batch.len());
    diag_batched.execute(&diag_batch, &|i, result| diag_sink.record(i, result));
    diag_batched.execute(&diag_batch, &|i, result| diag_sink.record(i, result));
    let (dallocs, ddeallocs) = counted(|| {
        diag_batched.execute(&diag_batch, &|i, result| diag_sink.record(i, result));
    });
    assert_eq!(
        (dallocs, ddeallocs),
        (0, 0),
        "steady-state batched diagonal must not touch the heap"
    );
    diag_sink.verify(&diag_batch);

    // --- Numeric kernel modes: the Gustavson and dense-panel kernels route
    // every execution through workspace-owned KernelScratch (accumulator
    // lanes + packed panels), so forced and Auto kernel selections hold the
    // same zero-allocation bar as the gather program — serial and pooled.
    // Width 16 at 0.3 density clears the dense kernel's width/density
    // gates, so Auto genuinely compiles dense combines here.
    let wide_chain = sparse_chain(12, 16, 9);
    let kernel_reference = bppsa_core::bppsa_backward(&wide_chain, BppsaOptions::serial());
    for kernel in [
        bppsa_core::KernelMode::Auto,
        bppsa_core::KernelMode::Gustavson,
        bppsa_core::KernelMode::Dense,
    ] {
        for opts in [BppsaOptions::serial(), BppsaOptions::pooled()] {
            let plan = PlannedScan::plan(&wide_chain, opts.kernel(kernel));
            if kernel == bppsa_core::KernelMode::Auto {
                assert!(
                    plan.kernel_counts().dense > 0,
                    "Auto must compile dense combines on this chain"
                );
            }
            let mut ws = plan.workspace::<f64>();
            let _ = plan.execute_with(&wide_chain, &mut ws);
            let _ = plan.execute_with(&wide_chain, &mut ws);
            let (allocs, deallocs) = counted(|| {
                let _ = plan.execute_with(&wide_chain, &mut ws);
            });
            assert_eq!(
                (allocs, deallocs),
                (0, 0),
                "steady-state {kernel:?} kernel ({:?}) must not touch the heap",
                opts.executor
            );
            let diff = plan
                .execute_with(&wide_chain, &mut ws)
                .max_abs_diff(&kernel_reference);
            assert!(diff < 1e-12, "kernel {kernel:?} diff {diff}");
        }
    }

    // --- Fully dense chain (the RNN shape): every product runs the dense
    // kernel with full operands and output, which reads `b`'s values as its
    // panel and stores rows straight into the output — so the plan carries
    // no kernel scratch at all (its workspace is exactly the gather plan's,
    // which needs none), and the steady state still allocates nothing.
    let dense_chain = dense_chain(24, 20, 17);
    let dense_reference = bppsa_core::bppsa_backward(&dense_chain, BppsaOptions::serial());
    for opts in [BppsaOptions::serial(), BppsaOptions::pooled()] {
        let plan = PlannedScan::plan(&dense_chain, opts);
        let counts = plan.kernel_counts();
        assert!(
            counts.dense > 0 && counts.dense == counts.total(),
            "a fully dense chain must run every product on the dense kernel: {counts:?}"
        );
        let gather = PlannedScan::plan(&dense_chain, opts.kernel(bppsa_core::KernelMode::Gather));
        assert_eq!(
            plan.workspace_bytes::<f32>(),
            gather.workspace_bytes::<f32>(),
            "full-pattern dense products must allocate no kernel scratch"
        );
        let mut ws = plan.workspace::<f32>();
        let _ = plan.execute_with(&dense_chain, &mut ws);
        let _ = plan.execute_with(&dense_chain, &mut ws);
        let (allocs, deallocs) = counted(|| {
            let _ = plan.execute_with(&dense_chain, &mut ws);
        });
        assert_eq!(
            (allocs, deallocs),
            (0, 0),
            "steady-state fully dense chain ({:?}) must not touch the heap",
            opts.executor
        );
        let diff = plan
            .execute_with(&dense_chain, &mut ws)
            .max_abs_diff(&dense_reference);
        assert!(diff < 1e-3, "fully dense chain diff {diff}");
    }

    // --- Segment-parallel execution: per-segment drivers publish into the
    // pool's preallocated headers, worker groups are computed
    // arithmetically (no carve Vec on the hot path), and every segment's
    // slice walk reuses the same SSA buffers — so segmented plans hold the
    // identical zero-allocation bar, serial and pooled, K=2 and K=4.
    let deep_chain = sparse_chain(64, 12, 13);
    let seg_reference = bppsa_core::bppsa_backward(&deep_chain, BppsaOptions::serial());
    for k in [2usize, 4] {
        for opts in [BppsaOptions::serial(), BppsaOptions::pooled()] {
            let plan = PlannedScan::plan(&deep_chain, opts.segmented(k));
            assert!(
                plan.segments() >= 2,
                "segmentation must engage on a 64-layer chain (k={k})"
            );
            let mut ws = plan.workspace::<f64>();
            let _ = plan.execute_with(&deep_chain, &mut ws);
            let _ = plan.execute_with(&deep_chain, &mut ws);
            let (allocs, deallocs) = counted(|| {
                let _ = plan.execute_with(&deep_chain, &mut ws);
            });
            assert_eq!(
                (allocs, deallocs),
                (0, 0),
                "steady-state segmented (k={k}, {:?}) must not touch the heap",
                opts.executor
            );
            let diff = plan
                .execute_with(&deep_chain, &mut ws)
                .max_abs_diff(&seg_reference);
            assert!(diff < 1e-12, "segmented k={k} diff {diff}");
        }
    }

    // --- Contrast: the allocating execute() path heap-allocates every call
    // (that is exactly what the workspace API removes).
    let (legacy_allocs, _) = counted(|| {
        let _ = plan.execute(&chain);
    });
    assert!(
        legacy_allocs > 0,
        "sanity: the non-workspace path should allocate"
    );
}
