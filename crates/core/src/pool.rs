//! Concurrent batched backward: a pool of workspaces sharing one compiled
//! plan.
//!
//! [`PlannedScan`] already hoists the whole backward pass's symbolic work
//! out of the training loop (§3.3), and one [`ScanWorkspace`] makes a single
//! iteration allocation-free. A serving or training shard, however, runs
//! *many* mini-batches of the same shape at once — and they should all
//! execute the **same** compiled program, not re-plan or serialize on one
//! workspace. This module supplies that layer:
//!
//! * [`WorkspacePool`] — an [`Arc<PlannedScan>`]-shared pool of workspaces
//!   with checkout/checkin semantics: a mutex-guarded free stack that grows
//!   on demand up to a cap and blocks (briefly) when every workspace is in
//!   flight. Checkouts are exclusive: a workspace is owned by exactly one
//!   [`PooledWorkspace`] guard at a time.
//! * [`BatchedBackward`] — the front end: fan `N` chains (mini-batches)
//!   across the shared [`WorkerPool`](bppsa_scan::WorkerPool), each task
//!   checking a workspace out, running the numeric-only
//!   [`PlannedScan::execute_with`], and handing the result to a caller
//!   callback before checkin. After [`BatchedBackward::prewarm`], the
//!   steady state performs **zero heap allocations** end to end (asserted
//!   by `crates/core/tests/alloc_free.rs`).
//!   [`BatchedBackward::refresh_and_execute`] also hands task `i` chain `i`
//!   to refresh in place before it scans, so per-chain preparation runs in
//!   the fan-out instead of ahead of it.
//! * [`map_indexed`] — the same worker pool for work that is not a scan:
//!   runs one task per index and returns the results in index order (the
//!   models layer forwards a mini-batch's samples with it).
//!
//! ```
//! use bppsa_core::{BatchedBackward, BppsaOptions, JacobianChain, PlannedScan, ScanElement};
//! use bppsa_sparse::Csr;
//! use bppsa_tensor::Vector;
//! use std::sync::Arc;
//!
//! // Four mini-batches with the same structure (values differ).
//! let chains: Vec<JacobianChain<f64>> = (0..4)
//!     .map(|k| {
//!         let mut chain = JacobianChain::new(Vector::from_vec(vec![1.0 + k as f64, -1.0]));
//!         chain.push(ScanElement::Sparse(Csr::from_diagonal(&[2.0, 0.5 + k as f64])));
//!         chain.push(ScanElement::Sparse(Csr::from_diagonal(&[1.5, 3.0])));
//!         chain
//!     })
//!     .collect();
//!
//! // Plan once, share via Arc, execute all batches over pooled workspaces.
//! let plan = Arc::new(PlannedScan::plan(&chains[0], BppsaOptions::serial()));
//! let batched = BatchedBackward::<f64>::new(Arc::clone(&plan));
//! let results = batched.execute_collect(&chains);
//! assert_eq!(results.len(), 4);
//! assert_eq!(results[1].grad_x(2).as_slice(), &[2.0, -1.0]); // ∇x_n = seed
//! ```

use crate::backward::BackwardResult;
use crate::budget::MemoryBudget;
use crate::chain::JacobianChain;
use crate::planned::{PlannedScan, ScanWorkspace};
use bppsa_scan::{global_pool, SendPtr, Slot};
use bppsa_tensor::Scalar;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How often a budget-blocked checkout re-polls for headroom. Only reached
/// under budget exhaustion with zero owned workspaces — never on the
/// steady-state path.
const BUDGET_RETRY: Duration = Duration::from_millis(5);

/// An [`Arc<PlannedScan>`]-shared pool of [`ScanWorkspace`]s with exclusive
/// checkout/checkin, growing on demand up to a fixed cap.
///
/// The pool is the bridge between "one plan" and "many concurrent
/// executions": every checked-out workspace was built by
/// [`PlannedScan::workspace`] from the same plan, so any thread may run
/// [`PlannedScan::execute_with`] on its checkout while other threads do the
/// same on theirs. When all `capacity` workspaces are in flight, further
/// checkouts block until one is returned — backpressure instead of
/// unbounded memory.
///
/// # Examples
///
/// ```
/// use bppsa_core::{BppsaOptions, JacobianChain, PlannedScan, ScanElement, WorkspacePool};
/// use bppsa_sparse::Csr;
/// use bppsa_tensor::Vector;
/// use std::sync::Arc;
///
/// let mut chain = JacobianChain::new(Vector::from_vec(vec![1.0_f64, 2.0]));
/// chain.push(ScanElement::Sparse(Csr::from_diagonal(&[3.0, 4.0])));
///
/// let plan = Arc::new(PlannedScan::plan(&chain, BppsaOptions::serial()));
/// let pool = WorkspacePool::<f64>::new(Arc::clone(&plan), 2);
///
/// let mut ws = pool.checkout(); // grows the pool: 0 → 1 workspaces
/// let grads = plan.execute_with(&chain, &mut ws);
/// assert_eq!(grads.grads().len(), 1);
/// drop(ws); // checkin: the workspace is reusable by the next checkout
/// assert_eq!(pool.available(), 1);
/// ```
#[derive(Debug)]
pub struct WorkspacePool<S> {
    plan: Arc<PlannedScan>,
    state: Mutex<PoolState<S>>,
    returned: Condvar,
    capacity: usize,
    /// Optional global ledger every workspace creation reserves against;
    /// `None` preserves the pre-budget unbounded-by-others behavior.
    budget: Option<Arc<MemoryBudget>>,
    /// Byte footprint of one workspace of this plan, charged per creation.
    ws_bytes: usize,
}

#[derive(Debug)]
struct PoolState<S> {
    /// Free stack: LIFO keeps recently-used (cache-warm) workspaces on top.
    free: Vec<(usize, ScanWorkspace<S>)>,
    /// Workspaces created so far; grows to `capacity`, never shrinks.
    created: usize,
}

impl<S: Scalar> WorkspacePool<S> {
    /// An empty pool over `plan`, growing on demand to at most `capacity`
    /// workspaces.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(plan: Arc<PlannedScan>, capacity: usize) -> Self {
        Self::with_budget(plan, capacity, None)
    }

    /// [`WorkspacePool::new`] charging every workspace creation against a
    /// shared [`MemoryBudget`]. Each created workspace reserves
    /// [`PlannedScan::workspace_bytes`] up front; growth that the budget
    /// refuses falls back to blocking checkout (reusing owned workspaces)
    /// and [`WorkspacePool::try_checkout`] returns `None`. The whole
    /// reservation is released when the pool drops.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_budget(
        plan: Arc<PlannedScan>,
        capacity: usize,
        budget: Option<Arc<MemoryBudget>>,
    ) -> Self {
        assert!(capacity > 0, "WorkspacePool: capacity must be non-zero");
        let ws_bytes = plan.workspace_bytes::<S>();
        Self {
            plan,
            state: Mutex::new(PoolState {
                free: Vec::with_capacity(capacity),
                created: 0,
            }),
            returned: Condvar::new(),
            capacity,
            budget,
            ws_bytes,
        }
    }

    /// The plan every pooled workspace was built from.
    pub fn plan(&self) -> &Arc<PlannedScan> {
        &self.plan
    }

    /// Maximum number of workspaces the pool will ever hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Workspaces allocated so far (free or checked out).
    pub fn created(&self) -> usize {
        self.lock().created
    }

    /// Workspaces currently available for checkout without growing.
    pub fn available(&self) -> usize {
        self.lock().free.len()
    }

    /// The budget this pool charges, if any.
    pub fn budget(&self) -> Option<&Arc<MemoryBudget>> {
        self.budget.as_ref()
    }

    /// Byte footprint one workspace of this plan reserves when created.
    pub fn workspace_bytes(&self) -> usize {
        self.ws_bytes
    }

    /// Charges the budget for one workspace creation; vacuously true when
    /// no budget is configured.
    fn reserve_workspace(&self) -> bool {
        match &self.budget {
            Some(b) => b.try_reserve(self.ws_bytes),
            None => true,
        }
    }

    /// Allocates workspaces up front so that steady-state checkouts never
    /// allocate: afterwards at least `min(count, capacity)` exist — unless
    /// the budget runs out first, in which case prewarm stops early
    /// (best-effort: warm-up must degrade, not fail, under memory
    /// pressure).
    pub fn prewarm(&self, count: usize) {
        loop {
            // Allocate outside the lock; `created` is bumped first so
            // concurrent prewarms/checkouts never exceed the cap.
            let id = {
                let mut st = self.lock();
                if st.created >= count.min(self.capacity) {
                    return;
                }
                if !self.reserve_workspace() {
                    return;
                }
                st.created += 1;
                st.created - 1
            };
            let ws = self.plan.workspace::<S>();
            let mut st = self.lock();
            st.free.push((id, ws));
            drop(st);
            self.returned.notify_one();
        }
    }

    /// Checks a workspace out, growing the pool if under the cap (and
    /// within the budget) and blocking until a checkin otherwise. The
    /// returned guard checks the workspace back in on drop.
    ///
    /// With a budget configured, refused growth degrades to the same
    /// blocking path as a pool at capacity: existing workspaces are reused
    /// as they return. Only a pool that owns *no* workspace yet (nothing
    /// can ever be checked in) parks on the budget instead, re-attempting
    /// the reservation as other pools release.
    pub fn checkout(&self) -> PooledWorkspace<'_, S> {
        let mut st = self.lock();
        loop {
            if let Some((id, ws)) = st.free.pop() {
                return PooledWorkspace {
                    pool: self,
                    slot: Some((id, ws)),
                };
            }
            if st.created < self.capacity {
                if self.reserve_workspace() {
                    let id = st.created;
                    st.created += 1;
                    drop(st); // allocate the new workspace outside the lock
                    return PooledWorkspace {
                        pool: self,
                        slot: Some((id, self.plan.workspace::<S>())),
                    };
                }
                if st.created == 0 {
                    // No workspace exists and the budget refused the
                    // first: a checkin can never wake us, so wait for a
                    // budget release and retry.
                    drop(st);
                    if let Some(b) = &self.budget {
                        b.wait_for_release(BUDGET_RETRY);
                    }
                    st = self.lock();
                    continue;
                }
                // Budget-refused growth with owned workspaces in flight:
                // fall through and block on a checkin, re-polling so a
                // budget release can still unblock growth.
                let (g, _) = self
                    .returned
                    .wait_timeout(st, BUDGET_RETRY)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                st = g;
                continue;
            }
            st = self
                .returned
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Non-blocking [`WorkspacePool::checkout`]: `None` when every
    /// workspace is in flight and the pool is at capacity (or the budget
    /// refuses the growth).
    pub fn try_checkout(&self) -> Option<PooledWorkspace<'_, S>> {
        let mut st = self.lock();
        if let Some((id, ws)) = st.free.pop() {
            return Some(PooledWorkspace {
                pool: self,
                slot: Some((id, ws)),
            });
        }
        if st.created < self.capacity && self.reserve_workspace() {
            let id = st.created;
            st.created += 1;
            drop(st);
            return Some(PooledWorkspace {
                pool: self,
                slot: Some((id, self.plan.workspace::<S>())),
            });
        }
        None
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState<S>> {
        // Workspace state is value-only (no invariants to poison): a panic
        // in a holder just returns its workspace late or never.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn checkin(&self, id: usize, ws: ScanWorkspace<S>) {
        let mut st = self.lock();
        debug_assert!(st.free.len() < self.capacity, "checkin overflow");
        st.free.push((id, ws));
        drop(st);
        self.returned.notify_one();
    }
}

impl<S> Drop for WorkspacePool<S> {
    fn drop(&mut self) {
        if let Some(budget) = &self.budget {
            let created = self
                .state
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .created;
            budget.release(created * self.ws_bytes);
        }
    }
}

/// Exclusive ownership of one pooled [`ScanWorkspace`] — derefs to the
/// workspace, checks it back in on drop.
#[derive(Debug)]
pub struct PooledWorkspace<'p, S: Scalar> {
    pool: &'p WorkspacePool<S>,
    slot: Option<(usize, ScanWorkspace<S>)>,
}

impl<S: Scalar> PooledWorkspace<'_, S> {
    /// The pool-stable identity of this workspace (`0..created()`), useful
    /// for asserting checkout exclusivity in tests.
    pub fn id(&self) -> usize {
        self.slot.as_ref().expect("workspace present").0
    }
}

impl<S: Scalar> Deref for PooledWorkspace<'_, S> {
    type Target = ScanWorkspace<S>;
    fn deref(&self) -> &ScanWorkspace<S> {
        &self.slot.as_ref().expect("workspace present").1
    }
}

impl<S: Scalar> DerefMut for PooledWorkspace<'_, S> {
    fn deref_mut(&mut self) -> &mut ScanWorkspace<S> {
        &mut self.slot.as_mut().expect("workspace present").1
    }
}

impl<S: Scalar> Drop for PooledWorkspace<'_, S> {
    fn drop(&mut self) {
        if let Some((id, ws)) = self.slot.take() {
            self.pool.checkin(id, ws);
        }
    }
}

/// Concurrent batched backward over one shared plan: fans `N` mini-batch
/// chains across the scan worker pool, each on its own pooled workspace.
///
/// This is the serving-shard shape the ROADMAP targets: one compiled
/// program (`Arc<PlannedScan>`), `K` reusable workspaces, unbounded
/// requests. The symbolic phase ran once at plan time; each request is
/// numeric-only; and after [`BatchedBackward::prewarm`] the steady state
/// allocates nothing — the worker pool's batch header is reused (see
/// [`bppsa_scan::WorkerPool::run_indexed`]) and workspace checkout is a
/// stack pop.
///
/// [`BatchedBackward::execute_collect`] is the convenience entry point;
/// per-result streaming without the collection allocation goes through
/// [`BatchedBackward::execute`]. [`BatchedBackward::refresh_and_execute`]
/// streams the same way but lets task `i` refresh chain `i` in place before
/// scanning it, so the per-chain refresh runs inside the fan-out (the
/// models' `BackwardEngine` trains through it):
///
/// ```
/// # use bppsa_core::{BatchedBackward, BppsaOptions, JacobianChain, PlannedScan, ScanElement};
/// # use bppsa_sparse::Csr;
/// # use bppsa_tensor::Vector;
/// # use std::sync::Arc;
/// # let chains: Vec<JacobianChain<f64>> = (0..3).map(|_| {
/// #     let mut c = JacobianChain::new(Vector::from_vec(vec![1.0, 2.0]));
/// #     c.push(ScanElement::Sparse(Csr::from_diagonal(&[3.0, 4.0])));
/// #     c
/// # }).collect();
/// let plan = Arc::new(PlannedScan::plan(&chains[0], BppsaOptions::serial()));
/// let batched = BatchedBackward::<f64>::new(plan);
/// batched.prewarm(chains.len());
///
/// let norms: Vec<std::sync::Mutex<f64>> = chains.iter().map(|_| Default::default()).collect();
/// batched.execute(&chains, &|i, result| {
///     // Called concurrently, once per chain, while workspace `i` is held.
///     *norms[i].lock().unwrap() = result.grad_x(1).as_slice().iter().sum();
/// });
/// assert!(norms.iter().all(|n| *n.lock().unwrap() != 0.0));
/// ```
#[derive(Debug)]
pub struct BatchedBackward<S> {
    pool: WorkspacePool<S>,
}

impl<S: Scalar> BatchedBackward<S> {
    /// A batched executor over `plan`, sized so every scan worker (plus the
    /// caller) can hold a workspace without blocking.
    pub fn new(plan: Arc<PlannedScan>) -> Self {
        Self::with_capacity(plan, global_pool().size() + 1)
    }

    /// A batched executor with an explicit workspace cap — `capacity`
    /// bounds memory: at most `capacity * plan.workspace_bytes()` of buffer
    /// payload, with excess batches waiting for a checkin.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(plan: Arc<PlannedScan>, capacity: usize) -> Self {
        Self::with_capacity_budgeted(plan, capacity, None)
    }

    /// [`BatchedBackward::with_capacity`] whose pool charges workspace
    /// creations against a shared [`MemoryBudget`] (see
    /// [`WorkspacePool::with_budget`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity_budgeted(
        plan: Arc<PlannedScan>,
        capacity: usize,
        budget: Option<Arc<MemoryBudget>>,
    ) -> Self {
        Self {
            pool: WorkspacePool::with_budget(plan, capacity, budget),
        }
    }

    /// The shared plan.
    pub fn plan(&self) -> &Arc<PlannedScan> {
        self.pool.plan()
    }

    /// The underlying workspace pool.
    pub fn workspaces(&self) -> &WorkspacePool<S> {
        &self.pool
    }

    /// Pre-allocates `min(count, capacity)` workspaces so steady-state
    /// [`BatchedBackward::execute`] calls are allocation-free.
    pub fn prewarm(&self, count: usize) {
        self.pool.prewarm(count);
    }

    /// Executes every chain over a pooled workspace, fanning across the
    /// shared scan worker pool, and streams each result to `consume(i,
    /// result)` **while the workspace is still checked out** — copy what
    /// must outlive the call. `consume` runs concurrently for different
    /// `i`; each index is delivered exactly once.
    ///
    /// Allocation-free in the steady state (workspaces prewarmed, pool
    /// header reused); the barrier returns only after every chain's result
    /// was consumed.
    ///
    /// # Panics
    ///
    /// Panics if any chain does not match the plan (see
    /// [`PlannedScan::execute_with`]) or if `consume` panics.
    pub fn execute(
        &self,
        chains: &[JacobianChain<S>],
        consume: &(dyn Fn(usize, &BackwardResult<S>) + Sync),
    ) {
        if chains.is_empty() {
            return;
        }
        let plan = self.pool.plan();
        global_pool().run_indexed(chains.len(), &|i| {
            let mut ws = self.pool.checkout();
            let result = plan.execute_with(&chains[i], &mut ws);
            consume(i, result);
        });
    }

    /// [`BatchedBackward::execute`] over chains that each task prepares
    /// itself: task `i` runs `refresh(i, &mut chains[i])` (an in-place value
    /// refresh that must keep the chain matching the plan), then scans chain
    /// `i` on a pooled workspace and streams the result to `consume(i,
    /// result)`. Refreshing inside the fan-out keeps that per-chain work off
    /// the calling thread. Allocation-free in the same steady state as
    /// [`BatchedBackward::execute`].
    ///
    /// # Panics
    ///
    /// Panics if a refreshed chain does not match the plan, or if `refresh`
    /// or `consume` panics.
    pub fn refresh_and_execute(
        &self,
        chains: &mut [JacobianChain<S>],
        refresh: &(dyn Fn(usize, &mut JacobianChain<S>) + Sync),
        consume: &(dyn Fn(usize, &BackwardResult<S>) + Sync),
    ) {
        let plan = self.pool.plan();
        let base = SendPtr(chains.as_mut_ptr());
        global_pool().run_indexed(chains.len(), &|i| {
            // Rebind the whole SendPtr so the closure captures it, not its
            // raw-pointer field.
            let base: SendPtr<JacobianChain<S>> = base;
            // SAFETY: `i < chains.len()`, run_indexed hands each index to
            // exactly one task, and its barrier ends every task before the
            // `&mut` borrow of `chains` does, so this is chain `i`'s only
            // reference while it lives.
            let chain = unsafe { &mut *base.0.add(i) };
            refresh(i, chain);
            let mut ws = self.pool.checkout();
            let result = plan.execute_with(chain, &mut ws);
            consume(i, result);
        });
    }

    /// Convenience wrapper collecting every result (clones each out of its
    /// workspace — allocating; hot paths should stream via
    /// [`BatchedBackward::execute`] into pre-sized buffers instead).
    ///
    /// # Panics
    ///
    /// As [`BatchedBackward::execute`].
    pub fn execute_collect(&self, chains: &[JacobianChain<S>]) -> Vec<BackwardResult<S>> {
        let slots: Vec<Slot<BackwardResult<S>>> = chains.iter().map(|_| Slot::new()).collect();
        self.execute(chains, &|i, result| {
            // SAFETY: execute delivers each index to exactly one consume
            // call, making this slot i's unique accessor; the fan-out
            // barrier orders the set before the takes below.
            unsafe { slots[i].set(result.clone()) };
        });
        slots
            .into_iter()
            .map(|slot| {
                // SAFETY: single-threaded after the barrier.
                unsafe { slot.take() }
            })
            .collect()
    }
}

/// Runs `task(i)` for every `i` in `0..count` across the shared scan worker
/// pool (and the calling thread) and returns the results in index order.
///
/// The tasks run concurrently in no fixed order, so anything order-sensitive
/// (a floating-point sum, say) belongs to the caller, over the returned
/// vector.
///
/// # Examples
///
/// ```
/// let squares = bppsa_core::map_indexed(5, &|i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// Panics if any task panicked.
pub fn map_indexed<T: Send>(count: usize, task: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
    let slots: Vec<Slot<T>> = (0..count).map(|_| Slot::new()).collect();
    global_pool().run_indexed(count, &|i| {
        // SAFETY: run_indexed hands index `i` to exactly one task, making
        // this slot i's unique accessor; its barrier orders the set before
        // the takes below.
        unsafe { slots[i].set(task(i)) };
    });
    slots
        .into_iter()
        .map(|slot| {
            // SAFETY: single-threaded after the barrier.
            unsafe { slot.take() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::{bppsa_backward, BppsaOptions};
    use crate::element::ScanElement;
    use bppsa_sparse::Csr;
    use bppsa_tensor::init::{seeded_rng, uniform_vector};
    use bppsa_tensor::Matrix;
    use rand::Rng;

    fn sparse_chain(n: usize, width: usize, seed: u64) -> JacobianChain<f64> {
        let mut rng = seeded_rng(seed);
        let mut chain = JacobianChain::new(uniform_vector(&mut rng, width, 1.0));
        for _ in 0..n {
            let dense = Matrix::from_fn(width, width, |_, _| {
                if rng.random_range(0.0..1.0) < 0.4 {
                    rng.random_range(-1.0..1.0)
                } else {
                    0.0
                }
            });
            chain.push(ScanElement::Sparse(Csr::from_dense(&dense)));
        }
        chain
    }

    /// Same patterns as `template`, fresh values.
    fn revalue(template: &JacobianChain<f64>, seed: u64) -> JacobianChain<f64> {
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
    fn pool_grows_to_cap_and_blocks_at_it() {
        let chain = sparse_chain(6, 8, 1);
        let plan = Arc::new(PlannedScan::plan(&chain, BppsaOptions::serial()));
        let pool = WorkspacePool::<f64>::new(plan, 2);
        assert_eq!(pool.capacity(), 2);
        assert_eq!(pool.created(), 0);

        let a = pool.checkout();
        let b = pool.checkout();
        assert_eq!(pool.created(), 2);
        assert_ne!(a.id(), b.id());
        assert!(pool.try_checkout().is_none(), "cap reached, none free");
        drop(a);
        let c = pool.try_checkout().expect("freed workspace reusable");
        assert_eq!(pool.created(), 2, "no growth past returning checkouts");
        drop((b, c));
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn prewarm_allocates_up_front() {
        let chain = sparse_chain(4, 6, 2);
        let plan = Arc::new(PlannedScan::plan(&chain, BppsaOptions::serial()));
        let pool = WorkspacePool::<f64>::new(plan, 3);
        pool.prewarm(8); // clamped to capacity
        assert_eq!(pool.created(), 3);
        assert_eq!(pool.available(), 3);
    }

    #[test]
    fn blocked_checkout_wakes_on_checkin() {
        let chain = sparse_chain(4, 6, 3);
        let plan = Arc::new(PlannedScan::plan(&chain, BppsaOptions::serial()));
        let pool = WorkspacePool::<f64>::new(plan, 1);
        let held = pool.checkout();
        std::thread::scope(|s| {
            let handle = s.spawn(|| pool.checkout().id());
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(held); // unblocks the waiter
            assert_eq!(handle.join().expect("no panic"), 0);
        });
    }

    #[test]
    fn batched_results_match_serial_execution() {
        let template = sparse_chain(12, 10, 4);
        let chains: Vec<JacobianChain<f64>> = (0..6).map(|k| revalue(&template, 100 + k)).collect();
        let plan = Arc::new(PlannedScan::plan(&template, BppsaOptions::serial()));
        let batched = BatchedBackward::with_capacity(Arc::clone(&plan), 3);
        let results = batched.execute_collect(&chains);
        for (chain, pooled) in chains.iter().zip(&results) {
            let serial = bppsa_backward(chain, BppsaOptions::serial());
            // Same compiled instruction sequence → identical rounding.
            assert_eq!(pooled.max_abs_diff(&serial), 0.0);
        }
        assert!(batched.workspaces().created() <= 3);
    }

    #[test]
    fn execute_streams_each_index_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let template = sparse_chain(8, 8, 5);
        let chains: Vec<JacobianChain<f64>> =
            (0..10).map(|k| revalue(&template, 200 + k)).collect();
        let plan = Arc::new(PlannedScan::plan(&template, BppsaOptions::serial()));
        let batched = BatchedBackward::<f64>::new(plan);
        let hits: Vec<AtomicUsize> = chains.iter().map(|_| AtomicUsize::new(0)).collect();
        batched.execute(&chains, &|i, result| {
            assert_eq!(result.grads().len(), chains[i].num_layers());
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn refresh_and_execute_scans_each_chain_after_its_refresh() {
        let template = sparse_chain(10, 8, 12);
        let fresh: Vec<JacobianChain<f64>> = (0..7).map(|k| revalue(&template, 300 + k)).collect();
        let plan = Arc::new(PlannedScan::plan(&template, BppsaOptions::serial()));
        let batched = BatchedBackward::with_capacity(Arc::clone(&plan), 3);
        let expected = batched.execute_collect(&fresh);
        // Stale values in every slot; each task must write its own chain's.
        let mut chains: Vec<JacobianChain<f64>> = fresh.iter().map(|_| template.clone()).collect();
        let slots: Vec<Slot<BackwardResult<f64>>> = chains.iter().map(|_| Slot::new()).collect();
        batched.refresh_and_execute(
            &mut chains,
            &|i, chain| *chain = fresh[i].clone(),
            // SAFETY: each index is consumed exactly once, and the fan-out
            // barrier orders the sets before the takes below.
            &|i, result| unsafe { slots[i].set(result.clone()) },
        );
        for (i, slot) in slots.into_iter().enumerate() {
            // SAFETY: single-threaded after the barrier.
            let got = unsafe { slot.take() };
            assert_eq!(got.max_abs_diff(&expected[i]), 0.0, "chain {i}");
        }
        for (chain, want) in chains.iter().zip(&fresh) {
            assert_eq!(chain.seed().as_slice(), want.seed().as_slice());
        }
    }

    #[test]
    fn map_indexed_returns_results_in_index_order() {
        let out = map_indexed(100, &|i| vec![i; i % 3]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![i; i % 3]);
        }
        assert!(map_indexed(0, &|i| i).is_empty());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let chain = sparse_chain(3, 5, 6);
        let plan = Arc::new(PlannedScan::plan(&chain, BppsaOptions::serial()));
        let batched = BatchedBackward::<f64>::new(plan);
        batched.execute(&[], &|_, _| unreachable!());
        assert!(batched.execute_collect(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let chain = sparse_chain(2, 4, 7);
        let plan = Arc::new(PlannedScan::plan(&chain, BppsaOptions::serial()));
        let _ = WorkspacePool::<f64>::new(plan, 0);
    }

    #[test]
    fn budget_bounds_growth_and_try_checkout_refuses() {
        let chain = sparse_chain(4, 6, 8);
        let plan = Arc::new(PlannedScan::plan(&chain, BppsaOptions::serial()));
        let ws_bytes = plan.workspace_bytes::<f64>();
        // Room for exactly one workspace, capacity for four.
        let budget = Arc::new(MemoryBudget::new(ws_bytes));
        let pool = WorkspacePool::<f64>::with_budget(plan, 4, Some(Arc::clone(&budget)));
        assert_eq!(pool.workspace_bytes(), ws_bytes);

        let held = pool.checkout();
        assert_eq!(pool.created(), 1);
        assert_eq!(budget.reserved(), ws_bytes);
        // The budget (not the capacity) now refuses further growth.
        assert!(pool.try_checkout().is_none());
        assert_eq!(pool.created(), 1);

        // Blocking checkout falls back to reusing the owned workspace.
        std::thread::scope(|s| {
            let waiter = s.spawn(|| pool.checkout().id());
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
            assert_eq!(waiter.join().expect("no panic"), 0);
        });
        assert!(budget.peak_reserved() <= budget.limit());
    }

    #[test]
    fn prewarm_stops_at_the_budget() {
        let chain = sparse_chain(4, 6, 9);
        let plan = Arc::new(PlannedScan::plan(&chain, BppsaOptions::serial()));
        let ws_bytes = plan.workspace_bytes::<f64>();
        let budget = Arc::new(MemoryBudget::new(2 * ws_bytes));
        let pool = WorkspacePool::<f64>::with_budget(plan, 8, Some(Arc::clone(&budget)));
        pool.prewarm(8); // best-effort: budget admits only two
        assert_eq!(pool.created(), 2);
        assert_eq!(pool.available(), 2);
        assert_eq!(budget.reserved(), 2 * ws_bytes);
    }

    #[test]
    fn dropping_the_pool_releases_its_reservation() {
        let chain = sparse_chain(3, 5, 10);
        let plan = Arc::new(PlannedScan::plan(&chain, BppsaOptions::serial()));
        let ws_bytes = plan.workspace_bytes::<f64>();
        let budget = Arc::new(MemoryBudget::new(4 * ws_bytes));
        {
            let pool =
                WorkspacePool::<f64>::with_budget(Arc::clone(&plan), 4, Some(Arc::clone(&budget)));
            pool.prewarm(3);
            assert_eq!(budget.reserved(), 3 * ws_bytes);
        }
        assert_eq!(budget.reserved(), 0, "drop returns the whole reservation");
        assert_eq!(budget.peak_reserved(), 3 * ws_bytes);
    }

    #[test]
    fn zero_workspace_pool_parks_on_the_budget_until_released() {
        let chain = sparse_chain(3, 5, 11);
        let plan = Arc::new(PlannedScan::plan(&chain, BppsaOptions::serial()));
        let ws_bytes = plan.workspace_bytes::<f64>();
        let budget = Arc::new(MemoryBudget::new(ws_bytes));
        // A sibling pool holds the whole budget; this pool owns nothing,
        // so its first checkout can only proceed once the sibling drops.
        let sibling =
            WorkspacePool::<f64>::with_budget(Arc::clone(&plan), 1, Some(Arc::clone(&budget)));
        sibling.prewarm(1);
        let starved = WorkspacePool::<f64>::with_budget(plan, 1, Some(Arc::clone(&budget)));
        std::thread::scope(|s| {
            let waiter = s.spawn(|| starved.checkout().id());
            std::thread::sleep(Duration::from_millis(20));
            drop(sibling); // releases the budget → starved pool can grow
            assert_eq!(waiter.join().expect("no panic"), 0);
        });
        assert!(budget.peak_reserved() <= budget.limit());
    }
}
