//! A persistent worker pool for level-synchronous execution.
//!
//! The paper's CUDA kernels launch once per scan level on SMs that persist
//! across launches. [`WorkerPool`] is the CPU analogue — a fixed set of
//! threads that stay parked between levels, so a level whose combines are
//! microseconds of work (a 20×20 matmul) pays no thread spawn. It is the
//! crate's one parallel primitive: [`Executor::Pooled`](crate::Executor::Pooled),
//! `bppsa-core`'s planned executors and its batched fan-outs all run
//! through [`WorkerPool::run_indexed`], directly or through a
//! [`WorkerGroup`].
//!
//! Design: a small fixed array of **reused, generation-stamped batch
//! headers** lets several batches be in flight at once. A publisher claims a
//! free header, publishes a *batch* (a `Fn(usize)` task, an index count, and
//! a worker-index mask) into it, and bumps a global epoch to broadcast one
//! condvar wakeup; workers scan the headers for batches whose mask covers
//! them and claim indices from the header's atomic counter until the batch
//! drains; the caller participates too and the last finisher signals the
//! header's completion condvar. Per-batch overhead is a few futex
//! transitions, not one per job, and the steady state performs **zero heap
//! allocations per batch** — headers are pool-owned state, not per-call
//! `Arc`s.
//!
//! Multiple headers are what make fan-outs *compose*: a pooled task that
//! fans out again (a segment driver running a row-parallel product, a
//! batched backward whose chains are themselves segmented) publishes to
//! another free header instead of collapsing to inline execution. Only when
//! every header is busy does a publisher run its batch inline — same
//! semantics, no deadlock.
//!
//! [`WorkerPool::group`] names a contiguous range of worker indices as a
//! [`WorkerGroup`]; a group's `run_indexed` publishes with the group's mask
//! so only its workers participate — groups over disjoint ranges never
//! steal each other's CPUs, which is how segmented scans keep K segments on
//! K disjoint worker sets (see `bppsa-core`'s segmented executor, which
//! computes the K ranges arithmetically so its steady state allocates
//! nothing).
//!
//! # The stale-worker story
//!
//! Reusing headers means a slow worker can wake up holding state from a
//! batch that already completed, while the header has been republished for a
//! newer batch. Two defenses make that safe:
//!
//! 1. **Generation-validated claims.** Each header's claim counter packs
//!    `(generation, next index)` into a single atomic word, and indices are
//!    claimed by compare-and-swap. A stale worker's CAS carries the old
//!    generation and can never claim (or skip) an index of a newer batch; it
//!    observes the mismatch and moves on.
//! 2. **Barrier-bounded task lifetime.** A successful claim of index `i`
//!    proves batch `remaining > 0` at the claim instant, which pins the
//!    publishing `run_indexed` call (and therefore the task borrow) until
//!    the claimer finishes `task(i)` and decrements `remaining`.
//!
//! A header is only republished by a thread that owns its `busy` flag, and
//! only after the previous owner observed `remaining == 0` — so `remaining`
//! decrements can never cross generations either.
//!
//! Panic signals follow the same discipline per header: a job panic is
//! recorded as a **generation-tagged** poison word, and the publisher
//! consumes (and re-raises) only a poison carrying its own batch's
//! generation, *before* releasing the header. An unscoped flag checked after
//! the release used to let a subsequent publisher's batch consume the
//! previous batch's panic — repanicking the wrong caller and losing the
//! original signal.

use parking_lot::{Condvar, Mutex};
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Raw pointer to the current batch's task closure. Valid for the batch's
/// lifetime only; stale workers can never call through it because claims
/// are generation-validated (see the module docs).
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// Packs a batch generation and a claim index into one atomic word.
///
/// 32 bits each: a stale worker would have to sleep across 2^32 publications
/// *of the same header* while holding a loaded claim word for the generation
/// tag to alias (the classic ABA window) — not reachable in practice.
#[inline]
fn pack(generation: u32, index: u32) -> u64 {
    (u64::from(generation) << 32) | u64::from(index)
}

#[inline]
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// One reusable batch header. The pool owns a small fixed array of these;
/// each in-flight batch occupies exactly one.
struct Header {
    slot: Mutex<BatchSlot>,
    done_cv: Condvar,
    /// Panic signal of this header's *current published batch*, scoped to
    /// its generation: `0` when clean, else `pack(generation, 1)` of the
    /// batch whose job panicked. Generation scoping (plus the publisher
    /// clearing it *before* releasing `busy`) ensures one batch's panic can
    /// never be consumed by — or re-raised at — a different batch's caller.
    poisoned: AtomicU64,
    /// Exclusive right to publish into this header. Taken for the whole
    /// duration of a pooled `run_indexed`; when every header is taken,
    /// contenders run inline.
    busy: AtomicBool,
    /// `(generation, next claim index)` — the generation-validated claim
    /// counter of the header's current batch (see module docs).
    next: AtomicU64,
    /// Unfinished jobs of the current batch. Never crosses generations:
    /// republication requires observing zero first.
    remaining: AtomicUsize,
}

impl Header {
    fn new() -> Self {
        Header {
            slot: Mutex::new(BatchSlot {
                generation: 0,
                task: None,
                count: 0,
                lo: 0,
                hi: 0,
            }),
            done_cv: Condvar::new(),
            poisoned: AtomicU64::new(0),
            busy: AtomicBool::new(false),
            next: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
        }
    }
}

/// Mutex-guarded half of a batch header: what a worker must read
/// consistently with the generation it acts on.
struct BatchSlot {
    generation: u32,
    task: Option<TaskPtr>,
    count: usize,
    /// Worker-index mask `lo..hi`: only workers in the range participate.
    lo: usize,
    hi: usize,
}

struct Shared {
    headers: Vec<Header>,
    /// Global publication counter: bumped (under the lock) after every
    /// header publication so parked workers wake and rescan the headers.
    epoch: Mutex<u64>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    /// Workers that have entered [`worker_loop`]; [`WorkerPool::new`] waits
    /// for all of them, so no thread start-up runs after it returns.
    started: Mutex<usize>,
    started_cv: Condvar,
}

/// Claims and runs indices of batch `generation` in `header` until none
/// remain (or the header moved on to a newer batch). Safe for stale
/// callers: every claim re-validates the generation via CAS.
fn drain(header: &Header, generation: u32, task: TaskPtr, count: usize) {
    loop {
        let word = header.next.load(Ordering::Relaxed);
        let (gen, index) = unpack(word);
        if gen != generation || index as usize >= count {
            return;
        }
        // Acquire on success pairs with the publisher's release store of
        // `next`, making the task/count/remaining writes visible.
        if header
            .next
            .compare_exchange_weak(
                word,
                pack(generation, index + 1),
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_err()
        {
            continue;
        }
        // SAFETY: the successful generation-validated claim above proves
        // `remaining > 0` for this batch until we decrement it below, which
        // pins the publishing `run_indexed` frame — so the task reference
        // is alive for the duration of this call.
        let task_ref = unsafe { &*task.0 };
        if catch_unwind(AssertUnwindSafe(|| task_ref(index as usize))).is_err() {
            // Tag the poison with this batch's generation. The store happens
            // before our `remaining` decrement, so the publisher (which only
            // reads the flag after observing `remaining == 0`) is guaranteed
            // to see it — and a claim of a *newer* batch can never have run
            // this line for an older generation.
            header.poisoned.store(pack(generation, 1), Ordering::SeqCst);
        }
        header.remaining.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A fixed-size pool of persistent worker threads executing index-parallel
/// batches with a completion barrier — the level-synchronous primitive the
/// scan executor needs.
///
/// # Examples
///
/// ```
/// use bppsa_scan::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let counter = AtomicUsize::new(0);
/// pool.run_indexed(32, &|_i| {
///     counter.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(counter.load(Ordering::Relaxed), 32);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1) and
    /// returns once every worker is running, so a worker's start-up
    /// allocations never land in a later fan-out.
    pub fn new(threads: usize) -> Self {
        let size = threads.max(1);
        // Enough headers for a segment fan-out publishing nested row-chunk
        // batches on every driver, with headroom for concurrent callers;
        // publishers beyond this run inline, which is always correct.
        let headers = (size + 1).clamp(2, 8);
        let shared = Arc::new(Shared {
            headers: (0..headers).map(|_| Header::new()).collect(),
            epoch: Mutex::new(0),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            started: Mutex::new(0),
            started_cv: Condvar::new(),
        });
        let workers = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bppsa-scan-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn scan worker")
            })
            .collect();
        let mut started = shared.started.lock();
        while *started < size {
            shared.started_cv.wait(&mut started);
        }
        drop(started);
        Self {
            shared,
            workers,
            size,
        }
    }

    /// Number of worker threads (the caller participates too, so up to
    /// `size() + 1` indices run concurrently).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs `task(0..count)` across the pool (and the calling thread),
    /// blocking until every index completed. The task may borrow from the
    /// caller's stack — the barrier guarantees the borrows outlive all use.
    ///
    /// Allocation-free: the batch is published into a reused
    /// generation-stamped header owned by the pool, so the steady state of
    /// a planned scan performs **zero** heap allocations per level.
    ///
    /// Fan-outs compose: a pooled task fanning out again (or a call racing
    /// another thread's in-flight batch) publishes to a *different* free
    /// header, so nested parallelism — segment drivers running row-parallel
    /// products, batched backwards over segmented plans — actually runs
    /// concurrently. Single-index batches and calls finding every header
    /// busy run the task inline on the calling thread instead — same
    /// semantics, no deadlock, no corrupted header.
    ///
    /// # Panics
    ///
    /// Panics if any task invocation panicked.
    pub fn run_indexed<'scope>(&self, count: usize, task: &(dyn Fn(usize) + Sync + 'scope)) {
        self.run_masked(0, self.size, count, task);
    }

    /// A [`WorkerGroup`] over the worker-index range `lo..hi` (both clamped
    /// to the pool size). Ranges handed to concurrently-publishing groups
    /// should be disjoint — that is the point of carving — but overlap is
    /// safe (workers just serve both batches). An empty range gives an
    /// empty group, whose batches run entirely on the caller.
    pub fn group(&self, lo: usize, hi: usize) -> WorkerGroup<'_> {
        let lo = lo.min(self.size);
        let hi = hi.min(self.size).max(lo);
        WorkerGroup { pool: self, lo, hi }
    }

    /// Publishes a batch restricted to workers `lo..hi` (the caller always
    /// participates). See [`WorkerPool::run_indexed`].
    fn run_masked<'scope>(
        &self,
        lo: usize,
        hi: usize,
        count: usize,
        task: &(dyn Fn(usize) + Sync + 'scope),
    ) {
        if count == 0 {
            return;
        }
        assert!(count <= u32::MAX as usize, "run_indexed: batch too large");
        // SAFETY: only erases the `'scope` lifetime; the barrier below keeps
        // the reference alive for exactly as long as workers may call it.
        let task: &(dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        // Trivial batches and empty worker masks gain nothing from a
        // header round-trip: run inline. Panics propagate directly.
        if count == 1 || hi <= lo {
            for i in 0..count {
                task(i);
            }
            return;
        }
        // Claim a free header; with every header in flight, run inline.
        let Some(header) = self.shared.headers.iter().find(|h| {
            h.busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        }) else {
            for i in 0..count {
                task(i);
            }
            return;
        };
        let generation = {
            let mut slot = header.slot.lock();
            let generation = slot.generation.wrapping_add(1);
            slot.generation = generation;
            slot.task = Some(TaskPtr(task as *const _));
            slot.count = count;
            slot.lo = lo;
            slot.hi = hi;
            // `remaining` before `next`: the release store of `next` (and
            // the mutex) publish both to claimers.
            header.remaining.store(count, Ordering::Relaxed);
            header.next.store(pack(generation, 0), Ordering::Release);
            generation
        };
        {
            let mut epoch = self.shared.epoch.lock();
            *epoch = epoch.wrapping_add(1);
            self.shared.work_cv.notify_all();
        }
        // The caller works too — for small batches it often drains
        // everything before a worker even wakes.
        drain(header, generation, TaskPtr(task as *const _), count);
        if header.remaining.load(Ordering::Acquire) > 0 {
            let mut slot = header.slot.lock();
            while header.remaining.load(Ordering::Acquire) > 0 {
                header.done_cv.wait(&mut slot);
            }
        }
        // Consume this batch's panic signal *before* releasing the header:
        // once `busy` drops, another publisher may start (and finish) a new
        // batch here, and an unscoped flag read after that point could
        // consume the newer batch's signal — repanicking the wrong caller
        // or losing the panic entirely. The compare-exchange only clears a
        // poison carrying *our* generation, so even a reordered reader
        // could never eat another batch's mark.
        let poisoned = header
            .poisoned
            .compare_exchange(pack(generation, 1), 0, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        // Release the header only after `remaining == 0`: no stale claim or
        // cross-generation decrement is possible past this point.
        header.busy.store(false, Ordering::Release);
        if poisoned {
            panic!("a scan worker job panicked");
        }
    }
}

/// A contiguous slice of a [`WorkerPool`]'s workers, from
/// [`WorkerPool::group`].
///
/// `run_indexed` through a group publishes batches that only the group's
/// workers (plus the caller) serve — concurrent groups over disjoint ranges
/// never contend for each other's CPUs. An empty group (more groups than
/// workers) degrades to caller-only inline execution, which keeps short
/// tail segments correct on narrow hosts.
///
/// # Examples
///
/// ```
/// use bppsa_scan::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let first_half = pool.group(0, 2);
/// let counter = AtomicUsize::new(0);
/// first_half.run_indexed(16, &|_| {
///     counter.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(counter.load(Ordering::Relaxed), 16);
/// ```
#[derive(Clone, Copy)]
pub struct WorkerGroup<'p> {
    pool: &'p WorkerPool,
    lo: usize,
    hi: usize,
}

impl WorkerGroup<'_> {
    /// Number of pool workers in this group (the caller participates too,
    /// so up to `workers() + 1` indices run concurrently).
    pub fn workers(&self) -> usize {
        self.hi - self.lo
    }

    /// Runs `task(0..count)` across this group's workers and the calling
    /// thread, blocking until every index completed — the group-masked
    /// [`WorkerPool::run_indexed`].
    ///
    /// # Panics
    ///
    /// Panics if any task invocation panicked.
    pub fn run_indexed<'scope>(&self, count: usize, task: &(dyn Fn(usize) + Sync + 'scope)) {
        self.pool.run_masked(self.lo, self.hi, count, task);
    }
}

impl std::fmt::Debug for WorkerGroup<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkerGroup({}..{})", self.lo, self.hi)
    }
}

/// A lock-free single-writer, single-taker slot for index-parallel staging.
///
/// The shared utility behind [`WorkerPool::run_indexed`]-style fan-outs:
/// allocate one slot per index, let the task that claims index `i` be the
/// only one to [`Slot::set`] or [`Slot::take`] slot `i`, and rely on the
/// batch barrier for publication. Avoids `Mutex<Option<T>>` overhead where
/// the index-disjointness invariant already rules out contention.
///
/// (Previously duplicated as a private type inside `bppsa-core`'s planned
/// executor; it lives here so every crate staging per-index results on the
/// pool shares one audited implementation.)
///
/// All accessors are `unsafe fn`: the exclusion invariant below cannot be
/// checked by this type, so the proof obligation sits with each call site.
///
/// # Safety contract
///
/// For each slot, at most one thread may call [`Slot::set`] / [`Slot::take`]
/// at a time, and calls must be ordered by an external synchronization edge
/// (the pool's batch barrier, a join, …). The pool's index disjointness —
/// every index claimed by exactly one task — provides this for the
/// one-slot-per-index pattern.
///
/// # Examples
///
/// ```
/// use bppsa_scan::{Slot, WorkerPool};
///
/// let pool = WorkerPool::new(2);
/// let staged: Vec<Slot<usize>> = (0..8).map(|_| Slot::new()).collect();
/// // SAFETY: run_indexed hands each index to exactly one task, and its
/// // barrier orders every set before the takes below.
/// pool.run_indexed(8, &|i| unsafe { staged[i].set(i * i) });
/// assert_eq!(unsafe { staged[3].take() }, 9);
/// ```
pub struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: per the safety contract, each slot is accessed by at most one
// thread at a time with accesses ordered by external synchronization.
unsafe impl<T: Send> Sync for Slot<T> {}

impl<T> Slot<T> {
    /// An empty slot.
    pub fn new() -> Self {
        Slot(UnsafeCell::new(None))
    }

    /// Stores `value`.
    ///
    /// # Safety
    ///
    /// The caller must be the slot's unique accessor for the duration of
    /// the call (see the type-level safety contract).
    pub unsafe fn set(&self, value: T) {
        *self.0.get() = Some(value)
    }

    /// Removes and returns the stored value.
    ///
    /// # Safety
    ///
    /// The caller must be the slot's unique accessor for the duration of
    /// the call (see the type-level safety contract).
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub unsafe fn take(&self) -> T {
        (*self.0.get()).take().expect("Slot::take: slot is empty")
    }
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A `Send + Sync` wrapper for a raw mutable pointer, for fanning writes to
/// pairwise-disjoint regions across pool tasks.
///
/// Shared by the scan executors, the row-parallel numeric SpGEMM, and the
/// planned-scan instruction executor (one audited definition instead of one
/// per crate). The wrapper itself is sound to share — dereferencing the
/// pointer still requires `unsafe`, where the call site must prove its
/// disjointness invariant (no two tasks touch the same element) and that a
/// barrier orders the writes against later reads.
pub struct SendPtr<T>(pub *mut T);

unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing the *pointer value* is harmless; all dereferences are
// `unsafe` and carry their own aliasing proof at the call site.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> std::fmt::Debug for SendPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SendPtr({:p})", self.0)
    }
}

impl<T> std::fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately does not peek inside: Debug must stay callable
        // without the unique-accessor guarantee.
        write!(f, "Slot<{}>", std::any::type_name::<T>())
    }
}

fn worker_loop(shared: &Shared, worker_index: usize) {
    *shared.started.lock() += 1;
    shared.started_cv.notify_all();
    let mut seen_epoch = 0u64;
    loop {
        {
            let mut epoch = shared.epoch.lock();
            while *epoch == seen_epoch && !shared.shutdown.load(Ordering::SeqCst) {
                shared.work_cv.wait(&mut epoch);
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            seen_epoch = *epoch;
        }
        // Scan every header for batches whose mask covers this worker, and
        // keep rescanning while publications keep landing: a batch
        // published mid-scan into a header we already passed bumps the
        // epoch, so the re-check below catches it before we park.
        loop {
            for header in &shared.headers {
                let (generation, task, count, covered) = {
                    let slot = header.slot.lock();
                    (
                        slot.generation,
                        slot.task,
                        slot.count,
                        slot.lo <= worker_index && worker_index < slot.hi,
                    )
                };
                if !covered {
                    continue;
                }
                if let Some(task) = task {
                    // Drained or republished batches are screened out inside
                    // `drain` by the generation-validated claim — a stale
                    // task pointer is never dereferenced.
                    drain(header, generation, task, count);
                    // Whoever observes the drained batch wakes the
                    // publisher; the lock round-trip avoids a missed-wakeup
                    // race with `done_cv`. If the header was already
                    // republished, `remaining` belongs to the newer batch —
                    // then this batch's publisher has long returned and
                    // needs no wakeup.
                    if header.remaining.load(Ordering::Acquire) == 0 {
                        let _guard = header.slot.lock();
                        header.done_cv.notify_all();
                    }
                }
            }
            let epoch = *shared.epoch.lock();
            if epoch == seen_epoch {
                break;
            }
            seen_epoch = epoch;
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let _guard = self.shared.epoch.lock();
            self.shared.shutdown.store(true, Ordering::SeqCst);
            self.shared.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkerPool(size={})", self.size)
    }
}

/// The process-wide shared pool (sized to the available parallelism),
/// created lazily on first use — what [`crate::Executor::Pooled`] runs on.
pub fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(4, |p| p.get());
        WorkerPool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_indexed_covers_every_index_exactly_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        pool.run_indexed(500, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn new_returns_once_every_worker_runs() {
        for size in [1, 3] {
            let pool = WorkerPool::new(size);
            assert_eq!(*pool.shared.started.lock(), size);
        }
    }

    #[test]
    fn sequential_batches_form_barriers() {
        // Writes from batch 1 must be visible to batch 2 (level sync).
        let pool = WorkerPool::new(4);
        let data: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.run_indexed(64, &|i| {
            data[i].store(1, Ordering::Release);
        });
        pool.run_indexed(64, &|i| {
            let v = data[i].load(Ordering::Acquire);
            assert_eq!(v, 1, "batch 1 write not visible");
            data[i].store(v + 1, Ordering::Release);
        });
        assert!(data.iter().all(|x| x.load(Ordering::Relaxed) == 2));
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = WorkerPool::new(2);
        pool.run_indexed(0, &|_| unreachable!());
    }

    #[test]
    fn pool_survives_many_batches() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.run_indexed(3, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1500);
    }

    #[test]
    #[should_panic(expected = "worker job panicked")]
    fn job_panic_propagates() {
        let pool = WorkerPool::new(2);
        pool.run_indexed(4, &|i| {
            if i == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn pool_is_usable_after_a_panic() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(1, &|_| panic!("first"));
        }));
        assert!(result.is_err());
        let counter = AtomicUsize::new(0);
        pool.run_indexed(8, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn concurrent_batches_attribute_panics_to_the_right_caller() {
        // Regression test for the cross-batch poisoning bug: the panic flag
        // used to be a single batch-global bool checked *after* the header
        // was released, so a concurrent caller's clean batch could consume
        // a panicking batch's signal — panicking the wrong caller and
        // silently absolving the right one. With per-header
        // generation-scoped poisoning, across many racing rounds the
        // panicking caller must observe its panic every single time and the
        // clean caller never — whether the two batches share a header in
        // sequence or occupy different headers concurrently.
        let pool = WorkerPool::new(2);
        let rounds = 300;
        std::thread::scope(|s| {
            let panicking = s.spawn(|| {
                for round in 0..rounds {
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        pool.run_indexed(4, &|i| {
                            if i == 2 {
                                panic!("poisoned job, round {round}");
                            }
                        });
                    }));
                    assert!(
                        result.is_err(),
                        "round {round}: the panicking batch's panic was lost"
                    );
                }
            });
            let clean = s.spawn(|| {
                let counter = AtomicUsize::new(0);
                for round in 0..rounds {
                    // A clean batch must never observe another batch's
                    // panic, whichever header it lands on (or inline).
                    pool.run_indexed(4, &|_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(counter.load(Ordering::Relaxed), (round + 1) * 4);
                }
            });
            panicking.join().expect("panicking caller misattributed");
            clean.join().expect("clean caller caught a foreign panic");
        });
        // The pool stays fully usable afterwards.
        let counter = AtomicUsize::new(0);
        pool.run_indexed(16, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = global_pool() as *const _;
        let b = global_pool() as *const _;
        assert_eq!(a, b);
        assert!(global_pool().size() >= 1);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).size(), 1);
    }

    #[test]
    fn slot_stages_per_index_results_across_the_barrier() {
        let pool = WorkerPool::new(3);
        let staged: Vec<Slot<usize>> = (0..64).map(|_| Slot::new()).collect();
        // SAFETY: unique index per task; barrier orders sets before takes.
        pool.run_indexed(64, &|i| unsafe { staged[i].set(i + 100) });
        for (i, s) in staged.iter().enumerate() {
            // SAFETY: single-threaded after the barrier.
            assert_eq!(unsafe { s.take() }, i + 100);
        }
    }

    #[test]
    #[should_panic(expected = "slot is empty")]
    fn slot_take_of_empty_panics() {
        let s: Slot<i32> = Slot::default();
        // SAFETY: this thread is trivially the unique accessor.
        let _ = unsafe { s.take() };
    }

    #[test]
    fn nested_run_indexed_composes_or_falls_back_inline() {
        // A pooled task fanning out again must not deadlock: the inner call
        // publishes to a free header (composing the fan-outs) or, with
        // every header busy, runs inline. Either way every index runs
        // exactly once.
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        pool.run_indexed(4, &|_| {
            pool.run_indexed(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn deeply_nested_fanouts_exhaust_headers_without_deadlock() {
        // Nesting deeper than the header array forces the innermost levels
        // through the all-headers-busy inline path; counts stay exact.
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        fn fan(pool: &WorkerPool, depth: usize, total: &AtomicUsize) {
            if depth == 0 {
                total.fetch_add(1, Ordering::Relaxed);
                return;
            }
            pool.run_indexed(2, &|_| fan(pool, depth - 1, total));
        }
        fan(&pool, 12, &total);
        assert_eq!(total.load(Ordering::Relaxed), 1 << 12);
    }

    #[test]
    fn concurrent_run_indexed_from_many_threads_is_exact() {
        // Racing publishers spread across the header array (and fall back
        // inline past it) — every index of every batch still runs exactly
        // once.
        let pool = WorkerPool::new(4);
        let hits: Vec<Vec<AtomicUsize>> = (0..8)
            .map(|_| (0..100).map(|_| AtomicUsize::new(0)).collect())
            .collect();
        std::thread::scope(|s| {
            for caller in 0..8 {
                let pool = &pool;
                let hits = &hits;
                s.spawn(move || {
                    for _ in 0..20 {
                        pool.run_indexed(100, &|i| {
                            hits[caller][i].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        for row in &hits {
            assert!(row.iter().all(|h| h.load(Ordering::Relaxed) == 20));
        }
    }

    #[test]
    fn heavy_contention_smoke() {
        // Many small batches from the caller thread; exercises the
        // generation/stale-batch logic.
        let pool = WorkerPool::new(8);
        let total = AtomicUsize::new(0);
        for round in 0..200 {
            let count = 1 + round % 17;
            pool.run_indexed(count, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        let expect: usize = (0..200).map(|r| 1 + r % 17).sum();
        assert_eq!(total.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn empty_group_runs_inline_on_the_caller() {
        // More groups than workers: some ranges are empty (or clamp to
        // empty past the pool), and their batches must run entirely (and
        // correctly) on the caller.
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        for group in [pool.group(0, 0), pool.group(3, 7)] {
            assert_eq!(group.workers(), 0, "{group:?}");
            let counter = AtomicUsize::new(0);
            group.run_indexed(16, &|_| {
                assert_eq!(std::thread::current().id(), caller);
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), 16);
        }
    }

    #[test]
    fn disjoint_groups_run_batches_concurrently_and_exactly() {
        // Two disjoint groups publishing from two caller threads: all
        // indices of both batches run exactly once, across many rounds,
        // without the groups interfering with each other's headers.
        let pool = WorkerPool::new(4);
        let groups = [pool.group(0, 2), pool.group(2, 4)];
        let hits: Vec<Vec<AtomicUsize>> = (0..2)
            .map(|_| (0..64).map(|_| AtomicUsize::new(0)).collect())
            .collect();
        std::thread::scope(|s| {
            for (which, group) in groups.iter().enumerate() {
                let hits = &hits;
                let group = *group;
                s.spawn(move || {
                    for _ in 0..50 {
                        group.run_indexed(64, &|i| {
                            hits[which][i].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        for row in &hits {
            assert!(row.iter().all(|h| h.load(Ordering::Relaxed) == 50));
        }
    }

    #[test]
    fn group_panic_attribution_is_exact() {
        // A panic inside one group's batch re-raises at that group's
        // publisher and never leaks to a concurrent clean group.
        let pool = WorkerPool::new(4);
        std::thread::scope(|s| {
            let g0 = pool.group(0, 2);
            let g1 = pool.group(2, 4);
            let dirty = s.spawn(move || {
                for _ in 0..100 {
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        g0.run_indexed(4, &|i| {
                            if i == 1 {
                                panic!("group batch panic");
                            }
                        });
                    }));
                    assert!(result.is_err());
                }
            });
            let clean = s.spawn(move || {
                let counter = AtomicUsize::new(0);
                for round in 0..100 {
                    g1.run_indexed(4, &|_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(counter.load(Ordering::Relaxed), (round + 1) * 4);
                }
            });
            dirty.join().expect("dirty group lost its panic");
            clean.join().expect("clean group caught a foreign panic");
        });
    }
}
