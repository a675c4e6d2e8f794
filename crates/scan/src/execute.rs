//! Executors: run a [`ScanSchedule`] over a slice of elements, serially or
//! on the persistent worker pool.
//!
//! The pooled executor mirrors the paper's CUDA implementation shape: "each
//! level during the up-/down-sweep phase requires a single CUDA kernel
//! launch, therefore synchronization is ensured between two consecutive
//! levels". Here each level is one [`WorkerPool::run_indexed`] batch on
//! parked threads (its barrier is the level synchronization), and each
//! index handles a contiguous chunk of the level's pairs.
//!
//! [`WorkerPool::run_indexed`]: crate::WorkerPool::run_indexed

use crate::pool::SendPtr;
use crate::{Pair, ScanOp, ScanSchedule};

/// How a schedule's parallel levels are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// All pairs run on the calling thread.
    #[default]
    Serial,
    /// Pairs in each level run on the shared persistent worker pool
    /// ([`crate::global_pool`]) — the CPU analogue of the paper's
    /// one-kernel-per-level CUDA execution on persistent SMs.
    Pooled,
}

/// Up-sweep combine at one pair: `a[r] ← a[l] ⊕ a[r]` (Algorithm 1 line 4).
///
/// # Safety
///
/// `l != r`, both in bounds, and no other thread touches either index.
#[inline]
unsafe fn up_pair<T, Op: ScanOp<T>>(base: *mut T, op: &Op, p: Pair) {
    let l = &*base.add(p.l);
    let r_ptr = base.add(p.r);
    let old_r = std::ptr::read(r_ptr);
    let new_r = op.combine(l, &old_r);
    std::ptr::write(r_ptr, new_r);
    drop(old_r);
}

/// Down-sweep combine at one pair (Algorithm 1 lines 11–13, with the
/// paper's reversed operand order): `t ← a[l]; a[l] ← a[r]; a[r] ← a[r] ⊕ t`.
///
/// # Safety
///
/// `l != r`, both in bounds, and no other thread touches either index.
#[inline]
unsafe fn down_pair<T, Op: ScanOp<T>>(base: *mut T, op: &Op, p: Pair) {
    let l_ptr = base.add(p.l);
    let r_ptr = base.add(p.r);
    let t = std::ptr::read(l_ptr);
    let r_val = std::ptr::read(r_ptr);
    let new_r = op.combine(&r_val, &t); // a[r] ⊕ t — operand order reversed.
    std::ptr::write(l_ptr, r_val);
    std::ptr::write(r_ptr, new_r);
    drop(t);
}

fn run_level_serial<T, Op: ScanOp<T>>(a: &mut [T], op: &Op, pairs: &[Pair], down: bool) {
    let base = a.as_mut_ptr();
    for &p in pairs {
        debug_assert!(p.l < p.r && p.r < a.len());
        unsafe {
            if down {
                down_pair(base, op, p);
            } else {
                up_pair(base, op, p);
            }
        }
    }
}

/// Runs the serial exclusive scan across the block roots (the schedule's
/// middle phase): replaces each root's fold with the exclusive prefix of the
/// preceding blocks' folds.
fn run_middle<T, Op: ScanOp<T>>(a: &mut [T], op: &Op, roots: &[usize]) {
    let mut running = op.identity();
    for &p in roots {
        let old = std::mem::replace(&mut a[p], op.identity());
        let next = op.combine(&running, &old);
        a[p] = std::mem::replace(&mut running, next);
    }
}

/// Executes `schedule` in place over `a`, transforming the input array
/// `[a₀, …, a_n]` into the exclusive scan `[I, a₀, a₀⊕a₁, …, a₀⊕…⊕a_{n−1}]`.
///
/// # Panics
///
/// Panics if `a.len() != schedule.len()`, or if `op` panics (on the caller
/// or on a pool worker).
///
/// # Examples
///
/// ```
/// use bppsa_scan::{execute_in_place, Executor, ScanOp, ScanSchedule};
///
/// struct Add;
/// impl ScanOp<i64> for Add {
///     fn combine(&self, a: &i64, b: &i64) -> i64 { a + b }
///     fn identity(&self) -> i64 { 0 }
/// }
///
/// let mut a = vec![1, 2, 3, 4];
/// execute_in_place(&ScanSchedule::full(4), &Add, &mut a, Executor::Serial);
/// assert_eq!(a, vec![0, 1, 3, 6]);
/// ```
pub fn execute_in_place<T: Send, Op: ScanOp<T> + Sync>(
    schedule: &ScanSchedule,
    op: &Op,
    a: &mut [T],
    executor: Executor,
) {
    assert_eq!(
        a.len(),
        schedule.len(),
        "execute_in_place: array length {} does not match schedule length {}",
        a.len(),
        schedule.len()
    );
    let run_level = |a: &mut [T], pairs: &[Pair], down: bool| match executor {
        Executor::Serial => run_level_serial(a, op, pairs, down),
        Executor::Pooled => run_level_pooled(a, op, pairs, down, crate::global_pool()),
    };
    for level in schedule.up_levels() {
        run_level(a, level, false);
    }
    run_middle(a, op, schedule.block_roots());
    for level in schedule.down_levels() {
        run_level(a, level, true);
    }
}

/// Runs one level on a persistent pool: pairs are split into
/// `pool.size() + 1` contiguous chunks claimed via the pool's index-parallel
/// batch, whose barrier is the level synchronization. Zero allocations per
/// level in the steady state.
fn run_level_pooled<T: Send, Op: ScanOp<T> + Sync>(
    a: &mut [T],
    op: &Op,
    pairs: &[Pair],
    down: bool,
    pool: &crate::WorkerPool,
) {
    // Small levels (the deep portion of the tree) are cheaper on the caller
    // thread than a pool wakeup. Width is the only signal available here:
    // the generic executor knows nothing about element sizes, so a
    // FLOP-based decision is impossible at this layer — PlannedScan in
    // bppsa-core, which does know each combine's planned FLOPs, prices its
    // levels instead of using this heuristic.
    if pairs.len() < 4 {
        run_level_serial(a, op, pairs, down);
        return;
    }
    let chunks = (pool.size() + 1).min(pairs.len());
    let base = SendPtr(a.as_mut_ptr());
    let len = a.len();
    pool.run_indexed(chunks, &|c| {
        // Capture the whole `SendPtr` wrapper (not the raw field) so the
        // closure's captures stay `Sync` under edition-2021 precise capture.
        let base: SendPtr<T> = base;
        // Balanced partition: chunk c covers [c·n/chunks, (c+1)·n/chunks).
        let start = c * pairs.len() / chunks;
        let end = (c + 1) * pairs.len() / chunks;
        for &p in &pairs[start..end] {
            debug_assert!(p.l < p.r && p.r < len);
            // SAFETY: pairs within a level are pairwise disjoint (schedule
            // invariant), so no two chunks alias.
            unsafe {
                if down {
                    down_pair(base.0, op, p);
                } else {
                    up_pair(base.0, op, p);
                }
            }
        }
    });
}

/// Reference serial exclusive scan (left fold), used as the correctness
/// oracle for every schedule/executor combination.
///
/// Returns `[I, a₀, a₀⊕a₁, …]` with the same length as `items`.
pub fn serial_exclusive_scan<T: Clone, Op: ScanOp<T>>(op: &Op, items: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(items.len());
    let mut acc = op.identity();
    for x in items {
        out.push(acc.clone());
        acc = op.combine(&acc, x);
    }
    out
}

/// Reference serial *inclusive* scan: `[a₀, a₀⊕a₁, …, a₀⊕…⊕a_n]`.
pub fn serial_inclusive_scan<T: Clone, Op: ScanOp<T>>(op: &Op, items: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(items.len());
    let mut acc: Option<T> = None;
    for x in items {
        acc = Some(match acc {
            None => x.clone(),
            Some(a) => op.combine(&a, x),
        });
        out.push(acc.clone().expect("acc set above"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::test_ops::{Add, Affine, Concat};

    fn strings(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("[{i}]")).collect()
    }

    #[test]
    fn serial_oracle_exclusive_matches_manual() {
        let out = serial_exclusive_scan(&Add, &[1, 2, 3, 4]);
        assert_eq!(out, vec![0, 1, 3, 6]);
    }

    #[test]
    fn serial_oracle_inclusive_matches_manual() {
        let out = serial_inclusive_scan(&Add, &[1, 2, 3, 4]);
        assert_eq!(out, vec![1, 3, 6, 10]);
    }

    #[test]
    fn full_schedule_matches_oracle_all_small_sizes() {
        for m in 0..66usize {
            let items = strings(m);
            let expect = serial_exclusive_scan(&Concat, &items);
            let mut a = items.clone();
            execute_in_place(&ScanSchedule::full(m), &Concat, &mut a, Executor::Serial);
            assert_eq!(a, expect, "m={m}");
        }
    }

    #[test]
    fn hybrid_schedules_match_oracle_all_cutoffs() {
        for m in [1usize, 2, 3, 5, 7, 8, 13, 16, 31, 33, 64] {
            let items = strings(m);
            let expect = serial_exclusive_scan(&Concat, &items);
            for k in 0..9 {
                let mut a = items.clone();
                let s = ScanSchedule::with_up_levels(m, k);
                execute_in_place(&s, &Concat, &mut a, Executor::Serial);
                assert_eq!(a, expect, "m={m} k={k}");
            }
        }
    }

    #[test]
    fn linear_schedule_equals_oracle() {
        let items: Vec<i64> = (1..=10).collect();
        let mut a = items.clone();
        execute_in_place(&ScanSchedule::linear(10), &Add, &mut a, Executor::Serial);
        assert_eq!(a, serial_exclusive_scan(&Add, &items));
    }

    #[test]
    fn empty_input_is_a_noop() {
        let mut a: Vec<i64> = vec![];
        execute_in_place(&ScanSchedule::full(0), &Add, &mut a, Executor::Serial);
        assert!(a.is_empty());
    }

    #[test]
    fn singleton_becomes_identity() {
        let mut a = vec![41i64];
        execute_in_place(&ScanSchedule::full(1), &Add, &mut a, Executor::Serial);
        assert_eq!(a, vec![0]);
    }

    #[test]
    #[should_panic(expected = "does not match schedule length")]
    fn length_mismatch_panics() {
        let mut a = vec![1i64, 2];
        execute_in_place(&ScanSchedule::full(3), &Add, &mut a, Executor::Serial);
    }

    #[test]
    fn executor_default_is_serial() {
        assert_eq!(Executor::default(), Executor::Serial);
    }

    #[test]
    fn pooled_matches_serial_for_noncommutative_op() {
        for m in [5usize, 64, 127, 128, 1000] {
            let items: Vec<(i64, i64)> = (0..m as i64).map(|i| (3 * i - 1, 2 * i + 5)).collect();
            let expect = serial_exclusive_scan(&Affine, &items);
            let mut a = items.clone();
            execute_in_place(&ScanSchedule::full(m), &Affine, &mut a, Executor::Pooled);
            assert_eq!(a, expect, "m={m}");
        }
    }

    #[test]
    fn threaded_matches_serial_for_noncommutative_op() {
        // The global pool's width depends on the host; run the pooled level
        // on explicit pools so 2, 4 and 8 chunks per level are all covered.
        for m in [5usize, 64, 127, 128, 1000] {
            let items: Vec<(i64, i64)> = (0..m as i64).map(|i| (2 * i + 1, 3 * i - 7)).collect();
            let expect = serial_exclusive_scan(&Affine, &items);
            let schedule = ScanSchedule::full(m);
            for workers in [1usize, 3, 7] {
                let pool = crate::WorkerPool::new(workers);
                let mut a = items.clone();
                for level in schedule.up_levels() {
                    run_level_pooled(&mut a, &Affine, level, false, &pool);
                }
                run_middle(&mut a, &Affine, schedule.block_roots());
                for level in schedule.down_levels() {
                    run_level_pooled(&mut a, &Affine, level, true, &pool);
                }
                assert_eq!(a, expect, "m={m} workers={workers}");
            }
        }
    }

    #[test]
    fn pooled_hybrid_schedules_agree() {
        let items = strings(41);
        let expect = serial_exclusive_scan(&Concat, &items);
        for k in 0..7 {
            let mut a = items.clone();
            let s = ScanSchedule::with_up_levels(41, k);
            execute_in_place(&s, &Concat, &mut a, Executor::Pooled);
            assert_eq!(a, expect, "k={k}");
        }
    }
}
