//! # bppsa-scan — generic parallel-scan framework
//!
//! The scan (prefix-aggregation) machinery at the heart of BPPSA,
//! implemented generically over any associative operator so the same code is
//! property-tested with integers/strings/affine maps and reused by
//! `bppsa-core` with Jacobian-sized matrix elements.
//!
//! Provided algorithms:
//!
//! * [`serial_exclusive_scan`] / [`serial_inclusive_scan`] — the `Θ(n)`-step
//!   reference (the paper's "linear scan" baseline, equivalent in step count
//!   to ordinary back-propagation);
//! * [`ScanSchedule::full`] — the paper's **modified Blelloch scan
//!   (Algorithm 1)** with the reversed-operand down-sweep needed for the
//!   non-commutative `A ⊙ B = B·A`;
//! * [`ScanSchedule::with_up_levels`] — the §5.2 **hybrid/truncated**
//!   schedule: `k` up-sweep levels, a serial scan over block roots, `k`
//!   down-sweep levels (interpolates between linear scan and full Blelloch);
//! * [`hillis_steele_inclusive`] — the step-optimal but work-inefficient
//!   alternative, for comparison benches.
//!
//! Execution is split from scheduling: a [`ScanSchedule`] is a pure
//! description of level-synchronous pair updates, executed by
//! [`execute_in_place`] either serially or on the persistent [`WorkerPool`]
//! (the in-process stand-in for the paper's one-CUDA-kernel-per-level
//! structure on persistent SMs; its [`WorkerPool::run_indexed`] publishes
//! batches into a reused generation-stamped header, so steady-state
//! fan-outs allocate nothing). `run_indexed`, directly or through a
//! [`WorkerGroup`], is the only way this crate runs work in parallel.
//! A schedule can also be *priced* — without executing — by the
//! `bppsa-pram` simulator.
//!
//! ## Example: exclusive scan with a non-commutative operator
//!
//! ```
//! use bppsa_scan::{execute_in_place, Executor, ScanOp, ScanSchedule};
//!
//! /// Function composition over affine maps x ↦ a·x + b.
//! struct Compose;
//! impl ScanOp<(f64, f64)> for Compose {
//!     fn combine(&self, f: &(f64, f64), g: &(f64, f64)) -> (f64, f64) {
//!         (g.0 * f.0, g.0 * f.1 + g.1)
//!     }
//!     fn identity(&self) -> (f64, f64) { (1.0, 0.0) }
//! }
//!
//! let mut maps = vec![(2.0, 1.0), (3.0, 0.0), (1.0, -1.0)];
//! execute_in_place(&ScanSchedule::full(3), &Compose, &mut maps, Executor::Pooled);
//! assert_eq!(maps[0], (1.0, 0.0));        // identity
//! assert_eq!(maps[1], (2.0, 1.0));        // first map
//! assert_eq!(maps[2], (6.0, 3.0));        // composition of first two
//! ```

#![warn(missing_docs)]

mod execute;
mod hillis_steele;
mod op;
mod pool;
mod schedule;

pub use execute::{execute_in_place, serial_exclusive_scan, serial_inclusive_scan, Executor};
pub use hillis_steele::{
    hillis_steele_exclusive, hillis_steele_inclusive, hillis_steele_steps, hillis_steele_work,
};
pub use op::ScanOp;
pub use pool::{global_pool, SendPtr, Slot, WorkerGroup, WorkerPool};
pub use schedule::{ceil_log2, Pair, PhaseInfo, PhaseKind, ScanSchedule};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ScanSchedule>();
        assert_send_sync::<Pair>();
        assert_send_sync::<Executor>();
        assert_send_sync::<PhaseInfo>();
    }
}
