//! Overload policies: the admission decision, feasibility shedding, and the
//! stall watchdog.
//!
//! Everything decision-shaped in this module is a **pure function** of
//! explicitly-passed observations — the same discipline as
//! [`flush_decision`](crate::flush_decision) — so the proptest suite can
//! pin monotonicity, precedence and arrival-order invariance without
//! threads. The impure parts (atomics holding the EWMA, the supervisor
//! thread driving the watchdog) live in `service.rs` and `metrics.rs` and
//! only ever *call* these functions.
//!
//! * [`admit`] — the one decision a request faces when it reaches its
//!   lane: enqueue, park on a full queue, or refuse with a
//!   [`SubmitRefusal`]. It applies the [`ShedPolicy`] thresholds, the
//!   warming refusal, the [`FeasibilityPolicy`] gate ([`predicted_wait`]:
//!   `ceil(queued / max_batch)` flushes at the lane's EWMA flush latency,
//!   [`ewma_update`]) and the queue bound, in one fixed precedence order.
//! * [`WatchdogPolicy`] — bound how long a flush may sit inside execution
//!   before the supervisor declares the lane stalled and fails it through
//!   the quarantine machinery ([`ServeError::FlushStalled`](crate::ServeError::FlushStalled)).

use crate::service::{ShedPolicy, SubmitRefusal};
use std::time::Duration;

/// EWMA weight: each new sample contributes `1/2^EWMA_SHIFT` (= 1/8) of
/// the estimate. Integer shift keeps the policy types `Copy + Eq` and the
/// update branch-free on the dispatcher.
pub const EWMA_SHIFT: u32 = 3;

/// Folds one observed flush latency into the running EWMA (both in
/// nanoseconds). A zero `prev` means "no estimate yet" and adopts the
/// sample outright; afterwards
/// `next = prev - prev/2^`[`EWMA_SHIFT`]` + sample/2^`[`EWMA_SHIFT`].
///
/// Monotone in both arguments (pinned by proptests): a slower sample or a
/// slower history never *lowers* the estimate.
pub fn ewma_update(prev_nanos: u64, sample_nanos: u64) -> u64 {
    if prev_nanos == 0 {
        return sample_nanos;
    }
    prev_nanos - (prev_nanos >> EWMA_SHIFT) + (sample_nanos >> EWMA_SHIFT)
}

/// Predicted time until a request flushes when `queued` requests are
/// already waiting in its lane's queue — the request itself not counted:
/// [`admit`] passes the queue's pending length. That is
/// `ceil(queued / max_batch)` flushes, each taking `ewma_flush`, so an
/// empty queue predicts zero wait.
///
/// Pure in its arguments — two submitters observing the same queue depth
/// and estimate get the same prediction regardless of arrival order (the
/// `flush_decision`-style invariance the proptests pin). Monotone in
/// `queued` and in `ewma_flush`, anti-monotone in `max_batch`.
pub fn predicted_wait(queued: usize, max_batch: usize, ewma_flush: Duration) -> Duration {
    debug_assert!(max_batch > 0, "predicted_wait: max_batch must be non-zero");
    let flushes = queued.div_ceil(max_batch.max(1)) as u32;
    ewma_flush.saturating_mul(flushes)
}

/// Feasibility sub-policy of [`ShedPolicy`]: refuse a request up front
/// ([`SubmitRefusal::Infeasible`](crate::SubmitRefusal::Infeasible)) when its
/// predicted wait exceeds its deadline (see [`admit`]).
///
/// The estimator needs history before it can be trusted: no request is
/// ever refused on feasibility before the lane has timed at least
/// [`min_flushes`](Self::min_flushes) flushes (the cold-start gate), and a
/// still-warming lane — which has timed none — therefore never refuses on
/// feasibility at all (warming admission stays governed by
/// [`ShedPolicy::min_warming_delay`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeasibilityPolicy {
    /// Observed (timed) flushes required before predictions are acted on.
    /// `0` behaves as `1`: an estimate only exists after the first timed
    /// flush.
    pub min_flushes: u64,
}

impl Default for FeasibilityPolicy {
    /// Trust the estimator after 8 timed flushes — one full EWMA window at
    /// the [`EWMA_SHIFT`] weight.
    fn default() -> Self {
        Self { min_flushes: 8 }
    }
}

/// What [`admit`] sees of a lane when a request reaches it: plain values,
/// read under the lane's queue lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneView {
    /// Requests already queued (the request being admitted not counted).
    pub pending: usize,
    /// The lane's queue bound ([`ServeConfig::queue_cap`](crate::ServeConfig::queue_cap)).
    pub queue_cap: usize,
    /// The lane's flush width ([`ServeConfig::max_batch`](crate::ServeConfig::max_batch)).
    pub max_batch: usize,
    /// The lane is still [`Warming`](crate::LaneState::Warming).
    pub warming: bool,
    /// The request created the lane: its chain is the warm-up's template.
    pub creator: bool,
    /// The lane's EWMA flush latency once it has timed
    /// [`FeasibilityPolicy::min_flushes`] flushes; `None` for a cold
    /// estimator.
    pub flush_estimate: Option<Duration>,
}

/// What [`admit`] tells a lane to do with a request it does not refuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneAdmission {
    /// Queue the request now.
    Enqueue,
    /// The queue is full and the caller blocks: wait for room, then ask
    /// [`admit`] again with a fresh [`LaneView`].
    Park,
}

/// The admission decision: what a lane does with a request whose delay
/// budget is `delay`, submitted blocking (`block`) or not. Every refusal a
/// lane can issue is decided here, and the lane's enqueue path calls
/// exactly this function — again after every park. Pure.
///
/// The checks, in precedence order:
///
/// 1. **Seeding exemption.** The lane's creator, or any request reaching
///    a warming lane whose queue is empty, seeds the warm-up: the
///    dispatcher plans from the first queued chain, whoever's it is. No
///    shed, warming or feasibility check applies to it — refusing it would
///    leave the lane warming with nothing to plan from.
/// 2. **Depth shed.** At least [`ShedPolicy::max_queue_depth`] requests
///    queued: [`SubmitRefusal::Shed`].
/// 3. **Warming, non-blocking.** A warming lane refuses a non-blocking
///    caller with [`SubmitRefusal::LaneWarming`] (not a shed: the caller
///    can route traffic elsewhere).
/// 4. **Warming-delay shed.** A warming lane refuses a blocking request
///    whose budget is below [`ShedPolicy::min_warming_delay`] — the
///    warm-up would consume it: [`SubmitRefusal::Shed`].
/// 5. **Feasibility.** With [`ShedPolicy::feasibility`] armed and a
///    trained estimate, a [`predicted_wait`] strictly longer than `delay`
///    refuses with [`SubmitRefusal::Infeasible`] (a wait equal to the
///    budget is feasible). Last of the policy checks: it is the most
///    speculative.
/// 6. **Capacity.** Room below [`LaneView::queue_cap`] enqueues; a full
///    queue refuses a non-blocking caller with
///    [`SubmitRefusal::Backpressure`] and parks a blocking one.
pub fn admit(
    policy: &ShedPolicy,
    lane: &LaneView,
    delay: Duration,
    block: bool,
) -> Result<LaneAdmission, SubmitRefusal> {
    let seeds_warmup = lane.creator || (lane.warming && lane.pending == 0);
    if !seeds_warmup {
        if policy
            .max_queue_depth
            .is_some_and(|max| lane.pending >= max)
        {
            return Err(SubmitRefusal::Shed);
        }
        if lane.warming && !block {
            return Err(SubmitRefusal::LaneWarming);
        }
        if lane.warming && policy.min_warming_delay.is_some_and(|min| delay < min) {
            return Err(SubmitRefusal::Shed);
        }
        let infeasible = policy.feasibility.is_some()
            && lane
                .flush_estimate
                .is_some_and(|ewma| predicted_wait(lane.pending, lane.max_batch, ewma) > delay);
        if infeasible {
            return Err(SubmitRefusal::Infeasible);
        }
    }
    if lane.pending < lane.queue_cap {
        Ok(LaneAdmission::Enqueue)
    } else if block {
        Ok(LaneAdmission::Park)
    } else {
        Err(SubmitRefusal::Backpressure)
    }
}

/// Stall-watchdog configuration: enables the per-service supervisor
/// thread via [`ServeConfig::watchdog`](crate::ServeConfig::watchdog).
///
/// The dispatcher publishes each flush's ticket set and start instant
/// before executing; the supervisor polls every
/// [`poll_interval`](Self::poll_interval) and, when a flush has been
/// executing longer than [`stall_budget`](Self::stall_budget), condemns
/// the lane: assembled requests fail with
/// [`ServeError::FlushStalled`](crate::ServeError::FlushStalled), queued
/// requests fail with chains handed back, and the shape is quarantined
/// for the breaker cool-down (half-open probe recovery as usual). Every
/// affected waiter therefore resolves within
/// `stall_budget + poll_interval` plus scheduling grace — no ticket ever
/// hangs on a stalled (not panicked) execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogPolicy {
    /// Longest a single flush may sit inside execution before the lane is
    /// declared stalled.
    pub stall_budget: Duration,
    /// How often the supervisor samples lane progress. Bounds detection
    /// latency on top of `stall_budget`; keep it a fraction of the budget.
    pub poll_interval: Duration,
}

impl Default for WatchdogPolicy {
    /// A 2 s stall budget sampled every 100 ms — far above any healthy
    /// flush, far below a hung one.
    fn default() -> Self {
        Self {
            stall_budget: Duration::from_secs(2),
            poll_interval: Duration::from_millis(100),
        }
    }
}

impl WatchdogPolicy {
    /// Panics if the policy is not internally consistent (zero budget or
    /// poll interval).
    pub fn validate(&self) {
        assert!(
            !self.stall_budget.is_zero(),
            "WatchdogPolicy::stall_budget must be non-zero"
        );
        assert!(
            !self.poll_interval.is_zero(),
            "WatchdogPolicy::poll_interval must be non-zero"
        );
    }

    /// Pure stall predicate: has a flush running `elapsed` exceeded the
    /// budget? Exclusive boundary — exactly `stall_budget` is not yet a
    /// stall.
    pub fn is_stalled(&self, elapsed: Duration) -> bool {
        elapsed > self.stall_budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_adopts_first_sample_then_blends() {
        assert_eq!(ewma_update(0, 8000), 8000);
        let next = ewma_update(8000, 16000);
        assert_eq!(next, 8000 - 1000 + 2000);
        // Converges toward a constant stream.
        let mut e = 0;
        for _ in 0..200 {
            e = ewma_update(e, 1_000_000);
        }
        assert!(e > 990_000 && e <= 1_000_000, "converged near 1ms: {e}");
    }

    #[test]
    fn predicted_wait_counts_full_flushes_ahead() {
        let ewma = Duration::from_millis(2);
        // Position 1..=max_batch: one flush away.
        assert_eq!(predicted_wait(1, 8, ewma), ewma);
        assert_eq!(predicted_wait(8, 8, ewma), ewma);
        // Position max_batch+1: two flushes.
        assert_eq!(predicted_wait(9, 8, ewma), ewma * 2);
        assert_eq!(predicted_wait(0, 8, ewma), Duration::ZERO);
    }

    #[test]
    fn feasibility_boundary_is_exclusive_and_cold_start_never_sheds() {
        let policy = ShedPolicy {
            feasibility: Some(FeasibilityPolicy { min_flushes: 8 }),
            ..ShedPolicy::disabled()
        };
        let lane = |pending, flush_estimate| LaneView {
            pending,
            queue_cap: 2000,
            max_batch: 4,
            warming: false,
            creator: false,
            flush_estimate,
        };
        let ewma = Some(Duration::from_millis(1));
        let budget = Duration::from_millis(1);
        // Exactly-equal predicted wait is still feasible.
        assert_eq!(
            admit(&policy, &lane(4, ewma), budget, true),
            Ok(LaneAdmission::Enqueue)
        );
        assert_eq!(
            admit(&policy, &lane(5, ewma), budget, true),
            Err(SubmitRefusal::Infeasible)
        );
        // Below the cold-start gate there is no estimate → no refusal,
        // whatever the deadline.
        assert_eq!(
            admit(&policy, &lane(1000, None), Duration::ZERO, true),
            Ok(LaneAdmission::Enqueue)
        );
    }

    #[test]
    fn watchdog_stall_boundary_is_exclusive() {
        let w = WatchdogPolicy {
            stall_budget: Duration::from_millis(50),
            poll_interval: Duration::from_millis(5),
        };
        w.validate();
        assert!(!w.is_stalled(Duration::from_millis(50)));
        assert!(w.is_stalled(Duration::from_millis(51)));
    }

    #[test]
    #[should_panic(expected = "stall_budget must be non-zero")]
    fn zero_stall_budget_rejected() {
        WatchdogPolicy {
            stall_budget: Duration::ZERO,
            poll_interval: Duration::from_millis(5),
        }
        .validate();
    }
}
