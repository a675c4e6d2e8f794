//! Property-based tests for the serving layer's pure policy arithmetic.
//!
//! Two decision functions gate every request's path through a lane, and
//! both are deliberately pure so they can be pinned here without threads:
//!
//! * [`admit`] — the one admission decision a lane applies to every
//!   request (and again after every park): enqueue, park, or refuse. The
//!   properties that make it *safe* are monotonicity (adding queue depth
//!   or shrinking a delay budget never turns a refusal or a park back
//!   into an enqueue — otherwise shedding would oscillate under load), the
//!   seeding exemption (the request a lane's warm-up plan is built from is
//!   never shed, or a cold shape could starve itself forever), and a fixed
//!   precedence order among the refusals.
//! * [`flush_decision`] — the dispatcher's wait-loop timer. The property
//!   that makes deadline batching *correct* is that the timer follows the
//!   **earliest** pending deadline whatever order requests arrived in:
//!   the decision is a pure function of the deadline *multiset*, `Flush`
//!   fires exactly when that minimum has passed, and `WaitUntil` targets
//!   exactly that minimum (never a later deadline, which would let the
//!   earliest request miss).

use bppsa_serve::{
    admit, flush_decision, FeasibilityPolicy, FlushCause, FlushDecision, LaneAdmission, LaneView,
    ShedPolicy, SubmitRefusal,
};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// An arbitrary shed policy: each threshold independently absent or set.
fn shed_policy() -> impl Strategy<Value = ShedPolicy> {
    (
        (any::<bool>(), 1..64usize),
        (any::<bool>(), 0..200_000u64),
        (any::<bool>(), 0..32u64),
    )
        .prop_map(
            |((arm_depth, depth), (arm_delay, min_us), (arm_feasible, min_flushes))| ShedPolicy {
                max_queue_depth: arm_depth.then_some(depth),
                min_warming_delay: arm_delay.then(|| Duration::from_micros(min_us)),
                feasibility: arm_feasible.then_some(FeasibilityPolicy { min_flushes }),
            },
        )
}

/// An arbitrary lane as `admit` sees it; the estimate is cold (`None`) a
/// quarter of the time.
fn lane_view() -> impl Strategy<Value = LaneView> {
    (
        0..96usize,
        1..96usize,
        1..16usize,
        any::<bool>(),
        any::<bool>(),
        (0..4u8, 0..50_000u64),
    )
        .prop_map(
            |(pending, queue_cap, max_batch, warming, creator, (cold, ewma_us))| LaneView {
                pending,
                queue_cap,
                max_batch,
                warming,
                creator,
                flush_estimate: (cold != 0).then(|| Duration::from_micros(ewma_us)),
            },
        )
}

/// How bad an outcome is: enqueue < park < refusal. "Never improves"
/// means this rank never falls.
fn rank(outcome: Result<LaneAdmission, SubmitRefusal>) -> u8 {
    match outcome {
        Ok(LaneAdmission::Enqueue) => 0,
        Ok(LaneAdmission::Park) => 1,
        Err(_) => 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // More queued work never improves the outcome: whatever `admit` does
    // at depth `d`, it does no better at any depth above `d`.
    #[test]
    fn shed_depth_is_monotone(
        policy in shed_policy(),
        lane in lane_view(),
        extra in 0..96usize,
        delay_us in 0..300_000u64,
        block in any::<bool>(),
    ) {
        let delay = Duration::from_micros(delay_us);
        let deeper = LaneView { pending: lane.pending + extra, ..lane };
        let (at, below) = (admit(&policy, &lane, delay, block), admit(&policy, &deeper, delay, block));
        prop_assert!(
            rank(below) >= rank(at),
            "{:?} at depth {} but {:?} at deeper {}", at, lane.pending, below, deeper.pending
        );
    }

    // A tighter budget never improves the outcome: whatever `admit` does
    // with a delay budget, it does no better with any shorter one.
    #[test]
    fn shed_warming_delay_is_anti_monotone(
        policy in shed_policy(),
        lane in lane_view(),
        delay_us in 0..300_000u64,
        cut_us in 0..300_000u64,
        block in any::<bool>(),
    ) {
        let delay = Duration::from_micros(delay_us);
        let shorter = Duration::from_micros(delay_us.saturating_sub(cut_us));
        let (at, tighter) = (admit(&policy, &lane, delay, block), admit(&policy, &lane, shorter, block));
        prop_assert!(
            rank(tighter) >= rank(at),
            "{:?} at {:?} but {:?} with the shorter budget {:?}", at, delay, tighter, shorter
        );
    }

    // Both at once: raising the queue depth *and* cutting the budget never
    // flips a refusal or a park back to an enqueue.
    #[test]
    fn full_decision_is_monotone_under_load(
        policy in shed_policy(),
        lane in lane_view(),
        extra in 0..96usize,
        delay_us in 0..300_000u64,
        cut_us in 0..300_000u64,
        block in any::<bool>(),
    ) {
        let delay = Duration::from_micros(delay_us);
        let worse = Duration::from_micros(delay_us.saturating_sub(cut_us));
        let deeper = LaneView { pending: lane.pending + extra, ..lane };
        let at = admit(&policy, &lane, delay, block);
        let under_load = admit(&policy, &deeper, worse, block);
        prop_assert!(
            rank(under_load) >= rank(at),
            "{:?} at (depth {}, delay {:?}) but {:?} at the worse (depth {}, delay {:?})",
            at, lane.pending, delay, under_load, deeper.pending, worse
        );
    }

    // The request that seeds a lane's warm-up — its creator, or whoever
    // reaches a warming lane with an empty queue — is never shed, refused
    // as infeasible or refused for warming, whatever the policy and
    // however hopeless its budget looks: it *is* the template the plan
    // gets built from, so refusing it would starve the shape.
    #[test]
    fn seeding_requests_are_never_shed(
        policy in shed_policy(),
        lane in lane_view(),
        creator in any::<bool>(),
        delay_us in 0..300_000u64,
        block in any::<bool>(),
    ) {
        // Either the creator, or an empty warming lane.
        let seed = if creator {
            LaneView { creator: true, ..lane }
        } else {
            LaneView { pending: 0, warming: true, ..lane }
        };
        let outcome = admit(&policy, &seed, Duration::from_micros(delay_us), block);
        prop_assert!(
            !matches!(
                outcome,
                Err(SubmitRefusal::Shed | SubmitRefusal::Infeasible | SubmitRefusal::LaneWarming)
            ),
            "a lane-seeding request got {:?} from {:?}", outcome, policy
        );
    }

    // Every outcome is explained by its own component, and a disabled
    // policy refuses only for warming or backpressure — the two refusals
    // that are not shedding.
    #[test]
    fn decision_decomposes_into_components(
        policy in shed_policy(),
        lane in lane_view(),
        delay_us in 0..300_000u64,
        block in any::<bool>(),
    ) {
        let delay = Duration::from_micros(delay_us);
        let seeds = lane.creator || (lane.warming && lane.pending == 0);
        let full = lane.pending >= lane.queue_cap;
        match admit(&policy, &lane, delay, block) {
            Ok(LaneAdmission::Enqueue) => prop_assert!(!full),
            Ok(LaneAdmission::Park) => prop_assert!(block && full),
            Err(SubmitRefusal::Backpressure) => prop_assert!(!block && full),
            Err(SubmitRefusal::LaneWarming) => prop_assert!(!seeds && lane.warming && !block),
            Err(SubmitRefusal::Shed) => prop_assert!(
                !seeds
                    && (policy.max_queue_depth.is_some_and(|max| lane.pending >= max)
                        || (lane.warming && policy.min_warming_delay.is_some_and(|min| delay < min)))
            ),
            Err(SubmitRefusal::Infeasible) => prop_assert!(
                !seeds && policy.feasibility.is_some() && lane.flush_estimate.is_some()
            ),
            Err(other) => prop_assert!(false, "admit never decides {:?}", other),
        }
        let disabled = admit(&ShedPolicy::disabled(), &lane, delay, block);
        prop_assert!(
            matches!(
                disabled,
                Ok(_) | Err(SubmitRefusal::LaneWarming | SubmitRefusal::Backpressure)
            ),
            "a disabled policy refused with {:?}", disabled
        );
    }
}

/// One row per check, each built so that it and every later check would
/// refuse: the expected outcome is always the earliest check's.
#[test]
fn admit_applies_checks_in_precedence_order() {
    let everything = ShedPolicy {
        max_queue_depth: Some(2),
        min_warming_delay: Some(Duration::from_millis(10)),
        feasibility: Some(FeasibilityPolicy { min_flushes: 1 }),
    };
    // Full, over the depth threshold, warming, and a trained estimate that
    // predicts a 4 ms wait against a 1 ms budget.
    let doomed = LaneView {
        pending: 4,
        queue_cap: 4,
        max_batch: 2,
        warming: true,
        creator: false,
        flush_estimate: Some(Duration::from_millis(2)),
    };
    let budget = Duration::from_millis(1);
    let no_depth = ShedPolicy {
        max_queue_depth: None,
        ..everything
    };
    let feasibility_only = ShedPolicy {
        min_warming_delay: None,
        ..no_depth
    };
    let live = LaneView {
        warming: false,
        ..doomed
    };
    type Row = (
        &'static str,
        ShedPolicy,
        LaneView,
        bool,
        Result<LaneAdmission, SubmitRefusal>,
    );
    let rows: [Row; 8] = [
        // 1. The creator skips every policy check, but not the queue bound.
        (
            "creator, blocking",
            everything,
            LaneView {
                creator: true,
                ..doomed
            },
            true,
            Ok(LaneAdmission::Park),
        ),
        (
            "creator, non-blocking",
            everything,
            LaneView {
                creator: true,
                ..doomed
            },
            false,
            Err(SubmitRefusal::Backpressure),
        ),
        // 2. Depth shed beats warming, warming delay, feasibility and capacity.
        ("depth", everything, doomed, false, Err(SubmitRefusal::Shed)),
        // 3. Warming refuses a non-blocking caller before any later check.
        (
            "warming, non-blocking",
            no_depth,
            doomed,
            false,
            Err(SubmitRefusal::LaneWarming),
        ),
        // 4. Warming-delay shed beats feasibility and capacity.
        (
            "warming delay",
            no_depth,
            doomed,
            true,
            Err(SubmitRefusal::Shed),
        ),
        // 5. Feasibility beats capacity.
        (
            "feasibility",
            feasibility_only,
            live,
            true,
            Err(SubmitRefusal::Infeasible),
        ),
        // 6. Capacity last: park a blocking caller, refuse the rest.
        (
            "capacity, blocking",
            ShedPolicy::disabled(),
            live,
            true,
            Ok(LaneAdmission::Park),
        ),
        (
            "capacity, non-blocking",
            ShedPolicy::disabled(),
            live,
            false,
            Err(SubmitRefusal::Backpressure),
        ),
    ];
    for (what, policy, lane, block, expect) in rows {
        assert_eq!(admit(&policy, &lane, budget, block), expect, "{what}");
    }
    // With room in the queue and nothing armed, the request is enqueued.
    let room = LaneView { pending: 1, ..live };
    assert_eq!(
        admit(&ShedPolicy::disabled(), &room, budget, false),
        Ok(LaneAdmission::Enqueue)
    );
}

/// Pending-request deadlines as offsets (in microseconds) around `now`:
/// negative offsets are already expired, positive ones are still in the
/// future. Offsets are deliberately allowed to collide (equal deadlines).
fn deadline_offsets() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-50_000..50_000i64, 0..24)
}

fn materialize(base: Instant, offsets: &[i64]) -> Vec<Instant> {
    offsets
        .iter()
        .map(|&us| {
            if us >= 0 {
                base + Duration::from_micros(us as u64)
            } else {
                base - Duration::from_micros(us.unsigned_abs())
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The flush timer follows the earliest pending deadline under
    // arbitrary arrival orderings. Against the pending set's *sorted*
    // model this pins, for every case the dispatcher can see:
    //
    // * `max_batch` reached → `Flush(MaxBatch)` regardless of deadlines;
    // * empty queue → `Park` while open, `Retire` once closed;
    // * non-empty closed queue → `Flush(Drain)` (shutdown never waits);
    // * otherwise the earliest deadline decides: passed → it flushes
    //   `Flush(Deadline)` *now*; still ahead → `WaitUntil` exactly that
    //   minimum, never a later deadline.
    #[test]
    fn flush_decision_follows_earliest_deadline(
        offsets in deadline_offsets(),
        open in any::<bool>(),
        max_batch in 1..12usize,
    ) {
        let now = Instant::now();
        let deadlines = materialize(now, &offsets);
        let decision = flush_decision(deadlines.iter().copied(), open, max_batch, now);

        let earliest = deadlines.iter().copied().min();
        let expect = if deadlines.len() >= max_batch {
            FlushDecision::Flush(FlushCause::MaxBatch)
        } else {
            match earliest {
                None if open => FlushDecision::Park,
                None => FlushDecision::Retire,
                Some(_) if !open => FlushDecision::Flush(FlushCause::Drain),
                Some(e) if now >= e => FlushDecision::Flush(FlushCause::Deadline),
                Some(e) => FlushDecision::WaitUntil(e),
            }
        };
        prop_assert_eq!(decision, expect, "against the sorted model");

        if let FlushDecision::WaitUntil(target) = decision {
            let e = earliest.expect("WaitUntil implies a pending request");
            prop_assert_eq!(target, e, "timer must target the minimum deadline");
            prop_assert!(target > now, "WaitUntil in the past would stall a due flush");
        }
    }

    // Arrival order is irrelevant: any permutation of the pending set
    // (here: reversal and a deterministic rotation, two permutations that
    // move every element for length > 1) produces the identical decision.
    #[test]
    fn flush_decision_is_order_invariant(
        offsets in deadline_offsets(),
        open in any::<bool>(),
        max_batch in 1..12usize,
        rot in 0..24usize,
    ) {
        let now = Instant::now();
        let deadlines = materialize(now, &offsets);
        let baseline = flush_decision(deadlines.iter().copied(), open, max_batch, now);

        let reversed = flush_decision(deadlines.iter().rev().copied(), open, max_batch, now);
        prop_assert_eq!(reversed, baseline, "reversal changed the decision");

        if !deadlines.is_empty() {
            let k = rot % deadlines.len();
            let rotated = deadlines[k..].iter().chain(&deadlines[..k]).copied();
            prop_assert_eq!(
                flush_decision(rotated, open, max_batch, now),
                baseline,
                "rotation by {} changed the decision",
                k
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Overload-policy arithmetic: the EWMA flush estimator and the feasibility
// check it feeds inside `admit`. All pure, so the properties that make
// overload shedding safe pin down here without threads: the estimator
// always lands between its inputs (no overshoot that could refuse a
// healthy lane), the check is monotone in queue depth and anti-monotone in
// the delay budget (no oscillation under load), exact at its boundary, and
// a cold estimator never refuses anything.
// ---------------------------------------------------------------------------

use bppsa_serve::{ewma_update, predicted_wait};

/// A lane on which no check before feasibility can refuse: live, not the
/// creator, room in the queue, depth shedding off.
fn steady_lane(pending: usize, max_batch: usize, ewma_us: u64) -> LaneView {
    LaneView {
        pending,
        queue_cap: pending + 1,
        max_batch,
        warming: false,
        creator: false,
        flush_estimate: Some(Duration::from_micros(ewma_us)),
    }
}

fn feasibility() -> impl Strategy<Value = ShedPolicy> {
    (0..32u64).prop_map(|min_flushes| ShedPolicy {
        feasibility: Some(FeasibilityPolicy { min_flushes }),
        ..ShedPolicy::disabled()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The estimator is a convex combination: the update always lands in
    // the closed interval between the previous estimate and the sample.
    // (With the cold-start adoption rule, prev == 0 jumps straight to the
    // sample — also inside the interval.)
    #[test]
    fn ewma_stays_between_previous_and_sample(
        prev in 0..u64::MAX / 2,
        sample in 0..u64::MAX / 2,
    ) {
        let next = ewma_update(prev, sample);
        let (lo, hi) = (prev.min(sample), prev.max(sample));
        if prev == 0 {
            prop_assert_eq!(next, sample, "cold estimator adopts the first sample");
        } else {
            prop_assert!(next >= lo && next <= hi, "{} outside [{}, {}]", next, lo, hi);
        }
    }

    // When no earlier check refuses, `admit` refuses as infeasible exactly
    // when the predicted wait strictly exceeds the budget (a wait equal to
    // the budget is still feasible) — and the same inputs always give the
    // same answer.
    #[test]
    fn feasibility_predicate_is_pure(
        policy in feasibility(),
        queued in 0..256usize,
        max_batch in 1..32usize,
        ewma_us in 0..1_000_000u64,
        deadline_us in 0..1_000_000u64,
        block in any::<bool>(),
    ) {
        let lane = steady_lane(queued, max_batch, ewma_us);
        let deadline = Duration::from_micros(deadline_us);
        let first = admit(&policy, &lane, deadline, block);
        for _ in 0..4 {
            prop_assert_eq!(first, admit(&policy, &lane, deadline, block));
        }
        let wait = predicted_wait(queued, max_batch, Duration::from_micros(ewma_us));
        let expect = if wait > deadline {
            Err(SubmitRefusal::Infeasible)
        } else {
            Ok(LaneAdmission::Enqueue)
        };
        prop_assert_eq!(first, expect);
    }

    // Deeper queues never un-refuse, and a *longer* delay budget never
    // turns an accept into a refusal — the monotonicities that stop
    // feasibility shedding from oscillating under steady load.
    #[test]
    fn feasibility_is_monotone_in_depth_and_anti_monotone_in_budget(
        policy in feasibility(),
        queued in 0..128usize,
        extra in 0..128usize,
        max_batch in 1..32usize,
        ewma_us in 1..500_000u64,
        deadline_us in 0..1_000_000u64,
        slack_us in 0..1_000_000u64,
    ) {
        let deadline = Duration::from_micros(deadline_us);
        let infeasible = |queued, deadline| {
            admit(&policy, &steady_lane(queued, max_batch, ewma_us), deadline, true)
                == Err(SubmitRefusal::Infeasible)
        };
        if infeasible(queued, deadline) {
            prop_assert!(
                infeasible(queued + extra, deadline),
                "refused at depth {} but accepted at deeper {}", queued, queued + extra
            );
        } else {
            prop_assert!(
                !infeasible(queued, deadline + Duration::from_micros(slack_us)),
                "accepted with budget {:?} but refused with more slack", deadline
            );
        }
    }

    // The cold-start gate: with no estimate (fewer than `min_flushes`
    // samples recorded), nothing is ever refused as infeasible, whatever
    // the queue looks like — an untrained estimator must not refuse
    // traffic.
    #[test]
    fn cold_estimator_never_sheds(
        policy in shed_policy(),
        lane in lane_view(),
        deadline_us in 0..1_000_000u64,
        block in any::<bool>(),
    ) {
        let cold = LaneView { flush_estimate: None, ..lane };
        prop_assert_ne!(
            admit(&policy, &cold, Duration::from_micros(deadline_us), block),
            Err(SubmitRefusal::Infeasible)
        );
    }

    // Predicted wait is `ceil(queued / max_batch)` flushes' worth of the
    // estimate: monotone in depth, anti-monotone in batch width, and an
    // empty queue predicts zero wait.
    #[test]
    fn predicted_wait_counts_whole_flushes(
        queued in 0..1024usize,
        max_batch in 1..64usize,
        ewma_us in 0..100_000u64,
    ) {
        let ewma = Duration::from_micros(ewma_us);
        let wait = predicted_wait(queued, max_batch, ewma);
        prop_assert_eq!(wait, ewma * (queued.div_ceil(max_batch) as u32));
        prop_assert!(predicted_wait(queued + 1, max_batch, ewma) >= wait);
        prop_assert!(predicted_wait(queued, max_batch + 1, ewma) <= wait);
        prop_assert_eq!(predicted_wait(0, max_batch, ewma), Duration::ZERO);
    }
}
