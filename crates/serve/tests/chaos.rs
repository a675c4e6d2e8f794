//! Seeded chaos suite for the serving stack's supervision layer.
//!
//! Every test drives faults through the scriptable/seeded [`FaultInjector`]
//! and asserts the tentpole invariants of lane supervision:
//!
//! 1. **No hung tickets.** Under any fault schedule, every accepted request
//!    reaches a *terminal* state — each `wait_timeout` probe returns
//!    `Some(outcome)` well within its window, never `None` forever.
//! 2. **Exact results.** Requests that complete successfully are
//!    **bit-for-bit** identical to serial single-workspace execution — a
//!    fault on one lane never corrupts another lane's arithmetic.
//! 3. **Conservation.** `completed + failed + refused == attempts`: every
//!    submission is accounted for exactly once, across shedding, breaker
//!    quarantine, deadline expiry, plan panics, and dispatcher death.
//! 4. **Deterministic recovery.** The circuit breaker trips after exactly
//!    the configured consecutive-panic streak, refuses the shape during
//!    cool-down, and re-admits it through a single half-open probe whose
//!    success returns the shape to live service.

use bppsa_core::{BppsaOptions, JacobianChain, PlannedScan, ScanElement};
use bppsa_serve::{
    BppsaService, BreakerPolicy, DeadlinePolicy, FaultInjector, FaultRates, FaultScript, LaneState,
    ServeConfig, ServeError, ShedPolicy, SubmitError, SubmitRefusal, Ticket,
};
use bppsa_sparse::Csr;
use bppsa_tensor::init::{seeded_rng, uniform_vector};
use bppsa_tensor::Matrix;
use rand::Rng;
use std::time::{Duration, Instant};

/// Generous bound for "this ticket must terminate": far above any injected
/// stall or cool-down in this file, far below the test harness timeout.
const TERMINAL: Duration = Duration::from_secs(20);

fn sparse_chain(n: usize, width: usize, seed: u64) -> JacobianChain<f64> {
    let mut rng = seeded_rng(seed);
    let mut chain = JacobianChain::new(uniform_vector(&mut rng, width, 1.0));
    for _ in 0..n {
        let dense = Matrix::from_fn(width, width, |_, _| {
            if rng.random_range(0.0..1.0) < 0.35 {
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

/// Serial single-workspace reference gradients for `chain`.
fn reference(chain: &JacobianChain<f64>) -> Vec<Vec<f64>> {
    let plan = PlannedScan::plan(chain, BppsaOptions::serial());
    let mut ws = plan.workspace::<f64>();
    plan.execute_with(chain, &mut ws)
        .grads()
        .iter()
        .map(|g| g.as_slice().to_vec())
        .collect()
}

/// `wait_timeout` under the terminal bound — a `None` here is a hung
/// ticket, the exact bug class this suite exists to catch.
fn must_terminate(ticket: &Ticket<f64>, what: &str) -> Result<(), ServeError> {
    ticket
        .wait_timeout(TERMINAL)
        .unwrap_or_else(|| panic!("{what}: ticket still pending after {TERMINAL:?} (hung)"))
}

/// The retry loop a caller writes on the refusal contract: resubmit the
/// handed-back chain every 2 ms while the refusal is transient and 5 s
/// have not passed; otherwise return the outcome as it stands.
fn submit_while_transient(
    service: &BppsaService<f64>,
    chain: JacobianChain<f64>,
    ticket: &Ticket<f64>,
) -> Result<(), SubmitError<f64>> {
    let start = Instant::now();
    let mut chain = chain;
    loop {
        match service.submit(chain, ticket) {
            Err(e) if e.kind().is_transient() && start.elapsed() < Duration::from_secs(5) => {
                std::thread::sleep(Duration::from_millis(2));
                chain = e.into_chain();
            }
            outcome => return outcome,
        }
    }
}

fn breaker_config(max_batch: usize, cooldown: Duration) -> ServeConfig {
    ServeConfig {
        max_batch,
        max_delay: Duration::from_micros(300),
        queue_cap: 32,
        max_lanes: 4,
        shed: ShedPolicy::disabled(),
        breaker: BreakerPolicy {
            max_consecutive_panics: Some(2),
            cooldown,
        },
        ..ServeConfig::default()
    }
}

#[test]
fn breaker_trips_after_streak_refuses_in_cooldown_and_probe_recovers() {
    let cooldown = Duration::from_millis(250);
    // max_batch 1: every request is its own flush, so the panic streak is
    // exactly the request count.
    let mut config = breaker_config(1, cooldown);
    config.faults = FaultInjector::scripted(FaultScript::new().batch_panic_times(0, 2));
    let service = BppsaService::<f64>::new(config);
    let template = sparse_chain(5, 6, 11);

    // Two injected batch panics in a row: streak reaches the threshold.
    for k in 0..2u64 {
        let ticket = Ticket::new();
        service
            .submit(revalue(&template, 20 + k), &ticket)
            .expect("lane accepts while breaker counts");
        assert_eq!(
            must_terminate(&ticket, "panicking batch"),
            Err(ServeError::BatchPanicked),
            "request {k} fails with per-batch attribution"
        );
        let _ = ticket.take_chain();
    }
    // The trip happens on the dispatcher thread after the second failure
    // is delivered; wait for it to become observable.
    let deadline = Instant::now() + TERMINAL;
    while !service
        .metrics()
        .iter()
        .any(|l| l.state == LaneState::Quarantined)
    {
        assert!(Instant::now() < deadline, "breaker never tripped");
        std::thread::yield_now();
    }
    let tripped = Instant::now();

    // During cool-down the shape is refused at the door, chain handed back.
    let ticket = Ticket::new();
    match service.submit(revalue(&template, 30), &ticket) {
        Err(e) if e.kind() == SubmitRefusal::Quarantined => {
            assert_eq!(e.into_chain().num_layers(), 5, "chain handed back intact");
        }
        other => panic!("expected Quarantined during cool-down, got {other:?}"),
    }
    assert!(service.quarantine_refusals() >= 1);
    assert_eq!(service.quarantined_shapes(), 1);

    // After the cool-down, exactly one request is admitted as the
    // half-open probe; the fault rules are spent, so it proves the shape
    // healthy and the quarantine lifts.
    std::thread::sleep(cooldown.saturating_sub(tripped.elapsed()) + Duration::from_millis(10));
    let probe_chain = revalue(&template, 31);
    let expect = reference(&probe_chain);
    let probe = Ticket::new();
    service
        .submit(probe_chain, &probe)
        .expect("cool-down elapsed: the probe is admitted");
    assert_eq!(must_terminate(&probe, "probe"), Ok(()));
    probe.with_result(|r| {
        for (g, e) in r.grads().iter().zip(&expect) {
            assert_eq!(g.as_slice(), e.as_slice(), "probe result bit-for-bit");
        }
    });
    assert_eq!(
        service.quarantined_shapes(),
        0,
        "probe success lifts quarantine"
    );

    // Fully recovered: ordinary traffic serves again.
    let after = Ticket::new();
    service
        .submit(revalue(&template, 32), &after)
        .expect("shape is live again");
    assert_eq!(must_terminate(&after, "post-recovery"), Ok(()));

    let snaps = service.metrics();
    let dead = snaps
        .iter()
        .find(|l| l.state == LaneState::Quarantined)
        .expect("tripped lane metrics retained");
    assert_eq!(dead.batch_panics, 2, "streak of exactly the threshold");
    assert!(dead.breaker_tripped);
}

/// The breaker publishes its verdict before the tickets that produced it
/// resolve: the moment the tripping request's ticket resolves the shape is
/// already quarantined, and the moment the half-open probe's ticket
/// resolves the quarantine is already lifted — no polling, no sleep in
/// between — so a client resubmitting right away is admitted.
#[test]
fn breaker_state_is_published_before_tickets_resolve() {
    let cooldown = Duration::from_millis(60);
    let mut config = breaker_config(1, cooldown);
    config.faults = FaultInjector::scripted(FaultScript::new().batch_panic_times(0, 2));
    let service = BppsaService::<f64>::new(config);
    let template = sparse_chain(5, 6, 13);

    for k in 0..2u64 {
        let ticket = Ticket::new();
        service
            .submit(revalue(&template, 40 + k), &ticket)
            .expect("lane accepts while the breaker counts");
        assert_eq!(
            must_terminate(&ticket, "panicking batch"),
            Err(ServeError::BatchPanicked)
        );
        assert_eq!(
            service.quarantined_shapes(),
            k as usize,
            "trip state published before panic ticket {k} resolved"
        );
    }
    let tripped = Instant::now();

    // Past the cool-down (this wait is the breaker's, not the check's).
    std::thread::sleep(cooldown.saturating_sub(tripped.elapsed()) + Duration::from_millis(10));
    let probe = Ticket::new();
    service
        .submit(revalue(&template, 50), &probe)
        .expect("cool-down elapsed: the probe is admitted");
    assert_eq!(must_terminate(&probe, "probe"), Ok(()));
    assert_eq!(
        service.quarantined_shapes(),
        0,
        "probe success lifts the quarantine before its ticket resolves"
    );
    let again = Ticket::new();
    service
        .submit(revalue(&template, 51), &again)
        .expect("an immediate resubmission after the probe is admitted");
    assert_eq!(must_terminate(&again, "resubmission"), Ok(()));
}

/// A half-open probe whose dispatcher dies releases the shape's probe slot
/// before its tickets fail: a client resubmitting the moment its probe
/// request reports `LaneDied` is admitted as the next probe — no polling,
/// no sleep — instead of being refused `Quarantined` by the slot the dead
/// lane still held.
#[test]
fn dying_probe_releases_its_slot_before_its_tickets_fail() {
    let cooldown = Duration::from_millis(40);
    let mut config = breaker_config(1, cooldown);
    // Lane 0 trips after two panics; lane 1, the probe, dies at its first
    // flush.
    config.faults = FaultInjector::scripted(
        FaultScript::new()
            .batch_panic_times(0, 2)
            .kill_dispatcher_at_flush(1, 0),
    );
    let service = BppsaService::<f64>::new(config);
    let template = sparse_chain(5, 6, 17);

    for k in 0..2u64 {
        let ticket = Ticket::new();
        service
            .submit(revalue(&template, 100 + k), &ticket)
            .expect("lane accepts while the breaker counts");
        assert_eq!(
            must_terminate(&ticket, "panicking batch"),
            Err(ServeError::BatchPanicked)
        );
        let _ = ticket.take_chain();
    }
    // Past the cool-down (this wait is the breaker's, not the check's).
    std::thread::sleep(cooldown + Duration::from_millis(10));
    let ticket = Ticket::new();
    service
        .submit(revalue(&template, 110), &ticket)
        .expect("cool-down elapsed: the probe is admitted");
    assert_eq!(
        must_terminate(&ticket, "dying probe"),
        Err(ServeError::LaneDied)
    );

    let chain = ticket.take_chain();
    let expect = reference(&chain);
    service
        .submit(chain, &ticket)
        .expect("the dead probe released its slot: the next probe is admitted");
    assert_eq!(must_terminate(&ticket, "next probe"), Ok(()));
    ticket.with_result(|r| {
        for (g, e) in r.grads().iter().zip(&expect) {
            assert_eq!(g.as_slice(), e.as_slice(), "next probe bit-for-bit");
        }
    });
    assert_eq!(
        service.quarantined_shapes(),
        0,
        "the next probe's clean flush lifts the quarantine"
    );
    assert!(service.metrics().iter().any(|l| l.probe && l.died));
}

#[test]
fn plan_panic_with_breaker_quarantines_shape_immediately() {
    let cooldown = Duration::from_millis(250);
    let mut config = breaker_config(4, cooldown);
    config.faults = FaultInjector::scripted(FaultScript::new().plan_panic(0));
    let service = BppsaService::<f64>::new(config);
    let template = sparse_chain(4, 5, 12);

    // The seeding request's warm-up dies: PlanPanicked, and (threshold 1
    // for plan panics — nothing can execute without a plan) the shape is
    // quarantined at once.
    let seedling = Ticket::new();
    service
        .submit(revalue(&template, 40), &seedling)
        .expect("placeholder lane accepts its seed");
    assert_eq!(
        must_terminate(&seedling, "seed of plan-panicked lane"),
        Err(ServeError::PlanPanicked)
    );
    let _ = seedling.take_chain();

    let refusal = Ticket::new();
    match service.submit(revalue(&template, 41), &refusal) {
        Err(e) if e.kind() == SubmitRefusal::Quarantined => {}
        other => panic!("expected Quarantined after plan panic, got {other:?}"),
    }

    // Probe after cool-down: the plan rule is spent, warm-up succeeds, the
    // shape recovers.
    std::thread::sleep(cooldown + Duration::from_millis(10));
    let probe = Ticket::new();
    service
        .submit(revalue(&template, 42), &probe)
        .expect("probe admitted after cool-down");
    assert_eq!(must_terminate(&probe, "probe"), Ok(()));
    assert_eq!(service.quarantined_shapes(), 0);
}

#[test]
fn dispatcher_killed_at_start_leaves_no_hung_ticket() {
    let mut config = breaker_config(4, Duration::from_millis(50));
    config.breaker = BreakerPolicy::disabled();
    config.faults = FaultInjector::scripted(FaultScript::new().kill_dispatcher_at_start(0));
    let service = BppsaService::<f64>::new(config);
    let template = sparse_chain(4, 6, 13);

    // Race of the kill vs. the seeding push, both outcomes legal: the push
    // lands first and dies with the lane (LaneDied), or the supervisor
    // closes the queue first and the push re-routes to a fresh lane (rule
    // spent) and completes. Either way: terminal, never hung.
    let chain = revalue(&template, 50);
    let expect = reference(&chain);
    let ticket = Ticket::new();
    service
        .submit(chain, &ticket)
        .expect("accepted or re-routed");
    match must_terminate(&ticket, "seed of killed dispatcher") {
        Ok(()) => ticket.with_result(|r| {
            for (g, e) in r.grads().iter().zip(&expect) {
                assert_eq!(g.as_slice(), e.as_slice());
            }
        }),
        Err(e) => {
            assert_eq!(e, ServeError::LaneDied, "supervision attributes the death");
            let _ = ticket.take_chain();
        }
    }

    // The shape recovers on the next submit regardless (no breaker armed:
    // dispatcher death retires, it does not quarantine).
    let after = Ticket::new();
    service
        .submit(revalue(&template, 51), &after)
        .expect("shape re-creates after the death");
    assert_eq!(must_terminate(&after, "post-death"), Ok(()));
}

#[test]
fn dispatcher_killed_mid_flush_fails_assembled_batch_with_lane_died() {
    let mut config = breaker_config(8, Duration::from_millis(50));
    config.breaker = BreakerPolicy::disabled();
    config.max_delay = Duration::from_millis(30);
    config.faults = FaultInjector::scripted(FaultScript::new().kill_dispatcher_at_flush(0, 0));
    let service = BppsaService::<f64>::new(config);
    let template = sparse_chain(5, 6, 14);

    let tickets: Vec<Ticket<f64>> = (0..3).map(|_| Ticket::new()).collect();
    for (k, ticket) in tickets.iter().enumerate() {
        service
            .submit(revalue(&template, 60 + k as u64), ticket)
            .expect("accepting");
    }
    // The seeding request is first in the queue, so it is in flush 0's
    // assembled batch when the dispatcher dies — guaranteed LaneDied. The
    // others are either in that batch / the failed queue (LaneDied) or
    // raced the close and re-routed to a fresh lane (Ok).
    let outcomes: Vec<Result<(), ServeError>> = tickets
        .iter()
        .enumerate()
        .map(|(k, t)| must_terminate(t, &format!("request {k} under mid-flush kill")))
        .collect();
    assert_eq!(
        outcomes[0],
        Err(ServeError::LaneDied),
        "the assembled batch fails with LaneDied, not a hang"
    );
    for (k, outcome) in outcomes.iter().enumerate() {
        assert!(
            matches!(outcome, Ok(()) | Err(ServeError::LaneDied)),
            "request {k}: unexpected outcome {outcome:?}"
        );
    }
    assert!(
        service.metrics().iter().any(|l| l.died),
        "supervision records the death"
    );

    // Chains of failed requests come back; resubmission completes exactly.
    for (k, (ticket, outcome)) in tickets.iter().zip(&outcomes).enumerate() {
        if outcome.is_err() {
            let chain = ticket.take_chain();
            let expect = reference(&chain);
            service.submit(chain, ticket).expect("lane re-created");
            assert_eq!(must_terminate(ticket, "resubmission"), Ok(()));
            ticket.with_result(|r| {
                for (g, e) in r.grads().iter().zip(&expect) {
                    assert_eq!(g.as_slice(), e.as_slice(), "resubmit {k} bit-for-bit");
                }
            });
        }
    }
}

#[test]
fn hard_deadline_fails_stalled_requests_instead_of_executing_them() {
    let mut config = breaker_config(8, Duration::from_millis(50));
    config.breaker = BreakerPolicy::disabled();
    config.max_delay = Duration::from_millis(5);
    config.deadline = DeadlinePolicy::Hard {
        grace: Duration::from_millis(2),
    };
    // Flush 0 stalls far past every queued deadline + grace.
    config.faults =
        FaultInjector::scripted(FaultScript::new().flush_stall(0, 0, Duration::from_millis(60)));
    let service = BppsaService::<f64>::new(config);
    let template = sparse_chain(4, 6, 15);

    let stale = Ticket::new();
    service
        .submit(revalue(&template, 70), &stale)
        .expect("accepting");
    assert_eq!(
        must_terminate(&stale, "stalled request"),
        Err(ServeError::DeadlineExceeded),
        "hard deadline fails the aged request at assembly"
    );
    let _ = stale.take_chain();
    assert!(
        service.metrics().iter().any(|l| l.deadline_expired >= 1),
        "expiry is counted"
    );

    // The lane survives (an expired batch is not a lane failure): the next
    // request executes normally, and exactly.
    let fresh_chain = revalue(&template, 71);
    let expect = reference(&fresh_chain);
    let fresh = Ticket::new();
    service.submit(fresh_chain, &fresh).expect("lane live");
    assert_eq!(must_terminate(&fresh, "post-expiry request"), Ok(()));
    fresh.with_result(|r| {
        for (g, e) in r.grads().iter().zip(&expect) {
            assert_eq!(g.as_slice(), e.as_slice());
        }
    });
}

#[test]
fn seeded_storm_every_ticket_terminal_results_exact_and_conserved() {
    // Probabilistic chaos, deterministic by seed: plan panics, batch
    // panics, and flush stalls rain on 4 shapes × 24 rounds while the
    // breaker trips and recovers underneath. The invariants:
    // every submission is accounted for exactly once, every accepted
    // request terminates, and every success is bit-for-bit exact.
    const SHAPES: usize = 4;
    const ROUNDS: usize = 24;
    let config = ServeConfig {
        max_batch: 3,
        max_delay: Duration::from_micros(200),
        queue_cap: 16,
        max_lanes: SHAPES,
        shed: ShedPolicy::disabled(),
        breaker: BreakerPolicy {
            max_consecutive_panics: Some(2),
            cooldown: Duration::from_millis(20),
        },
        faults: FaultInjector::seeded(
            0xC4A0_5BAD,
            FaultRates {
                plan_panic: 0.25,
                batch_panic: 0.30,
                flush_stall: 0.20,
                stall: Duration::from_millis(2),
            },
        ),
        ..ServeConfig::default()
    };
    let service = BppsaService::<f64>::new(config);
    let templates: Vec<JacobianChain<f64>> = (0..SHAPES)
        .map(|s| sparse_chain(3 + 2 * s, 5 + s, 80 + s as u64))
        .collect();

    let mut attempts = 0u64;
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut refused = 0u64;
    for round in 0..ROUNDS {
        for (s, template) in templates.iter().enumerate() {
            let chain = revalue(template, 1000 + (round * SHAPES + s) as u64);
            let expect = reference(&chain);
            let ticket = Ticket::new();
            attempts += 1;
            match service.submit(chain, &ticket) {
                Ok(()) => {
                    match must_terminate(&ticket, &format!("storm round {round} shape {s}")) {
                        Ok(()) => {
                            completed += 1;
                            ticket.with_result(|r| {
                                for (g, e) in r.grads().iter().zip(&expect) {
                                    assert_eq!(
                                        g.as_slice(),
                                        e.as_slice(),
                                        "storm round {round} shape {s}: exact despite chaos"
                                    );
                                }
                            });
                        }
                        Err(e) => {
                            failed += 1;
                            assert!(
                                matches!(
                                    e,
                                    ServeError::BatchPanicked
                                        | ServeError::PlanPanicked
                                        | ServeError::LaneQuarantined
                                ),
                                "storm round {round} shape {s}: unexpected failure {e:?}"
                            );
                            let _ = ticket.take_chain();
                        }
                    }
                }
                Err(e) => {
                    refused += 1;
                    assert_eq!(
                        e.kind(),
                        SubmitRefusal::Quarantined,
                        "the only refusal this storm can produce"
                    );
                }
            }
        }
    }
    assert_eq!(
        completed + failed + refused,
        attempts,
        "every submission accounted for exactly once"
    );
    assert!(completed > 0, "storm must let some traffic through");
    assert!(
        failed + refused > 0,
        "storm must actually inject faults (rates are well above zero)"
    );
    assert!(service.config().faults.fired() > 0);

    // Metrics-side conservation: across all lanes ever created (none
    // compacted here — cap is default 256), flushed requests equal
    // successful completions, and failed drains/panics cover the rest.
    let snaps = service.metrics();
    let flushed: u64 = snaps.iter().map(|l| l.requests_flushed()).sum();
    assert!(
        flushed >= completed,
        "every completed request went through a flush"
    );
    service.shutdown();
}

#[test]
fn retrying_submit_rides_out_a_quarantine_window() {
    // A retry loop whose budget comfortably covers the breaker cool-down
    // turns the Quarantined refusal into a wait-and-probe: the caller sees
    // only Ok.
    let cooldown = Duration::from_millis(40);
    let mut config = breaker_config(1, cooldown);
    config.faults = FaultInjector::scripted(FaultScript::new().batch_panic_times(0, 2));
    let service = BppsaService::<f64>::new(config);
    let template = sparse_chain(4, 5, 16);

    for k in 0..2u64 {
        let ticket = Ticket::new();
        service
            .submit(revalue(&template, 90 + k), &ticket)
            .expect("accepting");
        assert!(must_terminate(&ticket, "tripping batch").is_err());
        let _ = ticket.take_chain();
    }
    // Trip pending on the dispatcher thread; the retry loop absorbs both
    // the in-flight race and the whole cool-down window.
    let chain = revalue(&template, 92);
    let expect = reference(&chain);
    let ticket = Ticket::new();
    submit_while_transient(&service, chain, &ticket).expect("retry loop rides out the quarantine");
    assert_eq!(must_terminate(&ticket, "retried submit"), Ok(()));
    ticket.with_result(|r| {
        for (g, e) in r.grads().iter().zip(&expect) {
            assert_eq!(g.as_slice(), e.as_slice());
        }
    });
}
