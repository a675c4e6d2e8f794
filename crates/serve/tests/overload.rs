//! Overload-robustness integration suite: the feasibility gate, the global
//! memory budget, and the stall watchdog — each exercised end-to-end
//! through a real [`BppsaService`] with scripted or seeded fault injection.
//! The tentpole invariants:
//!
//! 1. **Doomed requests are refused, not queued.** Once the EWMA flush
//!    estimator is trained, a request whose delay budget the queue cannot
//!    meet fails fast with [`SubmitRefusal::Infeasible`], chain handed back.
//!    The estimator has counted a flush by the time that flush's tickets
//!    resolve, so a client acting on a result already faces the trained
//!    gate.
//! 2. **A wedged flush never hangs a ticket.** With the watchdog armed, a
//!    scripted flush stall resolves every assembled ticket with
//!    [`ServeError::FlushStalled`] within the stall budget (plus polling
//!    slack) — long before the stuck execution itself returns — and the
//!    lane quarantines and recovers through the standard half-open probe.
//! 3. **A shape storm never allocates past the budget.** Peak reserved
//!    bytes stay within the configured [`MemoryBudget`] while every request
//!    still completes bit-for-bit exactly.
//! 4. **Conservation.** `completed + failed + refused == attempts` under a
//!    storm that mixes shedding, backpressure, and infeasibility refusals.

use bppsa_core::{BppsaOptions, JacobianChain, PlannedScan, ScanElement};
use bppsa_serve::{
    lane_plan_options, BppsaService, BreakerPolicy, FaultInjector, FaultRates, FaultScript,
    FeasibilityPolicy, LaneState, MemoryBudget, ServeConfig, ServeError, ShedPolicy, SubmitError,
    SubmitRefusal, Ticket, WatchdogPolicy,
};
use bppsa_sparse::Csr;
use bppsa_tensor::init::{seeded_rng, uniform_vector};
use bppsa_tensor::Matrix;
use rand::Rng;
use std::sync::Arc;
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
/// handed-back chain every millisecond while the refusal is transient and
/// 5 s have not passed; otherwise return the outcome as it stands.
fn submit_while_transient(
    service: &BppsaService<f64>,
    chain: JacobianChain<f64>,
    delay: Duration,
    ticket: &Ticket<f64>,
) -> Result<(), SubmitError<f64>> {
    let start = Instant::now();
    let mut chain = chain;
    loop {
        match service.submit_with_delay(chain, delay, ticket) {
            Err(e) if e.kind().is_transient() && start.elapsed() < Duration::from_secs(5) => {
                std::thread::sleep(Duration::from_millis(1));
                chain = e.into_chain();
            }
            outcome => return outcome,
        }
    }
}

fn assert_exact(ticket: &Ticket<f64>, expect: &[Vec<f64>], what: &str) {
    ticket.with_result(|r| {
        for (g, e) in r.grads().iter().zip(expect) {
            assert_eq!(g.as_slice(), e.as_slice(), "{what}: bit-for-bit");
        }
    });
}

#[test]
fn watchdog_condemns_wedged_flush_within_budget_and_probe_recovers() {
    // Flush 0 is scripted to sleep far longer than the watchdog's stall
    // budget. Without the watchdog, every ticket in that flush would sit
    // pending for the whole sleep; with it, they must resolve (typed, not
    // hung) within stall budget + polling slack.
    const STALL: Duration = Duration::from_millis(600);
    let cooldown = Duration::from_millis(300);
    let config = ServeConfig {
        max_batch: 1,
        max_delay: Duration::from_micros(200),
        queue_cap: 32,
        max_lanes: 4,
        shed: ShedPolicy::disabled(),
        breaker: BreakerPolicy {
            max_consecutive_panics: Some(2),
            cooldown,
        },
        watchdog: Some(WatchdogPolicy {
            stall_budget: Duration::from_millis(40),
            poll_interval: Duration::from_millis(5),
        }),
        faults: FaultInjector::scripted(FaultScript::new().flush_stall(0, 0, STALL)),
        ..ServeConfig::default()
    };
    let service = BppsaService::<f64>::new(config);
    let template = sparse_chain(5, 6, 201);

    // max_batch 1: the first request alone is flush 0 (the stalled one);
    // the other two stay queued behind the wedged execution.
    let tickets: Vec<Ticket<f64>> = (0..3).map(|_| Ticket::new()).collect();
    let start = Instant::now();
    for (k, ticket) in tickets.iter().enumerate() {
        service
            .submit(revalue(&template, 210 + k as u64), ticket)
            .expect("accepting");
    }
    assert_eq!(
        must_terminate(&tickets[0], "stalled flush"),
        Err(ServeError::FlushStalled),
        "the assembled request fails typed, not hung"
    );
    let detected = start.elapsed();
    assert!(
        detected < STALL.mul_f64(0.7),
        "watchdog resolved the ticket in {detected:?} — must be well before \
         the {STALL:?} stall itself returns"
    );
    // The stalled ticket's chain is captive inside the stuck execution (no
    // take_chain here — see ServeError::FlushStalled); the *queued* ones
    // fail with their chains handed back.
    for (k, ticket) in tickets.iter().enumerate().skip(1) {
        assert_eq!(
            must_terminate(ticket, "queued behind the stall"),
            Err(ServeError::LaneQuarantined),
            "queued request {k}"
        );
        assert_eq!(ticket.take_chain().num_layers(), 5, "chain handed back");
    }

    // Condemnation quarantines the lane exactly like a breaker trip.
    let deadline = Instant::now() + TERMINAL;
    while !service
        .metrics()
        .iter()
        .any(|l| l.stalled && l.state == LaneState::Quarantined)
    {
        assert!(Instant::now() < deadline, "stall never marked quarantined");
        std::thread::yield_now();
    }
    let refused = Ticket::new();
    match service.submit(revalue(&template, 220), &refused) {
        Err(e) if e.kind() == SubmitRefusal::Quarantined => {}
        other => panic!("expected Quarantined during cool-down, got {other:?}"),
    }

    // After the cool-down the half-open probe is admitted; the stall rule
    // is spent, so it proves the shape healthy — bit-for-bit.
    std::thread::sleep(cooldown + Duration::from_millis(20));
    let probe_chain = revalue(&template, 221);
    let expect = reference(&probe_chain);
    let probe = Ticket::new();
    service
        .submit(probe_chain, &probe)
        .expect("cool-down elapsed: the probe is admitted");
    assert_eq!(must_terminate(&probe, "probe"), Ok(()));
    assert_exact(&probe, &expect, "probe");
    assert_eq!(service.quarantined_shapes(), 0, "probe lifts quarantine");

    // Rollup-side accounting: the stall is a counted, attributable event.
    assert_eq!(
        service.metrics().iter().filter(|l| l.stalled).count(),
        1,
        "exactly one lane records the stall"
    );
    service.shutdown();
}

#[test]
fn feasibility_gate_trains_on_flush_latency_and_refuses_doomed_requests() {
    // One scripted 8 ms stall on flush 0 trains the EWMA estimator far
    // above microsecond-scale delay budgets, deterministically.
    const TRAIN_STALL: Duration = Duration::from_millis(8);
    let config = ServeConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(40),
        queue_cap: 32,
        max_lanes: 2,
        shed: ShedPolicy {
            feasibility: Some(FeasibilityPolicy { min_flushes: 1 }),
            ..ShedPolicy::disabled()
        },
        faults: FaultInjector::scripted(FaultScript::new().flush_stall(0, 0, TRAIN_STALL)),
        ..ServeConfig::default()
    };
    let service = BppsaService::<f64>::new(config);
    let template = sparse_chain(4, 6, 301);

    // Cold start: no timed flush yet, so even a zero-budget request behind
    // a non-empty queue is accepted — an untrained estimator never sheds.
    let training: Vec<Ticket<f64>> = (0..8).map(|_| Ticket::new()).collect();
    for (k, ticket) in training.iter().take(7).enumerate() {
        service
            .submit(revalue(&template, 310 + k as u64), ticket)
            .expect("accepting");
    }
    service
        .submit_with_delay(revalue(&template, 317), Duration::ZERO, &training[7])
        .expect("cold estimator must not shed, whatever the budget");
    for (k, ticket) in training.iter().enumerate() {
        assert_eq!(
            must_terminate(ticket, &format!("training request {k}")),
            Ok(())
        );
    }

    // Trained (1 timed flush >= min_flushes, EWMA >= the 8 ms stall). Park
    // one request so the queue is non-empty, then ask for the impossible:
    // a 100 us budget against a >= 8 ms predicted wait.
    let parked = Ticket::new();
    service
        .submit_with_delay(revalue(&template, 320), Duration::from_millis(150), &parked)
        .expect("empty queue predicts zero wait");
    let doomed = revalue(&template, 321);
    let asked = Instant::now();
    let rejected = Ticket::new();
    // Submitted through the retry loop on purpose: Infeasible is *not*
    // transient, so the loop must return it immediately instead of burning
    // its 5 s budget re-asking the same queue.
    match submit_while_transient(&service, doomed, Duration::from_micros(100), &rejected) {
        Err(e) if e.kind() == SubmitRefusal::Infeasible => {
            assert!(!e.kind().is_transient());
            assert_eq!(e.into_chain().num_layers(), 4, "chain handed back intact");
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "Infeasible is not retried: the refusal must return immediately, \
         not after the retry budget"
    );

    // The same queue with a feasible budget is accepted and completes.
    let feasible_chain = revalue(&template, 322);
    let expect = reference(&feasible_chain);
    let feasible = Ticket::new();
    service
        .submit_with_delay(feasible_chain, Duration::from_secs(5), &feasible)
        .expect("a generous budget clears the predicted wait");
    assert_eq!(must_terminate(&parked, "parked request"), Ok(()));
    assert_eq!(must_terminate(&feasible, "feasible request"), Ok(()));
    assert_exact(&feasible, &expect, "feasible request");

    // Refusal accounting: exactly one infeasibility, separate from sheds.
    let snaps = service.metrics();
    assert_eq!(snaps.iter().map(|l| l.infeasible).sum::<u64>(), 1);
    assert_eq!(snaps.iter().map(|l| l.shed).sum::<u64>(), 0);
    assert!(
        snaps
            .iter()
            .any(|l| l.flush_samples >= 1 && l.ewma_flush_latency >= TRAIN_STALL.mul_f64(0.5)),
        "estimator trained on the stalled flush"
    );
    service.shutdown();
}

/// The feasibility estimator counts a flush before that flush's tickets
/// resolve: the moment a client's wait returns, `flush_samples` already
/// includes the flush that served it — no sleep, no polling — so a client
/// resubmitting on its result faces the estimate that result produced.
#[test]
fn flush_latency_is_recorded_before_tickets_resolve() {
    let service = BppsaService::<f64>::new(ServeConfig {
        // Every request is its own flush.
        max_batch: 1,
        max_delay: Duration::from_micros(200),
        queue_cap: 4,
        max_lanes: 2,
        shed: ShedPolicy {
            feasibility: Some(FeasibilityPolicy { min_flushes: 1 }),
            ..ShedPolicy::disabled()
        },
        ..ServeConfig::default()
    });
    let template = sparse_chain(4, 6, 330);
    let ticket = Ticket::new();
    for k in 0..6u64 {
        service
            .submit(revalue(&template, 331 + k), &ticket)
            .expect("accepting");
        assert_eq!(must_terminate(&ticket, "timed request"), Ok(()));
        let lanes = service.metrics();
        assert_eq!(
            lanes[0].flush_samples,
            k + 1,
            "flush {k} was timed before its ticket resolved"
        );
        assert!(lanes[0].ewma_flush_latency > Duration::ZERO);
        let _ = ticket.take_chain();
    }
    service.shutdown();
}

#[test]
fn external_memory_pressure_refuses_cold_shapes_and_retry_rides_out_release() {
    // The budget is shared process-wide: consume it entirely *outside* the
    // service, so lane creation has nothing to evict and must refuse.
    let budget = Arc::new(MemoryBudget::new(1 << 20));
    assert!(budget.try_reserve(budget.limit()), "external reservation");
    let config = ServeConfig {
        max_batch: 2,
        max_delay: Duration::from_micros(300),
        queue_cap: 8,
        max_lanes: 2,
        memory: Some(Arc::clone(&budget)),
        ..ServeConfig::default()
    };
    let service = BppsaService::<f64>::new(config);
    let template = sparse_chain(4, 5, 401);

    let ticket = Ticket::new();
    match service.submit(revalue(&template, 410), &ticket) {
        Err(e) if e.kind() == SubmitRefusal::MemoryPressure => {
            assert!(
                e.kind().is_transient(),
                "memory pressure subsides as reservations release — retryable"
            );
            assert_eq!(e.into_chain().num_layers(), 4, "chain handed back intact");
        }
        other => panic!("expected MemoryPressure with nothing evictable, got {other:?}"),
    }
    assert_eq!(service.memory_refusals(), 1);

    // Release the external hold mid-retry: the retry loop treats the
    // refusal as transient and lands once headroom appears.
    let releaser = {
        let budget = Arc::clone(&budget);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            budget.release(budget.limit());
        })
    };
    let chain = revalue(&template, 411);
    let expect = reference(&chain);
    let retried = Ticket::new();
    submit_while_transient(&service, chain, service.config().max_delay, &retried)
        .expect("retry rides out the pressure window");
    assert_eq!(must_terminate(&retried, "retried submit"), Ok(()));
    assert_exact(&retried, &expect, "retried submit");
    releaser.join().expect("releaser thread");
    service.shutdown();
}

#[test]
fn shape_storm_peak_reservation_never_exceeds_budget() {
    // Five distinct shapes storm a service whose budget fits exactly the
    // largest single lane. max_lanes 1 forces the MRU store to evict on
    // every shape change, so each new lane's pool can only grow once the
    // previous lane's reservation releases — the budget, not the storm,
    // bounds peak memory, and every request still completes exactly.
    const SHAPES: usize = 5;
    const ROUNDS: usize = 3;
    let templates: Vec<JacobianChain<f64>> = (0..SHAPES)
        .map(|s| sparse_chain(3 + s, 5 + (s % 2), 500 + s as u64))
        .collect();
    let largest = templates
        .iter()
        .map(|t| PlannedScan::plan(t, lane_plan_options(t.num_layers())).workspace_bytes::<f64>())
        .max()
        .expect("non-empty");
    let budget = Arc::new(MemoryBudget::new(largest));
    let config = ServeConfig {
        max_batch: 2,
        max_delay: Duration::from_micros(200),
        queue_cap: 8,
        max_lanes: 1,
        memory: Some(Arc::clone(&budget)),
        ..ServeConfig::default()
    };
    let service = BppsaService::<f64>::new(config);

    for round in 0..ROUNDS {
        for (s, template) in templates.iter().enumerate() {
            let chain = revalue(template, 600 + (round * SHAPES + s) as u64);
            let expect = reference(&chain);
            let ticket = Ticket::new();
            service
                .submit(chain, &ticket)
                .expect("shape storm is routed, never refused: eviction frees the budget");
            assert_eq!(
                must_terminate(&ticket, &format!("round {round} shape {s}")),
                Ok(())
            );
            assert_exact(&ticket, &expect, &format!("round {round} shape {s}"));
        }
    }
    assert!(
        budget.peak_reserved() <= budget.limit(),
        "peak {} exceeded the {} byte budget",
        budget.peak_reserved(),
        budget.limit()
    );
    assert!(
        budget.peak_reserved() > 0,
        "the budget was actually charged"
    );
    assert_eq!(service.memory_refusals(), 0, "eviction always sufficed");
    assert_eq!(service.lanes_created(), SHAPES * ROUNDS);
    service.shutdown();
    drop(service);
    assert_eq!(
        budget.reserved(),
        0,
        "every lane's reservation released on retirement"
    );
}

#[test]
fn overload_storm_conserves_every_submission() {
    // Bursty non-blocking traffic against a narrow queue with depth
    // shedding *and* a trained feasibility gate (seeded 2 ms flush stalls
    // keep the EWMA far above the 300 us delay budget): every submission
    // must be accounted for exactly once across completed / failed /
    // refused, refusal tallies must match the service's own counters, and
    // every completion must be bit-for-bit exact.
    const SHAPES: usize = 2;
    const VARIANTS: usize = 8;
    const BURSTS: usize = 15;
    let config = ServeConfig {
        max_batch: 2,
        max_delay: Duration::from_micros(300),
        queue_cap: 3,
        max_lanes: SHAPES,
        shed: ShedPolicy {
            max_queue_depth: Some(2),
            feasibility: Some(FeasibilityPolicy { min_flushes: 2 }),
            ..ShedPolicy::disabled()
        },
        faults: FaultInjector::seeded(
            0x0E11_0CAD,
            FaultRates {
                flush_stall: 0.4,
                stall: Duration::from_millis(2),
                ..FaultRates::none()
            },
        ),
        ..ServeConfig::default()
    };
    let service = BppsaService::<f64>::new(config);
    let templates: Vec<JacobianChain<f64>> = (0..SHAPES)
        .map(|s| sparse_chain(4 + s, 5 + s, 800 + s as u64))
        .collect();
    // Value variants cycle, so references are precomputed once each.
    type Variant = (JacobianChain<f64>, Vec<Vec<f64>>);
    let variants: Vec<Vec<Variant>> = templates
        .iter()
        .enumerate()
        .map(|(s, t)| {
            (0..VARIANTS)
                .map(|v| {
                    let chain = revalue(t, 900 + (s * VARIANTS + v) as u64);
                    let expect = reference(&chain);
                    (chain, expect)
                })
                .collect()
        })
        .collect();

    let mut attempts = 0u64;
    let mut completed = 0u64;
    let mut refused = 0u64;
    let mut shed_seen = 0u64;
    let mut infeasible_seen = 0u64;
    for burst in 0..BURSTS {
        let mut in_flight: Vec<(Ticket<f64>, usize, usize)> = Vec::new();
        for k in 0..8usize {
            let s = (burst + k) % SHAPES;
            let v = (burst * 8 + k) % VARIANTS;
            let ticket = Ticket::new();
            attempts += 1;
            match service.try_submit(variants[s][v].0.clone(), &ticket) {
                Ok(()) => in_flight.push((ticket, s, v)),
                Err(e) => {
                    refused += 1;
                    match e.kind() {
                        SubmitRefusal::Shed => shed_seen += 1,
                        SubmitRefusal::Infeasible => infeasible_seen += 1,
                        SubmitRefusal::Backpressure | SubmitRefusal::LaneWarming => {}
                        other => panic!("burst {burst} request {k}: unexpected refusal {other}"),
                    }
                }
            }
        }
        // Drain the burst: everything accepted terminates successfully
        // (stalls only slow flushes here, they never fail them).
        for (ticket, s, v) in &in_flight {
            assert_eq!(
                must_terminate(ticket, &format!("burst {burst} shape {s} variant {v}")),
                Ok(())
            );
            assert_exact(
                ticket,
                &variants[*s][*v].1,
                &format!("burst {burst} shape {s} variant {v}"),
            );
            completed += 1;
        }
    }
    assert_eq!(
        completed + refused,
        attempts,
        "every submission accounted for exactly once (failed == 0 here)"
    );
    assert!(completed > 0, "the storm must let traffic through");
    assert!(refused > 0, "the storm must actually overload the queue");
    // The service's own refusal counters agree with the caller's tally —
    // infeasibility and shedding are counted separately, never conflated.
    let snaps = service.metrics();
    let rollup = service.metrics_rollup();
    assert_eq!(
        snaps.iter().map(|l| l.shed).sum::<u64>() + rollup.shed,
        shed_seen
    );
    assert_eq!(
        snaps.iter().map(|l| l.infeasible).sum::<u64>() + rollup.infeasible,
        infeasible_seen
    );
    service.shutdown();
}
