//! Criterion bench — `serve_throughput`: round-trip cost of routing
//! backward requests through the `bppsa-serve` front door, as a function of
//! **lane count** (how many distinct chain shapes the traffic mixes) ×
//! **deadline budget** (how long a below-`max_batch` lane waits for
//! co-traffic).
//!
//! Each measured iteration pushes a fixed wave of requests (round-robin
//! over the shapes) through one persistent service and waits for all of
//! them, reusing tickets and chains — i.e. the steady-state serving loop;
//! requests/sec is `WAVE / (median_ns · 1e-9)`. With a zero deadline every
//! flush is as narrow as the dispatcher's wake latency allows; with a
//! budget, requests coalesce into wider planned-scan fan-outs.
//!
//! In a 1-core container the curve only measures front-door overhead
//! (routing, queueing, condvar round-trips) over the serial scan cost — on
//! multi-core hardware throughput should rise with coalescing until the
//! worker pool saturates. The committed baseline records the host's
//! `available_parallelism` alongside the numbers (shim criterion's
//! `environment` record) so the two regimes cannot be confused.

use bppsa_bench::random_csr;
use bppsa_core::{JacobianChain, ScanElement};
use bppsa_serve::{
    BppsaService, BreakerPolicy, FaultInjector, FaultRates, FaultScript, ServeConfig, ShedPolicy,
    SubmitRefusal, Ticket,
};
use bppsa_tensor::init::{seeded_rng, uniform_vector};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// Requests per measured wave.
const WAVE: usize = 24;

/// An RNN-shaped chain: `n` timesteps of small square Jacobians.
fn chain(n: usize, width: usize, rng: &mut StdRng) -> JacobianChain<f64> {
    let mut chain = JacobianChain::new(uniform_vector(rng, width, 1.0));
    for _ in 0..n {
        chain.push(ScanElement::Sparse(random_csr(rng, width, width, 0.3)));
    }
    chain
}

/// Same patterns as `template`, fresh values.
fn revalue(template: &JacobianChain<f64>, rng: &mut StdRng) -> JacobianChain<f64> {
    let mut out = JacobianChain::new(uniform_vector(rng, template.seed().len(), 1.0));
    for jt in template.jacobians() {
        let ScanElement::Sparse(m) = jt else {
            unreachable!()
        };
        out.push(ScanElement::Sparse(
            m.map_values(|_| rng.random_range(-1.0..1.0)),
        ));
    }
    out
}

fn bench_serve_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let mut rng = seeded_rng(101);
    for lanes in [1usize, 2, 4] {
        // Distinct shapes: different sequence lengths of one width.
        let templates: Vec<JacobianChain<f64>> = (0..lanes)
            .map(|s| chain(48 + 16 * s, 12, &mut rng))
            .collect();
        for delay_us in [0u64, 200] {
            let service = BppsaService::<f64>::new(ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_micros(delay_us),
                queue_cap: 2 * WAVE,
                max_lanes: lanes.max(2),
                shed: ShedPolicy::disabled(),
                ..ServeConfig::default()
            });
            let tickets: Vec<Ticket<f64>> = (0..WAVE).map(|_| Ticket::new()).collect();
            let mut slots: Vec<Option<JacobianChain<f64>>> = (0..WAVE)
                .map(|k| Some(revalue(&templates[k % lanes], &mut rng)))
                .collect();
            // One steady-state wave: submit all, wait all, reclaim chains.
            let mut wave = || {
                for (slot, ticket) in slots.iter_mut().zip(&tickets) {
                    let chain = slot.take().expect("reclaimed");
                    service.submit(chain, ticket).expect("service accepting");
                }
                for (slot, ticket) in slots.iter_mut().zip(&tickets) {
                    ticket.wait().expect("request served");
                    *slot = Some(ticket.take_chain());
                }
            };
            wave(); // warm: lanes planned, workspaces and tickets sized
            group.bench_function(
                format!("lanes_{lanes}/delay_us_{delay_us}/wave_{WAVE}"),
                |b| b.iter(&mut wave),
            );
        }
    }
    group.finish();
}

/// Cold-shape storm: a fresh service hit by `shapes` never-seen shapes
/// back-to-back. Each iteration pays `shapes` full lane bring-ups (symbolic
/// planning + workspace-pool construction + dispatcher spawn) — but since
/// the placeholder rework, the submits themselves only enqueue: planning
/// runs on the per-lane dispatcher threads, so on multi-core hardware the
/// bring-ups overlap instead of serializing under the router lock (in a
/// 1-core container they still time-slice; the group records
/// `available_parallelism` for that reason).
fn bench_cold_shape_storm(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_cold_storm");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    let mut rng = seeded_rng(303);
    for shapes in [2usize, 4, 8] {
        // Distinct, moderately-expensive-to-plan shapes.
        let templates: Vec<JacobianChain<f64>> = (0..shapes)
            .map(|s| chain(24 + 8 * s, 10, &mut rng))
            .collect();
        group.bench_function(format!("shapes_{shapes}"), |b| {
            b.iter(|| {
                let service = BppsaService::<f64>::new(ServeConfig {
                    max_batch: 4,
                    max_delay: Duration::from_micros(100),
                    queue_cap: 16,
                    max_lanes: shapes.max(2),
                    shed: ShedPolicy::disabled(),
                    ..ServeConfig::default()
                });
                let tickets: Vec<Ticket<f64>> = (0..shapes).map(|_| Ticket::new()).collect();
                for (template, ticket) in templates.iter().zip(&tickets) {
                    service
                        .submit(template.clone(), ticket)
                        .expect("service accepting");
                }
                for ticket in &tickets {
                    ticket.wait().expect("request served");
                }
                service.shutdown();
            })
        });
    }
    group.finish();
}

/// Shed-rate scenario: one persistent overloaded lane (tiny queue + shed
/// threshold). Each iteration drives a wave of submits; requests beyond the
/// queue-depth threshold are refused at submit instead of blocking, so the
/// measured cost is the overload path itself — cheap synchronous sheds plus
/// the flushes of what was admitted. The post-run lane metrics (printed
/// once per config) report the realized shed rate.
fn bench_shed_rate(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_shed_rate");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    let mut rng = seeded_rng(404);
    let template = chain(48, 12, &mut rng);
    for depth in [2usize, 8] {
        let service = BppsaService::<f64>::new(ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_micros(50),
            queue_cap: 16,
            max_lanes: 2,
            shed: ShedPolicy {
                max_queue_depth: Some(depth),
                min_warming_delay: None,
                feasibility: None,
            },
            ..ServeConfig::default()
        });
        let tickets: Vec<Ticket<f64>> = (0..WAVE).map(|_| Ticket::new()).collect();
        let mut slots: Vec<Option<JacobianChain<f64>>> = (0..WAVE)
            .map(|_| Some(revalue(&template, &mut rng)))
            .collect();
        // In-flight marker per slot, reused across waves.
        let mut accepted: Vec<bool> = vec![false; WAVE];
        let mut wave = || {
            for ((slot, ticket), accepted) in slots.iter_mut().zip(&tickets).zip(&mut accepted) {
                let chain = slot.take().expect("reclaimed");
                match service.submit(chain, ticket) {
                    Ok(()) => *accepted = true,
                    Err(e) if e.kind() == SubmitRefusal::Shed => {
                        *accepted = false;
                        *slot = Some(e.into_chain());
                    }
                    Err(other) => panic!("unexpected refusal: {other}"),
                }
            }
            for ((slot, ticket), accepted) in slots.iter_mut().zip(&tickets).zip(&accepted) {
                if *accepted {
                    ticket.wait().expect("accepted request served");
                    *slot = Some(ticket.take_chain());
                }
            }
        };
        wave(); // warm: lane planned, workspaces and tickets sized
        group.bench_function(format!("shed_depth_{depth}/wave_{WAVE}"), |b| {
            b.iter(&mut wave)
        });
        let lane = &service.metrics()[0];
        println!(
            "serve_shed_rate/shed_depth_{depth}: submitted {} shed {} ({:.1}% shed)",
            lane.submitted,
            lane.shed,
            100.0 * lane.shed as f64 / (lane.submitted + lane.shed).max(1) as f64,
        );
    }
    group.finish();
}

/// Recovery scenario: how long a circuit-breaker round trip costs, and how
/// hard the quarantine gate actually refuses under a panic storm.
///
/// * `trip_to_live/cooldown_us_*` — each iteration builds a fresh service
///   whose first batch is scripted to panic with a threshold-1 breaker
///   armed, then rides the quarantine out by resubmitting every 100 µs
///   while `SubmitRefusal::is_transient` holds (for at most 5 s), until
///   the half-open probe serves the request. The measured time is the
///   full trip → cool-down → probe-replan → Live cycle (including both lane
///   bring-ups), i.e. the end-to-end unavailability a poisoned-then-healthy
///   shape observes, as a function of the configured cool-down.
/// * `refusal_rate/*` — a persistent service under a seeded 10%-batch-panic
///   storm with a threshold-2 breaker. Submits never retry; a quarantine
///   refusal hands the chain back and is counted. The measured cost is the
///   storm wave itself (panicking flushes + cheap synchronous refusals +
///   lane re-creation); the realized refusal rate — quarantine refusals
///   over submit attempts — prints once per config from the service's own
///   counters.
fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_recovery");
    // Injected panics are the scenario, not failures: silence the default
    // hook's per-panic backtrace for the duration of this group.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    let mut rng = seeded_rng(505);
    let template = chain(32, 10, &mut rng);
    for cooldown_us in [200u64, 1000] {
        group.bench_function(format!("trip_to_live/cooldown_us_{cooldown_us}"), |b| {
            b.iter(|| {
                let service = BppsaService::<f64>::new(ServeConfig {
                    max_batch: 1,
                    max_delay: Duration::ZERO,
                    queue_cap: 8,
                    max_lanes: 2,
                    breaker: BreakerPolicy {
                        max_consecutive_panics: Some(1),
                        cooldown: Duration::from_micros(cooldown_us),
                    },
                    faults: FaultInjector::scripted(FaultScript::new().batch_panic(0, 0)),
                    ..ServeConfig::default()
                });
                // Trip: the scripted panic fails the seeding request's batch
                // and the threshold-1 breaker quarantines the shape.
                let ticket = Ticket::new();
                service
                    .submit(template.clone(), &ticket)
                    .expect("seed accepted");
                ticket
                    .wait()
                    .expect_err("scripted panic fails the first batch");
                let mut chain = ticket.take_chain();
                // Recover: transient refusals (the quarantine window) are
                // resubmitted, and so is a request that raced into the
                // dying lane.
                let start = Instant::now();
                loop {
                    match service.submit(chain, &ticket) {
                        Ok(()) => match ticket.wait() {
                            Ok(()) => break,
                            Err(_) => chain = ticket.take_chain(),
                        },
                        Err(e) => {
                            assert!(
                                e.kind().is_transient() && start.elapsed() < Duration::from_secs(5),
                                "retry budget outlasts the cool-down: {e}"
                            );
                            std::thread::sleep(Duration::from_micros(100));
                            chain = e.into_chain();
                        }
                    }
                }
                service.shutdown();
            })
        });
    }

    // Persistent service under a seeded panic storm; breaker armed.
    let service = BppsaService::<f64>::new(ServeConfig {
        max_batch: 2,
        max_delay: Duration::from_micros(100),
        queue_cap: 2 * WAVE,
        max_lanes: 2,
        breaker: BreakerPolicy {
            max_consecutive_panics: Some(2),
            cooldown: Duration::from_micros(200),
        },
        faults: FaultInjector::seeded(
            0xBADC_0DE5,
            FaultRates {
                batch_panic: 0.10,
                ..FaultRates::none()
            },
        ),
        ..ServeConfig::default()
    });
    let tickets: Vec<Ticket<f64>> = (0..WAVE).map(|_| Ticket::new()).collect();
    let mut slots: Vec<Option<JacobianChain<f64>>> = (0..WAVE)
        .map(|_| Some(revalue(&template, &mut rng)))
        .collect();
    let mut accepted: Vec<bool> = vec![false; WAVE];
    let mut attempts = 0u64;
    let mut wave = || {
        for ((slot, ticket), accepted) in slots.iter_mut().zip(&tickets).zip(&mut accepted) {
            let chain = slot.take().expect("reclaimed");
            attempts += 1;
            match service.submit(chain, ticket) {
                Ok(()) => *accepted = true,
                Err(e) if e.kind() == SubmitRefusal::Quarantined => {
                    *accepted = false;
                    *slot = Some(e.into_chain());
                }
                Err(other) => panic!("unexpected refusal: {other}"),
            }
        }
        for ((slot, ticket), accepted) in slots.iter_mut().zip(&tickets).zip(&accepted) {
            if *accepted {
                // Under the storm an accepted request may still fail with
                // BatchPanicked/LaneQuarantined; either way the chain comes
                // back and the wave stays conserved.
                let _ = ticket.wait();
                *slot = Some(ticket.take_chain());
            }
        }
    };
    wave(); // warm: first lane planned, tickets sized
    group.bench_function(format!("refusal_rate/panic_10pct/wave_{WAVE}"), |b| {
        b.iter(&mut wave)
    });
    let refused = service.quarantine_refusals();
    println!(
        "serve_recovery/refusal_rate: attempts {attempts} quarantine-refused {refused} \
         ({:.1}% refused)",
        100.0 * refused as f64 / attempts.max(1) as f64,
    );
    std::panic::set_hook(prev_hook);
    group.finish();
}

criterion_group!(
    benches,
    bench_serve_throughput,
    bench_cold_shape_storm,
    bench_shed_rate,
    bench_recovery
);
criterion_main!(benches);
