//! Service-level stress test: `N` producer threads hammering one
//! [`BppsaService`] with mixed-shape requests under random deadlines must
//!
//! 1. complete **every** request (no lost wakeups — each `wait()` returns),
//! 2. produce gradients **bit-for-bit identical** to serial single-workspace
//!    [`PlannedScan`] execution — the compiled program is deterministic, so
//!    which lane, batch, workspace, or thread served a request must not
//!    matter, and
//! 3. respect the lane cap: shapes beyond [`ServeConfig::max_lanes`] evict
//!    and re-create lanes without losing any in-flight request.

use bppsa_core::{BppsaOptions, JacobianChain, PlannedScan, ScanElement};
use bppsa_serve::{BppsaService, ServeConfig, ShedPolicy, SubmitRefusal, Ticket};
use bppsa_sparse::Csr;
use bppsa_tensor::init::{seeded_rng, uniform_vector};
use bppsa_tensor::Matrix;
use rand::Rng;
use std::time::Duration;

const PRODUCERS: usize = 6;
const ROUNDS_PER_PRODUCER: usize = 40;
/// Distinct chain shapes (lanes), deliberately above `max_lanes` below so
/// MRU eviction runs under fire.
const SHAPES: usize = 4;
/// Distinct value sets per shape (so results differ per request).
const VARIANTS: usize = 3;

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

#[test]
fn mixed_shape_multi_producer_traffic_is_exact_and_lossless() {
    // Shape s: (4 + 3s) layers of width (6 + s).
    let templates: Vec<JacobianChain<f64>> = (0..SHAPES)
        .map(|s| sparse_chain(4 + 3 * s, 6 + s, 7 + s as u64))
        .collect();
    // chains[s][v]: variant v of shape s; references[s][v]: its serial
    // single-workspace gradients.
    let chains: Vec<Vec<JacobianChain<f64>>> = templates
        .iter()
        .enumerate()
        .map(|(s, t)| {
            (0..VARIANTS)
                .map(|v| revalue(t, 100 + (s * VARIANTS + v) as u64))
                .collect()
        })
        .collect();
    let references: Vec<Vec<Vec<Vec<f64>>>> = templates
        .iter()
        .zip(&chains)
        .map(|(template, variants)| {
            let plan = PlannedScan::plan(template, BppsaOptions::serial());
            let mut ws = plan.workspace::<f64>();
            variants
                .iter()
                .map(|chain| {
                    plan.execute_with(chain, &mut ws)
                        .grads()
                        .iter()
                        .map(|g| g.as_slice().to_vec())
                        .collect()
                })
                .collect()
        })
        .collect();

    let service = BppsaService::<f64>::new(ServeConfig {
        max_batch: 5,
        max_delay: Duration::from_micros(300),
        queue_cap: 32,
        max_lanes: SHAPES - 1, // force MRU eviction under load
        shed: ShedPolicy::disabled(),
        ..ServeConfig::default()
    });

    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let service = &service;
            let chains = &chains;
            let references = &references;
            s.spawn(move || {
                let mut rng = seeded_rng(1000 + p as u64);
                let ticket = Ticket::new();
                for round in 0..ROUNDS_PER_PRODUCER {
                    let shape = rng.random_range(0..SHAPES);
                    let variant = rng.random_range(0..VARIANTS);
                    // Random deadline budget: from "flush me immediately"
                    // to "wait for co-traffic".
                    let delay = Duration::from_micros(rng.random_range(0..800));
                    let chain = chains[shape][variant].clone();
                    service
                        .submit_with_delay(chain, delay, &ticket)
                        .unwrap_or_else(|e| {
                            panic!("producer {p} round {round}: submit refused: {e}")
                        });
                    ticket.wait().unwrap_or_else(|e| {
                        panic!("producer {p} round {round}: request failed: {e}")
                    });
                    ticket.with_result(|r| {
                        for (g, expect) in r.grads().iter().zip(&references[shape][variant]) {
                            // Bit-for-bit: same compiled program, same
                            // rounding, whatever served it.
                            assert_eq!(
                                g.as_slice(),
                                expect.as_slice(),
                                "producer {p} round {round} shape {shape} variant {variant}"
                            );
                        }
                    });
                    // Drop the chain clone; the ticket is reused as-is.
                    let _ = ticket.take_chain();
                }
            });
        }
    });

    assert!(service.lanes() < SHAPES, "router exceeded its lane cap");
    assert!(
        service.lanes_created() >= SHAPES,
        "eviction should have forced lane re-creation"
    );
    service.shutdown();
}

#[test]
fn shed_policy_stress_every_ticket_completes_or_sheds() {
    // Shed-policy stress mode: tiny queues, aggressive deadlines, and both
    // shed thresholds armed, hammered by concurrent producers. Invariants:
    //
    // 1. every submit attempt resolves as **exactly one** of
    //    completed-through-the-ticket or shed-at-submit (chain handed
    //    back) — nothing hangs, nothing double-resolves;
    // 2. completed results stay bit-for-bit identical to serial
    //    single-workspace execution — shedding must not perturb what does
    //    flow through;
    // 3. the lanes' shed/submit counters reconcile exactly with what the
    //    producers observed.
    const SHED_PRODUCERS: usize = 4;
    const SHED_ROUNDS: usize = 50;
    const SHED_SHAPES: usize = 2;

    let templates: Vec<JacobianChain<f64>> = (0..SHED_SHAPES)
        .map(|s| sparse_chain(4 + 2 * s, 6, 300 + s as u64))
        .collect();
    let chains: Vec<Vec<JacobianChain<f64>>> = templates
        .iter()
        .enumerate()
        .map(|(s, t)| {
            (0..VARIANTS)
                .map(|v| revalue(t, 400 + (s * VARIANTS + v) as u64))
                .collect()
        })
        .collect();
    let references: Vec<Vec<Vec<Vec<f64>>>> = templates
        .iter()
        .zip(&chains)
        .map(|(template, variants)| {
            let plan = PlannedScan::plan(template, BppsaOptions::serial());
            let mut ws = plan.workspace::<f64>();
            variants
                .iter()
                .map(|chain| {
                    plan.execute_with(chain, &mut ws)
                        .grads()
                        .iter()
                        .map(|g| g.as_slice().to_vec())
                        .collect()
                })
                .collect()
        })
        .collect();

    let service = BppsaService::<f64>::new(ServeConfig {
        max_batch: 3,
        max_delay: Duration::from_micros(100),
        queue_cap: 4,
        max_lanes: SHED_SHAPES, // no eviction: the counters must reconcile
        shed: ShedPolicy {
            max_queue_depth: Some(2),
            min_warming_delay: Some(Duration::from_micros(50)),
            feasibility: None,
        },
        ..ServeConfig::default()
    });

    // (completed, shed) per producer.
    let outcomes: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SHED_PRODUCERS)
            .map(|p| {
                let service = &service;
                let chains = &chains;
                let references = &references;
                let templates = &templates;
                s.spawn(move || {
                    let mut rng = seeded_rng(2000 + p as u64);
                    let ticket = Ticket::new();
                    let mut completed = 0u64;
                    let mut shed = 0u64;
                    for round in 0..SHED_ROUNDS {
                        let shape = rng.random_range(0..SHED_SHAPES);
                        let variant = rng.random_range(0..VARIANTS);
                        let delay = Duration::from_micros(rng.random_range(0..200));
                        let chain = chains[shape][variant].clone();
                        match service.submit_with_delay(chain, delay, &ticket) {
                            Ok(()) => {
                                ticket.wait().unwrap_or_else(|e| {
                                    panic!("producer {p} round {round}: accepted request failed: {e}")
                                });
                                ticket.with_result(|r| {
                                    for (g, expect) in
                                        r.grads().iter().zip(&references[shape][variant])
                                    {
                                        assert_eq!(
                                            g.as_slice(),
                                            expect.as_slice(),
                                            "producer {p} round {round} shape {shape} variant {variant}"
                                        );
                                    }
                                });
                                let _ = ticket.take_chain();
                                completed += 1;
                            }
                            Err(e) if e.kind() == SubmitRefusal::Shed => {
                                // The refusal hands the chain back intact and
                                // leaves the ticket idle for the next round.
                                let chain = e.into_chain();
                                assert_eq!(chain.num_layers(), templates[shape].num_layers());
                                shed += 1;
                            }
                            Err(other) => {
                                panic!("producer {p} round {round}: unexpected refusal: {other}")
                            }
                        }
                    }
                    (completed, shed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer panicked"))
            .collect()
    });

    let completed_total: u64 = outcomes.iter().map(|(c, _)| c).sum();
    let shed_total: u64 = outcomes.iter().map(|(_, s)| s).sum();
    assert_eq!(
        completed_total + shed_total,
        (SHED_PRODUCERS * SHED_ROUNDS) as u64,
        "every attempt resolves as exactly one of completed or shed"
    );
    assert!(
        completed_total >= SHED_SHAPES as u64,
        "at least the lane-seeding requests must flow through"
    );

    // Quiesce, then reconcile the lanes' counters with the producers'.
    service.shutdown();
    let snaps = service.metrics();
    assert_eq!(snaps.len(), SHED_SHAPES, "no eviction under this config");
    let submitted: u64 = snaps.iter().map(|l| l.submitted).sum();
    let lane_shed: u64 = snaps.iter().map(|l| l.shed).sum();
    let flushed: u64 = snaps.iter().map(|l| l.requests_flushed()).sum();
    assert_eq!(submitted, completed_total, "accepted == completed");
    assert_eq!(
        lane_shed, shed_total,
        "lane shed counters == producer sheds"
    );
    assert_eq!(
        flushed, submitted,
        "every accepted request left via a flush"
    );
}

#[test]
fn pipelined_producers_share_tickets_across_shapes() {
    // One producer keeps several tickets in flight at once (submit all,
    // then wait all), mixing shapes — exercises out-of-order completion
    // across lanes with interleaved deadline flushes.
    let templates: Vec<JacobianChain<f64>> = (0..3)
        .map(|s| sparse_chain(3 + 2 * s, 5 + s, 40 + s as u64))
        .collect();
    let service = BppsaService::<f64>::new(ServeConfig {
        max_batch: 4,
        max_delay: Duration::from_micros(400),
        queue_cap: 16,
        max_lanes: 3,
        shed: ShedPolicy::disabled(),
        ..ServeConfig::default()
    });
    let tickets: Vec<Ticket<f64>> = (0..9).map(|_| Ticket::new()).collect();
    for wave in 0..5 {
        for (k, ticket) in tickets.iter().enumerate() {
            let chain = revalue(&templates[k % 3], 500 + (wave * 16 + k) as u64);
            service.submit(chain, ticket).expect("accepting");
        }
        for ticket in &tickets {
            ticket.wait().expect("wave request served");
            ticket.with_result(|r| assert!(!r.grads().is_empty()));
            let _ = ticket.take_chain();
        }
    }
    assert_eq!(service.lanes(), 3);
}
