//! Criterion bench — `serve_overload`: the cost and precision of the
//! feasibility gate under sustained pressure.
//!
//! `shed_precision/deadline_us_*` — one persistent lane whose every flush
//! carries a seeded 500 µs stall, so the EWMA flush estimator stays
//! trained at ~stall scale across the whole run. Each iteration drives a
//! wave of `submit_with_delay` calls at one of two deadline classes: a
//! 200 µs budget the trained estimator must refuse whenever the queue is
//! non-empty (the refusal path is the measured cost — a cheap synchronous
//! `Infeasible` with the chain handed back), and a 20 ms budget that
//! always clears the prediction (the admit path). The realized refusal
//! precision per class — infeasible refusals over attempts, from the
//! service's own counters — prints once per config: the doomed class
//! should shed heavily, the feasible class not at all.
//!
//! The scenario records `available_parallelism` via the shim criterion's
//! environment record.

use bppsa_bench::random_csr;
use bppsa_core::{JacobianChain, ScanElement};
use bppsa_serve::{
    BppsaService, FaultInjector, FaultRates, FeasibilityPolicy, ServeConfig, ShedPolicy,
    SubmitRefusal, Ticket,
};
use bppsa_tensor::init::{seeded_rng, uniform_vector};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

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

fn bench_serve_overload(c: &mut Criterion) {
    // The shim writes one JSON record (with its
    // environment/available_parallelism stamp) per group.
    let mut group = c.benchmark_group("serve_overload");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3));

    let mut rng = seeded_rng(606);
    let template = chain(32, 10, &mut rng);
    for deadline_us in [200u64, 20_000] {
        let service = BppsaService::<f64>::new(ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_micros(100),
            queue_cap: 2 * WAVE,
            max_lanes: 2,
            shed: ShedPolicy {
                feasibility: Some(FeasibilityPolicy { min_flushes: 2 }),
                ..ShedPolicy::disabled()
            },
            // Every flush stalls 500 µs: the estimator trains to stall
            // scale and *stays* there, so the two deadline classes sit on
            // opposite sides of the prediction for the whole run.
            faults: FaultInjector::seeded(
                0x51ED_0CAD,
                FaultRates {
                    flush_stall: 1.0,
                    stall: Duration::from_micros(500),
                    ..FaultRates::none()
                },
            ),
            ..ServeConfig::default()
        });
        let deadline = Duration::from_micros(deadline_us);
        let tickets: Vec<Ticket<f64>> = (0..WAVE).map(|_| Ticket::new()).collect();
        let mut slots: Vec<Option<JacobianChain<f64>>> = (0..WAVE)
            .map(|_| Some(revalue(&template, &mut rng)))
            .collect();
        let mut accepted: Vec<bool> = vec![false; WAVE];
        let mut wave = || {
            for ((slot, ticket), accepted) in slots.iter_mut().zip(&tickets).zip(&mut accepted) {
                let chain = slot.take().expect("reclaimed");
                match service.submit_with_delay(chain, deadline, ticket) {
                    Ok(()) => *accepted = true,
                    Err(e) if e.kind() == SubmitRefusal::Infeasible => {
                        *accepted = false;
                        *slot = Some(e.into_chain());
                    }
                    Err(other) => panic!("unexpected refusal: {other}"),
                }
            }
            for ((slot, ticket), accepted) in slots.iter_mut().zip(&tickets).zip(&accepted) {
                if *accepted {
                    // Soft deadlines: an admitted late request still
                    // executes, so every accepted wait is an Ok.
                    ticket.wait().expect("accepted request served");
                    *slot = Some(ticket.take_chain());
                }
            }
        };
        // Warm: lane planned, tickets sized, estimator past min_flushes.
        for _ in 0..3 {
            wave();
        }
        group.bench_function(
            format!("shed_precision/deadline_us_{deadline_us}/wave_{WAVE}"),
            |b| b.iter(&mut wave),
        );
        let snaps = service.metrics();
        let submitted: u64 = snaps.iter().map(|l| l.submitted).sum();
        let infeasible: u64 = snaps.iter().map(|l| l.infeasible).sum();
        println!(
            "serve_overload/shed_precision/deadline_us_{deadline_us}: \
             submitted {submitted} infeasible-refused {infeasible} ({:.1}% refused)",
            100.0 * infeasible as f64 / (submitted + infeasible).max(1) as f64,
        );
        service.shutdown();
    }

    group.finish();
}

criterion_group!(benches, bench_serve_overload);
criterion_main!(benches);
