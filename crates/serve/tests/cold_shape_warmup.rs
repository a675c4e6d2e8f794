//! Cold-shape regression test: submitting a never-seen shape must not hold
//! the router lock across symbolic planning.
//!
//! Before the placeholder-lane rework, `route()` ran the whole planner
//! under the router lock, so one cold shape stalled **every** submitter —
//! exactly the end-to-end serialization the paper's scan formulation
//! removes from the backward pass itself. This test pins the fix with an
//! ordering gate instead of wall-clock thresholds:
//!
//! 1. a hot lane is warmed up front (tiny shape, `Live`);
//! 2. a second thread submits one request of a deliberately slow-to-plan
//!    shape (hundreds of symbolic SpGEMMs over wide, dense-ish patterns —
//!    hundreds of milliseconds even in release builds) and rendezvouses on
//!    a barrier **after** its submit returned;
//! 3. the main thread then drives a storm of hot round trips and
//!    afterwards reads the cold lane's state: every hot round trip must
//!    have completed **while the cold lane was still `Warming`**.
//!
//! With planning under the router lock, step 2 cannot pass the barrier
//! until planning is done (the submit itself blocks), so the gate fails.
//! The hot storm costs ~a millisecond per round against a plan that costs
//! hundreds of milliseconds — the ordering is not a close race. A
//! secondary latency assertion pins the same property quantitatively: the
//! slowest hot *submit call* must be far below the cold plan's measured
//! build time (under the old design it would equal it).

use bppsa_core::JacobianChain;
use bppsa_core::ScanElement;
use bppsa_serve::{BppsaService, LaneState, ServeConfig, ShedPolicy, Ticket};
use bppsa_sparse::Csr;
use bppsa_tensor::init::{seeded_rng, uniform_vector};
use bppsa_tensor::Matrix;
use rand::Rng;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const HOT_ROUNDS: usize = 12;

fn sparse_chain(n: usize, width: usize, density: f64, seed: u64) -> JacobianChain<f64> {
    let mut rng = seeded_rng(seed);
    let mut chain = JacobianChain::new(uniform_vector(&mut rng, width, 1.0));
    for _ in 0..n {
        let dense = Matrix::from_fn(width, width, |_, _| {
            if rng.random_range(0.0..1.0) < density {
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
fn hot_lane_unaffected_while_cold_shape_warms() {
    let service = BppsaService::<f64>::new(ServeConfig {
        max_batch: 4,
        max_delay: Duration::from_millis(1),
        queue_cap: 16,
        max_lanes: 4,
        shed: ShedPolicy::disabled(),
        ..ServeConfig::default()
    });

    // Hot lane up front: lane 0, Live before the cold storm starts.
    let hot_template = sparse_chain(3, 5, 0.4, 1);
    let hot_ticket = Ticket::new();
    service
        .submit(revalue(&hot_template, 10), &hot_ticket)
        .expect("accepting");
    hot_ticket.wait().expect("hot lane serves");
    let _ = hot_ticket.take_chain();
    assert_eq!(service.metrics()[0].state, LaneState::Live);

    // The cold shape: 256 layers of width 48 at ~50% density — hundreds of
    // symbolic products over densifying patterns, hundreds of milliseconds
    // of planning even in release builds.
    let cold_chain = sparse_chain(256, 48, 0.5, 2);

    let barrier = Barrier::new(2);
    let cold_ticket = Ticket::new();
    let (hot_submit_latencies, cold_state_after_storm) = std::thread::scope(|s| {
        s.spawn(|| {
            // Submit returns once the *placeholder* lane accepted the
            // request; planning continues on the lane's dispatcher.
            service
                .submit_with_delay(cold_chain.clone(), Duration::from_millis(1), &cold_ticket)
                .expect("cold shape accepted");
            barrier.wait();
        });
        // Rendezvous: the cold submit has returned, its lane exists and is
        // warming (the plan cannot be done — it costs ~10^5 times a hot
        // round trip and started microseconds ago).
        barrier.wait();
        assert_eq!(
            service.metrics()[1].state,
            LaneState::Warming,
            "cold lane must be planning in the background, not under the router lock"
        );

        // Hot storm: full round trips on the live lane while the cold lane
        // plans. Under the old design each of these submits would park on
        // the router lock until the cold plan finished.
        let mut latencies = Vec::with_capacity(HOT_ROUNDS);
        for round in 0..HOT_ROUNDS {
            let chain = revalue(&hot_template, 100 + round as u64);
            let t0 = Instant::now();
            service
                .submit_with_delay(chain, Duration::ZERO, &hot_ticket)
                .expect("hot lane accepting during cold warm-up");
            latencies.push(t0.elapsed());
            hot_ticket
                .wait()
                .expect("hot request served during cold warm-up");
            let _ = hot_ticket.take_chain();
        }
        (latencies, service.metrics()[1].state)
    });

    // THE GATE: every hot round trip completed before the cold plan
    // finished.
    assert_eq!(
        cold_state_after_storm,
        LaneState::Warming,
        "hot round trips must complete while the cold lane is still warming"
    );

    // The cold request itself still completes, and its lane reports the
    // warm-up cost it made everyone else *not* pay.
    cold_ticket.wait().expect("cold request served");
    cold_ticket.with_result(|r| {
        assert_eq!(r.grads().len(), 256);
        assert!(r
            .grads()
            .iter()
            .all(|g| g.as_slice().iter().all(|v| v.is_finite())));
    });
    let cold = &service.metrics()[1];
    assert_eq!(cold.state, LaneState::Live);
    assert_eq!(cold.submitted, 1);
    assert_eq!(cold.requests_flushed(), 1);
    assert!(cold.plan_time > Duration::ZERO);
    assert!(cold.warmup_time >= cold.plan_time);

    // Quantitative echo of the gate (the hot lane's tail submit latency is
    // unaffected by the cold plan): the slowest hot submit *call* stays far
    // below the measured plan time. Under the router-lock design it would
    // have been ≈ plan_time.
    let worst_submit = *hot_submit_latencies.iter().max().expect("nonempty");
    assert!(
        worst_submit < cold.plan_time / 2,
        "hot submit latency {worst_submit:?} is not far below the cold plan time {:?}",
        cold.plan_time
    );

    // The hot lane served the whole storm.
    let hot = &service.metrics()[0];
    assert_eq!(hot.state, LaneState::Live);
    assert_eq!(hot.submitted, 1 + HOT_ROUNDS as u64);
    assert_eq!(hot.requests_flushed(), hot.submitted);
    service.shutdown();
}
