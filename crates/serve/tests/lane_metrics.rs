//! Flush-cause accounting: single-lane scenarios that deterministically
//! force each of the three [`FlushCause`]s and assert the lane's
//! [`LaneMetricsSnapshot`] counts them exactly — plus the batch-size
//! histogram invariant (`requests_flushed() == submitted` on a quiescent
//! lane) and the warm-up timing surface.
//!
//! Determinism notes: a flush can only be triggered by (a) `max_batch`
//! pending requests, (b) an expired delay budget, or (c) a drain. Each test
//! arranges for exactly one of those to be reachable — budgets of a minute
//! make (b) unreachable, `max_batch` above the submitted count makes (a)
//! unreachable — so the expected cause is not a race winner but the only
//! possibility.

use bppsa_core::JacobianChain;
use bppsa_core::ScanElement;
use bppsa_serve::{
    lane_plan_options, BppsaService, FlushCause, LaneState, PlanKind, ServeConfig, ShedPolicy,
    Ticket, LANE_SEGMENTS, LANE_SEGMENT_MIN_LAYERS, RETIRED_METRICS_CAP,
};
use bppsa_sparse::Csr;
use bppsa_tensor::init::{seeded_rng, uniform_vector};
use bppsa_tensor::{Matrix, Vector};
use rand::Rng;
use std::time::{Duration, Instant};

fn sparse_chain(n: usize, width: usize, seed: u64) -> JacobianChain<f64> {
    let mut rng = seeded_rng(seed);
    let mut chain = JacobianChain::new(uniform_vector(&mut rng, width, 1.0));
    for _ in 0..n {
        let dense = Matrix::from_fn(width, width, |_, _| {
            if rng.random_range(0.0..1.0) < 0.4 {
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

fn config(max_batch: usize) -> ServeConfig {
    ServeConfig {
        max_batch,
        max_delay: Duration::from_secs(60),
        queue_cap: 16,
        max_lanes: 2,
        shed: ShedPolicy::disabled(),
        ..ServeConfig::default()
    }
}

#[test]
fn max_batch_flush_is_counted_exactly_once() {
    // max_batch 4, one-minute budgets: only a full batch can flush.
    let service = BppsaService::<f64>::new(config(4));
    let template = sparse_chain(5, 6, 1);
    let tickets: Vec<Ticket<f64>> = (0..4).map(|_| Ticket::new()).collect();
    for (k, ticket) in tickets.iter().enumerate() {
        service
            .submit(revalue(&template, 10 + k as u64), ticket)
            .expect("accepting");
    }
    for ticket in &tickets {
        ticket.wait().expect("served by the full-batch flush");
    }
    let snap = &service.metrics()[0];
    assert_eq!(snap.state, LaneState::Live);
    assert_eq!(snap.submitted, 4);
    assert_eq!(snap.shed, 0);
    assert_eq!(snap.queue_depth, 0);
    assert_eq!(snap.flushes_of(FlushCause::MaxBatch), 1);
    assert_eq!(snap.flushes_of(FlushCause::Deadline), 0);
    assert_eq!(snap.flushes_of(FlushCause::Drain), 0);
    assert_eq!(snap.flushes(), 1);
    assert_eq!(
        snap.batch_size_counts,
        vec![0, 0, 0, 1],
        "one flush of exactly max_batch requests"
    );
    assert_eq!(snap.requests_flushed(), snap.submitted);
}

#[test]
fn deadline_flushes_are_counted_exactly() {
    // max_batch 8 but only single requests with short budgets: every flush
    // is a deadline flush of size 1.
    let mut cfg = config(8);
    cfg.max_delay = Duration::from_millis(2);
    let service = BppsaService::<f64>::new(cfg);
    let template = sparse_chain(5, 6, 2);
    let ticket = Ticket::new();
    for round in 0..3 {
        service
            .submit(revalue(&template, 20 + round), &ticket)
            .expect("accepting");
        ticket.wait().expect("deadline flush serves the request");
        let _ = ticket.take_chain();
    }
    let snap = &service.metrics()[0];
    assert_eq!(snap.state, LaneState::Live);
    assert_eq!(snap.submitted, 3);
    assert_eq!(snap.flushes_of(FlushCause::MaxBatch), 0);
    assert_eq!(snap.flushes_of(FlushCause::Deadline), 3);
    assert_eq!(snap.flushes_of(FlushCause::Drain), 0);
    assert_eq!(snap.batch_size_counts[0], 3, "three flushes of one request");
    assert_eq!(snap.requests_flushed(), snap.submitted);
    // The lane went through a real warm-up and reported its cost.
    assert!(snap.plan_time > Duration::ZERO);
    assert!(snap.warmup_time >= snap.plan_time);
}

#[test]
fn drain_flush_on_shutdown_is_counted_exactly_once() {
    // Two requests parked behind one-minute budgets, then shutdown: the
    // only reachable flush is the drain, carrying both requests.
    let service = BppsaService::<f64>::new(config(8));
    let template = sparse_chain(5, 6, 3);
    let t1 = Ticket::new();
    let t2 = Ticket::new();
    service
        .submit(revalue(&template, 30), &t1)
        .expect("accepting");
    service
        .submit(revalue(&template, 31), &t2)
        .expect("accepting");
    service.shutdown();
    t1.wait().expect("drained request completes");
    t2.wait().expect("drained request completes");
    let snap = &service.metrics()[0];
    assert_eq!(snap.state, LaneState::Retired);
    assert_eq!(snap.submitted, 2);
    assert_eq!(snap.flushes_of(FlushCause::MaxBatch), 0);
    assert_eq!(snap.flushes_of(FlushCause::Deadline), 0);
    assert_eq!(snap.flushes_of(FlushCause::Drain), 1);
    assert_eq!(
        snap.batch_size_counts,
        vec![0, 1, 0, 0, 0, 0, 0, 0],
        "one drain flush of both requests"
    );
    assert_eq!(snap.requests_flushed(), snap.submitted);
}

#[test]
fn mixed_causes_accumulate_and_histogram_sums_to_submits() {
    // One lane sees, in order: a full batch (MaxBatch), a short-budget
    // single (Deadline), and a parked pair cut off by shutdown (Drain).
    let service = BppsaService::<f64>::new(config(3));
    let template = sparse_chain(5, 6, 4);

    // Phase 1: exactly max_batch requests under one-minute budgets.
    let tickets: Vec<Ticket<f64>> = (0..3).map(|_| Ticket::new()).collect();
    for (k, ticket) in tickets.iter().enumerate() {
        service
            .submit(revalue(&template, 40 + k as u64), ticket)
            .expect("accepting");
    }
    for ticket in &tickets {
        ticket.wait().expect("full batch served");
    }

    // Phase 2: one short-budget request.
    let lone = Ticket::new();
    service
        .submit_with_delay(revalue(&template, 50), Duration::from_millis(2), &lone)
        .expect("accepting");
    lone.wait().expect("deadline flush served");

    // Phase 3: two parked requests drained by shutdown.
    let parked: Vec<Ticket<f64>> = (0..2).map(|_| Ticket::new()).collect();
    for (k, ticket) in parked.iter().enumerate() {
        service
            .submit(revalue(&template, 60 + k as u64), ticket)
            .expect("accepting");
    }
    service.shutdown();
    for ticket in &parked {
        ticket.wait().expect("drained request completes");
    }

    let snap = &service.metrics()[0];
    assert_eq!(snap.state, LaneState::Retired);
    assert_eq!(snap.submitted, 6);
    assert_eq!(snap.flushes_of(FlushCause::MaxBatch), 1);
    assert_eq!(snap.flushes_of(FlushCause::Deadline), 1);
    assert_eq!(snap.flushes_of(FlushCause::Drain), 1);
    assert_eq!(snap.flushes(), 3);
    assert_eq!(
        snap.batch_size_counts,
        vec![1, 1, 1],
        "sizes 1 (deadline), 2 (drain), 3 (max batch) each seen once"
    );
    assert_eq!(snap.requests_flushed(), snap.submitted);
}

#[test]
fn plan_profile_reports_kind_and_kernel_mix() {
    // Two lanes with observably different compiled programs: a mid-density
    // 10-wide CSR chain (whose densifying products exercise the dense panel
    // kernel under KernelMode::Auto) and an all-diagonal chain (which takes
    // the elementwise fast path and plans no products at all).
    let mut cfg = config(8);
    cfg.max_delay = Duration::from_millis(2);
    let service = BppsaService::<f64>::new(cfg);

    let csr_template = sparse_chain(6, 10, 5);
    let csr_ticket = Ticket::new();
    service
        .submit(revalue(&csr_template, 70), &csr_ticket)
        .expect("accepting");
    csr_ticket.wait().expect("csr lane serves");

    let mut rng = seeded_rng(6);
    let mut diag_template = JacobianChain::new(uniform_vector(&mut rng, 6, 1.0));
    for _ in 0..5 {
        let diag: Vec<f64> = (0..6).map(|_| rng.random_range(-1.2..1.2)).collect();
        diag_template.push(ScanElement::Sparse(Csr::from_diagonal(&diag)));
    }
    let diag_ticket = Ticket::new();
    service
        .submit(revalue(&diag_template, 71), &diag_ticket)
        .expect("accepting");
    diag_ticket.wait().expect("diagonal lane serves");

    let metrics = service.metrics();
    assert_eq!(metrics.len(), 2);
    let csr_snap = &metrics[0];
    assert_eq!(csr_snap.plan_kind, Some(PlanKind::Csr));
    assert!(
        csr_snap.kernel_counts.total() > 0,
        "a CSR plan hoists products: {:?}",
        csr_snap.kernel_counts
    );
    assert!(
        csr_snap.kernel_counts.dense > 0,
        "0.4-density 10-wide operands must resolve some combines to the \
         dense panel kernel: {:?}",
        csr_snap.kernel_counts
    );
    let diag_snap = &metrics[1];
    assert_eq!(diag_snap.plan_kind, Some(PlanKind::Diagonal));
    assert_eq!(
        diag_snap.kernel_counts.total(),
        0,
        "diagonal plans hoist no products"
    );
}

#[test]
fn lane_plan_options_segments_at_the_layer_threshold() {
    // The routing function is pure: one layer below the threshold stays on
    // the unsegmented serial plan, at the threshold it switches to the
    // pooled segmented plan.
    assert_eq!(lane_plan_options(0).segments, 1);
    assert_eq!(lane_plan_options(LANE_SEGMENT_MIN_LAYERS - 1).segments, 1);
    assert_eq!(
        lane_plan_options(LANE_SEGMENT_MIN_LAYERS).segments,
        LANE_SEGMENTS
    );
    assert_eq!(
        lane_plan_options(4 * LANE_SEGMENT_MIN_LAYERS).segments,
        LANE_SEGMENTS
    );
}

#[test]
fn deep_chain_lanes_segment_transparently() {
    // A shallow lane and a deep (>= LANE_SEGMENT_MIN_LAYERS) lane through
    // the same service: the deep lane's plan must segment without the
    // caller asking, and both must report it through `plan_segments`.
    let mut cfg = config(8);
    cfg.max_delay = Duration::from_millis(2);
    let service = BppsaService::<f64>::new(cfg);

    let shallow = sparse_chain(5, 6, 8);
    let ticket = Ticket::new();
    service
        .submit(revalue(&shallow, 80), &ticket)
        .expect("accepting");
    ticket.wait().expect("shallow lane serves");

    // Narrow layers keep the symbolic plan for 1024 products cheap.
    let deep = sparse_chain(LANE_SEGMENT_MIN_LAYERS, 3, 9);
    let deep_ticket = Ticket::new();
    service
        .submit(revalue(&deep, 81), &deep_ticket)
        .expect("accepting");
    deep_ticket.wait().expect("deep lane serves");

    let metrics = service.metrics();
    assert_eq!(metrics.len(), 2);
    let shallow_snap = &metrics[0];
    assert_eq!(shallow_snap.plan_kind, Some(PlanKind::Csr));
    assert_eq!(
        shallow_snap.plan_segments, 1,
        "shallow lanes plan unsegmented"
    );
    let deep_snap = &metrics[1];
    assert_eq!(deep_snap.plan_kind, Some(PlanKind::Csr));
    assert_eq!(
        deep_snap.plan_segments, LANE_SEGMENTS,
        "deep lanes segment transparently"
    );
}

/// A one-layer chain whose seed width alone makes its shape distinct.
fn shape_of_width(width: usize) -> JacobianChain<f64> {
    let diagonal: Vec<f64> = (0..width).map(|i| 1.0 + i as f64 / 8.0).collect();
    let mut chain = JacobianChain::new(Vector::from_vec(vec![1.0; width]));
    chain.push(ScanElement::Sparse(Csr::from_diagonal(&diagonal)));
    chain
}

/// Shape churn past [`RETIRED_METRICS_CAP`]: with one live lane at a time,
/// every new shape evicts and retires the last, and lane creation folds
/// the oldest terminal lanes into the rollup — the registry stays at the
/// cap plus the newest lane, and snapshot plus rollup still account for
/// every submission.
#[test]
fn retired_lanes_fold_into_a_bounded_registry_that_reconciles() {
    const SHAPES: usize = RETIRED_METRICS_CAP + 8;
    let service = BppsaService::<f64>::new(ServeConfig {
        max_lanes: 1,
        ..config(1)
    });
    let ticket = Ticket::new();
    let submit = |width: usize| {
        service
            .submit(shape_of_width(width), &ticket)
            .expect("accepting");
        ticket.wait().expect("served");
        let _ = ticket.take_chain();
    };
    for width in 1..=SHAPES {
        submit(width);
    }
    // Compaction folds only terminal lanes. Once every evicted lane has
    // retired, one more lane creation leaves exactly the cap plus the lane
    // it created.
    let deadline = Instant::now() + Duration::from_secs(20);
    while service
        .metrics()
        .iter()
        .rev()
        .skip(1)
        .any(|l| l.state != LaneState::Retired)
    {
        assert!(Instant::now() < deadline, "evicted lanes never retired");
        std::thread::yield_now();
    }
    submit(SHAPES + 1);
    service.shutdown();

    let total = SHAPES as u64 + 1;
    let snaps = service.metrics();
    let rollup = service.metrics_rollup();
    assert_eq!(snaps.len(), RETIRED_METRICS_CAP + 1, "registry bounded");
    assert_eq!(rollup.lanes as usize + snaps.len(), service.lanes_created());
    assert_eq!(service.lanes_created() as u64, total);
    assert_eq!(
        rollup.submitted + snaps.iter().map(|l| l.submitted).sum::<u64>(),
        total
    );
    assert_eq!(
        rollup.requests_flushed + snaps.iter().map(|l| l.requests_flushed()).sum::<u64>(),
        total
    );
    assert_eq!(
        rollup.max_batch_flushes + snaps.iter().map(|l| l.max_batch_flushes).sum::<u64>(),
        total,
        "max_batch 1: every request is its own full flush"
    );
    // The survivors are the newest lanes, still in creation order.
    assert_eq!(snaps[0].lane_id, service.lanes_created() - snaps.len());
    assert!(snaps.windows(2).all(|w| w[0].lane_id + 1 == w[1].lane_id));
}
