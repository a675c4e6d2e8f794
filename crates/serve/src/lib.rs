//! # bppsa-serve — a deadline micro-batching front door for the planned
//! backward pass
//!
//! The library below this crate executes *caller-provided* batches:
//! [`BatchedBackward`](bppsa_core::BatchedBackward) fans a slice of
//! same-shape chains over pooled workspaces of one compiled
//! [`PlannedScan`](bppsa_core::PlannedScan). A serving shard, however,
//! receives **independently-arriving, heterogeneously-shaped** requests.
//! This crate turns the library into that shard: [`BppsaService`] accepts
//! single backward requests ([`JacobianChain`](bppsa_core::JacobianChain) +
//! [`Ticket`] completion handle), routes each by shape to a per-plan lane,
//! and coalesces every lane's queue into wide batched fan-outs under a
//! deadline policy — flush at [`ServeConfig::max_batch`], or when the
//! earliest pending request's delay budget expires.
//!
//! Coalescing is how the paper's formulation keeps paying off under
//! traffic: BPPSA's parallel scan (Wang, Bai & Pekhimenko, MLSys 2020)
//! shortens one request's critical path to `O(log n)`, and trading a small,
//! bounded delay for cross-request batch width keeps that critical path
//! *fed* — the same delay-for-parallelism trade Decoupled Parallel
//! Backpropagation makes across layers, made here across requests.
//!
//! Everything is std threads and condvars (the workspace is offline;
//! see `ARCHITECTURE.md`'s shims/no-network constraint), and the
//! steady-state request loop — refresh a reclaimed chain in place,
//! resubmit, wait, read — performs **zero heap allocations** end to end,
//! like every other hot path in this workspace.
//!
//! ## Quickstart
//!
//! ```
//! use bppsa_core::{JacobianChain, ScanElement};
//! use bppsa_serve::{BppsaService, ServeConfig, Ticket};
//! use bppsa_sparse::Csr;
//! use bppsa_tensor::Vector;
//!
//! let service = BppsaService::<f64>::new(ServeConfig::default());
//!
//! // Independently submitted requests of one shape coalesce into a lane.
//! let tickets: Vec<Ticket<f64>> = (0..3).map(|_| Ticket::new()).collect();
//! for (k, ticket) in tickets.iter().enumerate() {
//!     let mut chain = JacobianChain::new(Vector::from_vec(vec![1.0 + k as f64, -1.0]));
//!     chain.push(ScanElement::Sparse(Csr::from_diagonal(&[2.0, 0.5])));
//!     service.submit(chain, ticket).expect("service accepting");
//! }
//! for ticket in &tickets {
//!     ticket.wait().expect("request served");
//!     ticket.with_result(|r| assert_eq!(r.grads().len(), 1));
//! }
//! assert_eq!(service.lanes(), 1);
//! ```
//!
//! ## Observability and load shedding
//!
//! Lane bring-up is **non-blocking**: a cold shape inserts only a
//! placeholder under the router lock, and the symbolic planner runs on the
//! new lane's dispatcher thread (`Warming → Live → Draining → Retired`,
//! see [`LaneState`]). Every lane keeps lock-free counters readable via
//! [`BppsaService::metrics`]. Whether a request that reaches its lane is
//! queued, parks on a full queue, or is refused is one pure decision,
//! [`admit`]: a [`ShedPolicy`] can turn doomed requests away there instead
//! of letting them queue — too deep a queue, a budget the warm-up would
//! consume, or a budget the lane's measured flush latency cannot meet:
//!
//! ```
//! use bppsa_core::{JacobianChain, ScanElement};
//! use bppsa_serve::{BppsaService, FlushCause, LaneState, ServeConfig, Ticket};
//! use bppsa_sparse::Csr;
//! use bppsa_tensor::Vector;
//!
//! let service = BppsaService::<f64>::new(ServeConfig::default());
//! let ticket = Ticket::new();
//! let mut chain = JacobianChain::new(Vector::from_vec(vec![1.0, -2.0]));
//! chain.push(ScanElement::Sparse(Csr::from_diagonal(&[3.0, 0.5])));
//! service.submit(chain, &ticket).expect("service accepting");
//! ticket.wait().expect("request served");
//!
//! // One snapshot per lane ever created, in creation order.
//! let lanes = service.metrics();
//! assert_eq!(lanes.len(), 1);
//! let lane = &lanes[0];
//! assert_eq!(lane.state, LaneState::Live);
//! assert_eq!(lane.submitted, 1);
//! assert_eq!(lane.flushes(), 1);
//! assert_eq!(lane.flushes_of(FlushCause::Deadline), 1);
//! assert_eq!(lane.requests_flushed(), 1);
//! assert!(lane.warmup_time >= lane.plan_time);
//! ```
//!
//! ## Supervision, circuit breaking, and fault injection
//!
//! Every failure a lane can suffer is mapped to a terminal ticket outcome —
//! no accepted request ever hangs (see the [`service`](BppsaService) docs'
//! *failure domains* section). A [`BreakerPolicy`] quarantines a shape
//! whose batches panic repeatedly ([`LaneState::Quarantined`], refusals as
//! [`SubmitRefusal::Quarantined`]) and re-admits it through a single
//! half-open probe after a cool-down; a hard [`DeadlinePolicy`] fails
//! requests whose budget expired while queued with
//! [`ServeError::DeadlineExceeded`]. Every refusal is a [`SubmitError`]:
//! one [`SubmitRefusal`] plus the handed-back chain. The service never
//! retries for its caller; callers loop on [`SubmitRefusal::is_transient`].
//! All of it is testable deterministically through the seeded, scriptable
//! [`FaultInjector`] — a disabled injector (the default) is a single
//! pointer check on the hot path.
//!
//! See the [`service`](BppsaService) docs for the lane lifecycle, deadline
//! policy, backpressure/shedding, panic attribution, and shutdown
//! semantics.

#![warn(missing_docs)]

mod fault;
mod metrics;
mod overload;
mod service;
mod ticket;

pub use fault::{FaultAction, FaultInjector, FaultRates, FaultScript, InjectionPoint};
pub use metrics::{FlushCause, LaneMetricsSnapshot, LaneState, RetiredRollup};
pub use overload::{
    admit, ewma_update, predicted_wait, FeasibilityPolicy, LaneAdmission, LaneView, WatchdogPolicy,
    EWMA_SHIFT,
};
// Re-exported so metrics consumers can name the snapshot's plan-profile
// fields without a direct `bppsa-core` dependency, and so the memory
// budget a `ServeConfig` carries can be built without one either.
pub use bppsa_core::{KernelCounts, MemoryBudget, PlanKind};
pub use service::{
    flush_decision, lane_plan_options, BppsaService, BreakerPolicy, DeadlinePolicy, FlushDecision,
    ServeConfig, ShedPolicy, SubmitError, SubmitRefusal, LANE_SEGMENTS, LANE_SEGMENT_MIN_LAYERS,
    RETIRED_METRICS_CAP,
};
pub use ticket::{ServeError, Ticket};
